//! E11 — isolation-mechanism ablation: MPK vs CHERI vs SFI vs process.
//!
//! The paper (§IV) names MPK and CHERI as lightweight alternatives to
//! process isolation but does not price them side by side; this
//! experiment does, holding the SDRaD programming model (enter a domain,
//! touch memory, rewind on fault) constant and swapping the substrate:
//! MPK pays per domain switch (WRPKRU) with a 16-key limit, CHERI per
//! sealed-entry crossing, SFI per memory access (check or mask), a
//! process a context switch per crossing. Output: the modeled costs, the
//! break-even in accesses per call, measured wall clock on this build's
//! simulators, and a containment matrix of the same out-of-bounds
//! exploit against each mechanism. Models and matrix are `exact`,
//! timings `info`.

use std::hint::black_box;

use sdrad::{DomainConfig, DomainManager};
use sdrad_cheri::{CheriCostModel, CompartmentManager};
use sdrad_mpk::CostModel;
use sdrad_sfi::{routines, EnforcementMode, Instr, Limits, Program, SfiCostModel, SfiSandbox};

use crate::{measure, Report};

const MMU: &str = "0 (MMU-parallel)";
const CAP: &str = "0 (cap check parallel)";

/// The fault an escape attempt was contained with, if it was.
fn fault<T, E: std::fmt::Display>(escape: Result<T, E>) -> Option<String> {
    escape.err().map(|e| e.to_string())
}

/// Prices the mechanisms, times `size` empty calls on each simulator
/// and runs the containment matrix.
#[must_use]
pub fn run(size: usize) -> Report {
    let mpk = CostModel::calibrated();
    let cheri = CheriCostModel::calibrated();
    let sfi = SfiCostModel::calibrated();
    let mpk_crossing = 2.0 * mpk.wrpkru_ns();
    let cheri_crossing = cheri.round_trip_ns();
    let sfi_crossing = sfi.round_trip_ns();
    let process_crossing = 2.0 * mpk.process_switch_ns();

    let mut r = Report::new("e11", "isolation-mechanism ablation");
    let columns = [
        "mechanism",
        "crossing (ns)",
        "per-access (cycles)",
        "domain limit",
    ];
    r.begin_table(
        "modeled isolation taxes (calibrated cycle models)",
        &columns,
    );
    let otypes = format!("{} otypes", sdrad_cheri::OType::MAX);
    let (check, mask) = (sfi.check_cycles.to_string(), sfi.mask_cycles.to_string());
    for (mechanism, crossing, per_access, limit) in [
        ("MPK domain (SDRaD)", mpk_crossing, MMU, "16 keys"),
        ("CHERI compartment", cheri_crossing, CAP, otypes.as_str()),
        ("SFI (checked)", sfi_crossing, check.as_str(), "unlimited"),
        ("SFI (masked)", sfi_crossing, mask.as_str(), "unlimited"),
        ("SFI (guard pages)", sfi_crossing, MMU, "address space"),
        ("process (IPC baseline)", process_crossing, "0", "OS limits"),
    ] {
        r.row_str(&[mechanism, &format!("{crossing:.0}"), per_access, limit]);
    }
    let process_over_mpk = (process_crossing / mpk_crossing) as u64;
    r.note(format!(
        "ordering: MPK {mpk_crossing:.0} ns ~ SFI {sfi_crossing:.0} ns < CHERI \
         {cheri_crossing:.0} ns << process {process_crossing:.0} ns ({process_over_mpk}x MPK)"
    ));

    // Break-even: total tax(A) = crossing + A × per-access-ns.
    let check_ns = mpk.cpu.cycles_to_ns(sfi.check_cycles);
    r.begin_table(
        "total isolation tax per call at A guest memory accesses (ns, modeled)",
        &["accesses/call", "MPK", "CHERI", "SFI checked", "process"],
    );
    for accesses in [0u64, 10, 100, 1_000, 10_000, 100_000] {
        let sfi_tax = sfi_crossing + accesses as f64 * check_ns;
        let taxes = [mpk_crossing, cheri_crossing, sfi_tax, process_crossing];
        let mut row = vec![accesses.to_string()];
        row.extend(taxes.map(|ns| format!("{ns:.0}")));
        r.row(&row);
    }
    // The calibrated models order the crossings MPK < SFI < CHERI <<
    // process, so SFI's per-access tax only competes with CHERI.
    let crossings = [mpk_crossing, sfi_crossing, cheri_crossing, process_crossing];
    assert!(crossings.is_sorted(), "crossing order broke: {crossings:?}");
    let crossover = (cheri_crossing - sfi_crossing) / check_ns;
    r.note(format!(
        "MPK's crossing is already the cheapest, so its zero per-access tax makes it dominant \
         at every A; SFI-checked still beats CHERI below ~{crossover:.0} accesses/call. The \
         per-access column is why ERIM-style MPK isolation outruns classic SFI on memory-hot \
         code"
    ));
    r.exact("process_over_mpk", process_over_mpk as f64, "ratio")
        .exact("sfi_crossover_accesses", crossover.round(), "count");

    // Measured on this build's substrates (simulator wall clock; the
    // *relative* ordering of the simulated work is the reproduction
    // target, constants are simulator-inflated — see DESIGN.md §5).
    let iters = size as u32;
    let mut mgr = DomainManager::new();
    let domain = mgr.create_domain(DomainConfig::new("probe")).unwrap();
    let mpk_call = measure(iters, || {
        mgr.try_call(domain, |_| Ok(black_box(1u64))).unwrap();
    });
    let mut compartments = CompartmentManager::new(1 << 20);
    let (_, entry) = compartments.create_compartment("probe", 4096).unwrap();
    let cheri_call = measure(iters, || {
        compartments.invoke(entry, |_| Ok(black_box(1u64))).unwrap();
    });
    let limits = Limits {
        fuel: 50_000_000,
        stack: 1024,
    };
    let mut sandbox = SfiSandbox::new(1, EnforcementMode::Checked)
        .unwrap()
        .with_limits(limits);
    let trivial = Program {
        locals: 0,
        params: 0,
        results: 0,
        instrs: vec![Instr::Return],
    };
    let sfi_call = measure(iters, || {
        sandbox.call(&trivial, &[]).unwrap();
    });
    r.begin_table(
        "measured empty-call round trips (this build's simulators)",
        &["mechanism", "per call"],
    );
    for (mechanism, key, per_call) in [
        ("MPK domain call", "mpk_call_ns", mpk_call),
        ("CHERI invoke", "cheri_call_ns", cheri_call),
        ("SFI sandbox call", "sfi_call_ns", sfi_call),
    ] {
        let ns = per_call.as_nanos() as f64;
        r.row(&[mechanism.into(), format!("{:.2} µs", ns / 1e3)]);
        r.info(key, ns, "ns");
    }

    // Containment matrix: the same OOB exploit against each mechanism.
    let mpk_escape = mgr.try_call(domain, |env| {
        let addr = env.try_alloc(16)?;
        // Walk far beyond the allocation: lands outside the domain key.
        env.try_write(addr.offset(1 << 20), &[0x41])
    });
    let cheri_escape = compartments.invoke(entry, |env| {
        let buf = env.alloc(16)?;
        let wild = buf.with_address(buf.top() + (1 << 20))?;
        env.write(&wild, &[0x41])
    });
    sandbox.memory_mut().store_u64(0x100, 1 << 30).unwrap();
    let sfi_escape = sandbox.call(&routines::checksum_trusting_length_field(), &[0x100, 8]);
    r.begin_table(
        "containment: out-of-bounds write escape attempt",
        &["mechanism", "outcome", "service state"],
    );
    let outcomes = [
        ("MPK domain", fault(mpk_escape), "rewound, serving"),
        ("CHERI compartment", fault(cheri_escape), "rewound, serving"),
        ("SFI sandbox", fault(sfi_escape), "wiped, serving"),
    ];
    for (mechanism, fault, state) in &outcomes {
        let fault = fault.as_deref().expect("contained");
        r.row_str(&[mechanism, fault, state]);
    }
    r.exact("contained", outcomes.len() as f64, "count");
    r.note(
        "all three in-process mechanisms contain the exploit and keep serving; the shape of \
         §IV's argument holds under every substrate",
    );
    r
}

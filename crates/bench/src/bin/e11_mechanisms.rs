//! E11 — isolation-mechanism ablation: MPK vs CHERI vs SFI vs process.
//!
//! Paper context (§IV): "conventional process isolation has high
//! context-switching costs … Hardware-assisted in-process isolation, such
//! as Memory Protection Keys (MPK) and CHERI, are potential solutions to
//! provide lightweight isolation. It should be noted that CHERI requires
//! specialized hardware."
//!
//! The paper names the mechanisms but does not price them side by side;
//! this experiment does, holding the SDRaD programming model (enter a
//! domain, touch memory, rewind on fault) constant and swapping the
//! substrate:
//!
//! * **MPK** (`sdrad-mpk` + `sdrad`) — pays per *domain switch* (WRPKRU),
//!   free per access, 16-key limit.
//! * **CHERI** (`sdrad-cheri`) — pays per *crossing* (sealed entry pair),
//!   free per access, unlimited compartments.
//! * **SFI** (`sdrad-sfi`) — nearly free crossings, pays per *memory
//!   access* (check or mask).
//! * **Process** — context switch per crossing, the §IV baseline.
//!
//! Output: the modeled cost table, the break-even analysis (at how many
//! accesses per call does SFI's per-access tax exceed MPK's crossing
//! tax?), measured wall-clock on this build's simulators, and a
//! containment matrix proving all three in-process mechanisms contain the
//! same out-of-bounds exploit.

use sdrad::{DomainConfig, DomainManager};
use sdrad_bench::{banner, measure, TextTable};
use sdrad_cheri::{CheriCostModel, CompartmentManager};
use sdrad_mpk::CostModel;
use sdrad_sfi::{routines, EnforcementMode, SfiCostModel, SfiSandbox};

fn main() {
    sdrad::quiet_fault_traps();
    banner(
        "E11",
        "isolation-mechanism ablation (MPK / CHERI / SFI / process)",
        "\"MPK and CHERI … provide lightweight isolation\" vs process context switches (§IV)",
    );

    let mpk = CostModel::calibrated();
    let cheri = CheriCostModel::calibrated();
    let sfi = SfiCostModel::calibrated();

    // ---------------------------------------------------------------
    // Modeled costs: crossing + per-access, in one currency (cycles).
    // ---------------------------------------------------------------
    let mpk_crossing = 2.0 * mpk.wrpkru_ns();
    let cheri_crossing = cheri.round_trip_ns();
    let sfi_crossing = sfi.round_trip_ns();
    let process_crossing = 2.0 * mpk.process_switch_ns();

    let mut table = TextTable::new(
        "modeled isolation taxes (calibrated cycle models)",
        &[
            "mechanism",
            "crossing (ns)",
            "per-access (cycles)",
            "domain limit",
        ],
    );
    table.row(&[
        "MPK domain (SDRaD)".into(),
        format!("{mpk_crossing:.0}"),
        "0 (MMU-parallel)".into(),
        "16 keys".into(),
    ]);
    table.row(&[
        "CHERI compartment".into(),
        format!("{cheri_crossing:.0}"),
        "0 (cap check parallel)".into(),
        format!("{} otypes", sdrad_cheri::OType::MAX),
    ]);
    table.row(&[
        "SFI (checked)".into(),
        format!("{sfi_crossing:.0}"),
        format!("{}", sfi.check_cycles),
        "unlimited".into(),
    ]);
    table.row(&[
        "SFI (masked)".into(),
        format!("{sfi_crossing:.0}"),
        format!("{}", sfi.mask_cycles),
        "unlimited".into(),
    ]);
    table.row(&[
        "SFI (guard pages)".into(),
        format!("{sfi_crossing:.0}"),
        "0 (MMU-parallel)".into(),
        "address space".into(),
    ]);
    table.row(&[
        "process (IPC baseline)".into(),
        format!("{process_crossing:.0}"),
        "0".into(),
        "OS limits".into(),
    ]);
    println!("{table}");

    println!(
        "-> ordering: MPK {:.0} ns ~ SFI {:.0} ns < CHERI {:.0} ns << process {:.0} ns ({}x MPK)\n",
        mpk_crossing,
        sfi_crossing,
        cheri_crossing,
        process_crossing,
        (process_crossing / mpk_crossing) as u64,
    );

    // ---------------------------------------------------------------
    // Break-even: total tax(A) = crossing + A × per-access-ns.
    // ---------------------------------------------------------------
    let check_ns = mpk.cpu.cycles_to_ns(sfi.check_cycles);
    let mut breakeven = TextTable::new(
        "total isolation tax per call at A guest memory accesses (ns, modeled)",
        &["accesses/call", "MPK", "CHERI", "SFI checked", "process"],
    );
    for accesses in [0u64, 10, 100, 1_000, 10_000, 100_000] {
        breakeven.row(&[
            accesses.to_string(),
            format!("{:.0}", mpk_crossing),
            format!("{:.0}", cheri_crossing),
            format!("{:.0}", sfi_crossing + accesses as f64 * check_ns),
            format!("{:.0}", process_crossing),
        ]);
    }
    println!("{breakeven}");
    if sfi_crossing < mpk_crossing {
        let crossover = (mpk_crossing - sfi_crossing) / check_ns;
        println!(
            "-> SFI-checked beats MPK below ~{crossover:.0} accesses/call; above that its per-access tax dominates.\n"
        );
    } else {
        let cheri_crossover = (cheri_crossing - sfi_crossing) / check_ns;
        println!(
            "-> MPK's crossing is already the cheapest, so its zero per-access tax makes it dominant at every A; \
             SFI-checked still beats CHERI below ~{cheri_crossover:.0} accesses/call. \
             The per-access column is why ERIM-style MPK isolation outruns classic SFI on memory-hot code.\n"
        );
    }

    // ---------------------------------------------------------------
    // Measured on this build's substrates (simulator wall clock; the
    // *relative* ordering of the simulated work is the reproduction
    // target, constants are simulator-inflated — see DESIGN.md §5).
    // ---------------------------------------------------------------
    let mut mgr = DomainManager::new();
    let domain = mgr.create_domain(DomainConfig::new("probe")).unwrap();
    let mpk_call = measure(5_000, || {
        mgr.call(domain, |_env| std::hint::black_box(1u64)).unwrap();
    });

    let mut compartments = CompartmentManager::new(1 << 20);
    let (_, entry) = compartments.create_compartment("probe", 4096).unwrap();
    let cheri_call = measure(5_000, || {
        compartments
            .invoke(entry, |_env| Ok(std::hint::black_box(1u64)))
            .unwrap();
    });

    let mut sandbox = SfiSandbox::new(1, EnforcementMode::Checked)
        .unwrap()
        .with_limits(sdrad_sfi::Limits {
            fuel: 50_000_000,
            stack: 1024,
        });
    let trivial = sdrad_sfi::Program {
        locals: 0,
        params: 0,
        results: 0,
        instrs: vec![sdrad_sfi::Instr::Return],
    };
    let sfi_call = measure(5_000, || {
        sandbox.call(&trivial, &[]).unwrap();
    });

    let mut measured = TextTable::new(
        "measured empty-call round trips (this build's simulators)",
        &["mechanism", "per call"],
    );
    measured.row(&[
        "MPK domain call".into(),
        format!("{:.2} µs", mpk_call.as_nanos() as f64 / 1e3),
    ]);
    measured.row(&[
        "CHERI invoke".into(),
        format!("{:.2} µs", cheri_call.as_nanos() as f64 / 1e3),
    ]);
    measured.row(&[
        "SFI sandbox call".into(),
        format!("{:.2} µs", sfi_call.as_nanos() as f64 / 1e3),
    ]);
    println!("{measured}");

    // ---------------------------------------------------------------
    // Containment matrix: the same OOB exploit against each mechanism.
    // ---------------------------------------------------------------
    let mut matrix = TextTable::new(
        "containment: out-of-bounds write escape attempt",
        &["mechanism", "outcome", "service state"],
    );

    let escape = mgr.call(domain, |env| {
        let addr = env.alloc(16);
        // Walk far beyond the allocation: lands outside the domain key.
        let wild = addr.offset(1 << 20);
        env.write(wild, &[0x41]);
    });
    matrix.row(&[
        "MPK domain".into(),
        format!("{}", escape.unwrap_err()),
        "rewound, serving".into(),
    ]);

    let escape = compartments.invoke(entry, |env| {
        let buf = env.alloc(16)?;
        let wild = buf.with_address(buf.top() + (1 << 20))?;
        env.write(&wild, &[0x41])
    });
    matrix.row(&[
        "CHERI compartment".into(),
        format!("{}", escape.unwrap_err()),
        "rewound, serving".into(),
    ]);

    sandbox.memory_mut().store_u64(0x100, 1 << 30).unwrap();
    let escape = sandbox.call(&routines::checksum_trusting_length_field(), &[0x100, 8]);
    matrix.row(&[
        "SFI sandbox".into(),
        format!("{}", escape.unwrap_err()),
        "wiped, serving".into(),
    ]);
    println!("{matrix}");

    println!(
        "-> all three in-process mechanisms contain the exploit and keep serving; the shape of §IV's argument holds under every substrate."
    );
}

//! E8 — the cost of isolation mechanisms: §IV's case that process
//! isolation pays context switches where MPK domains are lightweight.
//!
//! This is the one table that prices an MPK domain against a process
//! boundary. §IV names CHERI beside MPK as the other lightweight
//! mechanism but prices neither side by side; measured CHERI trade-offs
//! are cited from *Software Compartmentalization Trade-Offs with
//! Hardware Capabilities* rather than simulated here.
//!
//! Measures the same sandboxed call (identical marshalling) under three
//! real backends — direct, SDRaD domain, worker subprocess — plus the
//! calibrated hardware cost model for reference. The model's ratio is
//! `exact`; timings are `info`. The subprocess row needs the
//! `sdrad-ffi-worker` binary built beside this one
//! ([`worker_binary`]), so it is reported in the table only, and
//! asserted slower than the domain call when it runs.

use std::hint::black_box;
use std::process::Command;
use std::time::Duration;

use sdrad::{CostModel, DomainConfig, DomainManager};
use sdrad_ffi::Sandbox;

use crate::{fmt_duration, measure, worker_binary, Report};

/// Times `size` raw domain calls, `size` × 2/5 marshalled calls per
/// in-process backend and `size` / 10 subprocess round trips.
#[must_use]
pub fn run(size: usize) -> Report {
    let model = CostModel::calibrated();
    let mut r = Report::new("e8", "isolation-mechanism round-trip costs");
    r.begin_table(
        "modeled hardware costs (calibrated; see sdrad::CostModel for sources)",
        &["primitive", "cycles", "time @3GHz"],
    );
    for (primitive, cycles) in [
        ("WRPKRU (domain switch)", model.wrpkru_cycles),
        ("pkey_mprotect", model.pkey_mprotect_cycles),
        ("process context switch", model.process_switch_cycles),
        ("process spawn", model.process_spawn_cycles),
    ] {
        let time = Duration::from_secs_f64(model.cpu.cycles_to_ns(cycles) / 1e9);
        r.row(&[primitive.into(), cycles.to_string(), fmt_duration(time)]);
    }
    let modeled_ratio = (model.process_switch_ns() / model.wrpkru_ns()).round();
    r.exact("modeled_switch_ratio", modeled_ratio, "ratio");

    // Measured: raw domain enter/exit (no marshalling).
    let mut mgr = DomainManager::new();
    let domain = mgr.create_domain(DomainConfig::new("probe")).unwrap();
    let raw_call = measure(size as u32, || {
        mgr.try_call(domain, |_| Ok(black_box(1u64))).unwrap();
    });

    // Identical marshalled workload across backends.
    let payload: Vec<u8> = vec![7u8; 64];
    let time = |mut sandbox: Sandbox, iters: usize| {
        measure(iters as u32, || {
            let echo = |v: Vec<u8>| v;
            black_box(sandbox.invoke("echo", &payload, echo).unwrap());
        })
    };
    let direct = time(Sandbox::direct(), size * 2 / 5);
    let in_process = time(Sandbox::in_process().unwrap(), size * 2 / 5);
    let ratio = |slow: Duration, fast: Duration| slow.as_secs_f64() / fast.as_secs_f64();
    r.begin_table(
        "measured sandboxed call round-trips (this build)",
        &["mechanism", "per call", "notes"],
    );
    let vs_direct = format!("{:.1}x direct", ratio(in_process, direct));
    for (mechanism, time, notes) in [
        (
            "raw domain call (no args)",
            raw_call,
            "enter + exit + sweep",
        ),
        ("direct (marshal only)", direct, "no isolation"),
        ("sdrad domain", in_process, vs_direct.as_str()),
    ] {
        r.row(&[mechanism.into(), fmt_duration(time), notes.into()]);
    }
    let (cost, notes) = match worker_binary() {
        Some(path) => {
            // The worker's `echo` returns the payload; measure the RTT.
            let process = time(Sandbox::process(Command::new(path)).unwrap(), size / 10);
            assert!(process > in_process, "a subprocess beat a domain call");
            (
                fmt_duration(process),
                format!("{:.0}x sdrad domain", ratio(process, in_process)),
            )
        }
        None => (
            "n/a".into(),
            "worker binary not built; run `cargo build -p sdrad-ffi` first".into(),
        ),
    };
    r.row(&["subprocess (Sandcrust-style)".into(), cost, notes]);
    r.info("raw_call_ns", raw_call.as_nanos() as f64, "ns")
        .info("direct_call_ns", direct.as_nanos() as f64, "ns")
        .info("domain_call_ns", in_process.as_nanos() as f64, "ns");
    r.note(format!(
        "modeled ratio: process switch / WRPKRU = {modeled_ratio:.0}x; sdrad-domain calls sit \
         within a small factor of the marshalling-only baseline, while real subprocess round \
         trips cost orders of magnitude more — the paper's case for in-process isolation"
    ));
    r
}

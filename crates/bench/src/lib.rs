//! # sdrad-bench — experiment harnesses
//!
//! Every experiment (e1–e24) is one library function registered in
//! [`scenarios`], each regenerating one table or figure from the paper —
//! or one of the paper's §IV proposals (E10–E14) — as paper-vs-measured
//! rows; the runtime experiments (e15–e24) are built from the shared
//! [`cells`]. See `DESIGN.md` §5 for the experiment index. The one
//! binary, `bench_report`, runs one scenario at its full size when
//! given its id (`bench_report -- e1`); with no id it loops the
//! registry at the smaller trajectory sizes, writes the metrics to the
//! committed `BENCH_runtime.json` and `--check`s it in CI. Every
//! scenario routes its summary through [`report::Report`], so the human
//! tables and the machine-readable metrics are one data structure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod cells;
pub mod report;
pub mod scenarios;

use std::time::{Duration, Instant};

pub use report::{Metric, MetricClass, Report, BENCH_SCHEMA_VERSION};
pub use sdrad_energy::report::{fmt_bytes, fmt_duration};

/// Times `iters` runs of `f`, returning the mean per-iteration duration.
/// Runs a small warm-up first.
pub fn measure<F: FnMut()>(iters: u32, mut f: F) -> Duration {
    for _ in 0..(iters / 10).clamp(1, 50) {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed() / iters
}

/// Times a single run of `f`, returning its result and duration.
pub fn time_once<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed())
}

/// Throughput in operations/second for a per-op duration.
#[must_use]
pub fn ops_per_sec(per_op: Duration) -> f64 {
    if per_op.is_zero() {
        f64::INFINITY
    } else {
        1.0 / per_op.as_secs_f64()
    }
}

/// Relative overhead of `slow` over `fast`, as a percentage.
#[must_use]
pub fn overhead_pct(fast: Duration, slow: Duration) -> f64 {
    (slow.as_secs_f64() / fast.as_secs_f64() - 1.0) * 100.0
}

/// Locates the bundled `sdrad-ffi-worker` binary next to the current
/// executable (both live in the same cargo target directory). `None` if it
/// has not been built — harnesses then fall back to modeled costs.
#[must_use]
pub fn worker_binary() -> Option<std::path::PathBuf> {
    let mut dir = std::env::current_exe().ok()?;
    dir.pop();
    [
        dir.join("sdrad-ffi-worker"),
        dir.join("../sdrad-ffi-worker"),
    ]
    .into_iter()
    .find(|candidate| candidate.is_file())
}

/// Maps a seeded Poisson [`FaultSchedule`] onto a run of `requests`
/// uniformly-spaced request slots within `horizon_seconds`: slot `i` is
/// attacked iff at least one scheduled arrival lands in its interval.
///
/// This replaces e15's fixed `i % period == 0` attack pattern in e16 with
/// statistically honest (bursty, gapped) arrivals that are still exactly
/// reproducible per seed — the property the determinism tests pin down.
///
/// [`FaultSchedule`]: sdrad_faultsim::FaultSchedule
#[must_use]
pub fn attack_slots(
    schedule: &sdrad_faultsim::FaultSchedule,
    horizon_seconds: f64,
    requests: u64,
) -> Vec<bool> {
    let mut plan = vec![false; usize::try_from(requests).unwrap_or(0)];
    if plan.is_empty() {
        return plan;
    }
    let dt = horizon_seconds / requests as f64;
    for arrival in schedule.arrivals(horizon_seconds) {
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let slot = ((arrival / dt) as usize).min(plan.len() - 1);
        plan[slot] = true;
    }
    plan
}

/// The yearly fault rate that makes a [`FaultSchedule`] deliver
/// `attacks_per_10k` attacks per 10 000 requests in expectation, when
/// `requests` requests span `horizon_seconds`.
///
/// [`FaultSchedule`]: sdrad_faultsim::FaultSchedule
#[must_use]
pub fn attack_rate_per_year(attacks_per_10k: u64, requests: u64, horizon_seconds: f64) -> f64 {
    let expected = requests as f64 * attacks_per_10k as f64 / 10_000.0;
    expected * sdrad_energy::availability::SECONDS_PER_YEAR / horizon_seconds
}

/// Heap capacity of the scratch domain [`measured_rewind_latency`] faults.
pub(crate) const REWIND_PROBE_HEAP: usize = 64 * 1024;

/// Measures this build's SDRaD rewind latency: the mean wall clock of a
/// whole faulting `try_call` — stage a block, free it twice, rewind —
/// over `iters` contained faults in a warm scratch domain.
#[must_use]
pub fn measured_rewind_latency(iters: u32) -> Duration {
    rewind_latencies(iters, REWIND_PROBE_HEAP).0
}

/// [`measured_rewind_latency`] in a scratch domain of `heap_capacity`
/// bytes, beside the manager's own figure for the same faults: the mean
/// `rewind_ns`, from the boundary receiving the fault to the caller's
/// rights restored.
#[must_use]
pub fn rewind_latencies(iters: u32, heap_capacity: usize) -> (Duration, Duration) {
    use sdrad::{DomainConfig, DomainManager};
    let mut mgr = DomainManager::new();
    let domain = mgr
        .create_domain(DomainConfig::new("rewind-probe").heap_capacity(heap_capacity))
        .expect("fresh manager has keys");
    let fault = |mgr: &mut DomainManager| {
        let _ = mgr.try_call(domain, |env| {
            let block = env.try_push_bytes(b"probe")?;
            env.try_free(block)?;
            env.try_free(block)
        });
    };
    // One untimed fault first: the domain's first store backs a page of
    // its heap, which is setup, not a rewind.
    fault(&mut mgr);
    let rewound_before = mgr
        .domain_info(domain)
        .expect("domain exists")
        .total_rewind_ns;
    let iters = iters.max(1);
    let started = Instant::now();
    for _ in 0..iters {
        fault(&mut mgr);
    }
    let wall = started.elapsed() / iters;
    let info = mgr.domain_info(domain).expect("domain exists");
    (
        wall,
        Duration::from_nanos((info.total_rewind_ns - rewound_before) / u64::from(iters)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_positive_duration() {
        let d = measure(100, || {
            std::hint::black_box(42u64.wrapping_mul(7));
        });
        assert!(d.as_nanos() < 1_000_000, "trivial op should be fast");
    }

    #[test]
    fn overhead_pct_math() {
        let fast = Duration::from_micros(100);
        let slow = Duration::from_micros(103);
        assert!((overhead_pct(fast, slow) - 3.0).abs() < 0.01);
    }

    #[test]
    fn ops_per_sec_math() {
        assert!((ops_per_sec(Duration::from_millis(1)) - 1000.0).abs() < 1.0);
    }

    #[test]
    fn attack_slots_are_deterministic_and_rate_faithful() {
        use sdrad_faultsim::FaultSchedule;
        let horizon = 3600.0;
        let requests = 10_000u64;
        let rate = attack_rate_per_year(100, requests, horizon); // 1%
        let a = attack_slots(&FaultSchedule::new(rate, 42), horizon, requests);
        let b = attack_slots(&FaultSchedule::new(rate, 42), horizon, requests);
        let c = attack_slots(&FaultSchedule::new(rate, 43), horizon, requests);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, c, "different seed, different plan");
        // ~100 expected arrivals; slot-collapse loses only coincident
        // ones, so the realised count stays in a loose Poisson band.
        let attacks = a.iter().filter(|&&x| x).count();
        assert!(
            (40..=200).contains(&attacks),
            "1% of 10k should be ~100 attacks, got {attacks}"
        );
    }

    #[test]
    fn attack_slots_cover_empty_and_degenerate_inputs() {
        use sdrad_faultsim::FaultSchedule;
        let schedule = FaultSchedule::new(1.0, 1);
        assert!(attack_slots(&schedule, 3600.0, 0).is_empty());
        let one = attack_slots(&FaultSchedule::new(1e9, 5), 3600.0, 1);
        assert_eq!(one.len(), 1);
        assert!(one[0], "a huge rate must hit the only slot");
    }

    #[test]
    fn rewind_probe_runs_and_is_fast() {
        let (wall, manager) = rewind_latencies(50, REWIND_PROBE_HEAP);
        assert!(manager.as_nanos() > 0);
        assert!(wall >= manager, "the wall clock spans the manager's figure");
        assert!(wall.as_millis() < 10, "rewind {wall:?} implausibly slow");
    }
}

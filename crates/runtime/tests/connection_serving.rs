//! Connection-level serving, end to end: real (in-memory) sockets into
//! the sharded runtime, `sdrad-faultsim`-scheduled attack arrivals, and
//! the latency percentiles the stats layer now reports.

use sdrad_bench::scenarios::recovery_bill;
use sdrad_faultsim::FaultSchedule;
use sdrad_runtime::{ConnectionServer, IsolationMode, KvHandler, RuntimeConfig, RuntimeStats};

/// Maps a seeded Poisson [`FaultSchedule`] onto request slots: slot `i`
/// is attacked iff an arrival lands in its interval. (The same mapping
/// `sdrad-bench`'s e16 uses, duplicated here at test scale so the
/// runtime crate's determinism guarantee is tested where it lives.)
fn attack_plan(schedule: &FaultSchedule, requests: u64) -> Vec<bool> {
    let horizon = 3600.0; // one simulated hour of traffic
    let dt = horizon / requests as f64;
    let mut plan = vec![false; requests as usize];
    for arrival in schedule.arrivals(horizon) {
        let slot = ((arrival / dt) as usize).min(plan.len() - 1);
        plan[slot] = true;
    }
    plan
}

/// Runs one deterministic connection campaign: `conns` clients each
/// write their slice of a `requests`-slot schedule (benign set/get mix,
/// exploit on attacked slots), everything is drained at shutdown.
fn run_campaign(seed: u64, mode: IsolationMode) -> (RuntimeStats, u64) {
    const REQUESTS: u64 = 400;
    const CONNS: usize = 8;
    let schedule = FaultSchedule::new(200.0 * 8760.0, seed); // ~200/hour
    let plan = attack_plan(&schedule, REQUESTS);
    let attacks = plan.iter().filter(|&&a| a).count() as u64;

    let server = ConnectionServer::start(RuntimeConfig::new(3, mode), |_| KvHandler::default());
    let mut clients: Vec<_> = (0..CONNS).map(|_| server.connect()).collect();
    for (i, &attack) in plan.iter().enumerate() {
        let client = &mut clients[i % CONNS];
        if attack {
            client.write(b"xstat 65536 4\r\nboom\r\n");
        } else if i % 4 == 0 {
            client.write(format!("set key-{} 2\r\nok\r\n", i % 64).as_bytes());
        } else {
            client.write(format!("get key-{}\r\n", i % 64).as_bytes());
        }
    }
    // Shutdown drains every byte written above — no sleeps, no polling:
    // the run is deterministic in its counts.
    (server.shutdown(), attacks)
}

#[test]
fn faultsim_scheduled_campaign_is_deterministic_per_seed() {
    let (a, attacks_a) = run_campaign(42, IsolationMode::PerClientDomain);
    let (b, attacks_b) = run_campaign(42, IsolationMode::PerClientDomain);

    // Identical seeds → identical schedules → identical accounting.
    assert_eq!(attacks_a, attacks_b);
    assert!(attacks_a > 0, "the schedule must fire at this rate");
    let fingerprint = |s: &RuntimeStats| {
        (
            s.served(),
            s.ok(),
            s.contained_faults(),
            s.crashes(),
            s.leaks(),
            s.shed,
            s.connections(),
        )
    };
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(a.contained_faults(), attacks_a, "every attack contained");
    assert_eq!(a.crashes(), 0);
    assert!(a.reconciles() && b.reconciles());

    // A different seed yields a different campaign (with overwhelming
    // probability at ~200 expected arrivals).
    let (_, attacks_c) = run_campaign(43, IsolationMode::PerClientDomain);
    assert_ne!(attacks_a, attacks_c, "seed must steer the schedule");
}

#[test]
fn baseline_crashes_under_the_same_schedule() {
    let (isolated, attacks) = run_campaign(7, IsolationMode::PerClientDomain);
    let (baseline, attacks_b) = run_campaign(7, IsolationMode::Baseline);
    assert_eq!(attacks, attacks_b, "same seed, same campaign");

    assert_eq!(isolated.crashes(), 0);
    assert_eq!(isolated.contained_faults(), attacks);
    assert_eq!(baseline.contained_faults(), 0);
    assert_eq!(baseline.crashes(), attacks, "every exploit kills a shard");
    let domains = RuntimeConfig::new(3, IsolationMode::Baseline).domains_per_worker;
    assert!(
        recovery_bill(&baseline, domains).restart_time
            > recovery_bill(&isolated, domains).restart_time,
        "restarts charge downtime; rewinds do not"
    );
    assert!(isolated.reconciles() && baseline.reconciles());
}

#[test]
fn latency_percentiles_are_reported_per_disposition() {
    let (stats, attacks) = run_campaign(11, IsolationMode::PerClientDomain);
    let ok = stats.ok_latency();
    let contained = stats.contained_latency();
    assert_eq!(ok.len(), stats.ok());
    assert_eq!(contained.len(), attacks);
    // Percentiles are ordered and non-degenerate.
    assert!(ok.p50() <= ok.p99());
    assert!(ok.p99() <= ok.p999());
    assert!(ok.p99() > std::time::Duration::ZERO);
    assert!(contained.p50() <= contained.p99());
    // A contained request pays staging + fault + rewind, so its median
    // cannot be cheaper than… zero. (The real comparison against ok-path
    // medians is workload-dependent; the invariant here is presence and
    // ordering, measured over real connection traffic.)
    assert!(contained.p50() > std::time::Duration::ZERO);
}

//! The adaptive control plane under the real runtime: admission
//! decisions enforced at the dispatcher, escalation rungs executed by
//! workers, and the closed books reconciling across both.

use sdrad::ClientId;
use sdrad_bench::scenarios::recovery_bill;
use sdrad_net::duplex;
use sdrad_runtime::{
    ControlConfig, IsolationMode, LadderParams, ReputationParams, Runtime, RuntimeConfig, Standing,
    SubmitOutcome,
};

/// Control parameters tuned for fast tests: scores climb in a handful
/// of faults and barely decay within a test's lifetime.
fn fast_control() -> ControlConfig {
    ControlConfig {
        reputation: ReputationParams {
            half_life_ns: 60_000_000_000, // 60 s: no decay inside a test
            throttle_score: 3.0,
            quarantine_score: 6.0,
            // 10 quarantined faults land in the pit before the ban:
            // enough consecutive evidence for a pool rebuild (4) and a
            // worker restart (8) on the pit shard.
            ban_score: 16.0,
            throttle_rate_per_sec: 1e9, // throttle never starves the test
            throttle_burst: 1e9,
        },
        ladder: LadderParams {
            pool_after: 4,
            restart_after_rebuilds: 2,
        },
        ..ControlConfig::default()
    }
}

fn config() -> RuntimeConfig {
    let mut config = RuntimeConfig::new(2, IsolationMode::PerClientDomain);
    config.control = Some(fast_control());
    config
}

const ATTACK: &[u8] = b"xstat 65536 4\r\nboom\r\n";

#[test]
fn the_control_plane_spawns_a_blast_pit_no_client_hashes_to() {
    let runtime = Runtime::start(config(), |_| sdrad_runtime::KvHandler::default());
    assert_eq!(runtime.workers(), 3, "2 regular shards + the blast pit");
    let pit = runtime.blast_pit().expect("control plane enabled");
    assert_eq!(pit, 2);
    for client in 0..512u64 {
        assert_ne!(
            runtime.shard_of(ClientId(client)),
            pit,
            "regular hashing never reaches the pit"
        );
    }
    let stats = runtime.shutdown();
    assert!(stats.reconciles());
}

#[test]
fn repeat_offenders_are_quarantined_then_banned_benign_stay_served() {
    let runtime = Runtime::start(config(), |_| sdrad_runtime::KvHandler::default());
    let pit = runtime.blast_pit().unwrap();
    let offender = ClientId(666);
    let offender_home = runtime.shard_of(offender);

    // The offender attacks until admission refuses it outright.
    let mut admitted = 0u64;
    let mut refused = 0u64;
    for _ in 0..200 {
        match runtime.submit(offender, ATTACK.to_vec()) {
            SubmitOutcome::Enqueued(ticket) => {
                let _ = ticket.wait();
                admitted += 1;
            }
            SubmitOutcome::Shed => refused += 1,
        }
    }
    assert!(admitted >= 12, "evidence flowed before the ban: {admitted}");
    assert!(refused > 0, "the ban eventually refuses at admission");

    // Benign clients are untouched throughout.
    for client in 0..16u64 {
        let SubmitOutcome::Enqueued(ticket) =
            runtime.submit(ClientId(client), b"get healthy\r\n".to_vec())
        else {
            panic!("benign client shed");
        };
        assert_eq!(ticket.wait().response, b"END\r\n");
    }

    let stats = runtime.shutdown();
    let report = stats.control.as_ref().expect("control books present");
    assert_eq!(report.banned_clients, vec![offender.0], "only the offender");
    assert_eq!(report.quarantined_clients, vec![offender.0]);
    assert!(
        report.counts.quarantines > 0,
        "quarantine admissions happened"
    );
    assert!(report.counts.denies > 0);

    // Quarantined attacks ran in the pit, not on the offender's sticky
    // shard: the pit worker absorbed contained faults.
    assert!(
        stats.workers[pit].contained_faults > 0,
        "the blast pit absorbed quarantined attacks"
    );
    assert!(
        stats.workers[pit].contained_faults > stats.workers[offender_home].contained_faults,
        "most faults moved to the pit once quarantine engaged"
    );

    // The escalation ladder climbed: rewinds first, then pool rebuilds,
    // then at least one worker restart — and the workers executed
    // exactly the rungs the plane decided (reconciles checks equality).
    assert!(stats.ladder_rewinds() > 0);
    assert!(stats.pool_rebuilds() > 0, "pool rung engaged");
    assert!(stats.worker_restarts() > 0, "restart rung engaged");
    assert!(stats.ladder_rewinds() > stats.pool_rebuilds());
    assert!(stats.pool_rebuilds() >= stats.worker_restarts());
    assert!(
        recovery_bill(&stats, config().domains_per_worker).energy_saved_j() > 0.0,
        "cheap rungs first saved energy"
    );
    assert!(stats.reconciles(), "books balance: {stats:?}");
}

#[test]
fn banned_clients_are_refused_at_accept() {
    // Both latency targets parked: on a slow host the suspect class's
    // 2 ms target would shed an attack before the ban, so the climb's
    // first `Shed` could be overload rather than refusal.
    let mut control = fast_control();
    for shed in [&mut control.benign_shed, &mut control.suspect_shed] {
        shed.target_ns = u64::MAX;
    }
    let mut config = RuntimeConfig::new(2, IsolationMode::PerClientDomain);
    config.control = Some(control);
    let runtime = Runtime::start(config, |_| sdrad_runtime::KvHandler::default());
    let offender = ClientId(13);
    // Climb to a ban via the submit path: with shedding parked, the
    // first `Shed` is the ban.
    while let SubmitOutcome::Enqueued(ticket) = runtime.submit(offender, ATTACK.to_vec()) {
        let _ = ticket.wait();
    }
    // An incoming connection from the banned client is closed at accept.
    let (client, server) = duplex();
    runtime.attach(offender, server);
    assert!(!client.is_open(), "banned connection visibly refused");
    // A benign client's connection is served normally.
    let (mut ok_client, ok_server) = duplex();
    runtime.attach(ClientId(1), ok_server);
    ok_client.write(b"get k\r\n");
    let stats = runtime.shutdown();
    assert_eq!(ok_client.read_available(), b"END\r\n");
    let report = stats.control.as_ref().unwrap();
    assert!(
        report.banned_clients.contains(&offender.0),
        "the climb ended in a ban: {:?}",
        report.banned_clients
    );
    assert!(stats.reconciles());
}

#[test]
fn quarantine_decays_back_to_good_standing() {
    // A dedicated config with a millisecond half-life so decay happens
    // inside the test.
    let mut config = RuntimeConfig::new(2, IsolationMode::PerClientDomain);
    let mut control = fast_control();
    control.reputation.half_life_ns = 20_000_000; // 20 ms
    config.control = Some(control);
    let runtime = Runtime::start(config, |_| sdrad_runtime::KvHandler::default());
    let offender = ClientId(7);
    for _ in 0..8 {
        if let SubmitOutcome::Enqueued(ticket) = runtime.submit(offender, ATTACK.to_vec()) {
            let _ = ticket.wait();
        }
    }
    // Immediately after the burst the client is in bad standing; after
    // a few half-lives the score is forgiven.
    std::thread::sleep(std::time::Duration::from_millis(200));
    let SubmitOutcome::Enqueued(ticket) = runtime.submit(offender, b"get fresh\r\n".to_vec())
    else {
        panic!("forgiven client must be admitted");
    };
    assert_eq!(ticket.wait().response, b"END\r\n");
    let stats = runtime.shutdown();
    let report = stats.control.as_ref().unwrap();
    assert!(
        report.quarantined_clients.contains(&offender.0),
        "history remembers the quarantine"
    );
    assert!(stats.reconciles());
}

#[test]
fn standing_is_observable_through_the_report_types() {
    // The re-exported vocabulary compiles and behaves: a pure-API
    // smoke for embedders (no runtime involved).
    use sdrad_runtime::ControlReport;
    let config = fast_control();
    let mut plane = sdrad_control::ControlPlane::new(config);
    for i in 0..20 {
        let _ = plane.admit(9, i * 1_000_000);
        let _ = plane.observe_fault(0, 9, 100_000, i * 1_000_000, 0, 0);
    }
    assert_eq!(plane.standing(9, 20_000_000), Standing::Banned);
    let report: ControlReport = plane.report();
    assert!(report.reconciles());
}

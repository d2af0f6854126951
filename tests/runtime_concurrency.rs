//! End-to-end through the umbrella crate: the sharded runtime drives the
//! kvstore workload under concurrent attack, and its measurements feed
//! the fleet-level energy models.

use sdrad_bench::scenarios::{fleet_lineup_from_runs, recovery_bill};
use sdrad_repro::core::ClientId;
use sdrad_repro::energy::FleetScenario;
use sdrad_repro::runtime::{
    Disposition, IsolationMode, KvHandler, Runtime, RuntimeConfig, SubmitOutcome,
};

fn run(mode: IsolationMode, with_attacks: bool) -> sdrad_repro::runtime::RuntimeStats {
    let runtime = Runtime::start(RuntimeConfig::new(4, mode), |_worker| KvHandler::default());
    let attackers: Vec<ClientId> = (0..runtime.workers())
        .map(|shard| {
            (500u64..)
                .map(ClientId)
                .find(|c| runtime.shard_of(*c) == shard)
                .expect("every shard is reachable")
        })
        .collect();

    let mut tickets = Vec::new();
    for i in 0..400u64 {
        let attack = with_attacks && i % 40 == 0;
        let (client, payload): (ClientId, Vec<u8>) = if attack {
            (
                attackers[(i / 40) as usize % attackers.len()],
                b"xstat 65536 4\r\nboom\r\n".to_vec(),
            )
        } else {
            (
                ClientId(i % 16),
                format!("set k{i} 2\r\nhi\r\n").into_bytes(),
            )
        };
        match runtime.submit(client, payload) {
            SubmitOutcome::Enqueued(ticket) => tickets.push((attack, i, ticket)),
            SubmitOutcome::Shed => panic!("default queue depth must absorb this burst"),
        }
    }
    for (attack, i, ticket) in tickets {
        let done = ticket.wait();
        if attack {
            match mode {
                IsolationMode::PerClientDomain => {
                    assert!(matches!(
                        done.disposition,
                        Disposition::ContainedFault { .. }
                    ));
                }
                IsolationMode::Baseline => {
                    assert_eq!(done.disposition, Disposition::Crashed);
                }
            }
        } else {
            assert_eq!(done.disposition, Disposition::Ok, "request {i}");
            assert_eq!(done.response, b"STORED\r\n");
        }
    }
    runtime.shutdown()
}

#[test]
fn concurrent_attack_contained_and_fed_into_fleet_models() {
    let isolated = run(IsolationMode::PerClientDomain, true);
    let baseline = run(IsolationMode::Baseline, true);

    assert_eq!(isolated.crashes(), 0);
    assert_eq!(isolated.contained_faults(), 10);
    assert!(isolated.reconciles());
    assert_eq!(baseline.crashes(), 10);
    let domains = RuntimeConfig::new(4, IsolationMode::Baseline).domains_per_worker;
    assert!(
        recovery_bill(&baseline, domains).availability
            < recovery_bill(&isolated, domains).availability
    );

    // The measured runs drive the paper's fleet-level energy argument:
    // rewind latency from the attacked isolated run, isolation overhead
    // from an attack-free pair.
    let clean_isolated = run(IsolationMode::PerClientDomain, false);
    let clean_baseline = run(IsolationMode::Baseline, false);
    let lineup = fleet_lineup_from_runs(
        &isolated,
        &clean_isolated,
        &clean_baseline,
        FleetScenario::telecom_ran(),
    );
    let sdrad = lineup.iter().find(|r| r.strategy == "1N-sdrad").unwrap();
    let pair = lineup
        .iter()
        .find(|r| r.strategy == "2N-active-passive")
        .unwrap();
    assert!(sdrad.meets_target, "measured rewinds hold five nines");
    assert!(
        sdrad.annual_kwh < pair.annual_kwh,
        "one protected server beats the redundant pair on energy"
    );
}

#[test]
fn pool_rebuilds_under_hostile_traffic_and_every_ledger_closes() {
    // An offender climbs the escalation ladder to repeated pool
    // rebuilds on the hot shard while read pipelines arrive on that
    // same shard's connections. Whatever interleaving the worker sees,
    // responses stay complete and in frame order, and the books
    // reconcile exactly.
    use sdrad_repro::net::{duplex, Endpoint};
    use sdrad_repro::runtime::{ControlConfig, LadderParams, ReputationParams, ShedParams};

    let mut config = RuntimeConfig::new(2, IsolationMode::PerClientDomain);
    config.queue_capacity = 4096;
    config.batch = 16;
    config.conn_read_budget = 4;
    // Scores the offender can never reach: it is neither quarantined
    // nor banned, so every third consecutive fault rebuilds the pool
    // right on the shard the connections live on. The benign CoDel
    // target is parked at 1 s: this test is about the rebuild storm,
    // and the default 50 ms target sheds the 1500-deep backlog below on
    // a CPU-starved host.
    config.control = Some(ControlConfig {
        benign_shed: ShedParams {
            target_ns: 1_000_000_000,
            ..ControlConfig::default().benign_shed
        },
        reputation: ReputationParams {
            half_life_ns: 60_000_000_000,
            throttle_score: 1e12,
            quarantine_score: 1e15,
            ban_score: 1e18,
            throttle_rate_per_sec: 1e9,
            throttle_burst: 1e9,
        },
        ladder: LadderParams {
            pool_after: 3,
            restart_after_rebuilds: 1_000_000,
        },
        ..ControlConfig::default()
    });
    let pool_size = config.domains_per_worker;
    let runtime = Runtime::start(config, |_| KvHandler::default());
    let shard0: Vec<ClientId> = (0u64..)
        .map(ClientId)
        .filter(|c| runtime.shard_of(*c) == 0)
        .take(5)
        .collect();
    let (pin, offender) = (shard0[0], shard0[1]);

    // A mutation backlog keeps the hot shard busy, with an attack every
    // 50 frames climbing the ladder while the backlog drains.
    for i in 0..1500 {
        if i % 50 == 0 {
            assert!(runtime.submit_detached(offender, b"xstat 65536 4\r\nboom\r\n".to_vec()));
        }
        assert!(runtime.submit_detached(pin, b"set pin 2\r\nok\r\n".to_vec()));
    }

    // Get-only pipelines arrive on the hot shard's connections while
    // its pool is being rebuilt.
    let mut conns: Vec<(Endpoint, Vec<u8>)> = Vec::new();
    for &client_id in &shard0[2..] {
        let (mut client, server) = duplex();
        runtime.attach(client_id, server);
        let mut burst = Vec::new();
        let mut expected = Vec::new();
        for i in 0..96 {
            burst.extend_from_slice(format!("get miss-{i}\r\n").as_bytes());
            expected.extend_from_slice(b"END\r\n");
        }
        client.write(&burst);
        conns.push((client, expected));
    }

    assert!(runtime.quiesce(), "barrier must observe the drain");
    for (client, expected) in &mut conns {
        assert_eq!(
            client.read_available(),
            *expected,
            "reads answer completely through the rebuild storm"
        );
    }
    let stats = runtime.shutdown();

    assert!(stats.pool_rebuilds() > 0, "pool rung engaged: {stats:?}");
    let created: usize = stats.workers.iter().map(|w| w.domains_created).sum();
    assert!(
        created > pool_size,
        "rebuilt pools created fresh domains: {created} across workers, {pool_size} per pool"
    );
    assert!(stats.reconciles(), "books balance: {stats:?}");
}

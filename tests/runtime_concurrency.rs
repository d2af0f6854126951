//! End-to-end through the umbrella crate: the sharded runtime drives the
//! kvstore workload under concurrent attack, and its measurements feed
//! the fleet-level energy models.

use sdrad_repro::core::ClientId;
use sdrad_repro::energy::FleetScenario;
use sdrad_repro::runtime::{
    fleet_lineup_from_runs, Disposition, IsolationMode, KvHandler, Runtime, RuntimeConfig,
    SubmitOutcome,
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
    assert!(baseline.availability() < isolated.availability());

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
fn pool_rebuilds_race_deep_steals_and_every_ledger_closes() {
    // The cross-case the hazard protocol exists for: an offender climbs
    // the escalation ladder to repeated *deferred* pool rebuilds on the
    // hot shard while an idle sibling deep-steals read frames off that
    // same shard's connection buffers. Whatever interleaving the race
    // produces, responses stay complete and in frame order, mutations
    // stay on the owner, and the reclamation books reconcile exactly.
    use sdrad_repro::net::{duplex, Endpoint};
    use sdrad_repro::runtime::{
        ControlConfig, LadderParams, ReputationParams, ShedParams, StealPolicy,
    };

    let mut config = RuntimeConfig::new(2, IsolationMode::PerClientDomain);
    config.work_stealing = StealPolicy::Deep;
    config.queue_capacity = 4096;
    config.batch = 16;
    config.conn_read_budget = 4;
    // Scores the offender can never reach: it is neither quarantined
    // nor banned, so every third consecutive fault rebuilds the pool
    // right on the shard the thief is stealing from. The benign CoDel
    // target is parked at 1 s: this test is about rebuild x steal, and
    // the default 50 ms target sheds the 1500-deep backlog below on a
    // CPU-starved host.
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
    let runtime = Runtime::start(config, |_| KvHandler::default());
    let shard0: Vec<ClientId> = (0u64..)
        .map(ClientId)
        .filter(|c| runtime.shard_of(*c) == 0)
        .take(5)
        .collect();
    let (pin, offender) = (shard0[0], shard0[1]);

    // A mutation backlog pins the owner, with an attack every 50 frames
    // climbing the ladder while the backlog drains.
    for i in 0..1500 {
        if i % 50 == 0 {
            assert!(runtime.submit_detached(offender, b"xstat 65536 4\r\nboom\r\n".to_vec()));
        }
        assert!(runtime.submit_detached(pin, b"set pin 2\r\nok\r\n".to_vec()));
    }

    // Get-only pipelines sit in the hot shard's connection buffers for
    // the idle sibling to lift mid-rebuild.
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
            "stolen reads answer completely through the rebuild race"
        );
    }
    let stats = runtime.shutdown();

    assert!(stats.pool_rebuilds() > 0, "pool rung engaged: {stats:?}");
    assert_eq!(stats.thief_mutations(), 0, "no mutation ran on a thief");
    assert!(
        stats.domains_retired() > 0,
        "deferred rebuilds retired live domains"
    );
    assert_eq!(
        stats.domains_retired(),
        stats.domains_reclaimed(),
        "every retired domain was reclaimed by shutdown"
    );
    let hazard = stats
        .hazard
        .as_ref()
        .expect("deep stealing runs a hazard domain");
    assert!(hazard.conserves(), "hazard books: {hazard:?}");
    assert_eq!(hazard.pending, 0, "no view outlived the runtime");
    assert!(stats.reconciles(), "books balance: {stats:?}");
}

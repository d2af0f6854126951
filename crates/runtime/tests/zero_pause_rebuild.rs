//! Zero-pause pool rebuilds under live traffic: the escalation ladder
//! fires `PoolRebuild` rungs mid-campaign, the rung publishes
//! a fresh pool and retires the old one behind hazard pointers instead
//! of stopping the world, thief reads keep serving off published shard
//! views, and the reclamation books close exactly at shutdown.

use sdrad::ClientId;
use sdrad_net::{duplex, Endpoint};
use sdrad_runtime::{
    ControlConfig, IsolationMode, KvHandler, LadderParams, ReputationParams, Runtime,
    RuntimeConfig, RuntimeStats, StealPolicy, SubmitOutcome,
};

const ATTACK: &[u8] = b"xstat 65536 4\r\nboom\r\n";

/// Control tuned so the offender is never throttled, quarantined or
/// banned: every attack lands on its sticky shard, and each
/// `pool_after` consecutive faults climbs the ladder to a pool rebuild
/// right where the benign traffic lives.
fn rebuild_happy_control() -> ControlConfig {
    ControlConfig {
        reputation: ReputationParams {
            half_life_ns: 60_000_000_000, // no decay inside a test
            throttle_score: 1e12,
            quarantine_score: 1e15,
            ban_score: 1e18,
            throttle_rate_per_sec: 1e9,
            throttle_burst: 1e9,
        },
        ladder: LadderParams {
            pool_after: 3,
            // Rebuilds are the terminal rung here: restarts would close
            // the deferred books early and hide the hazard path.
            restart_after_rebuilds: 1_000_000,
        },
        ..ControlConfig::default()
    }
}

fn config() -> RuntimeConfig {
    let mut config = RuntimeConfig::new(2, IsolationMode::PerClientDomain);
    config.work_stealing = StealPolicy::Deep;
    config.control = Some(rebuild_happy_control());
    config.queue_capacity = 4096;
    config.batch = 16;
    config.conn_read_budget = 4;
    config
}

/// One rebuild-storm campaign: a mutation backlog pins shard 0's owner
/// with an attack every 50 frames (each third consecutive fault is a
/// pool rebuild), while get-only pipelines sit in shard 0's connection
/// buffers for the idle sibling to lift. Returns the closed books.
fn run_campaign() -> RuntimeStats {
    let runtime = Runtime::start(config(), |_| KvHandler::default());
    let shard0: Vec<ClientId> = (0u64..)
        .map(ClientId)
        .filter(|c| runtime.shard_of(*c) == 0)
        .take(5)
        .collect();
    let (pin, offender, readers) = (shard0[0], shard0[1], &shard0[2..]);

    // Seed the owner's store so published read views carry live state.
    let SubmitOutcome::Enqueued(seed) = runtime.submit(pin, b"set warm 5\r\nhello\r\n".to_vec())
    else {
        panic!("empty runtime shed the seed");
    };
    assert_eq!(seed.wait().response, b"STORED\r\n");

    for i in 0..2000 {
        if i % 50 == 0 {
            assert!(runtime.submit_detached(offender, ATTACK.to_vec()));
        }
        assert!(runtime.submit_detached(pin, b"set pin 2\r\nok\r\n".to_vec()));
    }

    let mut conns: Vec<(Endpoint, Vec<u8>)> = Vec::new();
    for &client_id in readers {
        let (mut client, server) = duplex();
        runtime.attach(client_id, server);
        let mut burst = Vec::new();
        let mut expected = Vec::new();
        for i in 0..128 {
            // Keys nothing ever sets: misses are byte-identical whether
            // the owner, a view-serving thief, or a thief falling back
            // to its own store shard answers.
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
            "reads fully served in frame order through the rebuild storm"
        );
    }
    runtime.shutdown()
}

#[test]
fn deferred_rebuilds_never_pause_thief_reads_and_the_books_close() {
    // Steal engagement is inherently racy; the invariants are checked
    // on every attempt, the engagement criterion gets a few tries.
    for attempt in 0..8 {
        let stats = run_campaign();

        // The ladder climbed to the pool rung mid-campaign, and every
        // rebuild published-and-retired: old pools were retired
        // into the hazard queue, then fully reclaimed by shutdown.
        assert!(stats.pool_rebuilds() > 0, "pool rung engaged: {stats:?}");
        assert!(
            stats.domains_retired() > 0,
            "deferred rebuilds retired live domains"
        );
        assert_eq!(
            stats.domains_retired(),
            stats.domains_reclaimed(),
            "retired == reclaimed + pending with pending drained to zero"
        );

        // State confinement survives the storm, and the runtime-wide
        // hazard domain (protecting published shard views) reconciles
        // with nothing left pending.
        assert_eq!(stats.thief_mutations(), 0, "no mutation ran on a thief");
        let hazard = stats
            .hazard
            .as_ref()
            .expect("deep stealing runs a hazard domain");
        assert!(hazard.conserves(), "hazard books: {hazard:?}");
        assert_eq!(hazard.pending, 0, "no view leaked past shutdown");
        assert!(stats.views_published() > 0, "owners published read views");
        assert!(stats.shared_reads() <= stats.conn_steals());
        assert!(stats.reconciles(), "books balance: {stats:?}");

        if stats.shared_reads() > 0 {
            // A thief actually served stolen reads from a published
            // view while the victim's pool was being rebuilt under it.
            return;
        }
        eprintln!("attempt {attempt}: thief never hit the view path; retrying");
    }
    panic!("view-serving reads never engaged across attempts");
}

#[test]
fn disabled_policy_runs_no_hazard_domain() {
    // Without deep stealing there are no shared views to protect: the
    // runtime must not spin up hazard machinery it cannot use.
    let mut config = RuntimeConfig::new(2, IsolationMode::PerClientDomain);
    config.work_stealing = StealPolicy::Disabled;
    let runtime = Runtime::start(config, |_| KvHandler::default());
    let SubmitOutcome::Enqueued(ticket) = runtime.submit(ClientId(1), b"get k\r\n".to_vec()) else {
        panic!("empty runtime shed");
    };
    assert_eq!(ticket.wait().response, b"END\r\n");
    let stats = runtime.shutdown();
    assert!(stats.hazard.is_none(), "hazard domain is deep-steal-only");
    assert_eq!(stats.shared_reads(), 0);
    assert_eq!(stats.views_published(), 0);
    assert!(stats.reconciles());
}

mod schedules {
    //! Random serve / rebuild / reclaim / restart schedules against one
    //! worker's isolation context: the `retired == reclaimed + pending`
    //! law holds after every step, the pool generation only moves
    //! forward, and serving keeps working whatever the schedule did.

    use proptest::prelude::*;
    use sdrad::ClientId;
    use sdrad_runtime::{IsolationMode, WorkerIsolation};

    /// One step of a rebuild-lifecycle schedule.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum IsoOp {
        /// Serve one request for a client (creates its domain lazily).
        Serve(u64),
        /// The rebuild rung: publish fresh, retire old.
        Rebuild,
        /// An amortized teardown pass with a small budget.
        ReclaimStep(usize),
        /// The restart rung: everything discarded, books closed.
        Restart,
    }

    fn iso_op() -> impl Strategy<Value = IsoOp> {
        prop_oneof![
            (0u64..4).prop_map(IsoOp::Serve),
            Just(IsoOp::Rebuild),
            (0usize..4).prop_map(IsoOp::ReclaimStep),
            Just(IsoOp::Restart),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn rebuild_schedules_conserve_the_reclamation_books(
            ops in proptest::collection::vec(iso_op(), 1..60),
        ) {
            let mut iso = WorkerIsolation::new(IsolationMode::PerClientDomain, 4, 16 * 1024);
            let mut generation = iso.pool_generation();

            for op in ops {
                match op {
                    IsoOp::Serve(client) => {
                        let served = iso.call_for(ClientId(client), |env| {
                            env.push_bytes(b"ok");
                        });
                        prop_assert!(served.is_ok(), "serving survives any schedule");
                    }
                    IsoOp::Rebuild => iso.rebuild_pool_deferred(),
                    IsoOp::ReclaimStep(budget) => {
                        iso.reclaim_step(budget);
                    }
                    IsoOp::Restart => iso.restart_worker(),
                }
                prop_assert!(
                    iso.pool_generation() >= generation,
                    "the pool generation never rolls back"
                );
                if matches!(op, IsoOp::Rebuild | IsoOp::Restart) {
                    prop_assert_eq!(
                        iso.pool_generation(),
                        generation + 1,
                        "every rebuild/restart publishes exactly one new generation"
                    );
                }
                generation = iso.pool_generation();
                prop_assert!(
                    iso.reclaim_conserves(),
                    "books drifted after {:?}: retired {} reclaimed {} pending {}",
                    op,
                    iso.domains_retired(),
                    iso.domains_reclaimed(),
                    iso.pending_domains()
                );
            }

            // Drain whatever the schedule left behind: the books close.
            while iso.reclaim_step(16) > 0 {}
            prop_assert_eq!(iso.pending_domains(), 0);
            prop_assert_eq!(iso.domains_retired(), iso.domains_reclaimed());
            prop_assert!(iso.reclaim_conserves());
        }
    }
}

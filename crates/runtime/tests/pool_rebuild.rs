//! Pool rebuilds under live traffic: the escalation ladder fires
//! `PoolRebuild` rungs mid-campaign, each rung destroys the shard's
//! pool and builds a fresh one inline on its worker, pipelined
//! connection reads on the same shard keep being answered completely
//! and in frame order, and the books close at shutdown.

use sdrad::ClientId;
use sdrad_net::{duplex, Endpoint};
use sdrad_runtime::{
    ControlConfig, IsolationMode, KvHandler, LadderParams, ReputationParams, Runtime,
    RuntimeConfig, RuntimeStats, SubmitOutcome,
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
            // Rebuilds are the terminal rung here: a restart would
            // replace the rebuild under test with a whole new context.
            restart_after_rebuilds: 1_000_000,
        },
        ..ControlConfig::default()
    }
}

fn config() -> RuntimeConfig {
    let mut config = RuntimeConfig::new(2, IsolationMode::PerClientDomain);
    config.control = Some(rebuild_happy_control());
    config.queue_capacity = 4096;
    config.batch = 16;
    config.conn_read_budget = 4;
    config
}

/// One rebuild-storm campaign: a mutation backlog keeps shard 0's
/// worker busy with an attack every 50 frames (each third consecutive
/// fault is a pool rebuild), while get-only pipelines arrive on shard
/// 0's connections. Returns the closed books.
fn run_campaign() -> RuntimeStats {
    let runtime = Runtime::start(config(), |_| KvHandler::default());
    let shard0: Vec<ClientId> = (0u64..)
        .map(ClientId)
        .filter(|c| runtime.shard_of(*c) == 0)
        .take(5)
        .collect();
    let (pin, offender, readers) = (shard0[0], shard0[1], &shard0[2..]);

    // Seed the shard's store so the storm runs against live state.
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
            // Keys nothing ever sets: every answer is a miss.
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
fn inline_rebuilds_answer_connection_reads_in_order_and_the_books_close() {
    let stats = run_campaign();

    // The ladder climbed to the pool rung mid-campaign, every fault was
    // contained, and the books reconcile.
    assert!(stats.pool_rebuilds() > 0, "pool rung engaged: {stats:?}");
    assert_eq!(stats.crashes(), 0, "every planted fault is contained");
    assert!(stats.reconciles(), "books balance: {stats:?}");
}

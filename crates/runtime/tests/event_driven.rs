//! Readiness-driven scheduling, observed from the outside: an idle
//! runtime performs **zero** periodic connection polls (workers park;
//! wake counters stay bounded by real events, not by time), idle
//! workers steal queued requests from a loaded sibling, and the
//! idle-connection reaper closes silent connections.

use std::time::Duration;

use sdrad::ClientId;
use sdrad_runtime::{
    ConnectionServer, Disposition, IsolationMode, KvHandler, Reply, Runtime, RuntimeConfig,
    RuntimeStats, SessionHandler, StealClass, StealPolicy, WorkerIsolation,
};

#[test]
fn idle_event_driven_runtime_performs_zero_connection_polls() {
    // Serve a little traffic, then hold the runtime open over an idle
    // window long enough for a polling scheduler to tick hundreds of
    // times.
    let config = RuntimeConfig::new(2, IsolationMode::PerClientDomain);
    let server = ConnectionServer::start(config, |_| KvHandler::default());
    let mut client = server.connect();
    client.write(b"set k 2\r\nhi\r\nget k\r\n");
    let response = server.await_response(&mut client);
    assert_eq!(response, b"STORED\r\nVALUE k 2\r\nhi\r\nEND\r\n".to_vec());
    // The idle window: the connection stays open, nobody writes.
    std::thread::sleep(Duration::from_millis(50));
    let stats = server.shutdown();
    assert!(stats.parks() > 0, "workers parked through the idle window");
    // Wakeups are bounded by real events (adoption kick, readiness
    // edges of the two requests, stop) — not by wall-clock time. A
    // polling loop in disguise would rack up hundreds over 50 ms.
    assert!(
        stats.wakeups() <= 20,
        "wakeups must track events, not time: {}",
        stats.wakeups()
    );
    assert_eq!(stats.ok(), 2);
    assert!(stats.reconciles());
}

const OFFERED: u64 = 4000;

/// Offers `OFFERED` copies of `payload` to one client pinned to shard 0
/// of a two-worker deep-stealing runtime and returns the books of the
/// first attempt in which the idle sibling stole. Engagement is
/// inherently racy, so it gets a few tries; conservation, state
/// confinement and reconciliation are checked on every attempt.
fn hot_shard_burst<H: SessionHandler + 'static>(
    queue_capacity: usize,
    factory: fn(usize) -> H,
    payload: &[u8],
) -> RuntimeStats {
    for attempt in 0..5 {
        let mut config = RuntimeConfig::new(2, IsolationMode::PerClientDomain);
        config.work_stealing = StealPolicy::Deep;
        config.queue_capacity = queue_capacity;
        config.batch = 16;
        let runtime = Runtime::start(config, factory);
        let hot = (0u64..)
            .map(ClientId)
            .find(|c| runtime.shard_of(*c) == 0)
            .expect("some client maps to shard 0");
        for _ in 0..OFFERED {
            let _ = runtime.submit_detached(hot, payload.to_vec());
        }
        let stats = runtime.shutdown();
        assert_eq!(stats.served() + stats.shed, OFFERED, "nothing lost");
        assert_eq!(stats.thief_mutations(), 0);
        assert!(stats.reconciles(), "stolen work must balance: {stats:?}");
        let thief = &stats.workers[1];
        if thief.steals > 0 {
            assert_eq!(
                stats.steals(),
                stats.stolen_submits,
                "thief and queue agree"
            );
            assert!(
                thief.served >= thief.steals,
                "stolen requests are served by the thief"
            );
            return stats;
        }
        eprintln!("attempt {attempt}: worker 0 drained before the thief woke; retrying");
    }
    panic!("stealing never engaged across attempts");
}

#[test]
fn idle_workers_steal_queued_requests_from_a_loaded_sibling() {
    // All load lands on one shard; the other worker must take part of
    // it, and with room for the whole burst none of it may shed.
    let capacity = usize::try_from(OFFERED).unwrap();
    let stats = hot_shard_burst(capacity, |_| KvHandler::default(), b"get missing\r\n");
    assert_eq!(stats.served(), OFFERED, "steals must not lose requests");
}

/// A stateless handler: every request is an echo, so every request is
/// safe on any shard and it says so.
struct Echo;

impl SessionHandler for Echo {
    fn handle(&mut self, _iso: &mut WorkerIsolation, _client: ClientId, request: &[u8]) -> Reply {
        Reply {
            response: request.to_vec().into(),
            disposition: Disposition::Ok,
        }
    }

    fn steal_class(&self, _request: &[u8]) -> StealClass {
        StealClass::ReadOnly
    }

    fn state_bytes(&self) -> u64 {
        0
    }

    fn restart(&mut self) {}
}

#[test]
fn stateless_handlers_get_blind_stealing_through_classification() {
    // Classification-blind queue stealing is not a policy of its own: a
    // handler whose every request is `ReadOnly` gets it from the deep
    // policy — here with a payload a kv parser would call a mutation,
    // because only the handler's own classification matters. The burst
    // overruns the hot shard's queue, so the books close on served +
    // shed; the helper panics unless the sibling stole.
    hot_shard_burst(1024, |_| Echo, b"set k 1\r\nv\r\n");
}

#[test]
fn stealing_disabled_keeps_every_request_on_its_sticky_shard() {
    let mut config = RuntimeConfig::new(2, IsolationMode::PerClientDomain);
    config.queue_capacity = 2048;
    let runtime = Runtime::start(config, |_| KvHandler::default());
    let hot = (0u64..)
        .map(ClientId)
        .find(|c| runtime.shard_of(*c) == 0)
        .expect("some client maps to shard 0");
    for _ in 0..1000 {
        assert!(runtime.submit_detached(hot, b"get missing\r\n".to_vec()));
    }
    let stats = runtime.shutdown();
    assert_eq!(stats.steals(), 0);
    assert_eq!(stats.stolen_submits, 0);
    assert_eq!(stats.workers[0].served, 1000, "all work stayed on shard 0");
    assert!(stats.reconciles());
}

#[test]
fn idle_connections_are_reaped_after_the_configured_passes() {
    let mut config = RuntimeConfig::new(1, IsolationMode::PerClientDomain);
    config.idle_reap_after = Some(3);
    let server = ConnectionServer::start(config, |_| KvHandler::default());

    let idler = server.connect();
    let mut active = server.connect();
    // Each served round trip is at least one pump pass on the (single)
    // worker; the idler makes progress in none of them.
    for i in 0..8 {
        active.write(format!("set k{i} 2\r\nok\r\n").as_bytes());
        assert_eq!(server.await_response(&mut active), b"STORED\r\n");
    }

    let stats = server.shutdown();
    assert_eq!(stats.reaped(), 1, "the silent connection must be reaped");
    assert!(
        !idler.is_open(),
        "a reaped peer observes the close, like a TCP idle timeout"
    );
    assert!(active.is_open(), "the active connection survives");
    assert_eq!(stats.ok(), 8);
    assert_eq!(stats.connections(), 2);
    assert!(stats.reconciles());
}

#[test]
fn read_budget_interleaves_a_noisy_pipeliner_with_other_clients() {
    // One client pipelines far past the budget in a single write; a
    // second client's single request must still be answered, and every
    // pipelined response must arrive in order. (With a budget of 4 the
    // 64-deep pipeline takes ≥16 rotations; without budget-fairness the
    // second client would be starved behind all 64.)
    let mut config = RuntimeConfig::new(1, IsolationMode::PerClientDomain);
    config.conn_read_budget = 4;
    let server = ConnectionServer::start(config, |_| KvHandler::default());

    let mut noisy = server.connect();
    let mut polite = server.connect();
    let mut pipeline = Vec::new();
    for i in 0..64 {
        pipeline.extend_from_slice(format!("get key-{i}\r\n").as_bytes());
    }
    noisy.write(&pipeline);
    polite.write(b"stats\r\n");

    let polite_bytes = server.await_response(&mut polite);
    assert!(
        !polite_bytes.is_empty(),
        "budget must prevent pipeline monopoly"
    );
    let noisy_bytes = server.await_response(&mut noisy);
    assert_eq!(
        String::from_utf8_lossy(&noisy_bytes).matches("END").count(),
        64,
        "every pipelined request is answered despite the budget"
    );
    let stats = server.shutdown();
    assert_eq!(stats.served(), 65);
    assert!(stats.reconciles());
}

#[test]
fn malformed_frame_past_the_budget_boundary_does_not_stall_the_connection() {
    // Regression: the budget-exhaustion "come back later" probe must
    // recognise *any* actionable frame, not just complete ones. With
    // budget 2, the malformed line lands exactly on the boundary; the
    // buffered bytes are already off the endpoint, so if the token is
    // not re-marked no readiness edge will ever resurface them and the
    // requests behind the bad line are silently dropped.
    let mut config = RuntimeConfig::new(1, IsolationMode::PerClientDomain);
    config.conn_read_budget = 2;
    let server = ConnectionServer::start(config, |_| KvHandler::default());
    let mut client = server.connect();
    client.write(b"get a\r\nget b\r\nBAD LINE !!\r\nget c\r\n");

    let bytes = server.await_response(&mut client);
    assert_eq!(
        bytes,
        b"END\r\nEND\r\nERROR\r\nEND\r\n".to_vec(),
        "the resync reply and the request behind it must both arrive"
    );
    let stats = server.shutdown();
    assert_eq!(stats.served(), 4, "malformed counts as served (resync)");
    assert!(stats.reconciles());
}

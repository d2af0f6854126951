//! Deep work stealing under a shard-stateful handler: connection-buffer
//! frames move to idle thieves, but **state never mutates off its owner
//! shard** — read-only frames execute on the thief, mutations come home
//! as owner-routed submissions, and pipelined responses stay in frame
//! order throughout.

mod common;

use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};

use common::ClaimGate;
use sdrad::ClientId;
use sdrad_net::{duplex, Endpoint};
use sdrad_runtime::{
    Framing, IsolationMode, KvHandler, Reply, Runtime, RuntimeConfig, SessionHandler, StealClass,
    StealPolicy, WorkerIsolation,
};

/// A `KvHandler` that records which worker executed every
/// mutation-classified request — the oracle for the state-confinement
/// guarantee.
struct RecordingKv {
    inner: KvHandler,
    worker: usize,
    mutation_log: Arc<Mutex<Vec<(usize, u64)>>>,
}

impl SessionHandler for RecordingKv {
    fn handle(&mut self, iso: &mut WorkerIsolation, client: ClientId, request: &[u8]) -> Reply {
        if self.inner.steal_class(request) == StealClass::Mutation {
            self.mutation_log
                .lock()
                .expect("log lock")
                .push((self.worker, client.0));
        }
        self.inner.handle(iso, client, request)
    }

    fn frame(&self, buffer: &[u8]) -> Framing {
        self.inner.frame(buffer)
    }

    fn steal_class(&self, request: &[u8]) -> StealClass {
        self.inner.steal_class(request)
    }

    fn state_bytes(&self) -> u64 {
        self.inner.state_bytes()
    }

    fn restart(&mut self) {
        self.inner.restart();
    }
}

/// Client ids all mapping to shard 0 of a `workers`-shard runtime.
fn hot_clients(runtime: &Runtime, count: usize) -> Vec<ClientId> {
    (0u64..)
        .map(ClientId)
        .filter(|c| runtime.shard_of(*c) == 0)
        .take(count)
        .collect()
}

/// Attaches `count` connections pinned to shard 0, each pipelining
/// `frames` alternating set/get requests in one write — a set first, so
/// a thief's first visit to a buffer meets a mutation at its head.
/// Returns the client endpoints with their exact expected response
/// bytes.
fn attach_hot_pipelines(
    runtime: &Runtime,
    count: usize,
    frames: usize,
) -> Vec<(Endpoint, Vec<u8>)> {
    let mut conns = Vec::new();
    for (c, client_id) in hot_clients(runtime, count).into_iter().enumerate() {
        let (mut client, server) = duplex();
        runtime.attach(client_id, server);
        let mut burst = Vec::new();
        let mut expected = Vec::new();
        for i in 0..frames {
            if i % 2 == 0 {
                burst.extend_from_slice(format!("set c{c}-k{i} 2\r\nok\r\n").as_bytes());
                expected.extend_from_slice(b"STORED\r\n");
            } else {
                // Keys nothing ever sets: a thief serving this from its
                // own store shard answers the same miss the owner would.
                burst.extend_from_slice(format!("get miss-{i}\r\n").as_bytes());
                expected.extend_from_slice(b"END\r\n");
            }
        }
        client.write(&burst);
        conns.push((client, expected));
    }
    conns
}

#[test]
fn state_never_mutates_on_a_thief_shard() {
    // Every connection (and so every mutation) belongs to shard 0; a
    // small read budget forces the hot owner to defer frames, ringing
    // the idle sibling in to steal. Whatever the interleaving, every
    // mutation must execute on worker 0.
    const CONNS: usize = 4;
    const FRAMES: usize = 64;
    let log: Arc<Mutex<Vec<(usize, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut config = RuntimeConfig::new(2, IsolationMode::PerClientDomain);
    config.work_stealing = StealPolicy::Deep;
    config.conn_read_budget = 2;
    let factory_log = Arc::clone(&log);
    let runtime = Runtime::start(config, move |worker| RecordingKv {
        inner: KvHandler::default(),
        worker,
        mutation_log: Arc::clone(&factory_log),
    });

    let mut conns = attach_hot_pipelines(&runtime, CONNS, FRAMES);
    assert!(runtime.quiesce(), "barrier must observe the drain");
    for (client, expected) in &mut conns {
        assert_eq!(
            client.read_available(),
            *expected,
            "responses complete and in frame order after quiesce"
        );
    }
    let stats = runtime.shutdown();

    assert_eq!(stats.served(), (CONNS * FRAMES) as u64);
    assert_eq!(stats.thief_mutations(), 0, "no mutation ran on a thief");
    let mutations = log.lock().expect("log lock");
    assert_eq!(
        mutations.len(),
        CONNS * FRAMES / 2,
        "every set was recorded exactly once (no double-processing)"
    );
    for &(worker, client) in mutations.iter() {
        assert_eq!(
            worker, 0,
            "mutation for client {client} executed on worker {worker}, not its owner shard"
        );
    }
    assert!(stats.reconciles(), "books balance: {stats:?}");
}

/// A two-worker deep-stealing runtime whose shard 0 holds its first
/// request until shard 1 claims one (see [`ClaimGate`]).
fn gated_runtime() -> Runtime {
    let mut config = RuntimeConfig::new(2, IsolationMode::PerClientDomain);
    config.work_stealing = StealPolicy::Deep;
    config.queue_capacity = 4096;
    config.batch = 16;
    config.conn_read_budget = 4;
    let claimed = Arc::new(AtomicBool::new(false));
    Runtime::start(config, move |shard| {
        ClaimGate::new(KvHandler::default(), shard, Arc::clone(&claimed))
    })
}

/// Pins the owner down with a queue backlog of (unstealable)
/// mutations. Offered *after* the pipelines are attached, every push
/// past one batch of backlog rings the sibling's steal bell while the
/// buffers hold complete frames — the owner, held by the gate, drains
/// at most one batch first.
fn pin_the_owner(runtime: &Runtime) {
    let hot = hot_clients(runtime, 1)[0];
    for _ in 0..2000 {
        assert!(runtime.submit_detached(hot, b"set pin 2\r\nok\r\n".to_vec()));
    }
}

#[test]
fn read_only_frames_are_stolen_off_connection_buffers() {
    // Get-only pipelines sit in the owner's connection buffers while the
    // owner is pinned; the gate makes the steal certain, not raced.
    let runtime = gated_runtime();
    let mut conns: Vec<(Endpoint, Vec<u8>)> = Vec::new();
    for client_id in hot_clients(&runtime, 3) {
        let (mut client, server) = duplex();
        runtime.attach(client_id, server);
        let mut burst = Vec::new();
        let mut expected = Vec::new();
        for i in 0..128 {
            burst.extend_from_slice(format!("get miss-{i}\r\n").as_bytes());
            expected.extend_from_slice(b"END\r\n");
        }
        client.write(&burst);
        conns.push((client, expected));
    }
    pin_the_owner(&runtime);
    assert!(runtime.quiesce());
    for (client, expected) in &mut conns {
        assert_eq!(client.read_available(), *expected);
    }
    let stats = runtime.shutdown();
    assert_eq!(stats.served(), 2000 + 3 * 128);
    assert_eq!(stats.thief_mutations(), 0);
    assert!(stats.reconciles(), "books balance: {stats:?}");
    assert!(stats.conn_steals() > 0, "the claimed frame was stolen");
    assert_eq!(
        stats.conn_steals(),
        stats.workers[1].conn_steals,
        "only the idle sibling lifts frames"
    );
}

#[test]
fn mutations_are_routed_home_when_a_thief_meets_them() {
    // Same pin-the-owner shape, but the pipelines alternate set/get: a
    // thief walking a buffer serves the gets and must hand every set
    // back. Each buffer opens with a set, so the frame the gate waits
    // for is a mutation at a buffer's head — routed home for certain.
    let runtime = gated_runtime();
    let mut conns = attach_hot_pipelines(&runtime, 3, 128);
    pin_the_owner(&runtime);
    assert!(runtime.quiesce());
    for (client, expected) in &mut conns {
        assert_eq!(
            client.read_available(),
            *expected,
            "owner-routed sets must answer in frame order"
        );
    }
    let stats = runtime.shutdown();
    assert_eq!(stats.served(), 2000 + 3 * 128);
    assert_eq!(stats.thief_mutations(), 0);
    assert!(stats.reconciles(), "books balance: {stats:?}");
    assert!(stats.owner_routed() > 0, "the claimed set was routed home");
    assert_eq!(stats.owner_routed(), stats.routed_served());
    assert_eq!(
        stats.workers[0].routed_served,
        stats.routed_served(),
        "routed mutations are served by the owner shard"
    );
}

#[test]
fn consecutive_mutations_travel_home_in_one_batch() {
    // Pipelines dominated by *runs* of consecutive sets: a thief that
    // meets the run's head must route the WHOLE run in one owner
    // hand-off (`routed_batches` counts hand-offs, `owner_routed`
    // counts frames — a write-heavy skew must show strictly more
    // frames than batches). Engagement is racy; the books are checked
    // on every attempt.
    for attempt in 0..8 {
        let mut config = RuntimeConfig::new(2, IsolationMode::PerClientDomain);
        config.work_stealing = StealPolicy::Deep;
        config.queue_capacity = 4096;
        config.batch = 16;
        config.conn_read_budget = 4;
        let runtime = Runtime::start(config, |_| KvHandler::default());
        let hot = hot_clients(&runtime, 1)[0];
        for _ in 0..2000 {
            assert!(runtime.submit_detached(hot, b"set pin 2\r\nok\r\n".to_vec()));
        }
        // One get, then a run of seven sets, repeated: any thief that
        // reaches a run head sees ≥ 2 consecutive mutations.
        let mut conns: Vec<(Endpoint, Vec<u8>)> = Vec::new();
        for (c, client_id) in hot_clients(&runtime, 3).into_iter().enumerate() {
            let (mut client, server) = duplex();
            runtime.attach(client_id, server);
            let mut burst = Vec::new();
            let mut expected = Vec::new();
            for i in 0..128 {
                if i % 8 == 0 {
                    burst.extend_from_slice(format!("get miss-{i}\r\n").as_bytes());
                    expected.extend_from_slice(b"END\r\n");
                } else {
                    burst.extend_from_slice(format!("set c{c}-k{i} 2\r\nok\r\n").as_bytes());
                    expected.extend_from_slice(b"STORED\r\n");
                }
            }
            client.write(&burst);
            conns.push((client, expected));
        }
        assert!(runtime.quiesce());
        for (client, expected) in &mut conns {
            assert_eq!(
                client.read_available(),
                *expected,
                "batched routing preserves frame order"
            );
        }
        let stats = runtime.shutdown();
        assert_eq!(stats.served(), 2000 + 3 * 128);
        assert_eq!(stats.thief_mutations(), 0);
        assert!(
            stats.routed_batches() <= stats.owner_routed(),
            "a batch carries at least one frame"
        );
        assert!(stats.reconciles(), "books balance: {stats:?}");
        if stats.owner_routed() > stats.routed_batches() && stats.routed_batches() > 0 {
            // At least one hand-off carried more than one frame: the
            // batch path engaged on a consecutive-mutation run.
            return;
        }
        eprintln!(
            "attempt {attempt}: no multi-frame batch ({} frames / {} batches); retrying",
            stats.owner_routed(),
            stats.routed_batches()
        );
    }
    panic!("the batched hand-off path never engaged across attempts");
}

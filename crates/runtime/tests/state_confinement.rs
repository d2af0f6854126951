//! Deep work stealing under a shard-stateful handler: connection-buffer
//! frames move to idle thieves, but **state never mutates off its owner
//! shard** — read-only frames execute on the thief, a mutation stops the
//! thief and stays in the buffer for its owner, and pipelined responses
//! stay in frame order throughout.

mod common;

use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};

use common::ClaimGate;
use sdrad::ClientId;
use sdrad_net::{duplex, Endpoint};
use sdrad_runtime::{
    Framing, IsolationMode, KvHandler, ReadView, Reply, Runtime, RuntimeConfig, SessionHandler,
    StealClass, StealPolicy, WorkerIsolation,
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

    fn state_version(&self) -> u64 {
        self.inner.state_version()
    }

    fn read_view(&self) -> Option<Box<dyn ReadView>> {
        self.inner.read_view()
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
/// `frames` alternating get/set requests in one write — a get first, so
/// a thief's first visit to a buffer lifts a read and then meets a
/// mutation at the head of what remains. Returns the client endpoints
/// with their exact expected response bytes.
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
            if i % 2 == 1 {
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
/// request until shard 1 claims one (see [`ClaimGate`]); every executed
/// mutation is recorded in `log`.
fn gated_runtime(log: &Arc<Mutex<Vec<(usize, u64)>>>) -> Runtime {
    let mut config = RuntimeConfig::new(2, IsolationMode::PerClientDomain);
    config.work_stealing = StealPolicy::Deep;
    config.queue_capacity = 4096;
    config.batch = 16;
    config.conn_read_budget = 4;
    let claimed = Arc::new(AtomicBool::new(false));
    let log = Arc::clone(log);
    Runtime::start(config, move |worker| {
        let recording = RecordingKv {
            inner: KvHandler::default(),
            worker,
            mutation_log: Arc::clone(&log),
        };
        ClaimGate::new(recording, worker, Arc::clone(&claimed))
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
    let runtime = gated_runtime(&Arc::default());
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
fn a_thief_leaves_a_head_mutation_for_its_owner() {
    // Same pin-the-owner shape, but the pipelines alternate get/set: a
    // thief walking a buffer serves the gets and stops at every set.
    // Each buffer opens with a get, so the frame the gate waits for is
    // a read a thief lifts for certain — and the set behind it is left
    // at the head for the owner.
    const FRAMES: usize = 128;
    let log = Arc::default();
    let runtime = gated_runtime(&log);
    let mut conns = attach_hot_pipelines(&runtime, 3, FRAMES);
    pin_the_owner(&runtime);
    assert!(runtime.quiesce());
    for (client, expected) in &mut conns {
        assert_eq!(
            client.read_available(),
            *expected,
            "sets left to the owner must answer in frame order"
        );
    }
    let stats = runtime.shutdown();
    assert_eq!(stats.served(), (2000 + 3 * FRAMES) as u64);
    assert_eq!(stats.thief_mutations(), 0);
    assert!(stats.reconciles(), "books balance: {stats:?}");
    assert!(
        stats.workers[1].conn_steals > 0,
        "the claimed read was stolen"
    );
    let mutations = log.lock().expect("log lock");
    assert_eq!(
        mutations.len(),
        2000 + 3 * FRAMES / 2,
        "every set ran exactly once"
    );
    assert!(
        mutations.iter().all(|&(worker, _)| worker == 0),
        "every set ran on its owner shard"
    );
}

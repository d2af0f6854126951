//! The one copy of every building block the runtime scenarios share.
//!
//! Each item here used to exist several times over — in the `eNN`
//! binaries and again in `bench_report`'s private cut-down cells. A
//! scenario in [`crate::scenarios`] composes these instead of carrying
//! its own, so two experiments that say "the e17 benign mix" or "the
//! hot-shard skew" provably drive the same bytes through the same
//! configuration.

use std::time::{Duration, Instant};

use sdrad::ClientId;
use sdrad_nolock::arena;
use sdrad_runtime::{
    ConnectionServer, Disposition, IsolationMode, KvHandler, LatencyHistogram, Runtime,
    RuntimeConfig, RuntimeStats, SessionHandler, StealPolicy, SubmitOutcome,
};

/// The kvstore exploit: a declared 64 KB `xstat` whose write lands past
/// its allocation — contained by a rewind when isolated, a crash when
/// not.
pub const KV_ATTACK: &[u8] = b"xstat 65536 4\r\nboom\r\n";

/// Relative flight-recorder overhead budget on the hot-path p99.
pub const OVERHEAD_BUDGET: f64 = 0.05;
/// Absolute epsilon under which p99 deltas are scheduler noise, not
/// recorder cost (the closed-loop service path runs at sub-µs p50, so
/// single-µs p99 jitter belongs to the host scheduler).
pub const OVERHEAD_EPSILON: Duration = Duration::from_micros(2);

/// Microseconds with one decimal, the latency cell format of every
/// scenario table.
#[must_use]
pub fn fmt_us(d: Duration) -> String {
    format!("{:.1}us", d.as_nanos() as f64 / 1_000.0)
}

/// The benign kvstore mix: one `set` per three `get`s over 512 keys.
#[must_use]
pub fn benign(i: usize) -> Vec<u8> {
    if i.is_multiple_of(4) {
        format!("set key-{} 8\r\nabcdefgh\r\n", i % 512).into_bytes()
    } else {
        format!("get key-{}\r\n", i % 512).into_bytes()
    }
}

/// Serves one round trip on every regular shard (domain-pool setup is
/// serialized), so each worker is provisioned and its siblings are
/// genuinely parked before a skew arrives. Returns the requests served.
pub fn warm_every_shard(runtime: &Runtime) -> u64 {
    let mut served = 0;
    for shard in (0..runtime.workers()).filter(|s| Some(*s) != runtime.blast_pit()) {
        let client = (0u64..)
            .map(ClientId)
            .find(|c| runtime.shard_of(*c) == shard)
            .expect("some id maps to every shard");
        if let SubmitOutcome::Enqueued(ticket) = runtime.submit(client, b"get warm-up\r\n".to_vec())
        {
            let _ = ticket.wait();
            served += 1;
        }
    }
    served
}

/// The first `count` client ids that hash to shard 0 — the hot shard of
/// every skewed cell.
#[must_use]
pub fn hot_clients(runtime: &Runtime, count: usize) -> Vec<ClientId> {
    (0u64..)
        .map(ClientId)
        .filter(|c| runtime.shard_of(*c) == 0)
        .take(count)
        .collect()
}

/// One ticket round trip (submit → worker → completion ring → notify)
/// of a byte-exact `get` miss, its wall-clock RTT recorded.
pub fn probe_rtt(runtime: &Runtime, client: ClientId, histogram: &mut LatencyHistogram) {
    let sent = Instant::now();
    match runtime.submit(client, b"get probe\r\n".to_vec()) {
        SubmitOutcome::Enqueued(ticket) => {
            let reply = ticket.wait();
            histogram.record_duration(sent.elapsed());
            assert_eq!(reply.response, b"END\r\n", "a probe miss is byte-exact");
            assert_eq!(reply.disposition, Disposition::Ok, "a probe serves cleanly");
        }
        SubmitOutcome::Shed => unreachable!("a closed-loop probe never fills the queue"),
    }
}

/// Measures with `run`, and re-measures up to twice more while the
/// outcome is not `settled`; returns the last measurement. For outcomes
/// that are statistical rather than structural on a small shared host
/// (did a thief engage before the owner drained the skew, did a noise
/// burst land in one cell's tail): `run` asserts the books on every
/// attempt, the caller asserts `settled` on what comes back, so only
/// the racy bit ever gets a second look.
pub fn retry_racy<T>(mut run: impl FnMut() -> T, settled: impl Fn(&T) -> bool) -> T {
    let mut outcome = run();
    for _ in 0..2 {
        if settled(&outcome) {
            break;
        }
        outcome = run();
    }
    outcome
}

/// The hot-shard skew runtime of e18, e21 and e23: `workers` shards under
/// `policy`, a per-connection read budget small enough that the hot
/// owner defers frames every rotation (the stranding deep stealing
/// rescues), and queues deep enough that a `burst` never sheds.
#[must_use]
pub fn hot_shard_config(workers: usize, policy: StealPolicy, burst: usize) -> RuntimeConfig {
    let mut config = RuntimeConfig::new(workers, IsolationMode::PerClientDomain);
    config.work_stealing = policy;
    config.conn_read_budget = 8;
    config.batch = 16;
    config.queue_capacity = burst.max(4096);
    config
}

/// The books every hot-shard cell must close, whatever its policy or
/// width: reconciliation, exact conservation (zero lost, zero
/// double-processed), nothing shed at this depth, no crash, no
/// mutation off its owner shard, and — stolen frames carry pooled
/// storage to thief threads and their buffers flow home over the MPSC
/// return channel — balanced arena books.
pub fn assert_skew_books(label: &str, stats: &RuntimeStats, offered: u64) {
    assert!(stats.reconciles(), "{label}: books must balance");
    assert_eq!(
        stats.served() + stats.shed,
        offered,
        "{label}: zero lost, zero double-processed — conservation is exact"
    );
    assert_eq!(stats.shed, 0, "{label}: nothing sheds at this depth");
    assert_eq!(stats.crashes(), 0, "{label}: no crashes");
    assert_eq!(
        stats.thief_mutations(),
        0,
        "{label}: stealing never mutates state on a thief shard"
    );
    assert_eq!(
        stats.arena_acquires(),
        stats.arena_reuses() + stats.arena_fresh_allocs(),
        "{label}: arena books must balance under cross-thread returns"
    );
}

/// The closed-loop connection cell (the e17 kv hot path): an
/// event-driven server, [`benign`] round trips over 8 connections with
/// one request in flight per trip — so the worker-measured latency is
/// the service path itself, not queue depth. The first `warmup` trips
/// are served but not counted. Returns the closed books and the heap
/// allocations that threads which opted into
/// [`arena::count_allocs_on_this_thread`] (from `factory`, under a
/// `CountingAlloc` global allocator) made during the `requests` counted
/// trips.
pub fn closed_loop<H, F>(
    config: RuntimeConfig,
    factory: F,
    warmup: usize,
    requests: usize,
) -> (RuntimeStats, u64)
where
    H: SessionHandler,
    F: Fn(usize) -> H + Send + Sync + 'static,
{
    const CONNS: usize = 8;
    let server = ConnectionServer::start(config, factory);
    let mut clients: Vec<_> = (0..CONNS).map(|_| server.connect()).collect();
    let mut drive = |trips: std::ops::Range<usize>| {
        for i in trips {
            clients[i % CONNS].write(&benign(i));
            let _ = server.await_response(&mut clients[i % CONNS]);
        }
    };
    drive(0..warmup);
    let before = arena::counted_allocs();
    drive(warmup..warmup + requests);
    let allocs = arena::counted_allocs() - before;
    let stats = server.shutdown();
    assert!(stats.reconciles(), "closed-loop books must balance");
    assert_eq!(stats.crashes(), 0, "a benign closed loop never crashes");
    (stats, allocs)
}

/// The recorder-overhead contrast e17 and e24 share: closed-loop kvstore
/// runs of `bare` and `instrumented` in alternation (so a host-noise
/// burst lands on both arms), each arm keeping its smallest ok-latency
/// p99 — the least noise-contaminated estimate of the service path's
/// tail — and the books of the run that produced it. Host noise only
/// ever *adds* to a p99, so after the first three rounds a contrast
/// still outside [`within_recorder_budget`] earns up to seven more
/// rounds: extra runs can only pull each minimum toward its true value,
/// and a recorder that really costs more than the budget keeps failing.
#[must_use]
pub fn recorder_contrast(
    bare: RuntimeConfig,
    instrumented: RuntimeConfig,
    requests: usize,
) -> [(RuntimeStats, Duration); 2] {
    let run = |config| {
        let (stats, _) = closed_loop(config, |_| KvHandler::default(), 0, requests);
        let p99 = stats.ok_latency().p99();
        (stats, p99)
    };
    let mut best = [run(bare), run(instrumented)];
    for round in 1..10 {
        if round >= 3 && within_recorder_budget(best[0].1, best[1].1) {
            break;
        }
        for (arm, config) in [bare, instrumented].into_iter().enumerate() {
            let candidate = run(config);
            if candidate.1 < best[arm].1 {
                best[arm] = candidate;
            }
        }
    }
    best
}

/// The flight-recorder cost contract: the instrumented cell's p99 stays
/// within [`OVERHEAD_BUDGET`] of the bare cell's, or within
/// [`OVERHEAD_EPSILON`] of it (at microsecond service times,
/// single-digit-µs p99 jitter is the host scheduler, not the recorder).
#[must_use]
pub fn within_recorder_budget(off_p99: Duration, on_p99: Duration) -> bool {
    on_p99 <= off_p99 + OVERHEAD_EPSILON
        || on_p99.as_secs_f64() <= off_p99.as_secs_f64() * (1.0 + OVERHEAD_BUDGET)
}

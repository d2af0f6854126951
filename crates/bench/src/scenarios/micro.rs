//! Hot-path micro-timings (host-dependent, `info` only).

use std::hint::black_box;
use std::time::{Duration, Instant};

use sdrad_control::{ControlConfig, ControlPlane};
use sdrad_kvstore::{Store, StoreConfig};
use sdrad_runtime::{KvHandler, SessionHandler};

use crate::{rewind_latencies, Report, REWIND_PROBE_HEAP};

/// Heap capacities [`rewind_by_capacity`] sweeps: 4 KiB, 64 KiB (the
/// probe heap `rewind_ns` reports), 1 MiB.
const REWIND_CAPACITIES: [usize; 3] = [4 << 10, REWIND_PROBE_HEAP, 1 << 20];
/// Flatness band, as e2's: the slowest capacity's rewind stays within
/// this multiple of the fastest's (each the least of five means).
const REWIND_SPREAD: f64 = 3.0;

/// Admissions timed by [`admit_warm_ns`].
const ADMITS: u64 = 100_000;
/// Restarts timed by [`restart_ns`].
const RESTARTS: u32 = 200;
/// The hostile benchmark's shard: 1 000 keys of 64-byte values.
const SHARD_KEYS: u32 = 1_000;
/// Reads served between two timed restarts, scattering the recency
/// order the way a hostile run's traffic does.
const READS_PER_RESTART: u32 = 64;
/// The benchmark's kv key space, 64-byte values, for [`get_hit_ns`].
const STORE_KEYS: usize = 10_000;
/// Hits timed by [`get_hit_ns`]: twenty passes over the key space.
const GETS: usize = 200_000;
/// Step between consecutive keys, coprime with [`STORE_KEYS`]: every
/// pass visits each key once, and neighbours land far apart in the map
/// and the recency list.
const STRIDE: usize = 7_919;

/// Mean cost of `ControlPlane::admit` for a good-standing client on a
/// plane in the state a hostile run keeps it in: the benign latency
/// window full of under-target samples (so the shed decision really
/// evaluates the tail, which an empty window short-circuits) and
/// 16 384 offenders in the reputation book.
fn admit_warm_ns() -> f64 {
    let mut plane = ControlPlane::new(ControlConfig::default());
    // The plane is clock-injected: 10 µs of logical time per event.
    let mut now = 0;
    let mut tick = || {
        now += 10_000;
        now
    };
    for offender in 0..16_384 {
        let _ = plane.observe_fault(0, 1_000_000 + offender, 200_000, tick(), 1 << 20, 8);
    }
    for i in 0..512u64 {
        // Unordered latencies, as served requests produce them.
        let latency_ns = 20_000 + i.wrapping_mul(2_654_435_761) % 20_000;
        plane.observe_ok(0, i % 64, latency_ns, tick());
    }
    let started = Instant::now();
    for i in 0..ADMITS {
        black_box(plane.admit(i % 64, tick()));
    }
    started.elapsed().as_nanos() as f64 / ADMITS as f64
}

/// Mean cost of `SessionHandler::restart` — the worker-restart rung's
/// state effect — on a preloaded kv shard whose recency order reads
/// have scattered since its last restart.
fn restart_ns() -> f64 {
    let key = |k: u32| format!("key-{k}");
    let mut handler = KvHandler::default();
    for k in 0..SHARD_KEYS {
        handler.store_mut().set(key(k), vec![(k % 251) as u8; 64]);
    }
    handler.restart();
    let mut spent = Duration::ZERO;
    for round in 0..RESTARTS {
        for i in 0..READS_PER_RESTART {
            let k = (round * READS_PER_RESTART + i).wrapping_mul(2_654_435_761) % SHARD_KEYS;
            black_box(handler.store_mut().get(&key(k)));
        }
        let started = Instant::now();
        handler.restart();
        spent += started.elapsed();
    }
    spent.as_nanos() as f64 / f64::from(RESTARTS)
}

/// Mean cost of a `Store::get` hit on a store preloaded like the
/// benchmark's, keys visited in stride order. A sequential loop, or a
/// small store, stays in cache and under-reads the store.
fn get_hit_ns() -> f64 {
    let keys: Vec<String> = (0..STORE_KEYS).map(|k| format!("key-{k}")).collect();
    let mut store = Store::new(StoreConfig::default());
    for (k, key) in keys.iter().enumerate() {
        store.set(key.clone(), vec![(k % 251) as u8; 64]);
    }
    let started = Instant::now();
    for i in 0..GETS {
        black_box(store.get(&keys[i * STRIDE % STORE_KEYS]));
    }
    let spent = started.elapsed();
    assert_eq!(store.stats().hits, GETS as u64, "every timed get hits");
    spent.as_nanos() as f64 / GETS as f64
}

/// The same faulting call at each of [`REWIND_CAPACITIES`], the least of
/// five wall-clock means of `faults` rewinds each, beside the manager's
/// own mean from that same run. A discard that costs what the call
/// touched stays flat across capacities; one sized by the capacity
/// grows with it.
fn rewind_by_capacity(faults: u32) -> [(Duration, Duration); 3] {
    REWIND_CAPACITIES.map(|capacity| {
        (0..5)
            .map(|_| rewind_latencies(faults, capacity))
            .min()
            .expect("five means")
    })
}

/// Times `size` contained-fault rewinds in a scratch domain at each heap
/// capacity (the 64 KiB column is `rewind_ns`), one admission on a warm
/// control plane, one kv shard restart and one store `get` hit.
#[must_use]
pub fn run(size: usize) -> Report {
    let by_capacity = rewind_by_capacity(size as u32);
    let (wall, manager) = by_capacity[1];
    let rewind_ns = wall.as_nanos() as f64;
    let mut r = Report::new("micro", "hot-path micro-timings");
    r.info("rewind_ns", rewind_ns, "ns").note(format!(
        "mean faulting try_call at 64 KiB, wall clock: {:.2}us, least of five means of {size} \
         faults (the manager's own rewind_ns in that run, fault received to rights restored: \
         {:.2}us)",
        rewind_ns / 1e3,
        manager.as_nanos() as f64 / 1e3
    ));
    let by_capacity = by_capacity.map(|(wall, _)| wall);
    let fastest = by_capacity.iter().min().expect("capacities");
    let slowest = by_capacity.iter().max().expect("capacities");
    let spread = slowest.as_secs_f64() / fastest.as_secs_f64();
    assert!(
        spread <= REWIND_SPREAD,
        "rewind not flat across heap capacity: {spread:.1}x ({by_capacity:?})"
    );
    let [small, mid, large] = by_capacity.map(|d| d.as_nanos());
    r.info("rewind_capacity_spread", spread, "ratio")
        .note(format!(
            "faulting try_call, 4 KiB / 64 KiB / 1 MiB heaps: {small} / {mid} / {large} ns \
         (least of five means of {size} faults each)"
        ));
    let admit_ns = admit_warm_ns();
    r.info("admit_warm_ns", admit_ns, "ns").note(format!(
        "mean admission on a warm plane (full benign window, 16384 tracked offenders): \
         {admit_ns:.0}ns over {ADMITS} admits"
    ));
    let restart_ns = restart_ns();
    r.info("restart_ns", restart_ns, "ns").note(format!(
        "mean kv shard restart ({SHARD_KEYS} keys x 64 B, {READS_PER_RESTART} reads between \
         restarts): {:.1}us over {RESTARTS} restarts",
        restart_ns / 1e3
    ));
    let get_ns = get_hit_ns();
    r.info("get_hit_ns", get_ns, "ns").note(format!(
        "mean Store::get hit ({STORE_KEYS} keys x 64 B, stride order): {get_ns:.0}ns over \
         {GETS} gets"
    ));
    r
}

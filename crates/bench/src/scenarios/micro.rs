//! Hot-path micro-timings (host-dependent, `info` only).

use std::hint::black_box;
use std::time::{Duration, Instant};

use sdrad_control::{ControlConfig, ControlPlane};
use sdrad_runtime::{KvHandler, SessionHandler};

use crate::{rewind_latencies, Report};

/// Admissions timed by [`admit_warm_ns`].
const ADMITS: u64 = 100_000;
/// Restarts timed by [`restart_ns`].
const RESTARTS: u32 = 200;
/// The hostile benchmark's shard: 1 000 keys of 64-byte values.
const SHARD_KEYS: u32 = 1_000;
/// Reads served between two timed restarts, scattering the recency
/// order the way a hostile run's traffic does.
const READS_PER_RESTART: u32 = 64;

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

/// Times `size` contained-fault rewinds in a scratch domain, one
/// admission on a warm control plane and one kv shard restart.
#[must_use]
pub fn run(size: usize) -> Report {
    let (wall, manager) = rewind_latencies(size as u32);
    let rewind_ns = wall.as_nanos() as f64;
    let mut r = Report::new("micro", "hot-path micro-timings");
    r.info("rewind_ns", rewind_ns, "ns").note(format!(
        "mean faulting try_call, wall clock: {:.2}us over {size} faults (the manager's own \
         rewind_ns, fault received to rights restored: {:.2}us)",
        rewind_ns / 1e3,
        manager.as_nanos() as f64 / 1e3
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
    r
}

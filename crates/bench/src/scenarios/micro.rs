//! Hot-path micro-timings (host-dependent, `info` only).

use std::hint::black_box;
use std::time::Instant;

use sdrad_control::{ControlConfig, ControlPlane};

use crate::{measured_rewind_latency, Report};

/// Admissions timed by [`admit_warm_ns`].
const ADMITS: u64 = 100_000;

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

/// Times `size` contained-fault rewinds in a scratch domain, and one
/// admission on a warm control plane.
#[must_use]
pub fn run(size: usize) -> Report {
    let rewind_ns = measured_rewind_latency(size as u32).as_nanos() as f64;
    let mut r = Report::new("micro", "hot-path micro-timings");
    r.info("rewind_ns", rewind_ns, "ns").note(format!(
        "mean contained-fault rewind: {:.1}us over {size} faults",
        rewind_ns / 1e3
    ));
    let admit_ns = admit_warm_ns();
    r.info("admit_warm_ns", admit_ns, "ns").note(format!(
        "mean admission on a warm plane (full benign window, 16384 tracked offenders): \
         {admit_ns:.0}ns over {ADMITS} admits"
    ));
    r
}

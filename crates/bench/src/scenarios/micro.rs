//! Hot-path micro-timings (host-dependent, `info` only).

use crate::{measured_rewind_latency, Report};

/// Times `size` contained-fault rewinds in a scratch domain.
#[must_use]
pub fn run(size: usize) -> Report {
    let rewind_ns = measured_rewind_latency(size as u32).as_nanos() as f64;
    let mut r = Report::new("micro", "hot-path micro-timings");
    r.info("rewind_ns", rewind_ns, "ns").note(format!(
        "mean contained-fault rewind: {:.1}us over {size} faults",
        rewind_ns / 1e3
    ));
    r
}

//! E4 — availability analysis: nines vs fault rate per recovery mechanism.
//!
//! The paper's two §IV claims — three 2-minute restarts a year break
//! five nines, and 3.5 µs rewinds leave room for more than 9·10⁷
//! recoveries — are asserted in closed form at the paper's constants and
//! recorded as `exact` rows; the grid at this build's measured rewind is
//! `info`.

use std::time::Duration;

use sdrad_energy::availability::{availability, downtime_budget, max_recoveries_in_budget, nines};
use sdrad_energy::restart::RestartModel;

use super::hundredths;
use crate::{fmt_duration, measured_rewind_latency, Report};

const STATE_BYTES: u64 = 10_000_000_000;
const FIVE_NINES: f64 = 0.99999;

/// Prices the mechanisms over a fault-rate grid, the rewind measured
/// over `size` contained faults.
#[must_use]
pub fn run(size: usize) -> Report {
    let restart = RestartModel::process_restart().recovery_time(STATE_BYTES);
    let container = RestartModel::container_restart().recovery_time(STATE_BYTES);
    let paper_rewind = Duration::from_nanos(3_500);
    let measured = measured_rewind_latency(size as u32);
    let mut r = Report::new("e4", "availability per recovery mechanism");
    r.begin_table(
        "achieved nines by faults/year (10 GB state)",
        &[
            "mechanism",
            "recovery",
            "1/yr",
            "3/yr",
            "10/yr",
            "100/yr",
            "10000/yr",
        ],
    );
    for (name, recovery) in [
        ("process-restart", restart),
        ("container-restart", container),
        ("sdrad-rewind (paper 3.5us)", paper_rewind),
        ("sdrad-rewind (measured)", measured),
    ] {
        let mut row = vec![name.to_string(), fmt_duration(recovery)];
        for rate in [1.0, 3.0, 10.0, 100.0, 10_000.0] {
            row.push(format!("{:.1}", nines(availability(rate, recovery))));
        }
        r.row(&row);
    }

    let restart_nines = nines(availability(3.0, restart));
    let paper_budget = max_recoveries_in_budget(FIVE_NINES, paper_rewind);
    assert!(restart_nines < 5.0, "3 restarts/yr must break 5 nines");
    assert!(paper_budget > 9e7, "3.5 us rewinds allow >9e7 recoveries");
    r.begin_table(
        "max recoveries/year inside an availability budget",
        &[
            "target",
            "budget (s/yr)",
            "process-restart",
            "sdrad-rewind (measured)",
        ],
    );
    for target in [0.999, 0.9999, FIVE_NINES, 0.999999] {
        r.row(&[
            format!("{:.4}%", target * 100.0),
            format!("{:.1}", downtime_budget(target)),
            format!("{:.1}", max_recoveries_in_budget(target, restart)),
            format!("{:.2e}", max_recoveries_in_budget(target, measured)),
        ]);
    }
    let measured_budget = max_recoveries_in_budget(FIVE_NINES, measured);
    r.exact("restart_nines_at_3", hundredths(restart_nines), "nines")
        .exact("paper_rewind_recoveries", paper_budget.round(), "count")
        .info("rewind_ns", measured.as_nanos() as f64, "ns")
        .info("measured_rewind_recoveries", measured_budget, "count");
    r.note(format!(
        "three 2-minute restarts/year -> {:.6}% availability ({restart_nines:.2} nines): five \
         nines VIOLATED, as the paper says",
        availability(3.0, restart) * 100.0
    ))
    .note(format!(
        "recoveries inside a five-nines budget: {paper_budget:.2e} at the paper's 3.5 us (paper \
         says >9e7), {measured_budget:.2e} at this build's measured {}",
        fmt_duration(measured)
    ));
    r
}

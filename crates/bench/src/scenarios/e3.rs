//! E3 — recovery time vs dataset size, the figure behind E2: restart
//! cost grows linearly with state while rewind stays flat, so in-process
//! recovery gains most where caches are large. One series row per
//! dataset for measured replay, the calibrated process/container models
//! and measured rewind — E2's sweep (`e2::point`) held to the same
//! shape (`e2::assert_recovery_shape`). Timings are `info`.

use sdrad_energy::restart::RestartModel;

use super::e2::{self, Point};
use crate::{fmt_bytes, fmt_duration, Report};

/// Sweeps datasets doubling from 500 entries up to `size`.
#[must_use]
pub fn run(size: usize) -> Report {
    let points: Vec<Point> = (0..)
        .map(|exp| 500usize << exp)
        .take_while(|&entries| entries <= size)
        .map(e2::point)
        .collect();
    let (replay_growth, spread) = e2::assert_recovery_shape(&points);
    let process = RestartModel::process_restart();
    let container = RestartModel::container_restart();

    let mut r = Report::new("e3", "recovery-time scaling");
    r.begin_table(
        "recovery time series (figure data)",
        &[
            "dataset",
            "replay (measured)",
            "process restart (model)",
            "container restart (model)",
            "sdrad rewind (measured)",
        ],
    );
    for p in &points {
        r.row(&[
            fmt_bytes(p.bytes),
            fmt_duration(p.replay),
            fmt_duration(process.recovery_time(p.bytes)),
            fmt_duration(container.recovery_time(p.bytes)),
            fmt_duration(p.rewind),
        ]);
    }
    let rewind = points.iter().map(|p| p.rewind).min().expect("points");
    r.begin_table(
        "model projection to paper scale",
        &[
            "dataset",
            "process restart",
            "container restart",
            "sdrad rewind",
        ],
    );
    for gb in [1u64, 2, 5, 10, 20] {
        let bytes = gb * 1_000_000_000;
        r.row(&[
            format!("{gb} GB"),
            fmt_duration(process.recovery_time(bytes)),
            fmt_duration(container.recovery_time(bytes)),
            fmt_duration(rewind),
        ]);
    }
    r.info("replay_growth", replay_growth, "ratio")
        .info("rewind_spread", spread, "ratio");
    r.note(format!(
        "replay grew {replay_growth:.0}x over the sweep; the rewind column stayed within \
         {spread:.1}x"
    ));
    r
}

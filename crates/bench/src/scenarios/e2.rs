//! E2 — recovery latency: restart vs in-process rewind.
//!
//! Restart cost is *measured* on scaled datasets (snapshot replay, the
//! state rebuild a restart pays) and extrapolated linearly to the
//! paper's 10 GB; rewind cost is measured by triggering contained
//! faults, once per dataset with that dataset resident, so
//! `assert_recovery_shape` (shared with E3) holds the sweep to the
//! paper's shape: replay grows with the data, rewind stays flat.
//! Timings are `info`; the calibrated restart model is `exact`.

use std::time::Duration;

use sdrad_energy::restart::RestartModel;
use sdrad_kvstore::{Store, StoreConfig};

use crate::{fmt_bytes, fmt_duration, measured_rewind_latency, time_once, Report};

/// Bytes per stored value in every recovery sweep.
const VALUE_LEN: usize = 1024;
/// Contained faults per rewind measurement.
const REWINDS: u32 = 200;
/// Flatness band: the slowest rewind of a sweep stays within this
/// multiple of the fastest (each already the least of five means).
const REWIND_SPREAD: f64 = 3.0;
/// Growth floor: replay grows at least the data's growth divided by
/// this (1 would be exactly linear; small stores pay fixed costs).
const REPLAY_SLACK: f64 = 8.0;
const TEN_GB: u64 = 10_000_000_000;

/// One dataset of a recovery sweep.
pub(crate) struct Point {
    pub(crate) entries: usize,
    pub(crate) bytes: u64,
    /// Snapshot replay: the state rebuild a restart pays.
    pub(crate) replay: Duration,
    /// Mean faulting `try_call`, measured with the dataset resident.
    pub(crate) rewind: Duration,
}

/// Builds a store of `entries` × 1 KiB values and times the replay of
/// its snapshot (least of three runs) and a rewind (least of five).
pub(crate) fn point(entries: usize) -> Point {
    let mut store = Store::new(StoreConfig::default());
    for i in 0..entries {
        store.set(format!("key-{i:08}"), vec![(i % 251) as u8; VALUE_LEN]);
    }
    let snapshot = store.snapshot();
    let replay = || time_once(|| Store::restore(StoreConfig::default(), &snapshot)).1;
    let least = |runs, f: &dyn Fn() -> Duration| (0..runs).map(|_| f()).min().expect("runs");
    Point {
        entries,
        bytes: snapshot.bytes(),
        replay: least(3, &replay),
        rewind: least(5, &|| measured_rewind_latency(REWINDS)),
    }
}

/// Asserts the recovery shape over a sweep in growing dataset order:
/// replay grows at least the data's growth over [`REPLAY_SLACK`], while
/// rewind stays within [`REWIND_SPREAD`]. Returns the replay growth and
/// the rewind spread.
pub(crate) fn assert_recovery_shape(points: &[Point]) -> (f64, f64) {
    let (first, last) = (&points[0], &points[points.len() - 1]);
    let data_growth = last.bytes as f64 / first.bytes as f64;
    let replay_growth = last.replay.as_secs_f64() / first.replay.as_secs_f64();
    let rewinds = points.iter().map(|p| p.rewind);
    let spread =
        rewinds.clone().max().unwrap().as_secs_f64() / rewinds.min().unwrap().as_secs_f64();
    assert!(
        replay_growth >= data_growth / REPLAY_SLACK,
        "replay grew {replay_growth:.1}x over {data_growth:.0}x the data"
    );
    assert!(spread <= REWIND_SPREAD, "rewind not flat: {spread:.1}x");
    (replay_growth, spread)
}

/// Sweeps datasets of `size`/100, `size`/10, `size`/2 and `size` entries.
#[must_use]
pub fn run(size: usize) -> Report {
    let points: Vec<Point> = [100, 10, 2, 1].map(|d| point(size / d)).into();
    let (replay_growth, spread) = assert_recovery_shape(&points);
    let rewind = points.iter().map(|p| p.rewind).min().expect("points");

    let mut r = Report::new("e2", "restart vs rewind latency");
    r.begin_table(
        "measured restart (snapshot replay) vs rewind",
        &[
            "dataset",
            "entries",
            "restart (measured)",
            "rewind (measured)",
            "ratio",
        ],
    );
    let mut rates = Vec::new();
    for p in &points {
        rates.push(p.replay.as_secs_f64() / p.bytes as f64);
        r.row(&[
            fmt_bytes(p.bytes),
            p.entries.to_string(),
            fmt_duration(p.replay),
            fmt_duration(p.rewind),
            format!("{:.1e}x", p.replay.as_secs_f64() / p.rewind.as_secs_f64()),
        ]);
    }
    let rate = rates.iter().sum::<f64>() / rates.len() as f64;
    let extrapolated = Duration::from_secs_f64(rate * TEN_GB as f64);
    let model = RestartModel::process_restart().recovery_time(TEN_GB);
    let container = RestartModel::container_restart().recovery_time(TEN_GB);
    let [x, m, c, w] = [extrapolated, model, container, rewind].map(fmt_duration);
    r.begin_table("10 GB headline", &["mechanism", "recovery time"]);
    for (mechanism, time) in [
        ("process restart (paper §II)", "~2 min"),
        ("process restart (replay rate x 10 GB)", &x),
        ("process restart (model)", &m),
        ("container restart (model)", &c),
        ("SDRaD rewind (paper §II)", "3.5 us"),
        ("SDRaD rewind (fastest measured)", &w),
    ] {
        r.row_str(&[mechanism, time]);
    }
    r.exact("restart_model_10gb_s", model.as_secs_f64().round(), "s")
        .info("rewind_ns", rewind.as_nanos() as f64, "ns")
        .info("restart_extrapolated_10gb_s", rate * TEN_GB as f64, "s")
        .info("replay_growth", replay_growth, "ratio")
        .info("rewind_spread", spread, "ratio");
    rates.sort_by(f64::total_cmp);
    let rate_spread = rates[rates.len() - 1] / rates[0];
    r.note(format!(
        "restart per-byte rate varies {rate_spread:.1}x across the sweep (1.0 = perfectly \
         linear); replay grew {replay_growth:.0}x while rewind stayed within {spread:.1}x — \
         the gap at 10 GB is ~7 orders of magnitude, the paper's 120 s vs 3.5 us"
    ));
    r
}

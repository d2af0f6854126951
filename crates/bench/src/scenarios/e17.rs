//! E17 — the event-driven kv hot path and the flight-recorder cost
//! contract.
//!
//! The e17 binary was retired with the poll loop it priced; what stays
//! under the id is the closed-loop connection cell
//! ([`cells::closed_loop`]) and the contract every recorder change is
//! held to, asserted on every run:
//!
//! * a [`TelemetryConfig::Off`] runtime leaves no trace apparatus
//!   behind, and an `Off` emit costs under 20 ns (compile-time-cheap);
//! * with the recorder enabled the identical workload's ok-latency p99
//!   stays within 5 % of the `Off` cell's, or within a 2 µs epsilon
//!   ([`cells::within_recorder_budget`]) — least-noise p99 per cell
//!   over alternating runs ([`cells::recorder_contrast`]);
//! * the enabled run's telemetry snapshot conserves.
//!
//! The contract rows are emitted under their own `telemetry.*` prefix.

use std::sync::Arc;

use sdrad_runtime::{IsolationMode, RuntimeConfig, TelemetryConfig};
use sdrad_telemetry::{EventKind, LogicalClock, Recorder, Source, TraceRing};

use crate::cells::{self, fmt_us, OVERHEAD_BUDGET, OVERHEAD_EPSILON};
use crate::{measure, Report};

/// Runs both cells at `size` closed-loop round trips each.
#[must_use]
pub fn run(size: usize) -> Report {
    let bare = RuntimeConfig::new(4, IsolationMode::PerClientDomain);
    let mut recorded = bare;
    recorded.telemetry = TelemetryConfig::enabled();
    let [(off, off_p99), (on, on_p99)] = cells::recorder_contrast(bare, recorded, size);

    assert!(
        off.telemetry.is_none(),
        "TelemetryConfig::Off must leave no trace apparatus behind"
    );
    let on_report = on.telemetry.as_ref().expect("recorder was on");
    assert!(on_report.snapshot.conserves());

    let overhead_ok = cells::within_recorder_budget(off_p99, on_p99);
    let overhead_pct =
        (on_p99.as_secs_f64() / off_p99.as_secs_f64().max(f64::MIN_POSITIVE) - 1.0) * 100.0;
    assert!(
        overhead_ok,
        "flight-recorder overhead breached: p99 {off_p99:?} -> {on_p99:?} ({overhead_pct:.1}%)"
    );

    // Emit micro-costs: the Off arm must be compile-time-cheap.
    let ring = Arc::new(TraceRing::new(1 << 16));
    let recorder = Recorder::on(Arc::clone(&ring), LogicalClock::new(), Source::Dispatcher);
    let emit_ns = measure(50_000, || {
        recorder.emit(EventKind::Submit, 0, 1, std::hint::black_box(8));
    })
    .as_nanos() as f64;
    let off_recorder = Recorder::Off;
    let off_emit_ns = measure(100_000, || {
        off_recorder.emit(EventKind::Submit, 0, 1, std::hint::black_box(8));
    })
    .as_nanos() as f64;
    assert!(
        off_emit_ns < 20.0,
        "an Off emit must cost nothing measurable, got {off_emit_ns:.1}ns"
    );

    let mut r = Report::new("e17", "event-driven kv hot path + flight-recorder cost");
    r.begin_table(
        format!("{size} closed-loop round trips over 8 conns, 4 workers, least-noise run per cell"),
        &["recorder", "conn-served", "ok p99", "trace events"],
    );
    for (label, stats, p99, traced) in [
        ("off", &off, off_p99, 0),
        ("enabled", &on, on_p99, on_report.log.len()),
    ] {
        r.row(&[
            label.into(),
            stats.conn_served().to_string(),
            fmt_us(p99),
            traced.to_string(),
        ]);
    }
    r.exact("crashes", (off.crashes() + on.crashes()) as f64, "count");
    let mut contract = Report::new("telemetry", "flight-recorder cost contract");
    contract
        .exact("overhead_ok", f64::from(u8::from(overhead_ok)), "bool")
        .exact(
            "off_leaves_no_trace",
            f64::from(u8::from(off.telemetry.is_none())),
            "bool",
        )
        .exact(
            "conserves",
            f64::from(u8::from(on_report.snapshot.conserves())),
            "bool",
        )
        .info("overhead_p99_pct", overhead_pct, "pct")
        .info("emit_ns", emit_ns, "ns")
        .info("off_emit_ns", off_emit_ns, "ns");
    for metric in contract.metrics() {
        r.adopt(metric.clone());
    }
    r.note(format!(
        "enabled-recorder p99 overhead {overhead_pct:+.1}% (budget {:.0}% or {OVERHEAD_EPSILON:?}); \
         one emit costs {emit_ns:.0}ns enabled, {off_emit_ns:.1}ns off",
        OVERHEAD_BUDGET * 100.0
    ));
    r
}

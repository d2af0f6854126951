//! The streaming-telemetry cells behind E24 and `bench_report`.
//!
//! E24 asks three questions of the collector pipeline, and this module
//! holds the cells that answer them so the experiment binary and the
//! trajectory gate provably measure the same thing:
//!
//! * **early-ban advantage** — replay the E19 campaign twice with
//!   frames shipping in both cells; the only difference is whether the
//!   collector's windowed fault spikes reach admission as evidence.
//!   Per banned offender, the trace counts the fault rewinds absorbed
//!   before the ban crossing; the telemetry-fed cell must need fewer.
//! * **sampling overhead** — the E17 closed-loop hot path with the
//!   recorder, sampler and per-pass collector flush all on, vs the
//!   recorder off. The p99 ratio is the cost of the whole streaming
//!   apparatus, not just the emit store.
//! * **conservation under pressure** — the campaign on deliberately
//!   tiny rings, forcing both overflow drops and sampler refusals; the
//!   extended law `emitted + sampled_out == drained + dropped +
//!   sampled_out + in_ring` (per ring, with `recorded = emitted +
//!   sampled_out`) must still close exactly, and the delta books must
//!   show zero lost frames and zero regressions.

use sdrad_runtime::{
    ConnectionServer, ControlConfig, EventKind, IsolationMode, KvHandler, RuntimeStats,
    StreamingConfig, TelemetryConfig, TraceLog,
};

use crate::campaign::{self, control_config, Cell};

/// Windowed-fault spike threshold for the telemetry-fed cell: low
/// enough that one attack run inside a 50 ms window trips it, so the
/// evidence channel engages well before the reputation score alone
/// would ban.
pub const SPIKE_FAULTS: u64 = 4;

/// Per-ring event capacity for the forced-pressure cell — small enough
/// that the dispatcher ring (only drained at shutdown) overflows and
/// the occupancy-driven sampler starts refusing, exercising both books
/// at once.
pub const PRESSURE_RING: usize = 64;

/// Streaming configuration whose spike threshold is unreachable:
/// frames still ship every pass (the collector's delta books stay
/// live), but no evidence ever reaches admission. The books-only
/// control arm of the early-ban comparison.
#[must_use]
pub fn spikes_off() -> StreamingConfig {
    StreamingConfig {
        spike_faults: u64::MAX,
        ..StreamingConfig::enabled()
    }
}

/// Streaming configuration with the E24 spike threshold.
#[must_use]
pub fn spikes_on() -> StreamingConfig {
    StreamingConfig {
        spike_faults: SPIKE_FAULTS,
        ..StreamingConfig::enabled()
    }
}

/// One campaign cell with the collector sink attached: identical
/// workload, seed and pacing to [`campaign::run_cell`], plus
/// `RuntimeConfig::streaming`.
#[must_use]
pub fn run_cell(
    control: Option<ControlConfig>,
    telemetry: TelemetryConfig,
    streaming: Option<StreamingConfig>,
    events: usize,
) -> Cell {
    let mut config = campaign::cell_config(control, telemetry);
    config.streaming = streaming;
    campaign::drive_campaign(config, events)
}

/// The campaign on [`PRESSURE_RING`]-sized rings with streaming on —
/// the conservation-under-pressure cell.
#[must_use]
pub fn pressure_cell(events: usize) -> Cell {
    run_cell(
        None,
        TelemetryConfig::Enabled {
            ring_capacity: PRESSURE_RING,
        },
        Some(StreamingConfig::enabled()),
        events,
    )
}

/// Mean fault rewinds absorbed before each banned client's ban
/// crossing, from trace data alone. `None` when the log names no
/// banned client (the campaign raced past every ladder — the caller
/// retries, same idiom as E19's quarantine check).
#[must_use]
pub fn mean_faults_before_ban(log: &TraceLog) -> Option<f64> {
    let banned = log.banned_clients();
    if banned.is_empty() {
        return None;
    }
    let mut rewinds = 0usize;
    for &client in &banned {
        let ban = log
            .query()
            .client(client)
            .kind(EventKind::Ban)
            .run()
            .into_iter()
            .next()
            .expect("banned_clients implies a ban event");
        rewinds += log
            .query()
            .client(client)
            .kind(EventKind::Rewind)
            .until(ban.stamp)
            .count();
    }
    Some(rewinds as f64 / banned.len() as f64)
}

/// The two arms of the early-ban comparison plus their trace-derived
/// fault counts.
pub struct EarlyBan {
    /// Spikes unreachable: admission sees only its own books.
    pub books_only: Cell,
    /// Spikes at [`SPIKE_FAULTS`]: windowed evidence feeds admission.
    pub fed: Cell,
    /// Mean pre-ban fault rewinds per banned offender, books-only arm.
    pub books_only_faults: f64,
    /// Mean pre-ban fault rewinds per banned offender, telemetry-fed arm.
    pub fed_faults: f64,
}

impl EarlyBan {
    /// How many times more faults the books-only plane absorbed before
    /// its first ban: `> 1` means the evidence channel banned earlier.
    #[must_use]
    pub fn advantage(&self) -> f64 {
        self.books_only_faults / self.fed_faults.max(f64::MIN_POSITIVE)
    }
}

/// Runs both early-ban arms. Whether any offender finishes its ladder
/// inside one campaign is a pacing race, so a banless arm is retried a
/// couple of times; books are asserted on every attempt.
///
/// # Panics
///
/// Panics if either arm fails to ban anyone across all attempts, if a
/// run's books do not reconcile, or if the telemetry-fed arm reports
/// no evidence decisions.
#[must_use]
pub fn early_ban_cells(events: usize) -> EarlyBan {
    for _ in 0..3 {
        let books_only = run_cell(
            Some(control_config()),
            TelemetryConfig::enabled(),
            Some(spikes_off()),
            events,
        );
        let fed = run_cell(
            Some(control_config()),
            TelemetryConfig::enabled(),
            Some(spikes_on()),
            events,
        );
        assert!(books_only.stats.reconciles() && fed.stats.reconciles());
        let faults = |cell: &Cell| {
            let telemetry = cell.stats.telemetry.as_ref().expect("recorder was on");
            // The count is only honest if no fault rewind fell off a
            // ring: control and worker events are never sampled, so
            // zero overflow drops means zero blind spots.
            assert_eq!(
                telemetry.snapshot.total_dropped(),
                0,
                "early-ban cells must run on rings big enough not to drop"
            );
            mean_faults_before_ban(&telemetry.log)
        };
        if let (Some(books_only_faults), Some(fed_faults)) = (faults(&books_only), faults(&fed)) {
            let evidence = fed
                .stats
                .control
                .as_ref()
                .map_or(0, |ctl| ctl.counts.evidence);
            assert!(
                evidence > 0,
                "the telemetry-fed arm banned without any evidence decision"
            );
            return EarlyBan {
                books_only,
                fed,
                books_only_faults,
                fed_faults,
            };
        }
    }
    panic!("no offender was banned in three campaign attempts (either arm)");
}

/// One E17-style closed-loop hot-path cell: event-driven server, benign
/// round trips over 8 connections, optionally with the full streaming
/// apparatus (recorder + sampler + per-pass collector flush) attached.
#[must_use]
pub fn closed_loop_cell(
    telemetry: TelemetryConfig,
    streaming: Option<StreamingConfig>,
    requests: usize,
) -> RuntimeStats {
    const CONNS: usize = 8;
    let mut config = sdrad_runtime::RuntimeConfig::new(4, IsolationMode::PerClientDomain);
    config.telemetry = telemetry;
    config.streaming = streaming;
    let server = ConnectionServer::start(config, |_| KvHandler::default());
    let mut clients: Vec<_> = (0..CONNS).map(|_| server.connect()).collect();
    for i in 0..requests {
        let c = i % CONNS;
        let payload = if i.is_multiple_of(4) {
            format!("set key-{} 8\r\nabcdefgh\r\n", i % 512).into_bytes()
        } else {
            format!("get key-{}\r\n", i % 512).into_bytes()
        };
        clients[c].write(&payload);
        let _ = server.await_response(&mut clients[c]);
    }
    server.shutdown()
}

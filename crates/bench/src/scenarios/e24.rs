//! E24 — streaming telemetry: delta frames into the in-process
//! collector, overload-adaptive trace sampling, and windowed
//! aggregations feeding admission as evidence.
//!
//! E20 proved the flight recorder answers post-mortem questions after
//! a run. This experiment makes the telemetry *operational*: workers
//! ship periodic delta frames (cumulative totals plus the events they
//! just drained) to a collector riding the existing wake machinery, a
//! sampler sheds low-value trace events under ring pressure without
//! ever touching the books, and the collector's sliding-window fault
//! rollups reach the control plane as evidence — so admission reacts
//! to a fault *rate* while the reputation integrator is still
//! climbing.
//!
//! Three claims, each hard-asserted:
//!
//! * **earlier bans** — replay the E19 campaign twice with frames
//!   shipping in both cells; the only difference is whether the
//!   collector's windowed fault spikes reach admission as evidence.
//!   Per banned offender, the trace counts the fault rewinds absorbed
//!   before the ban crossing (same discipline as E20); the
//!   telemetry-fed cell must need fewer, and neither arm bans a benign
//!   client. The exact factor is a pacing race (the evidence channel
//!   roughly halves the absorbed faults in practice), so it is
//!   reported; a dead evidence channel reads ~1.0 and fails.
//! * **bounded cost** — the E17 closed-loop hot path with the
//!   recorder, sampler and per-pass collector flush all on, vs the
//!   recorder off ([`cells::recorder_contrast`]): the whole streaming
//!   apparatus stays inside the E17 flight-recorder budget
//!   ([`cells::within_recorder_budget`]), ships frames and loses none.
//! * **exact books under pressure** — the campaign on deliberately
//!   tiny rings, forcing both overflow drops and sampler refusals; the
//!   extended law `recorded == drained + dropped + sampled_out +
//!   in_ring` must still close per ring with overflow `dropped`
//!   distinct from deliberate `sampled_out`, and the delta books must
//!   show zero lost frames and zero regressions.
//!
//! Same ~6 000-event floor as E19/E20 — below it an offender may not
//! live long enough to be banned in the books-only arm.

use sdrad_runtime::{
    ControlConfig, EventKind, IsolationMode, RuntimeConfig, StreamingConfig, TelemetryConfig,
    TraceLog,
};

use crate::campaign::{self, control_config, Cell};
use crate::cells::{self, fmt_us, OVERHEAD_BUDGET, OVERHEAD_EPSILON};
use crate::Report;

/// Closed-loop round trips per hot-path cell.
const HOT_REQUESTS: usize = 2_000;

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
    }
}

/// Streaming configuration with the E24 spike threshold.
#[must_use]
pub fn spikes_on() -> StreamingConfig {
    StreamingConfig {
        spike_faults: SPIKE_FAULTS,
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

/// Runs all three cuts on a campaign of `size` events.
#[must_use]
pub fn run(size: usize) -> Report {
    let mut report = Report::new("e24", "streaming telemetry end to end");

    // --- 1. windowed spike evidence bans offenders earlier ---------------
    let early = early_ban_cells(size);
    let offenders = campaign::offender_ids();
    let mut benign_banned = 0;
    for cell in [&early.books_only, &early.fed] {
        let ctl = cell.stats.control.as_ref().expect("control books");
        benign_banned += ctl
            .banned_clients
            .iter()
            .filter(|c| !offenders.contains(c))
            .count();
    }
    assert_eq!(benign_banned, 0, "zero benign clients banned, either arm");
    let advantage = early.advantage();
    assert!(
        advantage > 1.0,
        "evidence-fed admission must ban on fewer absorbed faults: books-only \
         {:.1} vs fed {:.1} mean pre-ban rewinds",
        early.books_only_faults,
        early.fed_faults
    );
    let fed_ctl = early.fed.stats.control.as_ref().expect("control books");
    report.begin_table(
        format!(
            "{size} campaign events per arm, seed {:#x}; both arms stream frames, only \
             the fed arm's spikes reach admission (threshold {SPIKE_FAULTS} windowed faults)",
            campaign::SEED,
        ),
        &[
            "arm",
            "banned",
            "pre-ban rewinds (mean)",
            "evidence decisions",
            "benign-ok",
        ],
    );
    for (label, cell, faults) in [
        ("books-only", &early.books_only, early.books_only_faults),
        ("telemetry-fed", &early.fed, early.fed_faults),
    ] {
        let ctl = cell.stats.control.as_ref().expect("control books");
        report.row(&[
            label.into(),
            ctl.banned_clients.len().to_string(),
            format!("{faults:.1}"),
            ctl.counts.evidence.to_string(),
            cell.stats.ok().to_string(),
        ]);
    }

    // The windowed view the spikes are computed from, reconstructed
    // post-hoc over logical time: fault rewinds arrive in bursts, which
    // is exactly what a rate detector sees and an integrator smooths.
    let fed_log = &early.fed.stats.telemetry.as_ref().expect("recorder on").log;
    let rewinds = fed_log.query().kind(EventKind::Rewind).run();
    let span = rewinds.last().map_or(0, |l| l.stamp) - rewinds.first().map_or(0, |f| f.stamp);
    let fault_windows = fed_log
        .query()
        .kind(EventKind::Rewind)
        .windowed((span / 8).max(1));
    let busiest = fault_windows.iter().map(|w| w.count).max().unwrap_or(0);
    report.note(format!(
        "fault-rate burstiness over {} logical-clock windows: busiest window holds {} of \
         {} rewinds — rate evidence fires on the burst, the score integrator only later",
        fault_windows.len(),
        busiest,
        rewinds.len()
    ));

    // --- 2. the streaming apparatus stays inside the E17 budget ----------
    let bare = RuntimeConfig::new(4, IsolationMode::PerClientDomain);
    let mut streamed = bare;
    streamed.telemetry = TelemetryConfig::enabled();
    streamed.streaming = Some(StreamingConfig::enabled());
    let [(_, off_p99), (on, on_p99)] = cells::recorder_contrast(bare, streamed, HOT_REQUESTS);
    let on_books = on.telemetry.as_ref().expect("recorder was on");
    let on_streaming = on_books.streaming.expect("streaming books present");
    assert!(on_streaming.frames > 0, "the hot path must ship frames");
    assert_eq!(on_streaming.lost_frames, 0);
    assert_eq!(on_streaming.regressions, 0);
    assert!(
        cells::within_recorder_budget(off_p99, on_p99),
        "streaming overhead breached the recorder budget: p99 {off_p99:?} -> {on_p99:?}"
    );
    report.begin_table(
        format!("{HOT_REQUESTS} closed-loop round trips over 8 conns, least-noise run per cell"),
        &["cell", "ok p99", "frames", "events streamed"],
    );
    report.row(&[
        "recorder off".into(),
        fmt_us(off_p99),
        "-".into(),
        "-".into(),
    ]);
    report.row(&[
        "recorder + sampler + flush".into(),
        fmt_us(on_p99),
        on_streaming.frames.to_string(),
        on_streaming.events_streamed.to_string(),
    ]);

    // --- 3. exact books under forced ring pressure ------------------------
    let pressure_events = size.min(6_000);
    let pressure = pressure_cell(pressure_events);
    assert!(pressure.stats.reconciles(), "books must balance");
    let telemetry = pressure.stats.telemetry.as_ref().expect("recorder was on");
    let dropped = telemetry.snapshot.total_dropped();
    let sampled_out = telemetry.snapshot.total_sampled_out();
    assert!(
        telemetry.snapshot.conserves(),
        "conservation must survive overflow AND sampling"
    );
    assert!(
        sampled_out > 0,
        "tiny rings must drive the sampler into refusals"
    );
    assert!(
        dropped > 0,
        "the undrained dispatcher ring must overflow at this size"
    );
    let books = telemetry.streaming.expect("streaming books present");
    assert!(books.frames > 0);
    assert_eq!(books.lost_frames, 0, "in-process delivery loses nothing");
    assert_eq!(books.regressions, 0);
    report.begin_table(
        format!(
            "conservation under pressure: {PRESSURE_RING}-event rings, {pressure_events} \
             campaign events — overflow `dropped` and deliberate `sampled_out` reported \
             separately, both conserved",
        ),
        &[
            "ring",
            "emitted",
            "dropped",
            "sampled_out",
            "drained",
            "in-ring",
        ],
    );
    for (name, stat) in &telemetry.snapshot.rings {
        report.row(&[
            name.clone(),
            stat.counters.emitted.to_string(),
            stat.counters.dropped.to_string(),
            stat.counters.sampled_out.to_string(),
            stat.counters.drained.to_string(),
            stat.in_ring.to_string(),
        ]);
    }

    report.note(format!(
        "telemetry-fed admission banned on {:.1} mean absorbed faults vs {:.1} books-only \
         ({advantage:.2}x earlier); {} evidence decisions reached the plane",
        early.fed_faults, early.books_only_faults, fed_ctl.counts.evidence
    ));
    report.note(format!(
        "streaming apparatus p99 {} vs {} bare ({:.2}x; budget {:.0}% or {OVERHEAD_EPSILON:?}); \
         {} frames shipped on the hot path, zero lost",
        fmt_us(on_p99),
        fmt_us(off_p99),
        on_p99.as_secs_f64() / off_p99.as_secs_f64().max(f64::MIN_POSITIVE),
        OVERHEAD_BUDGET * 100.0,
        on_streaming.frames
    ));
    report.note(format!(
        "under pressure: {dropped} overflow drops + {sampled_out} sampler refusals across {} \
         rings, books exact, {} frames with zero losses and zero delta regressions",
        telemetry.snapshot.rings.len(),
        books.frames
    ));
    // The other conjuncts were asserted above: conservation holds WITH
    // the sampler engaged and the delta protocol lossless.
    report
        .exact(
            "telemetry_conserves",
            f64::from(u8::from(telemetry.snapshot.conserves())),
            "bool",
        )
        .exact("benign_banned", benign_banned as f64, "count")
        .info("evidence_reports", fed_ctl.counts.evidence as f64, "count")
        .info("pressure_dropped", dropped as f64, "count")
        .info("pressure_sampled_out", sampled_out as f64, "count");
    report
}

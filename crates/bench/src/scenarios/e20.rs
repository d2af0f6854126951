//! E20 — the flight-recorder post-mortem: replay E19's hostile
//! campaign with telemetry enabled and reconstruct every banned
//! client's decision timeline *from trace data alone*.
//!
//! E19 proves the adaptive control plane protects benign latency; its
//! evidence is aggregate counters. This drill asks the question an
//! operator asks after an incident: *show me, per offender, when the
//! controller throttled them, when it quarantined them, and when it
//! banned them — and prove the record is complete.* The answer must
//! come from the drained trace rings (`TraceLog` + `TraceQuery`), not
//! from the control plane's own books; the books are then used only to
//! cross-check that the trace told the truth.
//!
//! The campaign, seed and control parameters are [`crate::campaign`] —
//! byte-identical to E19's workload, with `RuntimeConfig::telemetry`
//! flipped on as the only difference (and the same ~6 000-event floor:
//! below it an offender may not live long enough to climb the whole
//! ladder).
//!
//! Hard assertions:
//!
//! * the run still reconciles, the snapshot conserves (every emitted
//!   event is drained, dropped or accounted in-ring), and zero benign
//!   clients are banned;
//! * the set of banned clients recovered from the trace equals the
//!   control plane's `banned_clients` list exactly;
//! * every banned client's [`ban_path`] is **complete**: a throttle
//!   crossing, then a quarantine crossing, then the ban, in logical
//!   order — the control ring never overflowed mid-ladder;
//! * every banned client shows worker-side rewind events before the
//!   ban (the faults that earned the score), and post-ban shed events
//!   at the dispatcher carrying `ShedReason::Ban` agree with the
//!   plane's deny count.
//!
//! [`ban_path`]: sdrad_runtime::TraceLog::ban_path

use sdrad_runtime::{EventKind, ShedReason, TelemetryConfig};

use crate::campaign::{self, control_config};
use crate::Report;

/// Replays the campaign of `size` events with the recorder on.
#[must_use]
pub fn run(size: usize) -> Report {
    let cell = campaign::run_cell(Some(control_config()), TelemetryConfig::enabled(), size);
    let offenders = campaign::offender_ids();

    // --- the books and the recorder both close clean ---------------------
    assert!(cell.stats.reconciles(), "books must balance");
    let ctl = cell.stats.control.as_ref().expect("control books");
    let telemetry = cell.stats.telemetry.as_ref().expect("recorder was on");
    assert!(
        telemetry.snapshot.conserves(),
        "emitted == drained + dropped + in-ring, every ring"
    );
    assert!(
        telemetry.streaming.is_none_or(|s| s.truncated == 0),
        "a timeline needs the complete log"
    );
    let log = &telemetry.log;
    assert!(!log.is_empty(), "the campaign must leave a trace");

    // --- trace vs books: the banned set, recovered independently ---------
    let banned_from_trace = log.banned_clients();
    let mut banned_from_books = ctl.banned_clients.clone();
    banned_from_books.sort_unstable();
    assert_eq!(
        banned_from_trace, banned_from_books,
        "the trace and the control books must name the same banned clients"
    );
    assert!(!banned_from_trace.is_empty(), "offenders get banned");
    assert!(
        banned_from_trace.iter().all(|c| offenders.contains(c)),
        "zero benign clients banned: {banned_from_trace:?}"
    );

    // --- the timeline itself, per banned client --------------------------
    let mut report = Report::new(
        "e20",
        "per-client decision timelines reconstructed from the trace",
    );
    report.begin_table(
        format!(
            "{size} events, {} offenders; stamps are logical-clock ticks (total order \
             across all rings)",
            offenders.len()
        ),
        &[
            "client",
            "throttle@",
            "quarantine@",
            "ban@",
            "pre-ban rewinds",
            "post-ban sheds",
            "complete",
        ],
    );
    let mut post_ban_sheds_total = 0usize;
    for &client in &banned_from_trace {
        let path = log
            .ban_path(client)
            .expect("banned client must have a ban event");
        assert!(
            path.is_complete(),
            "incomplete ladder in the trace: {}",
            path.describe()
        );
        let throttle = path.throttle.expect("complete path has a throttle");
        let quarantine = path.quarantine.expect("complete path has a quarantine");

        // The faults that earned the score: worker-side rewinds before
        // the ban crossing.
        let pre_ban_rewinds = log
            .query()
            .client(client)
            .kind(EventKind::Rewind)
            .until(path.ban.stamp)
            .count();
        assert!(
            pre_ban_rewinds > 0,
            "client {client} was banned without a single recorded fault rewind"
        );

        // Enforcement after the verdict: dispatcher sheds carrying
        // ShedReason::Ban, stamped after the ban crossing.
        let post_ban_sheds = log
            .query()
            .client(client)
            .kind(EventKind::Shed)
            .since(path.ban.stamp)
            .run()
            .into_iter()
            .filter(|e| e.detail == ShedReason::Ban as u64)
            .count();
        post_ban_sheds_total += post_ban_sheds;

        // The client's full history is recoverable, ordered, and
        // consistent with the ladder.
        let timeline = log.client_timeline(client);
        assert!(timeline.windows(2).all(|w| w[0].stamp <= w[1].stamp));
        assert!(timeline.iter().any(|e| e.kind == EventKind::Submit));

        report.row(&[
            client.to_string(),
            throttle.stamp.to_string(),
            quarantine.stamp.to_string(),
            path.ban.stamp.to_string(),
            pre_ban_rewinds.to_string(),
            post_ban_sheds.to_string(),
            "yes".into(),
        ]);
    }

    // Aggregate enforcement cross-check: every deny the plane counted
    // was enforced at the dispatcher; the trace can only under-report
    // (ring drops are legal), never invent.
    let ban_sheds_in_trace = log
        .query()
        .kind(EventKind::Shed)
        .run()
        .into_iter()
        .filter(|e| e.detail == ShedReason::Ban as u64)
        .count() as u64;
    assert!(
        ban_sheds_in_trace <= ctl.counts.denies,
        "trace shows {ban_sheds_in_trace} ban-sheds but the plane only denied {}",
        ctl.counts.denies
    );
    assert!(
        post_ban_sheds_total > 0,
        "bans must actually turn traffic away while the campaign continues"
    );

    // --- what the recorder cost and carried ------------------------------
    report.begin_table(
        "trace volume by event kind (all rings, post-drain)",
        &["kind", "events"],
    );
    for kind in EventKind::ALL {
        let count = log.query().kind(kind).count();
        if count > 0 {
            report.row(&[kind.name().to_string(), count.to_string()]);
        }
    }

    report.note(format!(
        "every one of the {} banned clients has a complete throttle -> quarantine -> ban \
         ladder in the trace; the banned set matches the control books exactly",
        banned_from_trace.len()
    ));
    report.note(format!(
        "{} events drained across {} rings; conservation holds (emitted == drained + dropped \
         + in-ring)",
        log.len(),
        telemetry.snapshot.rings.len()
    ));
    report.note(format!(
        "enforcement is visible end to end: {post_ban_sheds_total} post-ban sheds recorded at \
         the dispatcher against {} admission denies in the books",
        ctl.counts.denies
    ));
    report
        .exact(
            "trace_matches_books",
            f64::from(u8::from(banned_from_trace == banned_from_books)),
            "bool",
        )
        .exact(
            "telemetry_conserves",
            f64::from(u8::from(telemetry.snapshot.conserves())),
            "bool",
        );
    report
}

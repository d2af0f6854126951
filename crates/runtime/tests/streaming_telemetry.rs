//! Streaming telemetry under the real runtime: delta frames riding
//! worker pump passes into the in-process collector, conservation held
//! end to end, delta books immune to worker restarts (the satellite
//! regression: a ladder `restart_worker` rung must never produce a
//! negative delta), and the windowed-spike evidence channel reaching
//! admission.

use sdrad::ClientId;
use sdrad_runtime::{
    ControlConfig, IsolationMode, LadderParams, ReputationParams, Runtime, RuntimeConfig,
    StreamingConfig, SubmitOutcome, TelemetryConfig,
};

/// Control parameters tuned for fast tests: scores climb in a handful
/// of faults and barely decay within a test's lifetime (same shape as
/// the control-plane suite next door). Both latency targets are parked:
/// each test's climb stops at its first `Shed`, which on a slow host
/// could otherwise be an overload shed rather than the ban.
fn fast_control() -> ControlConfig {
    let mut control = ControlConfig {
        reputation: ReputationParams {
            half_life_ns: 60_000_000_000,
            throttle_score: 3.0,
            quarantine_score: 6.0,
            ban_score: 16.0,
            throttle_rate_per_sec: 1e9,
            throttle_burst: 1e9,
        },
        ladder: LadderParams {
            pool_after: 4,
            restart_after_rebuilds: 2,
        },
        ..ControlConfig::default()
    };
    for shed in [&mut control.benign_shed, &mut control.suspect_shed] {
        shed.target_ns = u64::MAX;
    }
    control
}

fn streaming_config() -> RuntimeConfig {
    let mut config = RuntimeConfig::new(2, IsolationMode::PerClientDomain);
    config.telemetry = TelemetryConfig::enabled();
    config.streaming = Some(StreamingConfig::enabled());
    config
}

const ATTACK: &[u8] = b"xstat 65536 4\r\nboom\r\n";

#[test]
fn streamed_frames_reach_the_collector_and_the_books_conserve() {
    let runtime = Runtime::start(streaming_config(), |_| sdrad_runtime::KvHandler::default());
    for i in 0..64u64 {
        assert!(runtime.submit_detached(ClientId(i), b"stats\r\n".to_vec()));
    }
    let SubmitOutcome::Enqueued(attack) = runtime.submit(ClientId(666), ATTACK.to_vec()) else {
        panic!("unexpected shed");
    };
    let _ = attack.wait();
    let collector = runtime.collector().expect("streaming enabled").clone();
    let stats = runtime.shutdown();
    assert!(stats.reconciles(), "books balance: {stats:?}");
    let telemetry = stats.telemetry.as_ref().expect("telemetry enabled");
    let streaming = telemetry.streaming.expect("streaming books present");
    assert!(streaming.frames > 0, "workers shipped delta frames");
    assert_eq!(
        streaming.lost_frames, 0,
        "in-process delivery loses nothing"
    );
    assert_eq!(streaming.regressions, 0);
    assert_eq!(streaming.frames, collector.frames());
    // The streamed counter totals are cumulative diffs of worker books:
    // they can lag the final truth (the last frame predates the final
    // requests) but never exceed it.
    let totals = collector.totals();
    assert!(totals.served <= stats.served());
    assert!(totals.ok <= stats.ok());
    // Streamed events plus the shutdown ring drains land in ONE log —
    // `reconciles` already checked log.len == Σ drained; spot-check the
    // merged log still answers post-mortem queries.
    assert_eq!(
        telemetry
            .log
            .query()
            .client(666)
            .kind(sdrad_runtime::EventKind::Rewind)
            .count(),
        1
    );
    assert!(telemetry.snapshot.conserves());
}

#[test]
fn worker_restarts_never_regress_the_delta_books() {
    // The satellite regression: ladder restart rungs reset nothing the
    // collector baselines against (worker books survive restarts), so
    // cumulative totals keep climbing monotonically. A restart that
    // re-shipped smaller totals would be clamped AND visible in
    // `regressions` — this drives real restarts and demands zero.
    let mut config = streaming_config();
    config.control = Some(fast_control());
    // Spikes off (threshold unreachable): evidence would ban the
    // offender before the pit climbs to the restart rung, and this test
    // needs the restarts themselves.
    config.streaming = Some(StreamingConfig {
        spike_faults: u64::MAX,
    });
    let runtime = Runtime::start(config, |_| sdrad_runtime::KvHandler::default());
    let offender = ClientId(666);
    for _ in 0..200 {
        match runtime.submit(offender, ATTACK.to_vec()) {
            SubmitOutcome::Enqueued(ticket) => {
                let _ = ticket.wait();
            }
            SubmitOutcome::Shed => break,
        }
    }
    let stats = runtime.shutdown();
    assert!(
        stats.worker_restarts() > 0,
        "the restart rung must actually fire for this regression test"
    );
    let streaming = stats
        .telemetry
        .as_ref()
        .and_then(|t| t.streaming)
        .expect("streaming books present");
    assert!(streaming.frames > 0);
    assert_eq!(
        streaming.regressions, 0,
        "a worker restart produced a negative delta"
    );
    assert_eq!(streaming.lost_frames, 0);
    assert!(stats.reconciles(), "books balance: {stats:?}");
}

#[test]
fn windowed_fault_spikes_feed_the_admission_evidence_channel() {
    let mut config = streaming_config();
    config.control = Some(fast_control());
    config.streaming = Some(StreamingConfig { spike_faults: 4 });
    let runtime = Runtime::start(config, |_| sdrad_runtime::KvHandler::default());
    let offender = ClientId(666);
    let mut admitted = 0u64;
    for _ in 0..200 {
        match runtime.submit(offender, ATTACK.to_vec()) {
            SubmitOutcome::Enqueued(ticket) => {
                let _ = ticket.wait();
                admitted += 1;
            }
            SubmitOutcome::Shed => break,
        }
    }
    // Benign traffic is untouched by the telemetry-fed escalation.
    for client in 0..16u64 {
        let SubmitOutcome::Enqueued(ticket) =
            runtime.submit(ClientId(client), b"get healthy\r\n".to_vec())
        else {
            panic!("benign client shed");
        };
        assert_eq!(ticket.wait().response, b"END\r\n");
    }
    let stats = runtime.shutdown();
    let report = stats.control.as_ref().expect("control books present");
    assert!(
        report.counts.evidence > 0,
        "windowed spikes reached the plane as evidence (admitted {admitted})"
    );
    assert_eq!(report.banned_clients, vec![offender.0], "only the offender");
    assert!(stats.reconciles(), "books balance: {stats:?}");
}

//! `bench_report` — the perf-trajectory pipeline behind
//! `BENCH_runtime.json`.
//!
//! Runs compact, deterministic-workload versions of the key runtime
//! experiments (isolation submit path, event-driven connection serving,
//! work stealing, the adaptive-control campaign, frame-buffer
//! allocation discipline, zero-pause pool rebuilds, streaming
//! telemetry) plus hot-path
//! micro-timings, renders every
//! summary through the shared
//! [`sdrad_bench::Report`] formatter, and emits one schema-versioned
//! JSON artifact. Three metric classes:
//!
//! * **exact** — invariants (crash counts, containment, precision). Any drift vs the committed baseline fails CI.
//! * **guarded** — dimensionless performance ratios. A degradation
//!   beyond 10 % vs the baseline fails CI; absolute timings are never
//!   gated (they belong to the host, not the code).
//! * **info** — absolute timings and counts, recorded for trend
//!   reading across the commit history.
//!
//! The flight-recorder cost contract is asserted *here*, every run:
//! enabled-recorder p99 on the connection-serving hot path must stay
//! within 5 % (or a 10 µs absolute epsilon) of the Off cell, and an
//! `Off` recorder emit must be compile-time-cheap.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p sdrad-bench --bin bench_report              # regenerate baseline
//! cargo run --release -p sdrad-bench --bin bench_report -- --check  # CI regression guard
//! ```

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdrad::ClientId;
use sdrad_bench::campaign::{self, control_config};
use sdrad_bench::{
    banner, measure, measured_rewind_latency, rebuild, report, streaming, Metric, Report,
};
use sdrad_nolock::{arena, CountingAlloc};
use sdrad_runtime::{
    ConnectionServer, IsolationMode, KvHandler, Runtime, RuntimeConfig, RuntimeStats, StealPolicy,
    TelemetryConfig,
};
use sdrad_telemetry::{EventKind, Json, LogicalClock, Recorder, Source, TraceRing};

/// Allocation counting for the e22 discipline scenario. Threads that
/// never opt in pay one thread-local read per allocation event.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Guarded-metric tolerance: a >10 % degradation vs baseline fails.
const TOLERANCE: f64 = 0.10;
/// Relative flight-recorder overhead budget on the hot-path p99.
const OVERHEAD_BUDGET: f64 = 0.05;
/// Absolute epsilon under which p99 deltas are scheduler noise, not
/// recorder cost (the closed-loop service path runs at sub-µs p50, so
/// single-µs p99 jitter belongs to the host scheduler).
const OVERHEAD_EPSILON: Duration = Duration::from_micros(2);

fn pace(runtime: &Runtime, i: usize) {
    if i % 64 == 63 {
        while runtime.pending() > 64 {
            std::thread::sleep(Duration::from_micros(20));
        }
    }
}

fn benign(i: usize) -> Vec<u8> {
    if i.is_multiple_of(4) {
        format!("set key-{} 8\r\nabcdefgh\r\n", i % 512).into_bytes()
    } else {
        format!("get key-{}\r\n", i % 512).into_bytes()
    }
}

/// Submit-path cell: `requests` paced submits, an xstat attack every
/// `attack_every` (0 = never), books returned after quiesce.
fn submit_cell(
    isolation: IsolationMode,
    requests: usize,
    attack_every: usize,
) -> (RuntimeStats, Duration, u64) {
    let config = RuntimeConfig::new(4, isolation);
    let runtime = Runtime::start(config, |_| KvHandler::default());
    let started = Instant::now();
    let mut attacks = 0u64;
    for i in 0..requests {
        let payload = if attack_every != 0 && i % attack_every == attack_every - 1 {
            attacks += 1;
            b"xstat 65536 4\r\nboom\r\n".to_vec()
        } else {
            benign(i)
        };
        assert!(
            runtime.submit_detached(ClientId(i as u64 % 64), payload),
            "paced submits must never shed"
        );
        pace(&runtime, i);
    }
    assert!(runtime.quiesce(), "drain must settle");
    let wall = started.elapsed();
    (runtime.shutdown(), wall, attacks)
}

/// E15-style: per-client-domain isolation under attack vs the
/// crash-free baseline serving the same benign mix.
fn scenario_isolation() -> Report {
    const REQUESTS: usize = 4_000;
    const RUNS: usize = 3;
    // The cost ratio is latency-based: worker-measured p50 service
    // time isolates the per-request isolation cost from producer
    // pacing and host scheduling, which dominate short-cell wall-clock
    // throughput. Each cell runs three times and the ratio is taken
    // over the *minimum* p50s — the least-interference estimate of
    // true service time on a loaded host, same discipline as the e21
    // cells below. Even so the denominator is a sub-microsecond
    // baseline p50, and on an oversubscribed host the ratio has been
    // observed anywhere from ~1.3x to ~13x across identical builds —
    // a 10% gate on it is flake by construction, so it reports as
    // `info` and e15's gate is its exact metrics (crashes,
    // containment) plus the e21 flatness guard downstream.
    let mut base_best = f64::MAX;
    let mut iso_best = f64::MAX;
    let mut cells = None;
    for _ in 0..RUNS {
        let (baseline, base_wall, _) = submit_cell(IsolationMode::Baseline, REQUESTS, 0);
        let (isolated, iso_wall, attacks) =
            submit_cell(IsolationMode::PerClientDomain, REQUESTS, 101);
        assert!(baseline.reconciles() && isolated.reconciles());
        base_best = base_best.min(baseline.ok_latency().p50().as_secs_f64());
        iso_best = iso_best.min(isolated.ok_latency().p50().as_secs_f64());
        cells = Some((baseline, base_wall, isolated, iso_wall, attacks));
    }
    let (baseline, base_wall, isolated, iso_wall, attacks) =
        cells.expect("at least one isolation run");

    let base_rps = baseline.served() as f64 / base_wall.as_secs_f64();
    let iso_rps = isolated.served() as f64 / iso_wall.as_secs_f64();
    let contained_all = isolated.contained_faults() == attacks && isolated.shed == 0;
    let cost_p50 = iso_best / base_best.max(f64::MIN_POSITIVE);

    let mut r = Report::new("e15", "submit-path isolation under attack");
    r.begin_table(
        format!("{REQUESTS} paced submits per cell, attacks every 101st (isolated cell only)"),
        &["cell", "served", "contained", "crashes", "ok p50", "req/s"],
    );
    for (label, stats, rps) in [
        ("baseline (benign only)", &baseline, base_rps),
        ("per-client domains", &isolated, iso_rps),
    ] {
        r.row(&[
            label.into(),
            stats.served().to_string(),
            stats.contained_faults().to_string(),
            stats.crashes().to_string(),
            format!("{:.2}us", stats.ok_latency().p50().as_nanos() as f64 / 1e3),
            format!("{rps:.0}"),
        ]);
    }
    r.exact("crashes", isolated.crashes() as f64, "count")
        .exact("containment", f64::from(u8::from(contained_all)), "bool")
        .info("isolation_cost_p50", cost_p50, "ratio")
        .info("isolated_tput_rps", iso_rps, "rps")
        .info("isolated_relative_tput", iso_rps / base_rps, "ratio")
        .note(format!(
            "{attacks} attacks all contained by domain rewind; per-request isolation cost \
             {cost_p50:.2}x the baseline's p50 service time"
        ));
    r
}

/// Connection-serving cell (the e17 kv hot path): event-driven server,
/// closed-loop benign round trips over 8 connections — one request in
/// flight per trip, so the worker-measured latency is the service path
/// itself, not queue depth. Returns the closed books.
fn conn_cell(telemetry: TelemetryConfig, requests: usize) -> RuntimeStats {
    const CONNS: usize = 8;
    let mut config = RuntimeConfig::new(4, IsolationMode::PerClientDomain);
    config.telemetry = telemetry;
    let server = ConnectionServer::start(config, |_| KvHandler::default());
    let mut clients: Vec<_> = (0..CONNS).map(|_| server.connect()).collect();
    for i in 0..requests {
        let c = i % CONNS;
        clients[c].write(&benign(i));
        let _ = server.await_response(&mut clients[c]);
    }
    server.shutdown()
}

/// E17-style hot path plus the flight-recorder cost contract: Off vs
/// Enabled p99 on the identical workload, best of three runs each (the
/// least host-noise-contaminated run per cell).
fn scenario_conn_and_overhead() -> Report {
    const REQUESTS: usize = 2_000;
    let best = |telemetry: TelemetryConfig| -> (RuntimeStats, Duration) {
        (0..3)
            .map(|_| {
                let stats = conn_cell(telemetry, REQUESTS);
                let p99 = stats.ok_latency().p99();
                (stats, p99)
            })
            .min_by_key(|(_, p99)| *p99)
            .expect("three runs")
    };
    let (off, off_p99) = best(TelemetryConfig::Off);
    let (on, on_p99) = best(TelemetryConfig::enabled());

    assert!(off.reconciles() && on.reconciles());
    assert!(
        off.telemetry.is_none(),
        "TelemetryConfig::Off must leave no trace apparatus behind"
    );
    let on_report = on.telemetry.as_ref().expect("recorder was on");
    assert!(on_report.snapshot.conserves());

    // The <5% p99 contract (with an absolute epsilon: at microsecond
    // service times, single-digit-µs p99 jitter is the host scheduler,
    // not the recorder).
    let overhead_ok = on_p99 <= off_p99 + OVERHEAD_EPSILON
        || on_p99.as_secs_f64() <= off_p99.as_secs_f64() * (1.0 + OVERHEAD_BUDGET);
    let overhead_pct =
        (on_p99.as_secs_f64() / off_p99.as_secs_f64().max(f64::MIN_POSITIVE) - 1.0) * 100.0;
    assert!(
        overhead_ok,
        "flight-recorder overhead breached: p99 {off_p99:?} -> {on_p99:?} ({overhead_pct:.1}%)"
    );

    // Emit micro-costs: the Off arm must be compile-time-cheap.
    let clock = LogicalClock::new();
    let ring = Arc::new(TraceRing::new(1 << 16));
    let recorder = Recorder::on(Arc::clone(&ring), clock, Source::Dispatcher);
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
        format!(
            "{REQUESTS} closed-loop round trips over 8 conns, 4 workers, best of 3 runs per cell"
        ),
        &["recorder", "conn-served", "ok p99", "trace events"],
    );
    for (label, stats, p99, traced) in [
        ("off", &off, off_p99, 0),
        ("enabled", &on, on_p99, on_report.log.len()),
    ] {
        r.row(&[
            label.into(),
            stats.conn_served().to_string(),
            format!("{:.1}us", p99.as_nanos() as f64 / 1e3),
            traced.to_string(),
        ]);
    }
    r.exact("crashes", (off.crashes() + on.crashes()) as f64, "count")
        .info("p99_ns", off_p99.as_nanos() as f64, "ns");
    // Telemetry contract metrics live under their own id prefix.
    let mut t = Report::new("telemetry", "flight-recorder cost contract");
    t.exact("overhead_ok", f64::from(u8::from(overhead_ok)), "bool")
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
    for metric in t.metrics() {
        // Fold into the e17 report so one artifact carries both.
        r.adopt(metric.clone());
    }
    r.note(format!(
        "enabled-recorder p99 overhead {overhead_pct:+.1}% (budget {:.0}% or {OVERHEAD_EPSILON:?}); \
         one emit costs {emit_ns:.0}ns enabled, {off_emit_ns:.1}ns off",
        OVERHEAD_BUDGET * 100.0
    ));
    r
}

/// E18-style: a hot-shard burst that only work stealing can spread.
fn scenario_stealing() -> Report {
    const BURST: usize = 4_000;
    let mut config = RuntimeConfig::new(4, IsolationMode::PerClientDomain);
    config.work_stealing = StealPolicy::Deep;
    config.batch = 16;
    let runtime = Runtime::start(config, |_| KvHandler::default());
    // Warm every worker up (domain-pool setup is serialized) so thieves
    // exist before the burst.
    for shard in 0..4 {
        let client = (0u64..)
            .map(ClientId)
            .find(|c| runtime.shard_of(*c) == shard)
            .expect("some id maps to every shard");
        if let sdrad_runtime::SubmitOutcome::Enqueued(ticket) =
            runtime.submit(client, b"get warm-up\r\n".to_vec())
        {
            let _ = ticket.wait();
        }
    }
    let hot = (10_000_000u64..)
        .map(ClientId)
        .find(|c| runtime.shard_of(*c) == 0)
        .expect("some id maps to shard 0");
    for i in 0..BURST {
        let _ = runtime.submit_detached(hot, b"get hot-key\r\n".to_vec());
        pace(&runtime, i);
    }
    assert!(runtime.quiesce(), "drain must settle");
    let stats = runtime.shutdown();
    assert!(stats.reconciles());
    assert_eq!(stats.thief_mutations(), 0, "thieves never mutate");

    let steal_share = stats.steals() as f64 / stats.served().max(1) as f64;
    let mut r = Report::new("e18", "hot-shard burst spread by work stealing");
    r.begin_table(
        format!("{BURST} paced submits, all to shard 0; 3 idle siblings, StealPolicy::Deep"),
        &["served", "steals", "steal share", "thief mutations"],
    );
    r.row(&[
        stats.served().to_string(),
        stats.steals().to_string(),
        format!("{:.0}%", steal_share * 100.0),
        stats.thief_mutations().to_string(),
    ]);
    r.exact("thief_mutations", stats.thief_mutations() as f64, "count")
        .exact(
            "steals_engaged",
            f64::from(u8::from(stats.steals() > 0)),
            "bool",
        )
        .info("steal_share", steal_share, "ratio")
        .note(format!(
            "{} of {} requests served by thieves; zero thief-side mutations (owner-routed by \
             construction)",
            stats.steals(),
            stats.served()
        ));
    r
}

/// E19's campaign, distilled into trajectory metrics.
fn scenario_campaign() -> Report {
    const EVENTS: usize = 6_000;
    let static_cell = campaign::run_cell(None, TelemetryConfig::Off, EVENTS);
    let offenders = campaign::offender_ids();
    // Whether every offender crosses the quarantine threshold before
    // the campaign ends is a race between the producer's pacing and
    // the workers' fault observations — statistical, not structural.
    // Same idiom as the runtime's steal-engagement tests: books are
    // asserted on every attempt, only the racy outcome is retried.
    let mut adaptive = campaign::run_cell(Some(control_config()), TelemetryConfig::Off, EVENTS);
    assert!(adaptive.stats.reconciles());
    for _ in 0..2 {
        let ctl = adaptive.stats.control.as_ref().expect("control books");
        let caught = ctl
            .quarantined_clients
            .iter()
            .filter(|c| offenders.contains(c))
            .count();
        if caught == offenders.len() {
            break;
        }
        adaptive = campaign::run_cell(Some(control_config()), TelemetryConfig::Off, EVENTS);
        assert!(adaptive.stats.reconciles());
    }
    assert!(static_cell.stats.reconciles());

    let ctl = adaptive.stats.control.as_ref().expect("control books");
    let quarantined = &ctl.quarantined_clients;
    let true_positives = quarantined.iter().filter(|c| offenders.contains(c)).count();
    let precision = if quarantined.is_empty() {
        1.0
    } else {
        true_positives as f64 / quarantined.len() as f64
    };
    let recall = true_positives as f64 / offenders.len() as f64;
    let benign_banned = ctl
        .banned_clients
        .iter()
        .filter(|c| !offenders.contains(c))
        .count();
    let served_ratio = adaptive.stats.ok() as f64 / static_cell.stats.ok().max(1) as f64;
    let p99_ratio = static_cell.stats.ok_latency().p99().as_secs_f64()
        / adaptive
            .stats
            .ok_latency()
            .p99()
            .as_secs_f64()
            .max(f64::MIN_POSITIVE);

    let mut r = Report::new("e19", "adaptive control plane campaign (trajectory cut)");
    r.begin_table(
        format!(
            "{EVENTS} events, seed {:#x}, same campaign as e19/e20",
            campaign::SEED
        ),
        &["policy", "benign-ok", "b-p99", "banned", "rungs r/p/w"],
    );
    for (label, cell) in [("static", &static_cell), ("adaptive", &adaptive)] {
        let banned = cell
            .stats
            .control
            .as_ref()
            .map_or(0, |c| c.banned_clients.len());
        r.row(&[
            label.into(),
            cell.stats.ok().to_string(),
            format!(
                "{:.1}us",
                cell.stats.ok_latency().p99().as_nanos() as f64 / 1e3
            ),
            banned.to_string(),
            format!(
                "{}/{}/{}",
                cell.stats.ladder_rewinds(),
                cell.stats.pool_rebuilds(),
                cell.stats.worker_restarts()
            ),
        ]);
    }
    r.exact(
        "crashes",
        (static_cell.stats.crashes() + adaptive.stats.crashes()) as f64,
        "count",
    )
    .exact("benign_banned", benign_banned as f64, "count")
    .exact("precision", precision, "ratio")
    .exact(
        "energy_saved_ok",
        f64::from(u8::from(ctl.energy_saved_j() > 0.0)),
        "bool",
    )
    .guarded("recall", recall, "ratio", true)
    .guarded("benign_served_ratio", served_ratio, "ratio", true)
    .info("p99_ratio", p99_ratio, "ratio")
    .note(format!(
        "adaptive served {:.2}x the static cell's benign requests at {:.1}x better p99; \
             recall {:.0}%, precision {:.0}%, {} banned (all offenders)",
        served_ratio,
        p99_ratio,
        recall * 100.0,
        precision * 100.0,
        ctl.banned_clients.len()
    ));
    r
}

/// One e21-style hot-shard cell: a deep-steal runtime of `workers`
/// shards, a read-only submit burst pinned to shard 0, then ticket
/// round trips against the drained server. Returns the stats plus the
/// two hand-off tails (live submit p99, quiet RTT p99).
fn lockfree_cell(workers: usize) -> (RuntimeStats, Duration, Duration) {
    const BURST: usize = 2_000;
    const PROBES: usize = 256;
    let mut config = RuntimeConfig::new(workers, IsolationMode::PerClientDomain);
    config.work_stealing = StealPolicy::Deep;
    config.batch = 16;
    config.queue_capacity = BURST.max(4096);
    let runtime = Runtime::start(config, |_| KvHandler::default());
    for shard in 0..workers {
        let client = (0u64..)
            .map(ClientId)
            .find(|c| runtime.shard_of(*c) == shard)
            .expect("some id maps to every shard");
        if let sdrad_runtime::SubmitOutcome::Enqueued(ticket) =
            runtime.submit(client, b"get warm-up\r\n".to_vec())
        {
            let _ = ticket.wait();
        }
    }
    let hot = (0u64..)
        .map(ClientId)
        .find(|c| runtime.shard_of(*c) == 0)
        .expect("some id maps to shard 0");
    let mut submit = sdrad_runtime::LatencyHistogram::new();
    for _ in 0..BURST {
        let sent = Instant::now();
        assert!(
            runtime.submit_detached(hot, b"get hot-key\r\n".to_vec()),
            "the burst fits the queue bound"
        );
        submit.record_duration(sent.elapsed());
    }
    assert!(runtime.quiesce(), "drain must settle");
    let mut rtt = sdrad_runtime::LatencyHistogram::new();
    for _ in 0..PROBES {
        let sent = Instant::now();
        match runtime.submit(hot, b"get probe\r\n".to_vec()) {
            sdrad_runtime::SubmitOutcome::Enqueued(ticket) => {
                let _ = ticket.wait();
                rtt.record_duration(sent.elapsed());
            }
            sdrad_runtime::SubmitOutcome::Shed => unreachable!("an idle queue never sheds"),
        }
    }
    assert!(runtime.quiesce(), "probe tail must settle");
    let stats = runtime.shutdown();
    assert!(stats.reconciles());
    assert_eq!(stats.thief_mutations(), 0);
    (stats, submit.p99(), rtt.p99())
}

/// E21-style: hand-off tails must stay flat as the worker count
/// quadruples past the point where lock-based steal walks convoyed.
/// Best of three runs per cell — the guard gates the *path cost*
/// ratio, not one run's host-scheduler luck.
fn scenario_lockfree() -> Report {
    // Engagement is tracked across EVERY run of both cells, not just
    // the min-rtt run the ratios are taken from: the chosen run can be
    // one where the owner drained the burst before a thief scheduled,
    // while the sweep as a whole engaged stealing fine.
    let best = |workers: usize| -> (RuntimeStats, Duration, Duration, bool) {
        let runs: Vec<_> = (0..3).map(|_| lockfree_cell(workers)).collect();
        let engaged = runs
            .iter()
            .any(|(stats, _, _)| stats.steals() + stats.conn_steals() > 0);
        let (stats, submit, rtt) = runs
            .into_iter()
            .min_by_key(|&(_, _, rtt_p99)| rtt_p99)
            .expect("three runs");
        (stats, submit, rtt, engaged)
    };
    let (narrow_stats, narrow_submit, narrow_rtt, narrow_engaged) = best(2);
    let (wide_stats, wide_submit, wide_rtt, wide_engaged) = best(8);

    // Clamped at the e21 binary's own acceptance band (3.0x): the
    // flatness claim is one-sided (the tail must not GROW with the
    // worker count), and on an oversubscribed host any ratio inside
    // the band is scheduler noise, not a property to bake into the
    // baseline. Everything within the band collapses to the band edge
    // — the guard fires only on a convoy collapse *past* the bound
    // the experiment itself tolerates (the mutex-era steal walk blew
    // through it; that is the regression this ratio exists to catch).
    const FLATNESS_BAND: f64 = 3.0;
    let rtt_flat = (wide_rtt.as_secs_f64() / narrow_rtt.as_secs_f64().max(f64::MIN_POSITIVE))
        .max(FLATNESS_BAND);
    // The submit-side ratio is informational (never gates), so it
    // stays raw — the true number is more useful than a clamped one.
    let submit_flat =
        wide_submit.as_secs_f64() / narrow_submit.as_secs_f64().max(f64::MIN_POSITIVE);
    // Engagement gates: across six runs of the two cells a runnable
    // thief all but always fires at least once, and a few extra wide
    // cells retry the residual race away (same idiom as the e19
    // quarantine retry above). A sweep where stealing NEVER engages
    // means the deep-steal plane is dead — exactly what this metric
    // exists to catch — so it is exact, not info.
    let mut engaged = narrow_engaged || wide_engaged;
    for _ in 0..5 {
        if engaged {
            break;
        }
        let (retry_stats, _, _) = lockfree_cell(8);
        engaged = retry_stats.steals() + retry_stats.conn_steals() > 0;
    }
    assert!(
        engaged,
        "work stealing never engaged across any e21 cell — the deep-steal plane is dead"
    );

    let mut r = Report::new("e21", "lock-free hand-off tails across a worker sweep");
    r.begin_table(
        "2000 hot-shard submits + 256 drained-server ticket probes, best of 3 runs per cell"
            .to_string(),
        &[
            "workers",
            "submit p99",
            "rtt p99",
            "q-steals",
            "conn-steals",
        ],
    );
    for (label, stats, submit_p99, rtt_p99) in [
        ("2", &narrow_stats, narrow_submit, narrow_rtt),
        ("8", &wide_stats, wide_submit, wide_rtt),
    ] {
        r.row(&[
            label.into(),
            format!("{:.1}us", submit_p99.as_nanos() as f64 / 1e3),
            format!("{:.1}us", rtt_p99.as_nanos() as f64 / 1e3),
            stats.steals().to_string(),
            stats.conn_steals().to_string(),
        ]);
    }
    r.exact(
        "thief_mutations",
        (narrow_stats.thief_mutations() + wide_stats.thief_mutations()) as f64,
        "count",
    )
    .exact(
        "crashes",
        (narrow_stats.crashes() + wide_stats.crashes()) as f64,
        "count",
    )
    .exact("steals_engaged", f64::from(u8::from(engaged)), "bool")
    .guarded("handoff_p99_flatness", rtt_flat, "ratio", false)
    .info("submit_p99_flatness", submit_flat, "ratio")
    .info("handoff_p99_ns_w8", wide_rtt.as_nanos() as f64, "ns")
    .note(format!(
        "hand-off RTT p99 at 8 workers is {rtt_flat:.2}x the 2-worker tail (submit p99 \
         {submit_flat:.2}x): quadrupling the steal fleet must not tax the hand-off path"
    ));
    r
}

/// E22-style: allocation discipline on the e17 closed-loop hot path.
/// One cell per pooling setting — the code path is identical; the
/// thread-local switch only decides whether `FrameBuf::acquire`
/// recycles worker-local storage or falls through to a fresh heap
/// allocation. The runtime always pools; the unpooled cell's handler
/// factory switches its worker's arena off again (it runs on the
/// worker thread, after the runtime armed it).
/// Workers opt into the counting allocator from their handler factory,
/// so allocs-per-request charges the serving path, not the load
/// generator; counting spans only the post-warm-up window (domain-pool
/// setup, store growth and arena prefill are excluded).
fn scenario_alloc_discipline() -> Report {
    const REQUESTS: usize = 2_000;
    const WARMUP: usize = 500;
    const CONNS: usize = 8;
    // One-sided latency clamp, same discipline as the e21 flatness
    // guard: pooling must not tax the tail, but µs-scale closed-loop
    // p99 ratios on a loaded host are scheduler noise below this band,
    // so everything inside it collapses to the band edge and the guard
    // fires only on a real collapse.
    const P99_BAND: f64 = 2.0;

    let cell = |pooling: bool| -> (RuntimeStats, u64) {
        let config = RuntimeConfig::new(4, IsolationMode::PerClientDomain);
        let server = ConnectionServer::start(config, move |_| {
            // Runs on the worker's own thread: its allocations are
            // counted from here on.
            arena::set_thread_pooling(pooling);
            arena::count_allocs_on_this_thread(true);
            KvHandler::default()
        });
        let mut clients: Vec<_> = (0..CONNS).map(|_| server.connect()).collect();
        let mut drive = |from: usize, count: usize| {
            for i in from..from + count {
                let c = i % CONNS;
                clients[c].write(&benign(i));
                let _ = server.await_response(&mut clients[c]);
            }
        };
        drive(0, WARMUP);
        let before = arena::counted_allocs();
        drive(WARMUP, REQUESTS);
        let allocs = arena::counted_allocs() - before;
        (server.shutdown(), allocs)
    };
    // Best of three per arm — allocation counts are near-deterministic,
    // but a background steal or amortized growth spike in one run must
    // not become the baseline.
    let best = |pooling: bool| -> (RuntimeStats, f64) {
        (0..3)
            .map(|_| {
                let (stats, allocs) = cell(pooling);
                (stats, allocs as f64 / REQUESTS as f64)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("three runs")
    };
    let (pooled, pooled_apr) = best(true);
    let (unpooled, unpooled_apr) = best(false);

    assert!(pooled.reconciles() && unpooled.reconciles());
    assert_eq!(
        pooled.arena_acquires(),
        pooled.arena_reuses() + pooled.arena_fresh_allocs(),
        "arena books must balance"
    );
    assert_eq!(unpooled.arena_reuses(), 0, "pooling off must never recycle");
    let reuse_ratio = pooled.arena_reuses() as f64 / pooled.arena_acquires().max(1) as f64;
    assert!(
        reuse_ratio > 0.5,
        "a warmed arena must serve most acquires from recycled storage, got {reuse_ratio:.2}"
    );
    let alloc_ratio = pooled_apr / unpooled_apr.max(f64::EPSILON);
    let p99_ratio = (pooled.ok_latency().p99().as_secs_f64()
        / unpooled
            .ok_latency()
            .p99()
            .as_secs_f64()
            .max(f64::MIN_POSITIVE))
    .max(P99_BAND);

    let mut r = Report::new("e22", "frame-buffer arena vs malloc-per-frame");
    r.begin_table(
        format!("{REQUESTS} counted round trips after {WARMUP} warm-up, {CONNS} conns, 4 workers, best of 3 runs per arm"),
        &["arena", "allocs/req", "acquires", "reuses", "fresh", "ok p99"],
    );
    for (label, stats, apr) in [
        ("pooled", &pooled, pooled_apr),
        ("malloc", &unpooled, unpooled_apr),
    ] {
        r.row(&[
            label.into(),
            format!("{apr:.2}"),
            stats.arena_acquires().to_string(),
            stats.arena_reuses().to_string(),
            stats.arena_fresh_allocs().to_string(),
            format!("{:.1}us", stats.ok_latency().p99().as_nanos() as f64 / 1e3),
        ]);
    }
    r.exact(
        "crashes",
        (pooled.crashes() + unpooled.crashes()) as f64,
        "count",
    )
    .exact(
        "pool_conserves",
        f64::from(u8::from(
            pooled.arena_acquires() == pooled.arena_reuses() + pooled.arena_fresh_allocs(),
        )),
        "bool",
    )
    .guarded("allocs_per_request", pooled_apr, "allocs", false)
    .guarded("alloc_ratio", alloc_ratio, "ratio", false)
    .guarded("reuse_ratio", reuse_ratio, "ratio", true)
    .guarded("p99_ratio", p99_ratio, "ratio", false)
    .info("allocs_per_request_unpooled", unpooled_apr, "allocs")
    .note(format!(
        "pooled serving path makes {pooled_apr:.2} allocs/request vs {unpooled_apr:.2} with \
         pooling off ({alloc_ratio:.2}x); {:.0}% of pooled acquires reused recycled storage",
        reuse_ratio * 100.0
    ));
    r
}

/// E23-style: the zero-pause rebuild contract. A ladder-driven rebuild
/// storm runs on the benign probe's own shard under the runtime's
/// deferred (publish-and-retire) lifecycle and under the bench-side
/// stop-the-world shim (`rebuild::StopTheWorld`);
/// the storm-over-steady p99 ratio is the trajectory metric. Both
/// sides of the ratio are floored at one modeled pause quantum
/// (`rebuild::TAIL_FLOOR`) and the guarded value is clamped at the 1.1
/// acceptance band — anything inside the band collapses to the band
/// edge, so the guard fires only when the deferred path actually grows
/// a pause past the quantum a stop-the-world rung cannot get under.
/// The reclamation conservation law is exact: every
/// cell must close `retired == reclaimed + pending` with pending
/// drained to zero and the shared-view hazard domain conserving.
fn scenario_zero_pause() -> Report {
    const PROBES: usize = 384;
    const RUNS: usize = 3;
    /// The acceptance band on the deferred storm ratio: within it, the
    /// rebuild rung is invisible to the benign tail.
    const BAND: f64 = 1.1;
    let deferred = rebuild::best_cell(rebuild::Lifecycle::ZeroPause, RUNS, PROBES);
    let synchronous = rebuild::best_cell(rebuild::Lifecycle::StopTheWorld, RUNS, PROBES);
    let conserves = deferred.reclaim_conserves() && synchronous.reclaim_conserves();
    let deferred_ratio = deferred.storm_ratio().max(BAND);
    let sync_ratio = synchronous.storm_ratio();
    assert!(
        synchronous.storm_p99 >= rebuild::TAIL_FLOOR && synchronous.storm_p99 > deferred.storm_p99,
        "the stop-the-world pause must show in the storm tail: {:?} vs deferred {:?}",
        synchronous.storm_p99,
        deferred.storm_p99
    );

    let mut r = Report::new("e23", "zero-pause pool rebuilds (trajectory cut)");
    r.begin_table(
        format!(
            "{PROBES} closed-loop probes per phase, a pool rebuild every 3rd storm probe, \
             best of {RUNS} runs per cell"
        ),
        &["rebuild", "steady p99", "storm p99", "ratio", "rebuilds"],
    );
    for (label, cell) in [("deferred", &deferred), ("stop-the-world", &synchronous)] {
        r.row(&[
            label.into(),
            format!("{:.1}us", cell.steady_p99.as_nanos() as f64 / 1e3),
            format!("{:.1}us", cell.storm_p99.as_nanos() as f64 / 1e3),
            format!("{:.2}x", cell.storm_ratio()),
            cell.stats.pool_rebuilds().to_string(),
        ]);
    }
    r.exact("reclaim_conserves", f64::from(u8::from(conserves)), "bool")
        .exact(
            "crashes",
            (deferred.stats.crashes() + synchronous.stats.crashes()) as f64,
            "count",
        )
        .exact(
            "thief_mutations",
            (deferred.stats.thief_mutations() + synchronous.stats.thief_mutations()) as f64,
            "count",
        )
        .guarded("rebuild_p99_ratio", deferred_ratio, "ratio", false)
        .info("sync_p99_ratio", sync_ratio, "ratio")
        .info("storm_p99_ns", deferred.storm_p99.as_nanos() as f64, "ns")
        .note(format!(
            "deferred storm p99 {:.2}x steady (band-clamped to {deferred_ratio:.2}) vs \
             {sync_ratio:.2}x on the stop-the-world path; reclamation books reconciled exactly",
            deferred.storm_ratio()
        ));
    r
}

/// E24-style: the streaming-telemetry pipeline distilled into
/// trajectory metrics. Three cuts:
///
/// * **early-ban advantage** (guarded, higher is better) — mean fault
///   rewinds absorbed per banned offender before the ban, books-only
///   over telemetry-fed, clamped at 1.25: the evidence channel roughly
///   halves the absorbed faults in practice, but the exact factor is a
///   pacing race, so everything past the band collapses to the band
///   edge and the guard fires only when the advantage *erodes* (the
///   evidence channel going dead reads ~1.0 and fails).
/// * **sampling overhead** (guarded, lower is better) — closed-loop
///   p99 with recorder + sampler + per-pass flush over the bare cell,
///   best of 3, under the E17 budget-or-epsilon contract: in-contract
///   runs collapse to the 1.05 band edge (µs-scale p99 ratios below
///   it are host noise), so the guard only fires past the budget.
/// * **conservation under pressure** (exact) — tiny rings force both
///   overflow drops and sampler refusals; the extended law must close
///   with `dropped` and `sampled_out` distinct, zero lost frames and
///   zero delta regressions.
fn scenario_streaming() -> Report {
    const EVENTS: usize = 6_000;
    const HOT_REQUESTS: usize = 2_000;
    const ADVANTAGE_BAND: f64 = 1.25;
    const OVERHEAD_BAND: f64 = 1.05;

    let early = streaming::early_ban_cells(EVENTS);
    let offenders = campaign::offender_ids();
    let fed_ctl = early.fed.stats.control.as_ref().expect("control books");
    let benign_banned = fed_ctl
        .banned_clients
        .iter()
        .filter(|c| !offenders.contains(c))
        .count();
    let advantage = early.advantage().min(ADVANTAGE_BAND);

    let best = |telemetry: TelemetryConfig, streaming_cfg| -> Duration {
        (0..3)
            .map(|_| {
                let stats = streaming::closed_loop_cell(telemetry, streaming_cfg, HOT_REQUESTS);
                assert!(stats.reconciles());
                stats.ok_latency().p99()
            })
            .min()
            .expect("three runs")
    };
    let off_p99 = best(TelemetryConfig::Off, None);
    let on_p99 = best(
        TelemetryConfig::enabled(),
        Some(sdrad_runtime::StreamingConfig::enabled()),
    );
    // Same contract as the e17 recorder gate: the relative budget OR
    // the absolute epsilon — at ~µs p99s, a couple of µs of delta is
    // the host scheduler, and a raw ratio would flake on it. Within
    // the contract the metric collapses to the band edge; the guard
    // fires only on a real breach.
    let raw_overhead = on_p99.as_secs_f64() / off_p99.as_secs_f64().max(f64::MIN_POSITIVE);
    let overhead_ratio = if on_p99 <= off_p99 + OVERHEAD_EPSILON {
        OVERHEAD_BAND
    } else {
        raw_overhead.max(OVERHEAD_BAND)
    };

    let pressure = streaming::pressure_cell(EVENTS);
    assert!(pressure.stats.reconciles());
    let telemetry = pressure.stats.telemetry.as_ref().expect("recorder was on");
    let books = telemetry.streaming.expect("streaming books present");
    let dropped = telemetry.snapshot.total_dropped();
    let sampled_out = telemetry.snapshot.total_sampled_out();
    // The exact gate: conservation holds WITH the sampler engaged and
    // the delta protocol lossless — a pressure cell where nothing was
    // sampled out proves nothing.
    let conserves = telemetry.snapshot.conserves()
        && sampled_out > 0
        && books.frames > 0
        && books.lost_frames == 0
        && books.regressions == 0;

    let mut r = Report::new("e24", "streaming telemetry (trajectory cut)");
    r.begin_table(
        format!(
            "{EVENTS} campaign events per arm (seed {:#x}), {HOT_REQUESTS} hot-path round \
             trips, {}-event pressure rings",
            campaign::SEED,
            sdrad_bench::streaming::PRESSURE_RING
        ),
        &["cut", "books-only / off", "telemetry-fed / on"],
    );
    r.row(&[
        "pre-ban rewinds (mean)".into(),
        format!("{:.1}", early.books_only_faults),
        format!("{:.1}", early.fed_faults),
    ]);
    r.row(&[
        "hot-path ok p99".into(),
        format!("{:.1}us", off_p99.as_nanos() as f64 / 1e3),
        format!("{:.1}us", on_p99.as_nanos() as f64 / 1e3),
    ]);
    r.row(&[
        "pressure books".into(),
        format!("dropped {dropped}"),
        format!("sampled_out {sampled_out}"),
    ]);
    r.exact(
        "telemetry_conserves",
        f64::from(u8::from(conserves)),
        "bool",
    )
    .exact("benign_banned", benign_banned as f64, "count")
    .guarded("early_ban_advantage", advantage, "ratio", true)
    .guarded(
        "sampling_overhead_p99_ratio",
        overhead_ratio,
        "ratio",
        false,
    )
    .info("evidence_reports", fed_ctl.counts.evidence as f64, "count")
    .info("pressure_dropped", dropped as f64, "count")
    .info("pressure_sampled_out", sampled_out as f64, "count")
    .note(format!(
        "evidence-fed admission bans on {:.1} mean absorbed faults vs {:.1} books-only \
             ({:.2}x, band-clamped to {advantage:.2}); streaming p99 ratio {raw_overhead:.2} \
             (clamped to {overhead_ratio:.2}); under pressure {dropped} overflow drops stay \
             distinct from {sampled_out} sampler refusals and every book closes exactly",
        early.fed_faults,
        early.books_only_faults,
        early.advantage(),
    ));
    r
}

/// Hot-path micro-timings (host-dependent, info only).
fn scenario_micro() -> Report {
    let rewind_ns = measured_rewind_latency(200).as_nanos() as f64;
    let mut r = Report::new("micro", "hot-path micro-timings");
    r.info("rewind_ns", rewind_ns, "ns").note(format!(
        "mean contained-fault rewind: {:.1}us over 200 faults",
        rewind_ns / 1e3
    ));
    r
}

fn baseline_path(args: &[String]) -> PathBuf {
    if let Some(i) = args.iter().position(|a| a == "--baseline") {
        return PathBuf::from(args.get(i + 1).expect("--baseline takes a path"));
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_runtime.json")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let checking = args.iter().any(|a| a == "--check");
    let path = baseline_path(&args);

    banner(
        "bench_report",
        "runtime perf trajectory: exact invariants, guarded ratios, info timings",
        "a resilience mechanism's cost story is only credible if it is re-measured and \
         regression-gated on every change",
    );

    let reports = [
        scenario_isolation(),
        scenario_conn_and_overhead(),
        scenario_stealing(),
        scenario_campaign(),
        scenario_lockfree(),
        scenario_alloc_discipline(),
        scenario_zero_pause(),
        scenario_streaming(),
        scenario_micro(),
    ];
    let mut metrics: Vec<Metric> = Vec::new();
    for r in &reports {
        r.print();
        metrics.extend(r.metrics().iter().cloned());
    }

    if checking {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("FAIL: no committed baseline at {}: {e}", path.display());
            std::process::exit(1);
        });
        let doc = Json::parse(&text).unwrap_or_else(|e| {
            eprintln!("FAIL: baseline does not parse: {e}");
            std::process::exit(1);
        });
        let baseline = report::metrics_from_json(&doc).unwrap_or_else(|e| {
            eprintln!("FAIL: {e}");
            std::process::exit(1);
        });
        let outcome = report::check(&metrics, &baseline, TOLERANCE);
        for note in &outcome.notes {
            println!("note: {note}");
        }
        for failure in &outcome.failures {
            println!("FAIL: {failure}");
        }
        println!(
            "check vs {}: {} metrics compared, {} failures, {} notes",
            path.display(),
            outcome.compared,
            outcome.failures.len(),
            outcome.notes.len()
        );
        if !outcome.passed() {
            std::process::exit(1);
        }
    } else {
        let doc = report::bench_json(&metrics);
        std::fs::write(&path, doc.pretty()).expect("write baseline");
        println!(
            "wrote {} ({} metrics, schema v{})",
            path.display(),
            metrics.len(),
            report::BENCH_SCHEMA_VERSION
        );
    }
}

//! E21 — lock-free hand-off latency under the e18 hot-shard skew, swept
//! across worker counts.
//!
//! The mutex-era data plane had a collapse point: every thief's
//! `steal` walked the victim's deque **under the queue lock**, so past
//! a few workers the hot shard's producers and its owner all convoyed
//! behind the steal storm — p99 hand-off latency grew with the worker
//! count even though the extra workers were supposed to help. The
//! lock-free plane (MPSC inbox + owner-published MPMC steal buffer +
//! SPSC completion rings) removes every shared lock from the hand-off
//! path, so the same sweep must show a **flat** tail: doubling workers
//! past the old collapse point buys steal capacity without taxing the
//! submit or completion path.
//!
//! Method, per worker count (2 → 4 → 8): the e18 hot-shard skew —
//! every connection and every queue submit pinned to shard 0 while the
//! siblings start idle. Two tails are measured:
//!
//! * **submit p99** — the wall-clock cost of `submit_detached` itself,
//!   sampled while the steal storm is live. This is the producer's
//!   slice of the hand-off; under the old design it blocked on the
//!   queue mutex exactly when thieves were active.
//! * **hand-off RTT p99** — ticket round trips (submit → worker →
//!   completion ring → notify) against the drained server, e17-style:
//!   the full hand-off path with queue depth held at zero, so the
//!   number is the path cost, not the backlog.
//!
//! Hard assertions: [`cells::assert_skew_books`] on every attempt of
//! every cell (exact conservation and reconciliation, zero thief
//! mutations, balanced arena books under cross-thread buffer returns),
//! the steal plane engaged at every worker count (a sweep where
//! stealing never engages means the deep-steal plane is dead), and both
//! tails flat across the sweep within `FLATNESS_SLACK` — the convoy
//! collapse this sweep is the regression canary for blew through it.
//! Inside the band a p99 ratio between two µs-scale tails on a
//! timeshared host is scheduler noise, so it is reported, not tracked.

use std::time::{Duration, Instant};

use sdrad_runtime::{KvHandler, LatencyHistogram, Runtime, RuntimeStats, StealPolicy};

use crate::cells::{self, fmt_us, hot_clients};
use crate::Report;

/// Worker counts swept; the mutex design was already convoying at 4.
const WORKER_SWEEP: [usize; 3] = [2, 4, 8];
/// Connections pinned to shard 0 per cell.
const HOT_CONNS: usize = 6;
/// Ticket round trips against the drained server per cell.
const PROBES: usize = 512;
/// Generous ceiling for the flatness assertion: host-scheduler jitter
/// on a loaded runner stays inside it, a lock convoy does not.
const FLATNESS_SLACK: f64 = 3.0;
/// Absolute floor under which a "ratio" is µs-noise, not contention.
const NOISE_FLOOR: Duration = Duration::from_micros(150);

struct Cell {
    workers: usize,
    stats: RuntimeStats,
    submit: LatencyHistogram,
    rtt: LatencyHistogram,
    drain: Duration,
}

impl Cell {
    fn moved(&self) -> u64 {
        self.stats.steals() + self.stats.conn_steals()
    }
}

fn run_cell(workers: usize, burst: usize) -> Cell {
    let config = cells::hot_shard_config(workers, StealPolicy::Deep, burst);
    let runtime = Runtime::start(config, |_| KvHandler::default());
    let warmups = cells::warm_every_shard(&runtime);

    // Connection-side skew: pipelined get/set mixes pinned to shard 0 —
    // deep-steal bait (reads lift, sets route home).
    let mut conn_frames = 0u64;
    let mut conns = Vec::new();
    for (c, id) in hot_clients(&runtime, HOT_CONNS).into_iter().enumerate() {
        let (mut client, server) = sdrad_net::duplex();
        runtime.attach(id, server);
        let mut payload = Vec::new();
        for i in 0..64 {
            if i % 4 == 3 {
                payload.extend_from_slice(format!("set c{c}-k{i} 2\r\nok\r\n").as_bytes());
            } else {
                payload.extend_from_slice(format!("get miss-{i}\r\n").as_bytes());
            }
            conn_frames += 1;
        }
        client.write(&payload);
        conns.push(client);
    }

    // Queue-side skew, submit-latency sampled live: every push lands in
    // shard 0's MPSC inbox while the owner publishes surplus and the
    // siblings hammer the steal buffer. Read-only payloads, so the deep
    // policy's classification publishes all of it — maximum buffer
    // contention, which is the point.
    let hot = hot_clients(&runtime, 1)[0];
    let started = Instant::now();
    let mut submit = LatencyHistogram::new();
    for _ in 0..burst {
        let sent = Instant::now();
        assert!(
            runtime.submit_detached(hot, b"get hot-key\r\n".to_vec()),
            "the burst fits the queue bound"
        );
        submit.record_duration(sent.elapsed());
    }
    assert!(runtime.quiesce(), "the drain barrier must settle");
    let drain = started.elapsed();

    // Hand-off RTT against the drained server: submit → worker → SPSC
    // completion ring → notify, with queue depth pinned at zero.
    let mut rtt = LatencyHistogram::new();
    for _ in 0..PROBES {
        cells::probe_rtt(&runtime, hot, &mut rtt);
    }

    assert!(runtime.quiesce(), "the probe tail must settle");
    let stats = runtime.shutdown();
    let offered = warmups + conn_frames + (burst + PROBES) as u64;
    cells::assert_skew_books(&format!("{workers} workers"), &stats, offered);
    Cell {
        workers,
        stats,
        submit,
        rtt,
        drain,
    }
}

/// Runs a cell until its steal plane engaged (the structural books are
/// asserted on every attempt). Engagement is inherently racy on a
/// small host — a single-core runner timeslices the thief against the
/// owner, which can drain the whole skew before the thief runs — so
/// the racy *bit* gets retries while the invariants never do.
fn run_cell_engaged(workers: usize, burst: usize) -> Cell {
    for attempt in 0..6 {
        let cell = run_cell(workers, burst);
        if cell.moved() > 0 {
            return cell;
        }
        eprintln!(
            "attempt {attempt}: {workers} workers drained the skew before a thief engaged; \
             retrying"
        );
    }
    panic!("{workers} workers: the steal plane never engaged across attempts");
}

/// The sweep-level claim, a flat tail: both tails at the widest cell
/// must stay within a generous factor of the narrowest cell's (or under
/// an absolute noise floor — µs-scale numbers on a timeshared runner
/// are the host, not the hand-off). Returns the violation, if any.
fn flatness_violation(sweep: &[Cell]) -> Option<String> {
    let first = sweep.first().expect("sweep is non-empty");
    let last = sweep.last().expect("sweep is non-empty");
    [
        ("submit", first.submit.p99(), last.submit.p99()),
        ("hand-off RTT", first.rtt.p99(), last.rtt.p99()),
    ]
    .into_iter()
    .find(|&(_, narrow, wide)| wide > narrow.mul_f64(FLATNESS_SLACK).max(NOISE_FLOOR))
    .map(|(label, narrow, wide)| {
        format!(
            "{label} p99 collapsed with worker count: {} workers {narrow:?} vs {} workers {wide:?}",
            first.workers, last.workers,
        )
    })
}

/// Runs the sweep at `size` hot-shard queue submits per cell.
#[must_use]
pub fn run(size: usize) -> Report {
    // The books are asserted on every attempt of every cell; a tail
    // caught by a host-noise burst is the racy outcome, so a sweep that
    // is not flat is re-measured before it is believed.
    let run_sweep = || -> Vec<Cell> {
        WORKER_SWEEP
            .into_iter()
            .map(|workers| run_cell_engaged(workers, size))
            .collect()
    };
    let sweep = cells::retry_racy(run_sweep, |sweep| flatness_violation(sweep).is_none());
    if let Some(violation) = flatness_violation(&sweep) {
        panic!("{violation}");
    }

    let mut report = Report::new("e21", "lock-free hand-off latency across a worker sweep");
    report.begin_table(
        format!(
            "{size} hot-shard submits + {HOT_CONNS}x64 pipelined conn frames, all pinned to \
             shard 0; {PROBES} drained-server ticket probes per cell",
        ),
        &[
            "workers",
            "drain",
            "submit p50",
            "submit p99",
            "rtt p50",
            "rtt p99",
            "q-steals",
            "conn-steals",
            "thief-mut",
            "rec",
        ],
    );
    for cell in &sweep {
        report.row(&[
            cell.workers.to_string(),
            format!("{:.1}ms", cell.drain.as_secs_f64() * 1_000.0),
            fmt_us(cell.submit.p50()),
            fmt_us(cell.submit.p99()),
            fmt_us(cell.rtt.p50()),
            fmt_us(cell.rtt.p99()),
            cell.stats.steals().to_string(),
            cell.stats.conn_steals().to_string(),
            cell.stats.thief_mutations().to_string(),
            if cell.stats.reconciles() { "yes" } else { "NO" }.into(),
        ]);
    }

    let first = sweep.first().expect("sweep is non-empty");
    let last = sweep.last().expect("sweep is non-empty");
    let submit_ratio =
        last.submit.p99().as_secs_f64() / first.submit.p99().as_secs_f64().max(f64::MIN_POSITIVE);
    let rtt_ratio =
        last.rtt.p99().as_secs_f64() / first.rtt.p99().as_secs_f64().max(f64::MIN_POSITIVE);
    report.note(format!(
        "tail flatness {}→{} workers: submit p99 {:.2}x, hand-off RTT p99 {:.2}x \
         (mutex-era steal walks held the queue lock for O(n·stolen) per steal — this \
         sweep is the regression canary for that convoy)",
        first.workers, last.workers, submit_ratio, rtt_ratio,
    ));
    report.note(format!(
        "steal engagement grows with the sweep while the tail does not: {} → {} → {} \
         frames moved off the hot shard",
        sweep[0].moved(),
        sweep[1].moved(),
        sweep[2].moved(),
    ));
    let sum = |f: fn(&RuntimeStats) -> u64| sweep.iter().map(|c| f(&c.stats)).sum::<u64>();
    report
        .exact(
            "thief_mutations",
            sum(RuntimeStats::thief_mutations) as f64,
            "count",
        )
        .exact("crashes", sum(RuntimeStats::crashes) as f64, "count")
        .exact(
            "steals_engaged",
            f64::from(u8::from(sweep.iter().all(|c| c.moved() > 0))),
            "bool",
        )
        .info("submit_p99_flatness", submit_ratio, "ratio");
    report
}

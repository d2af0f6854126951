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
//! Hard assertions: exact conservation and reconciliation per cell,
//! zero thief mutations, stealing engaged whenever there
//! are siblings, and the tails flat across the sweep within a generous
//! CI bound (the committed trajectory guard lives in `bench_report`,
//! where the 10 % direction-aware ratio is gated against the
//! baseline).

use std::time::{Duration, Instant};

use sdrad::ClientId;
use sdrad_bench::{banner, Report};
use sdrad_runtime::{
    IsolationMode, KvHandler, LatencyHistogram, Runtime, RuntimeConfig, RuntimeStats, StealPolicy,
    SubmitOutcome,
};

/// Worker counts swept; the mutex design was already convoying at 4.
const WORKER_SWEEP: [usize; 3] = [2, 4, 8];
/// Connections pinned to shard 0 per cell.
const HOT_CONNS: usize = 6;
/// Ticket round trips against the drained server per cell.
const PROBES: usize = 512;
/// Per-connection read budget — small, so the hot owner defers frames
/// and the siblings' steal machinery genuinely engages.
const BUDGET: usize = 8;
/// Generous CI ceiling for the flatness assertion: host-scheduler
/// jitter on a loaded runner, not a regression gate (that is
/// `bench_report --check`'s job).
const FLATNESS_SLACK: f64 = 3.0;
/// Absolute floor under which a "ratio" is µs-noise, not contention.
const NOISE_FLOOR: Duration = Duration::from_micros(150);

/// Queue submits per cell (override with `SDRAD_E21_REQUESTS`).
fn requests_per_cell() -> usize {
    std::env::var("SDRAD_E21_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6_000)
}

/// Client ids all mapping to shard 0.
fn hot_clients(runtime: &Runtime, count: usize) -> Vec<ClientId> {
    (0u64..)
        .map(ClientId)
        .filter(|c| runtime.shard_of(*c) == 0)
        .take(count)
        .collect()
}

struct Cell {
    workers: usize,
    stats: RuntimeStats,
    submit: LatencyHistogram,
    rtt: LatencyHistogram,
    drain: Duration,
    offered: u64,
}

fn run_cell(workers: usize) -> Cell {
    let burst = requests_per_cell();
    let mut config = RuntimeConfig::new(workers, IsolationMode::PerClientDomain);
    config.work_stealing = StealPolicy::Deep;
    config.conn_read_budget = BUDGET;
    config.batch = 16;
    config.queue_capacity = burst.max(4096);
    let runtime = Runtime::start(config, |_| KvHandler::default());

    // Warm-up: one served round trip per shard, so every sibling is
    // provisioned and parked before the skew arrives.
    let mut warmups = 0u64;
    for shard in 0..workers {
        let client = (0u64..)
            .map(ClientId)
            .find(|c| runtime.shard_of(*c) == shard)
            .expect("some id maps to every shard");
        if let SubmitOutcome::Enqueued(ticket) = runtime.submit(client, b"get warm-up\r\n".to_vec())
        {
            let _ = ticket.wait();
            warmups += 1;
        }
    }

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
    let mut accepted = 0u64;
    for _ in 0..burst {
        let sent = Instant::now();
        if runtime.submit_detached(hot, b"get hot-key\r\n".to_vec()) {
            accepted += 1;
        }
        submit.record_duration(sent.elapsed());
    }
    assert!(runtime.quiesce(), "the drain barrier must settle");
    let drain = started.elapsed();

    // Hand-off RTT against the drained server: submit → worker → SPSC
    // completion ring → notify, with queue depth pinned at zero.
    let mut rtt = LatencyHistogram::new();
    let mut probes = 0u64;
    for _ in 0..PROBES {
        let sent = Instant::now();
        match runtime.submit(hot, b"get probe\r\n".to_vec()) {
            SubmitOutcome::Enqueued(ticket) => {
                let completion = ticket.wait();
                rtt.record_duration(sent.elapsed());
                assert!(
                    matches!(completion.disposition, sdrad_runtime::Disposition::Ok),
                    "probe must serve cleanly"
                );
                probes += 1;
            }
            SubmitOutcome::Shed => unreachable!("an idle queue never sheds"),
        }
    }

    assert!(runtime.quiesce(), "the probe tail must settle");
    let stats = runtime.shutdown();
    Cell {
        workers,
        stats,
        submit,
        rtt,
        drain,
        offered: warmups + conn_frames + accepted + probes,
    }
}

/// Runs a cell until its steal plane engaged (the structural books are
/// asserted on every attempt). Engagement is inherently racy on a
/// small host — a single-core runner timeslices the thief against the
/// owner, which can drain the whole skew before the thief runs — so
/// the racy *bit* gets retries while the invariants never do.
fn run_cell_engaged(workers: usize) -> Cell {
    for attempt in 0..6 {
        let cell = run_cell(workers);
        assert_cell_books(&cell);
        if cell.stats.steals() + cell.stats.conn_steals() > 0 {
            return cell;
        }
        eprintln!(
            "attempt {attempt}: {workers} workers drained the skew before a thief engaged; \
             retrying"
        );
    }
    panic!("{workers} workers: the steal plane never engaged across attempts");
}

fn assert_cell_books(cell: &Cell) {
    let w = cell.workers;
    assert!(cell.stats.reconciles(), "{w} workers: books must balance");
    assert_eq!(
        cell.stats.served() + cell.stats.shed,
        cell.offered,
        "{w} workers: conservation is exact"
    );
    assert_eq!(
        cell.stats.shed, 0,
        "{w} workers: nothing sheds at this depth"
    );
    assert_eq!(cell.stats.crashes(), 0, "{w} workers: no crashes");
    assert_eq!(
        cell.stats.thief_mutations(),
        0,
        "{w} workers: deep stealing never mutates off-shard"
    );
    assert_eq!(
        cell.stats.owner_routed(),
        cell.stats.routed_served(),
        "{w} workers: every routed mutation came home"
    );
}

fn fmt_us(d: Duration) -> String {
    format!("{:.1}us", d.as_nanos() as f64 / 1_000.0)
}

fn main() {
    banner(
        "E21",
        "lock-free hand-off latency vs worker count under the hot-shard skew",
        "a steal plane that convoys producers behind a lock turns added workers into \
         added tail latency; the lock-free hand-off must keep p99 flat as workers double",
    );

    let cells: Vec<Cell> = WORKER_SWEEP.into_iter().map(run_cell_engaged).collect();

    let mut report = Report::new("e21", "lock-free hand-off latency across a worker sweep");
    report.begin_table(
        format!(
            "{} hot-shard submits + {HOT_CONNS}x64 pipelined conn frames, all pinned to \
             shard 0; {PROBES} drained-server ticket probes per cell",
            requests_per_cell(),
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
            "routed",
            "thief-mut",
            "rec",
        ],
    );
    for cell in &cells {
        report.row(&[
            cell.workers.to_string(),
            format!("{:.1}ms", cell.drain.as_secs_f64() * 1_000.0),
            fmt_us(cell.submit.p50()),
            fmt_us(cell.submit.p99()),
            fmt_us(cell.rtt.p50()),
            fmt_us(cell.rtt.p99()),
            cell.stats.steals().to_string(),
            cell.stats.conn_steals().to_string(),
            cell.stats.owner_routed().to_string(),
            cell.stats.thief_mutations().to_string(),
            if cell.stats.reconciles() { "yes" } else { "NO" }.into(),
        ]);
    }

    // The books were asserted on every attempt inside the sweep; what
    // remains is the sweep-level claim: a flat tail.

    // Flatness across the sweep: both tails at the widest cell must stay
    // within a generous factor of the narrowest cell's (or under an
    // absolute noise floor — µs-scale numbers on a timeshared runner are
    // the host, not the hand-off). The committed 10 % trajectory guard
    // on these ratios lives in `bench_report --check`.
    let first = cells.first().expect("sweep is non-empty");
    let last = cells.last().expect("sweep is non-empty");
    for (label, narrow, wide) in [
        ("submit", first.submit.p99(), last.submit.p99()),
        ("hand-off RTT", first.rtt.p99(), last.rtt.p99()),
    ] {
        assert!(
            wide <= narrow.mul_f64(FLATNESS_SLACK).max(NOISE_FLOOR),
            "{label} p99 collapsed with worker count: {} workers {:?} vs {} workers {:?}",
            first.workers,
            narrow,
            last.workers,
            wide,
        );
    }

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
        cells[0].stats.steals() + cells[0].stats.conn_steals(),
        cells[1].stats.steals() + cells[1].stats.conn_steals(),
        cells[2].stats.steals() + cells[2].stats.conn_steals(),
    ));
    report.print();
}

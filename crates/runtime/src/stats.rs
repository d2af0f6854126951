//! Aggregated runtime statistics and their bridge into the
//! `sdrad-energy` fleet models.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use sdrad_control::ControlReport;
use sdrad_energy::casestudy::{fleet_lineup, FleetReport, FleetScenario};
use sdrad_telemetry::{LatencyHistogram, LiveTotals, StreamingReport, TelemetrySnapshot, TraceLog};

use crate::worker::WorkerStats;

/// The telemetry layer's closed books: each flight-recorder ring's
/// conservation counters ([`TelemetrySnapshot`]) plus the merged,
/// stamp-ordered [`TraceLog`] every post-mortem query runs over. The
/// run's own counts stay in [`RuntimeStats`] and its
/// [`ControlReport`]; nothing here copies them. Attached to
/// [`RuntimeStats::telemetry`] when the runtime ran with
/// [`TelemetryConfig::Enabled`](crate::TelemetryConfig).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryReport {
    /// The ring books, cut at shutdown after every ring was drained.
    pub snapshot: TelemetrySnapshot,
    /// Every drained trace event, merged on the shared logical clock.
    pub log: TraceLog,
    /// The streaming collector's closed delivery books — `None` unless
    /// the runtime ran with
    /// [`RuntimeConfig::streaming`](crate::RuntimeConfig::streaming) set
    /// (and the flight recorder on).
    pub streaming: Option<StreamingReport>,
}

/// A cheap, **non-quiescing** live view of a running runtime
/// ([`Runtime::stats_snapshot`](crate::Runtime::stats_snapshot)).
///
/// ## Consistency (deliberately weaker than [`RuntimeStats`])
///
/// Workers flush their counters to shared atomics once per pump pass,
/// and the snapshot reads those atomics without stopping anyone. So:
/// counters may lag the live truth by up to one in-flight pass per
/// worker, different counters may be from *different* passes (e.g.
/// `served` from worker 0's newest pass but worker 1's previous one),
/// and no cross-counter invariant (`ok + faults ≤ served`, steal
/// conservation) is guaranteed to hold on any single snapshot. The
/// final [`RuntimeStats`] from `shutdown()` is the exact, reconciled
/// record; this type exists for dashboards and progress probes that
/// must not perturb the measurement by quiescing it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// The per-pass counters summed across workers, as last flushed.
    pub totals: LiveTotals,
    /// Requests currently queued across all shards (a live read, not a
    /// flushed counter — exact at the instant each queue was polled).
    pub pending: usize,
    /// Connections handled by the dispatcher so far (live read).
    pub attached: u64,
    /// Requests refused at admission so far (live read; zero without a
    /// control plane).
    pub refused: u64,
}

/// The per-worker atomics behind [`StatsSnapshot`]: each worker stores
/// its [`LiveTotals`] here once per pump pass (plain `store`s — no RMW
/// on the hot path), and `stats_snapshot()` sums across workers without
/// quiescing anything.
#[derive(Debug, Default)]
pub(crate) struct LiveCounters([AtomicU64; LiveTotals::COUNTERS]);

impl LiveCounters {
    /// Publishes the worker's counters as of this pass.
    pub(crate) fn store(&self, totals: LiveTotals) {
        for (cell, total) in self.0.iter().zip(totals.to_array()) {
            cell.store(total, Ordering::Relaxed);
        }
    }

    /// This worker's last-flushed counters.
    pub(crate) fn load(&self) -> LiveTotals {
        LiveTotals::from_array(std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed)))
    }
}

/// Everything a finished runtime run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeStats {
    /// Per-worker counters, indexed by shard.
    pub workers: Vec<WorkerStats>,
    /// Requests shed across all shards (backpressure).
    pub shed: u64,
    /// Requests accepted across all shards.
    pub submitted: u64,
    /// Requests taken off shard queues by sibling workers (the queues'
    /// own count — reconciled against the thieves'
    /// [`WorkerStats::steals`]).
    pub stolen_submits: u64,
    /// Framing-complete requests lifted off connection buffers by
    /// sibling workers (the shard registries' own count — reconciled
    /// against the thieves' [`WorkerStats::conn_steals`]).
    pub conn_stolen: u64,
    /// Time-to-shed histogram across all shards (how fast the fast-fail
    /// rejection path answers — the p99 a shed client experiences).
    pub shed_latency: LatencyHistogram,
    /// The adaptive control plane's closed books (admission decisions,
    /// escalation rungs, per-decision energy bill) — `None` when the
    /// runtime ran with the static reflexes
    /// ([`RuntimeConfig::control`](crate::RuntimeConfig::control) unset).
    pub control: Option<ControlReport>,
    /// The shared-read hazard domain's closed books (view objects
    /// retired, reclaimed and pending) — `None` unless the runtime ran
    /// with [`StealPolicy::Deep`](crate::StealPolicy::Deep). After a
    /// clean shutdown the conservation law `retired == reclaimed`
    /// (pending zero) must hold: the runtime drained the domain with
    /// no guards left alive.
    pub hazard: Option<sdrad_nolock::HazardStats>,
    /// The telemetry layer's closed books — ring books plus drained
    /// flight-recorder log — `None` when the runtime ran with
    /// [`TelemetryConfig::Off`](crate::TelemetryConfig).
    pub telemetry: Option<TelemetryReport>,
    /// Wall-clock span from start to the end of the drain.
    pub wall: Duration,
}

impl RuntimeStats {
    /// Requests completed across all workers.
    #[must_use]
    pub fn served(&self) -> u64 {
        self.workers.iter().map(|w| w.served).sum()
    }

    /// Requests served normally across all workers.
    #[must_use]
    pub fn ok(&self) -> u64 {
        self.workers.iter().map(|w| w.ok).sum()
    }

    /// Contained faults across all workers.
    #[must_use]
    pub fn contained_faults(&self) -> u64 {
        self.workers.iter().map(|w| w.contained_faults).sum()
    }

    /// Baseline crashes across all workers.
    #[must_use]
    pub fn crashes(&self) -> u64 {
        self.workers.iter().map(|w| w.crashes).sum()
    }

    /// Secret-leaking responses across all workers (unprotected TLS
    /// baseline under Heartbleed).
    #[must_use]
    pub fn leaks(&self) -> u64 {
        self.workers.iter().map(|w| w.leaks).sum()
    }

    /// Connections adopted across all workers.
    #[must_use]
    pub fn connections(&self) -> u64 {
        self.workers.iter().map(|w| w.connections).sum()
    }

    /// Requests served off connection streams across all workers.
    #[must_use]
    pub fn conn_served(&self) -> u64 {
        self.workers.iter().map(|w| w.conn_served).sum()
    }

    /// Half-received requests discarded because their connection
    /// disconnected mid-request.
    #[must_use]
    pub fn aborted_requests(&self) -> u64 {
        self.workers.iter().map(|w| w.aborted_requests).sum()
    }

    /// Times workers parked with nothing to do.
    #[must_use]
    pub fn parks(&self) -> u64 {
        self.workers.iter().map(|w| w.parks).sum()
    }

    /// Times parked workers were woken by a signal.
    #[must_use]
    pub fn wakeups(&self) -> u64 {
        self.workers.iter().map(|w| w.wakeups).sum()
    }

    /// Requests served by a worker other than their shard's (work
    /// stealing).
    #[must_use]
    pub fn steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Framing-complete requests lifted off connection buffers and
    /// served by thieves ([`StealPolicy::Deep`](crate::StealPolicy)).
    #[must_use]
    pub fn conn_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.conn_steals).sum()
    }

    /// Stolen shard-state mutations executed on a thief —
    /// state-confinement violations; zero unless a steal
    /// classification filter failed.
    #[must_use]
    pub fn thief_mutations(&self) -> u64 {
        self.workers.iter().map(|w| w.thief_mutations).sum()
    }

    /// Stranded-request stalls across all workers: budget deferrals
    /// that left framing-complete requests waiting in a connection
    /// buffer while at least one sibling sat parked.
    #[must_use]
    pub fn stranded_stalls(&self) -> u64 {
        self.workers.iter().map(|w| w.stranded_stalls).sum()
    }

    /// Idle connections reaped across all workers.
    #[must_use]
    pub fn reaped(&self) -> u64 {
        self.workers.iter().map(|w| w.reaped).sum()
    }

    /// Stolen reads served against a victim's hazard-protected read
    /// view (the owner's live shard state) across all thieves — a
    /// subset of `conn_steals`.
    #[must_use]
    pub fn shared_reads(&self) -> u64 {
        self.workers.iter().map(|w| w.shared_reads).sum()
    }

    /// Read views published (and republished) across all workers.
    #[must_use]
    pub fn views_published(&self) -> u64 {
        self.workers.iter().map(|w| w.views_published).sum()
    }

    /// Domains handed to teardown by rebuild/restart rungs across all
    /// workers.
    #[must_use]
    pub fn domains_retired(&self) -> u64 {
        self.workers.iter().map(|w| w.domains_retired).sum()
    }

    /// Domains actually torn down (by amortized reclaim steps, or
    /// with their manager on a worker restart) across all workers.
    #[must_use]
    pub fn domains_reclaimed(&self) -> u64 {
        self.workers.iter().map(|w| w.domains_reclaimed).sum()
    }

    /// Escalation-ladder decisions that stopped at the rewind rung,
    /// across all workers (control plane enabled).
    #[must_use]
    pub fn ladder_rewinds(&self) -> u64 {
        self.workers.iter().map(|w| w.ladder_rewinds).sum()
    }

    /// Pool discard/rebuild rungs executed across all workers.
    #[must_use]
    pub fn pool_rebuilds(&self) -> u64 {
        self.workers.iter().map(|w| w.pool_rebuilds).sum()
    }

    /// Worker-restart rungs executed across all workers.
    #[must_use]
    pub fn worker_restarts(&self) -> u64 {
        self.workers.iter().map(|w| w.worker_restarts).sum()
    }

    /// Cumulative rewind nanoseconds across all workers.
    #[must_use]
    pub fn rewind_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.rewind_ns).sum()
    }

    /// Frame buffers acquired from worker arenas across all workers.
    #[must_use]
    pub fn arena_acquires(&self) -> u64 {
        self.workers.iter().map(|w| w.arena_acquires).sum()
    }

    /// Arena acquires satisfied by recycled storage across all workers.
    #[must_use]
    pub fn arena_reuses(&self) -> u64 {
        self.workers.iter().map(|w| w.arena_reuses).sum()
    }

    /// Frame buffers returned to worker pools across all workers.
    #[must_use]
    pub fn arena_returns(&self) -> u64 {
        self.workers.iter().map(|w| w.arena_returns).sum()
    }

    /// Arena acquires that fell through to a fresh heap allocation,
    /// across all workers.
    #[must_use]
    pub fn arena_fresh_allocs(&self) -> u64 {
        self.workers.iter().map(|w| w.arena_fresh_allocs).sum()
    }

    /// Mean rewind latency over all contained faults (zero if none).
    #[must_use]
    pub fn mean_rewind(&self) -> Duration {
        let faults = self.contained_faults();
        if faults == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.rewind_ns() / faults)
    }

    /// Whole-fleet latency histogram of normally-served requests
    /// (per-worker histograms merged — exactly equal to the whole-stream
    /// histogram).
    #[must_use]
    pub fn ok_latency(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for worker in &self.workers {
            merged.merge(&worker.ok_latency);
        }
        merged
    }

    /// Whole-fleet latency histogram of contained-fault requests.
    #[must_use]
    pub fn contained_latency(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for worker in &self.workers {
            merged.merge(&worker.contained_latency);
        }
        merged
    }

    /// Whole-fleet histogram of the rewind component of each contained
    /// fault (the microsecond datum the energy models scale from).
    #[must_use]
    pub fn rewind_latency(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for worker in &self.workers {
            merged.merge(&worker.rewind_latency);
        }
        merged
    }

    /// Modeled restart downtime summed over workers.
    #[must_use]
    pub fn modeled_downtime(&self) -> Duration {
        self.workers.iter().map(WorkerStats::modeled_downtime).sum()
    }

    /// The global invariant: per-worker protocol-level fault counts match
    /// the rewinds each worker's own `DomainManager` performed (and the
    /// per-disposition latency histograms carry exactly one sample per
    /// counted request), and the totals add up across the fleet —
    /// including stolen work, which must balance between the queues'
    /// view (requests taken by thieves) and the thieves' view (stolen
    /// requests served).
    #[must_use]
    pub fn reconciles(&self) -> bool {
        self.workers.iter().all(WorkerStats::reconciles)
            && self.contained_faults()
                == self.workers.iter().map(|w| w.manager_rewinds).sum::<u64>()
            && self.contained_latency().len() == self.contained_faults()
            && self.ok_latency().len() == self.ok()
            && self.shed_latency.len() == self.shed
            // Queue-path completions cannot exceed accepted submits
            // (connection-pumped requests are accounted separately).
            && self.served().saturating_sub(self.conn_served()) <= self.submitted
            // Stolen work is conserved: what the queues say was taken is
            // exactly what the thieves say they served, and no stolen
            // request can outnumber the queue-path total.
            && self.steals() == self.stolen_submits
            && self.steals() <= self.served().saturating_sub(self.conn_served())
            // Connection-buffer steals balance between the shard
            // registries' books and the thieves'.
            && self.conn_steals() == self.conn_stolen
            // Every conn-stolen frame is connection work.
            && self.conn_steals() <= self.conn_served()
            // Arena books balance: every acquire was satisfied either by
            // recycled storage or by a fresh heap allocation.
            && self.arena_acquires() == self.arena_reuses() + self.arena_fresh_allocs()
            // Shared reads are a subset of connection-buffer steals
            // (every one travelled the deep-steal path).
            && self.shared_reads() <= self.conn_steals()
            // The hazard domain's books, when deep stealing ran: after
            // the shutdown drain every retired view was reclaimed.
            && self.hazard.as_ref().is_none_or(|h| h.conserves() && h.pending == 0)
            // The control plane's books, when it ran: its own
            // billed-vs-counted invariant holds, and the rungs the
            // plane decided are exactly the rungs the workers executed
            // — a decided-but-unexecuted (or executed-but-undecided)
            // escalation breaks one of the equalities.
            && self.control.as_ref().is_none_or(|report| {
                report.reconciles()
                    && report.counts.rewinds == self.ladder_rewinds()
                    && report.counts.pool_rebuilds == self.pool_rebuilds()
                    && report.counts.worker_restarts == self.worker_restarts()
            })
            // The flight recorder's own books, when it ran: every ring
            // obeys `recorded == drained + dropped + sampled_out +
            // in_ring`, and the drained log plus what the collector's
            // bounded log evicted is exactly what the rings say was
            // drained — whether an event reached the log through a
            // streamed delta frame or the final shutdown drain. The
            // streaming books, when a collector ran, are a subset of
            // that total and must show zero counter regressions (the
            // runtime retains per-source baselines across restarts).
            && self.telemetry.as_ref().is_none_or(|t| {
                let logged = t.log.len() as u64 + t.streaming.map_or(0, |s| s.truncated);
                t.snapshot.conserves()
                    && logged
                        == t.snapshot
                            .rings
                            .values()
                            .map(|r| r.counters.drained)
                            .sum::<u64>()
                    && t.streaming
                        .is_none_or(|s| s.events_streamed <= logged && s.regressions == 0)
            })
    }

    /// Raw throughput: completed requests over the wall clock.
    #[must_use]
    pub fn throughput_rps(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.served() as f64 / self.wall.as_secs_f64()
    }

    /// Throughput with each worker's modeled restart downtime charged:
    /// a worker that crashed owes its clients the restart window, during
    /// which it serves nothing. This is the number the paper's
    /// "restarts collapse throughput" claim is about.
    #[must_use]
    pub fn effective_throughput_rps(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.workers
            .iter()
            .map(|w| {
                let span = self.wall.as_secs_f64() + w.modeled_downtime().as_secs_f64();
                if span > 0.0 {
                    w.served as f64 / span
                } else {
                    0.0
                }
            })
            .sum()
    }

    /// Fraction of wall time the mean worker was serving (1.0 with no
    /// crashes; collapses as modeled restart downtime accumulates).
    #[must_use]
    pub fn availability(&self) -> f64 {
        if self.workers.is_empty() || self.wall.is_zero() {
            return 1.0;
        }
        let wall = self.wall.as_secs_f64();
        self.workers
            .iter()
            .map(|w| wall / (wall + w.modeled_downtime().as_secs_f64()))
            .sum::<f64>()
            / self.workers.len() as f64
    }
}

/// Builds the fleet-level sustainability lineup from **measured** runs:
/// the attacked isolated run contributes the measured rewind latency,
/// and a **clean** (attack-free) baseline/isolated pair contributes the
/// measured SDRaD overhead. Both are substituted into `fleet`'s service
/// scenario before evaluating every deployment strategy, so the energy
/// report rests on this machine's numbers rather than the paper's
/// constants.
///
/// The rewind substituted is the **p99** of the measured rewind
/// histogram when one is available (availability models should not be
/// propped up by the mean of a tail-heavy distribution), falling back to
/// the mean for synthetic stats without histograms.
///
/// The overhead pair must come from attack-free runs: under attack the
/// baseline's wall clock includes real crash-handling work (snapshot +
/// restore per crash), which would contaminate the per-request isolation
/// cost the model wants.
#[must_use]
pub fn fleet_lineup_from_runs(
    attacked_isolated: &RuntimeStats,
    clean_isolated: &RuntimeStats,
    clean_baseline: &RuntimeStats,
    mut fleet: FleetScenario,
) -> Vec<FleetReport> {
    let rewind_hist = attacked_isolated.rewind_latency();
    let measured_rewind = if rewind_hist.is_empty() {
        attacked_isolated.mean_rewind()
    } else {
        rewind_hist.p99()
    };
    if measured_rewind > Duration::ZERO {
        fleet.service.rewind = measured_rewind;
    }
    // Measured isolation overhead: how much slower the isolated workers
    // process the identical benign request mix (clamped to the model's
    // [0, 1) sanity range).
    let isolated_rps = clean_isolated.throughput_rps();
    let baseline_rps = clean_baseline.throughput_rps();
    if isolated_rps > 0.0 && baseline_rps > 0.0 {
        let overhead = (baseline_rps / isolated_rps - 1.0).clamp(0.0, 0.99);
        fleet.service.sdrad_overhead = overhead;
    }
    fleet_lineup(&fleet)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker(served: u64, faults: u64, crashes: u64) -> WorkerStats {
        let mut stats = WorkerStats {
            served,
            ok: served - faults,
            contained_faults: faults,
            rewind_ns: faults * 2_000,
            manager_rewinds: faults,
            crashes,
            modeled_downtime_ns: crashes * 2_000_000_000,
            ..WorkerStats::default()
        };
        // Histograms must carry one sample per counted request for the
        // stats to reconcile — exactly what real workers record.
        for _ in 0..stats.ok {
            stats.ok_latency.record(5_000);
        }
        for _ in 0..faults {
            stats.contained_latency.record(9_000);
            stats.rewind_latency.record(2_000);
        }
        stats
    }

    fn stats(workers: Vec<WorkerStats>) -> RuntimeStats {
        let submitted = workers.iter().map(|w| w.served).sum();
        RuntimeStats {
            workers,
            shed: 0,
            submitted,
            stolen_submits: 0,
            conn_stolen: 0,
            shed_latency: LatencyHistogram::new(),
            control: None,
            hazard: None,
            telemetry: None,
            wall: Duration::from_secs(2),
        }
    }

    #[test]
    fn totals_sum_over_workers() {
        let s = stats(vec![worker(100, 3, 0), worker(50, 1, 0)]);
        assert_eq!(s.served(), 150);
        assert_eq!(s.contained_faults(), 4);
        assert_eq!(s.mean_rewind(), Duration::from_nanos(2_000));
        assert!(s.reconciles());
        assert!((s.throughput_rps() - 75.0).abs() < 1e-9);
    }

    #[test]
    fn merged_latency_histograms_cover_every_request() {
        let s = stats(vec![worker(100, 3, 0), worker(50, 1, 0)]);
        assert_eq!(s.ok_latency().len(), 146);
        assert_eq!(s.contained_latency().len(), 4);
        assert_eq!(s.rewind_latency().len(), 4);
        // All samples equal here, so every percentile lands on the value.
        let p99 = s.ok_latency().quantile(0.99);
        assert!((4_900..=5_100).contains(&p99), "p99 was {p99}");
    }

    #[test]
    fn crashes_collapse_effective_throughput() {
        let healthy = stats(vec![worker(1000, 0, 0)]);
        let crashing = stats(vec![worker(1000, 0, 4)]);
        assert!(healthy.effective_throughput_rps() > crashing.effective_throughput_rps() * 3.0);
        assert!(crashing.availability() < 0.5);
        assert!((healthy.availability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reconciliation_detects_drift() {
        let mut broken = worker(10, 2, 0);
        broken.manager_rewinds = 1; // a lost rewind
        assert!(!stats(vec![broken]).reconciles());

        // A fault whose latency was never recorded is drift too.
        let mut unrecorded = worker(10, 2, 0);
        unrecorded.contained_latency = LatencyHistogram::new();
        assert!(!stats(vec![unrecorded]).reconciles());
    }

    #[test]
    fn reconciliation_covers_stolen_work() {
        // Balanced: the queue saw 4 requests stolen, a thief served 4.
        let mut thief = worker(10, 0, 0);
        thief.steals = 4;
        let mut balanced = stats(vec![thief]);
        balanced.stolen_submits = 4;
        assert!(balanced.reconciles());

        // A thief claiming more steals than any queue handed out is
        // drift (a double-processed or invented request).
        let mut phantom = worker(10, 0, 0);
        phantom.steals = 5;
        let mut broken = stats(vec![phantom]);
        broken.stolen_submits = 4;
        assert!(!broken.reconciles());

        // And a queue that lost track of a theft is drift too.
        let mut queue_view = stats(vec![worker(10, 0, 0)]);
        queue_view.stolen_submits = 1;
        assert!(!queue_view.reconciles());
    }

    #[test]
    fn reconciliation_covers_conn_steals() {
        // Balanced: the registries saw 3 frames lifted, the thief
        // served 3 — all as connection work.
        let mut thief = worker(10, 0, 0);
        thief.conn_steals = 3;
        thief.conn_served = 3;
        let mut balanced = stats(vec![thief]);
        balanced.conn_stolen = 3;
        assert!(balanced.reconciles());
        assert_eq!(balanced.conn_steals(), 3);

        // A conn steal served outside connection work is drift.
        let mut uncounted = balanced.clone();
        uncounted.workers[0].conn_served = 2;
        assert!(!uncounted.reconciles());

        // A conn steal the registries never booked is drift too.
        let mut phantom = balanced.clone();
        phantom.conn_stolen = 2;
        assert!(!phantom.reconciles());
    }

    #[test]
    fn fleet_lineup_uses_measured_rewind_and_clean_overhead() {
        let attacked = stats(vec![worker(900, 10, 0)]);
        let clean_isolated = stats(vec![worker(1000, 0, 0)]);
        let clean_baseline = stats(vec![worker(1100, 0, 0)]);
        let lineup = fleet_lineup_from_runs(
            &attacked,
            &clean_isolated,
            &clean_baseline,
            sdrad_energy::FleetScenario::telecom_ran(),
        );
        assert_eq!(lineup.len(), 5);
        let sdrad = lineup.iter().find(|r| r.strategy == "1N-sdrad").unwrap();
        assert!(sdrad.meets_target, "microsecond rewinds keep five nines");
    }

    #[test]
    fn fleet_lineup_prefers_the_rewind_histogram_p99() {
        // Tail-heavy rewinds: mean ~ 7 µs but p99 ~ 100 µs. The lineup
        // must consume the tail, not the mean.
        let mut w = worker(100, 0, 0);
        for _ in 0..95 {
            w.rewind_latency.record(2_000);
            w.contained_latency.record(2_500);
            w.rewind_ns += 2_000;
            w.contained_faults += 1;
            w.manager_rewinds += 1;
        }
        for _ in 0..5 {
            w.rewind_latency.record(100_000);
            w.contained_latency.record(100_500);
            w.rewind_ns += 100_000;
            w.contained_faults += 1;
            w.manager_rewinds += 1;
        }
        let attacked = stats(vec![w]);
        let hist_p99 = attacked.rewind_latency().p99();
        assert!(hist_p99 >= Duration::from_nanos(90_000));
        assert!(attacked.mean_rewind() < Duration::from_nanos(10_000));
        // The lineup still meets five nines — 100 µs is still five
        // orders below a restart — but consumed the honest number.
        let lineup = fleet_lineup_from_runs(
            &attacked,
            &stats(vec![worker(1000, 0, 0)]),
            &stats(vec![worker(1100, 0, 0)]),
            sdrad_energy::FleetScenario::telecom_ran(),
        );
        let sdrad = lineup.iter().find(|r| r.strategy == "1N-sdrad").unwrap();
        assert!(sdrad.meets_target);
    }
}

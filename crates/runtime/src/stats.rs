//! Aggregated runtime statistics: what a finished run counted and
//! measured, and the laws that say its books balance.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use sdrad_control::ControlReport;
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
/// and no cross-counter invariant (`ok + faults ≤ served`) is
/// guaranteed to hold on any single snapshot. The
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
    /// Time-to-shed histogram across all shards (how fast the fast-fail
    /// rejection path answers — the p99 a shed client experiences).
    pub shed_latency: LatencyHistogram,
    /// The adaptive control plane's closed books (admission decisions,
    /// escalation rungs) — `None` when the
    /// runtime ran with the static reflexes
    /// ([`RuntimeConfig::control`](crate::RuntimeConfig::control) unset).
    pub control: Option<ControlReport>,
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

    /// Always `0`: every request runs on its client's sticky shard.
    /// Kept only because `benchmark/src/main.rs` reads it as
    /// `runtime.steals_per_req`; ROADMAP B1 part 2 removes it with that
    /// read.
    #[must_use]
    pub fn steals(&self) -> u64 {
        0
    }

    /// Idle connections reaped across all workers.
    #[must_use]
    pub fn reaped(&self) -> u64 {
        self.workers.iter().map(|w| w.reaped).sum()
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

    /// The global invariant: per-worker protocol-level fault counts match
    /// the rewinds each worker's own `DomainManager` performed (and the
    /// per-disposition latency histograms carry exactly one sample per
    /// counted request), and the totals add up across the fleet.
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
            // Arena books balance: every acquire was satisfied either by
            // recycled storage or by a fresh heap allocation.
            && self.arena_acquires() == self.arena_reuses() + self.arena_fresh_allocs()
            // The control plane's books, when it ran: every decision it
            // counted was logged, and the rungs the plane decided are exactly the rungs the workers executed
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker(served: u64, faults: u64) -> WorkerStats {
        let mut stats = WorkerStats {
            served,
            ok: served - faults,
            contained_faults: faults,
            rewind_ns: faults * 2_000,
            manager_rewinds: faults,
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
            shed_latency: LatencyHistogram::new(),
            control: None,
            telemetry: None,
            wall: Duration::from_secs(2),
        }
    }

    #[test]
    fn totals_sum_over_workers() {
        let s = stats(vec![worker(100, 3), worker(50, 1)]);
        assert_eq!(s.served(), 150);
        assert_eq!(s.contained_faults(), 4);
        assert_eq!(s.mean_rewind(), Duration::from_nanos(2_000));
        assert!(s.reconciles());
        assert!((s.throughput_rps() - 75.0).abs() < 1e-9);
    }

    #[test]
    fn merged_latency_histograms_cover_every_request() {
        let s = stats(vec![worker(100, 3), worker(50, 1)]);
        assert_eq!(s.ok_latency().len(), 146);
        assert_eq!(s.contained_latency().len(), 4);
        assert_eq!(s.rewind_latency().len(), 4);
        // All samples equal here, so every percentile lands on the value.
        let p99 = s.ok_latency().quantile(0.99);
        assert!((4_900..=5_100).contains(&p99), "p99 was {p99}");
    }

    #[test]
    fn reconciliation_detects_drift() {
        let mut broken = worker(10, 2);
        broken.manager_rewinds = 1; // a lost rewind
        assert!(!stats(vec![broken]).reconciles());

        // A fault whose latency was never recorded is drift too.
        let mut unrecorded = worker(10, 2);
        unrecorded.contained_latency = LatencyHistogram::new();
        assert!(!stats(vec![unrecorded]).reconciles());
    }
}

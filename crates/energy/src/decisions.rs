//! Recovery pricing after the fact: what a run's recovery-escalation
//! ladder cost, computed at report time from what the serving path
//! counted.
//!
//! The paper's argument is that *which* recovery mechanism a fleet
//! reaches for dominates the resilience energy bill: an in-process
//! rewind costs microseconds, a process restart costs seconds plus a
//! state reload. The serving path does not price anything. It counts
//! the rungs it executed ([`RecoveryCounts`]) and sums the state bytes
//! the restart model is affine in (`fixed + bytes / rate`). [`price`]
//! turns those counts, through the calibrated [`RungModels`] and a
//! [`PowerModel`], into a [`RecoveryBill`]: (a) how much recovery
//! time and energy the run spent, (b) how much a restart-only policy
//! would have spent on the identical fault sequence (the delta the
//! ladder exists to bank), and (c) what the restarts cost each
//! worker's availability and delivered throughput. Recovery runs the
//! machine at peak draw: rebuilding state is not idle time.

use std::time::Duration;

use crate::power::PowerModel;
use crate::restart::RestartModel;

/// Calibrated cost models for the three rungs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RungModels {
    /// The rewind rung: a constant, whatever the state size.
    pub rewind: RestartModel,
    /// Per-domain teardown + re-create cost of a pool rebuild (the pool
    /// rung costs `domains ×` this, paid inline by the rebuilding
    /// worker).
    pub pool_domain_rebuild: Duration,
    /// The restart rung (and the cost a restart-only policy pays for
    /// *every* fault).
    pub restart: RestartModel,
}

impl RungModels {
    /// Paper-calibrated defaults: 3.5 µs rewinds, 20 µs per re-created
    /// domain (allocation + key assignment, the `e10` lifecycle scale),
    /// and the Memcached-calibrated process restart.
    #[must_use]
    pub fn calibrated() -> Self {
        RungModels {
            rewind: RestartModel::sdrad_rewind(),
            pool_domain_rebuild: Duration::from_micros(20),
            restart: RestartModel::process_restart(),
        }
    }

    /// `restarts` restarts that reloaded `state_bytes` between them:
    /// the restart model is affine in the bytes, so the sum prices the
    /// same as the restarts one by one.
    fn restarts(&self, restarts: u64, state_bytes: u64) -> Duration {
        if restarts == 0 {
            return Duration::ZERO;
        }
        let fixed = self.restart.recovery_time(0);
        times(fixed, restarts) + (self.restart.recovery_time(state_bytes) - fixed)
    }
}

impl Default for RungModels {
    fn default() -> Self {
        Self::calibrated()
    }
}

/// `count` back-to-back spans of `each`.
fn times(each: Duration, count: u64) -> Duration {
    let nanos = u64::try_from(each.as_nanos()).unwrap_or(u64::MAX);
    Duration::from_nanos(nanos.saturating_mul(count))
}

/// One worker's recovery events, as the serving path counted them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryCounts {
    /// Requests the worker completed, any disposition.
    pub served: u64,
    /// Ladder decisions that stopped at the rewind rung.
    pub rewinds: u64,
    /// Pool-rebuild rungs executed.
    pub pool_rebuilds: u64,
    /// Worker-restart rungs executed.
    pub worker_restarts: u64,
    /// Restarts forced by crashes of an unprotected worker.
    pub crashes: u64,
    /// State bytes held at each crash and restart rung, summed: what
    /// the restarts reloaded.
    pub restart_state_bytes: u64,
    /// State bytes held at each fault the ladder judged, summed: what a
    /// restart-only policy would have reloaded.
    pub judged_state_bytes: u64,
}

/// A run's recovery, priced: the value [`price`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecoveryBill {
    /// Modeled time spent in the rewind rung.
    pub rewind_time: Duration,
    /// Modeled time spent in the pool rung: every rebuild tears down
    /// and re-creates the pool's domains, `domains ×` the per-domain
    /// model.
    pub pool_rebuild_time: Duration,
    /// Modeled downtime of every restart the workers performed, crash
    /// restarts and restart rungs alike, summed over workers.
    pub restart_time: Duration,
    /// What a restart-only policy would have spent on the same faults:
    /// one full worker restart per ladder decision, any rung.
    pub restart_only_time: Duration,
    /// Recovery energy of the ladder policy, joules.
    pub ladder_energy_j: f64,
    /// Recovery energy of the restart-only counterfactual, joules.
    pub restart_only_energy_j: f64,
    /// Fraction of wall time the mean worker was serving: 1.0 without
    /// restarts, collapsing as restart downtime accumulates.
    pub availability: f64,
    /// Throughput with each worker's restart downtime charged: a worker
    /// that restarted owes its clients the restart window, during which
    /// it serves nothing. This is the number the paper's "restarts
    /// collapse throughput" claim is about.
    pub effective_throughput_rps: f64,
}

impl RecoveryBill {
    /// Total modeled recovery time of the ladder policy.
    #[must_use]
    pub fn ladder_time(&self) -> Duration {
        self.rewind_time + self.pool_rebuild_time + self.restart_time
    }

    /// Energy the ladder saved versus restart-only recovery, joules
    /// (positive whenever a fault stopped below the restart rung).
    #[must_use]
    pub fn energy_saved_j(&self) -> f64 {
        self.restart_only_energy_j - self.ladder_energy_j
    }
}

/// Prices a run: `workers` are the per-worker counts, `wall` the run's
/// wall clock, and every pool rebuild tears down `domains_per_worker`
/// domains (at least one).
#[must_use]
pub fn price(
    workers: &[RecoveryCounts],
    wall: Duration,
    domains_per_worker: u32,
    models: &RungModels,
    power: &PowerModel,
) -> RecoveryBill {
    let total = |field: fn(&RecoveryCounts) -> u64| workers.iter().map(field).sum::<u64>();
    let downtime: Vec<Duration> = workers
        .iter()
        .map(|w| models.restarts(w.worker_restarts + w.crashes, w.restart_state_bytes))
        .collect();
    let per_rebuild = times(
        models.pool_domain_rebuild,
        u64::from(domains_per_worker.max(1)),
    );
    let mut bill = RecoveryBill {
        rewind_time: times(models.rewind.recovery_time(0), total(|w| w.rewinds)),
        pool_rebuild_time: times(per_rebuild, total(|w| w.pool_rebuilds)),
        restart_time: downtime.iter().sum(),
        restart_only_time: models.restarts(
            total(|w| w.rewinds + w.pool_rebuilds + w.worker_restarts),
            total(|w| w.judged_state_bytes),
        ),
        availability: 1.0,
        ..RecoveryBill::default()
    };
    let watts = power.watts_at(1.0);
    bill.ladder_energy_j = watts * bill.ladder_time().as_secs_f64();
    bill.restart_only_energy_j = watts * bill.restart_only_time.as_secs_f64();
    if wall.is_zero() || workers.is_empty() {
        return bill;
    }
    let wall = wall.as_secs_f64();
    let mut available = 0.0;
    for (worker, down) in workers.iter().zip(&downtime) {
        let span = wall + down.as_secs_f64();
        available += wall / span;
        bill.effective_throughput_rps += worker.served as f64 / span;
    }
    bill.availability = available / workers.len() as f64;
    bill
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(counts: RecoveryCounts) -> RecoveryBill {
        price(
            &[counts],
            Duration::ZERO,
            8,
            &RungModels::calibrated(),
            &PowerModel::rack_server(),
        )
    }

    #[test]
    fn rung_times_are_ordered_cheapest_first() {
        let rung = |rewinds, pool_rebuilds, worker_restarts| {
            one(RecoveryCounts {
                rewinds,
                pool_rebuilds,
                worker_restarts,
                restart_state_bytes: worker_restarts << 30,
                ..RecoveryCounts::default()
            })
            .ladder_time()
        };
        let (rewind, pool, restart) = (rung(1, 0, 0), rung(0, 1, 0), rung(0, 0, 1));
        assert!(rewind < pool, "{rewind:?} !< {pool:?}");
        assert!(pool < restart, "{pool:?} !< {restart:?}");
    }

    #[test]
    fn counts_price_per_rung() {
        let bill = one(RecoveryCounts {
            rewinds: 10,
            pool_rebuilds: 1,
            worker_restarts: 1,
            restart_state_bytes: 1 << 20,
            judged_state_bytes: 12 << 20,
            ..RecoveryCounts::default()
        });
        assert_eq!(bill.rewind_time, Duration::from_nanos(3_500) * 10);
        assert_eq!(bill.pool_rebuild_time, Duration::from_micros(160));
        assert!(bill.restart_time >= Duration::from_secs(1));
        assert!(bill.restart_only_time >= Duration::from_secs(12));
    }

    #[test]
    fn ladder_beats_restart_only_whenever_a_cheap_rung_fires() {
        let bill = one(RecoveryCounts {
            rewinds: 100,
            worker_restarts: 1,
            restart_state_bytes: 10 << 20,
            judged_state_bytes: 101 * (10 << 20),
            ..RecoveryCounts::default()
        });
        assert!(bill.restart_only_time - bill.ladder_time() > Duration::from_secs(90));
        let saved = bill.energy_saved_j();
        assert!(saved > 0.0);
        let watts = PowerModel::rack_server().watts_at(1.0);
        let saved_time = (bill.restart_only_time - bill.ladder_time()).as_secs_f64();
        assert!((saved - watts * saved_time).abs() < 1e-6);
    }

    #[test]
    fn restart_only_policy_saves_nothing() {
        let bill = one(RecoveryCounts {
            worker_restarts: 5,
            restart_state_bytes: 5 << 20,
            judged_state_bytes: 5 << 20,
            ..RecoveryCounts::default()
        });
        assert_eq!(bill.ladder_time(), bill.restart_only_time);
        assert_eq!(bill.energy_saved_j(), 0.0);
    }

    #[test]
    fn restarts_collapse_availability_and_effective_throughput() {
        let healthy = RecoveryCounts {
            served: 1_000,
            ..RecoveryCounts::default()
        };
        let crashing = RecoveryCounts {
            crashes: 8,
            ..healthy
        };
        let run = |worker| {
            price(
                &[worker],
                Duration::from_secs(2),
                8,
                &RungModels::calibrated(),
                &PowerModel::rack_server(),
            )
        };
        let (healthy, crashing) = (run(healthy), run(crashing));
        assert!(healthy.effective_throughput_rps > crashing.effective_throughput_rps * 3.0);
        assert!(crashing.availability < 0.5);
        assert!((healthy.availability - 1.0).abs() < 1e-12);
        assert_eq!(crashing.restart_time, Duration::from_secs(8));
        assert_eq!(
            crashing.restart_only_time,
            Duration::ZERO,
            "a crash is not a ladder decision"
        );
    }
}

//! Per-decision billing for recovery actions: the bridge a control
//! plane uses to price every rung of a recovery-escalation ladder.
//!
//! The paper's argument is that *which* recovery mechanism a fleet
//! reaches for dominates the resilience energy bill: an in-process
//! rewind costs microseconds, a process restart costs seconds plus a
//! state reload. A control plane that chooses between them needs each
//! decision **billed** at the moment it is made, so that at the end of
//! a run the books can show (a) how much recovery time/energy the run
//! actually spent and (b) how much a restart-only policy would have
//! spent on the identical fault sequence — the delta the whole ladder
//! exists to bank.
//!
//! [`RungModels`] calibrates the three rungs, [`RecoveryBill`]
//! accumulates per-rung counts and time, and
//! [`RecoveryBill::energy_joules`] converts recovery time into energy
//! through a [`PowerModel`] (recovery runs the machine at peak draw:
//! rebuilding state is not idle time).

use std::time::Duration;

use crate::power::PowerModel;
use crate::restart::RestartModel;

/// One rung of the recovery-escalation ladder, cheapest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryRung {
    /// Rewind the faulting domain in-process (microseconds, constant in
    /// state size).
    Rewind,
    /// Discard and rebuild the worker's whole domain pool — every
    /// pooled domain is torn down and re-created, but application state
    /// outside the domains survives.
    PoolRebuild,
    /// Restart the worker outright: fixed startup cost plus the state
    /// reload, exactly the baseline's crash bill.
    WorkerRestart,
}

impl RecoveryRung {
    /// All rungs, escalation order.
    pub const ALL: [RecoveryRung; 3] = [
        RecoveryRung::Rewind,
        RecoveryRung::PoolRebuild,
        RecoveryRung::WorkerRestart,
    ];
}

/// Calibrated cost models for the three rungs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RungModels {
    /// The rewind rung (paper constant, or this machine's measurement
    /// via [`RestartModel::sdrad_rewind_measured`]).
    pub rewind: RestartModel,
    /// Per-domain teardown + re-create cost of a pool rebuild (the pool
    /// rung bills `domains ×` this as amortized reclamation).
    pub pool_domain_rebuild: Duration,
    /// Serving-visible pause of a pool rebuild: swap the pool pointer,
    /// push the old pool onto the retire list. Pointer-scale work,
    /// independent of how many domains the old pool held.
    pub pool_publish: Duration,
    /// The restart rung (and the cost a restart-only policy pays for
    /// *every* fault).
    pub restart: RestartModel,
}

impl RungModels {
    /// Paper-calibrated defaults: 3.5 µs rewinds, 20 µs per re-created
    /// domain (allocation + key assignment, the `e10` lifecycle scale),
    /// a 2 µs publish pause, and the Memcached-calibrated process
    /// restart.
    #[must_use]
    pub fn calibrated() -> Self {
        RungModels {
            rewind: RestartModel::sdrad_rewind(),
            pool_domain_rebuild: Duration::from_micros(20),
            pool_publish: Duration::from_micros(2),
            restart: RestartModel::process_restart(),
        }
    }

    /// Calibrated models with this machine's measured rewind latency
    /// substituted for the paper's constant.
    #[must_use]
    pub fn with_measured_rewind(measured: Duration) -> Self {
        RungModels {
            rewind: RestartModel::sdrad_rewind_measured(measured),
            ..Self::calibrated()
        }
    }

    /// The modeled recovery time of one decision at `rung`, for a
    /// worker holding `state_bytes` of reloadable state and `domains`
    /// pooled domains.
    #[must_use]
    pub fn time_of(&self, rung: RecoveryRung, state_bytes: u64, domains: u32) -> Duration {
        match rung {
            RecoveryRung::Rewind => self.rewind.recovery_time(0),
            RecoveryRung::PoolRebuild => self.pool_domain_rebuild * domains.max(1),
            RecoveryRung::WorkerRestart => self.restart.recovery_time(state_bytes),
        }
    }
}

impl Default for RungModels {
    fn default() -> Self {
        Self::calibrated()
    }
}

/// The accumulated bill of a run's recovery decisions: one count and
/// one time total per rung, appended to at the moment each decision is
/// made (so `billed == counted` is checkable after the run).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecoveryBill {
    /// Rewind decisions billed.
    pub rewinds: u64,
    /// Pool-rebuild decisions billed.
    pub pool_rebuilds: u64,
    /// Worker-restart decisions billed.
    pub worker_restarts: u64,
    /// Modeled time spent in the rewind rung.
    pub rewind_time: Duration,
    /// Modeled time spent in the restart rung.
    pub restart_time: Duration,
    /// Serving-visible pause of the pool rung: the pointer swap that
    /// publishes the fresh pool and retires the old one.
    pub publish_time: Duration,
    /// Amortized reclamation cost of the pool rung: the retired pool's
    /// domains torn down off the serving path, `domains ×` the
    /// per-domain model — deferral moves the joules, it does not
    /// delete them.
    pub reclaim_time: Duration,
    /// What a restart-only policy would have spent on the same faults:
    /// one full worker restart per billed decision, any rung.
    pub restart_only_time: Duration,
}

impl RecoveryBill {
    /// Bills one decision at `rung`, and in parallel bills the
    /// restart-only counterfactual for the same fault.
    pub fn bill(
        &mut self,
        models: &RungModels,
        rung: RecoveryRung,
        state_bytes: u64,
        domains: u32,
    ) {
        let time = models.time_of(rung, state_bytes, domains);
        match rung {
            RecoveryRung::Rewind => {
                self.rewinds += 1;
                self.rewind_time += time;
            }
            RecoveryRung::PoolRebuild => {
                // The publish-and-retire lifecycle splits the rung's
                // work: a pointer-swap pause now, the per-domain
                // teardown amortized behind it.
                self.pool_rebuilds += 1;
                self.publish_time += models.pool_publish;
                self.reclaim_time += time;
            }
            RecoveryRung::WorkerRestart => {
                self.worker_restarts += 1;
                self.restart_time += time;
            }
        }
        self.restart_only_time += models.time_of(RecoveryRung::WorkerRestart, state_bytes, domains);
    }

    /// Decisions billed across all rungs.
    #[must_use]
    pub fn decisions(&self) -> u64 {
        self.rewinds + self.pool_rebuilds + self.worker_restarts
    }

    /// Count billed at one rung.
    #[must_use]
    pub fn count_of(&self, rung: RecoveryRung) -> u64 {
        match rung {
            RecoveryRung::Rewind => self.rewinds,
            RecoveryRung::PoolRebuild => self.pool_rebuilds,
            RecoveryRung::WorkerRestart => self.worker_restarts,
        }
    }

    /// Total modeled recovery time of the ladder policy — pool
    /// rebuilds included in full (pause plus amortized reclamation).
    #[must_use]
    pub fn ladder_time(&self) -> Duration {
        self.rewind_time + self.restart_time + self.publish_time + self.reclaim_time
    }

    /// Modeled recovery time the ladder saved versus restart-only
    /// recovery (never negative: no rung costs more than a restart).
    #[must_use]
    pub fn time_saved(&self) -> Duration {
        self.restart_only_time.saturating_sub(self.ladder_time())
    }

    /// Recovery energy of the ladder policy in joules: recovery time at
    /// the model's peak draw (rebuilding state is not idle time).
    #[must_use]
    pub fn energy_joules(&self, power: &PowerModel) -> f64 {
        power.watts_at(1.0) * self.ladder_time().as_secs_f64()
    }

    /// Recovery energy of the restart-only counterfactual, joules.
    #[must_use]
    pub fn restart_only_energy_joules(&self, power: &PowerModel) -> f64 {
        power.watts_at(1.0) * self.restart_only_time.as_secs_f64()
    }

    /// Energy the ladder saved versus restart-only recovery, joules.
    #[must_use]
    pub fn energy_saved_joules(&self, power: &PowerModel) -> f64 {
        power.watts_at(1.0) * self.time_saved().as_secs_f64()
    }

    /// Registers the bill under `energy.*` in a telemetry registry:
    /// per-rung decision counts, modeled recovery nanoseconds, and the
    /// microjoule totals at `power`'s peak draw (integers, so the
    /// resulting snapshot serializes deterministically).
    pub fn register_metrics(
        &self,
        registry: &sdrad_telemetry::MetricsRegistry,
        power: &PowerModel,
    ) {
        registry.counter("energy.bill.rewinds").add(self.rewinds);
        registry
            .counter("energy.bill.pool_rebuilds")
            .add(self.pool_rebuilds);
        registry
            .counter("energy.bill.worker_restarts")
            .add(self.worker_restarts);
        let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        registry
            .counter("energy.recovery_ns.publish")
            .add(ns(self.publish_time));
        registry
            .counter("energy.recovery_ns.reclaim")
            .add(ns(self.reclaim_time));
        registry
            .counter("energy.recovery_ns.ladder")
            .add(ns(self.ladder_time()));
        registry
            .counter("energy.recovery_ns.restart_only")
            .add(ns(self.restart_only_time));
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let uj = |j: f64| (j.max(0.0) * 1e6) as u64;
        registry
            .counter("energy.recovery_uj.ladder")
            .add(uj(self.energy_joules(power)));
        registry
            .counter("energy.recovery_uj.saved")
            .add(uj(self.energy_saved_joules(power)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rung_times_are_ordered_cheapest_first() {
        let models = RungModels::calibrated();
        let rewind = models.time_of(RecoveryRung::Rewind, 1 << 30, 8);
        let pool = models.time_of(RecoveryRung::PoolRebuild, 1 << 30, 8);
        let restart = models.time_of(RecoveryRung::WorkerRestart, 1 << 30, 8);
        assert!(rewind < pool, "{rewind:?} !< {pool:?}");
        assert!(pool < restart, "{pool:?} !< {restart:?}");
    }

    #[test]
    fn billing_counts_and_times_accumulate_per_rung() {
        let models = RungModels::calibrated();
        let mut bill = RecoveryBill::default();
        for _ in 0..10 {
            bill.bill(&models, RecoveryRung::Rewind, 1 << 20, 8);
        }
        bill.bill(&models, RecoveryRung::PoolRebuild, 1 << 20, 8);
        bill.bill(&models, RecoveryRung::WorkerRestart, 1 << 20, 8);
        assert_eq!(bill.decisions(), 12);
        assert_eq!(bill.rewinds, 10);
        assert_eq!(bill.pool_rebuilds, 1);
        assert_eq!(bill.worker_restarts, 1);
        assert_eq!(bill.rewind_time, Duration::from_nanos(3_500) * 10);
        assert_eq!(bill.reclaim_time, Duration::from_micros(160));
        assert_eq!(
            bill.publish_time,
            Duration::from_micros(2),
            "the pause is the pointer swap, not the teardown"
        );
        assert!(bill.restart_time >= Duration::from_secs(1));
    }

    #[test]
    fn ladder_beats_restart_only_whenever_a_cheap_rung_fires() {
        let models = RungModels::calibrated();
        let mut bill = RecoveryBill::default();
        for _ in 0..100 {
            bill.bill(&models, RecoveryRung::Rewind, 10 << 20, 8);
        }
        bill.bill(&models, RecoveryRung::WorkerRestart, 10 << 20, 8);
        assert!(bill.time_saved() > Duration::from_secs(90));
        let power = PowerModel::rack_server();
        let saved = bill.energy_saved_joules(&power);
        assert!(saved > 0.0);
        assert!(
            (bill.restart_only_energy_joules(&power) - bill.energy_joules(&power) - saved).abs()
                < 1e-6
        );
    }

    #[test]
    fn restart_only_policy_saves_nothing() {
        let models = RungModels::calibrated();
        let mut bill = RecoveryBill::default();
        for _ in 0..5 {
            bill.bill(&models, RecoveryRung::WorkerRestart, 1 << 20, 4);
        }
        assert_eq!(bill.time_saved(), Duration::ZERO);
        assert_eq!(bill.ladder_time(), bill.restart_only_time);
    }

    #[test]
    fn split_pool_billing_preserves_counted_equals_billed() {
        let models = RungModels::calibrated();
        let mut bill = RecoveryBill::default();
        bill.bill(&models, RecoveryRung::Rewind, 1 << 20, 8);
        bill.bill(&models, RecoveryRung::PoolRebuild, 1 << 20, 8);
        bill.bill(&models, RecoveryRung::WorkerRestart, 1 << 20, 8);
        assert_eq!(bill.decisions(), 3);
        assert_eq!(bill.count_of(RecoveryRung::PoolRebuild), 1);
        assert!(bill.time_saved() > Duration::ZERO);
    }

    #[test]
    fn measured_rewind_substitutes() {
        let models = RungModels::with_measured_rewind(Duration::from_micros(7));
        assert_eq!(
            models.time_of(RecoveryRung::Rewind, 1 << 30, 8),
            Duration::from_micros(7)
        );
    }
}

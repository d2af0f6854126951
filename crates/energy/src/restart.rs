//! Recovery-time models, calibrated to the paper's measurements.

use std::fmt;
use std::time::Duration;

/// A recovery mechanism with a cost model of the form
/// `fixed + state_bytes / reload_throughput`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestartModel {
    /// Human-readable mechanism name.
    pub name: &'static str,
    /// Fixed startup cost (exec, init, listen, container runtime…).
    pub fixed: Duration,
    /// State reload throughput in bytes/second (∞ ⇒ stateless).
    pub reload_bytes_per_sec: f64,
}

impl RestartModel {
    /// Process restart, calibrated so a 10 GB dataset takes ≈ 2 minutes
    /// (the paper's Memcached measurement): 1 s fixed + ~86 MB/s reload —
    /// the reload rate of a warm-cache repopulation from a backing store.
    #[must_use]
    pub fn process_restart() -> Self {
        RestartModel {
            name: "process-restart",
            fixed: Duration::from_secs(1),
            reload_bytes_per_sec: 10.0e9 / 119.0,
        }
    }

    /// Container restart: the same reload plus container-runtime overhead
    /// (image mount, namespace setup, health checks) — ~3 s fixed, per
    /// commonly reported cold-start measurements.
    #[must_use]
    pub fn container_restart() -> Self {
        RestartModel {
            name: "container-restart",
            fixed: Duration::from_secs(3),
            reload_bytes_per_sec: 10.0e9 / 119.0,
        }
    }

    /// SDRaD in-process rewind: a constant — the domain heap is discarded,
    /// not reloaded; surviving state lives in the untouched root domain.
    /// The constant is the paper's measured 3.5 µs; the fleet models
    /// take this build's own measurement through their scenario's
    /// `rewind` field instead.
    #[must_use]
    pub fn sdrad_rewind() -> Self {
        RestartModel {
            name: "sdrad-rewind",
            fixed: Duration::from_nanos(3_500),
            reload_bytes_per_sec: f64::INFINITY,
        }
    }

    /// Recovery time for a service holding `state_bytes` of reloadable
    /// state.
    #[must_use]
    pub fn recovery_time(&self, state_bytes: u64) -> Duration {
        if self.reload_bytes_per_sec.is_infinite() {
            return self.fixed;
        }
        let reload = state_bytes as f64 / self.reload_bytes_per_sec;
        self.fixed + Duration::from_secs_f64(reload)
    }
}

impl fmt::Display for RestartModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

/// The three recovery mechanisms the experiments compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryMechanism {
    /// Kill + restart the OS process, reload state.
    ProcessRestart,
    /// Restart the container, reload state.
    ContainerRestart,
    /// SDRaD rewind and discard.
    SdradRewind,
}

impl RecoveryMechanism {
    /// All mechanisms, comparison order.
    pub const ALL: [RecoveryMechanism; 3] = [
        RecoveryMechanism::ProcessRestart,
        RecoveryMechanism::ContainerRestart,
        RecoveryMechanism::SdradRewind,
    ];

    /// The calibrated model for this mechanism.
    #[must_use]
    pub fn model(self) -> RestartModel {
        match self {
            RecoveryMechanism::ProcessRestart => RestartModel::process_restart(),
            RecoveryMechanism::ContainerRestart => RestartModel::container_restart(),
            RecoveryMechanism::SdradRewind => RestartModel::sdrad_rewind(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Calibration check: 10 GB ≈ 2 minutes, the paper's measurement.
    #[test]
    fn ten_gb_process_restart_is_about_two_minutes() {
        let t = RestartModel::process_restart().recovery_time(10_000_000_000);
        let seconds = t.as_secs_f64();
        assert!(
            (115.0..=125.0).contains(&seconds),
            "10 GB restart = {seconds} s"
        );
    }

    #[test]
    fn rewind_is_constant_in_state_size() {
        let model = RestartModel::sdrad_rewind();
        assert_eq!(model.recovery_time(0), model.recovery_time(10_000_000_000));
        assert_eq!(model.recovery_time(0), Duration::from_nanos(3_500));
    }

    #[test]
    fn restart_scales_linearly_with_state() {
        let model = RestartModel::process_restart();
        let t1 = model.recovery_time(1_000_000_000).as_secs_f64();
        let t10 = model.recovery_time(10_000_000_000).as_secs_f64();
        // Subtract the fixed cost; the reload term must scale 10x.
        let fixed = model.fixed.as_secs_f64();
        assert!(((t10 - fixed) / (t1 - fixed) - 10.0).abs() < 0.01);
    }

    #[test]
    fn container_is_slower_than_process() {
        for bytes in [0u64, 1 << 30, 10 << 30] {
            assert!(
                RestartModel::container_restart().recovery_time(bytes)
                    > RestartModel::process_restart().recovery_time(bytes)
            );
        }
    }

    #[test]
    fn rewind_beats_restart_by_orders_of_magnitude() {
        let restart = RestartModel::process_restart()
            .recovery_time(10_000_000_000)
            .as_secs_f64();
        let rewind = RestartModel::sdrad_rewind()
            .recovery_time(10_000_000_000)
            .as_secs_f64();
        assert!(restart / rewind > 1.0e7, "ratio = {:.1e}", restart / rewind);
    }

    #[test]
    fn mechanisms_resolve_to_models() {
        for mechanism in RecoveryMechanism::ALL {
            let _ = mechanism.model();
        }
        assert_eq!(RecoveryMechanism::SdradRewind.model().name, "sdrad-rewind");
    }
}

//! Multi-year life-cycle assessment sweeps.
//!
//! §IV closes by calling for "further life-cycle assessment approaches
//! with a focus on environmental sustainability through energy
//! efficiency … which would also consider rebound effects". This module
//! implements that sketched methodology: cumulative operational + embodied
//! carbon over a deployment's lifetime, with hardware refresh cycles, a
//! resilience-driven lifetime-extension factor (resilient software keeps
//! old hardware useful longer), and an explicit rebound-effect parameter
//! (efficiency gains partially re-spent on more load, per Gossart \[4\]).

use crate::redundancy::{evaluate, Scenario, Strategy};

/// Parameters of a life-cycle sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LcaScenario {
    /// Deployment horizon in years.
    pub years: u32,
    /// Hardware refresh interval in years (each refresh re-pays embodied
    /// carbon for every server of the strategy).
    pub refresh_years: f64,
    /// Extra service years squeezed out of hardware thanks to resilience
    /// (0.0 = none; 0.25 = refreshes stretched by 25 %). Applied to the
    /// SDRaD strategy only — the paper's "increase software longevity"
    /// argument.
    pub lifetime_extension: f64,
    /// Fraction of the energy saving re-spent as additional load
    /// (rebound effect, 0.0–1.0).
    pub rebound: f64,
    /// The per-year workload scenario.
    pub workload: Scenario,
}

impl Default for LcaScenario {
    fn default() -> Self {
        LcaScenario {
            years: 8,
            refresh_years: 4.0,
            lifetime_extension: 0.25,
            rebound: 0.2,
            workload: Scenario::default(),
        }
    }
}

/// Cumulative footprint of one strategy over the horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct LcaReport {
    /// Strategy name.
    pub strategy: String,
    /// Total energy over the horizon, kWh.
    pub total_kwh: f64,
    /// Operational carbon over the horizon, kgCO₂e.
    pub operational_kgco2: f64,
    /// Embodied carbon over the horizon (manufacturing across refreshes),
    /// kgCO₂e.
    pub embodied_kgco2: f64,
}

impl LcaReport {
    /// Total footprint, kgCO₂e.
    #[must_use]
    pub fn total_kgco2(&self) -> f64 {
        self.operational_kgco2 + self.embodied_kgco2
    }
}

/// Runs the life-cycle assessment for one strategy.
#[must_use]
pub fn assess(strategy: Strategy, lca: &LcaScenario) -> LcaReport {
    let yearly = evaluate(strategy, &lca.workload);
    let carbon = lca.workload.carbon;

    let is_sdrad = matches!(strategy, Strategy::SdradSingle);
    // Rebound: part of the energy saved (vs. the 2N reference) is re-spent.
    let reference = evaluate(Strategy::ActivePassive, &lca.workload);
    let saving = (reference.annual_kwh - yearly.annual_kwh).max(0.0);
    let annual_kwh = yearly.annual_kwh + if is_sdrad { saving * lca.rebound } else { 0.0 };

    let total_kwh = annual_kwh * f64::from(lca.years);
    let operational = carbon.operational_kgco2(total_kwh);

    // Embodied: one full set of servers per refresh interval; resilience
    // stretches the interval for SDRaD.
    let effective_refresh = if is_sdrad {
        lca.refresh_years * (1.0 + lca.lifetime_extension)
    } else {
        lca.refresh_years
    };
    let refreshes = (f64::from(lca.years) / effective_refresh).max(1.0);
    let embodied = yearly.servers * carbon.embodied_kgco2_per_server * refreshes;

    LcaReport {
        strategy: strategy.name(),
        total_kwh,
        operational_kgco2: operational,
        embodied_kgco2: embodied,
    }
}

/// Assesses the standard strategy line-up.
#[must_use]
pub fn assess_lineup(lca: &LcaScenario) -> Vec<LcaReport> {
    [
        Strategy::SingleRestart,
        Strategy::ActivePassive,
        Strategy::NPlusOne { n: 2 },
        Strategy::SdradSingle,
    ]
    .into_iter()
    .map(|s| assess(s, lca))
    .collect()
}

/// Helper used by tests and harnesses: how the default carbon model
/// splits a report.
#[must_use]
pub fn embodied_share(report: &LcaReport) -> f64 {
    report.embodied_kgco2 / report.total_kgco2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sdrad_beats_redundancy_over_the_lifecycle() {
        let lca = LcaScenario::default();
        let reports = assess_lineup(&lca);
        let sdrad = reports.iter().find(|r| r.strategy == "1N-sdrad").unwrap();
        let dual = reports
            .iter()
            .find(|r| r.strategy == "2N-active-passive")
            .unwrap();
        assert!(sdrad.total_kgco2() < dual.total_kgco2());
        assert!(
            sdrad.embodied_kgco2 < dual.embodied_kgco2 / 1.9,
            "half the servers, stretched refresh"
        );
    }

    #[test]
    fn rebound_erodes_but_does_not_erase_the_saving() {
        let no_rebound = LcaScenario {
            rebound: 0.0,
            ..LcaScenario::default()
        };
        let full_rebound = LcaScenario {
            rebound: 1.0,
            ..LcaScenario::default()
        };
        let sdrad_clean = assess(Strategy::SdradSingle, &no_rebound);
        let sdrad_rebound = assess(Strategy::SdradSingle, &full_rebound);
        let dual = assess(Strategy::ActivePassive, &full_rebound);
        assert!(sdrad_rebound.total_kwh > sdrad_clean.total_kwh);
        // Even with 100% energy rebound, the embodied saving remains.
        assert!(sdrad_rebound.total_kgco2() < dual.total_kgco2());
    }

    #[test]
    fn lifetime_extension_reduces_embodied_carbon() {
        let base = LcaScenario {
            lifetime_extension: 0.0,
            ..LcaScenario::default()
        };
        let extended = LcaScenario {
            lifetime_extension: 0.5,
            ..LcaScenario::default()
        };
        let a = assess(Strategy::SdradSingle, &base);
        let b = assess(Strategy::SdradSingle, &extended);
        assert!(b.embodied_kgco2 < a.embodied_kgco2);
        assert_eq!(b.total_kwh, a.total_kwh, "extension affects embodied only");
    }

    #[test]
    fn horizon_scales_operational_linearly() {
        let short = LcaScenario {
            years: 4,
            ..LcaScenario::default()
        };
        let long = LcaScenario {
            years: 8,
            ..LcaScenario::default()
        };
        let a = assess(Strategy::SingleRestart, &short);
        let b = assess(Strategy::SingleRestart, &long);
        assert!((b.total_kwh / a.total_kwh - 2.0).abs() < 1e-9);
        assert!((b.operational_kgco2 / a.operational_kgco2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn embodied_share_is_meaningful_for_all_strategies() {
        for report in assess_lineup(&LcaScenario::default()) {
            let share = embodied_share(&report);
            assert!((0.05..0.9).contains(&share), "{}: {share}", report.strategy);
        }
    }
}

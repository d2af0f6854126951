//! E10 — life-cycle assessment, the follow-up the paper proposes (§IV):
//! cumulative operational + embodied carbon over a multi-year horizon
//! with hardware refresh cycles, a resilience-driven lifetime extension
//! and a rebound sweep. Closed forms at the paper's constants: the
//! saving vs 2N is `exact`, and asserted to survive full rebound.

use sdrad_energy::lca::{assess, assess_lineup, embodied_share, LcaScenario};
use sdrad_energy::redundancy::Strategy;

use crate::Report;

/// Assesses the line-up; `_size` is unused (the model has one size).
#[must_use]
pub fn run(_size: usize) -> Report {
    let lca = LcaScenario::default();
    let mut r = Report::new("e10", "life-cycle assessment");
    r.note(format!(
        "horizon {} yrs, refresh every {} yrs, sdrad lifetime extension {:.0}%, rebound {:.0}%",
        lca.years,
        lca.refresh_years,
        lca.lifetime_extension * 100.0,
        lca.rebound * 100.0
    ));
    r.begin_table(
        "cumulative footprint by strategy",
        &[
            "strategy",
            "kWh total",
            "operational kgCO2e",
            "embodied kgCO2e",
            "total kgCO2e",
            "embodied share",
        ],
    );
    for report in assess_lineup(&lca) {
        r.row(&[
            report.strategy.clone(),
            format!("{:.0}", report.total_kwh),
            format!("{:.0}", report.operational_kgco2),
            format!("{:.0}", report.embodied_kgco2),
            format!("{:.0}", report.total_kgco2()),
            format!("{:.0}%", embodied_share(&report) * 100.0),
        ]);
    }

    // Rebound sweep: how much of the saving survives re-spending?
    r.begin_table(
        "rebound-effect sweep (SDRaD total kgCO2e vs 2N)",
        &["rebound", "sdrad kgCO2e", "2N kgCO2e", "saving"],
    );
    for rebound in [0.0, 0.2, 0.5, 0.8, 1.0] {
        let scenario = LcaScenario { rebound, ..lca };
        let sdrad = assess(Strategy::SdradSingle, &scenario).total_kgco2();
        let dual = assess(Strategy::ActivePassive, &scenario).total_kgco2();
        let saving = (1.0 - sdrad / dual) * 100.0;
        assert!(saving > 0.0, "the 2N saving must survive rebound");
        r.row(&[
            format!("{:.0}%", rebound * 100.0),
            format!("{sdrad:.0}"),
            format!("{dual:.0}"),
            format!("{saving:.0}%"),
        ]);
        if rebound == lca.rebound {
            r.exact("saving_kg", (dual - sdrad).round(), "kgCO2e")
                .exact("saving_pct", saving.round(), "pct");
            r.note(format!(
                "over the horizon, SDRaD saves {:.0} kgCO2e vs 2N ({saving:.0}% of the 2N \
                 footprint)",
                dual - sdrad
            ));
        }
    }
    r.note(
        "rebound erodes the operational saving but the embodied saving (half the servers, \
         stretched refresh) survives even full rebound — the paper's embodied-carbon argument \
         quantified",
    );
    r
}

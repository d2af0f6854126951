//! E14 — the comprehensive case study §IV proposes as future work, in
//! both domains it names (telecom, smart grid), fleet-wide and in three
//! dimensions: environmental (kWh, CO₂e), economic (energy bill +
//! amortized hardware + engineering, as annual TCO) and social
//! (service-minutes lost per user per year). Closed forms at the
//! paper's constants: SDRaD must meet each fleet's target more cheaply
//! than every redundant strategy that does; the saving is `exact`.

use sdrad_energy::{fleet_lineup, FleetScenario};

use crate::Report;

/// Assesses both fleets; `_size` is unused (the fleets have one size).
#[must_use]
pub fn run(_size: usize) -> Report {
    let mut r = Report::new("e14", "telecom & smart-grid fleet case study");
    for (key, fleet) in [
        ("telecom", FleetScenario::telecom_ran()),
        ("grid", FleetScenario::smart_grid()),
    ] {
        r.begin_table(
            format!(
                "{} — target {:.3}% availability, {} users/site",
                fleet.name,
                fleet.target_availability * 100.0,
                fleet.users_per_site
            ),
            &[
                "strategy",
                "servers",
                "target",
                "MWh/yr",
                "tCO2e/yr",
                "TCO kEUR/yr",
                "lost min/user/yr",
            ],
        );
        let lineup = fleet_lineup(&fleet);
        for report in &lineup {
            r.row(&[
                report.strategy.clone(),
                format!("{:.0}", report.servers),
                if report.meets_target { "met" } else { "MISSED" }.into(),
                format!("{:.0}", report.annual_kwh / 1e3),
                format!("{:.0}", report.annual_kgco2 / 1e3),
                format!("{:.0}", report.annual_tco_eur() / 1e3),
                format!("{:.3}", report.lost_minutes_per_user),
            ]);
        }

        let sdrad = lineup
            .iter()
            .find(|f| f.strategy == "1N-sdrad")
            .expect("in lineup");
        assert!(sdrad.meets_target, "SDRaD must meet {}", fleet.name);
        let (mut cheapest, mut fewer) = (f64::INFINITY, f64::INFINITY);
        for f in &lineup {
            if f.meets_target && f.servers > sdrad.servers {
                cheapest = cheapest.min(f.annual_tco_eur());
                fewer = fewer.min(f.servers - sdrad.servers);
            }
        }
        let saving = (1.0 - sdrad.annual_tco_eur() / cheapest) * 100.0;
        assert!(saving > 0.0, "SDRaD must undercut redundancy");
        r.exact(&format!("{key}_tco_saving_pct"), saving.round(), "pct")
            .exact(&format!("{key}_servers_saved"), fewer, "count");
        r.note(format!(
            "{}: SDRaD meets the target at {:.0} kEUR/yr TCO vs {:.0} kEUR/yr for the cheapest \
             redundant strategy that also meets it ({saving:.0}% saving), with {fewer:.0} fewer \
             servers.",
            fleet.name,
            sdrad.annual_tco_eur() / 1e3,
            cheapest / 1e3,
        ));
    }
    r.note(
        "social dimension: the restart fleet loses minutes of service per user per year; SDRaD \
         loses milliseconds — for emergency-call (telecom) or feeder-control (grid) traffic, \
         that difference is the dimension availability percentages hide.",
    );
    r
}

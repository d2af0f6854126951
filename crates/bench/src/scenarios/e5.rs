//! E5 — the sustainability figure: energy and carbon of availability
//! strategies.
//!
//! The paper (§IV) argues that replication for availability
//! over-provisions hardware, while SDRaD recovers fast on one server at
//! a few percent overhead. The line-up runs at this build's measured
//! rewind, which moves only the SDRaD row's availability: the energy
//! columns and the restart strategy's nines are closed forms at the
//! paper's constants, so `exact`.

use sdrad_energy::availability::nines;
use sdrad_energy::redundancy::Strategy::{ActivePassive, SdradSingle, SingleRestart};
use sdrad_energy::redundancy::{evaluate, evaluate_lineup, Scenario};
use sdrad_energy::DeploymentReport;

use super::hundredths;
use crate::{fmt_duration, measured_rewind_latency, Report};

/// Evaluates the line-up, the rewind measured over `size` contained
/// faults.
#[must_use]
pub fn run(size: usize) -> Report {
    let scenario = Scenario {
        rewind: measured_rewind_latency(size as u32),
        ..Scenario::default()
    };
    let lineup: [DeploymentReport; 4] = evaluate_lineup(&scenario).try_into().expect("four");
    let [restart, pair, cluster, sdrad] = &lineup;
    assert!(restart.nines() < 5.0, "1N-restart must miss five nines");

    let mut r = Report::new("e5", "energy & carbon per availability strategy");
    r.begin_table(
        format!(
            "strategy line-up (figure data): {} faults/yr, 50% utilization, 10 GB state, 3% \
             sdrad overhead, measured rewind {}",
            scenario.faults_per_year,
            fmt_duration(scenario.rewind)
        ),
        &[
            "strategy",
            "servers",
            "availability",
            "nines",
            "kWh/yr",
            "kgCO2e/yr",
            "recovery",
        ],
    );
    for d in &lineup {
        r.row(&[
            d.strategy.clone(),
            format!("{:.0}", d.servers),
            format!("{:.6}%", d.availability * 100.0),
            format!("{:.1}", d.nines().min(12.0)),
            format!("{:.0}", d.annual_kwh),
            format!("{:.0}", d.annual_kgco2),
            fmt_duration(d.recovery),
        ]);
    }
    for d in [pair, cluster].into_iter().filter(|d| d.nines() >= 5.0) {
        let ratio = d.annual_kwh / sdrad.annual_kwh;
        r.note(format!(
            "{} reaches five nines at {ratio:.1}x the energy of 1N-sdrad",
            d.strategy
        ));
    }

    // Sweep fault rate: where does each strategy lose five nines?
    r.begin_table(
        "nines vs fault rate (crossover series)",
        &["faults/yr", "1N-restart", "2N-active-passive", "1N-sdrad"],
    );
    let strategies = [SingleRestart, ActivePassive, SdradSingle];
    for faults_per_year in [1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0] {
        let s = Scenario {
            faults_per_year,
            ..scenario
        };
        let [single, dual, sdrad] = strategies.map(|st| nines(evaluate(st, &s).availability));
        assert!(sdrad >= 5.0, "SDRaD must hold five nines");
        r.row(&[
            format!("{faults_per_year:.0}"),
            format!("{single:.2}"),
            format!("{dual:.2}"),
            format!("{:.2}", sdrad.min(12.0)),
        ]);
    }
    let energy_ratio = |d: &DeploymentReport| hundredths(d.annual_kwh / sdrad.annual_kwh);
    r.exact("restart_nines", hundredths(restart.nines()), "nines")
        .exact("sdrad_kwh", sdrad.annual_kwh.round(), "kWh")
        .exact("active_passive_energy_ratio", energy_ratio(pair), "ratio")
        .exact("cluster_energy_ratio", energy_ratio(cluster), "ratio");
    r.note(
        "the restart strategy drops below five nines almost immediately; the 2N pair holds \
         until fault rates reach tens/year (each failover costs seconds); SDRaD holds across \
         the sweep on a single server — the energy saving is the 2N row minus the sdrad row",
    );
    r
}

//! E13 — empirical cluster energy, carbon, and the diversification
//! ablation.
//!
//! Part 1 re-derives the E5 line-up *empirically*: each strategy runs a
//! simulated year and the per-node power draw is integrated. Part 2 is
//! what E5 cannot do: **correlated exploit campaigns**, which take down
//! every replica running the same binary at once, so redundancy helps
//! only if the replicas are *diversified* (§IV's over-provisioning
//! trade-off) — while SDRaD's single instance rewinds through every
//! campaign. The simulation is seeded, so every row is `exact`.

use sdrad_cluster::{ClusterConfig, ClusterSim, RunMetrics};
use sdrad_energy::{nines, Strategy};

use super::hundredths;
use crate::Report;

/// Simulates one year of each deployment; `_size` is unused (the
/// simulation is one seeded year).
#[must_use]
pub fn run(_size: usize) -> Report {
    let mut r = Report::new("e13", "empirical cluster energy + diversification");
    r.begin_table(
        "one simulated year, 3 faults/node-year, 10 GB state (empirical)",
        &[
            "strategy",
            "servers",
            "nines",
            "kWh/yr",
            "kgCO2e/yr",
            "vs 1N-sdrad",
        ],
    );
    let sdrad_ref = ClusterSim::new(ClusterConfig::paper_baseline(Strategy::SdradSingle)).run();
    let mut premiums = Vec::new();
    for strategy in [
        Strategy::SingleRestart,
        Strategy::ActivePassive,
        Strategy::NPlusOne { n: 3 },
        Strategy::SdradSingle,
    ] {
        let metrics = ClusterSim::new(ClusterConfig::paper_baseline(strategy)).run();
        let premium = (metrics.kgco2 / sdrad_ref.kgco2 - 1.0) * 100.0;
        if metrics.servers > 1 {
            premiums.push(premium);
        }
        r.row(&[
            strategy.name(),
            metrics.servers.to_string(),
            format!("{:.2}", metrics.nines()),
            format!("{:.0}", metrics.kwh),
            format!("{:.0}", metrics.kgco2),
            format!("{premium:+.0}%"),
        ]);
    }
    let least = premiums.iter().copied().fold(f64::INFINITY, f64::min);
    let most = premiums.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    r.note(format!(
        "the only strategies reaching five nines are the redundant ones and SDRaD; SDRaD does \
         it on 1 server — the redundant ones pay {least:.0}-{most:.0}% more carbon."
    ));

    r.begin_table(
        "6 exploit campaigns/year, no independent faults (empirical)",
        &[
            "deployment",
            "variants",
            "servers",
            "nines",
            "downtime s/yr",
            "kgCO2e/yr",
        ],
    );
    let mut cell = |label: &str, strategy: Strategy, variants: u32| -> RunMetrics {
        let mut config = ClusterConfig::paper_baseline(strategy);
        config.faults_per_year = 0.0;
        config.attacks_per_year = 6.0;
        config.variants = variants;
        let metrics = ClusterSim::new(config).run();
        r.row(&[
            label.into(),
            variants.to_string(),
            metrics.servers.to_string(),
            format!("{:.2}", metrics.nines()),
            format!("{:.1}", metrics.downtime_seconds),
            format!("{:.0}", metrics.kgco2),
        ]);
        metrics
    };
    let [mono, diverse, single, sdrad] = [
        cell("2N monoculture", Strategy::ActivePassive, 1),
        cell("2N diversified", Strategy::ActivePassive, 2),
        cell("1N restart", Strategy::SingleRestart, 1),
        cell("1N SDRaD", Strategy::SdradSingle, 1),
    ]
    .map(|metrics| nines(metrics.availability()));
    assert!(mono < 5.0 && single < 5.0, "exploits sink a monoculture");
    assert!(diverse > mono && sdrad > diverse, "diversity must help");
    r.exact("sdrad_nines", hundredths(sdrad_ref.nines()), "nines")
        .exact("redundant_premium_min_pct", least.round(), "pct")
        .exact("redundant_premium_max_pct", most.round(), "pct")
        .exact("campaign_mono_nines", hundredths(mono), "nines")
        .exact("campaign_diverse_nines", hundredths(diverse), "nines")
        .exact("campaign_sdrad_nines", hundredths(sdrad), "nines");
    r.note(format!(
        "monoculture redundancy buys almost nothing against exploits: {mono:.2} vs {single:.2} \
         nines for a bare single (every campaign kills both replicas at once)."
    ))
    .note(format!(
        "diversification restores {diverse:.2} nines but doubles hardware AND engineering (two \
         variants to build, test, patch)."
    ))
    .note(format!(
        "SDRaD reaches {sdrad:.2} nines on one server, one variant: the \"without replication \
         or diversification\" claim, simulated."
    ));
    r
}

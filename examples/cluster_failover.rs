//! Watch a year in the life of four deployments: the availability and
//! carbon consequences of buying resilience with redundancy versus with
//! in-process rewind.
//!
//! This drives the `sdrad-cluster` discrete-event simulator — the
//! empirical half of the paper's §IV sustainability argument — over the
//! paper's scenario (3 memory faults per year, 10 GB of service state)
//! and an exploit-campaign scenario redundancy cannot absorb.
//!
//! Run with: `cargo run --release --example cluster_failover`

use sdrad_repro::cluster::{run_trials, ClusterConfig, ClusterSim};
use sdrad_repro::energy::Strategy;

fn main() {
    println!("== a simulated year under 3 memory faults/year, 10 GB state ==\n");
    for strategy in [
        Strategy::SingleRestart,
        Strategy::ActivePassive,
        Strategy::NPlusOne { n: 3 },
        Strategy::SdradSingle,
    ] {
        let metrics = ClusterSim::new(ClusterConfig::paper_baseline(strategy)).run();
        println!(
            "{:<18} servers={} faults={:<3} failovers={:<2} downtime={:>9.3}s  nines={:>5.2}  {:.0} kWh  {:.0} kgCO2e",
            strategy.name(),
            metrics.servers,
            metrics.faults,
            metrics.failovers,
            metrics.downtime_seconds,
            metrics.nines(),
            metrics.kwh,
            metrics.kgco2,
        );
    }

    println!("\n== the same, averaged over 32 Monte Carlo trials ==\n");
    for strategy in [Strategy::SingleRestart, Strategy::SdradSingle] {
        let summary = run_trials(&ClusterConfig::paper_baseline(strategy), 32);
        println!(
            "{:<18} availability {:.7} +/- {:.7} (analytic {:.7})",
            strategy.name(),
            summary.availability.mean,
            summary.availability.ci95,
            summary.analytic_availability,
        );
    }

    println!("\n== exploit campaigns: why monocultural redundancy under-delivers ==\n");
    for (label, strategy, variants) in [
        ("2N monoculture", Strategy::ActivePassive, 1u32),
        ("2N diversified", Strategy::ActivePassive, 2),
        ("1N SDRaD", Strategy::SdradSingle, 1),
    ] {
        let mut config = ClusterConfig::paper_baseline(strategy);
        config.faults_per_year = 0.0;
        config.attacks_per_year = 6.0;
        config.variants = variants;
        let metrics = ClusterSim::new(config).run();
        println!(
            "{label:<16} variants={variants} downtime={:>8.1}s nines={:>5.2} campaigns={}",
            metrics.downtime_seconds,
            metrics.nines(),
            metrics.campaigns,
        );
    }

    println!(
        "\na correlated exploit takes down every replica running the same binary;\n\
         diversification fixes that at twice the engineering, SDRaD at 2-4% runtime overhead.\n\
         see `cargo run --release -p sdrad-bench --bin bench_report -- e13` for the full ablation."
    );
}

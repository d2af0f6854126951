//! E15 — concurrent throughput under attack: the sharded runtime.
//!
//! Paper claim (§II/§IV): a service that answers memory-safety faults
//! with process restarts loses *minutes* of service per fault — under a
//! steady attack rate its delivered throughput collapses — while SDRaD
//! rewinds the attacked client's domain in microseconds and keeps
//! serving everyone. The single-shot experiments (E1–E14) measure the
//! primitive costs; this experiment puts the workloads under genuinely
//! concurrent load: `sdrad-runtime` workers (each owning its own
//! `DomainManager`) drain sharded bounded queues while a fraction of the
//! traffic is malicious `xstat` exploits.
//!
//! The sweep: worker counts × attack rates, baseline (unprotected,
//! restart per crash) vs isolated (per-client domains). Delivered
//! throughput charges each worker its modeled restart downtime — the
//! calibrated "10 GB ≈ 2 minutes" cost scaled to the shard's actual
//! state, exactly what a crashed shard's clients experience.
//!
//! The final table feeds the *measured* rewind latency and isolation
//! overhead into `sdrad-energy`'s fleet models for the telecom case
//! study — the bridge from this machine's microbenchmarks to the
//! paper's sustainability argument.
//!
//! Hard assertions: every cell's books reconcile, every isolated cell
//! finishes with zero crashes and contains exactly the attacks it was
//! sent. The three `info` ratios compare the 4-worker isolated cell
//! under 1 % attack with the 4-worker attack-free baseline; they are
//! reported, never gated (the denominator is a sub-microsecond baseline
//! p50 — on an oversubscribed host the cost ratio has been observed
//! anywhere from ~1.3x to ~13x across identical builds).

use sdrad::ClientId;
use sdrad_energy::FleetScenario;
use sdrad_runtime::{
    fleet_lineup_from_runs, IsolationMode, KvHandler, Runtime, RuntimeConfig, RuntimeStats,
};

use crate::cells::{benign, KV_ATTACK};
use crate::Report;

/// Drives one configuration to completion; returns its books and the
/// number of exploits sent.
fn run_cell(
    requests: usize,
    workers: usize,
    attack_per_10k: usize,
    mode: IsolationMode,
) -> (RuntimeStats, u64) {
    let clients = (workers as u64 * 8).max(16);
    let runtime = Runtime::start(RuntimeConfig::new(workers, mode), |_worker| {
        KvHandler::default()
    });

    // One dedicated attacker per shard: under a real attack no worker is
    // conveniently spared, so the fleet-level throughput numbers are not
    // propped up by lucky unattacked shards.
    let attackers: Vec<ClientId> = (0..runtime.workers())
        .map(|shard| {
            (1_000_000u64..)
                .map(ClientId)
                .find(|c| runtime.shard_of(*c) == shard)
                .expect("some id maps to every shard")
        })
        .collect();

    // Interleaved deterministic attack schedule: one exploit every
    // `period` requests gives exactly `attack_per_10k`/10 000 of the
    // traffic regardless of the cell's request count, spread evenly (a
    // steady rate, not a front-loaded burst).
    let attack_period = 10_000usize.checked_div(attack_per_10k).unwrap_or(0);
    let mut attacks_sent = 0u64;
    for i in 0..requests {
        let (client, payload) = if attack_period > 0 && i % attack_period == 0 {
            // Rotate by attack count, not by `i` (which is always a
            // period multiple and would pin one attacker/shard).
            attacks_sent += 1;
            (
                attackers[(attacks_sent % attackers.len() as u64) as usize],
                KV_ATTACK.to_vec(),
            )
        } else {
            (ClientId(i as u64 % clients), benign(i))
        };
        // A well-behaved client under backpressure: retry when shed.
        while !runtime.submit_detached(client, payload.clone()) {
            std::thread::yield_now();
        }
    }
    (runtime.shutdown(), attacks_sent)
}

/// Runs the sweep at `size` requests per cell.
#[must_use]
pub fn run(size: usize) -> Report {
    let attack_rates = [(0usize, "0%"), (100, "1%"), (500, "5%")];
    let worker_counts = [1usize, 2, 4, 8];
    let mut acceptance = None;
    let mut clean_pair = None;
    let mut isolated_crashes = 0u64;
    let mut contained_all = true;
    let mut report = Report::new("e15", "concurrent throughput under attack");

    for (attack_per_10k, attack_label) in attack_rates {
        report.begin_table(
            format!("attack rate {attack_label}, {size} requests/cell, kvstore workload"),
            &[
                "workers",
                "mode",
                "raw req/s",
                "delivered req/s",
                "contained",
                "crashes",
                "downtime",
                "reconciles",
            ],
        );
        for &workers in &worker_counts {
            let (isolated, attacks) = run_cell(
                size,
                workers,
                attack_per_10k,
                IsolationMode::PerClientDomain,
            );
            let (baseline, _) = run_cell(size, workers, attack_per_10k, IsolationMode::Baseline);
            for (label, stats) in [("sdrad", &isolated), ("baseline", &baseline)] {
                report.row(&[
                    workers.to_string(),
                    label.into(),
                    format!("{:.0}", stats.throughput_rps()),
                    format!("{:.0}", stats.effective_throughput_rps()),
                    stats.contained_faults().to_string(),
                    stats.crashes().to_string(),
                    format!("{:.1?}", stats.modeled_downtime()),
                    if stats.reconciles() { "yes" } else { "NO" }.into(),
                ]);
            }
            assert!(isolated.reconciles() && baseline.reconciles());
            isolated_crashes += isolated.crashes();
            contained_all &= isolated.contained_faults() == attacks;
            if workers == 4 && attack_per_10k == 100 {
                acceptance = Some((isolated, baseline));
            } else if workers == 4 && attack_per_10k == 0 {
                // The attack-free pair: the honest source for measured
                // isolation overhead (no crash-handling wall time in it).
                clean_pair = Some((isolated, baseline));
            }
        }
    }
    assert_eq!(isolated_crashes, 0, "isolation must keep the process alive");
    assert!(contained_all, "every exploit sent must be contained");

    let (isolated, baseline) = acceptance.expect("the 4-worker/1% cell ran");
    let collapse = baseline.effective_throughput_rps() / isolated.effective_throughput_rps();
    report.note(format!(
        "acceptance cell (4 workers, 1% attack): sdrad crashes = {} (zero required), \
         contained faults = {}, mean rewind = {:?}; baseline crashes = {} costing {:.1?} of \
         modeled restart downtime. Delivered throughput: sdrad {:.0} req/s vs baseline {:.0} \
         req/s ({:.1}x collapse).",
        isolated.crashes(),
        isolated.contained_faults(),
        isolated.mean_rewind(),
        baseline.crashes(),
        baseline.modeled_downtime(),
        isolated.effective_throughput_rps(),
        baseline.effective_throughput_rps(),
        1.0 / collapse.max(f64::EPSILON),
    ));

    // Fleet-level sustainability report from the measured runs: rewind
    // latency from the attacked isolated run, isolation overhead from
    // the attack-free pair (so crash handling doesn't contaminate it).
    let (clean_isolated, clean_baseline) = clean_pair.expect("the 4-worker/0% cell ran");
    let lineup = fleet_lineup_from_runs(
        &isolated,
        &clean_isolated,
        &clean_baseline,
        FleetScenario::telecom_ran(),
    );
    let sdrad_servers = super::fleet_table(
        &mut report,
        "telecom RAN fleet (1000 sites), measured rewind & overhead substituted",
        &lineup,
    );
    report.note(format!(
        "fleet conclusion: with this build's measured {:?} rewind, 1N-sdrad meets the \
         five-nines target on {sdrad_servers:.0} servers — the measured-runtime version of the \
         paper's energy argument.",
        isolated.mean_rewind(),
    ));

    let cost_p50 = isolated.ok_latency().p50().as_secs_f64()
        / clean_baseline
            .ok_latency()
            .p50()
            .as_secs_f64()
            .max(f64::MIN_POSITIVE);
    report
        .exact("crashes", isolated_crashes as f64, "count")
        .exact("containment", f64::from(u8::from(contained_all)), "bool")
        .info("isolation_cost_p50", cost_p50, "ratio")
        .info("isolated_tput_rps", isolated.throughput_rps(), "rps")
        .info(
            "isolated_relative_tput",
            isolated.throughput_rps() / clean_baseline.throughput_rps(),
            "ratio",
        );
    report
}

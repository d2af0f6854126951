//! Property tests for the sustainability models: the availability math,
//! the redundancy lineup, and the fleet case study must behave physically
//! for *every* parameterization, not just the paper's; and recovery
//! priced after the fact from counts must match pricing each decision
//! as it is made.

use proptest::prelude::*;
use sdrad_energy::redundancy::{evaluate, Scenario};
use sdrad_energy::{
    assess_diversified_pair, assess_fleet, availability, downtime_budget, fleet_lineup,
    max_recoveries_in_budget, nines, price, EconomicModel, FleetScenario, PowerModel,
    RecoveryCounts, RungModels, Strategy as Deploy,
};
use std::time::Duration;

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        0.0f64..200.0,        // faults_per_year
        0.01f64..0.95,        // utilization
        0u64..50_000_000_000, // state_bytes
        0.0f64..0.10,         // sdrad_overhead
    )
        .prop_map(|(faults, util, state, overhead)| Scenario {
            faults_per_year: faults,
            utilization: util,
            state_bytes: state,
            sdrad_overhead: overhead,
            ..Scenario::default()
        })
}

fn fleet() -> impl Strategy<Value = FleetScenario> {
    (scenario(), 1u32..5000, 1u32..100_000, 0.9f64..0.9999999).prop_map(
        |(service, sites, users, target)| FleetScenario {
            name: "prop".into(),
            sites,
            users_per_site: users,
            target_availability: target,
            service,
            economics: EconomicModel::european(),
            sdrad_retrofit_days: 30.0,
            diversity_days_per_year: 250.0,
        },
    )
}

/// A ladder rung, cheapest first: 0 rewind, 1 pool rebuild, 2 worker
/// restart.
type Rung = u8;

/// The reference: every decision billed the moment it is made, one
/// rung at a time, with the state size it was made at.
#[derive(Debug, Default)]
struct PerDecision {
    rewind_time: Duration,
    pool_rebuild_time: Duration,
    restart_time: Duration,
    restart_only_time: Duration,
}

impl PerDecision {
    fn time_of(models: &RungModels, rung: Rung, state_bytes: u64, domains: u32) -> Duration {
        match rung {
            0 => models.rewind.recovery_time(0),
            1 => models.pool_domain_rebuild * domains.max(1),
            _ => models.restart.recovery_time(state_bytes),
        }
    }

    fn bill(&mut self, models: &RungModels, rung: Rung, state_bytes: u64, domains: u32) {
        let time = Self::time_of(models, rung, state_bytes, domains);
        match rung {
            0 => self.rewind_time += time,
            1 => self.pool_rebuild_time += time,
            _ => self.restart_time += time,
        }
        self.restart_only_time += Self::time_of(models, 2, state_bytes, domains);
    }
}

/// One decision of a script: its rung and the state the worker held.
fn decision() -> impl Strategy<Value = (Rung, u64)> {
    (0u8..3, 0u64..=16 << 30)
}

proptest! {
    /// Pricing the counts and byte sums after the run matches billing
    /// every decision as it was made, to within 1 ns per decision (the
    /// reload term rounds once per sum instead of once per restart),
    /// however the script is split across workers; and the ladder saves
    /// energy exactly when some rung below restart fired. Every worker
    /// pools the same number of domains, so one pool size per script.
    #[test]
    fn report_time_pricing_matches_per_decision_billing(
        script in prop::collection::vec(decision(), 0..64),
        domains in 1u32..=64,
        workers in 1usize..=4,
    ) {
        let models = RungModels::calibrated();
        let mut reference = PerDecision::default();
        let mut counts = vec![RecoveryCounts::default(); workers];
        for (i, &(rung, state_bytes)) in script.iter().enumerate() {
            reference.bill(&models, rung, state_bytes, domains);
            let worker = &mut counts[i % workers];
            match rung {
                0 => worker.rewinds += 1,
                1 => worker.pool_rebuilds += 1,
                _ => {
                    worker.worker_restarts += 1;
                    worker.restart_state_bytes += state_bytes;
                }
            }
            worker.judged_state_bytes += state_bytes;
        }
        let bill = price(&counts, Duration::ZERO, domains, &models, &PowerModel::rack_server());
        let tolerance = script.len() as u128;
        for (priced, billed) in [
            (bill.rewind_time, reference.rewind_time),
            (bill.pool_rebuild_time, reference.pool_rebuild_time),
            (bill.restart_time, reference.restart_time),
            (bill.restart_only_time, reference.restart_only_time),
        ] {
            prop_assert!(
                priced.as_nanos().abs_diff(billed.as_nanos()) <= tolerance,
                "priced {:?} vs billed {:?} over {} decisions",
                priced,
                billed,
                script.len()
            );
        }
        let cheap_rung_fired = script.iter().any(|&(rung, _)| rung < 2);
        prop_assert_eq!(bill.energy_saved_j() > 0.0, cheap_rung_fired);
    }

    /// Availability is a probability, monotonically worse in fault rate
    /// and in recovery time.
    #[test]
    fn availability_is_monotone(
        faults in 0.0f64..1000.0,
        recovery_ms in 0u64..10_000_000,
    ) {
        let a = availability(faults, Duration::from_millis(recovery_ms));
        prop_assert!((0.0..=1.0).contains(&a));
        let worse_rate = availability(faults + 1.0, Duration::from_millis(recovery_ms));
        prop_assert!(worse_rate <= a + 1e-15);
        let worse_recovery = availability(faults, Duration::from_millis(recovery_ms + 1000));
        if faults > 0.0 {
            prop_assert!(worse_recovery <= a + 1e-15);
        }
    }

    /// The downtime budget and recovery bound are mutually consistent:
    /// recovering `max_recoveries` times at the given latency stays within
    /// the budget.
    #[test]
    fn recoveries_fit_their_budget(
        target in 0.9f64..0.9999999,
        recovery_us in 1u64..60_000_000,
    ) {
        let recovery = Duration::from_micros(recovery_us);
        let budget = downtime_budget(target);
        let n = max_recoveries_in_budget(target, recovery);
        prop_assert!(n >= 0.0);
        prop_assert!(n * recovery.as_secs_f64() <= budget * (1.0 + 1e-9));
    }

    /// In every scenario, SDRaD-single never uses more servers than any
    /// other strategy and never exceeds 2N's energy.
    #[test]
    fn sdrad_is_never_the_heavy_option(scenario in scenario()) {
        let sdrad = evaluate(Deploy::SdradSingle, &scenario);
        for strategy in [
            Deploy::SingleRestart,
            Deploy::ActivePassive,
            Deploy::NPlusOne { n: 2 },
        ] {
            let other = evaluate(strategy, &scenario);
            prop_assert!(sdrad.servers <= other.servers);
            if strategy != Deploy::SingleRestart {
                prop_assert!(sdrad.annual_kwh <= other.annual_kwh * (1.0 + 1e-9));
            }
        }
        // And its availability beats the bare restart instance whenever
        // faults occur at all.
        if scenario.faults_per_year > 0.0 && scenario.state_bytes > 0 {
            let restart = evaluate(Deploy::SingleRestart, &scenario);
            prop_assert!(sdrad.availability >= restart.availability);
        }
    }

    /// Fleet reports scale linearly in the number of sites.
    #[test]
    fn fleet_scales_linearly_in_sites(fleet in fleet()) {
        let one_site = FleetScenario { sites: 1, ..fleet.clone() };
        let report_fleet = assess_fleet(Deploy::SdradSingle, &fleet);
        let report_one = assess_fleet(Deploy::SdradSingle, &one_site);
        let sites = f64::from(fleet.sites);
        prop_assert!((report_fleet.annual_kwh - report_one.annual_kwh * sites).abs()
            <= report_fleet.annual_kwh.abs() * 1e-9 + 1e-6);
        prop_assert!((report_fleet.servers - report_one.servers * sites).abs() < 1e-9);
        // Per-user lost minutes are a per-site property: independent of
        // fleet size.
        prop_assert!((report_fleet.lost_minutes_per_user - report_one.lost_minutes_per_user).abs() < 1e-9);
    }

    /// The diversified pair always costs at least as much as the plain
    /// pair (same hardware + variant engineering), with identical
    /// availability in this model.
    #[test]
    fn diversity_is_never_free(fleet in fleet()) {
        let pair = assess_fleet(Deploy::ActivePassive, &fleet);
        let diversified = assess_diversified_pair(&fleet);
        prop_assert!(diversified.annual_tco_eur() >= pair.annual_tco_eur());
        prop_assert_eq!(diversified.availability, pair.availability);
        prop_assert_eq!(diversified.servers, pair.servers);
    }

    /// Lineup reports are internally consistent: TCO components are
    /// non-negative and nines() agrees with availability.
    #[test]
    fn lineup_reports_are_consistent(fleet in fleet()) {
        for report in fleet_lineup(&fleet) {
            prop_assert!(report.annual_kwh >= 0.0);
            prop_assert!(report.annual_energy_eur >= 0.0);
            prop_assert!(report.annual_capex_eur >= 0.0);
            prop_assert!(report.annual_engineering_eur >= 0.0);
            prop_assert!(report.annual_tco_eur() >= report.annual_energy_eur);
            prop_assert!((0.0..=1.0).contains(&report.availability));
            prop_assert_eq!(
                report.meets_target,
                report.availability >= fleet.target_availability
            );
            let n = nines(report.availability);
            prop_assert!(n >= 0.0);
        }
    }
}

//! The cluster simulation proper: deployment strategies under fault and
//! attack processes, with measured availability and energy.
//!
//! This is the *empirical* counterpart of `sdrad_energy::redundancy`'s
//! closed-form model. The paper (§IV) argues operators buy availability
//! with replication and that SDRaD's microsecond rewind makes a single
//! instance sufficient; the analytic model computes that claim, and this
//! simulator *tests* it, including the effects the closed form leaves
//! out: failover windows, coincident faults, and correlated (common-mode)
//! attacks that defeat monocultural redundancy.

use crate::node::{Node, NodeId, NodeState, Role, VariantId};
use crate::sim::{EventQueue, SimRng, SimTime};
use sdrad_energy::availability::SECONDS_PER_YEAR;
use sdrad_energy::power::PowerModel;
use sdrad_energy::redundancy::Strategy;
use sdrad_energy::restart::RestartModel;
use std::time::Duration;

/// Utilization of a warm standby (kept in sync, serving no traffic).
const STANDBY_UTILIZATION: f64 = 0.05;
/// Utilization of a node busy reloading state.
const RECOVERY_UTILIZATION: f64 = 0.8;

/// Configuration of one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Deployment strategy under test.
    pub strategy: Strategy,
    /// Independent (per-node) memory-fault rate, per node-year.
    pub faults_per_year: f64,
    /// Correlated exploit-campaign rate, per year. Each campaign targets
    /// one software variant and faults **every** node running it.
    pub attacks_per_year: f64,
    /// Number of distinct software variants deployed (1 = monoculture).
    pub variants: u32,
    /// Reloadable service state per node, bytes.
    pub state_bytes: u64,
    /// Utilization the workload demands of one active instance.
    pub utilization: f64,
    /// Failover detection + switch time for promoting a standby.
    pub failover: Duration,
    /// Runtime overhead SDRaD isolation adds to an active instance's
    /// utilization (the paper's 2–4 %; default 3 %).
    pub sdrad_overhead: f64,
    /// Simulated wall-clock span.
    pub duration: Duration,
    /// RNG seed; every run with the same config is identical.
    pub seed: u64,
}

impl ClusterConfig {
    /// The paper's scenario: three faults per year against a 10 GB
    /// stateful service, one year horizon.
    #[must_use]
    pub fn paper_baseline(strategy: Strategy) -> Self {
        ClusterConfig {
            strategy,
            faults_per_year: 3.0,
            attacks_per_year: 0.0,
            variants: 1,
            state_bytes: 10_000_000_000,
            utilization: 0.5,
            failover: Duration::from_secs(5),
            sdrad_overhead: 0.03,
            duration: Duration::from_secs(365 * 24 * 3600),
            seed: 0xD5DA_D000,
        }
    }

    /// Returns a copy with a different seed (for Monte Carlo trials).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Node layout for the strategy: `(actives, standbys, required)`.
    #[must_use]
    pub fn layout(&self) -> (u32, u32, u32) {
        match self.strategy {
            Strategy::SingleRestart | Strategy::SdradSingle => (1, 0, 1),
            Strategy::ActivePassive => (1, 1, 1),
            Strategy::NPlusOne { n } => (n, 1, n),
        }
    }

    /// Recovery mechanism the strategy's nodes use.
    #[must_use]
    pub fn recovery_model(&self) -> RestartModel {
        match self.strategy {
            Strategy::SdradSingle => RestartModel::sdrad_rewind(),
            _ => RestartModel::process_restart(),
        }
    }
}

/// What happened during one simulated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMetrics {
    /// Simulated span in seconds.
    pub sim_seconds: f64,
    /// Seconds during which fewer than the required actives were serving.
    pub downtime_seconds: f64,
    /// Independent node faults injected.
    pub faults: u64,
    /// Correlated attack campaigns injected.
    pub campaigns: u64,
    /// Node recoveries completed.
    pub recoveries: u64,
    /// Standby promotions completed.
    pub failovers: u64,
    /// Servers provisioned.
    pub servers: u32,
    /// Total IT+facility energy, kWh.
    pub kwh: f64,
    /// Operational + amortized embodied carbon, kg CO₂e.
    pub kgco2: f64,
}

impl RunMetrics {
    /// Measured availability in `[0, 1]`.
    #[must_use]
    pub fn availability(&self) -> f64 {
        if self.sim_seconds <= 0.0 {
            return 1.0;
        }
        (1.0 - self.downtime_seconds / self.sim_seconds).max(0.0)
    }

    /// Measured availability expressed as "number of nines".
    #[must_use]
    pub fn nines(&self) -> f64 {
        sdrad_energy::nines(self.availability())
    }
}

/// Events driving the simulation.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// An independent memory fault hits one node.
    Fault(NodeId),
    /// A correlated exploit campaign fires against one variant.
    Campaign,
    /// A node finishes recovering.
    Recovered(NodeId),
    /// A standby finishes promotion and starts serving.
    FailoverComplete(NodeId),
    /// End of the simulated span.
    End,
}

/// The simulator. Build one per run; [`ClusterSim::run`] consumes it.
#[derive(Debug)]
pub struct ClusterSim {
    config: ClusterConfig,
    nodes: Vec<Node>,
    required: u32,
    queue: EventQueue<Event>,
    rng: SimRng,
    // Piecewise-constant integration state.
    last_change: SimTime,
    service_up: bool,
    downtime_us: u64,
    joules: f64,
    // Counters.
    faults: u64,
    campaigns: u64,
    recoveries: u64,
    failovers: u64,
    power: PowerModel,
}

impl ClusterSim {
    /// Prepares a simulation for `config`.
    #[must_use]
    pub fn new(config: ClusterConfig) -> Self {
        let (actives, standbys, required) = config.layout();
        let recovery = config.recovery_model();
        let variants = config.variants.max(1);
        let mut nodes = Vec::new();
        for i in 0..(actives + standbys) {
            let role = if i < actives {
                Role::Active
            } else {
                Role::Standby
            };
            nodes.push(Node::new(
                NodeId(i as usize),
                role,
                VariantId(i % variants),
                recovery,
            ));
        }
        let rng = SimRng::seeded(config.seed);
        ClusterSim {
            config,
            nodes,
            required,
            queue: EventQueue::new(),
            rng,
            last_change: SimTime::ZERO,
            service_up: true,
            downtime_us: 0,
            joules: 0.0,
            faults: 0,
            campaigns: 0,
            recoveries: 0,
            failovers: 0,
            power: PowerModel::rack_server(),
        }
    }

    /// Runs the simulation to completion and reports what happened.
    #[must_use]
    pub fn run(mut self) -> RunMetrics {
        // Seed the fault processes.
        let per_node_rate = self.config.faults_per_year / SECONDS_PER_YEAR;
        for i in 0..self.nodes.len() {
            let gap = self.rng.exp_interval(per_node_rate);
            self.queue.schedule_after(gap, Event::Fault(NodeId(i)));
        }
        let campaign_rate = self.config.attacks_per_year / SECONDS_PER_YEAR;
        if campaign_rate > 0.0 {
            let gap = self.rng.exp_interval(campaign_rate);
            self.queue.schedule_after(gap, Event::Campaign);
        }
        self.queue.schedule_after(self.config.duration, Event::End);

        while let Some((now, event)) = self.queue.pop_next() {
            self.integrate_to(now);
            match event {
                Event::Fault(id) => {
                    self.inject_fault(id, now);
                    // Re-arm this node's fault process.
                    let gap = self.rng.exp_interval(per_node_rate);
                    self.queue.schedule_after(gap, Event::Fault(id));
                }
                Event::Campaign => {
                    self.campaigns += 1;
                    let variant =
                        VariantId(self.rng.below(self.config.variants.max(1) as usize) as u32);
                    let victims: Vec<NodeId> = self
                        .nodes
                        .iter()
                        .filter(|n| n.variant == variant && n.state == NodeState::Up)
                        .map(|n| n.id)
                        .collect();
                    for id in victims {
                        self.inject_fault(id, now);
                    }
                    let gap = self.rng.exp_interval(campaign_rate);
                    self.queue.schedule_after(gap, Event::Campaign);
                }
                Event::Recovered(id) => {
                    let node = &mut self.nodes[id.0];
                    node.state = NodeState::Up;
                    node.recoveries += 1;
                    self.recoveries += 1;
                }
                Event::FailoverComplete(id) => {
                    let node = &mut self.nodes[id.0];
                    node.promoting = false;
                    if node.state == NodeState::Up {
                        node.role = Role::Active;
                        self.failovers += 1;
                        // Demote one recovering ex-active to standby so the
                        // active count stays at the layout's target.
                        if let Some(dem) = self
                            .nodes
                            .iter_mut()
                            .find(|n| n.role == Role::Active && n.state == NodeState::Recovering)
                        {
                            dem.role = Role::Standby;
                        }
                    }
                }
                Event::End => break,
            }
            self.refresh_service_state();
        }

        let sim_seconds = self.queue.now().as_secs_f64();
        let kwh = self.joules / 3.6e6;
        let carbon = sdrad_energy::CarbonModel::typical();
        let years = sim_seconds / SECONDS_PER_YEAR;
        let kgco2 = carbon.operational_kgco2(kwh)
            + carbon.embodied_kgco2_per_year(self.nodes.len() as f64) * years;

        RunMetrics {
            sim_seconds,
            downtime_seconds: self.downtime_us as f64 / 1e6,
            faults: self.faults,
            campaigns: self.campaigns,
            recoveries: self.recoveries,
            failovers: self.failovers,
            servers: self.nodes.len() as u32,
            kwh,
            kgco2,
        }
    }

    fn inject_fault(&mut self, id: NodeId, now: SimTime) {
        let state_bytes = self.config.state_bytes;
        let failover = self.config.failover;
        let node = &mut self.nodes[id.0];
        if node.state != NodeState::Up {
            return; // already down; fault is absorbed
        }
        node.state = NodeState::Recovering;
        node.faults += 1;
        self.faults += 1;
        let recovery = node.recovery_time(state_bytes);
        let was_active = node.role == Role::Active;
        self.queue
            .schedule_at(now.after(recovery), Event::Recovered(id));

        // If an active died and a standby is available, start a failover —
        // but only when the standby would beat the node's own recovery.
        if was_active && recovery > failover {
            if let Some(standby) = self.nodes.iter_mut().find(|n| n.is_promotable()) {
                standby.promoting = true;
                let standby_id = standby.id;
                self.queue
                    .schedule_at(now.after(failover), Event::FailoverComplete(standby_id));
            }
        }
    }

    fn refresh_service_state(&mut self) {
        let serving = self.nodes.iter().filter(|n| n.is_serving()).count() as u32;
        self.service_up = serving >= self.required;
    }

    fn integrate_to(&mut self, now: SimTime) {
        let dt = now.since(self.last_change);
        let dt_s = dt.as_secs_f64();
        if dt_s > 0.0 {
            if !self.service_up {
                self.downtime_us += dt.as_micros().min(u128::from(u64::MAX)) as u64;
            }
            let watts: f64 = self
                .nodes
                .iter()
                .map(|n| {
                    let active_utilization = match self.config.strategy {
                        Strategy::SdradSingle => {
                            self.config.utilization * (1.0 + self.config.sdrad_overhead)
                        }
                        _ => self.config.utilization,
                    };
                    let utilization = match (n.role, n.state) {
                        (Role::Active, NodeState::Up) => active_utilization,
                        (Role::Standby, NodeState::Up) => STANDBY_UTILIZATION,
                        (_, NodeState::Recovering) => RECOVERY_UTILIZATION,
                    };
                    self.power.watts_at(utilization)
                })
                .sum();
            self.joules += watts * dt_s;
        }
        self.last_change = now;
    }

    /// Read-only access to the nodes (for tests).
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn year_config(strategy: Strategy) -> ClusterConfig {
        ClusterConfig::paper_baseline(strategy)
    }

    #[test]
    fn no_faults_means_full_availability() {
        let mut config = year_config(Strategy::SingleRestart);
        config.faults_per_year = 0.0;
        let metrics = ClusterSim::new(config).run();
        assert_eq!(metrics.faults, 0);
        assert!(metrics.availability() > 0.999_999_999);
        assert!(metrics.kwh > 0.0);
    }

    #[test]
    fn restart_strategy_loses_minutes_per_fault() {
        let metrics = ClusterSim::new(year_config(Strategy::SingleRestart)).run();
        assert!(metrics.faults > 0);
        // ~2 minutes per fault at 10 GB.
        let per_fault = metrics.downtime_seconds / metrics.faults as f64;
        assert!(
            (60.0..240.0).contains(&per_fault),
            "downtime per fault {per_fault}s"
        );
    }

    #[test]
    fn sdrad_strategy_is_five_nines_and_beyond() {
        let metrics = ClusterSim::new(year_config(Strategy::SdradSingle)).run();
        assert!(metrics.faults > 0);
        assert!(metrics.nines() > 9.0, "nines {}", metrics.nines());
        assert_eq!(metrics.servers, 1);
    }

    #[test]
    fn active_passive_fails_over_within_seconds() {
        let mut config = year_config(Strategy::ActivePassive);
        config.faults_per_year = 6.0; // more samples
        let metrics = ClusterSim::new(config).run();
        assert!(metrics.failovers > 0);
        let per_fault = metrics.downtime_seconds / metrics.faults.max(1) as f64;
        assert!(
            per_fault < 60.0,
            "failover should beat restart: {per_fault}s"
        );
        assert_eq!(metrics.servers, 2);
    }

    #[test]
    fn active_passive_beats_single_restart_on_availability() {
        let single = ClusterSim::new(year_config(Strategy::SingleRestart)).run();
        let pair = ClusterSim::new(year_config(Strategy::ActivePassive)).run();
        assert!(pair.availability() >= single.availability());
        // ...but burns substantially more energy for the standby.
        assert!(pair.kwh > single.kwh * 1.4);
    }

    #[test]
    fn monoculture_campaigns_defeat_redundancy() {
        let mut config = year_config(Strategy::ActivePassive);
        config.faults_per_year = 0.0;
        config.attacks_per_year = 4.0;
        config.variants = 1; // monoculture: campaign hits both nodes
        let mono = ClusterSim::new(config.clone()).run();

        config.variants = 2; // diversified pair
        let diverse = ClusterSim::new(config).run();

        assert!(mono.campaigns > 0);
        assert!(
            mono.downtime_seconds > diverse.downtime_seconds,
            "monoculture {mono:?} vs diverse {diverse:?}"
        );
    }

    #[test]
    fn same_seed_same_result() {
        let a = ClusterSim::new(year_config(Strategy::NPlusOne { n: 3 })).run();
        let b = ClusterSim::new(year_config(Strategy::NPlusOne { n: 3 })).run();
        assert_eq!(a, b);
    }

    #[test]
    fn sdrad_energy_is_close_to_bare_single() {
        let mut bare = year_config(Strategy::SingleRestart);
        bare.faults_per_year = 0.0;
        let bare = ClusterSim::new(bare).run();
        let sdrad = ClusterSim::new(year_config(Strategy::SdradSingle)).run();
        let ratio = sdrad.kwh / bare.kwh;
        assert!((0.95..1.1).contains(&ratio), "ratio {ratio}");
    }
}

//! # sdrad-cluster — empirical validation of the redundancy argument
//!
//! The paper's sustainability case (§IV) is an argument about *deployments*:
//! operators of critical services meet availability targets with
//! replication — warm standbys, N+1 clusters — and every redundant server
//! draws real power and carries embodied carbon. SDRaD's microsecond
//! in-process recovery is claimed to let a **single** instance meet the
//! same target.
//!
//! The `sdrad-energy` crate computes that claim in closed form. This
//! crate **simulates** it: a deterministic discrete-event model of a
//! replicated service cluster under Poisson memory-fault processes and
//! correlated exploit campaigns, measuring
//!
//! * availability (and its distribution across Monte Carlo trials),
//! * failover behaviour the closed form ignores (detection windows,
//!   coincident faults, promotion races), and
//! * energy and carbon, integrated from per-node utilization over time.
//!
//! It also models **software diversification** — the other §IV remedy —
//! by assigning nodes *variants*: a correlated attack campaign takes down
//! every node sharing the targeted variant, which is exactly why
//! monocultural redundancy buys less availability against exploits than
//! against hardware faults.
//!
//! ## Example
//!
//! ```
//! use sdrad_cluster::{ClusterConfig, ClusterSim};
//! use sdrad_energy::Strategy;
//!
//! // The paper's scenario: 3 memory faults/year against a 10 GB service.
//! let restart = ClusterSim::new(ClusterConfig::paper_baseline(Strategy::SingleRestart)).run();
//! let sdrad = ClusterSim::new(ClusterConfig::paper_baseline(Strategy::SdradSingle)).run();
//!
//! // Five nines need < 315.6 s of downtime per year.
//! assert!(restart.downtime_seconds > 315.6); // violated by restarts
//! assert!(sdrad.downtime_seconds < 1.0);     // SDRaD: microseconds
//! assert!(sdrad.kwh < restart.kwh * 1.05);   // at no extra hardware
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod montecarlo;
mod node;
mod sim;

pub use cluster::{ClusterConfig, ClusterSim, RunMetrics};
pub use montecarlo::{run_trials, Stat, TrialSummary};
pub use node::{Node, NodeId, NodeState, Role, VariantId};
pub use sdrad_energy::availability::SECONDS_PER_YEAR;
pub use sim::{EventQueue, SimRng, SimTime};

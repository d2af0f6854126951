//! # sdrad-energy — availability and sustainability models
//!
//! §IV of the paper argues, qualitatively, that fast in-process recovery
//! is *environmentally* valuable: operators achieve availability targets
//! today by replicating service instances, and replication means powered
//! servers and embodied carbon. This crate makes the argument computable:
//!
//! * [`mod@availability`] — MTTR-based availability math: achieved nines for
//!   a fault rate × recovery-time combination, downtime budgets, and the
//!   "9·10⁷ recoveries within 99.999 %" bound the paper states,
//! * [`restart`] — calibrated recovery-time models (process restart,
//!   container restart, SDRaD rewind) whose state-reload term reproduces
//!   the "10 GB ≈ 2 minutes" measurement,
//! * [`decisions`] — recovery priced after the fact: the rung cost
//!   models and the one function that turns a run's rung counts and
//!   state-byte sums into recovery time, energy, availability and
//!   delivered throughput, beside restart-only recovery of the same
//!   faults,
//! * [`power`] — server power as a function of utilization, with PUE,
//! * [`redundancy`] — deployment strategies (single, 2N active-passive,
//!   N+1) and what they cost in energy for the availability they buy,
//! * [`carbon`] — operational (grid) and embodied carbon accounting,
//! * [`report`] — the text tables the experiment harnesses print.
//!
//! ## Example: the paper's headline claim
//!
//! ```
//! use sdrad_energy::availability::{availability, nines, max_recoveries_in_budget};
//! use std::time::Duration;
//!
//! // Three faults per year, 2-minute restart: five nines are violated…
//! let restart = availability(3.0, Duration::from_secs(120));
//! assert!(nines(restart) < 5.0);
//!
//! // …while a 3.5 µs rewind allows more than 9·10⁷ recoveries per year
//! // inside the same budget.
//! let budget = max_recoveries_in_budget(0.99999, Duration::from_nanos(3_500));
//! assert!(budget > 9.0e7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod availability;
pub mod carbon;
pub mod casestudy;
pub mod decisions;
pub mod lca;
pub mod power;
pub mod redundancy;
pub mod report;
pub mod restart;

pub use availability::{availability, downtime_budget, max_recoveries_in_budget, nines};
pub use carbon::CarbonModel;
pub use casestudy::{
    assess_diversified_pair, assess_fleet, fleet_lineup, EconomicModel, FleetReport, FleetScenario,
};
pub use decisions::{price, RecoveryBill, RecoveryCounts, RungModels};
pub use power::{PowerModel, PUE_TYPICAL};
pub use redundancy::{DeploymentReport, Strategy};
pub use report::TextTable;
pub use restart::{RecoveryMechanism, RestartModel};

//! # sdrad-control — an adaptive control plane for the serving runtime
//!
//! The paper's central claim is that in-process rewind is a *cheaper
//! recovery action* than a process or container restart — which makes
//! recovery a **policy** question the moment more than one action is on
//! the menu. A runtime that answers every fault with the same reflex
//! (rewind) and every full queue with the same reflex (shed) never
//! actually chooses. This crate supplies the choosing, as a
//! deterministic, clock-injected control loop with three decision
//! families:
//!
//! * **Client reputation & quarantine** ([`ReputationBook`]) — an EWMA
//!   fault score per client id, fed by contained-fault / secret-leak /
//!   crash events, with graduated and *reversible* responses: throttle
//!   (per-client token bucket at admission), quarantine (route to a
//!   sacrificial blast-pit shard) and ban (refuse at accept) — all
//!   derived purely from the decayed score, so forgiveness is decay,
//!   not an operator action;
//! * **Latency-target adaptive shedding** ([`CodelShedder`]) — a
//!   CoDel-style controller per traffic class that sheds against a p99
//!   target computed from a live latency window, so benign overload
//!   (loose target, last resort) and attack overload (tight target,
//!   first line) shed differently — instead of a fixed queue bound that
//!   cannot tell a healthy deep queue from a sick shallow one;
//! * **A recovery-escalation ladder** ([`EscalationLadder`]) —
//!   consecutive faults in the same domain escalate domain rewind →
//!   pool discard/rebuild → worker restart. The plane only counts the
//!   rungs; the final [`ControlReport`] proves its books balance
//!   (every decision counted is logged, [`ControlReport::reconciles`]),
//!   and `sdrad-energy` prices the counted rungs after the run, beside
//!   restart-only recovery of the same faults.
//!
//! Everything is **deterministic**: methods take logical nanoseconds,
//! the plane never reads a clock, and internal maps iterate in client
//! order — the decision stream is a pure function of the (event, tick)
//! sequence, which the property tests pin down.
//!
//! ## Example
//!
//! ```
//! use sdrad_control::{Admission, ControlConfig, ControlPlane};
//!
//! let mut plane = ControlPlane::new(ControlConfig::default());
//! let ms = 1_000_000u64;
//!
//! // A client that keeps faulting climbs the standings…
//! let mut now = 0;
//! loop {
//!     now += ms / 10;
//!     match plane.admit(666, now) {
//!         Admission::Deny => break, // …until it is banned.
//!         Admission::Admit | Admission::Quarantine => {
//!             let rung = plane.observe_fault(0, 666, 200_000, now, 0, 0);
//!             let _ = rung; // rewind first, then pool rebuild, then restart
//!         }
//!         _ => {}
//!     }
//! }
//!
//! let report = plane.report();
//! assert_eq!(report.banned_clients, vec![666]);
//! assert!(report.counts.rewinds > report.counts.worker_restarts, "cheap rungs first");
//! assert!(report.reconciles(), "every decision counted is logged");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ladder;
mod plane;
mod reputation;
mod shedding;

pub use ladder::{EscalationLadder, LadderParams, RecoveryRung};
pub use plane::{
    Admission, ControlConfig, ControlPlane, ControlReport, Decision, DecisionCounts, DecisionRecord,
};
pub use reputation::{ReputationBook, ReputationParams, Standing};
pub use shedding::{CodelShedder, LatencyWindow, ShedParams};

//! # sdrad — Secure Domain Rewind and Discard
//!
//! A reproduction of the core contribution of *"Exploring the Environmental
//! Benefits of In-Process Isolation for Software Resilience"* (DSN 2023)
//! and the underlying SDRaD system: **in-process isolation with
//! rewind-based recovery**.
//!
//! The idea: conventional mitigations (stack canaries, CFI) *detect* memory
//! attacks but respond by terminating the process, so service operators buy
//! availability with replication — environmentally costly
//! over-provisioning. SDRaD instead partitions a process into *domains*
//! backed by hardware protection keys, each with a private heap. When a
//! fault is detected inside a domain:
//!
//! 1. execution **rewinds** to the point where the domain was entered
//!    (an `Err` is returned instead of the call's result), and
//! 2. the domain's heap — the only memory the fault could have corrupted —
//!    is **discarded**.
//!
//! The process never terminates; recovery takes microseconds instead of the
//! minutes a stateful restart takes, which is what removes the need for
//! redundancy (see the `sdrad-energy` crate for the sustainability math).
//!
//! ## Quickstart
//!
//! ```
//! use sdrad::{DomainManager, DomainConfig, DomainPolicy};
//!
//! # fn main() -> Result<(), sdrad::DomainError> {
//! let mut mgr = DomainManager::new();
//! let untrusted = mgr.create_domain(
//!     DomainConfig::new("legacy-parser").policy(DomainPolicy::Confidential),
//! )?;
//!
//! // Run risky code inside the domain. If it faults, we get Err instead
//! // of a crashed process.
//! match mgr.call(untrusted, |env| {
//!     let input = env.push_bytes(b"attacker-controlled");
//!     env.read_bytes(input, 19)
//! }) {
//!     Ok(bytes) => assert_eq!(bytes.len(), 19),
//!     Err(violation) => {
//!         // Alternate action: log, serve a default, rate-limit the client…
//!         eprintln!("contained: {violation}");
//!     }
//! }
//! # Ok(())
//! # }
//! ```
//!
//! ## Detection mechanisms
//!
//! A rewind is triggered by any of the detection mechanisms the paper
//! lists (§II): protection-key violations (cross-domain access), heap
//! canary corruption (checked on free and swept at domain exit), double
//! frees, allocation-quota exhaustion, explicit aborts, and any Rust panic
//! escaping the domain closure. Simulated stack-canary frames live in the
//! `sdrad-faultsim` crate.
//!
//! A detected fault reaches the boundary one of two ways: as a value,
//! when the closure given to [`DomainManager::try_call`] passes the
//! `Err` of a `DomainEnv::try_*` method up with `?`; or as a trap, when
//! a plain [`DomainEnv`] method unwinds to [`DomainManager::call`]. Both
//! end in the same rewind; the value form costs no unwind.
//!
//! ## The substrate
//!
//! The protection keys and the domain heaps are private modules of this
//! crate. The keys are a software model of Intel PKU that, for now, runs
//! on every host, hardware PKU or not (ROADMAP G1 will detect the hardware).
//! Each domain's heap lives in a region tagged with its key and carries
//! canaries around every block. Callers see the value types the domain
//! API speaks in — [`Fault`], [`Region`], [`VirtAddr`], [`Pkru`],
//! [`ProtectionKey`], [`HeapStats`] — and [`CostModel`], the calibrated
//! price of each primitive.
//!
//! The thread's rights register can be read with [`current_pkru`], but
//! only the call gate in [`DomainManager::try_call`] writes it, as ERIM's
//! argument requires: no code outside the gate can change PKRU. Nothing
//! outside this crate can reach the writer:
//!
//! ```compile_fail,E0425
//! use sdrad::*;
//! let before = current_pkru();
//! set_current_pkru(Pkru::allow_all());
//! assert_eq!(current_pkru(), before);
//! ```
//!
//! nor the scoped guard built on it:
//!
//! ```compile_fail,E0433
//! use sdrad::*;
//! let _open = PkruGuard::enter(Pkru::allow_all());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod domain;
mod error;
mod heap;
mod manager;
mod mpk;
mod pool;

pub(crate) use domain::Domain;
pub use domain::{DomainConfig, DomainId, DomainInfo, DomainPolicy, DomainState};
pub use error::DomainError;
pub use heap::HeapStats;
pub use manager::{quiet_fault_traps, DomainEnv, DomainManager};
pub use mpk::{
    current_pkru, Access, AccessRights, CostModel, CpuProfile, Fault, Pkru, ProtectionKey, Region,
    VirtAddr,
};
pub use pool::{ClientId, DomainPool};

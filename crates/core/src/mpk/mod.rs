//! The isolation substrate's protection keys: a software model of Intel
//! Memory Protection Keys for Userspace (PKU).
//!
//! SDRaD tags every page of a process with one of 16 protection keys, and
//! a per-thread `PKRU` register decides, with two bits per key
//! (*access-disable* and *write-disable*), whether the current thread may
//! read or write pages carrying that key. Switching rights is a ~20-30
//! cycle unprivileged `WRPKRU` instruction, which is what makes MPK-based
//! compartmentalization "lightweight" compared to process isolation.
//!
//! This module models that hardware in software (see `DESIGN.md` §1 for
//! the substitution argument). For now the model is the only backend and
//! runs on every host, including hosts whose CPU has PKU (`pku` and
//! `ospke` in `/proc/cpuinfo`); detecting the hardware and using it where
//! present is ROADMAP item G1.
//!
//! * [`ProtectionKey`] / [`PkeyAllocator`] — the 16-key namespace with
//!   `pkey_alloc`/`pkey_free` semantics (key 0 is the default key).
//! * [`Pkru`] — the 32-bit rights register, two bits per key. The
//!   per-thread *current* register is public to read ([`current_pkru`])
//!   and written only through [`PkruGuard`], which only
//!   `DomainManager::try_call`'s call gate enters.
//! * [`MemorySpace`] — a software memory space made of key-tagged
//!   [`Region`]s; every read/write is checked against the current PKRU and
//!   raises a typed [`Fault`] on violation, the analogue of the `#PF` page
//!   fault a real CPU would deliver — the signal SDRaD turns into a domain
//!   rewind.
//! * [`CostModel`] — calibrated cycle/nanosecond constants for `WRPKRU`,
//!   `pkey_mprotect`, process context switches and process spawns, so that
//!   experiments can report paper-comparable *relative* costs.

mod access;
mod cost;
mod fault;
mod pkey;
mod pkru;
mod space;

pub use access::{Access, AccessRights};
pub use cost::{CostModel, CpuProfile};
pub use fault::Fault;
pub use pkey::ProtectionKey;
pub(crate) use pkey::{PkeyAllocator, MAX_KEYS};
pub(crate) use pkru::PkruGuard;
pub use pkru::{current_pkru, Pkru};
pub(crate) use space::MemorySpace;
pub use space::{Region, VirtAddr};

#[cfg(test)]
mod prop_space;

//! # sdrad-mpk — simulated Intel Memory Protection Keys (PKU)
//!
//! This crate is the hardware substrate for the SDRaD reproduction. The
//! original system ("Rewind & Discard: Improving software resilience using
//! isolated domains", DSN'23) relies on Intel *Protection Keys for Userspace*
//! (PKU): every page of a process can be tagged with one of 16 protection
//! keys, and a per-thread `PKRU` register decides, with two bits per key
//! (*access-disable* and *write-disable*), whether the current thread may
//! read or write pages carrying that key. Switching rights is a ~20-30 cycle
//! unprivileged `WRPKRU` instruction, which is what makes MPK-based
//! compartmentalization "lightweight" compared to process isolation.
//!
//! Real PKU requires specific hardware and kernel support, so this crate
//! substitutes a faithful software model (see `DESIGN.md` §2 for the
//! substitution argument):
//!
//! * [`ProtectionKey`] / [`PkeyAllocator`] — the 16-key namespace with
//!   `pkey_alloc`/`pkey_free` semantics (key 0 is the default key).
//! * [`Pkru`] — the 32-bit rights register, two bits per key, plus the
//!   per-thread *current* register ([`current_pkru`], [`set_current_pkru`]).
//! * [`MemorySpace`] — a software memory space made of key-tagged
//!   [`Region`]s; every read/write is checked against the current PKRU and
//!   raises a typed [`Fault`] on violation, the analogue of the `#PF` page
//!   fault a real CPU would deliver.
//! * [`CostModel`] — calibrated cycle/nanosecond constants for `WRPKRU`,
//!   `pkey_mprotect`, process context switches and process spawns, so that
//!   experiments can report paper-comparable *relative* costs.
//!
//! ## Example
//!
//! ```
//! use sdrad_mpk::{MemorySpace, Pkru, AccessRights, PkruGuard};
//!
//! # fn main() -> Result<(), sdrad_mpk::Fault> {
//! let mut space = MemorySpace::new();
//! let key = space.pkey_alloc().expect("a free key");
//! let region = space.map(4096, key)?;
//!
//! // Grant ourselves access to `key`, then write and read back.
//! let mut pkru = Pkru::deny_all();
//! pkru.set_rights(key, AccessRights::ReadWrite);
//! let _guard = PkruGuard::enter(pkru);
//!
//! space.write(region.base(), &[1, 2, 3])?;
//! let mut buf = [0u8; 3];
//! space.read(region.base(), &mut buf)?;
//! assert_eq!(buf, [1, 2, 3]);
//! # Ok(())
//! # }
//! ```
//!
//! A thread whose PKRU denies `key` gets `Fault::PkuViolation` instead — the
//! signal SDRaD turns into a domain rewind.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod cost;
mod fault;
mod pkey;
mod pkru;
mod space;

pub use access::{Access, AccessRights};
pub use cost::{CostModel, CpuProfile, CYCLES_PER_GHZ_NS};
pub use fault::Fault;
pub use pkey::{PkeyAllocator, ProtectionKey, MAX_KEYS};
pub use pkru::{current_pkru, set_current_pkru, Pkru, PkruGuard};
pub use space::{MemorySpace, Region, RegionId, VirtAddr};

//! # sdrad-alloc — per-domain heaps with canaries and discard
//!
//! SDRaD gives every isolated domain **its own heap**, carved out of memory
//! tagged with the domain's protection key. That choice is what makes the
//! *discard* half of "rewind and discard" cheap and safe:
//!
//! * a memory-safety bug inside the domain can only corrupt the domain's
//!   own heap (the protection key stops cross-domain writes), and
//! * recovering from the bug is a constant-time operation — drop the whole
//!   heap and reinitialise it — instead of a crash-and-restart of the
//!   entire process.
//!
//! [`DomainHeap`] implements that heap on top of a
//! [`sdrad_mpk::MemorySpace`] region:
//!
//! * first-fit free-list allocation with block splitting and coalescing,
//! * **heap canaries** before and after every payload, verified on free and
//!   on demand by [`DomainHeap::sweep`] — the detection mechanism the paper
//!   lists alongside stack canaries and domain violations,
//! * poisoning of freed payloads plus double-free detection,
//! * [`DomainHeap::discard`], the O(metadata) wipe used by a rewind.
//!
//! ## Example
//!
//! ```
//! use sdrad_mpk::{MemorySpace, Pkru, AccessRights, PkruGuard};
//! use sdrad_alloc::DomainHeap;
//!
//! # fn main() -> Result<(), sdrad_mpk::Fault> {
//! let mut space = MemorySpace::new();
//! let key = space.pkey_alloc()?;
//! let _guard = PkruGuard::enter(
//!     Pkru::root_only().with_rights(key, AccessRights::ReadWrite),
//! );
//!
//! let mut heap = DomainHeap::new(&mut space, key, 64 * 1024)?;
//! let block = heap.alloc(&mut space, 100)?;
//! space.write(block, b"domain-private data")?;
//! heap.free(&mut space, block)?;   // canaries verified here
//! heap.discard(&mut space)?;       // what a rewind does
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod heap;
mod stats;

pub use heap::{DomainHeap, MIN_ALIGN};
pub use stats::HeapStats;

//! Per-domain heaps with canaries and discard.
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
//! [`MemorySpace`](crate::mpk::MemorySpace) region:
//!
//! * first-fit free-list allocation with block splitting and coalescing,
//! * **heap canaries** before and after every payload, verified on free and
//!   on demand by [`DomainHeap::sweep`] — the detection mechanism the paper
//!   lists alongside stack canaries and domain violations,
//! * poisoning of freed payloads plus double-free detection,
//! * [`DomainHeap::discard`], the O(metadata) wipe used by a rewind.

mod free_list;
mod stats;

pub(crate) use free_list::DomainHeap;
pub use stats::HeapStats;

#[cfg(test)]
mod prop_heap;

//! Per-domain heaps with canaries and discard.
//!
//! SDRaD gives every isolated domain **its own heap**, carved out of memory
//! tagged with the domain's protection key. That choice is what makes the
//! *discard* half of "rewind and discard" cheap and safe:
//!
//! * a memory-safety bug inside the domain can only corrupt the domain's
//!   own heap (the protection key stops cross-domain writes), and
//! * recovering from the bug means dropping the whole heap and starting it
//!   empty, instead of a crash-and-restart of the entire process.
//!
//! [`DomainHeap`] implements that heap on top of a demand-backed
//! [`MemorySpace`](crate::mpk::MemorySpace) region:
//!
//! * bump allocation: a block is taken at the watermark, and freeing the
//!   top blocks lowers it again, so a call that frees its staging leaves
//!   the heap as it found it,
//! * **heap canaries** before and after every payload, verified on free and
//!   on demand by [`DomainHeap::sweep`] — the detection mechanism the paper
//!   lists alongside stack canaries and domain violations,
//! * poisoning of freed payloads plus double-free detection,
//! * [`DomainHeap::discard`], the wipe a rewind performs: it drops the bytes
//!   touched since the last discard, so its cost follows what the domain
//!   wrote, not the heap's capacity.

mod bump;
mod stats;

pub(crate) use bump::DomainHeap;
pub use stats::HeapStats;

#[cfg(test)]
mod free_list_oracle;
#[cfg(test)]
mod prop_bump;
#[cfg(test)]
mod prop_heap;

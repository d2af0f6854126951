//! Lock-free building blocks for the SDRaD data plane.
//!
//! The serving core hands requests between threads on three distinct
//! paths, each with its own contention shape, and each gets a purpose-
//! built structure here:
//!
//! * [`MpscQueue`] — an intrusive node-based multi-producer /
//!   single-consumer queue (Vyukov's design) for shard submission
//!   inboxes and connection hand-offs. Producers pay one `XCHG` per
//!   push.
//! * [`Bounded`] — a bounded MPMC ring (per-slot sequence numbers,
//!   CAS claim) used as the steal buffer: the owner publishes surplus
//!   work into it and thieves pop from it, so thieves never touch the
//!   owner's pump loop.
//! * [`SpscRing`] — a bounded single-producer / single-consumer ring
//!   for the worker→server completion path.
//! * [`WaitSlot`] — a park/unpark cell for the cold blocking path.
//!   Parks are always time-sliced, so a lost notification degrades to
//!   one bounded stall instead of a hang.
//! * [`FrameBuf`] ([`arena`]) — thread-local size-classed recycled
//!   frame buffers whose `Drop` returns storage to the owning worker's
//!   pool through a lock-free MPSC return channel, plus the
//!   [`CountingAlloc`] harness that measures the discipline.
//! * [`HazardDomain`] / [`Shared`] ([`hazard`]) — hazard-pointer
//!   deferred reclamation for read-mostly shared state: readers guard
//!   the pointer they dereference, writers retire what they replace,
//!   and an amortized reclaimer frees retirees only when no guard
//!   covers them. This is what turns pool rebuilds from a
//!   stop-the-world pause into publish-new/retire-old.
//!
//! # Safety model
//!
//! This is the only crate in the workspace that uses `unsafe`; the
//! runtime itself stays `#![forbid(unsafe_code)]` and consumes these
//! types through safe APIs. Single-consumer and single-producer roles
//! are enforced at runtime with atomic claim guards: a second
//! concurrent consumer (or producer) observes a failed claim and gets
//! a graceful `None`/`Err` instead of undefined behaviour.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod arena;
pub mod hazard;
pub mod mpmc;
pub mod mpsc;
pub mod spsc;
pub mod wait;

pub use arena::{CountingAlloc, FrameBuf};
pub use hazard::{
    Domain as HazardDomain, DomainStats as HazardStats, Guard as HazardGuard, Shared,
};
pub use mpmc::Bounded;
pub use mpsc::MpscQueue;
pub use spsc::SpscRing;
pub use wait::WaitSlot;

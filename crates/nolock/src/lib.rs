//! Lock-free building blocks for the SDRaD data plane.
//!
//! The serving runtime uses two of the structures here: the
//! [`MpscQueue`] inbox and the [`FrameBuf`] arena. The others have no
//! runtime user; they stay, with their tests, because the standalone
//! `benchmark/` package (`benchmark/src/layers.rs`) still times them,
//! and ROADMAP B1 part 2 removes them with those rows.
//!
//! * [`MpscQueue`] — an intrusive node-based multi-producer /
//!   single-consumer queue (Vyukov's design) for shard submission
//!   inboxes and connection hand-offs. Producers pay one `XCHG` per
//!   push.
//! * [`Bounded`] — a bounded MPMC ring (per-slot sequence numbers,
//!   CAS claim).
//! * [`SpscRing`] — a bounded single-producer / single-consumer ring.
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
//!   covers them.
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

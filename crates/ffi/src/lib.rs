//! # sdrad-ffi — sandboxing unsafe/foreign functions in Rust
//!
//! Reproduction of **SDRaD-FFI** (§III of the paper): Rust's memory-safety
//! guarantees stop at `unsafe` and FFI boundaries, so a memory bug in a C
//! library (or in unsafe Rust) can corrupt the whole process. SDRaD-FFI
//! runs such functions inside an isolated domain and recovers — via rewind
//! and discard — when they misbehave, optionally running an *alternate
//! action* instead of failing.
//!
//! Three interchangeable backends let the experiments compare isolation
//! strategies on identical workloads:
//!
//! * [`Sandbox::direct`] — no isolation (baseline; marshalling still
//!   happens so comparisons isolate the isolation cost itself),
//! * [`Sandbox::in_process`] — SDRaD protection-key domains (the paper's
//!   contribution),
//! * [`Sandbox::process`] — a real worker subprocess, the Sandcrust-style
//!   process-isolation baseline (reference \[9\] of the paper) whose
//!   "significant run-time overheads" §III cites.
//!
//! The [`sandboxed!`] macro provides the annotation-style front end; the
//! [`Registry`]/[`run_worker`] pair implements the worker side of the
//! process backend; [`serial`] holds the three formats arguments cross
//! the boundary in.
//!
//! ## Example
//!
//! ```
//! use sdrad_ffi::{sandboxed, Sandbox};
//!
//! sandboxed! {
//!     /// A "legacy C" routine: crashes on short input.
//!     pub fn legacy_checksum(data: Vec<u8>) -> u32 {
//!         let mut sum = u32::from(data[0]);            // bug: no bounds check
//!         for b in &data[1..] { sum = sum.wrapping_add(u32::from(*b)); }
//!         sum
//!     } recover |_err| 0
//! }
//!
//! # fn main() -> Result<(), sdrad_ffi::FfiError> {
//! let mut sandbox = Sandbox::in_process()?;
//! assert_eq!(legacy_checksum(&mut sandbox, vec![1, 2, 3]), 6);
//! assert_eq!(legacy_checksum(&mut sandbox, vec![]), 0); // contained, recovered
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod macros;
mod registry;
mod sandbox;
pub mod serial;
mod worker;

pub use error::FfiError;
pub use registry::{register_builtins, Registry};
pub use sandbox::{Sandbox, SandboxStats};
pub use worker::{read_frame, run_worker, write_frame, ProcessWorker, WireRequest, WireResponse};

// Re-exports used by macro expansions and downstream code.
pub use sdrad::{DomainConfig, DomainPolicy};
pub use serial::Format;

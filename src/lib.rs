//! # sdrad-repro — Secure Rewind and Discard of Isolated Domains
//!
//! Umbrella crate for the reproduction of *"Exploring the Environmental
//! Benefits of In-Process Isolation for Software Resilience"* (DSN 2023).
//! It re-exports every workspace crate under one roof so examples,
//! integration tests and downstream users have a single dependency:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `sdrad` | domains, rewind & discard, policies |
//! | [`mpk`] | `sdrad-mpk` | simulated protection keys, PKRU, memory space, cost model |
//! | [`alloc`] | `sdrad-alloc` | per-domain heaps with canaries |
//! | [`ffi`] | `sdrad-ffi` | SDRaD-FFI sandboxing (macro, backends, worker) |
//! | [`serial`] | `sdrad-ffi` | cross-domain serialization formats (`sdrad_ffi::serial`) |
//! | [`net`] | `sdrad-net` | the runtime's in-memory transport (readiness callbacks for event-driven serving) |
//! | [`kvstore`] | `sdrad-kvstore` | Memcached-like workload |
//! | [`httpd`] | `sdrad-httpd` | NGINX-like workload |
//! | [`tls`] | `sdrad-tls` | OpenSSL-like workload (Heartbleed demo) |
//! | [`faultsim`] | `sdrad-faultsim` | attack injection, workload generators |
//! | [`runtime`] | `sdrad-runtime` | sharded multi-worker serving runtime: readiness-driven scheduling (park/wake, work stealing, read budgets), connection-level serving over `sdrad-net`, all three workloads, latency percentiles |
//! | [`control`] | `sdrad-control` | adaptive control plane: admission, reputation, recovery ladder |
//! | [`energy`] | `sdrad-energy` | availability, energy and carbon models |
//! | [`cluster`] | `sdrad-cluster` | discrete-event replication-cluster simulator (E12/E13) |
//!
//! Start with the [`core`] docs, the `examples/` directory
//! (`cargo run --example quickstart`), and `DESIGN.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sdrad as core;
pub use sdrad_alloc as alloc;
pub use sdrad_cluster as cluster;
pub use sdrad_control as control;
pub use sdrad_energy as energy;
pub use sdrad_faultsim as faultsim;
pub use sdrad_ffi as ffi;
pub use sdrad_ffi::serial;
pub use sdrad_httpd as httpd;
pub use sdrad_kvstore as kvstore;
pub use sdrad_mpk as mpk;
pub use sdrad_net as net;
pub use sdrad_runtime as runtime;
pub use sdrad_tls as tls;

// The most-used items at the top level for convenience.
pub use sdrad::{quiet_fault_traps, DomainConfig, DomainError, DomainManager, DomainPolicy, Fault};
pub use sdrad_ffi::{FfiError, Sandbox};

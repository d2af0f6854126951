//! # sdrad-runtime — a sharded multi-worker serving runtime
//!
//! Every workload in this repository serves one request at a time on one
//! thread, but the paper's evaluation is about servers **under load**:
//! Memcached, NGINX and OpenSSL absorbing malicious traffic while
//! continuing to serve everyone else. This crate supplies that regime:
//!
//! * [`Worker`] — one thread owning its *own* [`DomainManager`] and
//!   [`DomainPool`] (protection keys and PKRU are per-thread state on
//!   real MPK hardware, so managers stay thread-confined and the request
//!   hot path takes no locks), draining its shard's queue **and pumping
//!   the connections assigned to its shard**. Scheduling is
//!   **readiness-driven**: the worker parks indefinitely on a per-shard
//!   wake set fed by queue pushes, `sdrad-net` readiness callbacks and
//!   sibling steal hints — an idle runtime performs **zero** periodic
//!   connection polls. Pump passes are bounded by a per-connection
//!   **read budget** (fairness against noisy pipeliners), silent
//!   connections can be **reaped** (`RuntimeConfig::idle_reap_after`),
//!   and [`RuntimeConfig::work_stealing`] selects a [`StealPolicy`]:
//!   under [`Deep`](StealPolicy::Deep) an idle worker steals pre-framed
//!   requests off the most-loaded sibling queue and lifts
//!   framing-complete requests off sibling **connection buffers** —
//!   read-only frames (per [`SessionHandler::steal_class`]) execute on
//!   the thief, shard-state **mutations are routed back to the owner**
//!   with responses written in frame order, so stealing is safe for
//!   shard-stateful handlers. Connections themselves never move: they
//!   stay sticky for domain affinity;
//! * [`Runtime`] — a shard-by-[`ClientId`] dispatcher with **bounded**
//!   per-worker queues and backpressure: a saturated shard sheds
//!   requests instead of growing without bound. [`Runtime::quiesce`]
//!   is a **generation-counted barrier**: it observes every shard's
//!   park state and proves (via a runtime-wide signal generation
//!   counter) that the observations were simultaneous — exact even
//!   under concurrent producers and in-flight steals, with no
//!   stream-looks-quiet heuristics;
//! * the server layer — **connection-level serving**: [`ConnectionServer`]
//!   runs an accept loop over an `sdrad-net` [`Listener`], hands each
//!   accepted connection to its sticky shard, and the shard's worker
//!   pumps framed reads off the raw byte stream — partial reads,
//!   pipelined requests, malformed heads and mid-request disconnects are
//!   all real states, not pre-framed `Vec<u8>` conveniences;
//! * [`SessionHandler`] — the workload plug-in point, owning both
//!   request processing *and* protocol framing
//!   ([`SessionHandler::frame`]), with adapters for all three evaluation
//!   apps: [`KvHandler`] (`sdrad-kvstore`), [`HttpHandler`]
//!   (`sdrad-httpd`) and [`TlsHandler`] (`sdrad-tls`, the
//!   Heartbleed-style heartbeat — over-reads contained per client domain
//!   in isolated mode, secret-leaking responses flagged
//!   [`Disposition::SecretLeak`] in the baseline);
//! * [`RuntimeStats`] — per-worker and aggregate throughput, contained
//!   faults, rewind time, crashes, leaks, shed counts, park/wakeup
//!   counters, steal and reap counts, plus **streaming latency
//!   histograms** ([`LatencyHistogram`]) giving p50/p99/p999 per
//!   disposition (ok / contained / shed), with a reconciliation
//!   invariant (protocol-level fault counts must equal each worker's
//!   `DomainManager` rewinds, histograms must carry one sample per
//!   counted request, stolen work must balance between the queues' and
//!   the thieves' books) and a bridge ([`fleet_lineup_from_runs`])
//!   substituting *measured* p99 rewind latency and isolation overhead
//!   into `sdrad-energy`'s fleet models.
//!
//! The experiment harnesses `e15_concurrent_throughput` (pre-framed
//! submits), `e16_connection_serving` (full connection path, all three
//! workloads, `sdrad-faultsim`-scheduled attacks) and `e18_deep_steal`
//! (no stealing vs deep stealing under a hot-shard skew: steal depth,
//! owner-routed mutation rate, stranded stalls, fleet energy of
//! stranded capacity) sweep this runtime baseline vs isolated.
//!
//! ## Example
//!
//! ```
//! use sdrad::ClientId;
//! use sdrad_runtime::{
//!     IsolationMode, KvHandler, Runtime, RuntimeConfig, SubmitOutcome,
//! };
//!
//! let runtime = Runtime::start(
//!     RuntimeConfig::new(2, IsolationMode::PerClientDomain),
//!     |_worker| KvHandler::default(),
//! );
//!
//! // A malicious request is contained by the client's own domain…
//! let SubmitOutcome::Enqueued(attack) =
//!     runtime.submit(ClientId(666), b"xstat 4096 4\r\nboom\r\n".to_vec())
//! else { unreachable!("queues are empty") };
//! assert!(attack.wait().response.starts_with(b"SERVER_ERROR contained"));
//!
//! // …while other clients are served normally.
//! let SubmitOutcome::Enqueued(set) =
//!     runtime.submit(ClientId(1), b"set k 2\r\nhi\r\n".to_vec())
//! else { unreachable!("queues are empty") };
//! assert_eq!(set.wait().response, b"STORED\r\n");
//!
//! let stats = runtime.shutdown();
//! assert_eq!(stats.crashes(), 0);
//! assert_eq!(stats.contained_faults(), 1);
//! assert!(stats.reconciles());
//! ```
//!
//! For the connection-level path, see [`ConnectionServer`]'s docs and
//! `examples/connection_serving.rs`.
//!
//! [`DomainManager`]: sdrad::DomainManager
//! [`DomainPool`]: sdrad::DomainPool
//! [`ClientId`]: sdrad::ClientId
//! [`Listener`]: sdrad_net::Listener

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod control_hub;
mod handler;
mod isolation;
mod queue;
#[allow(clippy::module_inception)]
mod runtime;
mod server;
mod stats;
mod wake;
mod worker;

pub use handler::{
    Framing, HttpHandler, KvHandler, ReadView, Reply, SessionHandler, StealClass, TlsHandler,
};
pub use isolation::{IsolationMode, WorkerIsolation};
pub use queue::{Completion, Disposition, Request, ShardQueue, Ticket, WorkBatch};
pub use runtime::{Dispatcher, Runtime, RuntimeConfig, StealPolicy, SubmitOutcome};
// The control-plane vocabulary a runtime embedder needs, re-exported so
// harnesses configure admission control and read the closed books
// without a direct `sdrad-control` dependency.
pub use sdrad_control::{
    ControlConfig, ControlReport, DecisionCounts, LadderParams, RecoveryRung, ReputationParams,
    ShedParams, Standing,
};
pub use server::ConnectionServer;
pub use stats::{fleet_lineup_from_runs, RuntimeStats, StatsSnapshot, TelemetryReport};
// Observability vocabulary, re-exported for the same reason — the
// histogram moved to `sdrad-telemetry` (the registry serves it too) but
// stays available under its historical `sdrad_runtime` path. The
// streaming types ride along so harnesses configure the collector sink
// and read its books without a direct `sdrad-telemetry` dependency.
pub use sdrad_telemetry::{
    Collector, DeltaFrame, EventKind, LatencyHistogram, LiveTotals, ShedReason, Source, Spike,
    StreamingConfig, StreamingReport, TelemetryConfig, TelemetrySnapshot, TraceEvent, TraceLog,
    WindowRollup,
};
pub use wake::WakeSet;
pub use worker::{Worker, WorkerStats};

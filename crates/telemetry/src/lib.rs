//! # sdrad-telemetry — deterministic observability for the runtime
//!
//! The runtime's statistics answer *how much* (counters, balanced by
//! reconciliation laws); they cannot answer *what happened, in what
//! order* when a run misbehaves — which shard shed a client's burst,
//! when the control plane crossed it into quarantine, whether the ban
//! came before or after the flash crowd. This crate supplies that
//! layer, built around the same discipline as the rest of the
//! workspace: everything deterministic, everything conservation-checked,
//! everything off by default and provably cheap when off.
//!
//! * **Flight recorder** ([`TraceRing`], [`Recorder`], [`TraceEvent`]) —
//!   fixed-capacity lock-free rings of structured events (submits,
//!   sheds, rewinds, standing crossings, parks/wakes), stamped
//!   by one injected [`LogicalClock`] so merged drains have a total
//!   order. Overflow sheds and counts; a drain is checked against the
//!   conservation law `emitted == drained + dropped + in_ring`.
//! * **Ring books** ([`TelemetrySnapshot`]) — every ring's conservation
//!   counters and occupancy, cut after the final drain. The numbers the
//!   run itself counts (requests, latencies, decisions, joules) live in
//!   the typed books of the crates that count them, not here.
//! * **Post-mortem queries** ([`TraceLog`], [`TraceQuery`]) — filter a
//!   drained log by client/shard/kind/stamp, bucket matches into stamp
//!   windows ([`TraceQuery::windowed`]) and reconstruct a client's
//!   escalation ladder ([`BanPath`]) from trace data alone.
//! * **Streaming** ([`DeltaFrame`], [`Collector`], [`Sampler`],
//!   [`WindowBook`]) — one cumulative-total ([`LiveTotals`]) delta
//!   frame per pump pass shipped into an in-process collector that
//!   maintains incremental sliding-window rollups and answers each
//!   delivery with the windowed fault spikes it caused, which the
//!   runtime feeds back to admission; an overload-adaptive head sampler
//!   thins high-volume chatter under ring pressure with exact per-kind
//!   `sampled_out` books (the extended conservation law
//!   `recorded == drained + dropped + sampled_out + in_ring`).
//!
//! When telemetry is [`TelemetryConfig::Off`] (the default), every
//! emit point is a single discriminant test — no allocation, no
//! atomics, no stores — a property `bench_report` measures and the CI
//! overhead gate asserts.
//!
//! ## Example
//!
//! ```
//! use sdrad_telemetry::{
//!     EventKind, LogicalClock, Recorder, Source, TraceLog, TraceRing,
//! };
//! use std::sync::Arc;
//!
//! let ring = Arc::new(TraceRing::new(1 << 10));
//! let clock = LogicalClock::new();
//! let control = Recorder::on(Arc::clone(&ring), clock.clone(), Source::Control);
//!
//! // A client climbs the escalation ladder…
//! control.emit(EventKind::Throttle, 0, 666, 0);
//! control.emit(EventKind::Quarantine, 0, 666, 0);
//! control.emit(EventKind::Ban, 0, 666, 0);
//!
//! // …and the post-mortem reconstructs the path from the drain alone.
//! let log = TraceLog::new(ring.drain());
//! assert!(ring.counters().conserves(0), "emitted == drained + dropped");
//! let path = log.ban_path(666).expect("banned");
//! assert!(path.is_complete(), "{}", path.describe());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod histogram;
mod json;
mod query;
mod recorder;
mod ring;
mod sink;
mod snapshot;
mod window;

pub use event::{EventKind, ShedReason, Source, TraceEvent};
pub use histogram::LatencyHistogram;
pub use json::{Json, JsonError};
pub use query::{BanPath, TraceLog, TraceQuery, WindowCounts};
pub use recorder::{LogicalClock, Recorder, Sampler, TelemetryConfig};
pub use ring::{RingCounters, TraceRing};
pub use sink::{
    Collector, DeltaFrame, LiveTotals, Spike, StreamingConfig, StreamingReport, LOG_RETAIN,
    WINDOW_BUCKETS, WINDOW_NS,
};
pub use snapshot::{RingStat, TelemetrySnapshot};
pub use window::{recompute_rollup, WindowBook, WindowRollup};

//! The emit-side handle: a [`Recorder`] either wraps a ring (enabled)
//! or is a guaranteed no-op (off).
//!
//! The off path is the contract the runtime's hot paths rely on:
//! [`Recorder::Off`] is a fieldless variant, so `emit` compiles to a
//! single discriminant test and no stores — "compile-time cheap", and
//! asserted cheap by the `bench_report` overhead section.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::event::{EventKind, Source, TraceEvent};
use crate::ring::{RingCounters, TraceRing};

/// The injected logical clock: one shared monotone counter stamping
/// every event of a runtime, across all of its rings. Logical, not
/// wall-clock, so merged drains have a total order that is stable under
/// replay and never goes backwards between threads.
#[derive(Debug, Clone, Default)]
pub struct LogicalClock(Arc<AtomicU64>);

impl LogicalClock {
    /// A fresh clock at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Claims the next stamp.
    #[must_use]
    pub fn tick(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Stamps issued so far.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// Whether — and how big — the flight recorder runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryConfig {
    /// No recorder: every emit point is a no-op store (the default).
    #[default]
    Off,
    /// Record into fixed-capacity rings of this many events each.
    Enabled {
        /// Per-ring event capacity (rounded up to a power of two).
        ring_capacity: usize,
    },
}

impl TelemetryConfig {
    /// The conventional enabled configuration (64 Ki events per ring).
    #[must_use]
    pub fn enabled() -> Self {
        TelemetryConfig::Enabled {
            ring_capacity: 1 << 16,
        }
    }

    /// True when events will be recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        matches!(self, TelemetryConfig::Enabled { .. })
    }
}

/// Overload-adaptive head sampler sitting in front of a ring.
///
/// Control-relevant evidence (rewinds, rung decisions, standing
/// crossings, sheds) is **always** kept. High-volume chatter
/// ([`EventKind::is_sampleable`]: submits and park/wake) is thinned by
/// a stride driven by the ring's current occupancy: keep-all below half
/// full, then 1-in-2, 1-in-4 and 1-in-8 as the ring approaches
/// overflow. Refusals are booked per kind on the ring
/// ([`TraceRing::note_sampled_out`]) so query answers stay honest about
/// what the sampler hid — a deliberately thinned submit is never
/// confused with an overflow drop.
#[derive(Debug, Clone, Default)]
pub struct Sampler {
    /// Shared count of sampleable events seen (the head-sampling phase),
    /// shared across clones so co-ring handles stride together.
    seen: Arc<AtomicU64>,
}

/// Occupancy → keep stride: 1 below half full, then 2, 4, 8 as the
/// ring fills. Pure so tests can pin the policy.
fn stride_for(len: u64, capacity: u64) -> u64 {
    if len * 2 < capacity {
        1
    } else if len * 4 < capacity * 3 {
        2
    } else if len * 8 < capacity * 7 {
        4
    } else {
        8
    }
}

impl Sampler {
    /// A fresh sampler (keep-all until its ring crosses half full).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Decides whether `kind` earns a slot in `ring` right now. Always
    /// true for control-relevant kinds; for high-volume kinds, true on
    /// the occupancy-driven stride. A refusal is *not* booked here —
    /// the caller books it via [`TraceRing::note_sampled_out`] so the
    /// decision and its accounting stay at the same call site.
    #[must_use]
    pub fn admit(&self, kind: EventKind, ring: &TraceRing) -> bool {
        if !kind.is_sampleable() {
            return true;
        }
        let n = self.seen.fetch_add(1, Ordering::Relaxed);
        let stride = stride_for(ring.len(), ring.capacity() as u64);
        stride <= 1 || n.is_multiple_of(stride)
    }
}

/// One emit handle. Cheap to clone (two `Arc`s when on, nothing when
/// off); each worker owns one bound to its own SPSC ring, the
/// dispatcher and control plane own shared-ring handles.
#[derive(Debug, Clone, Default)]
pub enum Recorder {
    /// Emission disabled: [`emit`](Self::emit) does nothing.
    #[default]
    Off,
    /// Emission enabled into `ring`, stamped by `clock`.
    On {
        /// The destination ring.
        ring: Arc<TraceRing>,
        /// The shared logical clock.
        clock: LogicalClock,
        /// The source identity stamped on every event from this handle.
        source: Source,
        /// The overload-adaptive head sampler guarding the push.
        sampler: Sampler,
    },
}

impl Recorder {
    /// A recording handle for `source`.
    #[must_use]
    pub fn on(ring: Arc<TraceRing>, clock: LogicalClock, source: Source) -> Self {
        Recorder::On {
            ring,
            clock,
            source,
            sampler: Sampler::new(),
        }
    }

    /// True when this handle records.
    #[must_use]
    pub fn is_on(&self) -> bool {
        matches!(self, Recorder::On { .. })
    }

    /// The destination ring, when recording (the runtime's flush tick
    /// drains a worker's own ring through this).
    #[must_use]
    pub fn ring(&self) -> Option<&Arc<TraceRing>> {
        match self {
            Recorder::Off => None,
            Recorder::On { ring, .. } => Some(ring),
        }
    }

    /// Records one event (shed on ring overflow, never blocking). The
    /// off path is a single discriminant test. The sampler runs before
    /// the clock tick, so a sampled-out event consumes no stamp and
    /// merged logs stay dense.
    #[inline]
    pub fn emit(&self, kind: EventKind, shard: u16, client: u64, detail: u64) {
        let Recorder::On {
            ring,
            clock,
            source,
            sampler,
        } = self
        else {
            return;
        };
        if !sampler.admit(kind, ring) {
            ring.note_sampled_out(kind);
            return;
        }
        let event = TraceEvent {
            stamp: clock.tick(),
            kind,
            source: *source,
            shard,
            client,
            detail,
        };
        let _ = ring.push(&event);
    }

    /// The underlying ring's conservation counters (zero when off).
    #[must_use]
    pub fn counters(&self) -> RingCounters {
        match self {
            Recorder::Off => RingCounters::default(),
            Recorder::On { ring, .. } => ring.counters(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_emits_nothing_and_counts_nothing() {
        let recorder = Recorder::Off;
        for _ in 0..1000 {
            recorder.emit(EventKind::Rewind, 0, 42, 7);
        }
        assert_eq!(recorder.counters(), RingCounters::default());
        assert!(!recorder.is_on());
    }

    #[test]
    fn on_recorder_stamps_with_the_shared_clock() {
        let ring = Arc::new(TraceRing::new(64));
        let clock = LogicalClock::new();
        let a = Recorder::on(Arc::clone(&ring), clock.clone(), Source::Worker(0));
        let b = Recorder::on(Arc::clone(&ring), clock.clone(), Source::Dispatcher);
        a.emit(EventKind::Submit, 0, 1, 0);
        b.emit(EventKind::Shed, 0, 2, 0);
        a.emit(EventKind::Rewind, 0, 1, 900);
        let events = ring.drain();
        assert_eq!(events.len(), 3);
        let stamps: Vec<u64> = events.iter().map(|e| e.stamp).collect();
        assert_eq!(stamps, vec![0, 1, 2], "one shared monotone clock");
        assert_eq!(events[1].source, Source::Dispatcher);
        assert_eq!(clock.now(), 3);
    }

    #[test]
    fn stride_follows_occupancy_bands() {
        // Below half: keep all. [1/2, 3/4): 1-in-2. [3/4, 7/8): 1-in-4.
        // At 7/8 and above: 1-in-8.
        assert_eq!(stride_for(0, 64), 1);
        assert_eq!(stride_for(31, 64), 1);
        assert_eq!(stride_for(32, 64), 2);
        assert_eq!(stride_for(47, 64), 2);
        assert_eq!(stride_for(48, 64), 4);
        assert_eq!(stride_for(55, 64), 4);
        assert_eq!(stride_for(56, 64), 8);
        assert_eq!(stride_for(64, 64), 8);
    }

    #[test]
    fn sampler_never_thins_control_evidence() {
        let ring = TraceRing::new(8);
        // Saturate the ring so sampleable kinds would be thinned hard.
        for i in 0..8 {
            assert!(ring.push(&TraceEvent {
                stamp: i,
                kind: EventKind::Submit,
                source: Source::Worker(0),
                shard: 0,
                client: 1,
                detail: 0,
            }));
        }
        let sampler = Sampler::new();
        for kind in [
            EventKind::Rewind,
            EventKind::Rung,
            EventKind::Throttle,
            EventKind::Quarantine,
            EventKind::Ban,
            EventKind::Shed,
        ] {
            for _ in 0..100 {
                assert!(sampler.admit(kind, &ring), "{kind:?} must always pass");
            }
        }
    }

    #[test]
    fn saturated_ring_sheds_submits_into_sampled_out_books() {
        let ring = Arc::new(TraceRing::new(8));
        let clock = LogicalClock::new();
        let recorder = Recorder::on(Arc::clone(&ring), clock.clone(), Source::Worker(0));
        // Fill the ring without draining: occupancy pins at capacity,
        // so the sampler drops to 1-in-8 for submits.
        for i in 0..64 {
            recorder.emit(EventKind::Submit, 0, i, 0);
        }
        let counters = ring.counters();
        assert!(counters.sampled_out > 0, "pressure must engage the sampler");
        assert_eq!(counters.recorded(), 64);
        assert!(counters.conserves(ring.len()), "{counters:?}");
        // Sampled-out events consumed no stamp: the clock only advanced
        // for events that reached a push attempt.
        assert_eq!(clock.now(), counters.emitted);
        let by_kind = ring.sampled_out_by_kind();
        assert_eq!(by_kind[EventKind::Submit as usize], counters.sampled_out);
    }

    #[test]
    fn below_half_occupancy_keeps_everything() {
        let ring = Arc::new(TraceRing::new(64));
        let recorder = Recorder::on(Arc::clone(&ring), LogicalClock::new(), Source::Worker(0));
        for i in 0..20 {
            recorder.emit(EventKind::Submit, 0, i, 0);
        }
        let counters = ring.counters();
        assert_eq!(counters.emitted, 20, "keep-all below half full");
        assert_eq!(counters.sampled_out, 0);
    }

    #[test]
    fn config_default_is_off() {
        assert_eq!(TelemetryConfig::default(), TelemetryConfig::Off);
        assert!(TelemetryConfig::enabled().is_enabled());
        assert!(!TelemetryConfig::Off.is_enabled());
    }
}

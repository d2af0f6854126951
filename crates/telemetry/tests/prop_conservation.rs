//! Properties of the telemetry layer:
//!
//! * **Conservation** — for any interleaving of emits and drains on any
//!   ring size, `emitted == drained + dropped + in_ring`, and after a
//!   final drain nothing remains in the ring;
//! * **Off is silent** — an [`Recorder::Off`] handle emits nothing and
//!   counts nothing, whatever is thrown at it.

use std::sync::Arc;

use proptest::prelude::*;
use sdrad_telemetry::{
    EventKind, LogicalClock, Recorder, RingCounters, Source, TraceLog, TraceRing,
};

/// Replays a seeded op stream against a ring: even draws emit, odd
/// draws drain one. Returns the ring for post-hoc inspection.
fn replay(seed: u64, ops: usize, capacity: usize) -> Arc<TraceRing> {
    let ring = Arc::new(TraceRing::new(capacity));
    let clock = LogicalClock::new();
    let recorder = Recorder::on(Arc::clone(&ring), clock, Source::Worker(0));
    let mut x = seed | 1;
    for _ in 0..ops {
        // SplitMix-ish scramble: deterministic per seed.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x.is_multiple_of(3) {
            let _ = ring.pop();
        } else {
            let kind = EventKind::ALL[(x as usize / 3) % EventKind::ALL.len()];
            recorder.emit(kind, (x >> 8) as u16 % 4, x % 64, x % 1000);
        }
    }
    ring
}

proptest! {
    #[test]
    fn every_interleaving_conserves(
        seed in 0u64..10_000,
        ops in 1usize..2_000,
        capacity in 0usize..512,
    ) {
        let ring = replay(seed, ops, capacity);
        prop_assert!(
            ring.counters().conserves(ring.len()),
            "mid-run: {:?} in_ring={}", ring.counters(), ring.len()
        );
        let tail = ring.drain().len() as u64;
        let counters = ring.counters();
        prop_assert!(counters.conserves(0), "post-drain: {counters:?} tail={tail}");
        prop_assert_eq!(ring.len(), 0, "final drain empties the ring");
        prop_assert_eq!(counters.emitted, counters.drained + counters.dropped);
    }

    #[test]
    fn off_recorder_emits_nothing(
        clients in proptest::collection::vec(0u64..1_000, 1..200),
    ) {
        let recorder = Recorder::default();
        for (i, &client) in clients.iter().enumerate() {
            let kind = EventKind::ALL[i % EventKind::ALL.len()];
            recorder.emit(kind, (i % 7) as u16, client, i as u64);
        }
        prop_assert!(!recorder.is_on());
        prop_assert_eq!(recorder.counters(), RingCounters::default());
    }

    #[test]
    fn drained_logs_reconstruct_emission_order(
        seed in 0u64..10_000,
        emits in 1usize..500,
    ) {
        // Two recorders share one clock into two rings (big enough that
        // nothing drops): the merged log must be stamp-total-ordered
        // with no duplicates and no gaps.
        let clock = LogicalClock::new();
        let worker_ring = Arc::new(TraceRing::new(1024));
        let control_ring = Arc::new(TraceRing::new(1024));
        let worker = Recorder::on(Arc::clone(&worker_ring), clock.clone(), Source::Worker(1));
        let control = Recorder::on(Arc::clone(&control_ring), clock.clone(), Source::Control);
        let mut x = seed | 1;
        for _ in 0..emits {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x % 2 == 0 {
                worker.emit(EventKind::Rewind, 1, x % 16, 0);
            } else {
                control.emit(EventKind::Throttle, 0, x % 16, 0);
            }
        }
        let mut events = worker_ring.drain();
        events.extend(control_ring.drain());
        let log = TraceLog::new(events);
        prop_assert_eq!(log.len(), emits);
        let stamps: Vec<u64> = log.events().iter().map(|e| e.stamp).collect();
        let expected: Vec<u64> = (0..emits as u64).collect();
        prop_assert_eq!(stamps, expected, "shared clock => dense total order");
    }
}

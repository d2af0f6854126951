//! The streaming leg's per-pass cost, pinned: after a source's first
//! frame, delivering a delta frame allocates nothing, and a frame that
//! carries events costs at most the one growth of the collector's
//! retained log. Every pump pass of every worker ships a frame, so an
//! allocation here is an allocation per pass.

use sdrad_nolock::arena::{count_allocs_on_this_thread, counted_allocs};
use sdrad_runtime::{
    Collector, DeltaFrame, EventKind, LiveTotals, Source, StreamingConfig, TraceEvent,
};

#[global_allocator]
static ALLOC: sdrad_nolock::CountingAlloc = sdrad_nolock::CountingAlloc::new();

fn frame(seq: u64, events: Vec<TraceEvent>) -> DeltaFrame {
    DeltaFrame {
        source: Source::Worker(0),
        seq,
        totals: LiveTotals {
            served: seq * 10,
            ok: seq * 9,
            contained_faults: seq,
            ..LiveTotals::default()
        },
        events,
    }
}

/// A pass's worth of events: park/wake chatter plus one client's
/// rewinds (below the spike threshold, so no spike is reported).
fn events(n: u64) -> Vec<TraceEvent> {
    (0..n)
        .map(|i| TraceEvent {
            stamp: i,
            kind: if i % 2 == 0 {
                EventKind::Wake
            } else {
                EventKind::Rewind
            },
            source: Source::Worker(0),
            shard: 0,
            client: i % 2 * 7,
            detail: 0,
        })
        .collect()
}

/// Allocations `deliver_at` makes for `frame` (built by the caller, so
/// its own `Vec` is not counted).
fn allocs_delivering(collector: &Collector, frame: DeltaFrame) -> u64 {
    count_allocs_on_this_thread(true);
    let before = counted_allocs();
    let spikes = collector.deliver_at(frame, 0);
    let allocs = counted_allocs() - before;
    count_allocs_on_this_thread(false);
    assert!(spikes.is_empty());
    allocs
}

#[test]
fn a_delivered_frame_allocates_nothing_past_the_log_it_retains() {
    let collector = Collector::new(StreamingConfig {
        spike_faults: u64::MAX,
    });
    // The source's first frame creates its baseline and the window
    // bucket's per-client entries.
    collector.deliver_at(frame(0, events(4)), 0);
    for seq in 1..64 {
        assert_eq!(
            allocs_delivering(&collector, frame(seq, Vec::new())),
            0,
            "an eventless frame (seq {seq}) must not allocate"
        );
    }
    for seq in 64..128 {
        let allocs = allocs_delivering(&collector, frame(seq, events(seq % 9)));
        assert!(
            allocs <= 1,
            "{allocs} allocations for {} events (seq {seq}); only the log may grow",
            seq % 9
        );
    }
    assert_eq!(collector.regressions(), 0);
    assert_eq!(collector.lost_frames(), 0);
}

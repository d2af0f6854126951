//! Properties of the windowed-aggregation layer:
//!
//! * **Incremental == recompute** — for any monotone observation
//!   sequence, the collector's incremental [`WindowBook`] rollup is
//!   identical to a from-scratch recompute over the same observations
//!   ([`recompute_rollup`]), at every query time;
//! * **Collector delta books** — for any frame schedule (including
//!   lost frames), cumulative-total diffing reproduces the true totals
//!   and never undercounts after a loss;
//! * **Spikes at delivery == whole-window scan** — the spikes a
//!   delivery returns (judged only for the clients its own frame
//!   faulted) are the spikes a from-scratch scan of every client in
//!   the window, run after the same frame, would report.

use std::collections::BTreeMap;

use proptest::prelude::*;
use sdrad_telemetry::{
    recompute_rollup, Collector, DeltaFrame, EventKind, LiveTotals, Source, Spike, StreamingConfig,
    TraceEvent, WindowBook, WINDOW_BUCKETS, WINDOW_NS,
};

/// Deterministic event stream: seeded xorshift over kinds/clients with
/// strictly nondecreasing observation times.
fn observations(seed: u64, count: usize) -> Vec<(u64, TraceEvent)> {
    let mut x = seed | 1;
    let mut now = 0u64;
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        now += x % 97; // monotone, gappy arrival times
        let kind = match x % 5 {
            0 => EventKind::Rewind,
            1 => EventKind::Shed,
            2 => EventKind::Park,
            _ => EventKind::Submit,
        };
        #[allow(clippy::cast_possible_truncation)]
        let shard = (x % 3) as u16;
        out.push((
            now,
            TraceEvent {
                stamp: i as u64,
                kind,
                source: Source::Worker(shard),
                shard,
                client: x % 6,
                detail: x % 4,
            },
        ));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The satellite proptest: the incremental collector rollup equals
    /// a from-scratch recompute over the same log, for arbitrary
    /// windows, bucket counts and observation streams — both mid-stream
    /// and at the end.
    #[test]
    fn incremental_rollups_equal_recompute(
        seed in 1u64..u64::MAX,
        count in 1usize..300,
        window_ns in 1u64..5_000,
        buckets in 1usize..24,
    ) {
        let observations = observations(seed, count);
        let mut book = WindowBook::new(window_ns, buckets);
        for (i, (at_ns, event)) in observations.iter().enumerate() {
            book.observe(*at_ns, event);
            // Check at a sprinkling of intermediate points too, so a
            // bucket-recycling bug mid-stream cannot hide behind a
            // correct final answer.
            if i % 50 == 0 {
                let oracle = recompute_rollup(window_ns, buckets, &observations[..=i], *at_ns);
                for client in 0..6 {
                    prop_assert_eq!(
                        book.client_faults(*at_ns, client),
                        oracle.faults_by_client.get(&client).copied().unwrap_or(0)
                    );
                }
                prop_assert_eq!(book.rollup(*at_ns), oracle);
            }
        }
        let last = observations.last().unwrap().0;
        for query_at in [last, last + window_ns, last + 10 * window_ns.max(1)] {
            prop_assert_eq!(
                book.rollup(query_at),
                recompute_rollup(window_ns, buckets, &observations, query_at)
            );
        }
    }

    /// Cumulative-total frames reproduce true totals through any loss
    /// pattern: deliver only a seeded subset of frames and the final
    /// aggregate still equals the last shipped total per source.
    #[test]
    fn lost_frames_never_desynchronize_totals(
        seed in 1u64..u64::MAX,
        frames in 1u64..40,
    ) {
        let collector = Collector::new(StreamingConfig::enabled());
        let mut x = seed | 1;
        let mut total = 0u64;
        let mut last_delivered_total = 0u64;
        let mut delivered = 0u64;
        for seq in 0..frames {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            total += x % 100;
            // ~1 in 3 frames is "lost" (never delivered).
            if x % 3 == 0 && seq + 1 != frames {
                continue;
            }
            collector.deliver_at(
                DeltaFrame {
                    source: Source::Worker(0),
                    seq,
                    totals: LiveTotals { served: total, ..LiveTotals::default() },
                    events: Vec::new(),
                },
                seq,
            );
            delivered += 1;
            last_delivered_total = total;
        }
        prop_assert_eq!(collector.totals().served, last_delivered_total);
        prop_assert_eq!(collector.frames(), delivered);
        prop_assert_eq!(collector.lost_frames() + delivered, frames);
        prop_assert_eq!(collector.regressions(), 0);
    }

    /// Arbitrary multi-source frame schedules at nondecreasing collector
    /// times (gaps up to several windows, so expiry and bucket recycling
    /// both occur): the spikes `deliver_at` returns equal the spikes a
    /// whole-window oracle — `recompute_rollup` over every observation
    /// so far, every client at or above the threshold, per-client
    /// watermarks — reports after the same frame.
    #[test]
    fn delivered_spikes_equal_the_whole_window_scan(
        seed in 1u64..u64::MAX,
        frames in 1usize..60,
        spike_faults in 1u64..6,
    ) {
        let collector = Collector::new(StreamingConfig { spike_faults });
        let mut observations: Vec<(u64, TraceEvent)> = Vec::new();
        let mut total: BTreeMap<u64, (u64, u16)> = BTreeMap::new();
        let mut reported: BTreeMap<u64, u64> = BTreeMap::new();
        let mut seqs = [0u64; 3];
        let mut x = seed | 1;
        let mut now = 0u64;
        let mut stamp = 0u64;
        for _ in 0..frames {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Mostly sub-bucket steps, sometimes a jump past the window.
            now += if x % 11 == 0 { x % (3 * WINDOW_NS) } else { x % (WINDOW_NS / 8) };
            #[allow(clippy::cast_possible_truncation)]
            let worker = (x % 3) as u16;
            let events: Vec<TraceEvent> = (0..(x >> 8) % 7)
                .map(|i| {
                    let roll = x.rotate_left(7 * (i as u32 + 1));
                    stamp += 1;
                    TraceEvent {
                        stamp,
                        kind: if roll % 3 == 0 { EventKind::Submit } else { EventKind::Rewind },
                        source: Source::Worker(worker),
                        shard: worker,
                        client: roll % 4,
                        detail: 0,
                    }
                })
                .collect();
            for event in &events {
                observations.push((now, *event));
                if event.kind == EventKind::Rewind {
                    let books = total.entry(event.client).or_insert((0, 0));
                    books.0 += 1;
                    books.1 = event.shard;
                }
            }
            let mut delivered = collector.deliver_at(
                DeltaFrame {
                    source: Source::Worker(worker),
                    seq: seqs[usize::from(worker)],
                    totals: LiveTotals::default(),
                    events,
                },
                now,
            );
            seqs[usize::from(worker)] += 1;
            let window = recompute_rollup(WINDOW_NS, WINDOW_BUCKETS, &observations, now);
            let mut expected = Vec::new();
            for (&client, &count) in &window.faults_by_client {
                let (faults, shard) = total[&client];
                let watermark = reported.entry(client).or_insert(0);
                if count >= spike_faults && faults > *watermark {
                    expected.push(Spike { client, shard, new_faults: faults - *watermark });
                    *watermark = faults;
                }
            }
            delivered.sort_by_key(|spike| spike.client);
            prop_assert_eq!(delivered, expected, "at {}", now);
        }
        prop_assert_eq!(collector.lost_frames(), 0);
    }
}

//! Incremental sliding-window aggregations over trace events.
//!
//! The collector cannot afford a from-scratch scan of everything it has
//! ever received each time admission asks "what is this client's fault
//! rate *right now*" — so rollups are maintained incrementally in a
//! fixed number of time buckets. The semantics are deliberately
//! **quantized**: an observation at time `t` lands in bucket
//! `floor(t / bucket_ns)`, and a rollup at time `T` covers exactly the
//! last `buckets` bucket indices ending at `floor(T / bucket_ns)`.
//! Quantized windows make the incremental books *provably* equal to a
//! from-scratch recompute over the same event log (a property the
//! `window_rollups` proptest pins), at the cost of the window edge
//! moving in bucket-sized steps rather than sliding continuously.
//!
//! Three rollups are kept, chosen for what admission needs:
//! events/sec per client (who is noisy), faults/sec per shard (where
//! rewinds concentrate), and shed-rate per [`ShedReason`] class (what
//! the runtime is refusing, and why).

use std::collections::BTreeMap;

use crate::event::{EventKind, ShedReason, TraceEvent};

/// One bucket's books: per-client event counts, per-shard fault
/// (rewind) counts, per-shed-reason counts.
#[derive(Debug, Clone, Default)]
struct Bucket {
    /// The bucket index this slot currently holds (`u64::MAX` = empty).
    index: u64,
    events_by_client: BTreeMap<u64, u64>,
    faults_by_client: BTreeMap<u64, u64>,
    faults_by_shard: BTreeMap<u16, u64>,
    sheds_by_reason: BTreeMap<u64, u64>,
}

impl Bucket {
    fn clear_for(&mut self, index: u64) {
        self.index = index;
        self.events_by_client.clear();
        self.faults_by_client.clear();
        self.faults_by_shard.clear();
        self.sheds_by_reason.clear();
    }
}

/// The rollup of the current window: counts summed over the covered
/// buckets, plus the window span so callers can turn counts into rates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowRollup {
    /// The window width the counts cover, in nanoseconds.
    pub span_ns: u64,
    /// Events observed per client over the window.
    pub events_by_client: BTreeMap<u64, u64>,
    /// Contained faults (rewinds) per client over the window — the
    /// quantity the admission spike threshold is judged against.
    pub faults_by_client: BTreeMap<u64, u64>,
    /// Contained faults (rewinds) per shard over the window.
    pub faults_by_shard: BTreeMap<u16, u64>,
    /// Sheds per [`ShedReason`] discriminant over the window.
    pub sheds_by_reason: BTreeMap<u64, u64>,
}

impl WindowRollup {
    /// `count` scaled to a per-second rate over this window's span.
    #[must_use]
    pub fn per_sec(&self, count: u64) -> f64 {
        if self.span_ns == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            count as f64 * 1e9 / self.span_ns as f64
        }
    }

    /// The shed rate for one [`ShedReason`] class, sheds per second.
    #[must_use]
    pub fn shed_rate(&self, reason: ShedReason) -> f64 {
        self.per_sec(
            self.sheds_by_reason
                .get(&(reason as u64))
                .copied()
                .unwrap_or(0),
        )
    }
}

/// The incremental window book: a ring of `buckets` time buckets of
/// `bucket_ns` each, giving a window of `buckets * bucket_ns`.
#[derive(Debug, Clone)]
pub struct WindowBook {
    bucket_ns: u64,
    buckets: Vec<Bucket>,
}

impl WindowBook {
    /// A book of `buckets` buckets spanning `window_ns` in total.
    /// Both are floored at sane minimums (1 bucket, 1 ns each).
    #[must_use]
    pub fn new(window_ns: u64, buckets: usize) -> Self {
        let buckets = buckets.max(1);
        let bucket_ns = (window_ns / buckets as u64).max(1);
        WindowBook {
            bucket_ns,
            buckets: vec![
                Bucket {
                    index: u64::MAX,
                    ..Bucket::default()
                };
                buckets
            ],
        }
    }

    /// The total window span the book covers, in nanoseconds.
    #[must_use]
    pub fn window_ns(&self) -> u64 {
        self.bucket_ns * self.buckets.len() as u64
    }

    /// Books one event observed at collector time `now_ns`.
    pub fn observe(&mut self, now_ns: u64, event: &TraceEvent) {
        let index = now_ns / self.bucket_ns;
        let slots = self.buckets.len() as u64;
        let slot = &mut self.buckets[(index % slots) as usize];
        if slot.index != index {
            // This slot last held a bucket a full lap ago; recycle it.
            slot.clear_for(index);
        }
        *slot.events_by_client.entry(event.client).or_insert(0) += 1;
        match event.kind {
            EventKind::Rewind => {
                *slot.faults_by_client.entry(event.client).or_insert(0) += 1;
                *slot.faults_by_shard.entry(event.shard).or_insert(0) += 1;
            }
            EventKind::Shed => {
                *slot.sheds_by_reason.entry(event.detail).or_insert(0) += 1;
            }
            _ => {}
        }
    }

    /// The buckets inside the window ending at `now_ns`: the last
    /// `buckets` bucket indices, expired buckets excluded.
    fn live(&self, now_ns: u64) -> impl Iterator<Item = &Bucket> {
        let end = now_ns / self.bucket_ns;
        let start = end.saturating_sub(self.buckets.len() as u64 - 1);
        self.buckets
            .iter()
            .filter(move |slot| (start..=end).contains(&slot.index))
    }

    /// One client's contained faults over the window ending at
    /// `now_ns` — [`rollup`](Self::rollup)`.faults_by_client[client]`
    /// without building the rollup (the collector's per-frame spike
    /// check).
    #[must_use]
    pub fn client_faults(&self, now_ns: u64, client: u64) -> u64 {
        self.live(now_ns)
            .filter_map(|slot| slot.faults_by_client.get(&client))
            .sum()
    }

    /// The rollup over the window ending at `now_ns`.
    #[must_use]
    pub fn rollup(&self, now_ns: u64) -> WindowRollup {
        let mut rollup = WindowRollup {
            span_ns: self.window_ns(),
            ..WindowRollup::default()
        };
        for slot in self.live(now_ns) {
            for (&client, &count) in &slot.events_by_client {
                *rollup.events_by_client.entry(client).or_insert(0) += count;
            }
            for (&client, &count) in &slot.faults_by_client {
                *rollup.faults_by_client.entry(client).or_insert(0) += count;
            }
            for (&shard, &count) in &slot.faults_by_shard {
                *rollup.faults_by_shard.entry(shard).or_insert(0) += count;
            }
            for (&reason, &count) in &slot.sheds_by_reason {
                *rollup.sheds_by_reason.entry(reason).or_insert(0) += count;
            }
        }
        rollup
    }
}

/// From-scratch recompute of the rollup a [`WindowBook`] of
/// `window_ns`/`buckets` would answer at `now_ns`, over `(time, event)`
/// observations. The oracle for the incremental implementation: the
/// `window_rollups` proptest asserts the two are identical over
/// arbitrary observation sequences.
#[must_use]
pub fn recompute_rollup(
    window_ns: u64,
    buckets: usize,
    observations: &[(u64, TraceEvent)],
    now_ns: u64,
) -> WindowRollup {
    let buckets = buckets.max(1) as u64;
    let bucket_ns = (window_ns / buckets).max(1);
    let end = now_ns / bucket_ns;
    let start = end.saturating_sub(buckets - 1);
    let mut rollup = WindowRollup {
        span_ns: bucket_ns * buckets,
        ..WindowRollup::default()
    };
    for (at_ns, event) in observations {
        let index = at_ns / bucket_ns;
        if index < start || index > end {
            continue;
        }
        *rollup.events_by_client.entry(event.client).or_insert(0) += 1;
        match event.kind {
            EventKind::Rewind => {
                *rollup.faults_by_client.entry(event.client).or_insert(0) += 1;
                *rollup.faults_by_shard.entry(event.shard).or_insert(0) += 1;
            }
            EventKind::Shed => {
                *rollup.sheds_by_reason.entry(event.detail).or_insert(0) += 1;
            }
            _ => {}
        }
    }
    rollup
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Source;

    fn event(kind: EventKind, shard: u16, client: u64, detail: u64) -> TraceEvent {
        TraceEvent {
            stamp: 0,
            kind,
            source: Source::Worker(shard),
            shard,
            client,
            detail,
        }
    }

    #[test]
    fn rollup_counts_only_the_live_window() {
        // 4 buckets × 25ns = 100ns window.
        let mut book = WindowBook::new(100, 4);
        book.observe(10, &event(EventKind::Submit, 0, 7, 0));
        book.observe(30, &event(EventKind::Submit, 0, 7, 0));
        book.observe(90, &event(EventKind::Rewind, 2, 7, 500));
        let rollup = book.rollup(90);
        assert_eq!(rollup.events_by_client.get(&7), Some(&3));
        assert_eq!(rollup.faults_by_shard.get(&2), Some(&1));
        // Advance to now=140: the window covers bucket indices 2..=5
        // (t in [50,150)), so the events at t=10 and t=30 both expire
        // and only the rewind at t=90 remains.
        let rollup = book.rollup(140);
        assert_eq!(rollup.events_by_client.get(&7), Some(&1));
        assert_eq!(rollup.faults_by_client.get(&7), Some(&1));
        assert_eq!(book.client_faults(140, 7), 1);
        assert_eq!(book.client_faults(200, 7), 0, "expired");
    }

    #[test]
    fn buckets_recycle_after_a_full_lap() {
        let mut book = WindowBook::new(100, 4);
        book.observe(0, &event(EventKind::Submit, 0, 1, 0));
        // One full lap later the same slot is reused for a new index.
        book.observe(100, &event(EventKind::Submit, 0, 2, 0));
        let rollup = book.rollup(100);
        assert_eq!(rollup.events_by_client.get(&1), None, "expired");
        assert_eq!(rollup.events_by_client.get(&2), Some(&1));
    }

    #[test]
    fn shed_rates_key_by_reason_class() {
        let mut book = WindowBook::new(1_000_000_000, 10);
        for _ in 0..5 {
            book.observe(
                10,
                &event(EventKind::Shed, 0, 9, ShedReason::Throttle as u64),
            );
        }
        book.observe(10, &event(EventKind::Shed, 0, 9, ShedReason::Ban as u64));
        let rollup = book.rollup(10);
        assert!((rollup.shed_rate(ShedReason::Throttle) - 5.0).abs() < 1e-9);
        assert!((rollup.shed_rate(ShedReason::Ban) - 1.0).abs() < 1e-9);
        assert!((rollup.shed_rate(ShedReason::Overload) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn incremental_matches_recompute_on_a_fixed_sequence() {
        let observations: Vec<(u64, TraceEvent)> = (0..200u64)
            .map(|i| {
                let kind = match i % 5 {
                    0 => EventKind::Rewind,
                    1 => EventKind::Shed,
                    _ => EventKind::Submit,
                };
                (i * 7, event(kind, (i % 3) as u16, i % 4, i % 2))
            })
            .collect();
        let mut book = WindowBook::new(400, 8);
        for (at_ns, ev) in &observations {
            book.observe(*at_ns, ev);
        }
        let now = 200 * 7;
        assert_eq!(
            book.rollup(now),
            recompute_rollup(400, 8, &observations, now)
        );
    }
}

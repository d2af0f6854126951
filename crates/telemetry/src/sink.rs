//! The streaming side of the flight recorder: one delta frame per pump
//! pass shipped from the runtime's wake machinery into an in-process
//! collector.
//!
//! The protocol is deliberately loss-tolerant. Each source (one per
//! worker) ships [`DeltaFrame`]s carrying **cumulative totals**, not
//! diffs, keyed by a per-source monotonic sequence number. The
//! collector diffs each frame against the baseline it retained from the
//! last frame of the *same [`Source`]* — so a lost frame is detectable
//! (a gap in `seq`, counted in [`Collector::lost_frames`]) and
//! automatically recovered by the next frame, whose totals subsume
//! everything the lost one carried. Baselines are keyed by source and
//! retained forever, which is what makes a ladder `restart_worker` rung
//! safe: the restarted worker keeps its stats (worker books survive
//! restarts by design), and even if a future change reset them, the
//! collector clamps with a saturating subtract and books the anomaly in
//! [`Collector::regressions`] rather than producing a negative delta.
//!
//! The collector also maintains the incremental
//! [`WindowBook`](crate::WindowBook) rollups and the spike watermarks
//! that feed the control plane's telemetry evidence channel: a delivery
//! returns the [`Spike`]s its own frame caused — see
//! [`Collector::deliver`].

use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use crate::event::{EventKind, Source, TraceEvent};
use crate::window::{WindowBook, WindowRollup};

/// Sliding-window span of the collector's rollups, in nanoseconds.
pub const WINDOW_NS: u64 = 50_000_000;
/// Number of buckets the window is quantized into.
pub const WINDOW_BUCKETS: usize = 16;

/// Streaming-telemetry tuning. Workers ship one frame per pump pass and
/// the collector rolls up over [`WINDOW_NS`] in [`WINDOW_BUCKETS`]
/// buckets; the one value callers do set differently is when a client's
/// windowed fault count counts as a spike worth reporting to admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingConfig {
    /// Windowed per-client fault count at or above which the collector
    /// reports a spike to the admission evidence channel.
    pub spike_faults: u64,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig::enabled()
    }
}

impl StreamingConfig {
    /// The conventional streaming configuration: spike at 8 windowed
    /// faults.
    #[must_use]
    pub fn enabled() -> Self {
        StreamingConfig { spike_faults: 8 }
    }
}

/// The six counters a worker publishes once per pump pass, declared
/// once: the runtime's live-counter mailbox, its `StatsSnapshot` and
/// the [`DeltaFrame`] all carry this struct, so the three views cannot
/// name different sets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveTotals {
    /// Requests completed (any disposition).
    pub served: u64,
    /// Requests served normally.
    pub ok: u64,
    /// Contained faults (rewinds).
    pub contained_faults: u64,
    /// Baseline crashes.
    pub crashes: u64,
    /// Requests served off connection streams.
    pub conn_served: u64,
    /// Requests stolen from sibling queues.
    pub steals: u64,
}

impl LiveTotals {
    /// How many counters the struct carries.
    pub const COUNTERS: usize = 6;

    /// The counters in declaration order — the one place per-counter
    /// arithmetic (diffing, summing, atomic mailboxes) loops over.
    #[must_use]
    pub fn to_array(self) -> [u64; Self::COUNTERS] {
        [
            self.served,
            self.ok,
            self.contained_faults,
            self.crashes,
            self.conn_served,
            self.steals,
        ]
    }

    /// The inverse of [`to_array`](Self::to_array).
    #[must_use]
    pub fn from_array(counters: [u64; Self::COUNTERS]) -> Self {
        let [served, ok, contained_faults, crashes, conn_served, steals] = counters;
        LiveTotals {
            served,
            ok,
            contained_faults,
            crashes,
            conn_served,
            steals,
        }
    }
}

/// One periodic delivery from a source: cumulative counter totals plus
/// the events drained from the source's ring since the last frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaFrame {
    /// Who shipped the frame — the baseline key.
    pub source: Source,
    /// Per-source monotonic frame sequence, starting at 0. A gap means
    /// frames were lost; totals make the loss recoverable.
    pub seq: u64,
    /// Cumulative counters as of this frame. Totals, not diffs: the
    /// collector owns the diffing so a lost frame never desynchronizes
    /// the books.
    pub totals: LiveTotals,
    /// Events drained from the source's ring for this frame. These were
    /// already counted `drained` on the ring at drain time, so the
    /// conservation law stays exact end to end.
    pub events: Vec<TraceEvent>,
}

/// One client's windowed fault spike, reported at most once per fault
/// via the per-client watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spike {
    /// The offending client.
    pub client: u64,
    /// The shard that last absorbed one of its faults.
    pub shard: u16,
    /// Faults accumulated since the last spike report for this client.
    pub new_faults: u64,
}

/// What the collector saw over the run: the delta-frame delivery books
/// ([`Collector::close`] hands them over with the event log at
/// shutdown; the runtime mirrors them into the metrics registry as
/// `streaming.*` counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamingReport {
    /// Delta frames delivered (all sources).
    pub frames: u64,
    /// Frames detected lost by per-source sequence gaps. Losses are
    /// recoverable — frames carry cumulative totals, so the next
    /// delivery resynchronizes the books — but each gap is counted.
    pub lost_frames: u64,
    /// Counter regressions observed (a source's cumulative total moved
    /// backwards — only a restarted source that lost its baseline would
    /// do this, and the runtime retains baselines across worker
    /// restarts, so any nonzero value is a bug surfaced).
    pub regressions: u64,
    /// Trace events that arrived inside delta frames (drained by their
    /// source's flush tick rather than at shutdown).
    pub events_streamed: u64,
}

/// Per-source reception state: last sequence seen and the cumulative
/// baseline totals are diffed against. Keyed by [`Source`] and never
/// discarded, so worker restarts cannot produce negative deltas.
#[derive(Debug, Default)]
struct SourceState {
    last_seq: Option<u64>,
    baseline: LiveTotals,
}

/// One client's cumulative fault books.
#[derive(Debug, Default)]
struct ClientFaults {
    /// Faults (rewinds) observed, ever.
    total: u64,
    /// Faults already reported as [`Spike`]s — the watermark.
    reported: u64,
    /// The shard that last absorbed one.
    shard: u16,
}

#[derive(Debug)]
struct CollectorInner {
    sources: HashMap<Source, SourceState>,
    /// Aggregate counter deltas accumulated across all sources.
    totals: LiveTotals,
    /// Every event received, retained for the shutdown log merge.
    events: Vec<TraceEvent>,
    /// Incremental sliding-window rollups.
    window: WindowBook,
    /// Per-client cumulative fault books and spike watermarks.
    faults: BTreeMap<u64, ClientFaults>,
    /// [`StreamingConfig::spike_faults`].
    spike_faults: u64,
    books: StreamingReport,
}

impl CollectorInner {
    /// Books one frame at collector time `now_ns` and returns the
    /// spikes it caused.
    fn book(&mut self, frame: DeltaFrame, now_ns: u64) -> Vec<Spike> {
        self.books.frames += 1;
        // Per-source bookkeeping: sequence-gap detection (a jump of k
        // past the expected next seq means k frames were lost — their
        // counter content is recovered by this frame's totals) and
        // per-counter deltas against the retained baseline, clamping
        // regressions to a zero delta.
        let state = self.sources.entry(frame.source).or_default();
        let expected = state.last_seq.map_or(0, |last| last.wrapping_add(1));
        self.books.lost_frames += frame.seq.saturating_sub(expected);
        state.last_seq = Some(frame.seq);
        let baseline = std::mem::replace(&mut state.baseline, frame.totals).to_array();
        let mut totals = self.totals.to_array();
        for ((total, current), baseline) in
            totals.iter_mut().zip(frame.totals.to_array()).zip(baseline)
        {
            self.books.regressions += u64::from(current < baseline);
            *total += current.saturating_sub(baseline);
        }
        self.totals = LiveTotals::from_array(totals);
        for event in &frame.events {
            self.window.observe(now_ns, event);
            if event.kind == EventKind::Rewind {
                let faults = self.faults.entry(event.client).or_default();
                faults.total += 1;
                faults.shard = event.shard;
            }
        }
        // A client's windowed count rises only when one of its rewinds
        // is observed, and a spike reports only unreported faults — so
        // judging just the clients this frame faulted, at the time it
        // was booked, is the decision a scan of the whole window here
        // would reach (the `window_rollups` proptest checks it against
        // `recompute_rollup`). A client repeated in the frame is judged
        // once: its first spike moves the watermark to its total.
        let mut spikes = Vec::new();
        for event in frame.events.iter().filter(|e| e.kind == EventKind::Rewind) {
            let faults = self.faults.get_mut(&event.client).expect("booked above");
            if faults.total > faults.reported
                && self.window.client_faults(now_ns, event.client) >= self.spike_faults
            {
                spikes.push(Spike {
                    client: event.client,
                    shard: faults.shard,
                    new_faults: faults.total - faults.reported,
                });
                faults.reported = faults.total;
            }
        }
        self.books.events_streamed += frame.events.len() as u64;
        self.events.extend(frame.events);
        spikes
    }
}

/// The in-process streaming collector: receives [`DeltaFrame`]s,
/// maintains aggregate books, windowed rollups and spike watermarks.
#[derive(Debug)]
pub struct Collector {
    inner: Mutex<CollectorInner>,
    epoch: Instant,
}

impl Collector {
    /// A fresh collector with the given streaming configuration.
    #[must_use]
    pub fn new(config: StreamingConfig) -> Self {
        Collector {
            inner: Mutex::new(CollectorInner {
                sources: HashMap::new(),
                totals: LiveTotals::default(),
                events: Vec::new(),
                window: WindowBook::new(WINDOW_NS, WINDOW_BUCKETS),
                faults: BTreeMap::new(),
                spike_faults: config.spike_faults,
                books: StreamingReport::default(),
            }),
            epoch: Instant::now(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CollectorInner> {
        self.inner.lock().expect("collector poisoned")
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Accepts one frame and returns the windowed fault spikes it
    /// caused: every client with a rewind in the frame whose *windowed*
    /// fault count is now at or above the spike threshold, each
    /// reporting the faults accumulated since its last report
    /// (watermarked, so every fault is reported at most once). Booking
    /// and judging share one lock hold, and the collector clock is read
    /// under it, so collector time never runs backwards across frames.
    /// Must not block the caller meaningfully — the runtime ships
    /// frames from worker pump passes.
    pub fn deliver(&self, frame: DeltaFrame) -> Vec<Spike> {
        let mut inner = self.lock();
        let now_ns = self.now_ns();
        inner.book(frame, now_ns)
    }

    /// [`deliver`](Self::deliver) with an explicit collector timestamp
    /// — the deterministic entry tests use. Times must not decrease
    /// across calls, as the collector's own clock guarantees.
    pub fn deliver_at(&self, frame: DeltaFrame, now_ns: u64) -> Vec<Spike> {
        self.lock().book(frame, now_ns)
    }

    /// Frames received so far.
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.lock().books.frames
    }

    /// Frames detected as lost via sequence gaps (their counter content
    /// was recovered from the next frame's totals; their events were
    /// not, which is why events ride the frame that drained them).
    #[must_use]
    pub fn lost_frames(&self) -> u64 {
        self.lock().books.lost_frames
    }

    /// Counter regressions observed (a total below its retained
    /// baseline — clamped to a zero delta rather than underflowing).
    #[must_use]
    pub fn regressions(&self) -> u64 {
        self.lock().books.regressions
    }

    /// The aggregate counter deltas accumulated across all sources.
    #[must_use]
    pub fn totals(&self) -> LiveTotals {
        self.lock().totals
    }

    /// The windowed rollup as of now.
    #[must_use]
    pub fn rollup(&self) -> WindowRollup {
        self.rollup_at(self.now_ns())
    }

    /// The windowed rollup at an explicit collector time.
    #[must_use]
    pub fn rollup_at(&self, now_ns: u64) -> WindowRollup {
        self.lock().window.rollup(now_ns)
    }

    /// Closes the books for the shutdown log merge: the delivery
    /// counters and, **by move**, every event received (the log is the
    /// process's largest allocation; it is never copied). The counters
    /// stay readable afterwards; the events are handed off exactly
    /// once.
    pub fn close(&self) -> (StreamingReport, Vec<TraceEvent>) {
        let mut inner = self.lock();
        (inner.books, std::mem::take(&mut inner.events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(worker: u16, seq: u64, served: u64) -> DeltaFrame {
        DeltaFrame {
            source: Source::Worker(worker),
            seq,
            totals: LiveTotals {
                served,
                ..LiveTotals::default()
            },
            events: Vec::new(),
        }
    }

    fn rewind(client: u64, shard: u16) -> TraceEvent {
        TraceEvent {
            stamp: 0,
            kind: EventKind::Rewind,
            source: Source::Worker(shard),
            shard,
            client,
            detail: 1_000,
        }
    }

    #[test]
    fn totals_diff_against_retained_baselines() {
        let collector = Collector::new(StreamingConfig::enabled());
        collector.deliver_at(frame(0, 0, 10), 0);
        collector.deliver_at(frame(0, 1, 25), 1);
        collector.deliver_at(frame(1, 0, 5), 2);
        assert_eq!(collector.totals().served, 30);
        assert_eq!(collector.frames(), 3);
        assert_eq!(collector.lost_frames(), 0);
        assert_eq!(collector.regressions(), 0);
    }

    #[test]
    fn a_lost_frame_is_detected_and_its_counters_recovered() {
        let collector = Collector::new(StreamingConfig::enabled());
        collector.deliver_at(frame(0, 0, 10), 0);
        // Frames 1 and 2 are lost; frame 3's cumulative total subsumes
        // everything they carried.
        collector.deliver_at(frame(0, 3, 40), 1);
        assert_eq!(collector.lost_frames(), 2);
        assert_eq!(collector.totals().served, 40);
    }

    #[test]
    fn restart_style_counter_regression_clamps_and_is_booked() {
        // The satellite fix: if a restarted source ever re-shipped a
        // *smaller* total (worker books survive restarts by design, so
        // this is defensive), the delta must clamp to zero — never
        // underflow into a giant bogus delta — and the anomaly must be
        // visible in the books.
        let collector = Collector::new(StreamingConfig::enabled());
        collector.deliver_at(frame(0, 0, 100), 0);
        collector.deliver_at(frame(0, 1, 3), 1);
        assert_eq!(collector.regressions(), 1);
        assert_eq!(collector.totals().served, 100, "clamped");
        // The shrunken total becomes the new baseline, so growth from
        // there is credited normally.
        collector.deliver_at(frame(0, 2, 10), 2);
        assert_eq!(collector.totals().served, 107);
    }

    #[test]
    fn spikes_are_windowed_thresholded_and_watermarked() {
        let collector = Collector::new(StreamingConfig { spike_faults: 3 });
        let deliver = |seq: u64, events: Vec<TraceEvent>, now_ns: u64| {
            collector.deliver_at(
                DeltaFrame {
                    events,
                    ..frame(0, seq, 0)
                },
                now_ns,
            )
        };
        // Two faults: below the threshold, no spike.
        assert!(deliver(0, vec![rewind(666, 1), rewind(666, 1)], 100).is_empty());
        // A third fault crosses the threshold: one spike carrying all
        // three unreported faults.
        assert_eq!(
            deliver(1, vec![rewind(666, 2)], 200),
            vec![Spike {
                client: 666,
                shard: 2,
                new_faults: 3
            }]
        );
        // Watermarked: the same faults are never reported twice — a
        // frame without a new fault of the client reports nothing, and
        // the next fault reports only itself.
        assert!(deliver(2, vec![rewind(7, 0)], 250).is_empty());
        assert_eq!(
            deliver(3, vec![rewind(666, 2)], 300),
            vec![Spike {
                client: 666,
                shard: 2,
                new_faults: 1
            }]
        );
        // Window expiry: a fault one full window later stands alone in
        // it, so it does not spike even though the cumulative books
        // remember four earlier ones.
        assert!(
            deliver(4, vec![rewind(666, 2)], 300 + WINDOW_NS).is_empty(),
            "expired window must not spike"
        );
        // Once the window refills to the threshold, the spike carries
        // every fault the quiet spell left unreported.
        assert_eq!(
            deliver(5, vec![rewind(666, 1), rewind(666, 1)], 400 + WINDOW_NS),
            vec![Spike {
                client: 666,
                shard: 1,
                new_faults: 3
            }]
        );
    }

    #[test]
    fn closing_hands_the_events_off_exactly_once() {
        let collector = Collector::new(StreamingConfig::enabled());
        let mut f = frame(0, 0, 0);
        f.events = vec![rewind(1, 0), rewind(2, 0)];
        collector.deliver_at(f, 0);
        let (books, events) = collector.close();
        assert_eq!(events.len(), 2);
        assert_eq!(
            books,
            StreamingReport {
                frames: 1,
                lost_frames: 0,
                regressions: 0,
                events_streamed: 2
            }
        );
        let (books_again, events_again) = collector.close();
        assert!(events_again.is_empty());
        assert_eq!(books_again, books, "the counters stay readable");
    }
}

//! Post-mortem trace queries over a drained flight-recorder log.
//!
//! After a run (or a crash drill) the per-worker, dispatcher and
//! control rings are drained into one [`TraceLog`], merged on the
//! shared logical clock. [`TraceQuery`] then answers the questions a
//! post-mortem actually asks — *what happened to this client*, *what
//! did this shard do*, *when did each offender cross each standing* —
//! without grepping text logs. The e20 drill uses exactly this API to
//! reconstruct every banned client's throttle → quarantine → ban
//! ladder from trace data alone.

use crate::event::{EventKind, TraceEvent};

/// A merged, stamp-ordered event log from every drained ring.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
}

impl TraceLog {
    /// Builds a log from drained ring contents (any order); events are
    /// merged into logical-clock order, which is total across rings
    /// because every recorder shares one clock. Sorted in place — a
    /// stable sort's scratch buffer would be a second copy of the
    /// process's largest allocation — on the whole encoded event, so
    /// stamps decide every drained log (they are unique) and hand-built
    /// ties still order deterministically.
    #[must_use]
    pub fn new(mut events: Vec<TraceEvent>) -> Self {
        events.sort_unstable_by_key(TraceEvent::encode);
        TraceLog { events }
    }

    /// Every event, stamp-ordered.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events in the log.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the log holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Starts a filtered query.
    #[must_use]
    pub fn query(&self) -> TraceQuery<'_> {
        TraceQuery {
            log: self,
            client: None,
            shard: None,
            kinds: None,
            since: None,
            until: None,
        }
    }

    /// Every client with a [`EventKind::Ban`] event, ascending, deduplicated.
    #[must_use]
    pub fn banned_clients(&self) -> Vec<u64> {
        let mut clients: Vec<u64> = self
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Ban)
            .map(|e| e.client)
            .collect();
        clients.sort_unstable();
        clients.dedup();
        clients
    }

    /// Every standing-relevant event of one client, stamp-ordered —
    /// the client's full history as the control plane saw it.
    #[must_use]
    pub fn client_timeline(&self, client: u64) -> Vec<TraceEvent> {
        self.query().client(client).run()
    }

    /// Reconstructs `client`'s escalation ladder: the throttle,
    /// quarantine and ban crossings in stamp order. `None` when the
    /// client was never banned; a ladder with a missing earlier rung
    /// means the trace is incomplete (control-ring overflow), which the
    /// e20 drill treats as a failure.
    #[must_use]
    pub fn ban_path(&self, client: u64) -> Option<BanPath> {
        let ban = self
            .query()
            .client(client)
            .kind(EventKind::Ban)
            .run()
            .into_iter()
            .next()?;
        let before_ban = |kind: EventKind| {
            self.query()
                .client(client)
                .kind(kind)
                .until(ban.stamp)
                .run()
                .into_iter()
                .next()
        };
        Some(BanPath {
            client,
            throttle: before_ban(EventKind::Throttle),
            quarantine: before_ban(EventKind::Quarantine),
            ban,
        })
    }
}

/// A builder-style filter over a [`TraceLog`]. Every constraint is
/// optional; [`run`](Self::run) returns the matching events in stamp
/// order.
#[derive(Debug, Clone)]
pub struct TraceQuery<'a> {
    log: &'a TraceLog,
    client: Option<u64>,
    shard: Option<u16>,
    kinds: Option<Vec<EventKind>>,
    since: Option<u64>,
    until: Option<u64>,
}

impl TraceQuery<'_> {
    /// Keep only events attributed to `client`.
    #[must_use]
    pub fn client(mut self, client: u64) -> Self {
        self.client = Some(client);
        self
    }

    /// Keep only events concerning `shard`.
    #[must_use]
    pub fn shard(mut self, shard: u16) -> Self {
        self.shard = Some(shard);
        self
    }

    /// Keep only events of `kind`.
    #[must_use]
    pub fn kind(self, kind: EventKind) -> Self {
        self.kinds(&[kind])
    }

    /// Keep only events whose kind is in `kinds`.
    #[must_use]
    pub fn kinds(mut self, kinds: &[EventKind]) -> Self {
        self.kinds = Some(kinds.to_vec());
        self
    }

    /// Keep only events stamped at or after `stamp`.
    #[must_use]
    pub fn since(mut self, stamp: u64) -> Self {
        self.since = Some(stamp);
        self
    }

    /// Keep only events stamped strictly before `stamp`.
    #[must_use]
    pub fn until(mut self, stamp: u64) -> Self {
        self.until = Some(stamp);
        self
    }

    fn matches(&self, event: &TraceEvent) -> bool {
        self.client.is_none_or(|c| event.client == c)
            && self.shard.is_none_or(|s| event.shard == s)
            && self
                .kinds
                .as_ref()
                .is_none_or(|ks| ks.contains(&event.kind))
            && self.since.is_none_or(|s| event.stamp >= s)
            && self.until.is_none_or(|u| event.stamp < u)
    }

    /// The matching events, stamp-ordered.
    #[must_use]
    pub fn run(self) -> Vec<TraceEvent> {
        self.log
            .events
            .iter()
            .filter(|e| self.matches(e))
            .copied()
            .collect()
    }

    /// How many events match.
    #[must_use]
    pub fn count(self) -> usize {
        let query = self;
        query.log.events.iter().filter(|e| query.matches(e)).count()
    }

    /// The matching events bucketed into consecutive stamp windows of
    /// `width` (floored at 1): window `w` covers stamps
    /// `[w*width, (w+1)*width)`, so a stamp landing exactly on a
    /// boundary belongs to the *next* window and logical-clock ties
    /// land in the same window together. Empty windows between the
    /// first and last match are included (count 0) so rates plotted
    /// from the result do not silently skip quiet spans; no matches at
    /// all yields an empty vec.
    #[must_use]
    pub fn windowed(self, width: u64) -> Vec<WindowCounts> {
        let width = width.max(1);
        let query = self;
        let matches: Vec<u64> = query
            .log
            .events
            .iter()
            .filter(|e| query.matches(e))
            .map(|e| e.stamp)
            .collect();
        let (Some(&first), Some(&last)) = (matches.first(), matches.last()) else {
            return Vec::new();
        };
        let first_window = first / width;
        let last_window = last / width;
        let mut windows: Vec<WindowCounts> = (first_window..=last_window)
            .map(|w| WindowCounts {
                start: w * width,
                end: (w + 1) * width,
                count: 0,
            })
            .collect();
        for stamp in matches {
            windows[(stamp / width - first_window) as usize].count += 1;
        }
        windows
    }
}

/// One stamp window of a [`TraceQuery::windowed`] rollup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowCounts {
    /// First stamp the window covers (inclusive).
    pub start: u64,
    /// First stamp past the window (exclusive).
    pub end: u64,
    /// Matching events stamped within `[start, end)`.
    pub count: u64,
}

/// One client's reconstructed escalation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BanPath {
    /// The banned client.
    pub client: u64,
    /// The first throttle crossing before the ban, when recorded.
    pub throttle: Option<TraceEvent>,
    /// The first quarantine crossing before the ban, when recorded.
    pub quarantine: Option<TraceEvent>,
    /// The ban crossing.
    pub ban: TraceEvent,
}

impl BanPath {
    /// True when every rung of the ladder is present and in logical
    /// order — the completeness the e20 drill asserts for every banned
    /// client.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        match (self.throttle, self.quarantine) {
            (Some(t), Some(q)) => t.stamp < q.stamp && q.stamp < self.ban.stamp,
            _ => false,
        }
    }

    /// A human-readable one-line summary.
    #[must_use]
    pub fn describe(&self) -> String {
        let rung = |event: Option<TraceEvent>| {
            event.map_or("missing".to_string(), |e| format!("@{}", e.stamp))
        };
        format!(
            "client {}: throttle {} -> quarantine {} -> ban @{}",
            self.client,
            rung(self.throttle),
            rung(self.quarantine),
            self.ban.stamp
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Source;

    fn control(stamp: u64, kind: EventKind, client: u64) -> TraceEvent {
        TraceEvent {
            stamp,
            kind,
            source: Source::Control,
            shard: 0,
            client,
            detail: 0,
        }
    }

    fn worker(stamp: u64, kind: EventKind, shard: u16, client: u64) -> TraceEvent {
        TraceEvent {
            stamp,
            kind,
            source: Source::Worker(shard),
            shard,
            client,
            detail: 0,
        }
    }

    fn sample_log() -> TraceLog {
        // Deliberately shuffled input: the log must re-merge on stamps.
        TraceLog::new(vec![
            control(50, EventKind::Ban, 7),
            worker(10, EventKind::Submit, 0, 7),
            control(20, EventKind::Throttle, 7),
            worker(15, EventKind::Submit, 1, 3),
            control(35, EventKind::Quarantine, 7),
            worker(40, EventKind::Shed, 0, 7),
            worker(60, EventKind::Rewind, 1, 3),
            control(70, EventKind::Throttle, 3),
        ])
    }

    #[test]
    fn log_merges_into_stamp_order() {
        let log = sample_log();
        let stamps: Vec<u64> = log.events().iter().map(|e| e.stamp).collect();
        let mut sorted = stamps.clone();
        sorted.sort_unstable();
        assert_eq!(stamps, sorted);
        assert_eq!(log.len(), 8);
    }

    #[test]
    fn filters_compose() {
        let log = sample_log();
        assert_eq!(log.query().client(7).count(), 5);
        assert_eq!(log.query().client(7).kind(EventKind::Submit).count(), 1);
        assert_eq!(log.query().shard(1).count(), 2);
        assert_eq!(log.query().since(35).until(60).count(), 3);
        assert_eq!(
            log.query()
                .kinds(&[EventKind::Throttle, EventKind::Quarantine, EventKind::Ban])
                .count(),
            4
        );
    }

    #[test]
    fn ban_path_reconstructs_the_full_ladder() {
        let log = sample_log();
        assert_eq!(log.banned_clients(), vec![7]);
        let path = log.ban_path(7).expect("client 7 was banned");
        assert!(path.is_complete(), "{}", path.describe());
        assert_eq!(path.throttle.unwrap().stamp, 20);
        assert_eq!(path.quarantine.unwrap().stamp, 35);
        assert_eq!(path.ban.stamp, 50);
        assert!(path.describe().contains("client 7"));
    }

    #[test]
    fn unbanned_clients_have_no_ban_path() {
        let log = sample_log();
        assert!(log.ban_path(3).is_none(), "throttled but never banned");
        assert!(log.ban_path(999).is_none(), "never seen");
    }

    #[test]
    fn incomplete_ladders_are_detected() {
        // A ban with no recorded quarantine: complete() must be false.
        let log = TraceLog::new(vec![
            control(1, EventKind::Throttle, 9),
            control(5, EventKind::Ban, 9),
        ]);
        let path = log.ban_path(9).unwrap();
        assert!(!path.is_complete());
        assert!(path.describe().contains("missing"));
    }

    #[test]
    fn windowed_rollups_include_empty_windows() {
        // Matches at stamps 10, 15 and 60 with width 10: windows
        // [10,20) [20,30) [30,40) [40,50) [50,60) [60,70) — the four
        // quiet windows in the middle must appear with count 0.
        let log = TraceLog::new(vec![
            worker(10, EventKind::Submit, 0, 1),
            worker(15, EventKind::Submit, 0, 1),
            worker(60, EventKind::Submit, 0, 1),
        ]);
        let windows = log.query().windowed(10);
        assert_eq!(windows.len(), 6);
        let counts: Vec<u64> = windows.iter().map(|w| w.count).collect();
        assert_eq!(counts, vec![2, 0, 0, 0, 0, 1]);
        assert_eq!(windows[0].start, 10);
        assert_eq!(windows[0].end, 20);
        assert_eq!(windows[5].start, 60);
    }

    #[test]
    fn boundary_stamps_belong_to_the_next_window() {
        // Stamp 20 sits exactly on the [10,20)/[20,30) boundary: it
        // must land in the second window, never straddle or double.
        let log = TraceLog::new(vec![
            worker(19, EventKind::Submit, 0, 1),
            worker(20, EventKind::Submit, 0, 1),
        ]);
        let windows = log.query().windowed(10);
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].count, 1);
        assert_eq!(windows[1].count, 1);
        assert_eq!(windows[1].start, 20);
        let total: u64 = windows.iter().map(|w| w.count).sum();
        assert_eq!(total, 2, "every match counted exactly once");
    }

    #[test]
    fn logical_clock_ties_share_one_window() {
        // Three events at the same stamp (merged from rings that raced
        // on the shared clock in a crash drill) count together.
        let log = TraceLog::new(vec![
            worker(7, EventKind::Submit, 0, 1),
            worker(7, EventKind::Submit, 1, 2),
            control(7, EventKind::Throttle, 2),
        ]);
        let windows = log.query().windowed(5);
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].count, 3);
        assert_eq!(windows[0].start, 5);
        // Ties order by the rest of the event, whatever order the
        // rings were drained in.
        let mut reversed = log.events().to_vec();
        reversed.reverse();
        assert_eq!(TraceLog::new(reversed), log);
    }

    #[test]
    fn windowed_respects_the_query_filters() {
        let log = sample_log();
        let windows = log.query().client(7).windowed(25);
        let total: u64 = windows.iter().map(|w| w.count).sum();
        assert_eq!(total as usize, log.query().client(7).count());
        // Degenerate width clamps to 1 instead of dividing by zero.
        assert!(!log.query().windowed(0).is_empty());
    }

    #[test]
    fn client_timeline_is_everything_about_one_client() {
        let log = sample_log();
        let timeline = log.client_timeline(7);
        assert_eq!(timeline.len(), 5);
        assert!(timeline.windows(2).all(|w| w[0].stamp <= w[1].stamp));
        assert!(timeline.iter().all(|e| e.client == 7));
    }
}

//! The open-loop generator's bookkeeping: a fixed send schedule, latency
//! charged from each request's *due* time, a lateness histogram, and
//! backlog-growth detection.
//!
//! The pacer never reads a clock itself — the caller passes `now_ns` —
//! so the unit tests drive it with an injected clock and show the
//! property that matters: when the server (or the generator) stalls,
//! every request that was due during the stall is still sent and is
//! charged the stall. A generator that instead sent "the next request"
//! after each response, or re-based its schedule after a stall, would
//! report the stall once and hide it from every request it delayed
//! (coordinated omission).

use crate::hist::Hist;

/// A fixed-rate schedule: request `i` is due at `start + i * period`.
pub struct Pacer {
    start_ns: u64,
    period_ns: u64,
    next: u64,
    /// How late each request left, `sent - due`.
    pub lateness: Hist,
}

impl Pacer {
    pub fn new(start_ns: u64, rate_per_s: u64) -> Self {
        Pacer {
            start_ns,
            period_ns: 1_000_000_000 / rate_per_s.max(1),
            next: 0,
            lateness: Hist::default(),
        }
    }

    pub fn due_ns(&self, index: u64) -> u64 {
        self.start_ns + index * self.period_ns
    }

    /// The next request to send if one is due at `now_ns`: its index and
    /// its due time (the instant its latency is measured from). Callers
    /// loop until `None`, so a late generator sends its whole arrears —
    /// the schedule is never skipped or re-based.
    pub fn take_due(&mut self, now_ns: u64) -> Option<(u64, u64)> {
        let due = self.due_ns(self.next);
        if due > now_ns {
            return None;
        }
        let index = self.next;
        self.next += 1;
        self.lateness.record(now_ns - due);
        Some((index, due))
    }

    pub fn sent(&self) -> u64 {
        self.next
    }
}

/// Detects a backlog that grows without bound: the offered rate is then
/// above what the server sustains, and latency percentiles measure the
/// run length, not the server.
///
/// The window is cut into segments; each keeps the highest number of
/// requests outstanding at any send. The backlog *grows* when every
/// segment's peak exceeds the one before and the last is both several
/// times the first and large in absolute terms — a transient burst
/// fails the first test, a steady deep pipeline the second.
#[derive(Default)]
pub struct BacklogWatch {
    peaks: Vec<u64>,
}

impl BacklogWatch {
    /// Fewer outstanding requests than this is never called a backlog.
    pub const FLOOR: u64 = 256;

    pub fn start_segment(&mut self) {
        self.peaks.push(0);
    }

    pub fn observe(&mut self, outstanding: u64) {
        if let Some(peak) = self.peaks.last_mut() {
            *peak = (*peak).max(outstanding);
        }
    }

    pub fn peaks(&self) -> &[u64] {
        &self.peaks
    }

    pub fn is_growing(&self) -> bool {
        let (Some(&first), Some(&last)) = (self.peaks.first(), self.peaks.last()) else {
            return false;
        };
        self.peaks.len() >= 3
            && self.peaks.windows(2).all(|pair| pair[1] > pair[0])
            && last >= Self::FLOOR
            && last >= first.saturating_mul(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    /// A deterministic simulation: 1 kHz schedule, a server that answers
    /// `service_ns` after it receives a request unless it is stalled, in
    /// which case it answers when the stall ends. Returns each request's
    /// (due, latency charged).
    fn simulate(stall: Option<(u64, u64)>, generator_blocked: bool) -> Vec<(u64, u64)> {
        let service_ns = 100_000;
        let mut pacer = Pacer::new(0, 1_000);
        let mut charged = Vec::new();
        let mut now = 0;
        while now <= 40 * MS {
            // The injected clock: when the generator itself is blocked by
            // the stall (a full pipe, a descheduled thread) it does not
            // run at all until the stall ends.
            if let (Some((from, to)), true) = (stall, generator_blocked) {
                if now > from && now < to {
                    now = to;
                }
            }
            while let Some((_, due)) = pacer.take_due(now) {
                let arrives = now;
                let answered = match stall {
                    Some((from, to)) if arrives >= from && arrives < to => to + service_ns,
                    _ => arrives + service_ns,
                };
                charged.push((due, answered - due));
            }
            now += MS / 4;
        }
        charged
    }

    #[test]
    fn a_stalled_server_charges_the_stall_to_every_request_due_during_it() {
        let (from, to) = (10 * MS, 20 * MS);
        let calm = simulate(None, false);
        assert!(calm.iter().all(|&(_, latency)| latency == 100_000));

        for generator_blocked in [false, true] {
            let stalled = simulate(Some((from, to)), generator_blocked);
            // Nothing was skipped: the schedule is the same 41 requests.
            assert_eq!(stalled.len(), calm.len(), "blocked={generator_blocked}");
            for &(due, latency) in &stalled {
                if due >= from && due < to {
                    // Due during the stall: charged all of what was left
                    // of it, whether or not the generator could send.
                    assert_eq!(latency, to - due + 100_000, "due at {due}");
                } else {
                    assert_eq!(latency, 100_000, "due at {due}");
                }
            }
            let hit = stalled.iter().filter(|&&(_, l)| l > MS).count();
            assert_eq!(hit, 10, "ten requests were due in a 10 ms stall at 1 kHz");
        }
    }

    #[test]
    fn lateness_records_how_far_behind_schedule_each_send_was() {
        let mut pacer = Pacer::new(1_000, 1_000_000); // 1 µs period
        assert_eq!(pacer.take_due(999), None);
        assert_eq!(pacer.take_due(1_000), Some((0, 1_000)));
        assert_eq!(pacer.take_due(1_000), None);
        // The generator comes back 5 µs late: five requests are in
        // arrears and all are sent, each stamped with its own due time.
        let mut sent = Vec::new();
        while let Some(request) = pacer.take_due(6_000) {
            sent.push(request);
        }
        assert_eq!(
            sent,
            vec![(1, 2_000), (2, 3_000), (3, 4_000), (4, 5_000), (5, 6_000)]
        );
        assert_eq!(pacer.sent(), 6);
        assert_eq!(pacer.lateness.len(), 6);
        assert_eq!(pacer.lateness.max_ns(), 4_000);
    }

    #[test]
    fn backlog_growth_is_told_from_bursts_and_deep_pipelines() {
        let watch = |peaks: &[u64]| {
            let mut watch = BacklogWatch::default();
            for &peak in peaks {
                watch.start_segment();
                watch.observe(peak / 2);
                watch.observe(peak);
            }
            watch.is_growing()
        };
        assert!(watch(&[100, 900, 2_000, 4_100, 8_000]), "runaway queue");
        assert!(!watch(&[3, 2, 900, 4, 3]), "one transient burst");
        assert!(!watch(&[2, 3, 4, 5, 6]), "growing but trivially small");
        assert!(!watch(&[5_000, 5_001, 5_002, 5_003, 5_004]), "deep, steady");
        assert!(!watch(&[]), "nothing observed");
    }
}

//! Latency-target adaptive shedding: a CoDel-style controller driven by
//! a live p99 window instead of a fixed queue bound.
//!
//! Bounded queues shed on *depth*, which is only a proxy: a queue of 100
//! ten-microsecond requests is healthy, a queue of 10 ten-millisecond
//! requests is not. The controller here sheds on the **observed tail**:
//! it watches a sliding window of recent latencies and, CoDel-fashion
//! ("Controlling Queue Delay", Nichols & Jacobson), starts shedding only
//! once the window's p99 has stayed above the target for a full
//! interval, then sheds at increasing frequency (`interval/√n`) until
//! the tail drops back under the target. One controller per traffic
//! class lets benign overload and attack overload shed differently —
//! the suspect class gets a tighter target, so hostile pressure sheds
//! first and hardest.

/// One class's shedding parameters. Times are logical nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedParams {
    /// The p99 the class is held to.
    pub target_ns: u64,
    /// CoDel interval: the tail must stay above target this long before
    /// the first shed, and the shed cadence is derived from it.
    pub interval_ns: u64,
    /// Sliding-window size in samples (ring buffer).
    pub window: usize,
}

impl Default for ShedParams {
    fn default() -> Self {
        ShedParams {
            target_ns: 5_000_000,    // 5 ms
            interval_ns: 10_000_000, // 10 ms
            window: 256,
        }
    }
}

/// A fixed-size sliding window of latency samples with an exact p99
/// over the retained samples.
#[derive(Debug, Clone)]
pub struct LatencyWindow {
    ring: Vec<u64>,
    next: usize,
    filled: usize,
    total: u64,
}

impl LatencyWindow {
    /// A window retaining the last `capacity` samples.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        LatencyWindow {
            ring: vec![0; capacity.max(8)],
            next: 0,
            filled: 0,
            total: 0,
        }
    }

    /// Records one nanosecond sample and returns the sample it pushed
    /// out of a full window (`None` while the window is still filling).
    pub fn record(&mut self, ns: u64) -> Option<u64> {
        let capacity = self.ring.len();
        let evicted = (self.filled == capacity).then(|| self.ring[self.next]);
        self.ring[self.next] = ns;
        self.next = (self.next + 1) % capacity;
        self.filled = (self.filled + 1).min(capacity);
        self.total += 1;
        evicted
    }

    /// Samples recorded over the window's lifetime (not just retained)
    /// — the freshness witness the CoDel controller uses to leave the
    /// shedding state when a class's traffic stops flowing.
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Samples currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.filled
    }

    /// True when no samples are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// 0-indexed floor rank of the p99 among `filled` samples in
    /// ascending order: with 100 samples the single worst one IS the
    /// p99 — a tail controller must see a 1-in-100 spike.
    fn p99_rank(filled: usize) -> usize {
        (((filled as f64) * 0.99) as usize).min(filled.saturating_sub(1))
    }

    /// The p99 over the retained samples (`None` while empty). Copies
    /// and sorts the window, O(n log n): for the shutdown report and as
    /// the test oracle. The per-request shed decision never calls it —
    /// [`CodelShedder`] keeps a count that answers "is the p99 above
    /// target" in O(1).
    #[must_use]
    pub fn p99(&self) -> Option<u64> {
        if self.filled == 0 {
            return None;
        }
        let mut sorted: Vec<u64> = self.ring[..self.filled].to_vec();
        sorted.sort_unstable();
        Some(sorted[Self::p99_rank(self.filled)])
    }
}

/// The CoDel-style drop controller for one traffic class.
#[derive(Debug, Clone)]
pub struct CodelShedder {
    params: ShedParams,
    window: LatencyWindow,
    /// Retained samples strictly above `target_ns`, kept in step with
    /// the ring by `record`. The p99 is the sample at ascending rank
    /// `r`, so it is above target exactly when the `filled - r` samples
    /// from rank `r` up all are, i.e. when this count reaches
    /// `filled - r`.
    over_target: usize,
    /// When the window p99 first went above target (None = at/below).
    above_since_ns: Option<u64>,
    /// In the shedding state?
    shedding: bool,
    /// Sheds performed in the current shedding state.
    sheds_in_state: u32,
    /// Next shed due at this tick while shedding.
    next_shed_ns: u64,
    /// Window sample count at the last shed decision: a further shed
    /// requires at least one *fresh* sample, or the controller would
    /// latch on a stale window after the class's traffic stops (the
    /// CoDel "queue emptied, leave drop state" rule — without it a
    /// quarantined class could be starved forever by its own history).
    total_at_last_shed: u64,
    /// Total sheds decided by this controller.
    shed_total: u64,
}

impl CodelShedder {
    /// A controller with the given parameters.
    #[must_use]
    pub fn new(params: ShedParams) -> Self {
        CodelShedder {
            params,
            window: LatencyWindow::new(params.window),
            over_target: 0,
            above_since_ns: None,
            shedding: false,
            sheds_in_state: 0,
            next_shed_ns: 0,
            total_at_last_shed: 0,
            shed_total: 0,
        }
    }

    /// Feeds one served-request latency into the class's window.
    pub fn record(&mut self, latency_ns: u64) {
        let target = self.params.target_ns;
        let evicted = self.window.record(latency_ns);
        self.over_target += usize::from(latency_ns > target);
        self.over_target -= usize::from(evicted.is_some_and(|ns| ns > target));
    }

    /// Is the window's p99 above the target? O(1), no allocation: the
    /// same bit as `p99() > Some(target_ns)` (an empty window is never
    /// above), decided from the running count.
    fn p99_over_target(&self) -> bool {
        let filled = self.window.len();
        filled > 0 && self.over_target >= filled - LatencyWindow::p99_rank(filled)
    }

    /// The class's current window p99.
    #[must_use]
    pub fn p99(&self) -> Option<u64> {
        self.window.p99()
    }

    /// Total sheds this controller has decided.
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        self.shed_total
    }

    /// CoDel control law: square-root cadence while shedding.
    fn cadence(&self, count: u32) -> u64 {
        let interval = self.params.interval_ns.max(1) as f64;
        (interval / f64::from(count.max(1)).sqrt()) as u64
    }

    /// Admission decision for one request of this class at `now_ns`:
    /// `true` = shed it. Pure in (window-state, now) — no clock reads.
    pub fn offer(&mut self, now_ns: u64) -> bool {
        // A shed needs fresh evidence: at least one sample recorded
        // since the last shed. A class whose traffic dried up (every
        // request shed, or the congestion resolved) must not stay
        // condemned by a frozen window.
        let fresh = self.window.total_recorded() > self.total_at_last_shed;
        let above = fresh && self.p99_over_target();
        if !above {
            // Tail back under target: leave the shedding state and
            // forget the exceedance clock.
            self.above_since_ns = None;
            self.shedding = false;
            self.sheds_in_state = 0;
            return false;
        }
        if self.shedding {
            if now_ns >= self.next_shed_ns {
                self.sheds_in_state += 1;
                self.shed_total += 1;
                self.total_at_last_shed = self.window.total_recorded();
                self.next_shed_ns = now_ns + self.cadence(self.sheds_in_state);
                return true;
            }
            return false;
        }
        match self.above_since_ns {
            None => {
                self.above_since_ns = Some(now_ns);
                false
            }
            Some(since) if now_ns.saturating_sub(since) >= self.params.interval_ns => {
                // Sustained exceedance: enter the shedding state and
                // shed immediately.
                self.shedding = true;
                self.sheds_in_state = 1;
                self.shed_total += 1;
                self.total_at_last_shed = self.window.total_recorded();
                self.next_shed_ns = now_ns + self.cadence(1);
                true
            }
            Some(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn shedder() -> CodelShedder {
        CodelShedder::new(ShedParams {
            target_ns: MS,
            interval_ns: 10 * MS,
            window: 64,
        })
    }

    #[test]
    fn window_p99_is_the_tail_of_recent_samples() {
        let mut window = LatencyWindow::new(100);
        assert_eq!(window.p99(), None);
        for _ in 0..99 {
            window.record(100);
        }
        window.record(10_000);
        assert_eq!(window.p99(), Some(10_000));
        // The window slides: 100 fresh low samples push the spike out.
        for _ in 0..100 {
            window.record(100);
        }
        assert_eq!(window.p99(), Some(100));
    }

    #[test]
    fn healthy_tail_never_sheds() {
        let mut shedder = shedder();
        for i in 0..1_000u64 {
            shedder.record(100_000); // 0.1 ms, far under target
            assert!(!shedder.offer(i * MS));
        }
        assert_eq!(shedder.shed_total(), 0);
    }

    #[test]
    fn sustained_exceedance_sheds_after_one_interval_then_backs_off_sqrt() {
        let mut shedder = shedder();
        for _ in 0..64 {
            shedder.record(5 * MS); // tail 5x over target
        }
        // First offer only starts the exceedance clock.
        assert!(!shedder.offer(0));
        // Still inside the interval: no shed.
        assert!(!shedder.offer(5 * MS));
        // A full interval above target: shedding begins.
        assert!(shedder.offer(10 * MS));
        // Traffic keeps flowing (and keeps measuring high).
        shedder.record(5 * MS);
        // Cadence: next shed due interval/sqrt(1) later, not sooner.
        assert!(!shedder.offer(11 * MS));
        assert!(shedder.offer(20 * MS));
        shedder.record(5 * MS);
        // Third shed comes faster (interval/sqrt(2) ≈ 7.07 ms).
        assert!(shedder.offer(28 * MS));
        assert_eq!(shedder.shed_total(), 3);
    }

    #[test]
    fn a_stale_window_cannot_latch_the_shedding_state() {
        // The starvation hazard: a class sheds, its traffic dries up,
        // and no fresh sample can ever wash the window — without the
        // freshness rule the controller would shed that class forever.
        let mut shedder = shedder();
        for _ in 0..64 {
            shedder.record(5 * MS);
        }
        let _ = shedder.offer(0);
        assert!(shedder.offer(10 * MS), "shedding engaged");
        // No further samples arrive: every subsequent offer must admit.
        for t in 11..200u64 {
            assert!(
                !shedder.offer(t * MS),
                "stale window must not keep shedding (t = {t} ms)"
            );
        }
        assert_eq!(shedder.shed_total(), 1);
    }

    #[test]
    fn recovery_exits_the_shedding_state() {
        let mut shedder = shedder();
        for _ in 0..64 {
            shedder.record(5 * MS);
        }
        let _ = shedder.offer(0);
        assert!(shedder.offer(10 * MS), "shedding engaged");
        // The tail recovers: fresh fast samples wash the window.
        for _ in 0..64 {
            shedder.record(100_000);
        }
        assert!(!shedder.offer(11 * MS));
        // A new exceedance must again sustain a full interval first.
        for _ in 0..64 {
            shedder.record(5 * MS);
        }
        assert!(!shedder.offer(12 * MS), "clock restarts");
        assert!(!shedder.offer(15 * MS));
        assert!(shedder.offer(22 * MS));
    }

    #[test]
    fn tighter_targets_shed_earlier() {
        // The "per disposition class" property: identical traffic, the
        // suspect class (tight target) sheds while the benign class
        // (loose target) does not.
        let mut benign = CodelShedder::new(ShedParams {
            target_ns: 50 * MS,
            interval_ns: 10 * MS,
            window: 64,
        });
        let mut suspect = CodelShedder::new(ShedParams {
            target_ns: MS,
            interval_ns: 10 * MS,
            window: 64,
        });
        for _ in 0..64 {
            benign.record(5 * MS);
            suspect.record(5 * MS);
        }
        let mut benign_sheds = 0;
        let mut suspect_sheds = 0;
        for t in 0..40u64 {
            // Identical, continuously-flowing traffic for both classes.
            benign.record(5 * MS);
            suspect.record(5 * MS);
            benign_sheds += u64::from(benign.offer(t * MS));
            suspect_sheds += u64::from(suspect.offer(t * MS));
        }
        assert_eq!(benign_sheds, 0);
        assert!(suspect_sheds >= 3, "suspect class sheds: {suspect_sheds}");
    }
}

//! The O(1) shed decision is the same decision: `CodelShedder` answers
//! "is the window's p99 above target" from a running count of
//! over-target samples, and must agree — offer by offer — with a
//! reference controller that recomputes `window.p99() > target` by
//! copying and sorting the window.

use proptest::prelude::*;
use sdrad_control::{CodelShedder, LatencyWindow, ShedParams};

/// The reference: the same CoDel state machine, with the tail test done
/// the slow way.
struct SortingShedder {
    params: ShedParams,
    window: LatencyWindow,
    above_since_ns: Option<u64>,
    shedding: bool,
    sheds_in_state: u32,
    next_shed_ns: u64,
    total_at_last_shed: u64,
    shed_total: u64,
}

impl SortingShedder {
    fn new(params: ShedParams) -> Self {
        SortingShedder {
            params,
            window: LatencyWindow::new(params.window),
            above_since_ns: None,
            shedding: false,
            sheds_in_state: 0,
            next_shed_ns: 0,
            total_at_last_shed: 0,
            shed_total: 0,
        }
    }

    fn cadence(&self, count: u32) -> u64 {
        let interval = self.params.interval_ns.max(1) as f64;
        (interval / f64::from(count.max(1)).sqrt()) as u64
    }

    fn shed(&mut self, now_ns: u64, sheds_in_state: u32) -> bool {
        self.shedding = true;
        self.sheds_in_state = sheds_in_state;
        self.shed_total += 1;
        self.total_at_last_shed = self.window.total_recorded();
        self.next_shed_ns = now_ns + self.cadence(sheds_in_state);
        true
    }

    fn offer(&mut self, now_ns: u64) -> bool {
        let fresh = self.window.total_recorded() > self.total_at_last_shed;
        let above = fresh
            && self
                .window
                .p99()
                .is_some_and(|p99| p99 > self.params.target_ns);
        if !above {
            self.above_since_ns = None;
            self.shedding = false;
            self.sheds_in_state = 0;
            return false;
        }
        if self.shedding {
            return now_ns >= self.next_shed_ns && self.shed(now_ns, self.sheds_in_state + 1);
        }
        match self.above_since_ns {
            None => {
                self.above_since_ns = Some(now_ns);
                false
            }
            Some(since) if now_ns.saturating_sub(since) >= self.params.interval_ns => {
                self.shed(now_ns, 1)
            }
            Some(_) => false,
        }
    }
}

proptest! {
    #[test]
    fn counted_decision_equals_the_sorted_p99_decision(
        // Below 8 the window's `max(8)` floor applies; about half of
        // up to 900 steps record, so small windows wrap many times and
        // large ones only fill partway.
        window in 1usize..=300,
        target_ns in 0u64..6,
        interval_ns in 0u64..40,
        // Percent of samples drawn from the over-target side: around
        // the 1 % the p99 rank tolerates, so the bit actually flips.
        hot_percent in 0u64..8,
        steps in prop::collection::vec((any::<bool>(), 0u64..100, 0u64..3), 0..900),
    ) {
        let params = ShedParams { target_ns, interval_ns, window };
        let mut shipped = CodelShedder::new(params);
        let mut oracle = SortingShedder::new(params);
        let mut now_ns = 0u64;
        for (is_offer, roll, raw) in steps {
            if is_offer {
                // Non-decreasing time; `roll % 16 == 0` repeats an instant.
                now_ns += roll % 16;
                prop_assert_eq!(shipped.offer(now_ns), oracle.offer(now_ns), "offer at {}", now_ns);
            } else {
                // Few distinct values, so duplicates abound, and
                // `raw == 0` lands exactly on the target from either
                // side (equal is not above).
                let sample = if roll < hot_percent {
                    target_ns + raw
                } else {
                    target_ns.saturating_sub(raw)
                };
                shipped.record(sample);
                oracle.window.record(sample);
            }
        }
        prop_assert_eq!(shipped.shed_total(), oracle.shed_total);
        prop_assert_eq!(shipped.p99(), oracle.window.p99());
    }
}

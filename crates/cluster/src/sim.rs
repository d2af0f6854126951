//! A minimal deterministic discrete-event simulation core.
//!
//! The cluster model needs exactly three things from its engine: a
//! monotonic virtual clock, a stable-priority event queue, and exponential
//! inter-arrival sampling for Poisson fault processes. Everything is
//! deterministic given a seed, so every experiment in the DESIGN.md §5
//! index is exactly reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::time::Duration;

/// Virtual time in microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Builds a time from whole microseconds.
    #[must_use]
    pub fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Builds a time from fractional seconds.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime((secs.max(0.0) * 1e6) as u64)
    }

    /// Whole microseconds since the epoch.
    #[must_use]
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the epoch.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This time advanced by `d`.
    #[must_use]
    pub fn after(self, d: Duration) -> SimTime {
        SimTime(
            self.0
                .saturating_add(d.as_micros().min(u128::from(u64::MAX)) as u64),
        )
    }

    /// The span from `earlier` to `self` (saturating).
    #[must_use]
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration::from_micros(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

/// An entry in the event queue: fires at `at`, ties broken by insertion
/// order so same-time events run FIFO (determinism).
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The event loop driver: a clock plus an ordered queue of `E` events.
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: SimTime,
    seq: u64,
    processed: u64,
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
        }
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — a scheduling bug, not a runtime
    /// condition.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.heap.push(Scheduled {
            at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Schedules `event` after a relative delay.
    pub fn schedule_after(&mut self, delay: Duration, event: E) {
        self.schedule_at(self.now.after(delay), event);
    }

    /// Pops the next event, advancing the clock to its firing time.
    pub fn pop_next(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.at;
        self.processed += 1;
        Some((entry.at, entry.event))
    }

    /// True if no events remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .field("processed", &self.processed)
            .finish()
    }
}

/// A seeded random source with the distribution samplers the cluster
/// model needs.
#[derive(Debug)]
pub struct SimRng {
    rng: StdRng,
}

impl SimRng {
    /// A deterministic source for `seed`.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        SimRng {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Samples an exponential inter-arrival gap for a Poisson process
    /// with `rate_per_sec` events per second.
    ///
    /// Returns `Duration::MAX`-ish (1000 years) for non-positive rates,
    /// i.e. "never".
    pub fn exp_interval(&mut self, rate_per_sec: f64) -> Duration {
        if rate_per_sec <= 0.0 {
            return Duration::from_secs(1000 * 365 * 24 * 3600);
        }
        // Inverse-CDF sampling; guard the log away from ln(0).
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        Duration::from_secs_f64((-u.ln() / rate_per_sec).min(1000.0 * 365.0 * 24.0 * 3600.0))
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n.max(1))
    }

    /// Bernoulli trial.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.rng.gen_bool(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut queue = EventQueue::new();
        queue.schedule_at(SimTime::from_micros(30), "c");
        queue.schedule_at(SimTime::from_micros(10), "a");
        queue.schedule_at(SimTime::from_micros(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| queue.pop_next().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut queue = EventQueue::new();
        let t = SimTime::from_micros(5);
        queue.schedule_at(t, 1);
        queue.schedule_at(t, 2);
        queue.schedule_at(t, 3);
        let order: Vec<_> = std::iter::from_fn(|| queue.pop_next().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn clock_advances_with_events() {
        let mut queue = EventQueue::new();
        queue.schedule_after(Duration::from_secs(2), ());
        assert_eq!(queue.now(), SimTime::ZERO);
        queue.pop_next();
        assert_eq!(queue.now().as_secs_f64(), 2.0);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_the_past_panics() {
        let mut queue = EventQueue::new();
        queue.schedule_at(SimTime::from_micros(10), ());
        queue.pop_next();
        queue.schedule_at(SimTime::from_micros(5), ());
    }

    #[test]
    fn exp_interval_mean_approximates_inverse_rate() {
        let mut rng = SimRng::seeded(7);
        let rate = 4.0; // per second
        let n = 20_000;
        let total: f64 = (0..n).map(|_| rng.exp_interval(rate).as_secs_f64()).sum();
        let mean = total / f64::from(n);
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn zero_rate_means_never() {
        let mut rng = SimRng::seeded(1);
        assert!(rng.exp_interval(0.0).as_secs() > 3600 * 24 * 365 * 100);
    }

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = SimRng::seeded(42);
        let mut b = SimRng::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.exp_interval(1.0), b.exp_interval(1.0));
        }
    }
}

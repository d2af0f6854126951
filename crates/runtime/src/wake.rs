//! The unified wake source behind event-driven scheduling.
//!
//! Each shard owns one [`WakeSet`]: a condvar-backed signal register fed
//! by every event source that can create work for the shard's worker —
//!
//! * the shard's [`ShardQueue`](crate::ShardQueue) (pushes, kicks, stop),
//! * readiness callbacks of the connections the worker pumps
//!   ([`sdrad_net::Endpoint::set_ready_callback`]),
//! * steal hints rung by *sibling* queues whose backlog crossed the
//!   high-water mark.
//!
//! The worker parks **indefinitely** in [`WakeSet::wait`]; there is no
//! timeout and therefore no periodic poll. Every mutation that creates
//! work signals the set *after* the work is observable, and signals are
//! level-latched (a signal posted while the worker is mid-pass is
//! consumed by the next `wait`), so no wakeup can be lost.
//!
//! The set also exposes the park state to [`Runtime::quiesce`]
//! (`wait_idle`): a shard is quiescent exactly when its worker is parked
//! with no pending signals and its queue and inbox are empty — which is
//! what makes connection drains deterministic instead of "sleep until
//! the stream looks quiet".
//!
//! ## The generation counter
//!
//! Observing shards one by one is not enough once work can *move
//! between* shards: a shard observed idle can be re-busied by a sibling
//! (an owner-routed mutation, a steal hint) while later shards are
//! still being checked. Every wake set can therefore be bound to a
//! runtime-wide **generation counter** bumped on *every* signal; the
//! quiesce barrier snapshots it, observes every shard idle, and
//! re-reads it — an unchanged generation proves no work was created
//! anywhere during the whole observation window, so the idle
//! observations were simultaneous, not merely sequential. See
//! [`Runtime::quiesce`].
//!
//! [`Runtime::quiesce`]: crate::Runtime::quiesce

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Everything one [`WakeSet::wait`] return delivers to the worker.
#[derive(Debug, Default)]
pub(crate) struct WakeSignals {
    /// The shard queue was pushed to, kicked, or stopped: drain it and
    /// adopt inbox connections.
    pub queue: bool,
    /// A sibling shard crossed its backlog high-water mark: try to
    /// steal.
    pub steal: bool,
    /// Shutdown began.
    pub stopped: bool,
    /// Connection tokens with observable new state (bytes or close),
    /// in token order.
    pub conns: Vec<usize>,
}

#[derive(Debug, Default)]
struct WakeState {
    queue: bool,
    steal: bool,
    stopped: bool,
    /// Pending connection tokens, kept sorted and deduplicated on
    /// insert (a plain `Vec` beats a `BTreeSet` here: no node
    /// allocation per token, and the storage recycles through `spare`).
    conns: Vec<usize>,
    /// Recycled token storage: the vector a previous `take` handed out,
    /// returned empty via [`WakeSet::recycle_conns`] so steady-state
    /// passes allocate nothing.
    spare: Vec<usize>,
    parked: bool,
    /// Runtime generation at the moment the worker parked (0 when no
    /// generation counter is bound) — the witness
    /// [`WakeSet::parked_since`] exposes for exact stall accounting.
    parked_generation: u64,
    parks: u64,
    wakeups: u64,
}

impl WakeState {
    fn pending(&self) -> bool {
        self.queue || self.steal || self.stopped || !self.conns.is_empty()
    }

    fn take(&mut self) -> WakeSignals {
        WakeSignals {
            queue: std::mem::take(&mut self.queue),
            steal: std::mem::take(&mut self.steal),
            // `stopped` stays latched: once shutdown begins every
            // subsequent wait must still report it.
            stopped: self.stopped,
            // Hand out the pending tokens and swap the recycled spare in
            // as the next accumulation buffer.
            conns: std::mem::replace(&mut self.conns, std::mem::take(&mut self.spare)),
        }
    }
}

/// One shard's condvar-backed signal register: the unified wake source
/// behind the runtime's readiness-driven scheduling.
///
/// Workers park on their shard's set; queue pushes, connection
/// readiness callbacks and sibling steal hints wake them. The public
/// surface is observational — [`parks`](Self::parks),
/// [`wakeups`](Self::wakeups), [`is_parked`](Self::is_parked) — the
/// counters [`WorkerStats`](crate::WorkerStats) snapshots and the park
/// state [`Runtime::quiesce`](crate::Runtime::quiesce) observes; only
/// the runtime itself posts signals.
#[derive(Debug, Default)]
pub struct WakeSet {
    state: Mutex<WakeState>,
    cv: Condvar,
    /// Runtime-wide generation counter, bumped on every signal once
    /// bound — the quiesce barrier's proof that nothing happened while
    /// shards were being observed.
    generation: OnceLock<Arc<AtomicU64>>,
}

impl WakeSet {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Binds the runtime-wide generation counter this set bumps on
    /// every signal. Called once, before the runtime starts accepting.
    pub(crate) fn bind_generation(&self, generation: Arc<AtomicU64>) {
        assert!(
            self.generation.set(generation).is_ok(),
            "generation bound once"
        );
    }

    fn signal(&self, set: impl FnOnce(&mut WakeState)) {
        let mut state = self.state.lock().expect("wakeset lock");
        set(&mut state);
        drop(state);
        // The bump is ordered after the state change and before the
        // notify: a quiescer that re-reads an unchanged generation has
        // proof that no signal landed during its observation window.
        if let Some(generation) = self.generation.get() {
            generation.fetch_add(1, Ordering::SeqCst);
        }
        // notify_all: the worker *and* any quiescer share the condvar.
        self.cv.notify_all();
    }

    /// The shard queue has (or may have) work: pushed, kicked, or the
    /// partial drain left a remainder.
    pub(crate) fn signal_queue(&self) {
        self.signal(|s| s.queue = true);
    }

    /// A sibling shard is overloaded; an idle worker should try to
    /// steal.
    pub(crate) fn hint_steal(&self) {
        self.signal(|s| s.steal = true);
    }

    /// Connection `token` has observable new state.
    pub(crate) fn mark_conn(&self, token: usize) {
        self.signal(|s| {
            if let Err(pos) = s.conns.binary_search(&token) {
                s.conns.insert(pos, token);
            }
        });
    }

    /// Returns a consumed [`WakeSignals::conns`] vector so its capacity
    /// cycles back into the next [`wait`](Self::wait) instead of being
    /// reallocated every pass. Keeps whichever buffer is larger.
    pub(crate) fn recycle_conns(&self, mut conns: Vec<usize>) {
        conns.clear();
        let mut state = self.state.lock().expect("wakeset lock");
        if state.spare.capacity() < conns.capacity() {
            state.spare = conns;
        }
    }

    /// Shutdown: latched — every subsequent [`wait`](Self::wait) reports
    /// `stopped`.
    pub(crate) fn stop(&self) {
        self.signal(|s| s.stopped = true);
    }

    /// Parks until at least one signal is pending, then consumes and
    /// returns the pending set. Returns immediately (without parking)
    /// when signals are already latched.
    pub(crate) fn wait(&self) -> WakeSignals {
        let mut state = self.state.lock().expect("wakeset lock");
        if state.pending() {
            return state.take();
        }
        state.parked = true;
        state.parks += 1;
        state.parked_generation = self
            .generation
            .get()
            .map_or(0, |generation| generation.load(Ordering::SeqCst));
        drop(state);
        // The park transition is observable to quiescers.
        self.cv.notify_all();
        let mut state = self.state.lock().expect("wakeset lock");
        loop {
            if state.pending() {
                state.parked = false;
                state.wakeups += 1;
                return state.take();
            }
            state = self.cv.wait(state).expect("wakeset wait");
        }
    }

    /// Times the worker actually blocked (parked with nothing pending).
    #[must_use]
    pub fn parks(&self) -> u64 {
        self.state.lock().expect("wakeset lock").parks
    }

    /// Times a parked worker was woken by a signal.
    #[must_use]
    pub fn wakeups(&self) -> u64 {
        self.state.lock().expect("wakeset lock").wakeups
    }

    /// Whether the worker is currently parked with nothing pending —
    /// the instantaneous idleness a steal heuristic reads. Racy by
    /// nature (the worker may wake the next instant); exact quiescence
    /// requires the generation-counted barrier of
    /// [`Runtime::quiesce`](crate::Runtime::quiesce), and exact stall
    /// accounting uses [`parked_since`](Self::parked_since).
    #[must_use]
    pub fn is_parked(&self) -> bool {
        let state = self.state.lock().expect("wakeset lock");
        state.parked && !state.pending()
    }

    /// The runtime generation at which the worker parked, while it is
    /// parked with nothing pending (`None` otherwise). An observer that
    /// snapshotted the generation counter at `g` and later reads
    /// `parked_since() <= g` has a proof — not a racy instant — that
    /// the worker sat parked across its whole observation window: the
    /// park predates the snapshot and has not ended since.
    #[must_use]
    pub fn parked_since(&self) -> Option<u64> {
        let state = self.state.lock().expect("wakeset lock");
        (state.parked && !state.pending()).then_some(state.parked_generation)
    }

    /// Blocks until the worker is parked with no pending signals **and**
    /// `extra()` holds (the caller supplies queue/inbox emptiness), or
    /// `failsafe` elapses. Returns whether idleness was observed.
    ///
    /// `extra` is evaluated under the wakeset lock; it may take the
    /// queue/inbox locks (signal producers never hold those while
    /// signalling, so the order is consistent) but must not touch this
    /// wakeset.
    pub(crate) fn wait_idle(&self, extra: impl Fn() -> bool, failsafe: Duration) -> bool {
        let deadline = Instant::now() + failsafe;
        let mut state = self.state.lock().expect("wakeset lock");
        loop {
            if state.parked && !state.pending() && extra() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, _result) = self
                .cv
                .wait_timeout(state, deadline - now)
                .expect("wakeset wait");
            state = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn signals_before_wait_are_consumed_without_parking() {
        let wakes = WakeSet::new();
        wakes.signal_queue();
        wakes.mark_conn(3);
        wakes.mark_conn(1);
        wakes.mark_conn(3);
        let signals = wakes.wait();
        assert!(signals.queue);
        assert!(!signals.steal);
        assert!(!signals.stopped);
        assert_eq!(signals.conns, vec![1, 3], "tokens dedup and sort");
        assert_eq!(wakes.parks(), 0, "no park needed");
    }

    #[test]
    fn wait_parks_until_signalled_across_threads() {
        let wakes = Arc::new(WakeSet::new());
        let remote = Arc::clone(&wakes);
        let waiter = std::thread::spawn(move || remote.wait());
        // Wait until the waiter has genuinely parked, then signal.
        while wakes.parks() == 0 {
            std::thread::yield_now();
        }
        wakes.mark_conn(7);
        let signals = waiter.join().unwrap();
        assert_eq!(signals.conns, vec![7]);
        assert_eq!(wakes.parks(), 1);
        assert_eq!(wakes.wakeups(), 1);
    }

    #[test]
    fn stopped_is_latched() {
        let wakes = WakeSet::new();
        wakes.stop();
        assert!(wakes.wait().stopped);
        wakes.signal_queue();
        assert!(wakes.wait().stopped, "stop persists across waits");
    }

    #[test]
    fn wait_idle_observes_a_parked_worker() {
        let wakes = Arc::new(WakeSet::new());
        let remote = Arc::clone(&wakes);
        let worker = std::thread::spawn(move || {
            // One working pass, then park again.
            let first = remote.wait();
            assert!(first.queue);
            remote.wait()
        });
        wakes.signal_queue();
        assert!(
            wakes.wait_idle(|| true, Duration::from_secs(5)),
            "worker must be seen parked"
        );
        wakes.stop();
        assert!(worker.join().unwrap().stopped);
    }

    #[test]
    fn every_signal_bumps_the_bound_generation() {
        use std::sync::atomic::AtomicU64;
        let wakes = WakeSet::new();
        let generation = Arc::new(AtomicU64::new(0));
        wakes.bind_generation(Arc::clone(&generation));
        wakes.signal_queue();
        wakes.mark_conn(1);
        wakes.hint_steal();
        wakes.stop();
        assert_eq!(generation.load(Ordering::SeqCst), 4);
        let _ = wakes.wait(); // consuming signals is not activity
        assert_eq!(generation.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn is_parked_tracks_the_park_transition() {
        let wakes = Arc::new(WakeSet::new());
        assert!(!wakes.is_parked(), "never waited yet");
        let remote = Arc::clone(&wakes);
        let worker = std::thread::spawn(move || remote.wait());
        while !wakes.is_parked() {
            std::thread::yield_now();
        }
        wakes.signal_queue();
        worker.join().unwrap();
        assert!(!wakes.is_parked(), "woken worker is no longer parked");
    }

    #[test]
    fn parked_since_witnesses_the_park_generation() {
        use std::sync::atomic::AtomicU64;
        let wakes = Arc::new(WakeSet::new());
        let generation = Arc::new(AtomicU64::new(0));
        wakes.bind_generation(Arc::clone(&generation));
        assert_eq!(wakes.parked_since(), None, "never parked");

        // Signals raise the generation; the next park records it.
        wakes.signal_queue();
        let _ = wakes.wait(); // consume, no park needed
        let remote = Arc::clone(&wakes);
        let worker = std::thread::spawn(move || remote.wait());
        while wakes.parked_since().is_none() {
            std::thread::yield_now();
        }
        assert_eq!(
            wakes.parked_since(),
            Some(1),
            "parked at the generation the signal left behind"
        );
        // An observer that snapshotted the generation *after* the park
        // (g = 1) can conclude the worker sat parked since ≤ g.
        let snapshot = generation.load(Ordering::SeqCst);
        assert!(wakes.parked_since().unwrap() <= snapshot);
        // A posted signal ends the witness before the worker even runs.
        wakes.signal_queue();
        assert_eq!(wakes.parked_since(), None, "pending signal = not idle");
        worker.join().unwrap();
    }

    #[test]
    fn wait_idle_times_out_when_extra_never_holds() {
        let wakes = Arc::new(WakeSet::new());
        let remote = Arc::clone(&wakes);
        let worker = std::thread::spawn(move || remote.wait());
        while wakes.parks() == 0 {
            std::thread::yield_now();
        }
        assert!(!wakes.wait_idle(|| false, Duration::from_millis(20)));
        wakes.stop();
        worker.join().unwrap();
    }
}

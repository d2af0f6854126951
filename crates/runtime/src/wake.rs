//! The unified wake source behind event-driven scheduling.
//!
//! Each shard's [`ShardQueue`](crate::ShardQueue) owns one [`WakeSet`]: a
//! condvar-backed signal register fed by every event source that can
//! create work for the shard's worker —
//!
//! * the queue itself (pushes, kicks, stop),
//! * readiness callbacks of the connections the worker pumps
//!   ([`sdrad_net::Endpoint::set_ready_callback`]).
//!
//! The worker parks **indefinitely** in [`WakeSet::wait`]; there is no
//! timeout and therefore no periodic poll. Every mutation that creates
//! work signals the set *after* the work is observable, and signals are
//! level-latched (a signal posted while the worker is mid-pass is
//! consumed by the next `wait`), so no wakeup can be lost. A standalone
//! queue's consumer parks the same way inside
//! [`ShardQueue::pop_batch`](crate::ShardQueue::pop_batch), and a
//! [`Ticket`](crate::Ticket) applies the handshake below to its one
//! completion: this is the runtime's only blocking protocol.
//!
//! ## Notifying only parked threads
//!
//! A condvar notify is a futex syscall even when nobody waits, so a
//! signal notifies only when a thread can be blocked on the set: the
//! worker's `parked` flag, or a quiescer counted in `watchers` (inside
//! [`WakeSet::wait_idle`]). A signal reads both under the same mutex
//! it latches its bit under, and the worker sets `parked` and re-checks
//! `pending()` before every `cv.wait` under that mutex too — it holds
//! the lock from the check into the wait. So a signal that reads
//! `parked == false` has latched its bit before the worker's next
//! check, which returns it without blocking; a signal that reads
//! `parked == true` notifies and clears the flag. A notified worker
//! leaves `cv.wait` and re-checks under the same mutex, where the bit
//! is already latched, so the signals that land before it runs skip
//! the notify too: one syscall per park, however many edges arrive
//! while the woken thread waits for a CPU. The flag is cleared only
//! together with a latched bit, and only the worker consumes bits, so
//! it never blocks with `parked == false`. Likewise the park
//! transition notifies only when a quiescer is watching. No skip can
//! lose a wakeup.
//!
//! The set also exposes the park state to [`Runtime::quiesce`]
//! (`wait_idle`): a shard is quiescent exactly when its worker is parked
//! with no pending signals and its queue and inbox are empty — which is
//! what makes connection drains deterministic instead of "sleep until
//! the stream looks quiet".
//!
//! ## The generation counter
//!
//! Observing shards one by one is not enough while producers run: a
//! shard observed idle can be re-busied (a push, a readiness edge)
//! while later shards are still being checked. Every wake set can
//! therefore be bound to a runtime-wide **generation counter** bumped
//! on *every* signal; the quiesce barrier snapshots it, observes every
//! shard idle, and re-reads it — an unchanged generation proves no work
//! was created anywhere during the whole observation window, so the
//! idle observations were simultaneous, not merely sequential. See
//! [`Runtime::quiesce`].
//!
//! [`Runtime::quiesce`]: crate::Runtime::quiesce

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Everything one [`WakeSet::wait`] return delivers to the worker.
#[derive(Debug, Default)]
pub(crate) struct WakeSignals {
    /// A push or a kick reached the shard queue: drain it and adopt
    /// inbox connections.
    pub queue: bool,
    /// Shutdown began.
    pub stopped: bool,
    /// Connection tokens with observable new state (bytes or close),
    /// in token order.
    pub conns: Vec<usize>,
}

#[derive(Debug, Default)]
struct WakeState {
    queue: bool,
    stopped: bool,
    /// Pending connection tokens, kept sorted and deduplicated on
    /// insert (a plain `Vec` beats a `BTreeSet` here: no node
    /// allocation per token, and the storage recycles through `spare`).
    conns: Vec<usize>,
    /// Recycled token storage: the vector a previous `take` handed out,
    /// returned empty via [`WakeSet::recycle_conns`] so steady-state
    /// passes allocate nothing.
    spare: Vec<usize>,
    /// The worker is blocked (or about to block) in `cv.wait` and has
    /// not been notified since: set by [`WakeSet::wait`], cleared by the
    /// first signal that notifies it or by the worker itself on waking.
    parked: bool,
    /// Quiescers blocked in (or about to block in)
    /// [`WakeSet::wait_idle`]: while nonzero, signals and park
    /// transitions notify even when the worker is awake.
    watchers: usize,
    parks: u64,
    wakeups: u64,
    notifies: u64,
}

impl WakeState {
    fn pending(&self) -> bool {
        self.queue || self.stopped || !self.conns.is_empty()
    }

    fn take(&mut self) -> WakeSignals {
        WakeSignals {
            queue: std::mem::take(&mut self.queue),
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
/// Workers park on their shard's set; queue pushes and connection
/// readiness callbacks wake them. The public surface is observational —
/// [`parks`](Self::parks) and [`wakeups`](Self::wakeups), the counters
/// [`WorkerStats`](crate::WorkerStats) snapshots, plus
/// [`notifies`](Self::notifies), the condvar notifies actually paid;
/// only the runtime itself posts signals.
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
        // Read under the lock the bit was latched under: an awake
        // worker sees the bit at its next check, so only a parked
        // worker or a watching quiescer needs the notify. The notify
        // also unparks the worker: it is runnable from here on, so the
        // signals that land before it runs latch without a syscall.
        let notify = std::mem::take(&mut state.parked) || state.watchers > 0;
        state.notifies += u64::from(notify);
        drop(state);
        // The bump is ordered after the state change and before the
        // notify: a quiescer that re-reads an unchanged generation has
        // proof that no signal landed during its observation window.
        if let Some(generation) = self.generation.get() {
            generation.fetch_add(1, Ordering::SeqCst);
        }
        if notify {
            // notify_all: the worker *and* any quiescer share the condvar.
            self.cv.notify_all();
        }
    }

    /// The shard queue has (or may have) work: a push, a kick, or a
    /// partial drain that left a remainder.
    pub(crate) fn signal_queue(&self) {
        self.signal(|s| s.queue = true);
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
        if conns.capacity() == 0 {
            // Never allocated (a pass with no connection tokens):
            // nothing to hand back, so skip the lock.
            return;
        }
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
        if state.watchers > 0 {
            // The park transition is what a quiescer waits for.
            state.notifies += 1;
            self.cv.notify_all();
        }
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

    /// Condvar notifies actually paid: signals that found the worker
    /// parked or a quiescer watching, and parks while one watched.
    #[must_use]
    pub fn notifies(&self) -> u64 {
        self.state.lock().expect("wakeset lock").notifies
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
        // Counted before the first check: every signal and park from
        // here on notifies, so the transition this waits for is seen.
        state.watchers += 1;
        let idle = loop {
            if state.parked && !state.pending() && extra() {
                break true;
            }
            let now = Instant::now();
            if now >= deadline {
                break false;
            }
            let (next, _result) = self
                .cv
                .wait_timeout(state, deadline - now)
                .expect("wakeset wait");
            state = next;
        };
        state.watchers -= 1;
        idle
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
        wakes.stop();
        assert_eq!(generation.load(Ordering::SeqCst), 3);
        let _ = wakes.wait(); // consuming signals is not activity
        assert_eq!(generation.load(Ordering::SeqCst), 3);
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

    #[test]
    fn signals_to_an_awake_worker_pay_no_notify() {
        let wakes = WakeSet::new();
        wakes.signal_queue();
        wakes.mark_conn(2);
        assert_eq!(wakes.notifies(), 0, "nobody parked, nobody watching");
        let signals = wakes.wait();
        assert!(signals.queue);
        wakes.recycle_conns(signals.conns);
        wakes.stop();
        assert_eq!(wakes.notifies(), 0);
    }

    #[test]
    fn a_parked_worker_costs_one_notify_per_park_and_its_park_none() {
        let wakes = Arc::new(WakeSet::new());
        let remote = Arc::clone(&wakes);
        let worker = std::thread::spawn(move || remote.wait());
        // `parks` moves under the lock the worker holds into its wait.
        while wakes.parks() == 0 {
            std::thread::yield_now();
        }
        assert_eq!(
            wakes.notifies(),
            0,
            "a park with no quiescer notifies nobody"
        );
        wakes.signal_queue();
        assert_eq!(wakes.notifies(), 1, "the parked worker is notified once");
        // Whether or not the woken worker has run yet, it is no longer
        // parked: these latch without a second notify.
        wakes.mark_conn(4);
        wakes.signal_queue();
        assert_eq!(wakes.notifies(), 1, "one notify per park");
        assert!(worker.join().unwrap().queue);
    }

    #[test]
    fn no_wakeup_is_lost_in_a_signal_storm() {
        const PRODUCERS: usize = 4;
        const EDGES: usize = 50_000;
        let wakes = Arc::new(WakeSet::new());
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let remote = Arc::clone(&wakes);
        let worker = std::thread::spawn(move || {
            // Token `PRODUCERS + p` is producer p's final edge; the
            // worker parks whenever nothing is pending, so a skipped
            // notify leaves it parked on a latched final token.
            let mut finals = [false; PRODUCERS];
            while !finals.iter().all(|&seen| seen) {
                let signals = remote.wait();
                for &token in &signals.conns {
                    if let Some(p) = token.checked_sub(PRODUCERS) {
                        finals[p] = true;
                    }
                }
                remote.recycle_conns(signals.conns);
            }
            done_tx.send(()).unwrap();
        });
        // The storm opens on a parked worker, so the parked branch runs.
        while wakes.parks() == 0 {
            std::thread::yield_now();
        }
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let wakes = Arc::clone(&wakes);
                std::thread::spawn(move || {
                    for i in 0..EDGES - 1 {
                        if i % 2 == 0 {
                            wakes.signal_queue();
                        } else {
                            wakes.mark_conn(p);
                        }
                        if i % 300 == 0 {
                            std::thread::yield_now();
                        }
                    }
                    wakes.mark_conn(PRODUCERS + p);
                })
            })
            .collect();
        for producer in producers {
            producer.join().unwrap();
        }
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("worker saw every producer's final token (no lost wakeup)");
        worker.join().unwrap();
        assert!(wakes.wakeups() > 0, "the parked branch must have run");
    }

    #[test]
    fn a_watching_quiescer_is_notified_by_the_park_alone() {
        let wakes = Arc::new(WakeSet::new());
        wakes.signal_queue();
        let (busy_tx, busy_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let remote = Arc::clone(&wakes);
        let worker = std::thread::spawn(move || {
            assert!(remote.wait().queue, "latched signal, no park");
            busy_tx.send(()).unwrap();
            // Busy until the quiescer is watching, then park with no
            // signal posted in between.
            go_rx.recv().unwrap();
            remote.wait()
        });
        busy_rx.recv().unwrap();
        let remote = Arc::clone(&wakes);
        let quiescer =
            std::thread::spawn(move || remote.wait_idle(|| true, Duration::from_secs(5)));
        let deadline = Instant::now() + Duration::from_secs(5);
        while wakes.state.lock().unwrap().watchers == 0 {
            assert!(Instant::now() < deadline, "wait_idle must count itself");
            std::thread::yield_now();
        }
        go_tx.send(()).unwrap();
        assert!(
            quiescer.join().unwrap(),
            "the park alone must wake the quiescer"
        );
        assert_eq!(wakes.notifies(), 1, "one notify: the park transition");
        assert_eq!(wakes.state.lock().unwrap().watchers, 0, "watcher left");
        wakes.stop();
        assert!(worker.join().unwrap().stopped);
    }
}

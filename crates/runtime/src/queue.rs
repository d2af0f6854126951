//! Bounded per-worker request queues with backpressure — lock-free on
//! every hot path.
//!
//! Each worker owns exactly one [`ShardQueue`]; the dispatcher routes a
//! client's requests to its sticky shard. Queues are **bounded**: when a
//! shard is saturated the submit fails and the request is *shed*, the
//! honest overload behaviour of a loaded server (accept queues fill,
//! clients see rejections) rather than unbounded memory growth.
//!
//! ## Data plane
//!
//! The queue is an intrusive **MPSC inbox** (Vyukov, see
//! [`sdrad_nolock`]) that producers push into with one `XCHG`, plus
//! admission: a CAS on a depth counter, **reserved before** the push and
//! released when the owner claims the request, so the bound is exact
//! without any lock.
//!
//! Each queue owns its shard's [`WakeSet`](crate::wake::WakeSet), the
//! one place anything in the runtime blocks: pushes, kicks and stop
//! signal it after the state change is observable. A runtime worker
//! parks on that set; a standalone consumer parks on it inside
//! [`pop_batch`](ShardQueue::pop_batch). [`ShardQueue::kick`] rouses the
//! worker without enqueueing anything (used when a new connection is
//! assigned to the shard).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use sdrad::ClientId;
use sdrad_nolock::{FrameBuf, MpscQueue};

use crate::wake::WakeSet;
use sdrad_telemetry::LatencyHistogram;

/// One request travelling through the runtime.
#[derive(Debug)]
pub struct Request {
    /// The client the request belongs to (selects shard and domain).
    pub client: ClientId,
    /// Raw protocol bytes of one complete request, carried in a
    /// recyclable [`FrameBuf`] so hot-path extraction reuses pooled
    /// storage (a plain `Vec<u8>` converts in, detached).
    pub payload: FrameBuf,
    /// Completion slot the worker fills, if the submitter kept one.
    pub ticket: Option<Ticket>,
    /// When the request entered the runtime (latency measurements count
    /// queue wait from this instant).
    pub accepted_at: Instant,
}

impl Request {
    /// A request stamped with the current instant.
    #[must_use]
    pub fn new(client: ClientId, payload: impl Into<FrameBuf>, ticket: Option<Ticket>) -> Self {
        Request {
            client,
            payload: payload.into(),
            ticket,
            accepted_at: Instant::now(),
        }
    }
}

/// How the runtime disposed of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Disposition {
    /// Served normally.
    Ok,
    /// Answered with a protocol-level error.
    ProtocolError,
    /// The request triggered the planted bug; the fault was contained by
    /// a domain rewind and answered with an error response.
    ContainedFault {
        /// Nanoseconds the rewind took.
        rewind_ns: u64,
    },
    /// The request crashed the unprotected server; the worker restarted
    /// it, recording the state the restart reloaded.
    Crashed,
    /// The request was answered, but the response carried secret bytes
    /// past the protocol boundary — the unprotected TLS baseline under a
    /// Heartbleed-style over-read (the process survives; the
    /// confidentiality guarantee does not).
    SecretLeak,
    /// An internal isolation error (setup failure), answered with an
    /// error response.
    InternalError,
}

/// The worker's answer for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The client that sent the request.
    pub client: ClientId,
    /// Raw response bytes — a [`FrameBuf`] so a pooled response buffer
    /// returns to its worker's arena once the submitter drops it.
    pub response: FrameBuf,
    /// What happened.
    pub disposition: Disposition,
}

/// A handle on one submitted request's eventual completion.
///
/// A one-value latch under [`WakeSet`]'s rule: the slot and the
/// waiter's `parked` flag share one mutex. [`wait`](Ticket::wait) sets
/// `parked` and re-checks the slot under that mutex before every
/// condvar wait; `complete` stores the value and takes `parked` under
/// it, and notifies only when it took `true`. So a completion either
/// lands before the waiter's check, which returns it, or finds the
/// waiter parked and wakes it: no wakeup is lost, no park is timed, and
/// a completion nobody waits for costs no syscall. One waiter at a
/// time.
#[derive(Clone)]
pub struct Ticket {
    inner: Arc<TicketInner>,
}

struct TicketInner {
    state: Mutex<TicketState>,
    ready: Condvar,
}

struct TicketState {
    completion: Option<Completion>,
    /// The waiter is blocked (or about to block) in `ready.wait` and has
    /// not been notified since.
    parked: bool,
}

impl Ticket {
    pub(crate) fn new() -> Self {
        Ticket {
            inner: Arc::new(TicketInner {
                state: Mutex::new(TicketState {
                    completion: None,
                    parked: false,
                }),
                ready: Condvar::new(),
            }),
        }
    }

    pub(crate) fn complete(&self, completion: Completion) {
        let mut state = self.inner.state.lock().expect("ticket lock");
        // A second complete on the same ticket would be a worker bug;
        // while the first is unclaimed the duplicate is dropped.
        state.completion.get_or_insert(completion);
        let notify = std::mem::take(&mut state.parked);
        drop(state);
        if notify {
            self.inner.ready.notify_one();
        }
    }

    /// Blocks until the worker completes the request.
    #[must_use]
    pub fn wait(&self) -> Completion {
        let mut state = self.inner.state.lock().expect("ticket lock");
        loop {
            if let Some(completion) = state.completion.take() {
                return completion;
            }
            state.parked = true;
            state = self.inner.ready.wait(state).expect("ticket wait");
        }
    }

    /// Non-blocking check.
    #[must_use]
    pub fn try_take(&self) -> Option<Completion> {
        self.inner
            .state
            .lock()
            .expect("ticket lock")
            .completion
            .take()
    }
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ready = self
            .inner
            .state
            .lock()
            .expect("ticket lock")
            .completion
            .is_some();
        f.debug_struct("Ticket").field("ready", &ready).finish()
    }
}

/// A bounded MPSC queue feeding exactly one worker.
pub struct ShardQueue {
    /// Lock-free submission inbox.
    inbox: MpscQueue<Request>,
    capacity: usize,
    /// External requests currently admitted. Reserved by CAS **before**
    /// the push, released when the worker claims the request — the
    /// exact capacity bound, without a lock.
    admitted: AtomicUsize,
    stopped: AtomicBool,
    shed: AtomicU64,
    submitted: AtomicU64,
    shed_latency: Mutex<LatencyHistogram>,
    /// The shard's wake set: signalled by every push, kick and stop;
    /// the one thing this queue's consumer parks on.
    wakes: Arc<WakeSet>,
}

impl ShardQueue {
    /// A queue holding at most `capacity` pending requests.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        ShardQueue {
            inbox: MpscQueue::new(),
            capacity: capacity.max(1),
            admitted: AtomicUsize::new(0),
            stopped: AtomicBool::new(false),
            shed: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            shed_latency: Mutex::new(LatencyHistogram::new()),
            wakes: Arc::new(WakeSet::new()),
        }
    }

    /// The shard's wake set this queue signals: the runtime hands it to
    /// the shard's worker and its connections.
    pub(crate) fn wakes(&self) -> &Arc<WakeSet> {
        &self.wakes
    }

    fn shed_request(&self, request: &Request) -> bool {
        self.shed.fetch_add(1, Ordering::Relaxed);
        // Time-to-shed: how long the fast-fail rejection took from the
        // request's arrival. Shedding being cheap (vs. queueing and
        // timing out) is the point of bounded queues.
        self.shed_latency
            .lock()
            .expect("shed histogram lock")
            .record_duration(request.accepted_at.elapsed());
        false
    }

    /// Releases the depth reservation of a claimed (popped) request.
    fn release_claim(&self) {
        self.admitted.fetch_sub(1, Ordering::SeqCst);
    }

    /// Enqueues a request, or sheds it when the shard is saturated (or
    /// already shut down). Returns whether the request was accepted.
    /// Lock-free: a CAS to reserve depth, one `XCHG` to link the node.
    pub fn try_push(&self, request: Request) -> bool {
        if self.is_stopped() {
            return self.shed_request(&request);
        }
        // Reserve a depth slot; the bound stays exact because the slot
        // is taken before the item is visible and released only when a
        // worker claims the item.
        let mut depth = self.admitted.load(Ordering::SeqCst);
        loop {
            if depth >= self.capacity {
                return self.shed_request(&request);
            }
            match self.admitted.compare_exchange_weak(
                depth,
                depth + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break,
                Err(current) => depth = current,
            }
        }
        // Re-check after reserving: the depth increment is what a
        // stopping drainer uses to decide "still work coming", so a
        // push that raced with stop either lands before the final
        // drain's empty check or observes `stopped` here and backs out.
        if self.is_stopped() {
            self.admitted.fetch_sub(1, Ordering::SeqCst);
            return self.shed_request(&request);
        }
        let request = match self.inbox.push(request) {
            Ok(()) => {
                self.submitted.fetch_add(1, Ordering::Relaxed);
                self.wakes.signal_queue();
                return true;
            }
            Err(request) => request,
        };
        // The inbox closed between the checks: back out and shed.
        self.admitted.fetch_sub(1, Ordering::SeqCst);
        self.shed_request(&request)
    }

    /// Pops up to `max` pending requests without blocking, releasing
    /// their depth reservations.
    pub fn try_drain(&self, max: usize) -> Vec<Request> {
        let mut requests = Vec::new();
        while requests.len() < max.max(1) {
            let Some(request) = self.inbox.pop() else {
                break;
            };
            self.release_claim();
            requests.push(request);
        }
        requests
    }

    /// Pops up to `max` requests, blocking while the queue is empty and
    /// running. Returns `None` once the queue is stopped **and** fully
    /// drained — the signal to exit for a standalone consumer.
    ///
    /// Parks on the queue's own wake set, so it is for a queue no
    /// runtime worker serves: the set has one waiter. Every push and
    /// stop signals the set after its change is observable, and the set
    /// latches the signal until this consumer's next wait, so an empty
    /// drain followed by a wait cannot miss the push that ends it.
    pub fn pop_batch(&self, max: usize) -> Option<Vec<Request>> {
        loop {
            let requests = self.try_drain(max);
            if !requests.is_empty() {
                return Some(requests);
            }
            if !self.is_empty() {
                // A producer is mid-push (depth reserved, node not yet
                // linked): the work is instants away, spin for it.
                std::thread::yield_now();
            } else if self.is_stopped() {
                return None;
            } else {
                // Kicks wake this too; the loop re-checks.
                let signals = self.wakes.wait();
                self.wakes.recycle_conns(signals.conns);
            }
        }
    }

    /// Wakes the worker without enqueueing a request (e.g. a connection
    /// was just assigned to this shard).
    pub fn kick(&self) {
        self.wakes.signal_queue();
    }

    /// Begins shutdown: no new requests are accepted; the worker drains
    /// what is queued, then exits.
    pub fn stop(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        self.inbox.close();
        self.wakes.stop();
    }

    /// Whether [`stop`](Self::stop) has been called.
    #[must_use]
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }

    /// Requests shed at this shard so far.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Histogram of time-to-shed for every shed request.
    #[must_use]
    pub fn shed_latency(&self) -> LatencyHistogram {
        self.shed_latency
            .lock()
            .expect("shed histogram lock")
            .clone()
    }

    /// Requests accepted by this shard so far.
    #[must_use]
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Pending (accepted, not yet claimed by the worker) requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.admitted.load(Ordering::SeqCst)
    }

    /// True when nothing is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for ShardQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardQueue")
            .field("capacity", &self.capacity)
            .field("pending", &self.len())
            .field("shed", &self.shed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(n: u64) -> Request {
        Request::new(ClientId(n), vec![n as u8], None)
    }

    #[test]
    fn fifo_order_within_a_shard() {
        let queue = ShardQueue::new(16);
        for i in 0..5 {
            assert!(queue.try_push(request(i)));
        }
        let batch = queue.pop_batch(16).unwrap();
        let clients: Vec<u64> = batch.iter().map(|r| r.client.0).collect();
        assert_eq!(clients, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn saturation_sheds_instead_of_growing() {
        let queue = ShardQueue::new(2);
        assert!(queue.try_push(request(0)));
        assert!(queue.try_push(request(1)));
        assert!(!queue.try_push(request(2)), "third must be shed");
        assert_eq!(queue.shed(), 1);
        assert_eq!(queue.submitted(), 2);
        assert_eq!(queue.shed_latency().len(), 1, "shed latency recorded");
    }

    #[test]
    fn batch_size_is_honoured() {
        let queue = ShardQueue::new(16);
        for i in 0..10 {
            queue.try_push(request(i));
        }
        assert_eq!(queue.pop_batch(4).unwrap().len(), 4);
        assert_eq!(queue.len(), 6);
    }

    #[test]
    fn stop_drains_then_ends() {
        let queue = ShardQueue::new(16);
        queue.try_push(request(1));
        queue.stop();
        assert!(!queue.try_push(request(2)), "stopped queue sheds");
        assert_eq!(queue.pop_batch(8).unwrap().len(), 1, "drain continues");
        assert!(queue.pop_batch(8).is_none(), "then the worker exits");
    }

    #[test]
    fn kick_wakes_an_empty_wait() {
        let queue = Arc::new(ShardQueue::new(4));
        let remote = Arc::clone(&queue);
        let handle = std::thread::spawn(move || remote.wakes().wait());
        while queue.wakes().parks() == 0 {
            std::thread::yield_now();
        }
        queue.kick();
        let signals = handle.join().unwrap();
        assert!(signals.queue, "kick signals the queue bit");
        assert!(!signals.stopped, "kick is not shutdown");
        assert!(queue.is_empty(), "and enqueues nothing");
    }

    #[test]
    fn try_drain_never_blocks() {
        let queue = ShardQueue::new(4);
        assert!(queue.try_drain(8).is_empty());
        queue.try_push(request(1));
        assert_eq!(queue.try_drain(8).len(), 1);
    }

    #[test]
    fn owned_wakeset_sees_push_kick_and_stop() {
        let queue = ShardQueue::new(4);
        let wakes = queue.wakes();

        queue.try_push(request(1));
        assert!(wakes.wait().queue, "push signals");
        queue.kick();
        assert!(wakes.wait().queue, "kick signals");
        queue.stop();
        assert!(wakes.wait().stopped, "stop signals");
    }

    #[test]
    fn tickets_deliver_completions_across_threads() {
        let ticket = Ticket::new();
        let waiter = ticket.clone();
        let handle = std::thread::spawn(move || waiter.wait());
        ticket.complete(Completion {
            client: ClientId(7),
            response: b"ok".to_vec().into(),
            disposition: Disposition::Ok,
        });
        let completion = handle.join().unwrap();
        assert_eq!(completion.client, ClientId(7));
        assert_eq!(completion.disposition, Disposition::Ok);
    }

    #[test]
    fn pop_batch_loses_no_wakeup_in_a_push_storm() {
        const PRODUCERS: u64 = 4;
        const PUSHES: u64 = 20_000;
        let queue = Arc::new(ShardQueue::new(256));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let remote = Arc::clone(&queue);
        let consumer = std::thread::spawn(move || {
            // The consumer drains whenever it wakes and parks whenever
            // the queue is empty, so a skipped notify leaves it parked
            // with requests still queued.
            let mut seen = vec![false; (PRODUCERS * PUSHES) as usize];
            let mut popped = 0;
            while popped < seen.len() {
                for request in remote.pop_batch(32).expect("queue still running") {
                    let id = request.client.0 as usize;
                    assert!(!std::mem::replace(&mut seen[id], true), "{id} popped twice");
                    popped += 1;
                }
            }
            done_tx.send(()).unwrap();
            // Blocks again until the stop below.
            remote.pop_batch(32)
        });
        // The storm opens on a parked consumer, so the parked branch runs.
        while queue.wakes().parks() == 0 {
            std::thread::yield_now();
        }
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    for i in 0..PUSHES {
                        // A full queue sheds; offer the same id again.
                        while !queue.try_push(request(p * PUSHES + i)) {
                            std::thread::yield_now();
                        }
                        if i % 300 == 0 {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for producer in producers {
            producer.join().unwrap();
        }
        done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("consumer popped every request exactly once (no lost wakeup)");
        queue.stop();
        assert!(
            consumer.join().unwrap().is_none(),
            "stopped and drained ends the wait"
        );
        assert!(
            queue.wakes().wakeups() > 0,
            "the parked branch must have run"
        );
    }

    #[test]
    fn ticket_storm_loses_no_wakeup() {
        const PAIRS: u64 = 4;
        const TICKETS: u64 = 20_000;
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let mut threads = Vec::new();
        for p in 0..PAIRS {
            let (ticket_tx, ticket_rx) = std::sync::mpsc::channel::<(u64, Ticket)>();
            threads.push(std::thread::spawn(move || {
                for (id, ticket) in ticket_rx {
                    ticket.complete(Completion {
                        client: ClientId(id),
                        response: FrameBuf::default(),
                        disposition: Disposition::Ok,
                    });
                }
            }));
            let done_tx = done_tx.clone();
            threads.push(std::thread::spawn(move || {
                for i in 0..TICKETS {
                    let id = p * TICKETS + i;
                    let ticket = Ticket::new();
                    ticket_tx.send((id, ticket.clone())).unwrap();
                    // Vary who arrives first: the waiter parks on some
                    // tickets and finds others already complete.
                    if i % 3 == 0 {
                        std::thread::yield_now();
                    }
                    assert_eq!(ticket.wait().client, ClientId(id));
                    assert!(ticket.try_take().is_none(), "delivered exactly once");
                }
                done_tx.send(()).unwrap();
            }));
        }
        for _ in 0..PAIRS {
            done_rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("every waiter saw every completion (no lost wakeup)");
        }
        // Each completer ends when its waiter drops the sending half.
        for thread in threads {
            thread.join().unwrap();
        }
    }
}

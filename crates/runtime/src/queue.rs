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
//! The queue is built from two lock-free structures (see
//! [`sdrad_nolock`]):
//!
//! * an intrusive **MPSC inbox** (Vyukov) that producers push into with
//!   one `XCHG` — external submits and owner-routed batches alike (a
//!   routed batch lands atomically as one pre-linked chain);
//! * a bounded **MPMC steal buffer** the owner *publishes* surplus work
//!   into. Thieves pop the buffer and never touch the owner's pump
//!   loop, which is what makes a steal storm unable to stall the
//!   owner's drain: [`steal_where`](ShardQueue::steal_where) reads
//!   only the buffer.
//!
//! Capacity admission is a CAS on a depth counter, **reserved before**
//! the push and released when a worker claims the request, so the bound
//! is exact without any lock. Blocking ([`wait_work`]) is a cold-path
//! condvar the producers only touch when a sleeper has registered.
//!
//! Since connection-level serving, the queue is also the worker's
//! *wakeup channel*: [`ShardQueue::kick`] rouses the worker without
//! enqueueing anything (used when a new connection is assigned to the
//! shard).
//!
//! Inside a runtime the queue is **bound** to its shard's
//! [`WakeSet`](crate::wake::WakeSet): pushes, kicks and stop all signal
//! the set (after the state change is observable), so a worker parked
//! on the set — not on this queue's own condvar — still sees every
//! edge. When work stealing is enabled the
//! queue rings sibling *steal bells* whenever its backlog crosses the
//! high-water mark and again whenever the owner publishes surplus, and
//! the steal-at-most-half policy is enforced twice: the owner publishes
//! at most half its backlog, and one steal call takes at most half the
//! published buffer. The `stolen` counter feeds the reconciliation
//! invariant that cross-checks against the thieves' own accounting.
//!
//! [`wait_work`]: ShardQueue::wait_work

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use sdrad::ClientId;
use sdrad_nolock::{Bounded, FrameBuf, MpscQueue, SpscRing, WaitSlot};

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
    /// Present when this is an **owner-routed mutation**: a frame a
    /// work-stealing sibling lifted off a connection buffer and routed
    /// back to the owner shard because it mutates shard state. The
    /// serving owner writes the response to the connection (in frame
    /// order, via the tray) instead of completing a ticket. Never
    /// stealable.
    pub(crate) routed: Option<crate::server::RoutedFrame>,
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
            routed: None,
        }
    }

    /// An owner-routed mutation frame (see [`Request::routed`]).
    pub(crate) fn owner_routed(
        client: ClientId,
        payload: impl Into<FrameBuf>,
        frame: crate::server::RoutedFrame,
    ) -> Self {
        Request {
            client,
            payload: payload.into(),
            ticket: None,
            accepted_at: Instant::now(),
            routed: Some(frame),
        }
    }

    /// Whether this is an owner-routed mutation frame.
    #[must_use]
    pub(crate) fn is_routed(&self) -> bool {
        self.routed.is_some()
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
    /// it, charging the modeled restart downtime.
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
/// The hand-off is a single-slot SPSC ring (the worker is the producer,
/// the submitter the consumer) plus a park/unpark [`WaitSlot`]:
/// [`wait`](Ticket::wait) re-checks the ring after registering as a
/// waiter (no lost-wakeup window) and every park is time-sliced, so even
/// a lost notification costs one bounded stall, never a hang.
/// [`wait_deadline`](Ticket::wait_deadline) bounds the wait outright.
#[derive(Clone)]
pub struct Ticket {
    inner: Arc<TicketInner>,
}

struct TicketInner {
    ring: SpscRing<Completion>,
    waiter: WaitSlot,
}

impl Ticket {
    pub(crate) fn new() -> Self {
        Ticket {
            inner: Arc::new(TicketInner {
                ring: SpscRing::new(1),
                waiter: WaitSlot::new(),
            }),
        }
    }

    pub(crate) fn complete(&self, completion: Completion) {
        // A second complete on the same ticket would be a worker bug;
        // the ring is full then and the duplicate is dropped.
        let _ = self.inner.ring.push(completion);
        self.inner.waiter.notify();
    }

    /// Blocks until the worker completes the request.
    #[must_use]
    pub fn wait(&self) -> Completion {
        loop {
            if let Some(completion) = self.inner.ring.pop() {
                return completion;
            }
            self.inner
                .waiter
                .wait_until(None, || !self.inner.ring.is_empty());
        }
    }

    /// Blocks until the worker completes the request or `timeout`
    /// elapses — the bounded-wait escape hatch for callers that must
    /// not hang on a completion that will never come.
    #[must_use]
    pub fn wait_deadline(&self, timeout: Duration) -> Option<Completion> {
        let deadline = Instant::now() + timeout;
        self.inner
            .waiter
            .wait_until(Some(deadline), || !self.inner.ring.is_empty());
        self.inner.ring.pop()
    }

    /// Non-blocking check.
    #[must_use]
    pub fn try_take(&self) -> Option<Completion> {
        self.inner.ring.pop()
    }
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("ready", &!self.inner.ring.is_empty())
            .finish()
    }
}

/// One wakeup's worth of work handed to a worker.
#[derive(Debug)]
pub struct WorkBatch {
    /// Requests popped from the queue (possibly empty on a kick or
    /// shutdown).
    pub requests: Vec<Request>,
    /// Whether the queue has been stopped (the worker exits once it has
    /// also drained its connections).
    pub stopped: bool,
}

/// A bounded MPSC queue feeding exactly one worker, with a lock-free
/// steal buffer idle siblings [steal](Self::steal_where) from.
pub struct ShardQueue {
    /// Lock-free submission inbox: external submits and routed batches.
    inbox: MpscQueue<Request>,
    /// The steal buffer: surplus the owner published for thieves.
    buffer: Bounded<Request>,
    capacity: usize,
    /// External requests currently admitted (inbox + buffer). Reserved
    /// by CAS **before** the push, released when a worker claims the
    /// request — the exact capacity bound, without a lock.
    admitted: AtomicUsize,
    /// Owner-routed frames currently queued. Routed work is exempt from
    /// `capacity` (its bytes were already accepted on a connection) but
    /// bounded by `routed_cap` with all-or-nothing reservation.
    routed_pending: AtomicUsize,
    routed_cap: usize,
    stopped: AtomicBool,
    /// Set by [`ShardQueue::kick`]: wake the worker once even with an
    /// empty queue (new connection assigned, go adopt it).
    kicked: AtomicBool,
    shed: AtomicU64,
    submitted: AtomicU64,
    stolen: AtomicU64,
    routed: AtomicU64,
    routed_rejections: AtomicU64,
    shed_latency: Mutex<LatencyHistogram>,
    /// Cold-path blocking for [`wait_work`](Self::wait_work): producers
    /// take this lock only when `sleepers` says somebody registered.
    sleeper: Mutex<()>,
    available: Condvar,
    sleepers: AtomicUsize,
    /// The shard's wake set, bound once at runtime start (empty for a
    /// queue used standalone).
    wakes: OnceLock<Arc<WakeSet>>,
    /// Sibling wake sets to ring when the backlog crosses
    /// `steal_watermark` or surplus is published; wired only when work
    /// stealing is enabled.
    steal_bells: OnceLock<Vec<Arc<WakeSet>>>,
    steal_watermark: AtomicUsize,
    next_bell: AtomicUsize,
}

impl ShardQueue {
    /// A queue holding at most `capacity` pending requests.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        ShardQueue {
            inbox: MpscQueue::new(),
            buffer: Bounded::new(capacity.next_power_of_two().clamp(8, 1024)),
            capacity,
            admitted: AtomicUsize::new(0),
            routed_pending: AtomicUsize::new(0),
            routed_cap: capacity.saturating_mul(4).max(16),
            stopped: AtomicBool::new(false),
            kicked: AtomicBool::new(false),
            shed: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            routed: AtomicU64::new(0),
            routed_rejections: AtomicU64::new(0),
            shed_latency: Mutex::new(LatencyHistogram::new()),
            sleeper: Mutex::new(()),
            available: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            wakes: OnceLock::new(),
            steal_bells: OnceLock::new(),
            steal_watermark: AtomicUsize::new(usize::MAX),
            next_bell: AtomicUsize::new(0),
        }
    }

    /// Binds this queue to its shard's wake set: every push/kick/stop
    /// from now on signals the set (after the queue state is
    /// observable). Called once, before the runtime starts accepting.
    pub(crate) fn bind_wakeset(&self, wakes: Arc<WakeSet>) {
        assert!(self.wakes.set(wakes).is_ok(), "wakeset bound once");
    }

    /// Wires the sibling wake sets this queue rings when its backlog
    /// reaches `watermark` pending requests (steal hints). Called once,
    /// before the runtime starts accepting.
    pub(crate) fn set_steal_bells(&self, bells: Vec<Arc<WakeSet>>, watermark: usize) {
        self.steal_watermark
            .store(watermark.max(1), Ordering::Relaxed);
        assert!(self.steal_bells.set(bells).is_ok(), "bells wired once");
    }

    fn signal_wakeset(&self) {
        if let Some(wakes) = self.wakes.get() {
            wakes.signal_queue();
        }
    }

    /// Rings the next sibling's steal bell, round-robin.
    fn ring_steal_bell(&self) {
        if let Some(bells) = self.steal_bells.get() {
            if bells.is_empty() {
                return;
            }
            let pick = self.next_bell.fetch_add(1, Ordering::Relaxed) % bells.len();
            bells[pick].hint_steal();
        }
    }

    /// Rings a sibling's steal bell when the backlog is at or past the
    /// high-water mark (the early hint; published surplus rings again).
    fn maybe_ring_steal_bell(&self, backlog: usize) {
        if backlog < self.steal_watermark.load(Ordering::Relaxed) {
            return;
        }
        self.ring_steal_bell();
    }

    /// Wakes a `wait_work` sleeper, if one has registered. Producers pay
    /// one atomic load on the fast path; the lock round-trip happens
    /// only when somebody is actually asleep.
    fn notify_sleeper(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.sleeper.lock().expect("sleeper lock");
            self.available.notify_all();
        }
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
    fn release_claim(&self, request: &Request) {
        if request.is_routed() {
            self.routed_pending.fetch_sub(1, Ordering::SeqCst);
        } else {
            self.admitted.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Enqueues a request, or sheds it when the shard is saturated (or
    /// already shut down). Returns whether the request was accepted.
    /// Lock-free: a CAS to reserve depth, one `XCHG` to link the node.
    pub fn try_push(&self, request: Request) -> bool {
        if self.stopped.load(Ordering::SeqCst) {
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
        if self.stopped.load(Ordering::SeqCst) {
            self.admitted.fetch_sub(1, Ordering::SeqCst);
            return self.shed_request(&request);
        }
        let request = match self.inbox.push(request) {
            Ok(()) => {
                self.submitted.fetch_add(1, Ordering::Relaxed);
                let backlog = self.len();
                self.notify_sleeper();
                self.signal_wakeset();
                self.maybe_ring_steal_bell(backlog);
                return true;
            }
            Err(request) => request,
        };
        // The inbox closed between the checks: back out and shed.
        self.admitted.fetch_sub(1, Ordering::SeqCst);
        self.shed_request(&request)
    }

    /// Takes up to `max` published requests passing `stealable` for an
    /// **idle sibling** worker — at most half the steal buffer per
    /// call, so concurrent thieves (and the owner's reclaim) share the
    /// surplus. Thieves never touch the owner's inbox: only work the
    /// owner explicitly [published](Self::drain_publishing) is
    /// reachable, which is what makes a steal storm unable to stall the
    /// owner's drain. The count is recorded in [`stolen`](Self::stolen)
    /// for reconciliation.
    ///
    /// The publisher applies the same classification when it publishes,
    /// so in steady state every buffered request passes; a request that
    /// does not is returned to the shard — to the inbox when it is
    /// open, else back into the buffer — never dropped. Owner-routed
    /// frames are never published and therefore never stealable.
    pub fn steal_where(&self, max: usize, stealable: impl Fn(&Request) -> bool) -> Vec<Request> {
        let occupancy = self.buffer.len();
        if occupancy == 0 {
            return Vec::new();
        }
        let quota = occupancy.div_ceil(2).min(max.max(1));
        let mut batch = Vec::new();
        let mut rejected = Vec::new();
        while batch.len() < quota {
            match self.buffer.pop() {
                Some(request) if stealable(&request) => batch.push(request),
                Some(request) => rejected.push(request),
                None => break,
            }
        }
        for request in batch.iter() {
            debug_assert!(!request.is_routed(), "routed frames are never published");
            self.release_claim(request);
        }
        self.stolen.fetch_add(batch.len() as u64, Ordering::Relaxed);
        if !rejected.is_empty() {
            // Conservation over ordering: a rejected request must land
            // somewhere the owner can still claim it.
            for mut request in rejected {
                loop {
                    request = match self.inbox.push(request) {
                        Ok(()) => break,
                        Err(back) => back,
                    };
                    request = match self.buffer.push(request) {
                        Ok(()) => break,
                        Err(back) => back,
                    };
                    std::thread::yield_now();
                }
            }
            self.notify_sleeper();
            self.signal_wakeset();
        }
        batch
    }

    /// Requests taken off this queue by sibling workers.
    #[must_use]
    pub fn stolen(&self) -> u64 {
        self.stolen.load(Ordering::Relaxed)
    }

    /// Enqueues a run of **owner-routed mutations** a thief lifted off
    /// one of this shard's connection buffers — the whole run in **one**
    /// queue operation (one pre-linked chain, one `XCHG`, one wake
    /// signal), all-or-nothing by construction, so a write-heavy skew
    /// pays one owner hand-off per run of consecutive mutations instead
    /// of one per frame.
    ///
    /// Unlike [`try_push`] this is exempt from the capacity bound — the
    /// bytes were already accepted on a connection, so shedding here
    /// would un-accept admitted work — but it is still bounded: at most
    /// `4 × capacity` (min 16) routed frames may be pending, reserved
    /// all-or-nothing, and it refuses once the queue is stopped. On
    /// refusal every request comes back and the caller restores the
    /// frames to the tray, where the owner's pump (or shutdown drain)
    /// serves every staged byte — re-queued exactly once, never shed,
    /// never double-counted. Counted in [`routed`](Self::routed), not in
    /// [`submitted`](Self::submitted): routed frames are connection
    /// work, not external submits.
    ///
    /// [`try_push`]: Self::try_push
    pub(crate) fn push_routed_batch(&self, requests: Vec<Request>) -> Result<u64, Vec<Request>> {
        if requests.is_empty() {
            return Ok(0);
        }
        if self.stopped.load(Ordering::SeqCst) {
            return Err(requests);
        }
        let count = requests.len();
        // All-or-nothing reservation against the routed bound.
        let mut pending = self.routed_pending.load(Ordering::SeqCst);
        loop {
            if pending + count > self.routed_cap {
                self.routed_rejections.fetch_add(1, Ordering::Relaxed);
                return Err(requests);
            }
            match self.routed_pending.compare_exchange_weak(
                pending,
                pending + count,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break,
                Err(current) => pending = current,
            }
        }
        if self.stopped.load(Ordering::SeqCst) {
            self.routed_pending.fetch_sub(count, Ordering::SeqCst);
            return Err(requests);
        }
        match self.inbox.push_batch(requests) {
            Ok(()) => {
                self.routed.fetch_add(count as u64, Ordering::Relaxed);
                self.notify_sleeper();
                self.signal_wakeset();
                Ok(count as u64)
            }
            Err(requests) => {
                // The inbox closed between the checks: back out whole.
                self.routed_pending.fetch_sub(count, Ordering::SeqCst);
                Err(requests)
            }
        }
    }

    /// Owner-routed mutation frames accepted by this queue.
    #[must_use]
    pub fn routed(&self) -> u64 {
        self.routed.load(Ordering::Relaxed)
    }

    /// Routed batches refused because the routed bound was full (each a
    /// whole batch restored to its tray, not shed).
    #[must_use]
    pub fn routed_rejections(&self) -> u64 {
        self.routed_rejections.load(Ordering::Relaxed)
    }

    /// Pops inbox requests into `batch` up to `max`, releasing their
    /// depth reservations; once the inbox is exhausted, reclaims
    /// published-but-unstolen work from the steal buffer (the owner
    /// taking its surplus back — not counted as stolen).
    fn fill(&self, batch: &mut Vec<Request>, max: usize) {
        while batch.len() < max {
            match self.inbox.pop() {
                Some(request) => {
                    self.release_claim(&request);
                    batch.push(request);
                }
                None => break,
            }
        }
        if batch.len() < max && self.inbox.is_empty() {
            while batch.len() < max {
                match self.buffer.pop() {
                    Some(request) => {
                        self.release_claim(&request);
                        batch.push(request);
                    }
                    None => break,
                }
            }
        }
    }

    /// The owner's drain: pops up to `max` requests for its own batch,
    /// then **publishes** up to half the remaining inbox backlog into
    /// the steal buffer — only requests passing `publishable` (the
    /// shard's steal classification); mutations and routed frames stay
    /// in the owner's batch (which may therefore exceed `max` by a
    /// bounded amount rather than head-block publication). Rings a
    /// sibling steal bell when anything was published. Reclaims the
    /// buffer when the inbox runs dry, so published work is never
    /// stranded.
    pub fn drain_publishing(
        &self,
        max: usize,
        publishable: impl Fn(&Request) -> bool,
    ) -> Vec<Request> {
        let max = max.max(1);
        let mut batch = Vec::new();
        self.fill(&mut batch, max);
        let surplus = self.inbox.len();
        let space = self.buffer.capacity().saturating_sub(self.buffer.len());
        let quota = (surplus / 2).min(space);
        let mut published = 0usize;
        while published < quota && batch.len() < max.saturating_mul(2) {
            match self.inbox.pop() {
                Some(request) => {
                    if !request.is_routed() && publishable(&request) {
                        match self.buffer.push(request) {
                            Ok(()) => published += 1,
                            Err(request) => {
                                self.release_claim(&request);
                                batch.push(request);
                                break;
                            }
                        }
                    } else {
                        self.release_claim(&request);
                        batch.push(request);
                    }
                }
                None => break,
            }
        }
        if published > 0 {
            self.ring_steal_bell();
        }
        batch
    }

    /// Waits for work: returns when requests are available or the queue
    /// is [kicked](Self::kick) or [stopped](Self::stop). The batch may
    /// be empty — the caller distinguishes "work", "go look at your
    /// connections" and "shutting down" via the [`WorkBatch`] fields.
    pub fn wait_work(&self, max: usize) -> WorkBatch {
        let max = max.max(1);
        loop {
            let kicked = self.kicked.swap(false, Ordering::SeqCst);
            let mut requests = Vec::new();
            self.fill(&mut requests, max);
            let stopped = self.stopped.load(Ordering::SeqCst);
            if !requests.is_empty() || kicked || stopped {
                return WorkBatch { requests, stopped };
            }
            if !self.is_empty() {
                // A producer is mid-push (depth reserved, node not yet
                // linked): the work is instants away, spin for it.
                std::thread::yield_now();
                continue;
            }
            let guard = self.sleeper.lock().expect("sleeper lock");
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            // Re-check after registering: a producer that saw no
            // sleeper has already made one of these true.
            if !self.is_empty()
                || self.kicked.load(Ordering::SeqCst)
                || self.stopped.load(Ordering::SeqCst)
            {
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            let _guard = self.available.wait(guard).expect("queue wait");
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Pops up to `max` pending requests without blocking.
    pub fn try_drain(&self, max: usize) -> Vec<Request> {
        let mut requests = Vec::new();
        self.fill(&mut requests, max.max(1));
        requests
    }

    /// Pops up to `max` requests, blocking while the queue is empty and
    /// running. Returns `None` once the queue is stopped **and** fully
    /// drained — the signal to exit for workers with no connections.
    pub fn pop_batch(&self, max: usize) -> Option<Vec<Request>> {
        loop {
            let batch = self.wait_work(max);
            if !batch.requests.is_empty() {
                return Some(batch.requests);
            }
            if batch.stopped {
                if !self.is_empty() {
                    // A push that raced the stop is still landing (its
                    // depth reservation is visible, its node not yet);
                    // stay and drain it.
                    std::thread::yield_now();
                    continue;
                }
                return None;
            }
            // Spurious kick with nothing queued: keep waiting.
        }
    }

    /// Wakes the worker without enqueueing a request (e.g. a connection
    /// was just assigned to this shard).
    pub fn kick(&self) {
        self.kicked.store(true, Ordering::SeqCst);
        let _guard = self.sleeper.lock().expect("sleeper lock");
        self.available.notify_all();
        drop(_guard);
        self.signal_wakeset();
    }

    /// Begins shutdown: no new requests are accepted; the worker drains
    /// what is queued, then exits.
    pub fn stop(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        self.inbox.close();
        let guard = self.sleeper.lock().expect("sleeper lock");
        self.available.notify_all();
        drop(guard);
        if let Some(wakes) = self.wakes.get() {
            wakes.stop();
        }
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

    /// Pending (accepted, not yet claimed by a worker) requests,
    /// including published-but-unstolen work in the steal buffer.
    #[must_use]
    pub fn len(&self) -> usize {
        self.admitted.load(Ordering::SeqCst) + self.routed_pending.load(Ordering::SeqCst)
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
            .field("published", &self.buffer.len())
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
        let waiter = Arc::clone(&queue);
        let handle = std::thread::spawn(move || waiter.wait_work(8));
        std::thread::sleep(Duration::from_millis(5));
        queue.kick();
        let batch = handle.join().unwrap();
        assert!(batch.requests.is_empty());
        assert!(!batch.stopped, "kick is not shutdown");
    }

    #[test]
    fn try_drain_never_blocks() {
        let queue = ShardQueue::new(4);
        assert!(queue.try_drain(8).is_empty());
        queue.try_push(request(1));
        assert_eq!(queue.try_drain(8).len(), 1);
    }

    #[test]
    fn owner_publishes_at_most_half_and_thieves_split_the_buffer() {
        let queue = ShardQueue::new(16);
        for i in 0..10 {
            queue.try_push(request(i));
        }
        // The owner drains its batch and publishes half the surplus.
        let own = queue.drain_publishing(2, |_| true);
        let owners: Vec<u64> = own.iter().map(|r| r.client.0).collect();
        assert_eq!(owners, vec![0, 1], "owner serves the oldest first");

        // Surplus was 8 → at most 4 published; a thief takes at most
        // half the buffer per call.
        let first = queue.steal_where(64, |_| true);
        let clients: Vec<u64> = first.iter().map(|r| r.client.0).collect();
        assert_eq!(clients, vec![2, 3], "half of the published surplus");
        assert_eq!(queue.steal_where(64, |_| true).len(), 1, "ceil(2/2)");
        assert_eq!(queue.steal_where(64, |_| true).len(), 1);
        assert!(
            queue.steal_where(64, |_| true).is_empty(),
            "buffer exhausted"
        );
        assert_eq!(queue.stolen(), 4);

        // What was never published stays with the owner, in order.
        let rest = queue.pop_batch(16).unwrap();
        let clients: Vec<u64> = rest.iter().map(|r| r.client.0).collect();
        assert_eq!(clients, vec![6, 7, 8, 9]);
        assert!(queue.is_empty());
    }

    #[test]
    fn owner_reclaims_published_work_nobody_stole() {
        let queue = ShardQueue::new(16);
        for i in 0..4 {
            queue.try_push(request(i));
        }
        let own = queue.drain_publishing(1, |_| true);
        assert_eq!(own.len(), 1);
        assert_eq!(queue.len(), 3, "published work still counts as pending");
        // No thief showed up: the owner's next drain takes everything,
        // and none of it counts as stolen.
        let rest = queue.try_drain(8);
        assert_eq!(rest.len(), 3);
        assert_eq!(queue.stolen(), 0);
        assert!(queue.is_empty());
    }

    #[test]
    fn publication_respects_the_steal_classification() {
        let queue = ShardQueue::new(16);
        for i in 0..10 {
            queue.try_push(request(i));
        }
        // Only even clients are "read-only" in this toy classification:
        // odd ones must stay in the owner's batch, never the buffer.
        let own = queue.drain_publishing(2, |r| r.client.0 % 2 == 0);
        let stolen = queue.steal_where(64, |_| true);
        assert!(stolen.iter().all(|r| r.client.0 % 2 == 0));
        assert!(own.iter().chain(stolen.iter()).count() <= 10);
        // Everything is eventually claimed exactly once.
        let mut seen: Vec<u64> = own
            .iter()
            .chain(stolen.iter())
            .map(|r| r.client.0)
            .collect();
        while let Some(batch) = {
            let b = queue.try_drain(16);
            if b.is_empty() {
                None
            } else {
                Some(b)
            }
        } {
            seen.extend(batch.iter().map(|r| r.client.0));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn routed_batches_are_bounded_all_or_nothing() {
        use crate::server::{Connection, RoutedFrame};
        use sdrad_net::Listener;

        let listener = Listener::new();
        let _client = listener.connect();
        let endpoint = listener.accept_blocking().expect("loopback accept");
        let conn = Connection::new(ClientId(1), endpoint);

        let routed_request = || {
            Request::owner_routed(
                ClientId(1),
                b"set k 1\r\nv\r\n".to_vec(),
                RoutedFrame {
                    tray: Arc::clone(&conn.tray),
                },
            )
        };

        // capacity 1 → routed bound is the 16 minimum.
        let queue = ShardQueue::new(1);
        let batch: Vec<Request> = (0..16).map(|_| routed_request()).collect();
        assert_eq!(queue.push_routed_batch(batch).expect("fits"), 16);
        assert_eq!(queue.routed(), 16);

        // The bound is full: the whole batch comes back, nothing is
        // half-enqueued, and the refusal is counted.
        let overflow: Vec<Request> = (0..2).map(|_| routed_request()).collect();
        let returned = queue
            .push_routed_batch(overflow)
            .expect_err("routed bound full");
        assert_eq!(returned.len(), 2);
        assert_eq!(queue.routed(), 16, "refused batch never counted");
        assert_eq!(queue.routed_rejections(), 1);
        assert_eq!(queue.len(), 16);

        // Routed work is exempt from—and does not consume—the external
        // capacity bound.
        assert!(queue.try_push(request(7)));
        assert_eq!(queue.len(), 17);

        // Draining releases routed reservations and frees the bound.
        let drained = queue.try_drain(32);
        assert_eq!(drained.len(), 17);
        assert_eq!(
            queue
                .push_routed_batch(vec![routed_request()])
                .expect("freed"),
            1
        );
    }

    #[test]
    fn bound_wakeset_sees_push_kick_and_stop() {
        use crate::wake::WakeSet;
        let queue = ShardQueue::new(4);
        let wakes = Arc::new(WakeSet::new());
        queue.bind_wakeset(Arc::clone(&wakes));

        queue.try_push(request(1));
        assert!(wakes.wait().queue, "push signals");
        queue.kick();
        assert!(wakes.wait().queue, "kick signals");
        queue.stop();
        assert!(wakes.wait().stopped, "stop signals");
    }

    #[test]
    fn crossing_the_watermark_rings_a_sibling_bell() {
        use crate::wake::WakeSet;
        let queue = ShardQueue::new(16);
        let bell = Arc::new(WakeSet::new());
        queue.set_steal_bells(vec![Arc::clone(&bell)], 3);

        queue.try_push(request(0));
        queue.try_push(request(1));
        queue.try_push(request(2)); // backlog reaches the watermark
        let signals = bell.wait();
        assert!(signals.steal, "watermark rings the bell");
        assert!(!signals.queue, "a hint is not the sibling's own queue");
    }

    #[test]
    fn publishing_surplus_rings_a_sibling_bell() {
        use crate::wake::WakeSet;
        let queue = ShardQueue::new(16);
        let bell = Arc::new(WakeSet::new());
        queue.set_steal_bells(vec![Arc::clone(&bell)], usize::MAX);

        for i in 0..8 {
            queue.try_push(request(i));
        }
        let _ = queue.drain_publishing(2, |_| true);
        assert!(bell.wait().steal, "publication rings the bell");
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
    fn ticket_wait_deadline_bounds_a_completion_that_never_comes() {
        let ticket = Ticket::new();
        let started = Instant::now();
        assert!(ticket.wait_deadline(Duration::from_millis(5)).is_none());
        assert!(started.elapsed() >= Duration::from_millis(5));
        // And still delivers if the completion lands later.
        ticket.complete(Completion {
            client: ClientId(1),
            response: FrameBuf::default(),
            disposition: Disposition::Ok,
        });
        assert!(ticket.wait_deadline(Duration::from_millis(5)).is_some());
        assert!(ticket.try_take().is_none(), "delivered exactly once");
    }
}

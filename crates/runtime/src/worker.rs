//! The worker: one thread, one shard queue, one isolation context, one
//! workload shard — and, since connection-level serving, the shard's
//! live connections.
//!
//! A worker interleaves two sources of work:
//!
//! * its bounded [`ShardQueue`] of pre-framed requests (the submit API),
//! * the raw [`sdrad-net`](sdrad_net) endpoints assigned to its shard,
//!   which it **pumps**: read whatever bytes arrived, let the handler's
//!   [`frame`](crate::SessionHandler::frame) split complete requests off
//!   the stream, serve each, write the response back. Partial reads stay
//!   buffered, pipelined requests all complete in order, malformed heads
//!   resynchronise or close per the protocol, and a peer that disconnects
//!   mid-request has its half-request discarded.
//!
//! ## Scheduling
//!
//! The worker parks indefinitely on its shard's [`WakeSet`]; queue
//! pushes, connection readiness callbacks and sibling steal hints wake
//! it. An idle worker burns **zero** CPU — no periodic connection
//! polls — which is the whole point of judging resilience mechanisms by
//! their energy footprint.
//!
//! Each pump pass is bounded by the per-connection **read budget**
//! (`RuntimeConfig::conn_read_budget`): one noisy pipelining client
//! gets at most that many framed requests served per rotation before
//! the worker moves to the next ready connection.
//!
//! ## Work stealing
//!
//! With [`StealPolicy::Deep`] an otherwise-idle worker takes read-only
//! pre-framed requests off the most-loaded sibling queue, then lifts
//! **framing-complete requests off sibling connection buffers**
//! (through the shared [`ConnTray`], never the endpoint itself — a
//! connection stays sticky for domain affinity), serving read-only
//! frames with its own handler and **leaving shard-state mutations in
//! the tray** for the owner's pump — the state-confinement rule that
//! makes stealing safe for shard-stateful handlers. Response order per
//! connection is preserved by the tray lock plus the in-flight gate.
//! Every budget deferral that
//! leaves complete frames behind while a sibling sits parked is counted
//! as a **stranded-request stall** ([`WorkerStats::stranded_stalls`]),
//! the capacity waste deep stealing exists to eliminate.
//!
//! [`WakeSet`]: crate::wake::WakeSet
//! [`StealPolicy::Deep`]: crate::StealPolicy::Deep
//! [`ConnTray`]: crate::server::ConnTray

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sdrad_control::RecoveryRung;
use sdrad_nolock::{FrameBuf, HazardDomain, Shared};
use sdrad_telemetry::{
    Collector, DeltaFrame, EventKind, LatencyHistogram, LiveTotals, Recorder, Source,
};

use crate::control_hub::ControlHub;
use crate::handler::{Framing, ReadView, Reply, SessionHandler, StealClass};
use crate::isolation::WorkerIsolation;
use crate::queue::{Completion, Disposition, Request, ShardQueue};
use crate::runtime::RuntimeConfig;
use crate::server::{ConnInbox, ConnRegistry, ConnTray, Connection};
use crate::stats::LiveCounters;
use crate::wake::WakeSet;

/// Per-worker counters, returned when the worker exits.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkerStats {
    /// Worker (= shard) index.
    pub worker: usize,
    /// Requests completed, any disposition.
    pub served: u64,
    /// Requests served normally.
    pub ok: u64,
    /// Requests answered with protocol-level errors.
    pub protocol_errors: u64,
    /// Faults contained by a domain rewind.
    pub contained_faults: u64,
    /// Cumulative nanoseconds spent rewinding contained faults.
    pub rewind_ns: u64,
    /// Fatal crashes of the unprotected baseline.
    pub crashes: u64,
    /// Responses that leaked secret bytes (unprotected TLS baseline).
    pub leaks: u64,
    /// Internal isolation errors.
    pub internal_errors: u64,
    /// State bytes the handler held at each restart (a crash, or the
    /// ladder's restart rung), summed: what the restarts reloaded. The
    /// restart model is affine in these bytes, so restart downtime is
    /// priced from the sum after the run.
    pub restart_state_bytes: u64,
    /// State bytes the handler held at each fault the ladder judged,
    /// summed: what restart-only recovery of the same faults would have
    /// reloaded.
    pub judged_state_bytes: u64,
    /// Wall-clock time spent processing requests (nanoseconds).
    pub busy_ns: u64,
    /// Requests shed at this worker's queue (filled in at shutdown).
    pub shed: u64,
    /// Connections adopted by this worker.
    pub connections: u64,
    /// Requests served off connection streams (as opposed to the submit
    /// queue) — lets the aggregate accounting tie `served` back to
    /// `submitted` exactly.
    pub conn_served: u64,
    /// Connections that disconnected with a half-received request still
    /// buffered (the bytes are discarded, the request never ran).
    pub aborted_requests: u64,
    /// Times the worker parked with nothing to do.
    pub parks: u64,
    /// Times a parked worker was woken by a signal.
    pub wakeups: u64,
    /// Pre-framed requests this worker stole from sibling queues.
    pub steals: u64,
    /// Framing-complete requests this worker lifted off sibling
    /// **connection buffers** and served itself
    /// ([`StealPolicy::Deep`](crate::StealPolicy::Deep) only).
    pub conn_steals: u64,
    /// Stolen requests classified as shard-state mutations that this
    /// worker executed anyway — a state-confinement violation. The
    /// classification filters on publication and on stealing keep it
    /// at zero; a nonzero count means one of them let a mutation
    /// through.
    pub thief_mutations: u64,
    /// Stolen reads this worker (as a thief) answered from a victim's
    /// hazard-protected read view — i.e. against the **owner's live
    /// shard state** — instead of its own shard. A subset of
    /// `conn_steals`; the remainder fell back to own-shard serving
    /// (nothing published yet, or a frame the view cannot answer).
    pub shared_reads: u64,
    /// Read views this worker published: the first publish plus every
    /// republish after a state change or pool rebuild moved the
    /// `(pool generation, state version)` stamp.
    pub views_published: u64,
    /// Domains this worker's rebuild/restart rungs handed to teardown —
    /// the retire side of the reclamation books.
    pub domains_retired: u64,
    /// Domains actually torn down: by amortized reclaim steps, or with
    /// their manager on a worker restart.
    pub domains_reclaimed: u64,
    /// Domains still awaiting reclaim steps when the worker exited
    /// (zero after a clean shutdown drain).
    pub domains_pending: u64,
    /// Stranded-request stalls: budget deferrals that left
    /// framing-complete requests waiting in a connection buffer while
    /// at least one sibling worker sat parked — capacity wasted by a
    /// steal policy that cannot reach connection buffers.
    ///
    /// The accounting is **exact**, not a racy instantaneous read: a
    /// sibling counts as parked only if it parked at a runtime
    /// generation no later than the one this worker's pass started at
    /// *and* is still parked at the deferral — witnessed through the
    /// monotonic generation counter, so the sibling provably sat idle
    /// for the whole pass that stranded the frames.
    pub stranded_stalls: u64,
    /// Idle connections reaped (no bytes for the configured number of
    /// pump passes).
    pub reaped: u64,
    /// Escalation-ladder decisions that stopped at the rewind rung
    /// (control plane enabled: the fault was already rewound by the
    /// isolation substrate, the ladder chose no further action).
    pub ladder_rewinds: u64,
    /// Pool discard/rebuild rungs this worker executed (control
    /// plane): the whole domain pool torn down and re-created.
    pub pool_rebuilds: u64,
    /// Worker-restart rungs this worker executed (control plane):
    /// isolation context and handler state rebuilt in place.
    pub worker_restarts: u64,
    /// Frame buffers this worker's thread acquired from its arena
    /// (every payload extraction and response render on the hot path).
    pub arena_acquires: u64,
    /// Acquires satisfied by recycled storage (no allocator call).
    pub arena_reuses: u64,
    /// Buffers returned to this thread's pool — same-thread drops plus
    /// cross-thread returns drained from the MPSC return channel.
    pub arena_returns: u64,
    /// Acquires that fell through to a fresh heap allocation.
    pub arena_fresh_allocs: u64,
    /// Domains the worker's pool instantiated.
    pub domains_created: usize,
    /// Rewinds reported by the worker's own `DomainManager` — must equal
    /// `contained_faults` (the reconciliation invariant).
    pub manager_rewinds: u64,
    /// Latency histogram of requests served normally.
    pub ok_latency: LatencyHistogram,
    /// Latency histogram of contained-fault requests (staging + fault +
    /// rewind + error response).
    pub contained_latency: LatencyHistogram,
    /// Histogram of the rewind component alone, per contained fault.
    pub rewind_latency: LatencyHistogram,
}

impl WorkerStats {
    /// The per-worker invariant: the fault count the worker observed at
    /// the protocol level must equal the rewinds its manager performed.
    #[must_use]
    pub fn reconciles(&self) -> bool {
        self.contained_faults == self.manager_rewinds
            && self.contained_faults == self.contained_latency.len()
            && self.contained_faults == self.rewind_latency.len()
            && self.ok == self.ok_latency.len()
            && self.domains_retired == self.domains_reclaimed + self.domains_pending
            && self.shared_reads <= self.conn_steals
    }
}

/// What one budgeted pump of one connection produced.
struct PumpOutcome {
    /// Bytes were read or requests served.
    progressed: bool,
    /// The connection stays in the pump set.
    keep: bool,
    /// The read budget was exhausted with at least one more complete
    /// frame buffered — the worker must come back (after giving other
    /// ready connections their turn).
    more: bool,
}

/// What one shard publishes for hazard-protected shared reads: the
/// handler's frozen [`ReadView`] stamped with the pool generation and
/// state version it was frozen at. Thieves read the whole value under
/// one hazard guard, so a stamp never mismatches its view.
pub(crate) struct ShardView {
    /// `WorkerIsolation::pool_generation` at publish time.
    pub(crate) pool_generation: u64,
    /// `SessionHandler::state_version` at publish time.
    pub(crate) version: u64,
    /// The frozen view (`None` before the first publish, or for
    /// handlers that publish none).
    pub(crate) view: Option<Box<dyn ReadView>>,
}

impl ShardView {
    /// The pre-publish placeholder every cell starts from.
    pub(crate) fn empty() -> Self {
        ShardView {
            pool_generation: 0,
            version: 0,
            view: None,
        }
    }
}

/// The channels one worker serves: its own queue, connection inbox,
/// wake set and connection registry, plus (with stealing enabled) the
/// sibling queues, registries and wake sets it may steal from and
/// observe.
pub(crate) struct ShardChannels {
    pub(crate) queue: Arc<ShardQueue>,
    pub(crate) inbox: Arc<ConnInbox>,
    pub(crate) wakes: Arc<WakeSet>,
    /// This shard's own connection registry (trays registered at
    /// attach, deregistered at retire).
    pub(crate) registry: Arc<ConnRegistry>,
    /// All shard queues (self included, skipped by index) — the steal
    /// victims. Empty when stealing is disabled.
    pub(crate) peers: Vec<Arc<ShardQueue>>,
    /// All shard connection registries (self included, skipped by
    /// index) — the deep-steal victims. Empty unless the policy is
    /// [`StealPolicy::Deep`](crate::StealPolicy::Deep).
    pub(crate) peer_registries: Vec<Arc<ConnRegistry>>,
    /// Sibling wake sets (self excluded): parked-state observation for
    /// the stall counter, and the bells a deferring owner rings so deep
    /// thieves come help. Empty when stealing is disabled.
    pub(crate) peer_wakes: Vec<Arc<WakeSet>>,
    /// The runtime-wide signal generation counter — the witness the
    /// exact stranded-stall accounting reads (a sibling "sat parked"
    /// only if it parked at a generation ≤ the pass start).
    pub(crate) generation: Arc<AtomicU64>,
    /// The adaptive control plane, when enabled: the worker reports
    /// every disposition and executes the escalation rungs it returns.
    pub(crate) control: Option<Arc<ControlHub>>,
    /// This worker's flight-recorder handle, bound to its own SPSC
    /// ring ([`Recorder::Off`] when telemetry is disabled). Emission is
    /// deliberately economical on the hot path: no per-ok-request
    /// events — park/wake per pass, rewind/rung per fault, steal per
    /// batch (the `detail` word carries the count).
    pub(crate) recorder: Recorder,
    /// The live-counter mailbox `Runtime::stats_snapshot` reads; the
    /// worker flushes its counters here once per pump pass.
    pub(crate) live: Arc<LiveCounters>,
    /// The runtime-wide hazard domain published read views retire
    /// through (`Some` only under
    /// [`StealPolicy::Deep`](crate::StealPolicy::Deep)).
    pub(crate) hazard: Option<Arc<HazardDomain>>,
    /// Every shard's published read view, **self included**, indexed by
    /// shard — hazard-protected so thieves read a victim's live shard
    /// state without locks. Empty unless the policy is deep.
    pub(crate) view_cells: Vec<Arc<Shared<ShardView>>>,
    /// The streaming collector this worker ships delta frames to
    /// (`None` unless [`RuntimeConfig::streaming`] and the flight
    /// recorder are both enabled). Frames ride the pump passes, one
    /// each — no flush thread, no timer: an idle shard ships nothing.
    pub(crate) collector: Option<Arc<Collector>>,
}

/// One worker: drains its shard queue and pumps its connections until
/// the queue stops, then reports its counters.
pub struct Worker<H: SessionHandler> {
    index: usize,
    channels: ShardChannels,
    /// This worker's monotonic frame sequence (the collector's
    /// loss-detection key).
    flush_seq: u64,
    /// The `(pool generation, state version)` stamp of the view this
    /// worker last published — republish only when it moves.
    published: Option<(u64, u64)>,
    /// Highest view stamp observed per victim shard. Publishes only
    /// move stamps forward, so a backwards step would mean a shared
    /// read landed on a retired (reclaimed-and-stale) view — the
    /// use-after-free the hazard protocol exists to prevent.
    view_stamps: Vec<(u64, u64)>,
    /// This worker's shard index as the event-field width.
    shard_u16: u16,
    /// Token-addressed connection slab; `None` slots are free.
    conns: Vec<Option<Connection>>,
    free_tokens: Vec<usize>,
    iso: WorkerIsolation,
    handler: H,
    batch: usize,
    conn_budget: usize,
    idle_reap_after: Option<u64>,
    /// Runtime generation at the start of the current pass — the
    /// stall-accounting witness.
    pass_generation: u64,
    /// Round-robin cursor over `peer_wakes` for deferred-frame bells.
    next_bell: usize,
    /// Monotonic pump-pass counter (one per wake); the reaper measures
    /// connection idleness in these.
    pass: u64,
    stats: WorkerStats,
}

impl<H: SessionHandler> Worker<H> {
    /// Assembles a worker. Called (by [`Runtime::start`]) on the
    /// worker's own thread so the `DomainManager` inside `iso` stays
    /// thread-confined.
    ///
    /// [`Runtime::start`]: crate::Runtime::start
    pub(crate) fn new(
        index: usize,
        channels: ShardChannels,
        iso: WorkerIsolation,
        handler: H,
        config: &RuntimeConfig,
    ) -> Self {
        Worker {
            index,
            view_stamps: vec![(0, 0); channels.view_cells.len()],
            channels,
            flush_seq: 0,
            published: None,
            shard_u16: u16::try_from(index).unwrap_or(u16::MAX),
            conns: Vec::new(),
            free_tokens: Vec::new(),
            iso,
            handler,
            batch: config.batch.max(1),
            conn_budget: config.conn_read_budget.max(1),
            idle_reap_after: config.idle_reap_after,
            pass_generation: 0,
            next_bell: 0,
            pass: 0,
            stats: WorkerStats {
                worker: index,
                ..WorkerStats::default()
            },
        }
    }

    /// Runs until the queue is stopped and drained and every connection
    /// byte that arrived has been served; returns the counters.
    pub fn run(mut self) -> WorkerStats {
        self.run_event();
        self.drain();
        // Close the reclamation books: drain the deferred teardown
        // queue so a clean exit leaves nothing pending.
        while self.iso.reclaim_step(16) > 0 {}
        self.stats.shed = self.channels.queue.shed();
        self.stats.domains_created = self.iso.domains_created();
        self.stats.manager_rewinds = self.iso.rewinds();
        self.stats.domains_retired = self.iso.domains_retired();
        self.stats.domains_reclaimed = self.iso.domains_reclaimed();
        self.stats.domains_pending = self.iso.pending_domains() as u64;
        self.stats.parks = self.channels.wakes.parks();
        self.stats.wakeups = self.channels.wakes.wakeups();
        let arena = sdrad_nolock::arena::thread_stats();
        self.stats.arena_acquires = arena.acquires;
        self.stats.arena_reuses = arena.reuses;
        self.stats.arena_returns = arena.returns;
        self.stats.arena_fresh_allocs = arena.fresh_allocs;
        self.flush_live();
        self.stats
    }

    /// Serving: park on the wake set, run one pass per wake. No
    /// timeouts anywhere — an idle shard costs nothing.
    fn run_event(&mut self) {
        loop {
            // The pass's counters, built once: published before
            // parking and shipped in the delta frame after the wake —
            // nothing in between serves a request.
            let totals = self.flush_live();
            self.channels
                .recorder
                .emit(EventKind::Park, self.shard_u16, 0, self.pass);
            let signals = self.channels.wakes.wait();
            self.pass += 1;
            self.channels
                .recorder
                .emit(EventKind::Wake, self.shard_u16, 0, self.pass);
            // The stall-accounting witness: any sibling still parked at
            // a generation ≤ this snapshot has provably sat idle for
            // the whole pass (its park predates everything the pass
            // serves or defers).
            self.pass_generation = self.channels.generation.load(Ordering::SeqCst);
            if let Some(hub) = &self.channels.control {
                // The control loop's tick rides the wake machinery: one
                // tick per pass, zero ticks while the shard is idle.
                hub.tick();
            }
            // The streaming flush rides the same machinery: one delta
            // frame per pass, zero while idle.
            self.flush_telemetry(totals);
            // Amortized teardown: a couple of retired domains go per
            // pass, so a deferred rebuild's cost never lands on one
            // request. Cheap no-op when nothing is pending.
            self.iso.reclaim_step(2);
            self.maybe_publish_view();
            let mut ready = signals.conns;
            ready.extend(self.adopt_connections());

            // Only a queue signal can mean queue work (pushes latch it
            // until consumed), so conn-only wakes skip the queue drain.
            let requests = if signals.queue {
                self.drain_own_queue()
            } else {
                Vec::new()
            };
            let had_queue_work = !requests.is_empty();
            if had_queue_work {
                let started = Instant::now();
                for request in requests {
                    self.serve(request);
                }
                self.note_busy(started);
                // A partial drain leaves a remainder: come straight
                // back (after this pass) instead of parking on it.
                if !self.channels.queue.is_empty() {
                    self.channels.queue.kick();
                }
            }

            let mut pumped = false;
            let mut deferred = false;
            for &token in &ready {
                let outcome = self.pump_token(token);
                pumped |= outcome.progressed;
                if outcome.more {
                    // Budget exhausted: requeue the token behind the
                    // other ready connections (per-connection fairness),
                    // and note the deferral — complete frames are now
                    // stranded in this buffer, which an idle sibling
                    // could be serving.
                    self.note_deferred_frames();
                    self.channels.wakes.mark_conn(token);
                    deferred = true;
                }
            }
            if deferred {
                // The same fairness across threads: the deferred frames
                // are latched, so the next wait returns at once, and a
                // thread sharing this CPU — an in-process client whose
                // writes feed these connections — runs first instead of
                // waiting out the scheduler's slice. Without it such a
                // client flips between refilling promptly and stalling
                // behind whole budget rounds (DESIGN.md §2).
                std::thread::yield_now();
            }
            // The token vector's capacity cycles back into the wake set
            // rather than being reallocated next pass.
            self.channels.wakes.recycle_conns(ready);
            self.reap_idle();

            if signals.steal || (!had_queue_work && !pumped && !signals.stopped) {
                self.try_steal();
            }
            if signals.stopped {
                break;
            }
        }
    }

    /// Shutdown drain: the queue sheds new submits now, but everything
    /// already accepted — queued requests, connection bytes already
    /// received, connections still in the inbox — is served before the
    /// worker exits. The loop ends when a full pass makes no progress.
    fn drain(&mut self) {
        loop {
            self.flush_live();
            self.pass += 1;
            self.iso.reclaim_step(2);
            self.adopt_connections();
            let queued = self.channels.queue.try_drain(self.batch);
            let drained_queue = !queued.is_empty();
            let started = Instant::now();
            for request in queued {
                self.serve(request);
            }
            if drained_queue {
                self.note_busy(started);
            }
            let pumped = self.pump_live_connections();
            if !drained_queue
                && !pumped
                && self.channels.queue.is_empty()
                && self.channels.inbox.is_empty()
            {
                if self.any_tray_gated() {
                    // A thief is still serving an extracted run: the
                    // frames behind the gate are ours to serve — wait
                    // it out.
                    std::thread::yield_now();
                    continue;
                }
                break;
            }
        }
    }

    /// Whether any of this worker's connections is gated on in-flight
    /// stolen frames — or holds actionable frames a thief staged
    /// *after* this pass's pump (a thief that meets a mutation at the
    /// head drains the endpoint into the tray and leaves, so the only
    /// way to observe those frames here is to look).
    fn any_tray_gated(&self) -> bool {
        self.conns.iter().flatten().any(|conn| {
            let tray = conn.tray.lock();
            tray.inflight > 0
                || (!tray.staged.is_empty()
                    && !matches!(
                        self.handler.frame(tray.staged.pending()),
                        Framing::Incomplete
                    ))
        })
    }

    /// Moves connections newly assigned to this shard into the pump
    /// set, allocating a token per connection. The endpoint's readiness
    /// callback is pointed at the shard's wake set (firing immediately
    /// if bytes or a close already arrived, so no pre-adoption edge is
    /// lost). Returns the new tokens.
    fn adopt_connections(&mut self) -> Vec<usize> {
        let adopted = self.channels.inbox.drain();
        self.stats.connections += adopted.len() as u64;
        let mut tokens = Vec::with_capacity(adopted.len());
        for mut conn in adopted {
            conn.last_progress_pass = self.pass;
            let token = match self.free_tokens.pop() {
                Some(token) => token,
                None => {
                    self.conns.push(None);
                    self.conns.len() - 1
                }
            };
            // Thieves re-wake this worker through the tray once the
            // owner is known.
            conn.tray
                .bind_owner(Arc::clone(&self.channels.wakes), token);
            let wakes = Arc::clone(&self.channels.wakes);
            conn.endpoint
                .set_ready_callback(Arc::new(move || wakes.mark_conn(token)));
            self.conns[token] = Some(conn);
            tokens.push(token);
        }
        tokens
    }

    /// Pumps every live connection until no budget round leaves a
    /// complete frame behind; returns whether any made progress. (The
    /// shutdown drain, which has no readiness tokens.)
    fn pump_live_connections(&mut self) -> bool {
        let mut progressed = false;
        let mut pending: Vec<usize> = (0..self.conns.len())
            .filter(|&t| self.conns[t].is_some())
            .collect();
        while !pending.is_empty() {
            let mut again = Vec::new();
            for token in pending {
                let outcome = self.pump_token(token);
                progressed |= outcome.progressed;
                if outcome.more {
                    again.push(token);
                }
            }
            pending = again;
        }
        progressed
    }

    /// Pumps the connection behind `token` once (budgeted). Empty and
    /// stale tokens are no-ops.
    fn pump_token(&mut self, token: usize) -> PumpOutcome {
        let Some(mut conn) = self.conns.get_mut(token).and_then(Option::take) else {
            return PumpOutcome {
                progressed: false,
                keep: false,
                more: false,
            };
        };
        let outcome = self.pump_one(&mut conn);
        if outcome.progressed {
            conn.last_progress_pass = self.pass;
        }
        if outcome.keep {
            self.conns[token] = Some(conn);
        } else {
            self.retire(token, conn);
        }
        outcome
    }

    /// Drops a connection: unregisters its waker (so a stale token is
    /// never signalled), marks the tray retired (so a thief never locks
    /// onto a dead buffer), deregisters it from the shard's registry,
    /// and counts a half-received request as aborted.
    fn retire(&mut self, token: usize, mut conn: Connection) {
        conn.endpoint.clear_ready_callback();
        let half_request = {
            let mut tray = conn.tray.lock();
            tray.retired = true;
            !tray.staged.is_empty()
        };
        self.channels.registry.deregister(&conn.tray);
        if half_request {
            // Mid-request disconnect: the half-request is discarded.
            self.stats.aborted_requests += 1;
        }
        self.free_tokens.push(token);
    }

    /// Closes and retires connections that made no progress for the
    /// configured number of pump passes. Progress a thief made on the
    /// worker's behalf counts (rescued connections are not idle), and a
    /// connection gated on a thief's in-flight run is never reaped —
    /// its answers are still owed.
    fn reap_idle(&mut self) {
        let Some(reap_after) = self.idle_reap_after else {
            return;
        };
        for token in 0..self.conns.len() {
            let idle_for = match &mut self.conns[token] {
                Some(conn) => {
                    let mut tray = conn.tray.lock();
                    if std::mem::take(&mut tray.thief_progress) || tray.inflight > 0 {
                        conn.last_progress_pass = self.pass;
                    }
                    drop(tray);
                    self.pass.saturating_sub(conn.last_progress_pass)
                }
                None => continue,
            };
            if idle_for >= reap_after.max(1) {
                let mut conn = self.conns[token].take().expect("slot checked");
                conn.endpoint.close();
                self.stats.reaped += 1;
                self.retire(token, conn);
            }
        }
    }

    /// Drains up to one batch from the owned queue, publishing surplus
    /// read-only requests into the shard's steal buffer when stealing
    /// is enabled (there are peers) — the same classification
    /// `steal_where` enforces — so thieves popping the buffer never
    /// race the owner's inbox cursor.
    fn drain_own_queue(&mut self) -> Vec<Request> {
        if self.channels.peers.is_empty() {
            return self.channels.queue.try_drain(self.batch);
        }
        let handler = &self.handler;
        self.channels.queue.drain_publishing(self.batch, |request| {
            handler.steal_class(&request.payload) == StealClass::ReadOnly
        })
    }

    /// Steals work from loaded siblings: first a batch of read-only
    /// pre-framed requests off the most-loaded sibling queue, then
    /// framing-complete requests directly off sibling connection
    /// buffers. Connections never move, and only read-only requests
    /// leave their owner, so shard-state mutations stay with the state
    /// they touch.
    fn try_steal(&mut self) {
        if self.channels.peers.is_empty() {
            return;
        }
        self.steal_queue_items();
        self.steal_conn_buffers();
    }

    /// The queue half of stealing.
    fn steal_queue_items(&mut self) {
        let victim = self
            .channels
            .peers
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != self.index)
            .map(|(i, q)| (q.len(), i, Arc::clone(q)))
            .max_by_key(|&(len, _, _)| len);
        let Some((backlog, victim_index, victim)) = victim else {
            return;
        };
        if backlog == 0 {
            return;
        }
        // Classification-aware: only read-only requests leave the
        // owner; mutations keep their queue positions.
        let handler = &self.handler;
        let stolen = victim.steal_where(self.batch, |request| {
            handler.steal_class(&request.payload) == StealClass::ReadOnly
        });
        if stolen.is_empty() {
            return;
        }
        self.stats.steals += stolen.len() as u64;
        // One event per stolen batch (not per request): the shard field
        // names the victim, the detail word carries the count.
        self.channels.recorder.emit(
            EventKind::Steal,
            u16::try_from(victim_index).unwrap_or(u16::MAX),
            0,
            stolen.len() as u64,
        );
        let started = Instant::now();
        for request in stolen {
            if self.handler.steal_class(&request.payload) == StealClass::Mutation {
                // The filter above should make this unreachable; the
                // counter is how e18/e21/e23 would see it fail.
                self.stats.thief_mutations += 1;
            }
            self.serve(request);
        }
        self.note_busy(started);
        // The victim may still be loaded; keep helping without letting
        // our own queue and connections starve in between.
        if !victim.is_empty() {
            self.channels.wakes.hint_steal();
        }
    }

    /// The connection half of deep stealing: scan sibling registries
    /// (most loaded first) and lift framing-complete requests off their
    /// trays — deepest-staged tray first — up to one batch per wake.
    /// Concurrent thieves aiming at the same deep tray fan out through
    /// the `try_lock` skip in [`steal_from_tray`](Self::steal_from_tray)
    /// rather than convoying on it.
    fn steal_conn_buffers(&mut self) {
        // One registry snapshot per shard, ranked by how many bytes sit
        // unserved: staged bytes (already read off the endpoint — where
        // stranded framing-complete requests actually live) plus bytes
        // still pending on the endpoint.
        let mut victims: Vec<(usize, usize, Vec<Arc<ConnTray>>)> =
            (0..self.channels.peer_registries.len())
                .filter(|&shard| shard != self.index)
                .map(|shard| {
                    let trays = self.channels.peer_registries[shard].snapshot();
                    let unserved: usize = trays
                        .iter()
                        .map(|tray| tray.staged_len() + tray.stream().pending())
                        .sum();
                    (unserved, shard, trays)
                })
                .collect();
        victims.sort_unstable_by_key(|&(unserved, _, _)| std::cmp::Reverse(unserved));
        let started = Instant::now();
        let mut lifted = 0usize;
        for (_unserved, shard, trays) in victims {
            if lifted >= self.batch {
                break;
            }
            // Within a shard, work the **deepest** trays first: staged
            // depth is how long a stranded frame has waited, so depth
            // order is the same tail-latency-first rule queue stealing
            // applies (oldest first) — not registry order, which is
            // merely attach order. Ties keep registry order (stable
            // sort); concurrent thieves aiming at the same deep tray
            // fan out naturally through the `try_lock` skip.
            for tray in rank_trays_by_depth(trays) {
                if lifted >= self.batch {
                    break;
                }
                let per_tray = self.conn_budget.min(self.batch - lifted);
                lifted += self.steal_from_tray(shard, &tray, per_tray);
            }
        }
        if lifted > 0 {
            self.note_busy(started);
        }
        if lifted >= self.batch {
            // A full batch rarely exhausts a hot buffer: come back for
            // more after giving our own shard a turn. A partial lift
            // means the buffers are down to a trickle — park instead of
            // spinning (on an oversubscribed host a spinning thief
            // steals *CPU time* from the owner it meant to help); the
            // owner's next deferral bell re-recruits us.
            self.channels.wakes.hint_steal();
        }
    }

    /// Works one sibling tray in three phases, so the tray lock is only
    /// ever held for memcpy-scale critical sections and the owner's
    /// pump never waits behind a thief's serving:
    ///
    /// 1. **Extract** (under the tray lock): stage pending bytes, split
    ///    the run of complete read-only frames off the head into a
    ///    local batch, stopping at the first mutation — it and
    ///    everything behind it stay in the tray for the owner's pump.
    ///    The gate (`inflight`) is raised by everything extracted, so
    ///    nobody serves frames *behind* the run while it is in flight.
    /// 2. **Serve** (no locks): execute the batch in order with this
    ///    worker's own handler and domains, writing each response
    ///    through the stream handle — the gate guarantees we are the
    ///    only writer, so responses keep frame order.
    /// 3. **Release**: drop the gate and re-wake the owner for whatever
    ///    remains.
    ///
    /// Returns the number of frames served here.
    fn steal_from_tray(&mut self, victim: usize, tray: &Arc<ConnTray>, limit: usize) -> usize {
        let client = tray.client();
        // The latency clock for every frame in this steal starts when
        // the thief picks the buffer up — the same pass-scoped clock
        // the owner's pump uses, so thief-served frames queue behind
        // each other within the run exactly as owner-served frames
        // queue within a pump pass.
        let arrived = Instant::now();
        // -- phase 1: extract a run under the lock ------------------------
        // Extracted frames ride in pooled buffers from the *thief's*
        // arena.
        let mut batch: Vec<FrameBuf> = Vec::new();
        let mut leftovers = false;
        {
            let Some(mut st) = tray.try_lock() else {
                // Owner (or another thief) is mid-serve: nothing
                // stranded here.
                return 0;
            };
            if st.retired || st.inflight > 0 {
                return 0;
            }
            st.staged
                .refill(|bytes| tray.stream().drain_pending_into(bytes));
            while batch.len() < limit {
                // Incomplete, malformed or fatal heads are the owner's
                // business (only the owner may close the endpoint), and
                // so is a mutation: state never changes off its shard.
                let Framing::Complete(n) = self.handler.frame(st.staged.pending()) else {
                    break;
                };
                let n = n.clamp(1, st.staged.len());
                if self.handler.steal_class(&st.staged.pending()[..n]) == StealClass::Mutation {
                    break;
                }
                batch.push(st.staged.take_frame(n));
            }
            if batch.is_empty() {
                leftovers = !st.staged.is_empty();
            } else {
                st.inflight += u32::try_from(batch.len()).unwrap_or(u32::MAX);
                st.thief_progress = true;
            }
        }
        if batch.is_empty() {
            if leftovers {
                // Bytes we staged (or frames we could not take) must
                // not wait for a readiness edge that already fired:
                // point the owner at them.
                tray.wake_owner();
            }
            return 0;
        }
        // -- phase 2: serve the run, lock-free ----------------------------
        let served = batch.len();
        for payload in batch {
            let reply = match self.shared_read(victim, client, &payload) {
                Some(reply) => reply,
                None => self.handler.handle(&mut self.iso, client, &payload),
            };
            tray.stream().write(&reply.response);
            self.account(client, &reply.disposition, elapsed_ns(arrived));
            self.stats.conn_served += 1;
            self.stats.conn_steals += 1;
        }
        self.channels.peer_registries[victim].note_stolen(served as u64);
        // Conn-buffer steals are batched into one event too — same
        // shape as queue steals, distinguished by a nonzero client.
        self.channels.recorder.emit(
            EventKind::Steal,
            u16::try_from(victim).unwrap_or(u16::MAX),
            client.0,
            served as u64,
        );
        // -- phase 3: release the gate, hand the stream back --------------
        {
            let mut st = tray.lock();
            st.inflight = st
                .inflight
                .saturating_sub(u32::try_from(served).unwrap_or(u32::MAX));
        }
        tray.wake_owner();
        served
    }

    /// Publishes (or republishes) this shard's read view when the
    /// `(pool generation, state version)` stamp moved since the last
    /// publish. Readers are never waited on: the old view is *retired*
    /// through the hazard domain and freed once the last reader guard
    /// moves on. Called once per pump pass, so a read-heavy shard
    /// publishes once and serves thieves for free; no-op without deep
    /// stealing (no cells exist).
    fn maybe_publish_view(&mut self) {
        let Some(cell) = self.channels.view_cells.get(self.index) else {
            return;
        };
        let stamp = (self.iso.pool_generation(), self.handler.state_version());
        if self.published == Some(stamp) {
            return;
        }
        let view = self.handler.read_view();
        cell.store(Box::new(ShardView {
            pool_generation: stamp.0,
            version: stamp.1,
            view,
        }));
        self.published = Some(stamp);
        self.stats.views_published += 1;
    }

    /// Tries to serve one stolen read against the victim's published
    /// read view — the **owner's live shard state** — instead of this
    /// worker's own shard. `None` (no deep-steal cells, nothing
    /// published yet, or a frame the view cannot answer) falls back to
    /// the thief's own handler: the pre-view behaviour with its honest
    /// cache-miss semantics.
    fn shared_read(
        &mut self,
        victim: usize,
        client: sdrad::ClientId,
        request: &[u8],
    ) -> Option<Reply> {
        let cell = self.channels.view_cells.get(victim)?;
        let domain = self.channels.hazard.as_ref()?;
        let mut guard = domain.guard();
        let view = cell.load(&mut guard);
        // Publishes only move a shard's stamp forward; observing a
        // rollback would mean this read landed on a retired view.
        let stamp = (view.pool_generation, view.version);
        debug_assert!(
            stamp >= self.view_stamps[victim],
            "shared read observed a rolled-back view stamp"
        );
        self.view_stamps[victim] = stamp;
        let reply = view.view.as_ref()?.serve_read(client, request)?;
        // The reply is owned, so the guard — and with it the borrow of
        // the protected view — drops before the books are touched.
        drop(guard);
        self.stats.shared_reads += 1;
        Some(reply)
    }

    /// Counts a budget deferral that stranded complete frames while a
    /// sibling sat parked, and rings a sibling's bell so the stranded
    /// frames get stolen instead of waiting for this worker to come
    /// back around. No-op without stealing (no sibling wake sets).
    ///
    /// The stall accounting is exact: a sibling counts only if
    /// [`WakeSet::parked_since`] proves it parked at a generation no
    /// later than this pass's start snapshot and is still parked now —
    /// i.e. it provably sat idle across the entire pass that deferred
    /// the frames. A sibling that woke (or was signalled) anywhere in
    /// the pass is not stranded capacity, and an instantaneous
    /// parked-or-not read could both over- and under-count such
    /// windows.
    fn note_deferred_frames(&mut self) {
        if self.channels.peer_wakes.is_empty() {
            return;
        }
        if self.channels.peer_wakes.iter().any(|wakes| {
            wakes
                .parked_since()
                .is_some_and(|g| g <= self.pass_generation)
        }) {
            self.stats.stranded_stalls += 1;
        }
        let pick = self.next_bell % self.channels.peer_wakes.len();
        self.next_bell = self.next_bell.wrapping_add(1);
        self.channels.peer_wakes[pick].hint_steal();
    }

    /// Pumps one connection: reads pending bytes into the shared tray,
    /// serves complete frames up to the read budget, answers malformed
    /// ones. All staging and serving happens under the tray lock — a
    /// deep-steal thief may be working the same stream — which is also
    /// what keeps pipelined responses in frame order.
    fn pump_one(&mut self, conn: &mut Connection) -> PumpOutcome {
        // The latency clock for every frame completed in this pass
        // starts here, when its final bytes were read off the wire:
        // pipelined requests queue behind each other within the pass,
        // exactly as queue-path requests start at `accepted_at`.
        let arrived = Instant::now();
        let mut tray = conn.tray.lock();
        // Stage straight into the tray buffer — no intermediate Vec.
        let fresh = tray
            .staged
            .refill(|bytes| conn.endpoint.read_available_into(bytes));
        let mut progressed = fresh > 0;
        if std::mem::take(&mut tray.thief_progress) {
            // A thief served frames since our last pass: this
            // connection is live, not idle.
            progressed = true;
        }

        let mut served_this_pass = 0usize;
        loop {
            if tray.inflight > 0 {
                // Order gate: a thief's extracted run has not been
                // fully answered yet; frames behind it must wait. The
                // thief re-marks this token when it releases the gate.
                return PumpOutcome {
                    progressed,
                    keep: true,
                    more: false,
                };
            }
            // The one framing scan of this head: it decides what is
            // served next and, at the budget, what is reported.
            let framing = self.handler.frame(tray.staged.pending());
            if served_this_pass >= self.conn_budget {
                // Budget exhausted: report whether *any* actionable
                // frame is still buffered — complete, malformed or
                // fatal — so the caller re-queues us fairly. (Only
                // `Incomplete` may wait for a readiness edge: the
                // buffered bytes are already off the endpoint, so no
                // future edge would ever resurface them.)
                return PumpOutcome {
                    progressed,
                    keep: true,
                    more: !matches!(framing, Framing::Incomplete),
                };
            }
            match framing {
                Framing::Complete(n) => {
                    let serve_started = Instant::now();
                    let n = n.clamp(1, tray.staged.len());
                    // Recycled extraction: the frame rides in a pooled
                    // buffer that returns to this thread's pool when
                    // the reply is written; the staged bytes behind it
                    // stay where they are.
                    let payload = tray.staged.take_frame(n);
                    let reply = self.handler.handle(&mut self.iso, conn.client, &payload);
                    conn.endpoint.write(&reply.response);
                    self.account(conn.client, &reply.disposition, elapsed_ns(arrived));
                    self.stats.conn_served += 1;
                    self.note_busy(serve_started);
                    progressed = true;
                    served_this_pass += 1;
                }
                Framing::Incomplete => break,
                Framing::Malformed { consumed, response } => {
                    // Guard against a zero-consumption parser bug looping
                    // forever: always make progress.
                    let consumed = consumed.clamp(1, tray.staged.len());
                    tray.staged.consume(consumed);
                    conn.endpoint.write(&response);
                    self.account(
                        conn.client,
                        &Disposition::ProtocolError,
                        elapsed_ns(arrived),
                    );
                    self.stats.conn_served += 1;
                    progressed = true;
                    served_this_pass += 1;
                }
                Framing::Fatal { response } => {
                    conn.endpoint.write(&response);
                    conn.endpoint.close();
                    tray.staged.clear();
                    self.account(
                        conn.client,
                        &Disposition::ProtocolError,
                        elapsed_ns(arrived),
                    );
                    self.stats.conn_served += 1;
                    return PumpOutcome {
                        progressed: true,
                        keep: false,
                        more: false,
                    };
                }
            }
        }

        // Peer hung up and nothing more can arrive: drop the connection
        // (any partial request left in the buffer is counted by
        // `retire` as aborted).
        if !conn.endpoint.is_open() && conn.endpoint.pending() == 0 {
            return PumpOutcome {
                progressed,
                keep: false,
                more: false,
            };
        }
        PumpOutcome {
            progressed,
            keep: true,
            more: false,
        }
    }

    /// Serves one pre-framed request from a shard queue (own or
    /// stolen).
    fn serve(&mut self, request: Request) {
        let reply = self
            .handler
            .handle(&mut self.iso, request.client, &request.payload);
        self.account(
            request.client,
            &reply.disposition,
            elapsed_ns(request.accepted_at),
        );
        if let Some(ticket) = request.ticket {
            ticket.complete(Completion {
                client: request.client,
                response: reply.response,
                disposition: reply.disposition,
            });
        }
    }

    fn note_busy(&mut self, since: Instant) {
        self.stats.busy_ns = self.stats.busy_ns.saturating_add(elapsed_ns(since));
    }

    /// Ships this pass's delta frame to the streaming collector: the
    /// worker's **cumulative** counters (the collector owns the
    /// diffing, so a lost frame never desynchronizes the books) plus
    /// everything drained from its own trace ring — the drain is booked
    /// on the ring's `drained` counter right here, which is what keeps
    /// the shutdown log merge exact. The delivery answers with the
    /// windowed fault spikes this frame caused, which are fed straight
    /// back into admission as corroborating evidence.
    fn flush_telemetry(&mut self, totals: LiveTotals) {
        let Some(collector) = &self.channels.collector else {
            return;
        };
        let events = self
            .channels
            .recorder
            .ring()
            .map_or_else(Vec::new, |ring| ring.drain());
        let spikes = collector.deliver(DeltaFrame {
            source: Source::Worker(self.shard_u16),
            seq: self.flush_seq,
            totals,
            events,
        });
        self.flush_seq += 1;
        if let Some(hub) = &self.channels.control {
            for spike in spikes {
                hub.observe_evidence(
                    usize::from(spike.shard),
                    sdrad::ClientId(spike.client),
                    spike.new_faults,
                );
            }
        }
    }

    /// Publishes the pass's counters to the live mailbox
    /// (`Runtime::stats_snapshot` reads them without quiescing) and
    /// returns them. Plain relaxed stores — no RMW, no fence — called
    /// once per pump pass, so the hot path pays a handful of
    /// uncontended cache writes.
    fn flush_live(&self) -> LiveTotals {
        let totals = LiveTotals {
            served: self.stats.served,
            ok: self.stats.ok,
            contained_faults: self.stats.contained_faults,
            crashes: self.stats.crashes,
            conn_served: self.stats.conn_served,
            steals: self.stats.steals,
        };
        self.channels.live.store(totals);
        totals
    }

    fn account(&mut self, client: sdrad::ClientId, disposition: &Disposition, latency_ns: u64) {
        self.stats.served += 1;
        match disposition {
            Disposition::Ok => {
                self.stats.ok += 1;
                self.stats.ok_latency.record(latency_ns);
            }
            Disposition::ProtocolError => self.stats.protocol_errors += 1,
            Disposition::ContainedFault { rewind_ns } => {
                self.stats.contained_faults += 1;
                self.stats.rewind_ns += rewind_ns;
                self.stats.contained_latency.record(latency_ns);
                self.stats.rewind_latency.record(*rewind_ns);
                self.channels.recorder.emit(
                    EventKind::Rewind,
                    self.shard_u16,
                    client.0,
                    *rewind_ns,
                );
            }
            Disposition::Crashed => {
                // The baseline pays for its crash with a restart (state
                // reload included) before the handler serves again.
                self.stats.crashes += 1;
                self.restart_handler();
            }
            Disposition::SecretLeak => self.stats.leaks += 1,
            Disposition::InternalError => self.stats.internal_errors += 1,
        }
        self.observe_control(client, disposition, latency_ns);
    }

    /// Brings the handler's state back up in place and records the
    /// state it held, instead of sleeping out a restart — keeping the
    /// harness fast and deterministic. The downtime is priced from
    /// [`WorkerStats::restart_state_bytes`] after the run. The baseline's
    /// crash and the ladder's restart rung both restart here.
    fn restart_handler(&mut self) {
        self.stats.restart_state_bytes = self
            .stats
            .restart_state_bytes
            .saturating_add(self.handler.state_bytes());
        self.handler.restart();
    }

    /// Reports one disposition to the control plane (when enabled) and
    /// executes whatever escalation rung the ladder returns. The rung
    /// runs **on this worker's own thread** against its own isolation
    /// context — exactly the thread-confinement rule the rest of the
    /// runtime keeps.
    fn observe_control(
        &mut self,
        client: sdrad::ClientId,
        disposition: &Disposition,
        latency_ns: u64,
    ) {
        let Some(hub) = &self.channels.control else {
            return;
        };
        let Some(rung) = hub.observe(self.index, client, disposition, latency_ns) else {
            return;
        };
        self.stats.judged_state_bytes = self
            .stats
            .judged_state_bytes
            .saturating_add(self.handler.state_bytes());
        let detail = match rung {
            RecoveryRung::Rewind => 0,
            RecoveryRung::PoolRebuild => 1,
            RecoveryRung::WorkerRestart => 2,
        };
        self.channels
            .recorder
            .emit(EventKind::Rung, self.shard_u16, client.0, detail);
        match rung {
            RecoveryRung::Rewind => {
                // The substrate already rewound the domain; the ladder
                // chose to stop there. Counted so e19 can show the
                // cheap rung firing most.
                self.stats.ladder_rewinds += 1;
            }
            RecoveryRung::PoolRebuild => {
                // Zero-pause rung: publish a fresh pool, retire the old
                // one; teardown is amortized over later passes by
                // `reclaim_step`.
                self.iso.rebuild_pool_deferred();
                self.stats.pool_rebuilds += 1;
            }
            RecoveryRung::WorkerRestart => {
                // The restart rung: isolation context and handler state
                // are rebuilt in place on this thread (a logical
                // restart — the OS thread survives, everything the
                // process restart would discard is discarded), recorded
                // exactly like a baseline crash.
                self.iso.restart_worker();
                self.restart_handler();
                self.stats.worker_restarts += 1;
            }
        }
    }

    /// The worker's shard index.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Orders a shard's trays **deepest first**: staged bytes (framed-but-
/// unserved work, where stranded requests actually wait) plus bytes
/// still pending on the endpoint. Stable, so equal depths keep registry
/// order. Depth is sampled once up front — a tray being worked reports
/// 0 (its `staged_len` try-lock fails), which is correct: a worked tray
/// is not stranded.
fn rank_trays_by_depth(trays: Vec<Arc<ConnTray>>) -> Vec<Arc<ConnTray>> {
    let mut ranked: Vec<(usize, Arc<ConnTray>)> = trays
        .into_iter()
        .map(|tray| (tray.staged_len() + tray.stream().pending(), tray))
        .collect();
    ranked.sort_by_key(|&(depth, _)| std::cmp::Reverse(depth));
    ranked.into_iter().map(|(_, tray)| tray).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdrad_net::duplex;

    #[test]
    fn tray_walks_lift_the_deepest_tray_first() {
        // Three connections with 1, 3 and 2 staged frames: the ranking
        // a deep-steal thief walks must put the deepest (most-stranded)
        // tray first, not the registry (attach) order.
        let mut conns = Vec::new();
        for frames in [1usize, 3, 2] {
            let (mut client, server) = duplex();
            let conn = Connection::new(sdrad::ClientId(frames as u64), server);
            for i in 0..frames {
                client.write(format!("get k{i}\r\n").as_bytes());
            }
            // Stage the pending bytes, as a pump or steal pass would.
            {
                let mut st = conn.tray.lock();
                st.staged
                    .refill(|bytes| conn.tray.stream().drain_pending_into(bytes));
            }
            conns.push(conn);
        }
        let registry_order: Vec<Arc<ConnTray>> =
            conns.iter().map(|c| Arc::clone(&c.tray)).collect();
        let ranked = rank_trays_by_depth(registry_order);
        let depths: Vec<usize> = ranked.iter().map(|t| t.staged_len()).collect();
        assert_eq!(
            depths,
            vec![3 * 8, 2 * 8, 8],
            "deepest tray first, registry order only breaks ties"
        );
        assert_eq!(ranked[0].client(), sdrad::ClientId(3));
    }

    #[test]
    fn rank_breaks_ties_by_registry_order() {
        let trays: Vec<Arc<ConnTray>> = (0..3)
            .map(|i| {
                let (_client, server) = duplex();
                Connection::new(sdrad::ClientId(i), server).tray
            })
            .collect();
        let ranked = rank_trays_by_depth(trays);
        let clients: Vec<u64> = ranked.iter().map(|t| t.client().0).collect();
        assert_eq!(clients, vec![0, 1, 2], "stable for equal depths");
    }
}

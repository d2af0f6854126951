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
//! pushes and connection readiness callbacks wake it. An idle worker
//! burns **zero** CPU — no periodic connection polls — which is the
//! whole point of judging resilience mechanisms by their energy
//! footprint.
//!
//! Each pump pass is bounded by the per-connection **read budget**
//! (`RuntimeConfig::conn_read_budget`): one noisy pipelining client
//! gets at most that many framed requests served per rotation before
//! the worker moves to the next ready connection.
//!
//! A connection is served only by the worker that adopted it: the
//! worker owns the endpoint and its staging buffer, and pumps them
//! without a lock.
//!
//! [`WakeSet`]: crate::wake::WakeSet

use std::sync::Arc;
use std::time::Instant;

use sdrad_control::RecoveryRung;
use sdrad_telemetry::{
    Collector, DeltaFrame, EventKind, LatencyHistogram, LiveTotals, Recorder, Source,
};

use crate::control_hub::ControlHub;
use crate::handler::{Framing, SessionHandler};
use crate::isolation::WorkerIsolation;
use crate::queue::{Completion, Disposition, Request, ShardQueue};
use crate::runtime::RuntimeConfig;
use crate::server::{ConnInbox, Connection};
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

/// The channels one worker serves: its own queue, connection inbox and
/// wake set, plus the runtime-wide sinks it reports to.
pub(crate) struct ShardChannels {
    pub(crate) queue: Arc<ShardQueue>,
    pub(crate) inbox: Arc<ConnInbox>,
    pub(crate) wakes: Arc<WakeSet>,
    /// The adaptive control plane, when enabled: the worker reports
    /// every disposition and executes the escalation rungs it returns.
    pub(crate) control: Option<Arc<ControlHub>>,
    /// This worker's flight-recorder handle, bound to its own SPSC
    /// ring ([`Recorder::Off`] when telemetry is disabled). Emission is
    /// deliberately economical on the hot path: no per-ok-request
    /// events — park/wake per pass, rewind/rung per fault.
    pub(crate) recorder: Recorder,
    /// The live-counter mailbox `Runtime::stats_snapshot` reads; the
    /// worker flushes its counters here once per pump pass.
    pub(crate) live: Arc<LiveCounters>,
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
            channels,
            flush_seq: 0,
            shard_u16: u16::try_from(index).unwrap_or(u16::MAX),
            conns: Vec::new(),
            free_tokens: Vec::new(),
            iso,
            handler,
            batch: config.batch.max(1),
            conn_budget: config.conn_read_budget.max(1),
            idle_reap_after: config.idle_reap_after,
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
        self.stats.shed = self.channels.queue.shed();
        self.stats.domains_created = self.iso.domains_created();
        self.stats.manager_rewinds = self.iso.rewinds();
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
            if let Some(hub) = &self.channels.control {
                // The control loop's tick rides the wake machinery: one
                // tick per pass, zero ticks while the shard is idle.
                hub.tick();
            }
            // The streaming flush rides the same machinery: one delta
            // frame per pass, zero while idle.
            self.flush_telemetry(totals);
            let mut ready = signals.conns;
            ready.extend(self.adopt_connections());

            // Only a queue signal can mean queue work (pushes latch it
            // until consumed), so conn-only wakes skip the queue drain.
            let requests = if signals.queue {
                self.channels.queue.try_drain(self.batch)
            } else {
                Vec::new()
            };
            if !requests.is_empty() {
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

            let mut deferred = false;
            for &token in &ready {
                if self.pump_token(token).more {
                    // Budget exhausted: requeue the token behind the
                    // other ready connections (per-connection fairness).
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
                break;
            }
        }
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
    /// never signalled) and counts a half-received request as aborted.
    fn retire(&mut self, token: usize, mut conn: Connection) {
        conn.endpoint.clear_ready_callback();
        if !conn.staged.is_empty() {
            // Mid-request disconnect: the half-request is discarded.
            self.stats.aborted_requests += 1;
        }
        self.free_tokens.push(token);
    }

    /// Closes and retires connections that made no progress for the
    /// configured number of pump passes.
    fn reap_idle(&mut self) {
        let Some(reap_after) = self.idle_reap_after else {
            return;
        };
        for token in 0..self.conns.len() {
            let Some(conn) = &self.conns[token] else {
                continue;
            };
            let idle_for = self.pass.saturating_sub(conn.last_progress_pass);
            if idle_for >= reap_after.max(1) {
                let mut conn = self.conns[token].take().expect("slot checked");
                conn.endpoint.close();
                self.stats.reaped += 1;
                self.retire(token, conn);
            }
        }
    }

    /// Pumps one connection: reads pending bytes into its staging
    /// buffer, serves complete frames up to the read budget, answers
    /// malformed ones. Frames are served one after another on this
    /// thread, so pipelined responses keep frame order.
    fn pump_one(&mut self, conn: &mut Connection) -> PumpOutcome {
        // The latency clock for every frame completed in this pass
        // starts here, when its final bytes were read off the wire:
        // pipelined requests queue behind each other within the pass,
        // exactly as queue-path requests start at `accepted_at`.
        let arrived = Instant::now();
        // Stage straight into the connection's buffer — no intermediate
        // Vec.
        let fresh = conn
            .staged
            .refill(|bytes| conn.endpoint.read_available_into(bytes));
        let mut progressed = fresh > 0;

        let mut served_this_pass = 0usize;
        loop {
            // The one framing scan of this head: it decides what is
            // served next and, at the budget, what is reported.
            let framing = self.handler.frame(conn.staged.pending());
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
                    let n = n.clamp(1, conn.staged.len());
                    // Recycled extraction: the frame rides in a pooled
                    // buffer that returns to this thread's pool when
                    // the reply is written; the staged bytes behind it
                    // stay where they are.
                    let payload = conn.staged.take_frame(n);
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
                    let consumed = consumed.clamp(1, conn.staged.len());
                    conn.staged.consume(consumed);
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
                    conn.staged.clear();
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

    /// Serves one pre-framed request from the shard queue.
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
                // The old pool's domains are destroyed here, before the
                // next request: a few µs for a whole pool.
                self.iso.rebuild_pool();
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

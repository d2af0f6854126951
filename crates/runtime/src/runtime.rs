//! The runtime proper: shard dispatch, worker lifecycle, aggregation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sdrad::ClientId;
use sdrad_control::ControlConfig;
use sdrad_energy::decisions::RungModels;
use sdrad_net::Endpoint;
use sdrad_nolock::{HazardDomain, Shared};
use sdrad_telemetry::{
    Collector, EventKind, LatencyHistogram, LiveTotals, LogicalClock, Recorder, ShedReason, Source,
    StreamingConfig, TelemetryConfig, TelemetrySnapshot, TraceLog, TraceRing,
};

use crate::control_hub::{ControlHub, Routing};
use crate::handler::SessionHandler;
use crate::isolation::{IsolationMode, WorkerIsolation};
use crate::queue::{Request, ShardQueue, Ticket};
use crate::server::{ConnInbox, ConnRegistry, Connection};
use crate::stats::{LiveCounters, RuntimeStats, StatsSnapshot, TelemetryReport};
use crate::wake::WakeSet;
use crate::worker::{ShardView, Worker};

/// Whether — and how deep — an idle worker steals work from loaded
/// siblings ([`RuntimeConfig::work_stealing`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StealPolicy {
    /// No stealing (the default): every request runs on its client's
    /// sticky shard. The safe choice for any workload.
    #[default]
    Disabled,
    /// The deep policy: an idle worker takes pre-framed requests off
    /// the most-loaded sibling queue **plus** framing-complete
    /// requests lifted directly off sibling *connection buffers*
    /// (through each connection's shared tray; the endpoint — readiness
    /// callbacks, lifecycle, stats — never moves), made safe for
    /// shard-stateful handlers by classification
    /// ([`SessionHandler::steal_class`]): read-only requests execute on
    /// the thief, while a **mutation stops the thief** — it and every
    /// frame behind it stay in the connection buffer for the owner's
    /// own pump, which answers in frame order. Queue steals are
    /// classification-filtered too, so state never mutates off its
    /// owner shard; a stateless handler that classifies everything
    /// [`ReadOnly`](crate::StealClass::ReadOnly) gets every queued
    /// request stolen freely.
    ///
    /// [`SessionHandler::steal_class`]: crate::SessionHandler::steal_class
    Deep,
}

impl StealPolicy {
    /// Whether any stealing happens under this policy.
    #[must_use]
    pub fn is_enabled(self) -> bool {
        self != StealPolicy::Disabled
    }
}

/// Configuration of one runtime instance.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Worker (= shard) count.
    pub workers: usize,
    /// Bounded queue depth per shard; submits beyond it are shed.
    pub queue_capacity: usize,
    /// Maximum requests a worker drains per wakeup.
    pub batch: usize,
    /// Whether workers contain faults with per-client domains.
    pub isolation: IsolationMode,
    /// Pooled domains per worker (clamped to key headroom).
    pub domains_per_worker: usize,
    /// Heap capacity per pooled domain, bytes.
    pub domain_heap: usize,
    /// Per-connection read budget: at most this many framed requests
    /// are served off one connection per pump rotation before the
    /// worker moves on — one noisy pipelining client cannot monopolise
    /// a worker.
    pub conn_read_budget: usize,
    /// Whether — and how deep — an idle worker steals work from loaded
    /// siblings. Connections always stay sticky to their owner shard
    /// (domain affinity); what moves depends on the policy: nothing
    /// ([`StealPolicy::Disabled`], the default), or read-only queue
    /// items plus framing-complete read-only requests off sibling
    /// connection buffers, with mutations left to their owner
    /// ([`StealPolicy::Deep`]).
    pub work_stealing: StealPolicy,
    /// Close connections that made no progress for this many pump
    /// passes (`None` disables the reaper). Passes advance once per
    /// wake, so a fully idle runtime — which by design never ticks —
    /// reaps nothing and spends nothing.
    pub idle_reap_after: Option<u64>,
    /// The adaptive control plane (`None` = the static reflexes:
    /// bounded-queue shedding, rewind-only recovery). When set, the
    /// runtime spawns one **extra** sacrificial *blast-pit* shard —
    /// regular clients never hash to it — and wires three decision
    /// families in: admission control (throttle/quarantine/ban by
    /// client reputation, CoDel latency-target shedding per traffic
    /// class) at [`Runtime::submit`]/[`Runtime::attach`], the
    /// recovery-escalation ladder (rewind → pool rebuild → worker
    /// restart) into every worker's fault path, and per-decision energy
    /// billing into the final [`RuntimeStats::control`] report.
    ///
    /// [`RuntimeStats::control`]: crate::RuntimeStats::control
    pub control: Option<ControlConfig>,
    /// The flight recorder ([`TelemetryConfig::Off`] by default). When
    /// enabled, every worker records structured trace events into its
    /// own lock-free SPSC ring (the dispatcher and control plane get
    /// shared rings), all stamped by one logical clock; shutdown drains
    /// them into [`RuntimeStats::telemetry`] — the ring books
    /// ([`TelemetrySnapshot`]) plus the merged
    /// [`TraceLog`](sdrad_telemetry::TraceLog) post-mortem queries run
    /// over. When off, every emit point is a single discriminant test.
    ///
    /// [`RuntimeStats::telemetry`]: crate::RuntimeStats::telemetry
    pub telemetry: TelemetryConfig,
    /// Streaming telemetry (`None` by default; requires
    /// [`telemetry`](Self::telemetry) enabled to have any effect). When
    /// set, the runtime builds one in-process
    /// [`Collector`](sdrad_telemetry::Collector) and every worker ships
    /// it a [`DeltaFrame`](sdrad_telemetry::DeltaFrame) — cumulative
    /// counter totals plus its ring's drained events — from its pump
    /// passes, riding the existing wake machinery (no extra threads).
    /// The collector maintains windowed rollups; with a control plane
    /// also enabled, windowed per-client fault spikes feed back into
    /// admission as corroborating evidence
    /// ([`ControlPlane::observe_evidence`](sdrad_control::ControlPlane::observe_evidence)),
    /// banning a burst offender measurably earlier than the per-request
    /// books alone.
    pub streaming: Option<StreamingConfig>,
}

impl RuntimeConfig {
    /// A sensible default for `workers` workers in the given mode.
    #[must_use]
    pub fn new(workers: usize, isolation: IsolationMode) -> Self {
        RuntimeConfig {
            workers: workers.max(1),
            queue_capacity: 1024,
            batch: 32,
            isolation,
            domains_per_worker: 8,
            domain_heap: 1 << 20,
            conn_read_budget: 32,
            work_stealing: StealPolicy::Disabled,
            idle_reap_after: None,
            control: None,
            telemetry: TelemetryConfig::Off,
            streaming: None,
        }
    }

    /// Defaults tuned for the TLS workload: domains sized *below* the
    /// 64 KB a heartbeat's length field can declare, so a Heartbleed
    /// over-read faults at the region edge (and is rewound) instead of
    /// reading adjacent domain-heap bytes.
    #[must_use]
    pub fn for_tls(workers: usize, isolation: IsolationMode) -> Self {
        RuntimeConfig {
            domain_heap: 16 * 1024,
            ..Self::new(workers, isolation)
        }
    }
}

/// What [`Runtime::submit`] did with a request.
#[derive(Debug, Clone)]
pub enum SubmitOutcome {
    /// Accepted onto the client's shard; the ticket completes when the
    /// worker answers.
    Enqueued(Ticket),
    /// Shed by backpressure: the shard's bounded queue was full.
    Shed,
}

/// A clonable routing handle: shard math plus the per-shard queues and
/// connection inboxes. The acceptor thread of a
/// [`ConnectionServer`](crate::ConnectionServer) owns one, so it can
/// attach connections without borrowing the `Runtime`.
#[derive(Clone)]
pub struct Dispatcher {
    queues: Vec<Arc<ShardQueue>>,
    inboxes: Vec<Arc<ConnInbox>>,
    /// Per-shard live-connection trays, published for deep-steal
    /// siblings (and the source of the `conn_stolen` reconciliation
    /// counter).
    registries: Vec<Arc<ConnRegistry>>,
    /// Shards regular clients hash over — excludes the blast-pit shard
    /// (when a control plane is enabled), which only quarantined
    /// clients are routed to.
    hash_shards: usize,
    /// The adaptive control plane, consulted at every admission.
    control: Option<Arc<ControlHub>>,
    /// The dispatcher ring's emit handle ([`Recorder::Off`] when
    /// telemetry is disabled): `Submit` on every accepted request,
    /// `Shed` — with the reason — on every refusal, whether by
    /// admission control or queue backpressure. Shared by every clone
    /// (acceptor threads, load generators): the ring's push is
    /// CAS-safe, so multi-producer emission is fine.
    recorder: Recorder,
    /// Connections handled by [`attach`](Self::attach) so far (admitted
    /// to a shard *or* visibly refused) — the handshake
    /// [`Runtime::quiesce`] uses to know the accept pipeline is empty.
    attached: Arc<AtomicU64>,
}

impl Dispatcher {
    /// The shard serving `client`. Sticky: every request (and the
    /// connection) of a client lands on the same worker, so its domain
    /// assignment and request ordering are stable. (A quarantined
    /// client is the one exception: admission reroutes it to the
    /// blast-pit shard until its score decays.)
    #[must_use]
    pub fn shard_of(&self, client: ClientId) -> usize {
        let mut hash = client.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        hash ^= hash >> 32;
        (hash % self.hash_shards as u64) as usize
    }

    /// Admission control: the shard this request/connection goes to,
    /// or `None` once it was refused (the refusal is recorded).
    fn admit(&self, client: ClientId) -> Option<usize> {
        let routing = self
            .control
            .as_ref()
            .map_or(Routing::Sticky, |hub| hub.admit(client));
        match routing {
            Routing::Sticky => Some(self.shard_of(client)),
            Routing::BlastPit(pit) => Some(pit),
            Routing::Refuse(reason) => {
                self.emit_shed(client, reason);
                None
            }
        }
    }

    /// Pushes an admitted request onto `shard`'s queue, recording
    /// `Submit` when it is accepted and a queue-full shed when not.
    fn push(&self, shard: usize, request: Request) -> bool {
        let client = request.client;
        let bytes = request.payload.len() as u64;
        if self.queues[shard].try_push(request) {
            self.recorder.emit(
                EventKind::Submit,
                u16::try_from(shard).unwrap_or(u16::MAX),
                client.0,
                bytes,
            );
            true
        } else {
            self.emit_shed(client, ShedReason::QueueFull);
            false
        }
    }

    /// Records one refusal in the flight recorder (no-op when off). The
    /// shard recorded is the one the request *would* have landed on —
    /// post-mortems group sheds with the traffic they were shed from.
    fn emit_shed(&self, client: ClientId, reason: ShedReason) {
        if self.recorder.is_on() {
            let shard = u16::try_from(self.shard_of(client)).unwrap_or(u16::MAX);
            self.recorder
                .emit(EventKind::Shed, shard, client.0, reason as u64);
        }
    }

    /// Assigns an accepted connection to `client`'s sticky shard (or
    /// the blast pit, for a quarantined client) and wakes that worker
    /// to adopt it. A banned client — and any attach after shutdown —
    /// is refused visibly: the peer observes a close instead of a
    /// stranded connection.
    pub fn attach(&self, client: ClientId, mut endpoint: Endpoint) {
        // A stopped shard is a shutdown race, not a policy decision:
        // refused like a ban, but with no shed event.
        let Some(shard) = self
            .admit(client)
            .filter(|&shard| !self.queues[shard].is_stopped())
        else {
            endpoint.close();
            self.attached.fetch_add(1, Ordering::SeqCst);
            return;
        };
        let conn = Connection::new(client, endpoint);
        // Published before the inbox push: a deep-steal thief may start
        // draining the tray even before the owner adopts the
        // connection (the kick below guarantees adoption regardless).
        self.registries[shard].register(Arc::clone(&conn.tray));
        self.inboxes[shard].push(conn);
        self.queues[shard].kick();
        self.attached.fetch_add(1, Ordering::SeqCst);
    }

    /// Submits one complete request for `client`, with backpressure —
    /// and, when a control plane is enabled, admission control first
    /// (a throttled, overloaded or banned client sheds here, before
    /// any queue is touched).
    pub fn submit(&self, client: ClientId, payload: Vec<u8>) -> SubmitOutcome {
        let Some(shard) = self.admit(client) else {
            return SubmitOutcome::Shed;
        };
        let ticket = Ticket::new();
        if self.push(shard, Request::new(client, payload, Some(ticket.clone()))) {
            SubmitOutcome::Enqueued(ticket)
        } else {
            SubmitOutcome::Shed
        }
    }

    /// Fire-and-forget submit for load generation (no completion slot to
    /// allocate or fill). Returns whether the request was accepted.
    pub fn submit_detached(&self, client: ClientId, payload: Vec<u8>) -> bool {
        self.admit(client)
            .is_some_and(|shard| self.push(shard, Request::new(client, payload, None)))
    }
}

impl std::fmt::Debug for Dispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dispatcher")
            .field("shards", &self.queues.len())
            .finish()
    }
}

/// A running sharded server: submit requests (or
/// [attach](Runtime::attach) connections), then [`shutdown`] to drain
/// and collect the measurements.
///
/// [`shutdown`]: Runtime::shutdown
pub struct Runtime {
    dispatcher: Dispatcher,
    /// Runtime-wide activity counter, bumped on every wake signal — the
    /// quiesce barrier's evidence that its shard-by-shard idle
    /// observations were simultaneous.
    generation: Arc<AtomicU64>,
    /// Per-worker live-counter mailboxes (always present; flushed once
    /// per pump pass) — what [`stats_snapshot`](Self::stats_snapshot)
    /// sums without quiescing anything.
    live: Vec<Arc<LiveCounters>>,
    /// The flight recorder's rings, named for the snapshot
    /// (`worker-N` / `dispatcher` / `control`). `None` when telemetry
    /// is off.
    rings: Option<Vec<(String, Arc<TraceRing>)>>,
    /// The streaming collector workers ship delta frames to (`None`
    /// unless both [`RuntimeConfig::streaming`] and the flight recorder
    /// are enabled). Shutdown merges its buffered events into the final
    /// [`TraceLog`] and closes its delivery books into
    /// [`TelemetryReport::streaming`].
    collector: Option<Arc<Collector>>,
    /// The shared-read hazard domain (deep stealing only): shutdown
    /// drains it after the final views retire and closes its books
    /// into [`RuntimeStats::hazard`](crate::RuntimeStats::hazard).
    hazard: Option<Arc<HazardDomain>>,
    /// Every shard's published read-view cell, dropped at shutdown so
    /// the final views retire through the domain before it is drained.
    view_cells: Vec<Arc<Shared<ShardView>>>,
    handles: Vec<JoinHandle<crate::worker::WorkerStats>>,
    started: Instant,
}

impl Runtime {
    /// Starts `config.workers` workers. `factory` runs **on each worker
    /// thread** to build that shard's handler, so handlers (and the
    /// `DomainManager` each worker owns) never cross threads.
    pub fn start<H, F>(config: RuntimeConfig, factory: F) -> Self
    where
        H: SessionHandler,
        F: Fn(usize) -> H + Send + Sync + 'static,
    {
        // With a control plane enabled the runtime spawns one extra,
        // sacrificial shard — the blast pit. Regular clients never hash
        // to it (`hash_shards` excludes it); only admission-quarantined
        // clients are routed there, so their repeat faults burn a
        // domain pool no benign client shares.
        let hash_shards = config.workers.max(1);
        let workers = hash_shards + usize::from(config.control.is_some());
        // The flight recorder, when enabled: one SPSC ring per worker
        // plus shared (CAS-safe) rings for the dispatcher and the
        // control plane, all stamped by one logical clock so drains
        // merge into a total order.
        let clock = LogicalClock::new();
        let mut rings: Option<Vec<(String, Arc<TraceRing>)>> = None;
        let mut recorder_for = |source: Source| -> Recorder {
            let TelemetryConfig::Enabled { ring_capacity } = config.telemetry else {
                return Recorder::Off;
            };
            let ring = Arc::new(TraceRing::new(ring_capacity));
            rings
                .get_or_insert_with(Vec::new)
                .push((source.name(), Arc::clone(&ring)));
            Recorder::on(ring, clock.clone(), source)
        };
        let control_recorder = recorder_for(Source::Control);
        let dispatcher_recorder = recorder_for(Source::Dispatcher);
        let worker_recorders: Vec<Recorder> = (0..workers)
            .map(|index| recorder_for(Source::Worker(u16::try_from(index).unwrap_or(u16::MAX))))
            .collect();
        // The streaming collector (one per runtime): only built when the
        // flight recorder is on too — without rings there are no events
        // or drain counters for delta frames to ship.
        let collector = match (config.streaming, rings.is_some()) {
            (Some(streaming), true) => Some(Arc::new(Collector::new(streaming))),
            _ => None,
        };
        // The ladder bills the publish-and-retire rebuild the workers
        // run: a pointer-scale publish (pause) plus amortized
        // reclamation.
        let hub = config.control.map(|control| {
            Arc::new(ControlHub::new(
                control,
                RungModels::calibrated(),
                workers - 1,
                control_recorder,
            ))
        });
        // One hazard domain for the whole runtime (deep stealing only):
        // every shard's published read view retires through it, and
        // shutdown reconciles its retire/reclaim books exactly.
        let hazard = config
            .work_stealing
            .is_enabled()
            .then(|| Arc::new(HazardDomain::new()));
        let view_cells: Vec<Arc<Shared<ShardView>>> = hazard
            .as_ref()
            .map(|domain| {
                (0..workers)
                    .map(|_| Arc::new(Shared::new(Box::new(ShardView::empty()), domain)))
                    .collect()
            })
            .unwrap_or_default();
        let live: Vec<Arc<LiveCounters>> = (0..workers)
            .map(|_| Arc::new(LiveCounters::default()))
            .collect();
        let factory = Arc::new(factory);
        let queues: Vec<Arc<ShardQueue>> = (0..workers)
            .map(|_| Arc::new(ShardQueue::new(config.queue_capacity)))
            .collect();
        let inboxes: Vec<Arc<ConnInbox>> = (0..workers)
            .map(|_| Arc::new(ConnInbox::default()))
            .collect();
        let registries: Vec<Arc<ConnRegistry>> = (0..workers)
            .map(|_| Arc::new(ConnRegistry::default()))
            .collect();
        // Each queue owns its shard's wake set.
        let wakesets: Vec<Arc<WakeSet>> = queues.iter().map(|q| Arc::clone(q.wakes())).collect();
        let generation = Arc::new(AtomicU64::new(0));
        // Wire every wake source *before* any work can arrive: with
        // stealing on, a queue also rings sibling bells once its backlog
        // reaches one batch; and every set bumps the runtime-wide
        // generation the quiesce barrier reads.
        for (index, queue) in queues.iter().enumerate() {
            wakesets[index].bind_generation(Arc::clone(&generation));
            if config.work_stealing.is_enabled() && workers > 1 {
                let bells: Vec<Arc<WakeSet>> = (0..workers)
                    .filter(|&peer| peer != index)
                    .map(|peer| Arc::clone(&wakesets[peer]))
                    .collect();
                queue.set_steal_bells(bells, config.batch.max(1));
            }
        }
        let handles = (0..workers)
            .map(|index| {
                let queue = Arc::clone(&queues[index]);
                let inbox = Arc::clone(&inboxes[index]);
                let wakes = Arc::clone(&wakesets[index]);
                let registry = Arc::clone(&registries[index]);
                // Steal victims and bells: every shard's queue and
                // connection registry (self included, skipped by index)
                // and the sibling wake sets. Empty without stealing.
                let (peers, peer_registries, peer_wakes) = if config.work_stealing.is_enabled() {
                    (
                        queues.clone(),
                        registries.clone(),
                        (0..workers)
                            .filter(|&peer| peer != index)
                            .map(|peer| Arc::clone(&wakesets[peer]))
                            .collect(),
                    )
                } else {
                    (Vec::new(), Vec::new(), Vec::new())
                };
                let factory = Arc::clone(&factory);
                let hub = hub.clone();
                let shared_generation = Arc::clone(&generation);
                let recorder = worker_recorders[index].clone();
                let live = Arc::clone(&live[index]);
                let hazard = hazard.clone();
                let view_cells = view_cells.clone();
                let collector = collector.clone();
                std::thread::Builder::new()
                    .name(format!("sdrad-worker-{index}"))
                    .spawn(move || {
                        // Arm this thread's frame-buffer arena before
                        // the handler exists, so every acquire on this
                        // worker recycles.
                        sdrad_nolock::arena::set_thread_pooling(true);
                        let iso = WorkerIsolation::new(
                            config.isolation,
                            config.domains_per_worker,
                            config.domain_heap,
                        );
                        let handler = factory(index);
                        let channels = crate::worker::ShardChannels {
                            queue,
                            inbox,
                            wakes,
                            registry,
                            peers,
                            peer_registries,
                            peer_wakes,
                            generation: shared_generation,
                            control: hub,
                            recorder,
                            live,
                            hazard,
                            view_cells,
                            collector,
                        };
                        Worker::new(index, channels, iso, handler, &config).run()
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        Runtime {
            dispatcher: Dispatcher {
                queues,
                inboxes,
                registries,
                hash_shards,
                control: hub,
                recorder: dispatcher_recorder,
                attached: Arc::new(AtomicU64::new(0)),
            },
            generation,
            live,
            rings,
            collector,
            hazard,
            view_cells,
            handles,
            started: Instant::now(),
        }
    }

    /// Connections handled by the dispatcher so far (attached to a
    /// shard or visibly refused).
    #[must_use]
    pub fn attached(&self) -> u64 {
        self.dispatcher.attached.load(Ordering::SeqCst)
    }

    /// Blocks until the runtime has been observed **quiescent** — a
    /// generation-counted barrier, exact under concurrent producers and
    /// in-flight steals:
    ///
    /// 1. snapshot the runtime-wide generation counter (bumped by every
    ///    wake signal anywhere: queue pushes, readiness edges, steal
    ///    hints, a thief handing a tray back to its owner);
    /// 2. observe every shard idle — worker parked on its wake set with
    ///    an empty queue, an empty connection inbox and no pending
    ///    readiness signals;
    /// 3. re-read the generation. Unchanged means **no work was created
    ///    anywhere** while the shards were being walked, so the
    ///    per-shard idle observations were simultaneous, not merely
    ///    sequential — without this, a shard checked early could be
    ///    re-busied by a sibling (a thief releasing a tray gate with
    ///    frames left behind it, a steal bell) behind the walker's
    ///    back. Changed means retry.
    ///
    /// On success, every connection byte written before the call has
    /// been fully served and every steal in flight at the time has
    /// landed. Returns `false` only on the (defensive) failsafe
    /// timeout.
    pub fn quiesce(&self) -> bool {
        // Each shard observation keeps the same per-shard failsafe the
        // one-by-one walk had; the whole barrier (walks plus generation
        // retries) gets a proportionally larger overall deadline so a
        // long-but-progressing drain is not misreported as wedged.
        const FAILSAFE: Duration = Duration::from_secs(5);
        let workers = u32::try_from(self.workers()).unwrap_or(u32::MAX);
        let deadline = Instant::now() + FAILSAFE.saturating_mul(workers.saturating_add(1));
        loop {
            let before = self.generation.load(Ordering::SeqCst);
            let mut shards = self.dispatcher.queues.iter().zip(&self.dispatcher.inboxes);
            let all_idle = shards.all(|(queue, inbox)| {
                let budget = FAILSAFE.min(deadline.saturating_duration_since(Instant::now()));
                queue
                    .wakes()
                    .wait_idle(|| queue.is_empty() && inbox.is_empty(), budget)
            });
            if !all_idle {
                return false; // failsafe fired mid-walk
            }
            if self.generation.load(Ordering::SeqCst) == before {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            // Something moved during the walk: observe again.
        }
    }

    /// Number of shards/workers — including, when a control plane is
    /// enabled, the extra blast-pit shard.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.dispatcher.queues.len()
    }

    /// The sacrificial blast-pit shard quarantined clients are routed
    /// to (`None` without a control plane). Regular clients never hash
    /// to it.
    #[must_use]
    pub fn blast_pit(&self) -> Option<usize> {
        self.dispatcher.control.as_ref().map(|hub| hub.blast_pit())
    }

    /// A clonable routing handle for threads that dispatch into this
    /// runtime (the `ConnectionServer` acceptor).
    #[must_use]
    pub fn dispatcher(&self) -> Dispatcher {
        self.dispatcher.clone()
    }

    /// The streaming collector, when [`RuntimeConfig::streaming`] and
    /// the flight recorder are both enabled — live windowed rollups
    /// ([`Collector::rollup`]) and delivery books are readable mid-run
    /// without quiescing anything.
    #[must_use]
    pub fn collector(&self) -> Option<&Arc<Collector>> {
        self.collector.as_ref()
    }

    /// The shard serving `client` (see [`Dispatcher::shard_of`]).
    #[must_use]
    pub fn shard_of(&self, client: ClientId) -> usize {
        self.dispatcher.shard_of(client)
    }

    /// Assigns an accepted connection to `client`'s sticky shard; the
    /// shard's worker pumps it from now on.
    pub fn attach(&self, client: ClientId, endpoint: Endpoint) {
        self.dispatcher.attach(client, endpoint);
    }

    /// Submits one complete request for `client`, with backpressure.
    pub fn submit(&self, client: ClientId, payload: Vec<u8>) -> SubmitOutcome {
        self.dispatcher.submit(client, payload)
    }

    /// Fire-and-forget submit for load generation (no completion slot to
    /// allocate or fill). Returns whether the request was accepted.
    pub fn submit_detached(&self, client: ClientId, payload: Vec<u8>) -> bool {
        self.dispatcher.submit_detached(client, payload)
    }

    /// Pending requests across all shards.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.dispatcher.queues.iter().map(|q| q.len()).sum()
    }

    /// A cheap live view of the run so far — **without quiescing**:
    /// nothing parks, no queue stops, no lock is taken on any worker's
    /// hot path. Each worker publishes its counters to per-worker
    /// atomics once per pump pass; this sums the last-flushed values.
    ///
    /// The price of not stopping the world is weaker consistency — see
    /// [`StatsSnapshot`]'s docs for exactly what may be stale or
    /// mutually inconsistent. For the exact, reconciled record, use
    /// [`shutdown`](Self::shutdown).
    #[must_use]
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let mut totals = [0u64; LiveTotals::COUNTERS];
        for live in &self.live {
            for (sum, counter) in totals.iter_mut().zip(live.load().to_array()) {
                *sum += counter;
            }
        }
        StatsSnapshot {
            totals: LiveTotals::from_array(totals),
            pending: self.pending(),
            attached: self.attached(),
            refused: self
                .dispatcher
                .control
                .as_ref()
                .map_or(0, |hub| hub.refused()),
        }
    }

    /// Stops accepting requests, drains every shard (queued requests
    /// *and* bytes already received on attached connections), joins the
    /// workers and returns the aggregated measurements.
    #[must_use]
    pub fn shutdown(self) -> RuntimeStats {
        for queue in &self.dispatcher.queues {
            queue.stop();
        }
        // Workers join first: after this, no queue counter moves again
        // except late shed rejections, which are handled below.
        let workers: Vec<crate::worker::WorkerStats> = self
            .handles
            .into_iter()
            .map(|handle| handle.join().expect("worker panicked"))
            .collect();
        // Late attaches that raced shutdown (pushed after a worker's
        // final inbox check) would otherwise strand their clients in a
        // silent hang: close them so the peer observes the refusal.
        for inbox in &self.dispatcher.inboxes {
            for mut conn in inbox.drain() {
                conn.endpoint.close();
            }
        }
        let submitted = self.dispatcher.queues.iter().map(|q| q.submitted()).sum();
        let stolen_submits = self.dispatcher.queues.iter().map(|q| q.stolen()).sum();
        let conn_stolen = self
            .dispatcher
            .registries
            .iter()
            .map(|r| r.stolen_frames())
            .sum();
        let mut shed_latency = LatencyHistogram::new();
        for queue in &self.dispatcher.queues {
            shed_latency.merge(&queue.shed_latency());
        }
        // Close the shared-read books: dropping the cells retires the
        // final published views, and with every worker joined no guard
        // can be live, so the drain completes and the domain's
        // `retired == reclaimed + pending` law must balance exactly.
        drop(self.view_cells);
        let hazard = self.hazard.map(|domain| {
            while domain.reclaim() > 0 {}
            domain.stats()
        });
        // The aggregate shed count derives from the merged histogram, so
        // the two can never disagree even if a racing submitter sheds
        // between per-queue reads.
        let mut stats = RuntimeStats {
            shed: shed_latency.len(),
            workers,
            submitted,
            stolen_submits,
            conn_stolen,
            shed_latency,
            control: self.dispatcher.control.as_ref().map(|hub| hub.report()),
            hazard,
            telemetry: None,
            wall: self.started.elapsed(),
        };
        if let Some(rings) = self.rings {
            stats.telemetry = Some(close_telemetry(&rings, self.collector.as_deref()));
        }
        stats
    }
}

/// Closes the telemetry books at shutdown: drains every
/// flight-recorder ring into one stamp-merged [`TraceLog`] and cuts the
/// ring books ([`TelemetrySnapshot`]) *after* the drain, so
/// `recorded == drained + dropped + sampled_out` is checkable.
///
/// With a streaming collector, events the workers already shipped in
/// delta frames (booked as `drained` at flush time) are merged back in
/// *before* the final ring drains, so the log still carries every
/// drained event exactly once, and the collector's delivery books
/// (frames, losses, regressions) close into
/// [`TelemetryReport::streaming`] — one [`Collector::close`] call.
fn close_telemetry(
    rings: &[(String, Arc<TraceRing>)],
    collector: Option<&Collector>,
) -> TelemetryReport {
    // Events the workers already streamed were booked `drained` when
    // their flush tick drained them; taking the retained ones back here
    // (by move — this Vec becomes the log) keeps `log.len() + truncated
    // == Σ drained` exact.
    let (streaming, events) = collector.map(Collector::close).unzip();
    let mut events: Vec<_> = events.unwrap_or_default();
    let mut snapshot = TelemetrySnapshot::default();
    for (name, ring) in rings {
        events.extend(ring.drain());
        snapshot.add_ring(name, ring.counters(), ring.len());
    }
    TelemetryReport {
        snapshot,
        log: TraceLog::new(events),
        streaming,
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("workers", &self.dispatcher.queues.len())
            .field("pending", &self.pending())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::KvHandler;
    use crate::queue::Disposition;

    #[test]
    fn sharding_is_sticky_and_total() {
        let runtime = Runtime::start(
            RuntimeConfig::new(4, IsolationMode::PerClientDomain),
            |_| KvHandler::default(),
        );
        for c in 0..64u64 {
            let shard = runtime.shard_of(ClientId(c));
            assert!(shard < 4);
            assert_eq!(shard, runtime.shard_of(ClientId(c)), "sticky");
        }
        let stats = runtime.shutdown();
        assert_eq!(stats.workers.len(), 4);
    }

    #[test]
    fn requests_route_and_complete() {
        let runtime = Runtime::start(
            RuntimeConfig::new(2, IsolationMode::PerClientDomain),
            |_| KvHandler::default(),
        );
        let client = ClientId(5);
        let SubmitOutcome::Enqueued(set) = runtime.submit(client, b"set k 2\r\nhi\r\n".to_vec())
        else {
            panic!("unexpected shed");
        };
        assert_eq!(set.wait().response, b"STORED\r\n");
        let SubmitOutcome::Enqueued(get) = runtime.submit(client, b"get k\r\n".to_vec()) else {
            panic!("unexpected shed");
        };
        let completion = get.wait();
        assert_eq!(completion.disposition, Disposition::Ok);
        assert_eq!(completion.response, b"VALUE k 2\r\nhi\r\nEND\r\n");
        let stats = runtime.shutdown();
        assert_eq!(stats.served(), 2);
        assert!(stats.reconciles());
        assert_eq!(stats.ok_latency().len(), 2, "latencies recorded");
        assert!(stats.ok_latency().p99() > std::time::Duration::ZERO);
    }

    #[test]
    fn shutdown_drains_pending_requests() {
        let runtime = Runtime::start(
            RuntimeConfig::new(1, IsolationMode::PerClientDomain),
            |_| KvHandler::default(),
        );
        for i in 0..100u64 {
            assert!(runtime.submit_detached(ClientId(i), b"stats\r\n".to_vec()));
        }
        let stats = runtime.shutdown();
        assert_eq!(stats.served(), 100, "every accepted request is answered");
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn attach_after_shutdown_refuses_instead_of_stranding() {
        let runtime = Runtime::start(
            RuntimeConfig::new(1, IsolationMode::PerClientDomain),
            |_| KvHandler::default(),
        );
        let dispatcher = runtime.dispatcher();
        let _ = runtime.shutdown();
        let listener = sdrad_net::Listener::new();
        let client = listener.connect();
        dispatcher.attach(ClientId(1), listener.accept().unwrap());
        assert!(!client.is_open(), "late attach must be visibly refused");
    }

    #[test]
    fn telemetry_records_the_run_and_conserves() {
        let mut config = RuntimeConfig::new(2, IsolationMode::PerClientDomain);
        config.telemetry = TelemetryConfig::enabled();
        let runtime = Runtime::start(config, |_| KvHandler::default());
        for i in 0..16u64 {
            assert!(runtime.submit_detached(ClientId(i), b"stats\r\n".to_vec()));
        }
        let SubmitOutcome::Enqueued(attack) =
            runtime.submit(ClientId(666), b"xstat 4096 4\r\nboom\r\n".to_vec())
        else {
            panic!("unexpected shed");
        };
        let _ = attack.wait();
        let stats = runtime.shutdown();
        assert!(stats.reconciles(), "telemetry books balance");
        let telemetry = stats.telemetry.as_ref().expect("telemetry enabled");
        assert!(telemetry.snapshot.conserves());
        // Every accepted submit left a Submit event on the dispatcher
        // ring, and the contained fault left a Rewind on its worker's.
        assert_eq!(telemetry.log.query().kind(EventKind::Submit).count(), 17);
        let rewinds = telemetry
            .log
            .query()
            .client(666)
            .kind(EventKind::Rewind)
            .run();
        assert_eq!(rewinds.len(), 1);
        assert!(
            rewinds[0].detail > 0,
            "rewind_ns travels in the detail word"
        );
    }

    #[test]
    fn telemetry_off_reports_nothing() {
        let runtime = Runtime::start(
            RuntimeConfig::new(1, IsolationMode::PerClientDomain),
            |_| KvHandler::default(),
        );
        assert!(runtime.submit_detached(ClientId(1), b"stats\r\n".to_vec()));
        let stats = runtime.shutdown();
        assert!(stats.telemetry.is_none(), "Off leaves no books to keep");
    }

    #[test]
    fn stats_snapshot_reads_live_counters_without_quiescing() {
        let runtime = Runtime::start(
            RuntimeConfig::new(2, IsolationMode::PerClientDomain),
            |_| KvHandler::default(),
        );
        for i in 0..32u64 {
            assert!(runtime.submit_detached(ClientId(i), b"stats\r\n".to_vec()));
        }
        // After a quiesce every worker has parked — and a worker
        // flushes its counters immediately before parking, so the
        // snapshot has converged to the truth.
        assert!(runtime.quiesce());
        let snap = runtime.stats_snapshot();
        assert_eq!(snap.totals.served, 32);
        assert_eq!(snap.totals.ok, 32);
        assert_eq!(snap.pending, 0);
        assert_eq!(runtime.shutdown().served(), 32);
    }

    #[test]
    fn attached_connections_are_pumped_by_the_sticky_shard() {
        let runtime = Runtime::start(
            RuntimeConfig::new(2, IsolationMode::PerClientDomain),
            |_| KvHandler::default(),
        );
        let listener = sdrad_net::Listener::new();
        let mut client = listener.connect();
        let server_end = listener.accept().unwrap();
        runtime.attach(ClientId(42), server_end);
        client.write(b"set via-conn 2\r\nok\r\n");
        let stats = runtime.shutdown();
        assert_eq!(stats.served(), 1);
        assert_eq!(stats.connections(), 1);
        assert_eq!(client.read_available(), b"STORED\r\n");
    }
}

//! The four workloads: set-up, the measured window, shutdown and book
//! checks. Everything here drives the runtime from outside — through
//! `ConnectionServer` endpoints or `Runtime::submit` — from one
//! generator thread.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdrad::ClientId;
use sdrad_faultsim::workload::{
    http_get_request, http_upload_request, kv_exploit_request, KvWorkload,
};
use sdrad_faultsim::{HostileMix, HostileMixConfig, TrafficKind};
use sdrad_net::Endpoint;
use sdrad_runtime::{
    ConnectionServer, ControlConfig, HttpHandler, IsolationMode, KvHandler, LadderParams,
    ReputationParams, Runtime, RuntimeConfig, RuntimeStats, ShedParams, StreamingConfig,
    SubmitOutcome, TelemetryConfig, Ticket,
};

use crate::hist::Hist;
use crate::openloop::{BacklogWatch, Pacer};
use crate::procstat::{affinity, stolen_ns, this_thread_cpu_ns, ServerThreads};
use crate::validate::{split_http, split_kv, ticket_reply_ok, HttpExpect, KvExpect, Split};

/// Workers (= shards) of the runtime under test; one connection each.
pub const WORKERS: usize = 2;
pub const KEY_SPACE: usize = 10_000;
/// `kv_hostile`'s key space. A worker restart reloads its shard's whole
/// store: at 10 000 keys that is ~50 000 allocations and 3 ms, the
/// restart rung alone is 70 % of worker time, and the workload measures
/// the host's allocator and memory system (its throughput moved 25 %
/// with them between identical runs). At 1 000 keys a restart costs
/// ~0.3 ms and rewinds, rebuilds, restarts, admission and the recorder
/// all show in the numbers.
pub const HOSTILE_KEY_SPACE: usize = 1_000;
pub const VALUE_LEN: usize = 64;
pub const READ_FRACTION: f64 = 0.9;
/// Warm-up is a fixed count, not a time, so set-up does the same work on
/// a fast and a slow build.
pub const WARMUP_REQUESTS: u64 = 50_000;
/// The measured window is cut into this many equal segments; every
/// end-to-end metric is the median of its per-segment values.
pub const SEGMENTS: usize = 5;
/// `kv_open`'s offered rate, requests per second over both connections.
pub const OPEN_RATE: u64 = 20_000;
pub const PIPELINE_DEPTH: usize = 64;
pub const HTTP_DEPTH: usize = 8;
pub const HOSTILE_WINDOW: usize = 32;
pub const PAGE_LEN: usize = 4096;
/// Declared length of the `xstat` exploit: past any domain heap here.
pub const EXPLOIT_DECLARED: usize = 65_536;
/// `kv_open` warns when the generator ran later than this at p99 (the
/// client-side tail is then the generator's, not the server's)…
pub const WARN_LATENESS_P99_NS: f64 = 200_000.0;
/// …and is invalid past this: a generator starved of its CPU for 1 % of
/// its sends no longer offers the schedule it claims. The gated
/// percentiles (p50, p90) are untouched well before that; the gap
/// between the two thresholds is what a shared host's stolen time
/// produces on a bad minute, and must not fail a run.
pub const MAX_LATENESS_P99_NS: f64 = 1_000_000.0;
/// …or when fewer than this share of offered requests completed.
pub const MIN_OPEN_COMPLETION: f64 = 0.999;
/// A segment during which the hypervisor stole more than this (in CPUs:
/// stolen CPU-seconds per second) is set aside and measured again. On a
/// shared host such episodes cut throughput tenfold for a minute at a
/// time; they are the host's, not the program's.
pub const MAX_STOLEN_CPUS: f64 = 0.05;
/// At most this many segments are measured again.
pub const SPARE_SEGMENTS: usize = 3;
/// Metrics use the undisturbed segments when there are at least this
/// many, every segment otherwise.
pub const MIN_CLEAN_SEGMENTS: usize = 3;
/// How long the window waits for an episode in progress to pass.
const SETTLE_LIMIT: Duration = Duration::from_secs(15);
/// How long the final drain waits for responses still in flight.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    KvOpen,
    KvPipeline,
    HttpUpload,
    KvHostile,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::KvOpen,
        Workload::KvPipeline,
        Workload::HttpUpload,
        Workload::KvHostile,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KvOpen => "kv_open",
            Workload::KvPipeline => "kv_pipeline",
            Workload::HttpUpload => "http_upload",
            Workload::KvHostile => "kv_hostile",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn key_space(self) -> usize {
        match self {
            Workload::KvHostile => HOSTILE_KEY_SPACE,
            _ => KEY_SPACE,
        }
    }

    /// One line on the loop shape, printed with every result.
    pub fn shape(self) -> &'static str {
        match self {
            Workload::KvOpen => "open loop, 20000 req/s over 2 connections, timed from due time",
            Workload::KvPipeline => "closed loop, 2 connections x 64 outstanding",
            Workload::HttpUpload => "closed loop, 2 connections x 8 outstanding, 50% 4 KiB uploads",
            Workload::KvHostile => {
                "closed loop, Runtime::submit window of 32 tickets, ~10% exploits"
            }
        }
    }
}

/// One pass over a workload: which inputs, how long, and which arm.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// `PerClientDomain` except for the `isolation.*` diagnostic pass.
    pub isolation: IsolationMode,
    /// Count heap allocations on worker threads (the counted run).
    pub count_allocs: bool,
}

/// The control plane `kv_hostile` runs under, spelled out here so the
/// benchmark's behaviour does not move when an experiment harness
/// retunes its own copy: reputation half-life 8 s, throttle / quarantine
/// / ban at 4 / 28 / 64, pool rebuild after 4 consecutive faults, worker
/// restart after 3 rebuilds.
///
/// Benign latency-target shedding is parked at 1 s, far above anything
/// the run produces: at the default 50 ms one host hiccup that stalls a
/// worker puts a window of benign p99 over target and the plane starts
/// refusing benign requests — a failed operation caused by the host,
/// on a benchmark whose workloads must not fail. The suspect class
/// keeps its default (tight) target.
pub fn hostile_control() -> ControlConfig {
    ControlConfig {
        benign_shed: ShedParams {
            target_ns: 1_000_000_000,
            ..ControlConfig::default().benign_shed
        },
        reputation: ReputationParams {
            half_life_ns: 8_000_000_000,
            throttle_score: 4.0,
            quarantine_score: 28.0,
            ban_score: 64.0,
            throttle_rate_per_sec: 1_000.0,
            throttle_burst: 4.0,
        },
        ladder: LadderParams {
            pool_after: 4,
            restart_after_rebuilds: 3,
        },
        ..ControlConfig::default()
    }
}

/// A large offender pool keeps rewinds, rebuilds and restarts flowing
/// for the whole run instead of ending at the first bans.
pub fn hostile_mix() -> HostileMixConfig {
    HostileMixConfig {
        benign_clients: 64,
        offenders: 16_384,
        attack_fraction: 0.0085,
        attack_run: (6, 20),
        flash_probability: 0.0,
        ..HostileMixConfig::default()
    }
}

pub fn runtime_config(plan: &Plan) -> RuntimeConfig {
    let mut config = RuntimeConfig::new(WORKERS, plan.isolation);
    if plan.workload == Workload::KvHostile {
        config.domain_heap = 32 * 1024;
        config.control = Some(hostile_control());
        config.telemetry = TelemetryConfig::enabled();
        config.streaming = Some(StreamingConfig::enabled());
    }
    config
}

/// The data convention of `sdrad_faultsim::workload`: `key-<k>` holds
/// `VALUE_LEN` bytes of `k % 251`. Every shard is loaded with the whole
/// key space before it serves, so each `get` is a hit with a known value.
pub fn preloaded_kv_handler(key_space: usize) -> KvHandler {
    let mut handler = KvHandler::default();
    preload(handler.store_mut(), key_space);
    handler
}

pub fn preload(store: &mut sdrad_kvstore::Store, key_space: usize) {
    for key in 0..key_space {
        store.set(format!("key-{key}"), vec![(key % 251) as u8; VALUE_LEN]);
    }
}

pub fn page_for(seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9A6E);
    (0..PAGE_LEN).map(|_| rng.gen_range(b'a'..=b'z')).collect()
}

pub fn http_handler(page: &[u8]) -> HttpHandler {
    let mut handler = HttpHandler::new();
    handler.publish("/", "text/html", page.to_vec());
    handler
}

fn arm_worker_thread(plan: &Plan) {
    if plan.count_allocs {
        sdrad_nolock::arena::count_allocs_on_this_thread(true);
    }
}

// ------------------------------------------------------------------ tapes

/// What a request on a tape must be answered with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Kv(KvExpect),
    Http(HttpExpect),
}

/// Requests generated from the seed before the clock starts, replayed
/// in a cycle: the generator thread shares two cores with the workers,
/// so it must not spend them formatting requests.
pub struct Tape {
    bytes: Vec<u8>,
    entries: Vec<(u32, u32, Expect)>,
    next: usize,
}

impl Tape {
    const KV_LEN: usize = 1 << 16;
    const HTTP_LEN: usize = 1 << 12;

    pub fn kv(seed: u64, key_space: usize) -> Tape {
        let mut workload = KvWorkload::new(seed, key_space, VALUE_LEN, READ_FRACTION);
        let mut tape = Tape {
            bytes: Vec::new(),
            entries: Vec::with_capacity(Self::KV_LEN),
            next: 0,
        };
        for _ in 0..Self::KV_LEN {
            let request = workload.next_request();
            let at = tape.store(&request);
            tape.entries
                .push((at, request.len() as u32, Expect::Kv(KvExpect::of(&request))));
        }
        tape
    }

    /// 50 % chunked 4 x 1 KiB uploads, 50 % `GET /`, in seeded order.
    pub fn http(seed: u64) -> Tape {
        let upload = http_upload_request(4, 1024);
        let get = http_get_request("/");
        let mut tape = Tape {
            bytes: Vec::new(),
            entries: Vec::with_capacity(Self::HTTP_LEN),
            next: 0,
        };
        let kinds = [&upload, &get].map(|request| {
            (
                tape.store(request),
                request.len() as u32,
                Expect::Http(HttpExpect::of(request)),
            )
        });
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..Self::HTTP_LEN {
            tape.entries.push(kinds[usize::from(rng.gen_bool(0.5))]);
        }
        tape
    }

    pub fn for_workload(workload: Workload, seed: u64) -> Tape {
        match workload {
            Workload::HttpUpload => Tape::http(seed),
            workload => Tape::kv(seed, workload.key_space()),
        }
    }

    fn store(&mut self, request: &[u8]) -> u32 {
        let at = u32::try_from(self.bytes.len()).expect("tape stays under 4 GiB");
        self.bytes.extend_from_slice(request);
        at
    }

    pub fn next_request(&mut self) -> (&[u8], Expect) {
        let index = self.next;
        self.next = (self.next + 1) % self.entries.len();
        self.get(index)
    }

    /// Entry `index` of the cycle (any index: it wraps).
    pub fn get(&self, index: usize) -> (&[u8], Expect) {
        let (at, len, expect) = self.entries[index % self.entries.len()];
        (&self.bytes[at as usize..(at + len) as usize], expect)
    }
}

// ------------------------------------------------------------------ books

/// What one segment of the measured window saw.
#[derive(Default, Clone)]
pub struct Segment {
    pub elapsed_s: f64,
    /// Responses that arrived and were right (benign only on `kv_hostile`).
    pub ok: u64,
    /// Requests shed, answered wrongly or never answered (benign only).
    pub failed: u64,
    /// The part of `failed` that was refused at submit.
    pub shed: u64,
    /// Client-observed latency of the `ok` responses.
    pub latency: Hist,
    pub server_cpu_ns: u64,
    pub gen_cpu_ns: u64,
    /// CPUs' worth of time the hypervisor stole during the segment.
    pub stolen_cpus: f64,
    /// Worker-thread heap allocations (counted run only).
    pub allocs: u64,
    /// `kv_open`: how late each send of the segment left.
    pub lateness: Hist,
    /// `kv_hostile`: exploits admitted and answered `contained`.
    pub contained: u64,
    /// `kv_hostile`: exploits refused at admission.
    pub refused_exploits: u64,
    /// `kv_hostile`: exploits admitted and *not* contained — never right.
    pub escaped_exploits: u64,
    /// `kv_hostile`: submit of an exploit to its contained completion.
    pub contained_latency: Hist,
}

impl Segment {
    pub fn done(&self) -> u64 {
        self.ok + self.failed
    }

    /// Requests the server finished, whatever the answer had to be:
    /// the denominator of every per-request cost.
    pub fn completed(&self) -> u64 {
        self.done() + self.contained
    }

    pub fn is_clean(&self) -> bool {
        self.stolen_cpus <= MAX_STOLEN_CPUS
    }

    pub fn absorb(&mut self, other: &Segment) {
        self.elapsed_s += other.elapsed_s;
        self.ok += other.ok;
        self.failed += other.failed;
        self.shed += other.shed;
        self.latency.merge(&other.latency);
        self.server_cpu_ns += other.server_cpu_ns;
        self.gen_cpu_ns += other.gen_cpu_ns;
        self.allocs += other.allocs;
        self.lateness.merge(&other.lateness);
        self.contained += other.contained;
        self.refused_exploits += other.refused_exploits;
        self.escaped_exploits += other.escaped_exploits;
        self.contained_latency.merge(&other.contained_latency);
    }
}

/// When a driving loop stops.
#[derive(Clone, Copy)]
enum Until {
    /// After this many responses (warm-up).
    Done(u64),
    /// At this instant on the bench clock (a segment).
    Clock(u64),
}

// ------------------------------------------------------------ connections

/// Wakes the parked generator from the server's write path — once
/// `threshold` responses have been written since it last looked, not on
/// every one. Waking per response makes the generator and the workers
/// trade a futex wake and a context switch per request whenever the
/// generator happens to keep up, and none when it falls behind: two
/// regimes a run flips between. On the reference host `kv_pipeline`
/// then ran at 340–465 k req/s with segments from 224 k to 461 k and a
/// p99 of 1.3–2 ms; with half a pipeline of hysteresis, 580–655 k
/// req/s and a p99 of 0.4 ms. The other half of the pipeline is the
/// workers' runway while the generator wakes.
struct Ready {
    written: AtomicUsize,
    threshold: usize,
    generator: Thread,
}

/// Responses a closed loop lets accumulate before its generator wakes.
fn wake_threshold(workload: Workload) -> usize {
    match workload {
        Workload::KvPipeline => PIPELINE_DEPTH / 2,
        _ => HTTP_DEPTH / 2,
    }
}

/// Upper bound on a park: stragglers below the threshold are read then.
const PARK_SLICE: Duration = Duration::from_micros(250);

struct Client {
    endpoint: Endpoint,
    rx: Vec<u8>,
    /// Prefix of `rx` already split off and checked.
    consumed: usize,
    /// Requests written and not yet answered, oldest first, each with
    /// the instant its latency is measured from.
    pending: VecDeque<(Expect, u64)>,
}

enum Head {
    Right(usize),
    Wrong(usize),
    Incomplete,
    Garbage,
}

fn check_head(buf: &[u8], expect: Expect, page: &[u8]) -> Head {
    let (right, used) = match expect {
        Expect::Kv(expect) => match split_kv(buf) {
            Split::Complete(reply, used) => (expect.accepts(&reply, VALUE_LEN), used),
            Split::Incomplete => return Head::Incomplete,
            Split::Garbage => return Head::Garbage,
        },
        Expect::Http(expect) => match split_http(buf) {
            Split::Complete(reply, used) => (expect.accepts(&reply, page), used),
            Split::Incomplete => return Head::Incomplete,
            Split::Garbage => return Head::Garbage,
        },
    };
    if right {
        Head::Right(used)
    } else {
        Head::Wrong(used)
    }
}

impl Client {
    fn send(&mut self, request: &[u8], expect: Expect, from_ns: u64) {
        self.endpoint.write(request);
        self.pending.push_back((expect, from_ns));
    }

    /// Reads what arrived, splits off and checks every complete
    /// response. Returns whether anything arrived.
    fn pump(&mut self, page: &[u8], clock: &Instant, seg: &mut Segment) -> Result<bool, String> {
        if self.endpoint.read_available_into(&mut self.rx) == 0 {
            return Ok(false);
        }
        let now = elapsed_ns(clock);
        while self.consumed < self.rx.len() {
            let Some(&(expect, from_ns)) = self.pending.front() else {
                return Err("the server sent bytes no request asked for".into());
            };
            match check_head(&self.rx[self.consumed..], expect, page) {
                Head::Right(used) => {
                    self.consumed += used;
                    seg.ok += 1;
                    seg.latency.record(now.saturating_sub(from_ns));
                }
                Head::Wrong(used) => {
                    self.consumed += used;
                    seg.failed += 1;
                }
                Head::Incomplete => break,
                Head::Garbage => {
                    return Err(format!(
                        "response stream desynchronised while expecting {expect:?}"
                    ))
                }
            }
            self.pending.pop_front();
        }
        if self.consumed == self.rx.len() {
            self.rx.clear();
            self.consumed = 0;
        } else if self.consumed > 1 << 16 {
            self.rx.drain(..self.consumed);
            self.consumed = 0;
        }
        Ok(true)
    }
}

fn elapsed_ns(clock: &Instant) -> u64 {
    u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

struct ConnBench {
    server: ConnectionServer,
    clients: Vec<Client>,
    tape: Tape,
    page: Vec<u8>,
    clock: Instant,
    ready: Arc<Ready>,
    /// Open loop only; see [`Bench::restart_schedule`].
    pacer: Option<Pacer>,
    watch: BacklogWatch,
}

impl ConnBench {
    fn start(plan: &Plan) -> Result<ConnBench, String> {
        let plan = *plan;
        let page = page_for(plan.seed);
        let config = runtime_config(&plan);
        let server = if plan.workload == Workload::HttpUpload {
            let page = page.clone();
            ConnectionServer::start(config, move |_| {
                arm_worker_thread(&plan);
                http_handler(&page)
            })
        } else {
            ConnectionServer::start(config, move |_| {
                arm_worker_thread(&plan);
                preloaded_kv_handler(KEY_SPACE)
            })
        };
        let ready = Arc::new(Ready {
            written: AtomicUsize::new(0),
            threshold: wake_threshold(plan.workload),
            generator: std::thread::current(),
        });
        // Exactly one live connection per shard: the acceptor names the
        // n-th connection `ClientId(n)`, so connect until both shards
        // are covered and hang up on the surplus.
        let mut clients: Vec<Option<Client>> = (0..WORKERS).map(|_| None).collect();
        let mut opened = 0u64;
        while clients.iter().any(Option::is_none) {
            opened += 1;
            if opened > 64 {
                return Err("64 connections did not cover both shards".into());
            }
            let mut endpoint = server.connect();
            let slot = &mut clients[server.runtime().shard_of(ClientId(opened))];
            if slot.is_some() {
                endpoint.close();
                continue;
            }
            if plan.workload != Workload::KvOpen {
                // Closed loops park on readiness; the open loop spins on
                // its schedule and must not pay for a callback per write.
                let ready = Arc::clone(&ready);
                endpoint.set_ready_callback(Arc::new(move || {
                    if ready.written.fetch_add(1, Ordering::AcqRel) + 1 >= ready.threshold {
                        ready.generator.unpark();
                    }
                }));
            }
            *slot = Some(Client {
                endpoint,
                rx: Vec::with_capacity(1 << 16),
                consumed: 0,
                pending: VecDeque::with_capacity(PIPELINE_DEPTH * 2),
            });
        }
        if !server.quiesce() {
            return Err("the server never settled after connecting".into());
        }
        Ok(ConnBench {
            server,
            clients: clients.into_iter().flatten().collect(),
            tape: Tape::for_workload(plan.workload, plan.seed),
            page,
            clock: Instant::now(),
            ready,
            pacer: (plan.workload == Workload::KvOpen).then(|| Pacer::new(0, OPEN_RATE)),
            watch: BacklogWatch::default(),
        })
    }

    /// Keeps `depth` requests outstanding on every connection; parks on
    /// the endpoints' readiness callback (see [`Ready`]) when nothing
    /// arrived.
    fn closed(&mut self, depth: usize, until: Until, seg: &mut Segment) -> Result<(), String> {
        loop {
            let mut progressed = false;
            self.ready.written.store(0, Ordering::Release);
            for client in &mut self.clients {
                progressed |= client.pump(&self.page, &self.clock, seg)?;
                while client.pending.len() < depth {
                    let (request, expect) = self.tape.next_request();
                    let now = elapsed_ns(&self.clock);
                    client.send(request, expect, now);
                    progressed = true;
                }
            }
            match until {
                Until::Done(count) if seg.done() >= count => return Ok(()),
                Until::Clock(deadline) if elapsed_ns(&self.clock) >= deadline => return Ok(()),
                _ => {}
            }
            if !progressed && self.ready.written.load(Ordering::Acquire) < self.ready.threshold {
                std::thread::park_timeout(PARK_SLICE);
            }
        }
    }

    /// Sends on the fixed schedule, alternating connections, spinning.
    fn open(&mut self, until: Until, seg: &mut Segment) -> Result<(), String> {
        let pacer = self.pacer.as_mut().expect("open loop has a pacer");
        let lanes = self.clients.len() as u64;
        loop {
            while let Some((index, due)) = pacer.take_due(elapsed_ns(&self.clock)) {
                let (request, expect) = self.tape.next_request();
                self.clients[(index % lanes) as usize].send(request, expect, due);
                let outstanding: usize = self.clients.iter().map(|c| c.pending.len()).sum();
                self.watch.observe(outstanding as u64);
            }
            for client in &mut self.clients {
                client.pump(&self.page, &self.clock, seg)?;
            }
            match until {
                Until::Done(count) if seg.done() >= count => return Ok(()),
                Until::Clock(deadline) if elapsed_ns(&self.clock) >= deadline => return Ok(()),
                _ => std::hint::spin_loop(),
            }
        }
    }

    /// Waits for everything in flight, sending nothing. Requests still
    /// unanswered at the timeout count as failed.
    fn drain(&mut self, seg: &mut Segment) -> Result<(), String> {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.clients.iter().any(|c| !c.pending.is_empty()) {
            if Instant::now() > deadline {
                let lost: usize = self.clients.iter().map(|c| c.pending.len()).sum();
                seg.failed += lost as u64;
                for client in &mut self.clients {
                    client.pending.clear();
                }
                return Ok(());
            }
            let mut progressed = false;
            for client in &mut self.clients {
                progressed |= client.pump(&self.page, &self.clock, seg)?;
            }
            if !progressed {
                std::thread::yield_now();
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- tickets

struct InFlight {
    ticket: Ticket,
    expect: KvExpect,
    submitted_ns: u64,
}

struct TicketBench {
    runtime: Runtime,
    mix: HostileMix,
    tape: Tape,
    exploit: Vec<u8>,
    window: VecDeque<InFlight>,
    clock: Instant,
}

impl TicketBench {
    fn start(plan: &Plan) -> TicketBench {
        let plan = *plan;
        let runtime = Runtime::start(runtime_config(&plan), move |_| {
            arm_worker_thread(&plan);
            preloaded_kv_handler(HOSTILE_KEY_SPACE)
        });
        TicketBench {
            runtime,
            mix: HostileMix::new(plan.seed, hostile_mix()),
            tape: Tape::kv(plan.seed, HOSTILE_KEY_SPACE),
            exploit: kv_exploit_request(EXPLOIT_DECLARED),
            window: VecDeque::with_capacity(HOSTILE_WINDOW),
            clock: Instant::now(),
        }
    }

    fn submit_next(&mut self, seg: &mut Segment) {
        let event = self.mix.next_event();
        let (payload, expect) = match event.kind {
            TrafficKind::Attack => (self.exploit.clone(), KvExpect::Contained),
            TrafficKind::Benign => match self.tape.next_request() {
                (request, Expect::Kv(expect)) => (request.to_vec(), expect),
                (_, Expect::Http(_)) => unreachable!("kv tape"),
            },
        };
        let submitted_ns = elapsed_ns(&self.clock);
        match self.runtime.submit(ClientId(event.client), payload) {
            SubmitOutcome::Enqueued(ticket) => self.window.push_back(InFlight {
                ticket,
                expect,
                submitted_ns,
            }),
            // Refusing an offender is the control plane doing its job;
            // shedding a benign client is a failure.
            SubmitOutcome::Shed if expect.is_exploit() => seg.refused_exploits += 1,
            SubmitOutcome::Shed => {
                seg.failed += 1;
                seg.shed += 1;
            }
        }
    }

    fn complete_oldest(&mut self, seg: &mut Segment) {
        let Some(oldest) = self.window.pop_front() else {
            return;
        };
        let completion = oldest.ticket.wait();
        let latency = elapsed_ns(&self.clock).saturating_sub(oldest.submitted_ns);
        let right = ticket_reply_ok(oldest.expect, &completion.response, VALUE_LEN);
        match (oldest.expect.is_exploit(), right) {
            (false, true) => {
                seg.ok += 1;
                seg.latency.record(latency);
            }
            (false, false) => seg.failed += 1,
            (true, true) => {
                seg.contained += 1;
                seg.contained_latency.record(latency);
            }
            (true, false) => seg.escaped_exploits += 1,
        }
    }

    fn closed(&mut self, until: Until, seg: &mut Segment) {
        loop {
            while self.window.len() < HOSTILE_WINDOW {
                self.submit_next(seg);
            }
            self.complete_oldest(seg);
            match until {
                Until::Done(count) if seg.completed() >= count => return,
                Until::Clock(deadline) if elapsed_ns(&self.clock) >= deadline => return,
                _ => {}
            }
        }
    }

    fn drain(&mut self, seg: &mut Segment) {
        while !self.window.is_empty() {
            self.complete_oldest(seg);
        }
    }
}

// ------------------------------------------------------------------- runs

enum Bench {
    Conn(Box<ConnBench>),
    Ticket(Box<TicketBench>),
}

/// Which CPU each thread is pinned to.
#[derive(Debug, PartialEq, Eq)]
pub struct Placement {
    /// `workers[i]` is worker `i`'s CPU.
    pub workers: Vec<usize>,
    pub generator: usize,
}

/// Where the threads run, given the CPUs the process may use.
///
/// Unpinned, three busy threads on two CPUs wander: which worker shares
/// a CPU with the generator (or with the other worker) changes every few
/// seconds, and throughput with it by 30 % — more than any bound this
/// benchmark could hold. So placement is fixed: with a CPU to spare,
/// every thread gets its own; without, a spinning generator (the open
/// loop) keeps the last CPU to itself and the workers share the rest,
/// and a parking generator (the closed loops) shares the first CPU with
/// worker 0. `None` on a single CPU: there is nothing to choose.
pub fn placement(spinning: bool, allowed: &[usize]) -> Option<Placement> {
    let cpus = allowed.len();
    if cpus < 2 {
        return None;
    }
    let spread = |over: usize| (0..WORKERS).map(|i| allowed[i % over]).collect();
    Some(if cpus > WORKERS {
        Placement {
            workers: spread(WORKERS),
            generator: allowed[WORKERS],
        }
    } else if spinning {
        Placement {
            workers: spread(cpus - 1),
            generator: allowed[cpus - 1],
        }
    } else {
        Placement {
            workers: spread(cpus),
            generator: allowed[0],
        }
    })
}

/// A started, pinned, warmed-up server and its generator.
struct Rig {
    bench: Bench,
    threads: ServerThreads,
    /// The generator's affinity before pinning, restored at shutdown so
    /// the next server's threads do not inherit the pin.
    allowed: Vec<usize>,
    placement: String,
}

impl Rig {
    /// Set-up: start the server, connect, pin the workers and the
    /// calling (generator) thread, warm up. Returns the rig and the
    /// set-up time in seconds.
    fn set_up(plan: &Plan) -> Result<(Rig, f64), String> {
        let started = Instant::now();
        let bench = match plan.workload {
            Workload::KvHostile => Bench::Ticket(Box::new(TicketBench::start(plan))),
            _ => Bench::Conn(Box::new(ConnBench::start(plan)?)),
        };
        // Two workers plus the acceptor, or plus the blast-pit shard.
        let threads = ServerThreads::find_all(WORKERS + 1)?;
        let allowed = affinity::allowed();
        let placement = match placement(plan.workload == Workload::KvOpen, &allowed) {
            None => format!("unpinned: {} usable cpu(s)", allowed.len()),
            Some(placement) => {
                if threads.pin_workers(&placement.workers)
                    && affinity::set(0, &[placement.generator])
                {
                    format!(
                        "workers pinned to cpus {:?}, generator to cpu {}",
                        placement.workers, placement.generator
                    )
                } else {
                    affinity::set(0, &allowed);
                    "unpinned: the kernel refused sched_setaffinity".to_string()
                }
            }
        };
        let mut rig = Rig {
            bench,
            threads,
            allowed,
            placement,
        };
        // The workload's own loop warms up — open loop on `kv_open` too:
        // the wake path is what it measures, and a pipelined warm-up
        // would never park a worker. Set-up ends with nothing in flight.
        let mut warmup = Segment::default();
        rig.bench.restart_schedule();
        let warmed = rig
            .bench
            .drive(plan.workload, Until::Done(WARMUP_REQUESTS), &mut warmup)
            .and_then(|()| rig.bench.drain(&mut warmup));
        let setup_s = started.elapsed().as_secs_f64();
        if warmed.is_err() || warmup.failed > 0 || warmup.escaped_exploits > 0 {
            let _ = rig.shut_down();
            warmed?;
            return Err(format!(
                "warm-up: {} failed ({} of them shed), {} exploits escaped",
                warmup.failed, warmup.shed, warmup.escaped_exploits
            ));
        }
        Ok((rig, setup_s))
    }

    fn shut_down(self) -> RuntimeStats {
        let stats = self.bench.shut_down();
        affinity::set(0, &self.allowed);
        stats
    }
}

impl Bench {
    fn drive(&mut self, workload: Workload, until: Until, seg: &mut Segment) -> Result<(), String> {
        match self {
            Bench::Ticket(bench) => {
                bench.closed(until, seg);
                Ok(())
            }
            Bench::Conn(bench) => match workload {
                Workload::KvOpen => bench.open(until, seg),
                Workload::KvPipeline => bench.closed(PIPELINE_DEPTH, until, seg),
                _ => bench.closed(HTTP_DEPTH, until, seg),
            },
        }
    }

    /// Open loop: a fresh schedule starting now (warm-up and the window
    /// each get their own, so neither's lateness carries into the
    /// other). Nothing to do for a closed loop.
    fn restart_schedule(&mut self) {
        if let Bench::Conn(bench) = self {
            if bench.pacer.is_some() {
                bench.pacer = Some(Pacer::new(elapsed_ns(&bench.clock), OPEN_RATE));
            }
        }
    }

    fn clock(&self) -> &Instant {
        match self {
            Bench::Conn(bench) => &bench.clock,
            Bench::Ticket(bench) => &bench.clock,
        }
    }

    fn drain(&mut self, seg: &mut Segment) -> Result<(), String> {
        match self {
            Bench::Conn(bench) => bench.drain(seg),
            Bench::Ticket(bench) => {
                bench.drain(seg);
                Ok(())
            }
        }
    }

    fn shut_down(self) -> RuntimeStats {
        match self {
            Bench::Conn(bench) => bench.server.shutdown(),
            Bench::Ticket(bench) => bench.runtime.shutdown(),
        }
    }
}

/// The runtime's own books must close: any of these is a wrong run.
pub fn book_errors(stats: &RuntimeStats) -> Vec<String> {
    let mut errors = Vec::new();
    if stats.crashes() != 0 {
        errors.push(format!("{} crashes", stats.crashes()));
    }
    if stats.leaks() != 0 {
        errors.push(format!("{} secret leaks", stats.leaks()));
    }
    if !stats.reconciles() {
        errors.push("the runtime's books do not reconcile".into());
    }
    errors
}

/// Everything one pass measured.
pub struct Measured {
    pub setup_s: f64,
    /// Every segment measured, disturbed ones included.
    pub segments: Vec<Segment>,
    /// The final drain: outcomes counted, nothing timed.
    pub drained: Segment,
    pub stats: RuntimeStats,
    pub backlog_peaks: Vec<u64>,
    /// Which CPUs the threads were pinned to.
    pub placement: String,
    /// Worth a line in the report, but the run counts.
    pub warnings: Vec<String>,
    /// Reasons the run does not count (wrong answers are in `segments`).
    pub invalid: Vec<String>,
}

impl Measured {
    pub fn total(&self) -> Segment {
        let mut total = self.drained.clone();
        for segment in &self.segments {
            total.absorb(segment);
        }
        total
    }

    /// The segments the metrics are taken over: the undisturbed ones
    /// when there are enough of them, all of them otherwise.
    pub fn clean(&self) -> Vec<&Segment> {
        let clean: Vec<&Segment> = self.segments.iter().filter(|s| s.is_clean()).collect();
        if clean.len() >= MIN_CLEAN_SEGMENTS {
            clean
        } else {
            self.segments.iter().collect()
        }
    }

    /// The measured window — the [`clean`](Self::clean) segments — as one.
    pub fn window(&self) -> Segment {
        let mut window = Segment::default();
        for segment in self.clean() {
            window.absorb(segment);
        }
        window
    }
}

impl Measured {
    /// The open loop's lateness gate, over the window the metrics use.
    fn gate_lateness(mut self) -> Measured {
        let lateness = self.window().lateness;
        if lateness.len() == 0 {
            return self;
        }
        let late = lateness.quantile_ns(0.99);
        if late > MAX_LATENESS_P99_NS {
            self.invalid.push(format!(
                "generator lateness p99 {:.0} us exceeds {:.0} us",
                late / 1e3,
                MAX_LATENESS_P99_NS / 1e3
            ));
        } else if late > WARN_LATENESS_P99_NS {
            self.warnings.push(format!(
                "generator lateness p99 {:.0} us: client.* tails are the generator's",
                late / 1e3
            ));
        }
        self
    }
}

/// Waits (boundedly) until the hypervisor is not stealing CPU.
fn settle() {
    const PROBE: Duration = Duration::from_millis(250);
    let deadline = Instant::now() + SETTLE_LIMIT;
    loop {
        let before = stolen_ns();
        std::thread::sleep(PROBE);
        let stolen_cpus = (stolen_ns() - before) as f64 / PROBE.as_nanos() as f64;
        if stolen_cpus <= MAX_STOLEN_CPUS || Instant::now() > deadline {
            return;
        }
    }
}

/// Set-up, shut down, check the books: one more sample of `setup_s`.
pub fn set_up_only(plan: &Plan) -> Result<f64, String> {
    let (rig, setup_s) = Rig::set_up(plan)?;
    let errors = book_errors(&rig.shut_down());
    if errors.is_empty() {
        Ok(setup_s)
    } else {
        Err(errors.join("; "))
    }
}

/// One full pass: set-up, the measured window in [`SEGMENTS`] equal
/// segments, drain, shutdown, book checks.
pub fn measure(plan: &Plan) -> Result<Measured, String> {
    let (mut rig, setup_s) = Rig::set_up(plan)?;
    let (mut invalid, mut warnings) = (Vec::new(), Vec::new());
    let (bench, server_threads) = (&mut rig.bench, &rig.threads);
    let segment_ns = (plan.seconds * 1e9 / SEGMENTS as f64) as u64;
    let mut segments: Vec<Segment> = Vec::with_capacity(SEGMENTS + SPARE_SEGMENTS);
    settle();
    bench.restart_schedule();
    let mut boundary = elapsed_ns(bench.clock());
    while segments.iter().filter(|s| s.is_clean()).count() < SEGMENTS
        && segments.len() < SEGMENTS + SPARE_SEGMENTS
    {
        let mut seg = Segment::default();
        let (server_cpu, gen_cpu) = (server_threads.cpu_ns(), this_thread_cpu_ns());
        let (stolen, allocs) = (stolen_ns(), sdrad_nolock::arena::counted_allocs());
        let started = elapsed_ns(bench.clock());
        boundary += segment_ns;
        if let Bench::Conn(bench) = bench {
            bench.watch.start_segment();
        }
        bench.drive(plan.workload, Until::Clock(boundary), &mut seg)?;
        let elapsed = elapsed_ns(bench.clock()) - started;
        seg.elapsed_s = elapsed as f64 / 1e9;
        seg.server_cpu_ns = server_threads.cpu_ns() - server_cpu;
        seg.gen_cpu_ns = this_thread_cpu_ns() - gen_cpu;
        seg.stolen_cpus = (stolen_ns() - stolen) as f64 / elapsed.max(1) as f64;
        seg.allocs = sdrad_nolock::arena::counted_allocs() - allocs;
        if let Bench::Conn(bench) = bench {
            if let Some(pacer) = &mut bench.pacer {
                seg.lateness = std::mem::take(&mut pacer.lateness);
            }
        }
        segments.push(seg);
    }
    let mut drained = Segment::default();
    bench.drain(&mut drained)?;
    let set_aside = segments.iter().filter(|s| !s.is_clean()).count();
    if set_aside > 0 {
        warnings.push(format!(
            "{set_aside} of {} segments had CPU stolen by the hypervisor (cpus stolen: {:?}); {}",
            segments.len(),
            segments
                .iter()
                .map(|s| (s.stolen_cpus * 100.0).round() / 100.0)
                .collect::<Vec<_>>(),
            if segments.len() - set_aside >= MIN_CLEAN_SEGMENTS {
                "they are set aside"
            } else {
                "too few are left, so all are used"
            }
        ));
    }

    let backlog_peaks = match bench {
        Bench::Conn(bench) if plan.workload == Workload::KvOpen => {
            let offered = bench.pacer.as_ref().expect("open loop has a pacer").sent();
            let answered: u64 = segments.iter().map(|s| s.ok).sum::<u64>() + drained.ok;
            if (answered as f64) < MIN_OPEN_COMPLETION * offered as f64 {
                invalid.push(format!(
                    "only {answered} of {offered} offered requests completed"
                ));
            }
            if bench.watch.is_growing() {
                invalid.push(format!("backlog grows: peaks {:?}", bench.watch.peaks()));
            }
            bench.watch.peaks().to_vec()
        }
        _ => Vec::new(),
    };

    let placement = rig.placement.clone();
    let stats = rig.shut_down();
    invalid.extend(book_errors(&stats));
    let escaped: u64 =
        segments.iter().map(|s| s.escaped_exploits).sum::<u64>() + drained.escaped_exploits;
    if escaped > 0 {
        invalid.push(format!("{escaped} admitted exploits were not contained"));
    }
    let measured = Measured {
        setup_s,
        segments,
        drained,
        stats,
        backlog_peaks,
        placement,
        warnings,
        invalid,
    };
    Ok(measured.gate_lateness())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_gives_a_spinning_generator_a_cpu_of_its_own() {
        let place = |spinning, allowed: &[usize]| {
            placement(spinning, allowed).map(|p| (p.workers, p.generator))
        };
        // The reference host: two CPUs for three threads.
        assert_eq!(place(false, &[0, 1]), Some((vec![0, 1], 0)));
        assert_eq!(place(true, &[0, 1]), Some((vec![0, 0], 1)));
        // A CPU to spare: nobody shares, whatever the loop.
        assert_eq!(place(false, &[2, 4, 6, 8]), Some((vec![2, 4], 6)));
        assert_eq!(place(true, &[2, 4, 6]), Some((vec![2, 4], 6)));
        assert_eq!(place(true, &[5]), None);
        assert_eq!(place(false, &[]), None);
    }

    #[test]
    fn tapes_repeat_per_seed_and_carry_their_expectations() {
        let (a, b, c) = (Tape::kv(9, 100), Tape::kv(9, 100), Tape::kv(10, 100));
        assert_eq!(a.bytes, b.bytes);
        assert_ne!(a.bytes, c.bytes);
        let mut tape = Tape::http(9);
        let (uploads, gets) =
            (0..1000).fold((0, 0), |(uploads, gets), _| match tape.next_request() {
                (request, Expect::Http(HttpExpect::Uploaded { bytes })) => {
                    assert!(request.starts_with(b"POST /upload") && bytes == 4096);
                    (uploads + 1, gets)
                }
                (request, expect) => {
                    assert!(request.starts_with(b"GET / "), "{expect:?}");
                    (uploads, gets + 1)
                }
            });
        assert!((400..=600).contains(&uploads) && uploads + gets == 1000);
    }
}

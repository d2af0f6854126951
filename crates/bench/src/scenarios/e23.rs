//! E23 — zero-pause pool rebuilds: publish-and-retire vs
//! stop-the-world.
//!
//! A stop-the-world pool-rebuild rung tears down the faulting worker's
//! whole domain pool inside the serving path, and every request queued
//! behind the fault waits out the modeled teardown window (20 µs per
//! pooled domain — 160 µs per rebuild at the default pool size). The
//! runtime's one rebuild path is publish-and-retire instead: a fresh
//! pool is published in pointer-scale time, the old one is retired
//! into a deferred queue behind hazard pointers, and its domains are
//! torn down a couple per pump pass, off the serving path.
//!
//! This scenario prices the difference where it matters — the benign
//! neighbour's tail. One cell runs the same campaign under a chosen
//! [`Lifecycle`]: a control plane tuned so an offender's every third
//! consecutive fault climbs the escalation ladder to the pool-rebuild
//! rung on the serving shard, while a benign closed-loop probe on that
//! same shard measures its ticket round-trip p99 — first against a
//! quiet runtime (steady state), then with the rebuild storm running
//! (one attack ahead of every probe). The stop-the-world counterfactual
//! lives here, not in the runtime, as the [`StopTheWorld`] handler
//! wrapper: the request behind a rebuild tears the retired pool down at
//! once and physically waits out the modeled window, so the probe
//! really pays the pause. Each lifecycle runs `RUNS` times and the
//! least-noise run is reported.
//!
//! Acceptance, hard-asserted:
//!
//! * the deferred storm p99 stays within `DEFERRED_SLACK` of steady
//!   state (both sides floored at [`TAIL_FLOOR`]) — generous, because
//!   inside the band a µs-scale p99 ratio is the host scheduler;
//! * the stop-the-world storm p99 shows the physical pause — at least
//!   `PAUSE_VISIBLE`, and above the deferred storm tail;
//! * every run closes its books before returning: runtime stats
//!   reconcile, zero crashes, zero thief mutations, the reclamation
//!   ledger balances (`retired == reclaimed + pending` with pending
//!   drained to zero), the shared-view hazard domain conserves, and the
//!   energy bill prices the lifecycle the runtime ran (publish +
//!   amortized reclamation time, no pause time).

use std::time::{Duration, Instant};

use sdrad::ClientId;
use sdrad_energy::decisions::RungModels;
use sdrad_runtime::{
    ControlConfig, Framing, KvHandler, LadderParams, LatencyHistogram, ReadView, RecoveryRung,
    Reply, ReputationParams, Runtime, RuntimeConfig, RuntimeStats, SessionHandler, ShedParams,
    StealClass, StealPolicy, SubmitOutcome, WorkerIsolation,
};

use crate::cells::{self, fmt_us};
use crate::{fmt_duration, Report};

/// The planted out-of-bounds fault every isolated build contains. The
/// 4 KiB allocation fits the cell's small domain heaps; the write 4
/// bytes past it faults either way.
pub const ATTACK: &[u8] = b"xstat 4096 4\r\nboom\r\n";

/// One modeled stop-the-world pause quantum, less a small margin:
/// [`StopTheWorld`] spins 20 µs × 8 pooled domains = 160 µs per
/// rebuild, so a deterministic third of its storm probes wait at
/// least that long and its storm p99 can never come under this floor.
/// Both sides of the storm ratio are floored here — the ratio asks
/// whether the storm tail stays under one pause quantum, which the
/// runtime's path must (its serving-path residue is a pointer swap, a
/// µs-scale rewind and the lazy refill of a small fresh pool) and the
/// stop-the-world path physically cannot. Flooring also keeps µs-scale
/// host jitter out of the ratio.
pub const TAIL_FLOOR: Duration = Duration::from_micros(150);
/// Acceptance slack on the deferred storm ratio.
const DEFERRED_SLACK: f64 = 3.0;
/// The stop-the-world pause must be visible in the storm tail: the
/// modeled window is 160 µs per rebuild at the default pool size, and
/// a deterministic third of the storm probes queue behind one.
const PAUSE_VISIBLE: Duration = Duration::from_micros(100);
/// Runs per lifecycle; ratios are taken from the least-noise run.
const RUNS: usize = 3;

/// Control tuned so the offender is never throttled, quarantined or
/// banned: every attack lands on its sticky shard, and each
/// `pool_after` consecutive faults climbs the ladder to a pool rebuild
/// right where the benign probe lives. The benign latency-target shed
/// is parked at 1 s — the cell prices the rebuild lifecycle, and a
/// closed-loop probe refused by the default 50 ms target during a host
/// stall would be a shedding result, not a rebuild one.
#[must_use]
pub fn rebuild_happy_control() -> ControlConfig {
    ControlConfig {
        benign_shed: ShedParams {
            target_ns: 1_000_000_000,
            ..ControlConfig::default().benign_shed
        },
        reputation: ReputationParams {
            half_life_ns: 60_000_000_000,
            throttle_score: 1e12,
            quarantine_score: 1e15,
            ban_score: 1e18,
            throttle_rate_per_sec: 1e9,
            throttle_burst: 1e9,
        },
        ladder: LadderParams {
            pool_after: 3,
            // Rebuilds are the terminal rung: a restart would close the
            // deferred books early and hide the lifecycle under test.
            restart_after_rebuilds: 1_000_000,
        },
        ..ControlConfig::default()
    }
}

/// Which rebuild lifecycle a storm cell's probes experience.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifecycle {
    /// The runtime as it ships: publish-and-retire, teardown amortized
    /// over later pump passes.
    ZeroPause,
    /// The counterfactual: [`StopTheWorld`] makes the request behind
    /// every rebuild pay the whole teardown.
    StopTheWorld,
}

/// Prices what publish-and-retire deletes: a [`SessionHandler`] wrapper
/// under which the first request a worker serves after a pool rebuild
/// (its isolation context's pool generation advanced) tears every
/// retired domain down on the spot and spins out the modeled
/// stop-the-world window. Everything else forwards to the wrapped
/// handler.
#[derive(Debug)]
pub struct StopTheWorld<H> {
    inner: H,
    pause: Duration,
    seen_generation: u64,
}

impl<H> StopTheWorld<H> {
    /// Wraps `inner` for a worker pooling `domains` domains (the
    /// modeled window is per pooled domain).
    pub fn new(inner: H, domains: usize) -> Self {
        let domains = u32::try_from(domains).unwrap_or(u32::MAX);
        StopTheWorld {
            inner,
            pause: RungModels::calibrated().time_of(RecoveryRung::PoolRebuild, 0, domains),
            seen_generation: 0,
        }
    }
}

impl<H: SessionHandler> SessionHandler for StopTheWorld<H> {
    fn handle(&mut self, iso: &mut WorkerIsolation, client: ClientId, request: &[u8]) -> Reply {
        let generation = iso.pool_generation();
        if generation != self.seen_generation {
            self.seen_generation = generation;
            while iso.reclaim_step(16) > 0 {}
            let started = Instant::now();
            while started.elapsed() < self.pause {
                std::hint::spin_loop();
            }
        }
        self.inner.handle(iso, client, request)
    }

    fn steal_class(&self, request: &[u8]) -> StealClass {
        self.inner.steal_class(request)
    }

    fn frame(&self, buffer: &[u8]) -> Framing {
        self.inner.frame(buffer)
    }

    fn state_version(&self) -> u64 {
        self.inner.state_version()
    }

    fn read_view(&self) -> Option<Box<dyn ReadView>> {
        self.inner.read_view()
    }

    fn state_bytes(&self) -> u64 {
        self.inner.state_bytes()
    }

    fn restart(&mut self) {
        self.inner.restart();
    }
}

/// The cell's runtime: the hot-shard skew config at two deep-stealing
/// workers (no connection attaches, so its read budget is moot) plus
/// the rebuild-happy control plane.
#[must_use]
pub fn cell_config() -> RuntimeConfig {
    let mut config = cells::hot_shard_config(2, StealPolicy::Deep, 4096);
    config.control = Some(rebuild_happy_control());
    // Small domain heaps so the per-domain *byte* costs the storm pays
    // either way (rewind restores, zeroed re-creation after a rebuild)
    // stay µs-scale: what separates the two cells is then the rebuild
    // lifecycle itself, not megabytes of heap churn. The stop-the-world
    // pause is modeled per domain (20 µs × 8), independent of heap
    // size, so shrinking the heap does not shrink the spike under test.
    config.domain_heap = 64 * 1024;
    config
}

/// One storm cell's closed books and the two probe tails the
/// experiment prices against each other.
#[derive(Debug)]
pub struct RebuildCell {
    /// The runtime's reconciled books.
    pub stats: RuntimeStats,
    /// Benign probe RTT p99 against the quiet runtime.
    pub steady_p99: Duration,
    /// Benign probe RTT p99 with the rebuild storm running.
    pub storm_p99: Duration,
}

impl RebuildCell {
    /// The reclamation conservation law, reconciled exactly: every
    /// domain the rebuild rungs retired was reclaimed by shutdown
    /// (`retired == reclaimed + pending` with pending drained to
    /// zero), and the shared-view hazard domain's books close the same
    /// way.
    #[must_use]
    pub fn reclaim_conserves(&self) -> bool {
        self.stats.domains_retired() == self.stats.domains_reclaimed()
            && self
                .stats
                .hazard
                .as_ref()
                .is_some_and(|h| h.conserves() && h.pending == 0)
    }

    /// Storm p99 over steady p99, both floored at [`TAIL_FLOOR`].
    #[must_use]
    pub fn storm_ratio(&self) -> f64 {
        self.storm_p99.max(TAIL_FLOOR).as_secs_f64() / self.steady_p99.max(TAIL_FLOOR).as_secs_f64()
    }
}

/// Runs one storm cell under `lifecycle` with `probes` round trips per
/// phase, asserts every book it can close, and returns the tails.
///
/// # Panics
///
/// On any broken invariant: unbalanced runtime/reclamation/hazard/
/// energy books, a crash, a thief-side mutation, or a storm that never
/// reached the pool-rebuild rung.
#[must_use]
pub fn run_cell(lifecycle: Lifecycle, probes: usize) -> RebuildCell {
    let config = cell_config();
    let runtime = match lifecycle {
        Lifecycle::ZeroPause => Runtime::start(config, |_| KvHandler::default()),
        Lifecycle::StopTheWorld => Runtime::start(config, move |_| {
            StopTheWorld::new(KvHandler::default(), config.domains_per_worker)
        }),
    };
    // Warm every worker and find the probe and offender on the same
    // shard, so the storm's rebuilds land exactly where the benign
    // probe is served.
    cells::warm_every_shard(&runtime);
    let shard0 = cells::hot_clients(&runtime, 2);
    let (probe, offender) = (shard0[0], shard0[1]);

    // Seed live state so published read views carry real entries.
    let SubmitOutcome::Enqueued(seed) = runtime.submit(probe, b"set warm 5\r\nhello\r\n".to_vec())
    else {
        panic!("empty runtime shed the seed");
    };
    assert_eq!(seed.wait().response, b"STORED\r\n");

    let mut steady = LatencyHistogram::new();
    for _ in 0..probes {
        cells::probe_rtt(&runtime, probe, &mut steady);
    }

    // The storm: one attack ahead of every probe, so each third probe
    // queues behind a pool rebuild on its own shard. The probe's RTT
    // then measures exactly what the rebuild lifecycle costs a benign
    // neighbour.
    let mut storm = LatencyHistogram::new();
    for _ in 0..probes {
        assert!(
            runtime.submit_detached(offender, ATTACK.to_vec()),
            "the storm never fills a closed-loop queue"
        );
        cells::probe_rtt(&runtime, probe, &mut storm);
    }

    assert!(runtime.quiesce(), "drain must settle");
    let stats = runtime.shutdown();

    assert!(stats.reconciles(), "books must balance: {stats:?}");
    assert_eq!(stats.crashes(), 0, "every planted fault is contained");
    assert_eq!(stats.thief_mutations(), 0, "no mutation ran on a thief");
    assert!(
        stats.pool_rebuilds() > 0,
        "the storm must climb to the pool rung: {stats:?}"
    );
    assert!(
        stats.domains_retired() > 0,
        "rebuilds must retire live domains"
    );
    assert_eq!(
        stats.domains_retired(),
        stats.domains_reclaimed(),
        "retired == reclaimed + pending with pending drained to zero"
    );
    let hazard = stats
        .hazard
        .as_ref()
        .expect("deep stealing runs a hazard domain");
    assert!(
        hazard.conserves() && hazard.pending == 0,
        "hazard books: {hazard:?}"
    );
    assert!(stats.views_published() > 0, "owners published read views");
    let ctl = stats.control.as_ref().expect("control books");
    assert!(ctl.reconciles(), "decisions counted == billed == executed");
    assert!(
        ctl.bill.reclaim_time > Duration::ZERO,
        "deferral moves the teardown joules, it does not delete them"
    );

    RebuildCell {
        stats,
        steady_p99: steady.p99(),
        storm_p99: storm.p99(),
    }
}

/// Runs `RUNS` cells under `lifecycle` and returns the one with the
/// smallest storm ratio — the least host-noise-contaminated estimate
/// of what the rebuild path itself costs. Book invariants are asserted
/// inside every run, not just the chosen one.
#[must_use]
pub fn best_cell(lifecycle: Lifecycle, probes: usize) -> RebuildCell {
    (0..RUNS)
        .map(|_| run_cell(lifecycle, probes))
        .min_by(|a, b| a.storm_ratio().total_cmp(&b.storm_ratio()))
        .expect("at least one run")
}

fn cell_row(r: &mut Report, label: &str, cell: &RebuildCell) {
    let ctl = cell.stats.control.as_ref().expect("control books");
    r.row(&[
        label.into(),
        fmt_us(cell.steady_p99),
        fmt_us(cell.storm_p99),
        format!("{:.2}x", cell.storm_ratio()),
        cell.stats.pool_rebuilds().to_string(),
        cell.stats.domains_retired().to_string(),
        fmt_duration(ctl.bill.publish_time),
        fmt_duration(ctl.bill.reclaim_time),
    ]);
}

/// Runs both lifecycles at `size` closed-loop probes per phase.
#[must_use]
pub fn run(size: usize) -> Report {
    let deferred = best_cell(Lifecycle::ZeroPause, size);
    let synchronous = best_cell(Lifecycle::StopTheWorld, size);
    let deferred_ratio = deferred.storm_ratio();
    let sync_ratio = synchronous.storm_ratio();

    let conserves = deferred.reclaim_conserves() && synchronous.reclaim_conserves();
    assert!(conserves, "reclamation books must reconcile in both cells");
    assert!(
        deferred_ratio <= DEFERRED_SLACK,
        "deferred rebuilds paused the benign tail: storm p99 {:?} vs steady {:?} ({:.2}x)",
        deferred.storm_p99,
        deferred.steady_p99,
        deferred_ratio
    );
    assert!(
        synchronous.storm_p99 >= PAUSE_VISIBLE,
        "the stop-the-world window never showed in the tail: {:?}",
        synchronous.storm_p99
    );
    assert!(
        synchronous.storm_p99 > deferred.storm_p99,
        "the pause the deferred path deletes must be measurable on the stop-the-world one: \
         stop-the-world {:?} vs deferred {:?}",
        synchronous.storm_p99,
        deferred.storm_p99
    );

    let mut r = Report::new(
        "e23",
        "zero-pause pool rebuilds under a ladder-driven storm",
    );
    r.begin_table(
        format!(
            "{size} closed-loop probes per phase, one attack ahead of each storm probe \
             (a pool rebuild every 3rd), 2 deep-steal workers, best of {RUNS} runs per cell"
        ),
        &[
            "rebuild",
            "steady p99",
            "storm p99",
            "ratio",
            "rebuilds",
            "retired",
            "pause",
            "reclaim",
        ],
    );
    cell_row(&mut r, "deferred (publish+retire)", &deferred);
    cell_row(&mut r, "stop-the-world (bench shim)", &synchronous);

    let reclaim_time = deferred
        .stats
        .control
        .as_ref()
        .expect("control books")
        .bill
        .reclaim_time;
    r.exact("reclaim_conserves", f64::from(u8::from(conserves)), "bool")
        .exact(
            "crashes",
            (deferred.stats.crashes() + synchronous.stats.crashes()) as f64,
            "count",
        )
        .exact(
            "thief_mutations",
            (deferred.stats.thief_mutations() + synchronous.stats.thief_mutations()) as f64,
            "count",
        )
        .info("sync_p99_ratio", sync_ratio, "ratio")
        .info("storm_p99_ns", deferred.storm_p99.as_nanos() as f64, "ns")
        .note(format!(
            "deferred rebuilds hold the benign storm p99 at {deferred_ratio:.2}x steady state \
             while a stop-the-world rebuild spikes to {sync_ratio:.2}x; the same teardown work \
             is billed as {} of amortized reclamation instead of a serving-path pause",
            fmt_duration(reclaim_time)
        ))
        .note(format!(
            "reclamation books reconcile exactly in both cells: {} domains retired == \
             reclaimed, nothing pending past shutdown, hazard domain conserved",
            deferred.stats.domains_retired() + synchronous.stats.domains_retired()
        ));
    r
}

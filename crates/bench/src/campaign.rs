//! The shared hostile/benign campaign behind E19, E20 and E24.
//!
//! E19 established the adaptive-control experiment: a seeded
//! `sdrad-faultsim` mix of repeat offenders and benign flash crowds
//! driven through a KV runtime. E20 replays *the same campaign* with
//! the flight recorder enabled and reconstructs the control plane's
//! decisions from trace data alone, and E24 layers the streaming
//! collector on top — so the configuration lives here once, and all
//! three scenarios provably talk about the same workload.

use std::time::Duration;

use sdrad::ClientId;
use sdrad_faultsim::{HostileMix, HostileMixConfig, TrafficKind};
use sdrad_runtime::{
    ControlConfig, IsolationMode, LadderParams, ReputationParams, Runtime, RuntimeConfig,
    RuntimeStats, TelemetryConfig,
};

use crate::cells::{benign, KV_ATTACK};

/// Regular shards per cell (the adaptive cell adds its blast pit).
pub const WORKERS: usize = 4;
/// Bounded queue depth: small enough that sustained hostile volume
/// visibly crowds benign traffic in the static cell.
pub const QUEUE_CAPACITY: usize = 256;
/// Campaign seed — every cell replays the identical event stream.
pub const SEED: u64 = 0x5D12_AD19;

/// The campaign's traffic mix: 32 benign clients, 4 repeat offenders
/// attacking in runs, occasional benign flash crowds.
#[must_use]
pub fn campaign_config() -> HostileMixConfig {
    HostileMixConfig {
        benign_clients: 32,
        offenders: 4,
        attack_fraction: 0.5,
        attack_run: (6, 20),
        flash_probability: 0.02,
        flash_run: (8, 32),
        ..HostileMixConfig::default()
    }
}

/// Control parameters for the adaptive cell: standings wide enough
/// that the run-at-a-time score jumps still pass through every
/// graduated response, decay slow enough that a ban holds for the rest
/// of the campaign, and a ladder that escalates inside an offender's
/// career. (See E19's doc comment for the full rationale.)
#[must_use]
pub fn control_config() -> ControlConfig {
    ControlConfig {
        reputation: ReputationParams {
            half_life_ns: 8_000_000_000, // 8 s
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

/// The ground-truth offender list for [`SEED`] + [`campaign_config`].
#[must_use]
pub fn offender_ids() -> Vec<u64> {
    HostileMix::new(SEED, campaign_config()).offender_ids()
}

/// One campaign run's outcome.
pub struct Cell {
    /// The runtime's closed books.
    pub stats: RuntimeStats,
    /// Events offered by the producer.
    pub offered: u64,
    /// The benign subset of `offered`.
    pub benign_offered: u64,
    /// Submits refused client-side (admission or queue, indistinct to
    /// the client) — the conservation cross-check.
    pub client_refused: u64,
    /// Producer wall-clock for the whole campaign.
    pub wall: Duration,
}

/// The campaign cell's runtime configuration. Split out from
/// [`run_cell`] so variants that layer extra config on top (the
/// streaming-telemetry cells in [`crate::scenarios::e24`]) provably start
/// from the same runtime as every other harness.
#[must_use]
pub fn cell_config(control: Option<ControlConfig>, telemetry: TelemetryConfig) -> RuntimeConfig {
    let mut config = RuntimeConfig::new(WORKERS, IsolationMode::PerClientDomain);
    config.queue_capacity = QUEUE_CAPACITY;
    // Small domain heaps: the xstat exploit (declared 64 KB) still
    // faults at the region edge, while the pool-rebuild rung tears
    // down kilobytes instead of megabytes — the rebuild cost the
    // energy ledger bills is the cost the latency tail actually pays.
    config.domain_heap = 32 * 1024;
    config.control = control;
    config.telemetry = telemetry;
    config
}

/// Drives the identical seeded campaign through one runtime. The
/// producer runs full speed; bounded queues and (adaptive cell)
/// admission control decide what survives. `telemetry` turns the
/// flight recorder on without touching anything else, so traced and
/// untraced cells stay comparable.
#[must_use]
pub fn run_cell(control: Option<ControlConfig>, telemetry: TelemetryConfig, events: usize) -> Cell {
    drive_campaign(cell_config(control, telemetry), events)
}

/// Replays the seeded campaign against an already-built configuration —
/// the producer loop every cell shares, regardless of which knobs the
/// caller layered on top of [`cell_config`].
#[must_use]
pub fn drive_campaign(config: RuntimeConfig, events: usize) -> Cell {
    let runtime = Runtime::start(config, |_| sdrad_runtime::KvHandler::default());

    let mut mix = HostileMix::new(SEED, campaign_config());
    let started = std::time::Instant::now();
    let mut offered = 0u64;
    let mut benign_offered = 0u64;
    let mut client_refused = 0u64;
    for i in 0..events {
        let event = mix.next_event();
        let payload = match event.kind {
            TrafficKind::Attack => KV_ATTACK.to_vec(),
            TrafficKind::Benign => {
                benign_offered += 1;
                benign(i)
            }
        };
        offered += 1;
        if !runtime.submit_detached(ClientId(event.client), payload) {
            client_refused += 1;
        }
        // Brief breather every few hundred events: the workers observe
        // faults (and the reputation scores integrate them) while the
        // campaign is still running — the closed loop the experiment
        // is about. Identical pacing in every cell.
        if i % 64 == 63 {
            while runtime.pending() > 64 {
                std::thread::sleep(Duration::from_micros(20));
            }
        }
    }
    assert!(runtime.quiesce(), "the drain must settle");
    let wall = started.elapsed();
    let stats = runtime.shutdown();
    Cell {
        stats,
        offered,
        benign_offered,
        client_refused,
        wall,
    }
}

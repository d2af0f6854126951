//! The scenario registry: every experiment (e1–e24 plus the hot-path
//! micro-timings) is exactly one library function `fn(size) -> Report`,
//! listed once in [`ALL`].
//!
//! A scenario owns its cells, **all** of its hard assertions and its
//! metric rows; nothing else re-implements it. It runs at one of two
//! sizes, both constants of its table row:
//!
//! * [`full`](Scenario::full) — what `bench_report <id>` runs
//!   ([`find`]): the paper-vs-measured tables at a size worth reading.
//! * [`trajectory`](Scenario::trajectory) — what `bench_report` runs on
//!   every push: the smallest size at which the scenario's statistical
//!   assertions are not noise-bound.
//!
//! Because the assertions live in the scenario, `bench_report --check`
//! is the one CI gate: a scenario that would have failed its full-size
//! run fails the check run. What the committed `BENCH_runtime.json`
//! gates on top of that is deliberately narrow — `exact` rows
//! (invariants, closed forms at the paper's constants, seeded Monte
//! Carlo) and count-type `guarded` rows (allocs per request, recall).
//! Timing contrasts are asserted inside the scenario against a wide
//! documented band and otherwise reported; tracking them tightly across
//! commits belongs to `benchmark/`, which measures them as paired runs.

pub mod e1;
pub mod e10;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e16;
pub mod e17;
pub mod e18;
pub mod e19;
pub mod e2;
pub mod e20;
pub mod e21;
pub mod e22;
pub mod e23;
pub mod e24;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod micro;

use sdrad_energy::FleetReport;

use crate::Report;

/// One row of the registry.
pub struct Scenario {
    /// Report id and metric-name prefix (`e19` owns `e19.*`).
    pub id: &'static str,
    /// Banner title.
    pub title: &'static str,
    /// The paper claim (or §IV proposal) the scenario tests.
    pub claim: &'static str,
    /// Size `bench_report <id>` runs.
    pub full: usize,
    /// Size `bench_report` and `bench_report --check` run.
    pub trajectory: usize,
    /// The scenario itself; the meaning of `size` is in its rustdoc.
    pub run: fn(usize) -> Report,
}

impl Scenario {
    /// Prints the banner, runs the scenario at `size`, prints and
    /// returns its report.
    pub fn run_at(&self, size: usize) -> Report {
        let (rule, id, title, claim) = ("=".repeat(64), self.id, self.title, self.claim);
        println!("{rule}\n{id}: {title}\npaper: {claim}\n{rule}");
        let report = (self.run)(size);
        report.print();
        report
    }
}

/// Every scenario, in the order `bench_report` runs them.
pub const ALL: &[Scenario] = &[
    Scenario {
        id: "e1",
        title: "runtime overhead of per-request domain isolation",
        claim: "2%-4% overhead on Memcached / NGINX / OpenSSL workloads",
        full: 2_000,
        trajectory: 1_000,
        run: e1::run,
    },
    Scenario {
        id: "e2",
        title: "recovery latency: process/container restart vs SDRaD rewind",
        claim: "10 GB restart ~2 min; rewind 3.5 us",
        full: 100_000,
        trajectory: 20_000,
        run: e2::run,
    },
    Scenario {
        id: "e3",
        title: "recovery-time scaling with dataset size",
        claim: "restart linear in state, rewind constant",
        full: 64_000,
        trajectory: 16_000,
        run: e3::run,
    },
    Scenario {
        id: "e4",
        title: "availability achieved per recovery mechanism",
        claim: "3 faults/yr x 2 min violates five nines; 3.5 us rewind allows >9e7 recoveries",
        full: 300,
        trajectory: 300,
        run: e4::run,
    },
    Scenario {
        id: "e5",
        title: "annual energy & carbon per availability strategy",
        claim: "redundancy-based availability over-provisions; SDRaD avoids it at 2-4% overhead",
        full: 300,
        trajectory: 300,
        run: e5::run,
    },
    Scenario {
        id: "e6",
        title: "cross-domain argument serialization: format comparison",
        claim: "SDRaD-FFI supports arbitrary argument passing via serialization crates",
        full: 500,
        trajectory: 100,
        run: e6::run,
    },
    Scenario {
        id: "e7",
        title: "malicious-client impact on benign clients",
        claim: "SDRaD limits malicious clients' impact on other clients without disrupting service",
        full: 400,
        trajectory: 160,
        run: e7::run,
    },
    Scenario {
        id: "e8",
        title: "isolation-mechanism round-trip costs",
        claim:
            "\"MPK and CHERI … provide lightweight isolation\" vs process context switches (§IV)",
        full: 5_000,
        trajectory: 1_000,
        run: e8::run,
    },
    Scenario {
        id: "e9",
        title: "developer effort of the SDRaD retrofit",
        claim: "Memcached retrofit: 2 files changed, 484 wrapper lines added",
        full: 1,
        trajectory: 1,
        run: e9::run,
    },
    Scenario {
        id: "e10",
        title: "life-cycle assessment over an 8-year horizon",
        claim: "SIV: LCA with energy efficiency + rebound effects (proposed future work)",
        full: 1,
        trajectory: 1,
        run: e10::run,
    },
    Scenario {
        id: "e12",
        title: "simulated availability vs the closed-form model",
        claim: "3 faults/yr x 2 min restart violates five nines; SDRaD rewind holds it",
        full: 96,
        trajectory: 96,
        run: e12::run,
    },
    Scenario {
        id: "e13",
        title: "empirical cluster energy + the diversification ablation",
        claim: "redundancy over-provisions hardware; SDRaD avoids it; diversification is the \
                costly alternative",
        full: 1,
        trajectory: 1,
        run: e13::run,
    },
    Scenario {
        id: "e14",
        title: "telecom & smart-grid fleet case study (environmental + economic + social)",
        claim: "\"a comprehensive case study from the above domains\" — §IV's proposed future work",
        full: 1,
        trajectory: 1,
        run: e14::run,
    },
    Scenario {
        id: "e15",
        title: "concurrent throughput under attack (sharded multi-worker runtime)",
        claim: "restart recovery collapses delivered throughput under attack; SDRaD keeps serving",
        full: 8_000,
        trajectory: 2_000,
        run: e15::run,
    },
    Scenario {
        id: "e16",
        title: "connection-level serving: kvstore/httpd/tls over sdrad-net, FaultSchedule attacks",
        claim: "rewind keeps real connections answered under attack; restart recovery and \
                Heartbleed-style leaks do not",
        full: 4_000,
        trajectory: 1_500,
        run: e16::run,
    },
    Scenario {
        id: "e17",
        title: "event-driven kv hot path + flight-recorder cost contract",
        claim: "observability for a runtime whose whole argument is measured cost must itself \
                have measured, near-zero cost",
        full: 2_000,
        trajectory: 2_000,
        run: e17::run,
    },
    Scenario {
        id: "e18",
        title: "connection-buffer work stealing under a hot-shard skew, mutations left to their \
                owner",
        claim: "capacity stranded behind a hot shard is energy spent serving nobody; stealing it \
                back must not let state mutate off its owner shard",
        full: 4_000,
        trajectory: 1_500,
        run: e18::run,
    },
    Scenario {
        id: "e19",
        title: "adaptive control plane (reputation + latency-target shedding + escalation \
                ladder) vs static reflexes under a mixed hostile/benign campaign",
        claim: "recovery is a policy choice: pick the cheap rung first, quarantine the guilty, \
                and the innocent keep their latency — at a fraction of the recovery energy",
        full: 12_000,
        trajectory: 6_000,
        run: e19::run,
    },
    Scenario {
        id: "e20",
        title: "post-mortem decision timelines from the flight recorder: throttle -> quarantine \
                -> ban, reconstructed per banned client from trace data alone",
        claim: "observability is part of resilience: the recovery choices the controller made \
                must be auditable after the fact, at a cost the hot path does not notice",
        full: 12_000,
        trajectory: 6_000,
        run: e20::run,
    },
    Scenario {
        id: "e21",
        title: "lock-free hand-off latency vs worker count under the hot-shard skew",
        claim: "a steal plane that convoys producers behind a lock turns added workers into \
                added tail latency; the lock-free hand-off must keep p99 flat as workers double",
        full: 6_000,
        trajectory: 2_000,
        run: e21::run,
    },
    Scenario {
        id: "e22",
        title: "frame-buffer arena vs malloc-per-frame on the closed-loop kv hot path",
        claim: "the allocator is a per-frame tax every resilience mechanism pays — recycle the \
                storage and the tax (and its joules) disappears from the bill",
        full: 4_000,
        trajectory: 2_000,
        run: e22::run,
    },
    Scenario {
        id: "e23",
        title: "zero-pause pool rebuilds: publish-and-retire vs stop-the-world",
        claim: "recovery only stays cheaper than a restart if escalation rungs stop billing \
                their cost to the benign traffic queued behind the fault",
        full: 768,
        trajectory: 384,
        run: e23::run,
    },
    Scenario {
        id: "e24",
        title: "streaming telemetry: collector delta frames, overload-adaptive sampling, and \
                windowed fault rollups feeding admission as evidence",
        claim: "observability that only answers post-mortems wastes its freshest signal; a \
                resilience controller should consume its own telemetry, at a cost the hot path \
                does not notice and without corrupting the books it audits",
        full: 12_000,
        trajectory: 6_000,
        run: e24::run,
    },
    Scenario {
        id: "micro",
        title: "hot-path micro-timings",
        claim: "rewind-based recovery costs microseconds where a restart costs minutes",
        full: 200,
        trajectory: 200,
        run: micro::run,
    },
];

/// Appends the fleet-lineup table e15 and e16 both end on: the
/// deployment strategies priced with this build's measured rewind and
/// isolation overhead substituted. Returns the servers `1N-sdrad` needs
/// to meet five nines, for the caller's conclusion line.
fn fleet_table(report: &mut Report, context: &str, lineup: &[FleetReport]) -> f64 {
    report.begin_table(
        context,
        &[
            "strategy",
            "servers",
            "availability",
            "kWh/yr",
            "kgCO2e/yr",
            "TCO EUR/yr",
            "meets 5 nines",
        ],
    );
    for fleet in lineup {
        report.row(&[
            fleet.strategy.clone(),
            format!("{:.0}", fleet.servers),
            format!("{:.6}", fleet.availability),
            format!("{:.0}", fleet.annual_kwh),
            format!("{:.0}", fleet.annual_kgco2),
            format!("{:.0}", fleet.annual_tco_eur()),
            if fleet.meets_target { "yes" } else { "no" }.into(),
        ]);
    }
    let sdrad = lineup.iter().find(|r| r.strategy == "1N-sdrad");
    sdrad.expect("lineup includes sdrad").servers
}

/// `value` rounded to two decimals: how exact rows record the closed
/// forms and simulations they print, so a last-bit difference in a libm
/// function cannot fail the check.
fn hundredths(value: f64) -> f64 {
    (value * 100.0).round() / 100.0
}

/// The registered scenario `id`, if any: what `bench_report <id>` runs
/// at its full size.
#[must_use]
pub fn find(id: &str) -> Option<&'static Scenario> {
    ALL.iter().find(|s| s.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report;
    use sdrad_telemetry::Json;

    #[test]
    fn ids_are_unique_and_trajectory_never_exceeds_full() {
        for (i, scenario) in ALL.iter().enumerate() {
            assert!(
                ALL[..i].iter().all(|s| s.id != scenario.id),
                "duplicate scenario id {}",
                scenario.id
            );
            assert!(
                scenario.trajectory <= scenario.full && scenario.trajectory > 0,
                "{}: trajectory {} vs full {}",
                scenario.id,
                scenario.trajectory,
                scenario.full
            );
        }
    }

    /// The scenario that owns the metric `name`: its id is the name's
    /// prefix up to the first dot, except the flight-recorder contract
    /// rows, which e17 emits under `telemetry.*`.
    fn owner(name: &str) -> Option<&'static Scenario> {
        let prefix = name.split('.').next().unwrap_or(name);
        find(if prefix == "telemetry" { "e17" } else { prefix })
    }

    #[test]
    fn every_committed_baseline_row_has_a_registered_owner() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_runtime.json");
        let text = std::fs::read_to_string(path).expect("committed baseline");
        let doc = Json::parse(&text).expect("baseline parses");
        let baseline = report::metrics_from_json(&doc).expect("baseline schema");
        assert!(!baseline.is_empty());
        for metric in &baseline {
            assert!(
                owner(&metric.name).is_some(),
                "{}: orphan baseline row — no registered scenario owns its prefix",
                metric.name
            );
        }
    }
}

//! `bench_report` — the perf-trajectory pipeline behind
//! `BENCH_runtime.json`, and CI's one gate on every experiment (e1–e24).
//!
//! Runs every scenario in [`sdrad_bench::scenarios::ALL`] at its
//! trajectory size — each asserts its own acceptance criteria, so a
//! broken scenario panics here — collects their metric rows, and either
//! writes them as the committed baseline or `--check`s them against it.
//! Three metric classes:
//!
//! * **exact** — invariants (crash counts, containment, precision),
//!   closed forms and seeded simulations. Any drift fails.
//! * **guarded** — count-type ratios (allocs per request, recall). A
//!   degradation beyond 10 % vs the baseline fails.
//! * **info** — timings and host-dependent counts, recorded for trend
//!   reading across the commit history; never gating.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p sdrad-bench --bin bench_report              # regenerate baseline
//! cargo run --release -p sdrad-bench --bin bench_report -- --check  # CI regression guard
//! cargo run --release -p sdrad-bench --bin bench_report -- --check --baseline <path>
//! ```

use std::path::PathBuf;

use sdrad_bench::{report, scenarios, Metric};
use sdrad_telemetry::Json;

/// Allocation counting for the e22 scenario. Threads that never opt in
/// pay one thread-local read per allocation event.
#[global_allocator]
static ALLOC: sdrad_nolock::CountingAlloc = sdrad_nolock::CountingAlloc::new();

/// Guarded-metric tolerance: a >10 % degradation vs baseline fails.
const TOLERANCE: f64 = 0.10;

fn baseline_path(args: &[String]) -> PathBuf {
    if let Some(i) = args.iter().position(|a| a == "--baseline") {
        return PathBuf::from(args.get(i + 1).expect("--baseline takes a path"));
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_runtime.json")
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("FAIL: {message}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let checking = args.iter().any(|a| a == "--check");
    let path = baseline_path(&args);

    let mut metrics: Vec<Metric> = Vec::new();
    for scenario in scenarios::ALL {
        let report = scenario.run_at(scenario.trajectory);
        metrics.extend(report.metrics().iter().cloned());
    }

    if checking {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(format!("no committed baseline at {}: {e}", path.display())));
        let doc =
            Json::parse(&text).unwrap_or_else(|e| fail(format!("baseline does not parse: {e}")));
        let baseline = report::metrics_from_json(&doc).unwrap_or_else(|e| fail(e));
        let outcome = report::check(&metrics, &baseline, TOLERANCE);
        for note in &outcome.notes {
            println!("note: {note}");
        }
        for failure in &outcome.failures {
            println!("FAIL: {failure}");
        }
        println!(
            "check vs {}: {} metrics compared, {} failures, {} notes",
            path.display(),
            outcome.compared,
            outcome.failures.len(),
            outcome.notes.len()
        );
        if !outcome.passed() {
            std::process::exit(1);
        }
    } else {
        let doc = report::bench_json(&metrics);
        std::fs::write(&path, doc.pretty()).expect("write baseline");
        println!(
            "wrote {} ({} metrics, schema v{})",
            path.display(),
            metrics.len(),
            report::BENCH_SCHEMA_VERSION
        );
    }
}

//! The repo's end-to-end serving benchmark.
//!
//! ```text
//! benchmark/run.sh --seed 7                 every workload, 20 s windows, writes out/report.json
//! benchmark/run.sh --seed 7 --trace         also the per-layer metrics and out/trace-<workload>.json
//! benchmark/run.sh --smoke                  1 s windows, no validity gates
//! benchmark/run.sh --check                  fresh run against baseline.json under BENCHMARK.json's bounds
//! benchmark/run.sh --workload kv_open --seed 7 --seconds 20 --trace 0     one workload, one result line
//! ```
//!
//! Without `--workload` the binary re-executes itself once per workload,
//! so peak memory, arenas and thread-locals never leak between them.

mod hist;
mod layers;
mod openloop;
mod procstat;
mod report;
mod validate;
mod walk;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use sdrad_runtime::IsolationMode;
use sdrad_telemetry::Json;

use crate::procstat::Host;
use crate::report::{Metric, Outcome};
use crate::workloads::{measure, set_up_only, Measured, Plan, Workload, SEGMENTS, WORKERS};

/// Counts worker-thread heap allocations in the counted run; threads
/// that never opt in pay one thread-local read per allocation.
#[global_allocator]
static ALLOC: sdrad_nolock::CountingAlloc = sdrad_nolock::CountingAlloc::new();

const DEFAULT_SECONDS: f64 = 20.0;
/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 3;
const TRANSPORT: &str = "transport: in-memory sdrad-net loopback, no kernel sockets";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    check: bool,
    save_baseline: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        check: false,
        save_baseline: false,
    };
    let mut seconds_given = false;
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(Workload::parse(&name).ok_or(format!(
                    "unknown workload {name:?}; one of kv_open, kv_pipeline, http_upload, kv_hostile"
                ))?);
            }
            "--seed" => {
                args.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            // `--trace` alone, or `--trace 0|1` as the driver passes it.
            "--trace" => {
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            "--save-baseline" => args.save_baseline = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.smoke && !seconds_given {
        args.seconds = 1.0;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let host = Host::read();
    // Three runnable threads (generator, two workers) on one core measure
    // the scheduler, not the program.
    if host.nproc < WORKERS && !args.smoke {
        eprintln!(
            "error: {} cpu(s); gated runs need at least {WORKERS} (use --smoke for a look)",
            host.nproc
        );
        return ExitCode::FAILURE;
    }
    let result = match args.workload {
        Some(workload) => run_child(workload, &args, &host),
        None => run_all(&args, &host),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

// ------------------------------------------------------------ one workload

fn plan(workload: Workload, args: &Args, seconds: f64) -> Plan {
    Plan {
        workload,
        seed: args.seed,
        seconds,
        isolation: IsolationMode::PerClientDomain,
        count_allocs: false,
    }
}

fn print_header(workload: Workload, args: &Args, host: &Host) {
    println!("workload {}: {}", workload.name(), workload.shape());
    println!("{TRANSPORT}");
    println!(
        "host: {} cpus, {}, kernel {}; seed {}; window {} s in {SEGMENTS} segments",
        host.nproc, host.cpu_model, host.kernel, args.seed, args.seconds
    );
}

/// Runs one workload in this process and prints its result line last.
/// Returns whether the run counts (correct and valid).
fn run_child(workload: Workload, args: &Args, host: &Host) -> Result<bool, String> {
    print_header(workload, args, host);
    let (outcome, notes) = if args.trace {
        traced_run(workload, args)?
    } else {
        timed_run(workload, args)?
    };
    for metric in &outcome.metrics {
        println!("{}", metric.line());
    }
    println!(
        "  failed_share                       {} of {} attempted",
        outcome.failed, outcome.attempted
    );
    for note in &notes {
        println!("  note: {note}");
    }
    println!("detail: {}", report::compact(&outcome.to_json()));
    // A run that does not count prints no result: the caller must not
    // mistake its numbers for measurements. `--smoke` shows them anyway.
    if outcome.correct || args.smoke {
        println!("{}", outcome.result_line());
    }
    Ok(outcome.correct || args.smoke)
}

fn per_segment(measured: &Measured, value: impl Fn(&workloads::Segment) -> f64) -> Vec<f64> {
    measured.clean().into_iter().map(value).collect()
}

/// On-CPU time of the server's threads per completed request, median
/// over the segments. Ungated (`runtime.*`): it is the paper's energy
/// proxy, but on a shared host it follows the neighbours — its median
/// moved 26 % between two sets of runs of the same code.
fn server_cpu(measured: &Measured) -> Metric {
    Metric::median_of(
        "runtime.server_cpu_us_per_req",
        &per_segment(measured, |s| {
            s.server_cpu_ns as f64 / 1e3 / s.completed().max(1) as f64
        }),
        "us",
        measured.window().ok,
    )
}

fn throughput(measured: &Measured) -> Metric {
    Metric::median_of(
        "throughput_rps",
        &per_segment(measured, |s| s.ok as f64 / s.elapsed_s),
        "1/s",
        measured.window().ok,
    )
}

fn latency_p50(measured: &Measured) -> Metric {
    Metric::median_of(
        "latency_p50_us",
        &per_segment(measured, |s| s.latency.quantile_us(0.50)),
        "us",
        measured.window().latency.len(),
    )
}

fn outcome_of(
    workload: Workload,
    passes: &[&Measured],
    metrics: Vec<Metric>,
) -> (Outcome, Vec<String>) {
    let mut notes = Vec::new();
    let (mut attempted, mut failed, mut valid) = (0, 0, true);
    for measured in passes {
        let total = measured.total();
        attempted += total.done();
        failed += total.failed + total.escaped_exploits;
        valid &= measured.invalid.is_empty();
        notes.extend(measured.invalid.iter().map(|why| format!("INVALID: {why}")));
        notes.extend(
            measured
                .warnings
                .iter()
                .map(|what| format!("warning: {what}")),
        );
    }
    let outcome = Outcome {
        workload: workload.name().to_string(),
        correct: failed == 0 && valid && attempted > 0,
        attempted,
        failed,
        metrics,
    };
    (outcome, notes)
}

fn timed_run(workload: Workload, args: &Args) -> Result<(Outcome, Vec<String>), String> {
    let plan = plan(workload, args, args.seconds);
    let mut setups = Vec::with_capacity(SETUPS);
    if !args.smoke {
        for _ in 1..SETUPS {
            setups.push(set_up_only(&plan)?);
        }
    }
    let measured = measure(&plan)?;
    setups.push(measured.setup_s);
    let metrics = vec![
        Metric::median_of("setup_s", &setups, "s", setups.len() as u64),
        throughput(&measured),
        latency_p50(&measured),
        Metric::new("peak_rss_mb", procstat::peak_rss_mb(), "MiB", 1),
    ];
    let (outcome, mut notes) = outcome_of(workload, &[&measured], metrics);
    let window = measured.window();
    notes.insert(0, measured.placement.clone());
    notes.push(format!(
        "per-segment throughput: {:?}",
        per_segment(&measured, |s| (s.ok as f64 / s.elapsed_s).round())
    ));
    notes.push(format!(
        "ungated (per-layer in a traced run): p90 {:.1} us, p99 {:.1} us, max {:.1} us, server cpu {:.3} us/req",
        window.latency.quantile_us(0.90),
        window.latency.quantile_us(0.99),
        window.latency.max_ns() as f64 / 1e3,
        server_cpu(&measured).value
    ));
    if workload == Workload::KvHostile {
        notes.insert(
            0,
            format!(
                "exploits: {} contained, {} refused at admission, {} escaped; benign shed: {}",
                window.contained, window.refused_exploits, window.escaped_exploits, window.shed
            ),
        );
    }
    let lateness = &window.lateness;
    if lateness.len() > 0 {
        notes.insert(
            0,
            format!(
                "generator lateness p50 {:.1} us, p99 {:.1} us, max {:.1} us over {} sends; backlog peaks {:?}",
                lateness.quantile_us(0.5),
                lateness.quantile_us(0.99),
                lateness.max_ns() as f64 / 1e3,
                lateness.len(),
                measured.backlog_peaks
            ),
        );
    }
    Ok((outcome, notes))
}

// ------------------------------------------------------------- traced run

/// Counts per completed request, read from the runtime's own books.
fn counted_metrics(counted: &Measured, out: &mut Vec<Metric>) {
    let stats = &counted.stats;
    let served = stats.served().max(1);
    let per_req = |count: u64| count as f64 / served as f64;
    let window = counted.window();
    let mut push = |name: &str, value: f64, unit: &str| {
        out.push(Metric::new(name, value, unit, served));
    };
    push("runtime.wakes_per_req", per_req(stats.wakeups()), "1/req");
    push("runtime.parks_per_req", per_req(stats.parks()), "1/req");
    push(
        "runtime.allocs_per_req",
        window.allocs as f64 / window.completed().max(1) as f64,
        "1/req",
    );
    push(
        "runtime.arena_reuse_ratio",
        stats.arena_reuses() as f64 / stats.arena_acquires().max(1) as f64,
        "ratio",
    );
    push(
        "runtime.shed_share",
        stats.shed as f64 / (stats.submitted + stats.shed).max(1) as f64,
        "ratio",
    );
    push("runtime.steals_per_req", per_req(stats.steals()), "1/req");
    push(
        "runtime.server_ok_p50_us",
        stats.ok_latency().quantile(0.5) as f64 / 1e3,
        "us",
    );
    push(
        "runtime.rewind_p50_us",
        stats.rewind_latency().quantile(0.5) as f64 / 1e3,
        "us",
    );
    push(
        "runtime.contained",
        stats.contained_faults() as f64,
        "count",
    );
    push(
        "runtime.pool_rebuilds",
        stats.pool_rebuilds() as f64,
        "count",
    );
    push(
        "runtime.worker_restarts",
        stats.worker_restarts() as f64,
        "count",
    );

    let (refused, decisions) = stats.control.as_ref().map_or((0.0, 0.0), |report| {
        let admissions = report.counts.admits + report.counts.quarantines + report.counts.refused();
        (
            report.counts.refused() as f64 / admissions.max(1) as f64,
            report.counts.total() as f64,
        )
    });
    push("control.refused_share", refused, "ratio");
    push("control.decisions", decisions, "count");
    let (sampled_out, dropped) = stats.telemetry.as_ref().map_or((0.0, 0.0), |report| {
        let snapshot = &report.snapshot;
        let recorded = snapshot.total_emitted() + snapshot.total_sampled_out();
        (
            snapshot.total_sampled_out() as f64 / recorded.max(1) as f64,
            snapshot.total_dropped() as f64,
        )
    });
    push("telemetry.sampled_out_share", sampled_out, "ratio");
    push("telemetry.dropped", dropped, "count");
}

/// The generator's own view of a pass: tails too unsteady to gate on.
fn client_metrics(measured: &Measured, out: &mut Vec<Metric>) {
    let window = measured.window();
    let samples = window.latency.len();
    let mut push = |name: &str, value: f64, samples: u64| {
        out.push(Metric::new(name, value, "us", samples));
    };
    push(
        "client.latency_p90_us",
        window.latency.quantile_us(0.90),
        samples,
    );
    push(
        "client.latency_p99_us",
        window.latency.quantile_us(0.99),
        samples,
    );
    push(
        "client.latency_p999_us",
        window.latency.quantile_us(0.999),
        samples,
    );
    push(
        "client.latency_max_us",
        window.latency.max_ns() as f64 / 1e3,
        samples,
    );
    push(
        "client.lateness_p99_us",
        window.lateness.quantile_us(0.99),
        window.lateness.len(),
    );
    push(
        "client.gen_cpu_us_per_req",
        window.gen_cpu_ns as f64 / 1e3 / window.completed().max(1) as f64,
        window.done(),
    );
    push(
        "client.contained_latency_p50_us",
        window.contained_latency.quantile_us(0.5),
        window.contained_latency.len(),
    );
}

fn traced_run(workload: Workload, args: &Args) -> Result<(Outcome, Vec<String>), String> {
    // Timed layers first, on an otherwise idle process.
    let mut metrics = layers::timed_layers(args.seed);

    // Each pass is a quarter of the run length: untraced reference,
    // counted run, and on kv_pipeline the unisolated diagnostic pass.
    let pass = plan(workload, args, args.seconds / 4.0);
    let untraced = measure(&pass)?;
    let counted = measure(&Plan {
        count_allocs: true,
        ..pass
    })?;
    counted_metrics(&counted, &mut metrics);
    metrics.push(server_cpu(&untraced));
    client_metrics(&untraced, &mut metrics);

    let reference = throughput(&untraced).value;
    let baseline = if workload == Workload::KvPipeline {
        Some(measure(&Plan {
            isolation: IsolationMode::Baseline,
            ..pass
        })?)
    } else {
        None
    };
    let baseline_throughput = baseline.as_ref().map_or(0.0, |m| throughput(m).value);
    let responses = untraced.window().ok;
    metrics.push(Metric::new(
        "isolation.baseline_throughput_rps",
        baseline_throughput,
        "1/s",
        baseline.as_ref().map_or(0, |m| m.window().ok),
    ));
    metrics.push(Metric::new(
        "isolation.tput_ratio",
        if baseline_throughput > 0.0 {
            reference / baseline_throughput
        } else {
            0.0
        },
        "ratio",
        responses,
    ));

    // Counting's price as a slowdown, 1.0 = free: throughput lost, or on
    // the open loop (whose throughput is pinned to the offered rate)
    // median latency gained.
    let overhead = if workload == Workload::KvOpen {
        latency_p50(&counted).value / latency_p50(&untraced).value
    } else {
        reference / throughput(&counted).value
    };
    metrics.push(Metric::new(
        "trace.overhead_ratio",
        overhead,
        "ratio",
        responses,
    ));

    let walk = walk::walk(workload, args.seed)?;
    // What a saturated worker spends per request, against what walking
    // the public functions accounts for.
    let worker_ns_per_request = WORKERS as f64 / reference * 1e9;
    metrics.push(Metric::new(
        "trace.coverage",
        walk.server_ns_per_request() / worker_ns_per_request,
        "ratio",
        walk.requests as u64,
    ));
    let out_dir = report::bench_dir().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let trace_path = out_dir.join(format!("trace-{}.json", workload.name()));
    std::fs::write(&trace_path, walk.to_json())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let mut passes = vec![&untraced, &counted];
    passes.extend(baseline.as_ref());
    let (outcome, mut notes) = outcome_of(workload, &passes, metrics);
    notes.insert(0, format!("layer walk: {}", trace_path.display()));
    notes.insert(
        1,
        format!(
            "untraced pass: {reference:.0} req/s, p50 {:.1} us over {} s",
            latency_p50(&untraced).value,
            pass.seconds
        ),
    );
    Ok((outcome, notes))
}

// ---------------------------------------------------------- every workload

/// Re-executes this binary for one workload and reads back its outcome.
fn spawn_child(workload: Workload, args: &Args, trace: bool) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut outcome = None;
    for line in stdout.lines() {
        match line.strip_prefix("detail: ") {
            Some(detail) => {
                let json = Json::parse(detail).map_err(|e| format!("child detail: {e:?}"))?;
                outcome = Outcome::from_json(&json);
            }
            // The result line is for the driver; everything else is
            // the child's report and is passed through.
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    let outcome = outcome.ok_or(format!(
        "{} exited with {} and no result",
        workload.name(),
        output.status
    ))?;
    if !output.status.success() {
        println!("  {} DID NOT COUNT ({})", workload.name(), output.status);
    }
    Ok(outcome)
}

fn run_all(args: &Args, host: &Host) -> Result<bool, String> {
    let dir = report::bench_dir();
    let mut outcomes = Vec::new();
    for workload in Workload::ALL {
        let mut outcome = spawn_child(workload, args, false)?;
        if args.trace {
            let traced = spawn_child(workload, args, true)?;
            outcome.correct &= traced.correct;
            outcome.metrics.extend(traced.metrics);
        }
        println!();
        outcomes.push(outcome);
    }
    let report = report::report_json(args.seed, args.seconds, host, &outcomes);
    let out_dir = dir.join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let report_path = out_dir.join("report.json");
    std::fs::write(&report_path, report.pretty())
        .map_err(|e| format!("{}: {e}", report_path.display()))?;
    println!("report: {}", report_path.display());
    let all_correct = outcomes.iter().all(|o| o.correct);
    if args.save_baseline {
        if !all_correct || args.smoke {
            return Err("not saving a baseline from a smoke run or one that did not count".into());
        }
        let baseline_path = dir.join("baseline.json");
        std::fs::write(&baseline_path, report.pretty())
            .map_err(|e| format!("{}: {e}", baseline_path.display()))?;
        println!("baseline: {}", baseline_path.display());
    }
    if args.check {
        let baseline_path = dir.join("baseline.json");
        let text = std::fs::read_to_string(&baseline_path)
            .map_err(|e| format!("{}: {e}", baseline_path.display()))?;
        let baseline =
            Json::parse(&text).map_err(|e| format!("{}: {e:?}", baseline_path.display()))?;
        let baseline_host = baseline
            .get("host")
            .map(report::compact)
            .unwrap_or_default();
        if baseline_host != report::compact(&report::host_json(host)) {
            println!("note: the baseline was recorded on another host: {baseline_host}");
        }
        let baseline = report::outcomes_of(&baseline).ok_or("baseline.json is not a report")?;
        let (table, regressed) = report::check_table(&baseline, &outcomes, &report::gates(&dir)?);
        print!("{table}");
        return Ok(all_correct && !regressed);
    }
    Ok(all_correct || args.smoke)
}

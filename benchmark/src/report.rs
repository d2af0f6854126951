//! Metrics as the benchmark prints, stores and compares them.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use sdrad_telemetry::Json;

use crate::procstat::Host;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One gated end-to-end metric, as `BENCHMARK.json` declares it.
/// `failed_share` is not among them because a metric under a relative
/// bound must never be 0: it travels as the `failed` and `attempted`
/// counts of every result and may not rise at all.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: String,
    pub better: Better,
    /// Share of the baseline by which the metric may be worse.
    pub bound: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// How many observations the value rests on (requests, iterations).
    pub samples: u64,
    /// Smallest and largest of the values the median was taken over.
    pub spread: Option<(f64, f64)>,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str, samples: u64) -> Metric {
        Metric {
            name: name.to_string(),
            // JSON has no NaN or infinity, and an empty histogram is a 0.
            value: if value.is_finite() { value } else { 0.0 },
            unit: unit.to_string(),
            samples,
            spread: None,
        }
    }

    /// The median of per-segment (or per-set-up) values, with its spread.
    pub fn median_of(name: &str, values: &[f64], unit: &str, samples: u64) -> Metric {
        let mut metric = Metric::new(name, crate::hist::median(values), unit, samples);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if min.is_finite() && max.is_finite() {
            metric.spread = Some((min, max));
        }
        metric
    }

    /// Spread as a share of the median; 0 without a spread.
    pub fn relative_spread(&self) -> f64 {
        match self.spread {
            Some((min, max)) if self.value != 0.0 => (max - min) / self.value.abs(),
            _ => 0.0,
        }
    }

    pub fn line(&self) -> String {
        let mut line = format!("  {:<34} {:>14.4} {:<6}", self.name, self.value, self.unit);
        if let Some((min, max)) = self.spread {
            let _ = write!(line, " min {min:.4} max {max:.4}");
        }
        let _ = write!(line, " ({} samples)", self.samples);
        line
    }

    fn to_json(&self) -> Json {
        let mut json = Json::object();
        json.set("value", Json::F64(self.value));
        json.set("unit", Json::Str(self.unit.clone()));
        json.set("samples", Json::U64(self.samples));
        if let Some((min, max)) = self.spread {
            json.set("min", Json::F64(min));
            json.set("max", Json::F64(max));
        }
        json
    }

    fn from_json(name: &str, json: &Json) -> Option<Metric> {
        let spread = match (json.get("min"), json.get("max")) {
            (Some(min), Some(max)) => Some((min.as_f64()?, max.as_f64()?)),
            _ => None,
        };
        Some(Metric {
            name: name.to_string(),
            value: json.get("value")?.as_f64()?,
            unit: json.get("unit")?.as_str()?.to_string(),
            samples: json.get("samples")?.as_u64()?,
            spread,
        })
    }
}

/// What one workload's child process found.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub workload: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The result line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, each metric exactly `value` and `unit`.
    pub fn result_line(&self) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, metric) in self.metrics.iter().enumerate() {
            let comma = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{comma}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name, metric.value, metric.unit
            );
        }
        line.push_str("}}");
        line
    }

    /// Everything, for the parent process and the stored report.
    pub fn to_json(&self) -> Json {
        let mut metrics = Json::object();
        for metric in &self.metrics {
            metrics.set(&metric.name, metric.to_json());
        }
        let mut json = Json::object();
        json.set("workload", Json::Str(self.workload.clone()));
        json.set("correct", Json::Bool(self.correct));
        json.set("attempted", Json::U64(self.attempted));
        json.set("failed", Json::U64(self.failed));
        json.set("metrics", metrics);
        json
    }

    pub fn from_json(json: &Json) -> Option<Outcome> {
        let metrics = json
            .get("metrics")?
            .as_obj()?
            .iter()
            .map(|(name, metric)| Metric::from_json(name, metric))
            .collect::<Option<Vec<_>>>()?;
        Some(Outcome {
            workload: json.get("workload")?.as_str()?.to_string(),
            correct: matches!(json.get("correct")?, Json::Bool(true)),
            attempted: json.get("attempted")?.as_u64()?,
            failed: json.get("failed")?.as_u64()?,
            metrics,
        })
    }
}

/// Single-line JSON (the `detail:` line a child hands its parent).
pub fn compact(json: &Json) -> String {
    json.pretty()
        .lines()
        .map(str::trim_start)
        .collect::<Vec<_>>()
        .join("")
}

pub fn host_json(host: &Host) -> Json {
    let mut json = Json::object();
    json.set("nproc", Json::U64(host.nproc as u64));
    json.set("cpu_model", Json::Str(host.cpu_model.clone()));
    json.set("kernel", Json::Str(host.kernel.clone()));
    json
}

/// The stored form of one full run: what `--check` compares against.
pub fn report_json(seed: u64, seconds: f64, host: &Host, outcomes: &[Outcome]) -> Json {
    let mut workloads = Json::object();
    for outcome in outcomes {
        workloads.set(&outcome.workload, outcome.to_json());
    }
    let mut json = Json::object();
    json.set("schema", Json::U64(1));
    json.set("seed", Json::U64(seed));
    json.set("window_seconds", Json::F64(seconds));
    json.set("host", host_json(host));
    json.set(
        "transport",
        Json::Str("sdrad-net in-memory loopback, no kernel sockets".into()),
    );
    // This benchmark defines the baseline; it claims no gain.
    json.set("claim", Json::Null);
    json.set("paths", Json::Arr(vec![Json::Str("benchmark".into())]));
    json.set("workloads", workloads);
    json
}

pub fn outcomes_of(report: &Json) -> Option<Vec<Outcome>> {
    report
        .get("workloads")?
        .as_obj()?
        .values()
        .map(Outcome::from_json)
        .collect()
}

/// The benchmark's directory: `run.sh` names it, a bare `cargo run`
/// falls back to where the package was built from.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("SDRAD_BENCH_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// The gated metrics — names, directions, bounds — from the
/// `BENCHMARK.json` beside the benchmark's directory.
pub fn gates(dir: &Path) -> Result<Vec<Gate>, String> {
    let path = dir.join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    json.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|metric| {
            Some(Gate {
                name: metric.get("name")?.as_str()?.to_string(),
                better: match metric.get("better")?.as_str()? {
                    "higher" => Better::Higher,
                    _ => Better::Lower,
                },
                bound: metric.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{}: malformed end_to_end entry", path.display()))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regression,
    /// The fresh run's own spread exceeds the bound: the comparison
    /// cannot tell a regression from noise.
    Unresolved,
}

/// Compares one fresh metric with its baseline under `bound` (a share
/// of the baseline by which it may be worse).
pub fn verdict(baseline: f64, fresh: &Metric, better: Better, bound: f64) -> Verdict {
    let worse_by = match better {
        Better::Lower => (fresh.value - baseline) / baseline.abs(),
        Better::Higher => (baseline - fresh.value) / baseline.abs(),
    };
    if fresh.relative_spread() > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// One row per workload x end-to-end metric. Returns the table and
/// whether anything regressed.
pub fn check_table(baseline: &[Outcome], fresh: &[Outcome], gates: &[Gate]) -> (String, bool) {
    let mut table = format!(
        "{:<12} {:<24} {:>12} {:>12} {:>8} {:>7}  verdict\n",
        "workload", "metric", "baseline", "fresh", "spread", "bound"
    );
    let mut regressed = false;
    for outcome in fresh {
        let Some(before) = baseline.iter().find(|b| b.workload == outcome.workload) else {
            let _ = writeln!(table, "{:<12} not in the baseline", outcome.workload);
            continue;
        };
        for Gate {
            name,
            better,
            bound,
        } in gates
        {
            let (Some(old), Some(new)) = (before.metric(name), outcome.metric(name)) else {
                continue;
            };
            let verdict = verdict(old.value, new, *better, *bound);
            regressed |= verdict == Verdict::Regression;
            let _ = writeln!(
                table,
                "{:<12} {:<24} {:>12.4} {:>12.4} {:>7.1}% {:>6.1}%  {}",
                outcome.workload,
                name,
                old.value,
                new.value,
                new.relative_spread() * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        // `failed_share` may not rise at all.
        let rose =
            outcome.failed * before.attempted.max(1) > before.failed * outcome.attempted.max(1);
        regressed |= rose || !outcome.correct;
        let _ = writeln!(
            table,
            "{:<12} {:<24} {:>12} {:>12} {:>8} {:>7}  {}",
            outcome.workload,
            "failed / attempted",
            format!("{}/{}", before.failed, before.attempted),
            format!("{}/{}", outcome.failed, outcome.attempted),
            "-",
            "0",
            if rose || !outcome.correct {
                "REGRESSION"
            } else {
                "ok"
            }
        );
    }
    (table, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(throughput: &[f64], failed: u64) -> Outcome {
        Outcome {
            workload: "kv_pipeline".into(),
            correct: true,
            attempted: 1_000,
            failed,
            // In name order: that is how metrics come back out of JSON.
            metrics: vec![
                Metric::new("peak_rss_mb", 40.5, "MiB", 1),
                Metric::median_of("throughput_rps", throughput, "1/s", 1_000),
            ],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = outcome(&[100.0, 110.0, 90.0], 0).result_line();
        let json = Json::parse(&line).expect("valid json");
        let keys: Vec<&String> = json.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metric = json.get("metrics").unwrap().get("throughput_rps").unwrap();
        let keys: Vec<&String> = metric.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["unit", "value"]);
        assert!(!line.contains('\n'));
    }

    #[test]
    fn outcomes_survive_the_detail_line_and_the_report() {
        let original = outcome(&[100.0, 110.0, 90.0], 3);
        let line = compact(&original.to_json());
        assert!(!line.contains('\n'));
        let parsed = Outcome::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed, original);
        let host = Host::read();
        let report = report_json(7, 20.0, &host, std::slice::from_ref(&original));
        assert!(matches!(report.get("claim"), Some(Json::Null)));
        let reparsed = Json::parse(&report.pretty()).unwrap();
        assert_eq!(outcomes_of(&reparsed).unwrap(), vec![original]);
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = |value| Metric::median_of("m", &[value * 0.99, value, value * 1.01], "u", 3);
        assert_eq!(
            verdict(100.0, &steady(94.0), Better::Higher, 0.05),
            Verdict::Regression
        );
        assert_eq!(
            verdict(100.0, &steady(96.0), Better::Higher, 0.05),
            Verdict::Ok
        );
        assert_eq!(
            verdict(100.0, &steady(120.0), Better::Higher, 0.05),
            Verdict::Ok
        );
        assert_eq!(
            verdict(100.0, &steady(106.0), Better::Lower, 0.05),
            Verdict::Regression
        );
        assert_eq!(
            verdict(100.0, &steady(80.0), Better::Lower, 0.05),
            Verdict::Ok
        );
        let noisy = Metric::median_of("m", &[80.0, 100.0, 120.0], "u", 3);
        assert_eq!(
            verdict(100.0, &noisy, Better::Lower, 0.05),
            Verdict::Unresolved
        );
    }

    #[test]
    fn check_table_flags_regressions_and_any_rise_in_failures() {
        let bounds = [Gate {
            name: "throughput_rps".into(),
            better: Better::Higher,
            bound: 0.05,
        }];
        let base = [outcome(&[100.0, 101.0, 99.0], 0)];
        let (table, regressed) = check_table(&base, &[outcome(&[99.0, 100.0, 98.0], 0)], &bounds);
        assert!(!regressed, "{table}");
        let (table, regressed) = check_table(&base, &[outcome(&[90.0, 91.0, 89.0], 0)], &bounds);
        assert!(regressed && table.contains("REGRESSION"), "{table}");
        let (_, regressed) = check_table(&base, &[outcome(&[100.0, 101.0, 99.0], 1)], &bounds);
        assert!(regressed, "one failure more than the baseline");
        let (table, _) = check_table(&base, &[outcome(&[60.0, 100.0, 140.0], 0)], &bounds);
        assert!(table.contains("unresolved"), "{table}");
    }
}

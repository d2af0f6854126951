//! The one formatter every experiment summary goes through.
//!
//! Harnesses and examples used to hand-roll their `println!` tables,
//! which meant the human output and any machine-readable artifact could
//! silently drift apart. A [`Report`] is built once — tables, notes and
//! named [`Metric`]s — and *both* renderings come from that single
//! structure: [`Report::render_text`] for the terminal and
//! [`Report::to_json`] for `BENCH_runtime.json`. There is no second
//! code path to fall out of sync.
//!
//! Metrics carry a [`MetricClass`] that tells the CI regression guard
//! how to treat them:
//!
//! * [`Exact`](MetricClass::Exact) — invariants (crash counts, poll
//!   counts, containment ratios). Any drift from the committed baseline
//!   fails the check.
//! * [`Guarded`](MetricClass::Guarded) — dimensionless performance
//!   ratios. A degradation beyond the tolerance (10 % in CI) fails;
//!   improvements and noise inside the band pass.
//! * [`Info`](MetricClass::Info) — absolute timings and counts that
//!   depend on the host. Recorded for trend reading, never gating.
//!
//! The committed artifact is schema-versioned
//! ([`BENCH_SCHEMA_VERSION`]); bumping the schema requires regenerating
//! the baseline in the same change (the check refuses to compare across
//! versions rather than guessing).

use sdrad_telemetry::Json;

use crate::TextTable;

/// Version of the `BENCH_runtime.json` schema this build writes and
/// reads. Comparing across versions is an error, not a best effort.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// How the regression guard treats a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricClass {
    /// An invariant: must equal the baseline exactly.
    Exact,
    /// A performance ratio: degradation beyond tolerance fails.
    Guarded,
    /// Host-dependent context: recorded, never gating.
    Info,
}

impl MetricClass {
    /// The schema string for this class.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            MetricClass::Exact => "exact",
            MetricClass::Guarded => "guarded",
            MetricClass::Info => "info",
        }
    }

    /// Parses the schema string back.
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "exact" => Some(MetricClass::Exact),
            "guarded" => Some(MetricClass::Guarded),
            "info" => Some(MetricClass::Info),
            _ => None,
        }
    }
}

/// One named measurement in a report.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted name, e.g. `e19.recall`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit label (`count`, `ratio`, `ns`, `rps`, `pct`).
    pub unit: String,
    /// How the regression guard treats it.
    pub class: MetricClass,
    /// Direction of *better* for guarded metrics (ignored otherwise).
    pub higher_is_better: bool,
}

/// One rendered table inside a report.
#[derive(Debug, Clone)]
struct Section {
    context: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// A complete experiment summary: tables + notes + metrics, rendered to
/// text and JSON from the same data.
#[derive(Debug, Clone, Default)]
pub struct Report {
    id: String,
    title: String,
    sections: Vec<Section>,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    /// Starts an empty report.
    #[must_use]
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        Report {
            id: id.into(),
            title: title.into(),
            ..Report::default()
        }
    }

    /// The report id (e.g. `e19`).
    #[must_use]
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Opens a new table section; subsequent [`row`](Self::row) calls
    /// append to it.
    pub fn begin_table(&mut self, context: impl Into<String>, columns: &[&str]) -> &mut Self {
        self.sections.push(Section {
            context: context.into(),
            columns: columns.iter().map(|c| (*c).to_string()).collect(),
            rows: Vec::new(),
        });
        self
    }

    /// Appends a row to the most recent table (panics without one — a
    /// construction bug, not a data error).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        self.sections
            .last_mut()
            .expect("row() before begin_table()")
            .rows
            .push(cells.to_vec());
        self
    }

    /// Convenience for `&str` cells.
    pub fn row_str(&mut self, cells: &[&str]) -> &mut Self {
        let owned: Vec<String> = cells.iter().map(|c| (*c).to_string()).collect();
        self.row(&owned)
    }

    /// Adds a free-form conclusion line (rendered with a `->` prefix).
    pub fn note(&mut self, text: impl Into<String>) -> &mut Self {
        self.notes.push(text.into());
        self
    }

    /// Records an exact-invariant metric.
    pub fn exact(&mut self, name: &str, value: f64, unit: &str) -> &mut Self {
        self.push_metric(name, value, unit, MetricClass::Exact, false)
    }

    /// Records a guarded performance ratio.
    pub fn guarded(
        &mut self,
        name: &str,
        value: f64,
        unit: &str,
        higher_is_better: bool,
    ) -> &mut Self {
        self.push_metric(name, value, unit, MetricClass::Guarded, higher_is_better)
    }

    /// Records an informational (never gating) measurement.
    pub fn info(&mut self, name: &str, value: f64, unit: &str) -> &mut Self {
        self.push_metric(name, value, unit, MetricClass::Info, false)
    }

    fn push_metric(
        &mut self,
        name: &str,
        value: f64,
        unit: &str,
        class: MetricClass,
        higher_is_better: bool,
    ) -> &mut Self {
        let name = if self.id.is_empty() {
            name.to_string()
        } else {
            format!("{}.{name}", self.id)
        };
        debug_assert!(
            !self.metrics.iter().any(|m| m.name == name),
            "duplicate metric {name}"
        );
        self.metrics.push(Metric {
            name,
            value,
            unit: unit.to_string(),
            class,
            higher_is_better,
        });
        self
    }

    /// Adopts an already-named metric verbatim (no id prefixing) —
    /// for folding another report's contract metrics into this one.
    pub fn adopt(&mut self, metric: Metric) -> &mut Self {
        debug_assert!(
            !self.metrics.iter().any(|m| m.name == metric.name),
            "duplicate metric {}",
            metric.name
        );
        self.metrics.push(metric);
        self
    }

    /// The metrics recorded so far (names already id-prefixed).
    #[must_use]
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Renders the human summary: every table, then the metric list,
    /// then the notes.
    #[must_use]
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for section in &self.sections {
            let columns: Vec<&str> = section.columns.iter().map(String::as_str).collect();
            let mut table = TextTable::new(section.context.clone(), &columns);
            for row in &section.rows {
                table.row(row);
            }
            let _ = writeln!(out, "{table}");
        }
        if !self.metrics.is_empty() {
            let mut table = TextTable::new(
                format!("{} metrics ({})", self.id, self.title),
                &["metric", "value", "unit", "class"],
            );
            for metric in &self.metrics {
                table.row(&[
                    metric.name.clone(),
                    fmt_value(metric.value),
                    metric.unit.clone(),
                    metric.class.as_str().to_string(),
                ]);
            }
            let _ = writeln!(out, "{table}");
        }
        for note in &self.notes {
            let _ = writeln!(out, "-> {note}");
        }
        out
    }

    /// Prints [`render_text`](Self::render_text) to stdout.
    pub fn print(&self) {
        print!("{}", self.render_text());
    }

    /// The machine rendering of this report (same data as the text).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut doc = Json::object();
        doc.set("id", Json::Str(self.id.clone()))
            .set("title", Json::Str(self.title.clone()))
            .set("metrics", metrics_json(&self.metrics))
            .set(
                "notes",
                Json::Arr(self.notes.iter().cloned().map(Json::Str).collect()),
            );
        let tables: Vec<Json> = self
            .sections
            .iter()
            .map(|s| {
                let mut table = Json::object();
                table
                    .set("context", Json::Str(s.context.clone()))
                    .set(
                        "columns",
                        Json::Arr(s.columns.iter().cloned().map(Json::Str).collect()),
                    )
                    .set(
                        "rows",
                        Json::Arr(
                            s.rows
                                .iter()
                                .map(|r| Json::Arr(r.iter().cloned().map(Json::Str).collect()))
                                .collect(),
                        ),
                    );
                table
            })
            .collect();
        doc.set("tables", Json::Arr(tables));
        doc
    }
}

/// Formats a metric value for the text rendering: integers exactly,
/// floats with enough digits to read.
fn fmt_value(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{value:.0}")
    } else {
        format!("{value:.4}")
    }
}

/// The `value` field: integer-exact when the value is integral, so the
/// committed artifact diffs cleanly and exact metrics compare exactly.
fn value_json(value: f64) -> Json {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    if value >= 0.0 && value.fract() == 0.0 && value < 9_007_199_254_740_992.0 {
        Json::U64(value as u64)
    } else {
        Json::F64(value)
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    let mut obj = Json::object();
    for metric in metrics {
        let mut entry = Json::object();
        entry
            .set("class", Json::Str(metric.class.as_str().to_string()))
            .set("unit", Json::Str(metric.unit.clone()))
            .set("value", value_json(metric.value));
        if metric.class == MetricClass::Guarded {
            entry.set("higher_is_better", Json::Bool(metric.higher_is_better));
        }
        obj.set(&metric.name, entry);
    }
    obj
}

/// Assembles the committed `BENCH_runtime.json` tree from all reports'
/// metrics: `{schema_version, metrics: {name: {class, unit, value}}}`.
#[must_use]
pub fn bench_json(metrics: &[Metric]) -> Json {
    let mut doc = Json::object();
    doc.set("schema_version", Json::U64(BENCH_SCHEMA_VERSION))
        .set("metrics", metrics_json(metrics));
    doc
}

/// Parses a committed baseline back into metrics. Refuses a schema
/// version other than [`BENCH_SCHEMA_VERSION`].
pub fn metrics_from_json(doc: &Json) -> Result<Vec<Metric>, String> {
    let version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("baseline missing schema_version")?;
    if version != BENCH_SCHEMA_VERSION {
        return Err(format!(
            "baseline schema_version {version} != supported {BENCH_SCHEMA_VERSION}; \
             regenerate the baseline with this build"
        ));
    }
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("baseline missing metrics object")?;
    let mut out = Vec::new();
    for (name, entry) in metrics {
        let class = entry
            .get("class")
            .and_then(Json::as_str)
            .and_then(MetricClass::parse)
            .ok_or_else(|| format!("metric {name}: bad class"))?;
        let value = entry
            .get("value")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("metric {name}: bad value"))?;
        let unit = entry
            .get("unit")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let higher_is_better = matches!(entry.get("higher_is_better"), Some(Json::Bool(true)));
        out.push(Metric {
            name: name.clone(),
            value,
            unit,
            class,
            higher_is_better,
        });
    }
    Ok(out)
}

/// The outcome of comparing a fresh run against the committed baseline.
#[derive(Debug, Clone, Default)]
pub struct CheckOutcome {
    /// Metrics compared (present in both sets).
    pub compared: usize,
    /// Hard failures — CI must fail when non-empty.
    pub failures: Vec<String>,
    /// Non-gating observations (new metrics, info drift).
    pub notes: Vec<String>,
}

impl CheckOutcome {
    /// True when the run passes the regression guard.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The CI regression guard: compares a fresh run's metrics against the
/// committed baseline.
///
/// * Every baseline metric must still exist — a vanished metric is a
///   coverage loss and fails.
/// * A metric whose class or guarded direction differs from the
///   baseline's fails: gating follows the baseline, so a demotion or a
///   flipped direction in code would otherwise silently drop or invert
///   a guard.
/// * `exact` metrics must match the baseline bit-for-bit.
/// * `guarded` metrics fail on a relative degradation beyond
///   `tolerance` (direction given by `higher_is_better`); improvements
///   and in-band noise pass.
/// * `info` metrics never fail; drift beyond tolerance is noted.
/// * Metrics present now but absent from the baseline are noted (the
///   baseline wants regenerating), never failed.
#[must_use]
pub fn check(current: &[Metric], baseline: &[Metric], tolerance: f64) -> CheckOutcome {
    let mut outcome = CheckOutcome::default();
    for base in baseline {
        let Some(cur) = current.iter().find(|m| m.name == base.name) else {
            outcome.failures.push(format!(
                "{}: in baseline but not produced by this run",
                base.name
            ));
            continue;
        };
        outcome.compared += 1;
        if cur.class != base.class
            || (base.class == MetricClass::Guarded && cur.higher_is_better != base.higher_is_better)
        {
            outcome.failures.push(format!(
                "{}: class/direction changed ({}, higher_is_better={}) vs baseline ({}, \
                 higher_is_better={}) — regenerate BENCH_runtime.json deliberately if this is \
                 intended",
                base.name,
                cur.class.as_str(),
                cur.higher_is_better,
                base.class.as_str(),
                base.higher_is_better
            ));
            continue;
        }
        match base.class {
            MetricClass::Exact => {
                if cur.value != base.value {
                    outcome.failures.push(format!(
                        "{}: exact invariant drifted: {} != baseline {}",
                        base.name,
                        fmt_value(cur.value),
                        fmt_value(base.value)
                    ));
                }
            }
            MetricClass::Guarded => {
                let degradation = relative_degradation(cur, base);
                if degradation > tolerance {
                    outcome.failures.push(format!(
                        "{}: degraded {:.1}% (tolerance {:.0}%): {} vs baseline {}",
                        base.name,
                        degradation * 100.0,
                        tolerance * 100.0,
                        fmt_value(cur.value),
                        fmt_value(base.value)
                    ));
                }
            }
            MetricClass::Info => {
                let drift =
                    (cur.value - base.value).abs() / base.value.abs().max(f64::MIN_POSITIVE);
                if drift > tolerance {
                    outcome.notes.push(format!(
                        "{}: info drift {:.0}%: {} vs baseline {} (not gating)",
                        base.name,
                        drift * 100.0,
                        fmt_value(cur.value),
                        fmt_value(base.value)
                    ));
                }
            }
        }
    }
    for cur in current {
        if !baseline.iter().any(|m| m.name == cur.name) {
            outcome.notes.push(format!(
                "{}: new metric not in baseline — regenerate BENCH_runtime.json",
                cur.name
            ));
        }
    }
    outcome
}

/// Relative degradation of `cur` vs `base` in the metric's *worse*
/// direction (the baseline's, which [`check`] has already verified the
/// run shares); improvements come back negative. A zero baseline can
/// only degrade when lower-is-better and the value became positive.
fn relative_degradation(cur: &Metric, base: &Metric) -> f64 {
    let scale = base.value.abs();
    if scale <= f64::MIN_POSITIVE {
        return if !base.higher_is_better && cur.value > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
    }
    if base.higher_is_better {
        (base.value - cur.value) / scale
    } else {
        (cur.value - base.value) / scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, value: f64, class: MetricClass, higher: bool) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: "ratio".into(),
            class,
            higher_is_better: higher,
        }
    }

    #[test]
    fn report_text_and_json_come_from_the_same_data() {
        let mut report = Report::new("e99", "demo");
        report
            .begin_table("two cells", &["cell", "value"])
            .row_str(&["a", "1"])
            .row_str(&["b", "2"])
            .exact("crashes", 0.0, "count")
            .guarded("tput_ratio", 1.25, "ratio", true)
            .info("p99_ns", 84_000.0, "ns")
            .note("conclusion line");
        let text = report.render_text();
        assert!(text.contains("e99.crashes"));
        assert!(text.contains("-> conclusion line"));
        let json = report.to_json();
        assert_eq!(json.get("id").and_then(Json::as_str), Some("e99"));
        let metrics = json.get("metrics").and_then(Json::as_obj).unwrap();
        assert!(metrics.contains_key("e99.crashes"));
        assert!(metrics.contains_key("e99.tput_ratio"));
    }

    #[test]
    fn bench_json_roundtrips_through_the_parser() {
        let metrics = vec![
            metric("e1.crashes", 0.0, MetricClass::Exact, false),
            metric("e1.speedup", 1.5, MetricClass::Guarded, true),
            metric("e1.p99_ns", 12345.0, MetricClass::Info, false),
        ];
        let doc = bench_json(&metrics);
        let text = doc.pretty();
        let back = metrics_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.len(), 3);
        for m in &metrics {
            let found = back.iter().find(|b| b.name == m.name).unwrap();
            assert_eq!(found.class, m.class, "{}", m.name);
            assert!((found.value - m.value).abs() < 1e-12);
            assert_eq!(found.higher_is_better, m.higher_is_better);
        }
    }

    #[test]
    fn schema_version_mismatch_is_refused() {
        let mut doc = bench_json(&[]);
        doc.set("schema_version", Json::U64(BENCH_SCHEMA_VERSION + 1));
        assert!(metrics_from_json(&doc).is_err());
    }

    #[test]
    fn exact_metrics_fail_on_any_drift() {
        let base = vec![metric("a.crashes", 0.0, MetricClass::Exact, false)];
        let ok = check(&base.clone(), &base, 0.10);
        assert!(ok.passed());
        let drifted = vec![metric("a.crashes", 1.0, MetricClass::Exact, false)];
        let bad = check(&drifted, &base, 0.10);
        assert_eq!(bad.failures.len(), 1);
    }

    #[test]
    fn guarded_metrics_fail_only_past_tolerance_in_the_worse_direction() {
        let base = vec![metric("a.speedup", 2.0, MetricClass::Guarded, true)];
        // 5% worse: inside the band.
        assert!(check(
            &[metric("a.speedup", 1.9, MetricClass::Guarded, true)],
            &base,
            0.10
        )
        .passed());
        // 25% worse: fails.
        assert!(!check(
            &[metric("a.speedup", 1.5, MetricClass::Guarded, true)],
            &base,
            0.10
        )
        .passed());
        // 50% better: improvements always pass.
        assert!(check(
            &[metric("a.speedup", 3.0, MetricClass::Guarded, true)],
            &base,
            0.10
        )
        .passed());
        // Lower-is-better flips the direction.
        let base_low = vec![metric("a.overhead", 2.0, MetricClass::Guarded, false)];
        assert!(!check(
            &[metric("a.overhead", 2.5, MetricClass::Guarded, false)],
            &base_low,
            0.10
        )
        .passed());
        assert!(check(
            &[metric("a.overhead", 1.0, MetricClass::Guarded, false)],
            &base_low,
            0.10
        )
        .passed());
    }

    #[test]
    fn class_or_direction_change_vs_baseline_fails() {
        let base = vec![metric("a.overhead", 2.0, MetricClass::Guarded, false)];
        // Flipped direction: 3.0 would read as an improvement.
        let flipped = check(
            &[metric("a.overhead", 3.0, MetricClass::Guarded, true)],
            &base,
            0.10,
        );
        assert_eq!(flipped.failures.len(), 1);
        assert!(flipped.failures[0].contains("regenerate"));
        // Demoted to info: the guard would silently stop gating.
        let demoted = check(
            &[metric("a.overhead", 3.0, MetricClass::Info, false)],
            &base,
            0.10,
        );
        assert_eq!(demoted.failures.len(), 1);
        // Direction is meaningless outside guarded metrics.
        let exact = vec![metric("a.crashes", 0.0, MetricClass::Exact, false)];
        assert!(check(
            &[metric("a.crashes", 0.0, MetricClass::Exact, true)],
            &exact,
            0.10
        )
        .passed());
    }

    #[test]
    fn missing_metric_fails_and_new_metric_only_notes() {
        let base = vec![metric("a.x", 1.0, MetricClass::Info, false)];
        let gone = check(&[], &base, 0.10);
        assert!(!gone.passed(), "vanished metric is a coverage loss");
        let extra = check(
            &[
                metric("a.x", 1.0, MetricClass::Info, false),
                metric("a.y", 9.0, MetricClass::Info, false),
            ],
            &base,
            0.10,
        );
        assert!(extra.passed());
        assert_eq!(extra.notes.len(), 1);
    }

    #[test]
    fn info_metrics_never_fail() {
        let base = vec![metric("a.p99", 100.0, MetricClass::Info, false)];
        let wild = check(
            &[metric("a.p99", 100_000.0, MetricClass::Info, false)],
            &base,
            0.10,
        );
        assert!(wild.passed());
        assert_eq!(wild.notes.len(), 1, "big drift is still noted");
    }
}

//! One serializable picture of everything the telemetry layer knows:
//! registry metrics, ring conservation counters, and drained-event
//! tallies.
//!
//! The snapshot is the seam between the in-process observability layer
//! and artifacts on disk: `bench_report` embeds one per scenario in
//! `BENCH_runtime.json`, and the proptests pin the determinism
//! contract — the same inputs serialize to **byte-identical** text
//! (sorted keys, integer-exact numbers, no wall-clock fields).

use std::collections::BTreeMap;

use crate::event::TraceEvent;
use crate::histogram::LatencyHistogram;
use crate::json::Json;
use crate::registry::RegistryReading;
use crate::ring::RingCounters;

/// Version stamped into every serialized snapshot. Bump on any
/// key/semantic change; see README §Observability for the policy.
///
/// v2: rings carry `sampled_out` (deliberate sampler refusals,
/// distinct from overflow `dropped`) and the snapshot carries a
/// top-level `sampled_out_by_kind` tally.
pub const SNAPSHOT_SCHEMA_VERSION: u64 = 2;

/// One ring's counters plus its occupancy at snapshot time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingStat {
    /// The ring's emit/drop/drain counters.
    pub counters: RingCounters,
    /// Events still published but undrained when the snapshot was cut.
    pub in_ring: u64,
}

impl RingStat {
    /// The ring-overflow conservation law at snapshot time.
    #[must_use]
    pub fn conserves(&self) -> bool {
        self.counters.conserves(self.in_ring)
    }
}

/// A point-in-time, serializable picture of the telemetry layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Registry metrics (counters, gauges, histograms) by name.
    pub metrics: RegistryReading,
    /// Flight-recorder ring accounting by ring name
    /// (`worker-N` / `dispatcher` / `control`).
    pub rings: BTreeMap<String, RingStat>,
    /// Tallies of the drained log by [`EventKind`](crate::EventKind)
    /// name (without what a bounded streaming log evicted — see
    /// [`StreamingReport::truncated`](crate::StreamingReport::truncated)).
    pub events_by_kind: BTreeMap<String, u64>,
    /// Sampler refusals by [`EventKind`](crate::EventKind) name —
    /// what the overload-adaptive sampler deliberately hid, so query
    /// answers over the drained log stay honest about their blind spot.
    pub sampled_out_by_kind: BTreeMap<String, u64>,
}

impl TelemetrySnapshot {
    /// A snapshot of just a registry reading.
    #[must_use]
    pub fn from_metrics(metrics: RegistryReading) -> Self {
        TelemetrySnapshot {
            metrics,
            ..Self::default()
        }
    }

    /// Adds one ring's accounting under `name`.
    pub fn add_ring(&mut self, name: &str, counters: RingCounters, in_ring: u64) {
        self.rings
            .insert(name.to_string(), RingStat { counters, in_ring });
    }

    /// Tallies a drained event log into [`events_by_kind`](Self::events_by_kind).
    pub fn tally_events(&mut self, events: &[TraceEvent]) {
        for event in events {
            *self
                .events_by_kind
                .entry(event.kind.name().to_string())
                .or_insert(0) += 1;
        }
    }

    /// Tallies a ring's per-kind sampler refusals (from
    /// [`TraceRing::sampled_out_by_kind`](crate::TraceRing::sampled_out_by_kind))
    /// into [`sampled_out_by_kind`](Self::sampled_out_by_kind).
    pub fn tally_sampled_out(&mut self, by_kind: [u64; 11]) {
        for (kind, count) in crate::EventKind::ALL.iter().zip(by_kind) {
            if count > 0 {
                *self
                    .sampled_out_by_kind
                    .entry(kind.name().to_string())
                    .or_insert(0) += count;
            }
        }
    }

    /// True when every ring satisfies the conservation law.
    #[must_use]
    pub fn conserves(&self) -> bool {
        self.rings.values().all(RingStat::conserves)
    }

    /// Sum of one counter field across all rings.
    #[must_use]
    pub fn total_emitted(&self) -> u64 {
        self.rings.values().map(|r| r.counters.emitted).sum()
    }

    /// Sum of drops across all rings.
    #[must_use]
    pub fn total_dropped(&self) -> u64 {
        self.rings.values().map(|r| r.counters.dropped).sum()
    }

    /// Sum of deliberate sampler refusals across all rings.
    #[must_use]
    pub fn total_sampled_out(&self) -> u64 {
        self.rings.values().map(|r| r.counters.sampled_out).sum()
    }

    /// The snapshot as a JSON tree (sorted keys throughout).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut root = Json::object();
        root.set("schema_version", Json::U64(SNAPSHOT_SCHEMA_VERSION));

        let mut counters = Json::object();
        for (name, value) in &self.metrics.counters {
            counters.set(name, Json::U64(*value));
        }
        let mut gauges = Json::object();
        for (name, value) in &self.metrics.gauges {
            gauges.set(name, Json::U64(*value));
        }
        let mut histograms = Json::object();
        for (name, histogram) in &self.metrics.histograms {
            histograms.set(name, histogram_json(histogram));
        }
        let mut metrics = Json::object();
        metrics
            .set("counters", counters)
            .set("gauges", gauges)
            .set("histograms", histograms);
        root.set("metrics", metrics);

        let mut rings = Json::object();
        for (name, stat) in &self.rings {
            let mut entry = Json::object();
            entry
                .set("emitted", Json::U64(stat.counters.emitted))
                .set("dropped", Json::U64(stat.counters.dropped))
                .set("drained", Json::U64(stat.counters.drained))
                .set("sampled_out", Json::U64(stat.counters.sampled_out))
                .set("in_ring", Json::U64(stat.in_ring));
            rings.set(name, entry);
        }
        root.set("rings", rings);

        let mut kinds = Json::object();
        for (name, count) in &self.events_by_kind {
            kinds.set(name, Json::U64(*count));
        }
        root.set("events_by_kind", kinds);

        let mut sampled = Json::object();
        for (name, count) in &self.sampled_out_by_kind {
            sampled.set(name, Json::U64(*count));
        }
        root.set("sampled_out_by_kind", sampled);
        root
    }

    /// The snapshot serialized to its canonical text form. Equal
    /// snapshots produce byte-identical output — the determinism
    /// contract the proptests pin.
    #[must_use]
    pub fn to_pretty(&self) -> String {
        self.to_json().pretty()
    }
}

/// A histogram's summary statistics as a JSON object. Nanosecond
/// integers, never floats, so equal histograms serialize identically.
fn histogram_json(histogram: &LatencyHistogram) -> Json {
    let mut entry = Json::object();
    entry
        .set("count", Json::U64(histogram.len()))
        .set(
            "mean_ns",
            Json::U64(u64::try_from(histogram.mean().as_nanos()).unwrap_or(u64::MAX)),
        )
        .set(
            "min_ns",
            Json::U64(u64::try_from(histogram.min().as_nanos()).unwrap_or(u64::MAX)),
        )
        .set(
            "max_ns",
            Json::U64(u64::try_from(histogram.max().as_nanos()).unwrap_or(u64::MAX)),
        )
        .set("p50_ns", Json::U64(histogram.quantile(0.50)))
        .set("p99_ns", Json::U64(histogram.quantile(0.99)))
        .set("p999_ns", Json::U64(histogram.quantile(0.999)));
    entry
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Source};

    fn sample_snapshot() -> TelemetrySnapshot {
        let mut metrics = RegistryReading::default();
        metrics.counters.insert("runtime.submitted".into(), 100);
        metrics.counters.insert("control.banned".into(), 2);
        metrics.gauges.insert("runtime.workers".into(), 4);
        let mut histogram = LatencyHistogram::new();
        for v in [100u64, 200, 300] {
            histogram.record(v);
        }
        metrics.histograms.insert("latency.ok".into(), histogram);
        let mut snapshot = TelemetrySnapshot::from_metrics(metrics);
        snapshot.add_ring(
            "worker-0",
            RingCounters {
                emitted: 10,
                dropped: 2,
                drained: 8,
                sampled_out: 4,
            },
            0,
        );
        snapshot.tally_sampled_out([3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]);
        snapshot.tally_events(&[
            TraceEvent {
                stamp: 0,
                kind: EventKind::Submit,
                source: Source::Dispatcher,
                shard: 0,
                client: 1,
                detail: 0,
            },
            TraceEvent {
                stamp: 1,
                kind: EventKind::Submit,
                source: Source::Dispatcher,
                shard: 1,
                client: 2,
                detail: 0,
            },
            TraceEvent {
                stamp: 2,
                kind: EventKind::Ban,
                source: Source::Control,
                shard: 0,
                client: 2,
                detail: 0,
            },
        ]);
        snapshot
    }

    #[test]
    fn equal_snapshots_serialize_byte_identically() {
        assert_eq!(sample_snapshot().to_pretty(), sample_snapshot().to_pretty());
    }

    #[test]
    fn serialized_form_carries_schema_version_and_sorted_keys() {
        let text = sample_snapshot().to_pretty();
        assert!(text.contains("\"schema_version\": 2"));
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(|m| m.get("counters"))
                .and_then(|c| c.get("runtime.submitted"))
                .and_then(Json::as_u64),
            Some(100)
        );
        assert_eq!(
            parsed
                .get("events_by_kind")
                .and_then(|e| e.get("submit"))
                .and_then(Json::as_u64),
            Some(2)
        );
        assert!(
            text.find("\"control.banned\"").unwrap() < text.find("\"runtime.submitted\"").unwrap(),
            "object keys sorted"
        );
    }

    #[test]
    fn conservation_check_spans_all_rings() {
        let mut snapshot = sample_snapshot();
        assert!(snapshot.conserves());
        snapshot.add_ring(
            "worker-1",
            RingCounters {
                emitted: 5,
                dropped: 0,
                drained: 3,
                sampled_out: 0,
            },
            1, // 5 != 3 + 0 + 1
        );
        assert!(!snapshot.conserves());
        assert_eq!(snapshot.total_emitted(), 15);
        assert_eq!(snapshot.total_dropped(), 2);
        assert_eq!(snapshot.total_sampled_out(), 4);
    }

    #[test]
    fn sampled_out_is_distinguished_from_drops_in_serialized_form() {
        let text = sample_snapshot().to_pretty();
        let parsed = Json::parse(&text).unwrap();
        let ring = parsed.get("rings").and_then(|r| r.get("worker-0")).unwrap();
        assert_eq!(ring.get("dropped").and_then(Json::as_u64), Some(2));
        assert_eq!(ring.get("sampled_out").and_then(Json::as_u64), Some(4));
        assert_eq!(
            parsed
                .get("sampled_out_by_kind")
                .and_then(|s| s.get("submit"))
                .and_then(Json::as_u64),
            Some(3)
        );
        assert_eq!(
            parsed
                .get("sampled_out_by_kind")
                .and_then(|s| s.get("wake"))
                .and_then(Json::as_u64),
            Some(1)
        );
    }
}

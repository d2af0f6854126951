//! The flight recorder's per-ring books, cut once every ring has been
//! drained: each ring's conservation counters and what it still held.
//!
//! The snapshot keeps only what the rings themselves count. The drained
//! events are the [`TraceLog`](crate::TraceLog) beside it, and the
//! per-kind sampler refusals stay on each ring
//! ([`TraceRing::sampled_out_by_kind`](crate::TraceRing::sampled_out_by_kind)).

use std::collections::BTreeMap;

use crate::ring::RingCounters;

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

/// The ring books of the telemetry layer at one point in time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Flight-recorder ring accounting by ring name
    /// (`worker-N` / `dispatcher` / `control`).
    pub rings: BTreeMap<String, RingStat>,
}

impl TelemetrySnapshot {
    /// Adds one ring's accounting under `name`.
    pub fn add_ring(&mut self, name: &str, counters: RingCounters, in_ring: u64) {
        self.rings
            .insert(name.to_string(), RingStat { counters, in_ring });
    }

    /// True when every ring satisfies the conservation law.
    #[must_use]
    pub fn conserves(&self) -> bool {
        self.rings.values().all(RingStat::conserves)
    }

    /// Sum of emits across all rings.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_check_spans_all_rings() {
        let mut snapshot = TelemetrySnapshot::default();
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
}

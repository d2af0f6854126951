//! Heap accounting.

use std::fmt;

/// Counters describing the lifetime activity and current occupancy of a
/// domain's private heap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Successful allocations over the heap's lifetime.
    pub allocs: u64,
    /// Successful frees over the heap's lifetime.
    pub frees: u64,
    /// Blocks currently live.
    pub live_blocks: u64,
    /// Payload bytes currently live.
    pub live_bytes: u64,
    /// High-water mark of live payload bytes.
    pub peak_bytes: u64,
    /// Individual canary words verified (two per checked block).
    pub canary_checks: u64,
    /// Faults this heap detected (canary corruption, double free, quota).
    pub faults_detected: u64,
    /// Times the heap has been discarded (rewound).
    pub discards: u64,
}

impl HeapStats {
    /// Records an allocation of `bytes` payload bytes.
    pub(crate) fn on_alloc(&mut self, bytes: usize) {
        self.allocs += 1;
        self.live_blocks += 1;
        self.live_bytes += bytes as u64;
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
    }

    /// Records a free of `bytes` payload bytes.
    pub(crate) fn on_free(&mut self, bytes: usize) {
        self.frees += 1;
        self.live_blocks -= 1;
        self.live_bytes -= bytes as u64;
    }

    /// Records a discard: live state drops to zero, lifetime counters stay.
    pub(crate) fn on_discard(&mut self) {
        self.discards += 1;
        self.live_blocks = 0;
        self.live_bytes = 0;
    }
}

impl fmt::Display for HeapStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "allocs={} frees={} live={}blk/{}B peak={}B canaries={} faults={} discards={}",
            self.allocs,
            self.frees,
            self.live_blocks,
            self.live_bytes,
            self.peak_bytes,
            self.canary_checks,
            self.faults_detected,
            self.discards
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle_balances() {
        let mut stats = HeapStats::default();
        stats.on_alloc(100);
        stats.on_alloc(50);
        assert_eq!(stats.live_blocks, 2);
        assert_eq!(stats.live_bytes, 150);
        assert_eq!(stats.peak_bytes, 150);
        stats.on_free(100);
        assert_eq!(stats.live_blocks, 1);
        assert_eq!(stats.live_bytes, 50);
        assert_eq!(stats.peak_bytes, 150, "peak is sticky");
    }

    #[test]
    fn discard_zeroes_live_but_keeps_lifetime() {
        let mut stats = HeapStats::default();
        stats.on_alloc(10);
        stats.on_discard();
        assert_eq!(stats.live_blocks, 0);
        assert_eq!(stats.live_bytes, 0);
        assert_eq!(stats.allocs, 1);
        assert_eq!(stats.discards, 1);
    }

    #[test]
    fn display_mentions_counters() {
        let stats = HeapStats::default();
        assert!(stats.to_string().contains("allocs=0"));
    }
}

//! The generator's latency histogram.
//!
//! Log-linear like `sdrad_telemetry::LatencyHistogram`, but with 128
//! sub-buckets per octave (≤0.8 % bucket width) and rank interpolation
//! inside the bucket: the runtime's own histogram reports bucket
//! midpoints, so two runs whose medians fall in one 3 % bucket read
//! identically — too coarse to hold a 10 % regression bound against.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Samples above ~18 minutes land in the last bucket.
const MAX_NS: u64 = (1 << 40) - 1;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    len: u64,
    max_ns: u64,
}

fn index_of(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros() - SUB_BITS;
    ((u64::from(exp) + 1) * SUB + ((ns >> exp) - SUB)) as usize
}

/// Lowest value and width of a bucket.
fn bounds_of(index: usize) -> (u64, u64) {
    let index = index as u64;
    if index < SUB {
        return (index, 1);
    }
    let exp = index / SUB - 1;
    ((SUB + index % SUB) << exp, 1 << exp)
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; index_of(MAX_NS) + 1],
            len: 0,
            max_ns: 0,
        }
    }
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[index_of(ns.min(MAX_NS))] += 1;
        self.len += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    pub fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.len += other.len;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// The `q`-quantile in nanoseconds, interpolated by rank inside its
    /// bucket; 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.len as f64;
        let mut seen = 0.0;
        for (index, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let count = count as f64;
            if seen + count >= target {
                let (low, width) = bounds_of(index);
                let inside = ((target - seen) / count).clamp(0.0, 1.0);
                return (low as f64 + inside * width as f64).min(self.max_ns as f64);
            }
            seen += count;
        }
        self.max_ns as f64
    }

    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e3
    }
}

/// Median of a small set of per-segment (or per-batch) values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut expected_low = 0;
        for index in 0..=index_of(MAX_NS) {
            let (low, width) = bounds_of(index);
            assert_eq!(low, expected_low, "bucket {index}");
            assert_eq!(index_of(low), index);
            assert_eq!(index_of(low + width - 1), index);
            expected_low = low + width;
        }
    }

    #[test]
    fn quantiles_stay_within_a_bucket_of_the_exact_answer() {
        let mut hist = Hist::default();
        let samples: Vec<u64> = (1..=10_000u64).map(|i| i * 37).collect();
        for &s in &samples {
            hist.record(s);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = samples[(q * samples.len() as f64) as usize - 1] as f64;
            let got = hist.quantile_ns(q);
            assert!((got - exact).abs() / exact < 0.01, "q{q}: {got} vs {exact}");
        }
        assert_eq!(hist.quantile_ns(1.0), 370_000.0);
    }

    #[test]
    fn interpolation_separates_medians_inside_one_bucket() {
        // Both medians fall in the [4096, 4128) bucket: midpoint
        // reporting would read them as the same number, rank
        // interpolation still orders them by the mass below the bucket.
        let mut fewer_fast = Hist::default();
        let mut more_fast = Hist::default();
        for i in 0..1000 {
            fewer_fast.record(if i < 300 { 100 } else { 4100 });
            more_fast.record(if i < 450 { 100 } else { 4100 });
        }
        let (slow, fast) = (fewer_fast.quantile_ns(0.5), more_fast.quantile_ns(0.5));
        assert!((4096.0..4128.0).contains(&slow) && (4096.0..4128.0).contains(&fast));
        assert!(slow > fast);
    }

    #[test]
    fn merge_adds_streams() {
        let mut a = Hist::default();
        let mut b = Hist::default();
        a.record(100);
        b.record(300);
        b.record(1 << 50);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.max_ns(), 1 << 50);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}

//! A log-bucketed latency histogram with percentile queries.
//!
//! One implementation serves every consumer that reports latency
//! distributions — the benchmark experiments (E15/E16) and the query
//! service's stats surface — so their percentiles are comparable by
//! construction.
//!
//! Buckets are logarithmic with 8 linear sub-buckets per octave: values
//! `0..8` are recorded exactly, larger values land in the bucket whose
//! lower bound is at most 12.5% below the true value. Recording is O(1)
//! with no allocation; merging is element-wise, which is what lets each
//! worker thread keep a private histogram and the stats reader fold them.

/// Linear sub-buckets per octave, as a power of two.
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave.
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count: exact values `0..SUB`, then `SUB` sub-buckets for
/// each of the `64 - SUB_BITS` octaves a `u64` can occupy.
// narrowing: compile-time constant far below usize::MAX.
const BUCKETS: usize = (SUB + (64 - SUB_BITS) as u64 * SUB) as usize;

/// A mergeable latency histogram over `u64` nanosecond samples.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
}

/// Bucket index of a sample.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB {
        // narrowing: v < SUB (a small constant) here.
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS
    let sub = (v >> (msb - SUB_BITS)) & (SUB - 1);
    // narrowing: bucket index is bounded by BUCKETS, a small constant.
    (SUB + (msb - SUB_BITS) as u64 * SUB + sub) as usize
}

/// Lower bound of a bucket — the value [`LatencyHistogram::percentile_ns`]
/// reports, so reported percentiles never exceed the true sample.
#[inline]
fn bucket_lower(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB {
        return i;
    }
    let octave = (i - SUB) / SUB;
    let sub = (i - SUB) % SUB;
    (SUB + sub) << octave
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[bucket_of(ns)] += 1;
        self.count += 1;
        self.sum += ns as u128;
    }

    /// Folds `other`'s samples into this histogram.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-quantile (`p` in `[0, 1]`), reported as the lower bound of
    /// the containing bucket: at most the true sample value and within
    /// 12.5% below it. Returns 0 when empty.
    fn percentile_ns(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_lower(i);
            }
        }
        unreachable!("the buckets hold all {} samples", self.count)
    }

    /// Median.
    pub fn p50_ns(&self) -> u64 {
        self.percentile_ns(0.50)
    }

    /// 95th percentile.
    pub fn p95_ns(&self) -> u64 {
        self.percentile_ns(0.95)
    }

    /// 99th percentile.
    pub fn p99_ns(&self) -> u64 {
        self.percentile_ns(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_u64_range() {
        // Lower bounds are strictly increasing and invert bucket_of.
        for i in 1..BUCKETS {
            assert!(bucket_lower(i) > bucket_lower(i - 1), "bucket {i}");
            assert_eq!(bucket_of(bucket_lower(i)), i, "bucket {i}");
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(3);
        }
        assert_eq!(h.p50_ns(), 3);
        assert_eq!(h.p99_ns(), 3);
        assert_eq!(h.mean_ns(), 3.0);
    }

    #[test]
    fn percentiles_on_a_known_uniform_distribution() {
        // 1..=1000 once each: true p50 = 500, p95 = 950, p99 = 990.
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        for (p, truth) in [(0.50, 500u64), (0.95, 950), (0.99, 990)] {
            let got = h.percentile_ns(p);
            assert!(
                got <= truth && got as f64 >= truth as f64 * 0.875,
                "p{p}: got {got}, truth {truth}"
            );
        }
        assert!((h.mean_ns() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn percentiles_on_a_bimodal_distribution() {
        // 99 fast samples and 1 slow one: p50 fast, p99+ reaches the tail.
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(1_000);
        }
        h.record(1_000_000);
        assert!(h.p50_ns() <= 1_000 && h.p50_ns() >= 875);
        assert!(h.percentile_ns(1.0) >= 875_000);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for v in 0..500u64 {
            a.record(v * 7);
            whole.record(v * 7);
        }
        for v in 0..500u64 {
            b.record(v * 131 + 9);
            whole.record(v * 131 + 9);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.p50_ns(), whole.p50_ns());
        assert_eq!(a.p99_ns(), whole.p99_ns());
        assert!((a.mean_ns() - whole.mean_ns()).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50_ns(), 0);
        assert_eq!(h.mean_ns(), 0.0);
    }
}

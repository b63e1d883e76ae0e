//! Log₂-bucketed latency histograms.
//!
//! The paper's evaluation (Section 7) reports throughput, latency, and
//! memory of competing plans; a sum-only latency counter hides the tail
//! behaviour those comparisons hinge on. [`LatencyHistogram`] keeps a fixed
//! array of power-of-two buckets — nanosecond value `v` lands in bucket
//! `⌈log₂ v⌉` — so recording is two instructions and a slot increment,
//! merging is element-wise addition, and percentiles come from a cumulative
//! walk. Bucketing trades resolution for a fixed footprint: a reported
//! percentile is the *upper bound* of the bucket containing that rank, i.e.
//! at most 2× the true value, which is ample for p50/p95/p99 comparisons
//! across plans.

/// Number of log₂ buckets. Bucket 0 holds exact zeros; bucket `k ≥ 1`
/// holds `[2^(k-1), 2^k)`; the last bucket additionally absorbs everything
/// at or above `2^(BUCKETS-2)` (≈ 4.6 minutes in nanoseconds) —
/// recording saturates instead of overflowing.
pub const BUCKETS: usize = 40;

/// A fixed-size log₂ histogram of `u64` samples (nanoseconds by
/// convention), with saturating totals and mergeable buckets.
#[derive(Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

/// Bucket index of a sample value.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `k`; the last bucket is unbounded.
fn upper_bound(k: usize) -> u64 {
    if k == 0 {
        0
    } else if k >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` samples of the same value (e.g. `n` matches completed
    /// by one event share that event's detection latency). Totals
    /// saturate instead of wrapping.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_of(v)] = self.counts[bucket_of(v)].saturating_add(n);
        self.count = self.count.saturating_add(n);
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
    }

    /// Element-wise merge of another histogram into `self`. Buckets are
    /// position-aligned by construction (the bucketization is global), so
    /// merging shard- or engine-local histograms loses nothing.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Whether no sample was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean recorded value; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-quantile (`0 < p ≤ 1`) as the upper bound of the bucket
    /// holding rank `⌈p·count⌉`; 0 when empty. `u64::MAX` means the rank
    /// fell into the unbounded overflow bucket.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = ((p * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return upper_bound(k);
            }
        }
        upper_bound(BUCKETS - 1)
    }

    /// Median upper bound.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 95th-percentile upper bound.
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// `[p50, p95, p99]` in one call (the bench tables' column triple).
    pub fn percentiles(&self) -> [u64; 3] {
        [self.p50(), self.p95(), self.p99()]
    }

    /// Cumulative Prometheus-style buckets: `(le, cumulative_count)`
    /// pairs with strictly increasing `le`, trimmed after the last
    /// non-empty bucket, always ending with `(+Inf, count)`.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        if let Some(last) = self.counts.iter().rposition(|&c| c > 0) {
            let highest = last.min(BUCKETS - 2);
            let mut cum = 0u64;
            for k in 0..=highest {
                cum = cum.saturating_add(self.counts[k]);
                out.push((upper_bound(k) as f64, cum));
            }
        }
        out.push((f64::INFINITY, self.count));
        out
    }
}

/// Compact single-token rendering (`hist(n=…, sum=…, p50=…, p95=…,
/// p99=…)`), so a histogram-valued field reads as one `name: value` pair
/// in its parent struct's `{:?}` output.
impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hist(n={}, sum={}, p50={}, p95={}, p99={})",
            self.count,
            self.sum,
            self.p50(),
            self.p95(),
            self.p99()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentiles(), [0, 0, 0]);
        assert_eq!(h.cumulative_buckets(), vec![(f64::INFINITY, 0)]);
    }

    #[test]
    fn merging_empties_is_identity() {
        let mut a = LatencyHistogram::new();
        a.record(100);
        a.record(1_000);
        let before = a.clone();
        a.merge(&LatencyHistogram::new());
        assert_eq!(a, before);
        let mut empty = LatencyHistogram::new();
        empty.merge(&before);
        assert_eq!(empty, before);
        let mut both = LatencyHistogram::new();
        both.merge(&LatencyHistogram::new());
        assert!(both.is_empty());
    }

    #[test]
    fn single_sample_percentiles_hit_its_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(700); // bucket [512, 1024) → upper bound 1023
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 700);
        for p in [0.01, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.percentile(p), 1023, "p={p}");
        }
    }

    #[test]
    fn zero_samples_land_in_bucket_zero() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.cumulative_buckets()[0], (0.0, 1));
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(upper_bound(2), 3);
        // Everything at or above 2^(BUCKETS-2) saturates into the last
        // bucket, whose upper bound is unbounded.
        assert_eq!(bucket_of(1 << (BUCKETS - 2)), BUCKETS - 1);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn overflow_saturates_without_panicking() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX); // sum saturates
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.p99(), u64::MAX, "overflow bucket is unbounded");
        // record_n with huge n saturates the count too.
        h.record_n(1, u64::MAX);
        assert_eq!(h.count(), u64::MAX);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = LatencyHistogram::new();
        a.record_n(333, 4);
        let mut b = LatencyHistogram::new();
        for _ in 0..4 {
            b.record(333);
        }
        assert_eq!(a, b);
        a.record_n(1, 0); // n = 0 is a no-op
        assert_eq!(a, b);
    }

    #[test]
    fn percentiles_are_monotone_in_p() {
        let mut h = LatencyHistogram::new();
        for v in [1u64, 5, 5, 80, 3000, 3000, 3000, 100_000] {
            h.record(v);
        }
        let [p50, p95, p99] = h.percentiles();
        assert!(p50 <= p95 && p95 <= p99);
        // Rank ⌈0.5·8⌉ = 4 is the 80 sample → bucket [64, 128).
        assert_eq!(p50, 127);
        assert!(p95 >= 100_000, "tail rank reaches the 100k sample");
    }

    #[test]
    fn cumulative_buckets_end_in_inf_total() {
        let mut h = LatencyHistogram::new();
        h.record(9);
        h.record(70);
        let buckets = h.cumulative_buckets();
        let (last_le, last_cum) = *buckets.last().unwrap();
        assert!(last_le.is_infinite());
        assert_eq!(last_cum, h.count());
        for w in buckets.windows(2) {
            assert!(w[0].0 < w[1].0, "le bounds strictly increase");
            assert!(w[0].1 <= w[1].1, "cumulative counts are monotone");
        }
    }

    // Quantiles of a merge are bounded by the worse input: for any p,
    // `merge(a, b).percentile(p) <= max(a.percentile(p), b.percentile(p))`.
    // Holds exactly at bucket granularity because both sides bucketize
    // identically.
    proptest! {
        #[test]
        fn merge_percentile_bounded_by_max_input(
            xs in proptest::collection::vec(0u64..1_000_000_000, 1..64),
            ys in proptest::collection::vec(0u64..1_000_000_000, 1..64),
            p in 0.01f64..1.0,
        ) {
            let mut a = LatencyHistogram::new();
            for &x in &xs { a.record(x); }
            let mut b = LatencyHistogram::new();
            for &y in &ys { b.record(y); }
            let mut m = a.clone();
            m.merge(&b);
            prop_assert_eq!(m.count(), a.count() + b.count());
            prop_assert_eq!(m.sum(), a.sum() + b.sum());
            prop_assert!(m.percentile(p) <= a.percentile(p).max(b.percentile(p)));
        }
    }

    // A reported percentile never undershoots the true quantile of the
    // recorded samples (the bucket upper bound is conservative).
    proptest! {
        #[test]
        fn percentile_upper_bounds_true_quantile(
            xs in proptest::collection::vec(0u64..1_000_000_000, 1..64),
            p in 0.01f64..1.0,
        ) {
            let mut h = LatencyHistogram::new();
            for &x in &xs { h.record(x); }
            let mut xs = xs.clone();
            xs.sort_unstable();
            let rank = ((p * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
            prop_assert!(h.percentile(p) >= xs[rank - 1]);
        }
    }
}

//! Log-linear histogram: 16 linear sub-buckets per power of two, so a
//! reported percentile is within 1/32 of the recorded value (bucket
//! width ≤ 1/16 of its lower bound, and the midpoint is reported).
//! Values below 16 are exact. A per-call rep records millions of
//! durations; a sorted sample would have to keep every one.

const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// A histogram of `u64` samples (nanoseconds, in this benchmark).
#[derive(Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

fn index_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // >= SUB_BITS
    let shift = e - SUB_BITS;
    let sub = (v >> shift) as usize - SUB;
    SUB + shift as usize * SUB + sub
}

/// `(lower bound, width)` of bucket `idx`.
fn bounds_of(idx: usize) -> (u64, u64) {
    if idx < SUB {
        return (idx as u64, 1);
    }
    let shift = ((idx - SUB) / SUB) as u32;
    let sub = ((idx - SUB) % SUB) as u64;
    ((SUB as u64 + sub) << shift, 1 << shift)
}

impl Histogram {
    pub fn record(&mut self, v: u64) {
        self.buckets[index_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` in `[0, 1]`: the midpoint of the bucket
    /// holding the sample of rank `ceil(q * count)`; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (lo, width) = bounds_of(idx);
                return if width == 1 {
                    lo as f64
                } else {
                    lo as f64 + width as f64 / 2.0
                };
            }
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::default();
        for v in 0..16 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(0.5), 7.0);
        assert_eq!(h.quantile(1.0), 15.0);
        assert_eq!((h.count, h.sum(), h.max()), (16, 120, 15));
    }

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut expected_lo = 0u64;
        for idx in 0..BUCKETS {
            let (lo, width) = bounds_of(idx);
            assert_eq!(lo, expected_lo, "bucket {idx}");
            assert_eq!(index_of(lo), idx);
            assert_eq!(index_of(lo + (width - 1)), idx);
            expected_lo = lo.wrapping_add(width);
        }
        assert_eq!(expected_lo, 0, "the last bucket ends at 2^64");
        assert_eq!(index_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_stay_within_a_thirty_second() {
        // 1..=100_000 ns, uniformly: quantile q is q * 100_000.
        let mut h = Histogram::default();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let exact = q * 100_000.0;
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() <= exact / 32.0 + 1.0,
                "q{q}: got {got}, exact {exact}"
            );
        }
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut all) = (
            Histogram::default(),
            Histogram::default(),
            Histogram::default(),
        );
        for v in (0..5_000u64).map(|i| i * i % 77_777) {
            if v % 2 == 0 { &mut a } else { &mut b }.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.buckets, all.buckets);
        assert_eq!((a.count, a.sum, a.max), (all.count, all.sum, all.max));
        assert_eq!(a.quantile(0.99), all.quantile(0.99));
    }
}

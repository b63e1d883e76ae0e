//! Order statistics over the few values a run produces per metric.

/// `(q1, median, q3)` by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), the one the driver
/// applies to a metric's runs, so spreads quoted here are comparable.
/// One value is its own three quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// What is printed for an end-to-end metric: its value — the best of
/// its reps — with the spread of the reps around it.
///
/// The best, not the median: on the shared reference machine whatever
/// disturbs a rep only ever slows it, so the fastest rep is the one
/// closest to the program's own speed. Over sets of ten runs the best
/// rep's spread was half to two thirds of the median rep's.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub best: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64], higher_is_better: bool) -> Summary {
        let (q1, median, q3) = quartiles(values);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Summary {
            best: if higher_is_better { max } else { min },
            median,
            q1,
            q3,
            min,
            max,
            n: values.len(),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.q3 - self.q1) / self.median.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0]), (10.0, 20.0, 40.0));
        // statistics.quantiles([3, 9], n=4) == [1.5, 6.0, 10.5]
        assert_eq!(quartiles(&[3.0, 9.0]), (1.5, 6.0, 10.5));
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0], true);
        assert_eq!((s.min, s.max, s.n, s.best), (1.0, 5.0, 5, 5.0));
        assert_eq!(s.spread(), 1.0);
        let one = Summary::of(&[7.0], false);
        assert_eq!((one.best, one.spread()), (7.0, 0.0));
    }
}

//! Order statistics over timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default *exclusive* method), because that is what the acceptance driver
//! computes run-to-run spreads with; using the same rule here means the
//! spreads this tool prints are the ones the driver will see.

/// Summary of one sample set. Times are in whatever unit the samples were.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    /// The smallest sample: the statistic timings are *gated* on. The
    /// program under test is deterministic and single-threaded, so on a
    /// shared host whatever else runs can only add time; the minimum over
    /// a run stays with the program while the median follows the
    /// neighbours' duty cycle (measured spreads are in `README.md`).
    pub min: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)`: the highest percentile that still has at
    /// least ten samples beyond it. Present only with ≥ 100 samples — a
    /// tail read off fewer is one or two outliers, not a percentile.
    pub tail: Option<(f64, f64)>,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Value at 1-based fractional rank `pos` of an ascending slice. The
/// bracketing pair is clamped to the ends but the fraction is not, so small
/// `n` extrapolates exactly as the exclusive method does.
fn at_rank(sorted: &[f64], pos: f64) -> f64 {
    let n = sorted.len();
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let frac = pos - j as f64;
    sorted[j - 1] + frac * (sorted[j] - sorted[j - 1])
}

/// Median of `samples` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    assert!(!s.is_empty(), "median of no samples");
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Median, quartiles and tail percentile of `samples`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    let n = s.len();
    assert!(n > 0, "summary of no samples");
    let med = median(&s);
    let (q1, q3) = if n < 2 {
        (med, med)
    } else {
        let m = (n + 1) as f64;
        (at_rank(&s, m / 4.0), at_rank(&s, 3.0 * m / 4.0))
    };
    // s[n - 11] is the largest sample with exactly ten samples above it.
    let tail = (n >= 100).then(|| (100.0 * (n - 10) as f64 / n as f64, s[n - 11]));
    Summary {
        n,
        min: s[0],
        median: med,
        q1,
        q3,
        tail,
    }
}

/// Geometric mean.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.n), (1.0, 10));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // One sample: no spread to report.
        let s = summarize(&[5.0]);
        assert_eq!((s.q1, s.median, s.q3), (5.0, 5.0, 5.0));
    }

    #[test]
    fn tail_needs_a_hundred_samples_and_ten_beyond() {
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(summarize(&v).tail, None);
        // 100 samples 0..99: p90 is 89 — exactly 90..99 lie beyond it.
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(summarize(&v).tail, Some((90.0, 89.0)));
        // 1000 samples: the rule reaches p99.
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let (p, x) = summarize(&v).tail.unwrap();
        assert_eq!((p, x), (99.0, 989.0));
        assert_eq!(v.iter().filter(|&&s| s > x).count(), 10);
    }

    #[test]
    fn geomean_basic() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}

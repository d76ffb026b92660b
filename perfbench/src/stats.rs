//! Order statistics for timing samples.

/// Samples a reported tail percentile must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Sorts a copy of `values` (NaN-free by construction: every sample is
/// a measured duration or count).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `p ∈ (0, 100]` of an ascending slice; `0.0`
/// for an empty one.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).clamp(1, n)
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The percentile a tail latency is reported at for `n` samples: the
/// highest of p50…p99 that still has at least [`TAIL_BEYOND`] samples
/// above its rank, or p50 when even the median has fewer.
pub fn tail_percentile(n: usize) -> u32 {
    (50..=99)
        .rev()
        .find(|&p| n >= TAIL_BEYOND && n - rank(n, p) >= TAIL_BEYOND)
        .unwrap_or(50)
}

/// Quartiles `(q1, median, q3)` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`; a single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(999), 98);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(2000), 99);
        // Too few samples for any tail above the median.
        assert_eq!(tail_percentile(20), 50);
        assert_eq!(tail_percentile(5), 50);
        for n in [30usize, 57, 100, 999, 1000, 4321] {
            let p = tail_percentile(n);
            if p > 50 {
                assert!(n - rank(n, p) >= TAIL_BEYOND, "n={n} p={p}");
            }
            if p < 99 {
                assert!(
                    n - rank(n, p + 1) < TAIL_BEYOND,
                    "n={n}: p{} also fits",
                    p + 1
                );
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50), 50.0);
        assert_eq!(percentile(&s, 99), 99.0);
        assert_eq!(percentile(&s, 100), 100.0);
        assert_eq!(percentile(&[], 50), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}

//! Order statistics shared by the measurement loops and `compare`.

/// Median of `values` (mean of the two middle elements for an even
/// count). `NaN` for an empty slice, so a missing sample set surfaces as
/// a `null` in the result rather than a plausible number.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Interquartile mean: the mean of the values left after dropping the
/// lowest and the highest quarter. Like the median it ignores spikes;
/// unlike the median it moves smoothly when the sample has two clusters
/// and the middle falls between them.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let middle = &v[v.len() / 4..v.len() - v.len() / 4];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// gives them — the rule the acceptance driver applies to ten runs.
/// `None` below two values, where Python raises.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// subtraction keeps a product that is a whole number in exact arithmetic
/// (99.9 % of 10 000) from being rounded up a rank by its binary form.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The tail percentiles the harness knows how to name, ascending.
pub const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it among `n` — a tail read off fewer than ten samples
/// is one outlier, not a distribution. `None` when even the median does
/// not qualify.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| n >= rank(n.max(1), p) + 10)
        .fold(None, |_, p| Some(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_from_each_end() {
        // One spike among eight: gone. Two clusters: the middle of both.
        assert_eq!(
            interquartile_mean(&[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 90.0]),
            1.0
        );
        assert_eq!(
            interquartile_mean(&[2.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0]),
            2.5
        );
        assert_eq!(interquartile_mean(&[5.0]), 5.0);
        assert_eq!(interquartile_mean(&[4.0, 8.0, 6.0]), 6.0);
        assert!(interquartile_mean(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 15.0, 22.5)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]),
            Some((1.5, 4.0, 12.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 19 samples: rank(50) = 10, 9 beyond — not even the median.
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        // p90 of 100 has exactly 10 beyond; p95 only 5.
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 100.0);
        assert_eq!(percentile_sorted(&v, 95.0), 190.0);
        assert_eq!(percentile_sorted(&v, 100.0), 200.0);
    }
}

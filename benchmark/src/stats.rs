//! Order statistics for the report: medians and tail percentiles.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples
//! lie beyond it — below that the tail value is one or two outliers,
//! not a percentile. With `n` samples that admits `p50` from 20
//! samples, `p90` from 100 and `p99` from 1 000.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
/// Sorts in place. Panics on an empty slice: every caller has at
/// least one sample by construction.
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of an ascending-sorted
/// slice: the smallest sample with at least `p` % of the samples at or
/// below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// Whether `n` samples support reporting percentile `p` under the
/// "at least ten samples beyond" rule.
pub fn supports(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

/// Percentile `p` of `sorted` when the rule admits it, else the
/// largest sample (what little tail there is), so a fixed-name metric
/// is always defined. The flag says whether the rule held.
pub fn percentile_or_max(sorted: &[f64], p: f64) -> (f64, bool) {
    if supports(sorted.len(), p) {
        (percentile_sorted(sorted, p), true)
    } else {
        (*sorted.last().expect("non-empty"), false)
    }
}

/// Median of the first and last tenth of a sample sequence *in arrival
/// order*, as `(first, last)`: the drift of a latency over a run.
pub fn decile_medians(in_order: &[f64]) -> (f64, f64) {
    let k = (in_order.len() / 10).max(1);
    let mut first = in_order[..k].to_vec();
    let mut last = in_order[in_order.len() - k..].to_vec();
    (median(&mut first), median(&mut last))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&mut [3.0]), 3.0);
        assert_eq!(median(&mut [5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&xs, 50.0), 50.0);
        assert_eq!(percentile_sorted(&xs, 90.0), 90.0);
        assert_eq!(percentile_sorted(&xs, 99.0), 99.0);
        assert_eq!(percentile_sorted(&xs, 100.0), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 of 100 samples leaves exactly 10 beyond; of 99, only 9.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        // p99 needs 1 000 samples, p50 needs 20.
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        assert!(!supports(0, 50.0));
    }

    #[test]
    fn unsupported_percentile_falls_back_to_max() {
        let xs = [1.0, 2.0, 9.0];
        assert_eq!(percentile_or_max(&xs, 90.0), (9.0, false));
        let many: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile_or_max(&many, 90.0), (180.0, true));
    }

    #[test]
    fn decile_medians_follow_arrival_order() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(decile_medians(&xs), (4.5, 94.5));
        assert_eq!(decile_medians(&[2.0, 8.0]), (2.0, 8.0));
    }
}

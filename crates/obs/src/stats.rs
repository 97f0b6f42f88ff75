//! Shared order statistics: the one nearest-rank percentile definition
//! used across the workspace.
//!
//! The paper reports "confidence interval corresponding to 5% and 95%
//! percentiles" (§6.1); both the exact sample percentile in the trial
//! runner and the bucketed [`crate::Histogram`] quantiles implement the
//! *nearest-rank* definition — the smallest value with at least `⌈q·n⌉`
//! samples at or below it. This module is the single source of that rank
//! arithmetic so the two read-outs can never drift apart again.

/// 1-based nearest rank of the `q`-quantile in a sample of size `n`:
/// `⌈q·n⌉` clamped into `[1, n]`.
///
/// # Panics
/// Panics if `n == 0` or `q` is outside `[0, 1]`.
#[inline]
pub fn nearest_rank(q: f64, n: u64) -> u64 {
    assert!(n > 0, "nearest rank of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    ((q * n as f64).ceil() as u64).clamp(1, n)
}

/// Nearest-rank percentile of an unsorted sample (`q` in `[0, 1]`).
///
/// # Panics
/// Panics on an empty sample or `q` outside `[0, 1]`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

/// Nearest-rank percentile of an **already sorted** sample (`q` in
/// `[0, 1]`). Callers taking several percentiles of one sample should
/// sort once and use this instead of paying a clone + sort per rank.
///
/// # Panics
/// Panics on an empty sample or `q` outside `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(
        sorted.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()),
        "percentile_sorted needs a sorted sample"
    );
    let rank = nearest_rank(q, sorted.len() as u64) as usize;
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        assert_eq!(nearest_rank(0.0, 5), 1);
        assert_eq!(nearest_rank(0.05, 5), 1);
        assert_eq!(nearest_rank(0.5, 5), 3);
        assert_eq!(nearest_rank(0.95, 5), 5);
        assert_eq!(nearest_rank(1.0, 5), 5);
        assert_eq!(nearest_rank(0.5, 1), 1);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn nearest_rank_rejects_empty() {
        let _ = nearest_rank(0.5, 0);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn nearest_rank_rejects_bad_quantile() {
        let _ = nearest_rank(1.5, 4);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [3.0, 1.0, 4.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.05), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.95), 5.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
    }

    #[test]
    fn percentile_sorted_matches_percentile() {
        let unsorted = [9.0, 2.0, 7.0, 7.0, 1.0, 4.0];
        let mut sorted = unsorted.to_vec();
        sorted.sort_by(f64::total_cmp);
        for q in [0.0, 0.05, 0.33, 0.5, 0.95, 1.0] {
            assert_eq!(percentile_sorted(&sorted, q), percentile(&unsorted, q));
        }
        assert_eq!(percentile_sorted(&[7.0], 0.5), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn percentile_rejects_empty() {
        let _ = percentile(&[], 0.5);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn percentile_sorted_rejects_empty() {
        let _ = percentile_sorted(&[], 0.5);
    }
}

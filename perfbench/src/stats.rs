//! Percentiles under the sample-count rule, on top of
//! `spmv_analysis::stats`.

use spmv_analysis::stats::percentile_sorted;

/// Samples a percentile needs strictly beyond it before it is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Whether `n` samples leave at least [`MIN_TAIL_SAMPLES`] beyond the
/// `p`-th quantile (`p` in `[0, 1)`): samples ranked above `⌈p·n⌉`.
pub fn tail_supported(n: usize, p: f64) -> bool {
    let at = (p * n as f64).ceil() as usize;
    n.saturating_sub(at) >= MIN_TAIL_SAMPLES
}

/// The `p`-th percentile of ascending-sorted samples, or `None` when
/// too few samples lie beyond it to report it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    tail_supported(sorted.len(), p).then(|| percentile_sorted(sorted, p))
}

/// Median of unsorted samples (sorts a copy); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(percentile_sorted(&v, 0.5))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(1000, 0.99));
        assert!(tail_supported(5000, 0.99));
    }

    #[test]
    fn median_needs_twenty_samples() {
        assert!(!tail_supported(19, 0.5));
        assert!(tail_supported(20, 0.5));
    }

    #[test]
    fn percentile_refuses_unsupported_tails() {
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<f64> = (0..1001).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.5), Some(500.0));
    }

    #[test]
    fn median_of_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}

//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark prints is one of the measured values
//! (nearest-rank method), never an interpolation or a histogram bucket
//! edge; the callers print it next to the number of samples.

/// The `p`-quantile (`0.0 ..= 1.0`) of `samples` by the nearest-rank
/// rule: the `ceil(p·n)`-th smallest sample (the smallest for `p = 0`).
/// `None` for an empty set or a `p` outside `[0, 1]`.
#[must_use]
pub fn quantile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=1.0).contains(&p) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// The median (lower median for an even count) of `samples`.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_sample() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), Some(3.0));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(5.0));
        // ceil(0.99 * 5) = 5 → the largest sample.
        assert_eq!(quantile(&xs, 0.99), Some(5.0));
        // ceil(0.2 * 5) = 1 → the smallest.
        assert_eq!(quantile(&xs, 0.2), Some(1.0));
        assert_eq!(quantile(&xs, 0.21), Some(2.0));
    }

    #[test]
    fn even_count_takes_the_lower_median() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn p99_is_the_rank_ceil_099_n_value() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), Some(99.0));
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), Some(990.0));
    }

    #[test]
    fn values_off_bucket_edges_survive() {
        // A log2 histogram would report 2^20 - 1 ns for all of these.
        let xs = [600_000.0, 610_000.0, 620_000.0];
        assert_eq!(median(&xs), Some(610_000.0));
    }

    #[test]
    fn empty_and_out_of_range_give_none() {
        assert_eq!(median(&[]), None);
        assert_eq!(quantile(&[1.0], 1.5), None);
        assert_eq!(quantile(&[1.0], -0.1), None);
        assert_eq!(median(&[7.0]), Some(7.0));
    }
}

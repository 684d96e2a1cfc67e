//! Percentiles and self-time arithmetic shared by the wire and traced
//! passes.
//!
//! Percentiles use the nearest-rank rule: the `q`-quantile of `n`
//! samples is the `ceil(q·n)`-th smallest. A tail percentile is only
//! reported when at least [`MIN_BEYOND`] samples lie strictly beyond its
//! rank, so a p99 needs at least 1000 samples.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile `q` of `values` (any order). `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// Median by nearest rank (the lower middle for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Nearest-rank tail quantile `q`, refused unless at least
/// [`MIN_BEYOND`] samples lie beyond its rank.
pub fn tail(values: &[f64], q: f64) -> Result<f64, String> {
    let n = values.len();
    let beyond = n.saturating_sub(rank(n.max(1), q));
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} needs {MIN_BEYOND} samples beyond it, {n} samples leave {beyond}",
            q * 100.0
        ));
    }
    quantile(values, q).ok_or_else(|| "no samples".into())
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Completions in each whole second `[k, k + 1)` of a window that
/// lasted `window_s`, given completion times in seconds since its start.
/// A trailing part second is left out.
pub fn per_second_counts(done_s: &[f64], window_s: f64) -> Vec<f64> {
    let mut counts = vec![0.0; window_s.max(0.0) as usize];
    for &t in done_s {
        if let Some(c) = counts.get_mut(t.max(0.0) as usize) {
            *c += 1.0;
        }
    }
    counts
}

/// Per-request self time: each parent span minus the spans of its
/// same-input child calls (request `i` of every child slice belongs to
/// request `i` of the parent).
pub fn self_times(parent: &[f64], children: &[&[f64]]) -> Vec<f64> {
    for child in children {
        assert_eq!(child.len(), parent.len(), "child spans cover every request");
    }
    parent
        .iter()
        .enumerate()
        .map(|(i, p)| p - children.iter().map(|c| c[i]).sum::<f64>())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(5.0));
        assert_eq!(quantile(&v, 0.9), Some(9.0));
        assert_eq!(quantile(&v, 0.91), Some(10.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(10.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[4.1, 3.9, 4.5]), Some(4.1));
        assert_eq!(median(&[2.0, 1.0]), Some(1.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(tail(&v, 0.99).is_err(), "999 samples leave 9 beyond p99");
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        // Rank 990 of 1..=1000 is the value 989; ranks 991..=1000 lie beyond.
        assert_eq!(tail(&v, 0.99), Ok(989.0));
        assert!(tail(&[], 0.99).is_err());
    }

    #[test]
    fn self_time_subtracts_children_per_request() {
        let parent = [10.0, 20.0, 30.0];
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 4.0, 4.0];
        assert_eq!(self_times(&parent, &[&a, &b]), vec![5.0, 14.0, 23.0]);
        assert_eq!(self_times(&parent, &[]), parent.to_vec());
    }

    #[test]
    #[should_panic(expected = "child spans cover every request")]
    fn self_time_rejects_misaligned_children() {
        self_times(&[1.0, 2.0], &[&[1.0]]);
    }

    #[test]
    fn per_second_counts_drop_the_part_second() {
        let done = [0.1, 0.9, 1.0, 1.5, 1.99, 2.2, 2.7];
        assert_eq!(per_second_counts(&done, 2.8), vec![2.0, 3.0]);
        assert_eq!(per_second_counts(&done, 0.5), Vec::<f64>::new());
        assert_eq!(per_second_counts(&[], 2.0), vec![0.0, 0.0]);
    }

    #[test]
    fn mean_of_nothing_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}

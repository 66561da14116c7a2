//! Order statistics and the metric-name grammar.

/// The median of `samples` (the mean of the two middle values for an even
/// count); `NaN` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `q`-quantile of `samples` by the nearest-rank rule: the smallest
/// sample with at least `q · n` samples at or below it.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let sorted = sorted(samples);
    sorted[nearest_rank(sorted.len(), q)]
}

/// The tail percentiles a timing may be reported at, highest first.
const TAIL_QUANTILES: [f64; 3] = [0.999, 0.99, 0.9];

/// How many samples must lie beyond a reported tail percentile.
const MIN_BEYOND_TAIL: usize = 10;

/// The highest tail quantile of [`TAIL_QUANTILES`] with at least
/// [`MIN_BEYOND_TAIL`] of `n` samples beyond it, or `None` when even p90 has
/// fewer (fewer than 100 samples).
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_QUANTILES.into_iter().find(|&q| n > 0 && n - 1 - nearest_rank(n, q) >= MIN_BEYOND_TAIL)
}

/// The metric name of a tail quantile: `0.9` → `p90`, `0.999` → `p99.9`.
pub fn percentile_label(q: f64) -> String {
    let pct = format!("{:.1}", q * 100.0);
    format!("p{}", pct.trim_end_matches(".0"))
}

/// The 0-based index of the nearest-rank `q`-quantile among `n` sorted samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Consecutive operations per block of [`block_rate`].
const BLOCK: usize = 10;

/// Sustained rate of work: `work_per_op` times the operations of each full
/// block of [`BLOCK`] consecutive operations, divided by the block's summed
/// `durations`; the median over blocks. A slow block (a stall, a noisy
/// neighbour) moves it less than it moves the mean over the whole loop.
/// With fewer than one full block, the rate over all operations.
pub fn block_rate(durations: &[f64], work_per_op: f64) -> f64 {
    let rate = |block: &[f64]| work_per_op * block.len() as f64 / block.iter().sum::<f64>();
    if durations.len() < BLOCK {
        return rate(durations);
    }
    median(&durations.chunks_exact(BLOCK).map(rate).collect::<Vec<_>>())
}

/// Whether `name` is a valid metric name: one to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let allowed = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(allowed)
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
    fn nearest_rank_quantiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), 50.0);
        assert_eq!(quantile(&samples, 0.9), 90.0);
        assert_eq!(quantile(&samples, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(0), None);
        assert_eq!(tail_quantile(99), None);
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        for n in [100, 150, 1_000, 4_321, 10_000] {
            let q = tail_quantile(n).expect("enough samples");
            let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let cut = quantile(&samples, q);
            let beyond = samples.iter().filter(|&&s| s > cut).count();
            assert!(beyond >= MIN_BEYOND_TAIL, "n={n}: only {beyond} beyond {q}");
        }
    }

    #[test]
    fn block_rate_is_the_median_over_full_blocks() {
        // Three blocks of ten 0.1 s ops, one of them stalled to 0.2 s per
        // op; the partial fourth block is ignored.
        let mut durations = vec![0.1; 30];
        durations[10..20].fill(0.2);
        durations.extend([5.0; 3]);
        assert!((block_rate(&durations, 2.0) - 20.0).abs() < 1e-9);
        assert!((block_rate(&[0.5, 1.5], 3.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_labels() {
        assert_eq!(percentile_label(0.9), "p90");
        assert_eq!(percentile_label(0.99), "p99");
        assert_eq!(percentile_label(0.999), "p99.9");
    }

    #[test]
    fn metric_name_grammar() {
        for good in ["setup_s", "csd.pass_p50_s", "ztrain.step_eff", "a", "9-x", "x.y-z_0"] {
            assert!(valid_metric_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".hidden", "_x", "-x", "has space", "µs", "a/b", "a:b", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}

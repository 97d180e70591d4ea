//! Exact order statistics. The emulator's `LatencyHistogram::percentile`
//! is log2-bucketed (a ±√2 answer), so every percentile the benchmark
//! reports is computed here from the raw samples.

/// Samples that must lie beyond a reported percentile's rank for the
/// percentile to be trusted (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

/// Exact nearest-rank percentile of `sorted` (ascending) at
/// `per_mille / 1000`: the smallest sample with at least that share of
/// the samples at or below it. Returns the value and how many samples
/// lie beyond its rank.
///
/// # Errors
///
/// Fails when fewer than [`MIN_BEYOND`] samples lie beyond the rank: the
/// sample does not support a percentile that high.
pub fn nearest_rank(sorted: &[u64], per_mille: u64) -> Result<(u64, usize), String> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples must be sorted");
    assert!((1..=1000).contains(&per_mille), "percentile out of range");
    let n = sorted.len();
    let rank = (n as u64 * per_mille).div_ceil(1000).max(1) as usize;
    let beyond = n.saturating_sub(rank);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has only {beyond} beyond its rank (need {MIN_BEYOND})",
            per_mille as f64 / 10.0
        ));
    }
    Ok((sorted[rank - 1], beyond))
}

/// Mean of the slowest `per_mille / 1000` of `sorted` (ascending): a tail
/// statistic that, unlike a percentile of quantized simulated times, moves
/// with every sample in the tail and never sits on a knee of the
/// distribution.
pub fn worst_mean(sorted: &[u64], per_mille: usize) -> f64 {
    let k = (sorted.len() * per_mille).div_ceil(1000).clamp(1, sorted.len());
    sorted[sorted.len() - k..].iter().sum::<u64>() as f64 / k as f64
}

/// Mean of the fastest `per_mille / 1000` of `sorted` (ascending).
pub fn body_mean(sorted: &[u64], per_mille: usize) -> f64 {
    let k = (sorted.len() * per_mille / 1000).clamp(1, sorted.len());
    sorted[..k].iter().sum::<u64>() as f64 / k as f64
}

/// First quartile, median and third quartile, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the one the driver applies to
/// this benchmark's outputs). Fewer than two values have no spread: all
/// three are the value itself.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 1, "quartiles of nothing");
    if n == 1 {
        return [v[0]; 3];
    }
    [1, 2, 3].map(|i| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    })
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(nearest_rank(&s, 500), Ok((500, 500)));
        assert_eq!(nearest_rank(&s, 990), Ok((990, 10)));
        // 20 000 samples: p99.9 is the 19 980th, with 20 beyond.
        let s: Vec<u64> = (0..20_000).map(|i| i * 3).collect();
        assert_eq!(nearest_rank(&s, 999), Ok((19_979 * 3, 20)));
        // Ties resolve to the tied value, not an interpolation.
        let s = [vec![7u64; 90], vec![9u64; 30]].concat();
        assert_eq!(nearest_rank(&s, 750), Ok((7, 30)));
        assert_eq!(nearest_rank(&s, 760), Ok((9, 28)));
    }

    #[test]
    fn nearest_rank_refuses_a_percentile_the_sample_cannot_support() {
        let s: Vec<u64> = (1..=1000).collect();
        assert!(nearest_rank(&s, 991).is_err(), "9 beyond");
        assert!(nearest_rank(&s, 999).is_err(), "1 beyond");
        assert!(nearest_rank(&[], 500).is_err());
        let s: Vec<u64> = (1..=10_000).collect();
        assert_eq!(nearest_rank(&s, 999), Ok((9990, 10)), "exactly ten beyond is enough");
    }

    #[test]
    fn worst_and_body_means_split_the_sample() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(worst_mean(&s, 10), 995.5, "the ten slowest of a thousand");
        assert_eq!(body_mean(&s, 950), 475.5, "the 950 fastest");
        assert_eq!(worst_mean(&s, 1000), 500.5);
        assert_eq!(body_mean(&s, 1000), 500.5);
        assert_eq!(worst_mean(&[7], 10), 7.0, "never an empty slice");
        assert_eq!(body_mean(&[7, 9], 100), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        assert_eq!(median(&[5.0, 1.0, 9.0, 3.0]), 4.0);
    }
}

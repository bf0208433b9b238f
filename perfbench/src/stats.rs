//! Order statistics shared by every workload.
//!
//! Percentiles are ceil-rank order statistics, the definition
//! `pwnd serve-bench` uses: the sample at rank ⌈n·p⌉ (clamped to
//! `1..=n`) of the ascending sample. A percentile is *reportable* only
//! when at least [`MIN_BEYOND`] samples lie above that rank, so a tail
//! figure is never read off a handful of points.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Ceil-rank percentile `p` (in `0..=1`) of the ascending `sorted`
/// sample. Panics on an empty sample: every caller measures first.
pub fn ceil_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// The one-based ceil rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    ((n as f64 * p).ceil() as usize).clamp(1, n)
}

/// Ceil-rank percentile `p`, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie above its rank.
pub fn reportable(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || sorted.len() - rank(sorted.len(), p) < MIN_BEYOND {
        None
    } else {
        Some(ceil_rank(sorted, p))
    }
}

/// Sort `values` ascending in place and return them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The ceil-rank median of `values` (any order).
pub fn median(values: &[f64]) -> f64 {
    ceil_rank(&sorted(values.to_vec()), 0.5)
}

/// Ceil-rank percentile `p` of a log2-bucketed histogram, reported as
/// the bucket's upper bound: bucket `b` holds values of bit width `b`,
/// i.e. `[2^(b-1), 2^b)`, so the bound is `2^b - 1` (0 for bucket 0).
pub fn bucket_percentile(buckets: &[(u32, u64)], p: f64) -> Option<u64> {
    let n: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if n == 0 {
        return None;
    }
    let want = ((n as f64 * p).ceil() as u64).clamp(1, n);
    let mut seen = 0;
    for &(b, c) in buckets {
        seen += c;
        if seen >= want {
            return Some(if b == 0 { 0 } else { (1u64 << b.min(63)) - 1 });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `pwnd serve-bench` percentile, restated from
    /// `pwnd_serve::loadgen::run` as the oracle.
    fn serve_bench_pct(latencies: &[u64], p: f64) -> u64 {
        let rank = ((latencies.len() as f64) * p).ceil() as usize;
        latencies[rank.clamp(1, latencies.len()) - 1]
    }

    #[test]
    fn ceil_rank_percentiles_agree_with_serve_bench() {
        for n in 1..=250u64 {
            // A skewed, non-uniform sample so neighbouring ranks differ.
            let ints: Vec<u64> = (0..n).map(|i| i * i + 3 * i).collect();
            let floats: Vec<f64> = ints.iter().map(|&v| v as f64).collect();
            for p in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(
                    ceil_rank(&floats, p),
                    serve_bench_pct(&ints, p) as f64,
                    "n={n} p={p}"
                );
            }
        }
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        // rank ⌈1000·0.99⌉ = 990 leaves exactly 10 above; ⌈999·0.99⌉ =
        // 990 leaves 9.
        assert_eq!(reportable(&s, 0.99), Some(990.0));
        assert_eq!(reportable(&s[..999], 0.99), None);
        assert_eq!(reportable(&s[..20], 0.5), Some(10.0));
        assert_eq!(reportable(&s[..19], 0.5), None);
        assert_eq!(reportable(&[], 0.5), None);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn bucket_percentile_reports_the_bucket_upper_bound() {
        // 90 values in [4, 8) (bucket 3), 10 in [64, 128) (bucket 7).
        let b = [(3, 90), (7, 10)];
        assert_eq!(bucket_percentile(&b, 0.5), Some(7));
        assert_eq!(bucket_percentile(&b, 0.9), Some(7));
        assert_eq!(bucket_percentile(&b, 0.99), Some(127));
        assert_eq!(bucket_percentile(&[(0, 4)], 0.5), Some(0));
        assert_eq!(bucket_percentile(&[], 0.5), None);
    }
}

//! Percentiles and run-to-run spread.

/// Percentiles a report may quote, highest first.
const REPORTABLE: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// 1-based nearest rank of percentile `p` (resolved to 0.1) among `n`
/// samples. Integer arithmetic: in floating point `0.9 * 100` is
/// 90.000…01, whose ceiling would skip a rank.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with
/// at least `p`% of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The highest reportable percentile that has at least ten of `n` samples
/// beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    REPORTABLE
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= 10)
}

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads printed here match an external check of the same runs.
///
/// # Panics
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len() as i64;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1i64..) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (d[j as usize - 1], d[j as usize]);
        *slot = (lo * (4.0 - delta) + hi * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median: the run-to-run spread a
/// metric's regression bound must exceed.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let one_to_hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&one_to_hundred, 50.0), 50);
        assert_eq!(percentile(&one_to_hundred, 90.0), 90);
        assert_eq!(percentile(&one_to_hundred, 99.0), 99);
        assert_eq!(percentile(&one_to_hundred, 100.0), 100);
        assert_eq!(percentile(&[10, 20, 30, 40], 50.0), 20);
        assert_eq!(percentile(&[10, 20, 30, 40], 95.0), 40);
        assert_eq!(percentile(&[7], 0.0), 7);
        assert_eq!(percentile(&[7], 90.0), 7);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        // Median of 20 is rank 10, with exactly ten samples beyond it.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        // p90 of 100 is rank 90: ten beyond.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        let odd = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quartiles(&odd), [1.5, 3.0, 4.5]);
        assert_eq!(median(&odd), 3.0);
        assert_eq!(median(&v), 5.5);
        assert!((relative_iqr(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}

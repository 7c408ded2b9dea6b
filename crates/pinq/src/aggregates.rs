//! Noisy aggregate computations.
//!
//! These free functions implement the statistics behind the engine's
//! aggregations, already calibrated for sensitivity but *without* budget
//! accounting — [`crate::queryable::Queryable`] charges the budget and then
//! delegates here. Keeping them separate makes the math independently
//! testable and reusable (the toolkit's estimators call some of them
//! directly on already-released values).
//!
//! Calibration (paper Table 1):
//!
//! | aggregate | mechanism | noise std |
//! |---|---|---|
//! | count | `n + Lap(1/ε)` | `√2/ε` |
//! | sum (values clamped to `[-1,1]`) | `Σ + Lap(1/ε)` | `√2/ε` |
//! | average (values clamped to `[-1,1]`) | `mean + Lap(2/(εn))` | `√8/(εn)` |
//! | median | exponential mechanism over candidate grid | splits off by `≈√2/ε` ranks |

use crate::error::{check_epsilon, Error, Result};
use crate::mechanisms::{
    add_laplace_noise, exponential_mechanism_index, geometric_noise, laplace_noise,
};
use crate::rng::NoiseSource;

/// Noisy count: `n + Lap(1/ε)`.
pub fn noisy_count(noise: &NoiseSource, n: usize, eps: f64) -> Result<f64> {
    check_epsilon(eps)?;
    Ok(n as f64 + laplace_noise(noise, 1.0 / eps))
}

/// Noisy counts of many parts at one ε: `nᵢ + Lap(1/ε)` for each count, in
/// order. The same releases as one [`noisy_count`] per count, drawn under
/// one hold of the noise lock.
pub fn noisy_counts(noise: &NoiseSource, counts: &[usize], eps: f64) -> Result<Vec<f64>> {
    check_epsilon(eps)?;
    let mut out: Vec<f64> = counts.iter().map(|&n| n as f64).collect();
    add_laplace_noise(noise, 1.0 / eps, &mut out);
    Ok(out)
}

/// Noisy integer count via the geometric mechanism: `n + Geom(e^{-ε})`.
/// Clamped below at zero, since a negative count is never plausible and the
/// clamp is a post-processing step that cannot harm privacy.
pub fn noisy_count_int(noise: &NoiseSource, n: usize, eps: f64) -> Result<i64> {
    check_epsilon(eps)?;
    Ok((n as i64 + geometric_noise(noise, eps)).max(0))
}

/// Clamp a value into `[lo, hi]`.
#[inline]
pub fn clamp(x: f64, lo: f64, hi: f64) -> f64 {
    x.min(hi).max(lo)
}

/// Noisy sum of values clamped to `[-bound, bound]`:
/// `Σ clamp(x) + Lap(bound/ε)`. With `bound = 1` this is PINQ's `NoisySum`.
pub fn noisy_sum<'a>(
    noise: &NoiseSource,
    values: impl Iterator<Item = f64> + 'a,
    bound: f64,
    eps: f64,
) -> Result<f64> {
    check_epsilon(eps)?;
    if !(bound.is_finite() && bound > 0.0) {
        return Err(Error::InvalidRange {
            lo: -bound,
            hi: bound,
        });
    }
    let total: f64 = values.map(|v| clamp(v, -bound, bound)).sum();
    Ok(total + laplace_noise(noise, bound / eps))
}

/// Noisy average of values clamped to `[-1, 1]`:
/// `mean + Lap(2/(εn))` — noise std `√8/(εn)` as in Table 1.
///
/// An empty input yields pure noise at scale `2/ε` (as if `n = 1`), so that
/// emptiness itself is not revealed exactly.
pub fn noisy_average<'a>(
    noise: &NoiseSource,
    values: impl Iterator<Item = f64> + 'a,
    eps: f64,
) -> Result<f64> {
    check_epsilon(eps)?;
    let mut n = 0usize;
    let mut total = 0.0;
    for v in values {
        n += 1;
        total += clamp(v, -1.0, 1.0);
    }
    let denom = n.max(1) as f64;
    let mean = total / denom;
    Ok(mean + laplace_noise(noise, 2.0 / (eps * denom)))
}

/// Noisy vector sum via the vector Laplace mechanism.
///
/// Each record contributes a `dims`-dimensional vector whose L1 norm is
/// clamped to `l1_bound` (vectors over the bound are scaled down onto the
/// ball, preserving direction). The query's L1 sensitivity is then
/// `l1_bound`, and adding independent `Lap(l1_bound/ε)` noise to every
/// coordinate gives ε-differential privacy *for the whole vector at once* —
/// the aggregation PINQ's k-means uses to move all `d` coordinates of a
/// centroid for a single ε charge.
pub fn noisy_vector_sum<'a>(
    noise: &NoiseSource,
    vectors: impl Iterator<Item = Vec<f64>> + 'a,
    dims: usize,
    l1_bound: f64,
    eps: f64,
) -> Result<Vec<f64>> {
    check_epsilon(eps)?;
    if !(l1_bound.is_finite() && l1_bound > 0.0) {
        return Err(Error::InvalidRange {
            lo: 0.0,
            hi: l1_bound,
        });
    }
    let mut total = vec![0.0f64; dims];
    for v in vectors {
        // Non-finite coordinates (NaN, ±∞) are treated as 0: a hostile
        // record must not be able to poison the release — a NaN output
        // would itself reveal the record's presence.
        let sanitized = |x: &f64| if x.is_finite() { *x } else { 0.0 };
        let norm: f64 = v.iter().take(dims).map(|x| sanitized(x).abs()).sum();
        let scale = if norm > l1_bound {
            l1_bound / norm
        } else {
            1.0
        };
        for (t, x) in total.iter_mut().zip(v.iter()) {
            *t += sanitized(x) * scale;
        }
    }
    for t in total.iter_mut() {
        *t += laplace_noise(noise, l1_bound / eps);
    }
    Ok(total)
}

/// Noisy median via the exponential mechanism.
///
/// Candidates are an evenly spaced grid of `buckets + 1` points over
/// `[lo, hi]`. Each candidate `c` is scored by `-|#{x < c} − n/2|`, a
/// sensitivity-1 score (adding/removing one record shifts any rank count by
/// at most one). The selected candidate splits the data into halves whose
/// sizes differ by `O(1/ε)` with high probability.
pub fn noisy_median(
    noise: &NoiseSource,
    values: &[f64],
    lo: f64,
    hi: f64,
    buckets: usize,
    eps: f64,
) -> Result<f64> {
    check_epsilon(eps)?;
    if lo >= hi || !lo.is_finite() || !hi.is_finite() {
        return Err(Error::InvalidRange { lo, hi });
    }
    if buckets == 0 {
        return Err(Error::EmptyCandidates);
    }
    let n = values.len() as f64;
    let mut sorted: Vec<f64> = values.iter().map(|&v| clamp(v, lo, hi)).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("clamped values are comparable"));
    let step = (hi - lo) / buckets as f64;
    let candidates: Vec<f64> = (0..=buckets).map(|i| lo + i as f64 * step).collect();
    let scores: Vec<f64> = candidates
        .iter()
        .map(|&c| {
            let below = sorted.partition_point(|&v| v < c) as f64;
            -(below - n / 2.0).abs()
        })
        .collect();
    let idx = exponential_mechanism_index(noise, &scores, eps, 1.0)?;
    Ok(candidates[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_noise_has_expected_spread() {
        let src = NoiseSource::seeded(71);
        let trials = 50_000;
        let eps = 0.1;
        let xs: Vec<f64> = (0..trials)
            .map(|_| noisy_count(&src, 1000, eps).unwrap() - 1000.0)
            .collect();
        let mean = xs.iter().sum::<f64>() / trials as f64;
        let std = (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / trials as f64).sqrt();
        let expected = std::f64::consts::SQRT_2 / eps; // Table 1
        assert!(mean.abs() < 0.5);
        assert!(
            (std - expected).abs() / expected < 0.05,
            "{std} vs {expected}"
        );
    }

    #[test]
    fn paper_example_error_scale() {
        // §2.3: at eps=0.1, "the expected error for this analysis is ±10".
        // Mean |Lap(1/0.1)| = 10.
        let src = NoiseSource::seeded(73);
        let trials = 50_000;
        let mae: f64 = (0..trials)
            .map(|_| (noisy_count(&src, 120, 0.1).unwrap() - 120.0).abs())
            .sum::<f64>()
            / trials as f64;
        assert!((mae - 10.0).abs() < 0.5, "mean abs error {mae}");
    }

    #[test]
    fn sum_clamps_outliers() {
        let src = NoiseSource::seeded(79);
        // One adversarial record of 1e9 must contribute at most `bound`.
        let vals = [0.5, 0.5, 1e9];
        let mut total = 0.0;
        let trials = 2000;
        for _ in 0..trials {
            total += noisy_sum(&src, vals.iter().cloned(), 1.0, 5.0).unwrap();
        }
        let mean = total / trials as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn sum_with_larger_bound_scales_noise() {
        let src = NoiseSource::seeded(83);
        let trials = 50_000;
        let eps = 1.0;
        let bound = 10.0;
        let xs: Vec<f64> = (0..trials)
            .map(|_| noisy_sum(&src, std::iter::empty(), bound, eps).unwrap())
            .collect();
        let std = (xs.iter().map(|x| x * x).sum::<f64>() / trials as f64).sqrt();
        let expected = std::f64::consts::SQRT_2 * bound / eps;
        assert!((std - expected).abs() / expected < 0.05);
    }

    #[test]
    fn average_noise_shrinks_with_n() {
        let src = NoiseSource::seeded(89);
        let eps = 1.0;
        let small: Vec<f64> = vec![0.0; 10];
        let large: Vec<f64> = vec![0.0; 10_000];
        let spread = |vals: &[f64]| {
            let trials = 5000;
            (0..trials)
                .map(|_| {
                    noisy_average(&src, vals.iter().cloned(), eps)
                        .unwrap()
                        .abs()
                })
                .sum::<f64>()
                / trials as f64
        };
        let s_small = spread(&small);
        let s_large = spread(&large);
        assert!(
            s_small > 100.0 * s_large,
            "small-n spread {s_small} vs large-n {s_large}"
        );
    }

    #[test]
    fn average_of_empty_input_is_pure_noise() {
        let src = NoiseSource::seeded(97);
        let v = noisy_average(&src, std::iter::empty(), 1.0).unwrap();
        assert!(v.is_finite());
    }

    #[test]
    fn median_lands_near_true_median() {
        let src = NoiseSource::seeded(101);
        let values: Vec<f64> = (0..1001).map(|i| i as f64).collect(); // median 500
        let mut total = 0.0;
        let trials = 200;
        for _ in 0..trials {
            total += noisy_median(&src, &values, 0.0, 1000.0, 200, 1.0).unwrap();
        }
        let mean = total / trials as f64;
        assert!((mean - 500.0).abs() < 25.0, "median estimate {mean}");
    }

    #[test]
    fn median_split_quality_matches_table1() {
        // Table 1: the returned value partitions the input into sets whose
        // sizes differ by approximately sqrt(2)/eps ranks.
        let src = NoiseSource::seeded(103);
        let values: Vec<f64> = (0..2000).map(|i| i as f64 / 2.0).collect();
        let eps = 0.5;
        let trials = 400;
        let mut rank_gap = 0.0;
        for _ in 0..trials {
            let m = noisy_median(&src, &values, 0.0, 1000.0, 500, eps).unwrap();
            let below = values.iter().filter(|&&v| v < m).count() as f64;
            rank_gap += (below - 1000.0).abs();
        }
        rank_gap /= trials as f64;
        // Loose check: same order of magnitude as sqrt(2)/eps ≈ 2.8 ranks
        // (grid discretization adds up to one grid cell = 4 ranks here).
        assert!(rank_gap < 30.0, "rank gap {rank_gap}");
    }

    #[test]
    fn median_rejects_bad_ranges() {
        let src = NoiseSource::seeded(107);
        assert!(noisy_median(&src, &[1.0], 5.0, 1.0, 10, 1.0).is_err());
        assert!(noisy_median(&src, &[1.0], 0.0, 1.0, 0, 1.0).is_err());
    }

    #[test]
    fn vector_sum_clamps_onto_l1_ball() {
        let src = NoiseSource::seeded(113);
        // One record with L1 norm 10 clamped to bound 1: contributes its
        // direction scaled to norm 1.
        let vecs = [vec![8.0, 2.0]];
        let trials = 3000;
        let mut mean = [0.0f64; 2];
        for _ in 0..trials {
            let s = noisy_vector_sum(&src, vecs.iter().cloned(), 2, 1.0, 5.0).unwrap();
            mean[0] += s[0];
            mean[1] += s[1];
        }
        mean[0] /= trials as f64;
        mean[1] /= trials as f64;
        assert!((mean[0] - 0.8).abs() < 0.05, "x {mean:?}");
        assert!((mean[1] - 0.2).abs() < 0.05, "y {mean:?}");
    }

    #[test]
    fn vector_sum_noise_scales_with_bound() {
        let src = NoiseSource::seeded(127);
        let trials = 20_000;
        let eps = 1.0;
        let bound = 4.0;
        let mut sq = 0.0;
        for _ in 0..trials {
            let s = noisy_vector_sum(&src, std::iter::empty(), 1, bound, eps).unwrap();
            sq += s[0] * s[0];
        }
        let std = (sq / trials as f64).sqrt();
        let expected = std::f64::consts::SQRT_2 * bound / eps;
        assert!(
            (std - expected).abs() / expected < 0.05,
            "{std} vs {expected}"
        );
    }

    #[test]
    fn vector_sum_rejects_bad_bound() {
        let src = NoiseSource::seeded(131);
        assert!(noisy_vector_sum(&src, std::iter::empty(), 2, 0.0, 1.0).is_err());
        assert!(noisy_vector_sum(&src, std::iter::empty(), 2, f64::NAN, 1.0).is_err());
    }

    #[test]
    fn adversarial_values_cannot_poison_sums() {
        // NaN and infinities clamp into the bound instead of propagating:
        // a single hostile record must not be able to make every future
        // release NaN (which would itself leak that the record exists).
        let src = NoiseSource::seeded(137);
        let vals = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.25];
        for _ in 0..100 {
            let s = noisy_sum(&src, vals.iter().cloned(), 1.0, 1.0).unwrap();
            assert!(s.is_finite(), "sum leaked non-finite value: {s}");
            // |clamped sum| ≤ 3.25 plus noise.
            assert!(s.abs() < 3.25 + 40.0);
        }
        let a = noisy_average(&src, vals.iter().cloned(), 1.0).unwrap();
        assert!(a.is_finite());
    }

    #[test]
    fn adversarial_values_cannot_poison_vector_sums() {
        let src = NoiseSource::seeded(139);
        let vecs = vec![vec![f64::NAN, 1.0], vec![f64::INFINITY, -1.0]];
        let s = noisy_vector_sum(&src, vecs.into_iter(), 2, 1.0, 1.0).unwrap();
        assert!(s.iter().all(|x| x.is_finite()), "vector sum leaked: {s:?}");
    }

    #[test]
    fn noisy_count_int_is_non_negative() {
        let src = NoiseSource::seeded(109);
        for _ in 0..10_000 {
            assert!(noisy_count_int(&src, 0, 0.1).unwrap() >= 0);
        }
    }
}

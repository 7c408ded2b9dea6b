//! The Laplace mechanism.
//!
//! For a query with sensitivity `Δ` (the most the true answer can change when
//! one record is added or removed), releasing `answer + Lap(Δ/ε)` satisfies
//! ε-differential privacy. `Lap(b)` is the zero-mean Laplace distribution
//! with scale `b`, density `exp(-|x|/b) / 2b`, and standard deviation `√2·b`.
//!
//! The engine calibrates counts and clamped sums at sensitivity 1, so a query
//! at accuracy ε draws `Lap(1/ε)` — standard deviation `√2/ε`, exactly the
//! figure in the paper's Table 1.

use crate::rng::{centered_uniform, NoiseSource};

/// Draw one sample from the Laplace distribution with the given `scale`
/// (must be positive and finite) using inverse-CDF sampling.
///
/// With `u ~ Uniform(-1/2, 1/2)`, `x = -scale · sgn(u) · ln(1 - 2|u|)` is
/// Laplace-distributed with scale `scale`.
pub fn laplace_noise(noise: &NoiseSource, scale: f64) -> f64 {
    debug_assert!(
        scale.is_finite() && scale > 0.0,
        "bad Laplace scale {scale}"
    );
    inverse_cdf(noise.centered_uniform(), scale)
}

/// Add one [`laplace_noise`] draw at `scale` to each of `values`, in order,
/// holding the noise lock once for the batch. The draws are the ones
/// `values.len()` calls to [`laplace_noise`] would take, so
/// `v + laplace_noise(noise, scale)` per value gives the same bits.
pub fn add_laplace_noise(noise: &NoiseSource, scale: f64, values: &mut [f64]) {
    debug_assert!(
        scale.is_finite() && scale > 0.0,
        "bad Laplace scale {scale}"
    );
    noise.with_rng(|rng| {
        for v in values {
            *v += inverse_cdf(centered_uniform(rng), scale);
        }
    });
}

/// The inverse-CDF map from `u ~ Uniform(-1/2, 1/2)` to `Lap(scale)`.
fn inverse_cdf(u: f64, scale: f64) -> f64 {
    -scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
}

/// Standard deviation of the Laplace noise added to a sensitivity-1 query at
/// accuracy `eps`: `√2/ε`. Exposed so analysts can reason about error bars,
/// as the paper emphasizes ("the noise distribution is known to the analyst").
pub fn laplace_std(eps: f64) -> f64 {
    std::f64::consts::SQRT_2 / eps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats(scale: f64, n: usize, seed: u64) -> (f64, f64) {
        let src = NoiseSource::seeded(seed);
        let xs: Vec<f64> = (0..n).map(|_| laplace_noise(&src, scale)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        (mean, var.sqrt())
    }

    #[test]
    fn laplace_mean_is_near_zero() {
        let (mean, _) = sample_stats(1.0, 200_000, 11);
        assert!(mean.abs() < 0.02, "mean {mean} too far from 0");
    }

    #[test]
    fn laplace_std_matches_theory() {
        // std of Lap(b) is sqrt(2)*b.
        for &b in &[0.5, 1.0, 4.0] {
            let (_, std) = sample_stats(b, 200_000, 13);
            let expected = std::f64::consts::SQRT_2 * b;
            assert!(
                (std - expected).abs() / expected < 0.05,
                "scale {b}: std {std} vs expected {expected}"
            );
        }
    }

    #[test]
    fn laplace_std_helper_matches_table1() {
        // Table 1: count noise std is sqrt(2)/eps.
        assert!((laplace_std(0.1) - 14.142).abs() < 0.01);
        assert!((laplace_std(1.0) - std::f64::consts::SQRT_2).abs() < 0.001);
    }

    #[test]
    fn laplace_is_symmetric() {
        let src = NoiseSource::seeded(17);
        let n = 100_000;
        let positives = (0..n).filter(|_| laplace_noise(&src, 1.0) > 0.0).count() as f64;
        let frac = positives / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "positive fraction {frac}");
    }

    #[test]
    fn batched_draws_take_the_single_draw_sequence() {
        let (one, batch) = (NoiseSource::seeded(23), NoiseSource::seeded(23));
        let counts = [0.0, 7.0, 131_072.0, 3.5];
        let singles: Vec<u64> = counts
            .iter()
            .map(|&n| (n + laplace_noise(&one, 10.0)).to_bits())
            .collect();
        let mut batched = counts;
        add_laplace_noise(&batch, 10.0, &mut batched);
        let batched: Vec<u64> = batched.iter().map(|x| x.to_bits()).collect();
        assert_eq!(batched, singles);
        // Both sources stand at the same point of the stream afterwards.
        assert_eq!(one.uniform().to_bits(), batch.uniform().to_bits());
    }

    #[test]
    fn laplace_tail_decays_exponentially() {
        // P(|X| > t) = exp(-t/b); check at t = 3b: e^-3 ≈ 0.0498.
        let src = NoiseSource::seeded(19);
        let n = 200_000;
        let beyond = (0..n)
            .filter(|_| laplace_noise(&src, 2.0).abs() > 6.0)
            .count() as f64;
        let frac = beyond / n as f64;
        assert!((frac - 0.0498).abs() < 0.006, "tail fraction {frac}");
    }
}

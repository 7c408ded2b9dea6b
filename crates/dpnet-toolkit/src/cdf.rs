//! The three CDF estimators of the paper's §4.1.
//!
//! Empirical CDFs at arbitrary resolution are *impossible* under
//! differential privacy — as the resolution shrinks, `cdf(x) − cdf(x−δ)`
//! depends on just a few records. The paper therefore approximates a CDF
//! over a fixed bucket grid, and §4.1 develops three estimators with very
//! different privacy-efficiency:
//!
//! | estimator | budget cost | error std at each point |
//! |---|---|---|
//! | [`cdf_naive`] (cdf1) | `|buckets| × ε` — or at fixed budget, error ∝ `|buckets|` | `√2/ε` per point, but ε must be split |
//! | [`cdf_partition`] (cdf2) | `ε` (parallel composition) | ∝ `√|buckets|` (prefix-sum accumulation) |
//! | [`cdf_hierarchical`] (cdf3) | `≈ (log₂|buckets|+1) × ε` | ∝ `log(|buckets|)^{3/2}` |
//!
//! Inputs are bucket indices in `0..n_buckets`; the caller discretizes raw
//! values (e.g. 1-ms bins for the paper's retransmission-delay CDF).
//! Outputs are estimates of `#{records with bucket ≤ b}` for each `b`.

//! ## Parallel evaluation
//!
//! The estimators run on the pool carried by the input queryable: bind one
//! with `data.with_ctx(ExecCtx::pool(&pool))` and every plan
//! materialization and partition inside runs chunked on that pool. Every
//! noise draw still happens on the calling thread, in the same order for
//! any pool, so at a fixed seed the released values are **bit-identical**
//! for any worker count, and budget charges are identical by construction.

use dpnet_obs::{emit_phase_global, span};
use pinq::{Queryable, Result};

/// Noise-free reference CDF over bucket indices. Records with out-of-range
/// buckets are ignored, mirroring the private estimators.
pub fn noise_free_cdf(values: &[usize], n_buckets: usize) -> Vec<f64> {
    let mut hist = vec![0u64; n_buckets];
    for &v in values {
        if v < n_buckets {
            hist[v] += 1;
        }
    }
    let mut out = Vec::with_capacity(n_buckets);
    let mut acc = 0u64;
    for h in hist {
        acc += h;
        out.push(acc as f64);
    }
    out
}

/// cdf1: measure every cumulative count directly with `Where` + `Count`.
///
/// Simple but privacy-hungry: the queries overlap, so sequential composition
/// applies and the total cost is `n_buckets × ε`. Given a fixed total
/// budget, each count gets only `budget/|buckets|`, and the paper's Figure 1
/// shows the resulting error is "incredibly high".
pub fn cdf_naive(data: &Queryable<usize>, n_buckets: usize, eps: f64) -> Result<Vec<f64>> {
    let phase = span::enter_timed("cdf_naive");
    let mut out = Vec::with_capacity(n_buckets);
    for b in 0..n_buckets {
        let c = data
            .filter(move |&v| v <= b && v < n_buckets)
            .noisy_count(eps)?;
        out.push(c);
    }
    // ε by construction for a stability-1 input: one count per bucket.
    emit_phase_global("cdf_naive", n_buckets as f64 * eps, &phase);
    Ok(out)
}

/// cdf2: `Partition` into buckets, count each part once, prefix-sum.
///
/// Parallel composition makes the total cost `ε` regardless of resolution.
/// Per-bucket errors accumulate along the prefix sum, but they are
/// independent and cancel somewhat: the error std at any point is
/// `O(√|buckets|)·√2/ε`, and the estimate tends to drift coherently (the
/// paper notes a run may consistently under- or over-estimate).
pub fn cdf_partition(data: &Queryable<usize>, n_buckets: usize, eps: f64) -> Result<Vec<f64>> {
    let phase = span::enter_timed("cdf_partition");
    // Batched fan-out: one shard-parallel histogram pass instead of
    // materializing 256 single-bucket parts. Charges and noise draws run in
    // part order through the same partition ledger, so the releases are
    // bit-identical to the per-part loop this replaces.
    let keys: Vec<usize> = (0..n_buckets).collect();
    let counts = data.partition_noisy_counts(&keys, |&v| v, eps)?;
    let mut out = Vec::with_capacity(n_buckets);
    let mut tally = 0.0;
    for c in counts {
        tally += c;
        out.push(tally);
    }
    // Parallel composition: ε total regardless of resolution.
    emit_phase_global("cdf_partition", eps, &phase);
    Ok(out)
}

/// cdf3: hierarchical measurement at log-many resolutions.
///
/// Recursively halve the range with `Partition`; each CDF value is then the
/// sum of at most `log₂|buckets|` released counts, so the error std is
/// `O(log^{3/2}|buckets|)·(1/ε)` while the budget cost is
/// `(log₂|buckets|+1)×ε` — still independent of the resolution itself.
///
/// `n_buckets` is padded internally to a power of two; only the first
/// `n_buckets` outputs are returned.
pub fn cdf_hierarchical(data: &Queryable<usize>, n_buckets: usize, eps: f64) -> Result<Vec<f64>> {
    if n_buckets == 0 {
        return Ok(Vec::new());
    }
    let phase = span::enter_timed("cdf_hierarchical");
    let max = n_buckets.next_power_of_two();
    // Drop out-of-range values so padding buckets stay empty.
    let data = data.filter(move |&v| v < n_buckets);
    let mut out = Vec::with_capacity(max);
    rec(&data, eps, max, &mut out)?;
    out.truncate(n_buckets);
    let levels = (max.trailing_zeros() + 1) as f64;
    emit_phase_global("cdf_hierarchical", levels * eps, &phase);
    return Ok(out);

    fn rec(data: &Queryable<usize>, eps: f64, max: usize, out: &mut Vec<f64>) -> Result<()> {
        if max == 1 {
            out.push(data.noisy_count(eps)?);
            return Ok(());
        }
        let half = max / 2;
        let keys = [0usize, 1];
        let parts = data.partition(&keys, move |&v| usize::from(v >= half))?;
        // Cumulative counts within [0, half).
        rec(&parts[0], eps, half, out)?;
        // One cumulative count for the whole left half, then frequencies
        // for [half, max) shifted on top of it.
        let count = parts[0].noisy_count(eps)?;
        let shifted = parts[1].map(move |&v| v - half);
        let mark = out.len();
        rec(&shifted, eps, half, out)?;
        for v in &mut out[mark..] {
            *v += count;
        }
        Ok(())
    }
}

/// Theoretical error standard deviation of `cdf2` at bucket `b` (0-based):
/// the prefix sum of `b+1` independent `Lap(1/ε)` draws.
pub fn cdf_partition_error_std(b: usize, eps: f64) -> f64 {
    (2.0 * (b + 1) as f64).sqrt() / eps
}

/// Upper bound on the error std of `cdf3` at any bucket: at most
/// `log₂(buckets)+1` independent counts are summed.
pub fn cdf_hierarchical_error_std(n_buckets: usize, eps: f64) -> f64 {
    let levels = (n_buckets.next_power_of_two().trailing_zeros() + 1) as f64;
    (2.0 * levels).sqrt() / eps
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinq::{Accountant, ExecCtx, ExecPool, NoiseSource};

    fn dataset(seed: u64, budget: f64) -> (Accountant, Queryable<usize>, Vec<usize>) {
        // Triangular-ish distribution over 64 buckets.
        let mut values = Vec::new();
        for b in 0..64usize {
            for _ in 0..(64 - b) * 20 {
                values.push(b);
            }
        }
        let acct = Accountant::new(budget);
        let noise = NoiseSource::seeded(seed);
        let q = Queryable::new(values.clone(), &acct, &noise);
        (acct, q, values)
    }

    #[test]
    fn noise_free_cdf_is_monotone_and_total() {
        let values = vec![0, 1, 1, 3, 63, 64, 100];
        let cdf = noise_free_cdf(&values, 64);
        assert_eq!(cdf.len(), 64);
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(cdf[63], 5.0); // 64 and 100 are out of range
        assert_eq!(cdf[0], 1.0);
        assert_eq!(cdf[1], 3.0);
    }

    #[test]
    fn cdf_naive_costs_buckets_times_eps() {
        let (acct, q, _) = dataset(1, 100.0);
        cdf_naive(&q, 64, 0.5).unwrap();
        assert!((acct.spent() - 32.0).abs() < 1e-9);
    }

    #[test]
    fn cdf_partition_costs_eps_total() {
        let (acct, q, _) = dataset(2, 1.0);
        cdf_partition(&q, 64, 0.5).unwrap();
        assert!((acct.spent() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn cdf_hierarchical_costs_log_levels() {
        let (acct, q, _) = dataset(3, 10.0);
        cdf_hierarchical(&q, 64, 0.5).unwrap();
        // 64 buckets → log2 = 6 levels of partition + leaf = 7 charges of
        // 0.5 on the deepest path.
        assert!((acct.spent() - 3.5).abs() < 1e-9, "spent {}", acct.spent());
    }

    #[test]
    fn partition_and_hierarchical_track_truth() {
        let (_, q, values) = dataset(4, 100.0);
        let truth = noise_free_cdf(&values, 64);
        let eps = 1.0;
        let c2 = cdf_partition(&q, 64, eps).unwrap();
        let c3 = cdf_hierarchical(&q, 64, eps).unwrap();
        let total = *truth.last().unwrap();
        for b in 0..64 {
            assert!(
                (c2[b] - truth[b]).abs() < 0.02 * total,
                "cdf2 at {b}: {} vs {}",
                c2[b],
                truth[b]
            );
            assert!(
                (c3[b] - truth[b]).abs() < 0.02 * total,
                "cdf3 at {b}: {} vs {}",
                c3[b],
                truth[b]
            );
        }
    }

    #[test]
    fn naive_is_much_worse_at_fixed_budget() {
        // Paper Figure 1(a): at a fixed total budget, cdf1's error is
        // "incredibly high" compared with cdf2/cdf3.
        let n = 64;
        let budget_total = 1.0;
        let (_, q1, values) = dataset(5, 1000.0);
        let truth = noise_free_cdf(&values, n);
        // Split the same total budget across methods.
        let c1 = cdf_naive(&q1, n, budget_total / n as f64).unwrap();
        let c2 = cdf_partition(&q1, n, budget_total).unwrap();
        let err = |est: &[f64]| -> f64 {
            est.iter()
                .zip(&truth)
                .map(|(a, b)| (a - b).powi(2))
                .sum::<f64>()
                .sqrt()
        };
        assert!(
            err(&c1) > 3.0 * err(&c2),
            "cdf1 err {} vs cdf2 err {}",
            err(&c1),
            err(&c2)
        );
    }

    #[test]
    fn hierarchical_handles_non_power_of_two() {
        let (_, q, values) = dataset(6, 100.0);
        let c3 = cdf_hierarchical(&q, 50, 1.0).unwrap();
        assert_eq!(c3.len(), 50);
        let truth = noise_free_cdf(&values, 50);
        let total = *truth.last().unwrap();
        assert!((c3[49] - truth[49]).abs() < 0.03 * total);
    }

    #[test]
    fn hierarchical_of_zero_buckets_is_empty() {
        let (_, q, _) = dataset(7, 1.0);
        assert!(cdf_hierarchical(&q, 0, 1.0).unwrap().is_empty());
    }

    #[test]
    fn single_bucket_cdf_is_a_count() {
        let (_, q, values) = dataset(8, 100.0);
        let c = cdf_hierarchical(&q, 1, 10.0).unwrap();
        let truth = values.iter().filter(|&&v| v == 0).count() as f64;
        assert_eq!(c.len(), 1);
        assert!((c[0] - truth).abs() < 2.0);
    }

    #[test]
    fn pool_variants_release_identical_values_and_charges() {
        // The determinism contract, end to end: every pool matches the
        // flat loop bit-for-bit at a fixed seed, for any worker count, with
        // identical budget spends.
        let run = |workers: Option<usize>| -> (Vec<f64>, Vec<f64>, Vec<f64>, f64) {
            let (acct, q, _) = dataset(0xCDF, 1000.0);
            let q = match workers {
                // The flat loop: one worker, one chunk.
                None => q.with_ctx(ExecCtx::pool(
                    &ExecPool::sequential().with_chunk_size(usize::MAX),
                )),
                Some(w) => q.with_ctx(ExecCtx::pool(&ExecPool::new(w).unwrap())),
            };
            let (c1, c2, c3) = (
                cdf_naive(&q, 32, 0.1).unwrap(),
                cdf_partition(&q, 32, 1.0).unwrap(),
                cdf_hierarchical(&q, 32, 0.5).unwrap(),
            );
            (c1, c2, c3, acct.spent())
        };
        let flat = run(None);
        for workers in [1, 2, 8] {
            assert_eq!(flat, run(Some(workers)), "workers={workers}");
        }
    }

    #[test]
    fn error_std_helpers_are_monotone() {
        assert!(cdf_partition_error_std(63, 0.1) > cdf_partition_error_std(0, 0.1));
        assert!(cdf_hierarchical_error_std(1024, 0.1) > cdf_hierarchical_error_std(2, 0.1));
        // At 64 buckets, the cdf3 bound beats cdf2's worst point.
        assert!(cdf_hierarchical_error_std(64, 0.1) < cdf_partition_error_std(63, 0.1));
    }
}

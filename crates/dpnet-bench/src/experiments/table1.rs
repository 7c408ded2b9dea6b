//! E-T1 — paper Table 1: noise calibration of the PINQ aggregations.
//!
//! Empirically measures the noise each aggregation adds and checks it
//! against the paper's stated calibration:
//!
//! * Count, Sum: noise std `√2/ε`
//! * Average: noise std `√8/(εn)`
//! * Median: returned value splits the input into halves differing by
//!   `≈ √2/ε` ranks
//!
//! The input is `n` distinct values on a median grid of `n` steps, so one
//! grid step moves the cut by exactly one rank and the measured rank gap
//! follows the exponential mechanism's noise, not the grid's.

use crate::report::{f, header, Table};
use pinq::{Accountant, NoiseSource, Queryable};

/// Measured-vs-theory row for one aggregation.
#[derive(Debug, Clone)]
pub struct NoiseRow {
    /// Aggregation name.
    pub op: &'static str,
    /// ε used.
    pub eps: f64,
    /// Empirical noise standard deviation (or rank gap for median).
    pub measured: f64,
    /// The paper's theoretical value.
    pub theory: f64,
}

/// Records in the calibration input: the values `(i + ½)/N`.
const N: usize = 1_000;

/// The mean rank gap the median's exponential mechanism gives on [`run`]'s
/// input at `eps`. Grid point `j` of `N` leaves `j` of the values below
/// it, a gap of `|j − N/2|` ranks, and is chosen with probability
/// `∝ exp(−ε·gap/2)` (score sensitivity 1).
pub fn median_expected_gap(eps: f64) -> f64 {
    let (mut weight, mut weighted_gap) = (0.0, 0.0);
    for j in 0..=N {
        let gap = (j as f64 - N as f64 / 2.0).abs();
        let w = (-eps * gap / 2.0).exp();
        weight += w;
        weighted_gap += w * gap;
    }
    weighted_gap / weight
}

/// Run the calibration measurement: `trials` repetitions per op and ε.
pub fn run(trials: usize) -> (Vec<NoiseRow>, String) {
    let n = N;
    let values: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5) / n as f64).collect();
    let mut rows = Vec::new();

    for &eps in &[0.1f64, 1.0] {
        let budget = Accountant::new(1e9);
        let noise = NoiseSource::seeded(0xab1e ^ eps.to_bits());
        let q = Queryable::new(values.clone(), &budget, &noise);

        // Count.
        let errs: Vec<f64> = (0..trials)
            .map(|_| q.noisy_count(eps).expect("budget is huge") - n as f64)
            .collect();
        rows.push(NoiseRow {
            op: "Count",
            eps,
            measured: dpnet_toolkit::std_dev(&errs),
            theory: (2.0f64).sqrt() / eps,
        });

        // Sum (values clamped to [-1,1]; ours are within already).
        let true_sum: f64 = values.iter().sum();
        let errs: Vec<f64> = (0..trials)
            .map(|_| q.noisy_sum(eps, |&v| v).expect("budget") - true_sum)
            .collect();
        rows.push(NoiseRow {
            op: "Sum",
            eps,
            measured: dpnet_toolkit::std_dev(&errs),
            theory: (2.0f64).sqrt() / eps,
        });

        // Average.
        let true_avg = true_sum / n as f64;
        let errs: Vec<f64> = (0..trials)
            .map(|_| q.noisy_average(eps, |&v| v).expect("budget") - true_avg)
            .collect();
        rows.push(NoiseRow {
            op: "Average",
            eps,
            measured: dpnet_toolkit::std_dev(&errs),
            theory: (8.0f64).sqrt() / (eps * n as f64),
        });

        // Median: measure the rank imbalance of the returned cut point.
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let gaps: Vec<f64> = (0..trials)
            .map(|_| {
                let m = q.noisy_median(eps, 0.0, 1.0, n, |&v| v).expect("budget");
                let below = sorted.partition_point(|&v| v < m) as f64;
                (below - n as f64 / 2.0).abs()
            })
            .collect();
        rows.push(NoiseRow {
            op: "Median (rank gap)",
            eps,
            measured: dpnet_toolkit::mean(&gaps),
            theory: (2.0f64).sqrt() / eps,
        });
    }

    let mut table = Table::new(&["operation", "eps", "measured", "theory (Table 1)"]);
    for r in &rows {
        table.row(vec![r.op.to_string(), f(r.eps), f(r.measured), f(r.theory)]);
    }
    let mut out = header(
        "E-T1",
        "noise calibration of PINQ aggregations (paper Table 1)",
    );
    out.push_str(&format!("{} records, {} trials per cell\n", n, trials));
    out.push_str(&table.render());
    out.push_str(&format!(
        "median: the mechanism's exact mean rank gap is {} at eps 0.1 and {} at eps 1\n",
        f(median_expected_gap(0.1)),
        f(median_expected_gap(1.0)),
    ));
    (rows, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_noise_matches_theory() {
        let (rows, report) = run(3000);
        assert!(report.contains("E-T1"));
        for r in rows {
            if r.op == "Median (rank gap)" {
                // Within 10% of the mechanism's exact mean gap (sampling
                // error is ~2% at 3000 trials). A mechanism running at 2ε
                // or ε/2 halves or doubles the gap.
                let expected = median_expected_gap(r.eps);
                let rel = (r.measured - expected).abs() / expected;
                assert!(
                    rel < 0.10,
                    "{} at eps {}: measured {} vs exact mean {}",
                    r.op,
                    r.eps,
                    r.measured,
                    expected
                );
            } else {
                let rel = (r.measured - r.theory).abs() / r.theory;
                assert!(
                    rel < 0.10,
                    "{} at eps {}: measured {} vs theory {}",
                    r.op,
                    r.eps,
                    r.measured,
                    r.theory
                );
            }
        }
    }
}

//! E-T5 — paper Table 5: private stepping-stone detection per privacy level.
//!
//! For each ε, the top-20 candidate pairs by noisy bucketed correlation are
//! scored against the faithful non-private implementation (the paper's Perl
//! script): mean ± std of the noisy correlations, mean ± std of the exact
//! correlations of those same pairs, and the number of false positives
//! (pairs with no real correlation — exact correlation below the original
//! algorithm's 0.3 threshold).
//!
//! Paper's Table 5: ε = 0.1 → noisy 0.06±0.07, 18/20 false positives;
//! ε = 1.0 → noisy 0.72±0.10, 1/20; ε = 10.0 → 0.78±0.03, 2/20.

use crate::datasets::{self, EPSILONS};
use crate::report::{f, header, Table};
use dpnet_analyses::stepping_stones::{
    exact_pair_correlation, stepping_stones, SteppingStoneConfig,
};
use dpnet_toolkit::stats::{mean, std_dev};
use pinq::{Accountant, NoiseSource, Queryable};

/// One row of the reproduced Table 5.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// ε used per aggregation.
    pub eps: f64,
    /// Mean of the noisy correlations of the reported pairs.
    pub noisy_mean: f64,
    /// Std of the noisy correlations.
    pub noisy_std: f64,
    /// Mean of the exact correlations of the same pairs.
    pub exact_mean: f64,
    /// Std of the exact correlations.
    pub exact_std: f64,
    /// Pairs with exact correlation below 0.3 (false positives).
    pub false_positives: usize,
    /// Number of pairs reported (≤ top-20).
    pub pairs: usize,
}

/// Correlation threshold of the original Zhang-Paxson algorithm.
pub const CORRELATION_THRESHOLD: f64 = 0.3;

/// Run Table 5 over the standard Hotspot trace.
pub fn run() -> (Vec<Table5Row>, String) {
    run_on(datasets::hotspot())
}

/// Run Table 5 over a caller-supplied trace (used by tests to keep
/// debug-mode runtimes reasonable).
pub fn run_on(trace: &dpnet_trace::gen::hotspot::HotspotTrace) -> (Vec<Table5Row>, String) {
    let mut rows = Vec::new();
    // The noise-free reference scores every reported pair against the same
    // exact activations; they depend only on the trace and T_idle.
    let t_idle_us = SteppingStoneConfig::default().t_idle_us;
    let acts = dpnet_trace::tcp::activations(&trace.packets, t_idle_us);

    for &eps in &EPSILONS {
        let budget = Accountant::new(1e9);
        let noise = NoiseSource::seeded(0x7ab1e5 ^ eps.to_bits());
        let q = Queryable::new(trace.packets.clone(), &budget, &noise);
        let cfg = SteppingStoneConfig {
            eps,
            flow_threshold: 80.0,
            pair_threshold: 25.0,
            top_k: 20,
            t_idle_us,
            ..SteppingStoneConfig::default()
        };
        let pairs = stepping_stones(&q, &cfg).expect("budget");

        let noisy: Vec<f64> = pairs.iter().map(|p| p.noisy_correlation).collect();
        let exact: Vec<f64> = pairs
            .iter()
            .map(|p| {
                exact_pair_correlation(&acts, &p.flow_a, &p.flow_b, cfg.delta_us).max(
                    exact_pair_correlation(&acts, &p.flow_b, &p.flow_a, cfg.delta_us),
                )
            })
            .collect();
        let false_positives = exact.iter().filter(|&&c| c < CORRELATION_THRESHOLD).count();
        rows.push(Table5Row {
            eps,
            noisy_mean: mean(&noisy),
            noisy_std: std_dev(&noisy),
            exact_mean: mean(&exact),
            exact_std: std_dev(&exact),
            false_positives,
            pairs: pairs.len(),
        });
    }

    let mut table = Table::new(&["eps", "noisy corr", "noise-free corr", "false positives"]);
    for r in &rows {
        table.row(vec![
            r.eps.to_string(),
            format!("{} ± {}", f(r.noisy_mean), f(r.noisy_std)),
            format!("{} ± {}", f(r.exact_mean), f(r.exact_std)),
            format!("{}/{}", r.false_positives, r.pairs),
        ]);
    }
    let mut out = header("E-T5", "private stepping-stone detection (paper Table 5)");
    out.push_str(&table.render());
    out.push_str(
        "\npaper: eps=0.1 → 0.06±0.07, 18/20 FP; eps=1.0 → 0.72±0.10, 1/20; eps=10 → 0.78±0.03, 2/20\n\
         paper shape: strong privacy floods the top pairs with false positives;\n\
         medium and weak privacy find genuinely correlated pairs above the 0.3 threshold\n",
    );
    (rows, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_shape_holds() {
        // Reduced trace with the same planted stepping-stone structure.
        let trace = dpnet_trace::gen::hotspot::generate(dpnet_trace::gen::hotspot::HotspotConfig {
            web_flows: 150,
            worms_above_threshold: 1,
            worms_below_threshold: 1,
            stepping_stone_pairs: 8,
            interactive_decoys: 16,
            itemset_hosts: 10,
            ..Default::default()
        });
        let (rows, report) = run_on(&trace);
        assert_eq!(rows.len(), 3);
        let weak = &rows[2]; // eps = 10
        let medium = &rows[1];
        let strong = &rows[0];
        // Weak and medium privacy find real stones: high exact correlation,
        // few false positives.
        assert!(weak.pairs >= 5, "weak privacy found {} pairs", weak.pairs);
        assert!(weak.exact_mean > 0.5, "weak exact mean {}", weak.exact_mean);
        assert!(
            (weak.false_positives as f64) < 0.3 * weak.pairs as f64,
            "weak FPs {}/{}",
            weak.false_positives,
            weak.pairs
        );
        assert!(
            medium.exact_mean > 0.4,
            "medium exact mean {}",
            medium.exact_mean
        );
        // Strong privacy degrades: lower exact correlation among reported
        // pairs or a higher false-positive rate than weak privacy.
        let strong_fp_rate = strong.false_positives as f64 / strong.pairs.max(1) as f64;
        let weak_fp_rate = weak.false_positives as f64 / weak.pairs.max(1) as f64;
        assert!(
            strong.exact_mean < weak.exact_mean || strong_fp_rate > weak_fp_rate,
            "strong privacy did not degrade: {strong:?} vs {weak:?}"
        );
        assert!(report.contains("E-T5"));
    }
}

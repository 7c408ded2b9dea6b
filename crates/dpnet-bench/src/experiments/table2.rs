//! E-T2 — paper Table 2: the summary of analyses.
//!
//! Table 2 records, per analysis, (a) *expressibility* — how faithfully the
//! analysis could be written against the DP engine — and (b) the privacy
//! level at which *high accuracy* was achieved. Expressibility is a
//! property of the implementations in `dpnet-analyses` (static text below,
//! matching this reproduction's choices); the accuracy level applies a fixed
//! criterion to the ε = 0.1, 1, 10 results of Figures 2, 3 and 5, Table 5
//! and the worm study, read from the run's [`Results`], and to the anomaly
//! sweep that Table 2 itself runs.

use crate::datasets;
use crate::experiments::{fig2, fig3, fig5, table5, worm_exp, Results};
use crate::report::{header, Table};
use dpnet_analyses::anomaly::{
    anomaly_norms, flag_anomalies, private_anomaly_norms, AnomalyConfig,
};
use pinq::{Accountant, ExecPool, NoiseSource, Queryable};

/// One summary row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Analysis name.
    pub analysis: &'static str,
    /// Expressibility of this reproduction (mirrors the paper's column).
    pub expressibility: &'static str,
    /// Measured privacy level achieving high accuracy ("strong" = ε 0.1,
    /// "medium" = ε 1, "weak" = ε 10, or "none").
    pub high_accuracy: &'static str,
    /// The paper's reported accuracy level.
    pub paper: &'static str,
}

fn level_name(eps: Option<f64>) -> &'static str {
    match eps {
        Some(e) if e <= 0.1 => "strong privacy",
        Some(e) if e <= 1.0 => "medium privacy",
        Some(_) => "weak privacy",
        None => "none",
    }
}

/// Measure the anomaly-detection accuracy level on the reduced ISP dataset.
/// The paper's claim is DP-vs-exact equivalence ("no significant anomaly
/// should go unnoticed"), so the criterion is: the private run flags every
/// planted anomaly the *noise-free* run flags.
fn anomaly_level() -> Option<f64> {
    let trace = crate::datasets::isp_small();
    let truth: Vec<usize> = trace.truth.iter().map(|a| a.window as usize).collect();
    let exact = anomaly_norms(&trace.matrix_f64(), 2, 40);
    let exact_flagged = flag_anomalies(&exact, 8.0);
    let exact_hits: Vec<usize> = truth
        .iter()
        .filter(|w| exact_flagged.contains(w))
        .cloned()
        .collect();
    if exact_hits.is_empty() {
        return None;
    }
    let records = trace.to_records();
    for &eps in &crate::datasets::EPSILONS {
        let budget = Accountant::new(1e9);
        let noise = NoiseSource::seeded(0x72 ^ eps.to_bits());
        let q = Queryable::new(records.clone(), &budget, &noise);
        let cfg = AnomalyConfig {
            links: trace.links,
            windows: trace.windows,
            components: 2,
            sweeps: 40,
            eps,
        };
        let norms = private_anomaly_norms(&q, &cfg).expect("budget");
        let flagged = flag_anomalies(&norms, 8.0);
        if exact_hits.iter().all(|w| flagged.contains(w)) {
            return Some(eps);
        }
    }
    None
}

/// Run the summary from `results`, first running (on `pool`) and storing
/// any of the five experiments that the run has not run yet.
pub fn run(results: &mut Results, pool: &ExecPool) -> (Vec<Table2Row>, String) {
    // Packet distributions: smallest ε with rel RMSE below 1% on lengths.
    let f2 = results.fig2.get_or_insert_with(|| fig2::run().0);
    let dist_eps = f2
        .length_rmse
        .iter()
        .find(|(_, r)| *r < 0.01)
        .map(|(e, _)| *e);

    // Worm fingerprinting: smallest ε recovering ≥ 95% of signatures.
    let wr = results
        .worm
        .get_or_insert_with(|| worm_exp::run(datasets::hotspot(), pool).0);
    let worm_eps = wr
        .recovery
        .iter()
        .find(|r| r.recovered as f64 >= 0.95 * wr.exact_count as f64)
        .map(|r| r.eps);

    // Flow statistics: smallest ε with RTT rel RMSE below 5%.
    let f3 = results.fig3.get_or_insert_with(|| fig3::run().0);
    let flow_eps = f3.rtt_rmse.iter().find(|(_, r)| *r < 0.05).map(|(e, _)| *e);

    // Stepping stones: smallest ε with < 25% false positives and mean
    // exact correlation above the 0.3 threshold.
    let t5 = results.table5.get_or_insert_with(|| table5::run().0);
    let stone_eps = t5
        .iter()
        .find(|r| {
            r.pairs > 0 && (r.false_positives as f64) < 0.25 * r.pairs as f64 && r.exact_mean > 0.3
        })
        .map(|r| r.eps);

    // Anomaly detection: smallest ε with full planted-anomaly detection.
    let anomaly_eps = anomaly_level();

    // Topology mapping: smallest ε within 15% of the noise-free objective.
    let f5 = results
        .fig5
        .get_or_insert_with(|| fig5::run(fig5::ITERATIONS).0);
    let base = *f5.baseline.last().expect("has iterations");
    let topo_eps = f5
        .private
        .iter()
        .find(|(_, curve)| *curve.last().expect("has iterations") < base * 1.15 + 0.2)
        .map(|(e, _)| *e);

    let rows = vec![
        Table2Row {
            analysis: "Packet size and port dist. (5.1.1)",
            expressibility: "faithful",
            high_accuracy: level_name(dist_eps),
            paper: "strong privacy",
        },
        Table2Row {
            analysis: "Worm fingerprinting (5.1.2)",
            expressibility: "faithful",
            high_accuracy: level_name(worm_eps),
            paper: "weak privacy",
        },
        Table2Row {
            analysis: "Common flow properties (5.2.1)",
            expressibility: "could not isolate connections in a flow",
            high_accuracy: level_name(flow_eps),
            paper: "strong privacy",
        },
        Table2Row {
            analysis: "Stepping stone detection (5.2.2)",
            expressibility: "sliding windows approximated (bucketed)",
            high_accuracy: level_name(stone_eps),
            paper: "medium privacy",
        },
        Table2Row {
            analysis: "Anomaly detection (5.3.1)",
            expressibility: "faithful",
            high_accuracy: level_name(anomaly_eps),
            paper: "strong privacy",
        },
        Table2Row {
            analysis: "Passive topology mapping (5.3.2)",
            expressibility: "simpler clustering (k-means, not Gaussian EM)",
            high_accuracy: level_name(topo_eps),
            paper: "weak privacy",
        },
    ];

    let mut table = Table::new(&["analysis", "expressibility", "measured", "paper"]);
    for r in &rows {
        table.row(vec![
            r.analysis.to_string(),
            r.expressibility.to_string(),
            r.high_accuracy.to_string(),
            r.paper.to_string(),
        ]);
    }
    let mut out = header("E-T2", "summary of the analyses (paper Table 2)");
    out.push_str(&table.render());
    out.push_str(
        "\nnote: 'measured' uses fixed criteria (see module docs); our traces are smaller\n\
         than the paper's, so strong-privacy error is relatively larger at equal eps\n",
    );
    (rows, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::worm_exp::WormRecovery;

    /// Per-ε values at the three privacy levels.
    fn at_levels<T>(values: [T; 3]) -> Vec<(f64, T)> {
        datasets::EPSILONS.into_iter().zip(values).collect()
    }

    fn stones(eps: f64, false_positives: usize, exact_mean: f64) -> table5::Table5Row {
        table5::Table5Row {
            eps,
            noisy_mean: exact_mean,
            noisy_std: 0.1,
            exact_mean,
            exact_std: 0.1,
            false_positives,
            pairs: 20,
        }
    }

    /// Hand-built results that land on every level: the summary reads them
    /// and runs none of their experiments, only its own anomaly sweep.
    #[test]
    fn summary_assembles() {
        let f2 = fig2::Fig2 {
            length_rmse: at_levels([0.005, 0.001, 0.0001]),
            port_rmse: at_levels([0.02, 0.01, 0.001]),
            tenth_data: (0.01, 0.05),
        };
        let worm = worm_exp::WormResult {
            exact_count: 20,
            group_count: 100.0,
            recovery: at_levels([(5, 0), (19, 2), (20, 0)])
                .into_iter()
                .map(|(eps, (recovered, false_positives))| WormRecovery {
                    eps,
                    recovered,
                    false_positives,
                })
                .collect(),
        };
        let f3 = fig3::Fig3 {
            rtt_rmse: at_levels([0.4, 0.2, 0.06]),
            loss_rmse: at_levels([0.1, 0.05, 0.01]),
            handshakes: 100.0,
            loss_flows: 100.0,
        };
        // Too many false positives at ε = 0.1, too weak a correlation at
        // ε = 1.
        let t5 = vec![
            stones(0.1, 18, 0.5),
            stones(1.0, 1, 0.25),
            stones(10.0, 2, 0.7),
        ];
        let curve = |end: f64| vec![30.0, 20.0, end];
        let f5 = fig5::Fig5 {
            baseline: curve(10.0),
            private: at_levels([curve(20.0), curve(12.0), curve(10.5)]),
            gaussian_em: curve(19.0),
        };

        let mut results = Results {
            fig2: Some(f2),
            worm: Some(worm),
            fig3: Some(f3),
            table5: Some(t5),
            fig5: Some(f5),
        };
        let (rows, report) = run(&mut results, &ExecPool::sequential());
        let levels: Vec<&str> = rows.iter().map(|r| r.high_accuracy).collect();
        assert_eq!(
            levels,
            [
                "strong privacy",
                "medium privacy",
                "none",
                "weak privacy",
                "strong privacy",
                "weak privacy",
            ]
        );
        assert!(report.contains("E-T2"));
    }
}

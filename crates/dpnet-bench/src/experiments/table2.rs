//! E-T2 — paper Table 2: the summary of analyses.
//!
//! Table 2 records, per analysis, (a) *expressibility* — how faithfully the
//! analysis could be written against the DP engine — and (b) the privacy
//! level at which *high accuracy* was achieved. Expressibility is a
//! property of the implementations in `dpnet-analyses` (static text below,
//! matching this reproduction's choices); the accuracy level is measured by
//! running each analysis at ε = 0.1, 1, 10 and applying a fixed criterion.

use crate::datasets;
use crate::experiments::{fig2, fig3, fig5, table5, worm_exp};
use crate::report::{header, Table};
use dpnet_analyses::anomaly::{
    anomaly_norms, flag_anomalies, private_anomaly_norms, AnomalyConfig,
};
use pinq::{Accountant, ExecCtx, NoiseSource, Queryable};

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

/// Run the summary: executes the per-analysis experiments and classifies
/// each one's accuracy level.
pub fn run() -> (Vec<Table2Row>, String) {
    // Packet distributions: smallest ε with rel RMSE below 1% on lengths.
    let (f2, _) = fig2::run();
    let dist_eps = f2
        .length_rmse
        .iter()
        .find(|(_, r)| *r < 0.01)
        .map(|(e, _)| *e);

    // Worm fingerprinting: smallest ε recovering ≥ 95% of signatures.
    let (wr, _) = worm_exp::run(datasets::hotspot(), ExecCtx::Sequential);
    let worm_eps = wr
        .recovery
        .iter()
        .find(|r| r.recovered as f64 >= 0.95 * wr.exact_count as f64)
        .map(|r| r.eps);

    // Flow statistics: smallest ε with RTT rel RMSE below 5%.
    let (f3, _) = fig3::run();
    let flow_eps = f3.rtt_rmse.iter().find(|(_, r)| *r < 0.05).map(|(e, _)| *e);

    // Stepping stones: smallest ε with < 25% false positives and mean
    // exact correlation above the 0.3 threshold.
    let (t5, _) = table5::run();
    let stone_eps = t5
        .iter()
        .find(|r| {
            r.pairs > 0 && (r.false_positives as f64) < 0.25 * r.pairs as f64 && r.exact_mean > 0.3
        })
        .map(|r| r.eps);

    // Anomaly detection: smallest ε with full planted-anomaly detection.
    let anomaly_eps = anomaly_level();

    // Topology mapping: smallest ε within 15% of the noise-free objective.
    let (f5, _) = fig5::run(6);
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

    #[test]
    #[ignore = "runs every analysis; exercised by the repro binary"]
    fn summary_assembles() {
        let (rows, report) = run();
        assert_eq!(rows.len(), 6);
        assert!(report.contains("E-T2"));
    }
}

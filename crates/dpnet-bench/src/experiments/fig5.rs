//! E-F5 — paper Figure 5: clustering error vs. iteration for passive
//! topology mapping.
//!
//! Nine centers, ten iterations, all privacy levels initialized from the
//! same random vectors. The y-axis is the k-means objective (mean distance
//! from each point to its nearest center) evaluated on the exact imputed
//! vectors. The paper: ε = 0.1 ends ~50% worse than noise-free; ε = 1 is
//! close; ε = 10 is nearly identical. Also includes the §5.3.2 ablation —
//! Gaussian EM's extra moment query makes it *less* accurate than k-means
//! at the same per-iteration budget.

use crate::datasets;
use crate::report::{f, header, Table};
use dpnet_analyses::topology::{private_topology_clusters, TopologyConfig};
use dpnet_obs::span;
use dpnet_toolkit::kmeans::{clustering_rmse, kmeans_baseline, random_centers};
use pinq::{Accountant, NoiseSource, Queryable};

/// The paper's iteration count, which `repro fig5` and Table 2 use.
pub const ITERATIONS: usize = 10;

/// Results of the Figure 5 reproduction.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Objective per iteration for the noise-free baseline.
    pub baseline: Vec<f64>,
    /// (ε, objective per iteration) per privacy level.
    pub private: Vec<(f64, Vec<f64>)>,
    /// Gaussian-EM ablation at ε = 1 (objective per iteration).
    pub gaussian_em: Vec<f64>,
}

/// Compute the objective trajectory of a clustering run against the exact
/// vectors.
fn objectives(vectors: &[Vec<f64>], centers: &[Vec<Vec<f64>>]) -> Vec<f64> {
    let _span = span::enter("harness/objectives");
    centers
        .iter()
        .map(|c| clustering_rmse(vectors, c))
        .collect()
}

/// Run Figure 5 on the standard IPscatter dataset.
pub fn run(iterations: usize) -> (Fig5, String) {
    let trace = datasets::scatter();
    let exact_vectors: Vec<Vec<f64>> = {
        let _span = span::enter("harness/impute");
        let vectors = trace.vectors_mean_imputed();
        vectors.into_iter().map(|(_, v)| v).collect()
    };
    // "initialized to a common random set of vectors for each execution"
    let init = random_centers(9, 38, 5.0, 25.0, 0xf5);

    let base = {
        let _span = span::enter("harness/kmeans_baseline");
        kmeans_baseline(&exact_vectors, iterations, init.clone())
    };
    let baseline = objectives(&exact_vectors, &base.centers);

    let mut private = Vec::new();
    let mut em_curve = Vec::new();
    for &eps in &crate::datasets::EPSILONS {
        let budget = Accountant::new(1e9);
        let noise = NoiseSource::seeded(0x55 ^ eps.to_bits());
        let q = Queryable::new(trace.records.clone(), &budget, &noise);
        let cfg = TopologyConfig {
            iterations,
            eps_per_iteration: eps,
            ..TopologyConfig::default()
        };
        let traj = private_topology_clusters(&q, &cfg, init.clone()).expect("budget");
        private.push((eps, objectives(&exact_vectors, &traj.centers)));

        if eps == 1.0 {
            let budget = Accountant::new(1e9);
            let noise = NoiseSource::seeded(0x56);
            let q = Queryable::new(trace.records.clone(), &budget, &noise);
            let traj = private_topology_clusters(
                &q,
                &TopologyConfig {
                    gaussian_em: true,
                    ..cfg
                },
                init.clone(),
            )
            .expect("budget");
            em_curve = objectives(&exact_vectors, &traj.centers);
        }
    }

    let result = Fig5 {
        baseline: baseline.clone(),
        private: private.clone(),
        gaussian_em: em_curve.clone(),
    };

    let mut out = header(
        "E-F5",
        "clustering error vs iteration, 9 centers (paper Figure 5)",
    );
    let mut table = Table::new(&[
        "iteration",
        "noise-free",
        "eps=0.1",
        "eps=1",
        "eps=10",
        "EM eps=1",
    ]);
    for i in 0..=iterations {
        table.row(vec![
            i.to_string(),
            f(baseline[i]),
            f(private[0].1[i]),
            f(private[1].1[i]),
            f(private[2].1[i]),
            f(em_curve[i]),
        ]);
    }
    out.push_str(&table.render());
    let last = iterations;
    out.push_str(&format!(
        "\nfinal RMSE ratios vs noise-free: eps=0.1 ×{}, eps=1 ×{}, eps=10 ×{}, EM(eps=1) ×{}\n\
         paper: eps=0.1 ~50% worse; eps=1 close; eps=10 almost identical;\n\
         Gaussian EM costs more per iteration and is consequently less accurate (§5.3.2)\n",
        f(private[0].1[last] / baseline[last]),
        f(private[1].1[last] / baseline[last]),
        f(private[2].1[last] / baseline[last]),
        f(em_curve[last] / baseline[last]),
    ));
    (result, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_shape_holds() {
        let (r, report) = run(6);
        let last = 6;
        let base = r.baseline[last];
        let strong = r.private[0].1[last];
        let medium = r.private[1].1[last];
        let weak = r.private[2].1[last];
        // Weak privacy ≈ noise-free.
        assert!(weak < base * 1.10 + 0.2, "weak {weak} vs base {base}");
        // Strong privacy notably worse than weak.
        assert!(strong > weak * 1.15, "strong {strong} vs weak {weak}");
        // Medium sits between (weakly).
        assert!(
            medium <= strong * 1.05,
            "medium {medium} vs strong {strong}"
        );
        // EM at eps=1 is no better than k-means at eps=1 (the ablation).
        let em = r.gaussian_em[last];
        assert!(em >= medium * 0.9, "EM {em} vs k-means {medium}");
        assert!(report.contains("E-F5"));
    }
}

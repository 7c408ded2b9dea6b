//! Differentially-private k-means clustering (paper §5.3.2).
//!
//! Each iteration partitions the points by nearest current center (a
//! deterministic function of the record and the already-released centers,
//! so `Partition` applies), then re-estimates every center from one noisy
//! count and one noisy vector sum per cluster. Parallel composition makes
//! the iteration cost `ε` regardless of `k`; iterations compose
//! sequentially, so — as the paper puts it — "each iteration of the
//! algorithm consumes another multiple of the privacy cost. After 10
//! iterations, a value of ε = 0.1 costs 1."
//!
//! [`dp_gaussian_em`] is the ablation the paper discusses: Gaussian EM
//! (k-means with per-cluster variances) needs a *third* moment query per
//! iteration, so at a fixed per-iteration budget each query gets less ε —
//! "if their sophistication requires looking too closely at the data, the
//! necessary noise … can counteract these gains."

use dpnet_obs::{emit_phase_global, span};
use pinq::{Queryable, Result};

/// Configuration shared by the private clustering algorithms.
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Dimensionality of the points.
    pub dims: usize,
    /// Number of iterations.
    pub iterations: usize,
    /// ε consumed per iteration (split among that iteration's queries).
    pub eps_per_iteration: f64,
    /// L1 clamp bound for the vector-sum mechanism; points are scaled onto
    /// this ball. Choose ≈ the maximum plausible L1 norm of a point.
    pub l1_bound: f64,
}

/// The trajectory of a clustering run: the centers after every iteration
/// (index 0 is the initial, caller-supplied set).
#[derive(Debug, Clone)]
pub struct ClusteringTrajectory {
    /// `centers[i]` are the centers after `i` iterations.
    pub centers: Vec<Vec<Vec<f64>>>,
}

impl ClusteringTrajectory {
    /// The final centers.
    pub fn last(&self) -> &Vec<Vec<f64>> {
        self.centers.last().expect("at least the initial centers")
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum()
}

fn nearest(point: &[f64], centers: &[Vec<f64>]) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, c) in centers.iter().enumerate() {
        let d = sq_dist(point, c);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// Run DP k-means from `initial` centers (which must be data-independent,
/// e.g. seeded random vectors — the paper initializes all privacy levels
/// from "a common random set of vectors").
///
/// Total privacy cost: `iterations × eps_per_iteration`.
pub fn dp_kmeans(
    data: &Queryable<Vec<f64>>,
    cfg: &KMeansConfig,
    initial: Vec<Vec<f64>>,
) -> Result<ClusteringTrajectory> {
    assert!(!initial.is_empty(), "need at least one center");
    assert!(initial.iter().all(|c| c.len() == cfg.dims));
    let phase = span::enter_timed("dp_kmeans");
    let k = initial.len();
    let mut centers = initial.clone();
    let mut trajectory = vec![initial];

    // Two queries per cluster per iteration; parallel across clusters.
    let eps_q = cfg.eps_per_iteration / 2.0;

    for _ in 0..cfg.iterations {
        let keys: Vec<usize> = (0..k).collect();
        let assign_centers = centers.clone();
        let parts = data.partition(&keys, move |p: &Vec<f64>| nearest(p, &assign_centers))?;
        for (i, part) in parts.iter().enumerate() {
            let count = part.noisy_count(eps_q)?;
            let sum = part.noisy_sum_vector(eps_q, cfg.dims, cfg.l1_bound, |p| p.clone())?;
            if count >= 1.0 {
                centers[i] = sum.iter().map(|s| s / count).collect();
            }
            // Starved clusters keep their previous center, as in PINQ's
            // k-means: a noisy near-zero count would explode the division.
        }
        trajectory.push(centers.clone());
    }
    emit_phase_global(
        "dp_kmeans",
        cfg.iterations as f64 * cfg.eps_per_iteration,
        &phase,
    );
    Ok(ClusteringTrajectory {
        centers: trajectory,
    })
}

/// Run DP "Gaussian EM"-style clustering: like k-means, but each iteration
/// additionally estimates a per-cluster (spherical) variance and assigns
/// points by variance-normalized distance. Three queries per cluster per
/// iteration, so each receives `eps_per_iteration / 3`.
pub fn dp_gaussian_em(
    data: &Queryable<Vec<f64>>,
    cfg: &KMeansConfig,
    initial: Vec<Vec<f64>>,
) -> Result<ClusteringTrajectory> {
    assert!(!initial.is_empty());
    let phase = span::enter_timed("dp_gaussian_em");
    let k = initial.len();
    let mut centers = initial.clone();
    let mut variances = vec![1.0f64; k];
    let mut trajectory = vec![initial];
    let eps_q = cfg.eps_per_iteration / 3.0;
    // Squared distances are clamped to this bound in the variance query.
    let sq_bound = cfg.l1_bound * cfg.l1_bound;

    for _ in 0..cfg.iterations {
        let keys: Vec<usize> = (0..k).collect();
        let assign_centers = centers.clone();
        let assign_vars = variances.clone();
        let parts = data.partition(&keys, move |p: &Vec<f64>| {
            // Variance-normalized assignment.
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for (i, c) in assign_centers.iter().enumerate() {
                let d = sq_dist(p, c) / assign_vars[i].max(1e-6);
                if d < best_d {
                    best_d = d;
                    best = i;
                }
            }
            best
        })?;
        for (i, part) in parts.iter().enumerate() {
            let count = part.noisy_count(eps_q)?;
            let sum = part.noisy_sum_vector(eps_q, cfg.dims, cfg.l1_bound, |p| p.clone())?;
            let center = centers[i].clone();
            let sq_sum = part.noisy_sum_clamped(eps_q, sq_bound, move |p| sq_dist(p, &center))?;
            if count >= 1.0 {
                centers[i] = sum.iter().map(|s| s / count).collect();
                variances[i] = (sq_sum / count / cfg.dims as f64).max(1e-6);
            }
        }
        trajectory.push(centers.clone());
    }
    emit_phase_global(
        "dp_gaussian_em",
        cfg.iterations as f64 * cfg.eps_per_iteration,
        &phase,
    );
    Ok(ClusteringTrajectory {
        centers: trajectory,
    })
}

/// Non-private Lloyd's k-means baseline, returning the same trajectory
/// shape for side-by-side objective curves.
pub fn kmeans_baseline(
    points: &[Vec<f64>],
    iterations: usize,
    initial: Vec<Vec<f64>>,
) -> ClusteringTrajectory {
    let k = initial.len();
    let mut centers = initial.clone();
    let mut trajectory = vec![initial];
    for _ in 0..iterations {
        let mut sums = vec![vec![0.0; centers[0].len()]; k];
        let mut counts = vec![0usize; k];
        for p in points {
            let i = nearest(p, &centers);
            counts[i] += 1;
            for (s, x) in sums[i].iter_mut().zip(p) {
                *s += x;
            }
        }
        for i in 0..k {
            if counts[i] > 0 {
                centers[i] = sums[i].iter().map(|s| s / counts[i] as f64).collect();
            }
        }
        trajectory.push(centers.clone());
    }
    ClusteringTrajectory {
        centers: trajectory,
    }
}

/// The paper's Figure 5 objective: root-mean-square distance from each
/// point to its nearest center.
pub fn clustering_rmse(points: &[Vec<f64>], centers: &[Vec<f64>]) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    let total: f64 = points
        .iter()
        .map(|p| sq_dist(p, &centers[nearest(p, centers)]))
        .sum();
    (total / points.len() as f64).sqrt()
}

/// Seeded, data-independent initial centers in a bounding box.
pub fn random_centers(k: usize, dims: usize, lo: f64, hi: f64, seed: u64) -> Vec<Vec<f64>> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..k)
        .map(|_| (0..dims).map(|_| rng.gen_range(lo..hi)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinq::{Accountant, NoiseSource};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Three well-separated planted clusters in 4 dimensions.
    fn dataset(n_per: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let true_centers = vec![
            vec![5.0, 5.0, 5.0, 5.0],
            vec![20.0, 5.0, 20.0, 5.0],
            vec![5.0, 20.0, 5.0, 20.0],
        ];
        let mut pts = Vec::new();
        for c in &true_centers {
            for _ in 0..n_per {
                pts.push(c.iter().map(|&x| x + rng.gen_range(-1.0..1.0)).collect());
            }
        }
        (pts, true_centers)
    }

    fn protect(points: Vec<Vec<f64>>, budget: f64, seed: u64) -> Queryable<Vec<f64>> {
        let acct = Accountant::new(budget);
        let noise = NoiseSource::seeded(seed);
        Queryable::new(points, &acct, &noise)
    }

    fn cfg() -> KMeansConfig {
        KMeansConfig {
            dims: 4,
            iterations: 8,
            eps_per_iteration: 1.0,
            l1_bound: 100.0,
        }
    }

    #[test]
    fn baseline_recovers_planted_centers() {
        let (pts, truth) = dataset(500, 1);
        // Lloyd's algorithm is init-sensitive; this seed's random centers
        // converge to the planted clusters rather than a local optimum.
        let init = random_centers(3, 4, 0.0, 25.0, 4);
        let traj = kmeans_baseline(&pts, 10, init);
        let final_rmse = clustering_rmse(&pts, traj.last());
        // Within-cluster jitter is ±1 per coordinate: RMSE ≈ sqrt(4/3)≈1.15.
        assert!(final_rmse < 2.0, "baseline RMSE {final_rmse}");
        let _ = truth;
    }

    #[test]
    fn dp_kmeans_approaches_baseline_at_weak_privacy() {
        let (pts, _) = dataset(800, 2);
        let init = random_centers(3, 4, 0.0, 25.0, 7);
        let q = protect(pts.clone(), 1000.0, 3);
        let traj = dp_kmeans(
            &q,
            &KMeansConfig {
                eps_per_iteration: 10.0,
                ..cfg()
            },
            init.clone(),
        )
        .unwrap();
        let base = kmeans_baseline(&pts, 8, init);
        let dp_rmse = clustering_rmse(&pts, traj.last());
        let base_rmse = clustering_rmse(&pts, base.last());
        assert!(
            dp_rmse < base_rmse * 1.3 + 0.5,
            "dp {dp_rmse} vs baseline {base_rmse}"
        );
    }

    #[test]
    fn strong_privacy_is_notably_worse() {
        // Figure 5's qualitative shape: ε=0.1/iteration is visibly worse
        // than ε=10/iteration.
        let (pts, _) = dataset(800, 4);
        let init = random_centers(3, 4, 0.0, 25.0, 7);
        let strong = dp_kmeans(
            &protect(pts.clone(), 1000.0, 5),
            &KMeansConfig {
                eps_per_iteration: 0.05,
                ..cfg()
            },
            init.clone(),
        )
        .unwrap();
        let weak = dp_kmeans(
            &protect(pts.clone(), 1000.0, 5),
            &KMeansConfig {
                eps_per_iteration: 10.0,
                ..cfg()
            },
            init,
        )
        .unwrap();
        let r_strong = clustering_rmse(&pts, strong.last());
        let r_weak = clustering_rmse(&pts, weak.last());
        assert!(
            r_strong > r_weak * 1.2,
            "strong {r_strong} vs weak {r_weak}"
        );
    }

    #[test]
    fn privacy_cost_is_iterations_times_eps() {
        let (pts, _) = dataset(100, 6);
        let acct = Accountant::new(100.0);
        let noise = NoiseSource::seeded(8);
        let q = Queryable::new(pts, &acct, &noise);
        let init = random_centers(3, 4, 0.0, 25.0, 7);
        dp_kmeans(
            &q,
            &KMeansConfig {
                iterations: 5,
                eps_per_iteration: 0.4,
                ..cfg()
            },
            init,
        )
        .unwrap();
        assert!((acct.spent() - 2.0).abs() < 1e-9, "spent {}", acct.spent());
    }

    #[test]
    fn gaussian_em_costs_the_same_but_is_noisier_per_query() {
        let (pts, _) = dataset(200, 9);
        let acct = Accountant::new(100.0);
        let noise = NoiseSource::seeded(10);
        let q = Queryable::new(pts, &acct, &noise);
        let init = random_centers(3, 4, 0.0, 25.0, 7);
        dp_gaussian_em(
            &q,
            &KMeansConfig {
                iterations: 4,
                eps_per_iteration: 0.3,
                ..cfg()
            },
            init,
        )
        .unwrap();
        // Same per-iteration ε as k-means would spend.
        assert!((acct.spent() - 1.2).abs() < 1e-9, "spent {}", acct.spent());
    }

    #[test]
    fn trajectory_includes_initial_centers() {
        let (pts, _) = dataset(50, 11);
        let q = protect(pts, 100.0, 12);
        let init = random_centers(2, 4, 0.0, 25.0, 13);
        let traj = dp_kmeans(
            &q,
            &KMeansConfig {
                iterations: 3,
                ..cfg()
            },
            init.clone(),
        )
        .unwrap();
        assert_eq!(traj.centers.len(), 4);
        assert_eq!(traj.centers[0], init);
    }

    #[test]
    fn rmse_of_perfect_centers_is_zero() {
        let pts = vec![vec![1.0, 2.0], vec![1.0, 2.0]];
        assert_eq!(clustering_rmse(&pts, &[vec![1.0, 2.0]]), 0.0);
        assert_eq!(clustering_rmse(&[], &[vec![0.0]]), 0.0);
    }

    #[test]
    fn random_centers_are_seeded() {
        assert_eq!(
            random_centers(3, 5, 0.0, 1.0, 42),
            random_centers(3, 5, 0.0, 1.0, 42)
        );
        assert_ne!(
            random_centers(3, 5, 0.0, 1.0, 42),
            random_centers(3, 5, 0.0, 1.0, 43)
        );
    }
}

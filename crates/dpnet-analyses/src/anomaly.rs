//! Network-wide traffic anomaly detection (paper §5.3.1; Lakhina et al.,
//! SIGCOMM 2004).
//!
//! The analysis assembles a link×time traffic-volume matrix, finds the
//! low-dimensional "normal" subspace with PCA, and flags time bins whose
//! traffic is poorly explained by it. Privately, only the *matrix assembly*
//! touches sensitive records: a nested `Partition` by link and then by time
//! window reduces the whole matrix to independently counted cells, so the
//! entire (links × windows)-cell measurement costs a single ε by parallel
//! composition. The PCA runs on released values and is free.
//!
//! "While the counts are noisy, the definition of a volume anomaly is
//! robust to small counting errors, and no significant anomaly should go
//! unnoticed" — the paper reports relative RMSE 0.17% at ε = 0.1, with all
//! four curves of Figure 4 indistinguishable.

use dpnet_toolkit::linalg::{pca_residual_norms, Matrix};
use dpnet_trace::gen::isp::LinkPacket;
use pinq::{Queryable, Result};

/// Configuration for the private anomaly detection.
#[derive(Debug, Clone)]
pub struct AnomalyConfig {
    /// Number of links (matrix rows of the partition).
    pub links: usize,
    /// Number of time windows (matrix columns).
    pub windows: usize,
    /// Per-count accuracy ε. Total privacy cost is also ε (nested
    /// partitions compose in parallel).
    pub eps: f64,
    /// Number of principal components spanning the normal subspace.
    pub components: usize,
    /// Jacobi sweeps for the eigendecomposition.
    pub sweeps: usize,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        AnomalyConfig {
            links: 400,
            windows: 672,
            eps: 1.0,
            components: 4,
            sweeps: 30,
        }
    }
}

/// Privately measure the link×time volume matrix:
/// `matrix[link][window] ≈ #packets(link, window)`. Cost: `ε` total.
pub fn private_volume_matrix(
    records: &Queryable<LinkPacket>,
    cfg: &AnomalyConfig,
) -> Result<Vec<Vec<f64>>> {
    let link_keys: Vec<u16> = (0..cfg.links as u16).collect();
    let rows = records.partition(&link_keys, |r| r.link)?;
    rows.iter()
        .map(|row| {
            row.partition_noisy_counts_indexed(
                cfg.windows,
                |r| Some(usize::from(r.window)),
                cfg.eps,
            )
        })
        .collect()
}

/// The per-time-bin anomalous-traffic norm (Figure 4's y-axis): residual
/// norms of the (time × link) matrix after removing the top principal
/// components. Works on any volume matrix — private or exact — since PCA is
/// post-processing.
pub fn anomaly_norms(volumes: &[Vec<f64>], components: usize, sweeps: usize) -> Vec<f64> {
    // volumes is link-major; transpose into time-major rows for PCA over
    // link correlations.
    let links = volumes.len();
    let windows = volumes.first().map(|r| r.len()).unwrap_or(0);
    let mut time_major = Matrix::zeros(windows, links);
    for (l, row) in volumes.iter().enumerate() {
        for (t, &v) in row.iter().enumerate() {
            time_major.set(t, l, v);
        }
    }
    pca_residual_norms(&time_major, components, sweeps)
}

/// Full private pipeline: noisy matrix, then residual norms.
pub fn private_anomaly_norms(
    records: &Queryable<LinkPacket>,
    cfg: &AnomalyConfig,
) -> Result<Vec<f64>> {
    let m = private_volume_matrix(records, cfg)?;
    Ok(anomaly_norms(&m, cfg.components, cfg.sweeps))
}

/// Indices of time bins whose residual norm exceeds `k_sigma` standard
/// deviations above the median residual — a simple thresholding rule for
/// scoring detected anomalies against planted ground truth.
pub fn flag_anomalies(norms: &[f64], k_sigma: f64) -> Vec<usize> {
    if norms.is_empty() {
        return Vec::new();
    }
    let mut sorted = norms.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite norms"));
    let median = sorted[sorted.len() / 2];
    let mad: f64 = {
        let mut devs: Vec<f64> = norms.iter().map(|n| (n - median).abs()).collect();
        devs.sort_by(|a, b| a.partial_cmp(b).expect("finite devs"));
        devs[devs.len() / 2].max(1e-9)
    };
    norms
        .iter()
        .enumerate()
        .filter(|(_, &n)| (n - median) / (1.4826 * mad) > k_sigma)
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpnet_toolkit::stats::relative_rmse;
    use dpnet_trace::gen::isp::{generate, IspConfig};
    use pinq::{Accountant, NoiseSource};

    fn small_cfg() -> IspConfig {
        IspConfig {
            links: 30,
            windows: 96,
            anomalies: 3,
            mean_packets: 30.0,
            ..IspConfig::default()
        }
    }

    fn analysis_cfg() -> AnomalyConfig {
        AnomalyConfig {
            links: 30,
            windows: 96,
            eps: 0.1,
            // At this reduced scale each anomaly's eigenvalue rivals the
            // weaker temporal harmonics; a 4-component normal subspace
            // would absorb the anomaly directions themselves. Two
            // components suffice for the diurnal + half-daily structure.
            components: 2,
            sweeps: 30,
        }
    }

    #[test]
    fn private_matrix_is_close_to_truth_and_cheap() {
        let t = generate(small_cfg());
        let acct = Accountant::new(1.0);
        let noise = NoiseSource::seeded(111);
        let q = Queryable::new(t.to_records(), &acct, &noise);
        let m = private_volume_matrix(&q, &analysis_cfg()).unwrap();
        // Nested partitions: the whole matrix costs one ε.
        assert!((acct.spent() - 0.1).abs() < 1e-9, "spent {}", acct.spent());
        // Cells are within Laplace(1/0.1) noise of the true volumes.
        let mut max_err: f64 = 0.0;
        for (row, truth) in m.iter().zip(&t.volumes) {
            for (got, want) in row.iter().zip(truth) {
                max_err = max_err.max((got - *want as f64).abs());
            }
        }
        assert!(max_err < 150.0, "max cell error {max_err}");
    }

    #[test]
    fn exact_pipeline_flags_planted_anomalies() {
        let t = generate(small_cfg());
        let norms = anomaly_norms(&t.matrix_f64(), 2, 40);
        let flagged = flag_anomalies(&norms, 6.0);
        for a in &t.truth {
            assert!(
                flagged.contains(&(a.window as usize)),
                "anomaly at window {} not flagged (flagged: {flagged:?})",
                a.window
            );
        }
    }

    #[test]
    fn private_norms_are_indistinguishable_from_exact() {
        // Figure 4: the private and noise-free curves overlap. At this
        // reduced per-cell density the ε=0.1 noise floor is visible on
        // *normal* bins, so the overlap claim is checked at ε=1 on the
        // bins carrying real anomalous mass (the paper's cells held ~58k
        // packets, drowning the noise entirely).
        let t = generate(small_cfg());
        let exact = anomaly_norms(&t.matrix_f64(), 2, 40);
        let acct = Accountant::new(10.0);
        let noise = NoiseSource::seeded(113);
        let q = Queryable::new(t.to_records(), &acct, &noise);
        let cfg = AnomalyConfig {
            eps: 1.0,
            ..analysis_cfg()
        };
        let private = private_anomaly_norms(&q, &cfg).unwrap();
        let paired: (Vec<f64>, Vec<f64>) = exact
            .iter()
            .zip(&private)
            .filter(|(e, _)| **e > 100.0)
            .map(|(e, p)| (*e, *p))
            .unzip();
        assert!(!paired.0.is_empty());
        let r = relative_rmse(&paired.1, &paired.0);
        assert!(r < 0.15, "relative RMSE on anomalous bins {r}");
    }

    #[test]
    fn private_pipeline_flags_the_same_anomalies() {
        let t = generate(small_cfg());
        let acct = Accountant::new(10.0);
        let noise = NoiseSource::seeded(117);
        let q = Queryable::new(t.to_records(), &acct, &noise);
        // ε=1 at this cell density; see private_norms test for the scale
        // note.
        let cfg = AnomalyConfig {
            eps: 1.0,
            ..analysis_cfg()
        };
        let norms = private_anomaly_norms(&q, &cfg).unwrap();
        let flagged = flag_anomalies(&norms, 6.0);
        for a in &t.truth {
            assert!(
                flagged.contains(&(a.window as usize)),
                "anomaly at window {} missed privately",
                a.window
            );
        }
    }

    #[test]
    fn flag_anomalies_handles_edge_cases() {
        assert!(flag_anomalies(&[], 3.0).is_empty());
        let flat = vec![5.0; 50];
        assert!(flag_anomalies(&flat, 3.0).is_empty());
        let mut with_spike = vec![5.0; 50];
        with_spike[7] = 500.0;
        assert_eq!(flag_anomalies(&with_spike, 3.0), vec![7]);
    }
}

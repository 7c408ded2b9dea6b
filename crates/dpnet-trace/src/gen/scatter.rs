//! Synthetic IPscatter dataset generator.
//!
//! The paper's IPscatter dataset lists IP addresses and their TTL-derived
//! hop-count distances from 38 PlanetLab monitors (3.8 M `<monitor, IPaddr,
//! ttl>` records), built from the traceroute study of Spring et al. The
//! passive-topology-mapping analysis (Eriksson et al., §5.3.2) clusters IPs
//! by their hop-count vectors: topologically close addresses have similar
//! distances to most monitors.
//!
//! The generator plants `k` topological clusters. Each cluster has a center
//! hop-count vector over the monitors; member IPs observe center + small
//! jitter, and a configurable fraction of (monitor, IP) readings are missing
//! — as in the real data, where not every probe sees every address. Ground
//! truth (cluster assignment and centers) lets the harness score clustering
//! quality at each privacy level, reproducing Figure 5.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One observation: monitor `monitor` saw IP `ip` at `hops` hops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScatterRecord {
    /// Monitor index (0..monitors).
    pub monitor: u16,
    /// Observed IP address.
    pub ip: u32,
    /// Hop count inferred from TTL.
    pub hops: u8,
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct ScatterConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of monitors (the paper's study used 38 PlanetLab sites).
    pub monitors: usize,
    /// Number of IP addresses.
    pub ips: usize,
    /// Number of planted topological clusters.
    pub clusters: usize,
    /// Std of per-member hop jitter around the cluster center.
    pub jitter: f64,
    /// Probability a (monitor, ip) reading is missing.
    pub missing: f64,
}

impl Default for ScatterConfig {
    fn default() -> Self {
        ScatterConfig {
            seed: 0x5ca_77e6,
            monitors: 38,
            ips: 20_000,
            clusters: 9, // the paper's Figure 5 uses nine centers
            jitter: 1.2,
            missing: 0.25,
        }
    }
}

/// The generated dataset with ground truth.
#[derive(Debug, Clone)]
pub struct ScatterTrace {
    /// All observations.
    pub records: Vec<ScatterRecord>,
    /// Cluster center hop-count vectors, `centers[c][monitor]`.
    pub centers: Vec<Vec<f64>>,
    /// True cluster of each IP, indexed by the order IPs were generated;
    /// `ip_cluster[i] = (ip, cluster)`.
    pub ip_cluster: Vec<(u32, usize)>,
    /// Number of monitors.
    pub monitors: usize,
}

/// Generate an IPscatter-style dataset.
pub fn generate(cfg: ScatterConfig) -> ScatterTrace {
    assert!(cfg.monitors > 0 && cfg.clusters > 0 && cfg.ips >= cfg.clusters);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Cluster centers: hop counts in the realistic 5–25 range, with each
    // cluster near some monitors and far from others.
    let centers: Vec<Vec<f64>> = (0..cfg.clusters)
        .map(|_| {
            (0..cfg.monitors)
                .map(|_| rng.gen_range(5.0..25.0))
                .collect()
        })
        .collect();

    let mut records = Vec::new();
    let mut ip_cluster = Vec::with_capacity(cfg.ips);
    for i in 0..cfg.ips {
        // IPs spread over public space; cluster sizes roughly equal with
        // random assignment.
        let cluster = rng.gen_range(0..cfg.clusters);
        let ip: u32 = 0x1000_0000 + i as u32;
        ip_cluster.push((ip, cluster));
        for (m, &center) in centers[cluster].iter().enumerate() {
            if rng.gen::<f64>() < cfg.missing {
                continue;
            }
            let hops = (center + cfg.jitter * crate::gen::util::standard_normal(&mut rng))
                .round()
                .clamp(1.0, 40.0) as u8;
            records.push(ScatterRecord {
                monitor: m as u16,
                ip,
                hops,
            });
        }
    }

    ScatterTrace {
        records,
        centers,
        ip_cluster,
        monitors: cfg.monitors,
    }
}

/// IPs per generation chunk in [`generate_with`]. Fixed (independent of the
/// worker count) so the decomposition — and therefore the output — is a
/// function of the configuration alone.
pub const GEN_CHUNK_IPS: usize = 1024;

/// [`generate`] on a worker pool: IPs are generated in fixed chunks of
/// [`GEN_CHUNK_IPS`], each chunk drawing from its own RNG substream seeded
/// via [`pinq::rng::derive_seed`] from `cfg.seed`, and chunk outputs are
/// concatenated in chunk order.
///
/// Deterministic: a fixed `cfg.seed` yields a bit-identical trace for *any*
/// worker count. The trace differs from the sequential [`generate`] output
/// at the same seed (the draw sequence is partitioned differently); treat
/// the two entry points as distinct dataset families.
pub fn generate_with(cfg: ScatterConfig, pool: &pinq::ExecPool) -> ScatterTrace {
    assert!(cfg.monitors > 0 && cfg.clusters > 0 && cfg.ips >= cfg.clusters);
    let _span = dpnet_obs::span::enter("trace_gen/scatter");
    // Substream 0 is reserved for the centers; chunk c draws from
    // substream c + 1.
    let mut rng = StdRng::seed_from_u64(pinq::rng::derive_seed(cfg.seed, 0));
    let centers: Vec<Vec<f64>> = (0..cfg.clusters)
        .map(|_| {
            (0..cfg.monitors)
                .map(|_| rng.gen_range(5.0..25.0))
                .collect()
        })
        .collect();

    let chunks: Vec<std::ops::Range<usize>> = (0..cfg.ips)
        .step_by(GEN_CHUNK_IPS)
        .map(|s| s..(s + GEN_CHUNK_IPS).min(cfg.ips))
        .collect();
    // One chunk's output: its records and its `(ip, cluster)` assignments.
    type ChunkOut = (Vec<ScatterRecord>, Vec<(u32, usize)>);
    let centers_ref = &centers;
    let cfg_ref = &cfg;
    let per_chunk: Vec<ChunkOut> = pool.run(&chunks, |idx, span| {
        let mut rng = StdRng::seed_from_u64(pinq::rng::derive_seed(cfg_ref.seed, idx as u64 + 1));
        let mut records = Vec::new();
        let mut ip_cluster = Vec::with_capacity(span.len());
        for i in span.clone() {
            let cluster = rng.gen_range(0..cfg_ref.clusters);
            let ip: u32 = 0x1000_0000 + i as u32;
            ip_cluster.push((ip, cluster));
            for (m, &center) in centers_ref[cluster].iter().enumerate() {
                if rng.gen::<f64>() < cfg_ref.missing {
                    continue;
                }
                let hops = (center + cfg_ref.jitter * crate::gen::util::standard_normal(&mut rng))
                    .round()
                    .clamp(1.0, 40.0) as u8;
                records.push(ScatterRecord {
                    monitor: m as u16,
                    ip,
                    hops,
                });
            }
        }
        (records, ip_cluster)
    });

    let mut records = Vec::new();
    let mut ip_cluster = Vec::with_capacity(cfg.ips);
    for (mut rs, mut ics) in per_chunk {
        records.append(&mut rs);
        ip_cluster.append(&mut ics);
    }
    ScatterTrace {
        records,
        centers,
        ip_cluster,
        monitors: cfg.monitors,
    }
}

impl ScatterTrace {
    /// Assemble the per-IP hop-count vectors with missing readings filled by
    /// the per-monitor mean — the noise-free version of the imputation the
    /// private analysis performs with `NoisyAverage` (§5.3.2).
    pub fn vectors_mean_imputed(&self) -> Vec<(u32, Vec<f64>)> {
        let mut sums = vec![0.0f64; self.monitors];
        let mut counts = vec![0usize; self.monitors];
        for r in &self.records {
            sums[r.monitor as usize] += r.hops as f64;
            counts[r.monitor as usize] += 1;
        }
        let means: Vec<f64> = sums
            .iter()
            .zip(&counts)
            .map(|(s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
            .collect();

        let mut per_ip: std::collections::HashMap<u32, Vec<Option<f64>>> =
            std::collections::HashMap::new();
        for r in &self.records {
            per_ip
                .entry(r.ip)
                .or_insert_with(|| vec![None; self.monitors])[r.monitor as usize] =
                Some(r.hops as f64);
        }
        let mut out: Vec<(u32, Vec<f64>)> = per_ip
            .into_iter()
            .map(|(ip, v)| {
                let filled: Vec<f64> = v
                    .into_iter()
                    .enumerate()
                    .map(|(m, x)| x.unwrap_or(means[m]))
                    .collect();
                (ip, filled)
            })
            .collect();
        out.sort_by_key(|(ip, _)| *ip);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ScatterTrace {
        generate(ScatterConfig {
            ips: 2000,
            ..ScatterConfig::default()
        })
    }

    #[test]
    fn record_volume_matches_missing_rate() {
        let t = small();
        let expected = 2000.0 * 38.0 * 0.75;
        let got = t.records.len() as f64;
        assert!(
            (got - expected).abs() / expected < 0.05,
            "records {got} vs expected {expected}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(small().records, small().records);
    }

    #[test]
    fn hops_are_in_plausible_range() {
        let t = small();
        assert!(t.records.iter().all(|r| (1..=40).contains(&r.hops)));
    }

    #[test]
    fn cluster_members_are_near_their_center() {
        let t = small();
        let vectors = t.vectors_mean_imputed();
        let by_ip: std::collections::HashMap<u32, usize> = t.ip_cluster.iter().cloned().collect();
        let mut own_closer = 0usize;
        let mut total = 0usize;
        for (ip, v) in vectors.iter().take(500) {
            let own = by_ip[ip];
            let dist =
                |c: &[f64]| -> f64 { c.iter().zip(v).map(|(a, b)| (a - b).powi(2)).sum::<f64>() };
            let d_own = dist(&t.centers[own]);
            let d_best_other = t
                .centers
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != own)
                .map(|(_, c)| dist(c))
                .fold(f64::INFINITY, f64::min);
            total += 1;
            if d_own < d_best_other {
                own_closer += 1;
            }
        }
        // With jitter 1.2 and mean imputation, the vast majority of IPs are
        // closest to their own center.
        assert!(
            own_closer as f64 / total as f64 > 0.9,
            "{own_closer}/{total} closest to own center"
        );
    }

    #[test]
    fn mean_imputation_fills_every_coordinate() {
        let t = small();
        let vectors = t.vectors_mean_imputed();
        assert_eq!(vectors.len(), 2000);
        assert!(vectors.iter().all(|(_, v)| v.len() == 38));
        assert!(vectors
            .iter()
            .all(|(_, v)| v.iter().all(|x| x.is_finite() && *x > 0.0)));
    }

    #[test]
    fn default_matches_paper_setup() {
        let cfg = ScatterConfig::default();
        assert_eq!(cfg.monitors, 38);
        assert_eq!(cfg.clusters, 9);
    }

    #[test]
    fn parallel_generation_is_identical_for_any_worker_count() {
        let cfg = ScatterConfig {
            ips: 5000,
            ..ScatterConfig::default()
        };
        let gen_with = |workers: usize| {
            let pool = pinq::ExecPool::new(workers).unwrap();
            generate_with(cfg.clone(), &pool)
        };
        let one = gen_with(1);
        for workers in [2, 8] {
            let t = gen_with(workers);
            assert_eq!(one.records, t.records, "workers={workers}");
            assert_eq!(one.ip_cluster, t.ip_cluster, "workers={workers}");
            assert_eq!(one.centers, t.centers, "workers={workers}");
        }
    }

    #[test]
    fn parallel_generation_matches_sequential_statistics() {
        // Not bit-identical to `generate` (different draw partitioning),
        // but the same distribution: record volume within a few percent.
        let cfg = ScatterConfig {
            ips: 4000,
            ..ScatterConfig::default()
        };
        let pool = pinq::ExecPool::new(4).unwrap();
        let t = generate_with(cfg, &pool);
        let expected = 4000.0 * 38.0 * 0.75;
        let got = t.records.len() as f64;
        assert!(
            (got - expected).abs() / expected < 0.05,
            "records {got} vs expected {expected}"
        );
        assert!(t.records.iter().all(|r| (1..=40).contains(&r.hops)));
    }
}

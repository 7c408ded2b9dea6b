//! Standard experiment-scale dataset configurations.
//!
//! Every experiment harness target pulls its data from here, so all
//! tables/figures are computed over the same traces (as in the paper, where
//! all Hotspot experiments share one capture). Datasets are generated once
//! per process and cached; a profiled run sees each generation as one
//! `dataset/<name>` span rather than as unattributed time. Scales are
//! chosen so the full suite runs in minutes on a laptop; the generators
//! accept larger scales for paper-sized runs.

use dpnet_obs::span;
use dpnet_trace::gen::hotspot::{self, HotspotConfig, HotspotTrace};
use dpnet_trace::gen::isp::{self, IspConfig, IspTrace};
use dpnet_trace::gen::scatter::{self, ScatterConfig, ScatterTrace};
use dpnet_trace::Packet;
use std::sync::{Arc, OnceLock};

/// The experiment Hotspot trace (~a few hundred thousand packets; the
/// paper's capture had 7.0 M — same structure, smaller constant).
pub fn hotspot() -> &'static HotspotTrace {
    static CACHE: OnceLock<HotspotTrace> = OnceLock::new();
    CACHE.get_or_init(|| {
        let _span = span::enter("dataset/hotspot");
        hotspot::generate(HotspotConfig::default())
    })
}

/// The experiment Hotspot packets as `Arc`-shared shards, built once per
/// process. Experiments wrap these with
/// `pinq::Queryable::from_shared_shards`, so each protected view costs one
/// reference bump per shard instead of cloning a few hundred thousand
/// packets per run; the flat record order is [`fn@hotspot`]'s packet
/// order, so releases are bit-identical to views over the row vector.
pub fn hotspot_shards() -> &'static Vec<Arc<Vec<Packet>>> {
    static CACHE: OnceLock<Vec<Arc<Vec<Packet>>>> = OnceLock::new();
    CACHE.get_or_init(|| {
        let _span = span::enter("dataset/hotspot_shards");
        hotspot().packet_shards()
    })
}

/// A reduced Hotspot trace for quick runs and 1/10th-data experiments.
pub fn hotspot_tenth() -> &'static HotspotTrace {
    static CACHE: OnceLock<HotspotTrace> = OnceLock::new();
    CACHE.get_or_init(|| {
        let _span = span::enter("dataset/hotspot_tenth");
        let mut cfg = HotspotConfig::default();
        cfg.web_flows /= 10;
        cfg.itemset_hosts /= 10;
        cfg.seed ^= 0x7e47;
        hotspot::generate(cfg)
    })
}

/// The experiment IspTraffic dataset: paper-scale matrix dimensions
/// (400 links × 672 fifteen-minute windows) at reduced per-cell packet
/// density.
pub fn isp() -> &'static IspTrace {
    static CACHE: OnceLock<IspTrace> = OnceLock::new();
    CACHE.get_or_init(|| {
        let _span = span::enter("dataset/isp");
        isp::generate(IspConfig::default())
    })
}

/// A reduced ISP dataset for unit-test-speed runs.
pub fn isp_small() -> &'static IspTrace {
    static CACHE: OnceLock<IspTrace> = OnceLock::new();
    CACHE.get_or_init(|| {
        let _span = span::enter("dataset/isp_small");
        isp::generate(IspConfig {
            links: 60,
            windows: 144,
            anomalies: 6,
            ..IspConfig::default()
        })
    })
}

/// The experiment IPscatter dataset: 38 monitors, planted 9-cluster
/// topology.
pub fn scatter() -> &'static ScatterTrace {
    static CACHE: OnceLock<ScatterTrace> = OnceLock::new();
    CACHE.get_or_init(|| {
        let _span = span::enter("dataset/scatter");
        scatter::generate(ScatterConfig::default())
    })
}

/// The paper's three privacy levels: high, medium, and low privacy.
pub const EPSILONS: [f64; 3] = [0.1, 1.0, 10.0];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotspot_scales_are_consistent() {
        let full = hotspot();
        let tenth = hotspot_tenth();
        let ratio = full.packets.len() as f64 / tenth.packets.len() as f64;
        assert!(ratio > 4.0, "tenth trace not much smaller: ratio {ratio}");
    }

    #[test]
    fn isp_matrix_is_paper_scale() {
        let t = isp();
        assert_eq!(t.links, 400);
        assert_eq!(t.windows, 672);
    }

    #[test]
    fn scatter_has_38_monitors() {
        assert_eq!(scatter().monitors, 38);
    }

    #[test]
    fn caches_return_the_same_instance() {
        assert!(std::ptr::eq(hotspot(), hotspot()));
        assert!(std::ptr::eq(isp_small(), isp_small()));
    }
}

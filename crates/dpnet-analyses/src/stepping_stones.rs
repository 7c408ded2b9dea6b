//! Stepping-stone detection (paper §5.2.2; Zhang & Paxson, USENIX Sec 2000).
//!
//! A stepping stone relays an interactive session through an intermediate
//! host; the telltale is two flows whose idle→active transitions correlate
//! in time, repeatedly. The exact algorithm uses sliding windows
//! (`T_idle` = 0.5 s to declare a flow idle, δ = 40 ms to call two
//! activations correlated), which are awkward under differential privacy.
//! The paper's private pipeline, reproduced here:
//!
//! 1. **Activations via bucketed grouping** — group packets by
//!    (flow, ⌊t/2T⌋); within a bucket there is enough context to confirm an
//!    activation in the bucket's second half. A second pass with times
//!    shifted by `T` recovers activations in first halves. (Two groupings →
//!    the extraction carries stability 4.)
//! 2. **Discover busy flows** — the frequent-string tool over encoded flow
//!    keys finds flows with many activations, without being told any flow
//!    identities up front.
//! 3. **Candidate pairs via itemset mining** — bin activations by δ, treat
//!    each bin's set of active flows as a record, and mine frequent pairs.
//!    This replaces a second sliding window; the paper chose the same
//!    trade-off ("the double groupings required double the noise we must
//!    suffer … a better option is to bin the activations").
//! 4. **Evaluate candidates** — `Partition` activations by flow and, for
//!    each candidate pair, count δ-bins containing both flows (a `Join` of
//!    the two parts on bin index) against bins containing the first.
//!
//! The paper's Table 5 evaluates the top-20 pairs per ε against a faithful
//! non-private implementation (their Perl script; here
//! [`exact_pair_correlation`]).

use dpnet_toolkit::freqstrings::{frequent_strings, FrequentStringsConfig};
use dpnet_toolkit::itemsets::{frequent_itemsets, ItemsetConfig};
use dpnet_trace::{FlowKey, Packet};
use pinq::{Group, Queryable, Result};
use std::collections::BTreeSet;

/// Parameters of the private stepping-stone analysis.
#[derive(Debug, Clone)]
pub struct SteppingStoneConfig {
    /// Idle timeout `T_idle` (paper: 0.5 s).
    pub t_idle_us: u64,
    /// Correlation window δ (paper: 40 ms).
    pub delta_us: u64,
    /// Per-aggregation accuracy ε (the paper's 0.1 / 1.0 / 10.0 axis).
    pub eps: f64,
    /// Activation-count threshold for a flow to be considered at all
    /// (the paper focuses on flows with 1200–1400 activations; scale to
    /// the generated trace).
    pub flow_threshold: f64,
    /// Bins-containing-both threshold for candidate pair mining.
    pub pair_threshold: f64,
    /// How many top pairs to report (paper: 20).
    pub top_k: usize,
}

impl Default for SteppingStoneConfig {
    fn default() -> Self {
        SteppingStoneConfig {
            t_idle_us: 500_000,
            delta_us: 40_000,
            eps: 1.0,
            flow_threshold: 80.0,
            pair_threshold: 30.0,
            top_k: 20,
        }
    }
}

/// A reported stepping-stone candidate pair.
#[derive(Debug, Clone, PartialEq)]
pub struct StonePair {
    /// First flow of the pair.
    pub flow_a: FlowKey,
    /// Second flow of the pair.
    pub flow_b: FlowKey,
    /// Noisy bucketed correlation: bins containing both / bins containing
    /// the first flow.
    pub noisy_correlation: f64,
}

/// Encode a flow key as 13 bytes for the frequent-string machinery.
pub fn encode_flow(k: &FlowKey) -> Vec<u8> {
    let mut out = Vec::with_capacity(13);
    out.extend_from_slice(&k.src_ip.to_be_bytes());
    out.extend_from_slice(&k.dst_ip.to_be_bytes());
    out.extend_from_slice(&k.src_port.to_be_bytes());
    out.extend_from_slice(&k.dst_port.to_be_bytes());
    out.push(k.proto);
    out
}

/// Decode a 13-byte flow key. Returns `None` on wrong length.
pub fn decode_flow(bytes: &[u8]) -> Option<FlowKey> {
    if bytes.len() != 13 {
        return None;
    }
    Some(FlowKey {
        src_ip: u32::from_be_bytes(bytes[0..4].try_into().ok()?),
        dst_ip: u32::from_be_bytes(bytes[4..8].try_into().ok()?),
        src_port: u16::from_be_bytes(bytes[8..10].try_into().ok()?),
        dst_port: u16::from_be_bytes(bytes[10..12].try_into().ok()?),
        proto: bytes[12],
    })
}

/// Confirm the bucketed activation of one (flow, bucket) group: the last
/// packet in the bucket's second half with no same-flow packet in the
/// preceding `t_idle` — checkable entirely within the bucket.
fn bucket_activation(
    g: &Group<(FlowKey, u64), Packet>,
    t_idle_us: u64,
    shift: u64,
) -> Option<(FlowKey, u64)> {
    let width = 2 * t_idle_us;
    let bucket_start = g.key.1 * width;
    // Times are virtual (possibly shifted); activations report real time.
    let mut times: Vec<u64> = g.items.iter().map(|p| p.ts_us + shift).collect();
    times.sort_unstable();
    // Scan from the latest packet down, looking for a confirmed activation
    // in the second half.
    for (i, &t) in times.iter().enumerate().rev() {
        if t < bucket_start + t_idle_us {
            break; // first half: not confirmable in this pass
        }
        let quiet = times[..i]
            .iter()
            .all(|&prev| t.saturating_sub(prev) >= t_idle_us);
        if quiet {
            return Some((g.key.0, t - shift));
        }
    }
    None
}

/// Extract activations privately with the two-pass bucketed grouping.
/// The result is a protected dataset of `(flow, activation time)` records
/// with stability 4 relative to the packets (two `GroupBy` passes,
/// concatenated).
pub fn private_activations(
    packets: &Queryable<Packet>,
    t_idle_us: u64,
) -> Queryable<(FlowKey, u64)> {
    let width = 2 * t_idle_us;
    let pass = |shift: u64| {
        packets
            .group_by(move |p| (FlowKey::of(p), (p.ts_us + shift) / width))
            .map(move |g| bucket_activation(g, t_idle_us, shift))
            .filter(|a| a.is_some())
            .map(|a| a.expect("filtered to Some"))
    };
    let unshifted = pass(0);
    let shifted = pass(t_idle_us);
    unshifted.concat(&shifted)
}

/// Run the full private stepping-stone analysis, returning the top pairs by
/// noisy bucketed correlation.
pub fn stepping_stones(
    packets: &Queryable<Packet>,
    cfg: &SteppingStoneConfig,
) -> Result<Vec<StonePair>> {
    let acts = private_activations(packets, cfg.t_idle_us);

    // Step 2: discover flows with enough activations, spelling out their
    // 13-byte keys with the frequent-string tool.
    let flow_bytes = acts.map(|(flow, _)| encode_flow(flow));
    let found = frequent_strings(
        &flow_bytes,
        Vec::as_slice,
        &FrequentStringsConfig {
            length: 13,
            eps_per_level: cfg.eps,
            threshold: cfg.flow_threshold,
            max_viable: 512,
        },
    )?;
    let flows: Vec<FlowKey> = found.iter().filter_map(|f| decode_flow(&f.bytes)).collect();
    if flows.len() < 2 {
        return Ok(Vec::new());
    }

    // Step 3: candidate pairs by itemset mining over per-bin flow sets.
    let delta = cfg.delta_us;
    let bins = acts
        .group_by(move |(_, ts)| ts / delta)
        .map(|g| -> BTreeSet<Vec<u8>> {
            g.items.iter().map(|(flow, _)| encode_flow(flow)).collect()
        });
    let universe: Vec<Vec<u8>> = flows.iter().map(encode_flow).collect();
    let mined = frequent_itemsets(
        &bins,
        &ItemsetConfig {
            universe,
            max_size: 2,
            eps_per_level: cfg.eps,
            threshold: cfg.pair_threshold,
        },
    )?;
    let mut candidates: Vec<(FlowKey, FlowKey, f64)> = mined
        .into_iter()
        .filter(|m| m.size == 2)
        .filter_map(|m| {
            let a = decode_flow(&m.items[0])?;
            let b = decode_flow(&m.items[1])?;
            Some((a, b, m.noisy_count))
        })
        .collect();
    candidates.sort_by(|x, y| y.2.partial_cmp(&x.2).expect("finite counts"));
    candidates.truncate(cfg.top_k);

    // Step 4: evaluate candidates — partition activations by flow, join the
    // two parts of each pair on δ-bin index.
    let flow_keys: Vec<FlowKey> = flows.clone();
    let parts = acts.partition(&flow_keys, |(flow, _)| *flow)?;
    let index_of = |k: &FlowKey| flow_keys.iter().position(|f| f == k);

    let mut out = Vec::new();
    for (a, b, _) in candidates {
        let (Some(ia), Some(ib)) = (index_of(&a), index_of(&b)) else {
            continue;
        };
        let bins_a = parts[ia].map(move |(_, ts)| ts / delta).distinct();
        // B's activation lags A's by up to δ, so it may land in A's bin or
        // the next one; expanding each B bin to {k, k−1} (SelectMany with
        // bound 2, doubling that side's budget cost) removes the bin-
        // boundary undercount of the plain binning approximation.
        let bins_b = parts[ib]
            .select_many(2, move |(_, ts)| {
                let k = ts / delta;
                if k > 0 {
                    vec![k, k - 1]
                } else {
                    vec![k]
                }
            })?
            .distinct();
        let both = bins_a.join(&bins_b, |&x| x, |&x| x);
        let n_both = both.noisy_count(cfg.eps)?;
        let n_a = bins_a.noisy_count(cfg.eps)?;
        let corr = if n_a > 1.0 {
            (n_both / n_a).clamp(-1.0, 2.0)
        } else {
            0.0
        };
        out.push(StonePair {
            flow_a: a,
            flow_b: b,
            noisy_correlation: corr,
        });
    }
    out.sort_by(|x, y| {
        y.noisy_correlation
            .partial_cmp(&x.noisy_correlation)
            .expect("finite correlations")
    });
    Ok(out)
}

/// The faithful non-private reference (the paper's Perl script): exact
/// sliding-window activations and exact Zhang-Paxson correlation for one
/// ordered pair of flows.
pub fn exact_pair_correlation(
    packets: &[Packet],
    a: &FlowKey,
    b: &FlowKey,
    t_idle_us: u64,
    delta_us: u64,
) -> f64 {
    let acts = dpnet_trace::tcp::activations(packets, t_idle_us);
    let ta: Vec<u64> = acts
        .iter()
        .filter(|x| x.flow == *a)
        .map(|x| x.ts_us)
        .collect();
    let tb: Vec<u64> = acts
        .iter()
        .filter(|x| x.flow == *b)
        .map(|x| x.ts_us)
        .collect();
    dpnet_trace::tcp::activation_correlation(&ta, &tb, delta_us)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpnet_trace::gen::hotspot::{generate, HotspotConfig};
    use pinq::{Accountant, NoiseSource};

    fn trace() -> dpnet_trace::gen::hotspot::HotspotTrace {
        generate(HotspotConfig {
            web_flows: 50,
            worms_above_threshold: 0,
            worms_below_threshold: 0,
            stepping_stone_pairs: 5,
            interactive_decoys: 8,
            itemset_hosts: 0,
            ..HotspotConfig::default()
        })
    }

    fn protect(pkts: Vec<Packet>, seed: u64) -> (Accountant, Queryable<Packet>) {
        let acct = Accountant::new(1_000_000.0);
        let noise = NoiseSource::seeded(seed);
        (acct.clone(), Queryable::new(pkts, &acct, &noise))
    }

    #[test]
    fn flow_key_encoding_round_trips() {
        let k = FlowKey {
            src_ip: 0x0a00_0001,
            dst_ip: 0x0808_0808,
            src_port: 40123,
            dst_port: 22,
            proto: 6,
        };
        assert_eq!(decode_flow(&encode_flow(&k)), Some(k));
        assert_eq!(decode_flow(&[1, 2, 3]), None);
    }

    #[test]
    fn bucketed_activations_approximate_exact_ones() {
        let t = trace();
        let exact = dpnet_trace::tcp::activations(&t.packets, 500_000);
        let (_, q) = protect(t.packets.clone(), 91);
        let acts = private_activations(&q, 500_000);
        // Count privately at very weak privacy to read the value.
        let n = acts.noisy_count(1000.0).unwrap();
        let exact_n = exact.len() as f64;
        // The two-pass bucketing recovers the large majority of the exact
        // activations (interactive traffic here is built from well-spaced
        // bursts).
        assert!(
            (n - exact_n).abs() / exact_n < 0.25,
            "bucketed {n} vs exact {exact_n}"
        );
    }

    #[test]
    fn activation_extraction_has_stability_four() {
        let t = trace();
        let acct = Accountant::new(100.0);
        let noise = NoiseSource::seeded(93);
        let q = Queryable::new(t.packets, &acct, &noise);
        let acts = private_activations(&q, 500_000);
        acts.noisy_count(0.5).unwrap();
        // Two GroupBy passes (stability 2 each) concatenated: 2·0.5 + 2·0.5.
        assert!((acct.spent() - 2.0).abs() < 1e-9, "spent {}", acct.spent());
    }

    #[test]
    fn planted_stones_rank_highly_at_weak_privacy() {
        let t = trace();
        let (_, q) = protect(t.packets.clone(), 97);
        let cfg = SteppingStoneConfig {
            eps: 10.0,
            flow_threshold: 80.0,
            pair_threshold: 20.0,
            top_k: 10,
            ..SteppingStoneConfig::default()
        };
        let pairs = stepping_stones(&q, &cfg).unwrap();
        assert!(!pairs.is_empty(), "no pairs found");
        // Check that most top pairs are planted stones (in either order).
        let planted: std::collections::HashSet<(FlowKey, FlowKey)> = t
            .truth
            .stones
            .iter()
            .flat_map(|s| [(s.flow_a, s.flow_b), (s.flow_b, s.flow_a)])
            .collect();
        let hits = pairs
            .iter()
            .take(5)
            .filter(|p| planted.contains(&(p.flow_a, p.flow_b)))
            .count();
        assert!(hits >= 3, "only {hits}/5 top pairs are planted stones");
    }

    #[test]
    fn noisy_correlation_tracks_exact_correlation() {
        let t = trace();
        let (_, q) = protect(t.packets.clone(), 101);
        let cfg = SteppingStoneConfig {
            eps: 10.0,
            flow_threshold: 80.0,
            pair_threshold: 20.0,
            top_k: 8,
            ..SteppingStoneConfig::default()
        };
        let pairs = stepping_stones(&q, &cfg).unwrap();
        for p in pairs.iter().take(4) {
            let exact = exact_pair_correlation(
                &t.packets,
                &p.flow_a,
                &p.flow_b,
                cfg.t_idle_us,
                cfg.delta_us,
            )
            .max(exact_pair_correlation(
                &t.packets,
                &p.flow_b,
                &p.flow_a,
                cfg.t_idle_us,
                cfg.delta_us,
            ));
            assert!(
                (p.noisy_correlation - exact).abs() < 0.35,
                "noisy {} vs exact {exact}",
                p.noisy_correlation
            );
        }
    }

    #[test]
    fn exact_correlation_of_planted_pairs_is_high() {
        let t = trace();
        for s in &t.truth.stones {
            let c = exact_pair_correlation(&t.packets, &s.flow_a, &s.flow_b, 500_000, 40_000);
            assert!(c > 0.5, "stone correlation {c} (rho {})", s.rho);
        }
    }

    #[test]
    fn unrelated_flows_have_low_exact_correlation() {
        let t = trace();
        // Correlate the first stone's A-flow against a different stone's
        // B-flow: unrelated trains.
        if t.truth.stones.len() >= 2 {
            let c = exact_pair_correlation(
                &t.packets,
                &t.truth.stones[0].flow_a,
                &t.truth.stones[1].flow_b,
                500_000,
                40_000,
            );
            assert!(c < 0.3, "unrelated correlation {c}");
        }
    }
}

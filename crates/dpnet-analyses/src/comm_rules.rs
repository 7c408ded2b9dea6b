//! Learning communication rules (paper §5.2.3; Kandula, Chandra & Katabi,
//! "What's going on? Learning communication rules in edge networks",
//! SIGCOMM 2008).
//!
//! The paper states it reproduced this association-rule-mining analysis
//! "with a high fidelity" but omitted results for space. The analysis asks:
//! which destination pairs does a client tend to contact *together*? Rules
//! like "whoever fetches from web server W also queries resolver D" expose
//! service dependencies.
//!
//! Private pipeline, assembled entirely from the §4 toolkit:
//!
//! 1. **Discover popular servers** — frequent-string search over the 4-byte
//!    destination addresses of client-originated packets (4 rounds).
//! 2. **Form transactions** — group packets by (client, time window); each
//!    group's set of contacted servers is one record (`GroupBy`,
//!    stability 2).
//! 3. **Mine pairs** — DP apriori over the transactions with the discovered
//!    servers as universe.
//! 4. **Refine supports** — apriori's `Partition` dilutes supports (a
//!    record's evidence goes to one candidate), which skews confidence
//!    ratios. For the *discovered* pairs, supports are re-measured
//!    undiluted with a bounded `SelectMany` expansion (each transaction
//!    contributes to every server/pair it contains, at stability
//!    × fan-out), and rules are scored from those.

use dpnet_toolkit::freqstrings::{frequent_strings, FrequentStringsConfig};
use dpnet_toolkit::itemsets::{frequent_itemsets, ItemsetConfig};
use dpnet_trace::Packet;
use pinq::{Queryable, Result};
use std::collections::BTreeSet;

/// Configuration of the communication-rule analysis.
#[derive(Debug, Clone)]
pub struct CommRulesConfig {
    /// Client subnet as (prefix, mask): packets whose source matches are
    /// client-originated. The data owner knows its own address plan.
    pub client_prefix: u32,
    /// Netmask for `client_prefix`.
    pub client_mask: u32,
    /// Transaction window width in microseconds.
    pub window_us: u64,
    /// Per-aggregation accuracy ε.
    pub eps: f64,
    /// Noisy-count threshold for a server to enter the universe.
    pub server_threshold: f64,
    /// Noisy-count threshold for itemset mining.
    pub pair_threshold: f64,
    /// Minimum confidence for a reported rule.
    pub min_confidence: f64,
    /// Fan-out bound of the support-refinement expansion: at most this many
    /// universe servers per transaction are counted (stability multiplier).
    pub expansion_bound: usize,
}

impl Default for CommRulesConfig {
    fn default() -> Self {
        CommRulesConfig {
            client_prefix: 0x0a00_0000, // 10.0.0.0/8
            client_mask: 0xff00_0000,
            window_us: 10_000_000,
            eps: 1.0,
            server_threshold: 50.0,
            pair_threshold: 20.0,
            min_confidence: 0.3,
            expansion_bound: 3,
        }
    }
}

/// A discovered communication rule: clients contacting `trigger` also
/// contact `implied`.
#[derive(Debug, Clone, PartialEq)]
pub struct CommRule {
    /// The antecedent server.
    pub trigger: u32,
    /// The implied server.
    pub implied: u32,
    /// Noisy partitioned support of the pair.
    pub support: f64,
    /// Estimated confidence.
    pub confidence: f64,
}

/// Transaction item space: server IPs as `u64`, plus per-transaction
/// markers above 2³² that never collide with addresses.
const MARKER_BASE: u64 = 1 << 33;

/// Run the private communication-rule analysis.
///
/// Privacy cost with the default `expansion_bound = 3`:
/// `4ε` (server discovery) + `2·2ε` (two mining levels, stability 2) +
/// `2·3ε` (singleton refinement) + `2·3ε` (pair refinement) = `20ε`.
pub fn communication_rules(
    packets: &Queryable<Packet>,
    cfg: &CommRulesConfig,
) -> Result<Vec<CommRule>> {
    let prefix = cfg.client_prefix;
    let mask = cfg.client_mask;
    let outbound = packets.filter(move |p| p.src_ip & mask == prefix);

    // Step 1: discover popular servers by their 4-byte addresses.
    let dst_bytes = outbound.map(|p| p.dst_ip.to_be_bytes().to_vec());
    let servers = frequent_strings(
        &dst_bytes,
        Vec::as_slice,
        &FrequentStringsConfig {
            length: 4,
            eps_per_level: cfg.eps,
            threshold: cfg.server_threshold,
            max_viable: 256,
        },
    )?;
    let universe: Vec<u64> = servers
        .iter()
        .filter_map(|s| {
            let bytes: [u8; 4] = s.bytes.as_slice().try_into().ok()?;
            Some(u32::from_be_bytes(bytes) as u64)
        })
        .collect();
    if universe.len() < 2 {
        return Ok(Vec::new());
    }

    // Step 2: transactions = per-(client, window) sets of contacted
    // servers, with a unique marker item for partition-rotation diversity.
    let window = cfg.window_us;
    let transactions = outbound
        .group_by(move |p| (p.src_ip, p.ts_us / window))
        .map(|g| -> BTreeSet<u64> {
            let mut set: BTreeSet<u64> = g.items.iter().map(|p| p.dst_ip as u64).collect();
            set.insert(MARKER_BASE + ((g.key.0 as u64) << 20) + (g.key.1 & 0xfffff));
            set
        });

    // Step 3: mine frequent server pairs (candidate discovery).
    let mined = frequent_itemsets(
        &transactions,
        &ItemsetConfig {
            universe: universe.clone(),
            max_size: 2,
            eps_per_level: cfg.eps,
            threshold: cfg.pair_threshold,
        },
    )?;
    let candidate_pairs: Vec<(u64, u64)> = mined
        .iter()
        .filter(|m| m.size == 2)
        .map(|m| (m.items[0], m.items[1]))
        .collect();
    if candidate_pairs.is_empty() {
        return Ok(Vec::new());
    }

    // Step 4: undiluted supports for the discovered servers and pairs, via
    // bounded SelectMany expansion (every transaction contributes to every
    // server / pair it contains, up to the fan-out bound).
    let bound = cfg.expansion_bound.max(1);
    let uni = universe.clone();
    let singles = transactions.select_many(bound, move |set: &BTreeSet<u64>| {
        set.iter()
            .filter(|i| uni.contains(i))
            .take(bound)
            .cloned()
            .collect()
    })?;
    let single_counts = singles.partition_noisy_counts(&universe, |&s| s, cfg.eps)?;
    let single_support: std::collections::HashMap<u64, f64> =
        universe.iter().copied().zip(single_counts).collect();

    let pair_bound = bound * (bound - 1) / 2;
    let uni = universe.clone();
    let pairs_q = transactions.select_many(pair_bound.max(1), move |set: &BTreeSet<u64>| {
        let members: Vec<u64> = set
            .iter()
            .filter(|i| uni.contains(i))
            .take(bound)
            .cloned()
            .collect();
        let mut out = Vec::new();
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                out.push((members[i], members[j]));
            }
        }
        out
    })?;
    let pair_counts = pairs_q.partition_noisy_counts(&candidate_pairs, |&p| p, cfg.eps)?;

    // Rules from refined counts (ranking mirrors the association-rule
    // layer; see `dpnet_toolkit::assoc` for the generic free-post-
    // processing variant used when refinement is too expensive).
    let mut rules = Vec::new();
    for (&(a, b), pair_support) in candidate_pairs.iter().zip(pair_counts) {
        for (trigger, implied) in [(a, b), (b, a)] {
            let denom = single_support.get(&trigger).copied().unwrap_or(0.0);
            if denom < 1.0 {
                continue;
            }
            let confidence = (pair_support / denom).clamp(0.0, 1.0);
            if confidence >= cfg.min_confidence {
                rules.push(CommRule {
                    trigger: trigger as u32,
                    implied: implied as u32,
                    support: pair_support,
                    confidence,
                });
            }
        }
    }
    rules.sort_by(|x, y| {
        y.confidence
            .partial_cmp(&x.confidence)
            .expect("finite confidence")
            .then(y.support.partial_cmp(&x.support).expect("finite support"))
    });
    Ok(rules)
}

/// Exact confidence of one rule: among (client, window) transactions that
/// contact `trigger`, the fraction that also contact `implied`.
pub fn exact_rule_confidence(
    packets: &[Packet],
    cfg: &CommRulesConfig,
    trigger: u32,
    implied: u32,
) -> f64 {
    use std::collections::{HashMap, HashSet};
    let mut transactions: HashMap<(u32, u64), HashSet<u32>> = HashMap::new();
    for p in packets {
        if p.src_ip & cfg.client_mask == cfg.client_prefix {
            transactions
                .entry((p.src_ip, p.ts_us / cfg.window_us))
                .or_default()
                .insert(p.dst_ip);
        }
    }
    let with_trigger: Vec<&HashSet<u32>> = transactions
        .values()
        .filter(|s| s.contains(&trigger))
        .collect();
    if with_trigger.is_empty() {
        return 0.0;
    }
    let both = with_trigger.iter().filter(|s| s.contains(&implied)).count();
    both as f64 / with_trigger.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpnet_trace::gen::hotspot::{generate, HotspotConfig};
    use pinq::{Accountant, NoiseSource};

    fn trace() -> dpnet_trace::gen::hotspot::HotspotTrace {
        generate(HotspotConfig {
            web_flows: 600,
            worms_above_threshold: 0,
            worms_below_threshold: 0,
            stepping_stone_pairs: 0,
            interactive_decoys: 0,
            itemset_hosts: 0,
            ..HotspotConfig::default()
        })
    }

    fn protect(pkts: Vec<Packet>, seed: u64) -> (Accountant, Queryable<Packet>) {
        let acct = Accountant::new(1e6);
        let noise = NoiseSource::seeded(seed);
        (acct.clone(), Queryable::new(pkts, &acct, &noise))
    }

    #[test]
    fn dns_dependency_is_discovered() {
        let t = trace();
        let (_, q) = protect(t.packets.clone(), 201);
        let rules = communication_rules(&q, &CommRulesConfig::default()).unwrap();
        assert!(!rules.is_empty(), "no rules found");
        let dns = t.truth.dns_server;
        // Some popular server implies the resolver with decent confidence.
        let dns_rules: Vec<&CommRule> = rules.iter().filter(|r| r.implied == dns).collect();
        assert!(
            !dns_rules.is_empty(),
            "no rule implies the resolver; rules: {rules:?}"
        );
        assert!(dns_rules.iter().any(|r| r.confidence > 0.5));
    }

    #[test]
    fn companion_dependency_is_discovered() {
        let t = trace();
        let (_, q) = protect(t.packets.clone(), 203);
        let cfg = CommRulesConfig {
            pair_threshold: 10.0,
            ..CommRulesConfig::default()
        };
        let rules = communication_rules(&q, &cfg).unwrap();
        let (popular, companion) = t.truth.companion_rule;
        assert!(
            rules
                .iter()
                .any(|r| r.trigger == popular && r.implied == companion),
            "companion rule not found"
        );
    }

    #[test]
    fn noisy_confidence_tracks_exact_confidence() {
        let t = trace();
        let (_, q) = protect(t.packets.clone(), 207);
        let cfg = CommRulesConfig {
            eps: 10.0,
            ..CommRulesConfig::default()
        };
        let rules = communication_rules(&q, &cfg).unwrap();
        assert!(!rules.is_empty());
        for r in rules.iter().take(5) {
            let exact = exact_rule_confidence(&t.packets, &cfg, r.trigger, r.implied);
            // Refined (undiluted) supports track exact confidence closely;
            // the residual gap is the expansion-bound truncation plus noise.
            assert!(
                (r.confidence - exact).abs() < 0.2,
                "rule {:x}->{:x}: noisy {} vs exact {exact}",
                r.trigger,
                r.implied,
                r.confidence
            );
        }
    }

    #[test]
    fn privacy_cost_matches_the_formula() {
        let t = trace();
        let (acct, q) = protect(t.packets, 211);
        let cfg = CommRulesConfig {
            eps: 0.5,
            ..CommRulesConfig::default()
        };
        communication_rules(&q, &cfg).unwrap();
        // 4 discovery + 2·2 mining + 2·3 singles + 2·3 pairs = 20 × 0.5.
        assert!((acct.spent() - 10.0).abs() < 1e-9, "spent {}", acct.spent());
    }

    #[test]
    fn exact_confidence_of_planted_dns_rule_is_high() {
        let t = trace();
        let cfg = CommRulesConfig::default();
        // The most popular server: trigger of the companion rule.
        let (popular, _) = t.truth.companion_rule;
        let c = exact_rule_confidence(&t.packets, &cfg, popular, t.truth.dns_server);
        assert!(c > 0.55, "dns rule confidence {c}");
    }

    #[test]
    fn rules_require_discoverable_universe() {
        // With an absurd server threshold nothing is popular → no rules.
        let t = trace();
        let (_, q) = protect(t.packets, 213);
        let cfg = CommRulesConfig {
            server_threshold: 1e9,
            ..CommRulesConfig::default()
        };
        assert!(communication_rules(&q, &cfg).unwrap().is_empty());
    }
}

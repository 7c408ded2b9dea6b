//! Association-rule mining on top of frequent itemsets.
//!
//! The paper reports (§5.2.3): "we are able to reproduce the
//! association-rule mining based analysis of Kandula et al. [What's going
//! on? Learning communication rules in edge networks, SIGCOMM 2008] with a
//! high fidelity; we omit results due to space constraints." This module
//! supplies that layer: given frequent itemsets (already privately mined —
//! their noisy counts are released values), derive rules `A ⇒ B` with
//! estimated support and confidence as pure post-processing, at **zero
//! additional privacy cost**.
//!
//! Confidence uses the *partitioned* supports the miner releases. Because
//! partitioning splits a record's evidence among the itemsets it supports,
//! partitioned supports are scaled-down estimates of true supports; ratios
//! of them remain meaningful for ranking (both numerator and denominator
//! shrink by comparable dilution), and the companion experiment validates
//! rule recovery against planted ground truth.

use crate::itemsets::FrequentItemset;
use dpnet_obs::{emit_phase_global, span};
use std::collections::HashMap;
use std::hash::Hash;

/// An association rule `antecedent ⇒ consequent`.
#[derive(Debug, Clone, PartialEq)]
pub struct AssociationRule<I> {
    /// Items on the left-hand side.
    pub antecedent: Vec<I>,
    /// Items implied on the right-hand side.
    pub consequent: Vec<I>,
    /// Noisy (partitioned) support of the combined itemset.
    pub support: f64,
    /// Estimated confidence: support(A∪B) / support(A), clamped to [0, 1].
    pub confidence: f64,
}

/// Derive association rules from mined itemsets.
///
/// Every frequent itemset of size ≥ 2 is split into each (non-empty
/// antecedent, single-item consequent) combination; rules whose confidence
/// clears `min_confidence` are returned, sorted by confidence then support,
/// descending. Free post-processing: no queryable access, no budget.
pub fn association_rules<I>(
    itemsets: &[FrequentItemset<I>],
    min_confidence: f64,
) -> Vec<AssociationRule<I>>
where
    I: Ord + Hash + Clone,
{
    let phase = span::enter_timed("association_rules");
    // Index supports by itemset for denominator lookups.
    let support_of: HashMap<Vec<I>, f64> = itemsets
        .iter()
        .map(|m| (m.items.clone(), m.noisy_count))
        .collect();

    let mut rules = Vec::new();
    for m in itemsets.iter().filter(|m| m.size >= 2) {
        for skip in 0..m.items.len() {
            let consequent = vec![m.items[skip].clone()];
            let antecedent: Vec<I> = m
                .items
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, x)| x.clone())
                .collect();
            let Some(&ant_support) = support_of.get(&antecedent) else {
                continue; // antecedent was not itself frequent
            };
            if ant_support <= 0.0 {
                continue;
            }
            let confidence = (m.noisy_count / ant_support).clamp(0.0, 1.0);
            if confidence >= min_confidence {
                rules.push(AssociationRule {
                    antecedent,
                    consequent,
                    support: m.noisy_count,
                    confidence,
                });
            }
        }
    }
    rules.sort_by(|a, b| {
        b.confidence
            .partial_cmp(&a.confidence)
            .expect("finite confidence")
            .then(b.support.partial_cmp(&a.support).expect("finite support"))
    });
    // Pure post-processing of released counts: ε cost is zero, and the
    // phase event says so explicitly in the owner's timeline.
    emit_phase_global("association_rules", 0.0, &phase);
    rules
}

#[cfg(test)]
mod tests {
    use super::*;

    fn itemset(items: &[u16], count: f64, size: usize) -> FrequentItemset<u16> {
        FrequentItemset {
            items: items.to_vec(),
            noisy_count: count,
            size,
        }
    }

    fn mined() -> Vec<FrequentItemset<u16>> {
        vec![
            itemset(&[53], 800.0, 1),
            itemset(&[80], 500.0, 1),
            itemset(&[443], 300.0, 1),
            itemset(&[53, 80], 450.0, 2), // 80 ⇒ 53 at 0.9
            itemset(&[80, 443], 60.0, 2), // 443 ⇒ 80 at 0.2
        ]
    }

    #[test]
    fn high_confidence_rules_are_found_and_ranked() {
        let rules = association_rules(&mined(), 0.5);
        assert!(!rules.is_empty());
        // Best rule: {80} ⇒ {53} with confidence 450/500 = 0.9.
        assert_eq!(rules[0].antecedent, vec![80]);
        assert_eq!(rules[0].consequent, vec![53]);
        assert!((rules[0].confidence - 0.9).abs() < 1e-9);
        // {53} ⇒ {80}: 450/800 ≈ 0.5625 also clears 0.5.
        assert!(rules
            .iter()
            .any(|r| r.antecedent == vec![53] && r.consequent == vec![80]));
    }

    #[test]
    fn low_confidence_rules_are_filtered() {
        let rules = association_rules(&mined(), 0.5);
        assert!(!rules
            .iter()
            .any(|r| r.antecedent == vec![443] && r.confidence < 0.5));
        // With the bar lowered they appear.
        let lax = association_rules(&mined(), 0.1);
        assert!(lax.iter().any(|r| r.antecedent == vec![443]));
    }

    #[test]
    fn missing_antecedent_support_skips_the_rule() {
        // {80,443} frequent but {443} missing from level-1 results.
        let partial = vec![itemset(&[80], 500.0, 1), itemset(&[80, 443], 100.0, 2)];
        let rules = association_rules(&partial, 0.0);
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].antecedent, vec![80]);
    }

    #[test]
    fn confidence_is_clamped_despite_noise() {
        // Noise can make the pair's count exceed the singleton's.
        let noisy = vec![itemset(&[1], 50.0, 1), itemset(&[1, 2], 55.0, 2)];
        let rules = association_rules(&noisy, 0.0);
        assert!(rules.iter().all(|r| r.confidence <= 1.0));
    }

    #[test]
    fn triple_itemsets_yield_two_item_antecedents() {
        let with_triple = vec![
            itemset(&[1], 100.0, 1),
            itemset(&[2], 100.0, 1),
            itemset(&[3], 100.0, 1),
            itemset(&[1, 2], 90.0, 2),
            itemset(&[1, 2, 3], 85.0, 3),
        ];
        let rules = association_rules(&with_triple, 0.5);
        assert!(rules.iter().any(|r| r.antecedent == vec![1, 2]
            && r.consequent == vec![3]
            && (r.confidence - 85.0 / 90.0).abs() < 1e-9));
    }

    #[test]
    fn empty_input_yields_no_rules() {
        assert!(association_rules::<u16>(&[], 0.0).is_empty());
    }
}

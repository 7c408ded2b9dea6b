//! Differentially-private frequent itemset mining — the paper's §4.3.
//!
//! Frequently co-occurring items (e.g. ports used together by one host) hint
//! at correlation. The classic apriori algorithm counts candidate itemsets
//! level by level, keeping those with enough support. The privacy twist the
//! paper highlights: records (item *sets*) must be **partitioned among the
//! candidate itemsets** — a record contributes to the count of only one
//! candidate even when it supports several — because `Partition` is what
//! keeps the level's cost at one ε.
//!
//! With too many candidates the evidence spreads too thin; the paper's
//! remedy is aggressive thresholds, which "counter-intuitively allow us to
//! learn more". To avoid the *systematic* starvation of always picking the
//! same candidate for a multi-support record, the partition key rotates
//! deterministically (by record hash) among the candidates a record
//! supports; the count each candidate receives is then roughly its support
//! divided by the typical overlap, preserving support *order*.

use dpnet_obs::{emit_phase_global, span};
use pinq::{Error, Queryable, Result};
use std::collections::{BTreeSet, HashSet};
use std::hash::{Hash, Hasher};

/// Configuration for itemset mining.
#[derive(Debug, Clone)]
pub struct ItemsetConfig<I> {
    /// The data-independent universe of items considered at level 1.
    pub universe: Vec<I>,
    /// Largest itemset size to mine.
    pub max_size: usize,
    /// ε spent per level (total cost = `max_size × eps_per_level`).
    pub eps_per_level: f64,
    /// Noisy-count threshold for a candidate to survive a level.
    pub threshold: f64,
}

/// A frequent itemset with its (partitioned, noisy) support count.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequentItemset<I> {
    /// The items, sorted.
    pub items: Vec<I>,
    /// Noisy partitioned support.
    pub noisy_count: f64,
    /// Itemset size (level it was found at).
    pub size: usize,
}

fn stable_hash<T: Hash>(t: &T) -> u64 {
    // FxHash-style multiplication hash over DefaultHasher for stability
    // within a run; determinism across runs comes from the same inputs.
    let mut h = std::collections::hash_map::DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// Mine frequent itemsets from records that are sets of items.
///
/// Returns all surviving itemsets across levels `1..=max_size`, sorted by
/// size then by noisy count descending.
pub fn frequent_itemsets<I>(
    data: &Queryable<BTreeSet<I>>,
    cfg: &ItemsetConfig<I>,
) -> Result<Vec<FrequentItemset<I>>>
where
    I: Ord + Hash + Clone + Send + Sync + 'static,
{
    assert!(cfg.max_size > 0, "max_size must be positive");
    let phase = span::enter_timed("frequent_itemsets");
    let mut results: Vec<FrequentItemset<I>> = Vec::new();
    let mut levels_run = 0usize;

    // Candidates are the parts of a partition, so they must be distinct;
    // later levels' candidates are deduplicated as they are built.
    let mut universe = HashSet::new();
    if !cfg.universe.iter().all(|i| universe.insert(i)) {
        return Err(Error::DuplicatePartitionKeys);
    }
    // Every level counts the same records: force a pending fused plan
    // once instead of streaming it again per level.
    let data = data.collect_protected();
    // Level-1 candidates: singletons over the universe.
    let mut candidates: Vec<Vec<I>> = cfg.universe.iter().map(|i| vec![i.clone()]).collect();

    for level in 1..=cfg.max_size {
        if candidates.is_empty() {
            break;
        }
        levels_run = level;
        let key_set: Vec<BTreeSet<I>> = candidates
            .iter()
            .map(|k| k.iter().cloned().collect())
            .collect();
        // Partition records among the candidates they support, rotating by
        // record hash to spread the evidence. A record supporting none is
        // dropped.
        let counts = data.partition_noisy_counts_indexed(
            candidates.len(),
            |rec: &BTreeSet<I>| {
                let matching: Vec<usize> = key_set
                    .iter()
                    .enumerate()
                    .filter(|(_, cand)| cand.is_subset(rec))
                    .map(|(i, _)| i)
                    .collect();
                let pick = (stable_hash(rec) as usize).checked_rem(matching.len())?;
                Some(matching[pick])
            },
            cfg.eps_per_level,
        )?;

        let mut survivors: Vec<(Vec<I>, f64)> = Vec::new();
        for (cand, c) in candidates.iter().zip(counts) {
            if c > cfg.threshold {
                survivors.push((cand.clone(), c));
            }
        }
        for (items, noisy_count) in &survivors {
            results.push(FrequentItemset {
                items: items.clone(),
                noisy_count: *noisy_count,
                size: level,
            });
        }

        // Apriori join: merge surviving k-sets sharing k−1 items, then prune
        // candidates with any infrequent subset.
        let frequent: HashSet<Vec<I>> = survivors.iter().map(|(c, _)| c.clone()).collect();
        let mut next: Vec<Vec<I>> = Vec::new();
        let mut seen: HashSet<Vec<I>> = HashSet::new();
        for (i, (a, _)) in survivors.iter().enumerate() {
            for (b, _) in survivors.iter().skip(i + 1) {
                let merged: BTreeSet<I> = a.iter().chain(b.iter()).cloned().collect();
                if merged.len() != level + 1 {
                    continue;
                }
                let cand: Vec<I> = merged.iter().cloned().collect();
                if seen.contains(&cand) {
                    continue;
                }
                // Prune: every `level`-subset must be frequent.
                let all_subsets_frequent = (0..cand.len()).all(|skip| {
                    let sub: Vec<I> = cand
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| *j != skip)
                        .map(|(_, x)| x.clone())
                        .collect();
                    frequent.contains(&sub)
                });
                if all_subsets_frequent {
                    seen.insert(cand.clone());
                    next.push(cand);
                }
            }
        }
        candidates = next;
    }

    results.sort_by(|a, b| {
        a.size.cmp(&b.size).then(
            b.noisy_count
                .partial_cmp(&a.noisy_count)
                .expect("finite counts"),
        )
    });
    // One partitioned count per apriori level actually executed.
    emit_phase_global(
        "frequent_itemsets",
        levels_run as f64 * cfg.eps_per_level,
        &phase,
    );
    Ok(results)
}

/// Noise-free exact support counts for reference: the number of records
/// containing each queried itemset (standard apriori support, *without* the
/// partitioning dilution).
pub fn exact_support<I: Ord>(records: &[BTreeSet<I>], itemset: &[I]) -> usize {
    records
        .iter()
        .filter(|r| itemset.iter().all(|i| r.contains(i)))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinq::{Accountant, ExecCtx, ExecPool, NoiseSource};

    fn record(items: &[u16]) -> BTreeSet<u16> {
        items.iter().cloned().collect()
    }

    /// Hosts using planted port pairs, mirroring §4.3's discovery of
    /// (22,80), (443,80), etc. Each host's record carries a unique
    /// high-port marker (outside the universe), as real per-host port sets
    /// are distinct — the hash-rotated partitioning relies on record
    /// diversity to spread evidence.
    fn dataset() -> Vec<BTreeSet<u16>> {
        let mut recs = Vec::new();
        let mut host = 20_000u16;
        let mut push = |recs: &mut Vec<BTreeSet<u16>>, ports: &[u16]| {
            let mut r = record(ports);
            r.insert(host);
            host += 1;
            recs.push(r);
        };
        for _ in 0..400 {
            push(&mut recs, &[22, 80]);
        }
        for _ in 0..250 {
            push(&mut recs, &[443, 80]);
        }
        for _ in 0..150 {
            push(&mut recs, &[445, 139]);
        }
        // Background: singleton-port hosts.
        for i in 0..300u16 {
            push(&mut recs, &[8000 + (i % 50)]);
        }
        recs
    }

    fn protect(
        records: Vec<BTreeSet<u16>>,
        budget: f64,
        seed: u64,
    ) -> (Accountant, Queryable<BTreeSet<u16>>) {
        let acct = Accountant::new(budget);
        let noise = NoiseSource::seeded(seed);
        (acct.clone(), Queryable::new(records, &acct, &noise))
    }

    fn universe() -> Vec<u16> {
        vec![22, 80, 443, 445, 139, 25, 993]
    }

    #[test]
    fn planted_pairs_are_discovered_in_support_order() {
        let (_, q) = protect(dataset(), 100.0, 21);
        let cfg = ItemsetConfig {
            universe: universe(),
            max_size: 2,
            eps_per_level: 1.0,
            threshold: 40.0,
        };
        let found = frequent_itemsets(&q, &cfg).unwrap();
        let pairs: Vec<&FrequentItemset<u16>> = found.iter().filter(|f| f.size == 2).collect();
        assert!(pairs.len() >= 3, "pairs found: {}", pairs.len());
        assert_eq!(pairs[0].items, vec![22, 80]);
        assert_eq!(pairs[1].items, vec![80, 443]);
        assert_eq!(pairs[2].items, vec![139, 445]);
    }

    #[test]
    fn partitioned_support_undercounts_but_preserves_order() {
        // A record {22, 80} supports singletons 22 and 80; partitioning
        // splits its evidence. Exact support of 80 is 650 (400 + 250) but
        // partitioned count is roughly half of each pair's mass.
        let (_, q) = protect(dataset(), 100.0, 23);
        let cfg = ItemsetConfig {
            universe: universe(),
            max_size: 1,
            eps_per_level: 2.0,
            threshold: 10.0,
        };
        let found = frequent_itemsets(&q, &cfg).unwrap();
        let count_of = |item: u16| -> f64 {
            found
                .iter()
                .find(|f| f.items == vec![item])
                .map(|f| f.noisy_count)
                .unwrap_or(0.0)
        };
        let exact_80 = exact_support(&dataset(), &[80]);
        assert_eq!(exact_80, 650);
        assert!(count_of(80) < 651.0);
        assert!(count_of(80) > count_of(445), "80 should outrank 445");
    }

    #[test]
    fn cost_is_levels_times_eps() {
        let (acct, q) = protect(dataset(), 100.0, 25);
        let cfg = ItemsetConfig {
            universe: universe(),
            max_size: 2,
            eps_per_level: 0.5,
            threshold: 40.0,
        };
        frequent_itemsets(&q, &cfg).unwrap();
        assert!((acct.spent() - 1.0).abs() < 1e-9, "spent {}", acct.spent());
    }

    #[test]
    fn apriori_prunes_pairs_with_infrequent_members() {
        // Port 993 never occurs: no pair containing it should be counted.
        let (_, q) = protect(dataset(), 100.0, 27);
        let cfg = ItemsetConfig {
            universe: universe(),
            max_size: 2,
            eps_per_level: 1.0,
            threshold: 40.0,
        };
        let found = frequent_itemsets(&q, &cfg).unwrap();
        assert!(found.iter().all(|f| !f.items.contains(&993)));
    }

    #[test]
    fn empty_universe_yields_nothing() {
        let (_, q) = protect(dataset(), 100.0, 29);
        let cfg = ItemsetConfig::<u16> {
            universe: vec![],
            max_size: 3,
            eps_per_level: 1.0,
            threshold: 10.0,
        };
        assert!(frequent_itemsets(&q, &cfg).unwrap().is_empty());
    }

    #[test]
    fn triples_require_all_subpairs() {
        // Plant a strong triple {1,2,3} and verify it is found at level 3.
        // Unique per-record markers keep the hash rotation spreading.
        let mut recs = Vec::new();
        for i in 0..600u16 {
            let mut r = record(&[1, 2, 3]);
            r.insert(1000 + i);
            recs.push(r);
        }
        let (_, q) = protect(recs, 100.0, 31);
        let cfg = ItemsetConfig {
            universe: vec![1, 2, 3, 4],
            max_size: 3,
            eps_per_level: 1.0,
            threshold: 50.0,
        };
        let found = frequent_itemsets(&q, &cfg).unwrap();
        assert!(found
            .iter()
            .any(|f| f.size == 3 && f.items == vec![1, 2, 3]));
    }

    #[test]
    fn pool_mining_is_identical_for_any_worker_count() {
        let cfg = ItemsetConfig {
            universe: universe(),
            max_size: 2,
            eps_per_level: 1.0,
            threshold: 40.0,
        };
        let run = |workers: Option<usize>| {
            let (acct, q) = protect(dataset(), 100.0, 33);
            let q = match workers {
                // The flat loop: one worker, one chunk.
                None => q.with_ctx(ExecCtx::pool(
                    &ExecPool::sequential().with_chunk_size(usize::MAX),
                )),
                Some(w) => q.with_ctx(ExecCtx::pool(&ExecPool::new(w).unwrap())),
            };
            let found = frequent_itemsets(&q, &cfg).unwrap();
            (found, acct.spent())
        };
        let flat = run(None);
        for workers in [1, 2, 8] {
            assert_eq!(flat, run(Some(workers)), "workers={workers}");
        }
    }

    #[test]
    fn exact_support_counts_supersets() {
        let recs = dataset();
        assert_eq!(exact_support(&recs, &[22, 80]), 400);
        assert_eq!(exact_support(&recs, &[22]), 400);
        assert_eq!(exact_support(&recs, &[22, 443]), 0);
    }
}

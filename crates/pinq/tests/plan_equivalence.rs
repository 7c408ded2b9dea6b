//! Property tests pinning the lazy/fused execution refactor to the eager
//! semantics it replaced.
//!
//! For any pipeline chaining the stability-interesting operators —
//! `select_many(bound)` × `filter` × `concat` — the lazy plan must release
//! **bit-identical** values, charge an **identical** ε, and report an
//! **identical** stability, whether the pipeline stays lazy or is forced
//! after every operator with `collect_protected`, and whether it runs as
//! the flat loop (one worker, one chunk) or on a worker pool of 1, 2 or 8
//! workers. Stability and charge bookkeeping happen at operator
//! *declaration*, so laziness may never shift what is charged — only when
//! record buffers exist.
//!
//! The grouping barriers (`group_by`, `join`) and the partition barriers
//! (`partition`, `partition_noisy_counts`) are pinned to naive references:
//! the same groups, in first-seen key order, with members in input order,
//! and the same parts, in key-list order, with members in input order —
//! for any pool and whether or not their input was forced first. The
//! indexed fan-out (`partition_noisy_counts_indexed`) is pinned to the
//! keyed form it serves and to one filtered count per part index.

use pinq::{Accountant, ExecCtx, ExecPool, Group, JoinGroup, NoiseSource, Queryable};
use proptest::prelude::*;
use std::sync::Arc;

/// The flat loop every pool must agree with: one worker, and one chunk
/// spanning any input these tests build.
fn flat() -> ExecCtx {
    ExecCtx::pool(&ExecPool::sequential().with_chunk_size(usize::MAX))
}

fn dataset(n: usize, offset: u32) -> Vec<u32> {
    (0..n as u32).map(|v| v + offset).collect()
}

/// Run the pipeline and release one count and one median. Returns the two
/// released values (as raw bits), the total ε charged, and the pipeline's
/// final stability.
fn run_pipeline(
    n: usize,
    bound: usize,
    modulus: u32,
    seed: u64,
    ctx: ExecCtx,
    eager: bool,
) -> (u64, u64, f64, f64) {
    let acct = Accountant::new(1_000.0);
    let noise = NoiseSource::seeded(seed);
    // In eager mode, force materialization after every operator — the
    // pre-refactor engine's behavior.
    let force = |q: Queryable<u32>| if eager { q.collect_protected() } else { q };
    let left = Queryable::new(dataset(n, 0), &acct, &noise).with_ctx(ctx.clone());
    let right = Queryable::new(dataset(n / 2, 1), &acct, &noise).with_ctx(ctx);
    let expanded = force(left.select_many(bound, move |&v| vec![v; bound]).unwrap());
    let filtered = force(expanded.filter(move |&v| v % modulus == 0));
    let combined = force(filtered.concat(&right));
    let count = combined.noisy_count(1.0).unwrap();
    let median = combined
        .noisy_median(1.0, 0.0, n as f64 + 2.0, 16, |&v| f64::from(v))
        .unwrap();
    (
        count.to_bits(),
        median.to_bits(),
        acct.spent(),
        combined.stability(),
    )
}

/// Like [`run_pipeline`] (lazy mode), but the left source enters the engine
/// pre-sharded into chunks of `shard` records instead of as one flat `Vec`.
/// The physical layout must be invisible: identical releases, ε, stability.
fn run_sharded_pipeline(
    n: usize,
    shard: usize,
    bound: usize,
    modulus: u32,
    seed: u64,
    ctx: ExecCtx,
) -> (u64, u64, f64, f64) {
    let acct = Accountant::new(1_000.0);
    let noise = NoiseSource::seeded(seed);
    let flat = dataset(n, 0);
    let chunks: Vec<Vec<u32>> = flat.chunks(shard).map(<[u32]>::to_vec).collect();
    let left = Queryable::from_shards(chunks, &acct, &noise).with_ctx(ctx.clone());
    let right = Queryable::new(dataset(n / 2, 1), &acct, &noise).with_ctx(ctx);
    let expanded = left.select_many(bound, move |&v| vec![v; bound]).unwrap();
    let filtered = expanded.filter(move |&v| v % modulus == 0);
    let combined = filtered.concat(&right);
    let count = combined.noisy_count(1.0).unwrap();
    let median = combined
        .noisy_median(1.0, 0.0, n as f64 + 2.0, 16, |&v| f64::from(v))
        .unwrap();
    (
        count.to_bits(),
        median.to_bits(),
        acct.spent(),
        combined.stability(),
    )
}

/// Run a `k`-way partition fan-out of noisy counts, either through the
/// batched single-pass [`Queryable::partition_noisy_counts`] or through the
/// classic `partition` + per-part `noisy_count` loop. Returns the released
/// bits (in key order) and the total ε charged.
fn run_fanout(
    n: usize,
    k: u32,
    eps: f64,
    seed: u64,
    ctx: ExecCtx,
    batched: bool,
) -> (Vec<u64>, f64) {
    let acct = Accountant::new(1_000.0);
    let noise = NoiseSource::seeded(seed);
    let q = Queryable::new(dataset(n, 0), &acct, &noise)
        .with_ctx(ctx)
        .group_by(move |&v| v % (k + 1)); // stability ×2, so scaling matters
    let keys: Vec<u32> = (0..k).collect();
    let counts: Vec<f64> = if batched {
        q.partition_noisy_counts(&keys, move |g| g.key % k, eps)
            .unwrap()
    } else {
        let parts = q.partition(&keys, move |g| g.key % k).unwrap();
        parts.iter().map(|p| p.noisy_count(eps).unwrap()).collect()
    };
    (counts.iter().map(|c| c.to_bits()).collect(), acct.spent())
}

/// A record tagged with its input position: `(position, key)`.
type Rec = (u32, u32);

/// ε at which a noisy count is exact once rounded: the Laplace noise has
/// scale 1e-9, so it never reaches 0.5.
const EXACT: f64 = 1e9;

fn tagged(keys: &[u32]) -> Vec<Rec> {
    (0u32..).zip(keys.iter().copied()).collect()
}

/// Drops every fifth record, so the unforced inputs are real lazy plans.
fn kept(r: &Rec) -> bool {
    r.0 % 5 != 4
}

/// `group_by` by definition: keys in first-seen order, members in input
/// order, found by linear search.
fn reference_groups(records: &[Rec]) -> Vec<Group<u32, Rec>> {
    let mut out: Vec<Group<u32, Rec>> = Vec::new();
    for &r in records {
        match out.iter_mut().find(|g| g.key == r.1) {
            Some(g) => g.items.push(r),
            None => out.push(Group {
                key: r.1,
                items: vec![r],
            }),
        }
    }
    out
}

/// `join` by definition: the left groups, in their order, that have at
/// least one right record, each with its right records in input order.
fn reference_join(left: &[Rec], right: &[Rec]) -> Vec<JoinGroup<u32, Rec, Rec>> {
    reference_groups(left)
        .into_iter()
        .filter_map(|g| {
            let rs: Vec<Rec> = right.iter().filter(|r| r.1 == g.key).copied().collect();
            (!rs.is_empty()).then_some(JoinGroup {
                key: g.key,
                left: g.items,
                right: rs,
            })
        })
        .collect()
}

/// Whether `q` holds exactly `expected` (distinct records), in order,
/// judged from exact releases only.
///
/// `distinct_by` keeps the first record per key, so filtering out
/// `expected[..i]` and keeping the first survivor reveals which record
/// comes first among the rest; it must be `expected[i]`. With the total
/// count equal, that holding for every `i` pins the whole sequence.
fn holds_exactly<R>(q: &Queryable<R>, expected: &[R]) -> bool
where
    R: Clone + PartialEq + Send + Sync + 'static,
{
    if q.noisy_count(EXACT).unwrap().round() != expected.len() as f64 {
        return false;
    }
    let expected = Arc::new(expected.to_vec());
    (0..expected.len()).all(|i| {
        let (earlier, want) = (expected.clone(), expected.clone());
        q.filter(move |r| !earlier[..i].contains(r))
            .distinct_by(|_| ())
            .filter(move |r| *r == want[i])
            .noisy_count(EXACT)
            .unwrap()
            .round()
            == 1.0
    })
}

/// Check `group_by` and `join` against the references on `left`/`right`
/// (after dropping every fifth record), with both inputs left as lazy
/// plans or forced first.
fn grouping_matches_reference(left: &[Rec], right: &[Rec], ctx: ExecCtx, forced: bool) -> bool {
    let acct = Accountant::new(1e15);
    let noise = NoiseSource::seeded(3);
    let input = |records: &[Rec]| {
        let q = Queryable::new(records.to_vec(), &acct, &noise)
            .with_ctx(ctx.clone())
            .filter(kept);
        if forced {
            q.collect_protected()
        } else {
            q
        }
    };
    let (l, r) = (input(left), input(right));
    let left_kept: Vec<Rec> = left.iter().copied().filter(kept).collect();
    let right_kept: Vec<Rec> = right.iter().copied().filter(kept).collect();
    holds_exactly(&l.group_by(|r| r.1), &reference_groups(&left_kept))
        && holds_exactly(
            &l.join(&r, |r| r.1, |r| r.1),
            &reference_join(&left_kept, &right_kept),
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lazy ≡ eager, for any worker count: releases bit-identical, spent ε
    /// equal, stability equal.
    #[test]
    fn lazy_pipelines_match_eager_semantics_for_any_worker_count(
        n in 1usize..400,
        bound in 1usize..4,
        modulus in 1u32..7,
        seed in 0u64..1_000,
    ) {
        let baseline = run_pipeline(n, bound, modulus, seed, flat(), true);
        let lazy_flat = run_pipeline(n, bound, modulus, seed, flat(), false);
        prop_assert_eq!(lazy_flat, baseline, "lazy flat loop diverged from eager");
        for workers in [1usize, 2, 8] {
            let pool = ExecPool::new(workers).unwrap().with_chunk_size(64);
            let lazy_pool = run_pipeline(n, bound, modulus, seed, ExecCtx::pool(&pool), false);
            prop_assert_eq!(lazy_pool, baseline, "workers={} diverged", workers);
        }
    }

    /// Sharded ≡ flat: a source pre-sharded at any chunk size releases the
    /// same bits, charges the same ε, and reports the same stability as the
    /// flat single-buffer source, in the flat loop and at workers 1/2/8.
    #[test]
    fn sharded_sources_match_flat_sources_for_any_layout(
        n in 1usize..400,
        shard in 1usize..64,
        bound in 1usize..4,
        modulus in 1u32..7,
        seed in 0u64..1_000,
    ) {
        let unsharded = run_pipeline(n, bound, modulus, seed, flat(), false);
        let sharded = run_sharded_pipeline(n, shard, bound, modulus, seed, flat());
        prop_assert_eq!(sharded, unsharded, "sharded flat loop diverged from flat source");
        for workers in [1usize, 2, 8] {
            let pool = ExecPool::new(workers).unwrap().with_chunk_size(64);
            let pooled = run_sharded_pipeline(n, shard, bound, modulus, seed, ExecCtx::pool(&pool));
            prop_assert_eq!(pooled, unsharded, "shard={} workers={} diverged", shard, workers);
        }
    }

    /// The batched single-pass partition fan-out is indistinguishable from
    /// the classic per-part loop: bit-identical releases in key order and
    /// an identical total charge (max-of-parts through the same ledger),
    /// in the flat loop and at workers 1/2/8. Key lists run past the pools'
    /// 64-record chunk.
    #[test]
    fn batched_partition_counts_match_the_per_part_loop(
        n in 1usize..400,
        k in 1u32..200,
        seed in 0u64..1_000,
    ) {
        let eps = 0.5;
        let loop_form = run_fanout(n, k, eps, seed, flat(), false);
        let batched = run_fanout(n, k, eps, seed, flat(), true);
        prop_assert_eq!(&batched, &loop_form, "batched flat loop diverged");
        for workers in [1usize, 2, 8] {
            let pool = ExecPool::new(workers).unwrap().with_chunk_size(64);
            let pooled = run_fanout(n, k, eps, seed, ExecCtx::pool(&pool), true);
            prop_assert_eq!(&pooled, &loop_form, "workers={} diverged", workers);
        }
    }

    /// `group_by` and `join` equal their naive references: first-seen key
    /// order, members in input order, duplicate keys gathered, and join
    /// keys present on one side only dropped. Keys overlap only partly
    /// (left 0..6, right 3..9). Holds in the flat loop and on pools whose
    /// small chunks split the inputs across many shards, on lazy and on
    /// forced inputs.
    #[test]
    fn grouping_matches_a_naive_reference_in_every_context(
        left in prop::collection::vec(0u32..2000, 0..120),
        right in prop::collection::vec(0u32..2000, 0..120),
        domain in 0usize..3,
    ) {
        // Every record one key, six keys, or nearly every record its own
        // key. Right keys overlap half of the left key range, so the join
        // probes hit and miss groups in every part.
        let d = [1, 6, 2000][domain];
        let left: Vec<u32> = left.iter().map(|k| k % d).collect();
        let right: Vec<u32> = right.iter().map(|k| k % d + d / 2).collect();
        let (left, right) = (tagged(&left), tagged(&right));
        for ctx in grouping_contexts() {
            for forced in [false, true] {
                prop_assert!(
                    grouping_matches_reference(&left, &right, ctx.clone(), forced),
                    "diverged: {:?} forced={}",
                    ctx,
                    forced
                );
            }
        }
    }

    /// `partition` and `partition_noisy_counts` equal their naive
    /// reference: one part per listed key, in key-list order, holding that
    /// key's records in input order; records whose key is not listed are
    /// dropped. Key lists come in any order and run past the pools'
    /// 16-record chunk. Holds in the flat loop and on every pool, on lazy
    /// and on forced inputs.
    #[test]
    fn partitions_match_a_naive_reference_in_every_context(
        records in prop::collection::vec(0u32..80, 0..120),
        keys in prop::collection::vec(0u32..80, 0..40),
    ) {
        let records = tagged(&records);
        let mut listed = Vec::new();
        for k in keys {
            if !listed.contains(&k) {
                listed.push(k);
            }
        }
        for ctx in grouping_contexts() {
            for forced in [false, true] {
                prop_assert!(
                    partition_matches_reference(&records, &listed, ctx.clone(), forced),
                    "diverged: {:?} forced={}",
                    ctx,
                    forced
                );
            }
        }
    }
}

/// A record's part in the indexed fan-out tests: none for keys ≡ 6 (mod
/// 7), else `key / div`, which runs past short part lists.
fn part_of(r: &Rec, div: u32) -> Option<usize> {
    (r.1 % 7 != 6).then_some((r.1 / div) as usize)
}

/// What a fan-out showed: the released bits (or the refusal), the spent
/// ε bits, and the ledger's audit entries as `(path, ε bits)`.
type FanOutSeen = (Result<Vec<u64>, String>, u64, Vec<(String, u64)>);

/// One `parts`-way fan-out of exact counts over `records` (every fifth
/// dropped by a lazy filter) against a budget of `budget`, through
/// `partition_noisy_counts_indexed` or through the keyed form over the
/// key list `Some(0)..Some(parts - 1)`.
fn indexed_fanout(
    records: &[Rec],
    parts: usize,
    div: u32,
    budget: f64,
    ctx: ExecCtx,
    keyed: bool,
) -> FanOutSeen {
    let acct = Accountant::new(budget);
    let noise = NoiseSource::seeded(9);
    let q = Queryable::new(records.to_vec(), &acct, &noise)
        .with_ctx(ctx)
        .filter(kept);
    let released = if keyed {
        let keys: Vec<Option<usize>> = (0..parts).map(Some).collect();
        q.partition_noisy_counts(&keys, move |r| part_of(r, div), EXACT)
    } else {
        q.partition_noisy_counts_indexed(parts, move |r| part_of(r, div), EXACT)
    };
    let audit = acct
        .audit_log()
        .iter()
        .map(|e| (e.path.to_string(), e.epsilon.to_bits()))
        .collect();
    (
        released
            .map(|v| v.iter().map(|c| c.to_bits()).collect())
            .map_err(|e| e.to_string()),
        acct.spent().to_bits(),
        audit,
    )
}

/// The indexed fan-out by definition: per part index, a filtered count.
fn naive_part_counts(records: &[Rec], parts: usize, div: u32) -> Vec<f64> {
    let acct = Accountant::new(1e15);
    let q = Queryable::new(records.to_vec(), &acct, &NoiseSource::seeded(9)).filter(kept);
    (0..parts)
        .map(|i| {
            q.filter(move |r| part_of(r, div) == Some(i))
                .noisy_count(EXACT)
                .unwrap()
                .round()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `partition_noisy_counts_indexed` releases what the keyed form
    /// releases over the key list of its part positions, bit for bit, with
    /// the same spend and the same audited charge paths, and each count is
    /// a naive filter's. Records mapped to no part or past the last part
    /// are dropped; zero parts release nothing and spend nothing; a budget
    /// below one part's ε refuses the fan-out on its first part. Holds in
    /// the flat loop and at workers 1/2/8 on 16-record chunks.
    #[test]
    fn indexed_partition_counts_match_the_keyed_form_and_a_naive_filter(
        records in prop::collection::vec(0u32..80, 0..120),
        parts in 0usize..50,
        div in 1u32..4,
        refused in any::<bool>(),
    ) {
        let records = tagged(&records);
        let budget = if refused { EXACT / 2.0 } else { 1e15 };
        let expected = indexed_fanout(&records, parts, div, budget, flat(), true);
        match &expected.0 {
            Ok(bits) => {
                prop_assert!(!refused || parts == 0);
                let rounded: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b).round()).collect();
                prop_assert_eq!(rounded, naive_part_counts(&records, parts, div));
            }
            Err(_) => prop_assert!(refused && parts > 0 && expected.1 == 0),
        }
        for ctx in grouping_contexts() {
            for keyed in [false, true] {
                let seen = indexed_fanout(&records, parts, div, budget, ctx.clone(), keyed);
                prop_assert_eq!(&seen, &expected, "{:?} keyed={}", ctx, keyed);
            }
        }
    }
}

/// `partition` by definition: for each listed key, the records with that
/// key, in input order.
fn reference_parts(records: &[Rec], keys: &[u32]) -> Vec<Vec<Rec>> {
    keys.iter()
        .map(|&k| records.iter().copied().filter(|r| r.1 == k).collect())
        .collect()
}

/// Check `partition_noisy_counts` (first, so an unforced input streams its
/// chain) and `partition` against the reference on `records`, after
/// dropping every fifth record.
fn partition_matches_reference(records: &[Rec], keys: &[u32], ctx: ExecCtx, forced: bool) -> bool {
    let acct = Accountant::new(1e15);
    let noise = NoiseSource::seeded(5);
    let q = Queryable::new(records.to_vec(), &acct, &noise)
        .with_ctx(ctx)
        .filter(kept);
    let q = if forced { q.collect_protected() } else { q };
    let kept_records: Vec<Rec> = records.iter().copied().filter(kept).collect();
    let expected = reference_parts(&kept_records, keys);
    let counts = q.partition_noisy_counts(keys, |r| r.1, EXACT).unwrap();
    let parts = q.partition(keys, |r| r.1).unwrap();
    counts.len() == keys.len()
        && parts.len() == keys.len()
        && counts
            .iter()
            .zip(&expected)
            .all(|(c, e)| c.round() == e.len() as f64)
        && parts
            .iter()
            .zip(&expected)
            .all(|(p, e)| holds_exactly(p, e))
}

/// The flat loop, and pools of 1, 2 and 8 workers whose 16-record chunks
/// split a grouping of more than 31 records into several hash parts.
fn grouping_contexts() -> Vec<ExecCtx> {
    let mut ctxs = vec![flat()];
    for workers in [1, 2, 8] {
        ctxs.push(ExecCtx::pool(
            &ExecPool::new(workers).unwrap().with_chunk_size(16),
        ));
    }
    ctxs
}

#[test]
fn grouping_empty_inputs_matches_the_reference() {
    let some = tagged(&[4, 1, 4, 9, 1, 1, 7]);
    for (left, right) in [(vec![], vec![]), (vec![], some.clone()), (some, vec![])] {
        for ctx in grouping_contexts() {
            for forced in [false, true] {
                assert!(grouping_matches_reference(
                    &left,
                    &right,
                    ctx.clone(),
                    forced
                ));
            }
        }
    }
}

/// The empty-side `concat` short-circuit (an allocation optimization) must
/// not change accounting: both budgets are charged even when one input is
/// empty, because a *neighboring* dataset of the empty side could hold a
/// record.
#[test]
fn concat_with_empty_side_still_charges_both_budgets() {
    let a_budget = Accountant::new(1.0);
    let b_budget = Accountant::new(1.0);
    let noise = NoiseSource::seeded(7);
    let a = Queryable::new(dataset(100, 0), &a_budget, &noise);
    let empty = Queryable::new(Vec::<u32>::new(), &b_budget, &noise);
    a.concat(&empty).noisy_count(0.25).unwrap();
    assert!((a_budget.spent() - 0.25).abs() < 1e-12);
    assert!((b_budget.spent() - 0.25).abs() < 1e-12);
    empty.concat(&a).noisy_count(0.25).unwrap();
    assert!((a_budget.spent() - 0.5).abs() < 1e-12);
    assert!((b_budget.spent() - 0.5).abs() < 1e-12);
}

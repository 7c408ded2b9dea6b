//! Shard-boundary edge cases for chunked row shards: layouts that a
//! bug in global-index addressing would get wrong — empty shards, one
//! record per shard, shard sizes that do not divide the record count — and
//! partition keys that recur across shards.
//!
//! Every release here is checked against the same query over the flat
//! single-buffer source, so a failure localizes to the shard layout alone.

use pinq::{Accountant, ExecCtx, ExecPool, NoiseSource, Queryable};

fn acct() -> (Accountant, NoiseSource) {
    (Accountant::new(1_000.0), NoiseSource::seeded(0x5eed))
}

/// Release a count, a clamped sum, and a median from `q`; return the bits.
fn releases(q: &Queryable<u32>) -> (u64, u64, u64) {
    let count = q.noisy_count(1.0).unwrap();
    let sum = q.noisy_sum_clamped(1.0, 100.0, |&v| f64::from(v)).unwrap();
    let median = q
        .noisy_median(1.0, 0.0, 100.0, 16, |&v| f64::from(v))
        .unwrap();
    (count.to_bits(), sum.to_bits(), median.to_bits())
}

/// Flat baseline vs the given layout of the same records, sequentially and
/// on pools of 1, 2 and 8 workers: all releases bit-identical.
fn assert_layout_invisible(records: Vec<u32>, layout: Vec<Vec<u32>>) {
    assert_eq!(
        layout.iter().flatten().copied().collect::<Vec<_>>(),
        records,
        "test bug: layout must flatten to the records"
    );
    let (a, n) = acct();
    let flat = releases(&Queryable::new(records, &a, &n));
    let (a, n) = acct();
    let seq = releases(&Queryable::from_shards(layout.clone(), &a, &n));
    assert_eq!(seq, flat, "sequential releases diverged from flat source");
    for workers in [1usize, 2, 8] {
        let pool = ExecPool::new(workers).unwrap().with_chunk_size(3);
        let (a, n) = acct();
        let q = Queryable::from_shards(layout.clone(), &a, &n).with_ctx(ExecCtx::pool(&pool));
        assert_eq!(releases(&q), flat, "releases diverged at workers={workers}");
    }
}

#[test]
fn empty_shards_anywhere_are_invisible() {
    let records: Vec<u32> = (0..20).collect();
    let layout = vec![
        vec![],
        (0..7).collect(),
        vec![],
        vec![],
        (7..20).collect(),
        vec![],
    ];
    assert_layout_invisible(records, layout);
}

#[test]
fn an_all_empty_source_still_releases() {
    let (a, n) = acct();
    let q = Queryable::from_shards(vec![vec![], vec![], vec![]], &a, &n);
    let (a2, n2) = acct();
    let flat = Queryable::new(Vec::<u32>::new(), &a2, &n2);
    assert_eq!(releases(&q), releases(&flat));
}

#[test]
fn single_record_shards_are_invisible() {
    let records: Vec<u32> = (0..17).collect();
    let layout: Vec<Vec<u32>> = records.iter().map(|&v| vec![v]).collect();
    assert_layout_invisible(records, layout);
}

#[test]
fn shard_sizes_that_do_not_divide_the_count_are_invisible() {
    // 23 records in shards of 5: the last shard is short.
    let records: Vec<u32> = (0..23).collect();
    let layout: Vec<Vec<u32>> = records.chunks(5).map(<[u32]>::to_vec).collect();
    assert_layout_invisible(records, layout);
}

#[test]
fn transforms_fuse_across_shard_boundaries() {
    let records: Vec<u32> = (0..50).collect();
    let layout: Vec<Vec<u32>> = records.chunks(7).map(<[u32]>::to_vec).collect();
    let run = |q: Queryable<u32>| {
        q.filter(|&v| v % 2 == 0)
            .select_many(2, |&v| vec![v, v + 1])
            .unwrap()
            .noisy_count(0.5)
            .unwrap()
            .to_bits()
    };
    let (a, n) = acct();
    let flat = run(Queryable::new(records, &a, &n));
    let (a, n) = acct();
    assert_eq!(run(Queryable::from_shards(layout, &a, &n)), flat);
}

/// The same partition key recurring in many shards must land all its
/// records in one part — grouping is by key value, never by shard.
#[test]
fn partition_keys_colliding_across_shards_group_correctly() {
    // Key v % 3 appears in every shard.
    let layout: Vec<Vec<u32>> = (0..30u32)
        .collect::<Vec<_>>()
        .chunks(4)
        .map(<[u32]>::to_vec)
        .collect();
    let keys = [0u32, 1, 2];
    let (a, n) = acct();
    let sharded = Queryable::from_shards(layout, &a, &n);
    let parts = sharded.partition(&keys, |&v| v % 3).unwrap();
    let (a2, n2) = acct();
    let flat = Queryable::new((0..30u32).collect::<Vec<_>>(), &a2, &n2);
    let flat_parts = flat.partition(&keys, |&v| v % 3).unwrap();
    for (i, (p, fp)) in parts.iter().zip(flat_parts.iter()).enumerate() {
        assert_eq!(
            p.noisy_count(0.5).unwrap().to_bits(),
            fp.noisy_count(0.5).unwrap().to_bits(),
            "part {i} diverged between sharded and flat sources"
        );
    }
    // And the batched fan-out agrees with the loop, across shards too.
    let (a3, n3) = acct();
    let sharded = Queryable::from_shards(
        (0..30u32)
            .collect::<Vec<_>>()
            .chunks(4)
            .map(<[u32]>::to_vec)
            .collect(),
        &a3,
        &n3,
    );
    let batched = sharded
        .partition_noisy_counts(&keys, |&v| v % 3, 0.5)
        .unwrap();
    let (a4, n4) = acct();
    let flat = Queryable::new((0..30u32).collect::<Vec<_>>(), &a4, &n4);
    let looped: Vec<f64> = flat
        .partition(&keys, |&v| v % 3)
        .unwrap()
        .iter()
        .map(|p| p.noisy_count(0.5).unwrap())
        .collect();
    assert_eq!(
        batched.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
        looped.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
    );
}

/// Duplicate keys in a fan-out key list are rejected before any charge —
/// a duplicate would double-release one part's data under parallel
/// composition's max-of-parts accounting.
#[test]
fn duplicate_partition_keys_are_rejected_without_charging() {
    let (a, n) = acct();
    let layout: Vec<Vec<u32>> = (0..12u32)
        .collect::<Vec<_>>()
        .chunks(5)
        .map(<[u32]>::to_vec)
        .collect();
    let q = Queryable::from_shards(layout, &a, &n);
    let dup = [1u32, 2, 1];
    assert!(q.partition(&dup, |&v| v % 3).is_err());
    assert!(q.partition_noisy_counts(&dup, |&v| v % 3, 0.5).is_err());
    assert_eq!(a.spent(), 0.0, "rejection must not charge the budget");
}

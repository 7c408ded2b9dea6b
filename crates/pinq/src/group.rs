//! The grouping kernel behind [`Queryable::group_by`] and
//! [`Queryable::join`]: one hash-partitioned pass on the queryable's
//! execution pool (see [`group_records`]).
//!
//! Every buffer a pool task fills (the hash array, the part maps, the id
//! and size arrays) is allocated on the calling thread, by the memory rule
//! in [`crate::exec`].
//!
//! The hash is std's SipHash rather than the partition fan-out's Fx hash.
//! Group and join keys are computed from the records, so whoever has
//! packets in the trace picks them, and a predictable hash would let them
//! force collisions. Fx was also slower on these keys: grouping fig1's
//! ~110k records by `(FlowKey, seq)` in one map, the lookup pass took a
//! median 18–24 ms with pre-sized SipHash and 28–31 ms with pre-sized Fx
//! (2-vCPU KVM guest, hotspot trace at seed 11).
//!
//! [`Queryable::group_by`]: crate::Queryable::group_by
//! [`Queryable::join`]: crate::Queryable::join

use crate::exec::ExecPool;
use crate::shard::Shards;
use crate::types::Group;
use dpnet_obs::span;
use parking_lot::Mutex;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

/// Most parts an input is split into.
const MAX_PARTS: usize = 64;

/// The part is read from hash bits 51..57. A part map's bucket index takes
/// the low bits and hashbrown's tag the top seven, so neither sees bits
/// that are constant within a part.
const PART_SHIFT: u32 = 51;

/// Marks a part-local group that has no global number yet.
const UNNUMBERED: u32 = u32::MAX;

/// A key stored next to its SipHash, so a part map never hashes it again.
struct Hashed<K> {
    hash: u64,
    key: K,
}

impl<K> Hash for Hashed<K> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl<K: Eq> PartialEq for Hashed<K> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.key == other.key
    }
}

impl<K: Eq> Eq for Hashed<K> {}

/// Hands a [`Hashed`] key's stored hash to the map unchanged.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, _: &[u8]) {
        unreachable!("part maps only hash `Hashed` keys, through write_u64");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One part's keys, each mapped to its part-local group id.
type PartMap<K> = HashMap<Hashed<K>, u32, BuildHasherDefault<PassThrough>>;

/// The key index a [`join`](crate::Queryable::join) probes with its right
/// side: each left key's group number.
pub(crate) struct KeyIndex<K> {
    hasher: RandomState,
    parts: usize,
    /// Where each part's local ids start in `number`.
    starts: Vec<usize>,
    maps: Vec<PartMap<K>>,
    /// Global group number of each part-local group.
    number: Vec<u32>,
}

impl<K: Hash + Eq> KeyIndex<K> {
    /// The number of `key`'s group, if any left record has that key.
    pub(crate) fn group_of(&self, key: K) -> Option<usize> {
        let hash = self.hasher.hash_one(&key);
        let p = part_of(hash, self.parts);
        self.maps[p]
            .get(&Hashed { hash, key })
            .map(|&local| self.number[self.starts[p] + local as usize] as usize)
    }
}

/// The number of parts for `n` records (see [`group_records`]).
fn part_count(n: usize, chunk: usize) -> usize {
    (n / chunk).next_power_of_two().min(MAX_PARTS)
}

fn part_of(hash: u64, parts: usize) -> usize {
    (hash >> PART_SHIFT) as usize & (parts - 1)
}

/// Group `records` by `key`: one [`Group`] per distinct key, keys in
/// first-seen order and members in input order, each member list at its
/// exact size. Five phases, under four spans:
///
/// 1. **Hash** (pool, `group/hash`): each chunk of records hashes its
///    keys into the caller's hash array.
/// 2. **Sort into parts** (caller, `group/index`): a counting sort lists
///    each part's records, in input order, next to their hashes.
/// 3. **Group each part** (pool, `group/index`): each part maps
///    `{hash, key}` to a part-local group id, in a map pre-sized to the
///    part's record count, and counts each group's members. The map's
///    hasher passes the phase-1 hash through, so each key is SipHashed
///    once.
/// 4. **Number** (caller, `group/number`): a walk in input order numbers
///    the groups in first-seen order and opens each at its exact member
///    count (on fig1 nearly every group has one member, which a growing
///    `Vec` would give four slots).
/// 5. **Gather** (caller, `group/gather`): a second walk clones each
///    record into its group.
///
/// The part count is `next_power_of_two(n / chunk)`, capped at
/// [`MAX_PARTS`]: it depends on the input length and the pool's chunk size
/// only, so an input under two chunks is one part, and the output does
/// not depend on it at all. Every worker count, including
/// [`ExecPool::sequential`], releases the same groups.
///
/// On fig1's grouping (~110k TCP data packets by `(FlowKey, seq)` into
/// ~108k groups, 2-vCPU KVM guest) the four spans took a mean 3.6, 8.3,
/// 5.8 and 3.7 ms (hash, index, number, gather) on a 2-worker pool and
/// 6.3, 11.8, 4.8 and 4.2 ms on one worker, over 40 profiled runs. dpbench `batch-retx` ran 1.42×
/// faster than with the single-map kernel this replaced (17.6 → 25.0 runs/s
/// at seed 11), and its `peak_rss_mb` fell from 52 to 50 MB.
pub(crate) fn group_records<K, T>(
    pool: &ExecPool,
    records: &Shards<T>,
    key: &(impl Fn(&T) -> K + Sync),
) -> Vec<Group<K, T>>
where
    K: Hash + Eq + Send,
    T: Clone + Send + Sync,
{
    let (parts, maps) = PartIndex::build(pool, records, key);
    let groups = maps.iter().map(HashMap::len).sum();
    drop(maps);
    parts.gather(records, key, groups).0
}

/// [`group_records`], also returning the key index a join probes.
pub(crate) fn group_and_index<K, T>(
    pool: &ExecPool,
    records: &Shards<T>,
    key: &(impl Fn(&T) -> K + Sync),
) -> (Vec<Group<K, T>>, KeyIndex<K>)
where
    K: Hash + Eq + Send,
    T: Clone + Send + Sync,
{
    let (parts, maps) = PartIndex::build(pool, records, key);
    let groups = maps.iter().map(HashMap::len).sum();
    let (out, number) = parts.gather(records, key, groups);
    let index = KeyIndex {
        hasher: parts.hasher,
        parts: parts.parts,
        starts: parts.starts,
        maps,
        number,
    };
    (out, index)
}

/// Phases 1–3: every record's hash and part-local group id.
struct PartIndex {
    hasher: RandomState,
    parts: usize,
    /// Each record's key hash, in input order.
    hashes: Vec<u64>,
    /// `starts[p]..starts[p + 1]` is part `p`'s range in `local` and
    /// `sizes`.
    starts: Vec<usize>,
    /// Each record's part-local group id, listed part by part and in input
    /// order within a part.
    local: Vec<u32>,
    /// Member count of each part-local group, at `starts[p] + local id`.
    sizes: Vec<u32>,
}

impl PartIndex {
    fn build<K, T>(
        pool: &ExecPool,
        records: &Shards<T>,
        key: &(impl Fn(&T) -> K + Sync),
    ) -> (PartIndex, Vec<PartMap<K>>)
    where
        K: Hash + Eq + Send,
        T: Send + Sync,
    {
        let n = records.len();
        u32::try_from(n).expect("the grouping kernel numbers records with u32");
        let chunk = pool.chunk_size();
        let parts = part_count(n, chunk);
        let hasher = RandomState::new();

        let mut hashes = vec![0u64; n];
        {
            let _span = span::enter("group/hash");
            let tasks: Vec<Mutex<&mut [u64]>> = hashes.chunks_mut(chunk).map(Mutex::new).collect();
            pool.run(&tasks, |i, task| {
                let mut out = task.lock();
                let range = i * chunk..i * chunk + out.len();
                let mut slots = out.iter_mut();
                records.for_range(range, &mut |r| {
                    *slots.next().expect("one hash slot per record") = hasher.hash_one(key(r));
                });
            });
        }

        let _span = span::enter("group/index");
        let mut counts = vec![0usize; parts];
        for &h in &hashes {
            counts[part_of(h, parts)] += 1;
        }
        let mut by_part: Vec<Vec<(u64, &T)>> =
            counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for (&h, r) in hashes.iter().zip(records.iter()) {
            by_part[part_of(h, parts)].push((h, r));
        }

        let starts: Vec<usize> = std::iter::once(0)
            .chain(counts.iter().scan(0, |end, &c| {
                *end += c;
                Some(*end)
            }))
            .collect();
        let mut local = vec![0u32; n];
        let mut sizes = vec![0u32; n];
        let tasks: Vec<Mutex<_>> = {
            let (mut local, mut sizes) = (&mut local[..], &mut sizes[..]);
            counts
                .iter()
                .map(|&c| {
                    let (l, rest) = std::mem::take(&mut local).split_at_mut(c);
                    local = rest;
                    let (s, rest) = std::mem::take(&mut sizes).split_at_mut(c);
                    sizes = rest;
                    let map = HashMap::with_capacity_and_hasher(c, Default::default());
                    Mutex::new((map, l, s))
                })
                .collect()
        };
        pool.run(&tasks, |p, task| {
            let mut task = task.lock();
            let (map, local, sizes) = &mut *task;
            for (&(hash, r), id) in by_part[p].iter().zip(local.iter_mut()) {
                let next = map.len() as u32;
                *id = *map.entry(Hashed { hash, key: key(r) }).or_insert(next);
                sizes[*id as usize] += 1;
            }
        });
        let maps = tasks.into_iter().map(|t| t.into_inner().0).collect();
        let index = PartIndex {
            hasher,
            parts,
            hashes,
            starts,
            local,
            sizes,
        };
        (index, maps)
    }

    /// Phases 4–5. Numbering walks the records in input order and opens
    /// each group, at its member count, when its first member appears;
    /// gathering then clones every record into its group. Returns the
    /// `groups` groups and each part-local group's number.
    fn gather<K, T: Clone>(
        &self,
        records: &Shards<T>,
        key: impl Fn(&T) -> K,
        groups: usize,
    ) -> (Vec<Group<K, T>>, Vec<u32>) {
        let mut out: Vec<Group<K, T>> = Vec::with_capacity(groups);
        let mut number = vec![UNNUMBERED; self.local.len()];
        let mut group_of = vec![0u32; self.hashes.len()];
        {
            let _span = span::enter("group/number");
            let mut cursor = self.starts[..self.parts].to_vec();
            let walk = self.hashes.iter().zip(records.iter()).zip(&mut group_of);
            for ((&h, r), g) in walk {
                let p = part_of(h, self.parts);
                let slot = self.starts[p] + self.local[cursor[p]] as usize;
                cursor[p] += 1;
                if number[slot] == UNNUMBERED {
                    number[slot] = out.len() as u32;
                    out.push(Group {
                        key: key(r),
                        items: Vec::with_capacity(self.sizes[slot] as usize),
                    });
                }
                *g = number[slot];
            }
        }
        let _span = span::enter("group/gather");
        for (r, &g) in records.iter().zip(&group_of) {
            out[g as usize].items.push(r.clone());
        }
        (out, number)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn part_count_is_one_below_two_chunks_and_capped() {
        assert_eq!(part_count(0, 16), 1);
        assert_eq!(part_count(31, 16), 1);
        assert_eq!(part_count(32, 16), 2);
        assert_eq!(part_count(48, 16), 4);
        assert_eq!(part_count(1 << 20, 16), MAX_PARTS);
    }

    #[test]
    fn member_lists_are_exactly_sized() {
        let records = Shards::from_vec((0..5_000u32).map(|i| i * 7 % 1_000).collect());
        for (chunk, workers) in [(8192, 1), (64, 1), (64, 2)] {
            let pool = ExecPool::new(workers).unwrap().with_chunk_size(chunk);
            let groups = group_records(&pool, &records, &|&r| r % 97);
            assert_eq!(groups.len(), 97);
            assert_eq!(groups.capacity(), groups.len());
            for g in &groups {
                assert_eq!(g.items.capacity(), g.items.len(), "group {}", g.key);
            }
        }
    }
}

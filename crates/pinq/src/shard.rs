//! Chunked row storage: the sharded record buffer behind a queryable.
//!
//! A [`Shards<T>`] is an ordered list of immutable record chunks that reads
//! as one flat sequence. Operators address records by *global* index — the
//! position in the flattened sequence — so the physical chunking is
//! invisible to everything above: a single-shard buffer and a 50-shard
//! buffer with the same flat contents are interchangeable.
//!
//! Sharding is what lets the engine drop the copy-heavy barriers the
//! profiler blamed for the w4 regression:
//!
//! - a pool-forced plan keeps each chunk's output as its own shard — no
//!   concatenation pass after the workers join;
//! - `concat` is shard-list concatenation — zero copies on either side;
//! - aggregation kernels walk [`Shards::for_range`] over global index
//!   ranges, so the fixed-size task decomposition (worker-count
//!   independent, see [`crate::exec`]) never depends on the shard layout.
//!
//! Cloning is O(shard count) `Arc` bumps; records are never copied.

use std::ops::Range;
use std::sync::Arc;

#[derive(Debug)]
struct Inner<T> {
    shards: Vec<Arc<Vec<T>>>,
    /// `ends[i]` is the global index one past shard `i`'s last record;
    /// `ends.last()` is the total length. Empty shards are legal (their end
    /// equals their start) and are skipped by range walks.
    ends: Vec<usize>,
}

/// An immutable, shared, sharded record buffer (see the module docs).
#[derive(Debug)]
pub(crate) struct Shards<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Shards<T> {
    fn clone(&self) -> Self {
        Shards {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Shards<T> {
    pub(crate) fn from_arcs(shards: Vec<Arc<Vec<T>>>) -> Self {
        let mut ends = Vec::with_capacity(shards.len());
        let mut total = 0usize;
        for s in &shards {
            total += s.len();
            ends.push(total);
        }
        Shards {
            inner: Arc::new(Inner { shards, ends }),
        }
    }

    /// A single-shard buffer owning `records`.
    pub(crate) fn from_vec(records: Vec<T>) -> Self {
        Self::from_arc(Arc::new(records))
    }

    /// A single-shard buffer sharing an existing allocation.
    pub(crate) fn from_arc(records: Arc<Vec<T>>) -> Self {
        Self::from_arcs(vec![records])
    }

    /// A buffer with one shard per input chunk, in order. Empty chunks are
    /// kept (they read as zero records), so callers may hand over a task
    /// decomposition verbatim.
    pub(crate) fn from_vecs(chunks: Vec<Vec<T>>) -> Self {
        Self::from_arcs(chunks.into_iter().map(Arc::new).collect())
    }

    /// Total record count across all shards.
    pub(crate) fn len(&self) -> usize {
        self.inner.ends.last().copied().unwrap_or(0)
    }

    /// Whether the buffer holds no records.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of physical shards (including empty ones).
    #[cfg(test)]
    pub(crate) fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// Whether two handles share the same underlying buffer (used by tests
    /// asserting zero-copy reuse).
    #[cfg(test)]
    pub(crate) fn ptr_eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Iterate all records in flat (global-index) order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.inner.shards.iter().flat_map(|s| s.iter())
    }

    /// Walk `range` of the flat sequence, crossing shard boundaries as
    /// needed. The global positions visited depend only on `range`, never
    /// on the shard layout.
    pub(crate) fn for_range(&self, range: Range<usize>, f: &mut dyn FnMut(&T)) {
        if range.start >= range.end {
            return;
        }
        let inner = &*self.inner;
        // First shard whose end lies beyond the range start; empty shards
        // at the boundary are skipped because their end equals their start.
        let mut si = inner.ends.partition_point(|&e| e <= range.start);
        let mut pos = range.start;
        while pos < range.end && si < inner.shards.len() {
            let shard_start = if si == 0 { 0 } else { inner.ends[si - 1] };
            let shard = &inner.shards[si];
            let lo = pos - shard_start;
            let hi = shard.len().min(range.end - shard_start);
            for t in &shard[lo..hi] {
                f(t);
            }
            pos = shard_start + hi;
            si += 1;
        }
    }

    /// Zero-copy concatenation: the result references both inputs' shards.
    pub(crate) fn concat(&self, other: &Shards<T>) -> Shards<T> {
        let mut shards = Vec::with_capacity(self.inner.shards.len() + other.inner.shards.len());
        shards.extend(self.inner.shards.iter().cloned());
        shards.extend(other.inner.shards.iter().cloned());
        Self::from_arcs(shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sharded(chunks: &[&[u32]]) -> Shards<u32> {
        Shards::from_vecs(chunks.iter().map(|c| c.to_vec()).collect())
    }

    #[test]
    fn flat_iteration_ignores_the_layout() {
        let s = sharded(&[&[1, 2], &[], &[3], &[4, 5, 6]]);
        assert_eq!(s.len(), 6);
        assert_eq!(s.shard_count(), 4);
        let flat: Vec<u32> = s.iter().copied().collect();
        assert_eq!(flat, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn for_range_crosses_boundaries_and_skips_empties() {
        let s = sharded(&[&[0, 1], &[], &[2, 3, 4], &[], &[5]]);
        for (lo, hi) in [(0, 6), (1, 5), (2, 2), (0, 1), (5, 6), (3, 4)] {
            let mut got = Vec::new();
            s.for_range(lo..hi, &mut |&v| got.push(v));
            assert_eq!(got, (lo as u32..hi as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn concat_shares_both_sides() {
        let a = sharded(&[&[1, 2]]);
        let b = sharded(&[&[3], &[4]]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 4);
        assert_eq!(c.shard_count(), 3);
        assert_eq!(c.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn empty_buffer_is_well_formed() {
        let s: Shards<u32> = Shards::from_vecs(Vec::new());
        assert!(s.is_empty());
        let mut hits = 0;
        s.for_range(0..0, &mut |_| hits += 1);
        assert_eq!(hits, 0);
    }
}

//! Shared, seedable randomness for noise generation.
//!
//! Every noisy aggregation in the engine draws from a [`NoiseSource`], a
//! thread-safe handle over a seedable PRNG. Seeding makes experiments
//! reproducible run-to-run, which the benchmark harness relies on; the same
//! seed and the same query sequence yield the same noised outputs.
//!
//! ## Substreams
//!
//! Parallel kernels (see [`crate::exec`]) must not have workers race on one
//! shared generator — the draw order, and therefore every released value,
//! would depend on thread scheduling. Instead a coordinating thread derives
//! one child [`NoiseSource`] per task with [`NoiseSource::substream`],
//! *before* dispatching work. Each substream is seeded from the root seed
//! and a monotonically increasing epoch counter through a SplitMix64-style
//! mixer, so:
//!
//! * derivation is deterministic — a fixed seed and a fixed sequence of
//!   `substream()` calls produce the same children, regardless of how many
//!   workers later consume them;
//! * successive parallel calls never reuse a child stream — the epoch
//!   counter is shared by all clones of the source, so no two derived
//!   substreams of one root ever coincide (correlated noise across queries
//!   would be a privacy bug, not just a statistics bug);
//! * deriving a substream does not advance the parent's own draw sequence.
//!
//! Note on threat models: a *deployed* mediated-analysis service must use a
//! cryptographically secure generator whose state the analyst cannot learn.
//! `rand::rngs::StdRng` is a CSPRNG (ChaCha-based), so the default here is
//! adequate; the seed, of course, must then be kept secret rather than fixed.

use crate::lock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// SplitMix64 finalizer: a cheap, well-mixed `u64 -> u64` permutation.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derive the seed of substream `index` of a root seed. Public so that
/// deterministic parallel generators outside the engine (e.g. chunked
/// synthetic-trace generation) can share the engine's derivation scheme.
pub fn derive_seed(root: u64, index: u64) -> u64 {
    // Golden-ratio increment decorrelates consecutive indices before the
    // finalizer; the xor folds the root in.
    mix64(
        root ^ index
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x2545_f491_4f6c_dd1d),
    )
}

/// The draw behind [`NoiseSource::centered_uniform`], on an RNG the caller
/// already holds (see [`NoiseSource::with_rng`]), so a batch of draws takes
/// the lock once and the same sequence as one call per draw.
pub(crate) fn centered_uniform(rng: &mut StdRng) -> f64 {
    loop {
        let u = rng.gen::<f64>() - 0.5;
        if u > -0.5 {
            return u;
        }
    }
}

/// A cloneable, thread-safe source of randomness shared by every queryable
/// derived from the same protected dataset.
#[derive(Clone)]
pub struct NoiseSource {
    inner: Arc<Mutex<StdRng>>,
    /// Root seed for substream derivation (not the generator state).
    root: u64,
    /// Substream epoch, shared by all clones: each derived substream
    /// consumes one epoch, so streams are never reused.
    epoch: Arc<AtomicU64>,
}

impl std::fmt::Debug for NoiseSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NoiseSource").finish_non_exhaustive()
    }
}

impl NoiseSource {
    /// Create a noise source from a fixed seed. Deterministic: the sequence
    /// of draws depends only on the seed and the order of operations.
    pub fn seeded(seed: u64) -> Self {
        NoiseSource {
            inner: Arc::new(Mutex::new(StdRng::seed_from_u64(seed))),
            root: seed,
            epoch: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Create a noise source seeded from operating-system entropy.
    pub fn from_entropy() -> Self {
        let root = StdRng::from_entropy().gen::<u64>();
        NoiseSource::seeded(root)
    }

    /// Draw a uniform sample in `[0, 1)`.
    pub fn uniform(&self) -> f64 {
        lock(&self.inner).gen::<f64>()
    }

    /// Draw a uniform sample in the open interval `(-0.5, 0.5)`, never
    /// exactly `-0.5` (so that `ln(1 - 2|u|)` stays finite).
    pub fn centered_uniform(&self) -> f64 {
        centered_uniform(&mut lock(&self.inner))
    }

    /// Run a closure with exclusive access to the underlying RNG. Used by
    /// mechanisms that need several draws atomically.
    pub fn with_rng<R>(&self, f: impl FnOnce(&mut StdRng) -> R) -> R {
        f(&mut lock(&self.inner))
    }

    /// Derive an independent child source for one parallel task.
    ///
    /// Must be called on the coordinating thread, in task order, *before*
    /// work is dispatched — that makes the assignment of streams to tasks
    /// deterministic for any worker count. Each call consumes one epoch of
    /// the shared counter (clones included), so repeated parallel phases on
    /// the same dataset never see the same stream twice. The parent's own
    /// draw sequence is not advanced.
    pub fn substream(&self) -> NoiseSource {
        let e = self.epoch.fetch_add(1, Ordering::Relaxed);
        NoiseSource::seeded(derive_seed(self.root, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_sources_are_reproducible() {
        let a = NoiseSource::seeded(7);
        let b = NoiseSource::seeded(7);
        let xs: Vec<f64> = (0..16).map(|_| a.uniform()).collect();
        let ys: Vec<f64> = (0..16).map(|_| b.uniform()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = NoiseSource::seeded(1);
        let b = NoiseSource::seeded(2);
        let xs: Vec<f64> = (0..8).map(|_| a.uniform()).collect();
        let ys: Vec<f64> = (0..8).map(|_| b.uniform()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn centered_uniform_is_in_open_interval() {
        let s = NoiseSource::seeded(3);
        for _ in 0..10_000 {
            let u = s.centered_uniform();
            assert!(u > -0.5 && u < 0.5);
        }
    }

    #[test]
    fn clones_share_state() {
        // Clones advance the same generator: interleaved draws from a clone
        // must not repeat the original's stream.
        let a = NoiseSource::seeded(9);
        let b = a.clone();
        let x = a.uniform();
        let y = b.uniform();
        let z = a.uniform();
        assert_ne!(x, y);
        assert_ne!(y, z);
    }

    #[test]
    fn substream_derivation_is_deterministic() {
        let a = NoiseSource::seeded(11);
        let b = NoiseSource::seeded(11);
        for _ in 0..4 {
            let xs: Vec<f64> = {
                let s = a.substream();
                (0..8).map(|_| s.uniform()).collect()
            };
            let ys: Vec<f64> = {
                let s = b.substream();
                (0..8).map(|_| s.uniform()).collect()
            };
            assert_eq!(xs, ys);
        }
    }

    #[test]
    fn successive_substreams_differ() {
        let a = NoiseSource::seeded(13);
        let s1 = a.substream();
        let s2 = a.substream();
        let xs: Vec<f64> = (0..8).map(|_| s1.uniform()).collect();
        let ys: Vec<f64> = (0..8).map(|_| s2.uniform()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn clones_share_the_epoch_counter() {
        // A substream taken through a clone must not collide with the next
        // substream of the original: the epoch is shared state.
        let a = NoiseSource::seeded(15);
        let b = a.clone();
        let s1 = b.substream();
        let s2 = a.substream();
        let xs: Vec<f64> = (0..8).map(|_| s1.uniform()).collect();
        let ys: Vec<f64> = (0..8).map(|_| s2.uniform()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn substream_does_not_advance_the_parent() {
        let a = NoiseSource::seeded(17);
        let b = NoiseSource::seeded(17);
        let _ = a.substream();
        let _ = a.substream();
        assert_eq!(a.uniform(), b.uniform());
    }

    #[test]
    fn derive_seed_spreads_indices() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(derive_seed(42, i)), "collision at index {i}");
        }
    }
}

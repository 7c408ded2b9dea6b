//! # pinq — an ε-differentially-private query engine
//!
//! A Rust implementation of the analysis platform used by *McSherry &
//! Mahajan, "Differentially-Private Network Trace Analysis" (SIGCOMM 2010)*:
//! **Privacy Integrated Queries** (PINQ, McSherry SIGMOD 2009).
//!
//! The engine never hands raw records to the analyst. Instead, the data
//! owner wraps records in a [`Queryable`], assigns a privacy budget through
//! an [`Accountant`], and the analyst composes declarative transformations
//! and noisy aggregations:
//!
//! * **Transformations** — [`Queryable::filter`], [`Queryable::map`],
//!   [`Queryable::select_many`], [`Queryable::group_by`],
//!   [`Queryable::distinct`], [`Queryable::join`], [`Queryable::concat`],
//!   [`Queryable::intersect`], [`Queryable::partition`] — return new
//!   protected datasets and track *stability*, the factor by which one
//!   source record's influence may have been amplified.
//! * **Aggregations** — [`Queryable::noisy_count`], [`Queryable::noisy_sum`],
//!   [`Queryable::noisy_average`], [`Queryable::noisy_median`] — release a
//!   number after adding noise calibrated per the paper's Table 1, charging
//!   `stability × ε` against the budget.
//!
//! Two composition rules power privacy-efficient analysis:
//!
//! * **Sequential composition** ([`budget`]): costs of successive queries add.
//! * **Parallel composition** (`Partition`): queries on disjoint parts of a
//!   [`Queryable::partition`] cost only their maximum. The per-part queries
//!   run through one fan-out API:
//!   [`Queryable::partition_noisy_counts_indexed`] counts every part, by
//!   position, in one pass ([`Queryable::partition_noisy_counts`] is its
//!   keyed form), and [`Queryable::partition_map`] runs any other per-part
//!   query on the queryable's [`ExecPool`].
//!
//! ## Guarantee
//!
//! A randomized computation `M` gives ε-differential privacy when for all
//! datasets `A`, `B` and output sets `S`:
//! `Pr[M(A) ∈ S] ≤ Pr[M(B) ∈ S] · exp(ε·|A ⊖ B|)`.
//! Informally: the presence or absence of any single record is nearly
//! impossible to infer from released outputs, regardless of auxiliary
//! information or collusion among analysts.
//!
//! ## Example
//!
//! ```
//! use pinq::{Accountant, NoiseSource, Queryable};
//!
//! let budget = Accountant::new(1.0);           // data-owner policy
//! let noise = NoiseSource::seeded(0xfeed);
//! let data = Queryable::new((0..1000u32).collect::<Vec<_>>(), &budget, &noise);
//!
//! let evens = data.filter(|x| x % 2 == 0).noisy_count(0.1).unwrap();
//! assert!((evens - 500.0).abs() < 100.0);      // ±√2/ε expected error
//! assert_eq!(budget.remaining(), 0.9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregates;
pub mod error;
pub mod exec;
pub mod explain;
mod group;
pub mod kernel;
pub mod mechanisms;
#[cfg(test)]
mod parallel;
mod plan;
pub mod policy;
pub mod queryable;
pub mod rng;
mod shard;
pub mod types;

pub use kernel::budget;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m`, going on past poisoning: a panic in another holder does not
/// make later locks fail. The one way this crate takes a lock.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

pub use budget::{Accountant, OperatorTotal, SpendEvent, DEFAULT_LOG_CAPACITY};
pub use error::{Error, Result};
pub use exec::{ExecCtx, ExecPool};
pub use explain::{
    install_explain_recorder, uninstall_explain_recorder, ExplainRecorder, ExplainReport,
    ExplainTree, Overlay,
};
pub use policy::{Session, SessionManager, SessionSpend, TimedRelease};
pub use queryable::{FxBuildHasher, Queryable};
pub use rng::NoiseSource;
pub use types::{Group, JoinGroup};

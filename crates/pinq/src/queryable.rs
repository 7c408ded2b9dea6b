//! The analyst-facing protected dataset handle.
//!
//! A [`Queryable<T>`] wraps records the analyst must never see directly.
//! *Transformations* (`filter`, `map`, `group_by`, `join`, `partition`, …)
//! produce new queryables and track how they amplify the influence any one
//! source record can have — the *stability* multiplier. *Aggregations*
//! (`noisy_count`, `noisy_sum`, `noisy_average`, `noisy_median`) release a
//! randomized number, charging `stability × ε` against the source budget and
//! perturbing the answer with noise calibrated to `1/ε`.
//!
//! The worked example of the paper's §2.3 — count distinct hosts sending
//! more than 1024 bytes to port 80 — looks like this:
//!
//! ```
//! use pinq::{Accountant, NoiseSource, Queryable};
//!
//! #[derive(Clone)]
//! struct Packet { src_ip: u32, dst_port: u16, len: u32 }
//! # let trace = vec![Packet { src_ip: 1, dst_port: 80, len: 2000 }];
//!
//! let budget = Accountant::new(1.0);
//! let noise = NoiseSource::seeded(42);
//! let packets = Queryable::new(trace, &budget, &noise);
//!
//! let count = packets
//!     .filter(|p| p.dst_port == 80)
//!     .group_by(|p| p.src_ip)
//!     .filter(|g| g.items.iter().map(|p| p.len).sum::<u32>() > 1024)
//!     .noisy_count(0.1)
//!     .unwrap();
//! // `group_by` doubles sensitivity, so ε = 0.2 was deducted:
//! assert!((budget.spent() - 0.2).abs() < 1e-12);
//! # let _ = count;
//! ```

use crate::aggregates;
use crate::budget::Accountant;
use crate::error::{check_epsilon, Error, Result};
use crate::exec::{ExecCtx, ExecPool};
use crate::explain::{ExplainTree, OpNode};
use crate::group;
use crate::kernel::{self, ChargeNode};
use crate::lock;
use crate::plan::{LazyPlan, Runner, View};
use crate::rng::NoiseSource;
use crate::shard::Shards;
use crate::types::{Group, JoinGroup};
use dpnet_obs::sink::SinkHandle;
use dpnet_obs::span;
use dpnet_obs::{
    now_ns, AggregateEvent, Event, EventSink, ExecEvent, Outcome, PlanEvent, TransformEvent,
};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// An Fx-style hasher (one add and multiply per word, a rotate on finish,
/// as in `rustc-hash`) for maps probed once per record: the key index of
/// a keyed partition (worm's candidate payloads, the communication rules'
/// candidate pairs) and the viable-prefix map of a frequent-string round.
/// It is not DoS-resistant, and need not be: those keys come from
/// analysis code or from released counts, never from the wire, so no
/// adversary picks the key set.
#[derive(Default)]
pub struct FxHasher(u64);

/// Builds [`FxHasher`]s: `HashMap<K, V, FxBuildHasher>`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(n).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    // `usize` keys and enum discriminants hash through here; the default
    // would take the byte-slice path.
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves its entropy in the high bits; the table
        // indexes buckets by the low ones.
        self.0.rotate_left(26)
    }
}

/// Map each key to its position in `keys`. Shared by
/// [`Queryable::partition`] and [`Queryable::partition_noisy_counts`], the
/// keyed forms; callers that already hold positions use
/// [`Queryable::partition_noisy_counts_indexed`] and build none.
fn key_index<K: Eq + Hash>(keys: &[K]) -> Result<HashMap<&K, usize, FxBuildHasher>> {
    let mut index_of = HashMap::with_capacity_and_hasher(keys.len(), Default::default());
    for (i, k) in keys.iter().enumerate() {
        if index_of.insert(k, i).is_some() {
            return Err(Error::DuplicatePartitionKeys);
        }
    }
    Ok(index_of)
}

/// Marks a record whose key is not in a partition's key list.
const NO_PART: u32 = u32::MAX;

/// The records behind a queryable: a materialized (sharded) buffer, or a
/// lazy fused plan that will produce one when forced.
enum Data<T> {
    Ready(Shards<T>),
    Lazy(Arc<LazyPlan<T>>),
}

/// Where an aggregation kernel reads records from: the sharded buffer when
/// one exists, or the unforced fused chain streamed straight off the
/// source (no output buffer ever exists).
///
/// `walk` visits a *global index range* of the stream's domain — record
/// positions for a buffer, source positions for a chain — so the fixed
/// chunk decomposition stays worker-count independent either way.
enum StreamSource<T> {
    Buf(Shards<T>),
    Chain(Runner<T>),
}

impl<T> StreamSource<T> {
    fn walk(&self, range: Range<usize>, f: &mut dyn FnMut(&T)) {
        match self {
            StreamSource::Buf(s) => s.for_range(range, f),
            StreamSource::Chain(run) => run(range, &mut |t| f(&t)),
        }
    }
}

impl<T> Clone for Data<T> {
    fn clone(&self) -> Self {
        match self {
            Data::Ready(a) => Data::Ready(a.clone()),
            Data::Lazy(p) => Data::Lazy(p.clone()),
        }
    }
}

/// Classify an aggregation result for event reporting: a budget refusal is
/// `Denied`, any other error is an invalid request; both cost nothing.
fn outcome_of<R>(r: &Result<R>) -> Outcome {
    match r {
        Ok(_) => Outcome::Ok,
        Err(Error::BudgetExceeded { .. }) => Outcome::Denied,
        Err(_) => Outcome::Invalid,
    }
}

/// One observed engine region: its span, and the sink resolved once when
/// the region opened. The span reads the clock only when a recorder is
/// installed or the sink is bound, and every event the region emits takes
/// its wall time and start timestamp from that span — so an unobserved
/// region never reads the clock.
struct Observed {
    /// The span's name, which is also the kernel or operator name of the
    /// events the region emits.
    name: &'static str,
    span: span::SpanGuard,
    sink: Option<Arc<dyn EventSink>>,
}

impl Observed {
    /// Resolve `sink`, then open the region's span with `enter(name,
    /// timed)`, where `timed` says whether the sink needs a duration.
    fn open(
        sink: &SinkHandle,
        name: &'static str,
        enter: impl FnOnce(&'static str, bool) -> span::SpanGuard,
    ) -> Self {
        let sink = sink.resolve();
        Observed {
            name,
            span: enter(name, sink.is_some()),
            sink,
        }
    }

    /// Emit the event `make` builds from the span's `(wall_ns, at_ns)` —
    /// built only when a sink is bound.
    fn emit(&self, make: impl FnOnce(u64, u64) -> Event) {
        if let Some(sink) = &self.sink {
            sink.emit(&make(self.span.elapsed_ns(), self.span.start_ns()));
        }
    }
}

/// An opaque, privacy-protected dataset.
///
/// Cloning is cheap (the records are shared); clones charge the same budget.
///
/// Record-shaping operators (`filter`, `map`, `select_many`) are **lazy**:
/// they fuse into a single per-record pass that runs — once, memoized —
/// when an aggregation or a key-shuffling barrier (`group_by`, `join`,
/// `partition`, …) forces it, or on an explicit
/// [`Queryable::collect_protected`]. Stability and budget bookkeeping
/// happen at operator *declaration*, so laziness never changes what is
/// charged or released. Forced plans and chunked aggregation kernels run
/// on the queryable's [`ExecPool`]: [`ExecPool::sequential`] (the calling
/// thread) unless [`Queryable::with_ctx`] binds another.
pub struct Queryable<T> {
    data: Data<T>,
    charge: Arc<ChargeNode>,
    noise: NoiseSource,
    stability: f64,
    /// Analyst-facing name for this pipeline stage, carried into ledger
    /// entries and events. Set with [`Queryable::with_label`].
    label: Option<Arc<str>>,
    /// Emission point for structured events; shared with the accountant the
    /// dataset was created under.
    sink: SinkHandle,
    /// Where plans materialize and chunked kernels run.
    pool: ExecPool,
    /// Operator lineage back to the source(s) — pure plan metadata for
    /// [`Queryable::explain`]; never holds data.
    lineage: Arc<OpNode>,
}

impl<T> Clone for Queryable<T> {
    fn clone(&self) -> Self {
        let (charge, lineage) = (self.charge.clone(), self.lineage.clone());
        self.rewrap(self.data.clone(), charge, self.stability, lineage)
    }
}

impl<T> std::fmt::Debug for Queryable<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Deliberately does not print record contents or even the record
        // count: both are protected.
        f.debug_struct("Queryable")
            .field("stability", &self.stability)
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

impl<T> Queryable<T> {
    /// Wrap raw records under the protection of `budget`. This is the data
    /// owner's entry point; everything downstream sees only the handle.
    pub fn new(records: Vec<T>, budget: &Accountant, noise: &NoiseSource) -> Self {
        Self::from_sharded(Shards::from_vec(records), budget, noise)
    }

    /// Wrap records already chunked into shards (e.g. emitted shard-by-shard
    /// by a trace generator) without copying them into one flat buffer. The
    /// flat record sequence is the concatenation of `shards` in order;
    /// privacy semantics are identical to [`Queryable::new`] over that
    /// flattened vector — the shard layout is a physical detail no released
    /// value depends on. Empty shards are allowed and read as zero records.
    pub fn from_shards(shards: Vec<Vec<T>>, budget: &Accountant, noise: &NoiseSource) -> Self {
        Self::from_sharded(Shards::from_vecs(shards), budget, noise)
    }

    /// Like [`Queryable::from_shards`], but sharing already-`Arc`ed shards:
    /// wrapping costs one reference bump per shard and zero record copies,
    /// so a cached dataset can back many protected views (each with its own
    /// budget) without duplicating the trace in memory.
    pub fn from_shared_shards(
        shards: Vec<Arc<Vec<T>>>,
        budget: &Accountant,
        noise: &NoiseSource,
    ) -> Self {
        Self::from_sharded(Shards::from_arcs(shards), budget, noise)
    }

    fn from_sharded(records: Shards<T>, budget: &Accountant, noise: &NoiseSource) -> Self {
        Queryable {
            data: Data::Ready(records),
            charge: kernel::root_node(budget),
            noise: noise.clone(),
            stability: 1.0,
            label: None,
            sink: budget.sink_handle().clone(),
            pool: ExecPool::sequential(),
            lineage: OpNode::source(None),
        }
    }

    /// Wrap shared records under *several* budgets at once: every
    /// aggregation must fit in, and is charged against, all of them.
    ///
    /// This is the owner-side primitive behind multi-analyst policies
    /// (paper §7): give each analyst session a view charging both the
    /// analyst's personal cap and the dataset-wide budget, and no coalition
    /// of analysts can learn more than the global budget allows.
    ///
    /// # Panics
    /// Panics if `budgets` is empty — an unbudgeted dataset would be
    /// unprotected.
    pub fn new_shared(records: Arc<Vec<T>>, budgets: &[&Accountant], noise: &NoiseSource) -> Self {
        Self::new_shared_shards(vec![records], budgets, noise)
    }

    /// [`Queryable::new_shared`] over pre-chunked shared shards: the
    /// serving path, where one loaded trace backs many concurrent analyst
    /// sessions and every session must charge several budgets at once.
    /// Chunks are shared zero-copy across sessions; flat record order is
    /// the shard concatenation, so releases are identical to a flat
    /// source over the same records.
    pub fn new_shared_shards(
        shards: Vec<Arc<Vec<T>>>,
        budgets: &[&Accountant],
        noise: &NoiseSource,
    ) -> Self {
        assert!(!budgets.is_empty(), "at least one budget is required");
        let charge = kernel::shared_root_node(budgets);
        Queryable {
            data: Data::Ready(Shards::from_arcs(shards)),
            charge,
            noise: noise.clone(),
            stability: 1.0,
            label: None,
            // Events route through the first budget's sink: multi-budget
            // views belong to one owner session, and that owner binds the
            // sink on the budget they hand out first.
            sink: budgets[0].sink_handle().clone(),
            pool: ExecPool::sequential(),
            lineage: OpNode::source(Some(format!("{} budgets", budgets.len()))),
        }
    }

    /// A queryable over `data` sharing this one's noise, label, sink and
    /// pool: every derived queryable is built here.
    fn rewrap<U>(
        &self,
        data: Data<U>,
        charge: Arc<ChargeNode>,
        stability: f64,
        lineage: Arc<OpNode>,
    ) -> Queryable<U> {
        Queryable {
            data,
            charge,
            noise: self.noise.clone(),
            stability,
            label: self.label.clone(),
            sink: self.sink.clone(),
            pool: self.pool.clone(),
            lineage,
        }
    }

    fn derive<U>(&self, op: &'static str, records: Vec<U>, stability: f64) -> Queryable<U> {
        let lineage = OpNode::derived(op, stability, false, None, self.lineage.clone());
        let data = Data::Ready(Shards::from_vec(records));
        self.rewrap(data, self.charge.clone(), stability, lineage)
    }

    fn derive_lazy<U>(
        &self,
        op: &'static str,
        detail: Option<String>,
        plan: LazyPlan<U>,
        stability: f64,
    ) -> Queryable<U> {
        let lineage = OpNode::derived(op, stability, true, detail, self.lineage.clone());
        let data = Data::Lazy(Arc::new(plan));
        self.rewrap(data, self.charge.clone(), stability, lineage)
    }

    /// The source buffer or fused chain a downstream transform composes
    /// against. A memoized plan is read as a buffer, so chains declared
    /// after a force do not re-run the upstream stages.
    fn view(&self) -> View<T> {
        match &self.data {
            Data::Ready(a) => View::Source(a.clone()),
            Data::Lazy(p) => p.view(),
        }
    }

    /// Force materialization (memoized) and return the shared buffer.
    ///
    /// Emits one [`PlanEvent`] per *actual* materialization; reads of the
    /// memo are free and silent. Each fixed-size source chunk's output
    /// becomes one shard of the buffer (see [`LazyPlan::force`]) — no
    /// concatenation barrier.
    fn records(&self) -> Shards<T>
    where
        T: Send + Sync,
    {
        match &self.data {
            Data::Ready(a) => a.clone(),
            Data::Lazy(plan) => {
                let obs = Observed::open(&self.sink, "plan/materialize", |name, timed| {
                    span::enter_with(name, timed, || format!("workers={}", self.pool.workers()))
                });
                let mut fresh = false;
                let out = plan.force(&self.pool, &mut fresh);
                if fresh {
                    obs.span.set_records(out.len() as u64);
                    self.emit_plan(&obs, plan.fused(), plan.source_len(), out.len());
                }
                out
            }
        }
    }

    /// The record stream an aggregation kernel should read, plus the length
    /// of the global index domain its chunk decomposition ranges over:
    /// record count for a buffer, *source* record count for an unforced
    /// chain (the fused stages run inside the kernel's pass — fused
    /// aggregation, no output buffer is ever allocated).
    fn stream(&self) -> (StreamSource<T>, usize) {
        match self.view() {
            View::Source(s) => {
                let len = s.len();
                (StreamSource::Buf(s), len)
            }
            View::Chain(run, len, _) => (StreamSource::Chain(run), len),
        }
    }

    /// Number of records the queryable holds, counted by streaming the
    /// fused chain when nothing has materialized — the fused form of the
    /// count aggregations. Chunk counts are integers, summed in chunk
    /// order.
    fn stream_count(&self, obs: &Observed) -> usize
    where
        T: Send + Sync,
    {
        match self.stream() {
            (StreamSource::Buf(s), _) => s.len(),
            (StreamSource::Chain(run), domain) => {
                let ranges = self.pool.chunks(domain);
                let counts: Vec<usize> = self.pool.run(&ranges, |_, r| {
                    let mut n = 0usize;
                    run(r.clone(), &mut |_| n += 1);
                    n
                });
                self.emit_exec(obs, self.pool.workers(), ranges.len());
                counts.into_iter().sum()
            }
        }
    }

    /// Current sensitivity multiplier relative to the source dataset.
    pub fn stability(&self) -> f64 {
        self.stability
    }

    /// Bind the pool `ctx` names: where this queryable's lazy plans
    /// materialize and where chunked aggregation kernels run. Every
    /// derived queryable inherits it.
    ///
    /// Releases and ε charges are bit-identical for any worker count at a
    /// fixed chunk size: the pool only decides which thread runs a chunk.
    pub fn with_ctx(mut self, ctx: ExecCtx) -> Self {
        self.pool = ctx.into_pool();
        self
    }

    /// Force the pending fused plan (if any) and return a handle over the
    /// materialized buffer. Stability, charges and the noise stream are
    /// untouched — this only pins *when* the record buffer exists, e.g. to
    /// pay a pipeline's cost once before aggregating in a loop.
    pub fn collect_protected(&self) -> Queryable<T>
    where
        T: Send + Sync,
    {
        let (charge, lineage) = (self.charge.clone(), self.lineage.clone());
        self.rewrap(Data::Ready(self.records()), charge, self.stability, lineage)
    }

    /// Name this pipeline stage. The label rides along into every ledger
    /// entry and structured event produced downstream — it is how an owner
    /// reading an audit export maps ε spends back to the analysis that
    /// caused them. Labels are analyst-chosen metadata, never data.
    pub fn with_label(mut self, label: &str) -> Self {
        self.label = Some(Arc::from(label));
        self
    }

    /// The label set with [`Queryable::with_label`], if any.
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// Charge the budget for an aggregation at analyst accuracy `eps`,
    /// attributing the spend to `operator` in the ledger.
    ///
    /// Validation happens here; the spend itself goes through the sealed
    /// kernel entry point ([`kernel::charge_prepared`]), which also folds
    /// the per-root deltas into an installed
    /// [`ExplainRecorder`](crate::ExplainRecorder), captured atomically
    /// with the charge.
    fn pay(&self, eps: f64, operator: &'static str) -> Result<()> {
        check_epsilon(eps)?;
        if !(self.stability.is_finite() && self.stability > 0.0) {
            return Err(Error::InvalidStability(self.stability));
        }
        let prep = kernel::prepare(operator, self.label.clone());
        kernel::charge_prepared(&self.charge, self.stability * eps, &prep)
    }

    /// Snapshot this pipeline into a side-effect-free
    /// [`ExplainTree`]: operator lineage (with fusion boundaries and the
    /// stability multiplier at each edge), the structured charge DAG, and
    /// the arithmetic to predict what any pending aggregation would cost.
    /// Nothing is charged and nothing materializes.
    pub fn explain(&self) -> ExplainTree {
        let (charge, node) = self.charge.snapshot();
        ExplainTree {
            label: self.label.as_deref().map(str::to_string),
            stability: self.stability,
            pending_fused: match &self.data {
                Data::Ready(_) => 0,
                Data::Lazy(p) => match p.view() {
                    // A memoized plan reads as a buffer: nothing pending.
                    View::Source(_) => 0,
                    View::Chain(_, _, fused) => fused,
                },
            },
            materialized: matches!(self.view(), View::Source(_)),
            lineage: self.lineage.clone(),
            charge,
            node,
        }
    }

    /// Emit a [`TransformEvent`] for a just-derived queryable.
    fn emit_transform(&self, operator: &'static str, stability_out: f64, output_records: usize) {
        // Quiet the unused warning when `trusted-owner` is off: the count
        // deliberately does not leave this function in that configuration.
        let _ = output_records;
        self.sink.emit(|| {
            Event::Transform(TransformEvent {
                operator,
                label: self.label.clone(),
                stability_in: self.stability,
                stability_out,
                at_ns: now_ns(),
                #[cfg(feature = "trusted-owner")]
                output_records: output_records as u64,
            })
        });
    }

    /// Emit an [`AggregateEvent`] for the aggregation `obs` spans, which
    /// ended in `r`; `released` maps a success to its scalar release.
    /// `input_records` only leaves this function under `trusted-owner`.
    fn emit_aggregate<R>(
        &self,
        obs: &Observed,
        mechanism: &'static str,
        eps: f64,
        r: &Result<R>,
        released: impl FnOnce(&R) -> Option<f64>,
        input_records: usize,
    ) {
        let _ = input_records;
        obs.emit(|wall_ns, at_ns| {
            let outcome = outcome_of(r);
            Event::Aggregate(AggregateEvent {
                operator: obs.name,
                mechanism,
                label: self.label.clone(),
                stability: self.stability,
                eps_requested: eps,
                eps_charged: if outcome == Outcome::Ok {
                    self.stability * eps
                } else {
                    0.0
                },
                outcome,
                released: r.as_ref().ok().and_then(released),
                wall_ns,
                at_ns,
                #[cfg(feature = "trusted-owner")]
                input_records: input_records as u64,
            })
        });
    }

    /// Emit a [`PlanEvent`] describing the materialization `obs` spans.
    /// The record counts only leave this function under `trusted-owner`.
    fn emit_plan(
        &self,
        obs: &Observed,
        fused: usize,
        source_records: usize,
        output_records: usize,
    ) {
        let _ = (source_records, output_records);
        // Process-wide ordinal: explain-analyze counts materializations per
        // run by diffing, so monotonicity is all that matters here.
        static MATERIALIZATIONS: std::sync::atomic::AtomicU64 =
            std::sync::atomic::AtomicU64::new(1);
        obs.emit(|wall_ns, at_ns| {
            Event::Plan(PlanEvent {
                materialization: MATERIALIZATIONS
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                fused_stages: fused as u64,
                workers: self.pool.workers() as u64,
                wall_ns,
                at_ns,
                #[cfg(feature = "trusted-owner")]
                source_records: source_records as u64,
                #[cfg(feature = "trusted-owner")]
                output_records: output_records as u64,
            })
        });
    }

    /// Emit an [`ExecEvent`] for a parallel-kernel run inside the region
    /// `obs` spans, timed from the region's start. `tasks` (the chunk
    /// count) is derived from the record count, so it only leaves this
    /// function under `trusted-owner`.
    fn emit_exec(&self, obs: &Observed, workers: usize, tasks: usize) {
        let _ = tasks;
        obs.emit(|wall_ns, at_ns| {
            Event::Exec(ExecEvent {
                kernel: obs.name,
                workers: workers as u64,
                wall_ns,
                at_ns,
                #[cfg(feature = "trusted-owner")]
                tasks: tasks as u64,
            })
        });
    }

    /// Open a profiler span for an aggregation barrier, tagged with the
    /// static charge path the spend would narrate (e.g.
    /// `"part[3]/scale(x2)/root"`). Pure privacy metadata; when profiling
    /// is disabled this is one relaxed atomic load and nothing formats.
    fn agg_span(&self, name: &'static str, timed: bool) -> span::SpanGuard {
        span::enter_with(name, timed, || self.charge.describe())
    }

    /// Open an aggregation barrier's [`agg_span`](Self::agg_span) as an
    /// observed region, for barriers that emit timed events.
    fn observe(&self, name: &'static str) -> Observed {
        Observed::open(&self.sink, name, |name, timed| self.agg_span(name, timed))
    }

    // ------------------------------------------------------------------
    // Transformations
    // ------------------------------------------------------------------

    /// Keep records satisfying `pred` (PINQ `Where`). Stability ×1.
    ///
    /// Lazy: fuses onto the pending plan; nothing runs until a barrier
    /// forces materialization.
    pub fn filter(&self, pred: impl Fn(&T) -> bool + Send + Sync + 'static) -> Queryable<T>
    where
        T: Clone + Send + Sync + 'static,
    {
        let plan = match self.view() {
            View::Source(src) => {
                let len = src.len();
                LazyPlan::new(len, 1, move |r: Range<usize>, emit: &mut dyn FnMut(T)| {
                    src.for_range(r, &mut |rec| {
                        if pred(rec) {
                            emit(rec.clone());
                        }
                    });
                })
            }
            View::Chain(run, len, fused) => LazyPlan::new(
                len,
                fused + 1,
                move |r: Range<usize>, emit: &mut dyn FnMut(T)| {
                    run(r, &mut |rec: T| {
                        if pred(&rec) {
                            emit(rec);
                        }
                    });
                },
            ),
        };
        let q = self.derive_lazy("filter", None, plan, self.stability);
        self.emit_transform("filter", q.stability, 0);
        q
    }

    /// Transform each record (PINQ `Select`). Stability ×1.
    ///
    /// Lazy: fuses onto the pending plan; nothing runs until a barrier
    /// forces materialization.
    pub fn map<U>(&self, f: impl Fn(&T) -> U + Send + Sync + 'static) -> Queryable<U>
    where
        T: Send + Sync + 'static,
        U: 'static,
    {
        let plan = match self.view() {
            View::Source(src) => {
                let len = src.len();
                LazyPlan::new(len, 1, move |r: Range<usize>, emit: &mut dyn FnMut(U)| {
                    src.for_range(r, &mut |rec| emit(f(rec)));
                })
            }
            View::Chain(run, len, fused) => LazyPlan::new(
                len,
                fused + 1,
                move |r: Range<usize>, emit: &mut dyn FnMut(U)| {
                    run(r, &mut |rec: T| emit(f(&rec)));
                },
            ),
        };
        let q = self.derive_lazy("map", None, plan, self.stability);
        self.emit_transform("map", q.stability, 0);
        q
    }

    /// Expand each record into up to `bound` records (PINQ `SelectMany`).
    /// Outputs beyond `bound` per input are truncated, which is what lets
    /// the engine promise stability ×`bound`.
    ///
    /// Lazy: fuses onto the pending plan; nothing runs until a barrier
    /// forces materialization. The stability scaling applies at
    /// declaration, as always.
    pub fn select_many<U>(
        &self,
        bound: usize,
        f: impl Fn(&T) -> Vec<U> + Send + Sync + 'static,
    ) -> Result<Queryable<U>>
    where
        T: Send + Sync + 'static,
        U: 'static,
    {
        if bound == 0 {
            return Err(Error::InvalidFanout(bound));
        }
        let plan = match self.view() {
            View::Source(src) => {
                let len = src.len();
                LazyPlan::new(len, 1, move |r: Range<usize>, emit: &mut dyn FnMut(U)| {
                    src.for_range(r, &mut |rec| {
                        let mut items = f(rec);
                        items.truncate(bound);
                        for item in items {
                            emit(item);
                        }
                    });
                })
            }
            View::Chain(run, len, fused) => LazyPlan::new(
                len,
                fused + 1,
                move |r: Range<usize>, emit: &mut dyn FnMut(U)| {
                    run(r, &mut |rec: T| {
                        let mut items = f(&rec);
                        items.truncate(bound);
                        for item in items {
                            emit(item);
                        }
                    });
                },
            ),
        };
        let q = self.derive_lazy(
            "select_many",
            Some(format!("bound={bound}")),
            plan,
            self.stability * bound as f64,
        );
        self.emit_transform("select_many", q.stability, 0);
        Ok(q)
    }

    /// Group records by a key (PINQ `GroupBy`). Stability ×2: adding or
    /// removing one source record can change two output records (the group
    /// it leaves and the group it joins, in the multiset-difference sense).
    ///
    /// A barrier: forces the pending fused plan. The key hashing and the
    /// per-part grouping run on the queryable's pool; the groups are the
    /// same for any worker count.
    pub fn group_by<K>(&self, key: impl Fn(&T) -> K + Send + Sync) -> Queryable<Group<K, T>>
    where
        K: Eq + Hash + Send,
        T: Clone + Send + Sync,
    {
        let prof = self.agg_span("group_by", false);
        let records = self.records();
        prof.set_records(records.len() as u64);
        let out = group::group_records(&self.pool, &records, &key);
        let n_out = out.len();
        let q = self.derive("group_by", out, self.stability * 2.0);
        self.emit_transform("group_by", q.stability, n_out);
        q
    }

    /// Keep the first record for each distinct key (PINQ `Distinct` over a
    /// projection). Stability ×1.
    pub fn distinct_by<K>(&self, key: impl Fn(&T) -> K) -> Queryable<T>
    where
        K: Eq + Hash,
        T: Clone + Send + Sync,
    {
        let records = self.records();
        let mut seen = std::collections::HashSet::new();
        let out: Vec<T> = records
            .iter()
            .filter(|r| seen.insert(key(r)))
            .cloned()
            .collect();
        let n_out = out.len();
        let q = self.derive("distinct_by", out, self.stability);
        self.emit_transform("distinct_by", q.stability, n_out);
        q
    }

    /// Keep one copy of each distinct record. Stability ×1.
    pub fn distinct(&self) -> Queryable<T>
    where
        T: Eq + Hash + Clone + Send + Sync,
    {
        self.distinct_by(|r| r.clone())
    }

    /// PINQ's privacy-bounded join: group both inputs by key and emit one
    /// [`JoinGroup`] per key present in *both* inputs. No sensitivity
    /// increase for either input; an aggregation on the result charges both
    /// source budgets.
    ///
    /// The left side is grouped as in [`Queryable::group_by`]; each right
    /// record is then looked up in the left side's key index.
    pub fn join<U, K>(
        &self,
        other: &Queryable<U>,
        left_key: impl Fn(&T) -> K + Send + Sync,
        right_key: impl Fn(&U) -> K,
    ) -> Queryable<JoinGroup<K, T, U>>
    where
        K: Eq + Hash + Send,
        T: Clone + Send + Sync,
        U: Clone + Send + Sync,
    {
        let prof = self.agg_span("join", false);
        let left_records = self.records();
        let right_records = other.records();
        prof.set_records((left_records.len() + right_records.len()) as u64);
        let (lefts, index) = group::group_and_index(&self.pool, &left_records, &left_key);
        // Each right record goes straight into its left group's list;
        // records whose key has no left group are never cloned.
        let mut rights: Vec<Vec<U>> = (0..lefts.len()).map(|_| Vec::new()).collect();
        {
            let _probe = span::enter("join/probe");
            for r in right_records.iter() {
                if let Some(g) = index.group_of(right_key(r)) {
                    rights[g].push(r.clone());
                }
            }
        }
        drop(index);
        let out: Vec<JoinGroup<K, T, U>> = lefts
            .into_iter()
            .zip(rights)
            .filter(|(_, right)| !right.is_empty())
            .map(|(left, right)| JoinGroup {
                key: left.key,
                left: left.items,
                right,
            })
            .collect();
        let n_out = out.len();
        let q = self.combined("join", other, Shards::from_vec(out));
        self.emit_transform("join", q.stability, n_out);
        q
    }

    /// The output of a binary operator (`concat`, `join`, `intersect`): a
    /// charge node billing both inputs' lineages, each scaled by its
    /// accumulated stability, and stability reset to 1 against it.
    fn combined<U, V>(
        &self,
        op: &'static str,
        other: &Queryable<U>,
        records: Shards<V>,
    ) -> Queryable<V> {
        let charge =
            kernel::scaled_pair(&self.charge, self.stability, &other.charge, other.stability);
        let lineage = OpNode::combined(op, self.lineage.clone(), other.lineage.clone());
        self.rewrap(Data::Ready(records), charge, 1.0, lineage)
    }

    /// Concatenate two protected datasets (PINQ `Concat`). No sensitivity
    /// increase for either input; aggregations charge both budgets.
    ///
    /// Zero-copy: the output buffer references both inputs' shards. When
    /// one input is empty the other's buffer handle is reused as-is; the
    /// combined charge node is built either way, because a neighboring
    /// dataset of the empty side could hold a record.
    pub fn concat(&self, other: &Queryable<T>) -> Queryable<T>
    where
        T: Clone + Send + Sync,
    {
        let left = self.records();
        let right = other.records();
        let records = if right.is_empty() {
            left
        } else if left.is_empty() {
            right
        } else {
            left.concat(&right)
        };
        let n_out = records.len();
        let q = self.combined("concat", other, records);
        self.emit_transform("concat", q.stability, n_out);
        q
    }

    /// Distinct records present in both inputs (PINQ `Intersect`). No
    /// sensitivity increase; aggregations charge both budgets.
    pub fn intersect(&self, other: &Queryable<T>) -> Queryable<T>
    where
        T: Eq + Hash + Clone + Send + Sync,
    {
        let mine = self.records();
        let others = other.records();
        let theirs: std::collections::HashSet<&T> = others.iter().collect();
        let mut seen = std::collections::HashSet::new();
        let out: Vec<T> = mine
            .iter()
            .filter(|r| theirs.contains(r) && seen.insert((*r).clone()))
            .cloned()
            .collect();
        let n_out = out.len();
        let q = self.combined("intersect", other, Shards::from_vec(out));
        self.emit_transform("intersect", q.stability, n_out);
        q
    }

    /// Split into disjoint parts by a *data-independent* key list (PINQ
    /// `Partition`). Returns one queryable per key, aligned with `keys`;
    /// records mapping to a key outside the list are dropped.
    ///
    /// The source budget is charged the **maximum** of the parts' spends,
    /// not the sum — parallel composition. Partitioning packets by port and
    /// analyzing every port costs the same as analyzing one port.
    ///
    /// A barrier: forces the pending fused plan. Each fixed-size chunk of
    /// records computes its records' part indices on the queryable's pool,
    /// into one caller-owned array; the calling thread then opens each
    /// part at its exact size and fills the parts in record order, so
    /// every part holds its records in input order for any worker count.
    ///
    /// Returns [`Error::DuplicatePartitionKeys`] when `keys` repeats a key:
    /// buckets are looked up by key, so a duplicate would silently route
    /// all matching records to one of the two buckets and leave the other
    /// empty.
    pub fn partition<K>(
        &self,
        keys: &[K],
        key_fn: impl Fn(&T) -> K + Send + Sync,
    ) -> Result<Vec<Queryable<T>>>
    where
        K: Eq + Hash + Clone + Sync,
        T: Clone + Send + Sync,
    {
        let obs = self.observe("partition");
        let index_of = key_index(keys)?;
        assert!(keys.len() < NO_PART as usize, "too many partition keys");
        let records = self.records();
        obs.span.set_records(records.len() as u64);
        let chunk = self.pool.chunk_size();
        let mut part_of = vec![NO_PART; records.len()];
        let tasks: Vec<Mutex<&mut [u32]>> = part_of.chunks_mut(chunk).map(Mutex::new).collect();
        self.pool.run(&tasks, |t, task| {
            let mut task = lock(task);
            let range = t * chunk..t * chunk + task.len();
            let mut slots = task.iter_mut();
            records.for_range(range, &mut |rec| {
                let slot = slots.next().expect("one part slot per record");
                if let Some(&i) = index_of.get(&key_fn(rec)) {
                    *slot = i as u32;
                }
            });
        });
        self.emit_exec(&obs, self.pool.workers(), tasks.len());
        drop(tasks);
        let mut sizes = vec![0usize; keys.len()];
        for &i in part_of.iter().filter(|&&i| i != NO_PART) {
            sizes[i as usize] += 1;
        }
        let mut parts: Vec<Vec<T>> = sizes.iter().map(|&n| Vec::with_capacity(n)).collect();
        for (r, &i) in records.iter().zip(&part_of) {
            if i != NO_PART {
                parts[i as usize].push(r.clone());
            }
        }
        let out = self.wrap_parts(parts);
        // One event for the whole partition; the part count is the (public)
        // key-list length, not a record count.
        self.emit_transform("partition", 1.0, keys.len());
        Ok(out)
    }

    /// Wrap materialized part buckets as queryables sharing one
    /// [`PartitionLedger`], so that aggregations across parts charge the
    /// source budget their maximum (parallel composition).
    fn wrap_parts(&self, parts: Vec<Vec<T>>) -> Vec<Queryable<T>> {
        let n_parts = parts.len();
        let ledger = kernel::partition_parts(&self.charge, self.stability, n_parts);
        parts
            .into_iter()
            .enumerate()
            .map(|(index, records)| {
                let detail = Some(format!("part[{index}] of {n_parts}"));
                let lineage =
                    OpNode::derived("partition", 1.0, false, detail, self.lineage.clone());
                let data = Data::Ready(Shards::from_vec(records));
                self.rewrap(data, Arc::new(ledger.part(index)), 1.0, lineage)
            })
            .collect()
    }

    /// Partition by a data-independent key list and release a noisy count
    /// of **every part** in one pass — the batched form of
    /// [`Queryable::partition`] followed by per-part
    /// [`Queryable::noisy_count`], with identical privacy arithmetic and
    /// bit-identical releases. Part `i` is the records whose key is
    /// `keys[i]`; records whose key is not listed are dropped.
    ///
    /// This is [`Queryable::partition_noisy_counts_indexed`] over the
    /// key-list positions; see it for the charges, noise order and events.
    ///
    /// Returns [`Error::DuplicatePartitionKeys`] when `keys` repeats a key,
    /// like [`Queryable::partition`].
    pub fn partition_noisy_counts<K>(
        &self,
        keys: &[K],
        key_fn: impl Fn(&T) -> K + Send + Sync,
        eps: f64,
    ) -> Result<Vec<f64>>
    where
        K: Eq + Hash + Sync,
        T: Send + Sync,
    {
        let index_of = key_index(keys)?;
        self.partition_noisy_counts_indexed(keys.len(), |r| index_of.get(&key_fn(r)).copied(), eps)
    }

    /// Partition into the data-independent parts `0..parts` and release a
    /// noisy count of **every part** in one pass. `part_of` names a
    /// record's part by position; a record it maps to `None` or to an
    /// index `>= parts` is dropped, as a key outside the list is under
    /// [`Queryable::partition_noisy_counts`]. Callers whose parts already
    /// are positions (histogram buckets, time windows, a prefix's slot in
    /// a candidate table) skip building and probing a key index.
    ///
    /// The privacy arithmetic is that of [`Queryable::partition`] followed
    /// by per-part [`Queryable::noisy_count`], and the releases are
    /// bit-identical to it:
    ///
    /// - the budget sees the same `PartitionLedger` with the same parent
    ///   scaling, charged once per part *in part order* with the same
    ///   `noisy_count` provenance, so ε accounting, explain traces, and
    ///   failure behavior (parts before the failing one stay charged) match
    ///   the unbatched form exactly. The whole fan-out is one kernel
    ///   transition (`kernel::charge_fan_out`): one ledger lock, not one
    ///   per part;
    /// - noise is drawn from the shared stream once per charged part, in
    ///   part order, on the calling thread, under one hold of the noise
    ///   lock — the same draws the unbatched form takes;
    /// - only a part histogram is computed (streamed over the fused chain
    ///   when nothing has materialized): the per-part record buffers never
    ///   exist. A 256-way fan-out costs one pass and 256 integers per pool
    ///   task instead of 256 allocations;
    /// - per-part `Aggregate` events are produced only when a sink is
    ///   bound (only then does the fan-out's span read the clock), and
    ///   then match the unbatched form's event for event (each part's wall
    ///   time is its share of the fan-out's).
    ///
    /// ```
    /// use pinq::{Accountant, NoiseSource, Queryable};
    ///
    /// let budget = Accountant::new(1.0);
    /// let data = Queryable::new((0..1000u32).collect(), &budget, &NoiseSource::seeded(1));
    /// // Ten buckets of width 100; values past the last bucket are dropped.
    /// let counts = data
    ///     .partition_noisy_counts_indexed(10, |&x| Some(x as usize / 100), 0.5)
    ///     .unwrap();
    /// assert_eq!(counts.len(), 10);
    /// assert!((budget.spent() - 0.5).abs() < 1e-12);
    /// ```
    pub fn partition_noisy_counts_indexed(
        &self,
        parts: usize,
        part_of: impl Fn(&T) -> Option<usize> + Send + Sync,
        eps: f64,
    ) -> Result<Vec<f64>>
    where
        T: Send + Sync,
    {
        let obs = self.observe("partition_noisy_counts");
        check_epsilon(eps)?;
        if !(self.stability.is_finite() && self.stability > 0.0) {
            return Err(Error::InvalidStability(self.stability));
        }
        // One histogram pass into a caller-owned matrix, one row per pool
        // task: task `t` walks the `t`-th of `rows` equal spans of the
        // domain, so one worker walks it whole. The counts are integers,
        // so how the spans fall changes no count.
        let (src, domain) = self.stream();
        let chunks = domain.div_ceil(self.pool.chunk_size());
        let rows = self.pool.workers().min(chunks);
        let mut hist = vec![0usize; rows.max(1) * parts];
        let tasks: Vec<Mutex<&mut [usize]>> = hist
            .chunks_mut(parts.max(1))
            .take(rows)
            .map(Mutex::new)
            .collect();
        self.pool.run(&tasks, |t, row| {
            let mut row = lock(row);
            src.walk(t * domain / rows..(t + 1) * domain / rows, &mut |rec| {
                if let Some(n) = part_of(rec).and_then(|i| row.get_mut(i)) {
                    *n += 1;
                }
            });
        });
        self.emit_exec(&obs, self.pool.workers(), chunks);
        drop(tasks);
        let (counts, rest) = hist.split_at_mut(parts);
        for row in rest.chunks_exact(parts.max(1)) {
            for (c, n) in counts.iter_mut().zip(row) {
                *c += n;
            }
        }
        hist.truncate(parts);
        let counts = hist;
        obs.span.set_records(counts.iter().sum::<usize>() as u64);
        // The ledger the unbatched form builds in `wrap_parts`: parts
        // charge through one shared ledger scaled by this queryable's
        // stability; each part's own stability is 1. One kernel transition
        // books parts in order up to the first refusal, and the charged
        // prefix then draws its noise in part order.
        let ledger = kernel::partition_parts(&self.charge, self.stability, parts);
        let prep = kernel::prepare("noisy_count", self.label.clone());
        let (charged, booked) = kernel::charge_fan_out(&ledger, parts, eps, &prep);
        let released = aggregates::noisy_counts(&self.noise, &counts[..charged], eps)?;
        if let Some(sink) = &obs.sink {
            // Per-part events mirror the unbatched per-part noisy_count:
            // stability 1, ε charged for each released part, and one
            // event for the refused part. A part's wall time is its share
            // of the fan-out's.
            let refusal = booked.as_ref().err().map(|e| Err(e.clone()));
            let events = charged + usize::from(refusal.is_some());
            let wall_ns = obs.span.elapsed_ns() / events.max(1) as u64;
            let at_ns = obs.span.start_ns();
            let results = released.iter().map(|&x| Ok(x)).chain(refusal);
            for (r, &n) in results.zip(&counts) {
                let _ = n; // read only under `trusted-owner`
                let outcome = outcome_of(&r);
                sink.emit(&Event::Aggregate(AggregateEvent {
                    operator: "noisy_count",
                    mechanism: "laplace",
                    label: self.label.clone(),
                    stability: 1.0,
                    eps_requested: eps,
                    eps_charged: if outcome == Outcome::Ok { eps } else { 0.0 },
                    outcome,
                    released: r.ok(),
                    wall_ns,
                    at_ns,
                    #[cfg(feature = "trusted-owner")]
                    input_records: n as u64,
                }));
            }
        }
        booked.map(|()| released)
    }

    /// Partition by a data-independent key list and apply `f` to every
    /// part, returning one result per key, in key order — the one way to
    /// run per-part queries other than plain counts (for those, use
    /// [`Queryable::partition_noisy_counts`]). Parts charge the source
    /// budget their maximum (parallel composition), as under
    /// [`Queryable::partition`].
    ///
    /// Each part draws its noise from a private substream (see
    /// [`NoiseSource::substream`]), one per key, derived on the calling
    /// thread in part order (also when the call is then refused). `f` runs
    /// on this queryable's pool. Workers never race on a shared generator,
    /// so the released values at a fixed seed are identical for any worker
    /// count. Budget refusals stay per part: `f` returns them as values,
    /// and every part runs.
    ///
    /// ```
    /// use pinq::{Accountant, ExecCtx, ExecPool, NoiseSource, Queryable};
    ///
    /// let run = |ctx: ExecCtx| {
    ///     let budget = Accountant::new(1.0);
    ///     let data = Queryable::new((0..10_000u32).collect(), &budget, &NoiseSource::seeded(1))
    ///         .with_ctx(ctx);
    ///     let keys: Vec<u32> = (0..16).collect();
    ///     // Sixteen noisy medians, one ε charged.
    ///     let medians = data
    ///         .partition_map(&keys, |&x| x % 16, |part| {
    ///             part.noisy_median(0.5, 0.0, 10_000.0, 64, |&x| f64::from(x))
    ///         })
    ///         .unwrap();
    ///     assert!((budget.spent() - 0.5).abs() < 1e-12);
    ///     medians.into_iter().collect::<pinq::Result<Vec<f64>>>().unwrap()
    /// };
    /// let seq = run(ExecCtx::Sequential);
    /// assert_eq!(seq.len(), 16);
    /// assert_eq!(seq, run(ExecCtx::pool(&ExecPool::new(4).unwrap())));
    /// ```
    ///
    /// Returns [`Error::DuplicatePartitionKeys`] when `keys` repeats a key.
    pub fn partition_map<K, R>(
        &self,
        keys: &[K],
        key_fn: impl Fn(&T) -> K + Send + Sync,
        f: impl Fn(&Queryable<T>) -> R + Send + Sync,
    ) -> Result<Vec<R>>
    where
        K: Eq + Hash + Clone + Sync,
        T: Clone + Send + Sync,
        R: Send,
    {
        // Streams are derived before the buckets exist (partitioning draws
        // no noise, so the order is the same). Derived after, these small
        // per-part allocations split the free chunks the per-part queries
        // then allocate from: dpbench batch-worm's peak RSS read 29.5 MB
        // instead of 27.5 MB (2-vCPU KVM guest, seed 11).
        let streams: Vec<NoiseSource> = keys.iter().map(|_| self.noise.substream()).collect();
        let mut parts = self.partition(keys, key_fn)?;
        let obs = Observed::open(&self.sink, "map_parts", |name, timed| {
            if timed {
                span::enter_timed(name)
            } else {
                span::enter(name)
            }
        });
        obs.span.set_records(parts.len() as u64);
        for (part, noise) in parts.iter_mut().zip(streams) {
            part.noise = noise;
        }
        let out = self.pool.run(&parts, |_, part| f(part));
        self.emit_exec(&obs, self.pool.workers(), parts.len());
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Aggregations
    // ------------------------------------------------------------------

    /// Noisy count of records: `n + Lap(1/ε)`. Charges `stability × ε`.
    ///
    /// Fused: an unforced pipeline is *streamed*, counting emissions of the
    /// fused pass without allocating (or memoizing) an output buffer. The
    /// count is an integer either way, so the release is bit-identical to
    /// counting a materialized buffer, for any worker count.
    pub fn noisy_count(&self, eps: f64) -> Result<f64>
    where
        T: Send + Sync,
    {
        let obs = self.observe("noisy_count");
        let n = self.stream_count(&obs);
        obs.span.set_records(n as u64);
        let r = self
            .pay(eps, "noisy_count")
            .and_then(|()| aggregates::noisy_count(&self.noise, n, eps));
        self.emit_aggregate(&obs, "laplace", eps, &r, |&v| Some(v), n);
        r
    }

    /// Noisy integral count via the geometric mechanism, clamped at zero.
    ///
    /// Fused like [`Queryable::noisy_count`]: an unforced pipeline streams.
    pub fn noisy_count_int(&self, eps: f64) -> Result<i64>
    where
        T: Send + Sync,
    {
        let obs = self.observe("noisy_count_int");
        let n = self.stream_count(&obs);
        obs.span.set_records(n as u64);
        let r = self
            .pay(eps, "noisy_count_int")
            .and_then(|()| aggregates::noisy_count_int(&self.noise, n, eps));
        self.emit_aggregate(&obs, "geometric", eps, &r, |&v| Some(v as f64), n);
        r
    }

    /// Noisy sum of `f(record)` with values clamped to `[-1, 1]`.
    pub fn noisy_sum(&self, eps: f64, f: impl Fn(&T) -> f64 + Send + Sync) -> Result<f64>
    where
        T: Send + Sync,
    {
        self.noisy_sum_clamped(eps, 1.0, f)
    }

    /// Noisy sum with values clamped to `[-bound, bound]`; noise scale
    /// `bound/ε`.
    ///
    /// Fused: an unforced pipeline streams through the clamp-and-sum fold
    /// without materializing an output buffer.
    ///
    /// Partial sums are computed per fixed-size chunk on the queryable's
    /// pool, combined in chunk order, and a single Laplace draw is taken on
    /// the calling thread — bit-identical for any worker count at a fixed
    /// chunk size. Chunk boundaries associate the additions, so a
    /// different chunk size may move the sum by ulps. (For a fused pipeline
    /// the chunks tile the *source*, so a sum taken before forcing may
    /// likewise sit ulps from one taken after.)
    pub fn noisy_sum_clamped(
        &self,
        eps: f64,
        bound: f64,
        f: impl Fn(&T) -> f64 + Send + Sync,
    ) -> Result<f64>
    where
        T: Send + Sync,
    {
        let obs = self.observe("noisy_sum");
        let mut n_records = 0usize;
        let r = (|| {
            if !(bound.is_finite() && bound > 0.0) {
                return Err(Error::InvalidRange {
                    lo: -bound,
                    hi: bound,
                });
            }
            self.pay(eps, "noisy_sum")?;
            let (src, domain) = self.stream();
            let ranges = self.pool.chunks(domain);
            let partials: Vec<(f64, usize)> = self.pool.run(&ranges, |_, rg| {
                let mut s = 0.0;
                let mut n = 0usize;
                src.walk(rg.clone(), &mut |rec| {
                    s += aggregates::clamp(f(rec), -bound, bound);
                    n += 1;
                });
                (s, n)
            });
            self.emit_exec(&obs, self.pool.workers(), ranges.len());
            n_records = partials.iter().map(|&(_, n)| n).sum();
            let total = partials.iter().map(|&(s, _)| s).sum::<f64>();
            obs.span.set_records(n_records as u64);
            Ok(total + crate::mechanisms::laplace_noise(&self.noise, bound / eps))
        })();
        self.emit_aggregate(&obs, "laplace", eps, &r, |&v| Some(v), n_records);
        r
    }

    /// Noisy vector sum of `f(record)` via the vector Laplace mechanism:
    /// each record's vector is clamped onto the L1 ball of radius
    /// `l1_bound`, and every coordinate of the sum receives
    /// `Lap(l1_bound/ε)` noise — one ε charge for the entire vector.
    pub fn noisy_sum_vector(
        &self,
        eps: f64,
        dims: usize,
        l1_bound: f64,
        f: impl Fn(&T) -> Vec<f64>,
    ) -> Result<Vec<f64>>
    where
        T: Send + Sync,
    {
        let obs = self.observe("noisy_sum_vector");
        let records = self.records();
        obs.span.set_records(records.len() as u64);
        let r = (|| {
            if !(l1_bound.is_finite() && l1_bound > 0.0) {
                return Err(Error::InvalidRange {
                    lo: 0.0,
                    hi: l1_bound,
                });
            }
            self.pay(eps, "noisy_sum_vector")?;
            aggregates::noisy_vector_sum(&self.noise, records.iter().map(f), dims, l1_bound, eps)
        })();
        // Vector releases do not fit the scalar `released` slot; the event
        // still records ε, stability, outcome and timing.
        self.emit_aggregate(&obs, "laplace", eps, &r, |_| None, records.len());
        r
    }

    /// Noisy average of `f(record)` with values clamped to `[-1, 1]`;
    /// noise std `√8/(εn)`.
    pub fn noisy_average(&self, eps: f64, f: impl Fn(&T) -> f64) -> Result<f64>
    where
        T: Send + Sync,
    {
        let obs = self.observe("noisy_average");
        let records = self.records();
        obs.span.set_records(records.len() as u64);
        let r = self
            .pay(eps, "noisy_average")
            .and_then(|()| aggregates::noisy_average(&self.noise, records.iter().map(f), eps));
        self.emit_aggregate(&obs, "laplace", eps, &r, |&v| Some(v), records.len());
        r
    }

    /// Noisy average of values known to lie in `[lo, hi]`: affinely rescaled
    /// to `[-1, 1]`, averaged, and mapped back.
    pub fn noisy_average_in(&self, eps: f64, lo: f64, hi: f64, f: impl Fn(&T) -> f64) -> Result<f64>
    where
        T: Send + Sync,
    {
        if lo >= hi || !lo.is_finite() || !hi.is_finite() {
            return Err(Error::InvalidRange { lo, hi });
        }
        let mid = (lo + hi) / 2.0;
        let half = (hi - lo) / 2.0;
        let unit = self.noisy_average(eps, |r| (f(r) - mid) / half)?;
        Ok(mid + unit * half)
    }

    /// Noisily select the candidate key matching the most records, via the
    /// exponential mechanism: candidate `k` is chosen with probability
    /// `∝ exp(ε·count(k)/2)`. One record changes any count by one, so the
    /// score sensitivity is 1 and the whole selection costs a single
    /// `stability × ε` — far cheaper than releasing every count.
    ///
    /// Returns the index into `candidates`.
    pub fn most_common_key<K>(
        &self,
        eps: f64,
        candidates: &[K],
        key: impl Fn(&T) -> K,
    ) -> Result<usize>
    where
        K: Eq + Hash,
        T: Send + Sync,
    {
        let obs = self.observe("most_common_key");
        let records = self.records();
        obs.span.set_records(records.len() as u64);
        let r = (|| {
            if candidates.is_empty() {
                return Err(Error::EmptyCandidates);
            }
            self.pay(eps, "most_common_key")?;
            let index_of: HashMap<&K, usize> =
                candidates.iter().enumerate().map(|(i, k)| (k, i)).collect();
            let mut counts = vec![0f64; candidates.len()];
            for r in records.iter() {
                if let Some(&i) = index_of.get(&key(r)) {
                    counts[i] += 1.0;
                }
            }
            crate::mechanisms::exponential_mechanism_index(&self.noise, &counts, eps, 1.0)
        })();
        self.emit_aggregate(
            &obs,
            "exponential",
            eps,
            &r,
            |&i| Some(i as f64),
            records.len(),
        );
        r
    }

    /// Noisy median of `f(record)` over `[lo, hi]` discretized into
    /// `buckets` candidate cut points, via the exponential mechanism.
    ///
    /// Fused: an unforced pipeline streams its value projection straight
    /// off the source — the record buffer is never allocated, only the
    /// `f64` projection. Projection order is the record order, so the
    /// candidate scores (and the released value at a fixed seed) are
    /// identical whether or not the pipeline materialized first.
    ///
    /// The projection runs on the queryable's pool over fixed-size chunks,
    /// concatenated in chunk order, and the mechanism then runs on the
    /// calling thread — identical for any worker count.
    pub fn noisy_median(
        &self,
        eps: f64,
        lo: f64,
        hi: f64,
        buckets: usize,
        f: impl Fn(&T) -> f64 + Send + Sync,
    ) -> Result<f64>
    where
        T: Send + Sync,
    {
        let obs = self.observe("noisy_median");
        let mut n_records = 0usize;
        let r = (|| {
            if lo >= hi || !lo.is_finite() || !hi.is_finite() {
                return Err(Error::InvalidRange { lo, hi });
            }
            if buckets == 0 {
                return Err(Error::EmptyCandidates);
            }
            self.pay(eps, "noisy_median")?;
            let (src, domain) = self.stream();
            let ranges = self.pool.chunks(domain);
            let chunks: Vec<Vec<f64>> = self.pool.run(&ranges, |_, rg| {
                let mut v = Vec::new();
                src.walk(rg.clone(), &mut |rec| v.push(f(rec)));
                v
            });
            self.emit_exec(&obs, self.pool.workers(), ranges.len());
            let values = chunks.concat();
            n_records = values.len();
            obs.span.set_records(n_records as u64);
            aggregates::noisy_median(&self.noise, &values, lo, hi, buckets, eps)
        })();
        self.emit_aggregate(&obs, "exponential", eps, &r, |&v| Some(v), n_records);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecPool;

    #[derive(Clone, Debug, PartialEq)]
    struct Pkt {
        src: u32,
        port: u16,
        len: u32,
    }

    fn trace() -> Vec<Pkt> {
        let mut v = Vec::new();
        // 120 "heavy" hosts sending 2000 bytes to port 80.
        for src in 0..120 {
            v.push(Pkt {
                src,
                port: 80,
                len: 2000,
            });
        }
        // 50 light hosts.
        for src in 1000..1050 {
            v.push(Pkt {
                src,
                port: 80,
                len: 100,
            });
        }
        // Unrelated traffic.
        for src in 2000..2100 {
            v.push(Pkt {
                src,
                port: 443,
                len: 5000,
            });
        }
        v
    }

    fn setup(budget: f64) -> (Accountant, Queryable<Pkt>) {
        let acct = Accountant::new(budget);
        let noise = NoiseSource::seeded(42);
        let q = Queryable::new(trace(), &acct, &noise);
        (acct, q)
    }

    #[test]
    fn paper_section_2_3_example() {
        // "count distinct hosts that send more than 1024 bytes to port 80";
        // the noise-free answer on our synthetic trace is 120.
        let (acct, q) = setup(10.0);
        let mut answers = Vec::new();
        for _ in 0..20 {
            let c = q
                .filter(|p| p.port == 80)
                .group_by(|p| p.src)
                .filter(|g| g.items.iter().map(|p| p.len).sum::<u32>() > 1024)
                .noisy_count(0.1)
                .unwrap();
            answers.push(c);
        }
        let mean = answers.iter().sum::<f64>() / answers.len() as f64;
        assert!((mean - 120.0).abs() < 15.0, "mean {mean}");
        // Each query costs 0.1 × 2 (GroupBy) = 0.2.
        assert!((acct.spent() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn filter_and_map_do_not_scale_cost() {
        let (acct, q) = setup(1.0);
        q.filter(|p| p.port == 80)
            .map(|p| p.len)
            .filter(|&l| l > 0)
            .noisy_count(0.3)
            .unwrap();
        assert!((acct.spent() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn group_by_doubles_cost() {
        let (acct, q) = setup(1.0);
        q.group_by(|p| p.src).noisy_count(0.25).unwrap();
        assert!((acct.spent() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nested_group_by_quadruples_cost() {
        let (acct, q) = setup(2.0);
        q.group_by(|p| p.src)
            .group_by(|g| g.items.len())
            .noisy_count(0.25)
            .unwrap();
        assert!((acct.spent() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn select_many_scales_cost_and_truncates() {
        let (acct, q) = setup(10.0);
        let expanded = q.select_many(3, |p| vec![p.len; 10]).unwrap();
        assert_eq!(expanded.stability(), 3.0);
        expanded.noisy_count(0.1).unwrap();
        assert!((acct.spent() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn select_many_rejects_zero_fanout() {
        let (_, q) = setup(1.0);
        assert!(matches!(
            q.select_many(0, |p| vec![p.len]),
            Err(Error::InvalidFanout(0))
        ));
    }

    #[test]
    fn distinct_by_keeps_one_record_per_key() {
        let (acct, q) = setup(1.0);
        let hosts = q.distinct_by(|p| p.src);
        let c = hosts.noisy_count(5.0);
        // 270 distinct hosts in the trace; eps=5 noise is tiny.
        assert!(c.is_err() || acct.spent() > 0.0);
        // Re-run with adequate budget to check the value.
        let acct2 = Accountant::new(10.0);
        let noise = NoiseSource::seeded(1);
        let q2 = Queryable::new(trace(), &acct2, &noise);
        let c2 = q2.distinct_by(|p| p.src).noisy_count(5.0).unwrap();
        assert!((c2 - 270.0).abs() < 3.0, "count {c2}");
    }

    #[test]
    fn budget_exhaustion_blocks_further_queries() {
        let (_, q) = setup(0.5);
        q.noisy_count(0.4).unwrap();
        assert!(matches!(
            q.noisy_count(0.2),
            Err(Error::BudgetExceeded { .. })
        ));
        // A smaller query still fits.
        q.noisy_count(0.05).unwrap();
    }

    #[test]
    fn partition_charges_max_not_sum() {
        let (acct, q) = setup(1.0);
        let ports: Vec<u16> = vec![80, 443, 22];
        let parts = q.partition(&ports, |p| p.port).unwrap();
        assert_eq!(parts.len(), 3);
        for part in &parts {
            part.noisy_count(0.3).unwrap();
        }
        assert!((acct.spent() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn partition_respects_upstream_stability() {
        let (acct, q) = setup(10.0);
        // GroupBy (×2) before partitioning: each part spend is doubled at
        // the source.
        let grouped = q.group_by(|p| p.src);
        let sizes: Vec<usize> = vec![1, 2, 3];
        let parts = grouped.partition(&sizes, |g| g.items.len()).unwrap();
        parts[0].noisy_count(0.25).unwrap();
        assert!((acct.spent() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn partition_drops_unlisted_keys() {
        let acct = Accountant::new(100.0);
        let noise = NoiseSource::seeded(7);
        let q = Queryable::new(trace(), &acct, &noise);
        let ports: Vec<u16> = vec![80];
        let parts = q.partition(&ports, |p| p.port).unwrap();
        let c = parts[0].noisy_count(50.0).unwrap();
        // Port-80 records: 120 + 50 = 170. Port-443 records are dropped.
        assert!((c - 170.0).abs() < 1.0, "count {c}");
    }

    #[test]
    fn join_charges_both_inputs() {
        let a_budget = Accountant::new(1.0);
        let b_budget = Accountant::new(1.0);
        let noise = NoiseSource::seeded(11);
        let a = Queryable::new(vec![(1u32, "x"), (2, "y")], &a_budget, &noise);
        let b = Queryable::new(vec![(1u32, 10.0f64), (3, 30.0)], &b_budget, &noise);
        let joined = a.join(&b, |l| l.0, |r| r.0);
        joined.noisy_count(0.2).unwrap();
        assert!((a_budget.spent() - 0.2).abs() < 1e-12);
        assert!((b_budget.spent() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn join_emits_one_record_per_matched_key() {
        let budget = Accountant::new(100.0);
        let noise = NoiseSource::seeded(13);
        let a = Queryable::new(vec![1u32, 1, 2, 4], &budget, &noise);
        let b = Queryable::new(vec![1u32, 2, 2, 3], &budget, &noise);
        let joined = a.join(&b, |&l| l, |&r| r);
        // Matched keys: 1 and 2 → two JoinGroup records.
        let c = joined.noisy_count(20.0).unwrap();
        assert!((c - 2.0).abs() < 1.0, "count {c}");
    }

    #[test]
    fn join_failure_rolls_back_first_input() {
        let rich = Accountant::new(10.0);
        let poor = Accountant::new(0.05);
        let noise = NoiseSource::seeded(17);
        let a = Queryable::new(vec![1u32], &rich, &noise);
        let b = Queryable::new(vec![1u32], &poor, &noise);
        let joined = a.join(&b, |&l| l, |&r| r);
        assert!(joined.noisy_count(0.1).is_err());
        assert_eq!(rich.spent(), 0.0);
        assert_eq!(poor.spent(), 0.0);
    }

    #[test]
    fn concat_combines_records_and_budgets() {
        let a_budget = Accountant::new(1.0);
        let b_budget = Accountant::new(1.0);
        let noise = NoiseSource::seeded(19);
        let a = Queryable::new(vec![0u8; 100], &a_budget, &noise);
        let b = Queryable::new(vec![0u8; 50], &b_budget, &noise);
        let both = a.concat(&b);
        let c = both.noisy_count(0.5).unwrap();
        assert!((c - 150.0).abs() < 20.0);
        assert!((a_budget.spent() - 0.5).abs() < 1e-12);
        assert!((b_budget.spent() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn intersect_keeps_common_distinct_records() {
        let budget = Accountant::new(100.0);
        let noise = NoiseSource::seeded(23);
        let a = Queryable::new(vec![1u32, 2, 2, 3], &budget, &noise);
        let b = Queryable::new(vec![2u32, 3, 4], &budget, &noise);
        let c = a.intersect(&b).noisy_count(20.0).unwrap();
        assert!((c - 2.0).abs() < 1.0, "count {c}"); // {2, 3}
    }

    #[test]
    fn noisy_sum_respects_clamping() {
        let budget = Accountant::new(2000.0);
        let noise = NoiseSource::seeded(29);
        let q = Queryable::new(vec![0.5f64, 0.5, 100.0, -100.0], &budget, &noise);
        let mut total = 0.0;
        for _ in 0..200 {
            total += q.noisy_sum(5.0, |&v| v).unwrap();
        }
        // clamp: 0.5 + 0.5 + 1 - 1 = 1.
        assert!((total / 200.0 - 1.0).abs() < 0.1);
    }

    #[test]
    fn noisy_average_in_range_maps_back() {
        let budget = Accountant::new(1000.0);
        let noise = NoiseSource::seeded(31);
        let vals: Vec<f64> = (0..1000).map(|i| 100.0 + (i % 100) as f64).collect();
        let q = Queryable::new(vals, &budget, &noise);
        let avg = q.noisy_average_in(1.0, 100.0, 200.0, |&v| v).unwrap();
        assert!((avg - 149.5).abs() < 2.0, "avg {avg}");
    }

    #[test]
    fn noisy_median_finds_central_value() {
        let budget = Accountant::new(1000.0);
        let noise = NoiseSource::seeded(37);
        let vals: Vec<f64> = (0..999).map(|i| i as f64).collect();
        let q = Queryable::new(vals, &budget, &noise);
        let med = q.noisy_median(2.0, 0.0, 1000.0, 100, |&v| v).unwrap();
        assert!((med - 500.0).abs() < 60.0, "median {med}");
    }

    #[test]
    fn noisy_sum_vector_charges_once_for_all_dims() {
        let budget = Accountant::new(1.0);
        let noise = NoiseSource::seeded(41);
        let q = Queryable::new(vec![[1.0f64, 2.0, 3.0]; 10], &budget, &noise);
        let s = q.noisy_sum_vector(0.5, 3, 10.0, |v| v.to_vec()).unwrap();
        assert_eq!(s.len(), 3);
        // Whole-vector release cost exactly 0.5.
        assert!((budget.spent() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn invalid_epsilon_costs_nothing() {
        let (acct, q) = setup(1.0);
        assert!(q.noisy_count(-1.0).is_err());
        assert!(q.noisy_count(0.0).is_err());
        assert_eq!(acct.spent(), 0.0);
    }

    #[test]
    fn invalid_median_range_costs_nothing() {
        let (acct, q) = setup(1.0);
        assert!(q
            .noisy_median(0.5, 10.0, 0.0, 10, |p| p.len as f64)
            .is_err());
        assert!(q.noisy_median(0.5, 0.0, 10.0, 0, |p| p.len as f64).is_err());
        assert_eq!(acct.spent(), 0.0);
    }

    #[test]
    fn new_shared_charges_every_budget() {
        let global = Accountant::new(1.0);
        let personal = Accountant::new(0.3);
        let noise = NoiseSource::seeded(43);
        let records = std::sync::Arc::new(vec![1u8; 100]);
        let q = Queryable::new_shared(records, &[&global, &personal], &noise);
        q.noisy_count(0.2).unwrap();
        assert!((global.spent() - 0.2).abs() < 1e-12);
        assert!((personal.spent() - 0.2).abs() < 1e-12);
        // The personal cap binds first; the failed charge refunds both.
        assert!(q.noisy_count(0.2).is_err());
        assert!((global.spent() - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one budget")]
    fn new_shared_requires_a_budget() {
        let noise = NoiseSource::seeded(44);
        let _ = Queryable::<u8>::new_shared(std::sync::Arc::new(vec![]), &[], &noise);
    }

    #[test]
    fn most_common_key_picks_the_mode() {
        let budget = Accountant::new(100.0);
        let noise = NoiseSource::seeded(45);
        let mut data = vec![80u16; 500];
        data.extend(vec![443u16; 100]);
        data.extend(vec![22u16; 50]);
        let q = Queryable::new(data, &budget, &noise);
        let candidates = [22u16, 80, 443, 8080];
        let idx = q.most_common_key(5.0, &candidates, |&p| p).unwrap();
        assert_eq!(candidates[idx], 80);
        // Cost: one ε, not one per candidate.
        assert!((budget.spent() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn most_common_key_rejects_empty_candidates() {
        let budget = Accountant::new(1.0);
        let noise = NoiseSource::seeded(46);
        let q = Queryable::new(vec![1u8], &budget, &noise);
        assert!(matches!(
            q.most_common_key(1.0, &[] as &[u8], |&x| x),
            Err(Error::EmptyCandidates)
        ));
        assert_eq!(budget.spent(), 0.0);
    }

    #[test]
    fn debug_output_hides_data() {
        let (_, q) = setup(1.0);
        let s = format!("{q:?}");
        assert!(!s.contains("2000"), "debug leaked record data: {s}");
        assert!(s.contains("stability"));
    }

    #[test]
    fn partition_rejects_duplicate_keys() {
        let (acct, q) = setup(1.0);
        let ports: Vec<u16> = vec![80, 443, 80];
        assert!(matches!(
            q.partition(&ports, |p| p.port),
            Err(Error::DuplicatePartitionKeys)
        ));
        assert_eq!(acct.spent(), 0.0);
    }

    #[test]
    fn concat_with_an_empty_side_reuses_the_existing_buffer() {
        let a_budget = Accountant::new(1.0);
        let b_budget = Accountant::new(1.0);
        let noise = NoiseSource::seeded(51);
        let a = Queryable::new(vec![7u8; 64], &a_budget, &noise);
        let empty = Queryable::new(Vec::<u8>::new(), &b_budget, &noise);
        let src = a.records();
        let both = a.concat(&empty);
        match &both.data {
            Data::Ready(buf) => {
                assert!(buf.ptr_eq(&src), "non-empty side must be reused");
            }
            Data::Lazy(_) => panic!("concat output should be materialized"),
        }
        // The empty side's budget is still charged: a neighboring dataset
        // of the empty input could hold a record.
        both.noisy_count(0.5).unwrap();
        assert!((a_budget.spent() - 0.5).abs() < 1e-12);
        assert!((b_budget.spent() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fused_aggregations_stream_without_materializing() {
        let acct = Accountant::new(10.0);
        let sink = Arc::new(dpnet_obs::MemorySink::new());
        acct.set_sink(Some(sink.clone()));
        let noise = NoiseSource::seeded(53);
        let q = Queryable::new((0..10_000u32).collect::<Vec<_>>(), &acct, &noise);
        let chain = q
            .filter(|v| v % 2 == 0)
            .map(|&v| u64::from(v))
            .filter(|&v| v > 10);
        let plans = || {
            sink.events()
                .iter()
                .filter(|e| matches!(e, dpnet_obs::Event::Plan(_)))
                .count()
        };
        assert_eq!(plans(), 0, "declaring transforms must not materialize");
        chain.noisy_count(0.1).unwrap();
        chain.noisy_sum_clamped(0.1, 100.0, |&v| v as f64).unwrap();
        chain
            .noisy_median(0.1, 0.0, 10_000.0, 16, |&v| v as f64)
            .unwrap();
        assert_eq!(plans(), 0, "fused aggregations stream; no plan forced");
        // A barrier that genuinely needs the buffer (group_by) forces once…
        chain.group_by(|&v| v % 7).noisy_count(0.1).unwrap();
        assert_eq!(plans(), 1, "group_by forces the plan");
        // …and later fused aggregations read the memo, not the chain.
        chain.noisy_count(0.1).unwrap();
        assert_eq!(plans(), 1, "memoized plan is reused");
        let fused = sink
            .events()
            .iter()
            .find_map(|e| match e {
                dpnet_obs::Event::Plan(p) => Some(p.fused_stages),
                _ => None,
            })
            .unwrap();
        assert_eq!(fused, 3, "filter → map → filter fuse into one pass");
    }

    #[test]
    fn fused_count_matches_materialized_count_bitwise() {
        let run = |force_first: bool| {
            let acct = Accountant::new(10.0);
            let noise = NoiseSource::seeded(57);
            let q = Queryable::new((0..5000u32).collect::<Vec<_>>(), &acct, &noise);
            let chain = q.filter(|v| v % 5 == 0).map(|&v| v * 3);
            let chain = if force_first {
                chain.collect_protected()
            } else {
                chain
            };
            (chain.noisy_count(0.5).unwrap().to_bits(), acct.spent())
        };
        assert_eq!(run(false), run(true));
    }

    /// What an owner can observe of a sequence of 3-way fan-outs: the
    /// released bits (or the refusal), the accountant's books and audit
    /// log, the `Aggregate` event stream, and the per-part charge traces.
    #[derive(Debug, PartialEq)]
    struct FanOutView {
        releases: Vec<std::result::Result<Vec<u64>, String>>,
        spent: u64,
        /// (operator, path, ε bits, sequence) per audit-log entry.
        audit: Vec<(String, String, u64, u64)>,
        /// (released bits, ε charged bits, outcome) per `Aggregate` event.
        aggregates: Vec<(Option<u64>, u64, Outcome)>,
        /// (full charge path, calls, traced ε bits) per recorded path.
        traces: Vec<(String, u64, u64)>,
    }

    /// Run `rounds` fan-outs at ε = 0.03 over a stability-11 dataset,
    /// batched or as `partition` followed by per-part `noisy_count`
    /// (stopping at the first refusal, as the batched form does).
    fn fan_outs(batched: bool, budget: f64, rounds: usize) -> FanOutView {
        let acct = Accountant::new(budget);
        let sink = Arc::new(dpnet_obs::MemorySink::new());
        acct.set_sink(Some(sink.clone()));
        let noise = NoiseSource::seeded(42);
        // select_many(11, ..) gives a scale(x11) edge no other test
        // produces, so this run's traces are identifiable even though the
        // recorder is process-global and other tests may charge meanwhile.
        let q = Queryable::new(trace(), &acct, &noise)
            .select_many(11, |p| vec![p.port])
            .unwrap();
        let ports = [80u16, 443, 22];
        let rec = Arc::new(crate::explain::ExplainRecorder::new());
        crate::explain::install_explain_recorder(rec.clone());
        let releases = (0..rounds)
            .map(|_| {
                let r = if batched {
                    q.partition_noisy_counts(&ports, |&p| p, 0.03)
                } else {
                    q.partition(&ports, |&p| p)
                        .and_then(|parts| parts.iter().map(|p| p.noisy_count(0.03)).collect())
                };
                r.map(|v| v.iter().map(|x| x.to_bits()).collect())
                    .map_err(|e| e.to_string())
            })
            .collect();
        crate::explain::uninstall_explain_recorder();
        FanOutView {
            releases,
            spent: acct.spent().to_bits(),
            audit: acct
                .audit_log()
                .iter()
                .map(|e| {
                    let (op, path) = (e.operator.to_string(), e.path.to_string());
                    (op, path, e.epsilon.to_bits(), e.sequence)
                })
                .collect(),
            aggregates: sink
                .events()
                .iter()
                .filter_map(|e| match e {
                    Event::Aggregate(a) => Some((
                        a.released.map(f64::to_bits),
                        a.eps_charged.to_bits(),
                        a.outcome,
                    )),
                    _ => None,
                })
                .collect(),
            traces: rec
                .report()
                .full_paths
                .iter()
                .filter(|p| p.path.ends_with("scale(x11)/root"))
                .map(|p| (p.path.clone(), p.calls, p.predicted_eps.to_bits()))
                .collect(),
        }
    }

    #[test]
    fn partition_noisy_counts_matches_the_unbatched_form_bitwise() {
        let _guard = crate::explain::test_global_guard();
        let batched = fan_outs(true, 10.0, 2);
        assert_eq!(batched, fan_outs(false, 10.0, 2));
        // Each fan-out forwards once, through its first part.
        let scaled = (0.03 * 11.0f64).to_bits();
        let audit: Vec<(&str, u64)> = batched
            .audit
            .iter()
            .map(|(_, path, eps, _)| (path.as_str(), *eps))
            .collect();
        assert_eq!(
            audit,
            vec![
                ("part[0]/scale(x11)/root", scaled),
                ("part[0]/scale(x11)/root", scaled)
            ]
        );
        assert_eq!(batched.aggregates.len(), 6);
        // Every part of both rounds traced its path; the absorbed parts
        // traced a zero delta.
        for (path, calls, eps) in &batched.traces {
            assert_eq!(*calls, 2, "{path}");
            let expected = if path.starts_with("part[0]/") {
                2.0 * 0.33
            } else {
                0.0
            };
            assert!((f64::from_bits(*eps) - expected).abs() < 1e-12, "{path}");
        }
        assert_eq!(batched.traces.len(), 3);
    }

    #[test]
    fn partition_noisy_counts_refusal_matches_the_unbatched_form() {
        let _guard = crate::explain::test_global_guard();
        // 0.5 affords one fan-out (0.33) but not a second. Only a fan-out's
        // first part can be refused: every later part is absorbed below
        // the max that part sets. The refused round releases nothing and
        // books nothing; the round before it stays charged.
        let batched = fan_outs(true, 0.5, 2);
        assert_eq!(batched, fan_outs(false, 0.5, 2));
        assert!(batched.releases[0].is_ok());
        assert!(batched.releases[1].is_err());
        assert_eq!(f64::from_bits(batched.spent), 0.03 * 11.0);
        assert_eq!(batched.audit.len(), 1);
        let outcomes: Vec<Outcome> = batched.aggregates.iter().map(|a| a.2).collect();
        assert_eq!(
            outcomes,
            vec![Outcome::Ok, Outcome::Ok, Outcome::Ok, Outcome::Denied]
        );
        assert_eq!(batched.aggregates[3], (None, 0, Outcome::Denied));
        // The refused charge traced nothing: only round one's parts appear.
        assert!(batched.traces.iter().all(|(_, calls, _)| *calls == 1));
    }

    #[test]
    fn partition_noisy_counts_rejects_duplicates_and_respects_budget() {
        let (acct, q) = setup(1.0);
        assert!(matches!(
            q.partition_noisy_counts(&[80u16, 80], |p| p.port, 0.1),
            Err(Error::DuplicatePartitionKeys)
        ));
        assert_eq!(acct.spent(), 0.0);
        // Parallel composition: 3 parts at 0.3 cost max = 0.3, like the
        // unbatched form.
        q.partition_noisy_counts(&[80u16, 443, 22], |p| p.port, 0.3)
            .unwrap();
        assert!((acct.spent() - 0.3).abs() < 1e-12);
        // A fan-out that cannot fit fails on its first part and rolls that
        // part's spend back; the earlier release stays charged.
        assert!(q
            .partition_noisy_counts(&[80u16, 443, 22], |p| p.port, 0.8)
            .is_err());
        assert!((acct.spent() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn collect_protected_matches_the_lazy_release_and_spends_nothing() {
        let (acct_lazy, q_lazy) = setup(10.0);
        let lazy = q_lazy.filter(|p| p.port == 80).map(|p| p.len);
        let (acct_eager, q_eager) = setup(10.0);
        let eager = q_eager
            .filter(|p| p.port == 80)
            .map(|p| p.len)
            .collect_protected();
        assert!(matches!(eager.data, Data::Ready(_)));
        assert_eq!(acct_eager.spent(), 0.0, "materialization is not a release");
        assert_eq!(eager.stability(), lazy.stability());
        let a = lazy.noisy_count(0.5).unwrap();
        let b = eager.noisy_count(0.5).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(acct_lazy.spent(), acct_eager.spent());
    }

    #[test]
    fn pool_ctx_releases_match_sequential_bitwise() {
        let run = |ctx: ExecCtx| {
            let acct = Accountant::new(10.0);
            let noise = NoiseSource::seeded(59);
            let q = Queryable::new((0..5000u32).collect::<Vec<_>>(), &acct, &noise).with_ctx(ctx);
            let c = q
                .filter(|v| v % 3 == 0)
                .map(|&v| u64::from(v) * 2)
                .noisy_count(0.5)
                .unwrap();
            let m = q
                .noisy_median(0.5, 0.0, 10_000.0, 32, |&v| f64::from(v))
                .unwrap();
            (c.to_bits(), m.to_bits(), acct.spent())
        };
        // The reference is the flat loop: one chunk spanning the input.
        let seq = run(ExecCtx::pool(&ExecPool::sequential().with_chunk_size(5000)));
        let pool = ExecPool::new(4).unwrap().with_chunk_size(256);
        assert_eq!(run(ExecCtx::pool(&pool)), seq);
    }

    #[test]
    fn explain_snapshots_lineage_without_side_effects() {
        let (acct, q) = setup(10.0);
        let lazy = q.filter(|p| p.port == 80);
        let tree = lazy.explain();
        assert_eq!(tree.pending_fused, 1);
        assert!(!tree.materialized);
        assert_eq!(tree.lineage.op, "filter");
        assert!(tree.lineage.fused);
        assert_eq!(tree.lineage.inputs[0].op, "source");

        let shaped = lazy.group_by(|p| p.src);
        let tree = shaped.explain();
        assert_eq!(tree.stability, 2.0);
        assert_eq!(tree.pending_fused, 0);
        assert!(tree.materialized);
        assert_eq!(tree.lineage.op, "group_by");
        assert_eq!(tree.lineage.inputs[0].op, "filter");
        // Predicting a pending noisy_count(0.1): stability 2 × 0.1 at root.
        let predicted = tree.predict(0.1);
        assert_eq!(predicted.len(), 1);
        assert_eq!(predicted[0].0, "root");
        assert!((predicted[0].1 - 0.2).abs() < 1e-12);
        // Explain charged nothing.
        assert!(acct.spent().abs() < 1e-12);
    }

    #[test]
    fn explain_lineage_tracks_partitions_and_combinators() {
        let (_, q) = setup(10.0);
        let parts = q.partition(&[80u16, 443], |p| p.port).unwrap();
        let tree = parts[1].explain();
        assert_eq!(tree.lineage.op, "partition");
        assert_eq!(tree.lineage.detail.as_deref(), Some("part[1] of 2"));
        assert_eq!(tree.predict(0.1)[0].0, "part[1]/scale(x1)/root");

        let joined = parts[0].concat(&parts[1]);
        let tree = joined.explain();
        assert_eq!(tree.lineage.op, "concat");
        assert_eq!(tree.lineage.inputs.len(), 2);
        assert!(matches!(
            tree.charge.nodes[tree.node.0],
            crate::kernel::model::NodeSpec::Combined(_)
        ));
        // Both parts share one ledger, so the snapshot holds it once.
        assert_eq!(tree.charge.ledgers.len(), 1);
    }

    #[test]
    fn installed_recorder_captures_real_partition_charges() {
        let _guard = crate::explain::test_global_guard();
        let acct = Accountant::new(10.0);
        let noise = NoiseSource::seeded(7);
        let q = Queryable::new(trace(), &acct, &noise);
        // select_many(7, ..) gives a scale(x7) edge no other test produces,
        // so this test's records are identifiable even though the recorder
        // is process-global and other tests may charge concurrently.
        let expanded = q.select_many(7, |p| vec![p.port]).unwrap();
        let parts = expanded.partition(&[80u16, 443], |p| *p).unwrap();

        let rec = Arc::new(crate::explain::ExplainRecorder::new());
        crate::explain::install_explain_recorder(rec.clone());
        parts[0].noisy_count(0.05).unwrap();
        parts[1].noisy_count(0.05).unwrap();
        crate::explain::uninstall_explain_recorder();

        let report = rec.report();
        let agg = report
            .aggregations
            .iter()
            .find(|a| a.operator == "noisy_count" && a.path == "part[*]/scale(x7)/root")
            .expect("aggregation recorded");
        assert_eq!(agg.calls, 2);
        assert!((agg.requested_eps - 0.1).abs() < 1e-12);
        // Part 0 raised the max by 0.05 (×7 at the root); part 1 was
        // absorbed. Predicted per-path ε equals what the accountant saw.
        assert!((agg.predicted_eps - 0.35).abs() < 1e-12);
        assert!((acct.spent() - 0.35).abs() < 1e-12);
        let by_full: std::collections::BTreeMap<&str, f64> = report
            .full_paths
            .iter()
            .map(|p| (p.path.as_str(), p.predicted_eps))
            .collect();
        assert!((by_full["part[0]/scale(x7)/root"] - 0.35).abs() < 1e-12);
        assert!(by_full["part[1]/scale(x7)/root"].abs() < 1e-12);
    }
}

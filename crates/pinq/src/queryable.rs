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
use crate::exec::ExecCtx;
use crate::explain::{ExplainTree, OpNode};
use crate::kernel::{self, ChargeNode};
use crate::plan::{LazyPlan, Runner, View};
use crate::rng::NoiseSource;
use crate::shard::Shards;
use crate::types::{Group, JoinGroup};
use dpnet_obs::sink::SinkHandle;
use dpnet_obs::span;
use dpnet_obs::{
    now_ns, AggregateEvent, Event, ExecEvent, Outcome, PlanEvent, SpanTimer, TransformEvent,
};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// An Fx-style hasher (one add and multiply per word, a rotate on finish,
/// as in `rustc-hash`) for the key index of a partition fan-out, which
/// holds up to 131,072 keys per frequent-string round. It is not
/// DoS-resistant, and need not be: partition keys come from analysis code,
/// never from the wire, so no adversary picks the key set.
#[derive(Default)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(n).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    // `usize` keys and enum discriminants (`Option<u64>` prefix codes)
    // hash through here; the default would take the byte-slice path.
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves its entropy in the high bits; the table
        // indexes buckets by the low ones.
        self.0.rotate_left(26)
    }
}

/// Map each key to its position in `keys`. Shared by
/// [`Queryable::partition`] and [`Queryable::partition_noisy_counts`].
fn key_index<K: Eq + Hash>(keys: &[K]) -> Result<HashMap<&K, usize, BuildHasherDefault<FxHasher>>> {
    let mut index_of = HashMap::with_capacity_and_hasher(keys.len(), Default::default());
    for (i, k) in keys.iter().enumerate() {
        if index_of.insert(k, i).is_some() {
            return Err(Error::DuplicatePartitionKeys);
        }
    }
    Ok(index_of)
}

/// Group `records` by `key`: the distinct keys in first-seen order, each
/// key's position in that order, and each key's members in input order.
/// The one grouping kernel behind [`Queryable::group_by`] and
/// [`Queryable::join`].
///
/// Pass 1 computes each record's key once and looks it up once, in a map
/// pre-sized to the input, noting the record's group and the group's size.
/// Pass 2 clones each record once, into a member list allocated at its
/// exact size (on fig1 nearly every group has one member, which a growing
/// `Vec` would give four slots).
///
/// The map keeps std's SipHash rather than [`key_index`]'s Fx hash. Group
/// and join keys are computed from the records, so whoever has packets in
/// the trace picks them, and a predictable hash would let them force
/// collisions. Fx is also slower on these keys: grouping fig1's ~110k
/// records by `(FlowKey, seq)`, pass 1 took a median 18–24 ms with
/// pre-sized SipHash, 28–31 ms with pre-sized Fx and 22–30 ms with
/// unsized SipHash (2-vCPU KVM guest, hotspot trace at seed 11).
fn group_records<K, T>(
    records: &Shards<T>,
    key: impl Fn(&T) -> K,
) -> (HashMap<K, usize>, Vec<K>, Vec<Vec<T>>)
where
    K: Eq + Hash + Clone,
    T: Clone,
{
    let mut index: HashMap<K, usize> = HashMap::with_capacity(records.len());
    let mut keys: Vec<K> = Vec::new();
    let mut sizes: Vec<usize> = Vec::new();
    let group_of: Vec<usize> = records
        .iter()
        .map(|r| {
            let g = *index.entry(key(r)).or_insert_with_key(|k| {
                keys.push(k.clone());
                sizes.push(0);
                sizes.len() - 1
            });
            sizes[g] += 1;
            g
        })
        .collect();
    let mut members: Vec<Vec<T>> = sizes.into_iter().map(Vec::with_capacity).collect();
    for (r, &g) in records.iter().zip(&group_of) {
        members[g].push(r.clone());
    }
    (index, keys, members)
}

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
/// charged or released. The [`ExecCtx`] bound with
/// [`Queryable::with_ctx`] decides where forced plans and chunked
/// aggregation kernels run.
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
    /// Execution context: where plans materialize and chunked kernels run.
    ctx: ExecCtx,
    /// Operator lineage back to the source(s) — pure plan metadata for
    /// [`Queryable::explain`]; never holds data.
    lineage: Arc<OpNode>,
}

impl<T> Clone for Queryable<T> {
    fn clone(&self) -> Self {
        Queryable {
            data: self.data.clone(),
            charge: self.charge.clone(),
            noise: self.noise.clone(),
            stability: self.stability,
            label: self.label.clone(),
            sink: self.sink.clone(),
            ctx: self.ctx.clone(),
            lineage: self.lineage.clone(),
        }
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
            ctx: ExecCtx::Sequential,
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
            ctx: ExecCtx::Sequential,
            lineage: OpNode::source(Some(format!("{} budgets", budgets.len()))),
        }
    }

    fn derive<U>(&self, op: &'static str, records: Vec<U>, stability: f64) -> Queryable<U> {
        Queryable {
            data: Data::Ready(Shards::from_vec(records)),
            charge: self.charge.clone(),
            noise: self.noise.clone(),
            stability,
            label: self.label.clone(),
            sink: self.sink.clone(),
            ctx: self.ctx.clone(),
            lineage: OpNode::derived(op, stability, false, None, self.lineage.clone()),
        }
    }

    fn derive_lazy<U>(
        &self,
        op: &'static str,
        detail: Option<String>,
        plan: LazyPlan<U>,
        stability: f64,
    ) -> Queryable<U> {
        Queryable {
            data: Data::Lazy(Arc::new(plan)),
            charge: self.charge.clone(),
            noise: self.noise.clone(),
            stability,
            label: self.label.clone(),
            sink: self.sink.clone(),
            ctx: self.ctx.clone(),
            lineage: OpNode::derived(op, stability, true, detail, self.lineage.clone()),
        }
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
    /// memo are free and silent. Under [`ExecCtx::Pool`] each fixed-size
    /// source chunk's output becomes one shard of the buffer (see
    /// [`LazyPlan::force_pool`]) — no concatenation barrier.
    fn records(&self) -> Shards<T>
    where
        T: Send + Sync,
    {
        match &self.data {
            Data::Ready(a) => a.clone(),
            Data::Lazy(plan) => {
                let prof = span::enter_with("plan/materialize", || self.ctx.mode().to_string());
                let t = SpanTimer::start();
                let mut fresh = false;
                let out = match &self.ctx {
                    ExecCtx::Sequential => plan.force_sequential(&mut fresh),
                    ExecCtx::Pool(pool) => plan.force_pool(pool, &mut fresh),
                };
                if fresh {
                    prof.set_records(out.len() as u64);
                    self.emit_plan(plan.fused(), t.elapsed_ns(), plan.source_len(), out.len());
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
    /// count aggregations. Deterministic in both modes (chunk counts are
    /// integers, summed in chunk order).
    fn stream_count(&self, kernel: &'static str, t: &SpanTimer) -> usize
    where
        T: Send + Sync,
    {
        match self.stream() {
            (StreamSource::Buf(s), _) => s.len(),
            (StreamSource::Chain(run), domain) => match &self.ctx {
                ExecCtx::Sequential => {
                    let mut n = 0usize;
                    run(0..domain, &mut |_| n += 1);
                    self.emit_exec(kernel, 1, 1, t.elapsed_ns());
                    n
                }
                ExecCtx::Pool(pool) => {
                    let ranges = pool.chunks(domain);
                    let counts: Vec<usize> = pool.run(&ranges, |_, r| {
                        let mut n = 0usize;
                        run(r.clone(), &mut |_| n += 1);
                        n
                    });
                    self.emit_exec(kernel, pool.workers(), ranges.len(), t.elapsed_ns());
                    counts.into_iter().sum()
                }
            },
        }
    }

    /// A view of the same dataset whose noise draws come from a derived
    /// substream of the shared source (see [`NoiseSource::substream`]).
    /// Used by parallel drivers to give each concurrent task its own
    /// deterministic stream; must be called on the coordinating thread in
    /// task order.
    pub(crate) fn with_substream(&self) -> Self {
        Queryable {
            data: self.data.clone(),
            charge: self.charge.clone(),
            noise: self.noise.substream(),
            stability: self.stability,
            label: self.label.clone(),
            sink: self.sink.clone(),
            ctx: self.ctx.clone(),
            lineage: self.lineage.clone(),
        }
    }

    /// Current sensitivity multiplier relative to the source dataset.
    pub fn stability(&self) -> f64 {
        self.stability
    }

    /// Bind an execution context: where this queryable's lazy plans
    /// materialize and where chunked aggregation kernels run. The context
    /// is inherited by every derived queryable.
    ///
    /// Privacy accounting is identical in both modes. Released values are
    /// identical too, except that chunked floating-point reductions
    /// (`noisy_sum*`) under [`ExecCtx::Pool`] may differ from the flat
    /// sequential sum in the last ulp — while staying bit-identical across
    /// *any* pool worker count (see [`ExecCtx`]).
    pub fn with_ctx(mut self, ctx: ExecCtx) -> Self {
        self.ctx = ctx;
        self
    }

    /// The execution context bound with [`Queryable::with_ctx`].
    pub fn ctx(&self) -> &ExecCtx {
        &self.ctx
    }

    /// Force the pending fused plan (if any) and return a handle over the
    /// materialized buffer. Stability, charges and the noise stream are
    /// untouched — this only pins *when* the record buffer exists, e.g. to
    /// pay a pipeline's cost once before aggregating in a loop.
    pub fn collect_protected(&self) -> Queryable<T>
    where
        T: Send + Sync,
    {
        Queryable {
            data: Data::Ready(self.records()),
            charge: self.charge.clone(),
            noise: self.noise.clone(),
            stability: self.stability,
            label: self.label.clone(),
            sink: self.sink.clone(),
            ctx: self.ctx.clone(),
            lineage: self.lineage.clone(),
        }
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
            charge: self.charge.snapshot(),
        }
    }

    /// Emit a [`TransformEvent`] for a just-derived queryable.
    fn emit_transform(
        &self,
        operator: &'static str,
        stability_out: f64,
        wall_ns: u64,
        output_records: usize,
    ) {
        // Quiet the unused warning when `trusted-owner` is off: the count
        // deliberately does not leave this function in that configuration.
        let _ = output_records;
        self.sink.emit(|| {
            Event::Transform(TransformEvent {
                operator,
                label: self.label.clone(),
                stability_in: self.stability,
                stability_out,
                wall_ns,
                at_ns: now_ns(),
                #[cfg(feature = "trusted-owner")]
                output_records: output_records as u64,
            })
        });
    }

    /// Emit an [`AggregateEvent`] describing a finished aggregation.
    /// `input_records` only leaves this function under `trusted-owner`.
    #[allow(clippy::too_many_arguments)]
    fn emit_aggregate(
        &self,
        operator: &'static str,
        mechanism: &'static str,
        eps: f64,
        released: Option<f64>,
        outcome: Outcome,
        timer: SpanTimer,
        input_records: usize,
    ) {
        let _ = input_records;
        self.sink.emit(|| {
            Event::Aggregate(AggregateEvent {
                operator,
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
                released,
                wall_ns: timer.elapsed_ns(),
                at_ns: timer.started_at_ns(),
                #[cfg(feature = "trusted-owner")]
                input_records: input_records as u64,
            })
        });
    }

    /// Emit a [`PlanEvent`] describing one actual plan materialization.
    /// The record counts only leave this function under `trusted-owner`.
    fn emit_plan(&self, fused: usize, wall_ns: u64, source_records: usize, output_records: usize) {
        let _ = (source_records, output_records);
        // Process-wide ordinal: explain-analyze counts materializations per
        // run by diffing, so monotonicity is all that matters here.
        static MATERIALIZATIONS: std::sync::atomic::AtomicU64 =
            std::sync::atomic::AtomicU64::new(1);
        self.sink.emit(|| {
            Event::Plan(PlanEvent {
                materialization: MATERIALIZATIONS
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                fused_stages: fused as u64,
                mode: self.ctx.mode(),
                workers: self.ctx.workers() as u64,
                wall_ns,
                at_ns: now_ns(),
                #[cfg(feature = "trusted-owner")]
                source_records: source_records as u64,
                #[cfg(feature = "trusted-owner")]
                output_records: output_records as u64,
            })
        });
    }

    /// Emit an [`ExecEvent`] describing one finished parallel-kernel run.
    /// `tasks` (the chunk count) is derived from the record count, so it
    /// only leaves this function under `trusted-owner`.
    pub(crate) fn emit_exec(
        &self,
        kernel: &'static str,
        workers: usize,
        tasks: usize,
        wall_ns: u64,
    ) {
        let _ = tasks;
        self.sink.emit(|| {
            Event::Exec(ExecEvent {
                kernel,
                workers: workers as u64,
                wall_ns,
                at_ns: now_ns(),
                #[cfg(feature = "trusted-owner")]
                tasks: tasks as u64,
            })
        });
    }

    /// Open a profiler span for an aggregation barrier, tagged with the
    /// static charge path the spend would narrate (e.g.
    /// `"part[3]/scale(x2)/root"`). Pure privacy metadata; when profiling
    /// is disabled this is one relaxed atomic load and nothing formats.
    fn agg_span(&self, name: &'static str) -> span::SpanGuard {
        span::enter_agg_with(name, || self.charge.describe())
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
        let t = SpanTimer::start();
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
        self.emit_transform("filter", q.stability, t.elapsed_ns(), 0);
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
        let t = SpanTimer::start();
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
        self.emit_transform("map", q.stability, t.elapsed_ns(), 0);
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
        let t = SpanTimer::start();
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
        self.emit_transform("select_many", q.stability, t.elapsed_ns(), 0);
        Ok(q)
    }

    /// Group records by a key (PINQ `GroupBy`). Stability ×2: adding or
    /// removing one source record can change two output records (the group
    /// it leaves and the group it joins, in the multiset-difference sense).
    pub fn group_by<K>(&self, key: impl Fn(&T) -> K) -> Queryable<Group<K, T>>
    where
        K: Eq + Hash + Clone,
        T: Clone + Send + Sync,
    {
        let prof = self.agg_span("group_by");
        let t = SpanTimer::start();
        let records = self.records();
        prof.set_records(records.len() as u64);
        let (_, keys, members) = group_records(&records, key);
        let out: Vec<Group<K, T>> = keys
            .into_iter()
            .zip(members)
            .map(|(key, items)| Group { key, items })
            .collect();
        let n_out = out.len();
        let q = self.derive("group_by", out, self.stability * 2.0);
        self.emit_transform("group_by", q.stability, t.elapsed_ns(), n_out);
        q
    }

    /// Keep the first record for each distinct key (PINQ `Distinct` over a
    /// projection). Stability ×1.
    pub fn distinct_by<K>(&self, key: impl Fn(&T) -> K) -> Queryable<T>
    where
        K: Eq + Hash,
        T: Clone + Send + Sync,
    {
        let t = SpanTimer::start();
        let records = self.records();
        let mut seen = std::collections::HashSet::new();
        let out: Vec<T> = records
            .iter()
            .filter(|r| seen.insert(key(r)))
            .cloned()
            .collect();
        let n_out = out.len();
        let q = self.derive("distinct_by", out, self.stability);
        self.emit_transform("distinct_by", q.stability, t.elapsed_ns(), n_out);
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
    pub fn join<U, K>(
        &self,
        other: &Queryable<U>,
        left_key: impl Fn(&T) -> K,
        right_key: impl Fn(&U) -> K,
    ) -> Queryable<JoinGroup<K, T, U>>
    where
        K: Eq + Hash + Clone,
        T: Clone + Send + Sync,
        U: Clone + Send + Sync,
    {
        let prof = self.agg_span("join");
        let t = SpanTimer::start();
        let left_records = self.records();
        let right_records = other.records();
        prof.set_records((left_records.len() + right_records.len()) as u64);
        let (index, keys, lefts) = group_records(&left_records, left_key);
        // Each right record goes straight into its left group's list;
        // records whose key has no left group are never cloned.
        let mut rights: Vec<Vec<U>> = (0..keys.len()).map(|_| Vec::new()).collect();
        for r in right_records.iter() {
            if let Some(&g) = index.get(&right_key(r)) {
                rights[g].push(r.clone());
            }
        }
        let out: Vec<JoinGroup<K, T, U>> = keys
            .into_iter()
            .zip(lefts)
            .zip(rights)
            .filter(|(_, right)| !right.is_empty())
            .map(|((key, left), right)| JoinGroup { key, left, right })
            .collect();
        let n_out = out.len();
        let q = Queryable {
            data: Data::Ready(Shards::from_vec(out)),
            charge: self.combined_charge(other.charge.clone(), other.stability),
            noise: self.noise.clone(),
            stability: 1.0,
            label: self.label.clone(),
            sink: self.sink.clone(),
            ctx: self.ctx.clone(),
            lineage: OpNode::combined("join", self.lineage.clone(), other.lineage.clone()),
        };
        self.emit_transform("join", q.stability, t.elapsed_ns(), n_out);
        q
    }

    /// A charge node billing both this queryable's lineage and another's,
    /// each scaled by its accumulated stability (`concat`, `join`,
    /// `intersect` all reset stability to 1 against this combined node).
    fn combined_charge(&self, other: Arc<ChargeNode>, other_stability: f64) -> Arc<ChargeNode> {
        kernel::scaled_pair(&self.charge, self.stability, &other, other_stability)
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
        let t = SpanTimer::start();
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
        let q = Queryable {
            data: Data::Ready(records),
            charge: self.combined_charge(other.charge.clone(), other.stability),
            noise: self.noise.clone(),
            stability: 1.0,
            label: self.label.clone(),
            sink: self.sink.clone(),
            ctx: self.ctx.clone(),
            lineage: OpNode::combined("concat", self.lineage.clone(), other.lineage.clone()),
        };
        self.emit_transform("concat", q.stability, t.elapsed_ns(), n_out);
        q
    }

    /// Distinct records present in both inputs (PINQ `Intersect`). No
    /// sensitivity increase; aggregations charge both budgets.
    pub fn intersect(&self, other: &Queryable<T>) -> Queryable<T>
    where
        T: Eq + Hash + Clone + Send + Sync,
    {
        let t = SpanTimer::start();
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
        let q = Queryable {
            data: Data::Ready(Shards::from_vec(out)),
            charge: self.combined_charge(other.charge.clone(), other.stability),
            noise: self.noise.clone(),
            stability: 1.0,
            label: self.label.clone(),
            sink: self.sink.clone(),
            ctx: self.ctx.clone(),
            lineage: OpNode::combined("intersect", self.lineage.clone(), other.lineage.clone()),
        };
        self.emit_transform("intersect", q.stability, t.elapsed_ns(), n_out);
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
    /// A barrier: forces the pending fused plan. Under [`ExecCtx::Pool`]
    /// the bucketing pass runs chunked on the pool — each fixed-size chunk
    /// fills per-chunk local buckets, concatenated in chunk order — so
    /// every part holds its records in the sequential order for any worker
    /// count.
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
        let prof = self.agg_span("partition");
        let t = SpanTimer::start();
        let index_of = key_index(keys)?;
        let records = self.records();
        prof.set_records(records.len() as u64);
        let parts: Vec<Vec<T>> = match &self.ctx {
            ExecCtx::Sequential => {
                let mut parts: Vec<Vec<T>> = (0..keys.len()).map(|_| Vec::new()).collect();
                for r in records.iter() {
                    if let Some(&i) = index_of.get(&key_fn(r)) {
                        parts[i].push(r.clone());
                    }
                }
                // Sequential runs are still runs: one kernel event with
                // `workers: 1`, so event streams cover both modes.
                self.emit_exec("partition", 1, 1, t.elapsed_ns());
                parts
            }
            ExecCtx::Pool(pool) => {
                let ranges = pool.chunks(records.len());
                let n_tasks = ranges.len();
                let locals: Vec<Vec<Vec<T>>> = pool.run(&ranges, |_, r| {
                    let mut buckets: Vec<Vec<T>> = (0..keys.len()).map(|_| Vec::new()).collect();
                    records.for_range(r.clone(), &mut |rec| {
                        if let Some(&i) = index_of.get(&key_fn(rec)) {
                            buckets[i].push(rec.clone());
                        }
                    });
                    buckets
                });
                self.emit_exec("partition", pool.workers(), n_tasks, t.elapsed_ns());
                let mut parts: Vec<Vec<T>> = (0..keys.len()).map(|_| Vec::new()).collect();
                for local in locals {
                    for (part, mut bucket) in parts.iter_mut().zip(local) {
                        part.append(&mut bucket);
                    }
                }
                parts
            }
        };
        let out = self.wrap_parts(parts);
        // One event for the whole partition; the part count is the (public)
        // key-list length, not a record count.
        self.emit_transform("partition", 1.0, t.elapsed_ns(), keys.len());
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
            .map(|(index, records)| Queryable {
                data: Data::Ready(Shards::from_vec(records)),
                charge: Arc::new(ledger.part(index)),
                noise: self.noise.clone(),
                stability: 1.0,
                label: self.label.clone(),
                sink: self.sink.clone(),
                ctx: self.ctx.clone(),
                lineage: OpNode::derived(
                    "partition",
                    1.0,
                    false,
                    Some(format!("part[{index}] of {n_parts}")),
                    self.lineage.clone(),
                ),
            })
            .collect()
    }

    /// Partition by a data-independent key list and release a noisy count
    /// of **every part** in one pass — the batched form of
    /// [`Queryable::partition`] followed by per-part
    /// [`Queryable::noisy_count`], with identical privacy arithmetic and
    /// bit-identical releases:
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
    /// - only a key histogram is computed (streamed over the fused chain
    ///   when nothing has materialized): the per-part record buffers never
    ///   exist. A 256-way fan-out costs one pass and 256 integers instead
    ///   of 256 allocations;
    /// - per-part `Aggregate` events, and the timer behind them, are
    ///   produced only when a sink is bound, and then match the unbatched
    ///   form's event for event (each part's wall time is its share of the
    ///   fan-out's).
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
        let prof = self.agg_span("partition_noisy_counts");
        let t = SpanTimer::start();
        let index_of = key_index(keys)?;
        check_epsilon(eps)?;
        if !(self.stability.is_finite() && self.stability > 0.0) {
            return Err(Error::InvalidStability(self.stability));
        }
        // One histogram pass; integer merges in chunk order keep the counts
        // identical for any worker count (and to the sequential pass).
        let (src, domain) = self.stream();
        let counts: Vec<usize> = match &self.ctx {
            ExecCtx::Sequential => {
                let mut counts = vec![0usize; keys.len()];
                src.walk(0..domain, &mut |rec| {
                    if let Some(&i) = index_of.get(&key_fn(rec)) {
                        counts[i] += 1;
                    }
                });
                self.emit_exec("partition_noisy_counts", 1, 1, t.elapsed_ns());
                counts
            }
            ExecCtx::Pool(pool) => {
                let ranges = pool.chunks(domain);
                let locals: Vec<Vec<usize>> = pool.run(&ranges, |_, rg| {
                    let mut counts = vec![0usize; keys.len()];
                    src.walk(rg.clone(), &mut |rec| {
                        if let Some(&i) = index_of.get(&key_fn(rec)) {
                            counts[i] += 1;
                        }
                    });
                    counts
                });
                self.emit_exec(
                    "partition_noisy_counts",
                    pool.workers(),
                    ranges.len(),
                    t.elapsed_ns(),
                );
                let mut counts = vec![0usize; keys.len()];
                for local in locals {
                    for (c, l) in counts.iter_mut().zip(local) {
                        *c += l;
                    }
                }
                counts
            }
        };
        prof.set_records(counts.iter().sum::<usize>() as u64);
        // The ledger the unbatched form builds in `wrap_parts`: parts
        // charge through one shared ledger scaled by this queryable's
        // stability; each part's own stability is 1. One kernel transition
        // books parts in order up to the first refusal, and the charged
        // prefix then draws its noise in part order.
        let ledger = kernel::partition_parts(&self.charge, self.stability, keys.len());
        let prep = kernel::prepare("noisy_count", self.label.clone());
        let sink = self.sink.resolve();
        let timer = sink.as_ref().map(|_| SpanTimer::start());
        let (charged, booked) = kernel::charge_fan_out(&ledger, keys.len(), eps, &prep);
        let released = aggregates::noisy_counts(&self.noise, &counts[..charged], eps)?;
        if let (Some(sink), Some(timer)) = (sink, timer) {
            // Per-part events mirror the unbatched per-part noisy_count:
            // stability 1, ε charged for each released part, and one
            // event for the refused part. A part's wall time is its share
            // of the fan-out's booking and draws.
            let refusal = booked.as_ref().err().map(|e| Err(e.clone()));
            let events = charged + usize::from(refusal.is_some());
            let wall_ns = timer.elapsed_ns() / events.max(1) as u64;
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
                    at_ns: timer.started_at_ns(),
                    #[cfg(feature = "trusted-owner")]
                    input_records: n as u64,
                }));
            }
        }
        booked.map(|()| released)
    }

    // ------------------------------------------------------------------
    // Aggregations
    // ------------------------------------------------------------------

    /// Noisy count of records: `n + Lap(1/ε)`. Charges `stability × ε`.
    ///
    /// Fused: an unforced pipeline is *streamed*, counting emissions of the
    /// fused pass without allocating (or memoizing) an output buffer. The
    /// count is an integer either way, so the release is bit-identical to
    /// counting a materialized buffer, in both execution modes and for any
    /// worker count.
    pub fn noisy_count(&self, eps: f64) -> Result<f64>
    where
        T: Send + Sync,
    {
        let prof = self.agg_span("noisy_count");
        let t = SpanTimer::start();
        let n = self.stream_count("noisy_count", &t);
        prof.set_records(n as u64);
        let r = self
            .pay(eps, "noisy_count")
            .and_then(|()| aggregates::noisy_count(&self.noise, n, eps));
        self.emit_aggregate(
            "noisy_count",
            "laplace",
            eps,
            r.as_ref().ok().copied(),
            outcome_of(&r),
            t,
            n,
        );
        r
    }

    /// Noisy integral count via the geometric mechanism, clamped at zero.
    ///
    /// Fused like [`Queryable::noisy_count`]: an unforced pipeline streams.
    pub fn noisy_count_int(&self, eps: f64) -> Result<i64>
    where
        T: Send + Sync,
    {
        let prof = self.agg_span("noisy_count_int");
        let t = SpanTimer::start();
        let n = self.stream_count("noisy_count_int", &t);
        prof.set_records(n as u64);
        let r = self
            .pay(eps, "noisy_count_int")
            .and_then(|()| aggregates::noisy_count_int(&self.noise, n, eps));
        self.emit_aggregate(
            "noisy_count_int",
            "geometric",
            eps,
            r.as_ref().ok().map(|&v| v as f64),
            outcome_of(&r),
            t,
            n,
        );
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
    /// Under [`ExecCtx::Sequential`] the clamped values sum flat, in record
    /// order. Under [`ExecCtx::Pool`] partial sums are computed per
    /// fixed-size chunk concurrently, combined in chunk order, and a single
    /// Laplace draw is taken on the calling thread — identical budget
    /// charge and noise stream, bit-identical for any worker count, but
    /// possibly an ulp away from the flat sequential sum because the
    /// chunked sum associates additions at chunk boundaries. (For a fused
    /// pipeline the chunks tile the *source*, so a pooled sum taken before
    /// forcing may likewise sit an ulp from one taken after.)
    pub fn noisy_sum_clamped(
        &self,
        eps: f64,
        bound: f64,
        f: impl Fn(&T) -> f64 + Send + Sync,
    ) -> Result<f64>
    where
        T: Send + Sync,
    {
        let prof = self.agg_span("noisy_sum");
        let t = SpanTimer::start();
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
            let total = match &self.ctx {
                ExecCtx::Sequential => {
                    let mut total = 0.0;
                    src.walk(0..domain, &mut |rec| {
                        total += aggregates::clamp(f(rec), -bound, bound);
                        n_records += 1;
                    });
                    // Sequential runs still emit a kernel event: workers 1.
                    self.emit_exec("noisy_sum", 1, 1, t.elapsed_ns());
                    total
                }
                ExecCtx::Pool(pool) => {
                    let ranges = pool.chunks(domain);
                    let partials: Vec<(f64, usize)> = pool.run(&ranges, |_, rg| {
                        let mut s = 0.0;
                        let mut n = 0usize;
                        src.walk(rg.clone(), &mut |rec| {
                            s += aggregates::clamp(f(rec), -bound, bound);
                            n += 1;
                        });
                        (s, n)
                    });
                    self.emit_exec("noisy_sum", pool.workers(), ranges.len(), t.elapsed_ns());
                    n_records = partials.iter().map(|&(_, n)| n).sum();
                    partials.iter().map(|&(s, _)| s).sum::<f64>()
                }
            };
            prof.set_records(n_records as u64);
            Ok(total + crate::mechanisms::laplace_noise(&self.noise, bound / eps))
        })();
        self.emit_aggregate(
            "noisy_sum",
            "laplace",
            eps,
            r.as_ref().ok().copied(),
            outcome_of(&r),
            t,
            n_records,
        );
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
        let prof = self.agg_span("noisy_sum_vector");
        let t = SpanTimer::start();
        let records = self.records();
        prof.set_records(records.len() as u64);
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
        self.emit_aggregate(
            "noisy_sum_vector",
            "laplace",
            eps,
            None,
            outcome_of(&r),
            t,
            records.len(),
        );
        r
    }

    /// Noisy average of `f(record)` with values clamped to `[-1, 1]`;
    /// noise std `√8/(εn)`.
    pub fn noisy_average(&self, eps: f64, f: impl Fn(&T) -> f64) -> Result<f64>
    where
        T: Send + Sync,
    {
        let prof = self.agg_span("noisy_average");
        let t = SpanTimer::start();
        let records = self.records();
        prof.set_records(records.len() as u64);
        let r = self
            .pay(eps, "noisy_average")
            .and_then(|()| aggregates::noisy_average(&self.noise, records.iter().map(f), eps));
        self.emit_aggregate(
            "noisy_average",
            "laplace",
            eps,
            r.as_ref().ok().copied(),
            outcome_of(&r),
            t,
            records.len(),
        );
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
        let prof = self.agg_span("most_common_key");
        let t = SpanTimer::start();
        let records = self.records();
        prof.set_records(records.len() as u64);
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
            "most_common_key",
            "exponential",
            eps,
            r.as_ref().ok().map(|&i| i as f64),
            outcome_of(&r),
            t,
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
    /// Under [`ExecCtx::Pool`] the projection runs concurrently over
    /// fixed-size chunks, concatenated in chunk order, and the mechanism
    /// then runs on the calling thread — identical to the sequential path
    /// for any worker count.
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
        let prof = self.agg_span("noisy_median");
        let t = SpanTimer::start();
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
            let values: Vec<f64> = match &self.ctx {
                ExecCtx::Sequential => {
                    let mut values = Vec::new();
                    src.walk(0..domain, &mut |rec| values.push(f(rec)));
                    // Sequential runs still emit a kernel event: workers 1.
                    self.emit_exec("noisy_median", 1, 1, t.elapsed_ns());
                    values
                }
                ExecCtx::Pool(pool) => {
                    let ranges = pool.chunks(domain);
                    let chunks: Vec<Vec<f64>> = pool.run(&ranges, |_, rg| {
                        let mut v = Vec::new();
                        src.walk(rg.clone(), &mut |rec| v.push(f(rec)));
                        v
                    });
                    self.emit_exec("noisy_median", pool.workers(), ranges.len(), t.elapsed_ns());
                    let mut values = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
                    for mut c in chunks {
                        values.append(&mut c);
                    }
                    values
                }
            };
            n_records = values.len();
            prof.set_records(n_records as u64);
            aggregates::noisy_median(&self.noise, &values, lo, hi, buckets, eps)
        })();
        self.emit_aggregate(
            "noisy_median",
            "exponential",
            eps,
            r.as_ref().ok().copied(),
            outcome_of(&r),
            t,
            n_records,
        );
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
        let seq = run(ExecCtx::Sequential);
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
        assert_eq!(tree.charge.path(), "part[1]/scale(x1)/root");

        let joined = parts[0].concat(&parts[1]);
        let tree = joined.explain();
        assert_eq!(tree.lineage.op, "concat");
        assert_eq!(tree.lineage.inputs.len(), 2);
        assert!(matches!(
            tree.charge,
            crate::explain::ChargeTree::Combined(_)
        ));
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

//! Hierarchical span profiling: enter/exit timing with parent links.
//!
//! A span is one timed region of engine work (a kernel run, a plan
//! materialization, an aggregation). Spans nest: entering a span while
//! another is open on the same thread records the open span as its parent,
//! so a completed trace reconstructs the call tree — and *self time* (a
//! span's duration minus its children's) attributes wall-clock to the code
//! that actually burned it rather than to everything above it on the stack.
//!
//! The [`SpanGuard`] is also the engine's one timer: an event that carries
//! a duration takes it from the guard of the span it describes
//! ([`SpanGuard::elapsed_ns`], [`SpanGuard::start_ns`]), so the event and
//! the recorded span agree to the nanosecond on when the region started.
//!
//! The machinery is built for a near-zero disabled path: a span reads the
//! clock only when a [`TraceRecorder`] is installed or its caller asks for
//! a duration, so an unobserved `enter` site costs one relaxed atomic load.
//! When recording, the per-thread span stack is a plain `thread_local`
//! (lock-free; no cross-thread synchronization until a span *completes*,
//! at which point it is pushed onto the recorder under a mutex).
//!
//! ## Privacy
//!
//! Spans obey the crate-level privacy-safety rule: name, detail, parent
//! links, track ids and timings are analyst-chosen metadata or timings.
//! Record-derived magnitudes (e.g. how many records a task touched) attach
//! via [`SpanGuard::set_records`] and exist on the serialized span only
//! under the `trusted-owner` feature.

use crate::clock;
use crate::json::JsonObj;
use crate::lock;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One finished span, as assembled by the [`TraceRecorder`].
#[derive(Debug, Clone)]
pub struct CompletedSpan {
    /// Process-unique span id (never zero).
    pub id: u64,
    /// Id of the span that was open on the same thread at enter time.
    pub parent: Option<u64>,
    /// Static span name, e.g. `"noisy_sum"`, `"exec/task"`.
    pub name: &'static str,
    /// Optional free-form metadata (a charge path, an experiment id).
    pub detail: Option<Arc<str>>,
    /// Track (thread lane) the span ran on.
    pub track: u64,
    /// Monotonic start timestamp (ns since process clock epoch).
    pub start_ns: u64,
    /// Span duration, ns.
    pub dur_ns: u64,
    /// Total duration of direct children, ns.
    pub child_ns: u64,
    /// Records the span touched. Data-dependent: owner-side builds only.
    #[cfg(feature = "trusted-owner")]
    pub records: u64,
}

impl CompletedSpan {
    /// Duration not attributable to any child span, ns.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns.saturating_sub(self.child_ns)
    }

    /// Serialize as one flat JSON object. Like [`crate::Event::to_json`],
    /// this is the canonical wire form the privacy tests inspect: in the
    /// default configuration it carries no record-derived fields.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.field_str("type", "span")
            .field_u64("id", self.id)
            .field_str("name", self.name)
            .field_opt_str("detail", self.detail.as_deref())
            .field_u64("track", self.track)
            .field_u64("start_ns", self.start_ns)
            .field_u64("dur_ns", self.dur_ns)
            .field_u64("self_ns", self.self_ns());
        if let Some(p) = self.parent {
            o.field_u64("parent", p);
        }
        #[cfg(feature = "trusted-owner")]
        o.field_u64("records", self.records);
        o.finish()
    }
}

/// How a [`TraceRecorder`] treats spans opened through [`enter_agg_with`]
/// (the high-frequency aggregation-barrier sites, one span per charge).
///
/// Large partitioned experiments open one aggregation span per part —
/// on the order of a million spans for worm at 4 workers — and keeping
/// each one as a [`CompletedSpan`] dominates the recorder's memory and
/// lock traffic. [`SpanMode::Aggregate`] folds those spans into one
/// [`AggregatedSpans`] row per `(name, detail)` pair instead (count +
/// total ns per charge path), while every other span is recorded in full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpanMode {
    /// Record every span individually (the default; exact timelines).
    #[default]
    Full,
    /// Fold aggregation-barrier spans into per-`(name, detail)` rows.
    Aggregate,
}

/// All spans from one [`enter_agg_with`] site sharing a `(name, detail)`
/// pair, folded by a [`SpanMode::Aggregate`] recorder into one row.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregatedSpans {
    /// Static span name, e.g. `"noisy_count"`.
    pub name: &'static str,
    /// The detail the spans shared (for aggregation sites: a charge path).
    pub detail: Option<Arc<str>>,
    /// Number of spans folded into this row.
    pub count: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of the spans' direct-children durations, ns.
    pub child_ns: u64,
}

impl AggregatedSpans {
    /// Total duration not attributable to child spans, ns.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

/// Aggregate-fold key: the `(name, detail)` pair spans share.
type AggKey = (&'static str, Option<Arc<str>>);

/// Collects [`CompletedSpan`]s from every thread while installed.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    mode: SpanMode,
    spans: Mutex<Vec<CompletedSpan>>,
    aggs: Mutex<BTreeMap<AggKey, AggregatedSpans>>,
    tracks: Mutex<BTreeMap<u64, Arc<str>>>,
}

impl TraceRecorder {
    /// An empty recorder in [`SpanMode::Full`].
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// An empty recorder in the given mode.
    pub fn with_mode(mode: SpanMode) -> Self {
        TraceRecorder {
            mode,
            ..TraceRecorder::default()
        }
    }

    /// The mode this recorder was built with.
    pub fn mode(&self) -> SpanMode {
        self.mode
    }

    /// Copy of every span completed so far (completion order).
    pub fn spans(&self) -> Vec<CompletedSpan> {
        lock(&self.spans).clone()
    }

    /// Remove and return every span completed so far.
    pub fn take(&self) -> Vec<CompletedSpan> {
        std::mem::take(&mut *lock(&self.spans))
    }

    /// Number of completed spans held.
    pub fn len(&self) -> usize {
        lock(&self.spans).len()
    }

    /// True when no span has completed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all held spans and aggregate rows (track names are kept).
    pub fn clear(&self) {
        lock(&self.spans).clear();
        lock(&self.aggs).clear();
    }

    /// Copy of every aggregate row folded so far, ordered by `(name,
    /// detail)` for determinism. Empty unless the recorder runs in
    /// [`SpanMode::Aggregate`] and [`enter_agg_with`] sites fired.
    pub fn aggregated(&self) -> Vec<AggregatedSpans> {
        lock(&self.aggs).values().cloned().collect()
    }

    /// Remove and return every aggregate row folded so far, ordered by
    /// `(name, detail)`.
    pub fn take_aggregated(&self) -> Vec<AggregatedSpans> {
        std::mem::take(&mut *lock(&self.aggs))
            .into_values()
            .collect()
    }

    /// Human-readable names for tracks, as registered by
    /// [`set_track_name`]. Unnamed tracks are absent.
    pub fn track_names(&self) -> BTreeMap<u64, Arc<str>> {
        lock(&self.tracks).clone()
    }

    fn push(&self, span: CompletedSpan) {
        lock(&self.spans).push(span);
    }

    fn push_agg(&self, span: &CompletedSpan) {
        let mut aggs = lock(&self.aggs);
        let row = aggs
            .entry((span.name, span.detail.clone()))
            .or_insert_with(|| AggregatedSpans {
                name: span.name,
                detail: span.detail.clone(),
                count: 0,
                total_ns: 0,
                child_ns: 0,
            });
        row.count += 1;
        row.total_ns += span.dur_ns;
        row.child_ns += span.child_ns;
    }

    fn name_track(&self, track: u64, name: &str) {
        lock(&self.tracks).insert(track, Arc::from(name));
    }
}

struct Profiler {
    enabled: AtomicBool,
    recorder: Mutex<Option<Arc<TraceRecorder>>>,
}

fn profiler() -> &'static Profiler {
    static GLOBAL: OnceLock<Profiler> = OnceLock::new();
    GLOBAL.get_or_init(|| Profiler {
        enabled: AtomicBool::new(false),
        recorder: Mutex::new(None),
    })
}

/// Install the process-wide span recorder, enabling profiling everywhere.
/// Returns the previously installed recorder, if any.
pub fn install_recorder(recorder: Arc<TraceRecorder>) -> Option<Arc<TraceRecorder>> {
    let p = profiler();
    let mut slot = lock(&p.recorder);
    let old = slot.replace(recorder);
    p.enabled.store(true, Ordering::Release);
    old
}

/// Remove the process-wide span recorder, disabling profiling. Returns
/// the recorder that was installed, if any.
pub fn uninstall_recorder() -> Option<Arc<TraceRecorder>> {
    let p = profiler();
    let mut slot = lock(&p.recorder);
    p.enabled.store(false, Ordering::Release);
    slot.take()
}

/// True when a recorder is installed. One relaxed atomic load — the fast
/// path every instrumentation site checks before doing any work.
#[inline]
pub fn profiling_enabled() -> bool {
    profiler().enabled.load(Ordering::Relaxed)
}

/// The currently installed recorder, if any.
pub fn recorder() -> Option<Arc<TraceRecorder>> {
    if !profiling_enabled() {
        return None;
    }
    lock(&profiler().recorder).clone()
}

/// A span currently open on this thread's stack. Its start time lives in
/// the [`SpanGuard`] that closes it.
struct ActiveSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    detail: Option<Arc<str>>,
    child_ns: u64,
    records: u64,
    /// Opened through [`enter_agg_with`]: an aggregation-barrier span a
    /// [`SpanMode::Aggregate`] recorder folds instead of storing.
    agg: bool,
}

struct ThreadCtx {
    track: u64,
    stack: Vec<ActiveSpan>,
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = RefCell::new(ThreadCtx {
        track: {
            static NEXT_TRACK: AtomicU64 = AtomicU64::new(1);
            NEXT_TRACK.fetch_add(1, Ordering::Relaxed)
        },
        stack: Vec::new(),
    });
}

fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Name this thread's track in the installed recorder (e.g. `"worker-3"`).
/// No-op when profiling is disabled.
pub fn set_track_name(name: &str) {
    if let Some(rec) = recorder() {
        let track = CTX.with(|c| c.borrow().track);
        rec.name_track(track, name);
    }
}

/// This thread's track id (assigned on first use, process-unique).
pub fn current_track() -> u64 {
    CTX.with(|c| c.borrow().track)
}

/// Open a span named `name` on this thread. Returns a guard that closes
/// the span when dropped. When profiling is disabled the call is one
/// relaxed atomic load and the guard does nothing: it reads no clock and
/// its [`SpanGuard::elapsed_ns`] is 0.
#[inline]
pub fn enter(name: &'static str) -> SpanGuard {
    open(name, false, false, || None)
}

/// Like [`enter`], but the guard always reads the clock, so its duration
/// is there for the caller whether or not a recorder is installed. For
/// regions that run a handful of times per analysis (a toolkit phase).
#[inline]
pub fn enter_timed(name: &'static str) -> SpanGuard {
    open(name, true, false, || None)
}

/// Like [`enter`], but attaches free-form detail built by `make` — which
/// runs only when profiling is enabled, so callers can format charge paths
/// or labels without paying on the disabled path. With `timed`, the guard
/// reads the clock even when no recorder is installed (as
/// [`enter_timed`]); callers pass whether they will ask for the duration.
#[inline]
pub fn enter_with(name: &'static str, timed: bool, make: impl FnOnce() -> String) -> SpanGuard {
    open(name, timed, false, || Some(Arc::from(make().as_str())))
}

/// [`enter_with`] for high-frequency aggregation-barrier sites (one span
/// per charge). Under a [`SpanMode::Full`] recorder this is identical to
/// [`enter_with`]; a [`SpanMode::Aggregate`] recorder folds the completed
/// span into a per-`(name, detail)` [`AggregatedSpans`] row instead of
/// storing it individually.
#[inline]
pub fn enter_agg_with(name: &'static str, timed: bool, make: impl FnOnce() -> String) -> SpanGuard {
    open(name, timed, true, || Some(Arc::from(make().as_str())))
}

#[inline]
fn open(
    name: &'static str,
    timed: bool,
    agg: bool,
    detail: impl FnOnce() -> Option<Arc<str>>,
) -> SpanGuard {
    let recorded = profiling_enabled();
    if recorded {
        push(name, detail(), agg);
    }
    SpanGuard {
        started: (recorded || timed).then(clock::mark),
        recorded,
    }
}

fn push(name: &'static str, detail: Option<Arc<str>>, agg: bool) {
    CTX.with(|c| {
        let mut ctx = c.borrow_mut();
        let parent = ctx.stack.last().map(|s| s.id);
        ctx.stack.push(ActiveSpan {
            id: next_span_id(),
            parent,
            name,
            detail,
            child_ns: 0,
            records: 0,
            agg,
        });
    });
}

/// RAII guard for an open span; closing happens on drop. A span must
/// close on the thread that opened it.
///
/// The guard owns the span's start instant — the one clock read of a span
/// start — and both the recorded [`CompletedSpan`] and the caller's event
/// timings derive from it.
#[derive(Debug)]
pub struct SpanGuard {
    /// When the span opened; `None` when neither a recorder nor the caller
    /// wanted timing, so the span never read the clock.
    started: Option<Instant>,
    /// A recorder was installed at enter: this guard pushed a span onto
    /// the thread's stack and pops it on drop.
    recorded: bool,
}

impl SpanGuard {
    /// Nanoseconds since the span opened; 0 for a span that read no clock.
    pub fn elapsed_ns(&self) -> u64 {
        self.started.map_or(0, |at| at.elapsed().as_nanos() as u64)
    }

    /// When the span opened, ns since the process clock epoch (the same
    /// value as the recorded span's `start_ns`); 0 for a span that read no
    /// clock.
    pub fn start_ns(&self) -> u64 {
        self.started.map_or(0, clock::ns_since_epoch)
    }

    /// Attach the number of records this span touched. The value reaches
    /// the serialized span only under `trusted-owner`; in default builds
    /// it is accepted and discarded (see the crate privacy rule).
    pub fn set_records(&self, n: u64) {
        if !self.recorded {
            return;
        }
        CTX.with(|c| {
            if let Some(top) = c.borrow_mut().stack.last_mut() {
                top.records = n;
            }
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let (true, Some(started)) = (self.recorded, self.started) else {
            return;
        };
        let dur_ns = started.elapsed().as_nanos() as u64;
        let completed = CTX.with(|c| {
            let mut ctx = c.borrow_mut();
            let span = ctx.stack.pop()?;
            if let Some(parent) = ctx.stack.last_mut() {
                parent.child_ns += dur_ns;
            }
            let records = span.records;
            // Quiet the unused warning when `trusted-owner` is off; the
            // count deliberately dies here in that configuration.
            let _ = records;
            let agg = span.agg;
            let completed = CompletedSpan {
                id: span.id,
                parent: span.parent,
                name: span.name,
                detail: span.detail,
                track: ctx.track,
                start_ns: clock::ns_since_epoch(started),
                dur_ns,
                child_ns: span.child_ns,
                #[cfg(feature = "trusted-owner")]
                records,
            };
            Some((completed, agg))
        });
        if let Some((span, agg)) = completed {
            // The recorder may have been uninstalled while the span was
            // open; the span is then simply discarded.
            if let Some(rec) = recorder() {
                if agg && rec.mode() == SpanMode::Aggregate {
                    rec.push_agg(&span);
                } else {
                    rec.push(span);
                }
            }
        }
    }
}

/// One row of a time-attribution table: all spans sharing a name, folded.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionRow {
    /// Span name the row aggregates.
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of span durations, ns (children included — overlapping work
    /// counts once per enclosing span).
    pub total_ns: u64,
    /// Sum of self times, ns. Self times are disjoint by construction, so
    /// summing this column over all rows ≈ total profiled wall-clock.
    pub self_ns: u64,
}

/// Fold completed spans into per-name attribution rows, sorted by
/// descending self time (ties broken by name for determinism).
pub fn attribution(spans: &[CompletedSpan]) -> Vec<AttributionRow> {
    attribution_with_aggregates(spans, &[])
}

/// [`attribution`] over full spans *and* the [`AggregatedSpans`] rows a
/// [`SpanMode::Aggregate`] recorder folded — so the per-operator table is
/// identical whichever mode recorded the run.
pub fn attribution_with_aggregates(
    spans: &[CompletedSpan],
    aggs: &[AggregatedSpans],
) -> Vec<AttributionRow> {
    let mut by_name: BTreeMap<&'static str, AttributionRow> = BTreeMap::new();
    fn row_for<'m>(
        by_name: &'m mut BTreeMap<&'static str, AttributionRow>,
        name: &'static str,
    ) -> &'m mut AttributionRow {
        by_name.entry(name).or_insert_with(|| AttributionRow {
            name: name.to_string(),
            count: 0,
            total_ns: 0,
            self_ns: 0,
        })
    }
    for s in spans {
        let row = row_for(&mut by_name, s.name);
        row.count += 1;
        row.total_ns += s.dur_ns;
        row.self_ns += s.self_ns();
    }
    for a in aggs {
        let row = row_for(&mut by_name, a.name);
        row.count += a.count;
        row.total_ns += a.total_ns;
        row.self_ns += a.self_ns();
    }
    let mut rows: Vec<AttributionRow> = by_name.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize installs on the process-wide profiler slot: these tests
    /// mutate global state, so they share one lock.
    fn global_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        lock(&LOCK)
    }

    fn spin(iters: u64) -> u64 {
        let mut x = 1u64;
        for i in 0..iters {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x)
    }

    #[test]
    fn disabled_guard_records_nothing() {
        let _g = global_guard();
        // Whatever a previous test left behind, start uninstalled.
        uninstall_recorder();
        let rec = Arc::new(TraceRecorder::new());
        {
            let span = enter_with("quiet", false, || unreachable!("detail built unrecorded"));
            spin(10_000);
            // An untimed guard never read the clock.
            assert_eq!((span.elapsed_ns(), span.start_ns()), (0, 0));
        }
        assert!(rec.is_empty());
        assert!(!profiling_enabled());
    }

    #[test]
    fn enter_timed_measures_work_without_a_recorder() {
        let _g = global_guard();
        uninstall_recorder();
        let span = enter_timed("phase");
        spin(10_000);
        assert!(span.elapsed_ns() > 0);
        assert!(span.start_ns() <= crate::clock::now_ns());
    }

    #[test]
    fn nesting_links_parents_and_splits_self_time() {
        let _g = global_guard();
        let rec = Arc::new(TraceRecorder::new());
        install_recorder(rec.clone());
        let (outer_start_ns, outer_read_ns) = {
            let outer = enter("outer");
            spin(20_000);
            {
                let _inner = enter("inner");
                spin(20_000);
            }
            spin(20_000);
            (outer.start_ns(), outer.elapsed_ns())
        };
        uninstall_recorder();
        let spans = rec.take();
        assert_eq!(spans.len(), 2);
        // Completion order: inner first.
        let inner = &spans[0];
        let outer = &spans[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(outer.dur_ns >= inner.dur_ns);
        assert_eq!(outer.child_ns, inner.dur_ns);
        assert_eq!(outer.self_ns(), outer.dur_ns - inner.dur_ns);
        assert_eq!(inner.self_ns(), inner.dur_ns);
        assert_eq!(inner.track, outer.track);
        // The guard's readings are the recorded span's: same start, and a
        // duration read before the close fits inside it.
        assert_eq!(outer.start_ns, outer_start_ns);
        assert!(outer_read_ns > 0 && outer_read_ns <= outer.dur_ns);
    }

    #[test]
    fn detail_rides_along_and_serializes() {
        let _g = global_guard();
        let rec = Arc::new(TraceRecorder::new());
        install_recorder(rec.clone());
        {
            let _s = enter_with("noisy_sum", false, || "scale(x2)/root".to_string());
        }
        uninstall_recorder();
        let spans = rec.take();
        assert_eq!(spans.len(), 1);
        let j = spans[0].to_json();
        assert!(j.contains("\"type\":\"span\""));
        assert!(j.contains("\"name\":\"noisy_sum\""));
        assert!(j.contains("\"detail\":\"scale(x2)/root\""));
        let parsed = crate::json::parse_value(&j).expect("JSON");
        assert_eq!(parsed["type"].as_str(), Some("span"));
        assert!(parsed["dur_ns"].as_f64().is_some());
    }

    #[test]
    fn default_serialized_span_has_no_record_fields() {
        let _g = global_guard();
        let rec = Arc::new(TraceRecorder::new());
        install_recorder(rec.clone());
        {
            let s = enter("kernel");
            s.set_records(12345);
        }
        uninstall_recorder();
        let j = rec.take()[0].to_json();
        if cfg!(feature = "trusted-owner") {
            assert!(j.contains("\"records\":12345"), "missing records in {j}");
        } else {
            assert!(!j.contains("records"), "data-dependent field in {j}");
        }
    }

    #[test]
    fn spans_across_threads_get_distinct_tracks() {
        let _g = global_guard();
        let rec = Arc::new(TraceRecorder::new());
        install_recorder(rec.clone());
        std::thread::scope(|scope| {
            for w in 0..2 {
                let _ = w;
                scope.spawn(move || {
                    set_track_name(&format!("worker-{w}"));
                    let _s = enter("task");
                    spin(10_000);
                });
            }
        });
        uninstall_recorder();
        let spans = rec.take();
        assert_eq!(spans.len(), 2);
        assert_ne!(spans[0].track, spans[1].track);
        // Cross-thread spans are roots of their own tracks.
        assert!(spans.iter().all(|s| s.parent.is_none()));
        let names = rec.track_names();
        assert_eq!(names.len(), 2);
        assert!(names.values().any(|n| &**n == "worker-0"));
    }

    #[test]
    fn attribution_folds_by_name_and_sorts_by_self_time() {
        let spans = vec![
            CompletedSpan {
                id: 1,
                parent: None,
                name: "a",
                detail: None,
                track: 1,
                start_ns: 0,
                dur_ns: 100,
                child_ns: 80,
                #[cfg(feature = "trusted-owner")]
                records: 0,
            },
            CompletedSpan {
                id: 2,
                parent: Some(1),
                name: "b",
                detail: None,
                track: 1,
                start_ns: 10,
                dur_ns: 80,
                child_ns: 0,
                #[cfg(feature = "trusted-owner")]
                records: 0,
            },
            CompletedSpan {
                id: 3,
                parent: None,
                name: "b",
                detail: None,
                track: 1,
                start_ns: 200,
                dur_ns: 5,
                child_ns: 0,
                #[cfg(feature = "trusted-owner")]
                records: 0,
            },
        ];
        let rows = attribution(&spans);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "b");
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].total_ns, 85);
        assert_eq!(rows[0].self_ns, 85);
        assert_eq!(rows[1].name, "a");
        assert_eq!(rows[1].self_ns, 20);
        // Self times tile the profiled wall-clock.
        let total_self: u64 = rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(total_self, 105);
    }

    #[test]
    fn aggregate_mode_folds_agg_spans_by_name_and_detail() {
        let _g = global_guard();
        let rec = Arc::new(TraceRecorder::with_mode(SpanMode::Aggregate));
        install_recorder(rec.clone());
        {
            let _outer = enter("exec/run");
            for _ in 0..3 {
                let _s = enter_agg_with("noisy_count", false, || {
                    "part[*]/scale(x1)/root".to_string()
                });
                spin(5_000);
            }
            let _other = enter_agg_with("noisy_sum", false, || "root".to_string());
        }
        uninstall_recorder();
        // Only the non-agg span is stored individually.
        let spans = rec.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "exec/run");
        let aggs = rec.aggregated();
        assert_eq!(aggs.len(), 2);
        let count_row = &aggs[0];
        assert_eq!(count_row.name, "noisy_count");
        assert_eq!(count_row.detail.as_deref(), Some("part[*]/scale(x1)/root"));
        assert_eq!(count_row.count, 3);
        assert!(count_row.total_ns > 0);
        assert_eq!(aggs[1].name, "noisy_sum");
        assert_eq!(aggs[1].count, 1);
        // The parent still sees the folded spans as children.
        assert_eq!(
            spans[0].child_ns,
            aggs.iter().map(|a| a.total_ns).sum::<u64>()
        );
        // Attribution is fed from both sources.
        let rows = attribution_with_aggregates(&spans, &aggs);
        assert_eq!(rows.len(), 3);
        let nc = rows.iter().find(|r| r.name == "noisy_count").unwrap();
        assert_eq!(nc.count, 3);
        assert_eq!(nc.total_ns, count_row.total_ns);
        assert!(rec.take_aggregated().len() == 2 && rec.aggregated().is_empty());
    }

    #[test]
    fn full_mode_records_agg_spans_individually() {
        let _g = global_guard();
        let rec = Arc::new(TraceRecorder::new());
        assert_eq!(rec.mode(), SpanMode::Full);
        install_recorder(rec.clone());
        for _ in 0..2 {
            let _s = enter_agg_with("noisy_count", false, || "root".to_string());
        }
        uninstall_recorder();
        assert_eq!(rec.spans().len(), 2);
        assert!(rec.aggregated().is_empty());
    }

    #[test]
    fn reinstall_returns_the_previous_recorder() {
        let _g = global_guard();
        let a = Arc::new(TraceRecorder::new());
        let b = Arc::new(TraceRecorder::new());
        assert!(install_recorder(a.clone()).is_none());
        let old = install_recorder(b).expect("a was installed");
        assert!(Arc::ptr_eq(&old, &a));
        assert!(uninstall_recorder().is_some());
        assert!(!profiling_enabled());
    }
}

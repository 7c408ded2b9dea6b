//! Integration tests of the span profiler against real queryables: span
//! trees from full query pipelines, worker tracks, charge-path tagging,
//! sequential-mode kernel events, events timed by their spans, and the
//! privacy rule end-to-end.

use dpnet_obs::{
    install_recorder, uninstall_recorder, CompletedSpan, Event, MemorySink, TraceRecorder,
};
use pinq::{Accountant, ExecCtx, ExecPool, NoiseSource, Queryable};
use std::sync::{Arc, Mutex, MutexGuard};

/// Tests here install a process-wide recorder; serialize them.
fn global_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn dataset(n: u64, budget: f64) -> (Accountant, Arc<MemorySink>, Queryable<u64>) {
    let acct = Accountant::new(budget);
    let sink = Arc::new(MemorySink::new());
    acct.set_sink(Some(sink.clone()));
    let noise = NoiseSource::seeded(7);
    let q = Queryable::new((0..n).collect(), &acct, &noise);
    (acct, sink, q)
}

fn profiled<R>(work: impl FnOnce() -> R) -> (R, Vec<CompletedSpan>, Arc<TraceRecorder>) {
    let rec = Arc::new(TraceRecorder::new());
    install_recorder(rec.clone());
    let out = work();
    uninstall_recorder();
    let spans = rec.take();
    (out, spans, rec)
}

/// Satellite fix: a sequential-context aggregation run is still a kernel
/// run. It must emit an [`dpnet_obs::ExecEvent`] with `workers: 1` instead
/// of being silently skipped.
#[test]
fn sequential_runs_emit_exec_events_with_one_worker() {
    // No recorder is installed here, but these aggregations still open
    // spans: without the guard they land in another test's recorder.
    let _g = global_guard();
    let (_, sink, q) = dataset(2_000, 100.0);
    // Explicitly sequential: the default context.
    let q = q.with_ctx(ExecCtx::Sequential);
    q.noisy_sum_clamped(0.1, 10.0, |&v| v as f64).unwrap();
    q.noisy_median(0.1, 0.0, 2_000.0, 32, |&v| v as f64)
        .unwrap();
    let keys = [0u64, 1, 2];
    q.partition(&keys, |v| v % 3).unwrap();

    let mut kernels: Vec<(&'static str, u64)> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::Exec(x) => Some((x.kernel, x.workers)),
            _ => None,
        })
        .collect();
    kernels.sort_unstable();
    assert_eq!(
        kernels,
        vec![("noisy_median", 1), ("noisy_sum", 1), ("partition", 1)],
        "sequential aggregations must emit workers:1 exec events"
    );
}

#[test]
fn pool_and_sequential_modes_emit_the_same_kernel_set() {
    let _g = global_guard();
    let (_, seq_sink, q) = dataset(40_000, 100.0);
    q.noisy_sum_clamped(0.1, 10.0, |&v| v as f64).unwrap();
    let (_, pool_sink, q) = dataset(40_000, 100.0);
    let q = q.with_ctx(ExecCtx::pool(&ExecPool::new(4).unwrap()));
    q.noisy_sum_clamped(0.1, 10.0, |&v| v as f64).unwrap();
    let kernel_of = |sink: &MemorySink| {
        sink.events().iter().find_map(|e| match e {
            Event::Exec(x) => Some((x.kernel, x.workers)),
            _ => None,
        })
    };
    assert_eq!(kernel_of(&seq_sink), Some(("noisy_sum", 1)));
    assert_eq!(kernel_of(&pool_sink), Some(("noisy_sum", 4)));
}

#[test]
fn aggregations_open_spans_tagged_with_their_charge_path() {
    let _g = global_guard();
    let ((), spans, _) = profiled(|| {
        let (_, _, q) = dataset(5_000, 100.0);
        let doubled = q.group_by(|v| v % 7); // stability ×2
        doubled.noisy_count(0.1).unwrap();
        let keys = [0u64, 1, 2, 3];
        let parts = q.partition(&keys, |v| v % 4).unwrap();
        parts[2].noisy_count(0.05).unwrap();
    });
    let count_spans: Vec<&CompletedSpan> =
        spans.iter().filter(|s| s.name == "noisy_count").collect();
    assert_eq!(count_spans.len(), 2);
    let details: Vec<&str> = count_spans
        .iter()
        .map(|s| s.detail.as_deref().expect("aggregation spans carry paths"))
        .collect();
    // The grouped count charges through the root; the part count charges
    // through the partition ledger, and the detail names which part.
    assert!(details.contains(&"root"), "details: {details:?}");
    assert!(
        details.iter().any(|d| d.contains("part[2]")),
        "details: {details:?}"
    );
    // The partition barrier itself was profiled too.
    assert!(spans.iter().any(|s| s.name == "partition"));
}

#[test]
fn plan_materialization_is_spanned_inside_its_barrier() {
    let _g = global_guard();
    let ((), spans, _) = profiled(|| {
        let (_, _, q) = dataset(10_000, 100.0);
        let chained = q.filter(|v| v % 2 == 0).map(|v| v * 3);
        // Streaming aggregations fuse into the plan without materializing…
        chained.noisy_count(0.1).unwrap();
        // …so the first key-shuffling barrier is what forces it.
        let keys = [0u64, 1, 2];
        chained.partition(&keys, |v| v % 3).unwrap();
    });
    let count = spans
        .iter()
        .find(|s| s.name == "noisy_count")
        .expect("aggregation span");
    let plan = spans
        .iter()
        .find(|s| s.name == "plan/materialize")
        .expect("plan span");
    let barrier = spans
        .iter()
        .find(|s| s.name == "partition")
        .expect("barrier span");
    // The fused count streamed off the chain: no materialization under it.
    assert_ne!(plan.parent, Some(count.id));
    // The plan forced at the partition barrier: parent/child on one track.
    assert_eq!(plan.parent, Some(barrier.id));
    assert_eq!(plan.track, barrier.track);
    assert!(barrier.dur_ns >= plan.dur_ns);
    assert_eq!(plan.detail.as_deref(), Some("sequential"));
}

/// `group_by` and `join` are barriers like `partition`: each opens its own
/// span, and the lazy plans it forces materialize under it, so their time
/// is not left outside every span.
#[test]
fn grouping_barriers_span_the_materializations_they_force() {
    let _g = global_guard();
    let ((), spans, _) = profiled(|| {
        let (_, _, q) = dataset(10_000, 100.0);
        q.filter(|v| v % 2 == 0).group_by(|v| v % 7);
        let left = q.filter(|v| v % 3 == 0);
        let right = q.filter(|v| v % 5 == 0).map(|v| v + 1);
        left.join(&right, |v| v % 11, |v| v % 11);
    });
    for (barrier, forced) in [("group_by", 1), ("join", 2)] {
        let span = spans
            .iter()
            .find(|s| s.name == barrier)
            .unwrap_or_else(|| panic!("no {barrier} span"));
        assert_eq!(span.detail.as_deref(), Some("root"));
        let plans: Vec<&CompletedSpan> = spans
            .iter()
            .filter(|s| s.name == "plan/materialize" && s.parent == Some(span.id))
            .collect();
        assert_eq!(plans.len(), forced, "plans forced under {barrier}");
        assert!(plans.iter().all(|p| p.track == span.track));
        assert!(span.dur_ns >= plans.iter().map(|p| p.dur_ns).sum::<u64>());
    }
}

#[test]
fn pool_runs_produce_worker_tracks_tasks_and_telemetry() {
    let _g = global_guard();
    let ((), spans, rec) = profiled(|| {
        let (_, _, q) = dataset(100_000, 100.0);
        let q = q.with_ctx(ExecCtx::pool(&ExecPool::new(4).unwrap()));
        q.noisy_sum_clamped(0.1, 10.0, |&v| v as f64).unwrap();
    });
    // The coordinating thread holds the run span under the aggregation.
    let run = spans.iter().find(|s| s.name == "exec/run").expect("run");
    let agg = spans.iter().find(|s| s.name == "noisy_sum").expect("agg");
    assert_eq!(run.parent, Some(agg.id));
    // Tasks ran on worker tracks, distinct from the coordinator's.
    let tasks: Vec<&CompletedSpan> = spans.iter().filter(|s| s.name == "exec/task").collect();
    assert!(!tasks.is_empty());
    assert!(tasks.iter().all(|t| t.track != run.track));
    let names = rec.track_names();
    assert!(
        names.values().any(|n| n.starts_with("worker-")),
        "worker tracks should be named: {names:?}"
    );
}

/// Spans are the one timer: every event that carries a duration takes it
/// from the span of the region it describes — an aggregation, the kernel
/// run inside a pooled aggregation, a plan materialization. Each event's
/// `at_ns` is its span's `start_ns`, and its `wall_ns` (read before the
/// span closes) fits inside the span's `dur_ns`.
#[test]
fn timed_events_take_their_timing_from_their_span() {
    let _g = global_guard();
    let (sink, spans, _) = profiled(|| {
        let (_, sink, q) = dataset(50_000, 100.0);
        q.noisy_count(0.1).unwrap();
        q.clone()
            .with_ctx(ExecCtx::pool(&ExecPool::new(2).unwrap()))
            .noisy_sum_clamped(0.1, 10.0, |&v| v as f64)
            .unwrap();
        q.filter(|v| v % 3 == 0).collect_protected();
        sink
    });
    let span_named = |name: &str| -> &CompletedSpan {
        let mut found = spans.iter().filter(|s| s.name == name);
        let span = found.next().unwrap_or_else(|| panic!("no {name} span"));
        assert!(found.next().is_none(), "one {name} span expected");
        span
    };
    let mut timed = Vec::new();
    for event in sink.events() {
        let (span, wall_ns, at_ns) = match &event {
            Event::Aggregate(a) => (span_named(a.operator), a.wall_ns, a.at_ns),
            Event::Exec(x) => (span_named(x.kernel), x.wall_ns, x.at_ns),
            Event::Plan(p) => (span_named("plan/materialize"), p.wall_ns, p.at_ns),
            _ => continue,
        };
        assert_eq!(at_ns, span.start_ns, "{event:?} vs {span:?}");
        assert!(
            wall_ns > 0 && wall_ns <= span.dur_ns,
            "{event:?} vs {span:?}"
        );
        timed.push(event.kind());
    }
    timed.sort_unstable();
    assert_eq!(timed, ["aggregate", "aggregate", "exec", "plan"]);
}

#[test]
fn unprofiled_runs_record_no_spans() {
    let _g = global_guard();
    let rec = Arc::new(TraceRecorder::new());
    {
        let (_, _, q) = dataset(10_000, 100.0);
        let q = q.with_ctx(ExecCtx::pool(&ExecPool::new(2).unwrap()));
        q.noisy_count(0.1).unwrap();
    }
    assert!(rec.is_empty());
    assert!(!dpnet_obs::profiling_enabled());
}

/// The privacy rule holds through the full pipeline: spans recorded from
/// real queries serialize without record-derived fields by default, even
/// though the engine attaches record counts to them internally.
#[test]
fn pipeline_spans_serialize_without_record_fields_by_default() {
    let _g = global_guard();
    let ((), spans, rec) = profiled(|| {
        let (_, _, q) = dataset(20_000, 100.0);
        let q = q.with_ctx(ExecCtx::pool(&ExecPool::new(2).unwrap()));
        q.filter(|v| v % 3 != 0)
            .noisy_median(0.1, 0.0, 20_000.0, 64, |&v| v as f64)
            .unwrap();
    });
    assert!(!spans.is_empty());
    let trace = dpnet_obs::chrome_trace_json(&spans, &rec.track_names());
    for json in spans.iter().map(|s| s.to_json()).chain([trace]) {
        if cfg!(feature = "trusted-owner") {
            continue;
        }
        assert!(!json.contains("records"), "leak: {json}");
        assert!(!json.contains("tasks"), "leak: {json}");
    }
}

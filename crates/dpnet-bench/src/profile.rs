//! Profiled experiment runs — the shared dispatcher behind the `repro`
//! binary and the `dpnet profile` command.
//!
//! [`run_experiment`] maps an experiment id to its implementation in
//! [`crate::experiments`]; [`run_profiled`] runs one experiment under an
//! installed [`TraceRecorder`], folds the captured spans into a
//! [`RunReport`] (per-operator time attribution in `BENCH_<id>-wN.json`),
//! and optionally writes a Chrome-trace/Perfetto JSON of the run.
//!
//! When an overhead ceiling is requested, the experiment runs once
//! untimed to warm the dataset caches, then three times *unprofiled* and
//! three times profiled on the same pool, alternately; the fastest
//! profiled run is compared against the fastest unprofiled one (see
//! [`best_of`]) — CI uses this to keep the profiler honest.

use crate::datasets;
use crate::experiments as exp;
use crate::report::RunReport;
use dpnet_obs::{
    install_recorder, set_global_sink, uninstall_recorder, write_chrome_trace_aggregated,
    AggregatedSpans, MemorySink, SpanMode, TraceRecorder,
};
use pinq::{ExecCtx, ExecPool};
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Every experiment id, in paper order.
pub const IDS: [&str; 18] = [
    "table1",
    "example23",
    "fig1",
    "table4",
    "itemsets",
    "fig2",
    "worm",
    "fig3",
    "table5",
    "fig4",
    "fig5",
    "table2",
    "rules",
    "connections",
    "principals",
    "ablation",
    "graphdist",
    "classify",
];

/// Run one experiment by id on `pool`, returning its printable output.
pub fn run_experiment(id: &str, pool: &ExecPool) -> Result<String, String> {
    match id {
        "table1" => Ok(exp::table1::run(3000).1),
        "example23" => Ok(exp::example23::run(400).1),
        "fig1" => exp::fig1::run(1.0, ExecCtx::pool(pool))
            .map(|(_, s)| s)
            .map_err(|e| e.to_string()),
        "table4" => Ok(exp::table4::run(10, 1.0).1),
        "itemsets" => Ok(exp::itemsets_exp::run(1.0, ExecCtx::pool(pool)).1),
        "fig2" => Ok(exp::fig2::run().1),
        "worm" => Ok(exp::worm_exp::run(datasets::hotspot(), ExecCtx::pool(pool)).1),
        "fig3" => Ok(exp::fig3::run().1),
        "table5" => Ok(exp::table5::run().1),
        "fig4" => Ok(exp::fig4::run().1),
        "fig5" => Ok(exp::fig5::run(10).1),
        "table2" => Ok(exp::table2::run().1),
        "rules" => Ok(exp::rules_exp::run().1),
        "connections" => Ok(exp::connections_exp::run().1),
        "principals" => Ok(exp::principals::run(400).1),
        "ablation" => Ok(exp::ablation::run().1),
        "graphdist" => Ok(exp::graphdist_exp::run().1),
        "classify" => Ok(exp::classify_exp::run().1),
        other => Err(format!("unknown experiment id '{other}'")),
    }
}

/// What [`run_profiled`] should do.
pub struct ProfileConfig {
    /// Experiment id (one of [`IDS`]).
    pub experiment: String,
    /// Worker count for the shared [`ExecPool`].
    pub workers: usize,
    /// Where `BENCH_<experiment>-w<workers>.json` is written.
    pub report_dir: PathBuf,
    /// Optional path for the Chrome-trace JSON of the profiled run.
    pub trace_out: Option<PathBuf>,
    /// When set, also time warm *unprofiled* runs and fail if the fastest
    /// profiled run is more than `(1 + ceiling)` times slower than the
    /// fastest unprofiled one.
    pub max_overhead: Option<f64>,
    /// How the recorder treats high-frequency aggregation spans:
    /// [`SpanMode::Full`] keeps every span; [`SpanMode::Aggregate`] folds
    /// them into count + total-ns rows per charge path (`--spans agg`),
    /// which keeps large partitioned runs from materializing millions of
    /// span records.
    pub span_mode: SpanMode,
}

/// Everything one profiled run produced.
pub struct ProfileOutcome {
    /// The experiment's own printable output.
    pub output: String,
    /// Rendered per-operator attribution table (empty if no spans).
    pub attribution: String,
    /// Path of the written `BENCH_*.json` report.
    pub report_path: PathBuf,
    /// Path of the written trace, when requested.
    pub trace_path: Option<PathBuf>,
    /// Wall time of the profiled run (the fastest one, when a baseline
    /// was timed).
    pub profiled_wall_ns: u64,
    /// Wall time of the fastest unprofiled baseline run, when any ran.
    pub baseline_wall_ns: Option<u64>,
    /// Number of individually recorded spans.
    pub spans: usize,
    /// Number of aggregate rows the recorder folded (aggregate mode only).
    pub aggregated: usize,
}

impl ProfileOutcome {
    /// Profiler overhead as a fraction of the unprofiled baseline
    /// (`0.03` = 3% slower), when a baseline run was made.
    pub fn overhead(&self) -> Option<f64> {
        self.baseline_wall_ns
            .map(|base| self.profiled_wall_ns as f64 / base.max(1) as f64 - 1.0)
    }
}

/// Wall time of `f` in ns (at least 1), and its result.
fn timed<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let start = Instant::now();
    let out = f();
    ((start.elapsed().as_nanos() as u64).max(1), out)
}

/// Run `a` and `b` alternately, `rounds` times each, and return each
/// side's fastest run: its wall time in ns (at least 1) and its result.
/// Alternating makes drift in machine state (frequency, cache, other
/// load) hit both sides alike, and the minimum discards runs that an
/// outside interruption slowed.
///
/// # Panics
/// Panics if `rounds` is zero.
pub fn best_of<A, B>(
    rounds: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> ((u64, A), (u64, B)) {
    fn keep_faster<R>(best: &mut Option<(u64, R)>, run: (u64, R)) {
        if best.as_ref().map_or(true, |(ns, _)| run.0 < *ns) {
            *best = Some(run);
        }
    }
    assert!(rounds > 0, "best_of needs at least one round");
    let (mut best_a, mut best_b) = (None, None);
    for _ in 0..rounds {
        keep_faster(&mut best_a, timed(&mut a));
        keep_faster(&mut best_b, timed(&mut b));
    }
    (
        best_a.expect("one round ran"),
        best_b.expect("one round ran"),
    )
}

/// What one profiled run captured.
struct ProfiledRun {
    output: String,
    events: Vec<dpnet_obs::Event>,
    spans: Vec<dpnet_obs::CompletedSpan>,
    aggs: Vec<AggregatedSpans>,
    recorder: Arc<TraceRecorder>,
}

/// Run `cfg.experiment` with the span profiler installed, write the
/// attribution-bearing report (and optionally a Chrome trace), and check
/// the overhead ceiling if one was requested.
pub fn run_profiled(cfg: &ProfileConfig) -> Result<ProfileOutcome, String> {
    let pool = ExecPool::new(cfg.workers).map_err(|e| e.to_string())?;
    let unprofiled = || run_experiment(&cfg.experiment, &pool);
    let profiled = || {
        let sink = Arc::new(MemorySink::new());
        set_global_sink(Some(sink.clone()));
        let recorder = Arc::new(TraceRecorder::with_mode(cfg.span_mode));
        install_recorder(recorder.clone());
        let result = run_experiment(&cfg.experiment, &pool);
        uninstall_recorder();
        set_global_sink(None);
        result.map(|output| ProfiledRun {
            output,
            events: sink.drain(),
            spans: recorder.take(),
            aggs: recorder.take_aggregated(),
            recorder,
        })
    };

    // With a ceiling, both sides run warm: one untimed run generates the
    // cached datasets first, so neither side pays for it. Unprofiled runs
    // cost one relaxed atomic load per span.
    let (baseline_wall_ns, (profiled_wall_ns, run)) = match cfg.max_overhead {
        Some(_) => {
            unprofiled()?;
            let ((base_ns, base), best) = best_of(3, unprofiled, profiled);
            base?;
            (Some(base_ns), best)
        }
        None => (None, timed(profiled)),
    };
    let run = run?;

    let mut report = RunReport::new(&format!("{}-w{}", cfg.experiment, cfg.workers));
    report.set_workers(cfg.workers);
    report.record_with_profile(
        &cfg.experiment,
        profiled_wall_ns,
        &run.events,
        &run.spans,
        &run.aggs,
    );
    let attribution = report.render_attribution_report();
    let report_path = report
        .write_json(&cfg.report_dir)
        .map_err(|e| format!("could not write run report: {e}"))?;

    let trace_path = match &cfg.trace_out {
        Some(path) => {
            write_trace(path, &run.spans, &run.aggs, &run.recorder)?;
            Some(path.clone())
        }
        None => None,
    };

    let outcome = ProfileOutcome {
        output: run.output,
        attribution,
        report_path,
        trace_path,
        profiled_wall_ns,
        baseline_wall_ns,
        spans: run.spans.len(),
        aggregated: run.aggs.len(),
    };
    if let (Some(ceiling), Some(overhead)) = (cfg.max_overhead, outcome.overhead()) {
        if overhead > ceiling {
            return Err(format!(
                "profiler overhead {:.1}% exceeds the {:.1}% ceiling \
                 (unprofiled {} ns, profiled {} ns)",
                overhead * 100.0,
                ceiling * 100.0,
                outcome.baseline_wall_ns.unwrap_or(0),
                outcome.profiled_wall_ns,
            ));
        }
    }
    Ok(outcome)
}

fn write_trace(
    path: &Path,
    spans: &[dpnet_obs::CompletedSpan],
    aggs: &[AggregatedSpans],
    rec: &TraceRecorder,
) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let file = std::fs::File::create(path)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    write_chrome_trace_aggregated(BufWriter::new(file), spans, &rec.track_names(), &[], aggs)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_global_guard as global_guard;

    #[test]
    fn best_of_alternates_and_keeps_each_sides_fastest_run() {
        let order = std::cell::RefCell::new(String::new());
        let side = |name: char, sleeps_ms: [u64; 3]| {
            let order = &order;
            let mut round = 0;
            move || {
                order.borrow_mut().push(name);
                std::thread::sleep(std::time::Duration::from_millis(sleeps_ms[round]));
                round += 1;
                round
            }
        };
        let ((a_ns, a), (b_ns, b)) = best_of(3, side('a', [120, 1, 60]), side('b', [1, 120, 60]));
        assert_eq!(order.into_inner(), "ababab");
        assert_eq!((a, b), (2, 1), "each side keeps its fastest round's result");
        assert!((1_000_000..60_000_000).contains(&a_ns), "{a_ns}");
        assert!((1_000_000..60_000_000).contains(&b_ns), "{b_ns}");
    }

    #[test]
    fn unknown_ids_are_rejected() {
        let pool = ExecPool::sequential();
        assert!(run_experiment("nope", &pool).is_err());
    }

    #[test]
    fn profiled_run_writes_report_with_attribution_and_trace() {
        let _g = global_guard();
        let dir = std::env::temp_dir().join("dpnet-profile-test");
        let cfg = ProfileConfig {
            experiment: "example23".to_string(),
            workers: 1,
            report_dir: dir.clone(),
            trace_out: Some(dir.join("trace.json")),
            max_overhead: None,
            span_mode: SpanMode::Full,
        };
        let out = run_profiled(&cfg).expect("profiled run");
        assert!(out.spans > 0, "experiment should record spans");
        assert_eq!(out.aggregated, 0, "full mode folds nothing");
        assert!(!out.attribution.is_empty());
        let report = std::fs::read_to_string(&out.report_path).unwrap();
        assert!(report.contains("\"target\":\"example23-w1\""));
        assert!(report.contains("\"attribution\":[{\"name\":"));
        let trace = std::fs::read_to_string(out.trace_path.as_ref().unwrap()).unwrap();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"ph\":\"X\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn aggregate_mode_folds_aggregation_spans_and_still_exports_a_trace() {
        let _g = global_guard();
        let dir = std::env::temp_dir().join("dpnet-profile-agg-test");
        let run = |span_mode| {
            let cfg = ProfileConfig {
                experiment: "fig1".to_string(),
                workers: 1,
                report_dir: dir.clone(),
                trace_out: Some(dir.join(format!("trace-{span_mode:?}.json"))),
                max_overhead: None,
                span_mode,
            };
            run_profiled(&cfg).expect("profiled run")
        };
        let full = run(SpanMode::Full);
        let agg = run(SpanMode::Aggregate);
        assert!(agg.aggregated > 0, "fig1 charges through aggregation spans");
        assert!(
            agg.spans < full.spans,
            "aggregate mode must store fewer individual spans ({} vs {})",
            agg.spans,
            full.spans
        );
        // The attribution table still names the folded operators.
        assert!(agg.attribution.contains("noisy_count"));
        // The trace stays loadable and gains the dedicated aggregate lane.
        let trace = std::fs::read_to_string(agg.trace_path.as_ref().unwrap()).unwrap();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("aggregated spans"));
        assert!(trace.contains("\"cat\":\"dpnet-agg\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}

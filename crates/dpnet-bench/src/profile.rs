//! Observed experiment runs — the shared dispatcher behind `repro`,
//! `bench_guard record`, `dpnet profile` and `dpnet explain`.
//!
//! [`run_experiment`] maps an experiment id to its implementation in
//! [`crate::experiments`]. [`run_observed`] is the one way to run an
//! experiment under observers: it binds a [`MemorySink`], optionally
//! installs the span and explain recorders, times the run, uninstalls
//! everything and hands back what was captured. [`run_profiled`] folds
//! such a run into a [`RunReport`] (per-operator time attribution in
//! `BENCH_<id>-wN.json`) and optionally writes a Chrome-trace/Perfetto
//! JSON of the run.
//!
//! When an overhead ceiling is requested, the experiment runs once
//! untimed to warm the dataset caches, then three times *unprofiled* and
//! three times profiled on the same pool, alternately; the fastest
//! profiled run is compared against the fastest unprofiled one (see
//! [`best_of`]) — CI uses this to keep the profiler honest.

use crate::datasets;
use crate::experiments::{self as exp, Results};
use crate::report::RunReport;
use dpnet_obs::span::current_track;
use dpnet_obs::{
    install_recorder, set_global_sink, uninstall_recorder, write_chrome_trace, CompletedSpan,
    CounterSample, Event, MemorySink, TraceRecorder,
};
use pinq::{
    install_explain_recorder, uninstall_explain_recorder, ExecPool, ExplainRecorder, ExplainReport,
};
use std::collections::BTreeMap;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

type Runner = fn(&ExecPool, &mut Results) -> Result<String, String>;

/// Every experiment, in paper order, with its runner: [`IDS`], `repro`'s
/// usage text and [`run_experiment`]'s id check derive from this table.
const EXPERIMENTS: [(&str, Runner); 18] = [
    ("table1", |_, _| Ok(exp::table1::run(3000).1)),
    ("example23", |_, _| Ok(exp::example23::run(400).1)),
    ("fig1", |p, _| {
        Ok(exp::fig1::run(1.0, p).map_err(|e| e.to_string())?.1)
    }),
    ("table4", |_, _| Ok(exp::table4::run(10, 1.0).1)),
    ("itemsets", |p, _| Ok(exp::itemsets_exp::run(1.0, p).1)),
    ("fig2", |_, r| keep(exp::fig2::run(), &mut r.fig2)),
    ("worm", |p, r| {
        keep(exp::worm_exp::run(datasets::hotspot(), p), &mut r.worm)
    }),
    ("fig3", |_, r| keep(exp::fig3::run(), &mut r.fig3)),
    ("table5", |_, r| keep(exp::table5::run(), &mut r.table5)),
    ("fig4", |_, _| Ok(exp::fig4::run().1)),
    ("fig5", |_, r| {
        keep(exp::fig5::run(exp::fig5::ITERATIONS), &mut r.fig5)
    }),
    ("table2", |p, r| Ok(exp::table2::run(r, p).1)),
    ("rules", |_, _| Ok(exp::rules_exp::run().1)),
    ("connections", |_, _| Ok(exp::connections_exp::run().1)),
    ("principals", |_, _| Ok(exp::principals::run(400).1)),
    ("ablation", |_, _| Ok(exp::ablation::run().1)),
    ("graphdist", |_, _| Ok(exp::graphdist_exp::run().1)),
    ("classify", |_, _| Ok(exp::classify_exp::run().1)),
];

/// Store `result` in `slot` and pass the printable output on.
fn keep<T>((result, out): (T, String), slot: &mut Option<T>) -> Result<String, String> {
    *slot = Some(result);
    Ok(out)
}

/// Every experiment id, in paper order.
pub const IDS: [&str; EXPERIMENTS.len()] = {
    let mut ids = [""; EXPERIMENTS.len()];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = EXPERIMENTS[i].0;
        i += 1;
    }
    ids
};

/// Run one experiment by id on `pool`, returning its printable output. The
/// experiments that Table 2 summarizes keep their typed results in
/// `results`, which `table2` reads. An unknown id's error lists the ids.
pub fn run_experiment(id: &str, pool: &ExecPool, results: &mut Results) -> Result<String, String> {
    let (_, run) = EXPERIMENTS
        .iter()
        .find(|(known, _)| *known == id)
        .ok_or_else(|| format!("unknown experiment '{id}' (one of: {})", IDS.join(" ")))?;
    run(pool, results)
}

/// What one [`run_observed`] call captured.
pub struct ObservedRun {
    /// The experiment's own printable output.
    pub output: String,
    /// Wall time of the experiment, ns (at least 1).
    pub wall_ns: u64,
    /// Every event the run emitted.
    pub events: Vec<Event>,
    /// Completed spans; empty unless the span recorder was installed.
    pub spans: Vec<CompletedSpan>,
    /// Display names of the spans' tracks.
    pub track_names: BTreeMap<u64, Arc<str>>,
    /// Wall time outside the root spans of the calling thread's track, ns;
    /// `None` when no span was recorded.
    pub unattributed_ns: Option<u64>,
    /// The folded charge predictions, titled with the experiment id; `None`
    /// unless the explain recorder was installed.
    pub explain: Option<ExplainReport>,
}

/// Run experiment `id` on `pool` under observers: a fresh [`MemorySink`]
/// bound as the global event sink, plus a [`TraceRecorder`] when `spans`
/// and an [`ExplainRecorder`] when `explain`. Everything is uninstalled
/// before this returns, whether or not the experiment succeeded.
/// `results` is the caller's store (see [`run_experiment`]); a caller that
/// times runs passes a fresh one to each, so every run computes everything.
pub fn run_observed(
    id: &str,
    pool: &ExecPool,
    results: &mut Results,
    spans: bool,
    explain: bool,
) -> Result<ObservedRun, String> {
    let sink = Arc::new(MemorySink::new());
    set_global_sink(Some(sink.clone()));
    let tracer = spans.then(|| {
        let rec = Arc::new(TraceRecorder::new());
        install_recorder(rec.clone());
        rec
    });
    let explainer = explain.then(|| {
        let rec = Arc::new(ExplainRecorder::new());
        install_explain_recorder(rec.clone());
        rec
    });
    let (wall_ns, result) = timed(|| run_experiment(id, pool, results));
    if tracer.is_some() {
        uninstall_recorder();
    }
    if explainer.is_some() {
        uninstall_explain_recorder();
    }
    set_global_sink(None);
    let output = result?;

    let (spans, track_names) =
        tracer.map_or_else(Default::default, |rec| (rec.take(), rec.track_names()));
    Ok(ObservedRun {
        output,
        wall_ns,
        events: sink.drain(),
        unattributed_ns: unattributed_ns(wall_ns, &spans, current_track()),
        spans,
        track_names,
        explain: explainer.map(|rec| {
            let mut report = rec.report();
            report.title = id.to_string();
            report
        }),
    })
}

/// `wall_ns` minus the summed durations of the root spans (no parent) on
/// `track`, saturating at 0; `None` when `spans` is empty. Only one track
/// counts: worker tracks run alongside the caller's, so their spans
/// overlap its wall time.
fn unattributed_ns(wall_ns: u64, spans: &[CompletedSpan], track: u64) -> Option<u64> {
    if spans.is_empty() {
        return None;
    }
    let rooted: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.track == track)
        .map(|s| s.dur_ns)
        .sum();
    Some(wall_ns.saturating_sub(rooted))
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
    /// Number of recorded spans.
    pub spans: usize,
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

/// Run `cfg.experiment` with the span profiler installed, write the
/// attribution-bearing report (and optionally a Chrome trace), and check
/// the overhead ceiling if one was requested.
pub fn run_profiled(cfg: &ProfileConfig) -> Result<ProfileOutcome, String> {
    let pool = ExecPool::new(cfg.workers).map_err(|e| e.to_string())?;
    let unprofiled = || run_experiment(&cfg.experiment, &pool, &mut Results::default());
    let profiled = || run_observed(&cfg.experiment, &pool, &mut Results::default(), true, false);

    // With a ceiling, both sides run warm: one untimed run generates the
    // cached datasets first, so neither side pays for it. Unprofiled runs
    // cost one relaxed atomic load per span.
    let (baseline_wall_ns, run) = match cfg.max_overhead {
        Some(_) => {
            unprofiled()?;
            let ((base_ns, base), (_, best)) = best_of(3, unprofiled, profiled);
            base?;
            (Some(base_ns), best?)
        }
        None => (None, profiled()?),
    };

    let mut report = RunReport::new(&format!("{}-w{}", cfg.experiment, cfg.workers));
    report.set_workers(cfg.workers);
    report
        .record(&cfg.experiment, run.wall_ns, &run.events, &run.spans)
        .unattributed_ns = run.unattributed_ns;
    let attribution = report.render_attribution_report();
    let report_path = report
        .write_json(&cfg.report_dir)
        .map_err(|e| format!("could not write run report: {e}"))?;

    let trace_path = match &cfg.trace_out {
        Some(path) => {
            write_trace(path, &run.spans, &run.track_names, &[])?;
            Some(path.clone())
        }
        None => None,
    };

    let outcome = ProfileOutcome {
        output: run.output,
        attribution,
        report_path,
        trace_path,
        profiled_wall_ns: run.wall_ns,
        baseline_wall_ns,
        spans: run.spans.len(),
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

/// Write `spans` and `counters` as a Chrome trace at `path`, creating its
/// directory if needed.
pub(crate) fn write_trace(
    path: &Path,
    spans: &[CompletedSpan],
    track_names: &BTreeMap<u64, Arc<str>>,
    counters: &[CounterSample],
) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let file = std::fs::File::create(path)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    write_chrome_trace(BufWriter::new(file), spans, track_names, counters)
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
    fn unattributed_time_counts_only_the_calling_tracks_root_spans() {
        let span = |id: u64, parent: Option<u64>, track: u64, dur_ns: u64| CompletedSpan {
            id,
            parent,
            name: "op",
            detail: None,
            track,
            start_ns: 0,
            dur_ns,
            child_ns: 0,
            #[cfg(feature = "trusted-owner")]
            records: 0,
        };
        let spans = [
            // Calling track 1: two roots (100 + 50 ns) and a nested child.
            span(1, None, 1, 100),
            span(2, Some(1), 1, 60),
            span(3, None, 1, 50),
            // Worker track 2: its root overlaps track 1 and is not counted.
            span(4, None, 2, 500),
        ];
        assert_eq!(unattributed_ns(300, &spans, 1), Some(150));
        assert_eq!(unattributed_ns(120, &spans, 1), Some(0), "saturates");
        assert_eq!(unattributed_ns(300, &spans, 2), Some(0));
        assert_eq!(unattributed_ns(300, &[], 1), None);
    }

    #[test]
    fn unknown_ids_are_rejected() {
        let pool = ExecPool::sequential();
        assert!(run_experiment("nope", &pool, &mut Results::default()).is_err());
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
        };
        let out = run_profiled(&cfg).expect("profiled run");
        assert!(out.spans > 0, "experiment should record spans");
        assert!(!out.attribution.is_empty());
        let report = std::fs::read_to_string(&out.report_path).unwrap();
        assert!(report.contains("\"target\":\"example23-w1\""));
        assert!(report.contains("\"attribution\":[{\"name\":"));
        let trace = std::fs::read_to_string(out.trace_path.as_ref().unwrap()).unwrap();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"ph\":\"X\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}

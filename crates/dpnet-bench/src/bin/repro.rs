//! `repro` — regenerate the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro all                 # every experiment, in paper order
//! repro <id> [<id> ...]     # one or more of:
//!       table1 example23 fig1 table4 itemsets fig2 worm fig3
//!       table5 fig4 fig5 table2
//! repro --workers N <id>…   # run fig1, itemsets and worm on N workers
//! repro --profile <id>…     # record spans; adds per-operator attribution
//! repro --explain <id>…     # also write bench-reports/EXPLAIN_<id>.txt
//! ```
//!
//! An unknown id fails the whole run before anything executes: exit 2,
//! the id list on stderr, and no report written.
//!
//! With `--workers N` (N ≥ 1), the experiments that take an execution
//! context (`fig1`, `itemsets`, `worm`) run on a shared [`pinq::ExecPool`]
//! bound as their [`pinq::ExecCtx`]; the rest run on the calling thread.
//! Output is deterministic: for a fixed seed, any two worker counts
//! produce identical results. The report target gains a
//! `-wN` suffix when N > 1, so `BENCH_fig1.json` and `BENCH_fig1-w4.json`
//! can be compared side by side.
//!
//! A [`MemorySink`] is installed as the process-global event sink for the
//! whole run, so every engine charge and toolkit phase is captured. After
//! the experiment output, `repro` prints a per-phase ε/latency budget
//! report and writes `bench-reports/BENCH_<target>.json` with the same
//! data in machine-readable form.
//!
//! With `--profile`, a [`dpnet_obs::TraceRecorder`] is installed too: every
//! operator span is captured, the report gains per-operator time
//! attribution, and an attribution table is printed after the budget
//! report. (For single-experiment profiled runs with a Chrome trace, use
//! `dpnet profile` instead.)
//!
//! With `--explain`, a [`pinq::ExplainRecorder`] is installed as well:
//! every aggregation's charge-path predictions are folded per experiment
//! and written to `bench-reports/EXPLAIN_<id>.txt` — the committed
//! `EXPLAIN_fig1.txt` / `EXPLAIN_worm.txt` artifacts come from this flag.
//! (For a single experiment with the measured overlay or the DOT/JSON
//! forms, use `dpnet explain` instead.)

use dpnet_bench::profile::{run_experiment, IDS};
use dpnet_bench::report::RunReport;
use dpnet_obs::{install_recorder, set_global_sink, uninstall_recorder, MemorySink, TraceRecorder};
use pinq::{install_explain_recorder, uninstall_explain_recorder, ExecPool, ExplainRecorder};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Split `--workers N` / `--workers=N` / `--profile` / `--explain` out of
/// the raw argument list, returning the worker count, the two flags, and
/// the remaining (non-flag) arguments.
fn parse_flags(raw: Vec<String>) -> Result<(usize, bool, bool, Vec<String>), String> {
    let mut workers = 1usize;
    let mut profile = false;
    let mut explain = false;
    let mut rest = Vec::new();
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--workers" {
            let val = it.next().ok_or("--workers requires a value")?;
            workers = val
                .parse()
                .map_err(|_| format!("invalid --workers value '{val}'"))?;
        } else if let Some(val) = arg.strip_prefix("--workers=") {
            workers = val
                .parse()
                .map_err(|_| format!("invalid --workers value '{val}'"))?;
        } else if arg == "--profile" {
            profile = true;
        } else if arg == "--explain" {
            explain = true;
        } else {
            rest.push(arg);
        }
    }
    Ok((workers, profile, explain, rest))
}

/// Write one experiment's explain tree to `bench-reports/EXPLAIN_<id>.txt`.
fn write_explain(id: &str, recorder: &ExplainRecorder) -> Result<std::path::PathBuf, String> {
    let mut report = recorder.report();
    report.title = id.to_string();
    let dir = Path::new("bench-reports");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("EXPLAIN_{id}.txt"));
    std::fs::write(&path, report.render_text(None))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (workers, profile, explain, args) = match parse_flags(raw) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        eprintln!(
            "usage: repro [--workers N] [--profile] [--explain] all | <id> [<id> ...]\nids: {}",
            IDS.join(" ")
        );
        std::process::exit(2);
    }
    // Reject unknown ids before anything runs, so a typo writes no report.
    let unknown: Vec<&str> = args
        .iter()
        .map(|s| s.as_str())
        .filter(|a| *a != "all" && !IDS.contains(a))
        .collect();
    if !unknown.is_empty() {
        eprintln!(
            "unknown experiment id(s): {}\nids: {}",
            unknown.join(" "),
            IDS.join(" ")
        );
        std::process::exit(2);
    }
    let pool = match ExecPool::new(workers) {
        Ok(pool) => pool,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let all = args.iter().any(|a| a == "all");
    let ids: Vec<&str> = if all {
        IDS.to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    // Observe the whole run: toolkit phases and engine charges land here.
    let sink = Arc::new(MemorySink::new());
    set_global_sink(Some(sink.clone()));
    let recorder = profile.then(|| {
        let rec = Arc::new(TraceRecorder::new());
        install_recorder(rec.clone());
        rec
    });
    let explainer = explain.then(|| {
        let rec = Arc::new(ExplainRecorder::new());
        install_explain_recorder(rec.clone());
        rec
    });
    let mut target = if all {
        "all".to_string()
    } else {
        ids.join("-")
    };
    if workers > 1 {
        target.push_str(&format!("-w{workers}"));
    }
    let mut report = RunReport::new(&target);
    report.set_workers(workers);

    let mut failed = false;
    for id in ids {
        sink.clear();
        if let Some(rec) = &recorder {
            rec.clear();
        }
        if let Some(rec) = &explainer {
            rec.clear();
        }
        let start = Instant::now();
        match run_experiment(id, &pool) {
            Ok(text) => {
                let wall = start.elapsed();
                println!("{text}");
                println!("[{id} completed in {wall:.1?}]");
                let spans = recorder.as_ref().map(|r| r.take()).unwrap_or_default();
                report.record_with_spans(id, wall.as_nanos() as u64, &sink.drain(), &spans);
                if let Some(rec) = &explainer {
                    match write_explain(id, rec) {
                        Ok(path) => println!("explain report: {}", path.display()),
                        Err(e) => {
                            eprintln!("could not write explain report for {id}: {e}");
                            failed = true;
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("experiment {id} failed: {e}");
                failed = true;
            }
        }
    }
    if recorder.is_some() {
        uninstall_recorder();
    }
    if explainer.is_some() {
        uninstall_explain_recorder();
    }
    set_global_sink(None);

    println!("{}", report.render_budget_report());
    let attribution = report.render_attribution_report();
    if !attribution.is_empty() {
        println!("{attribution}");
    }
    match report.write_json(Path::new("bench-reports")) {
        Ok(path) => println!("run report: {}", path.display()),
        Err(e) => eprintln!("could not write run report: {e}"),
    }
    if failed {
        std::process::exit(1);
    }
}

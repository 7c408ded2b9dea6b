//! `repro` — regenerate the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro all                 # every experiment, in paper order
//! repro <id> [<id> ...]     # one or more ids (`repro --help` lists them)
//! repro --workers N <id>…   # run fig1, itemsets and worm on N workers
//! repro --profile <id>…     # record spans; adds per-operator attribution
//! ```
//!
//! An unknown id or flag fails the whole run before anything executes:
//! exit 2, with the id list or the flag on stderr, and no report written.
//!
//! With `--workers N` (N ≥ 1), the experiments that take a pool (`fig1`,
//! `itemsets`, `worm`, and `table2` when it runs `worm` itself) run on a
//! shared N-worker [`pinq::ExecPool`]; the rest run on the calling thread.
//! Output is deterministic: for a fixed seed, any two worker counts
//! produce identical results. The report target gains a
//! `-wN` suffix when N > 1, so `BENCH_fig1.json` and `BENCH_fig1-w4.json`
//! can be compared side by side.
//!
//! Each experiment runs through [`run_observed`], which binds a memory
//! event sink, so every engine charge and toolkit phase is captured. One
//! [`Results`] store serves the whole run, so `table2` reads the results of
//! the experiments that ran before it and runs only the rest. After
//! the experiment output, `repro` prints a per-phase ε/latency budget
//! report and writes `bench-reports/BENCH_<target>.json` with the same
//! data in machine-readable form.
//!
//! With `--profile`, the span recorder is installed too: every operator
//! span is captured, the report gains per-operator time attribution and
//! each experiment's unattributed time, and an attribution table is
//! printed after the budget report. (For single-experiment profiled runs
//! with a Chrome trace, use `dpnet profile`; for an experiment's predicted
//! ε per charge path, `dpnet explain <id>`.)

use dpnet_bench::experiments::Results;
use dpnet_bench::profile::{run_observed, IDS};
use dpnet_bench::report::RunReport;
use pinq::ExecPool;
use std::path::Path;
use std::time::Duration;

/// Split `--workers N` / `--workers=N` / `--profile` out of the raw
/// argument list, returning the worker count, the profile flag, and the
/// remaining (non-flag) arguments. Any other `--` flag but `--help` is an
/// error.
fn parse_flags(raw: Vec<String>) -> Result<(usize, bool, Vec<String>), String> {
    let mut workers = 1usize;
    let mut profile = false;
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
        } else if arg.starts_with("--") && arg != "--help" {
            return Err(format!("unknown flag {arg}"));
        } else {
            rest.push(arg);
        }
    }
    Ok((workers, profile, rest))
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (workers, profile, args) = match parse_flags(raw) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        eprintln!(
            "usage: repro [--workers N] [--profile] all | <id> [<id> ...]\nids: {}",
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

    let mut results = Results::default();
    let mut failed = false;
    for id in ids {
        match run_observed(id, &pool, &mut results, profile, false) {
            Ok(run) => {
                println!("{}", run.output);
                println!(
                    "[{id} completed in {:.1?}]",
                    Duration::from_nanos(run.wall_ns)
                );
                report
                    .record(id, run.wall_ns, &run.events, &run.spans)
                    .unattributed_ns = run.unattributed_ns;
            }
            Err(e) => {
                eprintln!("experiment {id} failed: {e}");
                failed = true;
            }
        }
    }

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

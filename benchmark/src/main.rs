//! `dpbench`: the repository benchmark.
//!
//! ```text
//! dpbench --workload W --seed N [--seconds S] [--trace 0|1]
//! dpbench all --seed N [--seconds S] [--trace 0|1] [--out FILE]
//! dpbench repeat --runs R --seed N [--seconds S] [--trace 0|1] [--out FILE]
//! ```
//!
//! The first form runs one workload in this process and prints one
//! `workload metric value unit` line per metric, then one JSON result line.
//! `all` runs every workload in a child process of its own, so set-up time
//! and peak memory are per workload; `repeat` runs `all` R times at seed N
//! and prints each metric's median, quartiles and relative interquartile
//! range. See README.md for the workloads and metrics.

mod batch;
mod harness;
mod layers;
mod metrics;
mod serve;
mod stats;

use dpnet_obs::json::{escape, number, parse_value, JsonValue};
use harness::{Outcome, RunOpts, WorkDir};
use metrics::{declared, Workload};
use std::collections::{BTreeMap, BTreeSet};
use std::process::{Command, ExitCode, Stdio};

/// Measured seconds per run unless `--seconds` says otherwise; the
/// `run_seconds` of BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "usage:
  dpbench --workload W --seed N [--seconds S] [--trace 0|1]
  dpbench all --seed N [--seconds S] [--trace 0|1] [--out FILE]
  dpbench repeat --runs R --seed N [--seconds S] [--trace 0|1] [--out FILE]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("all") => cmd_all(&args[1..]),
        Some("repeat") => cmd_repeat(&args[1..]),
        _ => cmd_run(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("dpbench: {e}");
        ExitCode::from(2)
    })
}

/// `--key value` pairs.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .filter(|k| allowed.contains(k))
                .ok_or_else(|| format!("unexpected argument {arg:?}\n{USAGE}"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Flags(map))
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: Option<T>) -> Result<T, String> {
        match self.0.get(key) {
            Some(v) => v.parse().map_err(|_| format!("bad --{key} {v:?}")),
            None => default.ok_or_else(|| format!("--{key} is required\n{USAGE}")),
        }
    }

    fn run_opts(&self) -> Result<RunOpts, String> {
        let seconds: f64 = self.get("seconds", Some(DEFAULT_SECONDS))?;
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(format!("--seconds must be positive, got {seconds}"));
        }
        let traced = match self.get::<String>("trace", Some("0".to_string()))?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        };
        Ok(RunOpts {
            seed: self.get("seed", None)?,
            seconds,
            traced,
        })
    }
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace"])?;
    let name: String = flags.get("workload", None)?;
    let known = &declared().workloads;
    let workload = Workload::parse(&name)
        .filter(|_| known.contains(&name))
        .ok_or_else(|| format!("unknown workload {name:?}; known: {}", known.join(", ")))?;
    let opts = flags.run_opts()?;
    let workdir = WorkDir::new()?;
    let outcome = match workload {
        Workload::ServeSteady | Workload::ServeChurn | Workload::ServeMixed => {
            serve::run(workload, &opts, workdir.path())
        }
        Workload::BatchRetx | Workload::BatchWorm => batch::run(workload, &opts),
    }
    .map_err(|e| format!("{name}: {e}"))?;
    drop(workdir);

    let result = result_json(&outcome, opts.traced).map_err(|e| format!("{name}: {e}"))?;
    for m in declared().metrics(opts.traced) {
        let value = number(outcome.metrics[m.name.as_str()]);
        println!("{name} {} {value} {}", m.name, m.unit);
    }
    // Latency percentiles are for reading and are not gated, so they go to
    // stderr: the host's speed flips between two levels, and a percentile
    // jumps between them where throughput, a mean, moves smoothly.
    let sorted = outcome.measured.sorted_ns();
    let tail = stats::tail_percentile(sorted.len()).filter(|&p| p > 50.0);
    let latencies: Vec<String> = std::iter::once(50.0)
        .chain(tail)
        .map(|p| {
            let ms = harness::ms(stats::percentile(&sorted, p));
            format!("p{p} {} ms", number(ms))
        })
        .collect();
    eprintln!(
        "dpbench: {name}: {} operations completed; latency {}",
        outcome.measured.completed(),
        latencies.join(", ")
    );
    println!("{result}");
    for check in &outcome.failed_checks {
        eprintln!("dpbench: {name}: check failed: {check}");
    }
    Ok(if outcome.failed_checks.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// The result line: `correct`, `attempted`, `failed` and every declared
/// metric with its unit. Fails unless the run measured exactly the
/// declared metrics.
fn result_json(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let declared = declared().metrics(traced);
    let names: BTreeSet<&str> = declared.iter().map(|m| m.name.as_str()).collect();
    let measured: BTreeSet<&str> = outcome.metrics.keys().copied().collect();
    if names != measured {
        return Err(format!(
            "undeclared metrics {:?}, unmeasured metrics {:?}",
            measured.difference(&names).collect::<Vec<_>>(),
            names.difference(&measured).collect::<Vec<_>>()
        ));
    }
    let metrics: Vec<String> = declared
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                escape(&m.name),
                number(outcome.metrics[m.name.as_str()]),
                escape(&m.unit)
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed_checks.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    ))
}

/// Result lines of one `all` pass, by workload name, and what went wrong.
struct AllPass {
    results: Vec<(&'static str, String)>,
    failures: Vec<String>,
}

/// Run every declared workload in a child process of its own.
fn run_all(opts: &RunOpts, echo: bool) -> Result<AllPass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let mut pass = AllPass {
        results: Vec::new(),
        failures: Vec::new(),
    };
    for w in &declared().workloads {
        let out = Command::new(&exe)
            .args(["--workload", w])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &number(opts.seconds)])
            .args(["--trace", if opts.traced { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running {w}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().filter(|l| parse_value(l).is_some());
        if echo {
            lines.iter().for_each(|l| println!("{l}"));
        }
        if !out.status.success() {
            pass.failures.push(format!(
                "{w} (seed {}) exited with {}",
                opts.seed, out.status
            ));
        }
        match last {
            Some(line) => pass.results.push((w.as_str(), line.to_string())),
            None => pass
                .failures
                .push(format!("{w} (seed {}) printed no result", opts.seed)),
        }
    }
    Ok(pass)
}

/// Where and on what the results were measured.
fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let sha = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"git_sha\":{}}}",
        escape(&cpu),
        escape(&sha)
    )
}

fn write_out(flags: &Flags, json: &str) -> Result<(), String> {
    if let Some(path) = flags.0.get("out") {
        std::fs::write(path, format!("{json}\n")).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(())
}

fn report_failures(failures: &[String]) -> ExitCode {
    for f in failures {
        eprintln!("dpbench: {f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn cmd_all(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["seed", "seconds", "trace", "out"])?;
    let opts = flags.run_opts()?;
    let pass = run_all(&opts, true)?;
    let results: Vec<String> = pass
        .results
        .iter()
        .map(|(w, line)| format!("{}:{line}", escape(w)))
        .collect();
    write_out(
        &flags,
        &format!(
            "{{\"seed\":{},\"seconds\":{},\"traced\":{},\"host\":{},\"workloads\":{{{}}}}}",
            opts.seed,
            number(opts.seconds),
            opts.traced,
            host_json(),
            results.join(",")
        ),
    )?;
    Ok(report_failures(&pass.failures))
}

fn cmd_repeat(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["runs", "seed", "seconds", "trace", "out"])?;
    let opts = flags.run_opts()?;
    let runs: u64 = flags.get("runs", None)?;
    if runs < 2 {
        return Err("--runs must be at least 2".to_string());
    }
    let metrics = declared().metrics(opts.traced);
    // Values of each metric by (workload, metric), in declared order.
    let mut values: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    let mut failures = Vec::new();
    for i in 0..runs {
        let pass = run_all(&opts, false)?;
        for (w, line) in &pass.results {
            let parsed = parse_value(line).expect("run_all keeps parsed lines only");
            let wi = declared().workloads.iter().position(|x| x == w);
            for (k, m) in metrics.iter().enumerate() {
                let v = parsed
                    .get("metrics")
                    .and_then(|ms| ms.get(&m.name))
                    .and_then(|x| x.get("value"))
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("{w} result lacks {}", m.name))?;
                values
                    .entry((wi.expect("a declared workload"), k))
                    .or_default()
                    .push(v);
            }
        }
        failures.extend(pass.failures);
        eprintln!("dpbench: repeat: run {}/{runs} done", i + 1);
    }

    let mut by_workload: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    // A workload that printed a result in fewer than two runs has no
    // spread; its failures are already listed.
    for ((wi, k), v) in values.iter().filter(|(_, v)| v.len() >= 2) {
        let (w, m) = (&declared().workloads[*wi], &metrics[*k]);
        let [q1, med, q3] = stats::quartiles(v);
        let spread = stats::relative_iqr(v);
        println!(
            "{w} {} median {} q1 {} q3 {} rel_iqr {:.4} {}",
            m.name,
            number(med),
            number(q1),
            number(q3),
            spread,
            m.unit
        );
        let list: Vec<String> = v.iter().map(|x| number(*x)).collect();
        by_workload.entry(*wi).or_default().push(format!(
            "{}:{{\"unit\":{},\"median\":{},\"q1\":{},\"q3\":{},\"rel_iqr\":{},\"values\":[{}]}}",
            escape(&m.name),
            escape(&m.unit),
            number(med),
            number(q1),
            number(q3),
            number(spread),
            list.join(",")
        ));
    }
    let workloads: Vec<String> = by_workload
        .iter()
        .map(|(wi, rows)| {
            format!(
                "{}:{{{}}}",
                escape(&declared().workloads[*wi]),
                rows.join(",")
            )
        })
        .collect();
    write_out(
        &flags,
        &format!(
            "{{\"seed\":{},\"runs\":{runs},\"seconds\":{},\"traced\":{},\"host\":{},\"workloads\":{{{}}}}}",
            opts.seed,
            number(opts.seconds),
            opts.traced,
            host_json(),
            workloads.join(",")
        ),
    )?;
    Ok(report_failures(&failures))
}

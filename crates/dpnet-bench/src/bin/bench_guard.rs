//! `bench_guard` — regression and speedup gates over `BENCH_*.json` reports.
//!
//! ```text
//! bench_guard compare <current.json> <baseline.json> [--threshold 0.25]
//! bench_guard speedup <seq.json> <par.json> [--min 1.5]
//! bench_guard kernel-speedup [--workers 4] [--min 1.5]
//! bench_guard record [--out bench-reports] [<id> ...]
//! bench_guard record --check [--out bench-reports]
//! bench_guard golden <current.json> <golden.json>
//! ```
//!
//! `compare` fails (exit 1) if any experiment's wall time regressed more
//! than the threshold against the baseline. Wall times are compared as
//! multiples of each report's own `calibration_ns` — the wall time of a
//! fixed CPU spin measured on the machine that produced the report — so a
//! baseline recorded on one machine remains meaningful on another. It
//! also fails when an experiment's exact `counts` differ from the
//! baseline's, naming each differing key and the command that regenerates
//! the baseline: a baseline recorded on other code measures other work.
//!
//! `speedup` fails (exit 1) if the parallel report's total wall time is not
//! at least `--min` times faster than the sequential report's. When the
//! running machine has fewer CPUs than the parallel report's worker count,
//! the check is skipped with a warning (exit 0): a 4-worker pool cannot
//! beat 1 worker on a single core.
//!
//! `kernel-speedup` times the two data-movement kernels the pool was built
//! for — chunked partition construction and parallel synthetic-trace
//! generation — at 1 vs `--workers` workers, in this process, and fails if
//! the *better* of the two speedups is below `--min`. It also prints the
//! grouping kernel's speedup, which the gate does not read. Skipped
//! (exit 0) on machines with fewer CPUs than workers.
//!
//! `record` reruns the baseline experiment set (`fig1 itemsets worm` unless
//! ids are given) in this process and rewrites
//! `bench-reports/BENCH_baseline.json`, recalibrating for the current
//! machine. Run it after an intentional engine change, then commit the
//! refreshed baseline alongside the change.
//!
//! `record --check` is the dry-run staleness gate: it touches nothing and
//! instead verifies that the fixtures under the report directory —
//! `BENCH_baseline.json` (which must exist) and every other `BENCH_*.json`
//! and `GOLDEN_*.json` — were produced by the current report schema. A
//! report the current tools just wrote passes by construction, so a fresh
//! local run never trips the gate; a committed fixture left behind by a
//! schema bump does. Run-report
//! fixtures must carry `schema_version` equal to
//! [`dpnet_bench::report::SCHEMA_VERSION`]; explain-format fixtures must
//! parse with the current explain-semantics reader. Any stale file fails
//! (exit 1) with the exact regeneration command, so a schema bump cannot
//! silently turn the compare/golden gates into no-ops that misread old
//! field layouts. A profile fixture (`BENCH_<id>-wN.json`) whose `nproc`
//! is below N draws a warning, not a failure: it was recorded
//! oversubscribed.
//!
//! `golden` compares only the *semantic* fields of two reports — experiment
//! ids, their `eps_charged`, each phase's name and `eps_spent`, and the
//! exact `counts` when the golden carries them — and ignores wall times
//! entirely. CI runs a fast fixed-seed experiment and
//! diffs it against a committed `GOLDEN_*.json` fixture: any drift in
//! released values' privacy charges fails the build even on noisy runners.
//!
//! `profile` diffs the per-operator time attribution of two profiled
//! reports (produced by `dpnet profile` or `repro --profile`). Self times
//! are normalized by each report's own `calibration_ns`, operators are
//! aligned by name, and the table is sorted by the change in self time —
//! the operator whose cost moved most is printed first, and each report's
//! top-3 self-time operators are named. Informational: always exits 0
//! unless a report cannot be read.
//!
//! `explain` diffs two `dpnet explain --format json` reports on their
//! noise-independent content: the plan/charge structure (operators,
//! normalized charge paths, call counts) and the *predicted* ε per
//! aggregation site and per path. CI runs `dpnet explain fig1` and diffs
//! it against the committed `GOLDEN_explain_fig1.json`: any drift in query
//! structure or privacy-cost arithmetic fails the build, while noise draws
//! and wall times cannot.

use dpnet_bench::datasets;
use dpnet_bench::profile::{best_of, run_observed, ObservedRun, IDS};
use dpnet_bench::report::{RunReport, SCHEMA_VERSION};
use dpnet_obs::json::{parse_value, JsonValue};
use dpnet_trace::flow::FlowKey;
use dpnet_trace::gen::scatter::{generate_with, ScatterConfig};
use pinq::{Accountant, ExecCtx, ExecPool, NoiseSource, Queryable};
use std::collections::{BTreeMap, BTreeSet};
use std::process::exit;
use std::time::Duration;

/// One experiment entry of a run report: the fields the gates read.
#[derive(Debug, Clone, PartialEq)]
struct Experiment {
    id: String,
    wall_ns: Option<u64>,
    /// `NaN` when the entry has none, so it never matches a golden value.
    eps_charged: f64,
    /// `(name, eps_spent)` per phase, in report order.
    phases: Vec<(String, f64)>,
    /// Exact event counts by key; `None` when the entry carries none
    /// (serve reports, and reports from before schema 4).
    counts: Option<BTreeMap<String, u64>>,
    /// `(operator, totals)` per attribution row; `None` when the entry
    /// carries no attribution array at all.
    attribution: Option<Vec<(String, AttrTotals)>>,
    /// Whether the entry carries a `latency` object with the p50, p95 and
    /// p99 percentiles (serve reports).
    latency_percentiles: bool,
}

/// One operator's attribution totals, as read from a report.
#[derive(Debug, Default, Clone, PartialEq)]
struct AttrTotals {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

/// What the gates read from one `BENCH_*`/`GOLDEN_*` run report, parsed
/// once with [`parse_value`].
#[derive(Debug, Clone, PartialEq)]
struct Report {
    schema_version: Option<u64>,
    calibration_ns: Option<u64>,
    workers: Option<u64>,
    nproc: Option<u64>,
    experiments: Vec<Experiment>,
}

fn num(v: &JsonValue, key: &str) -> Option<f64> {
    v.get(key).and_then(JsonValue::as_f64)
}

fn num_u64(v: &JsonValue, key: &str) -> Option<u64> {
    num(v, key).map(|x| x as u64)
}

/// The elements of array member `key`; empty when there is none.
fn items<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    v.get(key).and_then(JsonValue::items).unwrap_or(&[])
}

fn name(v: &JsonValue) -> Option<String> {
    v.get("name")
        .and_then(JsonValue::as_str)
        .map(str::to_string)
}

impl Report {
    /// Parse a run report; `None` when the text is not JSON.
    fn parse(text: &str) -> Option<Report> {
        let doc = parse_value(text)?;
        let experiments = items(&doc, "experiments")
            .iter()
            .filter_map(|e| {
                let id = e.get("id").and_then(JsonValue::as_str)?.to_string();
                let phases = items(e, "phases")
                    .iter()
                    .filter_map(|p| Some((name(p)?, num(p, "eps_spent")?)))
                    .collect();
                let attribution = e.get("attribution").and_then(JsonValue::items).map(|rows| {
                    rows.iter()
                        .filter_map(|r| {
                            let totals = AttrTotals {
                                count: num_u64(r, "count").unwrap_or(0),
                                total_ns: num_u64(r, "total_ns").unwrap_or(0),
                                self_ns: num_u64(r, "self_ns").unwrap_or(0),
                            };
                            Some((name(r)?, totals))
                        })
                        .collect()
                });
                let counts = match e.get("counts") {
                    Some(JsonValue::Obj(keys)) => Some(
                        keys.iter()
                            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()? as u64)))
                            .collect(),
                    ),
                    _ => None,
                };
                let latency_percentiles = e.get("latency").is_some_and(|l| {
                    ["p50_ns", "p95_ns", "p99_ns"]
                        .iter()
                        .all(|k| num(l, k).is_some())
                });
                Some(Experiment {
                    id,
                    wall_ns: num_u64(e, "wall_ns"),
                    eps_charged: num(e, "eps_charged").unwrap_or(f64::NAN),
                    phases,
                    counts,
                    attribution,
                    latency_percentiles,
                })
            })
            .collect();
        Some(Report {
            schema_version: num_u64(&doc, "schema_version"),
            calibration_ns: num_u64(&doc, "calibration_ns"),
            workers: num_u64(&doc, "workers"),
            nproc: num_u64(&doc, "nproc"),
            experiments,
        })
    }

    /// The machine calibration wall time, in ns (at least 1).
    fn calibration(&self) -> f64 {
        self.calibration_ns.unwrap_or(1).max(1) as f64
    }

    /// Per-experiment `(id, wall_ns)` pairs, for entries that carry one.
    fn walls(&self) -> Vec<(String, u64)> {
        self.experiments
            .iter()
            .filter_map(|e| Some((e.id.clone(), e.wall_ns?)))
            .collect()
    }

    /// Every experiment's attribution rows, folded per operator.
    fn attribution_totals(&self) -> BTreeMap<String, AttrTotals> {
        let mut out: BTreeMap<String, AttrTotals> = BTreeMap::new();
        for (name, t) in self
            .experiments
            .iter()
            .flat_map(|e| e.attribution.iter().flatten())
        {
            let row = out.entry(name.clone()).or_default();
            row.count += t.count;
            row.total_ns += t.total_ns;
            row.self_ns += t.self_ns;
        }
        out
    }
}

/// How `cur`'s exact counts differ from `reference`'s (named `label` in
/// the messages): one message per differing or missing key, with both
/// values. Empty when they match, and when `reference` predates counts.
fn counts_drift(cur: &Experiment, reference: &Experiment, label: &str) -> Vec<String> {
    let Some(want) = &reference.counts else {
        return Vec::new();
    };
    let none = BTreeMap::new();
    let have = cur.counts.as_ref().unwrap_or(&none);
    let show = |n: Option<&u64>| n.map_or_else(|| "missing".to_string(), u64::to_string);
    let keys: BTreeSet<&String> = have.keys().chain(want.keys()).collect();
    keys.into_iter()
        .filter(|k| have.get(*k) != want.get(*k))
        .map(|k| {
            format!(
                "{}: count {k} {} vs {label} {}",
                cur.id,
                show(have.get(k)),
                show(want.get(k))
            )
        })
        .collect()
}

/// Read and parse the run report at `path`; `require_calibration` also
/// refuses a report without `calibration_ns`.
fn load(path: &str, require_calibration: bool) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let report = Report::parse(&text).ok_or_else(|| format!("{path}: not a JSON run report"))?;
    if require_calibration && report.calibration_ns.is_none() {
        return Err(format!("{path}: no calibration_ns field"));
    }
    Ok(report)
}

/// Trailing `--flag <value>` parse with a default.
fn flag_f64(args: &[String], flag: &str, default: f64) -> f64 {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn cmd_compare(current: &str, baseline: &str, threshold: f64) -> i32 {
    let (cur, base) = match (load(current, true), load(baseline, true)) {
        (Ok(c), Ok(b)) => (c, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let (cur_walls, base_walls) = (cur.walls(), base.walls());
    let mut failed = false;
    let mut counts_differ = false;
    for c in &cur.experiments {
        let Some(b) = base.experiments.iter().find(|b| b.id == c.id) else {
            continue;
        };
        for d in counts_drift(c, b, "baseline") {
            eprintln!("[COUNTS] {d}");
            counts_differ = true;
        }
    }
    for (id, wall) in &cur_walls {
        let Some((_, base_wall)) = base_walls.iter().find(|(b, _)| b == id) else {
            eprintln!("[skip] {id}: not in baseline");
            continue;
        };
        let cur_units = *wall as f64 / cur.calibration();
        let base_units = *base_wall as f64 / base.calibration();
        let ratio = cur_units / base_units.max(f64::MIN_POSITIVE);
        let verdict = if ratio > 1.0 + threshold {
            failed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "[{verdict}] {id}: {cur_units:.1} vs baseline {base_units:.1} calibration units ({ratio:.2}x)"
        );
    }
    for (id, _) in &base_walls {
        if !cur_walls.iter().any(|(c, _)| c == id) {
            eprintln!("[warn] {id}: in baseline but missing from current run");
        }
    }
    if failed {
        eprintln!(
            "bench_guard: wall-clock regression beyond {threshold:.0}% threshold",
            threshold = threshold * 100.0
        );
    }
    if counts_differ {
        let name = std::path::Path::new(baseline)
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or(baseline);
        eprintln!(
            "bench_guard: exact counts differ from the baseline; if the change is \
             intended, regenerate it with:\n  {}",
            regenerate_hint(name)
        );
    }
    i32::from(failed || counts_differ)
}

/// Surface a skipped gate in the GitHub Actions checks UI. Silent `[skip]`
/// lines on stderr vanish into the log on single-core runners, so a parallel
/// gate can stop gating without anyone noticing; this also emits the
/// `::warning::` workflow command (rendered as an annotation) and appends a
/// line to the job summary when `$GITHUB_STEP_SUMMARY` is set.
fn ci_skip_warning(gate: &str, reason: &str) {
    eprintln!("[skip] {gate}: {reason}");
    println!("::warning title={gate} gate skipped::{reason}");
    if let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") {
        if !path.is_empty() {
            append_skip_summary(&path, gate, reason);
        }
    }
}

/// The job-summary half of [`ci_skip_warning`]: one appended markdown line.
fn append_skip_summary(path: &str, gate: &str, reason: &str) {
    use std::io::Write;
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        Ok(mut f) => {
            let _ = writeln!(f, ":warning: `{gate}` gate **skipped**: {reason}");
        }
        Err(e) => eprintln!("[warn] cannot append to job summary {path}: {e}"),
    }
}

fn cmd_speedup(seq_path: &str, par_path: &str, min: f64) -> i32 {
    let (seq, par) = match (load(seq_path, true), load(par_path, true)) {
        (Ok(s), Ok(p)) => (s, p),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    let par_workers = par.workers.unwrap_or(1);
    if cpus < par_workers {
        ci_skip_warning(
            "speedup",
            &format!(
                "machine has {cpus} CPUs, parallel run used {} workers — \
                 parallel speedup was NOT checked",
                par_workers
            ),
        );
        return 0;
    }
    let seq_wall: u64 = seq.walls().iter().map(|(_, w)| w).sum();
    let par_wall: u64 = par.walls().iter().map(|(_, w)| w).sum::<u64>().max(1);
    let speedup = seq_wall as f64 / par_wall as f64;
    println!(
        "speedup at {par_workers} workers: {speedup:.2}x (sequential {seq_wall} ns, parallel {par_wall} ns)"
    );
    if speedup < min {
        eprintln!("bench_guard: speedup {speedup:.2}x below the {min:.2}x bar");
        1
    } else {
        0
    }
}

fn cmd_kernel_speedup(workers: usize, min: f64) -> i32 {
    let cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if cpus < workers {
        ci_skip_warning(
            "kernel-speedup",
            &format!(
                "machine has {cpus} CPUs, need {workers} — \
                 kernel speedup was NOT checked"
            ),
        );
        return 0;
    }
    let seq = ExecPool::sequential();
    let par = match ExecPool::new(workers) {
        Ok(pool) => pool,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };

    // Partition construction: 200k records into 256 parts.
    let acct = Accountant::new(f64::MAX / 2.0);
    let noise = NoiseSource::seeded(11);
    let values: Vec<u32> = (0..200_000u32)
        .map(|i| i.wrapping_mul(2654435761))
        .collect();
    let q = Queryable::new(values, &acct, &noise);
    let keys: Vec<u32> = (0..256u32).collect();
    let q_seq = q.clone().with_ctx(ExecCtx::pool(&seq));
    let q_par = q.clone().with_ctx(ExecCtx::pool(&par));
    let partition = |q: &Queryable<u32>| {
        q.partition(&keys, |&v| v % 256).expect("distinct keys");
    };
    let ((part_seq, ()), (part_par, ())) = best_of(3, || partition(&q_seq), || partition(&q_par));
    let part_speedup = part_seq as f64 / part_par as f64;

    // Synthetic trace generation: scatter trace, 8k IPs.
    let cfg = ScatterConfig {
        seed: 7,
        ips: 8_000,
        ..ScatterConfig::default()
    };
    let generate = |pool: &ExecPool| {
        generate_with(cfg.clone(), pool);
    };
    let ((gen_seq, ()), (gen_par, ())) = best_of(3, || generate(&seq), || generate(&par));
    let gen_speedup = gen_seq as f64 / gen_par as f64;

    // Grouping: fig1's TCP data packets by `(flow, seq)`, from the
    // forced filter memo. Printed for the record; the gate stays on the
    // two kernels above.
    let packets = Queryable::from_shared_shards(datasets::hotspot_shards().clone(), &acct, &noise)
        .filter(|p| FlowKey::of(p).is_tcp() && !p.flags.is_syn() && !p.payload.is_empty());
    let data = |pool: &ExecPool| {
        packets
            .clone()
            .with_ctx(ExecCtx::pool(pool))
            .collect_protected()
    };
    let (data_seq, data_par) = (data(&seq), data(&par));
    let group = |q: &Queryable<dpnet_trace::Packet>| {
        q.group_by(|p| (FlowKey::of(p), p.seq));
    };
    let ((group_seq, ()), (group_par, ())) = best_of(3, || group(&data_seq), || group(&data_par));
    let group_speedup = group_seq as f64 / group_par as f64;

    println!("partition kernel:  {part_speedup:.2}x at {workers} workers");
    println!("trace-gen kernel:  {gen_speedup:.2}x at {workers} workers");
    println!("group_by kernel:   {group_speedup:.2}x at {workers} workers (not gated)");
    let best = part_speedup.max(gen_speedup);
    if best < min {
        eprintln!("bench_guard: best kernel speedup {best:.2}x below the {min:.2}x bar");
        1
    } else {
        0
    }
}

/// Top-N operators named explicitly by `profile`.
const PROFILE_TOP: usize = 3;

fn cmd_profile(a_path: &str, b_path: &str) -> i32 {
    let (a, b) = match (load(a_path, false), load(b_path, false)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let (a_cal, b_cal) = (a.calibration(), b.calibration());
    // Reports written before the profiler existed have no attribution
    // array at all; name the offending file instead of diffing nothing.
    for (path, report) in [(a_path, &a), (b_path, &b)] {
        if report.experiments.iter().all(|e| e.attribution.is_none()) {
            eprintln!(
                "bench_guard: {path} carries no attribution array — it was \
                 not produced by a profiled run; regenerate it with \
                 `dpnet profile <id>` or `repro --profile <id>`"
            );
            return 2;
        }
    }
    let a_rows = a.attribution_totals();
    let b_rows = b.attribution_totals();
    if a_rows.is_empty() && b_rows.is_empty() {
        eprintln!("bench_guard: neither report carries attribution (profiled runs only)");
        return 2;
    }

    // Align by operator name; normalize to calibration units so reports
    // from different machines stay comparable.
    let names: BTreeSet<&String> = a_rows.keys().chain(b_rows.keys()).collect();
    let mut diff: Vec<(&str, f64, f64, u64, u64)> = names
        .into_iter()
        .map(|name| {
            let a = a_rows.get(name).cloned().unwrap_or_default();
            let b = b_rows.get(name).cloned().unwrap_or_default();
            (
                name.as_str(),
                a.self_ns as f64 / a_cal,
                b.self_ns as f64 / b_cal,
                a.count,
                b.count,
            )
        })
        .collect();
    diff.sort_by(|x, y| {
        let (dx, dy) = ((x.2 - x.1).abs(), (y.2 - y.1).abs());
        dy.partial_cmp(&dx).unwrap_or(std::cmp::Ordering::Equal)
    });

    println!("attribution diff: {a_path} -> {b_path} (self time, calibration units)");
    println!(
        "{:<24} {:>10} {:>10} {:>10} {:>8}  {:>7} {:>7}",
        "operator", "a.self", "b.self", "delta", "ratio", "a.count", "b.count"
    );
    for (name, a_self, b_self, a_count, b_count) in &diff {
        let ratio = if *a_self > 0.0 {
            format!("{:.2}x", b_self / a_self)
        } else {
            "-".to_string()
        };
        println!(
            "{name:<24} {a_self:>10.2} {b_self:>10.2} {:>+10.2} {ratio:>8}  {a_count:>7} {b_count:>7}",
            b_self - a_self
        );
    }

    let top = |rows: &BTreeMap<String, AttrTotals>, label: &str| {
        let mut by_self: Vec<(&String, u64)> = rows.iter().map(|(n, r)| (n, r.self_ns)).collect();
        by_self.sort_by_key(|row| std::cmp::Reverse(row.1));
        let names: Vec<String> = by_self
            .iter()
            .take(PROFILE_TOP)
            .enumerate()
            .map(|(i, (n, _))| format!("{}. {n}", i + 1))
            .collect();
        println!("top self-time ({label}): {}", names.join("  "));
    };
    top(&a_rows, a_path);
    top(&b_rows, b_path);
    0
}

/// The experiment set the committed baseline covers.
const BASELINE_IDS: [&str; 3] = ["fig1", "itemsets", "worm"];

/// Run one baseline experiment for `record`, observing its events.
fn run_baseline_experiment(id: &str, pool: &ExecPool) -> Result<ObservedRun, String> {
    if !BASELINE_IDS.contains(&id) {
        return Err(format!(
            "unknown baseline experiment id '{id}' (expected one of {})",
            BASELINE_IDS.join(" ")
        ));
    }
    run_observed(id, pool, false, false)
}

fn cmd_record(out_dir: &str, ids: &[String]) -> i32 {
    let ids: Vec<&str> = if ids.is_empty() {
        BASELINE_IDS.to_vec()
    } else {
        ids.iter().map(String::as_str).collect()
    };
    let pool = match ExecPool::new(1) {
        Ok(pool) => pool,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let mut report = RunReport::new("baseline");
    report.set_workers(1);
    let mut failed = false;
    for id in &ids {
        match run_baseline_experiment(id, &pool) {
            Ok(run) => {
                println!(
                    "[{id} recorded in {:.1?}]",
                    Duration::from_nanos(run.wall_ns)
                );
                report.record(id, run.wall_ns, &run.events, &run.spans);
            }
            Err(e) => {
                eprintln!("experiment {id} failed: {e}");
                failed = true;
            }
        }
    }
    if failed {
        return 1;
    }
    match report.write_json(std::path::Path::new(out_dir)) {
        Ok(path) => {
            println!("baseline recorded: {}", path.display());
            0
        }
        Err(e) => {
            eprintln!("could not write baseline report: {e}");
            2
        }
    }
}

/// True when `seg` is one grammar segment of a kernel charge path:
/// `root` | `scale(x<float>)` | `part[<digits>|*]` | `in[<digits>]`
/// (the `*` form is the normalized per-part wildcard explain reports use).
fn valid_path_segment(seg: &str) -> bool {
    if seg == "root" {
        return true;
    }
    if let Some(inner) = seg
        .strip_prefix("scale(x")
        .and_then(|s| s.strip_suffix(')'))
    {
        return inner.parse::<f64>().map(f64::is_finite).unwrap_or(false);
    }
    if let Some(inner) = seg.strip_prefix("part[").and_then(|s| s.strip_suffix(']')) {
        return inner == "*" || (!inner.is_empty() && inner.bytes().all(|b| b.is_ascii_digit()));
    }
    if let Some(inner) = seg.strip_prefix("in[").and_then(|s| s.strip_suffix(']')) {
        return !inner.is_empty() && inner.bytes().all(|b| b.is_ascii_digit());
    }
    false
}

/// True when `path` parses under the kernel charge-path grammar:
/// slash-separated [`valid_path_segment`]s, leaf to root, so the last
/// segment is always `root` (every charge terminates at a root budget).
fn valid_charge_path(path: &str) -> bool {
    path.split('/').all(valid_path_segment) && path.ends_with("root")
}

/// Every `"path":"…"` value in `text`, in order of appearance. Fixture
/// paths never contain escapes, so a plain quote scan is exact.
fn extract_path_fields(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(i) = rest.find("\"path\":\"") {
        let after = &rest[i + "\"path\":\"".len()..];
        let Some(j) = after.find('"') else { break };
        out.push(&after[..j]);
        rest = &after[j..];
    }
    out
}

/// Validate every `"path"` field in a fixture against the charge-path
/// grammar, returning how many were checked. The kernel refactor could
/// silently change how paths render; this pins the committed fixtures to
/// the grammar the kernel actually emits.
fn check_path_fields(text: &str) -> Result<usize, String> {
    let paths = extract_path_fields(text);
    for p in &paths {
        if !valid_charge_path(p) {
            return Err(format!(
                "\"path\":\"{p}\" is not a kernel charge path \
                 (segments root | scale(x<float>) | part[<digits>|*] | in[<digits>], \
                 last segment root)"
            ));
        }
    }
    Ok(paths.len())
}

/// One fixture's freshness verdict for `record --check`: `Ok` carries a
/// printable status, `Err` the reason the file is stale. Pure on the file
/// name and contents so the logic is testable without a filesystem.
fn check_fixture_text(name: &str, text: &str) -> Result<String, String> {
    let n_paths = check_path_fields(text)?;
    if text.contains("\"explain\":") {
        // Explain-format fixtures carry no run-report schema_version; the
        // current-parser round trip is the schema check.
        return match explain_semantics(text, name) {
            Ok(s) => Ok(format!(
                "explain report for '{}' parses ({} aggregation sites, {} charge paths, \
                 {n_paths} path fields in grammar)",
                s.title,
                s.aggregations.len(),
                s.paths.len()
            )),
            Err(e) => Err(format!("does not parse as a current explain report: {e}")),
        };
    }
    let report = Report::parse(text).ok_or("does not parse as JSON")?;
    match report.schema_version {
        Some(v) if v == SCHEMA_VERSION => {
            if name == "BENCH_serve.json" {
                // Serve reports (schema 3) must carry the latency section:
                // a serve fixture without percentiles predates the serving
                // architecture no matter what version it stamps.
                if !report.experiments.iter().any(|e| e.latency_percentiles) {
                    return Err(format!(
                        "schema_version {v} but no latency section with p50/p95/p99 \
                         percentiles — not a serve report"
                    ));
                }
                return Ok(format!("schema_version {v}, latency percentiles present"));
            }
            if profile_report_target(name).is_some() {
                // `repro --workers N <id>` writes the same file name as
                // `dpnet profile <id> --workers N`, but records no spans:
                // a profile fixture must attribute every experiment.
                let unattributed =
                    |e: &Experiment| e.attribution.as_ref().map_or(true, Vec::is_empty);
                if report.experiments.is_empty() || report.experiments.iter().any(unattributed) {
                    return Err(format!(
                        "schema_version {v} but an experiment has no attribution — \
                         written by `repro --workers N`, not `dpnet profile`"
                    ));
                }
                return Ok(format!("schema_version {v}, attribution present"));
            }
            Ok(format!("schema_version {v}"))
        }
        Some(v) => Err(format!(
            "schema_version {v}, current schema is {SCHEMA_VERSION}"
        )),
        None => Err(format!(
            "no schema_version field (predates schema {SCHEMA_VERSION})"
        )),
    }
}

/// The exact command that regenerates a stale fixture, by file name.
fn regenerate_hint(name: &str) -> String {
    if name == "BENCH_baseline.json" {
        return "cargo run --release -p dpnet-bench --bin bench_guard -- record".to_string();
    }
    if name == "BENCH_serve.json" {
        return "cargo run --release -p dpnet-cli --bin dpnet -- loadtest \
                --sessions 64 --requests 4 --report-dir bench-reports"
            .to_string();
    }
    if let Some((id, workers)) = profile_report_target(name) {
        return format!(
            "cargo run --release -p dpnet-cli --bin dpnet -- profile {id} --workers {workers}"
        );
    }
    if let Some(id) = name
        .strip_prefix("GOLDEN_explain_")
        .and_then(|s| s.strip_suffix(".json"))
    {
        return format!(
            "cargo run --release -p dpnet-cli --bin dpnet -- explain {id} --format json \
             --out bench-reports/{name}"
        );
    }
    if let Some(id) = name
        .strip_prefix("GOLDEN_")
        .and_then(|s| s.strip_suffix(".json"))
    {
        return format!(
            "cargo run --release -p dpnet-bench --bin repro -- {id} && \
             cp bench-reports/BENCH_{id}.json bench-reports/{name}"
        );
    }
    format!("regenerate bench-reports/{name} with the tool that produced it")
}

/// The experiment id and worker count of a profiled report's file name,
/// `BENCH_<id>-w<workers>.json` (what `dpnet profile` writes for one
/// experiment id).
fn profile_report_target(name: &str) -> Option<(&str, usize)> {
    let stem = name.strip_prefix("BENCH_")?.strip_suffix(".json")?;
    let (id, workers) = stem.rsplit_once("-w")?;
    IDS.contains(&id).then_some((id, workers.parse().ok()?))
}

/// `record --check`'s warning for a profile fixture recorded with more
/// workers than its machine had CPUs: its self times and its speedup over
/// fewer workers then measure oversubscription, not the pool. A fixture
/// without `nproc` predates the field and draws no warning.
fn oversubscription_warning(name: &str, text: &str) -> Option<String> {
    let (_, workers) = profile_report_target(name)?;
    let nproc = Report::parse(text)?.nproc?;
    (workers as u64 > nproc)
        .then(|| format!("recorded with {workers} workers on {nproc} CPUs (oversubscribed)"))
}

/// Whether `record --check` checks a report-directory file: every run
/// report (`BENCH_*.json`) and golden fixture (`GOLDEN_*.json`).
fn is_checked_fixture(name: &str) -> bool {
    (name.starts_with("BENCH_") || name.starts_with("GOLDEN_")) && name.ends_with(".json")
}

fn cmd_record_check(out_dir: &str) -> i32 {
    let dir = std::path::Path::new(out_dir);
    // The baseline is checked even when absent; every other report and
    // golden fixture is whatever the directory holds (sorted so the output
    // is stable).
    let mut names = vec!["BENCH_baseline.json".to_string()];
    match std::fs::read_dir(dir) {
        Ok(entries) => {
            let mut found: Vec<String> = entries
                .filter_map(Result::ok)
                .filter_map(|e| e.file_name().into_string().ok())
                .filter(|n| is_checked_fixture(n) && n != "BENCH_baseline.json")
                .collect();
            found.sort();
            names.extend(found);
        }
        Err(e) => {
            eprintln!("cannot read {out_dir}: {e}");
            return 2;
        }
    }
    let mut stale = Vec::new();
    for name in &names {
        match std::fs::read_to_string(dir.join(name)) {
            Ok(text) => match check_fixture_text(name, &text) {
                Ok(status) => {
                    println!("[fresh] {name}: {status}");
                    if let Some(warning) = oversubscription_warning(name, &text) {
                        eprintln!("[warn] {name}: {warning}");
                    }
                }
                Err(reason) => {
                    eprintln!("[STALE] {name}: {reason}");
                    stale.push(name.clone());
                }
            },
            Err(e) => {
                eprintln!("[STALE] {name}: cannot read: {e}");
                stale.push(name.clone());
            }
        }
    }
    if stale.is_empty() {
        println!("record --check: all committed fixtures match schema {SCHEMA_VERSION}");
        return 0;
    }
    eprintln!(
        "\nbench_guard: {} committed fixture(s) stale against schema {SCHEMA_VERSION}; \
         regenerate and commit:",
        stale.len()
    );
    for name in &stale {
        eprintln!("  {}", regenerate_hint(name));
    }
    1
}

fn cmd_golden(current: &str, golden: &str) -> i32 {
    let (cur, gold) = match (load(current, false), load(golden, false)) {
        (Ok(c), Ok(g)) => (c.experiments, g.experiments),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let mut failed = false;
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    for g in &gold {
        let failed_before = failed;
        let Some(c) = cur.iter().find(|c| c.id == g.id) else {
            eprintln!("[MISSING] {}: in golden but not in current run", g.id);
            failed = true;
            continue;
        };
        if !close(c.eps_charged, g.eps_charged) {
            eprintln!(
                "[DRIFT] {}: eps_charged {} vs golden {}",
                g.id, c.eps_charged, g.eps_charged
            );
            failed = true;
        }
        if c.phases.len() != g.phases.len() {
            eprintln!(
                "[DRIFT] {}: {} phases vs golden {}",
                g.id,
                c.phases.len(),
                g.phases.len()
            );
            failed = true;
        } else {
            for ((cn, ce), (gn, ge)) in c.phases.iter().zip(&g.phases) {
                if cn != gn || !close(*ce, *ge) {
                    eprintln!(
                        "[DRIFT] {}: phase {cn} eps {ce} vs golden phase {gn} eps {ge}",
                        g.id
                    );
                    failed = true;
                }
            }
        }
        for d in counts_drift(c, g, "golden") {
            eprintln!("[DRIFT] {d}");
            failed = true;
        }
        if failed == failed_before {
            let counts = g
                .counts
                .as_ref()
                .map_or_else(String::new, |m| format!(" and {} counts", m.len()));
            println!(
                "[ok] {}: eps_charged, {} phases{counts} match",
                g.id,
                g.phases.len()
            );
        }
    }
    for c in &cur {
        if !gold.iter().any(|g| g.id == c.id) {
            eprintln!("[warn] {}: in current run but not in golden fixture", c.id);
        }
    }
    if failed {
        eprintln!("bench_guard: semantic drift against the golden fixture");
        1
    } else {
        0
    }
}

/// The noise-independent content of a `dpnet explain --format json`
/// report: the experiment, the predicted ε totals, and the plan/charge
/// structure (operators, normalized paths, call counts). Wall times,
/// measured overlays, and anything analyze-only are deliberately not read.
#[derive(Debug, Clone, PartialEq)]
struct ExplainSemantics {
    title: String,
    predicted_total: f64,
    /// `(operator, path, calls, requested_eps, predicted_eps)` per site.
    aggregations: Vec<(String, String, u64, f64, f64)>,
    /// `(path, calls, predicted_eps)` per normalized charge path.
    paths: Vec<(String, u64, f64)>,
}

/// Parse one explain-JSON document into its semantic fields.
fn explain_semantics(text: &str, origin: &str) -> Result<ExplainSemantics, String> {
    use dpnet_obs::json::{parse_value, JsonValue};
    let bad = |what: &str| format!("{origin}: not an explain report ({what})");
    let doc = parse_value(text).ok_or_else(|| bad("unparseable JSON"))?;
    let title = doc
        .get("explain")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| bad("no explain title"))?
        .to_string();
    let predicted_total = doc
        .get("predicted_total")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| bad("no predicted_total"))?;
    let str_of = |v: &JsonValue, key: &str| {
        v.get(key)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| bad(&format!("missing {key}")))
    };
    let num_of = |v: &JsonValue, key: &str| {
        v.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| bad(&format!("missing {key}")))
    };
    let mut aggregations = Vec::new();
    for a in doc
        .get("aggregations")
        .and_then(JsonValue::items)
        .ok_or_else(|| bad("no aggregations array"))?
    {
        aggregations.push((
            str_of(a, "operator")?,
            str_of(a, "path")?,
            num_of(a, "calls")? as u64,
            num_of(a, "requested_eps")?,
            num_of(a, "predicted_eps")?,
        ));
    }
    let mut paths = Vec::new();
    for p in doc
        .get("paths")
        .and_then(JsonValue::items)
        .ok_or_else(|| bad("no paths array"))?
    {
        paths.push((
            str_of(p, "path")?,
            num_of(p, "calls")? as u64,
            num_of(p, "predicted_eps")?,
        ));
    }
    Ok(ExplainSemantics {
        title,
        predicted_total,
        aggregations,
        paths,
    })
}

/// Structural and predicted-ε drift between two explain reports, as
/// printable messages (empty = match). Noise never enters the predicted
/// fields, so exact structure plus 1e-9-relative ε equality is fair.
fn explain_drift(cur: &ExplainSemantics, gold: &ExplainSemantics) -> Vec<String> {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    let mut drift = Vec::new();
    if cur.title != gold.title {
        drift.push(format!(
            "experiment '{}' vs golden '{}'",
            cur.title, gold.title
        ));
    }
    if !close(cur.predicted_total, gold.predicted_total) {
        drift.push(format!(
            "predicted_total {} vs golden {}",
            cur.predicted_total, gold.predicted_total
        ));
    }
    if cur.aggregations.len() != gold.aggregations.len() {
        drift.push(format!(
            "{} aggregation sites vs golden {}",
            cur.aggregations.len(),
            gold.aggregations.len()
        ));
    } else {
        for (c, g) in cur.aggregations.iter().zip(&gold.aggregations) {
            if c.0 != g.0 || c.1 != g.1 || c.2 != g.2 || !close(c.3, g.3) || !close(c.4, g.4) {
                drift.push(format!("aggregation {c:?} vs golden {g:?}"));
            }
        }
    }
    if cur.paths.len() != gold.paths.len() {
        drift.push(format!(
            "{} charge paths vs golden {}",
            cur.paths.len(),
            gold.paths.len()
        ));
    } else {
        for (c, g) in cur.paths.iter().zip(&gold.paths) {
            if c.0 != g.0 || c.1 != g.1 || !close(c.2, g.2) {
                drift.push(format!("path {c:?} vs golden {g:?}"));
            }
        }
    }
    drift
}

fn cmd_explain(current: &str, golden: &str) -> i32 {
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let parsed = read(current)
        .and_then(|c| explain_semantics(&c, current))
        .and_then(|c| Ok((c, read(golden).and_then(|g| explain_semantics(&g, golden))?)));
    let (cur, gold) = match parsed {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let drift = explain_drift(&cur, &gold);
    if drift.is_empty() {
        println!(
            "[ok] {}: {} aggregation sites, {} charge paths, predicted ε {} match the golden fixture",
            gold.title,
            gold.aggregations.len(),
            gold.paths.len(),
            gold.predicted_total
        );
        0
    } else {
        for d in &drift {
            eprintln!("[DRIFT] {d}");
        }
        eprintln!("bench_guard: explain drift against the golden fixture");
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") if args.len() >= 3 => {
            cmd_compare(&args[1], &args[2], flag_f64(&args, "--threshold", 0.25))
        }
        Some("speedup") if args.len() >= 3 => {
            cmd_speedup(&args[1], &args[2], flag_f64(&args, "--min", 1.5))
        }
        Some("kernel-speedup") => cmd_kernel_speedup(
            flag_f64(&args, "--workers", 4.0) as usize,
            flag_f64(&args, "--min", 1.5),
        ),
        Some("record") => {
            let out = args
                .iter()
                .position(|a| a == "--out")
                .and_then(|i| args.get(i + 1))
                .cloned()
                .unwrap_or_else(|| "bench-reports".to_string());
            if args.iter().any(|a| a == "--check") {
                cmd_record_check(&out)
            } else {
                let ids: Vec<String> = {
                    let mut rest = Vec::new();
                    let mut skip = false;
                    for a in &args[1..] {
                        if skip {
                            skip = false;
                            continue;
                        }
                        if a == "--out" {
                            skip = true;
                            continue;
                        }
                        rest.push(a.clone());
                    }
                    rest
                };
                cmd_record(&out, &ids)
            }
        }
        Some("golden") if args.len() >= 3 => cmd_golden(&args[1], &args[2]),
        Some("profile") if args.len() >= 3 => cmd_profile(&args[1], &args[2]),
        Some("explain") if args.len() >= 3 => cmd_explain(&args[1], &args[2]),
        _ => {
            eprintln!(
                "usage: bench_guard compare <current.json> <baseline.json> [--threshold 0.25]\n\
                 \x20      bench_guard speedup <seq.json> <par.json> [--min 1.5]\n\
                 \x20      bench_guard kernel-speedup [--workers 4] [--min 1.5]\n\
                 \x20      bench_guard record [--out bench-reports] [<id> ...]\n\
                 \x20      bench_guard record --check [--out bench-reports]\n\
                 \x20      bench_guard golden <current.json> <golden.json>\n\
                 \x20      bench_guard profile <a.json> <b.json>\n\
                 \x20      bench_guard explain <current.json> <golden.json>"
            );
            2
        }
    };
    exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"target":"fig1","workers":4,"calibration_ns":1000,"generated_at_s":1,"experiments":[{"id":"fig1","wall_ns":5000,"eps_charged":1,"counts":{"aggregate.noisy_count":2,"charge":2,"phase.p":1},"phases":[{"name":"p","eps_spent":1,"wall_ns":9}]},{"id":"worm","wall_ns":7000,"eps_charged":1,"counts":{},"phases":[]}]}"#;

    #[test]
    fn charge_path_grammar_accepts_kernel_shapes() {
        for good in [
            "root",
            "scale(x2)/root",
            "scale(x0.5)/root",
            "part[*]/scale(x1)/root",
            "part[12]/scale(x1)/root",
            "in[0]/root",
            "in[1]/scale(x3)/root",
            "part[*]/scale(x1)/part[*]/scale(x2)/root",
        ] {
            assert!(valid_charge_path(good), "rejected valid path {good:?}");
        }
        for bad in [
            "",
            "scale(x1)",         // does not terminate at a root budget
            "root/scale(x1)",    // root must be last
            "scale(1)/root",     // missing the x
            "scale(xoops)/root", // not a float
            "part[]/root",       // empty index
            "part[a]/root",      // non-digit index
            "in[*]/root",        // inputs are never wildcarded
            "notroot",           // unknown segment
            "part[*]//root",     // empty segment
        ] {
            assert!(!valid_charge_path(bad), "accepted invalid path {bad:?}");
        }
    }

    #[test]
    fn record_check_rejects_fixtures_with_malformed_paths() {
        // A schema-current run report with a path field that no longer
        // parses under the kernel grammar must be flagged stale.
        let good = format!(
            r#"{{"schema_version":{SCHEMA_VERSION},"target":"x","path":"part[*]/scale(x1)/root"}}"#
        );
        assert!(check_fixture_text("BENCH_x.json", &good).is_ok());
        let drifted = good.replace("part[*]/scale(x1)/root", "partition:3/mult-1/ROOT");
        let err = check_fixture_text("BENCH_x.json", &drifted).unwrap_err();
        assert!(err.contains("not a kernel charge path"), "got: {err}");
        assert!(err.contains("partition:3/mult-1/ROOT"), "got: {err}");
        // The committed explain golden passes end-to-end, paths included.
        let committed = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../bench-reports/GOLDEN_explain_fig1.json"
        ))
        .unwrap();
        let status = check_fixture_text("GOLDEN_explain_fig1.json", &committed).unwrap();
        assert!(status.contains("path fields in grammar"), "got: {status}");
        assert_eq!(
            extract_path_fields(&committed).len(),
            check_path_fields(&committed).unwrap()
        );
    }

    #[test]
    fn skip_summary_lines_append_without_clobbering() {
        let path = std::env::temp_dir().join("dpnet-bench-guard-summary-test.md");
        let path_s = path.to_str().unwrap();
        std::fs::remove_file(&path).ok();
        append_skip_summary(path_s, "speedup", "machine has 1 CPUs");
        append_skip_summary(path_s, "kernel-speedup", "machine has 1 CPUs, need 4");
        let summary = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            summary,
            ":warning: `speedup` gate **skipped**: machine has 1 CPUs\n\
             :warning: `kernel-speedup` gate **skipped**: machine has 1 CPUs, need 4\n"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fields_parse() {
        let r = Report::parse(SAMPLE).unwrap();
        assert_eq!(r.calibration_ns, Some(1000));
        assert_eq!(r.workers, Some(4));
        assert_eq!(r.schema_version, None);
        assert!(Report::parse("not json").is_none());
    }

    #[test]
    fn experiment_walls_skip_phase_walls() {
        let walls = Report::parse(SAMPLE).unwrap().walls();
        assert_eq!(
            walls,
            vec![("fig1".to_string(), 5000), ("worm".to_string(), 7000)]
        );
    }

    #[test]
    fn semantics_capture_eps_and_phases_but_not_walls() {
        let exps = Report::parse(SAMPLE).unwrap().experiments;
        let ids: Vec<&str> = exps.iter().map(|e| e.id.as_str()).collect();
        assert_eq!(ids, ["fig1", "worm"]);
        assert!(exps.iter().all(|e| e.eps_charged == 1.0));
        assert_eq!(exps[0].phases, vec![("p".to_string(), 1.0)]);
        assert!(exps[1].phases.is_empty());
        let counts = exps[0].counts.as_ref().unwrap();
        assert_eq!(counts["aggregate.noisy_count"], 2);
        assert_eq!(counts.len(), 3);
        assert_eq!(exps[1].counts, Some(BTreeMap::new()));
    }

    /// SAMPLE's fig1 entry with one count changed by `edit`.
    fn fig1_with(edit: impl FnOnce(&mut BTreeMap<String, u64>)) -> Experiment {
        let mut e = Report::parse(SAMPLE).unwrap().experiments.remove(0);
        edit(e.counts.as_mut().unwrap());
        e
    }

    #[test]
    fn counts_drift_names_a_changed_value_with_both_values() {
        let base = fig1_with(|_| {});
        let cur = fig1_with(|c| *c.get_mut("charge").unwrap() = 3);
        assert_eq!(
            counts_drift(&cur, &base, "baseline"),
            ["fig1: count charge 3 vs baseline 2"]
        );
    }

    #[test]
    fn counts_drift_names_an_extra_or_missing_key() {
        let base = fig1_with(|_| {});
        let cur = fig1_with(|c| {
            c.insert("plan".to_string(), 1);
        });
        assert_eq!(
            counts_drift(&cur, &base, "golden"),
            ["fig1: count plan 1 vs golden missing"]
        );
        assert_eq!(
            counts_drift(&base, &cur, "golden"),
            ["fig1: count plan missing vs golden 1"]
        );
        // A current run without counts misses every key of the reference.
        let mut bare = base.clone();
        bare.counts = None;
        assert_eq!(counts_drift(&bare, &base, "golden").len(), 3);
    }

    #[test]
    fn counts_drift_passes_identical_maps_and_count_free_references() {
        let base = fig1_with(|_| {});
        assert!(counts_drift(&base.clone(), &base, "baseline").is_empty());
        // A reference from before schema 4 carries no counts to gate on.
        let mut old = base.clone();
        old.counts = None;
        assert!(counts_drift(&fig1_with(|c| c.clear()), &old, "golden").is_empty());
    }

    #[test]
    fn attribution_arrays_fold_across_experiments() {
        let json = r#"{"calibration_ns":100,"experiments":[
            {"id":"a","attribution":[{"name":"noisy_count","count":2,"total_ns":900,"self_ns":300},
                                     {"name":"plan/materialize","count":1,"total_ns":600,"self_ns":600}]},
            {"id":"b","attribution":[{"name":"noisy_count","count":1,"total_ns":100,"self_ns":100}]}
        ]}"#;
        let rows = Report::parse(json).unwrap().attribution_totals();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows["noisy_count"],
            AttrTotals {
                count: 3,
                total_ns: 1000,
                self_ns: 400
            }
        );
        assert_eq!(rows["plan/materialize"].self_ns, 600);
        let empty = Report::parse(r#"{"experiments":[{"id":"a","attribution":[]}]}"#).unwrap();
        assert!(empty.attribution_totals().is_empty());
    }

    const EXPLAIN_SAMPLE: &str = r#"{"explain":"fig1","predicted_total":3.0,"aggregations":[{"operator":"noisy_count","path":"part[*]/scale(x1)/root","calls":250,"requested_eps":2.0,"predicted_eps":1.0},{"operator":"noisy_count","path":"root","calls":250,"requested_eps":2.0,"predicted_eps":2.0}],"paths":[{"path":"part[*]/scale(x1)/root","calls":500,"predicted_eps":1.0},{"path":"root","calls":250,"predicted_eps":2.0}]}"#;

    #[test]
    fn explain_semantics_parse_structure_and_predictions() {
        let s = explain_semantics(EXPLAIN_SAMPLE, "sample").unwrap();
        assert_eq!(s.title, "fig1");
        assert_eq!(s.predicted_total, 3.0);
        assert_eq!(s.aggregations.len(), 2);
        assert_eq!(s.aggregations[0].1, "part[*]/scale(x1)/root");
        assert_eq!(s.aggregations[0].2, 250);
        assert_eq!(s.paths[1], ("root".to_string(), 250, 2.0));
        // Reports from other subcommands are named, not mis-parsed.
        let err = explain_semantics(SAMPLE, "bench.json").unwrap_err();
        assert!(err.contains("bench.json"), "{err}");
        assert!(explain_semantics("not json", "x").is_err());
    }

    #[test]
    fn explain_drift_catches_structure_and_eps_changes_only() {
        let base = explain_semantics(EXPLAIN_SAMPLE, "a").unwrap();
        assert!(explain_drift(&base, &base).is_empty());
        // ε within 1e-9 relative tolerance is not drift.
        let mut wiggled = base.clone();
        wiggled.predicted_total += 1e-12;
        wiggled.aggregations[0].4 += 1e-12;
        assert!(explain_drift(&wiggled, &base).is_empty());
        // A changed predicted ε is.
        let mut eps = base.clone();
        eps.paths[0].2 = 1.5;
        let drift = explain_drift(&eps, &base);
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(drift[0].contains("part[*]"), "{drift:?}");
        // So are a lost aggregation site and a renamed path.
        let mut fewer = base.clone();
        fewer.aggregations.pop();
        assert!(explain_drift(&fewer, &base)
            .iter()
            .any(|d| d.contains("aggregation sites")));
        let mut renamed = base.clone();
        renamed.paths[1].0 = "scale(x2)/root".to_string();
        assert!(!explain_drift(&renamed, &base).is_empty());
    }

    #[test]
    fn fixture_check_accepts_the_current_schema_only() {
        let current = format!("{{\"schema_version\":{SCHEMA_VERSION},\"target\":\"baseline\"}}");
        assert!(check_fixture_text("BENCH_baseline.json", &current).is_ok());
        // An older version and a pre-versioned report are both stale.
        let old = "{\"schema_version\":1,\"target\":\"baseline\"}";
        let reason = check_fixture_text("BENCH_baseline.json", old).unwrap_err();
        assert!(reason.contains("schema_version 1"), "{reason}");
        let reason = check_fixture_text("BENCH_baseline.json", SAMPLE).unwrap_err();
        assert!(reason.contains("no schema_version"), "{reason}");
    }

    #[test]
    fn serve_fixtures_require_the_latency_section() {
        // Right version but no percentiles: not a serve report.
        let bare = format!("{{\"schema_version\":{SCHEMA_VERSION},\"target\":\"serve\"}}");
        let reason = check_fixture_text("BENCH_serve.json", &bare).unwrap_err();
        assert!(reason.contains("latency"), "{reason}");
        // The same text is fine for a non-serve report.
        assert!(check_fixture_text("BENCH_baseline.json", &bare).is_ok());
        let full = format!(
            "{{\"schema_version\":{SCHEMA_VERSION},\"target\":\"serve\",\
             \"experiments\":[{{\"id\":\"loadtest\",\"wall_ns\":1,\"eps_charged\":0.5,\
             \"phases\":[],\"attribution\":[],\"latency\":{{\"sessions\":4,\
             \"requests\":16,\"ok\":12,\"budget_exhausted\":4,\"invalid\":0,\
             \"p50_ns\":100,\"p95_ns\":200,\"p99_ns\":300,\"max_ns\":400}}}}]}}"
        );
        let status = check_fixture_text("BENCH_serve.json", &full).unwrap();
        assert!(status.contains("latency percentiles present"), "{status}");
    }

    #[test]
    fn profile_fixtures_require_attribution() {
        let report = |attribution: &str| {
            format!(
                "{{\"schema_version\":{SCHEMA_VERSION},\"target\":\"fig1-w4\",\
                 \"experiments\":[{{\"id\":\"fig1\",\"wall_ns\":1,\"eps_charged\":6,\
                 \"phases\":[],\"attribution\":[{attribution}]}}]}}"
            )
        };
        // What `repro --workers 4 fig1` writes: the profile's name, no spans.
        let reason = check_fixture_text("BENCH_fig1-w4.json", &report("")).unwrap_err();
        assert!(reason.contains("repro --workers N"), "{reason}");
        // What `dpnet profile fig1 --workers 4` writes.
        let profiled = report("{\"name\":\"group_by\",\"count\":1,\"total_ns\":9,\"self_ns\":9}");
        let status = check_fixture_text("BENCH_fig1-w4.json", &profiled).unwrap();
        assert!(status.contains("attribution present"), "{status}");
        // Reports that are not profiles may carry empty attribution.
        assert!(check_fixture_text("BENCH_baseline.json", &report("")).is_ok());
    }

    #[test]
    fn oversubscribed_profile_fixtures_draw_a_warning() {
        let report = |nproc: &str| {
            format!(
                "{{\"schema_version\":{SCHEMA_VERSION},\"workers\":4,{nproc}\"experiments\":[]}}"
            )
        };
        let warning = oversubscription_warning("BENCH_fig1-w4.json", &report("\"nproc\":2,"));
        assert_eq!(
            warning.as_deref(),
            Some("recorded with 4 workers on 2 CPUs (oversubscribed)")
        );
        assert_eq!(
            oversubscription_warning("BENCH_fig1-w4.json", &report("\"nproc\":4,")),
            None
        );
        // Fixtures from before `nproc` was recorded, and reports that are
        // not per-worker profiles, draw none.
        assert_eq!(
            oversubscription_warning("BENCH_fig1-w4.json", &report("")),
            None
        );
        assert_eq!(
            oversubscription_warning("BENCH_baseline.json", &report("\"nproc\":1,")),
            None
        );
    }

    #[test]
    fn fixture_check_round_trips_explain_fixtures_through_the_parser() {
        let status = check_fixture_text("GOLDEN_explain_fig1.json", EXPLAIN_SAMPLE).unwrap();
        assert!(status.contains("2 aggregation sites"), "{status}");
        let reason =
            check_fixture_text("GOLDEN_explain_fig1.json", "{\"explain\":\"x\"}").unwrap_err();
        assert!(reason.contains("explain report"), "{reason}");
    }

    #[test]
    fn regenerate_hints_name_the_producing_command() {
        assert!(regenerate_hint("BENCH_baseline.json").contains("bench_guard -- record"));
        let serve = regenerate_hint("BENCH_serve.json");
        assert!(serve.contains("dpnet -- loadtest"), "{serve}");
        assert!(serve.contains("--report-dir bench-reports"), "{serve}");
        let golden = regenerate_hint("GOLDEN_fig1.json");
        assert!(golden.contains("repro -- fig1"), "{golden}");
        assert!(
            golden.contains("cp bench-reports/BENCH_fig1.json"),
            "{golden}"
        );
        let explain = regenerate_hint("GOLDEN_explain_fig1.json");
        assert!(explain.contains("explain fig1 --format json"), "{explain}");
        let profile = regenerate_hint("BENCH_fig1-w4.json");
        assert!(
            profile.contains("dpnet -- profile fig1 --workers 4"),
            "{profile}"
        );
        // A multi-experiment `repro --workers 4` report is not a profile.
        let multi = regenerate_hint("BENCH_fig1-itemsets-worm-w4.json");
        assert!(multi.contains("with the tool"), "{multi}");
    }

    #[test]
    fn record_check_covers_every_report_and_golden() {
        for name in [
            "BENCH_baseline.json",
            "BENCH_fig1-w1.json",
            "BENCH_worm-w4.json",
            "BENCH_serve.json",
            "GOLDEN_fig1.json",
            "GOLDEN_explain_fig1.json",
        ] {
            assert!(is_checked_fixture(name), "{name}");
        }
        for name in [
            "PROFILE_worm-w4.txt",
            "EXPLAIN_fig1.txt",
            "trace_fig1-w1.json",
        ] {
            assert!(!is_checked_fixture(name), "{name}");
        }
    }

    #[test]
    fn float_fields_parse_with_fractions_and_exponents() {
        let json = r#"{"experiments":[{"id":"a","eps_charged":6.000000000000003,
            "phases":[{"name":"p","eps_spent":1e-9},{"name":"absent"}]}]}"#;
        let e = &Report::parse(json).unwrap().experiments[0];
        assert_eq!(e.eps_charged, 6.000000000000003);
        assert_eq!(e.phases, vec![("p".to_string(), 1e-9)]);
    }
}

//! CLI subcommand implementations. Each returns its report as a `String`
//! so the logic is unit-testable without process spawning.

use crate::args::Args;
use dpnet_bench::registry;
use dpnet_trace::format::{read_text, read_trace, write_text, write_trace};
use dpnet_trace::gen::hotspot::{generate, HotspotConfig};
use dpnet_trace::{FlowKey, Packet};
use pinq::{Accountant, NoiseSource, Queryable};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::File;
use std::path::Path;

fn extension(path: &str) -> Option<&str> {
    Path::new(path).extension().and_then(|e| e.to_str())
}

/// Load a trace, dispatching on extension: `.txt` is the text format,
/// `.pcap` is libpcap, anything else the native binary format.
pub fn load_trace(path: &str) -> Result<Vec<Packet>, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    match extension(path) {
        Some("txt") => read_text(file).map_err(|e| e.to_string()),
        Some("pcap") => dpnet_trace::format::read_pcap(file).map_err(|e| e.to_string()),
        _ => read_trace(file).map_err(|e| e.to_string()),
    }
}

/// Store a trace, dispatching on extension like [`load_trace`].
pub fn store_trace(path: &str, packets: &[Packet]) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    match extension(path) {
        Some("txt") => write_text(file, packets).map_err(|e| e.to_string()),
        Some("pcap") => dpnet_trace::format::write_pcap(file, packets).map_err(|e| e.to_string()),
        _ => write_trace(file, packets).map_err(|e| e.to_string()),
    }
}

/// `dpnet generate <out> [--seed N] [--flows N]` — synthesize a Hotspot
/// trace and write it out.
pub fn generate_cmd(args: &Args) -> Result<String, String> {
    let out = args.positional(0, "output file")?;
    let seed: u64 = args.flag_or("seed", 0x00d0_9e75u64)?;
    let flows: usize = args.flag_or("flows", 1000usize)?;
    let trace = generate(HotspotConfig {
        seed,
        web_flows: flows,
        ..HotspotConfig::default()
    });
    store_trace(out, &trace.packets)?;
    Ok(format!(
        "wrote {} packets to {out} (seed {seed}, {flows} web flows)",
        trace.packets.len()
    ))
}

/// `dpnet convert <in> <out>` — re-encode between the binary and text
/// formats (direction chosen by file extensions).
pub fn convert_cmd(args: &Args) -> Result<String, String> {
    let input = args.positional(0, "input file")?;
    let output = args.positional(1, "output file")?;
    let packets = load_trace(input)?;
    store_trace(output, &packets)?;
    Ok(format!(
        "converted {} packets: {input} → {output}",
        packets.len()
    ))
}

/// Owner-side (non-private) trace summary for `dpnet inspect <file>`.
pub fn inspect_packets(packets: &[Packet]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "packets: {}", packets.len());
    if packets.is_empty() {
        return out;
    }
    let first = packets.iter().map(|p| p.ts_us).min().unwrap_or(0);
    let last = packets.iter().map(|p| p.ts_us).max().unwrap_or(0);
    let _ = writeln!(out, "duration: {:.1} s", (last - first) as f64 / 1e6);
    let flows: std::collections::HashSet<FlowKey> =
        packets.iter().map(|p| FlowKey::of(p).canonical()).collect();
    let _ = writeln!(out, "conversations: {}", flows.len());
    let bytes: u64 = packets.iter().map(|p| p.len as u64).sum();
    let _ = writeln!(out, "bytes: {bytes}");
    let mut ports: HashMap<u16, usize> = HashMap::new();
    for p in packets {
        *ports.entry(p.dst_port).or_default() += 1;
    }
    let mut top: Vec<(u16, usize)> = ports.into_iter().collect();
    top.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    let _ = writeln!(out, "top destination ports:");
    for (port, n) in top.into_iter().take(5) {
        let _ = writeln!(out, "  {port:>5}: {n}");
    }
    out
}

/// `dpnet inspect <file>`.
pub fn inspect_cmd(args: &Args) -> Result<String, String> {
    let path = args.positional(0, "trace file")?;
    let packets = load_trace(path)?;
    Ok(inspect_packets(&packets))
}

/// Run one named analysis from the shared registry against an
/// already-protected trace, returning its report text. Shared by
/// `analyze` and `audit`, and the same catalogue the serving daemon
/// exposes — one definition, three frontends.
fn run_query(q: &Queryable<Packet>, query: &str, eps: f64) -> Result<String, String> {
    let analysis = registry::find(query).ok_or_else(|| {
        format!(
            "unknown query '{query}' (one of: {})",
            registry::names().join(", ")
        )
    })?;
    analysis
        .run(q, eps)
        .map(|out| out.text)
        .map_err(|e| e.to_string())
}

/// Build the accountant/noise/queryable triple shared by the private
/// subcommands. `seed == 0` means fresh entropy.
fn protect(
    packets: Vec<Packet>,
    budget_eps: f64,
    seed: u64,
    label: Option<&str>,
) -> (Accountant, Queryable<Packet>) {
    let budget = Accountant::new(budget_eps);
    let noise = if seed == 0 {
        NoiseSource::from_entropy()
    } else {
        NoiseSource::seeded(seed)
    };
    let mut q = Queryable::new(packets, &budget, &noise);
    if let Some(label) = label {
        q = q.with_label(label);
    }
    (budget, q)
}

/// Write the accountant's JSONL audit ledger to `path`.
fn write_audit(budget: &Accountant, path: &str) -> Result<(), String> {
    let mut file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    budget
        .export_audit_jsonl(&mut file)
        .map_err(|e| format!("cannot write {path}: {e}"))
}

/// `dpnet analyze <file> <query> [--budget E] [--eps E] [--seed N]
/// [--label L] [--audit-out FILE]` — run a private analysis. Queries:
/// `count`, `lengths`, `ports`, `rtt`, `loss`, `heavy-hosts`.
pub fn analyze_cmd(args: &Args) -> Result<String, String> {
    let path = args.positional(0, "trace file")?;
    let query = args.positional(1, "query")?.to_string();
    let budget_eps: f64 = args.flag_or("budget", 1.0f64)?;
    let eps: f64 = args.flag_or("eps", 0.1f64)?;
    let seed: u64 = args.flag_or("seed", 0u64)?;

    let packets = load_trace(path)?;
    let (budget, q) = protect(
        packets,
        budget_eps,
        seed,
        args.flags.get("label").map(|s| s.as_str()),
    );
    let mut out = run_query(&q, &query, eps)?;
    let _ = writeln!(
        out,
        "budget: spent {:.3} of {:.3}",
        budget.spent(),
        budget.total()
    );
    if let Some(audit_path) = args.flags.get("audit-out") {
        write_audit(&budget, audit_path)?;
        let _ = writeln!(out, "audit ledger written to {audit_path}");
    }
    Ok(out)
}

/// Tail a JSONL audit stream: print complete lines as they are appended.
/// Stops after `max_lines` lines (0 = unlimited) or once no new data
/// arrived for `idle_ms` milliseconds (0 = wait forever). Returns the
/// number of lines emitted. Malformed (non-JSON) lines are still printed
/// but flagged, so a corrupted stream is visible instead of silent.
pub fn follow_file(
    path: &Path,
    max_lines: u64,
    idle_ms: u64,
    out: &mut dyn std::io::Write,
) -> Result<u64, String> {
    use std::io::Read as _;
    let poll = std::time::Duration::from_millis(25);
    let mut file = File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let mut pending = String::new();
    let mut printed = 0u64;
    let mut idle = std::time::Duration::ZERO;
    loop {
        let mut chunk = String::new();
        file.read_to_string(&mut chunk)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        if chunk.is_empty() {
            if idle_ms > 0 && idle.as_millis() as u64 >= idle_ms {
                return Ok(printed);
            }
            std::thread::sleep(poll);
            idle += poll;
            continue;
        }
        idle = std::time::Duration::ZERO;
        pending.push_str(&chunk);
        while let Some(nl) = pending.find('\n') {
            let line: String = pending.drain(..=nl).collect();
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let annotation = if dpnet_obs::json::parse_value(line).is_none() {
                "  <- not valid JSON"
            } else {
                ""
            };
            writeln!(out, "{line}{annotation}").map_err(|e| format!("cannot write output: {e}"))?;
            printed += 1;
            if max_lines > 0 && printed >= max_lines {
                return Ok(printed);
            }
        }
    }
}

/// `dpnet audit --follow <file.jsonl> [--max-lines N] [--idle-ms M]` —
/// tail an audit JSONL stream (e.g. a serving daemon's per-session file)
/// live, like `tail -f`. The file may ride on the flag
/// (`--follow file.jsonl`) or stand as the positional argument.
fn audit_follow_cmd(args: &Args, flag_value: &str) -> Result<String, String> {
    let path = if flag_value == "true" {
        args.positional(0, "audit JSONL file")?.to_string()
    } else {
        flag_value.to_string()
    };
    let max_lines: u64 = args.flag_or("max-lines", 0u64)?;
    let idle_ms: u64 = args.flag_or("idle-ms", 0u64)?;
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    let printed = follow_file(Path::new(&path), max_lines, idle_ms, &mut lock)?;
    Ok(format!("followed {printed} line(s) from {path}"))
}

/// `dpnet audit <file> <query> [--budget E] [--eps E] [--seed N]
/// [--label L] [--out FILE]` — run a private analysis and report the
/// owner-side view: per-operator ε spend (with provenance-exact totals
/// that sum to the accountant's reading), ledger retention, and optionally
/// the full JSONL audit export. With `--follow`, tail an audit JSONL file
/// instead (see [`follow_file`]).
pub fn audit_cmd(args: &Args) -> Result<String, String> {
    if let Some(v) = args.flags.get("follow") {
        let v = v.clone();
        return audit_follow_cmd(args, &v);
    }
    let path = args.positional(0, "trace file")?;
    let query = args.positional(1, "query")?.to_string();
    let budget_eps: f64 = args.flag_or("budget", 1.0f64)?;
    let eps: f64 = args.flag_or("eps", 0.1f64)?;
    let seed: u64 = args.flag_or("seed", 0u64)?;
    let label = args
        .flags
        .get("label")
        .cloned()
        .unwrap_or_else(|| query.clone());

    let packets = load_trace(path)?;
    let (budget, q) = protect(packets, budget_eps, seed, Some(&label));
    let analysis = run_query(&q, &query, eps)?;

    let mut out = analysis;
    let _ = writeln!(out, "per-operator ε spend (label '{label}'):");
    let totals = budget.operator_totals();
    let mut sum = 0.0;
    for (op, t) in &totals {
        sum += t.epsilon;
        // Raw float formatting: the audit view must be exact, not rounded.
        let _ = writeln!(
            out,
            "  {:<16} eps {}  ({} charges)",
            op, t.epsilon, t.entries
        );
    }
    let _ = writeln!(out, "  {:<16} eps {}", "total", sum);
    let _ = writeln!(
        out,
        "accountant: spent {} of {} ({} ledger entries retained, {} evicted)",
        budget.spent(),
        budget.total(),
        budget.audit_log().len(),
        budget.evicted_entries()
    );
    if let Some(out_path) = args.flags.get("out") {
        write_audit(&budget, out_path)?;
        let _ = writeln!(out, "audit ledger written to {out_path}");
    }
    Ok(out)
}

/// `dpnet classify <file> [--rules FILE] [--eps E] [--budget E] [--seed N]`
/// — private per-rule traffic shares under a classification policy.
pub fn classify_cmd(args: &Args) -> Result<String, String> {
    use dpnet_analyses::classification::rule_traffic;
    use dpnet_trace::classify::{example_ruleset, Classifier};

    let path = args.positional(0, "trace file")?;
    let budget_eps: f64 = args.flag_or("budget", 1.0f64)?;
    let eps: f64 = args.flag_or("eps", 0.1f64)?;
    let seed: u64 = args.flag_or("seed", 0u64)?;
    let classifier = match args.flags.get("rules") {
        Some(rule_path) => {
            let text = std::fs::read_to_string(rule_path)
                .map_err(|e| format!("cannot read {rule_path}: {e}"))?;
            Classifier::parse(&text)?
        }
        None => example_ruleset(),
    };

    let packets = load_trace(path)?;
    let (budget, q) = protect(
        packets,
        budget_eps,
        seed,
        args.flags.get("label").map(|s| s.as_str()),
    );
    let shares = rule_traffic(&q, &classifier, 1500.0, eps).map_err(|e| e.to_string())?;

    let mut out = String::new();
    let _ = writeln!(out, "per-rule traffic (private, eps={eps}):");
    for s in &shares {
        let _ = writeln!(
            out,
            "  {:<12} packets ≈ {:>12.1}   bytes ≈ {:>15.0}",
            s.rule, s.packets, s.bytes
        );
    }
    let _ = writeln!(
        out,
        "budget: spent {:.3} of {:.3}",
        budget.spent(),
        budget.total()
    );
    if let Some(audit_path) = args.flags.get("audit-out") {
        write_audit(&budget, audit_path)?;
        let _ = writeln!(out, "audit ledger written to {audit_path}");
    }
    Ok(out)
}

/// `dpnet profile <experiment> [--workers N] [--trace-out FILE]
/// [--max-overhead R] [--report-dir DIR] [--spans full|agg]` — run one
/// paper experiment with the span profiler installed, write the
/// attribution-bearing `BENCH_<experiment>-wN.json` report, and optionally
/// a Chrome-trace JSON loadable in Perfetto (`ui.perfetto.dev`) or
/// `chrome://tracing`. `--spans agg` folds the high-frequency aggregation
/// spans into count + total-ns rows per charge path instead of recording
/// each one (attribution tables and traces keep working; large partitioned
/// runs stop materializing millions of span records).
pub fn profile_cmd(args: &Args) -> Result<String, String> {
    use dpnet_bench::profile::{run_profiled, ProfileConfig, IDS};
    use dpnet_obs::SpanMode;
    use std::path::PathBuf;

    let experiment = args.positional(0, "experiment")?;
    if !IDS.contains(&experiment) {
        return Err(format!(
            "unknown experiment '{experiment}' (one of: {})",
            IDS.join(" ")
        ));
    }
    let workers: usize = args.flag_or("workers", 1usize)?;
    let max_overhead = match args.flags.get("max-overhead") {
        Some(raw) => Some(
            raw.parse::<f64>()
                .map_err(|_| format!("invalid value '{raw}' for --max-overhead"))?,
        ),
        None => None,
    };
    let span_mode = match args
        .flags
        .get("spans")
        .map(String::as_str)
        .unwrap_or("full")
    {
        "full" => SpanMode::Full,
        "agg" => SpanMode::Aggregate,
        other => return Err(format!("invalid value '{other}' for --spans (full|agg)")),
    };
    let cfg = ProfileConfig {
        experiment: experiment.to_string(),
        workers,
        report_dir: PathBuf::from(
            args.flags
                .get("report-dir")
                .map(String::as_str)
                .unwrap_or("bench-reports"),
        ),
        trace_out: args.flags.get("trace-out").map(PathBuf::from),
        max_overhead,
        span_mode,
    };
    let outcome = run_profiled(&cfg)?;

    let mut out = String::new();
    let _ = writeln!(out, "{}", outcome.output.trim_end());
    if !outcome.attribution.is_empty() {
        let _ = writeln!(out, "\n{}", outcome.attribution.trim_end());
    }
    let _ = writeln!(
        out,
        "\nprofiled {experiment} at {workers} worker(s): {} spans in {:.1} ms",
        outcome.spans,
        outcome.profiled_wall_ns as f64 / 1e6
    );
    if outcome.aggregated > 0 {
        let _ = writeln!(
            out,
            "aggregated spans: {} (name, charge path) rows folded (--spans agg)",
            outcome.aggregated
        );
    }
    if let (Some(base), Some(overhead)) = (outcome.baseline_wall_ns, outcome.overhead()) {
        let _ = writeln!(
            out,
            "profiler overhead: {:+.1}% (unprofiled baseline {:.1} ms)",
            overhead * 100.0,
            base as f64 / 1e6
        );
    }
    let _ = writeln!(out, "run report: {}", outcome.report_path.display());
    if let Some(trace) = &outcome.trace_path {
        let _ = writeln!(
            out,
            "trace: {} (load in ui.perfetto.dev or chrome://tracing)",
            trace.display()
        );
    }
    Ok(out)
}

/// `dpnet explain <experiment> [--analyze] [--format tree|dot|json]
/// [--workers N] [--out FILE] [--trace-out FILE]` — EXPLAIN / EXPLAIN
/// ANALYZE: run one paper experiment with the charge-path recorder
/// installed and report every aggregation site's predicted ε per budget
/// root. With `--analyze`, the run is also profiled and the report gains
/// measured ε, span self-time, and plan-materialization stats; with
/// `--trace-out`, the Chrome trace includes ε burn-down counter tracks.
pub fn explain_cmd(args: &Args) -> Result<String, String> {
    use dpnet_bench::explain::{run_explained, ExplainConfig, ExplainFormat};
    use dpnet_bench::profile::IDS;
    use std::path::PathBuf;

    let experiment = args.positional(0, "experiment")?;
    if !IDS.contains(&experiment) {
        return Err(format!(
            "unknown experiment '{experiment}' (one of: {})",
            IDS.join(" ")
        ));
    }
    let workers: usize = args.flag_or("workers", 1usize)?;
    let analyze: bool = args.flag_or("analyze", false)?;
    let format = ExplainFormat::parse(
        args.flags
            .get("format")
            .map(String::as_str)
            .unwrap_or("tree"),
    )?;
    let trace_out = args.flags.get("trace-out").map(PathBuf::from);
    if trace_out.is_some() && !analyze {
        return Err("--trace-out needs --analyze (the trace comes from the profiled run)".into());
    }
    let cfg = ExplainConfig {
        experiment: experiment.to_string(),
        workers,
        analyze,
        trace_out,
    };
    let outcome = run_explained(&cfg)?;
    let rendered = outcome.render(format);

    let mut out = String::new();
    match args.flags.get("out") {
        Some(path) => {
            if let Some(dir) = Path::new(path)
                .parent()
                .filter(|d| !d.as_os_str().is_empty())
            {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            }
            std::fs::write(path, &rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
            let _ = writeln!(out, "explain report written to {path}");
        }
        None => {
            out.push_str(&rendered);
            if !rendered.ends_with('\n') {
                out.push('\n');
            }
        }
    }
    if let Some(trace) = &outcome.trace_path {
        let _ = writeln!(
            out,
            "trace: {} (load in ui.perfetto.dev or chrome://tracing)",
            trace.display()
        );
    }
    Ok(out)
}

/// Build the noise source the serving commands share: seed 0 means fresh
/// entropy, anything else a fixed deterministic stream.
fn noise_from_seed(seed: u64) -> NoiseSource {
    if seed == 0 {
        NoiseSource::from_entropy()
    } else {
        NoiseSource::seeded(seed)
    }
}

/// `dpnet serve <trace> [--addr A] [--global-eps G] [--analyst-cap C]
/// [--workers N] [--jobs J] [--seed N] [--audit-dir DIR]
/// [--duration-s S]` — load the protected trace once and serve concurrent
/// analyst sessions over length-framed JSON-over-TCP. Foreground: blocks
/// until killed, or for `--duration-s` seconds when given (then prints
/// the owner's ledger).
pub fn serve_cmd(args: &Args) -> Result<String, String> {
    use dpnet_serve::{serve, shard_packets, ServeConfig};
    use std::path::PathBuf;

    let path = args.positional(0, "trace file")?;
    let addr = args
        .flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7070".to_string());
    let global_eps: f64 = args.flag_or("global-eps", 10.0f64)?;
    let analyst_cap: f64 = args.flag_or("analyst-cap", 1.0f64)?;
    let workers: usize = args.flag_or("workers", 0usize)?;
    let jobs: usize = args.flag_or("jobs", 8usize)?;
    let seed: u64 = args.flag_or("seed", 0u64)?;
    let duration_s: f64 = args.flag_or("duration-s", 0.0f64)?;
    let audit_dir = args.flags.get("audit-dir").map(PathBuf::from);

    let packets = load_trace(path)?;
    let loaded = packets.len();
    let handle = serve(
        shard_packets(packets),
        noise_from_seed(seed),
        ServeConfig {
            addr,
            global_eps,
            analyst_cap,
            workers,
            max_concurrent_jobs: jobs,
            audit_dir,
        },
    )
    .map_err(|e| format!("cannot start daemon: {e}"))?;
    // Announce readiness on stdout immediately: scripts wait for this line.
    println!(
        "dpnet-serve listening on {} ({loaded} packets, global ε {global_eps}, analyst cap {analyst_cap}, {workers} workers)",
        handle.addr()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    if duration_s > 0.0 {
        std::thread::sleep(std::time::Duration::from_secs_f64(duration_s));
        let broker = handle.broker().clone();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "daemon stopped after {duration_s} s: {} live session(s), global ε spent {} of {}",
            broker.live_sessions(),
            broker.manager().global().spent(),
            broker.manager().global().total()
        );
        for (analyst, spent) in broker.ledger() {
            let _ = writeln!(out, "  {analyst:<20} ε {spent}");
        }
        handle.shutdown();
        Ok(out)
    } else {
        handle.join();
        Ok("daemon stopped".to_string())
    }
}

/// `dpnet loadtest [--sessions N] [--requests N] [--analysts N]
/// [--analysis NAME] [--eps E] [--addr A] [--flows N] [--global-eps G]
/// [--analyst-cap C] [--workers N] [--jobs J] [--seed N]
/// [--report-dir DIR]` — drive N concurrent analyst sessions. Without
/// `--addr` it spins up an in-process daemon over a synthetic trace
/// (fully reproducible via `--seed`); with `--addr` it targets a running
/// daemon. Writes latency percentiles into `BENCH_serve.json` when
/// `--report-dir` is given. Fails if any session hits an *unexpected*
/// error — graceful `budget_exhausted` refusals are counted, not failed.
pub fn loadtest_cmd(args: &Args) -> Result<String, String> {
    use dpnet_bench::report::RunReport;
    use dpnet_serve::loadtest::LoadtestConfig;
    use dpnet_serve::{run_loadtest, serve, shard_packets, ServeConfig};
    use dpnet_trace::gen::hotspot::{generate, HotspotConfig};
    use std::path::PathBuf;

    let cfg = LoadtestConfig {
        sessions: args.flag_or("sessions", 64usize)?,
        requests: args.flag_or("requests", 4usize)?,
        analysts: args.flag_or("analysts", 8usize)?,
        analysis: args
            .flags
            .get("analysis")
            .cloned()
            .unwrap_or_else(|| "count".to_string()),
        eps: args.flag_or("eps", 0.01f64)?,
    };
    let workers: usize = args.flag_or("workers", 0usize)?;
    let seed: u64 = args.flag_or("seed", 0x10adu64)?;

    // Either drive an external daemon or bring one up in-process.
    let (outcome, eps_charged) = match args.flags.get("addr") {
        Some(addr) => {
            let addr: std::net::SocketAddr = addr
                .parse()
                .map_err(|e| format!("invalid --addr '{addr}': {e}"))?;
            let outcome = run_loadtest(addr, &cfg).map_err(|e| e.to_string())?;
            (outcome, f64::NAN) // the remote owner holds the ledger
        }
        None => {
            let flows: usize = args.flag_or("flows", 200usize)?;
            let trace = generate(HotspotConfig {
                seed,
                web_flows: flows,
                ..HotspotConfig::default()
            });
            let handle = serve(
                shard_packets(trace.packets),
                noise_from_seed(seed),
                ServeConfig {
                    addr: "127.0.0.1:0".to_string(),
                    global_eps: args.flag_or("global-eps", 50.0f64)?,
                    analyst_cap: args.flag_or("analyst-cap", 5.0f64)?,
                    workers,
                    max_concurrent_jobs: args.flag_or("jobs", 8usize)?,
                    audit_dir: args.flags.get("audit-dir").map(PathBuf::from),
                },
            )
            .map_err(|e| format!("cannot start daemon: {e}"))?;
            let outcome = run_loadtest(handle.addr(), &cfg).map_err(|e| e.to_string())?;
            let spent = handle.broker().manager().global().spent();
            handle.shutdown();
            (outcome, spent)
        }
    };

    let summary = outcome.summary();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "loadtest: {} session(s), {} request(s) in {:.1} ms",
        summary.sessions,
        summary.requests,
        outcome.wall.as_secs_f64() * 1e3
    );
    let _ = writeln!(
        out,
        "  ok {}  budget_exhausted {}  invalid {}",
        summary.ok, summary.budget_exhausted, summary.invalid
    );
    let _ = writeln!(
        out,
        "  latency p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  max {:.3} ms",
        summary.p50_ns as f64 / 1e6,
        summary.p95_ns as f64 / 1e6,
        summary.p99_ns as f64 / 1e6,
        summary.max_ns as f64 / 1e6
    );
    if eps_charged.is_finite() {
        let _ = writeln!(out, "  global ε charged: {eps_charged}");
    }

    if let Some(dir) = args.flags.get("report-dir") {
        let mut report = RunReport::new("serve");
        report.set_workers(workers.max(1));
        report.record_latency(
            "serve-loadtest",
            outcome.wall.as_nanos() as u64,
            if eps_charged.is_finite() {
                eps_charged
            } else {
                0.0
            },
            summary,
        );
        let path = report
            .write_json(Path::new(dir))
            .map_err(|e| format!("cannot write report: {e}"))?;
        let _ = writeln!(out, "  report: {}", path.display());
    }

    if !outcome.errors.is_empty() {
        let mut msg = format!(
            "loadtest hit {} unexpected error(s):\n",
            outcome.errors.len()
        );
        for e in outcome.errors.iter().take(10) {
            let _ = writeln!(msg, "  {e}");
        }
        msg.push_str(&out);
        return Err(msg);
    }
    Ok(out)
}

/// Usage text.
pub fn usage() -> String {
    "dpnet — differentially-private network trace analysis\n\
     \n\
     usage: dpnet <command> [args]\n\
     \n\
     commands:\n\
       generate <out> [--seed N] [--flows N]   synthesize a hotspot trace\n\
       convert  <in> <out>                     re-encode (.txt text, .pcap libpcap, else binary)\n\
       inspect  <file>                         owner-side summary (non-private)\n\
       analyze  <file> <query> [--budget E] [--eps E] [--seed N] [--label L] [--audit-out FILE]\n\
                queries: count lengths ports rtt loss heavy-hosts retx-cdf itemsets worm\n\
       classify <file> [--rules FILE] [--budget E] [--eps E] [--seed N] [--audit-out FILE]\n\
                private per-rule traffic shares\n\
       audit    <file> <query> [--budget E] [--eps E] [--seed N] [--label L] [--out FILE]\n\
                run a query, then print the owner-side per-operator \u{3b5} ledger\n\
       audit    --follow <file.jsonl> [--max-lines N] [--idle-ms M]\n\
                tail an audit JSONL stream live (e.g. a serve session file)\n\
       serve    <trace> [--addr A] [--global-eps G] [--analyst-cap C] [--workers N]\n\
                [--jobs J] [--seed N] [--audit-dir DIR] [--duration-s S]\n\
                daemon: concurrent analyst sessions over JSON-over-TCP,\n\
                budget-mediated; per-session audit JSONL in --audit-dir\n\
       loadtest [--sessions N] [--requests N] [--analysts N] [--analysis NAME]\n\
                [--eps E] [--addr A] [--report-dir DIR] [--seed N]\n\
                drive N concurrent analyst sessions (in-process daemon\n\
                unless --addr); writes BENCH_serve.json latency percentiles\n\
       profile  <experiment> [--workers N] [--trace-out FILE] [--max-overhead R]\n\
                [--spans full|agg]\n\
                run a paper experiment under the span profiler; writes\n\
                bench-reports/BENCH_<experiment>-wN.json and a Perfetto trace;\n\
                --spans agg folds high-frequency aggregation spans into\n\
                count + total-ns rows per charge path\n\
       explain  <experiment> [--analyze] [--format tree|dot|json] [--workers N]\n\
                [--out FILE] [--trace-out FILE]\n\
                EXPLAIN / EXPLAIN ANALYZE: predicted \u{3b5} per charge path and\n\
                aggregation site; --analyze overlays measured \u{3b5}, self time,\n\
                and plan stats, and puts \u{3b5} burn-down counters in the trace\n"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("dpnet-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn profile_rejects_unknown_experiments_and_bad_flags() {
        let err = profile_cmd(&args(&["profile", "nope"])).unwrap_err();
        assert!(err.contains("unknown experiment"), "{err}");
        assert!(err.contains("fig1"), "error should list valid ids: {err}");
        let err = profile_cmd(&args(&["profile", "fig1", "--max-overhead", "lots"])).unwrap_err();
        assert!(err.contains("--max-overhead"), "{err}");
        assert!(profile_cmd(&args(&["profile"])).is_err());
    }

    #[test]
    fn explain_rejects_unknown_experiments_formats_and_flag_combos() {
        let err = explain_cmd(&args(&["explain", "nope"])).unwrap_err();
        assert!(err.contains("unknown experiment"), "{err}");
        let err = explain_cmd(&args(&["explain", "fig1", "--format", "yaml"])).unwrap_err();
        assert!(err.contains("unknown explain format"), "{err}");
        let err = explain_cmd(&args(&["explain", "fig1", "--trace-out", "t.json"])).unwrap_err();
        assert!(err.contains("--analyze"), "{err}");
        assert!(explain_cmd(&args(&["explain"])).is_err());
    }

    #[test]
    fn explain_writes_a_parseable_json_report() {
        let path = tmp("t11.explain.json");
        let report = explain_cmd(&args(&[
            "explain",
            "example23",
            "--format",
            "json",
            "--out",
            &path,
        ]))
        .unwrap();
        assert!(report.contains("explain report written"), "{report}");
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = dpnet_obs::json::parse_value(&text).expect("valid JSON");
        assert_eq!(
            doc.get("explain").and_then(|v| v.as_str()),
            Some("example23")
        );
        assert!(doc
            .get("predicted_total")
            .and_then(|v| v.as_f64())
            .is_some());
        assert!(doc.get("aggregations").is_some());
        // Static explain carries no measured overlay.
        assert!(doc.get("analyze").is_none());
    }

    #[test]
    fn generate_inspect_analyze_round_trip() {
        let path = tmp("t1.dpnt");
        let report =
            generate_cmd(&args(&["generate", &path, "--seed", "5", "--flows", "60"])).unwrap();
        assert!(report.contains("wrote"));

        let summary = inspect_cmd(&args(&["inspect", &path])).unwrap();
        assert!(summary.contains("packets:"));
        assert!(summary.contains("top destination ports"));

        let analysis = analyze_cmd(&args(&[
            "analyze", &path, "count", "--budget", "1.0", "--eps", "0.5", "--seed", "9",
        ]))
        .unwrap();
        assert!(analysis.contains("noisy packet count"));
        assert!(analysis.contains("spent 0.500"));
    }

    #[test]
    fn convert_between_formats() {
        let bin = tmp("t2.dpnt");
        let txt = tmp("t2.txt");
        generate_cmd(&args(&["generate", &bin, "--flows", "20"])).unwrap();
        convert_cmd(&args(&["convert", &bin, &txt])).unwrap();
        let back = tmp("t2back.dpnt");
        convert_cmd(&args(&["convert", &txt, &back])).unwrap();
        assert_eq!(load_trace(&bin).unwrap(), load_trace(&back).unwrap());
    }

    #[test]
    fn convert_to_pcap_and_back_preserves_tcp_fields() {
        let bin = tmp("t6.dpnt");
        let pcap = tmp("t6.pcap");
        generate_cmd(&args(&["generate", &bin, "--flows", "15"])).unwrap();
        convert_cmd(&args(&["convert", &bin, &pcap])).unwrap();
        let original = load_trace(&bin).unwrap();
        let restored = load_trace(&pcap).unwrap();
        assert_eq!(original.len(), restored.len());
        for (a, b) in original.iter().zip(&restored) {
            assert_eq!(a.src_ip, b.src_ip);
            assert_eq!(a.ts_us, b.ts_us);
            assert_eq!(a.payload, b.payload);
        }
    }

    #[test]
    fn classify_reports_rule_shares() {
        let path = tmp("t7.dpnt");
        generate_cmd(&args(&["generate", &path, "--flows", "40"])).unwrap();
        let report =
            classify_cmd(&args(&["classify", &path, "--eps", "0.5", "--seed", "13"])).unwrap();
        assert!(report.contains("web-in"));
        assert!(report.contains("catch-all"));
        assert!(report.contains("spent 1.000")); // 2 × 0.5

        // A custom rule file works too.
        let rules = tmp("t7.rules");
        std::fs::write(&rules, "only-ssh tcp any any -> any 22\n").unwrap();
        let report = classify_cmd(&args(&[
            "classify", &path, "--rules", &rules, "--eps", "0.5", "--seed", "13",
        ]))
        .unwrap();
        assert!(report.contains("only-ssh"));
    }

    #[test]
    fn analyze_respects_budget() {
        let path = tmp("t3.dpnt");
        generate_cmd(&args(&["generate", &path, "--flows", "20"])).unwrap();
        let err = analyze_cmd(&args(&[
            "analyze", &path, "rtt", "--budget", "0.1", "--eps", "0.2", "--seed", "3",
        ]))
        .unwrap_err();
        assert!(err.contains("budget"), "unexpected error: {err}");
    }

    #[test]
    fn unknown_query_and_missing_file_fail_cleanly() {
        let path = tmp("t4.dpnt");
        generate_cmd(&args(&["generate", &path, "--flows", "10"])).unwrap();
        assert!(analyze_cmd(&args(&["analyze", &path, "nonsense"])).is_err());
        assert!(inspect_cmd(&args(&["inspect", "/nonexistent/file.dpnt"])).is_err());
    }

    #[test]
    fn inspect_of_empty_trace() {
        assert!(inspect_packets(&[]).contains("packets: 0"));
    }

    /// Parse the raw-float eps values out of an `audit` report: the
    /// per-operator lines and the `total` line, plus the spent figure.
    fn parse_audit(report: &str) -> (Vec<(String, f64)>, f64, f64) {
        let mut ops = Vec::new();
        let mut total = f64::NAN;
        let mut spent = f64::NAN;
        for line in report.lines() {
            let t = line.trim();
            if let Some(rest) = t.strip_prefix("accountant: spent ") {
                spent = rest.split(' ').next().unwrap().parse().unwrap();
            } else if let Some((name, rest)) = t.split_once(" eps ") {
                let value: f64 = rest.split(' ').next().unwrap().parse().unwrap();
                if name.trim() == "total" {
                    total = value;
                } else {
                    ops.push((name.trim().to_string(), value));
                }
            }
        }
        (ops, total, spent)
    }

    #[test]
    fn audit_per_operator_spend_sums_to_accountant_total() {
        let path = tmp("t8.dpnt");
        generate_cmd(&args(&["generate", &path, "--flows", "40"])).unwrap();
        // rtt exercises a multi-operator chain (join → group_by → counts).
        let report = audit_cmd(&args(&[
            "audit", &path, "rtt", "--budget", "5.0", "--eps", "0.07", "--seed", "21",
        ]))
        .unwrap();
        let (ops, total, spent) = parse_audit(&report);
        assert!(!ops.is_empty(), "no per-operator lines in:\n{report}");
        let sum: f64 = ops.iter().map(|(_, e)| e).sum();
        assert!(
            (sum - spent).abs() < 1e-9,
            "operator sum {sum} vs spent {spent}\n{report}"
        );
        assert!((total - spent).abs() < 1e-9);
        assert!(report.contains("label 'rtt'"));
    }

    #[test]
    fn audit_exports_a_parseable_ledger() {
        let path = tmp("t9.dpnt");
        let ledger = tmp("t9.audit.jsonl");
        generate_cmd(&args(&["generate", &path, "--flows", "30"])).unwrap();
        let report = audit_cmd(&args(&[
            "audit",
            &path,
            "count",
            "--eps",
            "0.25",
            "--seed",
            "3",
            "--out",
            &ledger,
            "--label",
            "session-42",
        ]))
        .unwrap();
        assert!(report.contains("audit ledger written"));
        assert!(report.contains("label 'session-42'"));
        let text = std::fs::read_to_string(&ledger).unwrap();
        let mut saw_summary = false;
        for line in text.lines() {
            let obj = dpnet_obs::json::parse_value(line)
                .unwrap_or_else(|| panic!("unparseable audit line: {line}"));
            if obj["type"].as_str() == Some("summary") {
                saw_summary = true;
                assert!((obj["spent"].as_f64().unwrap() - 0.25).abs() < 1e-9);
            }
        }
        assert!(saw_summary, "no summary line in:\n{text}");
    }

    #[test]
    fn analyze_audit_out_writes_the_ledger() {
        let path = tmp("t10.dpnt");
        let ledger = tmp("t10.audit.jsonl");
        generate_cmd(&args(&["generate", &path, "--flows", "20"])).unwrap();
        let report = analyze_cmd(&args(&[
            "analyze",
            &path,
            "count",
            "--seed",
            "2",
            "--audit-out",
            &ledger,
            "--label",
            "weekly",
        ]))
        .unwrap();
        assert!(report.contains("audit ledger written"));
        let text = std::fs::read_to_string(&ledger).unwrap();
        assert!(text.contains("\"label\":\"weekly\""));
        assert!(text.contains("\"op\":\"noisy_count\""));
    }

    #[test]
    fn follow_tails_lines_appended_while_running() {
        use std::io::Write as _;
        let path = tmp("t12.follow.jsonl");
        std::fs::write(&path, "{\"type\":\"charge\",\"eps\":0.1}\n").unwrap();
        let writer_path = path.clone();
        let writer = std::thread::spawn(move || {
            for i in 0..3 {
                std::thread::sleep(std::time::Duration::from_millis(60));
                let mut f = File::options().append(true).open(&writer_path).unwrap();
                writeln!(f, "{{\"type\":\"charge\",\"eps\":0.{i}}}").unwrap();
            }
            let mut f = File::options().append(true).open(&writer_path).unwrap();
            writeln!(f, "not json at all").unwrap();
        });
        let mut out = Vec::new();
        let printed = follow_file(Path::new(&path), 5, 0, &mut out).unwrap();
        writer.join().unwrap();
        assert_eq!(printed, 5);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 5);
        assert!(
            text.contains("not json at all  <- not valid JSON"),
            "{text}"
        );
    }

    #[test]
    fn follow_stops_when_idle() {
        let path = tmp("t13.follow.jsonl");
        std::fs::write(&path, "{\"a\":1}\n{\"b\":2}\n").unwrap();
        let mut out = Vec::new();
        // No writer: drains the two lines, then gives up after idle-ms.
        let printed = follow_file(Path::new(&path), 0, 120, &mut out).unwrap();
        assert_eq!(printed, 2);
        let report = audit_cmd(&args(&[
            "audit",
            "--follow",
            &path,
            "--max-lines",
            "1",
            "--idle-ms",
            "100",
        ]))
        .unwrap();
        assert!(report.contains("followed 1 line(s)"), "{report}");
    }

    #[test]
    fn loadtest_runs_in_process_and_writes_the_serve_report() {
        let dir = tmp("t14-reports");
        let report = loadtest_cmd(&args(&[
            "loadtest",
            "--sessions",
            "4",
            "--requests",
            "2",
            "--analysts",
            "2",
            "--flows",
            "20",
            "--eps",
            "0.01",
            "--seed",
            "77",
            "--report-dir",
            &dir,
        ]))
        .unwrap();
        assert!(report.contains("4 session(s), 8 request(s)"), "{report}");
        assert!(
            report.contains("ok 8"),
            "all cheap queries succeed: {report}"
        );
        let text = std::fs::read_to_string(Path::new(&dir).join("BENCH_serve.json")).unwrap();
        for key in [
            "\"latency\":",
            "\"p50_ns\":",
            "\"p95_ns\":",
            "\"p99_ns\":",
            "\"sessions\":4",
        ] {
            assert!(text.contains(key), "missing {key} in:\n{text}");
        }
    }

    #[test]
    fn loadtest_counts_budget_exhaustion_gracefully() {
        // Per-analyst cap 0.25 at eps 0.1: each of the 2 analysts affords
        // exactly 2 of its 4 requests (one session per analyst).
        let report = loadtest_cmd(&args(&[
            "loadtest",
            "--sessions",
            "2",
            "--requests",
            "4",
            "--analysts",
            "2",
            "--flows",
            "20",
            "--eps",
            "0.1",
            "--seed",
            "78",
            "--analyst-cap",
            "0.25",
            "--global-eps",
            "10.0",
        ]))
        .unwrap();
        assert!(report.contains("ok 4"), "{report}");
        assert!(report.contains("budget_exhausted 4"), "{report}");
    }

    #[test]
    fn seeded_analyze_is_reproducible() {
        let path = tmp("t5.dpnt");
        generate_cmd(&args(&["generate", &path, "--flows", "30"])).unwrap();
        let a = analyze_cmd(&args(&["analyze", &path, "count", "--seed", "11"])).unwrap();
        let b = analyze_cmd(&args(&["analyze", &path, "count", "--seed", "11"])).unwrap();
        assert_eq!(a, b);
    }
}

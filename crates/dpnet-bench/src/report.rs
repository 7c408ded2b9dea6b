//! Plain-text table rendering and machine-readable run reports.
//!
//! Every experiment prints a paper-style table: a caption referencing the
//! paper artifact it regenerates, column headers, and rows. Keeping the
//! rendering here keeps the experiment code about the experiment.
//!
//! The [`RunReport`] half collects what the observability layer saw while
//! the experiments ran — phase events from the toolkit, charge/aggregate
//! events from the engine — and turns them into the per-phase ε/latency
//! budget report `repro` prints, plus a timestamped `BENCH_<target>.json`
//! for dashboards and regression tracking.

use dpnet_obs::json::{escape, number};
use dpnet_obs::{
    attribution_with_aggregates, unix_time_s, AggregatedSpans, AttributionRow, CompletedSpan,
    Event, MetricsRegistry,
};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// A simple fixed-width text table builder.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (cells are stringified by the caller).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Render with column widths fitted to content.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                line.push_str(&format!("{:<w$}  ", cells[i], w = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * cols;
        out.push_str(&"-".repeat(total.min(100)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Format a float with sensible precision for reports.
pub fn f(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else if x.abs() >= 0.01 {
        format!("{x:.3}")
    } else {
        format!("{x:.5}")
    }
}

/// Format a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.3}%", x * 100.0)
}

/// Render bytes as hexadecimal (the paper shows payload strings hashed; we
/// show them hex-encoded).
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02X}")).collect()
}

/// A standard experiment header block.
pub fn header(id: &str, caption: &str) -> String {
    format!("\n=== {id} — {caption} ===\n")
}

/// One named phase observed during an experiment.
#[derive(Debug, Clone)]
pub struct PhaseLine {
    /// Phase name (e.g. `cdf_partition`).
    pub name: String,
    /// ε the phase spent (by construction of the emitting algorithm).
    pub eps_spent: f64,
    /// Wall-clock duration of the phase.
    pub wall_ns: u64,
}

/// Everything observed while one experiment ran.
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    /// Experiment id (`fig1`, `table4`, …).
    pub id: String,
    /// End-to-end wall time of the experiment.
    pub wall_ns: u64,
    /// ε total from the engine's charge events (refund-adjusted).
    pub eps_charged: f64,
    /// Named phases, in emission order.
    pub phases: Vec<PhaseLine>,
    /// Per-operator time attribution from profiler spans (top rows by
    /// self-time, descending). Empty when the run was not profiled.
    pub attribution: Vec<AttributionRow>,
    /// Request-latency percentiles, present only for serving runs
    /// (`dpnet loadtest`). Schema 3.
    pub latency: Option<LatencySummary>,
}

/// Request-latency percentiles and outcome counts from a serving load
/// test: the report shape behind `BENCH_serve.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencySummary {
    /// Concurrent analyst sessions driven.
    pub sessions: u64,
    /// Total requests sent.
    pub requests: u64,
    /// Requests answered with a released value.
    pub ok: u64,
    /// Requests refused with a typed `budget_exhausted` (graceful, not an
    /// error: the cap or the global budget bound).
    pub budget_exhausted: u64,
    /// Requests refused as invalid (unknown analysis, bad ε, bad frame).
    pub invalid: u64,
    /// Median request latency, ns.
    pub p50_ns: u64,
    /// 95th-percentile request latency, ns.
    pub p95_ns: u64,
    /// 99th-percentile request latency, ns.
    pub p99_ns: u64,
    /// Worst observed request latency, ns.
    pub max_ns: u64,
}

/// How many attribution rows a run report keeps per experiment: the top
/// ones by self-time. Rows beyond this are folded into the profile's noise
/// floor rather than serialized.
pub const ATTRIBUTION_TOP: usize = 10;

/// Version of the `BENCH_*.json` / `GOLDEN_*.json` schema. Bump this when
/// the report layout changes shape (fields added/removed/renamed) so
/// `bench_guard record --check` can flag committed baselines that predate
/// the change instead of letting the naive field scanners misread them.
///
/// History: 1 = pre-versioned reports (no `schema_version` field);
/// 2 = columnar data plane (adds `schema_version`);
/// 3 = serving architecture (adds the optional per-experiment `latency`
/// section: request/latency percentiles from `dpnet loadtest`). Schema 3
/// reports may also carry `nproc`, the CPUs the run could use; readers
/// treat a missing `nproc` as unknown, so adding it needed no bump.
pub const SCHEMA_VERSION: u64 = 3;

/// Wall time of a fixed CPU-bound spin, measured on this machine right
/// now (best of three to dodge scheduler noise). Recorded in every run
/// report so the regression guard can compare wall times across machines
/// as multiples of this unit instead of raw nanoseconds.
pub fn calibrate_ns() -> u64 {
    (0..3)
        .map(|round| {
            let start = std::time::Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ round;
            for _ in 0..2_000_000u32 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            start.elapsed().as_nanos() as u64
        })
        .min()
        .expect("three calibration rounds")
        .max(1)
}

/// Collects per-experiment observability data across a `repro` run and
/// renders the budget report and the machine-readable run report.
#[derive(Debug)]
pub struct RunReport {
    target: String,
    workers: usize,
    /// CPUs available to the process, so a `-wN` report with N > nproc
    /// reads as oversubscribed.
    nproc: usize,
    calibration_ns: u64,
    runs: Vec<ExperimentRun>,
    registry: MetricsRegistry,
}

impl RunReport {
    /// Start an empty report for `target` (names the output file). The
    /// machine is calibrated once, here, before any experiment runs.
    pub fn new(target: &str) -> Self {
        RunReport {
            target: target.to_string(),
            workers: 1,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            calibration_ns: calibrate_ns(),
            runs: Vec::new(),
            registry: MetricsRegistry::new(),
        }
    }

    /// Record the worker-pool size the experiments ran with.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers;
    }

    /// The metrics registry fed by [`RunReport::record`]; exposed so
    /// callers can add their own counters before export.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Record one finished experiment and the events captured while it ran.
    pub fn record(&mut self, id: &str, wall_ns: u64, events: &[Event]) {
        self.record_with_spans(id, wall_ns, events, &[]);
    }

    /// [`RunReport::record`], additionally folding profiler spans captured
    /// during the experiment into a per-operator time-attribution table
    /// (top [`ATTRIBUTION_TOP`] rows by self-time).
    pub fn record_with_spans(
        &mut self,
        id: &str,
        wall_ns: u64,
        events: &[Event],
        spans: &[CompletedSpan],
    ) {
        self.record_with_profile(id, wall_ns, events, spans, &[]);
    }

    /// [`RunReport::record_with_spans`] for runs profiled in
    /// [`dpnet_obs::SpanMode::Aggregate`]: the folded aggregate rows join
    /// the full spans in the attribution table, so the table is the same
    /// whichever span mode recorded the run.
    pub fn record_with_profile(
        &mut self,
        id: &str,
        wall_ns: u64,
        events: &[Event],
        spans: &[CompletedSpan],
        aggs: &[AggregatedSpans],
    ) {
        let mut phases = Vec::new();
        let mut eps_charged = 0.0;
        for ev in events {
            self.registry
                .counter(&format!("events.{}", ev.kind()))
                .inc();
            match ev {
                Event::Phase(p) => {
                    self.registry
                        .histogram(&format!("phase.{}.wall_ns", p.name))
                        .record_ns(p.wall_ns);
                    phases.push(PhaseLine {
                        name: p.name.to_string(),
                        eps_spent: p.eps_spent,
                        wall_ns: p.wall_ns,
                    });
                }
                Event::Charge(c) => eps_charged += c.epsilon,
                Event::Aggregate(a) => {
                    self.registry
                        .histogram(&format!("aggregate.{}.wall_ns", a.operator))
                        .record_ns(a.wall_ns);
                }
                Event::Exec(e) => {
                    self.registry
                        .histogram(&format!("exec.{}.wall_ns", e.kernel))
                        .record_ns(e.wall_ns);
                }
                Event::Plan(p) => {
                    self.registry.counter("plan.materializations").inc();
                    self.registry
                        .histogram("plan.materialize.wall_ns")
                        .record_ns(p.wall_ns);
                }
                Event::Transform(_) | Event::Session(_) => {}
            }
        }
        self.registry.counter("experiments.completed").inc();
        self.registry
            .histogram("experiment.wall_ns")
            .record_ns(wall_ns);
        let mut rows = attribution_with_aggregates(spans, aggs);
        rows.truncate(ATTRIBUTION_TOP);
        self.runs.push(ExperimentRun {
            id: id.to_string(),
            wall_ns,
            eps_charged,
            phases,
            attribution: rows,
            latency: None,
        });
    }

    /// Record a serving load-test run: latency percentiles instead of
    /// phases/attribution. `eps_charged` is the total ε the driven
    /// sessions burned (a released policy reading, not an event sum).
    pub fn record_latency(
        &mut self,
        id: &str,
        wall_ns: u64,
        eps_charged: f64,
        latency: LatencySummary,
    ) {
        self.registry.counter("experiments.completed").inc();
        self.registry
            .histogram("experiment.wall_ns")
            .record_ns(wall_ns);
        self.registry
            .histogram("serve.request_p50_ns")
            .record_ns(latency.p50_ns);
        self.runs.push(ExperimentRun {
            id: id.to_string(),
            wall_ns,
            eps_charged,
            phases: Vec::new(),
            attribution: Vec::new(),
            latency: Some(latency),
        });
    }

    /// The human-readable per-operator time-attribution report: for each
    /// profiled experiment, where the wall-clock actually went (self time,
    /// i.e. excluding nested spans), descending. Empty string when no run
    /// was profiled.
    pub fn render_attribution_report(&self) -> String {
        if self.runs.iter().all(|r| r.attribution.is_empty()) {
            return String::new();
        }
        let mut t = Table::new(&["experiment", "operator", "count", "total", "self", "self%"]);
        for run in &self.runs {
            let profiled: u64 = run.attribution.iter().map(|r| r.self_ns).sum();
            for (i, row) in run.attribution.iter().enumerate() {
                let share = if profiled == 0 {
                    0.0
                } else {
                    row.self_ns as f64 / profiled as f64
                };
                t.row(vec![
                    if i == 0 {
                        run.id.clone()
                    } else {
                        String::new()
                    },
                    row.name.clone(),
                    row.count.to_string(),
                    ms(row.total_ns),
                    ms(row.self_ns),
                    pct(share),
                ]);
            }
        }
        format!(
            "{}{}",
            header("profile", "per-operator self-time attribution"),
            t.render()
        )
    }

    /// The human-readable per-phase ε/latency budget report.
    pub fn render_budget_report(&self) -> String {
        let mut t = Table::new(&["experiment", "phase", "eps", "wall"]);
        for run in &self.runs {
            t.row(vec![
                run.id.clone(),
                "(total)".into(),
                f(run.eps_charged),
                ms(run.wall_ns),
            ]);
            for p in &run.phases {
                t.row(vec![
                    String::new(),
                    p.name.clone(),
                    f(p.eps_spent),
                    ms(p.wall_ns),
                ]);
            }
        }
        format!(
            "{}{}",
            header("budget", "per-experiment ε spend and latency"),
            t.render()
        )
    }

    /// The machine-readable run report. Nested JSON, built by hand on the
    /// `dpnet-obs` escaping primitives (no serde in the workspace).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        out.push_str(&format!("\"schema_version\":{SCHEMA_VERSION},"));
        out.push_str(&format!("\"target\":{},", escape(&self.target)));
        out.push_str(&format!("\"workers\":{},", self.workers));
        out.push_str(&format!("\"nproc\":{},", self.nproc));
        out.push_str(&format!("\"calibration_ns\":{},", self.calibration_ns));
        out.push_str(&format!("\"generated_at_s\":{},", unix_time_s()));
        out.push_str("\"experiments\":[");
        for (i, run) in self.runs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            out.push_str(&format!("\"id\":{},", escape(&run.id)));
            out.push_str(&format!("\"wall_ns\":{},", run.wall_ns));
            out.push_str(&format!("\"eps_charged\":{},", number(run.eps_charged)));
            out.push_str("\"phases\":[");
            for (j, p) in run.phases.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"name\":{},\"eps_spent\":{},\"wall_ns\":{}}}",
                    escape(&p.name),
                    number(p.eps_spent),
                    p.wall_ns
                ));
            }
            out.push_str("],");
            out.push_str("\"attribution\":[");
            for (j, a) in run.attribution.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"name\":{},\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                    escape(&a.name),
                    a.count,
                    a.total_ns,
                    a.self_ns
                ));
            }
            out.push(']');
            if let Some(l) = &run.latency {
                out.push_str(&format!(
                    ",\"latency\":{{\"sessions\":{},\"requests\":{},\"ok\":{},\
                     \"budget_exhausted\":{},\"invalid\":{},\"p50_ns\":{},\
                     \"p95_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
                    l.sessions,
                    l.requests,
                    l.ok,
                    l.budget_exhausted,
                    l.invalid,
                    l.p50_ns,
                    l.p95_ns,
                    l.p99_ns,
                    l.max_ns
                ));
            }
            out.push('}');
        }
        out.push_str("],");
        out.push_str(&format!("\"metrics\":{}", self.registry.to_json()));
        out.push('}');
        out
    }

    /// Write `BENCH_<target>.json` under `dir` (created if missing) and
    /// return its path.
    pub fn write_json(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.target));
        let mut file = std::fs::File::create(&path)?;
        writeln!(file, "{}", self.to_json())?;
        Ok(path)
    }
}

/// Format nanoseconds as milliseconds for reports.
pub fn ms(ns: u64) -> String {
    format!("{:.1} ms", ns as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_is_checked() {
        Table::new(&["a", "b"]).row(vec!["only-one".into()]);
    }

    #[test]
    fn float_formatting_scales() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(12345.6), "12346");
        assert_eq!(f(12.34), "12.3");
        assert_eq!(f(0.5), "0.500");
        assert_eq!(f(0.0001), "0.00010");
    }

    #[test]
    fn hex_encodes() {
        assert_eq!(hex(&[0xDE, 0xAD]), "DEAD");
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.0123), "1.230%");
    }

    fn sample_events() -> Vec<Event> {
        use dpnet_obs::event::{ChargeEvent, ExecEvent, PhaseEvent};
        use std::sync::Arc;
        vec![
            Event::Phase(PhaseEvent {
                name: Arc::from("cdf_partition"),
                eps_spent: 0.5,
                wall_ns: 2_000_000,
                at_ns: 1,
            }),
            Event::Charge(ChargeEvent {
                operator: Arc::from("noisy_count"),
                path: Arc::from("root"),
                label: None,
                epsilon: 0.5,
                spent_after: 0.5,
                sequence: 1,
                at_ns: 2,
            }),
            Event::Exec(ExecEvent {
                kernel: "partition",
                workers: 4,
                wall_ns: 1_000_000,
                at_ns: 3,
                #[cfg(feature = "trusted-owner")]
                tasks: 8,
            }),
        ]
    }

    #[test]
    fn run_report_collects_phases_and_charges() {
        let mut r = RunReport::new("test");
        r.record("fig1", 5_000_000, &sample_events());
        let text = r.render_budget_report();
        assert!(text.contains("fig1"));
        assert!(text.contains("cdf_partition"));
        assert!(text.contains("0.500"));
        assert_eq!(r.registry().counter("experiments.completed").get(), 1);
        assert_eq!(r.registry().counter("events.phase").get(), 1);
        assert_eq!(r.registry().counter("events.exec").get(), 1);
    }

    #[test]
    fn run_report_records_workers_and_calibration() {
        let mut r = RunReport::new("test");
        r.set_workers(4);
        let json = r.to_json();
        assert!(json.contains("\"workers\":4"));
        assert!(json.contains("\"nproc\":"));
        assert!(json.contains("\"calibration_ns\":"));
    }

    #[test]
    fn calibration_is_positive_and_repeatable_within_an_order() {
        let a = calibrate_ns();
        let b = calibrate_ns();
        assert!(a > 0 && b > 0);
        let ratio = a.max(b) as f64 / a.min(b) as f64;
        assert!(ratio < 10.0, "calibration unstable: {a} vs {b}");
    }

    #[test]
    fn latency_runs_serialize_the_latency_section() {
        let mut r = RunReport::new("serve");
        r.record_latency(
            "loadtest",
            7_000_000,
            0.75,
            LatencySummary {
                sessions: 8,
                requests: 32,
                ok: 24,
                budget_exhausted: 8,
                invalid: 0,
                p50_ns: 1_000,
                p95_ns: 5_000,
                p99_ns: 9_000,
                max_ns: 12_000,
            },
        );
        let json = r.to_json();
        assert!(json.contains("\"latency\":{\"sessions\":8,"));
        assert!(json.contains("\"budget_exhausted\":8"));
        assert!(json.contains("\"p50_ns\":1000"));
        assert!(json.contains("\"p99_ns\":9000"));
        // The report parses with the obs parser, latency included.
        let parsed = dpnet_obs::json::parse_value(&json).unwrap();
        let latency = &parsed["experiments"].items().unwrap()[0]["latency"];
        assert_eq!(latency["p95_ns"].as_f64(), Some(5_000.0));
        // Runs without latency do not carry the key.
        let mut plain = RunReport::new("x");
        plain.record("fig1", 1, &[]);
        assert!(!plain.to_json().contains("\"latency\""));
    }

    #[test]
    fn run_report_json_carries_the_schema_version() {
        let r = RunReport::new("test");
        let json = r.to_json();
        assert!(
            json.starts_with(&format!("{{\"schema_version\":{SCHEMA_VERSION},")),
            "schema_version must lead the report: {json}"
        );
    }

    #[test]
    fn run_report_json_is_parseable_at_the_phase_level() {
        let mut r = RunReport::new("test");
        r.record("fig1", 5_000_000, &sample_events());
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"target\":\"test\""));
        assert!(json.contains("\"id\":\"fig1\""));
        assert!(json.contains("\"name\":\"cdf_partition\""));
        assert!(json.contains("\"eps_charged\":0.5"));
        // The report parses with the obs parser, phases included.
        let parsed = dpnet_obs::json::parse_value(&json).unwrap();
        let phase = &parsed["experiments"].items().unwrap()[0]["phases"]
            .items()
            .unwrap()[0];
        assert_eq!(phase["eps_spent"].as_f64(), Some(0.5));
    }

    fn sample_spans() -> Vec<CompletedSpan> {
        let span = |id: u64, parent: Option<u64>, name: &'static str, dur: u64, child: u64| {
            CompletedSpan {
                id,
                parent,
                name,
                detail: None,
                track: 1,
                start_ns: id,
                dur_ns: dur,
                child_ns: child,
                #[cfg(feature = "trusted-owner")]
                records: 0,
            }
        };
        vec![
            span(1, None, "noisy_count", 900, 700),
            span(2, Some(1), "plan/materialize", 700, 0),
            span(3, None, "noisy_median", 80, 0),
        ]
    }

    #[test]
    fn run_report_folds_spans_into_attribution() {
        let mut r = RunReport::new("test");
        r.record_with_spans("fig1", 1_000, &[], &sample_spans());
        let run = &r.runs[0];
        assert_eq!(run.attribution.len(), 3);
        // Sorted by self time: the plan materialization dominates.
        assert_eq!(run.attribution[0].name, "plan/materialize");
        assert_eq!(run.attribution[0].self_ns, 700);
        assert_eq!(run.attribution[1].name, "noisy_count");
        assert_eq!(run.attribution[1].self_ns, 200);
        let text = r.render_attribution_report();
        assert!(text.contains("plan/materialize"));
        assert!(text.contains("self%"));
        let json = r.to_json();
        assert!(json.contains("\"attribution\":[{\"name\":\"plan/materialize\""));
        assert!(json.contains("\"self_ns\":700"));
    }

    #[test]
    fn unprofiled_reports_have_empty_attribution() {
        let mut r = RunReport::new("test");
        r.record("fig1", 1_000, &[]);
        assert!(r.runs[0].attribution.is_empty());
        assert_eq!(r.render_attribution_report(), "");
        assert!(r.to_json().contains("\"attribution\":[]"));
    }

    #[test]
    fn attribution_is_capped_at_the_top_rows() {
        let mut spans = Vec::new();
        for i in 0..25u64 {
            spans.push(CompletedSpan {
                id: i + 1,
                parent: None,
                // Distinct static names: leak a tiny string per test run.
                name: Box::leak(format!("op{i}").into_boxed_str()),
                detail: None,
                track: 1,
                start_ns: i,
                dur_ns: 1000 - i,
                child_ns: 0,
                #[cfg(feature = "trusted-owner")]
                records: 0,
            });
        }
        let mut r = RunReport::new("test");
        r.record_with_spans("x", 1, &[], &spans);
        assert_eq!(r.runs[0].attribution.len(), ATTRIBUTION_TOP);
        // The kept rows are the largest self-times.
        assert_eq!(r.runs[0].attribution[0].self_ns, 1000);
    }

    #[test]
    fn run_report_writes_the_target_file() {
        let dir = std::env::temp_dir().join("dpnet-bench-report-test");
        let mut r = RunReport::new("unit");
        r.record("x", 1, &[]);
        let path = r.write_json(&dir).unwrap();
        assert!(path.ends_with("BENCH_unit.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"generated_at_s\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ms_formats() {
        assert_eq!(ms(2_500_000), "2.5 ms");
    }
}

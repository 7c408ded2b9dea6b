//! EXPLAIN / EXPLAIN ANALYZE — plan and privacy-cost introspection for the
//! paper experiments, behind `dpnet explain`.
//!
//! [`run_explained`] runs one experiment through [`run_observed`] with a
//! [`pinq::ExplainRecorder`] installed: every successful aggregation
//! charge is folded into an [`ExplainReport`] — per (operator,
//! charge-path) call counts, the ε the analyst requested, and the ε
//! *predicted* to reach each budget root (after max-of-parts absorption).
//! The prediction is the traced per-root delta captured under the ledger
//! locks, so it equals what the accountants actually applied — the CI
//! golden diff and the `explain_integration` test hold it to
//! `Accountant::path_totals`.
//!
//! With `analyze: true`, the run also installs the span profiler, and the
//! captured events and spans fold into a [`pinq::Overlay`]: net ε per
//! charge path (from the accountant's charge events), span self-time per
//! operator, and plan-materialization counts. The optional Chrome trace
//! gains one `"ph":"C"` counter track per budget — the ε burn-down,
//! rendered by Perfetto as a stepped chart next to the worker lanes.

use crate::experiments::Results;
use crate::profile::{run_observed, write_trace};
use dpnet_obs::{attribution, CompletedSpan, CounterSample, Event};
use pinq::explain::normalize_path;
use pinq::{ExecPool, ExplainReport, Overlay};
use std::path::PathBuf;

/// How an explain report should be rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExplainFormat {
    /// Charge-path tree plus one line per aggregation site (the default).
    #[default]
    Tree,
    /// Graphviz DOT of the charge-path DAG.
    Dot,
    /// Machine-readable JSON (what `bench_guard explain` diffs).
    Json,
}

impl ExplainFormat {
    /// Parse a `--format` value.
    pub fn parse(raw: &str) -> Result<ExplainFormat, String> {
        match raw {
            "tree" => Ok(ExplainFormat::Tree),
            "dot" => Ok(ExplainFormat::Dot),
            "json" => Ok(ExplainFormat::Json),
            other => Err(format!(
                "unknown explain format '{other}' (expected tree, dot, or json)"
            )),
        }
    }
}

/// What [`run_explained`] should do.
pub struct ExplainConfig {
    /// Experiment id (one of [`crate::profile::IDS`]).
    pub experiment: String,
    /// Worker count for the shared [`ExecPool`]. The predicted ε totals
    /// are worker-count-independent; keep the default 1 for golden runs.
    pub workers: usize,
    /// EXPLAIN ANALYZE: also profile the run and overlay measured reality.
    pub analyze: bool,
    /// With `analyze`, where to write the Chrome trace (spans plus the
    /// ε burn-down counter tracks).
    pub trace_out: Option<PathBuf>,
}

/// Everything one explained run produced.
pub struct ExplainOutcome {
    /// Folded predictions: aggregation sites and charge paths.
    pub report: ExplainReport,
    /// Measured reality, when `analyze` was requested.
    pub overlay: Option<Overlay>,
    /// The experiment's own printable output.
    pub output: String,
    /// Path of the written Chrome trace, when one was requested.
    pub trace_path: Option<PathBuf>,
}

impl ExplainOutcome {
    /// Render the report (with the overlay, when the run was analyzed).
    pub fn render(&self, format: ExplainFormat) -> String {
        let overlay = self.overlay.as_ref();
        match format {
            ExplainFormat::Tree => self.report.render_text(overlay),
            ExplainFormat::Dot => self.report.render_dot(overlay),
            ExplainFormat::Json => self.report.to_json(overlay),
        }
    }
}

/// Run `cfg.experiment` with the explain recorder installed and fold the
/// traced charges into a report; with `cfg.analyze`, profile the same run
/// and attach the measured overlay.
pub fn run_explained(cfg: &ExplainConfig) -> Result<ExplainOutcome, String> {
    let pool = ExecPool::new(cfg.workers).map_err(|e| e.to_string())?;
    let mut results = Results::default();
    let run = run_observed(&cfg.experiment, &pool, &mut results, cfg.analyze, true)?;
    let report = run.explain.expect("the explain recorder was installed");

    let mut overlay = None;
    let mut trace_path = None;
    if cfg.analyze {
        let (folded, counters) = fold_overlay(&run.events, &run.spans, run.wall_ns);
        if let Some(path) = &cfg.trace_out {
            write_trace(path, &run.spans, &run.track_names, &counters)?;
            trace_path = Some(path.clone());
        }
        overlay = Some(folded);
    }
    Ok(ExplainOutcome {
        report,
        overlay,
        output: run.output,
        trace_path,
    })
}

/// Fold a profiled run's events and spans into the measured overlay, plus
/// the ε burn-down counter samples (one per accountant charge, valued at
/// the budget's cumulative spend after that charge).
pub fn fold_overlay(
    events: &[Event],
    spans: &[CompletedSpan],
    wall_ns: u64,
) -> (Overlay, Vec<CounterSample>) {
    let mut overlay = Overlay {
        wall_ns,
        ..Overlay::default()
    };
    let mut counters = Vec::new();
    for event in events {
        match event {
            Event::Charge(c) => {
                let norm = normalize_path(&c.path);
                *overlay.measured_paths.entry(norm.clone()).or_default() += c.epsilon;
                *overlay
                    .measured_aggs
                    .entry((c.operator.to_string(), norm))
                    .or_default() += c.epsilon;
                counters.push(CounterSample {
                    name: format!("eps spent ({})", c.label.as_deref().unwrap_or("budget")),
                    series: "eps",
                    at_ns: c.at_ns,
                    value: c.spent_after,
                });
            }
            Event::Plan(p) => {
                overlay.materializations += 1;
                overlay.max_fused_stages = overlay.max_fused_stages.max(p.fused_stages);
            }
            _ => {}
        }
    }
    for row in attribution(spans) {
        *overlay.self_ns.entry(row.name).or_default() += row.self_ns;
    }
    (overlay, counters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_parse_accepts_the_three_names_only() {
        assert_eq!(ExplainFormat::parse("tree"), Ok(ExplainFormat::Tree));
        assert_eq!(ExplainFormat::parse("dot"), Ok(ExplainFormat::Dot));
        assert_eq!(ExplainFormat::parse("json"), Ok(ExplainFormat::Json));
        assert!(ExplainFormat::parse("yaml").is_err());
    }

    #[test]
    fn static_explain_reports_aggregations_without_an_overlay() {
        let _g = crate::test_global_guard();
        let cfg = ExplainConfig {
            experiment: "example23".to_string(),
            workers: 1,
            analyze: false,
            trace_out: None,
        };
        let out = run_explained(&cfg).expect("explained run");
        assert!(out.overlay.is_none());
        assert!(out.trace_path.is_none());
        assert_eq!(out.report.title, "example23");
        assert!(!out.output.is_empty());
        assert!(
            !out.report.aggregations.is_empty(),
            "example23 aggregates, so the recorder must see charges"
        );
        assert!(out.report.predicted_total() > 0.0);
        // All three renderings carry the experiment id.
        for format in [ExplainFormat::Tree, ExplainFormat::Dot, ExplainFormat::Json] {
            assert!(out.render(format).contains("example23"));
        }
    }

    #[test]
    fn analyze_attaches_an_overlay_and_writes_eps_counters() {
        let _g = crate::test_global_guard();
        let dir = std::env::temp_dir().join("dpnet-explain-test");
        let trace = dir.join("analyze-trace.json");
        let cfg = ExplainConfig {
            experiment: "example23".to_string(),
            workers: 1,
            analyze: true,
            trace_out: Some(trace.clone()),
        };
        let out = run_explained(&cfg).expect("analyzed run");
        let overlay = out.overlay.as_ref().expect("analyze builds an overlay");
        assert!(overlay.wall_ns > 0);
        assert!(
            !overlay.measured_paths.is_empty(),
            "charges must be observed"
        );
        assert!(!overlay.self_ns.is_empty(), "spans must be observed");
        let json = std::fs::read_to_string(out.trace_path.as_ref().unwrap()).unwrap();
        assert!(json.contains("\"ph\":\"C\""), "eps counters in {json}");
        assert!(json.contains("eps spent ("));
        assert!(json.contains("\"ph\":\"X\""), "spans in the same trace");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overlay_folds_charges_plans_and_span_self_time() {
        use dpnet_obs::{ChargeEvent, PlanEvent};
        use std::sync::Arc as A;
        let events = vec![
            Event::Charge(ChargeEvent {
                operator: A::from("noisy_count"),
                path: A::from("part[0]/scale(x1)/root"),
                label: Some(A::from("cdf")),
                epsilon: 0.2,
                spent_after: 0.2,
                sequence: 1,
                at_ns: 10,
            }),
            Event::Charge(ChargeEvent {
                operator: A::from("noisy_count"),
                path: A::from("part[4]/scale(x1)/root"),
                label: Some(A::from("cdf")),
                epsilon: 0.1,
                spent_after: 0.3,
                sequence: 2,
                at_ns: 20,
            }),
            Event::Plan(PlanEvent {
                materialization: 1,
                fused_stages: 3,
                workers: 1,
                wall_ns: 5,
                at_ns: 15,
                #[cfg(feature = "trusted-owner")]
                source_records: 0,
                #[cfg(feature = "trusted-owner")]
                output_records: 0,
            }),
        ];
        let spans = vec![CompletedSpan {
            id: 1,
            parent: None,
            name: "noisy_count",
            detail: None,
            track: 1,
            start_ns: 0,
            dur_ns: 100,
            child_ns: 40,
            #[cfg(feature = "trusted-owner")]
            records: 0,
        }];
        let (overlay, counters) = fold_overlay(&events, &spans, 777);
        assert_eq!(overlay.wall_ns, 777);
        // Sibling parts fold into one normalized path.
        assert_eq!(overlay.measured_paths.len(), 1);
        let eps = overlay.measured_paths["part[*]/scale(x1)/root"];
        assert!((eps - 0.3).abs() < 1e-12);
        let key = (
            "noisy_count".to_string(),
            "part[*]/scale(x1)/root".to_string(),
        );
        assert!((overlay.measured_aggs[&key] - 0.3).abs() < 1e-12);
        assert_eq!(overlay.materializations, 1);
        assert_eq!(overlay.max_fused_stages, 3);
        assert_eq!(overlay.self_ns["noisy_count"], 60);
        // One burn-down sample per charge, valued at the running total.
        assert_eq!(counters.len(), 2);
        assert_eq!(counters[0].name, "eps spent (cdf)");
        assert!((counters[1].value - 0.3).abs() < 1e-12);
        assert_eq!(counters[1].at_ns, 20);
    }
}

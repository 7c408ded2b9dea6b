//! What `dpbench` runs and reports. The workload and metric lists are
//! those of `BENCHMARK.json` at the repository root, compiled in.

use dpnet_obs::json::{parse_value, JsonValue};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two held sessions issuing cheap `count` queries: transport-bound.
    ServeSteady,
    /// Sessions opened, driven past their cap, and closed, back to back.
    ServeChurn,
    /// Two held sessions rotating through eight compute-heavy analyses.
    ServeMixed,
    /// In-process `retx-cdf` on a 2-worker pool: no network.
    BatchRetx,
    /// In-process `worm` on the calling thread: ~0.75M aggregations per run.
    BatchWorm,
}

impl Workload {
    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSteady => "serve-steady",
            Workload::ServeChurn => "serve-churn",
            Workload::ServeMixed => "serve-mixed",
            Workload::BatchRetx => "batch-retx",
            Workload::BatchWorm => "batch-worm",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        [
            Workload::ServeSteady,
            Workload::ServeChurn,
            Workload::ServeMixed,
            Workload::BatchRetx,
            Workload::BatchWorm,
        ]
        .into_iter()
        .find(|w| w.name() == name)
    }
}

/// A declared metric: its name and unit.
pub struct Metric {
    pub name: String,
    pub unit: String,
}

/// The lists `BENCHMARK.json` declares, in its order.
pub struct Declared {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Declared {
    /// The metrics a run reports: end-to-end when untraced, per-layer when
    /// traced.
    pub fn metrics(&self, traced: bool) -> &[Metric] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

fn rows<'a>(doc: &'a JsonValue, key: &str) -> impl Iterator<Item = &'a JsonValue> {
    doc.get(key)
        .and_then(JsonValue::items)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
}

fn text(row: &JsonValue, key: &str) -> String {
    row.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("a BENCHMARK.json row has no string {key}"))
        .to_string()
}

/// The declared lists. BENCHMARK.json is compiled in, so a malformed file
/// fails the first call of every run, and the unit tests.
pub fn declared() -> &'static Declared {
    static DECLARED: OnceLock<Declared> = OnceLock::new();
    DECLARED.get_or_init(|| {
        let doc = parse_value(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json is valid JSON");
        let metrics = |key| {
            rows(&doc, key)
                .map(|row| Metric {
                    name: text(row, "name"),
                    unit: text(row, "unit"),
                })
                .collect()
        };
        Declared {
            workloads: rows(&doc, "workloads").map(|w| text(w, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    })
}

/// Measured values by metric name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Every per-layer metric at 0, for a workload to fill in the layers it
/// exercises.
pub fn zeroed_layers() -> Metrics {
    declared()
        .per_layer
        .iter()
        .map(|m| (m.name.as_str(), 0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn declared_names_are_valid_unique_and_runnable() {
        let d = declared();
        let names: Vec<&str> = d
            .workloads
            .iter()
            .chain(d.end_to_end.iter().map(|m| &m.name))
            .chain(d.per_layer.iter().map(|m| &m.name))
            .map(String::as_str)
            .collect();
        for name in &names {
            assert!(valid_name(name), "invalid name {name:?}");
        }
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for w in &d.workloads {
            let parsed = Workload::parse(w).unwrap_or_else(|| panic!("no workload {w:?}"));
            assert_eq!(parsed.name(), w);
        }
    }
}

//! Runs every declared workload briefly, untraced and traced, with every
//! correctness check on, and checks the metric lines and the result line
//! against the metrics BENCHMARK.json declares.

use dpnet_obs::json::{parse_value, JsonValue};
use std::collections::BTreeSet;
use std::process::{Command, Output};

fn benchmark_json() -> JsonValue {
    parse_value(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn rows(doc: &JsonValue, key: &str) -> Vec<JsonValue> {
    doc.get(key)
        .and_then(JsonValue::items)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .to_vec()
}

fn text(v: &JsonValue, key: &str) -> String {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("no string {key} in {v:?}"))
        .to_string()
}

fn dpbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dpbench"))
        .args(args)
        .output()
        .expect("dpbench starts")
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let doc = benchmark_json();
    for workload in rows(&doc, "workloads").iter().map(|w| text(w, "name")) {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let args = [
                "--workload",
                &workload,
                "--seed",
                "11",
                "--seconds",
                "0.3",
                "--trace",
                trace,
            ];
            let out = dpbench(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{args:?} failed:\n{stderr}");
            let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().expect("a result line");
            let expected: BTreeSet<(String, String)> = rows(&doc, key)
                .iter()
                .map(|m| (text(m, "name"), text(m, "unit")))
                .collect();

            // Every line before the result is `workload metric value unit`
            // for a declared metric, and each declared metric has one.
            let printed: Vec<(String, String)> = lines
                .iter()
                .map(|line| match line.split(' ').collect::<Vec<_>>()[..] {
                    [w, name, value, unit] if w == workload => {
                        assert!(value.parse::<f64>().is_ok(), "{line:?}");
                        (name.to_string(), unit.to_string())
                    }
                    _ => panic!("{args:?}: not a metric line: {line:?}"),
                })
                .collect();
            assert_eq!(printed.len(), expected.len(), "{args:?}: {lines:?}");
            assert_eq!(printed.into_iter().collect::<BTreeSet<_>>(), expected);

            let result = parse_value(last).unwrap_or_else(|| panic!("not JSON: {last}"));
            let JsonValue::Obj(fields) = &result else {
                panic!("result is not an object: {last}");
            };
            let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                Some(&JsonValue::Bool(true)),
                "{args:?}"
            );
            assert_eq!(result.get("failed").and_then(JsonValue::as_f64), Some(0.0));
            let attempted = result.get("attempted").and_then(JsonValue::as_f64);
            assert!(attempted.is_some_and(|a| a >= 1.0 && a.fract() == 0.0));

            let Some(JsonValue::Obj(metrics)) = result.get("metrics") else {
                panic!("no metrics object: {last}");
            };
            let emitted: BTreeSet<(String, String)> = metrics
                .iter()
                .map(|(name, m)| (name.clone(), text(m, "unit")))
                .collect();
            assert_eq!(emitted, expected, "{args:?}");
            for (name, m) in metrics {
                let v = m.get("value").and_then(JsonValue::as_f64);
                assert!(v.is_some_and(f64::is_finite), "{workload} {name}: {v:?}");
                if trace == "0" {
                    assert!(
                        v.is_some_and(|v| v > 0.0),
                        "{workload} {name} is not positive"
                    );
                }
            }
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "no-such-workload", "--seed", "1"][..],
        &["--workload", "serve-steady"],
        &["--workload", "batch-worm", "--seed", "1", "--trace", "2"],
        &["--workload", "batch-worm", "--seed", "1", "--seconds", "0"],
        &["--seed", "1", "--bogus", "x"],
    ] {
        let out = dpbench(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

//! Property tests for the span profiler: arbitrary enter/exit sequences —
//! including across threads — must always yield well-formed parent/child
//! trees with non-negative self time, and the default serialized form must
//! stay free of record-derived fields.

use dpnet_obs::span::{enter, enter_with, set_track_name};
use dpnet_obs::{
    chrome_trace_json, install_recorder, uninstall_recorder, CompletedSpan, TraceRecorder,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Tests in this binary mutate the process-wide profiler slot; serialize.
fn global_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
const MAX_DEPTH: usize = 8;

/// Interpret one thread's program: each token either opens a span (kind 0–2,
/// varying name / detail / records) or closes the innermost open one. Any
/// guards still open at the end close in LIFO order by construction — a
/// `SpanGuard` drop always pops the top of the thread's stack.
fn run_program(worker: usize, program: &[u8]) {
    set_track_name(&format!("prop-worker-{worker}"));
    let mut guards = Vec::new();
    for &tok in program {
        let kind = tok % 4;
        if kind < 3 && guards.len() < MAX_DEPTH {
            let name = NAMES[(tok as usize / 4) % NAMES.len()];
            let g = match kind {
                0 => enter(name),
                1 => enter_with(name, false, || format!("scale(x2)/part[{tok}]/root")),
                _ => {
                    let g = enter(name);
                    g.set_records(u64::from(tok) + 1);
                    g
                }
            };
            guards.push(g);
        } else {
            guards.pop();
        }
    }
    while guards.pop().is_some() {}
}

/// Structural well-formedness of a completed trace.
fn check_tree(spans: &[CompletedSpan]) -> Result<(), String> {
    let mut by_id: BTreeMap<u64, &CompletedSpan> = BTreeMap::new();
    for s in spans {
        if by_id.insert(s.id, s).is_some() {
            return Err(format!("duplicate span id {}", s.id));
        }
    }
    let mut child_sums: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        // Non-negative self time, exactly: duration covers all child time.
        if s.child_ns > s.dur_ns {
            return Err(format!(
                "span {} ({}) child_ns {} > dur_ns {}",
                s.id, s.name, s.child_ns, s.dur_ns
            ));
        }
        if s.self_ns() != s.dur_ns - s.child_ns {
            return Err(format!("span {} self_ns mismatch", s.id));
        }
        if let Some(pid) = s.parent {
            let p = by_id
                .get(&pid)
                .ok_or_else(|| format!("span {} has dangling parent {pid}", s.id))?;
            if p.track != s.track {
                return Err(format!("span {} crosses tracks to parent {pid}", s.id));
            }
            // Ids are allocated at enter time, so a child is strictly
            // younger than its parent — this also rules out cycles.
            if s.id <= pid {
                return Err(format!("span {} not younger than parent {pid}", s.id));
            }
            if s.start_ns < p.start_ns {
                return Err(format!("span {} starts before parent {pid}", s.id));
            }
            *child_sums.entry(pid).or_insert(0) += s.dur_ns;
        }
    }
    // A parent's child_ns is exactly the sum of its direct children's
    // durations (the drop path adds each child as it completes).
    for s in spans {
        let expect = child_sums.get(&s.id).copied().unwrap_or(0);
        if s.child_ns != expect {
            return Err(format!(
                "span {} ({}) child_ns {} != sum of children {}",
                s.id, s.name, s.child_ns, expect
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_enter_exit_sequences_yield_well_formed_trees(
        programs in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 0..40),
            1..4,
        ),
    ) {
        let _g = global_guard();
        let rec = Arc::new(TraceRecorder::new());
        install_recorder(rec.clone());
        std::thread::scope(|scope| {
            for (w, program) in programs.iter().enumerate() {
                scope.spawn(move || run_program(w, program));
            }
        });
        uninstall_recorder();
        let spans = rec.take();

        if let Err(e) = check_tree(&spans) {
            prop_assert!(false, "{e}");
        }

        // Every thread ran on its own track; parent links never cross
        // tracks (checked above), so each track holds an independent tree.
        let mut tracks: Vec<u64> = spans.iter().map(|s| s.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        prop_assert!(tracks.len() <= programs.len());
        for t in &tracks {
            prop_assert!(
                spans.iter().any(|s| s.track == *t && s.parent.is_none()),
                "track {t} has spans but no root"
            );
        }

        // The Chrome trace carries exactly one complete event per span.
        let json = chrome_trace_json(&spans, &rec.track_names(), &[]);
        prop_assert_eq!(json.matches("\"ph\":\"X\"").count(), spans.len());
    }

    #[test]
    fn default_serialized_spans_are_free_of_record_fields(
        program in prop::collection::vec(any::<u8>(), 1..32),
    ) {
        let _g = global_guard();
        let rec = Arc::new(TraceRecorder::new());
        install_recorder(rec.clone());
        run_program(0, &program);
        uninstall_recorder();
        let spans = rec.take();
        let trace = chrome_trace_json(&spans, &rec.track_names(), &[]);
        for s in &spans {
            let j = s.to_json();
            if cfg!(feature = "trusted-owner") {
                // Owner builds may carry counts; the field must then parse.
                prop_assert!(j.contains("\"records\":"), "missing records in {}", j);
            } else {
                prop_assert!(!j.contains("records"), "data-dependent field in {}", j);
                prop_assert!(!j.contains("tasks"), "data-dependent field in {}", j);
            }
        }
        if !cfg!(feature = "trusted-owner") {
            prop_assert!(!trace.contains("records"), "data-dependent field in trace");
        }
    }
}

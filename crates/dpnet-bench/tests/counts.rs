//! A run report's exact counts measure the work an experiment asked of
//! the engine, so they must not depend on how many workers did it.
//!
//! This test binds the process-global event sink, which any engine call
//! without a sink of its own reports to; it lives alone in its own test
//! binary so that no concurrently running test adds events to its counts.

use dpnet_bench::experiments::Results;
use dpnet_bench::profile::run_observed;
use dpnet_bench::report::RunReport;
use pinq::ExecPool;

#[test]
fn counts_are_the_same_at_any_worker_count() {
    // itemsets emits every counted event kind but sessions: aggregates,
    // kernel runs, plan materializations, transforms, charges and a phase.
    let counts = |workers: usize| {
        let pool = ExecPool::new(workers).expect("pool");
        let run = run_observed("itemsets", &pool, &mut Results::default(), false, false)
            .expect("itemsets runs");
        let mut report = RunReport::new("counts");
        let recorded = report.record("itemsets", run.wall_ns, &run.events, &run.spans);
        recorded.counts.clone().expect("recorded runs carry counts")
    };
    let one = counts(1);
    for kind in [
        "aggregate.",
        "exec.",
        "transform.",
        "phase.",
        "plan",
        "charge",
    ] {
        assert!(
            one.keys().any(|k| k.starts_with(kind)),
            "no {kind} count in {one:?}"
        );
    }
    assert_eq!(counts(2), one, "2 workers");
    assert_eq!(counts(8), one, "8 workers");
}

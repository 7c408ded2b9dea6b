//! Integration tests of the observability layer against real queryables:
//! event/ledger consistency, the privacy-safety rule, and concurrent
//! budget enforcement.

use dpnet_obs::{Event, MemorySink, Outcome};
use pinq::{Accountant, NoiseSource, Queryable};
use proptest::prelude::*;
use std::sync::Arc;

fn observed(budget: f64, n: usize) -> (Accountant, Arc<MemorySink>, Queryable<u64>) {
    let acct = Accountant::new(budget);
    let sink = Arc::new(MemorySink::new());
    acct.set_sink(Some(sink.clone()));
    let noise = NoiseSource::seeded(17);
    let q = Queryable::new((0..n as u64).collect(), &acct, &noise);
    (acct, sink, q)
}

/// A mixed workload touching transformations, scaling, partitioning, and
/// several aggregation mechanisms.
fn mixed_workload(q: &Queryable<u64>) {
    let evens = q.filter(|v| v % 2 == 0).with_label("evens");
    evens.noisy_count(0.1).unwrap();
    evens.noisy_sum_clamped(0.05, 100.0, |&v| v as f64).unwrap();
    // GroupBy doubles stability: the aggregate charges 2 × ε.
    let grouped = q.group_by(|v| v % 5);
    grouped.noisy_count(0.02).unwrap();
    // Partition: max-of-parts accounting.
    let keys = [0u64, 1, 2];
    for part in &q.partition(&keys, |v| v % 3).unwrap() {
        part.noisy_count_int(0.03).unwrap();
    }
    q.noisy_median(0.04, 0.0, 1000.0, 50, |&v| v as f64)
        .unwrap();
}

#[test]
fn operator_totals_sum_to_spent_after_a_mixed_workload() {
    let (acct, _sink, q) = observed(10.0, 500);
    mixed_workload(&q);
    let totals = acct.operator_totals();
    assert!(totals.len() >= 3, "expected several operators: {totals:?}");
    let sum: f64 = totals.iter().map(|(_, t)| t.epsilon).sum();
    assert!(
        (sum - acct.spent()).abs() < 1e-9,
        "operator sum {sum} vs spent {}",
        acct.spent()
    );
}

#[test]
fn charge_events_mirror_the_accountant_exactly() {
    let (acct, sink, q) = observed(10.0, 300);
    mixed_workload(&q);
    let events = sink.events();
    let charged: f64 = events
        .iter()
        .filter_map(|e| match e {
            Event::Charge(c) => Some(c.epsilon),
            _ => None,
        })
        .sum();
    assert!(
        (charged - acct.spent()).abs() < 1e-9,
        "events {charged} vs spent {}",
        acct.spent()
    );
    // Every charge narrates a path ending at the root accountant.
    for e in &events {
        if let Event::Charge(c) = e {
            assert!(c.path.ends_with("root"), "odd path {}", c.path);
        }
    }
}

#[test]
fn aggregate_events_report_mechanism_outcome_and_scaled_cost() {
    let (_, sink, q) = observed(10.0, 200);
    q.group_by(|v| v % 3).noisy_count(0.5).unwrap();
    let events = sink.events();
    let agg = events
        .iter()
        .find_map(|e| match e {
            Event::Aggregate(a) if a.operator == "noisy_count" => Some(a.clone()),
            _ => None,
        })
        .expect("no aggregate event");
    assert_eq!(agg.mechanism, "laplace");
    assert_eq!(agg.outcome, Outcome::Ok);
    assert!((agg.eps_requested - 0.5).abs() < 1e-12);
    // GroupBy stability 2 ⇒ the charge is doubled.
    assert!((agg.eps_charged - 1.0).abs() < 1e-12);
    assert!(agg.released.is_some());
}

#[test]
fn denied_aggregations_emit_denied_outcomes_and_charge_nothing() {
    let (acct, sink, q) = observed(0.1, 100);
    assert!(q.noisy_count(0.5).is_err());
    assert_eq!(acct.spent(), 0.0);
    let events = sink.events();
    let agg = events
        .iter()
        .find_map(|e| match e {
            Event::Aggregate(a) => Some(a.clone()),
            _ => None,
        })
        .expect("no aggregate event");
    assert_eq!(agg.outcome, Outcome::Denied);
    assert!((agg.eps_charged - 0.0).abs() < 1e-12);
    assert!(agg.released.is_none());
}

/// The privacy-safety rule (tentpole acceptance): in the default build no
/// event type may expose raw record counts — or any other record-derived
/// field — through its serialized form. The `trusted-owner` feature is the
/// only gate for such fields.
#[test]
fn events_carry_no_data_dependent_fields_by_default() {
    let (_, sink, q) = observed(10.0, 400);
    mixed_workload(&q);
    let events = sink.events();
    assert!(!events.is_empty());
    let mut kinds_seen = std::collections::BTreeSet::new();
    for e in &events {
        kinds_seen.insert(e.kind());
        let json = e.to_json();
        // A transform builds a lazy plan node: its duration measures
        // nothing, so the event carries none.
        if let Event::Transform(_) = e {
            assert!(!json.contains("wall_ns"), "timed transform: {json}");
        }
        if cfg!(feature = "trusted-owner") {
            continue; // owner builds may carry record counts
        }
        assert!(
            !json.contains("records"),
            "data-dependent field leaked from a {} event: {json}",
            e.kind()
        );
    }
    // The workload must have exercised both event families the rule governs.
    assert!(kinds_seen.contains("transform"), "kinds: {kinds_seen:?}");
    assert!(kinds_seen.contains("aggregate"), "kinds: {kinds_seen:?}");
}

#[cfg(feature = "trusted-owner")]
#[test]
fn trusted_owner_builds_do_expose_record_counts() {
    let (_, sink, q) = observed(10.0, 50);
    q.filter(|v| *v < 10).noisy_count(0.1).unwrap();
    let events = sink.events();
    assert!(
        events.iter().any(|e| e.to_json().contains("records")),
        "trusted-owner build should carry record counts"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Concurrent spends through real aggregations never oversubscribe the
    /// budget, regardless of thread count, per-query ε, or total.
    #[test]
    fn concurrent_spends_never_exceed_total(
        total in 0.5f64..4.0,
        eps in 0.01f64..0.3,
        n_threads in 2usize..8,
    ) {
        const TOLERANCE: f64 = 1e-9;
        let acct = Accountant::new(total);
        let noise = NoiseSource::seeded(23);
        let q = Queryable::new((0..100u64).collect(), &acct, &noise);
        std::thread::scope(|s| {
            for _ in 0..n_threads {
                let q = q.clone();
                s.spawn(move || {
                    // Hammer until the accountant refuses.
                    while q.noisy_count(eps).is_ok() {}
                });
            }
        });
        prop_assert!(
            acct.spent() <= total + TOLERANCE,
            "spent {} over total {total}",
            acct.spent()
        );
        // The threads only stopped on denial, so the budget is exhausted:
        // no further eps-sized charge can fit.
        prop_assert!(acct.spent() + eps > total - TOLERANCE);
    }
}

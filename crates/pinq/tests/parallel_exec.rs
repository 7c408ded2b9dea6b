//! Concurrency tests for the parallel execution layer: workers racing for
//! the last ε of a shared budget must never oversubscribe it, the
//! composition rules (sequential sum, parallel max-of-parts) must hold
//! regardless of scheduling, and the `partition_map` fan-out releases the
//! same values at any worker count.

use pinq::kernel::model::{step, KernelState, NodeSpec, RootBudget, Transition};
use pinq::{Accountant, ExecCtx, ExecPool, NoiseSource, Queryable, SessionManager, TimedRelease};
use proptest::prelude::*;

fn protect(n: usize, budget: f64, seed: u64) -> (Accountant, Queryable<u32>) {
    let acct = Accountant::new(budget);
    let noise = NoiseSource::seeded(seed);
    let data: Vec<u32> = (0..n as u32).collect();
    (acct.clone(), Queryable::new(data, &acct, &noise))
}

/// Twenty independent datasets share one accountant that can afford exactly
/// five ε=1 counts. Eight workers race for the last ε; sequential
/// composition must admit exactly five charges, whatever the interleaving.
#[test]
fn budget_exhaustion_race_admits_exactly_the_affordable_charges() {
    let acct = Accountant::new(5.0);
    let noise = NoiseSource::seeded(0xACE);
    let datasets: Vec<Queryable<u32>> = (0..20)
        .map(|i| Queryable::new(vec![i as u32; 10], &acct, &noise))
        .collect();
    let pool = ExecPool::new(8).unwrap();
    let results = pool.run(&datasets, |_, q| q.noisy_count(1.0));
    let successes = results.iter().filter(|r| r.is_ok()).count();
    assert_eq!(successes, 5, "exactly floor(budget/eps) charges must fit");
    assert!(
        acct.spent() <= acct.total() + 1e-9,
        "oversubscribed: spent {} of {}",
        acct.spent(),
        acct.total()
    );
    assert!((acct.spent() - 5.0).abs() < 1e-9);
}

/// Parts of one partition compose in parallel: with a budget of exactly ε,
/// counting *every* part concurrently must succeed, because the ledger
/// charges max-of-parts, not the sum. A race in the max-update would make
/// some parts fail spuriously or overcharge the root.
#[test]
fn concurrent_partition_counts_charge_only_the_max() {
    let (acct, q) = protect(160, 1.0, 0xBEE);
    let keys: Vec<u32> = (0..16).collect();
    let pool = ExecPool::new(8).unwrap();
    let results = q
        .with_ctx(ExecCtx::pool(&pool))
        .partition_map(&keys, |&v| v % 16, |part| part.noisy_count(1.0))
        .unwrap();
    for r in &results {
        r.as_ref().expect("parallel composition affords every part");
    }
    assert!(
        (acct.spent() - 1.0).abs() < 1e-9,
        "max-of-parts must charge ε once, spent {}",
        acct.spent()
    );
}

/// One pipeline touching every parallel aggregation kernel releases
/// bit-identical values — and charges identical ε — at 1, 2 and 8 workers.
#[test]
fn kernel_released_values_are_identical_for_workers_1_2_8() {
    let run = |workers: usize| {
        let (acct, q) = protect(10_000, 100.0, 0xD1CE);
        let pool = ExecPool::new(workers).unwrap().with_chunk_size(512);
        let q = q.with_ctx(ExecCtx::pool(&pool));
        let count = q
            .filter(|&v| v % 3 == 0)
            .map(|&v| u64::from(v) * 2)
            .noisy_count(0.5)
            .unwrap();
        let sum = q.noisy_sum_clamped(0.5, 100.0, |&v| f64::from(v)).unwrap();
        let median = q
            .noisy_median(0.5, 0.0, 10_000.0, 64, |&v| f64::from(v))
            .unwrap();
        (count, sum, median, acct.spent())
    };
    let baseline = run(1);
    assert_eq!(run(2), baseline, "workers=2 diverged");
    assert_eq!(run(8), baseline, "workers=8 diverged");
}

/// The execution contexts a `partition_map` must agree across: the
/// calling thread, and pools of 1, 2 and 8 workers.
fn contexts() -> Vec<ExecCtx> {
    let mut out = vec![ExecCtx::Sequential];
    for workers in [1, 2, 8] {
        out.push(ExecCtx::pool(
            &ExecPool::new(workers).unwrap().with_chunk_size(64),
        ));
    }
    out
}

#[test]
fn partition_map_preserves_part_order() {
    // Value `k` occurs `10k` times; keys listed in reverse, so results in
    // key order read 90, 80, …, 0 (exact sizes via a huge ε) on the
    // calling thread and on every pool, one worker included.
    let data: Vec<u32> = (0..10u32).flat_map(|k| vec![k; 10 * k as usize]).collect();
    let keys: Vec<u32> = (0..10).rev().collect();
    let expected: Vec<usize> = keys.iter().map(|&k| 10 * k as usize).collect();
    for ctx in contexts() {
        let acct = Accountant::new(1e12);
        let q = Queryable::new(data.clone(), &acct, &NoiseSource::seeded(3)).with_ctx(ctx.clone());
        let sizes = q
            .partition_map(
                &keys,
                |&x| x,
                |p| p.noisy_count(1e9).unwrap().round() as usize,
            )
            .unwrap();
        assert_eq!(sizes, expected, "{ctx:?}");
    }
}

#[test]
fn partition_map_releases_are_identical_for_any_worker_count() {
    // The core determinism contract: a fixed seed fixes every released
    // value, whether the parts are measured on the calling thread or by
    // any number of workers.
    let run = |ctx: ExecCtx| -> (Vec<u64>, f64) {
        let (acct, q) = protect(10_000, 1e12, 0xD5);
        let keys: Vec<u32> = (0..16).collect();
        let released = q
            .with_ctx(ctx)
            .partition_map(
                &keys,
                |&x| x % 16,
                |p| p.noisy_count(0.5).unwrap().to_bits(),
            )
            .unwrap();
        (released, acct.spent())
    };
    let mut ctxs = contexts().into_iter();
    let baseline = run(ctxs.next().unwrap());
    for ctx in ctxs {
        assert_eq!(run(ctx.clone()), baseline, "{ctx:?} diverged");
    }
}

#[test]
fn partition_map_reports_budget_refusals_per_part() {
    for ctx in contexts() {
        let (acct, q) = protect(1000, 0.25, 3);
        let q = q.with_ctx(ctx);
        let keys: Vec<u32> = (0..4).collect();
        // Each part tries to spend 0.2 twice; the ledger allows the first
        // round (max = 0.2) but the second round (max 0.4 > 0.25) fails.
        let first = q
            .partition_map(&keys, |&x| x % 4, |p| p.noisy_count(0.2))
            .unwrap();
        assert!(first.iter().all(|r| r.is_ok()));
        let second = q
            .partition_map(
                &keys,
                |&x| x % 4,
                |p| {
                    p.noisy_count(0.2)?;
                    p.noisy_count(0.2)
                },
            )
            .unwrap();
        assert!(second.iter().all(|r| r.is_err()));
        assert!((acct.spent() - 0.2).abs() < 1e-9);
    }
}

#[test]
fn partition_map_over_no_keys_is_empty() {
    let (acct, q) = protect(10, 100.0, 3);
    let keys: Vec<u32> = vec![];
    let out = q
        .partition_map(&keys, |&x| x, |p| p.noisy_count(1.0))
        .unwrap();
    assert!(out.is_empty());
    assert_eq!(acct.spent(), 0.0);
    // Duplicate keys are refused before any part runs.
    assert!(q
        .partition_map(&[1u32, 1], |&x| x, |p| p.noisy_count(1.0))
        .is_err());
}

#[test]
fn partition_map_runs_nested_queries_inside_workers() {
    let (acct, q) = protect(10_000, 10.0, 3);
    let keys: Vec<u32> = (0..8).collect();
    let pool = ExecPool::new(4).unwrap();
    let medians = q
        .with_ctx(ExecCtx::pool(&pool))
        .partition_map(
            &keys,
            |&x| x % 8,
            |p| {
                p.filter(|&x| x > 100)
                    .noisy_median(1.0, 0.0, 10_000.0, 100, |&x| f64::from(x))
                    .expect("budget")
            },
        )
        .unwrap();
    assert_eq!(medians.len(), 8);
    // Each part spent 1.0; parallel composition charges 1.0 total.
    assert!((acct.spent() - 1.0).abs() < 1e-9);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the budget, charge size, worker count and number of
    /// contenders, concurrent spends (a) never exceed the budget, (b) sum
    /// exactly to the successful charges, and (c) admit precisely as many
    /// charges as a sequential replay of the same accountant logic.
    #[test]
    fn concurrent_spends_respect_the_budget(
        total in 0.0f64..20.0,
        eps in 0.01f64..2.0,
        workers in 1usize..9,
        n in 1usize..40,
    ) {
        let acct = Accountant::new(total);
        let pool = ExecPool::new(workers).unwrap().with_chunk_size(1);
        let tasks: Vec<usize> = (0..n).collect();
        let outcomes = pool.run(&tasks, |_, _| acct.charge(eps).is_ok());
        let admitted = outcomes.iter().filter(|&&ok| ok).count();

        prop_assert!(acct.spent() <= acct.total() + 1e-6);
        prop_assert!((acct.spent() - admitted as f64 * eps).abs() < 1e-6);

        // All charges are equal, so the admission count is independent of
        // interleaving: replay the accountant's own rule sequentially.
        let mut sim_spent = 0.0f64;
        let mut sim_admitted = 0usize;
        for _ in 0..n {
            if sim_spent + eps <= total + 1e-9 {
                sim_spent += eps;
                sim_admitted += 1;
            }
        }
        prop_assert_eq!(admitted, sim_admitted);
    }

    /// `SessionManager` sessions racing noisy counts from pool workers must
    /// land exactly where a sequential replay of kernel `step` transitions
    /// over the same two-root Combined topology lands: per-analyst spends,
    /// global spend and total admissions all agree. Dyadic ε (multiples of
    /// 1/1024) keeps every comparison exact: with equal charges, which
    /// *analyst* wins a race can vary, but counts and sums cannot.
    #[test]
    fn session_manager_races_match_sequential_kernel_model(
        global_units in 1u32..1024,
        cap_units in 1u32..512,
        eps_units in 1u32..128,
        workers_idx in 0usize..3,
        n_analysts in 1usize..5,
        charges_each in 1usize..8,
    ) {
        let workers = [1usize, 2, 8][workers_idx];
        let global = f64::from(global_units) / 1024.0;
        let cap = f64::from(cap_units) / 1024.0;
        let eps = f64::from(eps_units) / 1024.0;

        let mgr = SessionManager::new((0..64u32).collect(), NoiseSource::seeded(9), global, cap);
        let names: Vec<String> = (0..n_analysts).map(|i| format!("analyst-{i}")).collect();
        // One task per (analyst, charge); workers race them all.
        let tasks: Vec<usize> = (0..n_analysts * charges_each).collect();
        let pool = ExecPool::new(workers).unwrap().with_chunk_size(1);
        let outcomes = pool.run(&tasks, |_, &t| {
            let session = mgr.session(&names[t % n_analysts]);
            session.noisy_count(eps).is_ok()
        });
        let admitted = outcomes.iter().filter(|&&ok| ok).count();

        // Sequential kernel replay: global root + one root per analyst,
        // each session a Combined(global, personal) — the exact topology
        // `SessionManager::session` builds — charged in analyst-major
        // order.
        let mut st = KernelState::new();
        let g = st.add_root(RootBudget::new(global));
        let g_node = st.add_node(NodeSpec::Root(g));
        let sessions: Vec<_> = (0..n_analysts)
            .map(|_| {
                let p = st.add_root(RootBudget::new(cap));
                let p_node = st.add_node(NodeSpec::Root(p));
                (p, st.add_node(NodeSpec::Combined(vec![g_node, p_node])))
            })
            .collect();
        let mut model = st;
        let mut model_admitted = 0usize;
        for _ in 0..charges_each {
            for &(_, node) in &sessions {
                if let Ok((next, _)) = step(&model, &Transition::Charge { node, eps }) {
                    model = next;
                    model_admitted += 1;
                }
            }
        }

        prop_assert_eq!(admitted, model_admitted);
        prop_assert_eq!(mgr.global().spent(), model.roots[0].spent);

        // When the global budget never binds (every personally-affordable
        // attempt fits), each analyst's spend is race-independent and must
        // match the model exactly, analyst by analyst. (When the global
        // DOES bind, *which* analyst wins the last slots is scheduling —
        // only the totals above are deterministic.)
        let personal_capacity = |n: usize| {
            let mut st = KernelState::new();
            let p = st.add_root(RootBudget::new(cap));
            let node = st.add_node(NodeSpec::Root(p));
            let mut m = st;
            let mut ok = 0usize;
            for _ in 0..n {
                if let Ok((next, _)) = step(&m, &Transition::Charge { node, eps }) {
                    m = next;
                    ok += 1;
                }
            }
            ok
        };
        let unconstrained: usize = (0..n_analysts).map(|_| personal_capacity(charges_each)).sum();
        if model_admitted == unconstrained {
            for (i, name) in names.iter().enumerate() {
                prop_assert_eq!(
                    mgr.analyst_budget(name).spent(),
                    model.roots[sessions[i].0 .0].spent
                );
            }
        }
    }

    /// Concurrent `TimedRelease::advance_to` calls racing from pool workers
    /// are idempotent and order-insensitive: the facade's final total must
    /// equal a sequential replay of clamped `Grant` transitions up to the
    /// maximum epoch — exactly, with dyadic per-epoch grants.
    #[test]
    fn timed_release_races_match_sequential_grant_replay(
        initial_units in 0u32..256,
        per_epoch_units in 1u32..64,
        ceiling_units in 0u32..2048,
        workers_idx in 0usize..3,
        epochs in prop::collection::vec(0u64..30, 1..12),
    ) {
        let workers = [1usize, 2, 8][workers_idx];
        let initial = f64::from(initial_units) / 1024.0;
        let per_epoch = f64::from(per_epoch_units) / 1024.0;
        let ceiling = initial + f64::from(ceiling_units) / 1024.0;

        let acct = Accountant::new(initial);
        let policy = TimedRelease::new(acct.clone(), per_epoch, Some(ceiling));
        let pool = ExecPool::new(workers).unwrap().with_chunk_size(1);
        pool.run(&epochs, |_, &e| policy.advance_to(e));

        // Sequential replay against the kernel model: the policy's clamp
        // feeds `Grant` transitions; racing advances collapse to one
        // monotone walk to the maximum epoch.
        let mut st = KernelState::new();
        let r = st.add_root(RootBudget::new(initial));
        let mut model = st.clone();
        let mut epoch = 0u64;
        for &e in &epochs {
            if e <= epoch {
                continue;
            }
            let steps = e - epoch;
            epoch = e;
            let mut grant = per_epoch * steps as f64;
            grant = grant.min((ceiling - model.roots[r.0].total).max(0.0));
            if grant > 0.0 {
                let (next, _) = step(&model, &Transition::Grant { root: r, extra: grant }).unwrap();
                model = next;
            }
        }

        prop_assert_eq!(policy.epoch(), epoch);
        prop_assert_eq!(acct.total(), model.roots[0].total);
        prop_assert_eq!(acct.spent(), 0.0);
    }
}

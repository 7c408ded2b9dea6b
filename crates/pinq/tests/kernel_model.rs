//! Model-checking the privacy kernel.
//!
//! Two layers of assurance for `pinq::kernel::model`:
//!
//! 1. **Exhaustive state enumeration** — every transition sequence up to a
//!    fixed depth, over a family of small charge-DAG shapes (root, scaled,
//!    combined, partitioned, nested), asserting the kernel invariants after
//!    every step: budget soundness, monotone spend under charges,
//!    max-of-parts consistency, transactional `Combined` rollback, refund
//!    inverse, and delta/spend agreement.
//! 2. **Facade ≡ model** — the concurrent shells (`Accountant`,
//!    `Queryable::partition`, `SessionManager`) driven through the public
//!    API at 1/2/8 workers must land in exactly the state a sequential
//!    replay of kernel transitions predicts. Charges use dyadic-rational ε
//!    (multiples of 1/1024) so float addition is order-independent and the
//!    comparison can be exact.

use pinq::kernel::model::{
    predict, step, KernelState, LedgerBook, NodeId, NodeSpec, RootBudget, RootId, Transition,
    TOLERANCE,
};
use pinq::{Accountant, ExecCtx, ExecPool, NoiseSource, Queryable};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Shapes: small DAGs exercising every NodeSpec variant.
// ---------------------------------------------------------------------

/// A shape is a pre-built state plus the ids of its chargeable leaves.
struct Shape {
    name: &'static str,
    state: KernelState,
    leaves: Vec<NodeId>,
}

fn shapes() -> Vec<Shape> {
    let mut out = Vec::new();

    // One root.
    {
        let mut st = KernelState::new();
        let r = st.add_root(RootBudget::new(1.0));
        let n = st.add_node(NodeSpec::Root(r));
        out.push(Shape {
            name: "root",
            state: st,
            leaves: vec![n],
        });
    }

    // Root behind a ×2 scaling.
    {
        let mut st = KernelState::new();
        let r = st.add_root(RootBudget::new(2.0));
        let root = st.add_node(NodeSpec::Root(r));
        let s = st.add_node(NodeSpec::Scaled {
            parent: root,
            factor: 2.0,
        });
        out.push(Shape {
            name: "scaled",
            state: st,
            leaves: vec![s],
        });
    }

    // Two roots of unequal budget under a Combined (rollback territory).
    {
        let mut st = KernelState::new();
        let rich = st.add_root(RootBudget::new(2.0));
        let poor = st.add_root(RootBudget::new(0.5));
        let a = st.add_node(NodeSpec::Root(rich));
        let b = st.add_node(NodeSpec::Root(poor));
        let c = st.add_node(NodeSpec::Combined(vec![a, b]));
        out.push(Shape {
            name: "combined",
            state: st,
            leaves: vec![c],
        });
    }

    // A two-part ledger straight on a root (parallel composition).
    {
        let mut st = KernelState::new();
        let r = st.add_root(RootBudget::new(1.0));
        let root = st.add_node(NodeSpec::Root(r));
        let l = st.add_ledger(root, 2);
        let p0 = st.add_node(NodeSpec::Part {
            ledger: l,
            index: 0,
        });
        let p1 = st.add_node(NodeSpec::Part {
            ledger: l,
            index: 1,
        });
        out.push(Shape {
            name: "partition",
            state: st,
            leaves: vec![p0, p1],
        });
    }

    // Parts behind a scaling, plus a Combined of two parts of the *same*
    // ledger — the corner where a multi-input charge hits one book twice.
    {
        let mut st = KernelState::new();
        let r = st.add_root(RootBudget::new(2.0));
        let root = st.add_node(NodeSpec::Root(r));
        let s = st.add_node(NodeSpec::Scaled {
            parent: root,
            factor: 2.0,
        });
        let l = st.add_ledger(s, 2);
        let p0 = st.add_node(NodeSpec::Part {
            ledger: l,
            index: 0,
        });
        let p1 = st.add_node(NodeSpec::Part {
            ledger: l,
            index: 1,
        });
        let c = st.add_node(NodeSpec::Combined(vec![p0, p1]));
        out.push(Shape {
            name: "scaled-partition-combined",
            state: st,
            leaves: vec![p0, p1, c],
        });
    }

    out
}

/// The transition alphabet for one shape: charges at two magnitudes and a
/// refund per leaf, plus a grant on every root.
fn alphabet(shape: &Shape) -> Vec<Transition> {
    let mut out = Vec::new();
    for &leaf in &shape.leaves {
        out.push(Transition::Charge {
            node: leaf,
            eps: 0.375,
        });
        out.push(Transition::Charge {
            node: leaf,
            eps: 0.75,
        });
        out.push(Transition::Refund {
            node: leaf,
            eps: 0.375,
        });
    }
    for r in 0..shape.state.roots.len() {
        out.push(Transition::Grant {
            root: RootId(r),
            extra: 0.5,
        });
    }
    out
}

fn assert_invariants(name: &str, seq: &[usize], st: &KernelState) {
    for (i, root) in st.roots.iter().enumerate() {
        assert!(
            root.spent <= root.total + TOLERANCE,
            "{name} {seq:?}: root {i} oversubscribed: {} of {}",
            root.spent,
            root.total
        );
        assert!(
            root.spent >= 0.0,
            "{name} {seq:?}: root {i} negative spend {}",
            root.spent
        );
    }
    for (i, ledger) in st.ledgers.iter().enumerate() {
        let fold = ledger.book.spends.iter().cloned().fold(0.0, f64::max);
        assert!(
            (ledger.book.max - fold).abs() < 1e-12,
            "{name} {seq:?}: ledger {i} max {} drifted from fold {}",
            ledger.book.max,
            fold
        );
        assert!(
            ledger.book.spends.iter().all(|&s| s >= 0.0),
            "{name} {seq:?}: ledger {i} negative part spend"
        );
    }
}

/// Walk every transition sequence of length ≤ `depth` over `shape`,
/// checking invariants and step-local properties at each node of the tree.
fn enumerate(shape: &Shape, depth: usize) {
    let alpha = alphabet(shape);
    // Iterative DFS over sequences, carrying the state at each prefix.
    let mut stack: Vec<(KernelState, Vec<usize>)> = vec![(shape.state.clone(), Vec::new())];
    let mut visited = 0usize;
    while let Some((st, seq)) = stack.pop() {
        if seq.len() >= depth {
            continue;
        }
        for (ti, t) in alpha.iter().enumerate() {
            let mut next_seq = seq.clone();
            next_seq.push(ti);
            let before = st.clone();
            match step(&st, t) {
                Ok((next, deltas)) => {
                    assert_eq!(st, before, "step mutated its input");
                    assert_invariants(shape.name, &next_seq, &next);
                    // Per-root delta sums must equal the actual spend
                    // movement of this step.
                    for r in 0..next.roots.len() {
                        let moved: f64 = deltas
                            .iter()
                            .filter(|d| d.root == RootId(r))
                            .map(|d| d.eps)
                            .sum();
                        let diff = next.roots[r].spent - st.roots[r].spent;
                        assert!(
                            (moved - diff).abs() < 1e-12,
                            "{} {next_seq:?}: deltas say {moved}, root {r} moved {diff}",
                            shape.name
                        );
                    }
                    if let Transition::Charge { .. } = t {
                        for r in 0..next.roots.len() {
                            assert!(
                                next.roots[r].spent >= st.roots[r].spent - 1e-15,
                                "{} {next_seq:?}: charge lowered root {r}",
                                shape.name
                            );
                        }
                        // A successful charge's deltas match what predict
                        // promised on the pre-state — except through a
                        // `Combined`: where its inputs share a ledger, a
                        // charge commits earlier inputs' ledger books
                        // before walking later ones while predict
                        // (deliberately, like EXPLAIN's
                        // `ExplainTree::predict` on a snapshot state)
                        // reads one frozen state.
                        if let Transition::Charge { node, eps } = t {
                            if !matches!(st.nodes[node.0], NodeSpec::Combined(_)) {
                                let promised: Vec<(String, f64)> = predict(&st, *node, *eps)
                                    .into_iter()
                                    .map(|d| (d.path, d.eps))
                                    .collect();
                                let applied: Vec<(String, f64)> =
                                    deltas.iter().map(|d| (d.path.clone(), d.eps)).collect();
                                assert_eq!(
                                    promised, applied,
                                    "{} {next_seq:?}: predict/charge drift",
                                    shape.name
                                );
                            }
                        }
                    }
                    visited += 1;
                    stack.push((next, next_seq));
                }
                Err(_) => {
                    // A failed transition must be free: the (discarded)
                    // successor equals the input — `step` returns Err
                    // without a state, so purity of the input is the claim.
                    assert_eq!(st, before, "failed step mutated its input");
                    visited += 1;
                }
            }
        }
    }
    assert!(visited > 0, "{}: nothing enumerated", shape.name);
}

#[test]
fn exhaustive_enumeration_upholds_kernel_invariants() {
    for shape in shapes() {
        // Depth 4 over a ≤10-symbol alphabet ≈ 10^4 sequences per shape —
        // exhaustive yet fast, since states are tiny values.
        enumerate(&shape, 4);
    }
}

#[test]
fn combined_rollback_leaves_no_residue_in_the_model() {
    let mut st = KernelState::new();
    let rich = st.add_root(RootBudget::new(5.0));
    let poor = st.add_root(RootBudget::new(0.25));
    let a = st.add_node(NodeSpec::Root(rich));
    let b = st.add_node(NodeSpec::Root(poor));
    let c = st.add_node(NodeSpec::Combined(vec![a, b]));
    // Spend part of the poor budget, then overdraw through the Combined.
    let (st, _) = step(&st, &Transition::Charge { node: b, eps: 0.25 }).unwrap();
    let err = step(&st, &Transition::Charge { node: c, eps: 0.5 });
    assert!(err.is_err());
    // The pure model simply discards the failed successor: both roots hold
    // exactly their pre-attempt spends.
    assert_eq!(st.roots[0].spent, 0.0);
    assert_eq!(st.roots[1].spent, 0.25);
}

#[test]
fn refund_inverts_charge_across_every_shape() {
    for shape in shapes() {
        for &leaf in &shape.leaves {
            let eps = 0.375;
            let Ok((charged, _)) = step(&shape.state, &Transition::Charge { node: leaf, eps })
            else {
                continue;
            };
            let (refunded, deltas) =
                step(&charged, &Transition::Refund { node: leaf, eps }).unwrap();
            for (r, root) in refunded.roots.iter().enumerate() {
                assert!(
                    (root.spent - shape.state.roots[r].spent).abs() < 1e-12,
                    "{}: refund did not invert charge at root {r}",
                    shape.name
                );
            }
            assert!(
                deltas.iter().all(|d| d.eps <= 0.0),
                "{}: refund deltas must be non-positive",
                shape.name
            );
        }
    }
}

#[test]
fn extend_dag_and_new_ledger_grow_the_state_densely() {
    let mut st = KernelState::new();
    let (st1, _) = step(&st, &Transition::NewRoot { total: 1.0 }).unwrap();
    assert_eq!(st1.roots.len(), 1);
    let (st2, _) = step(
        &st1,
        &Transition::ExtendDag {
            spec: NodeSpec::Root(RootId(0)),
        },
    )
    .unwrap();
    let (st3, _) = step(
        &st2,
        &Transition::NewLedger {
            parent: NodeId(0),
            parts: 3,
        },
    )
    .unwrap();
    assert_eq!(st3.ledgers.len(), 1);
    assert_eq!(st3.ledgers[0].book, LedgerBook::new(3));
    // The original state never moved.
    st.add_root(RootBudget::new(9.0));
    assert_eq!(st.roots.len(), 1);
}

// ---------------------------------------------------------------------
// Facade ≡ model.
// ---------------------------------------------------------------------

/// ε quantized to 1/1024 so float sums are exact and order-independent.
fn dyadic(units: u32) -> f64 {
    f64::from(units) / 1024.0
}

/// The facade's partition pipeline at 1, 2 and 8 workers must land every
/// budget and ledger in exactly the state a sequential replay of kernel
/// transitions predicts — bit-for-bit, thanks to dyadic ε.
#[test]
fn partition_facade_matches_sequential_kernel_replay_at_1_2_8_workers() {
    let n_parts = 8usize;
    let charges_per_part = 5u32;
    let eps_units = 3u32; // 3/1024 per charge

    for &workers in &[1usize, 2, 8] {
        // Facade: partition a dataset, charge every part concurrently.
        let acct = Accountant::new(1.0);
        let noise = NoiseSource::seeded(0x5EED);
        let data: Vec<u32> = (0..512).collect();
        let pool = ExecPool::new(workers).unwrap();
        let q = Queryable::new(data, &acct, &noise).with_ctx(ExecCtx::pool(&pool));
        let keys: Vec<u32> = (0..n_parts as u32).collect();
        let results = q
            .partition_map(
                &keys,
                |&v| v % n_parts as u32,
                |part| {
                    let mut ok = 0u32;
                    for _ in 0..charges_per_part {
                        part.noisy_count(dyadic(eps_units))?;
                        ok += 1;
                    }
                    Ok::<u32, pinq::Error>(ok)
                },
            )
            .unwrap();
        for r in &results {
            assert_eq!(*r.as_ref().unwrap(), charges_per_part);
        }

        // Model: the same topology, charges replayed sequentially in an
        // arbitrary (part-major) order — parallel composition makes the
        // final state order-independent when every charge succeeds.
        let mut st = KernelState::new();
        let r = st.add_root(RootBudget::new(1.0));
        let root = st.add_node(NodeSpec::Root(r));
        let scaled = st.add_node(NodeSpec::Scaled {
            parent: root,
            factor: 1.0,
        });
        let ledger = st.add_ledger(scaled, n_parts);
        let part_nodes: Vec<NodeId> = (0..n_parts)
            .map(|i| st.add_node(NodeSpec::Part { ledger, index: i }))
            .collect();
        let mut model = st;
        for &p in &part_nodes {
            for _ in 0..charges_per_part {
                let (next, _) = step(
                    &model,
                    &Transition::Charge {
                        node: p,
                        eps: dyadic(eps_units),
                    },
                )
                .unwrap();
                model = next;
            }
        }

        // Exact agreement: root spend and every ledger column.
        let facade_budget = acct.budget_snapshot();
        assert_eq!(
            facade_budget.spent, model.roots[0].spent,
            "workers={workers}: facade root diverged from model"
        );
        assert_eq!(
            facade_budget.total, model.roots[0].total,
            "workers={workers}: totals diverged"
        );
        // Every part spent the same; the root saw max-of-parts exactly.
        let expected_part = f64::from(charges_per_part * eps_units) / 1024.0;
        assert_eq!(model.ledgers[0].book.max, expected_part);
        assert_eq!(facade_budget.spent, expected_part);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Concurrent racing charges through the Accountant facade admit
    /// exactly as many spends as a sequential replay of kernel `step`
    /// transitions — at any worker count, with dyadic ε so the comparison
    /// is exact.
    #[test]
    fn accountant_facade_admission_matches_kernel_step(
        total_units in 0u32..2048,
        eps_units in 1u32..256,
        workers in 1usize..9,
        n in 1usize..40,
    ) {
        let total = dyadic(total_units);
        let eps = dyadic(eps_units);
        let acct = Accountant::new(total);
        let pool = ExecPool::new(workers).unwrap().with_chunk_size(1);
        let tasks: Vec<usize> = (0..n).collect();
        let outcomes = pool.run(&tasks, |_, _| acct.charge(eps).is_ok());
        let admitted = outcomes.iter().filter(|&&ok| ok).count();

        // Sequential kernel replay: same budget, same n attempts.
        let mut st = KernelState::new();
        let r = st.add_root(RootBudget::new(total));
        let node = st.add_node(NodeSpec::Root(r));
        let mut model = st;
        let mut model_admitted = 0usize;
        for _ in 0..n {
            if let Ok((next, _)) = step(&model, &Transition::Charge { node, eps }) {
                model = next;
                model_admitted += 1;
            }
        }

        prop_assert_eq!(admitted, model_admitted);
        prop_assert_eq!(acct.budget_snapshot().spent, model.roots[0].spent);
    }
}

/// The noisy counts `pre` spends on parts of a partition before the chain
/// goes on through one of them: `(part, ε units)` pairs.
type PreCharges = Vec<(usize, u32)>;

/// Build a random chain of `partition` / `group_by` / `select_many` over
/// one or two budgets, charging some parts on the way, and return its
/// last queryable.
fn random_chain(budgets: &[&Accountant], ops: &[(u8, usize, usize, PreCharges)]) -> Queryable<u32> {
    let noise = NoiseSource::seeded(0x5EED);
    let mut q = Queryable::new_shared(std::sync::Arc::new((0..256).collect()), budgets, &noise);
    for (kind, a, b, pre) in ops {
        q = match kind {
            0 => {
                let n = *a as u32;
                let keys: Vec<u32> = (0..n).collect();
                let mut parts = q.partition(&keys, move |v| v % n).unwrap();
                for &(part, units) in pre {
                    parts[part % a].noisy_count(dyadic(units)).unwrap();
                }
                parts.swap_remove(b % a)
            }
            1 => q.group_by(|v| v % 7).map(|g| g.key),
            _ => q.select_many(*a, |v| vec![*v; 2]).unwrap(),
        };
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// EXPLAIN's prediction is what the charge books: over random chains
    /// of `partition` (with parts charged first, so later charges are
    /// absorbed or forward only a max increase), `group_by` and
    /// `select_many`, on one budget or on a two-budget source, the summed
    /// `explain().predict(eps)` equals the accountants' `spent()` delta
    /// after `noisy_count(eps)` bit for bit, and the predicted non-zero
    /// paths and deltas are exactly the new audit-log entries. Dyadic ε
    /// keeps every sum exact. (A `Combined` whose inputs share a ledger is
    /// left out: a charge commits one input's book before walking the
    /// next, while a prediction reads one frozen state.)
    #[test]
    fn explain_predictions_equal_booked_charges(
        two_budgets in any::<bool>(),
        ops in proptest::collection::vec(
            (
                0u8..3,
                1usize..6,
                0usize..6,
                proptest::collection::vec((0usize..8, 1u32..64), 0..4),
            ),
            0..6,
        ),
        eps_units in 1u32..64,
    ) {
        let a = Accountant::new(1_048_576.0);
        let b = Accountant::new(1_048_576.0);
        let budgets: Vec<&Accountant> = if two_budgets { vec![&a, &b] } else { vec![&a] };
        let q = random_chain(&budgets, &ops);
        let eps = dyadic(eps_units);

        let predicted = q.explain().predict(eps);
        let before: Vec<(f64, usize)> =
            budgets.iter().map(|acct| (acct.spent(), acct.audit_log().len())).collect();
        q.noisy_count(eps).unwrap();

        let booked: f64 = budgets
            .iter()
            .zip(&before)
            .map(|(acct, (spent, _))| acct.spent() - spent)
            .sum();
        let predicted_sum: f64 = predicted.iter().map(|(_, d)| d).sum();
        prop_assert_eq!(predicted_sum.to_bits(), booked.to_bits(), "{:?}", predicted);
        let logged: Vec<(String, u64)> = budgets
            .iter()
            .zip(&before)
            .flat_map(|(acct, &(_, len))| acct.audit_log().split_off(len))
            .map(|e| (e.path.to_string(), e.epsilon.to_bits()))
            .collect();
        let forwarded: Vec<(String, u64)> = predicted
            .into_iter()
            .filter(|(_, d)| *d > 0.0)
            .map(|(path, d)| (path, d.to_bits()))
            .collect();
        prop_assert_eq!(forwarded, logged);
    }
}

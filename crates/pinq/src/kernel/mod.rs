//! The sealed privacy kernel: every ε-mutating state transition in one
//! auditable module tree.
//!
//! Structure (the Featherweight-PINQ layering):
//!
//! * [`model`] — the **pure core**: [`model::KernelState`] +
//!   [`model::Transition`] + [`model::step`], side-effect-free arithmetic
//!   the test suite enumerates and property-checks. All privacy constants
//!   and formulas (tolerance, stability scaling, max-of-parts forwarding,
//!   refund clamping, charge-path narration) have exactly one definition
//!   here.
//! * [`budget`] — the [`budget::Accountant`] shell: a
//!   [`model::RootBudget`] behind a mutex, plus audit-log, sink-event and
//!   phase-observation mechanics. Public, because data owners configure
//!   budgets through it.
//! * `charge` (crate-internal) — the live charge DAG (`ChargeNode`)
//!   whose walks mirror [`model::step`]'s `Charge`/`Refund` transitions
//!   node-for-node. Its snapshot compiles the live DAG into a
//!   [`model::KernelState`] in one walk; EXPLAIN renders that state and
//!   prices pending charges on it with [`model::predict`], so the DAG
//!   exists twice — live and in the model — and nowhere else.
//! * `partition` (crate-internal) — the parallel-composition ledger: a
//!   [`model::LedgerBook`] behind a mutex.
//!
//! **The seal:** every mutating entry point of the shells
//! (`Accountant::charge_with`, `ChargeNode::charge_traced`,
//! `PartitionLedger::charge_child_traced`/`charge_parts`, the node/ledger
//! constructors, …) is `pub(in crate::kernel)`. The rest of the crate composes privacy
//! state exclusively through the oblivious functions below — it can hold
//! and describe `ChargeNode`s but cannot construct them or move ε
//! through them except via this module. CI enforces the boundary with the
//! `kernel-seal` static check (`scripts/kernel_seal.sh`), which fails
//! naming the offending path if privileged symbols appear outside
//! `crates/pinq/src/kernel/`.

pub mod budget;
pub(crate) mod charge;
pub mod model;
pub(crate) mod partition;

pub(crate) use charge::ChargeNode;

use crate::error::Result;
use budget::{Accountant, ChargeMeta};
use partition::PartitionLedger;
use std::sync::Arc;

// ---------------------------------------------------------------------
// DAG construction — the only way the rest of the crate grows the charge
// graph (the live counterpart of `Transition::ExtendDag`/`NewLedger`).
// ---------------------------------------------------------------------

/// A root node charging directly against one dataset budget.
pub(crate) fn root_node(budget: &Accountant) -> Arc<ChargeNode> {
    Arc::new(ChargeNode::Root(budget.clone()))
}

/// The charge node protecting a dataset guarded by several budgets at
/// once: a single root for one accountant, a transactional `Combined` of
/// roots otherwise (every budget must afford every charge).
pub(crate) fn shared_root_node(budgets: &[&Accountant]) -> Arc<ChargeNode> {
    if budgets.len() == 1 {
        root_node(budgets[0])
    } else {
        Arc::new(ChargeNode::Combined(
            budgets.iter().map(|b| root_node(b)).collect(),
        ))
    }
}

/// The charge node for a two-input transformation (e.g. `join`): each
/// input charged through its own stability scaling, transactionally.
pub(crate) fn scaled_pair(
    left: &Arc<ChargeNode>,
    left_factor: f64,
    right: &Arc<ChargeNode>,
    right_factor: f64,
) -> Arc<ChargeNode> {
    Arc::new(ChargeNode::Combined(vec![
        Arc::new(ChargeNode::Scaled {
            parent: left.clone(),
            factor: left_factor,
        }),
        Arc::new(ChargeNode::Scaled {
            parent: right.clone(),
            factor: right_factor,
        }),
    ]))
}

/// The parts of one `partition`: one shared ledger (max-of-parts
/// accounting) forwarding through a stability scaling of the parent node.
/// The live counterpart of a `NewLedger` transition; each
/// [`PartitionParts::part`] is one `ExtendDag`.
pub(crate) struct PartitionParts(Arc<PartitionLedger>);

/// Open the ledger for a `partition` of `parent` into `parts` parts,
/// charging through a ×`factor` scaling.
pub(crate) fn partition_parts(
    parent: &Arc<ChargeNode>,
    factor: f64,
    parts: usize,
) -> PartitionParts {
    PartitionParts(Arc::new(PartitionLedger::new(
        Arc::new(ChargeNode::Scaled {
            parent: parent.clone(),
            factor,
        }),
        parts,
    )))
}

impl PartitionParts {
    /// The charge node of part `index`. Built by value, so a fan-out that
    /// charges each part once allocates no node per part; a queryable that
    /// outlives the call wraps it in an `Arc`.
    pub(crate) fn part(&self, index: usize) -> ChargeNode {
        ChargeNode::PartitionPart {
            ledger: self.0.clone(),
            index,
        }
    }
}

// ---------------------------------------------------------------------
// Charging — the only way the rest of the crate spends ε.
// ---------------------------------------------------------------------

/// Provenance for a batch of charges, prepared once so hot loops (e.g.
/// per-part noisy counts) do not re-intern operator strings per part.
pub(crate) struct PreparedCharge {
    operator: &'static str,
    meta: ChargeMeta,
}

/// Prepare provenance for one or more charges initiated by `operator`
/// under an optional analysis label.
pub(crate) fn prepare(operator: &'static str, label: Option<Arc<str>>) -> PreparedCharge {
    PreparedCharge {
        operator,
        meta: ChargeMeta::new(operator, label),
    }
}

/// Spend `eps` through `node` — the live counterpart of a
/// `Transition::Charge`. On failure nothing is spent anywhere (multi-input
/// nodes roll back transactionally). When an explain recorder is
/// installed, the per-root deltas are captured atomically with the charge
/// and recorded against the node's static description; on `Err` the trace
/// is discarded, matching the kernel model where a failed `step` yields no
/// deltas.
pub(crate) fn charge_prepared(node: &ChargeNode, eps: f64, prep: &PreparedCharge) -> Result<()> {
    if let Some(rec) = crate::explain::recorder() {
        let mut trace = Vec::new();
        node.charge_traced(eps, &prep.meta, "", &mut Some(&mut trace))?;
        rec.record(prep.operator, &node.describe(), eps, &trace);
        Ok(())
    } else {
        node.charge_with(eps, &prep.meta, "")
    }
}

/// Spend `eps` on parts `0..n` of `parts`, in part order, as one kernel
/// transition: the ledger lock is taken once for the whole fan-out. The
/// max-of-parts rule is a pure function of the part spends, so this books,
/// forwards, narrates paths and stops at the first refusal exactly as `n`
/// in-order [`charge_prepared`] calls on [`PartitionParts::part`] nodes
/// would, and records the same per-part EXPLAIN traces when a recorder is
/// installed. Returns how many parts were charged (all `n` on `Ok`) and
/// the refusal, if any.
pub(crate) fn charge_fan_out(
    parts: &PartitionParts,
    n: usize,
    eps: f64,
    prep: &PreparedCharge,
) -> (usize, Result<()>) {
    match crate::explain::recorder() {
        Some(rec) => {
            let mut record = |index: usize, trace: &[(String, f64)]| {
                rec.record(prep.operator, &parts.part(index).describe(), eps, trace);
            };
            parts.0.charge_parts(n, eps, &prep.meta, Some(&mut record))
        }
        None => parts.0.charge_parts(n, eps, &prep.meta, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn shared_root_collapses_single_budget() {
        let a = Accountant::new(1.0);
        let node = shared_root_node(&[&a]);
        assert_eq!(node.describe(), "root");
        let b = Accountant::new(2.0);
        let both = shared_root_node(&[&a, &b]);
        assert_eq!(both.describe(), "(in[0]:root+in[1]:root)");
    }

    #[test]
    fn charge_prepared_spends_like_a_direct_walk() {
        let a = Accountant::new(1.0);
        let node = root_node(&a);
        let prep = prepare("noisy_count", None);
        charge_prepared(&node, 0.25, &prep).unwrap();
        assert!((a.spent() - 0.25).abs() < 1e-15);
        assert_eq!(&*a.audit_log()[0].operator, "noisy_count");
    }

    #[test]
    fn partition_nodes_share_one_ledger() {
        let a = Accountant::new(1.0);
        let ledger = partition_parts(&root_node(&a), 2.0, 3);
        let parts: Vec<ChargeNode> = (0..3).map(|i| ledger.part(i)).collect();
        let prep = prepare("noisy_count", None);
        for p in &parts {
            charge_prepared(p, 0.1, &prep).unwrap();
        }
        // Max-of-parts: the source owes 0.1 × scale 2, once.
        assert!((a.spent() - 0.2).abs() < 1e-12);
        assert_eq!(parts[2].describe(), "part[2]/scale(x2)/root");
    }

    /// A fan-out's starting state: a root of budget `total`, pre-spent by
    /// `root_pre`; when `sibling` is set, an outer two-way partition whose
    /// part 0 is pre-spent by it and whose part 1 is the parent; then a
    /// ×`factor` ledger of `parts` parts, some pre-charged by `pre`.
    #[derive(Debug)]
    struct FanOutCase {
        total: f64,
        root_pre: f64,
        sibling: Option<f64>,
        factor: f64,
        parts: usize,
        pre: Vec<(usize, f64)>,
        n: usize,
        eps: f64,
    }

    /// What an owner can observe after a fan-out: the charged-prefix
    /// length, the refusal, `spent()` bits, the ledger's part spends, and
    /// the audit log as (operator, path, ε bits, sequence).
    #[derive(Debug, PartialEq)]
    struct FanOutBooks {
        charged: usize,
        refusal: Option<crate::error::Error>,
        spent: u64,
        spends: Vec<u64>,
        audit: Vec<(String, String, u64, u64)>,
    }

    fn fan_out_world(case: &FanOutCase) -> (Accountant, PartitionParts) {
        let acct = Accountant::new(case.total);
        let root = root_node(&acct);
        let pre = prepare("pre", None);
        let _ = charge_prepared(&root, case.root_pre, &pre);
        let parent = match case.sibling {
            Some(sibling) => {
                let outer = partition_parts(&root, 1.0, 2);
                let _ = charge_prepared(&outer.part(0), sibling, &pre);
                Arc::new(outer.part(1))
            }
            None => root,
        };
        let parts = partition_parts(&parent, case.factor, case.parts);
        for &(index, eps) in &case.pre {
            let _ = charge_prepared(&parts.part(index % case.parts), eps, &pre);
        }
        (acct, parts)
    }

    /// Run `case`'s fan-out batched (one `charge_fan_out`) or as `n`
    /// in-order `charge_prepared` calls stopping at the first refusal.
    fn fan_out_books(case: &FanOutCase, batched: bool) -> FanOutBooks {
        let (acct, parts) = fan_out_world(case);
        let prep = prepare("noisy_count", None);
        let (charged, booked) = if batched {
            charge_fan_out(&parts, case.n, case.eps, &prep)
        } else {
            let refused = (0..case.n)
                .map(|i| (i, charge_prepared(&parts.part(i), case.eps, &prep)))
                .find(|(_, r)| r.is_err());
            refused.unwrap_or((case.n, Ok(())))
        };
        FanOutBooks {
            charged,
            refusal: booked.err(),
            spent: acct.spent().to_bits(),
            spends: parts.0.book().spends.iter().map(|s| s.to_bits()).collect(),
            audit: acct
                .audit_log()
                .iter()
                .map(|e| {
                    let (op, path) = (e.operator.to_string(), e.path.to_string());
                    (op, path, e.epsilon.to_bits(), e.sequence)
                })
                .collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `charge_fan_out` is `n` in-order `charge_prepared` calls: the
        /// same charged prefix, refusal, spend bits, part spends and audit
        /// log, over random budgets, ε, stabilities, part counts, pre-spent
        /// parents and pre-charged parts (which make later parts forward,
        /// and so make refusals land partway through a fan-out).
        #[test]
        fn charge_fan_out_equals_in_order_part_charges(
            total_units in 0u32..4096,
            root_pre_units in 0u32..1024,
            sibling_units in 0u32..2048,
            nested in any::<bool>(),
            factor_halves in 1u32..8,
            n in 1usize..301,
            extra_parts in 0usize..3,
            pre in proptest::collection::vec((0usize..400, 1u32..1024), 0..8),
            eps_units in 1u32..512,
        ) {
            let case = FanOutCase {
                total: f64::from(total_units) / 1024.0,
                root_pre: f64::from(root_pre_units) / 1024.0,
                sibling: nested.then(|| f64::from(sibling_units) / 1024.0),
                factor: f64::from(factor_halves) / 2.0,
                parts: n + extra_parts,
                pre: pre.iter().map(|&(i, u)| (i, f64::from(u) / 1024.0)).collect(),
                n,
                eps: f64::from(eps_units) / 1024.0,
            };
            let batched = fan_out_books(&case, true);
            prop_assert_eq!(&batched, &fan_out_books(&case, false), "{:?}", case);
        }
    }

    #[test]
    fn a_fan_out_refused_partway_keeps_its_charged_prefix() {
        // Part 2 is pre-charged to 0.5, so at ε 0.25 parts 0 and 1 are
        // absorbed and part 2 must forward 0.25, which the 0.6 budget
        // cannot afford.
        let case = FanOutCase {
            total: 0.6,
            root_pre: 0.0,
            sibling: None,
            factor: 1.0,
            parts: 4,
            pre: vec![(2, 0.5)],
            n: 4,
            eps: 0.25,
        };
        let batched = fan_out_books(&case, true);
        assert_eq!(batched, fan_out_books(&case, false));
        assert_eq!(batched.charged, 2);
        assert!(batched.refusal.is_some());
        assert_eq!(batched.spends, [0.25f64, 0.25, 0.5, 0.0].map(f64::to_bits));
    }

    #[test]
    fn charge_fan_out_records_the_per_part_explain_traces() {
        let _guard = crate::explain::test_global_guard();
        // ×13 appears in no other test, so the recorder's entries for this
        // run are identifiable although the recorder is process-global.
        let case = FanOutCase {
            total: 10.0,
            root_pre: 0.0,
            sibling: Some(0.5),
            factor: 13.0,
            parts: 5,
            pre: vec![(3, 0.1)],
            n: 5,
            eps: 0.05,
        };
        let traces = |batched: bool| {
            let rec = Arc::new(crate::explain::ExplainRecorder::new());
            crate::explain::install_explain_recorder(rec.clone());
            fan_out_books(&case, batched);
            crate::explain::uninstall_explain_recorder();
            let report = rec.report();
            let full: Vec<(String, u64, u64)> = report
                .full_paths
                .iter()
                .filter(|p| p.path.contains("scale(x13)"))
                .map(|p| (p.path.clone(), p.calls, p.predicted_eps.to_bits()))
                .collect();
            full
        };
        let batched = traces(true);
        assert_eq!(batched, traces(false));
        assert_eq!(batched.len(), 5, "{batched:?}");
    }
}

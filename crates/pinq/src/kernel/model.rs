//! The pure privacy state machine — every ε transition as side-effect-free
//! arithmetic.
//!
//! This module is the *verified core* of the kernel (the Featherweight-PINQ
//! reduction): a value-semantics [`KernelState`] holding per-root budgets,
//! charge-DAG topology and partition-ledger maxima, plus a [`Transition`]
//! enum applied through one function, [`step`]. `step` never touches a
//! lock, a clock, a sink or an allocator-backed global: given the same
//! state and transition it returns the same successor state and the same
//! per-root deltas, which is what makes it enumerable and property-testable
//! (`tests/kernel_model.rs`).
//!
//! The concurrent shells in [`super::budget`], `super::charge` and
//! `super::partition` hold the *same* primitive values ([`RootBudget`],
//! [`LedgerBook`]) behind their fine-grained mutexes and delegate all
//! arithmetic here, so the live engine and the model cannot drift: the
//! tolerance check, the refund clamp, the max-of-parts forwarding rule and
//! the charge-path narration have exactly one implementation each.
//!
//! Invariants `step` maintains (and the enumeration suite asserts):
//!
//! * **Budget soundness** — `spent ≤ total + TOLERANCE` for every root.
//! * **Monotone spend under charges** — a successful `Charge` never lowers
//!   any root's `spent`.
//! * **Max-of-parts** — every ledger's `max` equals the fold of its part
//!   spends, and only increases of the max are forwarded upstream.
//! * **Transactional `Combined`** — a multi-parent charge that fails on a
//!   later parent refunds the earlier ones; the failed transition is free
//!   (up to float rounding of the charge/refund round-trip).
//! * **Refund inverse** — refunding a just-applied charge restores each
//!   root's spend (clamped at zero, attributing only the applied delta).

use crate::error::{Error, Result};

/// Tolerance for the budget-exceeded check, so that spending exactly the
/// remaining budget succeeds despite floating-point accumulation. This is
/// the *only* comparison constant in the privacy arithmetic.
pub const TOLERANCE: f64 = 1e-9;

// ---------------------------------------------------------------------
// Pure primitives — the values the concurrent shells guard with mutexes.
// ---------------------------------------------------------------------

/// One root budget: the data owner's total grant and the ε spent so far.
/// Plain arithmetic on copyable values; the [`super::budget::Accountant`]
/// holds one of these behind its lock and adds logging around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RootBudget {
    /// Total ε granted (initial budget plus later grants).
    pub total: f64,
    /// Cumulative ε spent.
    pub spent: f64,
}

impl RootBudget {
    /// A fresh budget with nothing spent.
    ///
    /// # Panics
    /// Panics if `total` is negative, NaN or infinite.
    pub fn new(total: f64) -> Self {
        assert!(
            total.is_finite() && total >= 0.0,
            "budget must be finite and non-negative, got {total}"
        );
        RootBudget { total, spent: 0.0 }
    }

    /// ε still available.
    pub fn remaining(&self) -> f64 {
        (self.total - self.spent).max(0.0)
    }

    /// Attempt to spend `eps`. Fails without mutating when the budget would
    /// be exceeded beyond [`TOLERANCE`].
    pub fn try_charge(&mut self, eps: f64) -> Result<()> {
        debug_assert!(eps >= 0.0, "negative charge {eps}");
        if self.spent + eps > self.total + TOLERANCE {
            return Err(Error::BudgetExceeded {
                requested: eps,
                available: self.remaining(),
            });
        }
        self.spent += eps;
        Ok(())
    }

    /// Return `eps` to the budget, clamping at zero. Returns the *applied*
    /// delta (`before - after`), which is what refund ledger entries must
    /// attribute so per-operator totals keep summing to `spent` exactly.
    pub fn refund(&mut self, eps: f64) -> f64 {
        debug_assert!(eps >= 0.0);
        let before = self.spent;
        self.spent = (self.spent - eps).max(0.0);
        before - self.spent
    }

    /// Enlarge the budget by `extra` ε (a data-owner operation).
    ///
    /// # Panics
    /// Panics on a negative, NaN or infinite grant.
    pub fn grant(&mut self, extra: f64) {
        assert!(
            extra.is_finite() && extra >= 0.0,
            "grant must be finite and non-negative, got {extra}"
        );
        self.total += extra;
    }
}

/// Per-part spends of one partition, plus the running maximum — the
/// parallel-composition ledger as a pure value. The
/// crate-internal `PartitionLedger` holds one of these behind its lock.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LedgerBook {
    /// Cumulative spend per part.
    pub spends: Vec<f64>,
    /// `spends.iter().fold(0.0, f64::max)`, maintained incrementally.
    pub max: f64,
}

impl LedgerBook {
    /// A book with `parts` parts, nothing spent.
    pub fn new(parts: usize) -> Self {
        LedgerBook {
            spends: vec![0.0; parts],
            max: 0.0,
        }
    }

    /// The spend recorded for `part`.
    pub fn part_spent(&self, part: usize) -> f64 {
        self.spends[part]
    }

    /// The delta a charge of `eps` on `part` would forward upstream right
    /// now: the increase of the maximum, usually zero for a part spending
    /// under the current max. Pure — this is [`part_forward`] on the
    /// book's current values.
    pub fn forwardable(&self, part: usize, eps: f64) -> f64 {
        part_forward(self.part_spent(part), self.max, eps)
    }

    /// Commit a charge of `eps` on `part` (the upstream forward having
    /// succeeded): bump the part and fold it into the max. Only the
    /// incremented part can raise the max, so this is O(1).
    pub fn commit(&mut self, part: usize, eps: f64) {
        self.spends[part] += eps;
        self.max = self.spends[part].max(self.max);
    }

    /// Undo a charge of `eps` on `part`, clamping the part at zero.
    /// Returns the decrease of the maximum — the amount the caller must
    /// refund upstream (zero unless the refunded part was holding the max).
    /// The rescan runs only in that case, keeping the common path O(1).
    pub fn refund(&mut self, part: usize, eps: f64) -> f64 {
        let before = self.spends[part];
        self.spends[part] = (before - eps).max(0.0);
        if before >= self.max {
            let new_max = self.spends.iter().cloned().fold(0.0, f64::max);
            if new_max < self.max {
                let drop = self.max - new_max;
                self.max = new_max;
                return drop;
            }
        }
        0.0
    }
}

/// The parallel-composition forwarding rule in one expression: with a part
/// at `part_spent` under a ledger maximum of `max`, a further charge of
/// `eps` forwards `(part_spent + eps).max(max) - max` to the source.
pub fn part_forward(part_spent: f64, max: f64, eps: f64) -> f64 {
    (part_spent + eps).max(max) - max
}

// ---------------------------------------------------------------------
// Charge-path narration — the one spelling of every path segment.
// ---------------------------------------------------------------------

/// The terminal segment of every charge path.
pub const SEG_ROOT: &str = "root";

/// The segment a stability scaling contributes, e.g. `"scale(x2)"`.
pub fn seg_scale(factor: f64) -> String {
    format!("scale(x{factor})")
}

/// The segment a partition part contributes, e.g. `"part[3]"`.
pub fn seg_part(index: usize) -> String {
    format!("part[{index}]")
}

/// The segment one input of a multi-parent charge contributes, e.g.
/// `"in[0]"`.
pub fn seg_in(index: usize) -> String {
    format!("in[{index}]")
}

/// Append `segment` to a `/`-separated charge path (no leading slash on an
/// empty prefix).
pub fn join_path(prefix: &str, segment: &str) -> String {
    if prefix.is_empty() {
        segment.to_string()
    } else {
        format!("{prefix}/{segment}")
    }
}

// ---------------------------------------------------------------------
// The explicit state machine.
// ---------------------------------------------------------------------

/// Index of a root budget in a [`KernelState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RootId(pub usize);

/// Index of a charge-DAG node in a [`KernelState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// Index of a partition ledger in a [`KernelState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LedgerId(pub usize);

/// One charge-DAG node, by value. Mirrors the live crate-internal
/// `ChargeNode` shape, with `Arc` pointers replaced by
/// arena ids so the whole topology is a plain cloneable value. EXPLAIN
/// snapshots are states built from these nodes: the live DAG compiled
/// node for node, with every ledger's whole book.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeSpec {
    /// Charges land directly on a root budget.
    Root(RootId),
    /// Charges are multiplied by `factor` and forwarded to `parent`.
    Scaled {
        /// Upstream node.
        parent: NodeId,
        /// Stability multiplier.
        factor: f64,
    },
    /// Charges are forwarded, unscaled, to every parent — transactionally.
    Combined(Vec<NodeId>),
    /// Charges flow through a partition ledger (max-of-parts accounting).
    Part {
        /// The ledger mediating this part.
        ledger: LedgerId,
        /// Part index: the ledger book's column for this part, narrated
        /// as `part[index]` in charge paths.
        index: usize,
    },
}

/// One partition ledger: the node its max-increases forward to, plus the
/// per-part book.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// Upstream node charged with increases of the maximum.
    pub parent: NodeId,
    /// Per-part spends and the running maximum.
    pub book: LedgerBook,
}

/// The complete privacy-relevant state: root budgets, DAG topology and
/// ledger books. Value semantics — `clone()` is a full snapshot, which is
/// what lets [`step`] be pure and lets tests enumerate interleavings.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KernelState {
    /// Root budgets, indexed by [`RootId`].
    pub roots: Vec<RootBudget>,
    /// Charge-DAG nodes, indexed by [`NodeId`].
    pub nodes: Vec<NodeSpec>,
    /// Partition ledgers, indexed by [`LedgerId`].
    pub ledgers: Vec<Ledger>,
}

impl KernelState {
    /// An empty state.
    pub fn new() -> Self {
        KernelState::default()
    }

    /// Add a root budget; returns its id.
    pub fn add_root(&mut self, budget: RootBudget) -> RootId {
        self.roots.push(budget);
        RootId(self.roots.len() - 1)
    }

    /// Add a DAG node; returns its id. Debug-asserts referenced ids exist.
    pub fn add_node(&mut self, spec: NodeSpec) -> NodeId {
        debug_assert!(match &spec {
            NodeSpec::Root(r) => r.0 < self.roots.len(),
            NodeSpec::Scaled { parent, .. } => parent.0 < self.nodes.len(),
            NodeSpec::Combined(ps) => ps.iter().all(|p| p.0 < self.nodes.len()),
            NodeSpec::Part { ledger, .. } => ledger.0 < self.ledgers.len(),
        });
        self.nodes.push(spec);
        NodeId(self.nodes.len() - 1)
    }

    /// Add a ledger with `parts` parts forwarding to `parent`; returns its
    /// id. Use [`KernelState::add_node`] with [`NodeSpec::Part`] to expose
    /// its parts as chargeable nodes.
    pub fn add_ledger(&mut self, parent: NodeId, parts: usize) -> LedgerId {
        debug_assert!(parent.0 < self.nodes.len());
        self.ledgers.push(Ledger {
            parent,
            book: LedgerBook::new(parts),
        });
        LedgerId(self.ledgers.len() - 1)
    }
}

/// One privacy-relevant state transition.
#[derive(Debug, Clone, PartialEq)]
pub enum Transition {
    /// Spend `eps` through a DAG node (an aggregation paying for a
    /// release). Fails, applying nothing durable, when any reached root
    /// would exceed its budget.
    Charge {
        /// Node the aggregation charges through.
        node: NodeId,
        /// ε requested (before any scaling along the walk).
        eps: f64,
    },
    /// Undo a previous successful charge of `eps` through the same node.
    Refund {
        /// Node the original charge went through.
        node: NodeId,
        /// ε originally requested.
        eps: f64,
    },
    /// Enlarge a root budget (data-owner operation; timed release).
    Grant {
        /// Root to enlarge.
        root: RootId,
        /// Additional ε.
        extra: f64,
    },
    /// Add a node to the charge DAG (a transformation deriving a new
    /// queryable). Ids are assigned densely: the new node is
    /// `NodeId(state.nodes.len())` of the pre-transition state.
    ExtendDag {
        /// The node to add.
        spec: NodeSpec,
    },
    /// Add a root budget (a data owner protecting a new dataset). The new
    /// root is `RootId(state.roots.len())` of the pre-transition state.
    NewRoot {
        /// Total ε of the new budget.
        total: f64,
    },
    /// Add a partition ledger (a `partition` operator splitting a
    /// queryable). The new ledger is `LedgerId(state.ledgers.len())` of
    /// the pre-transition state.
    NewLedger {
        /// Node the ledger forwards max-increases to.
        parent: NodeId,
        /// Number of parts.
        parts: usize,
    },
}

/// The ε that landed on one root as part of a transition, with the charge
/// path the walk narrated. Zero-delta entries are kept (a partition charge
/// absorbed under the current max still narrates every root it would have
/// reached), and refund deltas are negative.
#[derive(Debug, Clone, PartialEq)]
pub struct RootDelta {
    /// Root the delta applied to.
    pub root: RootId,
    /// Full leaf-to-root charge path, e.g. `"part[3]/scale(x2)/root"`.
    pub path: String,
    /// Signed ε applied (negative for refunds; zero for absorbed charges).
    pub eps: f64,
}

/// The state a walk runs against: a successor it really spends on, or a
/// borrowed state it merely predicts on.
enum Walk<'a> {
    /// Enforce budgets, commit ledger books, roll back combined failures.
    Charge(&'a mut KernelState),
    /// Read-only: same deltas and paths, no mutation, cannot fail.
    Predict(&'a KernelState),
}

impl Walk<'_> {
    fn state(&self) -> &KernelState {
        match self {
            Walk::Charge(st) => st,
            Walk::Predict(st) => st,
        }
    }
}

/// Apply one transition to `state`, returning the successor state and the
/// per-root deltas it applied. Pure: `state` is never mutated; on `Err`
/// nothing durable happened (a failed `Combined` charge is rolled back
/// inside the discarded successor, exactly as the live engine refunds its
/// already-charged parents).
pub fn step(state: &KernelState, transition: &Transition) -> Result<(KernelState, Vec<RootDelta>)> {
    let mut next = state.clone();
    let mut deltas = Vec::new();
    match transition {
        Transition::Charge { node, eps } => {
            walk(&mut Walk::Charge(&mut next), *node, *eps, "", &mut deltas)?;
        }
        Transition::Refund { node, eps } => {
            walk_refund(&mut next, *node, *eps, "", &mut deltas);
        }
        Transition::Grant { root, extra } => {
            next.roots[root.0].grant(*extra);
        }
        Transition::ExtendDag { spec } => {
            next.add_node(spec.clone());
        }
        Transition::NewRoot { total } => {
            next.add_root(RootBudget::new(*total));
        }
        Transition::NewLedger { parent, parts } => {
            next.add_ledger(*parent, *parts);
        }
    }
    Ok((next, deltas))
}

/// Predict the per-root deltas a `Charge { node, eps }` issued *now* would
/// apply, without enforcing budgets and without mutating anything — the
/// charge walk of [`step`] run in read-only mode against the same state.
/// Zero-delta entries are kept so callers see every root the walk reaches.
pub fn predict(state: &KernelState, node: NodeId, eps: f64) -> Vec<RootDelta> {
    let mut out = Vec::new();
    // A predict walk borrows the state: it cannot write, so it cannot fail.
    walk(&mut Walk::Predict(state), node, eps, "", &mut out).expect("predict walks cannot fail");
    out
}

/// The one charge walk: narrates the path, scales through `Scaled`,
/// iterates `Combined` transactionally, and applies max-of-parts
/// forwarding at `Part` nodes. A [`Walk::Predict`] computes identical
/// deltas on a state it only reads, so it cannot fail.
fn walk(
    w: &mut Walk<'_>,
    node: NodeId,
    eps: f64,
    path: &str,
    out: &mut Vec<RootDelta>,
) -> Result<()> {
    match w.state().nodes[node.0].clone() {
        NodeSpec::Root(root) => {
            let full = join_path(path, SEG_ROOT);
            if let Walk::Charge(st) = w {
                st.roots[root.0].try_charge(eps)?;
            }
            out.push(RootDelta {
                root,
                path: full,
                eps,
            });
            Ok(())
        }
        NodeSpec::Scaled { parent, factor } => walk(
            w,
            parent,
            eps * factor,
            &join_path(path, &seg_scale(factor)),
            out,
        ),
        NodeSpec::Combined(parents) => {
            for (i, p) in parents.iter().enumerate() {
                let seg = join_path(path, &seg_in(i));
                if let Err(e) = walk(w, *p, eps, &seg, out) {
                    // Transactional rollback: refund the parents already
                    // charged so a failed multi-input aggregation is free.
                    // Only a charge walk fails, so `w` is one here.
                    if let Walk::Charge(st) = w {
                        let mut discard = Vec::new();
                        for (j, q) in parents[..i].iter().enumerate() {
                            walk_refund(st, *q, eps, &join_path(path, &seg_in(j)), &mut discard);
                        }
                    }
                    return Err(e);
                }
            }
            Ok(())
        }
        NodeSpec::Part { ledger, index } => {
            let seg = join_path(path, &seg_part(index));
            let delta = w.state().ledgers[ledger.0].book.forwardable(index, eps);
            let parent = w.state().ledgers[ledger.0].parent;
            if delta > 0.0 {
                walk(w, parent, delta, &seg, out)?;
            } else {
                // Absorbed under the current max: narrate zero deltas for
                // every root upstream, keeping per-path call counts honest.
                walk(&mut Walk::Predict(w.state()), parent, 0.0, &seg, out)
                    .expect("predict walks cannot fail");
            }
            if let Walk::Charge(st) = w {
                st.ledgers[ledger.0].book.commit(index, eps);
            }
            Ok(())
        }
    }
}

/// The one refund walk, mirroring [`walk`]: clamps at zero per root
/// (attributing applied deltas, negative), and refunds upstream only the
/// decrease of a ledger maximum.
fn walk_refund(st: &mut KernelState, node: NodeId, eps: f64, path: &str, out: &mut Vec<RootDelta>) {
    match st.nodes[node.0].clone() {
        NodeSpec::Root(root) => {
            let applied = st.roots[root.0].refund(eps);
            out.push(RootDelta {
                root,
                path: join_path(path, SEG_ROOT),
                eps: -applied,
            });
        }
        NodeSpec::Scaled { parent, factor } => walk_refund(
            st,
            parent,
            eps * factor,
            &join_path(path, &seg_scale(factor)),
            out,
        ),
        NodeSpec::Combined(parents) => {
            for (i, p) in parents.iter().enumerate() {
                walk_refund(st, *p, eps, &join_path(path, &seg_in(i)), out);
            }
        }
        NodeSpec::Part { ledger, index } => {
            let upstream = st.ledgers[ledger.0].book.refund(index, eps);
            if upstream > 0.0 {
                let parent = st.ledgers[ledger.0].parent;
                walk_refund(
                    st,
                    parent,
                    upstream,
                    &join_path(path, &seg_part(index)),
                    out,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root_state(total: f64) -> (KernelState, NodeId) {
        let mut st = KernelState::new();
        let r = st.add_root(RootBudget::new(total));
        let n = st.add_node(NodeSpec::Root(r));
        (st, n)
    }

    #[test]
    fn step_is_pure() {
        let (st, n) = root_state(1.0);
        let before = st.clone();
        let (next, deltas) = step(&st, &Transition::Charge { node: n, eps: 0.25 }).unwrap();
        assert_eq!(st, before, "step must not mutate its input");
        assert!((next.roots[0].spent - 0.25).abs() < 1e-15);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].path, "root");
    }

    #[test]
    fn charge_scales_and_narrates() {
        let (mut st, n) = root_state(10.0);
        let s = st.add_node(NodeSpec::Scaled {
            parent: n,
            factor: 2.0,
        });
        let (next, deltas) = step(&st, &Transition::Charge { node: s, eps: 1.0 }).unwrap();
        assert!((next.roots[0].spent - 2.0).abs() < 1e-15);
        assert_eq!(deltas[0].path, "scale(x2)/root");
        assert!((deltas[0].eps - 2.0).abs() < 1e-15);
    }

    #[test]
    fn partition_forwards_only_max_increases() {
        let (mut st, n) = root_state(1.0);
        let l = st.add_ledger(n, 2);
        let p0 = st.add_node(NodeSpec::Part {
            ledger: l,
            index: 0,
        });
        let p1 = st.add_node(NodeSpec::Part {
            ledger: l,
            index: 1,
        });
        let (st, d0) = step(&st, &Transition::Charge { node: p0, eps: 0.3 }).unwrap();
        assert_eq!(
            d0,
            vec![RootDelta {
                root: RootId(0),
                path: "part[0]/root".into(),
                eps: 0.3
            }]
        );
        let (st, d1) = step(&st, &Transition::Charge { node: p1, eps: 0.2 }).unwrap();
        assert_eq!(d1[0].eps, 0.0, "absorbed under the max, zero delta kept");
        assert_eq!(d1[0].path, "part[1]/root");
        assert!((st.roots[0].spent - 0.3).abs() < 1e-15);
        assert!((st.ledgers[0].book.max - 0.3).abs() < 1e-15);
    }

    #[test]
    fn combined_failure_is_free_and_predict_never_fails() {
        let mut st = KernelState::new();
        let rich = st.add_root(RootBudget::new(5.0));
        let poor = st.add_root(RootBudget::new(0.1));
        let a = st.add_node(NodeSpec::Root(rich));
        let b = st.add_node(NodeSpec::Root(poor));
        let c = st.add_node(NodeSpec::Combined(vec![a, b]));
        let err = step(&st, &Transition::Charge { node: c, eps: 1.0 });
        assert!(err.is_err());
        // Predict on the same shape reports both paths with full deltas.
        let predicted = predict(&st, c, 1.0);
        assert_eq!(predicted.len(), 2);
        assert_eq!(predicted[0].path, "in[0]/root");
        assert_eq!(predicted[1].path, "in[1]/root");
        assert!(predicted.iter().all(|d| (d.eps - 1.0).abs() < 1e-15));
        // Nothing was spent anywhere.
        assert_eq!(st.roots[0].spent, 0.0);
        assert_eq!(st.roots[1].spent, 0.0);
    }

    #[test]
    fn refund_is_an_inverse_of_charge() {
        let (mut st, n) = root_state(1.0);
        let l = st.add_ledger(n, 2);
        let p = st.add_node(NodeSpec::Part {
            ledger: l,
            index: 1,
        });
        let (st1, _) = step(&st, &Transition::Charge { node: p, eps: 0.4 }).unwrap();
        let (st2, deltas) = step(&st1, &Transition::Refund { node: p, eps: 0.4 }).unwrap();
        assert!((st2.roots[0].spent).abs() < 1e-15);
        assert!((st2.ledgers[0].book.max).abs() < 1e-15);
        assert_eq!(deltas.len(), 1);
        assert!(
            (deltas[0].eps + 0.4).abs() < 1e-15,
            "refund deltas are negative"
        );
    }
}

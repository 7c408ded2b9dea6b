//! The charge graph: how aggregation spends propagate to source budgets.
//!
//! Transformations build a DAG from derived queryables back to root
//! accountants. Charging a derived node walks the DAG:
//!
//! * `Root` — spend directly against the dataset's [`Accountant`].
//! * `Scaled` — multiply by a stability factor (e.g. ×2 across a `GroupBy`).
//! * `Combined` — charge several parents (e.g. both inputs of a `Join`);
//!   applied transactionally with rollback if a later parent fails.
//! * `PartitionPart` — charge through a [`PartitionLedger`], which forwards
//!   only increases of the *maximum* child spend to its parent (parallel
//!   composition).
//!
//! The walk also *narrates itself*: each hop appends a segment to a charge
//! path (`"scale(x2)/part[3]/root"`), which the accountant records in its
//! ledger alongside the operator name and analysis label. That provenance
//! is what turns the spend log into an owner-side audit trail — the paper's
//! mediated model needs the owner to explain not just *how much* ε left the
//! budget but *through which composition* it did.

use super::budget::{Accountant, ChargeMeta};
use super::model::{
    join_path, seg_in, seg_part, seg_scale, KernelState, Ledger, LedgerId, NodeId, NodeSpec,
    RootId, SEG_ROOT,
};
use super::partition::PartitionLedger;
use crate::error::Result;
use std::sync::Arc;

/// A node in the charge DAG. Crate-internal: analysts only see queryables,
/// and the rest of the crate only *holds* nodes — construction and every
/// ε-moving walk are sealed inside the kernel (built via
/// [`crate::kernel::root_node`] and friends; the `kernel-seal` CI check
/// flags variant construction outside `crates/pinq/src/kernel/`).
#[derive(Debug, Clone)]
pub(crate) enum ChargeNode {
    /// Charges land directly on a dataset budget.
    Root(Accountant),
    /// Charges are multiplied by `factor` and forwarded to `parent`.
    Scaled {
        /// Upstream node.
        parent: Arc<ChargeNode>,
        /// Stability multiplier.
        factor: f64,
    },
    /// Charges are forwarded, unscaled, to every parent.
    Combined(Vec<Arc<ChargeNode>>),
    /// Charges flow through a partition ledger (max-of-parts accounting).
    PartitionPart {
        /// The ledger mediating this part.
        ledger: Arc<PartitionLedger>,
        /// Part index (narrated as `part[index]` in charge paths).
        index: usize,
    },
}

/// A snapshot in progress: the state built so far, and the accountants
/// and ledgers already copied into it, in `RootId` and `LedgerId` order.
#[derive(Default)]
struct Snapshot<'a> {
    state: KernelState,
    roots: Vec<&'a Accountant>,
    ledgers: Vec<&'a Arc<PartitionLedger>>,
}

impl ChargeNode {
    /// Spend `eps` through this node. On failure nothing is spent anywhere.
    #[cfg(test)]
    pub(crate) fn charge(&self, eps: f64) -> Result<()> {
        self.charge_with(eps, &ChargeMeta::new("direct", None), "")
    }

    /// Spend `eps` through this node, threading provenance: `meta` names
    /// the initiating operator, `path` accumulates one segment per hop.
    pub(in crate::kernel) fn charge_with(
        &self,
        eps: f64,
        meta: &ChargeMeta,
        path: &str,
    ) -> Result<()> {
        self.charge_traced(eps, meta, path, &mut None)
    }

    /// [`ChargeNode::charge_with`] that additionally records, for every root
    /// accountant the walk reaches, the full charge path and the ε that
    /// actually landed there — captured *atomically with the charge*. Under
    /// a partition ledger the recorded ε is the forwarded max-increase
    /// (possibly zero), computed while the ledger lock is held, so charges
    /// racing in from pool workers can never make the trace disagree with
    /// the ledger. On `Err` the caller must discard the trace: a `Combined`
    /// rollback may leave entries for parents charged and then refunded.
    pub(in crate::kernel) fn charge_traced(
        &self,
        eps: f64,
        meta: &ChargeMeta,
        path: &str,
        trace: &mut Option<&mut Vec<(String, f64)>>,
    ) -> Result<()> {
        match self {
            ChargeNode::Root(acct) => {
                let full = join_path(path, SEG_ROOT);
                acct.charge_with(eps, meta, &full)?;
                if let Some(t) = trace.as_mut() {
                    t.push((full, eps));
                }
                Ok(())
            }
            ChargeNode::Scaled { parent, factor } => parent.charge_traced(
                eps * factor,
                meta,
                &join_path(path, &seg_scale(*factor)),
                trace,
            ),
            ChargeNode::Combined(parents) => {
                for (i, p) in parents.iter().enumerate() {
                    let seg = join_path(path, &seg_in(i));
                    if let Err(e) = p.charge_traced(eps, meta, &seg, trace) {
                        // Roll back the parents already charged so that a
                        // failed multi-input aggregation is free.
                        for (j, q) in parents[..i].iter().enumerate() {
                            q.refund_with(eps, meta, &join_path(path, &seg_in(j)));
                        }
                        return Err(e);
                    }
                }
                Ok(())
            }
            // The ledger appends `part[index]` itself, only when the
            // charge forwards or a trace records: absorbed parts of a
            // fan-out format nothing.
            ChargeNode::PartitionPart { ledger, index } => {
                ledger.charge_child_traced(*index, eps, meta, path, trace)
            }
        }
    }

    /// The trace of a charge absorbed under a partition maximum: a
    /// `(full_path, 0.0)` entry for every root a walk from this node
    /// reaches, so per-path call counts stay honest. Zero stays zero
    /// through every hop (a scaling, or a ledger whose maximum it cannot
    /// raise), so this narrates paths only: it reads no book and takes no
    /// lock.
    pub(in crate::kernel) fn narrate_zero(&self, path: &str, out: &mut Vec<(String, f64)>) {
        match self {
            ChargeNode::Root(_) => out.push((join_path(path, SEG_ROOT), 0.0)),
            ChargeNode::Scaled { parent, factor } => {
                parent.narrate_zero(&join_path(path, &seg_scale(*factor)), out)
            }
            ChargeNode::Combined(parents) => {
                for (i, p) in parents.iter().enumerate() {
                    p.narrate_zero(&join_path(path, &seg_in(i)), out);
                }
            }
            ChargeNode::PartitionPart { ledger, index } => ledger
                .parent()
                .narrate_zero(&join_path(path, &seg_part(*index)), out),
        }
    }

    /// Compile the charge DAG from this node to its roots into the kernel
    /// model, in one walk: each root's budget and each ledger's whole book
    /// are copied in, once per accountant and once per ledger however many
    /// paths reach them. Returns the state and this node's id in it — what
    /// [`crate::explain`] renders and [`super::model::predict`] prices.
    /// Side-effect-free.
    pub(crate) fn snapshot(&self) -> (KernelState, NodeId) {
        let mut snap = Snapshot::default();
        let node = self.snapshot_into(&mut snap);
        (snap.state, node)
    }

    fn snapshot_into<'a>(&'a self, snap: &mut Snapshot<'a>) -> NodeId {
        let spec = match self {
            ChargeNode::Root(acct) => {
                let root = match snap.roots.iter().position(|a| a.shares_books_with(acct)) {
                    Some(i) => RootId(i),
                    None => {
                        snap.roots.push(acct);
                        snap.state.add_root(acct.budget_snapshot())
                    }
                };
                NodeSpec::Root(root)
            }
            ChargeNode::Scaled { parent, factor } => NodeSpec::Scaled {
                parent: parent.snapshot_into(snap),
                factor: *factor,
            },
            ChargeNode::Combined(parents) => {
                NodeSpec::Combined(parents.iter().map(|p| p.snapshot_into(snap)).collect())
            }
            ChargeNode::PartitionPart { ledger, index } => {
                let ledger = match snap.ledgers.iter().position(|l| Arc::ptr_eq(l, ledger)) {
                    Some(i) => LedgerId(i),
                    None => {
                        let parent = ledger.parent().snapshot_into(snap);
                        snap.ledgers.push(ledger);
                        let book = ledger.book();
                        snap.state.ledgers.push(Ledger { parent, book });
                        LedgerId(snap.ledgers.len() - 1)
                    }
                };
                NodeSpec::Part {
                    ledger,
                    index: *index,
                }
            }
        };
        snap.state.add_node(spec)
    }

    /// Render the static charge path from this node to its root(s) without
    /// charging anything — the same segments `charge_with` would narrate,
    /// composed leaf-to-root (e.g. `"scale(x2)/part[3]/root"`). Used to tag
    /// profiler spans with the provenance an aggregation *would* charge
    /// through; pure metadata, safe on the analyst side.
    pub(crate) fn describe(&self) -> String {
        match self {
            ChargeNode::Root(_) => "root".to_string(),
            ChargeNode::Scaled { parent, factor } => {
                format!("scale(x{factor})/{}", parent.describe())
            }
            ChargeNode::Combined(parents) => {
                let inner: Vec<String> = parents
                    .iter()
                    .enumerate()
                    .map(|(i, p)| format!("in[{i}]:{}", p.describe()))
                    .collect();
                format!("({})", inner.join("+"))
            }
            ChargeNode::PartitionPart { ledger, index } => {
                format!("part[{index}]/{}", ledger.parent().describe())
            }
        }
    }

    /// Undo a previous successful `charge(eps)`.
    #[cfg(test)]
    pub(crate) fn refund(&self, eps: f64) {
        self.refund_with(eps, &ChargeMeta::new("direct", None), "");
    }

    /// Undo a previous successful `charge_with`, with the same provenance.
    pub(in crate::kernel) fn refund_with(&self, eps: f64, meta: &ChargeMeta, path: &str) {
        match self {
            ChargeNode::Root(acct) => acct.refund_with(eps, meta, &join_path(path, SEG_ROOT)),
            ChargeNode::Scaled { parent, factor } => {
                parent.refund_with(eps * factor, meta, &join_path(path, &seg_scale(*factor)))
            }
            ChargeNode::Combined(parents) => {
                for (i, p) in parents.iter().enumerate() {
                    p.refund_with(eps, meta, &join_path(path, &seg_in(i)));
                }
            }
            ChargeNode::PartitionPart { ledger, index } => {
                ledger.refund_child_with(*index, eps, meta, path)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_nodes_multiply_charges() {
        let acct = Accountant::new(10.0);
        let root = Arc::new(ChargeNode::Root(acct.clone()));
        let scaled = ChargeNode::Scaled {
            parent: root,
            factor: 2.0,
        };
        scaled.charge(1.0).unwrap();
        assert!((acct.spent() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn nested_scaling_composes_multiplicatively() {
        let acct = Accountant::new(100.0);
        let root = Arc::new(ChargeNode::Root(acct.clone()));
        let a = Arc::new(ChargeNode::Scaled {
            parent: root,
            factor: 2.0,
        });
        let b = ChargeNode::Scaled {
            parent: a,
            factor: 3.0,
        };
        b.charge(1.0).unwrap();
        assert!((acct.spent() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn combined_charges_every_parent() {
        let a = Accountant::new(5.0);
        let b = Accountant::new(5.0);
        let node = ChargeNode::Combined(vec![
            Arc::new(ChargeNode::Root(a.clone())),
            Arc::new(ChargeNode::Root(b.clone())),
        ]);
        node.charge(1.5).unwrap();
        assert!((a.spent() - 1.5).abs() < 1e-12);
        assert!((b.spent() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn combined_rolls_back_on_partial_failure() {
        let rich = Accountant::new(5.0);
        let poor = Accountant::new(0.1);
        let node = ChargeNode::Combined(vec![
            Arc::new(ChargeNode::Root(rich.clone())),
            Arc::new(ChargeNode::Root(poor.clone())),
        ]);
        assert!(node.charge(1.0).is_err());
        // The rich parent must have been refunded.
        assert_eq!(rich.spent(), 0.0);
        assert_eq!(poor.spent(), 0.0);
    }

    #[test]
    fn refund_walks_the_graph() {
        let acct = Accountant::new(10.0);
        let root = Arc::new(ChargeNode::Root(acct.clone()));
        let scaled = ChargeNode::Scaled {
            parent: root,
            factor: 4.0,
        };
        scaled.charge(1.0).unwrap();
        scaled.refund(1.0);
        assert_eq!(acct.spent(), 0.0);
    }

    #[test]
    fn charge_paths_narrate_the_walk() {
        let acct = Accountant::new(10.0);
        let root = Arc::new(ChargeNode::Root(acct.clone()));
        let scaled = ChargeNode::Scaled {
            parent: root,
            factor: 2.0,
        };
        let meta = ChargeMeta::new("noisy_count", Some(Arc::from("ports")));
        scaled.charge_with(0.5, &meta, "").unwrap();
        let log = acct.audit_log();
        assert_eq!(log.len(), 1);
        assert_eq!(&*log[0].operator, "noisy_count");
        assert_eq!(&*log[0].path, "scale(x2)/root");
        assert_eq!(log[0].label.as_deref(), Some("ports"));
    }

    #[test]
    fn describe_renders_static_paths_without_charging() {
        let acct = Accountant::new(10.0);
        let root = Arc::new(ChargeNode::Root(acct.clone()));
        assert_eq!(root.describe(), "root");
        let scaled = Arc::new(ChargeNode::Scaled {
            parent: root.clone(),
            factor: 2.0,
        });
        assert_eq!(scaled.describe(), "scale(x2)/root");
        let combined = ChargeNode::Combined(vec![root.clone(), scaled.clone()]);
        assert_eq!(combined.describe(), "(in[0]:root+in[1]:scale(x2)/root)");
        let ledger = Arc::new(crate::kernel::partition::PartitionLedger::new(scaled, 4));
        let part = ChargeNode::PartitionPart { ledger, index: 3 };
        assert_eq!(part.describe(), "part[3]/scale(x2)/root");
        // Describing is free: nothing was spent anywhere.
        assert_eq!(acct.spent(), 0.0);
    }

    #[test]
    fn traced_charges_capture_per_root_deltas() {
        let acct = Accountant::new(10.0);
        let root = Arc::new(ChargeNode::Root(acct.clone()));
        let scaled = Arc::new(ChargeNode::Scaled {
            parent: root,
            factor: 2.0,
        });
        let ledger = Arc::new(crate::kernel::partition::PartitionLedger::new(scaled, 2));
        let part0 = ChargeNode::PartitionPart {
            ledger: ledger.clone(),
            index: 0,
        };
        let part1 = ChargeNode::PartitionPart { ledger, index: 1 };
        let meta = ChargeMeta::new("noisy_count", None);

        let mut t0 = Vec::new();
        part0
            .charge_traced(0.3, &meta, "", &mut Some(&mut t0))
            .unwrap();
        // First charge raises the max from 0 to 0.3 → ×2 lands on the root.
        assert_eq!(t0, vec![("part[0]/scale(x2)/root".to_string(), 0.6)]);

        let mut t1 = Vec::new();
        part1
            .charge_traced(0.2, &meta, "", &mut Some(&mut t1))
            .unwrap();
        // Under the 0.3 max: nothing forwarded, but the path is still
        // narrated with a zero delta.
        assert_eq!(t1, vec![("part[1]/scale(x2)/root".to_string(), 0.0)]);

        // The traced deltas sum to exactly what the accountant saw.
        let traced: f64 = t0.iter().chain(&t1).map(|(_, d)| d).sum();
        assert!((acct.spent() - traced).abs() < 1e-12);
    }

    #[test]
    fn zero_narration_matches_an_absorbed_charge_trace() {
        let acct = Accountant::new(10.0);
        let root = Arc::new(ChargeNode::Root(acct.clone()));
        let scaled = Arc::new(ChargeNode::Scaled {
            parent: root.clone(),
            factor: 2.0,
        });
        let ledger = Arc::new(crate::kernel::partition::PartitionLedger::new(scaled, 2));
        let part = |index| ChargeNode::PartitionPart {
            ledger: ledger.clone(),
            index,
        };
        let both = ChargeNode::Combined(vec![Arc::new(part(1)), root]);
        let mut narrated = Vec::new();
        both.narrate_zero("", &mut narrated);
        assert_eq!(
            narrated,
            vec![
                ("in[0]/part[1]/scale(x2)/root".to_string(), 0.0),
                ("in[1]/root".to_string(), 0.0)
            ]
        );
        // Narrating is free.
        assert_eq!(acct.spent(), 0.0);
        assert_eq!(ledger.book().spends, vec![0.0, 0.0]);

        // A charge absorbed under the max traces exactly that narration.
        let meta = ChargeMeta::new("noisy_count", None);
        part(0).charge(0.4).unwrap();
        let mut traced = Vec::new();
        part(1)
            .charge_traced(0.3, &meta, "", &mut Some(&mut traced))
            .unwrap();
        let mut narrated = Vec::new();
        part(1).narrate_zero("", &mut narrated);
        assert_eq!(traced, narrated);
        assert_eq!(traced, vec![("part[1]/scale(x2)/root".to_string(), 0.0)]);
    }

    #[test]
    fn snapshot_mirrors_describe_structure() {
        use crate::kernel::model::{predict, RootBudget};
        let acct = Accountant::new(10.0);
        let root = Arc::new(ChargeNode::Root(acct.clone()));
        let scaled = Arc::new(ChargeNode::Scaled {
            parent: root,
            factor: 2.0,
        });
        let ledger = Arc::new(crate::kernel::partition::PartitionLedger::new(scaled, 4));
        let part = |index| {
            Arc::new(ChargeNode::PartitionPart {
                ledger: ledger.clone(),
                index,
            })
        };
        part(3).charge(0.25).unwrap();
        let both = ChargeNode::Combined(vec![part(3), part(1)]);
        let (state, node) = both.snapshot();
        // Both inputs reach one accountant through one ledger: each is
        // copied once, the ledger with its whole book.
        assert_eq!(
            state.roots,
            [RootBudget {
                total: 10.0,
                spent: 0.5
            }]
        );
        assert_eq!(state.ledgers.len(), 1);
        assert_eq!(state.ledgers[0].book.spends, [0.0, 0.0, 0.0, 0.25]);
        assert_eq!(state.ledgers[0].book.max, 0.25);
        assert_eq!(
            state.nodes[node.0],
            NodeSpec::Combined(vec![NodeId(2), NodeId(3)])
        );
        // The model narrates the segments `describe` renders.
        let paths: Vec<String> = predict(&state, node, 0.0)
            .into_iter()
            .map(|d| d.path)
            .collect();
        assert_eq!(
            paths,
            [
                "in[0]/part[3]/scale(x2)/root",
                "in[1]/part[1]/scale(x2)/root"
            ]
        );
        assert_eq!(
            both.describe(),
            "(in[0]:part[3]/scale(x2)/root+in[1]:part[1]/scale(x2)/root)"
        );
    }

    #[test]
    fn combined_paths_name_each_input() {
        let a = Accountant::new(5.0);
        let b = Accountant::new(5.0);
        let node = ChargeNode::Combined(vec![
            Arc::new(ChargeNode::Root(a.clone())),
            Arc::new(ChargeNode::Root(b.clone())),
        ]);
        let meta = ChargeMeta::new("noisy_sum", None);
        node.charge_with(1.0, &meta, "").unwrap();
        assert_eq!(&*a.audit_log()[0].path, "in[0]/root");
        assert_eq!(&*b.audit_log()[0].path, "in[1]/root");
    }
}

//! Parallel composition: the `Partition` ledger.
//!
//! `Partition` splits one protected dataset into disjoint parts keyed by an
//! arbitrary (data-independent) key set. Because a single record lands in at
//! most one part, analyses of *different* parts do not compound: the privacy
//! cost to the source is the **maximum** of the costs to the parts, not their
//! sum (paper §2.2, Table 1).
//!
//! The ledger tracks each part's cumulative spend. When a part's spend grows,
//! only the increase of the maximum (if any) is forwarded to the source. This
//! lets an analyst, say, partition packets by destination port and analyze
//! every port at cost `ε` total, rather than `ε × #ports` — the property the
//! paper's `cdf2` estimator and frequent-string search rely on.

use super::budget::ChargeMeta;
use super::charge::ChargeNode;
use super::model::{join_path, seg_part, LedgerBook};
use crate::error::Result;
use crate::lock;
use std::sync::{Arc, Mutex};

/// Receives each charged part's index and per-root trace in a traced
/// [`PartitionLedger::charge_parts`].
pub(in crate::kernel) type PartTraceSink<'a> = &'a mut dyn FnMut(usize, &[(String, f64)]);

/// Shared accounting state for the parts of one `Partition` operation: a
/// kernel [`LedgerBook`] (per-part spends plus the incrementally
/// maintained maximum — charges stay O(1) because only the incremented
/// part can raise the max; with 2^k-way fan-outs the old scan-per-charge
/// made the worm search quadratic in the part count) behind one lock, so
/// the forwarding decision and the book update are atomic under
/// concurrent part charges.
#[derive(Debug)]
pub(crate) struct PartitionLedger {
    parent: Arc<ChargeNode>,
    book: Mutex<LedgerBook>,
}

impl PartitionLedger {
    /// Create a ledger with `parts` children charging through `parent`.
    pub(in crate::kernel) fn new(parent: Arc<ChargeNode>, parts: usize) -> Self {
        PartitionLedger {
            parent,
            book: Mutex::new(LedgerBook::new(parts)),
        }
    }

    /// The node this ledger forwards max-increases to (for static charge
    /// path rendering — see [`ChargeNode::describe`]).
    pub(in crate::kernel) fn parent(&self) -> &Arc<ChargeNode> {
        &self.parent
    }

    /// Spend `eps` on behalf of part `index`; forwards only the increase of
    /// the maximum to the parent, rolling back on parent failure.
    #[cfg(test)]
    pub(crate) fn charge_child(&self, index: usize, eps: f64) -> Result<()> {
        self.charge_child_traced(index, eps, &ChargeMeta::new("direct", None), "", &mut None)
    }

    /// [`PartitionLedger::charge_child`] with provenance threaded through
    /// (the forwarded max-increase carries the same operator/label/path)
    /// that also records per-root
    /// deltas into `trace` (see [`ChargeNode::charge_traced`]). `prefix`
    /// is the charge path *above* this part; the `part[index]` segment is
    /// appended here, and only when something reads it: a forwarded
    /// max-increase or a recording trace. A charge absorbed below the
    /// current max with no trace — every part after the first in a
    /// fan-out — is one book update and no allocation. The forwarded
    /// delta is computed and traced while the ledger lock is held, so the
    /// trace stays exact under concurrent part charges. A charge absorbed
    /// below the current max traces a zero delta for every root it would
    /// have reached, keeping per-path call counts honest.
    pub(in crate::kernel) fn charge_child_traced(
        &self,
        index: usize,
        eps: f64,
        meta: &ChargeMeta,
        prefix: &str,
        trace: &mut Option<&mut Vec<(String, f64)>>,
    ) -> Result<()> {
        self.charge_locked(&mut lock(&self.book), index, eps, meta, prefix, trace)
    }

    /// Charge `eps` on parts `0..n`, in order, under one hold of the ledger
    /// lock: the same books, forwards, paths and refusal as `n` in-order
    /// [`PartitionLedger::charge_child_traced`] calls with an empty prefix.
    /// Stops at the first refusal, which leaves that part and every later
    /// one uncharged. Returns how many parts were charged, and the refusal
    /// if there was one. With `record`, each charged part's per-root trace
    /// is handed to it while the lock is held; a refused part's trace is
    /// discarded.
    pub(in crate::kernel) fn charge_parts(
        &self,
        n: usize,
        eps: f64,
        meta: &ChargeMeta,
        mut record: Option<PartTraceSink<'_>>,
    ) -> (usize, Result<()>) {
        let mut book = lock(&self.book);
        let mut trace = Vec::new();
        for index in 0..n {
            let charged = match record.as_mut() {
                None => self.charge_locked(&mut book, index, eps, meta, "", &mut None),
                Some(record) => {
                    trace.clear();
                    let r =
                        self.charge_locked(&mut book, index, eps, meta, "", &mut Some(&mut trace));
                    if r.is_ok() {
                        record(index, &trace);
                    }
                    r
                }
            };
            if let Err(e) = charged {
                return (index, Err(e));
            }
        }
        (n, Ok(()))
    }

    /// One part charge against a held book: the body of
    /// [`PartitionLedger::charge_child_traced`] and of each step of
    /// [`PartitionLedger::charge_parts`].
    fn charge_locked(
        &self,
        book: &mut LedgerBook,
        index: usize,
        eps: f64,
        meta: &ChargeMeta,
        prefix: &str,
        trace: &mut Option<&mut Vec<(String, f64)>>,
    ) -> Result<()> {
        // The forwarding decision is the kernel model's rule, verbatim;
        // the book is committed only after the upstream charge succeeds,
        // so a parent failure leaves the ledger untouched.
        let delta = book.forwardable(index, eps);
        if delta > 0.0 {
            let path = join_path(prefix, &seg_part(index));
            self.parent.charge_traced(delta, meta, &path, trace)?;
        } else if let Some(t) = trace.as_mut() {
            let path = join_path(prefix, &seg_part(index));
            self.parent.narrate_zero(&path, t);
        }
        book.commit(index, eps);
        Ok(())
    }

    /// Undo a previous `charge_child(index, eps)`, refunding the parent for
    /// any resulting decrease of the maximum.
    #[cfg(test)]
    pub(crate) fn refund_child(&self, index: usize, eps: f64) {
        self.refund_child_with(index, eps, &ChargeMeta::new("direct", None), "");
    }

    /// [`PartitionLedger::refund_child`] with provenance threaded through.
    /// The clamp and the max-drop rescan are [`LedgerBook::refund`]; only
    /// a decrease of the maximum is refunded upstream, under the lock.
    /// Like [`PartitionLedger::charge_child_traced`], `prefix` is the path
    /// above this part, and `part[index]` is formatted only when a refund
    /// goes upstream.
    pub(in crate::kernel) fn refund_child_with(
        &self,
        index: usize,
        eps: f64,
        meta: &ChargeMeta,
        prefix: &str,
    ) {
        let mut book = lock(&self.book);
        let upstream = book.refund(index, eps);
        if upstream > 0.0 {
            let path = join_path(prefix, &seg_part(index));
            self.parent.refund_with(upstream, meta, &path);
        }
    }

    /// A copy of the whole book, read under one lock: every part's spend
    /// and the maximum (explain snapshots / introspection).
    pub(in crate::kernel) fn book(&self) -> LedgerBook {
        lock(&self.book).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Accountant;

    fn ledger(budget: f64, parts: usize) -> (Accountant, PartitionLedger) {
        let acct = Accountant::new(budget);
        let parent = Arc::new(ChargeNode::Root(acct.clone()));
        (acct, PartitionLedger::new(parent, parts))
    }

    #[test]
    fn parallel_parts_cost_only_the_max() {
        let (acct, ledger) = ledger(1.0, 4);
        for i in 0..4 {
            ledger.charge_child(i, 0.3).unwrap();
        }
        // Four parts each spent 0.3, but the source is charged max = 0.3.
        assert!((acct.spent() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn repeated_spends_on_one_part_accumulate() {
        let (acct, ledger) = ledger(1.0, 2);
        ledger.charge_child(0, 0.2).unwrap();
        ledger.charge_child(0, 0.2).unwrap();
        assert!((acct.spent() - 0.4).abs() < 1e-12);
        // The other part can now spend up to 0.4 for free.
        ledger.charge_child(1, 0.4).unwrap();
        assert!((acct.spent() - 0.4).abs() < 1e-12);
        // Going beyond the current max charges the difference.
        ledger.charge_child(1, 0.1).unwrap();
        assert!((acct.spent() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parent_failure_rolls_back_child_spend() {
        let (acct, ledger) = ledger(0.25, 2);
        ledger.charge_child(0, 0.2).unwrap();
        // This would raise the max to 0.5, exceeding the 0.25 budget.
        assert!(ledger.charge_child(1, 0.5).is_err());
        assert_eq!(ledger.book().spends, vec![0.2, 0.0]);
        assert!((acct.spent() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn refund_reduces_parent_only_when_max_drops() {
        let (acct, ledger) = ledger(1.0, 2);
        ledger.charge_child(0, 0.4).unwrap();
        ledger.charge_child(1, 0.3).unwrap();
        assert!((acct.spent() - 0.4).abs() < 1e-12);
        // Refunding the non-max part changes nothing upstream.
        ledger.refund_child(1, 0.3);
        assert!((acct.spent() - 0.4).abs() < 1e-12);
        // Refunding the max part drops the parent charge to the new max (0).
        ledger.refund_child(0, 0.4);
        assert!(acct.spent().abs() < 1e-12);
    }

    #[test]
    fn nested_partitions_compose() {
        // Partition inside a partition: inner ledger charges through an
        // outer PartitionPart node.
        let acct = Accountant::new(1.0);
        let root = Arc::new(ChargeNode::Root(acct.clone()));
        let outer = Arc::new(PartitionLedger::new(root, 2));
        let outer_part0 = Arc::new(ChargeNode::PartitionPart {
            ledger: outer.clone(),
            index: 0,
        });
        let inner = PartitionLedger::new(outer_part0, 3);
        for i in 0..3 {
            inner.charge_child(i, 0.5).unwrap();
        }
        // Inner parts are parallel (max 0.5), outer parts parallel again.
        assert!((acct.spent() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn concurrent_traced_charges_sum_to_the_accountant_spend() {
        let (acct, ledger) = ledger(100.0, 8);
        let ledger = Arc::new(ledger);
        let meta = ChargeMeta::new("noisy_count", None);
        let traced_total: f64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let ledger = ledger.clone();
                    let meta = meta.clone();
                    s.spawn(move || {
                        let mut local = Vec::new();
                        for _ in 0..100 {
                            ledger
                                .charge_child_traced(i, 0.01, &meta, "", &mut Some(&mut local))
                                .unwrap();
                        }
                        local.iter().map(|(_, d)| d).sum::<f64>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        // Deltas were captured under the ledger lock, so they account for
        // exactly what reached the source — no race can skew the split.
        assert!((traced_total - acct.spent()).abs() < 1e-9);
        assert!((acct.spent() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_child_charges_are_consistent() {
        let (acct, ledger) = ledger(100.0, 8);
        let ledger = Arc::new(ledger);
        std::thread::scope(|s| {
            for i in 0..8 {
                let ledger = ledger.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        ledger.charge_child(i, 0.01).unwrap();
                    }
                });
            }
        });
        // Every part spent exactly 1.0, so the source owes exactly 1.0.
        assert!((acct.spent() - 1.0).abs() < 1e-9);
    }
}

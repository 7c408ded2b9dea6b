//! Privacy budget accounting.
//!
//! Each protected dataset is given a total privacy budget ε by its owner.
//! Every aggregation spends a portion of it (scaled by the stability of the
//! transformations between the source and the aggregation); once the budget
//! is exhausted, further queries fail. This is the *sequential composition*
//! rule: analyses with costs c₁ and c₂ have total cost at most c₁ + c₂
//! (paper §7). The complementary *parallel composition* rule for `Partition`
//! lives in the partition ledger (see [`crate::Queryable::partition`]).
//!
//! # Observability & audit
//!
//! The accountant is the natural audit point for the paper's mediated
//! setting (§2, §7): the data owner runs analyses on a researcher's behalf
//! and must be able to justify every ε that left the budget. Each spend is
//! recorded as a provenance-rich [`SpendEvent`] — which operator charged,
//! through which path in the composition tree, under which analysis label,
//! and when — and simultaneously emitted as a structured
//! [`dpnet_obs::ChargeEvent`] to any bound [`dpnet_obs::EventSink`].
//!
//! The in-memory log is a bounded ring buffer ([`Accountant::set_log_capacity`])
//! so long-running owner processes cannot grow without bound; *accounting*
//! is exact regardless of eviction, because cumulative totals and
//! per-operator aggregates ([`Accountant::operator_totals`]) are maintained
//! separately from the log. [`Accountant::export_audit_jsonl`] writes the
//! whole picture — retained spends, exact per-operator totals, and a
//! summary — as owner-side JSONL.

use super::model::RootBudget;
use crate::error::Result;
use crate::lock;
use dpnet_obs::sink::SinkHandle;
use dpnet_obs::{now_ns, ChargeEvent, Event, EventSink};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Spend-log entries retained by default before the ring buffer starts
/// evicting the oldest (see [`Accountant::set_log_capacity`]).
pub const DEFAULT_LOG_CAPACITY: usize = 8192;

/// One recorded spend against an accountant, for auditability. Data owners
/// reviewing a mediated-analysis session can replay what was charged.
#[derive(Debug, Clone, PartialEq)]
pub struct SpendEvent {
    /// ε charged (after stability scaling). Negative for refunds.
    pub epsilon: f64,
    /// Monotonic sequence number of the charge.
    pub sequence: u64,
    /// Operator that initiated the charge (e.g. `"noisy_count"`).
    pub operator: Arc<str>,
    /// Path through the composition tree from the aggregation to this
    /// accountant, e.g. `"scale(x2)/part[3]/root"`.
    pub path: Arc<str>,
    /// Analysis label of the charging queryable, if one was set.
    pub label: Option<Arc<str>>,
    /// Monotonic timestamp (ns since process clock epoch).
    pub at_ns: u64,
}

/// Exact cumulative spend attributed to one operator name. Maintained
/// independently of the ring-buffer log, so eviction never loses ε.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OperatorTotal {
    /// Net ε attributed to the operator (charges minus refunds).
    pub epsilon: f64,
    /// Number of ledger entries (charges and refunds) attributed.
    pub entries: u64,
}

#[derive(Debug)]
struct AccountantState {
    budget: RootBudget,
    sequence: u64,
    log: VecDeque<SpendEvent>,
    log_capacity: usize,
    evicted: u64,
    per_operator: BTreeMap<Arc<str>, OperatorTotal>,
    per_path: BTreeMap<Arc<str>, OperatorTotal>,
}

impl Default for AccountantState {
    fn default() -> Self {
        AccountantState {
            budget: RootBudget::new(0.0),
            sequence: 0,
            log: VecDeque::new(),
            log_capacity: DEFAULT_LOG_CAPACITY,
            evicted: 0,
            per_operator: BTreeMap::new(),
            per_path: BTreeMap::new(),
        }
    }
}

impl AccountantState {
    /// Record one ledger entry of `epsilon`: exact aggregates first, then
    /// the bounded log. The entry's operator and path are the aggregate
    /// maps' own keys, so a charge allocates no string once its operator
    /// and path have been seen.
    fn record(&mut self, epsilon: f64, meta: &ChargeMeta, path: &str) -> SpendEvent {
        self.sequence += 1;
        let ev = SpendEvent {
            epsilon,
            sequence: self.sequence,
            operator: tally(&mut self.per_operator, &meta.operator, epsilon),
            path: tally(&mut self.per_path, path, epsilon),
            label: meta.label.clone(),
            at_ns: now_ns(),
        };
        if self.log_capacity == 0 {
            self.evicted += 1;
            return ev;
        }
        while self.log.len() >= self.log_capacity {
            self.log.pop_front();
            self.evicted += 1;
        }
        self.log.push_back(ev.clone());
        ev
    }
}

/// Add `epsilon` to `name`'s exact total and return the map's key for it.
fn tally(totals: &mut BTreeMap<Arc<str>, OperatorTotal>, name: &str, epsilon: f64) -> Arc<str> {
    let key = totals
        .get_key_value(name)
        .map_or_else(|| Arc::from(name), |(k, _)| k.clone());
    let t = totals.entry(key.clone()).or_default();
    t.epsilon += epsilon;
    t.entries += 1;
    key
}

/// Provenance attached to a charge as it walks the composition tree.
#[derive(Debug, Clone)]
pub(in crate::kernel) struct ChargeMeta {
    pub(in crate::kernel) operator: Arc<str>,
    pub(in crate::kernel) label: Option<Arc<str>>,
}

impl ChargeMeta {
    pub(in crate::kernel) fn new(operator: &str, label: Option<Arc<str>>) -> Self {
        ChargeMeta {
            operator: Arc::from(operator),
            label,
        }
    }
}

fn direct_meta() -> ChargeMeta {
    ChargeMeta {
        operator: Arc::from("direct"),
        label: None,
    }
}

/// The root privacy budget for one protected dataset.
///
/// Thread-safe and cheap to clone (clones share the same budget). All
/// queryables derived from the dataset ultimately charge here.
#[derive(Debug, Clone)]
pub struct Accountant {
    state: Arc<Mutex<AccountantState>>,
    sink: SinkHandle,
}

impl Accountant {
    /// Create an accountant with the given total budget.
    ///
    /// # Panics
    /// Panics if `total` is negative, NaN or infinite; the budget is a
    /// policy decision by the data owner and must be a real number.
    pub fn new(total: f64) -> Self {
        Self::restore(RootBudget::new(total))
    }

    /// An accountant whose books start at `budget`: its total and the ε
    /// already spent, bit for bit. The counterpart of
    /// [`Accountant::idle_budget`]; its ledger and log start empty.
    pub(crate) fn restore(budget: RootBudget) -> Self {
        Accountant {
            state: Arc::new(Mutex::new(AccountantState {
                budget,
                ..AccountantState::default()
            })),
            sink: SinkHandle::new(),
        }
    }

    /// The budget, when this handle is the accountant's only one and no
    /// sink is bound: nothing else can charge it, so dropping it and
    /// later [`Accountant::restore`]-ing the returned value loses no ε.
    /// `None` while any clone (a session, a queryable) is alive.
    pub(crate) fn idle_budget(&self) -> Option<RootBudget> {
        if Arc::strong_count(&self.state) > 1 || self.sink.is_bound() {
            return None;
        }
        Some(lock(&self.state).budget)
    }

    /// The total budget currently configured (initial grant plus any
    /// later [`Accountant::grant`]s).
    pub fn total(&self) -> f64 {
        lock(&self.state).budget.total
    }

    /// Cumulative ε spent so far.
    pub fn spent(&self) -> f64 {
        lock(&self.state).budget.spent
    }

    /// ε still available.
    pub fn remaining(&self) -> f64 {
        lock(&self.state).budget.remaining()
    }

    /// A copy of the underlying kernel budget value, read under one lock
    /// acquisition — `total` and `spent` taken at the same instant, for
    /// tests and tooling replaying the facade against the pure model.
    pub fn budget_snapshot(&self) -> RootBudget {
        lock(&self.state).budget
    }

    /// Whether `other` is a clone of this accountant: the same books.
    pub(in crate::kernel) fn shares_books_with(&self, other: &Accountant) -> bool {
        Arc::ptr_eq(&self.state, &other.state)
    }

    /// Enlarge the budget by `extra` ε — a *data-owner* operation, the
    /// basis of the timed-release policies the paper sketches in §7
    /// ("reduce privacy cost with time such that the data is available
    /// longer but the added noise increases with time").
    ///
    /// # Panics
    /// Panics on a negative, NaN or infinite grant.
    pub fn grant(&self, extra: f64) {
        lock(&self.state).budget.grant(extra);
    }

    /// Bind (or with `None`, unbind) the sink that receives this
    /// accountant's structured [`ChargeEvent`]s. Shared by every clone of
    /// the accountant and every queryable protected by it. With no sink
    /// bound, events fall back to [`dpnet_obs::sink::set_global_sink`].
    pub fn set_sink(&self, sink: Option<Arc<dyn EventSink>>) {
        self.sink.bind(sink);
    }

    /// The emission handle shared by this accountant's queryables.
    pub(crate) fn sink_handle(&self) -> &SinkHandle {
        &self.sink
    }

    /// Cap the in-memory spend log at `capacity` entries; the oldest are
    /// evicted first. Totals and per-operator aggregates stay exact no
    /// matter how much is evicted. A capacity of 0 retains nothing.
    pub fn set_log_capacity(&self, capacity: usize) {
        let mut st = lock(&self.state);
        st.log_capacity = capacity;
        while st.log.len() > capacity {
            st.log.pop_front();
            st.evicted += 1;
        }
    }

    /// Ledger entries evicted from the bounded log so far.
    pub fn evicted_entries(&self) -> u64 {
        lock(&self.state).evicted
    }

    /// Snapshot of the spends still retained in the bounded log (oldest
    /// first). For *exact* accounting use [`Accountant::operator_totals`]
    /// and [`Accountant::spent`], which survive eviction.
    pub fn audit_log(&self) -> Vec<SpendEvent> {
        lock(&self.state).log.iter().cloned().collect()
    }

    /// Exact net ε per operator name, independent of log eviction. The
    /// values sum to [`Accountant::spent`] (up to float rounding).
    pub fn operator_totals(&self) -> Vec<(Arc<str>, OperatorTotal)> {
        lock(&self.state)
            .per_operator
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Exact net ε per *charge path* — the composition-tree route each
    /// spend took to reach this accountant (e.g.
    /// `"part[3]/scale(x2)/root"`). Like [`Accountant::operator_totals`]
    /// this is maintained independently of the bounded log, so the values
    /// stay exact under eviction and sum to [`Accountant::spent`] (up to
    /// float rounding). This is the measured side of `EXPLAIN ANALYZE`:
    /// the number a static plan's predicted ε per path must reproduce.
    pub fn path_totals(&self) -> Vec<(Arc<str>, OperatorTotal)> {
        lock(&self.state)
            .per_path
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Attempt to spend `eps`. Fails without side effects if the budget
    /// would be exceeded.
    pub fn charge(&self, eps: f64) -> Result<()> {
        self.charge_with(eps, &direct_meta(), "root")
    }

    /// Attempt to spend `eps`, recording full provenance. The admission
    /// decision and the spend itself are [`RootBudget::try_charge`] — the
    /// kernel model's arithmetic, verbatim; this shell only adds locking,
    /// the audit ledger and sink emission.
    pub(in crate::kernel) fn charge_with(
        &self,
        eps: f64,
        meta: &ChargeMeta,
        path: &str,
    ) -> Result<()> {
        let (ev, spent_after) = {
            let mut st = lock(&self.state);
            st.budget.try_charge(eps)?;
            let ev = st.record(eps, meta, path);
            (ev, st.budget.spent)
        };
        self.emit_charge(ev, spent_after);
        Ok(())
    }

    /// Return `eps` to the budget. Used internally to roll back partially
    /// applied multi-input charges (e.g. a `Join` whose second input's
    /// budget is exhausted). Refunds are also logged, as negative spends.
    #[cfg(test)]
    pub(crate) fn refund(&self, eps: f64) {
        self.refund_with(eps, &direct_meta(), "root");
    }

    /// Return `eps` to the budget, recording full provenance. The clamp
    /// at zero and the applied-delta attribution are
    /// [`RootBudget::refund`] — per-operator totals keep summing exactly
    /// to `spent` even if a refund clamps.
    pub(in crate::kernel) fn refund_with(&self, eps: f64, meta: &ChargeMeta, path: &str) {
        let (ev, spent_after) = {
            let mut st = lock(&self.state);
            let applied = st.budget.refund(eps);
            let ev = st.record(-applied, meta, path);
            (ev, st.budget.spent)
        };
        self.emit_charge(ev, spent_after);
    }

    /// Send one ledger entry to the bound sink. Called outside the lock:
    /// sinks may be arbitrarily slow.
    fn emit_charge(&self, ev: SpendEvent, spent_after: f64) {
        self.sink.emit(|| {
            Event::Charge(ChargeEvent {
                operator: ev.operator,
                path: ev.path,
                label: ev.label,
                epsilon: ev.epsilon,
                spent_after,
                sequence: ev.sequence,
                at_ns: ev.at_ns,
            })
        });
    }

    /// Write the owner-side audit export as JSONL: one `spend` line per
    /// retained ledger entry, one `operator` line per operator and one
    /// `path` line per charge path with their *exact* net ε
    /// (eviction-proof), and a final `summary` line.
    pub fn export_audit_jsonl<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        use dpnet_obs::json::JsonObj;
        let (log, totals, paths, spent, total, evicted) = {
            let st = lock(&self.state);
            (
                st.log.iter().cloned().collect::<Vec<_>>(),
                st.per_operator
                    .iter()
                    .map(|(k, v)| (k.clone(), *v))
                    .collect::<Vec<_>>(),
                st.per_path
                    .iter()
                    .map(|(k, v)| (k.clone(), *v))
                    .collect::<Vec<_>>(),
                st.budget.spent,
                st.budget.total,
                st.evicted,
            )
        };
        for ev in &log {
            let mut o = JsonObj::new();
            o.field_str("type", "spend")
                .field_str("op", &ev.operator)
                .field_str("path", &ev.path)
                .field_opt_str("label", ev.label.as_deref())
                .field_f64("eps", ev.epsilon)
                .field_u64("seq", ev.sequence)
                .field_u64("at_ns", ev.at_ns);
            writeln!(w, "{}", o.finish())?;
        }
        for (op, t) in &totals {
            let mut o = JsonObj::new();
            o.field_str("type", "operator")
                .field_str("name", op)
                .field_f64("eps", t.epsilon)
                .field_u64("entries", t.entries);
            writeln!(w, "{}", o.finish())?;
        }
        for (path, t) in &paths {
            let mut o = JsonObj::new();
            o.field_str("type", "path")
                .field_str("name", path)
                .field_f64("eps", t.epsilon)
                .field_u64("entries", t.entries);
            writeln!(w, "{}", o.finish())?;
        }
        let mut o = JsonObj::new();
        o.field_str("type", "summary")
            .field_f64("spent", spent)
            .field_f64("total", total)
            .field_f64("remaining", (total - spent).max(0.0))
            .field_u64("retained", log.len() as u64)
            .field_u64("evicted", evicted)
            .field_u64("exported_at", dpnet_obs::unix_time_s());
        writeln!(w, "{}", o.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;

    #[test]
    fn charges_accumulate() {
        let a = Accountant::new(1.0);
        a.charge(0.25).unwrap();
        a.charge(0.25).unwrap();
        assert!((a.spent() - 0.5).abs() < 1e-12);
        assert!((a.remaining() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exceeding_budget_fails_without_side_effects() {
        let a = Accountant::new(0.5);
        a.charge(0.4).unwrap();
        let err = a.charge(0.2).unwrap_err();
        match err {
            Error::BudgetExceeded {
                requested,
                available,
            } => {
                assert_eq!(requested, 0.2);
                assert!((available - 0.1).abs() < 1e-12);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // The failed charge must not have consumed anything.
        assert!((a.spent() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn spending_exactly_the_budget_is_allowed() {
        let a = Accountant::new(1.0);
        for _ in 0..10 {
            a.charge(0.1).unwrap();
        }
        assert!(a.charge(0.01).is_err());
    }

    #[test]
    fn refund_restores_budget_and_is_logged() {
        let a = Accountant::new(1.0);
        a.charge(0.6).unwrap();
        a.refund(0.6);
        assert_eq!(a.spent(), 0.0);
        let log = a.audit_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].epsilon, 0.6);
        assert_eq!(log[1].epsilon, -0.6);
        assert!(log[1].sequence > log[0].sequence);
    }

    #[test]
    fn clones_share_the_budget() {
        let a = Accountant::new(1.0);
        let b = a.clone();
        a.charge(0.7).unwrap();
        assert!(b.charge(0.7).is_err());
        b.charge(0.3).unwrap();
        assert!((a.spent() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_budget_rejects_everything() {
        let a = Accountant::new(0.0);
        assert!(a.charge(1e-6).is_err());
        assert_eq!(a.remaining(), 0.0);
    }

    #[test]
    fn grants_expand_the_budget() {
        let a = Accountant::new(0.5);
        a.charge(0.5).unwrap();
        assert!(a.charge(0.1).is_err());
        a.grant(0.3);
        assert_eq!(a.total(), 0.8);
        a.charge(0.3).unwrap();
        assert!(a.charge(0.01).is_err());
    }

    #[test]
    #[should_panic(expected = "grant must be finite")]
    fn negative_grants_are_rejected() {
        Accountant::new(1.0).grant(-0.5);
    }

    #[test]
    fn concurrent_charges_never_oversubscribe() {
        let a = Accountant::new(10.0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let a = a.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        let _ = a.charge(0.01);
                    }
                });
            }
        });
        assert!(a.spent() <= a.total() + 1e-6);
    }

    #[test]
    fn log_is_bounded_but_accounting_is_exact() {
        let a = Accountant::new(1000.0);
        a.set_log_capacity(10);
        for _ in 0..100 {
            a.charge(0.5).unwrap();
        }
        let log = a.audit_log();
        assert_eq!(log.len(), 10);
        assert_eq!(a.evicted_entries(), 90);
        // The retained entries are the newest.
        assert_eq!(log.last().unwrap().sequence, 100);
        assert_eq!(log.first().unwrap().sequence, 91);
        // Eviction loses log lines, never ε.
        assert!((a.spent() - 50.0).abs() < 1e-9);
        let per_op: f64 = a.operator_totals().iter().map(|(_, t)| t.epsilon).sum();
        assert!((per_op - a.spent()).abs() < 1e-9);
    }

    #[test]
    fn shrinking_capacity_evicts_immediately() {
        let a = Accountant::new(10.0);
        for _ in 0..6 {
            a.charge(1.0).unwrap();
        }
        a.set_log_capacity(2);
        assert_eq!(a.audit_log().len(), 2);
        assert_eq!(a.evicted_entries(), 4);
        a.set_log_capacity(0);
        a.charge(1.0).unwrap();
        assert!(a.audit_log().is_empty());
        assert!((a.spent() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn path_totals_are_exact_under_eviction_and_refunds() {
        let a = Accountant::new(1000.0);
        a.set_log_capacity(4);
        let meta = ChargeMeta::new("noisy_count", None);
        for _ in 0..50 {
            a.charge_with(0.5, &meta, "part[0]/root").unwrap();
        }
        for _ in 0..50 {
            a.charge_with(0.25, &meta, "scale(x2)/root").unwrap();
        }
        a.refund_with(0.25, &meta, "scale(x2)/root");
        let paths: BTreeMap<_, _> = a.path_totals().into_iter().collect();
        assert_eq!(paths.len(), 2);
        let p0 = paths[&Arc::<str>::from("part[0]/root")];
        assert!((p0.epsilon - 25.0).abs() < 1e-9);
        assert_eq!(p0.entries, 50);
        let p1 = paths[&Arc::<str>::from("scale(x2)/root")];
        assert!((p1.epsilon - 12.25).abs() < 1e-9);
        assert_eq!(p1.entries, 51);
        // Eviction lost log lines, never per-path ε.
        assert!(a.evicted_entries() > 0);
        let sum: f64 = paths.values().map(|t| t.epsilon).sum();
        assert!((sum - a.spent()).abs() < 1e-9);
    }

    #[test]
    fn spend_entries_share_the_interned_names() {
        let a = Accountant::new(10.0);
        let meta = ChargeMeta::new("noisy_count", None);
        a.charge_with(1.0, &meta, "in[0]/root").unwrap();
        a.charge_with(1.0, &ChargeMeta::new("noisy_count", None), "in[0]/root")
            .unwrap();
        let log = a.audit_log();
        assert!(Arc::ptr_eq(&log[0].operator, &log[1].operator));
        assert!(Arc::ptr_eq(&log[0].path, &log[1].path));
        assert!(!Arc::ptr_eq(&log[0].operator, &meta.operator));
        let (path, _) = &a.path_totals()[0];
        assert!(Arc::ptr_eq(path, &log[0].path));
    }

    #[test]
    fn an_idle_budget_restores_bit_for_bit() {
        let a = Accountant::new(1.0);
        a.charge(0.1).unwrap();
        a.charge(0.2).unwrap();
        let held = a.clone();
        assert_eq!(a.idle_budget(), None, "a clone is alive");
        drop(held);
        a.set_sink(Some(Arc::new(dpnet_obs::MemorySink::new())));
        assert_eq!(a.idle_budget(), None, "a sink is bound");
        a.set_sink(None);
        let budget = a.idle_budget().expect("sole handle");
        let b = Accountant::restore(budget);
        assert_eq!(b.spent().to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(b.total(), 1.0);
        assert!(b.audit_log().is_empty());
    }

    #[test]
    fn audit_export_carries_path_lines() {
        let a = Accountant::new(4.0);
        let meta = ChargeMeta::new("noisy_sum", None);
        a.charge_with(1.0, &meta, "scale(x4)/root").unwrap();
        let mut buf = Vec::new();
        a.export_audit_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let path_line = text
            .lines()
            .map(|l| dpnet_obs::json::parse_value(l).expect("parseable"))
            .find(|o| o["type"].as_str() == Some("path"))
            .expect("a path line");
        assert_eq!(path_line["name"].as_str(), Some("scale(x4)/root"));
        assert_eq!(path_line["eps"].as_f64(), Some(1.0));
    }

    #[test]
    fn operator_totals_sum_to_spent_with_refunds() {
        let a = Accountant::new(10.0);
        a.charge(2.0).unwrap();
        a.refund(0.5);
        a.charge(1.0).unwrap();
        let per_op: f64 = a.operator_totals().iter().map(|(_, t)| t.epsilon).sum();
        assert!((per_op - a.spent()).abs() < 1e-12);
        assert!((a.spent() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn charge_events_reach_the_accountant_sink() {
        let sink = Arc::new(dpnet_obs::MemorySink::new());
        let a = Accountant::new(5.0);
        a.set_sink(Some(sink.clone()));
        a.charge(1.5).unwrap();
        let events = sink.events();
        assert_eq!(events.len(), 1);
        match &events[0] {
            dpnet_obs::Event::Charge(c) => {
                assert_eq!(&*c.operator, "direct");
                assert_eq!(&*c.path, "root");
                assert_eq!(c.epsilon, 1.5);
                assert!((c.spent_after - 1.5).abs() < 1e-12);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn audit_export_is_parseable_and_exact() {
        let a = Accountant::new(4.0);
        a.charge(1.0).unwrap();
        a.charge(0.5).unwrap();
        let mut buf = Vec::new();
        a.export_audit_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut operator_eps = 0.0;
        let mut summary_spent = None;
        for line in text.lines() {
            let obj = dpnet_obs::json::parse_value(line)
                .unwrap_or_else(|| panic!("unparseable line {line}"));
            match obj["type"].as_str().unwrap() {
                "operator" => operator_eps += obj["eps"].as_f64().unwrap(),
                "summary" => summary_spent = obj["spent"].as_f64(),
                _ => {}
            }
        }
        let summary_spent = summary_spent.expect("summary line present");
        assert!((summary_spent - 1.5).abs() < 1e-12);
        assert!((operator_eps - summary_spent).abs() < 1e-9);
    }
}

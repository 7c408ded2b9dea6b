//! Data-owner budget policies (paper §7).
//!
//! Differential privacy composes: two analyses with costs c₁ and c₂ cost at
//! most c₁ + c₂ in total, so a data owner "can enforce various policies
//! such as limiting the total privacy cost per analyst or across all
//! analysts. They can also reduce privacy cost (i.e., increase ε) with time
//! such that the data is available longer but the added noise increases
//! with time." This module packages both:
//!
//! * [`SessionManager`] — one dataset, many analysts. Each session charges
//!   *both* the analyst's personal cap and the dataset-wide budget, so a
//!   single analyst is limited even if alone, and no coalition can exceed
//!   the global budget (differential privacy is resilient to collusion:
//!   the combined knowledge of all analysts is bounded by the sum of their
//!   spends, hence by the global budget).
//! * [`TimedRelease`] — a drip policy that grants additional ε to an
//!   accountant as (logical) epochs pass.
//!
//! Two session shapes exist. [`SessionManager::session`] is the original
//! anonymous form: a bare queryable charging `(global, personal)`. The
//! serving layer uses the richer [`SessionManager::open`] lifecycle: a
//! numbered [`Session`] whose charges additionally book against a fresh
//! session-scoped [`Accountant`], giving exact per-session spend readings,
//! a per-session audit stream (bind a sink on [`Session::accountant`]),
//! and a private deterministic noise substream per session.

use crate::budget::Accountant;
use crate::exec::{ExecCtx, ExecPool};
use crate::kernel::model::RootBudget;
use crate::queryable::Queryable;
use crate::rng::NoiseSource;
use dpnet_obs::{now_ns, Event, SessionEvent};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Owner-side registry mediating one protected dataset for many analysts.
///
/// The dataset is held as shared shards: every session over the same trace
/// reuses the same chunks zero-copy, so a serving daemon loads the trace
/// once no matter how many analysts connect.
pub struct SessionManager<T> {
    shards: Vec<Arc<Vec<T>>>,
    noise: NoiseSource,
    global: Accountant,
    per_analyst_cap: f64,
    analysts: Mutex<HashMap<Box<str>, AnalystBook>>,
    pool: ExecPool,
    next_session: AtomicU64,
    open: Mutex<HashMap<u64, (Arc<str>, Accountant)>>,
}

/// One analyst's books against their cap.
///
/// An analyst is `Live` while anything (a session, a queryable, a caller
/// of [`SessionManager::analyst_budget`]) holds their accountant. Once the
/// analyst's last session closes and nothing else holds it, the entry
/// shrinks to `Idle`: the ε spent, which with the manager's cap is all
/// the cap check needs. The per-operator and per-path totals go; the
/// session audit streams hold them.
#[derive(Debug)]
enum AnalystBook {
    Live(Accountant),
    Idle(f64),
}

impl AnalystBook {
    fn spent(&self) -> f64 {
        match self {
            AnalystBook::Live(acct) => acct.spent(),
            AnalystBook::Idle(spent) => *spent,
        }
    }
}

/// A point-in-time budget reading for one session (all values are
/// accountant readings — policy metadata, never record data).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpend {
    /// The session's id.
    pub session_id: u64,
    /// The analyst the session belongs to.
    pub analyst: String,
    /// ε spent through this session alone.
    pub session_spent: f64,
    /// ε spent by the analyst across all their sessions.
    pub analyst_spent: f64,
    /// The analyst's lifetime cap.
    pub analyst_cap: f64,
    /// ε spent against the dataset-wide budget (all analysts).
    pub global_spent: f64,
    /// The dataset-wide budget.
    pub global_total: f64,
}

/// One opened analyst session: the unit of mediation the serving layer
/// hands to a connected analyst.
///
/// Aggregations through [`Session::queryable`] charge three budgets
/// transactionally: the session's own accountant (exact per-session
/// spend), the analyst's lifetime cap, and the dataset-wide budget.
/// Queryable-level events route through the session accountant's sink, so
/// binding a sink there ([`Accountant::set_sink`]) yields a live audit
/// stream scoped to exactly this session.
pub struct Session<T> {
    id: u64,
    analyst: Arc<str>,
    acct: Accountant,
    personal: Accountant,
    global: Accountant,
    root: Queryable<T>,
}

impl<T> Session<T> {
    /// The session's process-unique id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The analyst the session belongs to.
    pub fn analyst(&self) -> &str {
        &self.analyst
    }

    /// The protected view this session queries through.
    pub fn queryable(&self) -> &Queryable<T> {
        &self.root
    }

    /// The session-scoped accountant: exact per-session spend, ring log,
    /// audit export, and the sink all queryable events of this session
    /// route through.
    pub fn accountant(&self) -> &Accountant {
        &self.acct
    }

    /// ε spent through this session alone.
    pub fn spent(&self) -> f64 {
        self.acct.spent()
    }

    /// A point-in-time reading of every budget this session charges.
    pub fn snapshot(&self) -> SessionSpend {
        SessionSpend {
            session_id: self.id,
            analyst: self.analyst.to_string(),
            session_spent: self.acct.spent(),
            analyst_spent: self.personal.spent(),
            analyst_cap: self.personal.total(),
            global_spent: self.global.spent(),
            global_total: self.global.total(),
        }
    }

    /// Write this session's exact spend ledger as JSONL (see
    /// [`Accountant::export_audit_jsonl`]).
    pub fn export_audit_jsonl<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        self.acct.export_audit_jsonl(w)
    }
}

impl<T> std::fmt::Debug for Session<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.id)
            .field("analyst", &self.analyst)
            .field("session_spent", &self.acct.spent())
            .finish_non_exhaustive()
    }
}

impl<T> SessionManager<T> {
    /// Create a manager with a dataset-wide budget and a per-analyst cap.
    pub fn new(
        records: Vec<T>,
        noise: NoiseSource,
        global_budget: f64,
        per_analyst_cap: f64,
    ) -> Self {
        Self::from_shared_shards(
            vec![Arc::new(records)],
            noise,
            global_budget,
            per_analyst_cap,
        )
    }

    /// [`SessionManager::new`] over pre-chunked shared shards: the serving
    /// path. Sessions over the same trace share the chunks zero-copy.
    pub fn from_shared_shards(
        shards: Vec<Arc<Vec<T>>>,
        noise: NoiseSource,
        global_budget: f64,
        per_analyst_cap: f64,
    ) -> Self {
        SessionManager {
            shards,
            noise,
            global: Accountant::new(global_budget),
            per_analyst_cap,
            analysts: Mutex::new(HashMap::new()),
            pool: ExecPool::sequential(),
            next_session: AtomicU64::new(0),
            open: Mutex::new(HashMap::new()),
        }
    }

    /// Set the pool sessions inherit (e.g. a shared worker pool; by
    /// default [`ExecPool::sequential`]). Builder-style; applies to
    /// sessions opened afterwards.
    pub fn with_ctx(mut self, ctx: ExecCtx) -> Self {
        self.pool = ctx.into_pool();
        self
    }

    /// The dataset-wide accountant (for owner monitoring).
    pub fn global(&self) -> &Accountant {
        &self.global
    }

    /// The per-analyst lifetime cap.
    pub fn per_analyst_cap(&self) -> f64 {
        self.per_analyst_cap
    }

    /// The shared shards backing every session (owner-side handle; useful
    /// for serving layers that expose the same trace elsewhere).
    pub fn shards(&self) -> &[Arc<Vec<T>>] {
        &self.shards
    }

    /// The accountant of one analyst, creating it on first use and
    /// restoring it, with its exact spend, when the analyst was idle.
    pub fn analyst_budget(&self, analyst: &str) -> Accountant {
        let mut analysts = self.analysts.lock();
        let book = analysts
            .entry(Box::from(analyst))
            .or_insert(AnalystBook::Idle(0.0));
        match book {
            AnalystBook::Live(acct) => acct.clone(),
            AnalystBook::Idle(spent) => {
                let acct = Accountant::restore(RootBudget {
                    spent: *spent,
                    ..RootBudget::new(self.per_analyst_cap)
                });
                // Only the caps are ever read: keep no spend log.
                acct.set_log_capacity(0);
                *book = AnalystBook::Live(acct.clone());
                acct
            }
        }
    }

    /// ε spent by `analyst`. An analyst whose accountant nothing else
    /// holds goes idle here.
    fn settle(&self, analyst: &str) -> f64 {
        let mut analysts = self.analysts.lock();
        let Some(book) = analysts.get_mut(analyst) else {
            return 0.0;
        };
        if let AnalystBook::Live(acct) = book {
            // Idle books restore at the manager's cap: an analyst granted
            // more than that stays live.
            let idle = acct.idle_budget();
            if let Some(budget) = idle.filter(|b| b.total == self.per_analyst_cap) {
                *book = AnalystBook::Idle(budget.spent);
            }
        }
        book.spent()
    }

    /// ε spent by `analyst`, without reviving an idle analyst.
    fn analyst_spent(&self, analyst: &str) -> f64 {
        self.analysts
            .lock()
            .get(analyst)
            .map_or(0.0, AnalystBook::spent)
    }

    /// Open an anonymous session for `analyst`: a queryable over the
    /// shared records whose aggregations charge both the analyst's cap and
    /// the global budget. (The lifecycle-tracked form is
    /// [`SessionManager::open`].)
    pub fn session(&self, analyst: &str) -> Queryable<T> {
        let personal = self.analyst_budget(analyst);
        Queryable::new_shared_shards(self.shards.clone(), &[&self.global, &personal], &self.noise)
            .with_ctx(ExecCtx::pool(&self.pool))
    }

    /// Open a numbered, closable session for `analyst`.
    ///
    /// Compared to [`SessionManager::session`] the returned [`Session`]
    /// additionally books every charge against a fresh session-scoped
    /// accountant (exact per-session spend + per-session audit stream) and
    /// draws noise from a private deterministic substream, so concurrent
    /// sessions never interleave their noise draws. Emits a
    /// `session`/`opened` event through the owner's (global accountant)
    /// sink.
    pub fn open(&self, analyst: &str) -> Session<T> {
        let personal = self.analyst_budget(analyst);
        // Session accountant cap mirrors the analyst cap: it can never
        // bind before the personal accountant does (the personal one has
        // spend from earlier sessions), it just meters this session.
        let acct = Accountant::new(self.per_analyst_cap);
        let id = self.next_session.fetch_add(1, Ordering::Relaxed) + 1;
        let name: Arc<str> = Arc::from(analyst);
        let noise = self.noise.substream();
        let root = Queryable::new_shared_shards(
            self.shards.clone(),
            &[&acct, &personal, &self.global],
            &noise,
        )
        .with_ctx(ExecCtx::pool(&self.pool))
        .with_label(&format!("{analyst}#{id}"));
        self.open.lock().insert(id, (name.clone(), acct.clone()));
        self.global.sink_handle().emit(|| {
            Event::Session(SessionEvent {
                session_id: id,
                analyst: name.clone(),
                action: "opened",
                session_spent: 0.0,
                at_ns: now_ns(),
            })
        });
        Session {
            id,
            analyst: name,
            acct,
            personal,
            global: self.global.clone(),
            root,
        }
    }

    /// Close session `id`: drop it from the open-session registry and
    /// return its final budget reading. Emits a `session`/`closed` event
    /// through the owner's sink. Returns `None` when no such session is
    /// open (already closed, or never opened here).
    ///
    /// When nothing holds the analyst's accountant any more (the
    /// [`Session`] was dropped before closing, and the analyst has no
    /// other session), the analyst goes idle: only their spent ε is kept.
    pub fn close(&self, id: u64) -> Option<SessionSpend> {
        let (name, acct) = self.open.lock().remove(&id)?;
        let analyst_spent = self.settle(&name);
        let spend = SessionSpend {
            session_id: id,
            analyst: name.to_string(),
            session_spent: acct.spent(),
            analyst_spent,
            analyst_cap: self.per_analyst_cap,
            global_spent: self.global.spent(),
            global_total: self.global.total(),
        };
        self.global.sink_handle().emit(|| {
            Event::Session(SessionEvent {
                session_id: id,
                analyst: name.clone(),
                action: "closed",
                session_spent: spend.session_spent,
                at_ns: now_ns(),
            })
        });
        Some(spend)
    }

    /// Number of currently open (lifecycle-tracked) sessions.
    pub fn open_sessions(&self) -> usize {
        self.open.lock().len()
    }

    /// Point-in-time budget readings for every open session, sorted by
    /// session id — the owner's live view of who is spending what.
    pub fn open_session_spends(&self) -> Vec<SessionSpend> {
        let mut out: Vec<SessionSpend> = self
            .open
            .lock()
            .iter()
            .map(|(&id, (name, acct))| SessionSpend {
                session_id: id,
                analyst: name.to_string(),
                session_spent: acct.spent(),
                analyst_spent: self.analyst_spent(name),
                analyst_cap: self.per_analyst_cap,
                global_spent: self.global.spent(),
                global_total: self.global.total(),
            })
            .collect();
        out.sort_by_key(|s| s.session_id);
        out
    }

    /// Names of analysts who have opened sessions, with their spends.
    pub fn ledger(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = self
            .analysts
            .lock()
            .iter()
            .map(|(name, book)| (name.to_string(), book.spent()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

impl<T> std::fmt::Debug for SessionManager<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionManager")
            .field("global_spent", &self.global.spent())
            .field("global_total", &self.global.total())
            .field("per_analyst_cap", &self.per_analyst_cap)
            .field("open_sessions", &self.open.lock().len())
            .finish_non_exhaustive()
    }
}

/// A drip policy: grant `per_epoch` additional ε to an accountant each time
/// the (logical) clock advances, up to an optional ceiling.
///
/// The trade-off the paper describes: granting more budget over time keeps
/// old data useful for longer, at the price of more cumulative disclosure.
#[derive(Debug)]
pub struct TimedRelease {
    accountant: Accountant,
    per_epoch: f64,
    ceiling: Option<f64>,
    current_epoch: Mutex<u64>,
}

impl TimedRelease {
    /// Create a drip policy over `accountant`, granting `per_epoch` ε per
    /// epoch, never letting the total exceed `ceiling` (if given).
    pub fn new(accountant: Accountant, per_epoch: f64, ceiling: Option<f64>) -> Self {
        assert!(per_epoch.is_finite() && per_epoch >= 0.0);
        TimedRelease {
            accountant,
            per_epoch,
            ceiling,
            current_epoch: Mutex::new(0),
        }
    }

    /// Advance the logical clock to `epoch`, granting for every epoch that
    /// passed. Idempotent for equal or earlier epochs.
    pub fn advance_to(&self, epoch: u64) {
        let mut cur = self.current_epoch.lock();
        if epoch <= *cur {
            return;
        }
        let steps = epoch - *cur;
        *cur = epoch;
        let mut grant = self.per_epoch * steps as f64;
        if let Some(cap) = self.ceiling {
            grant = grant.min((cap - self.accountant.total()).max(0.0));
        }
        if grant > 0.0 {
            self.accountant.grant(grant);
        }
    }

    /// The epoch the policy has been advanced to.
    pub fn epoch(&self) -> u64 {
        *self.current_epoch.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpnet_obs::MemorySink;

    fn manager() -> SessionManager<u32> {
        SessionManager::new(
            (0..1000).collect(),
            NoiseSource::seeded(7),
            1.0, // global
            0.4, // per analyst
        )
    }

    #[test]
    fn personal_caps_bind_before_the_global_budget() {
        let m = manager();
        let alice = m.session("alice");
        alice.noisy_count(0.4).unwrap();
        // Alice is done for; the dataset is not.
        assert!(alice.noisy_count(0.1).is_err());
        let bob = m.session("bob");
        bob.noisy_count(0.4).unwrap();
        assert!((m.global().spent() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn coalitions_cannot_exceed_the_global_budget() {
        let m = manager();
        // Three analysts, 0.4 each, would be 1.2 — but the global budget is
        // 1.0, so the third is cut short.
        m.session("a").noisy_count(0.4).unwrap();
        m.session("b").noisy_count(0.4).unwrap();
        let c = m.session("c");
        assert!(c.noisy_count(0.4).is_err());
        // The failed attempt refunded c's personal budget too.
        assert_eq!(m.analyst_budget("c").spent(), 0.0);
        c.noisy_count(0.2).unwrap();
        assert!((m.global().spent() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sessions_for_the_same_analyst_share_a_cap() {
        let m = manager();
        let s1 = m.session("carol");
        let s2 = m.session("carol");
        s1.noisy_count(0.3).unwrap();
        assert!(s2.noisy_count(0.3).is_err());
        s2.noisy_count(0.1).unwrap();
        assert!((m.analyst_budget("carol").spent() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn ledger_reports_per_analyst_spends() {
        let m = manager();
        m.session("zoe").noisy_count(0.2).unwrap();
        m.session("adam").noisy_count(0.1).unwrap();
        let ledger = m.ledger();
        assert_eq!(ledger.len(), 2);
        assert_eq!(ledger[0].0, "adam");
        assert!((ledger[0].1 - 0.1).abs() < 1e-12);
        assert!((ledger[1].1 - 0.2).abs() < 1e-12);
    }

    #[test]
    fn sharded_and_flat_managers_agree() {
        // The same records pre-chunked: identical releases and spends.
        let flat = manager();
        let records: Vec<u32> = (0..1000).collect();
        let sharded = SessionManager::from_shared_shards(
            vec![
                Arc::new(records[..300].to_vec()),
                Arc::new(records[300..].to_vec()),
            ],
            NoiseSource::seeded(7),
            1.0,
            0.4,
        );
        let a = flat.session("alice").noisy_count(0.2).unwrap();
        let b = sharded.session("alice").noisy_count(0.2).unwrap();
        assert_eq!(a, b);
        assert_eq!(flat.global().spent(), sharded.global().spent());
    }

    #[test]
    fn open_sessions_meter_their_own_spend() {
        let m = manager();
        let s1 = m.open("dana");
        let s2 = m.open("dana");
        assert_ne!(s1.id(), s2.id());
        assert_eq!(m.open_sessions(), 2);

        s1.queryable().noisy_count(0.25).unwrap();
        s2.queryable().noisy_count(0.1).unwrap();
        assert!((s1.spent() - 0.25).abs() < 1e-12);
        assert!((s2.spent() - 0.1).abs() < 1e-12);
        // The personal cap still aggregates across the analyst's sessions.
        assert!((m.analyst_budget("dana").spent() - 0.35).abs() < 1e-12);
        assert!(s2.queryable().noisy_count(0.25).is_err());

        let snap = s1.snapshot();
        assert_eq!(snap.analyst, "dana");
        assert!((snap.session_spent - 0.25).abs() < 1e-12);
        assert!((snap.analyst_spent - 0.35).abs() < 1e-12);
        assert!((snap.analyst_cap - 0.4).abs() < 1e-12);

        let closed = m.close(s1.id()).expect("open");
        assert!((closed.session_spent - 0.25).abs() < 1e-12);
        assert_eq!(m.open_sessions(), 1);
        assert!(m.close(s1.id()).is_none(), "double close is rejected");
    }

    #[test]
    fn failed_charges_refund_every_budget_of_an_open_session() {
        let m = manager();
        let s = m.open("erin");
        s.queryable().noisy_count(0.3).unwrap();
        // 0.2 more would pass the session accountant but not the personal
        // cap: the transactional walk must refund the session accountant.
        assert!(s.queryable().noisy_count(0.2).is_err());
        assert!((s.spent() - 0.3).abs() < 1e-12);
        assert!((m.analyst_budget("erin").spent() - 0.3).abs() < 1e-12);
        assert!((m.global().spent() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn session_sink_scopes_events_to_one_session() {
        let m = manager();
        let s1 = m.open("faye");
        let s2 = m.open("faye");
        let sink = Arc::new(MemorySink::new());
        s1.accountant().set_sink(Some(sink.clone()));
        s1.queryable().noisy_count(0.1).unwrap();
        s2.queryable().noisy_count(0.2).unwrap();
        let events = sink.events();
        assert!(!events.is_empty());
        // Only session 1's activity reached the session-scoped sink: every
        // charge there is the 0.1 one.
        for e in &events {
            if let Event::Charge(c) = e {
                assert!((c.epsilon - 0.1).abs() < 1e-12, "foreign charge {c:?}");
            }
        }
    }

    #[test]
    fn open_session_spends_lists_live_readings() {
        let m = manager();
        let s1 = m.open("gil");
        let _s2 = m.open("hana");
        s1.queryable().noisy_count(0.2).unwrap();
        let spends = m.open_session_spends();
        assert_eq!(spends.len(), 2);
        assert_eq!(spends[0].session_id, s1.id());
        assert!((spends[0].session_spent - 0.2).abs() < 1e-12);
        assert_eq!(spends[1].analyst, "hana");
        assert_eq!(spends[1].session_spent, 0.0);
    }

    #[test]
    fn open_sessions_draw_private_noise_substreams() {
        // Two managers seeded identically: the n-th opened session releases
        // the same values regardless of what *other* sessions drew first —
        // substreams never interleave.
        let m1 = manager();
        let a1 = m1.open("a");
        let b1 = m1.open("b");
        let x = a1.queryable().noisy_count(0.01).unwrap();
        let y = b1.queryable().noisy_count(0.01).unwrap();

        let m2 = manager();
        let a2 = m2.open("a");
        let b2 = m2.open("b");
        // Reverse query order: same releases.
        let y2 = b2.queryable().noisy_count(0.01).unwrap();
        let x2 = a2.queryable().noisy_count(0.01).unwrap();
        assert_eq!(x, x2);
        assert_eq!(y, y2);
    }

    fn is_idle(m: &SessionManager<u32>, analyst: &str) -> bool {
        matches!(m.analysts.lock().get(analyst), Some(AnalystBook::Idle(_)))
    }

    /// Open a session for `analyst`, spend `eps` through it, drop it and
    /// close it: the lifecycle a served connection goes through.
    fn spend_and_close(m: &SessionManager<u32>, analyst: &str, eps: f64) {
        let s = m.open(analyst);
        s.queryable().noisy_count(eps).unwrap();
        let id = s.id();
        drop(s);
        m.close(id).expect("open");
    }

    #[test]
    fn an_analyst_cap_holds_across_close_and_reopen() {
        let m = manager();
        spend_and_close(&m, "ivy", 0.1);
        spend_and_close(&m, "ivy", 0.2);
        assert!(is_idle(&m, "ivy"));
        // 0.1 + 0.2 is not 0.3 in f64: the idle books keep the exact sum.
        let spent = 0.1f64 + 0.2;
        assert_ne!(spent, 0.3);

        let s = m.open("ivy");
        assert!(!is_idle(&m, "ivy"));
        assert_eq!(s.snapshot().analyst_spent.to_bits(), spent.to_bits());
        assert_eq!(s.spent(), 0.0, "a new session meters only itself");
        // Cap 0.4: 0.11 more fails only while the earlier 0.3 counts.
        assert!(s.queryable().noisy_count(0.11).is_err());
        s.queryable().noisy_count(0.05).unwrap();
        assert_eq!(
            m.analyst_budget("ivy").spent().to_bits(),
            (spent + 0.05).to_bits()
        );
    }

    #[test]
    fn concurrent_sessions_of_one_analyst_share_one_cap() {
        let m = manager();
        let s1 = m.open("jay");
        let s2 = m.open("jay");
        s1.queryable().noisy_count(0.3).unwrap();
        assert!(s2.queryable().noisy_count(0.3).is_err());
        let id1 = s1.id();
        drop(s1);
        let closed = m.close(id1).expect("open");
        assert!((closed.analyst_spent - 0.3).abs() < 1e-12);
        // s2 still holds the analyst's accountant: it stays live.
        assert!(!is_idle(&m, "jay"));
        s2.queryable().noisy_count(0.1).unwrap();
        assert!(s2.queryable().noisy_count(0.01).is_err());
        let id2 = s2.id();
        drop(s2);
        m.close(id2).expect("open");
        assert!(is_idle(&m, "jay"));
        assert!((m.ledger()[0].1 - 0.4).abs() < 1e-12);
    }

    #[test]
    fn a_session_held_after_close_keeps_charging_the_same_budget() {
        let m = manager();
        let s = m.open("kim");
        s.queryable().noisy_count(0.1).unwrap();
        m.close(s.id()).expect("open");
        assert!(!is_idle(&m, "kim"), "a held session keeps the analyst live");
        s.queryable().noisy_count(0.2).unwrap();
        assert!((m.analyst_budget("kim").spent() - 0.3).abs() < 1e-12);
        drop(s);
        // The next close of a kim session settles every charge above.
        spend_and_close(&m, "kim", 0.05);
        assert!(is_idle(&m, "kim"));
        assert_eq!(m.ledger(), vec![("kim".to_string(), 0.1 + 0.2 + 0.05)]);
        let s = m.open("kim");
        assert!(s.queryable().noisy_count(0.06).is_err());
    }

    #[test]
    fn a_granted_analyst_keeps_the_grant_after_close() {
        let m = manager();
        m.analyst_budget("oz").grant(0.1);
        spend_and_close(&m, "oz", 0.35);
        assert!(!is_idle(&m, "oz"), "an idle book cannot hold the grant");
        let s = m.open("oz");
        assert!((s.snapshot().analyst_cap - 0.5).abs() < 1e-12);
        s.queryable().noisy_count(0.1).unwrap();
        assert!(s.queryable().noisy_count(0.1).is_err());
    }

    #[test]
    fn ledger_lists_idle_analysts_with_their_exact_spend() {
        let m = manager();
        spend_and_close(&m, "lea", 0.1);
        spend_and_close(&m, "lea", 0.2);
        spend_and_close(&m, "max", 0.3);
        let live = m.open("ned");
        live.queryable().noisy_count(0.05).unwrap();
        assert!(is_idle(&m, "lea") && is_idle(&m, "max"));
        let ledger = m.ledger();
        let names: Vec<&str> = ledger.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["lea", "max", "ned"]);
        assert_eq!(ledger[0].1.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(ledger[1].1, 0.3);
        assert_eq!(ledger[2].1, 0.05);
        // Reading the ledger revives no one.
        assert!(is_idle(&m, "lea") && is_idle(&m, "max"));
    }

    #[test]
    fn timed_release_drips_budget() {
        let acct = Accountant::new(0.1);
        let policy = TimedRelease::new(acct.clone(), 0.05, Some(0.3));
        acct.charge(0.1).unwrap();
        assert!(acct.charge(0.05).is_err());

        policy.advance_to(1);
        acct.charge(0.05).unwrap();

        // Jumping several epochs grants for each, up to the ceiling.
        policy.advance_to(10);
        assert!((acct.total() - 0.3).abs() < 1e-12, "total {}", acct.total());

        // Re-advancing to the past or present grants nothing.
        policy.advance_to(5);
        policy.advance_to(10);
        assert!((acct.total() - 0.3).abs() < 1e-12);
        assert_eq!(policy.epoch(), 10);
    }

    #[test]
    fn timed_release_without_ceiling_grows_unbounded() {
        let acct = Accountant::new(0.0);
        let policy = TimedRelease::new(acct.clone(), 1.0, None);
        policy.advance_to(100);
        assert!((acct.total() - 100.0).abs() < 1e-9);
    }
}

//! The admission layer between analyst sessions and the shared executor.
//!
//! One [`QueryBroker`] fronts one [`SessionManager`]: it tracks the live
//! sessions the daemon has opened, bounds how many analysis jobs run on
//! the shared worker pool at once (a `JobSlots` counting gate — the
//! `ExecPool` spawns scoped worker threads per job, so unbounded
//! admission under thousands of sessions would explode thread counts),
//! and converts every failure into a typed [`ServeError`]. The key
//! conversion is `pinq::Error::BudgetExceeded` → `budget_exhausted`: the
//! kernel's transactional refusal (nothing charged) becomes a graceful
//! wire response and the session stays open.

use crate::protocol::{ErrorKind, ServeError};
use dpnet_bench::registry;
use dpnet_bench::registry::AnalysisOutput;
use dpnet_trace::Packet;
use pinq::{Session, SessionManager, SessionSpend};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Broker tuning knobs.
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// Maximum analysis jobs running on the shared pool at once; further
    /// admitted queries wait for a slot. Connections, opens, spends, and
    /// pings are never gated — only query execution is.
    pub max_concurrent_jobs: usize,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            max_concurrent_jobs: 8,
        }
    }
}

/// A counting semaphore: a `std::sync` mutex-guarded count and a condvar.
struct JobSlots {
    free: Mutex<usize>,
    cv: Condvar,
}

impl JobSlots {
    fn new(n: usize) -> Self {
        JobSlots {
            free: Mutex::new(n.max(1)),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) -> SlotGuard<'_> {
        let mut free = self.free.lock().expect("job-slot mutex poisoned");
        while *free == 0 {
            free = self.cv.wait(free).expect("job-slot mutex poisoned");
        }
        *free -= 1;
        SlotGuard { slots: self }
    }
}

struct SlotGuard<'a> {
    slots: &'a JobSlots,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        let mut free = self.slots.free.lock().expect("job-slot mutex poisoned");
        *free += 1;
        self.slots.cv.notify_one();
    }
}

/// Tracks live sessions and schedules their queries onto the shared pool.
pub struct QueryBroker {
    manager: SessionManager<Packet>,
    sessions: Mutex<HashMap<u64, Arc<Session<Packet>>>>,
    slots: JobSlots,
}

impl QueryBroker {
    /// Wrap `manager` with admission control.
    pub fn new(manager: SessionManager<Packet>, cfg: BrokerConfig) -> Self {
        QueryBroker {
            manager,
            sessions: Mutex::new(HashMap::new()),
            slots: JobSlots::new(cfg.max_concurrent_jobs),
        }
    }

    /// The mediated session registry (owner-side monitoring).
    pub fn manager(&self) -> &SessionManager<Packet> {
        &self.manager
    }

    /// Open a session for `analyst` and register it as live.
    pub fn open(&self, analyst: &str) -> Arc<Session<Packet>> {
        let session = Arc::new(self.manager.open(analyst));
        self.sessions
            .lock()
            .expect("session map poisoned")
            .insert(session.id(), session.clone());
        session
    }

    /// Look a live session up by id.
    pub fn session(&self, id: u64) -> Result<Arc<Session<Packet>>, ServeError> {
        self.sessions
            .lock()
            .expect("session map poisoned")
            .get(&id)
            .cloned()
            .ok_or_else(|| {
                ServeError::new(
                    ErrorKind::SessionNotOpen,
                    format!("no open session with id {id}"),
                )
            })
    }

    /// Number of sessions currently registered as live.
    pub fn live_sessions(&self) -> usize {
        self.sessions.lock().expect("session map poisoned").len()
    }

    /// Run catalogue analysis `analysis` at `eps` through session `id`.
    /// Blocks for a job slot, then executes on the session's inherited
    /// execution context. Returns the released output plus the job's wall
    /// time in ns; every failure is a typed [`ServeError`] and never
    /// perturbs the session.
    pub fn query(
        &self,
        id: u64,
        analysis: &str,
        eps: f64,
    ) -> Result<(AnalysisOutput, u64), ServeError> {
        let session = self.session(id)?;
        let spec = registry::find(analysis).ok_or_else(|| {
            ServeError::new(
                ErrorKind::UnknownAnalysis,
                format!(
                    "no analysis named '{analysis}'; known: {}",
                    registry::names().join(", ")
                ),
            )
        })?;
        let _slot = self.slots.acquire();
        let start = Instant::now();
        match spec.run(session.queryable(), eps) {
            Ok(out) => Ok((out, start.elapsed().as_nanos() as u64)),
            Err(pinq::Error::BudgetExceeded {
                requested,
                available,
            }) => Err(ServeError::budget_exhausted(requested, available)),
            Err(other) => Err(ServeError::new(
                ErrorKind::InvalidRequest,
                format!("analysis rejected the request: {other}"),
            )),
        }
    }

    /// A point-in-time budget reading for session `id`.
    pub fn spend(&self, id: u64) -> Result<SessionSpend, ServeError> {
        Ok(self.session(id)?.snapshot())
    }

    /// Close session `id`: unregister it and return its final reading.
    pub fn close(&self, id: u64) -> Result<SessionSpend, ServeError> {
        let session = self
            .sessions
            .lock()
            .expect("session map poisoned")
            .remove(&id)
            .ok_or_else(|| {
                ServeError::new(
                    ErrorKind::SessionNotOpen,
                    format!("no open session with id {id}"),
                )
            })?;
        drop(session);
        self.manager.close(id).ok_or_else(|| {
            ServeError::new(
                ErrorKind::Internal,
                format!("session {id} vanished from the manager"),
            )
        })
    }

    /// The per-analyst ledger (name, ε spent), sorted by name.
    pub fn ledger(&self) -> Vec<(String, f64)> {
        self.manager.ledger()
    }

    /// The analysis catalogue as wire rows: `(name, summary, default ε)`.
    pub fn catalogue(&self) -> Vec<(String, String, f64)> {
        registry::REGISTRY
            .iter()
            .map(|a| (a.name.to_string(), a.summary.to_string(), a.default_eps))
            .collect()
    }
}

impl std::fmt::Debug for QueryBroker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryBroker")
            .field("live_sessions", &self.live_sessions())
            .field("global_spent", &self.manager.global().spent())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinq::NoiseSource;

    fn broker(global: f64, cap: f64) -> QueryBroker {
        let trace = crate::testdata::packets(500);
        let manager = SessionManager::new(trace, NoiseSource::seeded(42), global, cap);
        QueryBroker::new(manager, BrokerConfig::default())
    }

    #[test]
    fn queries_run_and_budget_refusals_are_typed() {
        let b = broker(10.0, 0.5);
        let s = b.open("alice");
        let (out, wall) = b.query(s.id(), "count", 0.25).expect("count runs");
        assert_eq!(out.values[0].0, "count");
        assert!(wall > 0);
        // Second query overdraws the analyst cap: typed refusal, session
        // alive, spend unchanged.
        let err = b.query(s.id(), "count", 0.5).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BudgetExhausted);
        assert_eq!(err.requested, Some(0.5));
        assert!((b.spend(s.id()).unwrap().session_spent - 0.25).abs() < 1e-12);
        // A cheaper request still succeeds afterwards.
        b.query(s.id(), "count", 0.125).expect("cheaper retry");
    }

    #[test]
    fn unknown_analyses_and_dead_sessions_are_typed() {
        let b = broker(10.0, 1.0);
        let s = b.open("bob");
        let err = b.query(s.id(), "warp-speed", 0.1).unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnknownAnalysis);
        let spend = b.close(s.id()).expect("close once");
        assert_eq!(spend.session_id, s.id());
        assert_eq!(
            b.query(s.id(), "count", 0.1).unwrap_err().kind,
            ErrorKind::SessionNotOpen
        );
        assert_eq!(b.close(s.id()).unwrap_err().kind, ErrorKind::SessionNotOpen);
    }

    #[test]
    fn job_slots_serialize_more_jobs_than_slots() {
        let trace = crate::testdata::packets(500);
        let manager = SessionManager::new(trace, NoiseSource::seeded(42), 100.0, 100.0);
        let b = Arc::new(QueryBroker::new(
            manager,
            BrokerConfig {
                max_concurrent_jobs: 2,
            },
        ));
        let ids: Vec<u64> = (0..8).map(|i| b.open(&format!("a{i}")).id()).collect();
        std::thread::scope(|scope| {
            for id in ids {
                let b = b.clone();
                scope.spawn(move || b.query(id, "count", 0.1).expect("gated query"));
            }
        });
        assert!((b.manager().global().spent() - 0.8).abs() < 1e-9);
    }
}

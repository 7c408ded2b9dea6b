//! What a closed session leaves behind in the owner's books.
//!
//! A counting global allocator tracks the bytes still allocated while
//! sessions with fresh analysts open, charge and close, configured as the
//! serving daemon runs them with an audit directory: the global and the
//! session accountants keep no spend log, because their sinks receive
//! every charge. The binary holds this one test, so no other test
//! allocates while it measures.

use pinq::{NoiseSource, SessionManager};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const EPS: f64 = 1.0 / 1024.0;

/// One session of a fresh analyst: open, one charge, drop, close.
fn session(m: &SessionManager<u32>, i: usize) {
    let s = m.open(&format!("analyst-{i}"));
    s.accountant().set_log_capacity(0);
    s.queryable().noisy_count(EPS).expect("affordable");
    let id = s.id();
    drop(s);
    m.close(id).expect("open");
}

#[test]
fn a_closed_session_leaves_at_most_160_bytes() {
    const WARM: usize = 100;
    const SESSIONS: usize = 10_000;
    let m = SessionManager::new((0..1000u32).collect(), NoiseSource::seeded(5), 1e6, 1.0);
    m.global().set_log_capacity(0);
    for i in 0..WARM {
        session(&m, i);
    }
    let before = LIVE.load(Ordering::Relaxed);
    for i in WARM..WARM + SESSIONS {
        session(&m, i);
    }
    let per_session = (LIVE.load(Ordering::Relaxed) - before) / SESSIONS as isize;
    assert!(
        per_session <= 160,
        "{per_session} B retained per closed session"
    );
    // The books stay exact: every analyst, idle or not, spent one EPS.
    let ledger = m.ledger();
    assert_eq!(ledger.len(), WARM + SESSIONS);
    assert!(ledger.iter().all(|(_, spent)| *spent == EPS));
    assert_eq!(m.global().spent(), (WARM + SESSIONS) as f64 * EPS);
    eprintln!("retained per closed session: {per_session} B");
}

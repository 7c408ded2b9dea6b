//! # dpnet-obs — observability for the privacy engine
//!
//! The paper's setting is *mediated* trace analysis: a data owner runs
//! analyses on behalf of researchers and must be able to see — and justify —
//! exactly what privacy budget was spent, by which operator, and when
//! (paper §2, §7). This crate is the substrate for that: hierarchical
//! [`span`]s (whose guards are the one timer every timed event draws on), a
//! pluggable [`EventSink`] for structured engine events, and a tiny JSON
//! layer for the owner-side JSONL audit export. Counting is left to the
//! consumer of the events: a run report folds them into exact
//! per-experiment counts. No external dependencies.
//!
//! ## The privacy-safety rule
//!
//! Observability must not become a side channel. Events may carry only:
//!
//! * **privacy metadata** — ε requested/charged, stability multipliers,
//!   operator names, charge paths, analysis labels, sequence numbers;
//! * **timings** — wall-clock durations and monotonic timestamps;
//! * **DP-released values** — numbers that already went through a noise
//!   mechanism and are safe to publish by definition.
//!
//! Never raw record counts or any other record-derived value. Fields that
//! break this rule (e.g. true input sizes, useful to the owner for capacity
//! planning) exist only under the `trusted-owner` cargo feature, which an
//! analyst-facing build must not enable. A unit test in `pinq` enforces
//! that the serialized form of every event type is free of such fields in
//! the default configuration.
//!
//! Timing side channels remain (as in any DP system that reports latency);
//! the owner controls whether events leave their machine at all.
//!
//! ## Wiring
//!
//! Sinks bind in two ways:
//!
//! * per-accountant, via `pinq::Accountant::set_sink` — scoped to one
//!   protected dataset/session;
//! * process-global, via [`set_global_sink`] — picked up by any accountant
//!   or queryable without an explicit sink, which is how the benchmark
//!   harness observes experiments without threading a handle through
//!   every constructor.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod event;
pub mod json;
pub mod sink;
pub mod span;
pub mod trace_export;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m`, going on past poisoning: a panic in another holder does not
/// make later locks fail. The one way this crate takes a lock.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

pub use clock::{now_ns, unix_time_s};
pub use event::{
    AggregateEvent, ChargeEvent, Event, ExecEvent, Outcome, PhaseEvent, PlanEvent, SessionEvent,
    TransformEvent,
};
pub use sink::{
    emit_phase_global, global_sink, set_global_sink, EventSink, JsonlSink, MemorySink, NullSink,
    SinkHandle,
};
pub use span::{
    attribution, install_recorder, profiling_enabled, uninstall_recorder, AttributionRow,
    CompletedSpan, SpanGuard, SpanMode, TraceRecorder,
};
pub use trace_export::{chrome_trace_json, write_chrome_trace, CounterSample};

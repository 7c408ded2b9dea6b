//! Event sinks: where structured engine events go.
//!
//! The engine emits through a [`SinkHandle`]; each handle can carry its own
//! sink (per-accountant scoping) and otherwise falls back to the process
//! [`global_sink`]. Event construction is lazy — a handle with no sink
//! bound anywhere costs one uncontended lock of its local slot and one
//! atomic load of the global one per [`SinkHandle::resolve`].

use crate::event::Event;
use crate::lock;
use crate::span::SpanGuard;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Receives structured engine events. Implementations must be cheap and
/// must never panic back into the engine.
pub trait EventSink: Send + Sync {
    /// Handle one event.
    fn emit(&self, event: &Event);
    /// Flush any buffered output (default: no-op).
    fn flush(&self) {}
}

/// Discards everything. Useful to explicitly silence a handle that would
/// otherwise fall back to the global sink.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&self, _event: &Event) {}
}

/// Buffers events in memory; the test and benchmark workhorse.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Copy of everything captured so far.
    pub fn events(&self) -> Vec<Event> {
        lock(&self.events).clone()
    }

    /// Number of captured events.
    pub fn len(&self) -> usize {
        lock(&self.events).len()
    }

    /// True when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all captured events.
    pub fn clear(&self) {
        lock(&self.events).clear();
    }

    /// Remove and return everything captured so far.
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut *lock(&self.events))
    }
}

impl EventSink for MemorySink {
    fn emit(&self, event: &Event) {
        lock(&self.events).push(event.clone());
    }
}

/// Writes each event as one JSON line to any `Write` target.
pub struct JsonlSink<W: std::io::Write + Send> {
    writer: Mutex<W>,
}

impl<W: std::io::Write + Send> JsonlSink<W> {
    /// Wrap a writer.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer: Mutex::new(writer),
        }
    }

    /// Consume the sink, returning the writer (flushed).
    pub fn into_inner(self) -> W {
        let mut w = self.writer.into_inner().unwrap_or_else(|p| p.into_inner());
        let _ = w.flush();
        w
    }
}

impl<W: std::io::Write + Send> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl<W: std::io::Write + Send> EventSink for JsonlSink<W> {
    fn emit(&self, event: &Event) {
        let mut w = lock(&self.writer);
        // Sinks must not panic back into the engine; a full disk becomes a
        // dropped event, not a failed analysis.
        let _ = writeln!(w, "{}", event.to_json());
    }

    fn flush(&self) {
        let _ = lock(&self.writer).flush();
    }
}

struct GlobalSink {
    sink: Mutex<Option<Arc<dyn EventSink>>>,
    bound: AtomicBool,
}

fn global() -> &'static GlobalSink {
    static GLOBAL: OnceLock<GlobalSink> = OnceLock::new();
    GLOBAL.get_or_init(|| GlobalSink {
        sink: Mutex::new(None),
        bound: AtomicBool::new(false),
    })
}

/// Install (or with `None`, remove) the process-wide fallback sink.
/// Returns the previously installed sink, if any.
pub fn set_global_sink(sink: Option<Arc<dyn EventSink>>) -> Option<Arc<dyn EventSink>> {
    let g = global();
    let mut slot = lock(&g.sink);
    g.bound.store(sink.is_some(), Ordering::Release);
    std::mem::replace(&mut *slot, sink)
}

/// Emit a [`crate::PhaseEvent`] to the global sink (no-op when none is
/// installed). The convenience path for analysis toolkits that want to
/// report named phases without threading a sink handle through their APIs;
/// `eps_spent` is the ε the phase charges *by construction* of the
/// algorithm (e.g. iterations × ε-per-iteration), and the wall time and
/// start timestamp are those of the phase's (timed) span.
pub fn emit_phase_global(name: &str, eps_spent: f64, span: &SpanGuard) {
    if let Some(sink) = global_sink() {
        sink.emit(&Event::Phase(crate::event::PhaseEvent {
            name: Arc::from(name),
            eps_spent,
            wall_ns: span.elapsed_ns(),
            at_ns: span.start_ns(),
        }));
    }
}

/// The currently installed global sink, if any.
pub fn global_sink() -> Option<Arc<dyn EventSink>> {
    let g = global();
    if !g.bound.load(Ordering::Acquire) {
        return None;
    }
    lock(&g.sink).clone()
}

/// An emission point: an optional local sink with global fallback.
///
/// Cloning shares the local binding (all clones see a later
/// [`SinkHandle::bind`]), which is how one accountant's sink covers every
/// queryable derived from it.
#[derive(Clone, Default)]
pub struct SinkHandle {
    local: Arc<Mutex<Option<Arc<dyn EventSink>>>>,
}

impl std::fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let bound = lock(&self.local).is_some();
        f.debug_struct("SinkHandle").field("bound", &bound).finish()
    }
}

impl SinkHandle {
    /// A handle with no local sink (global fallback only).
    pub fn new() -> Self {
        SinkHandle {
            local: Arc::new(Mutex::new(None)),
        }
    }

    /// Bind (or with `None`, unbind) this handle's local sink. Affects all
    /// clones of the handle.
    pub fn bind(&self, sink: Option<Arc<dyn EventSink>>) {
        *lock(&self.local) = sink;
    }

    /// Whether a local sink is bound (the process-wide fallback aside).
    pub fn is_bound(&self) -> bool {
        lock(&self.local).is_some()
    }

    /// The sink this handle currently resolves to: local first, then the
    /// process-wide fallback.
    pub fn resolve(&self) -> Option<Arc<dyn EventSink>> {
        if let Some(s) = lock(&self.local).clone() {
            return Some(s);
        }
        global_sink()
    }

    /// Emit an event built by `make` — which runs only if a sink is
    /// actually bound, so emission sites pay nothing when unobserved.
    pub fn emit(&self, make: impl FnOnce() -> Event) {
        if let Some(sink) = self.resolve() {
            sink.emit(&make());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PhaseEvent;

    fn phase(name: &str) -> Event {
        Event::Phase(PhaseEvent {
            name: Arc::from(name),
            eps_spent: 0.1,
            wall_ns: 5,
            at_ns: 1,
        })
    }

    #[test]
    fn memory_sink_captures_and_drains() {
        let sink = MemorySink::new();
        sink.emit(&phase("a"));
        sink.emit(&phase("b"));
        assert_eq!(sink.len(), 2);
        let drained = sink.drain();
        assert_eq!(drained.len(), 2);
        assert!(sink.is_empty());
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let sink = JsonlSink::new(Vec::new());
        sink.emit(&phase("x"));
        sink.emit(&phase("y"));
        let buf = sink.into_inner();
        let text = String::from_utf8(buf).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"x\""));
        assert!(lines[1].contains("\"name\":\"y\""));
    }

    #[test]
    fn handle_prefers_local_over_global() {
        // Note: global-sink tests share process state; this test only ever
        // *reads* the global slot while it is unset for this handle's path.
        let handle = SinkHandle::new();
        let local = Arc::new(MemorySink::new());
        handle.bind(Some(local.clone()));
        handle.emit(|| phase("local"));
        assert_eq!(local.len(), 1);
        handle.bind(None);
        // With no local and no global, the closure must not run.
        handle.emit(|| panic!("emitted with no sink bound"));
    }

    #[test]
    fn clones_share_the_binding() {
        let a = SinkHandle::new();
        let b = a.clone();
        let sink = Arc::new(MemorySink::new());
        a.bind(Some(sink.clone()));
        b.emit(|| phase("via-clone"));
        assert_eq!(sink.len(), 1);
    }
}

//! Structured engine events.
//!
//! One event per interesting engine action: a transformation derived a new
//! queryable, an aggregation ran (and either charged budget or was denied),
//! the accountant recorded a spend, or a toolkit phase completed. Every
//! field obeys the crate-level privacy-safety rule: privacy metadata,
//! timings, and DP-released values only. Data-dependent fields (true record
//! counts) compile in only under the `trusted-owner` feature.

use crate::json::JsonObj;
use std::sync::Arc;

/// How an aggregation request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Budget charged, value released.
    Ok,
    /// The accountant refused the charge (budget exhausted).
    Denied,
    /// The request was invalid (e.g. non-positive ε) and nothing charged.
    Invalid,
}

impl Outcome {
    /// Stable string form used in serialized events.
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Denied => "denied",
            Outcome::Invalid => "invalid",
        }
    }
}

/// A transformation produced a derived queryable.
#[derive(Debug, Clone)]
pub struct TransformEvent {
    /// Operator name, e.g. `"where"`, `"join"`, `"partition"`.
    pub operator: &'static str,
    /// Analysis label of the source queryable, if one was set.
    pub label: Option<Arc<str>>,
    /// Stability multiplier of the source.
    pub stability_in: f64,
    /// Stability multiplier of the derived queryable.
    pub stability_out: f64,
    /// Monotonic timestamp (ns since process clock epoch).
    pub at_ns: u64,
    /// True record count of the derived queryable. Data-dependent:
    /// owner-side builds only.
    #[cfg(feature = "trusted-owner")]
    pub output_records: u64,
}

/// An aggregation ran against the accountant.
#[derive(Debug, Clone)]
pub struct AggregateEvent {
    /// Operator name, e.g. `"noisy_count"`, `"noisy_median"`.
    pub operator: &'static str,
    /// Noise mechanism, e.g. `"laplace"`, `"exponential"`.
    pub mechanism: &'static str,
    /// Analysis label of the queryable, if one was set.
    pub label: Option<Arc<str>>,
    /// Stability multiplier in effect.
    pub stability: f64,
    /// ε the caller asked for.
    pub eps_requested: f64,
    /// ε actually charged (`stability × eps_requested` when `Ok`, else 0).
    pub eps_charged: f64,
    /// How the request ended.
    pub outcome: Outcome,
    /// The DP-released value, when the aggregation releases a single
    /// scalar. Already noised — safe to log by definition.
    pub released: Option<f64>,
    /// Wall time of the aggregation, ns.
    pub wall_ns: u64,
    /// When the aggregation started: its span's start (ns since process
    /// clock epoch).
    pub at_ns: u64,
    /// True input record count. Data-dependent: owner-side builds only.
    #[cfg(feature = "trusted-owner")]
    pub input_records: u64,
}

/// The accountant recorded a spend — the ledger's unit of provenance.
#[derive(Debug, Clone)]
pub struct ChargeEvent {
    /// Operator that initiated the charge.
    pub operator: Arc<str>,
    /// Charge path through the composition tree, e.g.
    /// `"scale(x2)/part[3]/root"`.
    pub path: Arc<str>,
    /// Analysis label, if one was set.
    pub label: Option<Arc<str>>,
    /// ε recorded against the accountant by this spend (for partitions,
    /// the max-of-parts *increase*).
    pub epsilon: f64,
    /// Cumulative ε spent after this charge.
    pub spent_after: f64,
    /// Ledger sequence number.
    pub sequence: u64,
    /// Monotonic timestamp (ns since process clock epoch).
    pub at_ns: u64,
}

/// A parallel kernel run finished on a worker pool.
///
/// Emitted once per pool-driven kernel invocation (chunked partition
/// construction, chunked sums, per-part fan-out) so that
/// speedups are observable per kernel. The worker count is analyst-chosen
/// configuration, not data; the task (chunk) count is derived from the
/// record count and therefore compiles in only under `trusted-owner`.
#[derive(Debug, Clone)]
pub struct ExecEvent {
    /// Kernel name, e.g. `"partition"`, `"noisy_sum"`, `"map_parts"`.
    pub kernel: &'static str,
    /// Worker threads the pool was configured with.
    pub workers: u64,
    /// Wall time from the start of the enclosing barrier's span to the end
    /// of the kernel run, ns.
    pub wall_ns: u64,
    /// When the enclosing barrier started: its span's start (ns since
    /// process clock epoch).
    pub at_ns: u64,
    /// Number of tasks (chunks) dispatched. Data-dependent: owner-side
    /// builds only.
    #[cfg(feature = "trusted-owner")]
    pub tasks: u64,
}

/// A lazy query plan materialized its fused pipeline.
///
/// Emitted once per *actual* materialization — memoized re-reads of an
/// already-forced plan emit nothing — so the number of `Plan` events is the
/// number of intermediate buffers the engine really allocated. The fusion
/// width (how many adjacent operators collapsed into the single pass) and
/// the worker count are analyst-chosen query structure, not data; the
/// true source/output record counts are data-dependent and compile in only
/// under `trusted-owner`.
#[derive(Debug, Clone)]
pub struct PlanEvent {
    /// Process-wide materialization ordinal (1-based): which actual
    /// materialization this was. Counts engine activity, not data — it
    /// lets an explain-analyze overlay report how many buffers a run
    /// allocated and how effectively operators fused into each.
    pub materialization: u64,
    /// Number of adjacent operators fused into the materialized pass.
    pub fused_stages: u64,
    /// Worker threads of the pool the forcing run used.
    pub workers: u64,
    /// Wall time of the materialization, ns.
    pub wall_ns: u64,
    /// When the materialization started: its span's start (ns since
    /// process clock epoch).
    pub at_ns: u64,
    /// True record count of the plan's source. Data-dependent: owner-side
    /// builds only.
    #[cfg(feature = "trusted-owner")]
    pub source_records: u64,
    /// True record count of the materialized output. Data-dependent:
    /// owner-side builds only.
    #[cfg(feature = "trusted-owner")]
    pub output_records: u64,
}

/// A named phase of a higher-level analysis finished.
#[derive(Debug, Clone)]
pub struct PhaseEvent {
    /// Phase name, e.g. `"cdf"`, `"kmeans/iter"`.
    pub name: Arc<str>,
    /// ε spent during the phase (difference of accountant readings).
    pub eps_spent: f64,
    /// Wall time of the phase, ns.
    pub wall_ns: u64,
    /// When the phase started: its span's start (ns since process clock
    /// epoch).
    pub at_ns: u64,
}

/// An analyst session opened or closed.
///
/// Emitted by the policy/serving layer, not the engine: sessions are the
/// unit of mediation (paper §7) and the owner audits their lifecycle the
/// same way they audit spends. Carries only the session's identity and its
/// budget reading — both owner-side policy metadata, never record data.
#[derive(Debug, Clone)]
pub struct SessionEvent {
    /// Process-unique session id assigned by the session manager.
    pub session_id: u64,
    /// Analyst the session belongs to.
    pub analyst: Arc<str>,
    /// `"opened"` or `"closed"`.
    pub action: &'static str,
    /// ε the session had spent when the event fired (0 at open).
    pub session_spent: f64,
    /// Monotonic timestamp (ns since process clock epoch).
    pub at_ns: u64,
}

/// Any engine event.
#[derive(Debug, Clone)]
pub enum Event {
    /// A transformation derived a queryable.
    Transform(TransformEvent),
    /// An aggregation ran.
    Aggregate(AggregateEvent),
    /// The accountant recorded a spend.
    Charge(ChargeEvent),
    /// An analysis phase finished.
    Phase(PhaseEvent),
    /// A parallel kernel run finished.
    Exec(ExecEvent),
    /// A lazy query plan materialized.
    Plan(PlanEvent),
    /// An analyst session opened or closed.
    Session(SessionEvent),
}

impl Event {
    /// The event's kind as a stable string (`"transform"`, `"aggregate"`,
    /// `"charge"`, `"phase"`, `"exec"`, `"plan"`, `"session"`).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Transform(_) => "transform",
            Event::Aggregate(_) => "aggregate",
            Event::Charge(_) => "charge",
            Event::Phase(_) => "phase",
            Event::Exec(_) => "exec",
            Event::Plan(_) => "plan",
            Event::Session(_) => "session",
        }
    }

    /// Serialize as one flat JSON object (one JSONL line, no trailing
    /// newline). This is the canonical wire form; the privacy test in
    /// `pinq` inspects exactly this output.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.field_str("type", self.kind());
        match self {
            Event::Transform(e) => {
                o.field_str("op", e.operator)
                    .field_opt_str("label", e.label.as_deref())
                    .field_f64("stability_in", e.stability_in)
                    .field_f64("stability_out", e.stability_out)
                    .field_u64("at_ns", e.at_ns);
                #[cfg(feature = "trusted-owner")]
                o.field_u64("output_records", e.output_records);
            }
            Event::Aggregate(e) => {
                o.field_str("op", e.operator)
                    .field_str("mechanism", e.mechanism)
                    .field_opt_str("label", e.label.as_deref())
                    .field_f64("stability", e.stability)
                    .field_f64("eps_requested", e.eps_requested)
                    .field_f64("eps_charged", e.eps_charged)
                    .field_str("outcome", e.outcome.as_str())
                    .field_opt_f64("released", e.released)
                    .field_u64("wall_ns", e.wall_ns)
                    .field_u64("at_ns", e.at_ns);
                #[cfg(feature = "trusted-owner")]
                o.field_u64("input_records", e.input_records);
            }
            Event::Charge(e) => {
                o.field_str("op", &e.operator)
                    .field_str("path", &e.path)
                    .field_opt_str("label", e.label.as_deref())
                    .field_f64("eps", e.epsilon)
                    .field_f64("spent_after", e.spent_after)
                    .field_u64("seq", e.sequence)
                    .field_u64("at_ns", e.at_ns);
            }
            Event::Phase(e) => {
                o.field_str("name", &e.name)
                    .field_f64("eps_spent", e.eps_spent)
                    .field_u64("wall_ns", e.wall_ns)
                    .field_u64("at_ns", e.at_ns);
            }
            Event::Exec(e) => {
                o.field_str("kernel", e.kernel)
                    .field_u64("workers", e.workers)
                    .field_u64("wall_ns", e.wall_ns)
                    .field_u64("at_ns", e.at_ns);
                #[cfg(feature = "trusted-owner")]
                o.field_u64("tasks", e.tasks);
            }
            Event::Plan(e) => {
                o.field_u64("materialization", e.materialization)
                    .field_u64("fused_stages", e.fused_stages)
                    .field_u64("workers", e.workers)
                    .field_u64("wall_ns", e.wall_ns)
                    .field_u64("at_ns", e.at_ns);
                #[cfg(feature = "trusted-owner")]
                o.field_u64("source_records", e.source_records)
                    .field_u64("output_records", e.output_records);
            }
            Event::Session(e) => {
                o.field_u64("session", e.session_id)
                    .field_str("analyst", &e.analyst)
                    .field_str("action", e.action)
                    .field_f64("session_spent", e.session_spent)
                    .field_u64("at_ns", e.at_ns);
            }
        }
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_value;

    fn sample_aggregate() -> AggregateEvent {
        AggregateEvent {
            operator: "noisy_count",
            mechanism: "laplace",
            label: Some(Arc::from("ports")),
            stability: 2.0,
            eps_requested: 0.1,
            eps_charged: 0.2,
            outcome: Outcome::Ok,
            released: Some(41.7),
            wall_ns: 1234,
            at_ns: 99,
            #[cfg(feature = "trusted-owner")]
            input_records: 1000,
        }
    }

    #[test]
    fn aggregate_serializes_flat() {
        let j = Event::Aggregate(sample_aggregate()).to_json();
        let m = parse_value(&j).expect("valid JSON");
        assert_eq!(m["type"].as_str(), Some("aggregate"));
        assert_eq!(m["op"].as_str(), Some("noisy_count"));
        assert_eq!(m["eps_charged"].as_f64(), Some(0.2));
        assert_eq!(m["outcome"].as_str(), Some("ok"));
        assert_eq!(m["released"].as_f64(), Some(41.7));
    }

    #[test]
    fn charge_serializes_flat() {
        let e = Event::Charge(ChargeEvent {
            operator: Arc::from("noisy_sum"),
            path: Arc::from("scale(x3)/root"),
            label: None,
            epsilon: 0.3,
            spent_after: 0.5,
            sequence: 4,
            at_ns: 11,
        });
        let m = parse_value(&e.to_json()).expect("valid JSON");
        assert_eq!(m["type"].as_str(), Some("charge"));
        assert_eq!(m["path"].as_str(), Some("scale(x3)/root"));
        assert_eq!(m["eps"].as_f64(), Some(0.3));
        assert!(m.get("label").is_none());
    }

    #[test]
    fn no_data_dependent_fields_without_trusted_owner() {
        // The privacy-safety rule, checked at the source: in the default
        // configuration, no serialized event mentions record counts.
        let t = Event::Transform(TransformEvent {
            operator: "where",
            label: None,
            stability_in: 1.0,
            stability_out: 1.0,
            at_ns: 20,
            #[cfg(feature = "trusted-owner")]
            output_records: 5,
        });
        let a = Event::Aggregate(sample_aggregate());
        for e in [t, a] {
            let j = e.to_json();
            if cfg!(feature = "trusted-owner") {
                continue;
            }
            assert!(!j.contains("records"), "data-dependent field in {j}");
        }
        let x = Event::Exec(ExecEvent {
            kernel: "partition",
            workers: 4,
            wall_ns: 5,
            at_ns: 6,
            #[cfg(feature = "trusted-owner")]
            tasks: 13,
        });
        let j = x.to_json();
        if !cfg!(feature = "trusted-owner") {
            assert!(!j.contains("tasks"), "data-dependent field in {j}");
        }
        let p = Event::Plan(PlanEvent {
            materialization: 1,
            fused_stages: 3,
            workers: 4,
            wall_ns: 9,
            at_ns: 10,
            #[cfg(feature = "trusted-owner")]
            source_records: 1000,
            #[cfg(feature = "trusted-owner")]
            output_records: 500,
        });
        let j = p.to_json();
        if !cfg!(feature = "trusted-owner") {
            assert!(!j.contains("records"), "data-dependent field in {j}");
        }
    }

    #[test]
    fn plan_serializes_flat() {
        let e = Event::Plan(PlanEvent {
            materialization: 4,
            fused_stages: 2,
            workers: 1,
            wall_ns: 321,
            at_ns: 7,
            #[cfg(feature = "trusted-owner")]
            source_records: 10,
            #[cfg(feature = "trusted-owner")]
            output_records: 4,
        });
        let m = parse_value(&e.to_json()).expect("valid JSON");
        assert_eq!(m["type"].as_str(), Some("plan"));
        assert_eq!(m["materialization"].as_f64(), Some(4.0));
        assert_eq!(m["fused_stages"].as_f64(), Some(2.0));
        assert_eq!(m["workers"].as_f64(), Some(1.0));
    }

    #[test]
    fn exec_serializes_flat() {
        let e = Event::Exec(ExecEvent {
            kernel: "noisy_sum",
            workers: 8,
            wall_ns: 777,
            at_ns: 42,
            #[cfg(feature = "trusted-owner")]
            tasks: 3,
        });
        let m = parse_value(&e.to_json()).expect("valid JSON");
        assert_eq!(m["type"].as_str(), Some("exec"));
        assert_eq!(m["kernel"].as_str(), Some("noisy_sum"));
        assert_eq!(m["workers"].as_f64(), Some(8.0));
        assert_eq!(m["wall_ns"].as_f64(), Some(777.0));
    }
}

//! EXPLAIN / EXPLAIN ANALYZE: plan and privacy-cost introspection.
//!
//! The paper's central contract is that an analysis' privacy cost is
//! determined *structurally* — stability multipliers, sequential
//! composition, max-of-parts partitions — before any data is touched
//! (paper §2, Table 1). This module makes that structure a first-class,
//! inspectable artifact:
//!
//! * [`Queryable::explain`](crate::Queryable::explain) snapshots one
//!   pipeline into an [`ExplainTree`] — its operator lineage (with fusion
//!   boundaries and the stability multiplier at each edge), the charge DAG
//!   as a kernel [`KernelState`] (the live DAG compiled node for node,
//!   with each root's budget and each ledger's whole book), and the
//!   per-root ε a pending aggregation *would* charge, priced by
//!   [`model::predict`] on that state. Side-effect-free: nothing is spent,
//!   nothing materializes.
//! * An [`ExplainRecorder`], installed process-wide like the span
//!   profiler, watches a real run and folds every aggregation's charge
//!   into an [`ExplainReport`]: per-aggregation and per-charge-path
//!   predicted ε. The per-root deltas are captured *inside* the charge
//!   walk, under the partition-ledger lock, so they agree exactly with
//!   [`Accountant::path_totals`](crate::Accountant::path_totals) even when
//!   pool workers charge concurrently.
//! * An "analyze" [`Overlay`] layers measured reality — net ε per path
//!   from the accountant ledger, span self-times, plan materialization
//!   counts — onto the same report.
//!
//! All three render as a text tree, Graphviz DOT, and JSON. Everything
//! here is privacy metadata (operator names, stability factors, ε
//! arithmetic, timings): safe to show an analyst, and exactly what a data
//! owner needs to audit a mediated session.

use crate::kernel::model::{self, KernelState, NodeId, NodeSpec};
use crate::lock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

// ---------------------------------------------------------------------
// Operator lineage
// ---------------------------------------------------------------------

/// One operator in a queryable's lineage: how the handle the analyst holds
/// was derived. Pure plan metadata — never data.
#[derive(Debug)]
pub struct OpNode {
    /// Operator name (`"source"`, `"filter"`, `"group_by"`, …).
    pub op: &'static str,
    /// Cumulative stability *after* this operator.
    pub stability: f64,
    /// Whether the operator fuses onto the pending lazy plan instead of
    /// materializing (a fusion boundary sits between a fused node and its
    /// first non-fused descendant).
    pub fused: bool,
    /// Operator-specific annotation (e.g. `"bound=4"` for `select_many`).
    pub detail: Option<String>,
    /// The operator's input lineage(s); empty for `source`.
    pub inputs: Vec<Arc<OpNode>>,
}

impl OpNode {
    /// A source node: the data owner's `Queryable::new`.
    pub(crate) fn source(detail: Option<String>) -> Arc<OpNode> {
        Arc::new(OpNode {
            op: "source",
            stability: 1.0,
            fused: false,
            detail,
            inputs: Vec::new(),
        })
    }

    /// A derived node with one input.
    pub(crate) fn derived(
        op: &'static str,
        stability: f64,
        fused: bool,
        detail: Option<String>,
        input: Arc<OpNode>,
    ) -> Arc<OpNode> {
        Arc::new(OpNode {
            op,
            stability,
            fused,
            detail,
            inputs: vec![input],
        })
    }

    /// A derived node combining two inputs (`join`, `concat`, `intersect`).
    pub(crate) fn combined(op: &'static str, left: Arc<OpNode>, right: Arc<OpNode>) -> Arc<OpNode> {
        Arc::new(OpNode {
            op,
            stability: 1.0,
            fused: false,
            detail: None,
            inputs: vec![left, right],
        })
    }

    fn label(&self) -> String {
        let mut s = format!("{} (x{}", self.op, self.stability);
        if self.fused {
            s.push_str(", fused");
        }
        s.push(')');
        if let Some(d) = &self.detail {
            s.push_str(&format!(" [{d}]"));
        }
        s
    }

    fn render_text_into(&self, indent: usize, out: &mut String) {
        out.push_str(&format!("{}{}\n", "  ".repeat(indent), self.label()));
        for input in &self.inputs {
            input.render_text_into(indent + 1, out);
        }
    }

    fn to_json_value(&self) -> String {
        use dpnet_obs::json::{escape, number};
        let inputs: Vec<String> = self.inputs.iter().map(|i| i.to_json_value()).collect();
        let detail = match &self.detail {
            Some(d) => escape(d),
            None => "null".to_string(),
        };
        format!(
            "{{\"op\":{},\"stability\":{},\"fused\":{},\"detail\":{},\"inputs\":[{}]}}",
            escape(self.op),
            number(self.stability),
            self.fused,
            detail,
            inputs.join(",")
        )
    }
}

// ---------------------------------------------------------------------
// Per-queryable snapshot
// ---------------------------------------------------------------------

/// A side-effect-free snapshot of one queryable pipeline: operator
/// lineage, fusion state, the charge DAG as a kernel state, and the
/// arithmetic to predict what any pending aggregation would cost. Produced
/// by [`Queryable::explain`](crate::Queryable::explain).
#[derive(Debug)]
pub struct ExplainTree {
    /// The queryable's analysis label, if one was set.
    pub label: Option<String>,
    /// The queryable's cumulative stability multiplier.
    pub stability: f64,
    /// Stages pending in the unfused lazy plan (0 when materialized).
    pub pending_fused: usize,
    /// Whether the record buffer already exists (forcing would be free).
    pub materialized: bool,
    /// The operator lineage from this handle back to its source(s).
    pub lineage: Arc<OpNode>,
    /// The charge DAG from this handle to its budget root(s), with the
    /// budgets and ledger books at snapshot time.
    pub charge: KernelState,
    /// The node of [`ExplainTree::charge`] this handle charges through.
    pub node: NodeId,
}

impl ExplainTree {
    /// The per-root `(full_path, ε)` deltas an aggregation at analyst
    /// accuracy `eps` would charge right now: `stability × eps` pushed
    /// through the snapshot by [`model::predict`], the kernel's own walk,
    /// so a static EXPLAIN cannot drift from the engine. Pure arithmetic.
    pub fn predict(&self, eps: f64) -> Vec<(String, f64)> {
        model::predict(&self.charge, self.node, self.stability * eps)
            .into_iter()
            .map(|d| (d.path, d.eps))
            .collect()
    }

    /// Render as an indented text tree: plan lineage first (sink at the
    /// top, sources at the deepest indent), then the charge DAG.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "queryable{}  stability x{}  pending fused stages {}  materialized {}\n",
            self.label
                .as_deref()
                .map(|l| format!(" \"{l}\""))
                .unwrap_or_default(),
            self.stability,
            self.pending_fused,
            self.materialized
        ));
        out.push_str("plan:\n");
        self.lineage.render_text_into(1, &mut out);
        out.push_str("charge:\n");
        self.charge_text_into(self.node, 1, &mut out);
        out
    }

    fn charge_text_into(&self, node: NodeId, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        match &self.charge.nodes[node.0] {
            NodeSpec::Root(root) => {
                let b = self.charge.roots[root.0];
                out.push_str(&format!(
                    "{pad}root  [spent {:.6} of {:.6}]\n",
                    b.spent, b.total
                ));
            }
            NodeSpec::Scaled { parent, factor } => {
                out.push_str(&format!("{pad}scale(x{factor})\n"));
                self.charge_text_into(*parent, indent + 1, out);
            }
            NodeSpec::Combined(parents) => {
                out.push_str(&format!("{pad}combined ({} inputs)\n", parents.len()));
                for (i, p) in parents.iter().enumerate() {
                    out.push_str(&format!("{pad}  in[{i}]:\n"));
                    self.charge_text_into(*p, indent + 2, out);
                }
            }
            NodeSpec::Part { ledger, index } => {
                let l = &self.charge.ledgers[ledger.0];
                out.push_str(&format!(
                    "{pad}part[{index}] of {}  [part ε {:.6}, max ε {:.6}]\n",
                    l.book.spends.len(),
                    l.book.part_spent(*index),
                    l.book.max
                ));
                self.charge_text_into(l.parent, indent + 1, out);
            }
        }
    }

    fn charge_json(&self, node: NodeId) -> String {
        use dpnet_obs::json::number;
        match &self.charge.nodes[node.0] {
            NodeSpec::Root(root) => {
                let b = self.charge.roots[root.0];
                format!(
                    "{{\"kind\":\"root\",\"spent\":{},\"total\":{}}}",
                    number(b.spent),
                    number(b.total)
                )
            }
            NodeSpec::Scaled { parent, factor } => format!(
                "{{\"kind\":\"scale\",\"factor\":{},\"child\":{}}}",
                number(*factor),
                self.charge_json(*parent)
            ),
            NodeSpec::Combined(parents) => {
                let inner: Vec<String> = parents.iter().map(|p| self.charge_json(*p)).collect();
                format!("{{\"kind\":\"combined\",\"inputs\":[{}]}}", inner.join(","))
            }
            NodeSpec::Part { ledger, index } => {
                let l = &self.charge.ledgers[ledger.0];
                format!(
                    "{{\"kind\":\"part\",\"index\":{index},\"parts\":{},\"part_eps\":{},\"max_eps\":{},\"child\":{}}}",
                    l.book.spends.len(),
                    number(l.book.part_spent(*index)),
                    number(l.book.max),
                    self.charge_json(l.parent)
                )
            }
        }
    }

    /// Render as a Graphviz DOT digraph: plan nodes (fused stages dashed),
    /// plan edges labeled with stability, charge nodes as boxes.
    pub fn render_dot(&self) -> String {
        let mut out = String::from("digraph explain {\n  rankdir=BT;\n");
        let mut next_id = 0usize;
        fn walk_ops(node: &OpNode, next_id: &mut usize, out: &mut String) -> usize {
            let id = *next_id;
            *next_id += 1;
            let style = if node.fused { ",style=dashed" } else { "" };
            out.push_str(&format!(
                "  op{id} [label=\"{}\"{style}];\n",
                dot_escape(&node.label())
            ));
            for input in &node.inputs {
                let child = walk_ops(input, next_id, out);
                out.push_str(&format!("  op{child} -> op{id};\n"));
            }
            id
        }
        fn walk_charge(
            st: &KernelState,
            node: NodeId,
            next_id: &mut usize,
            out: &mut String,
        ) -> usize {
            let id = *next_id;
            *next_id += 1;
            let (label, children) = match &st.nodes[node.0] {
                NodeSpec::Root(root) => {
                    let b = st.roots[root.0];
                    (format!("root\nspent {:.6}/{:.6}", b.spent, b.total), vec![])
                }
                NodeSpec::Scaled { parent, factor } => (format!("scale(x{factor})"), vec![*parent]),
                NodeSpec::Combined(parents) => ("combined".to_string(), parents.clone()),
                NodeSpec::Part { ledger, index } => {
                    let l = &st.ledgers[ledger.0];
                    let label = format!(
                        "part[{index}] of {}\npart ε {:.6}\nmax ε {:.6}",
                        l.book.spends.len(),
                        l.book.part_spent(*index),
                        l.book.max
                    );
                    (label, vec![l.parent])
                }
            };
            out.push_str(&format!(
                "  charge{id} [shape=box,label=\"{}\"];\n",
                dot_escape(&label)
            ));
            for c in children {
                let child = walk_charge(st, c, next_id, out);
                out.push_str(&format!("  charge{id} -> charge{child};\n"));
            }
            id
        }
        let sink = walk_ops(&self.lineage, &mut next_id, &mut out);
        let charge_root = walk_charge(&self.charge, self.node, &mut next_id, &mut out);
        out.push_str(&format!(
            "  op{sink} -> charge{charge_root} [style=dotted,label=\"x{}\"];\n",
            self.stability
        ));
        out.push_str("}\n");
        out
    }

    /// Render as JSON (nested plan + charge objects).
    pub fn to_json(&self) -> String {
        use dpnet_obs::json::{escape, number};
        let label = match &self.label {
            Some(l) => escape(l),
            None => "null".to_string(),
        };
        format!(
            "{{\"label\":{label},\"stability\":{},\"pending_fused\":{},\"materialized\":{},\"plan\":{},\"charge\":{}}}",
            number(self.stability),
            self.pending_fused,
            self.materialized,
            self.lineage.to_json_value(),
            self.charge_json(self.node)
        )
    }
}

/// Escape a string for use inside a DOT double-quoted label: backslashes
/// and quotes are escaped, newlines become the two-character sequence
/// `\n`, carriage returns are dropped.
pub fn dot_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => {}
            c => out.push(c),
        }
    }
    out
}

/// Collapse partition indices in a charge path so sibling parts fold
/// together: every `part[<digits>]` segment becomes `part[*]`.
/// `"part[3]/scale(x2)/root"` → `"part[*]/scale(x2)/root"`.
pub fn normalize_path(path: &str) -> String {
    let mut out = String::with_capacity(path.len());
    let mut rest = path;
    while let Some(pos) = rest.find("part[") {
        let after = &rest[pos + 5..];
        let digits = after.chars().take_while(|c| c.is_ascii_digit()).count();
        if digits > 0 && after[digits..].starts_with(']') {
            out.push_str(&rest[..pos]);
            out.push_str("part[*]");
            rest = &after[digits + 1..];
        } else {
            out.push_str(&rest[..pos + 5]);
            rest = after;
        }
    }
    out.push_str(rest);
    out
}

// ---------------------------------------------------------------------
// Run-wide recorder
// ---------------------------------------------------------------------

/// The report's records, kept sorted by their keys as they fold.
#[derive(Debug, Default)]
struct RecorderState {
    /// Keyed by (operator, normalized charge path).
    aggregations: BTreeMap<(String, String), AggRecord>,
    /// Normalized root paths, folded across sibling parts.
    paths: BTreeMap<String, PathRecord>,
    /// Exact root paths, one entry per distinct part.
    full_paths: BTreeMap<String, PathRecord>,
}

/// Fold one walk of `path` that landed `delta` into `paths`.
fn fold_path(paths: &mut BTreeMap<String, PathRecord>, path: String, delta: f64) {
    let p = paths.entry(path).or_insert_with_key(|path| PathRecord {
        path: path.clone(),
        calls: 0,
        predicted_eps: 0.0,
    });
    p.calls += 1;
    p.predicted_eps += delta;
}

/// Observes every aggregation charge in a real run and folds it into an
/// [`ExplainReport`]. Install process-wide with
/// [`install_explain_recorder`]; while installed, `Queryable` aggregations
/// charge through the traced walk, which captures the per-root ε deltas
/// under the partition-ledger lock — so the recorded "predicted" ε per
/// path is exactly what the accountants applied, even with pool workers
/// charging concurrently.
#[derive(Debug, Default)]
pub struct ExplainRecorder {
    state: Mutex<RecorderState>,
}

impl ExplainRecorder {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one successful aggregation charge into the recorder.
    /// `describe` is the static charge path of the charging queryable,
    /// `requested` the ε offered at its charge node (stability × analyst
    /// ε), and `trace` the per-root `(full_path, δ)` deltas the walk
    /// applied.
    pub(crate) fn record(
        &self,
        operator: &str,
        describe: &str,
        requested: f64,
        trace: &[(String, f64)],
    ) {
        let predicted: f64 = trace.iter().map(|(_, d)| d).sum();
        let mut st = lock(&self.state);
        let agg = st
            .aggregations
            .entry((operator.to_string(), normalize_path(describe)))
            .or_insert_with_key(|(operator, path)| AggRecord {
                operator: operator.clone(),
                path: path.clone(),
                calls: 0,
                requested_eps: 0.0,
                predicted_eps: 0.0,
            });
        agg.calls += 1;
        agg.requested_eps += requested;
        agg.predicted_eps += predicted;
        for (path, delta) in trace {
            fold_path(&mut st.full_paths, path.clone(), *delta);
            fold_path(&mut st.paths, normalize_path(path), *delta);
        }
    }

    /// Drop everything recorded so far.
    pub fn clear(&self) {
        *lock(&self.state) = RecorderState::default();
    }

    /// Snapshot the recorded aggregations into a report.
    pub fn report(&self) -> ExplainReport {
        let st = lock(&self.state);
        ExplainReport {
            title: String::new(),
            aggregations: st.aggregations.values().cloned().collect(),
            paths: st.paths.values().cloned().collect(),
            full_paths: st.full_paths.values().cloned().collect(),
        }
    }
}

/// One aggregation site in an [`ExplainReport`]: an operator charging
/// through one (part-normalized) charge path.
#[derive(Debug, Clone, PartialEq)]
pub struct AggRecord {
    /// Aggregation operator name (`"noisy_count"`, …).
    pub operator: String,
    /// Normalized static charge path of the charging queryable.
    pub path: String,
    /// Number of successful charges folded in.
    pub calls: u64,
    /// Total ε offered at the charge node (stability × analyst ε).
    pub requested_eps: f64,
    /// Total ε predicted to reach budget roots (after max-of-parts).
    pub predicted_eps: f64,
}

/// One charge path in an [`ExplainReport`] with its call count and
/// predicted root-ε total.
#[derive(Debug, Clone, PartialEq)]
pub struct PathRecord {
    /// The root charge path (normalized or exact, per the containing list).
    pub path: String,
    /// Charges that walked this path (zero-delta walks included).
    pub calls: u64,
    /// Total ε predicted to land on the root through this path.
    pub predicted_eps: f64,
}

/// Measured reality for EXPLAIN ANALYZE, folded from a profiled run: net
/// ε per normalized path and per aggregation site (from accountant charge
/// events), span self-time per operator, and plan materialization stats.
#[derive(Debug, Default, Clone)]
pub struct Overlay {
    /// Net measured ε per *normalized* charge path.
    pub measured_paths: BTreeMap<String, f64>,
    /// Net measured ε per (operator, normalized path) aggregation site.
    pub measured_aggs: BTreeMap<(String, String), f64>,
    /// Span self-time (ns) per operator name.
    pub self_ns: BTreeMap<String, u64>,
    /// Number of actual plan materializations observed.
    pub materializations: u64,
    /// The largest fused-stage count among observed materializations.
    pub max_fused_stages: u64,
    /// Wall time of the analyzed run (ns).
    pub wall_ns: u64,
}

/// The folded result of watching a run with an [`ExplainRecorder`]:
/// per-aggregation and per-charge-path predicted ε, optionally overlaid
/// with measured reality. Renders as text, DOT, or JSON.
#[derive(Debug, Clone, Default)]
pub struct ExplainReport {
    /// Display title (e.g. the experiment id).
    pub title: String,
    /// Aggregation sites, sorted by (operator, path).
    pub aggregations: Vec<AggRecord>,
    /// Normalized charge paths, sorted; sibling parts folded together, so
    /// each value is order-independent even under concurrent charges.
    pub paths: Vec<PathRecord>,
    /// Exact charge paths (one per distinct part), sorted.
    pub full_paths: Vec<PathRecord>,
}

impl ExplainReport {
    /// Total predicted ε across all root paths.
    pub fn predicted_total(&self) -> f64 {
        self.paths.iter().map(|p| p.predicted_eps).sum()
    }

    /// Render as a text tree: the charge-path tree (root at the top) with
    /// predicted ε per path, then one line per aggregation site. With an
    /// overlay, every path carries measured ε and every aggregation line
    /// carries measured ε and span self-time.
    pub fn render_text(&self, overlay: Option<&Overlay>) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "=== explain{}{} ===\n",
            if self.title.is_empty() { "" } else { ": " },
            self.title
        ));
        out.push_str("charge paths (root at top, sibling parts folded):\n");
        // Build a tree from root-first segment lists.
        #[derive(Default)]
        struct Node {
            children: BTreeMap<String, Node>,
            record: Option<(u64, f64)>,
            path: String,
        }
        let mut root = Node::default();
        for p in &self.paths {
            let mut cursor = &mut root;
            for seg in p.path.split('/').rev() {
                cursor = cursor.children.entry(seg.to_string()).or_default();
            }
            cursor.record = Some((p.calls, p.predicted_eps));
            cursor.path = p.path.clone();
        }
        fn render(
            node: &Node,
            name: &str,
            indent: usize,
            overlay: Option<&Overlay>,
            out: &mut String,
        ) {
            if !name.is_empty() {
                let mut line = format!("{}{name}", "  ".repeat(indent));
                if let Some((calls, eps)) = node.record {
                    line.push_str(&format!("  calls {calls}  predicted ε {eps:.6}"));
                    if let Some(ov) = overlay {
                        if let Some(measured) = ov.measured_paths.get(&node.path) {
                            line.push_str(&format!("  measured ε {measured:.6}"));
                        }
                    }
                }
                line.push('\n');
                out.push_str(&line);
            }
            for (child_name, child) in &node.children {
                render(child, child_name, indent + 1, overlay, out);
            }
        }
        render(&root, "", 0, overlay, &mut out);
        out.push_str("aggregations:\n");
        for a in &self.aggregations {
            let mut line = format!(
                "  {} @ {}  calls {}  requested ε {:.6}  predicted ε {:.6}",
                a.operator, a.path, a.calls, a.requested_eps, a.predicted_eps
            );
            if let Some(ov) = overlay {
                if let Some(measured) = ov.measured_aggs.get(&(a.operator.clone(), a.path.clone()))
                {
                    line.push_str(&format!("  measured ε {measured:.6}"));
                }
                if let Some(self_ns) = ov.self_ns.get(&a.operator) {
                    line.push_str(&format!("  self {:.3}ms", *self_ns as f64 / 1e6));
                }
            }
            line.push('\n');
            out.push_str(&line);
        }
        if let Some(ov) = overlay {
            out.push_str(&format!(
                "analyze: wall {:.3}ms, {} plan materializations (max {} fused stages)\n",
                ov.wall_ns as f64 / 1e6,
                ov.materializations,
                ov.max_fused_stages
            ));
        }
        out
    }

    /// Render as a Graphviz DOT digraph of the normalized charge-path tree
    /// with aggregation sites attached; labels are DOT-escaped.
    pub fn render_dot(&self, overlay: Option<&Overlay>) -> String {
        let mut out = String::from("digraph explain {\n  rankdir=BT;\n");
        if !self.title.is_empty() {
            out.push_str(&format!(
                "  label=\"explain: {}\";\n  labelloc=t;\n",
                dot_escape(&self.title)
            ));
        }
        // One node per normalized path prefix, root-first.
        let mut ids: BTreeMap<String, usize> = BTreeMap::new();
        let mut next = 0usize;
        let mut id_of = |key: &str, ids: &mut BTreeMap<String, usize>| -> (usize, bool) {
            if let Some(&id) = ids.get(key) {
                (id, false)
            } else {
                let id = next;
                next += 1;
                ids.insert(key.to_string(), id);
                (id, true)
            }
        };
        for p in &self.paths {
            let segs: Vec<&str> = p.path.split('/').rev().collect();
            let mut prefix = String::new();
            let mut parent: Option<usize> = None;
            for (i, seg) in segs.iter().enumerate() {
                if !prefix.is_empty() {
                    prefix.push('/');
                }
                prefix.push_str(seg);
                let (id, fresh) = id_of(&prefix, &mut ids);
                if fresh {
                    let mut label = seg.to_string();
                    if i == segs.len() - 1 {
                        label.push_str(&format!("\npredicted ε {:.6}", p.predicted_eps));
                        if let Some(ov) = overlay {
                            if let Some(m) = ov.measured_paths.get(&p.path) {
                                label.push_str(&format!("\nmeasured ε {m:.6}"));
                            }
                        }
                    }
                    out.push_str(&format!(
                        "  n{id} [shape=box,label=\"{}\"];\n",
                        dot_escape(&label)
                    ));
                    if let Some(pid) = parent {
                        out.push_str(&format!("  n{id} -> n{pid};\n"));
                    }
                }
                parent = Some(id);
            }
        }
        for (i, a) in self.aggregations.iter().enumerate() {
            let mut label = format!(
                "{}\ncalls {}\npredicted ε {:.6}",
                a.operator, a.calls, a.predicted_eps
            );
            if let Some(ov) = overlay {
                if let Some(self_ns) = ov.self_ns.get(&a.operator) {
                    label.push_str(&format!("\nself {:.3}ms", *self_ns as f64 / 1e6));
                }
            }
            out.push_str(&format!("  agg{i} [label=\"{}\"];\n", dot_escape(&label)));
            // Attach to the leaf node of the aggregation's path, if present.
            let key: String = a.path.split('/').rev().collect::<Vec<_>>().join("/");
            if let Some(&leaf) = ids.get(&key) {
                out.push_str(&format!("  agg{i} -> n{leaf} [style=dotted];\n"));
            }
        }
        out.push_str("}\n");
        out
    }

    /// Render as JSON. Objects inside the arrays are flat (scalar fields
    /// only), so line-oriented or flat-object parsers can consume them.
    /// With an overlay, aggregation objects gain `measured_eps` and
    /// `self_ns`, path objects gain `measured_eps`, and a top-level
    /// `analyze` summary object is appended.
    pub fn to_json(&self, overlay: Option<&Overlay>) -> String {
        use dpnet_obs::json::JsonObj;
        let aggs: Vec<String> = self
            .aggregations
            .iter()
            .map(|a| {
                let mut o = JsonObj::new();
                o.field_str("operator", &a.operator)
                    .field_str("path", &a.path)
                    .field_u64("calls", a.calls)
                    .field_f64("requested_eps", a.requested_eps)
                    .field_f64("predicted_eps", a.predicted_eps);
                if let Some(ov) = overlay {
                    if let Some(m) = ov.measured_aggs.get(&(a.operator.clone(), a.path.clone())) {
                        o.field_f64("measured_eps", *m);
                    }
                    if let Some(s) = ov.self_ns.get(&a.operator) {
                        o.field_u64("self_ns", *s);
                    }
                }
                o.finish()
            })
            .collect();
        let paths: Vec<String> = self
            .paths
            .iter()
            .map(|p| {
                let mut o = JsonObj::new();
                o.field_str("path", &p.path)
                    .field_u64("calls", p.calls)
                    .field_f64("predicted_eps", p.predicted_eps);
                if let Some(ov) = overlay {
                    if let Some(m) = ov.measured_paths.get(&p.path) {
                        o.field_f64("measured_eps", *m);
                    }
                }
                o.finish()
            })
            .collect();
        let mut out = format!(
            "{{\"explain\":{},\"predicted_total\":{},\"aggregations\":[{}],\"paths\":[{}]",
            dpnet_obs::json::escape(&self.title),
            dpnet_obs::json::number(self.predicted_total()),
            aggs.join(","),
            paths.join(",")
        );
        if let Some(ov) = overlay {
            let mut o = JsonObj::new();
            o.field_u64("wall_ns", ov.wall_ns)
                .field_u64("materializations", ov.materializations)
                .field_u64("max_fused_stages", ov.max_fused_stages);
            out.push_str(&format!(",\"analyze\":{}", o.finish()));
        }
        out.push('}');
        out
    }
}

// ---------------------------------------------------------------------
// Process-wide recorder registry (mirrors the span profiler's)
// ---------------------------------------------------------------------

#[derive(Default)]
struct Registry {
    enabled: AtomicBool,
    recorder: Mutex<Option<Arc<ExplainRecorder>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Install `rec` as the process-wide explain recorder, returning the one
/// it replaced (if any). While installed, every successful `Queryable`
/// aggregation charge is folded into it.
pub fn install_explain_recorder(rec: Arc<ExplainRecorder>) -> Option<Arc<ExplainRecorder>> {
    let reg = registry();
    let old = lock(&reg.recorder).replace(rec);
    reg.enabled.store(true, Ordering::Release);
    old
}

/// Remove the process-wide explain recorder, returning it (if any).
pub fn uninstall_explain_recorder() -> Option<Arc<ExplainRecorder>> {
    let reg = registry();
    reg.enabled.store(false, Ordering::Release);
    lock(&reg.recorder).take()
}

/// Whether an explain recorder is currently installed. One relaxed atomic
/// load: the answer is advisory (used to skip tracing work early).
pub fn explain_enabled() -> bool {
    registry().enabled.load(Ordering::Relaxed)
}

/// The installed recorder, if any (cheap clone of an `Arc`).
pub(crate) fn recorder() -> Option<Arc<ExplainRecorder>> {
    if !explain_enabled() {
        return None;
    }
    lock(&registry().recorder).clone()
}

/// Serializes tests (crate-wide) that install the process-wide recorder.
#[cfg(test)]
pub(crate) fn test_global_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    lock(&GUARD)
}

#[cfg(test)]
mod tests {
    use super::test_global_guard as global_guard;
    use super::*;

    #[test]
    fn normalize_folds_part_indices_only() {
        assert_eq!(
            normalize_path("part[3]/scale(x2)/root"),
            "part[*]/scale(x2)/root"
        );
        assert_eq!(
            normalize_path("part[12]/part[0]/root"),
            "part[*]/part[*]/root"
        );
        assert_eq!(normalize_path("scale(x2)/root"), "scale(x2)/root");
        // Non-numeric or unclosed brackets are left alone.
        assert_eq!(normalize_path("part[x]/root"), "part[x]/root");
        assert_eq!(normalize_path("part["), "part[");
    }

    #[test]
    fn dot_escape_handles_quotes_newlines_and_backslashes() {
        assert_eq!(dot_escape("a\"b"), "a\\\"b");
        assert_eq!(dot_escape("line1\nline2"), "line1\\nline2");
        assert_eq!(dot_escape("back\\slash"), "back\\\\slash");
        assert_eq!(dot_escape("cr\r\n"), "cr\\n");
    }

    /// Part 1 of a four-part ledger behind a ×2 scaling of a budget of
    /// 10, with part 1 at 0.2 under a 0.5 max, snapshot at `stability`.
    fn part_tree(lineage: Arc<OpNode>, stability: f64) -> ExplainTree {
        use crate::kernel::{charge_prepared, partition_parts, prepare, root_node};
        let parts = partition_parts(&root_node(&crate::Accountant::new(10.0)), 2.0, 4);
        let prep = prepare("noisy_count", None);
        charge_prepared(&parts.part(1), 0.2, &prep).unwrap();
        charge_prepared(&parts.part(3), 0.5, &prep).unwrap();
        let (charge, node) = parts.part(1).snapshot();
        let label = Some("ports".to_string());
        ExplainTree {
            label,
            stability,
            pending_fused: 0,
            materialized: true,
            lineage,
            charge,
            node,
        }
    }

    #[test]
    fn explain_tree_predicts_part_deltas_from_snapshot() {
        let tree = part_tree(OpNode::source(None), 1.0);
        // 0.2 + 0.1 stays under the 0.5 max: nothing reaches the root.
        let under = tree.predict(0.1);
        assert_eq!(under, vec![("part[1]/scale(x2)/root".to_string(), 0.0)]);
        // 0.2 + 0.4 = 0.6 exceeds the max by 0.1, scaled ×2 at the root.
        let over = tree.predict(0.4);
        assert_eq!(over.len(), 1);
        assert_eq!(over[0].0, "part[1]/scale(x2)/root");
        assert!((over[0].1 - 0.2).abs() < 1e-12);
    }

    #[test]
    fn recorder_folds_aggregations_and_paths() {
        let rec = ExplainRecorder::new();
        rec.record(
            "noisy_count",
            "part[0]/root",
            0.1,
            &[("part[0]/root".to_string(), 0.1)],
        );
        rec.record(
            "noisy_count",
            "part[1]/root",
            0.1,
            &[("part[1]/root".to_string(), 0.0)],
        );
        let report = rec.report();
        assert_eq!(report.aggregations.len(), 1);
        let a = &report.aggregations[0];
        assert_eq!(a.operator, "noisy_count");
        assert_eq!(a.path, "part[*]/root");
        assert_eq!(a.calls, 2);
        assert!((a.requested_eps - 0.2).abs() < 1e-12);
        assert!((a.predicted_eps - 0.1).abs() < 1e-12);
        assert_eq!(report.paths.len(), 1);
        assert_eq!(report.paths[0].calls, 2);
        assert!((report.paths[0].predicted_eps - 0.1).abs() < 1e-12);
        assert_eq!(report.full_paths.len(), 2);
        assert!((report.predicted_total() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn report_renders_all_three_formats() {
        let rec = ExplainRecorder::new();
        rec.record(
            "noisy_count",
            "part[2]/scale(x1)/root",
            0.004,
            &[("part[2]/scale(x1)/root".to_string(), 0.004)],
        );
        let mut report = rec.report();
        report.title = "fig1".to_string();
        let text = report.render_text(None);
        assert!(text.contains("explain: fig1"));
        assert!(text.contains("part[*]"));
        assert!(text.contains("noisy_count"));
        let dot = report.render_dot(None);
        assert!(dot.starts_with("digraph explain {"));
        assert!(dot.contains("agg0"));
        let json = report.to_json(None);
        assert!(json.contains("\"explain\":\"fig1\""));
        assert!(json.contains("\"predicted_eps\":0.004"));
        assert!(!json.contains("\"analyze\""));
    }

    #[test]
    fn overlay_fields_show_up_in_every_format() {
        let rec = ExplainRecorder::new();
        rec.record("noisy_count", "root", 0.1, &[("root".to_string(), 0.1)]);
        let report = rec.report();
        let mut overlay = Overlay::default();
        overlay.measured_paths.insert("root".to_string(), 0.1);
        overlay
            .measured_aggs
            .insert(("noisy_count".to_string(), "root".to_string()), 0.1);
        overlay.self_ns.insert("noisy_count".to_string(), 2_000_000);
        overlay.materializations = 3;
        overlay.max_fused_stages = 2;
        overlay.wall_ns = 5_000_000;
        let text = report.render_text(Some(&overlay));
        assert!(text.contains("measured ε 0.100000"));
        assert!(text.contains("self 2.000ms"));
        assert!(text.contains("3 plan materializations"));
        let json = report.to_json(Some(&overlay));
        assert!(json.contains("\"measured_eps\":0.1"));
        assert!(json.contains("\"self_ns\":2000000"));
        assert!(json.contains("\"analyze\":{"));
        let dot = report.render_dot(Some(&overlay));
        assert!(dot.contains("measured"));
    }

    #[test]
    fn install_uninstall_round_trips() {
        let _guard = global_guard();
        assert!(!explain_enabled());
        let rec = Arc::new(ExplainRecorder::new());
        assert!(install_explain_recorder(rec.clone()).is_none());
        assert!(explain_enabled());
        let got = recorder().expect("installed");
        assert!(Arc::ptr_eq(&got, &rec));
        let back = uninstall_explain_recorder().expect("still installed");
        assert!(Arc::ptr_eq(&back, &rec));
        assert!(!explain_enabled());
        assert!(recorder().is_none());
    }

    #[test]
    fn explain_tree_renders_lineage_and_charge() {
        let source = OpNode::source(None);
        let filtered = OpNode::derived("filter", 1.0, true, None, source);
        let grouped = OpNode::derived("group_by", 2.0, false, None, filtered);
        let tree = part_tree(grouped, 2.0);
        let predicted = tree.predict(0.2);
        assert_eq!(predicted.len(), 1);
        assert_eq!(predicted[0].0, "part[1]/scale(x2)/root");
        assert!((predicted[0].1 - 0.2).abs() < 1e-12);
        let text = tree.render_text();
        assert!(text.contains("\"ports\""));
        assert!(text.contains("group_by (x2)"));
        assert!(text.contains("filter (x1, fused)"));
        assert!(text.contains("source"));
        assert!(text.contains("part[1] of 4  [part ε 0.200000, max ε 0.500000]"));
        assert!(text.contains("root  [spent 1.000000 of 10.000000]"));
        let dot = tree.render_dot();
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("op1 -> op0"));
        let json = tree.to_json();
        assert!(json.contains("\"op\":\"group_by\""));
        assert!(json.contains("\"kind\":\"root\""));
    }
}

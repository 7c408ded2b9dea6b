//! Per-layer measurement shared by the workloads: folding the spans the
//! program already records, counting the events it already emits, and
//! micro-probes that time public functions of one layer in isolation.

use crate::metrics::Metrics;
use crate::stats;
use dpnet_obs::span::{self, CompletedSpan, SpanMode, TraceRecorder};
use dpnet_obs::{Event, EventSink};
use dpnet_serve::protocol::{read_frame, write_frame};
use dpnet_serve::{Request, Response};
use pinq::mechanisms::laplace::laplace_noise;
use pinq::{Accountant, NoiseSource, Queryable};
use std::hint::black_box;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Install a span recorder keeping every span (parents included, which
/// the unattributed-time fold needs).
pub fn start_tracing() -> Arc<TraceRecorder> {
    let rec = Arc::new(TraceRecorder::with_mode(SpanMode::Full));
    span::install_recorder(rec.clone());
    rec
}

/// Span time by layer, summed over a traced phase.
#[derive(Debug, Default)]
pub struct SpanFold {
    plan_n: u64,
    plan_ns: u64,
    exec_n: u64,
    exec_ns: u64,
    aggregates_self_ns: u64,
    /// Duration of top-level spans on the threads that run operations.
    top_ns: u64,
}

impl SpanFold {
    /// Fold `spans`. `caller` picks the threads that run operations; their
    /// top-level spans are what an operation's wall time is compared with.
    pub fn add(&mut self, spans: &[CompletedSpan], caller: impl Fn(&CompletedSpan) -> bool) {
        for s in spans {
            if s.name.starts_with("plan/") {
                self.plan_n += 1;
                self.plan_ns += s.dur_ns;
            } else if s.name == "exec/run" {
                self.exec_n += 1;
                self.exec_ns += s.dur_ns;
            } else if !(s.name.starts_with("exec/") || s.name == "map_parts") {
                // Everything else is an aggregation barrier (pinq) or a
                // toolkit estimator phase.
                self.aggregates_self_ns += s.self_ns();
            }
            if s.parent.is_none() && caller(s) {
                self.top_ns += s.dur_ns;
            }
        }
    }

    /// Record the fold per operation; `op_wall_ns` is the summed wall time
    /// of the `ops` operations the spans came from.
    pub fn report(&self, m: &mut Metrics, ops: u64, op_wall_ns: u64) {
        let per_op = |x: u64| x as f64 / ops.max(1) as f64;
        m.insert("plan.materializations_per_op", per_op(self.plan_n));
        m.insert("plan.materialize_ms_per_op", per_op(self.plan_ns) / 1e6);
        m.insert("exec.runs_per_op", per_op(self.exec_n));
        m.insert("exec.run_ms_per_op", per_op(self.exec_ns) / 1e6);
        m.insert(
            "aggregates.self_ms_per_op",
            per_op(self.aggregates_self_ns) / 1e6,
        );
        m.insert(
            "unattributed.ms_per_op",
            (op_wall_ns as f64 - self.top_ns as f64) / ops.max(1) as f64 / 1e6,
        );
    }
}

/// Counts the aggregation and charge events the engine emits.
#[derive(Debug, Default)]
pub struct CountingSink {
    pub aggregates: AtomicU64,
    pub charges: AtomicU64,
}

impl EventSink for CountingSink {
    fn emit(&self, event: &Event) {
        match event {
            Event::Aggregate(_) => self.aggregates.fetch_add(1, Ordering::Relaxed),
            Event::Charge(_) => self.charges.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
    }
}

/// A writer that counts `write` calls and bytes, and keeps nothing.
#[derive(Default)]
struct CountingWriter {
    writes: u64,
    bytes: u64,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Encode/decode iterations of the protocol probe.
const PROTOCOL_ITERS: usize = 2000;

/// Replay a workload's own request/response pairs through the wire codec
/// on in-memory buffers.
pub fn protocol_probe(pairs: &[(Request, Response)], m: &mut Metrics) -> Result<(), String> {
    if pairs.is_empty() {
        return Err("no request/response pairs captured".to_string());
    }
    let mut w = CountingWriter::default();
    for (rq, rs) in pairs {
        for payload in [rq.to_json(), rs.to_json()] {
            write_frame(&mut w, payload.as_bytes()).map_err(|e| e.to_string())?;
        }
    }
    m.insert(
        "protocol.writes_per_frame",
        w.writes as f64 / (2 * pairs.len()) as f64,
    );
    m.insert(
        "protocol.bytes_per_request",
        w.bytes as f64 / pairs.len() as f64,
    );

    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let (mut req_buf, mut resp_buf) = (Vec::new(), Vec::new());
    for (rq, rs) in pairs.iter().cycle().take(PROTOCOL_ITERS) {
        req_buf.clear();
        resp_buf.clear();
        let t = Instant::now();
        write_frame(&mut req_buf, rq.to_json().as_bytes()).map_err(|e| e.to_string())?;
        write_frame(&mut resp_buf, rs.to_json().as_bytes()).map_err(|e| e.to_string())?;
        enc.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        let frame = |buf: &Vec<u8>| {
            read_frame(&mut buf.as_slice())
                .map_err(|e| e.to_string())?
                .ok_or_else(|| "empty frame buffer".to_string())
        };
        let parsed_rq = Request::parse(&frame(&req_buf)?).map_err(|e| e.to_string())?;
        let parsed_rs = Response::parse(&frame(&resp_buf)?).map_err(|e| e.to_string())?;
        dec.push(t.elapsed().as_nanos() as u64);
        black_box((parsed_rq, parsed_rs));
    }
    m.insert("protocol.encode_us_p50", p50_ns(enc) / 1e3);
    m.insert("protocol.decode_us_p50", p50_ns(dec) / 1e3);
    Ok(())
}

/// Median of unsorted nanosecond samples.
pub fn p50_ns(mut v: Vec<u64>) -> f64 {
    v.sort_unstable();
    stats::percentile(&v, 50.0) as f64
}

/// Batches per micro-probe; the probe reports the median batch.
const BATCHES: usize = 5;

/// Median over [`BATCHES`] of the mean ns per call of `f`, `calls` calls a
/// batch.
fn ns_per_call(calls: u32, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / f64::from(calls)
        })
        .collect();
    stats::median(&batches)
}

/// The layer metrics every workload reports: trace generation, the noise
/// draw, the fixed cost of one aggregation, and the tracing overhead.
/// Runs untraced.
pub fn common(
    m: &mut Metrics,
    generate_s: f64,
    packets: usize,
    untraced_p50_ns: u64,
    traced_p50_ns: u64,
) {
    m.insert("trace.generate_s", generate_s);
    m.insert("trace.packets", packets as f64);
    m.insert(
        "tracing.overhead_share",
        traced_p50_ns as f64 / untraced_p50_ns as f64 - 1.0,
    );

    let noise = NoiseSource::seeded(1);
    m.insert(
        "mechanisms.laplace_ns",
        ns_per_call(200_000, || {
            black_box(laplace_noise(&noise, 1.0));
        }),
    );

    // Span check, timer, event check, kernel charge and one draw: what each
    // of batch-worm's ~0.75M aggregations pays besides its own work.
    let budget = Accountant::new(1e15);
    let one = Queryable::new(vec![0u32], &budget, &noise);
    m.insert(
        "aggregates.fixed_cost_ns",
        ns_per_call(20_000, || {
            black_box(
                one.noisy_count(1.0)
                    .expect("a 1e15 budget affords every probe charge"),
            );
        }),
    );
}

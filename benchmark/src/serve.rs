//! The serve workloads: an in-process daemon on 127.0.0.1, driven over
//! loopback TCP by two closed-loop clients (each waits for its reply
//! before sending again), as analysts would drive it.

use crate::harness::{self, Checks, Outcome, Phase, RunOpts, Sample};
use crate::layers::{self, SpanFold};
use crate::metrics::{self, Metrics, Workload};
use crate::stats;
use dpnet_obs::json::{parse_value, JsonValue};
use dpnet_obs::span;
use dpnet_serve::{
    serve, shard_packets, Client, ErrorKind, QueryBroker, Request, Response, ServeConfig,
    ServerHandle,
};
use dpnet_trace::gen::hotspot::{self, HotspotConfig};
use pinq::NoiseSource;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrent clients: the benchmark host has two cores.
const CLIENTS: usize = 2;
/// Dataset-wide budget: never binds.
const GLOBAL_EPS: f64 = 1_048_576.0;
/// Analyst cap of serve-steady and serve-mixed: never binds.
const OPEN_CAP: f64 = 65_536.0;
/// ε per `count` on serve-steady and serve-churn. Every request ε is a
/// power of two, so the books sum exactly and must balance bit for bit.
const COUNT_EPS: f64 = 1.0 / 1024.0;
/// ε per request on serve-mixed.
const MIXED_EPS: f64 = 1.0 / 64.0;
/// serve-churn: queries per session, of which the cap affords this many.
const CHURN_QUERIES: u64 = 6;
const CHURN_AFFORDABLE: u64 = 4;
/// serve-mixed rotation, with each analysis's ε cost as a multiple of the
/// request ε (group_by and the self-join double stability; itemsets pays
/// per candidate level). serve-steady and serve-churn use slot 0 only.
const MIX: [(&str, f64); 8] = [
    ("count", 1.0),
    ("heavy-hosts", 2.0),
    ("lengths", 1.0),
    ("ports", 1.0),
    ("rtt", 2.0),
    ("loss", 2.0),
    ("retx-cdf", 2.0),
    ("itemsets", 4.0),
];
/// Client 2 starts half-way round the rotation, so the two clients run
/// different analyses at once.
const MIXED_OFFSET: usize = 4;
/// Request/response pairs each client keeps for the protocol probe.
const KEPT_PAIRS: usize = 16;
/// Iterations of the open/close and audit-export probes.
const PROBE_ITERS: usize = 200;
/// A released count may differ from the packet count by this many Laplace
/// scales (probability e^-60 per release).
const COUNT_SCALES: f64 = 60.0;

fn eps(workload: Workload) -> f64 {
    match workload {
        Workload::ServeMixed => MIXED_EPS,
        _ => COUNT_EPS,
    }
}

fn analyst_cap(workload: Workload) -> f64 {
    match workload {
        Workload::ServeChurn => CHURN_AFFORDABLE as f64 * COUNT_EPS,
        _ => OPEN_CAP,
    }
}

/// Steady and mixed clients hold one session for the whole run; churn
/// clients open a fresh one per operation.
fn holds_session(workload: Workload) -> bool {
    workload != Workload::ServeChurn
}

/// The [`MIX`] slot of client `client`'s `n`th query.
fn slot(workload: Workload, client: usize, n: usize) -> usize {
    match workload {
        Workload::ServeMixed => (n + client * MIXED_OFFSET) % MIX.len(),
        _ => 0,
    }
}

/// Everything one set-up builds.
struct Daemon {
    /// Taken only by `drop`.
    handle: Option<ServerHandle>,
    clients: Vec<Option<Client>>,
    audit_dir: PathBuf,
    packets: usize,
    generate_s: f64,
}

impl Daemon {
    fn start(workload: Workload, seed: u64, audit_dir: &Path) -> Result<Daemon, String> {
        let t = Instant::now();
        let trace = hotspot::generate(HotspotConfig {
            seed,
            ..HotspotConfig::default()
        });
        let generate_s = t.elapsed().as_secs_f64();
        let packets = trace.packets.len();
        let handle = serve(
            shard_packets(trace.packets),
            NoiseSource::seeded(seed),
            ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                global_eps: GLOBAL_EPS,
                analyst_cap: analyst_cap(workload),
                workers: 2,
                // One job fills both cores; the other client queues.
                max_concurrent_jobs: 1,
                audit_dir: Some(audit_dir.to_path_buf()),
            },
        )
        .map_err(|e| format!("starting the daemon: {e}"))?;
        let clients = (0..CLIENTS)
            .map(|_| {
                if holds_session(workload) {
                    Client::connect(handle.addr())
                        .map(Some)
                        .map_err(|e| format!("connecting: {e}"))
                } else {
                    Ok(None)
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(Daemon {
            handle: Some(handle),
            clients,
            audit_dir: audit_dir.to_path_buf(),
            packets,
            generate_s,
        })
    }

    fn handle(&self) -> &ServerHandle {
        self.handle.as_ref().expect("the handle lives until drop")
    }
}

impl Drop for Daemon {
    /// Hang up, stop the daemon, wait until its connection threads have
    /// released the broker, and drop the last reference here. The trace is
    /// then freed on this thread before the next set-up starts. A
    /// connection thread dropping it instead would free ~174k packets while
    /// the next trace is generated: set-ups overlapping in memory, and
    /// taking ~20 ms longer whenever they collided.
    fn drop(&mut self) {
        self.clients.clear();
        let Some(handle) = self.handle.take() else {
            return;
        };
        let broker = handle.broker().clone();
        handle.shutdown();
        let deadline = Instant::now() + Duration::from_secs(10);
        while Arc::strong_count(&broker) > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone, Copy)]
struct Exchange {
    latency_ns: u64,
    /// Server execution time carried by a `values` response, else 0.
    wall_ns: u64,
}

/// A client's requests in one phase.
#[derive(Debug, Default)]
struct Log {
    phase: Phase,
    exchanges: Sample<Exchange>,
}

/// Per-client state that outlives phases.
struct ClientState {
    index: usize,
    client: Option<Client>,
    addr: SocketAddr,
    workload: Workload,
    packets: usize,
    /// Queries sent (mixed rotation position) or sessions opened (churn).
    next: usize,
    /// Released queries per [`MIX`] slot.
    ok: [u64; MIX.len()],
    exhausted: u64,
    /// Operations and requests over the whole run, warm-up included.
    ops: u64,
    requests: u64,
    sessions: u64,
    closed_spent: f64,
    bad_counts: Vec<f64>,
    bad_scripts: u64,
    pairs: Vec<(Request, Response)>,
}

impl ClientState {
    fn exchange(&mut self, req: Request, log: &mut Log) -> Option<Response> {
        let client = self.client.as_mut()?;
        let t = Instant::now();
        let result = client.request(&req);
        let latency_ns = t.elapsed().as_nanos() as u64;
        self.requests += 1;
        match result {
            Ok(resp) => {
                let wall_ns = match &resp {
                    Response::Values { wall_ns, .. } => *wall_ns,
                    _ => 0,
                };
                log.exchanges.push(Exchange {
                    latency_ns,
                    wall_ns,
                });
                if self.pairs.len() < KEPT_PAIRS {
                    self.pairs.push((req, resp.clone()));
                }
                Some(resp)
            }
            Err(_) => {
                // A transport or framing failure leaves the stream unusable.
                self.client = None;
                None
            }
        }
    }

    fn open(&mut self, analyst: String, log: &mut Log) -> bool {
        let opened = matches!(
            self.exchange(Request::Open { analyst }, log),
            Some(Response::Opened { .. })
        );
        self.sessions += u64::from(opened);
        opened
    }

    fn close(&mut self, log: &mut Log) -> bool {
        match self.exchange(Request::Close, log) {
            Some(Response::Closed { session_spent, .. }) => {
                self.closed_spent += session_spent;
                true
            }
            _ => false,
        }
    }

    /// One query; false when it failed (a refusal is not a failure).
    fn query(&mut self, slot: usize, log: &mut Log) -> bool {
        let (analysis, _) = MIX[slot];
        let eps = eps(self.workload);
        let req = Request::Query {
            analysis: analysis.to_string(),
            eps,
        };
        match self.exchange(req, log) {
            Some(Response::Values { values, .. }) => {
                self.ok[slot] += 1;
                if analysis == "count" {
                    let count = values.first().map_or(f64::NAN, |v| v.1);
                    let error = (count - self.packets as f64).abs();
                    if (error.is_nan() || error > COUNT_SCALES / eps) && self.bad_counts.len() < 8 {
                        self.bad_counts.push(count);
                    }
                }
                true
            }
            Some(Response::Error(e)) if e.kind == ErrorKind::BudgetExhausted => {
                self.exhausted += 1;
                true
            }
            _ => false,
        }
    }

    /// One operation: a query, or for churn a whole session.
    fn op(&mut self, log: &mut Log) -> bool {
        let n = self.next;
        self.next += 1;
        if self.workload == Workload::ServeChurn {
            let ok = self.churn_session(n, log);
            self.client = None;
            ok
        } else {
            self.query(slot(self.workload, self.index, n), log)
        }
    }

    /// Connect, open a fresh analyst, run [`CHURN_QUERIES`] counts against
    /// a cap that affords [`CHURN_AFFORDABLE`], close.
    fn churn_session(&mut self, n: usize, log: &mut Log) -> bool {
        let Ok(client) = Client::connect(self.addr) else {
            return false;
        };
        self.client = Some(client);
        if !self.open(format!("churn-{}-{n}", self.index), log) {
            return false;
        }
        let (ok0, exhausted0) = (self.ok[0], self.exhausted);
        for _ in 0..CHURN_QUERIES {
            if !self.query(0, log) {
                return false;
            }
        }
        if self.ok[0] - ok0 != CHURN_AFFORDABLE
            || self.exhausted - exhausted0 != CHURN_QUERIES - CHURN_AFFORDABLE
        {
            self.bad_scripts += 1;
        }
        self.close(log)
    }

    /// Ledger the books should show: released queries times their cost.
    fn booked(&self) -> f64 {
        let eps = eps(self.workload);
        self.ok
            .iter()
            .zip(MIX)
            .map(|(&n, (_, cost))| n as f64 * cost * eps)
            .sum()
    }
}

/// Drive every client for `dur` (each finishes the operation in flight).
fn run_phase(states: &mut [ClientState], dur: Duration) -> Log {
    let start = Instant::now();
    let logs: Vec<Log> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .map(|st| {
                scope.spawn(move || {
                    let mut log = Log::default();
                    let usable =
                        |st: &ClientState| st.client.is_some() || !holds_session(st.workload);
                    while usable(st) {
                        let t = Instant::now();
                        let ok = st.op(&mut log);
                        st.ops += 1;
                        log.phase.record(ok.then(|| t.elapsed().as_nanos() as u64));
                        if start.elapsed() >= dur {
                            break;
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Log::default();
    for log in logs {
        all.phase.absorb(log.phase);
        all.exchanges.absorb(log.exchanges);
    }
    all.phase.elapsed = start.elapsed();
    all
}

/// What the audit directory holds after the load.
#[derive(Debug, Default)]
struct AuditScan {
    session_files: u64,
    unterminated: Vec<String>,
    bytes: u64,
    aggregate_lines: u64,
    charge_lines: u64,
}

/// Read the audit directory line by line: a fast run leaves files far
/// larger than the benchmark should hold in memory.
fn scan_audit(dir: &Path) -> Result<AuditScan, String> {
    let mut scan = AuditScan::default();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let file = File::open(entry.path()).map_err(|e| format!("{name}: {e}"))?;
        let session = name.starts_with("session-");
        scan.session_files += u64::from(session);
        let mut last = String::new();
        for line in BufReader::new(file).lines() {
            let line = line.map_err(|e| format!("{name}: {e}"))?;
            scan.bytes += line.len() as u64 + 1;
            if line.starts_with("{\"type\":\"aggregate\"") {
                scan.aggregate_lines += u64::from(session);
            } else if line.starts_with("{\"type\":\"charge\"") {
                scan.charge_lines += u64::from(session);
            }
            last = line;
        }
        let summary = parse_value(&last).and_then(|v| {
            v.get("type")
                .and_then(JsonValue::as_str)
                .map(str::to_string)
        });
        if session && summary.as_deref() != Some("summary") {
            scan.unterminated.push(name);
        }
    }
    Ok(scan)
}

pub fn run(workload: Workload, opts: &RunOpts, workdir: &Path) -> Result<Outcome, String> {
    let (mut daemon, setup_s) = harness::repeated_setup(|rep| {
        Daemon::start(workload, opts.seed, &workdir.join(format!("audit-{rep}")))
    })?;
    let addr = daemon.handle().addr();
    let mut states: Vec<ClientState> = daemon
        .clients
        .drain(..)
        .enumerate()
        .map(|(index, client)| ClientState {
            index,
            client,
            addr,
            workload,
            packets: daemon.packets,
            next: 0,
            ok: [0; MIX.len()],
            exhausted: 0,
            ops: 0,
            requests: 0,
            sessions: 0,
            closed_spent: 0.0,
            bad_counts: Vec::new(),
            bad_scripts: 0,
            pairs: Vec::new(),
        })
        .collect();
    let mut untimed = Log::default();
    if holds_session(workload) {
        for st in &mut states {
            let analyst = format!("{}-{}", workload.name(), st.index);
            if !st.open(analyst, &mut untimed) {
                return Err(format!("client {} could not open its session", st.index));
            }
        }
    }

    run_phase(&mut states, harness::WARMUP);
    let measured = run_phase(&mut states, opts.phase());
    // Untraced runs take their metrics, peak RSS included, before the
    // checks below allocate.
    let mut metrics = if opts.traced {
        metrics::zeroed_layers()
    } else {
        harness::end_to_end(setup_s, &measured.phase)?
    };
    let traced = opts.traced.then(|| {
        let rec = layers::start_tracing();
        let log = run_phase(&mut states, opts.phase());
        span::uninstall_recorder();
        (log, rec)
    });
    if holds_session(workload) {
        for st in &mut states {
            st.close(&mut untimed);
        }
    }

    let mut checks = Checks::default();
    let broker = daemon.handle().broker().clone();
    let closed: f64 = states.iter().map(|s| s.closed_spent).sum();
    let global = broker.manager().global().spent();
    let booked: f64 = states.iter().map(ClientState::booked).sum();
    checks.check(
        "books_balance",
        closed == global && global == booked,
        || {
            format!(
                "closed sessions spent {closed}, global spent {global}, released × cost {booked}"
            )
        },
    );
    let bad_counts: Vec<f64> = states.iter().flat_map(|s| s.bad_counts.clone()).collect();
    checks.check("released_counts", bad_counts.is_empty(), || {
        format!(
            "counts {bad_counts:?} are more than {COUNT_SCALES}/ε from {} packets",
            daemon.packets
        )
    });
    if workload == Workload::ServeChurn {
        let bad: u64 = states.iter().map(|s| s.bad_scripts).sum();
        checks.check("churn_script", bad == 0, || {
            format!(
                "{bad} sessions did not see exactly {CHURN_AFFORDABLE} releases and {} refusals",
                CHURN_QUERIES - CHURN_AFFORDABLE
            )
        });
    }
    let audit = scan_audit(&daemon.audit_dir)?;
    let sessions: u64 = states.iter().map(|s| s.sessions).sum();
    checks.check(
        "audit_files",
        audit.session_files == sessions && audit.unterminated.is_empty(),
        || {
            format!(
                "{} session audit files for {sessions} sessions; without a summary line: {:?}",
                audit.session_files, audit.unterminated
            )
        },
    );

    let mut attempted = measured.phase.attempted;
    let mut failed = measured.phase.failed;
    if let Some((traced, rec)) = traced {
        let m = &mut metrics;
        attempted += traced.phase.attempted;
        failed += traced.phase.failed;
        let ops: u64 = states.iter().map(|s| s.ops).sum();
        let requests: u64 = states.iter().map(|s| s.requests).sum();
        let pairs: Vec<(Request, Response)> = states.iter().flat_map(|s| s.pairs.clone()).collect();
        layers::protocol_probe(&pairs, m)?;
        wire_layers(m, &measured, &broker, workload, opts.phase() / 2)?;
        broker_probes(m, &broker)?;

        let workers: Vec<u64> = rec
            .track_names()
            .into_iter()
            .filter(|(_, name)| name.starts_with("worker-"))
            .map(|(track, _)| track)
            .collect();
        // An operation's wall time is what its client saw; the spans
        // that explain it ran on the daemon's connection threads.
        let mut fold = SpanFold::default();
        fold.add(&rec.take(), |s| !workers.contains(&s.track));
        fold.report(m, traced.phase.attempted, traced.phase.total_ns);

        let per = |n: u64, d: u64| n as f64 / d.max(1) as f64;
        m.insert("aggregates.calls_per_op", per(audit.aggregate_lines, ops));
        m.insert("kernel.charges_per_op", per(audit.charge_lines, ops));
        m.insert("audit.bytes_per_request", per(audit.bytes, requests));
        layers::common(
            m,
            daemon.generate_s,
            daemon.packets,
            measured.phase.p50_ns()?,
            traced.phase.p50_ns()?,
        );
    }
    checks.check("sessions_drained", broker.live_sessions() == 0, || {
        format!(
            "{} sessions still live after the run",
            broker.live_sessions()
        )
    });
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        measured: measured.phase,
        failed_checks: checks.into_failures(),
    })
}

/// Split the untraced client latency into server execution, broker
/// admission, codec time and the transport remainder.
fn wire_layers(
    m: &mut Metrics,
    measured: &Log,
    broker: &Arc<QueryBroker>,
    workload: Workload,
    probe: Duration,
) -> Result<(), String> {
    let mut exec: Vec<u64> = measured
        .exchanges
        .items()
        .iter()
        .filter(|x| x.wall_ns > 0)
        .map(|x| x.wall_ns)
        .collect();
    if exec.is_empty() {
        return Err("no query released values".to_string());
    }
    exec.sort_unstable();
    m.insert(
        "broker.exec_ms_p50",
        harness::ms(stats::percentile(&exec, 50.0)),
    );
    m.insert(
        "broker.exec_ms_p90",
        harness::ms(stats::percentile(&exec, 90.0)),
    );

    let mut waits = admission_probe(broker, workload, probe);
    if waits.is_empty() {
        return Err("the admission probe released nothing".to_string());
    }
    waits.sort_unstable();
    let wait_p50 = harness::ms(stats::percentile(&waits, 50.0));
    m.insert("broker.admission_wait_ms_p50", wait_p50);
    m.insert(
        "broker.admission_wait_ms_p90",
        harness::ms(stats::percentile(&waits, 90.0)),
    );
    // The job slot is not FIFO: a thread that releases it can take it again
    // before the waiter wakes, so starvation shows only in the worst wait.
    m.insert(
        "broker.admission_wait_ms_max",
        harness::ms(*waits.last().expect("non-empty")),
    );

    let gaps: Vec<u64> = measured
        .exchanges
        .items()
        .iter()
        .map(|x| x.latency_ns.saturating_sub(x.wall_ns))
        .collect();
    let codec_ms = (m["protocol.encode_us_p50"] + m["protocol.decode_us_p50"]) / 1e3;
    m.insert(
        "transport.remainder_ms_p50",
        layers::p50_ns(gaps) / 1e6 - wait_p50 - codec_ms,
    );
    Ok(())
}

/// The workload's query mix from [`CLIENTS`] threads straight into the
/// broker, without the wire: each call's time minus the execution time it
/// returns is the wait for a job slot.
fn admission_probe(broker: &Arc<QueryBroker>, workload: Workload, dur: Duration) -> Vec<u64> {
    let eps = eps(workload);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut waits = Vec::new();
                    let mut session = None;
                    let mut in_session = 0;
                    for n in 0.. {
                        let id = *session.get_or_insert_with(|| {
                            in_session = 0;
                            broker.open(&format!("probe-admission-{c}-{n}")).id()
                        });
                        let (analysis, _) = MIX[slot(workload, c, n)];
                        let t = Instant::now();
                        if let Ok((_, wall_ns)) = broker.query(id, analysis, eps) {
                            waits.push((t.elapsed().as_nanos() as u64).saturating_sub(wall_ns));
                        }
                        in_session += 1;
                        let session_done =
                            workload == Workload::ServeChurn && in_session == CHURN_QUERIES;
                        if session_done || start.elapsed() >= dur {
                            let _ = broker.close(id);
                            session = None;
                        }
                        if start.elapsed() >= dur {
                            break;
                        }
                    }
                    waits
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("admission probe thread panicked"))
            .collect()
    })
}

/// Session open/close and the audit export, called directly on the broker.
fn broker_probes(m: &mut Metrics, broker: &Arc<QueryBroker>) -> Result<(), String> {
    let (mut open, mut close) = (Vec::new(), Vec::new());
    for k in 0..PROBE_ITERS {
        let t = Instant::now();
        let id = broker.open(&format!("probe-open-{k}")).id();
        open.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        broker.close(id).map_err(|e| format!("probe close: {e}"))?;
        close.push(t.elapsed().as_nanos() as u64);
    }
    m.insert("broker.open_us_p50", layers::p50_ns(open) / 1e3);
    m.insert("broker.close_us_p50", layers::p50_ns(close) / 1e3);

    // A 4-query session: affordable under every serve workload's cap.
    let session = broker.open("probe-export");
    for _ in 0..CHURN_AFFORDABLE {
        broker
            .query(session.id(), "count", COUNT_EPS)
            .map_err(|e| format!("export probe query: {e}"))?;
    }
    let mut buf = Vec::new();
    let mut export = Vec::new();
    for _ in 0..PROBE_ITERS {
        buf.clear();
        let t = Instant::now();
        session
            .export_audit_jsonl(&mut buf)
            .map_err(|e| format!("export probe: {e}"))?;
        export.push(t.elapsed().as_nanos() as u64);
    }
    m.insert("audit.export_us_p50", layers::p50_ns(export) / 1e3);
    let id = session.id();
    drop(session);
    broker
        .close(id)
        .map_err(|e| format!("export probe close: {e}"))?;
    Ok(())
}

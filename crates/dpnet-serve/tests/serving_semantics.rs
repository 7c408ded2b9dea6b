//! End-to-end semantics of the serving path: budget races admit exactly
//! the affordable prefix, the server path is bit-identical to the library
//! path, per-session audit files are complete, and the daemon sustains a
//! thousand concurrent sessions without a single unexpected failure.

use dpnet_bench::registry;
use dpnet_serve::loadtest::LoadtestConfig;
use dpnet_serve::{run_loadtest, serve, Client, ClientError, ErrorKind, ServeConfig};
use dpnet_trace::{Packet, Proto, TcpFlags};
use pinq::{NoiseSource, SessionManager};
use std::sync::Arc;

fn packets(n: u32) -> Vec<Packet> {
    (0..n)
        .map(|i| Packet {
            ts_us: u64::from(i) * 10,
            src_ip: 0x0a00_0000 | (i % 64),
            dst_ip: 0xc0a8_0001,
            src_port: 40_000 + (i % 1000) as u16,
            dst_port: if i % 4 == 0 { 443 } else { 80 },
            proto: if i % 7 == 0 { Proto::Udp } else { Proto::Tcp },
            len: 40 + (i % 1400) as u16,
            flags: TcpFlags::new(i % 11 == 0, true, false, false, i % 5 == 0),
            seq: i * 1000,
            ack: i * 500,
            payload: Vec::new(),
        })
        .collect()
}

/// Many clients race one analyst's cap: with dyadic ε (no rounding
/// residue) exactly the budget-feasible prefix succeeds — the kernel's
/// transactional charges mean no interleaving can over- or under-admit.
#[test]
fn concurrent_clients_racing_one_cap_admit_exactly_the_affordable_prefix() {
    let handle = serve(
        vec![Arc::new(packets(300))],
        NoiseSource::seeded(7),
        ServeConfig {
            global_eps: 100.0,
            analyst_cap: 1.0,
            ..ServeConfig::default()
        },
    )
    .expect("daemon");
    let addr = handle.addr();

    let outcomes: Vec<Result<(), ErrorKind>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..16)
            .map(|_| {
                scope.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    c.open("shared-analyst").expect("open");
                    let r = match c.query("count", 0.125) {
                        Ok(_) => Ok(()),
                        Err(ClientError::Server(e)) => Err(e.kind),
                        Err(other) => panic!("unexpected failure: {other}"),
                    };
                    c.close().expect("close");
                    r
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    });

    let ok = outcomes.iter().filter(|r| r.is_ok()).count();
    let exhausted = outcomes
        .iter()
        .filter(|r| matches!(r, Err(ErrorKind::BudgetExhausted)))
        .count();
    assert_eq!(ok, 8, "cap 1.0 at ε 0.125 affords exactly 8: {outcomes:?}");
    assert_eq!(exhausted, 8);
    let spent = handle
        .broker()
        .manager()
        .analyst_budget("shared-analyst")
        .spent();
    assert!((spent - 1.0).abs() < 1e-12, "cap fully consumed: {spent}");
}

/// A fixed-seed single-session run through the server releases values and
/// spend readings bit-identical to the equivalent library-path calls: the
/// wire (shortest-roundtrip f64) adds no drift, and the daemon adds no
/// hidden ε.
#[test]
fn server_path_is_bit_identical_to_the_library_path() {
    let trace = packets(400);
    let seed = 0xd5ee_d001u64;

    // Library path: same manager shape the daemon builds internally.
    let manager = SessionManager::new(trace.clone(), NoiseSource::seeded(seed), 10.0, 2.0);
    let session = manager.open("alice");
    let lib_count = registry::find("count")
        .unwrap()
        .run(session.queryable(), 0.25)
        .expect("library count");
    let lib_lengths = registry::find("lengths")
        .unwrap()
        .run(session.queryable(), 0.25)
        .expect("library lengths");
    let lib_spent = session.spent();

    // Server path: identical trace, seed, and budgets, over real TCP.
    let handle = serve(
        vec![Arc::new(trace)],
        NoiseSource::seeded(seed),
        ServeConfig {
            global_eps: 10.0,
            analyst_cap: 2.0,
            ..ServeConfig::default()
        },
    )
    .expect("daemon");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.open("alice").expect("open");
    let srv_count = client.query("count", 0.25).expect("served count");
    let srv_lengths = client.query("lengths", 0.25).expect("served lengths");
    let spend = client.spend().expect("spend");

    assert_eq!(lib_count.values, srv_count.values, "count releases differ");
    assert_eq!(
        lib_lengths.values, srv_lengths.values,
        "lengths releases differ"
    );
    assert_eq!(lib_count.text, srv_count.text);
    assert_eq!(
        lib_spent.to_bits(),
        spend.session_spent.to_bits(),
        "spend readings differ: {lib_spent} vs {}",
        spend.session_spent
    );
    let final_spent = client.close().expect("close");
    assert_eq!(final_spent.to_bits(), lib_spent.to_bits());
}

/// Per-session audit files: a live JSONL stream of the session's charges,
/// closed out with the exact ledger, one file per session, plus the
/// owner's stream with session open/close events.
#[test]
fn audit_dir_gets_per_session_streams_and_the_owner_ledger() {
    let dir = std::env::temp_dir().join(format!("dpnet-serve-audit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = serve(
        vec![Arc::new(packets(200))],
        NoiseSource::seeded(3),
        ServeConfig {
            global_eps: 10.0,
            analyst_cap: 2.0,
            audit_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
    )
    .expect("daemon");

    let mut a = Client::connect(handle.addr()).expect("connect");
    a.open("alice").expect("open");
    a.query("count", 0.25).expect("query");
    a.close().expect("close");

    let mut b = Client::connect(handle.addr()).expect("connect");
    b.open("bob").expect("open");
    b.query("count", 0.125).expect("query");
    drop(b); // disconnect without close: the server still finalizes

    // Wait for the connection thread to flush bob's file.
    let bob_path = || {
        std::fs::read_dir(&dir).ok().and_then(|entries| {
            entries.filter_map(|e| e.ok()).map(|e| e.path()).find(|p| {
                p.file_name()
                    .is_some_and(|n| n.to_string_lossy().contains("bob"))
            })
        })
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        if let Some(p) = bob_path() {
            if std::fs::read_to_string(&p).is_ok_and(|t| t.contains("\"summary\"")) {
                break;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "bob's audit file never finalized"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    // Every session file is valid JSONL ending in an exact ledger.
    let mut session_files = 0;
    for entry in std::fs::read_dir(&dir).expect("audit dir") {
        let path = entry.expect("entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("readable");
        for line in text.lines() {
            assert!(
                dpnet_obs::json::parse_value(line).is_some(),
                "invalid JSONL line in {name}: {line}"
            );
        }
        if name.starts_with("session-") {
            session_files += 1;
            assert!(text.contains("\"type\":\"summary\""), "{name} lacks ledger");
            assert!(text.contains("\"charge\""), "{name} saw no charges");
        }
    }
    assert_eq!(session_files, 2, "one audit file per session");

    // The owner stream carries the session lifecycle events.
    let owner = std::fs::read_to_string(dir.join("serve-audit.jsonl")).expect("owner stream");
    assert!(owner.contains("\"session\""), "{owner}");
    assert!(owner.contains("\"opened\""), "{owner}");
    assert!(owner.contains("\"closed\""), "{owner}");
    assert!(owner.contains("alice") && owner.contains("bob"), "{owner}");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The headline scale requirement: ≥ 1000 concurrent analyst sessions,
/// zero panics, zero unexpected errors, graceful budget refusals only.
#[test]
fn one_thousand_concurrent_sessions_with_zero_unexpected_errors() {
    let handle = serve(
        vec![Arc::new(packets(300))],
        NoiseSource::seeded(11),
        ServeConfig {
            // 100 analysts × cap 1.0 ≥ 1000 sessions × 2 requests × 1e-4,
            // so every request is affordable; any refusal is a bug here.
            global_eps: 1000.0,
            analyst_cap: 1.0,
            max_concurrent_jobs: 16,
            ..ServeConfig::default()
        },
    )
    .expect("daemon");

    let cfg = LoadtestConfig {
        sessions: 1000,
        requests: 2,
        analysts: 100,
        analysis: "count".to_string(),
        eps: 1e-4,
    };
    let outcome = run_loadtest(handle.addr(), &cfg).expect("loadtest");

    assert_eq!(outcome.errors, Vec::<String>::new(), "unexpected errors");
    assert_eq!(outcome.sessions, 1000, "all sessions opened");
    assert_eq!(outcome.requests, 2000);
    assert_eq!(outcome.ok, 2000, "all requests affordable");
    assert_eq!(outcome.budget_exhausted, 0);
    let summary = outcome.summary();
    assert!(summary.p50_ns > 0 && summary.p50_ns <= summary.p95_ns);
    assert!(summary.p95_ns <= summary.p99_ns && summary.p99_ns <= summary.max_ns);

    // Every session closed; the books balance exactly.
    let broker = handle.broker().clone();
    assert_eq!(broker.live_sessions(), 0, "sessions leaked");
    let spent = broker.manager().global().spent();
    assert!(
        (spent - 2000.0 * 1e-4).abs() < 1e-9,
        "global spend off: {spent}"
    );
    handle.shutdown();
}

/// A round trip costs what the server computes, not a transport stall:
/// with the length prefix and body written separately and Nagle on, each
/// reply waited ~40 ms for the client's delayed ACK.
#[test]
fn round_trips_on_one_session_do_not_stall() {
    let handle = serve(
        vec![Arc::new(packets(300))],
        NoiseSource::seeded(13),
        ServeConfig {
            global_eps: 100.0,
            analyst_cap: 100.0,
            ..ServeConfig::default()
        },
    )
    .expect("daemon");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.open("swift").expect("open");
    let mut latencies: Vec<std::time::Duration> = (0..64)
        .map(|_| {
            let start = std::time::Instant::now();
            client.query("count", 1.0 / 1024.0).expect("count");
            start.elapsed()
        })
        .collect();
    latencies.sort();
    let median = latencies[latencies.len() / 2];
    assert!(
        median < std::time::Duration::from_millis(10),
        "median round trip {median:?}"
    );
    client.close().expect("close");
    handle.shutdown();
}

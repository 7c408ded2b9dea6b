//! Hostile-input robustness: the daemon must never panic and must answer
//! every decodable request with a typed response. Malformed JSON,
//! truncated frames, and oversized length prefixes are all exercised over
//! real TCP.

use dpnet_serve::{serve, Client, ErrorKind, Response, ServeConfig};
use dpnet_trace::{Packet, Proto, TcpFlags};
use pinq::NoiseSource;
use proptest::prelude::*;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;

fn packets(n: u32) -> Vec<Packet> {
    (0..n)
        .map(|i| Packet {
            ts_us: u64::from(i) * 10,
            src_ip: 0x0a00_0000 | (i % 64),
            dst_ip: 0xc0a8_0001,
            src_port: 40_000 + (i % 1000) as u16,
            dst_port: 80,
            proto: Proto::Tcp,
            len: 40 + (i % 1400) as u16,
            flags: TcpFlags::ack(),
            seq: i * 1000,
            ack: i * 500,
            payload: Vec::new().into(),
        })
        .collect()
}

fn daemon() -> dpnet_serve::ServerHandle {
    serve(
        vec![Arc::new(packets(300))],
        NoiseSource::seeded(0xbad),
        ServeConfig {
            global_eps: 100.0,
            analyst_cap: 10.0,
            ..ServeConfig::default()
        },
    )
    .expect("daemon starts")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary bytes never panic the request parser: every input maps
    /// to a parsed request or a typed error.
    #[test]
    fn request_parser_never_panics(payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = dpnet_serve::Request::parse(&payload);
    }

    /// Arbitrary bytes never panic the response parser either (a hostile
    /// server must not crash a client).
    #[test]
    fn response_parser_never_panics(payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Response::parse(&payload);
    }
}

#[test]
fn garbage_payloads_get_typed_errors_and_the_session_survives() {
    let handle = daemon();
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.open("mallory").expect("open");
    client.query("count", 0.01).expect("first query");

    // A parade of well-framed garbage: every one answers with a typed
    // error, none kills the connection or the session.
    let cases: &[(&[u8], ErrorKind)] = &[
        (b"", ErrorKind::BadFrame),
        (b"\xff\xfe\x00garbage", ErrorKind::BadFrame),
        (b"[1,2,3]", ErrorKind::BadFrame),
        (b"{\"op\":42}", ErrorKind::BadFrame),
        (b"{\"op\":\"query\"}", ErrorKind::InvalidRequest),
        (
            b"{\"op\":\"query\",\"analysis\":\"count\",\"eps\":\"lots\"}",
            ErrorKind::InvalidRequest,
        ),
        (
            b"{\"op\":\"query\",\"analysis\":\"count\",\"eps\":0}",
            ErrorKind::InvalidRequest,
        ),
        (
            b"{\"op\":\"open\",\"analyst\":\"x\"}",
            ErrorKind::SessionAlreadyOpen,
        ),
        (b"{\"op\":\"teleport\"}", ErrorKind::InvalidRequest),
    ];
    for (payload, kind) in cases {
        match client.send_raw_frame(payload).expect("typed response") {
            Response::Error(e) => assert_eq!(e.kind, *kind, "payload {payload:?}"),
            other => panic!("expected error for {payload:?}, got {other:?}"),
        }
    }

    // The session shrugged it all off: still answering, still metered.
    client.query("count", 0.01).expect("query after garbage");
    let spend = client.spend().expect("spend");
    assert!((spend.session_spent - 0.02).abs() < 1e-12, "{spend:?}");
    client.close().expect("close");
}

#[test]
fn truncated_frames_drop_the_connection_but_not_the_daemon() {
    let handle = daemon();
    // Claim 100 bytes, send 5, hang up.
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.write_all(&100u32.to_be_bytes()).unwrap();
    stream.write_all(b"trunc").unwrap();
    drop(stream);

    // Hang up mid-length-prefix too.
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.write_all(&[0, 0]).unwrap();
    drop(stream);

    // The daemon keeps serving fresh connections.
    let mut client = Client::connect(handle.addr()).expect("connect after truncations");
    client.ping().expect("ping");
    client.open("carol").expect("open");
    client.query("count", 0.01).expect("query");
}

#[test]
fn oversized_frames_are_refused_with_a_typed_error_then_disconnected() {
    let handle = daemon();
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.open("dave").expect("open");

    // A hostile length prefix far past MAX_FRAME. The server answers
    // frame_too_large, then closes (the stream cannot be resynced).
    client
        .stream_mut()
        .write_all(&(u32::MAX).to_be_bytes())
        .unwrap();
    client.stream_mut().write_all(b"xx").unwrap();
    match client.read_response().expect("typed refusal") {
        Response::Error(e) => assert_eq!(e.kind, ErrorKind::FrameTooLarge),
        other => panic!("expected frame_too_large, got {other:?}"),
    }
    assert!(
        client.ping().is_err(),
        "connection should be closed after an oversized frame"
    );

    // The abandoned session was closed server-side; the analyst can
    // reconnect and open a new one.
    let mut client = Client::connect(handle.addr()).expect("reconnect");
    client.open("dave").expect("open again");
    client.query("count", 0.01).expect("query");
    let broker = handle.broker().clone();
    assert_eq!(broker.live_sessions(), 1, "stale session not reaped");
}

#[test]
fn requests_before_open_get_session_not_open() {
    let handle = daemon();
    let mut client = Client::connect(handle.addr()).expect("connect");
    for attempt in [
        client.query("count", 0.1).unwrap_err(),
        client.spend().unwrap_err(),
        client.close().unwrap_err(),
    ] {
        let e = attempt.server_error().expect("typed");
        assert_eq!(e.kind, ErrorKind::SessionNotOpen);
    }
    // Catalogue and ping work unauthenticated.
    client.ping().expect("ping");
    let catalogue = client.analyses().expect("analyses");
    assert!(catalogue.iter().any(|(name, _, _)| name == "count"));
}

//! The wire protocol: length-framed JSON over TCP.
//!
//! ## Frame format
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! +----------------------+-----------------------+
//! | length: u32, big-end | payload: length bytes |
//! +----------------------+-----------------------+
//! ```
//!
//! The payload is one UTF-8 JSON document. Frames larger than
//! [`MAX_FRAME`] are refused with a typed `frame_too_large` error and the
//! connection is closed (the stream cannot be resynchronized without
//! trusting the hostile length). Everything *inside* a well-sized frame —
//! garbage bytes, malformed JSON, unknown ops, missing fields — yields a
//! typed `invalid_request`/`bad_frame` response and the session stays
//! alive.
//!
//! ## Requests
//!
//! ```json
//! {"op":"open","analyst":"alice"}
//! {"op":"query","analysis":"count","eps":0.1}
//! {"op":"spend"}
//! {"op":"ledger"}
//! {"op":"analyses"}
//! {"op":"ping"}
//! {"op":"close"}
//! ```
//!
//! ## Responses
//!
//! Every response object carries `"ok":true|false`. Successful responses
//! echo the op's result; failures carry `"error":"<kind>"` plus a
//! human-readable `"detail"` and, for budget refusals, the `requested`
//! and `remaining` ε readings. A `budget_exhausted` response is a
//! *graceful* outcome: nothing was charged, the session stays open, and
//! cheaper requests may still succeed.

use dpnet_obs::json::{escape, number, parse_value, JsonValue};
use std::io::{Read, Write};

/// Hard cap on a frame payload, bytes. Catalogue responses and CDF value
/// lists fit in a few KiB; a megabyte is generous for every legitimate
/// message and small enough that a hostile length prefix cannot balloon
/// server memory.
pub const MAX_FRAME: usize = 1 << 20;

/// Frame-layer failure.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed mid-frame or the transport failed.
    Io(std::io::Error),
    /// The declared payload length exceeds [`MAX_FRAME`].
    TooLarge(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
        }
    }
}

/// Read one frame. `Ok(None)` is a clean end-of-stream (the peer closed
/// between frames); an EOF inside a frame is an error.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len = [0u8; 4];
    // Distinguish "closed before any byte" from "closed mid-prefix".
    match r.read(&mut len[..1]).map_err(FrameError::Io)? {
        0 => return Ok(None),
        _ => r.read_exact(&mut len[1..]).map_err(FrameError::Io)?,
    }
    let n = u32::from_be_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(FrameError::TooLarge(n));
    }
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf).map_err(FrameError::Io)?;
    Ok(Some(buf))
}

/// Write one frame: the length prefix and the payload leave in a single
/// write. Two writes would put the payload in a second small segment,
/// which Nagle's algorithm holds until the peer's delayed ACK (~40 ms).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Typed failure kinds, stable on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// A budget (session, analyst cap, or global) cannot afford the
    /// request. Nothing was charged; the session stays open.
    BudgetExhausted,
    /// The request was well-framed JSON but semantically invalid
    /// (bad ε, wrong field types, invalid parameters).
    InvalidRequest,
    /// The requested analysis is not in the catalogue.
    UnknownAnalysis,
    /// A query/spend/close arrived before `open`.
    SessionNotOpen,
    /// A second `open` on a connection that already has a session.
    SessionAlreadyOpen,
    /// The frame payload was not a JSON object with a string `op`.
    BadFrame,
    /// The declared frame length exceeds [`MAX_FRAME`]; the connection
    /// closes after this response.
    FrameTooLarge,
    /// Server-side failure unrelated to the request.
    Internal,
}

impl ErrorKind {
    /// Stable wire string.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BudgetExhausted => "budget_exhausted",
            ErrorKind::InvalidRequest => "invalid_request",
            ErrorKind::UnknownAnalysis => "unknown_analysis",
            ErrorKind::SessionNotOpen => "session_not_open",
            ErrorKind::SessionAlreadyOpen => "session_already_open",
            ErrorKind::BadFrame => "bad_frame",
            ErrorKind::FrameTooLarge => "frame_too_large",
            ErrorKind::Internal => "internal",
        }
    }

    /// Parse a wire string back into a kind.
    pub fn parse(s: &str) -> Option<ErrorKind> {
        Some(match s {
            "budget_exhausted" => ErrorKind::BudgetExhausted,
            "invalid_request" => ErrorKind::InvalidRequest,
            "unknown_analysis" => ErrorKind::UnknownAnalysis,
            "session_not_open" => ErrorKind::SessionNotOpen,
            "session_already_open" => ErrorKind::SessionAlreadyOpen,
            "bad_frame" => ErrorKind::BadFrame,
            "frame_too_large" => ErrorKind::FrameTooLarge,
            "internal" => ErrorKind::Internal,
            _ => return None,
        })
    }
}

/// A typed refusal: what went wrong, in both machine and human form.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeError {
    /// The failure class.
    pub kind: ErrorKind,
    /// Human-readable explanation.
    pub detail: String,
    /// ε the refused charge requested (budget refusals only).
    pub requested: Option<f64>,
    /// ε the binding budget had left (budget refusals only).
    pub remaining: Option<f64>,
}

impl ServeError {
    /// A non-budget error of `kind`.
    pub fn new(kind: ErrorKind, detail: impl Into<String>) -> Self {
        ServeError {
            kind,
            detail: detail.into(),
            requested: None,
            remaining: None,
        }
    }

    /// A graceful budget refusal.
    pub fn budget_exhausted(requested: f64, remaining: f64) -> Self {
        ServeError {
            kind: ErrorKind::BudgetExhausted,
            detail: format!(
                "budget cannot afford the request: {requested}ε requested, {remaining}ε remaining"
            ),
            requested: Some(requested),
            remaining: Some(remaining),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.detail)
    }
}

/// A parsed analyst request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a session as `analyst`.
    Open {
        /// The analyst name sessions and ledgers are keyed by.
        analyst: String,
    },
    /// Run catalogue analysis `analysis` at accuracy `eps`.
    Query {
        /// Registry name of the analysis.
        analysis: String,
        /// Requested ε.
        eps: f64,
    },
    /// Read this session's budget snapshot.
    Spend,
    /// Read the owner's per-analyst ledger.
    Ledger,
    /// List the analysis catalogue.
    Analyses,
    /// Liveness probe.
    Ping,
    /// Close the session (the connection may keep pinging).
    Close,
}

impl Request {
    /// Parse one frame payload. Never panics: any malformed input maps to
    /// a typed [`ServeError`].
    pub fn parse(payload: &[u8]) -> Result<Request, ServeError> {
        let text = std::str::from_utf8(payload)
            .map_err(|e| ServeError::new(ErrorKind::BadFrame, format!("payload not UTF-8: {e}")))?;
        let value = parse_value(text)
            .ok_or_else(|| ServeError::new(ErrorKind::BadFrame, "payload is not valid JSON"))?;
        let op = value
            .get("op")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ServeError::new(ErrorKind::BadFrame, "missing string field 'op'"))?;
        match op {
            "open" => {
                let analyst = value
                    .get("analyst")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| {
                        ServeError::new(ErrorKind::InvalidRequest, "open requires string 'analyst'")
                    })?;
                if analyst.is_empty() || analyst.len() > 128 {
                    return Err(ServeError::new(
                        ErrorKind::InvalidRequest,
                        "analyst name must be 1..=128 characters",
                    ));
                }
                Ok(Request::Open {
                    analyst: analyst.to_string(),
                })
            }
            "query" => {
                let analysis = value
                    .get("analysis")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| {
                        ServeError::new(
                            ErrorKind::InvalidRequest,
                            "query requires string 'analysis'",
                        )
                    })?;
                let eps = value
                    .get("eps")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| {
                        ServeError::new(ErrorKind::InvalidRequest, "query requires numeric 'eps'")
                    })?;
                if !(eps.is_finite() && eps > 0.0) {
                    return Err(ServeError::new(
                        ErrorKind::InvalidRequest,
                        format!("eps must be finite and positive, got {eps}"),
                    ));
                }
                Ok(Request::Query {
                    analysis: analysis.to_string(),
                    eps,
                })
            }
            "spend" => Ok(Request::Spend),
            "ledger" => Ok(Request::Ledger),
            "analyses" => Ok(Request::Analyses),
            "ping" => Ok(Request::Ping),
            "close" => Ok(Request::Close),
            other => Err(ServeError::new(
                ErrorKind::InvalidRequest,
                format!("unknown op '{other}'"),
            )),
        }
    }

    /// Serialize for the wire (client side).
    pub fn to_json(&self) -> String {
        match self {
            Request::Open { analyst } => {
                format!("{{\"op\":\"open\",\"analyst\":{}}}", escape(analyst))
            }
            Request::Query { analysis, eps } => format!(
                "{{\"op\":\"query\",\"analysis\":{},\"eps\":{}}}",
                escape(analysis),
                number(*eps)
            ),
            Request::Spend => "{\"op\":\"spend\"}".to_string(),
            Request::Ledger => "{\"op\":\"ledger\"}".to_string(),
            Request::Analyses => "{\"op\":\"analyses\"}".to_string(),
            Request::Ping => "{\"op\":\"ping\"}".to_string(),
            Request::Close => "{\"op\":\"close\"}".to_string(),
        }
    }
}

/// A session budget reading on the wire (all DP-policy metadata).
#[derive(Debug, Clone, PartialEq)]
pub struct SpendWire {
    /// Session id.
    pub session: u64,
    /// Analyst name.
    pub analyst: String,
    /// ε spent through this session.
    pub session_spent: f64,
    /// ε spent by the analyst across sessions.
    pub analyst_spent: f64,
    /// The analyst's cap.
    pub analyst_cap: f64,
    /// ε spent against the global budget.
    pub global_spent: f64,
    /// The global budget.
    pub global_total: f64,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Session opened.
    Opened {
        /// Assigned session id.
        session: u64,
        /// Echoed analyst name.
        analyst: String,
    },
    /// Query answered with released values.
    Values {
        /// Echoed analysis name.
        analysis: String,
        /// Echoed ε.
        eps: f64,
        /// Released `(name, value)` pairs.
        values: Vec<(String, f64)>,
        /// Rendered text report.
        text: String,
        /// Server-side wall time, ns.
        wall_ns: u64,
    },
    /// Budget snapshot.
    Spend(SpendWire),
    /// Per-analyst `(name, spent)` ledger.
    Ledger(Vec<(String, f64)>),
    /// The analysis catalogue: `(name, summary, default_eps)`.
    Analyses(Vec<(String, String, f64)>),
    /// Liveness reply.
    Pong,
    /// Session closed.
    Closed {
        /// The closed session's id.
        session: u64,
        /// Final ε spent through the session.
        session_spent: f64,
    },
    /// A typed refusal.
    Error(ServeError),
}

impl Response {
    /// Serialize for the wire.
    pub fn to_json(&self) -> String {
        match self {
            Response::Opened { session, analyst } => format!(
                "{{\"ok\":true,\"session\":{session},\"analyst\":{}}}",
                escape(analyst)
            ),
            Response::Values {
                analysis,
                eps,
                values,
                text,
                wall_ns,
            } => {
                let mut out = format!(
                    "{{\"ok\":true,\"analysis\":{},\"eps\":{},\"values\":[",
                    escape(analysis),
                    number(*eps)
                );
                for (i, (k, v)) in values.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("[{},{}]", escape(k), number(*v)));
                }
                out.push_str(&format!(
                    "],\"text\":{},\"wall_ns\":{wall_ns}}}",
                    escape(text)
                ));
                out
            }
            Response::Spend(s) => format!(
                "{{\"ok\":true,\"session\":{},\"analyst\":{},\"session_spent\":{},\
                 \"analyst_spent\":{},\"analyst_cap\":{},\"global_spent\":{},\
                 \"global_total\":{}}}",
                s.session,
                escape(&s.analyst),
                number(s.session_spent),
                number(s.analyst_spent),
                number(s.analyst_cap),
                number(s.global_spent),
                number(s.global_total)
            ),
            Response::Ledger(rows) => {
                let mut out = String::from("{\"ok\":true,\"ledger\":[");
                for (i, (name, spent)) in rows.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("[{},{}]", escape(name), number(*spent)));
                }
                out.push_str("]}");
                out
            }
            Response::Analyses(rows) => {
                let mut out = String::from("{\"ok\":true,\"analyses\":[");
                for (i, (name, summary, eps)) in rows.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "{{\"name\":{},\"summary\":{},\"default_eps\":{}}}",
                        escape(name),
                        escape(summary),
                        number(*eps)
                    ));
                }
                out.push_str("]}");
                out
            }
            Response::Pong => "{\"ok\":true,\"pong\":true}".to_string(),
            Response::Closed {
                session,
                session_spent,
            } => format!(
                "{{\"ok\":true,\"closed\":{session},\"session_spent\":{}}}",
                number(*session_spent)
            ),
            Response::Error(e) => {
                let mut out = format!(
                    "{{\"ok\":false,\"error\":{},\"detail\":{}",
                    escape(e.kind.as_str()),
                    escape(&e.detail)
                );
                if let Some(r) = e.requested {
                    out.push_str(&format!(",\"requested\":{}", number(r)));
                }
                if let Some(r) = e.remaining {
                    out.push_str(&format!(",\"remaining\":{}", number(r)));
                }
                out.push('}');
                out
            }
        }
    }

    /// Parse a response payload (client side). Never panics.
    pub fn parse(payload: &[u8]) -> Result<Response, ServeError> {
        let bad = |d: &str| ServeError::new(ErrorKind::BadFrame, d.to_string());
        let text = std::str::from_utf8(payload).map_err(|_| bad("response not UTF-8"))?;
        let v = parse_value(text).ok_or_else(|| bad("response is not valid JSON"))?;
        let ok = match v.get("ok") {
            Some(JsonValue::Bool(b)) => *b,
            _ => return Err(bad("response missing boolean 'ok'")),
        };
        if !ok {
            let kind = v
                .get("error")
                .and_then(JsonValue::as_str)
                .and_then(ErrorKind::parse)
                .ok_or_else(|| bad("error response with unknown kind"))?;
            return Ok(Response::Error(ServeError {
                kind,
                detail: v
                    .get("detail")
                    .and_then(JsonValue::as_str)
                    .unwrap_or_default()
                    .to_string(),
                requested: v.get("requested").and_then(JsonValue::as_f64),
                remaining: v.get("remaining").and_then(JsonValue::as_f64),
            }));
        }
        if let Some(values) = v.get("values").and_then(JsonValue::items) {
            let mut pairs = Vec::with_capacity(values.len());
            for pair in values {
                let items = pair.items().ok_or_else(|| bad("value row not an array"))?;
                match items {
                    [JsonValue::Str(k), JsonValue::Num(x)] => pairs.push((k.clone(), *x)),
                    _ => return Err(bad("value row is not [name, number]")),
                }
            }
            return Ok(Response::Values {
                analysis: v
                    .get("analysis")
                    .and_then(JsonValue::as_str)
                    .unwrap_or_default()
                    .to_string(),
                eps: v.get("eps").and_then(JsonValue::as_f64).unwrap_or(0.0),
                values: pairs,
                text: v
                    .get("text")
                    .and_then(JsonValue::as_str)
                    .unwrap_or_default()
                    .to_string(),
                wall_ns: v.get("wall_ns").and_then(JsonValue::as_f64).unwrap_or(0.0) as u64,
            });
        }
        if let Some(rows) = v.get("ledger").and_then(JsonValue::items) {
            let mut ledger = Vec::with_capacity(rows.len());
            for row in rows {
                match row.items() {
                    Some([JsonValue::Str(name), JsonValue::Num(spent)]) => {
                        ledger.push((name.clone(), *spent))
                    }
                    _ => return Err(bad("ledger row is not [name, number]")),
                }
            }
            return Ok(Response::Ledger(ledger));
        }
        if let Some(rows) = v.get("analyses").and_then(JsonValue::items) {
            let mut analyses = Vec::with_capacity(rows.len());
            for row in rows {
                let name = row.get("name").and_then(JsonValue::as_str);
                let summary = row.get("summary").and_then(JsonValue::as_str);
                let eps = row.get("default_eps").and_then(JsonValue::as_f64);
                match (name, summary, eps) {
                    (Some(n), Some(s), Some(e)) => analyses.push((n.to_string(), s.to_string(), e)),
                    _ => return Err(bad("catalogue row missing fields")),
                }
            }
            return Ok(Response::Analyses(analyses));
        }
        if v.get("session_spent").is_some() && v.get("analyst").is_some() {
            let f = |k: &str| v.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
            return Ok(Response::Spend(SpendWire {
                session: f("session") as u64,
                analyst: v
                    .get("analyst")
                    .and_then(JsonValue::as_str)
                    .unwrap_or_default()
                    .to_string(),
                session_spent: f("session_spent"),
                analyst_spent: f("analyst_spent"),
                analyst_cap: f("analyst_cap"),
                global_spent: f("global_spent"),
                global_total: f("global_total"),
            }));
        }
        if let Some(id) = v.get("closed").and_then(JsonValue::as_f64) {
            return Ok(Response::Closed {
                session: id as u64,
                session_spent: v
                    .get("session_spent")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0),
            });
        }
        if v.get("pong").is_some() {
            return Ok(Response::Pong);
        }
        if let (Some(session), Some(analyst)) = (
            v.get("session").and_then(JsonValue::as_f64),
            v.get("analyst").and_then(JsonValue::as_str),
        ) {
            return Ok(Response::Opened {
                session: session as u64,
                analyst: analyst.to_string(),
            });
        }
        Err(bad("unrecognized response shape"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"ping\"}").unwrap();
        let mut cursor = &buf[..];
        let frame = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(frame, b"{\"op\":\"ping\"}");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    /// A `Write` that accepts everything and counts the calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        for payload in [&b""[..], b"{\"op\":\"ping\"}", &[b'x'; 70_000]] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.writes, 1, "payload of {} bytes", payload.len());
            let frame = read_frame(&mut &w.bytes[..]).unwrap().unwrap();
            assert_eq!(frame, payload);
        }
    }

    #[test]
    fn oversized_declared_length_is_refused_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        buf.extend_from_slice(b"xx");
        match read_frame(&mut &buf[..]) {
            Err(FrameError::TooLarge(n)) => assert_eq!(n, u32::MAX as usize),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frame_is_an_io_error_not_a_panic() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&100u32.to_be_bytes());
        buf.extend_from_slice(b"short");
        assert!(matches!(read_frame(&mut &buf[..]), Err(FrameError::Io(_))));
        // Truncated inside the length prefix too.
        assert!(matches!(
            read_frame(&mut &[0u8, 1][..]),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn requests_round_trip_through_the_wire_form() {
        let reqs = [
            Request::Open {
                analyst: "alice \"quoted\"".to_string(),
            },
            Request::Query {
                analysis: "count".to_string(),
                eps: 0.125,
            },
            Request::Spend,
            Request::Ledger,
            Request::Analyses,
            Request::Ping,
            Request::Close,
        ];
        for r in reqs {
            let parsed = Request::parse(r.to_json().as_bytes()).unwrap();
            assert_eq!(parsed, r);
        }
    }

    #[test]
    fn invalid_requests_map_to_typed_errors() {
        let cases: [(&[u8], ErrorKind); 6] = [
            (b"\xff\xfe", ErrorKind::BadFrame),
            (b"not json", ErrorKind::BadFrame),
            (b"{\"no\":\"op\"}", ErrorKind::BadFrame),
            (b"{\"op\":\"warp\"}", ErrorKind::InvalidRequest),
            (
                b"{\"op\":\"query\",\"analysis\":\"count\"}",
                ErrorKind::InvalidRequest,
            ),
            (
                b"{\"op\":\"query\",\"analysis\":\"count\",\"eps\":-1}",
                ErrorKind::InvalidRequest,
            ),
        ];
        for (payload, kind) in cases {
            let err = Request::parse(payload).unwrap_err();
            assert_eq!(err.kind, kind, "payload {payload:?}");
        }
    }

    #[test]
    fn responses_round_trip_through_the_wire_form() {
        let resps = [
            Response::Opened {
                session: 7,
                analyst: "bob".to_string(),
            },
            Response::Values {
                analysis: "count".to_string(),
                eps: 0.1,
                values: vec![("count".to_string(), 12345.678901234567)],
                text: "noisy packet count: 12345.7\n".to_string(),
                wall_ns: 420,
            },
            Response::Spend(SpendWire {
                session: 7,
                analyst: "bob".to_string(),
                session_spent: 0.30000000000000004,
                analyst_spent: 0.4,
                analyst_cap: 1.0,
                global_spent: 0.7,
                global_total: 10.0,
            }),
            Response::Ledger(vec![("alice".to_string(), 0.25), ("bob".to_string(), 0.5)]),
            Response::Analyses(vec![(
                "count".to_string(),
                "noisy packet count".to_string(),
                0.1,
            )]),
            Response::Pong,
            Response::Closed {
                session: 7,
                session_spent: 0.3,
            },
            Response::Error(ServeError::budget_exhausted(0.5, 0.25)),
            Response::Error(ServeError::new(ErrorKind::UnknownAnalysis, "no 'x'")),
        ];
        for r in resps {
            let parsed = Response::parse(r.to_json().as_bytes()).unwrap();
            assert_eq!(parsed, r);
        }
    }

    #[test]
    fn f64_values_survive_the_wire_bit_exactly() {
        // number() prints shortest-roundtrip floats; the parser reads them
        // back exactly — the bit-identity acceptance rests on this.
        let v = 0.1 + 0.2; // 0.30000000000000004
        let r = Response::Values {
            analysis: "count".to_string(),
            eps: v,
            values: vec![("x".to_string(), 1e-17 + 2.5)],
            text: String::new(),
            wall_ns: 0,
        };
        match Response::parse(r.to_json().as_bytes()).unwrap() {
            Response::Values { eps, values, .. } => {
                assert_eq!(eps.to_bits(), v.to_bits());
                assert_eq!(values[0].1.to_bits(), (1e-17f64 + 2.5).to_bits());
            }
            other => panic!("{other:?}"),
        }
    }
}

//! The daemon: accept loop, per-connection protocol state machine, and
//! per-session audit streams.
//!
//! One thread per connection (`std::net` blocking I/O — no async runtime).
//! Each connection owns at most one open [`pinq::Session`]; the shared
//! [`QueryBroker`] gates how many of those sessions' queries execute on
//! the worker pool at once. Protocol errors are graceful: anything wrong
//! *inside* a well-sized frame answers with a typed error and the
//! connection (and session) live on. Only an oversized length prefix ends
//! the connection, because the stream cannot be resynchronized without
//! trusting the hostile length.

use crate::broker::{BrokerConfig, QueryBroker};
use crate::protocol::{
    read_frame, write_frame, ErrorKind, FrameError, Request, Response, ServeError, SpendWire,
};
use dpnet_obs::JsonlSink;
use dpnet_trace::Packet;
use pinq::{ExecCtx, ExecPool, NoiseSource, Session, SessionManager};
use std::fs::File;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7070`. Port 0 binds an ephemeral
    /// port (read it back from [`ServerHandle::addr`]).
    pub addr: String,
    /// Dataset-wide ε budget shared by all analysts.
    pub global_eps: f64,
    /// Per-analyst lifetime ε cap.
    pub analyst_cap: f64,
    /// Worker threads in the shared execution pool (0 = sequential).
    pub workers: usize,
    /// Maximum analysis jobs on the pool at once (admission gate).
    pub max_concurrent_jobs: usize,
    /// Where to stream audit JSONL. When set, the daemon writes
    /// `serve-audit.jsonl` (owner stream: every charge against the global
    /// budget plus session open/close events) and one
    /// `session-<id>-<analyst>.jsonl` per session (that session's charges,
    /// closed out with its exact spend ledger).
    pub audit_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            global_eps: 10.0,
            analyst_cap: 1.0,
            workers: 0,
            max_concurrent_jobs: 8,
            audit_dir: None,
        }
    }
}

/// A running daemon: the bound address, the shared broker, and the accept
/// thread.
pub struct ServerHandle {
    addr: SocketAddr,
    broker: Arc<QueryBroker>,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the daemon actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared broker (owner-side monitoring: live sessions, ledger,
    /// global spend).
    pub fn broker(&self) -> &Arc<QueryBroker> {
        &self.broker
    }

    /// Stop accepting connections and join the accept thread. In-flight
    /// connection threads finish serving their clients and exit when those
    /// clients disconnect; they hold their own broker reference, so
    /// dropping the handle is safe at any point.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Block until the daemon is shut down from another thread (the CLI
    /// foreground mode). Returns immediately if already stopped.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

/// Start the daemon over a pre-sharded protected trace. Loads nothing:
/// the shards are shared zero-copy into every session. Returns once the
/// listener is bound; serving happens on background threads.
pub fn serve(
    shards: Vec<Arc<Vec<Packet>>>,
    noise: NoiseSource,
    cfg: ServeConfig,
) -> io::Result<ServerHandle> {
    let mut manager =
        SessionManager::from_shared_shards(shards, noise, cfg.global_eps, cfg.analyst_cap);
    if cfg.workers > 0 {
        let pool = ExecPool::new(cfg.workers)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        manager = manager.with_ctx(ExecCtx::pool(&pool));
    }
    if let Some(dir) = &cfg.audit_dir {
        std::fs::create_dir_all(dir)?;
        let owner_log = File::create(dir.join("serve-audit.jsonl"))?;
        let global = manager.global();
        global.set_sink(Some(Arc::new(JsonlSink::new(owner_log))));
        // The owner stream is the spend log: it gets every charge as it
        // lands, so keep no in-memory copy. Totals stay exact.
        global.set_log_capacity(0);
    }
    let broker = Arc::new(QueryBroker::new(
        manager,
        BrokerConfig {
            max_concurrent_jobs: cfg.max_concurrent_jobs,
        },
    ));

    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let accept = {
        let broker = broker.clone();
        let shutdown = shutdown.clone();
        let audit_dir = cfg.audit_dir.clone();
        std::thread::Builder::new()
            .name("dpnet-serve-accept".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // Replies are single small frames: send each at once
                    // rather than holding it for the client's delayed ACK.
                    stream.set_nodelay(true).ok();
                    let broker = broker.clone();
                    let audit_dir = audit_dir.clone();
                    let _ = std::thread::Builder::new()
                        .name("dpnet-serve-conn".to_string())
                        .spawn(move || {
                            let mut conn = Connection {
                                broker,
                                audit_dir,
                                session: None,
                                audit_path: None,
                            };
                            conn.run(stream);
                        });
                }
            })?
    };

    Ok(ServerHandle {
        addr,
        broker,
        shutdown,
        accept: Some(accept),
    })
}

/// Per-connection protocol state: at most one open session.
struct Connection {
    broker: Arc<QueryBroker>,
    audit_dir: Option<PathBuf>,
    session: Option<Arc<Session<Packet>>>,
    audit_path: Option<PathBuf>,
}

impl Connection {
    fn run(&mut self, mut stream: TcpStream) {
        loop {
            let frame = match read_frame(&mut stream) {
                Ok(Some(frame)) => frame,
                Ok(None) => break, // clean disconnect
                Err(FrameError::TooLarge(n)) => {
                    // Answer, then hang up: the stream position is lost.
                    let resp = Response::Error(ServeError::new(
                        ErrorKind::FrameTooLarge,
                        format!("declared frame of {n} bytes exceeds the limit"),
                    ));
                    let _ = write_frame(&mut stream, resp.to_json().as_bytes());
                    // Briefly drain whatever the peer already sent: closing
                    // with unread bytes in the receive buffer raises an RST
                    // that can destroy the refusal before the peer reads it.
                    drain(&mut stream);
                    break;
                }
                Err(FrameError::Io(_)) => break, // truncated mid-frame
            };
            let resp = match Request::parse(&frame) {
                Ok(req) => self.dispatch(req),
                Err(e) => Response::Error(e),
            };
            if write_frame(&mut stream, resp.to_json().as_bytes()).is_err() {
                break;
            }
        }
        // Disconnect (clean or not) closes any session left open, so its
        // audit file still ends with the exact ledger.
        self.close_session();
    }

    fn dispatch(&mut self, req: Request) -> Response {
        match req {
            Request::Open { analyst } => {
                if let Some(s) = &self.session {
                    return Response::Error(ServeError::new(
                        ErrorKind::SessionAlreadyOpen,
                        format!("this connection already drives session {}", s.id()),
                    ));
                }
                let session = self.broker.open(&analyst);
                if let Some(dir) = &self.audit_dir {
                    let path = dir.join(format!(
                        "session-{}-{}.jsonl",
                        session.id(),
                        sanitize(&analyst)
                    ));
                    match File::create(&path) {
                        Ok(f) => {
                            let acct = session.accountant();
                            acct.set_sink(Some(Arc::new(JsonlSink::new(f))));
                            // The file is the spend log: the close-time
                            // export adds only the exact totals.
                            acct.set_log_capacity(0);
                            self.audit_path = Some(path);
                        }
                        Err(_) => self.audit_path = None,
                    }
                }
                let resp = Response::Opened {
                    session: session.id(),
                    analyst,
                };
                self.session = Some(session);
                resp
            }
            Request::Query { analysis, eps } => match self.require_session() {
                Err(e) => Response::Error(e),
                Ok(s) => match self.broker.query(s.id(), &analysis, eps) {
                    Ok((out, wall_ns)) => Response::Values {
                        analysis,
                        eps,
                        values: out.values,
                        text: out.text,
                        wall_ns,
                    },
                    Err(e) => Response::Error(e),
                },
            },
            Request::Spend => match self.require_session() {
                Err(e) => Response::Error(e),
                Ok(s) => {
                    let snap = s.snapshot();
                    Response::Spend(SpendWire {
                        session: snap.session_id,
                        analyst: snap.analyst,
                        session_spent: snap.session_spent,
                        analyst_spent: snap.analyst_spent,
                        analyst_cap: snap.analyst_cap,
                        global_spent: snap.global_spent,
                        global_total: snap.global_total,
                    })
                }
            },
            Request::Ledger => Response::Ledger(self.broker.ledger()),
            Request::Analyses => Response::Analyses(self.broker.catalogue()),
            Request::Ping => Response::Pong,
            Request::Close => match self.close_session() {
                Some((id, spent)) => Response::Closed {
                    session: id,
                    session_spent: spent,
                },
                None => Response::Error(ServeError::new(
                    ErrorKind::SessionNotOpen,
                    "no session open on this connection",
                )),
            },
        }
    }

    fn require_session(&self) -> Result<&Arc<Session<Packet>>, ServeError> {
        self.session.as_ref().ok_or_else(|| {
            ServeError::new(
                ErrorKind::SessionNotOpen,
                "open a session first: {\"op\":\"open\",\"analyst\":...}",
            )
        })
    }

    /// Close the connection's session if one is open: detach the live
    /// audit sink, append the exact spend ledger to the session's audit
    /// file, and release it from the broker.
    fn close_session(&mut self) -> Option<(u64, f64)> {
        let session = self.session.take()?;
        session.accountant().set_sink(None);
        if let Some(path) = self.audit_path.take() {
            if let Ok(mut f) = File::options().append(true).open(&path) {
                let _ = session.export_audit_jsonl(&mut f);
                let _ = f.flush();
            }
        }
        let id = session.id();
        drop(session);
        let spent = match self.broker.close(id) {
            Ok(spend) => spend.session_spent,
            Err(_) => 0.0,
        };
        Some((id, spent))
    }
}

/// Swallow pending input for a bounded moment so a close after a protocol
/// error delivers as FIN, not RST (which would discard the in-flight
/// typed refusal on many TCP stacks).
fn drain(stream: &mut TcpStream) {
    use std::io::Read as _;
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(50)));
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(250);
    let mut sink = [0u8; 4096];
    while std::time::Instant::now() < deadline {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Keep analyst-derived file names to a safe alphabet.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .take(64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_keeps_names_path_safe() {
        assert_eq!(sanitize("alice"), "alice");
        assert_eq!(sanitize("../../etc/passwd"), "______etc_passwd");
        assert_eq!(sanitize("a b\"c"), "a_b_c");
    }
}

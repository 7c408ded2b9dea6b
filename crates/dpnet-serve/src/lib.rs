//! # dpnet-serve — the owner-side serving daemon
//!
//! The paper's deployment model (§7) is *mediated* analysis: the data
//! owner holds the raw trace and runs PINQ queries on behalf of untrusted
//! analysts, under budget policies. This crate is that mediation as a
//! network service:
//!
//! * the daemon loads a protected trace **once** as one shared shard — every
//!   analyst session reuses the same records zero-copy;
//! * analysts connect over TCP and speak a length-framed JSON protocol
//!   ([`protocol`]): open a session, invoke catalogued analyses by name
//!   with a per-request ε, read spend snapshots, close;
//! * a [`broker::QueryBroker`] admission layer schedules query jobs onto
//!   one shared `ExecPool` (bounded concurrency) and converts kernel
//!   budget refusals into graceful, typed `budget_exhausted` responses —
//!   a refused analyst keeps their connection and their remaining budget;
//! * per-session audit JSONL streams live to the owner's audit directory
//!   and each file ends with the session's exact spend ledger.
//!
//! Everything is `std::net` + threads: no async runtime, no new
//! dependencies. The privacy semantics live below in `pinq` — this crate
//! never touches ε state directly; it can only open sessions and run
//! registry analyses, and the sealed kernel enforces every charge.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod broker;
pub mod client;
pub mod loadtest;
pub mod protocol;
pub mod server;

pub use broker::{BrokerConfig, QueryBroker};
pub use client::{Client, ClientError};
pub use loadtest::{run_loadtest, LoadtestConfig, LoadtestOutcome};
pub use protocol::{ErrorKind, Request, Response, ServeError, MAX_FRAME};
pub use server::{serve, ServeConfig, ServerHandle};

use dpnet_trace::Packet;
use std::sync::Arc;

/// The one-time load the daemon does before accepting sessions: the trace
/// as one shared shard, with no copy. Sessions address records by global
/// index and the worker pool splits its tasks by range, so the shard
/// layout changes no release. A pre-sharded trace can be passed to
/// [`serve`] directly instead.
pub fn shard_packets(packets: Vec<Packet>) -> Vec<Arc<Vec<Packet>>> {
    vec![Arc::new(packets)]
}

#[cfg(test)]
pub(crate) mod testdata {
    use dpnet_trace::{Packet, Proto, TcpFlags};

    /// A tiny deterministic synthetic trace: enough structure for `count`
    /// and `heavy-hosts` to release something, cheap enough for unit tests.
    pub fn packets(n: u32) -> Vec<Packet> {
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
                payload: Vec::new().into(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharding_preserves_order_and_length() {
        let packets: Vec<Packet> = Vec::new();
        assert_eq!(shard_packets(packets).len(), 1);

        let many = testdata::packets(3 * 8 * 8192 / 2);
        let flat: Vec<Packet> = many.clone();
        let data = many.as_ptr();
        let shards = shard_packets(many);
        // One shard, and its buffer is the input's allocation: no copy.
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].as_ptr(), data);
        assert_eq!(*shards[0], flat);
    }
}

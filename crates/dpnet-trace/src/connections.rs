//! TCP connection identification — the paper's §5.2.1 missing piece.
//!
//! Swing computes statistics *per connection* (e.g. packets per
//! connection), but "a (5-tuple) flow may include multiple TCP connections,
//! and we could not isolate the connections within a flow using the
//! currently available operations. … The data owner could pre-process the
//! traces to add a 'connection id' field." This module is that owner-side
//! pre-processing: it walks a trace and annotates every TCP packet with a
//! connection identifier, splitting a conversation at each fresh client SYN.
//!
//! With the annotation in place, connection-level analyses become ordinary
//! `GroupBy(conn_id)` queries — see
//! `dpnet_analyses::flow_stats::connection_size_cdf`.

use crate::flow::FlowKey;
use crate::packet::Packet;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// A packet annotated with the TCP connection it belongs to. Non-TCP
/// packets receive a connection id derived from their flow alone.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConnPacket {
    /// Opaque connection identifier: stable across runs for the same trace.
    pub conn_id: u64,
    /// The annotated packet.
    pub packet: Packet,
}

fn conn_hash(key: &FlowKey, ordinal: u32) -> u64 {
    let mut h = DefaultHasher::new();
    (key.canonical(), ordinal).hash(&mut h);
    h.finish()
}

/// Annotate a time-sorted trace with connection ids.
///
/// Within each bidirectional conversation (canonical 5-tuple), a *pure SYN*
/// (SYN without ACK) that follows any earlier traffic of the conversation
/// starts a new connection; every subsequent packet belongs to that
/// connection until the next such SYN. Packets seen before any SYN (a
/// capture that starts mid-connection) belong to ordinal 0 — distinct from
/// the connection a later SYN opens. A *retransmitted* SYN therefore also
/// splits; that only matters when the original got no reply at all, an
/// acceptable owner-side semantic.
pub fn annotate_connections(packets: &[Packet]) -> Vec<ConnPacket> {
    let mut ordinal: HashMap<FlowKey, u32> = HashMap::new();
    let mut seen_any: HashMap<FlowKey, bool> = HashMap::new();
    packets
        .iter()
        .map(|p| {
            let key = FlowKey::of(p).canonical();
            if key.is_tcp() && p.flags.is_syn() && !p.flags.is_ack() {
                let ord = ordinal.entry(key).or_insert(0);
                if *seen_any.get(&key).unwrap_or(&false) {
                    *ord += 1;
                }
            }
            seen_any.insert(key, true);
            let ord = *ordinal.get(&key).unwrap_or(&0);
            ConnPacket {
                conn_id: conn_hash(&key, ord),
                packet: p.clone(),
            }
        })
        .collect()
}

/// Exact packets-per-connection sizes (the noise-free baseline for the
/// connection-level Swing statistic), for TCP connections only.
pub fn packets_per_connection(packets: &[Packet]) -> Vec<usize> {
    let annotated = annotate_connections(packets);
    let mut counts: HashMap<u64, usize> = HashMap::new();
    for cp in &annotated {
        if FlowKey::of(&cp.packet).is_tcp() {
            *counts.entry(cp.conn_id).or_default() += 1;
        }
    }
    let mut out: Vec<usize> = counts.into_values().collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Proto, TcpFlags};

    fn tcp(
        ts: u64,
        src: u32,
        dst: u32,
        sp: u16,
        dp: u16,
        flags: TcpFlags,
        payload: usize,
    ) -> Packet {
        Packet {
            ts_us: ts,
            src_ip: src,
            dst_ip: dst,
            src_port: sp,
            dst_port: dp,
            proto: Proto::Tcp,
            len: (40 + payload) as u16,
            flags,
            seq: ts as u32,
            ack: 0,
            payload: vec![0; payload].into(),
        }
    }

    #[test]
    fn one_connection_keeps_one_id() {
        let pkts = vec![
            tcp(0, 1, 2, 10, 80, TcpFlags::syn(), 0),
            tcp(1, 2, 1, 80, 10, TcpFlags::syn_ack(), 0),
            tcp(2, 1, 2, 10, 80, TcpFlags::ack(), 100),
            tcp(3, 2, 1, 80, 10, TcpFlags::ack(), 100),
        ];
        let annotated = annotate_connections(&pkts);
        let ids: std::collections::HashSet<u64> = annotated.iter().map(|c| c.conn_id).collect();
        assert_eq!(ids.len(), 1, "both directions share one connection");
    }

    #[test]
    fn second_syn_starts_a_new_connection() {
        let pkts = vec![
            tcp(0, 1, 2, 10, 80, TcpFlags::syn(), 0),
            tcp(1, 1, 2, 10, 80, TcpFlags::ack(), 50),
            tcp(
                2,
                1,
                2,
                10,
                80,
                TcpFlags::new(false, true, true, false, false),
                0,
            ),
            tcp(3, 1, 2, 10, 80, TcpFlags::syn(), 0), // connection #2
            tcp(4, 1, 2, 10, 80, TcpFlags::ack(), 50),
        ];
        let annotated = annotate_connections(&pkts);
        assert_eq!(annotated[0].conn_id, annotated[1].conn_id);
        assert_eq!(annotated[0].conn_id, annotated[2].conn_id);
        assert_ne!(annotated[2].conn_id, annotated[3].conn_id);
        assert_eq!(annotated[3].conn_id, annotated[4].conn_id);
    }

    #[test]
    fn retransmitted_syn_does_not_split() {
        // A retransmitted SYN is still the first handshake: but our rule
        // splits on every fresh SYN after traffic. A SYN immediately
        // following a SYN (no intervening established traffic) is the same
        // connection in spirit; the rule splits it, which only matters if
        // the first SYN got no reply — acceptable owner-side semantics.
        // What we *do* guarantee: SYN-ACKs never split.
        let pkts = vec![
            tcp(0, 1, 2, 10, 80, TcpFlags::syn(), 0),
            tcp(1, 2, 1, 80, 10, TcpFlags::syn_ack(), 0),
            tcp(2, 2, 1, 80, 10, TcpFlags::syn_ack(), 0), // retransmitted SYN-ACK
            tcp(3, 1, 2, 10, 80, TcpFlags::ack(), 10),
        ];
        let annotated = annotate_connections(&pkts);
        let ids: std::collections::HashSet<u64> = annotated.iter().map(|c| c.conn_id).collect();
        assert_eq!(ids.len(), 1);
    }

    #[test]
    fn mid_capture_traffic_gets_ordinal_zero() {
        let pkts = vec![
            tcp(0, 1, 2, 10, 80, TcpFlags::ack(), 10), // no SYN seen yet
            tcp(1, 1, 2, 10, 80, TcpFlags::syn(), 0),  // later: a real new conn
            tcp(2, 1, 2, 10, 80, TcpFlags::ack(), 10),
        ];
        let annotated = annotate_connections(&pkts);
        // The pre-SYN packet and post-SYN packets belong to different
        // connections.
        assert_ne!(annotated[0].conn_id, annotated[1].conn_id);
        assert_eq!(annotated[1].conn_id, annotated[2].conn_id);
    }

    #[test]
    fn different_flows_never_share_ids() {
        let pkts = vec![
            tcp(0, 1, 2, 10, 80, TcpFlags::syn(), 0),
            tcp(1, 3, 4, 10, 80, TcpFlags::syn(), 0),
        ];
        let annotated = annotate_connections(&pkts);
        assert_ne!(annotated[0].conn_id, annotated[1].conn_id);
    }

    #[test]
    fn packets_per_connection_counts_both_directions() {
        let pkts = vec![
            tcp(0, 1, 2, 10, 80, TcpFlags::syn(), 0),
            tcp(1, 2, 1, 80, 10, TcpFlags::syn_ack(), 0),
            tcp(2, 1, 2, 10, 80, TcpFlags::ack(), 10),
            tcp(3, 1, 2, 10, 80, TcpFlags::syn(), 0), // second connection
            tcp(4, 2, 1, 80, 10, TcpFlags::syn_ack(), 0),
        ];
        let sizes = packets_per_connection(&pkts);
        assert_eq!(sizes, vec![2, 3]);
    }

    #[test]
    fn ids_are_stable_across_runs() {
        let pkts = vec![tcp(0, 1, 2, 10, 80, TcpFlags::syn(), 0)];
        let a = annotate_connections(&pkts);
        let b = annotate_connections(&pkts);
        assert_eq!(a[0].conn_id, b[0].conn_id);
    }
}

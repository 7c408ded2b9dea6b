//! Flow abstraction: the standard 5-tuple and flow assembly.
//!
//! "A flow refers to the standard 5-tuple" (paper §5.2.1). This module
//! provides the key type, directionless canonicalization (so both directions
//! of a TCP conversation map to one bidirectional flow when desired), and
//! helpers to assemble per-flow packet lists — used by the non-private
//! baseline implementations and by the trace generators' self-checks.

use crate::packet::{Packet, Proto};
use std::collections::HashMap;

/// The standard directed 5-tuple flow key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// IANA protocol number.
    pub proto: u8,
}

impl FlowKey {
    /// Extract the directed flow key of a packet.
    pub fn of(p: &Packet) -> Self {
        FlowKey {
            src_ip: p.src_ip,
            dst_ip: p.dst_ip,
            src_port: p.src_port,
            dst_port: p.dst_port,
            proto: p.proto.number(),
        }
    }

    /// The key of the reverse direction.
    pub fn reversed(self) -> Self {
        FlowKey {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            proto: self.proto,
        }
    }

    /// Canonical bidirectional key: the lexicographically smaller of the
    /// two directions, so a conversation's packets share one key.
    pub fn canonical(self) -> Self {
        let rev = self.reversed();
        if (self.src_ip, self.src_port) <= (rev.src_ip, rev.src_port) {
            self
        } else {
            rev
        }
    }

    /// Whether this is a TCP flow.
    pub fn is_tcp(&self) -> bool {
        self.proto == Proto::Tcp.number()
    }
}

/// Group packets into directed flows, preserving packet order within each
/// flow. Returns flows in first-appearance order.
pub fn assemble_flows(packets: &[Packet]) -> Vec<(FlowKey, Vec<&Packet>)> {
    let mut order: Vec<FlowKey> = Vec::new();
    let mut flows: HashMap<FlowKey, Vec<&Packet>> = HashMap::new();
    for p in packets {
        let k = FlowKey::of(p);
        flows
            .entry(k)
            .or_insert_with(|| {
                order.push(k);
                Vec::new()
            })
            .push(p);
    }
    order
        .into_iter()
        .map(|k| {
            let v = flows.remove(&k).expect("flow recorded on first sight");
            (k, v)
        })
        .collect()
}

/// Group packets into bidirectional conversations keyed canonically.
pub fn assemble_conversations(packets: &[Packet]) -> Vec<(FlowKey, Vec<&Packet>)> {
    let mut order: Vec<FlowKey> = Vec::new();
    let mut flows: HashMap<FlowKey, Vec<&Packet>> = HashMap::new();
    for p in packets {
        let k = FlowKey::of(p).canonical();
        flows
            .entry(k)
            .or_insert_with(|| {
                order.push(k);
                Vec::new()
            })
            .push(p);
    }
    order
        .into_iter()
        .map(|k| {
            let v = flows.remove(&k).expect("flow recorded on first sight");
            (k, v)
        })
        .collect()
}

/// Summary statistics of one directed flow, for generator self-checks and
/// baseline analyses.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSummary {
    /// The flow key.
    pub key: FlowKey,
    /// Number of packets.
    pub packets: usize,
    /// Total bytes.
    pub bytes: u64,
    /// First packet timestamp (µs).
    pub first_ts_us: u64,
    /// Last packet timestamp (µs).
    pub last_ts_us: u64,
}

impl FlowSummary {
    /// Flow duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.last_ts_us.saturating_sub(self.first_ts_us)
    }
}

/// Compute summaries for all directed flows in a trace.
pub fn summarize_flows(packets: &[Packet]) -> Vec<FlowSummary> {
    assemble_flows(packets)
        .into_iter()
        .map(|(key, pkts)| {
            let bytes = pkts.iter().map(|p| p.len as u64).sum();
            let first_ts_us = pkts.iter().map(|p| p.ts_us).min().unwrap_or(0);
            let last_ts_us = pkts.iter().map(|p| p.ts_us).max().unwrap_or(0);
            FlowSummary {
                key,
                packets: pkts.len(),
                bytes,
                first_ts_us,
                last_ts_us,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TcpFlags;

    fn pkt(ts: u64, src: u32, dst: u32, sp: u16, dp: u16, len: u16) -> Packet {
        Packet {
            ts_us: ts,
            src_ip: src,
            dst_ip: dst,
            src_port: sp,
            dst_port: dp,
            proto: Proto::Tcp,
            len,
            flags: TcpFlags::ack(),
            seq: 0,
            ack: 0,
            payload: vec![].into(),
        }
    }

    #[test]
    fn reversed_swaps_endpoints() {
        let k = FlowKey {
            src_ip: 1,
            dst_ip: 2,
            src_port: 10,
            dst_port: 20,
            proto: 6,
        };
        let r = k.reversed();
        assert_eq!(r.src_ip, 2);
        assert_eq!(r.dst_port, 10);
        assert_eq!(r.reversed(), k);
    }

    #[test]
    fn canonical_is_direction_independent() {
        let k = FlowKey {
            src_ip: 9,
            dst_ip: 2,
            src_port: 10,
            dst_port: 20,
            proto: 6,
        };
        assert_eq!(k.canonical(), k.reversed().canonical());
    }

    #[test]
    fn flows_are_assembled_in_order() {
        let pkts = vec![
            pkt(0, 1, 2, 10, 80, 100),
            pkt(1, 3, 4, 11, 80, 100),
            pkt(2, 1, 2, 10, 80, 200),
        ];
        let flows = assemble_flows(&pkts);
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[0].1.len(), 2);
        assert_eq!(flows[1].1.len(), 1);
        assert_eq!(flows[0].0.src_ip, 1);
    }

    #[test]
    fn conversations_merge_directions() {
        let pkts = vec![pkt(0, 1, 2, 10, 80, 100), pkt(1, 2, 1, 80, 10, 100)];
        let convs = assemble_conversations(&pkts);
        assert_eq!(convs.len(), 1);
        assert_eq!(convs[0].1.len(), 2);
    }

    #[test]
    fn summaries_account_bytes_and_duration() {
        let pkts = vec![pkt(100, 1, 2, 10, 80, 100), pkt(600, 1, 2, 10, 80, 150)];
        let sums = summarize_flows(&pkts);
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].packets, 2);
        assert_eq!(sums[0].bytes, 250);
        assert_eq!(sums[0].duration_us(), 500);
    }
}

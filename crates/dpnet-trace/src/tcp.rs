//! TCP-level trace interpretation: handshakes, retransmissions, activations.
//!
//! These are the *noise-free* reference computations the paper compares its
//! private implementations against:
//!
//! * RTT from the SYN → SYN-ACK handshake (Swing, §5.2.1);
//! * downstream loss rate from retransmissions — duplicate sequence numbers
//!   within a flow (§5.2.1);
//! * retransmission time differences (the Figure 1 distribution);
//! * idle→active *activation* events at a timeout `T_idle` (stepping-stone
//!   detection, §5.2.2).

use crate::flow::{assemble_flows, FlowKey};
use crate::packet::Packet;
use std::collections::{HashMap, HashSet};

/// RTT samples, one per observed SYN/SYN-ACK handshake, in microseconds.
///
/// A SYN from `c → s` with sequence `x` is matched with the first
/// SYN-ACK from `s → c` whose acknowledgment is `x + 1`, and the time
/// difference is the handshake RTT at the monitor. Considering only the
/// handshake means delayed acknowledgments do not perturb the estimate.
pub fn handshake_rtts(packets: &[Packet]) -> Vec<u64> {
    // Map (src, dst, sport, dport, expected_ack) -> syn timestamp.
    let mut pending: HashMap<(u32, u32, u16, u16, u32), u64> = HashMap::new();
    let mut rtts = Vec::new();
    for p in packets {
        if p.flags.is_syn() && !p.flags.is_ack() {
            pending
                .entry((
                    p.src_ip,
                    p.dst_ip,
                    p.src_port,
                    p.dst_port,
                    p.seq.wrapping_add(1),
                ))
                .or_insert(p.ts_us);
        } else if p.flags.is_syn() && p.flags.is_ack() {
            let key = (p.dst_ip, p.src_ip, p.dst_port, p.src_port, p.ack);
            if let Some(t_syn) = pending.remove(&key) {
                rtts.push(p.ts_us.saturating_sub(t_syn));
            }
        }
    }
    rtts
}

/// Per-flow downstream loss rate, Swing-style: within each directed flow,
/// `1 − distinct(seq) / total` over TCP *data* packets (non-SYN, non-empty
/// payload), computed for flows with more than `min_packets` data packets.
/// Returns `(flow, loss_rate)` pairs.
pub fn flow_loss_rates(packets: &[Packet], min_packets: usize) -> Vec<(FlowKey, f64)> {
    let data: Vec<Packet> = packets
        .iter()
        .filter(|p| FlowKey::of(p).is_tcp() && !p.flags.is_syn() && !p.payload.is_empty())
        .cloned()
        .collect();
    assemble_flows(&data)
        .into_iter()
        .filter(|(_, pkts)| pkts.len() > min_packets)
        .map(|(k, pkts)| {
            let distinct: HashSet<u32> = pkts.iter().map(|p| p.seq).collect();
            let rate = 1.0 - distinct.len() as f64 / pkts.len() as f64;
            (k, rate)
        })
        .collect()
}

/// Time differences between each data packet and its retransmission, in
/// microseconds. A retransmission is a later packet in the same directed
/// flow with the same sequence number. Differences are measured between
/// consecutive transmissions of the same sequence number.
pub fn retransmission_delays(packets: &[Packet]) -> Vec<u64> {
    let mut last_seen: HashMap<(FlowKey, u32), u64> = HashMap::new();
    let mut delays = Vec::new();
    for p in packets {
        if !FlowKey::of(p).is_tcp() || p.flags.is_syn() || p.payload.is_empty() {
            continue;
        }
        let key = (FlowKey::of(p), p.seq);
        if let Some(prev) = last_seen.insert(key, p.ts_us) {
            delays.push(p.ts_us.saturating_sub(prev));
        }
    }
    delays
}

/// An idle→active transition of a flow: the first packet after at least
/// `t_idle_us` of silence on that flow (the flow's very first packet also
/// counts as an activation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Activation {
    /// The flow that became active.
    pub flow: FlowKey,
    /// Activation time (µs).
    pub ts_us: u64,
}

/// Extract all activations at idle threshold `t_idle_us` (the paper uses
/// `T_idle` = 0.5 s). This is the exact sliding-window computation; the
/// private analysis approximates it with bucketed grouping.
pub fn activations(packets: &[Packet], t_idle_us: u64) -> Vec<Activation> {
    let mut last: HashMap<FlowKey, u64> = HashMap::new();
    let mut out = Vec::new();
    for p in packets {
        let k = FlowKey::of(p);
        match last.get(&k) {
            None => out.push(Activation {
                flow: k,
                ts_us: p.ts_us,
            }),
            Some(&prev) if p.ts_us.saturating_sub(prev) >= t_idle_us => out.push(Activation {
                flow: k,
                ts_us: p.ts_us,
            }),
            _ => {}
        }
        last.insert(k, p.ts_us);
    }
    out
}

/// Correlation score between two flows' activation trains, following Zhang &
/// Paxson: the fraction of flow A's activations that are followed by an
/// activation of flow B within `delta_us` (the paper uses δ = 40 ms),
/// relative to all of A's activations.
pub fn activation_correlation(a: &[u64], b: &[u64], delta_us: u64) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    let mut sorted_b = b.to_vec();
    sorted_b.sort_unstable();
    let mut correlated = 0usize;
    for &t in a {
        // Find any activation of B within [t, t + delta].
        let idx = sorted_b.partition_point(|&x| x < t);
        if idx < sorted_b.len() && sorted_b[idx] <= t.saturating_add(delta_us) {
            correlated += 1;
        }
    }
    correlated as f64 / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Proto, TcpFlags};

    #[allow(clippy::too_many_arguments)]
    fn tcp(
        ts: u64,
        src: u32,
        dst: u32,
        sp: u16,
        dp: u16,
        flags: TcpFlags,
        seq: u32,
        ack: u32,
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
            seq,
            ack,
            payload: vec![0xab; payload].into(),
        }
    }

    #[test]
    fn handshake_rtt_is_extracted() {
        let pkts = vec![
            tcp(1000, 1, 2, 40000, 80, TcpFlags::syn(), 100, 0, 0),
            tcp(51_000, 2, 1, 80, 40000, TcpFlags::syn_ack(), 500, 101, 0),
        ];
        assert_eq!(handshake_rtts(&pkts), vec![50_000]);
    }

    #[test]
    fn unmatched_synack_yields_no_rtt() {
        // Wrong ack number: not the handshake completion.
        let pkts = vec![
            tcp(0, 1, 2, 40000, 80, TcpFlags::syn(), 100, 0, 0),
            tcp(1000, 2, 1, 80, 40000, TcpFlags::syn_ack(), 500, 999, 0),
        ];
        assert!(handshake_rtts(&pkts).is_empty());
    }

    #[test]
    fn retransmitted_syn_uses_first_transmission() {
        let pkts = vec![
            tcp(0, 1, 2, 40000, 80, TcpFlags::syn(), 100, 0, 0),
            tcp(200_000, 1, 2, 40000, 80, TcpFlags::syn(), 100, 0, 0),
            tcp(250_000, 2, 1, 80, 40000, TcpFlags::syn_ack(), 7, 101, 0),
        ];
        // RTT measured from the first SYN, as a monitor would.
        assert_eq!(handshake_rtts(&pkts), vec![250_000]);
    }

    #[test]
    fn loss_rate_counts_duplicate_sequence_numbers() {
        let mut pkts = Vec::new();
        // 20 distinct data packets, 5 retransmitted once → loss 5/25.
        for i in 0..20u32 {
            pkts.push(tcp(
                i as u64 * 1000,
                1,
                2,
                10,
                80,
                TcpFlags::ack(),
                i * 1000,
                0,
                100,
            ));
        }
        for i in 0..5u32 {
            pkts.push(tcp(
                100_000 + i as u64,
                1,
                2,
                10,
                80,
                TcpFlags::ack(),
                i * 1000,
                0,
                100,
            ));
        }
        let rates = flow_loss_rates(&pkts, 10);
        assert_eq!(rates.len(), 1);
        assert!((rates[0].1 - 0.2).abs() < 1e-9);
    }

    #[test]
    fn small_flows_are_excluded_from_loss() {
        let pkts = vec![tcp(0, 1, 2, 10, 80, TcpFlags::ack(), 0, 0, 100)];
        assert!(flow_loss_rates(&pkts, 10).is_empty());
    }

    #[test]
    fn retransmission_delays_are_pairwise() {
        let pkts = vec![
            tcp(0, 1, 2, 10, 80, TcpFlags::ack(), 42, 0, 100),
            tcp(30_000, 1, 2, 10, 80, TcpFlags::ack(), 42, 0, 100),
            tcp(90_000, 1, 2, 10, 80, TcpFlags::ack(), 42, 0, 100),
        ];
        assert_eq!(retransmission_delays(&pkts), vec![30_000, 60_000]);
    }

    #[test]
    fn pure_acks_do_not_count_as_retransmissions() {
        let pkts = vec![
            tcp(0, 1, 2, 10, 80, TcpFlags::ack(), 42, 0, 0),
            tcp(1000, 1, 2, 10, 80, TcpFlags::ack(), 42, 0, 0),
        ];
        assert!(retransmission_delays(&pkts).is_empty());
    }

    #[test]
    fn activations_fire_after_idle_timeout() {
        let pkts = vec![
            tcp(0, 1, 2, 10, 80, TcpFlags::ack(), 0, 0, 10), // first → activation
            tcp(100_000, 1, 2, 10, 80, TcpFlags::ack(), 1, 0, 10), // busy
            tcp(700_000, 1, 2, 10, 80, TcpFlags::ack(), 2, 0, 10), // idle 600ms → activation
        ];
        let acts = activations(&pkts, 500_000);
        assert_eq!(acts.len(), 2);
        assert_eq!(acts[1].ts_us, 700_000);
    }

    #[test]
    fn correlation_counts_nearby_activations() {
        let a = vec![0, 1_000_000, 2_000_000, 3_000_000];
        let b = vec![10_000, 1_010_000, 2_500_000];
        // First two activations of A are followed by B within 40 ms.
        let c = activation_correlation(&a, &b, 40_000);
        assert!((c - 0.5).abs() < 1e-9);
    }

    #[test]
    fn correlation_of_empty_train_is_zero() {
        assert_eq!(activation_correlation(&[], &[1], 1000), 0.0);
    }
}

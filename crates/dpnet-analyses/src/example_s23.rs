//! The paper's §2.3 worked example.
//!
//! "Suppose we want to count distinct hosts that send more than 1024 bytes
//! to port 80." The computation groups packets by source, restricts on the
//! per-group byte total, and counts — the canonical first PINQ query. On
//! the paper's Hotspot trace the noise-free answer is 120; a run at
//! ε = 0.1 returned 121, with expected error ±10.

use dpnet_trace::Packet;
use pinq::{Queryable, Result};

/// Privately count distinct hosts sending more than `byte_threshold` bytes
/// to `port`. Privacy cost: `2ε` (the `GroupBy` doubles sensitivity).
pub fn heavy_hosts_to_port(
    packets: &Queryable<Packet>,
    port: u16,
    byte_threshold: u64,
    eps: f64,
) -> Result<f64> {
    packets
        .filter(move |p| p.dst_port == port)
        .group_by(|p| p.src_ip)
        .filter(move |g| g.items.iter().map(|p| p.len as u64).sum::<u64>() > byte_threshold)
        .noisy_count(eps)
}

/// Noise-free reference for the same computation.
pub fn heavy_hosts_to_port_exact(packets: &[Packet], port: u16, byte_threshold: u64) -> usize {
    let mut per_host: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    for p in packets {
        if p.dst_port == port {
            *per_host.entry(p.src_ip).or_default() += p.len as u64;
        }
    }
    per_host.values().filter(|&&b| b > byte_threshold).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpnet_trace::{Proto, TcpFlags};
    use pinq::{Accountant, NoiseSource};

    fn pkt(src: u32, port: u16, len: u16) -> Packet {
        Packet {
            ts_us: 0,
            src_ip: src,
            dst_ip: 1,
            src_port: 40000,
            dst_port: port,
            proto: Proto::Tcp,
            len,
            flags: TcpFlags::ack(),
            seq: 0,
            ack: 0,
            payload: vec![].into(),
        }
    }

    fn trace() -> Vec<Packet> {
        let mut v = Vec::new();
        // 120 heavy hosts: two packets of 600 bytes each to port 80.
        for h in 0..120 {
            v.push(pkt(h, 80, 600));
            v.push(pkt(h, 80, 600));
        }
        // Light hosts and other-port traffic.
        for h in 1000..1100 {
            v.push(pkt(h, 80, 100));
            v.push(pkt(h, 443, 1492));
        }
        v
    }

    #[test]
    fn exact_answer_is_120() {
        assert_eq!(heavy_hosts_to_port_exact(&trace(), 80, 1024), 120);
    }

    #[test]
    fn private_answer_is_close_at_eps_01() {
        let acct = Accountant::new(100.0);
        let noise = NoiseSource::seeded(23);
        let q = Queryable::new(trace(), &acct, &noise);
        let mut answers = Vec::new();
        for _ in 0..50 {
            answers.push(heavy_hosts_to_port(&q, 80, 1024, 0.1).unwrap());
        }
        let mean: f64 = answers.iter().sum::<f64>() / answers.len() as f64;
        assert!((mean - 120.0).abs() < 8.0, "mean {mean}");
        // Mean absolute error ≈ 1/ε = 10 at ε = 0.1 (paper: "±10").
        let mae: f64 =
            answers.iter().map(|a| (a - 120.0).abs()).sum::<f64>() / answers.len() as f64;
        assert!(mae < 30.0, "mae {mae}");
    }

    #[test]
    fn privacy_cost_is_two_eps() {
        let acct = Accountant::new(1.0);
        let noise = NoiseSource::seeded(29);
        let q = Queryable::new(trace(), &acct, &noise);
        heavy_hosts_to_port(&q, 80, 1024, 0.1).unwrap();
        assert!((acct.spent() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn byte_threshold_is_respected() {
        // Raising the threshold above every host's total yields ~0.
        let acct = Accountant::new(100.0);
        let noise = NoiseSource::seeded(31);
        let q = Queryable::new(trace(), &acct, &noise);
        let c = heavy_hosts_to_port(&q, 80, 10_000_000, 10.0).unwrap();
        assert!(c.abs() < 2.0, "count {c}");
    }
}

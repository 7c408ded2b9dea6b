//! Libpcap-format export/import.
//!
//! Bridges the synthetic world and real tooling: generated traces can be
//! opened in Wireshark/tcpdump, and (synthesized) captures written by this
//! module can be read back. Frames are built as Ethernet II + IPv4 +
//! TCP/UDP with correct lengths; other protocols carry the payload raw
//! above IPv4.
//!
//! Fidelity notes: the `Packet` model stores a snaplen-style payload prefix
//! and a separate wire length, so `orig_len` records the wire length while
//! `incl_len` covers the synthesized frame. TCP and UDP packets round-trip
//! exactly (timestamps, addresses, ports, seq/ack, flags, payload, wire
//! length ≥ header sizes); ICMP/other lose port fields (they have none).

use super::Cursor;
use crate::packet::{Packet, Proto, TcpFlags};
use std::io::{Read, Write};
use std::sync::Arc;

/// pcap magic, microsecond timestamps, little-endian.
pub const PCAP_MAGIC: u32 = 0xa1b2_c3d4;
const LINKTYPE_ETHERNET: u32 = 1;
const ETH_LEN: usize = 14;
const IP_LEN: usize = 20;
const TCP_LEN: usize = 20;
const UDP_LEN: usize = 8;

/// Errors from pcap I/O.
#[derive(Debug)]
pub enum PcapError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Wrong magic number.
    BadMagic(u32),
    /// Unsupported link type (only Ethernet is read).
    BadLinkType(u32),
    /// Truncated file or frame.
    Truncated,
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "I/O error: {e}"),
            PcapError::BadMagic(m) => write!(f, "bad pcap magic {m:#x}"),
            PcapError::BadLinkType(t) => write!(f, "unsupported link type {t}"),
            PcapError::Truncated => write!(f, "truncated pcap"),
        }
    }
}

impl std::error::Error for PcapError {}

impl From<std::io::Error> for PcapError {
    fn from(e: std::io::Error) -> Self {
        PcapError::Io(e)
    }
}

fn l4_header_len(proto: Proto) -> usize {
    match proto {
        Proto::Tcp => TCP_LEN,
        Proto::Udp => UDP_LEN,
        _ => 0,
    }
}

/// Write a trace as a pcap file.
pub fn write_pcap<W: Write>(mut w: W, packets: &[Packet]) -> Result<(), PcapError> {
    let mut buf = Vec::with_capacity(24 + packets.len() * 96);
    buf.extend_from_slice(&PCAP_MAGIC.to_le_bytes());
    buf.extend_from_slice(&2u16.to_le_bytes()); // version major
    buf.extend_from_slice(&4u16.to_le_bytes()); // version minor
    buf.extend_from_slice(&0i32.to_le_bytes()); // thiszone
    buf.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
    buf.extend_from_slice(&65535u32.to_le_bytes()); // snaplen
    buf.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());

    for p in packets {
        let frame = build_frame(p);
        let orig = (ETH_LEN + p.len as usize).max(frame.len());
        buf.extend_from_slice(&((p.ts_us / 1_000_000) as u32).to_le_bytes());
        buf.extend_from_slice(&((p.ts_us % 1_000_000) as u32).to_le_bytes());
        buf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(orig as u32).to_le_bytes());
        buf.extend_from_slice(&frame);
        if buf.len() > 1 << 20 {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    w.write_all(&buf)?;
    Ok(())
}

fn build_frame(p: &Packet) -> Vec<u8> {
    let l4 = l4_header_len(p.proto);
    let ip_total = IP_LEN + l4 + p.payload.len();
    let mut f = Vec::with_capacity(ETH_LEN + ip_total);
    // Ethernet II: synthetic MACs, EtherType IPv4.
    f.extend_from_slice(&[0x02, 0, 0, 0, 0, 0x01]);
    f.extend_from_slice(&[0x02, 0, 0, 0, 0, 0x02]);
    f.extend_from_slice(&0x0800u16.to_be_bytes());
    // IPv4 header (no options, no checksum computation — tooling tolerates
    // zero checksums and we are not on a wire).
    f.push(0x45); // version + IHL
    f.push(0); // DSCP/ECN
    f.extend_from_slice(&(ip_total as u16).to_be_bytes());
    f.extend_from_slice(&[0, 0, 0, 0]); // id, flags+fragment
    f.push(64); // TTL
    f.push(p.proto.number());
    f.extend_from_slice(&[0, 0]); // checksum
    f.extend_from_slice(&p.src_ip.to_be_bytes());
    f.extend_from_slice(&p.dst_ip.to_be_bytes());
    match p.proto {
        Proto::Tcp => {
            f.extend_from_slice(&p.src_port.to_be_bytes());
            f.extend_from_slice(&p.dst_port.to_be_bytes());
            f.extend_from_slice(&p.seq.to_be_bytes());
            f.extend_from_slice(&p.ack.to_be_bytes());
            f.push(0x50); // data offset = 5 words
            f.push(p.flags.0);
            f.extend_from_slice(&[0xff, 0xff]); // window
            f.extend_from_slice(&[0, 0, 0, 0]); // checksum + urgent
        }
        Proto::Udp => {
            f.extend_from_slice(&p.src_port.to_be_bytes());
            f.extend_from_slice(&p.dst_port.to_be_bytes());
            f.extend_from_slice(&((UDP_LEN + p.payload.len()) as u16).to_be_bytes());
            f.extend_from_slice(&[0, 0]); // checksum
        }
        _ => {}
    }
    f.extend_from_slice(&p.payload);
    f
}

/// Read a pcap file back into packets. Non-IPv4 frames are skipped.
pub fn read_pcap<R: Read>(mut r: R) -> Result<Vec<Packet>, PcapError> {
    let mut raw = Vec::new();
    r.read_to_end(&mut raw)?;
    let mut buf = Cursor(&raw);
    if buf.remaining() < 24 {
        return Err(PcapError::Truncated);
    }
    let magic = buf.u32_le();
    if magic != PCAP_MAGIC {
        return Err(PcapError::BadMagic(magic));
    }
    buf.take(12); // version, thiszone, sigfigs
    buf.take(4); // snaplen
    let linktype = buf.u32_le();
    if linktype != LINKTYPE_ETHERNET {
        return Err(PcapError::BadLinkType(linktype));
    }

    let mut out = Vec::new();
    while buf.remaining() > 0 {
        if buf.remaining() < 16 {
            return Err(PcapError::Truncated);
        }
        let ts_sec = buf.u32_le() as u64;
        let ts_usec = buf.u32_le() as u64;
        let incl = buf.u32_le() as usize;
        let orig = buf.u32_le() as usize;
        if buf.remaining() < incl {
            return Err(PcapError::Truncated);
        }
        let frame = buf.take(incl);
        if let Some(p) = parse_frame(frame, ts_sec * 1_000_000 + ts_usec, orig) {
            out.push(p);
        }
    }
    Ok(out)
}

fn parse_frame(frame: &[u8], ts_us: u64, orig: usize) -> Option<Packet> {
    if frame.len() < ETH_LEN + IP_LEN {
        return None;
    }
    let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
    if ethertype != 0x0800 {
        return None;
    }
    let ip = &frame[ETH_LEN..];
    let ihl = ((ip[0] & 0x0f) as usize) * 4;
    if ip.len() < ihl {
        return None;
    }
    let proto = Proto::from_number(ip[9]);
    let src_ip = u32::from_be_bytes([ip[12], ip[13], ip[14], ip[15]]);
    let dst_ip = u32::from_be_bytes([ip[16], ip[17], ip[18], ip[19]]);
    let l4 = &ip[ihl..];
    let (src_port, dst_port, seq, ack, flags, payload) = match proto {
        Proto::Tcp if l4.len() >= TCP_LEN => {
            let off = ((l4[12] >> 4) as usize) * 4;
            if l4.len() < off {
                return None;
            }
            (
                u16::from_be_bytes([l4[0], l4[1]]),
                u16::from_be_bytes([l4[2], l4[3]]),
                u32::from_be_bytes([l4[4], l4[5], l4[6], l4[7]]),
                u32::from_be_bytes([l4[8], l4[9], l4[10], l4[11]]),
                TcpFlags(l4[13] & 0x1f),
                Arc::from(&l4[off..]),
            )
        }
        Proto::Udp if l4.len() >= UDP_LEN => (
            u16::from_be_bytes([l4[0], l4[1]]),
            u16::from_be_bytes([l4[2], l4[3]]),
            0,
            0,
            TcpFlags::default(),
            Arc::from(&l4[UDP_LEN..]),
        ),
        _ => (0, 0, 0, 0, TcpFlags::default(), Arc::from(l4)),
    };
    Some(Packet {
        ts_us,
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        proto,
        len: orig.saturating_sub(ETH_LEN).min(u16::MAX as usize) as u16,
        flags,
        seq,
        ack,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tcp_packet() -> Packet {
        Packet {
            ts_us: 1_234_567,
            src_ip: 0x0a00_0001,
            dst_ip: 0x0808_0808,
            src_port: 40000,
            dst_port: 80,
            proto: Proto::Tcp,
            len: 60,
            flags: TcpFlags::syn(),
            seq: 1000,
            ack: 2000,
            payload: b"GET /"[..].into(),
        }
    }

    #[test]
    fn tcp_round_trips_exactly() {
        let mut p = tcp_packet();
        // Wire length must cover the synthesized headers for exactness.
        p.len = (IP_LEN + TCP_LEN + p.payload.len()) as u16;
        let mut buf = Vec::new();
        write_pcap(&mut buf, std::slice::from_ref(&p)).unwrap();
        let back = read_pcap(&buf[..]).unwrap();
        assert_eq!(back, vec![p]);
    }

    #[test]
    fn udp_round_trips_exactly() {
        let p = Packet {
            proto: Proto::Udp,
            flags: TcpFlags::default(),
            seq: 0,
            ack: 0,
            len: (IP_LEN + UDP_LEN + 5) as u16,
            ..tcp_packet()
        };
        let mut buf = Vec::new();
        write_pcap(&mut buf, std::slice::from_ref(&p)).unwrap();
        assert_eq!(read_pcap(&buf[..]).unwrap(), vec![p]);
    }

    #[test]
    fn generated_trace_round_trips() {
        use crate::gen::hotspot::{generate, HotspotConfig};
        let trace = generate(HotspotConfig {
            web_flows: 40,
            worms_above_threshold: 1,
            worms_below_threshold: 0,
            stepping_stone_pairs: 1,
            interactive_decoys: 1,
            itemset_hosts: 5,
            ..HotspotConfig::default()
        });
        let mut buf = Vec::new();
        write_pcap(&mut buf, &trace.packets).unwrap();
        let back = read_pcap(&buf[..]).unwrap();
        assert_eq!(back.len(), trace.packets.len());
        // Key analytical fields survive for every packet.
        for (a, b) in back.iter().zip(&trace.packets) {
            assert_eq!(a.ts_us, b.ts_us);
            assert_eq!(a.src_ip, b.src_ip);
            assert_eq!(a.dst_ip, b.dst_ip);
            assert_eq!(a.proto, b.proto);
            assert_eq!(a.flags, b.flags);
            assert_eq!(a.payload, b.payload);
            if a.proto == Proto::Tcp {
                assert_eq!((a.src_port, a.dst_port), (b.src_port, b.dst_port));
                assert_eq!((a.seq, a.ack), (b.seq, b.ack));
                assert_eq!(a.len, b.len, "wire length");
            }
        }
    }

    #[test]
    fn header_is_a_valid_pcap_preamble() {
        let mut buf = Vec::new();
        write_pcap(&mut buf, &[]).unwrap();
        assert_eq!(buf.len(), 24);
        assert_eq!(
            u32::from_le_bytes(buf[0..4].try_into().unwrap()),
            PCAP_MAGIC
        );
        assert_eq!(u16::from_le_bytes(buf[4..6].try_into().unwrap()), 2);
        assert_eq!(u16::from_le_bytes(buf[6..8].try_into().unwrap()), 4);
        assert_eq!(
            u32::from_le_bytes(buf[20..24].try_into().unwrap()),
            LINKTYPE_ETHERNET
        );
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(matches!(read_pcap(&b""[..]), Err(PcapError::Truncated)));
        let mut buf = Vec::new();
        write_pcap(&mut buf, &[tcp_packet()]).unwrap();
        buf[0] = 0;
        assert!(matches!(read_pcap(&buf[..]), Err(PcapError::BadMagic(_))));
        let mut buf2 = Vec::new();
        write_pcap(&mut buf2, &[tcp_packet()]).unwrap();
        buf2.truncate(buf2.len() - 3);
        assert!(matches!(read_pcap(&buf2[..]), Err(PcapError::Truncated)));
    }

    #[test]
    fn non_ipv4_frames_are_skipped() {
        // Hand-build a pcap with one ARP frame.
        let mut buf = Vec::new();
        write_pcap(&mut buf, &[]).unwrap();
        let frame = {
            let mut f = vec![0u8; ETH_LEN];
            f[12] = 0x08;
            f[13] = 0x06; // ARP
            f
        };
        buf.extend_from_slice(&0u32.to_le_bytes()); // ts_sec
        buf.extend_from_slice(&0u32.to_le_bytes()); // ts_usec
        buf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        buf.extend_from_slice(&frame);
        assert!(read_pcap(&buf[..]).unwrap().is_empty());
    }
}

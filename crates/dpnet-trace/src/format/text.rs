//! Human-readable, line-oriented trace format.
//!
//! One packet per line, tcpdump-flavoured:
//!
//! ```text
//! 0.000123 10.0.0.1:40000 > 8.8.0.1:80 tcp S seq 1000 ack 0 len 60 payload 474554
//! ```
//!
//! The text form exists for debugging, for diffing traces in review, and as
//! the interchange format a data owner might accept from external capture
//! tooling. It round-trips exactly with the in-memory representation
//! (timestamps are microsecond-precision decimals).

use crate::packet::{format_ip, parse_ip, Packet, Proto, TcpFlags};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::Arc;

/// Errors from parsing the text format.
#[derive(Debug)]
pub enum TextError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its (1-based) line number and a description.
    Parse {
        /// Line number of the offending line.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for TextError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TextError::Io(e) => write!(f, "I/O error: {e}"),
            TextError::Parse { line, reason } => {
                write!(f, "parse error on line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for TextError {}

impl From<std::io::Error> for TextError {
    fn from(e: std::io::Error) -> Self {
        TextError::Io(e)
    }
}

fn flags_str(flags: TcpFlags) -> String {
    let mut s = String::new();
    if flags.is_syn() {
        s.push('S');
    }
    if flags.is_ack() {
        s.push('A');
    }
    if flags.is_fin() {
        s.push('F');
    }
    if flags.is_rst() {
        s.push('R');
    }
    if flags.is_psh() {
        s.push('P');
    }
    if s.is_empty() {
        s.push('.');
    }
    s
}

fn parse_flags(s: &str) -> Option<TcpFlags> {
    let mut f = TcpFlags::default();
    for c in s.chars() {
        match c {
            'S' => f.0 |= TcpFlags::SYN,
            'A' => f.0 |= TcpFlags::ACK,
            'F' => f.0 |= TcpFlags::FIN,
            'R' => f.0 |= TcpFlags::RST,
            'P' => f.0 |= TcpFlags::PSH,
            '.' => {}
            _ => return None,
        }
    }
    Some(f)
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(s, "{b:02x}");
    }
    s
}

/// Decode a hex payload straight into its shared buffer: the digits are
/// checked first, so the collect knows its length and allocates once.
fn hex_decode(s: &str) -> Option<Arc<[u8]>> {
    let digits = s.as_bytes();
    if digits.len() % 2 != 0 || !digits.iter().all(u8::is_ascii_hexdigit) {
        return None;
    }
    let nibble = |b: u8| (b as char).to_digit(16).unwrap_or(0) as u8;
    Some(
        (0..digits.len() / 2)
            .map(|i| nibble(digits[2 * i]) << 4 | nibble(digits[2 * i + 1]))
            .collect(),
    )
}

/// Render one packet as a line (no trailing newline).
pub fn format_packet(p: &Packet) -> String {
    let proto = match p.proto {
        Proto::Tcp => "tcp".to_string(),
        Proto::Udp => "udp".to_string(),
        Proto::Icmp => "icmp".to_string(),
        Proto::Other(n) => format!("proto{n}"),
    };
    format!(
        "{}.{:06} {}:{} > {}:{} {} {} seq {} ack {} len {} payload {}",
        p.ts_us / 1_000_000,
        p.ts_us % 1_000_000,
        format_ip(p.src_ip),
        p.src_port,
        format_ip(p.dst_ip),
        p.dst_port,
        proto,
        flags_str(p.flags),
        p.seq,
        p.ack,
        p.len,
        if p.payload.is_empty() {
            "-".to_string()
        } else {
            hex_encode(&p.payload)
        }
    )
}

/// Parse one line into a packet.
pub fn parse_packet(line: &str) -> Result<Packet, String> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    if tokens.len() != 14 {
        return Err(format!("expected 14 fields, found {}", tokens.len()));
    }
    // Timestamp: seconds.micros
    let (secs, micros) = tokens[0]
        .split_once('.')
        .ok_or_else(|| "timestamp must be seconds.micros".to_string())?;
    let secs: u64 = secs.parse().map_err(|_| "bad seconds".to_string())?;
    if micros.len() != 6 {
        return Err("timestamp micros must have 6 digits".to_string());
    }
    let micros: u64 = micros.parse().map_err(|_| "bad micros".to_string())?;
    let ts_us = secs * 1_000_000 + micros;

    let parse_endpoint = |tok: &str| -> Result<(u32, u16), String> {
        let (ip, port) = tok
            .rsplit_once(':')
            .ok_or_else(|| format!("bad endpoint '{tok}'"))?;
        let ip = parse_ip(ip).ok_or_else(|| format!("bad IP '{ip}'"))?;
        let port: u16 = port.parse().map_err(|_| format!("bad port '{port}'"))?;
        Ok((ip, port))
    };
    let (src_ip, src_port) = parse_endpoint(tokens[1])?;
    if tokens[2] != ">" {
        return Err("missing '>' separator".to_string());
    }
    let (dst_ip, dst_port) = parse_endpoint(tokens[3])?;

    let proto = match tokens[4] {
        "tcp" => Proto::Tcp,
        "udp" => Proto::Udp,
        "icmp" => Proto::Icmp,
        other => {
            let n = other
                .strip_prefix("proto")
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| format!("bad protocol '{other}'"))?;
            Proto::Other(n)
        }
    };
    let flags = parse_flags(tokens[5]).ok_or_else(|| format!("bad flags '{}'", tokens[5]))?;

    let field = |name: &str, label_idx: usize, value_idx: usize| -> Result<&str, String> {
        if tokens[label_idx] != name {
            return Err(format!("expected '{name}', found '{}'", tokens[label_idx]));
        }
        Ok(tokens[value_idx])
    };
    let seq: u32 = field("seq", 6, 7)?
        .parse()
        .map_err(|_| "bad seq".to_string())?;
    let ack: u32 = field("ack", 8, 9)?
        .parse()
        .map_err(|_| "bad ack".to_string())?;
    let len: u16 = field("len", 10, 11)?
        .parse()
        .map_err(|_| "bad len".to_string())?;
    let payload_tok = field("payload", 12, 13)?;
    let payload = if payload_tok == "-" {
        Arc::from([])
    } else {
        hex_decode(payload_tok).ok_or_else(|| "bad payload hex".to_string())?
    };

    Ok(Packet {
        ts_us,
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        proto,
        len,
        flags,
        seq,
        ack,
        payload,
    })
}

/// Write a whole trace in text form.
pub fn write_text<W: Write>(mut w: W, packets: &[Packet]) -> Result<(), TextError> {
    for p in packets {
        writeln!(w, "{}", format_packet(p))?;
    }
    Ok(())
}

/// Read a whole trace from text form. Blank lines and lines starting with
/// `#` are skipped.
pub fn read_text<R: Read>(r: R) -> Result<Vec<Packet>, TextError> {
    let reader = BufReader::new(r);
    let mut out = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let p = parse_packet(trimmed).map_err(|reason| TextError::Parse {
            line: i + 1,
            reason,
        })?;
        out.push(p);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Packet {
        Packet {
            ts_us: 1_500_123,
            src_ip: parse_ip("10.0.0.1").unwrap(),
            dst_ip: parse_ip("8.8.0.1").unwrap(),
            src_port: 40000,
            dst_port: 80,
            proto: Proto::Tcp,
            len: 60,
            flags: TcpFlags::syn(),
            seq: 1000,
            ack: 0,
            payload: Arc::from([0x47, 0x45, 0x54]),
        }
    }

    #[test]
    fn format_is_stable() {
        assert_eq!(
            format_packet(&sample()),
            "1.500123 10.0.0.1:40000 > 8.8.0.1:80 tcp S seq 1000 ack 0 len 60 payload 474554"
        );
    }

    #[test]
    fn single_packet_round_trips() {
        let p = sample();
        assert_eq!(parse_packet(&format_packet(&p)).unwrap(), p);
    }

    #[test]
    fn empty_payload_round_trips() {
        let mut p = sample();
        p.payload = Arc::from([]);
        p.flags = TcpFlags::default();
        assert_eq!(parse_packet(&format_packet(&p)).unwrap(), p);
    }

    #[test]
    fn all_protocols_round_trip() {
        for proto in [Proto::Tcp, Proto::Udp, Proto::Icmp, Proto::Other(89)] {
            let mut p = sample();
            p.proto = proto;
            assert_eq!(parse_packet(&format_packet(&p)).unwrap().proto, proto);
        }
    }

    #[test]
    fn whole_trace_round_trips_with_comments() {
        let mut packets = Vec::new();
        for i in 0..50u32 {
            let mut p = sample();
            p.ts_us = i as u64 * 1000;
            p.seq = i;
            p.payload = vec![(i % 256) as u8; (i % 5) as usize].into();
            packets.push(p);
        }
        let mut text = String::from("# generated trace\n\n");
        let mut buf = Vec::new();
        write_text(&mut buf, &packets).unwrap();
        text.push_str(std::str::from_utf8(&buf).unwrap());
        let back = read_text(text.as_bytes()).unwrap();
        assert_eq!(back, packets);
    }

    #[test]
    fn malformed_lines_report_position() {
        let text = "# ok\n1.000000 10.0.0.1:1 > 10.0.0.2:2 tcp S seq 0 ack 0 len 40 payload -\nnot a packet\n";
        match read_text(text.as_bytes()) {
            Err(TextError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn specific_malformations_are_caught() {
        let good = format_packet(&sample());
        for (bad, _why) in [
            (good.replace("tcp", "xyz"), "protocol"),
            (good.replace(" S ", " Z "), "flags"),
            (good.replace("474554", "47455"), "odd hex"),
            (good.replace("474554", "+f4554"), "sign in hex"),
            (good.replace("474554", "4é5"), "non-ASCII hex"),
            (good.replace("1.500123", "1.5123"), "micros width"),
            (good.replace(" > ", " < "), "separator"),
            (good.replace(":80 ", " "), "endpoint"),
        ] {
            assert!(parse_packet(&bad).is_err(), "accepted malformed: {bad}");
        }
    }

    #[test]
    fn binary_and_text_formats_agree() {
        let packets: Vec<Packet> = (0..20)
            .map(|i| {
                let mut p = sample();
                p.ts_us = i;
                p
            })
            .collect();
        let mut bin = Vec::new();
        crate::format::write_trace(&mut bin, &packets).unwrap();
        let from_bin = crate::format::read_trace(&bin[..]).unwrap();
        let mut txt = Vec::new();
        write_text(&mut txt, &packets).unwrap();
        let from_txt = read_text(&txt[..]).unwrap();
        assert_eq!(from_bin, from_txt);
    }
}

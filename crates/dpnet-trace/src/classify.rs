//! Packet classification (the substrate behind §5.1.3's remark that
//! "various classification algorithms [Gupta & McKeown] can also be
//! implemented in the differentially private manner").
//!
//! A classifier is an ordered rule list over the classic five dimensions
//! (source/destination prefix, source/destination port range, protocol);
//! a packet matches the first rule that covers it. Two engines:
//!
//! * [`Classifier::classify`] — linear first-match scan (the reference).
//! * [`DecisionTree`] — a HiCuts-flavoured decision tree that repeatedly
//!   cuts the heaviest dimension until leaves hold few rules; equivalent to
//!   the linear scan (property-tested) but sub-linear per packet.
//!
//! The DP analysis layer (`dpnet_analyses::classification`) partitions
//! packets by matched rule, so per-rule traffic shares cost one ε total.

use crate::packet::Packet;
use std::fmt;

/// An IPv4 prefix match, e.g. `10.0.0.0/8`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prefix {
    /// Network address (host byte order).
    pub addr: u32,
    /// Prefix length in bits, 0–32. Zero matches everything.
    pub len: u8,
}

impl Prefix {
    /// The match-all prefix (`0.0.0.0/0`).
    pub const ANY: Prefix = Prefix { addr: 0, len: 0 };

    /// Build a prefix, masking the address to its length.
    pub fn new(addr: u32, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} out of range");
        Prefix {
            addr: addr & Self::mask(len),
            len,
        }
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// Whether `ip` falls inside the prefix.
    pub fn contains(&self, ip: u32) -> bool {
        ip & Self::mask(self.len) == self.addr
    }

    /// Parse `a.b.c.d/len` (or a bare address, meaning `/32`).
    pub fn parse(s: &str) -> Option<Prefix> {
        if s == "any" {
            return Some(Prefix::ANY);
        }
        let (ip, len) = match s.split_once('/') {
            Some((ip, len)) => (ip, len.parse().ok()?),
            None => (s, 32),
        };
        if len > 32 {
            return None;
        }
        Some(Prefix::new(crate::packet::parse_ip(ip)?, len))
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len == 0 {
            write!(f, "any")
        } else {
            write!(f, "{}/{}", crate::packet::format_ip(self.addr), self.len)
        }
    }
}

/// An inclusive port range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortRange {
    /// Low end, inclusive.
    pub lo: u16,
    /// High end, inclusive.
    pub hi: u16,
}

impl PortRange {
    /// The match-all range.
    pub const ANY: PortRange = PortRange {
        lo: 0,
        hi: u16::MAX,
    };

    /// A single-port range.
    pub fn exactly(p: u16) -> Self {
        PortRange { lo: p, hi: p }
    }

    /// Whether `p` falls inside the range.
    pub fn contains(&self, p: u16) -> bool {
        self.lo <= p && p <= self.hi
    }

    /// Parse `any`, `N`, or `N-M`.
    pub fn parse(s: &str) -> Option<PortRange> {
        if s == "any" {
            return Some(PortRange::ANY);
        }
        match s.split_once('-') {
            Some((lo, hi)) => {
                let (lo, hi) = (lo.parse().ok()?, hi.parse().ok()?);
                if lo > hi {
                    return None;
                }
                Some(PortRange { lo, hi })
            }
            None => Some(PortRange::exactly(s.parse().ok()?)),
        }
    }
}

/// One classification rule over the standard five dimensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Human-readable label (e.g. "web-in").
    pub name: String,
    /// Source prefix.
    pub src: Prefix,
    /// Destination prefix.
    pub dst: Prefix,
    /// Source port range.
    pub sport: PortRange,
    /// Destination port range.
    pub dport: PortRange,
    /// IANA protocol number, or `None` for any.
    pub proto: Option<u8>,
}

impl Rule {
    /// Whether the rule covers a packet.
    pub fn matches(&self, p: &Packet) -> bool {
        self.src.contains(p.src_ip)
            && self.dst.contains(p.dst_ip)
            && self.sport.contains(p.src_port)
            && self.dport.contains(p.dst_port)
            && self.proto.map(|n| n == p.proto.number()).unwrap_or(true)
    }

    /// Parse one rule line:
    /// `<name> <proto|any> <src> <sport> -> <dst> <dport>`
    /// e.g. `web-in tcp any any -> 10.0.0.0/8 80`.
    pub fn parse(line: &str) -> Result<Rule, String> {
        let t: Vec<&str> = line.split_whitespace().collect();
        if t.len() != 7 || t[4] != "->" {
            return Err(format!("expected 7 fields with '->', got: {line}"));
        }
        let proto = match t[1] {
            "any" => None,
            "tcp" => Some(6),
            "udp" => Some(17),
            "icmp" => Some(1),
            other => Some(other.parse().map_err(|_| format!("bad protocol {other}"))?),
        };
        Ok(Rule {
            name: t[0].to_string(),
            proto,
            src: Prefix::parse(t[2]).ok_or_else(|| format!("bad src {}", t[2]))?,
            sport: PortRange::parse(t[3]).ok_or_else(|| format!("bad sport {}", t[3]))?,
            dst: Prefix::parse(t[5]).ok_or_else(|| format!("bad dst {}", t[5]))?,
            dport: PortRange::parse(t[6]).ok_or_else(|| format!("bad dport {}", t[6]))?,
        })
    }
}

/// An ordered rule list with first-match semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct Classifier {
    rules: Vec<Rule>,
}

impl Classifier {
    /// Build from an ordered rule list.
    pub fn new(rules: Vec<Rule>) -> Self {
        Classifier { rules }
    }

    /// Parse a rule file: one rule per line, `#` comments and blank lines
    /// skipped.
    pub fn parse(text: &str) -> Result<Classifier, String> {
        let mut rules = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            rules.push(Rule::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?);
        }
        Ok(Classifier { rules })
    }

    /// The rules, in priority order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// First-match classification: the index of the matching rule.
    pub fn classify(&self, p: &Packet) -> Option<usize> {
        self.rules.iter().position(|r| r.matches(p))
    }
}

/// Dimensions a decision-tree node can cut on.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cut {
    /// Split on a destination-port boundary: `< value` goes left.
    DstPort(u16),
    /// Split on a source-address boundary.
    SrcAddr(u32),
    /// Split on a destination-address boundary.
    DstAddr(u32),
}

#[derive(Debug)]
enum Node {
    Leaf(Vec<usize>), // rule indices, priority order
    Inner {
        cut: Cut,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A HiCuts-flavoured decision tree over a [`Classifier`]: recursively
/// bisect the dimension that best separates the remaining rules, stop when
/// a leaf holds at most `leaf_size` rules (or no cut makes progress).
/// Classification descends to a leaf, then linear-scans its few rules.
#[derive(Debug)]
pub struct DecisionTree {
    classifier: Classifier,
    root: Node,
    depth: usize,
}

/// The sub-space a node covers (used only at build time).
#[derive(Debug, Clone, Copy)]
struct Region {
    src: (u32, u32),
    dst: (u32, u32),
    dport: (u16, u16),
}

impl Region {
    const FULL: Region = Region {
        src: (0, u32::MAX),
        dst: (0, u32::MAX),
        dport: (0, u16::MAX),
    };
}

fn rule_overlaps(rule: &Rule, reg: &Region) -> bool {
    let (plo, phi) = prefix_range(rule.src);
    if phi < reg.src.0 || plo > reg.src.1 {
        return false;
    }
    let (plo, phi) = prefix_range(rule.dst);
    if phi < reg.dst.0 || plo > reg.dst.1 {
        return false;
    }
    !(rule.dport.hi < reg.dport.0 || rule.dport.lo > reg.dport.1)
}

fn prefix_range(p: Prefix) -> (u32, u32) {
    let mask = if p.len == 0 {
        0
    } else {
        u32::MAX << (32 - p.len)
    };
    (p.addr, p.addr | !mask)
}

impl DecisionTree {
    /// Build a tree. `leaf_size` bounds the rules per leaf; `max_depth`
    /// bounds recursion.
    pub fn build(classifier: Classifier, leaf_size: usize, max_depth: usize) -> Self {
        let all: Vec<usize> = (0..classifier.rules().len()).collect();
        let (root, depth) =
            Self::build_node(&classifier, all, Region::FULL, leaf_size.max(1), max_depth);
        DecisionTree {
            classifier,
            root,
            depth,
        }
    }

    fn build_node(
        cls: &Classifier,
        rules: Vec<usize>,
        region: Region,
        leaf_size: usize,
        depth_left: usize,
    ) -> (Node, usize) {
        if rules.len() <= leaf_size || depth_left == 0 {
            return (Node::Leaf(rules), 0);
        }
        // Candidate cuts: the median *rule boundary* inside the region, per
        // dimension — boundary cuts separate rules where midpoints cannot
        // (real rule sets cluster at low ports).
        let mut candidates = Vec::new();
        {
            let mut bounds: Vec<u16> = rules
                .iter()
                .flat_map(|&i| {
                    let r = &cls.rules()[i].dport;
                    [r.lo, r.hi.saturating_add(1)]
                })
                .filter(|&v| v > region.dport.0 && v <= region.dport.1)
                .collect();
            bounds.sort_unstable();
            if let Some(&v) = bounds.get(bounds.len() / 2) {
                candidates.push(Cut::DstPort(v));
            }
        }
        for dim in [0usize, 1] {
            let mut bounds: Vec<u32> = rules
                .iter()
                .flat_map(|&i| {
                    let r = &cls.rules()[i];
                    let (lo, hi) = prefix_range(if dim == 0 { r.src } else { r.dst });
                    [lo, hi.saturating_add(1)]
                })
                .filter(|&v| {
                    let reg = if dim == 0 { region.src } else { region.dst };
                    v > reg.0 && v <= reg.1
                })
                .collect();
            bounds.sort_unstable();
            if let Some(&v) = bounds.get(bounds.len() / 2) {
                candidates.push(if dim == 0 {
                    Cut::SrcAddr(v)
                } else {
                    Cut::DstAddr(v)
                });
            }
        }
        #[allow(clippy::type_complexity)]
        let mut best: Option<(Cut, Vec<usize>, Vec<usize>, Region, Region)> = None;
        let mut best_score = rules.len(); // the larger side must shrink
        for cut in candidates {
            let (lr, rr) = split_region(region, cut);
            let left: Vec<usize> = rules
                .iter()
                .cloned()
                .filter(|&i| rule_overlaps(&cls.rules()[i], &lr))
                .collect();
            let right: Vec<usize> = rules
                .iter()
                .cloned()
                .filter(|&i| rule_overlaps(&cls.rules()[i], &rr))
                .collect();
            let score = left.len().max(right.len());
            if score < best_score {
                best_score = score;
                best = Some((cut, left, right, lr, rr));
            }
        }
        match best {
            None => (Node::Leaf(rules), 0),
            Some((cut, left, right, lr, rr)) => {
                let (lnode, ld) = Self::build_node(cls, left, lr, leaf_size, depth_left - 1);
                let (rnode, rd) = Self::build_node(cls, right, rr, leaf_size, depth_left - 1);
                (
                    Node::Inner {
                        cut,
                        left: Box::new(lnode),
                        right: Box::new(rnode),
                    },
                    1 + ld.max(rd),
                )
            }
        }
    }

    /// Tree depth (0 = a single leaf).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// First-match classification via the tree; equivalent to
    /// `self.classifier().classify(p)`.
    pub fn classify(&self, p: &Packet) -> Option<usize> {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf(rules) => {
                    return rules
                        .iter()
                        .cloned()
                        .find(|&i| self.classifier.rules()[i].matches(p));
                }
                Node::Inner { cut, left, right } => {
                    let go_left = match *cut {
                        Cut::DstPort(v) => p.dst_port < v,
                        Cut::SrcAddr(v) => p.src_ip < v,
                        Cut::DstAddr(v) => p.dst_ip < v,
                    };
                    node = if go_left { left } else { right };
                }
            }
        }
    }

    /// The underlying classifier.
    pub fn classifier(&self) -> &Classifier {
        &self.classifier
    }
}

fn split_region(r: Region, cut: Cut) -> (Region, Region) {
    let mut l = r;
    let mut rr = r;
    match cut {
        Cut::DstPort(v) => {
            l.dport.1 = v.saturating_sub(1);
            rr.dport.0 = v;
        }
        Cut::SrcAddr(v) => {
            l.src.1 = v.saturating_sub(1);
            rr.src.0 = v;
        }
        Cut::DstAddr(v) => {
            l.dst.1 = v.saturating_sub(1);
            rr.dst.0 = v;
        }
    }
    (l, rr)
}

/// A small realistic rule set used by examples and experiments.
pub fn example_ruleset() -> Classifier {
    Classifier::parse(
        "# enterprise-ish edge policy
         web-in     tcp any any -> any 80
         tls-in     tcp any any -> any 443
         dns        udp any any -> any 53
         ssh-mgmt   tcp 10.0.0.0/8 any -> any 22
         mail       tcp any any -> any 25
         smb-block  tcp any any -> any 445
         imaps      tcp any any -> any 993
         high-tcp   tcp any any -> any 1024-65535
         catch-all  any any any -> any any",
    )
    .expect("example ruleset parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Proto, TcpFlags};

    fn pkt(src: u32, dst: u32, sport: u16, dport: u16, proto: Proto) -> Packet {
        Packet {
            ts_us: 0,
            src_ip: src,
            dst_ip: dst,
            src_port: sport,
            dst_port: dport,
            proto,
            len: 40,
            flags: TcpFlags::ack(),
            seq: 0,
            ack: 0,
            payload: vec![].into(),
        }
    }

    #[test]
    fn prefix_matching_and_parsing() {
        let p = Prefix::parse("10.0.0.0/8").unwrap();
        assert!(p.contains(0x0a01_0203));
        assert!(!p.contains(0x0b00_0000));
        assert_eq!(Prefix::parse("any"), Some(Prefix::ANY));
        assert!(Prefix::ANY.contains(0xdead_beef));
        // Bare address means /32.
        let host = Prefix::parse("192.168.69.100").unwrap();
        assert_eq!(host.len, 32);
        assert!(host.contains(crate::packet::parse_ip("192.168.69.100").unwrap()));
        assert!(Prefix::parse("10.0.0.0/33").is_none());
        // Address bits beyond the mask are dropped.
        assert_eq!(Prefix::new(0x0a01_0203, 8).addr, 0x0a00_0000);
    }

    #[test]
    fn port_range_parsing() {
        assert_eq!(PortRange::parse("80"), Some(PortRange::exactly(80)));
        assert_eq!(
            PortRange::parse("1024-65535"),
            Some(PortRange {
                lo: 1024,
                hi: 65535
            })
        );
        assert_eq!(PortRange::parse("any"), Some(PortRange::ANY));
        assert!(PortRange::parse("90-80").is_none());
        assert!(PortRange::parse("x").is_none());
    }

    #[test]
    fn first_match_semantics() {
        let cls = example_ruleset();
        // Port 80 TCP hits web-in even though high-tcp would also match…
        let idx = cls.classify(&pkt(1, 2, 40000, 80, Proto::Tcp)).unwrap();
        assert_eq!(cls.rules()[idx].name, "web-in");
        // …and catch-all picks up everything else.
        let idx = cls.classify(&pkt(1, 2, 1, 7, Proto::Icmp)).unwrap();
        assert_eq!(cls.rules()[idx].name, "catch-all");
        // ssh-mgmt only for the management prefix.
        let inside = cls
            .classify(&pkt(0x0a00_0001, 2, 40000, 22, Proto::Tcp))
            .unwrap();
        assert_eq!(cls.rules()[inside].name, "ssh-mgmt");
        let outside = cls
            .classify(&pkt(0x0b00_0001, 2, 40000, 22, Proto::Tcp))
            .unwrap();
        assert_ne!(cls.rules()[outside].name, "ssh-mgmt");
    }

    #[test]
    fn parser_rejects_malformed_rules() {
        assert!(Rule::parse("too few fields").is_err());
        assert!(Rule::parse("r tcp any any => any 80").is_err());
        assert!(Rule::parse("r xyz any any -> any 80").is_err());
        assert!(Rule::parse("r tcp 10.0.0.0/40 any -> any 80").is_err());
        assert!(Classifier::parse("# only comments\n\n")
            .unwrap()
            .rules()
            .is_empty());
    }

    #[test]
    fn decision_tree_matches_linear_scan() {
        let cls = example_ruleset();
        let tree = DecisionTree::build(cls.clone(), 2, 16);
        assert!(tree.depth() > 0, "tree did not split");
        // Exhaustive-ish sweep over interesting coordinates.
        let ports = [
            0u16, 22, 25, 53, 79, 80, 81, 443, 445, 993, 1023, 1024, 60000,
        ];
        let addrs = [0u32, 0x0a00_0001, 0x0aff_ffff, 0x0b00_0000, 0xffff_ffff];
        let protos = [Proto::Tcp, Proto::Udp, Proto::Icmp];
        for &sp in &ports {
            for &dp in &ports {
                for &src in &addrs {
                    for &proto in &protos {
                        let p = pkt(src, 0x0102_0304, sp, dp, proto);
                        assert_eq!(tree.classify(&p), cls.classify(&p), "divergence at {p:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn rule_display_round_trips_prefixes() {
        let p = Prefix::parse("10.0.0.0/8").unwrap();
        assert_eq!(Prefix::parse(&p.to_string()), Some(p));
        assert_eq!(Prefix::ANY.to_string(), "any");
    }
}

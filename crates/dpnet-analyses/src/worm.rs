//! Automated worm fingerprinting (paper §5.1.2; Singh et al., OSDI 2004).
//!
//! A worm signature is a payload that occurs frequently *and* is dispersed:
//! originated by many distinct sources and destined to many distinct
//! addresses. The private pipeline follows the paper:
//!
//! 1. **Spell out candidate payloads** with the frequent-string tool (§4.2)
//!    — frequent payloads are statistical trends and can be released.
//! 2. **Evaluate dispersion per candidate**: `Partition` the trace by
//!    candidate payload, then release a noisy count of distinct sources and
//!    distinct destinations for each part (the paper's code fragment:
//!    `Select(dstIP).Distinct().Count(ε)`).
//! 3. Report candidates whose noisy dispersions clear the thresholds
//!    (the paper uses 50 for both).
//!
//! The paper's accuracy result: the noise-free computation finds 29
//! high-dispersion payloads; private search recovers 7, 24, and 29 of them
//! at ε = 0.1, 1.0, 10.0 — the misses being payloads with low overall
//! presence but above-average dispersal.

use dpnet_toolkit::freqstrings::{frequent_strings, FrequentString, FrequentStringsConfig};
use dpnet_trace::Packet;
use pinq::{Queryable, Result};
use std::collections::{HashMap, HashSet};

/// Configuration for private worm fingerprinting.
#[derive(Debug, Clone)]
pub struct WormConfig {
    /// Signature length in bytes (the payload prefix examined).
    pub payload_len: usize,
    /// Per-aggregation accuracy ε (the axis the paper reports: "searching
    /// for prefixes privately with ε values of 0.1, 1.0, and 10.0").
    /// Total privacy cost: `payload_len × ε` for the search plus `2ε` for
    /// the dispersion checks.
    pub eps: f64,
    /// Noisy-count threshold for the frequent-string search.
    pub presence_threshold: f64,
    /// Dispersion threshold on distinct sources (paper: 50).
    pub src_threshold: f64,
    /// Dispersion threshold on distinct destinations (paper: 50).
    pub dst_threshold: f64,
}

impl Default for WormConfig {
    fn default() -> Self {
        WormConfig {
            payload_len: 8,
            eps: 1.0,
            presence_threshold: 100.0,
            src_threshold: 50.0,
            dst_threshold: 50.0,
        }
    }
}

/// A reported worm signature.
#[derive(Debug, Clone, PartialEq)]
pub struct WormFinding {
    /// The payload prefix identified as a signature.
    pub payload: Vec<u8>,
    /// Noisy count of distinct source IPs.
    pub distinct_sources: f64,
    /// Noisy count of distinct destination IPs.
    pub distinct_destinations: f64,
    /// Noisy total occurrence count from the string search.
    pub presence: f64,
}

/// Run private worm fingerprinting. Total privacy cost:
/// `(payload_len + 2) × ε`.
///
/// Every stage runs on the [`pinq::ExecCtx`] `packets` carries, and the
/// findings at a fixed seed are the same on the calling thread and on a
/// pool of any size.
pub fn worm_fingerprints(
    packets: &Queryable<Packet>,
    cfg: &WormConfig,
) -> Result<Vec<WormFinding>> {
    let plen = cfg.payload_len;
    let candidates = prefix_candidates(packets, cfg)?;
    if candidates.is_empty() {
        return Ok(Vec::new());
    }

    let keys: Vec<Vec<u8>> = candidates.iter().map(|c| c.bytes.clone()).collect();
    let dispersion = dispersions(
        packets,
        &keys,
        move |p: &Packet| {
            if p.payload.len() >= plen {
                p.payload[..plen].to_vec()
            } else {
                Vec::new()
            }
        },
        |p| p.src_ip,
        |p| p.dst_ip,
        cfg.eps,
    )?;

    let mut findings = Vec::new();
    for (cand, (srcs, dsts)) in candidates.into_iter().zip(dispersion) {
        if srcs > cfg.src_threshold && dsts > cfg.dst_threshold {
            findings.push(WormFinding {
                payload: cand.bytes,
                distinct_sources: srcs,
                distinct_destinations: dsts,
                presence: cand.noisy_count,
            });
        }
    }
    findings.sort_by(|a, b| {
        b.presence
            .partial_cmp(&a.presence)
            .expect("finite presence")
    });
    Ok(findings)
}

/// A port-qualified worm signature (§5.1.2 extension: "reducing false
/// positives by incorporating the destination port into the signature").
#[derive(Debug, Clone, PartialEq)]
pub struct PortWormFinding {
    /// The payload prefix.
    pub payload: Vec<u8>,
    /// The destination port the signature is tied to.
    pub port: u16,
    /// Noisy distinct sources sending this (payload, port) pair.
    pub distinct_sources: f64,
    /// Noisy distinct destinations receiving it.
    pub distinct_destinations: f64,
}

/// Port-qualified worm fingerprinting: after the payload search, dispersion
/// is evaluated per (payload, destination-port) pair, so content that is
/// dispersed only *across* ports — a false-positive mode of the base
/// analysis — no longer qualifies. `ports` is the data-independent port
/// list to consider (e.g. well-known service ports).
///
/// Privacy cost: `payload_len × ε` (search) + `2ε` (the per-pair dispersion
/// counts compose in parallel).
pub fn worm_fingerprints_with_port(
    packets: &Queryable<Packet>,
    cfg: &WormConfig,
    ports: &[u16],
) -> Result<Vec<PortWormFinding>> {
    let plen = cfg.payload_len;
    let candidates = prefix_candidates(packets, cfg)?;
    if candidates.is_empty() || ports.is_empty() {
        return Ok(Vec::new());
    }

    let mut keys: Vec<(Vec<u8>, u16)> = Vec::with_capacity(candidates.len() * ports.len());
    for c in &candidates {
        for &port in ports {
            keys.push((c.bytes.clone(), port));
        }
    }
    let dispersion = dispersions(
        packets,
        &keys,
        move |p: &Packet| {
            if p.payload.len() >= plen {
                (p.payload[..plen].to_vec(), p.dst_port)
            } else {
                (Vec::new(), 0)
            }
        },
        |p| p.src_ip,
        |p| p.dst_ip,
        cfg.eps,
    )?;

    let mut findings = Vec::new();
    for ((payload, port), (srcs, dsts)) in keys.into_iter().zip(dispersion) {
        if srcs > cfg.src_threshold && dsts > cfg.dst_threshold {
            findings.push(PortWormFinding {
                payload,
                port,
                distinct_sources: srcs,
                distinct_destinations: dsts,
            });
        }
    }
    findings.sort_by(|a, b| {
        b.distinct_sources
            .partial_cmp(&a.distinct_sources)
            .expect("finite")
    });
    Ok(findings)
}

/// Configuration for the sliding-window variant.
#[derive(Debug, Clone)]
pub struct WindowedWormConfig {
    /// Window (signature) length in bytes.
    pub window_len: usize,
    /// Maximum payload windows considered per packet — the `SelectMany`
    /// fan-out bound, which multiplies every downstream privacy cost.
    pub max_windows: usize,
    /// Per-aggregation accuracy ε.
    pub eps: f64,
    /// Presence threshold for the window search.
    pub presence_threshold: f64,
    /// Source-dispersion threshold.
    pub src_threshold: f64,
    /// Destination-dispersion threshold.
    pub dst_threshold: f64,
}

impl Default for WindowedWormConfig {
    fn default() -> Self {
        WindowedWormConfig {
            window_len: 6,
            max_windows: 4,
            eps: 1.0,
            presence_threshold: 50.0,
            src_threshold: 50.0,
            dst_threshold: 50.0,
        }
    }
}

/// Sliding-window worm fingerprinting (§5.1.2 extension: "sliding a window
/// over the payloads to look for invariant content"): signatures are
/// `window_len`-byte substrings at *any* offset, so a worm that prepends
/// random padding no longer evades the prefix search. The `SelectMany`
/// expansion multiplies sensitivity by `max_windows` — the concrete example
/// of an easy computation with a high privacy cost (paper §7).
pub fn worm_fingerprints_windowed(
    packets: &Queryable<Packet>,
    cfg: &WindowedWormConfig,
) -> Result<Vec<WormFinding>> {
    let wlen = cfg.window_len;
    let maxw = cfg.max_windows;

    #[derive(Clone)]
    struct WindowRec {
        window: Vec<u8>,
        src: u32,
        dst: u32,
    }
    let windows = packets.select_many(maxw, move |p: &Packet| {
        if p.payload.len() < wlen {
            return Vec::new();
        }
        (0..=(p.payload.len() - wlen))
            .take(maxw)
            .map(|off| WindowRec {
                window: p.payload[off..off + wlen].to_vec(),
                src: p.src_ip,
                dst: p.dst_ip,
            })
            .collect()
    })?;

    let candidates = frequent_strings(
        &windows,
        |r: &WindowRec| &r.window,
        &FrequentStringsConfig {
            length: wlen,
            eps_per_level: cfg.eps,
            threshold: cfg.presence_threshold,
            max_viable: 512,
        },
    )?;
    if candidates.is_empty() {
        return Ok(Vec::new());
    }

    let keys: Vec<Vec<u8>> = candidates.iter().map(|c| c.bytes.clone()).collect();
    let dispersion = dispersions(
        &windows,
        &keys,
        |r: &WindowRec| r.window.clone(),
        |r| r.src,
        |r| r.dst,
        cfg.eps,
    )?;
    let mut findings = Vec::new();
    for (cand, (srcs, dsts)) in candidates.into_iter().zip(dispersion) {
        if srcs > cfg.src_threshold && dsts > cfg.dst_threshold {
            findings.push(WormFinding {
                payload: cand.bytes,
                distinct_sources: srcs,
                distinct_destinations: dsts,
                presence: cand.noisy_count,
            });
        }
    }
    findings.sort_by(|a, b| b.presence.partial_cmp(&a.presence).expect("finite"));
    Ok(findings)
}

/// The payload search both prefix variants share: frequent
/// `payload_len`-byte payload prefixes. Cost: `payload_len × ε`.
fn prefix_candidates(packets: &Queryable<Packet>, cfg: &WormConfig) -> Result<Vec<FrequentString>> {
    let plen = cfg.payload_len;
    let payloads = packets.filter(move |p| p.payload.len() >= plen);
    frequent_strings(
        &payloads,
        |p: &Packet| &p.payload,
        &FrequentStringsConfig {
            length: plen,
            eps_per_level: cfg.eps,
            threshold: cfg.presence_threshold,
            max_viable: 512,
        },
    )
}

/// The dispersion step every variant shares: partition `data` by `key`
/// over the candidate `keys` and release, per part, noisy counts of its
/// distinct sources (`src`) and distinct destinations (`dst`). Parts run
/// through [`Queryable::partition_map`], so each draws from its own noise
/// substream and the releases are the same on the calling thread and on a
/// pool of any size. Cost: `2ε`, parallel across candidates.
fn dispersions<T, K>(
    data: &Queryable<T>,
    keys: &[K],
    key: impl Fn(&T) -> K + Send + Sync,
    src: impl Fn(&T) -> u32 + Sync,
    dst: impl Fn(&T) -> u32 + Sync,
    eps: f64,
) -> Result<Vec<(f64, f64)>>
where
    T: Clone + Send + Sync,
    K: Eq + std::hash::Hash + Clone + Sync,
{
    data.partition_map(keys, key, |part| {
        let srcs = part.distinct_by(&src).noisy_count(eps)?;
        let dsts = part.distinct_by(&dst).noisy_count(eps)?;
        Ok((srcs, dsts))
    })?
    .into_iter()
    .collect()
}

/// Noise-free reference: payload prefixes with at least `src_threshold`
/// distinct sources **and** `dst_threshold` distinct destinations.
pub fn worm_fingerprints_exact(
    packets: &[Packet],
    payload_len: usize,
    src_threshold: usize,
    dst_threshold: usize,
) -> Vec<Vec<u8>> {
    let mut srcs: HashMap<&[u8], HashSet<u32>> = HashMap::new();
    let mut dsts: HashMap<&[u8], HashSet<u32>> = HashMap::new();
    for p in packets {
        if p.payload.len() < payload_len {
            continue;
        }
        let key = &p.payload[..payload_len];
        srcs.entry(key).or_default().insert(p.src_ip);
        dsts.entry(key).or_default().insert(p.dst_ip);
    }
    let mut out: Vec<Vec<u8>> = srcs
        .into_iter()
        .filter(|(k, s)| {
            s.len() > src_threshold && dsts.get(k).map(|d| d.len()).unwrap_or(0) > dst_threshold
        })
        .map(|(k, _)| k.to_vec())
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpnet_trace::gen::hotspot::{generate, HotspotConfig};
    use pinq::{Accountant, ExecCtx, ExecPool, NoiseSource};

    fn trace() -> dpnet_trace::gen::hotspot::HotspotTrace {
        generate(HotspotConfig {
            web_flows: 250,
            worms_above_threshold: 8,
            worms_below_threshold: 4,
            stepping_stone_pairs: 1,
            interactive_decoys: 1,
            itemset_hosts: 10,
            ..HotspotConfig::default()
        })
    }

    fn protect(pkts: Vec<Packet>, budget: f64, seed: u64) -> (Accountant, Queryable<Packet>) {
        let acct = Accountant::new(budget);
        let noise = NoiseSource::seeded(seed);
        (acct.clone(), Queryable::new(pkts, &acct, &noise))
    }

    #[test]
    fn exact_scan_matches_planted_truth() {
        let t = trace();
        let exact = worm_fingerprints_exact(&t.packets, 8, 50, 50);
        let planted: Vec<Vec<u8>> = t
            .truth
            .worms
            .iter()
            .filter(|w| w.sources > 50 && w.destinations > 50)
            .map(|w| w.payload.clone())
            .collect();
        for p in &planted {
            assert!(exact.contains(p), "planted worm not found by exact scan");
        }
        // Sub-threshold worms must not appear.
        for w in &t.truth.worms {
            if w.sources <= 50 || w.destinations <= 50 {
                assert!(!exact.contains(&w.payload));
            }
        }
    }

    #[test]
    fn weak_privacy_recovers_all_dispersed_worms() {
        let t = trace();
        let exact = worm_fingerprints_exact(&t.packets, 8, 50, 50);
        let (_, q) = protect(t.packets.clone(), 100.0, 61);
        let cfg = WormConfig {
            eps: 10.0,
            presence_threshold: 50.0,
            ..WormConfig::default()
        };
        let found = worm_fingerprints(&q, &cfg).unwrap();
        let found_payloads: std::collections::HashSet<Vec<u8>> =
            found.iter().map(|f| f.payload.clone()).collect();
        let recovered = exact.iter().filter(|p| found_payloads.contains(*p)).count();
        assert_eq!(
            recovered,
            exact.len(),
            "recovered {recovered}/{} at weak privacy",
            exact.len()
        );
    }

    #[test]
    fn strong_privacy_misses_low_presence_worms() {
        let t = trace();
        let exact = worm_fingerprints_exact(&t.packets, 8, 50, 50);
        let (_, q) = protect(t.packets.clone(), 100.0, 67);
        let cfg = WormConfig {
            eps: 0.1,
            presence_threshold: 50.0,
            ..WormConfig::default()
        };
        let found = worm_fingerprints(&q, &cfg).unwrap();
        let found_payloads: std::collections::HashSet<Vec<u8>> =
            found.iter().map(|f| f.payload.clone()).collect();
        let recovered = exact.iter().filter(|p| found_payloads.contains(*p)).count();
        assert!(
            recovered < exact.len(),
            "strong privacy should miss some of {} worms",
            exact.len()
        );
    }

    #[test]
    fn dispersion_estimates_are_accurate_at_weak_privacy() {
        let t = trace();
        let (_, q) = protect(t.packets.clone(), 1000.0, 71);
        let cfg = WormConfig {
            eps: 20.0,
            presence_threshold: 50.0,
            ..WormConfig::default()
        };
        let found = worm_fingerprints(&q, &cfg).unwrap();
        assert!(!found.is_empty());
        for f in &found {
            if let Some(truth) = t.truth.worms.iter().find(|w| w.payload == f.payload) {
                assert!(
                    (f.distinct_sources - truth.sources as f64).abs() < 5.0,
                    "src dispersion {} vs {}",
                    f.distinct_sources,
                    truth.sources
                );
                assert!((f.distinct_destinations - truth.destinations as f64).abs() < 5.0);
            }
        }
    }

    /// Synthetic packets carrying `payload` from many sources to many
    /// destinations on `port`.
    fn spray(payload: &[u8], n: usize, port: u16, base: u32) -> Vec<Packet> {
        (0..n)
            .map(|i| Packet {
                ts_us: i as u64,
                src_ip: base + i as u32,
                dst_ip: base + 1_000_000 + i as u32,
                src_port: 40000,
                dst_port: port,
                proto: dpnet_trace::Proto::Tcp,
                len: (40 + payload.len()) as u16,
                flags: dpnet_trace::TcpFlags::ack(),
                seq: i as u32,
                ack: 0,
                payload: payload.into(),
            })
            .collect()
    }

    #[test]
    fn port_qualification_rejects_cross_port_dispersion() {
        // A payload dispersed across MANY ports (port-scanning noise, the
        // base analysis's false positive)…
        let mut pkts = Vec::new();
        for i in 0..120u16 {
            let mut batch = spray(b"SCANNOIS", 1, 1000 + i, 0x0100_0000 + i as u32 * 4096);
            pkts.append(&mut batch);
        }
        // …and a genuine worm concentrated on port 445.
        pkts.extend(spray(b"WORMCODE", 120, 445, 0x0200_0000));
        let (_, q) = protect(pkts.clone(), 1e6, 79);

        let base_cfg = WormConfig {
            eps: 10.0,
            presence_threshold: 60.0,
            ..WormConfig::default()
        };
        // The base analysis reports both.
        let base = worm_fingerprints(&q, &base_cfg).unwrap();
        assert!(base.iter().any(|f| f.payload == b"SCANNOIS".to_vec()));
        assert!(base.iter().any(|f| f.payload == b"WORMCODE".to_vec()));

        // Port qualification keeps the worm and drops the scanner noise.
        let ports: Vec<u16> = (1000..1120).chain([445]).collect();
        let qualified = worm_fingerprints_with_port(&q, &base_cfg, &ports).unwrap();
        assert!(qualified
            .iter()
            .any(|f| f.payload == b"WORMCODE".to_vec() && f.port == 445));
        assert!(!qualified.iter().any(|f| f.payload == b"SCANNOIS".to_vec()));
    }

    #[test]
    fn sliding_window_finds_offset_invariant_content() {
        // Worm content at a random offset inside each payload: prefix
        // search fails, window search succeeds.
        let mut pkts = Vec::new();
        for i in 0..150usize {
            let mut payload = vec![(i % 251) as u8, ((i * 7) % 251) as u8];
            payload.truncate(i % 3); // offset 0, 1 or 2
            payload.extend_from_slice(b"EVILBZ");
            payload.resize(9, 0x11);
            let mut p = spray(&payload, 1, 445, 0x0300_0000 + i as u32 * 512);
            pkts.append(&mut p);
        }
        let (_, q) = protect(pkts, 1e6, 83);

        let prefix = worm_fingerprints(
            &q,
            &WormConfig {
                eps: 10.0,
                presence_threshold: 60.0,
                ..WormConfig::default()
            },
        )
        .unwrap();
        assert!(
            prefix.is_empty(),
            "prefix search should miss offset content: {prefix:?}"
        );

        let windowed = worm_fingerprints_windowed(
            &q,
            &WindowedWormConfig {
                eps: 10.0,
                presence_threshold: 60.0,
                ..WindowedWormConfig::default()
            },
        )
        .unwrap();
        assert!(
            windowed.iter().any(|f| f.payload == b"EVILBZ".to_vec()),
            "window search missed the infix: {windowed:?}"
        );
    }

    #[test]
    fn windowed_search_pays_the_fanout_multiplier() {
        let pkts = spray(b"ABCDEFGHI", 100, 80, 0x0400_0000);
        let acct = Accountant::new(1e6);
        let noise = NoiseSource::seeded(87);
        let q = Queryable::new(pkts, &acct, &noise);
        let cfg = WindowedWormConfig {
            window_len: 6,
            max_windows: 4,
            eps: 0.5,
            presence_threshold: 50.0,
            ..WindowedWormConfig::default()
        };
        worm_fingerprints_windowed(&q, &cfg).unwrap();
        // Search: 6 levels × 0.5 × fanout 4 = 12; dispersion: 2 × 0.5 × 4
        // = 4 (parallel across candidates). Total 16.
        assert!((acct.spent() - 16.0).abs() < 1e-9, "spent {}", acct.spent());
    }

    /// The calling thread and pools of 1, 2 and 8 workers.
    fn contexts() -> Vec<ExecCtx> {
        let mut out = vec![ExecCtx::Sequential];
        for workers in [1, 2, 8] {
            let pool = ExecPool::new(workers).unwrap().with_chunk_size(64);
            out.push(ExecCtx::pool(&pool));
        }
        out
    }

    /// Run `search` on the trace under every context; each must find what
    /// the calling thread finds and spend what it spends.
    fn assert_ctx_invariant<R: PartialEq + std::fmt::Debug>(
        packets: &[Packet],
        seed: u64,
        search: impl Fn(&Queryable<Packet>) -> Result<Vec<R>>,
    ) {
        let run = |ctx: ExecCtx| {
            let (acct, q) = protect(packets.to_vec(), 1e6, seed);
            let found = search(&q.with_ctx(ctx)).unwrap();
            assert!(!found.is_empty(), "expected findings at weak privacy");
            (found, acct.spent())
        };
        let mut ctxs = contexts().into_iter();
        let baseline = run(ctxs.next().unwrap());
        for ctx in ctxs {
            assert_eq!(run(ctx.clone()), baseline, "{ctx:?} diverged");
        }
    }

    #[test]
    fn pool_fingerprinting_is_identical_for_any_worker_count() {
        let t = trace();
        let cfg = WormConfig {
            eps: 10.0,
            presence_threshold: 50.0,
            ..WormConfig::default()
        };
        assert_ctx_invariant(&t.packets, 89, |q| worm_fingerprints(q, &cfg));
    }

    #[test]
    fn pool_fingerprinting_charges_match_sequential() {
        let t = trace();
        let cfg = WormConfig {
            eps: 1.0,
            presence_threshold: 50.0,
            ..WormConfig::default()
        };
        for ctx in contexts() {
            let (acct, q) = protect(t.packets.clone(), 100.0, 73);
            worm_fingerprints(&q.with_ctx(ctx.clone()), &cfg).unwrap();
            // (8 + 2) × ε, as on the calling thread: parts compose in
            // parallel whichever worker measures them.
            assert!(
                (acct.spent() - 10.0).abs() < 1e-9,
                "{ctx:?} spent {}",
                acct.spent()
            );
        }
    }

    #[test]
    fn port_and_windowed_fingerprints_match_on_the_calling_thread_and_any_pool() {
        let mut pkts = spray(b"WORMCODE", 120, 445, 0x0200_0000);
        for i in 0..120usize {
            let mut payload = vec![(i % 251) as u8; i % 3];
            payload.extend_from_slice(b"EVILBZ");
            pkts.extend(spray(&payload, 1, 80, 0x0300_0000 + i as u32 * 512));
        }
        let cfg = WormConfig {
            eps: 10.0,
            presence_threshold: 60.0,
            ..WormConfig::default()
        };
        assert_ctx_invariant(&pkts, 91, |q| {
            worm_fingerprints_with_port(q, &cfg, &[80, 445])
        });
        let windowed = WindowedWormConfig {
            eps: 10.0,
            presence_threshold: 60.0,
            ..WindowedWormConfig::default()
        };
        assert_ctx_invariant(&pkts, 93, |q| worm_fingerprints_windowed(q, &windowed));
    }

    #[test]
    fn privacy_cost_matches_the_formula() {
        let t = trace();
        let (acct, q) = protect(t.packets, 100.0, 73);
        let cfg = WormConfig {
            eps: 1.0,
            presence_threshold: 50.0,
            ..WormConfig::default()
        };
        worm_fingerprints(&q, &cfg).unwrap();
        // Search: 8 levels × ε. Dispersion: 2 counts × ε, parallel across
        // candidates. Total (8 + 2) × ε.
        assert!((acct.spent() - 10.0).abs() < 1e-9, "spent {}", acct.spent());
    }
}

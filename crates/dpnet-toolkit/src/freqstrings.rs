//! Frequent (sub)string discovery — the paper's §4.2.
//!
//! Learning which byte strings occur frequently *sounds* at odds with
//! privacy, but a string occurring many times is a statistical trend, not a
//! single record's secret. The naive approach — partition by all `256^B`
//! possible values — is privacy-cheap but computationally exorbitant.
//! Instead, the paper reveals strings byte by byte:
//!
//! 1. Partition records by their first byte; count the 256 bins.
//! 2. Every bin whose noisy count clears a threshold is *viable*: all
//!    frequent strings contribute to their prefix's bin, so no frequent
//!    string is lost (up to noise).
//! 3. Extend each viable prefix by all 256 bytes and repeat on two-byte
//!    prefixes — and so on to length `B`.
//!
//! Each round costs one partitioned count (parallel composition within a
//! round; sequential across the `B` rounds). The final counts estimate the
//! number of records carrying each surviving `B`-byte string.

use dpnet_obs::{emit_phase_global, span};
use pinq::{FxBuildHasher, Queryable, Result};
use std::collections::HashMap;

/// Pack up to 8 prefix bytes into one big-endian `u64` code. Distinct
/// prefixes of one length map to distinct codes.
fn pack(bytes: &[u8]) -> u64 {
    debug_assert!(bytes.len() <= 8);
    let mut code = 0u64;
    for &b in bytes {
        code = (code << 8) | u64::from(b);
    }
    code
}

/// A record's first `min(len, 8)` bytes, read once for every round of a
/// `length <= 8` search: the count of bytes read, and the bytes
/// left-aligned in a big-endian `u64` (zeros past the count). The first
/// `n` bytes of the record are then `code >> (64 - 8n)`.
fn head(bytes: &[u8]) -> (u8, u64) {
    let n = bytes.len().min(8);
    let mut word = [0u8; 8];
    word[..n].copy_from_slice(&bytes[..n]);
    (n as u8, u64::from_be_bytes(word))
}

/// Configuration for the frequent-string search.
#[derive(Debug, Clone)]
pub struct FrequentStringsConfig {
    /// Target string length `B` in bytes.
    pub length: usize,
    /// ε spent per extension round (total cost = `length × eps_per_level`).
    pub eps_per_level: f64,
    /// Noisy-count threshold a prefix must clear to be extended. The paper
    /// notes counterintuitively high thresholds *help*: they focus the
    /// budget's evidence on genuinely common strings.
    pub threshold: f64,
    /// Hard cap on viable prefixes carried to the next level, keeping the
    /// highest noisy counts. At strong privacy, noise can push large
    /// numbers of empty bins past any threshold; without a cap the
    /// candidate set grows by ×256 per level. This is the "aggressively
    /// restricting the candidate sets" discipline of §4.3 applied to the
    /// string search — noise-promoted prefixes sit near the threshold while
    /// genuinely frequent ones rank far above it.
    pub max_viable: usize,
}

impl Default for FrequentStringsConfig {
    fn default() -> Self {
        FrequentStringsConfig {
            length: 8,
            eps_per_level: 0.1,
            threshold: 100.0,
            max_viable: 512,
        }
    }
}

/// A discovered frequent string with its estimated occurrence count.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequentString {
    /// The discovered bytes (full configured length).
    pub bytes: Vec<u8>,
    /// Noisy count of records whose prefix equals `bytes`.
    pub noisy_count: f64,
}

/// Run the iterative prefix-extension search over the bytes `bytes` reads
/// from each record (records whose bytes are shorter than the configured
/// length never match any candidate).
///
/// Round `level` counts the parts `0..viable × 256`: part
/// `v * 256 + b` holds the records whose first `level - 1` bytes are the
/// `v`-th viable prefix and whose next byte is `b`, found through a map of
/// at most `max_viable` prefixes. For `length <= 8` each record's first
/// bytes are read once, into a packed `(len, u64)` buffer every round
/// walks; longer searches read them in place each round — e.g.
/// `|p: &Packet| &p.payload` — so a round allocates nothing per record.
///
/// Returns surviving strings sorted by estimated count, descending.
pub fn frequent_strings<T: Send + Sync + 'static>(
    data: &Queryable<T>,
    bytes: impl Fn(&T) -> &[u8] + Copy + Send + Sync + 'static,
    cfg: &FrequentStringsConfig,
) -> Result<Vec<FrequentString>> {
    assert!(cfg.length > 0, "string length must be positive");
    let phase = span::enter_timed("frequent_strings");
    // Viable prefixes from the previous round (starts with the empty one).
    let mut viable: Vec<Vec<u8>> = vec![Vec::new()];
    let mut counts: Vec<f64> = vec![f64::INFINITY];
    let mut levels_run = 0usize;
    // Every round of a short search reads the same at most 8 bytes per
    // record: read them once (a transform; it costs no ε).
    let packed = (cfg.length <= 8).then(|| data.map(move |r| head(bytes(r))).collect_protected());

    for level in 1..=cfg.length {
        levels_run = level;
        // One partitioned count covers the whole round: every viable
        // prefix extended by every byte value, in prefix-then-byte order.
        // Records too short for a `level`-byte prefix, or whose first
        // `level - 1` bytes are not viable, are dropped, as under
        // `partition`.
        let parts = viable.len() * 256;
        let round_counts: Vec<f64> = match &packed {
            Some(packed) => {
                let slot: HashMap<u64, usize, FxBuildHasher> = viable
                    .iter()
                    .enumerate()
                    .map(|(v, p)| (pack(p), v))
                    .collect();
                let next = 64 - 8 * level as u32; // the next byte's shift
                packed.partition_noisy_counts_indexed(
                    parts,
                    move |&(len, code)| {
                        if usize::from(len) < level {
                            return None;
                        }
                        // `checked_shr` reads the empty prefix at level 1.
                        let prefix = code.checked_shr(next + 8).unwrap_or(0);
                        let v = slot.get(&prefix)?;
                        Some(v * 256 + ((code >> next) & 0xff) as usize)
                    },
                    cfg.eps_per_level,
                )?
            }
            None => {
                let slot: HashMap<&[u8], usize, FxBuildHasher> = viable
                    .iter()
                    .enumerate()
                    .map(|(v, p)| (p.as_slice(), v))
                    .collect();
                data.partition_noisy_counts_indexed(
                    parts,
                    move |rec: &T| {
                        let b = bytes(rec).get(..level)?;
                        let v = slot.get(&b[..level - 1])?;
                        Some(v * 256 + usize::from(b[level - 1]))
                    },
                    cfg.eps_per_level,
                )?
            }
        };
        // Keep only the strongest candidates (post-processing of released
        // counts — no privacy cost). Candidate `i` is `viable[i / 256]`
        // extended by byte `i % 256`; only survivors get their bytes built.
        let mut survivors: Vec<(usize, f64)> = round_counts
            .into_iter()
            .enumerate()
            .filter(|&(_, c)| c > cfg.threshold)
            .collect();
        survivors.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite counts"));
        survivors.truncate(cfg.max_viable);
        viable = survivors
            .iter()
            .map(|&(i, _)| {
                let mut c = viable[i / 256].clone();
                c.push((i % 256) as u8);
                c
            })
            .collect();
        counts = survivors.into_iter().map(|(_, c)| c).collect();
        if viable.is_empty() {
            break;
        }
    }

    let mut out: Vec<FrequentString> = viable
        .into_iter()
        .zip(counts)
        .filter(|(s, _)| s.len() == cfg.length)
        .map(|(bytes, noisy_count)| FrequentString { bytes, noisy_count })
        .collect();
    out.sort_by(|a, b| {
        b.noisy_count
            .partial_cmp(&a.noisy_count)
            .expect("noisy counts are finite")
    });
    // One partitioned count per extension round actually executed.
    emit_phase_global(
        "frequent_strings",
        levels_run as f64 * cfg.eps_per_level,
        &phase,
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinq::{Accountant, NoiseSource};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Dataset: a few planted frequent strings plus unique-random noise.
    #[allow(clippy::type_complexity)]
    fn dataset(seed: u64) -> (Vec<Vec<u8>>, Vec<(Vec<u8>, usize)>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let planted: Vec<(Vec<u8>, usize)> = vec![
            (b"AAAA".to_vec(), 3000),
            (b"BBBB".to_vec(), 900),
            (b"ABCD".to_vec(), 400),
        ];
        let mut records = Vec::new();
        for (s, n) in &planted {
            for _ in 0..*n {
                records.push(s.clone());
            }
        }
        for _ in 0..4000 {
            let mut r = vec![0u8; 4];
            rng.fill(&mut r[..]);
            records.push(r);
        }
        (records, planted)
    }

    fn protect(records: Vec<Vec<u8>>, budget: f64, seed: u64) -> (Accountant, Queryable<Vec<u8>>) {
        let acct = Accountant::new(budget);
        let noise = NoiseSource::seeded(seed);
        let q = Queryable::new(records, &acct, &noise);
        (acct, q)
    }

    #[test]
    fn planted_strings_are_found_in_order() {
        let (records, planted) = dataset(1);
        let (_, q) = protect(records, 100.0, 2);
        let cfg = FrequentStringsConfig {
            length: 4,
            eps_per_level: 1.0,
            threshold: 150.0,
            max_viable: 512,
        };
        let found = frequent_strings(&q, Vec::as_slice, &cfg).unwrap();
        assert!(found.len() >= 3, "found {}", found.len());
        assert_eq!(found[0].bytes, planted[0].0);
        assert_eq!(found[1].bytes, planted[1].0);
        assert_eq!(found[2].bytes, planted[2].0);
        // Counts are accurate to ~Lap(1/eps).
        assert!((found[0].noisy_count - 3000.0).abs() < 10.0);
    }

    #[test]
    fn privacy_cost_is_levels_times_eps() {
        let (records, _) = dataset(3);
        let (acct, q) = protect(records, 100.0, 4);
        let cfg = FrequentStringsConfig {
            length: 4,
            eps_per_level: 0.5,
            threshold: 150.0,
            max_viable: 512,
        };
        frequent_strings(&q, Vec::as_slice, &cfg).unwrap();
        // One partitioned count per level: 4 × 0.5.
        assert!((acct.spent() - 2.0).abs() < 1e-9, "spent {}", acct.spent());
    }

    #[test]
    fn high_threshold_prunes_everything() {
        let (records, _) = dataset(5);
        let (_, q) = protect(records, 100.0, 6);
        let cfg = FrequentStringsConfig {
            length: 4,
            eps_per_level: 1.0,
            threshold: 1e7,
            max_viable: 512,
        };
        assert!(frequent_strings(&q, Vec::as_slice, &cfg)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn threshold_separates_planted_from_noise() {
        let (records, _) = dataset(7);
        let (_, q) = protect(records, 100.0, 8);
        let cfg = FrequentStringsConfig {
            length: 4,
            eps_per_level: 1.0,
            threshold: 300.0,
            max_viable: 512,
        };
        let found = frequent_strings(&q, Vec::as_slice, &cfg).unwrap();
        // Only AAAA (3000) and BBBB (900) clear 300; ABCD (400) does too.
        assert_eq!(found.len(), 3);
    }

    #[test]
    fn short_records_are_ignored() {
        let mut records = vec![b"AB".to_vec(); 1000]; // too short for length 4
        records.extend(vec![b"XYZW".to_vec(); 1000]);
        let (_, q) = protect(records, 100.0, 9);
        let cfg = FrequentStringsConfig {
            length: 4,
            eps_per_level: 1.0,
            threshold: 200.0,
            max_viable: 512,
        };
        let found = frequent_strings(&q, Vec::as_slice, &cfg).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].bytes, b"XYZW".to_vec());
    }

    #[test]
    fn results_are_sorted_descending() {
        let (records, _) = dataset(11);
        let (_, q) = protect(records, 100.0, 12);
        let cfg = FrequentStringsConfig {
            length: 4,
            eps_per_level: 1.0,
            threshold: 150.0,
            max_viable: 512,
        };
        let found = frequent_strings(&q, Vec::as_slice, &cfg).unwrap();
        assert!(found
            .windows(2)
            .all(|w| w[0].noisy_count >= w[1].noisy_count));
    }

    /// The worm search reads each packet's payload in place through the
    /// byte accessor. Against the form it replaced — a per-record copy of
    /// the first 8 bytes, `map(|p| p.payload[..8].to_vec())` — it finds the
    /// same candidates with the same noisy-count bits, spends the same ε,
    /// leaves the noise stream at the same next draw and emits as many
    /// `Aggregate` events, on the calling thread and on a 2-worker pool.
    #[test]
    fn payloads_read_in_place_match_the_copied_prefix_form() {
        use dpnet_obs::{Event, MemorySink};
        use dpnet_trace::gen::hotspot::{generate, HotspotConfig};
        use dpnet_trace::Packet;
        use pinq::{ExecCtx, ExecPool};
        use std::sync::Arc;

        let trace = generate(HotspotConfig {
            web_flows: 250,
            worms_above_threshold: 8,
            worms_below_threshold: 4,
            stepping_stone_pairs: 1,
            interactive_decoys: 1,
            itemset_hosts: 10,
            ..HotspotConfig::default()
        });
        let cfg = FrequentStringsConfig {
            length: 8,
            eps_per_level: 0.1,
            threshold: 100.0,
            max_viable: 512,
        };
        let pool = ExecPool::new(2).unwrap();
        for ctx in [ExecCtx::Sequential, ExecCtx::pool(&pool)] {
            let run = |in_place: bool| {
                let acct = Accountant::new(1e9);
                let sink = Arc::new(MemorySink::new());
                acct.set_sink(Some(sink.clone()));
                let noise = NoiseSource::seeded(29);
                let packets = Queryable::new(trace.packets.clone(), &acct, &noise)
                    .with_ctx(ctx.clone())
                    .filter(|p| p.payload.len() >= 8);
                let found = if in_place {
                    frequent_strings(&packets, |p: &Packet| &p.payload, &cfg)
                } else {
                    let copied = packets.map(|p| p.payload[..8].to_vec());
                    frequent_strings(&copied, Vec::as_slice, &cfg)
                }
                .unwrap();
                let found: Vec<(Vec<u8>, u64)> = found
                    .into_iter()
                    .map(|f| (f.bytes, f.noisy_count.to_bits()))
                    .collect();
                let aggregates = sink
                    .events()
                    .iter()
                    .filter(|e| matches!(e, Event::Aggregate(_)))
                    .count();
                let next_draw = noise.uniform().to_bits();
                (found, acct.spent().to_bits(), next_draw, aggregates)
            };
            let in_place = run(true);
            assert!(!in_place.0.is_empty());
            assert!(in_place.3 > 8 * 256, "{} aggregates", in_place.3);
            assert_eq!(in_place, run(false));
        }
    }

    /// The keyed-candidate rounds the indexed search replaced, kept as a
    /// reference: each round lists every viable prefix extended by every
    /// byte as a partition key (`u64` codes up to 8 bytes, byte vectors
    /// beyond) and re-reads each record's bytes through `data`.
    fn keyed_rounds<T: Send + Sync>(
        data: &Queryable<T>,
        bytes: impl Fn(&T) -> &[u8] + Copy + Send + Sync,
        cfg: &FrequentStringsConfig,
    ) -> Result<Vec<FrequentString>> {
        let mut viable: Vec<Vec<u8>> = vec![Vec::new()];
        let mut counts: Vec<f64> = vec![f64::INFINITY];
        for level in 1..=cfg.length {
            let round_counts: Vec<f64> = if cfg.length <= 8 {
                let mut codes: Vec<Option<u64>> = Vec::new();
                for prefix in &viable {
                    let base = pack(prefix) << 8;
                    codes.extend((0..=255u64).map(|b| Some(base | b)));
                }
                data.partition_noisy_counts(
                    &codes,
                    move |rec: &T| {
                        let b = bytes(rec);
                        (b.len() >= level).then(|| pack(&b[..level]))
                    },
                    cfg.eps_per_level,
                )?
            } else {
                let mut candidates: Vec<Vec<u8>> = Vec::new();
                for prefix in &viable {
                    for b in 0..=255u8 {
                        let mut c = prefix.clone();
                        c.push(b);
                        candidates.push(c);
                    }
                }
                data.partition_noisy_counts(
                    &candidates,
                    move |rec: &T| {
                        let b = bytes(rec);
                        if b.len() >= level {
                            b[..level].to_vec()
                        } else {
                            Vec::new()
                        }
                    },
                    cfg.eps_per_level,
                )?
            };
            let mut survivors: Vec<(usize, f64)> = round_counts
                .into_iter()
                .enumerate()
                .filter(|&(_, c)| c > cfg.threshold)
                .collect();
            survivors.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            survivors.truncate(cfg.max_viable);
            viable = survivors
                .iter()
                .map(|&(i, _)| {
                    let mut c = viable[i / 256].clone();
                    c.push((i % 256) as u8);
                    c
                })
                .collect();
            counts = survivors.into_iter().map(|(_, c)| c).collect();
            if viable.is_empty() {
                break;
            }
        }
        let mut out: Vec<FrequentString> = viable
            .into_iter()
            .zip(counts)
            .filter(|(s, _)| s.len() == cfg.length)
            .map(|(bytes, noisy_count)| FrequentString { bytes, noisy_count })
            .collect();
        out.sort_by(|a, b| b.noisy_count.partial_cmp(&a.noisy_count).unwrap());
        Ok(out)
    }

    /// Both record-reading paths — the bytes packed once at length 3 and
    /// 8, read in place each round at length 10 — release what the
    /// keyed-candidate rounds release: the same strings with the same
    /// noisy-count bits, the same ε, as many `Aggregate` events, and the
    /// noise stream left at the same next draw. The records mix strings
    /// longer than every length, planted strings sharing long prefixes,
    /// records shorter than the search (down to empty ones) and random
    /// bytes, behind a lazy filter, on the calling thread and on a
    /// 2-worker pool whose chunks split the input.
    #[test]
    fn indexed_rounds_match_the_keyed_candidate_rounds() {
        use dpnet_obs::{Event, MemorySink};
        use pinq::{ExecCtx, ExecPool};
        use std::sync::Arc;

        let mut rng = StdRng::seed_from_u64(13);
        let mut records: Vec<Vec<u8>> = Vec::new();
        let planted: [(&[u8], usize); 6] = [
            (b"ABCDEFGHIJKL", 700),
            (b"ABCDEFGHIJ", 300),
            (b"ABCDEFGXYZ", 400),
            (b"ABCDEFGH", 250),
            (b"ABC", 500),
            (b"", 300),
        ];
        for (s, n) in planted {
            records.extend(std::iter::repeat(s.to_vec()).take(n));
        }
        for _ in 0..3000 {
            let mut r = vec![0u8; rng.gen_range(0..14)];
            rng.fill(&mut r[..]);
            records.push(r);
        }
        let pool = ExecPool::new(2).unwrap().with_chunk_size(512);
        for length in [3, 8, 10] {
            let cfg = FrequentStringsConfig {
                length,
                eps_per_level: 0.5,
                threshold: 150.0,
                max_viable: 512,
            };
            for ctx in [ExecCtx::Sequential, ExecCtx::pool(&pool)] {
                let run = |indexed: bool| {
                    let acct = Accountant::new(1e9);
                    let sink = Arc::new(MemorySink::new());
                    acct.set_sink(Some(sink.clone()));
                    let noise = NoiseSource::seeded(31);
                    let q = Queryable::new(records.clone(), &acct, &noise)
                        .with_ctx(ctx.clone())
                        .filter(|r| r.len() != 5);
                    let found = if indexed {
                        frequent_strings(&q, Vec::as_slice, &cfg)
                    } else {
                        keyed_rounds(&q, Vec::as_slice, &cfg)
                    }
                    .unwrap();
                    let found: Vec<(Vec<u8>, u64)> = found
                        .into_iter()
                        .map(|f| (f.bytes, f.noisy_count.to_bits()))
                        .collect();
                    let aggregates = sink
                        .events()
                        .iter()
                        .filter(|e| matches!(e, Event::Aggregate(_)))
                        .count();
                    let next_draw = noise.uniform().to_bits();
                    (found, acct.spent().to_bits(), aggregates, next_draw)
                };
                let indexed = run(true);
                assert!(!indexed.0.is_empty(), "length {length}: nothing found");
                assert_eq!(indexed, run(false), "length {length} {ctx:?}");
            }
        }
    }
}

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
use pinq::{Queryable, Result};

/// Pack up to 8 prefix bytes into one big-endian `u64` code. Distinct
/// prefixes of one length map to distinct codes, so at `length ≤ 8` each
/// extension round can partition on integer keys instead of `Vec<u8>`
/// allocations.
fn pack(bytes: &[u8]) -> u64 {
    debug_assert!(bytes.len() <= 8);
    let mut code = 0u64;
    for &b in bytes {
        code = (code << 8) | u64::from(b);
    }
    code
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
/// length never match any candidate). The bytes are read in place — e.g.
/// `|p: &Packet| &p.payload` — so a round allocates nothing per record.
///
/// Returns surviving strings sorted by estimated count, descending.
pub fn frequent_strings<T: Send + Sync>(
    data: &Queryable<T>,
    bytes: impl Fn(&T) -> &[u8] + Copy + Send + Sync,
    cfg: &FrequentStringsConfig,
) -> Result<Vec<FrequentString>> {
    assert!(cfg.length > 0, "string length must be positive");
    let phase = span::enter_timed("frequent_strings");
    // Viable prefixes from the previous round (starts with the empty one).
    let mut viable: Vec<Vec<u8>> = vec![Vec::new()];
    let mut counts: Vec<f64> = vec![f64::INFINITY];
    let mut levels_run = 0usize;

    for level in 1..=cfg.length {
        levels_run = level;
        // Candidates: every viable prefix extended by every byte value, in
        // prefix-then-byte order. One batched partitioned count covers the
        // whole round — a single histogram pass over the records instead of
        // materializing up to `max_viable × 256` per-part buffers. Records
        // too short for a `level`-byte prefix map to a key outside the
        // candidate list and are dropped, as under `partition`.
        let round_counts: Vec<f64> = if cfg.length <= 8 {
            // Fast path: prefixes pack into u64 codes, so each record is
            // keyed by one shift-or loop and candidate keys cost nothing to
            // build. `None` marks too-short records; it can never collide
            // with a candidate code.
            let mut codes: Vec<Option<u64>> = Vec::with_capacity(viable.len() * 256);
            for prefix in &viable {
                let base = pack(prefix) << 8;
                for b in 0..=255u64 {
                    codes.push(Some(base | b));
                }
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
            let mut candidates: Vec<Vec<u8>> = Vec::with_capacity(viable.len() * 256);
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
                        Vec::new() // never a candidate at level ≥ 1
                    }
                },
                cfg.eps_per_level,
            )?
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
}

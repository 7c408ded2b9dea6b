//! E-T4 — paper Table 4: true vs. estimated counts of the top-10 payload
//! strings.
//!
//! The frequent-string tool (§4.2) discovers the most common payload
//! strings in the Hotspot trace and estimates each one's count. The paper's
//! result: the top 10 are discovered *correctly, in order*, with relative
//! count errors of a few hundredths of a percent.

use crate::datasets;
use crate::report::{f, header, hex, Table};
use dpnet_toolkit::freqstrings::{frequent_strings, FrequentStringsConfig};
use dpnet_trace::Packet;
use pinq::{Accountant, NoiseSource, Queryable};
use std::collections::HashMap;

/// One row of the reproduced Table 4.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// The discovered string.
    pub string: Vec<u8>,
    /// True count from the generator's ground truth.
    pub true_count: usize,
    /// Estimated (noisy) count.
    pub est_count: f64,
    /// Relative error in percent.
    pub pct_err: f64,
    /// Whether this string is at the correct rank.
    pub rank_correct: bool,
}

/// Run the top-`k` frequent string discovery at per-level accuracy `eps`.
pub fn run(k: usize, eps: f64) -> (Vec<Table4Row>, String) {
    let trace = datasets::hotspot();
    let truth: HashMap<Vec<u8>, usize> = trace.truth.payload_counts.iter().cloned().collect();
    let true_order: Vec<Vec<u8>> = trace
        .truth
        .payload_counts
        .iter()
        .map(|(s, _)| s.clone())
        .collect();

    let budget = Accountant::new(1e9);
    let noise = NoiseSource::seeded(0x7ab4e4);
    let q = Queryable::new(trace.packets.clone(), &budget, &noise);
    let payloads = q.filter(|p| p.payload.len() >= 8);

    // Threshold well below the k-th true count so ranking is the test.
    let kth_count = trace
        .truth
        .payload_counts
        .get(k.saturating_sub(1))
        .map(|(_, c)| *c)
        .unwrap_or(0) as f64;
    let found = frequent_strings(
        &payloads,
        |p: &Packet| &p.payload,
        &FrequentStringsConfig {
            length: 8,
            eps_per_level: eps,
            threshold: (kth_count * 0.5).max(20.0),
            max_viable: 512,
        },
    )
    .expect("budget is huge");

    let mut rows = Vec::new();
    for (rank, fstr) in found.iter().take(k).enumerate() {
        let true_count = truth.get(&fstr.bytes).copied().unwrap_or(0);
        let pct_err = if true_count > 0 {
            (fstr.noisy_count - true_count as f64) / true_count as f64 * 100.0
        } else {
            f64::INFINITY
        };
        let rank_correct = true_order.get(rank) == Some(&fstr.bytes);
        rows.push(Table4Row {
            string: fstr.bytes.clone(),
            true_count,
            est_count: fstr.noisy_count,
            pct_err,
            rank_correct,
        });
    }

    let mut table = Table::new(&["string", "true count", "est. count", "% err", "rank ok"]);
    for r in &rows {
        table.row(vec![
            hex(&r.string),
            r.true_count.to_string(),
            format!("{:.3}", r.est_count),
            format!("{:+.3}", r.pct_err),
            r.rank_correct.to_string(),
        ]);
    }
    let mut out = header(
        "E-T4",
        "true and noisy counts of the top payload strings (paper Table 4)",
    );
    out.push_str(&format!("eps per level = {}\n", f(eps)));
    out.push_str(&table.render());
    out.push_str("\npaper shape: top-10 discovered correctly, in order, with low count error\n");
    (rows, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_strings_are_found_in_order_with_low_error() {
        let (rows, report) = run(10, 1.0);
        assert_eq!(rows.len(), 10);
        let correct = rows.iter().filter(|r| r.rank_correct).count();
        assert!(correct >= 8, "only {correct}/10 ranks correct");
        for r in rows.iter().take(5) {
            assert!(r.pct_err.abs() < 5.0, "top string error {}%", r.pct_err);
        }
        assert!(report.contains("E-T4"));
    }
}

//! E-F1 — paper Figure 1: the three CDF estimators on retransmission delays.
//!
//! The measured quantity is the time difference between a packet and its
//! retransmission in the Hotspot trace, discretized to 1 ms over 0–250 ms.
//! All three estimators are given the same *total* privacy allotment, so:
//!
//! * cdf1 splits it across 250 direct cumulative counts — error ∝ |buckets|;
//! * cdf2 spends it once via `Partition` — error ∝ √|buckets|;
//! * cdf3 spends it across log₂ levels — error ∝ log^{3/2}|buckets|.
//!
//! The paper's Figure 1(a): cdf1's error is "incredibly high"; cdf2 and cdf3
//! are indistinguishable from the truth at full scale.

use crate::datasets;
use crate::report::{f, header, pct, Table};
use dpnet_toolkit::cdf::{cdf_hierarchical, cdf_naive, cdf_partition, noise_free_cdf};
use dpnet_toolkit::stats::rmse;
use dpnet_trace::{FlowKey, Packet};
use pinq::{Accountant, ExecCtx, NoiseSource, Queryable, Result};

/// Number of 1 ms buckets: 0–250 ms, as in the paper.
pub const BUCKETS: usize = 250;

/// Per-method results.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// Noise-free CDF.
    pub truth: Vec<f64>,
    /// cdf1 estimate.
    pub cdf1: Vec<f64>,
    /// cdf2 estimate.
    pub cdf2: Vec<f64>,
    /// cdf3 estimate.
    pub cdf3: Vec<f64>,
}

/// Build the protected retransmission-delay dataset (in 1 ms buckets) from
/// protected packets: group by (flow, seq), difference consecutive
/// transmissions, keep the first retransmission delay per group.
pub fn private_retx_delays(packets: &Queryable<Packet>) -> Queryable<usize> {
    packets
        .filter(|p| FlowKey::of(p).is_tcp() && !p.flags.is_syn() && !p.payload.is_empty())
        .group_by(|p| (FlowKey::of(p), p.seq))
        .filter(|g| g.items.len() >= 2)
        .map(|g| {
            let mut times: Vec<u64> = g.items.iter().map(|p| p.ts_us).collect();
            times.sort_unstable();
            let delay_ms = (times[1] - times[0]) / 1000;
            (delay_ms as usize).min(BUCKETS - 1)
        })
}

/// Run Figure 1 with the given total ε per estimator, on `ctx`. The CDF
/// estimators release bit-identical values on the calling thread and on a
/// pool of any size (noise draws never move off the calling thread).
pub fn run(eps_total: f64, ctx: ExecCtx) -> Result<(Fig1, String)> {
    let trace = datasets::hotspot();

    // Noise-free reference from the exact reference computation.
    let exact_values: Vec<usize> = dpnet_trace::tcp::retransmission_delays(&trace.packets)
        .into_iter()
        .map(|us| ((us / 1000) as usize).min(BUCKETS - 1))
        .collect();
    let truth = noise_free_cdf(&exact_values, BUCKETS);

    let budget = Accountant::new(1e9);
    let noise = NoiseSource::seeded(0xf1);
    // Shared shards: wrapping is Arc bumps, not a trace copy, and the flat
    // order matches `trace.packets`, so releases are unchanged.
    let q = Queryable::from_shared_shards(datasets::hotspot_shards().clone(), &budget, &noise)
        .with_ctx(ctx);
    let delays = private_retx_delays(&q);

    let levels = (BUCKETS.next_power_of_two().trailing_zeros() + 1) as f64;
    let cdf1 = cdf_naive(&delays, BUCKETS, eps_total / BUCKETS as f64)?;
    let cdf2 = cdf_partition(&delays, BUCKETS, eps_total)?;
    let cdf3 = cdf_hierarchical(&delays, BUCKETS, eps_total / levels)?;

    let result = Fig1 {
        truth: truth.clone(),
        cdf1: cdf1.clone(),
        cdf2: cdf2.clone(),
        cdf3: cdf3.clone(),
    };

    let mut out = header(
        "E-F1",
        "three CDF estimators on retransmission delays (paper Figure 1)",
    );
    out.push_str(&format!(
        "{} retransmission pairs, 1 ms buckets over 0-250 ms, total eps {} per method\n\n",
        exact_values.len(),
        eps_total
    ));
    let mut table = Table::new(&["ms", "noise-free", "cdf1", "cdf2", "cdf3"]);
    for ms in (24..BUCKETS).step_by(25) {
        table.row(vec![
            ms.to_string(),
            f(truth[ms]),
            f(cdf1[ms]),
            f(cdf2[ms]),
            f(cdf3[ms]),
        ]);
    }
    out.push_str(&table.render());
    // Normalized RMSE: absolute RMSE over the curve divided by the total
    // count, so empty early buckets do not blow a relative metric up.
    let total = truth.last().copied().unwrap_or(1.0).max(1.0);
    out.push_str(&format!(
        "\nRMSE / total vs noise-free: cdf1 {}, cdf2 {}, cdf3 {}\n\
         paper shape: cdf1 error incredibly high; cdf2/cdf3 indistinguishable from truth\n",
        pct(rmse(&cdf1, &truth) / total),
        pct(rmse(&cdf2, &truth) / total),
        pct(rmse(&cdf3, &truth) / total),
    ));
    Ok((result, out))
}

/// Normalized error of an estimate against the truth: RMSE over the curve
/// divided by the total count.
pub fn normalized_error(estimate: &[f64], truth: &[f64]) -> f64 {
    let total = truth.last().copied().unwrap_or(1.0).max(1.0);
    rmse(estimate, truth) / total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_shape_holds() {
        let (r, report) = run(1.0, ExecCtx::Sequential).unwrap();
        let e1 = normalized_error(&r.cdf1, &r.truth);
        let e2 = normalized_error(&r.cdf2, &r.truth);
        let e3 = normalized_error(&r.cdf3, &r.truth);
        // cdf1 is far worse than both partition-based estimators.
        assert!(e1 > 3.0 * e2, "cdf1 {e1} vs cdf2 {e2}");
        assert!(e1 > 3.0 * e3, "cdf1 {e1} vs cdf3 {e3}");
        // cdf2/cdf3 are accurate (a few percent of total mass).
        assert!(e2 < 0.05, "cdf2 normalized error {e2}");
        assert!(e3 < 0.08, "cdf3 normalized error {e3}");
        assert!(report.contains("E-F1"));
    }

    #[test]
    fn parallel_run_is_bit_identical_to_sequential() {
        let (seq, _) = run(1.0, ExecCtx::Sequential).unwrap();
        let pool = pinq::ExecPool::new(2).unwrap();
        let (par, _) = run(1.0, ExecCtx::pool(&pool)).unwrap();
        assert_eq!(seq.cdf1, par.cdf1);
        assert_eq!(seq.cdf2, par.cdf2);
        assert_eq!(seq.cdf3, par.cdf3);
    }
}

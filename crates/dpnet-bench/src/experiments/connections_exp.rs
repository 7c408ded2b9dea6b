//! E-CONN — §5.2.1's missing statistic: packets per connection.
//!
//! The paper could not isolate TCP connections within a 5-tuple flow and
//! proposed that "the data owner could pre-process the traces to add a
//! 'connection id' field". This experiment runs exactly that pipeline:
//! owner-side [`dpnet_trace::connections::annotate_connections`], then the
//! Swing packets-per-connection CDF privately at the three privacy levels.

use crate::datasets::{self, EPSILONS};
use crate::report::{f, header, pct, Table};
use dpnet_analyses::flow_stats::{connection_size_cdf, connection_size_cdf_exact};
use dpnet_obs::span;
use dpnet_toolkit::stats::relative_rmse;
use dpnet_trace::{annotate_connections, flow::assemble_conversations, Proto};
use pinq::{Accountant, NoiseSource, Queryable};

/// Results of the connection-size experiment.
#[derive(Debug, Clone)]
pub struct ConnResult {
    /// Number of TCP connections (noise-free).
    pub connections: f64,
    /// Number of bidirectional conversations carrying them.
    pub conversations: usize,
    /// (ε, relative RMSE of the private CDF).
    pub rmse: Vec<(f64, f64)>,
}

/// Run the experiment on the standard Hotspot trace.
pub fn run() -> (ConnResult, String) {
    let trace = datasets::hotspot();
    let max_packets = 150;
    let exact = {
        let _span = span::enter("harness/exact_cdf");
        connection_size_cdf_exact(&trace.packets, max_packets)
    };
    let conversations = {
        let _span = span::enter("harness/conversations");
        let tcp = trace.packets.iter().filter(|p| p.proto == Proto::Tcp);
        assemble_conversations(&tcp.cloned().collect::<Vec<_>>()).len()
    };

    // Owner-side pre-processing, then protection.
    let annotated = {
        let _span = span::enter("harness/annotate_connections");
        annotate_connections(&trace.packets)
    };
    let budget = Accountant::new(1e9);
    let noise = NoiseSource::seeded(0xc0);
    let q = Queryable::new(annotated, &budget, &noise);

    let mut rmse = Vec::new();
    for &eps in &EPSILONS {
        let cdf = connection_size_cdf(&q, max_packets, eps).expect("budget");
        rmse.push((eps, relative_rmse(&cdf.cdf, &exact)));
    }

    let result = ConnResult {
        connections: *exact.last().unwrap_or(&0.0),
        conversations,
        rmse: rmse.clone(),
    };

    let mut out = header(
        "E-CONN",
        "packets-per-connection CDF via connection-id pre-processing (§5.2.1)",
    );
    out.push_str(&format!(
        "{} TCP connections carried by {} conversations ({} flows multiplex \
         several connections)\n\n",
        f(result.connections),
        result.conversations,
        trace.truth.multi_connection_flows
    ));
    let mut table = Table::new(&["eps", "rel RMSE"]);
    for (eps, r) in &rmse {
        table.row(vec![eps.to_string(), pct(*r)]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\npaper: 'once connections are identified, the connection-level analyses\n\
         are straightforward' — confirmed: same fidelity profile as the flow CDFs\n",
    );
    (result, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connection_cdf_is_accurate_and_multiplexing_visible() {
        let (r, report) = run();
        // More connections than conversations: the pre-processing resolves
        // what the flow key cannot.
        assert!(r.connections > r.conversations as f64);
        // Medium privacy is already accurate.
        assert!(r.rmse[1].1 < 0.05, "eps=1 rel RMSE {}", r.rmse[1].1);
        assert!(r.rmse[2].1 < 0.01, "eps=10 rel RMSE {}", r.rmse[2].1);
        assert!(report.contains("E-CONN"));
    }
}

//! E-ITEM — paper §4.3: frequent port itemsets.
//!
//! "We use it to discover the common sets of ports that are used
//! simultaneously by hosts. … The top-five, which are all correct, in the
//! Hotspot trace are (22,80), (25,22), (443,80), (445,139), and (993,22)."
//!
//! The reproduced claim is that the privately discovered top pairs are the
//! *truly* most frequent co-used port pairs. In our trace that includes
//! both the explicitly planted itemset hosts and the organic pairs the
//! traffic model creates (e.g. (53, 80): web clients resolve names before
//! fetching), so scoring compares against exact per-host support.

use crate::datasets;
use crate::report::{f, header, Table};
use dpnet_toolkit::itemsets::{exact_support, frequent_itemsets, ItemsetConfig};
use dpnet_trace::gen::hotspot::COMMON_PORTS;
use pinq::{Accountant, ExecCtx, NoiseSource, Queryable};
use std::collections::BTreeSet;

/// One discovered port pair.
#[derive(Debug, Clone)]
pub struct ItemsetRow {
    /// The port pair.
    pub ports: Vec<u16>,
    /// Noisy partitioned support.
    pub noisy_count: f64,
    /// Exact number of hosts using both ports.
    pub exact: usize,
}

/// Build the exact per-host port-set records (the same view the private
/// query constructs).
fn host_port_sets(packets: &[dpnet_trace::Packet]) -> Vec<BTreeSet<u32>> {
    let mut per_host: std::collections::HashMap<u32, BTreeSet<u32>> =
        std::collections::HashMap::new();
    for p in packets {
        if p.dst_port > 0 {
            per_host
                .entry(p.src_ip)
                .or_default()
                .insert(p.dst_port as u32);
        }
    }
    per_host.into_values().collect()
}

/// The private per-host port-set view: one `BTreeSet<u32>` record per
/// source host, holding its destination ports. Each record carries the
/// host address as an item outside the 16-bit port space, keeping records
/// distinct (the partition rotation needs record diversity) without
/// affecting port candidates. Shared with the analysis registry.
pub fn private_host_port_sets(
    packets: &Queryable<dpnet_trace::Packet>,
) -> Queryable<BTreeSet<u32>> {
    packets.group_by(|p| p.src_ip).map(|g| -> BTreeSet<u32> {
        let mut set: BTreeSet<u32> = g
            .items
            .iter()
            .map(|p| p.dst_port as u32)
            .filter(|&p| p > 0)
            .collect();
        set.insert(0x1_0000 + g.key);
        set
    })
}

/// Run the port-itemset discovery at per-level accuracy `eps`, on `ctx`.
/// Mining releases the same values on the calling thread and on a pool of
/// any size (only partition data movement fans out).
pub fn run(eps: f64, ctx: ExecCtx) -> (Vec<ItemsetRow>, String) {
    let trace = datasets::hotspot();
    let budget = Accountant::new(1e9);
    let noise = NoiseSource::seeded(0x17e3);
    let q = Queryable::from_shared_shards(datasets::hotspot_shards().clone(), &budget, &noise)
        .with_ctx(ctx);

    let records = private_host_port_sets(&q);

    let universe: Vec<u32> = COMMON_PORTS.iter().map(|&p| p as u32).collect();
    let found = frequent_itemsets(
        &records,
        &ItemsetConfig {
            universe,
            max_size: 2,
            eps_per_level: eps,
            threshold: 8.0,
        },
    )
    .expect("budget is huge");

    let exact_records = host_port_sets(&trace.packets);
    let mut rows: Vec<ItemsetRow> = found
        .iter()
        .filter(|m| m.size == 2)
        .map(|m| {
            let mut ports: Vec<u16> = m.items.iter().map(|&i| i as u16).collect();
            ports.sort_unstable();
            let items_u32: Vec<u32> = ports.iter().map(|&p| p as u32).collect();
            ItemsetRow {
                ports,
                noisy_count: m.noisy_count,
                exact: exact_support(&exact_records, &items_u32),
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        b.noisy_count
            .partial_cmp(&a.noisy_count)
            .expect("finite counts")
    });

    let mut table = Table::new(&["port set", "noisy support", "exact host support"]);
    for r in rows.iter().take(8) {
        table.row(vec![
            format!(
                "({})",
                r.ports
                    .iter()
                    .map(|p| p.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            f(r.noisy_count),
            r.exact.to_string(),
        ]);
    }
    let mut out = header("E-ITEM", "frequent port itemsets (paper §4.3)");
    out.push_str(&format!("eps per level = {}\n", f(eps)));
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nexplicitly planted sets (host counts): {:?}\n\
         organic pairs (DNS-before-fetch) also rank, as they should\n\
         paper shape: the top discovered sets are truly frequent, in order\n",
        trace.truth.port_sets
    ));
    (rows, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_port_pairs_are_recovered_in_order() {
        let (rows, report) = run(1.0, ExecCtx::Sequential);
        assert!(rows.len() >= 5, "too few pairs: {}", rows.len());
        // Every one of the top-5 discovered pairs is genuinely frequent.
        let mut exacts: Vec<usize> = rows.iter().map(|r| r.exact).collect();
        exacts.sort_unstable_by(|a, b| b.cmp(a));
        let bar = exacts.get(7).copied().unwrap_or(0); // 8th-highest support
        for r in rows.iter().take(5) {
            assert!(
                r.exact >= bar.max(10),
                "top pair {:?} has weak exact support {}",
                r.ports,
                r.exact
            );
        }
        // The #1 discovered pair is the #1 by exact support.
        let best_exact = rows.iter().map(|r| r.exact).max().unwrap();
        assert_eq!(
            rows[0].exact, best_exact,
            "top discovered pair is not the true top: {rows:?}"
        );
        // The explicitly planted itemset pairs are found too.
        let trace = crate::datasets::hotspot();
        for (set, n) in &trace.truth.port_sets {
            if *n >= 15 {
                let mut sorted = set.clone();
                sorted.sort_unstable();
                assert!(
                    rows.iter().any(|r| r.ports == sorted),
                    "planted {sorted:?} (n={n}) not discovered"
                );
            }
        }
        assert!(report.contains("E-ITEM"));
    }
}

//! Hand-rolled metrics: atomic counters, fixed-bucket latency histograms,
//! and a named registry of both.
//!
//! Everything here is lock-free on the hot path (relaxed atomics; metric
//! reads are statistical, not transactional) and allocation-free after
//! registration, so instrumenting the engine costs nanoseconds per event.

use crate::json::JsonObj;
use crate::lock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two latency buckets: bucket `i` holds samples in
/// `[2^(i-1), 2^i)` ns (bucket 0 holds `0..1` ns). The last bucket is an
/// unbounded overflow bucket: every sample at or above 2⁴⁰ ns ≈ 18 minutes
/// lands there, so nothing is ever dropped however extreme the duration.
pub const HISTOGRAM_BUCKETS: usize = 42;

/// A fixed-bucket (power-of-two) histogram of nanosecond durations.
///
/// Recording is two relaxed atomic adds; no locks, no allocation.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

fn bucket_index(ns: u64) -> usize {
    ((64 - ns.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Upper bound (exclusive) of bucket `i` in nanoseconds. The last bucket is
/// the unbounded overflow bucket, so its bound reports as `u64::MAX` —
/// quantiles landing there clamp instead of claiming a 2⁴¹ ns ceiling the
/// samples may well exceed.
fn bucket_upper_ns(i: usize) -> u64 {
    if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << i
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one duration in nanoseconds. Durations above the top bucket
    /// boundary count into the overflow bucket — never dropped.
    pub fn record_ns(&self, ns: u64) {
        let idx = bucket_index(ns);
        debug_assert!(
            idx < HISTOGRAM_BUCKETS,
            "bucket index {idx} out of range for {ns}ns"
        );
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded durations, ns.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Mean recorded duration, ns (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_ns() as f64 / n as f64
        }
    }

    /// A point-in-time copy of the histogram contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count(),
            sum_ns: self.sum_ns(),
        }
    }

    /// Approximate quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// containing the `q`-th sample. Zero when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        self.snapshot().quantile_ns(q)
    }
}

/// An immutable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (power-of-two bucket boundaries).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of sample durations, ns.
    pub sum_ns: u64,
}

impl HistogramSnapshot {
    /// Approximate quantile (see [`Histogram::quantile_ns`]).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_ns(i);
            }
        }
        bucket_upper_ns(HISTOGRAM_BUCKETS - 1)
    }
}

/// A named collection of counters and histograms.
///
/// `counter`/`histogram` return shared handles: call once at setup and
/// update through the `Arc` on hot paths, or call per-use (a `BTreeMap`
/// lookup under a mutex) where convenience wins.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        lock(&self.counters)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        lock(&self.histograms)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        lock(&self.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        lock(&self.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }

    /// Human-readable dump of every metric.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in self.counters() {
            out.push_str(&format!("{name} = {v}\n"));
        }
        for (name, h) in self.histograms() {
            out.push_str(&format!(
                "{name}: n={} mean={:.0}ns p50={}ns p99={}ns\n",
                h.count,
                if h.count == 0 {
                    0.0
                } else {
                    h.sum_ns as f64 / h.count as f64
                },
                h.quantile_ns(0.5),
                h.quantile_ns(0.99),
            ));
        }
        out
    }

    /// Machine-readable JSON object of every metric.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObj::new();
        for (name, v) in self.counters() {
            obj.field_u64(&name, v);
        }
        for (name, h) in self.histograms() {
            obj.field_u64(&format!("{name}.count"), h.count);
            obj.field_u64(&format!("{name}.sum_ns"), h.sum_ns);
            obj.field_u64(&format!("{name}.p50_ns"), h.quantile_ns(0.5));
            obj.field_u64(&format!("{name}.p99_ns"), h.quantile_ns(0.99));
        }
        obj.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn histogram_buckets_cover_the_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = Histogram::new();
        for ns in [10u64, 20, 30, 40, 1_000_000] {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum_ns(), 1_000_100);
        // p50 lands in the bucket of 20–30ns samples: upper bound 32 or 64.
        let p50 = h.quantile_ns(0.5);
        assert!((32..=64).contains(&p50), "p50 = {p50}");
        // p100 lands in the bucket containing 1ms.
        assert!(h.quantile_ns(1.0) >= 1_000_000);
        assert!((h.mean_ns() - 200_020.0).abs() < 1.0);
    }

    #[test]
    fn values_above_the_top_bucket_clamp_into_the_overflow_bucket() {
        let h = Histogram::new();
        h.record_ns(1u64 << 45); // above the 2^41 top-bucket boundary
        h.record_ns(u64::MAX); // extreme value: must neither panic nor drop
        h.record_ns(10);
        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(
            snap.buckets.iter().sum::<u64>(),
            snap.count,
            "overflow samples must be counted in a bucket"
        );
        assert_eq!(snap.buckets[HISTOGRAM_BUCKETS - 1], 2);
        // Percentiles that land in the overflow bucket clamp to u64::MAX
        // (the bucket is unbounded) instead of reporting a 2^41 ceiling.
        assert_eq!(snap.quantile_ns(1.0), u64::MAX);
        assert_eq!(snap.quantile_ns(0.67), u64::MAX);
        assert!(snap.quantile_ns(0.01) <= 16, "small sample mis-bucketed");
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile_ns(0.5), 0);
        assert_eq!(h.mean_ns(), 0.0);
    }

    #[test]
    fn registry_shares_handles_by_name() {
        let r = MetricsRegistry::new();
        r.counter("events").inc();
        r.counter("events").inc();
        assert_eq!(r.counter("events").get(), 2);
        r.histogram("lat").record_ns(100);
        assert_eq!(r.histogram("lat").count(), 1);
        let text = r.render_text();
        assert!(text.contains("events = 2"));
        assert!(text.contains("lat:"));
        let json = r.to_json();
        assert!(json.contains("\"events\":2"));
        assert!(json.contains("\"lat.count\":1"));
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let c = Arc::new(Counter::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }
}

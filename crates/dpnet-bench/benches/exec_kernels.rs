//! Parallel-kernel benches: the chunked partition construction, the
//! parallel synthetic-trace generator at 1 vs 4 workers, and the
//! pipeline-depth bench comparing lazy fused plans against eager
//! per-operator materialization.
//!
//! These are the kernels the CI `bench-smoke` job watches: on a
//! multi-core runner the 4-worker variants should show a clear speedup
//! (the acceptance bar is ≥1.5×); on a single-core machine they degrade
//! gracefully to the sequential path plus scheduling overhead. The
//! `plan_pipeline` group runs a filter→map→partition chain over 1M
//! records two ways — lazily (one fused pass, no intermediate buffers)
//! and eagerly (`collect_protected` after every operator) — and is the
//! measured evidence behind the lazy execution model. The
//! `exec_group_by` group times the grouping kernel on fig1-shaped
//! `(flow, seq)` keys, over payload-free tuples and over fig1's own
//! filtered Hotspot packets, and `exec_fan_out` the fixed cost of one
//! partitioned noisy count over worm's widest round, keyed and indexed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dpnet_obs::{install_recorder, uninstall_recorder, TraceRecorder};
use dpnet_trace::flow::FlowKey;
use dpnet_trace::gen::hotspot::{self, HotspotConfig};
use dpnet_trace::gen::scatter::{generate_with, ScatterConfig};
use pinq::{Accountant, ExecCtx, ExecPool, NoiseSource, Queryable};
use std::sync::Arc;

const KEYS: usize = 256;

/// Records in the pipeline-depth bench. The acceptance bar for the lazy
/// execution model is measured at this scale: deep chains over ≥1M
/// records must beat the eager per-operator path.
const PIPELINE_N: usize = 1_000_000;

/// Records in the grouping bench, about the size of fig1's
/// retransmission grouping (~110k packets into ~108k groups).
const GROUP_N: u32 = 100_000;

/// Parts in the fan-out bench: worm's widest frequent-string round, 512
/// viable prefixes × 256 byte values.
const FAN_OUT_PARTS: u32 = 131_072;

fn dataset(n: usize) -> Queryable<u32> {
    let acct = Accountant::new(f64::MAX / 2.0);
    let noise = NoiseSource::seeded(11);
    let values: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect();
    Queryable::new(values, &acct, &noise)
}

fn bench_partition(c: &mut Criterion) {
    let mut g = c.benchmark_group("exec_partition");
    let q = dataset(200_000);
    let keys: Vec<u32> = (0..KEYS as u32).collect();
    for &workers in &[1usize, 4] {
        let pool = ExecPool::new(workers).unwrap();
        let q = q.clone().with_ctx(ExecCtx::pool(&pool));
        g.bench_with_input(
            BenchmarkId::new("partition_200k", workers),
            &workers,
            |b, _| b.iter(|| q.partition(&keys, |&v| v % KEYS as u32).unwrap().len()),
        );
    }
    g.finish();
}

/// One fan-out of a 1-record input into 131,072 parts: the histogram is
/// trivial, so this times what a fan-out costs per part. The keyed form
/// pays booking, noise draws and the key index; the indexed form only
/// booking and noise draws, so the gap between the two cases is the key
/// index.
fn bench_fan_out(c: &mut Criterion) {
    let mut g = c.benchmark_group("exec_fan_out");
    g.throughput(Throughput::Elements(u64::from(FAN_OUT_PARTS)));
    let q = dataset(1);
    let keys: Vec<u32> = (0..FAN_OUT_PARTS).collect();
    g.bench_function("partition_noisy_counts_131072_parts", |b| {
        b.iter(|| q.partition_noisy_counts(&keys, |&v| v, 0.1).unwrap().len())
    });
    g.bench_function("partition_noisy_counts_indexed_131072_parts", |b| {
        b.iter(|| {
            q.partition_noisy_counts_indexed(keys.len(), |&v| Some(v as usize), 0.1)
                .unwrap()
                .len()
        })
    });
    g.finish();
}

/// `group_by` over `(FlowKey, seq)` keys, as fig1 groups TCP data
/// packets: 3,000 flows, and every 50th record repeats its predecessor's
/// key (a retransmission), so ~98k groups of one or two members.
fn bench_group_by(c: &mut Criterion) {
    let mut g = c.benchmark_group("exec_group_by");
    g.throughput(Throughput::Elements(u64::from(GROUP_N)));
    let acct = Accountant::new(f64::MAX / 2.0);
    let noise = NoiseSource::seeded(11);
    let records: Vec<(FlowKey, u32, u64)> = (0..GROUP_N)
        .map(|i| {
            let j = if i % 50 == 49 { i - 1 } else { i };
            let flow = FlowKey {
                src_ip: 0x0a00_0000 + j % 3_000,
                dst_ip: 0xc0a8_0001,
                src_port: 1024 + (j % 3_000) as u16,
                dst_port: 80,
                proto: 6,
            };
            (flow, j.wrapping_mul(1460), u64::from(i) * 100)
        })
        .collect();
    let q = Queryable::new(records, &acct, &noise);
    g.bench_function("group_by_100k_flow_seq", |b| {
        b.iter(|| q.group_by(|r| (r.0, r.1)).stability())
    });
    // fig1's own barrier on the seed-11 Hotspot trace: the filter memo and
    // the member lists clone whole packets, payloads included, which the
    // tuple case above cannot see.
    let packets = hotspot::generate(HotspotConfig {
        seed: 11,
        ..HotspotConfig::default()
    })
    .packets;
    let q = Queryable::new(packets, &acct, &noise);
    let retx = |q: &Queryable<_>| {
        q.filter(|p| FlowKey::of(p).is_tcp() && !p.flags.is_syn() && !p.payload.is_empty())
            .group_by(|p| (FlowKey::of(p), p.seq))
            .stability()
    };
    g.bench_function("group_by_hotspot_flow_seq", |b| b.iter(|| retx(&q)));
    // The same barrier on a 2-worker pool, as dpbench's batch-retx runs it:
    // the filter memo, the hash pass and the per-part grouping fan out.
    let pooled = q.with_ctx(ExecCtx::pool(&ExecPool::new(2).unwrap()));
    g.bench_function("group_by_hotspot_flow_seq_pool_2", |b| {
        b.iter(|| retx(&pooled))
    });
    g.finish();
}

fn bench_trace_gen(c: &mut Criterion) {
    let mut g = c.benchmark_group("exec_trace_gen");
    let cfg = ScatterConfig {
        seed: 7,
        ips: 8_000,
        ..ScatterConfig::default()
    };
    for &workers in &[1usize, 4] {
        let pool = ExecPool::new(workers).unwrap();
        g.bench_with_input(
            BenchmarkId::new("scatter_8k_ips", workers),
            &workers,
            |b, _| b.iter(|| generate_with(cfg.clone(), &pool).records.len()),
        );
    }
    g.finish();
}

/// The canonical deep chain: filter (keep ~half) → map → partition.
/// `eager` forces a full materialization after every transform — the
/// pre-refactor per-operator behaviour; the lazy variant materializes
/// exactly once, inside `partition`, through the fused runner.
fn pipeline(q: &Queryable<u32>, keys: &[u32], eager: bool) -> usize {
    let force = |q: Queryable<u32>| if eager { q.collect_protected() } else { q };
    let filtered = force(q.filter(|&v| v % 2 == 0));
    let mapped = force(filtered.map(|&v| v / 2));
    mapped.partition(keys, |&v| v % KEYS as u32).unwrap().len()
}

fn bench_pipeline_depth(c: &mut Criterion) {
    let mut g = c.benchmark_group("plan_pipeline");
    g.sample_size(10);
    g.throughput(Throughput::Elements(PIPELINE_N as u64));
    let q = dataset(PIPELINE_N);
    let keys: Vec<u32> = (0..KEYS as u32).collect();
    g.bench_function("filter_map_partition_1m_lazy", |b| {
        b.iter(|| pipeline(&q, &keys, false))
    });
    g.bench_function("filter_map_partition_1m_eager", |b| {
        b.iter(|| pipeline(&q, &keys, true))
    });
    for &workers in &[2usize, 4] {
        let pool = ExecPool::new(workers).unwrap();
        let q = q.clone().with_ctx(ExecCtx::pool(&pool));
        g.bench_with_input(
            BenchmarkId::new("filter_map_partition_1m_lazy_pool", workers),
            &workers,
            |b, _| b.iter(|| pipeline(&q, &keys, false)),
        );
    }
    g.finish();
}

/// Span-profiler cost on the canonical pipeline, both ways: `off` is the
/// disabled path (instrumentation compiled in, no recorder installed —
/// each span site is one relaxed atomic load; budget ≤1% over the
/// pre-instrumentation pipeline), `on` records every span into an
/// installed [`TraceRecorder`] (budget ≤5% over `off`).
fn bench_profiler_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("profiler_overhead");
    g.sample_size(10);
    g.throughput(Throughput::Elements(PIPELINE_N as u64));
    let q = dataset(PIPELINE_N);
    let keys: Vec<u32> = (0..KEYS as u32).collect();
    g.bench_function("plan_pipeline_1m_profiler_off", |b| {
        b.iter(|| pipeline(&q, &keys, false))
    });
    g.bench_function("plan_pipeline_1m_profiler_on", |b| {
        let rec = Arc::new(TraceRecorder::new());
        install_recorder(rec.clone());
        b.iter(|| {
            rec.clear();
            pipeline(&q, &keys, false)
        });
        uninstall_recorder();
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_partition, bench_fan_out, bench_group_by, bench_trace_gen, bench_pipeline_depth, bench_profiler_overhead
}
criterion_main!(benches);

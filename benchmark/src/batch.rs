//! The batch workloads: one registry analysis run in-process, repeatedly,
//! each run on a fresh budget and a freshly seeded noise source. No wire,
//! broker or audit layer is involved.
//!
//! Runs cycle through [`STREAMS`] noise streams derived from the seed.
//! How much work worm does depends on its noise (which candidate payloads
//! survive pruning: 705k to 785k aggregations per run across ten noise
//! seeds on one trace), so a single stream would make a run's median hinge
//! on one draw. Every release must equal its stream's first release.

use crate::harness::{self, Checks, Outcome, Phase, RunOpts};
use crate::layers::{self, CountingSink, SpanFold};
use crate::metrics::{self, Workload};
use dpnet_bench::registry::{self, Analysis};
use dpnet_obs::span;
use dpnet_obs::{set_global_sink, TraceRecorder};
use dpnet_serve::shard_packets;
use dpnet_trace::gen::hotspot::{self, HotspotConfig};
use dpnet_trace::Packet;
use pinq::{Accountant, ExecCtx, ExecPool, NoiseSource, Queryable};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Budget of each run: never binds.
const BUDGET: f64 = 1e9;

/// Noise streams a run cycles through.
const STREAMS: u64 = 16;

/// What a run released, bit for bit, and what it spent.
#[derive(Debug, PartialEq)]
struct Release {
    values: Vec<(String, u64)>,
    spent_bits: u64,
}

/// Each stream's first release, and how many later ones differed.
#[derive(Debug, Default)]
struct Releases {
    runs: u64,
    first: Vec<Option<Release>>,
    mismatches: u64,
}

struct Batch {
    shards: Vec<Arc<Vec<Packet>>>,
    packets: usize,
    generate_s: f64,
    ctx: ExecCtx,
    analysis: &'static Analysis,
    eps: f64,
    seed: u64,
}

impl Batch {
    fn start(workload: Workload, seed: u64) -> Result<Batch, String> {
        let (name, eps, ctx) = match workload {
            // fig1-shaped: group_by memo, 250-way partitioned counts, pool.
            Workload::BatchRetx => (
                "retx-cdf",
                1.0,
                ExecCtx::pool(&ExecPool::new(2).map_err(|e| e.to_string())?),
            ),
            // ~0.75M aggregations per run on the calling thread.
            Workload::BatchWorm => ("worm", 0.1, ExecCtx::Sequential),
            other => unreachable!("{} is not a batch workload", other.name()),
        };
        let t = Instant::now();
        let trace = hotspot::generate(HotspotConfig {
            seed,
            ..HotspotConfig::default()
        });
        let generate_s = t.elapsed().as_secs_f64();
        let packets = trace.packets.len();
        Ok(Batch {
            shards: shard_packets(trace.packets),
            packets,
            generate_s,
            ctx,
            analysis: registry::find(name).expect("registered analysis"),
            eps,
            seed,
        })
    }

    fn run_once(&self, stream: u64, ctx: &ExecCtx) -> pinq::Result<Release> {
        let budget = Accountant::new(BUDGET);
        let noise = NoiseSource::seeded(self.seed.wrapping_mul(STREAMS).wrapping_add(stream));
        let q = Queryable::from_shared_shards(self.shards.clone(), &budget, &noise)
            .with_ctx(ctx.clone());
        let out = self.analysis.run(&q, self.eps)?;
        Ok(Release {
            values: out
                .values
                .into_iter()
                .map(|(k, v)| (k, v.to_bits()))
                .collect(),
            spent_bits: budget.spent().to_bits(),
        })
    }

    /// Run the analysis back to back for `dur` (at least once), checking
    /// every release against its stream's first. When `trace` is given,
    /// each run's spans are folded as soon as it ends.
    fn phase(
        &self,
        dur: Duration,
        releases: &mut Releases,
        mut trace: Option<(&TraceRecorder, &mut SpanFold)>,
    ) -> Phase {
        let mut phase = Phase::default();
        let me = span::current_track();
        let start = Instant::now();
        loop {
            let stream = releases.runs % STREAMS;
            releases.runs += 1;
            let t = Instant::now();
            let result = self.run_once(stream, &self.ctx);
            let ns = t.elapsed().as_nanos() as u64;
            phase.record(result.is_ok().then_some(ns));
            if let Ok(release) = result {
                let slot = &mut releases.first[stream as usize];
                match slot {
                    None => *slot = Some(release),
                    Some(f) if *f != release => releases.mismatches += 1,
                    Some(_) => {}
                }
            }
            if let Some((rec, fold)) = trace.as_mut() {
                fold.add(&rec.take(), |s| s.track == me);
            }
            if start.elapsed() >= dur {
                break;
            }
        }
        phase.elapsed = start.elapsed();
        phase
    }
}

pub fn run(workload: Workload, opts: &RunOpts) -> Result<Outcome, String> {
    let (batch, setup_s) = harness::repeated_setup(|_| Batch::start(workload, opts.seed))?;
    let mut releases = Releases {
        first: (0..STREAMS).map(|_| None).collect(),
        ..Releases::default()
    };
    batch.phase(harness::WARMUP, &mut releases, None);

    let measured = batch.phase(opts.phase(), &mut releases, None);
    let mut attempted = measured.attempted;
    let mut failed = measured.failed;
    let metrics = if opts.traced {
        let rec = layers::start_tracing();
        let mut fold = SpanFold::default();
        let traced = batch.phase(opts.phase(), &mut releases, Some((&rec, &mut fold)));
        span::uninstall_recorder();
        attempted += traced.attempted;
        failed += traced.failed;
        let mut m = metrics::zeroed_layers();
        fold.report(&mut m, traced.attempted, traced.total_ns);

        // Each noise stream does a different amount of work, so the event
        // counts come from one run on stream 0: they repeat exactly at a
        // seed.
        let sink = Arc::new(CountingSink::default());
        set_global_sink(Some(sink.clone()));
        let counted = batch.run_once(0, &batch.ctx);
        set_global_sink(None);
        let counted = counted.map_err(|e| format!("counting run: {e}"))?;
        if releases.first[0].as_ref() != Some(&counted) {
            releases.mismatches += 1;
        }
        let count = |n: &AtomicU64| n.load(Ordering::Relaxed) as f64;
        m.insert("aggregates.calls_per_op", count(&sink.aggregates));
        m.insert("kernel.charges_per_op", count(&sink.charges));
        layers::common(
            &mut m,
            batch.generate_s,
            batch.packets,
            measured.p50_ns()?,
            traced.p50_ns()?,
        );
        m
    } else {
        harness::end_to_end(setup_s, &measured)?
    };

    let mut checks = Checks::default();
    let mismatches = releases.mismatches;
    checks.check("batch_repeatable", mismatches == 0, || {
        format!(
            "{mismatches} runs released other values or spent other ε than their stream's first"
        )
    });
    let reference = batch
        .run_once(0, &ExecCtx::Sequential)
        .map_err(|e| e.to_string())?;
    let first = &releases.first[0];
    checks.check(
        "batch_reference",
        first.as_ref() == Some(&reference),
        || format!("run {first:?} differs from the sequential reference {reference:?}"),
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        measured,
        failed_checks: checks.into_failures(),
    })
}

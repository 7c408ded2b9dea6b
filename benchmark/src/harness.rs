//! What every workload shares: run options, set-up repetition, phases,
//! correctness checks, and the end-to-end metrics.

use crate::metrics::Metrics;
use crate::stats;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run; the run reports the median and keeps the last one.
/// Set-up is mostly trace generation (~40–60 ms): the first one or two in
/// a process run slower while fresh memory is faulted in, and the host's
/// speed flips within a second. Across runs the median's spread fell from
/// 0.15 at 5 set-ups to 0.09 at 9 and 0.07 at 15, and no further at 25.
/// The set-ups run back to back: with 300 ms pauses between them the
/// spread rose from 0.06 to 0.25, as each set-up started on cold caches.
pub const SETUP_REPS: usize = 15;

/// Load discarded before measuring, so caches and lazy state are warm.
pub const WARMUP: Duration = Duration::from_secs(1);

/// Options of one workload run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Seeds the trace and the noise.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Trace the run and report per-layer metrics.
    pub traced: bool,
}

impl RunOpts {
    /// Length of each measured phase. A traced run measures half untraced
    /// and half traced, so it can report the tracing overhead.
    pub fn phase(&self) -> Duration {
        let secs = if self.traced {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(secs)
    }
}

/// The result of one workload run.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// The untraced measured phase.
    pub measured: Phase,
    /// `name: detail` of every correctness check that failed.
    pub failed_checks: Vec<String>,
}

/// Correctness checks of one run.
#[derive(Debug, Default)]
pub struct Checks(Vec<String>);

impl Checks {
    /// Record check `name`; `detail` explains a failure.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            self.0.push(format!("{name}: {}", detail()));
        }
    }

    /// The failed checks.
    pub fn into_failures(self) -> Vec<String> {
        self.0
    }
}

/// Items a [`Sample`] keeps per client.
const SAMPLE_CAP: usize = 50_000;

/// A uniform random sample of at most [`SAMPLE_CAP`] items of a stream
/// (reservoir sampling). The benchmark shares its process with the program
/// it measures, so its own memory must not grow with the program's speed:
/// a fast serve workload completes hundreds of thousands of requests a run.
#[derive(Debug)]
pub struct Sample<T> {
    items: Vec<T>,
    seen: u64,
    rng: u64,
}

impl<T> Default for Sample<T> {
    fn default() -> Self {
        Sample {
            items: Vec::new(),
            seen: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl<T> Sample<T> {
    pub fn push(&mut self, item: T) {
        self.seen += 1;
        if self.items.len() < SAMPLE_CAP {
            self.items.push(item);
            return;
        }
        // xorshift64: the sample only needs to be unbiased, not secret.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let slot = self.rng % self.seen;
        if let Some(kept) = self.items.get_mut(slot as usize) {
            *kept = item;
        }
    }

    /// Items offered, kept or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Join another client's sample of the same phase. Clients of a closed
    /// loop complete about equally many operations, so the union stays
    /// close to uniform.
    pub fn absorb(&mut self, other: Sample<T>) {
        self.seen += other.seen;
        self.items.extend(other.items);
    }
}

/// Operations timed in one phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latencies of completed operations, ns.
    pub ops_ns: Sample<u64>,
    /// Summed latency of every completed operation, ns.
    pub total_ns: u64,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed: Duration,
}

impl Phase {
    /// Record one operation: its latency if it completed, else a failure.
    pub fn record(&mut self, latency_ns: Option<u64>) {
        self.attempted += 1;
        match latency_ns {
            Some(ns) => {
                self.ops_ns.push(ns);
                self.total_ns += ns;
            }
            None => self.failed += 1,
        }
    }

    /// Operations that completed.
    pub fn completed(&self) -> u64 {
        self.ops_ns.seen()
    }

    /// The sampled latencies, ascending.
    pub fn sorted_ns(&self) -> Vec<u64> {
        let mut v = self.ops_ns.items().to_vec();
        v.sort_unstable();
        v
    }

    /// Fold another client's share of the same phase into this one.
    pub fn absorb(&mut self, other: Phase) {
        self.ops_ns.absorb(other.ops_ns);
        self.total_ns += other.total_ns;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Median operation latency, ns.
    pub fn p50_ns(&self) -> Result<u64, String> {
        let v = self.sorted_ns();
        if v.is_empty() {
            return Err("no operation completed".to_string());
        }
        Ok(stats::percentile(&v, 50.0))
    }
}

/// Run `setup` [`SETUP_REPS`] times, dropping each result before the next
/// starts, and return the last result with the median set-up time.
pub fn repeated_setup<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup(rep)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPS > 0"), stats::median(&times)))
}

/// The end-to-end metrics of a measured phase. Call it as soon as the
/// phase ends, before correctness checks allocate: it reads peak RSS.
pub fn end_to_end(setup_s: f64, phase: &Phase) -> Result<Metrics, String> {
    if phase.completed() == 0 {
        return Err("no operation completed".to_string());
    }
    let mut m = Metrics::new();
    m.insert(
        "throughput_per_s",
        phase.completed() as f64 / phase.elapsed.as_secs_f64(),
    );
    m.insert("setup_s", setup_s);
    m.insert("peak_rss_mb", peak_rss_mb()?);
    Ok(m)
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// A per-process working directory next to the executable (inside the
/// build directory, so the benchmark writes only inside its checkout),
/// removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new() -> Result<WorkDir, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
        let dir = exe
            .parent()
            .ok_or("the executable has no parent directory")?
            .join("dpbench-work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

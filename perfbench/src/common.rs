//! Pieces every workload shares: the world and configuration the CLI
//! would use, `locec_obs` snapshot deltas, correctness gates, division
//! digests, and process-level facts (peak RSS, provenance).

use locec_core::{CommunityModelKind, DivisionResult, LocecConfig};
use locec_obs::{HistogramSnapshot, MetricsSnapshot, Recorder};
use locec_store::StoredWorld;
use locec_synth::{Scenario, SynthConfig};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::time::Instant;

/// The world `locec synth --preset default --users N --seed S` writes,
/// with one surveyed user in 50 as the repository's throughput benches
/// use (400 at 20k users, the preset's own value), and the CLI's seeded
/// 80/20 train/test split. Labels scale with the world, so CommCNN
/// training does too.
pub fn synth_world(users: usize, seed: u64) -> StoredWorld {
    let scenario = Scenario::generate(&SynthConfig {
        num_users: users,
        surveyed_users: (users / 50).max(10),
        seed,
        ..SynthConfig::default()
    });
    StoredWorld::from_scenario(&scenario, 0.8, LocecConfig::fast().seed)
}

/// The configuration every post-synth CLI stage builds by default
/// (`--preset fast`), with the given Phase II model.
pub fn cli_config(model: CommunityModelKind) -> LocecConfig {
    LocecConfig {
        community_model: model,
        ..LocecConfig::fast()
    }
}

/// Short name of a Phase II model.
pub fn model_name(model: CommunityModelKind) -> &'static str {
    match model {
        CommunityModelKind::Xgb => "xgb",
        CommunityModelKind::Cnn => "cnn",
    }
}

/// `after − before` for every counter and histogram. Histogram minima
/// are not recoverable from two snapshots, so a delta's `min` is 0 and
/// its percentiles resolve to bucket upper bounds (clamped to `max`).
pub fn obs_delta(before: &MetricsSnapshot, after: &MetricsSnapshot) -> MetricsSnapshot {
    let counters = after
        .counters
        .iter()
        .map(|(k, &v)| (k.clone(), v.wrapping_sub(before.counter(k))))
        .collect();
    let histograms = after
        .histograms
        .iter()
        .map(|(k, h)| {
            let d = match before.histograms.get(k) {
                Some(b) => HistogramSnapshot {
                    count: h.count - b.count,
                    sum: h.sum.wrapping_sub(b.sum),
                    min: 0,
                    max: h.max,
                    buckets: std::array::from_fn(|i| h.buckets[i] - b.buckets[i]),
                },
                None => HistogramSnapshot {
                    min: 0,
                    ..h.clone()
                },
            };
            (k.clone(), d)
        })
        .collect();
    MetricsSnapshot {
        counters,
        histograms,
    }
}

/// A snapshot of the process-wide recorder the crates record into.
pub fn obs_now() -> MetricsSnapshot {
    Recorder::global().snapshot()
}

/// Sum (ns) of a histogram in a snapshot delta, in seconds.
pub fn hist_sum_s(d: &MetricsSnapshot, name: &str) -> f64 {
    d.histograms.get(name).map_or(0.0, |h| h.sum as f64 / 1e9)
}

/// Count of a histogram in a snapshot delta.
pub fn hist_count(d: &MetricsSnapshot, name: &str) -> u64 {
    d.histograms.get(name).map_or(0, |h| h.count)
}

/// A histogram percentile (ns) in a snapshot delta, in microseconds.
pub fn hist_pct_us(d: &MetricsSnapshot, name: &str, q: f64) -> f64 {
    d.histograms
        .get(name)
        .map_or(0.0, |h| h.percentile(q) as f64 / 1e3)
}

/// Correctness gates and the operation tally: every gate is one
/// attempted operation; a failed gate is a failed operation and fails the
/// run.
#[derive(Default)]
pub struct Gates {
    /// Operations attempted (work items plus gates).
    pub attempted: u64,
    /// Operations that failed, were refused or answered wrongly.
    pub failed: u64,
}

impl Gates {
    /// Counts one operation that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one operation; records a failure when `pass` is false.
    pub fn check(&mut self, pass: bool, what: impl FnOnce() -> String) {
        if pass {
            self.ok();
        } else {
            self.fail(what());
        }
    }

    /// Counts one operation that failed; the first few say why on stderr.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("perfbench: FAILED: {why}");
        }
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: Gates) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A digest of a division: every community's ego, members and tightness
/// bits, plus the membership table. Equal digests mean bitwise-equal
/// divisions (up to hash collisions).
pub fn division_digest(d: &DivisionResult) -> u64 {
    let mut h = DefaultHasher::new();
    d.communities.len().hash(&mut h);
    for c in &d.communities {
        c.ego.0.hash(&mut h);
        c.members.len().hash(&mut h);
        for m in &c.members {
            m.0.hash(&mut h);
        }
        for t in &c.tightness {
            t.to_bits().hash(&mut h);
        }
    }
    d.membership_table().hash(&mut h);
    h.finish()
}

/// The bit patterns of a probability vector.
pub fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads available to this process.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit under test: `LOCEC_COMMIT` if set, else `git rev-parse
/// HEAD` when the working directory is itself a git checkout, else
/// `"unknown"`. Git is kept from searching the parent directories.
pub fn commit() -> String {
    if let Ok(c) = std::env::var("LOCEC_COMMIT") {
        return c;
    }
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Where the benchmark writes: `.perfbench-out/` under the working
/// directory (the checkout root).
pub fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench-out")
}

/// A scratch directory for snapshot files, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `.perfbench-out/run-<pid>-<tag>/`.
    pub fn new(tag: &str) -> Result<Self, String> {
        let dir = out_dir().join(format!("run-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    /// A file inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Runs `setup` `reps` times and returns the last result plus the median
/// wall time, so set-up cost is a steady number and work moved into
/// set-up shows.
pub fn repeated_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Free the previous set-up's memory before building the next one,
        // so peak RSS reflects one set-up, not several.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), times))
}

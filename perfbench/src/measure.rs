//! Shared measurement plumbing: the result object, medians and
//! quantiles, the process's peak memory, the timer's own cost, and the
//! host facts recorded beside every result.

use crate::Args;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the timed part (cells, world runs, or
    /// scored logins).
    pub attempted: u64,
    /// Attempted operations that failed (engine error, verification or
    /// digest mismatch, shed login).
    pub failed: u64,
    checks: Vec<(&'static str, bool)>,
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Outcome {
    /// Record a named correctness check.
    pub fn check(&mut self, name: &'static str, ok: bool) {
        if !ok {
            eprintln!("check failed: {name}");
        }
        self.checks.push((name, ok));
    }

    /// Set a metric's value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Add a fact to the `info` line (digests, counts, sizes).
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push(format!("{key}={value}"));
    }

    /// Print the `info` and `checks` lines, then the result object with
    /// the metrics of `set` as its last line. A metric of the set the
    /// workload did not measure reads 0: its layer was not called.
    pub fn print(&self, set: &[(&str, &str)]) {
        println!("info {}", self.notes.join(" "));
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(name, ok)| format!("{name}={ok}"))
            .collect();
        println!("checks {}", checks.join(" "));
        let mut metrics = String::new();
        for (i, (name, unit)) in set.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        let correct = self.checks.iter().all(|(_, ok)| *ok);
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted, self.failed
        );
    }
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` of an ascending sample.
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// A sample as a comma-separated `info` value, in ms.
pub fn list_ms(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{:.1}", v * 1e3))
        .collect::<Vec<_>>()
        .join(",")
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Median cost of one `Instant::now()` in ns, from back-to-back pairs.
pub fn timer_overhead_ns() -> f64 {
    const PAIRS: usize = 200_000;
    let mut samples = Vec::with_capacity(PAIRS);
    for _ in 0..PAIRS {
        let a = Instant::now();
        let b = Instant::now();
        samples.push((b - a).as_nanos() as f64);
    }
    median(&samples)
}

/// Host and build facts for the first `info` line.
pub fn host_info(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "workload={} seed={} seconds={} trace={} nproc={nproc} cpu=\"{cpu}\" rustc=\"{rustc}\" \
         profile={profile} git_rev={} source_fnv={:016x}",
        args.workload,
        args.seed,
        args.budget.as_secs(),
        u8::from(args.trace),
        git_rev().unwrap_or_else(|| "none".to_string()),
        source_fingerprint(),
    )
}

/// The checked-out commit, read from `.git` when the benchmark runs in
/// a git working tree.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
}

/// FNV-1a over the simulator's and the benchmark's sources (paths and
/// bytes in sorted order): names the code measured even where the
/// checkout carries no git metadata.
fn source_fingerprint() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h = mhw_types::fnv::OFFSET;
    for file in files {
        h = mhw_types::fnv::fnv1a(h, file.to_string_lossy().as_bytes());
        h = mhw_types::fnv::fnv1a(h, &std::fs::read(&file).unwrap_or_default());
    }
    h
}

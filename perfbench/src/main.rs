//! `mhw-perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-sweep|scale-world|serve-past-cache \
//!     --seed N --seconds N --trace 0|1
//! ```
//!
//! Each workload drives one system through its public calls only, from
//! inputs generated from `--seed`, checks its outputs, and prints one
//! `info` line per group of facts (host, digests, work counts) followed
//! by a last line holding the result object:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": N, "metrics": {NAME: {"value": X, "unit": U}, ...}}
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end set ([`END_TO_END`]);
//! with `--trace 1` the workload times each layer's public calls from
//! outside and reports the per-layer set ([`PER_LAYER`]). Every workload
//! reports every metric of the set it is asked for; a layer a workload
//! never calls reads 0. `perfbench/NOTES.md` explains the workloads and
//! the map from each layer metric to the end-to-end metric it moves.
//!
//! Timed figures are reported at a nominal host speed: each operation
//! is bracketed by readings of a fixed reference kernel (`host`), and
//! figures are medians over many operations or chunks, because the
//! shared host's speed moves by tens of percent within minutes. Raw
//! wall times are printed on the `info` line beside them.
//!
//! Usage errors exit 2 and a failed workload exits 1, without a result
//! line in both cases.

mod host;
mod measure;
mod paper;
mod scale;
mod serve;
mod sim;

use measure::Outcome;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("degraded_work_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // mhw-core engine: public calls timed from outside, plus the
    // engine's own `ShardedRun::profile()` phases (seconds per op).
    ("core.engine.build_s", "s"),
    ("core.pool.build_worker_imbalance", "ratio"),
    ("core.engine.shard_day_s", "s"),
    ("core.engine.barrier_exchange_s", "s"),
    ("core.engine.log_merge_s", "s"),
    ("core.snapshot.snapshot_after_s", "s"),
    ("core.fork.run_s", "s"),
    ("core.run.dataset_digest_s", "s"),
    // Deterministic work counts (`RunStats`, `Ecosystem::log_lens`).
    ("core.stats.organic_logins", "count"),
    ("core.stats.lures_delivered", "count"),
    ("core.stats.sessions_run", "count"),
    ("core.stats.incidents", "count"),
    ("core.stats.recovery_step_ups", "count"),
    ("core.stats.pivot_attempts", "count"),
    ("core.logs.records", "count"),
    // Serve path (traced pass: median ns per call).
    ("core.replay.generate_s", "s"),
    ("core.replay.logins_per_s", "1/s"),
    ("netmodel.geo.locate_ns", "ns"),
    ("defense.signals.extract_ns", "ns"),
    ("defense.risk.evaluate_ns", "ns"),
    ("defense.service.commit_ns", "ns"),
    ("defense.service.assess_ns", "ns"),
    ("defense.service.assess_self_ns", "ns"),
    ("defense.service.traced_calls", "count"),
    ("defense.service.state_bytes", "bytes"),
    ("defense.service.accounts", "count"),
    ("defense.service.ip_entries", "count"),
    ("core.resilience.logins_per_s", "1/s"),
    ("core.resilience.shed_events", "count"),
    ("core.resilience.degraded_events", "count"),
    ("core.resilience.breaker_opened", "count"),
    ("core.resilience.deadline_downgrades", "count"),
    // The benchmark's own cost.
    ("bench.timer_overhead_ns", "ns"),
    ("bench.trace_overhead_ratio", "ratio"),
];

const USAGE: &str = "usage: mhw-perfbench --workload paper-sweep|scale-world|serve-past-cache \
                     --seed N --seconds N --trace 0|1";

/// Checked command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub budget: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("invalid value for {flag}: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 600)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("invalid value for --trace: {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        budget: Duration::from_secs(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("usage error: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Args) -> Result<Outcome, String> = match args.workload.as_str() {
        "paper-sweep" => paper::run,
        "scale-world" => scale::run,
        "serve-past-cache" => serve::run,
        other => {
            eprintln!("usage error: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("info {}", measure::host_info(&args));
    match run(&args) {
        Ok(outcome) => {
            outcome.print(if args.trace { PER_LAYER } else { END_TO_END });
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("{}: {err}", args.workload);
            ExitCode::from(1)
        }
    }
}

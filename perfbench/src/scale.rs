//! `scale-world`: a low-activity world past the per-user cost knee,
//! built from scratch and run to the end.
//!
//! Each operation is one `ShardedEngine::run` of the `scale_world`
//! preset over [`SHARDS`] shards on [`WORKERS`] worker. Runs
//! alternate between an even split of the users over the shards (the
//! measured arm) and a skewed split with one hot shard (the degraded
//! arm: [`SKEWED_WEIGHTS`]) until the time budget is spent, at least
//! [`MIN_RUNS`] of each. The engine's own build phase is the set-up;
//! world build, worker-pool dispatch, the barrier exchange and the
//! k-way log merge carry the cost, while event dispatch is light. Every
//! run of an arm must produce that arm's first dataset digest.

use crate::host::HostClock;
use crate::measure::{self, median, Outcome};
use crate::sim::Layers;
use crate::Args;
use mhw_core::{ScenarioConfig, ShardedEngine};
use std::time::Instant;

/// Users in the world: past the knee where per-user-day cost doubles.
const USERS: usize = 200_000;
/// Simulated days per run: few, so a run takes about 2 s and a run of
/// the benchmark measures four or five of each arm.
const DAYS: u64 = 4;
/// Logical shards.
const SHARDS: u16 = 8;
/// Shard weights of the degraded arm: one shard holds 12/19 of the
/// users, so its build, its days and its share of the merge are far
/// larger than the others'.
const SKEWED_WEIGHTS: [u64; SHARDS as usize] = [12, 1, 1, 1, 1, 1, 1, 1];
/// Fewest measured runs per arm, after the warm-up run (the set-up
/// median needs several).
const MIN_RUNS: usize = 3;

/// Worker threads: one, so a run never waits for a second core that
/// a neighbour on the shared host holds (see `NOTES.md`).
const WORKERS: usize = 1;
/// How much more a run slows than the host clock's kernel when the
/// shared host does (see `host` and `NOTES.md`).
const SENSITIVITY: f64 = 3.0;
/// Kernel runs per host reading (readings bracket operations of
/// seconds, so a few runs cost little).
const RUNS_PER_READING: usize = 5;

/// One measured world run.
struct Run {
    /// Times at nominal host speed (see `host`).
    wall_s: f64,
    /// The run's raw wall time.
    raw_s: f64,
    layers: Layers,
    /// Seconds spent reading the profile and counts (the trace's cost).
    trace_s: f64,
    digest_s: f64,
}

impl Run {
    fn sim_s(&self) -> f64 {
        self.wall_s - self.layers.build_s
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let config = ScenarioConfig::scale_world(args.seed, USERS, DAYS);
    let workers = WORKERS;
    let mut clock = HostClock::new(SENSITIVITY, RUNS_PER_READING);
    // Per arm (even, skewed): the first digest, and the measured runs.
    let mut digests: [Option<u64>; 2] = [None, None];
    let mut arms: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
    // One untimed warm-up run (even split) comes first: a process's
    // first world build costs a third more than later ones while the
    // allocator's arenas grow, which made a median of a few runs jump.
    // Its digest is checked like the others.
    let mut warm_ups = 1;
    let mut start = Instant::now();
    let mut next = 0;
    while warm_ups > 0 || arms.iter().any(|a| a.len() < MIN_RUNS) || start.elapsed() < args.budget {
        let mut engine = ShardedEngine::new(config.clone(), SHARDS).workers(workers);
        if next == 1 {
            engine = engine.shard_weights(SKEWED_WEIGHTS.to_vec());
        }
        out.attempted += 1;
        let (run, timed) = clock.time(|| engine.run());
        let run = run.map_err(|e| format!("scale-world run: {e}"))?;
        let t = Instant::now();
        let layers = Layers::of(&run).normalised(timed.factor);
        let trace_s = t.elapsed().as_secs_f64() * timed.factor;
        let t = Instant::now();
        let d = run.dataset_digest();
        let digest_s = t.elapsed().as_secs_f64() * timed.factor;
        drop(run);
        if *digests[next].get_or_insert(d) != d {
            eprintln!("scale-world run: digest {d:016x} differs from its arm's first");
            out.failed += 1;
        }
        if warm_ups > 0 {
            warm_ups -= 1;
            start = Instant::now();
        } else {
            arms[next].push(Run {
                wall_s: timed.norm_s(),
                raw_s: timed.wall_s,
                layers,
                trace_s,
                digest_s,
            });
        }
        next = 1 - next;
    }
    out.check("runs_repeat_their_arms_digest", out.failed == 0);
    let [main, degraded] = &arms;
    let med = |runs: &[Run], f: fn(&Run) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    out.note("digest", format!("{:016x}", digests[0].unwrap_or(0)));
    out.note("digest.skewed", format!("{:016x}", digests[1].unwrap_or(0)));
    out.note("runs", main.len());
    out.note("degraded_runs", degraded.len());
    out.note(
        "builds_ms",
        measure::list_ms(&main.iter().map(|r| r.layers.build_s).collect::<Vec<_>>()),
    );
    out.note(
        "runs_ms",
        measure::list_ms(&main.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
    );
    out.note(
        "raw_runs_ms",
        measure::list_ms(&main.iter().map(|r| r.raw_s).collect::<Vec<_>>()),
    );
    out.note(
        "degraded_runs_ms",
        measure::list_ms(&degraded.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
    );
    out.note("users", USERS);
    out.note("days", DAYS);
    out.note("shards", SHARDS);
    out.note("workers", workers);
    clock.note(&mut out);
    main[0].layers.note_counts(&mut out, "run.");

    // The gated rates are user-days per second of a whole run, build
    // included: what a user of the world waits for. The rate over the
    // simulation alone (run − build) is a difference of two noisy times
    // half the size of a run, so it is only noted.
    let user_days = (USERS as u64 * DAYS) as f64;
    let work_per_s = user_days / med(main, |r| r.wall_s);
    let degraded_per_s = user_days / med(degraded, |r| r.wall_s);
    out.set("setup_s", med(main, |r| r.layers.build_s));
    out.set("work_per_s", work_per_s);
    out.set("degraded_work_per_s", degraded_per_s);
    out.set("op_p50_ms", med(main, |r| r.wall_s) * 1e3);
    // The tail of a handful of runs: the slower arm's median run.
    out.set(
        "op_tail_ms",
        med(main, |r| r.wall_s).max(med(degraded, |r| r.wall_s)) * 1e3,
    );
    out.note("world_user_days_per_s", work_per_s);
    out.note("world_user_days_per_s_skewed", degraded_per_s);
    out.note("sim_user_days_per_s", user_days / med(main, Run::sim_s));
    out.note(
        "sim_user_days_per_s_skewed",
        user_days / med(degraded, Run::sim_s),
    );

    if args.trace {
        let layers: Vec<Layers> = main.iter().map(|r| r.layers).collect();
        Layers::report(&mut out, &layers, layers[0]);
        out.set("core.run.dataset_digest_s", med(main, |r| r.digest_s));
        out.set("bench.timer_overhead_ns", measure::timer_overhead_ns());
        out.set(
            "bench.trace_overhead_ratio",
            med(main, |r| (r.wall_s + r.trace_s) / r.wall_s),
        );
        let wall = med(main, |r| r.wall_s);
        let build_merge = med(main, |r| r.layers.build_s + r.layers.log_merge_s);
        out.note("share.build_plus_merge", build_merge / wall);
        out.note(
            "share.shard_day",
            med(main, |r| r.layers.shard_day_s) / wall,
        );
        out.note(
            "share.barrier_exchange",
            med(main, |r| r.layers.barrier_exchange_s) / wall,
        );
    }
    out.set("peak_rss_mib", measure::peak_rss_mib());
    out.note("peak_rss_mib", measure::peak_rss_mib());
    Ok(out)
}

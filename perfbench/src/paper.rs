//! `paper-sweep`: the posture what-if at the scale the fidelity gate is
//! calibrated at.
//!
//! Set-up builds the `measurement` world (3,000 users, full activity,
//! 1 shard, 1 worker) and ages it to a late snapshot day with
//! `ShardedEngine::snapshot_after`; it is repeated [`SETUPS`] times and
//! every snapshot must record the same barrier. The timed part forks
//! the defense {full, none} × recovery {legacy, strict} grid from the
//! last snapshot, one cell after another in grid order, and runs and
//! digests each cell until the time budget is spent (after at least
//! [`MIN_GRIDS`] whole grids). Per-user event
//! dispatch in `Ecosystem::run_day` does almost all of the work. The
//! defended cells give the throughput; the undefended ones, where the
//! work moves into adversary sessions and mail, give the degraded arm's.

use crate::host::HostClock;
use crate::measure::{self, median, Outcome};
use crate::sim::Layers;
use crate::Args;
use mhw_core::{DefenseConfig, RecoveryConfig, ScenarioConfig, ShardedEngine, WorldSnapshot};
use std::time::Instant;

/// Day the set-up ages the world to before it is frozen.
const SNAPSHOT_DAY: u64 = 10;
/// Days each forked cell simulates past the snapshot.
const CELL_DAYS: u64 = 3;
/// The grid cell run once, untimed, before the timed part (the one
/// with the largest working set).
const WARM_UP_CELL: usize = 2;
/// Fewest whole grids per run (the slowest posture's median needs
/// several runs of each cell).
const MIN_GRIDS: usize = 2;
/// Set-ups per run (the reported `setup_s` is their median).
const SETUPS: usize = 3;
/// How much more a cell slows than the host clock's kernel when the
/// shared host does (see `host` and `NOTES.md`).
const SENSITIVITY: f64 = 2.0;
/// Kernel runs per host reading (readings bracket operations of
/// seconds, so a few runs cost little).
const RUNS_PER_READING: usize = 5;

/// The posture grid, in the order each pass runs it.
fn grid() -> [(&'static str, DefenseConfig, RecoveryConfig); 4] {
    [
        (
            "full-legacy",
            DefenseConfig::default(),
            RecoveryConfig::legacy(),
        ),
        (
            "full-strict",
            DefenseConfig::default(),
            RecoveryConfig::strict(),
        ),
        (
            "none-legacy",
            DefenseConfig::none(),
            RecoveryConfig::legacy(),
        ),
        (
            "none-strict",
            DefenseConfig::none(),
            RecoveryConfig::strict(),
        ),
    ]
}

/// One forked cell: its timings, digest and work.
struct Cell {
    grid_index: usize,
    /// Times at nominal host speed (see `host`).
    fork_s: f64,
    digest_s: f64,
    wall_s: f64,
    /// The cell's raw wall time.
    raw_s: f64,
    /// The run's profile phases and work counts.
    layers: Layers,
    /// Seconds spent reading `layers`: the trace's own cost.
    read_s: f64,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut config = ScenarioConfig::measurement(args.seed);
    config.days = SNAPSHOT_DAY + CELL_DAYS;
    let users = config.population.n_users as f64;

    // Set-up: build and age the world, several times.
    let mut clock = HostClock::new(SENSITIVITY, RUNS_PER_READING);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut raw_setups = Vec::with_capacity(SETUPS);
    let mut snapshot: Option<WorldSnapshot> = None;
    let mut barriers_agree = true;
    for _ in 0..SETUPS {
        let previous = snapshot.take().map(|s| s.checkpoint().clone());
        let (snap, timed) = clock.time(|| {
            ShardedEngine::new(config.clone(), 1)
                .workers(1)
                .snapshot_after(SNAPSHOT_DAY)
        });
        let snap = snap.map_err(|e| format!("snapshot_after({SNAPSHOT_DAY}): {e}"))?;
        setups.push(timed.norm_s());
        raw_setups.push(timed.wall_s);
        barriers_agree &= previous.is_none_or(|p| p == *snap.checkpoint());
        snapshot = Some(snap);
    }
    out.check("setups_reach_one_barrier", barriers_agree);
    let snap = snapshot.ok_or("no snapshot")?;
    out.note("snapshot.completed_days", snap.completed_days());
    out.note(
        "snapshot.metrics_digest",
        format!("{:016x}", snap.checkpoint().metrics_digest),
    );

    // Timed part: cells in grid order until the budget is spent. After each
    // cell's timed calls its engine profile and work counts are read,
    // and that reading is timed as the trace's own cost. One untimed
    // warm-up cell runs first: the first grid after set-up otherwise
    // runs ~7% slow while the allocator grows to the cells' working set.
    let cells = grid();
    let mut digests: Vec<Option<u64>> = vec![None; cells.len()];
    let mut done: Vec<Cell> = Vec::new();
    let mut start = Instant::now();
    let warm_up = std::iter::once(WARM_UP_CELL);
    for (k, i) in warm_up.chain((0..).map(|n| n % cells.len())).enumerate() {
        let grids_done = (k.saturating_sub(1)) / cells.len();
        if grids_done >= MIN_GRIDS && start.elapsed() >= args.budget {
            break;
        }
        let (name, defense, recovery) = &cells[i];
        out.attempted += 1;
        let ((run, forked), timed) = clock.time(|| {
            let t = Instant::now();
            let run = snap
                .fork()
                .defense(*defense)
                .recovery(*recovery)
                .workers(1)
                .run();
            let forked = t.elapsed().as_secs_f64();
            let run = run.map(|run| {
                let digest = run.dataset_digest();
                (run, digest)
            });
            (run, forked)
        });
        let (run, digest) = match run {
            Ok(run) => run,
            Err(e) => {
                eprintln!("cell {name}: {e}");
                out.failed += 1;
                continue;
            }
        };
        let t = Instant::now();
        let layers = Layers::of(&run);
        let read_s = t.elapsed().as_secs_f64();
        drop(run);
        if *digests[i].get_or_insert(digest) != digest {
            eprintln!("cell {name}: digest {digest:016x} differs from an earlier pass");
            out.failed += 1;
        }
        if k == 0 {
            start = Instant::now();
            continue;
        }
        done.push(Cell {
            grid_index: i,
            fork_s: forked * timed.factor,
            digest_s: timed.norm_s() - forked * timed.factor,
            wall_s: timed.norm_s(),
            raw_s: timed.wall_s,
            layers: layers.normalised(timed.factor),
            read_s: read_s * timed.factor,
        });
    }
    if done.is_empty() {
        return Err("every cell failed".to_string());
    }
    out.check(
        "cells_fork_verified_and_repeat_their_digests",
        out.failed == 0,
    );
    for ((name, _, _), digest) in cells.iter().zip(&digests) {
        out.note(
            &format!("digest.{name}"),
            format!("{:016x}", digest.unwrap_or(0)),
        );
    }
    out.note("cells", done.len());
    out.note("setups_ms", measure::list_ms(&setups));
    out.note("raw_setups_ms", measure::list_ms(&raw_setups));
    out.note(
        "cells_ms",
        measure::list_ms(&done.iter().map(|c| c.wall_s).collect::<Vec<_>>()),
    );
    out.note(
        "raw_cells_ms",
        measure::list_ms(&done.iter().map(|c| c.raw_s).collect::<Vec<_>>()),
    );
    clock.note(&mut out);
    out.note("users", users);
    out.note("snapshot_day", SNAPSHOT_DAY);
    out.note("cell_days", CELL_DAYS);

    // Figures are taken per posture first: a run stops mid-grid, so the
    // postures' shares of its cells differ from run to run, and a
    // median over all cells would move with that mix.
    let posture = |i: usize, f: fn(&Cell) -> f64| {
        median(
            &done
                .iter()
                .filter(|c| c.grid_index == i)
                .map(f)
                .collect::<Vec<_>>(),
        )
    };
    let walls: Vec<f64> = (0..cells.len()).map(|i| posture(i, |c| c.wall_s)).collect();
    // Simulated user-days per second of `ForkBuilder::run`: the mean of
    // the defended postures' median cells and, as the degraded arm,
    // of the undefended ones'.
    let rate = |defended: bool| {
        let arm: Vec<f64> = (0..cells.len())
            .filter(|&i| (cells[i].1 != DefenseConfig::none()) == defended)
            .map(|i| posture(i, |c| c.fork_s))
            .collect();
        users * CELL_DAYS as f64 * arm.len() as f64 / arm.iter().sum::<f64>()
    };
    let (work_per_s, degraded_per_s) = (rate(true), rate(false));
    out.set("setup_s", median(&setups));
    out.set("work_per_s", work_per_s);
    out.set("degraded_work_per_s", degraded_per_s);
    // The median posture's cell, and the tail of a handful of cells:
    // the slowest posture's median.
    out.set("op_p50_ms", median(&walls) * 1e3);
    out.set(
        "op_tail_ms",
        walls.iter().copied().fold(0.0, f64::max) * 1e3,
    );
    out.note("sweep_cell_s", median(&walls));
    out.note("sim_user_days_per_s", work_per_s);
    out.note("sim_user_days_per_s_undefended", degraded_per_s);

    // Work counts of one whole grid: the first run of each cell.
    let counts = Layers::sum(
        (0..cells.len()).filter_map(|i| done.iter().find(|c| c.grid_index == i).map(|c| c.layers)),
    );
    counts.note_counts(&mut out, "grid.");

    if args.trace {
        let per_op: Vec<Layers> = done.iter().map(|c| c.layers).collect();
        Layers::report(&mut out, &per_op, counts);
        let med = |f: fn(&Cell) -> f64| median(&done.iter().map(f).collect::<Vec<_>>());
        let digest_s = med(|c| c.digest_s);
        out.set("core.snapshot.snapshot_after_s", median(&setups));
        out.set("core.fork.run_s", med(|c| c.fork_s));
        out.set("core.run.dataset_digest_s", digest_s);
        out.set("bench.timer_overhead_ns", measure::timer_overhead_ns());
        out.set(
            "bench.trace_overhead_ratio",
            med(|c| (c.wall_s + c.read_s) / c.wall_s),
        );
        let cell_s = median(&walls);
        let day = median(&per_op.iter().map(|l| l.shard_day_s).collect::<Vec<_>>());
        let merge = median(&per_op.iter().map(|l| l.log_merge_s).collect::<Vec<_>>());
        out.note("share.shard_day_plus_digest", (day + digest_s) / cell_s);
        out.note("share.build_plus_merge", merge / cell_s);
        // What `ForkBuilder::run` spends outside its profiled phases:
        // the deep clone, the fork-point verification and pool start.
        let residual = med(|c| {
            let l = &c.layers;
            c.fork_s - l.shard_day_s - l.barrier_exchange_s - l.log_merge_s
        });
        out.note("fork_residual_s", residual);
        out.note("share.fork_residual", residual / cell_s);
    }
    out.set("peak_rss_mib", measure::peak_rss_mib());
    out.note("peak_rss_mib", measure::peak_rss_mib());
    Ok(out)
}

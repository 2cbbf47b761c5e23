//! What the simulator workloads read from a finished `ShardedRun`:
//! the engine's own wall-clock phase profile and the deterministic work
//! counts.

use crate::measure::{median, Outcome};
use mhw_core::ShardedRun;

/// Per-layer figures of one finished run: engine profile phases and
/// work counts.
#[derive(Default, Clone, Copy)]
pub struct Layers {
    pub build_s: f64,
    pub imbalance: f64,
    pub shard_day_s: f64,
    pub barrier_exchange_s: f64,
    pub log_merge_s: f64,
    pub organic_logins: u64,
    pub lures_delivered: u64,
    pub sessions_run: u64,
    pub incidents: u64,
    pub recovery_step_ups: u64,
    pub pivot_attempts: u64,
    pub log_records: u64,
}

impl Layers {
    /// Read a finished run's engine profile and work counts.
    pub fn of(run: &ShardedRun) -> Layers {
        let profile = run.profile();
        let phase = |name: &str| {
            profile
                .phases
                .iter()
                .find(|p| p.phase == name)
                .map_or(0.0, |p| p.total_ms / 1e3)
        };
        let busy = &profile.build_worker_ms;
        let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
        let imbalance = if mean > 0.0 {
            busy.iter().copied().fold(0.0, f64::max) / mean
        } else {
            0.0
        };
        let stats = run.total_stats();
        Layers {
            build_s: phase("build"),
            imbalance,
            shard_day_s: phase("shard_day"),
            barrier_exchange_s: phase("barrier_exchange"),
            log_merge_s: phase("log_merge"),
            organic_logins: stats.organic_logins,
            lures_delivered: stats.lures_delivered,
            sessions_run: stats.sessions_run,
            incidents: stats.incidents,
            recovery_step_ups: stats.recovery_step_ups,
            pivot_attempts: stats.pivot_attempts,
            log_records: run.shards().iter().flat_map(|e| e.log_lens()).sum(),
        }
    }

    /// The layer times at nominal host speed (see `host`): each
    /// multiplied by its operation's `factor`; counts unchanged.
    pub fn normalised(self, factor: f64) -> Layers {
        Layers {
            build_s: self.build_s * factor,
            shard_day_s: self.shard_day_s * factor,
            barrier_exchange_s: self.barrier_exchange_s * factor,
            log_merge_s: self.log_merge_s * factor,
            ..self
        }
    }

    /// Report the medians of per-op layer times and the counts of one
    /// representative set of ops.
    pub fn report(out: &mut Outcome, per_op: &[Layers], counts: Layers) {
        let med = |f: fn(&Layers) -> f64| median(&per_op.iter().map(f).collect::<Vec<_>>());
        out.set("core.engine.build_s", med(|l| l.build_s));
        out.set("core.pool.build_worker_imbalance", med(|l| l.imbalance));
        out.set("core.engine.shard_day_s", med(|l| l.shard_day_s));
        out.set(
            "core.engine.barrier_exchange_s",
            med(|l| l.barrier_exchange_s),
        );
        out.set("core.engine.log_merge_s", med(|l| l.log_merge_s));
        out.set("core.stats.organic_logins", counts.organic_logins as f64);
        out.set("core.stats.lures_delivered", counts.lures_delivered as f64);
        out.set("core.stats.sessions_run", counts.sessions_run as f64);
        out.set("core.stats.incidents", counts.incidents as f64);
        out.set(
            "core.stats.recovery_step_ups",
            counts.recovery_step_ups as f64,
        );
        out.set("core.stats.pivot_attempts", counts.pivot_attempts as f64);
        out.set("core.logs.records", counts.log_records as f64);
    }

    /// Work counts summed over several runs.
    pub fn sum(all: impl Iterator<Item = Layers>) -> Layers {
        all.fold(Layers::default(), |a, b| Layers {
            organic_logins: a.organic_logins + b.organic_logins,
            lures_delivered: a.lures_delivered + b.lures_delivered,
            sessions_run: a.sessions_run + b.sessions_run,
            incidents: a.incidents + b.incidents,
            recovery_step_ups: a.recovery_step_ups + b.recovery_step_ups,
            pivot_attempts: a.pivot_attempts + b.pivot_attempts,
            log_records: a.log_records + b.log_records,
            ..Layers::default()
        })
    }

    /// The work counts as `info` facts.
    pub fn note_counts(&self, out: &mut Outcome, prefix: &str) {
        out.note(&format!("{prefix}organic_logins"), self.organic_logins);
        out.note(&format!("{prefix}lures_delivered"), self.lures_delivered);
        out.note(&format!("{prefix}sessions_run"), self.sessions_run);
        out.note(&format!("{prefix}incidents"), self.incidents);
        out.note(
            &format!("{prefix}recovery_step_ups"),
            self.recovery_step_ups,
        );
        out.note(&format!("{prefix}pivot_attempts"), self.pivot_attempts);
        out.note(&format!("{prefix}log_records"), self.log_records);
    }
}

//! Golden digests: fixed constants, not a comparison of two code paths.
//!
//! `tests/serve_parity.rs` pins batch scoring against serve scoring,
//! but both sides share one `HistoryStore`, one `IpReputation` and one
//! `GeoDb`, so a layout bug common to both would go unseen there. The
//! constants below were recorded from the straightforward layouts
//! (sorted country vectors, per-IP account vectors, a linear geo scan)
//! and must hold across any change to how that state is stored.
//!
//! If one of these fails after a change meant to be behaviour-neutral,
//! the change altered verdicts: fix the change, not the constant.

use manual_hijacking_wild::core::replay::{self, ReplayLogin, WorkloadConfig};
use manual_hijacking_wild::core::resilience::{
    replay_stream_resilient, ReplayStats, ServeFaultPlan, ServeOptions, ShedPolicy,
    DEFAULT_DEADLINE_NS,
};
use manual_hijacking_wild::defense::{
    ResilienceConfig, RiskEngine, ServiceLimits, SignalSource, StreamingRiskService,
};
use manual_hijacking_wild::netmodel::GeoDb;
use manual_hijacking_wild::prelude::*;

/// `replay_stream` over `generate_workload(&WorkloadConfig::small(7))`.
const SMALL_CLEAN_DIGEST: u64 = 0xf497_a532_16c5_fd4b;
/// `replay_stream` over a one-day 50k-account workload: accounts are
/// first seen in time order, which scatters their ids.
const WIDE_CLEAN_DIGEST: u64 = 0x2e4a_0c2f_d7be_eb5e;
/// The resilient fault arm: digest, then scored, shed and degraded
/// event counts.
const FAULT_ARM: (u64, u64, u64, u64) = (0x6995_1ca9_83e9_8841, 381, 829, 55);
/// `dataset_digest` of the quick-preset world (`small_test`, seed 7).
const QUICK_WORLD_DIGEST: u64 = 0x6a30_1d2f_6b77_884f;

fn wide_workload() -> WorkloadConfig {
    WorkloadConfig { users: 50_000, days: 1, ..WorkloadConfig::small(7) }
}

fn clean_digest(geo: &GeoDb, events: &[ReplayLogin]) -> u64 {
    let mut service = StreamingRiskService::new(RiskEngine::default());
    replay::replay_stream(&mut service, geo, events, replay::DIGEST_SEED, |_, _, _| {})
}

#[test]
fn small_workload_verdict_digest_is_golden() {
    let geo = GeoDb::new();
    let events = replay::generate_workload(&WorkloadConfig::small(7), &geo);
    assert_eq!(clean_digest(&geo, &events), SMALL_CLEAN_DIGEST);
}

#[test]
fn wide_workload_verdict_digest_is_golden() {
    let geo = GeoDb::new();
    let events = replay::generate_workload(&wide_workload(), &geo);
    assert_eq!(clean_digest(&geo, &events), WIDE_CLEAN_DIGEST);
}

/// A geo outage window, a slow (but inside-deadline) history source, a cache wipe and a shallow
/// lowest-risk-first queue (shedding reads history through the cheap
/// prior), against a tight IP cache (LRU eviction) and a 4-account
/// fan-out cap (saturation), so the bounded-state paths are pinned too.
#[test]
fn resilient_fault_arm_is_golden() {
    let geo = GeoDb::new();
    let events = replay::generate_workload(&WorkloadConfig::small(7), &geo);
    let n = events.len() as u64;
    let mut service = StreamingRiskService::with_resilience(
        RiskEngine::default(),
        ServiceLimits { ip_cache_capacity: 64, accounts_per_ip: 4 },
        ResilienceConfig::with_deadline(DEFAULT_DEADLINE_NS),
    );
    let opts = ServeOptions {
        queue_cap: 2,
        shed_policy: ShedPolicy::LowestRiskFirst,
        faults: ServeFaultPlan::new()
            .geo_down(n / 4, n / 4 + n / 10)
            .slow(SignalSource::History, 4_000)
            .wipe_at(n / 2),
        ..ServeOptions::default()
    };
    let mut stats = ReplayStats::default();
    let digest = replay_stream_resilient(
        &mut service,
        &geo,
        &events,
        replay::DIGEST_SEED,
        &opts,
        &mut stats,
        |_, _, _, _, _| {},
    );
    assert_eq!((digest, stats.scored, stats.shed, stats.degraded_events), FAULT_ARM);
}

#[test]
fn quick_world_dataset_digest_is_golden() {
    let run = ShardedEngine::new(ScenarioConfig::small_test(7), 1)
        .workers(1)
        .run()
        .expect("engine run");
    assert_eq!(run.dataset_digest(), QUICK_WORLD_DIGEST);
}

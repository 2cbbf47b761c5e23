//! `serve-past-cache`: the streaming risk service over a login stream
//! whose account state does not fit in cache.
//!
//! Set-up generates the `generate_workload` stream over [`USERS`]
//! accounts, [`SETUPS`] times before the first round and once more in
//! every round (so the set-up figure samples the whole run, like the
//! others); every generation must yield the same events. The timed part replays the stream on one thread as a closed
//! loop (one caller, no think time) in rounds until the budget is
//! spent (at least [`MIN_ROUNDS`]), each pass on a fresh
//! `StreamingRiskService`:
//!
//! 1. an untimed clean pass (`replay_stream`), for throughput;
//! 2. the outage pass: `replay_stream_resilient` under a fixed plan of
//!    a geo outage over a tenth of the stream plus a slow history
//!    source, for throughput on the degraded path;
//! 3. a latency pass timing each `score_event` (assess + adjudicate +
//!    commit) into a preallocated raw recorder — or, in a traced run,
//!    the traced pass, which also times `GeoDb::locate`,
//!    `extract_signals` and `RiskEngine::evaluate` on the same inputs
//!    and checks they reproduce the verdict.
//!
//! The latency and traced passes must reproduce the clean pass's
//! verdict digest, and every outage-pass event must be scored or shed.

use crate::host::{HostClock, Timed};
use crate::measure::{self, median, quantile_sorted, Outcome};
use crate::Args;
use mhw_core::replay::{
    adjudicate, generate_workload, mix_digest, placeholder_request, replay_stream, score_event,
    ReplayLogin, WorkloadConfig, DIGEST_SEED,
};
use mhw_core::resilience::{
    replay_stream_resilient, ReplayStats, ServeFaultPlan, ServeOptions, DEFAULT_DEADLINE_NS,
};
use mhw_defense::signals::extract_signals;
use mhw_defense::{
    ResilienceConfig, RiskEngine, RiskService, ServiceLimits, SignalSource, StateSize,
    StreamingRiskService,
};
use mhw_netmodel::GeoDb;
use std::time::Instant;

/// Accounts in the stream: far past cache.
const USERS: u32 = 600_000;
/// Simulated days of traffic.
const DAYS: u32 = 1;
/// Organic logins per account per day.
const LOGINS_PER_USER_DAY: u32 = 2;
/// Fewest rounds of passes per run. Three already outlast the default
/// budget, so the round count, and with it peak memory (which grows
/// with each round), does not depend on the host's speed.
const MIN_ROUNDS: usize = 3;
/// Stream generations before the first round (one more runs in every
/// round; the reported `setup_s` is the median of all of them, each
/// about 0.3 s).
const SETUPS: usize = 3;
/// Virtual latency of the slow history source in the outage pass:
/// past the deadline budget, so its breaker trips.
const SLOW_HISTORY_NS: u64 = 25_000;
/// How much more a chunk slows than the host clock's kernel when the
/// shared host does (see `host` and `NOTES.md`).
const SENSITIVITY: f64 = 3.0;
/// Kernel runs per host reading.
const RUNS_PER_READING: usize = 1;
/// Events per timed chunk of the clean and latency passes (about
/// 80 ms): the host's speed is read between chunks.
const CHUNK: usize = 60_000;

fn workload(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        users: USERS,
        days: DAYS,
        logins_per_user_day: LOGINS_PER_USER_DAY,
        wrong_password_rate: 0.03,
        travel_rate: 0.02,
        attack_rate: 0.01,
        seed,
    }
}

/// The outage pass's fault plan: geo down over the second quarter's
/// first tenth of the stream, history slow throughout.
fn outage_plan(n: u64) -> ServeFaultPlan {
    ServeFaultPlan::new()
        .geo_down(n / 4, n / 4 + n / 10)
        .slow(SignalSource::History, SLOW_HISTORY_NS)
}

/// What one round of passes measured. Times are at nominal host speed
/// (see `host`) unless named raw.
struct Round {
    clean_s: f64,
    raw_clean_s: f64,
    /// The clean pass's chunks, in stream order.
    clean_chunks_s: Vec<f64>,
    clean_digest: u64,
    state: StateSize,
    /// The outage pass's laps of CHUNK events, in stream order.
    outage_chunks_s: Vec<f64>,
    outage_digest: u64,
    outage: ReplayStats,
    breaker_opened: u64,
    deadline_downgrades: u64,
    /// Latency pass (untraced run) or traced pass (traced run).
    timed_s: f64,
    /// The latency or traced pass's normalisation factor.
    timed_factor: f64,
    timed_digest: u64,
    /// Latency pass p50, p99, p99.9 and max, in ns (untraced runs).
    quantiles: [f64; 4],
    /// p50 and p99 of each of the latency pass's chunks, in ns.
    windows: Vec<[f64; 2]>,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cfg = workload(args.seed);

    // Set-up: build the geo plan and generate the stream, several times.
    let mut clock = HostClock::new(SENSITIVITY, RUNS_PER_READING);
    let mut setups = Vec::new();
    let mut raw_setups = Vec::new();
    let mut generate = |clock: &mut HostClock| {
        let ((geo, events), timed) = clock.time(|| {
            let geo = GeoDb::new();
            let events = generate_workload(&cfg, &geo);
            (geo, events)
        });
        setups.push(timed.norm_s());
        raw_setups.push(timed.wall_s);
        (geo, events)
    };
    let (geo, events) = generate(&mut clock);
    let mut generations_agree = true;
    for _ in 1..SETUPS {
        generations_agree &= generate(&mut clock).1 == events;
    }

    let n = events.len();
    let plan = outage_plan(n as u64);
    out.note("events", n);
    out.note("accounts", USERS);
    out.note("outage_plan", &plan);

    let mut rounds: Vec<Round> = Vec::new();
    // One raw recorder, reserved once and reused by every latency pass.
    let mut latencies: Vec<u32> = Vec::with_capacity(if args.trace { 0 } else { n });
    let mut traced = Traced::default();
    let start = Instant::now();
    while rounds.len() < MIN_ROUNDS || start.elapsed() < args.budget {
        generations_agree &= generate(&mut clock).1 == events;

        // 1. Untimed clean pass.
        let mut service = StreamingRiskService::new(RiskEngine::default());
        let mut clean_chunks_s = Vec::new();
        let (clean_digest, clean) = clock.time_chunks(
            &events,
            CHUNK,
            DIGEST_SEED,
            |part, digest| replay_stream(&mut service, &geo, part, digest, |_, _, _| {}),
            |timed| clean_chunks_s.push(timed.norm_s()),
        );
        let state = service.state_size();
        drop(service);

        // 2. Outage pass.
        let mut service = StreamingRiskService::with_resilience(
            RiskEngine::default(),
            ServiceLimits::default(),
            ResilienceConfig::with_deadline(DEFAULT_DEADLINE_NS),
        );
        let opts = ServeOptions {
            faults: plan.clone(),
            ..ServeOptions::default()
        };
        let mut outage = ReplayStats::default();
        // One call; the host is read from its per-event callback after
        // every CHUNK events, which the virtual clock does not see.
        let mut outage_chunks_s = Vec::new();
        let mut seen = 0;
        let mut since = Instant::now();
        let outage_digest = replay_stream_resilient(
            &mut service,
            &geo,
            &events,
            DIGEST_SEED,
            &opts,
            &mut outage,
            |_, _, _, _, _| {
                seen += 1;
                if seen % CHUNK == 0 {
                    outage_chunks_s.push(clock.lap(&mut since).norm_s());
                }
            },
        );
        if seen % CHUNK != 0 {
            outage_chunks_s.push(clock.lap(&mut since).norm_s());
        }
        let resilience = service.resilience_snapshot();
        drop(service);

        // 3. Latency pass, or the traced pass.
        let mut windows = Vec::new();
        let (timed_digest, timed) = if args.trace {
            clock.time(|| traced.pass(&geo, &events))
        } else {
            latency_pass(&geo, &events, &mut latencies, &mut windows, &mut clock)
        };
        latencies.sort_unstable();
        let quantiles = [0.5, 0.99, 0.999, 1.0].map(|q| {
            if latencies.is_empty() {
                0.0
            } else {
                f64::from(quantile_sorted(&latencies, q))
            }
        });

        out.attempted += 3 * n as u64;
        out.failed += outage.shed;
        if timed_digest != clean_digest {
            eprintln!("timed pass digest {timed_digest:016x} != clean {clean_digest:016x}");
            out.failed += n as u64;
        }
        if let Some(first) = rounds.first() {
            if (clean_digest, outage_digest) != (first.clean_digest, first.outage_digest) {
                eprintln!("round digests differ from the first round");
                out.failed += 2 * n as u64;
            }
        }
        rounds.push(Round {
            clean_s: clean.norm_s(),
            raw_clean_s: clean.wall_s,
            clean_chunks_s,
            clean_digest,
            state,
            outage_chunks_s,
            outage_digest,
            outage,
            breaker_opened: resilience.breakers.opened,
            deadline_downgrades: resilience.deadline_downgrades,
            timed_s: timed.norm_s(),
            timed_factor: timed.factor,
            timed_digest,
            quantiles,
            windows,
        });
    }
    out.check("generations_agree", generations_agree);
    let first = &rounds[0];
    out.check(
        "timed_pass_reproduces_clean_digest",
        rounds.iter().all(|r| r.timed_digest == r.clean_digest),
    );
    out.check(
        "rounds_repeat_their_digests",
        rounds.iter().all(|r| {
            (r.clean_digest, r.outage_digest) == (first.clean_digest, first.outage_digest)
        }),
    );
    out.check(
        "outage_events_scored_or_shed",
        rounds
            .iter()
            .all(|r| r.outage.scored + r.outage.shed == n as u64),
    );
    out.note("rounds", rounds.len());
    out.note("digest.clean", format!("{:016x}", first.clean_digest));
    out.note("digest.outage", format!("{:016x}", first.outage_digest));
    out.note("outage.shed", first.outage.shed);
    out.note("outage.degraded_events", first.outage.degraded_events);
    out.note("outage.breaker_opened", first.breaker_opened);
    out.note("outage.deadline_downgrades", first.deadline_downgrades);
    out.note("outage.peak_queue_depth", first.outage.peak_queue_depth);
    out.note("state.accounts", first.state.accounts);
    out.note("state.ip_entries", first.state.ip_entries);
    out.note("state.approx_bytes", first.state.approx_bytes);
    out.note("setups_ms", measure::list_ms(&setups));
    out.note("raw_setups_ms", measure::list_ms(&raw_setups));
    out.note(
        "raw_clean_pass_ms",
        measure::list_ms(&rounds.iter().map(|r| r.raw_clean_s).collect::<Vec<_>>()),
    );
    clock.note(&mut out);

    let med = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    // A pass's time: each chunk's median over the rounds, summed over
    // the stream, so a burst on the shared host that slows one round's
    // chunk does not move the figure.
    let pass_s = |chunks: fn(&Round) -> &[f64]| -> f64 {
        (0..chunks(first).len())
            .map(|i| median(&rounds.iter().map(|r| chunks(r)[i]).collect::<Vec<_>>()))
            .sum()
    };
    let clean_rate = n as f64 / pass_s(|r| r.clean_chunks_s.as_slice());
    let outage_rate = n as f64 / pass_s(|r| r.outage_chunks_s.as_slice());
    out.set("setup_s", median(&setups));
    out.set("work_per_s", clean_rate);
    out.set("degraded_work_per_s", outage_rate);
    out.note("serve_logins_per_s", clean_rate);
    out.note("serve_degraded_logins_per_s", outage_rate);
    if !args.trace {
        // Quantiles of each chunk of the latency pass (a window of
        // CHUNK samples), then their median over every window of every
        // round: a burst on the shared host moves a few windows only.
        let window = |k: usize| {
            median(
                &rounds
                    .iter()
                    .flat_map(|r| r.windows.iter().map(move |w| w[k]))
                    .collect::<Vec<_>>(),
            )
        };
        let (p50, p99) = (window(0), window(1));
        out.set("op_p50_ms", p50 / 1e6);
        out.set("op_tail_ms", p99 / 1e6);
        out.note("latency_samples_per_pass", n);
        out.note("latency_samples_per_window", CHUNK);
        out.note("serve_p50_ns", p50);
        out.note("serve_p99_ns", p99);
        // Per-pass quantiles, then their median over the rounds.
        let q = |k: usize| median(&rounds.iter().map(|r| r.quantiles[k]).collect::<Vec<_>>());
        out.note("pass_p50_ns", q(0));
        out.note("pass_p99_ns", q(1));
        out.note("serve_p999_ns", q(2));
        out.note("serve_max_ns", q(3));
        out.note("latency_pass_logins_per_s", n as f64 / med(|r| r.timed_s));
    }
    let timer_ns = measure::timer_overhead_ns();
    out.note("timer_overhead_ns", timer_ns);

    if args.trace {
        traced.report(&mut out, med(|r| r.timed_factor));
        out.set("core.replay.generate_s", median(&setups));
        out.set("core.replay.logins_per_s", clean_rate);
        out.set("core.resilience.logins_per_s", outage_rate);
        out.set(
            "defense.service.state_bytes",
            first.state.approx_bytes as f64,
        );
        out.set("defense.service.accounts", first.state.accounts as f64);
        out.set("defense.service.ip_entries", first.state.ip_entries as f64);
        out.set("core.resilience.shed_events", first.outage.shed as f64);
        out.set(
            "core.resilience.degraded_events",
            first.outage.degraded_events as f64,
        );
        out.set(
            "core.resilience.breaker_opened",
            first.breaker_opened as f64,
        );
        out.set(
            "core.resilience.deadline_downgrades",
            first.deadline_downgrades as f64,
        );
        out.set("bench.timer_overhead_ns", timer_ns);
        out.set("bench.trace_overhead_ratio", med(|r| r.timed_s / r.clean_s));
    }
    out.set("peak_rss_mib", measure::peak_rss_mib());
    out.note("peak_rss_mib", measure::peak_rss_mib());
    Ok(out)
}

/// Replay on a fresh service in timed chunks, timing each
/// `score_event` into `record` (cleared; its capacity is reserved by
/// the caller, so recording never allocates mid-pass). Each chunk's
/// samples are then normalised by that chunk's host reading, and the
/// chunk's p50 and p99 pushed to `windows`.
fn latency_pass(
    geo: &GeoDb,
    events: &[ReplayLogin],
    record: &mut Vec<u32>,
    windows: &mut Vec<[f64; 2]>,
    clock: &mut HostClock,
) -> (u64, Timed) {
    let mut service = StreamingRiskService::new(RiskEngine::default());
    let mut request = placeholder_request();
    record.clear();
    let mut normalised = 0;
    let cell = std::cell::RefCell::new(record);
    clock.time_chunks(
        events,
        CHUNK,
        DIGEST_SEED,
        |part, mut digest| {
            let mut record = cell.borrow_mut();
            for event in part {
                let t = Instant::now();
                let (verdict, outcome) = score_event(&mut service, geo, event, &mut request);
                let ns = t.elapsed().as_nanos();
                record.push(u32::try_from(ns).unwrap_or(u32::MAX));
                digest = mix_digest(digest, &verdict, outcome);
            }
            digest
        },
        |timed| {
            let mut record = cell.borrow_mut();
            for ns in &mut record[normalised..] {
                *ns = (f64::from(*ns) * timed.factor).round() as u32;
            }
            let mut window = record[normalised..].to_vec();
            window.sort_unstable();
            windows.push([0.5, 0.99].map(|q| f64::from(quantile_sorted(&window, q))));
            normalised = record.len();
        },
    )
}

/// Per-call timings of the traced passes (ns, one sample per event).
#[derive(Default)]
struct Traced {
    assess: Vec<u32>,
    locate: Vec<u32>,
    extract: Vec<u32>,
    evaluate: Vec<u32>,
    commit: Vec<u32>,
    assess_self: Vec<i64>,
    mismatches: u64,
}

impl Traced {
    /// Replay on a fresh service, timing each layer's public call:
    /// `assess`, then `locate`, `extract_signals` and `evaluate` again on
    /// the same inputs (each must reproduce the verdict's part), then
    /// `commit`. Returns the verdict digest.
    fn pass(&mut self, geo: &GeoDb, events: &[ReplayLogin]) -> u64 {
        let mut service = StreamingRiskService::new(RiskEngine::default());
        let mut request = placeholder_request();
        let mut digest = DIGEST_SEED;
        for v in [
            &mut self.assess,
            &mut self.locate,
            &mut self.extract,
            &mut self.evaluate,
            &mut self.commit,
        ] {
            v.reserve(events.len());
        }
        self.assess_self.reserve(events.len());
        let ns = |a: Instant, b: Instant| u32::try_from((b - a).as_nanos()).unwrap_or(u32::MAX);
        for event in events {
            request.at = event.at;
            request.account = event.account;
            request.ip = event.ip;
            request.device = event.device;
            let t0 = Instant::now();
            let verdict = service.assess(&request, geo);
            let t1 = Instant::now();
            let country = geo.locate(event.ip);
            let t2 = Instant::now();
            // The fan-out count the verdict scored, recovered from its
            // saturating signal (exact below saturation).
            let fanout = (verdict.signals.ip_fanout * 19.0).round() as usize + 1;
            let signals = extract_signals(
                service.history(event.account),
                event.at,
                country,
                event.device,
                fanout,
            );
            let t3 = Instant::now();
            let (score, _) = service.engine.evaluate(&signals);
            let t4 = Instant::now();
            let outcome = adjudicate(event, verdict.decision);
            service.commit(&request, &verdict, outcome);
            let t5 = Instant::now();
            if country != verdict.country
                || signals != verdict.signals
                || score.to_bits() != verdict.score.to_bits()
            {
                self.mismatches += 1;
            }
            let (assess, locate, extract, evaluate) =
                (ns(t0, t1), ns(t1, t2), ns(t2, t3), ns(t3, t4));
            self.assess.push(assess);
            self.locate.push(locate);
            self.extract.push(extract);
            self.evaluate.push(evaluate);
            self.commit.push(ns(t4, t5));
            self.assess_self.push(
                i64::from(assess) - i64::from(locate) - i64::from(extract) - i64::from(evaluate),
            );
            digest = mix_digest(digest, &verdict, outcome);
        }
        digest
    }

    /// Report the per-call medians, each multiplied by `factor` (the
    /// traced passes' median normalisation factor).
    fn report(&mut self, out: &mut Outcome, factor: f64) {
        let med = |v: &mut [u32]| -> f64 {
            v.sort_unstable();
            if v.is_empty() {
                0.0
            } else {
                f64::from(quantile_sorted(v, 0.5)) * factor
            }
        };
        out.check("traced_calls_reproduce_the_verdict", self.mismatches == 0);
        out.set("netmodel.geo.locate_ns", med(&mut self.locate));
        out.set("defense.signals.extract_ns", med(&mut self.extract));
        out.set("defense.risk.evaluate_ns", med(&mut self.evaluate));
        out.set("defense.service.commit_ns", med(&mut self.commit));
        out.set("defense.service.assess_ns", med(&mut self.assess));
        self.assess_self.sort_unstable();
        out.set(
            "defense.service.assess_self_ns",
            self.assess_self
                .get(self.assess_self.len() / 2)
                .copied()
                .unwrap_or(0) as f64
                * factor,
        );
        out.set("defense.service.traced_calls", self.assess.len() as f64);
    }
}

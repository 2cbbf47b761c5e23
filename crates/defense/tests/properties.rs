//! Property tests for the bounded-state primitives under the
//! streaming service: `LruCache` edge cases (degenerate capacities,
//! `peek` recency-neutrality under eviction pressure),
//! `HistoryStore` total-get semantics for never-seen accounts, and the
//! compact `AccountHistory` and `IpReputation` layouts checked against
//! straightforward reference models (the vector-and-histogram layout
//! they replaced), read for read and signal for signal.

use mhw_defense::lru::LruCache;
use mhw_defense::signals::{
    extract_signals, AccountHistory, HistoryStore, IpReputation, LoginSignals,
    MAX_RECENT_FAILURES, MAX_TRACKED_DEVICES,
};
use mhw_types::{AccountId, CountryCode, DeviceId, IpAddr, SimDuration, SimTime, DAY, HOUR};
use proptest::prelude::*;
use std::collections::VecDeque;

/// The reference account history: per-country counts in a sorted
/// vector, a `VecDeque` device window, an hour-of-day histogram and a
/// `VecDeque` failure log, exactly as the scorer first stored them.
#[derive(Default)]
struct RefHistory {
    countries: Vec<(CountryCode, u32)>,
    devices: VecDeque<DeviceId>,
    last_success: Option<(SimTime, CountryCode)>,
    hours: [u32; 24],
    recent_failures: VecDeque<SimTime>,
}

impl RefHistory {
    fn total_logins(&self) -> u32 {
        self.countries.iter().map(|(_, n)| n).sum()
    }

    fn has_country(&self, country: CountryCode) -> bool {
        self.countries.binary_search_by_key(&country, |(c, _)| *c).is_ok()
    }

    fn record_success(&mut self, at: SimTime, country: CountryCode, device: DeviceId) {
        match self.countries.binary_search_by_key(&country, |(c, _)| *c) {
            Ok(i) => self.countries[i].1 += 1,
            Err(i) => self.countries.insert(i, (country, 1)),
        }
        if let Some(pos) = self.devices.iter().position(|d| *d == device) {
            self.devices.remove(pos);
        } else if self.devices.len() >= MAX_TRACKED_DEVICES {
            self.devices.pop_front();
        }
        self.devices.push_back(device);
        self.last_success = Some((at, country));
        self.hours[at.hour_of_day() as usize] += 1;
    }

    fn record_failure(&mut self, at: SimTime) {
        self.recent_failures.push_back(at);
        while let Some(front) = self.recent_failures.front() {
            if at.since(*front) > SimDuration::from_hours(24) {
                self.recent_failures.pop_front();
            } else {
                break;
            }
        }
        while self.recent_failures.len() > MAX_RECENT_FAILURES {
            self.recent_failures.pop_front();
        }
    }

    fn failures_in_last_day(&self, at: SimTime) -> usize {
        self.recent_failures
            .iter()
            .filter(|t| at.since(**t) <= SimDuration::from_hours(24))
            .count()
    }

    /// The signal extractor as first written against this layout.
    fn extract(
        &self,
        at: SimTime,
        country: Option<CountryCode>,
        device: DeviceId,
        fanout_today: usize,
    ) -> LoginSignals {
        let mut s = LoginSignals::default();
        let cold_start = self.total_logins() < 3;
        if let Some(c) = country {
            if !cold_start && !self.has_country(c) {
                s.new_country = 1.0;
            }
            if let Some((last_at, last_country)) = self.last_success {
                if last_country != c && at.since(last_at) < SimDuration::from_hours(6) {
                    s.impossible_travel = 1.0;
                }
            }
        } else {
            s.new_country = 0.5;
        }
        if !cold_start && !self.devices.contains(&device) {
            s.new_device = 1.0;
        }
        s.ip_fanout = ((fanout_today.saturating_sub(1)) as f64 / 19.0).clamp(0.0, 1.0);
        if !cold_start {
            let h = at.hour_of_day() as usize;
            let near: u32 = (0..24)
                .filter(|i| {
                    let d = (*i as i32 - h as i32)
                        .rem_euclid(24)
                        .min((h as i32 - *i as i32).rem_euclid(24));
                    d <= 2
                })
                .map(|i| self.hours[i])
                .sum();
            if near == 0 && self.total_logins() >= 10 {
                s.odd_hour = 1.0;
            }
        }
        s.failure_burst = (self.failures_in_last_day(at) as f64 / 5.0).clamp(0.0, 1.0);
        s
    }
}

/// Every public read of `h` and a spread of `extract_signals` probes
/// agree with the reference.
fn assert_history_matches(h: &AccountHistory, r: &RefHistory, now: SimTime, n_devices: u32) {
    assert_eq!(h.total_logins(), r.total_logins());
    assert_eq!(h.tracked_devices(), r.devices.len());
    for c in CountryCode::ALL {
        assert_eq!(h.has_country(c), r.has_country(c), "{c:?}");
    }
    for d in 0..n_devices {
        assert_eq!(h.has_device(DeviceId(d)), r.devices.contains(&DeviceId(d)), "device {d}");
    }
    for probe_hours in [0, 1, 3, 5, 7, 13, 23, 25, 30] {
        let at = now.plus(SimDuration::from_hours(probe_hours));
        assert_eq!(h.failures_in_last_day(at), r.failures_in_last_day(at));
        for (k, country) in [None, Some(CountryCode::US), Some(CountryCode::NG)]
            .into_iter()
            .chain(CountryCode::ALL.into_iter().map(Some))
            .enumerate()
        {
            let device = DeviceId((k as u32 + probe_hours as u32) % n_devices.max(1));
            let fanout = k % 25;
            assert_eq!(
                extract_signals(h, at, country, device, fanout),
                r.extract(at, country, device, fanout),
                "at {at:?}, country {country:?}, device {device:?}"
            );
        }
    }
}

#[test]
fn lru_capacity_zero_clamps_to_one() {
    let mut c: LruCache<u32, u32> = LruCache::new(0);
    assert_eq!(c.capacity(), 1, "capacity 0 is clamped to 1");
    c.get_or_insert_with(1, || 10);
    c.get_or_insert_with(2, || 20);
    assert_eq!(c.len(), 1);
    assert_eq!(c.peek(&1), None);
    assert_eq!(c.peek(&2), Some(&20), "the newest insert survives");
}

#[test]
fn lru_clear_empties_but_keeps_capacity() {
    let mut c: LruCache<u32, u32> = LruCache::new(4);
    for k in 0..10 {
        c.get_or_insert_with(k, || k);
    }
    assert_eq!(c.len(), 4);
    c.clear();
    assert!(c.is_empty());
    assert_eq!(c.capacity(), 4);
    assert_eq!(c.peek(&9), None, "a wiped cache is genuinely cold");
    c.get_or_insert_with(7, || 70);
    assert_eq!(c.peek(&7), Some(&70), "a wiped cache accepts new entries");
}

proptest! {
    /// A capacity-1 cache always holds exactly the last-inserted key,
    /// whatever the access sequence.
    #[test]
    fn lru_capacity_one_holds_only_the_last_insert(
        keys in proptest::collection::vec(0u32..8, 1..40),
    ) {
        let mut c: LruCache<u32, u32> = LruCache::new(1);
        for &k in &keys {
            *c.get_or_insert_with(k, || 0) = k * 10;
        }
        prop_assert_eq!(c.len(), 1);
        let last = *keys.last().unwrap();
        let expected = last * 10;
        for k in 0..8 {
            prop_assert_eq!(c.peek(&k), if k == last { Some(&expected) } else { None });
        }
    }

    /// `peek` never perturbs eviction: a cache that additionally peeks
    /// between every operation evicts exactly the same keys as one
    /// that never peeks. Ops are encoded as op*16+key over a 16-key
    /// domain against a capacity-4 cache, so eviction pressure is
    /// constant.
    #[test]
    fn lru_peek_is_recency_neutral_under_eviction_pressure(
        ops in proptest::collection::vec(0u32..32, 1..120),
    ) {
        let mut with_peeks: LruCache<u32, u32> = LruCache::new(4);
        let mut without: LruCache<u32, u32> = LruCache::new(4);
        for &op in &ops {
            let key = op % 16;
            match op / 16 {
                0 => {
                    *with_peeks.get_or_insert_with(key, || 0) = key;
                    *without.get_or_insert_with(key, || 0) = key;
                }
                _ => {
                    with_peeks.get_mut(&key);
                    without.get_mut(&key);
                }
            }
            // The probe sequence only the first cache sees.
            for k in 0..16 {
                with_peeks.peek(&k);
            }
        }
        prop_assert_eq!(with_peeks.len(), without.len());
        for k in 0..16 {
            prop_assert_eq!(
                with_peeks.peek(&k),
                without.peek(&k),
                "peeks changed the survivor set at key {}",
                k
            );
        }
    }

    /// The history store is total: reading any never-seen account
    /// yields the empty history and materializes nothing, however many
    /// reads happen and wherever the ids land.
    #[test]
    fn history_store_total_get_never_materializes(
        probes in proptest::collection::vec(0u32..1_000_000, 1..50),
    ) {
        let mut store = HistoryStore::new();
        store.register(AccountId(3));
        let len_before = store.len();
        for &id in &probes {
            let h = store.get(AccountId(id + 10)); // ids disjoint from the registered one
            prop_assert_eq!(h.total_logins(), 0);
            prop_assert_eq!(h.failures_in_last_day(mhw_types::SimTime::from_secs(0)), 0);
        }
        prop_assert_eq!(store.len(), len_before, "total get must not materialize");
        // get_mut is the materializing path.
        store.get_mut(AccountId(probes[0] + 10));
        prop_assert_eq!(store.len(), len_before + 1);
    }
}

proptest! {
    /// The compact history answers every read, and scores every probe,
    /// exactly as the reference layout does: over device pools from 1
    /// to 80 (inline, spilled, and past the 32-device window), repeated
    /// devices, all 18 countries, every hour, failures, and clocks that
    /// occasionally run backwards.
    #[test]
    fn account_history_matches_the_reference_layout(
        n_devices in 1u32..80,
        ops in proptest::collection::vec(0u64..u64::MAX, 1..160),
    ) {
        let mut h = AccountHistory::default();
        let mut r = RefHistory::default();
        let mut now = SimTime::from_secs(3 * DAY);
        for op in ops {
            // Up to ~9 h forward per step, sometimes a few hours back.
            let step = (op >> 40) % (9 * HOUR);
            now = if op % 16 == 15 {
                SimTime::from_secs(now.as_secs().saturating_sub(step / 2))
            } else {
                SimTime::from_secs(now.as_secs() + step)
            };
            let device = DeviceId(((op >> 8) % u64::from(n_devices)) as u32);
            let country = CountryCode::ALL[((op >> 24) % 18) as usize];
            if (op >> 4) % 5 == 0 {
                h.record_failure(now);
                r.record_failure(now);
            } else {
                h.record_success(now, country, device);
                r.record_success(now, country, device);
            }
            assert_history_matches(&h, &r, now, n_devices);
        }
    }
}

/// The reference fan-out tracker: a recency-ordered `Vec` of
/// `(ip, day, accounts)` (most recent last), evicting from the front.
struct RefReputation {
    capacity: usize,
    per_ip: usize,
    entries: Vec<(IpAddr, u64, Vec<AccountId>)>,
}

impl RefReputation {
    fn observe(&mut self, ip: IpAddr, account: AccountId, at: SimTime) -> usize {
        let day = at.day_index();
        match self.entries.iter().position(|e| e.0 == ip) {
            Some(pos) => {
                let e = self.entries.remove(pos);
                self.entries.push(e);
            }
            None => {
                if self.entries.len() == self.capacity {
                    self.entries.remove(0);
                }
                self.entries.push((ip, day, Vec::new()));
            }
        }
        let per_ip = self.per_ip;
        let Some(e) = self.entries.last_mut() else { unreachable!("just pushed") };
        if e.1 != day {
            e.1 = day;
            e.2.clear();
        }
        if !e.2.contains(&account) && e.2.len() < per_ip {
            e.2.push(account);
        }
        e.2.len()
    }

    fn today(&self, ip: IpAddr, at: SimTime) -> Option<&Vec<AccountId>> {
        self.entries.iter().find(|e| e.0 == ip && e.1 == at.day_index()).map(|e| &e.2)
    }

    fn projected_fanout(&self, ip: IpAddr, account: AccountId, at: SimTime) -> usize {
        match self.today(ip, at) {
            Some(a) if a.contains(&account) || a.len() >= self.per_ip => a.len(),
            Some(a) => a.len() + 1,
            None => 1,
        }
    }

    fn fanout(&self, ip: IpAddr, at: SimTime) -> usize {
        self.today(ip, at).map_or(0, Vec::len)
    }
}

proptest! {
    /// The inline-two account sets behave exactly like per-IP vectors:
    /// more than two accounts per IP, saturation at the per-IP cap, day
    /// rollover, wipes and LRU eviction over a tiny cache.
    #[test]
    fn ip_reputation_matches_a_vec_model(
        capacity in 1usize..6,
        per_ip in 1usize..7,
        ops in proptest::collection::vec(0u64..u64::MAX, 1..300),
    ) {
        let mut rep = IpReputation::with_limits(capacity, per_ip);
        let mut model = RefReputation { capacity, per_ip, entries: Vec::new() };
        let mut now = SimTime::from_secs(0);
        for op in ops {
            // ~36 attempts a day over 5 addresses and 7 accounts: sets
            // fill past two and saturate before the day rolls over.
            now = now.plus(SimDuration::from_secs((op >> 40) % 5_000));
            let ip = IpAddr(((op >> 8) % 5) as u32);
            let account = AccountId(((op >> 16) % 7) as u32);
            if op % 64 == 0 {
                rep.wipe();
                model.entries.clear();
            } else {
                prop_assert_eq!(
                    rep.projected_fanout(ip, account, now),
                    model.projected_fanout(ip, account, now)
                );
                prop_assert_eq!(rep.observe(ip, account, now), model.observe(ip, account, now));
            }
            prop_assert_eq!(rep.len(), model.entries.len());
            for probe in 0..5 {
                prop_assert_eq!(rep.fanout(IpAddr(probe), now), model.fanout(IpAddr(probe), now));
            }
        }
    }
}

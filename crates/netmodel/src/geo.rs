//! Country IPv4 allocations and geolocation.
//!
//! Each modelled country owns a disjoint set of address blocks inside a
//! country-unique /8 (a deliberately clean version of real RIR
//! allocations — the measurement code only ever needs block→country
//! lookups, never routing). Geolocating an address is one first-octet
//! table lookup plus a check of the few blocks inside that /8; drawing
//! an address borrows the country's block slice. Neither allocates.

use mhw_simclock::SimRng;
use mhw_types::{CountryCode, IpAddr, IpBlock};

/// Number of /16 blocks each country receives inside its /8.
const BLOCKS_PER_COUNTRY: usize = 8;

/// A geolocation database over the synthetic address plan.
#[derive(Debug, Clone)]
pub struct GeoDb {
    /// Every block, grouped by country in [`CountryCode::ALL`] order:
    /// country `i` owns `blocks[i * BLOCKS_PER_COUNTRY..][..BLOCKS_PER_COUNTRY]`.
    blocks: Vec<IpBlock>,
    /// For each first octet `o`, the range of `blocks` lying inside
    /// `o.0.0.0/8` (empty for octets outside the plan).
    by_octet: [(u16, u16); 256],
}

impl Default for GeoDb {
    fn default() -> Self {
        Self::new()
    }
}

impl GeoDb {
    /// Build the standard address plan: country `i` owns
    /// `BLOCKS_PER_COUNTRY` /16s inside the `(40 + i).0.0.0/8` space.
    /// Octet 40 keeps the plan clear of common private/reserved ranges,
    /// which avoids confusing anyone eyeballing logs.
    pub fn new() -> Self {
        let mut blocks = Vec::with_capacity(CountryCode::ALL.len() * BLOCKS_PER_COUNTRY);
        let mut by_octet = [(0u16, 0u16); 256];
        for i in 0..CountryCode::ALL.len() {
            let first_octet = 40 + i as u8;
            let start = blocks.len() as u16;
            for b in 0..BLOCKS_PER_COUNTRY {
                // Spread the /16s across the /8 (second octet stride 29
                // so blocks are non-adjacent, like real allocations).
                let second = (b * 29 % 256) as u8;
                blocks.push(IpBlock::new(IpAddr::new(first_octet, second, 0, 0), 16));
            }
            by_octet[usize::from(first_octet)] = (start, blocks.len() as u16);
        }
        GeoDb { blocks, by_octet }
    }

    /// All blocks allocated to `country`, in allocation order.
    pub fn blocks_for(&self, country: CountryCode) -> &[IpBlock] {
        &self.blocks[country.index() * BLOCKS_PER_COUNTRY..][..BLOCKS_PER_COUNTRY]
    }

    /// Geolocate an address. `None` for addresses outside the plan
    /// (which the simulator never emits, but logs are data: be total).
    pub fn locate(&self, ip: IpAddr) -> Option<CountryCode> {
        let (lo, hi) = self.by_octet[ip.octets()[0] as usize];
        let (lo, hi) = (usize::from(lo), usize::from(hi));
        let j = lo + self.blocks[lo..hi].iter().position(|b| b.contains(ip))?;
        Some(CountryCode::ALL[j / BLOCKS_PER_COUNTRY])
    }

    /// Draw a random address located in `country`.
    pub fn random_ip(&self, country: CountryCode, rng: &mut SimRng) -> IpAddr {
        let blocks = self.blocks_for(country);
        let block = blocks[rng.below(blocks.len() as u64) as usize];
        // Avoid .0 and .255 hosts for cosmetic realism.
        let host = rng.range_inclusive(1, block.size() - 2);
        block.addr(host)
    }

    /// Deterministically assign the `i`-th host address in `country`
    /// (used to give long-lived agents stable addresses).
    pub fn stable_ip(&self, country: CountryCode, i: u64) -> IpAddr {
        let blocks = self.blocks_for(country);
        let block = blocks[(i % blocks.len() as u64) as usize];
        block.addr(1 + i / blocks.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_country_has_blocks() {
        let db = GeoDb::new();
        for c in CountryCode::ALL {
            assert_eq!(db.blocks_for(c).len(), BLOCKS_PER_COUNTRY, "{c}");
        }
    }

    #[test]
    fn blocks_are_disjoint() {
        let db = GeoDb::new();
        for (i, a) in db.blocks.iter().enumerate() {
            for b in db.blocks.iter().skip(i + 1) {
                assert!(
                    !a.contains(b.base()) && !b.contains(a.base()),
                    "{a} overlaps {b}"
                );
            }
        }
    }

    #[test]
    fn locate_round_trips_random_ips() {
        let db = GeoDb::new();
        let mut rng = SimRng::from_seed(1);
        for c in CountryCode::ALL {
            for _ in 0..20 {
                let ip = db.random_ip(c, &mut rng);
                assert_eq!(db.locate(ip), Some(c), "{ip} should be in {c}");
            }
        }
    }

    #[test]
    fn locate_unknown_is_none() {
        let db = GeoDb::new();
        assert_eq!(db.locate(IpAddr::new(8, 8, 8, 8)), None);
        assert_eq!(db.locate(IpAddr::new(192, 168, 0, 1)), None);
    }

    /// The reference answer: scan every block of every country.
    pub(super) fn scan(db: &GeoDb, ip: IpAddr) -> Option<CountryCode> {
        CountryCode::ALL
            .into_iter()
            .find(|c| db.blocks_for(*c).iter().any(|b| b.contains(ip)))
    }

    #[test]
    fn locate_matches_a_linear_scan_on_every_slash16() {
        // Every first octet (in and out of the plan) and every second
        // octet, so both block edges and gaps inside a country's /8 are
        // covered.
        let db = GeoDb::new();
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                for ip in [IpAddr::new(a, b, 0, 0), IpAddr::new(a, b, 255, 255)] {
                    assert_eq!(db.locate(ip), scan(&db, ip), "{ip}");
                }
            }
        }
    }

    #[test]
    fn stable_ips_are_stable_and_located() {
        let db = GeoDb::new();
        let a = db.stable_ip(CountryCode::NG, 17);
        let b = db.stable_ip(CountryCode::NG, 17);
        assert_eq!(a, b);
        assert_eq!(db.locate(a), Some(CountryCode::NG));
        // Distinct indices give distinct addresses (within plan capacity).
        assert_ne!(db.stable_ip(CountryCode::NG, 1), db.stable_ip(CountryCode::NG, 2));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every address handed out by the plan geolocates back to the
        /// country it was allocated for.
        #[test]
        fn allocation_geolocates_home(country_idx in 0usize..CountryCode::ALL.len(), host in 0u64..1_000_000) {
            let db = GeoDb::new();
            let country = CountryCode::ALL[country_idx];
            let ip = db.stable_ip(country, host);
            prop_assert_eq!(db.locate(ip), Some(country));
        }

        /// Geolocation is a partial function: any IP maps to at most one
        /// country (blocks are disjoint).
        #[test]
        fn locate_is_unambiguous(a in 0u8..=255, b in 0u8..=255, c in 0u8..=255, d in 0u8..=255) {
            let db = GeoDb::new();
            let ip = IpAddr::new(a, b, c, d);
            let hits = CountryCode::ALL
                .iter()
                .filter(|country| db.blocks_for(**country).iter().any(|blk| blk.contains(ip)))
                .count();
            prop_assert!(hits <= 1);
            prop_assert_eq!(db.locate(ip).is_some(), hits == 1);
        }

        /// The first-octet table agrees with a scan of every block, for
        /// every first octet and random lower octets.
        #[test]
        fn locate_matches_a_linear_scan(b in 0u8..=255, c in 0u8..=255, d in 0u8..=255) {
            let db = GeoDb::new();
            for a in 0..=255u8 {
                let ip = IpAddr::new(a, b, c, d);
                prop_assert_eq!(db.locate(ip), tests::scan(&db, ip), "{}", ip);
            }
        }
    }
}

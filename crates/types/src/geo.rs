//! Countries and languages.
//!
//! The paper's attribution analysis (§7) geolocates hijacker IPs and phone
//! numbers to countries, and observes language structure in hijacker
//! behaviour (Chinese and Spanish search terms; the Ivory Coast crews
//! scamming French-speaking countries, the Nigerian crews English-speaking
//! ones). The simulator therefore needs a small but real country model:
//! ISO-ish codes, primary language, a representative UTC offset (for crew
//! office hours) and an international phone prefix.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Primary language spoken in a country. Drives which victims a crew
/// prefers and which language its scam text and mailbox search terms use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)] // the variant names are the documentation
pub enum Language {
    English,
    French,
    Spanish,
    Chinese,
    Portuguese,
    Malay,
    Vietnamese,
    German,
    Other,
}

/// Countries that appear in the paper's attribution analysis plus enough
/// bystander countries to make victim populations and traffic realistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CountryCode {
    /// United States
    US,
    /// China — dominant source of hijacker login IPs (Fig 11).
    CN,
    /// Malaysia — major source of hijacker login IPs (Fig 11).
    MY,
    /// Nigeria — major crew home, English-speaking victims (Fig 12).
    NG,
    /// Ivory Coast (Côte d'Ivoire) — major crew home, French-speaking victims (Fig 12).
    CI,
    /// South Africa — ≈10% of both IP and phone datasets (§7).
    ZA,
    /// Venezuela — consistent with Spanish search terms (§5.2, §7).
    VE,
    /// France
    FR,
    /// United Kingdom
    GB,
    /// Germany
    DE,
    /// Spain
    ES,
    /// India
    IN,
    /// Brazil
    BR,
    /// Vietnam
    VN,
    /// Mali
    ML,
    /// Canada
    CA,
    /// Australia
    AU,
    /// Mexico
    MX,
}

impl CountryCode {
    /// All modelled countries.
    pub const ALL: [CountryCode; 18] = [
        CountryCode::US,
        CountryCode::CN,
        CountryCode::MY,
        CountryCode::NG,
        CountryCode::CI,
        CountryCode::ZA,
        CountryCode::VE,
        CountryCode::FR,
        CountryCode::GB,
        CountryCode::DE,
        CountryCode::ES,
        CountryCode::IN,
        CountryCode::BR,
        CountryCode::VN,
        CountryCode::ML,
        CountryCode::CA,
        CountryCode::AU,
        CountryCode::MX,
    ];

    /// Position in [`CountryCode::ALL`] (`0..18`): a dense index for
    /// per-country tables and bitmasks.
    pub const fn index(self) -> usize {
        // The declaration order is the `ALL` order (pinned by a test).
        self as usize
    }

    /// Two-letter code string, as rendered in the paper's figures.
    pub fn code(self) -> &'static str {
        match self {
            CountryCode::US => "US",
            CountryCode::CN => "CN",
            CountryCode::MY => "MY",
            CountryCode::NG => "NG",
            CountryCode::CI => "CI",
            CountryCode::ZA => "ZA",
            CountryCode::VE => "VE",
            CountryCode::FR => "FR",
            CountryCode::GB => "GB",
            CountryCode::DE => "DE",
            CountryCode::ES => "ES",
            CountryCode::IN => "IN",
            CountryCode::BR => "BR",
            CountryCode::VN => "VN",
            CountryCode::ML => "ML",
            CountryCode::CA => "CA",
            CountryCode::AU => "AU",
            CountryCode::MX => "MX",
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            CountryCode::US => "United States",
            CountryCode::CN => "China",
            CountryCode::MY => "Malaysia",
            CountryCode::NG => "Nigeria",
            CountryCode::CI => "Ivory Coast",
            CountryCode::ZA => "South Africa",
            CountryCode::VE => "Venezuela",
            CountryCode::FR => "France",
            CountryCode::GB => "United Kingdom",
            CountryCode::DE => "Germany",
            CountryCode::ES => "Spain",
            CountryCode::IN => "India",
            CountryCode::BR => "Brazil",
            CountryCode::VN => "Vietnam",
            CountryCode::ML => "Mali",
            CountryCode::CA => "Canada",
            CountryCode::AU => "Australia",
            CountryCode::MX => "Mexico",
        }
    }

    /// Primary language. Crews preferentially target victims whose
    /// language they speak (§7: CI ⇒ French-speaking countries, NG ⇒
    /// English-speaking ones).
    pub fn language(self) -> Language {
        match self {
            CountryCode::US | CountryCode::GB | CountryCode::CA | CountryCode::AU => {
                Language::English
            }
            CountryCode::NG | CountryCode::ZA | CountryCode::IN => Language::English,
            CountryCode::CI | CountryCode::FR | CountryCode::ML => Language::French,
            CountryCode::VE | CountryCode::ES | CountryCode::MX => Language::Spanish,
            CountryCode::CN => Language::Chinese,
            CountryCode::MY => Language::Malay,
            CountryCode::VN => Language::Vietnamese,
            CountryCode::BR => Language::Portuguese,
            CountryCode::DE => Language::German,
        }
    }

    /// Representative whole-hour UTC offset (standard time; a single
    /// offset per country is sufficient for office-hours modelling).
    pub fn utc_offset_hours(self) -> i32 {
        match self {
            CountryCode::US => -5,
            CountryCode::CN => 8,
            CountryCode::MY => 8,
            CountryCode::NG => 1,
            CountryCode::CI => 0,
            CountryCode::ZA => 2,
            CountryCode::VE => -4,
            CountryCode::FR => 1,
            CountryCode::GB => 0,
            CountryCode::DE => 1,
            CountryCode::ES => 1,
            CountryCode::IN => 5, // IST is +5:30; rounded to whole hours
            CountryCode::BR => -3,
            CountryCode::VN => 7,
            CountryCode::ML => 0,
            CountryCode::CA => -5,
            CountryCode::AU => 10,
            CountryCode::MX => -6,
        }
    }

    /// International dialling prefix, used to attribute hijacker phone
    /// numbers to countries (Fig 12).
    pub fn phone_prefix(self) -> u16 {
        match self {
            CountryCode::US | CountryCode::CA => 1,
            CountryCode::CN => 86,
            CountryCode::MY => 60,
            CountryCode::NG => 234,
            CountryCode::CI => 225,
            CountryCode::ZA => 27,
            CountryCode::VE => 58,
            CountryCode::FR => 33,
            CountryCode::GB => 44,
            CountryCode::DE => 49,
            CountryCode::ES => 34,
            CountryCode::IN => 91,
            CountryCode::BR => 55,
            CountryCode::VN => 84,
            CountryCode::ML => 223,
            CountryCode::AU => 61,
            CountryCode::MX => 52,
        }
    }

    /// Look a country up by its dialling prefix. `US`/`CA` share +1; the
    /// lookup resolves it to `US`, which matches how coarse phone-prefix
    /// attribution works in practice.
    pub fn from_phone_prefix(prefix: u16) -> Option<CountryCode> {
        CountryCode::ALL.iter().copied().find(|c| c.phone_prefix() == prefix)
    }
}

impl fmt::Display for CountryCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn index_is_the_position_in_all() {
        for (i, c) in CountryCode::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?}");
        }
    }

    #[test]
    fn all_countries_unique() {
        let set: HashSet<_> = CountryCode::ALL.iter().collect();
        assert_eq!(set.len(), CountryCode::ALL.len());
    }

    #[test]
    fn paper_attribution_countries_present() {
        // §7 names these five as the main hijacker origins.
        for c in [
            CountryCode::CN,
            CountryCode::CI,
            CountryCode::MY,
            CountryCode::NG,
            CountryCode::ZA,
        ] {
            assert!(CountryCode::ALL.contains(&c));
        }
    }

    #[test]
    fn crew_language_split_matches_paper() {
        // "the Ivory Coast specialize in scamming French speaking
        //  countries where as the Nigeria focus on English speaking"
        assert_eq!(CountryCode::CI.language(), Language::French);
        assert_eq!(CountryCode::NG.language(), Language::English);
        assert_eq!(CountryCode::CN.language(), Language::Chinese);
        assert_eq!(CountryCode::VE.language(), Language::Spanish);
    }

    #[test]
    fn phone_prefix_round_trips() {
        for c in CountryCode::ALL {
            let back = CountryCode::from_phone_prefix(c.phone_prefix()).unwrap();
            if c == CountryCode::CA {
                // +1 is shared; resolves to US.
                assert_eq!(back, CountryCode::US);
            } else {
                assert_eq!(back, c);
            }
        }
        assert_eq!(CountryCode::from_phone_prefix(999), None);
    }

    #[test]
    fn offsets_are_plausible() {
        for c in CountryCode::ALL {
            let off = c.utc_offset_hours();
            assert!((-12..=14).contains(&off), "{c} offset {off}");
        }
        assert_eq!(CountryCode::CN.utc_offset_hours(), 8);
        assert_eq!(CountryCode::CI.utc_offset_hours(), 0);
    }

    #[test]
    fn display_uses_code() {
        assert_eq!(CountryCode::NG.to_string(), "NG");
        assert_eq!(CountryCode::CI.name(), "Ivory Coast");
    }
}

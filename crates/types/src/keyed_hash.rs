//! A keyed, fast hasher for integer keys.
//!
//! The hot maps keyed by integers — the per-IP fan-out cache index and
//! the [`DenseMap`](crate::DenseMap) overflow — spend most of a lookup
//! in `std`'s SipHash-1-3, which is built for long byte strings. One
//! 64×64→128-bit multiply, folded by XOR-ing its halves, mixes a `u32`
//! or `u64` key just as well for bucket selection at a fraction of the
//! cost.
//!
//! Some of those keys are chosen by an attacker (source IP addresses),
//! so the hash stays **keyed**: every [`KeyedState`] draws a random
//! 64-bit key from [`RandomState`] and XORs it into the input before
//! the multiply. Without the key, an attacker could pick addresses
//! that all land in one bucket and turn every lookup into a linear
//! probe. The multiplier itself is a fixed odd constant: a random
//! multiplier is sometimes a poor one (in 20,000 draws, one sent 4,096
//! strided keys to a single bucket of 1,024). Iteration order of a map
//! using it is as unpredictable as with `RandomState`; nothing in the
//! workspace may depend on it.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// The multiplier: 2^64 / φ, odd, with well-spread bits.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// 64×64→128-bit multiply, folded to 64 bits by XOR-ing the halves.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// A [`BuildHasher`] with a per-instance random key.
///
/// ```
/// use mhw_types::keyed_hash::KeyedState;
/// use std::collections::HashMap;
///
/// let mut m: HashMap<u32, &str, KeyedState> = HashMap::with_hasher(KeyedState::new());
/// m.insert(7, "seven");
/// assert_eq!(m.get(&7), Some(&"seven"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct KeyedState {
    seed: u64,
}

impl KeyedState {
    /// A state keyed from a fresh [`RandomState`].
    pub fn new() -> Self {
        KeyedState { seed: RandomState::new().hash_one(0u64) }
    }
}

impl Default for KeyedState {
    fn default() -> Self {
        KeyedState::new()
    }
}

impl BuildHasher for KeyedState {
    type Hasher = KeyedHasher;

    #[inline]
    fn build_hasher(&self) -> KeyedHasher {
        KeyedHasher { state: self.seed }
    }
}

/// The hasher a [`KeyedState`] builds. A `u32` or `u64` write costs one
/// folded multiply; other writes are folded in 8-byte words.
#[derive(Debug, Clone, Copy)]
pub struct KeyedHasher {
    state: u64,
}

impl KeyedHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = folded_multiply(self.state ^ word, MULTIPLIER);
    }
}

impl Hasher for KeyedHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        let mut word = [0u8; 8];
        word[..rest.len()].copy_from_slice(rest);
        // The length keeps "ab" and "ab\0" apart.
        self.mix(u64::from_le_bytes(word) ^ ((bytes.len() as u64) << 56));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn one_state_hashes_deterministically() {
        let s = KeyedState::new();
        assert_eq!(s.hash_one(42u32), s.hash_one(42u32));
        assert_ne!(s.hash_one(42u32), s.hash_one(43u32));
    }

    #[test]
    fn states_are_keyed_independently() {
        // Two maps must not share a hash function: an address set that
        // collides in one collides in the other only by chance.
        let (a, b) = (KeyedState::new(), KeyedState::new());
        let same = (0..64u32).filter(|k| a.hash_one(*k) == b.hash_one(*k)).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn strided_keys_spread_over_buckets() {
        // 4096 keys at strides an address plan produces, into 1024
        // buckets by the low bits (how the std table picks a bucket):
        // no bucket may hold a large share, for any key drawn. Over
        // 20,000 draws the worst bucket held 26 keys (4 on average)
        // and at least 96 of the 128 control bytes occurred.
        for _ in 0..50 {
            let s = KeyedState::new();
            for stride in [1u32, 17, 256, 1 << 16, 1 << 24] {
                let keys = (0..4096u32).map(|k| k.wrapping_mul(stride));
                let mut counts = vec![0u32; 1024];
                for k in keys.clone() {
                    counts[(s.hash_one(k) & 1023) as usize] += 1;
                }
                let max = counts.iter().copied().max().unwrap_or(0);
                assert!(max <= 40, "stride {stride}: worst bucket holds {max} of 4096 keys");
                // The top 7 bits (the std table's control byte) vary too.
                let tops: HashSet<u64> = keys.map(|k| s.hash_one(k) >> 57).collect();
                assert!(tops.len() > 64, "stride {stride}: {} control bytes", tops.len());
            }
        }
    }

    #[test]
    fn byte_writes_distinguish_lengths() {
        let s = KeyedState::new();
        let h = |bytes: &[u8]| {
            let mut hasher = s.build_hasher();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_ne!(h(b"ab"), h(b"ab\0"));
        assert_ne!(h(b""), h(b"\0"));
        assert_eq!(h(b"hello, world"), h(b"hello, world"));
    }
}

//! A fixed, fast hasher for the optimizer's in-memory tables.
//!
//! The std `HashMap` hashes with SipHash-1-3 under a random per-process
//! key, which protects against adversarial keys at a cost of tens of
//! nanoseconds per lookup. The tables the opt passes build (value
//! numbers, available loads, pending stores) are keyed by small integers
//! and enums of the function being compiled, are never iterated in an
//! order that reaches the output, and live for one pass. [`FxHasher`]
//! is the multiplicative word hash rustc uses for such tables: one
//! rotate, xor and multiply per word, and no key.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of the Fx hash (from rustc's `FxHasher`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fx-style word hasher: `h = (h.rotl(5) ^ word) * SEED` per word.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FxHasher`]s; every table gets the same, fixed hash function.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn hashing_is_fixed_and_separates_nearby_keys() {
        // The same key hashes the same way in every table and process.
        assert_eq!(hash_of(&(3u32, 7u64)), hash_of(&(3u32, 7u64)));
        assert_eq!(hash_of(&1u64), SEED);
        // Nearby integer keys land in distinct top-7-bit groups, which is
        // what the std table's probe uses first.
        let tops: std::collections::BTreeSet<u64> =
            (1..=64u64).map(|k| hash_of(&k) >> 57).collect();
        assert!(tops.len() > 32, "{} distinct top bytes", tops.len());
        // Byte slices hash by 8-byte words plus a zero-padded tail.
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2][..]));
    }

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<(u32, u64), usize> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, u64::from(i) * 3), i as usize);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000u32).all(|i| m[&(i, u64::from(i) * 3)] == i as usize));
    }
}

//! Stable, dependency-free 64-bit hashing for state fingerprints.
//!
//! The model checker's cross-schedule dedup and the liveness lasso search
//! both key hash tables on *canonical state digests* of TMs, clients and
//! certifiers. Those digests must be deterministic within a run but need
//! no cryptographic strength and no DoS resistance (all inputs are
//! machine-generated states, not attacker-controlled keys), so a plain
//! multiply–xorshift mix over the [`std::hash::Hash`] stream is the right
//! tool: allocation-free, seedless, and identical across threads — the
//! parallel frontier's per-worker seen sets agree on every digest.
//!
//! The mix consumes whole 64-bit words: every integer write is widened to
//! one word (so `(1u8, 2u8)` and `0x0201u16` are two mixes versus one,
//! not the same two bytes), and byte slices are consumed in 8-byte
//! little-endian chunks with the tail tagged by its length. One mix per
//! word instead of eight per word is what makes digesting cheap enough
//! for the per-state and per-probe hot paths; the same hasher also
//! serves as the [`std::hash::BuildHasher`] of the engine's digest-keyed
//! tables, whose keys are already well-mixed digests.
//!
//! A 64-bit digest makes collisions a real (if astronomically unlikely)
//! possibility; every consumer is therefore *redundantly checked* — the
//! explorer's digest-dedup is differential-tested report-identical against
//! the non-dedup explorer, and livecheck's per-TM state/edge/lasso counts
//! are pinned, either of which would surface a collision as a count
//! mismatch.

use std::hash::{Hash, Hasher};

/// A deterministic, seedless, word-at-a-time 64-bit [`Hasher`].
#[derive(Debug, Clone)]
pub struct StableHasher(u64);

/// The initial state (the FNV-1a offset basis, kept as an arbitrary
/// non-zero start).
const SEED: u64 = 0xcbf2_9ce4_8422_2325;
/// The per-word multiplier (2^64 / φ, odd).
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

impl StableHasher {
    /// Creates a hasher at the fixed seed.
    pub fn new() -> Self {
        StableHasher(SEED)
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl Hasher for StableHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            // At most 7 tail bytes fill the low 56 bits; the top byte
            // carries the tail length, so `[1; 9]` and `[1; 10]` differ
            // even though both tails are short runs of ones.
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            word[7] = tail.len() as u8;
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        let h = (self.0 ^ word).wrapping_mul(MULTIPLIER);
        self.0 = h ^ (h >> 29);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_i32(&mut self, i: i32) {
        self.write_u64(i as u32 as u64);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The stable digest of any hashable value.
pub fn digest_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = StableHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_deterministic() {
        let a = digest_of(&(1u64, vec![2u8, 3], "x"));
        let b = digest_of(&(1u64, vec![2u8, 3], "x"));
        assert_eq!(a, b);
    }

    #[test]
    fn digests_separate_nearby_values() {
        assert_ne!(digest_of(&1u64), digest_of(&2u64));
        assert_ne!(digest_of(&[1u8, 2]), digest_of(&[2u8, 1]));
        // Structure matters, not just content bytes.
        assert_ne!(
            digest_of(&(vec![1u8], vec![2u8])),
            digest_of(&(vec![1u8, 2u8], Vec::<u8>::new()))
        );
    }

    #[test]
    fn integer_widths_stay_separated() {
        // Byte-serial hashing fed both the same two bytes [1, 2];
        // word-at-a-time hashing mixes two words versus one.
        assert_ne!(digest_of(&(1u8, 2u8)), digest_of(&0x0201u16));
        assert_ne!(digest_of(&(1u16, 0u16)), digest_of(&1u32));
    }

    #[test]
    fn raw_slice_tails_are_length_tagged() {
        let raw = |bytes: &[u8]| {
            let mut h = StableHasher::new();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(raw(&[1u8; 9]), raw(&[1u8; 10]));
        assert_ne!(raw(&[0u8; 7]), raw(&[0u8; 8]));
        assert_ne!(raw(&[0u8; 1]), raw(&[]));
        // Through `Hash` too (which adds its own length prefix).
        assert_ne!(digest_of(&[1u8; 9][..]), digest_of(&[1u8; 10][..]));
        // A whole chunk hashes like the word it spells.
        let mut h = StableHasher::new();
        h.write_u64(0x0807_0605_0403_0201);
        assert_eq!(raw(&[1, 2, 3, 4, 5, 6, 7, 8]), h.finish());
    }

    #[test]
    fn empty_input_hashes_to_offset_basis() {
        assert_eq!(StableHasher::new().finish(), SEED);
    }
}

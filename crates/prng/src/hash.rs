//! A small non-cryptographic hasher for the workspace's internal maps.
//!
//! Keys here are program-chosen plan-cache strings and the runtime's own
//! monotone integers (event sequence numbers, task ids) — never input
//! from outside the program — so SipHash's collision resistance buys
//! nothing and its per-lookup cost shows on every hot path that keeps a
//! map. Byte strings go through FNV-1a; integer keys take a one-multiply
//! word path, since eight FNV rounds per `u64` would give most of the
//! saving back.

use std::hash::{BuildHasher, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// 2^64 / φ: an odd multiplier that spreads consecutive integers over
/// the high bits (the table's control bytes read the top seven).
const WORD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// FNV-1a over bytes, multiply-fold over whole integers.
#[derive(Default)]
pub struct FnvHasher(u64);

impl FnvHasher {
    /// Fold one integer into the state: multiply for the high bits, then
    /// bring them down so the bucket index (low bits) sees them too.
    #[inline]
    fn word(&mut self, v: u64) {
        let x = (self.0 ^ v).wrapping_mul(WORD_MUL);
        self.0 = x ^ (x >> 32);
    }
}

impl Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 { FNV_OFFSET } else { self.0 };
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.word(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.word(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.word(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `BuildHasher` for [`FnvHasher`]: `HashMap<K, V, FnvBuild>`.
#[derive(Clone, Copy, Default)]
pub struct FnvBuild;

impl BuildHasher for FnvBuild {
    type Hasher = FnvHasher;

    #[inline]
    fn build_hasher(&self) -> FnvHasher {
        FnvHasher::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn bytes_are_stable_and_spread_keys() {
        let h = |s: &str| {
            let mut f = FnvHasher::default();
            f.write(s.as_bytes());
            f.finish()
        };
        assert_eq!(h("somier:forces:0"), h("somier:forces:0"));
        assert_ne!(h("somier:forces:0"), h("somier:forces:1"));
        assert_ne!(h("a"), h("b"));
    }

    #[test]
    fn consecutive_integers_spread_over_low_and_high_bits() {
        let hashes: Vec<u64> = (0..1024u64).map(|i| FnvBuild.hash_one(i)).collect();
        let low: HashSet<u64> = hashes.iter().map(|h| h & 1023).collect();
        let high: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        // A monotone id stream must neither pile into few buckets nor
        // share one control byte.
        assert!(low.len() > 512, "{} distinct low-10-bit values", low.len());
        assert_eq!(high.len(), 128);
    }

    #[test]
    fn tuple_keys_depend_on_every_field() {
        let h = |k: (Option<u64>, u32)| FnvBuild.hash_one(k);
        assert_ne!(h((None, 1)), h((Some(0), 1)));
        assert_ne!(h((Some(1), 1)), h((Some(2), 1)));
        assert_ne!(h((Some(1), 1)), h((Some(1), 2)));
    }
}

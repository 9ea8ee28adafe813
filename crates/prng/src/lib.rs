//! A tiny, dependency-free, fully deterministic PRNG.
//!
//! The workspace must build offline, so it cannot pull in `rand` or
//! `proptest`; every place that needs randomness — the seeded property
//! tests, the `spread-check` program generator, and the simulator's
//! schedule tie-break policy — uses this crate instead. The generator is
//! xoshiro256** seeded through SplitMix64, which is the standard way to
//! expand a single `u64` seed into full generator state. Identical seeds
//! produce identical streams on every platform: that guarantee is what
//! makes `replay --seed <s>` reproduce a fuzzer failure exactly.
//!
//! [`hash`] holds the workspace's one non-cryptographic hasher, here
//! because this is the leaf crate both `spread-sim` and `spread-rt` see.

pub mod hash;
pub use hash::FnvBuild;

/// One SplitMix64 step: advances `state` and returns the next output.
///
/// Also useful on its own as a cheap stateless mixer (hash a seed with a
/// sequence number to get an independent-looking value).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Stateless mix of a seed and a sequence number into one well-scrambled
/// value. Used by the simulator's seeded tie-break policy.
pub fn mix(seed: u64, n: u64) -> u64 {
    let mut s = seed ^ n.wrapping_mul(0x9e3779b97f4a7c15);
    splitmix64(&mut s)
}

/// xoshiro256** — a small, fast, high-quality PRNG.
#[derive(Clone, Debug)]
pub struct Prng {
    s: [u64; 4],
}

impl Prng {
    /// A generator seeded from a single `u64` (expanded via SplitMix64).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Prng { s }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let r = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        r
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    ///
    /// Uses the widening-multiply trick with a rejection step, so the
    /// distribution is exactly uniform (and still fully deterministic).
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` in `[lo, hi)`. `lo < hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below((hi - lo) as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// A uniformly chosen element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.range(0, xs.len())]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.range(0, i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Prng::new(42);
        let mut b = Prng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Prng::new(1);
        let mut b = Prng::new(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn below_is_in_range() {
        let mut r = Prng::new(7);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_covers_all_values() {
        let mut r = Prng::new(9);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[r.below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_unit_interval() {
        let mut r = Prng::new(3);
        for _ in 0..1000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Prng::new(5);
        let mut v: Vec<usize> = (0..20).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn mix_is_stateless_and_seed_sensitive() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(2, 2));
        assert_ne!(mix(1, 2), mix(1, 3));
    }
}

//! The fourth parallelism level: `simd`.
//!
//! The offloading model's innermost level is "multiple vector lanes"
//! (paper §III-A). On the host we cannot issue GPU vector instructions,
//! but we can give kernel bodies the same *shape*: fixed-width lane
//! blocks processed together, written so the compiler's auto-vectorizer
//! reliably turns them into SIMD (no bounds checks inside the block, no
//! cross-lane dependences).
//!
//! [`simd_for_each`] and friends split a range into width-`W` blocks plus
//! a scalar tail, mirroring `#pragma omp simd simdlen(W)`.

/// Apply `body` to each index of `range` in width-`W` blocks: `body`
/// receives the block's base index and the lane offset. Equivalent to a
/// plain loop, but the call structure gives the auto-vectorizer a
/// constant trip count per block.
#[inline]
pub fn simd_for_each<const W: usize>(range: std::ops::Range<usize>, mut body: impl FnMut(usize)) {
    let mut i = range.start;
    while i + W <= range.end {
        for lane in 0..W {
            body(i + lane);
        }
        i += W;
    }
    for j in i..range.end {
        body(j);
    }
}

/// Element-wise `out[i] = f(a[i])` over equal-length slices, in lane
/// blocks. Panics if the lengths differ.
#[inline]
pub fn simd_map<const W: usize>(a: &[f64], out: &mut [f64], f: impl Fn(f64) -> f64) {
    assert_eq!(a.len(), out.len(), "simd_map length mismatch");
    let n = a.len();
    let blocks = n / W;
    for b in 0..blocks {
        let base = b * W;
        // Constant-width block: bounds resolved once, vectorizable.
        let (aa, oo) = (&a[base..base + W], &mut out[base..base + W]);
        for lane in 0..W {
            oo[lane] = f(aa[lane]);
        }
    }
    for i in blocks * W..n {
        out[i] = f(a[i]);
    }
}

/// Element-wise `out[i] = f(a[i], b[i])`, in lane blocks.
#[inline]
pub fn simd_zip<const W: usize>(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    f: impl Fn(f64, f64) -> f64,
) {
    assert_eq!(a.len(), b.len(), "simd_zip length mismatch");
    assert_eq!(a.len(), out.len(), "simd_zip length mismatch");
    let n = a.len();
    let blocks = n / W;
    for blk in 0..blocks {
        let base = blk * W;
        let (aa, bb, oo) = (
            &a[base..base + W],
            &b[base..base + W],
            &mut out[base..base + W],
        );
        for lane in 0..W {
            oo[lane] = f(aa[lane], bb[lane]);
        }
    }
    for i in blocks * W..n {
        out[i] = f(a[i], b[i]);
    }
}

/// Lane-blocked sum with `W` independent accumulators (the standard
/// trick that breaks the serial dependence chain so the reduction
/// vectorizes). Deterministic for a fixed `W`.
#[inline]
pub fn simd_sum<const W: usize>(a: &[f64]) -> f64 {
    let n = a.len();
    let blocks = n / W;
    let mut acc = [0.0f64; W];
    for b in 0..blocks {
        let base = b * W;
        let aa = &a[base..base + W];
        for lane in 0..W {
            acc[lane] += aa[lane];
        }
    }
    let mut tail = 0.0;
    for &v in &a[blocks * W..] {
        tail += v;
    }
    acc.iter().sum::<f64>() + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_each_covers_exactly_once() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65] {
            let mut seen = vec![0u32; n];
            simd_for_each::<8>(0..n, |i| seen[i] += 1);
            assert!(seen.iter().all(|&c| c == 1), "n={n}: {seen:?}");
        }
        // Sub-range.
        let mut seen = [0u32; 30];
        simd_for_each::<4>(5..27, |i| seen[i] += 1);
        assert!(seen[5..27].iter().all(|&c| c == 1));
        assert!(seen[..5].iter().chain(&seen[27..]).all(|&c| c == 0));
    }

    #[test]
    fn map_matches_scalar() {
        let a: Vec<f64> = (0..103).map(|i| i as f64).collect();
        let mut out = vec![0.0; 103];
        simd_map::<8>(&a, &mut out, |x| 2.0 * x + 1.0);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, 2.0 * i as f64 + 1.0);
        }
    }

    #[test]
    fn zip_matches_scalar() {
        let a: Vec<f64> = (0..77).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..77).map(|i| (i * 3) as f64).collect();
        let mut out = vec![0.0; 77];
        simd_zip::<4>(&a, &b, &mut out, |x, y| x * y);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i * i * 3) as f64);
        }
    }

    #[test]
    fn sum_matches_sequential_for_integers() {
        // Integer-valued f64s sum exactly in any order.
        let a: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        assert_eq!(simd_sum::<8>(&a), 499_500.0);
        assert_eq!(simd_sum::<4>(&a[..7]), 21.0);
        assert_eq!(simd_sum::<8>(&[]), 0.0);
    }

    #[test]
    fn sum_is_deterministic_per_width() {
        let a: Vec<f64> = (0..997).map(|i| (i as f64).sin()).collect();
        assert_eq!(simd_sum::<8>(&a), simd_sum::<8>(&a));
        // Different widths may round differently, but stay close.
        let d = (simd_sum::<8>(&a) - simd_sum::<4>(&a)).abs();
        assert!(d < 1e-9);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn map_length_mismatch_panics() {
        let a = vec![0.0; 4];
        let mut out = vec![0.0; 5];
        simd_map::<4>(&a, &mut out, |x| x);
    }
}

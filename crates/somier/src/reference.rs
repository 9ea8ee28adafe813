//! The sequential CPU reference.
//!
//! Replicates the *buffered* processing order of the device
//! implementations (per time step, buffers of `buffer_planes` planes are
//! processed front to back, each running forces → accelerations →
//! velocities → positions → centers over its planes), using exactly the
//! shared physics routines. The One Buffer device runs must match this
//! bit for bit; the Two Buffers / Double Buffering variants match to a
//! tolerance (their concurrent halves read boundary halos at slightly
//! different times — a looseness the original application tolerates and
//! our race detector reports).

use crate::config::SomierConfig;
use crate::physics::{initial_positions, plane_forces, plane_positions, plane_sums};

/// Final state of a reference run.
pub struct RefState {
    /// Positions.
    pub x: [Vec<f64>; 3],
    /// Velocities.
    pub v: [Vec<f64>; 3],
    /// Center of mass of the final step (sum X / n³ per component).
    pub centers: [f64; 3],
}

/// Run the buffered reference: `timesteps` steps with buffers of
/// `buffer_planes` planes.
pub fn run_reference(cfg: &SomierConfig, buffer_planes: usize) -> RefState {
    let n = cfg.n;
    let n2 = n * n;
    let elems = n2 * n;
    let phys = cfg.physics;
    let inv_m = 1.0 / phys.mass;
    let dt = phys.dt;

    let mut x: [Vec<f64>; 3] = [0, 1, 2].map(|c| {
        let mut x = vec![0.0; elems];
        initial_positions(n, c, &mut x);
        x
    });
    let mut v: [Vec<f64>; 3] = [0, 1, 2].map(|_| vec![0.0; elems]);
    let mut a: [Vec<f64>; 3] = [0, 1, 2].map(|_| vec![0.0; elems]);
    let mut f: [Vec<f64>; 3] = [0, 1, 2].map(|_| vec![0.0; elems]);
    let mut centers = [0.0f64; 3];

    for _step in 0..cfg.timesteps {
        let mut sums = [0.0f64; 3];
        let mut b0 = 0usize;
        while b0 < n {
            let b1 = (b0 + buffer_planes).min(n);
            // forces over the buffer's planes (reads X with ±1 halo).
            for p in b0..b1 {
                let plane = p * n2..(p + 1) * n2;
                let out = f.each_mut().map(|f| &mut f[plane.clone()]);
                plane_forces(&phys, n, p, x.each_ref().map(Vec::as_slice), 0, out);
            }
            // accelerations.
            for c in 0..3 {
                for i in b0 * n2..b1 * n2 {
                    a[c][i] = f[c][i] * inv_m;
                }
            }
            // velocities.
            for c in 0..3 {
                for i in b0 * n2..b1 * n2 {
                    v[c][i] += a[c][i] * dt;
                }
            }
            // positions (interior only).
            for p in b0..b1 {
                let plane = p * n2..(p + 1) * n2;
                for c in 0..3 {
                    plane_positions(n, p, dt, &v[c][plane.clone()], &mut x[c][plane.clone()]);
                }
            }
            // centers partials.
            for p in b0..b1 {
                let partial = plane_sums(x.each_ref().map(|x| &x[p * n2..(p + 1) * n2]));
                for c in 0..3 {
                    sums[c] += partial[c];
                }
            }
            b0 = b1;
        }
        for c in 0..3 {
            centers[c] = sums[c] / elems as f64;
        }
    }
    RefState { x, v, centers }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_deterministic() {
        let cfg = SomierConfig::test_small(10, 3);
        let a = run_reference(&cfg, 4);
        let b = run_reference(&cfg, 4);
        assert_eq!(a.x[0], b.x[0]);
        assert_eq!(a.centers, b.centers);
    }

    /// With the whole grid in one buffer, the buffered reference equals
    /// the unbuffered one (single pass).
    #[test]
    fn one_big_buffer_is_canonical() {
        let cfg = SomierConfig::test_small(10, 2);
        let whole = run_reference(&cfg, 10);
        let again = run_reference(&cfg, 100);
        assert_eq!(whole.x[2], again.x[2]);
    }

    /// Buffered runs differ from the single-buffer run only through the
    /// stale right-halo effect — bounded and small over a few steps.
    #[test]
    fn buffering_staleness_is_small() {
        let cfg = SomierConfig::test_small(12, 3);
        let whole = run_reference(&cfg, 12);
        let buffered = run_reference(&cfg, 4);
        let max_diff = whole.x[2]
            .iter()
            .zip(&buffered.x[2])
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_diff > 0.0, "buffering must change something");
        assert!(max_diff < 1e-6, "…but only slightly: {max_diff}");
    }

    /// Physics sanity: the perturbed grid oscillates — positions move,
    /// centers stay near the lattice center (symmetry is only
    /// approximate, so just bound the drift).
    #[test]
    fn grid_moves_but_does_not_explode() {
        let cfg = SomierConfig::test_small(10, 20);
        let s = run_reference(&cfg, 10);
        let n = 10usize;
        let lattice_center = (n as f64 - 1.0) / 2.0;
        for c in 0..3 {
            assert!(
                (s.centers[c] - lattice_center).abs() < 0.1,
                "center[{c}] = {} vs {lattice_center}",
                s.centers[c]
            );
        }
        // Velocities are non-zero (it's oscillating)…
        assert!(s.v[2].iter().any(|&v| v.abs() > 1e-9));
        // …and bounded (no instability at dt = 1e-3, k = 10).
        assert!(s.v[2].iter().all(|&v| v.abs() < 1.0));
    }
}

//! Physics diagnostics: kinetic and elastic energy of the spring grid.
//!
//! Used by the test-suite as a physical sanity check on the dynamics:
//! with no damping, the total energy of the symplectically-naive Euler
//! integrator drifts slowly, and the drift per step is bounded — a far
//! stronger witness than "the numbers didn't blow up".

use crate::config::Physics;
use crate::physics::idx;

/// Kinetic energy `Σ ½ m |v|²` over the whole grid.
pub fn kinetic_energy(phys: &Physics, v: &[Vec<f64>; 3]) -> f64 {
    let mut e = 0.0;
    for c in 0..3 {
        for &vi in &v[c] {
            e += vi * vi;
        }
    }
    0.5 * phys.mass * e
}

/// Elastic (spring) energy `Σ ½ k (|d| − L0)²` over every lattice edge.
/// Each of the three axis-neighbour families is visited once.
pub fn elastic_energy(phys: &Physics, n: usize, x: &[Vec<f64>; 3]) -> f64 {
    let mut e = 0.0;
    let mut edge = |a: usize, b: usize| {
        let d0 = x[0][b] - x[0][a];
        let d1 = x[1][b] - x[1][a];
        let d2 = x[2][b] - x[2][a];
        let dist = (d0 * d0 + d1 * d1 + d2 * d2).sqrt();
        let stretch = dist - phys.rest_len;
        e += 0.5 * phys.k * stretch * stretch;
    };
    for xx in 0..n {
        for y in 0..n {
            for z in 0..n {
                let i = idx(n, xx, y, z);
                if xx + 1 < n {
                    edge(i, idx(n, xx + 1, y, z));
                }
                if y + 1 < n {
                    edge(i, idx(n, xx, y + 1, z));
                }
                if z + 1 < n {
                    edge(i, idx(n, xx, y, z + 1));
                }
            }
        }
    }
    e
}

/// Total mechanical energy.
pub fn total_energy(phys: &Physics, n: usize, x: &[Vec<f64>; 3], v: &[Vec<f64>; 3]) -> f64 {
    kinetic_energy(phys, v) + elastic_energy(phys, n, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SomierConfig;
    use crate::physics::initial_positions;
    use crate::reference::run_reference;

    fn initial_state(n: usize) -> ([Vec<f64>; 3], [Vec<f64>; 3]) {
        let x = [0, 1, 2].map(|c| {
            let mut x = vec![0.0; n * n * n];
            initial_positions(n, c, &mut x);
            x
        });
        let v = [0, 1, 2].map(|_| vec![0.0; n * n * n]);
        (x, v)
    }

    #[test]
    fn unperturbed_lattice_has_zero_energy() {
        let n = 6;
        let phys = Physics::default();
        let x = [0, 1, 2].map(|c| {
            (0..n * n * n)
                .map(|i| {
                    let z = i % n;
                    let y = (i / n) % n;
                    let xx = i / (n * n);
                    [xx, y, z][c] as f64
                })
                .collect::<Vec<f64>>()
        });
        let v = [0, 1, 2].map(|_| vec![0.0; n * n * n]);
        assert!(elastic_energy(&phys, n, &x) < 1e-18);
        assert_eq!(kinetic_energy(&phys, &v), 0.0);
    }

    #[test]
    fn perturbed_lattice_stores_elastic_energy() {
        let n = 8;
        let phys = Physics::default();
        let (x, v) = initial_state(n);
        let e = total_energy(&phys, n, &x, &v);
        assert!(e > 0.0, "the perturbation must store energy: {e}");
    }

    #[test]
    fn energy_drift_per_step_is_small() {
        // Forward Euler gains a little energy per step; over a short run
        // the relative drift must stay well-bounded at dt = 1e-3, k = 10.
        let n = 10;
        let cfg = SomierConfig::test_small(n, 50);
        let phys = cfg.physics;
        let (x0, v0) = initial_state(n);
        let e0 = total_energy(&phys, n, &x0, &v0);
        let s = run_reference(&cfg, n);
        let e1 = total_energy(&phys, n, &s.x, &s.v);
        let drift = (e1 - e0).abs() / e0;
        assert!(drift < 0.01, "relative energy drift {drift} over 50 steps");
    }

    #[test]
    fn energy_flows_from_elastic_to_kinetic() {
        // The initial state is all elastic; after some steps the grid is
        // moving: kinetic energy must have appeared.
        let n = 10;
        let cfg = SomierConfig::test_small(n, 30);
        let s = run_reference(&cfg, n);
        let ke = kinetic_energy(&cfg.physics, &s.v);
        assert!(ke > 0.0, "oscillation converts elastic → kinetic energy");
    }
}

//! The Somier state arrays.

use spread_rt::{HostArray, Runtime};

use crate::config::SomierConfig;
use crate::physics::initial_positions;

/// Axis labels for the three components of each variable.
pub const COMPONENTS: [&str; 3] = ["x", "y", "z"];

/// A family of three component arrays of [`SomierArrays`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Grid {
    /// Positions.
    X,
    /// Velocities.
    V,
    /// Accelerations.
    A,
    /// Forces.
    F,
    /// Per-plane partial sums of the positions.
    Partials,
}

/// The 12 state grids (4 variables × 3 components) plus the per-plane
/// partial-sum arrays used by the manual centers reduction.
#[derive(Clone, Copy)]
pub struct SomierArrays {
    /// Positions.
    pub x: [HostArray; 3],
    /// Velocities.
    pub v: [HostArray; 3],
    /// Accelerations.
    pub a: [HostArray; 3],
    /// Forces.
    pub f: [HostArray; 3],
    /// Per-plane partial sums of the positions (manual reduction).
    pub partials: [HostArray; 3],
}

impl SomierArrays {
    /// Register and initialize all arrays on `rt` for configuration
    /// `cfg`: positions on a perturbed lattice, everything else zero.
    pub fn create(rt: &mut Runtime, cfg: &SomierConfig) -> Self {
        let n = cfg.n;
        let elems = n * n * n;
        let mk3 = |rt: &mut Runtime, name: &str, len: usize| -> [HostArray; 3] {
            [0, 1, 2].map(|c| rt.host_array(format!("{name}{}", COMPONENTS[c]), len))
        };
        let arrays = SomierArrays {
            x: mk3(rt, "X", elems),
            v: mk3(rt, "V", elems),
            a: mk3(rt, "A", elems),
            f: mk3(rt, "F", elems),
            partials: mk3(rt, "P", n),
        };
        for c in 0..3 {
            rt.with_host_mut(arrays.x[c], |x| initial_positions(n, c, x));
        }
        arrays
    }

    /// The three component arrays of `grid`.
    pub fn grid(&self, grid: Grid) -> [HostArray; 3] {
        match grid {
            Grid::X => self.x,
            Grid::V => self.v,
            Grid::A => self.a,
            Grid::F => self.f,
            Grid::Partials => self.partials,
        }
    }

    /// The 12 state grids in canonical order (X, V, A, F × x,y,z).
    pub fn grids(&self) -> [HostArray; 12] {
        [
            self.x[0], self.x[1], self.x[2], self.v[0], self.v[1], self.v[2], self.a[0], self.a[1],
            self.a[2], self.f[0], self.f[1], self.f[2],
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_registers_all_arrays() {
        let cfg = SomierConfig::test_small(8, 1);
        let mut rt = cfg.runtime(1);
        let arr = SomierArrays::create(&mut rt, &cfg);
        assert_eq!(arr.grids().len(), 12);
        for g in arr.grids() {
            assert_eq!(g.len(), 8 * 8 * 8);
        }
        for p in arr.partials {
            assert_eq!(p.len(), 8);
        }
        // Positions initialized (non-zero), velocities zero.
        let xs = rt.snapshot_host(arr.x[0]);
        assert!(xs.iter().any(|&v| v != 0.0));
        let vs = rt.snapshot_host(arr.v[0]);
        assert!(vs.iter().all(|&v| v == 0.0));
    }
}

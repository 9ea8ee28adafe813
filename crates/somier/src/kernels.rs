//! The five Somier device kernels and **the time step as data**.
//!
//! A kernel *iteration* is one plane (`n²` nodes) of the outermost
//! dimension — the same granularity the directives chunk and map, so an
//! [`Extent`] is exactly the paper's `omp_spread_start`/`omp_spread_size`
//! arithmetic, scaled from plane index to element index by `n²`.
//!
//! [`STEP`] is the one place that says which grids each kernel touches
//! and at which extent. Everything else derives from it: the
//! [`KernelArg`] layout ([`StepKernel::spec`] — args 0–2 are the three
//! components of `reads`, args 3–5 those of `writes`), and in
//! [`one_buffer`](crate::one_buffer) the `map` clauses of Listing 9,
//! Listing 10 and the construct-scoped program plus Listing 10's
//! `depend` chains.
//!
//! Kernel bodies bind one checked row per plane and component
//! ([`ChunkViews::row`](spread_rt::kernel::ChunkViews::row) /
//! [`row_mut`](spread_rt::kernel::ChunkViews::row_mut): mapped section
//! and chunk write section) and index the slices, instead of a checked
//! `get`/`set` per element. The arithmetic and its order are the CPU
//! reference's, so results stay bit-exact. A chunk's planes are handed
//! to the team threads with a guided schedule: one plane's result never
//! depends on another's, so the split is invisible in every value.

use std::ops::Range;

use spread_rt::kernel::{KernelArg, KernelSpec, LoopSchedule};

use crate::arrays::{Grid, SomierArrays};
use crate::config::SomierConfig;
use crate::physics::{idx, plane_sum, spring_force};

/// Which elements of a grid a range of planes touches.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Extent {
    /// The planes' elements plus a ±1-plane halo clamped to the grid.
    Halo,
    /// The planes' elements.
    Body,
    /// One element per plane (the centers partials).
    Planes,
}

impl Extent {
    /// Plane range → element range on a grid of side `n`.
    pub fn elems(self, n: usize, planes: Range<usize>) -> Range<usize> {
        let n2 = n * n;
        match self {
            Extent::Halo => planes.start.saturating_sub(1) * n2..(planes.end + 1).min(n) * n2,
            Extent::Body => planes.start * n2..planes.end * n2,
            Extent::Planes => planes,
        }
    }
}

/// One row of the time step: a kernel and its read/write signature.
pub struct StepKernel {
    /// Stable construct name — the `spread_schedule(auto)` profile key
    /// and the clause-closure argument of
    /// [`run_spread_scoped`](crate::one_buffer::run_spread_scoped).
    pub name: &'static str,
    /// Body and modeled cost; [`StepKernel::spec`] adds the arguments.
    body: fn(&SomierConfig) -> KernelSpec,
    /// The grid the kernel reads, and how far around its planes.
    pub reads: (Grid, Extent),
    /// The grid the kernel writes.
    pub writes: (Grid, Extent),
    /// Whether the written grid is also read (`V += …`, `X += …`).
    pub inout: bool,
}

/// One Somier time step, in order.
pub const STEP: [StepKernel; 5] = [
    StepKernel {
        name: "somier-forces",
        body: forces,
        reads: (Grid::X, Extent::Halo),
        writes: (Grid::F, Extent::Body),
        inout: false,
    },
    StepKernel {
        name: "somier-accelerations",
        body: accelerations,
        reads: (Grid::F, Extent::Body),
        writes: (Grid::A, Extent::Body),
        inout: false,
    },
    StepKernel {
        name: "somier-velocities",
        body: velocities,
        reads: (Grid::A, Extent::Body),
        writes: (Grid::V, Extent::Body),
        inout: true,
    },
    StepKernel {
        name: "somier-positions",
        body: positions,
        reads: (Grid::V, Extent::Body),
        writes: (Grid::X, Extent::Body),
        inout: true,
    },
    StepKernel {
        name: "somier-centers",
        body: centers,
        reads: (Grid::X, Extent::Body),
        writes: (Grid::Partials, Extent::Planes),
        inout: false,
    },
];

impl StepKernel {
    /// The launchable kernel: the body with its six arguments attached
    /// in table order, work-shared over its planes with a guided
    /// schedule.
    pub fn spec(&self, cfg: &SomierConfig, arr: &SomierArrays) -> KernelSpec {
        let n = cfg.n;
        // Guided lets whichever team thread is running take the planes
        // of one that is late or descheduled; static halves would make
        // the chunk wait for the slower thread.
        let mut spec = (self.body)(cfg).with_schedule(LoopSchedule::Guided { min_chunk: 1 });
        let (grid, extent) = self.reads;
        for h in arr.grid(grid) {
            spec = spec.arg(KernelArg::read(h, move |r| extent.elems(n, r)));
        }
        let (grid, extent) = self.writes;
        for h in arr.grid(grid) {
            let section = move |r: Range<usize>| extent.elems(n, r);
            spec = spec.arg(if self.inout {
                KernelArg::read_write(h, section)
            } else {
                KernelArg::write(h, section)
            });
        }
        spec
    }
}

/// The forces kernel: the 6-neighbour spring stencil.
fn forces(cfg: &SomierConfig) -> KernelSpec {
    let n = cfg.n;
    let n2 = cfg.plane_elems();
    let phys = cfg.physics;
    KernelSpec::new(
        "forces",
        cfg.plane_cost(cfg.costs.forces),
        move |planes, v| {
            for p in planes {
                let halo = Extent::Halo.elems(n, p..p + 1);
                let base = halo.start;
                let x = [0, 1, 2].map(|c| v.row(c, halo.clone()));
                let f = [0, 1, 2].map(|c| v.row_mut(3 + c, p * n2..(p + 1) * n2));
                for y in 0..n {
                    for z in 0..n {
                        let i = idx(n, 0, y, z); // within plane p
                        let force = spring_force(&phys, n, p, y, z, |c, j| x[c][j - base]);
                        for c in 0..3 {
                            f[c][i] = force.map_or(0.0, |force| force[c]);
                        }
                    }
                }
            }
        },
    )
}

/// The accelerations kernel: `A = F / m`.
fn accelerations(cfg: &SomierConfig) -> KernelSpec {
    let n2 = cfg.plane_elems();
    let inv_m = 1.0 / cfg.physics.mass;
    KernelSpec::new(
        "accelerations",
        cfg.plane_cost(cfg.costs.accel),
        move |planes, v| {
            for c in 0..3 {
                let range = planes.start * n2..planes.end * n2;
                let f = v.row(c, range.clone());
                let a = v.row_mut(3 + c, range);
                for (ai, &fi) in a.iter_mut().zip(f) {
                    *ai = fi * inv_m;
                }
            }
        },
    )
}

/// The velocities kernel: `V += A · dt`.
fn velocities(cfg: &SomierConfig) -> KernelSpec {
    let n2 = cfg.plane_elems();
    let dt = cfg.physics.dt;
    KernelSpec::new(
        "velocities",
        cfg.plane_cost(cfg.costs.velocity),
        move |planes, v| {
            for c in 0..3 {
                let range = planes.start * n2..planes.end * n2;
                let a = v.row(c, range.clone());
                let vel = v.row_mut(3 + c, range);
                for (vi, &ai) in vel.iter_mut().zip(a) {
                    *vi += ai * dt;
                }
            }
        },
    )
}

/// The positions kernel: `X += V · dt`, interior nodes only (the grid
/// boundary is clamped).
fn positions(cfg: &SomierConfig) -> KernelSpec {
    let n = cfg.n;
    let n2 = cfg.plane_elems();
    let dt = cfg.physics.dt;
    KernelSpec::new(
        "positions",
        cfg.plane_cost(cfg.costs.position),
        move |planes, v| {
            for p in planes {
                if p == 0 || p == n - 1 {
                    continue; // whole plane is fixed boundary
                }
                let plane = p * n2..(p + 1) * n2;
                let vel = [0, 1, 2].map(|c| v.row(c, plane.clone()));
                let x = [0, 1, 2].map(|c| v.row_mut(3 + c, plane.clone()));
                for y in 1..n - 1 {
                    for z in 1..n - 1 {
                        let i = idx(n, 0, y, z); // within plane p
                        for c in 0..3 {
                            x[c][i] += vel[c][i] * dt;
                        }
                    }
                }
            }
        },
    )
}

/// The centers kernel: per-plane position sums into the partials arrays
/// — the paper's *manual* reduction (§V: "we implemented a manual
/// reduction for this kernel").
fn centers(cfg: &SomierConfig) -> KernelSpec {
    let n = cfg.n;
    let n2 = cfg.plane_elems();
    KernelSpec::new(
        "centers",
        cfg.plane_cost(cfg.costs.centers),
        move |planes, v| {
            for p in planes {
                for c in 0..3 {
                    let x = v.row(c, p * n2..(p + 1) * n2);
                    let s = plane_sum(n, p, |i| x[i - p * n2]);
                    v.set(3 + c, p, s);
                }
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_exprs() {
        assert_eq!(Extent::Body.elems(10, 2..5), 200..500);
        assert_eq!(Extent::Halo.elems(10, 2..5), 100..600);
        assert_eq!(Extent::Halo.elems(10, 0..3), 0..400, "left clamp");
        assert_eq!(Extent::Halo.elems(10, 7..10), 600..1000, "right clamp");
        assert_eq!(Extent::Planes.elems(10, 2..5), 2..5);
    }

    #[test]
    fn kernels_have_six_args() {
        let cfg = SomierConfig::test_small(8, 1);
        let mut rt = cfg.runtime(1);
        let arr = SomierArrays::create(&mut rt, &cfg);
        for row in &STEP {
            let k = row.spec(&cfg, &arr);
            assert_eq!(k.args.len(), 6, "{}", k.name);
            assert!(k.work_per_iter_ns > 0.0);
        }
    }
}

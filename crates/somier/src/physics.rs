//! The spring-grid physics, written once and shared by the device
//! kernels and the CPU reference (so comparisons are bit-exact).
//!
//! The grid is `n³` nodes on a unit lattice; each interior node is
//! connected to its 6 axis neighbours by springs of stiffness `k` and
//! rest length `rest_len`. Boundary nodes are fixed. The element index
//! of node `(x, y, z)` is `(x·n + y)·n + z`; `x` is the *outermost*
//! dimension, so a "plane" `x = p` is the contiguous element range
//! `[p·n², (p+1)·n²)` — the unit of buffering, chunking and halos.
//!
//! Every routine works on whole rows or planes of slices, so the hot
//! loops carry no bounds check or per-node branch and the compiler can
//! vectorise them; each node's arithmetic and its order are fixed by
//! these functions alone.

use crate::config::Physics;

/// Flattened index of node `(x, y, z)`.
#[inline]
pub fn idx(n: usize, x: usize, y: usize, z: usize) -> usize {
    (x * n + y) * n + z
}

/// The deterministic initial positions of component `c` over an `n³`
/// grid, written into `out` (`n³` elements): each node's lattice
/// coordinate plus a smooth interior perturbation that makes the spring
/// forces non-trivial (the lattice alone is an equilibrium).
///
/// Interior node `(x, y, z)` gets `coord + 0.05 · (sin(a·u) · cos(b·w))`,
/// where `u` and `w` are two of its axis values, fixed per component;
/// boundary nodes keep their lattice coordinate. Each factor depends on
/// one axis value, so the `n` sines and `n` cosines are computed once
/// into tables and the grid is walked by rows; each node's operations and
/// their order are those of the per-node form the tests keep as oracle.
pub fn initial_positions(n: usize, c: usize, out: &mut [f64]) {
    assert_eq!(out.len(), n * n * n, "initial_positions fills an n³ grid");
    if n == 0 {
        return;
    }
    // Per component: the axis of the coordinate is `c`; the sine reads
    // axis `u` scaled by `a`, the cosine axis `w` scaled by `b`.
    let (u, a, w, b) = [(0, 0.7, 1, 0.9), (1, 0.8, 2, 1.1), (2, 0.6, 0, 1.3)][c];
    let sin: Vec<f64> = (0..n).map(|t| (a * t as f64).sin()).collect();
    let cos: Vec<f64> = (0..n).map(|t| (b * t as f64).cos()).collect();
    for (x, plane) in out.chunks_exact_mut(n * n).enumerate() {
        for (y, row) in plane.chunks_exact_mut(n).enumerate() {
            let at = |axis: usize, z: usize| [x, y, z][axis];
            let coord = |z: usize| at(c, z) as f64;
            if x == 0 || x == n - 1 || y == 0 || y == n - 1 {
                for (z, v) in row.iter_mut().enumerate() {
                    *v = coord(z);
                }
                continue;
            }
            row[0] = coord(0);
            row[n - 1] = coord(n - 1);
            for (z, v) in row.iter_mut().enumerate().take(n - 1).skip(1) {
                *v = coord(z) + 0.05 * (sin[at(u, z)] * cos[at(w, z)]);
            }
        }
    }
}

/// One spring's pull on a node at `p` from a neighbour at `q`, added
/// into `f`: `k · (dist − L0)` along the unit vector. `dist` is never 0
/// for distinct lattice nodes with the bounded perturbation.
#[inline(always)]
fn pull(phys: &Physics, p: [f64; 3], q: [f64; 3], f: &mut [f64; 3]) {
    let d = [q[0] - p[0], q[1] - p[1], q[2] - p[2]];
    let dist = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
    let scale = phys.k * (dist - phys.rest_len) / dist;
    f[0] += scale * d[0];
    f[1] += scale * d[1];
    f[2] += scale * d[2];
}

/// The spring forces on one row `(x, y, 0..n)` of an interior `(x, y)`.
///
/// `row` is the row's three position components and `around` the same
/// for its −x, +x, −y and +y neighbour rows, all of one length `n`; the
/// ±z neighbours are the row's own elements. `fx`, `fy` and `fz`
/// receive the row's force components: the 6-neighbour sum for interior
/// nodes, 0 for the two fixed end nodes.
///
/// The neighbour visit order (−x, +x, −y, +y, −z, +z) and each spring's
/// operations are part of the contract: the device kernels and the CPU
/// reference both call this, so their results are bit-exact. The loop
/// has no bounds check (every slice is cut to one length first) and no
/// per-node branch, so the compiler vectorises it across `z`; Rust never
/// contracts to FMA, so the bits do not depend on the target. The
/// outputs are separate arguments of a function kept out of line so the
/// compiler knows no store aliases a load; it would not know that of
/// references in an array.
#[inline(never)]
pub fn spring_force_row(
    phys: &Physics,
    row: [&[f64]; 3],
    around: [[&[f64]; 3]; 4],
    fx: &mut [f64],
    fy: &mut [f64],
    fz: &mut [f64],
) {
    let n = row[0].len();
    assert!(
        n >= 2
            && row
                .iter()
                .chain(around.iter().flatten())
                .all(|r| r.len() == n)
            && [&*fx, &*fy, &*fz].iter().all(|f| f.len() == n),
        "spring_force_row takes rows of one length"
    );
    for f in [&mut *fx, &mut *fy, &mut *fz] {
        f[0] = 0.0;
        f[n - 1] = 0.0;
    }
    let len = n - 2;
    let (fx, fy, fz) = (&mut fx[1..=len], &mut fy[1..=len], &mut fz[1..=len]);
    let me = cut(row, 1, len);
    let neighbours = [
        cut(around[0], 1, len),
        cut(around[1], 1, len),
        cut(around[2], 1, len),
        cut(around[3], 1, len),
        cut(row, 0, len),
        cut(row, 2, len),
    ];
    for z in 0..len {
        let at = |[x, y, w]: [&[f64]; 3]| [x[z], y[z], w[z]];
        let p = at(me);
        let mut f = [0.0f64; 3];
        for &q in &neighbours {
            pull(phys, p, at(q), &mut f);
        }
        fx[z] = f[0];
        fy[z] = f[1];
        fz[z] = f[2];
    }
}

/// `len` elements of each of three component slices, from `from` on.
#[inline(always)]
fn cut(r: [&[f64]; 3], from: usize, len: usize) -> [&[f64]; 3] {
    let [x, y, z] = r;
    [
        &x[from..from + len],
        &y[from..from + len],
        &z[from..from + len],
    ]
}

/// The spring forces on plane `p` (boundary nodes are fixed: force 0).
///
/// `x[c][j - base]` is position component `c` of element `j`; the slices
/// cover planes `p − 1 ..= p + 1` clamped to the grid. `force` is the
/// plane's `n²` elements per component.
pub fn plane_forces(
    phys: &Physics,
    n: usize,
    p: usize,
    x: [&[f64]; 3],
    base: usize,
    mut force: [&mut [f64]; 3],
) {
    let row = |px: usize, y: usize| {
        let at = idx(n, px, y, 0) - base;
        x.map(|c| &c[at..at + n])
    };
    for y in 0..n {
        let [fx, fy, fz] = force.each_mut().map(|f| &mut f[y * n..(y + 1) * n]);
        if p == 0 || p == n - 1 || y == 0 || y == n - 1 {
            for f in [fx, fy, fz] {
                f.fill(0.0);
            }
        } else {
            let around = [row(p - 1, y), row(p + 1, y), row(p, y - 1), row(p, y + 1)];
            spring_force_row(phys, row(p, y), around, fx, fy, fz);
        }
    }
}

/// `X += V · dt` over one component of plane `p` (`vel` and `x` are the
/// plane's `n²` elements), interior nodes only: the grid boundary is
/// fixed.
pub fn plane_positions(n: usize, p: usize, dt: f64, vel: &[f64], x: &mut [f64]) {
    if p == 0 || p == n - 1 {
        return;
    }
    for y in 1..n - 1 {
        let r = y * n + 1..(y + 1) * n - 1;
        for (xi, &vi) in x[r.clone()].iter_mut().zip(&vel[r]) {
            *xi += vi * dt;
        }
    }
}

/// Center-of-plane partials: the sum of each position component over
/// one plane's elements. Three independent chains in one pass, each
/// summing front to back.
pub fn plane_sums(plane: [&[f64]; 3]) -> [f64; 3] {
    let [a, b, c] = plane;
    assert!(
        b.len() == a.len() && c.len() == a.len(),
        "planes of one length"
    );
    let mut s = [0.0f64; 3];
    for ((&a, &b), &c) in a.iter().zip(b).zip(c) {
        s[0] += a;
        s[1] += b;
        s[2] += c;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-node form the row form replaced, kept as its oracle: the
    /// force on node `(x, y, z)` through a position accessor
    /// `pos(component, element_index)`, `None` for a boundary node.
    fn spring_force(
        phys: &Physics,
        n: usize,
        x: usize,
        y: usize,
        z: usize,
        pos: impl Fn(usize, usize) -> f64,
    ) -> Option<[f64; 3]> {
        if x == 0 || x == n - 1 || y == 0 || y == n - 1 || z == 0 || z == n - 1 {
            return None;
        }
        let me = idx(n, x, y, z);
        let p0 = [pos(0, me), pos(1, me), pos(2, me)];
        let mut f = [0.0f64; 3];
        let neighbours = [
            idx(n, x - 1, y, z),
            idx(n, x + 1, y, z),
            idx(n, x, y - 1, z),
            idx(n, x, y + 1, z),
            idx(n, x, y, z - 1),
            idx(n, x, y, z + 1),
        ];
        for nb in neighbours {
            let d = [pos(0, nb) - p0[0], pos(1, nb) - p0[1], pos(2, nb) - p0[2]];
            let dist = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            let scale = phys.k * (dist - phys.rest_len) / dist;
            f[0] += scale * d[0];
            f[1] += scale * d[1];
            f[2] += scale * d[2];
        }
        Some(f)
    }

    /// The per-node form of [`initial_positions`], kept as its oracle:
    /// the initial position of node `i`'s component `c`.
    fn initial_position(n: usize, c: usize, i: usize) -> f64 {
        let z = i % n;
        let y = (i / n) % n;
        let x = i / (n * n);
        let coord = [x, y, z][c] as f64;
        let boundary = x == 0 || x == n - 1 || y == 0 || y == n - 1 || z == 0 || z == n - 1;
        if boundary {
            return coord;
        }
        let (xf, yf, zf) = (x as f64, y as f64, z as f64);
        let wobble = match c {
            0 => (0.7 * xf).sin() * (0.9 * yf).cos(),
            1 => (0.8 * yf).sin() * (1.1 * zf).cos(),
            _ => (0.6 * zf).sin() * (1.3 * xf).cos(),
        };
        coord + 0.05 * wobble
    }

    /// The three position components of an `n³` grid.
    fn grid(n: usize, pos: impl Fn(usize, usize) -> f64) -> [Vec<f64>; 3] {
        [0, 1, 2].map(|c| (0..n * n * n).map(|i| pos(c, i)).collect())
    }

    /// The unperturbed lattice coordinate `c` of element `i`.
    fn lattice(n: usize, c: usize, i: usize) -> f64 {
        [i / (n * n), (i / n) % n, i % n][c] as f64
    }

    /// Every plane's forces through the row form.
    fn forces(phys: &Physics, n: usize, x: &[Vec<f64>; 3]) -> [Vec<f64>; 3] {
        let mut f = [0, 1, 2].map(|_| vec![f64::NAN; n * n * n]);
        for p in 0..n {
            let plane = p * n * n..(p + 1) * n * n;
            let out = f.each_mut().map(|f| &mut f[plane.clone()]);
            plane_forces(phys, n, p, x.each_ref().map(Vec::as_slice), 0, out);
        }
        f
    }

    #[test]
    fn index_layout_planes_are_contiguous() {
        let n = 10;
        assert_eq!(idx(n, 0, 0, 0), 0);
        assert_eq!(idx(n, 0, 0, 9), 9);
        assert_eq!(idx(n, 0, 1, 0), 10);
        assert_eq!(idx(n, 1, 0, 0), 100);
        // Plane p occupies [p·n², (p+1)·n²).
        for y in 0..n {
            for z in 0..n {
                let i = idx(n, 3, y, z);
                assert!((300..400).contains(&i));
            }
        }
    }

    /// The row form equals the per-node form bit for bit on every node,
    /// boundary rows included: on the initial grid, whose interior
    /// z-neighbours share their x-component (an exact `0.0` displacement,
    /// so signed zeros meet the sums), and on the same grid a few
    /// steps on.
    #[test]
    fn the_row_form_is_the_per_node_form_bit_for_bit() {
        let n = 9;
        let phys = Physics::default();
        let start = grid(n, |c, i| initial_position(n, c, i));
        let (a, b) = (idx(n, 3, 4, 4), idx(n, 3, 4, 5));
        assert_eq!(start[0][a], start[0][b], "an exact zero displacement");
        let cfg = crate::config::SomierConfig::test_small(n, 3);
        let moved = crate::reference::run_reference(&cfg, 4).x;
        for x in [start, moved] {
            let rows = forces(&phys, n, &x);
            for p in 0..n {
                for y in 0..n {
                    for z in 0..n {
                        let i = idx(n, p, y, z);
                        let want =
                            spring_force(&phys, n, p, y, z, |c, j| x[c][j]).unwrap_or([0.0; 3]);
                        let got = [0, 1, 2].map(|c| rows[c][i]);
                        assert_eq!(
                            got.map(f64::to_bits),
                            want.map(f64::to_bits),
                            "node ({p}, {y}, {z}): {got:?} vs {want:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unperturbed_lattice_is_equilibrium() {
        // Every neighbour sits exactly at rest length: no force anywhere.
        let n = 5;
        let f = forces(&Physics::default(), n, &grid(n, |c, i| lattice(n, c, i)));
        assert!(f.iter().flatten().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn boundary_nodes_have_no_force() {
        let n = 5;
        let f = forces(
            &Physics::default(),
            n,
            &grid(n, |c, i| initial_position(n, c, i)),
        );
        for (x, y, z) in [
            (0, 2, 2),
            (4, 2, 2),
            (2, 0, 2),
            (2, 4, 2),
            (2, 2, 0),
            (2, 2, 4),
        ] {
            let i = idx(n, x, y, z);
            assert!(f.iter().all(|f| f[i].to_bits() == 0), "({x}, {y}, {z})");
        }
    }

    #[test]
    fn perturbed_lattice_has_forces() {
        let n = 8;
        let f = forces(
            &Physics::default(),
            n,
            &grid(n, |c, i| initial_position(n, c, i)),
        );
        assert!(
            f.iter().flatten().any(|v| v.abs() > 1e-9),
            "perturbation must produce non-zero forces"
        );
    }

    #[test]
    fn stretched_spring_pulls_back() {
        // Displace one node +0.5 in z from an unperturbed lattice: the
        // net force must point back in −z.
        let n = 5;
        let moved = idx(n, 2, 2, 2);
        let x = grid(n, |c, i| {
            lattice(n, c, i) + if i == moved && c == 2 { 0.5 } else { 0.0 }
        });
        let f = forces(&Physics::default(), n, &x);
        assert!(f[2][moved] < -1.0, "restoring force, got {}", f[2][moved]);
        assert!(f[0][moved].abs() < 1e-9);
        assert!(f[1][moved].abs() < 1e-9);
    }

    #[test]
    fn positions_move_interior_nodes_only() {
        let n = 5;
        let vel = vec![2.0; n * n];
        for p in 0..n {
            let mut x = vec![1.0; n * n];
            plane_positions(n, p, 0.25, &vel, &mut x);
            for y in 0..n {
                for z in 0..n {
                    let interior = ![p, y, z].iter().any(|&v| v == 0 || v == n - 1);
                    let want = if interior { 1.5 } else { 1.0 };
                    assert_eq!(x[y * n + z], want, "({p}, {y}, {z})");
                }
            }
        }
    }

    /// One pass over three components sums each exactly as three
    /// sequential front-to-back sums do.
    #[test]
    fn plane_sums_are_three_sequential_sums_bit_for_bit() {
        let n = 7;
        let x =
            crate::reference::run_reference(&crate::config::SomierConfig::test_small(n, 2), 3).x;
        for p in 0..n {
            let plane = x.each_ref().map(|c| &c[p * n * n..(p + 1) * n * n]);
            let want = plane.map(|c| c.iter().fold(0.0f64, |s, &v| s + v));
            assert_eq!(
                plane_sums(plane).map(f64::to_bits),
                want.map(f64::to_bits),
                "plane {p}"
            );
        }
        let data: Vec<f64> = (0..16).map(|i| i as f64).collect();
        assert_eq!(plane_sums([&data, &data[..], &data]), [120.0; 3]);
    }

    /// The row form writes every node of every component with the
    /// per-node form's bits, boundary planes, rows and row ends included.
    #[test]
    fn initial_positions_are_the_per_node_form_bit_for_bit() {
        for n in [1, 2, 3, 4, 9, 17] {
            for c in 0..3 {
                let mut got = vec![f64::NAN; n * n * n];
                initial_positions(n, c, &mut got);
                for (i, v) in got.iter().enumerate() {
                    let want = initial_position(n, c, i);
                    assert_eq!(
                        v.to_bits(),
                        want.to_bits(),
                        "n = {n}, component {c}, node {i}: {v} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "n³ grid")]
    fn initial_positions_refuse_a_wrong_length() {
        initial_positions(4, 1, &mut [0.0; 63]);
    }

    #[test]
    fn initial_positions_deterministic_and_bounded() {
        let n = 6;
        for c in 0..3 {
            let [mut a, mut b] = [0, 1].map(|_| vec![0.0; n * n * n]);
            initial_positions(n, c, &mut a);
            initial_positions(n, c, &mut b);
            assert_eq!(a, b);
            for (i, &v) in a.iter().enumerate() {
                assert!((v - lattice(n, c, i)).abs() <= 0.05 + 1e-12);
            }
        }
    }
}

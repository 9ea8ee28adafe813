//! Greedy counterexample shrinking.
//!
//! Given a failing [`Program`] and a predicate that re-checks a
//! candidate, repeatedly apply the first simplification that still
//! fails, until none applies (or a fixed budget of predicate calls is
//! spent). All candidate orders are deterministic, so shrinking the same
//! failure always yields the same minimal program.

use crate::ast::{KernelOp, Program, Sched, Stmt};

/// Candidate simplifications of `p`, most aggressive first.
fn candidates(p: &Program) -> Vec<Program> {
    let mut out = Vec::new();
    // 0. Drop the fault plan, or just its transient bursts.
    if p.fault.is_some() {
        let mut q = p.clone();
        q.fault = None;
        out.push(q);
    }
    if p.fault.as_ref().is_some_and(|f| !f.transients.is_empty()) {
        let mut q = p.clone();
        q.fault.as_mut().expect("checked above").transients.clear();
        out.push(q);
    }
    // 0b. Drop the pressure scenario, or just its sustained windows.
    if p.pressure.is_some() {
        let mut q = p.clone();
        q.pressure = None;
        out.push(q);
    }
    if p.pressure
        .as_ref()
        .is_some_and(|ps| !ps.sustained.is_empty())
    {
        let mut q = p.clone();
        q.pressure
            .as_mut()
            .expect("checked above")
            .sustained
            .clear();
        out.push(q);
    }
    // 0c. Drop the straggler scenario, or shrink it to one policy step
    // weaker (replicate keeps the original running — closer to wait).
    if p.straggler.is_some() {
        let mut q = p.clone();
        q.straggler = None;
        out.push(q);
    }
    if p.straggler
        .as_ref()
        .is_some_and(|ss| ss.policy == spread_core::StragglerPolicy::Steal)
    {
        let mut q = p.clone();
        q.straggler.as_mut().expect("checked above").policy =
            spread_core::StragglerPolicy::Replicate;
        out.push(q);
    }
    // 0d. Drop the integrity scenario, or drop one flip burst, or
    // reduce a burst to a single token.
    if p.integrity.is_some() {
        let mut q = p.clone();
        q.integrity = None;
        out.push(q);
    }
    if let Some(is) = &p.integrity {
        for i in 0..is.flips.len() {
            if is.flips.len() > 1 {
                let mut q = p.clone();
                q.integrity.as_mut().expect("checked above").flips.remove(i);
                out.push(q);
            }
            if is.flips[i].1 > 1 {
                let mut q = p.clone();
                q.integrity.as_mut().expect("checked above").flips[i].1 = 1;
                out.push(q);
            }
        }
    }
    // 0e. Drop the overlap scenario, or shrink its depth to 2.
    if p.overlap.is_some() {
        let mut q = p.clone();
        q.overlap = None;
        out.push(q);
    }
    if p.overlap.as_ref().is_some_and(|os| os.depth > 2) {
        let mut q = p.clone();
        q.overlap.as_mut().expect("checked above").depth = 2;
        out.push(q);
    }
    // 1. Drop a whole phase.
    for i in 0..p.phases.len() {
        if p.phases.len() > 1 {
            let mut q = p.clone();
            q.phases.remove(i);
            out.push(q);
        }
    }
    // 2. Drop a single statement.
    for i in 0..p.phases.len() {
        for j in 0..p.phases[i].len() {
            if p.phases.iter().map(Vec::len).sum::<usize>() > 1 {
                let mut q = p.clone();
                q.phases[i].remove(j);
                q.phases.retain(|ph| !ph.is_empty());
                out.push(q);
            }
        }
    }
    // 3. Halve the array length (raw sections clamped back in bounds).
    if p.n > 10 {
        let mut q = p.clone();
        q.n = (p.n / 2).max(10);
        for stmt in q.phases.iter_mut().flatten() {
            clamp_stmt(stmt, q.n);
        }
        out.push(q);
    }
    // 4. Per-statement simplifications.
    for i in 0..p.phases.len() {
        for j in 0..p.phases[i].len() {
            for s in simplify_stmt(&p.phases[i][j], p.n) {
                let mut q = p.clone();
                q.phases[i][j] = s;
                out.push(q);
            }
        }
    }
    // 5. Drop the machine down to the devices actually named — by a
    // statement or by a scenario spec, whose devices the lowered fault
    // plan is validated against.
    let used = p
        .phases
        .iter()
        .flatten()
        .flat_map(stmt_devices)
        .chain(p.scenario_devices())
        .max()
        .map(|d| d as usize + 1)
        .unwrap_or(1);
    if used < p.n_devices {
        let mut q = p.clone();
        q.n_devices = used;
        out.push(q);
    }
    // 6. Drop trailing unused arrays.
    let touched: std::collections::BTreeSet<usize> =
        p.phases.iter().flatten().flat_map(|s| s.arrays()).collect();
    let needed = touched.iter().max().map(|&a| a + 1).unwrap_or(1);
    if needed < p.n_arrays {
        let mut q = p.clone();
        q.n_arrays = needed;
        out.push(q);
    }
    out
}

fn stmt_devices(s: &Stmt) -> Vec<u32> {
    match s {
        Stmt::Spread { devices, .. }
        | Stmt::Reduce { devices, .. }
        | Stmt::DataRegion { devices, .. }
        | Stmt::Halo { devices, .. } => devices.clone(),
        Stmt::RawEnter { device, .. }
        | Stmt::RawExit { device, .. }
        | Stmt::RawUpdate { device, .. } => vec![*device],
        Stmt::Bad { .. } => vec![0],
    }
}

fn clamp_stmt(s: &mut Stmt, n: usize) {
    if let Stmt::RawEnter { start, len, .. }
    | Stmt::RawExit { start, len, .. }
    | Stmt::RawUpdate { start, len, .. } = s
    {
        *start = (*start).min(n - 2);
        *len = (*len).min(n - *start).max(1);
    }
    // Stencil single-device chunks must still cover the loop.
    if let Stmt::Spread {
        devices,
        sched: Sched::Static { chunk },
        op: KernelOp::Stencil3 { .. },
        ..
    } = s
    {
        if devices.len() == 1 {
            *chunk = n;
        }
    }
}

/// Simpler variants of one statement (legality-preserving for the
/// stencil gap rule).
fn simplify_stmt(s: &Stmt, n: usize) -> Vec<Stmt> {
    let mut out = Vec::new();
    match s {
        Stmt::Spread {
            devices,
            sched,
            nowait,
            op,
        } => {
            if *nowait {
                out.push(Stmt::Spread {
                    devices: devices.clone(),
                    sched: sched.clone(),
                    nowait: false,
                    op: *op,
                });
            }
            if !matches!(sched, Sched::Static { .. }) {
                // Replace exotic schedules with a plain static one.
                let chunk = match sched {
                    Sched::Weighted { round, .. } => *round,
                    Sched::Dynamic { chunk } => *chunk,
                    Sched::Static { chunk } => *chunk,
                    // Auto resolves to one round over the whole loop.
                    Sched::Auto { .. } => n,
                };
                out.push(Stmt::Spread {
                    devices: devices.clone(),
                    sched: Sched::Static { chunk },
                    nowait: *nowait,
                    op: *op,
                });
            }
            if devices.len() > 1 {
                let sched = match (op, sched) {
                    // One device: a stencil needs one whole-loop chunk.
                    (KernelOp::Stencil3 { .. }, _) => Sched::Static { chunk: n },
                    // One weight per device in the list.
                    (_, Sched::Weighted { round, weights }) => Sched::Weighted {
                        round: *round,
                        weights: weights[..1].to_vec(),
                    },
                    _ => sched.clone(),
                };
                out.push(Stmt::Spread {
                    devices: vec![devices[0]],
                    sched,
                    nowait: *nowait,
                    op: *op,
                });
            }
        }
        Stmt::Reduce {
            devices,
            sched,
            a,
            partials,
            alpha,
            op,
        } if devices.len() > 1 || !matches!(sched, Sched::Static { .. }) => {
            out.push(Stmt::Reduce {
                devices: vec![devices[0]],
                sched: Sched::Static { chunk: n },
                a: *a,
                partials: *partials,
                alpha: *alpha,
                op: *op,
            });
        }
        // A Halo's device list never shrinks: `chunk = ⌈n/k⌉` is what
        // keeps halo'd chunks off the same device, and dropping devices
        // without recomputing it would manufacture an overlap error
        // unrelated to the original failure. Only the bump simplifies.
        Stmt::Halo {
            devices,
            chunk,
            a,
            dst,
            bump: Some(_),
        } => {
            out.push(Stmt::Halo {
                devices: devices.clone(),
                chunk: *chunk,
                a: *a,
                dst: *dst,
                bump: None,
            });
        }
        Stmt::DataRegion {
            devices,
            chunk,
            a,
            body_add,
            update_from,
            exit_from,
        } => {
            for (b, u) in [(None, false), (*body_add, false), (None, *update_from)] {
                if b != *body_add || u != *update_from {
                    out.push(Stmt::DataRegion {
                        devices: devices.clone(),
                        chunk: *chunk,
                        a: *a,
                        body_add: b,
                        update_from: u,
                        exit_from: *exit_from,
                    });
                }
            }
            if devices.len() > 1 {
                out.push(Stmt::DataRegion {
                    devices: vec![devices[0]],
                    chunk: *chunk,
                    a: *a,
                    body_add: *body_add,
                    update_from: *update_from,
                    exit_from: *exit_from,
                });
            }
        }
        _ => {}
    }
    out
}

/// Shrink `p` while `fails` keeps returning `true`. `p` itself must
/// fail. Deterministic for a deterministic predicate.
pub fn shrink(p: &Program, fails: &mut dyn FnMut(&Program) -> bool) -> Program {
    let mut cur = p.clone();
    let mut budget = 600usize;
    loop {
        let mut improved = false;
        for cand in candidates(&cur) {
            if budget == 0 {
                return cur;
            }
            budget -= 1;
            if fails(&cand) {
                cur = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            return cur;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::gen_program;
    use crate::Mode;

    /// The size metric the invariant tests bound: total statements plus
    /// the three structural dimensions. Every candidate in
    /// [`candidates`] leaves each term equal or smaller, so shrinking
    /// must never grow it.
    fn size(p: &Program) -> usize {
        p.phases.iter().map(Vec::len).sum::<usize>() + p.n + p.n_devices + p.n_arrays
    }

    fn program_with_stencil() -> Program {
        Program {
            phases: vec![
                vec![Stmt::Spread {
                    devices: vec![0, 1, 2],
                    sched: Sched::Dynamic { chunk: 5 },
                    nowait: true,
                    op: KernelOp::AddConst { a: 2, c: 1.0 },
                }],
                vec![Stmt::Spread {
                    devices: vec![2, 0],
                    sched: Sched::Static { chunk: 4 },
                    nowait: false,
                    op: KernelOp::Stencil3 { src: 0, dst: 1 },
                }],
            ],
            ..Program::new(3, 40, 4)
        }
    }

    /// What the executor and the oracle assume of any program they are
    /// handed: every named device on the machine, every array in range,
    /// every schedule one `distribute` accepts for its device list,
    /// every raw section inside its array.
    fn ill_formed(p: &Program) -> Option<String> {
        if let Some(d) = p.scenario_devices().find(|&d| d as usize >= p.n_devices) {
            return Some(format!("a scenario names device {d}"));
        }
        for s in p.phases.iter().flatten() {
            let devices = stmt_devices(s);
            let ok = devices.iter().all(|&d| (d as usize) < p.n_devices)
                && s.arrays().iter().all(|&a| a < p.n_arrays)
                && match s {
                    Stmt::Spread { sched, .. } | Stmt::Reduce { sched, .. } => match sched {
                        Sched::Static { chunk } | Sched::Dynamic { chunk } => *chunk >= 1,
                        Sched::Weighted { round, weights } => {
                            *round >= 1
                                && weights.len() == devices.len()
                                && weights.iter().all(|&w| w >= 1)
                        }
                        Sched::Auto { .. } => true,
                    },
                    Stmt::DataRegion { chunk, .. } | Stmt::Halo { chunk, .. } => *chunk >= 1,
                    Stmt::RawEnter { start, len, .. }
                    | Stmt::RawExit { start, len, .. }
                    | Stmt::RawUpdate { start, len, .. } => *len >= 1 && start + len <= p.n,
                    Stmt::Bad { .. } => true,
                };
            if !ok {
                return Some(format!("{s:?}"));
            }
        }
        None
    }

    #[test]
    fn every_candidate_is_well_formed() {
        // Along seeded random walks through the candidate lists of
        // generated programs of every mode — walks that, like a canary
        // failure, never let go of a scenario device. A candidate the
        // executor would reject (or die on) manufactures a failure
        // unrelated to the one being minimised.
        for (mode, ..) in Mode::ALL {
            for seed in 0..40u64 {
                let p = gen_program(seed, mode);
                assert_eq!(ill_formed(&p), None, "{mode:?} seed {seed}: as generated");
                let armed = p.scenario_devices().count();
                let mut walk = spread_prng::Prng::new(seed);
                let mut fails = |q: &Program| {
                    if let Some(what) = ill_formed(q) {
                        panic!("{mode:?} seed {seed}: ill-formed candidate: {what}\n{q:?}");
                    }
                    q.scenario_devices().count() == armed && walk.chance(0.5)
                };
                shrink(&p, &mut fails);
            }
        }
    }

    #[test]
    fn shrinks_to_the_failing_statement() {
        let p = program_with_stencil();
        // Predicate: "fails whenever a stencil statement is present".
        let mut fails = |q: &Program| {
            q.phases.iter().flatten().any(|s| {
                matches!(
                    s,
                    Stmt::Spread {
                        op: KernelOp::Stencil3 { .. },
                        ..
                    }
                )
            })
        };
        let m = shrink(&p, &mut fails);
        assert_eq!(m.phases.len(), 1);
        assert_eq!(m.phases[0].len(), 1);
        assert!(m.n <= 10 + 10); // length halved down toward the floor
                                 // Deterministic: same input, same minimum.
        let m2 = shrink(&p, &mut fails);
        assert_eq!(format!("{m:?}"), format!("{m2:?}"));
    }

    #[test]
    fn shrinking_preserves_the_failure() {
        // Over generated programs of every flavour and a predicate that
        // the original satisfies, the minimum must still satisfy it —
        // `shrink` only ever commits candidates the predicate accepts.
        for seed in 0..12u64 {
            let p = gen_program(seed, Mode::ALL[seed as usize % Mode::ALL.len()].0);
            let mut fails = |q: &Program| !q.phases.is_empty();
            assert!(fails(&p));
            let m = shrink(&p, &mut fails);
            assert!(fails(&m), "seed {seed}: shrinking lost the failure");
        }
    }

    #[test]
    fn shrinking_is_idempotent() {
        // A minimum is a fixed point: re-shrinking it changes nothing.
        for seed in 0..12u64 {
            let p = gen_program(seed, [Mode::Plain, Mode::Faults][seed as usize % 2]);
            // "Fails whenever array A0 is touched" — true of every
            // generated program's first statement or vacuously skipped.
            let mut fails =
                |q: &Program| q.phases.iter().flatten().any(|s| s.arrays().contains(&0));
            if !fails(&p) {
                continue;
            }
            let once = shrink(&p, &mut fails);
            let twice = shrink(&once, &mut fails);
            assert_eq!(
                format!("{once:?}"),
                format!("{twice:?}"),
                "seed {seed}: shrinking a minimum changed it"
            );
        }
    }

    #[test]
    fn shrinking_never_grows_the_program() {
        // Every candidate the shrinker ever proposes — not just the one
        // it commits — is bounded by the original program's size, and
        // so is the final minimum.
        for seed in 0..12u64 {
            let p = gen_program(seed, Mode::ALL[seed as usize % Mode::ALL.len()].0);
            let bound = size(&p);
            let mut worst = 0usize;
            let mut fails = |q: &Program| {
                worst = worst.max(size(q));
                !q.phases.is_empty()
            };
            let m = shrink(&p, &mut fails);
            assert!(
                worst <= bound,
                "seed {seed}: a candidate grew to {worst} from {bound}"
            );
            assert!(size(&m) <= bound, "seed {seed}: the minimum grew");
        }
    }
}

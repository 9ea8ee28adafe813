//! The seeded program generator.
//!
//! `gen_program(seed, mode)` derives a [`Program`] from a single `u64`
//! — the same seed always yields the same program under a given
//! [`Mode`], forever, so every fuzzer failure is reproducible from its
//! printed seed alone (`cargo run -p spread-check --bin replay -- <seed>
//! [--<mode>]`). `mod tests` pins the seed → program map by digest.
//!
//! Every mode shares one skeleton — machine header (devices, array
//! length, array count) → the mode's scenario spec → phases of
//! statements over pairwise disjoint arrays → (plain only) the raw
//! phase — and, peer's halo programs aside, one statement template
//! (`gen_stmt`). What genuinely differs between modes is a short
//! `match` next to the comment that explains it.
//!
//! **The draw-order rule.** A program is a function of the PRNG
//! *stream*, so each value is drawn at a fixed point of its statement:
//! the device list, then whatever schedule the mode fixes up front,
//! then the kernel roll, then the operands — with the schedule and
//! `nowait` of a mode that fixes neither drawn where the statement's
//! fields are built. A mode states only *what* it draws; reordering two
//! draws moves every later program of the corpus.
//!
//! Invariants the generator maintains (and `mod tests` checks):
//!
//! * statements inside one phase touch pairwise disjoint arrays, so
//!   `nowait` statements commute and the program is race-free;
//! * `Stencil3` uses only static schedules satisfying the §V-B gap rule
//!   `(n_dev − 1) · chunk ≥ 2` (one device ⇒ one chunk);
//! * raw (possibly illegal / unbalanced) statements appear only in the
//!   final phase, each on a single device with a single chunk, so the
//!   first error is the same under every legal interleaving;
//! * every clause-family program is blocking, statically distributed
//!   and carries exactly its own scenario spec.

use spread_core::reduction::ReduceOp;
use spread_core::{IntegrityMode, PressurePolicy, StragglerPolicy};
use spread_prng::Prng;

use crate::ast::{
    BadKind, FaultMode, FaultSpec, IntegritySpec, KernelOp, OverlapSpec, PressureSpec, Program,
    Sched, Stmt, StragglerSpec,
};
use crate::Mode;

const CONSTS: [f64; 6] = [-2.0, -1.0, 0.5, 1.0, 2.0, 3.0];

/// `k ≥ min` of the machine's devices, in a seeded distribution order.
fn gen_devices(r: &mut Prng, n_devices: usize, min: usize) -> Vec<u32> {
    let k = r.range(min, n_devices + 1);
    let mut all = all_devices(r, n_devices);
    all.truncate(k);
    all
}

/// Every device of the machine, shuffled.
fn all_devices(r: &mut Prng, n_devices: usize) -> Vec<u32> {
    let mut all: Vec<u32> = (0..n_devices as u32).collect();
    r.shuffle(&mut all);
    all
}

fn gen_weighted(r: &mut Prng, k: usize, round: usize) -> Sched {
    Sched::Weighted {
        round,
        weights: (0..k).map(|_| r.range(1, 5) as u32).collect(),
    }
}

/// `no_dynamic` is set for faulted programs: `dynamic` is illegal under
/// `spread_resilience(redistribute)`, and under fail-stop its chunk
/// placement depends on the interleaving, so "does the lost device get
/// work" would not be a function of the program alone. (Pressure
/// programs set it too: admission plans a static distribution.)
fn gen_sched(r: &mut Prng, n: usize, k: usize, no_dynamic: bool) -> Sched {
    match r.below(if no_dynamic { 2 } else { 3 }) {
        0 => Sched::Static {
            chunk: r.range(1, n + 1),
        },
        1 => {
            let round = r.range(k.max(2), n + 1);
            gen_weighted(r, k, round)
        }
        _ => Sched::Dynamic {
            chunk: r.range(1, n / 2 + 2),
        },
    }
}

/// Widen a stencil chunk until the §V-B gap rule holds for `k` devices.
fn stencil_chunk(r: &mut Prng, n: usize, k: usize) -> usize {
    let chunk = r.range(1, n / 2 + 2);
    match k {
        1 => n, // single chunk covers the whole loop
        2 => chunk.max(2),
        _ => chunk,
    }
}

/// One statement of every mode but peer: the elementwise / saxpy /
/// stencil kernels all modes share, then — in the plain and faulted
/// alphabets only — reductions and data regions.
///
/// The clause families restrict generation to what their clause admits
/// and the oracle predicts in closed form. `spread_pressure`,
/// `spread_straggler(steal|replicate)`, `spread_integrity(heal)`,
/// `spread_overlap(depth)` and `spread_schedule(auto)` all require a
/// blocking construct with a static distribution, so their statements
/// are spread kernels only, never `nowait`, never dynamic.
fn gen_stmt(
    r: &mut Prng,
    avail: &mut Vec<usize>,
    n: usize,
    n_devices: usize,
    mode: Mode,
    n_keys: usize,
) -> Stmt {
    let devices = match mode {
        // All devices, shuffled: the slowed or flip-armed device must be
        // on every statement's list to actually get work.
        Mode::Stragglers | Mode::Integrity => all_devices(r, n_devices),
        _ => gen_devices(r, n_devices, 1),
    };
    let k = devices.len();
    // The schedule a clause family fixes before the kernel roll.
    // Pressure instead keeps the plain generator's rule (minus
    // dynamic), drawn with the statement's fields.
    let fixed = match mode {
        Mode::Plain | Mode::Faults | Mode::Pressure => None,
        // Keys come from a small per-program pool so launches share
        // learned weight vectors and the profile store's damped update
        // actually engages.
        Mode::Auto => Some(Sched::Auto {
            key: r.below(n_keys as u64) as u32,
        }),
        _ => Some(if r.chance(0.6) {
            Sched::Static {
                chunk: match mode {
                    // Chunks lean large (≥ 2 iterations) so most pieces
                    // really pipeline; pieces a weighted round splits
                    // down to a single iteration fall back to the
                    // classic path, and the validator's closed-form
                    // record count accounts for them.
                    Mode::Overlap => r.range(2, n / 2 + 2),
                    // At most half the loop, so every statement splits
                    // into at least two pieces — a single-piece
                    // construct has no healthy sibling to rescue onto
                    // and silently degrades to `wait`.
                    _ => r.range(1, n / 2 + 1),
                },
            }
        } else {
            let round = r.range(k.max(2), n / 2 + 2);
            gen_weighted(r, k, round)
        }),
    };
    let free = matches!(mode, Mode::Plain | Mode::Faults);
    let sched = |r: &mut Prng| {
        fixed
            .clone()
            .unwrap_or_else(|| gen_sched(r, n, k, mode != Mode::Plain))
    };
    let nowait = |r: &mut Prng| free && r.chance(0.5);
    // Kernel bands over `roll`: elementwise below `elem`, saxpy below
    // `saxpy`, the third kernel below `third`; past it the plain
    // alphabet continues. With a single array left everything up to
    // `third` is elementwise.
    let (elem, saxpy, third) = match mode {
        Mode::Plain | Mode::Faults => (35, 50, 65),
        Mode::Auto => (50, 75, 100),
        _ => (45, 75, 100),
    };
    let roll = r.below(100);
    let two = avail.len() >= 2;
    if roll < elem || (roll < third && !two) {
        // In-place elementwise op: any schedule, any chunking.
        let a = avail.pop().expect("caller checks avail");
        let c = *r.pick(&CONSTS);
        let op = if r.chance(0.5) {
            KernelOp::AddConst { a, c }
        } else {
            KernelOp::Scale { a, c }
        };
        Stmt::Spread {
            sched: sched(r),
            nowait: nowait(r),
            devices,
            op,
        }
    } else if roll < saxpy {
        let x = avail.pop().unwrap();
        let y = avail.pop().unwrap();
        Stmt::Spread {
            sched: sched(r),
            nowait: nowait(r),
            devices,
            op: KernelOp::Saxpy {
                x,
                y,
                alpha: *r.pick(&CONSTS),
            },
        }
    } else if roll < third && mode != Mode::Auto {
        let src = avail.pop().unwrap();
        let dst = avail.pop().unwrap();
        let chunk = stencil_chunk(r, n, k);
        Stmt::Spread {
            sched: Sched::Static {
                chunk: match mode {
                    Mode::Plain | Mode::Faults | Mode::Pressure => chunk,
                    _ => chunk.max(2),
                },
            },
            nowait: nowait(r),
            devices,
            op: KernelOp::Stencil3 { src, dst },
        }
    } else if mode == Mode::Auto || (roll < 80 && two) {
        // Auto's third kernel is the reduction: a `Stencil3`'s halos
        // encode the §V-B gap rule against the *actual* chunking, which
        // the equal-weight oracle stand-in cannot know — only
        // placement-independent kernels are predictable there.
        let a = avail.pop().unwrap();
        let partials = avail.pop().unwrap();
        Stmt::Reduce {
            sched: sched(r),
            devices,
            a,
            partials,
            alpha: *r.pick(&CONSTS),
            op: *r.pick(&[ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min]),
        }
    } else {
        let a = avail.pop().unwrap();
        Stmt::DataRegion {
            chunk: r.range(1, n + 1),
            a,
            body_add: if r.chance(0.7) {
                Some(*r.pick(&CONSTS))
            } else {
                None
            },
            update_from: r.chance(0.3),
            exit_from: r.chance(0.6),
            devices,
        }
    }
}

/// One statement of a peer program: a halo-exchange region, or simple
/// blocking elementwise padding. The program's first statement is
/// always a halo region, so every peer program actually exercises the
/// `exchange(…)` route; its `bump` (and every later one) stays seeded,
/// so the corpus covers both the must-peer and the must-host band.
fn gen_peer_stmt(
    r: &mut Prng,
    avail: &mut Vec<usize>,
    n: usize,
    n_devices: usize,
    first: bool,
) -> Stmt {
    if first || (avail.len() >= 2 && r.chance(0.7)) {
        // At least two devices, sized so every device gets at most one
        // chunk (same-device halo'd chunks would overlap-extend) and
        // every chunk spans at least two elements (so each interior
        // halo element is held by exactly one sibling and the must-peer
        // prediction is unique).
        let devices = gen_devices(r, n_devices, 2);
        return Stmt::Halo {
            chunk: n.div_ceil(devices.len()),
            a: avail.pop().expect("caller checks avail"),
            dst: avail.pop().expect("caller checks avail"),
            bump: if r.chance(0.4) {
                Some(*r.pick(&CONSTS))
            } else {
                None
            },
            devices,
        };
    }
    let a = avail.pop().expect("caller checks avail");
    let c = *r.pick(&CONSTS);
    let op = if r.chance(0.5) {
        KernelOp::AddConst { a, c }
    } else {
        KernelOp::Scale { a, c }
    };
    Stmt::Spread {
        devices: gen_devices(r, n_devices, 1),
        sched: Sched::Static {
            chunk: r.range(1, n + 1),
        },
        nowait: false,
        op,
    }
}

fn gen_raw_phase(r: &mut Prng, n_arrays: usize, n: usize, n_devices: usize) -> Vec<Stmt> {
    let count = r.range(2, 5);
    (0..count)
        .map(|_| {
            let a = r.below(n_arrays as u64) as usize;
            let device = r.below(n_devices as u64) as u32;
            let start = r.range(0, n - 1);
            let len = r.range(1, n - start + 1);
            let roll = r.below(100);
            if roll < 40 {
                Stmt::RawEnter {
                    device,
                    a,
                    start,
                    len,
                }
            } else if roll < 65 {
                Stmt::RawExit {
                    device,
                    a,
                    start,
                    len,
                    delete: r.chance(0.2),
                }
            } else if roll < 85 {
                Stmt::RawUpdate {
                    device,
                    a,
                    start,
                    len,
                    from: r.chance(0.5),
                }
            } else {
                Stmt::Bad {
                    a,
                    kind: *r.pick(&[
                        BadKind::DynamicDataSchedule,
                        BadKind::MissingChunkSize,
                        BadKind::EmptyDevices,
                    ]),
                }
            }
        })
        .collect()
}

/// The fault plan of a faulted program: usually a device lost at time
/// zero (fail-stop or resilient, evenly), sometimes only transient
/// copy bursts sized under the default retry budget.
fn gen_fault(r: &mut Prng, n_devices: usize) -> FaultSpec {
    let mode = if r.chance(0.5) {
        FaultMode::Resilient
    } else {
        FaultMode::FailStop
    };
    let lost = if r.chance(0.85) {
        Some(r.below(n_devices as u64) as u32)
    } else {
        None
    };
    let mut transients = Vec::new();
    if r.chance(0.4) {
        transients.push((r.below(n_devices as u64) as u32, r.range(1, 4) as u32));
    }
    FaultSpec {
        lost,
        mode,
        transients,
    }
}

/// Derive the program `seed` names under `mode`.
pub fn gen_program(seed: u64, mode: Mode) -> Program {
    let mut r = Prng::new(seed);
    // A loss needs a potential survivor, adaptation something to shift,
    // a halo a sibling to pull from, a rescue a healthy sibling to land
    // on, and a second flip burst a second device. Pressure and overlap
    // act on each device's own pieces — a single-device machine is as
    // interesting there as a full one.
    let min_devices = match mode {
        Mode::Plain | Mode::Pressure | Mode::Overlap => 1,
        _ => 2,
    };
    let n_devices = r.range(min_devices, 5);
    let n = r.range(10, 49);
    let n_arrays = match mode {
        // Halo regions consume two arrays (exchange + stencil output).
        Mode::Peer => r.range(3, 6),
        _ => r.range(2, 5),
    };
    let mut p = Program::new(n_devices, n, n_arrays);
    let mut n_keys = 0;
    match mode {
        // No scenario: the somier suite covers loss × peer, and the
        // differential executor runs one program under both routes.
        Mode::Plain | Mode::Peer => {}
        Mode::Faults => p.fault = Some(gen_fault(&mut r, n_devices)),
        Mode::Pressure => {
            let policy = if r.chance(0.5) {
                PressurePolicy::Split
            } else {
                PressurePolicy::Spill
            };
            // The largest chunk footprint is a whole-loop Saxpy / halo'd
            // stencil: ~2(n+2) elements. Caps range from starvation (4
            // elems) to comfortable, always in whole pool elements — so
            // every outcome band occurs: fits untouched, shrinks onto a
            // neighbour, splits recursively, spills or fails `Degraded`.
            let cap_bytes = r.range(4, 2 * (n + 2) + 1) as u64 * 8;
            let mut sustained = Vec::new();
            for d in 0..n_devices as u32 {
                if r.chance(0.4) {
                    sustained.push((d, r.range(1, (cap_bytes / 8) as usize + 1) as u64 * 8));
                }
            }
            p.pressure = Some(PressureSpec {
                policy,
                cap_bytes,
                sustained,
            });
        }
        Mode::Auto => n_keys = r.range(1, 4),
        Mode::Stragglers => {
            let policy = if r.chance(0.5) {
                StragglerPolicy::Steal
            } else {
                StragglerPolicy::Replicate
            };
            // One device slowed by a factor large enough that its pieces
            // always blow the default 4× progress deadline once the
            // executor makes kernels dominate the construct (serial
            // lanes, heavy per-iteration cost).
            let slow = vec![(r.below(n_devices as u64) as u32, *r.pick(&[10u32, 12, 16]))];
            p.straggler = Some(StragglerSpec { policy, slow });
        }
        Mode::Integrity => {
            // One or two bursts of 1–3 tokens (well below the default
            // mismatch breaker of 8, so healing never tips a device into
            // quarantine), on distinct devices so the per-device ledger
            // in `validate_integrity` exercises more than one breaker
            // streak.
            let mut flip_devices = all_devices(&mut r, n_devices);
            flip_devices.truncate(r.range(1, 3));
            let flips = flip_devices
                .into_iter()
                .map(|d| (d, r.range(1, 4) as u32))
                .collect();
            p.integrity = Some(IntegritySpec {
                mode: IntegrityMode::Heal,
                flips,
            });
        }
        Mode::Overlap => {
            p.overlap = Some(OverlapSpec {
                depth: r.range(2, 5) as u32,
            })
        }
    }
    let n_phases = match mode {
        // Several phases so repeated keys see several launches.
        Mode::Auto => r.range(2, 6),
        _ => r.range(1, 4),
    };
    for pi in 0..n_phases {
        let mut avail: Vec<usize> = (0..n_arrays).collect();
        r.shuffle(&mut avail);
        let budget = match mode {
            Mode::Peer => r.range(1, 3),
            _ => r.range(1, 4),
        };
        let mut phase = Vec::new();
        for si in 0..budget {
            if avail.is_empty() {
                break;
            }
            phase.push(match mode {
                Mode::Peer => gen_peer_stmt(&mut r, &mut avail, n, n_devices, pi + si == 0),
                _ => gen_stmt(&mut r, &mut avail, n, n_devices, mode, n_keys),
            });
        }
        p.phases.push(phase);
    }
    if mode == Mode::Plain && r.chance(0.3) {
        p.phases.push(gen_raw_phase(&mut r, n_arrays, n, n_devices));
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn stencil_gap_ok(devices: &[u32], sched: &Sched, n: usize) -> bool {
        match sched {
            Sched::Static { chunk } => match devices.len() {
                1 => *chunk >= n.saturating_sub(2),
                k => (k - 1) * chunk >= 2,
            },
            _ => false,
        }
    }

    #[test]
    fn generated_programs_respect_the_invariants() {
        for seed in 0..300u64 {
            let p = gen_program(seed, Mode::Plain);
            assert!((1..=4).contains(&p.n_devices));
            assert!(p.n >= 10);
            let last = p.phases.len().saturating_sub(1);
            for (pi, phase) in p.phases.iter().enumerate() {
                let mut seen = BTreeSet::new();
                for stmt in phase {
                    // Raw statements only in the final phase.
                    if stmt.is_raw() {
                        assert_eq!(pi, last, "seed {seed}");
                    } else {
                        // Disjoint arrays within a phase.
                        for a in stmt.arrays() {
                            assert!(seen.insert(a), "seed {seed}: array {a} reused");
                            assert!(a < p.n_arrays);
                        }
                    }
                    if let Stmt::Spread {
                        devices,
                        sched,
                        op: KernelOp::Stencil3 { .. },
                        ..
                    } = stmt
                    {
                        assert!(stencil_gap_ok(devices, sched, p.n), "seed {seed}");
                    }
                }
            }
        }
    }

    #[test]
    fn same_seed_same_program() {
        for (mode, ..) in Mode::ALL {
            for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
                let a = format!("{:?}", gen_program(seed, mode));
                let b = format!("{:?}", gen_program(seed, mode));
                assert_eq!(a, b, "{mode:?}");
            }
        }
    }

    /// "One `u64` ⇒ one program, forever": FNV-1a-64 over the `Debug`
    /// rendering of 10 000 programs per mode (seeds `0..5000`, each
    /// followed by `mix(1, seed)` — the seeds `fuzz --seed 1` visits),
    /// in [`Mode::ALL`] order, as computed when the seven per-mode
    /// generators were folded into one. A digest that moves means every
    /// seed ever printed by `fuzz` now replays a different program.
    #[test]
    fn the_corpus_is_pinned() {
        const PINNED: [u64; 8] = [
            0xd99f7911f1dc93b1,
            0xcf11ad57a8c934b0,
            0xe9d34e130dcc50a9,
            0xe18e321bb8bf213d,
            0x3e2df658b559eeb6,
            0x820f3666c0e806e7,
            0xc7a67b6832ea5b69,
            0xfcf0e0fe1ce321ef,
        ];
        for ((mode, ..), pinned) in Mode::ALL.into_iter().zip(PINNED) {
            let mut h = 0xcbf29ce484222325u64;
            for seed in 0..5000u64 {
                for s in [seed, spread_prng::mix(1, seed)] {
                    for b in format!("{:?}", gen_program(s, mode)).bytes() {
                        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
                    }
                }
            }
            assert_eq!(
                h, pinned,
                "{mode:?}: the seed → program map moved (digest {h:016x})"
            );
        }
    }

    /// What every clause family's clause forces on generation: each
    /// statement blocking and statically distributed over a legal
    /// stencil chunking, exactly the family's own scenario attached, its
    /// armed devices on the machine — and, for the two families whose
    /// scenario is inert on a device that gets no work, on every
    /// statement's `devices(…)` list. (A large chunk may still leave a
    /// listed device idle; the validators count drains, not lists.)
    #[test]
    fn clause_family_programs_respect_their_clause() {
        use Mode::*;
        for mode in [Pressure, Auto, Stragglers, Integrity, Overlap] {
            for seed in 0..300u64 {
                let p = gen_program(seed, mode);
                let at = format!("{mode:?} seed {seed}");
                let specs = [
                    p.fault.is_some(),
                    p.pressure.is_some(),
                    p.straggler.is_some(),
                    p.integrity.is_some(),
                    p.overlap.is_some(),
                ];
                let own = [Faults, Pressure, Stragglers, Integrity, Overlap].map(|m| m == mode);
                assert_eq!(specs, own, "{at}: its own spec and no other");
                assert_eq!(p.uses_auto(), mode == Auto, "{at}");
                let armed: Vec<u32> = p.scenario_devices().collect();
                assert!(armed.iter().all(|&d| (d as usize) < p.n_devices), "{at}");
                if let Some(os) = &p.overlap {
                    assert!((2..=4).contains(&os.depth), "{at}: depth {}", os.depth);
                }
                for stmt in p.phases.iter().flatten() {
                    let (devices, sched) = match stmt {
                        Stmt::Spread {
                            devices,
                            sched,
                            nowait,
                            op,
                        } => {
                            assert!(!nowait, "{at}: the clause requires a blocking construct");
                            if matches!(op, KernelOp::Stencil3 { .. }) {
                                assert!(stencil_gap_ok(devices, sched, p.n), "{at}");
                            }
                            (devices, sched)
                        }
                        Stmt::Reduce { devices, sched, .. } if mode == Auto => (devices, sched),
                        other => panic!("{at}: unexpected {other:?}"),
                    };
                    assert!(
                        !matches!(sched, Sched::Dynamic { .. }),
                        "{at}: the clause requires a static distribution"
                    );
                    assert!(!devices.is_empty(), "{at}");
                    if matches!(mode, Stragglers | Integrity) {
                        assert_eq!(devices.len(), p.n_devices, "{at}: all devices");
                        for d in &armed {
                            assert!(devices.contains(d), "{at}: device {d} unlisted");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn faulted_programs_respect_the_fault_invariants() {
        let mut lost = 0;
        let mut resilient = 0;
        let mut transient = 0;
        for seed in 0..300u64 {
            let p = gen_program(seed, Mode::Faults);
            assert!(p.n_devices >= 2, "seed {seed}: a loss needs a survivor");
            let f = p.fault.as_ref().expect("faulted mode attaches a plan");
            if let Some(d) = f.lost {
                assert!((d as usize) < p.n_devices, "seed {seed}");
                lost += 1;
            }
            if f.mode == FaultMode::Resilient {
                resilient += 1;
            }
            for &(d, count) in &f.transients {
                assert!((d as usize) < p.n_devices, "seed {seed}");
                assert!((1..=3).contains(&count), "seed {seed}: retry budget");
                transient += 1;
            }
            for stmt in p.phases.iter().flatten() {
                assert!(!stmt.is_raw(), "seed {seed}: raw stmt in faulted program");
                if let Stmt::Spread { sched, .. } | Stmt::Reduce { sched, .. } = stmt {
                    assert!(
                        !matches!(sched, Sched::Dynamic { .. }),
                        "seed {seed}: dynamic schedule in faulted program"
                    );
                }
            }
        }
        assert!(lost > 100, "{lost}");
        assert!(resilient > 50, "{resilient}");
        assert!(transient > 30, "{transient}");
    }

    #[test]
    fn integrity_programs_respect_the_integrity_invariants() {
        let mut bursts = 0;
        let mut two_device = 0;
        for seed in 0..300u64 {
            let p = gen_program(seed, Mode::Integrity);
            let is = p
                .integrity
                .as_ref()
                .expect("integrity mode attaches a spec");
            assert_eq!(is.mode, IntegrityMode::Heal, "seed {seed}");
            assert!(!is.flips.is_empty(), "seed {seed}: at least one burst");
            let mut seen = BTreeSet::new();
            for &(d, count) in &is.flips {
                assert!((1..=3).contains(&count), "seed {seed}: {count} flips");
                assert!(seen.insert(d), "seed {seed}: distinct flip devices");
                bursts += 1;
            }
            if is.flips.len() > 1 {
                two_device += 1;
            }
        }
        assert!(bursts > 300, "{bursts}");
        assert!(two_device > 100, "{two_device}");
    }

    #[test]
    fn pressure_programs_respect_the_pressure_invariants() {
        let mut split = 0;
        let mut spill = 0;
        let mut windows = 0;
        for seed in 0..300u64 {
            let p = gen_program(seed, Mode::Pressure);
            let ps = p.pressure.as_ref().expect("pressure mode attaches a spec");
            assert_eq!(ps.cap_bytes % 8, 0, "seed {seed}: whole pool elements");
            assert!(ps.cap_bytes >= 32, "seed {seed}");
            match ps.policy {
                PressurePolicy::Split => split += 1,
                PressurePolicy::Spill => spill += 1,
                PressurePolicy::Fail => panic!("seed {seed}: Fail is not a pressure mode"),
            }
            for &(_, b) in &ps.sustained {
                assert!(b % 8 == 0 && b > 0 && b <= ps.cap_bytes, "seed {seed}");
                windows += 1;
            }
        }
        assert!(split > 100, "{split}");
        assert!(spill > 100, "{spill}");
        assert!(windows > 100, "{windows}");
    }

    #[test]
    fn auto_programs_respect_the_auto_invariants() {
        let mut auto_stmts = 0;
        let mut reduces = 0;
        let mut repeated_keys = 0;
        for seed in 0..300u64 {
            let p = gen_program(seed, Mode::Auto);
            assert!(p.n_devices >= 2, "seed {seed}: adaptation needs 2 devices");
            assert!(
                p.phases.len() >= 2,
                "seed {seed}: keys need repeat launches"
            );
            let mut keys = Vec::new();
            for stmt in p.phases.iter().flatten() {
                let (Stmt::Spread { sched, .. } | Stmt::Reduce { sched, .. }) = stmt else {
                    panic!("seed {seed}: auto programs are spread-only, got {stmt:?}");
                };
                let Sched::Auto { key } = sched else {
                    panic!("seed {seed}: non-auto schedule");
                };
                assert!(
                    !matches!(
                        stmt,
                        Stmt::Spread {
                            op: KernelOp::Stencil3 { .. },
                            ..
                        }
                    ),
                    "seed {seed}: stencils are placement-dependent"
                );
                keys.push(*key);
                auto_stmts += 1;
                reduces += matches!(stmt, Stmt::Reduce { .. }) as usize;
            }
            let distinct: BTreeSet<u32> = keys.iter().copied().collect();
            if distinct.len() < keys.len() {
                repeated_keys += 1;
            }
        }
        assert!(auto_stmts > 600, "{auto_stmts}");
        assert!(reduces > 50, "{reduces}");
        assert!(repeated_keys > 100, "{repeated_keys}");
    }

    #[test]
    fn peer_programs_respect_the_halo_invariants() {
        let mut peer_routed = 0;
        let mut host_routed = 0;
        for seed in 0..300u64 {
            let p = gen_program(seed, Mode::Peer);
            assert!(p.n_devices >= 2, "seed {seed}: peer needs a sibling");
            assert!(p.fault.is_none(), "seed {seed}: peer excludes fault plans");
            assert!(p.pressure.is_none(), "seed {seed}: peer excludes pressure");
            assert!(
                matches!(p.phases[0][0], Stmt::Halo { .. }),
                "seed {seed}: every peer program opens with a halo region"
            );
            for stmt in p.phases.iter().flatten() {
                match stmt {
                    Stmt::Halo {
                        devices,
                        chunk,
                        a,
                        dst,
                        bump,
                    } => {
                        assert!(devices.len() >= 2, "seed {seed}");
                        assert!(*chunk >= 2, "seed {seed}: sibling uniqueness");
                        // One chunk per device at most: halo'd chunks on
                        // one device would overlap-extend.
                        assert!(
                            p.n.div_ceil(*chunk) <= devices.len(),
                            "seed {seed}: {} chunks for {} devices",
                            p.n.div_ceil(*chunk),
                            devices.len()
                        );
                        assert_ne!(a, dst, "seed {seed}");
                        if bump.is_some() {
                            host_routed += 1;
                        } else {
                            peer_routed += 1;
                        }
                    }
                    Stmt::Spread {
                        sched,
                        nowait,
                        op,
                        devices,
                    } => {
                        assert!(!nowait, "seed {seed}: peer programs are blocking");
                        assert!(!devices.is_empty(), "seed {seed}");
                        assert!(
                            matches!(sched, Sched::Static { .. }),
                            "seed {seed}: static padding only"
                        );
                        assert!(
                            matches!(op, KernelOp::AddConst { .. } | KernelOp::Scale { .. }),
                            "seed {seed}"
                        );
                    }
                    other => panic!("seed {seed}: unexpected {other:?} in peer program"),
                }
            }
        }
        assert!(peer_routed > 150, "{peer_routed}");
        assert!(host_routed > 80, "{host_routed}");
    }

    #[test]
    fn seeds_cover_every_statement_kind() {
        let mut spread = 0;
        let mut reduce = 0;
        let mut region = 0;
        let mut raw = 0;
        let mut bad = 0;
        for seed in 0..400u64 {
            for stmt in gen_program(seed, Mode::Plain).phases.iter().flatten() {
                match stmt {
                    Stmt::Spread { .. } => spread += 1,
                    Stmt::Reduce { .. } => reduce += 1,
                    Stmt::DataRegion { .. } => region += 1,
                    Stmt::Bad { .. } => bad += 1,
                    _ => raw += 1,
                }
            }
        }
        assert!(spread > 50, "{spread}");
        assert!(reduce > 10, "{reduce}");
        assert!(region > 10, "{region}");
        assert!(raw > 10, "{raw}");
        assert!(bad > 3, "{bad}");
    }
}

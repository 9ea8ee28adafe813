//! The sequential oracle, as a thin driver over the `spread-semantics`
//! small-step machine: each statement is *lowered* to the spec's
//! [`Directive`] alphabet and [`spread_semantics::step`] predicts what
//! the runtime must produce for a [`Program`] — final host arrays,
//! reduction values, leaked mappings, degradation events, peer routes —
//! or the exact [`RtError`] it must raise.
//!
//! The prediction rules themselves (presence reuse vs the §V-B
//! extension error, last-release copy-out, fail-stop vs redistribution,
//! peer-route eligibility, …) live in `spread-semantics`, one named
//! transition rule each; this module owns only the *lowering* — how the
//! fuzzer's surface statements decompose into enter/construct/update/
//! exit directives — and the vocabulary conversion back to `RtError`
//! at the boundary. The first error poisons the program: nothing after
//! it is interpreted.
//!
//! When the program carries a [`crate::ast::FaultSpec`], the lost
//! device is dead on arrival in the machine's initial [`State`], which
//! keeps the prediction closed-form: a resilient spread construct with
//! a survivor redistributes bit-invisibly (rule `S-Redistribute`); any
//! other work landing on the corpse poisons the program with
//! `DeviceLost` naming that device (`S-FailStop` / `S-Lost`).
//! Transient copy bursts are absorbed by retry and ignored entirely.
//!
//! Statements are interpreted in program order, chunks in chunk order.
//! That is sound because the generator guarantees statements inside one
//! phase touch disjoint arrays and each statement's chunks commute (the
//! fuzzer then *checks* that claim against the runtime under permuted
//! schedules).

use std::collections::HashMap;
use std::ops::Range;

use spread_core::schedule::distribute;
use spread_core::{spec_admission, IntegrityMode};
use spread_rt::section::ArrayId;
use spread_rt::{RtError, Section};
use spread_semantics::{
    step, AbsSection, Degradation, Directive, FoldOp, IntegritySem, KernelSem, Leg, MapKind,
    Perturb, Piece, SemError, State, UpdateLeg,
};

use crate::ast::{KernelOp, Program, Sched, Stmt};
use crate::Fault;

/// What the runtime must observe at the end of the program.
#[derive(Clone, Debug, PartialEq)]
pub struct Expectation {
    /// Final host arrays (index = array number).
    pub arrays: Vec<Vec<f64>>,
    /// Reduction results in statement order.
    pub reduces: Vec<f64>,
    /// Per-device mapped sections at quiescence:
    /// `(array, start, len, refcount)` sorted — the shape of
    /// [`spread_rt::Runtime::mapping_snapshot`].
    pub mappings: Vec<Vec<(u32, usize, usize, u32)>>,
    /// The exact degradation-event sequence the runtime must record,
    /// in program order (pressure programs; empty otherwise).
    pub degradations: Vec<Degradation>,
    /// The first error, if the program is illegal.
    pub error: Option<RtError>,
}

/// The loss error, compared by `device` only (`what` names whichever
/// task happened to surface the loss first).
fn lost_err(device: u32) -> RtError {
    RtError::DeviceLost {
        device,
        what: String::new(),
    }
}

/// The spec's section for `array[r]`.
fn sec(a: usize, r: Range<usize>) -> AbsSection {
    AbsSection::from_range(a as u32, r)
}

/// The spec's section back in the runtime's vocabulary.
fn rt_section(s: AbsSection) -> Section {
    Section::new(ArrayId(s.array), s.start, s.len)
}

/// Lift the machine's predicted error into the exact [`RtError`] the
/// executor compares (`InvalidDirective` by variant, `DeviceLost` by
/// device — see `errors_match`).
fn rt_err(e: SemError) -> RtError {
    match e {
        SemError::OverlapExtension {
            device,
            requested,
            present,
        } => RtError::OverlapExtension {
            device,
            requested: rt_section(requested),
            present: rt_section(present),
        },
        SemError::NotMapped { device, requested } => RtError::NotMapped {
            device,
            requested: rt_section(requested),
        },
        SemError::DeviceLost { device } => lost_err(device),
        SemError::Invalid => RtError::InvalidDirective(String::new()),
        // Compared by device only (`errors_match`): the runtime's
        // section names whichever tainted drain surfaced first.
        SemError::IntegrityViolation { device } => RtError::IntegrityViolation {
            device,
            section: Section::new(ArrayId(0), 0, 0),
        },
        SemError::Degraded {
            device,
            what,
            bytes,
        } => RtError::Degraded {
            device,
            what,
            bytes,
        },
    }
}

/// The machine perturbation of an injected oracle canary.
/// `PeerCorrupt` and `IntegrityCorrupt` perturb the *program* the
/// runtime runs, not the oracle, so they map to `None` and leave the
/// spec honest.
fn perturb_of(fault: Option<Fault>) -> Option<Perturb> {
    match fault? {
        Fault::StencilDropsLeftHalo => Some(Perturb::StencilDropsLeftHalo),
        Fault::ReduceSkipsLast => Some(Perturb::ReduceSkipsLast),
        Fault::RecoveryDropsLostChunk => Some(Perturb::RecoveryDropsLostChunk),
        Fault::PeerCorrupt | Fault::IntegrityCorrupt => None,
    }
}

/// The spec's `spread_integrity(…)` clause for the program's spread
/// statements (data-region and halo helper constructs never carry the
/// clause, matching the executor).
fn integrity_sem(p: &Program) -> IntegritySem {
    match p.integrity_mode() {
        None | Some(IntegrityMode::Off) => IntegritySem::Off,
        Some(IntegrityMode::Verify) => IntegritySem::Verify,
        Some(IntegrityMode::Heal) => IntegritySem::Heal,
    }
}

/// The spec kernel of a spread statement's [`KernelOp`].
fn kernel_of(op: &KernelOp) -> KernelSem {
    match *op {
        KernelOp::AddConst { a, c } => KernelSem::AddConst { a: a as u32, c },
        KernelOp::Scale { a, c } => KernelSem::Scale { a: a as u32, c },
        KernelOp::Saxpy { x, y, alpha } => KernelSem::Saxpy {
            x: x as u32,
            y: y as u32,
            alpha,
        },
        KernelOp::Stencil3 { src, dst } => KernelSem::Stencil3 {
            src: src as u32,
            dst: dst as u32,
        },
    }
}

/// The map clauses of a spread kernel for one chunk range — the same
/// shapes `build_target` derives from the statement (halo arithmetic
/// included).
fn op_maps(op: &KernelOp, r: &Range<usize>) -> Vec<(MapKind, AbsSection)> {
    match *op {
        KernelOp::AddConst { a, .. } | KernelOp::Scale { a, .. } => {
            vec![(MapKind::ToFrom, sec(a, r.clone()))]
        }
        KernelOp::Saxpy { x, y, .. } => vec![
            (MapKind::To, sec(x, r.clone())),
            (MapKind::ToFrom, sec(y, r.clone())),
        ],
        KernelOp::Stencil3 { src, dst } => vec![
            (MapKind::To, sec(src, r.start - 1..r.end + 1)),
            (MapKind::From, sec(dst, r.clone())),
        ],
    }
}

/// The device-footprint of one piece of a spread kernel: the mapped
/// section lengths (halo arithmetic included) in bytes — exactly what
/// `TargetSpread::footprint_bytes` computes from its map clauses, so
/// the oracle's admission call sees the same numbers as the runtime's.
fn op_footprint(op: &KernelOp, start: usize, len: usize) -> u64 {
    op_maps(op, &(start..start + len))
        .iter()
        .map(|(_, s)| s.len as u64 * 8)
        .sum()
}

/// Lower one statement to the machine's directive sequence.
///
/// This is the whole surface-syntax-to-spec translation: every
/// prediction the old per-mode oracle code computed ad hoc now falls
/// out of stepping these directives through `spread-semantics`.
fn lower_stmt(p: &Program, stmt: &Stmt) -> Vec<Directive> {
    match stmt {
        Stmt::Spread {
            devices, sched, op, ..
        } => {
            let chunks = distribute(
                op.range(p.n),
                devices,
                &sched.oracle_schedule(p.n, devices.len()),
            );
            // The launch-time admission verdict under `spread_pressure`:
            // same planner, same closed-form headroom (blocking
            // constructs release every mapping before the next launch,
            // so headroom is `cap − sustained` at every construct),
            // same footprint arithmetic as the runtime.
            let admission = p.pressure.as_ref().map(|ps| {
                let headroom: HashMap<u32, u64> =
                    devices.iter().map(|&d| (d, ps.headroom(d))).collect();
                let footprint = |start: usize, len: usize| op_footprint(op, start, len);
                spec_admission(&chunks, devices, &headroom, &footprint, ps.policy)
            });
            let pieces = chunks
                .iter()
                .map(|c| Piece {
                    // Dynamic chunks carry no device; any placement
                    // yields the same host state (fresh-in, fresh-out,
                    // disjoint sections), so model them on the list
                    // head.
                    device: c.device.unwrap_or(devices[0]),
                    start: c.start,
                    len: c.len,
                    maps: op_maps(op, &c.range()),
                    kernel: kernel_of(op),
                })
                .collect();
            vec![Directive::SpreadConstruct {
                devices: devices.clone(),
                resilient: p.resilient(),
                admission,
                integrity: integrity_sem(p),
                pieces,
            }]
        }
        Stmt::Reduce {
            devices,
            sched,
            a,
            partials,
            alpha,
            op,
        } => {
            let chunks = distribute(0..p.n, devices, &sched.oracle_schedule(p.n, devices.len()));
            let pieces = chunks
                .iter()
                .map(|c| Piece {
                    device: c.device.unwrap_or(devices[0]),
                    start: c.start,
                    len: c.len,
                    maps: vec![
                        (MapKind::To, sec(*a, c.range())),
                        (MapKind::From, sec(*partials, c.range())),
                    ],
                    kernel: KernelSem::Partials {
                        a: *a as u32,
                        partials: *partials as u32,
                        alpha: *alpha,
                    },
                })
                .collect();
            vec![
                Directive::SpreadConstruct {
                    devices: devices.clone(),
                    resilient: p.resilient(),
                    admission: None,
                    integrity: IntegritySem::Off,
                    pieces,
                },
                Directive::HostFold {
                    partials: *partials as u32,
                    start: 0,
                    end: p.n,
                    op: match op {
                        spread_core::reduction::ReduceOp::Sum => FoldOp::Sum,
                        spread_core::reduction::ReduceOp::Max => FoldOp::Max,
                        spread_core::reduction::ReduceOp::Min => FoldOp::Min,
                    },
                },
            ]
        }
        Stmt::DataRegion {
            devices,
            chunk,
            a,
            body_add,
            update_from,
            exit_from,
        } => {
            let sched = Sched::Static { chunk: *chunk };
            let chunks = distribute(0..p.n, devices, &sched.to_schedule());
            let mut out = vec![Directive::EnterData(
                chunks
                    .iter()
                    .map(|c| Leg {
                        device: c.device.unwrap(),
                        kind: MapKind::To,
                        section: sec(*a, c.range()),
                    })
                    .collect(),
            )];
            if let Some(cv) = body_add {
                let op = KernelOp::AddConst { a: *a, c: *cv };
                out.push(Directive::SpreadConstruct {
                    devices: devices.clone(),
                    resilient: false,
                    admission: None,
                    integrity: IntegritySem::Off,
                    pieces: chunks
                        .iter()
                        .map(|c| Piece {
                            device: c.device.unwrap(),
                            start: c.start,
                            len: c.len,
                            maps: op_maps(&op, &c.range()),
                            kernel: kernel_of(&op),
                        })
                        .collect(),
                });
            }
            if *update_from {
                out.push(Directive::UpdateData(
                    chunks
                        .iter()
                        .map(|c| UpdateLeg {
                            device: c.device.unwrap(),
                            from_device: true,
                            exchange: false,
                            section: sec(*a, c.range()),
                        })
                        .collect(),
                ));
            }
            let emt = if *exit_from {
                MapKind::From
            } else {
                MapKind::Release
            };
            out.push(Directive::ExitData(
                chunks
                    .iter()
                    .map(|c| Leg {
                        device: c.device.unwrap(),
                        kind: emt,
                        section: sec(*a, c.range()),
                    })
                    .collect(),
            ));
            out
        }
        Stmt::Halo {
            devices,
            chunk,
            a,
            dst,
            bump,
        } => {
            let n = p.n;
            let sched = Sched::Static { chunk: *chunk };
            let chunks = distribute(0..n, devices, &sched.to_schedule());
            let halo = |r: &Range<usize>| r.start.saturating_sub(1)..(r.end + 1).min(n);
            // Enter-spread `to` of the halo'd chunks.
            let mut out = vec![Directive::EnterData(
                chunks
                    .iter()
                    .map(|c| Leg {
                        device: c.device.unwrap(),
                        kind: MapKind::To,
                        section: sec(*a, halo(&c.range())),
                    })
                    .collect(),
            )];
            // Optional body bump on the device images: the reuse path —
            // refcount 2, no copies — so the host keeps the old values
            // and every sibling copy goes stale (which is what makes
            // every halo ineligible for a peer route below).
            if let Some(cv) = bump {
                let op = KernelOp::AddConst { a: *a, c: *cv };
                out.push(Directive::SpreadConstruct {
                    devices: devices.clone(),
                    resilient: false,
                    admission: None,
                    integrity: IntegritySem::Off,
                    pieces: chunks
                        .iter()
                        .map(|c| Piece {
                            device: c.device.unwrap(),
                            start: c.start,
                            len: c.len,
                            maps: op_maps(&op, &c.range()),
                            kernel: kernel_of(&op),
                        })
                        .collect(),
                });
            }
            // The halo refresh under `exchange(…)`: rule `S-Exchange`
            // records a peer route exactly when the sibling's bytes
            // equal the host image — so the copied *values* are
            // host-identical either way, and [`predict_peer_copies`]
            // reads the recorded route set for the differential peer
            // harness.
            out.push(Directive::UpdateData(
                chunks
                    .iter()
                    .flat_map(|c| {
                        let r = c.range();
                        let d = c.device.unwrap();
                        [
                            UpdateLeg {
                                device: d,
                                from_device: false,
                                exchange: true,
                                section: sec(*a, r.start.saturating_sub(1)..r.start),
                            },
                            UpdateLeg {
                                device: d,
                                from_device: false,
                                exchange: true,
                                section: sec(*a, r.end..(r.end + 1).min(n)),
                            },
                        ]
                    })
                    .collect(),
            ));
            // Clamped 3-point stencil over the refreshed window: reuses
            // the halo'd `a` mapping, allocates `dst`, copies the body
            // out on exit — halo bytes land in the final host state.
            out.push(Directive::SpreadConstruct {
                devices: devices.clone(),
                resilient: false,
                admission: None,
                integrity: IntegritySem::Off,
                pieces: chunks
                    .iter()
                    .map(|c| {
                        let r = c.range();
                        Piece {
                            device: c.device.unwrap(),
                            start: c.start,
                            len: c.len,
                            maps: vec![
                                (MapKind::To, sec(*a, halo(&r))),
                                (MapKind::From, sec(*dst, r)),
                            ],
                            kernel: KernelSem::Stencil3Clamped {
                                src: *a as u32,
                                dst: *dst as u32,
                                n,
                            },
                        }
                    })
                    .collect(),
            });
            // Exit-spread release of the halo'd region.
            out.push(Directive::ExitData(
                chunks
                    .iter()
                    .map(|c| Leg {
                        device: c.device.unwrap(),
                        kind: MapKind::Release,
                        section: sec(*a, halo(&c.range())),
                    })
                    .collect(),
            ));
            out
        }
        Stmt::RawEnter {
            device,
            a,
            start,
            len,
        } => vec![Directive::EnterData(vec![Leg {
            device: *device,
            kind: MapKind::To,
            section: sec(*a, *start..start + len),
        }])],
        Stmt::RawExit {
            device,
            a,
            start,
            len,
            delete,
        } => vec![Directive::ExitData(vec![Leg {
            device: *device,
            kind: if *delete {
                MapKind::Delete
            } else {
                MapKind::From
            },
            section: sec(*a, *start..start + len),
        }])],
        Stmt::RawUpdate {
            device,
            a,
            start,
            len,
            from,
        } => vec![Directive::UpdateData(vec![UpdateLeg {
            device: *device,
            from_device: *from,
            exchange: false,
            section: sec(*a, *start..start + len),
        }])],
        // The executor compares `InvalidDirective` by variant only, so
        // the spec does not reproduce the message.
        Stmt::Bad { .. } => vec![Directive::Invalid],
    }
}

/// Lower `p` statement by statement and fold [`step`] over the
/// directive sequence. Returns the final (possibly poisoned-mid-
/// directive) machine state and the first error.
fn interpret(p: &Program, fault: Option<Fault>) -> (State, Option<SemError>) {
    let host = (0..p.n_arrays)
        .map(|k| (0..p.n).map(|i| Program::initial(k, i)).collect())
        .collect();
    let mut st = State::new(host, p.n_devices, p.lost_device());
    st.perturb = perturb_of(fault);
    let mut error = None;
    // A straggler program's slowdowns land before any statement runs
    // (the windows open at time zero). `S-Slow` is state-invisible —
    // stepping it here asserts exactly that: the prediction for a
    // slowed machine IS the fault-free prediction.
    if let Some(ss) = &p.straggler {
        for &(device, factor) in &ss.slow {
            step(
                &mut st,
                &Directive::Slowdown {
                    device,
                    factor: factor as f64,
                },
            )
            .expect("generated slowdowns are well-formed");
        }
    }
    // An integrity program's flip bursts likewise arm before any
    // statement runs (`S-Flip` at time zero). Under `heal` the tokens
    // are burned value-invisibly at the commit boundary (`S-Heal`), so
    // the prediction for a flipped machine IS the flip-blind fault-free
    // prediction — exactly what the runtime's detect→discard→redo
    // rounds must reproduce bit for bit.
    if let Some(is) = &p.integrity {
        for &(device, count) in &is.flips {
            step(&mut st, &Directive::Flip { device, count })
                .expect("generated flips are well-formed");
        }
    }
    'outer: for stmt in p.phases.iter().flatten() {
        for d in lower_stmt(p, stmt) {
            if let Err(e) = step(&mut st, &d) {
                error = Some(e);
                break 'outer;
            }
        }
    }
    (st, error)
}

/// Interpret `p` through the `spread-semantics` machine and predict the
/// runtime-observable outcome. `fault` perturbs the spec deliberately
/// (see [`Fault`]) so the harness can prove to itself that
/// disagreements are detected, shrunk and replayed.
pub fn predict(p: &Program, fault: Option<Fault>) -> Expectation {
    let (st, error) = interpret(p, fault);
    Expectation {
        arrays: st.host,
        reduces: st.reduces,
        mappings: st.devices.iter().map(|d| d.snapshot()).collect(),
        degradations: st.degradations,
        error: error.map(rt_err),
    }
}

/// The exact multiset of peer copies an `exchange(auto)` execution of
/// `p` must perform, as sorted `(src, dst, array, start, len)` tuples —
/// the route set rule `S-Exchange` records while interpreting `p`.
///
/// Deterministic because the generator's halo invariants leave the
/// planner no choice: `chunk = ⌈n/k⌉ ≥ 2` gives each device at most one
/// chunk, so a one-element halo is bit-equal to the host image on
/// exactly one sibling — the neighbouring chunk's device. With a
/// `bump`, every sibling body byte diverges from the host image, so
/// *no* halo may route peer; without one, *every* non-empty halo must.
pub fn predict_peer_copies(p: &Program) -> Vec<(u32, u32, u32, usize, usize)> {
    let (st, _) = interpret(p, None);
    let mut want = st.routes;
    want.sort_unstable();
    want
}

#[cfg(test)]
mod tests {
    use super::*;
    use spread_core::reduction::ReduceOp;

    fn simple(n_devices: usize, phases: Vec<Vec<Stmt>>) -> Program {
        Program {
            phases,
            ..Program::new(n_devices, 16, 2)
        }
    }

    #[test]
    fn addconst_adds_everywhere() {
        let p = simple(
            2,
            vec![vec![Stmt::Spread {
                devices: vec![0, 1],
                sched: Sched::Static { chunk: 4 },
                nowait: false,
                op: KernelOp::AddConst { a: 0, c: 2.0 },
            }]],
        );
        let e = predict(&p, None);
        assert!(e.error.is_none());
        for i in 0..16 {
            assert_eq!(e.arrays[0][i], Program::initial(0, i) + 2.0);
            assert_eq!(e.arrays[1][i], Program::initial(1, i));
        }
        assert!(e.mappings.iter().all(|d| d.is_empty()));
    }

    #[test]
    fn stencil_matches_reference() {
        let p = simple(
            2,
            vec![vec![Stmt::Spread {
                devices: vec![0, 1],
                sched: Sched::Static { chunk: 4 },
                nowait: false,
                op: KernelOp::Stencil3 { src: 0, dst: 1 },
            }]],
        );
        let e = predict(&p, None);
        for i in 1..15 {
            let want =
                Program::initial(0, i - 1) + Program::initial(0, i) + Program::initial(0, i + 1);
            assert_eq!(e.arrays[1][i], want);
        }
        // Boundary elements keep their initial values.
        assert_eq!(e.arrays[1][0], Program::initial(1, 0));
    }

    #[test]
    fn region_release_discards_and_update_preserves() {
        // Body adds 5, exit releases: host unchanged…
        let discard = simple(
            1,
            vec![vec![Stmt::DataRegion {
                devices: vec![0],
                chunk: 16,
                a: 0,
                body_add: Some(5.0),
                update_from: false,
                exit_from: false,
            }]],
        );
        let e = predict(&discard, None);
        assert_eq!(e.arrays[0][3], Program::initial(0, 3));
        // …but an update-from before the release captures the result.
        let update = simple(
            1,
            vec![vec![Stmt::DataRegion {
                devices: vec![0],
                chunk: 16,
                a: 0,
                body_add: Some(5.0),
                update_from: true,
                exit_from: false,
            }]],
        );
        let e = predict(&update, None);
        assert_eq!(e.arrays[0][3], Program::initial(0, 3) + 5.0);
    }

    #[test]
    fn raw_overlap_is_extension_error() {
        let p = simple(
            1,
            vec![vec![
                Stmt::RawEnter {
                    device: 0,
                    a: 0,
                    start: 0,
                    len: 8,
                },
                Stmt::RawEnter {
                    device: 0,
                    a: 0,
                    start: 4,
                    len: 8,
                },
            ]],
        );
        let e = predict(&p, None);
        match e.error {
            Some(RtError::OverlapExtension {
                device, requested, ..
            }) => {
                assert_eq!(device, 0);
                assert_eq!(requested.start, 4);
            }
            other => panic!("expected extension error, got {other:?}"),
        }
    }

    #[test]
    fn raw_leak_predicts_mapping_snapshot() {
        let p = simple(
            2,
            vec![vec![
                Stmt::RawEnter {
                    device: 1,
                    a: 0,
                    start: 2,
                    len: 6,
                },
                Stmt::RawEnter {
                    device: 1,
                    a: 0,
                    start: 2,
                    len: 6,
                },
            ]],
        );
        let e = predict(&p, None);
        assert!(e.error.is_none());
        assert_eq!(e.mappings[0], vec![]);
        assert_eq!(e.mappings[1], vec![(0, 2, 6, 2)]);
    }

    #[test]
    fn resilient_loss_predicts_the_fault_free_state() {
        use crate::ast::{FaultMode, FaultSpec};
        let spread = Stmt::Spread {
            devices: vec![0, 1],
            sched: Sched::Static { chunk: 4 },
            nowait: false,
            op: KernelOp::AddConst { a: 0, c: 2.0 },
        };
        let clean = simple(2, vec![vec![spread.clone()]]);
        let mut faulted = clean.clone();
        faulted.fault = Some(FaultSpec {
            lost: Some(1),
            mode: FaultMode::Resilient,
            transients: vec![(0, 2)],
        });
        let a = predict(&clean, None);
        let b = predict(&faulted, None);
        assert!(b.error.is_none(), "{:?}", b.error);
        assert_eq!(a.arrays, b.arrays, "redistribution is bit-invisible");
        // …but the recovery canary diverges.
        let c = predict(&faulted, Some(Fault::RecoveryDropsLostChunk));
        assert_ne!(a.arrays, c.arrays, "canary must perturb the prediction");
        // The canary is inert without a resilient loss.
        let d = predict(&clean, Some(Fault::RecoveryDropsLostChunk));
        assert_eq!(a.arrays, d.arrays);
    }

    #[test]
    fn fail_stop_loss_predicts_device_lost() {
        use crate::ast::{FaultMode, FaultSpec};
        let mut p = simple(
            2,
            vec![vec![Stmt::Spread {
                devices: vec![1, 0],
                sched: Sched::Static { chunk: 4 },
                nowait: false,
                op: KernelOp::Scale { a: 0, c: 2.0 },
            }]],
        );
        p.fault = Some(FaultSpec {
            lost: Some(1),
            mode: FaultMode::FailStop,
            transients: vec![],
        });
        let e = predict(&p, None);
        assert!(
            matches!(e.error, Some(RtError::DeviceLost { device: 1, .. })),
            "{:?}",
            e.error
        );
        // A resilient construct with no survivor in its list also dies.
        p.fault.as_mut().unwrap().mode = FaultMode::Resilient;
        p.phases[0][0] = Stmt::Spread {
            devices: vec![1],
            sched: Sched::Static { chunk: 16 },
            nowait: false,
            op: KernelOp::Scale { a: 0, c: 2.0 },
        };
        let e = predict(&p, None);
        assert!(
            matches!(e.error, Some(RtError::DeviceLost { device: 1, .. })),
            "{:?}",
            e.error
        );
        // A loss nothing lands on is invisible.
        p.phases[0][0] = Stmt::Spread {
            devices: vec![0],
            sched: Sched::Static { chunk: 16 },
            nowait: false,
            op: KernelOp::Scale { a: 0, c: 2.0 },
        };
        assert!(predict(&p, None).error.is_none());
    }

    #[test]
    fn pressure_prediction_names_the_degradations() {
        use spread_core::PressurePolicy;
        use spread_semantics::DegKind;
        // Two devices, chunk 8 ⇒ chunks [0,8) on d0 and [8,16) on d1,
        // 64 bytes each. Device 0 keeps 64 bytes of headroom, device 1
        // is squeezed to 24 — its chunk must move to device 0.
        let mk = |policy, sustained: Vec<(u32, u64)>| {
            let mut p = simple(
                2,
                vec![vec![Stmt::Spread {
                    devices: vec![0, 1],
                    sched: Sched::Static { chunk: 8 },
                    nowait: false,
                    op: KernelOp::AddConst { a: 0, c: 2.0 },
                }]],
            );
            p.pressure = Some(crate::ast::PressureSpec {
                policy,
                cap_bytes: 64,
                sustained,
            });
            p
        };
        let healthy = mk(PressurePolicy::Split, vec![]);
        let e = predict(&healthy, None);
        assert!(e.error.is_none());
        assert!(e.degradations.is_empty(), "{:?}", e.degradations);

        let shrunk = mk(PressurePolicy::Split, vec![(1, 40)]);
        let e = predict(&shrunk, None);
        assert!(e.error.is_none());
        assert_eq!(e.degradations.len(), 1, "{:?}", e.degradations);
        assert_eq!(e.degradations[0].kind, DegKind::AdmissionShrunk);
        assert_eq!(e.degradations[0].device, Some(0));
        assert_eq!(e.degradations[0].start, 8);
        assert_eq!(e.degradations[0].bytes, 64);
        // Values are placement-independent.
        assert_eq!(e.arrays, predict(&healthy, None).arrays);

        // Both devices hopeless: split fails Degraded, spill completes
        // through the host with the same values.
        let hopeless = vec![(0u32, 64u64), (1, 64)];
        let e = predict(&mk(PressurePolicy::Split, hopeless.clone()), None);
        assert!(
            matches!(e.error, Some(RtError::Degraded { .. })),
            "{:?}",
            e.error
        );
        let e = predict(&mk(PressurePolicy::Spill, hopeless), None);
        assert!(e.error.is_none(), "{:?}", e.error);
        assert_eq!(e.degradations.len(), 2);
        assert!(e
            .degradations
            .iter()
            .all(|d| d.kind == DegKind::Spilled && d.device.is_none() && d.bytes == 64));
        assert_eq!(e.arrays, predict(&healthy, None).arrays);
    }

    #[test]
    fn reduce_fault_changes_prediction() {
        let stmt = Stmt::Reduce {
            devices: vec![0],
            sched: Sched::Static { chunk: 8 },
            a: 0,
            partials: 1,
            alpha: 2.0,
            op: ReduceOp::Sum,
        };
        let p = simple(1, vec![vec![stmt]]);
        let honest = predict(&p, None);
        let faulty = predict(&p, Some(Fault::ReduceSkipsLast));
        assert_ne!(honest.reduces, faulty.reduces);
    }
}

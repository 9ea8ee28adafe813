//! Clause legality, swept exhaustively: every clause combination on
//! every spread directive — 4 320 on `target spread`, 36 720 over the
//! four data directives — is either accepted, and then bit-identical to
//! the clause-free run of a non-idempotent kernel (`a = 3a + 1`), or
//! refused with `RtError::InvalidDirective`; never a panic, never
//! another error.
//!
//! The outcome of every combination is pinned twice: per outcome text
//! (a readable diff when a rule moves) and as a digest of the whole
//! ordered (combination → outcome) list (which also catches two rows
//! trading places). `landmarks()` spells out the expected outcome of
//! a few combinations per clause family. DESIGN.md carries
//! `spread_core::compose::render()` verbatim.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use spread_core::prelude::*;
use spread_devices::{DeviceSpec, Topology};
use spread_rt::kernel::KernelArg;
use spread_rt::prelude::*;

const N: usize = 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dir {
    Spread,
    Data,
    Enter,
    Exit,
    Update,
}

const SCHEDULES: [&str; 5] = ["default", "static,8", "weighted", "dynamic,8", "auto"];
const DEFAULT: usize = 0;
const WEIGHTED: usize = 2;
const DYNAMIC: usize = 3;
const AUTO: usize = 4;

fn schedule(i: usize) -> Option<SpreadSchedule> {
    match i {
        DEFAULT => None,
        1 => Some(SpreadSchedule::static_chunk(8)),
        WEIGHTED => Some(SpreadSchedule::StaticWeighted {
            round: 8,
            weights: vec![1.0, 3.0],
        }),
        DYNAMIC => Some(SpreadSchedule::dynamic(8)),
        _ => Some(SpreadSchedule::auto("sweep")),
    }
}

/// One point of the sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Combo {
    dir: Dir,
    schedule: usize,
    nowait: bool,
    resilience: ResiliencePolicy,
    pressure: PressurePolicy,
    straggler: StragglerPolicy,
    integrity: IntegrityMode,
    overlap: OverlapPolicy,
    plan: bool,
    exchange: ExchangeMode,
    from: bool,
}

impl Combo {
    /// The clause-free launch of `dir`.
    fn new(dir: Dir) -> Self {
        Combo {
            dir,
            schedule: DEFAULT,
            nowait: false,
            resilience: ResiliencePolicy::FailStop,
            pressure: PressurePolicy::Fail,
            straggler: StragglerPolicy::Wait,
            integrity: IntegrityMode::Off,
            overlap: OverlapPolicy::Off,
            plan: false,
            exchange: ExchangeMode::Auto,
            from: false,
        }
    }

    fn label(&self) -> String {
        format!(
            "{:?} schedule={} nowait={} {:?} {:?} {:?} {:?} overlap={:?} plan={} exchange={:?} from={}",
            self.dir,
            SCHEDULES[self.schedule],
            self.nowait,
            self.resilience,
            self.pressure,
            self.straggler,
            self.integrity,
            self.overlap,
            self.plan,
            self.exchange,
            self.from
        )
    }

    fn clauses(&self) -> ClauseSet {
        let mut set = ClauseSet::default()
            .with_resilience(self.resilience)
            .with_pressure(self.pressure)
            .with_straggler(self.straggler)
            .with_integrity(self.integrity)
            .with_overlap(self.overlap);
        if let Some(s) = schedule(self.schedule) {
            set = set.with_schedule(s);
        }
        if self.plan {
            set = set.with_plan_cache("sweep");
        }
        set
    }
}

/// Every combination, in a fixed order: `target spread` first, then
/// the structured region, enter, exit and update.
fn sweep() -> Vec<Combo> {
    let mut out = Vec::new();
    for dir in [Dir::Spread, Dir::Data, Dir::Enter, Dir::Exit, Dir::Update] {
        let nowaits: &[bool] = if dir == Dir::Data {
            &[false]
        } else {
            &[false, true]
        };
        let exchanges: &[ExchangeMode] = if dir == Dir::Update {
            &[ExchangeMode::Auto, ExchangeMode::Host, ExchangeMode::Peer]
        } else {
            &[ExchangeMode::Auto]
        };
        let froms: &[bool] = if dir == Dir::Update {
            &[false, true]
        } else {
            &[false]
        };
        for schedule in 0..SCHEDULES.len() {
            for &nowait in nowaits {
                for resilience in [ResiliencePolicy::FailStop, ResiliencePolicy::Redistribute] {
                    for pressure in [
                        PressurePolicy::Fail,
                        PressurePolicy::Split,
                        PressurePolicy::Spill,
                    ] {
                        for straggler in [
                            StragglerPolicy::Wait,
                            StragglerPolicy::Steal,
                            StragglerPolicy::Replicate,
                        ] {
                            for integrity in [
                                IntegrityMode::Off,
                                IntegrityMode::Verify,
                                IntegrityMode::Heal,
                            ] {
                                for overlap in [
                                    OverlapPolicy::Off,
                                    OverlapPolicy::Depth(0),
                                    OverlapPolicy::Depth(2),
                                    OverlapPolicy::Auto,
                                ] {
                                    for plan in [false, true] {
                                        for &exchange in exchanges {
                                            for &from in froms {
                                                out.push(Combo {
                                                    dir,
                                                    schedule,
                                                    nowait,
                                                    resilience,
                                                    pressure,
                                                    straggler,
                                                    integrity,
                                                    overlap,
                                                    plan,
                                                    exchange,
                                                    from,
                                                });
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

fn runtime() -> Runtime {
    let topo = Topology::uniform(2, DeviceSpec::v100().with_mem_bytes(1 << 22), 1e9, 1.5e9);
    Runtime::new(RuntimeConfig::new(topo).with_team_threads(1))
}

/// `a = 3a + 1` and `b = 2b` over `0..N`, on whatever is mapped.
fn scale(a: HostArray, b: HostArray) -> KernelSpec {
    KernelSpec::new("scale", 1.0, |chunk, v| {
        for i in chunk {
            v.set(0, i, 3.0 * v.get(0, i) + 1.0);
            v.set(1, i, 2.0 * v.get(1, i));
        }
    })
    .arg(KernelArg::read_write(a, |r| r))
    .arg(KernelArg::read_write(b, |r| r))
}

/// Run one combination; the host image of `A` and `B` afterwards.
///
/// A data directive under test is paired with clause-free partners that
/// share its placement (its weighted schedule, or `static,8` — the same
/// placement as `chunk_size(8)`), so the kernel between them hits the
/// mapped chunks and the result does not depend on placement.
fn program(c: &Combo) -> Result<Vec<f64>, RtError> {
    let mut rt = runtime();
    let a = rt.host_array("A", N);
    let b = rt.host_array("B", N);
    rt.fill_host(a, |i| i as f64);
    rt.fill_host(b, |i| 10.0 * i as f64);
    let set = c.clauses();
    let place = if c.schedule == WEIGHTED {
        schedule(WEIGHTED).unwrap()
    } else {
        SpreadSchedule::static_chunk(8)
    };
    let kernel = |s: &mut Scope<'_>| {
        TargetSpread::devices([0, 1])
            .with_schedule(place.clone())
            .map(spread_tofrom(a, |c| c.range()))
            .map(spread_tofrom(b, |c| c.range()))
            .parallel_for(s, 0..N, scale(a, b))
            .map(|_| ())
    };
    let enter = || {
        TargetEnterDataSpread::devices([0, 1])
            .range(0, N)
            .chunk_size(8)
            .with_schedule(place.clone())
            .map(spread_to(a, |c| c.range()))
            .map(spread_to(b, |c| c.range()))
    };
    let exit = || {
        TargetExitDataSpread::devices([0, 1])
            .range(0, N)
            .chunk_size(8)
            .with_schedule(place.clone())
            .map(spread_from(a, |c| c.range()))
            .map(spread_from(b, |c| c.range()))
    };
    rt.run(|s| {
        match c.dir {
            Dir::Spread => {
                let t = TargetSpread::devices([0, 1])
                    .with_clauses(set)
                    .map(spread_tofrom(a, |c| c.range()))
                    .map(spread_tofrom(b, |c| c.range()));
                let t = if c.nowait { t.nowait() } else { t };
                t.parallel_for(s, 0..N, scale(a, b))?;
            }
            Dir::Data => {
                TargetDataSpread::devices([0, 1])
                    .range(0, N)
                    .chunk_size(8)
                    .with_clauses(set)
                    .map(spread_tofrom(a, |c| c.range()))
                    .map(spread_tofrom(b, |c| c.range()))
                    .region(s, kernel)?;
            }
            Dir::Enter => {
                let e = enter().with_clauses(set);
                let e = if c.nowait { e.nowait() } else { e };
                e.launch(s)?;
                s.taskwait()?;
                kernel(s)?;
                exit().launch(s)?;
            }
            Dir::Exit => {
                enter().launch(s)?;
                kernel(s)?;
                let x = exit().with_clauses(set);
                let x = if c.nowait { x.nowait() } else { x };
                x.launch(s)?;
            }
            Dir::Update => {
                enter().launch(s)?;
                kernel(s)?;
                let u = TargetUpdateSpread::devices([0, 1])
                    .range(0, N)
                    .chunk_size(8)
                    .with_clauses(set)
                    .exchange(c.exchange)
                    .to(b, |c| c.range());
                let u = if c.from { u.from(a, |c| c.range()) } else { u };
                let u = if c.nowait { u.nowait() } else { u };
                u.launch(s)?;
                s.taskwait()?;
                exit().launch(s)?;
            }
        }
        s.taskwait()
    })?;
    let mut out = rt.snapshot_host(a);
    out.extend(rt.snapshot_host(b));
    Ok(out)
}

const ACCEPTED: &str = "accepted";

/// One combination's outcome as a line of text: `accepted`, the
/// `InvalidDirective` message, or a failure (`PANIC`, `DIVERGED`,
/// `ERROR …`) the sweep forbids.
fn outcome(c: &Combo, reference: &[u64]) -> String {
    match catch_unwind(AssertUnwindSafe(|| program(c))) {
        Err(_) => "PANIC".to_string(),
        Ok(Ok(values)) => {
            let bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
            if bits == reference {
                ACCEPTED.to_string()
            } else {
                "DIVERGED".to_string()
            }
        }
        Ok(Err(RtError::InvalidDirective(msg))) => msg,
        Ok(Err(other)) => format!("ERROR {other:?}"),
    }
}

/// The clause-free run of `dir` (and of an update with or without
/// `from(…)`), checked against the arithmetic.
fn reference(dir: Dir, from: bool) -> Vec<u64> {
    let values = program(&Combo {
        from,
        ..Combo::new(dir)
    })
    .expect("the clause-free run");
    let b_scale = if dir == Dir::Update { 10.0 } else { 20.0 };
    for i in 0..N {
        assert_eq!(values[i], 3.0 * i as f64 + 1.0, "{dir:?}: A[{i}]");
        assert_eq!(values[N + i], b_scale * i as f64, "{dir:?}: B[{i}]");
    }
    values.iter().map(|v| v.to_bits()).collect()
}

/// FNV-1a over the whole ordered list.
fn digest(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in lines.iter().flat_map(|l| l.bytes().chain([b'\n'])) {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Spot checks per clause family, with their outcome spelled out:
/// `ACCEPTED` or the exact message. They run before the pinned counts,
/// so a rule that moved names itself.
fn landmarks() -> Vec<(Combo, String)> {
    let spread = Combo::new(Dir::Spread);
    let with = |schedule| Combo { schedule, ..spread };
    let split = PressurePolicy::Split;
    let redistribute = ResiliencePolicy::Redistribute;
    let heal = IntegrityMode::Heal;
    let ts = |reason: &str| format!("target spread: {reason}");
    let auto_blocking = ts("spread_schedule(auto) requires a blocking construct");
    let pressure_blocking = ts("spread_pressure(split|spill) requires a blocking construct");
    let pressure_static = ts("spread_pressure(split|spill) requires a static schedule");
    let pressure_redistribute =
        ts("spread_pressure(split|spill) is incompatible with spread_resilience(redistribute)");
    let redistribute_static = ts("spread_resilience(redistribute) requires a static schedule");
    let overlap_pressure =
        ts("spread_overlap(…) is incompatible with spread_pressure(split|spill)");
    let unsupported = |pragma: &str, clause: &str| {
        format!("{pragma}: the {clause} clause is not supported on this directive")
    };
    let data_auto = |pragma: &str| {
        format!(
            "{pragma}: data spread directives require a static distribution \
             (spread_schedule(auto) only resolves on executable constructs)"
        )
    };
    let accepted = ACCEPTED.to_string();
    let enter = Combo::new(Dir::Enter);
    let exit = Combo::new(Dir::Exit);
    vec![
        // `auto` is refused where weighted is, and with `nowait`; it
        // stands in for a static schedule where dynamic is refused. Data
        // directives refuse it and take weighted.
        (
            Combo {
                pressure: split,
                resilience: redistribute,
                ..with(WEIGHTED)
            },
            pressure_redistribute.clone(),
        ),
        (
            Combo {
                pressure: split,
                resilience: redistribute,
                ..with(AUTO)
            },
            pressure_redistribute.clone(),
        ),
        (
            Combo {
                nowait: true,
                ..with(WEIGHTED)
            },
            accepted.clone(),
        ),
        (
            Combo {
                nowait: true,
                ..with(AUTO)
            },
            auto_blocking.clone(),
        ),
        (
            Combo {
                nowait: true,
                pressure: split,
                ..with(WEIGHTED)
            },
            pressure_blocking.clone(),
        ),
        (
            Combo {
                nowait: true,
                pressure: split,
                ..with(AUTO)
            },
            auto_blocking,
        ),
        (
            Combo {
                resilience: redistribute,
                ..with(DYNAMIC)
            },
            redistribute_static.clone(),
        ),
        (
            Combo {
                resilience: redistribute,
                ..with(AUTO)
            },
            accepted.clone(),
        ),
        (
            Combo {
                pressure: split,
                ..with(DYNAMIC)
            },
            pressure_static.clone(),
        ),
        (
            Combo {
                pressure: split,
                ..with(AUTO)
            },
            accepted.clone(),
        ),
        (
            Combo {
                schedule: AUTO,
                ..enter
            },
            data_auto("target enter data spread"),
        ),
        (
            Combo {
                schedule: AUTO,
                ..exit
            },
            data_auto("target exit data spread"),
        ),
        (
            Combo {
                schedule: WEIGHTED,
                ..enter
            },
            accepted.clone(),
        ),
        (
            Combo {
                schedule: WEIGHTED,
                ..exit
            },
            accepted,
        ),
        // Heal.
        (
            Combo {
                integrity: heal,
                ..with(DYNAMIC)
            },
            ts("spread_integrity(heal) requires a static schedule"),
        ),
        (
            Combo {
                integrity: heal,
                nowait: true,
                ..spread
            },
            ts("spread_integrity(heal) requires a blocking construct"),
        ),
        (
            Combo {
                integrity: heal,
                straggler: StragglerPolicy::Steal,
                ..spread
            },
            ts(
                "spread_integrity(heal) is incompatible with spread_straggler(steal|replicate); \
                use spread_integrity(verify)",
            ),
        ),
        (
            Combo {
                integrity: heal,
                pressure: split,
                ..spread
            },
            ts(
                "spread_integrity(heal) is incompatible with spread_pressure(split|spill); \
                use spread_integrity(verify)",
            ),
        ),
        (
            Combo {
                integrity: heal,
                from: true,
                ..Combo::new(Dir::Update)
            },
            "target update spread: spread_integrity(heal) cannot compose with from(…) items \
             (the host image is being overwritten — nothing unharmed to heal from); use \
             spread_integrity(verify)"
                .to_string(),
        ),
        // Overlap.
        (
            Combo {
                overlap: OverlapPolicy::Depth(2),
                ..with(DYNAMIC)
            },
            ts("spread_overlap(…) requires a static schedule"),
        ),
        (
            Combo {
                overlap: OverlapPolicy::Depth(2),
                nowait: true,
                ..spread
            },
            ts("spread_overlap(…) requires a blocking construct"),
        ),
        (
            Combo {
                overlap: OverlapPolicy::Depth(0),
                ..spread
            },
            ts("spread_overlap(0) is invalid (depth must be ≥ 1)"),
        ),
        (
            Combo {
                overlap: OverlapPolicy::Auto,
                ..spread
            },
            ts("spread_overlap(auto) requires spread_schedule(auto) on the same construct"),
        ),
        (
            Combo {
                overlap: OverlapPolicy::Depth(2),
                pressure: split,
                ..spread
            },
            overlap_pressure.clone(),
        ),
        (
            Combo {
                overlap: OverlapPolicy::Depth(2),
                pressure: PressurePolicy::Spill,
                ..spread
            },
            overlap_pressure,
        ),
        (
            Combo {
                overlap: OverlapPolicy::Depth(2),
                ..enter
            },
            unsupported("target enter data spread", "spread_overlap(…)"),
        ),
        // Plan cache.
        (
            Combo {
                plan: true,
                ..with(DYNAMIC)
            },
            ts("spread_plan_cache(…) requires a static schedule"),
        ),
        (
            Combo {
                plan: true,
                ..enter
            },
            unsupported("target enter data spread", "spread_plan_cache(…)"),
        ),
        // Pressure.
        (
            Combo {
                pressure: split,
                ..with(DYNAMIC)
            },
            pressure_static,
        ),
        (
            Combo {
                pressure: split,
                nowait: true,
                ..spread
            },
            pressure_blocking,
        ),
        (
            Combo {
                pressure: split,
                resilience: redistribute,
                ..spread
            },
            pressure_redistribute,
        ),
        // Resilience.
        (
            Combo {
                resilience: redistribute,
                ..with(DYNAMIC)
            },
            redistribute_static,
        ),
        // Stragglers.
        (
            Combo {
                straggler: StragglerPolicy::Steal,
                ..with(DYNAMIC)
            },
            ts("spread_straggler(steal|replicate) requires a static schedule"),
        ),
        (
            Combo {
                straggler: StragglerPolicy::Replicate,
                nowait: true,
                ..with(1)
            },
            ts("spread_straggler(steal|replicate) requires a blocking construct"),
        ),
    ]
}

/// How many combinations end in each outcome.
const OUTCOME_COUNTS: &[(&str, usize)] = &[
    ("accepted", 526),
    ("exchange(peer): no eligible peer source for arr1[0:2] on device 0", 10),
    ("exchange(peer): no eligible peer source for arr1[0:8] on device 0", 20),
    ("target data spread: data spread directives require a static distribution (dynamic placement is undecidable at mapping time)", 2),
    ("target data spread: data spread directives require a static distribution (spread_schedule(auto) only resolves on executable constructs)", 2),
    ("target data spread: the spread_integrity(…) clause is not supported on this directive", 160),
    ("target data spread: the spread_overlap(…) clause is not supported on this directive", 60),
    ("target data spread: the spread_plan_cache(…) clause is not supported on this directive", 10),
    ("target data spread: the spread_pressure(…) clause is not supported on this directive", 1440),
    ("target data spread: the spread_straggler(…) clause is not supported on this directive", 480),
    ("target enter data spread: data spread directives require a static distribution (dynamic placement is undecidable at mapping time)", 4),
    ("target enter data spread: data spread directives require a static distribution (spread_schedule(auto) only resolves on executable constructs)", 4),
    ("target enter data spread: the spread_integrity(…) clause is not supported on this directive", 320),
    ("target enter data spread: the spread_overlap(…) clause is not supported on this directive", 120),
    ("target enter data spread: the spread_plan_cache(…) clause is not supported on this directive", 20),
    ("target enter data spread: the spread_pressure(…) clause is not supported on this directive", 2880),
    ("target enter data spread: the spread_straggler(…) clause is not supported on this directive", 960),
    ("target exit data spread: data spread directives require a static distribution (dynamic placement is undecidable at mapping time)", 4),
    ("target exit data spread: data spread directives require a static distribution (spread_schedule(auto) only resolves on executable constructs)", 4),
    ("target exit data spread: the spread_integrity(…) clause is not supported on this directive", 320),
    ("target exit data spread: the spread_overlap(…) clause is not supported on this directive", 120),
    ("target exit data spread: the spread_plan_cache(…) clause is not supported on this directive", 20),
    ("target exit data spread: the spread_pressure(…) clause is not supported on this directive", 2880),
    ("target exit data spread: the spread_straggler(…) clause is not supported on this directive", 960),
    ("target spread: spread_integrity(heal) is incompatible with spread_pressure(split|spill); use spread_integrity(verify)", 32),
    ("target spread: spread_integrity(heal) is incompatible with spread_straggler(steal|replicate); use spread_integrity(verify)", 136),
    ("target spread: spread_integrity(heal) requires a blocking construct", 36),
    ("target spread: spread_integrity(heal) requires a static schedule", 6),
    ("target spread: spread_overlap(0) is invalid (depth must be ≥ 1)", 810),
    ("target spread: spread_overlap(auto) requires spread_schedule(auto) on the same construct", 864),
    ("target spread: spread_overlap(…) is incompatible with spread_pressure(split|spill)", 360),
    ("target spread: spread_overlap(…) requires a blocking construct", 324),
    ("target spread: spread_overlap(…) requires a static schedule", 54),
    ("target spread: spread_plan_cache(…) requires a static schedule", 162),
    ("target spread: spread_pressure(split|spill) is incompatible with spread_resilience(redistribute)", 120),
    ("target spread: spread_pressure(split|spill) requires a blocking construct", 24),
    ("target spread: spread_pressure(split|spill) requires a static schedule", 8),
    ("target spread: spread_resilience(redistribute) requires a static schedule", 324),
    ("target spread: spread_schedule(auto) requires a blocking construct", 432),
    ("target spread: spread_straggler(steal|replicate) requires a blocking construct", 216),
    ("target spread: spread_straggler(steal|replicate) requires a static schedule", 36),
    ("target update spread: data spread directives require a static distribution (dynamic placement is undecidable at mapping time)", 50),
    ("target update spread: data spread directives require a static distribution (spread_schedule(auto) only resolves on executable constructs)", 50),
    ("target update spread: exchange(peer) cannot compose with spread_resilience(redistribute): a lost peer leaves no permitted route", 60),
    ("target update spread: spread_integrity(heal) cannot compose with from(…) items (the host image is being overwritten — nothing unharmed to heal from); use spread_integrity(verify)", 50),
    ("target update spread: the spread_overlap(…) clause is not supported on this directive", 2160),
    ("target update spread: the spread_plan_cache(…) clause is not supported on this directive", 360),
    ("target update spread: the spread_pressure(…) clause is not supported on this directive", 17280),
    ("target update spread: the spread_straggler(…) clause is not supported on this directive", 5760),
];

/// The digest of the whole ordered (combination → outcome) list.
const LIST_DIGEST: u64 = 0x27a0_4dd9_4275_f631;

#[test]
fn every_clause_combination_is_accepted_bit_identically_or_refused() {
    let combos = sweep();
    assert_eq!(combos.len(), 4_320 + 36_720);
    let references: Vec<((Dir, bool), Vec<u64>)> = [Dir::Spread, Dir::Data, Dir::Enter, Dir::Exit]
        .into_iter()
        .map(|d| (d, false))
        .chain([(Dir::Update, false), (Dir::Update, true)])
        .map(|(d, f)| ((d, f), reference(d, f)))
        .collect();
    let reference_of = |c: &Combo| {
        &references
            .iter()
            .find(|((d, f), _)| *d == c.dir && *f == c.from)
            .expect("a reference per shape")
            .1
    };
    // Only failures would print; none are expected.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcomes: Vec<String> = combos.iter().map(|c| outcome(c, reference_of(c))).collect();
    std::panic::set_hook(hook);

    let bad: Vec<String> = combos
        .iter()
        .zip(&outcomes)
        .filter(|(_, o)| *o == "PANIC" || *o == "DIVERGED" || o.starts_with("ERROR"))
        .map(|(c, o)| format!("{} => {o}", c.label()))
        .collect();
    assert!(
        bad.is_empty(),
        "{} combination(s) failed:\n{}",
        bad.len(),
        bad.join("\n")
    );

    for (c, expect) in landmarks() {
        let i = combos
            .iter()
            .position(|x| *x == c)
            .expect("a landmark is in the sweep");
        assert_eq!(outcomes[i], expect, "{}", c.label());
    }

    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for o in &outcomes {
        *counts.entry(o.as_str()).or_default() += 1;
    }
    let got: Vec<(&str, usize)> = counts.into_iter().collect();
    let want: BTreeMap<&str, usize> = OUTCOME_COUNTS.iter().copied().collect();
    let table: Vec<String> = got
        .iter()
        .map(|(o, n)| format!("    ({o:?}, {n}),"))
        .collect();
    assert!(
        got == want.into_iter().collect::<Vec<_>>(),
        "outcome counts moved; the sweep now reads:\n{}",
        table.join("\n")
    );
    let lines: Vec<String> = combos
        .iter()
        .zip(&outcomes)
        .map(|(c, o)| format!("{} => {o}", c.label()))
        .collect();
    let got = digest(&lines);
    assert_eq!(
        got, LIST_DIGEST,
        "same counts, different (combination → outcome) list: {got:#018x}"
    );
}

#[test]
fn design_md_carries_the_rendered_table() {
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md"))
        .expect("DESIGN.md");
    let (begin, end) = ("<!-- compose:begin -->\n", "<!-- compose:end -->");
    let start = design.find(begin).expect("the begin marker") + begin.len();
    let stop = design[start..].find(end).expect("the end marker") + start;
    let rendered = spread_core::compose::render();
    assert!(
        design[start..stop] == rendered,
        "DESIGN.md's clause-composition table drifted from spread_core::compose; \
         put this between the markers:\n{rendered}"
    );
}

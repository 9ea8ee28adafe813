//! Somier under injected silent corruption: the integrity One Buffer
//! variant must complete bit-identically to the CPU reference with
//! bit-flip tokens armed on several devices under
//! `spread_integrity(heal)`, recording one healed commit per burned
//! token. `verify` on the same machine instead poisons the run at the
//! first checked boundary, and `off` demonstrates why the clause exists
//! at all: the rot reaches the host and the centers drift.

use spread_core::{IntegrityMode, SpreadClausesExt};
use spread_rt::{IntegrityAction, IntegrityBoundary, IntegrityEvent, RtError, RunEvent, Runtime};
use spread_sim::FaultPlan;
use spread_somier::one_buffer::run_spread_scoped;
use spread_somier::reference::run_reference;
use spread_somier::SomierConfig;
use spread_trace::{SimTime, SpanKind};

/// The integrity events in the run ledger, in recording order.
fn integrity_events(rt: &Runtime) -> Vec<IntegrityEvent> {
    rt.events()
        .iter()
        .filter_map(RunEvent::integrity)
        .cloned()
        .collect()
}

const N_GPUS: usize = 4;

fn cfg() -> SomierConfig {
    SomierConfig::test_small(20, 2)
}

/// Three single-token bursts on distinct devices, armed from t=0.
fn flip_plan() -> FaultPlan {
    FaultPlan::new(11)
        .silent_flips(0, SimTime::ZERO, 1)
        .silent_flips(1, SimTime::ZERO, 1)
        .silent_flips(3, SimTime::ZERO, 1)
}

#[test]
fn integrity_variant_matches_reference_without_flips() {
    let cfg = cfg();
    let mut rt = cfg.runtime(N_GPUS);
    let report = run_spread_scoped(&mut rt, &cfg, N_GPUS, None, |c, _| {
        c.with_integrity(IntegrityMode::Verify)
    })
    .unwrap()
    .0;
    let reference = run_reference(&cfg, cfg.buffer_planes(N_GPUS));
    assert_eq!(report.centers, reference.centers, "centers bit-exact");
    assert_eq!(report.races, 0);
    assert!(
        integrity_events(&rt).is_empty(),
        "a clean run must never trip a checked boundary"
    );
}

#[test]
fn bit_identical_with_three_flips_under_heal() {
    let cfg = cfg();
    let mut rt = cfg.runtime_with_faults(N_GPUS, flip_plan());
    let report = run_spread_scoped(&mut rt, &cfg, N_GPUS, None, |c, _| {
        c.with_integrity(IntegrityMode::Heal)
    })
    .unwrap()
    .0;
    let reference = run_reference(&cfg, cfg.buffer_planes(N_GPUS));
    assert_eq!(
        report.centers, reference.centers,
        "healed run must be bit-identical to the reference"
    );
    assert_eq!(report.races, 0);
    let events = integrity_events(&rt);
    let healed: Vec<_> = events
        .iter()
        .filter(|e| e.action == IntegrityAction::Healed)
        .collect();
    assert_eq!(healed.len(), 3, "one healed commit per armed token");
    let mut devices: Vec<u32> = healed.iter().map(|e| e.device).collect();
    devices.sort_unstable();
    assert_eq!(devices, vec![0, 1, 3], "heals land on the flipped devices");
    for e in &events {
        assert_eq!(
            e.boundary,
            IntegrityBoundary::Commit,
            "flips surface at the staged-commit trust boundary"
        );
        assert_ne!(
            e.action,
            IntegrityAction::Quarantined,
            "single-token bursts stay far below the mismatch breaker"
        );
    }
    // Each heal leaves two Heal spans: the healer's redo marker plus
    // the `CorruptionHealed` marker its ledger event draws.
    let heal_spans = rt
        .timeline()
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Heal)
        .count();
    assert_eq!(heal_spans, 2 * healed.len(), "two Heal spans per heal");
}

#[test]
fn healing_is_deterministic() {
    let cfg = cfg();
    let run = || {
        let mut rt = cfg.runtime_with_faults(N_GPUS, flip_plan());
        let report = run_spread_scoped(&mut rt, &cfg, N_GPUS, None, |c, _| {
            c.with_integrity(IntegrityMode::Heal)
        })
        .unwrap()
        .0;
        (report.centers, integrity_events(&rt), rt.elapsed())
    };
    let (c1, e1, t1) = run();
    let (c2, e2, t2) = run();
    assert_eq!(c1, c2, "same machine, same centers");
    assert_eq!(e1, e2, "same machine, same event ledger");
    assert_eq!(t1, t2, "same machine, same virtual clock");
}

#[test]
fn verify_poisons_on_the_first_checked_boundary() {
    let cfg = cfg();
    let mut rt = cfg.runtime_with_faults(N_GPUS, flip_plan());
    let err = run_spread_scoped(&mut rt, &cfg, N_GPUS, None, |c, _| {
        c.with_integrity(IntegrityMode::Verify)
    })
    .unwrap_err();
    let RtError::IntegrityViolation { device, .. } = err else {
        panic!("verify must surface the corruption, got {err:?}");
    };
    assert!(
        [0, 1, 3].contains(&device),
        "the violation names a flipped device, got {device}"
    );
    assert!(
        integrity_events(&rt)
            .iter()
            .any(|e| e.action == IntegrityAction::Failed && e.device == device),
        "the ledger records the failed verification"
    );
}

/// Without the clause the same machine corrupts the run silently: the
/// flipped payloads commit unchecked and the centers drift from the
/// reference. This is the baseline `spread_integrity(heal)` erases.
///
/// The token count matters here: a scribble hits the *first element*
/// of a staged payload, and for the X/V/A/F grids that element is a
/// pinned boundary node the physics never reads back — benign SDC.
/// Fifteen tokens walk the flips through all five constructs of one
/// block (3 component drains each) so the last three land on the
/// per-plane partials, which feed the centers reduction directly.
#[test]
fn off_lets_the_rot_reach_the_host() {
    let cfg = cfg();
    let plan = FaultPlan::new(11).silent_flips(1, SimTime::ZERO, 15);
    let mut rt = cfg.runtime_with_faults(N_GPUS, plan);
    let report = run_spread_scoped(&mut rt, &cfg, N_GPUS, None, |c, _| {
        c.with_integrity(IntegrityMode::Off)
    })
    .unwrap()
    .0;
    let reference = run_reference(&cfg, cfg.buffer_planes(N_GPUS));
    assert_ne!(
        report.centers, reference.centers,
        "unchecked flips must corrupt the result"
    );
    assert!(
        integrity_events(&rt).is_empty(),
        "off mode never digests, so nothing is ever caught"
    );
}

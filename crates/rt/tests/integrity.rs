//! End-to-end data integrity at the runtime layer: silent in-flight
//! flips and at-rest scribbles versus `spread_integrity(off|verify|heal)`
//! — detection at the two trust boundaries (staged-commit drain, peer
//! receive), healing from the unharmed host image, and quarantine of
//! repeat offenders.

use spread_devices::{DeviceSpec, Topology};
use spread_rt::directives::Target;
use spread_rt::prelude::*;
use spread_rt::{
    Arms, ConstructIds, ExchangeMode, IntegrityAction, IntegrityBoundary, IntegrityEvent,
    IntegrityMode, RunEvent,
};
use spread_sim::FaultPlan;
use spread_trace::{Lane, SimTime, SpanKind};

/// The integrity events in the run ledger, in recording order.
fn integrity_events(rt: &Runtime) -> Vec<IntegrityEvent> {
    rt.events()
        .iter()
        .filter_map(RunEvent::integrity)
        .cloned()
        .collect()
}

fn runtime_n(n_devices: usize, plan: Option<FaultPlan>) -> Runtime {
    let topo = Topology::uniform(n_devices, DeviceSpec::v100(), 1e9, 1.5e9);
    let mut cfg = RuntimeConfig::new(topo).with_team_threads(2);
    if let Some(plan) = plan {
        cfg = cfg.with_fault_plan(plan);
    }
    Runtime::new(cfg)
}

fn bump_kernel(a: HostArray) -> KernelSpec {
    KernelSpec::new("bump", 1.0, |chunk, v| {
        for i in chunk {
            let x = v.get(0, i);
            v.set(0, i, x + 1.0);
        }
    })
    .arg(KernelArg::read_write(a, |r| r))
}

/// One offloaded `x += 1` over the whole array under the given policy.
fn run_bump(rt: &mut Runtime, a: HostArray, n: usize, mode: IntegrityMode) -> Result<(), RtError> {
    rt.run(|s| {
        Target::device(0)
            .map(tofrom(a, 0..n))
            .integrity(mode)
            .parallel_for(s, 0..n, bump_kernel(a))?;
        Ok(())
    })
}

#[test]
fn silent_flip_under_off_reaches_host_memory_unnoticed() {
    let n = 512;
    let plan = FaultPlan::new(11).silent_flips(0, SimTime::ZERO, 1);
    let mut rt = runtime_n(1, Some(plan));
    let a = rt.host_array("A", n);
    rt.fill_host(a, |i| i as f64);
    run_bump(&mut rt, a, n, IntegrityMode::Off).unwrap();
    let got = rt.snapshot_host(a);
    let expected: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
    // Exactly one element rotted — and nothing noticed.
    let wrong: Vec<usize> = (0..n)
        .filter(|&i| got[i].to_bits() != expected[i].to_bits())
        .collect();
    assert_eq!(wrong.len(), 1, "one flipped element reached host memory");
    assert!(integrity_events(&rt).is_empty(), "off computes no digests");
}

#[test]
fn silent_flip_under_verify_fails_the_construct_at_the_commit_drain() {
    let n = 512;
    let plan = FaultPlan::new(11).silent_flips(0, SimTime::ZERO, 1);
    let mut rt = runtime_n(1, Some(plan));
    let a = rt.host_array("A", n);
    rt.fill_host(a, |i| i as f64);
    let reference = rt.snapshot_host(a);
    let err = run_bump(&mut rt, a, n, IntegrityMode::Verify).unwrap_err();
    assert!(
        matches!(err, RtError::IntegrityViolation { device: 0, .. }),
        "{err:?}"
    );
    // The tainted staged set never touched host memory.
    assert_eq!(rt.snapshot_host(a), reference);
    let events = integrity_events(&rt);
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].device, 0);
    assert_eq!(events[0].boundary, IntegrityBoundary::Commit);
    assert_eq!(events[0].action, IntegrityAction::Failed);
    assert_eq!(events[0].section, a.section(0..n));
    assert!(
        rt.timeline()
            .spans()
            .iter()
            .any(|s| s.kind == SpanKind::Verify),
        "the detection left a Verify marker"
    );
}

/// Register the canonical heal recoverer over a construct's phases:
/// forgive the faulted footprints and re-execute the whole construct
/// fresh from the unharmed host image, then complete the faulted task.
fn arm_heal(scope: &mut Scope<'_>, a: HostArray, n: usize, ids: ConstructIds) {
    scope.on_task_failure(&ids.all(), 0, Arms::Integrity, move |s, faulted, err| {
        assert!(matches!(err, RtError::IntegrityViolation { .. }), "{err:?}");
        for id in ids.all() {
            s.forgive_task_footprints(id);
        }
        let redo = Target::device(0)
            .map(tofrom(a, 0..n))
            .integrity(IntegrityMode::Heal)
            .parallel_for_phases(s, 0..n, bump_kernel(a))
            .expect("heal re-execution launches");
        s.task_chained("heal-complete", vec![redo.exit], None, move |s2| {
            s2.force_complete(faulted);
        });
    });
}

#[test]
fn silent_flip_under_heal_re_executes_and_lands_bit_identical() {
    let n = 512;
    let plan = FaultPlan::new(11).silent_flips(0, SimTime::ZERO, 1);
    let mut rt = runtime_n(1, Some(plan));
    let a = rt.host_array("A", n);
    rt.fill_host(a, |i| i as f64);
    rt.run(|s| {
        let ids = Target::device(0)
            .map(tofrom(a, 0..n))
            .integrity(IntegrityMode::Heal)
            .parallel_for_phases(s, 0..n, bump_kernel(a))?;
        arm_heal(s, a, n, ids);
        Ok(())
    })
    .unwrap();
    let expected: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
    assert_eq!(rt.snapshot_host(a), expected, "healed run is bit-identical");
    let events = integrity_events(&rt);
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].action, IntegrityAction::Healed);
    assert_eq!(events[0].boundary, IntegrityBoundary::Commit);
    assert_eq!(rt.events().len(), 1, "the heal is recorded once");
    let heal_marks: Vec<_> = rt
        .timeline()
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Heal)
        .map(|s| (s.lane, s.label.clone()))
        .collect();
    assert_eq!(
        heal_marks,
        [(Lane::compute(0), format!("CorruptionHealed [0..{n})"))]
    );
    assert!(rt
        .timeline()
        .spans()
        .iter()
        .any(|s| s.kind == SpanKind::Heal));
}

/// Find the mid-point of the first D2H transfer span of a clean run of
/// `run_bump` — the window where a staged snapshot sits at rest.
fn staged_window_midpoint(n: usize) -> SimTime {
    let mut rt = runtime_n(1, None);
    let a = rt.host_array("A", n);
    rt.fill_host(a, |i| i as f64);
    run_bump(&mut rt, a, n, IntegrityMode::Off).unwrap();
    let tl = rt.timeline();
    let d2h = tl
        .spans()
        .iter()
        .find(|s| s.kind == SpanKind::TransferOut)
        .expect("the exit ran a D2H transfer");
    d2h.start + (d2h.end - d2h.start) / 2
}

#[test]
fn memory_scribble_at_rest_is_caught_at_the_commit_drain() {
    let n = 4096;
    let mid = staged_window_midpoint(n);
    let plan = FaultPlan::new(3).scribble(0, mid);
    let mut rt = runtime_n(1, Some(plan));
    let a = rt.host_array("A", n);
    rt.fill_host(a, |i| i as f64);
    let err = run_bump(&mut rt, a, n, IntegrityMode::Verify).unwrap_err();
    assert!(matches!(err, RtError::IntegrityViolation { .. }), "{err:?}");
    let events = integrity_events(&rt);
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].boundary, IntegrityBoundary::Commit);
}

#[test]
fn memory_scribble_under_off_corrupts_the_host_image() {
    let n = 4096;
    let mid = staged_window_midpoint(n);
    let plan = FaultPlan::new(3).scribble(0, mid);
    let mut rt = runtime_n(1, Some(plan));
    let a = rt.host_array("A", n);
    rt.fill_host(a, |i| i as f64);
    run_bump(&mut rt, a, n, IntegrityMode::Off).unwrap();
    let got = rt.snapshot_host(a);
    let expected: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
    let wrong = (0..n)
        .filter(|&i| got[i].to_bits() != expected[i].to_bits())
        .count();
    assert_eq!(wrong, 1, "the scribbled bit flowed through to the host");
}

#[test]
fn a_scribble_with_nothing_staged_is_inert() {
    // Planned before any D2H snapshot exists: at-rest corruption needs
    // bytes at rest.
    let n = 256;
    let plan = FaultPlan::new(3).scribble(0, SimTime::ZERO);
    let mut rt = runtime_n(1, Some(plan));
    let a = rt.host_array("A", n);
    rt.fill_host(a, |i| i as f64);
    run_bump(&mut rt, a, n, IntegrityMode::Verify).unwrap();
    let expected: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
    assert_eq!(rt.snapshot_host(a), expected);
    assert!(integrity_events(&rt).is_empty());
}

/// Stage device 1 for a peer pull of `a` from device 0.
fn peer_setup(s: &mut Scope<'_>, a: HostArray, n: usize) -> Result<(), RtError> {
    TargetEnterData::device(0).map(to(a, 0..n)).launch(s)?;
    TargetEnterData::device(1).map(alloc(a, 0..n)).launch(s)?;
    Ok(())
}

#[test]
fn peer_flip_under_verify_fails_at_the_receive() {
    let n = 1024;
    let plan = FaultPlan::new(5).silent_flips(1, SimTime::ZERO, 1);
    let mut rt = runtime_n(2, Some(plan));
    let a = rt.host_array("A", n);
    rt.fill_host(a, |i| (i as f64).cos());
    let err = rt
        .run(|s| {
            peer_setup(s, a, n)?;
            TargetUpdate::device(1)
                .to(a.section(0..n))
                .exchange(ExchangeMode::Auto)
                .integrity(IntegrityMode::Verify)
                .launch(s)?;
            Ok(())
        })
        .unwrap_err();
    assert!(
        matches!(err, RtError::IntegrityViolation { device: 1, .. }),
        "{err:?}"
    );
    let events = integrity_events(&rt);
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].boundary, IntegrityBoundary::Peer);
    assert_eq!(events[0].action, IntegrityAction::Failed);
}

#[test]
fn peer_flip_under_heal_refetches_from_the_host_image() {
    let n = 1024;
    let plan = FaultPlan::new(5).silent_flips(1, SimTime::ZERO, 1);
    let mut rt = runtime_n(2, Some(plan));
    let a = rt.host_array("A", n);
    rt.fill_host(a, |i| (i as f64).cos());
    let reference = rt.snapshot_host(a);
    rt.run(|s| {
        peer_setup(s, a, n)?;
        TargetUpdate::device(1)
            .to(a.section(0..n))
            .exchange(ExchangeMode::Auto)
            .integrity(IntegrityMode::Heal)
            .launch(s)?;
        TargetUpdate::device(1).from(a.section(0..n)).launch(s)?;
        Ok(())
    })
    .unwrap();
    assert_eq!(rt.snapshot_host(a), reference, "healed pull is bit-exact");
    let records: Vec<_> = rt
        .events()
        .iter()
        .filter_map(RunEvent::peer_copy)
        .cloned()
        .collect();
    assert_eq!(records.len(), 1);
    assert!(records[1 - 1].diverted, "the heal replayed the host path");
    let events = integrity_events(&rt);
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].boundary, IntegrityBoundary::Peer);
    assert_eq!(events[0].action, IntegrityAction::Healed);
    assert!(rt
        .timeline()
        .spans()
        .iter()
        .any(|s| s.label.ends_with("(host fallback)")));
    assert!(rt
        .timeline()
        .spans()
        .iter()
        .any(|s| s.lane == Lane::compute(1) && s.label == format!("CorruptionHealed [0..{n})")));
}

#[test]
fn a_mismatch_streak_quarantines_the_device() {
    let n = 256;
    let topo = Topology::uniform(2, DeviceSpec::v100(), 1e9, 1.5e9);
    let mut rt = Runtime::new(
        RuntimeConfig::new(topo)
            .with_team_threads(2)
            .with_breaker(2)
            .with_fault_plan(FaultPlan::new(5).silent_flips(1, SimTime::ZERO, 10)),
    );
    let a = rt.host_array("A", n);
    rt.fill_host(a, |i| i as f64 * 0.5);
    let err = rt
        .run(|s| {
            peer_setup(s, a, n)?;
            for _ in 0..2 {
                TargetUpdate::device(1)
                    .to(a.section(0..n))
                    .exchange(ExchangeMode::Auto)
                    .integrity(IntegrityMode::Heal)
                    .launch(s)?;
            }
            Ok(())
        })
        .unwrap_err();
    assert!(
        matches!(err, RtError::IntegrityViolation { device: 1, .. }),
        "{err:?}"
    );
    let events = integrity_events(&rt);
    assert_eq!(events.len(), 2);
    assert_eq!(events[0].action, IntegrityAction::Healed);
    assert_eq!(events[1].action, IntegrityAction::Quarantined);
    assert_eq!(rt.lost_devices(), vec![1], "quarantine = permanent loss");
}

#[test]
fn a_clean_checked_transfer_resets_the_streak() {
    // Three flips, breaker 2 — but a clean verified pull between bursts
    // keeps the streak below the breaker, so every mismatch heals.
    let n = 256;
    let topo = Topology::uniform(2, DeviceSpec::v100(), 1e9, 1.5e9);
    let mut rt = Runtime::new(
        RuntimeConfig::new(topo)
            .with_team_threads(2)
            .with_breaker(2)
            .with_fault_plan(FaultPlan::new(5).silent_flips(1, SimTime::ZERO, 1)),
    );
    let a = rt.host_array("A", n);
    rt.fill_host(a, |i| i as f64 * 0.5);
    let reference = rt.snapshot_host(a);
    rt.run(|s| {
        peer_setup(s, a, n)?;
        for _ in 0..3 {
            TargetUpdate::device(1)
                .to(a.section(0..n))
                .exchange(ExchangeMode::Auto)
                .integrity(IntegrityMode::Heal)
                .launch(s)?;
        }
        TargetUpdate::device(1).from(a.section(0..n)).launch(s)?;
        Ok(())
    })
    .unwrap();
    assert_eq!(rt.snapshot_host(a), reference);
    let events = integrity_events(&rt);
    assert_eq!(events.len(), 1, "only the first pull had a token to burn");
    assert_eq!(events[0].action, IntegrityAction::Healed);
    assert!(rt.lost_devices().is_empty());
}

#[test]
#[should_panic(expected = "invalid fault plan")]
fn malformed_fault_plans_are_rejected_at_construction() {
    let topo = Topology::uniform(1, DeviceSpec::v100(), 1e9, 1.5e9);
    let plan = FaultPlan::new(1).silent_flips(0, SimTime::ZERO, 0);
    Runtime::new(RuntimeConfig::new(topo).with_fault_plan(plan));
}

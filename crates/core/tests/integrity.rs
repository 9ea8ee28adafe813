//! Fault-injected end-to-end tests of the `spread_integrity(…)` clause:
//! a `target spread` construct detecting silent payload corruption at
//! the staged-commit drain, healing tainted pieces from the unharmed
//! host image, quarantining repeat offenders, and composing with
//! `spread_resilience(redistribute)` across genuine device loss.

use spread_core::prelude::*;
use spread_devices::{DeviceSpec, Topology};
use spread_rt::kernel::KernelArg;
use spread_rt::prelude::*;
use spread_rt::{IntegrityAction, IntegrityBoundary, IntegrityEvent, RunEvent};
use spread_sim::FaultPlan;
use spread_trace::{SimTime, SpanKind};

/// The integrity events in the run ledger, in recording order.
fn integrity_events(rt: &Runtime) -> Vec<IntegrityEvent> {
    rt.events()
        .iter()
        .filter_map(RunEvent::integrity)
        .cloned()
        .collect()
}

fn runtime(n_devices: usize, plan: Option<FaultPlan>, breaker: u32) -> Runtime {
    let topo = Topology::uniform(
        n_devices,
        DeviceSpec::v100().with_mem_bytes(1 << 22),
        1e9,
        1.5e9,
    );
    let mut cfg = RuntimeConfig::new(topo)
        .with_team_threads(2)
        .with_breaker(breaker);
    if let Some(p) = plan {
        cfg = cfg.with_fault_plan(p);
    }
    Runtime::new(cfg)
}

/// `B[i] = 3*A[i] + 1` spread over the devices in 64-iteration chunks.
fn run_scale(
    rt: &mut Runtime,
    devices: Vec<u32>,
    mode: IntegrityMode,
    resilience: ResiliencePolicy,
    n: usize,
) -> Result<Vec<f64>, RtError> {
    let a = rt.host_array("A", n);
    let b = rt.host_array("B", n);
    rt.fill_host(a, |i| i as f64);
    rt.run(|s| {
        TargetSpread::devices(devices.clone())
            .with_schedule(SpreadSchedule::static_chunk(64))
            .with_integrity(mode)
            .with_resilience(resilience)
            .map(spread_to(a, |c| c.range()))
            .map(spread_from(b, |c| c.range()))
            .parallel_for(
                s,
                0..n,
                KernelSpec::new("scale", 2.0, |chunk, v| {
                    for i in chunk {
                        v.set(1, i, 3.0 * v.get(0, i) + 1.0);
                    }
                })
                .arg(KernelArg::read(a, |r| r))
                .arg(KernelArg::write(b, |r| r)),
            )?;
        Ok(())
    })?;
    Ok(rt.snapshot_host(b))
}

/// Reference output and virtual mid-point of a fault-free run.
fn clean_run(n_dev: usize, n: usize) -> (Vec<f64>, SimTime) {
    let mut rt = runtime(n_dev, None, 8);
    let devices: Vec<u32> = (0..n_dev as u32).collect();
    let out = run_scale(
        &mut rt,
        devices,
        IntegrityMode::Off,
        ResiliencePolicy::FailStop,
        n,
    )
    .unwrap();
    let mid = SimTime::from_nanos(rt.elapsed().as_nanos() / 2);
    (out, mid)
}

#[test]
fn off_lets_a_flip_flow_through_silently() {
    let n = 512;
    let (expect, _) = clean_run(4, n);
    let plan = FaultPlan::new(11).silent_flips(1, SimTime::ZERO, 1);
    let mut rt = runtime(4, Some(plan), 8);
    let out = run_scale(
        &mut rt,
        vec![0, 1, 2, 3],
        IntegrityMode::Off,
        ResiliencePolicy::FailStop,
        n,
    )
    .unwrap();
    let wrong = (0..n)
        .filter(|&i| out[i].to_bits() != expect[i].to_bits())
        .count();
    assert_eq!(wrong, 1, "exactly one element rotted on the way home");
    assert!(integrity_events(&rt).is_empty(), "off computes no digests");
}

#[test]
fn verify_fails_the_construct_and_names_the_device() {
    let n = 512;
    let plan = FaultPlan::new(11).silent_flips(2, SimTime::ZERO, 1);
    let mut rt = runtime(4, Some(plan), 8);
    let err = run_scale(
        &mut rt,
        vec![0, 1, 2, 3],
        IntegrityMode::Verify,
        ResiliencePolicy::FailStop,
        n,
    )
    .unwrap_err();
    assert!(
        matches!(err, RtError::IntegrityViolation { device: 2, .. }),
        "{err:?}"
    );
    let events = integrity_events(&rt);
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].device, 2);
    assert_eq!(events[0].boundary, IntegrityBoundary::Commit);
    assert_eq!(events[0].action, IntegrityAction::Failed);
}

#[test]
fn heal_completes_bit_identical_with_flips_injected() {
    let n = 512;
    let (expect, _) = clean_run(4, n);
    // Three flips across two devices — every tainted commit is caught,
    // discarded, and re-executed from the host image.
    let plan = FaultPlan::new(11)
        .silent_flips(1, SimTime::ZERO, 2)
        .silent_flips(3, SimTime::ZERO, 1);
    let mut rt = runtime(4, Some(plan), 8);
    let out = run_scale(
        &mut rt,
        vec![0, 1, 2, 3],
        IntegrityMode::Heal,
        ResiliencePolicy::FailStop,
        n,
    )
    .unwrap();
    assert_eq!(out, expect, "healed results must be bit-identical");
    assert!(rt.races().is_empty());
    let events = integrity_events(&rt);
    assert_eq!(events.len(), 3, "three flips, three detections");
    assert!(events
        .iter()
        .all(|e| e.action == IntegrityAction::Healed && e.boundary == IntegrityBoundary::Commit));
    assert!(rt.lost_devices().is_empty(), "nobody hit the breaker");
    let heals = rt
        .timeline()
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Heal)
        .count();
    assert!(heals >= 3, "each detection leaves a Heal span, got {heals}");
}

#[test]
fn a_mismatch_streak_quarantines_and_the_redo_lands_on_a_sibling() {
    let n = 512;
    let (expect, _) = clean_run(4, n);
    // Device 1 lies on every commit; breaker 2 quarantines it after two
    // consecutive mismatches and the piece re-routes to a survivor.
    let plan = FaultPlan::new(11).silent_flips(1, SimTime::ZERO, 32);
    let mut rt = runtime(4, Some(plan), 2);
    let out = run_scale(
        &mut rt,
        vec![0, 1, 2, 3],
        IntegrityMode::Heal,
        ResiliencePolicy::FailStop,
        n,
    )
    .unwrap();
    assert_eq!(out, expect, "quarantine still lands bit-identical results");
    assert_eq!(rt.lost_devices(), vec![1], "the liar is quarantined");
    let events = integrity_events(&rt);
    assert!(
        events
            .iter()
            .any(|e| e.action == IntegrityAction::Quarantined && e.device == 1),
        "the streak must escalate to quarantine: {events:?}"
    );
    // Quarantine wipes the offender like a loss: nothing left mapped.
    assert_eq!(rt.device_mem_used(1), 0);
}

#[test]
fn heal_composes_with_redistribute_across_a_genuine_loss() {
    let n = 512;
    let (expect, mid) = clean_run(4, n);
    let plan = FaultPlan::new(7)
        .lose_device(3, mid)
        .silent_flips(1, SimTime::ZERO, 1);
    let mut rt = runtime(4, Some(plan), 8);
    let out = run_scale(
        &mut rt,
        vec![0, 1, 2, 3],
        IntegrityMode::Heal,
        ResiliencePolicy::Redistribute,
        n,
    )
    .unwrap();
    assert_eq!(out, expect, "loss redistributed and flip healed at once");
    assert!(integrity_events(&rt)
        .iter()
        .any(|e| e.action == IntegrityAction::Healed && e.device == 1));
}

#[test]
fn heal_without_redistribute_fail_stops_on_genuine_loss() {
    let n = 512;
    let (_, mid) = clean_run(4, n);
    let plan = FaultPlan::new(7).lose_device(1, mid);
    let mut rt = runtime(4, Some(plan), 8);
    let err = run_scale(
        &mut rt,
        vec![0, 1, 2, 3],
        IntegrityMode::Heal,
        ResiliencePolicy::FailStop,
        n,
    )
    .unwrap_err();
    assert!(
        matches!(err, RtError::DeviceLost { .. }),
        "healing covers lies, not dead hardware: {err:?}"
    );
}

#[test]
fn heal_without_faults_matches_fail_stop_exactly() {
    let n = 512;
    let (expect, _) = clean_run(4, n);
    let mut rt = runtime(4, None, 8);
    let out = run_scale(
        &mut rt,
        vec![0, 1, 2, 3],
        IntegrityMode::Heal,
        ResiliencePolicy::FailStop,
        n,
    )
    .unwrap();
    assert_eq!(out, expect);
    assert!(integrity_events(&rt).is_empty(), "no fault, no detections");
    let heals = rt
        .timeline()
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Heal)
        .count();
    assert_eq!(heals, 0, "no fault, no heal work");
}

#[test]
fn healing_is_deterministic() {
    let n = 512;
    let run = || {
        let plan = FaultPlan::new(11).silent_flips(1, SimTime::ZERO, 2);
        let mut rt = runtime(4, Some(plan), 8);
        let out = run_scale(
            &mut rt,
            vec![0, 1, 2, 3],
            IntegrityMode::Heal,
            ResiliencePolicy::FailStop,
            n,
        )
        .unwrap();
        (out, integrity_events(&rt).len(), rt.elapsed())
    };
    assert_eq!(run(), run(), "same plan, same seed => identical healing");
}

#[test]
fn update_spread_verify_catches_a_flipped_drain() {
    let n = 128;
    let plan = FaultPlan::new(5).silent_flips(1, SimTime::ZERO, 1);
    let mut rt = runtime(2, Some(plan), 8);
    let a = rt.host_array("A", n);
    rt.fill_host(a, |i| i as f64);
    let err = rt
        .run(|s| {
            TargetEnterDataSpread::devices([0, 1])
                .range(0, n)
                .chunk_size(64)
                .map(spread_to(a, |c| c.range()))
                .launch(s)?;
            TargetUpdateSpread::devices([0, 1])
                .range(0, n)
                .chunk_size(64)
                .with_integrity(IntegrityMode::Verify)
                .from(a, |c| c.range())
                .launch(s)?;
            Ok(())
        })
        .unwrap_err();
    assert!(
        matches!(err, RtError::IntegrityViolation { device: 1, .. }),
        "{err:?}"
    );
}

//! Fault-injected end-to-end tests of the `spread_resilience(…)`
//! clause: a `target spread` construct surviving permanent device loss
//! by rebuilding the dead device's chunks on the survivors.

use spread_core::prelude::*;
use spread_devices::{DeviceSpec, Topology};
use spread_rt::kernel::KernelArg;
use spread_rt::prelude::*;
use spread_rt::task::LiveCounts;
use spread_sim::FaultPlan;
use spread_trace::{SimTime, SpanKind};

fn runtime(n_devices: usize, plan: Option<FaultPlan>) -> Runtime {
    let topo = Topology::uniform(
        n_devices,
        DeviceSpec::v100().with_mem_bytes(1 << 22),
        1e9,
        1.5e9,
    );
    let mut cfg = RuntimeConfig::new(topo).with_team_threads(2);
    if let Some(p) = plan {
        cfg = cfg.with_fault_plan(p);
    }
    Runtime::new(cfg)
}

/// `B[i] = 3*A[i] + 1` spread over all devices in 64-iteration chunks.
fn run_scale(
    rt: &mut Runtime,
    devices: Vec<u32>,
    policy: ResiliencePolicy,
    n: usize,
) -> Result<Vec<f64>, RtError> {
    let a = rt.host_array("A", n);
    let b = rt.host_array("B", n);
    rt.fill_host(a, |i| i as f64);
    launch_scale(rt, a, b, &devices, policy, n)?;
    Ok(rt.snapshot_host(b))
}

/// One `run_scale` construct over existing arrays, drained.
fn launch_scale(
    rt: &mut Runtime,
    a: HostArray,
    b: HostArray,
    devices: &[u32],
    policy: ResiliencePolicy,
    n: usize,
) -> Result<(), RtError> {
    rt.run(|s| {
        TargetSpread::devices(devices.to_vec())
            .with_schedule(SpreadSchedule::static_chunk(64))
            .with_resilience(policy)
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
    })
}

/// Virtual mid-point of a fault-free run of the same program.
fn clean_run(n_dev: usize, n: usize) -> (Vec<f64>, SimTime) {
    let mut rt = runtime(n_dev, None);
    let devices: Vec<u32> = (0..n_dev as u32).collect();
    let out = run_scale(&mut rt, devices, ResiliencePolicy::FailStop, n).unwrap();
    let mid = SimTime::from_nanos(rt.elapsed().as_nanos() / 2);
    (out, mid)
}

#[test]
fn redistribute_completes_bit_identical_after_mid_run_loss() {
    let n = 512;
    let (expect, mid) = clean_run(4, n);

    let plan = FaultPlan::new(7).lose_device(1, mid);
    let mut rt = runtime(4, Some(plan));
    let out = run_scale(&mut rt, vec![0, 1, 2, 3], ResiliencePolicy::Redistribute, n).unwrap();

    assert_eq!(out, expect, "recovered results must be bit-identical");
    assert!(rt.races().is_empty());
    // The dead device's chunks really moved: redistribution spans exist
    // and none of them routes back to the dead device.
    let tl = rt.timeline();
    let redists: Vec<_> = tl
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Redistribute)
        .collect();
    assert!(!redists.is_empty(), "loss mid-run must trigger recovery");
    for s in &redists {
        assert_ne!(s.lane.device(), Some(1), "never redistribute to the corpse");
    }
    // Loss cleanup released everything the dead device held.
    assert_eq!(rt.device_mem_used(1), 0);
}

#[test]
fn redistribute_recovers_loss_at_time_zero() {
    let n = 512;
    let (expect, _) = clean_run(4, n);
    // Device 2 is dead before its first enter even starts: every one of
    // its chunks faults at task start and is rebuilt elsewhere.
    let plan = FaultPlan::new(11).lose_device(2, SimTime::ZERO);
    let mut rt = runtime(4, Some(plan));
    let out = run_scale(&mut rt, vec![0, 1, 2, 3], ResiliencePolicy::Redistribute, n).unwrap();
    assert_eq!(out, expect);
}

#[test]
fn redistribute_survives_cascading_losses() {
    let n = 512;
    let (expect, mid) = clean_run(4, n);
    let quarter = SimTime::from_nanos(mid.as_nanos() / 2);
    let plan = FaultPlan::new(13)
        .lose_device(3, quarter)
        .lose_device(0, mid);
    let mut rt = runtime(4, Some(plan));
    let out = run_scale(&mut rt, vec![0, 1, 2, 3], ResiliencePolicy::Redistribute, n).unwrap();
    assert_eq!(out, expect, "two losses, still bit-identical");
}

#[test]
fn redistribute_is_deterministic() {
    let n = 512;
    let (_, mid) = clean_run(4, n);
    let run = || {
        let plan = FaultPlan::new(7).lose_device(1, mid);
        let mut rt = runtime(4, Some(plan));
        let out = run_scale(&mut rt, vec![0, 1, 2, 3], ResiliencePolicy::Redistribute, n).unwrap();
        let redists = rt
            .timeline()
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Redistribute)
            .count();
        (out, redists, rt.elapsed())
    };
    assert_eq!(run(), run(), "same plan, same seed => identical recovery");
}

#[test]
fn fail_stop_reports_device_lost_deterministically() {
    let n = 512;
    let (_, mid) = clean_run(4, n);
    let run = || {
        let plan = FaultPlan::new(7).lose_device(1, mid);
        let mut rt = runtime(4, Some(plan));
        run_scale(&mut rt, vec![0, 1, 2, 3], ResiliencePolicy::FailStop, n)
            .unwrap_err()
            .to_string()
    };
    let msg = run();
    assert!(
        msg.contains("device 1 lost"),
        "fail-stop must name the lost device, got: {msg}"
    );
    assert_eq!(run(), msg, "fail-stop error must be deterministic");
}

#[test]
fn redistribute_fails_when_every_device_is_dead() {
    let plan = FaultPlan::new(3)
        .lose_device(0, SimTime::ZERO)
        .lose_device(1, SimTime::ZERO);
    let mut rt = runtime(2, Some(plan));
    let err = run_scale(&mut rt, vec![0, 1], ResiliencePolicy::Redistribute, 128).unwrap_err();
    assert!(
        matches!(err, RtError::DeviceLost { .. }),
        "no survivors => the loss surfaces, got: {err}"
    );
}

#[test]
fn dynamic_schedule_rejects_redistribute() {
    let mut rt = runtime(2, None);
    let a = rt.host_array("A", 64);
    let err = rt
        .run(|s| {
            TargetSpread::devices([0, 1])
                .with_schedule(SpreadSchedule::dynamic(16))
                .with_resilience(ResiliencePolicy::Redistribute)
                .map(spread_tofrom(a, |c| c.range()))
                .parallel_for(
                    s,
                    0..64,
                    KernelSpec::new("id", 1.0, |_, _| {}).arg(KernelArg::read(a, |r| r)),
                )?;
            Ok(())
        })
        .unwrap_err();
    assert!(matches!(err, RtError::InvalidDirective(_)));
}

#[test]
fn resilient_spread_without_faults_matches_fail_stop_exactly() {
    let n = 512;
    let (expect, _) = clean_run(4, n);
    let mut rt = runtime(4, None);
    let out = run_scale(&mut rt, vec![0, 1, 2, 3], ResiliencePolicy::Redistribute, n).unwrap();
    assert_eq!(out, expect);
    let redists = rt
        .timeline()
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Redistribute)
        .count();
    assert_eq!(redists, 0, "no fault, no recovery work");
}

/// Every guarded construct registers one handler per phase task. They
/// must go when their tasks complete — fired or not — or a long run
/// pins every construct's coordinator for the life of the runtime.
#[test]
fn recovery_handlers_are_released_at_every_quiescence_point() {
    let n = 512;
    let run = |plan: Option<FaultPlan>| {
        let mut rt = runtime(4, plan);
        let a = rt.host_array("A", n);
        let b = rt.host_array("B", n);
        rt.fill_host(a, |i| i as f64);
        for round in 0..200 {
            launch_scale(
                &mut rt,
                a,
                b,
                &[0, 1, 2, 3],
                ResiliencePolicy::Redistribute,
                n,
            )
            .unwrap();
            assert_eq!(rt.live_counts(), LiveCounts::default(), "round {round}");
        }
        let timeline = rt.timeline();
        let redone = timeline.spans().iter();
        let redone = redone.filter(|s| s.kind == SpanKind::Redistribute).count();
        (rt.snapshot_host(b), rt.elapsed(), redone)
    };
    let (expect, clean, _) = run(None);
    // A device dies half-way: the rounds around the loss fire handlers,
    // the later ones register them for a device that is already gone.
    let mid = SimTime::from_nanos(clean.as_nanos() / 2);
    let (out, _, redone) = run(Some(FaultPlan::new(7).lose_device(1, mid)));
    assert_eq!(out, expect);
    assert!(
        redone > 100,
        "{redone} chunks redone: the loss must land mid-run"
    );
}

//! End-to-end tests of the `spread_pressure(…)` clause: a `target
//! spread` construct degrading gracefully — admission moves, chunk
//! splits, host spill — instead of failing when device memory cannot
//! hold its mapped sections, always with bit-identical results.

use spread_core::prelude::*;
use spread_devices::{DeviceSpec, Topology};
use spread_rt::kernel::KernelArg;
use spread_rt::prelude::*;
use spread_rt::RunEvent;
use spread_semantics::{DegKind, Degradation};
use spread_sim::FaultPlan;
use spread_trace::{SimTime, SpanKind};

/// The degradations in the run ledger, in recording order.
fn degradations(rt: &Runtime) -> Vec<Degradation> {
    rt.events()
        .iter()
        .filter_map(RunEvent::degradation)
        .cloned()
        .collect()
}

fn runtime(n_devices: usize, mem_bytes: u64, plan: Option<FaultPlan>) -> Runtime {
    let topo = Topology::uniform(
        n_devices,
        DeviceSpec::v100().with_mem_bytes(mem_bytes),
        1e9,
        1.5e9,
    );
    let mut cfg = RuntimeConfig::new(topo).with_team_threads(2);
    if let Some(p) = plan {
        cfg = cfg.with_fault_plan(p);
    }
    Runtime::new(cfg)
}

/// `B[i] = 3*A[i] + 1` spread in 64-iteration chunks under a pressure
/// policy. Footprint per chunk: (64 + 64) * 8 = 1024 bytes.
fn run_scale(
    rt: &mut Runtime,
    devices: Vec<u32>,
    policy: PressurePolicy,
    n: usize,
) -> Result<Vec<f64>, RtError> {
    let a = rt.host_array("A", n);
    let b = rt.host_array("B", n);
    rt.fill_host(a, |i| i as f64);
    rt.run(|s| {
        TargetSpread::devices(devices.clone())
            .with_schedule(SpreadSchedule::static_chunk(64))
            .with_pressure(policy)
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

fn expected(n: usize) -> Vec<f64> {
    (0..n).map(|i| 3.0 * i as f64 + 1.0).collect()
}

#[test]
fn no_pressure_means_no_degradation() {
    let mut rt = runtime(2, 1 << 22, None);
    let out = run_scale(&mut rt, vec![0, 1], PressurePolicy::Split, 128).unwrap();
    assert_eq!(out, expected(128));
    assert!(degradations(&rt).is_empty());
    assert!(rt.races().is_empty());
}

#[test]
fn admission_moves_chunk_off_pressured_device() {
    // A sustained OOM window fills device 0 before anything launches:
    // its chunk re-homes to device 1 at admission time, no split needed.
    let cap = 8192;
    let plan = FaultPlan::new(21).sustain_pressure(0, SimTime::ZERO, cap);
    let mut rt = runtime(2, cap, Some(plan));
    let out = run_scale(&mut rt, vec![0, 1], PressurePolicy::Split, 128).unwrap();
    assert_eq!(out, expected(128));
    let evs = degradations(&rt);
    assert_eq!(evs.len(), 1, "exactly one admission move, got {evs:?}");
    assert_eq!(evs[0].kind, DegKind::AdmissionShrunk);
    assert_eq!(evs[0].device, Some(1));
    assert_eq!((evs[0].start, evs[0].len), (0, 64));
    assert!(rt.races().is_empty());
}

#[test]
fn oversized_chunks_split_recursively_and_complete() {
    // 768 B per device: no device holds a 1024 B chunk, but the
    // construct's 2048 B total fits the 2304 B fleet — chunks split
    // (one of them twice) and everything completes bit-identically.
    let mut rt = runtime(3, 768, None);
    let out = run_scale(&mut rt, vec![0, 1, 2], PressurePolicy::Split, 128).unwrap();
    assert_eq!(out, expected(128));
    let evs = degradations(&rt);
    assert!(
        evs.len() >= 4,
        "two oversized chunks must split at least once each, got {evs:?}"
    );
    assert!(evs.iter().all(|e| e.kind == DegKind::ChunkSplit));
    // The split pieces tile the iteration space exactly.
    let covered: usize = evs.iter().map(|e| e.len).sum();
    assert_eq!(covered, 128);
    // And the trace shows the split glyphs.
    let splits = rt
        .timeline()
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::ChunkSplit)
        .count();
    assert_eq!(splits, evs.len());
    assert!(rt.races().is_empty());
}

#[test]
fn spill_completes_when_no_device_has_headroom() {
    // Sustained pressure fills both devices entirely: every chunk
    // executes through the host staging buffer, results still exact.
    let cap = 8192;
    let plan = FaultPlan::new(23)
        .sustain_pressure(0, SimTime::ZERO, cap)
        .sustain_pressure(1, SimTime::ZERO, cap);
    let mut rt = runtime(2, cap, Some(plan));
    let out = run_scale(&mut rt, vec![0, 1], PressurePolicy::Spill, 128).unwrap();
    assert_eq!(out, expected(128));
    let evs = degradations(&rt);
    assert_eq!(evs.len(), 2, "both chunks spill whole, got {evs:?}");
    assert!(evs.iter().all(|e| e.kind == DegKind::Spilled));
    assert!(evs.iter().all(|e| e.device.is_none()));
    assert_eq!(evs.iter().map(|e| e.bytes).sum::<u64>(), 2048);
    let spans = rt.timeline();
    assert!(spans.spans().iter().any(|s| s.kind == SpanKind::Spill));
}

#[test]
fn split_policy_fails_degraded_when_hopeless() {
    let cap = 8192;
    let plan = FaultPlan::new(23)
        .sustain_pressure(0, SimTime::ZERO, cap)
        .sustain_pressure(1, SimTime::ZERO, cap);
    let mut rt = runtime(2, cap, Some(plan));
    let err = run_scale(&mut rt, vec![0, 1], PressurePolicy::Split, 128).unwrap_err();
    assert!(
        matches!(err, RtError::Degraded { .. }),
        "split without spill must surface Degraded, got: {err}"
    );
}

#[test]
fn reactive_split_recovers_from_fragmentation() {
    // Admission's byte budget is blind to holes: carve the pool into
    // two free blocks of 2048 B and 1536 B (3584 B free in total), then
    // ask for one 3072 B chunk. Admission admits it (3072 <= 3584), the
    // enter's contiguous allocation fails past its retries, and the
    // reactive handler splits the chunk into two 1536 B halves that fit
    // the holes one after the other.
    let mut rt = runtime(1, 4096, None);
    let n = 384;
    let big = rt.host_array("big", 256);
    let small = rt.host_array("small", 64);
    let x = rt.host_array("X", n);
    rt.fill_host(x, |i| i as f64);
    // [big: 2048 B][small: 512 B][tail: 1536 B] → release big → holes.
    rt.run(|s| {
        TargetEnterData::device(0)
            .map(spread_rt::map::to(big, 0..256))
            .launch(s)?;
        TargetEnterData::device(0)
            .map(spread_rt::map::to(small, 0..64))
            .launch(s)?;
        Ok(())
    })
    .unwrap();
    rt.run(|s| {
        TargetExitData::device(0)
            .map(spread_rt::map::release(big, 0..256))
            .launch(s)?;
        Ok(())
    })
    .unwrap();
    rt.run(|s| {
        TargetSpread::devices([0])
            .with_schedule(SpreadSchedule::static_chunk(n))
            .with_pressure(PressurePolicy::Split)
            .map(spread_tofrom(x, |c| c.range()))
            .parallel_for(
                s,
                0..n,
                KernelSpec::new("double", 2.0, |chunk, v| {
                    for i in chunk {
                        v.set(0, i, 2.0 * v.get(0, i));
                    }
                })
                .arg(KernelArg::read_write(x, |r| r)),
            )?;
        Ok(())
    })
    .unwrap();
    let out = rt.snapshot_host(x);
    assert_eq!(out, (0..n).map(|i| 2.0 * i as f64).collect::<Vec<_>>());
    let evs = degradations(&rt);
    assert_eq!(
        evs.iter().filter(|e| e.kind == DegKind::ChunkSplit).count(),
        2,
        "fragmentation must trigger one reactive split into halves, got {evs:?}"
    );
    let covered: usize = evs.iter().map(|e| e.len).sum();
    assert_eq!(covered, n);
}

#[test]
fn pressure_under_pressure_is_deterministic() {
    let run = || {
        let cap = 8192;
        let plan = FaultPlan::new(23)
            .sustain_pressure(0, SimTime::ZERO, cap)
            .sustain_pressure(1, SimTime::ZERO, cap / 2);
        let mut rt = runtime(2, cap, Some(plan));
        let out = run_scale(&mut rt, vec![0, 1], PressurePolicy::Spill, 256).unwrap();
        (out, degradations(&rt), rt.elapsed())
    };
    assert_eq!(
        run(),
        run(),
        "same plan, same seed => identical degradation"
    );
}

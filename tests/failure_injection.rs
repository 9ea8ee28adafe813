//! Failure-injection tests: every error path a user can hit, across
//! crates.

use target_spread::core::prelude::*;
use target_spread::devices::{DeviceSpec, Topology};
use target_spread::rt::kernel::KernelArg;
use target_spread::rt::prelude::*;

fn tiny_rt(n_dev: usize, mem: u64) -> Runtime {
    let topo = Topology::uniform(n_dev, DeviceSpec::v100().with_mem_bytes(mem), 1e9, 1.6e9);
    Runtime::new(RuntimeConfig::new(topo).with_team_threads(2))
}

/// OOM without backpressure fails hard (raw `cudaMalloc` behaviour).
#[test]
fn oom_fails_hard_by_default() {
    let mut rt = tiny_rt(1, 800); // 100 elements
    let a = rt.host_array("A", 200);
    let err = rt
        .run(|s| {
            TargetEnterData::device(0).map(to(a, 0..200)).launch(s)?;
            Ok(())
        })
        .unwrap_err();
    assert!(matches!(err, RtError::OutOfMemory { device: 0, .. }));
}

/// With backpressure, an over-subscribing enter waits for a release.
#[test]
fn backpressure_waits_for_release() {
    let topo = Topology::uniform(1, DeviceSpec::v100().with_mem_bytes(1600), 1e9, 1.6e9);
    let mut rt = Runtime::new(
        RuntimeConfig::new(topo)
            .with_team_threads(2)
            .with_alloc_backpressure(true),
    );
    let a = rt.host_array("A", 150);
    let b = rt.host_array("B", 150);
    rt.fill_host(b, |i| i as f64);
    rt.run(|s| {
        // A fills 150 of 200 elements.
        TargetEnterData::device(0).map(to(a, 0..150)).launch(s)?;
        // B cannot fit; the nowait enter parks until A is released.
        TargetEnterData::device(0)
            .map(to(b, 0..150))
            .nowait()
            .launch(s)?;
        TargetExitData::device(0)
            .map(spread_rt::map::release(a, 0..150))
            .launch(s)?;
        // Drain: B's enter must now complete.
        Ok(())
    })
    .unwrap();
    assert_eq!(rt.device_mem_used(0), 150 * 8);
}

/// Backpressure that can never be satisfied is a reported deadlock,
/// not a hang.
#[test]
fn backpressure_deadlock_detected() {
    let topo = Topology::uniform(1, DeviceSpec::v100().with_mem_bytes(800), 1e9, 1.6e9);
    let mut rt = Runtime::new(
        RuntimeConfig::new(topo)
            .with_team_threads(2)
            .with_alloc_backpressure(true),
    );
    let a = rt.host_array("A", 200);
    let err = rt
        .run(|s| {
            TargetEnterData::device(0).map(to(a, 0..200)).launch(s)?;
            Ok(())
        })
        .unwrap_err();
    assert!(matches!(err, RtError::Deadlock { .. }), "got {err}");
}

/// A mapping parked on backpressure whose device then dies must surface
/// `DeviceLost` — never hang waiting for a release that can no longer
/// happen. The lost-device cleanup fails stranded memory waiters.
#[test]
fn backpressure_park_on_lost_device_fails_not_hangs() {
    use target_spread::sim::{FaultPlan, SimTime};
    let run_once = || {
        let topo = Topology::uniform(1, DeviceSpec::v100().with_mem_bytes(1600), 1e9, 1.6e9);
        let mut rt = Runtime::new(
            RuntimeConfig::new(topo)
                .with_team_threads(2)
                .with_alloc_backpressure(true)
                // The copies finish within microseconds; by 1 ms the
                // only thing left alive is B's parked allocation.
                .with_fault_plan(FaultPlan::new(3).lose_device(0, SimTime::from_secs_f64(1e-3))),
        );
        let a = rt.host_array("A", 150);
        let b = rt.host_array("B", 150);
        rt.run(|s| {
            // A fills 150 of 200 elements and is never released.
            TargetEnterData::device(0).map(to(a, 0..150)).launch(s)?;
            // B cannot fit: parks forever on device 0's memory.
            TargetEnterData::device(0)
                .map(to(b, 0..150))
                .nowait()
                .launch(s)?;
            Ok(())
        })
        .unwrap_err()
    };
    let err = run_once();
    assert!(
        matches!(err, RtError::DeviceLost { device: 0, .. }),
        "got {err}"
    );
    // Deterministic: the same loss surfaces the same error.
    assert_eq!(err, run_once());
}

/// Kernel argument section not mapped on the device.
#[test]
fn kernel_section_missing() {
    let mut rt = tiny_rt(2, 1 << 20);
    let a = rt.host_array("A", 100);
    let err = rt
        .run(|s| {
            // Map only half, then launch over the full range.
            Target::device(0).map(to(a, 0..50)).parallel_for(
                s,
                0..100,
                KernelSpec::new("k", 1.0, |_c, _v| {}).arg(KernelArg::read(a, |r| r)),
            )?;
            Ok(())
        })
        .unwrap_err();
    assert!(matches!(err, RtError::KernelSectionMissing { .. }));
}

/// A kernel body reading outside its mapped section aborts with the
/// "unmapped device access" diagnostic.
#[test]
#[should_panic(expected = "unmapped device access")]
fn kernel_out_of_section_read_panics() {
    let mut rt = tiny_rt(1, 1 << 20);
    let a = rt.host_array("A", 100);
    let _ = rt.run(|s| {
        Target::device(0).map(to(a, 10..90)).parallel_for(
            s,
            20..30,
            KernelSpec::new("bad", 1.0, |_chunk, v| {
                let _ = v.get(0, 5); // below the mapped [10, 90)
            })
            .arg(KernelArg::read(a, |r| r)),
        )?;
        Ok(())
    });
}

/// A kernel body writing outside its own chunk aborts with the
/// cross-chunk diagnostic: each of the two team threads' static blocks
/// writes one element of the other's.
#[test]
#[should_panic(expected = "cross-chunk write")]
fn kernel_cross_chunk_write_panics() {
    let mut rt = tiny_rt(1, 1 << 20);
    let a = rt.host_array("A", 100);
    let _ = rt.run(|s| {
        Target::device(0).map(tofrom(a, 0..100)).parallel_for(
            s,
            0..100,
            KernelSpec::new("bad", 1.0, |chunk, v| {
                // Write one past the end of this chunk's section.
                v.set(0, chunk.end % 100, 1.0);
            })
            .arg(KernelArg::write(a, |r| r)),
        )?;
        Ok(())
    });
}

/// The spread halo-overlap restriction on one device (§V-B).
#[test]
fn spread_halo_overlap_rejected() {
    let mut rt = tiny_rt(1, 1 << 20);
    let a = rt.host_array("A", 100);
    let err = rt
        .run(|s| {
            TargetEnterDataSpread::devices([0])
                .range(1, 64)
                .chunk_size(8)
                .map(spread_to(a, |c| c.halo(1, 1)))
                .launch(s)?;
            Ok(())
        })
        .unwrap_err();
    assert!(matches!(err, RtError::OverlapExtension { .. }));
}

/// Errors poison the runtime: the first error is sticky.
#[test]
fn errors_are_sticky() {
    let mut rt = tiny_rt(1, 800);
    let a = rt.host_array("A", 200);
    let e1 = rt
        .run(|s| {
            TargetEnterData::device(0).map(to(a, 0..200)).launch(s)?;
            Ok(())
        })
        .unwrap_err();
    let e2 = rt
        .run(|s| {
            TargetEnterData::device(0).map(to(a, 0..10)).launch(s)?;
            Ok(())
        })
        .unwrap_err();
    assert_eq!(e1, e2, "the original error is preserved");
}

/// Device ids outside the node are rejected by every directive.
#[test]
fn unknown_devices_rejected_everywhere() {
    let mut rt = tiny_rt(2, 1 << 20);
    let a = rt.host_array("A", 10);
    let err = rt
        .run(|s| {
            TargetSpread::devices([0, 7])
                .with_schedule(SpreadSchedule::static_chunk(2))
                .map(spread_to(a, |c| c.range()))
                .parallel_for(
                    s,
                    0..10,
                    KernelSpec::new("k", 1.0, |_c, _v| {}).arg(KernelArg::read(a, |r| r)),
                )?;
            Ok(())
        })
        .unwrap_err();
    assert!(matches!(err, RtError::InvalidDirective(_)));
}

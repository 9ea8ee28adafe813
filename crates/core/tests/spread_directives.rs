//! End-to-end tests of the `target spread` directive set — the paper's
//! listings as executable programs on the simulated node.

// Sequential reference loops mirror the paper's C listings index-for-index.
#![allow(clippy::needless_range_loop)]

use spread_core::prelude::*;
use spread_devices::{DeviceSpec, Topology};
use spread_rt::kernel::KernelArg;
use spread_rt::prelude::*;
use spread_trace::SpanKind;

fn runtime(n_devices: usize) -> Runtime {
    let topo = Topology::uniform(
        n_devices,
        DeviceSpec::v100().with_mem_bytes(1 << 22),
        1e9,
        1.5e9,
    );
    Runtime::new(RuntimeConfig::new(topo).with_team_threads(2))
}

/// Paper Listing 3/4: the 3-point stencil spread over devices(2,0,1)
/// with halo maps, verified against the sequential result.
#[test]
fn listing3_stencil_spread_over_three_devices() {
    let mut rt = runtime(3);
    let n = 14; // the paper's walk-through size
    let a = rt.host_array("A", n);
    let b = rt.host_array("B", n);
    rt.fill_host(a, |i| (i * i) as f64);
    rt.run(|s| {
        TargetSpread::devices([2, 0, 1])
            .with_schedule(SpreadSchedule::static_chunk(4))
            .num_teams(2)
            .map(spread_to(a, |c| c.start() - 1..c.end() + 1))
            .map(spread_from(b, |c| c.range()))
            .parallel_for(
                s,
                1..n - 1,
                KernelSpec::new("stencil", 2.0, |chunk, v| {
                    for i in chunk {
                        let sum = v.get(0, i - 1) + v.get(0, i) + v.get(0, i + 1);
                        v.set(1, i, sum);
                    }
                })
                .arg(KernelArg::read(a, |r| r.start - 1..r.end + 1))
                .arg(KernelArg::write(b, |r| r)),
            )?;
        Ok(())
    })
    .unwrap();
    let out = rt.snapshot_host(b);
    for i in 1..n - 1 {
        let expect = ((i - 1) * (i - 1) + i * i + (i + 1) * (i + 1)) as f64;
        assert_eq!(out[i], expect, "B[{i}]");
    }
    // Three kernels ran, one per device, and all memory was released.
    let tl = rt.timeline();
    let kernel_devices: Vec<u32> = tl
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Kernel)
        .filter_map(|s| s.lane.device())
        .collect();
    assert_eq!(kernel_devices.len(), 3);
    for d in 0..3 {
        assert!(kernel_devices.contains(&d), "device {d} got a chunk");
        assert_eq!(rt.device_mem_used(d), 0);
    }
    assert!(rt.races().is_empty());
}

/// Larger spread with an awkward chunk size; results must match the
/// sequential stencil exactly regardless of device count.
#[test]
fn spread_matches_sequential_for_any_device_count() {
    for n_dev in 1..=4usize {
        let mut rt = runtime(n_dev);
        let n = 1000;
        let a = rt.host_array("A", n);
        let b = rt.host_array("B", n);
        rt.fill_host(a, |i| ((i * 7919) % 1000) as f64);
        let expect: Vec<f64> = {
            let av = rt.snapshot_host(a);
            (0..n)
                .map(|i| {
                    if i == 0 || i == n - 1 {
                        0.0
                    } else {
                        av[i - 1] + av[i] + av[i + 1]
                    }
                })
                .collect()
        };
        let devices: Vec<u32> = (0..n_dev as u32).collect();
        // With one device, halo'd adjacent chunks would overlap (the
        // §V-B rule), so the single-device configuration uses one chunk
        // covering the whole loop — exactly what the paper's 1-GPU
        // One Buffer run does.
        let chunk = if n_dev == 1 { n } else { 37 };
        rt.run(|s| {
            TargetSpread::devices(devices.clone())
                .with_schedule(SpreadSchedule::static_chunk(chunk))
                .map(spread_to(a, |c| c.start() - 1..c.end() + 1))
                .map(spread_from(b, |c| c.range()))
                .parallel_for(
                    s,
                    1..n - 1,
                    KernelSpec::new("stencil", 2.0, |chunk, v| {
                        for i in chunk {
                            let sum = v.get(0, i - 1) + v.get(0, i) + v.get(0, i + 1);
                            v.set(1, i, sum);
                        }
                    })
                    .arg(KernelArg::read(a, |r| r.start - 1..r.end + 1))
                    .arg(KernelArg::write(b, |r| r)),
                )?;
            Ok(())
        })
        .unwrap();
        let out = rt.snapshot_host(b);
        for i in 1..n - 1 {
            assert_eq!(out[i], expect[i], "n_dev={n_dev}, B[{i}]");
        }
    }
}

/// Paper Listing 6: enter/exit data spread distribute the mapping, the
/// kernel (spread with matching schedule) computes, results come home.
#[test]
fn enter_exit_data_spread_roundtrip() {
    let mut rt = runtime(3);
    let n = 120;
    let a = rt.host_array("A", n);
    rt.fill_host(a, |i| i as f64);
    rt.run(|s| {
        TargetEnterDataSpread::devices([2, 0, 1])
            .range(0, n)
            .chunk_size(10)
            .map(spread_to(a, |c| c.range()))
            .launch(s)?;
        TargetSpread::devices([2, 0, 1])
            .with_schedule(SpreadSchedule::static_chunk(10))
            .map(spread_tofrom(a, |c| c.range()))
            .parallel_for(
                s,
                0..n,
                KernelSpec::new("inc", 1.0, |chunk, v| {
                    for i in chunk {
                        let x = v.get(0, i);
                        v.set(0, i, x + 100.0);
                    }
                })
                .arg(KernelArg::read_write(a, |r| r)),
            )?;
        TargetExitDataSpread::devices([2, 0, 1])
            .range(0, n)
            .chunk_size(10)
            .map(spread_from(a, |c| c.range()))
            .launch(s)?;
        Ok(())
    })
    .unwrap();
    let out = rt.snapshot_host(a);
    for i in 0..n {
        assert_eq!(out[i], i as f64 + 100.0);
    }
    for d in 0..3 {
        assert_eq!(rt.device_mem_used(d), 0);
    }
}

/// Paper Listing 5: the structured `target data spread` region.
#[test]
fn target_data_spread_region() {
    let mut rt = runtime(2);
    let n = 64;
    let a = rt.host_array("A", n);
    rt.fill_host(a, |i| i as f64);
    rt.run(|s| {
        TargetDataSpread::devices([1, 0])
            .range(0, n)
            .chunk_size(8)
            .map(spread_tofrom(a, |c| c.range()))
            .region(s, |s| {
                TargetSpread::devices([1, 0])
                    .with_schedule(SpreadSchedule::static_chunk(8))
                    .map(spread_tofrom(a, |c| c.range()))
                    .parallel_for(
                        s,
                        0..n,
                        KernelSpec::new("neg", 1.0, |chunk, v| {
                            for i in chunk {
                                let x = v.get(0, i);
                                v.set(0, i, -x);
                            }
                        })
                        .arg(KernelArg::read_write(a, |r| r)),
                    )?;
                Ok(())
            })
    })
    .unwrap();
    let out = rt.snapshot_host(a);
    for i in 0..n {
        assert_eq!(out[i], -(i as f64));
    }
    assert_eq!(rt.device_mem_used(0), 0);
    assert_eq!(rt.device_mem_used(1), 0);
}

/// Paper Listing 7: update spread pushes host changes to the distributed
/// images and pulls results back.
#[test]
fn target_update_spread() {
    let mut rt = runtime(2);
    let n = 40;
    let a = rt.host_array("A", n);
    rt.run(|s| {
        TargetEnterDataSpread::devices([0, 1])
            .range(0, n)
            .chunk_size(5)
            .map(spread_to(a, |c| c.range()))
            .launch(s)?;
        // Host writes new values; push them with update-to.
        s.fill_host(a, |i| 2.0 * i as f64);
        TargetUpdateSpread::devices([0, 1])
            .range(0, n)
            .chunk_size(5)
            .to(a, |c| c.range())
            .launch(s)?;
        // Device doubles them.
        TargetSpread::devices([0, 1])
            .with_schedule(SpreadSchedule::static_chunk(5))
            .map(spread_alloc(a, |c| c.range()))
            .parallel_for(
                s,
                0..n,
                KernelSpec::new("dbl", 1.0, |chunk, v| {
                    for i in chunk {
                        let x = v.get(0, i);
                        v.set(0, i, 2.0 * x);
                    }
                })
                .arg(KernelArg::read_write(a, |r| r)),
            )?;
        // Clobber host, pull with update-from.
        s.fill_host(a, |_| -5.0);
        TargetUpdateSpread::devices([0, 1])
            .range(0, n)
            .chunk_size(5)
            .from(a, |c| c.range())
            .launch(s)?;
        Ok(())
    })
    .unwrap();
    let out = rt.snapshot_host(a);
    for i in 0..n {
        assert_eq!(out[i], 4.0 * i as f64, "A[{i}]");
    }
}

/// Paper Listing 8: two enter-data-spread directives with different
/// device lists and chunkings against different arrays.
#[test]
fn listing8_different_device_lists_per_directive() {
    let mut rt = runtime(4);
    let n = 80;
    let m = 60;
    let a = rt.host_array("A", n + 2);
    let b = rt.host_array("B", n + m + 120);
    rt.run(|s| {
        s.taskgroup(|s| {
            TargetEnterDataSpread::devices([2, 0])
                .range(1, n)
                .chunk_size(4)
                .nowait()
                .map(spread_to(a, |c| c.halo(1, 1)))
                .launch(s)
                .unwrap();
            TargetEnterDataSpread::devices([1, 3])
                .range(100, m)
                .chunk_size(10)
                .nowait()
                .map(spread_to(b, |c| c.range()))
                .launch(s)
                .unwrap();
        })?;
        Ok(())
    })
    .unwrap();
    // A chunks only on devices 2 and 0; B chunks only on 1 and 3.
    assert!(rt.device_mem_used(0) > 0);
    assert!(rt.device_mem_used(2) > 0);
    assert!(rt.device_mem_used(1) > 0);
    assert!(rt.device_mem_used(3) > 0);
    let tl = rt.timeline();
    for s in tl.spans().iter().filter(|s| s.kind == SpanKind::TransferIn) {
        let dev = s.lane.device().unwrap();
        if s.label.starts_with("A ") {
            assert!(dev == 2 || dev == 0, "A chunk on wrong device {dev}");
        } else {
            assert!(dev == 1 || dev == 3, "B chunk on wrong device {dev}");
        }
    }
}

/// §V-B: with halos, adjacent chunks on ONE device overlap → the
/// forbidden array-extension error; with two devices the round-robin
/// gap makes it legal.
#[test]
fn halo_overlap_needs_two_devices() {
    // One device: chunks [0,8) and [8,16) with ±1 halo overlap at 7..9.
    let mut rt = runtime(1);
    let a = rt.host_array("A", 40);
    let err = rt
        .run(|s| {
            TargetEnterDataSpread::devices([0])
                .range(1, 30)
                .chunk_size(8)
                .map(spread_to(a, |c| c.halo(1, 1)))
                .launch(s)?;
            Ok(())
        })
        .unwrap_err();
    assert!(
        matches!(err, RtError::OverlapExtension { device: 0, .. }),
        "got {err}"
    );

    // Two devices: same directive succeeds.
    let mut rt = runtime(2);
    let a = rt.host_array("A", 40);
    rt.run(|s| {
        TargetEnterDataSpread::devices([0, 1])
            .range(1, 30)
            .chunk_size(8)
            .map(spread_to(a, |c| c.halo(1, 1)))
            .launch(s)?;
        Ok(())
    })
    .unwrap();
}

/// The §IX dynamic-schedule extension: chunks are claimed by idle
/// devices; results still match, and a device slowed by a skewed kernel
/// ends up doing fewer chunks.
#[test]
fn dynamic_schedule_balances_load() {
    let mut rt = runtime(2);
    let n = 640;
    let a = rt.host_array("A", n);
    rt.fill_host(a, |i| i as f64);
    rt.run(|s| {
        // With a dynamic schedule the chunk→device assignment is decided
        // at run time, so each chunk's tofrom map moves its own data on
        // whichever device claimed it (pre-distributing with enter data
        // spread would require knowing the assignment up front).
        TargetSpread::devices([0, 1])
            .with_schedule(SpreadSchedule::dynamic(40))
            .map(spread_tofrom(a, |c| c.range()))
            .parallel_for(
                s,
                0..n,
                KernelSpec::new("inc", 50.0, |chunk, v| {
                    for i in chunk {
                        let x = v.get(0, i);
                        v.set(0, i, x + 1.0);
                    }
                })
                .arg(KernelArg::read_write(a, |r| r)),
            )?;
        Ok(())
    })
    .unwrap();
    let out = rt.snapshot_host(a);
    for i in 0..n {
        assert_eq!(out[i], i as f64 + 1.0);
    }
    // Both devices participated.
    let tl = rt.timeline();
    let devs: std::collections::BTreeSet<u32> = tl
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Kernel)
        .filter_map(|s| s.lane.device())
        .collect();
    assert_eq!(devs.len(), 2);
}

/// The §IX reduction extension: sum across chunks on all devices.
#[test]
fn cross_device_reduction() {
    let mut rt = runtime(3);
    let n = 300;
    let a = rt.host_array("A", n);
    let partials = rt.host_array("partials", n);
    rt.fill_host(a, |i| i as f64);
    let total = rt
        .run(|s| {
            TargetSpread::devices([0, 1, 2])
                .with_schedule(SpreadSchedule::static_chunk(25))
                .map(spread_to(a, |c| c.range()))
                .parallel_for_reduce(
                    s,
                    0..n,
                    KernelSpec::new("partial-sum", 1.0, |chunk, v| {
                        for i in chunk {
                            let x = v.get(0, i);
                            v.set(1, i, x * 2.0);
                        }
                    })
                    .arg(KernelArg::read(a, |r| r))
                    .arg(KernelArg::write(partials, |r| r)),
                    partials,
                    ReduceOp::Sum,
                )
        })
        .unwrap();
    let expect: f64 = (0..n).map(|i| 2.0 * i as f64).sum();
    assert_eq!(total, expect);
}

/// Listing 13 (future work, implemented here): `depend` on the data
/// spread directives replaces the taskgroup barrier — per-chunk
/// kernel starts as soon as *its* chunk arrived.
#[test]
fn listing13_depend_on_data_spread() {
    let mut rt = runtime(2);
    let n = 400;
    let b = rt.host_array("B", n);
    rt.fill_host(b, |i| i as f64);
    rt.run(|s| {
        s.taskgroup(|s| {
            TargetEnterDataSpread::devices([0, 1])
                .range(0, n)
                .chunk_size(10)
                .nowait()
                .map(spread_to(b, |c| c.range()))
                .depend_out(b, |c| c.range())
                .launch(s)
                .unwrap();
            TargetSpread::devices([0, 1])
                .with_schedule(SpreadSchedule::static_chunk(10))
                .nowait()
                .map(spread_alloc(b, |c| c.range()))
                .depend_in(b, |c| c.range())
                .depend_out(b, |c| c.range())
                .parallel_for(
                    s,
                    0..n,
                    KernelSpec::new("scale", 1.0, |chunk, v| {
                        for i in chunk {
                            let x = v.get(0, i);
                            v.set(0, i, x * 3.0);
                        }
                    })
                    .arg(KernelArg::read_write(b, |r| r)),
                )
                .unwrap();
            TargetExitDataSpread::devices([0, 1])
                .range(0, n)
                .chunk_size(10)
                .nowait()
                .map(spread_from(b, |c| c.range()))
                .depend_in(b, |c| c.range())
                .launch(s)
                .unwrap();
        })?;
        Ok(())
    })
    .unwrap();
    let out = rt.snapshot_host(b);
    for i in 0..n {
        assert_eq!(out[i], 3.0 * i as f64, "B[{i}]");
    }
    assert!(
        rt.races().is_empty(),
        "chunk-level depends order everything: {:?}",
        rt.races()
    );
}

/// Mis-specified directives report errors.
#[test]
fn invalid_directives() {
    let mut rt = runtime(2);
    let a = rt.host_array("A", 10);
    // Missing range clause.
    let err = rt
        .run(|s| {
            TargetEnterDataSpread::devices([0])
                .chunk_size(4)
                .map(spread_to(a, |c| c.range()))
                .launch(s)?;
            Ok(())
        })
        .unwrap_err();
    assert!(matches!(err, RtError::InvalidDirective(_)));

    let mut rt = runtime(2);
    let a = rt.host_array("A", 10);
    // Empty device list.
    let err = rt
        .run(|s| {
            TargetSpread::devices(Vec::<u32>::new())
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

/// A malformed `spread_schedule(…)` is the user's error, not an abort
/// inside `distribute`: every case is rejected with `InvalidDirective`
/// naming the clause, on the executable and the data directives alike.
#[test]
fn malformed_schedules_are_rejected_not_panicked() {
    let weighted = |round, weights: &[f64]| SpreadSchedule::StaticWeighted {
        round,
        weights: weights.to_vec(),
    };
    let cases = [
        ("static chunk 0", SpreadSchedule::static_chunk(0)),
        ("dynamic chunk 0", SpreadSchedule::dynamic(0)),
        ("weighted round 0", weighted(0, &[1.0])),
        ("two weights, one device", weighted(4, &[1.0, 2.0])),
        ("weights summing to zero", weighted(4, &[0.0])),
        ("a negative weight", weighted(4, &[-1.0])),
        ("a NaN weight", weighted(4, &[f64::NAN])),
    ];
    for (what, schedule) in cases {
        for directive in [
            "target spread",
            "pressure-managed spread",
            "enter data spread",
        ] {
            let mut rt = runtime(2);
            let a = rt.host_array("A", 10);
            let err = rt
                .run(|s| {
                    if directive == "enter data spread" {
                        TargetEnterDataSpread::devices([0])
                            .with_schedule(schedule.clone())
                            .range(0, 10)
                            .map(spread_to(a, |c| c.range()))
                            .launch(s)?;
                    } else {
                        let mut t = TargetSpread::devices([0]).with_schedule(schedule.clone());
                        if directive == "pressure-managed spread" {
                            t = t.with_pressure(PressurePolicy::Split);
                        }
                        t.map(spread_tofrom(a, |c| c.range())).parallel_for(
                            s,
                            0..10,
                            KernelSpec::new("k", 1.0, |_c, _v| {})
                                .arg(KernelArg::read_write(a, |r| r)),
                        )?;
                    }
                    Ok(())
                })
                .expect_err(what);
            // (Only the plain executable directive admits a dynamic
            // schedule at all; the others turn it away by kind.)
            let dynamic = matches!(schedule, SpreadSchedule::Dynamic { .. });
            let clause = if dynamic && directive != "target spread" {
                "static"
            } else {
                "spread_schedule(…)"
            };
            assert!(
                matches!(&err, RtError::InvalidDirective(m) if m.contains(clause)),
                "{what} on {directive}: {err}"
            );
        }
    }
}

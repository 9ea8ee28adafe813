//! End-to-end tests of the baseline `target` directive family: real data
//! moves through simulated devices and kernels really execute.

// Sequential reference loops mirror the offloaded kernels index-for-index.
#![allow(clippy::needless_range_loop)]

use spread_devices::{DeviceSpec, Topology};
use spread_rt::kernel::KernelArg;
use spread_rt::prelude::*;
use spread_trace::SpanKind;

fn runtime() -> Runtime {
    runtime_mem(1 << 22)
}

fn runtime_mem(mem_bytes: u64) -> Runtime {
    let topo = Topology::uniform(2, DeviceSpec::v100().with_mem_bytes(mem_bytes), 1e9, 1.5e9);
    Runtime::new(RuntimeConfig::new(topo).with_team_threads(2))
}

/// The paper's Listing 2: a 3-point stencil through a combined target
/// directive. B[i] = A[i-1] + A[i] + A[i+1].
fn stencil_kernel(a: HostArray, b: HostArray) -> KernelSpec {
    KernelSpec::new("stencil", 2.0, |chunk, v| {
        for i in chunk {
            let s = v.get(0, i - 1) + v.get(0, i) + v.get(0, i + 1);
            v.set(1, i, s);
        }
    })
    .arg(KernelArg::read(a, |r| r.start - 1..r.end + 1))
    .arg(KernelArg::write(b, |r| r))
}

#[test]
fn listing2_target_combined_stencil() {
    let mut rt = runtime();
    let n = 1000;
    let a = rt.host_array("A", n);
    let b = rt.host_array("B", n);
    rt.fill_host(a, |i| i as f64);
    rt.run(|s| {
        Target::device(0)
            .num_teams(2)
            .map(to(a, 0..n))
            .map(from(b, 1..n - 1))
            .parallel_for(s, 1..n - 1, stencil_kernel(a, b))?;
        Ok(())
    })
    .unwrap();
    let out = rt.snapshot_host(b);
    for i in 1..n - 1 {
        assert_eq!(out[i], 3.0 * i as f64, "B[{i}]");
    }
    assert_eq!(out[0], 0.0, "outside the from-map untouched");
    assert!(rt.races().is_empty());
    assert!(rt.elapsed().as_nanos() > 0, "virtual time advanced");
    // All mappings released: device memory is clean.
    assert_eq!(rt.device_mem_used(0), 0);
}

#[test]
fn enter_exit_data_roundtrip() {
    let mut rt = runtime();
    let n = 256;
    let a = rt.host_array("A", n);
    rt.fill_host(a, |i| (i * i) as f64);
    rt.run(|s| {
        TargetEnterData::device(1).map(to(a, 0..n)).launch(s)?;
        // Mutate the host; device copy must be stale-read later.
        s.fill_host(a, |_| -1.0);
        // Kernel adds 1 to the *device* copy.
        Target::device(1)
            .map(to(a, 0..n)) // already present: no copy
            .parallel_for(
                s,
                0..n,
                KernelSpec::new("inc", 1.0, |chunk, v| {
                    for i in chunk {
                        let x = v.get(0, i);
                        v.set(0, i, x + 1.0);
                    }
                })
                .arg(KernelArg::read_write(a, |r| r)),
            )?;
        TargetExitData::device(1).map(from(a, 0..n)).launch(s)?;
        Ok(())
    })
    .unwrap();
    let out = rt.snapshot_host(a);
    for i in 0..n {
        assert_eq!(out[i], (i * i) as f64 + 1.0, "A[{i}] came from the device");
    }
    assert_eq!(rt.device_mem_used(1), 0);
}

#[test]
fn target_update_refreshes_both_ways() {
    let mut rt = runtime();
    let n = 64;
    let a = rt.host_array("A", n);
    rt.fill_host(a, |i| i as f64);
    rt.run(|s| {
        TargetEnterData::device(0).map(to(a, 0..n)).launch(s)?;
        // Host changes; push them down with update-to.
        s.fill_host(a, |i| 100.0 + i as f64);
        TargetUpdate::device(0).to(a.section(0..n)).launch(s)?;
        // Device doubles.
        Target::device(0).map(to(a, 0..n)).parallel_for(
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
        // Clobber host, then pull back with update-from.
        s.fill_host(a, |_| 0.0);
        TargetUpdate::device(0).from(a.section(0..n)).launch(s)?;
        TargetExitData::device(0)
            .map(spread_rt::map::release(a, 0..n))
            .launch(s)?;
        Ok(())
    })
    .unwrap();
    let out = rt.snapshot_host(a);
    for i in 0..n {
        assert_eq!(out[i], 2.0 * (100.0 + i as f64));
    }
}

#[test]
fn target_data_structured_region() {
    let mut rt = runtime();
    let n = 128;
    let a = rt.host_array("A", n);
    let b = rt.host_array("B", n);
    rt.fill_host(a, |i| i as f64 + 1.0);
    rt.run(|s| {
        TargetData::device(0)
            .map(to(a, 0..n))
            .map(from(b, 0..n))
            .region(s, |s| {
                Target::device(0)
                    .map(to(a, 0..n))
                    .map(from(b, 0..n))
                    .parallel_for(
                        s,
                        0..n,
                        KernelSpec::new("sq", 1.0, |chunk, v| {
                            for i in chunk {
                                let x = v.get(0, i);
                                v.set(1, i, x * x);
                            }
                        })
                        .arg(KernelArg::read(a, |r| r))
                        .arg(KernelArg::write(b, |r| r)),
                    )?;
                Ok(())
            })
    })
    .unwrap();
    let out = rt.snapshot_host(b);
    for i in 0..n {
        assert_eq!(out[i], ((i + 1) * (i + 1)) as f64);
    }
    assert_eq!(rt.device_mem_used(0), 0, "structured region fully released");
}

#[test]
fn refcount_inner_region_does_not_retransfer() {
    let mut rt = runtime();
    let n = 64;
    let a = rt.host_array("A", n);
    rt.run(|s| {
        TargetEnterData::device(0).map(to(a, 0..n)).launch(s)?;
        TargetEnterData::device(0).map(to(a, 0..n)).launch(s)?; // refcount 2
        TargetExitData::device(0).map(from(a, 0..n)).launch(s)?; // keep
        Ok(())
    })
    .unwrap();
    // Still mapped (refcount 1).
    assert!(rt.device_mem_used(0) > 0);
    let tl = rt.timeline();
    // Exactly one H2D (second enter reused) and zero D2H (non-final exit).
    let h2d = tl
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::TransferIn)
        .count();
    let d2h = tl
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::TransferOut)
        .count();
    assert_eq!((h2d, d2h), (1, 0));
}

#[test]
fn nowait_plus_taskgroup_runs_concurrently() {
    let mut rt = runtime();
    let n = 1 << 16;
    let a = rt.host_array("A", n);
    let b = rt.host_array("B", n);
    rt.run(|s| {
        s.taskgroup(|s| {
            TargetEnterData::device(0)
                .map(to(a, 0..n))
                .nowait()
                .launch(s)
                .unwrap();
            TargetEnterData::device(1)
                .map(to(b, 0..n))
                .nowait()
                .launch(s)
                .unwrap();
        })?;
        Ok(())
    })
    .unwrap();
    let tl = rt.timeline();
    let spans: Vec<_> = tl
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::TransferIn)
        .collect();
    assert_eq!(spans.len(), 2);
    // The two transfers to different devices overlapped in virtual time.
    assert!(
        spans[0].overlaps_window(spans[1].start, spans[1].end),
        "nowait transfers should overlap: {:?} vs {:?}",
        spans[0],
        spans[1]
    );
}

#[test]
fn depend_chain_serializes_kernels() {
    let mut rt = runtime();
    let n = 1024;
    let a = rt.host_array("A", n);
    let b = rt.host_array("B", n);
    rt.fill_host(a, |_| 1.0);
    rt.run(|s| {
        s.taskgroup(|s| {
            // k1: B = A + 1 (out B)
            Target::device(0)
                .map(to(a, 0..n))
                .map(tofrom(b, 0..n))
                .nowait()
                .depend_out(b.full())
                .parallel_for(
                    s,
                    0..n,
                    KernelSpec::new("k1", 1.0, |chunk, v| {
                        for i in chunk {
                            let x = v.get(0, i);
                            v.set(1, i, x + 1.0);
                        }
                    })
                    .arg(KernelArg::read(a, |r| r))
                    .arg(KernelArg::write(b, |r| r)),
                )
                .unwrap();
            // k2: B *= 3 (in+out B) — must run after k1.
            Target::device(0)
                .map(tofrom(b, 0..n))
                .nowait()
                .depend_in(b.full())
                .depend_out(b.full())
                .parallel_for(
                    s,
                    0..n,
                    KernelSpec::new("k2", 1.0, |chunk, v| {
                        for i in chunk {
                            let x = v.get(0, i);
                            v.set(0, i, 3.0 * x);
                        }
                    })
                    .arg(KernelArg::read_write(b, |r| r)),
                )
                .unwrap();
        })?;
        Ok(())
    })
    .unwrap();
    let out = rt.snapshot_host(b);
    assert!(out.iter().all(|&x| x == 6.0), "k1 then k2: (1+1)*3");
    assert!(rt.races().is_empty(), "depend-ordered kernels don't race");
}

#[test]
fn oom_is_reported() {
    let mut rt = runtime_mem(1024); // 128 elements
    let a = rt.host_array("A", 1000);
    let err = rt
        .run(|s| {
            TargetEnterData::device(0).map(to(a, 0..1000)).launch(s)?;
            Ok(())
        })
        .unwrap_err();
    match err {
        RtError::OutOfMemory { device, bytes, .. } => {
            assert_eq!(device, 0);
            assert_eq!(bytes, 8000);
        }
        other => panic!("expected OOM, got {other}"),
    }
}

/// Regression: a *partial* enter (some items mapped, a later one OOMs)
/// must roll back its fresh inserts and dropped reuses and report the
/// OOM, leaving the table as it was before the enter.
#[test]
fn partial_enter_oom_rolls_back_and_reports() {
    let mut rt = runtime_mem(1024); // 128 elements
    let a = rt.host_array("A", 100);
    let b = rt.host_array("B", 1000);
    let err = rt
        .run(|s| {
            // A is resident (refcount 1), so the failing enter below
            // first *reuses* A, then freshly maps part of B, then OOMs —
            // exercising both rollback lists.
            TargetEnterData::device(0).map(to(a, 0..100)).launch(s)?;
            TargetEnterData::device(0)
                .map(to(a, 0..100))
                .map(to(b, 0..20))
                .map(to(b, 100..1000))
                .launch(s)?;
            Ok(())
        })
        .unwrap_err();
    assert!(matches!(err, RtError::OutOfMemory { device: 0, .. }));
    // The rollback undid the partial enter: only the original mapping
    // of A survives, and its refcount is back to 1.
    let mapped = rt.mapped_sections(0);
    assert_eq!(
        mapped.len(),
        1,
        "only A's first mapping remains: {mapped:?}"
    );
    assert_eq!(mapped[0].1, 1, "A's extra reuse reference was dropped");
    assert_eq!(rt.device_mem_used(0), 800, "B's fresh chunk was freed");
}

#[test]
fn overlap_extension_is_reported() {
    let mut rt = runtime();
    let a = rt.host_array("A", 1000);
    let err = rt
        .run(|s| {
            TargetEnterData::device(0).map(to(a, 0..100)).launch(s)?;
            TargetEnterData::device(0).map(to(a, 50..150)).launch(s)?;
            Ok(())
        })
        .unwrap_err();
    assert!(matches!(err, RtError::OverlapExtension { device: 0, .. }));
}

#[test]
fn exit_of_unmapped_is_reported() {
    let mut rt = runtime();
    let a = rt.host_array("A", 100);
    let err = rt
        .run(|s| {
            TargetExitData::device(0).map(from(a, 0..100)).launch(s)?;
            Ok(())
        })
        .unwrap_err();
    assert!(matches!(err, RtError::NotMapped { .. }));
}

#[test]
fn kernel_on_unmapped_section_is_reported() {
    let mut rt = runtime();
    let a = rt.host_array("A", 100);
    let err = rt
        .run(|s| {
            Target::device(0)
                // No map clause at all — kernel resolution must fail.
                .parallel_for(
                    s,
                    0..100,
                    KernelSpec::new("orphan", 1.0, |_c, _v| {}).arg(KernelArg::read(a, |r| r)),
                )?;
            Ok(())
        })
        .unwrap_err();
    assert!(matches!(err, RtError::KernelSectionMissing { .. }));
}

#[test]
fn unknown_device_is_reported() {
    let mut rt = runtime();
    let a = rt.host_array("A", 10);
    let err = rt
        .run(|s| {
            TargetEnterData::device(7).map(to(a, 0..10)).launch(s)?;
            Ok(())
        })
        .unwrap_err();
    assert!(matches!(err, RtError::InvalidDirective(_)));
}

#[test]
fn race_detector_flags_unordered_conflicts() {
    let mut rt = runtime();
    let n = 1 << 16;
    let a = rt.host_array("A", n);
    rt.run(|s| {
        s.taskgroup(|s| {
            // Two concurrent enters on *different devices* both reading
            // host A — fine. But make one exit writing host A while the
            // other reads it: flagged.
            TargetEnterData::device(0)
                .map(to(a, 0..n))
                .nowait()
                .launch(s)
                .unwrap();
        })?;
        s.taskgroup(|s| {
            TargetExitData::device(0)
                .map(from(a, 0..n))
                .nowait()
                .launch(s)
                .unwrap();
            TargetEnterData::device(1)
                .map(to(a, 0..n))
                .nowait()
                .launch(s)
                .unwrap();
            Ok::<(), RtError>(())
        })??;
        Ok(())
    })
    .unwrap();
    let races = rt.races();
    assert!(
        !races.is_empty(),
        "D2H writing host A while H2D reads it must be flagged"
    );
}

#[test]
fn kernels_on_two_devices_run_concurrently() {
    let mut rt = runtime();
    let n = 1 << 14;
    let a = rt.host_array("A", n);
    let b = rt.host_array("B", n);
    rt.run(|s| {
        s.taskgroup(|s| {
            for (dev, arr) in [(0u32, a), (1u32, b)] {
                Target::device(dev)
                    .map(tofrom(arr, 0..n))
                    .nowait()
                    .parallel_for(
                        s,
                        0..n,
                        KernelSpec::new(format!("fill{dev}"), 10.0, move |chunk, v| {
                            for i in chunk {
                                v.set(0, i, dev as f64 + 1.0);
                            }
                        })
                        .arg(KernelArg::write(arr, |r| r)),
                    )
                    .unwrap();
            }
        })?;
        Ok(())
    })
    .unwrap();
    assert!(rt.snapshot_host(a).iter().all(|&x| x == 1.0));
    assert!(rt.snapshot_host(b).iter().all(|&x| x == 2.0));
    let tl = rt.timeline();
    let kernels: Vec<_> = tl
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Kernel)
        .collect();
    assert_eq!(kernels.len(), 2);
    assert!(
        kernels[0].overlaps_window(kernels[1].start, kernels[1].end),
        "kernels on different devices overlap in virtual time"
    );
}

/// Device backing stores are recycled, but only a mapping whose copy-in
/// overwrites the whole buffer may inherit a recycled store's old bytes:
/// an `alloc` or `from` section mapped right after a same-size section
/// was written and released still reads 0.0 in its kernel.
#[test]
fn alloc_and_from_maps_read_zero_after_a_released_buffer() {
    let n = 256;
    let fresh_maps: [fn(HostArray, std::ops::Range<usize>) -> MapClause; 2] = [alloc, from];
    for fresh in fresh_maps {
        let mut rt = runtime();
        let dirty = rt.host_array("D", n);
        let a = rt.host_array("A", n);
        let seen = rt.host_array("S", n);
        rt.fill_host(dirty, |i| i as f64 + 1.0);
        rt.fill_host(seen, |_| -1.0);
        rt.run(|s| {
            Target::device(0).map(tofrom(dirty, 0..n)).parallel_for(
                s,
                0..n,
                KernelSpec::new("bump", 1.0, |chunk, v| {
                    for i in chunk {
                        v.set(0, i, v.get(0, i) + 1.0);
                    }
                })
                .arg(KernelArg::read_write(dirty, |r| r)),
            )?;
            // `A` is mapped first, so it takes the store `D` released.
            Target::device(0)
                .map(fresh(a, 0..n))
                .map(from(seen, 0..n))
                .parallel_for(
                    s,
                    0..n,
                    KernelSpec::new("look", 1.0, |chunk, v| {
                        for i in chunk {
                            v.set(1, i, v.get(0, i));
                        }
                    })
                    .arg(KernelArg::read(a, |r| r))
                    .arg(KernelArg::write(seen, |r| r)),
                )?;
            Ok(())
        })
        .unwrap();
        assert_eq!(rt.snapshot_host(dirty)[0], 2.0, "the first construct ran");
        assert!(
            rt.snapshot_host(seen).iter().all(|&x| x == 0.0),
            "{:?} map read a released buffer's bytes",
            fresh(a, 0..n).map_type
        );
    }
}

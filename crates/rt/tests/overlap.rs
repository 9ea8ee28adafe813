//! End-to-end tests of the pipelined overlap engine behind
//! `Target::overlap(depth)`: results must be bit-identical to the
//! classic three-phase path, sub-slice traffic must actually happen, and
//! everything stays whole-piece at the commit boundary.

// Sequential reference loops mirror the offloaded kernels index-for-index.
#![allow(clippy::needless_range_loop)]

use spread_devices::{DeviceSpec, Topology};
use spread_rt::kernel::KernelArg;
use spread_rt::prelude::*;
use spread_rt::{OverlapRecord, RunEvent};

/// The overlap records in the run ledger, in recording order.
fn overlap_records(rt: &Runtime) -> Vec<OverlapRecord> {
    rt.events()
        .iter()
        .filter_map(RunEvent::overlap)
        .cloned()
        .collect()
}

fn runtime() -> Runtime {
    runtime_mem(1 << 22)
}

fn runtime_mem(mem_bytes: u64) -> Runtime {
    let topo = Topology::uniform(2, DeviceSpec::v100().with_mem_bytes(mem_bytes), 1e9, 1.5e9);
    Runtime::new(RuntimeConfig::new(topo).with_team_threads(2))
}

/// 3-point stencil: B[i] = A[i-1] + A[i] + A[i+1].
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

fn run_stencil(depth: u32) -> (Vec<f64>, Vec<OverlapRecord>, u64) {
    let mut rt = runtime();
    let n = 1000;
    let a = rt.host_array("A", n);
    let b = rt.host_array("B", n);
    rt.fill_host(a, |i| (i % 97) as f64);
    rt.run(|s| {
        let mut t = Target::device(0)
            .num_teams(2)
            .map(to(a, 0..n))
            .map(from(b, 1..n - 1));
        if depth > 1 {
            t = t.overlap(depth);
        }
        t.parallel_for(s, 1..n - 1, stencil_kernel(a, b))?;
        Ok(())
    })
    .unwrap();
    assert!(rt.races().is_empty());
    assert_eq!(rt.device_mem_used(0), 0, "all mappings released");
    let elapsed = rt.elapsed().as_nanos();
    (rt.snapshot_host(b), overlap_records(&rt), elapsed)
}

#[test]
fn pipelined_stencil_is_bit_identical_to_classic() {
    let (classic, recs, _) = run_stencil(1);
    assert!(recs.is_empty(), "depth 1 must not engage the pipeline");
    for depth in [2, 3, 4, 8] {
        let (piped, recs, _) = run_stencil(depth);
        assert_eq!(piped, classic, "depth {depth} diverged");
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.depth, depth);
        assert!(!r.bypassed);
        assert!(
            r.h2d_ops >= depth,
            "expected ≥{depth} sub-H2D copies, got {}",
            r.h2d_ops
        );
        assert!(
            r.d2h_ops >= depth,
            "expected ≥{depth} staged sub-D2H copies, got {}",
            r.d2h_ops
        );
        assert_eq!(
            r.staged, r.committed,
            "every staged sub-slice must commit exactly at the whole-piece boundary"
        );
    }
}

#[test]
fn pipelining_shortens_the_construct() {
    // Pipelining pays a 10 µs DMA launch latency per extra sub-copy, so
    // it only wins when streaming time dwarfs launch overhead — use a
    // large array (8 MB ≈ 8 ms H2D at 1 GB/s vs 80 µs of added launch
    // latency at depth 4).
    let run = |depth: u32| -> u64 {
        let mut rt = runtime_mem(1 << 28);
        let n = 1 << 20;
        let a = rt.host_array("A", n);
        let b = rt.host_array("B", n);
        rt.fill_host(a, |i| (i % 97) as f64);
        rt.run(|s| {
            let mut t = Target::device(0)
                .num_teams(2)
                .map(to(a, 0..n))
                .map(from(b, 1..n - 1));
            if depth > 1 {
                t = t.overlap(depth);
            }
            t.parallel_for(s, 1..n - 1, stencil_kernel(a, b))?;
            Ok(())
        })
        .unwrap();
        rt.elapsed().as_nanos()
    };
    let serial = run(1);
    let piped = run(4);
    assert!(
        (piped as f64) < 0.85 * serial as f64,
        "depth 4 ({piped} ns) should be ≥15% faster than serial ({serial} ns)"
    );
}

#[test]
fn tofrom_roundtrip_pipelined() {
    for depth in [2, 4] {
        let mut rt = runtime();
        let n = 512;
        let a = rt.host_array("A", n);
        rt.fill_host(a, |i| i as f64);
        rt.run(|s| {
            Target::device(1)
                .overlap(depth)
                .map(tofrom(a, 0..n))
                .parallel_for(
                    s,
                    0..n,
                    KernelSpec::new("scale", 1.0, |chunk, v| {
                        for i in chunk {
                            let x = v.get(0, i);
                            v.set(0, i, 3.0 * x + 1.0);
                        }
                    })
                    .arg(KernelArg::read_write(a, |r| r)),
                )?;
            Ok(())
        })
        .unwrap();
        let out = rt.snapshot_host(a);
        for i in 0..n {
            assert_eq!(out[i], 3.0 * i as f64 + 1.0, "A[{i}] depth {depth}");
        }
        assert_eq!(rt.device_mem_used(1), 0);
    }
}

#[test]
fn depth_clamps_to_iteration_count() {
    // depth 64 over 8 iterations: the pipeline clamps to 8 stages.
    let mut rt = runtime();
    let n = 8;
    let a = rt.host_array("A", n);
    rt.fill_host(a, |i| i as f64);
    rt.run(|s| {
        Target::device(0)
            .overlap(64)
            .map(tofrom(a, 0..n))
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
        Ok(())
    })
    .unwrap();
    let out = rt.snapshot_host(a);
    for i in 0..n {
        assert_eq!(out[i], i as f64 + 1.0);
    }
    let recs = overlap_records(&rt);
    assert_eq!(recs.len(), 1);
    assert!(recs[0].h2d_ops <= n as u32, "stages clamp to iterations");
}

#[test]
fn already_present_data_skips_transfers() {
    // Data staged by enter-data: the pipelined construct finds nothing
    // to copy, runs sub-kernels, and defers D2H to the explicit exit.
    let mut rt = runtime();
    let n = 256;
    let a = rt.host_array("A", n);
    rt.fill_host(a, |i| (i * i) as f64);
    rt.run(|s| {
        TargetEnterData::device(1).map(to(a, 0..n)).launch(s)?;
        Target::device(1).overlap(4).map(to(a, 0..n)).parallel_for(
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
        assert_eq!(out[i], (i * i) as f64 + 1.0, "A[{i}]");
    }
    let recs = overlap_records(&rt);
    assert_eq!(recs.len(), 1);
    let r = &recs[0];
    assert_eq!(r.h2d_ops, 0, "data already present: no H2D sub-copies");
    assert_eq!(
        r.d2h_ops, 0,
        "refcount > 1 at kernel time: D2H belongs to the exit-data construct"
    );
    assert_eq!(rt.device_mem_used(1), 0);
}

#[test]
fn two_devices_pipeline_concurrently() {
    let mut rt = runtime();
    let n = 800;
    let a = rt.host_array("A", n);
    let b = rt.host_array("B", n);
    rt.fill_host(a, |i| i as f64);
    rt.run(|s| {
        let half = n / 2;
        Target::device(0)
            .nowait()
            .overlap(4)
            .map(to(a, 0..half))
            .map(from(b, 0..half))
            .parallel_for(
                s,
                0..half,
                KernelSpec::new("dbl", 1.0, |chunk, v| {
                    for i in chunk {
                        let x = v.get(0, i);
                        v.set(1, i, 2.0 * x);
                    }
                })
                .arg(KernelArg::read(a, |r| r))
                .arg(KernelArg::write(b, |r| r)),
            )?;
        Target::device(1)
            .nowait()
            .overlap(4)
            .map(to(a, half..n))
            .map(from(b, half..n))
            .parallel_for(
                s,
                half..n,
                KernelSpec::new("dbl", 1.0, |chunk, v| {
                    for i in chunk {
                        let x = v.get(0, i);
                        v.set(1, i, 2.0 * x);
                    }
                })
                .arg(KernelArg::read(a, |r| r))
                .arg(KernelArg::write(b, |r| r)),
            )?;
        Ok(())
    })
    .unwrap();
    let out = rt.snapshot_host(b);
    for i in 0..n {
        assert_eq!(out[i], 2.0 * i as f64, "B[{i}]");
    }
    let recs = overlap_records(&rt);
    assert_eq!(recs.len(), 2);
    assert!(recs.iter().all(|r| r.staged == r.committed));
    assert!(rt.races().is_empty());
}

#[test]
fn a_reference_taken_mid_kernel_discards_the_staged_sub_slices() {
    // The pipeline predicts its D2H at kernel time, when it holds the
    // only reference to B. A nowait enter-data, released by a short
    // kernel on device 1, takes a second reference while the pipelined
    // kernel runs: the exit then keeps the entry, so the sub-slices
    // already staged are stale and must neither reach the host nor
    // count as staged.
    let mut rt = runtime();
    let n = 4096;
    let b = rt.host_array("B", n);
    let g = rt.host_array("G", 16);
    rt.fill_host(b, |i| i as f64);
    let inc = |name: &'static str, cost: f64, a: HostArray| {
        KernelSpec::new(name, cost, |chunk, v| {
            for i in chunk {
                let x = v.get(0, i);
                v.set(0, i, x + 1.0);
            }
        })
        .arg(KernelArg::read_write(a, |r| r))
    };
    rt.run(|s| {
        Target::device(0)
            .overlap(4)
            .nowait()
            .map(tofrom(b, 0..n))
            .parallel_for(s, 0..n, inc("pipelined", 50.0, b))?;
        Target::device(1)
            .nowait()
            .depend_out(g.full())
            .map(tofrom(g, 0..16))
            .parallel_for(s, 0..16, inc("gate", 1.0, g))?;
        TargetEnterData::device(0)
            .nowait()
            .depend_in(g.full())
            .map(to(b, 0..n))
            .launch(s)?;
        Ok(())
    })
    .unwrap();
    assert_eq!(
        rt.snapshot_host(b)[0],
        0.0,
        "the kept entry wrote nothing back"
    );
    rt.run(|s| {
        TargetExitData::device(0).map(from(b, 0..n)).launch(s)?;
        Ok(())
    })
    .unwrap();
    let out = rt.snapshot_host(b);
    for i in 0..n {
        assert_eq!(out[i], i as f64 + 1.0, "B[{i}]");
    }
    let recs = overlap_records(&rt);
    assert_eq!(recs.len(), 1);
    let r = &recs[0];
    assert!(r.d2h_ops > 0, "the D2H was predicted and issued");
    assert_eq!((r.staged, r.committed), (0, 0), "{r:?}");
    assert_eq!(rt.device_mem_used(0), 0);
}

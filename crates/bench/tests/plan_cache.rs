//! Host-time floors of the launch-plan cache. The `plan_cache` view
//! prints the replay's deterministic half; these are wall-clock, so
//! they hold only in release builds (under `debug_assertions` every
//! cache hit deliberately re-runs the cold planner and compares the
//! plans, so the warm path is as slow as the cold one there). The
//! numbers themselves are the benchmark's `core.plan_cold_ns` and
//! `core.plan_warm_ns`. Both floors are deliberately conservative for
//! slow, shared CI machines.
#![cfg(not(debug_assertions))]

use std::time::Instant;

use spread_bench::plan_cache_leg;
use spread_core::prelude::*;
use spread_devices::{DeviceSpec, Topology};
use spread_rt::kernel::{KernelArg, KernelSpec};
use spread_rt::{Runtime, RuntimeConfig};

#[test]
fn warm_planning_is_at_least_five_times_cheaper_than_cold() {
    let stats = plan_cache_leg(true).1;
    let (cold, warm) = (stats.cold_ns_per_plan(), stats.warm_ns_per_plan());
    assert!(
        cold / warm >= 5.0,
        "the warm path must cut per-construct planning cost by at least 5x \
         (got {:.2}x: cold {cold:.0}ns, warm {warm:.0}ns)",
        cold / warm
    );
}

#[test]
fn keyed_relaunches_sustain_a_thousand_constructs_per_second() {
    const LAUNCHES: usize = 2_000;
    let n = 256;
    let topo = Topology::uniform(2, DeviceSpec::v100().with_mem_bytes(1 << 22), 1e9, 1.5e9);
    let mut rt = Runtime::new(RuntimeConfig::new(topo).with_team_threads(2));
    let a = rt.host_array("A", n);
    rt.fill_host(a, |i| i as f64);
    let wall = Instant::now();
    rt.run(|s| {
        for _ in 0..LAUNCHES {
            TargetSpread::devices([0, 1])
                .with_schedule(SpreadSchedule::static_chunk(64))
                .with_plan_cache("micro")
                .map(spread_tofrom(a, |c| c.range()))
                .parallel_for(
                    s,
                    0..n,
                    KernelSpec::new("bump", 1.0, |chunk, v| {
                        for i in chunk {
                            v.set(0, i, v.get(0, i) + 1.0);
                        }
                    })
                    .arg(KernelArg::read_write(a, |r| r)),
                )?;
        }
        Ok(())
    })
    .expect("micro run");
    let per_sec = LAUNCHES as f64 / wall.elapsed().as_secs_f64();
    let out = rt.snapshot_host(a);
    for (i, v) in out.iter().enumerate() {
        assert_eq!(*v, i as f64 + LAUNCHES as f64, "micro physics");
    }
    let hits = rt.plan_stats().hits;
    assert_eq!(
        hits as usize,
        LAUNCHES - 1,
        "every relaunch after the first must hit"
    );
    assert!(
        per_sec >= 1_000.0,
        "keyed relaunches must sustain at least 1000 constructs/sec (got {per_sec:.0})"
    );
}

//! End-to-end tests of the `spread_plan_cache(key)` clause: repeated
//! launches replay the cached plan, and the topology epoch invalidates
//! — never serves — a stale plan after device loss, integrity-breaker
//! quarantine, or an adaptive-weight update. Misuse is refused
//! (`tests/clause_legality.rs`).

use spread_core::prelude::*;
use spread_devices::{DeviceSpec, Topology};
use spread_rt::kernel::KernelArg;
use spread_rt::prelude::*;
use spread_sim::FaultPlan;
use spread_trace::SimTime;

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

/// One keyed `B[i] = 3*A[i] + 1` launch over `devices`.
fn keyed_scale(
    s: &mut Scope<'_>,
    a: HostArray,
    b: HostArray,
    devices: &[u32],
    n: usize,
    integrity: IntegrityMode,
    resilience: ResiliencePolicy,
) -> Result<(), RtError> {
    TargetSpread::devices(devices.iter().copied())
        .with_schedule(SpreadSchedule::static_chunk(64))
        .with_integrity(integrity)
        .with_resilience(resilience)
        .with_plan_cache("scale")
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
}

fn assert_scaled(rt: &Runtime, b: HostArray, n: usize) {
    let out = rt.snapshot_host(b);
    assert_eq!(out.len(), n);
    for (i, &x) in out.iter().enumerate() {
        assert_eq!(x, 3.0 * i as f64 + 1.0);
    }
}

#[test]
fn repeated_launches_hit_the_cache() {
    let n = 512;
    let mut rt = runtime(3, None, 8);
    let a = rt.host_array("A", n);
    let b = rt.host_array("B", n);
    rt.fill_host(a, |i| i as f64);
    rt.run(|s| {
        for _ in 0..5 {
            keyed_scale(
                s,
                a,
                b,
                &[0, 1, 2],
                n,
                IntegrityMode::Off,
                ResiliencePolicy::FailStop,
            )?;
        }
        Ok(())
    })
    .unwrap();
    assert_scaled(&rt, b, n);
    let stats = rt.plan_stats();
    assert_eq!(stats.misses, 1, "{stats:?}");
    assert_eq!(stats.hits, 4, "{stats:?}");
    assert_eq!(stats.invalidations, 0, "{stats:?}");
    assert_eq!(stats.cold_plans, 1, "{stats:?}");
    assert_eq!(stats.warm_plans, 4, "{stats:?}");
    assert_eq!(rt.topology_epoch(), 0, "nothing invalidated anything");
}

#[test]
fn unkeyed_constructs_leave_the_cache_idle() {
    let n = 256;
    let mut rt = runtime(2, None, 8);
    let a = rt.host_array("A", n);
    rt.fill_host(a, |i| i as f64);
    rt.run(|s| {
        for _ in 0..3 {
            TargetSpread::devices([0, 1])
                .with_schedule(SpreadSchedule::static_chunk(64))
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
    .unwrap();
    let stats = rt.plan_stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.cold_plans, stats.warm_plans),
        (0, 0, 0, 0),
        "an unkeyed construct must never touch the cache: {stats:?}"
    );
}

/// Permanent device loss mid-construct bumps the topology epoch: the
/// relaunch must record an invalidation-miss and re-plan — never serve
/// the pre-loss chunks — and still land exact results.
#[test]
fn device_loss_invalidates_and_forces_a_replan() {
    let n = 512;
    // A clean run to learn the construct's duration, so the loss can be
    // armed squarely inside the first launch.
    let mid = {
        let mut rt = runtime(3, None, 8);
        let a = rt.host_array("A", n);
        let b = rt.host_array("B", n);
        rt.fill_host(a, |i| i as f64);
        rt.run(|s| {
            keyed_scale(
                s,
                a,
                b,
                &[0, 1, 2],
                n,
                IntegrityMode::Off,
                ResiliencePolicy::FailStop,
            )
        })
        .unwrap();
        SimTime::from_nanos(rt.elapsed().as_nanos() / 2)
    };
    let plan = FaultPlan::new(3).lose_device(2, mid);
    let mut rt = runtime(3, Some(plan), 8);
    let a = rt.host_array("A", n);
    let b = rt.host_array("B", n);
    rt.fill_host(a, |i| i as f64);
    rt.run(|s| {
        // Launch 1 plans on the full device list, loses device 2 in
        // flight, and redistributes. Launch 2 re-plans.
        for _ in 0..2 {
            keyed_scale(
                s,
                a,
                b,
                &[0, 1, 2],
                n,
                IntegrityMode::Off,
                ResiliencePolicy::Redistribute,
            )?;
        }
        Ok(())
    })
    .unwrap();
    assert_scaled(&rt, b, n);
    assert_eq!(rt.lost_devices(), vec![2]);
    assert!(rt.topology_epoch() >= 1, "loss must bump the epoch");
    let stats = rt.plan_stats();
    assert_eq!(
        stats.hits, 0,
        "a stale plan must never be served: {stats:?}"
    );
    assert_eq!(stats.misses, 2, "{stats:?}");
    assert_eq!(stats.invalidations, 1, "{stats:?}");
}

/// Integrity-breaker quarantine routes through the same loss hook, so
/// it must bump the epoch and invalidate exactly like a genuine loss.
#[test]
fn quarantine_invalidates_and_forces_a_replan() {
    let n = 512;
    // Device 1 lies on every commit; breaker 2 quarantines it during
    // the first launch.
    let plan = FaultPlan::new(11).silent_flips(1, SimTime::ZERO, 32);
    let mut rt = runtime(4, Some(plan), 2);
    let a = rt.host_array("A", n);
    let b = rt.host_array("B", n);
    rt.fill_host(a, |i| i as f64);
    rt.run(|s| {
        for _ in 0..2 {
            keyed_scale(
                s,
                a,
                b,
                &[0, 1, 2, 3],
                n,
                IntegrityMode::Heal,
                ResiliencePolicy::Redistribute,
            )?;
        }
        Ok(())
    })
    .unwrap();
    assert_scaled(&rt, b, n);
    assert_eq!(rt.lost_devices(), vec![1], "the liar is quarantined");
    assert!(rt.topology_epoch() >= 1, "quarantine must bump the epoch");
    let stats = rt.plan_stats();
    assert_eq!(
        stats.hits, 0,
        "a stale plan must never be served: {stats:?}"
    );
    assert!(stats.invalidations >= 1, "{stats:?}");
}

/// Recording an adaptive construct profile (the `spread_schedule(auto)`
/// learning loop) bumps the epoch: every cached plan is invalidated,
/// because adaptive weights feed future `auto` resolutions.
#[test]
fn adaptive_weight_update_invalidates_cached_plans() {
    let n = 512;
    let mut rt = runtime(2, None, 8);
    let a = rt.host_array("A", n);
    let b = rt.host_array("B", n);
    let c = rt.host_array("C", n);
    rt.fill_host(a, |i| i as f64);
    rt.fill_host(c, |i| i as f64);
    rt.run(|s| {
        keyed_scale(
            s,
            a,
            b,
            &[0, 1],
            n,
            IntegrityMode::Off,
            ResiliencePolicy::FailStop,
        )?;
        // An auto construct in between: completing it records a profile
        // and bumps the epoch.
        TargetSpread::devices([0, 1])
            .with_schedule(SpreadSchedule::auto("learn"))
            .map(spread_tofrom(c, |ch| ch.range()))
            .parallel_for(
                s,
                0..n,
                KernelSpec::new("bump", 1.0, |chunk, v| {
                    for i in chunk {
                        v.set(0, i, v.get(0, i) + 1.0);
                    }
                })
                .arg(KernelArg::read_write(c, |r| r)),
            )?;
        keyed_scale(
            s,
            a,
            b,
            &[0, 1],
            n,
            IntegrityMode::Off,
            ResiliencePolicy::FailStop,
        )?;
        Ok(())
    })
    .unwrap();
    assert_scaled(&rt, b, n);
    assert!(
        rt.topology_epoch() >= 1,
        "the profile record must bump the epoch"
    );
    let stats = rt.plan_stats();
    assert_eq!(
        stats.hits, 0,
        "a stale plan must never be served: {stats:?}"
    );
    assert_eq!(stats.invalidations, 1, "{stats:?}");
}

//! Clause-composition parity between `spread_schedule(auto)` and the
//! static schedules it resolves into.
//!
//! `auto` is specified as *syntactic sugar over `StaticWeighted`*: the
//! runtime resolves it to a concrete weighted plan before any clause
//! validation, so every clause combination must behave exactly as it
//! does for an explicit `StaticWeighted` — same `Ok`/`Err` outcome,
//! same [`RtError`] variant on rejection (never a panic), and
//! bit-identical results where both succeed (the first `auto` launch
//! uses the equal split, i.e. the same plan as equal weights). Which
//! combinations are refused, `nowait` included, is swept in
//! `tests/clause_legality.rs`.

use std::mem::discriminant;

use spread_core::prelude::*;
use spread_devices::{DeviceSpec, Topology};
use spread_rt::kernel::KernelArg;
use spread_rt::prelude::*;
use spread_sim::FaultPlan;
use spread_trace::SimTime;

const N: usize = 256;
const N_DEV: usize = 4;

fn runtime(mem_bytes: u64, plan: Option<FaultPlan>) -> Runtime {
    let topo = Topology::uniform(
        N_DEV,
        DeviceSpec::v100().with_mem_bytes(mem_bytes),
        1e9,
        1.5e9,
    );
    let mut cfg = RuntimeConfig::new(topo)
        .with_team_threads(2)
        .with_trace(true);
    if let Some(p) = plan {
        cfg = cfg.with_fault_plan(p);
    }
    Runtime::new(cfg)
}

/// The equal split `auto` starts from, written as an explicit schedule.
fn equal_static() -> SpreadSchedule {
    SpreadSchedule::StaticWeighted {
        round: N,
        weights: vec![1.0; N_DEV],
    }
}

/// `B[i] = 3*A[i] + 1` under an arbitrary clause combination.
fn run_scale(
    rt: &mut Runtime,
    schedule: SpreadSchedule,
    resilience: ResiliencePolicy,
    pressure: PressurePolicy,
    nowait: bool,
) -> Result<Vec<f64>, RtError> {
    let a = rt.host_array("A", N);
    let b = rt.host_array("B", N);
    rt.fill_host(a, |i| i as f64);
    rt.run(|s| {
        let mut t = TargetSpread::devices(0..N_DEV as u32)
            .with_schedule(schedule.clone())
            .with_resilience(resilience)
            .with_pressure(pressure)
            .map(spread_to(a, |c| c.range()))
            .map(spread_from(b, |c| c.range()));
        if nowait {
            t = t.nowait();
        }
        t.parallel_for(
            s,
            0..N,
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

/// Run the same clause combination under `auto` and under the explicit
/// equal-weight `StaticWeighted` it desugars to, and require identical
/// outcomes: same success/failure, same error variant, same bits.
fn assert_parity(
    mem_bytes: u64,
    plan: Option<FaultPlan>,
    resilience: ResiliencePolicy,
    pressure: PressurePolicy,
    combo: &str,
) {
    let mut rt_static = runtime(mem_bytes, plan.clone());
    let got_static = run_scale(&mut rt_static, equal_static(), resilience, pressure, false);
    let mut rt_auto = runtime(mem_bytes, plan);
    let got_auto = run_scale(
        &mut rt_auto,
        SpreadSchedule::auto("parity"),
        resilience,
        pressure,
        false,
    );
    match (&got_static, &got_auto) {
        (Ok(s), Ok(a)) => assert_eq!(s, a, "{combo}: results must be bit-identical"),
        (Err(es), Err(ea)) => assert_eq!(
            discriminant(es),
            discriminant(ea),
            "{combo}: same RtError variant expected (static: {es:?}, auto: {ea:?})"
        ),
        _ => panic!(
            "{combo}: Ok/Err divergence — static: {:?}, auto: {:?}",
            got_static.as_ref().map(|_| "Ok"),
            got_auto.as_ref().map(|_| "Ok")
        ),
    }
}

#[test]
fn auto_matches_static_on_the_plain_construct() {
    assert_parity(
        1 << 22,
        None,
        ResiliencePolicy::FailStop,
        PressurePolicy::Fail,
        "no extra clauses",
    );
}

#[test]
fn auto_composes_with_resilience_redistribute() {
    // Fault-free first: the clause is armed but never fires.
    assert_parity(
        1 << 22,
        None,
        ResiliencePolicy::Redistribute,
        PressurePolicy::Fail,
        "redistribute, fault-free",
    );
    // And with a mid-run device loss, both recover to the same bits.
    let mid = {
        let mut rt = runtime(1 << 22, None);
        run_scale(
            &mut rt,
            equal_static(),
            ResiliencePolicy::FailStop,
            PressurePolicy::Fail,
            false,
        )
        .unwrap();
        SimTime::from_nanos(rt.elapsed().as_nanos() / 2)
    };
    assert_parity(
        1 << 22,
        Some(FaultPlan::new(7).lose_device(1, mid)),
        ResiliencePolicy::Redistribute,
        PressurePolicy::Fail,
        "redistribute, device 1 lost mid-run",
    );
}

#[test]
fn auto_composes_with_pressure_split_and_spill() {
    // Tight memory: each device holds ~3 KiB while an equal split needs
    // 2 * 64 * 8 = 1024 bytes per device — admission still fits, but
    // only after the planner engages. Both schedules degrade the same
    // way because auto resolves before admission planning.
    for (policy, name) in [
        (PressurePolicy::Split, "pressure(split)"),
        (PressurePolicy::Spill, "pressure(spill)"),
    ] {
        assert_parity(3 << 10, None, ResiliencePolicy::FailStop, policy, name);
        // Ample memory too: the clause is armed but makes no moves.
        assert_parity(
            1 << 22,
            None,
            ResiliencePolicy::FailStop,
            policy,
            "ample-memory pressure",
        );
    }
}

#[test]
fn auto_rejects_the_same_invalid_combos_as_static() {
    // Empty devices is invalid for every schedule (clause combinations
    // are swept in tests/clause_legality.rs).
    let mut rt = runtime(1 << 22, None);
    let a = rt.host_array("A", N);
    for schedule in [equal_static(), SpreadSchedule::auto("empty")] {
        let err = rt
            .run(|s| {
                TargetSpread::devices([])
                    .with_schedule(schedule.clone())
                    .map(spread_tofrom(a, |c| c.range()))
                    .parallel_for(
                        s,
                        0..N,
                        KernelSpec::new("id", 1.0, |_, _| {}).arg(KernelArg::read(a, |r| r)),
                    )?;
                Ok(())
            })
            .unwrap_err();
        assert!(
            matches!(err, RtError::InvalidDirective(_)),
            "empty devices: {err:?}"
        );
    }
}

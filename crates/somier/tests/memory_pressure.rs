//! Somier under device memory pressure: the `spread_pressure(…)` One
//! Buffer variant must complete bit-identically to the CPU reference
//! with every device's memory capped at 60% of what the buffer planning
//! assumes, under a seeded fault plan holding sustained OOM-pressure
//! windows — in both the split and the spill mode.

use spread_core::{PressurePolicy, SpreadClausesExt};
use spread_rt::{DegradationKind, RtError};
use spread_sim::FaultPlan;
use spread_somier::one_buffer::run_spread_scoped;
use spread_somier::reference::run_reference;
use spread_somier::SomierConfig;
use spread_trace::{SimTime, SpanKind};

const N_GPUS: usize = 4;

/// The oversubscribed machine: devices get 60% of the memory the
/// buffer planning assumed.
fn cfg() -> SomierConfig {
    SomierConfig::test_small(20, 2).with_mem_cap_frac(0.6)
}

/// Sustained OOM-pressure windows (never released) of `bytes` on every
/// device, opened before the run starts.
fn sustained(seed: u64, bytes: u64) -> FaultPlan {
    (0..N_GPUS as u32).fold(FaultPlan::new(seed), |p, d| {
        p.sustain_pressure(d, SimTime::ZERO, bytes)
    })
}

#[test]
fn pressure_variant_matches_reference_on_a_healthy_machine() {
    let cfg = SomierConfig::test_small(20, 2);
    let mut rt = cfg.runtime(N_GPUS);
    let report = run_spread_scoped(&mut rt, &cfg, N_GPUS, None, |c, _| {
        c.with_pressure(PressurePolicy::Split)
    })
    .unwrap()
    .0;
    let reference = run_reference(&cfg, cfg.buffer_planes(N_GPUS));
    assert_eq!(report.centers, reference.centers, "centers bit-exact");
    assert_eq!(report.races, 0);
    assert!(
        rt.degradations().is_empty(),
        "full-size devices must not degrade"
    );
}

#[test]
fn split_mode_completes_bit_identical_at_60_percent_memory() {
    let cfg = cfg();
    let mut rt = cfg.runtime_with_faults(N_GPUS, sustained(0xD1, 20_000));
    let report = run_spread_scoped(&mut rt, &cfg, N_GPUS, None, |c, _| {
        c.with_pressure(PressurePolicy::Split)
    })
    .unwrap()
    .0;
    let reference = run_reference(&cfg, cfg.buffer_planes(N_GPUS));
    assert_eq!(
        report.centers, reference.centers,
        "degraded run must stay bit-identical to the reference"
    );
    assert_eq!(report.races, 0);
    let evs = rt.degradations();
    assert!(!evs.is_empty(), "60% memory must force degradation");
    assert!(
        evs.iter().any(|e| e.kind == DegradationKind::ChunkSplit),
        "the halo-heavy forces chunks must split, got {evs:?}"
    );
    assert!(
        evs.iter().all(|e| e.kind != DegradationKind::Spilled),
        "split mode never touches the host staging buffer, got {evs:?}"
    );
    let splits = rt
        .timeline()
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::ChunkSplit)
        .count();
    assert!(splits > 0, "split decisions must be visible in the trace");
}

#[test]
fn spill_mode_completes_bit_identical_at_60_percent_memory() {
    let cfg = cfg();
    // Heavier sustained pressure: not even a single-plane forces piece
    // fits any device, so those chunks stream through the host.
    let mut rt = cfg.runtime_with_faults(N_GPUS, sustained(0xD2, 50_000));
    let report = run_spread_scoped(&mut rt, &cfg, N_GPUS, None, |c, _| {
        c.with_pressure(PressurePolicy::Spill)
    })
    .unwrap()
    .0;
    let reference = run_reference(&cfg, cfg.buffer_planes(N_GPUS));
    assert_eq!(
        report.centers, reference.centers,
        "spilled run must stay bit-identical to the reference"
    );
    assert_eq!(report.races, 0);
    let evs = rt.degradations();
    assert!(
        evs.iter().any(|e| e.kind == DegradationKind::Spilled),
        "this pressure level must spill, got {evs:?}"
    );
    assert!(
        evs.iter()
            .filter(|e| e.kind == DegradationKind::Spilled)
            .all(|e| e.device.is_none() && e.bytes > 0),
        "spill events carry the spilled bytes, got {evs:?}"
    );
    assert!(rt
        .timeline()
        .spans()
        .iter()
        .any(|s| s.kind == SpanKind::Spill));
}

#[test]
fn split_mode_fails_degraded_when_even_one_plane_fits_nowhere() {
    // 5% memory: a single-plane piece exceeds every device, and without
    // the spill rung the construct must say so instead of wedging.
    let cfg = SomierConfig::test_small(20, 2).with_mem_cap_frac(0.05);
    let mut rt = cfg.runtime(N_GPUS);
    let err = run_spread_scoped(&mut rt, &cfg, N_GPUS, None, |c, _| {
        c.with_pressure(PressurePolicy::Split)
    })
    .unwrap_err();
    assert!(
        matches!(err, RtError::Degraded { .. }),
        "expected Degraded, got: {err}"
    );
}

#[test]
fn degraded_runs_are_deterministic() {
    let run = |policy| {
        let cfg = cfg();
        let mut rt = cfg.runtime_with_faults(N_GPUS, sustained(0xD1, 20_000));
        let report = run_spread_scoped(&mut rt, &cfg, N_GPUS, None, |c, _| c.with_pressure(policy))
            .unwrap()
            .0;
        (report.centers, report.elapsed, rt.degradations())
    };
    assert_eq!(run(PressurePolicy::Split), run(PressurePolicy::Split));
    assert_eq!(run(PressurePolicy::Spill), run(PressurePolicy::Spill));
}

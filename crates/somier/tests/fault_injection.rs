//! Somier under injected device loss: the resilient One Buffer variant
//! must complete bit-identically to the CPU reference with a device
//! dying mid-run, and the fail-stop default must report the loss
//! deterministically.

use spread_core::{ExchangeMode, ResiliencePolicy, SpreadClausesExt};
use spread_rt::{RtError, RunEvent};
use spread_sim::FaultPlan;
use spread_somier::one_buffer::run_spread_scoped;
use spread_somier::reference::run_reference;
use spread_somier::SomierConfig;
use spread_trace::{peer_span_source, SimTime, SpanKind};

const N_GPUS: usize = 4;

fn cfg() -> SomierConfig {
    SomierConfig::test_small(20, 2)
}

/// Virtual mid-point of a fault-free resilient run.
fn clean_midpoint(cfg: &SomierConfig) -> SimTime {
    let mut rt = cfg.runtime(N_GPUS);
    run_spread_scoped(&mut rt, cfg, N_GPUS, None, |c, _| {
        c.with_resilience(ResiliencePolicy::FailStop)
    })
    .unwrap();
    SimTime::from_nanos(rt.elapsed().as_nanos() / 2)
}

#[test]
fn resilient_variant_matches_reference_without_faults() {
    let cfg = cfg();
    let mut rt = cfg.runtime(N_GPUS);
    let report = run_spread_scoped(&mut rt, &cfg, N_GPUS, None, |c, _| {
        c.with_resilience(ResiliencePolicy::Redistribute)
    })
    .unwrap()
    .0;
    let reference = run_reference(&cfg, cfg.buffer_planes(N_GPUS));
    assert_eq!(report.centers, reference.centers, "centers bit-exact");
    assert_eq!(report.races, 0);
}

#[test]
fn one_buffer_completes_bit_identical_with_device_lost_mid_run() {
    let cfg = cfg();
    let mid = clean_midpoint(&cfg);
    let plan = FaultPlan::new(42).lose_device(1, mid);
    let mut rt = cfg.runtime_with_faults(N_GPUS, plan);
    let report = run_spread_scoped(&mut rt, &cfg, N_GPUS, None, |c, _| {
        c.with_resilience(ResiliencePolicy::Redistribute)
    })
    .unwrap()
    .0;
    let reference = run_reference(&cfg, cfg.buffer_planes(N_GPUS));
    assert_eq!(
        report.centers, reference.centers,
        "recovered run must be bit-identical to the reference"
    );
    assert_eq!(report.races, 0);
    // The loss really happened and chunks really moved.
    let redists = rt
        .timeline()
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Redistribute)
        .count();
    assert!(redists > 0, "mid-run loss must trigger redistribution");
    // Loss cleanup released everything the dead device held.
    assert_eq!(rt.device_mem_used(1), 0);
}

#[test]
fn one_buffer_recovers_device_dead_from_the_start() {
    let cfg = cfg();
    let plan = FaultPlan::new(5).lose_device(3, SimTime::ZERO);
    let mut rt = cfg.runtime_with_faults(N_GPUS, plan);
    let report = run_spread_scoped(&mut rt, &cfg, N_GPUS, None, |c, _| {
        c.with_resilience(ResiliencePolicy::Redistribute)
    })
    .unwrap()
    .0;
    let reference = run_reference(&cfg, cfg.buffer_planes(N_GPUS));
    assert_eq!(report.centers, reference.centers);
}

#[test]
fn fail_stop_reports_the_loss_deterministically() {
    let cfg = cfg();
    let mid = clean_midpoint(&cfg);
    let run = || {
        let plan = FaultPlan::new(42).lose_device(1, mid);
        let mut rt = cfg.runtime_with_faults(N_GPUS, plan);
        run_spread_scoped(&mut rt, &cfg, N_GPUS, None, |c, _| {
            c.with_resilience(ResiliencePolicy::FailStop)
        })
        .unwrap_err()
    };
    let err = run();
    assert!(
        matches!(err, RtError::DeviceLost { device: 1, .. }),
        "fail-stop must surface the loss, got: {err}"
    );
    assert_eq!(
        run().to_string(),
        err.to_string(),
        "identical plan => identical fail-stop error"
    );
}

/// Virtual midpoint of the first peer copy sourced from `device` in a
/// fault-free `exchange(auto)` run — a loss there lands squarely inside
/// the halo-exchange window, with later copies off the same source
/// still queued.
fn first_peer_window_from(cfg: &SomierConfig, device: u32) -> SimTime {
    let mut rt = cfg.runtime(N_GPUS);
    run_spread_scoped(&mut rt, cfg, N_GPUS, Some(ExchangeMode::Auto), |c, _| c).unwrap();
    let tl = rt.timeline();
    let span = tl
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::PeerCopy && peer_span_source(&s.label) == Some(device))
        .min_by_key(|s| s.start)
        .cloned()
        .expect("a clean auto run routes halos off every interior device");
    span.start + (span.end - span.start) / 2
}

#[test]
fn peer_run_survives_losing_a_source_mid_copy_via_host_fallback() {
    // Device 2: an interior peer source, and (chunk >= 2) far enough
    // from the replacement survivor (device 0) that rebuilt chunks
    // stay disjoint from its held halo mapping.
    let cfg = cfg();
    let at = first_peer_window_from(&cfg, 2);
    let plan = FaultPlan::new(42).lose_device(2, at);
    let mut rt = cfg.runtime_with_faults(N_GPUS, plan);
    let (report, _halo) =
        run_spread_scoped(&mut rt, &cfg, N_GPUS, Some(ExchangeMode::Auto), |c, _| {
            c.with_resilience(ResiliencePolicy::Redistribute)
        })
        .unwrap();
    let reference = run_reference(&cfg, cfg.buffer_planes(N_GPUS));
    assert_eq!(
        report.centers, reference.centers,
        "loss mid-peer-copy must stay bit-identical via the host fallback"
    );
    // Copies still queued against the dead source really diverted…
    let diverted = rt
        .events()
        .iter()
        .filter_map(RunEvent::peer_copy)
        .filter(|r| r.diverted)
        .count();
    assert!(
        diverted > 0,
        "queued copies off the dead source must divert"
    );
    // …and the dead device's compute chunks moved to survivors.
    let redists = rt
        .timeline()
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Redistribute)
        .count();
    assert!(redists > 0, "lost chunks must be rebuilt on survivors");
    assert_eq!(rt.device_mem_used(2), 0);
}

#[test]
fn peer_fail_stop_surfaces_a_source_loss_deterministically() {
    let cfg = cfg();
    let at = first_peer_window_from(&cfg, 2);
    let run = || {
        let plan = FaultPlan::new(42).lose_device(2, at);
        let mut rt = cfg.runtime_with_faults(N_GPUS, plan);
        run_spread_scoped(&mut rt, &cfg, N_GPUS, Some(ExchangeMode::Auto), |c, _| c).unwrap_err()
    };
    let err = run();
    assert!(
        matches!(err, RtError::DeviceLost { device: 2, .. }),
        "fail-stop must surface the loss, got: {err}"
    );
    assert_eq!(run().to_string(), err.to_string());
}

#[test]
fn recovery_is_deterministic() {
    let cfg = cfg();
    let mid = clean_midpoint(&cfg);
    let run = || {
        let plan = FaultPlan::new(42).lose_device(1, mid);
        let mut rt = cfg.runtime_with_faults(N_GPUS, plan);
        let report = run_spread_scoped(&mut rt, &cfg, N_GPUS, None, |c, _| {
            c.with_resilience(ResiliencePolicy::Redistribute)
        })
        .unwrap()
        .0;
        (report.centers, report.elapsed, report.kernel_launches)
    };
    assert_eq!(run(), run());
}

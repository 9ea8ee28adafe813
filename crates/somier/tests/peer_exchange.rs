//! The `exchange(peer|host|auto)` halo variant of One Buffer: the
//! device-to-device route must change *where* halo planes travel,
//! never their bytes — centers stay bit-exact against the CPU
//! reference in every mode, and `auto`'s halo phase is faster than the
//! host round-trip on the CTE-POWER machine.

use spread_core::ExchangeMode;
use spread_sim::FaultPlan;
use spread_somier::one_buffer::run_spread_scoped;
use spread_somier::reference::run_reference;
use spread_somier::SomierConfig;
use spread_trace::{SimTime, SpanKind};

const N_GPUS: usize = 4;

fn cfg() -> SomierConfig {
    SomierConfig::test_small(20, 2)
}

#[test]
fn auto_matches_host_mode_and_the_reference_bit_exact() {
    let cfg = cfg();
    let reference = run_reference(&cfg, cfg.buffer_planes(N_GPUS));

    let mut host_rt = cfg.runtime(N_GPUS);
    let (host_report, host_halo) = run_spread_scoped(
        &mut host_rt,
        &cfg,
        N_GPUS,
        Some(ExchangeMode::Host),
        |c, _| c,
    )
    .unwrap();
    let mut auto_rt = cfg.runtime(N_GPUS);
    let (auto_report, auto_halo) = run_spread_scoped(
        &mut auto_rt,
        &cfg,
        N_GPUS,
        Some(ExchangeMode::Auto),
        |c, _| c,
    )
    .unwrap();

    assert_eq!(host_report.centers, reference.centers, "host route");
    assert_eq!(auto_report.centers, reference.centers, "peer route");
    assert_eq!(host_report.races, 0);
    assert_eq!(auto_report.races, 0);

    // The routes really differ: host mode never uses the peer engines,
    // auto moves every interior halo plane device-to-device.
    let peer_spans = |rt: &spread_rt::Runtime| {
        rt.timeline()
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::PeerCopy)
            .count()
    };
    assert_eq!(peer_spans(&host_rt), 0);
    assert!(peer_spans(&auto_rt) > 0, "auto must route halos D2D");
    assert!(auto_rt.peer_copies().iter().all(|r| !r.diverted));

    // The point of the exercise: the halo phase gets faster.
    assert!(
        auto_halo < host_halo,
        "peer halo phase {auto_halo} must beat host {host_halo}"
    );
}

#[test]
fn peer_runs_are_deterministic() {
    let cfg = cfg();
    let run = || {
        let mut rt = cfg.runtime(N_GPUS);
        let (report, halo) =
            run_spread_scoped(&mut rt, &cfg, N_GPUS, Some(ExchangeMode::Auto), |c, _| c).unwrap();
        (report.centers, report.elapsed, halo, rt.peer_copies().len())
    };
    assert_eq!(run(), run());
}

/// PR 2 × PR 5 interaction: a degraded peer link slows the halo phase
/// but must not change the routing decision — `auto` keeps the copies
/// device-to-device (diversion is for *dead* sources only, never a
/// timing call), and slower links never change bytes.
#[test]
fn degraded_link_still_routes_peer_and_stays_bit_identical() {
    let cfg = cfg();
    let halo_of = |rt: &mut spread_rt::Runtime| {
        run_spread_scoped(rt, &cfg, N_GPUS, Some(ExchangeMode::Auto), |c, _| c).unwrap()
    };

    let mut clean_rt = cfg.runtime(N_GPUS);
    let (_, clean_halo) = halo_of(&mut clean_rt);

    // Device 1 is an interior peer source; throttle its link 8x for the
    // whole run.
    let plan = FaultPlan::new(11).degrade_link(1, SimTime::ZERO, SimTime::MAX, 8.0);
    let mut rt = cfg.runtime_with_faults(N_GPUS, plan);
    let (report, degraded_halo) = halo_of(&mut rt);

    let reference = run_reference(&cfg, cfg.buffer_planes(N_GPUS));
    assert_eq!(
        report.centers, reference.centers,
        "a slow link changes timing, never bytes"
    );
    assert_eq!(report.races, 0);
    let peer_spans = rt
        .timeline()
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::PeerCopy)
        .count();
    assert!(peer_spans > 0, "auto must still route halos D2D");
    assert!(
        rt.peer_copies().iter().all(|r| !r.diverted),
        "diversion is a liveness decision, not a timing one"
    );
    assert!(
        degraded_halo > clean_halo,
        "the degradation must actually bite: degraded {degraded_halo} vs clean {clean_halo}"
    );
}

#[test]
fn single_device_auto_degrades_to_host_route() {
    let cfg = cfg();
    let mut rt = cfg.runtime(1);
    let (report, _halo) =
        run_spread_scoped(&mut rt, &cfg, 1, Some(ExchangeMode::Auto), |c, _| c).unwrap();
    let reference = run_reference(&cfg, cfg.buffer_planes(1));
    assert_eq!(report.centers, reference.centers);
    assert!(rt.peer_copies().is_empty());
}

//! Validation of every Somier implementation against the CPU reference.

use spread_core::ExchangeMode;
use spread_rt::RtError;
use spread_somier::one_buffer::{self, run_spread_scoped};
use spread_somier::reference::run_reference;
use spread_somier::{double_buffering, run_somier, two_buffers, SomierConfig, SomierImpl};

#[test]
fn one_buffer_target_matches_reference_exactly() {
    let cfg = SomierConfig::test_small(20, 3);
    let (report, _rt) = run_somier(&cfg, SomierImpl::OneBufferTarget, 1).unwrap();
    let reference = run_reference(&cfg, cfg.buffer_planes(1));
    assert_eq!(
        report.centers, reference.centers,
        "centers must be bit-exact"
    );
    assert_eq!(report.races, 0, "the blocking baseline has no races");
    assert!(report.kernel_launches > 0);
    assert!(report.h2d_bytes > 0 && report.d2h_bytes > 0);
}

#[test]
fn one_buffer_spread_matches_reference_exactly_any_gpus() {
    for n_gpus in [1usize, 2, 4] {
        let cfg = SomierConfig::test_small(20, 2);
        let (report, rt) = run_somier(&cfg, SomierImpl::OneBufferSpread, n_gpus).unwrap();
        let reference = run_reference(&cfg, cfg.buffer_planes(n_gpus));
        assert_eq!(
            report.centers, reference.centers,
            "{n_gpus} GPUs: centers must be bit-exact"
        );
        assert_eq!(
            report.races, 0,
            "{n_gpus} GPUs: phases are barrier-separated"
        );
        // All mappings were released.
        for d in 0..n_gpus as u32 {
            assert_eq!(rt.device_mem_used(d), 0, "{n_gpus} GPUs: device {d} clean");
        }
    }
}

#[test]
fn spread_equals_baseline_bit_for_bit_on_one_gpu() {
    // Table I's 1-GPU columns: target vs target spread must compute the
    // same thing (and take nearly the same time — checked in the bench).
    let cfg = SomierConfig::test_small(20, 3);
    let (base, _) = run_somier(&cfg, SomierImpl::OneBufferTarget, 1).unwrap();
    let (spread, _) = run_somier(&cfg, SomierImpl::OneBufferSpread, 1).unwrap();
    assert_eq!(base.centers, spread.centers);
    // Same data volume moved.
    assert_eq!(base.h2d_bytes, spread.h2d_bytes);
    assert_eq!(base.d2h_bytes, spread.d2h_bytes);
}

#[test]
fn two_buffers_matches_reference_closely() {
    let cfg = SomierConfig::test_small(100, 2);
    let (report, rt) = run_somier(&cfg, SomierImpl::TwoBuffers, 2).unwrap();
    let reference = run_reference(&cfg, cfg.half_planes(2));
    for c in 0..3 {
        assert!(
            (report.centers[c] - reference.centers[c]).abs() < 1e-6,
            "centers[{c}]: {} vs {}",
            report.centers[c],
            reference.centers[c]
        );
    }
    for d in 0..2 {
        assert_eq!(rt.device_mem_used(d), 0);
    }
}

#[test]
fn double_buffering_matches_reference_closely() {
    let cfg = SomierConfig::test_small(100, 2);
    let (report, rt) = run_somier(&cfg, SomierImpl::DoubleBuffering, 2).unwrap();
    let reference = run_reference(&cfg, cfg.half_planes(2));
    for c in 0..3 {
        assert!(
            (report.centers[c] - reference.centers[c]).abs() < 1e-6,
            "centers[{c}]: {} vs {}",
            report.centers[c],
            reference.centers[c]
        );
    }
    for d in 0..2 {
        assert_eq!(rt.device_mem_used(d), 0);
    }
}

/// §V-B: "the Two Buffers and Double Buffering versions could not be
/// tested with any of the directives using only one GPU" — the halo
/// sections of concurrently mapped consecutive halves overlap.
#[test]
fn buffered_versions_fail_on_one_gpu() {
    let cfg = SomierConfig::test_small(100, 1);
    for which in [SomierImpl::TwoBuffers, SomierImpl::DoubleBuffering] {
        match run_somier(&cfg, which, 1) {
            Err(RtError::OverlapExtension { .. }) => {}
            Err(other) => panic!("{which:?}/1GPU: wrong error {other}"),
            Ok(_) => panic!("{which:?}/1GPU: must be rejected"),
        }
    }
}

/// No devices is a directive error like any other bad `devices(…)`
/// list, on every entry point that takes a device count.
#[test]
fn zero_gpus_is_an_invalid_directive() {
    let cfg = SomierConfig::test_small(20, 1);
    let rt = || cfg.runtime(2);
    let scoped = |exchange| run_spread_scoped(&mut rt(), &cfg, 0, exchange, |c, _| c).map(|r| r.0);
    for (entry, result) in [
        ("run_spread", one_buffer::run_spread(&mut rt(), &cfg, 0)),
        ("run_spread_scoped", scoped(None)),
        ("with an exchange", scoped(Some(ExchangeMode::Auto))),
        ("two_buffers::run", two_buffers::run(&mut rt(), &cfg, 0)),
        (
            "double_buffering",
            double_buffering::run(&mut rt(), &cfg, 0),
        ),
    ] {
        assert!(
            matches!(result, Err(RtError::InvalidDirective(_))),
            "{entry}: {result:?}"
        );
    }
}

/// Table I's headline: more GPUs → shorter virtual time; kernels scale
/// near-linearly while transfers saturate.
#[test]
fn spread_speedup_with_more_gpus() {
    let cfg = SomierConfig::test_small(48, 1);
    let (r1, _) = run_somier(&cfg, SomierImpl::OneBufferSpread, 1).unwrap();
    let (r2, _) = run_somier(&cfg, SomierImpl::OneBufferSpread, 2).unwrap();
    let (r4, _) = run_somier(&cfg, SomierImpl::OneBufferSpread, 4).unwrap();
    let (t1, t2, t4) = (
        r1.elapsed.as_secs_f64(),
        r2.elapsed.as_secs_f64(),
        r4.elapsed.as_secs_f64(),
    );
    assert!(t2 < t1, "2 GPUs beat 1: {t2} vs {t1}");
    assert!(t4 < t2, "4 GPUs beat 2: {t4} vs {t2}");
    // Bounded by the bus: the 4-GPU speedup stays well below linear.
    assert!(
        t1 / t4 < 3.5,
        "speedup {:.2} should be transfer-bound",
        t1 / t4
    );
}

/// The virtual clock is deterministic: identical runs give identical
/// times and results.
#[test]
fn runs_are_deterministic() {
    let cfg = SomierConfig::test_small(20, 2);
    let (a, _) = run_somier(&cfg, SomierImpl::OneBufferSpread, 2).unwrap();
    let (b, _) = run_somier(&cfg, SomierImpl::OneBufferSpread, 2).unwrap();
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.centers, b.centers);
    assert_eq!(a.transfer_ops, b.transfer_ops);
}

/// The §VI-B granularity observation: 12 grids ⇒ 12 copies per mapped
/// chunk, each way.
#[test]
fn twelve_copies_per_chunk() {
    let cfg = SomierConfig::test_small(20, 1);
    let (report, _) = run_somier(&cfg, SomierImpl::OneBufferSpread, 2).unwrap();
    let n = cfg.n;
    let buffer = cfg.buffer_planes(2);
    let n_buffers = n.div_ceil(buffer);
    // Per buffer: 2 devices × 12 copies in + 2 × 12 out, plus the
    // centers partials (3 per device per buffer, out).
    let chunks_per_buffer = 2;
    let expected = n_buffers * chunks_per_buffer * (12 + 12 + 3);
    assert_eq!(report.transfer_ops, expected, "buffers={n_buffers}");
}

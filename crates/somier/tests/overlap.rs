//! Profile regression tests for the pipelined Somier variant
//! (`run_spread_scoped` under `spread_overlap`): the engine must show
//! real transfer/compute overlap on every device and shorten the run —
//! a silently serializing pipeline fails here even though its results
//! would still be correct.
//!
//! Everything is virtual time, so every number below is deterministic
//! and the strict inequalities are stable regression anchors.

use spread_core::{OverlapPolicy, SpreadClausesExt};
use spread_somier::one_buffer::run_spread_scoped;
use spread_somier::reference::run_reference;
use spread_somier::SomierConfig;
use spread_trace::{profile_window, DeviceProfile, SimTime};

const N_GPUS: usize = 4;
const DEPTH: u32 = 4;

/// The balanced calibration from `spread-bench --bin export_overlap`,
/// shrunk for test speed: DMA and compute queues modeled separately
/// (they exist on the V100; the serialized path just never uses them),
/// kernel costs ×6 so both engines carry comparable work, and device 0
/// compute-slowed 3× so the fast devices accumulate a real idle tail
/// waiting for it.
fn config() -> SomierConfig {
    let mut cfg = SomierConfig::test_small(96, 2)
        .with_single_queue(false)
        .with_slow_device(0, 3.0);
    cfg.costs = cfg.costs.scaled(6.0);
    cfg
}

fn device_profiles(rt: &spread_rt::Runtime) -> Vec<DeviceProfile> {
    let devices: Vec<u32> = (0..N_GPUS as u32).collect();
    profile_window(rt.timeline().spans(), &devices, SimTime::ZERO, rt.now())
}

#[test]
fn pipelined_somier_overlaps_on_every_device_and_shrinks_the_tail() {
    let cfg = config();
    let reference = run_reference(&cfg, cfg.buffer_planes(N_GPUS));

    let mut base_rt = cfg.runtime(N_GPUS);
    let base = run_spread_scoped(&mut base_rt, &cfg, N_GPUS, None, |c, _| c)
        .expect("baseline run")
        .0;
    assert_eq!(base.centers, reference.centers);
    let base_profs = device_profiles(&base_rt);

    let mut rt = cfg.runtime(N_GPUS);
    let piped = run_spread_scoped(&mut rt, &cfg, N_GPUS, None, |c, _| {
        c.with_overlap(OverlapPolicy::Depth(DEPTH))
    })
    .expect("pipelined run")
    .0;
    assert_eq!(
        piped.centers, reference.centers,
        "pipelining must not change the physics"
    );
    let piped_profs = device_profiles(&rt);

    // The serialized path never has a copy and a kernel in flight at
    // once, even on a machine whose queues would allow it; the pipeline
    // must — on every device, by a margin no rounding jitter produces.
    for (b, p) in base_profs.iter().zip(&piped_profs) {
        assert_eq!(
            b.overlap,
            spread_trace::SimDuration::ZERO,
            "device {}: blocking whole-piece constructs cannot overlap",
            b.device
        );
        assert!(
            p.overlap.as_nanos() > 1_000_000,
            "device {}: the pipeline must overlap transfers with compute \
             (got {} ns — is the engine silently serializing?)",
            p.device,
            p.overlap.as_nanos()
        );
    }

    // Latency hiding must reach the end-to-end clock, not just the
    // engine ledger.
    assert!(
        piped.elapsed < base.elapsed,
        "pipelining must shorten the run (base {:?}, piped {:?})",
        base.elapsed,
        piped.elapsed
    );

    // And the idle tail the fast devices spend waiting for the slow one
    // must shrink: pipelining hides the straggler's transfers under its
    // long kernels, pulling the whole-run finish line in.
    let idle =
        |profs: &[DeviceProfile]| -> u64 { profs.iter().map(|d| d.idle_tail.as_nanos()).sum() };
    assert!(
        idle(&piped_profs) < idle(&base_profs),
        "pipelining must shrink the fast devices' idle tail \
         (base {} ns, piped {} ns)",
        idle(&base_profs),
        idle(&piped_profs)
    );
}

#[test]
fn pipelined_somier_keeps_commits_whole_piece() {
    let cfg = config();
    let mut rt = cfg.runtime(N_GPUS);
    run_spread_scoped(&mut rt, &cfg, N_GPUS, None, |c, _| {
        c.with_overlap(OverlapPolicy::Depth(DEPTH))
    })
    .expect("pipelined run");
    let recs = rt.overlap_records();
    assert!(!recs.is_empty(), "the pipeline must engage");
    for r in &recs {
        assert!(!r.leaked, "no sub-slice commit may escape early");
        if !r.bypassed {
            assert_eq!(
                r.staged, r.committed,
                "every staged sub-slice commits exactly at the whole-piece boundary"
            );
        }
    }
    assert!(rt.races().is_empty());
}

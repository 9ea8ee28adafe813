//! Tier-1 conformance: the model-based harness in `spread-check` run at
//! a small in-tree budget (CI runs the full 200 × 4 budget via the
//! `fuzz` binary). Every generated program must agree with the
//! sequential oracle under several deterministic interleavings, the
//! harness must *catch* injected semantic faults, and shrinking must be
//! deterministic.

use spread_check::{
    ast::{FaultMode, FaultSpec, KernelOp, PressureSpec, Program, Sched, Stmt},
    check_program, check_seed, fuzz, gen, oracle, pretty, shrink_seed, CheckConfig, Fault, Mode,
};
use spread_core::PressurePolicy;
use spread_rt::RtError;

#[test]
fn fuzz_small_budget_agrees_with_oracle() {
    let cfg = CheckConfig {
        interleavings: 3,
        ..CheckConfig::default()
    };
    let report = fuzz(0xC0FFEE, 40, &cfg, |_, _| {});
    assert_eq!(report.programs, 40);
    assert_eq!(report.executions, 120);
    let seeds: Vec<u64> = report.failures.iter().map(|f| f.seed).collect();
    assert!(seeds.is_empty(), "failing seeds: {seeds:?}");
}

#[test]
fn fuzz_with_fault_plans_agrees_with_oracle() {
    // Every generated fault plan — dead-on-arrival devices under both
    // fail-stop and redistribute, transient copy bursts — must land on
    // the oracle's prediction under every interleaving.
    let cfg = CheckConfig {
        interleavings: 2,
        mode: Mode::Faults,
        ..CheckConfig::default()
    };
    let report = fuzz(0xFA17, 30, &cfg, |_, _| {});
    assert_eq!(report.programs, 30);
    let seeds: Vec<u64> = report.failures.iter().map(|f| f.seed).collect();
    assert!(seeds.is_empty(), "failing seeds: {seeds:?}");
}

/// A handcrafted program where the injected faults are observable, so a
/// perturbed oracle must disagree with the (correct) runtime — proving
/// the harness actually detects semantic divergence.
fn fault_sensitive_program() -> Program {
    Program {
        phases: vec![vec![
            Stmt::Spread {
                devices: vec![0, 1],
                sched: Sched::Static { chunk: 4 },
                nowait: false,
                op: KernelOp::Stencil3 { src: 0, dst: 1 },
            },
            Stmt::Reduce {
                devices: vec![1, 0],
                sched: Sched::Static { chunk: 5 },
                a: 2,
                partials: 3,
                alpha: 2.0,
                op: spread_core::reduction::ReduceOp::Sum,
            },
        ]],
        ..Program::new(2, 16, 4)
    }
}

#[test]
fn injected_faults_are_caught() {
    let p = fault_sensitive_program();
    let clean = CheckConfig {
        interleavings: 2,
        ..CheckConfig::default()
    };
    check_program(&p, 7, &clean).expect("program is legal and conformant");
    for fault in [Fault::StencilDropsLeftHalo, Fault::ReduceSkipsLast] {
        let cfg = CheckConfig {
            interleavings: 2,
            fault: Some(fault),
            ..CheckConfig::default()
        };
        let failure = check_program(&p, 7, &cfg)
            .expect_err("perturbed oracle must disagree with the runtime");
        assert!(!failure.detail.is_empty(), "{fault:?}");
    }
}

/// A resilient program whose lost device owns real chunks: the runtime
/// recovers them bit-identically, and the `--inject recovery` canary —
/// an oracle that pretends recovery dropped those chunks — must be
/// caught. This is the proof that a runtime which silently lost work
/// during redistribution would not slip past the harness.
#[test]
fn recovery_canary_is_caught() {
    let p = Program {
        phases: vec![vec![Stmt::Spread {
            devices: vec![0, 1],
            sched: Sched::Static { chunk: 4 },
            nowait: false,
            op: KernelOp::AddConst { a: 0, c: 1.0 },
        }]],
        fault: Some(FaultSpec {
            lost: Some(1),
            mode: FaultMode::Resilient,
            transients: vec![],
        }),
        ..Program::new(2, 16, 2)
    };
    let clean = CheckConfig {
        interleavings: 2,
        ..CheckConfig::default()
    };
    check_program(&p, 11, &clean).expect("recovery reproduces the fault-free state");
    let canary = CheckConfig {
        interleavings: 2,
        fault: Some(Fault::RecoveryDropsLostChunk),
        ..CheckConfig::default()
    };
    let failure =
        check_program(&p, 11, &canary).expect_err("a recovery that dropped chunks must be flagged");
    assert!(
        failure.detail.contains("array"),
        "divergence shows in host arrays: {failure}"
    );
}

#[test]
fn fail_stop_loss_is_predicted_and_matched() {
    let mut p = Program {
        phases: vec![vec![Stmt::Spread {
            devices: vec![0, 1],
            sched: Sched::Static { chunk: 4 },
            nowait: false,
            op: KernelOp::Scale { a: 1, c: 2.0 },
        }]],
        fault: Some(FaultSpec {
            lost: Some(0),
            mode: FaultMode::FailStop,
            transients: vec![],
        }),
        ..Program::new(2, 16, 2)
    };
    let want = oracle::predict(&p, None);
    assert!(
        matches!(want.error, Some(RtError::DeviceLost { device: 0, .. })),
        "oracle said {:?}",
        want.error
    );
    check_program(&p, 5, &CheckConfig::default())
        .expect("runtime raises the predicted DeviceLost under every interleaving");

    // Transient copy bursts alone are absorbed by retry + backoff: the
    // program completes with unchanged results.
    p.fault = Some(FaultSpec {
        lost: None,
        mode: FaultMode::FailStop,
        transients: vec![(0, 2), (1, 3)],
    });
    check_program(&p, 5, &CheckConfig::default())
        .expect("retried transients are invisible in the final state");
}

#[test]
fn fuzz_with_pressure_agrees_with_oracle() {
    // Memory-pressure programs — tiny device caps plus sustained OOM
    // windows — must degrade exactly as the oracle's admission plan
    // predicts, under every interleaving.
    let cfg = CheckConfig {
        interleavings: 2,
        mode: Mode::Pressure,
        ..CheckConfig::default()
    };
    let report = fuzz(0x9E55, 30, &cfg, |_, _| {});
    assert_eq!(report.programs, 30);
    let seeds: Vec<u64> = report.failures.iter().map(|f| f.seed).collect();
    assert!(seeds.is_empty(), "failing seeds: {seeds:?}");
}

/// A pressure program whose only chunk fits no device: the runtime must
/// stream it through the host staging buffer, and the `--inject spill`
/// canary — a runtime ordered to drop the last spill slice's writes —
/// must be caught as value divergence. This is the proof that a runtime
/// which silently truncated a spill would not slip past the harness.
#[test]
fn spill_canary_is_caught() {
    let p = Program {
        phases: vec![vec![Stmt::Spread {
            devices: vec![0],
            sched: Sched::Static { chunk: 12 },
            nowait: false,
            op: KernelOp::AddConst { a: 0, c: 1.5 },
        }]],
        // Sustained pressure equal to the cap: zero headroom, the whole
        // 96-byte chunk is hopeless on-device and spills.
        pressure: Some(PressureSpec {
            policy: PressurePolicy::Spill,
            cap_bytes: 64,
            sustained: vec![(0, 64)],
        }),
        ..Program::new(1, 12, 1)
    };
    let clean = CheckConfig {
        interleavings: 2,
        mode: Mode::Pressure,
        ..CheckConfig::default()
    };
    check_program(&p, 17, &clean).expect("the spilled run matches the oracle bit-for-bit");
    let canary = CheckConfig {
        fault: Some(Fault::SpillDropsSlice),
        ..clean
    };
    let failure = check_program(&p, 17, &canary)
        .expect_err("a spill that truncated its last slice must be flagged");
    assert!(
        failure.detail.contains("array"),
        "divergence shows in host arrays: {failure}"
    );
}

#[test]
fn fuzz_with_peer_agrees_with_oracle() {
    // Halo-exchange programs checked differentially: host-forced runs
    // (zero peer copies) and one exchange(auto) run that must match the
    // same oracle bits while performing exactly the closed-form D2D
    // route set.
    let cfg = CheckConfig {
        interleavings: 2,
        mode: Mode::Peer,
        ..CheckConfig::default()
    };
    let report = fuzz(0xD2D, 30, &cfg, |_, _| {});
    assert_eq!(report.programs, 30);
    let seeds: Vec<u64> = report.failures.iter().map(|f| f.seed).collect();
    assert!(seeds.is_empty(), "failing seeds: {seeds:?}");
}

/// A handcrafted three-device halo exchange whose `exchange(auto)` run
/// must route all four one-element halos device-to-device, and the
/// `--inject peer` canary — a runtime ordered to corrupt the first peer
/// copy it completes — must be caught as value divergence *only* on the
/// auto run (the host-forced runs never reach the corruption). This is
/// the proof that a runtime whose peer DMA silently delivered wrong
/// bytes would not slip past the harness.
#[test]
fn peer_canary_is_caught() {
    let p = Program {
        phases: vec![vec![Stmt::Halo {
            devices: vec![0, 1, 2],
            chunk: 4,
            a: 0,
            dst: 1,
            bump: None,
        }]],
        ..Program::new(3, 12, 2)
    };
    // Chunks [0,4) d0 / [4,8) d1 / [8,12) d2 ⇒ four one-element halos,
    // each valid on exactly one sibling.
    assert_eq!(
        oracle::predict_peer_copies(&p),
        vec![
            (0, 1, 0, 3, 1),
            (1, 0, 0, 4, 1),
            (1, 2, 0, 7, 1),
            (2, 1, 0, 8, 1),
        ]
    );
    let clean = CheckConfig {
        interleavings: 2,
        mode: Mode::Peer,
        ..CheckConfig::default()
    };
    check_program(&p, 23, &clean).expect("the peer-routed run matches the oracle bit-for-bit");
    let canary = CheckConfig {
        fault: Some(Fault::PeerCorrupt),
        ..clean
    };
    let failure = check_program(&p, 23, &canary)
        .expect_err("a corrupted peer copy must be flagged on the auto run");
    assert!(
        failure.detail.contains("array"),
        "divergence shows in host arrays: {failure}"
    );
    assert!(
        failure.detail.contains("exchange(auto)"),
        "only the peer-routed run diverges: {failure}"
    );
}

#[test]
fn shrinking_is_deterministic_and_minimal() {
    // Find a generated seed whose program contains a stencil, so the
    // injected stencil fault fires.
    let cfg = CheckConfig {
        interleavings: 2,
        fault: Some(Fault::StencilDropsLeftHalo),
        ..CheckConfig::default()
    };
    let seed = (0..500u64)
        .find(|&s| check_seed(s, &cfg).is_err())
        .expect("some seed within 500 trips the injected fault");
    let (m1, f1) = shrink_seed(seed, &cfg).unwrap();
    let (m2, f2) = shrink_seed(seed, &cfg).unwrap();
    assert_eq!(pretty::listing(&m1), pretty::listing(&m2));
    assert_eq!(f1.detail, f2.detail);
    // Minimal: a single phase with a single statement.
    assert_eq!(m1.phases.len(), 1, "{}", pretty::listing(&m1));
    assert_eq!(m1.phases[0].len(), 1, "{}", pretty::listing(&m1));
}

#[test]
fn oracle_predicts_exact_mapping_errors() {
    // Extending a live mapping [2,8) with the overlapping [6,10) is the
    // paper's forbidden "array extension" — exact error fields predicted.
    let extension = Program {
        phases: vec![vec![
            Stmt::RawEnter {
                device: 0,
                a: 0,
                start: 2,
                len: 6,
            },
            Stmt::RawEnter {
                device: 0,
                a: 0,
                start: 6,
                len: 4,
            },
        ]],
        ..Program::new(1, 12, 1)
    };
    let want = oracle::predict(&extension, None);
    match &want.error {
        Some(RtError::OverlapExtension {
            device,
            requested,
            present,
        }) => {
            assert_eq!(*device, 0);
            assert_eq!((requested.start, requested.len), (6, 4));
            assert_eq!((present.start, present.len), (2, 6));
        }
        other => panic!("expected OverlapExtension, oracle said {other:?}"),
    }
    check_program(&extension, 3, &CheckConfig::default())
        .expect("runtime raises exactly the predicted error");

    // Updating a section that was never mapped is NotMapped.
    let not_mapped = Program {
        phases: vec![vec![Stmt::RawUpdate {
            device: 1,
            a: 0,
            start: 3,
            len: 4,
            from: true,
        }]],
        ..Program::new(2, 12, 1)
    };
    let want = oracle::predict(&not_mapped, None);
    assert!(
        matches!(
            &want.error,
            Some(RtError::NotMapped { device: 1, requested })
                if requested.start == 3 && requested.len == 4
        ),
        "oracle said {:?}",
        want.error
    );
    check_program(&not_mapped, 3, &CheckConfig::default())
        .expect("runtime raises exactly the predicted error");
}

#[test]
fn replay_seed_regenerates_the_same_program() {
    for seed in [0u64, 1, 99, 0xDEAD] {
        let a = pretty::listing(&gen::gen_program(seed, Mode::Plain));
        let b = pretty::listing(&gen::gen_program(seed, Mode::Plain));
        assert_eq!(a, b);
        assert!(a.contains("#pragma omp"));
    }
}

//! Somier under an injected compute slowdown: the straggler One Buffer
//! variant must complete bit-identically to the CPU reference with one
//! device running 8× slow mid-run, committing exactly one copy of every
//! speculatively re-executed chunk. Latency is a separate story: the
//! rescue path pays its own enter + H2D on the sibling, so `steal` only
//! beats `wait` once the slowdown is heavy enough to amortise that
//! overhead — asserted here at 32×, swept by `spread-bench`'s
//! `straggler` view (`results/straggler.txt`).

use spread_core::{SpreadClausesExt, StragglerPolicy};
use spread_rt::{RescueRecord, RunEvent, Runtime};
use spread_sim::FaultPlan;
use spread_somier::config::STRAGGLER_BETA;
use spread_somier::one_buffer::run_spread_scoped;
use spread_somier::reference::run_reference;
use spread_somier::SomierConfig;
use spread_trace::{SimTime, SpanKind};

/// The rescues in the run ledger, in recording order.
fn rescues(rt: &Runtime) -> Vec<RescueRecord> {
    rt.events()
        .iter()
        .filter_map(RunEvent::rescue)
        .cloned()
        .collect()
}

const N_GPUS: usize = 4;
const SLOW_DEVICE: u32 = 1;

fn cfg() -> SomierConfig {
    SomierConfig::test_small(20, 2)
}

/// Virtual mid-point of a fault-free straggler-mode run.
fn clean_midpoint(cfg: &SomierConfig) -> SimTime {
    let mut rt = cfg.runtime(N_GPUS);
    run_spread_scoped(&mut rt, cfg, N_GPUS, None, |c, _| {
        c.with_straggler(StragglerPolicy::Wait)
            .with_straggler_beta(STRAGGLER_BETA)
    })
    .unwrap();
    SimTime::from_nanos(rt.elapsed().as_nanos() / 2)
}

fn slow_plan(from: SimTime, factor: f64) -> FaultPlan {
    FaultPlan::new(7).slow_compute(SLOW_DEVICE, from, SimTime::MAX, factor)
}

#[test]
fn straggler_variant_matches_reference_without_faults() {
    let cfg = cfg();
    let mut rt = cfg.runtime(N_GPUS);
    let report = run_spread_scoped(&mut rt, &cfg, N_GPUS, None, |c, _| {
        c.with_straggler(StragglerPolicy::Steal)
            .with_straggler_beta(STRAGGLER_BETA)
    })
    .unwrap()
    .0;
    let reference = run_reference(&cfg, cfg.buffer_planes(N_GPUS));
    assert_eq!(report.centers, reference.centers, "centers bit-exact");
    assert_eq!(report.races, 0);
    assert!(
        rescues(&rt).is_empty(),
        "a healthy run must never speculate"
    );
}

#[test]
fn bit_identical_with_8x_slowdown_mid_run() {
    let cfg = cfg();
    let mid = clean_midpoint(&cfg);
    let mut rt = cfg.runtime_with_faults(N_GPUS, slow_plan(mid, 8.0));
    let report = run_spread_scoped(&mut rt, &cfg, N_GPUS, None, |c, _| {
        c.with_straggler(StragglerPolicy::Steal)
            .with_straggler_beta(STRAGGLER_BETA)
    })
    .unwrap()
    .0;
    let reference = run_reference(&cfg, cfg.buffer_planes(N_GPUS));
    assert_eq!(
        report.centers, reference.centers,
        "rescued run must be bit-identical to the reference"
    );
    assert_eq!(report.races, 0);
    let rescues = rescues(&rt);
    assert!(!rescues.is_empty(), "an 8x mid-run slowdown must rescue");
    for r in &rescues {
        assert_eq!(r.from, SLOW_DEVICE, "only the slowed device straggles");
        assert_ne!(r.to, SLOW_DEVICE, "rescue must land on a sibling");
        assert_eq!(r.commits, 1, "first-commit-wins: exactly one commit");
        assert!(r.winner.is_some(), "a completed run records the winner");
        assert!(r.stolen, "steal cancels the straggler's kernel");
    }
    let rescue_spans = rt
        .timeline()
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Rescue)
        .count();
    assert_eq!(rescue_spans, rescues.len(), "one Rescue span per rescue");
}

#[test]
fn replicate_keeps_both_copies_and_stays_bit_identical() {
    let cfg = cfg();
    let mut rt = cfg.runtime_with_faults(N_GPUS, slow_plan(SimTime::ZERO, 8.0));
    let report = run_spread_scoped(&mut rt, &cfg, N_GPUS, None, |c, _| {
        c.with_straggler(StragglerPolicy::Replicate)
            .with_straggler_beta(STRAGGLER_BETA)
    })
    .unwrap()
    .0;
    let reference = run_reference(&cfg, cfg.buffer_planes(N_GPUS));
    assert_eq!(report.centers, reference.centers);
    let rescues = rescues(&rt);
    assert!(!rescues.is_empty());
    for r in &rescues {
        assert_eq!(r.commits, 1, "duplicated execution, single commit");
        assert!(!r.stolen, "replicate lets the original run to completion");
    }
}

#[test]
fn wait_policy_only_watches() {
    let cfg = cfg();
    let mut rt = cfg.runtime_with_faults(N_GPUS, slow_plan(SimTime::ZERO, 8.0));
    let report = run_spread_scoped(&mut rt, &cfg, N_GPUS, None, |c, _| {
        c.with_straggler(StragglerPolicy::Wait)
            .with_straggler_beta(STRAGGLER_BETA)
    })
    .unwrap()
    .0;
    let reference = run_reference(&cfg, cfg.buffer_planes(N_GPUS));
    assert_eq!(report.centers, reference.centers);
    assert!(rescues(&rt).is_empty(), "wait never speculates");
}

/// The rescue path pays an extra enter + H2D on the sibling, so the
/// crossover sits above 8×: there `steal` merely bounds the damage, but
/// at 32× the cancelled straggler's kernel dwarfs the rescue overhead
/// and `steal` must finish strictly earlier end-to-end than `wait`.
#[test]
fn steal_recovers_latency_at_heavy_slowdown() {
    let cfg = cfg();
    let elapsed = |policy| {
        let mut rt = cfg.runtime_with_faults(N_GPUS, slow_plan(SimTime::ZERO, 32.0));
        run_spread_scoped(&mut rt, &cfg, N_GPUS, None, |c, _| {
            c.with_straggler(policy).with_straggler_beta(STRAGGLER_BETA)
        })
        .unwrap();
        rt.elapsed().as_nanos()
    };
    let wait = elapsed(StragglerPolicy::Wait);
    let steal = elapsed(StragglerPolicy::Steal);
    let replicate = elapsed(StragglerPolicy::Replicate);
    assert!(
        steal < wait,
        "steal must beat wait at 32x (steal {steal}ns, wait {wait}ns)"
    );
    // Replicate's blocking drain still waits on the losing original's
    // exit, so it cannot beat wait on construct latency — it just must
    // not make things materially worse.
    assert!(
        replicate <= wait + wait / 10,
        "replicate within 10% of wait (replicate {replicate}ns, wait {wait}ns)"
    );
}

#[test]
fn rescue_is_deterministic() {
    let cfg = cfg();
    let mid = clean_midpoint(&cfg);
    let run = || {
        let mut rt = cfg.runtime_with_faults(N_GPUS, slow_plan(mid, 8.0));
        let report = run_spread_scoped(&mut rt, &cfg, N_GPUS, None, |c, _| {
            c.with_straggler(StragglerPolicy::Steal)
                .with_straggler_beta(STRAGGLER_BETA)
        })
        .unwrap()
        .0;
        (
            report.centers,
            rt.elapsed().as_nanos(),
            format!("{:?}", rescues(&rt)),
        )
    };
    assert_eq!(run(), run());
}

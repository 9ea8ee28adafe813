//! Clauses in combination on Somier: one construct-scoped program
//! (`one_buffer::run_spread_scoped`), one table of `(clauses, faults)`
//! rows. Every row must finish bit-identical to the CPU reference with
//! no race and no device byte left mapped — whatever the clause value
//! had to recover from on the way.

use target_spread::core::prelude::*;
use target_spread::rt::RtError;
use target_spread::sim::FaultPlan;
use target_spread::somier::one_buffer::run_spread_scoped;
use target_spread::somier::reference::run_reference;
use target_spread::somier::SomierConfig;
use target_spread::trace::SimTime;

const N_GPUS: usize = 4;

/// Separate DMA and compute queues, which `spread_overlap` pipelines
/// across; harmless for the other families.
fn cfg() -> SomierConfig {
    SomierConfig::test_small(20, 2).with_single_queue(false)
}

type Clauses = fn(ClauseSet, &'static str) -> ClauseSet;

struct Row {
    what: &'static str,
    clauses: Clauses,
    /// Fault plan, given the virtual midpoint of a fault-free run.
    faults: fn(SimTime) -> FaultPlan,
    /// Fraction of the planned device memory the devices really get.
    mem_cap_frac: f64,
}

fn row(what: &'static str, clauses: Clauses, faults: fn(SimTime) -> FaultPlan) -> Row {
    Row {
        what,
        clauses,
        faults,
        mem_cap_frac: 1.0,
    }
}

fn healthy(_mid: SimTime) -> FaultPlan {
    FaultPlan::new(42)
}

fn lose_1(mid: SimTime) -> FaultPlan {
    FaultPlan::new(42).lose_device(1, mid)
}

fn lose_2(mid: SimTime) -> FaultPlan {
    FaultPlan::new(42).lose_device(2, mid)
}

fn slow_1(mid: SimTime) -> FaultPlan {
    FaultPlan::new(7).slow_compute(1, mid, SimTime::MAX, 8.0)
}

fn steal(c: ClauseSet) -> ClauseSet {
    c.with_straggler(StragglerPolicy::Steal)
        .with_straggler_beta(2.0)
}

const REDISTRIBUTE: ResiliencePolicy = ResiliencePolicy::Redistribute;

fn rows() -> Vec<Row> {
    vec![
        // Every family alone, at its own test file's setting.
        row("clause-free", |c, _| c, healthy),
        row(
            "redistribute",
            |c, _| c.with_resilience(REDISTRIBUTE),
            lose_1,
        ),
        row(
            "heal",
            |c, _| c.with_integrity(IntegrityMode::Heal),
            |_| {
                FaultPlan::new(11)
                    .silent_flips(0, SimTime::ZERO, 1)
                    .silent_flips(1, SimTime::ZERO, 1)
                    .silent_flips(3, SimTime::ZERO, 1)
            },
        ),
        row(
            "overlap(4)",
            |c, _| c.with_overlap(OverlapPolicy::Depth(4)),
            healthy,
        ),
        row("steal", |c, _| steal(c), slow_1),
        row(
            "auto",
            |c, k| c.with_schedule(SpreadSchedule::auto(k)),
            healthy,
        ),
        Row {
            mem_cap_frac: 0.6,
            ..row(
                "split at 60% memory",
                |c, _| c.with_pressure(PressurePolicy::Split),
                |_| {
                    (0..N_GPUS as u32).fold(FaultPlan::new(0xD1), |p, d| {
                        p.sustain_pressure(d, SimTime::ZERO, 20_000)
                    })
                },
            )
        },
        // Families together.
        row(
            "redistribute + verify + overlap(2), device 2 lost",
            |c, _| {
                c.with_resilience(REDISTRIBUTE)
                    .with_integrity(IntegrityMode::Verify)
                    .with_overlap(OverlapPolicy::Depth(2))
            },
            lose_2,
        ),
        row(
            "redistribute + heal + overlap(2), device 2 lost",
            |c, _| {
                c.with_resilience(REDISTRIBUTE)
                    .with_integrity(IntegrityMode::Heal)
                    .with_overlap(OverlapPolicy::Depth(2))
            },
            lose_2,
        ),
        row(
            "steal + verify + overlap(2), device 1 slowed",
            |c, _| {
                steal(c)
                    .with_integrity(IntegrityMode::Verify)
                    .with_overlap(OverlapPolicy::Depth(2))
            },
            slow_1,
        ),
        row(
            "redistribute + steal + verify + overlap(2)",
            |c, _| {
                steal(c)
                    .with_resilience(REDISTRIBUTE)
                    .with_integrity(IntegrityMode::Verify)
                    .with_overlap(OverlapPolicy::Depth(2))
            },
            healthy,
        ),
        // One owner per piece. A lost device's kernel never finishes:
        // the straggler monitor must leave that piece to the resilience
        // coordinator instead of committing a second copy of it …
        row(
            "redistribute + steal, device 2 lost",
            |c, _| steal(c).with_resilience(REDISTRIBUTE),
            lose_2,
        ),
        // … and a piece the monitor already rescued off a slow device
        // must not be rebuilt when that device then dies.
        row(
            "redistribute + steal, device 1 slowed, then lost",
            |c, _| steal(c).with_resilience(REDISTRIBUTE),
            |mid| {
                FaultPlan::new(7)
                    .slow_compute(1, SimTime::ZERO, SimTime::MAX, 8.0)
                    .lose_device(1, mid)
            },
        ),
    ]
}

fn run(cfg: &SomierConfig, clauses: Clauses, plan: FaultPlan) -> Result<[f64; 3], RtError> {
    let mut rt = cfg.runtime_with_faults(N_GPUS, plan);
    let (report, _halo) = run_spread_scoped(&mut rt, cfg, N_GPUS, None, clauses)?;
    assert_eq!(report.races, 0);
    assert!(
        rt.mapping_snapshot().iter().all(Vec::is_empty),
        "device bytes left mapped: {:?}",
        rt.mapping_snapshot()
    );
    Ok(report.centers)
}

#[test]
fn every_row_is_bit_identical_to_the_reference() {
    let cfg = cfg();
    let reference = run_reference(&cfg, cfg.buffer_planes(N_GPUS)).centers;
    let mid = {
        let mut rt = cfg.runtime(N_GPUS);
        run_spread_scoped(&mut rt, &cfg, N_GPUS, None, |c, _| c).unwrap();
        SimTime::from_nanos(rt.elapsed().as_nanos() / 2)
    };
    for row in rows() {
        let cfg = cfg.clone().with_mem_cap_frac(row.mem_cap_frac);
        let centers = run(&cfg, row.clauses, (row.faults)(mid));
        assert_eq!(centers.unwrap(), reference, "{}", row.what);
    }

    // A loss *and* a straggler on different devices: the lost piece's
    // replacement and the slow piece's rescue both land on device 0,
    // each serialized only behind the constructs its own coordinator
    // placed there, and their halos overlap — the §V-B gap rule refuses
    // the second mapping. An error, never silently different centers.
    let err = run(
        &cfg,
        |c, _| steal(c).with_resilience(REDISTRIBUTE),
        slow_1(mid).lose_device(2, mid),
    )
    .unwrap_err();
    assert!(
        matches!(err, RtError::OverlapExtension { device: 0, .. }),
        "{err}"
    );
}

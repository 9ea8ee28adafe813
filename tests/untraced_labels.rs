//! Labels read with the trace off.
//!
//! The untraced construct path renders no label when it issues a task or
//! a copy; it keeps the parts and renders them only when something reads
//! them. These programs read them with the recorder disabled — a race
//! report names both tasks, a fault names the copy it hit — and pin the
//! text, which must be exactly what a traced run (and every earlier
//! version of the runtime) prints.

use target_spread::core::prelude::*;
use target_spread::devices::Topology;
use target_spread::rt::kernel::KernelArg;
use target_spread::rt::prelude::*;
use target_spread::sim::{FaultPlan, RetryPolicy, SimTime};

fn bump(a: HostArray) -> KernelSpec {
    KernelSpec::new("bump", 1.0, |chunk, v| {
        for i in chunk {
            v.set(0, i, v.get(0, i) + 1.0);
        }
    })
    .arg(KernelArg::read_write(a, |r| r))
}

fn config(trace: bool) -> RuntimeConfig {
    RuntimeConfig::new(Topology::ctepower(2))
        .with_team_threads(1)
        .with_trace(trace)
}

/// Two unordered `nowait` spreads over one array, then a data region and
/// an update racing a third: every race report as `(first, second)`.
fn racy(trace: bool) -> Vec<(String, String)> {
    let mut rt = Runtime::new(config(trace));
    let a = rt.host_array("A", 64);
    rt.run(|s| {
        for devices in [[0, 1], [1, 0]] {
            TargetSpread::devices(devices)
                .with_schedule(SpreadSchedule::static_chunk(32))
                .nowait()
                .map(spread_tofrom(a, |c| c.range()))
                .parallel_for(s, 0..64, bump(a))?;
        }
        s.drain_all()?;
        TargetDataSpread::devices([0, 1])
            .range(0, 64)
            .chunk_size(32)
            .map(spread_tofrom(a, |c| c.range()))
            .region(s, |s| {
                TargetUpdateSpread::devices([0, 1])
                    .range(0, 64)
                    .chunk_size(32)
                    .nowait()
                    .from(a, |c| c.range())
                    .launch(s)?;
                TargetSpread::devices([0, 1])
                    .with_schedule(SpreadSchedule::static_chunk(32))
                    .nowait()
                    .map(spread_to(a, |c| c.range()))
                    .parallel_for(s, 0..64, bump(a))?;
                s.drain_all()
            })
    })
    .unwrap();
    rt.races()
        .into_iter()
        .map(|r| (r.first_label, r.second_label))
        .collect()
}

#[test]
fn race_reports_name_their_tasks_with_the_trace_off() {
    let pairs = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
        xs.iter()
            .map(|&(a, b)| (a.to_string(), b.to_string()))
            .collect()
    };
    let want = pairs(&[
        ("bump-exit(dev1)", "bump-exit(dev0)"),
        ("bump-exit(dev0)", "bump-exit(dev1)"),
        ("update(dev0)", "bump-enter(dev0)"),
        ("update(dev1)", "bump-enter(dev1)"),
        ("update(dev0)", "bump(dev0)"),
        ("update(dev1)", "bump(dev1)"),
    ]);
    let untraced = racy(false);
    assert_eq!(untraced, want);
    assert_eq!(racy(true), untraced, "the trace changes no label");
}

/// The error a fault plan leaves behind on a construct mapping two
/// arrays, so each device's copy engine queues two copies.
fn faulted(plan: FaultPlan) -> RtError {
    let mut rt = Runtime::new(
        config(false)
            .with_fault_plan(plan)
            .with_retry_policy(RetryPolicy::none()),
    );
    let (a, b) = (rt.host_array("S0", 64), rt.host_array("S1", 64));
    rt.run(|s| {
        TargetSpread::devices([0, 1])
            .with_schedule(SpreadSchedule::static_chunk(32))
            .map(spread_tofrom(a, |c| c.range()))
            .map(spread_tofrom(b, |c| c.range()))
            .parallel_for(s, 0..64, bump(a))
    })
    .unwrap_err()
}

#[test]
fn fault_texts_name_the_copy_with_the_trace_off() {
    let transient = faulted(FaultPlan::new(7).transient_copies(0, SimTime::ZERO, 4));
    assert_eq!(
        transient,
        RtError::TransientCopy {
            device: 0,
            what: "S0 H2D arr0[0:32]".into(),
            attempts: 1,
        }
    );
    // Lost while its first copy streams: the queued second one fails.
    let lost = faulted(FaultPlan::new(7).lose_device(1, SimTime::from_nanos(1)));
    assert_eq!(
        lost,
        RtError::DeviceLost {
            device: 1,
            what: "S1 H2D arr1[32:32]".into(),
        }
    );
}

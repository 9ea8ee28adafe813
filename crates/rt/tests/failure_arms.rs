//! One recovery registration: a handler registered with
//! `Scope::on_task_failure` under each `Arms` value fires on exactly
//! the failures that value covers — the loss of its device always, an
//! out-of-memory or an integrity violation on a live device only under
//! its own arm. Every other failure still poisons the runtime.

use std::cell::RefCell;
use std::rc::Rc;

use spread_devices::{DeviceSpec, Topology};
use spread_rt::directives::Target;
use spread_rt::prelude::*;
use spread_rt::Arms;
use spread_sim::FaultPlan;
use spread_trace::SimTime;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Failure {
    /// The construct's device is permanently lost.
    Loss,
    /// A pressure-managed enter runs out of memory on a live device.
    Oom,
    /// A silent flip fails the commit drain's verification on a live
    /// device.
    Corruption,
}

const N: usize = 200;

fn is(failure: Failure, err: &RtError) -> bool {
    match failure {
        Failure::Loss => matches!(err, RtError::DeviceLost { .. }),
        Failure::Oom => matches!(err, RtError::OutOfMemory { .. }),
        Failure::Corruption => matches!(err, RtError::IntegrityViolation { .. }),
    }
}

/// Launch one construct on device 0 that meets `failure`, with a handler
/// registered under `arms` that retires the construct. Returns the
/// error the handler saw, if it fired, and the run's outcome.
fn provoke(failure: Failure, arms: Arms) -> (Option<RtError>, Result<(), RtError>) {
    // 100 elements of device memory cannot hold the 200-element map.
    let mem = if failure == Failure::Oom {
        800
    } else {
        1 << 20
    };
    let topo = Topology::uniform(1, DeviceSpec::v100().with_mem_bytes(mem), 1e9, 1.5e9);
    let plan = match failure {
        Failure::Loss => FaultPlan::new(1).lose_device(0, SimTime::ZERO),
        Failure::Oom => FaultPlan::new(1),
        Failure::Corruption => FaultPlan::new(11).silent_flips(0, SimTime::ZERO, 1),
    };
    let mut rt = Runtime::new(
        RuntimeConfig::new(topo)
            .with_team_threads(1)
            .with_fault_plan(plan),
    );
    let a = rt.host_array("A", N);
    let fired = Rc::new(RefCell::new(None));
    let seen = Rc::clone(&fired);
    let result = rt.run(|s| {
        let kernel = KernelSpec::new("bump", 1.0, |chunk, v| {
            for i in chunk {
                v.set(0, i, v.get(0, i) + 1.0);
            }
        })
        .arg(KernelArg::read_write(a, |r| r));
        let ids = Target::device(0)
            .map(tofrom(a, 0..N))
            .integrity(IntegrityMode::Heal)
            .pressure_managed()
            .parallel_for_phases(s, 0..N, kernel)?;
        s.on_task_failure(&ids.all(), 0, arms, move |s, faulted, err| {
            *seen.borrow_mut() = Some(err);
            s.forgive_task_footprints(faulted);
            for id in ids.all() {
                if id != faulted {
                    s.neutralize_task(id);
                }
            }
            s.force_complete(faulted);
        });
        Ok(())
    });
    let fired = fired.borrow_mut().take();
    (fired, result)
}

#[test]
fn each_arm_catches_exactly_its_failures() {
    for arms in [Arms::Loss, Arms::Oom, Arms::Integrity] {
        for failure in [Failure::Loss, Failure::Oom, Failure::Corruption] {
            let covered = match failure {
                Failure::Loss => true,
                Failure::Oom => arms == Arms::Oom,
                Failure::Corruption => arms == Arms::Integrity,
            };
            let (fired, result) = provoke(failure, arms);
            let case = format!("{failure:?} under {arms:?}");
            if covered {
                let err = fired.unwrap_or_else(|| panic!("{case}: the handler did not fire"));
                assert!(is(failure, &err), "{case}: the handler saw {err:?}");
                assert!(result.is_ok(), "{case}: recovered run failed: {result:?}");
            } else {
                assert!(fired.is_none(), "{case}: the handler fired on {fired:?}");
                let err = result.expect_err(&format!("{case}: the failure did not poison"));
                assert!(is(failure, &err), "{case}: poisoned with {err:?}");
            }
        }
    }
}

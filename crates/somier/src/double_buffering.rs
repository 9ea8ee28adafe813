//! Implementation 3: *Double Buffering* (§V-C, Listing 12).
//!
//! A recursive routine (`foobar` in the paper) processes one half
//! buffer: map in (taskgroup barrier), **spawn the routine for the next
//! half**, then kernels and map out. Because the spawn happens right
//! after the map-in barrier, the next half's host→device transfers are
//! dispatched while the current half's kernels run — the controlled
//! overlap the paper hopes for (and whose absence it then diagnoses in
//! Figure 4: transfers serialize on the copy engines and dominate, so
//! kernels end up *interleaved* with transfers rather than overlapped).

use std::rc::Rc;

use spread_rt::{RtError, Runtime};

use crate::config::SomierConfig;
use crate::one_buffer::{run_steps, HalfChain};
use crate::report::SomierReport;

/// Run the Double Buffering implementation on `n_gpus` devices.
pub fn run(rt: &mut Runtime, cfg: &SomierConfig, n_gpus: usize) -> Result<SomierReport, RtError> {
    let label = crate::SomierImpl::DoubleBuffering.label();
    run_steps(rt, cfg, n_gpus, label, |s, arr, sums| {
        let routine = Rc::new(HalfChain {
            cfg: cfg.clone(),
            arr: *arr,
            devices: (0..n_gpus as u32).collect(),
            half: cfg.half_planes(n_gpus),
            stride: 1,
            next_after_map_in: true,
            sums: Rc::clone(sums),
        });
        // The whole recursive cascade of one step runs inside a
        // taskgroup so the step completes before the next begins.
        s.taskgroup(|s| routine.launch(s, 0))
    })
}

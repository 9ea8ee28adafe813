//! Implementation 2: *Two Buffers* (§V-B, Listing 11).
//!
//! Half-sized buffers are processed two at a time through a `taskloop`,
//! hoping transfers of one half overlap computation of the other. The
//! paper's `num_tasks(2)` bounds the number of simultaneous halves to
//! two; its description ("a GPU could be receiving data from two
//! *consecutive* buffers at the same time") corresponds to a *strided*
//! assignment of halves to the two workers (worker 0 → halves 0, 2, 4…;
//! worker 1 → halves 1, 3, 5…). Each worker is an asynchronous chain of
//! half-buffer pipelines (a pipeline's completion continuation launches
//! the worker's next half), so the two chains genuinely interleave.
//!
//! On one GPU the concurrently mapped halo sections of consecutive
//! halves overlap and the runtime rejects the mapping as an array
//! extension — the restriction §V-B describes; with ≥ 2 GPUs the
//! round-robin schedule leaves a gap between the sections on each
//! device.

use std::rc::Rc;

use spread_rt::{RtError, Runtime};

use crate::config::SomierConfig;
use crate::one_buffer::{run_steps, HalfChain};
use crate::report::SomierReport;

/// Run the Two Buffers implementation on `n_gpus` devices.
pub fn run(rt: &mut Runtime, cfg: &SomierConfig, n_gpus: usize) -> Result<SomierReport, RtError> {
    let label = crate::SomierImpl::TwoBuffers.label();
    run_steps(rt, cfg, n_gpus, label, |s, arr, sums| {
        let chain = Rc::new(HalfChain {
            cfg: cfg.clone(),
            arr: *arr,
            devices: (0..n_gpus as u32).collect(),
            half: cfg.half_planes(n_gpus),
            stride: 2,
            next_after_map_in: false,
            sums: Rc::clone(sums),
        });
        // The taskloop's implicit taskgroup is the step barrier; the
        // two strided chains run inside it.
        s.taskgroup(|s| {
            for worker in 0..2usize {
                Rc::clone(&chain).launch(s, worker);
            }
        })
    })
}

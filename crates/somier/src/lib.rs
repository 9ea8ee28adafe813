//! # spread-somier
//!
//! The Somier mini-app of the paper's evaluation (§V): a 3-D grid of
//! springs. Each time step computes, over `n³` nodes:
//!
//! 1. **forces** — a 6-neighbour spring stencil over the positions
//!    (needs ±1-plane halos in the outermost dimension),
//! 2. **accelerations** — `A = F/m`,
//! 3. **velocities** — `V += A·dt`,
//! 4. **positions** — `X += V·dt` (boundary nodes fixed),
//! 5. **centers** — a reduction of the positions (the paper implements
//!    it manually because `target spread` has no reduction clause yet).
//!
//! Each of the 4 state variables has 3 components, so the working set is
//! 12 `n³` grids of `f64` — sized ~10× one device's memory in the
//! paper's experiment, forcing buffered processing.
//!
//! Implementations (§V-A..C):
//! * [`one_buffer`] — process one buffer at a time; both the `target`
//!   baseline (1 GPU, Listing 9) and the `target spread` version
//!   (Listing 10).
//! * [`two_buffers`] — `taskloop num_tasks(2)` over half buffers
//!   (Listing 11).
//! * [`double_buffering`] — a recursive task pipelines the next half
//!   buffer's transfers behind the current one's kernels (Listing 12).
//! * [`mod@reference`] — the sequential CPU implementation every device run
//!   is checked against (bit-exact for the One Buffer versions).

#![warn(missing_docs)]
// The physics code indexes parallel component arrays (`x[c][i]`,
// `f[c][i]`) by component id — clearer here than zipped iterators.
#![allow(clippy::needless_range_loop)]

pub mod arrays;
pub mod config;
pub mod double_buffering;
pub mod energy;
pub mod kernels;
pub mod one_buffer;
pub mod physics;
pub mod reference;
pub mod report;
pub mod two_buffers;

pub use arrays::SomierArrays;
pub use config::SomierConfig;
pub use report::SomierReport;

use spread_rt::{RtError, Runtime};

/// Which Somier implementation to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SomierImpl {
    /// One buffer at a time, baseline `target` directives (1 GPU).
    OneBufferTarget,
    /// One buffer at a time, `target spread` directives.
    OneBufferSpread,
    /// Two half buffers at a time via `taskloop` (needs ≥ 2 devices).
    TwoBuffers,
    /// Recursive-task double buffering (needs ≥ 2 devices).
    DoubleBuffering,
}

impl SomierImpl {
    /// Table/figure label.
    pub fn label(self) -> &'static str {
        match self {
            SomierImpl::OneBufferTarget => "One Buffer (target)",
            SomierImpl::OneBufferSpread => "One Buffer",
            SomierImpl::TwoBuffers => "Two Buffers",
            SomierImpl::DoubleBuffering => "Double Buffering",
        }
    }
}

/// Run one Somier configuration end to end on a fresh runtime.
pub fn run_somier(
    cfg: &SomierConfig,
    which: SomierImpl,
    n_gpus: usize,
) -> Result<(SomierReport, Runtime), RtError> {
    let mut rt = cfg.runtime(n_gpus);
    let report = match which {
        SomierImpl::OneBufferTarget => one_buffer::run_target_baseline(&mut rt, cfg)?,
        SomierImpl::OneBufferSpread => one_buffer::run_spread(&mut rt, cfg, n_gpus)?,
        SomierImpl::TwoBuffers => two_buffers::run(&mut rt, cfg, n_gpus)?,
        SomierImpl::DoubleBuffering => double_buffering::run(&mut rt, cfg, n_gpus)?,
    };
    Ok((report, rt))
}

//! # spread-teams
//!
//! A work-sharing thread-team executor: the reproduction's stand-in for
//! the intra-device parallelism levels of the OpenMP offloading model —
//! `teams distribute` (teams) and `parallel for` (threads). The paper's
//! combined directive `target spread teams distribute parallel for`
//! lowers each per-device chunk onto this executor, so kernels *really*
//! execute in parallel on host threads while the simulator accounts
//! virtual time. The innermost level, vector lanes, has no executor of
//! its own: it is the compiler vectorising the kernels' row physics.
//!
//! Components:
//!
//! * [`pool`] — [`TeamPool`]: a persistent pool of worker threads with a
//!   broadcast primitive (all threads run the same closure, leader
//!   participates), in the style of an OpenMP parallel region,
//!   [`parallel_for`](pool::TeamPool::parallel_for), the work-shared
//!   loop over a range, and [`TeamPool::copy`], the bulk byte move the
//!   runtime's host↔device copies run on.
//! * [`schedule`] — [`LoopSchedule`]: `static` (one block per thread)
//!   and `guided` (an atomic cursor) iteration scheduling.
//! * [`split`] — [`split::SliceCells`]: the unsafe-core,
//!   safe-contract primitive that lets concurrently executing chunks
//!   write disjoint parts of one slice (how kernels write their mapped
//!   output sections).

#![warn(missing_docs)]

pub mod pool;
pub mod schedule;
pub mod split;

pub use pool::{TeamPool, COPY_SPLIT_MIN};
pub use schedule::LoopSchedule;
pub use split::SliceCells;

//! # spread-teams
//!
//! A work-sharing thread-team executor: the reproduction's stand-in for
//! the intra-device parallelism levels of the OpenMP offloading model —
//! `teams distribute` (teams) and `parallel for` (threads). The paper's
//! combined directive `target spread teams distribute parallel for`
//! lowers each per-device chunk onto this executor, so kernels *really*
//! execute in parallel on host threads while the simulator accounts
//! virtual time.
//!
//! Components:
//!
//! * [`pool`] — [`TeamPool`]: a persistent pool of worker threads with a
//!   broadcast primitive (all threads run the same closure, leader
//!   participates), in the style of an OpenMP parallel region, and
//!   [`TeamPool::copy`], the bulk byte move the runtime's host↔device
//!   copies run on.
//! * [`schedule`] — [`LoopSchedule`]: `static` (blocked or round-robin
//!   chunked), `dynamic`, and `guided` iteration scheduling via an atomic
//!   chunk dispenser.
//! * [`parallel_for`](pool::TeamPool::parallel_for) /
//!   [`parallel_reduce`](pool::TeamPool::parallel_reduce) — work-sharing
//!   loops and reductions over ranges.
//! * [`barrier`] — a sense-reversing spin barrier usable inside a
//!   broadcast region.
//! * [`split`] — [`split::SliceCells`]: the unsafe-core,
//!   safe-contract primitive that lets concurrently executing chunks
//!   write disjoint parts of one slice (how kernels write their mapped
//!   output sections).
//! * [`simd`] — the innermost level ("multiple vector lanes"):
//!   lane-blocked loop helpers shaped for the auto-vectorizer,
//!   mirroring `#pragma omp simd simdlen(W)`.

#![warn(missing_docs)]

pub mod barrier;
pub mod pool;
pub mod schedule;
pub mod simd;
pub mod split;

pub use barrier::TeamBarrier;
pub use pool::{TeamPool, COPY_SPLIT_MIN};
pub use schedule::{ChunkDispenser, LoopSchedule};
pub use simd::{simd_for_each, simd_map, simd_sum, simd_zip};
pub use split::SliceCells;

//! # spread-rt
//!
//! The OpenMP-like offloading runtime of the `target-spread` reproduction
//! — the equivalent of `libomptarget` plus the host tasking layer that
//! the paper's Somier implementations rely on (`task`, `taskloop`,
//! `taskwait`, `taskgroup`).
//!
//! * [`section`] — array sections `A[start:len]` and their overlap
//!   algebra.
//! * [`host`] — the host array registry ([`HostArray`] handles backed by
//!   real `Vec<f64>` storage).
//! * [`map`] — `map` clause types (`to`/`from`/`tofrom`/`alloc`/
//!   `release`/`delete`).
//! * [`mapping`] — per-device presence tables with reference counts and
//!   the OpenMP rule the paper leans on: mapping a section that *extends*
//!   an already-present section is an error (why Two Buffers cannot run
//!   on one GPU, §V-B).
//! * [`task`] — the task graph: `depend(in/out)` matching on array
//!   sections among sibling tasks, taskgroups, and a race detector that
//!   flags concurrently running tasks with conflicting footprints.
//! * [`kernel`] — kernel specifications and the launcher that binds
//!   mapped device buffers into bounds-checked views and really executes
//!   the body on a [`spread_teams::TeamPool`].
//! * [`runtime`] — [`Runtime`] / [`Scope`]: the central object tying the
//!   simulator, devices, presence tables and task graph together.
//! * [`directives`] — builder-style directives mirroring the pragmas:
//!   [`Target`](directives::Target), [`TargetData`](directives::TargetData),
//!   [`TargetEnterData`](directives::TargetEnterData),
//!   [`TargetExitData`](directives::TargetExitData),
//!   [`TargetUpdate`](directives::TargetUpdate).
//! * [`error`] — [`RtError`], including the fault family
//!   ([`RtError::TransientCopy`], [`RtError::DeviceLost`],
//!   [`RtError::Timeout`]) surfaced when a
//!   [`FaultPlan`](spread_sim::FaultPlan) is injected through
//!   [`RuntimeConfig::with_fault_plan`](runtime::RuntimeConfig::with_fault_plan);
//!   recovery layers hook task failures with
//!   [`Scope::on_task_fault`](runtime::Scope::on_task_fault).
//!
//! The execution model is *eager effects over a deterministic DES*: a
//! task's data effects (memcpy, kernel body) run when the task starts in
//! virtual time; its completion event fires after the modeled duration.
//! Because the task graph already orders conflicting tasks (and the race
//! detector reports the ones it doesn't), results are deterministic and
//! checked against CPU references in the test-suite.

#![warn(missing_docs)]

pub mod commit;
pub mod directives;
pub mod error;
pub mod host;
pub mod integrity;
pub mod kernel;
pub mod map;
pub mod mapping;
pub mod overlap;
pub mod plan_cache;
pub(crate) mod profile;
pub mod runtime;
pub mod section;
pub mod spill;
pub mod task;

pub use commit::CommitGate;
pub use directives::{ConstructIds, ExchangeMode};
pub use error::RtError;
pub use host::HostArray;
pub use integrity::{IntegrityAction, IntegrityBoundary, IntegrityEvent, IntegrityMode};
pub use kernel::{Access, KernelArg, KernelSpec};
pub use map::{MapClause, MapType};
pub use overlap::OverlapRecord;
pub use plan_cache::PlanCacheStats;
pub use runtime::{
    DegradationEvent, DegradationKind, PeerCopyRecord, RescueRecord, Runtime, RuntimeConfig, Scope,
};
pub use section::{ArrayId, Section};
pub use spill::{kernel_footprint_bytes, spill_chunk, spill_slices};
pub use task::{GroupId, TaskId, TaskLabel};

/// Convenience re-exports for building runtime programs.
pub mod prelude {
    pub use crate::directives::{
        ExchangeMode, Target, TargetData, TargetEnterData, TargetExitData, TargetUpdate,
    };
    pub use crate::host::HostArray;
    pub use crate::integrity::{IntegrityAction, IntegrityBoundary, IntegrityEvent, IntegrityMode};
    pub use crate::kernel::{Access, KernelArg, KernelSpec};
    pub use crate::map::{alloc, from, to, tofrom, MapClause, MapType};
    pub use crate::runtime::{Runtime, RuntimeConfig, Scope};
    pub use crate::section::Section;
    pub use crate::RtError;
}

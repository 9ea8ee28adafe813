//! # spread-sim
//!
//! A deterministic discrete-event simulation (DES) engine for the
//! `target-spread` reproduction, plus the bandwidth model that drives the
//! paper's headline numbers.
//!
//! * [`engine`] — the [`Simulator`]: a virtual clock and a cancellable
//!   event queue ordered by `(time, sequence)`. Events are `FnOnce`
//!   callbacks; everything is single-threaded and therefore exactly
//!   reproducible run to run.
//! * [`flow`] — the [`flow::FlowNet`]: concurrent bulk transfers
//!   ("flows") share a set of capacity constraints (device link, PCIe
//!   switch, host bus) under **max–min fair** processor sharing. Every
//!   arrival or departure re-allocates rates and re-schedules completion
//!   events. This is what reproduces the paper's observation that kernel
//!   computation scales near-linearly with devices while host↔device
//!   transfers saturate a shared bus (Table I's ~2.1× at 4 GPUs).
//! * [`fault`] — deterministic, seeded [`FaultPlan`]s: transient DMA
//!   errors, link degradation windows, device-OOM spikes and permanent
//!   device loss, all pinned to virtual time so faulted runs replay
//!   byte-identically; plus the [`RetryPolicy`] that governs bounded
//!   retries with seeded exponential backoff.
//!
//! Virtual time types come from [`spread_trace`] (re-exported here) so
//! recorded spans and simulator timestamps are the same type.

#![warn(missing_docs)]

pub mod engine;
pub mod fault;
pub mod flow;

pub use engine::{EventId, Simulator, TieBreak};
pub use fault::{FaultEvent, FaultEventKind, FaultPlan, FaultPlanError, PlannedFault, RetryPolicy};
pub use flow::{CapacityId, FlowId, FlowNet, SharedFlowNet};
pub use spread_trace::{SimDuration, SimTime};

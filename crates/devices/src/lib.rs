//! # spread-devices
//!
//! Simulated accelerator devices for the `target-spread` reproduction.
//!
//! The paper evaluates on a CTE-POWER node with four NVIDIA V100 GPUs;
//! this crate provides the synthetic equivalent: devices with finite
//! global memory (a real allocator that can genuinely run out — the
//! paper's problem is sized at ~10× one device's memory), DMA engines
//! with per-operation launch latency (the "12 sequential calls to the
//! underlying CUDA memory copy API per mapped chunk" of §VI-B), and a
//! kernel cost model with saturating intra-device parallelism (kernels
//! scale near-linearly across devices, as §VI-A observes).
//!
//! * [`spec`] — [`DeviceSpec`] and [`ComputeModel`]: per-device
//!   parameters.
//! * [`memory`] — [`MemoryPool`]: a first-fit, coalescing free-list
//!   allocator over the device's global memory, plus real `Vec<f64>`
//!   backing stores so mapping bugs corrupt data rather than hide.
//! * [`dma`] — [`DmaEngine`]: one FIFO copy engine per direction per
//!   device; each operation pays a launch latency, then streams through
//!   the flow network (link → switch → host bus).
//! * [`compute`] — [`ComputeEngine`]: a FIFO kernel queue; kernel bodies
//!   *really execute* at launch (on the host, optionally via a
//!   `spread_teams::TeamPool` upstream) while the modeled duration
//!   determines virtual time.
//! * [`health`] — [`FaultCtx`]: the shared fault-arbitration context
//!   built from a `FaultPlan`; engines consult it before every operation
//!   and it runs the transient-streak circuit-breaker that converts
//!   repeated faults into a permanent device loss.
//! * [`topology`] — [`Topology`]: node descriptions, including the
//!   calibrated [`Topology::ctepower`] preset that reproduces the
//!   paper's transfer-bound contention shape.
//! * [`node`] — [`Node`]: an instantiated machine: devices + flow
//!   network wired to a simulator.

#![warn(missing_docs)]

pub mod compute;
pub mod dma;
pub mod gate;
pub mod health;
pub mod integrity;
pub mod memory;
pub mod node;
pub mod spec;
pub mod topology;

pub use compute::ComputeEngine;
pub use dma::{Direction, DmaEngine};
pub use gate::SerialGate;
pub use health::{Attempt, FaultCtx, OnFault};
pub use integrity::{crc32c, digest_f64};
pub use memory::{AllocId, DeviceMemory, Fill, MemoryPool, OutOfMemory, StoreCounts};
pub use node::{DeviceHandle, Node};
pub use spec::{ComputeModel, DeviceSpec};
pub use topology::Topology;

//! # spread-trace
//!
//! Span recording, timeline analysis and rendering for the `target-spread`
//! simulator — the reproduction's equivalent of NVIDIA's `nsys` profiler
//! used in the paper's Figures 3 and 4.
//!
//! The crate is the bottom of the workspace dependency graph and therefore
//! also owns the **virtual time** types ([`SimTime`], [`SimDuration`]) that
//! every other crate shares.
//!
//! Components:
//!
//! * [`time`] — nanosecond-resolution virtual clock types with the paper's
//!   `XmY.ZZZs` formatting (e.g. `8m22.019s`).
//! * [`span`] — [`Span`]s (a timed interval on a [`Lane`] with a
//!   [`SpanKind`]) and the [`TraceRecorder`].
//! * [`interval`] — interval-set algebra (union length, intersection,
//!   complement) used by the analyses.
//! * [`profile`] — per-construct launch profiles ([`ConstructProfile`],
//!   [`DeviceProfile`]) feeding `spread_schedule(auto)`.
//! * [`timeline`] — an immutable, query-friendly view over recorded spans.
//! * [`analysis`] — busy time, transfer/compute overlap, concurrency
//!   profiles, interleaving statistics (the quantities behind Figure 4's
//!   observations).
//! * [`render`] — ASCII Gantt charts (Figure 3-style windows) and CSV
//!   export.

#![warn(missing_docs)]

pub mod analysis;
pub mod interval;
pub mod profile;
pub mod render;
pub mod span;
pub mod time;
pub mod timeline;

pub use analysis::{
    BandwidthSample, ConcurrencyProfile, InterleaveStats, LaneStats, OverlapReport,
};
pub use interval::IntervalSet;
pub use profile::{peer_span_source, profile_window, ConstructProfile, DeviceProfile};
pub use render::{render_chrome_trace, render_csv, render_gantt, GanttOptions};
pub use span::{EngineKind, Lane, Span, SpanId, SpanKind, TraceRecorder};
pub use time::{SimDuration, SimTime};
pub use timeline::Timeline;

//! The run ledger: every decision the runtime takes on a program's
//! behalf — a memory-pressure degradation, a peer copy, a straggler
//! rescue, a caught corruption, a pipelined construct — appended once,
//! in the order it was taken, to one [`RunEvent`] list (see
//! [`Runtime::events`](crate::Runtime::events)).
//!
//! Every event goes through one write path
//! ([`Scope::record`](crate::Scope::record) from outside the runtime),
//! which also draws the event's zero-length marker span(s) on the
//! trace, so the ledger and the timeline cannot disagree about what was
//! recorded.

use spread_semantics::{DegKind, Degradation};
use spread_trace::{Lane, SimTime, SpanKind};

use crate::integrity::{IntegrityAction, IntegrityEvent};
use crate::overlap::OverlapRecord;
use crate::runtime::Inner;
use crate::section::Section;

/// One runtime decision, in recording order.
#[derive(Clone, Debug, PartialEq)]
pub enum RunEvent {
    /// A rung of the memory-pressure ladder fired. `spread-check`
    /// compares the exact sequence of these against its oracle: they
    /// derive from admission decisions taken at construct-launch time,
    /// never from event races.
    Degradation(Degradation),
    /// A device-to-device copy was planned.
    PeerCopy(PeerCopyRecord),
    /// A straggling piece was speculatively re-executed on a healthy
    /// sibling (`spread_straggler(steal|replicate)`).
    Rescue(RescueRecord),
    /// A digest mismatch was caught at a trust boundary
    /// (`spread_integrity`); a `Healed` action means the tainted bytes
    /// were discarded and the piece re-executed or re-fetched.
    Integrity(IntegrityEvent),
    /// A pipelined (`spread_overlap`) construct completed.
    Overlap(OverlapRecord),
}

impl RunEvent {
    /// The degradation this event records, if it is one.
    pub fn degradation(&self) -> Option<&Degradation> {
        match self {
            RunEvent::Degradation(d) => Some(d),
            _ => None,
        }
    }

    /// The peer copy this event records, if it is one.
    pub fn peer_copy(&self) -> Option<&PeerCopyRecord> {
        match self {
            RunEvent::PeerCopy(r) => Some(r),
            _ => None,
        }
    }

    /// The rescue this event records, if it is one.
    pub fn rescue(&self) -> Option<&RescueRecord> {
        match self {
            RunEvent::Rescue(r) => Some(r),
            _ => None,
        }
    }

    /// The integrity detection this event records, if it is one.
    pub fn integrity(&self) -> Option<&IntegrityEvent> {
        match self {
            RunEvent::Integrity(e) => Some(e),
            _ => None,
        }
    }

    /// The pipelined construct this event records, if it is one.
    pub fn overlap(&self) -> Option<&OverlapRecord> {
        match self {
            RunEvent::Overlap(r) => Some(r),
            _ => None,
        }
    }
}

/// One straggler rescue: a lagging piece speculatively re-executed on a
/// healthy sibling device.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RescueRecord {
    /// First loop iteration of the rescued piece.
    pub start: usize,
    /// Iteration count of the rescued piece.
    pub len: usize,
    /// The straggling device the piece was originally placed on.
    pub from: u32,
    /// The healthy sibling the speculative copy ran on.
    pub to: u32,
    /// Which copy's staged writes landed: `Some(0)` = the original
    /// straggler still won, `Some(1)` = the rescue won, `None` = neither
    /// exit has committed yet.
    pub winner: Option<u32>,
    /// Staged-write sets drained to host memory for this piece. Exactly
    /// 1 in any correct completed run.
    pub commits: u32,
    /// True when the straggler's in-flight kernel was cancelled
    /// (`spread_straggler(steal)`); false when both copies ran to
    /// completion (`replicate`, or a steal whose cancel arrived too
    /// late).
    pub stolen: bool,
}

/// One planned device-to-device copy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerCopyRecord {
    /// Source device the destination pulled from.
    pub src: u32,
    /// Destination device.
    pub dst: u32,
    /// The host-array section transferred.
    pub section: Section,
    /// Payload size in bytes.
    pub bytes: u64,
    /// True when the effect-time re-verification found the source
    /// gone or stale and the copy was replayed over the host path
    /// instead.
    pub diverted: bool,
}

impl Inner {
    /// Append `ev` to the run ledger and return its index (the commit
    /// gate and the peer divert flag update their record in place
    /// through it). Degradations, rescues and integrity detections also
    /// draw zero-length marker spans, like fault markers: on the
    /// device's compute lane, or the host lane for a spill; a healed
    /// detection draws its `Verify` marker and then its `Heal` marker.
    pub(crate) fn record(&mut self, now: SimTime, ev: RunEvent) -> usize {
        if self.trace.is_enabled() {
            let mark = |lane, kind, label, bytes| {
                self.trace.record(lane, kind, label, now, now, bytes);
            };
            let lane_of = |d: Option<u32>| d.map_or(Lane::Host, Lane::compute);
            match &ev {
                RunEvent::Degradation(d) => {
                    let (lane, kind, bytes) = match d.kind {
                        DegKind::AdmissionShrunk => {
                            (lane_of(d.device), SpanKind::AdmissionShrink, 0)
                        }
                        DegKind::ChunkSplit => (lane_of(d.device), SpanKind::ChunkSplit, 0),
                        DegKind::Spilled => (Lane::Host, SpanKind::Spill, d.bytes),
                    };
                    let label = format!("{:?} [{}..{})", d.kind, d.start, d.start + d.len);
                    mark(lane, kind, label, bytes);
                }
                RunEvent::Rescue(r) => {
                    let label = format!("StragglerRescued [{}..{})", r.start, r.start + r.len);
                    mark(Lane::compute(r.to), SpanKind::Rescue, label, 0);
                }
                RunEvent::Integrity(e) => {
                    let label = format!(
                        "{:?} {:?} {} dev{}",
                        e.action, e.boundary, e.section, e.device
                    );
                    mark(Lane::compute(e.device), SpanKind::Verify, label, 0);
                    if e.action == IntegrityAction::Healed {
                        let sec = e.section;
                        let label = format!("CorruptionHealed [{}..{})", sec.start, sec.end());
                        mark(
                            Lane::compute(e.device),
                            SpanKind::Heal,
                            label,
                            sec.len as u64 * 8,
                        );
                    }
                }
                RunEvent::PeerCopy(_) | RunEvent::Overlap(_) => {}
            }
        }
        self.events.push(ev);
        self.events.len() - 1
    }

    /// Flag the peer copy recorded at `idx` as replayed over the host
    /// path.
    pub(crate) fn mark_diverted(&mut self, idx: usize) {
        if let Some(RunEvent::PeerCopy(r)) = self.events.get_mut(idx) {
            r.diverted = true;
        }
    }
}

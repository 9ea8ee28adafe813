//! The `spread_pressure(…)` clause: graceful degradation of a
//! `target spread` construct under device memory pressure.
//!
//! The paper's directives assume the mapped sections fit; this module
//! is the robustness extension for when they do not. Three escalating
//! mechanisms keep a construct completing — more slowly, but
//! deterministically and bit-identically — instead of failing:
//!
//! 1. **Capacity-aware admission** — before launching anything, the
//!    planner asks every device for its *headroom* (capacity minus live
//!    program allocations minus every outstanding OOM-pressure window,
//!    see `Scope::device_headroom`) and re-places chunks whose mapped
//!    footprint (halo arithmetic included) does not fit their scheduled
//!    device, round-robin over the rest of the `devices(…)` list.
//! 2. **Adaptive chunk splitting** — a chunk that fits nowhere is split
//!    in half and each half is placed recursively (rotating the
//!    preferred device), down to single-iteration pieces. The same
//!    mechanism runs *reactively*: if a pressure-managed enter still
//!    hits [`RtError::OutOfMemory`] after its bounded retries (e.g.
//!    fragmentation — the byte count fits but no contiguous hole does),
//!    the recovery handler splits the piece in place.
//! 3. **Host spill** — under [`PressurePolicy::Spill`], a piece that no
//!    device can hold executes through the bounded host staging buffer
//!    (`spread_rt::spill_chunk`) instead.
//!
//! Pieces placed on the same device are serialized (each piece's enter
//! waits for the previous piece's exit), which simultaneously
//! re-establishes the §V-B gap condition by ordering — adjacent pieces'
//! halo maps overlap and may never be co-resident — and makes the
//! planner's conservative budget sound: a device never holds more than
//! one piece of the construct at a time.
//!
//! Every decision is recorded as a [`Degradation`] in the run ledger
//! (`admission_shrunk` / `chunk_split` / `spilled_bytes`); the
//! `spread-check` oracle re-runs the same pure planner and predicts the
//! exact event sequence.

use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;

use spread_rt::{ConstructIds, RtError, RunEvent, Scope, TaskId};
use spread_semantics::{DegKind, Degradation};

use crate::recovery::{complete_behind, retire, Piece, Recovery};
use crate::schedule::Chunk;

/// What a `target spread` construct does when a chunk's mapped
/// footprint exceeds the available device memory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PressurePolicy {
    /// Default: no admission control; an allocation that does not fit
    /// fails with [`RtError::OutOfMemory`] (or parks, under allocation
    /// backpressure) exactly as before.
    #[default]
    Fail,
    /// Admission control plus adaptive chunk splitting. If even a
    /// single-iteration piece fits nowhere, the construct fails with
    /// [`RtError::Degraded`].
    Split,
    /// Everything `Split` does, plus the last rung: a piece that no
    /// device can hold executes through the bounded host staging
    /// buffer. The construct always completes.
    Spill,
}

/// Where the admission planner placed one piece of the iteration space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// On a device (possibly not the one the schedule assigned).
    Device(u32),
    /// Through the host staging buffer.
    Host,
}

/// One piece of a pressure-planned construct: a chunk, or a fragment of
/// a split chunk, with its placement decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlannedPiece {
    /// Index of the originating chunk in schedule order.
    pub chunk_index: usize,
    /// The device the schedule originally assigned to that chunk.
    pub scheduled_device: u32,
    /// Where this piece actually runs.
    pub placement: Placement,
    /// First iteration of the piece.
    pub start: usize,
    /// Iteration count of the piece.
    pub len: usize,
    /// Mapped-footprint bytes of the piece (halo arithmetic included).
    pub bytes: u64,
    /// True if this piece is a proper fragment of its chunk.
    pub split: bool,
}

impl PlannedPiece {
    /// The piece's iteration range.
    pub fn range(&self) -> Range<usize> {
        self.start..self.start + self.len
    }
}

/// Plan the admission of `chunks` against per-device `headroom`.
///
/// Pure and deterministic: given the same inputs it returns the same
/// pieces, which is what lets the `spread-check` oracle predict
/// degradation exactly. `footprint(start, len)` must return the mapped
/// bytes of the piece `[start, start+len)` — the sum over the
/// construct's map clauses of their section lengths times 8.
///
/// The budget is *per piece*, not per construct: a piece is admitted to
/// a device iff its own footprint fits that device's headroom. Because
/// the runtime serializes same-device pieces (enter waits for the
/// previous piece's exit, which has freed its mappings), a device never
/// holds more than one piece of the construct at a time — so the plan
/// is sound even when the sum of a device's pieces exceeds its
/// headroom. Degradation trades parallelism for completion: under
/// severe pressure many pieces may queue on the one device that still
/// has room, slower but deterministic and exact.
pub fn plan_admission(
    chunks: &[Chunk],
    devices: &[u32],
    headroom: &HashMap<u32, u64>,
    footprint: &dyn Fn(usize, usize) -> u64,
    policy: PressurePolicy,
) -> Result<Vec<PlannedPiece>, RtError> {
    let mut out = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        let device = chunk
            .device
            .expect("pressure planning requires a static schedule");
        let pos = devices
            .iter()
            .position(|&d| d == device)
            .expect("scheduled device is in the device list");
        place(
            devices,
            headroom,
            footprint,
            policy,
            chunk.index,
            device,
            pos,
            chunk.start,
            chunk.len,
            false,
            &mut out,
        )?;
    }
    Ok(out)
}

/// Recursive placement of one piece (see [`plan_admission`]).
#[allow(clippy::too_many_arguments)]
fn place(
    devices: &[u32],
    headroom: &HashMap<u32, u64>,
    footprint: &dyn Fn(usize, usize) -> u64,
    policy: PressurePolicy,
    chunk_index: usize,
    scheduled_device: u32,
    preferred_pos: usize,
    start: usize,
    len: usize,
    split: bool,
    out: &mut Vec<PlannedPiece>,
) -> Result<(), RtError> {
    let bytes = footprint(start, len);
    // Preferred device first, then round-robin over the rest of the
    // list — the same wrap order the schedule itself uses.
    for k in 0..devices.len() {
        let pos = (preferred_pos + k) % devices.len();
        let d = devices[pos];
        let h = headroom.get(&d).expect("headroom for every device");
        if bytes <= *h {
            out.push(PlannedPiece {
                chunk_index,
                scheduled_device,
                placement: Placement::Device(d),
                start,
                len,
                bytes,
                split,
            });
            return Ok(());
        }
    }
    // Nothing holds the whole piece. If no device could hold even a
    // single iteration, splitting cannot help: spill the piece whole
    // (one staged pass) rather than fragmenting it into hundreds of
    // single-iteration spills.
    let max_headroom = devices.iter().map(|d| headroom[d]).max().unwrap_or(0);
    let hopeless = max_headroom < footprint(start, 1);
    if len > 1 && !hopeless {
        let left = len / 2;
        place(
            devices,
            headroom,
            footprint,
            policy,
            chunk_index,
            scheduled_device,
            preferred_pos,
            start,
            left,
            true,
            out,
        )?;
        place(
            devices,
            headroom,
            footprint,
            policy,
            chunk_index,
            scheduled_device,
            (preferred_pos + 1) % devices.len(),
            start + left,
            len - left,
            true,
            out,
        )?;
        return Ok(());
    }
    match policy {
        PressurePolicy::Spill => {
            out.push(PlannedPiece {
                chunk_index,
                scheduled_device,
                placement: Placement::Host,
                start,
                len,
                bytes,
                split,
            });
            Ok(())
        }
        _ => Err(RtError::Degraded {
            device: scheduled_device,
            what: format!("chunk piece [{start}..{})", start + len),
            bytes,
        }),
    }
}

/// Derive the degradation events of a plan, in piece order: a host
/// piece spilled; a fragment records a split; an intact chunk that
/// moved off its scheduled device records an admission shrink; a chunk
/// placed where the schedule put it records nothing.
pub fn degradation_events(pieces: &[PlannedPiece]) -> Vec<Degradation> {
    pieces
        .iter()
        .filter_map(|p| {
            let (kind, device) = match (p.placement, p.split) {
                (Placement::Host, _) => (DegKind::Spilled, None),
                (Placement::Device(d), true) => (DegKind::ChunkSplit, Some(d)),
                (Placement::Device(d), false) if d != p.scheduled_device => {
                    (DegKind::AdmissionShrunk, Some(d))
                }
                _ => return None,
            };
            Some(Degradation {
                kind,
                device,
                start: p.start,
                len: p.len,
                bytes: p.bytes,
            })
        })
        .collect()
}

/// [`plan_admission`] + [`degradation_events`] with the verdict lifted
/// into the `spread-semantics` vocabulary: the `S-Admit` event list, or
/// the `S-Degrade` error, ready to slot into a
/// `spread_semantics::Directive::SpreadConstruct`'s `admission` field.
///
/// This is the one boundary where the spec consumes the planner: the
/// admission computation (budgets, round-robin wrap, recursive halving)
/// is runtime scheduling policy and lives here; the semantics crate
/// only defines what its verdict *means*.
pub fn spec_admission(
    chunks: &[Chunk],
    devices: &[u32],
    headroom: &HashMap<u32, u64>,
    footprint: &dyn Fn(usize, usize) -> u64,
    policy: PressurePolicy,
) -> Result<Vec<Degradation>, spread_semantics::SemError> {
    match plan_admission(chunks, devices, headroom, footprint, policy) {
        Ok(pieces) => Ok(degradation_events(&pieces)),
        Err(RtError::Degraded {
            device,
            what,
            bytes,
        }) => Err(spread_semantics::SemError::Degraded {
            device,
            what,
            bytes,
        }),
        Err(other) => unreachable!("plan_admission only fails with Degraded: {other:?}"),
    }
}

/// The reactive recovery handler (registered by
/// [`Recovery`](crate::recovery::Recovery) under [`Arms::Oom`]): a
/// pressure-managed enter exhausted its OOM retries (typically
/// fragmentation — admission's byte budget is blind to holes). Retire
/// the piece's construct and re-run it as two serialized halves on the
/// *same* device — sequential halves need smaller contiguous blocks and
/// free between themselves. At one iteration, escalate to the policy's
/// last rung.
///
/// Replacements take no predecessors from the construct's serialization
/// chain: the faulted enter *started*, so everything before it already
/// finished (and freed its memory); everything after it is gated on the
/// faulted piece's exit, which completes only behind the replacements.
/// That structure is acyclic by construction.
///
/// [`Arms::Oom`]: spread_rt::Arms::Oom
pub(crate) fn split(
    s: &mut Scope<'_>,
    rec: &Rc<Recovery>,
    piece: Piece,
    ids: ConstructIds,
    faulted: TaskId,
    err: RtError,
) {
    let Piece { device, start, len } = piece;
    retire(s, ids, faulted);
    if len <= 1 {
        match rec.spread.pressure() {
            PressurePolicy::Spill => {
                let bytes = rec.spread.footprint_bytes(start, len);
                s.record(RunEvent::Degradation(Degradation {
                    kind: DegKind::Spilled,
                    device: None,
                    start,
                    len,
                    bytes,
                }));
                let spill_id = spread_rt::spill_chunk(
                    s,
                    format!("spread-spill[{start}..{})", start + len),
                    piece.range(),
                    Rc::clone(&rec.kernel),
                    Vec::new(),
                );
                complete_behind(s, "spread-pressure-done", device, vec![spill_id], faulted);
            }
            _ => s.fail(err),
        }
        return;
    }
    let halves = [(start, len / 2), (start + len / 2, len - len / 2)];
    let mut exits = Vec::with_capacity(2);
    for (start, len) in halves {
        let half = Piece { device, start, len };
        s.record(RunEvent::Degradation(Degradation {
            kind: DegKind::ChunkSplit,
            device: Some(device),
            start,
            len,
            bytes: rec.spread.footprint_bytes(start, len),
        }));
        // Halves can still be too big: they are guarded like the piece
        // and split recursively down to one iteration.
        let t = rec
            .spread
            .build_target(device, half.ctx())
            .pressure_managed()
            .after(exits.last().copied());
        let Some(exit) = rec.replace(s, t, half) else {
            return;
        };
        exits.push(exit);
    }
    complete_behind(s, "spread-pressure-done", device, exits, faulted);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{distribute, SpreadSchedule};

    fn flat_footprint(per_iter: u64) -> impl Fn(usize, usize) -> u64 {
        move |_start, len| len as u64 * per_iter
    }

    fn plan(
        n: usize,
        chunk: usize,
        devices: &[u32],
        room: &[u64],
        per_iter: u64,
        policy: PressurePolicy,
    ) -> Result<Vec<PlannedPiece>, RtError> {
        let chunks = distribute(0..n, devices, &SpreadSchedule::static_chunk(chunk));
        let headroom: HashMap<u32, u64> =
            devices.iter().copied().zip(room.iter().copied()).collect();
        plan_admission(
            &chunks,
            devices,
            &headroom,
            &flat_footprint(per_iter),
            policy,
        )
    }

    #[test]
    fn everything_fits_nothing_degrades() {
        let pieces = plan(20, 10, &[0, 1], &[1000, 1000], 8, PressurePolicy::Split).unwrap();
        assert_eq!(pieces.len(), 2);
        assert!(pieces.iter().all(|p| !p.split));
        assert_eq!(pieces[0].placement, Placement::Device(0));
        assert_eq!(pieces[1].placement, Placement::Device(1));
        assert!(degradation_events(&pieces).is_empty());
    }

    #[test]
    fn admission_moves_chunk_off_full_device() {
        // Device 0 has no room: its chunk re-homes to device 1.
        let pieces = plan(20, 10, &[0, 1], &[0, 1000], 8, PressurePolicy::Split).unwrap();
        assert_eq!(pieces.len(), 2);
        assert_eq!(pieces[0].placement, Placement::Device(1));
        assert!(!pieces[0].split);
        let ev = degradation_events(&pieces);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].kind, DegKind::AdmissionShrunk);
        assert_eq!(ev[0].device, Some(1));
        assert_eq!((ev[0].start, ev[0].len), (0, 10));
    }

    #[test]
    fn oversized_chunk_splits_across_devices() {
        // One 10-iteration chunk of 80 B; each device holds 40 B.
        let pieces = plan(10, 10, &[0, 1], &[40, 40], 8, PressurePolicy::Split).unwrap();
        assert_eq!(pieces.len(), 2);
        assert!(pieces.iter().all(|p| p.split));
        assert_eq!(pieces[0].placement, Placement::Device(0));
        assert_eq!(pieces[0].range(), 0..5);
        assert_eq!(pieces[1].placement, Placement::Device(1));
        assert_eq!(pieces[1].range(), 5..10);
        let ev = degradation_events(&pieces);
        assert_eq!(ev.len(), 2);
        assert!(ev.iter().all(|e| e.kind == DegKind::ChunkSplit));
    }

    #[test]
    fn split_recurses_to_fit() {
        // 16 iterations, 128 B; rooms 16/16/64: the chunk splits twice
        // before its 32 B quarters fit device 2.
        let rooms = [16u64, 16, 64];
        let pieces = plan(16, 16, &[0, 1, 2], &rooms, 8, PressurePolicy::Split).unwrap();
        let total: usize = pieces.iter().map(|p| p.len).sum();
        assert_eq!(total, 16);
        // Contiguous, ordered pieces.
        let mut cursor = 0;
        for p in &pieces {
            assert_eq!(p.start, cursor);
            cursor += p.len;
        }
        // The per-piece budget holds: every piece individually fits the
        // headroom of the device it landed on (same-device pieces run
        // serialized, so that is the real peak).
        for p in &pieces {
            let Placement::Device(d) = p.placement else {
                panic!("split policy never spills: {p:?}");
            };
            assert!(p.bytes <= rooms[d as usize], "{p:?}");
            assert!(p.split);
        }
    }

    #[test]
    fn split_policy_fails_when_hopeless() {
        let err = plan(10, 10, &[0, 1], &[0, 0], 8, PressurePolicy::Split).unwrap_err();
        assert!(matches!(err, RtError::Degraded { .. }));
    }

    #[test]
    fn spill_takes_whole_piece_when_no_device_has_any_room() {
        // Nothing fits anywhere: the chunk spills whole, not as ten
        // single-iteration fragments.
        let pieces = plan(10, 10, &[0, 1], &[0, 0], 8, PressurePolicy::Spill).unwrap();
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0].placement, Placement::Host);
        assert_eq!(pieces[0].range(), 0..10);
        let ev = degradation_events(&pieces);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].kind, DegKind::Spilled);
        assert_eq!(ev[0].bytes, 80);
    }

    #[test]
    fn spill_mixes_with_device_placement_across_chunks() {
        // Iterations past 5 are 100× heavier (think a fat halo): the
        // first chunk fits a device, the second is hopeless and spills
        // whole — one plan, both rungs of the ladder.
        let devices = [0u32, 1];
        let chunks = distribute(0..10, &devices, &SpreadSchedule::static_chunk(5));
        let headroom: HashMap<u32, u64> = [(0, 40), (1, 40)].into();
        let footprint = |start: usize, len: usize| {
            if start < 5 {
                len as u64 * 8
            } else {
                len as u64 * 100
            }
        };
        let pieces = plan_admission(
            &chunks,
            &devices,
            &headroom,
            &footprint,
            PressurePolicy::Spill,
        )
        .unwrap();
        assert_eq!(pieces.len(), 2);
        assert_eq!(pieces[0].placement, Placement::Device(0));
        assert_eq!(pieces[0].range(), 0..5);
        assert_eq!(pieces[1].placement, Placement::Host);
        assert_eq!(pieces[1].range(), 5..10);
        assert_eq!(pieces[1].bytes, 500);
    }

    #[test]
    fn planner_is_deterministic() {
        let a = plan(
            100,
            7,
            &[2, 0, 1],
            &[100, 200, 50],
            8,
            PressurePolicy::Spill,
        )
        .unwrap();
        let b = plan(
            100,
            7,
            &[2, 0, 1],
            &[100, 200, 50],
            8,
            PressurePolicy::Spill,
        )
        .unwrap();
        assert_eq!(a, b);
    }
}

//! Launch plans and their cache fingerprints.
//!
//! A `target spread` launch spends its planning phase on three things:
//! carving the range into chunks ([`distribute`]), evaluating every
//! `map`/`depend` section expression once per chunk, and — under
//! `spread_pressure` — admission-planning the chunks against live
//! headroom. For a construct relaunched every timestep (Somier: five
//! constructs × N steps) that work is identical every time. A construct
//! that opts in with `spread_plan_cache(key)` stores the finished
//! [`LaunchPlan`] in the runtime's
//! [`plan_cache`](spread_rt::plan_cache) and replays it while the
//! fingerprint and topology epoch still match.
//!
//! ## What makes replay sound
//!
//! * [`distribute`] is a pure function of `(range, devices, schedule)`
//!   — all fingerprinted — so cached chunks are exact.
//! * Map/dep section expressions are pure `Fn`s evaluated over the
//!   chunk context alone. Closure *identity* is not fingerprinted —
//!   that is the `spread_plan_cache(key)` contract (one key ⇔ one
//!   lexical construct shape) — but debug builds re-evaluate everything
//!   on every hit and assert the cached sections identical, and the
//!   `spread-check` cache-parity suite runs every fuzz mode cold vs
//!   warm and demands bit-identical observables.
//! * The pressure admission plan additionally depends on live headroom,
//!   so the headroom vector joins the fingerprint: a plan is only
//!   replayed when admission would decide exactly the same ladder.
//! * Everything else a launch depends on (device liveness, adaptive
//!   weights/depths) is covered by the topology epoch, which the
//!   runtime bumps on loss, quarantine and every adaptive update.
//!
//! [`distribute`]: crate::schedule::distribute

use std::rc::Rc;

use spread_rt::{MapClause, Section};

use crate::pressure::PlannedPiece;
use crate::schedule::Chunk;
use spread_semantics::Degradation;

/// The per-chunk result of evaluating a construct's `map` and `depend`
/// section expressions — everything [`build_target_from`] needs to
/// assemble the chunk's offload without touching a closure.
///
/// [`build_target_from`]: crate::target_spread::TargetSpread::build_target_from
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ChunkSections {
    /// Evaluated `map` items, in clause order; every launch of the
    /// chunk shares the list.
    pub maps: Rc<[MapClause]>,
    /// Evaluated `depend(in: …)` sections, in clause order.
    pub dep_ins: Vec<Section>,
    /// Evaluated `depend(out: …)` sections, in clause order.
    pub dep_outs: Vec<Section>,
}

/// The cached product of one launch path's planning phase.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum PlanBody {
    /// The static launch path: chunks and their evaluated sections.
    Static {
        chunks: Vec<Chunk>,
        sections: Vec<ChunkSections>,
    },
    /// The pressure-managed path: the admission plan, the degradation
    /// events it implies (replayed in order on every launch), and the
    /// evaluated sections of each device piece (`None` for host-spill
    /// pieces, which map nothing).
    Pressure {
        pieces: Vec<PlannedPiece>,
        events: Vec<Degradation>,
        sections: Vec<Option<ChunkSections>>,
    },
}

/// A complete cached launch plan — the opaque payload behind the
/// runtime cache's `Rc<dyn Any>`.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct LaunchPlan {
    pub body: PlanBody,
}

/// The fingerprint accumulator: word-at-a-time multiply-xor-rotate
/// mixing (one multiply per 8-byte field, FxHash-style). The
/// fingerprint is recomputed on *every* keyed launch — it sits squarely
/// inside the warm window the plan cache exists to shrink — so it mixes
/// whole words, not bytes: a construct fingerprints ~40 fields, and a
/// byte-granular chain would pay 320 dependent multiplies where this
/// pays 40. Deterministic across runs, order-sensitive, and good enough
/// for a cache whose misdraws cost a re-plan, not correctness — a hit
/// must *also* match the stored key and epoch, and debug builds verify
/// the replayed plan outright.
pub(crate) struct Fingerprint(u64);

impl Fingerprint {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    /// 2^64 / φ, the usual Fibonacci-hashing multiplier.
    const PRIME: u64 = 0x9e37_79b9_7f4a_7c15;

    pub fn new() -> Self {
        Fingerprint(Self::OFFSET)
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(Self::PRIME);
        self
    }

    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u64(v as u64)
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_order_sensitive_and_deterministic() {
        let mut a = Fingerprint::new();
        a.u64(1).u64(2);
        let mut b = Fingerprint::new();
        b.u64(2).u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Fingerprint::new();
        c.u64(1).u64(2);
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn fingerprint_separates_zero_runs() {
        // u64(0) must not collide with two empty writes — every write
        // mixes all eight bytes.
        let mut a = Fingerprint::new();
        a.u64(0);
        assert_ne!(a.finish(), Fingerprint::new().finish());
    }
}

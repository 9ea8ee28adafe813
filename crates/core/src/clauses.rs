//! The unified spread clause surface: one [`ClauseSet`] core shared by
//! every spread builder, exposed through the [`SpreadClausesExt`]
//! extension trait.
//!
//! # The canonical clause reference
//!
//! Every spread directive builder — [`TargetSpread`], the four
//! data-management builders ([`TargetDataSpread`],
//! [`TargetEnterDataSpread`], [`TargetExitDataSpread`],
//! [`TargetUpdateSpread`]) and the shared [`SpreadClauses`] core — now
//! carries the *same* clause storage and accepts the *same* builder
//! methods, documented once, here. Which directive takes which clause,
//! and which clauses compose, is one table, [`compose`](crate::compose):
//! a launch it refuses fails with [`RtError::InvalidDirective`], never
//! silently dropping a clause.
//!
//! | Clause (paper / extension) | Method | Default |
//! |---|---|---|
//! | `spread_schedule(…)` (§III-B.1, §IX) | [`with_schedule`](SpreadClausesExt::with_schedule) | `static,1` on `target spread`; `chunk_size` round-robin on data directives |
//! | `spread_resilience(…)` (extension) | [`with_resilience`](SpreadClausesExt::with_resilience) | [`ResiliencePolicy::FailStop`] |
//! | `spread_pressure(…)` (extension) | [`with_pressure`](SpreadClausesExt::with_pressure) | [`PressurePolicy::Fail`] |
//! | `spread_straggler(…)` (extension) | [`with_straggler`](SpreadClausesExt::with_straggler) | [`StragglerPolicy::Wait`] |
//! | `spread_straggler_beta(β)` (extension) | [`with_straggler_beta`](SpreadClausesExt::with_straggler_beta) | `4.0` |
//! | `spread_integrity(…)` (extension) | [`with_integrity`](SpreadClausesExt::with_integrity) | [`IntegrityMode::Off`] |
//! | `spread_overlap(…)` (extension) | [`with_overlap`](SpreadClausesExt::with_overlap) | [`OverlapPolicy::Off`] |
//! | `spread_plan_cache(key)` (extension) | [`with_plan_cache`](SpreadClausesExt::with_plan_cache) | off |
//!
//! The old per-builder inherent `spread_*` forwarders served their one
//! deprecation release and are gone; this trait is the only clause
//! surface.
//!
//! [`TargetSpread`]: crate::target_spread::TargetSpread
//! [`TargetDataSpread`]: crate::data_spread::TargetDataSpread
//! [`TargetEnterDataSpread`]: crate::data_spread::TargetEnterDataSpread
//! [`TargetExitDataSpread`]: crate::data_spread::TargetExitDataSpread
//! [`TargetUpdateSpread`]: crate::data_spread::TargetUpdateSpread
//! [`SpreadClauses`]: crate::data_spread::SpreadClauses
//! [`RtError::InvalidDirective`]: spread_rt::RtError::InvalidDirective

use spread_rt::IntegrityMode;

use crate::pressure::PressurePolicy;
use crate::recovery::ResiliencePolicy;
use crate::schedule::SpreadSchedule;
use crate::straggler::StragglerPolicy;

/// The `spread_overlap(…)` clause: software-pipelined transfer/compute
/// overlap within each device's chunk.
///
/// Under `spread_overlap(depth)` the runtime splits every device piece
/// into `depth` contiguous sub-slices and pipelines
/// copy-in → kernel → copy-out at sub-slice granularity on
/// runtime-allocated streams, so stage *j*'s H2D transfer rides under
/// stage *j−1*'s kernel and stage *j*'s D2H rides under stage *j+1*'s
/// kernel. Externally the piece is unchanged: results stay staged until
/// the whole piece drains, commits stay all-or-nothing through the
/// [`CommitGate`](spread_rt::CommitGate), and integrity digests /
/// straggler rescues / resilience replays all see whole pieces.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OverlapPolicy {
    /// Default: one sub-slice per piece — the pre-existing
    /// whole-piece copy-in → kernel → copy-out serialization.
    #[default]
    Off,
    /// Pipeline each piece over exactly `depth` sub-slices
    /// (`Depth(1)` is equivalent to `Off`).
    Depth(u32),
    /// Profile-guided: the runtime's profile store behind
    /// `spread_schedule(auto)` learns the best depth per construct key
    /// (explore, then exponentially-weighted argmin).
    Auto,
}

impl OverlapPolicy {
    /// The concrete pipeline depth, if this policy names one.
    pub fn depth(&self) -> Option<u32> {
        match self {
            OverlapPolicy::Off => Some(1),
            OverlapPolicy::Depth(d) => Some(*d),
            OverlapPolicy::Auto => None,
        }
    }
}

/// The clause storage shared by every spread builder.
///
/// Builders embed one `ClauseSet` and expose it through
/// [`SpreadClausesExt`]; each launch checks the set against
/// [`compose`](crate::compose).
#[derive(Clone, Debug)]
pub struct ClauseSet {
    /// `spread_schedule(…)` — `None` means the directive's own default
    /// (`static,1` for `target spread`, `chunk_size` round-robin for
    /// the data directives).
    pub(crate) schedule: Option<SpreadSchedule>,
    /// `spread_resilience(…)`.
    pub(crate) resilience: ResiliencePolicy,
    /// `spread_pressure(…)`.
    pub(crate) pressure: PressurePolicy,
    /// `spread_straggler(…)`.
    pub(crate) straggler: StragglerPolicy,
    /// `spread_straggler_beta(β)`, clamped to ≥ 1.
    pub(crate) straggler_beta: f64,
    /// `spread_integrity(…)`.
    pub(crate) integrity: IntegrityMode,
    /// `spread_overlap(…)`.
    pub(crate) overlap: OverlapPolicy,
    /// `spread_plan_cache(key)` — `None` (the default) plans every
    /// launch from scratch.
    pub(crate) plan_key: Option<String>,
}

impl Default for ClauseSet {
    fn default() -> Self {
        ClauseSet {
            schedule: None,
            resilience: ResiliencePolicy::FailStop,
            pressure: PressurePolicy::Fail,
            straggler: StragglerPolicy::Wait,
            straggler_beta: 4.0,
            integrity: IntegrityMode::Off,
            overlap: OverlapPolicy::Off,
            plan_key: None,
        }
    }
}

impl SpreadClausesExt for ClauseSet {
    fn clause_set_mut(&mut self) -> &mut ClauseSet {
        self
    }
}

/// The unified clause surface of every spread builder.
///
/// This trait is the **canonical reference** for the spread clause set:
/// each method documents one clause — its semantics and default. All
/// spread builders ([`TargetSpread`], the four data-directive builders,
/// and the shared [`SpreadClauses`] core) implement it over one embedded
/// [`ClauseSet`], so the surface is identical everywhere; which
/// directive takes which clause, and which clauses compose, is
/// [`compose`](crate::compose).
///
/// ```
/// use spread_core::prelude::*;
///
/// let t = TargetSpread::devices([0, 1])
///     .with_schedule(SpreadSchedule::static_chunk(8))
///     .with_resilience(ResiliencePolicy::Redistribute)
///     .with_integrity(IntegrityMode::Verify)
///     .with_overlap(OverlapPolicy::Depth(4));
/// # let _ = t;
/// ```
///
/// [`TargetSpread`]: crate::target_spread::TargetSpread
/// [`SpreadClauses`]: crate::data_spread::SpreadClauses
pub trait SpreadClausesExt: Sized {
    /// Access the builder's embedded clause storage (implementation
    /// plumbing — use the `with_*` methods).
    #[doc(hidden)]
    fn clause_set_mut(&mut self) -> &mut ClauseSet;

    /// Stamp a whole clause value onto this builder, replacing every
    /// clause it carried — how one [`ClauseSet`] built once (it takes
    /// the same `with_*` methods) decorates several directives. A set
    /// without a schedule keeps the builder's own.
    fn with_clauses(mut self, set: ClauseSet) -> Self {
        let own = self.clause_set_mut();
        let schedule = set.schedule.clone().or(own.schedule.take());
        *own = ClauseSet { schedule, ..set };
        self
    }

    /// The `spread_schedule(…)` clause (paper §III-B.1; extensions
    /// §IX): how the iteration space (or `range`) is carved into chunks
    /// and distributed round-robin over the `devices(…)` list.
    ///
    /// Default: `static,1` on `target spread`; on the data directives
    /// the `chunk_size(c)` round-robin. Legality: [`compose`](crate::compose).
    fn with_schedule(mut self, s: SpreadSchedule) -> Self {
        self.clause_set_mut().schedule = Some(s);
        self
    }

    /// The `spread_resilience(…)` clause: what the directive does when
    /// one of its devices is permanently lost mid-run (default:
    /// [`ResiliencePolicy::FailStop`]). Under
    /// [`Redistribute`](ResiliencePolicy::Redistribute) an executable
    /// construct rebuilds the lost device's pieces on the survivors
    /// from the unharmed host image; data directives skip the lost
    /// device's chunks and absorb in-flight loss. Legality:
    /// [`compose`](crate::compose).
    fn with_resilience(mut self, policy: ResiliencePolicy) -> Self {
        self.clause_set_mut().resilience = policy;
        self
    }

    /// The `spread_pressure(…)` clause: what an executable construct
    /// does when a chunk's mapped footprint exceeds available device
    /// memory (default: [`PressurePolicy::Fail`]). See the
    /// [`pressure`](crate::pressure) module for the degradation ladder
    /// (admission control → split → host spill). Legality:
    /// [`compose`](crate::compose).
    fn with_pressure(mut self, policy: PressurePolicy) -> Self {
        self.clause_set_mut().pressure = policy;
        self
    }

    /// The `spread_straggler(…)` clause: what an executable construct
    /// does about a piece lagging far behind its siblings (default:
    /// [`StragglerPolicy::Wait`]). See the
    /// [`straggler`](crate::straggler) module for the deadline rule and
    /// the first-commit-wins rescue protocol; rescues always re-execute
    /// **whole pieces**, even when the original piece was pipelined by
    /// `spread_overlap`. Legality: [`compose`](crate::compose).
    fn with_straggler(mut self, policy: StragglerPolicy) -> Self {
        self.clause_set_mut().straggler = policy;
        self
    }

    /// The `spread_straggler_beta(β)` clause: the straggler detection
    /// threshold (default 4) — a piece is a straggler if its kernel is
    /// still running β× past the construct's first kernel completion.
    /// Non-finite values reset to the default; finite values clamp to
    /// ≥ 1.
    fn with_straggler_beta(mut self, beta: f64) -> Self {
        self.clause_set_mut().straggler_beta = if beta.is_finite() { beta.max(1.0) } else { 4.0 };
        self
    }

    /// The `spread_integrity(…)` clause: whether device payloads are
    /// CRC32C-digested at their source and re-verified where device
    /// bytes become authoritative — the staged-commit drain and the
    /// peer-copy receive (default: [`IntegrityMode::Off`]). `verify`
    /// fails the construct on a mismatch; `heal` re-executes the
    /// tainted piece from the unharmed host image (see the
    /// [`recovery`](crate::recovery) module). Digests always cover
    /// **whole pieces**: under `spread_overlap` the per-sub-slice
    /// drains are digested individually at their source and verified at
    /// the same whole-piece commit boundary. Legality:
    /// [`compose`](crate::compose).
    fn with_integrity(mut self, mode: IntegrityMode) -> Self {
        self.clause_set_mut().integrity = mode;
        self
    }

    /// The `spread_overlap(…)` clause: pipeline each device piece over
    /// `depth` sub-slices so transfers overlap compute (default:
    /// [`OverlapPolicy::Off`]). See [`OverlapPolicy`] for the pipeline
    /// shape; resilience, straggler rescue and integrity keep seeing
    /// whole-piece commits. Legality: [`compose`](crate::compose).
    fn with_overlap(mut self, policy: OverlapPolicy) -> Self {
        self.clause_set_mut().overlap = policy;
        self
    }

    /// The `spread_plan_cache(key)` clause: cache this construct's
    /// launch plan — chunking, admission planning, map/dep section
    /// evaluation, overlap stage boundaries — under `key`, and replay
    /// it on later launches whose directive shape fingerprint and
    /// topology epoch still match, skipping the planner entirely.
    ///
    /// `key` is the construct-site identity, like an OpenMP lexical
    /// construct: **every launch under one key must describe the same
    /// directive shape** (same range/devices/schedule/maps/deps
    /// modulo the values the fingerprint captures). The runtime guards
    /// the contract anyway — a shape change fingerprints differently
    /// and re-plans, a topology or adaptive-state change bumps the
    /// epoch and invalidates, and debug builds re-plan every hit from
    /// scratch and assert the cached plan identical.
    ///
    /// Auto-scheduled constructs never hit (their plans depend on
    /// per-launch adaptive state). Default: no key, every launch
    /// cold-plans. Legality: [`compose`](crate::compose).
    fn with_plan_cache(mut self, key: impl Into<String>) -> Self {
        self.clause_set_mut().plan_key = Some(key.into());
        self
    }
}

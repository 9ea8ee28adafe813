//! The conformance harness's program representation.
//!
//! A [`Program`] is a small directive program over the spread builder
//! surface: a set of host arrays (all the same length, filled by a fixed
//! deterministic rule) and a sequence of *phases*. Statements inside one
//! phase touch pairwise disjoint arrays, so `nowait` statements may
//! interleave freely without racing and the sequential oracle stays
//! exact; a `drain_all` barrier separates phases.
//!
//! The final phase may consist of *raw* data-mapping statements
//! (unpaired enter/exit/update, possibly illegal). Those exercise the
//! presence-table rules directly: the oracle predicts either the leaked
//! mapping state or the exact [`spread_rt::RtError`] they must produce.
//!
//! A program may also carry a [`FaultSpec`]: a device lost at virtual
//! time zero plus retry-absorbable transient copy bursts. Under
//! [`FaultMode::Resilient`] every spread construct runs with
//! `spread_resilience(redistribute)` and must still match the
//! fault-free prediction bit-for-bit; under [`FaultMode::FailStop`] the
//! oracle predicts the exact `DeviceLost` poisoning.

use spread_core::reduction::ReduceOp;
use spread_core::schedule::SpreadSchedule;
use spread_core::{IntegrityMode, PressurePolicy, StragglerPolicy};

/// A complete directive program.
#[derive(Clone, Debug)]
pub struct Program {
    /// Number of devices in the machine.
    pub n_devices: usize,
    /// Common length of every host array.
    pub n: usize,
    /// Number of host arrays (`A0 … A{n_arrays-1}`).
    pub n_arrays: usize,
    /// Phases; statements within a phase touch disjoint arrays.
    pub phases: Vec<Vec<Stmt>>,
    /// Seeded fault plan injected into the machine, if any.
    pub fault: Option<FaultSpec>,
    /// Memory-pressure scenario, if the program runs in pressure mode.
    pub pressure: Option<PressureSpec>,
    /// Straggler scenario, if the program runs in straggler mode.
    pub straggler: Option<StragglerSpec>,
    /// Silent-corruption scenario, if the program runs in integrity
    /// mode.
    pub integrity: Option<IntegritySpec>,
    /// Pipelined-overlap scenario, if the program runs in overlap mode.
    pub overlap: Option<OverlapSpec>,
}

impl Program {
    /// A program over `n_devices` devices and `n_arrays` host arrays of
    /// length `n`, with no phases and no scenario attached yet.
    pub fn new(n_devices: usize, n: usize, n_arrays: usize) -> Program {
        Program {
            n_devices,
            n,
            n_arrays,
            phases: Vec::new(),
            fault: None,
            pressure: None,
            straggler: None,
            integrity: None,
            overlap: None,
        }
    }

    /// Every device a scenario spec names — the lost and transiently
    /// failing devices, the pressured, slowed and flip-armed ones. Each
    /// lowers to a fault-plan entry the machine validates against its
    /// device count, so the shrinker counts them as used.
    pub fn scenario_devices(&self) -> impl Iterator<Item = u32> + '_ {
        let fault = self.fault.iter().flat_map(|f| {
            f.lost
                .into_iter()
                .chain(f.transients.iter().map(|&(d, _)| d))
        });
        let sustained = self.pressure.iter().flat_map(|ps| &ps.sustained);
        let slow = self.straggler.iter().flat_map(|ss| &ss.slow);
        let flips = self.integrity.iter().flat_map(|is| &is.flips);
        fault
            .chain(sustained.map(|&(d, _)| d))
            .chain(slow.map(|&(d, _)| d))
            .chain(flips.map(|&(d, _)| d))
    }

    /// The deterministic initial value of element `i` of array `k` —
    /// shared by the executor's `fill_host` and the oracle.
    pub fn initial(k: usize, i: usize) -> f64 {
        ((i * 7 + k * 13) % 23) as f64 - 11.0
    }

    /// The permanently lost device, if the fault plan names one.
    pub fn lost_device(&self) -> Option<u32> {
        self.fault.as_ref().and_then(|f| f.lost)
    }

    /// True when spread constructs run under
    /// `spread_resilience(redistribute)`.
    pub fn resilient(&self) -> bool {
        self.fault
            .as_ref()
            .is_some_and(|f| f.mode == FaultMode::Resilient)
    }

    /// The `spread_pressure(…)` policy every spread construct carries,
    /// when the program runs in pressure mode.
    pub fn pressure_policy(&self) -> Option<PressurePolicy> {
        self.pressure.as_ref().map(|ps| ps.policy)
    }

    /// The `spread_straggler(…)` policy every spread construct carries,
    /// when the program runs in straggler mode.
    pub fn straggler_policy(&self) -> Option<StragglerPolicy> {
        self.straggler.as_ref().map(|ss| ss.policy)
    }

    /// The `spread_integrity(…)` mode every spread construct carries,
    /// when the program runs in integrity mode.
    pub fn integrity_mode(&self) -> Option<IntegrityMode> {
        self.integrity.as_ref().map(|is| is.mode)
    }

    /// The `spread_overlap(…)` depth every spread construct carries,
    /// when the program runs in overlap mode.
    pub fn overlap_depth(&self) -> Option<u32> {
        self.overlap.as_ref().map(|os| os.depth)
    }

    /// True when any statement uses `spread_schedule(auto)` — the
    /// executor then runs with tracing on, so the runtime's profile
    /// layer has spans to learn from.
    pub fn uses_auto(&self) -> bool {
        self.phases.iter().flatten().any(|s| {
            matches!(
                s,
                Stmt::Spread {
                    sched: Sched::Auto { .. },
                    ..
                } | Stmt::Reduce {
                    sched: Sched::Auto { .. },
                    ..
                }
            )
        })
    }
}

/// The memory-pressure scenario attached to a [`Program`].
///
/// Every device's capacity is capped at `cap_bytes`, and the fault plan
/// opens a *sustained* OOM-pressure window (never released) on each
/// device in `sustained` at virtual time **zero** — so the headroom the
/// admission planner sees at every construct launch is exactly
/// `cap_bytes − sustained(d)`, independent of timing. That closed form
/// is what lets the oracle predict the exact
/// [`spread_semantics::Degradation`] sequence (or the exact
/// [`spread_rt::RtError::Degraded`]) for static schedules.
///
/// Caps and window sizes are multiples of 8 (one pool element), so the
/// advisory headroom equals the physical contiguous hole and the
/// runtime's reactive OOM-recovery rung never fires — every degradation
/// is an admission-time decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PressureSpec {
    /// `spread_pressure(split)` or `spread_pressure(spill)`.
    pub policy: PressurePolicy,
    /// Per-device memory capacity in bytes (multiple of 8).
    pub cap_bytes: u64,
    /// Sustained pressure windows `(device, bytes)`, opened at time
    /// zero and never released (bytes are multiples of 8).
    pub sustained: Vec<(u32, u64)>,
}

impl PressureSpec {
    /// The admission headroom of `device`: capacity minus every
    /// sustained window held against it.
    pub fn headroom(&self, device: u32) -> u64 {
        let held: u64 = self
            .sustained
            .iter()
            .filter(|&&(d, _)| d == device)
            .map(|&(_, b)| b)
            .sum();
        self.cap_bytes.saturating_sub(held)
    }
}

/// The straggler scenario attached to a [`Program`].
///
/// Every slowed device's compute-slowdown window opens at virtual time
/// **zero** and never closes, so whether a piece straggles depends only
/// on the program (which device its chunk lands on), never on event
/// timing — the same dead-on-arrival discipline as [`FaultSpec`].
/// Slowdowns stretch modeled kernel *durations* only; the slowed
/// kernels still compute the same bits, so the oracle's prediction is
/// unchanged and the rescue machinery must be value-invisible: results
/// bit-identical, exactly one commit per rescued piece.
#[derive(Clone, Debug, PartialEq)]
pub struct StragglerSpec {
    /// `spread_straggler(steal)` or `spread_straggler(replicate)`.
    pub policy: StragglerPolicy,
    /// Slowed devices `(device, factor)`; factors are large enough
    /// (≥ 8) that a straggling piece always blows the default
    /// 4× progress deadline.
    pub slow: Vec<(u32, u32)>,
}

/// The silent-corruption scenario attached to a [`Program`].
///
/// Every flip burst arms at virtual time **zero** — the same
/// dead-on-arrival discipline as [`FaultSpec`] — so which drains rot
/// depends only on the program (how many committing drains each device
/// performs, in what per-device order), never on event timing. Counts
/// stay under the runtime's default mismatch breaker (8), so healing
/// never escalates to quarantine and the oracle's prediction is purely
/// the flip-blind fault-free state: under
/// [`spread_core::IntegrityMode::Heal`] results
/// must be bit-identical with exactly `count` healed commits per
/// flipped device that drains at all.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IntegritySpec {
    /// `spread_integrity(heal)` (the fuzz mode; `verify` is covered by
    /// directed tests since it poisons at the first drain).
    pub mode: IntegrityMode,
    /// Flip bursts `(device, count)`, `1 ≤ count ≤ 3` — far below the
    /// default breaker streak of 8.
    pub flips: Vec<(u32, u32)>,
}

/// The pipelined-overlap scenario attached to a [`Program`].
///
/// Every spread statement carries `spread_overlap(depth)`: the runtime
/// splits each device's chunk into up to `depth` balanced sub-slices
/// and pipelines copy-in → sub-kernel → staged copy-out. The pipeline
/// is a pure latency optimization — the oracle stays *overlap-blind*
/// and predicts the same host state as the un-pipelined run — so the
/// harness requires bit-identical results plus a structurally sound
/// [`spread_rt::OverlapRecord`] ledger: one record per piece of two or
/// more iterations, stage count `min(depth, len)`, every staged
/// sub-slice committed exactly at the whole-piece boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OverlapSpec {
    /// The pipeline depth every spread construct requests (`2 ≤ depth
    /// ≤ 4`; the runtime clamps per piece to the piece length).
    pub depth: u32,
}

/// How the program's spread constructs respond to permanent device
/// loss.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FaultMode {
    /// The default: the loss poisons the program with
    /// [`spread_rt::RtError::DeviceLost`].
    #[default]
    FailStop,
    /// Every `target spread` carries `spread_resilience(redistribute)`:
    /// the lost device's chunks are rebuilt on the survivors and the
    /// final host state is bit-identical to the fault-free run.
    Resilient,
}

/// The fault plan attached to a [`Program`].
///
/// The lost device dies at virtual time **zero** — dead on arrival — so
/// the outcome is independent of schedule timing: every task targeting
/// it faults, under every interleaving. (The runtime's own tests cover
/// mid-run losses; the conformance oracle needs a prediction that does
/// not depend on when work lands.) Transient copy bursts are sized
/// under the default retry budget, so retry + backoff absorbs them and
/// the final state is unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Device permanently lost at time zero, if any.
    pub lost: Option<u32>,
    /// Fail-stop or redistribute.
    pub mode: FaultMode,
    /// Transient copy-fault bursts `(device, count)`, `count ≤ 3`
    /// (the default `RetryPolicy` budget).
    pub transients: Vec<(u32, u32)>,
}

/// A `spread_schedule(…)` clause (mirror of
/// [`spread_core::schedule::SpreadSchedule`] with integer weights so it
/// can be generated, printed and shrunk losslessly).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Sched {
    /// `spread_schedule(static, chunk)`.
    Static {
        /// Chunk size.
        chunk: usize,
    },
    /// `spread_schedule(weighted, round)` with per-device weights.
    Weighted {
        /// Iterations per round.
        round: usize,
        /// One positive weight per device in the list.
        weights: Vec<u32>,
    },
    /// `spread_schedule(dynamic, chunk)` (§IX extension).
    Dynamic {
        /// Chunk size.
        chunk: usize,
    },
    /// `spread_schedule(auto)` (§IX extension): profile-guided. The
    /// runtime resolves it per launch into a `StaticWeighted` plan from
    /// the weights learned under `key`; statements sharing a key share
    /// a learned weight vector.
    Auto {
        /// Construct key (lowered to the runtime key `auto-{key}`).
        key: u32,
    },
}

impl Sched {
    /// Convert into the runtime's schedule type.
    pub fn to_schedule(&self) -> SpreadSchedule {
        match self {
            Sched::Static { chunk } => SpreadSchedule::Static { chunk: *chunk },
            Sched::Weighted { round, weights } => SpreadSchedule::StaticWeighted {
                round: *round,
                weights: weights.iter().map(|&w| w as f64).collect(),
            },
            Sched::Dynamic { chunk } => SpreadSchedule::Dynamic { chunk: *chunk },
            Sched::Auto { key } => SpreadSchedule::auto(format!("auto-{key}")),
        }
    }

    /// The schedule the *oracle* interprets. `Auto` becomes an
    /// equal-weight `StaticWeighted` stand-in: auto programs restrict
    /// themselves to placement-independent kernels (no stencils, no
    /// pressure), so the predicted host state is the same for every
    /// valid static split — including whatever adapted split the
    /// runtime actually realizes.
    pub fn oracle_schedule(&self, n: usize, k: usize) -> SpreadSchedule {
        match self {
            Sched::Auto { .. } => SpreadSchedule::StaticWeighted {
                round: n.max(1),
                weights: vec![1.0; k.max(1)],
            },
            other => other.to_schedule(),
        }
    }
}

/// The kernel run by a [`Stmt::Spread`] statement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KernelOp {
    /// `a[i] += c` over `0..n` (`map(spread_tofrom: a[chunk])`).
    AddConst {
        /// Target array.
        a: usize,
        /// Constant.
        c: f64,
    },
    /// `a[i] *= c` over `0..n` (`map(spread_tofrom: a[chunk])`).
    Scale {
        /// Target array.
        a: usize,
        /// Factor.
        c: f64,
    },
    /// `y[i] += alpha * x[i]` over `0..n`
    /// (`map(spread_to: x[chunk]) map(spread_tofrom: y[chunk])`).
    Saxpy {
        /// Read-only input.
        x: usize,
        /// In/out array.
        y: usize,
        /// Factor.
        alpha: f64,
    },
    /// `dst[i] = src[i-1] + src[i] + src[i+1]` over `1..n-1` with the
    /// paper's halo maps (`map(spread_to: src[ss-1:sz+2])
    /// map(spread_from: dst[chunk])`). Static schedules only, subject to
    /// the §V-B gap rule.
    Stencil3 {
        /// Read-only input.
        src: usize,
        /// Write-only output.
        dst: usize,
    },
}

impl KernelOp {
    /// The kernel's name in traces — and, one op variant being one
    /// closure shape, its `spread_plan_cache(…)` key in the cache-parity
    /// executor.
    pub fn name(&self) -> &'static str {
        match self {
            KernelOp::AddConst { .. } => "addc",
            KernelOp::Scale { .. } => "scale",
            KernelOp::Saxpy { .. } => "saxpy",
            KernelOp::Stencil3 { .. } => "stencil",
        }
    }

    /// Arrays this kernel touches.
    pub fn arrays(&self) -> Vec<usize> {
        match *self {
            KernelOp::AddConst { a, .. } | KernelOp::Scale { a, .. } => vec![a],
            KernelOp::Saxpy { x, y, .. } => vec![x, y],
            KernelOp::Stencil3 { src, dst } => vec![src, dst],
        }
    }

    /// The iteration range for arrays of length `n`.
    pub fn range(&self, n: usize) -> std::ops::Range<usize> {
        match self {
            KernelOp::Stencil3 { .. } => 1..n - 1,
            _ => 0..n,
        }
    }
}

/// An intentionally malformed directive (each maps to a specific
/// [`spread_rt::RtError::InvalidDirective`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BadKind {
    /// `target enter data spread` with a `dynamic` schedule — data
    /// directives require a static distribution.
    DynamicDataSchedule,
    /// `target enter data spread` without the `chunk_size` clause.
    MissingChunkSize,
    /// `target spread` with an empty `devices(…)` list.
    EmptyDevices,
}

/// One statement of a phase.
#[derive(Clone, Debug)]
pub enum Stmt {
    /// `#pragma omp target spread … [nowait]` + kernel.
    Spread {
        /// `devices(…)`, in distribution order.
        devices: Vec<u32>,
        /// `spread_schedule(…)`.
        sched: Sched,
        /// `nowait`.
        nowait: bool,
        /// The kernel.
        op: KernelOp,
    },
    /// The §IX cross-device reduction: `partials[i] = alpha * a[i]`
    /// spread over the devices, folded on the host with `op`.
    Reduce {
        /// `devices(…)`.
        devices: Vec<u32>,
        /// `spread_schedule(…)`.
        sched: Sched,
        /// Input array.
        a: usize,
        /// Per-iteration partials array (`map(spread_from: …)`).
        partials: usize,
        /// Kernel factor.
        alpha: f64,
        /// Host-side combiner.
        op: ReduceOp,
    },
    /// An unstructured data region over one array: enter-spread `to`,
    /// optional `tofrom` kernel body (reuse path: refcount 2, no
    /// copies), optional `update from`, then exit-spread `from` or
    /// `release`.
    DataRegion {
        /// `devices(…)`.
        devices: Vec<u32>,
        /// `chunk_size(…)` used by every leg.
        chunk: usize,
        /// The array.
        a: usize,
        /// Body kernel: `a[i] += c` with the same chunking.
        body_add: Option<f64>,
        /// `target update spread from(a[chunk])` after the body.
        update_from: bool,
        /// Exit with `from` (copy-out) instead of `release` (discard).
        exit_from: bool,
    },
    /// A peer-mode halo-exchange region over one array (see
    /// [`crate::Mode::Peer`]): enter-spread `to` of halo'd
    /// chunks `[start−1, end+1)∩[0, n)` (one chunk per device, so the
    /// overlapping halos land on *sibling* presence tables), an
    /// optional in-place body bump on the device images (reuse path —
    /// the host keeps the stale values, so every sibling copy stops
    /// being bit-identical to the host image), a `target update
    /// spread` of each chunk's one-element halos whose `exchange(…)`
    /// mode the executor chooses per run, a clamped 3-point stencil
    /// reading the refreshed window into `dst` (propagating the halo
    /// bytes into the final host state), and an exit-spread release.
    ///
    /// The must-peer set is closed-form: with `bump: None` every
    /// interior halo element is held bit-identical by exactly one
    /// sibling (the neighbouring chunk's device — `chunk ≥ 2` keeps it
    /// unique), so `exchange(auto)` must pull it device-to-device;
    /// with `bump: Some(_)` every sibling image is stale and every
    /// halo must take the host route.
    Halo {
        /// `devices(…)`, in distribution order. At least two; the
        /// generator sizes `chunk` so each gets at most one chunk
        /// (same-device halo'd chunks would overlap-extend).
        devices: Vec<u32>,
        /// `chunk_size(…)` of every leg (`⌈n/k⌉ ≥ 2`).
        chunk: usize,
        /// The exchanged array.
        a: usize,
        /// Stencil output array.
        dst: usize,
        /// Device-side body bump applied after the enter: `Some(c)`
        /// forces every halo onto the host route.
        bump: Option<f64>,
    },
    /// Raw single-chunk `target enter data spread devices(d)
    /// map(spread_to: a[start:len])` — may legally leak a mapping or
    /// produce an `OverlapExtension`/`OutOfMemory` error.
    RawEnter {
        /// Device.
        device: u32,
        /// Array.
        a: usize,
        /// Section start.
        start: usize,
        /// Section length.
        len: usize,
    },
    /// Raw single-chunk `target exit data spread` with `from` (or
    /// `delete`) — `NotMapped` when nothing contains the section.
    RawExit {
        /// Device.
        device: u32,
        /// Array.
        a: usize,
        /// Section start.
        start: usize,
        /// Section length.
        len: usize,
        /// `map(delete: …)` instead of `map(from: …)`.
        delete: bool,
    },
    /// Raw single-chunk `target update spread` — `NotMapped` when the
    /// section is absent.
    RawUpdate {
        /// Device.
        device: u32,
        /// Array.
        a: usize,
        /// Section start.
        start: usize,
        /// Section length.
        len: usize,
        /// `from(…)` (device→host) instead of `to(…)`.
        from: bool,
    },
    /// A malformed directive with a predictable `InvalidDirective`.
    Bad {
        /// The array it names.
        a: usize,
        /// What is wrong with it.
        kind: BadKind,
    },
}

impl Stmt {
    /// Arrays this statement touches (used for the per-phase
    /// disjointness discipline).
    pub fn arrays(&self) -> Vec<usize> {
        match self {
            Stmt::Spread { op, .. } => op.arrays(),
            Stmt::Reduce { a, partials, .. } => vec![*a, *partials],
            Stmt::DataRegion { a, .. } => vec![*a],
            Stmt::Halo { a, dst, .. } => vec![*a, *dst],
            Stmt::RawEnter { a, .. }
            | Stmt::RawExit { a, .. }
            | Stmt::RawUpdate { a, .. }
            | Stmt::Bad { a, .. } => vec![*a],
        }
    }

    /// True for the raw / malformed statements that only appear in the
    /// final phase.
    pub fn is_raw(&self) -> bool {
        matches!(
            self,
            Stmt::RawEnter { .. }
                | Stmt::RawExit { .. }
                | Stmt::RawUpdate { .. }
                | Stmt::Bad { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_fill_is_deterministic_and_varied() {
        assert_eq!(Program::initial(0, 0), Program::initial(0, 0));
        let distinct: std::collections::BTreeSet<i64> =
            (0..64).map(|i| Program::initial(1, i) as i64).collect();
        assert!(distinct.len() > 10);
    }

    #[test]
    fn sched_converts() {
        assert_eq!(
            Sched::Static { chunk: 4 }.to_schedule(),
            SpreadSchedule::Static { chunk: 4 }
        );
        let weighted = Sched::Weighted {
            round: 8,
            weights: vec![1, 3],
        };
        match weighted.to_schedule() {
            SpreadSchedule::StaticWeighted { round, weights } => {
                assert_eq!(round, 8);
                assert_eq!(weights, vec![1.0, 3.0]);
            }
            other => panic!("wrong schedule {other:?}"),
        }
    }

    #[test]
    fn op_ranges_and_arrays() {
        let st = KernelOp::Stencil3 { src: 0, dst: 1 };
        assert_eq!(st.range(10), 1..9);
        assert_eq!(st.arrays(), vec![0, 1]);
        let sx = KernelOp::Saxpy {
            x: 2,
            y: 0,
            alpha: 0.5,
        };
        assert_eq!(sx.range(10), 0..10);
        assert_eq!(sx.arrays(), vec![2, 0]);
    }
}

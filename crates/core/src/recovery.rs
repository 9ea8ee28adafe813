//! Recovery inside one `target spread` launch: the piece ledger, the
//! loss/corruption handler, and the relaunch routine every re-placed
//! piece goes through.
//!
//! The paper's directives assume healthy devices; three clauses add
//! ways for a piece (one chunk × device, launched as enter → kernel →
//! exit) to be launched again:
//!
//! * `spread_resilience(redistribute)` — a permanently lost device's
//!   pieces are rebuilt on the surviving devices of the `devices(…)`
//!   list, round-robin;
//! * `spread_integrity(heal)` — a piece whose staged D2H bytes failed
//!   verification ([`spread_rt::integrity`]) is re-executed from the
//!   unharmed host image: in place while the device's circuit breaker
//!   still trusts it, on a survivor once the breaker quarantined it
//!   (quarantine marks the device lost);
//! * `spread_pressure(split|spill)` — a piece whose enter still runs out
//!   of memory after its retries is split in place
//!   ([`pressure`]).
//!
//! The straggler monitor ([`straggler`]) adds
//! speculative rescues. One `Recovery` per launch holds what they all
//! share: the per-device exits of every construct placed (originals,
//! replacements, heal redos, split halves and rescues), the survivor
//! cursor and the rescued-by map. A construct re-placed on a device
//! serializes after every construct already placed there, whichever
//! path placed it. That re-establishes the §V-B gap condition by
//! ordering rather than by spatial disjointness: the device's earlier
//! mappings are gone (exit done) before the newcomer re-maps sections
//! that may overlap or extend them.
//!
//! A retired construct's phases are neutralized, so the runtime's
//! dependence cascade still releases downstream work in program order
//! once the replacement's exit completes the faulted task. Results stay
//! bit-identical to a fault-free run; only virtual time and the trace
//! differ. Recovery routes around dead hardware and the failures a
//! clause asked to absorb, never around bugs: any other task failure
//! poisons the runtime fail-stop.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;

use spread_rt::directives::Target;
use spread_rt::{
    Arms, CommitGate, ConstructIds, IntegrityAction, IntegrityMode, KernelSpec, RtError, RunEvent,
    Scope, TaskId, TaskLabel,
};
use spread_trace::{Lane, SpanKind};

use crate::chunk::ChunkCtx;
use crate::pressure::{self, PressurePolicy};
use crate::straggler::{self, Monitor};
use crate::target_spread::TargetSpread;

/// What a `target spread` construct does when one of its devices is
/// permanently lost mid-run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ResiliencePolicy {
    /// Default: the loss poisons the runtime; the blocking drain (or
    /// the enclosing taskgroup) reports [`RtError::DeviceLost`].
    #[default]
    FailStop,
    /// Rebuild the lost device's chunks on the surviving devices of the
    /// `devices(…)` list, round-robin. The construct completes with
    /// results bit-identical to a fault-free run; only virtual time and
    /// the trace differ.
    Redistribute,
}

/// One piece of a launch: iterations `[start, start + len)` on `device`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Piece {
    pub(crate) device: u32,
    pub(crate) start: usize,
    pub(crate) len: usize,
}

impl Piece {
    pub(crate) fn range(self) -> Range<usize> {
        self.start..self.start + self.len
    }

    pub(crate) fn ctx(self) -> ChunkCtx {
        ChunkCtx::new(self.start, self.len)
    }

    /// The same iterations on another device.
    pub(crate) fn on(self, device: u32) -> Piece {
        Piece { device, ..self }
    }
}

/// The recovery state of one `target spread` launch, shared by the
/// handler of every piece and by the launch's straggler monitor.
pub(crate) struct Recovery {
    pub(crate) spread: Rc<TargetSpread>,
    pub(crate) kernel: Rc<KernelSpec>,
    /// Per device: exit ids of every construct placed on it, in
    /// placement order.
    exits: RefCell<HashMap<u32, Vec<TaskId>>>,
    /// Round-robin cursor over the device list for survivor picks.
    rr: Cell<usize>,
    /// Piece start → exit of the rescue that now owns the piece.
    rescued_by: RefCell<HashMap<usize, TaskId>>,
}

impl Recovery {
    pub(crate) fn new(spread: Rc<TargetSpread>, kernel: Rc<KernelSpec>) -> Rc<Self> {
        Rc::new(Recovery {
            spread,
            kernel,
            exits: RefCell::new(HashMap::new()),
            rr: Cell::new(0),
            rescued_by: RefCell::new(HashMap::new()),
        })
    }

    /// The failures the launch's clauses absorb; `None` when no clause
    /// recovers from any (a straggler-only launch). The composition
    /// table lets at most one of these clauses onto a launch.
    fn arms(&self) -> Option<Arms> {
        if self.spread.pressure() != PressurePolicy::Fail {
            Some(Arms::Oom)
        } else if self.spread.integrity() == IntegrityMode::Heal {
            Some(Arms::Integrity)
        } else if self.spread.resilience() == ResiliencePolicy::Redistribute {
            Some(Arms::Loss)
        } else {
            None
        }
    }

    /// Launch one of the launch's own pieces from `t`: under the
    /// monitor's commit gate (copy 0) when there is a monitor, recorded
    /// in the ledger, guarded, and watched. Returns its exit.
    pub(crate) fn launch_piece(
        self: &Rc<Self>,
        scope: &mut Scope<'_>,
        monitor: Option<&Rc<Monitor>>,
        mut t: Target,
        piece: Piece,
    ) -> Result<TaskId, RtError> {
        let gate = monitor.map(|_| CommitGate::new());
        if let Some(g) = &gate {
            t = t.commit_gate(g.clone(), 0);
        }
        let ids = t.parallel_for_phases(scope, piece.range(), Rc::clone(&self.kernel))?;
        self.record(piece.device, ids.exit);
        self.guard(scope, piece, ids);
        if let (Some(m), Some(g)) = (monitor, gate) {
            straggler::watch(scope, m, piece, ids, g);
        }
        Ok(ids.exit)
    }

    /// Launch a re-placed piece from `t` and record it in the ledger.
    /// A launch error poisons the runtime and yields `None`.
    pub(crate) fn relaunch(
        &self,
        s: &mut Scope<'_>,
        t: Target,
        piece: Piece,
    ) -> Option<ConstructIds> {
        match t.parallel_for_phases(s, piece.range(), Rc::clone(&self.kernel)) {
            Ok(ids) => {
                self.record(piece.device, ids.exit);
                Some(ids)
            }
            Err(e) => {
                s.fail(e);
                None
            }
        }
    }

    /// [`Recovery::relaunch`] for a replacement, which is guarded like
    /// the construct it replaces: it can fail in turn. Returns its exit.
    pub(crate) fn replace(
        self: &Rc<Self>,
        s: &mut Scope<'_>,
        t: Target,
        piece: Piece,
    ) -> Option<TaskId> {
        let ids = self.relaunch(s, t, piece)?;
        self.guard(s, piece, ids);
        Some(ids.exit)
    }

    /// Exits of every construct placed on `device` so far.
    pub(crate) fn exits_on(&self, device: u32) -> Vec<TaskId> {
        self.exits
            .borrow()
            .get(&device)
            .cloned()
            .unwrap_or_default()
    }

    /// Record that the rescue ending in `exit` now owns the piece
    /// starting at `start`.
    pub(crate) fn rescued(&self, start: usize, exit: TaskId) {
        self.rescued_by.borrow_mut().insert(start, exit);
    }

    fn record(&self, device: u32, exit: TaskId) {
        self.exits
            .borrow_mut()
            .entry(device)
            .or_default()
            .push(exit);
    }

    /// Register the handler of the launch's clause on every phase of
    /// the construct `ids` running `piece`.
    fn guard(self: &Rc<Self>, s: &mut Scope<'_>, piece: Piece, ids: ConstructIds) {
        let Some(arms) = self.arms() else { return };
        let rec = Rc::clone(self);
        s.on_task_failure(&ids.all(), piece.device, arms, move |s, faulted, err| {
            if arms == Arms::Oom {
                pressure::split(s, &rec, piece, ids, faulted, err);
            } else {
                recover(s, &rec, piece, ids, faulted, err);
            }
        });
    }

    /// Next live device in list order, or `None` if the whole
    /// `devices(…)` list is dead (or quarantined).
    fn pick_survivor(&self, s: &Scope<'_>) -> Option<u32> {
        let devices = self.spread.device_list();
        for _ in 0..devices.len() {
            let i = self.rr.get() % devices.len();
            self.rr.set(i + 1);
            let d = devices[i];
            if !s.is_device_lost(d) {
                return Some(d);
            }
        }
        None
    }
}

/// Retire a failed construct: the faulted task's operation was aborted,
/// and its other phases must never run. Erasing the footprints keeps
/// the race detector quiet about the replacement covering the same
/// sections.
pub(crate) fn retire(s: &mut Scope<'_>, ids: ConstructIds, faulted: TaskId) {
    s.forgive_task_footprints(faulted);
    for id in ids.all() {
        if id != faulted {
            s.neutralize_task(id);
        }
    }
}

/// Complete `faulted` once every task in `exits` has finished: only
/// then have the replacement's results landed on the host, and may the
/// original construct release its downstream dependences.
pub(crate) fn complete_behind(
    s: &mut Scope<'_>,
    label: &'static str,
    device: u32,
    exits: Vec<TaskId>,
    faulted: TaskId,
) {
    s.task_chained(TaskLabel::on_device(label, device), exits, None, move |s| {
        s.force_complete(faulted)
    });
}

/// The loss/corruption handler: pick where the piece goes, retire the
/// failed construct, rebuild the piece from the host image there, and
/// complete the original behind the replacement's exit.
///
/// * A piece the straggler monitor already rescued has one owner: the
///   rescue lands its results through its commit gate, so the failed
///   construct only completes behind it.
/// * A corruption on a device the breaker still trusts redoes the piece
///   in place — one flipped bit is not a diagnosis.
/// * A quarantine (a corruption on a now-lost device, or a sibling
///   piece evicted by it) or, under `redistribute`, a genuine loss moves
///   the piece to a survivor.
/// * A genuine loss without `redistribute` fails stop: healing routes
///   around lies, not around dead hardware.
fn recover(
    s: &mut Scope<'_>,
    rec: &Rc<Recovery>,
    home: Piece,
    ids: ConstructIds,
    faulted: TaskId,
    err: RtError,
) {
    let rescue = rec.rescued_by.borrow().get(&home.start).copied();
    if let Some(rescue) = rescue {
        retire(s, ids, faulted);
        complete_behind(s, "spread-rescued-done", home.device, vec![rescue], faulted);
        return;
    }
    let corrupt = matches!(err, RtError::IntegrityViolation { .. });
    // The Quarantined event (recorded before the runtime marks the
    // device lost) tells a quarantine's victims apart from real
    // hardware death.
    let target = if corrupt && !s.is_device_lost(home.device) {
        Some(home.device)
    } else if corrupt
        || rec.spread.resilience() == ResiliencePolicy::Redistribute
        || s.events()
            .iter()
            .filter_map(RunEvent::integrity)
            .any(|e| e.device == home.device && e.action == IntegrityAction::Quarantined)
    {
        rec.pick_survivor(s)
    } else {
        None
    };
    let Some(target) = target else {
        s.fail(err);
        return;
    };
    retire(s, ids, faulted);
    let (kind, what, done) = if rec.spread.integrity() == IntegrityMode::Heal {
        (SpanKind::Heal, "heal-redo", "spread-heal-done")
    } else {
        (SpanKind::Redistribute, "redo", "spread-redo-done")
    };
    let now = s.now();
    s.trace().record(
        Lane::compute(target),
        kind,
        format!(
            "{what} [{}..{}) dev{}->dev{target}",
            home.start,
            home.start + home.len,
            home.device
        ),
        now,
        now,
        0,
    );
    // An in-place redo replaces a piece whose mappings were already
    // compatible with every sibling on its device, and waiting on the
    // device's exits would deadlock: this construct's own exit is among
    // them. A moved piece serializes after the target's ledger.
    let preds = if target == home.device {
        Vec::new()
    } else {
        rec.exits_on(target)
    };
    let piece = home.on(target);
    let t = rec.spread.build_target(target, piece.ctx()).after(preds);
    if let Some(exit) = rec.replace(s, t, piece) {
        complete_behind(s, done, target, vec![exit], faulted);
    }
}

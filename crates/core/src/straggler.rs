//! The `spread_straggler(…)` clause: per-construct progress deadlines
//! with speculative re-execution of lagging pieces.
//!
//! A multi-device spread is only as fast as its slowest piece. When one
//! device computes far slower than its siblings (thermal throttling,
//! a contended MIG slice — modeled by
//! [`PlannedFault::ComputeSlowdown`](spread_sim::PlannedFault)), the
//! construct's blocking drain waits on a straggler while healthy
//! devices idle. This module adds the rescue path:
//!
//! 1. **Detection.** When the construct's *first* piece finishes its
//!    kernel at `t1`, the whole construct gets a progress deadline
//!    `t0 + β·(t1 − t0)` (launch time `t0`, default β = 4). Any piece
//!    whose kernel has still not finished at the deadline is a
//!    straggler.
//! 2. **Rescue.** The straggling piece is re-executed as a fresh
//!    enter→kernel→exit construct on the least-loaded healthy sibling
//!    of the `devices(…)` list. Under
//!    [`StragglerPolicy::Steal`] the original's in-flight kernel is
//!    additionally cancelled (only a *running* kernel: its eager body
//!    already ran, so the device bytes are whole and the original exit
//!    still cleans up its mappings); under
//!    [`StragglerPolicy::Replicate`] both copies run to completion.
//! 3. **First-commit-wins.** Both copies share a
//!    [`CommitGate`]: whichever exit finishes first lands its staged
//!    D2H writes on the host, the loser discards its snapshot. Both
//!    copies compute bit-identical bytes from the same host input, so
//!    the race never changes results — and the *recorded* winner is
//!    made schedule-independent by a deterministic same-instant
//!    tie-break (lower copy index wins).
//!
//! Rescues serialize after every construct already placed on their
//! target device (the §V-B gap condition by ordering, exactly like
//! [`resilience`](crate::resilience) replacements), and are reported
//! through [`Runtime::rescues`](spread_rt::Runtime::rescues) plus a
//! `StragglerRescued` degradation event per rescue.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use spread_rt::{CommitGate, ConstructIds, KernelSpec, RescueRecord, Scope, TaskId};
use spread_trace::{SimDuration, SimTime};

use crate::chunk::ChunkCtx;
use crate::target_spread::TargetSpread;

/// What a `target spread` construct does about a piece that lags far
/// behind its siblings (detected by the β-deadline above).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StragglerPolicy {
    /// Default: wait for the straggler (the pre-existing behavior).
    #[default]
    Wait,
    /// Cancel the straggler's in-flight kernel and re-execute the piece
    /// on the least-loaded healthy sibling; the cancelled copy is
    /// disqualified from committing. Falls back to `Replicate` behavior
    /// when the cancel misses (the kernel was queued or already done).
    Steal,
    /// Leave the straggler running and race a speculative copy on the
    /// least-loaded healthy sibling; first commit wins.
    Replicate,
}

/// One piece under straggler watch.
struct Watched {
    device: u32,
    start: usize,
    len: usize,
    ids: ConstructIds,
    gate: CommitGate,
    rescued: Cell<bool>,
}

/// Shared monitor state for one spread launch with
/// `spread_straggler(steal|replicate)`.
pub(crate) struct Monitor {
    spread: Rc<TargetSpread>,
    kernel: Rc<KernelSpec>,
    policy: StragglerPolicy,
    beta: f64,
    t0: SimTime,
    /// Set once the first kernel completion arms the deadline.
    armed: Cell<bool>,
    watched: RefCell<Vec<Watched>>,
    /// Per device: exit ids of every construct placed on it (original
    /// or rescue), in placement order — rescues serialize after them.
    exits: RefCell<HashMap<u32, Vec<TaskId>>>,
    /// Iterations already rescued *onto* each device (load accounting
    /// for the least-loaded pick).
    rescue_load: RefCell<HashMap<u32, u64>>,
    /// Exits of launched rescues not yet handed to the blocking drain.
    pending_rescue_exits: RefCell<Vec<TaskId>>,
    /// Piece start → exit of the rescue that now owns the piece.
    rescued_by: RefCell<HashMap<usize, TaskId>>,
    /// Canary: force losing commits through (see
    /// [`crate::testing::TargetSpreadTestingExt`]).
    force_double: bool,
}

impl Monitor {
    pub(crate) fn new(spread: Rc<TargetSpread>, kernel: Rc<KernelSpec>, t0: SimTime) -> Rc<Self> {
        let policy = spread.straggler();
        let beta = spread.straggler_beta();
        let force_double = spread.force_rescue_double_commit();
        Rc::new(Monitor {
            spread,
            kernel,
            policy,
            beta,
            t0,
            armed: Cell::new(false),
            watched: RefCell::new(Vec::new()),
            exits: RefCell::new(HashMap::new()),
            rescue_load: RefCell::new(HashMap::new()),
            pending_rescue_exits: RefCell::new(Vec::new()),
            rescued_by: RefCell::new(HashMap::new()),
            force_double,
        })
    }

    /// Rescue exits launched since the last call (the blocking drain
    /// loops on this until it runs dry).
    pub(crate) fn take_rescue_exits(&self) -> Vec<TaskId> {
        std::mem::take(&mut *self.pending_rescue_exits.borrow_mut())
    }

    /// The exit of the rescue that owns the piece starting at `start`,
    /// if one was launched. One owner per piece: from then on the
    /// piece's results come from behind the rescue's commit gate, and
    /// `spread_resilience` must not rebuild it a second time.
    pub(crate) fn rescue_exit(&self, start: usize) -> Option<TaskId> {
        self.rescued_by.borrow().get(&start).copied()
    }

    /// First kernel completion arms the construct's progress deadline.
    fn kernel_finished(self: &Rc<Self>, s: &mut Scope<'_>) {
        if self.armed.get() {
            return;
        }
        self.armed.set(true);
        let span = (s.now() - self.t0).max(SimDuration::from_nanos(1));
        let deadline = self.t0 + span * self.beta;
        let m = Rc::clone(self);
        s.at(deadline, move |s| m.deadline(s));
    }

    /// The deadline: every piece whose kernel still has not finished is
    /// a straggler — rescue each one.
    fn deadline(self: Rc<Self>, s: &mut Scope<'_>) {
        let n = self.watched.borrow().len();
        for i in 0..n {
            let (device, start, len, ids, gate, rescued) = {
                let ws = self.watched.borrow();
                let w = &ws[i];
                (
                    w.device,
                    w.start,
                    w.len,
                    w.ids,
                    w.gate.clone(),
                    w.rescued.get(),
                )
            };
            // One owner per piece: a lost device's kernel never finishes
            // either, but that piece belongs to `spread_resilience` — its
            // replacement commits outside this gate, so a rescue would
            // commit a second copy.
            if rescued || s.is_task_finished(ids.kernel) || s.is_device_lost(device) {
                continue;
            }
            self.watched.borrow()[i].rescued.set(true);
            self.rescue(s, device, start, len, ids, gate);
        }
    }

    /// The least-loaded healthy sibling: lowest outstanding iteration
    /// count (own unfinished pieces + rescues already routed there),
    /// ties broken by `devices(…)` list order. Deterministic — every
    /// input is construct-launch state, never an event race.
    fn pick_target(&self, s: &Scope<'_>, from: u32) -> Option<u32> {
        let watched = self.watched.borrow();
        let rescue_load = self.rescue_load.borrow();
        let mut best: Option<(u64, u32)> = None;
        for &d in self.spread.device_list() {
            if d == from || s.is_device_lost(d) {
                continue;
            }
            let mut load: u64 = rescue_load.get(&d).copied().unwrap_or(0);
            for w in watched.iter() {
                if w.device == d && !s.is_task_finished(w.ids.exit) {
                    load += w.len as u64;
                }
            }
            if best.is_none_or(|(bl, _)| load < bl) {
                best = Some((load, d));
            }
        }
        best.map(|(_, d)| d)
    }

    /// Speculatively re-execute one straggling piece on a sibling.
    fn rescue(
        self: &Rc<Self>,
        s: &mut Scope<'_>,
        from: u32,
        start: usize,
        len: usize,
        ids: ConstructIds,
        gate: CommitGate,
    ) {
        let Some(to) = self.pick_target(s, from) else {
            // No healthy sibling — nothing to do but wait after all.
            return;
        };
        let stolen = self.policy == StragglerPolicy::Steal && s.cancel_kernel(from, ids.kernel);
        if stolen {
            gate.disqualify(0);
        }
        // The rescue's construct covers the same host sections as the
        // original; the commit gate (not task ordering) arbitrates the
        // host write, so the original's footprints must not read as a
        // race against the speculative copy.
        for id in ids.all() {
            s.forgive_task_footprints(id);
        }
        let idx = s.record_rescue(RescueRecord {
            start,
            len,
            from,
            to,
            winner: None,
            commits: 0,
            stolen,
        });
        gate.set_log_idx(idx);
        if self.force_double {
            gate.force_duplicate();
        }
        let preds = self.exits.borrow().get(&to).cloned().unwrap_or_default();
        let c = ChunkCtx::new(start, len);
        // No depend clauses on the rescue: it must *race* the original
        // construct, not queue behind its publishes; downstream
        // synchronization still goes through the original's exit.
        let t = self
            .spread
            .build_rescue_target(to, c)
            .commit_gate(gate, 1)
            .after(preds);
        match t.parallel_for_phases(s, start..start + len, self.kernel.clone()) {
            Ok(redo) => {
                self.exits
                    .borrow_mut()
                    .entry(to)
                    .or_default()
                    .push(redo.exit);
                *self.rescue_load.borrow_mut().entry(to).or_default() += len as u64;
                self.pending_rescue_exits.borrow_mut().push(redo.exit);
                self.rescued_by.borrow_mut().insert(start, redo.exit);
                if stolen {
                    // The cancelled kernel's completion will never fire;
                    // its device-side effects already ran at op start.
                    // Completing it lets the original exit run its
                    // (disqualified, cleanup-only) course.
                    s.force_complete(ids.kernel);
                }
            }
            Err(e) => s.fail(e),
        }
    }
}

/// Put one piece under the monitor's watch: remember its identity for
/// the deadline sweep and chain a probe on its kernel so the first
/// finisher arms the deadline.
pub(crate) fn watch(
    scope: &mut Scope<'_>,
    monitor: &Rc<Monitor>,
    device: u32,
    start: usize,
    len: usize,
    ids: ConstructIds,
    gate: CommitGate,
) {
    monitor.watched.borrow_mut().push(Watched {
        device,
        start,
        len,
        ids,
        gate,
        rescued: Cell::new(false),
    });
    monitor
        .exits
        .borrow_mut()
        .entry(device)
        .or_default()
        .push(ids.exit);
    let m = Rc::clone(monitor);
    scope.task_chained(
        format!("straggler-probe(dev{device})"),
        vec![ids.kernel],
        None,
        move |s| m.kernel_finished(s),
    );
}

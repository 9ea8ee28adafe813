//! The `spread_resilience(…)` clause: recovery from permanent device
//! loss inside a `target spread` construct.
//!
//! The paper's directives assume healthy devices; this module is the
//! robustness extension the fault-injection campaign exercises. A
//! resilient spread registers a recovery handler for every per-chunk
//! construct. When a device is permanently lost mid-run, each of its
//! in-flight chunks is rebuilt as a fresh enter→kernel→exit construct
//! on a surviving device (round-robin over the `devices(…)` list), and
//! the original construct's phases are neutralized so the runtime's
//! dependence cascade still releases downstream work in program order.
//!
//! Replacement constructs serialize after every construct already
//! placed on their survivor. That re-establishes the §V-B gap
//! condition by ordering rather than by spatial disjointness: the
//! survivor's own mappings are gone (exit done) before the replacement
//! re-maps sections that may overlap or extend them.
//!
//! Recovery routes around dead hardware, never around bugs: any task
//! failure other than "this construct's device is lost" still poisons
//! the runtime fail-stop.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use spread_rt::{ConstructIds, KernelSpec, RtError, Scope, TaskId};
use spread_trace::{Lane, SpanKind};

use crate::chunk::ChunkCtx;
use crate::straggler::Monitor;
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

/// Shared recovery state for one resilient spread launch.
pub(crate) struct Coordinator {
    spread: Rc<TargetSpread>,
    kernel: Rc<KernelSpec>,
    /// The construct's straggler monitor, when it has one: a piece it
    /// already rescued is not rebuilt here.
    monitor: Option<Rc<Monitor>>,
    /// Round-robin cursor over the device list for survivor picks.
    rr: Cell<usize>,
    /// Per device: exit ids of every construct placed on it (original
    /// or replacement), in placement order. Replacements serialize
    /// after all of them.
    exits: RefCell<HashMap<u32, Vec<TaskId>>>,
}

impl Coordinator {
    pub(crate) fn new(
        spread: Rc<TargetSpread>,
        kernel: Rc<KernelSpec>,
        monitor: Option<Rc<Monitor>>,
    ) -> Rc<Self> {
        Rc::new(Coordinator {
            spread,
            kernel,
            monitor,
            rr: Cell::new(0),
            exits: RefCell::new(HashMap::new()),
        })
    }

    /// Next live device in list order, or `None` if the whole
    /// `devices(…)` list is dead.
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

/// Put a per-chunk construct under the coordinator's protection:
/// remember its exit for serialization and register the recovery
/// handler for all three phases.
pub(crate) fn guard(
    scope: &mut Scope<'_>,
    coord: &Rc<Coordinator>,
    device: u32,
    start: usize,
    len: usize,
    ids: ConstructIds,
) {
    coord
        .exits
        .borrow_mut()
        .entry(device)
        .or_default()
        .push(ids.exit);
    let coord = Rc::clone(coord);
    scope.on_task_fault(&ids.all(), device, move |s, faulted, err| {
        recover(s, &coord, device, start, len, ids, faulted, err);
    });
}

/// The recovery handler: neutralize the dead construct, rebuild the
/// chunk on a survivor, and chain the original construct's completion
/// behind the replacement's exit.
#[allow(clippy::too_many_arguments)]
fn recover(
    s: &mut Scope<'_>,
    coord: &Rc<Coordinator>,
    dead: u32,
    start: usize,
    len: usize,
    ids: ConstructIds,
    faulted: TaskId,
    err: RtError,
) {
    // The faulted task's operation was aborted and the construct's
    // remaining phases must never touch the dead device. Erasing the
    // footprints keeps the race detector quiet about the replacement
    // covering the same sections.
    let retire_dead_construct = |s: &mut Scope<'_>| {
        s.forgive_task_footprints(faulted);
        for id in ids.all() {
            if id != faulted {
                s.neutralize_task(id);
            }
        }
    };
    // One owner per piece: a speculative copy the straggler monitor
    // already launched lands this piece's results through its commit
    // gate, so the dead construct only has to complete behind it.
    if let Some(rescue) = coord.monitor.as_ref().and_then(|m| m.rescue_exit(start)) {
        retire_dead_construct(s);
        s.task_chained(
            format!("spread-rescued-done(dev{dead})"),
            vec![rescue],
            None,
            move |s| s.force_complete(faulted),
        );
        return;
    }
    let Some(survivor) = coord.pick_survivor(s) else {
        // The whole devices(…) list is dead — nowhere left to route.
        s.fail(err);
        return;
    };
    retire_dead_construct(s);
    let now = s.now();
    s.trace().record(
        Lane::compute(survivor),
        SpanKind::Redistribute,
        format!("redo [{start}..{}) dev{dead}->dev{survivor}", start + len),
        now,
        now,
        0,
    );
    // Rebuild the construct on the survivor, serialized after every
    // construct already placed there (gap condition by ordering).
    let preds = coord
        .exits
        .borrow()
        .get(&survivor)
        .cloned()
        .unwrap_or_default();
    let c = ChunkCtx::new(start, len);
    let t = coord.spread.build_target(survivor, c).after(preds);
    match t.parallel_for_phases(s, start..start + len, coord.kernel.clone()) {
        Ok(redo) => {
            // Survivors can die too: the replacement is itself guarded.
            guard(s, coord, survivor, start, len, redo);
            // Only once the replacement's exit has landed the chunk's
            // results on the host may the original construct complete
            // and release its downstream dependences.
            s.task_chained(
                format!("spread-redo-done(dev{survivor})"),
                vec![redo.exit],
                None,
                move |s| s.force_complete(faulted),
            );
        }
        Err(e) => s.fail(e),
    }
}

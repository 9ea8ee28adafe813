//! The [`Runtime`]: simulator + devices + presence tables + task graph,
//! and the [`Scope`] through which programs issue directives.
//!
//! ## Blocking constructs and "recursive draining"
//!
//! The host program runs on the DES thread. A blocking construct
//! (`taskgroup`, `taskwait`, a directive without `nowait`) simply *drains*
//! the simulator — pops and executes events — until its wait condition
//! holds. Because host-task bodies execute inside simulator events and
//! receive a [`Scope`] of their own, a blocking construct inside a task
//! drains recursively: exactly the behaviour of a suspended OpenMP task
//! whose thread keeps scheduling other tasks. Everything stays
//! single-threaded and deterministic.
//!
//! ## Error model
//!
//! Mapping errors surface when the failing task *starts* in virtual time
//! (a `nowait` directive cannot fail at its pragma). The first error
//! poisons the runtime; every subsequent drain returns it.

use std::cell::{Cell, Ref, RefCell};
use std::ops::Range;
use std::rc::Rc;

use spread_devices::dma::{Direction, DmaOp};
use spread_devices::node::{DeviceHandle, Node};
use spread_devices::topology::Topology;
use spread_devices::{AllocId, DeviceMemory, FaultCtx, Fill, StoreCounts};
use spread_prng::FnvBuild;
use spread_sim::{
    FaultEventKind, FaultPlan, PlannedFault, RetryPolicy, SharedFlowNet, Simulator, TieBreak,
};
use spread_trace::{SimDuration, SimTime, Timeline, TraceRecorder};

use crate::error::RtError;
use crate::host::{HostArray, HostRegistry};
use crate::integrity::{IntegrityAction, IntegrityBoundary, IntegrityEvent, IntegrityMode};
use crate::kernel::{self, KernelSpec, ResolvedArg};
use crate::ledger::{PeerCopyRecord, RunEvent};
use crate::map::{MapClause, MapType};
use crate::mapping::{EnterDecision, EntryKey, ExitDecision, MapConflict, PresenceTable};
use crate::section::Section;
use crate::spare::Spares;
use crate::task::{GroupId, LiveCounts, RaceReport, TaskGraph, TaskId, TaskLabel, TaskSpec};
use crate::team::{HostCounters, Team};

/// Construction parameters for a [`Runtime`].
#[derive(Clone)]
pub struct RuntimeConfig {
    /// Machine description.
    pub topology: Topology,
    /// Host threads that execute kernel bodies (the real parallelism of
    /// the `teams distribute parallel for` level).
    pub team_threads: usize,
    /// Default `num_teams` for kernels that don't specify one.
    pub default_num_teams: u32,
    /// Default threads per team.
    pub default_threads_per_team: u32,
    /// Record trace spans (disable for benchmark speed).
    pub trace: bool,
    /// Allocation backpressure: when true, an enter-mapping that cannot
    /// allocate device memory *waits* for the next release instead of
    /// failing (a pooled-allocator runtime). When false (default), it
    /// fails with [`RtError::OutOfMemory`] like a raw `cudaMalloc`.
    pub alloc_backpressure: bool,
    /// How the simulator orders events that share a timestamp. The
    /// default is FIFO; `spread-check` injects seeded policies to fuzz
    /// over legal schedules.
    pub tie_break: TieBreak,
    /// Injected faults (`None` = the machine never fails). The plan's
    /// seed also drives retry-backoff jitter, so a `(program, config)`
    /// pair replays byte-identically.
    pub fault_plan: Option<FaultPlan>,
    /// Retry policy for transient copy errors.
    pub retry: RetryPolicy,
    /// Circuit breaker: this many *consecutive* transient faults on one
    /// device escalate to a permanent loss.
    pub breaker: u32,
    /// Watchdog on blocking drains: if a wait makes no progress past
    /// this much virtual time, it fails with [`RtError::Timeout`]
    /// instead of spinning (`None` = wait forever).
    pub watchdog: Option<SimDuration>,
    /// Size of the bounded host staging buffer used by the spill
    /// executor (the last rung of the memory-pressure ladder). A chunk
    /// whose device footprint exceeds this executes in multiple
    /// map→compute→unmap slices.
    pub spill_staging_bytes: u64,
    /// Serve launch plans from the plan cache (see
    /// [`plan_cache`](crate::plan_cache)). On by default — inert unless
    /// a construct opts in with a plan key. Disable to force every
    /// launch through the full planner (the cache-parity suite's cold
    /// leg).
    pub plan_cache: bool,
}

impl RuntimeConfig {
    /// A config for the given topology with sensible defaults.
    pub fn new(topology: Topology) -> Self {
        RuntimeConfig {
            topology,
            team_threads: 4,
            default_num_teams: 80,
            default_threads_per_team: 64,
            trace: true,
            alloc_backpressure: false,
            tie_break: TieBreak::Fifo,
            fault_plan: None,
            retry: RetryPolicy::default(),
            breaker: 8,
            watchdog: None,
            spill_staging_bytes: 1 << 20,
            plan_cache: true,
        }
    }

    /// Enable allocation backpressure (see the field docs).
    pub fn with_alloc_backpressure(mut self, on: bool) -> Self {
        self.alloc_backpressure = on;
        self
    }

    /// Set the host team size.
    pub fn with_team_threads(mut self, n: usize) -> Self {
        self.team_threads = n.max(1);
        self
    }

    /// Enable/disable trace recording.
    pub fn with_trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Set the simulator's equal-time event ordering policy.
    pub fn with_tie_break(mut self, tie_break: TieBreak) -> Self {
        self.tie_break = tie_break;
        self
    }

    /// Inject a fault plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Set the transient-copy retry policy.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Set the consecutive-fault circuit-breaker threshold.
    pub fn with_breaker(mut self, n: u32) -> Self {
        self.breaker = n.max(1);
        self
    }

    /// Arm the blocking-drain watchdog.
    pub fn with_watchdog(mut self, limit: SimDuration) -> Self {
        self.watchdog = Some(limit);
        self
    }

    /// Set the host spill staging-buffer size.
    pub fn with_spill_staging_bytes(mut self, bytes: u64) -> Self {
        self.spill_staging_bytes = bytes.max(8);
        self
    }

    /// Enable/disable the launch-plan cache.
    pub fn with_plan_cache(mut self, on: bool) -> Self {
        self.plan_cache = on;
        self
    }
}

/// What an action reports back to the scheduler.
pub(crate) enum Completion {
    /// The task is done; complete it now.
    Done,
    /// The action arranged for [`complete_task`] to be called later.
    Async,
}

/// What a task does when it starts in virtual time. The directive phases
/// are data; a host task's body, the spill executor and test actions are
/// closures.
pub(crate) enum Action {
    /// Map `maps` onto `device`: a `target enter data`, or the enter
    /// phase of a `target` construct. `pressure` selects the bounded
    /// retry ladder of a pressure-managed construct over backpressure
    /// parking.
    Enter {
        device: u32,
        maps: Rc<[MapClause]>,
        pressure: bool,
    },
    /// A construct's kernel phase.
    Kernel(KernelLaunch),
    /// Unmap the exit equivalents of `maps` from `device` (see
    /// [`MapType::on_exit`]): a `target exit data`, or the exit phase
    /// of a `target` construct.
    Exit {
        device: u32,
        maps: Rc<[MapClause]>,
        integrity: IntegrityMode,
        gate: Option<(crate::commit::CommitGate, u32)>,
    },
    /// `target update`: the `to(…)` items are `items[..n_to]`, the
    /// `from(…)` items the rest.
    Update {
        device: u32,
        items: Vec<Section>,
        n_to: usize,
        exchange: crate::directives::ExchangeMode,
        integrity: IntegrityMode,
    },
    /// A phase of a pipelined (`spread_overlap`) construct (see
    /// [`crate::overlap`]), boxed to keep the common variants, and every
    /// task slot, small.
    Pipelined(Box<Pipelined>),
    /// Anything else.
    Closure(TaskFn),
}

/// A closure [`Action`].
pub(crate) type TaskFn =
    Box<dyn FnOnce(&mut Simulator, &Rc<RefCell<Inner>>, TaskId) -> Result<Completion, RtError>>;

/// A pipelined construct's phase and the state its three phases share.
pub(crate) struct Pipelined {
    pub phase: PipePhase,
    pub launch: KernelLaunch,
    pub maps: Rc<[MapClause]>,
    pub integrity: IntegrityMode,
    pub gate: Option<(crate::commit::CommitGate, u32)>,
    pub pipe: Rc<crate::overlap::PipeState>,
}

/// The phases of a `target` construct.
#[derive(Clone, Copy)]
pub(crate) enum PipePhase {
    Enter,
    Kernel,
    Exit,
}

/// One kernel launch: `kernel` over `range` on `device`.
pub(crate) struct KernelLaunch {
    pub device: u32,
    pub range: Range<usize>,
    pub kernel: Rc<KernelSpec>,
    pub teams: u32,
    pub threads_per_team: u32,
}

impl Action {
    fn run(
        self,
        sim: &mut Simulator,
        inner_rc: &Rc<RefCell<Inner>>,
        id: TaskId,
    ) -> Result<Completion, RtError> {
        use crate::overlap::{pipelined_enter, pipelined_exit, pipelined_kernel};
        match self {
            Action::Enter {
                device,
                maps,
                pressure: true,
            } => pressure_enter(sim, inner_rc, id, device, maps, 0),
            Action::Enter { device, maps, .. } => {
                enter_with_backpressure(sim, inner_rc, id, device, maps)?
            }
            Action::Kernel(launch) => run_kernel(sim, inner_rc, id, &launch)?,
            Action::Exit {
                device,
                maps,
                integrity,
                gate,
            } => {
                let plan = inner_rc.borrow_mut().plan_exit(device, &maps)?;
                run_transfers_ex(
                    sim,
                    inner_rc,
                    id,
                    device,
                    Vec::new(),
                    Vec::new(),
                    plan.copies,
                    plan.to_free,
                    integrity,
                    gate,
                );
            }
            Action::Update {
                device,
                items,
                n_to,
                exchange,
                integrity,
            } => {
                let (to_copies, from_copies, routes) = {
                    let mut inner = inner_rc.borrow_mut();
                    let (to, from) = items.split_at(n_to);
                    let (to_copies, from_copies) = inner.plan_update(device, to, from)?;
                    let routes = inner.plan_peer_routes(device, exchange, &to_copies)?;
                    (to_copies, from_copies, routes)
                };
                run_transfers_ex(
                    sim,
                    inner_rc,
                    id,
                    device,
                    to_copies,
                    routes,
                    from_copies,
                    Vec::new(),
                    integrity,
                    None,
                );
            }
            Action::Pipelined(p) => {
                let Pipelined {
                    phase,
                    launch,
                    maps,
                    integrity,
                    gate,
                    pipe,
                } = *p;
                let device = launch.device;
                return match phase {
                    PipePhase::Enter => {
                        pipelined_enter(sim, inner_rc, id, device, maps, &launch.kernel, &pipe)
                    }
                    PipePhase::Kernel => {
                        pipelined_kernel(sim, inner_rc, id, &launch, &maps, integrity, &pipe)
                    }
                    PipePhase::Exit => {
                        pipelined_exit(sim, inner_rc, id, device, &maps, integrity, gate, &pipe)
                    }
                };
            }
            Action::Closure(f) => return f(sim, inner_rc, id),
        }
        Ok(Completion::Async)
    }
}

/// A fault handler shared by the tasks of one construct: fires at most
/// once (the `Option` is taken), receiving the faulted task and its
/// error in a fresh [`Scope`].
pub(crate) type RecoveryHandler =
    Rc<RefCell<Option<Box<dyn FnOnce(&mut Scope<'_>, TaskId, RtError)>>>>;

/// Which task failures a recovery handler registered with
/// [`Scope::on_task_failure`] covers. Every value covers the permanent
/// loss of the registered device; the other two add one error that a
/// *live* device can raise. Any failure outside the arms still poisons
/// the runtime — recovery routes around dead hardware and around the
/// failures a clause asked to absorb, never around bugs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arms {
    /// Only the loss of the device (`spread_resilience(redistribute)`).
    Loss,
    /// The loss, plus [`RtError::OutOfMemory`] once a pressure-managed
    /// enter exhausted its retries (`spread_pressure`): fragmentation
    /// can exhaust a healthy device.
    Oom,
    /// The loss, plus [`RtError::IntegrityViolation`] at a trust
    /// boundary (`spread_integrity(heal)`): the device is up and lying.
    Integrity,
}

impl Arms {
    /// Whether a task failing with `err`, its device `lost` or not,
    /// reaches the handler.
    fn cover(self, err: &RtError, lost: bool) -> bool {
        lost || match self {
            Arms::Loss => false,
            Arms::Oom => matches!(err, RtError::OutOfMemory { .. }),
            Arms::Integrity => matches!(err, RtError::IntegrityViolation { .. }),
        }
    }
}

/// Registration of a recovery handler for one task.
pub(crate) struct Recoverer {
    /// The device whose permanent loss this handler covers.
    pub(crate) device: u32,
    /// The failures the handler covers besides that loss.
    pub(crate) arms: Arms,
    pub(crate) handler: RecoveryHandler,
}

/// Shared mutable state of the runtime.
pub(crate) struct Inner {
    pub(crate) host: HostRegistry,
    pub(crate) devices: Vec<DeviceHandle>,
    /// One presence table per device.
    pub(crate) presence: Vec<PresenceTable>,
    pub(crate) graph: TaskGraph,
    pub(crate) current_parent: Option<TaskId>,
    pub(crate) current_group: Option<GroupId>,
    pub(crate) error: Option<RtError>,
    pub(crate) alloc_backpressure: bool,
    /// Enter tasks waiting for device memory: (device, task, maps).
    pub(crate) mem_waiters: Vec<(u32, TaskId, Rc<[MapClause]>)>,
    pub(crate) team: Rc<Team>,
    pub(crate) flownet: SharedFlowNet,
    pub(crate) trace: TraceRecorder,
    pub(crate) default_num_teams: u32,
    pub(crate) default_threads_per_team: u32,
    /// Shared fault arbitration (`None` = fault-free machine).
    pub(crate) fault: Option<FaultCtx>,
    /// Registered recovery handlers, keyed by task.
    pub(crate) recoverers: std::collections::HashMap<TaskId, Recoverer, FnvBuild>,
    /// Watchdog limit for blocking drains.
    pub(crate) watchdog: Option<SimDuration>,
    /// Bytes currently held on each device by the fault injector's
    /// pressure allocations (OOM spikes and sustained windows). These
    /// bytes sit inside the pool's `used` figure, but
    /// [`FaultCtx::oom_outstanding`] already forecasts them — headroom
    /// queries subtract this to avoid double counting.
    pub(crate) injector_live: Vec<u64>,
    /// The run ledger: every recorded decision, in recording order
    /// (see [`crate::ledger`]).
    pub(crate) events: Vec<RunEvent>,
    /// Retry policy reused for pressure-managed enter backoff.
    pub(crate) retry: RetryPolicy,
    /// Host staging-buffer bound for the spill executor.
    pub(crate) spill_staging_bytes: u64,
    /// Keyed adaptive-schedule state (`spread_schedule(auto)`).
    pub(crate) profiles: crate::profile::ProfileStore,
    /// Live transfer sets that stage D2H snapshots (each knows its
    /// device): the at-rest corruption surface. A
    /// [`MemoryScribble`](PlannedFault::MemoryScribble) flips one bit in
    /// the first non-empty staged snapshot it finds here — the window
    /// between a D2H's eager device read and its commit into host
    /// memory. Dead weak handles are pruned on insert.
    pub(crate) staged_registry: Vec<std::rc::Weak<TransferSet>>,
    /// Launch plans of keyed constructs, invalidated wholesale by the
    /// topology epoch (see [`plan_cache`](crate::plan_cache)).
    pub(crate) plan_cache: crate::plan_cache::PlanCache,
    /// Kernel-binding vectors reused across launches.
    pub(crate) bind: Rc<RefCell<kernel::BindScratch>>,
    /// Plan and transfer-set vectors reused across constructs.
    pub(crate) spare: PlanSpare,
}

impl Inner {
    /// Validate a device id: it must exist and still be alive. The
    /// liveness check is the central fail-stop interception point —
    /// every planner (`plan_enter`, `plan_exit`, `plan_update`,
    /// `run_kernel`) goes through here, so a directive issued against a
    /// dead device fails with [`RtError::DeviceLost`] at task start.
    pub(crate) fn check_device(&self, device: u32) -> Result<(), RtError> {
        if (device as usize) >= self.devices.len() {
            return Err(RtError::InvalidDirective(format!(
                "device {device} does not exist (node has {})",
                self.devices.len()
            )));
        }
        if let Some(ctx) = &self.fault {
            if ctx.is_lost(device) {
                return Err(RtError::DeviceLost {
                    device,
                    what: "a directive targeting it".into(),
                });
            }
        }
        Ok(())
    }

    /// Resolve `kernel`'s arguments over `range` against `device`'s
    /// presence table into `out`.
    pub(crate) fn resolve_args(
        &self,
        device: u32,
        kernel: &KernelSpec,
        range: &Range<usize>,
        out: &mut Vec<ResolvedArg>,
    ) -> Result<(), RtError> {
        self.check_device(device)?;
        let table = &self.presence[device as usize];
        for arg in &kernel.args {
            let sec = Section::from_range(arg.array.id(), (arg.section_of)(range.clone()));
            let Some((_, entry)) = table.lookup_containing(&sec) else {
                return Err(RtError::KernelSectionMissing {
                    device,
                    kernel: kernel.name.clone(),
                    requested: sec,
                });
            };
            out.push(ResolvedArg {
                alloc: entry.alloc,
                entry_start: entry.section.start,
                entry_len: entry.section.len,
                access: arg.access,
                section_of: std::sync::Arc::clone(&arg.section_of),
            });
        }
        Ok(())
    }
}

/// One planned copy between host and a device buffer.
pub(crate) struct CopyPlanItem {
    pub section: Section,
    pub alloc: AllocId,
    /// Element offset of `section.start` within the device buffer.
    pub offset: usize,
    pub label: CopyLabel,
}

/// What a copy is called in its trace span and its fault text —
/// `A H2D arr0[0:32]`, `p2p[0->1] A upd-to arr0[0:32]`,
/// `A H2D[p1/2] arr0[0:16]` — kept as its parts and rendered only when
/// read (see [`span_label`]).
#[derive(Clone)]
pub(crate) struct CopyLabel {
    pub array: Rc<str>,
    pub kind: CopyKind,
    pub section: Section,
    pub route: CopyRoute,
}

/// The direction word of a [`CopyLabel`].
#[derive(Clone, Copy)]
pub(crate) enum CopyKind {
    H2D,
    D2H,
    UpdateTo,
    UpdateFrom,
    /// Stage `stage` (1-based) of `of` of a pipelined copy.
    Stage {
        out: bool,
        stage: usize,
        of: usize,
    },
}

/// How a [`CopyLabel`]'s bytes travel.
#[derive(Clone, Copy)]
pub(crate) enum CopyRoute {
    Host,
    /// Pulled device-to-device from `src` by `dst`.
    Peer {
        src: u32,
        dst: u32,
    },
    /// A diverted or healed peer pull replayed over the host path.
    HostFallback,
}

impl CopyLabel {
    pub(crate) fn new(array: Rc<str>, kind: CopyKind, section: Section) -> Self {
        CopyLabel {
            array,
            kind,
            section,
            route: CopyRoute::Host,
        }
    }

    /// The same copy travelling by `route`.
    pub(crate) fn via(&self, route: CopyRoute) -> Self {
        CopyLabel {
            route,
            ..self.clone()
        }
    }
}

impl std::fmt::Display for CopyLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let CopyRoute::Peer { src, dst } = self.route {
            write!(f, "p2p[{src}->{dst}] ")?;
        }
        write!(f, "{} ", self.array)?;
        match self.kind {
            CopyKind::H2D => f.write_str("H2D")?,
            CopyKind::D2H => f.write_str("D2H")?,
            CopyKind::UpdateTo => f.write_str("upd-to")?,
            CopyKind::UpdateFrom => f.write_str("upd-from")?,
            CopyKind::Stage { out, stage, of } => {
                let dir = if out { "D2H" } else { "H2D" };
                write!(f, "{dir}[p{stage}/{of}]")?;
            }
        }
        write!(f, " {}", self.section)?;
        if let CopyRoute::HostFallback = self.route {
            f.write_str(" (host fallback)")?;
        }
        Ok(())
    }
}

/// The label a span records for `what`: rendered when the run's recorder
/// keeps spans, empty otherwise — nothing will read it. (A recorder
/// switched on mid-construct records the ops planned while it was off
/// with empty labels.)
pub(crate) fn span_label(trace: &TraceRecorder, what: &dyn std::fmt::Display) -> String {
    if trace.is_enabled() {
        what.to_string()
    } else {
        String::new()
    }
}

/// Emptied vectors of finished plans and transfer sets, reused by the
/// next ones, and [`Inner::plan_enter`]'s undo log.
#[derive(Default)]
pub(crate) struct PlanSpare {
    pub(crate) copies: Spares<CopyPlanItem>,
    pub(crate) keys: Spares<EntryKey>,
    pub(crate) staged: Spares<StagedWrite>,
    undo: Vec<(Section, bool)>,
}

/// Result of planning an enter-mapping set.
pub(crate) struct EnterPlan {
    pub copies: Vec<CopyPlanItem>,
}

/// Result of planning an exit-mapping set.
pub(crate) struct ExitPlan {
    pub copies: Vec<CopyPlanItem>,
    pub to_free: Vec<EntryKey>,
}

impl Inner {
    fn conflict_to_error(&self, device: u32, requested: Section, c: MapConflict) -> RtError {
        match c {
            MapConflict::Extension { present } => RtError::OverlapExtension {
                device,
                requested,
                present,
            },
            MapConflict::NotMapped => RtError::NotMapped { device, requested },
        }
    }

    /// Apply the enter half of a map set: presence bookkeeping +
    /// allocation, returning the copies to perform.
    ///
    /// Transactional: on any error, bookkeeping performed for earlier
    /// map items is rolled back, so a failed plan can be retried (the
    /// allocation-backpressure path re-runs it after a release).
    pub(crate) fn plan_enter(
        &mut self,
        device: u32,
        maps: &[MapClause],
    ) -> Result<EnterPlan, RtError> {
        self.check_device(device)?;
        let d = device as usize;
        let mut copies = self.spare.copies.take();
        // Undo log: `(section, fresh)` — a reused entry's reference to
        // drop, or a fresh insert to force-release.
        let mut undo = std::mem::take(&mut self.spare.undo);
        let planned = self.enter_each(device, maps, &mut copies, &mut undo);
        if planned.is_err() {
            self.rollback_enter(d, &undo);
        }
        undo.clear();
        self.spare.undo = undo;
        planned.map(|()| EnterPlan { copies })
    }

    /// [`Self::plan_enter`]'s work, logging what a rollback must undo.
    fn enter_each(
        &mut self,
        device: u32,
        maps: &[MapClause],
        copies: &mut Vec<CopyPlanItem>,
        undo: &mut Vec<(Section, bool)>,
    ) -> Result<(), RtError> {
        let d = device as usize;
        for m in maps {
            if !m.map_type.valid_on_enter() && m.map_type != MapType::From {
                return Err(RtError::InvalidDirective(format!(
                    "map type {:?} is not valid when entering a mapping",
                    m.map_type
                )));
            }
            if m.section.is_empty() {
                continue;
            }
            let decision = self.presence[d]
                .begin_enter(m.section)
                .map_err(|c| self.conflict_to_error(device, m.section, c))?;
            match decision {
                EnterDecision::Reuse(_) => undo.push((m.section, false)),
                EnterDecision::Fresh => {
                    // A copy-in overwrites the whole allocation (offset 0,
                    // full section) before the kernel can read it.
                    let fill = if m.map_type.copies_in() {
                        Fill::Overwritten
                    } else {
                        Fill::Zero
                    };
                    let alloc = self.devices[d]
                        .mem
                        .borrow_mut()
                        .alloc_filled(m.section.len, fill)
                        .map_err(|oom| RtError::OutOfMemory {
                            device,
                            requested: m.section,
                            bytes: oom.requested,
                            free: oom.free,
                        })?;
                    self.presence[d].insert_fresh(m.section, alloc);
                    undo.push((m.section, true));
                    if m.map_type.copies_in() {
                        copies.push(CopyPlanItem {
                            section: m.section,
                            alloc,
                            offset: 0,
                            label: self.copy_label(CopyKind::H2D, m.section),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Undo the bookkeeping of a partially applied enter-plan: drop the
    /// extra reference on every reused entry, then force-release every
    /// fresh insert.
    fn rollback_enter(&mut self, d: usize, undo: &[(Section, bool)]) {
        let reused = undo.iter().filter(|(_, fresh)| !fresh);
        for (s, delete) in reused.chain(undo.iter().filter(|(_, fresh)| *fresh)) {
            match self.presence[d].begin_exit(s, *delete) {
                Ok(ExitDecision::Keep(_)) => {}
                Ok(ExitDecision::LastRef(key)) => {
                    self.release_dying(d, &[key]);
                }
                Err(_) => unreachable!("undoing a mapping we just made"),
            }
        }
    }

    /// Remove the dying entries `keys` from device `d`'s table and free
    /// their storage (an entry a device-loss wipe already dropped is
    /// skipped). True when there was anything to release.
    fn release_dying(&mut self, d: usize, keys: &[EntryKey]) -> bool {
        for &key in keys {
            if let Some(alloc) = self.presence[d].finish_exit(key) {
                self.devices[d].mem.borrow_mut().dealloc(alloc);
            }
        }
        !keys.is_empty()
    }

    /// Apply the exit half of a map set: each map's
    /// [`MapType::on_exit`].
    pub(crate) fn plan_exit(
        &mut self,
        device: u32,
        maps: &[MapClause],
    ) -> Result<ExitPlan, RtError> {
        self.check_device(device)?;
        let mut copies = self.spare.copies.take();
        let mut to_free = self.spare.keys.take();
        for m in maps {
            if m.section.is_empty() {
                continue;
            }
            let map_type = m.map_type.on_exit();
            let d = device as usize;
            let decision = self.presence[d]
                .begin_exit(&m.section, map_type == MapType::Delete)
                .map_err(|c| self.conflict_to_error(device, m.section, c))?;
            match decision {
                ExitDecision::Keep(_) => {}
                ExitDecision::LastRef(key) => {
                    if map_type.copies_out() {
                        let entry = self.presence[d].entry(key).expect("dying entry");
                        copies.push(CopyPlanItem {
                            section: m.section,
                            alloc: entry.alloc,
                            offset: m.section.start - entry.section.start,
                            label: self.copy_label(CopyKind::D2H, m.section),
                        });
                    }
                    to_free.push(key);
                }
            }
        }
        Ok(ExitPlan { copies, to_free })
    }

    /// Plan a `target update` copy set: sections must be present.
    pub(crate) fn plan_update(
        &mut self,
        device: u32,
        to_items: &[Section],
        from_items: &[Section],
    ) -> Result<(Vec<CopyPlanItem>, Vec<CopyPlanItem>), RtError> {
        self.check_device(device)?;
        let d = device as usize;
        let (mut to, mut from) = (self.spare.copies.take(), self.spare.copies.take());
        let plan = |items: &[Section],
                    kind: CopyKind,
                    out: &mut Vec<CopyPlanItem>|
         -> Result<(), RtError> {
            for &s in items {
                if s.is_empty() {
                    continue;
                }
                let Some((_, entry)) = self.presence[d].lookup_containing(&s) else {
                    return Err(RtError::NotMapped {
                        device,
                        requested: s,
                    });
                };
                out.push(CopyPlanItem {
                    section: s,
                    alloc: entry.alloc,
                    offset: s.start - entry.section.start,
                    label: self.copy_label(kind, s),
                });
            }
            Ok(())
        };
        plan(to_items, CopyKind::UpdateTo, &mut to)?;
        plan(from_items, CopyKind::UpdateFrom, &mut from)?;
        Ok((to, from))
    }

    /// The label of a `kind` copy of `section`.
    pub(crate) fn copy_label(&self, kind: CopyKind, section: Section) -> CopyLabel {
        CopyLabel::new(self.host.shared_name(section.array), kind, section)
    }

    /// The eligible peer source for a to-copy of `sec` onto `device`:
    /// the lowest-numbered sibling that is alive, holds a presence
    /// entry containing `sec`, and whose device bytes over `sec` are
    /// bit-equal to the host image. Bit-equality is what makes a peer
    /// pull observationally identical to the host copy it replaces —
    /// and what lets the conformance oracle replicate this rule
    /// exactly (ascending scan, first match wins).
    pub(crate) fn peer_source_for(&self, device: u32, sec: &Section) -> Option<u32> {
        let host = self.host.storage(sec.array);
        let host = host.borrow();
        for (sd, table) in self.presence.iter().enumerate() {
            let src = sd as u32;
            if src == device || self.fault.as_ref().is_some_and(|ctx| ctx.is_lost(src)) {
                continue;
            }
            let Some((_, entry)) = table.lookup_containing(sec) else {
                continue;
            };
            let off = sec.start - entry.section.start;
            let smem = self.devices[sd].mem.borrow();
            let sbuf = &smem.buffer(entry.alloc)[off..off + sec.len];
            if sbuf
                .iter()
                .zip(&host[sec.range()])
                .all(|(a, b)| a.to_bits() == b.to_bits())
            {
                return Some(src);
            }
        }
        None
    }

    /// Resolve an `exchange(…)` clause into a per-to-copy route:
    /// `Some(src)` pulls device-to-device, `None` goes over the host
    /// bus. `exchange(peer)` demands a source for every copy and
    /// rejects the directive otherwise.
    pub(crate) fn plan_peer_routes(
        &self,
        device: u32,
        mode: crate::directives::ExchangeMode,
        to_copies: &[CopyPlanItem],
    ) -> Result<Vec<Option<u32>>, RtError> {
        use crate::directives::ExchangeMode;
        match mode {
            ExchangeMode::Host => Ok(vec![None; to_copies.len()]),
            ExchangeMode::Auto => Ok(to_copies
                .iter()
                .map(|c| self.peer_source_for(device, &c.section))
                .collect()),
            ExchangeMode::Peer => {
                if self.devices.len() < 2 {
                    return Err(RtError::InvalidDirective(
                        "exchange(peer) requires at least two devices".into(),
                    ));
                }
                to_copies
                    .iter()
                    .map(|c| {
                        self.peer_source_for(device, &c.section)
                            .map(Some)
                            .ok_or_else(|| {
                                RtError::InvalidDirective(format!(
                                    "exchange(peer): no eligible peer source for {} on device {device}",
                                    c.section
                                ))
                            })
                    })
                    .collect()
            }
        }
    }
}

/// Run an enter-mapping task's work: plan (with rollback), then either
/// stream the copies or — with allocation backpressure on — park the
/// task until a release frees device memory.
pub(crate) fn enter_with_backpressure(
    sim: &mut Simulator,
    inner_rc: &Rc<RefCell<Inner>>,
    id: TaskId,
    device: u32,
    maps: Rc<[MapClause]>,
) -> Result<(), RtError> {
    let planned = {
        let mut inner = inner_rc.borrow_mut();
        match inner.plan_enter(device, &maps) {
            Ok(plan) => Some(plan),
            Err(e @ RtError::OutOfMemory { .. }) if inner.alloc_backpressure => {
                inner.mem_waiters.push((device, id, maps));
                let _ = e;
                None
            }
            Err(e) => return Err(e),
        }
    };
    if let Some(plan) = planned {
        run_transfers(
            sim,
            inner_rc,
            id,
            device,
            plan.copies,
            Vec::new(),
            Vec::new(),
        );
    }
    Ok(())
}

/// After device memory was released on `device`, retry parked enter
/// tasks (FIFO; stops at the first that still does not fit).
pub(crate) fn retry_mem_waiters(sim: &mut Simulator, inner_rc: &Rc<RefCell<Inner>>, device: u32) {
    loop {
        let next = {
            let mut inner = inner_rc.borrow_mut();
            let pos = inner.mem_waiters.iter().position(|(d, _, _)| *d == device);
            pos.map(|p| inner.mem_waiters.remove(p))
        };
        let Some((d, id, maps)) = next else { return };
        let before = inner_rc.borrow().mem_waiters.len();
        if let Err(e) = enter_with_backpressure(sim, inner_rc, id, d, maps) {
            inner_rc.borrow_mut().error.get_or_insert(e);
            return;
        }
        // If it re-parked itself, memory is still too tight: stop (FIFO
        // fairness; the next release will retry again).
        if inner_rc.borrow().mem_waiters.len() > before {
            return;
        }
    }
}

/// Run a pressure-managed enter-mapping task: like
/// [`enter_with_backpressure`], but an [`RtError::OutOfMemory`] is
/// retried a bounded number of times (sim-scheduled backoff, so an
/// expiring OOM spike can clear) instead of parking indefinitely on
/// `mem_waiters`. When retries are exhausted the task *fails* with the
/// OOM, which routes it to the construct's registered pressure
/// recoverer (split or spill). Never returns an error: every outcome is
/// delivered through the task graph.
pub(crate) fn pressure_enter(
    sim: &mut Simulator,
    inner_rc: &Rc<RefCell<Inner>>,
    id: TaskId,
    device: u32,
    maps: Rc<[MapClause]>,
    attempt: u32,
) {
    if inner_rc.borrow().error.is_some() {
        return;
    }
    let planned = inner_rc.borrow_mut().plan_enter(device, &maps);
    match planned {
        Ok(plan) => run_transfers(
            sim,
            inner_rc,
            id,
            device,
            plan.copies,
            Vec::new(),
            Vec::new(),
        ),
        Err(e @ RtError::OutOfMemory { .. }) => {
            let (max_retries, backoff) = {
                let inner = inner_rc.borrow();
                let retry = inner.retry;
                let backoff = match &inner.fault {
                    // With a fault context, draw from the run's single
                    // seeded PRNG (same stream as transient-copy
                    // backoff) so replays stay byte-identical.
                    Some(ctx) => ctx.backoff(attempt),
                    // Without one there is nothing to race against:
                    // a jitter-free exponential is fully deterministic.
                    None => retry.backoff_unjittered(attempt),
                };
                (retry.max_retries, backoff)
            };
            if attempt >= max_retries {
                task_failed(sim, inner_rc, id, e);
                return;
            }
            let weak = Rc::downgrade(inner_rc);
            let at = sim.now() + backoff;
            sim.schedule_at(
                at,
                Box::new(move |sim| {
                    if let Some(rc) = weak.upgrade() {
                        pressure_enter(sim, &rc, id, device, maps, attempt + 1);
                    }
                }),
            );
        }
        Err(e) => task_failed(sim, inner_rc, id, e),
    }
}

/// Schedule a task's start event at the current instant.
pub(crate) fn schedule_start(sim: &mut Simulator, inner_rc: &Rc<RefCell<Inner>>, id: TaskId) {
    let rc = Rc::clone(inner_rc);
    sim.schedule_now(Box::new(move |sim| start_task(sim, &rc, id)));
}

/// Fire a task: mark running, run its action, handle the outcome.
pub(crate) fn start_task(sim: &mut Simulator, inner_rc: &Rc<RefCell<Inner>>, id: TaskId) {
    let action = {
        let mut inner = inner_rc.borrow_mut();
        if inner.error.is_some() {
            return;
        }
        inner.graph.start(id);
        inner.graph.take_action(id)
    };
    match action {
        None => complete_task(sim, inner_rc, id),
        Some(action) => match action.run(sim, inner_rc, id) {
            Ok(Completion::Done) => complete_task(sim, inner_rc, id),
            Ok(Completion::Async) => {}
            Err(e) => task_failed(sim, inner_rc, id, e),
        },
    }
}

/// Route a task failure: if the task has a registered recovery handler
/// whose [`Arms`] cover the error, the handler runs (once) with a fresh
/// [`Scope`] — it is responsible for eventually completing the faulted
/// task. Every other failure poisons the runtime (fail-stop, the
/// default).
pub(crate) fn task_failed(
    sim: &mut Simulator,
    inner_rc: &Rc<RefCell<Inner>>,
    id: TaskId,
    err: RtError,
) {
    let handler = {
        let inner = inner_rc.borrow();
        inner.recoverers.get(&id).and_then(|r| {
            let lost = inner
                .fault
                .as_ref()
                .is_some_and(|ctx| ctx.is_lost(r.device));
            if r.arms.cover(&err, lost) {
                r.handler.borrow_mut().take()
            } else {
                None
            }
        })
    };
    match handler {
        Some(h) => {
            let mut scope = Scope {
                sim,
                inner: inner_rc,
            };
            h(&mut scope, id, err);
        }
        None => {
            inner_rc.borrow_mut().error.get_or_insert(err);
        }
    }
}

/// Cleanup after a permanent device loss (runs as a [`FaultCtx`] hook):
/// the device's memory contents are gone, so every mapping on it is
/// wiped and its allocator reset; enter tasks parked on its memory can
/// never be satisfied and fail with [`RtError::DeviceLost`].
pub(crate) fn device_lost_cleanup(sim: &mut Simulator, inner_rc: &Rc<RefCell<Inner>>, device: u32) {
    let stranded = {
        let mut inner = inner_rc.borrow_mut();
        let d = device as usize;
        inner.presence[d].clear();
        // The topology changed: any cached launch plan placing work on
        // this device is now wrong. Covers integrity-breaker quarantine
        // too — quarantine routes through `mark_lost` into this hook.
        inner.plan_cache.bump_epoch();
        let capacity = inner.devices[d].mem.borrow().pool().capacity();
        *inner.devices[d].mem.borrow_mut() = DeviceMemory::new(capacity);
        let mut stranded = Vec::new();
        inner.mem_waiters.retain(|(dd, id, _)| {
            let mine = *dd == device;
            if mine {
                stranded.push(*id);
            }
            !mine
        });
        stranded
    };
    for id in stranded {
        task_failed(
            sim,
            inner_rc,
            id,
            RtError::DeviceLost {
                device,
                what: "a mapping parked for device memory".into(),
            },
        );
    }
}

/// Mark a task finished; schedule newly ready successors.
pub(crate) fn complete_task(sim: &mut Simulator, inner_rc: &Rc<RefCell<Inner>>, id: TaskId) {
    let mut inner = inner_rc.borrow_mut();
    // A finished task can no longer fail: release its handler (and
    // everything the closure captured).
    inner.recoverers.remove(&id);
    // Scheduling a start only queues an event: the graph stays borrowed.
    for &t in inner.graph.finish(id) {
        schedule_start(sim, inner_rc, t);
    }
}

/// One device→host copy of a transfer set, written to host memory only
/// at the set's commit drain, and only if the whole set succeeded.
pub(crate) enum StagedWrite {
    /// The device bytes as the DMA engine read them at the copy's
    /// virtual start. `crc` is their source-side CRC32C (taken before
    /// anything can rot in flight or at rest), `None` under
    /// `spread_integrity(off)`.
    Snapshot {
        store: Rc<RefCell<Vec<f64>>>,
        section: Section,
        data: Vec<f64>,
        crc: Option<u32>,
    },
    /// Read at the drain from the still-allocated dying entry (see
    /// [`stages_d2h`]): the bytes cannot have changed since the copy
    /// started.
    Deferred {
        store: Rc<RefCell<Vec<f64>>>,
        section: Section,
        alloc: AllocId,
        offset: usize,
    },
}

impl StagedWrite {
    pub(crate) fn section(&self) -> Section {
        match self {
            StagedWrite::Snapshot { section, .. } | StagedWrite::Deferred { section, .. } => {
                *section
            }
        }
    }

    /// The snapshot's bytes — what in-flight and at-rest corruption can
    /// reach.
    pub(crate) fn snapshot_mut(&mut self) -> Option<&mut Vec<f64>> {
        match self {
            StagedWrite::Snapshot { data, .. } => Some(data),
            StagedWrite::Deferred { .. } => None,
        }
    }

    /// Write the copy to host memory on `team`. `mem` is the source
    /// device's memory.
    pub(crate) fn commit(self, mem: &DeviceMemory, team: &Team) {
        let (store, section, bytes) = match &self {
            StagedWrite::Snapshot {
                store,
                section,
                data,
                ..
            } => (store, section, data.as_slice()),
            StagedWrite::Deferred {
                store,
                section,
                alloc,
                offset,
            } => (
                store,
                section,
                &mem.buffer(*alloc)[*offset..*offset + section.len],
            ),
        };
        team.d2h(&mut store.borrow_mut()[section.range()], bytes);
    }
}

/// Whether a transfer set snapshots its D2H bytes at each copy's start
/// ([`StagedWrite::Snapshot`]) instead of reading them once from the
/// device at its commit drain ([`StagedWrite::Deferred`]).
///
/// A snapshot is needed only where something can reject, heal, race or
/// replay the write after the copy started: a commit gate (straggler
/// arbitration), digests (`spread_integrity(verify|heal)`), or any fault
/// plan — loss, flips, scribbles, transients and OOM all act between a
/// copy's start and its commit. And only an exit set (`releases`) copies
/// from entries it is releasing: a dying entry is unavailable to new
/// mappings and to kernel binding, so its device bytes cannot change
/// before the drain frees it. An update set copies from live entries and
/// always snapshots.
pub(crate) fn stages_d2h(
    inner: &Inner,
    releases: bool,
    integrity: IntegrityMode,
    gate: &Option<(crate::commit::CommitGate, u32)>,
) -> bool {
    !releases || gate.is_some() || integrity.checks() || inner.fault.is_some()
}

/// Flip the lowest mantissa bit of `data[0]` — the canonical injected
/// single-bit corruption. Chosen so the damage is value-visible but
/// tiny: exactly what end-to-end checksums exist to catch and what
/// value-level sanity checks miss.
/// Flip the top exponent bit of the payload's first element. A single
/// low-mantissa flip of a near-zero value washes out as a sub-ulp
/// wobble the next accumulation absorbs; rescaling the exponent makes
/// the rot orders of magnitude wrong (even 0.0 becomes 2.0), so
/// unchecked corruption stays visible all the way to a reduced result —
/// the worst case an end-to-end checksum has to catch.
pub(crate) fn flip_one_bit(data: &mut [f64]) {
    if let Some(v) = data.first_mut() {
        *v = f64::from_bits(v.to_bits() ^ (1u64 << 62));
    }
}

/// Apply a planned [`MemoryScribble`](PlannedFault::MemoryScribble):
/// flip one bit in the first non-empty staged D2H snapshot currently
/// pending commit for `device`. Inert when nothing is staged at the
/// planned instant — at-rest corruption needs bytes at rest.
pub(crate) fn scribble_staged(inner_rc: &Rc<RefCell<Inner>>, device: u32) {
    let inner = inner_rc.borrow();
    for weak in &inner.staged_registry {
        let Some(set) = weak.upgrade() else {
            continue;
        };
        if set.device != device {
            continue;
        }
        let mut staged = set.staged.borrow_mut();
        if let Some(data) = staged
            .iter_mut()
            .filter_map(StagedWrite::snapshot_mut)
            .find(|data| !data.is_empty())
        {
            flip_one_bit(data);
            return;
        }
    }
}

/// One transfer set's shared record, held by every copy of the set: the
/// copies still in flight, the first error any of them hit, the D2H
/// copies staged for the commit drain and — once known — the drain's
/// arguments. The pipelined overlap path keeps its enter and its exit
/// copies in one such record each.
pub(crate) struct TransferSet {
    /// The device the set's copies run on.
    pub(crate) device: u32,
    remaining: Cell<usize>,
    pub(crate) failed: RefCell<Option<RtError>>,
    pub(crate) staged: RefCell<Vec<StagedWrite>>,
    commit: RefCell<Option<CommitArgs>>,
}

/// What a transfer set's commit drain needs besides the set itself.
pub(crate) struct CommitArgs {
    /// The task the drain completes or fails.
    pub task: TaskId,
    /// The dying presence entries the drain releases.
    pub to_free: Vec<EntryKey>,
    pub integrity: IntegrityMode,
    pub gate: Option<(crate::commit::CommitGate, u32)>,
}

impl TransferSet {
    /// A set of `remaining` copies on `device`, its drain armed with
    /// `commit` (or armed later, see [`TransferSet::arm`]).
    pub(crate) fn new(device: u32, remaining: usize, commit: Option<CommitArgs>) -> Self {
        TransferSet {
            device,
            remaining: Cell::new(remaining),
            failed: RefCell::new(None),
            staged: RefCell::new(Vec::new()),
            commit: RefCell::new(commit),
        }
    }

    /// Copies still in flight.
    pub(crate) fn remaining(&self) -> usize {
        self.remaining.get()
    }

    /// Count `n` more copies in flight.
    pub(crate) fn add(&self, n: usize) {
        self.remaining.set(self.remaining.get() + n);
    }

    /// Count one copy as done; true when none remain.
    pub(crate) fn one_done(&self) -> bool {
        self.remaining.set(self.remaining.get().saturating_sub(1));
        self.remaining.get() == 0
    }

    /// Record `err` unless an earlier copy already failed.
    pub(crate) fn fail(&self, err: RtError) {
        self.failed.borrow_mut().get_or_insert(err);
    }

    /// Arm the commit drain.
    pub(crate) fn arm(&self, args: CommitArgs) {
        *self.commit.borrow_mut() = Some(args);
    }

    /// The drain's arguments, once: `None` before the drain is armed and
    /// after it ran.
    pub(crate) fn take_commit(&self) -> Option<CommitArgs> {
        self.commit.borrow_mut().take()
    }
}

/// Enqueue a set of planned copies as DMA operations; when all complete,
/// run the cleanup (presence removal + dealloc for exits) and complete
/// the task.
///
/// D2H copies are *staged*: host memory is only written at the set's
/// commit drain, once every copy of the set has succeeded. If any copy
/// faults (a device dying mid-exit), the host keeps its old data
/// wholesale — a recovery handler can then replay the construct from an
/// unharmed host image instead of one with a half-written mix. For
/// race-free programs this is observationally equivalent to eager host
/// writes, because dependent tasks only start after the transfer task
/// completes. Where a fault plan, digest or commit gate could reject the
/// write, each copy snapshots the device bytes at its virtual start;
/// otherwise the drain reads them once from the dying entry (see
/// [`stages_d2h`]), so each D2H byte is written to the host once.
pub(crate) fn run_transfers(
    sim: &mut Simulator,
    inner_rc: &Rc<RefCell<Inner>>,
    task: TaskId,
    device: u32,
    in_copies: Vec<CopyPlanItem>,
    out_copies: Vec<CopyPlanItem>,
    to_free: Vec<EntryKey>,
) {
    run_transfers_ex(
        sim,
        inner_rc,
        task,
        device,
        in_copies,
        Vec::new(),
        out_copies,
        to_free,
        IntegrityMode::Off,
        None,
    );
}

/// Count one copy of a set as done; the last one runs the set's drain.
fn transfer_done(sim: &mut Simulator, inner_rc: &Rc<RefCell<Inner>>, set: &TransferSet) {
    if set.one_done() {
        if let Some(args) = set.take_commit() {
            staged_commit_finish(sim, inner_rc, set, args);
        }
    }
}

/// The runtime error a device fault means for the operation `what`.
pub(crate) fn fault_error(ev: &spread_sim::FaultEvent, what: String) -> RtError {
    match ev.kind {
        FaultEventKind::TransientExhausted { attempts } => RtError::TransientCopy {
            device: ev.device,
            what,
            attempts,
        },
        FaultEventKind::DeviceLost => RtError::DeviceLost {
            device: ev.device,
            what,
        },
    }
}

/// The fault handler of one copy of a set: record the first error —
/// naming the copy, rendered now that the fault fired — and count the
/// copy as done.
fn transfer_fault(
    inner_rc: &Rc<RefCell<Inner>>,
    set: &Rc<TransferSet>,
    what: CopyLabel,
) -> spread_devices::health::OnFault {
    let (inner_rc, set) = (Rc::clone(inner_rc), Rc::clone(set));
    Box::new(move |sim, ev| {
        set.fail(fault_error(&ev, what.to_string()));
        transfer_done(sim, &inner_rc, &set);
    })
}

/// The whole-piece commit point shared by the classic exit path
/// ([`run_transfers_ex`]) and the pipelined overlap exit
/// ([`crate::overlap`]): verify every staged snapshot's source CRC,
/// arbitrate the commit gate, drain (or discard) the staged writes
/// all-or-nothing, release the dying presence entries, and complete or
/// fail the task. Returns the number of staged snapshots actually
/// written to host memory.
pub(crate) fn staged_commit_finish(
    sim: &mut Simulator,
    inner_rc: &Rc<RefCell<Inner>>,
    set: &TransferSet,
    args: CommitArgs,
) -> usize {
    let CommitArgs {
        task,
        to_free,
        integrity,
        gate,
    } = args;
    let device = set.device;
    let staged = &set.staged;
    if let Some(err) = set.failed.borrow_mut().take() {
        // No host writes, no presence cleanup: the dying entries
        // (if any) were wiped by the device-loss hook, and a
        // poisoned runtime never reuses them.
        task_failed(sim, inner_rc, task, err);
        return 0;
    }
    // Trust boundary 1 — staged-commit drain: re-digest every
    // snapshot that carries a source CRC before it may touch
    // host memory. The digest was taken over the device bytes
    // at the copy's virtual start; anything that rotted since —
    // in flight (SilentFlip) or at rest (MemoryScribble) — shows
    // up here.
    let tainted: Vec<Section> = staged
        .borrow()
        .iter()
        .filter_map(|w| match w {
            StagedWrite::Snapshot {
                section,
                data,
                crc: Some(c),
                ..
            } => (spread_devices::digest_f64(data) != *c).then_some(*section),
            _ => None,
        })
        .collect();
    if !tainted.is_empty() {
        if let Some((g, copy)) = &gate {
            // Never arbitrate with rotten bytes: a clean racing
            // sibling (if any) takes the win.
            g.disqualify(*copy);
        }
        staged.borrow_mut().clear();
        let now = sim.now();
        let quarantined = {
            let inner = inner_rc.borrow();
            integrity == IntegrityMode::Heal
                && inner
                    .fault
                    .as_ref()
                    .is_some_and(|ctx| ctx.record_integrity_mismatch(device))
        };
        let action = match (integrity, quarantined) {
            (_, true) => IntegrityAction::Quarantined,
            (IntegrityMode::Heal, _) => IntegrityAction::Healed,
            _ => IntegrityAction::Failed,
        };
        {
            let mut inner = inner_rc.borrow_mut();
            for &sec in &tainted {
                inner.record(
                    now,
                    RunEvent::Integrity(IntegrityEvent {
                        device,
                        section: sec,
                        at: now,
                        boundary: IntegrityBoundary::Commit,
                        action,
                    }),
                );
            }
        }
        let err = RtError::IntegrityViolation {
            device,
            section: tainted[0],
        };
        if quarantined {
            // Streak tripped the breaker: the device's data path
            // cannot be trusted at all — treat it as lost. The
            // loss hook wipes its presence table and allocator,
            // so the dying entries need no cleanup here.
            let ctx = inner_rc.borrow().fault.clone();
            if let Some(ctx) = ctx {
                ctx.mark_lost(sim, device);
            }
            task_failed(sim, inner_rc, task, err);
            return 0;
        }
        if integrity == IntegrityMode::Heal {
            // The device is alive: release its mapping normally
            // so the recoverer's fresh enter→kernel→exit starts
            // from a clean table.
            if inner_rc
                .borrow_mut()
                .release_dying(device as usize, &to_free)
            {
                retry_mem_waiters(sim, inner_rc, device);
            }
        }
        task_failed(sim, inner_rc, task, err);
        return 0;
    }
    if integrity.checks()
        && staged
            .borrow()
            .iter()
            .any(|w| matches!(w, StagedWrite::Snapshot { crc: Some(_), .. }))
    {
        // A fully clean checked drain resets the mismatch
        // streak: the breaker counts *consecutive* offences.
        if let Some(ctx) = &inner_rc.borrow().fault {
            ctx.record_integrity_ok(device);
        }
    }
    let committed = match &gate {
        None => true,
        Some((g, copy)) => g.try_commit(sim.now(), *copy),
    };
    let mut drained = 0usize;
    if committed {
        let (mem, team) = {
            let inner = inner_rc.borrow();
            (
                inner.devices[device as usize].mem.clone(),
                Rc::clone(&inner.team),
            )
        };
        let mem = mem.borrow();
        for w in staged.borrow_mut().drain(..) {
            w.commit(&mem, &team);
            drained += 1;
        }
    } else {
        staged.borrow_mut().clear();
    }
    if let Some((g, _)) = &gate {
        if let Some(ix) = g.log_idx() {
            let mut inner = inner_rc.borrow_mut();
            if let Some(RunEvent::Rescue(rec)) = inner.events.get_mut(ix) {
                rec.winner = g.winner();
                rec.commits = g.commits();
            }
        }
    }
    let released = {
        let mut inner = inner_rc.borrow_mut();
        let released = inner.release_dying(device as usize, &to_free);
        inner.spare.keys.keep(to_free);
        inner
            .spare
            .staged
            .keep(std::mem::take(&mut *staged.borrow_mut()));
        released
    };
    if released {
        retry_mem_waiters(sim, inner_rc, device);
    }
    complete_task(sim, inner_rc, task);
    drained
}

/// [`run_transfers`] with peer routing: `peer_routes` (when non-empty)
/// is index-aligned with `in_copies`; a `Some(src)` entry pulls that
/// copy device-to-device from `src` instead of over the host bus.
///
/// `integrity` is the `spread_integrity(…)` policy: under `verify` or
/// `heal`, every staged D2H snapshot and every peer payload carries a
/// source-side CRC32C that is re-checked at the trust boundary (the
/// staged-commit drain here, the peer receive in
/// [`enqueue_peer_copy`]). A mismatch fails the task with
/// [`RtError::IntegrityViolation`] — under `heal` the construct's
/// registered integrity recoverer then re-executes the piece from the
/// unharmed host image; repeat offenders are quarantined through the
/// circuit breaker.
///
/// `gate` is the speculative-execution hook: `Some((gate, copy))` makes
/// the staged D2H drain conditional on winning the gate's
/// first-commit-wins arbitration as copy index `copy`. A losing copy
/// discards its staged snapshot but still runs presence cleanup and
/// completes its task — only host memory is arbitrated. A copy whose
/// digests fail is disqualified before arbitration, so a clean racing
/// sibling can still win.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_transfers_ex(
    sim: &mut Simulator,
    inner_rc: &Rc<RefCell<Inner>>,
    task: TaskId,
    device: u32,
    mut in_copies: Vec<CopyPlanItem>,
    peer_routes: Vec<Option<u32>>,
    mut out_copies: Vec<CopyPlanItem>,
    to_free: Vec<EntryKey>,
    integrity: IntegrityMode,
    gate: Option<(crate::commit::CommitGate, u32)>,
) {
    debug_assert!(peer_routes.is_empty() || peer_routes.len() == in_copies.len());
    let total = in_copies.len() + out_copies.len();
    let snapshot = stages_d2h(&inner_rc.borrow(), !to_free.is_empty(), integrity, &gate);
    let args = CommitArgs {
        task,
        to_free,
        integrity,
        gate,
    };
    let mut set = TransferSet::new(device, total, Some(args));
    if total == 0 {
        // Nothing will be in flight, so nothing shares the set.
        {
            let mut inner = inner_rc.borrow_mut();
            inner.spare.copies.keep(in_copies);
            inner.spare.copies.keep(out_copies);
        }
        transfer_done(sim, inner_rc, &set);
        return;
    }
    if !out_copies.is_empty() {
        *set.staged.get_mut() = inner_rc.borrow_mut().spare.staged.take();
    }
    let set = Rc::new(set);
    let (dev_mem, team, dma_in, dma_out, trace, faults) = {
        let mut inner = inner_rc.borrow_mut();
        if snapshot && !out_copies.is_empty() {
            // Expose the snapshots to the at-rest corruption surface
            // (MemoryScribble) for as long as they are live.
            inner.staged_registry.retain(|w| w.strong_count() > 0);
            inner.staged_registry.push(Rc::downgrade(&set));
        }
        let dev = &inner.devices[device as usize];
        (
            Rc::clone(&dev.mem),
            Rc::clone(&inner.team),
            dev.dma_in.clone(),
            dev.dma_out.clone(),
            inner.trace.clone(),
            inner.fault.is_some(),
        )
    };
    let ins = in_copies
        .drain(..)
        .enumerate()
        .map(|(i, c)| (c, Direction::In, peer_routes.get(i).copied().flatten()));
    let items = ins.chain(out_copies.drain(..).map(|c| (c, Direction::Out, None)));
    for (c, dir, route) in items {
        if let Some(src) = route {
            enqueue_peer_copy(sim, inner_rc, src, c, integrity, &set);
            continue;
        }
        let host_store = inner_rc.borrow().host.storage(c.section.array);
        let mem = Rc::clone(&dev_mem);
        let (sec, alloc, off) = (c.section, c.alloc, c.offset);
        let effect: Box<dyn FnOnce()> = match dir {
            Direction::In => {
                // The effect keeps only what the copy reads: one more `Rc`
                // in this box (56 → 64 bytes) costs `depend_pipeline` up to
                // 0.8 MB of its 9 MB peak resident memory.
                let (team, src) = (Rc::clone(&team), sec.range());
                Box::new(move || {
                    let host = host_store.borrow();
                    let mut mem = mem.borrow_mut();
                    let buf = mem.buffer_mut(alloc);
                    team.h2d(&mut buf[off..off + src.len()], &host[src]);
                })
            }
            _ if snapshot => {
                let (set, team) = (Rc::clone(&set), Rc::clone(&team));
                Box::new(move || {
                    let mem = mem.borrow();
                    let buf = mem.buffer(alloc);
                    let data = team.snapshot(&buf[off..off + sec.len]);
                    // Source-side digest: over the bytes the DMA engine
                    // actually read, before the payload can rot.
                    let crc = integrity
                        .checks()
                        .then(|| spread_devices::digest_f64(&data));
                    set.staged.borrow_mut().push(StagedWrite::Snapshot {
                        store: host_store,
                        section: sec,
                        data,
                        crc,
                    });
                })
            }
            _ => {
                let set = Rc::clone(&set);
                Box::new(move || {
                    set.staged.borrow_mut().push(StagedWrite::Deferred {
                        store: host_store,
                        section: sec,
                        alloc,
                        offset: off,
                    });
                })
            }
        };
        let engine = match dir {
            Direction::In => &dma_in,
            _ => &dma_out,
        };
        let on_complete: Box<dyn FnOnce(&mut Simulator)> = {
            let (inner_rc, set) = (Rc::clone(inner_rc), Rc::clone(&set));
            match dir {
                Direction::In => Box::new(move |sim| transfer_done(sim, &inner_rc, &set)),
                // In-flight silent corruption: a SilentFlip token flips
                // one bit in the staged payload *after* the source digest
                // was taken, raising no fault. Applied regardless of the
                // integrity mode — under `off` the rot flows through to
                // host memory exactly as it would on a real machine
                // without end-to-end checksums.
                _ => Box::new(move |sim| {
                    let flip = inner_rc
                        .borrow()
                        .fault
                        .as_ref()
                        .is_some_and(|ctx| ctx.take_flip(device, sim.now()));
                    if flip {
                        let mut st = set.staged.borrow_mut();
                        if let Some(data) = st
                            .iter_mut()
                            .filter(|w| w.section() == sec)
                            .find_map(StagedWrite::snapshot_mut)
                        {
                            flip_one_bit(data);
                        }
                    }
                    transfer_done(sim, &inner_rc, &set)
                }),
            }
        };
        engine.enqueue(
            sim,
            DmaOp {
                bytes: sec.len as u64 * 8,
                label: span_label(&trace, &c.label),
                effect: Some(effect),
                on_complete,
                on_fault: faults.then(|| transfer_fault(inner_rc, &set, c.label)),
                extra_caps: Vec::new(),
                streamed: false,
            },
        );
    }
    let mut inner = inner_rc.borrow_mut();
    inner.spare.copies.keep(in_copies);
    inner.spare.copies.keep(out_copies);
}

/// Enqueue one device-to-device pull on the destination's peer engine.
///
/// The effect re-verifies eligibility at copy start (the engine's FIFO
/// may reach the op long after it was planned): if the source died,
/// lost its mapping, or its bytes diverged from the host image, the op
/// copies nothing and flags itself *diverted*; completion then replays
/// the section from the host over the ordinary H2D engine, inheriting
/// this op's slot in the completion set. Either way the destination
/// ends bit-identical to the host path.
///
/// This is trust boundary 2 of `spread_integrity`: the effect digests
/// the payload at its source, and completion (the receive instant)
/// re-digests the destination bytes. A mismatch — a `SilentFlip` token
/// consumed on this pull — fails the task under `verify`, or under
/// `heal` discards the tainted bytes and re-fetches the section from
/// the unharmed host image over the same fallback path a divert uses.
fn enqueue_peer_copy(
    sim: &mut Simulator,
    inner_rc: &Rc<RefCell<Inner>>,
    src: u32,
    c: CopyPlanItem,
    integrity: IntegrityMode,
    set: &Rc<TransferSet>,
) {
    let device = set.device;
    let (host_store, dev, route_caps, trace, faults) = {
        let inner = inner_rc.borrow();
        let dev = inner.devices[device as usize].clone();
        let route_caps = dev.peer_route_caps(&inner.devices[src as usize]);
        (
            inner.host.storage(c.section.array),
            dev,
            route_caps,
            inner.trace.clone(),
            inner.fault.is_some(),
        )
    };
    let (sec, alloc, off) = (c.section, c.alloc, c.offset);
    let bytes = sec.len as u64 * 8;
    let idx = {
        let mut inner = inner_rc.borrow_mut();
        inner.record(
            sim.now(),
            RunEvent::PeerCopy(PeerCopyRecord {
                src,
                dst: device,
                section: sec,
                bytes,
                diverted: false,
            }),
        )
    };
    let diverted = Rc::new(Cell::new(false));
    // Source-side digest of the payload, set by the effect when the
    // pull goes ahead under verify/heal; the receive re-checks it.
    let src_crc: Rc<Cell<Option<u32>>> = Rc::new(Cell::new(None));
    let label = c.label.via(CopyRoute::Peer { src, dst: device });
    let span = span_label(&trace, &label);
    let effect: Box<dyn FnOnce()> = {
        let diverted = Rc::clone(&diverted);
        let src_crc = Rc::clone(&src_crc);
        let weak = Rc::downgrade(inner_rc);
        let host_store = host_store.clone();
        let mem = dev.mem.clone();
        Box::new(move || {
            let Some(rc) = weak.upgrade() else { return };
            // The pull goes ahead only from a live source whose bytes
            // still equal the host image; it copies device to device.
            let pulled = {
                let inner = rc.borrow();
                let lost = inner.fault.as_ref().is_some_and(|ctx| ctx.is_lost(src));
                !lost
                    && inner.presence[src as usize]
                        .lookup_containing(&sec)
                        .is_some_and(|(_, entry)| {
                            let off_s = sec.start - entry.section.start;
                            let smem = inner.devices[src as usize].mem.borrow();
                            let sbuf = &smem.buffer(entry.alloc)[off_s..off_s + sec.len];
                            let current = sbuf
                                .iter()
                                .zip(&host_store.borrow()[sec.range()])
                                .all(|(a, b)| a.to_bits() == b.to_bits());
                            if current {
                                if integrity.checks() {
                                    src_crc.set(Some(spread_devices::digest_f64(sbuf)));
                                }
                                let mut m = mem.borrow_mut();
                                inner
                                    .team
                                    .peer(&mut m.buffer_mut(alloc)[off..off + sec.len], sbuf);
                            }
                            current
                        })
            };
            if !pulled {
                diverted.set(true);
                rc.borrow_mut().mark_diverted(idx);
            }
        })
    };
    let on_complete: Box<dyn FnOnce(&mut Simulator)> = {
        let diverted = Rc::clone(&diverted);
        let src_crc = Rc::clone(&src_crc);
        let set = Rc::clone(set);
        let mem = dev.mem.clone();
        let dma_in = dev.dma_in.clone();
        let inner_rc = Rc::clone(inner_rc);
        let fallback = c.label.via(CopyRoute::HostFallback);
        Box::new(move |sim| {
            let mut refetch = diverted.get();
            if !refetch {
                // In-flight silent corruption: a SilentFlip token
                // consumed on this pull flips one bit in the received
                // payload, raising no fault (mode-blind — under `off`
                // the rot stays).
                let flip = inner_rc
                    .borrow()
                    .fault
                    .as_ref()
                    .is_some_and(|ctx| ctx.take_flip(device, sim.now()));
                if flip {
                    let mut m = mem.borrow_mut();
                    flip_one_bit(&mut m.buffer_mut(alloc)[off..off + sec.len]);
                }
                // Trust boundary 2 — peer receive: re-digest the
                // destination bytes against the source digest.
                if let Some(want) = src_crc.get() {
                    let got = {
                        let m = mem.borrow();
                        spread_devices::digest_f64(&m.buffer(alloc)[off..off + sec.len])
                    };
                    if got == want {
                        if let Some(ctx) = &inner_rc.borrow().fault {
                            ctx.record_integrity_ok(device);
                        }
                    } else {
                        let now = sim.now();
                        let quarantined = integrity == IntegrityMode::Heal
                            && inner_rc
                                .borrow()
                                .fault
                                .as_ref()
                                .is_some_and(|ctx| ctx.record_integrity_mismatch(device));
                        let action = match (integrity, quarantined) {
                            (_, true) => IntegrityAction::Quarantined,
                            (IntegrityMode::Heal, _) => IntegrityAction::Healed,
                            _ => IntegrityAction::Failed,
                        };
                        {
                            let mut inner = inner_rc.borrow_mut();
                            inner.record(
                                now,
                                RunEvent::Integrity(IntegrityEvent {
                                    device,
                                    section: sec,
                                    at: now,
                                    boundary: IntegrityBoundary::Peer,
                                    action,
                                }),
                            );
                            if action == IntegrityAction::Healed {
                                // The heal *is* a divert: the tainted
                                // bytes are discarded and the section
                                // replayed from the host image.
                                inner.mark_diverted(idx);
                            }
                        }
                        match action {
                            IntegrityAction::Healed => refetch = true,
                            _ => {
                                if quarantined {
                                    let ctx = inner_rc.borrow().fault.clone();
                                    if let Some(ctx) = ctx {
                                        ctx.mark_lost(sim, device);
                                    }
                                }
                                set.fail(RtError::IntegrityViolation {
                                    device,
                                    section: sec,
                                });
                                transfer_done(sim, &inner_rc, &set);
                                return;
                            }
                        }
                    }
                }
            }
            if !refetch {
                transfer_done(sim, &inner_rc, &set);
                return;
            }
            let on_complete: Box<dyn FnOnce(&mut Simulator)> = {
                let (inner_rc, set) = (Rc::clone(&inner_rc), Rc::clone(&set));
                Box::new(move |sim| transfer_done(sim, &inner_rc, &set))
            };
            let on_fault = faults.then(|| transfer_fault(&inner_rc, &set, fallback.clone()));
            let team = Rc::clone(&inner_rc.borrow().team);
            dma_in.enqueue(
                sim,
                DmaOp {
                    bytes,
                    label: span_label(&trace, &fallback),
                    effect: Some(Box::new(move || {
                        let host = host_store.borrow();
                        let mut m = mem.borrow_mut();
                        let buf = m.buffer_mut(alloc);
                        team.h2d(&mut buf[off..off + sec.len], &host[sec.range()]);
                    })),
                    on_complete,
                    on_fault,
                    extra_caps: Vec::new(),
                    streamed: false,
                },
            );
        })
    };
    dev.dma_peer.enqueue(
        sim,
        DmaOp {
            bytes,
            label: span,
            effect: Some(effect),
            on_complete,
            on_fault: faults.then(|| transfer_fault(inner_rc, set, label)),
            extra_caps: route_caps,
            streamed: false,
        },
    );
}

/// Resolve a kernel's arguments and enqueue it on the device's compute
/// engine; completes the task when the modeled execution finishes.
pub(crate) fn run_kernel(
    sim: &mut Simulator,
    inner_rc: &Rc<RefCell<Inner>>,
    task: TaskId,
    launch: &KernelLaunch,
) -> Result<(), RtError> {
    let KernelLaunch {
        device,
        ref range,
        ref kernel,
        teams,
        threads_per_team,
    } = *launch;
    let (mem, compute, team, bind, resolved, name, faults) = {
        let inner = inner_rc.borrow();
        let d = device as usize;
        let mut resolved = inner.bind.borrow_mut().list();
        if let Err(e) = inner.resolve_args(device, kernel, range, &mut resolved) {
            inner.bind.borrow_mut().recycle(resolved);
            return Err(e);
        }
        (
            Rc::clone(&inner.devices[d].mem),
            inner.devices[d].compute.clone(),
            Rc::clone(&inner.team),
            Rc::clone(&inner.bind),
            resolved,
            span_label(&inner.trace, &kernel.name),
            inner.fault.is_some(),
        )
    };
    let spec = Rc::clone(kernel);
    let exec_range = range.clone();
    let exec: Box<dyn FnOnce()> = Box::new(move || {
        let mut mem = mem.borrow_mut();
        let mut bind = bind.borrow_mut();
        kernel::execute_on_device(
            &mut mem,
            &team.pool,
            spec.schedule,
            exec_range,
            &spec.body,
            &resolved,
            &mut bind,
        );
        bind.recycle(resolved);
    });
    let inner_rc2 = Rc::clone(inner_rc);
    let on_fault = faults.then(|| {
        let (inner_rc, kernel) = (Rc::clone(inner_rc), Rc::clone(kernel));
        Box::new(move |sim: &mut Simulator, ev: spread_sim::FaultEvent| {
            task_failed(
                sim,
                &inner_rc,
                task,
                RtError::DeviceLost {
                    device: ev.device,
                    what: format!("kernel `{}`", kernel.name),
                },
            );
        }) as spread_devices::health::OnFault
    });
    compute.enqueue(
        sim,
        spread_devices::compute::KernelOp {
            tag: task.0,
            name,
            iters: range.len() as u64,
            work_per_iter_ns: kernel.work_per_iter_ns,
            teams,
            threads_per_team,
            body: Some(exec),
            on_complete: Box::new(move |sim| complete_task(sim, &inner_rc2, task)),
            on_fault,
            streamed: false,
        },
    );
    Ok(())
}

/// The offloading runtime.
pub struct Runtime {
    sim: Simulator,
    inner: Rc<RefCell<Inner>>,
}

impl Runtime {
    /// Build a runtime over the configured machine.
    pub fn new(cfg: RuntimeConfig) -> Self {
        let trace = if cfg.trace {
            TraceRecorder::new()
        } else {
            TraceRecorder::disabled()
        };
        let mut sim = Simulator::with_tie_break(trace.clone(), cfg.tie_break);
        if let Err(e) = cfg.topology.validate() {
            panic!("invalid topology: {e}");
        }
        let node = Node::new(&cfg.topology, &trace);
        let n = node.n_devices();
        if let Some(plan) = &cfg.fault_plan {
            // Malformed plans are construction bugs, not runtime faults:
            // reject them here like an invalid topology.
            if let Err(e) = plan.validate(n) {
                panic!("invalid fault plan: {e}");
            }
        }
        let flownet = node.flownet().clone();
        let fault = cfg.fault_plan.as_ref().map(|plan| {
            let ctx = FaultCtx::new(plan, n, cfg.retry, cfg.breaker, trace.clone());
            node.attach_fault_ctx(&ctx);
            ctx
        });
        // Determinism guard: every engine must consult the ONE run-scoped
        // context — backoff jitter and fault sampling draw from its
        // single seeded PRNG, never from a second stream.
        #[cfg(debug_assertions)]
        if let Some(ctx) = &fault {
            for d in node.devices() {
                debug_assert_eq!(d.dma_in.fault_ctx_ptr(), Some(ctx.ptr_id()));
                debug_assert_eq!(d.dma_out.fault_ctx_ptr(), Some(ctx.ptr_id()));
                debug_assert_eq!(d.dma_peer.fault_ctx_ptr(), Some(ctx.ptr_id()));
                debug_assert_eq!(d.compute.fault_ctx_ptr(), Some(ctx.ptr_id()));
            }
        }
        let inner = Inner {
            host: HostRegistry::new(),
            devices: node.devices().to_vec(),
            presence: (0..n).map(|_| PresenceTable::new()).collect(),
            graph: TaskGraph::new(),
            current_parent: None,
            current_group: None,
            error: None,
            alloc_backpressure: cfg.alloc_backpressure,
            mem_waiters: Vec::new(),
            team: Rc::new(Team::new(cfg.team_threads)),
            flownet,
            trace,
            default_num_teams: cfg.default_num_teams,
            default_threads_per_team: cfg.default_threads_per_team,
            fault: fault.clone(),
            recoverers: std::collections::HashMap::default(),
            watchdog: cfg.watchdog,
            injector_live: vec![0; n],
            events: Vec::new(),
            retry: cfg.retry,
            spill_staging_bytes: cfg.spill_staging_bytes,
            profiles: crate::profile::ProfileStore::new(),
            staged_registry: Vec::new(),
            plan_cache: crate::plan_cache::PlanCache::new(cfg.plan_cache),
            bind: Rc::default(),
            spare: PlanSpare::default(),
        };
        // A fresh runtime starts its peak-memory statistics from zero:
        // `device_mem_peak` must describe *this* instance, even if the
        // underlying pools were ever handed over pre-warmed.
        for d in &inner.devices {
            d.mem.borrow_mut().pool_mut().reset_high_watermark();
        }
        let inner = Rc::new(RefCell::new(inner));
        if let (Some(ctx), Some(plan)) = (&fault, cfg.fault_plan.as_ref()) {
            // The loss hook closes over a Weak handle: the context lives
            // inside `inner` (via the engines), so a strong Rc here would
            // leak the whole runtime — device buffers included — every
            // time the fuzzer builds one.
            let weak = Rc::downgrade(&inner);
            ctx.on_device_lost(Rc::new(move |sim, d| {
                if let Some(rc) = weak.upgrade() {
                    device_lost_cleanup(sim, &rc, d);
                }
            }));
            for (d, at) in plan.losses() {
                if (d as usize) < n {
                    let ctx = ctx.clone();
                    sim.schedule_at(at, Box::new(move |sim| ctx.mark_lost(sim, d)));
                }
            }
            for (device, at) in plan.scribbles() {
                if (device as usize) >= n {
                    continue;
                }
                let weak = Rc::downgrade(&inner);
                sim.schedule_at(
                    at,
                    Box::new(move |_| {
                        if let Some(rc) = weak.upgrade() {
                            scribble_staged(&rc, device);
                        }
                    }),
                );
            }
            for f in &plan.faults {
                let (device, at, bytes, release) = match *f {
                    PlannedFault::OomSpike {
                        device,
                        at,
                        bytes,
                        duration,
                    } => (device, at, bytes, Some(at + duration)),
                    PlannedFault::OomSustained { device, at, bytes } => (device, at, bytes, None),
                    _ => continue,
                };
                if device as usize >= n {
                    continue;
                }
                let mem = inner.borrow().devices[device as usize].mem.clone();
                let held: Rc<std::cell::Cell<Option<AllocId>>> =
                    Rc::new(std::cell::Cell::new(None));
                // Whole elements, at least one — the granularity of every
                // other device allocation. Modelled bytes only: the block
                // is reserved in the pool with no host backing behind it.
                let block = bytes.div_ceil(8).max(1) * 8;
                let grab = {
                    let (mem, held) = (mem.clone(), Rc::clone(&held));
                    let weak = Rc::downgrade(&inner);
                    move || {
                        let got = mem.borrow_mut().pool_mut().alloc(block).ok();
                        if got.is_some() {
                            if let Some(rc) = weak.upgrade() {
                                rc.borrow_mut().injector_live[device as usize] += block;
                            }
                        }
                        held.set(got);
                    }
                };
                if at == SimTime::ZERO {
                    // Time-zero pressure exists *before* the program
                    // starts: grab the block now, while the pool is
                    // empty, so it sits at the base of the address
                    // space under every same-instant tie-break. Racing
                    // it against the first construct's enter would let
                    // the block land mid-pool and fragment the free
                    // hole, turning advisory headroom into a lie.
                    grab();
                } else {
                    sim.schedule_at(at, Box::new(move |_| grab()));
                }
                let Some(until) = release else {
                    // Sustained pressure: the bytes never come back.
                    continue;
                };
                let weak = Rc::downgrade(&inner);
                sim.schedule_at(
                    until,
                    Box::new(move |sim| {
                        if let Some(id) = held.take() {
                            mem.borrow_mut().pool_mut().dealloc(id);
                            if let Some(rc) = weak.upgrade() {
                                {
                                    let mut inner = rc.borrow_mut();
                                    let live = &mut inner.injector_live[device as usize];
                                    *live = live.saturating_sub(block);
                                }
                                retry_mem_waiters(sim, &rc, device);
                            }
                        }
                    }),
                );
            }
        }
        Runtime { sim, inner }
    }

    /// Open a scope for issuing directives.
    pub fn scope(&mut self) -> Scope<'_> {
        Scope {
            sim: &mut self.sim,
            inner: &self.inner,
        }
    }

    /// Run a program against this runtime and drain everything it left
    /// pending. The usual entry point:
    ///
    /// ```
    /// use spread_rt::prelude::*;
    /// use spread_rt::kernel::KernelArg;
    /// use spread_devices::Topology;
    ///
    /// let mut rt = Runtime::new(RuntimeConfig::new(Topology::ctepower(1)));
    /// let a = rt.host_array("A", 8);
    /// rt.fill_host(a, |i| i as f64);
    /// rt.run(|s| {
    ///     Target::device(0)
    ///         .map(tofrom(a, 0..8))
    ///         .parallel_for(s, 0..8, KernelSpec::new("dbl", 1.0, |chunk, v| {
    ///             for i in chunk {
    ///                 let x = v.get(0, i);
    ///                 v.set(0, i, 2.0 * x);
    ///             }
    ///         })
    ///         .arg(KernelArg::read_write(a, |r| r)))?;
    ///     Ok(())
    /// })
    /// .unwrap();
    /// assert_eq!(rt.snapshot_host(a)[3], 6.0);
    /// ```
    pub fn run<R>(
        &mut self,
        f: impl FnOnce(&mut Scope<'_>) -> Result<R, RtError>,
    ) -> Result<R, RtError> {
        let mut scope = self.scope();
        let r = f(&mut scope)?;
        scope.drain_all()?;
        Ok(r)
    }

    /// Register a host array.
    pub fn host_array(&mut self, name: impl Into<String>, len: usize) -> HostArray {
        self.inner.borrow_mut().host.register(name, len)
    }

    /// Fill a host array by index.
    pub fn fill_host(&self, h: HostArray, f: impl Fn(usize) -> f64) {
        self.inner.borrow().host.fill_with(h, f);
    }

    /// Copy out a host array's contents.
    pub fn snapshot_host(&self, h: HostArray) -> Vec<f64> {
        self.inner.borrow().host.snapshot(h)
    }

    /// Run `f` with a mutable view of a host array, to write it in place.
    pub fn with_host_mut<R>(&self, h: HostArray, f: impl FnOnce(&mut [f64]) -> R) -> R {
        self.inner.borrow().host.with_mut(h, f)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Virtual time elapsed since construction — the "execution time" the
    /// paper's tables report.
    pub fn elapsed(&self) -> SimDuration {
        self.sim.now() - SimTime::ZERO
    }

    /// Number of devices.
    pub fn n_devices(&self) -> usize {
        self.inner.borrow().devices.len()
    }

    /// Snapshot the trace.
    pub fn timeline(&self) -> Timeline {
        Timeline::from_recorder(&self.inner.borrow().trace)
    }

    /// The recorder itself.
    pub fn trace(&self) -> TraceRecorder {
        self.inner.borrow().trace.clone()
    }

    /// Footprint races observed so far.
    pub fn races(&self) -> Vec<RaceReport> {
        self.inner.borrow().graph.races().to_vec()
    }

    /// What the runtime still holds per task: all zeros whenever nothing
    /// is in flight, however much has run.
    #[doc(hidden)]
    pub fn live_counts(&self) -> LiveCounts {
        let inner = self.inner.borrow();
        LiveCounts {
            recoverers: inner.recoverers.len(),
            mem_waiters: inner.mem_waiters.len(),
            ..inner.graph.live_counts()
        }
    }

    /// Bytes currently allocated on a device.
    pub fn device_mem_used(&self, device: u32) -> u64 {
        self.inner.borrow().devices[device as usize]
            .mem
            .borrow()
            .pool()
            .used()
    }

    /// Device allocations, summed over devices, that made a fresh
    /// backing store and that reused a spare. Host-side only: the
    /// modelled machine cannot tell the two apart. A device-loss wipe
    /// restarts that device's counts.
    pub fn store_counts(&self) -> StoreCounts {
        let inner = self.inner.borrow();
        inner.devices.iter().fold(StoreCounts::default(), |sum, d| {
            let c = d.mem.borrow().store_counts();
            StoreCounts {
                fresh: sum.fresh + c.fresh,
                recycled: sum.recycled + c.recycled,
            }
        })
    }

    /// Exact counts of the host-side copies made so far (see
    /// [`HostCounters`]).
    pub fn host_counters(&self) -> HostCounters {
        self.inner.borrow().team.counters()
    }

    /// Peak bytes allocated on a device.
    pub fn device_mem_peak(&self, device: u32) -> u64 {
        self.inner.borrow().devices[device as usize]
            .mem
            .borrow()
            .pool()
            .high_watermark()
    }

    /// The run ledger: every degradation, peer copy, straggler rescue,
    /// integrity detection and pipelined construct recorded so far, in
    /// recording order. `spread-check` compares the degradations against
    /// its oracle's exact prediction, the peer copies against its
    /// closed-form route set, and checks the rest structurally: each
    /// completed rescue has `commits == 1` and a winner, each clean
    /// overlap record `staged == committed`. Integrity detections are
    /// absent under `spread_integrity(off)` — with no digests there is
    /// nothing to catch.
    pub fn events(&self) -> Ref<'_, [RunEvent]> {
        Ref::map(self.inner.borrow(), |inner| inner.events.as_slice())
    }

    /// Every `spread_schedule(auto)` launch recorded so far, in
    /// completion order: the per-construct/per-device metrics layer.
    /// Empty if no construct used `auto`.
    pub fn profiles(&self) -> Vec<spread_trace::ConstructProfile> {
        self.inner.borrow().profiles.history().to_vec()
    }

    /// The current adaptive weights for a construct key (normalized to
    /// sum to the device count), or `None` before its first completed
    /// launch.
    pub fn adaptive_weights(&self, key: &str) -> Option<Vec<f64>> {
        self.inner
            .borrow()
            .profiles
            .current(key)
            .map(<[f64]>::to_vec)
    }

    /// The interconnect model (capacity utilization queries for
    /// instrumentation and ablations).
    pub fn flownet(&self) -> SharedFlowNet {
        self.inner.borrow().flownet.clone()
    }

    /// The sections currently mapped on a device (diagnostics): section,
    /// reference count, dying flag.
    pub fn mapped_sections(&self, device: u32) -> Vec<(Section, u32, bool)> {
        self.inner.borrow().presence[device as usize]
            .iter()
            .map(|(_, e)| (e.section, e.refcount, e.dying))
            .collect()
    }

    /// A canonical snapshot of every device's mapping table: per device,
    /// the live `(section, refcount)` pairs sorted by `(array, start)`.
    /// Dying entries are excluded — they are already released from the
    /// program's point of view. `spread-check` compares this against the
    /// oracle's presence model after every program.
    pub fn mapping_snapshot(&self) -> Vec<Vec<(Section, u32)>> {
        let inner = self.inner.borrow();
        inner
            .presence
            .iter()
            .map(|table| {
                let mut v: Vec<(Section, u32)> = table
                    .iter()
                    .filter(|(_, e)| !e.dying)
                    .map(|(_, e)| (e.section, e.refcount))
                    .collect();
                v.sort_by_key(|(s, _)| (s.array.0, s.start, s.len));
                v
            })
            .collect()
    }

    /// Devices permanently lost so far — by a planned loss, an
    /// escalated transient streak, or an integrity-mismatch quarantine.
    /// Empty without a fault plan.
    pub fn lost_devices(&self) -> Vec<u32> {
        self.inner
            .borrow()
            .fault
            .as_ref()
            .map(|c| c.lost_devices())
            .unwrap_or_default()
    }

    /// Launch-plan cache statistics: hits, misses, invalidations and
    /// the planning-time accounting the hot-path benchmark reports.
    pub fn plan_stats(&self) -> crate::plan_cache::PlanCacheStats {
        self.inner.borrow().plan_cache.stats()
    }

    /// The current topology epoch — bumped by device loss (including
    /// quarantine) and by every adaptive-state update, invalidating all
    /// cached launch plans.
    pub fn topology_epoch(&self) -> u64 {
        self.inner.borrow().plan_cache.epoch()
    }
}

/// The directive-issuing handle. Obtained from [`Runtime::scope`] or
/// received by host-task bodies.
pub struct Scope<'a> {
    pub(crate) sim: &'a mut Simulator,
    pub(crate) inner: &'a Rc<RefCell<Inner>>,
}

impl Scope<'_> {
    /// Register a host array.
    pub fn host_array(&mut self, name: impl Into<String>, len: usize) -> HostArray {
        self.inner.borrow_mut().host.register(name, len)
    }

    /// Fill a host array by index.
    pub fn fill_host(&mut self, h: HostArray, f: impl Fn(usize) -> f64) {
        self.inner.borrow().host.fill_with(h, f);
    }

    /// Copy out a host array.
    pub fn snapshot_host(&self, h: HostArray) -> Vec<f64> {
        self.inner.borrow().host.snapshot(h)
    }

    /// Run `f` with an immutable view of a host array.
    pub fn with_host<R>(&self, h: HostArray, f: impl FnOnce(&[f64]) -> R) -> R {
        self.inner.borrow().host.with(h, f)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Number of devices.
    pub fn n_devices(&self) -> usize {
        self.inner.borrow().devices.len()
    }

    /// A spec filled from the task graph's emptied vectors (see
    /// [`TaskGraph::spec`]).
    pub(crate) fn spec(&mut self, label: impl Into<TaskLabel>) -> TaskSpec {
        self.inner.borrow_mut().graph.spec(label)
    }

    /// Submit a task in the current context. Used by the directive
    /// builders; `spec.parent`/`spec.group` are overridden from context.
    pub(crate) fn submit(&mut self, mut spec: TaskSpec, action: Action) -> TaskId {
        let (id, ready) = {
            let mut inner = self.inner.borrow_mut();
            spec.parent = inner.current_parent;
            if spec.group.is_none() {
                spec.group = inner.current_group;
            }
            inner.graph.create_with(spec, Some(action))
        };
        if ready {
            schedule_start(self.sim, self.inner, id);
        }
        id
    }

    /// Drain until `cond` holds on the runtime state. Fails with
    /// [`RtError::Deadlock`] if the simulator goes idle first, or with
    /// [`RtError::Timeout`] if a configured watchdog expires in virtual
    /// time before the condition holds.
    ///
    /// The watchdog is *progress-aware*: its window measures time since
    /// the last task completion, not since the drain began. A run that
    /// is slow but still finishing tasks (a straggling device, a long
    /// retry ladder) never trips it; a wedged run — nothing completing
    /// for a full window — still does.
    pub(crate) fn drain_until(
        &mut self,
        cond: impl Fn(&Inner) -> bool,
        what: &str,
    ) -> Result<(), RtError> {
        let mut window_start = self.sim.now();
        let (watchdog, mut last_finished) = {
            let inner = self.inner.borrow();
            (inner.watchdog, inner.graph.finished_total())
        };
        loop {
            {
                let inner = self.inner.borrow();
                if let Some(e) = &inner.error {
                    return Err(e.clone());
                }
                if cond(&inner) {
                    // Quiescence reached: validate every device's live
                    // mapping state against its `spread-semantics`
                    // mirror (no-op in release builds).
                    for table in &inner.presence {
                        table.debug_validate();
                    }
                    return Ok(());
                }
                let finished = inner.graph.finished_total();
                if finished != last_finished {
                    last_finished = finished;
                    window_start = self.sim.now();
                }
            }
            if let Some(limit) = watchdog {
                let waited = self.sim.now() - window_start;
                if waited > limit {
                    let err = RtError::Timeout {
                        waiting_for: what.to_string(),
                        waited,
                    };
                    self.inner.borrow_mut().error.get_or_insert(err.clone());
                    return Err(err);
                }
            }
            if !self.sim.step() {
                let err = RtError::Deadlock {
                    waiting_for: what.to_string(),
                };
                self.inner.borrow_mut().error.get_or_insert(err.clone());
                return Err(err);
            }
        }
    }

    /// Block until a specific task finishes.
    pub fn drain_task(&mut self, id: TaskId) -> Result<(), RtError> {
        self.drain_until(|inner| inner.graph.is_finished(id), "task completion")
    }

    /// Block until every task has finished.
    pub fn drain_all(&mut self) -> Result<(), RtError> {
        self.drain_until(|inner| inner.graph.unfinished() == 0, "all tasks")
    }

    /// `#pragma omp taskgroup { f }` — tasks created by `f` (and their
    /// descendants) complete before this returns.
    pub fn taskgroup<R>(&mut self, f: impl FnOnce(&mut Scope<'_>) -> R) -> Result<R, RtError> {
        let (g, saved) = {
            let mut inner = self.inner.borrow_mut();
            let g = inner.graph.group_create();
            let saved = inner.current_group.replace(g);
            (g, saved)
        };
        let r = f(self);
        self.inner.borrow_mut().current_group = saved;
        self.drain_until(|inner| inner.graph.group_is_empty(g), "taskgroup")?;
        Ok(r)
    }

    /// `#pragma omp taskwait` — wait for the current context's child
    /// tasks.
    pub fn taskwait(&mut self) -> Result<(), RtError> {
        let parent = self.inner.borrow().current_parent;
        self.drain_until(
            move |inner| inner.graph.unfinished_children(parent) == 0,
            "taskwait",
        )
    }

    /// Create a taskgroup *without* waiting on it — the building block
    /// of asynchronous (continuation-style) pipelines. Populate it with
    /// [`Scope::with_group`]; gate continuations on it with
    /// [`Scope::task_chained`].
    pub fn group_create(&mut self) -> GroupId {
        self.inner.borrow_mut().graph.group_create()
    }

    /// Run `f` with `g` as the current taskgroup: tasks created inside
    /// join `g`. Does **not** wait (unlike [`Scope::taskgroup`]).
    pub fn with_group<R>(&mut self, g: GroupId, f: impl FnOnce(&mut Scope<'_>) -> R) -> R {
        let saved = self.inner.borrow_mut().current_group.replace(g);
        let r = f(self);
        self.inner.borrow_mut().current_group = saved;
        r
    }

    /// A host task that starts only after every task in `preds` has
    /// finished *and* (if given) `gate` is empty — the asynchronous
    /// alternative to blocking on a taskgroup from inside a task.
    pub fn task_chained(
        &mut self,
        label: impl Into<TaskLabel>,
        preds: Vec<TaskId>,
        gate: Option<GroupId>,
        f: impl FnOnce(&mut Scope<'_>) + 'static,
    ) -> TaskId {
        let mut spec = TaskSpec::new(label);
        spec.extra_preds = preds;
        spec.gate_group = gate;
        self.submit(spec, host_task_action(f))
    }

    /// `#pragma omp task` — an asynchronous host task. The body receives
    /// its own [`Scope`] and may issue any directive (including blocking
    /// ones).
    pub fn task(
        &mut self,
        label: impl Into<TaskLabel>,
        f: impl FnOnce(&mut Scope<'_>) + 'static,
    ) -> TaskId {
        self.task_chained(label, Vec::new(), None, f)
    }

    /// `#pragma omp task depend(…)` — a host task ordered against its
    /// siblings through array-section dependences, like the device
    /// tasks. `ins`/`outs` are the `depend(in: …)`/`depend(out: …)`
    /// items.
    pub fn task_depend(
        &mut self,
        label: impl Into<TaskLabel>,
        ins: Vec<Section>,
        outs: Vec<Section>,
        f: impl FnOnce(&mut Scope<'_>) + 'static,
    ) -> TaskId {
        let mut spec = TaskSpec::new(label);
        spec.wait_on = ins
            .iter()
            .map(|&s| (s, false))
            .chain(outs.iter().map(|&s| (s, true)))
            .collect();
        spec.publish = spec.wait_on.clone();
        spec.fp_reads = ins.into_iter().map(crate::task::FpAccess::host).collect();
        spec.fp_writes = outs.into_iter().map(crate::task::FpAccess::host).collect();
        self.submit(spec, host_task_action(f))
    }

    /// `#pragma omp taskloop num_tasks(n)` — split `range` into `n`
    /// contiguous blocks, one host task each, and (implicit taskgroup)
    /// wait for all of them.
    pub fn taskloop(
        &mut self,
        label: &str,
        range: Range<usize>,
        num_tasks: usize,
        body: impl Fn(&mut Scope<'_>, usize) + 'static,
    ) -> Result<(), RtError> {
        let body = Rc::new(body);
        self.taskgroup(|scope| {
            let n = range.len();
            if n == 0 {
                return;
            }
            let nt = num_tasks.clamp(1, n);
            for t in 0..nt {
                let lo = range.start + t * n / nt;
                let hi = range.start + (t + 1) * n / nt;
                let body = Rc::clone(&body);
                scope.task(format!("{label}[{t}]"), move |s| {
                    for i in lo..hi {
                        body(s, i);
                    }
                });
            }
        })
    }

    /// Footprint races observed so far.
    pub fn races(&self) -> Vec<RaceReport> {
        self.inner.borrow().graph.races().to_vec()
    }

    /// Poison the runtime with an error discovered outside an action
    /// (e.g. by a directive layer running inside a host task, where the
    /// error cannot propagate through a `Result`). The first recorded
    /// error wins; subsequent drains return it.
    pub fn fail(&mut self, err: RtError) {
        self.inner.borrow_mut().error.get_or_insert(err);
    }

    /// Devices permanently lost so far (empty without a fault plan).
    pub fn lost_devices(&self) -> Vec<u32> {
        self.inner
            .borrow()
            .fault
            .as_ref()
            .map(|c| c.lost_devices())
            .unwrap_or_default()
    }

    /// True if `device` is permanently lost.
    pub fn is_device_lost(&self, device: u32) -> bool {
        self.inner
            .borrow()
            .fault
            .as_ref()
            .is_some_and(|c| c.is_lost(device))
    }

    /// The trace recorder (recovery layers record redistribution spans).
    pub fn trace(&self) -> TraceRecorder {
        self.inner.borrow().trace.clone()
    }

    /// Bytes of device memory an admission planner may count on for
    /// `device` *now*: capacity, minus live program allocations, minus
    /// every OOM-pressure window that is still outstanding (active or
    /// forecast). Injector-held bytes inside the pool's `used` figure
    /// are subtracted back out so active windows are not counted twice.
    /// Returns 0 for a lost device.
    pub fn device_headroom(&self, device: u32) -> u64 {
        let now = self.sim.now();
        let inner = self.inner.borrow();
        let d = device as usize;
        if d >= inner.devices.len() {
            return 0;
        }
        if let Some(ctx) = &inner.fault {
            if ctx.is_lost(device) {
                return 0;
            }
        }
        let pool = inner.devices[d].mem.borrow();
        let capacity = pool.pool().capacity();
        let used = pool.pool().used();
        let program_used = used.saturating_sub(inner.injector_live[d]);
        let outstanding = inner
            .fault
            .as_ref()
            .map_or(0, |ctx| ctx.oom_outstanding(device, now));
        capacity
            .saturating_sub(program_used)
            .saturating_sub(outstanding)
    }

    /// The configured spill staging-buffer size.
    pub fn spill_staging_bytes(&self) -> u64 {
        self.inner.borrow().spill_staging_bytes
    }

    /// Record a runtime decision in the run ledger and draw its marker
    /// span (see [`crate::ledger`]). Returns the event's index: the
    /// commit gate fills in a rescue's `winner`/`commits` through it.
    pub fn record(&mut self, ev: RunEvent) -> usize {
        let now = self.sim.now();
        self.inner.borrow_mut().record(now, ev)
    }

    /// The run ledger so far (see [`Runtime::events`]).
    pub fn events(&self) -> Ref<'_, [RunEvent]> {
        Ref::map(self.inner.borrow(), |inner| inner.events.as_slice())
    }

    /// The weights a `spread_schedule(auto)` construct keyed `key`
    /// should use for its next launch over `k` devices: the adapted
    /// vector when one exists for this key and device count, an equal
    /// split otherwise.
    pub fn adaptive_weights(&self, key: &str, k: usize) -> Vec<f64> {
        self.inner.borrow().profiles.weights(key, k)
    }

    /// The pipeline depth a `spread_overlap(auto)` construct keyed
    /// `key` should use for its next launch: unexplored candidate
    /// depths first, then the learned (EWMA argmin) best depth.
    pub fn adaptive_depth(&self, key: &str) -> u32 {
        self.inner.borrow().profiles.next_depth(key)
    }

    /// Feed one completed `spread_overlap(auto)` launch back into the
    /// per-key depth model: the construct keyed `key` ran with pipeline
    /// `depth` from `t0` to now.
    pub fn record_overlap_depth(&mut self, key: &str, depth: u32, t0: SimTime) {
        let dur = (self.sim.now() - t0).as_nanos() as f64;
        let mut inner = self.inner.borrow_mut();
        inner.profiles.record_depth(key, depth, dur);
        // Adaptive state moved: cached plans may embed the old depth.
        inner.plan_cache.bump_epoch();
    }

    /// Aggregate the trace window `[t0, now)` into a
    /// [`ConstructProfile`](spread_trace::ConstructProfile) for a
    /// completed `spread_schedule(auto)` launch and feed it to the
    /// damped weight update. With tracing disabled the profile is still
    /// recorded (all-zero breakdowns) but the weights stay unchanged —
    /// `auto` degrades to a plain equal `static` split.
    pub fn record_construct_profile(
        &mut self,
        key: &str,
        devices: &[u32],
        weights: &[f64],
        round: usize,
        t0: SimTime,
    ) {
        let t1 = self.sim.now();
        let mut inner = self.inner.borrow_mut();
        let spans = inner.trace.snapshot();
        let device_profiles = spread_trace::profile_window(&spans, devices, t0, t1);
        let launch = inner.profiles.next_launch(key);
        inner.profiles.record(spread_trace::ConstructProfile {
            key: key.to_string(),
            launch,
            start: t0,
            end: t1,
            devices: device_profiles,
            weights: weights.to_vec(),
            round,
        });
        // The weight update may change the next launch's split: cached
        // plans for auto-scheduled constructs must never be served.
        inner.plan_cache.bump_epoch();
    }

    /// Look up a cached launch plan for the construct keyed `key`.
    /// Serves only a plan stored under the same fingerprint in the
    /// current topology epoch; returns `None` (and counts a miss) when
    /// the cache is disabled, empty, stale, or shape-mismatched.
    ///
    /// `started` is the caller's planning-phase start (taken before the
    /// fingerprint was computed); a hit closes the warm planning window
    /// inside the cache's own borrow.
    pub fn plan_cache_lookup(
        &self,
        key: &str,
        fingerprint: u64,
        started: std::time::Instant,
    ) -> Option<Rc<dyn std::any::Any>> {
        self.inner
            .borrow_mut()
            .plan_cache
            .lookup(key, fingerprint, started)
    }

    /// Store a freshly computed launch plan under `key` for the current
    /// topology epoch, closing the cold planning window opened at
    /// `started`. No-op when the cache is disabled.
    pub fn plan_cache_store(
        &self,
        key: &str,
        fingerprint: u64,
        plan: Rc<dyn std::any::Any>,
        started: std::time::Instant,
    ) {
        self.inner
            .borrow_mut()
            .plan_cache
            .store(key, fingerprint, plan, started);
    }

    /// The current topology epoch (see [`plan_cache`](crate::plan_cache)).
    pub fn topology_epoch(&self) -> u64 {
        self.inner.borrow().plan_cache.epoch()
    }

    /// Register `handler` as the recovery handler of every task in
    /// `ids` (the phases of one construct). If any of them fails with an
    /// error `arms` covers — `device` permanently lost, or the OOM or
    /// integrity arm's error on a live device — the handler runs once
    /// with a fresh scope, the faulted task id, and the error; the other
    /// registered tasks are left to the handler (typically
    /// [`Scope::neutralize_task`]). The handler — or a completion chain
    /// it builds — must eventually [`Scope::force_complete`] the faulted
    /// task, or the program deadlocks. Every other failure still poisons
    /// the runtime.
    pub fn on_task_failure(
        &mut self,
        ids: &[TaskId],
        device: u32,
        arms: Arms,
        handler: impl FnOnce(&mut Scope<'_>, TaskId, RtError) + 'static,
    ) {
        let handler: RecoveryHandler = Rc::new(RefCell::new(Some(Box::new(handler))));
        let mut inner = self.inner.borrow_mut();
        for &id in ids {
            inner.recoverers.insert(
                id,
                Recoverer {
                    device,
                    arms,
                    handler: Rc::clone(&handler),
                },
            );
        }
    }

    /// Turn a not-yet-started task into a no-op: its action is dropped
    /// (it will touch nothing when its turn comes) and its footprints
    /// are erased so replacement work does not race against it. Its
    /// dependence edges survive, so the construct's completion still
    /// cascades in order.
    pub fn neutralize_task(&mut self, id: TaskId) {
        let mut inner = self.inner.borrow_mut();
        // A task without an action completes as soon as it starts.
        drop(inner.graph.take_action(id));
        inner.graph.clear_footprints(id);
    }

    /// Erase a faulted *running* task's footprints: its operation was
    /// aborted by the fault, so replacement work covering the same
    /// sections is not a race.
    pub fn forgive_task_footprints(&mut self, id: TaskId) {
        self.inner.borrow_mut().graph.clear_footprints(id);
    }

    /// Complete a faulted task from a recovery handler, releasing its
    /// successors. Only valid for a task that is running and will never
    /// complete on its own (its device died under it).
    pub fn force_complete(&mut self, id: TaskId) {
        complete_task(self.sim, self.inner, id);
    }

    /// Whether a task has finished.
    pub fn is_task_finished(&self, id: TaskId) -> bool {
        self.inner.borrow().graph.is_finished(id)
    }

    /// Schedule `f` to run with a fresh [`Scope`] at virtual time `at`
    /// (clamped to now). The straggler monitor uses this for its
    /// progress deadline; the callback is skipped if the runtime was
    /// dropped or poisoned in the meantime.
    pub fn at(&mut self, at: SimTime, f: impl FnOnce(&mut Scope<'_>) + 'static) {
        let weak = Rc::downgrade(self.inner);
        let at = at.max(self.sim.now());
        self.sim.schedule_at(
            at,
            Box::new(move |sim| {
                if let Some(rc) = weak.upgrade() {
                    if rc.borrow().error.is_some() {
                        return;
                    }
                    let mut scope = Scope { sim, inner: &rc };
                    f(&mut scope);
                }
            }),
        );
    }

    /// Try to cancel the kernel of `task` while it is *running* on
    /// `device`'s compute engine. Returns true on a hit: the engine slot
    /// is freed and the op's completion callback will never fire — the
    /// caller owns finishing the task (the kernel body's device-side
    /// effects already ran at op start, so the device bytes are whole).
    /// Queued or already-completed kernels are not touched (false).
    pub fn cancel_kernel(&mut self, device: u32, task: TaskId) -> bool {
        let d = device as usize;
        let engine = {
            let inner = self.inner.borrow();
            if d >= inner.devices.len() {
                return false;
            }
            inner.devices[d].compute.clone()
        };
        engine.cancel_running(self.sim, task.0)
    }
}

/// Build the action of a host task: swaps the parent/group context, runs
/// the body with a fresh [`Scope`], restores.
fn host_task_action(f: impl FnOnce(&mut Scope<'_>) + 'static) -> Action {
    Action::Closure(Box::new(move |sim, inner_rc, id| {
        let saved = {
            let mut inner = inner_rc.borrow_mut();
            let my_group = inner.graph.group_of(id);
            let sp = inner.current_parent.replace(id);
            let sg = std::mem::replace(&mut inner.current_group, my_group);
            (sp, sg)
        };
        {
            let mut scope = Scope {
                sim,
                inner: inner_rc,
            };
            f(&mut scope);
        }
        {
            let mut inner = inner_rc.borrow_mut();
            inner.current_parent = saved.0;
            inner.current_group = saved.1;
        }
        Ok(Completion::Done)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spread_devices::DeviceSpec;

    fn small_rt() -> Runtime {
        let topo = Topology::uniform(2, DeviceSpec::v100().with_mem_bytes(1 << 20), 1e9, 1.5e9);
        Runtime::new(RuntimeConfig::new(topo).with_team_threads(2))
    }

    #[test]
    fn host_tasks_run_and_finish() {
        let mut rt = small_rt();
        let log: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(Vec::new()));
        let mut s = rt.scope();
        let l1 = log.clone();
        s.task("a", move |_| l1.borrow_mut().push("a"));
        let l2 = log.clone();
        s.task("b", move |_| l2.borrow_mut().push("b"));
        s.drain_all().unwrap();
        assert_eq!(*log.borrow(), vec!["a", "b"]);
    }

    #[test]
    fn taskgroup_waits_for_descendants() {
        let mut rt = small_rt();
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        let mut s = rt.scope();
        let l = log.clone();
        s.taskgroup(move |scope| {
            let l2 = l.clone();
            scope.task("outer", move |inner_scope| {
                let l3 = l2.clone();
                // A bare child task: the group must wait for it too.
                inner_scope.task("nested", move |_| l3.borrow_mut().push(2));
                l2.borrow_mut().push(1);
            });
        })
        .unwrap();
        log.borrow_mut().push(3);
        rt.scope().drain_all().unwrap();
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn taskwait_inside_task() {
        let mut rt = small_rt();
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        let mut s = rt.scope();
        let l = log.clone();
        s.task("parent", move |scope| {
            let l2 = l.clone();
            scope.task("child", move |_| l2.borrow_mut().push(1));
            scope.taskwait().unwrap();
            l.borrow_mut().push(2);
        });
        s.drain_all().unwrap();
        assert_eq!(*log.borrow(), vec![1, 2]);
    }

    #[test]
    fn taskloop_blocks_and_covers() {
        let mut rt = small_rt();
        let hits: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        let mut s = rt.scope();
        let h = hits.clone();
        s.taskloop("tl", 0..10, 3, move |_, i| h.borrow_mut().push(i))
            .unwrap();
        // Blocking: all iterations done on return.
        let mut got = hits.borrow().clone();
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn taskloop_empty_range() {
        let mut rt = small_rt();
        let mut s = rt.scope();
        s.taskloop("tl", 5..5, 4, move |_, _| panic!("no iterations"))
            .unwrap();
    }

    #[test]
    fn recursive_tasks() {
        // The Double Buffering pattern: a task spawning its successor.
        let mut rt = small_rt();
        let log: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        fn recurse(scope: &mut Scope<'_>, i: usize, log: Rc<RefCell<Vec<usize>>>) {
            if i >= 5 {
                return;
            }
            log.borrow_mut().push(i);
            let l = log.clone();
            scope.task(format!("r{i}"), move |s| recurse(s, i + 1, l));
        }
        let mut s = rt.scope();
        let l = log.clone();
        s.task("r0", move |scope| recurse(scope, 0, l));
        s.drain_all().unwrap();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn deadlock_reported() {
        let mut rt = small_rt();
        let mut s = rt.scope();
        // A task gated on a group that never empties (group of itself
        // cannot — simulate by waiting on a task that never finishes:
        // a task whose action is Async but never completes).
        let spec = TaskSpec::new("never");
        let action = Action::Closure(Box::new(|_, _, _| Ok(Completion::Async)));
        let id = s.submit(spec, action);
        let err = s.drain_task(id).unwrap_err();
        assert!(matches!(err, RtError::Deadlock { .. }));
        // Poisoned thereafter.
        assert!(matches!(s.drain_all(), Err(RtError::Deadlock { .. })));
    }

    #[test]
    fn elapsed_starts_at_zero() {
        let rt = small_rt();
        assert_eq!(rt.elapsed(), SimDuration::ZERO);
    }

    /// Injected memory pressure is modelled bytes only: the pool is full,
    /// the host holds nothing behind the block.
    #[test]
    fn an_oom_spike_holds_no_host_memory() {
        let gib = 1u64 << 30;
        let plan = FaultPlan::new(1).oom_spike(0, SimTime::ZERO, gib, SimDuration::from_micros(10));
        let rt = Runtime::new(RuntimeConfig::new(Topology::ctepower(1)).with_fault_plan(plan));
        {
            let inner = rt.inner.borrow();
            let mem = inner.devices[0].mem.borrow();
            assert_eq!(mem.pool().used(), gib);
            assert_eq!(mem.backing_bytes(), 0);
            assert_eq!(inner.injector_live[0], gib);
        }
        let mut rt = rt;
        rt.sim.run_until_idle();
        assert_eq!(rt.device_mem_used(0), 0, "the spike was released");
        assert_eq!(rt.inner.borrow().injector_live[0], 0);
    }

    fn double(a: HostArray) -> KernelSpec {
        KernelSpec::new("double", 1.0, |chunk, v| {
            for i in chunk {
                v.set(0, i, 2.0 * v.get(0, i));
            }
        })
        .arg(kernel::KernelArg::read_write(a, |r| r))
    }

    /// Run `launch` (which issues `nowait` directives) one simulator event
    /// at a time. Returns the most D2H sets registered as staged at once,
    /// the most snapshots they held, and the host result.
    fn staging_of(
        plan: Option<FaultPlan>,
        launch: fn(&mut Scope<'_>, HostArray) -> Result<(), RtError>,
    ) -> (usize, usize, Vec<f64>) {
        let mut cfg = RuntimeConfig::new(Topology::ctepower(1)).with_team_threads(1);
        if let Some(plan) = plan {
            cfg = cfg.with_fault_plan(plan);
        }
        let mut rt = Runtime::new(cfg);
        let a = rt.host_array("A", 256);
        rt.fill_host(a, |i| i as f64);
        launch(&mut rt.scope(), a).unwrap();
        let (mut sets, mut snapshots) = (0, 0);
        while rt.sim.step() {
            let inner = rt.inner.borrow();
            let live: Vec<_> = inner
                .staged_registry
                .iter()
                .filter_map(|w| w.upgrade())
                .collect();
            sets = sets.max(live.len());
            let held = live.iter().map(|s| {
                let s = s.staged.borrow();
                s.iter()
                    .filter(|w| matches!(w, StagedWrite::Snapshot { .. }))
                    .count()
            });
            snapshots = snapshots.max(held.sum());
        }
        rt.scope().drain_all().unwrap();
        (sets, snapshots, rt.snapshot_host(a))
    }

    /// One predicate decides staging: a construct stages its D2H only
    /// when something could reject the write after the copy started, or
    /// when it copies from an entry it does not release.
    #[test]
    fn d2h_snapshots_exactly_when_something_can_reject_them() {
        use crate::directives::{Target, TargetEnterData, TargetExitData, TargetUpdate};
        use crate::map::{release, to, tofrom};
        type Launch = fn(&mut Scope<'_>, HostArray) -> Result<(), RtError>;
        fn target(s: &mut Scope<'_>, a: HostArray, t: Target) -> Result<(), RtError> {
            t.map(tofrom(a, 0..256))
                .nowait()
                .parallel_for(s, 0..256, double(a))
                .map(drop)
        }
        let rows: [(&str, Option<FaultPlan>, Launch, bool); 6] = [
            (
                "clause-free",
                None,
                |s, a| target(s, a, Target::device(0)),
                false,
            ),
            (
                "verify",
                None,
                |s, a| target(s, a, Target::device(0).integrity(IntegrityMode::Verify)),
                true,
            ),
            (
                "heal",
                None,
                |s, a| target(s, a, Target::device(0).integrity(IntegrityMode::Heal)),
                true,
            ),
            (
                "straggler gate",
                None,
                |s, a| {
                    let gate = crate::commit::CommitGate::new();
                    target(s, a, Target::device(0).commit_gate(gate, 0))
                },
                true,
            ),
            (
                "empty fault plan",
                Some(FaultPlan::new(9)),
                |s, a| target(s, a, Target::device(0)),
                true,
            ),
            (
                "update from a live entry",
                None,
                |s, a| {
                    let all = a.section(0..256);
                    TargetEnterData::device(0).map(to(a, 0..256)).launch(s)?;
                    target(s, a, Target::device(0).depend_out(all))?;
                    let update = TargetUpdate::device(0).from(all).depend_out(all);
                    update.nowait().launch(s)?;
                    let exit = TargetExitData::device(0).map(release(a, 0..256));
                    exit.depend_in(all).nowait().launch(s).map(drop)
                },
                true,
            ),
        ];
        let mut results = Vec::new();
        for (what, plan, launch, stages) in rows {
            let (sets, snapshots, host) = staging_of(plan, launch);
            assert_eq!(sets > 0, stages, "{what}: {sets} staged set(s)");
            assert_eq!(snapshots > 0, stages, "{what}: {snapshots} snapshot(s)");
            results.push(host);
        }
        let want: Vec<f64> = (0..256).map(|i| 2.0 * i as f64).collect();
        assert!(results.iter().all(|r| *r == want), "host results differ");
    }
}

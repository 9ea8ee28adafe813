//! Builder-style directives mirroring the single-device `target` pragma
//! family — the baseline directive set the paper compares against.
//!
//! | Pragma | Builder |
//! |---|---|
//! | `#pragma omp target teams distribute parallel for device(d) map(…) nowait depend(…)` | [`Target`] |
//! | `#pragma omp target data device(d) map(…)` | [`TargetData`] |
//! | `#pragma omp target enter data device(d) nowait map(to: …)` | [`TargetEnterData`] |
//! | `#pragma omp target exit data device(d) nowait map(from: …)` | [`TargetExitData`] |
//! | `#pragma omp target update device(d) nowait to(…) from(…)` | [`TargetUpdate`] |
//!
//! Every builder is consumed by a `launch`-style method taking a
//! [`Scope`]. Without `nowait` the call blocks (drains the simulator)
//! until the construct completes, like the OpenMP originals.

use std::ops::Range;
use std::rc::Rc;

use crate::error::RtError;
use crate::kernel::KernelSpec;
use crate::map::{MapClause, MapType};
use crate::runtime::{run_kernel, run_transfers, run_transfers_ex, Action, Completion, Scope};
use crate::section::Section;
use crate::task::{FpAccess, TaskId, TaskLabel, TaskSpec};

/// Dependence clauses shared by the directive builders.
#[derive(Clone, Default)]
struct Depends {
    ins: Vec<Section>,
    outs: Vec<Section>,
}

impl Depends {
    fn wait_on(&self) -> Vec<(Section, bool)> {
        self.ins
            .iter()
            .map(|&s| (s, false))
            .chain(self.outs.iter().map(|&s| (s, true)))
            .collect()
    }
}

/// Footprints of the enter half of a map set (for race detection).
fn enter_footprints(device: u32, maps: &[MapClause]) -> (Vec<FpAccess>, Vec<FpAccess>) {
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for m in maps {
        if m.map_type.copies_in() {
            reads.push(FpAccess::host(m.section));
            writes.push(FpAccess::device(device, m.section));
        }
    }
    (reads, writes)
}

/// Footprints of the exit half of a map set.
fn exit_footprints(device: u32, maps: &[MapClause]) -> (Vec<FpAccess>, Vec<FpAccess>) {
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for m in maps {
        if m.map_type.copies_out() {
            reads.push(FpAccess::device(device, m.section));
            writes.push(FpAccess::host(m.section));
        }
    }
    (reads, writes)
}

/// `#pragma omp target enter data`.
#[derive(Clone)]
pub struct TargetEnterData {
    device: u32,
    maps: Vec<MapClause>,
    nowait: bool,
    deps: Depends,
    label: Option<TaskLabel>,
}

impl TargetEnterData {
    /// Start building for `device(d)`.
    pub fn device(device: u32) -> Self {
        TargetEnterData {
            device,
            maps: Vec::new(),
            nowait: false,
            deps: Depends::default(),
            label: None,
        }
    }

    /// Add a map item (`to` or `alloc`).
    pub fn map(mut self, m: MapClause) -> Self {
        self.maps.push(m);
        self
    }

    /// Add several map items.
    pub fn maps(mut self, items: impl IntoIterator<Item = MapClause>) -> Self {
        self.maps.extend(items);
        self
    }

    /// `nowait` — asynchronous.
    pub fn nowait(mut self) -> Self {
        self.nowait = true;
        self
    }

    /// `depend(in: s)`.
    pub fn depend_in(mut self, s: Section) -> Self {
        self.deps.ins.push(s);
        self
    }

    /// `depend(out: s)`.
    pub fn depend_out(mut self, s: Section) -> Self {
        self.deps.outs.push(s);
        self
    }

    /// Override the task label.
    pub fn label(mut self, l: impl Into<TaskLabel>) -> Self {
        self.label = Some(l.into());
        self
    }

    /// Issue the directive.
    pub fn launch(self, scope: &mut Scope<'_>) -> Result<TaskId, RtError> {
        for m in &self.maps {
            if !m.map_type.valid_on_enter() {
                return Err(RtError::InvalidDirective(format!(
                    "target enter data: map type {:?} not allowed (use to/alloc)",
                    m.map_type
                )));
            }
        }
        let device = self.device;
        let maps = self.maps;
        let (fp_reads, fp_writes) = enter_footprints(device, &maps);
        let mut spec = TaskSpec::new(
            self.label
                .unwrap_or_else(|| TaskLabel::on_device("enter-data", device)),
        );
        spec.wait_on = self.deps.wait_on();
        spec.publish = spec.wait_on.clone();
        spec.fp_reads = fp_reads;
        spec.fp_writes = fp_writes;
        let action: Action = Box::new(move |sim, inner_rc, id| {
            crate::runtime::enter_with_backpressure(sim, inner_rc, id, device, maps)?;
            Ok(Completion::Async)
        });
        let id = scope.submit(spec, action);
        if !self.nowait {
            scope.drain_task(id)?;
        }
        Ok(id)
    }
}

/// `#pragma omp target exit data`.
#[derive(Clone)]
pub struct TargetExitData {
    device: u32,
    maps: Vec<MapClause>,
    nowait: bool,
    deps: Depends,
    label: Option<TaskLabel>,
}

impl TargetExitData {
    /// Start building for `device(d)`.
    pub fn device(device: u32) -> Self {
        TargetExitData {
            device,
            maps: Vec::new(),
            nowait: false,
            deps: Depends::default(),
            label: None,
        }
    }

    /// Add a map item (`from`, `release` or `delete`).
    pub fn map(mut self, m: MapClause) -> Self {
        self.maps.push(m);
        self
    }

    /// Add several map items.
    pub fn maps(mut self, items: impl IntoIterator<Item = MapClause>) -> Self {
        self.maps.extend(items);
        self
    }

    /// `nowait` — asynchronous.
    pub fn nowait(mut self) -> Self {
        self.nowait = true;
        self
    }

    /// `depend(in: s)`.
    pub fn depend_in(mut self, s: Section) -> Self {
        self.deps.ins.push(s);
        self
    }

    /// `depend(out: s)`.
    pub fn depend_out(mut self, s: Section) -> Self {
        self.deps.outs.push(s);
        self
    }

    /// Override the task label.
    pub fn label(mut self, l: impl Into<TaskLabel>) -> Self {
        self.label = Some(l.into());
        self
    }

    /// Issue the directive.
    pub fn launch(self, scope: &mut Scope<'_>) -> Result<TaskId, RtError> {
        for m in &self.maps {
            if !m.map_type.valid_on_exit() {
                return Err(RtError::InvalidDirective(format!(
                    "target exit data: map type {:?} not allowed (use from/release/delete)",
                    m.map_type
                )));
            }
        }
        let device = self.device;
        let maps = self.maps;
        let (fp_reads, fp_writes) = exit_footprints(device, &maps);
        let mut spec = TaskSpec::new(
            self.label
                .unwrap_or_else(|| TaskLabel::on_device("exit-data", device)),
        );
        spec.wait_on = self.deps.wait_on();
        spec.publish = spec.wait_on.clone();
        spec.fp_reads = fp_reads;
        spec.fp_writes = fp_writes;
        let action: Action = Box::new(move |sim, inner_rc, id| {
            let plan = inner_rc.borrow_mut().plan_exit(device, &maps)?;
            run_transfers(
                sim,
                inner_rc,
                id,
                device,
                Vec::new(),
                plan.copies,
                plan.to_free,
            );
            Ok(Completion::Async)
        });
        let id = scope.submit(spec, action);
        if !self.nowait {
            scope.drain_task(id)?;
        }
        Ok(id)
    }
}

/// The `exchange(…)` clause of `target update`: how `to(…)` sections
/// reach the device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExchangeMode {
    /// Route every copy host→device over the host bus (the classic
    /// path; the rt-level default).
    #[default]
    Host,
    /// Require a direct device-to-device pull for every `to(…)` copy;
    /// `InvalidDirective` when no eligible peer source exists.
    Peer,
    /// Pull from an eligible sibling device when one holds the section
    /// bit-identical to the host image; host path otherwise.
    Auto,
}

/// `#pragma omp target update`.
#[derive(Clone)]
pub struct TargetUpdate {
    device: u32,
    to_items: Vec<Section>,
    from_items: Vec<Section>,
    nowait: bool,
    deps: Depends,
    exchange: ExchangeMode,
    integrity: crate::integrity::IntegrityMode,
}

impl TargetUpdate {
    /// Start building for `device(d)`.
    pub fn device(device: u32) -> Self {
        TargetUpdate {
            device,
            to_items: Vec::new(),
            from_items: Vec::new(),
            nowait: false,
            deps: Depends::default(),
            exchange: ExchangeMode::Host,
            integrity: crate::integrity::IntegrityMode::default(),
        }
    }

    /// `exchange(peer|host|auto)` — route `to(…)` refreshes
    /// device-to-device when a sibling already holds the bytes.
    pub fn exchange(mut self, mode: ExchangeMode) -> Self {
        self.exchange = mode;
        self
    }

    /// `spread_integrity(off|verify|heal)` — checksum every payload at
    /// its source and re-verify at the trust boundary. For an update,
    /// `heal` re-fetches a tainted peer pull over the host path; a
    /// tainted `from(…)` drain fails either way (the host is the
    /// destination — there is no unharmed image to heal a `from` item
    /// from, so reject `heal` with `from` items at a higher layer or
    /// accept fail-stop here).
    pub fn integrity(mut self, mode: crate::integrity::IntegrityMode) -> Self {
        self.integrity = mode;
        self
    }

    /// `to(section)` — refresh the device image from the host.
    pub fn to(mut self, s: Section) -> Self {
        self.to_items.push(s);
        self
    }

    /// `from(section)` — refresh the host from the device image.
    pub fn from(mut self, s: Section) -> Self {
        self.from_items.push(s);
        self
    }

    /// `nowait` — asynchronous.
    pub fn nowait(mut self) -> Self {
        self.nowait = true;
        self
    }

    /// `depend(in: s)`.
    pub fn depend_in(mut self, s: Section) -> Self {
        self.deps.ins.push(s);
        self
    }

    /// `depend(out: s)`.
    pub fn depend_out(mut self, s: Section) -> Self {
        self.deps.outs.push(s);
        self
    }

    /// Issue the directive.
    pub fn launch(self, scope: &mut Scope<'_>) -> Result<TaskId, RtError> {
        let device = self.device;
        let (to_items, from_items) = (self.to_items, self.from_items);
        if self.exchange == ExchangeMode::Peer && to_items.is_empty() {
            return Err(RtError::InvalidDirective(
                "exchange(peer) requires at least one to(…) item".into(),
            ));
        }
        let exchange = self.exchange;
        let integrity = self.integrity;
        let mut spec = TaskSpec::new(TaskLabel::on_device("update", device));
        spec.wait_on = self.deps.wait_on();
        spec.publish = spec.wait_on.clone();
        for &s in &to_items {
            spec.fp_reads.push(FpAccess::host(s));
            spec.fp_writes.push(FpAccess::device(device, s));
        }
        for &s in &from_items {
            spec.fp_reads.push(FpAccess::device(device, s));
            spec.fp_writes.push(FpAccess::host(s));
        }
        let action: Action = Box::new(move |sim, inner_rc, id| {
            let (to_copies, from_copies, routes) = {
                let mut inner = inner_rc.borrow_mut();
                let (to_copies, from_copies) = inner.plan_update(device, &to_items, &from_items)?;
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
            Ok(Completion::Async)
        });
        let id = scope.submit(spec, action);
        if !self.nowait {
            scope.drain_task(id)?;
        }
        Ok(id)
    }
}

/// `#pragma omp target data { … }` — structured mapping scope.
#[derive(Clone)]
pub struct TargetData {
    device: u32,
    maps: Vec<MapClause>,
}

impl TargetData {
    /// Start building for `device(d)`.
    pub fn device(device: u32) -> Self {
        TargetData {
            device,
            maps: Vec::new(),
        }
    }

    /// Add a map item.
    pub fn map(mut self, m: MapClause) -> Self {
        self.maps.push(m);
        self
    }

    /// Add several map items.
    pub fn maps(mut self, items: impl IntoIterator<Item = MapClause>) -> Self {
        self.maps.extend(items);
        self
    }

    /// Run the structured region: blocking enter, body, blocking exit —
    /// the original supports neither `nowait` nor `depend` (§III-B.3).
    pub fn region<R>(
        self,
        scope: &mut Scope<'_>,
        f: impl FnOnce(&mut Scope<'_>) -> Result<R, RtError>,
    ) -> Result<R, RtError> {
        let enter_maps: Vec<MapClause> = self
            .maps
            .iter()
            .map(|m| MapClause {
                // `from` allocates on entry without copying.
                map_type: match m.map_type {
                    MapType::From => MapType::Alloc,
                    t => t,
                },
                section: m.section,
            })
            .collect();
        let exit_maps: Vec<MapClause> = self
            .maps
            .iter()
            .map(|m| MapClause {
                map_type: exit_equivalent(m.map_type),
                section: m.section,
            })
            .collect();
        let device = self.device;
        {
            let mut b =
                TargetEnterData::device(device).label(TaskLabel::on_device("data-enter", device));
            b.maps = enter_maps;
            b.launch(scope)?;
        }
        let r = f(scope)?;
        {
            let mut b =
                TargetExitData::device(device).label(TaskLabel::on_device("data-exit", device));
            b.maps = exit_maps;
            b.launch(scope)?;
        }
        Ok(r)
    }
}

/// The exit-phase equivalent of a structured/`target` map type.
fn exit_equivalent(t: MapType) -> MapType {
    match t {
        MapType::From | MapType::ToFrom => MapType::From,
        MapType::To | MapType::Alloc => MapType::Release,
        MapType::Release | MapType::Delete => t,
    }
}

/// The three chained tasks making up one executable `target` construct:
/// enter mappings → kernel → exit mappings. Returned by
/// [`Target::parallel_for_phases`] so resilience layers can register
/// fault handlers for every phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConstructIds {
    /// Phase 1: enter mappings.
    pub enter: TaskId,
    /// Phase 2: the kernel.
    pub kernel: TaskId,
    /// Phase 3: exit mappings (the id downstream `depend`s see).
    pub exit: TaskId,
}

impl ConstructIds {
    /// All three ids, in phase order.
    pub fn all(&self) -> [TaskId; 3] {
        [self.enter, self.kernel, self.exit]
    }
}

/// `#pragma omp target [teams distribute parallel for]` — the executable
/// directive. Offloads a kernel over a loop range to one device.
#[derive(Clone)]
pub struct Target {
    device: u32,
    maps: Vec<MapClause>,
    nowait: bool,
    deps: Depends,
    num_teams: Option<u32>,
    threads_per_team: Option<u32>,
    extra_preds: Vec<TaskId>,
    pressure_managed: bool,
    commit_gate: Option<(crate::commit::CommitGate, u32)>,
    integrity: crate::integrity::IntegrityMode,
    overlap_depth: u32,
    overlap_leak: bool,
}

impl Target {
    /// Start building for `device(d)`.
    pub fn device(device: u32) -> Self {
        Target {
            device,
            maps: Vec::new(),
            nowait: false,
            deps: Depends::default(),
            num_teams: None,
            threads_per_team: None,
            extra_preds: Vec::new(),
            pressure_managed: false,
            commit_gate: None,
            integrity: crate::integrity::IntegrityMode::default(),
            overlap_depth: 1,
            overlap_leak: false,
        }
    }

    /// `spread_overlap(depth)` — software-pipeline this construct:
    /// split its iteration range into `depth` contiguous stages and
    /// overlap copy-in, kernel and copy-out across stages on
    /// runtime-allocated streams (see [`crate::overlap`]). `depth <= 1`
    /// is the classic un-pipelined path; depths beyond the range length
    /// are clamped. The construct's external contract — three phase
    /// tasks, whole-piece staged commit, gate/integrity semantics — is
    /// unchanged.
    pub fn overlap(mut self, depth: u32) -> Self {
        self.overlap_depth = depth.max(1);
        self
    }

    /// Fault-injection canary: make the pipelined exit leak one staged
    /// sub-slice to host memory before the commit point (value-visibly
    /// perturbed). Used by the conformance harness to prove its
    /// whole-piece commit check has teeth.
    #[doc(hidden)]
    pub fn overlap_leak(mut self) -> Self {
        self.overlap_leak = true;
        self
    }

    /// `spread_integrity(off|verify|heal)` — checksum this construct's
    /// staged D2H exit at its source and re-verify at the commit drain.
    /// Under `verify` a mismatch fails the construct with
    /// [`RtError::IntegrityViolation`]; under `heal` it routes to the
    /// construct's registered [`Scope::on_task_integrity`] recoverer,
    /// which re-executes the piece from the unharmed host image.
    pub fn integrity(mut self, mode: crate::integrity::IntegrityMode) -> Self {
        self.integrity = mode;
        self
    }

    /// Route this construct's staged D2H exit through a shared
    /// first-commit-wins [`CommitGate`](crate::commit::CommitGate) as
    /// copy index `copy`. The straggler layer attaches the same gate to
    /// a piece's original construct (copy 0) and its speculative rescue
    /// (copy 1): whichever exit finishes first writes host memory, the
    /// loser discards its staged snapshot but still cleans up its
    /// device-side mappings.
    pub fn commit_gate(mut self, gate: crate::commit::CommitGate, copy: u32) -> Self {
        self.commit_gate = Some((gate, copy));
        self
    }

    /// Mark this construct as pressure-managed: its enter phase retries
    /// an out-of-memory with bounded sim-time backoff (bypassing the
    /// indefinite backpressure parking) and, once retries are
    /// exhausted, *fails the enter task* with the OOM so a registered
    /// [`Scope::on_task_oom`] handler can split or spill the chunk.
    pub fn pressure_managed(mut self) -> Self {
        self.pressure_managed = true;
        self
    }

    /// Add a map item.
    pub fn map(mut self, m: MapClause) -> Self {
        self.maps.push(m);
        self
    }

    /// Add several map items.
    pub fn maps(mut self, items: impl IntoIterator<Item = MapClause>) -> Self {
        self.maps.extend(items);
        self
    }

    /// `nowait` — asynchronous.
    pub fn nowait(mut self) -> Self {
        self.nowait = true;
        self
    }

    /// Cancel a previously set `nowait` (the construct blocks again).
    pub fn blocking(mut self) -> Self {
        self.nowait = false;
        self
    }

    /// `depend(in: s)`.
    pub fn depend_in(mut self, s: Section) -> Self {
        self.deps.ins.push(s);
        self
    }

    /// `depend(out: s)`.
    pub fn depend_out(mut self, s: Section) -> Self {
        self.deps.outs.push(s);
        self
    }

    /// Serialize this construct after arbitrary tasks (beyond `depend`
    /// matching). Used by the resilient spread layer to order a
    /// replacement construct after the survivor's own work, which keeps
    /// the §V-B gap condition satisfied on the survivor's presence
    /// table.
    pub fn after(mut self, preds: impl IntoIterator<Item = TaskId>) -> Self {
        self.extra_preds.extend(preds);
        self
    }

    /// `num_teams(n)`.
    pub fn num_teams(mut self, n: u32) -> Self {
        self.num_teams = Some(n);
        self
    }

    /// `thread_limit`/threads per team.
    pub fn num_threads(mut self, n: u32) -> Self {
        self.threads_per_team = Some(n);
        self
    }

    /// Plain `target` (no `teams distribute parallel for`): the loop runs
    /// on a single device lane.
    pub fn serial(mut self) -> Self {
        self.num_teams = Some(1);
        self.threads_per_team = Some(1);
        self
    }

    /// Offload `kernel` over `range`. Creates the construct's three
    /// phases (enter mappings → kernel → exit mappings) as chained tasks;
    /// downstream `depend` matching sees the construct as one unit.
    ///
    /// `kernel` is a [`KernelSpec`] or an `Rc` of one: a construct
    /// launched once per chunk shares one spec across its chunks.
    pub fn parallel_for(
        self,
        scope: &mut Scope<'_>,
        range: Range<usize>,
        kernel: impl Into<Rc<KernelSpec>>,
    ) -> Result<TaskId, RtError> {
        let nowait = self.nowait;
        let ids = self.parallel_for_phases(scope, range, kernel)?;
        if !nowait {
            scope.drain_task(ids.exit)?;
        }
        Ok(ids.exit)
    }

    /// Like [`Target::parallel_for`], but never blocks (regardless of
    /// `nowait`) and returns the ids of all three phase tasks, so a
    /// resilience layer can register a fault handler covering each
    /// phase and rebuild the construct elsewhere if its device dies.
    pub fn parallel_for_phases(
        self,
        scope: &mut Scope<'_>,
        range: Range<usize>,
        kernel: impl Into<Rc<KernelSpec>>,
    ) -> Result<ConstructIds, RtError> {
        for m in &self.maps {
            if matches!(m.map_type, MapType::Release | MapType::Delete) {
                return Err(RtError::InvalidDirective(format!(
                    "target: map type {:?} not allowed",
                    m.map_type
                )));
            }
        }
        let kernel: Rc<KernelSpec> = kernel.into();
        let device = self.device;
        let (teams, threads) = {
            let inner = scope.inner.borrow();
            (
                self.num_teams.unwrap_or(inner.default_num_teams),
                self.threads_per_team
                    .unwrap_or(inner.default_threads_per_team),
            )
        };
        // The pipelined path: shared state threaded through the three
        // phase actions. The task shapes (footprints, dependences,
        // labels) are identical to the classic path — the pipeline is
        // an internal reorganization only.
        let pipe =
            (self.overlap_depth >= 2 && range.len() >= 2 && !self.pressure_managed).then(|| {
                crate::overlap::PipeState::new(
                    device,
                    range.clone(),
                    self.overlap_depth,
                    self.overlap_leak,
                )
            });
        let exit_maps: Vec<MapClause> = self
            .maps
            .iter()
            .map(|m| MapClause {
                map_type: exit_equivalent(m.map_type),
                section: m.section,
            })
            .collect();

        // Phase 1: enter mappings. Waits on the user's depends.
        let enter_id = {
            let maps = self.maps;
            let (fp_reads, fp_writes) = enter_footprints(device, &maps);
            let mut spec = TaskSpec::new(TaskLabel::kernel_phase(&kernel, "-enter", device));
            spec.wait_on = self.deps.wait_on();
            spec.extra_preds = self.extra_preds;
            spec.fp_reads = fp_reads;
            spec.fp_writes = fp_writes;
            let pressure = self.pressure_managed;
            let action: Action = match &pipe {
                Some(p) => {
                    let pipe = Rc::clone(p);
                    let kernel = Rc::clone(&kernel);
                    Box::new(move |sim, inner_rc, id| {
                        crate::overlap::pipelined_enter(
                            sim, inner_rc, id, device, maps, &kernel, &pipe,
                        )
                    })
                }
                None => Box::new(move |sim, inner_rc, id| {
                    if pressure {
                        crate::runtime::pressure_enter(sim, inner_rc, id, device, maps, 0);
                    } else {
                        crate::runtime::enter_with_backpressure(sim, inner_rc, id, device, maps)?;
                    }
                    Ok(Completion::Async)
                }),
            };
            scope.submit(spec, action)
        };

        // Phase 2: the kernel.
        let kernel_id = {
            let mut spec = TaskSpec::new(TaskLabel::kernel_phase(&kernel, "", device));
            spec.extra_preds = vec![enter_id];
            for arg in &kernel.args {
                let sec = Section::from_range(arg.array.id(), (arg.section_of)(range.clone()));
                let fp = FpAccess::device(device, sec);
                if arg.access.writes() {
                    spec.fp_writes.push(fp);
                } else {
                    spec.fp_reads.push(fp);
                }
            }
            let kernel = Rc::clone(&kernel);
            let action: Action = match &pipe {
                Some(p) => {
                    let pipe = Rc::clone(p);
                    let exit_maps = exit_maps.clone();
                    let integrity = self.integrity;
                    Box::new(move |sim, inner_rc, id| {
                        crate::overlap::pipelined_kernel(
                            sim, inner_rc, id, device, range, &kernel, teams, threads, &exit_maps,
                            integrity, &pipe,
                        )
                    })
                }
                None => Box::new(move |sim, inner_rc, id| {
                    run_kernel(sim, inner_rc, id, device, range, &kernel, teams, threads)?;
                    Ok(Completion::Async)
                }),
            };
            scope.submit(spec, action)
        };

        // Phase 3: exit mappings. Publishes the user's depends.
        let exit_id = {
            let maps = exit_maps;
            let (fp_reads, fp_writes) = exit_footprints(device, &maps);
            let mut spec = TaskSpec::new(TaskLabel::kernel_phase(&kernel, "-exit", device));
            spec.extra_preds = vec![kernel_id];
            spec.publish = self.deps.wait_on();
            spec.fp_reads = fp_reads;
            spec.fp_writes = fp_writes;
            let gate = self.commit_gate;
            let integrity = self.integrity;
            let action: Action = match &pipe {
                Some(p) => {
                    let pipe = Rc::clone(p);
                    Box::new(move |sim, inner_rc, id| {
                        crate::overlap::pipelined_exit(
                            sim, inner_rc, id, device, &maps, integrity, gate, &pipe,
                        )
                    })
                }
                None => Box::new(move |sim, inner_rc, id| {
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
                    Ok(Completion::Async)
                }),
            };
            scope.submit(spec, action)
        };

        if let Some(p) = &pipe {
            p.set_kernel_task(kernel_id);
        }
        Ok(ConstructIds {
            enter: enter_id,
            kernel: kernel_id,
            exit: exit_id,
        })
    }
}

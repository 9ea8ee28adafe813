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
use crate::integrity::IntegrityMode;
use crate::kernel::KernelSpec;
use crate::map::{MapClause, MapType};
use crate::runtime::{Action, KernelLaunch, PipePhase, Pipelined, Scope};
use crate::section::Section;
use crate::task::{FpAccess, TaskId, TaskLabel, TaskSpec};

/// Dependence clauses shared by the directive builders.
#[derive(Clone, Default)]
struct Depends {
    ins: Vec<Section>,
    outs: Vec<Section>,
}

impl Depends {
    /// Append the `(section, is_write)` records of the clauses to `out`.
    fn add_to(&self, out: &mut Vec<(Section, bool)>) {
        out.extend(self.ins.iter().map(|&s| (s, false)));
        out.extend(self.outs.iter().map(|&s| (s, true)));
    }

    /// Wait on the clauses' sections at `spec` and publish them there.
    fn wait_and_publish(&self, spec: &mut TaskSpec) {
        self.add_to(&mut spec.wait_on);
        self.add_to(&mut spec.publish);
    }
}

/// Add the footprints of the enter half of a map set to `spec` (for
/// race detection).
fn enter_footprints(device: u32, maps: &[MapClause], spec: &mut TaskSpec) {
    for m in maps.iter().filter(|m| m.map_type.copies_in()) {
        spec.fp_reads.push(FpAccess::host(m.section));
        spec.fp_writes.push(FpAccess::device(device, m.section));
    }
}

/// Add the footprints of the exit half of a map set to `spec`.
fn exit_footprints(device: u32, maps: &[MapClause], spec: &mut TaskSpec) {
    for m in maps.iter().filter(|m| m.map_type.copies_out()) {
        spec.fp_reads.push(FpAccess::device(device, m.section));
        spec.fp_writes.push(FpAccess::host(m.section));
    }
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
        let maps: Rc<[MapClause]> = self.maps.into();
        let mut spec = scope.spec(
            self.label
                .unwrap_or_else(|| TaskLabel::on_device("enter-data", device)),
        );
        self.deps.wait_and_publish(&mut spec);
        enter_footprints(device, &maps, &mut spec);
        let action = Action::Enter {
            device,
            maps,
            pressure: false,
        };
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
        let maps: Rc<[MapClause]> = self.maps.into();
        let mut spec = scope.spec(
            self.label
                .unwrap_or_else(|| TaskLabel::on_device("exit-data", device)),
        );
        self.deps.wait_and_publish(&mut spec);
        exit_footprints(device, &maps, &mut spec);
        let action = Action::Exit {
            device,
            maps,
            integrity: IntegrityMode::Off,
            gate: None,
        };
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
    /// The `to(…)` items, then the `from(…)` items.
    items: Vec<Section>,
    n_to: usize,
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
            items: Vec::new(),
            n_to: 0,
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
        self.items.insert(self.n_to, s);
        self.n_to += 1;
        self
    }

    /// `from(section)` — refresh the host from the device image.
    pub fn from(mut self, s: Section) -> Self {
        self.items.push(s);
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
        let (device, n_to) = (self.device, self.n_to);
        if self.exchange == ExchangeMode::Peer && n_to == 0 {
            return Err(RtError::InvalidDirective(
                "exchange(peer) requires at least one to(…) item".into(),
            ));
        }
        let mut spec = scope.spec(TaskLabel::on_device("update", device));
        self.deps.wait_and_publish(&mut spec);
        let (to_items, from_items) = self.items.split_at(n_to);
        for &s in to_items {
            spec.fp_reads.push(FpAccess::host(s));
            spec.fp_writes.push(FpAccess::device(device, s));
        }
        for &s in from_items {
            spec.fp_reads.push(FpAccess::device(device, s));
            spec.fp_writes.push(FpAccess::host(s));
        }
        let action = Action::Update {
            device,
            items: self.items,
            n_to,
            exchange: self.exchange,
            integrity: self.integrity,
        };
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
                map_type: m.map_type.on_exit(),
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
    /// A list shared whole ([`Target::map_list`]); a target has either
    /// this or the items added one by one.
    shared_maps: Option<Rc<[MapClause]>>,
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
}

impl Target {
    /// Start building for `device(d)`.
    pub fn device(device: u32) -> Self {
        Target {
            device,
            shared_maps: None,
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

    /// `spread_integrity(off|verify|heal)` — checksum this construct's
    /// staged D2H exit at its source and re-verify at the commit drain.
    /// Under `verify` a mismatch fails the construct with
    /// [`RtError::IntegrityViolation`]; under `heal` it routes to the
    /// construct's [`Arms::Integrity`](crate::runtime::Arms::Integrity)
    /// recoverer (see [`Scope::on_task_failure`]),
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
    /// [`Arms::Oom`](crate::runtime::Arms::Oom) handler (see
    /// [`Scope::on_task_failure`]) can split or spill the chunk.
    pub fn pressure_managed(mut self) -> Self {
        self.pressure_managed = true;
        self
    }

    /// Add a map item.
    pub fn map(mut self, m: MapClause) -> Self {
        assert!(self.shared_maps.is_none(), "map after map_list");
        self.maps.push(m);
        self
    }

    /// Add several map items.
    pub fn maps(mut self, items: impl IntoIterator<Item = MapClause>) -> Self {
        assert!(self.shared_maps.is_none(), "maps after map_list");
        self.maps.extend(items);
        self
    }

    /// Map exactly the items of `maps`, sharing the list instead of
    /// copying it: a construct launched once per chunk hands each chunk
    /// its evaluated list, and the construct's enter and exit phases
    /// share it too. Not combined with [`Target::map`] or
    /// [`Target::maps`].
    pub fn map_list(mut self, maps: Rc<[MapClause]>) -> Self {
        assert!(self.maps.is_empty(), "map_list after map");
        self.shared_maps = Some(maps);
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
        let maps: Rc<[MapClause]> = self.shared_maps.unwrap_or_else(|| self.maps.into());
        for m in maps.iter() {
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
        let launch = || KernelLaunch {
            device,
            range: range.clone(),
            kernel: Rc::clone(&kernel),
            teams,
            threads_per_team: threads,
        };
        let pipelined = |phase, pipe: &Rc<crate::overlap::PipeState>| {
            Action::Pipelined(Box::new(Pipelined {
                phase,
                launch: launch(),
                maps: Rc::clone(&maps),
                integrity: self.integrity,
                gate: self.commit_gate.clone(),
                pipe: Rc::clone(pipe),
            }))
        };
        // The pipelined path: shared state threaded through the three
        // phase actions. The task shapes (footprints, dependences,
        // labels) are identical to the classic path — the pipeline is
        // an internal reorganization only.
        let pipe = (self.overlap_depth >= 2 && range.len() >= 2 && !self.pressure_managed)
            .then(|| crate::overlap::PipeState::new(device, range.clone(), self.overlap_depth));

        // Phase 1: enter mappings. Waits on the user's depends.
        let enter_id = {
            let mut spec = scope.spec(TaskLabel::kernel_phase(&kernel, "-enter", device));
            self.deps.add_to(&mut spec.wait_on);
            spec.extra_preds.extend(self.extra_preds);
            enter_footprints(device, &maps, &mut spec);
            let action = match &pipe {
                Some(p) => pipelined(PipePhase::Enter, p),
                None => Action::Enter {
                    device,
                    maps: Rc::clone(&maps),
                    pressure: self.pressure_managed,
                },
            };
            scope.submit(spec, action)
        };

        // Phase 2: the kernel.
        let kernel_id = {
            let mut spec = scope.spec(TaskLabel::kernel_phase(&kernel, "", device));
            spec.extra_preds.push(enter_id);
            for arg in &kernel.args {
                let sec = Section::from_range(arg.array.id(), (arg.section_of)(range.clone()));
                let fp = FpAccess::device(device, sec);
                if arg.access.writes() {
                    spec.fp_writes.push(fp);
                } else {
                    spec.fp_reads.push(fp);
                }
            }
            let action = match &pipe {
                Some(p) => pipelined(PipePhase::Kernel, p),
                None => Action::Kernel(launch()),
            };
            scope.submit(spec, action)
        };

        // Phase 3: exit mappings. Publishes the user's depends.
        let exit_id = {
            let mut spec = scope.spec(TaskLabel::kernel_phase(&kernel, "-exit", device));
            spec.extra_preds.push(kernel_id);
            self.deps.add_to(&mut spec.publish);
            exit_footprints(device, &maps, &mut spec);
            let action = match &pipe {
                Some(p) => pipelined(PipePhase::Exit, p),
                None => Action::Exit {
                    device,
                    maps: Rc::clone(&maps),
                    integrity: self.integrity,
                    gate: self.commit_gate.clone(),
                },
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

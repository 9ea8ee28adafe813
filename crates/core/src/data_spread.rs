//! The spread data-management directives: `target data spread`,
//! `target enter/exit data spread`, `target update spread`
//! (paper §III-B.3–5).
//!
//! All of them distribute mappings with a *static round-robin* policy
//! driven by the `range(start:len)` and `chunk_size(c)` clauses — the
//! paper deliberately omits a `spread_schedule` clause here. The
//! unstructured directives support `nowait`; the `depend` clause on them
//! is this reproduction's implementation of the paper's future work
//! (§IX, Listing 13) and is disabled unless explicitly used.
//!
//! The four builders share one clause core, [`SpreadClauses`] —
//! devices / range / chunk_size / optional explicit schedule / map list —
//! so distribution and validation live in exactly one place. The
//! directive-specific methods are thin forwarding wrappers, keeping the
//! paper's per-pragma spelling at call sites.

use std::ops::Range;
use std::rc::Rc;

use spread_rt::directives::{ExchangeMode, TargetEnterData, TargetExitData, TargetUpdate};
use spread_rt::map::MapType;
use spread_rt::{Arms, HostArray, MapClause, RtError, Scope, Section, TaskId, TaskLabel};

use crate::chunk::ChunkCtx;
use crate::clauses::{ClauseSet, SpreadClausesExt};
use crate::compose::{self, Launch, Pragma};
use crate::recovery::ResiliencePolicy;
use crate::schedule::{distribute, Chunk, SpreadSchedule};
use crate::spread_map::{SectionOf, SpreadMap};
use crate::target_spread::SpreadDep;

/// Under `spread_resilience(redistribute)`, absorb a chunk task's
/// device-loss failure: the staged-write discipline left the host image
/// untouched, so the task is dropped (footprints forgiven, dependents
/// released) and the program continues from the host copy. Data-spread
/// directives need no replacement construct — a later resilient spread
/// re-maps what it needs from the host.
fn guard_chunk_task(scope: &mut Scope<'_>, id: TaskId, device: u32) {
    scope.on_task_failure(&[id], device, Arms::Loss, move |s, faulted, _err| {
        s.forgive_task_footprints(faulted);
        s.force_complete(faulted);
    });
}

/// The clause core shared by every spread data-management directive:
/// `devices(…)`, `range(start:len)`, `chunk_size(c)`, an optional
/// explicit static `spread_schedule(…)`, and the spread map list.
///
/// [`chunks`](SpreadClauses::chunks) performs the shared validation and
/// distribution; the directive builders embed a `SpreadClauses` and
/// forward their clause methods to it.
#[derive(Clone)]
pub struct SpreadClauses {
    devices: Vec<u32>,
    range: Option<Range<usize>>,
    chunk_size: Option<usize>,
    set: ClauseSet,
    maps: Vec<SpreadMap>,
}

impl SpreadClausesExt for SpreadClauses {
    fn clause_set_mut(&mut self) -> &mut ClauseSet {
        &mut self.set
    }
}

impl SpreadClauses {
    /// Start with the `devices(…)` clause. The distribution order is
    /// the list order, not the device-id order.
    pub fn devices(devices: impl IntoIterator<Item = u32>) -> Self {
        SpreadClauses {
            devices: devices.into_iter().collect(),
            range: None,
            chunk_size: None,
            set: ClauseSet::default(),
            maps: Vec::new(),
        }
    }

    /// `range(start:len)` — the iteration-space range being distributed.
    pub fn range(mut self, start: usize, len: usize) -> Self {
        self.range = Some(start..start + len);
        self
    }

    /// `chunk_size(c)`.
    pub fn chunk_size(mut self, c: usize) -> Self {
        self.chunk_size = Some(c);
        self
    }

    /// Add a spread map item.
    pub fn map(mut self, m: SpreadMap) -> Self {
        self.maps.push(m);
        self
    }

    /// Add several spread map items.
    pub fn maps(mut self, items: impl IntoIterator<Item = SpreadMap>) -> Self {
        self.maps.extend(items);
        self
    }

    /// The map list.
    pub fn map_list(&self) -> &[SpreadMap] {
        &self.maps
    }

    /// The `devices(…)` list, in distribution order.
    pub fn device_list(&self) -> &[u32] {
        &self.devices
    }

    /// Validate the clause set and distribute the range into chunks.
    /// On its own the set is checked as `target data spread`'s; the
    /// directive builders check it as theirs.
    pub fn chunks(&self) -> Result<Vec<Chunk>, RtError> {
        self.chunks_as(Pragma::Data, &Launch::of(&self.set))
    }

    /// The single validation and distribution path of all four data
    /// directives: `launch` (this set plus the directive's own items)
    /// checked as `pragma`, then the range carved into chunks.
    fn chunks_as(&self, pragma: Pragma, launch: &Launch<'_>) -> Result<Vec<Chunk>, RtError> {
        compose::check(pragma, launch)?;
        if self.devices.is_empty() {
            return Err(RtError::InvalidDirective(
                "devices(…) must not be empty".into(),
            ));
        }
        let range = self
            .range
            .clone()
            .ok_or_else(|| RtError::InvalidDirective("range clause is required".into()))?;
        // §IX: "Once [more schedules] are implemented, we will integrate
        // them into the syntax of the target spread data transfer
        // directives via the spread_schedule clause." — an explicit
        // static schedule may replace the default `chunk_size`
        // round-robin (the check refuses the dynamic and auto kinds).
        if let Some(s) = &self.set.schedule {
            s.validate("data spread", self.devices.len())?;
            return Ok(distribute(range, &self.devices, s));
        }
        let chunk = self
            .chunk_size
            .ok_or_else(|| RtError::InvalidDirective("chunk_size clause is required".into()))?;
        if chunk == 0 {
            return Err(RtError::InvalidDirective("chunk_size must be >= 1".into()));
        }
        Ok(distribute(
            range,
            &self.devices,
            &SpreadSchedule::Static { chunk },
        ))
    }
}

/// `#pragma omp target enter data spread`.
#[derive(Clone)]
pub struct TargetEnterDataSpread {
    clauses: SpreadClauses,
    nowait: bool,
    dep_ins: Vec<SpreadDep>,
    dep_outs: Vec<SpreadDep>,
}

impl SpreadClausesExt for TargetEnterDataSpread {
    fn clause_set_mut(&mut self) -> &mut ClauseSet {
        &mut self.clauses.set
    }
}

impl TargetEnterDataSpread {
    /// Start building with the `devices(…)` clause.
    pub fn devices(devices: impl IntoIterator<Item = u32>) -> Self {
        TargetEnterDataSpread {
            clauses: SpreadClauses::devices(devices),
            nowait: false,
            dep_ins: Vec::new(),
            dep_outs: Vec::new(),
        }
    }

    /// `range(start:len)` — the iteration-space range being distributed.
    pub fn range(mut self, start: usize, len: usize) -> Self {
        self.clauses = self.clauses.range(start, len);
        self
    }

    /// `chunk_size(c)`.
    pub fn chunk_size(mut self, c: usize) -> Self {
        self.clauses = self.clauses.chunk_size(c);
        self
    }

    /// Add a spread map item (`to`/`alloc`).
    pub fn map(mut self, m: SpreadMap) -> Self {
        self.clauses = self.clauses.map(m);
        self
    }

    /// Add several spread map items.
    pub fn maps(mut self, items: impl IntoIterator<Item = SpreadMap>) -> Self {
        self.clauses = self.clauses.maps(items);
        self
    }

    /// `nowait` — asynchronous transfers.
    pub fn nowait(mut self) -> Self {
        self.nowait = true;
        self
    }

    /// **Extension** (paper §IX, Listing 13): `depend(out: a[expr])` per
    /// chunk, letting kernels synchronize with data transfers at chunk
    /// level instead of through a `taskgroup` barrier.
    pub fn depend_out(
        mut self,
        array: HostArray,
        expr: impl Fn(ChunkCtx) -> Range<usize> + 'static,
    ) -> Self {
        self.dep_outs.push(SpreadDep {
            array,
            expr: Rc::new(expr),
        });
        self
    }

    /// **Extension**: `depend(in: a[expr])` per chunk.
    pub fn depend_in(
        mut self,
        array: HostArray,
        expr: impl Fn(ChunkCtx) -> Range<usize> + 'static,
    ) -> Self {
        self.dep_ins.push(SpreadDep {
            array,
            expr: Rc::new(expr),
        });
        self
    }

    /// Issue the directive: one enter-data task per chunk.
    pub fn launch(self, scope: &mut Scope<'_>) -> Result<Vec<TaskId>, RtError> {
        let chunks = self.clauses.chunks_as(
            Pragma::EnterData,
            &Launch {
                nowait: self.nowait,
                ..Launch::of(&self.clauses.set)
            },
        )?;
        let resilient = self.clauses.set.resilience == ResiliencePolicy::Redistribute;
        let mut ids = Vec::with_capacity(chunks.len());
        for chunk in &chunks {
            let c = ChunkCtx::new(chunk.start, chunk.len);
            let device = chunk.device.expect("static chunks are assigned");
            if resilient && scope.is_device_lost(device) {
                continue;
            }
            let mut b = TargetEnterData::device(device)
                .nowait()
                .label(TaskLabel::chunk("enter-spread", device, chunk.index));
            for m in self.clauses.map_list() {
                b = b.map(m.at(c));
            }
            for d in &self.dep_ins {
                b = b.depend_in(d.at(c));
            }
            for d in &self.dep_outs {
                b = b.depend_out(d.at(c));
            }
            let id = b.launch(scope)?;
            if resilient {
                guard_chunk_task(scope, id, device);
            }
            ids.push(id);
        }
        if !self.nowait {
            for &id in &ids {
                scope.drain_task(id)?;
            }
        }
        Ok(ids)
    }
}

/// `#pragma omp target exit data spread`.
#[derive(Clone)]
pub struct TargetExitDataSpread {
    clauses: SpreadClauses,
    nowait: bool,
    dep_ins: Vec<SpreadDep>,
    dep_outs: Vec<SpreadDep>,
}

impl SpreadClausesExt for TargetExitDataSpread {
    fn clause_set_mut(&mut self) -> &mut ClauseSet {
        &mut self.clauses.set
    }
}

impl TargetExitDataSpread {
    /// Start building with the `devices(…)` clause.
    pub fn devices(devices: impl IntoIterator<Item = u32>) -> Self {
        TargetExitDataSpread {
            clauses: SpreadClauses::devices(devices),
            nowait: false,
            dep_ins: Vec::new(),
            dep_outs: Vec::new(),
        }
    }

    /// `range(start:len)`.
    pub fn range(mut self, start: usize, len: usize) -> Self {
        self.clauses = self.clauses.range(start, len);
        self
    }

    /// `chunk_size(c)`.
    pub fn chunk_size(mut self, c: usize) -> Self {
        self.clauses = self.clauses.chunk_size(c);
        self
    }

    /// Add a spread map item (`from`/`release`/`delete`).
    pub fn map(mut self, m: SpreadMap) -> Self {
        self.clauses = self.clauses.map(m);
        self
    }

    /// Add several spread map items.
    pub fn maps(mut self, items: impl IntoIterator<Item = SpreadMap>) -> Self {
        self.clauses = self.clauses.maps(items);
        self
    }

    /// `nowait`.
    pub fn nowait(mut self) -> Self {
        self.nowait = true;
        self
    }

    /// **Extension** (paper §IX): `depend(in: a[expr])` per chunk —
    /// typically "wait for the kernel that produced this chunk".
    pub fn depend_in(
        mut self,
        array: HostArray,
        expr: impl Fn(ChunkCtx) -> Range<usize> + 'static,
    ) -> Self {
        self.dep_ins.push(SpreadDep {
            array,
            expr: Rc::new(expr),
        });
        self
    }

    /// **Extension**: `depend(out: a[expr])` per chunk.
    pub fn depend_out(
        mut self,
        array: HostArray,
        expr: impl Fn(ChunkCtx) -> Range<usize> + 'static,
    ) -> Self {
        self.dep_outs.push(SpreadDep {
            array,
            expr: Rc::new(expr),
        });
        self
    }

    /// Issue the directive: one exit-data task per chunk.
    pub fn launch(self, scope: &mut Scope<'_>) -> Result<Vec<TaskId>, RtError> {
        let chunks = self.clauses.chunks_as(
            Pragma::ExitData,
            &Launch {
                nowait: self.nowait,
                ..Launch::of(&self.clauses.set)
            },
        )?;
        let resilient = self.clauses.set.resilience == ResiliencePolicy::Redistribute;
        let mut ids = Vec::with_capacity(chunks.len());
        for chunk in &chunks {
            let c = ChunkCtx::new(chunk.start, chunk.len);
            let device = chunk.device.expect("static chunks are assigned");
            if resilient && scope.is_device_lost(device) {
                continue;
            }
            let mut b = TargetExitData::device(device)
                .nowait()
                .label(TaskLabel::chunk("exit-spread", device, chunk.index));
            for m in self.clauses.map_list() {
                b = b.map(m.at(c));
            }
            for d in &self.dep_ins {
                b = b.depend_in(d.at(c));
            }
            for d in &self.dep_outs {
                b = b.depend_out(d.at(c));
            }
            let id = b.launch(scope)?;
            if resilient {
                guard_chunk_task(scope, id, device);
            }
            ids.push(id);
        }
        if !self.nowait {
            for &id in &ids {
                scope.drain_task(id)?;
            }
        }
        Ok(ids)
    }
}

/// `#pragma omp target update spread`.
#[derive(Clone)]
pub struct TargetUpdateSpread {
    clauses: SpreadClauses,
    to_items: Vec<(HostArray, SectionOf)>,
    from_items: Vec<(HostArray, SectionOf)>,
    nowait: bool,
    exchange: ExchangeMode,
}

impl SpreadClausesExt for TargetUpdateSpread {
    fn clause_set_mut(&mut self) -> &mut ClauseSet {
        &mut self.clauses.set
    }
}

impl TargetUpdateSpread {
    /// Start building with the `devices(…)` clause.
    pub fn devices(devices: impl IntoIterator<Item = u32>) -> Self {
        TargetUpdateSpread {
            clauses: SpreadClauses::devices(devices),
            to_items: Vec::new(),
            from_items: Vec::new(),
            nowait: false,
            // The spread-level default: a `to(…)` section already valid
            // on a sibling device goes device-to-device, host path
            // otherwise — the paper's host round-trip is recovered with
            // `exchange(host)`.
            exchange: ExchangeMode::Auto,
        }
    }

    /// `exchange(peer|host|auto)` — how `to(…)` refreshes reach the
    /// devices. `auto` (the default) pulls from a sibling device that
    /// already holds the bytes bit-identical to the host image and
    /// falls back to the host path otherwise; `peer` demands the direct
    /// route and fails with `InvalidDirective` where it cannot hold.
    pub fn exchange(mut self, mode: ExchangeMode) -> Self {
        self.exchange = mode;
        self
    }

    /// `range(start:len)`.
    pub fn range(mut self, start: usize, len: usize) -> Self {
        self.clauses = self.clauses.range(start, len);
        self
    }

    /// `chunk_size(c)`.
    pub fn chunk_size(mut self, c: usize) -> Self {
        self.clauses = self.clauses.chunk_size(c);
        self
    }

    /// `to(a[expr])` — refresh device images from the host.
    pub fn to(
        mut self,
        array: HostArray,
        expr: impl Fn(ChunkCtx) -> Range<usize> + 'static,
    ) -> Self {
        self.to_items.push((array, Rc::new(expr)));
        self
    }

    /// `from(a[expr])` — refresh the host from device images.
    pub fn from(
        mut self,
        array: HostArray,
        expr: impl Fn(ChunkCtx) -> Range<usize> + 'static,
    ) -> Self {
        self.from_items.push((array, Rc::new(expr)));
        self
    }

    /// `nowait`.
    pub fn nowait(mut self) -> Self {
        self.nowait = true;
        self
    }

    /// Issue the directive: one update task per chunk.
    pub fn launch(self, scope: &mut Scope<'_>) -> Result<Vec<TaskId>, RtError> {
        let chunks = self.clauses.chunks_as(
            Pragma::Update,
            &Launch {
                nowait: self.nowait,
                peer: self.exchange == ExchangeMode::Peer,
                from_items: !self.from_items.is_empty(),
                ..Launch::of(&self.clauses.set)
            },
        )?;
        let integrity = self.clauses.set.integrity;
        let resilient = self.clauses.set.resilience == ResiliencePolicy::Redistribute;
        let mut ids = Vec::with_capacity(chunks.len());
        for chunk in &chunks {
            let c = ChunkCtx::new(chunk.start, chunk.len);
            let device = chunk.device.expect("static chunks are assigned");
            if resilient && scope.is_device_lost(device) {
                continue;
            }
            let mut b = TargetUpdate::device(device)
                .nowait()
                .exchange(self.exchange)
                .integrity(integrity);
            for (a, expr) in &self.to_items {
                b = b.to(Section::from_range(a.id(), expr(c)));
            }
            for (a, expr) in &self.from_items {
                b = b.from(Section::from_range(a.id(), expr(c)));
            }
            let id = b.launch(scope)?;
            if resilient {
                guard_chunk_task(scope, id, device);
            }
            ids.push(id);
        }
        if !self.nowait {
            for &id in &ids {
                scope.drain_task(id)?;
            }
        }
        Ok(ids)
    }
}

/// `#pragma omp target data spread { … }` — the structured variant:
/// distributed mappings valid for the region's duration. As in the
/// paper, there is no `nowait` and no `depend` (§III-B.3).
#[derive(Clone)]
pub struct TargetDataSpread {
    clauses: SpreadClauses,
}

impl SpreadClausesExt for TargetDataSpread {
    fn clause_set_mut(&mut self) -> &mut ClauseSet {
        &mut self.clauses.set
    }
}

impl TargetDataSpread {
    /// Start building with the `devices(…)` clause.
    pub fn devices(devices: impl IntoIterator<Item = u32>) -> Self {
        TargetDataSpread {
            clauses: SpreadClauses::devices(devices),
        }
    }

    /// `range(start:len)`.
    pub fn range(mut self, start: usize, len: usize) -> Self {
        self.clauses = self.clauses.range(start, len);
        self
    }

    /// `chunk_size(c)`.
    pub fn chunk_size(mut self, c: usize) -> Self {
        self.clauses = self.clauses.chunk_size(c);
        self
    }

    /// Add a spread map item.
    pub fn map(mut self, m: SpreadMap) -> Self {
        self.clauses = self.clauses.map(m);
        self
    }

    /// Add several spread map items.
    pub fn maps(mut self, items: impl IntoIterator<Item = SpreadMap>) -> Self {
        self.clauses = self.clauses.maps(items);
        self
    }

    /// Run the structured region: blocking distributed enter, body,
    /// blocking distributed exit.
    pub fn region<R>(
        self,
        scope: &mut Scope<'_>,
        f: impl FnOnce(&mut Scope<'_>) -> Result<R, RtError>,
    ) -> Result<R, RtError> {
        compose::check(Pragma::Data, &Launch::of(&self.clauses.set))?;
        let enter_maps: Vec<SpreadMap> = self
            .clauses
            .map_list()
            .iter()
            .map(|m| SpreadMap {
                map_type: match m.map_type {
                    MapType::From => MapType::Alloc,
                    t => t,
                },
                array: m.array,
                expr: Rc::clone(&m.expr),
            })
            .collect();
        let exit_maps: Vec<SpreadMap> = self
            .clauses
            .map_list()
            .iter()
            .map(|m| SpreadMap {
                map_type: match m.map_type {
                    MapType::From | MapType::ToFrom => MapType::From,
                    MapType::To | MapType::Alloc => MapType::Release,
                    t => t,
                },
                array: m.array,
                expr: Rc::clone(&m.expr),
            })
            .collect();
        // The structured region forwards its clause set (schedule and
        // resilience) to both halves, keeping placement coherent.
        let enter_clauses = SpreadClauses {
            maps: enter_maps,
            ..self.clauses.clone()
        };
        let exit_clauses = SpreadClauses {
            maps: exit_maps,
            ..self.clauses
        };
        TargetEnterDataSpread {
            clauses: enter_clauses,
            nowait: false,
            dep_ins: Vec::new(),
            dep_outs: Vec::new(),
        }
        .launch(scope)?;
        let r = f(scope)?;
        TargetExitDataSpread {
            clauses: exit_clauses,
            nowait: false,
            dep_ins: Vec::new(),
            dep_outs: Vec::new(),
        }
        .launch(scope)?;
        Ok(r)
    }
}

/// Evaluate a [`MapClause`] list for a chunk (testing helper).
pub fn evaluate_maps(maps: &[SpreadMap], c: ChunkCtx) -> Vec<MapClause> {
    maps.iter().map(|m| m.at(c)).collect()
}

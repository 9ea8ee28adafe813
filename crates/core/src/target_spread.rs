//! The `target spread` executable directive (standalone and combined).
//!
//! `target spread` offloads a loop across multiple devices: the
//! iteration space is split into chunks by the `spread_schedule`, chunks
//! are distributed round-robin over the `devices(…)` list, and each
//! chunk becomes one single-device offload whose `map`/`depend` clauses
//! are evaluated with that chunk's `omp_spread_start`/`omp_spread_size`
//! (paper §III-B.1, Listing 3).
//!
//! Adding `num_teams`/`num_threads` gives the combined
//! `target spread teams distribute parallel for` (Listing 4): the
//! intra-device clauses apply *per device*.
//!
//! Without `nowait` the directive blocks until every chunk completes
//! (the "implicit taskgroup" design option of §IX); with `nowait` the
//! chunk tasks run asynchronously and synchronize through `depend`
//! clauses and enclosing `taskgroup`s, exactly like the paper's Somier
//! implementations.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::rc::Rc;

use spread_rt::directives::Target;
use spread_rt::{IntegrityMode, KernelSpec, RtError, RunEvent, Scope, Section, TaskId, TaskLabel};

use crate::chunk::ChunkCtx;
use crate::clauses::{ClauseSet, OverlapPolicy, SpreadClausesExt};
use crate::compose::{self, Launch, Pragma};
use crate::plan::{ChunkSections, Fingerprint, LaunchPlan, PlanBody};
use crate::pressure::{self, Placement, PressurePolicy};
use crate::recovery::{Piece, Recovery, ResiliencePolicy};
use crate::schedule::{distribute, SpreadSchedule};
use crate::spread_map::{SectionOf, SpreadMap};
use crate::straggler::{Monitor, StragglerPolicy};

/// A `depend` clause item over the spread placeholders.
#[derive(Clone)]
pub(crate) struct SpreadDep {
    pub array: spread_rt::HostArray,
    pub expr: SectionOf,
}

impl SpreadDep {
    pub(crate) fn at(&self, c: ChunkCtx) -> Section {
        Section::from_range(self.array.id(), (self.expr)(c))
    }
}

/// Builder for `#pragma omp target spread [teams distribute parallel
/// for]`.
#[derive(Clone)]
pub struct TargetSpread {
    devices: Vec<u32>,
    clauses: ClauseSet,
    maps: Vec<SpreadMap>,
    nowait: bool,
    dep_ins: Vec<SpreadDep>,
    dep_outs: Vec<SpreadDep>,
    num_teams: Option<u32>,
    num_threads: Option<u32>,
    serial: bool,
}

impl SpreadClausesExt for TargetSpread {
    fn clause_set_mut(&mut self) -> &mut ClauseSet {
        &mut self.clauses
    }
}

impl TargetSpread {
    /// Start building with the `devices(…)` clause. The distribution
    /// order is the list order, not the device-id order.
    pub fn devices(devices: impl IntoIterator<Item = u32>) -> Self {
        TargetSpread {
            devices: devices.into_iter().collect(),
            clauses: ClauseSet {
                schedule: Some(SpreadSchedule::static_chunk(1)),
                ..ClauseSet::default()
            },
            maps: Vec::new(),
            nowait: false,
            dep_ins: Vec::new(),
            dep_outs: Vec::new(),
            num_teams: None,
            num_threads: None,
            serial: false,
        }
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

    /// `nowait` — chunk tasks run asynchronously.
    pub fn nowait(mut self) -> Self {
        self.nowait = true;
        self
    }

    /// `depend(in: a[expr])` — per-chunk input dependence (the
    /// data-driven dependence style of §III-B.1).
    pub fn depend_in(
        mut self,
        array: spread_rt::HostArray,
        expr: impl Fn(ChunkCtx) -> Range<usize> + 'static,
    ) -> Self {
        self.dep_ins.push(SpreadDep {
            array,
            expr: Rc::new(expr),
        });
        self
    }

    /// `depend(out: a[expr])` — per-chunk output dependence.
    pub fn depend_out(
        mut self,
        array: spread_rt::HostArray,
        expr: impl Fn(ChunkCtx) -> Range<usize> + 'static,
    ) -> Self {
        self.dep_outs.push(SpreadDep {
            array,
            expr: Rc::new(expr),
        });
        self
    }

    /// `num_teams(n)` — applied per device (combined directive).
    pub fn num_teams(mut self, n: u32) -> Self {
        self.num_teams = Some(n);
        self
    }

    /// Threads per team — applied per device (combined directive).
    pub fn num_threads(mut self, n: u32) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Standalone `target spread` (no `teams distribute parallel for`):
    /// the chunk loop runs on a single device lane.
    pub fn serial(mut self) -> Self {
        self.serial = true;
        self
    }

    /// The active resilience policy.
    pub fn resilience(&self) -> ResiliencePolicy {
        self.clauses.resilience
    }

    /// The active pressure policy.
    pub fn pressure(&self) -> PressurePolicy {
        self.clauses.pressure
    }

    /// The active straggler policy.
    pub fn straggler(&self) -> StragglerPolicy {
        self.clauses.straggler
    }

    /// The active integrity mode.
    pub fn integrity(&self) -> IntegrityMode {
        self.clauses.integrity
    }

    /// The active overlap policy (`spread_overlap(…)`; see
    /// [`OverlapPolicy`]).
    pub fn overlap(&self) -> OverlapPolicy {
        self.clauses.overlap
    }

    /// The active straggler detection threshold β.
    pub(crate) fn straggler_beta(&self) -> f64 {
        self.clauses.straggler_beta
    }

    /// The mapped-footprint bytes of the piece `[start, start + len)` —
    /// the sum over the construct's map clauses of their section lengths
    /// × 8 (halo arithmetic included). This is the figure the pressure
    /// planner budgets against device headroom; tooling (the
    /// `spread-check` oracle) calls it to predict admission exactly.
    pub fn footprint_bytes(&self, start: usize, len: usize) -> u64 {
        let c = ChunkCtx::new(start, len);
        self.maps.iter().map(|m| (m.expr)(c).len() as u64 * 8).sum()
    }

    /// The `devices(…)` list, in distribution order (introspection for
    /// tooling such as the `spread-check` conformance harness).
    pub fn device_list(&self) -> &[u32] {
        &self.devices
    }

    /// The active `spread_schedule(…)` clause.
    pub fn schedule(&self) -> &SpreadSchedule {
        self.clauses
            .schedule
            .as_ref()
            .expect("TargetSpread always carries a schedule")
    }

    /// The construct's launch-plan fingerprint: a structural hash of
    /// everything the plan depends on, computed **without** evaluating
    /// a single map/dep closure. Covers the range, device list,
    /// schedule (including `StaticWeighted` weight bits), every clause,
    /// the map/dep shape (count, types, arrays) and the per-device
    /// knobs; the pressure path adds the live
    /// headroom vector so a cached admission plan is only replayed when
    /// admission would decide identically. Closure identity is the
    /// `spread_plan_cache(key)` contract (checked outright in debug
    /// builds and by the cache-parity suite).
    fn plan_fingerprint(&self, range: &Range<usize>, headroom: Option<&HashMap<u32, u64>>) -> u64 {
        let mut fp = Fingerprint::new();
        fp.usize(range.start).usize(range.end);
        fp.usize(self.devices.len());
        for &d in &self.devices {
            fp.u64(d as u64);
        }
        match self.schedule() {
            SpreadSchedule::Static { chunk } => {
                fp.u64(0).usize(*chunk);
            }
            SpreadSchedule::StaticWeighted { round, weights } => {
                fp.u64(1).usize(*round).usize(weights.len());
                for &w in weights {
                    fp.f64(w);
                }
            }
            SpreadSchedule::Dynamic { chunk } => {
                fp.u64(2).usize(*chunk);
            }
            SpreadSchedule::Auto { .. } => {
                // Resolved to StaticWeighted before dispatch; tagged for
                // completeness.
                fp.u64(3);
            }
        }
        fp.u64(match self.clauses.resilience {
            ResiliencePolicy::FailStop => 0,
            ResiliencePolicy::Redistribute => 1,
        });
        fp.u64(match self.clauses.pressure {
            PressurePolicy::Fail => 0,
            PressurePolicy::Split => 1,
            PressurePolicy::Spill => 2,
        });
        fp.u64(match self.clauses.straggler {
            StragglerPolicy::Wait => 0,
            StragglerPolicy::Steal => 1,
            StragglerPolicy::Replicate => 2,
        });
        fp.f64(self.clauses.straggler_beta);
        fp.u64(match self.clauses.integrity {
            IntegrityMode::Off => 0,
            IntegrityMode::Verify => 1,
            IntegrityMode::Heal => 2,
        });
        fp.u64(match self.clauses.overlap {
            OverlapPolicy::Off => 0,
            OverlapPolicy::Depth(d) => 1 + d as u64,
            OverlapPolicy::Auto => u64::MAX,
        });
        fp.bool(self.nowait).bool(self.serial);
        fp.u64(self.num_teams.map_or(u64::MAX, u64::from));
        fp.u64(self.num_threads.map_or(u64::MAX, u64::from));
        fp.usize(self.maps.len());
        for m in &self.maps {
            fp.u64(match m.map_type {
                spread_rt::MapType::To => 0,
                spread_rt::MapType::From => 1,
                spread_rt::MapType::ToFrom => 2,
                spread_rt::MapType::Alloc => 3,
                spread_rt::MapType::Release => 4,
                spread_rt::MapType::Delete => 5,
            });
            fp.u64(m.array.id().0 as u64);
        }
        fp.usize(self.dep_ins.len());
        for d in &self.dep_ins {
            fp.u64(d.array.id().0 as u64);
        }
        fp.usize(self.dep_outs.len());
        for d in &self.dep_outs {
            fp.u64(d.array.id().0 as u64);
        }
        match headroom {
            None => {
                fp.bool(false);
            }
            Some(h) => {
                fp.bool(true);
                for &d in &self.devices {
                    fp.u64(h.get(&d).copied().unwrap_or(0));
                }
            }
        }
        fp.finish()
    }

    /// Put a freshly planned launch behind its `Rc` and, when the
    /// construct carries a plan key, store it in the plan cache under
    /// the fingerprint [`Self::plan_lookup`] returned.
    fn plan_store(
        &self,
        scope: &Scope<'_>,
        fp: Option<u64>,
        body: PlanBody,
        started: std::time::Instant,
    ) -> Rc<LaunchPlan> {
        let plan = Rc::new(LaunchPlan { body });
        if let (Some(fp), Some(key)) = (fp, &self.clauses.plan_key) {
            scope.plan_cache_store(key, fp, Rc::clone(&plan) as Rc<dyn std::any::Any>, started);
        }
        plan
    }

    /// Whether straggler rescue applies to pieces placed on `devices`:
    /// it needs somewhere to rescue *to*, so at least two pieces spread
    /// over at least two distinct devices. Smaller launches silently
    /// degrade to `wait`.
    fn straggles(&self, devices: impl Iterator<Item = u32>) -> bool {
        if self.clauses.straggler == StragglerPolicy::Wait {
            return false;
        }
        let mut ds: Vec<u32> = devices.collect();
        let pieces = ds.len();
        ds.sort_unstable();
        ds.dedup();
        pieces >= 2 && ds.len() >= 2
    }

    /// The blocking drain: every piece, then every rescue.
    fn drain(
        scope: &mut Scope<'_>,
        ids: &[TaskId],
        monitor: Option<&Rc<Monitor>>,
    ) -> Result<(), RtError> {
        for &id in ids {
            scope.drain_task(id)?;
        }
        match monitor {
            Some(m) => m.drain_rescues(scope),
            None => Ok(()),
        }
    }

    /// Look up a cached [`LaunchPlan`] for this construct, when it
    /// carries a plan key. Returns the plan together with the
    /// fingerprint to store a cold plan under.
    fn plan_lookup(
        &self,
        scope: &Scope<'_>,
        range: &Range<usize>,
        headroom: Option<&HashMap<u32, u64>>,
        started: std::time::Instant,
    ) -> (Option<u64>, Option<Rc<LaunchPlan>>) {
        let Some(key) = &self.clauses.plan_key else {
            return (None, None);
        };
        let fp = self.plan_fingerprint(range, headroom);
        let cached = scope
            .plan_cache_lookup(key, fp, started)
            .and_then(|p| p.downcast::<LaunchPlan>().ok());
        (Some(fp), cached)
    }

    /// Evaluate every `map`/`depend` section expression for one chunk —
    /// the per-chunk planning work the launch-plan cache elides on a
    /// warm launch.
    pub(crate) fn chunk_sections(&self, c: ChunkCtx) -> ChunkSections {
        ChunkSections {
            maps: self.maps.iter().map(|m| m.at(c)).collect(),
            dep_ins: self.dep_ins.iter().map(|d| d.at(c)).collect(),
            dep_outs: self.dep_outs.iter().map(|d| d.at(c)).collect(),
        }
    }

    pub(crate) fn build_target(&self, device: u32, c: ChunkCtx) -> Target {
        self.build_target_from(device, &self.chunk_sections(c))
    }

    /// [`Self::build_target`] over pre-evaluated sections: the warm
    /// launch path, which replays cached [`ChunkSections`] without
    /// calling a single map/dep closure.
    pub(crate) fn build_target_from(&self, device: u32, secs: &ChunkSections) -> Target {
        let mut t = Target::device(device)
            .nowait()
            .integrity(self.clauses.integrity);
        if let Some(depth) = self.clauses.overlap.depth() {
            if depth > 1 {
                t = t.overlap(depth);
            }
        }
        if self.serial {
            t = t.serial();
        } else {
            if let Some(n) = self.num_teams {
                t = t.num_teams(n);
            }
            if let Some(n) = self.num_threads {
                t = t.num_threads(n);
            }
        }
        t = t.map_list(Rc::clone(&secs.maps));
        for &d in &secs.dep_ins {
            t = t.depend_in(d);
        }
        for &d in &secs.dep_outs {
            t = t.depend_out(d);
        }
        t
    }

    /// Like [`Self::build_target`] but *without* the construct's
    /// `depend` clauses: a speculative rescue must race the original
    /// piece, not queue behind the dependences it publishes. Downstream
    /// synchronization still flows through the original's exit. The
    /// `spread_overlap` clause is also stripped: a rescue re-executes
    /// the **whole piece** un-pipelined, so first-commit-wins
    /// arbitration only ever sees whole-piece commits.
    pub(crate) fn build_rescue_target(&self, device: u32, c: ChunkCtx) -> Target {
        let mut t = Target::device(device)
            .nowait()
            .integrity(self.clauses.integrity);
        if self.serial {
            t = t.serial();
        } else {
            if let Some(n) = self.num_teams {
                t = t.num_teams(n);
            }
            if let Some(n) = self.num_threads {
                t = t.num_threads(n);
            }
        }
        for m in &self.maps {
            t = t.map(m.at(c));
        }
        t
    }

    /// Offload `kernel` over `range`, distributed across the devices.
    /// Returns the per-chunk construct task ids (for static schedules) —
    /// in chunk order.
    pub fn parallel_for(
        mut self,
        scope: &mut Scope<'_>,
        range: Range<usize>,
        kernel: KernelSpec,
    ) -> Result<Vec<TaskId>, RtError> {
        if self.devices.is_empty() {
            return Err(RtError::InvalidDirective(
                "target spread: devices(…) must not be empty".into(),
            ));
        }
        compose::check(
            Pragma::Spread,
            &Launch {
                nowait: self.nowait,
                ..Launch::of(&self.clauses)
            },
        )?;
        // Resolve `spread_schedule(auto)` into a concrete StaticWeighted
        // plan, so auto launches exactly where StaticWeighted does.
        let auto = if let Some(SpreadSchedule::Auto { key }) = &self.clauses.schedule {
            let key = key.clone();
            let weights = scope.adaptive_weights(&key, self.devices.len());
            let round = range.len().max(1);
            self.clauses.schedule = Some(SpreadSchedule::StaticWeighted {
                round,
                weights: weights.clone(),
            });
            Some((key, self.devices.clone(), weights, round, scope.now()))
        } else {
            None
        };
        // Resolve `spread_overlap(auto)` against the same construct key
        // (the check demands one): the ProfileStore explores depths
        // {1, 2, 4} first, then keeps the exponentially-weighted argmin
        // of construct duration.
        let auto_depth = match (&auto, self.clauses.overlap) {
            (Some((key, ..)), OverlapPolicy::Auto) => {
                let depth = scope.adaptive_depth(key);
                self.clauses.overlap = OverlapPolicy::Depth(depth);
                Some((key.clone(), depth, scope.now()))
            }
            _ => None,
        };
        let ids = if self.clauses.pressure != PressurePolicy::Fail {
            self.launch_pressure(scope, range, kernel)
        } else if matches!(self.schedule(), SpreadSchedule::Dynamic { .. }) {
            self.launch_dynamic(scope, range, kernel)
        } else {
            self.launch_static(scope, range, kernel)
        }?;
        if let Some((key, devices, weights, round, t0)) = auto {
            scope.record_construct_profile(&key, &devices, &weights, round, t0);
        }
        if let Some((key, depth, t0)) = auto_depth {
            scope.record_overlap_depth(&key, depth, t0);
        }
        Ok(ids)
    }

    /// The pressure-managed launch path: plan admission against live
    /// per-device headroom, record the degradation events the plan
    /// implies, then launch each piece — same-device pieces serialized
    /// enter-after-exit (which both bounds the real memory peak by one
    /// piece per device and re-establishes the §V-B gap ordering for
    /// halo-overlapping neighbors), host pieces through the spill
    /// executor. Each device piece is guarded for reactive splitting on
    /// post-retry [`RtError::OutOfMemory`].
    fn launch_pressure(
        self,
        scope: &mut Scope<'_>,
        range: Range<usize>,
        kernel: KernelSpec,
    ) -> Result<Vec<TaskId>, RtError> {
        let policy = self.clauses.pressure;
        // ── Planning phase (elided on a warm cache hit) ─────────────
        // The live headroom joins the fingerprint: a cached admission
        // plan is only replayed when admission would decide the exact
        // same ladder, so degradation events replay identically too.
        let headroom: HashMap<u32, u64> = self
            .devices
            .iter()
            .map(|&d| (d, scope.device_headroom(d)))
            .collect();
        let t_plan = std::time::Instant::now();
        let (fp, cached) = self.plan_lookup(scope, &range, Some(&headroom), t_plan);
        // As in `launch_static`: the plan stays behind its `Rc`; the
        // warm path replays the recorded degradation events but never
        // deep-copies the admission ladder or the sections.
        let plan: Rc<LaunchPlan> = match cached {
            Some(plan) => {
                let PlanBody::Pressure { pieces, events, .. } = &plan.body else {
                    return Err(RtError::InvalidDirective(
                        "target spread: spread_plan_cache(…) key is shared between a \
                         pressure-managed and a plain static construct"
                            .into(),
                    ));
                };
                #[cfg(debug_assertions)]
                {
                    let chunks = distribute(range.clone(), &self.devices, self.schedule());
                    let footprint = |start: usize, len: usize| self.footprint_bytes(start, len);
                    let fresh = pressure::plan_admission(
                        &chunks,
                        &self.devices,
                        &headroom,
                        &footprint,
                        policy,
                    )
                    .expect("plan cache replayed a plan admission would now reject");
                    assert_eq!(&fresh, pieces, "plan cache replayed a stale admission plan");
                }
                #[cfg(not(debug_assertions))]
                let _ = pieces;
                for ev in events.clone() {
                    scope.record(RunEvent::Degradation(ev));
                }
                plan
            }
            None => {
                self.schedule()
                    .validate("target spread", self.devices.len())?;
                let chunks = distribute(range, &self.devices, self.schedule());
                let pieces = {
                    let footprint = |start: usize, len: usize| self.footprint_bytes(start, len);
                    pressure::plan_admission(&chunks, &self.devices, &headroom, &footprint, policy)?
                };
                let events = pressure::degradation_events(&pieces);
                for ev in events.clone() {
                    scope.record(RunEvent::Degradation(ev));
                }
                let sections: Vec<Option<ChunkSections>> = pieces
                    .iter()
                    .map(|p| match p.placement {
                        Placement::Device(_) => {
                            Some(self.chunk_sections(ChunkCtx::new(p.start, p.len)))
                        }
                        Placement::Host => None,
                    })
                    .collect();
                let body = PlanBody::Pressure {
                    pieces,
                    events,
                    sections,
                };
                self.plan_store(scope, fp, body, t_plan)
            }
        };
        let PlanBody::Pressure {
            pieces, sections, ..
        } = &plan.body
        else {
            unreachable!("shape checked above")
        };
        // Straggler watch composes with pressure management over the
        // *device* pieces of the admission plan (host spills have no
        // kernel task to watch, and no commit to arbitrate).
        let straggle = self.straggles(pieces.iter().filter_map(|p| match p.placement {
            Placement::Device(d) => Some(d),
            Placement::Host => None,
        }));
        let this = Rc::new(self);
        let kernel = Rc::new(kernel);
        let rec = Recovery::new(Rc::clone(&this), Rc::clone(&kernel));
        let monitor = straggle.then(|| Monitor::new(Rc::clone(&rec), scope.now()));
        let mut tail: HashMap<u32, TaskId> = HashMap::new();
        let mut ids = Vec::with_capacity(pieces.len());
        for (piece, secs) in pieces.iter().zip(sections) {
            match piece.placement {
                Placement::Device(d) => {
                    let secs = secs.as_ref().expect("device pieces carry sections");
                    let t = this
                        .build_target_from(d, secs)
                        .pressure_managed()
                        .after(tail.get(&d).copied());
                    let piece = Piece {
                        device: d,
                        start: piece.start,
                        len: piece.len,
                    };
                    let exit = rec.launch_piece(scope, monitor.as_ref(), t, piece)?;
                    tail.insert(d, exit);
                    ids.push(exit);
                }
                Placement::Host => {
                    let id = spread_rt::spill_chunk(
                        scope,
                        format!("spread-spill[{}..{})", piece.start, piece.start + piece.len),
                        piece.range(),
                        Rc::clone(&kernel),
                        Vec::new(),
                    );
                    ids.push(id);
                }
            }
        }
        Self::drain(scope, &ids, monitor.as_ref())?;
        Ok(ids)
    }

    fn launch_static(
        self,
        scope: &mut Scope<'_>,
        range: Range<usize>,
        kernel: KernelSpec,
    ) -> Result<Vec<TaskId>, RtError> {
        let nowait = self.nowait;
        // ── Planning phase (elided on a warm cache hit) ─────────────
        let t_plan = std::time::Instant::now();
        let (fp, cached) = self.plan_lookup(scope, &range, None, t_plan);
        // The plan stays behind its `Rc` end to end — the warm path
        // must never deep-copy what it cached (that copy would eat the
        // very overhead the cache exists to remove).
        let plan: Rc<LaunchPlan> = match cached {
            Some(plan) => {
                let PlanBody::Static { chunks, sections } = &plan.body else {
                    return Err(RtError::InvalidDirective(
                        "target spread: spread_plan_cache(…) key is shared between a \
                         pressure-managed and a plain static construct"
                            .into(),
                    ));
                };
                #[cfg(debug_assertions)]
                {
                    // Debug builds pay the cold cost anyway to *prove*
                    // the replay: same chunks, same evaluated sections.
                    let fresh = distribute(range.clone(), &self.devices, self.schedule());
                    assert_eq!(&fresh, chunks, "plan cache replayed stale chunks");
                    for (i, ch) in fresh.iter().enumerate() {
                        let secs = self.chunk_sections(ChunkCtx::new(ch.start, ch.len));
                        assert_eq!(
                            secs, sections[i],
                            "plan cache replayed stale sections — is the plan key \
                             shared between two different constructs?"
                        );
                    }
                }
                #[cfg(not(debug_assertions))]
                let _ = (chunks, sections);
                plan
            }
            None => {
                // User input meets `distribute` here, on the cold branch
                // only: a malformed schedule fingerprints differently
                // from every stored plan, so a warm hit never pays.
                self.schedule()
                    .validate("target spread", self.devices.len())?;
                let chunks = distribute(range, &self.devices, self.schedule());
                let sections: Vec<ChunkSections> = chunks
                    .iter()
                    .map(|ch| self.chunk_sections(ChunkCtx::new(ch.start, ch.len)))
                    .collect();
                self.plan_store(scope, fp, PlanBody::Static { chunks, sections }, t_plan)
            }
        };
        let PlanBody::Static { chunks, sections } = &plan.body else {
            unreachable!("shape checked above")
        };
        let straggle = self.straggles(chunks.iter().filter_map(|c| c.device));
        let recovers = self.clauses.resilience == ResiliencePolicy::Redistribute
            || self.clauses.integrity == IntegrityMode::Heal;
        let this = Rc::new(self);
        // One spec for every chunk: a chunk launch shares it, never
        // copies it.
        let kernel = Rc::new(kernel);
        let rec =
            (recovers || straggle).then(|| Recovery::new(Rc::clone(&this), Rc::clone(&kernel)));
        let monitor = rec
            .as_ref()
            .filter(|_| straggle)
            .map(|r| Monitor::new(Rc::clone(r), scope.now()));
        let mut ids = Vec::with_capacity(chunks.len());
        for (chunk, secs) in chunks.iter().zip(sections) {
            let device = chunk.device.expect("static chunks are assigned");
            let t = this.build_target_from(device, secs);
            ids.push(match &rec {
                Some(rec) => {
                    let piece = Piece {
                        device,
                        start: chunk.start,
                        len: chunk.len,
                    };
                    rec.launch_piece(scope, monitor.as_ref(), t, piece)?
                }
                None => t.parallel_for(scope, chunk.range(), Rc::clone(&kernel))?,
            });
        }
        if !nowait {
            Self::drain(scope, &ids, monitor.as_ref())?;
        }
        Ok(ids)
    }

    /// The dynamic-schedule extension: per device, an asynchronous chain
    /// of claim→offload→claim continuations over a shared chunk queue; a
    /// device takes the next chunk as soon as its previous one finishes,
    /// absorbing load imbalance. The returned task ids are per-device
    /// "drained" markers (one per device, finished when that device's
    /// chain runs dry).
    fn launch_dynamic(
        self,
        scope: &mut Scope<'_>,
        range: Range<usize>,
        kernel: KernelSpec,
    ) -> Result<Vec<TaskId>, RtError> {
        self.schedule()
            .validate("target spread", self.devices.len())?;
        let chunks = distribute(range, &self.devices, self.schedule());
        let queue: Rc<RefCell<VecDeque<crate::schedule::Chunk>>> =
            Rc::new(RefCell::new(chunks.into_iter().collect()));
        let this = Rc::new(self);
        let kernel = Rc::new(kernel);

        /// Claim the next chunk for `device`; on completion of its
        /// offload, claim again. `done_gate` collects the whole chain.
        fn claim_next(
            s: &mut Scope<'_>,
            this: &Rc<TargetSpread>,
            queue: &Rc<RefCell<VecDeque<crate::schedule::Chunk>>>,
            kernel: &Rc<KernelSpec>,
            device: u32,
        ) {
            let next = queue.borrow_mut().pop_front();
            let Some(chunk) = next else { return };
            let c = ChunkCtx::new(chunk.start, chunk.len);
            let t = this.build_target(device, c); // nowait construct
            match t.parallel_for(s, chunk.range(), Rc::clone(kernel)) {
                Ok(construct_done) => {
                    let this = Rc::clone(this);
                    let queue = Rc::clone(queue);
                    let kernel = Rc::clone(kernel);
                    s.task_chained(
                        TaskLabel::on_device("spread-dyn-claim", device),
                        vec![construct_done],
                        None,
                        move |s| claim_next(s, &this, &queue, &kernel, device),
                    );
                }
                Err(e) => s.fail(e),
            }
        }

        let start_chains = |scope: &mut Scope<'_>| {
            let mut chain_heads = Vec::with_capacity(this.devices.len());
            for &device in this.devices.iter() {
                let this2 = Rc::clone(&this);
                let queue = Rc::clone(&queue);
                let kernel = Rc::clone(&kernel);
                let id = scope.task(TaskLabel::on_device("spread-dyn-start", device), move |s| {
                    claim_next(s, &this2, &queue, &kernel, device);
                });
                chain_heads.push(id);
            }
            chain_heads
        };
        if this.nowait {
            // Chains join the caller's current taskgroup context; the
            // caller synchronizes with taskgroup/taskwait as usual.
            Ok(start_chains(scope))
        } else {
            // Blocking: a taskgroup waits for the chains and every
            // descendant claim/offload they spawn.
            scope.taskgroup(start_chains)
        }
    }

    /// Extension (§IX "support for reduction clauses among devices"):
    /// run the spread loop and reduce a per-iteration partials array
    /// across all devices on the host.
    ///
    /// `kernel` must write `partials[i]` for every iteration `i` (declare
    /// it as a `Write` arg with the identity section expression); this
    /// method appends the `map(from: partials[chunk])` clause, blocks
    /// until all chunks complete, and folds `partials[range]` with `op`.
    pub fn parallel_for_reduce(
        mut self,
        scope: &mut Scope<'_>,
        range: Range<usize>,
        kernel: KernelSpec,
        partials: spread_rt::HostArray,
        op: crate::reduction::ReduceOp,
    ) -> Result<f64, RtError> {
        self.nowait = false;
        self.maps
            .push(crate::spread_map::spread_from(partials, |c| c.range()));
        let fold_range = range.clone();
        self.parallel_for(scope, range, kernel)?;
        let value = scope.with_host(partials, |p| {
            fold_range
                .clone()
                .map(|i| p[i])
                .fold(op.identity(), |a, b| op.combine(a, b))
        });
        Ok(value)
    }
}

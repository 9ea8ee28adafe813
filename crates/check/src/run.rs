//! The executor: lowers a [`Program`] onto the real runtime and runs it
//! under a chosen event-queue tie-break policy, collecting everything
//! the oracle predicts — final host arrays, reduction values, the
//! mapping-table snapshot, race reports, and the first error.

use spread_core::spread_map::SpreadMap;
use spread_core::testing::TargetSpreadTestingExt;
use spread_core::{
    spread_from, spread_to, spread_tofrom, ClauseSet, ExchangeMode, IntegrityMode, OverlapPolicy,
    PressurePolicy, ResiliencePolicy, SpreadClausesExt, SpreadSchedule, StragglerPolicy,
    TargetEnterDataSpread, TargetExitDataSpread, TargetSpread, TargetUpdateSpread,
};
use spread_devices::{DeviceSpec, Topology};
use spread_rt::kernel::KernelArg;
use spread_rt::{
    DegradationEvent, HostArray, IntegrityEvent, KernelSpec, MapType, RtError, Runtime,
    RuntimeConfig, Scope,
};
use spread_sim::{FaultPlan, SimTime, TieBreak};
use spread_trace::ConstructProfile;

use crate::ast::{BadKind, KernelOp, Program, Stmt};
use crate::{oracle, Fault};
use spread_rt::{OverlapRecord, RescueRecord};

/// The host staging-buffer bound the executor configures for pressure
/// programs: 8 pool elements, small enough that most spilled pieces
/// stream through in several map→compute→unmap slices.
pub const SPILL_STAGING_BYTES: u64 = 64;

/// Everything observed from one execution.
#[derive(Clone, Debug, PartialEq)]
pub struct Observed {
    /// Final host arrays.
    pub arrays: Vec<Vec<f64>>,
    /// Reduction results in statement order.
    pub reduces: Vec<f64>,
    /// `(array, start, len, refcount)` per device, sorted — from
    /// [`Runtime::mapping_snapshot`].
    pub mappings: Vec<Vec<(u32, usize, usize, u32)>>,
    /// Degradation events in program order, from
    /// [`Runtime::degradations`].
    pub degradations: Vec<DegradationEvent>,
    /// Per-construct adaptive profiles in launch order, from
    /// [`Runtime::profiles`] — non-empty only for
    /// `spread_schedule(auto)` programs (which run with tracing on).
    pub profiles: Vec<ConstructProfile>,
    /// Number of race reports.
    pub races: usize,
    /// Every peer copy the runtime performed, in enqueue order:
    /// `(src, dst, array, start, len, diverted)` — from
    /// [`Runtime::peer_copies`]. Empty unless the program carries
    /// [`Stmt::Halo`] statements executed under `exchange(auto)`.
    pub peer_copies: Vec<(u32, u32, u32, usize, usize, bool)>,
    /// Every straggler rescue the runtime performed, in detection
    /// order — from [`Runtime::rescues`]. Empty unless the program
    /// carries a [`crate::ast::StragglerSpec`].
    pub rescues: Vec<RescueRecord>,
    /// Every caught corruption, in detection order — from
    /// [`Runtime::integrity_events`]. Empty unless the program carries
    /// an [`crate::ast::IntegritySpec`] (or the peer canary arms a flip).
    pub integrity_events: Vec<IntegrityEvent>,
    /// Every pipelined piece the runtime ran, in completion order —
    /// from [`Runtime::overlap_records`]. Empty unless the program
    /// carries an [`crate::ast::OverlapSpec`].
    pub overlap: Vec<OverlapRecord>,
    /// The first error, if any.
    pub error: Option<RtError>,
}

/// One [`execute_cached`] run: the ordinary observables plus the two
/// things the cache-parity suite additionally diffs — the full span
/// timeline and the plan-cache counters.
#[derive(Clone, Debug)]
pub struct CacheRun {
    /// Everything [`execute_ex`] observes.
    pub observed: Observed,
    /// The merged span timeline (tracing is forced on for both parity
    /// legs so the comparison covers it byte for byte).
    pub timeline: Vec<spread_trace::Span>,
    /// Hit/miss/invalidation counters and planning-time totals.
    pub plan: spread_rt::PlanCacheStats,
}

/// One lowering of a [`Program`] onto the runtime: the program with
/// every scenario it carries, the injected canary, the `exchange(…)`
/// route of its halo refreshes, and — for the cache-parity legs — the
/// runtime's plan-cache flag.
struct Lowering<'a> {
    p: &'a Program,
    inject: Option<Fault>,
    exchange: ExchangeMode,
    parity: Option<bool>,
}

impl Lowering<'_> {
    /// Tracing stays off unless the program uses `spread_schedule(auto)`
    /// (the conformance assertions do not need span records —
    /// `tests/determinism.rs` covers the timeline — but the adaptive
    /// profile layer learns from spans) or a parity leg diffs the
    /// timeline.
    fn trace(&self) -> bool {
        self.p.uses_auto() || self.parity.is_some()
    }

    /// Build the harness's machine: uniform devices, two team threads,
    /// and every scenario the program carries lowered into one
    /// [`FaultPlan`]. Every entry fires at time zero — the loss, the
    /// transient bursts, the pressure windows, the slowdowns, the flip
    /// bursts — so the outcome is a pure function of the program, the
    /// same under every tie-break.
    fn runtime(&self, tie: TieBreak) -> Runtime {
        let p = self.p;
        // Pressure programs run on their spec's tiny capacity;
        // everything else gets ample memory so admission never
        // interferes.
        let mem_bytes = p.pressure.as_ref().map_or(1 << 22, |ps| ps.cap_bytes);
        let topo = Topology::uniform(
            p.n_devices,
            DeviceSpec::v100().with_mem_bytes(mem_bytes),
            1e9,
            1.6e9,
        );
        let mut cfg = RuntimeConfig::new(topo)
            .with_team_threads(2)
            .with_trace(self.trace())
            .with_tie_break(tie);
        if let Some(on) = self.parity {
            cfg = cfg.with_plan_cache(on);
        }
        // A fixed plan seed: it only feeds retry-backoff jitter, which
        // shifts virtual timing, never results.
        let mut plan = FaultPlan::new(0xFA17);
        if let Some(f) = &p.fault {
            if let Some(d) = f.lost {
                plan = plan.lose_device(d, SimTime::ZERO);
            }
            for &(d, count) in &f.transients {
                plan = plan.transient_copies(d, SimTime::ZERO, count);
            }
        }
        if let Some(ps) = &p.pressure {
            cfg = cfg.with_spill_staging_bytes(SPILL_STAGING_BYTES);
            for &(d, bytes) in &ps.sustained {
                plan = plan.sustain_pressure(d, SimTime::ZERO, bytes);
            }
        }
        if let Some(ss) = &p.straggler {
            for &(d, factor) in &ss.slow {
                plan = plan.slow_compute(d, SimTime::ZERO, SimTime::MAX, factor as f64);
            }
        }
        if let Some(is) = &p.integrity {
            for &(d, count) in &is.flips {
                plan = plan.silent_flips(d, SimTime::ZERO, count);
            }
        }
        if self.inject == Some(Fault::PeerCorrupt) && self.exchange != ExchangeMode::Host {
            // The `--inject peer` canary: one in-flight flip armed
            // against the destination device of the first predicted
            // peer route — only when the exchange takes the peer path,
            // so the host-forced legs stay bit-clean.
            if let Some(route) = oracle::predict_peer_copies(p).first() {
                plan = plan.silent_flips(route.1, SimTime::ZERO, 1);
            }
        }
        if !plan.is_empty() {
            cfg = cfg.with_fault_plan(plan);
        }
        Runtime::new(cfg)
    }

    /// The clause set of a plain construct: its schedule, the program's
    /// resilience policy and — on a parity leg — a plan key. One `key`
    /// ⇔ one closure shape, so the `spread_plan_cache` one-key-one-
    /// construct contract holds; the fingerprint separates everything
    /// else (devices, schedule, arrays). Only static schedules are
    /// keyed: dynamic ones reject the clause and `auto` never hits.
    fn clauses(&self, sched: SpreadSchedule, key: &str) -> ClauseSet {
        let keyed = self.parity.is_some()
            && matches!(
                sched,
                SpreadSchedule::Static { .. } | SpreadSchedule::StaticWeighted { .. }
            );
        let resilience = if self.p.resilient() {
            ResiliencePolicy::Redistribute
        } else {
            ResiliencePolicy::FailStop
        };
        let set = ClauseSet::default()
            .with_schedule(sched)
            .with_resilience(resilience);
        if keyed {
            set.with_plan_cache(key)
        } else {
            set
        }
    }

    /// The clause set of a [`Stmt::Spread`]: a plain construct's, plus
    /// the clause of every scenario the program carries.
    fn spread_clauses(&self, sched: SpreadSchedule, op: &KernelOp) -> ClauseSet {
        let p = self.p;
        let mut set = self.clauses(sched, op.name());
        if let Some(mode) = p.integrity_mode() {
            set = set.with_integrity(mode);
        }
        if let Some(depth) = p.overlap_depth() {
            set = set.with_overlap(OverlapPolicy::Depth(depth));
        }
        if let Some(policy) = p.pressure_policy() {
            set = set.with_pressure(policy);
        }
        if let Some(policy) = p.straggler_policy() {
            set = set.with_straggler(policy);
        }
        set
    }

    /// One `target spread` over `op` carrying `clauses`.
    fn issue_spread(
        &self,
        s: &mut Scope<'_>,
        handles: &[HostArray],
        devices: &[u32],
        clauses: ClauseSet,
        nowait: bool,
        op: &KernelOp,
    ) -> Result<(), RtError> {
        let range = op.range(self.p.n);
        let mut b = TargetSpread::devices(devices.iter().copied()).with_clauses(clauses);
        // Straggler constructs run serial lanes with a 2000×
        // per-iteration cost, so kernel work dominates the progress
        // window and a slowed piece reliably blows the 4× deadline
        // (launch latency and the enter copies would otherwise hide the
        // slowdown).
        let straggling = b.straggler() != StragglerPolicy::Wait;
        let cost = if straggling { 2000.0 } else { 1.0 };
        if straggling {
            b = b.num_teams(1).num_threads(1);
        }
        // The runtime-side canaries, each armed only on a construct
        // carrying the clause it perturbs — and each a deliberate bug
        // the harness must catch as divergence from the (correct)
        // oracle. (`--inject peer` perturbs the fault plan instead, see
        // `runtime`; the remaining faults perturb the oracle.)
        b = match self.inject {
            // Silently drop the last slice of every spilled piece.
            Some(Fault::SpillDropsSlice) if b.pressure() != PressurePolicy::Fail => {
                b.inject_drop_last_spill_slice()
            }
            // Let the losing copy of every rescue commit its staged
            // writes anyway, first element perturbed.
            Some(Fault::RescueDoubleCommit) if straggling => b.inject_rescue_double_commit(),
            // Commit one staged sub-slice to host memory before the
            // whole-piece commit point, first element perturbed.
            Some(Fault::OverlapLeak) if b.overlap() != OverlapPolicy::Off => {
                b.inject_overlap_leak()
            }
            // Downgrade `spread_integrity(…)` to `off` while the
            // program's flip bursts stay armed.
            Some(Fault::IntegrityCorrupt) => b.with_integrity(IntegrityMode::Off),
            _ => b,
        };
        if nowait {
            b = b.nowait();
        }
        let name = op.name();
        match *op {
            KernelOp::AddConst { a, c } => {
                let h = handles[a];
                b.map(spread_tofrom(h, |c| c.range())).parallel_for(
                    s,
                    range,
                    KernelSpec::new(name, cost, move |r, v| {
                        for i in r {
                            v.set(0, i, v.get(0, i) + c);
                        }
                    })
                    .arg(KernelArg::read_write(h, |r| r)),
                )?;
            }
            KernelOp::Scale { a, c } => {
                let h = handles[a];
                b.map(spread_tofrom(h, |c| c.range())).parallel_for(
                    s,
                    range,
                    KernelSpec::new(name, cost, move |r, v| {
                        for i in r {
                            v.set(0, i, v.get(0, i) * c);
                        }
                    })
                    .arg(KernelArg::read_write(h, |r| r)),
                )?;
            }
            KernelOp::Saxpy { x, y, alpha } => {
                let hx = handles[x];
                let hy = handles[y];
                b.map(spread_to(hx, |c| c.range()))
                    .map(spread_tofrom(hy, |c| c.range()))
                    .parallel_for(
                        s,
                        range,
                        KernelSpec::new(name, cost, move |r, v| {
                            for i in r {
                                v.set(1, i, v.get(1, i) + alpha * v.get(0, i));
                            }
                        })
                        .arg(KernelArg::read(hx, |r| r))
                        .arg(KernelArg::read_write(hy, |r| r)),
                    )?;
            }
            KernelOp::Stencil3 { src, dst } => {
                let hs = handles[src];
                let hd = handles[dst];
                b.map(spread_to(hs, |c| c.start() - 1..c.end() + 1))
                    .map(spread_from(hd, |c| c.range()))
                    .parallel_for(
                        s,
                        range,
                        KernelSpec::new(name, 2.0 * cost, move |r, v| {
                            for i in r {
                                let sum = v.get(0, i - 1) + v.get(0, i) + v.get(0, i + 1);
                                v.set(1, i, sum);
                            }
                        })
                        .arg(KernelArg::read(hs, |r| r.start - 1..r.end + 1))
                        .arg(KernelArg::write(hd, |r| r)),
                    )?;
            }
        }
        Ok(())
    }

    /// The in-place `a[i] += c` body of a data region or halo bump: a
    /// plain blocking construct over the region's own chunking, reusing
    /// its persistent mapping.
    fn issue_body(
        &self,
        s: &mut Scope<'_>,
        handles: &[HostArray],
        devices: &[u32],
        chunk: usize,
        op: KernelOp,
    ) -> Result<(), RtError> {
        let clauses = self.clauses(SpreadSchedule::static_chunk(chunk), op.name());
        self.issue_spread(s, handles, devices, clauses, false, &op)
    }

    fn issue(
        &self,
        s: &mut Scope<'_>,
        handles: &[HostArray],
        reduces: &mut Vec<f64>,
        stmt: &Stmt,
    ) -> Result<(), RtError> {
        let p = self.p;
        match stmt {
            Stmt::Spread {
                devices,
                sched,
                nowait,
                op,
            } => {
                let clauses = self.spread_clauses(sched.to_schedule(), op);
                self.issue_spread(s, handles, devices, clauses, *nowait, op)
            }
            Stmt::Reduce {
                devices,
                sched,
                a,
                partials,
                alpha,
                op,
            } => {
                let ha = handles[*a];
                let hp = handles[*partials];
                let alpha = *alpha;
                let b = TargetSpread::devices(devices.iter().copied())
                    .with_clauses(self.clauses(sched.to_schedule(), "reduce"));
                let value = b.map(spread_to(ha, |c| c.range())).parallel_for_reduce(
                    s,
                    0..p.n,
                    KernelSpec::new("partials", 1.0, move |r, v| {
                        for i in r {
                            v.set(1, i, alpha * v.get(0, i));
                        }
                    })
                    .arg(KernelArg::read(ha, |r| r))
                    .arg(KernelArg::write(hp, |r| r)),
                    hp,
                    *op,
                )?;
                reduces.push(value);
                Ok(())
            }
            Stmt::DataRegion {
                devices,
                chunk,
                a,
                body_add,
                update_from,
                exit_from,
            } => {
                let h = handles[*a];
                TargetEnterDataSpread::devices(devices.iter().copied())
                    .range(0, p.n)
                    .chunk_size(*chunk)
                    .map(spread_to(h, |c| c.range()))
                    .launch(s)?;
                if let Some(c) = *body_add {
                    let body = KernelOp::AddConst { a: *a, c };
                    self.issue_body(s, handles, devices, *chunk, body)?;
                }
                if *update_from {
                    TargetUpdateSpread::devices(devices.iter().copied())
                        .range(0, p.n)
                        .chunk_size(*chunk)
                        .from(h, |c| c.range())
                        .launch(s)?;
                }
                let exit_map = if *exit_from {
                    spread_from(h, |c| c.range())
                } else {
                    SpreadMap::new(MapType::Release, h, |c| c.range())
                };
                TargetExitDataSpread::devices(devices.iter().copied())
                    .range(0, p.n)
                    .chunk_size(*chunk)
                    .map(exit_map)
                    .launch(s)?;
                Ok(())
            }
            Stmt::Halo {
                devices,
                chunk,
                a,
                dst,
                bump,
            } => {
                let n = p.n;
                let h = handles[*a];
                let hd = handles[*dst];
                let halo = move |c: spread_core::ChunkCtx| {
                    c.start().saturating_sub(1)..(c.end() + 1).min(n)
                };
                TargetEnterDataSpread::devices(devices.iter().copied())
                    .range(0, n)
                    .chunk_size(*chunk)
                    .map(spread_to(h, halo))
                    .launch(s)?;
                if let Some(c) = *bump {
                    // Reuses the persistent mapping (exact-body
                    // containment) so the bumped bytes never reach the
                    // host: every sibling image goes stale and the
                    // exchange planner must route each halo through the
                    // host.
                    let body = KernelOp::AddConst { a: *a, c };
                    self.issue_body(s, handles, devices, *chunk, body)?;
                }
                TargetUpdateSpread::devices(devices.iter().copied())
                    .range(0, n)
                    .chunk_size(*chunk)
                    .to(h, |c| c.start().saturating_sub(1)..c.start())
                    .to(h, move |c| c.end()..(c.end() + 1).min(n))
                    .exchange(self.exchange)
                    .launch(s)?;
                // Clamped 3-point stencil over the refreshed window: the
                // `to` map is the exact halo'd section (pure reuse, no
                // copy), and the `from` map carries the freshly exchanged
                // halo bytes into the final host state of `dst`.
                let n1 = n - 1;
                let stencil = self.clauses(SpreadSchedule::static_chunk(*chunk), "halo-stencil");
                TargetSpread::devices(devices.iter().copied())
                    .with_clauses(stencil)
                    .map(spread_to(h, halo))
                    .map(spread_from(hd, |c| c.range()))
                    .parallel_for(
                        s,
                        0..n,
                        KernelSpec::new("halo-stencil", 2.0, move |r, v| {
                            for i in r {
                                let l = if i == 0 { i } else { i - 1 };
                                let rr = if i == n1 { i } else { i + 1 };
                                v.set(1, i, v.get(0, l) + v.get(0, i) + v.get(0, rr));
                            }
                        })
                        .arg(KernelArg::read(h, move |r| {
                            r.start.saturating_sub(1)..(r.end + 1).min(n)
                        }))
                        .arg(KernelArg::write(hd, |r| r)),
                    )?;
                TargetExitDataSpread::devices(devices.iter().copied())
                    .range(0, n)
                    .chunk_size(*chunk)
                    .map(SpreadMap::new(MapType::Release, h, halo))
                    .launch(s)?;
                Ok(())
            }
            Stmt::RawEnter {
                device,
                a,
                start,
                len,
            } => {
                TargetEnterDataSpread::devices([*device])
                    .range(*start, *len)
                    .chunk_size(*len)
                    .map(spread_to(handles[*a], |c| c.range()))
                    .launch(s)?;
                Ok(())
            }
            Stmt::RawExit {
                device,
                a,
                start,
                len,
                delete,
            } => {
                let mt = if *delete {
                    MapType::Delete
                } else {
                    MapType::From
                };
                TargetExitDataSpread::devices([*device])
                    .range(*start, *len)
                    .chunk_size(*len)
                    .map(SpreadMap::new(mt, handles[*a], |c| c.range()))
                    .launch(s)?;
                Ok(())
            }
            Stmt::RawUpdate {
                device,
                a,
                start,
                len,
                from,
            } => {
                let mut b = TargetUpdateSpread::devices([*device])
                    .range(*start, *len)
                    .chunk_size(*len);
                if *from {
                    b = b.from(handles[*a], |c| c.range());
                } else {
                    b = b.to(handles[*a], |c| c.range());
                }
                b.launch(s)?;
                Ok(())
            }
            Stmt::Bad { a, kind } => {
                let h = handles[*a];
                match kind {
                    BadKind::DynamicDataSchedule => {
                        TargetEnterDataSpread::devices([0])
                            .with_schedule(SpreadSchedule::dynamic(4))
                            .range(0, p.n)
                            .chunk_size(4)
                            .map(spread_to(h, |c| c.range()))
                            .launch(s)?;
                    }
                    BadKind::MissingChunkSize => {
                        TargetEnterDataSpread::devices([0])
                            .range(0, p.n)
                            .map(spread_to(h, |c| c.range()))
                            .launch(s)?;
                    }
                    BadKind::EmptyDevices => {
                        TargetSpread::devices([]).parallel_for(
                            s,
                            0..p.n,
                            KernelSpec::new("noop", 1.0, |_, _| {}),
                        )?;
                    }
                }
                Ok(())
            }
        }
    }

    /// Run the program under `tie` and collect everything observable.
    fn run(&self, tie: TieBreak) -> CacheRun {
        let p = self.p;
        let mut rt = self.runtime(tie);
        let handles: Vec<HostArray> = (0..p.n_arrays)
            .map(|k| rt.host_array(format!("A{k}"), p.n))
            .collect();
        for (k, &h) in handles.iter().enumerate() {
            rt.fill_host(h, move |i| Program::initial(k, i));
        }
        let mut reduces = Vec::new();
        // A parity leg replays the whole phase list a second time inside
        // the same runtime: fuzz programs execute each statement once,
        // so only a repeat pass makes the warm leg actually *replay*
        // cached plans (the cold leg re-plans the identical launches).
        // Both legs repeat identically, so the differential still
        // compares like with like.
        let passes = if self.parity.is_some() { 2 } else { 1 };
        let result = rt.run(|s| {
            for _ in 0..passes {
                for phase in &p.phases {
                    for stmt in phase {
                        self.issue(s, &handles, &mut reduces, stmt)?;
                    }
                    // Phase barrier: everything `nowait` drains here.
                    s.drain_all()?;
                }
            }
            Ok(())
        });
        let mappings = rt
            .mapping_snapshot()
            .into_iter()
            .map(|per_dev| {
                per_dev
                    .into_iter()
                    .map(|(sec, rc)| (sec.array.0, sec.start, sec.len, rc))
                    .collect()
            })
            .collect();
        let observed = Observed {
            arrays: handles.iter().map(|&h| rt.snapshot_host(h)).collect(),
            reduces,
            mappings,
            degradations: rt.degradations(),
            profiles: rt.profiles(),
            races: rt.races().len(),
            rescues: rt.rescues(),
            integrity_events: rt.integrity_events(),
            overlap: rt.overlap_records(),
            peer_copies: rt
                .peer_copies()
                .iter()
                .map(|r| {
                    (
                        r.src,
                        r.dst,
                        r.section.array.0,
                        r.section.start,
                        r.section.len,
                        r.diverted,
                    )
                })
                .collect(),
            error: result.err(),
        };
        CacheRun {
            observed,
            timeline: if self.trace() {
                rt.trace().snapshot()
            } else {
                Vec::new()
            },
            plan: rt.plan_stats(),
        }
    }
}

/// Execute `p` under `tie` and report what the runtime observed.
/// `inject` perturbs the *runtime* when it is one of the runtime-side
/// canaries (see [`Fault`]); the oracle-side ones are ignored here.
/// [`Stmt::Halo`] exchanges run through the host — see [`execute_ex`]
/// for the peer route.
pub fn execute(p: &Program, tie: TieBreak, inject: Option<Fault>) -> Observed {
    execute_ex(p, tie, inject, ExchangeMode::Host)
}

/// [`execute`] with an explicit `exchange(…)` route for every
/// [`Stmt::Halo`] refresh in the program (other statements never
/// exchange). Under [`Fault::PeerCorrupt`] the fault plan arms one
/// in-flight [`spread_sim::PlannedFault::SilentFlip`] against the
/// destination device of the first predicted peer route — and only
/// when `exchange` takes the peer path, so the host-forced legs stay
/// bit-clean. That asymmetry is exactly what makes the canary a proof
/// that the differential harness watches the peer route.
pub fn execute_ex(
    p: &Program,
    tie: TieBreak,
    inject: Option<Fault>,
    exchange: ExchangeMode,
) -> Observed {
    Lowering {
        p,
        inject,
        exchange,
        parity: None,
    }
    .run(tie)
    .observed
}

/// The cache-parity executor: lowers `p` exactly like [`execute_ex`]
/// but attaches a `spread_plan_cache(…)` key to every static-schedule
/// construct and forces tracing on, so two runs — `cache_on = false`
/// (the cold planner) and `cache_on = true` (the warm cache) — can be
/// diffed observable-for-observable, timeline included. The *only*
/// difference between the legs is the runtime's cache flag.
pub fn execute_cached(
    p: &Program,
    tie: TieBreak,
    inject: Option<Fault>,
    exchange: ExchangeMode,
    cache_on: bool,
) -> CacheRun {
    Lowering {
        p,
        inject,
        exchange,
        parity: Some(cache_on),
    }
    .run(tie)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{PressureSpec, Sched};

    #[test]
    fn executor_matches_a_hand_prediction() {
        let p = Program {
            phases: vec![vec![Stmt::Spread {
                devices: vec![1, 0],
                sched: Sched::Static { chunk: 3 },
                nowait: false,
                op: KernelOp::AddConst { a: 0, c: 1.5 },
            }]],
            ..Program::new(2, 12, 1)
        };
        let o = execute(&p, TieBreak::Fifo, None);
        assert!(o.error.is_none(), "{:?}", o.error);
        assert_eq!(o.races, 0);
        for i in 0..12 {
            assert_eq!(o.arrays[0][i], Program::initial(0, i) + 1.5);
        }
        assert!(o.mappings.iter().all(|d| d.is_empty()));
        assert!(o.degradations.is_empty());
    }

    #[test]
    fn auto_program_records_one_profile_per_launch() {
        let stmt = |c: f64| Stmt::Spread {
            devices: vec![0, 1],
            sched: Sched::Auto { key: 3 },
            nowait: false,
            op: KernelOp::AddConst { a: 0, c },
        };
        let p = Program {
            phases: vec![vec![stmt(1.0)], vec![stmt(0.5)]],
            ..Program::new(2, 24, 1)
        };
        let o = execute(&p, TieBreak::Fifo, None);
        assert!(o.error.is_none(), "{:?}", o.error);
        assert_eq!(o.races, 0);
        assert_eq!(o.profiles.len(), 2);
        assert_eq!(o.profiles[0].key, "auto-3");
        assert_eq!(o.profiles[0].launch, 0);
        assert_eq!(o.profiles[1].launch, 1);
        assert_eq!(o.profiles[0].weights.len(), 2);
        for i in 0..24 {
            assert_eq!(o.arrays[0][i], Program::initial(0, i) + 1.5);
        }
    }

    #[test]
    fn raw_leak_shows_in_snapshot() {
        let p = Program {
            phases: vec![vec![Stmt::RawEnter {
                device: 0,
                a: 0,
                start: 2,
                len: 5,
            }]],
            ..Program::new(1, 12, 1)
        };
        let o = execute(&p, TieBreak::Fifo, None);
        assert!(o.error.is_none(), "{:?}", o.error);
        assert_eq!(o.mappings[0], vec![(0, 2, 5, 1)]);
    }

    #[test]
    fn lowered_fault_plan_kills_and_recovers() {
        use crate::ast::{FaultMode, FaultSpec};
        let mut p = Program {
            phases: vec![vec![Stmt::Spread {
                devices: vec![0, 1],
                sched: Sched::Static { chunk: 3 },
                nowait: false,
                op: KernelOp::AddConst { a: 0, c: 1.5 },
            }]],
            fault: Some(FaultSpec {
                lost: Some(1),
                mode: FaultMode::FailStop,
                transients: vec![],
            }),
            ..Program::new(2, 12, 1)
        };
        let o = execute(&p, TieBreak::Fifo, None);
        assert!(
            matches!(o.error, Some(RtError::DeviceLost { device: 1, .. })),
            "{:?}",
            o.error
        );
        // The same loss under redistribute completes with the right values.
        p.fault.as_mut().unwrap().mode = FaultMode::Resilient;
        let o = execute(&p, TieBreak::Fifo, None);
        assert!(o.error.is_none(), "{:?}", o.error);
        for i in 0..12 {
            assert_eq!(o.arrays[0][i], Program::initial(0, i) + 1.5);
        }
    }

    #[test]
    fn lowered_pressure_spec_degrades_and_the_canary_truncates() {
        // One device whose 64 bytes are fully held by a sustained
        // window: the single 12-iteration chunk (96 B) is hopeless on
        // every device and spills through the host staging buffer in
        // two 64-byte slices.
        let p = Program {
            phases: vec![vec![Stmt::Spread {
                devices: vec![0],
                sched: Sched::Static { chunk: 12 },
                nowait: false,
                op: KernelOp::AddConst { a: 0, c: 1.5 },
            }]],
            pressure: Some(PressureSpec {
                policy: PressurePolicy::Spill,
                cap_bytes: 64,
                sustained: vec![(0, 64)],
            }),
            ..Program::new(1, 12, 1)
        };
        let o = execute(&p, TieBreak::Fifo, None);
        assert!(o.error.is_none(), "{:?}", o.error);
        assert_eq!(o.races, 0);
        assert_eq!(o.degradations.len(), 1, "{:?}", o.degradations);
        assert!(o.degradations[0].device.is_none(), "spilled to the host");
        for i in 0..12 {
            assert_eq!(o.arrays[0][i], Program::initial(0, i) + 1.5);
        }
        // The spill canary silently drops the last slice's writes.
        let o = execute(&p, TieBreak::Fifo, Some(Fault::SpillDropsSlice));
        assert!(o.error.is_none(), "{:?}", o.error);
        assert_ne!(
            o.arrays[0][11],
            Program::initial(0, 11) + 1.5,
            "the dropped slice must be observable"
        );
    }
}

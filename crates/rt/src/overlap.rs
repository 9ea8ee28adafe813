//! The pipelined transfer/compute overlap engine behind
//! `spread_overlap(depth)`.
//!
//! A classic construct moves its whole chunk in, runs one kernel, and
//! moves the whole chunk out — three strictly serial phases per device
//! (the paper's One-Buffer discipline). With `spread_overlap(depth)` the
//! runtime splits the chunk's iteration range into `depth` contiguous
//! *stages* and software-pipelines them per device:
//!
//! ```text
//! H2D:   [s0][s1][s2][s3]
//! krnl:      [s0][s1][s2][s3]
//! D2H:           [s0][s1][s2][s3]
//! ```
//!
//! Every pipelined copy and sub-kernel is *streamed* — it skips the
//! device's default-stream [`SerialGate`](spread_devices::gate) so the
//! copy engines and the compute queue run concurrently — while the
//! per-engine FIFO still orders the stages among themselves, which is
//! exactly the multi-stream + in-order-queue model of a real device.
//!
//! ## What stays whole
//!
//! The pipeline is an *internal* reorganization of one construct; its
//! external contract is unchanged:
//!
//! - The construct still consists of exactly three tasks
//!   (enter → kernel → exit), so `depend`, straggler watching,
//!   resilience guards and cancellation see the same shape.
//! - D2H sub-slices are staged like any other exit and drained
//!   all-or-nothing at the exit's commit point, through the same
//!   `staged_commit_finish` the classic path uses — the commit gate,
//!   integrity verification and healing, and the rescue records all observe
//!   whole-piece commits. No sub-slice commit is externally visible.
//! - Under allocation backpressure an enter that cannot get memory
//!   parks classically and the construct *bypasses* the pipeline
//!   (degrades to the un-pipelined path) rather than deadlocking.
//!
//! ## Transfer slicing and coalescing
//!
//! Stage `j` of an H2D copy ships the bytes the sub-kernel over stage
//! `j` is the first to touch (per the kernel's declared `section_of`
//! argument windows, halos included); bytes no stage reads — the
//! written-only region of a `tofrom` map — ship with stage 0, before
//! any read-modify-write sub-kernel may run. Adjacent per-argument runs
//! are merged into single DMA descriptors. D2H is predicted at kernel
//! launch from the exit-equivalent maps (`refcount == 1` means the exit
//! will release the entry and copy out) and reconciled against the real
//! exit plan — a misprediction falls back to a whole-section copy, and
//! staged sub-slices whose entry survives the exit are discarded
//! unwritten.

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::rc::Rc;

use spread_devices::compute::KernelOp;
use spread_devices::dma::DmaOp;
use spread_devices::node::DeviceHandle;
use spread_devices::AllocId;
use spread_sim::Simulator;

use crate::error::RtError;
use crate::integrity::IntegrityMode;
use crate::kernel::{self, KernelSpec, ResolvedArg};
use crate::map::MapClause;
use crate::runtime::{
    complete_task, fault_error, flip_one_bit, run_kernel, run_transfers_ex, span_label,
    staged_commit_finish, task_failed, CommitArgs, Completion, CopyKind, CopyLabel, CopyPlanItem,
    Inner, KernelLaunch, StagedWrite, TransferSet,
};
use crate::section::Section;
use crate::task::TaskId;
use crate::team::Team;

/// One completed (or degraded) pipelined construct, in completion
/// order. The conformance harness checks `staged == committed` on every
/// clean record — the whole-piece commit contract — and that a
/// pipelined run really pipelined (`depth >= 2`, descriptors split).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OverlapRecord {
    /// Device the piece ran on.
    pub device: u32,
    /// First loop iteration of the piece.
    pub start: usize,
    /// Iteration count of the piece.
    pub len: usize,
    /// Effective pipeline depth (requested depth clamped to the range).
    pub depth: u32,
    /// Pipelined H2D descriptors issued (after coalescing).
    pub h2d_ops: u32,
    /// Pipelined D2H descriptors predicted and issued.
    pub d2h_ops: u32,
    /// Staged sub-slice snapshots taken, counted as each D2H effect
    /// stages one (less those the exit discards as stale). A sub-slice
    /// committed before the whole-piece boundary still counts here but
    /// not in `committed`.
    pub staged: u32,
    /// Snapshots actually drained to host memory by the commit (0 when
    /// the commit gate lost the race or the drain failed verification).
    pub committed: u32,
    /// The construct degraded to the classic un-pipelined path (enter
    /// parked under allocation backpressure).
    pub bypassed: bool,
}

/// A half-open interval of loop iterations / array elements.
type Iv = Range<usize>;

/// Sort and coalesce intervals: overlapping or *adjacent* runs become
/// one — this is the DMA-descriptor coalescing step (two arguments
/// reading abutting sections of one array produce a single transfer).
fn merge(mut v: Vec<Iv>) -> Vec<Iv> {
    v.retain(|r| r.start < r.end);
    v.sort_by_key(|r| r.start);
    let mut out: Vec<Iv> = Vec::with_capacity(v.len());
    for r in v {
        match out.last_mut() {
            Some(last) if r.start <= last.end => last.end = last.end.max(r.end),
            _ => out.push(r),
        }
    }
    out
}

/// `a \ b` where both lists are merged (sorted, disjoint).
fn subtract(a: &[Iv], b: &[Iv]) -> Vec<Iv> {
    let mut out = Vec::new();
    for r in a {
        let mut cur = r.start;
        for s in b {
            if s.end <= cur {
                continue;
            }
            if s.start >= r.end {
                break;
            }
            if s.start > cur {
                out.push(cur..s.start.min(r.end));
            }
            cur = cur.max(s.end);
            if cur >= r.end {
                break;
            }
        }
        if cur < r.end {
            out.push(cur..r.end);
        }
    }
    out
}

/// The part of `r` inside `within`, if any.
fn clip(r: &Iv, within: &Iv) -> Option<Iv> {
    let s = r.start.max(within.start);
    let e = r.end.min(within.end);
    (s < e).then_some(s..e)
}

/// Split `range` into `depth` contiguous stages of near-equal length
/// (earlier stages take the remainder), clamped so no stage is empty.
pub(crate) fn split_stages(range: &Range<usize>, depth: u32) -> Vec<Range<usize>> {
    let n = range.len();
    let k = (depth as usize).clamp(1, n.max(1));
    let base = n / k;
    let extra = n % k;
    let mut out = Vec::with_capacity(k);
    let mut cur = range.start;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        out.push(cur..cur + len);
        cur += len;
    }
    out
}

/// One predicted D2H descriptor: a sub-range of a dying map's section.
struct SubCopy {
    sec: Section,
    alloc: AllocId,
    /// Element offset of `sec.start` within the device buffer.
    offset: usize,
    label: CopyLabel,
}

/// Kernel-phase context captured once when the kernel task starts.
struct KernelCtx {
    dev: DeviceHandle,
    team: Rc<Team>,
    resolved: Rc<Vec<ResolvedArg>>,
    kernel: Rc<KernelSpec>,
    teams: u32,
    threads_per_team: u32,
    integrity: IntegrityMode,
}

/// Shared state of one pipelined construct, threaded through the three
/// phase actions and every streamed operation's callbacks.
pub(crate) struct PipeState {
    device: u32,
    stages: Vec<Range<usize>>,
    /// Outstanding H2D descriptors per stage; a stage at zero has all
    /// its input bytes resident.
    h2d_pending: Vec<Cell<usize>>,
    /// Next sub-kernel stage to launch.
    next_kernel: Cell<usize>,
    /// Sub-kernels completed so far.
    kernels_done: Cell<usize>,
    kernel_started: Cell<bool>,
    kernel_task: Cell<Option<TaskId>>,
    /// A fault was already routed to the kernel task (route at most
    /// once — the recovery handler is one-shot).
    fault_routed: Cell<bool>,
    krn: RefCell<Option<KernelCtx>>,
    /// Predicted per-stage D2H descriptors, drained as stages complete.
    d2h_stages: RefCell<Vec<Vec<SubCopy>>>,
    /// Map-level sections the D2H prediction covered.
    predicted: RefCell<Vec<Section>>,
    /// Stage-0 H2D descriptors: the enter task completes (or fails) when
    /// the last of them lands.
    enter: TransferSet,
    /// The D2H descriptors in flight, their staged sub-slice snapshots
    /// awaiting the exit's commit drain, the first error seen by any
    /// pipelined operation, and the drain's arguments — armed by the
    /// exit action, run when the last outstanding D2H lands.
    exit: Rc<TransferSet>,
    /// Degraded to the classic path (enter parked for memory).
    bypass: Cell<bool>,
    /// The exit committed and freed the device buffers: late stragglers
    /// of a stolen pipeline (queued sub-kernels, unreached copies) must
    /// not touch the device again.
    freed: Cell<bool>,
    record: RefCell<OverlapRecord>,
}

impl PipeState {
    /// State for one construct over `range` at the requested depth
    /// (clamped to the range length).
    pub(crate) fn new(device: u32, range: Range<usize>, depth: u32) -> Rc<Self> {
        let stages = split_stages(&range, depth);
        let k = stages.len();
        Rc::new(PipeState {
            device,
            h2d_pending: (0..k).map(|_| Cell::new(0)).collect(),
            next_kernel: Cell::new(0),
            kernels_done: Cell::new(0),
            kernel_started: Cell::new(false),
            kernel_task: Cell::new(None),
            fault_routed: Cell::new(false),
            krn: RefCell::new(None),
            d2h_stages: RefCell::new((0..k).map(|_| Vec::new()).collect()),
            predicted: RefCell::new(Vec::new()),
            enter: TransferSet::new(device, 0, None),
            exit: Rc::new(TransferSet::new(device, 0, None)),
            bypass: Cell::new(false),
            freed: Cell::new(false),
            record: RefCell::new(OverlapRecord {
                device,
                start: range.start,
                len: range.len(),
                depth: k as u32,
                h2d_ops: 0,
                d2h_ops: 0,
                staged: 0,
                committed: 0,
                bypassed: false,
            }),
            stages,
        })
    }

    /// Record the construct's kernel task id (known once all three
    /// phase tasks are submitted).
    pub(crate) fn set_kernel_task(&self, id: TaskId) {
        self.kernel_task.set(Some(id));
    }
}

/// Record an error and fail the construct's kernel task if it is the
/// live phase (started, unfinished, not yet routed). A fault that lands
/// before the kernel starts stays in `failed` and surfaces when the
/// kernel action runs; one that lands after it finished surfaces at the
/// exit's commit drain — mirroring which classic phase would have
/// failed.
fn route_kernel_fault(
    sim: &mut Simulator,
    inner_rc: &Rc<RefCell<Inner>>,
    pipe: &Rc<PipeState>,
    err: RtError,
) {
    pipe.exit.fail(err);
    if pipe.fault_routed.get() || !pipe.kernel_started.get() {
        return;
    }
    let Some(kid) = pipe.kernel_task.get() else {
        return;
    };
    if inner_rc.borrow().graph.is_finished(kid) {
        return;
    }
    pipe.fault_routed.set(true);
    let err = pipe
        .exit
        .failed
        .borrow_mut()
        .take()
        .expect("error recorded above");
    task_failed(sim, inner_rc, kid, err);
}

/// Phase 1 of a pipelined construct: plan the whole enter mapping, then
/// slice every H2D copy into per-stage descriptor runs and enqueue them
/// all as streamed transfers. The enter *task* completes when stage 0's
/// descriptors have landed — later stages stream in behind the first
/// sub-kernels, which is the whole point.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pipelined_enter(
    sim: &mut Simulator,
    inner_rc: &Rc<RefCell<Inner>>,
    id: TaskId,
    device: u32,
    maps: Rc<[MapClause]>,
    spec: &KernelSpec,
    pipe: &Rc<PipeState>,
) -> Result<Completion, RtError> {
    let plan = {
        let mut inner = inner_rc.borrow_mut();
        match inner.plan_enter(device, &maps) {
            Ok(p) => p,
            Err(RtError::OutOfMemory { .. }) if inner.alloc_backpressure => {
                // Degrade gracefully: park the enter classically; the
                // kernel and exit phases fall back to the un-pipelined
                // path when memory eventually frees up.
                pipe.bypass.set(true);
                pipe.record.borrow_mut().bypassed = true;
                inner.mem_waiters.push((device, id, maps));
                return Ok(Completion::Async);
            }
            Err(e) => return Err(e),
        }
    };
    let k = pipe.stages.len();
    // Slice each planned copy: stage j ships the bytes stage j's
    // sub-kernel is the first to touch; bytes no stage touches ship with
    // stage 0 (a written-only `tofrom` region must be resident before
    // any read-modify-write sub-kernel runs over its entry).
    let mut ops: Vec<(usize, Section, AllocId, usize, CopyLabel)> = Vec::new();
    {
        let inner = inner_rc.borrow();
        for c in &plan.copies {
            let copy_iv = c.section.range();
            let mut shipped: Vec<Iv> = Vec::new();
            let mut per_stage: Vec<Vec<Iv>> = vec![Vec::new(); k];
            for (j, st) in pipe.stages.iter().enumerate() {
                let mut needed = Vec::new();
                for arg in &spec.args {
                    if arg.array.id() != c.section.array {
                        continue;
                    }
                    if let Some(iv) = clip(&(arg.section_of)(st.clone()), &copy_iv) {
                        needed.push(iv);
                    }
                }
                let fresh = subtract(&merge(needed), &shipped);
                shipped = merge([shipped, fresh.clone()].concat());
                per_stage[j] = fresh;
            }
            let leftover = subtract(&[copy_iv], &shipped);
            per_stage[0] = merge([std::mem::take(&mut per_stage[0]), leftover].concat());
            for (j, runs) in per_stage.into_iter().enumerate() {
                for r in runs {
                    let sec = Section::from_range(c.section.array, r.clone());
                    let off = c.offset + (r.start - c.section.start);
                    let kind = CopyKind::Stage {
                        out: false,
                        stage: j + 1,
                        of: k,
                    };
                    ops.push((j, sec, c.alloc, off, inner.copy_label(kind, sec)));
                }
            }
        }
    }
    pipe.record.borrow_mut().h2d_ops = ops.len() as u32;
    for &(j, ..) in &ops {
        pipe.h2d_pending[j].set(pipe.h2d_pending[j].get() + 1);
    }
    let stage0 = pipe.h2d_pending[0].get();
    if stage0 == 0 {
        // All stage-0 inputs already resident (reused entries): the
        // enter is logically done; later stages still stream behind it.
        complete_task(sim, inner_rc, id);
    }
    pipe.enter.add(stage0);
    let (dev_mem, team, dma_in, trace, faults) = {
        let inner = inner_rc.borrow();
        let dev = &inner.devices[device as usize];
        (
            Rc::clone(&dev.mem),
            Rc::clone(&inner.team),
            dev.dma_in.clone(),
            inner.trace.clone(),
            inner.fault.is_some(),
        )
    };
    for (j, sec, alloc, off, label) in ops {
        let host_store = inner_rc.borrow().host.storage(sec.array);
        let mem = Rc::clone(&dev_mem);
        let pipe_e = Rc::clone(pipe);
        let team = Rc::clone(&team);
        let effect: Box<dyn FnOnce()> = Box::new(move || {
            if pipe_e.freed.get() {
                return;
            }
            let host = host_store.borrow();
            let mut mem = mem.borrow_mut();
            let buf = mem.buffer_mut(alloc);
            team.h2d(&mut buf[off..off + sec.len], &host[sec.range()]);
        });
        let on_complete: Box<dyn FnOnce(&mut Simulator)> = {
            let inner2 = Rc::clone(inner_rc);
            let pipe2 = Rc::clone(pipe);
            Box::new(move |sim| {
                h2d_stage_done(sim, &inner2, &pipe2, j);
                if j == 0 {
                    enter_one_done(sim, &inner2, id, &pipe2);
                }
            })
        };
        let span = span_label(&trace, &label);
        let on_fault = faults.then(|| {
            let inner2 = Rc::clone(inner_rc);
            let pipe2 = Rc::clone(pipe);
            Box::new(move |sim: &mut Simulator, ev: spread_sim::FaultEvent| {
                let err = fault_error(&ev, label.to_string());
                pipe2.h2d_pending[j].set(pipe2.h2d_pending[j].get().saturating_sub(1));
                if j == 0 {
                    // A stage-0 loss fails the enter phase, exactly like
                    // a classic enter transfer fault.
                    pipe2.exit.fail(err.clone());
                    pipe2.enter.fail(err);
                    enter_one_done(sim, &inner2, id, &pipe2);
                } else {
                    // Later stages belong to the pipeline's steady
                    // state: the kernel phase owns the failure.
                    route_kernel_fault(sim, &inner2, &pipe2, err);
                }
            }) as spread_devices::health::OnFault
        });
        dma_in.enqueue(
            sim,
            DmaOp {
                bytes: sec.len as u64 * 8,
                label: span,
                effect: Some(effect),
                on_complete,
                on_fault,
                extra_caps: Vec::new(),
                streamed: true,
            },
        );
    }
    Ok(Completion::Async)
}

/// Count one stage-0 H2D as done; the last completes (or fails) the
/// enter task.
fn enter_one_done(
    sim: &mut Simulator,
    inner_rc: &Rc<RefCell<Inner>>,
    enter: TaskId,
    pipe: &PipeState,
) {
    if !pipe.enter.one_done() {
        return;
    }
    let failed = pipe.enter.failed.borrow_mut().take();
    match failed {
        Some(err) => task_failed(sim, inner_rc, enter, err),
        None => complete_task(sim, inner_rc, enter),
    }
}

/// One H2D descriptor of stage `j` landed; when the stage's set is
/// complete, the pump may launch its sub-kernel.
fn h2d_stage_done(
    sim: &mut Simulator,
    inner_rc: &Rc<RefCell<Inner>>,
    pipe: &Rc<PipeState>,
    j: usize,
) {
    if pipe.freed.get() {
        return;
    }
    pipe.h2d_pending[j].set(pipe.h2d_pending[j].get().saturating_sub(1));
    if pipe.h2d_pending[j].get() == 0 && pipe.kernel_started.get() {
        pump(sim, inner_rc, pipe);
    }
}

/// Phase 2: resolve the kernel's arguments once, predict the per-stage
/// D2H descriptors from the exit-equivalent maps, then launch
/// sub-kernels as their stages' inputs become resident.
pub(crate) fn pipelined_kernel(
    sim: &mut Simulator,
    inner_rc: &Rc<RefCell<Inner>>,
    id: TaskId,
    launch: &KernelLaunch,
    maps: &[MapClause],
    integrity: IntegrityMode,
    pipe: &Rc<PipeState>,
) -> Result<Completion, RtError> {
    if pipe.bypass.get() {
        run_kernel(sim, inner_rc, id, launch)?;
        return Ok(Completion::Async);
    }
    if let Some(err) = pipe.exit.failed.borrow_mut().take() {
        return Err(err);
    }
    let KernelLaunch {
        device,
        ref range,
        kernel: ref spec,
        teams,
        threads_per_team,
    } = *launch;
    // Resolve arguments exactly like the classic kernel launch; the
    // resolution is range-independent, so every sub-kernel shares it.
    let (dev, team, resolved) = {
        let inner = inner_rc.borrow();
        let mut resolved = Vec::with_capacity(spec.args.len());
        inner.resolve_args(device, spec, range, &mut resolved)?;
        let d = device as usize;
        (inner.devices[d].clone(), Rc::clone(&inner.team), resolved)
    };
    // Predict the exit's D2H: a dying copies-out map (refcount 1 right
    // now) is sliced so stage j's copy-out covers what stage j's
    // sub-kernel wrote; bytes no stage writes ride with the final stage.
    let k = pipe.stages.len();
    let mut total_d2h = 0u32;
    {
        let inner = inner_rc.borrow();
        let d = device as usize;
        let table = &inner.presence[d];
        let mut d2h = pipe.d2h_stages.borrow_mut();
        for m in maps {
            if !m.map_type.copies_out() || m.section.is_empty() {
                continue;
            }
            let Some((_, entry)) = table.lookup_containing(&m.section) else {
                continue;
            };
            if entry.refcount != 1 {
                // The exit will keep the entry alive: no copy-out.
                continue;
            }
            let entry_start = entry.section.start;
            let alloc = entry.alloc;
            let copy_iv = m.section.range();
            let mut shipped: Vec<Iv> = Vec::new();
            let mut per_stage: Vec<Vec<Iv>> = vec![Vec::new(); k];
            for (j, st) in pipe.stages.iter().enumerate() {
                let mut w = Vec::new();
                for arg in &spec.args {
                    if arg.array.id() != m.section.array || !arg.access.writes() {
                        continue;
                    }
                    if let Some(iv) = clip(&(arg.section_of)(st.clone()), &copy_iv) {
                        w.push(iv);
                    }
                }
                let fresh = subtract(&merge(w), &shipped);
                shipped = merge([shipped, fresh.clone()].concat());
                per_stage[j] = fresh;
            }
            let leftover = subtract(&[copy_iv], &shipped);
            per_stage[k - 1] = merge([std::mem::take(&mut per_stage[k - 1]), leftover].concat());
            for (j, runs) in per_stage.into_iter().enumerate() {
                for r in runs {
                    let sec = Section::from_range(m.section.array, r.clone());
                    let kind = CopyKind::Stage {
                        out: true,
                        stage: j + 1,
                        of: k,
                    };
                    let label = inner.copy_label(kind, sec);
                    d2h[j].push(SubCopy {
                        sec,
                        alloc,
                        offset: r.start - entry_start,
                        label,
                    });
                    total_d2h += 1;
                }
            }
            pipe.predicted.borrow_mut().push(m.section);
        }
    }
    pipe.record.borrow_mut().d2h_ops = total_d2h;
    if total_d2h > 0 {
        // Expose the staging buffer to the at-rest corruption surface
        // (MemoryScribble) for as long as it is live — same contract as
        // the classic staged exit.
        let mut inner = inner_rc.borrow_mut();
        inner.staged_registry.retain(|w| w.strong_count() > 0);
        inner.staged_registry.push(Rc::downgrade(&pipe.exit));
    }
    *pipe.krn.borrow_mut() = Some(KernelCtx {
        dev,
        team,
        resolved: Rc::new(resolved),
        kernel: Rc::clone(spec),
        teams,
        threads_per_team,
        integrity,
    });
    pipe.kernel_task.set(Some(id));
    pipe.kernel_started.set(true);
    pump(sim, inner_rc, pipe);
    Ok(Completion::Async)
}

/// Launch every stage whose inputs are resident, in order. The compute
/// queue is FIFO, so launching eagerly keeps the device busy without
/// reordering stages.
fn pump(sim: &mut Simulator, inner_rc: &Rc<RefCell<Inner>>, pipe: &Rc<PipeState>) {
    loop {
        if pipe.freed.get() || pipe.exit.failed.borrow().is_some() {
            return;
        }
        let j = pipe.next_kernel.get();
        if j >= pipe.stages.len() || pipe.h2d_pending[j].get() != 0 {
            return;
        }
        pipe.next_kernel.set(j + 1);
        launch_stage(sim, inner_rc, pipe, j);
    }
}

/// Enqueue sub-kernel `j` as a streamed launch on the compute queue.
fn launch_stage(
    sim: &mut Simulator,
    inner_rc: &Rc<RefCell<Inner>>,
    pipe: &Rc<PipeState>,
    j: usize,
) {
    let (trace, faults) = {
        let inner = inner_rc.borrow();
        (inner.trace.clone(), inner.fault.is_some())
    };
    let (dev, op) = {
        let krn = pipe.krn.borrow();
        let ctx = krn.as_ref().expect("kernel context set before pumping");
        let st = pipe.stages[j].clone();
        let mem = ctx.dev.mem.clone();
        let team = Rc::clone(&ctx.team);
        let kernel = Rc::clone(&ctx.kernel);
        let resolved = Rc::clone(&ctx.resolved);
        let pipe_b = Rc::clone(pipe);
        let stb = st.clone();
        let bind = Rc::clone(&inner_rc.borrow().bind);
        let exec: Box<dyn FnOnce()> = Box::new(move || {
            if pipe_b.freed.get() {
                // A stolen piece's exit already committed and freed the
                // buffers; this queued straggler stage must not run.
                return;
            }
            let mut mem = mem.borrow_mut();
            kernel::execute_on_device(
                &mut mem,
                &team.pool,
                kernel.schedule,
                stb,
                &kernel.body,
                &resolved,
                &mut bind.borrow_mut(),
            );
        });
        let inner2 = Rc::clone(inner_rc);
        let pipe2 = Rc::clone(pipe);
        let name = span_label(
            &trace,
            &format_args!("{}[p{}/{}]", ctx.kernel.name, j + 1, pipe.stages.len()),
        );
        let on_fault = faults.then(|| {
            let (inner3, pipe3, kernel) =
                (Rc::clone(inner_rc), Rc::clone(pipe), Rc::clone(&ctx.kernel));
            Box::new(move |sim: &mut Simulator, ev: spread_sim::FaultEvent| {
                route_kernel_fault(
                    sim,
                    &inner3,
                    &pipe3,
                    RtError::DeviceLost {
                        device: ev.device,
                        what: format!("kernel `{}`", kernel.name),
                    },
                );
            }) as spread_devices::health::OnFault
        });
        let op = KernelOp {
            tag: pipe.kernel_task.get().map_or(0, |t| t.0),
            name,
            iters: st.len() as u64,
            work_per_iter_ns: ctx.kernel.work_per_iter_ns,
            teams: ctx.teams,
            threads_per_team: ctx.threads_per_team,
            body: Some(exec),
            on_complete: Box::new(move |sim| stage_kernel_done(sim, &inner2, &pipe2, j)),
            on_fault,
            streamed: true,
        };
        (ctx.dev.clone(), op)
    };
    dev.compute.enqueue(sim, op);
}

/// Sub-kernel `j` finished: ship its predicted D2H right away (the
/// copy-out overlaps the next stage's compute), keep the pump running,
/// and complete the construct's kernel task on the last stage.
fn stage_kernel_done(
    sim: &mut Simulator,
    inner_rc: &Rc<RefCell<Inner>>,
    pipe: &Rc<PipeState>,
    j: usize,
) {
    if pipe.freed.get() {
        return;
    }
    let subs = std::mem::take(&mut pipe.d2h_stages.borrow_mut()[j]);
    for sc in subs {
        enqueue_staged_d2h(sim, inner_rc, pipe, sc);
    }
    pump(sim, inner_rc, pipe);
    let done = pipe.kernels_done.get() + 1;
    pipe.kernels_done.set(done);
    if done == pipe.stages.len() {
        let kid = pipe.kernel_task.get().expect("kernel task id set");
        // A stolen piece's kernel was force-completed by the straggler
        // monitor; finishing it twice would corrupt the graph.
        if !inner_rc.borrow().graph.is_finished(kid) {
            complete_task(sim, inner_rc, kid);
        }
    }
}

/// Enqueue one staged D2H descriptor: the effect snapshots the device
/// bytes (with a source-side CRC under `verify`/`heal`), completion
/// consumes a pending `SilentFlip`, and the snapshot waits in the
/// pipe's staging buffer for the exit's whole-piece commit drain.
fn enqueue_staged_d2h(
    sim: &mut Simulator,
    inner_rc: &Rc<RefCell<Inner>>,
    pipe: &Rc<PipeState>,
    sc: SubCopy,
) {
    let (dev, team, integrity) = {
        let krn = pipe.krn.borrow();
        let ctx = krn.as_ref().expect("kernel context set");
        (ctx.dev.clone(), Rc::clone(&ctx.team), ctx.integrity)
    };
    pipe.exit.add(1);
    let device = pipe.device;
    let (host_store, trace, faults) = {
        let inner = inner_rc.borrow();
        (
            inner.host.storage(sc.sec.array),
            inner.trace.clone(),
            inner.fault.is_some(),
        )
    };
    let mem = dev.mem.clone();
    let (sec, alloc, off) = (sc.sec, sc.alloc, sc.offset);
    let pipe_e = Rc::clone(pipe);
    let effect: Box<dyn FnOnce()> = Box::new(move || {
        if pipe_e.freed.get() {
            return;
        }
        let mem = mem.borrow();
        let buf = mem.buffer(alloc);
        let data = team.snapshot(&buf[off..off + sec.len]);
        let crc = integrity
            .checks()
            .then(|| spread_devices::digest_f64(&data));
        pipe_e.exit.staged.borrow_mut().push(StagedWrite::Snapshot {
            store: host_store,
            section: sec,
            data,
            crc,
        });
        pipe_e.record.borrow_mut().staged += 1;
    });
    let on_complete: Box<dyn FnOnce(&mut Simulator)> = {
        let inner2 = Rc::clone(inner_rc);
        let pipe2 = Rc::clone(pipe);
        Box::new(move |sim| {
            // In-flight silent corruption, identical to the classic
            // staged D2H: a SilentFlip token flips one bit after the
            // source digest was taken.
            let flip = inner2
                .borrow()
                .fault
                .as_ref()
                .is_some_and(|ctx| ctx.take_flip(device, sim.now()));
            if flip {
                let mut st = pipe2.exit.staged.borrow_mut();
                if let Some(data) = st
                    .iter_mut()
                    .filter(|w| w.section() == sec)
                    .find_map(StagedWrite::snapshot_mut)
                {
                    flip_one_bit(data);
                }
            }
            d2h_one_done(sim, &inner2, &pipe2);
        })
    };
    let on_fault = faults.then(|| {
        let (inner2, pipe2) = (Rc::clone(inner_rc), Rc::clone(pipe));
        let what = sc.label.clone();
        Box::new(move |sim: &mut Simulator, ev: spread_sim::FaultEvent| {
            pipe2.exit.fail(fault_error(&ev, what.to_string()));
            d2h_one_done(sim, &inner2, &pipe2);
        }) as spread_devices::health::OnFault
    });
    dev.dma_out.enqueue(
        sim,
        DmaOp {
            bytes: sec.len as u64 * 8,
            label: span_label(&trace, &sc.label),
            effect: Some(effect),
            on_complete,
            on_fault,
            extra_caps: Vec::new(),
            streamed: true,
        },
    );
}

/// Count one D2H as landed; when the exit is armed and nothing is
/// outstanding, run the commit finish.
fn d2h_one_done(sim: &mut Simulator, inner_rc: &Rc<RefCell<Inner>>, pipe: &Rc<PipeState>) {
    pipe.exit.one_done();
    try_exit_finish(sim, inner_rc, pipe);
}

/// Run the armed exit's commit drain once every outstanding D2H has
/// landed. From then on the dying entries are released and their
/// buffers freed: queued stragglers of a stolen pipeline must not touch
/// the device again.
fn try_exit_finish(sim: &mut Simulator, inner_rc: &Rc<RefCell<Inner>>, pipe: &Rc<PipeState>) {
    if pipe.exit.remaining() != 0 {
        return;
    }
    let Some(args) = pipe.exit.take_commit() else {
        return;
    };
    pipe.freed.set(true);
    let committed = staged_commit_finish(sim, inner_rc, &pipe.exit, args);
    pipe.record.borrow_mut().committed = committed as u32;
    push_record(sim, inner_rc, pipe);
}

/// Phase 3: plan the real exit, reconcile it against the kernel-time
/// D2H prediction, then run the same whole-piece commit drain the
/// classic path uses — CRC verification, commit-gate arbitration,
/// all-or-nothing host writes, presence cleanup.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pipelined_exit(
    sim: &mut Simulator,
    inner_rc: &Rc<RefCell<Inner>>,
    id: TaskId,
    device: u32,
    maps: &[MapClause],
    integrity: IntegrityMode,
    gate: Option<(crate::commit::CommitGate, u32)>,
    pipe: &Rc<PipeState>,
) -> Result<Completion, RtError> {
    if pipe.bypass.get() {
        let plan = inner_rc.borrow_mut().plan_exit(device, maps)?;
        push_record(sim, inner_rc, pipe);
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
        return Ok(Completion::Async);
    }
    let plan = inner_rc.borrow_mut().plan_exit(device, maps)?;
    let predicted = pipe.predicted.borrow().clone();
    let actual: Vec<Section> = plan.copies.iter().map(|c| c.section).collect();
    // Predicted-but-kept: another mapping took a reference between the
    // kernel and the exit, so the entry survives and host memory must
    // not see the staged sub-slices.
    let stale: Vec<Section> = predicted
        .iter()
        .filter(|p| !actual.contains(p))
        .copied()
        .collect();
    if !stale.is_empty() {
        let mut staged = pipe.exit.staged.borrow_mut();
        let before = staged.len();
        staged.retain(|w| !stale.iter().any(|p| p.contains(&w.section())));
        pipe.record.borrow_mut().staged -= (before - staged.len()) as u32;
    }
    // Kept-but-dying: the prediction saw a shared entry, but the exit
    // releases it after all — fetch the whole section classically into
    // the same commit set.
    let fallback: Vec<CopyPlanItem> = plan
        .copies
        .into_iter()
        .filter(|c| !predicted.contains(&c.section))
        .collect();
    pipe.exit.arm(CommitArgs {
        task: id,
        to_free: plan.to_free,
        integrity,
        gate,
    });
    for c in fallback {
        enqueue_staged_d2h(
            sim,
            inner_rc,
            pipe,
            SubCopy {
                sec: c.section,
                alloc: c.alloc,
                offset: c.offset,
                label: c.label,
            },
        );
    }
    try_exit_finish(sim, inner_rc, pipe);
    Ok(Completion::Async)
}

/// Append the construct's ledger record.
fn push_record(sim: &Simulator, inner_rc: &Rc<RefCell<Inner>>, pipe: &Rc<PipeState>) {
    let rec = pipe.record.borrow().clone();
    inner_rc
        .borrow_mut()
        .record(sim.now(), crate::ledger::RunEvent::Overlap(rec));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_coalesces_adjacent_and_overlapping() {
        assert_eq!(merge(vec![5..8, 0..3, 3..5]), vec![0..8]);
        assert_eq!(merge(vec![0..2, 4..6]), vec![0..2, 4..6]);
        assert_eq!(merge(vec![0..0, 1..1]), Vec::<Iv>::new());
        assert_eq!(merge(vec![0..4, 2..3]), vec![0..4]);
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // single-range slices are the point here
    fn subtract_cuts_holes() {
        assert_eq!(subtract(&[0..10], &[3..5]), vec![0..3, 5..10]);
        assert_eq!(subtract(&[0..10], &[0..10]), Vec::<Iv>::new());
        assert_eq!(subtract(&[0..4, 6..9], &[2..7]), vec![0..2, 7..9]);
        assert_eq!(subtract(&[0..3], &[5..7]), vec![0..3]);
    }

    #[test]
    fn split_stages_balances_and_clamps() {
        assert_eq!(split_stages(&(0..10), 4), vec![0..3, 3..6, 6..8, 8..10]);
        assert_eq!(split_stages(&(5..7), 4), vec![5..6, 6..7]);
        assert_eq!(split_stages(&(0..9), 1), vec![0..9]);
        let total: usize = split_stages(&(3..40), 3).iter().map(|r| r.len()).sum();
        assert_eq!(total, 37);
    }
}

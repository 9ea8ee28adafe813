//! The kernel execution engine.
//!
//! One FIFO compute queue per device (the common single-stream model:
//! kernels on the same device serialize; kernels on different devices run
//! concurrently in virtual time — which is exactly how the paper gets its
//! near-linear kernel scaling across GPUs).
//!
//! A queued kernel carries its *body* — a closure that really executes
//! the computation over the device's buffers — and the parameters of the
//! cost model that determine its virtual duration. The body runs eagerly
//! at kernel start (see the eager-effects discipline in `spread-rt`).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use spread_sim::fault::{FaultEvent, FaultEventKind};
use spread_sim::Simulator;
use spread_trace::{Lane, SpanKind, TraceRecorder};

use crate::gate::{SerialGate, Waiter};
use crate::health::FaultCtx;
use crate::spec::ComputeModel;

/// One queued kernel launch.
pub struct KernelOp {
    /// Caller-chosen identity for cancellation (the runtime uses the
    /// kernel task id; 0 = anonymous, never cancellable).
    pub tag: u64,
    /// Kernel name (trace label).
    pub name: String,
    /// Number of loop iterations in this launch.
    pub iters: u64,
    /// Modeled single-lane cost of one iteration, in nanoseconds.
    pub work_per_iter_ns: f64,
    /// Requested `num_teams`.
    pub teams: u32,
    /// Requested threads per team.
    pub threads_per_team: u32,
    /// The real computation; runs when the kernel starts.
    pub body: Option<Box<dyn FnOnce()>>,
    /// Fires when the modeled execution completes.
    pub on_complete: Box<dyn FnOnce(&mut Simulator)>,
    /// Fires instead of `on_complete` when the kernel cannot run because
    /// its device is lost. Required whenever a fault context is attached
    /// to the engine; without one a surfaced fault panics.
    pub on_fault: Option<crate::health::OnFault>,
    /// Launch on a runtime-allocated stream: skip the device's
    /// default-stream [`SerialGate`] so the kernel can run concurrently
    /// with the device's copy engines. Kernels on the compute queue
    /// still serialize among themselves (one queue per device).
    pub streamed: bool,
}

struct Inner {
    device: u32,
    model: ComputeModel,
    trace: TraceRecorder,
    /// Default-stream serialization with the device's copy engines.
    gate: Option<SerialGate>,
    /// Shared fault arbitration; `None` means the engine never faults.
    fault: Option<FaultCtx>,
    busy: bool,
    queue: VecDeque<KernelOp>,
    /// The kernel waiting for the gate.
    held: Option<KernelOp>,
    completed: u64,
    /// The running kernel, for cancellation:
    /// `(tag, label, start, held gate)`.
    running: Option<(u64, String, spread_sim::SimTime, Option<SerialGate>)>,
    /// Bumped by every cancel; a completion closure whose captured epoch
    /// is stale belongs to a cancelled kernel and must do nothing.
    epoch: u64,
}

/// FIFO kernel queue for one device. Clone freely.
#[derive(Clone)]
pub struct ComputeEngine {
    inner: Rc<RefCell<Inner>>,
}

impl ComputeEngine {
    /// An engine for `device` with the given cost model.
    pub fn new(device: u32, model: ComputeModel, trace: TraceRecorder) -> Self {
        ComputeEngine {
            inner: Rc::new(RefCell::new(Inner {
                device,
                model,
                trace,
                gate: None,
                fault: None,
                busy: false,
                queue: VecDeque::new(),
                held: None,
                completed: 0,
                running: None,
                epoch: 0,
            })),
        }
    }

    /// Attach the run's shared fault context (the same clone every other
    /// engine of the runtime holds).
    pub fn set_fault_ctx(&self, ctx: FaultCtx) {
        self.inner.borrow_mut().fault = Some(ctx);
    }

    /// Identity of the attached fault context, if any. Debug builds
    /// assert every engine of a runtime shares one context (a second
    /// context would mean a second PRNG stream and broken determinism).
    pub fn fault_ctx_ptr(&self) -> Option<usize> {
        self.inner.borrow().fault.as_ref().map(|c| c.ptr_id())
    }

    /// Serialize this engine with the device's copy engines through a
    /// shared gate (default-stream semantics).
    pub fn with_gate(self, gate: SerialGate) -> Self {
        self.inner.borrow_mut().gate = Some(gate);
        self
    }

    /// Kernels completed so far.
    pub fn completed(&self) -> u64 {
        self.inner.borrow().completed
    }

    /// Kernels waiting or running.
    pub fn backlog(&self) -> usize {
        let inner = self.inner.borrow();
        inner.queue.len() + usize::from(inner.busy)
    }

    /// Enqueue a kernel; it launches when the engine frees up.
    pub fn enqueue(&self, sim: &mut Simulator, op: KernelOp) {
        self.inner.borrow_mut().queue.push_back(op);
        self.maybe_start(sim);
    }

    fn maybe_start(&self, sim: &mut Simulator) {
        let (op, gate) = {
            let mut inner = self.inner.borrow_mut();
            if inner.busy {
                return;
            }
            let Some(op) = inner.queue.pop_front() else {
                return;
            };
            inner.busy = true;
            (op, inner.gate.clone())
        };
        match gate {
            // Streamed kernels bypass default-stream serialization so
            // the overlap engine can run copy-in/kernel/copy-out of
            // different pipeline stages concurrently on one device.
            Some(g) if !op.streamed => {
                self.inner.borrow_mut().held = Some(op);
                g.acquire(sim, Waiter::Compute(self.clone()));
            }
            _ => self.start_op(sim, op, None),
        }
    }

    /// The gate is ours: start the kernel that waited for it.
    pub(crate) fn granted(&self, sim: &mut Simulator, gate: SerialGate) {
        let op = self.inner.borrow_mut().held.take();
        self.start_op(sim, op.expect("a kernel waits for the gate"), Some(gate));
    }

    /// Cancel the *running* kernel if its tag matches: the modeled
    /// remainder of its duration is abandoned (the body already ran at
    /// start, so the device bytes are complete and correct), a truncated
    /// span marks the cancellation, and the kernel's `on_complete` never
    /// fires — the caller owns completing whatever task was waiting on
    /// it. Queued, not-yet-started kernels are deliberately left alone
    /// (their bodies have not run; cancelling them would lose work).
    /// Returns whether a running kernel was cancelled.
    pub fn cancel_running(&self, sim: &mut Simulator, tag: u64) -> bool {
        let gate = {
            let mut inner = self.inner.borrow_mut();
            match &inner.running {
                Some((t, ..)) if *t == tag && tag != 0 => {}
                _ => return false,
            }
            let (_, label, start, gate) = inner.running.take().unwrap();
            inner.epoch += 1;
            inner.busy = false;
            if inner.trace.is_enabled() {
                let lane = Lane::compute(inner.device);
                let label = format!("{label}: cancelled");
                inner
                    .trace
                    .record(lane, SpanKind::Kernel, label, start, sim.now(), 0);
            }
            gate
        };
        if let Some(g) = gate {
            g.release(sim);
        }
        self.maybe_start(sim);
        true
    }

    fn start_op(&self, sim: &mut Simulator, mut op: KernelOp, held_gate: Option<SerialGate>) {
        // A kernel on a lost device never launches; check BEFORE the body
        // so no computation happens on a dead device.
        let fault = self.inner.borrow().fault.clone();
        let device = self.inner.borrow().device;
        if let Some(ctx) = &fault {
            if ctx.is_lost(device) {
                let at = sim.now();
                {
                    let mut inner = self.inner.borrow_mut();
                    if inner.trace.is_enabled() {
                        let lane = Lane::compute(inner.device);
                        let label = format!("{}: failed", op.name);
                        inner.trace.record(lane, SpanKind::Fault, label, at, at, 0);
                    }
                    inner.busy = false;
                }
                if let Some(g) = held_gate {
                    g.release(sim);
                }
                let on_fault = op.on_fault.take().unwrap_or_else(|| {
                    panic!(
                        "fault on kernel '{}' with no fault handler installed",
                        op.name
                    )
                });
                on_fault(
                    sim,
                    FaultEvent {
                        device,
                        at,
                        kind: FaultEventKind::DeviceLost,
                    },
                );
                self.maybe_start(sim);
                return;
            }
        }
        if let Some(body) = op.body.take() {
            body();
        }
        let start_t = sim.now();
        // A compute-slowdown window stretches the modeled duration only;
        // the body above already ran, so results are unaffected — exactly
        // the LinkDegrade discipline, on the compute side.
        let factor = fault
            .as_ref()
            .map(|c| c.compute_factor(device, start_t))
            .unwrap_or(1.0);
        let duration = {
            let inner = self.inner.borrow();
            inner.model.kernel_duration(
                op.iters,
                op.work_per_iter_ns,
                op.teams,
                op.threads_per_team,
            )
        } * factor;
        let this = self.clone();
        let name = std::mem::take(&mut op.name);
        let on_complete = op.on_complete;
        let epoch = {
            let mut inner = self.inner.borrow_mut();
            inner.running = Some((op.tag, name, start_t, held_gate.clone()));
            inner.epoch
        };
        sim.schedule_after(
            duration,
            Box::new(move |sim| {
                {
                    let mut inner = this.inner.borrow_mut();
                    if inner.epoch != epoch {
                        // Cancelled while in flight: the canceller
                        // already released the gate, freed the engine
                        // and restarted the queue.
                        return;
                    }
                    let (_, name, ..) = inner.running.take().expect("the running kernel");
                    let lane = Lane::compute(inner.device);
                    inner
                        .trace
                        .record(lane, SpanKind::Kernel, name, start_t, sim.now(), 0);
                    inner.busy = false;
                    inner.completed += 1;
                }
                if let Some(g) = held_gate {
                    g.release(sim);
                }
                on_complete(sim);
                this.maybe_start(sim);
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spread_trace::{SimDuration, Timeline};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn engine(max_par: u32) -> (Simulator, ComputeEngine, TraceRecorder) {
        let trace = TraceRecorder::new();
        let sim = Simulator::new(trace.clone());
        let model = ComputeModel {
            launch_latency: SimDuration::from_nanos(100),
            max_parallelism: max_par,
            time_scale: 1.0,
        };
        let eng = ComputeEngine::new(3, model, trace.clone());
        (sim, eng, trace)
    }

    fn kernel(name: &str, iters: u64, done: Rc<RefCell<Vec<(String, u64)>>>) -> KernelOp {
        let n = name.to_string();
        KernelOp {
            tag: 0,
            name: name.to_string(),
            iters,
            work_per_iter_ns: 10.0,
            teams: 1,
            threads_per_team: 1,
            body: None,
            on_complete: Box::new(move |s| {
                done.borrow_mut().push((n, s.now().as_nanos()));
            }),
            on_fault: None,
            streamed: false,
        }
    }

    #[test]
    fn duration_from_model() {
        let (mut sim, eng, _) = engine(1);
        let done = Rc::new(RefCell::new(Vec::new()));
        eng.enqueue(&mut sim, kernel("k", 50, done.clone()));
        sim.run_until_idle();
        // 100 ns launch + 50 iters * 10 ns = 600 ns.
        assert_eq!(done.borrow()[0].1, 600);
    }

    #[test]
    fn kernels_serialize_on_one_device() {
        let (mut sim, eng, _) = engine(1);
        let done = Rc::new(RefCell::new(Vec::new()));
        eng.enqueue(&mut sim, kernel("a", 50, done.clone()));
        eng.enqueue(&mut sim, kernel("b", 50, done.clone()));
        sim.run_until_idle();
        let d = done.borrow();
        assert_eq!(d[0], ("a".to_string(), 600));
        assert_eq!(d[1], ("b".to_string(), 1200));
        assert_eq!(eng.completed(), 2);
    }

    #[test]
    fn bodies_execute_for_real() {
        let (mut sim, eng, _) = engine(4);
        let data = Rc::new(RefCell::new(vec![0.0f64; 8]));
        let d2 = data.clone();
        eng.enqueue(
            &mut sim,
            KernelOp {
                tag: 0,
                name: "fill".into(),
                iters: 8,
                work_per_iter_ns: 1.0,
                teams: 1,
                threads_per_team: 4,
                body: Some(Box::new(move || {
                    for (i, v) in d2.borrow_mut().iter_mut().enumerate() {
                        *v = i as f64 * 2.0;
                    }
                })),
                on_complete: Box::new(|_| {}),
                on_fault: None,
                streamed: false,
            },
        );
        sim.run_until_idle();
        assert_eq!(data.borrow()[3], 6.0);
    }

    #[test]
    fn trace_records_kernel_spans() {
        let (mut sim, eng, trace) = engine(1);
        let done = Rc::new(RefCell::new(Vec::new()));
        eng.enqueue(&mut sim, kernel("forces", 10, done.clone()));
        sim.run_until_idle();
        let tl = Timeline::from_recorder(&trace);
        assert_eq!(tl.len(), 1);
        let s = &tl.spans()[0];
        assert_eq!(s.kind, SpanKind::Kernel);
        assert_eq!(s.label, "forces");
        assert_eq!(s.lane, Lane::compute(3));
        assert_eq!(s.duration().as_nanos(), 200);
    }

    #[test]
    fn kernel_on_lost_device_faults_without_running_its_body() {
        let (mut sim, eng, trace) = engine(1);
        let ctx = crate::health::FaultCtx::new(
            &spread_sim::FaultPlan::new(0),
            4,
            spread_sim::RetryPolicy::default(),
            8,
            trace.clone(),
        );
        eng.set_fault_ctx(ctx.clone());
        ctx.mark_lost(&mut sim, 3);
        let ran = Rc::new(RefCell::new(false));
        let ran2 = ran.clone();
        let faults = Rc::new(RefCell::new(Vec::new()));
        let f2 = faults.clone();
        eng.enqueue(
            &mut sim,
            KernelOp {
                tag: 0,
                name: "dead".into(),
                iters: 10,
                work_per_iter_ns: 1.0,
                teams: 1,
                threads_per_team: 1,
                body: Some(Box::new(move || *ran2.borrow_mut() = true)),
                on_complete: Box::new(|_| panic!("must not complete")),
                on_fault: Some(Box::new(move |_, ev| f2.borrow_mut().push(ev))),
                streamed: false,
            },
        );
        sim.run_until_idle();
        assert!(!*ran.borrow(), "body must not run on a lost device");
        assert_eq!(faults.borrow().len(), 1);
        assert_eq!(faults.borrow()[0].device, 3);
        assert_eq!(eng.backlog(), 0);
        assert_eq!(eng.completed(), 0);
    }

    #[test]
    fn slowdown_window_stretches_duration_not_results() {
        let (mut sim, eng, trace) = engine(1);
        let ctx = crate::health::FaultCtx::new(
            &spread_sim::FaultPlan::new(0).slow_compute(
                3,
                spread_sim::SimTime::ZERO,
                spread_sim::SimTime::from_nanos(700),
                8.0,
            ),
            4,
            spread_sim::RetryPolicy::default(),
            8,
            trace.clone(),
        );
        eng.set_fault_ctx(ctx);
        let done = Rc::new(RefCell::new(Vec::new()));
        let data = Rc::new(RefCell::new(0.0f64));
        let d2 = data.clone();
        let mut op = kernel("slow", 50, done.clone());
        op.body = Some(Box::new(move || *d2.borrow_mut() = 42.0));
        eng.enqueue(&mut sim, op);
        // A second kernel launching after the window runs at full speed.
        eng.enqueue(&mut sim, kernel("fast", 50, done.clone()));
        sim.run_until_idle();
        let d = done.borrow();
        // 8 × (100 launch + 50·10) = 4800 ns; results intact regardless.
        assert_eq!(d[0], ("slow".to_string(), 4800));
        assert_eq!(*data.borrow(), 42.0);
        // Second kernel starts at 4800, outside the window: +600 ns.
        assert_eq!(d[1], ("fast".to_string(), 5400));
    }

    #[test]
    fn cancel_running_frees_engine_and_skips_on_complete() {
        let (mut sim, eng, trace) = engine(1);
        let done = Rc::new(RefCell::new(Vec::new()));
        let data = Rc::new(RefCell::new(0.0f64));
        let d2 = data.clone();
        let mut victim = kernel("victim", 1000, done.clone());
        victim.tag = 7;
        victim.body = Some(Box::new(move || *d2.borrow_mut() = 1.0));
        victim.on_complete = Box::new(|_| panic!("cancelled kernel must not complete"));
        eng.enqueue(&mut sim, victim);
        eng.enqueue(&mut sim, kernel("next", 50, done.clone()));
        // The victim started eagerly at enqueue (its body already ran);
        // cancel it before its modeled completion fires.
        assert_eq!(*data.borrow(), 1.0);
        assert!(!eng.cancel_running(&mut sim, 99), "wrong tag must miss");
        assert!(!eng.cancel_running(&mut sim, 0), "tag 0 is anonymous");
        assert!(eng.cancel_running(&mut sim, 7));
        assert!(!eng.cancel_running(&mut sim, 7), "already cancelled");
        sim.run_until_idle();
        // The body's effects survive; the queued kernel ran next and the
        // engine is free again.
        assert_eq!(*data.borrow(), 1.0);
        assert_eq!(done.borrow().len(), 1);
        assert_eq!(done.borrow()[0].0, "next");
        assert_eq!(eng.backlog(), 0);
        assert_eq!(eng.completed(), 1);
        // A truncated span marks the cancellation.
        let tl = Timeline::from_recorder(&trace);
        assert!(tl
            .spans()
            .iter()
            .any(|s| s.label == "victim: cancelled" && s.kind == SpanKind::Kernel));
    }

    #[test]
    fn parallelism_shortens_kernels_until_saturation() {
        let (mut sim, eng, _) = engine(8);
        let done = Rc::new(RefCell::new(Vec::new()));
        let mut op = kernel("wide", 80, done.clone());
        op.threads_per_team = 8;
        eng.enqueue(&mut sim, op);
        sim.run_until_idle();
        // 100 + 80*10/8 = 200 ns.
        assert_eq!(done.borrow()[0].1, 200);
    }
}

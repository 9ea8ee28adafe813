//! DMA copy engines.
//!
//! Each device has one engine per direction (host→device and
//! device→host), matching real GPUs' dedicated copy engines. An engine is
//! a FIFO: operations on the same engine **serialize** — this is the
//! mechanism behind the paper's Figure 4 finding that "transfers from
//! different buffers did not overlap" on one GPU. Every operation pays a
//! fixed launch latency (one `cudaMemcpy` call) before its bytes stream
//! through the flow network, so mapping a chunk of 12 grids costs 12
//! launch latencies (§VI-B's granularity observation).
//!
//! The *data effect* of an operation (the actual memcpy between host and
//! device `Vec<f64>`s) runs eagerly when the operation starts; the
//! completion callback fires when the modeled transfer finishes. Task
//! ordering upstream guarantees observational equivalence (see
//! `spread-rt`'s race detector).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use spread_sim::fault::{FaultEvent, FaultEventKind};
use spread_sim::{CapacityId, SharedFlowNet, Simulator};
use spread_trace::{Lane, SimDuration, SpanKind, TraceRecorder};

use crate::gate::SerialGate;
use crate::health::{Attempt, FaultCtx};

/// Transfer direction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Direction {
    /// Host to device.
    In,
    /// Device to host.
    Out,
    /// Device to device, pulled by the destination's peer engine.
    Peer,
}

impl Direction {
    fn lane(self, device: u32) -> Lane {
        match self {
            Direction::In => Lane::copy_in(device),
            Direction::Out => Lane::copy_out(device),
            Direction::Peer => Lane::peer(device),
        }
    }

    fn span_kind(self) -> SpanKind {
        match self {
            Direction::In => SpanKind::TransferIn,
            Direction::Out => SpanKind::TransferOut,
            Direction::Peer => SpanKind::PeerCopy,
        }
    }
}

/// One queued copy operation.
pub struct DmaOp {
    /// Bytes to move.
    pub bytes: u64,
    /// Label recorded in the trace.
    pub label: String,
    /// The data effect (the real memcpy); runs when the op starts.
    pub effect: Option<Box<dyn FnOnce()>>,
    /// Fires when the modeled transfer completes.
    pub on_complete: Box<dyn FnOnce(&mut Simulator)>,
    /// Fires instead of `on_complete` when the operation fails fatally
    /// (retries exhausted or the device is lost). Required whenever a
    /// fault context is attached to the engine; without one a surfaced
    /// fault panics rather than being silently dropped.
    pub on_fault: Option<crate::health::OnFault>,
    /// Capacities this particular operation streams through in addition
    /// to the engine's fixed set. A peer engine's fixed caps cover the
    /// destination side; the source device's peer-out link (and the
    /// inter-switch hop, when the endpoints straddle switches) vary per
    /// operation and ride here.
    pub extra_caps: Vec<CapacityId>,
    /// Run this operation on a runtime-allocated stream: skip the
    /// device's default-stream [`SerialGate`] so the copy can proceed
    /// concurrently with the device's other engines. Engine-level FIFO
    /// order within one direction still holds (one stream per engine).
    pub streamed: bool,
}

struct Inner {
    device: u32,
    dir: Direction,
    latency: SimDuration,
    caps: Vec<CapacityId>,
    flownet: SharedFlowNet,
    trace: TraceRecorder,
    /// Default-stream serialization with the device's other engines.
    gate: Option<SerialGate>,
    /// Shared fault arbitration; `None` means the engine never faults.
    fault: Option<FaultCtx>,
    busy: bool,
    queue: VecDeque<DmaOp>,
    completed_ops: u64,
    total_bytes: u64,
}

/// A FIFO DMA engine for one direction of one device. Clone freely.
#[derive(Clone)]
pub struct DmaEngine {
    inner: Rc<RefCell<Inner>>,
}

impl DmaEngine {
    /// Create an engine streaming through `caps` (device link, switch,
    /// host bus) with the given per-operation launch latency.
    pub fn new(
        device: u32,
        dir: Direction,
        latency: SimDuration,
        caps: Vec<CapacityId>,
        flownet: SharedFlowNet,
        trace: TraceRecorder,
    ) -> Self {
        DmaEngine {
            inner: Rc::new(RefCell::new(Inner {
                device,
                dir,
                latency,
                caps,
                flownet,
                trace,
                gate: None,
                fault: None,
                busy: false,
                queue: VecDeque::new(),
                completed_ops: 0,
                total_bytes: 0,
            })),
        }
    }

    /// Attach the run's shared fault context. Every engine of a runtime
    /// must receive a clone of the *same* context so fault decisions and
    /// backoff jitter draw from one run-scoped PRNG.
    pub fn set_fault_ctx(&self, ctx: FaultCtx) {
        self.inner.borrow_mut().fault = Some(ctx);
    }

    /// Identity of the attached fault context, if any. Debug builds
    /// assert every engine of a runtime shares one context (a second
    /// context would mean a second PRNG stream and broken determinism).
    pub fn fault_ctx_ptr(&self) -> Option<usize> {
        self.inner.borrow().fault.as_ref().map(|c| c.ptr_id())
    }

    /// Serialize this engine with the device's other engines through a
    /// shared gate (default-stream semantics).
    pub fn with_gate(self, gate: SerialGate) -> Self {
        self.inner.borrow_mut().gate = Some(gate);
        self
    }

    /// Number of completed operations (for tests/statistics).
    pub fn completed_ops(&self) -> u64 {
        self.inner.borrow().completed_ops
    }

    /// Total bytes moved so far.
    pub fn total_bytes(&self) -> u64 {
        self.inner.borrow().total_bytes
    }

    /// Operations waiting or in flight.
    pub fn backlog(&self) -> usize {
        let inner = self.inner.borrow();
        inner.queue.len() + usize::from(inner.busy)
    }

    /// Enqueue an operation; it starts as soon as the engine frees up.
    pub fn enqueue(&self, sim: &mut Simulator, op: DmaOp) {
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
        let this = self.clone();
        match gate {
            // Streamed ops bypass default-stream serialization: the
            // pipelined overlap engine issues its sub-slice copies on
            // runtime-allocated streams, so they never contend with the
            // device's compute engine for the gate.
            Some(g) if !op.streamed => {
                let g2 = g.clone();
                g.acquire(
                    sim,
                    Box::new(move |sim| this.start_op(sim, op, Some(g2), 0)),
                );
            }
            _ => this.start_op(sim, op, None, 0),
        }
    }

    fn start_op(
        &self,
        sim: &mut Simulator,
        mut op: DmaOp,
        held_gate: Option<SerialGate>,
        attempt: u32,
    ) {
        // Consult the fault context BEFORE the data effect: a faulted
        // attempt must not move any data, or retries/recovery would
        // observe a half-applied copy.
        let fault = self.inner.borrow().fault.clone();
        if let Some(ctx) = fault.as_ref() {
            let (device, dir) = {
                let inner = self.inner.borrow();
                (inner.device, inner.dir)
            };
            let now = sim.now();
            match ctx.attempt(device, now) {
                Attempt::Ok => {}
                Attempt::Transient => {
                    let lane = dir.lane(device);
                    let trace = self.inner.borrow().trace.clone();
                    if trace.is_enabled() {
                        let label = format!("{}: transient", op.label);
                        trace.record(lane, SpanKind::Fault, label, now, now, 0);
                    }
                    if attempt < ctx.retry().max_retries {
                        let delay = ctx.backoff(attempt);
                        if trace.is_enabled() {
                            let label = format!("{}: retry {}", op.label, attempt + 1);
                            trace.record(lane, SpanKind::Retry, label, now, now + delay, 0);
                        }
                        let this = self.clone();
                        sim.schedule_after(
                            delay,
                            Box::new(move |sim| this.start_op(sim, op, held_gate, attempt + 1)),
                        );
                        return;
                    }
                    self.fail_op(
                        sim,
                        op,
                        held_gate,
                        FaultEvent {
                            device,
                            at: now,
                            kind: FaultEventKind::TransientExhausted {
                                attempts: attempt + 1,
                            },
                        },
                    );
                    return;
                }
                Attempt::Lost => {
                    // Either the device was already lost or the breaker
                    // just tripped; mark_lost is idempotent.
                    ctx.mark_lost(sim, device);
                    let at = sim.now();
                    self.fail_op(
                        sim,
                        op,
                        held_gate,
                        FaultEvent {
                            device,
                            at,
                            kind: FaultEventKind::DeviceLost,
                        },
                    );
                    return;
                }
            }
        }
        // The data effect happens at operation start (eager-effects
        // discipline; dependents only run after on_complete).
        if let Some(effect) = op.effect.take() {
            effect();
        }
        let start_t = sim.now();
        let this = self.clone();
        let latency = self.inner.borrow().latency;
        sim.schedule_after(
            latency,
            Box::new(move |sim| {
                let (flownet, mut caps, device, fault) = {
                    let inner = this.inner.borrow();
                    (
                        inner.flownet.clone(),
                        inner.caps.clone(),
                        inner.device,
                        inner.fault.clone(),
                    )
                };
                caps.extend(std::mem::take(&mut op.extra_caps));
                let this2 = this.clone();
                let bytes = op.bytes;
                // Link degradation inflates the *modeled* bytes (a pure
                // slowdown); the trace keeps the real payload size.
                let factor = fault
                    .map(|c| c.link_factor(device, sim.now()))
                    .unwrap_or(1.0);
                let modeled = if factor > 1.0 {
                    (bytes as f64 * factor).ceil() as u64
                } else {
                    bytes
                };
                let label = std::mem::take(&mut op.label);
                let on_complete = op.on_complete;
                flownet.start_flow(
                    sim,
                    modeled,
                    caps,
                    Box::new(move |sim| {
                        {
                            let mut inner = this2.inner.borrow_mut();
                            let lane = inner.dir.lane(inner.device);
                            let kind = inner.dir.span_kind();
                            inner
                                .trace
                                .record(lane, kind, label, start_t, sim.now(), bytes);
                            inner.busy = false;
                            inner.completed_ops += 1;
                            inner.total_bytes += bytes;
                        }
                        if let Some(g) = held_gate {
                            g.release(sim);
                        }
                        on_complete(sim);
                        this2.maybe_start(sim);
                    }),
                );
            }),
        );
    }

    /// Surface a fatal fault on `op`: free the engine, release the gate,
    /// hand the event to the op's fault handler, and let the queue drain
    /// (queued ops behind a lost device fail through their own handlers).
    fn fail_op(
        &self,
        sim: &mut Simulator,
        mut op: DmaOp,
        held_gate: Option<SerialGate>,
        ev: FaultEvent,
    ) {
        {
            let mut inner = self.inner.borrow_mut();
            if inner.trace.is_enabled() {
                let lane = inner.dir.lane(inner.device);
                let label = format!("{}: failed", op.label);
                inner
                    .trace
                    .record(lane, SpanKind::Fault, label, ev.at, ev.at, 0);
            }
            inner.busy = false;
        }
        if let Some(g) = held_gate {
            g.release(sim);
        }
        let on_fault = op
            .on_fault
            .take()
            .unwrap_or_else(|| panic!("fault on '{}' with no fault handler installed", op.label));
        on_fault(sim, ev);
        self.maybe_start(sim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spread_trace::Timeline;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn setup(latency_us: u64, bw: f64) -> (Simulator, DmaEngine, TraceRecorder) {
        let trace = TraceRecorder::new();
        let sim = Simulator::new(trace.clone());
        let net = SharedFlowNet::new();
        let link = net.add_capacity("link", bw);
        let eng = DmaEngine::new(
            0,
            Direction::In,
            SimDuration::from_micros(latency_us),
            vec![link],
            net,
            trace.clone(),
        );
        (sim, eng, trace)
    }

    fn op(bytes: u64, done: Rc<RefCell<Vec<f64>>>) -> DmaOp {
        DmaOp {
            bytes,
            label: format!("{bytes}B"),
            effect: None,
            on_complete: Box::new(move |s| done.borrow_mut().push(s.now().as_secs_f64())),
            on_fault: None,
            extra_caps: Vec::new(),
            streamed: false,
        }
    }

    #[test]
    fn single_op_latency_plus_transfer() {
        let (mut sim, eng, _) = setup(10, 1000.0); // 10 us latency, 1000 B/s
        let done = Rc::new(RefCell::new(Vec::new()));
        eng.enqueue(&mut sim, op(500, done.clone()));
        sim.run_until_idle();
        let t = done.borrow()[0];
        assert!((t - (10e-6 + 0.5)).abs() < 1e-6, "took {t}");
        assert_eq!(eng.completed_ops(), 1);
        assert_eq!(eng.total_bytes(), 500);
    }

    #[test]
    fn ops_serialize_fifo() {
        let (mut sim, eng, _) = setup(0, 100.0);
        let done = Rc::new(RefCell::new(Vec::new()));
        eng.enqueue(&mut sim, op(100, done.clone())); // 1 s
        eng.enqueue(&mut sim, op(200, done.clone())); // 2 s, starts at 1 s
        sim.run_until_idle();
        let d = done.borrow();
        assert!((d[0] - 1.0).abs() < 1e-6);
        assert!((d[1] - 3.0).abs() < 1e-6, "second op waited: {}", d[1]);
    }

    #[test]
    fn per_op_latency_accumulates() {
        // N small ops pay N latencies — the granularity effect the paper
        // blames for the Two Buffers slowdown.
        let (mut sim, eng, _) = setup(100, 1e9);
        let done = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..10 {
            eng.enqueue(&mut sim, op(1, done.clone()));
        }
        sim.run_until_idle();
        let last = *done.borrow().last().unwrap();
        assert!(last >= 10.0 * 100e-6, "ten latencies: {last}");
    }

    #[test]
    fn effects_run_at_start_in_fifo_order() {
        let (mut sim, eng, _) = setup(10, 10.0);
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3 {
            let order2 = order.clone();
            eng.enqueue(
                &mut sim,
                DmaOp {
                    bytes: 10,
                    label: String::new(),
                    effect: Some(Box::new(move || order2.borrow_mut().push(i))),
                    on_complete: Box::new(|_| {}),
                    on_fault: None,
                    extra_caps: Vec::new(),
                    streamed: false,
                },
            );
        }
        sim.run_until_idle();
        assert_eq!(*order.borrow(), vec![0, 1, 2]);
    }

    #[test]
    fn trace_spans_recorded() {
        let (mut sim, eng, trace) = setup(0, 100.0);
        let done = Rc::new(RefCell::new(Vec::new()));
        eng.enqueue(&mut sim, op(100, done.clone()));
        sim.run_until_idle();
        let tl = Timeline::from_recorder(&trace);
        assert_eq!(tl.len(), 1);
        let s = &tl.spans()[0];
        assert_eq!(s.kind, SpanKind::TransferIn);
        assert_eq!(s.bytes, 100);
        assert_eq!(s.lane, Lane::copy_in(0));
        assert!((s.duration().as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn zero_byte_op_completes() {
        let (mut sim, eng, _) = setup(5, 100.0);
        let done = Rc::new(RefCell::new(Vec::new()));
        eng.enqueue(&mut sim, op(0, done.clone()));
        sim.run_until_idle();
        assert_eq!(done.borrow().len(), 1);
        assert_eq!(eng.backlog(), 0);
    }

    fn fault_op(
        bytes: u64,
        done: Rc<RefCell<Vec<f64>>>,
        faults: Rc<RefCell<Vec<FaultEvent>>>,
    ) -> DmaOp {
        let mut op = op(bytes, done);
        op.on_fault = Some(Box::new(move |_, ev| faults.borrow_mut().push(ev)));
        op
    }

    fn ctx_for(
        plan: spread_sim::FaultPlan,
        retry: spread_sim::RetryPolicy,
        breaker: u32,
        trace: &TraceRecorder,
    ) -> FaultCtx {
        FaultCtx::new(&plan, 1, retry, breaker, trace.clone())
    }

    #[test]
    fn transients_are_absorbed_by_retry() {
        let (mut sim, eng, trace) = setup(10, 1000.0);
        let plan =
            spread_sim::FaultPlan::new(3).transient_copies(0, spread_trace::SimTime::ZERO, 2);
        eng.set_fault_ctx(ctx_for(
            plan,
            spread_sim::RetryPolicy::default(),
            100,
            &trace,
        ));
        let done = Rc::new(RefCell::new(Vec::new()));
        let faults = Rc::new(RefCell::new(Vec::new()));
        eng.enqueue(&mut sim, fault_op(500, done.clone(), faults.clone()));
        sim.run_until_idle();
        assert_eq!(done.borrow().len(), 1, "op completed after retries");
        assert!(faults.borrow().is_empty());
        assert_eq!(eng.completed_ops(), 1);
        let spans = trace.snapshot();
        let n_fault = spans.iter().filter(|s| s.kind == SpanKind::Fault).count();
        let n_retry = spans.iter().filter(|s| s.kind == SpanKind::Retry).count();
        assert_eq!(n_fault, 2);
        assert_eq!(n_retry, 2);
        // The completion is delayed past the fault-free case by backoff.
        assert!(done.borrow()[0] > 10e-6 + 0.5);
    }

    #[test]
    fn exhausted_retries_surface_the_fault() {
        let (mut sim, eng, trace) = setup(10, 1000.0);
        let plan =
            spread_sim::FaultPlan::new(3).transient_copies(0, spread_trace::SimTime::ZERO, 5);
        eng.set_fault_ctx(ctx_for(plan, spread_sim::RetryPolicy::none(), 100, &trace));
        let done = Rc::new(RefCell::new(Vec::new()));
        let faults = Rc::new(RefCell::new(Vec::new()));
        eng.enqueue(&mut sim, fault_op(500, done.clone(), faults.clone()));
        sim.run_until_idle();
        assert!(done.borrow().is_empty());
        let f = faults.borrow();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].device, 0);
        assert_eq!(
            f[0].kind,
            spread_sim::FaultEventKind::TransientExhausted { attempts: 1 }
        );
        assert_eq!(eng.backlog(), 0, "engine freed after the fault");
    }

    #[test]
    fn lost_device_fails_queued_ops_and_frees_the_engine() {
        let (mut sim, eng, trace) = setup(10, 1000.0);
        let ctx = ctx_for(
            spread_sim::FaultPlan::new(0),
            spread_sim::RetryPolicy::default(),
            8,
            &trace,
        );
        eng.set_fault_ctx(ctx.clone());
        ctx.mark_lost(&mut sim, 0);
        let done = Rc::new(RefCell::new(Vec::new()));
        let faults = Rc::new(RefCell::new(Vec::new()));
        eng.enqueue(&mut sim, fault_op(100, done.clone(), faults.clone()));
        eng.enqueue(&mut sim, fault_op(200, done.clone(), faults.clone()));
        sim.run_until_idle();
        assert!(done.borrow().is_empty());
        assert_eq!(faults.borrow().len(), 2, "both queued ops failed");
        for ev in faults.borrow().iter() {
            assert_eq!(ev.kind, spread_sim::FaultEventKind::DeviceLost);
        }
        assert_eq!(eng.backlog(), 0);
    }

    #[test]
    fn degraded_link_slows_the_transfer_but_moves_real_bytes() {
        let (mut sim, eng, trace) = setup(0, 100.0);
        let plan = spread_sim::FaultPlan::new(0).degrade_link(
            0,
            spread_trace::SimTime::ZERO,
            spread_trace::SimTime::from_secs_f64(100.0),
            2.0,
        );
        eng.set_fault_ctx(ctx_for(plan, spread_sim::RetryPolicy::default(), 8, &trace));
        let done = Rc::new(RefCell::new(Vec::new()));
        eng.enqueue(&mut sim, op(100, done.clone()));
        sim.run_until_idle();
        // 100 B at 100 B/s degraded 2× → 2 s instead of 1 s.
        assert!((done.borrow()[0] - 2.0).abs() < 1e-6);
        assert_eq!(eng.total_bytes(), 100, "accounting keeps real bytes");
        assert_eq!(trace.snapshot()[0].bytes, 100);
    }

    #[test]
    #[should_panic(expected = "no fault handler installed")]
    fn fault_without_handler_panics() {
        let (mut sim, eng, trace) = setup(0, 100.0);
        let ctx = ctx_for(
            spread_sim::FaultPlan::new(0),
            spread_sim::RetryPolicy::default(),
            8,
            &trace,
        );
        eng.set_fault_ctx(ctx.clone());
        ctx.mark_lost(&mut sim, 0);
        let done = Rc::new(RefCell::new(Vec::new()));
        eng.enqueue(&mut sim, op(1, done));
        sim.run_until_idle();
    }

    #[test]
    fn peer_direction_records_on_the_peer_lane_and_extra_caps_bind() {
        let trace = TraceRecorder::new();
        let mut sim = Simulator::new(trace.clone());
        let net = SharedFlowNet::new();
        let wide = net.add_capacity("peer-in", 1000.0);
        let narrow = net.add_capacity("peer-out", 100.0);
        let eng = DmaEngine::new(
            0,
            Direction::Peer,
            SimDuration::ZERO,
            vec![wide],
            net,
            trace.clone(),
        );
        let done = Rc::new(RefCell::new(Vec::new()));
        let mut o = op(100, done.clone());
        o.extra_caps = vec![narrow];
        eng.enqueue(&mut sim, o);
        sim.run_until_idle();
        // The per-op extra capacity (100 B/s) is the bottleneck: 1 s,
        // not the engine's fixed 1000 B/s.
        assert!((done.borrow()[0] - 1.0).abs() < 1e-6, "{:?}", done.borrow());
        let s = &trace.snapshot()[0];
        assert_eq!(s.kind, SpanKind::PeerCopy);
        assert_eq!(s.lane, Lane::peer(0));
    }

    #[test]
    fn two_engines_share_a_bus() {
        let trace = TraceRecorder::disabled();
        let mut sim = Simulator::new(trace.clone());
        let net = SharedFlowNet::new();
        let bus = net.add_capacity("bus", 100.0);
        let mk = |dev: u32| {
            let link = net.add_capacity(format!("link{dev}"), 100.0);
            DmaEngine::new(
                dev,
                Direction::In,
                SimDuration::ZERO,
                vec![link, bus],
                net.clone(),
                trace.clone(),
            )
        };
        let (e0, e1) = (mk(0), mk(1));
        let done = Rc::new(RefCell::new(Vec::new()));
        e0.enqueue(&mut sim, op(100, done.clone()));
        e1.enqueue(&mut sim, op(100, done.clone()));
        sim.run_until_idle();
        // Both share the 100 B/s bus → 2 s each instead of 1 s.
        for &t in done.borrow().iter() {
            assert!((t - 2.0).abs() < 1e-6, "contended transfer took {t}");
        }
    }
}

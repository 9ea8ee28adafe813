//! The per-device serialization gate.
//!
//! The paper's compiler drives each GPU through the CUDA *default
//! stream*: host→device copies, device→host copies and kernel launches
//! on one device all serialize, whatever the task graph would allow.
//! This is precisely what its Figure 4 shows — "the five kernel
//! computations were not executed subsequently, but interleaved with
//! data transfers from a different buffer" and "overlap of computation
//! and transfers happened in very rare occasions".
//!
//! A [`SerialGate`] models that: the device's three engines (H2D, D2H,
//! compute) must acquire the gate before starting an operation and
//! release it when the operation completes; waiters are served FIFO.
//! Devices configured with dual copy engines (the
//! [`crate::spec::DeviceSpec::single_queue`] flag off) skip the gate —
//! the "separate streams" ablation.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use spread_sim::Simulator;

use crate::compute::ComputeEngine;
use crate::dma::DmaEngine;

/// An engine queued for the gate. It holds back the operation it wants
/// to start, and starts it when the gate is granted to it.
pub enum Waiter {
    /// A DMA engine.
    Dma(DmaEngine),
    /// A compute engine.
    Compute(ComputeEngine),
}

impl Waiter {
    fn grant(self, sim: &mut Simulator, gate: &SerialGate) {
        match self {
            Waiter::Dma(engine) => engine.granted(sim, gate.clone()),
            Waiter::Compute(engine) => engine.granted(sim, gate.clone()),
        }
    }
}

struct Inner {
    busy: bool,
    waiters: VecDeque<Waiter>,
}

/// A FIFO mutual-exclusion gate over the simulator's virtual time.
#[derive(Clone)]
pub struct SerialGate {
    inner: Rc<RefCell<Inner>>,
}

impl Default for SerialGate {
    fn default() -> Self {
        Self::new()
    }
}

impl SerialGate {
    /// A free gate.
    pub fn new() -> Self {
        SerialGate {
            inner: Rc::new(RefCell::new(Inner {
                busy: false,
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Grant the gate to `waiter` once it is free (immediately if it
    /// is); the holder must call [`SerialGate::release`] when done.
    pub fn acquire(&self, sim: &mut Simulator, waiter: Waiter) {
        let run_now = {
            let mut inner = self.inner.borrow_mut();
            if inner.busy {
                inner.waiters.push_back(waiter);
                None
            } else {
                inner.busy = true;
                Some(waiter)
            }
        };
        if let Some(waiter) = run_now {
            waiter.grant(sim, self);
        }
    }

    /// Release the gate; the next waiter (if any) acquires it.
    pub fn release(&self, sim: &mut Simulator) {
        let next = {
            let mut inner = self.inner.borrow_mut();
            debug_assert!(inner.busy, "release of a free gate");
            match inner.waiters.pop_front() {
                Some(w) => Some(w), // stays busy, hand over
                None => {
                    inner.busy = false;
                    None
                }
            }
        };
        if let Some(waiter) = next {
            waiter.grant(sim, self);
        }
    }

    /// Operations queued behind the current holder.
    pub fn queued(&self) -> usize {
        self.inner.borrow().waiters.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::KernelOp;
    use crate::spec::ComputeModel;
    use spread_trace::TraceRecorder;

    /// A kernel of `ns` nanoseconds that logs `tag` and the virtual time
    /// when it completes.
    fn kernel(tag: u64, ns: u64, log: &Rc<RefCell<Vec<(u64, u64)>>>) -> KernelOp {
        let log = Rc::clone(log);
        KernelOp {
            tag,
            name: String::new(),
            iters: ns,
            work_per_iter_ns: 1.0,
            teams: 1,
            threads_per_team: 1,
            body: None,
            on_complete: Box::new(move |sim| log.borrow_mut().push((tag, sim.now().as_nanos()))),
            on_fault: None,
            streamed: false,
        }
    }

    fn engine(device: u32, gate: &SerialGate) -> ComputeEngine {
        let model = ComputeModel {
            launch_latency: spread_trace::SimDuration::ZERO,
            max_parallelism: 1,
            time_scale: 1.0,
        };
        ComputeEngine::new(device, model, TraceRecorder::disabled()).with_gate(gate.clone())
    }

    #[test]
    fn serializes_in_fifo_order() {
        let mut sim = Simulator::without_trace();
        let gate = SerialGate::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let engines: Vec<_> = (0..3).map(|d| engine(d, &gate)).collect();
        for (i, e) in engines.iter().enumerate() {
            e.enqueue(&mut sim, kernel(i as u64 + 1, 5, &log));
        }
        assert_eq!(gate.queued(), 2);
        sim.run_until_idle();
        // Three serialized 5 ns holds, in acquire order.
        assert_eq!(*log.borrow(), vec![(1, 5), (2, 10), (3, 15)]);
    }

    #[test]
    fn free_gate_runs_immediately() {
        let mut sim = Simulator::without_trace();
        let gate = SerialGate::new();
        let e = engine(0, &gate);
        let started = Rc::new(std::cell::Cell::new(false));
        let flag = Rc::clone(&started);
        let mut op = kernel(1, 5, &Rc::default());
        // The body runs when the gate is granted and the kernel starts.
        op.body = Some(Box::new(move || flag.set(true)));
        e.enqueue(&mut sim, op);
        assert!(started.get(), "granted inside acquire, no event round-trip");
        assert_eq!(gate.queued(), 0);
        sim.run_until_idle();
        assert_eq!(e.completed(), 1);
    }
}

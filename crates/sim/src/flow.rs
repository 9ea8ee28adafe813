//! Processor-sharing bulk transfers over shared capacity constraints.
//!
//! A *flow* is a bulk data movement of `bytes` through a set of capacity
//! constraints (its device link, the PCIe switch it hangs off, the host
//! bus). All concurrently active flows share the constraints under
//! **max–min fairness** (progressive filling / water-filling): rates are
//! raised equally for all flows until some constraint saturates, flows
//! through that constraint are frozen at their fair share, and the process
//! repeats with the residual capacity.
//!
//! Whenever a flow starts or finishes, the allocation changes, so the
//! [`SharedFlowNet`] re-computes every active flow's rate and re-schedules
//! its completion event. The result is the classic fluid model of
//! contended interconnects — exactly the effect the paper measures when it
//! reports that "the kernel computations had near to linear speedup … this
//! suggests the occurrence of a communication bottleneck introduced when
//! transferring data to and from multiple GPUs" (§VI-A).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use spread_trace::{SimDuration, SimTime};

use crate::engine::{EventId, Simulator};

/// Handle to a capacity constraint (a link, switch, or bus).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CapacityId(usize);

/// Handle to an active flow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(u64);

/// Bytes of slack below which a flow is considered finished (absorbs the
/// sub-nanosecond rounding of completion events).
const DONE_EPS_BYTES: f64 = 1.0;

struct Capacity {
    name: String,
    bytes_per_sec: f64,
    /// Total bytes that have streamed through this constraint.
    bytes_through: f64,
    /// Time-integral of utilization (∫ used/capacity dt, in seconds).
    busy_seconds: f64,
}

/// Completion callback of a flow.
pub type FlowCallback = Box<dyn FnOnce(&mut Simulator)>;

struct FlowState {
    remaining: f64,
    /// The route as [`SharedFlowNet::start_flow`] was given it.
    caps: Vec<CapacityId>,
    rate: f64,
    completion: Option<EventId>,
    on_complete: Option<FlowCallback>,
}

/// The flow network: capacities plus the currently active flows.
///
/// Use through [`SharedFlowNet`], which owns the `Rc<RefCell<…>>` plumbing
/// needed so completion events can reach back into the network.
pub struct FlowNet {
    caps: Vec<Capacity>,
    flows: BTreeMap<u64, FlowState>,
    next_flow: u64,
    last_progress: SimTime,
    /// Buffers every flow start and finish would otherwise allocate
    /// afresh: cleared, never shrunk.
    scratch: Scratch,
}

/// The reused working set of [`FlowNet`]: the per-constraint byte tally
/// of a progress step, the active flows' routes laid end to end (flow
/// `f` traverses `routes[bounds[f]..bounds[f + 1]]`), the max–min
/// solver's state, and the completion instants a reallocation
/// reschedules.
#[derive(Default)]
struct Scratch {
    per_cap: Vec<f64>,
    routes: Vec<usize>,
    bounds: Vec<usize>,
    solver: MaxMin,
    pending: Vec<(u64, SimTime, Option<EventId>)>,
}

impl FlowNet {
    fn new() -> Self {
        FlowNet {
            caps: Vec::new(),
            flows: BTreeMap::new(),
            next_flow: 0,
            last_progress: SimTime::ZERO,
            scratch: Scratch::default(),
        }
    }

    /// Advance all flows' `remaining` to time `now` at their current
    /// rates, attributing the moved bytes to every constraint each flow
    /// traverses (utilization accounting).
    fn progress_to(&mut self, now: SimTime) {
        let dt = now.since(self.last_progress).as_secs_f64();
        if dt > 0.0 {
            let per_cap = &mut self.scratch.per_cap;
            per_cap.clear();
            per_cap.resize(self.caps.len(), 0.0);
            for f in self.flows.values_mut() {
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
                for &CapacityId(c) in &f.caps {
                    per_cap[c] += f.rate * dt;
                }
            }
            for (cap, &moved) in self.caps.iter_mut().zip(per_cap.iter()) {
                cap.bytes_through += moved;
                if cap.bytes_per_sec > 0.0 {
                    cap.busy_seconds += moved / cap.bytes_per_sec;
                }
            }
        }
        self.last_progress = self.last_progress.max(now);
    }

    /// Recompute every active flow's max–min fair rate.
    fn compute_rates(&mut self) {
        let Scratch {
            routes,
            bounds,
            solver,
            ..
        } = &mut self.scratch;
        routes.clear();
        bounds.clear();
        bounds.push(0);
        for f in self.flows.values() {
            routes.extend(f.caps.iter().map(|c| c.0));
            bounds.push(routes.len());
        }
        solver.solve(
            self.caps.iter().map(|c| c.bytes_per_sec),
            self.flows.len(),
            |f| &routes[bounds[f]..bounds[f + 1]],
        );
        for (f, &rate) in self.flows.values_mut().zip(&solver.rates) {
            f.rate = rate;
        }
    }
}

/// The max–min solver's working set, kept across solves so a solve
/// allocates nothing once the buffers have grown to the network's size.
#[derive(Default)]
struct MaxMin {
    cap_left: Vec<f64>,
    users: Vec<usize>,
    frozen: Vec<bool>,
    rates: Vec<f64>,
}

impl MaxMin {
    /// Progressive filling over `cap_rates` and `n_flows` flows, flow
    /// `f` traversing `route(f)`; leaves one rate per flow in `rates`.
    fn solve<'r>(
        &mut self,
        cap_rates: impl IntoIterator<Item = f64>,
        n_flows: usize,
        route: impl Fn(usize) -> &'r [usize],
    ) {
        let MaxMin {
            cap_left,
            users,
            frozen,
            rates,
        } = self;
        rates.clear();
        rates.resize(n_flows, 0.0);
        if n_flows == 0 {
            return;
        }
        cap_left.clear();
        cap_left.extend(cap_rates);
        users.clear();
        users.resize(cap_left.len(), 0);
        for f in 0..n_flows {
            let caps = route(f);
            assert!(
                !caps.is_empty(),
                "flow must traverse at least one constraint"
            );
            for &c in caps {
                users[c] += 1;
            }
        }
        frozen.clear();
        frozen.resize(n_flows, false);
        let mut n_frozen = 0usize;
        while n_frozen < n_flows {
            // Bottleneck constraint: smallest fair share among used
            // constraints.
            let mut best: Option<(f64, usize)> = None;
            for (c, &left) in cap_left.iter().enumerate() {
                if users[c] == 0 {
                    continue;
                }
                let share = left / users[c] as f64;
                match best {
                    Some((s, _)) if s <= share => {}
                    _ => best = Some((share, c)),
                }
            }
            let Some((share, bottleneck)) = best else {
                break; // no used constraints remain (shouldn't happen)
            };
            let share = share.max(0.0);
            // Freeze every unfrozen flow through the bottleneck at `share`.
            for f in 0..n_flows {
                let caps = route(f);
                if frozen[f] || !caps.contains(&bottleneck) {
                    continue;
                }
                rates[f] = share;
                frozen[f] = true;
                n_frozen += 1;
                for &c in caps {
                    cap_left[c] = (cap_left[c] - share).max(0.0);
                    users[c] -= 1;
                }
            }
        }
    }
}

/// Compute max–min fair rates.
///
/// `cap_rates[c]` is the capacity of constraint `c` (bytes/s, must be
/// positive); `flow_caps[f]` lists the constraints flow `f` traverses
/// (must be non-empty). Returns one rate per flow.
///
/// Properties (see the proptests): for every constraint the sum of rates
/// through it never exceeds its capacity; every flow has a positive rate;
/// and the allocation is *work conserving* — each flow is bottlenecked by
/// at least one saturated constraint.
///
/// This is the flow network's own solver on a fresh working set; the
/// network keeps one across solves instead.
pub fn maxmin_rates(cap_rates: &[f64], flow_caps: &[&[usize]]) -> Vec<f64> {
    let mut solver = MaxMin::default();
    solver.solve(cap_rates.iter().copied(), flow_caps.len(), |f| flow_caps[f]);
    solver.rates
}

/// Shared handle to a [`FlowNet`]; clone freely.
///
/// ```
/// use spread_sim::{SharedFlowNet, Simulator};
///
/// let mut sim = Simulator::without_trace();
/// let net = SharedFlowNet::new();
/// let bus = net.add_capacity("bus", 100.0); // bytes per second
/// // Two 1000-byte flows share the bus at 50 B/s each.
/// for _ in 0..2 {
///     net.start_flow(&mut sim, 1000, vec![bus], Box::new(|_| {}));
/// }
/// sim.run_until_idle();
/// assert!((sim.now().as_secs_f64() - 20.0).abs() < 1e-6);
/// ```
#[derive(Clone)]
pub struct SharedFlowNet {
    inner: Rc<RefCell<FlowNet>>,
}

impl Default for SharedFlowNet {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedFlowNet {
    /// An empty network.
    pub fn new() -> Self {
        SharedFlowNet {
            inner: Rc::new(RefCell::new(FlowNet::new())),
        }
    }

    /// Register a capacity constraint. `bytes_per_sec` must be positive.
    pub fn add_capacity(&self, name: impl Into<String>, bytes_per_sec: f64) -> CapacityId {
        assert!(
            bytes_per_sec > 0.0 && bytes_per_sec.is_finite(),
            "capacity must be positive and finite"
        );
        let mut net = self.inner.borrow_mut();
        net.caps.push(Capacity {
            name: name.into(),
            bytes_per_sec,
            bytes_through: 0.0,
            busy_seconds: 0.0,
        });
        CapacityId(net.caps.len() - 1)
    }

    /// Find a constraint by its registered name.
    pub fn find_capacity(&self, name: &str) -> Option<CapacityId> {
        self.inner
            .borrow()
            .caps
            .iter()
            .position(|c| c.name == name)
            .map(CapacityId)
    }

    /// Number of flows currently in flight.
    pub fn active_flows(&self) -> usize {
        self.inner.borrow().flows.len()
    }

    /// Current rate of a flow (bytes/s), if still active.
    pub fn rate_of(&self, id: FlowId) -> Option<f64> {
        self.inner.borrow().flows.get(&id.0).map(|f| f.rate)
    }

    /// Total bytes that have streamed through a constraint so far
    /// (progress is accounted lazily; fully accurate once the simulator
    /// is idle).
    pub fn bytes_through(&self, id: CapacityId) -> u64 {
        self.inner.borrow().caps[id.0].bytes_through.round() as u64
    }

    /// A constraint's *equivalent saturated seconds*: the time it would
    /// have needed at full capacity to move its observed bytes. Divide by
    /// the simulation makespan for average utilization; it equals the
    /// makespan exactly when the constraint is the binding bottleneck.
    pub fn saturated_seconds(&self, id: CapacityId) -> f64 {
        self.inner.borrow().caps[id.0].busy_seconds
    }

    /// Start a flow of `bytes` through `caps`. `on_complete` fires (as a
    /// simulator event) when the last byte arrives. Zero-byte flows
    /// complete immediately.
    pub fn start_flow(
        &self,
        sim: &mut Simulator,
        bytes: u64,
        caps: Vec<CapacityId>,
        on_complete: FlowCallback,
    ) -> FlowId {
        assert!(
            !caps.is_empty(),
            "flow must traverse at least one constraint"
        );
        if bytes == 0 {
            sim.schedule_now(on_complete);
            return FlowId(u64::MAX);
        }
        let id = {
            let mut net = self.inner.borrow_mut();
            net.progress_to(sim.now());
            let id = net.next_flow;
            net.next_flow += 1;
            net.flows.insert(
                id,
                FlowState {
                    remaining: bytes as f64,
                    caps,
                    rate: 0.0,
                    completion: None,
                    on_complete: Some(on_complete),
                },
            );
            id
        };
        self.reallocate(sim);
        FlowId(id)
    }

    /// Progress, recompute rates, and reschedule every completion event
    /// (moving a pending completion's callback rather than boxing a new
    /// one).
    fn reallocate(&self, sim: &mut Simulator) {
        let now = sim.now();
        let mut pending = {
            let mut net = self.inner.borrow_mut();
            net.progress_to(now);
            net.compute_rates();
            let mut pending = std::mem::take(&mut net.scratch.pending);
            for (&id, f) in net.flows.iter_mut() {
                let at = if f.rate > 0.0 {
                    // +1 ns guards against round-to-nearest leaving a
                    // sub-byte residue at the event instant.
                    now + SimDuration::from_secs_f64(f.remaining / f.rate)
                        + SimDuration::from_nanos(1)
                } else {
                    SimTime::MAX
                };
                pending.push((id, at, f.completion.take()));
            }
            pending
        };
        for &(id, at, old) in &pending {
            let ev = old
                .and_then(|ev| sim.reschedule(ev, at))
                .unwrap_or_else(|| {
                    let shared = self.clone();
                    sim.schedule_at(at, Box::new(move |s| shared.finish_flow(s, id)))
                });
            self.inner
                .borrow_mut()
                .flows
                .get_mut(&id)
                .expect("flow still present")
                .completion = Some(ev);
        }
        pending.clear();
        self.inner.borrow_mut().scratch.pending = pending;
    }

    fn finish_flow(&self, sim: &mut Simulator, id: u64) {
        let cb = {
            let mut net = self.inner.borrow_mut();
            net.progress_to(sim.now());
            let Some(f) = net.flows.get(&id) else {
                return; // already completed via another path
            };
            if f.remaining > DONE_EPS_BYTES {
                // A stale completion (rate dropped since scheduling);
                // reallocate will schedule a fresh one.
                drop(net);
                self.reallocate(sim);
                return;
            }
            let mut f = net.flows.remove(&id).expect("checked above");
            f.on_complete.take()
        };
        self.reallocate(sim);
        if let Some(cb) = cb {
            cb(sim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// One flow through one 100 B/s constraint: 1000 bytes take 10 s.
    #[test]
    fn single_flow_duration() {
        let mut sim = Simulator::without_trace();
        let net = SharedFlowNet::new();
        let cap = net.add_capacity("link", 100.0);
        let done = Rc::new(RefCell::new(None));
        let d2 = done.clone();
        net.start_flow(
            &mut sim,
            1000,
            vec![cap],
            Box::new(move |s| {
                *d2.borrow_mut() = Some(s.now());
            }),
        );
        sim.run_until_idle();
        let t = done.borrow().expect("flow completed");
        let secs = t.as_secs_f64();
        assert!((secs - 10.0).abs() < 1e-6, "took {secs}s");
        assert_eq!(net.active_flows(), 0);
    }

    /// Two equal flows through a shared constraint each get half the
    /// bandwidth: both finish at 2× the solo time.
    #[test]
    fn two_flows_share_fairly() {
        let mut sim = Simulator::without_trace();
        let net = SharedFlowNet::new();
        let bus = net.add_capacity("bus", 100.0);
        let times = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..2 {
            let times = times.clone();
            net.start_flow(
                &mut sim,
                1000,
                vec![bus],
                Box::new(move |s| {
                    times.borrow_mut().push(s.now().as_secs_f64());
                }),
            );
        }
        sim.run_until_idle();
        let times = times.borrow();
        assert_eq!(times.len(), 2);
        for &t in times.iter() {
            assert!((t - 20.0).abs() < 1e-6, "took {t}s");
        }
    }

    /// A departing flow frees bandwidth for the survivor: 1000 B and
    /// 3000 B flows on a 100 B/s bus. Shared phase: both at 50 B/s; the
    /// small one finishes at t=20 having moved 1000; the big one then has
    /// 2000 left at 100 B/s → finishes at t=40.
    #[test]
    fn departure_reallocates() {
        let mut sim = Simulator::without_trace();
        let net = SharedFlowNet::new();
        let bus = net.add_capacity("bus", 100.0);
        let times = Rc::new(RefCell::new(Vec::new()));
        for bytes in [1000u64, 3000] {
            let times = times.clone();
            net.start_flow(
                &mut sim,
                bytes,
                vec![bus],
                Box::new(move |s| {
                    times.borrow_mut().push((bytes, s.now().as_secs_f64()));
                }),
            );
        }
        sim.run_until_idle();
        let times = times.borrow();
        assert_eq!(times[0].0, 1000);
        assert!(
            (times[0].1 - 20.0).abs() < 1e-6,
            "small flow at {}",
            times[0].1
        );
        assert_eq!(times[1].0, 3000);
        assert!(
            (times[1].1 - 40.0).abs() < 1e-6,
            "big flow at {}",
            times[1].1
        );
    }

    /// Late arrival splits the remaining bandwidth.
    #[test]
    fn late_arrival() {
        let mut sim = Simulator::without_trace();
        let net = SharedFlowNet::new();
        let bus = net.add_capacity("bus", 100.0);
        let done = Rc::new(RefCell::new(Vec::new()));
        {
            let done = done.clone();
            net.start_flow(
                &mut sim,
                1000,
                vec![bus],
                Box::new(move |s| {
                    done.borrow_mut().push(("first", s.now().as_secs_f64()));
                }),
            );
        }
        // At t=5 (500 bytes in), a second 500-byte flow arrives.
        let net2 = net.clone();
        let done2 = done.clone();
        sim.schedule_at(
            SimTime::from_secs_f64(5.0),
            Box::new(move |s| {
                let done3 = done2.clone();
                net2.start_flow(
                    s,
                    500,
                    vec![bus],
                    Box::new(move |s2| {
                        done3.borrow_mut().push(("second", s2.now().as_secs_f64()));
                    }),
                );
            }),
        );
        sim.run_until_idle();
        // From t=5: both at 50 B/s. First has 500 left → t=15; second 500 → t=15.
        let done = done.borrow();
        for &(_, t) in done.iter() {
            assert!((t - 15.0).abs() < 1e-6, "finished at {t}");
        }
    }

    /// The paper's topology shape: per-device links under a shared host
    /// bus. Four 12-unit links under a 22-unit bus → each flow gets 5.5.
    #[test]
    fn host_bus_caps_aggregate() {
        let mut sim = Simulator::without_trace();
        let net = SharedFlowNet::new();
        let bus = net.add_capacity("host-bus", 22.0);
        let mut ids = Vec::new();
        for d in 0..4 {
            let link = net.add_capacity(format!("link{d}"), 12.0);
            let id = net.start_flow(&mut sim, 1_000_000, vec![link, bus], Box::new(|_| {}));
            ids.push(id);
        }
        for id in &ids {
            let r = net.rate_of(*id).unwrap();
            assert!((r - 5.5).abs() < 1e-9, "rate {r}");
        }
        sim.run_until_idle();
    }

    /// One flow under the same topology is limited by its own link, not
    /// the bus: rate 12 of 22.
    #[test]
    fn single_flow_limited_by_link() {
        let mut sim = Simulator::without_trace();
        let net = SharedFlowNet::new();
        let bus = net.add_capacity("host-bus", 22.0);
        let link = net.add_capacity("link0", 12.0);
        let id = net.start_flow(&mut sim, 1_000_000, vec![link, bus], Box::new(|_| {}));
        assert!((net.rate_of(id).unwrap() - 12.0).abs() < 1e-9);
        sim.run_until_idle();
    }

    /// Max–min proper: a flow constrained by a slow private link leaves
    /// its unused share to the others (not a plain equal split).
    #[test]
    fn maxmin_redistributes_slack() {
        // Bus 30; flows A (link 5 + bus), B (bus), C (bus).
        // A bottlenecked at 5; B and C share the remaining 25 → 12.5 each.
        let rates = maxmin_rates(&[30.0, 5.0], &[&[0, 1], &[0], &[0]]);
        assert!((rates[0] - 5.0).abs() < 1e-9);
        assert!((rates[1] - 12.5).abs() < 1e-9);
        assert!((rates[2] - 12.5).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut sim = Simulator::without_trace();
        let net = SharedFlowNet::new();
        let cap = net.add_capacity("link", 10.0);
        let fired = Rc::new(RefCell::new(false));
        let f2 = fired.clone();
        net.start_flow(
            &mut sim,
            0,
            vec![cap],
            Box::new(move |_| *f2.borrow_mut() = true),
        );
        sim.run_until_idle();
        assert!(*fired.borrow());
    }

    #[test]
    #[should_panic(expected = "at least one constraint")]
    fn empty_caps_rejected() {
        let mut sim = Simulator::without_trace();
        let net = SharedFlowNet::new();
        net.start_flow(&mut sim, 10, vec![], Box::new(|_| {}));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn nonpositive_capacity_rejected() {
        let net = SharedFlowNet::new();
        net.add_capacity("bad", 0.0);
    }

    #[test]
    fn capacity_accounting() {
        let mut sim = Simulator::without_trace();
        let net = SharedFlowNet::new();
        let bus = net.add_capacity("bus", 100.0);
        let l0 = net.add_capacity("l0", 100.0);
        let l1 = net.add_capacity("l1", 100.0);
        net.start_flow(&mut sim, 600, vec![l0, bus], Box::new(|_| {}));
        net.start_flow(&mut sim, 400, vec![l1, bus], Box::new(|_| {}));
        sim.run_until_idle();
        // Every byte of both flows crossed the bus; links saw their own.
        assert_eq!(net.bytes_through(bus), 1000);
        assert_eq!(net.bytes_through(l0), 600);
        assert_eq!(net.bytes_through(l1), 400);
        // The bus was the bottleneck: saturated for the whole makespan
        // (1000 bytes / 100 B/s = 10 s).
        assert!((net.saturated_seconds(bus) - 10.0).abs() < 1e-6);
        assert!((sim.now().as_secs_f64() - 10.0).abs() < 1e-6);
        // The links ran at half speed: 6 s and 4 s of equivalent
        // saturation respectively.
        assert!((net.saturated_seconds(l0) - 6.0).abs() < 1e-6);
        assert!((net.saturated_seconds(l1) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn byte_conservation_many_random_flows() {
        // 50 flows of varying size through random cap subsets; all must
        // complete, and total virtual time must be at least total_bytes /
        // sum_of_bottleneck (sanity lower bound) and finite.
        let mut sim = Simulator::without_trace();
        let net = SharedFlowNet::new();
        let caps: Vec<_> = (0..4)
            .map(|i| net.add_capacity(format!("c{i}"), 50.0 + 10.0 * i as f64))
            .collect();
        let completed = Rc::new(RefCell::new(0usize));
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..50 {
            let bytes = 1 + next() % 10_000;
            let c1 = caps[(next() % 4) as usize];
            let c2 = caps[(next() % 4) as usize];
            let use_caps = if c1 == c2 { vec![c1] } else { vec![c1, c2] };
            let completed = completed.clone();
            net.start_flow(
                &mut sim,
                bytes,
                use_caps,
                Box::new(move |_| {
                    *completed.borrow_mut() += 1;
                }),
            );
        }
        sim.run_until_idle();
        assert_eq!(*completed.borrow(), 50);
        assert_eq!(net.active_flows(), 0);
    }
}

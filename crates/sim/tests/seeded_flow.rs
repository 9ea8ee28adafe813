//! Seeded property tests for the max–min fair allocator and the flow
//! network (deterministic `spread_prng` loops; offline-friendly).

use spread_prng::Prng;
use spread_sim::flow::maxmin_rates;
use spread_sim::{SharedFlowNet, Simulator};

use std::cell::RefCell;
use std::rc::Rc;

/// Random scenario: up to 6 constraints with capacities in [1, 1000), up
/// to 12 flows each traversing a non-empty subset of the constraints.
fn scenario(r: &mut Prng) -> (Vec<f64>, Vec<Vec<usize>>) {
    let n_caps = r.range(1, 7);
    let caps: Vec<f64> = (0..n_caps).map(|_| 1.0 + 999.0 * r.f64()).collect();
    let n_flows = r.range(0, 12);
    let flows = (0..n_flows)
        .map(|_| {
            let k = r.range(1, n_caps + 1);
            let mut ids: Vec<usize> = (0..n_caps).collect();
            r.shuffle(&mut ids);
            ids.truncate(k);
            ids.sort_unstable();
            ids
        })
        .collect();
    (caps, flows)
}

/// No constraint is ever oversubscribed.
#[test]
fn rates_respect_all_capacities() {
    let mut r = Prng::new(0xf10f_0001);
    for case in 0..128 {
        let (caps, flows) = scenario(&mut r);
        let flow_refs: Vec<&[usize]> = flows.iter().map(|f| f.as_slice()).collect();
        let rates = maxmin_rates(&caps, &flow_refs);
        assert_eq!(rates.len(), flows.len());
        for (c, &cap) in caps.iter().enumerate() {
            let used: f64 = flows
                .iter()
                .zip(&rates)
                .filter(|(f, _)| f.contains(&c))
                .map(|(_, &r)| r)
                .sum();
            assert!(
                used <= cap * (1.0 + 1e-9),
                "case {case} cap {c}: {used} > {cap}"
            );
        }
    }
}

/// Every flow gets a strictly positive rate.
#[test]
fn rates_are_positive() {
    let mut r = Prng::new(0xf10f_0002);
    for case in 0..128 {
        let (caps, flows) = scenario(&mut r);
        let flow_refs: Vec<&[usize]> = flows.iter().map(|f| f.as_slice()).collect();
        let rates = maxmin_rates(&caps, &flow_refs);
        for (f, &rate) in rates.iter().enumerate() {
            assert!(rate > 0.0, "case {case} flow {f} rate {rate}");
        }
    }
}

/// Work conservation: every flow is bottlenecked by at least one
/// constraint that is (nearly) saturated — no one could be raised
/// without violating a constraint.
#[test]
fn allocation_is_work_conserving() {
    let mut r = Prng::new(0xf10f_0003);
    for case in 0..128 {
        let (caps, flows) = scenario(&mut r);
        let flow_refs: Vec<&[usize]> = flows.iter().map(|f| f.as_slice()).collect();
        let rates = maxmin_rates(&caps, &flow_refs);
        let usage: Vec<f64> = (0..caps.len())
            .map(|c| {
                flows
                    .iter()
                    .zip(&rates)
                    .filter(|(f, _)| f.contains(&c))
                    .map(|(_, &r)| r)
                    .sum()
            })
            .collect();
        for (f, fc) in flows.iter().enumerate() {
            let bottlenecked = fc.iter().any(|&c| usage[c] >= caps[c] * (1.0 - 1e-9));
            assert!(bottlenecked, "case {case} flow {f} has slack everywhere");
        }
    }
}

/// Equal-route flows get equal rates (the exact, checkable corollary of
/// max–min fairness).
#[test]
fn identical_routes_get_identical_rates() {
    let mut r = Prng::new(0xf10f_0004);
    for case in 0..128 {
        let (caps, flows) = scenario(&mut r);
        let flow_refs: Vec<&[usize]> = flows.iter().map(|f| f.as_slice()).collect();
        let rates = maxmin_rates(&caps, &flow_refs);
        for i in 0..flows.len() {
            for j in (i + 1)..flows.len() {
                if flows[i] == flows[j] {
                    let (a, b) = (rates[i], rates[j]);
                    assert!(
                        (a - b).abs() <= 1e-9 * a.max(b).max(1.0),
                        "case {case}: flows {i},{j} same route, rates {a} vs {b}"
                    );
                }
            }
        }
    }
}

/// Bit-pinned flow model: 64 seeded flows over a CTE-POWER-shaped
/// network (four links under two switches under one host bus, plus two
/// private side links), half started together at t = 0 and half arriving
/// late while others are in flight. An FNV-1a digest over every
/// completion `(flow, instant)` in firing order and every constraint's
/// `bytes_through` and `saturated_seconds` bits must not move: the
/// properties above hold for many allocators, but only these bits say
/// that a refactor of the solver kept every rate and instant.
#[test]
fn the_flow_model_is_bit_pinned() {
    use spread_prng::hash::FnvHasher;
    use spread_sim::SimTime;
    use std::hash::Hasher;

    let mut r = Prng::new(0xf10f_0006);
    let mut sim = Simulator::without_trace();
    let net = SharedFlowNet::new();
    let bus = net.add_capacity("host-bus", 21e9);
    let switches = [net.add_capacity("sw0", 14e9), net.add_capacity("sw1", 14e9)];
    let links: Vec<_> = (0..4)
        .map(|d| net.add_capacity(format!("link{d}"), 12e9))
        .collect();
    let side = [
        net.add_capacity("side0", 3e9),
        net.add_capacity("side1", 5e9),
    ];
    let mut all = vec![bus, switches[0], switches[1]];
    all.extend(&links);
    all.extend(side);
    let done: Rc<RefCell<Vec<(usize, u64)>>> = Rc::new(RefCell::new(Vec::new()));
    for i in 0..64 {
        let d = r.range(0, 4);
        let mut route = vec![links[d], switches[d / 2], bus];
        if r.chance(0.25) {
            route.push(side[r.range(0, 2)]);
        }
        let bytes = 1 + r.below(64 << 20);
        let at = if i < 32 {
            SimTime::ZERO
        } else {
            SimTime::from_nanos(r.below(20_000_000))
        };
        let (net, done) = (net.clone(), done.clone());
        sim.schedule_at(
            at,
            Box::new(move |s| {
                net.start_flow(
                    s,
                    bytes,
                    route,
                    Box::new(move |s| done.borrow_mut().push((i, s.now().as_nanos()))),
                );
            }),
        );
    }
    sim.run_until_idle();
    let done = done.borrow();
    assert_eq!(done.len(), 64);
    let mut h = FnvHasher::default();
    for &(i, t) in done.iter() {
        h.write(&(i as u64).to_le_bytes());
        h.write(&t.to_le_bytes());
    }
    for &c in &all {
        h.write(&net.bytes_through(c).to_le_bytes());
        h.write(&net.saturated_seconds(c).to_bits().to_le_bytes());
    }
    assert_eq!(h.finish(), 0x9680_9bf4_d65e_d8c5, "flow model digest moved");
}

/// End-to-end: random flows through a random network all complete, and
/// each flow's completion time is at least bytes / (its fastest
/// constraint) — you cannot beat the physics.
#[test]
fn flows_complete_and_respect_physics() {
    let mut r = Prng::new(0xf10f_0005);
    for case in 0..64 {
        let (caps, flows) = scenario(&mut r);
        let sizes: Vec<u64> = (0..flows.len()).map(|_| 1 + r.below(99_999)).collect();
        let mut sim = Simulator::without_trace();
        let net = SharedFlowNet::new();
        let cap_ids: Vec<_> = caps
            .iter()
            .enumerate()
            .map(|(i, &c)| net.add_capacity(format!("c{i}"), c))
            .collect();
        let done: Rc<RefCell<Vec<(usize, f64)>>> = Rc::new(RefCell::new(Vec::new()));
        let n = flows.len();
        for i in 0..n {
            let use_caps: Vec<_> = flows[i].iter().map(|&c| cap_ids[c]).collect();
            let done = done.clone();
            net.start_flow(
                &mut sim,
                sizes[i],
                use_caps,
                Box::new(move |s| {
                    done.borrow_mut().push((i, s.now().as_secs_f64()));
                }),
            );
        }
        sim.run_until_idle();
        let done = done.borrow();
        assert_eq!(done.len(), n, "case {case}");
        for &(i, t) in done.iter() {
            let best_cap = flows[i].iter().map(|&c| caps[c]).fold(f64::MAX, f64::min);
            let lower_bound = sizes[i] as f64 / best_cap;
            assert!(
                t >= lower_bound * (1.0 - 1e-6),
                "case {case} flow {i}: {t}s < physical minimum {lower_bound}s"
            );
        }
    }
}

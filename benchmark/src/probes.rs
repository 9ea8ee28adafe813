//! Layer probes: each times one crate's public functions from outside,
//! at the operating point a workload actually runs at.
//!
//! A probe is not a trace of the workload. It answers "what does one
//! task / map / DMA op / event / flow cost at this width?", and the
//! report multiplies that by the workload's exact counts to attribute
//! host time. Every probe is the median of [`SAMPLES`] samples, each
//! sample a batch, so one scheduler hiccup cannot move it.

use std::hint::black_box;
use std::time::Instant;

use target_spread::core::data_spread::evaluate_maps;
use target_spread::core::{spread_tofrom, ChunkCtx, SpreadClauses};
use target_spread::devices::compute::KernelOp;
use target_spread::devices::dma::DmaOp;
use target_spread::devices::{DeviceMemory, MemoryPool, Node, Topology};
use target_spread::rt::mapping::{EnterDecision, ExitDecision, PresenceTable};
use target_spread::rt::task::{FpAccess, TaskGraph, TaskSpec};
use target_spread::rt::{ArrayId, Runtime, RuntimeConfig, Section};
use target_spread::sim::flow::maxmin_rates;
use target_spread::sim::{SharedFlowNet, Simulator};
use target_spread::teams::{LoopSchedule, TeamPool};
use target_spread::trace::{Lane, SimDuration, SimTime, SpanKind, TraceRecorder};

use crate::stats;
use crate::workloads::Metrics;

/// Samples per probe (the issue asks for at least 30).
pub const SAMPLES: usize = 31;

/// Where a workload operates, as far as the probes care.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OperatingPoint {
    /// Unfinished graph tasks while one more is created, started and
    /// finished (a `target spread` chunk is three: enter, kernel,
    /// exit); also the pending-event count of the event probe.
    pub live_tasks: usize,
    /// Presence entries on one device.
    pub table_entries: usize,
    /// Elements of a typical mapped buffer.
    pub buffer_elems: usize,
    /// Concurrent flows in the interconnect model.
    pub flows: usize,
    /// Chunks of one construct (the planning probe).
    pub chunks: usize,
}

impl OperatingPoint {
    /// `construct_storm`'s nominal point: one 16-chunk synchronous
    /// construct alive at a time.
    pub const NARROW: OperatingPoint = OperatingPoint {
        live_tasks: 48,
        table_entries: 8,
        buffer_elems: 64,
        flows: 2,
        chunks: 16,
    };
    /// `depend_pipeline`'s nominal point: 512 chunk chains of five
    /// graph tasks (enter data, the construct's three, exit data)
    /// issued before anything drains. The workload derives its point
    /// from its size; a test there pins the two together.
    #[cfg(test)]
    pub const WIDE: OperatingPoint = OperatingPoint {
        live_tasks: 2560,
        table_entries: 128,
        buffer_elems: 64,
        flows: 8,
        chunks: 256,
    };
}

fn median_of(mut sample: impl FnMut() -> f64) -> f64 {
    let mut xs: Vec<f64> = (0..SAMPLES).map(|_| sample()).collect();
    stats::median(&mut xs)
}

/// Nanoseconds per call of `f`, one sample = `batch` calls.
fn ns_per_call(batch: usize, mut f: impl FnMut(usize)) -> f64 {
    median_of(|| {
        let t = Instant::now();
        for i in 0..batch {
            f(i);
        }
        t.elapsed().as_nanos() as f64 / batch as f64
    })
}

const A0: ArrayId = ArrayId(0);
/// Elements per probe section: the synthetic workloads' chunk size.
const SEC: usize = 64;

fn sec_of(array: ArrayId, i: usize) -> Section {
    Section::new(array, i * SEC, SEC)
}

fn sec(i: usize) -> Section {
    sec_of(A0, i)
}

/// A chunk task on section `i` of array `i % 2`: it waits on and
/// publishes a write of its section and writes its device image.
fn chunk_task(i: usize) -> TaskSpec {
    let s = sec_of(ArrayId((i % 2) as u32), i);
    let mut spec = TaskSpec::new("probe");
    spec.wait_on = vec![(s, true)];
    spec.publish = vec![(s, true)];
    spec.fp_writes = vec![FpAccess::device((i % 4) as u32, s)];
    spec
}

/// Tasks of the live set that are running; the rest wait, as most of a
/// wide graph does (four devices keep at most a dozen engines busy).
const RUNNING: usize = 8;

/// `spread-rt` task graph: `create` + `start` + `finish` of one chunk
/// task while `live_tasks` others are unfinished on two arrays —
/// dependence matching scans the records of the task's array, race
/// detection scans the running set's footprints.
pub fn taskgraph_ns_per_task(p: OperatingPoint) -> f64 {
    const BATCH: usize = 64;
    let mut g = TaskGraph::new();
    for i in 0..p.live_tasks {
        let (id, ready) = g.create(chunk_task(i));
        assert!(ready, "probe tasks are independent");
        if i < RUNNING {
            g.start(id);
        }
    }
    median_of(|| {
        let specs: Vec<TaskSpec> = (0..BATCH).map(|j| chunk_task(p.live_tasks + j)).collect();
        let t = Instant::now();
        for spec in specs {
            let (id, _) = g.create(spec);
            g.start(id);
            black_box(g.finish(id));
        }
        t.elapsed().as_nanos() as f64 / BATCH as f64
    })
}

fn filled_table(entries: usize) -> (PresenceTable, target_spread::devices::AllocId) {
    // The table never looks inside an AllocId; one real id serves all.
    let alloc = MemoryPool::new(1 << 20)
        .alloc(8)
        .expect("fresh pool has room");
    let mut table = PresenceTable::new();
    for i in 0..entries {
        table.insert_fresh(sec(i), alloc);
    }
    (table, alloc)
}

/// `spread-rt` presence: one fresh map's round trip — `begin_enter`,
/// `insert_fresh`, `begin_exit`, `finish_exit` — in a table already
/// holding `table_entries` sections.
pub fn presence_ns_per_map(p: OperatingPoint) -> f64 {
    let (mut table, alloc) = filled_table(p.table_entries);
    ns_per_call(64, |j| {
        let s = sec(p.table_entries + j);
        assert_eq!(table.begin_enter(s), Ok(EnterDecision::Fresh));
        table.insert_fresh(s, alloc);
        let Ok(ExitDecision::LastRef(key)) = table.begin_exit(&s, false) else {
            panic!("sole reference must be the last");
        };
        black_box(table.finish_exit(key));
    })
}

/// `spread-rt` presence: one present-hit lookup in the same table.
pub fn presence_hit_ns(p: OperatingPoint) -> f64 {
    let (table, _) = filled_table(p.table_entries);
    ns_per_call(256, |j| {
        let inner = Section::new(A0, (j % p.table_entries) * SEC + 1, SEC / 2);
        black_box(table.lookup_containing(black_box(&inner)).is_some());
    })
}

/// `spread-devices` memory: `alloc_elems` (zero-fill included) +
/// `dealloc` of one buffer.
pub fn alloc_ns(p: OperatingPoint) -> f64 {
    let mut mem = DeviceMemory::new(16 << 30);
    ns_per_call(8, |_| {
        let id = mem.alloc_elems(p.buffer_elems).expect("16 GiB pool");
        black_box(mem.buffer(id).len());
        mem.dealloc(id);
    })
}

/// `spread-devices` memory: GB/s of `alloc_elems` → `copy_from_slice`
/// → `dealloc`, the first-touch copy every freshly mapped chunk pays.
pub fn alloc_copy_gbps(p: OperatingPoint) -> f64 {
    let src: Vec<f64> = (0..p.buffer_elems).map(|i| i as f64).collect();
    let mut mem = DeviceMemory::new(16 << 30);
    let ns = ns_per_call(8, |_| {
        let id = mem.alloc_elems(src.len()).expect("16 GiB pool");
        mem.buffer_mut(id).copy_from_slice(black_box(&src));
        black_box(mem.buffer(id)[src.len() / 2]);
        mem.dealloc(id);
    });
    (src.len() * 8) as f64 / ns
}

/// `spread-devices` engines: host ns per DMA operation and per kernel
/// launch through a 4-device node — `enqueue` then `run_until_idle`,
/// with an empty data effect, so only the engine, its flow and its
/// events are timed.
pub fn engine_ns_per_op(p: OperatingPoint) -> (f64, f64) {
    const BATCH: usize = 64;
    let trace = TraceRecorder::disabled();
    let node = Node::new(&Topology::ctepower(4), &trace);
    let mut sim = Simulator::new(trace);
    let bytes = (p.buffer_elems * 8) as u64;
    let dma = median_of(|| {
        let t = Instant::now();
        for i in 0..BATCH {
            node.devices()[i % 4].dma_in.enqueue(
                &mut sim,
                DmaOp {
                    bytes,
                    label: String::from("probe"),
                    effect: Some(Box::new(|| {})),
                    on_complete: Box::new(|_| {}),
                    on_fault: None,
                    extra_caps: Vec::new(),
                    streamed: false,
                },
            );
        }
        sim.run_until_idle();
        t.elapsed().as_nanos() as f64 / BATCH as f64
    });
    let compute = median_of(|| {
        let t = Instant::now();
        for i in 0..BATCH {
            node.devices()[i % 4].compute.enqueue(
                &mut sim,
                KernelOp {
                    tag: 0,
                    name: String::from("probe"),
                    iters: p.buffer_elems as u64,
                    work_per_iter_ns: 1.0,
                    teams: 80,
                    threads_per_team: 64,
                    body: Some(Box::new(|| {})),
                    on_complete: Box::new(|_| {}),
                    on_fault: None,
                    streamed: false,
                },
            );
        }
        sim.run_until_idle();
        t.elapsed().as_nanos() as f64 / BATCH as f64
    });
    (dma, compute)
}

/// `spread-sim` event loop: `schedule_after` + `step` of one event
/// with `live_tasks` other events pending in the heap.
pub fn event_ns(p: OperatingPoint) -> f64 {
    let mut sim = Simulator::without_trace();
    for i in 0..p.live_tasks {
        sim.schedule_at(
            SimTime::ZERO + SimDuration::from_secs_f64(1e6 + i as f64),
            Box::new(|_| {}),
        );
    }
    ns_per_call(256, |_| {
        sim.schedule_after(SimDuration::from_nanos(1), Box::new(|_| {}));
        assert!(sim.step());
    })
}

/// Capacities of a CTE-POWER-shaped interconnect and the route of flow
/// `i`: its device link, that device's switch, the host bus.
fn routes(flows: usize) -> (Vec<f64>, Vec<Vec<usize>>) {
    const GBS: f64 = 1e9;
    let mut caps = vec![21.0 * GBS, 14.0 * GBS, 14.0 * GBS];
    caps.extend([12.0 * GBS; 8]);
    let routes = (0..flows)
        .map(|i| vec![3 + i % 8, 1 + (i % 8) / 4, 0])
        .collect();
    (caps, routes)
}

/// `spread-sim` flow model: one `maxmin_rates` solve over `flows`
/// flows.
pub fn maxmin_ns(p: OperatingPoint) -> f64 {
    let (caps, routes) = routes(p.flows);
    let views: Vec<&[usize]> = routes.iter().map(Vec::as_slice).collect();
    ns_per_call(32, |_| {
        black_box(maxmin_rates(black_box(&caps), black_box(&views)));
    })
}

/// `spread-sim` flow model: host ns per flow when `flows` flows start
/// together and run to completion (every start and every finish
/// re-solves and re-schedules all of them).
pub fn flow_ns(p: OperatingPoint) -> f64 {
    let (cap_rates, routes) = routes(p.flows);
    let net = SharedFlowNet::new();
    let caps: Vec<_> = cap_rates
        .iter()
        .enumerate()
        .map(|(i, &r)| net.add_capacity(format!("cap{i}"), r))
        .collect();
    let mut sim = Simulator::without_trace();
    median_of(|| {
        let t = Instant::now();
        for (i, route) in routes.iter().enumerate() {
            net.start_flow(
                &mut sim,
                512 + i as u64,
                route.iter().map(|&c| caps[c]).collect(),
                Box::new(|_| {}),
            );
        }
        sim.run_until_idle();
        t.elapsed().as_nanos() as f64 / routes.len() as f64
    })
}

/// `spread-core` planning from outside: `SpreadClauses::chunks` plus
/// `evaluate_maps` for each chunk, the work a cold launch repeats.
pub fn chunks_ns(p: OperatingPoint) -> f64 {
    let mut rt = Runtime::new(
        RuntimeConfig::new(Topology::ctepower(4))
            .with_team_threads(1)
            .with_trace(false),
    );
    let n = p.chunks * SEC;
    let a = rt.host_array("probe", n);
    let clauses = SpreadClauses::devices([0, 1, 2, 3])
        .range(0, n)
        .chunk_size(SEC)
        .map(spread_tofrom(a, |c| c.range()));
    ns_per_call(8, |_| {
        let chunks = clauses.chunks().expect("valid clauses");
        for c in &chunks {
            black_box(evaluate_maps(
                clauses.map_list(),
                ChunkCtx::new(c.start, c.len),
            ));
        }
    })
}

/// `spread-teams`: ns per empty `broadcast` and Melem/s of a
/// `parallel_for` summing a 1 Mi-element array, for a team of `t`.
pub fn teams(t: usize) -> (f64, f64) {
    let pool = TeamPool::new(t);
    let broadcast = ns_per_call(64, |_| {
        pool.broadcast(&|tid| {
            black_box(tid);
        })
    });
    let data: Vec<f64> = (0..1 << 20).map(|i| i as f64).collect();
    let ns = ns_per_call(1, |_| {
        pool.parallel_for(0..data.len(), LoopSchedule::StaticBlocked, |chunk, _| {
            black_box(data[chunk].iter().sum::<f64>());
        });
    });
    (broadcast, data.len() as f64 / ns * 1e3)
}

/// `spread-trace`: ns per recorded span.
pub fn trace_record_ns() -> f64 {
    let rec = TraceRecorder::new();
    ns_per_call(256, |i| {
        let at = SimTime::ZERO + SimDuration::from_nanos(i as u64);
        black_box(rec.record(Lane::compute(0), SpanKind::Kernel, "probe", at, at, 0));
    })
}

/// Bytes of the last-level cache, from sysfs; 32 MiB when unreadable.
pub fn llc_bytes() -> usize {
    (0..=4)
        .rev()
        .find_map(|i| {
            let text = std::fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{i}/size"
            ))
            .ok()?;
            let text = text.trim();
            let (num, mult) = match text.as_bytes().last()? {
                b'K' => (&text[..text.len() - 1], 1 << 10),
                b'M' => (&text[..text.len() - 1], 1 << 20),
                _ => (text, 1),
            };
            num.parse::<usize>().ok().map(|n| n * mult)
        })
        .unwrap_or(32 << 20)
}

/// Sustained host copy bandwidth in GB/s between two arrays of
/// `array_bytes` each (at least four times the last-level cache, at
/// most 256 MiB), and that size.
pub fn memcpy_gbps() -> (f64, usize) {
    let array_bytes = (4 * llc_bytes()).clamp(64 << 20, 256 << 20);
    let n = array_bytes / 8;
    let src: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut dst = vec![1.0f64; n];
    let mut secs: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(dst[n / 2]);
            t.elapsed().as_secs_f64()
        })
        .collect();
    (
        array_bytes as f64 / stats::median(&mut secs) / 1e9,
        array_bytes,
    )
}

/// Run every probe at `p` and set the probe metrics. The `*_x_narrow`
/// ratios compare this workload's point with
/// [`OperatingPoint::NARROW`], so a cost that grows faster than the
/// width shows as a ratio above 1.
pub fn run_all(m: &mut Metrics, notes: &mut Vec<String>, p: OperatingPoint) {
    let taskgraph = taskgraph_ns_per_task(p);
    let (dma, compute) = engine_ns_per_op(p);
    let maxmin = maxmin_ns(p);
    let (memcpy, memcpy_bytes) = memcpy_gbps();

    m.set("core.chunks_ns", chunks_ns(p));
    m.set("rt.taskgraph_ns_per_task", taskgraph);
    m.set(
        "rt.taskgraph_x_narrow",
        taskgraph / taskgraph_ns_per_task(OperatingPoint::NARROW),
    );
    m.set("rt.presence_ns_per_map", presence_ns_per_map(p));
    m.set("rt.presence_hit_ns", presence_hit_ns(p));
    m.set("devices.alloc_ns", alloc_ns(p));
    m.set("devices.alloc_copy_gbps", alloc_copy_gbps(p));
    m.set("devices.dma_ns_per_op", dma);
    m.set("devices.compute_ns_per_op", compute);
    m.set("sim.event_ns", event_ns(p));
    m.set("sim.maxmin_ns", maxmin);
    m.set(
        "sim.maxmin_x_narrow",
        maxmin / maxmin_ns(OperatingPoint::NARROW),
    );
    m.set("sim.flow_ns", flow_ns(p));
    let (b1, m1) = teams(1);
    let (b2, m2) = teams(2);
    m.set("teams.broadcast_ns.t1", b1);
    m.set("teams.broadcast_ns.t2", b2);
    m.set("teams.parallel_for_melem_s.t1", m1);
    m.set("teams.parallel_for_melem_s.t2", m2);
    m.set("teams.scaling_t2", m2 / m1);
    m.set("trace.record_ns", trace_record_ns());
    m.set("host.memcpy_gbps", memcpy);
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    m.set("host.nproc", nproc as f64);
    notes.push(format!(
        "probes at {p:?}: medians of {SAMPLES} samples; host.memcpy_gbps between two \
         {} MiB arrays (last-level cache {} MiB)",
        memcpy_bytes >> 20,
        llc_bytes() >> 20
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The probes drive real library state machines with assertions
    /// inside; running each once at both points is the test.
    #[test]
    fn every_probe_runs_at_both_points_and_is_positive() {
        for p in [OperatingPoint::NARROW, OperatingPoint::WIDE] {
            let mut m = Metrics::default();
            let mut notes = Vec::new();
            run_all(&mut m, &mut notes, p);
            assert!(m.iter().count() >= 20);
            for (name, v) in m.iter() {
                assert!(v.is_finite() && v > 0.0, "{name} = {v} at {p:?}");
            }
        }
    }

    #[test]
    fn routes_follow_the_ctepower_shape() {
        let (caps, routes) = routes(9);
        assert_eq!(caps.len(), 11);
        assert_eq!(routes[0], vec![3, 1, 0]);
        assert_eq!(routes[5], vec![8, 2, 0]);
        assert_eq!(routes[8], routes[0]);
    }
}

//! The four workloads and what they share: the run arguments, the
//! check/failure accounting, the metric bag, the repeat-until-time
//! loops, and the extraction of exact counts and modelled-node
//! (`virt.*`) figures from a traced runtime.

pub mod pipeline;
pub mod somier;
pub mod storm;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use target_spread::rt::{HostArray, KernelArg, KernelSpec, RtError, Runtime};
use target_spread::trace::analysis::{concurrency_profile, device_idle, overlap_report};
use target_spread::trace::{OverlapReport, SpanKind, Timeline};

use crate::probes::OperatingPoint;
use crate::spans::SpanLog;
use crate::stats;

/// Arguments of one workload run.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    /// Drives only the benchmark's generator.
    pub seed: u64,
    /// How long the untraced timed region measures.
    pub seconds: f64,
    /// Also run the traced pass and the layer probes.
    pub traced: bool,
    pub scale: Scale,
}

/// Problem sizes. `Tiny` exists for the package's own tests, which
/// check the generator and the verification, not speed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One workload: its name, why it exists, and its entry point.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub run: fn(&RunArgs) -> Outcome,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "somier_one_buffer",
        why: "Table I: bulk-synchronous target spread over ~10 GB of payload; host time is copies and kernel bodies",
        run: somier::run_one_buffer,
    },
    Workload {
        name: "somier_pipelined",
        why: "Table II: the same bytes and kernels driven through taskloop, recursive tasks and depend",
        run: somier::run_pipelined,
    },
    Workload {
        name: "construct_storm",
        why: "20 000 tiny synchronous constructs, fresh-map beside present-hit: planning, task graph, presence, engines, event loop",
        run: storm::run,
    },
    Workload {
        name: "depend_pipeline",
        why: "Listing 13 with 512 chunk chains in flight: dependence matching and presence churn at width; issue and drain cost separate",
        run: pipeline::run,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Failure accounting: every operation issued and every output check
/// is one attempt.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, for the report.
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, what());
        }
    }

    /// `n` attempts that all succeeded (operations of a rep that
    /// returned `Ok`).
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    /// `n` attempts lost to one error.
    pub fn failed_ops(&mut self, n: u64, what: String) {
        self.attempted += n;
        self.fail(n, what);
    }

    fn fail(&mut self, n: u64, what: String) {
        self.failed += n;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    pub fn fail_share(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// Named values in insertion order; units and directions live in the
/// catalogue.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        debug_assert!(self.get(&name).is_none(), "metric {name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(n, v)| (n.as_str(), *v))
    }
}

/// What a workload run found: the numbers, the check accounting, and
/// free-form lines for the human-readable report (sample counts,
/// sizes, which percentile rule held).
#[derive(Default)]
pub struct Report {
    pub metrics: Metrics,
    pub checks: Checks,
    pub notes: Vec<String>,
}

/// What a workload run hands back.
pub struct Outcome {
    pub report: Report,
    /// Host spans of the traced pass (empty when untraced).
    pub spans: SpanLog,
}

/// Median seconds of `setup`, run at least five times and for at
/// least 0.3 s (at most 2 000 times). Set-up is cheap next to the
/// timed region, so it is repeated until its median is steady rather
/// than measured once — and it is measured *after* the timed region:
/// in a process's first tenths of a second a sub-millisecond set-up
/// reads up to twice as slow as it does once the core is warm.
pub fn median_setup(mut setup: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut secs = Vec::new();
    loop {
        let t = Instant::now();
        setup();
        secs.push(t.elapsed().as_secs_f64());
        let enough = secs.len() >= 5 && started.elapsed().as_secs_f64() >= 0.3;
        if enough || secs.len() >= 2000 {
            return stats::median(&mut secs);
        }
    }
}

/// Call `rep` until `seconds` have passed, at least `min_reps` times.
pub fn repeat_for(seconds: f64, min_reps: usize, mut rep: impl FnMut()) {
    let started = Instant::now();
    let mut done = 0;
    while done < min_reps || started.elapsed().as_secs_f64() < seconds {
        rep();
        done += 1;
    }
}

/// The end-to-end metrics every workload reports the same way
/// (`setup_s` apart: see [`median_setup`]).
pub struct HostE2e<'a> {
    /// Wall seconds of each timed rep.
    pub rep_wall_s: &'a [f64],
    /// Operations in one rep (the `ops_per_s` numerator).
    pub ops_per_rep: f64,
    /// Per-operation latencies in µs, pooled over the timed reps.
    pub op_us: &'a [f64],
    pub virtual_s: f64,
    pub peak_rss_mb: f64,
}

pub fn set_e2e(report: &mut Report, e: HostE2e<'_>) {
    let (m, notes) = (&mut report.metrics, &mut report.notes);
    let wall = stats::median(&mut e.rep_wall_s.to_vec());
    let mut sorted = e.op_us.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p50 = stats::percentile_sorted(&sorted, 50.0);
    let (p90, p90_ok) = stats::percentile_or_max(&sorted, 90.0);
    m.set("host_wall_s", wall);
    m.set("ops_per_s", e.ops_per_rep / wall);
    m.set("op_us_p50", p50);
    m.set("op_us_p90", p90);
    m.set("virtual_s", e.virtual_s);
    m.set("peak_rss_mb", e.peak_rss_mb);
    notes.push(format!(
        "host_wall_s: median of {} reps {:.3?}; op_us: {} samples{}",
        e.rep_wall_s.len(),
        e.rep_wall_s,
        sorted.len(),
        if p90_ok {
            ""
        } else {
            " (fewer than 10 beyond p90: op_us_p90 is the slowest sample)"
        }
    ));
}

/// Exact counts and modelled-node figures read from a traced runtime
/// through its public accessors, plus the part of the operating point
/// the timeline knows (concurrent flows, typical buffer size).
fn set_runtime_layers(m: &mut Metrics, rt: &Runtime, tl: &Timeline) -> OperatingPoint {
    let (mut h2d, mut d2h, mut peer) = (0u64, 0u64, 0u64);
    let (mut dma_ops, mut kernel_ops) = (0u64, 0u64);
    let mut copy_bytes: Vec<f64> = Vec::new();
    for s in tl.spans() {
        match s.kind {
            SpanKind::TransferIn => h2d += s.bytes,
            SpanKind::TransferOut => d2h += s.bytes,
            SpanKind::PeerCopy => peer += s.bytes,
            SpanKind::Kernel => kernel_ops += 1,
            _ => {}
        }
        if s.kind.is_transfer() {
            dma_ops += 1;
            copy_bytes.push(s.bytes as f64);
        }
    }
    m.set("rt.h2d_bytes", h2d as f64);
    m.set("rt.d2h_bytes", d2h as f64);
    m.set("rt.peer_bytes", peer as f64);
    m.set("rt.races", rt.races().len() as f64);
    let mem_peak = (0..rt.n_devices() as u32)
        .map(|d| rt.device_mem_peak(d))
        .max()
        .unwrap_or(0);
    m.set("rt.mem_peak_bytes", mem_peak as f64);
    m.set("devices.dma_ops", dma_ops as f64);
    m.set("devices.kernel_ops", kernel_ops as f64);
    m.set("trace.spans", tl.len() as f64);

    let plan = rt.plan_stats();
    m.set("core.plan_cold_ns", plan.cold_ns_per_plan());
    m.set("core.plan_warm_ns", plan.warm_ns_per_plan());
    let lookups = plan.hits + plan.misses;
    m.set(
        "core.plan_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            plan.hits as f64 / lookups as f64
        },
    );

    let flows = concurrency_profile(tl, |s| s.kind.is_transfer()).max_level();
    m.set("sim.max_concurrent_flows", flows as f64);

    let reports = overlap_report(tl);
    let sum = |f: fn(&OverlapReport) -> f64| -> f64 { reports.iter().map(f).sum() };
    let compute = sum(|r| r.compute.as_secs_f64());
    let transfer = sum(|r| r.transfer.as_secs_f64());
    let overlap = sum(|r| r.overlap.as_secs_f64());
    let active = sum(|r| r.active.as_secs_f64());
    let pct = |num: f64, den: f64| if den > 0.0 { 100.0 * num / den } else { 0.0 };
    m.set("virt.kernel_busy_s", compute);
    m.set("virt.transfer_busy_s", transfer);
    m.set("virt.transfer_share_pct", pct(transfer, active));
    m.set("virt.overlap_pct", pct(overlap, compute));
    let idle: f64 = tl
        .devices()
        .into_iter()
        .map(|d| device_idle(tl, d).total().as_secs_f64())
        .sum();
    m.set("virt.idle_s", idle);
    let net = rt.flownet();
    let bus = net
        .find_capacity("host-bus")
        .map_or(0.0, |c| net.saturated_seconds(c));
    m.set("virt.link_saturated_s", bus);

    let buffer_elems = if copy_bytes.is_empty() {
        1
    } else {
        (stats::median(&mut copy_bytes) / 8.0).max(1.0) as usize
    };
    OperatingPoint {
        flows: flows.max(1),
        buffer_elems,
        ..OperatingPoint::NARROW
    }
}

/// Exact counts of what a rep issued, kept by the benchmark as it
/// issues (for Somier, derived from span counts — see there).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Directive launches (`parallel_for`, `launch`, `region`).
    pub constructs: u64,
    /// Task ids those launches returned.
    pub chunk_tasks: u64,
    /// Task-graph tasks behind them: three per `target spread` chunk
    /// (enter, kernel, exit), one per data-directive chunk.
    pub graph_tasks: u64,
    /// Map items that allocated and released a device section.
    pub fresh_maps: u64,
    /// Map items that found their section present.
    pub hit_maps: u64,
}

/// What one rep of a seeded workload produced.
pub struct SynthRep {
    pub rt: Runtime,
    pub arrays: Vec<HostArray>,
    pub wall_s: f64,
    /// Per-operation latency in arrival order, µs.
    pub op_us: Vec<f64>,
    pub counts: Counts,
    pub error: Option<RtError>,
}

/// Check one rep of a seeded workload against the benchmark's
/// sequential model: no `RtError` on any of its `ops` operations,
/// every array bit for bit, no races, nothing left mapped.
pub fn verify_synth(name: &str, rep: &SynthRep, ops: u64, model: &[Vec<f64>], checks: &mut Checks) {
    match &rep.error {
        Some(e) => checks.failed_ops(ops, format!("{name}: {e}")),
        None => checks.passed(ops),
    }
    for (k, (a, want)) in rep.arrays.iter().zip(model).enumerate() {
        let got = rep.rt.snapshot_host(*a);
        checks.check(&got == want, || {
            format!("{name}: array {k} differs from the sequential model")
        });
    }
    let races = rep.rt.races().len();
    checks.check(races == 0, || format!("{name}: {races} races, expected 0"));
    let leaked: u64 = (0..rep.rt.n_devices() as u32)
        .map(|d| rep.rt.device_mem_used(d))
        .sum();
    checks.check(leaked == 0, || {
        format!("{name}: {leaked} device bytes still mapped")
    });
}

/// The untraced timed region of a seeded workload: reps of one fixed
/// generated program until `seconds` have passed (at least three),
/// each verified, then the end-to-end metrics (but `setup_s`) and the
/// two latency layer metrics that need untraced samples. Returns
/// `host_wall_s`.
pub fn timed_region(
    name: &str,
    seconds: f64,
    ops_per_rep: u64,
    model: &[Vec<f64>],
    report: &mut Report,
    mut rep: impl FnMut() -> SynthRep,
) -> f64 {
    let checks = &mut report.checks;
    let mut walls = Vec::new();
    let mut op_us = Vec::new();
    let mut drifts = Vec::new();
    let mut virtuals = Vec::new();
    repeat_for(seconds, 3, || {
        let rep = rep();
        verify_synth(name, &rep, ops_per_rep, model, checks);
        walls.push(rep.wall_s);
        virtuals.push(rep.rt.elapsed().as_secs_f64());
        if !rep.op_us.is_empty() {
            let (first, last) = stats::decile_medians(&rep.op_us);
            drifts.push(100.0 * (last / first - 1.0));
        }
        op_us.extend(rep.op_us);
    });
    let peak_rss_mb = peak_rss_mb();
    checks.check(virtuals.windows(2).all(|w| w[0] == w[1]), || {
        format!("{name}: virtual time differs between reps: {virtuals:?}")
    });
    if op_us.is_empty() {
        // Every rep failed before its first operation, which is already
        // counted; keep the order statistics total.
        op_us.push(f64::MAX);
        drifts.push(0.0);
    }
    set_e2e(
        report,
        HostE2e {
            rep_wall_s: &walls,
            ops_per_rep: ops_per_rep as f64,
            op_us: &op_us,
            virtual_s: virtuals[0],
            peak_rss_mb,
        },
    );
    op_us.sort_by(f64::total_cmp);
    let m = &mut report.metrics;
    m.set("rt.op_us_p99", stats::percentile_or_max(&op_us, 99.0).0);
    m.set("rt.op_us_drift_pct", stats::median(&mut drifts));
    m.get("host_wall_s").expect("just set")
}

/// A finished traced rep and what it is compared with.
pub struct TracedRep<'a> {
    pub rt: &'a Runtime,
    pub wall_s: f64,
    /// The untraced wall time the tracing overhead is taken against.
    pub untraced_wall_s: f64,
    /// Wall time inside kernel bodies.
    pub kernel_busy_s: f64,
}

/// The per-layer metrics of a traced rep: exact counts and `virt.*`
/// from the runtime's accessors, the probes at the workload's
/// operating point, the copy bounds, and the share of the traced wall
/// time that kernels, copies, planning and probe × count estimates do
/// not explain.
pub fn set_traced_layers(
    report: &mut Report,
    rep: TracedRep<'_>,
    counts: impl FnOnce(&Metrics) -> Counts,
    point: impl FnOnce(OperatingPoint) -> OperatingPoint,
) {
    let (m, notes) = (&mut report.metrics, &mut report.notes);
    let TracedRep {
        rt,
        wall_s: traced_wall_s,
        untraced_wall_s,
        kernel_busy_s,
    } = rep;
    let t = Instant::now();
    let tl = rt.timeline();
    m.set("trace.snapshot_ms", t.elapsed().as_secs_f64() * 1e3);
    let point = point(set_runtime_layers(m, rt, &tl));
    let counts = counts(m);
    m.set("rt.constructs", counts.constructs as f64);
    m.set("rt.chunk_tasks", counts.chunk_tasks as f64);
    m.set(
        "trace.overhead_pct",
        100.0 * (traced_wall_s / untraced_wall_s - 1.0),
    );
    m.set("teams.kernel_busy_s", kernel_busy_s);

    crate::probes::run_all(m, notes, point);
    let get = |m: &Metrics, name: &str| m.get(name).expect("set above");
    let bytes = get(m, "rt.h2d_bytes") + 2.0 * get(m, "rt.d2h_bytes");
    let copy_est_s = bytes / (get(m, "devices.alloc_copy_gbps") * 1e9);
    m.set(
        "rt.copy_bound_s",
        bytes / (get(m, "host.memcpy_gbps") * 1e9),
    );
    m.set("rt.copy_est_s", copy_est_s);
    let plan = rt.plan_stats();
    let planning_s = (plan.cold_planning_ns + plan.warm_planning_ns) as f64 * 1e-9;
    let estimates_s = 1e-9
        * (get(m, "rt.taskgraph_ns_per_task") * counts.graph_tasks as f64
            + get(m, "rt.presence_ns_per_map") * counts.fresh_maps as f64
            + get(m, "rt.presence_hit_ns") * counts.hit_maps as f64
            + get(m, "devices.dma_ns_per_op") * get(m, "devices.dma_ops")
            + get(m, "devices.compute_ns_per_op") * get(m, "devices.kernel_ops")
            + get(m, "trace.record_ns") * tl.len() as f64);
    let attributed_s = kernel_busy_s + copy_est_s + planning_s + estimates_s;
    m.set(
        "rt.unattributed_pct",
        100.0 * (1.0 - attributed_s / traced_wall_s),
    );
    notes.push(format!(
        "traced wall {traced_wall_s:.3} s = kernels {kernel_busy_s:.3} + copies (est.) \
         {copy_est_s:.3} + planning {planning_s:.3} + probe x count {estimates_s:.3} + \
         unattributed {:.3}",
        traced_wall_s - attributed_s
    ));
}

/// Wall time spent inside the benchmark's own kernel closures, summed
/// over every team thread (traced pass only; `None` times nothing).
pub type KernelClock = Option<Arc<AtomicU64>>;

pub fn kernel_clock(on: bool) -> KernelClock {
    on.then(|| Arc::new(AtomicU64::new(0)))
}

pub fn kernel_clock_secs(clock: &KernelClock) -> f64 {
    // Relaxed: a statistic, read after the runtime has drained.
    clock
        .as_ref()
        .map_or(0.0, |c| c.load(Ordering::Relaxed) as f64 * 1e-9)
}

/// The synthetic workloads' kernel: `a[i] += 1` over the chunk. Adding
/// one (rather than scaling) makes a lost or repeated launch show in
/// every element, and the benchmark's sequential model repeats the
/// same additions in the same order, so outputs compare bit for bit.
pub fn bump_kernel(a: HostArray, clock: &KernelClock) -> KernelSpec {
    let clock = clock.clone();
    KernelSpec::new("bump", 1.0, move |chunk, v| {
        let started = clock.as_ref().map(|_| Instant::now());
        for i in chunk {
            v.set(0, i, v.get(0, i) + 1.0);
        }
        if let (Some(c), Some(t)) = (&clock, started) {
            c.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    })
    .arg(KernelArg::read_write(a, |r| r))
}

/// The model's side of [`bump_kernel`], applied `times` times.
pub fn bump_model(xs: &mut [f64], times: usize) {
    for _ in 0..times {
        for x in xs.iter_mut() {
            *x += 1.0;
        }
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn tiny(name: &str, seed: u64, traced: bool) -> Outcome {
        let args = RunArgs {
            seed,
            seconds: 0.0,
            traced,
            scale: Scale::Tiny,
        };
        (find(name).expect(name).run)(&args)
    }

    /// The metrics `compare` demands be identical: virtual-clock and
    /// count metrics that do not describe the machine.
    fn exact(o: &Outcome) -> Vec<(String, f64)> {
        o.report
            .metrics
            .iter()
            .filter(|(n, _)| catalog::find(n).expect(n).clock.exact())
            .map(|(n, v)| (n.to_string(), v))
            .collect()
    }

    /// Same seed ⇒ the same directives ⇒ every exact metric identical,
    /// traced pass included; another seed ⇒ another program.
    #[test]
    fn same_seed_gives_identical_exact_metrics() {
        for name in ["construct_storm", "depend_pipeline"] {
            let (a, b) = (tiny(name, 1, true), tiny(name, 1, true));
            let checks = &a.report.checks;
            assert_eq!(checks.failed, 0, "{name}: {:?}", checks.failures);
            let (ea, eb) = (exact(&a), exact(&b));
            assert!(ea.len() > 15, "{name}: exact metrics reported: {ea:?}");
            assert_eq!(ea, eb, "{name}");
            assert!(
                !a.spans.spans().is_empty(),
                "{name}: traced pass records host spans"
            );
        }
    }

    /// Seed 2 is held back for claims: nothing was tuned on it, and it
    /// must verify all the same.
    #[test]
    fn held_back_seed_verifies() {
        for name in ["construct_storm", "depend_pipeline"] {
            let o = tiny(name, 2, false).report;
            assert!(o.checks.attempted > 0);
            assert_eq!(o.checks.failed, 0, "{name}: {:?}", o.checks.failures);
            for d in catalog::METRICS.iter().filter(|d| d.end_to_end) {
                let v = o.metrics.get(d.name);
                assert!(v.is_some_and(|v| v > 0.0), "{name}: {} = {v:?}", d.name);
            }
            let other = tiny(name, 1, false).report;
            assert_ne!(
                o.metrics.get("virtual_s"),
                other.metrics.get("virtual_s"),
                "{name}: the seed reaches the program"
            );
        }
    }

    /// Both Somier workloads verify against the CPU reference at a
    /// small size, and every metric they print is in the catalogue.
    #[test]
    fn somier_cells_verify_and_stay_in_the_catalogue() {
        for name in ["somier_one_buffer", "somier_pipelined"] {
            let o = tiny(name, 1, true).report;
            assert_eq!(o.checks.failed, 0, "{name}: {:?}", o.checks.failures);
            for (metric, _) in o.metrics.iter() {
                assert!(catalog::find(metric).is_some(), "{name}: {metric}");
            }
        }
        let speedup = tiny("somier_one_buffer", 1, true)
            .report
            .metrics
            .get("virtual_speedup");
        assert!(speedup.is_some_and(|s| s > 1.0), "{speedup:?}");
    }

    /// A failing check is counted, described, and makes the share
    /// non-zero; nothing attempted is not a pass.
    #[test]
    fn failures_are_counted_against_attempts() {
        let mut c = Checks::default();
        assert_eq!(c.fail_share(), 1.0);
        c.passed(8);
        c.check(true, || unreachable!());
        c.check(false, || "array differs".to_string());
        c.failed_ops(10, "RtError".to_string());
        assert_eq!((c.attempted, c.failed), (20, 11));
        assert_eq!(c.fail_share(), 0.55);
        assert_eq!(c.failures, ["array differs", "RtError"]);
    }
}

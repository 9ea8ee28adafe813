//! The two Somier workloads: the paper's evaluation at its
//! reproduction size (`SomierConfig::paper()`: n = 120, 31 steps)
//! with `team_threads = 2`.
//!
//! * `somier_one_buffer` — Table I. One Buffer `target spread` on 1, 2
//!   and 4 GPUs; the 4-GPU cell is the headline.
//! * `somier_pipelined` — Table II. Two Buffers and Double Buffering on
//!   2 and 4 GPUs; Two Buffers on 4 GPUs is the headline. The same
//!   bytes and kernels as above, driven through `taskloop`, recursive
//!   tasks and `depend`, so a gain for the synchronous path that costs
//!   the tasking path shows here.
//!
//! A *cell* is one public call into `spread-somier` on a fresh
//! runtime. The untraced timed region repeats the headline cell; the
//! traced pass adds the other cells (once each), a traced headline
//! cell, and the layer probes. Every cell is checked against
//! `run_reference`: bit-exact for One Buffer, to 1e-6 for the
//! pipelined implementations, as the repo's own tests require. The
//! seed changes nothing here — Somier has no random input.

use std::collections::BTreeMap;
use std::time::Instant;

use target_spread::rt::{RtError, Runtime};
use target_spread::somier::reference::run_reference;
use target_spread::somier::{
    double_buffering, one_buffer, two_buffers, SomierArrays, SomierConfig, SomierImpl, SomierReport,
};
use target_spread::trace::analysis::concurrency_profile;

use super::{
    median_setup, peak_rss_mb, repeat_for, set_e2e, set_traced_layers, Counts, HostE2e, Outcome,
    Report, RunArgs, Scale, TracedRep,
};
use crate::probes::OperatingPoint;
use crate::spans::SpanLog;
use crate::stats;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Cell {
    which: SomierImpl,
    gpus: usize,
}

const fn cell(which: SomierImpl, gpus: usize) -> Cell {
    Cell { which, gpus }
}

impl Cell {
    /// `<impl>.<g>gpu`, the suffix of the `somier.cell_*` metrics.
    fn name(&self) -> String {
        let which = match self.which {
            SomierImpl::OneBufferTarget | SomierImpl::OneBufferSpread => "one_buffer",
            SomierImpl::TwoBuffers => "two_buffers",
            SomierImpl::DoubleBuffering => "double_buffering",
        };
        format!("{which}.{}gpu", self.gpus)
    }

    fn pipelined(&self) -> bool {
        matches!(
            self.which,
            SomierImpl::TwoBuffers | SomierImpl::DoubleBuffering
        )
    }

    /// Seconds the paper reports for this cell (Tables I and II).
    fn paper_s(&self) -> f64 {
        let (minutes, seconds) = match (self.which, self.gpus) {
            (SomierImpl::OneBufferSpread, 1) => (17.0, 38.932),
            (SomierImpl::OneBufferSpread, 2) => (13.0, 15.486),
            (SomierImpl::OneBufferSpread, 4) => (8.0, 22.019),
            (SomierImpl::TwoBuffers, 2) => (14.0, 29.599),
            (SomierImpl::TwoBuffers, 4) => (8.0, 26.674),
            (SomierImpl::DoubleBuffering, 2) => (14.0, 4.230),
            (SomierImpl::DoubleBuffering, 4) => (8.0, 51.176),
            _ => unreachable!("no paper time for {}", self.name()),
        };
        minutes * 60.0 + seconds
    }

    /// Footprint races the runtime's detector reports for this cell at
    /// the paper configuration: none for One Buffer (phases are barrier
    /// separated); for the pipelined versions the halo planes that
    /// concurrent halves read while a neighbour writes them — a fixed
    /// property of the modelled schedule, so an exact count.
    fn paper_races(&self) -> usize {
        match (self.which, self.gpus) {
            (SomierImpl::TwoBuffers, 2) => 1178,
            (SomierImpl::TwoBuffers, 4) => 558,
            (SomierImpl::DoubleBuffering, 2) => 434,
            (SomierImpl::DoubleBuffering, 4) => 217,
            _ => 0,
        }
    }

    /// Buffer granularity the matching reference run must use.
    fn reference_planes(&self, cfg: &SomierConfig) -> usize {
        if self.pipelined() {
            cfg.half_planes(self.gpus)
        } else {
            cfg.buffer_planes(self.gpus)
        }
    }
}

struct Spec {
    name: &'static str,
    headline: Cell,
    /// The other cells of the table, run once each in the traced pass.
    others: &'static [Cell],
}

const ONE_BUFFER: Spec = Spec {
    name: "somier_one_buffer",
    headline: cell(SomierImpl::OneBufferSpread, 4),
    others: &[
        cell(SomierImpl::OneBufferSpread, 1),
        cell(SomierImpl::OneBufferSpread, 2),
    ],
};

const PIPELINED: Spec = Spec {
    name: "somier_pipelined",
    headline: cell(SomierImpl::TwoBuffers, 4),
    others: &[
        cell(SomierImpl::TwoBuffers, 2),
        cell(SomierImpl::DoubleBuffering, 2),
        cell(SomierImpl::DoubleBuffering, 4),
    ],
};

fn config(scale: Scale) -> SomierConfig {
    let mut cfg = match scale {
        Scale::Full => SomierConfig::paper(),
        // The size the repo's own pipelined tests use: any smaller and
        // the half buffers of two devices shrink to overlapping halos.
        Scale::Tiny => SomierConfig::test_small(100, 2).with_trace(false),
    };
    cfg.team_threads = 2;
    cfg
}

struct CellRun {
    host_s: f64,
    report: SomierReport,
    rt: Runtime,
}

/// One cell: a fresh runtime (not timed — that is set-up), then the
/// one public call, timed.
fn run_cell(cfg: &SomierConfig, c: Cell, trace: bool) -> Result<CellRun, RtError> {
    let cfg = cfg.clone().with_trace(trace);
    let mut rt = cfg.runtime(c.gpus);
    let t = Instant::now();
    let report = match c.which {
        SomierImpl::OneBufferTarget => one_buffer::run_target_baseline(&mut rt, &cfg),
        SomierImpl::OneBufferSpread => one_buffer::run_spread(&mut rt, &cfg, c.gpus),
        SomierImpl::TwoBuffers => two_buffers::run(&mut rt, &cfg, c.gpus),
        SomierImpl::DoubleBuffering => double_buffering::run(&mut rt, &cfg, c.gpus),
    }?;
    Ok(CellRun {
        host_s: t.elapsed().as_secs_f64(),
        report,
        rt,
    })
}

/// Reference centers per buffer granularity, each computed once, and
/// how long each reference run took.
#[derive(Default)]
struct References {
    centers: BTreeMap<usize, [f64; 3]>,
    secs: Vec<f64>,
}

impl References {
    fn centers(&mut self, cfg: &SomierConfig, planes: usize) -> [f64; 3] {
        *self.centers.entry(planes).or_insert_with(|| {
            let t = Instant::now();
            let state = run_reference(cfg, planes);
            self.secs.push(t.elapsed().as_secs_f64());
            state.centers
        })
    }
}

/// One workload run in progress: what every cell needs to be run,
/// counted and checked.
struct Pass<'a> {
    spec: &'a Spec,
    cfg: SomierConfig,
    scale: Scale,
    refs: References,
    report: Report,
}

impl Pass<'_> {
    /// Run one cell and check it: no `RtError`, centers against the CPU
    /// reference, the race count (paper configuration only — other
    /// sizes have other halos), every mapping released. `None` if the
    /// cell failed outright.
    fn cell(&mut self, c: Cell, trace: bool) -> Option<CellRun> {
        let (name, cell) = (self.spec.name, c.name());
        let checks = &mut self.report.checks;
        let run = match run_cell(&self.cfg, c, trace) {
            Ok(run) => run,
            Err(e) => {
                checks.failed_ops(1, format!("{name}: cell {cell}: {e}"));
                return None;
            }
        };
        checks.passed(1);
        let want = self.refs.centers(&self.cfg, c.reference_planes(&self.cfg));
        let got = run.report.centers;
        let ok = if c.pipelined() {
            (0..3).all(|i| (got[i] - want[i]).abs() <= 1e-6)
        } else {
            got == want
        };
        checks.check(ok, || {
            format!("{name}: cell {cell} centers {got:?} differ from the reference {want:?}")
        });
        if self.scale == Scale::Full {
            let (races, want) = (run.rt.races().len(), c.paper_races());
            checks.check(races == want, || {
                format!("{name}: cell {cell} reports {races} races, expected {want}")
            });
        }
        let leaked: u64 = (0..c.gpus as u32).map(|d| run.rt.device_mem_used(d)).sum();
        checks.check(leaked == 0, || {
            format!("{name}: cell {cell} left {leaked} device bytes mapped")
        });
        Some(run)
    }
}

pub fn run_one_buffer(args: &RunArgs) -> Outcome {
    run(&ONE_BUFFER, args)
}

pub fn run_pipelined(args: &RunArgs) -> Outcome {
    run(&PIPELINED, args)
}

fn run(spec: &Spec, args: &RunArgs) -> Outcome {
    let mut pass = Pass {
        spec,
        cfg: config(args.scale),
        scale: args.scale,
        refs: References::default(),
        report: Report::default(),
    };
    let mut log = SpanLog::new(false);
    let head = spec.headline;

    // A two-step run grows the heap and starts the team threads, so
    // the first timed cell is not the one that pays for them.
    let mut warm = pass.cfg.clone();
    warm.timesteps = 2;
    pass.report
        .checks
        .check(run_cell(&warm, head, false).is_ok(), || {
            format!("{}: warm-up cell failed", spec.name)
        });

    // The reference the reps are checked against, computed up front so
    // that it does not count against the timed region's clock.
    let planes = head.reference_planes(&pass.cfg);
    pass.refs.centers(&pass.cfg, planes);

    let mut walls = Vec::new();
    let mut virtuals = Vec::new();
    repeat_for(args.seconds, 2, || {
        if let Some(run) = pass.cell(head, false) {
            walls.push(run.host_s);
            virtuals.push(run.report.elapsed.as_secs_f64());
        }
    });
    let peak_rss_mb = peak_rss_mb();
    let cfg = pass.cfg.clone();
    let report = &mut pass.report;
    report
        .checks
        .check(virtuals.windows(2).all(|w| w[0] == w[1]), || {
            format!(
                "{}: virtual time differs between reps: {virtuals:?}",
                spec.name
            )
        });
    if walls.is_empty() {
        // Every rep failed, which is already counted; keep the order
        // statistics total.
        walls.push(f64::MAX);
        virtuals.push(f64::MAX);
    }
    let cell_us: Vec<f64> = walls.iter().map(|s| s * 1e6).collect();
    let updates = (cfg.n.pow(3) * cfg.timesteps) as f64;
    set_e2e(
        report,
        HostE2e {
            rep_wall_s: &walls,
            ops_per_rep: updates,
            op_us: &cell_us,
            virtual_s: virtuals[0],
            peak_rss_mb,
        },
    );
    // Set-up as `run_cell` and the driver inside it pay it: the
    // runtime, then the twelve grids registered and initialised.
    report.metrics.set(
        "setup_s",
        median_setup(|| {
            let mut rt = cfg.runtime(head.gpus);
            SomierArrays::create(&mut rt, &cfg);
        }),
    );
    report.notes.push(format!(
        "headline cell {}: one op = one cell; ops_per_s counts grid-point updates \
         (n^3 x steps = {updates})",
        head.name()
    ));

    if args.traced {
        traced_pass(&mut pass, &mut log);
    }
    Outcome {
        report: pass.report,
        spans: log,
    }
}

/// The rest of the table (each other cell once, untraced), a traced
/// headline cell, and the layers.
fn traced_pass(pass: &mut Pass<'_>, log: &mut SpanLog) {
    let spec = pass.spec;
    let head = spec.headline;
    let untraced = |name: &str| {
        let v = pass.report.metrics.get(name);
        v.expect("set by the untraced pass")
    };
    let host_wall_s = untraced("host_wall_s");
    let mut virtual_s = BTreeMap::from([(head.name(), untraced("virtual_s"))]);
    let mut host_s = BTreeMap::from([(head.name(), host_wall_s)]);

    log.set_enabled(true);
    for (op, &c) in spec.others.iter().enumerate() {
        let span = log.enter("cell", op as u64);
        let run = pass.cell(c, false);
        log.exit(span);
        if let Some(run) = run {
            host_s.insert(c.name(), run.host_s);
            virtual_s.insert(c.name(), run.report.elapsed.as_secs_f64());
        }
    }
    // Somier's host time depends on where its ~230 MB working set
    // lands in a shared last-level cache, and that shifts as the heap
    // is reused from cell to cell. The tracing overhead is therefore
    // taken against an untraced headline cell run immediately before
    // the traced one, not against the timed region's median.
    let span = log.enter("cell", spec.others.len() as u64);
    let adjacent = pass.cell(head, false);
    log.exit(span);
    let span = log.enter("cell.traced", spec.others.len() as u64 + 1);
    let traced = pass.cell(head, true);
    log.exit(span);
    log.set_enabled(false);

    let m = &mut pass.report.metrics;
    for (name, v) in &host_s {
        m.set(format!("somier.cell_host_s.{name}"), *v);
    }
    for (name, v) in &virtual_s {
        m.set(format!("somier.cell_virtual_s.{name}"), *v);
    }
    if let (Some(one), Some(four)) = (
        virtual_s.get("one_buffer.1gpu"),
        virtual_s.get("one_buffer.4gpu"),
    ) {
        m.set("virtual_speedup", one / four);
    }
    if pass.scale == Scale::Full {
        let err = std::iter::once(head)
            .chain(spec.others.iter().copied())
            .filter_map(|c| {
                virtual_s
                    .get(&c.name())
                    .map(|v| (v / c.paper_s() - 1.0).abs())
            })
            .fold(0.0, f64::max);
        m.set("paper_err_pct", 100.0 * err);
    }
    let (Some(adjacent), Some(traced)) = (adjacent, traced) else {
        return; // already counted as failed
    };
    pass.report.checks.check(
        Some(&traced.report.elapsed.as_secs_f64()) == virtual_s.get(&head.name()),
        || format!("{}: tracing changed the virtual time", spec.name),
    );

    // The CPU reference runs the same physics sequentially: its time
    // stands in for the wall time inside kernel bodies, which live in
    // `spread-somier` where the benchmark cannot put a clock.
    let reference_s = stats::median(&mut pass.refs.secs.clone());
    let m = &mut pass.report.metrics;
    m.set("somier.reference_s", reference_s);
    m.set("somier.host_slowdown_vs_ref", host_wall_s / reference_s);
    pass.report.notes.push(format!(
        "somier.reference_s: median of {} reference runs; teams.kernel_busy_s is that \
         figure (kernel bodies cannot be timed from outside spread-somier)",
        pass.refs.secs.len()
    ));

    // The drivers live inside the public call, so their counts come
    // from the trace: every kernel span is one chunk task of three
    // graph tasks, a construct has one chunk per device, and every
    // copy belongs to one freshly mapped section. Twelve grids and
    // three partial-sum arrays sit in each device's table while a
    // buffer is processed.
    let gpus = head.gpus as u64;
    let live = concurrency_profile(&traced.rt.timeline(), |_| true).max_level();
    set_traced_layers(
        &mut pass.report,
        TracedRep {
            rt: &traced.rt,
            wall_s: traced.host_s,
            untraced_wall_s: adjacent.host_s,
            kernel_busy_s: reference_s,
        },
        |m| {
            let kernels = m.get("devices.kernel_ops").expect("set from the timeline") as u64;
            let copies = m.get("devices.dma_ops").expect("set from the timeline") as u64;
            Counts {
                constructs: kernels / gpus,
                chunk_tasks: kernels,
                graph_tasks: 3 * kernels,
                fresh_maps: copies,
                hit_maps: 0,
            }
        },
        |from_timeline| OperatingPoint {
            live_tasks: live.max(1),
            table_entries: 15,
            chunks: head.gpus,
            ..from_timeline
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_names_and_paper_times() {
        assert_eq!(ONE_BUFFER.headline.name(), "one_buffer.4gpu");
        assert_eq!(PIPELINED.headline.name(), "two_buffers.4gpu");
        assert_eq!(ONE_BUFFER.headline.paper_s(), 502.019);
        for spec in [&ONE_BUFFER, &PIPELINED] {
            for c in std::iter::once(&spec.headline).chain(spec.others) {
                assert!(c.paper_s() > 500.0, "{}", c.name());
            }
        }
    }
}

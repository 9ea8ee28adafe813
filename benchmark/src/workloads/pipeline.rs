//! `depend_pipeline`: the paper's Listing 13 at width.
//!
//! Per round, inside one `taskgroup`, for each of two arrays cut into
//! 64-element chunks: `target enter data spread nowait depend(out)` →
//! `target spread nowait depend(in, out)` → `target exit data spread
//! nowait depend(in)`. Nothing blocks until the taskgroup closes, so
//! all 512 chunk chains (2 560 graph tasks) are live at once: dependence
//! matching scans hundreds of records, the presence tables churn, and
//! — the one place this shows from outside — the cost of *issuing*
//! (`launch()` returning) separates from the cost of *draining* (the
//! taskgroup closing).
//!
//! `team_threads` is 1 for the reason given in `construct_storm`.

use std::time::Instant;

use spread_prng::{mix, Prng};
use target_spread::prelude::*;

use super::{
    bump_kernel, bump_model, kernel_clock, kernel_clock_secs, median_setup, set_traced_layers,
    timed_region, verify_synth, Counts, KernelClock, Outcome, Report, RunArgs, Scale, SynthRep,
    TracedRep,
};
use crate::probes::OperatingPoint;
use crate::spans::SpanLog;
use crate::stats;

const NAME: &str = "depend_pipeline";
const ARRAYS: usize = 2;
const CHUNK: usize = 64;

#[derive(Clone, Copy, Debug)]
struct Size {
    elems: usize,
    rounds: usize,
}

impl Size {
    fn of(scale: Scale) -> Size {
        match scale {
            Scale::Full => Size {
                elems: 16_384,
                rounds: 30,
            },
            Scale::Tiny => Size {
                elems: 1_024,
                rounds: 3,
            },
        }
    }

    fn chains(&self) -> usize {
        ARRAYS * self.elems / CHUNK
    }

    /// Where the probes should run: every chain's five graph tasks
    /// (enter data, the construct's three, exit data) are created
    /// before the taskgroup closes, and each device's table holds its
    /// quarter of both arrays' chunks — by construction, not read from
    /// the timeline, which supplies the rest.
    fn operating_point(&self, from_timeline: OperatingPoint) -> OperatingPoint {
        OperatingPoint {
            live_tasks: 5 * self.chains(),
            table_entries: self.chains() / 4,
            chunks: self.elems / CHUNK,
            ..from_timeline
        }
    }
}

/// One array's part of a round: its `devices(…)` order and the plan
/// key that order implies.
#[derive(Clone, Debug, PartialEq)]
struct Lane {
    devices: [u32; 4],
    key: String,
}

/// The generated directives: all the program under test ever sees of
/// the seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    elems: usize,
    init: Vec<Vec<f64>>,
    rounds: Vec<[Lane; ARRAYS]>,
}

fn generate(seed: u64, size: Size) -> Program {
    let mut rng = Prng::new(mix(seed, 0x0d1b_e11e));
    let init = (0..ARRAYS)
        .map(|_| (0..size.elems).map(|_| rng.f64()).collect())
        .collect();
    let rounds = (0..size.rounds)
        .map(|_| {
            [0, 1].map(|a| {
                let mut devices = [0u32, 1, 2, 3];
                rng.shuffle(&mut devices);
                let [d0, d1, d2, d3] = devices;
                Lane {
                    devices,
                    key: format!("pipe:{a}:{d0}{d1}{d2}{d3}"),
                }
            })
        })
        .collect();
    Program {
        elems: size.elems,
        init,
        rounds,
    }
}

impl Program {
    /// The benchmark's own sequential model: every round adds one to
    /// every element.
    fn model(&self) -> Vec<Vec<f64>> {
        let mut out = self.init.clone();
        for xs in &mut out {
            bump_model(xs, self.rounds.len());
        }
        out
    }
}

fn build(prog: &Program, trace: bool) -> (Runtime, Vec<HostArray>) {
    let mut rt = Runtime::new(
        RuntimeConfig::new(Topology::ctepower(4))
            .with_team_threads(1)
            .with_trace(trace),
    );
    let arrays = prog
        .init
        .iter()
        .enumerate()
        .map(|(k, init)| {
            let a = rt.host_array(format!("P{k}"), prog.elems);
            rt.fill_host(a, |i| init[i]);
            a
        })
        .collect();
    (rt, arrays)
}

/// Issue and drain time of each round, µs.
#[derive(Default)]
struct Phases {
    issue_us: Vec<f64>,
    drain_us: Vec<f64>,
}

fn run_rep(
    prog: &Program,
    trace: bool,
    clock: &KernelClock,
    log: &mut SpanLog,
    phases: &mut Phases,
) -> SynthRep {
    let (mut rt, arrays) = build(prog, trace);
    let n = prog.elems;
    let chunks = (n / CHUNK) as u64;
    let mut op_us = Vec::with_capacity(prog.rounds.len());
    let mut counts = Counts::default();
    let started = Instant::now();
    log.enter("rep", 0);
    let result = rt.run(|s| {
        for (r, lanes) in prog.rounds.iter().enumerate() {
            let op = r as u64;
            let t = Instant::now();
            let round_span = log.enter("round", op);
            let mut issued = t;
            let mut drain_span = None;
            s.taskgroup(|s| -> Result<(), RtError> {
                for (lane, &a) in lanes.iter().zip(&arrays) {
                    let span = log.enter("enter.launch", op);
                    let enter = TargetEnterDataSpread::devices(lane.devices)
                        .range(0, n)
                        .chunk_size(CHUNK)
                        .nowait()
                        .map(spread_to(a, |c| c.range()))
                        .depend_out(a, |c| c.range())
                        .launch(s)?;
                    log.exit(span);
                    let span = log.enter("spread.launch", op);
                    let kernel = TargetSpread::devices(lane.devices)
                        .with_schedule(SpreadSchedule::static_chunk(CHUNK))
                        .with_plan_cache(lane.key.as_str())
                        .nowait()
                        .map(spread_alloc(a, |c| c.range()))
                        .depend_in(a, |c| c.range())
                        .depend_out(a, |c| c.range())
                        .parallel_for(s, 0..n, bump_kernel(a, clock))?;
                    log.exit(span);
                    let span = log.enter("exit.launch", op);
                    let exit = TargetExitDataSpread::devices(lane.devices)
                        .range(0, n)
                        .chunk_size(CHUNK)
                        .nowait()
                        .map(spread_from(a, |c| c.range()))
                        .depend_in(a, |c| c.range())
                        .launch(s)?;
                    log.exit(span);
                    counts.constructs += 3;
                    counts.chunk_tasks += (enter.len() + kernel.len() + exit.len()) as u64;
                    counts.graph_tasks += (enter.len() + 3 * kernel.len() + exit.len()) as u64;
                    counts.fresh_maps += chunks;
                    counts.hit_maps += chunks;
                }
                issued = Instant::now();
                drain_span = Some(log.enter("drain", op));
                Ok(())
            })??;
            let done = Instant::now();
            if let Some(span) = drain_span {
                log.exit(span);
            }
            log.exit(round_span);
            let us = |d: std::time::Duration| d.as_nanos() as f64 * 1e-3;
            phases.issue_us.push(us(issued - t));
            phases.drain_us.push(us(done - issued));
            op_us.push(us(done - t));
        }
        Ok(())
    });
    log.close_open();
    SynthRep {
        rt,
        arrays,
        wall_s: started.elapsed().as_secs_f64(),
        op_us,
        counts,
        error: result.err(),
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let size = Size::of(args.scale);
    let mut report = Report::default();
    let mut log = SpanLog::new(false);
    let mut phases = Phases::default();

    let prog = generate(args.seed, size);
    let model = prog.model();
    let host_wall_s = timed_region(
        NAME,
        args.seconds,
        size.rounds as u64,
        &model,
        &mut report,
        || run_rep(&prog, false, &None, &mut log, &mut phases),
    );
    let m = &mut report.metrics;
    m.set(
        "setup_s",
        median_setup(|| drop(build(&generate(args.seed, size), false))),
    );
    if !phases.issue_us.is_empty() {
        m.set("core.issue_us", stats::median(&mut phases.issue_us));
        m.set("rt.drain_us", stats::median(&mut phases.drain_us));
    }
    report.notes.push(format!(
        "{} chunk chains in flight per round, {} rounds per rep",
        size.chains(),
        size.rounds
    ));

    if args.traced {
        let clock = kernel_clock(true);
        log.set_enabled(true);
        let rep = run_rep(&prog, true, &clock, &mut log, &mut Phases::default());
        log.set_enabled(false);
        verify_synth(NAME, &rep, size.rounds as u64, &model, &mut report.checks);
        set_traced_layers(
            &mut report,
            TracedRep {
                rt: &rep.rt,
                wall_s: rep.wall_s,
                untraced_wall_s: host_wall_s,
                kernel_busy_s: kernel_clock_secs(&clock),
            },
            |_| rep.counts,
            |from_timeline| size.operating_point(from_timeline),
        );
    }
    Outcome { report, spans: log }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_a_function_of_the_seed() {
        let size = Size::of(Scale::Tiny);
        assert_eq!(generate(1, size), generate(1, size));
        assert_ne!(generate(1, size), generate(2, size));
    }

    #[test]
    fn every_lane_is_a_permutation_of_the_four_devices() {
        let p = generate(7, Size::of(Scale::Full));
        assert_eq!(p.rounds.len(), Size::of(Scale::Full).rounds);
        for lanes in &p.rounds {
            for lane in lanes {
                let mut d = lane.devices;
                d.sort_unstable();
                assert_eq!(d, [0, 1, 2, 3]);
            }
        }
        assert_eq!(Size::of(Scale::Full).chains(), 512);
    }

    #[test]
    fn full_size_runs_at_the_wide_point() {
        let wide = OperatingPoint::WIDE;
        assert_eq!(Size::of(Scale::Full).operating_point(wide), wide);
    }
}

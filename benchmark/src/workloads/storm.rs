//! `construct_storm`: thousands of tiny synchronous `target spread`
//! constructs on the 4-device CTE-POWER node.
//!
//! Payload and kernels are a few percent of host time here, so what is
//! measured is the runtime itself: planning, task graph, presence
//! table, engines, event loop. 70 % of the launches map `tofrom`,
//! run, and unmap (the fresh-allocation path); 30 % run inside a
//! `target data spread` region reopened every [`BLOCK`] launches and
//! are followed by a `target update spread from` (the presence-hit
//! path) — writes to the presence table beside reads of it.
//!
//! `team_threads` is 1: with two team threads on two shared cores each
//! kernel pays a cross-thread wake-up that multiplies the construct's
//! latency and its variance, which would bury every runtime-layer
//! change. That cost stays visible as `teams.broadcast_ns.t2` and
//! `storm.tt2_us_p50`.

use std::time::Instant;

use spread_prng::{mix, Prng};
use target_spread::prelude::*;

use super::{
    bump_kernel, bump_model, kernel_clock, kernel_clock_secs, median_setup, set_traced_layers,
    timed_region, verify_synth, Counts, KernelClock, Outcome, Report, RunArgs, Scale, SynthRep,
    TracedRep,
};
use crate::spans::SpanLog;
use crate::stats;

const NAME: &str = "construct_storm";

/// Launches between two reopenings of the data region.
pub const BLOCK: usize = 50;

/// One keyed construct shape.
#[derive(Clone, Copy, Debug)]
struct Shape {
    n: usize,
    chunk: usize,
    n_devices: usize,
}

/// The eight shapes: 4 to 32 chunks per construct, 16.5 on average.
/// They are fixed — the seed orders launches, picks device lists and
/// fills arrays — because a seeded shape mix would move host time by
/// more from seed to seed than any change under test.
const SHAPES: [Shape; 8] = [
    Shape {
        n: 512,
        chunk: 32,
        n_devices: 2,
    },
    Shape {
        n: 512,
        chunk: 64,
        n_devices: 3,
    },
    Shape {
        n: 512,
        chunk: 128,
        n_devices: 4,
    },
    Shape {
        n: 1024,
        chunk: 32,
        n_devices: 4,
    },
    Shape {
        n: 1024,
        chunk: 64,
        n_devices: 2,
    },
    Shape {
        n: 1024,
        chunk: 128,
        n_devices: 3,
    },
    Shape {
        n: 2048,
        chunk: 64,
        n_devices: 4,
    },
    Shape {
        n: 2048,
        chunk: 128,
        n_devices: 2,
    },
];

impl Shape {
    fn chunks(&self) -> u64 {
        (self.n / self.chunk) as u64
    }
}

/// [`BLOCK`] launches: each on its own shape through the fresh path,
/// or all on one shape inside one data region.
#[derive(Clone, Debug, PartialEq)]
enum Block {
    Fresh(Vec<u8>),
    Present(u8),
}

/// The generated directives: all the program under test ever sees of
/// the seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// `devices(…)` list of each shape, in distribution order.
    devices: Vec<Vec<u32>>,
    /// Plan-cache keys of each shape: fresh path, present path.
    keys: Vec<[String; 2]>,
    /// Initial contents of each shape's array.
    init: Vec<Vec<f64>>,
    blocks: Vec<Block>,
}

fn launches(scale: Scale) -> usize {
    match scale {
        Scale::Full => 20_000,
        Scale::Tiny => 800,
    }
}

/// `len` shape indices with every shape equally often (to within one),
/// in seeded order.
fn balanced_shapes(rng: &mut Prng, len: usize) -> Vec<u8> {
    let mut xs: Vec<u8> = (0..len).map(|i| (i % SHAPES.len()) as u8).collect();
    rng.shuffle(&mut xs);
    xs
}

pub fn generate(seed: u64, launches: usize) -> Program {
    assert!(launches.is_multiple_of(BLOCK), "whole blocks only");
    let mut rng = Prng::new(mix(seed, 0x0057_084d));
    let devices = SHAPES
        .iter()
        .map(|s| {
            let mut all = [0u32, 1, 2, 3];
            rng.shuffle(&mut all);
            all[..s.n_devices].to_vec()
        })
        .collect();
    let keys = (0..SHAPES.len())
        .map(|k| [format!("storm:fresh:{k}"), format!("storm:present:{k}")])
        .collect();
    let init = SHAPES
        .iter()
        .map(|s| (0..s.n).map(|_| rng.f64()).collect())
        .collect();
    let n_blocks = launches / BLOCK;
    let n_present = n_blocks * 3 / 10;
    let present = balanced_shapes(&mut rng, n_present);
    let fresh = balanced_shapes(&mut rng, (n_blocks - n_present) * BLOCK);
    let mut is_present: Vec<bool> = (0..n_blocks).map(|b| b < n_present).collect();
    rng.shuffle(&mut is_present);
    let (mut present, mut fresh) = (present.into_iter(), fresh.chunks(BLOCK));
    let blocks = is_present
        .into_iter()
        .map(|p| {
            if p {
                Block::Present(present.next().expect("one shape per present block"))
            } else {
                Block::Fresh(fresh.next().expect("one slice per fresh block").to_vec())
            }
        })
        .collect();
    Program {
        devices,
        keys,
        init,
        blocks,
    }
}

impl Program {
    fn launches(&self) -> usize {
        self.blocks.len() * BLOCK
    }

    /// The benchmark's own sequential model: every launch adds one to
    /// every element of its shape's array.
    fn model(&self) -> Vec<Vec<f64>> {
        let mut times = [0usize; SHAPES.len()];
        for b in &self.blocks {
            match b {
                Block::Fresh(shapes) => shapes.iter().for_each(|&k| times[k as usize] += 1),
                Block::Present(k) => times[*k as usize] += BLOCK,
            }
        }
        let mut out = self.init.clone();
        for (xs, &t) in out.iter_mut().zip(&times) {
            bump_model(xs, t);
        }
        out
    }
}

fn build(prog: &Program, trace: bool, team_threads: usize) -> (Runtime, Vec<HostArray>) {
    let mut rt = Runtime::new(
        RuntimeConfig::new(Topology::ctepower(4))
            .with_team_threads(team_threads)
            .with_trace(trace),
    );
    let arrays = SHAPES
        .iter()
        .zip(&prog.init)
        .enumerate()
        .map(|(k, (s, init))| {
            let a = rt.host_array(format!("S{k}"), s.n);
            rt.fill_host(a, |i| init[i]);
            a
        })
        .collect();
    (rt, arrays)
}

fn spread(prog: &Program, k: usize, a: HostArray, present: bool) -> TargetSpread {
    TargetSpread::devices(prog.devices[k].iter().copied())
        .with_schedule(SpreadSchedule::static_chunk(SHAPES[k].chunk))
        .with_plan_cache(prog.keys[k][usize::from(present)].as_str())
        .map(spread_tofrom(a, |c| c.range()))
}

fn run_rep(
    prog: &Program,
    trace: bool,
    team_threads: usize,
    clock: &KernelClock,
    log: &mut SpanLog,
) -> SynthRep {
    let (mut rt, arrays) = build(prog, trace, team_threads);
    let mut op_us = Vec::with_capacity(prog.launches());
    let mut counts = Counts::default();
    let mut op = 0u64;
    let started = Instant::now();
    log.enter("rep", 0);
    let result = rt.run(|s| {
        for block in &prog.blocks {
            match block {
                Block::Fresh(shapes) => {
                    for &k in shapes {
                        let k = k as usize;
                        let t = Instant::now();
                        let span = log.enter("spread.fresh", op);
                        let ids = spread(prog, k, arrays[k], false).parallel_for(
                            s,
                            0..SHAPES[k].n,
                            bump_kernel(arrays[k], clock),
                        )?;
                        log.exit(span);
                        op_us.push(t.elapsed().as_nanos() as f64 * 1e-3);
                        counts.constructs += 1;
                        counts.chunk_tasks += ids.len() as u64;
                        counts.graph_tasks += 3 * ids.len() as u64;
                        counts.fresh_maps += SHAPES[k].chunks();
                        op += 1;
                    }
                }
                Block::Present(k) => {
                    let k = *k as usize;
                    let (shape, a) = (SHAPES[k], arrays[k]);
                    let region_span = log.enter("region", op);
                    TargetDataSpread::devices(prog.devices[k].iter().copied())
                        .range(0, shape.n)
                        .chunk_size(shape.chunk)
                        .map(spread_tofrom(a, |c| c.range()))
                        .region(s, |s| {
                            for _ in 0..BLOCK {
                                let t = Instant::now();
                                let op_span = log.enter("op.present", op);
                                let span = log.enter("spread.present", op);
                                let ids = spread(prog, k, a, true).parallel_for(
                                    s,
                                    0..shape.n,
                                    bump_kernel(a, clock),
                                )?;
                                log.exit(span);
                                let span = log.enter("update.from", op);
                                let upd =
                                    TargetUpdateSpread::devices(prog.devices[k].iter().copied())
                                        .range(0, shape.n)
                                        .chunk_size(shape.chunk)
                                        .from(a, |c| c.range())
                                        .launch(s)?;
                                log.exit(span);
                                log.exit(op_span);
                                op_us.push(t.elapsed().as_nanos() as f64 * 1e-3);
                                counts.constructs += 2;
                                counts.chunk_tasks += (ids.len() + upd.len()) as u64;
                                counts.graph_tasks += (3 * ids.len() + upd.len()) as u64;
                                counts.hit_maps += shape.chunks();
                                op += 1;
                            }
                            Ok(())
                        })?;
                    log.exit(region_span);
                    counts.constructs += 1;
                    counts.graph_tasks += 2 * shape.chunks();
                    counts.fresh_maps += shape.chunks();
                }
            }
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
    let n_launches = launches(args.scale);
    let mut report = Report::default();
    let mut log = SpanLog::new(false);

    let prog = generate(args.seed, n_launches);
    let model = prog.model();
    let host_wall_s = timed_region(
        NAME,
        args.seconds,
        n_launches as u64,
        &model,
        &mut report,
        || run_rep(&prog, false, 1, &None, &mut log),
    );
    report.metrics.set(
        "setup_s",
        median_setup(|| drop(build(&generate(args.seed, n_launches), false, 1))),
    );

    if args.traced {
        let clock = kernel_clock(true);
        log.set_enabled(true);
        let rep = run_rep(&prog, true, 1, &clock, &mut log);
        log.set_enabled(false);
        verify_synth(NAME, &rep, n_launches as u64, &model, &mut report.checks);
        // The shapes average NARROW's 16 chunks per construct, alive
        // one construct at a time; the timeline supplies the rest.
        set_traced_layers(
            &mut report,
            TracedRep {
                rt: &rep.rt,
                wall_s: rep.wall_s,
                untraced_wall_s: host_wall_s,
                kernel_busy_s: kernel_clock_secs(&clock),
            },
            |_| rep.counts,
            |from_timeline| from_timeline,
        );

        // The wake-up cost that team_threads = 1 keeps out of the
        // headline: a short rep with two team threads.
        let short = generate(args.seed, launches(Scale::Tiny));
        let mut tt2 = run_rep(&short, false, 2, &None, &mut log);
        let ops = short.launches() as u64;
        verify_synth(NAME, &tt2, ops, &short.model(), &mut report.checks);
        if !tt2.op_us.is_empty() {
            let p50 = stats::median(&mut tt2.op_us);
            report.metrics.set("storm.tt2_us_p50", p50);
        }
    }
    Outcome { report, spans: log }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_a_function_of_the_seed() {
        assert_eq!(generate(1, 800), generate(1, 800));
        assert_ne!(generate(1, 800), generate(2, 800));
    }

    #[test]
    fn mix_is_exact_for_every_seed() {
        for seed in [1, 2, 99] {
            let p = generate(seed, 2000);
            let present = p
                .blocks
                .iter()
                .filter(|b| matches!(b, Block::Present(_)))
                .count();
            assert_eq!(p.blocks.len(), 40);
            assert_eq!(present, 12, "30 % of the blocks reopen a region");
            let mut per_shape = [0usize; SHAPES.len()];
            for b in &p.blocks {
                if let Block::Fresh(shapes) = b {
                    assert_eq!(shapes.len(), BLOCK);
                    shapes.iter().for_each(|&k| per_shape[k as usize] += 1);
                }
            }
            assert!(per_shape.iter().all(|&c| c == 28 * BLOCK / 8));
            for (d, s) in p.devices.iter().zip(&SHAPES) {
                assert_eq!(d.len(), s.n_devices);
                let mut sorted = d.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), d.len(), "distinct devices");
            }
        }
    }
}

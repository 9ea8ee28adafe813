//! Ablations of the design choices (§VI-B) and of the paper's future
//! work (§IX) as views.

use spread_core::prelude::*;
use spread_devices::{DeviceSpec, Topology};
use spread_rt::kernel::KernelArg;
use spread_rt::prelude::*;
use spread_somier::{run_somier, SomierConfig, SomierImpl};
use spread_trace::analysis::device_idle;
use spread_trace::SimDuration;

use crate::markdown_table;
use crate::paper::config;

/// One rendered ablation: a title, a table and the expected shape.
fn render(title: &str, headers: &[&str], rows: &[Vec<String>], expected: &str) -> String {
    let mut out = String::new();
    outln!(out, "\nAblation{title}\n");
    outln!(out, "{}", markdown_table(headers, rows));
    outln!(out, "Expected: {expected}");
    out
}

/// `later` relative to `base`, as a signed percentage.
fn penalty(base: SimDuration, later: SimDuration) -> String {
    format!(
        "{:+.1}%",
        100.0 * (later.as_secs_f64() / base.as_secs_f64() - 1.0)
    )
}

/// The `spread_schedule(static, chunk)` chunk-size sweep.
///
/// The paper's One Buffer implementation uses `chunk = buffer /
/// num_devices` (one chunk per device per buffer). Smaller chunks keep
/// round-robin balance but multiply DMA operations (12 copies per
/// mapped chunk, §VI-B), so total time grows as chunks shrink — the
/// quantitative version of the paper's granularity discussion.
pub fn chunk_size(small: bool) -> String {
    let cfg = config(small, 48, 2);
    // A single-array stencil pass over the whole grid, spread over 4
    // devices with varying chunk sizes (all data fits: one shot, no
    // buffering, to isolate the chunking effect).
    let n = cfg.n * cfg.plane_elems(); // elements
    let mut rows = Vec::new();
    let full_chunk = n.div_ceil(4);
    for chunk in [full_chunk, full_chunk / 2, full_chunk / 4, full_chunk / 16] {
        let mut topo = cfg.topology(4);
        for d in &mut topo.devices {
            d.mem_bytes = (n as u64 * 8) * 2; // no memory pressure here
        }
        let mut rt = Runtime::new(
            RuntimeConfig::new(topo)
                .with_team_threads(cfg.team_threads)
                .with_trace(false),
        );
        let a = rt.host_array("A", n + 2);
        rt.fill_host(a, |i| i as f64);
        rt.run(|s| {
            TargetSpread::devices([0, 1, 2, 3])
                .with_schedule(SpreadSchedule::static_chunk(chunk))
                .map(spread_to(a, |c| c.halo(1, 1)))
                .map(spread_from(a, |c| c.range()))
                .parallel_for(
                    s,
                    1..n + 1,
                    KernelSpec::new("stencil", 0.7, |chunk, v| {
                        for i in chunk {
                            let x = v.get(0, i - 1) + v.get(0, i + 1);
                            v.set(1, i, x * 0.5);
                        }
                    })
                    .arg(KernelArg::read(a, |r| r.start - 1..r.end + 1))
                    .arg(KernelArg::write(a, |r| r)),
                )?;
            Ok(())
        })
        .expect("run");
        rows.push(row![
            chunk,
            n.div_ceil(chunk),
            format!("{:.6}s", rt.elapsed().as_secs_f64())
        ]);
    }
    render(
        ": chunk-size sweep (4 GPUs, one stencil pass)",
        &["chunk (elems)", "chunks", "time"],
        &rows,
        "time grows as chunks shrink (per-chunk DMA launch latency, §VI-B).",
    )
}

/// The per-`cudaMemcpy` launch latency — §VI-B blames "12 sequential
/// calls to the underlying CUDA memory copy API per mapped chunk" for
/// the buffered versions' losses. Sweeping the modeled DMA launch
/// latency shows how much of the Two Buffers penalty it explains.
pub fn dma_latency(small: bool) -> String {
    let base = if small {
        SomierConfig::test_small(100, 2)
    } else {
        SomierConfig::paper().with_timesteps(8) // 31 steps × 4 configs is slow
    };
    let mut rows = Vec::new();
    for lat_us in [0u64, 5, 10, 40] {
        let mut cfg = base.clone();
        cfg.dma_latency_us = lat_us;
        let (one, _) = run_somier(&cfg, SomierImpl::OneBufferSpread, 2).expect("one");
        let (two, _) = run_somier(&cfg, SomierImpl::TwoBuffers, 2).expect("two");
        rows.push(row![
            format!("{lat_us} µs"),
            one.elapsed,
            two.elapsed,
            penalty(one.elapsed, two.elapsed)
        ]);
    }
    render(
        ": DMA launch latency sweep (2 GPUs, One Buffer vs Two Buffers)",
        &[
            "cudaMemcpy latency",
            "One Buffer",
            "Two Buffers",
            "Two-Buffers penalty",
        ],
        &rows,
        "the Two Buffers penalty grows with per-operation latency (§VI-B).",
    )
}

/// Spread schedules under load imbalance (§IX future work).
///
/// The paper: "Dynamic scheduling is also an important issue that must
/// be addressed in order to mitigate the slowdown cause by load
/// imbalance" and "there is room for developing more static scheduling
/// strategies, for example, one that allows irregular chunk sizes."
///
/// We run a skewed workload (one device is 4× slower — a throttled
/// sibling) under the paper's static round-robin, the weighted-static
/// extension, and the dynamic extension. The problem size is fixed.
pub fn schedules(_small: bool) -> String {
    let n = 1 << 20;
    let run = |label: &str, schedule: SpreadSchedule| {
        // Device 1 is 4× slower (time_scale 4).
        let mut fast = DeviceSpec::v100().with_mem_bytes(1 << 26);
        fast.compute.max_parallelism = 1;
        let mut slow = fast.clone();
        slow.compute.time_scale = 4.0;
        let mut topo = Topology::uniform(2, fast, 1e9, 1.6e9);
        topo.devices[1] = slow;
        let mut rt = Runtime::new(
            RuntimeConfig::new(topo)
                .with_team_threads(2)
                .with_trace(false),
        );
        let a = rt.host_array("A", n);
        rt.fill_host(a, |i| i as f64);
        rt.run(|s| {
            TargetSpread::devices([0, 1])
                .with_schedule(schedule)
                .map(spread_tofrom(a, |c| c.range()))
                .parallel_for(
                    s,
                    0..n,
                    KernelSpec::new("scale", 12.0, |chunk, v| {
                        for i in chunk {
                            let x = v.get(0, i);
                            v.set(0, i, 2.0 * x);
                        }
                    })
                    .arg(KernelArg::read_write(a, |r| r)),
                )?;
            Ok(())
        })
        .expect("run");
        // Every schedule computes the same thing.
        let out = rt.snapshot_host(a);
        assert!(out.iter().enumerate().all(|(i, &v)| v == 2.0 * i as f64));
        row![label, rt.elapsed()]
    };
    let rows = vec![
        run(
            "static round-robin (paper)",
            SpreadSchedule::static_chunk(n / 16),
        ),
        run(
            "static weighted 4:1 (extension)",
            SpreadSchedule::StaticWeighted {
                round: n,
                weights: vec![4.0, 1.0],
            },
        ),
        run("dynamic (extension)", SpreadSchedule::dynamic(n / 16)),
    ];
    render(
        ": spread schedules with a 4x-slower device 1",
        &["schedule", "time"],
        &rows,
        "static round-robin is bound by the slow device; weighted and dynamic \
         rebalance (§IX).",
    )
}

const DEPEND_N: usize = 1 << 20;
// Five chunks over four devices: round-robin gives device 0 a second
// chunk, so the taskgroup barrier makes devices 1-3 idle while waiting
// for it — the idle gap Listing 13 eliminates.
const DEPEND_CHUNK: usize = DEPEND_N / 5;

/// `depend` on the data-spread directives vs the `taskgroup` barrier
/// (§IX, Listing 13).
///
/// The paper: implementing `depend` on `target enter/exit data spread`
/// "will effectively eliminate the gaps in time where some of the
/// devices remain idle while waiting for the full transfer to finish."
/// We measure a transfer→kernel→transfer pipeline both ways and report
/// total time and per-device idle time. The problem size is fixed.
pub fn depend_data(_small: bool) -> String {
    let rows = vec![
        depend_row("taskgroup barriers (paper)", false),
        depend_row("chunk-level depend (Listing 13)", true),
    ];
    render(
        " (Listing 13): taskgroup barriers vs depend on data-spread directives",
        &["synchronization", "time", "device idle (summed)"],
        &rows,
        "depend removes the inter-phase barrier, so each chunk's kernel starts as \
         soon as its own transfer lands — less idle, shorter makespan (§IX).",
    )
}

/// The enter → kernel → exit pipeline with chunk-level depends
/// (Listing 13), or with the paper's only option today: a taskgroup
/// barrier between phases.
fn depend_row(label: &str, depends: bool) -> Vec<String> {
    let (n, chunk) = (DEPEND_N, DEPEND_CHUNK);
    let mut spec = DeviceSpec::v100().with_mem_bytes(1 << 26);
    spec.compute.max_parallelism = 1;
    let mut rt = Runtime::new(
        RuntimeConfig::new(Topology::uniform(4, spec, 1e9, 2.2e9)).with_team_threads(2),
    );
    let a = rt.host_array("A", n);
    rt.fill_host(a, |i| i as f64);
    let kernel = KernelSpec::new("triple", 6.0, |chunk, v| {
        for i in chunk {
            let x = v.get(0, i);
            v.set(0, i, 3.0 * x);
        }
    })
    .arg(KernelArg::read_write(a, |r| r));
    rt.run(|s| {
        let enter = TargetEnterDataSpread::devices([0, 1, 2, 3])
            .range(0, n)
            .chunk_size(chunk)
            .nowait()
            .map(spread_to(a, |c| c.range()));
        let spread = TargetSpread::devices([0, 1, 2, 3])
            .with_schedule(SpreadSchedule::static_chunk(chunk))
            .nowait()
            .map(spread_to(a, |c| c.range()));
        let exit = TargetExitDataSpread::devices([0, 1, 2, 3])
            .range(0, n)
            .chunk_size(chunk)
            .nowait()
            .map(spread_from(a, |c| c.range()));
        if depends {
            enter.depend_out(a, |c| c.range()).launch(s)?;
            spread
                .depend_in(a, |c| c.range())
                .depend_out(a, |c| c.range())
                .parallel_for(s, 0..n, kernel)?;
            exit.depend_in(a, |c| c.range()).launch(s)?;
        } else {
            s.taskgroup(|s| enter.launch(s))??;
            s.taskgroup(|s| spread.parallel_for(s, 0..n, kernel))??;
            s.taskgroup(|s| exit.launch(s))??;
        }
        Ok(())
    })
    .expect("run");
    let tl = rt.timeline();
    let idle: f64 = tl
        .devices()
        .iter()
        .map(|&d| device_idle(&tl, d).total().as_secs_f64())
        .sum();
    row![label, rt.elapsed(), format!("{idle:.4} s")]
}

/// §IX: "research has to be done on problems where the computation
/// dominates the execution time over the data transfers, in order to
/// see if a double buffering implementation performs better."
///
/// We run that experiment: Somier with the kernel cost constants scaled
/// up (compute-bound) and, orthogonally, with default-stream vs
/// separate-streams device semantics, on 2 GPUs.
///
/// | regime | expected |
/// |---|---|
/// | transfer-bound + default stream (the paper's machine) | One Buffer wins |
/// | compute-bound + default stream | pipelining still can't overlap — near tie |
/// | compute-bound + separate streams | Double Buffering hides transfers behind kernels and wins |
pub fn compute_bound(small: bool) -> String {
    let base = if small {
        SomierConfig::test_small(100, 2)
    } else {
        SomierConfig::paper().with_timesteps(8)
    };
    let mut rows = Vec::new();
    for (regime, kernel_scale, single_queue) in [
        ("transfer-bound, default stream (paper)", 1.0, true),
        ("compute-bound (20x), default stream", 20.0, true),
        ("compute-bound (20x), separate streams", 20.0, false),
    ] {
        let mut cfg = base.clone().with_single_queue(single_queue);
        cfg.costs = cfg.costs.scaled(kernel_scale);
        let (one, _) = run_somier(&cfg, SomierImpl::OneBufferSpread, 2).expect("one");
        let (db, _) = run_somier(&cfg, SomierImpl::DoubleBuffering, 2).expect("db");
        rows.push(row![
            regime,
            one.elapsed,
            db.elapsed,
            penalty(one.elapsed, db.elapsed)
        ]);
    }
    render(
        ": when does Double Buffering pay off? (2 GPUs)",
        &[
            "regime",
            "One Buffer",
            "Double Buffering",
            "DB vs One Buffer",
        ],
        &rows,
        "DB loses on the paper's machine, and only wins when kernels dominate AND \
         the runtime can overlap streams — the §IX hypothesis, quantified.",
    )
}

//! The paper's tables and figures (§VI) as views.

use spread_somier::{run_somier, SomierConfig, SomierImpl};
use spread_trace::analysis::{concurrency_profile, interleave_stats, overlap_report};
use spread_trace::{render_gantt, GanttOptions, SimDuration, SimTime, SpanKind, Timeline};

use crate::{markdown_table, speedup};

/// The paper configuration, or a fast `test_small(n, steps)` one.
pub(crate) fn config(small: bool, n: usize, steps: usize) -> SomierConfig {
    if small {
        SomierConfig::test_small(n, steps)
    } else {
        SomierConfig::paper()
    }
}

/// `|t / paper − 1|` in percent: how far a virtual time lands from the
/// paper's measurement (meaningful at paper scale only).
fn paper_err_pct(t: SimDuration, paper_s: f64) -> String {
    format!("{:.2}", 100.0 * (t.as_secs_f64() / paper_s - 1.0).abs())
}

/// **Table I**: execution times for the One Buffer implementation —
/// `target` baseline (1 GPU) vs `target spread` on 1 / 2 / 4 GPUs.
///
/// Paper values: 17m40.231s (B) | 17m38.932s | 13m15.486s | 8m22.019s;
/// each row's `paper_err_pct` is its distance from that value.
pub fn table1(small: bool) -> String {
    let cfg = config(small, 48, 4);
    let (base, _) = run_somier(&cfg, SomierImpl::OneBufferTarget, 1).expect("baseline run");
    let mut rows = vec![row![
        "target (B)",
        "1",
        base.elapsed,
        "1.00x",
        paper_err_pct(base.elapsed, 1060.231),
        format!("{:?}", [base.centers[0]])
    ]];
    for (gpus, paper_s) in [(1usize, 1058.932), (2, 795.486), (4, 502.019)] {
        let (r, _) = run_somier(&cfg, SomierImpl::OneBufferSpread, gpus).expect("spread run");
        rows.push(row![
            "target spread",
            gpus,
            r.elapsed,
            speedup(base.elapsed, r.elapsed),
            paper_err_pct(r.elapsed, paper_s),
            format!("{:?}", [r.centers[0]])
        ]);
    }
    let mut out = String::new();
    outln!(
        out,
        "\nTable I: Execution times for the One Buffer implementation ((B) = baseline)\n"
    );
    outln!(
        out,
        "{}",
        markdown_table(
            &[
                "Directive",
                "GPUs",
                "Time",
                "Speedup",
                "paper_err_pct",
                "centers[0] (correctness witness)"
            ],
            &rows
        )
    );
    outln!(out, "Paper: 17m40.231s (B) | 17m38.932s | 13m15.486s | 8m22.019s  (1.00x / 1.00x / 1.33x / 2.11x)");
    out
}

/// **Table II** and the data series of **Figure 2**: execution times
/// for One Buffer vs Two Buffers vs Double Buffering with
/// `target spread` on 2 and 4 GPUs.
///
/// Paper values:
/// ```text
///                      2 GPUs       4 GPUs
/// One Buffer (B)       13m15.486s   8m22.019s
/// Two Buffers          14m29.599s   8m26.674s
/// Double Buffering     14m4.230s    8m51.176s
/// ```
///
/// Each cell is followed by its `paper_err_pct`.
pub fn table2(small: bool) -> String {
    // n >= 100 so the half-buffer chunks stay >= 2 planes (the §V-B gap
    // rule) on the 2-GPU column.
    let cfg = config(small, 100, 2);
    let impls = [
        SomierImpl::OneBufferSpread,
        SomierImpl::TwoBuffers,
        SomierImpl::DoubleBuffering,
    ];
    let gpus = [2usize, 4];
    // The paper's seconds, per implementation and GPU count.
    let paper_s = [[795.486, 502.019], [869.599, 506.674], [844.230, 531.176]];
    let times: Vec<Vec<SimDuration>> = impls
        .iter()
        .map(|&which| {
            gpus.iter()
                .map(|&g| run_somier(&cfg, which, g).expect("run").0.elapsed)
                .collect()
        })
        .collect();

    let mut out = String::new();
    outln!(
        out,
        "\nTable II: Execution times for the different Somier implementations ((B) = baseline)\n"
    );
    let rows: Vec<Vec<String>> = impls
        .iter()
        .zip(&times)
        .zip(paper_s)
        .map(|((which, row), paper_s)| {
            let mut cells = vec![format!(
                "{}{}",
                which.label(),
                if *which == SomierImpl::OneBufferSpread {
                    " (B)"
                } else {
                    ""
                }
            )];
            for (i, t) in row.iter().enumerate() {
                cells.push(format!("{t} ({})", speedup(times[0][i], *t)));
                cells.push(paper_err_pct(*t, paper_s[i]));
            }
            cells
        })
        .collect();
    outln!(
        out,
        "{}",
        markdown_table(
            &[
                "Implementation",
                "2 GPUs",
                "paper_err_pct",
                "4 GPUs",
                "paper_err_pct"
            ],
            &rows
        )
    );
    outln!(
        out,
        "Paper: One Buffer 13m15.486s | 8m22.019s; Two Buffers 14m29.599s | 8m26.674s; \
         Double Buffering 14m4.230s | 8m51.176s"
    );

    outln!(out, "\nFigure 2 series (seconds, for the bar chart):");
    outln!(out, "impl,gpus,seconds");
    for (which, row) in impls.iter().zip(&times) {
        for (g, t) in gpus.iter().zip(row) {
            outln!(out, "{},{},{:.3}", which.label(), g, t.as_secs_f64());
        }
    }
    // ASCII rendition of the paper's bar chart.
    outln!(
        out,
        "\nFigure 2: Time comparison of the Somier implementations\n"
    );
    let max = times
        .iter()
        .flatten()
        .map(|t| t.as_secs_f64())
        .fold(0.0f64, f64::max);
    for (gi, g) in gpus.iter().enumerate() {
        outln!(out, "{g} GPUs:");
        for (which, row) in impls.iter().zip(&times) {
            let secs = row[gi].as_secs_f64();
            let bar = "#".repeat(((secs / max) * 50.0).round() as usize);
            outln!(out, "  {:<18} |{:<50}| {}", which.label(), bar, row[gi]);
        }
    }
    out
}

/// **Figure 3 (a, b, c)**: a 10-second window of the execution trace on
/// 4 GPUs for each Somier implementation, showing host↔device transfers
/// (`>` / `<`) and kernels (`#`) per device engine — the reproduction's
/// `nsys` timeline. The raw spans are one `spread_trace::render_csv` or
/// `render_chrome_trace` call away.
///
/// The paper's observation: "the execution time was mainly dominated by
/// memory transfers and not by kernel computations".
pub fn figure3(small: bool) -> String {
    let cfg = config(small, 48, 2).with_trace(true);
    let mut out = String::new();
    for (tag, which) in [
        ("(a) One Buffer", SomierImpl::OneBufferSpread),
        ("(b) Two Buffers", SomierImpl::TwoBuffers),
        ("(c) Double Buffering", SomierImpl::DoubleBuffering),
    ] {
        let (report, rt) = run_somier(&cfg, which, 4).expect("run");
        let tl = rt.timeline();
        // A 10-second window from the middle of the run (the paper shows
        // "10 seconds of NVIDIA's nsys traces"), or 10% of the run for
        // small configs.
        let mid = SimTime::from_secs_f64(tl.end().as_secs_f64() * 0.5);
        let win = (tl.end().as_secs_f64() * 0.1).min(10.0);
        let t1 = mid + SimDuration::from_secs_f64(win);
        outln!(
            out,
            "\nFigure 3 {tag}: total {} — 10 s window at mid-run",
            report.elapsed
        );
        out.push_str(&render_gantt(
            &tl,
            &GanttOptions::window(mid, t1).with_width(100),
        ));
        // The paper's headline observation, quantified.
        for r in &overlap_report(&tl) {
            outln!(
                out,
                "  GPU{}: transfer {:.0}% of active time, compute-transfer overlap {:.1}% of compute",
                r.device,
                100.0 * r.transfer_fraction(),
                100.0 * r.overlap_fraction(),
            );
        }
    }
    out
}

/// **Figure 4**: the single-GPU zoom of the Two Buffers / Double
/// Buffering traces, quantifying the paper's three observations:
///
/// 1. "The five kernel computations were not executed subsequently, but
///    interleaved with data transfers from a different buffer" — the
///    longest back-to-back kernel run (5 means all five in a row) and
///    the kind-alternation count.
/// 2. "Overlap of computation and transfers from different buffers
///    happened in very rare occasions" — compute∩transfer time is a tiny
///    fraction of compute time.
/// 3. "Transfers from different buffers did not overlap" — the
///    per-device transfer concurrency profile has (almost) no mass at
///    level ≥ 2.
pub fn figure4(small: bool) -> String {
    let cfg = config(small, 48, 2).with_trace(true);
    let mut out = String::new();
    for (tag, which) in [
        ("Two Buffers", SomierImpl::TwoBuffers),
        ("Double Buffering", SomierImpl::DoubleBuffering),
    ] {
        let (_report, rt) = run_somier(&cfg, which, 4).expect("run");
        let tl = rt.timeline();
        outln!(out, "\nFigure 4 — {tag}, zoom on GPU0:");
        // A short window so single operations are visible: 3 s like the
        // paper's zoom, or 5% of the run for small configs.
        let mid = SimTime::from_secs_f64(tl.end().as_secs_f64() * 0.5);
        let win = (tl.end().as_secs_f64() * 0.05).min(3.0);
        let t1 = mid + SimDuration::from_secs_f64(win);
        let window = Timeline::from_spans(
            tl.window(mid, t1)
                .into_iter()
                .filter(|s| s.lane.device() == Some(0))
                .cloned()
                .collect(),
        );
        out.push_str(&render_gantt(
            &window,
            &GanttOptions::window(mid, t1).with_width(100),
        ));

        for (i, o) in interleave_stats(&tl).iter().zip(&overlap_report(&tl)) {
            outln!(
                out,
                "  GPU{}: kernels={} transfers={} alternations={} longest-kernel-run={} \
                 | overlap {:.2}% of compute",
                i.device,
                i.kernels,
                i.transfers,
                i.alternations,
                i.longest_kernel_run,
                100.0 * o.overlap_fraction(),
            );
        }
        // Transfer concurrency per device (observation 3).
        for dev in tl.devices() {
            let prof = concurrency_profile(&tl, |s| {
                s.kind.is_transfer() && s.lane.device() == Some(dev)
            });
            let total = prof.time_at_least(1).as_secs_f64();
            let multi = prof.time_at_least(2).as_secs_f64();
            outln!(
                out,
                "  GPU{dev}: transfers active {total:.1}s, ≥2 concurrent {multi:.3}s \
                 ({:.2}% — 'transfers from different buffers did not overlap')",
                if total > 0.0 {
                    100.0 * multi / total
                } else {
                    0.0
                }
            );
        }
    }
    out
}

/// The §VI-A claim: "internally, the kernel computations had near to
/// linear speedup when more GPUs were added to the configuration. This
/// suggests the occurrence of a communication bottleneck …".
///
/// Measures, from the trace, (a) total kernel busy time across devices
/// and (b) the kernel-phase makespan, for 1/2/4 GPUs, alongside the
/// transfer aggregate bandwidth achieved.
pub fn kernel_scaling(small: bool) -> String {
    let cfg = config(small, 48, 2).with_trace(true);
    let mut rows = Vec::new();
    let mut kernel_base: Option<f64> = None;
    let mut xfer_base: Option<f64> = None;
    for gpus in [1usize, 2, 4] {
        let (report, rt) = run_somier(&cfg, SomierImpl::OneBufferSpread, gpus).expect("run");
        let tl = rt.timeline();
        // Per-device busy time; the "makespan" proxy is the maximum over
        // devices (they run concurrently).
        let busiest = |kind: fn(SpanKind) -> bool| {
            tl.devices()
                .iter()
                .map(|&d| tl.device_kind_busy(d, kind).total())
                .max()
                .unwrap_or(SimDuration::ZERO)
        };
        let kernel_makespan = busiest(|k| k == SpanKind::Kernel);
        let xfer_busy = busiest(SpanKind::is_transfer);
        let k = kernel_makespan.as_secs_f64();
        let x = xfer_busy.as_secs_f64();
        let k_speedup = kernel_base.get_or_insert(k).to_owned() / k;
        let x_speedup = xfer_base.get_or_insert(x).to_owned() / x;
        rows.push(row![
            gpus,
            report.elapsed,
            format!("{kernel_makespan}"),
            format!("{k_speedup:.2}x"),
            format!("{xfer_busy}"),
            format!("{x_speedup:.2}x")
        ]);
    }
    let mut out = String::new();
    outln!(
        out,
        "\n§VI-A: kernel vs transfer scaling (One Buffer, target spread)\n"
    );
    outln!(
        out,
        "{}",
        markdown_table(
            &[
                "GPUs",
                "Total time",
                "Kernel busy (per device)",
                "Kernel speedup",
                "Transfer busy (per device)",
                "Transfer speedup",
            ],
            &rows
        )
    );
    outln!(
        out,
        "Paper: kernels scale near-linearly with devices; transfers saturate the shared bus\n\
         (expected kernel speedups ≈ 1.0 / 2.0 / 4.0; transfer speedups ≈ 1.0 / 1.17 / 1.75)"
    );
    out
}

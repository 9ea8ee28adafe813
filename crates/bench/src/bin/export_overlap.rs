//! Export the pipelined transfer/compute overlap benchmark as
//! machine-readable JSON.
//!
//! Runs the Somier One Buffer program on the 4-device CTE-POWER machine
//! twice over: the construct-scoped baseline (blocking per-construct
//! maps, the path every robustness variant shares) and the
//! `spread_overlap(depth)` variant across a sweep of pipeline depths —
//! same machine, same split, same physics; the only difference is that
//! each per-device piece is cut into `depth` sub-slices whose copy-in,
//! kernel, and staged copy-out overlap on the device's separate DMA and
//! compute queues. Writes `BENCH_overlap.json` in the shared
//! [`spread_bench::report`] schema: one `cells[]` entry per depth with
//! end-to-end virtual time, the pipeline ledger (sub-copies, staged ==
//! committed), and the per-device engine profile showing `overlap_s`
//! going from 0 (the serialized baseline) to dominant. Everything is
//! virtual time, so the file is bit-reproducible.
//!
//! Usage: `cargo run --release -p spread-bench --bin export_overlap`

use spread_bench::report::{centers_checksum, Obj, Report, Value};
use spread_core::{OverlapPolicy, SpreadClausesExt};
use spread_somier::one_buffer::run_spread_scoped;
use spread_somier::reference::run_reference;
use spread_somier::SomierConfig;
use spread_trace::{profile_window, SimTime};

const N_GPUS: usize = 4;
const N: usize = 144;
const TIMESTEPS: usize = 3;
const DEPTHS: [u32; 3] = [2, 4, 6];

/// The overlap machine: CTE-POWER with the V100's DMA and compute
/// queues modeled separately (`single_queue = false`) instead of the
/// paper's default-stream serialization. Both the baseline and the
/// pipelined runs use it, so the comparison isolates the directive,
/// not the device model: the baseline *could* overlap on this machine
/// and still doesn't, because its blocking whole-piece constructs
/// never have a copy and a kernel in flight at once.
fn config() -> SomierConfig {
    // Kernel costs ×6 over the transfer-dominated default put compute
    // and H2D streaming in the same ballpark (the balanced calibration,
    // like `export`'s compute-bound ×150): with one side negligible the
    // pipeline can only hide the small side, and no machine shows more
    // overlap than its slower engine has work.
    let mut cfg = SomierConfig::test_small(N, TIMESTEPS).with_single_queue(false);
    cfg.costs = cfg.costs.scaled(6.0);
    cfg
}

fn main() {
    let cfg = config();
    let reference = run_reference(&cfg, cfg.buffer_planes(N_GPUS));
    let devices: Vec<u32> = (0..N_GPUS as u32).collect();

    let mut base_rt = cfg.runtime(N_GPUS);
    let base = run_spread_scoped(&mut base_rt, &cfg, N_GPUS, None, |c, _| c)
        .expect("baseline run")
        .0;
    assert_eq!(
        base.centers, reference.centers,
        "the One-Buffer baseline must match the CPU reference"
    );
    assert!(
        base_rt.overlap_records().is_empty(),
        "the baseline must not engage the pipeline"
    );
    let base_s = base.elapsed.as_secs_f64();

    let mut report = Report::new(
        "somier-overlap",
        &format!(
            "Somier One Buffer on {N_GPUS}-device CTE-POWER with the V100 DMA/compute \
             queues modeled separately: blocking whole-piece constructs vs \
             spread_overlap(depth) pipelining each per-device piece as depth sub-slices \
             (copy-in ahead of compute ahead of staged copy-out), commits still \
             whole-piece and every cell bit-identical to the CPU reference"
        ),
    )
    .topology("machine", "ctepower")
    .topology("n_gpus", N_GPUS)
    .topology("n", N)
    .topology("timesteps", TIMESTEPS)
    .topology("single_queue", false)
    .field("one_buffer_elapsed_s", base_s)
    .field("bit_identical_all_cells", true);

    let mut best_speedup = 0.0f64;
    let mut best_depth = DEPTHS[0];
    let mut best_min_overlap_s = 0.0f64;
    for &depth in DEPTHS.iter() {
        let mut rt = cfg.runtime(N_GPUS);
        let rep = run_spread_scoped(&mut rt, &cfg, N_GPUS, None, |c, _| {
            c.with_overlap(OverlapPolicy::Depth(depth))
        })
        .expect("pipelined run")
        .0;
        assert_eq!(
            rep.centers, reference.centers,
            "pipelining must not change the physics (depth {depth})"
        );
        let recs = rt.overlap_records();
        assert!(!recs.is_empty(), "depth {depth} must engage the pipeline");
        assert!(
            recs.iter().all(|r| r.bypassed || r.staged == r.committed),
            "every staged sub-slice must commit exactly at the whole-piece boundary"
        );
        let elapsed = rep.elapsed.as_secs_f64();
        let speedup = base_s / elapsed;
        let h2d_ops: u32 = recs.iter().map(|r| r.h2d_ops).sum();
        let d2h_ops: u32 = recs.iter().map(|r| r.d2h_ops).sum();

        let tl = rt.timeline();
        let profs = profile_window(tl.spans(), &devices, SimTime::ZERO, rt.now());
        let min_overlap_s = profs
            .iter()
            .map(|d| d.overlap.as_secs_f64())
            .fold(f64::INFINITY, f64::min);
        if speedup > best_speedup {
            best_speedup = speedup;
            best_depth = depth;
            best_min_overlap_s = min_overlap_s;
        }
        let device_cells: Vec<Value> = profs
            .iter()
            .map(|d| {
                Value::from(
                    Obj::new()
                        .field("device", d.device)
                        .field("copy_in_s", d.copy_in.as_secs_f64())
                        .field("copy_out_s", d.copy_out.as_secs_f64())
                        .field("kernel_s", d.kernel.as_secs_f64())
                        .field("overlap_s", d.overlap.as_secs_f64())
                        .field("idle_tail_s", d.idle_tail.as_secs_f64()),
                )
            })
            .collect();
        report = report.cell(
            Obj::new()
                .field("depth", depth)
                .field("elapsed_s", elapsed)
                .field("speedup_vs_one_buffer", speedup)
                .field("pieces_pipelined", recs.len())
                .field("h2d_sub_copies", h2d_ops)
                .field("d2h_sub_copies", d2h_ops)
                .field("min_device_overlap_s", min_overlap_s)
                .field("devices", Value::Arr(device_cells)),
        );
    }
    report
        .field("best_speedup", best_speedup)
        .field("best_depth", best_depth)
        .checksum(centers_checksum(&reference.centers))
        .write("BENCH_overlap.json");
    assert!(
        best_speedup >= 1.15,
        "the pipeline must beat the One-Buffer path by at least 1.15x \
         (best {best_speedup:.3}x at depth {best_depth})"
    );
    assert!(
        best_min_overlap_s > 0.0,
        "every device must show nonzero transfer/compute overlap at the best depth"
    );
    println!(
        "BENCH_overlap.json: one-buffer {base_s:.4}s, best depth {best_depth} \
         ({best_speedup:.2}x, min per-device overlap {best_min_overlap_s:.4}s, \
         {} depths swept)",
        DEPTHS.len()
    );
}

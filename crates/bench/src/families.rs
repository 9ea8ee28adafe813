//! The clause-family experiments as views: each runs one Somier variant
//! of `one_buffer::run_spread_scoped` (or the plan-cache replay) both
//! ways on the simulated CTE-POWER machine and prints its headline
//! scalars as `key: value` lines and its measured configurations as
//! table rows. Each fixes its own small problem size, so `small` does
//! not change them. Floats print in Rust's shortest round-trip form.

use std::fmt::Display;

use spread_core::prelude::*;
use spread_core::{ExchangeMode, IntegrityMode, OverlapPolicy, StragglerPolicy};
use spread_rt::{IntegrityAction, PlanCacheStats, RunEvent, Runtime, RuntimeConfig};
use spread_sim::FaultPlan;
use spread_somier::config::STRAGGLER_BETA;
use spread_somier::one_buffer::{run_spread, run_spread_scoped};
use spread_somier::reference::run_reference;
use spread_somier::{SomierConfig, SomierReport};
use spread_trace::{profile_window, SimTime};

use crate::markdown_table;

/// The title, then one `key: value` line per headline scalar.
fn head(title: &str, fields: &[(&str, &dyn Display)]) -> String {
    let mut out = format!("\n{title}\n\n");
    for (key, value) in fields {
        outln!(out, "{key}: {value}");
    }
    out
}

/// Append a table of measured configurations after a blank line.
fn table(out: &mut String, headers: &[&str], rows: &[Vec<String>]) {
    outln!(out);
    out.push_str(&markdown_table(headers, rows));
}

/// Fold the exact bit patterns of a correctness witness (the Somier
/// centers of mass) into a 64-bit hex digest. Position-dependent (a
/// rotate-xor fold), so two runs share a digest iff their witnesses are
/// bit-identical.
fn centers_checksum(centers: &[f64]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for c in centers {
        h = h.rotate_left(17) ^ c.to_bits();
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

/// `spread_schedule(auto)` on a heterogeneous node: Somier One Buffer
/// on 2 GPUs with device 0 at 1/3 compute speed and kernel costs ×150
/// over the transfer-dominated default (the compute-bound calibration
/// of `crates/somier/tests/adaptive.rs`), under the static equal split
/// and under `spread_schedule(auto)`. The auto run must reproduce the
/// static run's physics bit for bit. One row per construct key: how
/// often it launched, and the normalized weights of its first and last
/// launch — the split the scheduler learned from its per-device
/// profiles (`tests/adaptive.rs` pins convergence).
pub fn adaptive(_small: bool) -> String {
    const N_GPUS: usize = 2;
    let mut cfg = SomierConfig::test_small(20, 10);
    cfg.costs = cfg.costs.scaled(150.0);
    let cfg = cfg.with_slow_device(0, 3.0);

    let mut static_rt = cfg.runtime(N_GPUS);
    let static_report = run_spread_scoped(&mut static_rt, &cfg, N_GPUS, None, |c, _| c)
        .expect("static run")
        .0;
    let mut auto_rt = cfg.runtime(N_GPUS);
    let auto_report = run_spread_scoped(&mut auto_rt, &cfg, N_GPUS, None, |c, k| {
        c.with_schedule(SpreadSchedule::auto(k))
    })
    .expect("auto run")
    .0;
    assert_eq!(
        auto_report.centers, static_report.centers,
        "adapted splits must not change the physics"
    );

    let static_s = static_report.elapsed.as_secs_f64();
    let auto_s = auto_report.elapsed.as_secs_f64();
    let profiles = auto_rt.profiles();
    let weights = |w: &[f64]| {
        let w: Vec<String> = w.iter().map(f64::to_string).collect();
        format!("[{}]", w.join(", "))
    };
    let mut keys: Vec<&str> = Vec::new();
    for p in &profiles {
        if !keys.contains(&p.key.as_str()) {
            keys.push(&p.key);
        }
    }
    let rows: Vec<Vec<String>> = keys
        .iter()
        .map(|&key| {
            let mut launches = profiles.iter().filter(|p| p.key == key);
            let first = launches.next().expect("a launch");
            let (count, last) = launches.fold((1, first), |(n, _), p| (n + 1, p));
            row![key, count, weights(&first.weights), weights(&last.weights)]
        })
        .collect();

    let mut out = head(
        "Adaptive schedule: Somier One Buffer on 2 GPUs (n=20, 10 steps, kernel costs x150), \
         device 0 at 1/3 compute speed: static equal split vs spread_schedule(auto)",
        &[
            ("static_elapsed_s", &static_s),
            ("auto_elapsed_s", &auto_s),
            ("speedup", &(static_s / auto_s)),
            ("bit_identical_to_static", &true),
            ("profiles", &profiles.len()),
            ("centers_checksum", &centers_checksum(&auto_report.centers)),
        ],
    );
    table(
        &mut out,
        &["key", "launches", "first weights", "final weights"],
        &rows,
    );
    out
}

/// `exchange(auto)` halos: the Somier `exchange(…)` variant on the
/// 4-device CTE-POWER machine (n=40, 6 steps) twice — halos forced
/// through the host (`exchange(host)`, the paper's round-trip) and
/// routed by the planner (`exchange(auto)`, device-to-device where a
/// sibling holds the bytes). Prints the halo-phase and end-to-end
/// virtual times, the peer-copy accounting (one row per device), and
/// the bit-identity witness; auto must route halos D2D, none diverted.
pub fn peer(_small: bool) -> String {
    const N_GPUS: usize = 4;
    let cfg = SomierConfig::test_small(40, 6);
    let run = |mode| {
        let mut rt = cfg.runtime(N_GPUS);
        let (report, halo) = run_spread_scoped(&mut rt, &cfg, N_GPUS, Some(mode), |c, _| c)
            .unwrap_or_else(|e| panic!("{mode:?} run: {e}"));
        (rt, report, halo.as_secs_f64())
    };
    let (_, host_report, host_halo_s) = run(ExchangeMode::Host);
    let (auto_rt, auto_report, auto_halo_s) = run(ExchangeMode::Auto);
    assert_eq!(
        auto_report.centers, host_report.centers,
        "the peer route must not change the physics"
    );
    let records: Vec<_> = auto_rt
        .events()
        .iter()
        .filter_map(RunEvent::peer_copy)
        .cloned()
        .collect();
    assert!(!records.is_empty(), "auto must route halos D2D");
    let diverted = records.iter().filter(|r| r.diverted).count();
    assert_eq!(diverted, 0, "no peer copy may divert on a healthy machine");
    let peer_bytes: u64 = records.iter().map(|r| r.bytes).sum();
    let host_s = host_report.elapsed.as_secs_f64();
    let auto_s = auto_report.elapsed.as_secs_f64();

    let mut out = head(
        "Peer halo exchange: Somier One Buffer on 4-device CTE-POWER (n=40, 6 steps), \
         per-timestep halo refresh via the host round-trip (exchange(host)) vs \
         device-to-device (exchange(auto))",
        &[
            ("host_halo_s", &host_halo_s),
            ("auto_halo_s", &auto_halo_s),
            ("halo_speedup", &(host_halo_s / auto_halo_s)),
            ("host_elapsed_s", &host_s),
            ("auto_elapsed_s", &auto_s),
            ("elapsed_speedup", &(host_s / auto_s)),
            ("peer_copies", &records.len()),
            ("peer_bytes", &peer_bytes),
            ("diverted", &diverted),
            ("bit_identical_to_host_route", &true),
            ("centers_checksum", &centers_checksum(&auto_report.centers)),
        ],
    );
    let rows: Vec<Vec<String>> = (0..N_GPUS as u32)
        .map(|d| {
            let out_bytes: u64 = records.iter().filter(|r| r.src == d).map(|r| r.bytes).sum();
            let in_bytes: u64 = records.iter().filter(|r| r.dst == d).map(|r| r.bytes).sum();
            row![d, out_bytes, in_bytes]
        })
        .collect();
    table(
        &mut out,
        &["device", "peer_out_bytes", "peer_in_bytes"],
        &rows,
    );
    out
}

/// Straggler rescue: the Somier `spread_straggler(…)` variant on the
/// 4-device CTE-POWER machine (n=40, 6 steps) with device 1 slowed by a
/// sweep of compute factors, once per policy — `wait` (monitor only),
/// `steal` (cancel the straggler and re-execute on the least-loaded
/// sibling), and `replicate` (race both copies). One row per slowdown
/// factor: end-to-end virtual times and rescue accounting, every cell
/// bit-identical to the CPU reference with exactly one commit per
/// rescued piece. The interesting shape is the crossover: the rescue
/// path pays its own enter + H2D on the sibling, so `steal` loses
/// slightly at mild slowdowns and wins decisively at heavy ones.
pub fn straggler(_small: bool) -> String {
    const N_GPUS: usize = 4;
    const SLOW_DEVICE: u32 = 1;
    let cfg = SomierConfig::test_small(40, 6);
    let reference = run_reference(&cfg, cfg.buffer_planes(N_GPUS));
    let run = |factor: f64, policy: StragglerPolicy| {
        let plan = FaultPlan::new(7).slow_compute(SLOW_DEVICE, SimTime::ZERO, SimTime::MAX, factor);
        let mut rt = cfg.runtime_with_faults(N_GPUS, plan);
        let report = run_spread_scoped(&mut rt, &cfg, N_GPUS, None, |c, _| {
            c.with_straggler(policy).with_straggler_beta(STRAGGLER_BETA)
        })
        .expect("straggler run")
        .0;
        assert_eq!(
            report.centers, reference.centers,
            "rescue must not change the physics ({policy:?} @ {factor}x)"
        );
        let events = rt.events();
        let rescues: Vec<_> = events.iter().filter_map(RunEvent::rescue).collect();
        assert!(
            rescues.iter().all(|r| r.commits == 1),
            "first-commit-wins: exactly one commit per rescued piece"
        );
        (rt.elapsed().as_secs_f64(), rescues.len())
    };

    let mut rows = Vec::new();
    let (mut best_speedup, mut best_factor) = (0.0f64, 0.0f64);
    for factor in [4.0, 8.0, 16.0, 32.0] {
        let (wait_s, _) = run(factor, StragglerPolicy::Wait);
        let (steal_s, steal_rescues) = run(factor, StragglerPolicy::Steal);
        let (replicate_s, replicate_rescues) = run(factor, StragglerPolicy::Replicate);
        let speedup = wait_s / steal_s;
        if speedup > best_speedup {
            (best_speedup, best_factor) = (speedup, factor);
        }
        rows.push(row![
            factor,
            wait_s,
            steal_s,
            replicate_s,
            speedup,
            steal_rescues,
            replicate_rescues
        ]);
    }
    assert!(
        best_speedup > 1.0,
        "steal must show an end-to-end improvement over wait somewhere in the sweep \
         (best {best_speedup:.3}x at {best_factor}x)"
    );
    let mut out = head(
        "Straggler rescue: Somier One Buffer on 4-device CTE-POWER (n=40, 6 steps), device 1 \
         compute-slowed by a sweep of factors: spread_straggler(wait) vs steal (cancel + \
         re-execute on a sibling) vs replicate (race both copies)",
        &[
            ("bit_identical_all_cells", &true),
            ("best_steal_speedup_vs_wait", &best_speedup),
            ("best_steal_speedup_at_slowdown", &best_factor),
            ("centers_checksum", &centers_checksum(&reference.centers)),
        ],
    );
    table(
        &mut out,
        &[
            "slowdown",
            "wait_s",
            "steal_s",
            "replicate_s",
            "steal_speedup_vs_wait",
            "steal_rescues",
            "replicate_rescues",
        ],
        &rows,
    );
    out
}

/// End-to-end integrity: the Somier `spread_integrity(…)` variant on
/// the 4-device CTE-POWER machine (6 steps) across a sweep of problem
/// sizes, three ways per cell: `off` (the unchecked baseline), `verify`
/// on a clean machine (pure digest overhead — source CRC32C per staged
/// D2H payload plus the boundary re-digest; digests are computed inline
/// at DMA line rate, so the tax is commit-path serialization only), and
/// `heal` with three silent bit-flip tokens armed (detection plus
/// construct re-execution from the host image, one healed commit per
/// token). One row per problem size, every cell bit-identical to the
/// CPU reference. The headline number is the verify overhead — the
/// price of trusting every byte a device commits — which must stay
/// under 10% across the sweep.
pub fn integrity(_small: bool) -> String {
    const N_GPUS: usize = 4;
    let flips = || {
        // One single-token burst on each of three devices, armed from t=0.
        FaultPlan::new(11)
            .silent_flips(0, SimTime::ZERO, 1)
            .silent_flips(1, SimTime::ZERO, 1)
            .silent_flips(3, SimTime::ZERO, 1)
    };
    let mut rows = Vec::new();
    let (mut worst_verify_overhead, mut worst_n) = (0.0f64, 20);
    let mut witness = [0.0f64; 3];
    for n in [20, 32, 40, 56] {
        let cfg = SomierConfig::test_small(n, 6);
        let reference = run_reference(&cfg, cfg.buffer_planes(N_GPUS));
        witness = reference.centers;
        let run = |mode: IntegrityMode, plan: Option<FaultPlan>| {
            let mut rt = match plan {
                Some(p) => cfg.runtime_with_faults(N_GPUS, p),
                None => cfg.runtime(N_GPUS),
            };
            let report =
                run_spread_scoped(&mut rt, &cfg, N_GPUS, None, |c, _| c.with_integrity(mode))
                    .expect("integrity run")
                    .0;
            assert_eq!(
                report.centers, reference.centers,
                "integrity must not change the physics ({mode:?} @ n={n})"
            );
            let healed = rt
                .events()
                .iter()
                .filter_map(RunEvent::integrity)
                .filter(|e| e.action == IntegrityAction::Healed)
                .count();
            (rt.elapsed().as_secs_f64(), healed)
        };
        let (off_s, _) = run(IntegrityMode::Off, None);
        let (verify_s, _) = run(IntegrityMode::Verify, None);
        let (heal_s, heals) = run(IntegrityMode::Heal, Some(flips()));
        assert_eq!(heals, 3, "one healed commit per armed token (n={n})");
        let verify_overhead = verify_s / off_s - 1.0;
        if verify_overhead > worst_verify_overhead {
            (worst_verify_overhead, worst_n) = (verify_overhead, n);
        }
        rows.push(row![
            n,
            cfg.total_bytes(),
            off_s,
            verify_s,
            heal_s,
            verify_overhead,
            (heal_s / off_s - 1.0),
            heals
        ]);
    }
    assert!(
        worst_verify_overhead <= 0.10,
        "verify must cost at most 10% end-to-end everywhere in the sweep \
         (worst {:.1}% at n={worst_n})",
        worst_verify_overhead * 100.0
    );
    let mut out = head(
        "Integrity: Somier One Buffer on 4-device CTE-POWER (6 steps) across problem sizes: \
         spread_integrity(off) vs verify (clean machine) vs heal (3 silent bit-flips injected, \
         detect + re-execute from the host image)",
        &[
            ("flips_injected_under_heal", &3),
            ("bit_identical_all_cells", &true),
            ("worst_verify_overhead", &worst_verify_overhead),
            ("worst_verify_overhead_at_n", &worst_n),
            ("centers_checksum", &centers_checksum(&witness)),
        ],
    );
    table(
        &mut out,
        &[
            "n",
            "grid_bytes",
            "off_s",
            "verify_s",
            "heal_s",
            "verify_overhead",
            "heal_overhead",
            "heals",
        ],
        &rows,
    );
    out
}

/// Pipelined transfer/compute overlap: the Somier One Buffer program on
/// the 4-device CTE-POWER machine (n=144, 3 steps) with the V100's DMA
/// and compute queues modeled separately (`single_queue = false`) and
/// kernel costs ×6, so compute and H2D streaming are in the same
/// ballpark (with one side negligible the pipeline can only hide the
/// small side). The construct-scoped baseline (blocking whole-piece
/// constructs, which never have a copy and a kernel in flight at once)
/// against `spread_overlap(depth)` across a sweep of depths: each
/// per-device piece cut into `depth` sub-slices whose copy-in, kernel
/// and staged copy-out overlap, commits still whole-piece. One row per
/// depth (end-to-end virtual time, the pipeline ledger) and one per
/// depth × device (the engine profile: `overlap_s` goes from 0 to
/// dominant). The best depth must beat the baseline by ≥ 1.15× with
/// nonzero overlap on every device.
pub fn overlap(_small: bool) -> String {
    const N_GPUS: usize = 4;
    let mut cfg = SomierConfig::test_small(144, 3).with_single_queue(false);
    cfg.costs = cfg.costs.scaled(6.0);
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
        base_rt.events().iter().all(|e| e.overlap().is_none()),
        "the baseline must not engage the pipeline"
    );
    let base_s = base.elapsed.as_secs_f64();

    let (mut rows, mut device_rows) = (Vec::new(), Vec::new());
    let (mut best_speedup, mut best_depth, mut best_min_overlap_s) = (0.0f64, 0, 0.0f64);
    for depth in [2u32, 4, 6] {
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
        let recs: Vec<_> = rt
            .events()
            .iter()
            .filter_map(RunEvent::overlap)
            .cloned()
            .collect();
        assert!(!recs.is_empty(), "depth {depth} must engage the pipeline");
        assert!(
            recs.iter().all(|r| r.bypassed || r.staged == r.committed),
            "every staged sub-slice must commit exactly at the whole-piece boundary"
        );
        let elapsed = rep.elapsed.as_secs_f64();
        let speedup = base_s / elapsed;
        let h2d_ops: u32 = recs.iter().map(|r| r.h2d_ops).sum();
        let d2h_ops: u32 = recs.iter().map(|r| r.d2h_ops).sum();
        let profs = profile_window(rt.timeline().spans(), &devices, SimTime::ZERO, rt.now());
        let min_overlap_s = profs
            .iter()
            .map(|d| d.overlap.as_secs_f64())
            .fold(f64::INFINITY, f64::min);
        if speedup > best_speedup {
            (best_speedup, best_depth, best_min_overlap_s) = (speedup, depth, min_overlap_s);
        }
        rows.push(row![
            depth,
            elapsed,
            speedup,
            recs.len(),
            h2d_ops,
            d2h_ops,
            min_overlap_s
        ]);
        device_rows.extend(profs.iter().map(|d| {
            row![
                depth,
                d.device,
                d.copy_in.as_secs_f64(),
                d.copy_out.as_secs_f64(),
                d.kernel.as_secs_f64(),
                d.overlap.as_secs_f64(),
                d.idle_tail.as_secs_f64()
            ]
        }));
    }
    assert!(
        best_speedup >= 1.15,
        "the pipeline must beat the One-Buffer path by at least 1.15x \
         (best {best_speedup:.3}x at depth {best_depth})"
    );
    assert!(
        best_min_overlap_s > 0.0,
        "every device must show nonzero transfer/compute overlap at the best depth"
    );
    let mut out = head(
        "Overlap: Somier One Buffer on 4-device CTE-POWER (n=144, 3 steps, kernel costs x6) \
         with the V100 DMA/compute queues modeled separately: blocking whole-piece constructs \
         vs spread_overlap(depth), commits still whole-piece",
        &[
            ("one_buffer_elapsed_s", &base_s),
            ("bit_identical_all_cells", &true),
            ("best_speedup", &best_speedup),
            ("best_depth", &best_depth),
            ("centers_checksum", &centers_checksum(&reference.centers)),
        ],
    );
    table(
        &mut out,
        &[
            "depth",
            "elapsed_s",
            "speedup_vs_one_buffer",
            "pieces_pipelined",
            "h2d_sub_copies",
            "d2h_sub_copies",
            "min_device_overlap_s",
        ],
        &rows,
    );
    table(
        &mut out,
        &[
            "depth",
            "device",
            "copy_in_s",
            "copy_out_s",
            "kernel_s",
            "overlap_s",
            "idle_tail_s",
        ],
        &device_rows,
    );
    out
}

/// The plan-cache replay's Somier configuration: n=96, 8 steps, at the
/// pipelined chunk granularity (6-plane chunks, 4 per device) — the
/// regime where per-construct planning cost (chunking plus per-chunk
/// map/dependence section evaluation) is representative rather than
/// minimal — with twice the paper's device memory so the finer chunks'
/// halo overhead fits.
fn plan_cache_config() -> SomierConfig {
    let mut cfg = SomierConfig::test_small(96, 8).with_chunk_planes(6);
    cfg.mem_ratio = 2.0;
    cfg
}

/// One leg of the plan-cache replay: the Somier One Buffer spread
/// program on 4-device CTE-POWER with the launch-plan cache on or off.
/// Returns the run's report and its plan-cache accounting.
pub fn plan_cache_leg(plan_cache: bool) -> (SomierReport, PlanCacheStats) {
    let cfg = plan_cache_config();
    let mut rt = Runtime::new(
        RuntimeConfig::new(cfg.topology(4))
            .with_team_threads(cfg.team_threads)
            .with_trace(cfg.trace)
            .with_alloc_backpressure(true)
            .with_plan_cache(plan_cache),
    );
    let report = run_spread(&mut rt, &cfg, 4).expect("plan-cache leg");
    (report, rt.plan_stats())
}

/// The launch-plan cache: the Somier One Buffer spread replay
/// ([`plan_cache_leg`]) with the cache off (every construct pays cold
/// admission planning, chunking and section evaluation) and on (every
/// timestep after the first replays cached plans). Both legs must be
/// bit-identical to the CPU reference; a disabled cache counts nothing,
/// the warm leg serves hits and nothing invalidates on a healthy
/// machine. One row per leg: virtual time and the cache's counters.
///
/// Host planning cost is wall-clock, so no view prints it: the
/// benchmark reports it as `core.plan_cold_ns` / `core.plan_warm_ns`,
/// and `tests/plan_cache.rs` (release builds) holds the floors — warm
/// planning ≥ 5× cheaper than cold, ≥ 1 000 keyed constructs/s.
pub fn plan_cache(_small: bool) -> String {
    let cfg = plan_cache_config();
    let reference = run_reference(&cfg, cfg.buffer_planes(4));
    let (cold, cold_stats) = plan_cache_leg(false);
    let (warm, warm_stats) = plan_cache_leg(true);
    assert_eq!(
        cold.centers, reference.centers,
        "the cold leg must match the CPU reference"
    );
    assert_eq!(
        warm.centers, reference.centers,
        "the warm leg must replay bit-identical physics"
    );
    assert_eq!(
        (cold_stats.hits, cold_stats.misses),
        (0, 0),
        "a disabled cache must not count anything: {cold_stats:?}"
    );
    assert!(
        warm_stats.hits > 0,
        "the Somier replay must serve cache hits: {warm_stats:?}"
    );
    assert_eq!(
        warm_stats.invalidations, 0,
        "nothing invalidates on a healthy machine: {warm_stats:?}"
    );
    let mut out = head(
        "Plan cache: Somier One Buffer spread replay on 4-device CTE-POWER (n=96, 8 steps, \
         6-plane chunks, 4 per device), launch-plan cache off vs on",
        &[
            ("cache_hits", &warm_stats.hits),
            ("cache_misses", &warm_stats.misses),
            ("bit_identical_all_cells", &true),
            ("centers_checksum", &centers_checksum(&reference.centers)),
        ],
    );
    let rows: Vec<Vec<String>> = [("cold", &cold, &cold_stats), ("warm", &warm, &warm_stats)]
        .iter()
        .map(|(leg, report, stats)| {
            row![
                leg,
                report.elapsed.as_secs_f64(),
                stats.hits,
                stats.misses,
                stats.invalidations,
                stats.cold_plans,
                stats.warm_plans
            ]
        })
        .collect();
    table(
        &mut out,
        &[
            "leg",
            "elapsed_s",
            "cache_hits",
            "cache_misses",
            "cache_invalidations",
            "cold_plans",
            "warm_plans",
        ],
        &rows,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_bit_and_order_sensitive() {
        let a = centers_checksum(&[1.0, 2.0, 3.0]);
        assert_eq!(a, centers_checksum(&[1.0, 2.0, 3.0]));
        assert_ne!(a, centers_checksum(&[2.0, 1.0, 3.0]));
        // One ULP on the first element (3.0 + EPSILON would round back).
        assert_ne!(a, centers_checksum(&[1.0 + f64::EPSILON, 2.0, 3.0]));
    }
}

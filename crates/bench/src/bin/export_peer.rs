//! Export the peer halo-exchange benchmark as machine-readable JSON.
//!
//! Runs the Somier `exchange(…)` variant on the 4-device CTE-POWER
//! machine twice — halos forced through the host (`exchange(host)`,
//! the paper's round-trip) and routed by the planner
//! (`exchange(auto)`, device-to-device where a sibling holds the
//! bytes) — then writes `BENCH_peer.json` in the shared
//! [`spread_bench::report`] schema: the halo-phase and end-to-end
//! virtual times, the peer-copy accounting (one `cells[]` entry per
//! device), and the bit-identity witness. Everything is virtual time,
//! so the file is bit-reproducible.
//!
//! Usage: `cargo run --release -p spread-bench --bin export_peer`

use spread_bench::report::{centers_checksum, Obj, Report};
use spread_core::ExchangeMode;
use spread_somier::one_buffer::run_spread_scoped;
use spread_somier::SomierConfig;

const N_GPUS: usize = 4;
const N: usize = 40;
const TIMESTEPS: usize = 6;

fn main() {
    let cfg = SomierConfig::test_small(N, TIMESTEPS);

    let mut host_rt = cfg.runtime(N_GPUS);
    let (host_report, host_halo) = run_spread_scoped(
        &mut host_rt,
        &cfg,
        N_GPUS,
        Some(ExchangeMode::Host),
        |c, _| c,
    )
    .expect("host-routed run");

    let mut auto_rt = cfg.runtime(N_GPUS);
    let (auto_report, auto_halo) = run_spread_scoped(
        &mut auto_rt,
        &cfg,
        N_GPUS,
        Some(ExchangeMode::Auto),
        |c, _| c,
    )
    .expect("auto run");
    assert_eq!(
        auto_report.centers, host_report.centers,
        "the peer route must not change the physics"
    );

    let records = auto_rt.peer_copies();
    assert!(!records.is_empty(), "auto must route halos D2D");
    assert!(records.iter().all(|r| !r.diverted));
    let peer_bytes: u64 = records.iter().map(|r| r.bytes).sum();

    let host_halo_s = host_halo.as_secs_f64();
    let auto_halo_s = auto_halo.as_secs_f64();
    let host_s = host_report.elapsed.as_secs_f64();
    let auto_s = auto_report.elapsed.as_secs_f64();

    let mut report = Report::new(
        "somier-peer-halo-exchange",
        &format!(
            "Somier One Buffer on {N_GPUS}-device CTE-POWER: per-timestep halo \
             refresh via the host round-trip (exchange(host)) vs device-to-device \
             (exchange(auto))"
        ),
    )
    .topology("machine", "ctepower")
    .topology("n_gpus", N_GPUS)
    .topology("n", N)
    .topology("timesteps", TIMESTEPS)
    .field("host_halo_s", host_halo_s)
    .field("auto_halo_s", auto_halo_s)
    .field("halo_speedup", host_halo_s / auto_halo_s)
    .field("host_elapsed_s", host_s)
    .field("auto_elapsed_s", auto_s)
    .field("elapsed_speedup", host_s / auto_s)
    .field("peer_copies", records.len())
    .field("peer_bytes", peer_bytes)
    .field("diverted", 0usize)
    .field("bit_identical_to_host_route", true);
    for d in 0..N_GPUS as u32 {
        let out_bytes: u64 = records.iter().filter(|r| r.src == d).map(|r| r.bytes).sum();
        let in_bytes: u64 = records.iter().filter(|r| r.dst == d).map(|r| r.bytes).sum();
        report = report.cell(
            Obj::new()
                .field("device", d)
                .field("peer_out_bytes", out_bytes)
                .field("peer_in_bytes", in_bytes),
        );
    }
    report
        .checksum(centers_checksum(&auto_report.centers))
        .write("BENCH_peer.json");
    println!(
        "BENCH_peer.json: halo host {host_halo_s:.6}s vs auto {auto_halo_s:.6}s \
         (speedup {:.2}x), end-to-end {:.2}x, {} peer copies / {peer_bytes} bytes",
        host_halo_s / auto_halo_s,
        host_s / auto_s,
        records.len()
    );
}

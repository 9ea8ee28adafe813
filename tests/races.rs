//! Direct coverage for the footprint race detector
//! (`Runtime::races()` / `RaceReport`): a genuine host-footprint
//! conflict between unordered `nowait` data directives must be
//! reported, and a busy but well-formed `nowait` spread program must
//! report none.

use target_spread::core::prelude::*;
use target_spread::core::SpreadMap;
use target_spread::devices::{DeviceSpec, Topology};
use target_spread::rt::kernel::KernelArg;
use target_spread::rt::prelude::*;

fn runtime(n_dev: usize) -> Runtime {
    let topo = Topology::uniform(
        n_dev,
        DeviceSpec::v100().with_mem_bytes(1 << 22),
        1e9,
        1.6e9,
    );
    Runtime::new(
        RuntimeConfig::new(topo)
            .with_team_threads(2)
            .with_trace(false),
    )
}

/// An exit copy-out writes host `A` while an enter on another device
/// reads it; with `nowait` and no `depend` clauses the two transfers
/// start at the same virtual instant, so the conflict is real and must
/// produce a `RaceReport` naming the overlapping section.
#[test]
fn unordered_host_write_vs_read_is_reported() {
    let n = 1 << 12;
    let mut rt = runtime(2);
    let a = rt.host_array("A", n);
    rt.fill_host(a, |i| i as f64);
    rt.run(|s| {
        // Make A present on device 0 first (blocking, conflict-free).
        TargetEnterDataSpread::devices([0])
            .range(0, n)
            .chunk_size(n)
            .map(spread_to(a, |c| c.range()))
            .launch(s)?;
        // Now race: D2H from device 0 writes host A[0..n] while the H2D
        // enter for device 1 reads host A[0..n], unordered.
        TargetExitDataSpread::devices([0])
            .range(0, n)
            .chunk_size(n)
            .nowait()
            .map(spread_from(a, |c| c.range()))
            .launch(s)?;
        TargetEnterDataSpread::devices([1])
            .range(0, n)
            .chunk_size(n)
            .nowait()
            .map(spread_to(a, |c| c.range()))
            .launch(s)?;
        s.drain_all()?;
        // Balance device 1 so the mapping table ends empty.
        TargetExitDataSpread::devices([1])
            .range(0, n)
            .chunk_size(n)
            .map(SpreadMap::new(MapType::Release, a, |c| c.range()))
            .launch(s)?;
        Ok(())
    })
    .unwrap();
    let races = rt.races();
    assert!(
        !races.is_empty(),
        "host write vs host read on A must be flagged"
    );
    let r = &races[0];
    assert_eq!(r.section.array, a.id(), "race names array A: {r:?}");
    assert!(r.section.len > 0, "{r:?}");
}

/// The same machine running a busy multi-device `nowait` program whose
/// statements touch disjoint arrays: plenty of concurrency, zero
/// conflicts — the detector must stay silent and the results must be
/// exact.
#[test]
fn conflict_free_nowait_spread_reports_no_races() {
    let n = 1 << 12;
    let mut rt = runtime(3);
    let a = rt.host_array("A", n);
    let b = rt.host_array("B", n);
    rt.fill_host(a, |i| i as f64);
    rt.fill_host(b, |i| 2.0 * i as f64);
    rt.run(|s| {
        for (arr, name, c) in [(a, "bump_a", 1.0), (b, "bump_b", 10.0)] {
            TargetSpread::devices([0, 1, 2])
                .with_schedule(SpreadSchedule::static_chunk(n / 8))
                .nowait()
                .map(spread_tofrom(arr, |ch| ch.range()))
                .parallel_for(
                    s,
                    0..n,
                    KernelSpec::new(name, 2.0, move |chunk, v| {
                        for i in chunk {
                            v.set(0, i, v.get(0, i) + c);
                        }
                    })
                    .arg(KernelArg::read_write(arr, |r| r)),
                )?;
        }
        s.drain_all()?;
        Ok(())
    })
    .unwrap();
    assert!(
        rt.races().is_empty(),
        "disjoint-array nowait spreads must not be flagged: {:?}",
        rt.races()
    );
    let av = rt.snapshot_host(a);
    let bv = rt.snapshot_host(b);
    for i in 0..n {
        assert_eq!(av[i], i as f64 + 1.0);
        assert_eq!(bv[i], 2.0 * i as f64 + 10.0);
    }
}

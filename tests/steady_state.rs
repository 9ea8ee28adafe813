//! Steady state: the runtime's per-task bookkeeping follows what is in
//! flight, not what has run. After any number of constructs, every
//! point where nothing is in flight finds the task graph, its
//! dependence records, the race detector's running set, the pending
//! actions, the recovery handlers and the memory waiters all empty —
//! the miniature of ROADMAP's soak item.

use target_spread::core::prelude::*;
use target_spread::devices::Topology;
use target_spread::rt::kernel::KernelArg;
use target_spread::rt::prelude::*;
use target_spread::rt::task::LiveCounts;

const DEVICES: [u32; 4] = [0, 1, 2, 3];

fn bump(a: HostArray) -> KernelSpec {
    KernelSpec::new("bump", 1.0, |chunk, v| {
        for i in chunk {
            v.set(0, i, v.get(0, i) + 1.0);
        }
    })
    .arg(KernelArg::read_write(a, |r| r))
}

/// One round of the paper's Listing 13 over `a`, `n / chunk` chains wide.
fn listing_13(s: &mut Scope<'_>, a: HostArray, n: usize, chunk: usize) -> Result<(), RtError> {
    s.taskgroup(|s| -> Result<(), RtError> {
        TargetEnterDataSpread::devices(DEVICES)
            .range(0, n)
            .chunk_size(chunk)
            .nowait()
            .map(spread_to(a, |c| c.range()))
            .depend_out(a, |c| c.range())
            .launch(s)?;
        TargetSpread::devices(DEVICES)
            .with_schedule(SpreadSchedule::static_chunk(chunk))
            .nowait()
            .map(spread_alloc(a, |c| c.range()))
            .depend_in(a, |c| c.range())
            .depend_out(a, |c| c.range())
            .parallel_for(s, 0..n, bump(a))?;
        TargetExitDataSpread::devices(DEVICES)
            .range(0, n)
            .chunk_size(chunk)
            .nowait()
            .map(spread_from(a, |c| c.range()))
            .depend_in(a, |c| c.range())
            .launch(s)?;
        Ok(())
    })?
}

#[test]
fn bookkeeping_is_empty_whenever_nothing_is_in_flight() {
    let mut rt = Runtime::new(
        RuntimeConfig::new(Topology::ctepower(4))
            .with_team_threads(1)
            .with_trace(false),
    );
    let idle = LiveCounts::default();

    // 2 000 tiny synchronous constructs.
    let small = rt.host_array("S", 64);
    for i in 0..2_000 {
        rt.run(|s| {
            TargetSpread::devices(DEVICES)
                .with_schedule(SpreadSchedule::static_chunk(16))
                .map(spread_tofrom(small, |c| c.range()))
                .parallel_for(s, 0..64, bump(small))
        })
        .unwrap();
        assert_eq!(rt.live_counts(), idle, "after construct {i}");
    }
    assert_eq!(rt.snapshot_host(small), vec![2_000.0; 64]);

    // 40 rounds of Listing 13, 64 chunk chains in flight per round.
    let (n, chunk) = (4_096, 64);
    let wide = rt.host_array("W", n);
    let mut after_first = None;
    for round in 0..40 {
        rt.run(|s| listing_13(s, wide, n, chunk)).unwrap();
        assert_eq!(rt.live_counts(), idle, "after round {round}");
        after_first.get_or_insert(rt.live_counts());
    }
    assert_eq!(Some(rt.live_counts()), after_first);
    assert_eq!(rt.snapshot_host(wide), vec![40.0; n]);

    // Parent contexts come and go too: every `taskloop` body is a parent
    // of the constructs it issues.
    for round in 0..20 {
        rt.run(|s| {
            s.taskloop("rows", 0..8, 4, move |s, row| {
                let rows = n / 8;
                TargetSpread::devices(DEVICES)
                    .with_schedule(SpreadSchedule::static_chunk(chunk))
                    .map(spread_tofrom(wide, |c| c.range()))
                    .parallel_for(s, row * rows..(row + 1) * rows, bump(wide))
                    .unwrap();
            })
        })
        .unwrap();
        assert_eq!(rt.live_counts(), idle, "after taskloop {round}");
    }
    assert_eq!(rt.snapshot_host(wide), vec![60.0; n]);
    assert!(rt.races().is_empty());
}

//! Host copies on the whole team move the same bytes as copies on one
//! thread: a construct whose sections sit just below, at and just above
//! `COPY_SPLIT_MIN` leaves bit-identical host arrays and the same span
//! timeline whether one team member or three make its copies.

use target_spread::core::prelude::*;
use target_spread::devices::Topology;
use target_spread::rt::kernel::KernelArg;
use target_spread::rt::prelude::*;
use target_spread::rt::HostCounters;
use target_spread::teams::COPY_SPLIT_MIN;

/// FNV-1a-64 of the `Debug` text of every span's `(start, end, label)`.
fn timeline_digest(rt: &Runtime) -> u64 {
    let tl = rt.timeline();
    let spans: Vec<_> = tl
        .spans()
        .iter()
        .map(|s| (s.start, s.end, s.label.clone()))
        .collect();
    format!("{spans:?}")
        .bytes()
        .fold(0xcbf29ce484222325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100000001b3)
        })
}

/// One `target spread` over three chunks of `COPY_SPLIT_MIN`,
/// `COPY_SPLIT_MIN` and `COPY_SPLIT_MIN - 1` iterations: `A`'s halo
/// sections are two elements longer, `B`'s match the chunks.
/// `spread_integrity(verify)` stages every D2H copy as a snapshot.
fn run(team_threads: usize) -> (Vec<f64>, Vec<f64>, u64, HostCounters) {
    let mut rt = Runtime::new(
        RuntimeConfig::new(Topology::ctepower(3))
            .with_team_threads(team_threads)
            .with_trace(true),
    );
    let n = 3 * COPY_SPLIT_MIN + 1;
    let a = rt.host_array("A", n);
    let b = rt.host_array("B", n);
    rt.fill_host(a, |i| ((i * 37) % 1013) as f64 * 0.25);
    rt.fill_host(b, |i| -(i as f64));
    rt.run(|s| {
        TargetSpread::devices([2, 0, 1])
            .with_schedule(SpreadSchedule::static_chunk(COPY_SPLIT_MIN))
            .with_integrity(IntegrityMode::Verify)
            .map(spread_to(a, |c| c.start() - 1..c.end() + 1))
            .map(spread_tofrom(b, |c| c.range()))
            .parallel_for(
                s,
                1..n - 1,
                KernelSpec::new("stencil", 2.0, |chunk, v| {
                    for i in chunk {
                        let sum = v.get(0, i - 1) + v.get(0, i) + v.get(0, i + 1);
                        v.set(1, i, v.get(1, i) + sum);
                    }
                })
                .arg(KernelArg::read(a, |r| r.start - 1..r.end + 1))
                .arg(KernelArg::read_write(b, |r| r)),
            )?;
        Ok(())
    })
    .expect("the construct runs");
    (
        rt.snapshot_host(a),
        rt.snapshot_host(b),
        timeline_digest(&rt),
        rt.host_counters(),
    )
}

#[test]
fn a_shared_copy_moves_the_same_bytes_as_one_thread() {
    let (a1, b1, digest1, host1) = run(1);
    let (a3, b3, digest3, host3) = run(3);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a1), bits(&a3), "A");
    assert_eq!(bits(&b1), bits(&b3), "B");
    assert_eq!(digest1, digest3, "span timeline");
    for (i, &x) in b1.iter().enumerate().take(b1.len() - 1).skip(1) {
        let sum: f64 = a1[i - 1..=i + 1].iter().sum();
        assert_eq!(x.to_bits(), (-(i as f64) + sum).to_bits(), "B[{i}]");
    }
    // A team of one shares nothing; a team of three shares exactly the
    // copies of at least COPY_SPLIT_MIN elements: A's three halo
    // sections and B's two full chunks in, and B's two full chunks out
    // as snapshot and as commit.
    assert_eq!(host1.split_copies, 0);
    assert_eq!(host3.split_copies, 3 + 2 + 2 + 2);
    assert_eq!(
        HostCounters {
            split_copies: 0,
            ..host3
        },
        host1
    );
    // B moves its 3·COPY_SPLIT_MIN − 1 elements each way, A its halo
    // sections in: two elements more than each chunk.
    let b_bytes = (3 * COPY_SPLIT_MIN as u64 - 1) * 8;
    assert_eq!(
        host1.h2d_bytes,
        b_bytes + (3 * COPY_SPLIT_MIN as u64 + 5) * 8
    );
    assert_eq!(host1.snapshot_bytes, b_bytes);
    assert_eq!(host1.d2h_bytes, b_bytes);
}

//! The peer-to-peer `exchange(…)` path of `target update`: device-to-device
//! pulls, eligibility, effect-time divert-to-host, and the profile
//! accounting identities.

use spread_devices::{DeviceSpec, Topology};
use spread_prng::Prng;
use spread_rt::prelude::*;
use spread_rt::{ExchangeMode, PeerCopyRecord, RunEvent};
use spread_sim::FaultPlan;
use spread_trace::{profile_window, EngineKind, SimTime, SpanKind};

/// The peer copies in the run ledger, in recording order.
fn peer_copies(rt: &Runtime) -> Vec<PeerCopyRecord> {
    rt.events()
        .iter()
        .filter_map(RunEvent::peer_copy)
        .cloned()
        .collect()
}

fn runtime_n(n_devices: usize) -> Runtime {
    let topo = Topology::uniform(n_devices, DeviceSpec::v100(), 1e9, 1.5e9);
    Runtime::new(RuntimeConfig::new(topo).with_team_threads(2))
}

#[test]
fn auto_routes_peer_and_stays_bit_identical() {
    let mut rt = runtime_n(2);
    let n = 4096;
    let a = rt.host_array("A", n);
    rt.fill_host(a, |i| (i as f64).sin());
    let reference = rt.snapshot_host(a);
    rt.run(|s| {
        TargetEnterData::device(0).map(to(a, 0..n)).launch(s)?;
        TargetEnterData::device(1).map(alloc(a, 0..n)).launch(s)?;
        TargetUpdate::device(1)
            .to(a.section(0..n))
            .exchange(ExchangeMode::Auto)
            .launch(s)?;
        // Writing the host back from device 1 proves the peer pull
        // delivered the exact bytes.
        TargetUpdate::device(1).from(a.section(0..n)).launch(s)?;
        Ok(())
    })
    .unwrap();
    assert_eq!(rt.snapshot_host(a), reference);
    assert_eq!(
        peer_copies(&rt),
        vec![PeerCopyRecord {
            src: 0,
            dst: 1,
            section: a.section(0..n),
            bytes: n as u64 * 8,
            diverted: false,
        }]
    );
    let tl = rt.timeline();
    let peer: Vec<_> = tl
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::PeerCopy)
        .collect();
    assert_eq!(peer.len(), 1);
    assert!(peer[0].label.starts_with("p2p[0->1]"), "{}", peer[0].label);
    assert_eq!(peer[0].bytes, n as u64 * 8);
}

#[test]
fn host_mode_is_the_default_and_never_routes_peer() {
    let mut rt = runtime_n(2);
    let n = 1024;
    let a = rt.host_array("A", n);
    rt.fill_host(a, |i| i as f64);
    rt.run(|s| {
        TargetEnterData::device(0).map(to(a, 0..n)).launch(s)?;
        TargetEnterData::device(1).map(alloc(a, 0..n)).launch(s)?;
        TargetUpdate::device(1).to(a.section(0..n)).launch(s)?;
        Ok(())
    })
    .unwrap();
    assert!(peer_copies(&rt).is_empty());
    assert!(rt
        .timeline()
        .spans()
        .iter()
        .all(|s| s.kind != SpanKind::PeerCopy));
}

#[test]
fn auto_falls_back_to_host_when_no_sibling_has_the_bytes() {
    let mut rt = runtime_n(2);
    let n = 1024;
    let a = rt.host_array("A", n);
    rt.fill_host(a, |i| i as f64 + 0.5);
    let reference = rt.snapshot_host(a);
    rt.run(|s| {
        TargetEnterData::device(1).map(alloc(a, 0..n)).launch(s)?;
        TargetUpdate::device(1)
            .to(a.section(0..n))
            .exchange(ExchangeMode::Auto)
            .launch(s)?;
        TargetUpdate::device(1).from(a.section(0..n)).launch(s)?;
        Ok(())
    })
    .unwrap();
    assert_eq!(rt.snapshot_host(a), reference);
    assert!(peer_copies(&rt).is_empty());
}

#[test]
fn stale_sibling_bytes_are_not_eligible() {
    // Device 0 holds A but a kernel bumped its image away from the host
    // copy — bit-equality fails, so `auto` must take the host path.
    let mut rt = runtime_n(2);
    let n = 256;
    let a = rt.host_array("A", n);
    rt.fill_host(a, |i| i as f64);
    let reference = rt.snapshot_host(a);
    rt.run(|s| {
        TargetEnterData::device(0).map(to(a, 0..n)).launch(s)?;
        Target::device(0).map(to(a, 0..n)).parallel_for(
            s,
            0..n,
            KernelSpec::new("bump", 1.0, |chunk, v| {
                for i in chunk {
                    let x = v.get(0, i);
                    v.set(0, i, x + 1.0);
                }
            })
            .arg(KernelArg::read_write(a, |r| r)),
        )?;
        TargetEnterData::device(1).map(alloc(a, 0..n)).launch(s)?;
        TargetUpdate::device(1)
            .to(a.section(0..n))
            .exchange(ExchangeMode::Auto)
            .launch(s)?;
        TargetUpdate::device(1).from(a.section(0..n)).launch(s)?;
        Ok(())
    })
    .unwrap();
    assert_eq!(rt.snapshot_host(a), reference);
    assert!(peer_copies(&rt).is_empty());
}

#[test]
fn forced_peer_without_an_eligible_source_is_invalid() {
    let mut rt = runtime_n(2);
    let n = 128;
    let a = rt.host_array("A", n);
    let err = rt
        .run(|s| {
            TargetEnterData::device(1).map(alloc(a, 0..n)).launch(s)?;
            TargetUpdate::device(1)
                .to(a.section(0..n))
                .exchange(ExchangeMode::Peer)
                .launch(s)?;
            Ok(())
        })
        .unwrap_err();
    assert!(matches!(err, RtError::InvalidDirective(_)), "{err:?}");
}

#[test]
fn forced_peer_without_to_items_is_invalid() {
    let mut rt = runtime_n(2);
    let n = 128;
    let a = rt.host_array("A", n);
    let err = rt
        .run(|s| {
            TargetEnterData::device(0).map(to(a, 0..n)).launch(s)?;
            TargetUpdate::device(0)
                .from(a.section(0..n))
                .exchange(ExchangeMode::Peer)
                .launch(s)?;
            Ok(())
        })
        .unwrap_err();
    assert!(matches!(err, RtError::InvalidDirective(_)), "{err:?}");
}

#[test]
fn forced_peer_on_a_single_device_node_is_invalid() {
    let mut rt = runtime_n(1);
    let n = 128;
    let a = rt.host_array("A", n);
    let err = rt
        .run(|s| {
            TargetEnterData::device(0).map(to(a, 0..n)).launch(s)?;
            TargetUpdate::device(0)
                .to(a.section(0..n))
                .exchange(ExchangeMode::Peer)
                .launch(s)?;
            Ok(())
        })
        .unwrap_err();
    assert!(matches!(err, RtError::InvalidDirective(_)), "{err:?}");
}

#[test]
#[should_panic(expected = "invalid topology")]
fn runtime_rejects_an_inconsistent_topology() {
    let mut topo = Topology::uniform(2, DeviceSpec::v100(), 1e9, 1.5e9);
    topo.switch_of.pop();
    Runtime::new(RuntimeConfig::new(topo));
}

/// Build the two-half peer program used by the divert test: enter A on
/// device 0, alloc on device 1, two async auto-updates (one per half),
/// then read both halves back.
fn two_half_program(rt: &mut Runtime, a: HostArray, n: usize) -> Result<(), RtError> {
    rt.run(|s| {
        TargetEnterData::device(0).map(to(a, 0..n)).launch(s)?;
        TargetEnterData::device(1).map(alloc(a, 0..n)).launch(s)?;
        TargetUpdate::device(1)
            .to(a.section(0..n / 2))
            .exchange(ExchangeMode::Auto)
            .nowait()
            .launch(s)?;
        TargetUpdate::device(1)
            .to(a.section(n / 2..n))
            .exchange(ExchangeMode::Auto)
            .nowait()
            .launch(s)?;
        s.drain_all()?;
        TargetUpdate::device(1).from(a.section(0..n)).launch(s)?;
        Ok(())
    })
}

#[test]
fn a_lost_source_diverts_queued_peer_copies_to_the_host_path() {
    // Clean run: find the first peer copy's window.
    let n = 1 << 16;
    let mut clean = runtime_n(2);
    let a = clean.host_array("A", n);
    clean.fill_host(a, |i| (i % 97) as f64);
    two_half_program(&mut clean, a, n).unwrap();
    let tl = clean.timeline();
    let mut peer: Vec<_> = tl
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::PeerCopy)
        .collect();
    peer.sort_by_key(|s| s.start);
    assert_eq!(peer.len(), 2, "both halves pulled peer in the clean run");
    let mid = peer[0].start + (peer[0].end - peer[0].start) / 2;

    // Faulted run: lose the source mid-first-copy. The in-flight copy
    // already moved its bytes (effects are eager); the queued second op
    // re-verifies at start, finds the source dead, and replays from the
    // host image.
    let topo = Topology::uniform(2, DeviceSpec::v100(), 1e9, 1.5e9);
    let mut rt = Runtime::new(
        RuntimeConfig::new(topo)
            .with_team_threads(2)
            .with_fault_plan(FaultPlan::new(7).lose_device(0, mid)),
    );
    let a = rt.host_array("A", n);
    rt.fill_host(a, |i| (i % 97) as f64);
    let reference = rt.snapshot_host(a);
    two_half_program(&mut rt, a, n).unwrap();
    assert_eq!(rt.snapshot_host(a), reference, "host image bit-identical");
    let records = peer_copies(&rt);
    assert_eq!(records.len(), 2);
    assert!(!records[0].diverted, "in-flight copy completed");
    assert!(records[1].diverted, "queued copy diverted to host");
    let tl = rt.timeline();
    assert!(
        tl.spans()
            .iter()
            .any(|s| s.label.ends_with("(host fallback)")),
        "the diverted copy ran on the H2D engine"
    );
}

#[test]
fn peer_accounting_and_fifo_properties() {
    // Property sweep (seeded): device 0 seeds the array, every other
    // device pulls a random partition of it peer-to-peer. Checks, per
    // run: (1) per-device peer-byte accounting sums to exactly twice
    // the total peer traffic (each byte leaves one device and enters
    // another); (2) peer spans on one engine never overlap (FIFO);
    // (3) the host round-trip stays bit-identical.
    for seed in 0..12u64 {
        let mut prng = Prng::new(seed);
        let k = prng.range(2, 5);
        let n = prng.range(4, 33) * 128;
        let mut rt = runtime_n(k);
        let a = rt.host_array("A", n);
        rt.fill_host(a, |i| (i as f64 * 0.75) - 3.0);
        let reference = rt.snapshot_host(a);
        let mut expected = 0u64;
        rt.run(|s| {
            TargetEnterData::device(0).map(to(a, 0..n)).launch(s)?;
            for d in 1..k as u32 {
                TargetEnterData::device(d).map(alloc(a, 0..n)).launch(s)?;
            }
            for d in 1..k as u32 {
                // A random partition of [0, n) into 1..=4 pieces.
                let pieces = prng.range(1, 5);
                let mut cuts: Vec<usize> = (0..pieces - 1).map(|_| prng.range(1, n)).collect();
                cuts.push(0);
                cuts.push(n);
                cuts.sort_unstable();
                cuts.dedup();
                for w in cuts.windows(2) {
                    TargetUpdate::device(d)
                        .to(a.section(w[0]..w[1]))
                        .exchange(ExchangeMode::Auto)
                        .nowait()
                        .launch(s)?;
                    expected += (w[1] - w[0]) as u64 * 8;
                }
            }
            s.drain_all()?;
            for d in 1..k as u32 {
                TargetUpdate::device(d).from(a.section(0..n)).launch(s)?;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(rt.snapshot_host(a), reference, "seed {seed}");
        let records = peer_copies(&rt);
        assert!(records.iter().all(|r| !r.diverted), "seed {seed}");
        let total: u64 = records.iter().map(|r| r.bytes).sum();
        assert_eq!(total, expected, "seed {seed}");
        let tl = rt.timeline();
        let devices: Vec<u32> = (0..k as u32).collect();
        let profiles = profile_window(tl.spans(), &devices, tl.start(), tl.end());
        let in_sum: u64 = profiles.iter().map(|p| p.peer_in_bytes).sum();
        let out_sum: u64 = profiles.iter().map(|p| p.peer_out_bytes).sum();
        assert_eq!(in_sum, total, "seed {seed}: every peer byte arrives once");
        assert_eq!(out_sum, total, "seed {seed}: every peer byte leaves once");
        assert_eq!(in_sum + out_sum, 2 * total, "seed {seed}");
        // FIFO: per destination engine, peer spans are disjoint in time.
        for d in &devices {
            let mut spans: Vec<_> = tl
                .spans()
                .iter()
                .filter(|s| {
                    s.kind == SpanKind::PeerCopy
                        && s.lane.engine() == Some(EngineKind::PeerCopy)
                        && s.lane.device() == Some(*d)
                })
                .collect();
            spans.sort_by_key(|s| s.start);
            for w in spans.windows(2) {
                assert!(
                    w[1].start >= w[0].end,
                    "seed {seed}: overlapping peer spans on device {d}"
                );
            }
        }
        let _: SimTime = tl.end();
    }
}

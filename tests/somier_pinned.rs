//! Somier pinned bit for bit: for every implementation × device count,
//! the final centers, the race count and a digest of the whole span
//! timeline. A host-side change to the runtime (allocation, copies,
//! kernel bodies) must leave all three where they are; the modelled
//! machine is the paper's result. Beside them sit two host-side
//! receipts: how many device allocations made a fresh backing store
//! rather than recycling a spare, and the host copy counters — bytes
//! moved each way, bytes snapshotted, and how many copies the whole
//! team shared.
//!
//! The tier-1 test covers every cell at a small size; the `#[ignore]`d
//! one covers the paper's seven Table I/II cells
//! (`cargo test --release --test somier_pinned -- --ignored`, about a
//! minute).

use target_spread::rt::{HostCounters, Runtime};
use target_spread::somier::{run_somier, SomierConfig, SomierImpl};
use target_spread::trace::SpanKind;

use SomierImpl::{DoubleBuffering, OneBufferSpread, OneBufferTarget, TwoBuffers};

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

struct Pin {
    which: SomierImpl,
    gpus: usize,
    centers: [u64; 3],
    races: usize,
    timeline: u64,
    fresh_stores: u64,
    host: HostCounters,
}

const fn pin(
    which: SomierImpl,
    gpus: usize,
    centers: [u64; 3],
    races: usize,
    timeline: u64,
    fresh_stores: u64,
) -> Pin {
    Pin {
        which,
        gpus,
        centers,
        races,
        timeline,
        fresh_stores,
        host: HostCounters {
            h2d_bytes: 0,
            d2h_bytes: 0,
            snapshot_bytes: 0,
            split_copies: 0,
        },
    }
}

impl Pin {
    /// The host copy counters: `[H2D bytes, D2H bytes, snapshot bytes,
    /// copies the team shared]`.
    const fn copies(self, [h2d_bytes, d2h_bytes, snapshot_bytes, split_copies]: [u64; 4]) -> Pin {
        Pin {
            host: HostCounters {
                h2d_bytes,
                d2h_bytes,
                snapshot_bytes,
                split_copies,
            },
            ..self
        }
    }
}

fn check(cfg: &SomierConfig, pins: &[Pin]) {
    for p in pins {
        let cell = format!("{:?} on {} GPU(s)", p.which, p.gpus);
        let (report, rt) =
            run_somier(cfg, p.which, p.gpus).unwrap_or_else(|e| panic!("{cell}: {e}"));
        assert_eq!(
            report.centers.map(f64::to_bits),
            p.centers,
            "{cell}: centers"
        );
        assert_eq!(report.races, p.races, "{cell}: races");
        let digest = timeline_digest(&rt);
        assert_eq!(
            digest, p.timeline,
            "{cell}: span timeline moved (digest {digest:016x})"
        );
        assert_eq!(
            rt.store_counts().fresh,
            p.fresh_stores,
            "{cell}: fresh backing stores"
        );
        // The counters tally copies as the team makes them; the trace
        // sums the transfer spans. Two independent counts, one figure.
        let (mut h2d, mut d2h) = (0, 0);
        for s in rt.timeline().spans() {
            match s.kind {
                SpanKind::TransferIn => h2d += s.bytes,
                SpanKind::TransferOut => d2h += s.bytes,
                _ => {}
            }
        }
        let host = rt.host_counters();
        assert_eq!(
            (host.h2d_bytes, host.d2h_bytes),
            (h2d, d2h),
            "{cell}: host copy bytes against the traced transfer bytes"
        );
        assert_eq!(host, p.host, "{cell}: host copy counters");
    }
}

#[test]
fn every_small_cell_is_pinned() {
    // The smallest side at which the pipelined halves of two devices
    // still leave the §V-B gap; two steps recycle every buffer.
    let cfg = SomierConfig::test_small(80, 2);
    let c = [
        4630755949080487594,
        4630755948256693493,
        4630755949252298687,
    ];
    let c2 = [
        4630755949080487592,
        4630755948256693493,
        4630755949252298687,
    ];
    let c4 = [
        4630755949080487591,
        4630755948256693493,
        4630755949252298687,
    ];
    let halves = [
        4630755949080487591,
        4630755948256693492,
        4630755949252298687,
    ];
    // The same bytes move at every device count; at team_threads = 2
    // the copies of at least COPY_SPLIT_MIN elements are shared, and the
    // halves' pieces are all smaller.
    let ob_copies = |shared| [105062400, 98307840, 0, shared];
    let halves_copies = [122265600, 98307840, 0, 0];
    check(
        &cfg,
        &[
            pin(OneBufferTarget, 1, c, 0, 0xa012b51048bf408a, 22).copies(ob_copies(528)),
            pin(OneBufferSpread, 1, c, 0, 0xa012b51048bf408a, 22).copies(ob_copies(528)),
            pin(OneBufferSpread, 2, c2, 0, 0x7d2d4e0d9eb1f4ad, 37).copies(ob_copies(492)),
            pin(OneBufferSpread, 4, c4, 0, 0xcca34f16a95b0aa9, 67).copies(ob_copies(576)),
            pin(TwoBuffers, 2, halves, 76, 0xb7000a52a85505ad, 59).copies(halves_copies),
            pin(TwoBuffers, 4, halves, 34, 0xb85f54368416896d, 116).copies(halves_copies),
            pin(DoubleBuffering, 2, halves, 28, 0xf8dee570c0d22cc9, 136).copies(halves_copies),
            pin(DoubleBuffering, 4, halves, 14, 0x2283cf96e7b1460d, 217).copies(halves_copies),
        ],
    );
}

#[test]
#[ignore = "paper size: about a minute in release"]
fn every_paper_cell_is_pinned() {
    let mut cfg = SomierConfig::paper().with_trace(true);
    cfg.team_threads = 2;
    let ob2 = [
        4633570697562057021,
        4633570697808011191,
        4633570697215331257,
    ];
    let ob4 = [
        4633570697562056992,
        4633570697808011191,
        4633570697215331254,
    ];
    let halves = [
        4633570697562057470,
        4633570697808011189,
        4633570697215331254,
    ];
    // The 4-GPU One Buffer bytes are the benchmark's trace-derived
    // `rt.h2d_bytes` / `rt.d2h_bytes` for that cell.
    let ob_copies = [5378227200, 5142617280, 0, 8928];
    let halves_copies = [5978188800, 5142617280, 0, 29760];
    check(
        &cfg,
        &[
            pin(
                OneBufferSpread,
                1,
                [
                    4633570697562059123,
                    4633570697808011191,
                    4633570697215331255,
                ],
                0,
                0xc31d5ec9df4ec88e,
                22,
            )
            .copies([5356800000, 5142617280, 0, 8184]),
            pin(OneBufferSpread, 2, ob2, 0, 0xfe6917d127c1f373, 37).copies(ob_copies),
            pin(OneBufferSpread, 4, ob4, 0, 0xaa5fe48a5ff9cd40, 67).copies(ob_copies),
            pin(TwoBuffers, 2, halves, 1178, 0x80ad20bc8213ba34, 58).copies(halves_copies),
            pin(TwoBuffers, 4, halves, 558, 0xcceec0eff2502f25, 115).copies(halves_copies),
            pin(DoubleBuffering, 2, halves, 434, 0x0e1f7b267ad4e0f1, 222).copies(halves_copies),
            pin(DoubleBuffering, 4, halves, 217, 0xe474f74bd522b70b, 376).copies(halves_copies),
        ],
    );
}

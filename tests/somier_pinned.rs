//! Somier pinned bit for bit: for every implementation × device count,
//! the final centers, the race count and a digest of the whole span
//! timeline. A host-side change to the runtime (allocation, copies,
//! kernel bodies) must leave all three where they are; the modelled
//! machine is the paper's result.
//!
//! The tier-1 test covers every cell at a small size; the `#[ignore]`d
//! one covers the paper's seven Table I/II cells
//! (`cargo test --release --test somier_pinned -- --ignored`, about a
//! minute).

use target_spread::rt::Runtime;
use target_spread::somier::{run_somier, SomierConfig, SomierImpl};

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
}

const fn pin(
    which: SomierImpl,
    gpus: usize,
    centers: [u64; 3],
    races: usize,
    timeline: u64,
) -> Pin {
    Pin {
        which,
        gpus,
        centers,
        races,
        timeline,
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
    check(
        &cfg,
        &[
            pin(OneBufferTarget, 1, c, 0, 0xa012b51048bf408a),
            pin(OneBufferSpread, 1, c, 0, 0xa012b51048bf408a),
            pin(OneBufferSpread, 2, c2, 0, 0x7d2d4e0d9eb1f4ad),
            pin(OneBufferSpread, 4, c4, 0, 0xcca34f16a95b0aa9),
            pin(TwoBuffers, 2, halves, 76, 0xb7000a52a85505ad),
            pin(TwoBuffers, 4, halves, 34, 0xb85f54368416896d),
            pin(DoubleBuffering, 2, halves, 28, 0xf8dee570c0d22cc9),
            pin(DoubleBuffering, 4, halves, 14, 0x2283cf96e7b1460d),
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
            ),
            pin(OneBufferSpread, 2, ob2, 0, 0xfe6917d127c1f373),
            pin(OneBufferSpread, 4, ob4, 0, 0xaa5fe48a5ff9cd40),
            pin(TwoBuffers, 2, halves, 1178, 0x80ad20bc8213ba34),
            pin(TwoBuffers, 4, halves, 558, 0xcceec0eff2502f25),
            pin(DoubleBuffering, 2, halves, 434, 0x0e1f7b267ad4e0f1),
            pin(DoubleBuffering, 4, halves, 217, 0xe474f74bd522b70b),
        ],
    );
}

//! Wall-clock micro-benchmarks of the Somier reproduction at a reduced
//! size — one group per paper table, measuring how fast the *library*
//! (simulator + runtime + kernels) executes each configuration. The
//! virtual-time results themselves are the `table1`/`table2` views
//! (`repro -- table1 table2`).

use spread_bench::micro::{bench, black_box};
use spread_somier::{run_somier, SomierConfig, SomierImpl};

fn cfg() -> SomierConfig {
    SomierConfig::test_small(32, 2).with_trace(false)
}

fn main() {
    bench("table1_one_buffer/target_1gpu", 1, 10, || {
        black_box(
            run_somier(&cfg(), SomierImpl::OneBufferTarget, 1)
                .unwrap()
                .0
                .elapsed,
        );
    });
    for gpus in [1usize, 2, 4] {
        bench(
            &format!("table1_one_buffer/spread_{gpus}gpu"),
            1,
            10,
            || {
                black_box(
                    run_somier(&cfg(), SomierImpl::OneBufferSpread, gpus)
                        .unwrap()
                        .0
                        .elapsed,
                );
            },
        );
    }

    // Two Buffers / Double Buffering need half-chunks of >= 2 planes.
    let cfg2 = SomierConfig::test_small(100, 1).with_trace(false);
    for (name, which) in [
        ("one_buffer", SomierImpl::OneBufferSpread),
        ("two_buffers", SomierImpl::TwoBuffers),
        ("double_buffering", SomierImpl::DoubleBuffering),
    ] {
        bench(&format!("table2_buffering/{name}"), 1, 10, || {
            black_box(run_somier(&cfg2, which, 2).unwrap().0.elapsed);
        });
    }
}

//! Micro-benchmarks of directive-layer overhead: what one blocking
//! construct costs the host (planning, task graph, presence tables,
//! engines, event loop) — the reproduction's version of the paper's
//! "negligible overhead" claim for the new directives (Table I, 1 GPU).
//!
//! Each case builds its runtime once (trace off, one team thread, so a
//! kernel costs no cross-thread wake-up) and times one construct per
//! sample on the warm runtime: a 1 024-element `tofrom` map and a
//! one-add-per-element kernel, small enough that the runtime, not the
//! payload, is what is measured.

use spread_bench::micro::{bench, black_box};
use spread_core::prelude::*;
use spread_devices::Topology;
use spread_rt::kernel::KernelArg;
use spread_rt::prelude::*;

const N: usize = 1 << 10;

fn kernel(a: HostArray) -> KernelSpec {
    KernelSpec::new("inc", 1.0, |chunk, v| {
        for i in chunk {
            let x = v.get(0, i);
            v.set(0, i, x + 1.0);
        }
    })
    .arg(KernelArg::read_write(a, |r| r))
}

/// Time `construct` on a warm `n_dev`-device runtime.
fn construct_cost(
    name: &str,
    n_dev: usize,
    construct: impl Fn(&mut Scope<'_>, HostArray) -> Result<(), RtError>,
) {
    let mut rt = Runtime::new(
        RuntimeConfig::new(Topology::ctepower(n_dev))
            .with_team_threads(1)
            .with_trace(false),
    );
    let a = rt.host_array("A", N);
    bench(&format!("construct_cost/{name}"), 50, 500, || {
        rt.run(|s| construct(s, a)).unwrap();
        black_box(rt.elapsed());
    });
}

fn spread(
    n_dev: usize,
    chunks: usize,
) -> impl Fn(&mut Scope<'_>, HostArray) -> Result<(), RtError> {
    move |s, a| {
        TargetSpread::devices(0..n_dev as u32)
            .with_schedule(SpreadSchedule::static_chunk(N / chunks))
            .map(spread_tofrom(a, |c| c.range()))
            .parallel_for(s, 0..N, kernel(a))
            .map(drop)
    }
}

fn main() {
    construct_cost("target_single_device", 1, |s, a| {
        Target::device(0)
            .map(tofrom(a, 0..N))
            .parallel_for(s, 0..N, kernel(a))
            .map(drop)
    });
    construct_cost("target_spread_1dev_1chunk", 1, spread(1, 1));
    construct_cost("target_spread_1dev_16chunks", 1, spread(1, 16));
    construct_cost("target_spread_4dev_16chunks", 4, spread(4, 16));
}

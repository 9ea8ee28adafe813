//! Micro-benchmarks of the team executor: broadcast overhead and
//! work-shared loop throughput per schedule.

use spread_bench::micro::{bench, black_box};
use spread_teams::{LoopSchedule, TeamPool};
use std::sync::atomic::{AtomicU64, Ordering};

fn main() {
    let pool = TeamPool::new(4);
    bench("broadcast_noop_4_threads", 100, 1000, || {
        pool.broadcast(&|_tid| {});
    });

    const N: usize = 1 << 20;
    let data: Vec<f64> = (0..N).map(|i| i as f64).collect();
    for (name, sched) in [
        ("static_blocked", LoopSchedule::StaticBlocked),
        ("guided", LoopSchedule::Guided { min_chunk: 1024 }),
    ] {
        bench(&format!("parallel_for_sum/{name}"), 3, 30, || {
            let acc = AtomicU64::new(0);
            pool.parallel_for(0..N, sched, |chunk, _| {
                let s: f64 = data[chunk].iter().sum();
                acc.fetch_add(s as u64, Ordering::Relaxed);
            });
            black_box(acc.into_inner());
        });
    }
}

//! Seeded property test: every schedule partitions the iteration space
//! exactly on a real pool (deterministic `spread_prng` loop;
//! offline-friendly).

use spread_prng::Prng;
use spread_teams::{LoopSchedule, TeamPool};
use std::sync::atomic::{AtomicU32, Ordering};

fn schedule(r: &mut Prng) -> LoopSchedule {
    match r.below(2) {
        0 => LoopSchedule::StaticBlocked,
        _ => LoopSchedule::Guided {
            min_chunk: r.range(1, 32),
        },
    }
}

/// Concurrent execution on a real pool touches every iteration exactly
/// once (guided members race for chunks).
#[test]
fn pool_parallel_for_covers_exactly_once() {
    let mut r = Prng::new(0x7ea_0002);
    for _ in 0..32 {
        let len = r.range(0, 3000);
        let n_threads = r.range(1, 6);
        let sched = schedule(&mut r);
        let ctx = format!("len={len} n_threads={n_threads} sched={sched:?}");

        let pool = TeamPool::new(n_threads);
        let seen: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(0)).collect();
        pool.parallel_for(0..len, sched, |chunk, _tid| {
            for i in chunk {
                seen[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1), "{ctx}");
    }
}

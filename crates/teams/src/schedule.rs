//! Loop iteration scheduling, mirroring OpenMP's `schedule` clause.
//!
//! A `ChunkDispenser` carves a `Range<usize>` into chunks according to a
//! [`LoopSchedule`] and hands them to threads. `static` scheduling gives
//! each thread one block fixed by its id; `guided` uses a single atomic
//! cursor (first-come, first-served), exactly like an OpenMP runtime.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How loop iterations are divided among the threads of a team.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LoopSchedule {
    /// `schedule(static)`: one contiguous block per thread (the default
    /// OpenMP static schedule with unspecified chunk).
    #[default]
    StaticBlocked,
    /// `schedule(guided, min_chunk)`: exponentially shrinking chunks
    /// (remaining / nthreads), never below `min_chunk`.
    Guided {
        /// Minimum chunk size in iterations (≥ 1).
        min_chunk: usize,
    },
}

/// Thread-safe chunk dispenser for one work-shared loop instance.
pub(crate) struct ChunkDispenser {
    /// First iteration of the loop.
    start: usize,
    /// Iteration count.
    n: usize,
    schedule: LoopSchedule,
    n_threads: usize,
    /// The guided cursor (offset from `start`).
    cursor: AtomicUsize,
}

impl ChunkDispenser {
    /// Create a dispenser for `range` shared by `n_threads` threads.
    pub(crate) fn new(range: Range<usize>, schedule: LoopSchedule, n_threads: usize) -> Self {
        assert!(n_threads > 0, "a team needs at least one thread");
        if let LoopSchedule::Guided { min_chunk } = schedule {
            assert!(min_chunk > 0, "min chunk size must be >= 1");
        }
        ChunkDispenser {
            start: range.start,
            n: range.len(),
            schedule,
            n_threads,
            cursor: AtomicUsize::new(0),
        }
    }

    /// The static block of thread `tid`: iterations `[t·n/T, (t+1)·n/T)`
    /// of the range, balanced to within one iteration; `None` if empty.
    fn block(&self, tid: usize) -> Option<Range<usize>> {
        let lo = self.start + tid * self.n / self.n_threads;
        let hi = self.start + (tid + 1) * self.n / self.n_threads;
        (lo < hi).then_some(lo..hi)
    }

    /// The next guided chunk, or `None` once the range is handed out.
    fn next_guided(&self, min_chunk: usize) -> Option<Range<usize>> {
        loop {
            let off = self.cursor.load(Ordering::Relaxed);
            if off >= self.n {
                return None;
            }
            let remaining = self.n - off;
            let chunk = (remaining / self.n_threads).max(min_chunk).min(remaining);
            if self
                .cursor
                .compare_exchange_weak(off, off + chunk, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                let start = self.start + off;
                return Some(start..start + chunk);
            }
        }
    }

    /// Run `body` for the block belonging to thread `tid` (static) or for
    /// every chunk it grabs (guided).
    pub(crate) fn drive(&self, tid: usize, mut body: impl FnMut(Range<usize>)) {
        match self.schedule {
            LoopSchedule::StaticBlocked => {
                if let Some(b) = self.block(tid) {
                    body(b);
                }
            }
            LoopSchedule::Guided { min_chunk } => {
                while let Some(c) = self.next_guided(min_chunk) {
                    body(c);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spread_prng::Prng;

    /// Drive every member of a `n_threads` team over `range` one after
    /// the other, and check that each iteration ran exactly once.
    fn coverage(range: Range<usize>, sched: LoopSchedule, n_threads: usize) {
        let disp = ChunkDispenser::new(range.clone(), sched, n_threads);
        let mut seen = vec![0u32; range.len()];
        for tid in 0..n_threads {
            disp.drive(tid, |chunk| {
                assert!(range.start <= chunk.start && chunk.end <= range.end);
                for i in chunk {
                    seen[i - range.start] += 1;
                }
            });
        }
        let ctx = format!("{range:?} over {n_threads} thread(s), {sched:?}");
        assert!(seen.iter().all(|&c| c == 1), "{ctx}");
    }

    fn guided_sizes(disp: &ChunkDispenser) -> Vec<usize> {
        let mut sizes = Vec::new();
        disp.drive(0, |c| sizes.push(c.len()));
        sizes
    }

    #[test]
    fn static_blocked_partitions() {
        coverage(10..23, LoopSchedule::StaticBlocked, 4);
        // Blocks are contiguous and ordered.
        let disp = ChunkDispenser::new(10..23, LoopSchedule::StaticBlocked, 4);
        assert_eq!(disp.block(0), Some(10..13));
        assert_eq!(disp.block(3), Some(19..23));
    }

    #[test]
    fn static_blocked_more_threads_than_iters() {
        coverage(0..3, LoopSchedule::StaticBlocked, 8);
        // Some threads get nothing.
        let disp = ChunkDispenser::new(0..3, LoopSchedule::StaticBlocked, 8);
        let empties = (0..8).filter(|&t| disp.block(t).is_none()).count();
        assert_eq!(empties, 5);
    }

    #[test]
    fn guided_chunks_shrink() {
        let disp = ChunkDispenser::new(0..1000, LoopSchedule::Guided { min_chunk: 4 }, 4);
        let sizes = guided_sizes(&disp);
        assert_eq!(sizes.iter().sum::<usize>(), 1000);
        // Non-increasing (single-threaded drain) and first is remaining/T.
        assert_eq!(sizes[0], 250);
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
        assert!(*sizes.last().unwrap() >= 1);
    }

    #[test]
    fn guided_respects_min_chunk() {
        let disp = ChunkDispenser::new(0..100, LoopSchedule::Guided { min_chunk: 16 }, 4);
        let sizes = guided_sizes(&disp);
        // All but the last chunk are >= min_chunk.
        for &s in &sizes[..sizes.len() - 1] {
            assert!(s >= 16);
        }
        assert_eq!(sizes.iter().sum::<usize>(), 100);
    }

    #[test]
    fn empty_range() {
        for sched in [
            LoopSchedule::StaticBlocked,
            LoopSchedule::Guided { min_chunk: 3 },
        ] {
            let disp = ChunkDispenser::new(7..7, sched, 4);
            let mut called = false;
            for tid in 0..4 {
                disp.drive(tid, |_| called = true);
            }
            assert!(!called);
        }
    }

    /// Every iteration runs exactly once, for both schedules, over
    /// seeded ranges and team sizes.
    #[test]
    fn dispenser_partitions_range() {
        let mut r = Prng::new(0x7ea_0001);
        for _ in 0..64 {
            let start = r.range(0, 1000);
            let len = r.range(0, 2000);
            let n_threads = r.range(1, 9);
            let sched = match r.below(2) {
                0 => LoopSchedule::StaticBlocked,
                _ => LoopSchedule::Guided {
                    min_chunk: r.range(1, 32),
                },
            };
            coverage(start..start + len, sched, n_threads);
        }
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn zero_chunk_rejected() {
        ChunkDispenser::new(0..10, LoopSchedule::Guided { min_chunk: 0 }, 2);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        ChunkDispenser::new(0..10, LoopSchedule::StaticBlocked, 0);
    }
}

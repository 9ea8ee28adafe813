//! Loop iteration scheduling, mirroring OpenMP's `schedule` clause.
//!
//! A [`ChunkDispenser`] carves a `Range<usize>` into chunks according to a
//! [`LoopSchedule`] and hands them to threads. `static` scheduling is
//! deterministic per thread id; `dynamic` and `guided` use a single atomic
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
    /// `schedule(static, chunk)`: chunks assigned round-robin by thread id.
    StaticChunked {
        /// Chunk size in iterations (≥ 1).
        chunk: usize,
    },
    /// `schedule(dynamic, chunk)`: threads grab the next chunk on demand.
    Dynamic {
        /// Chunk size in iterations (≥ 1).
        chunk: usize,
    },
    /// `schedule(guided, min_chunk)`: exponentially shrinking chunks
    /// (remaining / nthreads), never below `min_chunk`.
    Guided {
        /// Minimum chunk size in iterations (≥ 1).
        min_chunk: usize,
    },
}

/// Thread-safe chunk dispenser for one work-shared loop instance.
pub struct ChunkDispenser {
    range: Range<usize>,
    schedule: LoopSchedule,
    n_threads: usize,
    /// Cursor for dynamic/guided (offset from range.start).
    cursor: AtomicUsize,
}

impl ChunkDispenser {
    /// Create a dispenser for `range` shared by `n_threads` threads.
    pub fn new(range: Range<usize>, schedule: LoopSchedule, n_threads: usize) -> Self {
        assert!(n_threads > 0, "a team needs at least one thread");
        match schedule {
            LoopSchedule::StaticChunked { chunk } | LoopSchedule::Dynamic { chunk } => {
                assert!(chunk > 0, "chunk size must be >= 1")
            }
            LoopSchedule::Guided { min_chunk } => {
                assert!(min_chunk > 0, "min chunk size must be >= 1")
            }
            LoopSchedule::StaticBlocked => {}
        }
        ChunkDispenser {
            range,
            schedule,
            n_threads,
            cursor: AtomicUsize::new(0),
        }
    }

    /// Total iterations.
    pub fn len(&self) -> usize {
        self.range.end.saturating_sub(self.range.start)
    }

    /// True if the range is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Next chunk for thread `tid`, or `None` when the thread is done.
    ///
    /// For static schedules the result depends only on `(tid, call
    /// number)`; the `cursor` is unused. For dynamic/guided the atomic
    /// cursor serializes hand-out.
    ///
    /// Static scheduling state is tracked per call via the returned
    /// chunks of [`ChunkDispenser::static_chunks`]; `next_dynamic`
    /// is exposed for the shared-cursor schedules.
    pub fn next_dynamic(&self) -> Option<Range<usize>> {
        let n = self.len();
        match self.schedule {
            LoopSchedule::Dynamic { chunk } => {
                let off = self.cursor.fetch_add(chunk, Ordering::Relaxed);
                if off >= n {
                    return None;
                }
                let start = self.range.start + off;
                let end = (start + chunk).min(self.range.end);
                Some(start..end)
            }
            LoopSchedule::Guided { min_chunk } => loop {
                let off = self.cursor.load(Ordering::Relaxed);
                if off >= n {
                    return None;
                }
                let remaining = n - off;
                let chunk = (remaining / self.n_threads).max(min_chunk).min(remaining);
                if self
                    .cursor
                    .compare_exchange_weak(off, off + chunk, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    let start = self.range.start + off;
                    return Some(start..start + chunk);
                }
            },
            _ => panic!("next_dynamic called on a static schedule"),
        }
    }

    /// The chunks statically assigned to thread `tid`, in order.
    // A Vec<Range> is the uniform return shape for both static variants
    // (blocked = 1 chunk, chunked = many).
    #[allow(clippy::single_range_in_vec_init)]
    pub fn static_chunks(&self, tid: usize) -> Vec<Range<usize>> {
        let n = self.len();
        match self.schedule {
            LoopSchedule::StaticBlocked => {
                // Blocked: thread t gets iterations [t*n/T, (t+1)*n/T) —
                // balanced to within one iteration.
                let lo = self.range.start + tid * n / self.n_threads;
                let hi = self.range.start + (tid + 1) * n / self.n_threads;
                if hi > lo {
                    vec![lo..hi]
                } else {
                    vec![]
                }
            }
            LoopSchedule::StaticChunked { chunk } => {
                let mut out = Vec::new();
                let mut c = tid * chunk;
                while c < n {
                    let start = self.range.start + c;
                    let end = (start + chunk).min(self.range.end);
                    out.push(start..end);
                    c += self.n_threads * chunk;
                }
                out
            }
            _ => panic!("static_chunks called on a dynamic schedule"),
        }
    }

    /// Run `body` for every chunk belonging to thread `tid` (static) or
    /// grabbed by it (dynamic/guided).
    pub fn drive(&self, tid: usize, mut body: impl FnMut(Range<usize>)) {
        match self.schedule {
            LoopSchedule::StaticBlocked | LoopSchedule::StaticChunked { .. } => {
                for c in self.static_chunks(tid) {
                    body(c);
                }
            }
            LoopSchedule::Dynamic { .. } | LoopSchedule::Guided { .. } => {
                while let Some(c) = self.next_dynamic() {
                    body(c);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coverage(disp: &ChunkDispenser, n_threads: usize, len: usize, base: usize) {
        let mut seen = vec![0u32; len];
        for tid in 0..n_threads {
            disp.drive(tid, |r| {
                for i in r {
                    seen[i - base] += 1;
                }
            });
        }
        assert!(seen.iter().all(|&c| c == 1), "coverage: {seen:?}");
    }

    #[test]
    fn static_blocked_partitions() {
        let disp = ChunkDispenser::new(10..23, LoopSchedule::StaticBlocked, 4);
        coverage(&disp, 4, 13, 10);
        // Blocks are contiguous and ordered.
        let c0 = disp.static_chunks(0);
        let c3 = disp.static_chunks(3);
        assert_eq!(c0.len(), 1);
        assert_eq!(c0[0].start, 10);
        assert_eq!(c3[0].end, 23);
    }

    #[test]
    fn static_blocked_more_threads_than_iters() {
        let disp = ChunkDispenser::new(0..3, LoopSchedule::StaticBlocked, 8);
        coverage(&disp, 8, 3, 0);
        // Some threads get nothing.
        let empties = (0..8).filter(|&t| disp.static_chunks(t).is_empty()).count();
        assert_eq!(empties, 5);
    }

    #[test]
    fn static_chunked_round_robin() {
        let disp = ChunkDispenser::new(0..14, LoopSchedule::StaticChunked { chunk: 4 }, 3);
        // Mirrors the paper's §III-B.1 example (N=14, chunk 4, 3 devices):
        // chunks [0..4), [4..8), [8..12), [12..14) go to threads 0,1,2,0.
        assert_eq!(disp.static_chunks(0), vec![0..4, 12..14]);
        assert_eq!(disp.static_chunks(1), vec![4..8]);
        assert_eq!(disp.static_chunks(2), vec![8..12]);
        coverage(&disp, 3, 14, 0);
    }

    #[test]
    fn dynamic_covers_exactly_once() {
        let disp = ChunkDispenser::new(5..105, LoopSchedule::Dynamic { chunk: 7 }, 4);
        coverage(&disp, 4, 100, 5);
    }

    #[test]
    fn guided_chunks_shrink() {
        let disp = ChunkDispenser::new(0..1000, LoopSchedule::Guided { min_chunk: 4 }, 4);
        let mut sizes = Vec::new();
        while let Some(c) = disp.next_dynamic() {
            sizes.push(c.len());
        }
        assert_eq!(sizes.iter().sum::<usize>(), 1000);
        // Non-increasing (single-threaded drain) and first is remaining/T.
        assert_eq!(sizes[0], 250);
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
        assert!(*sizes.last().unwrap() >= 1);
    }

    #[test]
    fn guided_respects_min_chunk() {
        let disp = ChunkDispenser::new(0..100, LoopSchedule::Guided { min_chunk: 16 }, 4);
        let mut sizes = Vec::new();
        while let Some(c) = disp.next_dynamic() {
            sizes.push(c.len());
        }
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
            LoopSchedule::StaticChunked { chunk: 3 },
            LoopSchedule::Dynamic { chunk: 3 },
            LoopSchedule::Guided { min_chunk: 3 },
        ] {
            let disp = ChunkDispenser::new(7..7, sched, 4);
            assert!(disp.is_empty());
            let mut called = false;
            for tid in 0..4 {
                disp.drive(tid, |_| called = true);
            }
            assert!(!called);
        }
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn zero_chunk_rejected() {
        ChunkDispenser::new(0..10, LoopSchedule::Dynamic { chunk: 0 }, 2);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        ChunkDispenser::new(0..10, LoopSchedule::StaticBlocked, 0);
    }
}

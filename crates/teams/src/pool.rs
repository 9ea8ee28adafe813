//! The persistent worker-thread team.
//!
//! A [`TeamPool`] of size `T` owns `T - 1` parked worker threads; the
//! calling thread participates as team member 0, exactly like the OpenMP
//! encountering thread in a `parallel` region. [`TeamPool::broadcast`]
//! runs one closure on every member and returns when all are done.
//!
//! The broadcast payload is a borrowed closure (`&F`), erased to a raw
//! pointer for the workers — the pool guarantees the closure outlives the
//! round because `broadcast` does not return until every worker has
//! finished (a panicking worker is counted as finished and the panic is
//! re-raised on the leader after the round). A [`TeamPool::parallel_for`]
//! on a guided schedule waits only for the workers that joined it before
//! the leader ran out of chunks: the others skip the round.
//!
//! [`TeamPool::copy`] is the team's bulk byte move: a copy of at least
//! [`COPY_SPLIT_MIN`] elements is one guided [`TeamPool::parallel_for`],
//! anything smaller stays on the caller.

use std::mem::MaybeUninit;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::schedule::{ChunkDispenser, LoopSchedule};
use crate::split::SliceCells;

/// The smallest copy, in elements, that [`TeamPool::copy`] shares over
/// the team (32 Ki `f64`s, 256 KiB). Below it, waking the team costs
/// about as much as the second member saves. On a 2-vCPU Xeon VM, one
/// copy out of a 256 MiB working set split over two members took 12 µs
/// against 3.5 µs on the caller at 2 Ki elements, lost ×0.8–0.9 at 16 Ki,
/// won ×1.1–1.2 from 20 Ki and ×1.2–1.3 at 32 Ki.
pub const COPY_SPLIT_MIN: usize = 32 * 1024;

/// The guided schedule's smallest chunk for a shared copy (64 KiB): the
/// tail of a copy is not cut into hand-outs smaller than this.
const COPY_MIN_CHUNK: usize = 8 * 1024;

/// Type-erased borrowed job: pointer + monomorphized trampoline.
#[derive(Clone, Copy)]
struct RawJob {
    data: *const (),
    call: unsafe fn(*const (), usize),
}

// SAFETY: the pointee is a `&F where F: Sync` that the leader keeps alive
// for the whole round; sending the pointer to workers is exactly the
// `&F: Send` obtained from `F: Sync`.
unsafe impl Send for RawJob {}

unsafe fn trampoline<F: Fn(usize) + Sync>(data: *const (), tid: usize) {
    // SAFETY: `data` was created from `&F` in `broadcast` and is live.
    let f = unsafe { &*(data as *const F) };
    f(tid);
}

struct State {
    epoch: u64,
    /// The current round's job; `None` once the round is closed to
    /// members that have not joined it yet.
    job: Option<RawJob>,
    /// Workers that joined the current round.
    joined: usize,
    /// Workers that joined the current round and are still running it.
    running: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    start: Condvar,
    done: Condvar,
    panicked: AtomicBool,
}

/// A fixed-size team of threads with OpenMP-parallel-region semantics.
///
/// ```
/// use spread_teams::{LoopSchedule, TeamPool};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let pool = TeamPool::new(4);
/// let total = AtomicU64::new(0);
/// pool.parallel_for(0..1_000, LoopSchedule::Guided { min_chunk: 64 }, |chunk, _tid| {
///     total.fetch_add(chunk.map(|i| i as u64).sum::<u64>(), Ordering::Relaxed);
/// });
/// assert_eq!(total.into_inner(), 499_500);
/// ```
pub struct TeamPool {
    shared: Arc<Shared>,
    n_threads: usize,
    handles: Vec<JoinHandle<()>>,
}

impl TeamPool {
    /// A team of `n_threads` members (the caller counts as member 0, so
    /// `n_threads - 1` OS threads are spawned). `n_threads` ≥ 1.
    pub fn new(n_threads: usize) -> Self {
        assert!(n_threads >= 1, "a team needs at least one member");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                joined: 0,
                running: 0,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        });
        let handles = (1..n_threads)
            .map(|tid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("team-worker-{tid}"))
                    .spawn(move || worker_loop(shared, tid))
                    .expect("failed to spawn team worker")
            })
            .collect();
        TeamPool {
            shared,
            n_threads,
            handles,
        }
    }

    /// Team size (including the calling thread).
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Run `f(tid)` on every team member (tids `0..n_threads`); member 0
    /// is the calling thread. Returns when all members finish. If any
    /// member panicked, the panic is re-raised here. A team of one runs
    /// `f(0)` inline, taking no lock.
    pub fn broadcast<F: Fn(usize) + Sync>(&self, f: &F) {
        self.round(f, true);
    }

    /// One round of `f` on the team. With `everyone`, every member runs
    /// `f` once. Without it, the round closes when the leader returns
    /// from `f(0)`: a worker that has not joined by then skips it, so a
    /// descheduled worker never holds the leader up. That is only right
    /// for work the members take from a shared queue, which the leader
    /// has emptied when `f(0)` returns.
    fn round<F: Fn(usize) + Sync>(&self, f: &F, everyone: bool) {
        if self.n_threads == 1 {
            f(0);
            return;
        }
        let raw = RawJob {
            data: f as *const F as *const (),
            call: trampoline::<F>,
        };
        {
            let mut st = self.shared.state.lock().unwrap();
            debug_assert_eq!(st.running, 0, "overlapping broadcast rounds");
            st.job = Some(raw);
            st.epoch += 1;
            st.joined = 0;
            self.shared.start.notify_all();
        }
        // Leader participates as tid 0 (catching panics so workers can
        // still be drained before re-raising).
        let leader_result = std::panic::catch_unwind(AssertUnwindSafe(|| f(0)));
        {
            let mut st = self.shared.state.lock().unwrap();
            if !everyone {
                st.job = None;
            }
            // A worker that joined holds a pointer to `f`: wait for it.
            while st.running > 0 || (everyone && st.joined < self.n_threads - 1) {
                st = self.shared.done.wait(st).unwrap();
            }
            st.job = None;
        }
        if let Err(payload) = leader_result {
            std::panic::resume_unwind(payload);
        }
        if self.shared.panicked.swap(false, Ordering::Relaxed) {
            panic!("a team worker panicked during broadcast");
        }
    }

    /// Work-share `range` over the team with the given schedule; `body`
    /// receives each chunk plus the executing member's id.
    pub fn parallel_for<F>(&self, range: std::ops::Range<usize>, schedule: LoopSchedule, body: F)
    where
        F: Fn(std::ops::Range<usize>, usize) + Sync,
    {
        let disp = ChunkDispenser::new(range, schedule, self.n_threads);
        // A static block belongs to a member; guided chunks go to whichever
        // member asks, so a member that comes late may skip.
        let everyone = schedule == LoopSchedule::StaticBlocked;
        self.round(
            &|tid| {
                disp.drive(tid, |chunk| body(chunk, tid));
            },
            everyone,
        );
    }

    /// Whether [`TeamPool::copy`] shares a copy of `len` elements over
    /// the team rather than running it on the caller.
    pub fn splits(&self, len: usize) -> bool {
        self.n_threads > 1 && len >= COPY_SPLIT_MIN
    }

    /// `dst.copy_from_slice(src)`, on the whole team when
    /// [`TeamPool::splits`] says so: a guided loop over the elements, so
    /// a member that is descheduled leaves its share to the others.
    pub fn copy(&self, dst: &mut [f64], src: &[f64]) {
        self.copy_elems(dst, src);
    }

    /// `src.to_vec()`, copied as [`TeamPool::copy`] copies.
    pub fn to_vec(&self, src: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(src.len());
        // SAFETY: `MaybeUninit<f64>` has the layout of `f64`, and viewing
        // initialised elements as maybe-uninitialised ones is always sound.
        let src_u = unsafe { &*(src as *const [f64] as *const [MaybeUninit<f64>]) };
        self.copy_elems(&mut out.spare_capacity_mut()[..src.len()], src_u);
        // SAFETY: the copy initialised the first `src.len()` elements.
        unsafe { out.set_len(src.len()) };
        out
    }

    fn copy_elems<T: Copy + Send + Sync>(&self, dst: &mut [T], src: &[T]) {
        assert_eq!(
            dst.len(),
            src.len(),
            "copy between slices of unequal length"
        );
        if !self.splits(src.len()) {
            dst.copy_from_slice(src);
            return;
        }
        let cells = SliceCells::new(dst);
        let schedule = LoopSchedule::Guided {
            min_chunk: COPY_MIN_CHUNK,
        };
        self.parallel_for(0..src.len(), schedule, |chunk, _tid| {
            // SAFETY: the dispenser's chunks are disjoint.
            unsafe { cells.slice_mut(chunk.clone()) }.copy_from_slice(&src[chunk]);
        });
    }
}

impl Drop for TeamPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.start.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, tid: usize) {
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != last_epoch {
                    if let Some(job) = st.job {
                        last_epoch = st.epoch;
                        st.joined += 1;
                        st.running += 1;
                        break job;
                    }
                }
                st = shared.start.wait(st).unwrap();
            }
        };
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: the leader keeps the closure alive until `running`
            // reaches 0; this worker joined the round under the lock, so
            // that only happens after this call returns.
            unsafe { (job.call)(job.data, tid) }
        }));
        if result.is_err() {
            shared.panicked.store(true, Ordering::Relaxed);
        }
        let mut st = shared.state.lock().unwrap();
        st.running -= 1;
        if st.running == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn broadcast_runs_every_member_once() {
        let pool = TeamPool::new(4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.broadcast(&|tid| {
            hits[tid].fetch_add(1, Ordering::Relaxed);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn broadcast_rounds_are_serialized() {
        let pool = TeamPool::new(3);
        let counter = AtomicUsize::new(0);
        for round in 0..50 {
            pool.broadcast(&|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(counter.load(Ordering::Relaxed), (round + 1) * 3);
        }
    }

    #[test]
    fn single_member_team() {
        let pool = TeamPool::new(1);
        let mut hit = AtomicUsize::new(0);
        pool.broadcast(&|tid| {
            assert_eq!(tid, 0);
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(*hit.get_mut(), 1);
    }

    #[test]
    fn parallel_for_writes_disjoint_output() {
        let pool = TeamPool::new(4);
        let mut out = vec![0usize; 1003];
        let cells = crate::split::SliceCells::new(&mut out);
        pool.parallel_for(
            0..1003,
            LoopSchedule::Guided { min_chunk: 17 },
            |chunk, _tid| {
                // SAFETY: dispenser chunks are disjoint.
                let part = unsafe { cells.slice_mut(chunk.clone()) };
                for (k, v) in part.iter_mut().enumerate() {
                    *v = chunk.start + k + 1;
                }
            },
        );
        assert!(out.iter().enumerate().all(|(i, &v)| v == i + 1));
    }

    #[test]
    fn worker_panic_propagates_to_leader() {
        let pool = TeamPool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(&|tid| {
                if tid == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // Pool still usable afterwards.
        let c = AtomicUsize::new(0);
        pool.broadcast(&|_| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(c.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn leader_panic_propagates_and_pool_survives() {
        let pool = TeamPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(&|tid| {
                if tid == 0 {
                    panic!("leader boom");
                }
            });
        }));
        assert!(result.is_err());
        let c = AtomicUsize::new(0);
        pool.broadcast(&|_| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(c.load(Ordering::Relaxed), 2);
    }

    /// Rounds that close when the leader runs out of chunks interleave
    /// with rounds that wait for every member. A worker that wakes after
    /// a guided round closed skips it and still joins the next round; a
    /// static round's blocks all run, however late their members wake.
    #[test]
    fn late_workers_skip_only_shared_rounds() {
        let pool = TeamPool::new(4);
        for round in 0..300 {
            let hits = AtomicUsize::new(0);
            pool.parallel_for(0..1, LoopSchedule::Guided { min_chunk: 1 }, |c, _| {
                hits.fetch_add(c.len(), Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 1, "round {round}: guided");
            let mut out = [0u8; 8];
            let cells = crate::split::SliceCells::new(&mut out);
            pool.parallel_for(0..8, LoopSchedule::StaticBlocked, |c, _| {
                // SAFETY: static blocks are disjoint.
                unsafe { cells.slice_mut(c) }.fill(1);
            });
            assert_eq!(out, [1; 8], "round {round}: static");
            let seen: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            pool.broadcast(&|tid| {
                seen[tid].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                seen.iter().all(|s| s.load(Ordering::Relaxed) == 1),
                "round {round}: broadcast"
            );
        }
    }

    #[test]
    fn single_member_panic_reaches_the_caller() {
        let pool = TeamPool::new(1);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(&|_| panic!("inline boom"));
        }));
        assert!(result.is_err());
        let c = AtomicUsize::new(0);
        pool.broadcast(&|_| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(c.load(Ordering::Relaxed), 1);
    }

    /// Every element copied, nothing written outside `dst`: the
    /// destination sits between two sentinels and is compared by bits.
    #[test]
    fn copy_is_exact_at_every_length_and_team_size() {
        const SENTINEL: f64 = -7.25;
        let lens = [
            0,
            1,
            COPY_SPLIT_MIN - 1,
            COPY_SPLIT_MIN,
            COPY_SPLIT_MIN + 1,
            3 * COPY_SPLIT_MIN + 7,
        ];
        for threads in 1..=4 {
            let pool = TeamPool::new(threads);
            for len in lens {
                let src: Vec<f64> = (0..len).map(|i| i as f64 * 0.5 + 1.0).collect();
                let mut dst = vec![SENTINEL; len + 2];
                pool.copy(&mut dst[1..len + 1], &src);
                let owned = pool.to_vec(&src);
                let cell = format!("{threads} member(s), {len} element(s)");
                assert_eq!(dst[0].to_bits(), SENTINEL.to_bits(), "{cell}: head");
                assert_eq!(dst[len + 1].to_bits(), SENTINEL.to_bits(), "{cell}: tail");
                for (i, s) in src.iter().enumerate() {
                    assert_eq!(dst[i + 1].to_bits(), s.to_bits(), "{cell}: copy [{i}]");
                    assert_eq!(owned[i].to_bits(), s.to_bits(), "{cell}: to_vec [{i}]");
                }
                assert_eq!(owned.len(), len, "{cell}: to_vec length");
                assert_eq!(pool.splits(len), threads > 1 && len >= COPY_SPLIT_MIN);
            }
        }
    }

    #[test]
    #[should_panic(expected = "unequal length")]
    fn copy_rejects_unequal_lengths() {
        TeamPool::new(2).copy(&mut [0.0; 3], &[1.0; 4]);
    }

    #[test]
    fn borrowed_state_visible_after_round() {
        // A broadcast can mutate borrowed local state through SliceCells
        // and the effects are visible after (the release/acquire pair is
        // the pool's own synchronization).
        let pool = TeamPool::new(4);
        let mut flags = vec![false; 4];
        let cells = crate::split::SliceCells::new(&mut flags);
        pool.broadcast(&|tid| {
            // SAFETY: each member writes only its own index.
            unsafe { cells.slice_mut(tid..tid + 1)[0] = true };
        });
        assert!(flags.iter().all(|&b| b));
    }
}

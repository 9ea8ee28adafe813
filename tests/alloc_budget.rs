//! Allocation budget of the untraced construct path.
//!
//! A counting `#[global_allocator]` counts the heap allocations (every
//! `alloc`, `alloc_zeroed` and `realloc`) made by the calling thread
//! while it runs a fixed `construct_storm`-shaped program: 200
//! synchronous keyed `target spread` constructs of 16 chunks each on the
//! 4-device CTE-POWER node, one team thread, trace off — 100 through the
//! fresh-map path and 100 present hits inside two `target data spread`
//! regions, each followed by a `target update spread from`. Everything
//! the runtime does here is deterministic (the simulator fixes the order
//! of every effect, and the one team thread is the caller), so the count
//! is exact and a per-chunk-task ceiling can guard it.
//!
//! Allocations per chunk task on this program (4 800 chunk tasks,
//! 4 864 copies, 1 632 of them D2H copies read at the commit drain),
//! over the whole program until the two paths were pinned apart:
//!
//! | build   | labels eager | B-tree index | hash grid |
//! |---------|-------------:|-------------:|----------:|
//! | release |         77.5 |         39.6 |      34.4 |
//! | debug   |         78.3 |         40.4 |      35.2 |
//!
//! and per path since (1 600 fresh-map chunk tasks, 3 200 present-hit
//! ones — a construct chunk and an update chunk each):
//!
//! | build   | path        | hash grid | phases as data | ceiling |
//! |---------|-------------|----------:|---------------:|--------:|
//! | release | fresh-map   |      52.2 |           21.3 |    21.5 |
//! | release | present-hit |      25.5 |            8.9 |     9.1 |
//! | debug   | fresh-map   |      53.4 |           22.5 |    22.7 |
//! | debug   | present-hit |      26.1 |            9.5 |     9.7 |
//!
//! "Labels eager" is the runtime whose flow solver allocated six `Vec`s
//! per flow start or finish, which formatted every task, copy and kernel
//! label whether or not anything read it, kept four `Rc`s and a boxed
//! finaliser per transfer set, and deep-copied the kernel spec and map
//! list per chunk (the benchmark's `construct_storm` read 90.7 per chunk
//! task there, 45.2 after). "B-tree index" kept the task graph's
//! dependence records and running footprints in one `BTreeMap` per
//! `(context, array)`, collected predecessors and race hits into fresh
//! vectors, and cloned the whole `DeviceHandle` (its spec's name
//! included) per transfer set and kernel launch; the task graph's hash
//! grid and reused scratch take it to 36.7 in release, cloning only the
//! engines a launch uses to 34.4. "Phases as data" carries a directive
//! phase's action as an enum instead of a boxed closure, fills task
//! specs, successor lists, plans, transfer sets and kernel bindings from
//! reused vectors, shares a chunk's map list between its enter and exit
//! phases, and queues engines at the default-stream gate as typed
//! waiters: what is left per chunk task is the closures the engine and
//! event-queue APIs take (DESIGN.md, "What the untraced path
//! allocates").
//!
//! Each of these fails a fresh-map ceiling in both profiles (release
//! figures): one `format!` of the copy label per copy (+6.0 per chunk
//! task), one `to_vec()` of the payload per H2D copy (+1.0), one
//! `to_vec()` per D2H copy read at the drain (+1.0), one boxed kernel
//! phase (+1.0).
//!
//! Run on its own with `cargo test --release --test alloc_budget`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use target_spread::core::prelude::*;
use target_spread::devices::Topology;
use target_spread::rt::kernel::KernelArg;
use target_spread::rt::prelude::*;

/// The system allocator, counting the calling thread's allocations while
/// its `COUNTING` flag is set.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also serves thread teardown, after the
    // thread-locals are gone.
    let on = COUNTING.try_with(Cell::get).unwrap_or(false);
    if on {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let r = f();
    COUNTING.with(|c| c.set(false));
    (r, ALLOCS.with(Cell::get))
}

const DEVICES: [u32; 4] = [0, 1, 2, 3];
const N: usize = 256;
const CHUNK: usize = 16;
const CHUNKS: u64 = (N / CHUNK) as u64;
/// Constructs per path, and per data region on the present path.
const FRESH: usize = 100;
const REGION: usize = 50;

/// Per chunk task, in this build profile: the fresh-map path, then the
/// present-hit path.
const CEILING_FRESH: f64 = if cfg!(debug_assertions) { 22.7 } else { 21.5 };
const CEILING_PRESENT: f64 = if cfg!(debug_assertions) { 9.7 } else { 9.1 };

fn bump(a: HostArray) -> KernelSpec {
    KernelSpec::new("bump", 1.0, |chunk, v| {
        for i in chunk {
            v.set(0, i, v.get(0, i) + 1.0);
        }
    })
    .arg(KernelArg::read_write(a, |r| r))
}

fn spread(a: HostArray, key: &str) -> TargetSpread {
    TargetSpread::devices(DEVICES)
        .with_schedule(SpreadSchedule::static_chunk(CHUNK))
        .with_plan_cache(key)
        .map(spread_tofrom(a, |c| c.range()))
}

/// The fresh-map half of the program: constructs that map, copy and
/// unmap every chunk. Returns the chunk tasks it issued.
fn fresh(s: &mut Scope<'_>, a: HostArray) -> Result<u64, RtError> {
    let mut chunk_tasks = 0;
    for _ in 0..FRESH {
        chunk_tasks += spread(a, "budget:fresh")
            .parallel_for(s, 0..N, bump(a))?
            .len() as u64;
    }
    Ok(chunk_tasks)
}

/// The present-hit half: constructs inside data regions, each followed
/// by a `target update spread from`. Returns the chunk tasks it issued.
fn present(s: &mut Scope<'_>, a: HostArray) -> Result<u64, RtError> {
    let mut chunk_tasks = 0;
    for _ in 0..FRESH / REGION {
        TargetDataSpread::devices(DEVICES)
            .range(0, N)
            .chunk_size(CHUNK)
            .map(spread_tofrom(a, |c| c.range()))
            .region(s, |s| {
                for _ in 0..REGION {
                    let ids = spread(a, "budget:present").parallel_for(s, 0..N, bump(a))?;
                    let upd = TargetUpdateSpread::devices(DEVICES)
                        .range(0, N)
                        .chunk_size(CHUNK)
                        .from(a, |c| c.range())
                        .launch(s)?;
                    chunk_tasks += (ids.len() + upd.len()) as u64;
                }
                Ok(())
            })?;
    }
    Ok(chunk_tasks)
}

/// Allocations per chunk task of `path`, checked against `ceiling`.
fn check(path: &str, (chunk_tasks, allocs): (u64, u64), expected_tasks: u64, ceiling: f64) {
    assert_eq!(chunk_tasks, expected_tasks);
    let per_task = allocs as f64 / chunk_tasks as f64;
    println!("{path}: {allocs} allocations, {per_task:.1} per chunk task");
    assert!(
        per_task <= ceiling,
        "{path}: {per_task:.1} allocations per chunk task exceed the ceiling of {ceiling} \
         ({allocs} over {chunk_tasks} chunk tasks)"
    );
}

#[test]
fn the_untraced_storm_stays_within_its_allocation_budget() {
    let mut rt = Runtime::new(
        RuntimeConfig::new(Topology::ctepower(4))
            .with_team_threads(1)
            .with_trace(false),
    );
    let a = rt.host_array("S0", N);
    let (fresh, present) = rt
        .run(|s| {
            let (f, f_allocs) = allocations(|| fresh(s, a));
            let (p, p_allocs) = allocations(|| present(s, a));
            Ok(((f?, f_allocs), (p?, p_allocs)))
        })
        .unwrap();
    assert_eq!(rt.snapshot_host(a), vec![(2 * FRESH) as f64; N]);
    check("fresh-map", fresh, FRESH as u64 * CHUNKS, CEILING_FRESH);
    check(
        "present-hit",
        present,
        2 * FRESH as u64 * CHUNKS,
        CEILING_PRESENT,
    );
}

//! Implementation 1: *One Buffer at a time* (§V-A).
//!
//! The grid is split along the outermost dimension into buffers sized to
//! the devices' combined memory. Each time step processes buffers
//! sequentially: map in → five kernels → map out. The five kernels and
//! what each reads and writes are [`kernels::STEP`](crate::kernels::STEP);
//! every program here walks that table once per buffer and differs only
//! in who owns the device images while it does.
//!
//! Three programs:
//! * [`run_target_baseline`] — paper Listing 9: the existing `target`
//!   directive set, one GPU, blocking constructs over a held
//!   enter/exit-data mapping.
//! * [`run_spread`] — paper Listing 10: the `target spread` directive
//!   set. An enter/exit data-spread pair holds each buffer divided into
//!   per-device chunks (`chunk = buffer_size / num_devices`), transfers
//!   and kernels are `nowait` with chunk-level `depend` chains, and
//!   `taskgroup` barriers separate the mapping and compute phases. One
//!   range's processing is an *asynchronous* three-stage pipeline
//!   (map-in group → kernel group → map-out group, chained through group
//!   gates), so the Two Buffers and Double Buffering implementations can
//!   run several pipelines concurrently — the whole point of those
//!   variants.
//! * [`run_spread_scoped`] — the *construct-scoped* program every clause
//!   family is exercised on: no held mapping, one clause value stamped
//!   on all five constructs, optionally wrapped in an explicit halo
//!   exchange.
//!
//! ## Why construct-scoped maps
//!
//! Unlike [`run_spread`], which holds mappings across the five kernels,
//! every construct of [`run_spread_scoped`] maps its own inputs in and
//! its results out and blocks before the next stage; device→host writes
//! stay staged until the whole per-device piece finishes. That makes
//! each piece a self-contained unit, and each clause family acts on
//! exactly that unit:
//!
//! * **recovery** (`spread_resilience`) — when a device dies mid-run the
//!   runtime replays the piece, enter mappings included, on a survivor
//!   from the unharmed host image, so the recovered run is bit-identical
//!   to a fault-free one; under `FailStop` the same program reports the
//!   loss deterministically.
//! * **healing** (`spread_integrity`) — every staged commit is
//!   re-digested against its source CRC32C at the trust boundary; `heal`
//!   discards a tainted payload and re-executes the piece from the host
//!   image, `verify` reports the first corruption deterministically.
//! * **speculation** (`spread_straggler`) — a piece whose kernel blows
//!   the construct's relative progress deadline is re-executed on the
//!   least-loaded healthy sibling and whichever copy's writes land first
//!   commit; `steal` also cancels the straggler, recovering latency.
//! * **pipelining** (`spread_overlap`) — each piece is split into
//!   `depth` sub-slices whose copy-in, kernel and copy-out overlap;
//!   commit granularity is still the whole piece, so the other families
//!   compose unchanged.
//! * **degradation** (`spread_pressure`) — buffer planning assumes
//!   full-size devices; pieces that no longer fit
//!   ([`SomierConfig::with_mem_cap_frac`]) are re-homed, split or
//!   spilled through the host. Slower, never different.
//! * **adaptation** (`spread_schedule(auto)`) — each kernel's split is
//!   resolved from the profiles of earlier launches under its table name
//!   (the five kernels have different compute/transfer ratios, so they
//!   learn separate weights; needs [`SomierConfig::trace`]). Adapted
//!   splits move planes between devices, never values.
//!
//! All of them are value-invisible: kernels are per-element, halos are
//! recomputed per launch from each realized chunk, and the centers fold
//! stays element-sequential on the host, so centers are bit-exact
//! against [`run_reference`](crate::reference::run_reference).

use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

use spread_core::data_spread::evaluate_maps;
use spread_core::prelude::*;
use spread_core::SpreadMap;
use spread_rt::directives::{Target, TargetEnterData, TargetExitData};
use spread_rt::map::MapType;
use spread_rt::{RtError, Runtime, Scope, TaskId};
use spread_trace::SimDuration;

use crate::arrays::{Grid, SomierArrays};
use crate::config::SomierConfig;
use crate::kernels::{Extent, StepKernel, STEP};
use crate::report::SomierReport;
use crate::SomierImpl;

/// A continuation hook passed through the pipeline builder.
type Hook = Box<dyn FnOnce(&mut Scope<'_>)>;

/// Per-step centers accumulator, shared with asynchronous pipelines.
type Sums = Rc<RefCell<[f64; 3]>>;

/// `extent` around a chunk of planes, as a spread section expression.
fn section(
    cfg: &SomierConfig,
    extent: Extent,
) -> impl Fn(ChunkCtx) -> Range<usize> + Copy + Send + Sync + 'static {
    let n = cfg.n;
    move |c: ChunkCtx| extent.elems(n, c.range())
}

/// The `map` clauses of one kernel's construct — its three `reads`
/// components, then its three `writes` components — derived from the
/// kernel's table row. Over a *held* mapping (Listings 9 and 10: the
/// enclosing enter/exit data pair owns the grids) every grid maps `to`
/// and reuses the present image; construct-scoped, the written grid
/// comes home, `tofrom` when the kernel also reads it. The centers
/// partials are never held: always `from`.
fn kernel_maps(
    k: &StepKernel,
    cfg: &SomierConfig,
    arr: &SomierArrays,
    held: bool,
) -> ([SpreadMap; 3], [SpreadMap; 3]) {
    let (read, read_extent) = k.reads;
    let (written, write_extent) = k.writes;
    let out = match (write_extent, held, k.inout) {
        (Extent::Planes, ..) | (_, false, false) => MapType::From,
        (_, true, _) => MapType::To,
        (_, false, true) => MapType::ToFrom,
    };
    (
        arr.grid(read)
            .map(|h| SpreadMap::new(MapType::To, h, section(cfg, read_extent))),
        arr.grid(written)
            .map(|h| SpreadMap::new(out, h, section(cfg, write_extent))),
    )
}

/// The data maps that hold a buffer's 12 grids across its five kernels:
/// `to` on entry (X with halos for the stencil), `from` on exit.
fn held_maps(cfg: &SomierConfig, arr: &SomierArrays, map_type: MapType) -> Vec<SpreadMap> {
    let mut maps = Vec::with_capacity(12);
    for grid in [Grid::X, Grid::V, Grid::A, Grid::F] {
        let extent = if grid == Grid::X && map_type == MapType::To {
            Extent::Halo
        } else {
            Extent::Body
        };
        maps.extend(
            arr.grid(grid)
                .map(|h| SpreadMap::new(map_type, h, section(cfg, extent))),
        );
    }
    maps
}

/// The `[b0, b1)` plane ranges one time step processes in turn.
fn buffers(cfg: &SomierConfig, n_gpus: usize) -> impl Iterator<Item = (usize, usize)> {
    let (n, planes) = (cfg.n, cfg.buffer_planes(n_gpus));
    (0..n)
        .step_by(planes)
        .map(move |b0| (b0, (b0 + planes).min(n)))
}

/// Fold `planes` of the centers partials into `sums` element by
/// element: the reference's rounding order, which is what keeps the
/// comparison against it bit-exact.
fn fold_partials(s: &Scope<'_>, arr: &SomierArrays, planes: Range<usize>, sums: &Sums) {
    let mut sums = sums.borrow_mut();
    for c in 0..3 {
        s.with_host(arr.partials[c], |p| {
            for &v in &p[planes.clone()] {
                sums[c] += v;
            }
        });
    }
}

/// The time-step loop every Somier implementation shares: create the
/// arrays, run `step` once per time step with a fresh accumulator,
/// turn the accumulated sums into centers, and collect the report.
pub(crate) fn run_steps(
    rt: &mut Runtime,
    cfg: &SomierConfig,
    n_gpus: usize,
    label: &str,
    mut step: impl FnMut(&mut Scope<'_>, &SomierArrays, &Sums) -> Result<(), RtError>,
) -> Result<SomierReport, RtError> {
    if n_gpus == 0 {
        return Err(RtError::InvalidDirective(
            "Somier needs at least one device (n_gpus is 0)".into(),
        ));
    }
    let arr = SomierArrays::create(rt, cfg);
    let nodes = (cfg.n * cfg.plane_elems()) as f64;
    let mut centers = [0.0f64; 3];
    rt.run(|s| {
        for _step in 0..cfg.timesteps {
            let sums = Rc::new(RefCell::new([0.0f64; 3]));
            step(s, &arr, &sums)?;
            centers = sums.borrow().map(|sum| sum / nodes);
        }
        Ok(())
    })?;
    Ok(SomierReport::collect(label, n_gpus, rt, centers))
}

/// Paper Listing 9: baseline with `target` directives on device 0.
pub fn run_target_baseline(rt: &mut Runtime, cfg: &SomierConfig) -> Result<SomierReport, RtError> {
    let label = SomierImpl::OneBufferTarget.label();
    run_steps(rt, cfg, 1, label, |s, arr, sums| {
        for (b0, b1) in buffers(cfg, 1) {
            let buffer = ChunkCtx::new(b0, b1 - b0);
            // Map data from host to the device (all 12 grids).
            TargetEnterData::device(0)
                .maps(evaluate_maps(&held_maps(cfg, arr, MapType::To), buffer))
                .launch(s)?;
            // The five kernels, blocking, in order (Listing 9 uses no
            // nowait). Map clauses reuse the held mappings; the centers'
            // per-plane partials come home with a from-map.
            for k in &STEP {
                let (reads, writes) = kernel_maps(k, cfg, arr, true);
                Target::device(0)
                    .maps(evaluate_maps(&reads, buffer))
                    .maps(evaluate_maps(&writes, buffer))
                    .parallel_for(s, b0..b1, k.spec(cfg, arr))?;
            }
            // Map results back and release.
            TargetExitData::device(0)
                .maps(evaluate_maps(&held_maps(cfg, arr, MapType::From), buffer))
                .launch(s)?;
            fold_partials(s, arr, b0..b1, sums);
        }
        Ok(())
    })
}

/// Launch the five spread kernels (`nowait`, chunk-level `depend`
/// chains) over planes `[b0, b1)`.
fn launch_kernels(
    s: &mut Scope<'_>,
    cfg: &SomierConfig,
    arr: &SomierArrays,
    devices: &[u32],
    b0: usize,
    b1: usize,
    chunk: usize,
) -> Result<(), RtError> {
    for k in &STEP {
        // One plan-cache key per (kernel, buffer): every timestep
        // re-launches the same five constructs over the same plane
        // ranges, so from the second step on, admission planning,
        // chunking and section evaluation replay from the cache.
        let mut t = TargetSpread::devices(devices.to_vec())
            .with_schedule(SpreadSchedule::static_chunk(chunk))
            .with_plan_cache(format!("{}:{b0}", k.name))
            .nowait();
        let (reads, writes) = kernel_maps(k, cfg, arr, true);
        for m in reads {
            t = t.depend_in(m.array, section(cfg, k.reads.1)).map(m);
        }
        for m in writes {
            if k.inout {
                t = t.depend_in(m.array, section(cfg, k.writes.1));
            }
            t = t.depend_out(m.array, section(cfg, k.writes.1)).map(m);
        }
        t.parallel_for(s, b0..b1, k.spec(cfg, arr))?;
    }
    Ok(())
}

/// Build the asynchronous processing pipeline for planes `[b0, b1)`:
///
/// ```text
/// [enter-data-spread chunks]        — group 1 ("taskgroup { enter }")
///        ▼ gate                       (after_map_in hook fires here)
/// [5 spread kernels w/ depends]     — group 2 ("taskgroup { kernels }")
///        ▼ gate
/// [exit-data-spread chunks]         — group 3 ("taskgroup { exit }")
///        ▼ gate
/// [accumulate centers partials; on_done continuation]
/// ```
///
/// Returns the final stage's task id (drain it for blocking semantics).
#[allow(clippy::too_many_arguments)]
fn build_range_pipeline(
    s: &mut Scope<'_>,
    cfg: &SomierConfig,
    arr: &SomierArrays,
    devices: &[u32],
    b0: usize,
    b1: usize,
    chunk: usize,
    sums: Sums,
    after_map_in: Option<Hook>,
    on_done: Option<Hook>,
) -> Result<TaskId, RtError> {
    let len = b1 - b0;
    let devices: Rc<Vec<u32>> = Rc::new(devices.to_vec());

    let g_enter = s.group_create();
    let g_kernels = s.group_create();
    let g_exit = s.group_create();

    // Phase 1: map data from host to devices asynchronously.
    s.with_group(g_enter, |s| {
        TargetEnterDataSpread::devices(devices.iter().copied())
            .range(b0, len)
            .chunk_size(chunk)
            .nowait()
            .maps(held_maps(cfg, arr, MapType::To))
            .launch(s)
    })?;

    // Phase 2: kernels, gated on the map-in group.
    let stage2 = {
        let cfg = cfg.clone();
        let arr = *arr;
        let devices = Rc::clone(&devices);
        s.task_chained(
            format!("kernels[{b0}..{b1}]"),
            Vec::new(),
            Some(g_enter),
            move |s| {
                if let Some(hook) = after_map_in {
                    hook(s);
                }
                let r = s.with_group(g_kernels, |s| {
                    launch_kernels(s, &cfg, &arr, &devices, b0, b1, chunk)
                });
                if let Err(e) = r {
                    s.fail(e);
                }
            },
        )
    };

    // Phase 3: map results back, gated on the kernel group.
    let exit = TargetExitDataSpread::devices(devices.iter().copied())
        .range(b0, len)
        .chunk_size(chunk)
        .nowait()
        .maps(held_maps(cfg, arr, MapType::From));
    let stage3 = s.task_chained(
        format!("exit[{b0}..{b1}]"),
        vec![stage2],
        Some(g_kernels),
        move |s| {
            if let Err(e) = s.with_group(g_exit, |s| exit.launch(s)) {
                s.fail(e);
            }
        },
    );

    // Phase 4: fold this range's centers partials; run the continuation.
    let arr = *arr;
    let stage4 = s.task_chained(
        format!("accumulate[{b0}..{b1}]"),
        vec![stage3],
        Some(g_exit),
        move |s| {
            fold_partials(s, &arr, b0..b1, &sums);
            if let Some(f) = on_done {
                f(s);
            }
        },
    );
    Ok(stage4)
}

/// A chain of half-buffer pipelines — half `h`, then `h + stride`, … —
/// each launched from a hook of the one before it: what Two Buffers'
/// `taskloop` workers (Listing 11) and Double Buffering's recursive
/// routine (Listing 12) have in common.
pub(crate) struct HalfChain {
    pub cfg: SomierConfig,
    pub arr: SomierArrays,
    pub devices: Vec<u32>,
    /// Half-buffer size in planes.
    pub half: usize,
    /// Halves from one link of the chain to the next.
    pub stride: usize,
    /// Which hook carries the chain: `true` launches the next half
    /// between this half's map-in barrier and its kernels (Listing 12:
    /// "the routine calls itself inside an asynchronous task"), `false`
    /// when this half is done (Listing 11: the worker's next iteration).
    pub next_after_map_in: bool,
    pub sums: Sums,
}

impl HalfChain {
    /// Launch half `h`'s pipeline and hook the chain's next half to it.
    pub(crate) fn launch(self: Rc<Self>, s: &mut Scope<'_>, h: usize) {
        let b0 = h * self.half;
        if b0 >= self.cfg.n {
            return;
        }
        let b1 = (b0 + self.half).min(self.cfg.n);
        let chunk = (b1 - b0).div_ceil(self.devices.len());
        let chain = Rc::clone(&self);
        let next: Hook = Box::new(move |s| {
            let h = h + chain.stride;
            chain.launch(s, h)
        });
        let (after_map_in, on_done) = if self.next_after_map_in {
            (Some(next), None)
        } else {
            (None, Some(next))
        };
        let sums = Rc::clone(&self.sums);
        if let Err(e) = build_range_pipeline(
            s,
            &self.cfg,
            &self.arr,
            &self.devices,
            b0,
            b1,
            chunk,
            sums,
            after_map_in,
            on_done,
        ) {
            s.fail(e);
        }
    }
}

/// Paper Listing 10: One Buffer with `target spread` on `n_gpus`
/// devices.
pub fn run_spread(
    rt: &mut Runtime,
    cfg: &SomierConfig,
    n_gpus: usize,
) -> Result<SomierReport, RtError> {
    let devices: Vec<u32> = (0..n_gpus as u32).collect();
    let label = SomierImpl::OneBufferSpread.label();
    run_steps(rt, cfg, n_gpus, label, |s, arr, sums| {
        for (b0, b1) in buffers(cfg, n_gpus) {
            // "each device gets a chunk from a buffer" (Listing 10),
            // unless the config pins a finer granularity.
            let chunk = cfg
                .chunk_planes_override
                .map(|p| p.min(b1 - b0))
                .unwrap_or_else(|| (b1 - b0).div_ceil(n_gpus));
            let sums = Rc::clone(sums);
            let done =
                build_range_pipeline(s, cfg, arr, &devices, b0, b1, chunk, sums, None, None)?;
            // One buffer at a time: block before the next buffer.
            s.drain_task(done)?;
        }
        Ok(())
    })
}

/// The name `clauses` receives for the data directives of the halo
/// exchange (the five constructs get their [`STEP`] row names).
pub const EXCHANGE: &str = "somier-exchange";

/// One Buffer with self-contained per-construct maps: the program the
/// clause families run on (see the module docs for why).
///
/// Every buffer launches the five [`STEP`] constructs, blocking, each
/// mapping its own inputs in and results out. `clauses` decides what
/// they launch with: it receives the default clause value — a static
/// schedule of one chunk per device — and the construct's table name,
/// and returns the value to stamp on it. `|c, _| c` is the clause-free
/// baseline; `|c, _| c.with_resilience(p)` the fault-tolerant variant;
/// `|c, k| c.with_schedule(SpreadSchedule::auto(k))` the profile-guided
/// one (one profile key per kernel); combinations are one more method
/// call.
///
/// `exchange = Some(mode)` restructures each buffer around a `target
/// enter/exit data spread` pair holding the positions (halo extent)
/// on-device — the scoped program re-maps the halo'd positions from the
/// host every construct, so neighbour planes always ride the host bus —
/// and refreshes them with two `target update spread` directives:
///
/// 1. a `to(X[body])` refresh pinned to `exchange(host)` — the bytes
///    genuinely live only on the host (the previous buffer's images
///    were released), and it establishes the sibling byte-equality the
///    peer planner requires;
/// 2. a `to(X[left halo]) to(X[right halo])` refresh carrying `mode` —
///    under `auto`, every interior halo plane is valid bit-identical on
///    the neighbouring device's body, so it travels device-to-device;
///    under `host` the same planes round-trip through the host exactly
///    like the paper's runtime.
///
/// The five constructs then reuse the held mapping (no copy), and the
/// buffer exits with a `from(X[body])`. The data directives launch with
/// `clauses(default, EXCHANGE)`. Returns the report plus the accumulated
/// virtual time of refresh 2 — the phase the peer bench compares across
/// exchange modes; zero without an exchange. Both routes move the same
/// bytes, so results are bit-identical in every mode.
///
/// `spread_resilience(redistribute)` composes with the exchange: chunks
/// of a lost device are skipped by the data directives and rebuilt per
/// construct on the first live device, and a peer copy whose source
/// dies mid-flight is silently diverted to the host path. One placement
/// caveat: replacements land on the first surviving device of the list,
/// whose persistent halo extent must stay disjoint from the rebuilt
/// chunk's — with `chunk >= 2` planes that holds for any lost device
/// other than the survivor's immediate neighbour (the fault-injection
/// tests lose device 2 of 4). `exchange(peer)` refuses to compose with
/// redistribution (no fallback route is permitted) and requires every
/// non-empty halo to have a live peer source, which only holds when the
/// buffer covers the whole grid.
pub fn run_spread_scoped(
    rt: &mut Runtime,
    cfg: &SomierConfig,
    n_gpus: usize,
    exchange: Option<ExchangeMode>,
    clauses: impl Fn(ClauseSet, &'static str) -> ClauseSet,
) -> Result<(SomierReport, SimDuration), RtError> {
    let devices: Vec<u32> = (0..n_gpus as u32).collect();
    let (n, n2) = (cfg.n, cfg.plane_elems());
    let mut halo_time = SimDuration::ZERO;
    let report = run_steps(rt, cfg, n_gpus, "One Buffer (scoped)", |s, arr, sums| {
        for (b0, b1) in buffers(cfg, n_gpus) {
            let len = b1 - b0;
            let default = ClauseSet::default()
                .with_schedule(SpreadSchedule::static_chunk(len.div_ceil(n_gpus)));
            let held = exchange.map(|mode| (mode, clauses(default.clone(), EXCHANGE)));
            if let Some((mode, held)) = &held {
                // Hold the positions (halo extent) for the whole buffer.
                TargetEnterDataSpread::devices(devices.clone())
                    .range(b0, len)
                    .with_clauses(held.clone())
                    .maps(arr.x.map(|h| spread_alloc(h, section(cfg, Extent::Halo))))
                    .launch(s)?;
                let update = || {
                    TargetUpdateSpread::devices(devices.clone())
                        .range(b0, len)
                        .with_clauses(held.clone())
                };
                // Body refresh: host-only by construction (no sibling
                // holds these planes), and it (re)establishes the
                // byte-equality the peer planner checks.
                let mut up = update().exchange(ExchangeMode::Host);
                for h in arr.x {
                    up = up.to(h, section(cfg, Extent::Body));
                }
                up.launch(s)?;
                // Halo refresh, the timed exchange phase: one plane on
                // each side (empty at the grid boundary, where the
                // stencil needs no halo).
                let t0 = s.now();
                let mut up = update().exchange(*mode);
                for h in arr.x {
                    up = up
                        .to(h, move |c| c.start().saturating_sub(1) * n2..c.start() * n2)
                        .to(h, move |c| c.end() * n2..(c.end() + 1).min(n) * n2);
                }
                up.launch(s)?;
                halo_time += s.now() - t0;
            }
            for k in &STEP {
                let (reads, writes) = kernel_maps(k, cfg, arr, false);
                TargetSpread::devices(devices.clone())
                    .with_clauses(clauses(default.clone(), k.name))
                    .maps(reads)
                    .maps(writes)
                    .parallel_for(s, b0..b1, k.spec(cfg, arr))?;
            }
            if let Some((_, held)) = held {
                // Land the stepped positions and drop the mapping.
                TargetExitDataSpread::devices(devices.clone())
                    .range(b0, len)
                    .with_clauses(held)
                    .maps(arr.x.map(|h| spread_from(h, section(cfg, Extent::Body))))
                    .launch(s)?;
            }
            fold_partials(s, arr, b0..b1, sums);
        }
        Ok(())
    })?;
    Ok((report, halo_time))
}

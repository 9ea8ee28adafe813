//! Kernel specifications and the launcher.
//!
//! A [`KernelSpec`] is the reproduction's "device code": a closure over
//! iteration chunks plus a declaration of every array it touches
//! ([`KernelArg`]) — which array, with what [`Access`], and which element
//! section a given iteration range touches (the `section_of` expression,
//! the same arithmetic the paper writes with `omp_spread_start` /
//! `omp_spread_size`).
//!
//! At launch the runtime resolves each argument against the device's
//! presence table, binds the device buffers into [`ChunkViews`]
//! (bounds-checked, global-indexed views) and executes the body over the
//! iteration range on a [`TeamPool`] — `teams distribute parallel for`
//! for real, while the device's [`ComputeModel`](spread_devices::ComputeModel) provides the virtual
//! duration.
//!
//! ## Safety contract (enforced + documented)
//!
//! * Every access is bounds-checked against the mapped section — touching
//!   an unmapped element aborts with a clear message (see the
//!   failure-injection tests).
//! * Writes are additionally restricted to the *current chunk's* section
//!   (`section_of(chunk)`). Because loop chunks are disjoint and
//!   `section_of` must be disjointness-preserving (affine expressions
//!   are), concurrent chunk executions never write the same element.
//! * Reading outside your own chunk's write section of a `ReadWrite`
//!   argument while other chunks run is the user's responsibility —
//!   the same contract OpenMP gives device kernels.

use std::ops::Range;
use std::sync::Arc;

use spread_devices::memory::DeviceMemory;
use spread_devices::AllocId;
use spread_teams::{ChunkDispenser, SliceCells, TeamPool};

/// The intra-device schedule [`KernelSpec::with_schedule`] takes.
pub use spread_teams::LoopSchedule;

use crate::host::HostArray;

/// How a kernel uses one of its arrays.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Access {
    /// Read anywhere within the mapped section.
    Read,
    /// Write only within the current chunk's section.
    Write,
    /// Read and write within the current chunk's section.
    ReadWrite,
}

impl Access {
    /// True if writes are allowed.
    pub fn writes(self) -> bool {
        matches!(self, Access::Write | Access::ReadWrite)
    }
}

/// Maps an iteration range to the element section it touches.
pub type SectionExpr = Arc<dyn Fn(Range<usize>) -> Range<usize> + Send + Sync>;

/// One kernel array argument.
#[derive(Clone)]
pub struct KernelArg {
    /// The host array this argument views (device-resident at launch).
    pub array: HostArray,
    /// Access mode.
    pub access: Access,
    /// Iteration range → element section.
    pub section_of: SectionExpr,
}

impl KernelArg {
    /// A read-only argument.
    pub fn read(
        array: HostArray,
        section_of: impl Fn(Range<usize>) -> Range<usize> + Send + Sync + 'static,
    ) -> Self {
        KernelArg {
            array,
            access: Access::Read,
            section_of: Arc::new(section_of),
        }
    }

    /// A write-only argument.
    pub fn write(
        array: HostArray,
        section_of: impl Fn(Range<usize>) -> Range<usize> + Send + Sync + 'static,
    ) -> Self {
        KernelArg {
            array,
            access: Access::Write,
            section_of: Arc::new(section_of),
        }
    }

    /// A read-write argument.
    pub fn read_write(
        array: HostArray,
        section_of: impl Fn(Range<usize>) -> Range<usize> + Send + Sync + 'static,
    ) -> Self {
        KernelArg {
            array,
            access: Access::ReadWrite,
            section_of: Arc::new(section_of),
        }
    }
}

/// The kernel body: called once per scheduled chunk with bounds-checked
/// views.
pub type KernelBody = Arc<dyn Fn(Range<usize>, &ChunkViews<'_, '_>) + Send + Sync>;

/// A complete kernel description.
#[derive(Clone)]
pub struct KernelSpec {
    /// Name (labels trace spans and diagnostics).
    pub name: String,
    /// Modeled single-lane device cost of one iteration, in nanoseconds.
    pub work_per_iter_ns: f64,
    /// Array arguments, indexed by position in [`ChunkViews`] calls.
    pub args: Vec<KernelArg>,
    /// The body.
    pub body: KernelBody,
    /// Intra-device loop schedule for the team executor.
    pub schedule: LoopSchedule,
}

impl KernelSpec {
    /// A kernel with the given per-iteration cost and body; add arguments
    /// with [`KernelSpec::arg`].
    pub fn new(
        name: impl Into<String>,
        work_per_iter_ns: f64,
        body: impl Fn(Range<usize>, &ChunkViews<'_, '_>) + Send + Sync + 'static,
    ) -> Self {
        KernelSpec {
            name: name.into(),
            work_per_iter_ns,
            args: Vec::new(),
            body: Arc::new(body),
            schedule: LoopSchedule::StaticBlocked,
        }
    }

    /// Append an argument.
    pub fn arg(mut self, arg: KernelArg) -> Self {
        self.args.push(arg);
        self
    }

    /// Override the intra-device schedule.
    pub fn with_schedule(mut self, schedule: LoopSchedule) -> Self {
        self.schedule = schedule;
        self
    }
}

/// An argument resolved against a device's presence table.
pub(crate) struct ResolvedArg {
    pub alloc: AllocId,
    /// Global element index of the buffer's first element.
    pub entry_start: usize,
    pub entry_len: usize,
    pub access: Access,
    pub section_of: SectionExpr,
}

struct Binding {
    cells_idx: usize,
    entry_start: usize,
    entry_len: usize,
    access: Access,
    section_of: SectionExpr,
}

/// Bounds-checked, global-indexed views over the mapped device buffers,
/// restricted to one scheduled chunk.
pub struct ChunkViews<'a, 'b> {
    cells: &'a [SliceCells<'b, f64>],
    bindings: &'a [Binding],
    /// Per-argument allowed write section for this chunk (empty for
    /// read-only arguments).
    write_ranges: Vec<Range<usize>>,
}

impl ChunkViews<'_, '_> {
    /// Read `array_arg[idx]` (global element index).
    #[inline]
    pub fn get(&self, arg: usize, idx: usize) -> f64 {
        let b = &self.bindings[arg];
        self.check_mapped(b, idx, idx + 1);
        // SAFETY: bounds checked; concurrent writers excluded by the
        // chunk-disjoint write contract.
        unsafe { self.cells[b.cells_idx].read(idx - b.entry_start) }
    }

    /// Write `array_arg[idx] = v` (global element index, within this
    /// chunk's write section).
    #[inline]
    pub fn set(&self, arg: usize, idx: usize, v: f64) {
        let b = &self.bindings[arg];
        self.check_writable(arg, b, idx, idx + 1);
        // SAFETY: bounds + ownership checked; disjoint chunks.
        unsafe {
            self.cells[b.cells_idx].slice_mut(idx - b.entry_start..idx - b.entry_start + 1)[0] = v;
        }
    }

    /// Borrow a read-only row `array_arg[range]` (global indexes).
    #[inline]
    pub fn row(&self, arg: usize, range: Range<usize>) -> &[f64] {
        let b = &self.bindings[arg];
        self.check_mapped(b, range.start, range.end);
        // SAFETY: bounds checked; read contract as in `get`.
        unsafe {
            self.cells[b.cells_idx].slice(range.start - b.entry_start..range.end - b.entry_start)
        }
    }

    /// Borrow a mutable row `array_arg[range]` (global indexes, within
    /// this chunk's write section).
    // Interior mutability by design: `SliceCells` hands out disjoint
    // mutable sub-slices from a shared view; the `check_writable` bounds
    // restrict this chunk to its own (disjoint) write section.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    pub fn row_mut(&self, arg: usize, range: Range<usize>) -> &mut [f64] {
        let b = &self.bindings[arg];
        self.check_writable(arg, b, range.start, range.end);
        // SAFETY: bounds + ownership checked; disjoint chunks.
        unsafe {
            self.cells[b.cells_idx]
                .slice_mut(range.start - b.entry_start..range.end - b.entry_start)
        }
    }

    /// The write section of argument `arg` for this chunk.
    pub fn write_range(&self, arg: usize) -> Range<usize> {
        self.write_ranges[arg].clone()
    }

    #[inline]
    fn check_mapped(&self, b: &Binding, start: usize, end: usize) {
        assert!(
            start >= b.entry_start && end <= b.entry_start + b.entry_len && start <= end,
            "kernel accessed elements [{start}, {end}) of an argument whose mapped \
             section is [{}, {}) — unmapped device access",
            b.entry_start,
            b.entry_start + b.entry_len,
        );
    }

    #[inline]
    fn check_writable(&self, arg: usize, b: &Binding, start: usize, end: usize) {
        assert!(
            b.access.writes(),
            "kernel wrote a read-only argument (arg {arg})"
        );
        let w = &self.write_ranges[arg];
        assert!(
            start >= w.start && end <= w.end && start <= end,
            "kernel wrote elements [{start}, {end}) outside its chunk's write \
             section [{}, {}) (arg {arg}) — cross-chunk write",
            w.start,
            w.end,
        );
        self.check_mapped(b, start, end);
    }
}

/// Execute a kernel body over `range` on a device's buffers.
///
/// `resolved` pairs each [`KernelArg`] with its presence-table entry; the
/// body runs work-shared on `pool`.
pub(crate) fn execute_on_device(
    mem: &mut DeviceMemory,
    pool: &TeamPool,
    schedule: LoopSchedule,
    range: Range<usize>,
    body: &KernelBody,
    resolved: &[ResolvedArg],
) {
    // Deduplicate buffers (two args may view the same presence entry).
    let mut unique: Vec<AllocId> = Vec::with_capacity(resolved.len());
    let mut cells_idx_of: Vec<usize> = Vec::with_capacity(resolved.len());
    for r in resolved {
        match unique.iter().position(|&a| a == r.alloc) {
            Some(i) => cells_idx_of.push(i),
            None => {
                unique.push(r.alloc);
                cells_idx_of.push(unique.len() - 1);
            }
        }
    }
    let bufs = mem.buffers_mut(&unique);
    let cells: Vec<SliceCells<'_, f64>> = bufs.into_iter().map(SliceCells::new).collect();
    let bindings: Vec<Binding> = resolved
        .iter()
        .zip(&cells_idx_of)
        .map(|(r, &ci)| Binding {
            cells_idx: ci,
            entry_start: r.entry_start,
            entry_len: r.entry_len,
            access: r.access,
            section_of: Arc::clone(&r.section_of),
        })
        .collect();
    let disp = ChunkDispenser::new(range, schedule, pool.n_threads());
    pool.broadcast(&|tid| {
        disp.drive(tid, |chunk| {
            let write_ranges: Vec<Range<usize>> = bindings
                .iter()
                .map(|b| {
                    if b.access.writes() {
                        (b.section_of)(chunk.clone())
                    } else {
                        0..0
                    }
                })
                .collect();
            let views = ChunkViews {
                cells: &cells,
                bindings: &bindings,
                write_ranges,
            };
            body(chunk.clone(), &views);
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostRegistry;
    use spread_devices::memory::DeviceMemory;

    /// Set up a device holding one 100-element buffer mapped at global
    /// offset 10 (entry [10, 110)).
    fn setup() -> (DeviceMemory, AllocId) {
        let mut mem = DeviceMemory::new(1 << 16);
        let alloc = mem.alloc_elems(100).unwrap();
        for (i, v) in mem.buffer_mut(alloc).iter_mut().enumerate() {
            *v = (10 + i) as f64; // value == global index
        }
        (mem, alloc)
    }

    fn resolved(alloc: AllocId, access: Access, expr: SectionExpr) -> ResolvedArg {
        ResolvedArg {
            alloc,
            entry_start: 10,
            entry_len: 100,
            access,
            section_of: expr,
        }
    }

    fn ident() -> SectionExpr {
        Arc::new(|r: Range<usize>| r)
    }

    #[test]
    fn kernel_reads_and_writes_globally_indexed() {
        let (mut mem, alloc) = setup();
        let pool = TeamPool::new(4);
        let body: KernelBody = Arc::new(|chunk, v: &ChunkViews| {
            for i in chunk {
                let x = v.get(0, i);
                v.set(1, i, x * 2.0);
            }
        });
        let args = vec![
            resolved(alloc, Access::Read, ident()),
            resolved(alloc, Access::Write, ident()),
        ];
        execute_on_device(
            &mut mem,
            &pool,
            LoopSchedule::Dynamic { chunk: 7 },
            20..90,
            &body,
            &args,
        );
        let buf = mem.buffer(alloc);
        // Elements [20, 90) doubled, the rest untouched.
        assert_eq!(buf[20 - 10], 40.0);
        assert_eq!(buf[89 - 10], 178.0);
        assert_eq!(buf[10 - 10], 10.0);
        assert_eq!(buf[95 - 10], 95.0);
    }

    #[test]
    fn row_based_access() {
        let (mut mem, alloc) = setup();
        let pool = TeamPool::new(2);
        let body: KernelBody = Arc::new(|chunk, v: &ChunkViews| {
            let out = v.row_mut(0, chunk.clone());
            let inp = v.row(1, chunk.clone());
            for (o, &x) in out.iter_mut().zip(inp) {
                *o = x + 0.5;
            }
        });
        let args = vec![
            resolved(alloc, Access::ReadWrite, ident()),
            resolved(alloc, Access::Read, ident()),
        ];
        execute_on_device(
            &mut mem,
            &pool,
            LoopSchedule::StaticBlocked,
            10..110,
            &body,
            &args,
        );
        assert_eq!(mem.buffer(alloc)[0], 10.5);
        assert_eq!(mem.buffer(alloc)[99], 109.5);
    }

    #[test]
    fn halo_reads_with_shifted_section() {
        // Stencil: out[i] = in[i-1] + in[i+1]; read section extends ±1.
        let (mut mem, alloc) = setup();
        let mut out_mem = DeviceMemory::new(1 << 16);
        let out_alloc = out_mem.alloc_elems(100).unwrap();
        // Put both buffers in one memory for simultaneous binding.
        let pool = TeamPool::new(3);
        let body: KernelBody = Arc::new(|chunk, v: &ChunkViews| {
            for i in chunk {
                let s = v.get(0, i - 1) + v.get(0, i + 1);
                v.set(1, i, s);
            }
        });
        // Reuse the same buffer for output at a different arg slot is not
        // allowed (overlapping writes/reads); use a second buffer in the
        // same DeviceMemory instead.
        let out2 = mem.alloc_elems(100).unwrap();
        let args = vec![
            resolved(
                alloc,
                Access::Read,
                Arc::new(|r: Range<usize>| r.start - 1..r.end + 1),
            ),
            resolved(out2, Access::Write, ident()),
        ];
        execute_on_device(
            &mut mem,
            &pool,
            LoopSchedule::StaticChunked { chunk: 5 },
            11..109,
            &body,
            &args,
        );
        let buf = mem.buffer(out2);
        // out[i] = (i-1) + (i+1) = 2i
        assert_eq!(buf[11 - 10], 22.0);
        assert_eq!(buf[108 - 10], 216.0);
        drop(out_mem);
        let _ = out_alloc;
    }

    #[test]
    #[should_panic(expected = "unmapped device access")]
    fn out_of_section_read_panics() {
        let (mut mem, alloc) = setup();
        let pool = TeamPool::new(1);
        let body: KernelBody = Arc::new(|_chunk, v: &ChunkViews| {
            let _ = v.get(0, 5); // entry starts at 10
        });
        let args = vec![resolved(alloc, Access::Read, ident())];
        execute_on_device(
            &mut mem,
            &pool,
            LoopSchedule::StaticBlocked,
            20..21,
            &body,
            &args,
        );
    }

    #[test]
    #[should_panic(expected = "cross-chunk write")]
    fn cross_chunk_write_panics() {
        let (mut mem, alloc) = setup();
        let pool = TeamPool::new(1);
        let body: KernelBody = Arc::new(|chunk, v: &ChunkViews| {
            // Writing one past the chunk's own section.
            v.set(0, chunk.end, 1.0);
        });
        let args = vec![resolved(alloc, Access::Write, ident())];
        execute_on_device(
            &mut mem,
            &pool,
            LoopSchedule::StaticBlocked,
            20..30,
            &body,
            &args,
        );
    }

    #[test]
    #[should_panic(expected = "read-only argument")]
    fn write_to_read_arg_panics() {
        let (mut mem, alloc) = setup();
        let pool = TeamPool::new(1);
        let body: KernelBody = Arc::new(|chunk, v: &ChunkViews| {
            v.set(0, chunk.start, 1.0);
        });
        let args = vec![resolved(alloc, Access::Read, ident())];
        execute_on_device(
            &mut mem,
            &pool,
            LoopSchedule::StaticBlocked,
            20..30,
            &body,
            &args,
        );
    }

    #[test]
    fn kernel_spec_builder() {
        let mut reg = HostRegistry::new();
        let a = reg.register("A", 100);
        let spec = KernelSpec::new("copy", 2.0, |_c, _v| {})
            .arg(KernelArg::read(a, |r| r))
            .arg(KernelArg::write(a, |r| r))
            .with_schedule(LoopSchedule::Dynamic { chunk: 4 });
        assert_eq!(spec.name, "copy");
        assert_eq!(spec.args.len(), 2);
        assert_eq!(spec.args[0].access, Access::Read);
        assert!(spec.args[1].access.writes());
        assert_eq!(spec.schedule, LoopSchedule::Dynamic { chunk: 4 });
    }
}

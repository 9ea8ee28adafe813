//! Host spill executor — the last rung of the memory-pressure
//! degradation ladder.
//!
//! When no device has headroom for a chunk (and the pressure policy
//! allows it), the chunk still executes: its mapped sections stream
//! through a *bounded host staging buffer* in map→compute→unmap slices.
//! Each slice allocates only its own sections in a scratch
//! [`DeviceMemory`], copies the inputs in from host memory, runs the
//! kernel body over the slice's iteration sub-range through the normal
//! bounds-checked launcher, and stages the outputs. Staged outputs are
//! committed to host memory only after *every* slice has executed —
//! the same all-or-nothing rule as the staged device-to-host commit
//! path, so a spilled chunk is observationally one atomic construct.
//!
//! ## Soundness constraint
//!
//! A slice reads its inputs from host memory at slice-execution time.
//! This is sound because within one construct the supported workloads
//! never have an array that is *read* by one chunk and *written* by
//! another (write sections are chunk-disjoint, and read-only arrays —
//! stencil sources, saxpy inputs — are not written at all), and the
//! pressure launch path serializes the construct's pieces against each
//! other. A slice therefore always observes the host image from before
//! the construct started.

use std::ops::Range;
use std::rc::Rc;

use spread_devices::memory::DeviceMemory;

use crate::kernel::{KernelSpec, ResolvedArg};
use crate::runtime::{Action, Completion, Scope};
use crate::section::Section;
use crate::task::{FpAccess, TaskId, TaskLabel, TaskSpec};

/// The total device-footprint bytes a kernel's arguments need for
/// `range` (the figure the admission planner budgets and the slicer
/// bounds). Arguments are summed independently — two arguments viewing
/// the same array count twice, exactly as two map clauses would.
pub fn kernel_footprint_bytes(kernel: &KernelSpec, range: &Range<usize>) -> u64 {
    kernel
        .args
        .iter()
        .map(|a| (a.section_of)(range.clone()).len() as u64 * 8)
        .sum()
}

/// Split `range` into the iteration slices the spill executor will
/// run, such that each slice's footprint stays within `staging_bytes`
/// (modulo the fixed halo overhead of a slice). Deterministic and pure
/// — `spread-check`'s oracle calls this to predict slice boundaries.
pub fn spill_slices(
    range: Range<usize>,
    footprint_bytes: u64,
    staging_bytes: u64,
) -> Vec<Range<usize>> {
    if range.is_empty() {
        return Vec::new();
    }
    let staging = staging_bytes.max(8);
    let n_slices = footprint_bytes.div_ceil(staging).max(1) as usize;
    let n_slices = n_slices.min(range.len());
    let slice_len = range.len().div_ceil(n_slices);
    let mut out = Vec::with_capacity(n_slices);
    let mut start = range.start;
    while start < range.end {
        let end = (start + slice_len).min(range.end);
        out.push(start..end);
        start = end;
    }
    out
}

/// Submit the host task that executes `kernel` over `range` through the
/// staging buffer, ordered after `preds`. Returns the task id (the
/// piece's "exit" from the construct's point of view).
pub fn spill_chunk(
    scope: &mut Scope<'_>,
    label: impl Into<TaskLabel>,
    range: Range<usize>,
    kernel: impl Into<Rc<KernelSpec>>,
    preds: Vec<TaskId>,
) -> TaskId {
    let kernel: Rc<KernelSpec> = kernel.into();
    let mut spec = TaskSpec::new(label);
    spec.extra_preds = preds;
    for arg in &kernel.args {
        let sec = Section::from_range(arg.array.id(), (arg.section_of)(range.clone()));
        if arg.access.writes() {
            spec.fp_writes.push(FpAccess::host(sec));
        } else {
            spec.fp_reads.push(FpAccess::host(sec));
        }
    }
    let action = Action::Closure(Box::new(move |_sim, inner_rc, _id| {
        let (team, staging_bytes, stores): (_, _, Vec<Rc<std::cell::RefCell<Vec<f64>>>>) = {
            let inner = inner_rc.borrow();
            (
                Rc::clone(&inner.team),
                inner.spill_staging_bytes,
                kernel
                    .args
                    .iter()
                    .map(|a| inner.host.storage(a.array.id()))
                    .collect(),
            )
        };
        let footprint = kernel_footprint_bytes(&kernel, &range);
        let slices = spill_slices(range.clone(), footprint, staging_bytes);
        // (store index, global section range, data) — committed after
        // every slice has run.
        let mut staged: Vec<(usize, Range<usize>, Vec<f64>)> = Vec::new();
        for slice in &slices {
            let mut slice_bytes = 0u64;
            let sections: Vec<Range<usize>> = kernel
                .args
                .iter()
                .map(|a| {
                    let s = (a.section_of)(slice.clone());
                    slice_bytes += s.len() as u64 * 8;
                    s
                })
                .collect();
            // The scratch memory is sized to the slice: by construction
            // the slicer bounded this near `staging_bytes`, so the
            // allocations below cannot fail.
            let mut scratch = DeviceMemory::new(slice_bytes.max(8));
            let mut resolved = Vec::with_capacity(kernel.args.len());
            for (arg, sec) in kernel.args.iter().zip(&sections) {
                let alloc = scratch
                    .alloc_elems(sec.len().max(1))
                    .expect("slice footprint fits its scratch memory");
                if !sec.is_empty() {
                    let host = stores[resolved.len()].borrow();
                    team.h2d(scratch.buffer_mut(alloc), &host[sec.clone()]);
                }
                resolved.push(ResolvedArg {
                    alloc,
                    entry_start: sec.start,
                    entry_len: sec.len().max(1),
                    access: arg.access,
                    section_of: std::sync::Arc::clone(&arg.section_of),
                });
            }
            crate::kernel::execute_on_device(
                &mut scratch,
                &team.pool,
                kernel.schedule,
                slice.clone(),
                &kernel.body,
                &resolved,
                &mut crate::kernel::BindScratch::default(),
            );
            for (i, (arg, sec)) in kernel.args.iter().zip(&sections).enumerate() {
                if !arg.access.writes() || sec.is_empty() {
                    continue;
                }
                let data = team.snapshot(scratch.buffer(resolved[i].alloc));
                staged.push((i, sec.clone(), data));
            }
        }
        for (i, sec, data) in staged {
            team.d2h(&mut stores[i].borrow_mut()[sec], &data);
        }
        Ok(Completion::Done)
    }));
    scope.submit(spec, action)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_cover_range_and_respect_bound() {
        // 100 iters, 800 B footprint (one f64 arg), 128 B staging →
        // ceil(800/128) = 7 slices of ceil(100/7) = 15.
        let s = spill_slices(0..100, 800, 128);
        assert_eq!(s.len(), 7);
        assert_eq!(s[0], 0..15);
        assert_eq!(s.last().unwrap().end, 100);
        let total: usize = s.iter().map(|r| r.len()).sum();
        assert_eq!(total, 100);
        // Contiguous and ordered.
        for w in s.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn single_slice_when_it_fits() {
        assert_eq!(spill_slices(5..25, 160, 1 << 20), vec![5..25]);
    }

    #[test]
    fn empty_range_no_slices() {
        assert!(spill_slices(7..7, 0, 64).is_empty());
    }

    #[test]
    fn slice_count_never_exceeds_iterations() {
        // Absurdly tiny staging still yields at most one slice per iter.
        let s = spill_slices(0..4, 1 << 30, 8);
        assert_eq!(s.len(), 4);
        assert_eq!(s, vec![0..1, 1..2, 2..3, 3..4]);
    }
}

//! Disjoint concurrent slice access.
//!
//! Work-shared kernels write their output arrays at iteration-owned
//! indexes: thread A writes `B[i]` for `i` in its chunks, thread B for its
//! chunks, never the same index. Rust cannot prove that statically for
//! guided chunks, so [`SliceCells`] provides the standard
//! unsafe-core/safe-contract primitive (the same shape as rayon's
//! internal splitters): a `Sync` view of a `&mut [T]` from which callers
//! carve *disjoint* mutable sub-slices.
//!
//! Safety is delegated to the loop schedule: the chunks
//! [`TeamPool::parallel_for`](crate::TeamPool::parallel_for) hands out
//! are disjoint by construction, so a kernel that only writes inside its
//! chunk is race-free.

use std::marker::PhantomData;

/// A shareable view over a mutable slice that permits concurrent access
/// to *disjoint* regions.
pub struct SliceCells<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: access is only through `slice_mut`/`read`, whose contracts
// require disjointness across threads; T must be Send for &mut T to move
// across threads, and the shared view itself is only handed out under
// those contracts.
unsafe impl<'a, T: Send> Sync for SliceCells<'a, T> {}
unsafe impl<'a, T: Send> Send for SliceCells<'a, T> {}

impl<'a, T> SliceCells<'a, T> {
    /// Wrap a mutable slice. The borrow is held for `'a`, so the
    /// original slice is inaccessible while views exist.
    pub fn new(slice: &'a mut [T]) -> Self {
        SliceCells {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Carve out `range` as a mutable sub-slice.
    ///
    /// # Safety
    ///
    /// No two concurrently live sub-slices (nor any concurrent
    /// [`SliceCells::read`] of an index inside `range`) may overlap.
    /// Bounds are checked; disjointness is the caller's contract.
    pub unsafe fn slice_mut(&self, range: std::ops::Range<usize>) -> &'a mut [T] {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "sub-slice {range:?} out of bounds (len {})",
            self.len
        );
        // SAFETY: bounds checked above; disjointness per contract.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len()) }
    }

    /// Read element `i`.
    ///
    /// # Safety
    ///
    /// `i` must not be concurrently written through any live sub-slice.
    pub unsafe fn read(&self, i: usize) -> T
    where
        T: Copy,
    {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        // SAFETY: bounds checked; no concurrent writer per contract.
        unsafe { *self.ptr.add(i) }
    }

    /// Borrow `range` as a shared sub-slice.
    ///
    /// # Safety
    ///
    /// No element of `range` may be concurrently written through any live
    /// mutable sub-slice while the returned borrow is used.
    pub unsafe fn slice(&self, range: std::ops::Range<usize>) -> &'a [T] {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "sub-slice {range:?} out of bounds (len {})",
            self.len
        );
        // SAFETY: bounds checked above; no concurrent writers per contract.
        unsafe { std::slice::from_raw_parts(self.ptr.add(range.start), range.len()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_disjoint_writes() {
        let mut data = vec![0u64; 1000];
        let cells = SliceCells::new(&mut data);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let cells = &cells;
                s.spawn(move || {
                    // SAFETY: per-thread ranges are disjoint.
                    let part = unsafe { cells.slice_mut(t * 250..(t + 1) * 250) };
                    for (k, v) in part.iter_mut().enumerate() {
                        *v = (t * 250 + k) as u64;
                    }
                });
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64));
    }

    #[test]
    fn read_after_writes() {
        let mut data = vec![1.0f64; 8];
        let cells = SliceCells::new(&mut data);
        // SAFETY: single-threaded here; no aliasing.
        unsafe {
            cells.slice_mut(0..4)[2] = 7.0;
            assert_eq!(cells.read(2), 7.0);
            assert_eq!(cells.read(7), 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bounds_checked_slice() {
        let mut data = vec![0u8; 4];
        let cells = SliceCells::new(&mut data);
        // SAFETY: bounds check fires before any access.
        let _ = unsafe { cells.slice_mut(2..6) };
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bounds_checked_read() {
        let mut data = vec![0u8; 4];
        let cells = SliceCells::new(&mut data);
        // SAFETY: bounds check fires before any access.
        let _ = unsafe { cells.read(4) };
    }

    #[test]
    fn empty_slice() {
        let mut data: Vec<u32> = vec![];
        let cells = SliceCells::new(&mut data);
        // Zero-length carve is fine.
        let s = unsafe { cells.slice_mut(0..0) };
        assert!(s.is_empty());
    }
}

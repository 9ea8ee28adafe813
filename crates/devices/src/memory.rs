//! Device global memory: a first-fit free-list allocator plus real
//! backing stores.
//!
//! The allocator manages the device's *virtual* address range so capacity
//! pressure behaves like real hardware — the Somier experiment depends on
//! the problem being ~10× larger than one device's memory, and the
//! One-Buffer implementation sizes its buffers to "fully occupy the
//! device memory" (§V-A). Each allocation is also backed by an actual
//! `Vec<f64>` holding device-resident data, so every transfer and kernel
//! manipulates real values that the test suite checks against a CPU
//! reference.
//!
//! Backing stores are recycled: a freed buffer is kept as a spare for
//! the next allocation of exactly its element count, as long as live
//! plus spare backing stays within the pool's high-watermark — so the
//! host memory a device holds never exceeds the modelled device peak.
//! Recycling is invisible to the modelled allocator: offsets, usage,
//! fragmentation and out-of-memory errors are the [`MemoryPool`]'s
//! alone.

use std::collections::BTreeMap;
use std::fmt;

/// Bytes per array element (everything in the reproduction is `f64`,
/// matching the paper's double-precision grids).
pub const ELEM_BYTES: u64 = 8;

/// Handle to one device allocation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AllocId(u64);

/// Allocation failure: the device is out of (contiguous) memory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes currently free (possibly fragmented).
    pub free: u64,
    /// Largest contiguous free block.
    pub largest_block: u64,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device out of memory: requested {} B, {} B free (largest contiguous block {} B)",
            self.requested, self.free, self.largest_block
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// Best-fit free-list allocator with address-ordered coalescing.
/// (Best fit keeps large holes intact under the mixed chunk/halo/partial
/// allocation sizes of buffered workloads, where first fit fragments.)
pub struct MemoryPool {
    capacity: u64,
    /// offset → length of free blocks, address-ordered.
    free: BTreeMap<u64, u64>,
    /// live allocations: id → (offset, length).
    allocs: BTreeMap<u64, (u64, u64)>,
    next_id: u64,
    used: u64,
    high_watermark: u64,
}

impl MemoryPool {
    /// A pool over `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        let mut free = BTreeMap::new();
        if capacity > 0 {
            free.insert(0, capacity);
        }
        MemoryPool {
            capacity,
            free,
            allocs: BTreeMap::new(),
            next_id: 0,
            used: 0,
            high_watermark: 0,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes currently free.
    pub fn free_bytes(&self) -> u64 {
        self.capacity - self.used
    }

    /// Peak bytes ever allocated simultaneously.
    pub fn high_watermark(&self) -> u64 {
        self.high_watermark
    }

    /// Reset the peak-usage statistic to the *current* usage. A fresh
    /// `Runtime` calls this on every device so peak numbers describe one
    /// runtime instance, not the whole life of a shared node spec.
    pub fn reset_high_watermark(&mut self) {
        self.high_watermark = self.used;
    }

    /// Number of live allocations.
    pub fn live_allocs(&self) -> usize {
        self.allocs.len()
    }

    /// Largest contiguous free block.
    pub fn largest_free_block(&self) -> u64 {
        self.free.values().copied().max().unwrap_or(0)
    }

    /// Allocate `bytes` (best fit: the smallest block that satisfies the
    /// request, lowest address on ties). Zero-byte allocations are legal
    /// and occupy no space.
    pub fn alloc(&mut self, bytes: u64) -> Result<AllocId, OutOfMemory> {
        let id = AllocId(self.next_id);
        if bytes == 0 {
            self.next_id += 1;
            self.allocs.insert(id.0, (u64::MAX, 0));
            return Ok(id);
        }
        let fit = self
            .free
            .iter()
            .filter(|&(_, &len)| len >= bytes)
            .min_by_key(|&(&off, &len)| (len, off))
            .map(|(&off, &len)| (off, len));
        let Some((off, len)) = fit else {
            return Err(OutOfMemory {
                requested: bytes,
                free: self.free_bytes(),
                largest_block: self.largest_free_block(),
            });
        };
        self.free.remove(&off);
        if len > bytes {
            self.free.insert(off + bytes, len - bytes);
        }
        self.next_id += 1;
        self.allocs.insert(id.0, (off, bytes));
        self.used += bytes;
        self.high_watermark = self.high_watermark.max(self.used);
        Ok(id)
    }

    /// Release an allocation. Returns `false` on double free / unknown
    /// id instead of panicking: after a device-loss wipe, in-flight
    /// constructs legitimately release ids the replacement pool never
    /// issued.
    pub fn dealloc(&mut self, id: AllocId) -> bool {
        let Some((off, len)) = self.allocs.remove(&id.0) else {
            return false;
        };
        if len == 0 {
            return true;
        }
        self.used -= len;
        // Coalesce with the predecessor and successor blocks.
        let mut off = off;
        let mut len = len;
        if let Some((&prev_off, &prev_len)) = self.free.range(..off).next_back() {
            if prev_off + prev_len == off {
                self.free.remove(&prev_off);
                off = prev_off;
                len += prev_len;
            }
        }
        if let Some((&next_off, &next_len)) = self.free.range(off + len..).next() {
            if off + len == next_off {
                self.free.remove(&next_off);
                len += next_len;
            }
        }
        let clobbered = self.free.insert(off, len);
        debug_assert!(clobbered.is_none(), "free-list corruption");
        true
    }

    /// Size in bytes of a live allocation.
    pub fn size_of(&self, id: AllocId) -> Option<u64> {
        self.allocs.get(&id.0).map(|&(_, len)| len)
    }
}

/// What a fresh allocation's elements hold before anyone writes them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fill {
    /// Every element reads `0.0`.
    Zero,
    /// Unspecified: the caller overwrites every element before anything
    /// reads one, so a recycled backing store keeps its old contents
    /// instead of being cleared first.
    Overwritten,
}

/// Device memory: the pool plus real `f64` backing stores, in *element*
/// units (8 bytes each).
pub struct DeviceMemory {
    pool: MemoryPool,
    buffers: BTreeMap<AllocId, Vec<f64>>,
    /// Retired backing stores, keyed by exact element count. Never holds
    /// an empty list or an empty store.
    spares: BTreeMap<usize, Vec<Vec<f64>>>,
    /// Bytes of live plus spare backing; at most the pool's
    /// high-watermark.
    backing: u64,
}

impl DeviceMemory {
    /// Memory of `capacity_bytes`.
    pub fn new(capacity_bytes: u64) -> Self {
        DeviceMemory {
            pool: MemoryPool::new(capacity_bytes),
            buffers: BTreeMap::new(),
            spares: BTreeMap::new(),
            backing: 0,
        }
    }

    /// The underlying pool (capacity/usage queries).
    pub fn pool(&self) -> &MemoryPool {
        &self.pool
    }

    /// The underlying pool, mutably (statistics resets).
    pub fn pool_mut(&mut self) -> &mut MemoryPool {
        &mut self.pool
    }

    /// Allocate a buffer of `elems` f64 elements, zero-initialized.
    pub fn alloc_elems(&mut self, elems: usize) -> Result<AllocId, OutOfMemory> {
        self.alloc_filled(elems, Fill::Zero)
    }

    /// Allocate a buffer of `elems` f64 elements, reusing a spare backing
    /// store of exactly that size when there is one.
    pub fn alloc_filled(&mut self, elems: usize, fill: Fill) -> Result<AllocId, OutOfMemory> {
        let id = self.pool.alloc(elems as u64 * ELEM_BYTES)?;
        let buf = match self.take_spare(elems) {
            Some(mut buf) => {
                if fill == Fill::Zero {
                    buf.fill(0.0);
                }
                buf
            }
            None => {
                // Make room under the watermark before the new store
                // exists, so host memory never overshoots it.
                self.backing += elems as u64 * ELEM_BYTES;
                self.trim();
                vec![0.0; elems]
            }
        };
        self.buffers.insert(id, buf);
        Ok(id)
    }

    /// Free a buffer; its backing store becomes a spare. Returns `false`
    /// if the id is unknown (double free, or an id issued before a
    /// device-loss wipe).
    pub fn dealloc(&mut self, id: AllocId) -> bool {
        let known = self.pool.dealloc(id);
        if let Some(buf) = self.buffers.remove(&id) {
            if !buf.is_empty() {
                self.spares.entry(buf.len()).or_default().push(buf);
                self.trim();
            }
        }
        known
    }

    /// Bytes of host memory backing this device: live buffers plus
    /// spares. Never more than the pool's high-watermark.
    pub fn backing_bytes(&self) -> u64 {
        self.backing
    }

    fn take_spare(&mut self, elems: usize) -> Option<Vec<f64>> {
        let class = self.spares.get_mut(&elems)?;
        let buf = class.pop();
        if class.is_empty() {
            self.spares.remove(&elems);
        }
        buf
    }

    /// Drop spares, largest first, until live plus spare backing fits
    /// under the high-watermark. Live backing alone always fits: every
    /// live store is a pool allocation.
    fn trim(&mut self) {
        while self.backing > self.pool.high_watermark() {
            let Some(&elems) = self.spares.keys().next_back() else {
                break;
            };
            let buf = self
                .take_spare(elems)
                .expect("spare classes are never empty");
            self.backing -= buf.len() as u64 * ELEM_BYTES;
        }
    }

    /// Immutable view of a buffer.
    pub fn buffer(&self, id: AllocId) -> &[f64] {
        self.buffers
            .get(&id)
            .unwrap_or_else(|| panic!("access to unknown device buffer {id:?}"))
    }

    /// Mutable view of a buffer.
    pub fn buffer_mut(&mut self, id: AllocId) -> &mut [f64] {
        self.buffers
            .get_mut(&id)
            .unwrap_or_else(|| panic!("access to unknown device buffer {id:?}"))
    }

    /// Mutable views of several *distinct* buffers at once (the kernel
    /// launcher binds every mapped array of a kernel simultaneously).
    /// Panics if `ids` contains duplicates or unknown ids.
    pub fn buffers_mut(&mut self, ids: &[AllocId]) -> Vec<&mut [f64]> {
        for (i, a) in ids.iter().enumerate() {
            assert!(
                !ids[..i].contains(a),
                "duplicate buffer {a:?} in simultaneous bind"
            );
        }
        let mut out: Vec<Option<&mut [f64]>> = ids.iter().map(|_| None).collect();
        for (id, buf) in self.buffers.iter_mut() {
            if let Some(pos) = ids.iter().position(|x| x == id) {
                out[pos] = Some(buf.as_mut_slice());
            }
        }
        out.into_iter()
            .enumerate()
            .map(|(i, o)| o.unwrap_or_else(|| panic!("unknown device buffer {:?}", ids[i])))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free_roundtrip() {
        let mut p = MemoryPool::new(1000);
        let a = p.alloc(400).unwrap();
        let b = p.alloc(600).unwrap();
        assert_eq!(p.used(), 1000);
        assert_eq!(p.free_bytes(), 0);
        assert!(p.alloc(1).is_err());
        p.dealloc(a);
        assert_eq!(p.free_bytes(), 400);
        let c = p.alloc(400).unwrap();
        assert_eq!(p.used(), 1000);
        p.dealloc(b);
        p.dealloc(c);
        assert_eq!(p.used(), 0);
        assert_eq!(p.largest_free_block(), 1000, "coalesced back to one block");
        assert_eq!(p.high_watermark(), 1000);
    }

    #[test]
    fn oom_reports_fragmentation() {
        let mut p = MemoryPool::new(300);
        let a = p.alloc(100).unwrap();
        let _b = p.alloc(100).unwrap();
        let _c = p.alloc(100).unwrap();
        p.dealloc(a);
        // 100 free at offset 0, but a request of 150 cannot fit.
        let err = p.alloc(150).unwrap_err();
        assert_eq!(err.requested, 150);
        assert_eq!(err.free, 100);
        assert_eq!(err.largest_block, 100);
        assert!(err.to_string().contains("out of memory"));
    }

    #[test]
    fn coalescing_middle_block() {
        let mut p = MemoryPool::new(300);
        let a = p.alloc(100).unwrap();
        let b = p.alloc(100).unwrap();
        let c = p.alloc(100).unwrap();
        p.dealloc(a);
        p.dealloc(c);
        assert_eq!(p.largest_free_block(), 100);
        p.dealloc(b); // merges with both neighbours
        assert_eq!(p.largest_free_block(), 300);
        assert_eq!(p.live_allocs(), 0);
    }

    #[test]
    fn watermark_reset_drops_to_current_usage() {
        let mut p = MemoryPool::new(1000);
        let a = p.alloc(700).unwrap();
        let _b = p.alloc(100).unwrap();
        p.dealloc(a);
        assert_eq!(p.high_watermark(), 800, "peak of a previous run");
        // A new runtime instance resets the statistic: the peak now
        // describes only what is still resident, not history.
        p.reset_high_watermark();
        assert_eq!(p.high_watermark(), 100);
        let _c = p.alloc(300).unwrap();
        assert_eq!(p.high_watermark(), 400, "peak grows from the reset");
    }

    #[test]
    fn fragmentation_free_bytes_vs_largest_hole() {
        // Interleaved alloc/dealloc forcing best-fit splitting: admission
        // control must be able to trust both accountings.
        let mut p = MemoryPool::new(1024);
        let ids: Vec<AllocId> = (0..8).map(|_| p.alloc(128).unwrap()).collect();
        assert_eq!(p.free_bytes(), 0);
        // Free every other block: 512 B free, but no hole above 128 B.
        for &id in ids.iter().step_by(2) {
            assert!(p.dealloc(id));
        }
        assert_eq!(p.free_bytes(), 512);
        assert_eq!(p.largest_free_block(), 128);
        assert_eq!(p.live_allocs(), 4);
        // A 256 B request fails despite 512 B free — and the error
        // carries both numbers so callers can tell scarcity from
        // fragmentation.
        let err = p.alloc(256).unwrap_err();
        assert_eq!(err.free, 512);
        assert_eq!(err.largest_block, 128);
        // Best fit packs exact-size requests into the holes.
        for _ in 0..4 {
            p.alloc(128).unwrap();
        }
        assert_eq!(p.free_bytes(), 0);
    }

    #[test]
    fn best_fit_splits_smallest_sufficient_hole() {
        let mut p = MemoryPool::new(1000);
        let a = p.alloc(100).unwrap(); // [0, 100)
        let _b = p.alloc(200).unwrap(); // [100, 300)
        let c = p.alloc(300).unwrap(); // [300, 600)
        let _d = p.alloc(400).unwrap(); // [600, 1000)
        p.dealloc(a); // hole 100 at offset 0
        p.dealloc(c); // hole 300 at offset 300
                      // 80 B goes into the 100-B hole (best fit), not the 300-B one.
        let _e = p.alloc(80).unwrap();
        assert_eq!(p.largest_free_block(), 300, "large hole left intact");
        assert_eq!(p.free_bytes(), 320);
        // 280 B splits the 300-B hole, leaving a 20-B sliver.
        let _f = p.alloc(280).unwrap();
        assert_eq!(p.free_bytes(), 40);
        assert_eq!(p.largest_free_block(), 20);
        // free_bytes is the sum of the surviving slivers.
        let holes: u64 = p.free.values().sum();
        assert_eq!(holes, p.free_bytes());
    }

    #[test]
    fn zero_byte_alloc() {
        let mut p = MemoryPool::new(10);
        let z = p.alloc(0).unwrap();
        assert_eq!(p.used(), 0);
        assert_eq!(p.size_of(z), Some(0));
        p.dealloc(z);
    }

    #[test]
    fn double_free_is_reported_not_fatal() {
        let mut p = MemoryPool::new(10);
        let a = p.alloc(4).unwrap();
        assert!(p.dealloc(a));
        assert!(!p.dealloc(a), "second free reports the unknown id");
        assert_eq!(p.used(), 0);
    }

    #[test]
    fn zero_capacity_pool() {
        let mut p = MemoryPool::new(0);
        assert!(p.alloc(1).is_err());
        assert!(p.alloc(0).is_ok());
    }

    #[test]
    fn device_memory_buffers() {
        let mut m = DeviceMemory::new(1024);
        let a = m.alloc_elems(10).unwrap();
        let b = m.alloc_elems(20).unwrap();
        assert_eq!(m.pool().used(), 30 * 8);
        m.buffer_mut(a)[3] = 42.0;
        assert_eq!(m.buffer(a)[3], 42.0);
        assert!(m.buffer(b).iter().all(|&x| x == 0.0));
        m.dealloc(a);
        assert_eq!(m.pool().used(), 160);
    }

    #[test]
    fn device_memory_oom_in_elements() {
        let mut m = DeviceMemory::new(100); // room for 12 elements
        assert!(m.alloc_elems(12).is_ok());
        assert!(m.alloc_elems(1).is_err());
    }

    #[test]
    fn simultaneous_buffer_bind() {
        let mut m = DeviceMemory::new(1024);
        let a = m.alloc_elems(4).unwrap();
        let b = m.alloc_elems(4).unwrap();
        let c = m.alloc_elems(4).unwrap();
        let views = m.buffers_mut(&[c, a, b]);
        assert_eq!(views.len(), 3);
        // Order matches the request order.
        views.into_iter().enumerate().for_each(|(i, v)| {
            v[0] = i as f64 + 1.0;
        });
        assert_eq!(m.buffer(c)[0], 1.0);
        assert_eq!(m.buffer(a)[0], 2.0);
        assert_eq!(m.buffer(b)[0], 3.0);
    }

    #[test]
    fn recycled_buffers_honour_the_fill() {
        let mut m = DeviceMemory::new(1024);
        let a = m.alloc_elems(16).unwrap();
        m.buffer_mut(a).fill(7.0);
        m.dealloc(a);
        let b = m.alloc_filled(16, Fill::Zero).unwrap();
        assert!(
            m.buffer(b).iter().all(|&x| x == 0.0),
            "a dirty spare is cleared"
        );
        m.buffer_mut(b).fill(7.0);
        m.dealloc(b);
        // The store really is reused: an overwritten allocation skips the
        // clear and sees the old bytes.
        let c = m.alloc_filled(16, Fill::Overwritten).unwrap();
        assert!(m.buffer(c).iter().all(|&x| x == 7.0));
        assert_eq!(m.backing_bytes(), 16 * 8);
    }

    #[test]
    fn spares_never_exceed_the_high_watermark() {
        let mut m = DeviceMemory::new(1024);
        let a = m.alloc_elems(60).unwrap();
        m.dealloc(a);
        assert_eq!(m.backing_bytes(), 480, "the freed store is kept");
        // A different size does not fit beside the spare under the
        // 480-byte peak: the spare goes before the new store is made.
        let b = m.alloc_elems(40).unwrap();
        assert_eq!(m.backing_bytes(), 320);
        let c = m.alloc_elems(20).unwrap();
        assert_eq!(m.pool().high_watermark(), 480);
        assert_eq!(m.backing_bytes(), 480);
        m.dealloc(b);
        m.dealloc(c);
        assert_eq!(m.backing_bytes(), 480);
        assert_eq!(m.pool().used(), 0);
    }

    /// The modelled allocator cannot tell recycling apart from fresh
    /// backing: every pool observable after random alloc / free / wipe
    /// sequences equals that of a bare `MemoryPool` driven the same way,
    /// and host backing never exceeds the modelled peak.
    #[test]
    fn recycling_is_invisible_to_the_pool() {
        for seed in 0..200u64 {
            let mut rng = spread_prng::Prng::new(seed);
            let capacity = 64 * rng.range(4, 64) as u64;
            let mut mem = DeviceMemory::new(capacity);
            let mut reference = MemoryPool::new(capacity);
            let mut live: Vec<AllocId> = Vec::new();
            let mut retired: Vec<AllocId> = Vec::new();
            for step in 0..300 {
                let what = format!("seed {seed} step {step}");
                match rng.below(10) {
                    0..=4 => {
                        // Few sizes, so exact-size spares get reused.
                        let elems = 4 * rng.range(0, 6);
                        let fill = if rng.chance(0.5) {
                            Fill::Zero
                        } else {
                            Fill::Overwritten
                        };
                        let got = mem.alloc_filled(elems, fill);
                        let want = reference.alloc(elems as u64 * ELEM_BYTES);
                        assert_eq!(got, want, "{what}: alloc");
                        if let Ok(id) = got {
                            assert_eq!(mem.buffer(id).len(), elems, "{what}");
                            if fill == Fill::Zero {
                                assert!(mem.buffer(id).iter().all(|&x| x == 0.0), "{what}");
                            }
                            mem.buffer_mut(id).fill(seed as f64 + 1.0);
                            live.push(id);
                        }
                    }
                    5..=8 if !live.is_empty() => {
                        let id = live.swap_remove(rng.below(live.len() as u64) as usize);
                        assert_eq!(mem.dealloc(id), reference.dealloc(id), "{what}: free");
                        retired.push(id);
                    }
                    5..=8 if !retired.is_empty() => {
                        // A stale id: unknown to both.
                        let id = *rng.pick(&retired);
                        assert!(!mem.dealloc(id) && !reference.dealloc(id), "{what}");
                    }
                    _ => {
                        // Device-loss wipe.
                        mem = DeviceMemory::new(capacity);
                        reference = MemoryPool::new(capacity);
                        retired.append(&mut live);
                        assert_eq!(mem.backing_bytes(), 0, "{what}: a wipe drops the spares");
                    }
                }
                let pool = mem.pool();
                assert_eq!(pool.allocs, reference.allocs, "{what}: ids and offsets");
                assert_eq!(pool.free, reference.free, "{what}: free list");
                assert_eq!(pool.next_id, reference.next_id, "{what}");
                assert_eq!(pool.used(), reference.used(), "{what}");
                assert_eq!(pool.high_watermark(), reference.high_watermark(), "{what}");
                assert_eq!(
                    pool.largest_free_block(),
                    reference.largest_free_block(),
                    "{what}"
                );
                assert!(
                    mem.backing_bytes() <= pool.high_watermark(),
                    "{what}: {} backing bytes over a {}-byte peak",
                    mem.backing_bytes(),
                    pool.high_watermark()
                );
                let live_bytes: u64 = mem.buffers.values().map(|b| b.len() as u64 * 8).sum();
                let spare_bytes: u64 = mem
                    .spares
                    .values()
                    .flatten()
                    .map(|b| b.len() as u64 * 8)
                    .sum();
                assert_eq!(mem.backing_bytes(), live_bytes + spare_bytes, "{what}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate buffer")]
    fn duplicate_bind_panics() {
        let mut m = DeviceMemory::new(1024);
        let a = m.alloc_elems(4).unwrap();
        let _ = m.buffers_mut(&[a, a]);
    }

    #[test]
    #[should_panic(expected = "unknown device buffer")]
    fn unknown_buffer_access_panics() {
        let mut m = DeviceMemory::new(1024);
        let a = m.alloc_elems(4).unwrap();
        m.dealloc(a);
        let _ = m.buffer(a);
    }
}

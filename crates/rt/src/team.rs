//! The runtime's thread team and what it counts.
//!
//! One [`TeamPool`] per runtime runs every kernel body and every bulk
//! host↔device byte move: a copy of at least
//! [`spread_teams::COPY_SPLIT_MIN`] elements is shared over the team
//! ([`TeamPool::copy`]), a smaller one stays on the calling thread. Each
//! move is counted by kind as it is made, in [`HostCounters`].

use std::cell::Cell;

use spread_teams::TeamPool;

/// Exact counts of the runtime's host-side byte moves, read through
/// [`Runtime::host_counters`](crate::Runtime::host_counters).
///
/// On a fault-free run without spill, `h2d_bytes` and `d2h_bytes` equal
/// the bytes of the timeline's host→device and device→host transfer
/// spans: each counts one copy per span, made by the span's effect or
/// its commit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostCounters {
    /// Bytes written from host arrays into device memory: host→device
    /// copies, a peer pull's host fallback and a spill slice's staging.
    pub h2d_bytes: u64,
    /// Bytes written into host arrays from device memory or a D2H
    /// snapshot: committed device→host copies and spill write-backs.
    pub d2h_bytes: u64,
    /// Bytes read out of device memory into a held copy: D2H snapshots
    /// and a spill slice's results.
    pub snapshot_bytes: u64,
    /// Copies (of any kind, peer pulls included) that the whole team
    /// shared rather than the calling thread alone.
    pub split_copies: u64,
}

/// The team plus its counters; the runtime keeps one behind an `Rc`.
pub(crate) struct Team {
    pub(crate) pool: TeamPool,
    counters: Cell<HostCounters>,
}

impl Team {
    pub(crate) fn new(threads: usize) -> Self {
        Team {
            pool: TeamPool::new(threads),
            counters: Cell::new(HostCounters::default()),
        }
    }

    pub(crate) fn counters(&self) -> HostCounters {
        self.counters.get()
    }

    /// Host array → device memory.
    pub(crate) fn h2d(&self, dst: &mut [f64], src: &[f64]) {
        self.tally(src.len(), |c, b| c.h2d_bytes += b);
        self.pool.copy(dst, src);
    }

    /// Device memory or a snapshot → host array.
    pub(crate) fn d2h(&self, dst: &mut [f64], src: &[f64]) {
        self.tally(src.len(), |c, b| c.d2h_bytes += b);
        self.pool.copy(dst, src);
    }

    /// Device memory → a held copy.
    pub(crate) fn snapshot(&self, src: &[f64]) -> Vec<f64> {
        self.tally(src.len(), |c, b| c.snapshot_bytes += b);
        self.pool.to_vec(src)
    }

    /// Device memory → another device's memory.
    pub(crate) fn peer(&self, dst: &mut [f64], src: &[f64]) {
        self.tally(src.len(), |_, _| {});
        self.pool.copy(dst, src);
    }

    /// Count one copy of `len` elements; `add` books its bytes.
    fn tally(&self, len: usize, add: impl FnOnce(&mut HostCounters, u64)) {
        let mut c = self.counters.get();
        add(&mut c, len as u64 * 8);
        c.split_copies += u64::from(self.pool.splits(len));
        self.counters.set(c);
    }
}

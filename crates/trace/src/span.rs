//! Spans and the trace recorder.
//!
//! Every timed activity in the simulation (a DMA copy, a kernel execution,
//! a host task, …) is recorded as a [`Span`]: an interval of virtual time on
//! a [`Lane`]. Lanes mirror the rows of an `nsys` timeline — one row per
//! device engine plus a host row.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

use crate::time::SimTime;

/// Identifier of a recorded span (dense, in recording order).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SpanId(pub u64);

/// Which hardware engine of a device a span occupies.
///
/// Real GPUs expose separate copy engines for each direction plus compute
/// queues; the paper's Figure 3 legends ("green and red" transfers, "blue"
/// kernels) correspond to exactly these three.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum EngineKind {
    /// Host-to-device copy engine.
    CopyIn,
    /// Device-to-host copy engine.
    CopyOut,
    /// Kernel execution engine.
    Compute,
    /// Peer (device-to-device) copy engine — pulls data from a sibling
    /// device over the NVLink/switch fabric. Spans live on the
    /// *destination* device's peer lane.
    PeerCopy,
}

impl EngineKind {
    /// Short label used by the renderer.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::CopyIn => "H2D",
            EngineKind::CopyOut => "D2H",
            EngineKind::Compute => "KRN",
            EngineKind::PeerCopy => "P2P",
        }
    }
}

/// A timeline row.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Lane {
    /// The host CPU (task scheduling, host tasks).
    Host,
    /// An engine of a particular device.
    Device {
        /// Physical device id.
        device: u32,
        /// Engine within the device.
        engine: EngineKind,
    },
}

impl Lane {
    /// Convenience constructor for a device compute lane.
    pub fn compute(device: u32) -> Lane {
        Lane::Device {
            device,
            engine: EngineKind::Compute,
        }
    }

    /// Convenience constructor for a device host-to-device copy lane.
    pub fn copy_in(device: u32) -> Lane {
        Lane::Device {
            device,
            engine: EngineKind::CopyIn,
        }
    }

    /// Convenience constructor for a device device-to-host copy lane.
    pub fn copy_out(device: u32) -> Lane {
        Lane::Device {
            device,
            engine: EngineKind::CopyOut,
        }
    }

    /// Convenience constructor for a device peer-copy lane (the
    /// *destination* side of a device-to-device transfer).
    pub fn peer(device: u32) -> Lane {
        Lane::Device {
            device,
            engine: EngineKind::PeerCopy,
        }
    }

    /// The device id, if this is a device lane.
    pub fn device(self) -> Option<u32> {
        match self {
            Lane::Host => None,
            Lane::Device { device, .. } => Some(device),
        }
    }

    /// The engine kind, if this is a device lane.
    pub fn engine(self) -> Option<EngineKind> {
        match self {
            Lane::Host => None,
            Lane::Device { engine, .. } => Some(engine),
        }
    }

    /// Human-readable row header, e.g. `GPU2 H2D` or `host`.
    pub fn header(self) -> String {
        match self {
            Lane::Host => "host".to_string(),
            Lane::Device { device, engine } => format!("GPU{} {}", device, engine.label()),
        }
    }
}

/// Semantic category of a span.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SpanKind {
    /// Host-to-device memory transfer.
    TransferIn,
    /// Device-to-host memory transfer.
    TransferOut,
    /// Device-to-device peer transfer (recorded on the destination
    /// device's peer lane; the label carries the source).
    PeerCopy,
    /// Kernel execution.
    Kernel,
    /// Host-side task body.
    HostTask,
    /// Synchronization wait (taskgroup/taskwait drain).
    Sync,
    /// An injected fault surfacing on an engine (zero-length marker).
    Fault,
    /// A retry backoff window after a transient fault.
    Retry,
    /// Recovery work: a lost device's chunk replayed on a survivor.
    Redistribute,
    /// Admission control modified a chunk's placement before launch
    /// (`admission_shrunk`).
    AdmissionShrink,
    /// A chunk piece produced by memory-pressure splitting
    /// (`chunk_split`).
    ChunkSplit,
    /// A chunk executed through the host staging path (`spilled_bytes`
    /// in the span's `bytes` field).
    Spill,
    /// A straggling chunk speculatively re-executed on a healthy
    /// sibling (straggler rescue).
    Rescue,
    /// An end-to-end digest verification failing at a trust boundary
    /// (zero-length marker: a silent corruption was caught).
    Verify,
    /// Corruption healed: the affected piece re-executed from the
    /// unharmed host image (or re-fetched over the host path).
    Heal,
    /// Anything else (allocation bookkeeping, …).
    Other,
}

impl SpanKind {
    /// Single-character glyph used by the ASCII Gantt renderer.
    pub fn glyph(self) -> char {
        match self {
            SpanKind::TransferIn => '>',
            SpanKind::TransferOut => '<',
            SpanKind::PeerCopy => '^',
            SpanKind::Kernel => '#',
            SpanKind::HostTask => '~',
            SpanKind::Sync => '|',
            SpanKind::Fault => 'X',
            SpanKind::Retry => 'r',
            SpanKind::Redistribute => 'R',
            SpanKind::AdmissionShrink => 'a',
            SpanKind::ChunkSplit => '/',
            SpanKind::Spill => 's',
            SpanKind::Rescue => '!',
            SpanKind::Verify => '?',
            SpanKind::Heal => 'H',
            SpanKind::Other => '.',
        }
    }

    /// True for any memory transfer (host-routed or peer).
    pub fn is_transfer(self) -> bool {
        matches!(
            self,
            SpanKind::TransferIn | SpanKind::TransferOut | SpanKind::PeerCopy
        )
    }
}

/// One recorded activity: `[start, end)` on a lane.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Identifier (dense, recording order).
    pub id: SpanId,
    /// Timeline row.
    pub lane: Lane,
    /// Semantic category.
    pub kind: SpanKind,
    /// Free-form label ("forces", "enter A\[0:100\]", …).
    pub label: String,
    /// Start instant (inclusive).
    pub start: SimTime,
    /// End instant (exclusive).
    pub end: SimTime,
    /// Bytes moved, for transfers.
    pub bytes: u64,
}

impl Span {
    /// Span length.
    pub fn duration(&self) -> crate::time::SimDuration {
        self.end - self.start
    }

    /// True if the span intersects the half-open window `[t0, t1)`.
    pub fn overlaps_window(&self, t0: SimTime, t1: SimTime) -> bool {
        self.start < t1 && self.end > t0
    }
}

/// Thread-safe collector of spans over append-only per-thread buffers.
///
/// Cheap to clone (it is an `Arc` underneath); the simulator and every
/// subsystem hold clones and push completed spans. Recording can be
/// disabled wholesale so benchmark runs that do not need traces pay only
/// an atomic load.
///
/// ## Hot-path layout
///
/// The recorder keeps one **append-only buffer per recording thread**
/// instead of a single shared `Mutex<Vec<Span>>`: the span hot path
/// takes one atomic load (`enabled`), one `fetch_add` for the dense
/// [`SpanId`], a thread-local buffer lookup, and an *uncontended* lock
/// on the calling thread's own buffer — no cross-thread contention, no
/// reallocation of a global vector under a shared lock. Buffers are
/// merged (and sorted by `(start, id)`) only at query time, so
/// [`snapshot`](TraceRecorder::snapshot) timelines are byte-identical
/// to the shared-recorder ones: ids are still allocated densely in
/// recording order, and the merge sort restores that order exactly.
#[derive(Clone)]
pub struct TraceRecorder {
    inner: Arc<Inner>,
}

/// One thread's append-only span buffer. Only the owning thread pushes;
/// the mutex exists so `snapshot`/`len`/`clear` can read from any
/// thread, and is uncontended on the recording path.
#[derive(Default)]
struct ThreadBuf {
    spans: Mutex<Vec<Span>>,
}

struct Inner {
    /// Every thread's buffer, registered on that thread's first record.
    buffers: Mutex<Vec<Arc<ThreadBuf>>>,
    /// Next [`SpanId`] — dense, in recording order, across all threads.
    next_id: AtomicU64,
    enabled: AtomicBool,
    /// Distinguishes this recorder in the thread-local buffer cache
    /// (unique per recorder, never reused).
    key: u64,
}

/// Source of unique recorder keys for the thread-local cache.
static RECORDER_KEYS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's buffer per live recorder, keyed by `Inner::key`.
    /// Weak so a dropped recorder's buffers do not leak across the many
    /// short-lived runtimes a fuzz run creates.
    static LOCAL_BUFS: RefCell<Vec<(u64, Weak<ThreadBuf>)>> = const { RefCell::new(Vec::new()) };
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// A new, enabled recorder.
    pub fn new() -> Self {
        TraceRecorder {
            inner: Arc::new(Inner {
                buffers: Mutex::new(Vec::new()),
                next_id: AtomicU64::new(0),
                enabled: AtomicBool::new(true),
                key: RECORDER_KEYS.fetch_add(1, Ordering::Relaxed),
            }),
        }
    }

    /// A recorder that discards everything.
    pub fn disabled() -> Self {
        let r = Self::new();
        r.set_enabled(false);
        r
    }

    /// Enable or disable recording.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether spans are currently being kept.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// The calling thread's buffer for this recorder, created and
    /// registered on first use.
    fn local_buf(&self) -> Arc<ThreadBuf> {
        let key = self.inner.key;
        LOCAL_BUFS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, weak)) = cache.iter().find(|(k, _)| *k == key) {
                if let Some(buf) = weak.upgrade() {
                    return buf;
                }
            }
            let buf = Arc::new(ThreadBuf::default());
            self.inner.buffers.lock().unwrap().push(Arc::clone(&buf));
            // Drop stale entries (dead recorders) while we hold the
            // cache anyway, then remember the new buffer.
            cache.retain(|(k, weak)| *k != key && weak.strong_count() > 0);
            cache.push((key, Arc::downgrade(&buf)));
            buf
        })
    }

    /// Record a completed span. Returns its id (or a dummy id when
    /// disabled).
    pub fn record(
        &self,
        lane: Lane,
        kind: SpanKind,
        label: impl Into<String>,
        start: SimTime,
        end: SimTime,
        bytes: u64,
    ) -> SpanId {
        if !self.is_enabled() {
            return SpanId(u64::MAX);
        }
        debug_assert!(end >= start, "span ends before it starts");
        let id = SpanId(self.inner.next_id.fetch_add(1, Ordering::Relaxed));
        let buf = self.local_buf();
        buf.spans.lock().unwrap().push(Span {
            id,
            lane,
            kind,
            label: label.into(),
            start,
            end,
            bytes,
        });
        id
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.inner
            .buffers
            .lock()
            .unwrap()
            .iter()
            .map(|b| b.spans.lock().unwrap().len())
            .sum()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the recorded spans, merged across every thread's buffer
    /// and sorted by start time, then id.
    pub fn snapshot(&self) -> Vec<Span> {
        let buffers = self.inner.buffers.lock().unwrap();
        let mut spans: Vec<Span> = buffers
            .iter()
            .flat_map(|b| b.spans.lock().unwrap().clone())
            .collect();
        drop(buffers);
        spans.sort_by_key(|s| (s.start, s.id));
        spans
    }

    /// Drop all recorded spans (ids restart from zero).
    pub fn clear(&self) {
        let buffers = self.inner.buffers.lock().unwrap();
        for b in buffers.iter() {
            b.spans.lock().unwrap().clear();
        }
        self.inner.next_id.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn record_and_snapshot_sorted() {
        let rec = TraceRecorder::new();
        rec.record(Lane::Host, SpanKind::HostTask, "b", t(10), t(20), 0);
        rec.record(Lane::Host, SpanKind::HostTask, "a", t(0), t(5), 0);
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].label, "a");
        assert_eq!(snap[1].label, "b");
    }

    #[test]
    fn disabled_recorder_discards() {
        let rec = TraceRecorder::disabled();
        rec.record(Lane::Host, SpanKind::Other, "x", t(0), t(1), 0);
        assert!(rec.is_empty());
        rec.set_enabled(true);
        rec.record(Lane::Host, SpanKind::Other, "y", t(0), t(1), 0);
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn clones_share_storage() {
        let rec = TraceRecorder::new();
        let rec2 = rec.clone();
        rec2.record(Lane::compute(0), SpanKind::Kernel, "k", t(0), t(1), 0);
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn multi_thread_records_merge_densely() {
        let rec = TraceRecorder::new();
        let mut handles = Vec::new();
        for th in 0..4u64 {
            let rec = rec.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..25u64 {
                    rec.record(
                        Lane::compute(th as u32),
                        SpanKind::Kernel,
                        format!("t{th}-{i}"),
                        t(i),
                        t(i + 1),
                        0,
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.len(), 100);
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 100);
        // Ids are dense across all threads' buffers.
        let mut ids: Vec<u64> = snap.iter().map(|s| s.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..100).collect::<Vec<_>>());
        // Clearing restarts the dense id sequence from zero.
        rec.clear();
        assert!(rec.is_empty());
        let id = rec.record(Lane::Host, SpanKind::Other, "again", t(0), t(1), 0);
        assert_eq!(id, SpanId(0));
    }

    #[test]
    fn window_overlap() {
        let rec = TraceRecorder::new();
        rec.record(Lane::Host, SpanKind::Other, "x", t(10), t(20), 0);
        let s = &rec.snapshot()[0];
        assert!(s.overlaps_window(t(0), t(11)));
        assert!(s.overlaps_window(t(19), t(100)));
        assert!(!s.overlaps_window(t(0), t(10))); // half-open: ends at start
        assert!(!s.overlaps_window(t(20), t(30)));
    }

    #[test]
    fn lane_headers() {
        assert_eq!(Lane::Host.header(), "host");
        assert_eq!(Lane::copy_in(2).header(), "GPU2 H2D");
        assert_eq!(Lane::copy_out(0).header(), "GPU0 D2H");
        assert_eq!(Lane::compute(3).header(), "GPU3 KRN");
        assert_eq!(Lane::peer(1).header(), "GPU1 P2P");
    }

    #[test]
    fn lane_accessors() {
        assert_eq!(Lane::Host.device(), None);
        assert_eq!(Lane::compute(1).device(), Some(1));
        assert_eq!(Lane::compute(1).engine(), Some(EngineKind::Compute));
        assert_eq!(Lane::peer(2).device(), Some(2));
        assert_eq!(Lane::peer(2).engine(), Some(EngineKind::PeerCopy));
        assert!(SpanKind::TransferIn.is_transfer());
        assert!(SpanKind::TransferOut.is_transfer());
        assert!(SpanKind::PeerCopy.is_transfer());
        assert!(!SpanKind::Kernel.is_transfer());
        assert!(!SpanKind::Fault.is_transfer());
    }

    #[test]
    fn fault_glyphs_are_distinct() {
        let glyphs = [
            SpanKind::Fault.glyph(),
            SpanKind::Retry.glyph(),
            SpanKind::Redistribute.glyph(),
            SpanKind::AdmissionShrink.glyph(),
            SpanKind::ChunkSplit.glyph(),
            SpanKind::Spill.glyph(),
            SpanKind::Rescue.glyph(),
            SpanKind::Verify.glyph(),
            SpanKind::Heal.glyph(),
            SpanKind::Kernel.glyph(),
            SpanKind::PeerCopy.glyph(),
            SpanKind::TransferIn.glyph(),
            SpanKind::TransferOut.glyph(),
        ];
        let set: std::collections::BTreeSet<char> = glyphs.into_iter().collect();
        assert_eq!(set.len(), glyphs.len());
    }
}

//! Per-device presence tables.
//!
//! The presence table tracks which host array sections are mapped on a
//! device, with OpenMP reference-count semantics:
//!
//! * Mapping a section already **contained** in a present entry reuses it
//!   (reference count + 1, *no* copy — OpenMP only copies on the
//!   transition from absent to present).
//! * Mapping a section that **overlaps** a present entry without being
//!   contained in it is an error: "the runtime will detect it as an
//!   explicit extension of an array, which is forbidden in OpenMP"
//!   (paper §V-B). This rule is why the Two Buffers and Double Buffering
//!   Somier versions need at least two GPUs: the round-robin spread
//!   schedule "makes sure there is always a gap between the array
//!   sections mapped to a particular device".
//! * Releasing the last reference starts the *dying* phase: the entry is
//!   unavailable for new mappings but its storage survives until the
//!   release transfer completes, when [`PresenceTable::finish_exit`]
//!   frees it.
//!
//! Under `debug_assertions` every table carries a **spec mirror**: a
//! `spread_semantics::DeviceMap` stepped through the same micro-rules
//! (`M-Reuse`/`M-Extend`/`M-Fresh`/`M-Keep`/`M-Dying`/`M-Free`/`M-Wipe`)
//! on every mutation, with the decisions asserted identical, plus a
//! [`PresenceTable::debug_validate`] full-state comparison the runtime
//! runs at every quiescence point. Release builds compile all of it
//! out.

use std::collections::BTreeMap;

use spread_devices::AllocId;

use crate::section::Section;

/// The spec's view of a runtime section.
#[cfg(debug_assertions)]
fn abs(s: &Section) -> spread_semantics::AbsSection {
    spread_semantics::AbsSection::new(s.array.0, s.start, s.len)
}

/// Stable key of a presence entry.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EntryKey(u64);

/// One mapped section on one device.
#[derive(Clone, Debug)]
pub struct MappedEntry {
    /// The mapped host section.
    pub section: Section,
    /// Backing device allocation.
    pub alloc: AllocId,
    /// Active references.
    pub refcount: u32,
    /// Release in flight: unavailable for reuse, storage still live.
    pub dying: bool,
}

/// Result of starting an enter-mapping.
#[derive(Debug, PartialEq, Eq)]
pub enum EnterDecision {
    /// The section is already present; reference count was incremented.
    /// No copy is performed.
    Reuse(EntryKey),
    /// The section is absent: the caller must allocate device storage and
    /// call [`PresenceTable::insert_fresh`], then copy if the map type
    /// requires it.
    Fresh,
}

/// Result of starting an exit-mapping.
#[derive(Debug, PartialEq, Eq)]
pub enum ExitDecision {
    /// References remain; nothing to do.
    Keep(EntryKey),
    /// Last reference released: the entry is now dying. The caller
    /// performs the `from` copy (if any) and then
    /// [`PresenceTable::finish_exit`].
    LastRef(EntryKey),
}

/// A mapping conflict discovered by the table (converted by the runtime
/// into an [`crate::RtError`] carrying the device id).
#[derive(Debug, PartialEq, Eq)]
pub enum MapConflict {
    /// Overlap-without-containment (array extension).
    Extension {
        /// The conflicting present section.
        present: Section,
    },
    /// Exit/update of something that isn't mapped.
    NotMapped,
}

/// The presence table of one device.
#[derive(Default)]
pub struct PresenceTable {
    entries: BTreeMap<EntryKey, MappedEntry>,
    next_key: u64,
    /// The `spread-semantics` twin of this table, mutated in lockstep.
    #[cfg(debug_assertions)]
    spec: spread_semantics::DeviceMap,
    /// Runtime entry key → spec entry id.
    #[cfg(debug_assertions)]
    spec_ids: std::collections::HashMap<EntryKey, u64>,
}

impl PresenceTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live (including dying) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over entries.
    pub fn iter(&self) -> impl Iterator<Item = (&EntryKey, &MappedEntry)> {
        self.entries.iter()
    }

    /// Access an entry by key.
    pub fn entry(&self, key: EntryKey) -> Option<&MappedEntry> {
        self.entries.get(&key)
    }

    /// Find the live (non-dying) entry containing `s`.
    pub fn lookup_containing(&self, s: &Section) -> Option<(EntryKey, &MappedEntry)> {
        self.entries
            .iter()
            .find(|(_, e)| !e.dying && e.section.contains(s))
            .map(|(&k, e)| (k, e))
    }

    /// Begin mapping `s` on enter. See [`EnterDecision`].
    pub fn begin_enter(&mut self, s: Section) -> Result<EnterDecision, MapConflict> {
        let decision = self.enter_impl(s);
        #[cfg(debug_assertions)]
        {
            use spread_semantics::{Conflict, EnterOutcome};
            match (&decision, self.spec.begin_enter(&abs(&s))) {
                (Ok(EnterDecision::Reuse(key)), Ok(EnterOutcome::Reuse(id))) => debug_assert_eq!(
                    self.spec_ids.get(key),
                    Some(&id),
                    "spec mirror: reuse of a different entry for {s}"
                ),
                (Ok(EnterDecision::Fresh), Ok(EnterOutcome::Fresh)) => {}
                (
                    Err(MapConflict::Extension { present }),
                    Err(Conflict::Extension { present: sp }),
                ) => debug_assert_eq!(
                    abs(present),
                    sp,
                    "spec mirror: extension blamed a different entry for {s}"
                ),
                (got, spec) => panic!("enter of {s} diverges from the spec: {got:?} vs {spec:?}"),
            }
        }
        decision
    }

    fn enter_impl(&mut self, s: Section) -> Result<EnterDecision, MapConflict> {
        if let Some((key, _)) = self.lookup_containing(&s) {
            let e = self.entries.get_mut(&key).expect("just found");
            e.refcount += 1;
            return Ok(EnterDecision::Reuse(key));
        }
        if let Some((_, e)) = self.entries.iter().find(|(_, e)| e.section.overlaps(&s)) {
            return Err(MapConflict::Extension { present: e.section });
        }
        Ok(EnterDecision::Fresh)
    }

    /// Insert a fresh entry (refcount 1) after a [`EnterDecision::Fresh`].
    pub fn insert_fresh(&mut self, section: Section, alloc: AllocId) -> EntryKey {
        debug_assert!(
            !self.entries.values().any(|e| e.section.overlaps(&section)),
            "insert_fresh would overlap an existing entry"
        );
        let key = EntryKey(self.next_key);
        self.next_key += 1;
        self.entries.insert(
            key,
            MappedEntry {
                section,
                alloc,
                refcount: 1,
                dying: false,
            },
        );
        #[cfg(debug_assertions)]
        {
            let id = self.spec.insert_fresh(abs(&section), None);
            self.spec_ids.insert(key, id);
        }
        key
    }

    /// Begin releasing `s`. `force_delete` implements `map(delete: …)`.
    pub fn begin_exit(
        &mut self,
        s: &Section,
        force_delete: bool,
    ) -> Result<ExitDecision, MapConflict> {
        let decision = self.exit_impl(s, force_delete);
        #[cfg(debug_assertions)]
        {
            use spread_semantics::{Conflict, ExitOutcome};
            match (&decision, self.spec.begin_exit(&abs(s), force_delete)) {
                (Ok(ExitDecision::Keep(key)), Ok(ExitOutcome::Keep(id)))
                | (Ok(ExitDecision::LastRef(key)), Ok(ExitOutcome::LastRef(id))) => {
                    debug_assert_eq!(
                        self.spec_ids.get(key),
                        Some(&id),
                        "spec mirror: exit of a different entry for {s}"
                    )
                }
                (Err(MapConflict::NotMapped), Err(Conflict::NotMapped)) => {}
                (got, spec) => panic!("exit of {s} diverges from the spec: {got:?} vs {spec:?}"),
            }
        }
        decision
    }

    fn exit_impl(&mut self, s: &Section, force_delete: bool) -> Result<ExitDecision, MapConflict> {
        let Some((key, _)) = self.lookup_containing(s) else {
            return Err(MapConflict::NotMapped);
        };
        let e = self.entries.get_mut(&key).expect("just found");
        if force_delete {
            e.refcount = 0;
        } else {
            e.refcount -= 1;
        }
        if e.refcount == 0 {
            e.dying = true;
            Ok(ExitDecision::LastRef(key))
        } else {
            Ok(ExitDecision::Keep(key))
        }
    }

    /// Remove a dying entry, returning its allocation for deallocation.
    /// Returns `None` when the entry is already gone — a device-loss
    /// wipe may race with an in-flight release transfer, and the late
    /// completion must not be fatal.
    pub fn finish_exit(&mut self, key: EntryKey) -> Option<AllocId> {
        let Some(e) = self.entries.remove(&key) else {
            #[cfg(debug_assertions)]
            debug_assert!(
                !self.spec_ids.contains_key(&key),
                "spec mirror: runtime entry gone but spec entry survives"
            );
            return None;
        };
        debug_assert!(e.dying, "finish_exit of a live entry");
        #[cfg(debug_assertions)]
        {
            let id = self.spec_ids.remove(&key).expect("spec id for every entry");
            let se = self.spec.commit_exit(id);
            debug_assert!(se.is_some(), "spec mirror: free of an absent spec entry");
        }
        Some(e.alloc)
    }

    /// Drop every entry (live and dying) without returning allocations —
    /// the wipe after a permanent device loss, where the backing memory
    /// is gone wholesale anyway.
    pub fn clear(&mut self) {
        self.entries.clear();
        #[cfg(debug_assertions)]
        {
            self.spec.clear();
            self.spec_ids.clear();
        }
    }

    /// Total elements currently mapped (incl. dying).
    pub fn mapped_elems(&self) -> usize {
        self.entries.values().map(|e| e.section.len).sum()
    }

    /// Assert the whole table equals its `spread-semantics` mirror —
    /// every entry's section, reference count and dying phase. The
    /// runtime calls this at every quiescence point, so every test run
    /// validates the live mapping state against the spec; release
    /// builds compile it to a no-op.
    pub fn debug_validate(&self) {
        #[cfg(debug_assertions)]
        {
            assert_eq!(
                self.entries.len(),
                self.spec.iter().count(),
                "spec mirror: entry count diverges"
            );
            for (key, e) in &self.entries {
                let id = self
                    .spec_ids
                    .get(key)
                    .unwrap_or_else(|| panic!("spec mirror: no spec id for {key:?}"));
                let se = self
                    .spec
                    .entry(*id)
                    .unwrap_or_else(|| panic!("spec mirror: no spec entry for {key:?}"));
                assert_eq!(abs(&e.section), se.section, "spec mirror: section diverges");
                assert_eq!(
                    e.refcount, se.refcount,
                    "spec mirror: refcount diverges for {}",
                    e.section
                );
                assert_eq!(
                    e.dying, se.dying,
                    "spec mirror: dying phase diverges for {}",
                    e.section
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::section::ArrayId;
    use spread_devices::MemoryPool;

    const A: ArrayId = ArrayId(0);

    fn s(start: usize, len: usize) -> Section {
        Section::new(A, start, len)
    }

    fn alloc_for(pool: &mut MemoryPool, sec: &Section) -> AllocId {
        pool.alloc(sec.len as u64 * 8).unwrap()
    }

    #[test]
    fn fresh_then_reuse_then_exit() {
        let mut t = PresenceTable::new();
        let mut pool = MemoryPool::new(1 << 20);
        let sec = s(0, 100);
        assert_eq!(t.begin_enter(sec), Ok(EnterDecision::Fresh));
        let a = alloc_for(&mut pool, &sec);
        let key = t.insert_fresh(sec, a);
        // Re-entering the same (or a contained) section reuses.
        assert_eq!(t.begin_enter(sec), Ok(EnterDecision::Reuse(key)));
        assert_eq!(t.begin_enter(s(10, 20)), Ok(EnterDecision::Reuse(key)));
        assert_eq!(t.entry(key).unwrap().refcount, 3);
        // Three exits: two keeps, then last-ref.
        assert_eq!(t.begin_exit(&sec, false), Ok(ExitDecision::Keep(key)));
        assert_eq!(t.begin_exit(&s(10, 20), false), Ok(ExitDecision::Keep(key)));
        assert_eq!(t.begin_exit(&sec, false), Ok(ExitDecision::LastRef(key)));
        assert!(t.entry(key).unwrap().dying);
        let freed = t.finish_exit(key);
        assert_eq!(freed, Some(a));
        assert!(t.is_empty());
        // A second finish (post-wipe race) reports the entry gone.
        assert_eq!(t.finish_exit(key), None);
    }

    #[test]
    fn clear_wipes_live_and_dying_entries() {
        let mut t = PresenceTable::new();
        let mut pool = MemoryPool::new(1 << 20);
        for sec in [s(0, 10), s(20, 5)] {
            t.begin_enter(sec).unwrap();
            let a = alloc_for(&mut pool, &sec);
            t.insert_fresh(sec, a);
        }
        t.begin_exit(&s(0, 10), false).unwrap(); // one dying
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.mapped_elems(), 0);
        // Freed space is mappable again.
        assert_eq!(t.begin_enter(s(5, 20)), Ok(EnterDecision::Fresh));
    }

    #[test]
    fn extension_is_forbidden() {
        let mut t = PresenceTable::new();
        let mut pool = MemoryPool::new(1 << 20);
        let sec = s(10, 10);
        t.begin_enter(sec).unwrap();
        let a = alloc_for(&mut pool, &sec);
        t.insert_fresh(sec, a);
        // Overlapping-but-not-contained requests fail in every direction.
        for bad in [
            s(5, 10),
            s(15, 10),
            s(5, 20),
            s(19, 1).intersection(&s(0, 100)).unwrap(),
        ] {
            if sec.contains(&bad) {
                continue;
            }
            let err = t.begin_enter(bad).unwrap_err();
            assert_eq!(err, MapConflict::Extension { present: sec }, "{bad}");
        }
        // A superset of the present section is also an extension.
        assert!(t.begin_enter(s(0, 100)).is_err());
        // Disjoint is fine.
        assert_eq!(t.begin_enter(s(30, 5)), Ok(EnterDecision::Fresh));
    }

    #[test]
    fn halo_gap_rule() {
        // The paper's round-robin argument: chunks with ±1 halos on the
        // same device are legal iff a gap remains between them.
        let mut t = PresenceTable::new();
        let mut pool = MemoryPool::new(1 << 20);
        // Device gets chunk [0,4) with halo → [0,5) (clamped at 0), and
        // chunk [8,12) with halo → [7,13): gap [5,7) ⇒ both map fine.
        for sec in [s(0, 5), s(7, 6)] {
            assert_eq!(t.begin_enter(sec), Ok(EnterDecision::Fresh));
            let a = alloc_for(&mut pool, &sec);
            t.insert_fresh(sec, a);
        }
        // One device only (chunks adjacent): [0,5) then halo'd [3,7)
        // overlaps ⇒ the 1-GPU Two Buffers failure.
        assert!(matches!(
            t.begin_enter(s(3, 4)),
            Err(MapConflict::Extension { .. })
        ));
    }

    #[test]
    fn dying_entries_block_reuse_and_extension() {
        let mut t = PresenceTable::new();
        let mut pool = MemoryPool::new(1 << 20);
        let sec = s(0, 10);
        t.begin_enter(sec).unwrap();
        let a = alloc_for(&mut pool, &sec);
        let key = t.insert_fresh(sec, a);
        assert_eq!(t.begin_exit(&sec, false), Ok(ExitDecision::LastRef(key)));
        // While dying: not reusable…
        assert!(t.lookup_containing(&sec).is_none());
        // …and overlapping it is still an extension error.
        assert!(t.begin_enter(s(5, 10)).is_err());
        // Exit of a dying entry is NotMapped.
        assert_eq!(t.begin_exit(&sec, false), Err(MapConflict::NotMapped));
        t.finish_exit(key);
        // After completion the space is free again.
        assert_eq!(t.begin_enter(s(5, 10)), Ok(EnterDecision::Fresh));
    }

    #[test]
    fn delete_forces_last_ref() {
        let mut t = PresenceTable::new();
        let mut pool = MemoryPool::new(1 << 20);
        let sec = s(0, 10);
        t.begin_enter(sec).unwrap();
        let a = alloc_for(&mut pool, &sec);
        let key = t.insert_fresh(sec, a);
        t.begin_enter(sec).unwrap(); // refcount 2
        assert_eq!(t.begin_exit(&sec, true), Ok(ExitDecision::LastRef(key)));
    }

    #[test]
    fn exit_of_unmapped_fails() {
        let mut t = PresenceTable::new();
        assert_eq!(t.begin_exit(&s(0, 10), false), Err(MapConflict::NotMapped));
    }

    #[test]
    fn mapped_elems_accounting() {
        let mut t = PresenceTable::new();
        let mut pool = MemoryPool::new(1 << 20);
        for sec in [s(0, 10), s(20, 5)] {
            t.begin_enter(sec).unwrap();
            let a = alloc_for(&mut pool, &sec);
            t.insert_fresh(sec, a);
        }
        assert_eq!(t.mapped_elems(), 15);
        assert_eq!(t.len(), 2);
    }
}

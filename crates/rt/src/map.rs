//! `map` clause types.

use std::ops::Range;

use crate::host::HostArray;
use crate::section::Section;

/// The map type of one `map(type: section)` item.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MapType {
    /// `map(to: …)` — copy host→device when the mapping is created.
    To,
    /// `map(from: …)` — copy device→host when the mapping is released.
    From,
    /// `map(tofrom: …)` — both.
    ToFrom,
    /// `map(alloc: …)` — allocate only, no copies.
    Alloc,
    /// `map(release: …)` — decrement the reference count, no copy
    /// (exit-data only).
    Release,
    /// `map(delete: …)` — force the mapping away regardless of reference
    /// count (exit-data only).
    Delete,
}

impl MapType {
    /// Does entering this mapping copy host→device (on a fresh mapping)?
    pub fn copies_in(self) -> bool {
        matches!(self, MapType::To | MapType::ToFrom)
    }

    /// Does releasing this mapping copy device→host?
    pub fn copies_out(self) -> bool {
        matches!(self, MapType::From | MapType::ToFrom)
    }

    /// Valid on `target enter data`?
    pub fn valid_on_enter(self) -> bool {
        matches!(self, MapType::To | MapType::Alloc | MapType::ToFrom)
    }

    /// Valid on `target exit data`?
    pub fn valid_on_exit(self) -> bool {
        matches!(
            self,
            MapType::From | MapType::Release | MapType::Delete | MapType::ToFrom
        )
    }

    /// What leaving a construct or data region does with a mapping of
    /// this type: copy back (`from`), drop a reference (`release`) or
    /// drop the mapping (`delete`). Identity on those three.
    pub(crate) fn on_exit(self) -> MapType {
        match self {
            MapType::From | MapType::ToFrom => MapType::From,
            MapType::To | MapType::Alloc => MapType::Release,
            MapType::Release | MapType::Delete => self,
        }
    }
}

/// One item of a `map` clause: a typed array section.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MapClause {
    /// The map type.
    pub map_type: MapType,
    /// The mapped section.
    pub section: Section,
}

impl MapClause {
    /// Construct from a handle and element range.
    pub fn new(map_type: MapType, array: HostArray, range: Range<usize>) -> Self {
        MapClause {
            map_type,
            section: array.section(range),
        }
    }
}

/// `map(to: a[range])`.
pub fn to(array: HostArray, range: Range<usize>) -> MapClause {
    MapClause::new(MapType::To, array, range)
}

/// `map(from: a[range])`.
pub fn from(array: HostArray, range: Range<usize>) -> MapClause {
    MapClause::new(MapType::From, array, range)
}

/// `map(tofrom: a[range])`.
pub fn tofrom(array: HostArray, range: Range<usize>) -> MapClause {
    MapClause::new(MapType::ToFrom, array, range)
}

/// `map(alloc: a[range])`.
pub fn alloc(array: HostArray, range: Range<usize>) -> MapClause {
    MapClause::new(MapType::Alloc, array, range)
}

/// `map(release: a[range])`.
pub fn release(array: HostArray, range: Range<usize>) -> MapClause {
    MapClause::new(MapType::Release, array, range)
}

/// `map(delete: a[range])`.
pub fn delete(array: HostArray, range: Range<usize>) -> MapClause {
    MapClause::new(MapType::Delete, array, range)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostRegistry;

    #[test]
    fn helpers_build_sections() {
        let mut reg = HostRegistry::new();
        let a = reg.register("A", 100);
        let m = to(a, 10..20);
        assert_eq!(m.map_type, MapType::To);
        assert_eq!(m.section, a.section(10..20));
        assert_eq!(from(a, 0..5).map_type, MapType::From);
        assert_eq!(tofrom(a, 0..5).map_type, MapType::ToFrom);
        assert_eq!(alloc(a, 0..5).map_type, MapType::Alloc);
    }

    #[test]
    fn direction_predicates() {
        assert!(MapType::To.copies_in());
        assert!(MapType::ToFrom.copies_in());
        assert!(!MapType::From.copies_in());
        assert!(!MapType::Alloc.copies_in());
        assert!(MapType::From.copies_out());
        assert!(MapType::ToFrom.copies_out());
        assert!(!MapType::To.copies_out());
        assert!(!MapType::Release.copies_out());
        assert!(!MapType::Delete.copies_out());
    }

    #[test]
    fn directive_validity() {
        assert!(MapType::To.valid_on_enter());
        assert!(MapType::Alloc.valid_on_enter());
        assert!(!MapType::From.valid_on_enter());
        assert!(!MapType::Release.valid_on_enter());
        assert!(MapType::From.valid_on_exit());
        assert!(MapType::Release.valid_on_exit());
        assert!(MapType::Delete.valid_on_exit());
        assert!(!MapType::To.valid_on_exit());
    }
}

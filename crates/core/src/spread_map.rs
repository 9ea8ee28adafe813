//! Spread map clauses: map items whose sections are expressions over the
//! spread placeholders.

use std::ops::Range;
use std::rc::Rc;

use spread_rt::map::MapType;
use spread_rt::{HostArray, MapClause};

use crate::chunk::ChunkCtx;

/// A section expression over the spread placeholders.
pub type SectionOf = Rc<dyn Fn(ChunkCtx) -> Range<usize>>;

/// One `map(type: array[expr(omp_spread_start, omp_spread_size)])` item.
#[derive(Clone)]
pub struct SpreadMap {
    /// The map type.
    pub map_type: MapType,
    /// The mapped array.
    pub array: HostArray,
    /// Section expression evaluated per chunk.
    pub expr: SectionOf,
}

impl SpreadMap {
    /// Build a map item from a closure over the chunk context.
    pub fn new(
        map_type: MapType,
        array: HostArray,
        expr: impl Fn(ChunkCtx) -> Range<usize> + 'static,
    ) -> Self {
        SpreadMap {
            map_type,
            array,
            expr: Rc::new(expr),
        }
    }

    /// Evaluate into a concrete [`MapClause`] for one chunk.
    pub fn at(&self, chunk: ChunkCtx) -> MapClause {
        MapClause::new(self.map_type, self.array, (self.expr)(chunk))
    }
}

/// `map(to: a[expr])`.
pub fn spread_to(array: HostArray, expr: impl Fn(ChunkCtx) -> Range<usize> + 'static) -> SpreadMap {
    SpreadMap::new(MapType::To, array, expr)
}

/// `map(from: a[expr])`.
pub fn spread_from(
    array: HostArray,
    expr: impl Fn(ChunkCtx) -> Range<usize> + 'static,
) -> SpreadMap {
    SpreadMap::new(MapType::From, array, expr)
}

/// `map(tofrom: a[expr])`.
pub fn spread_tofrom(
    array: HostArray,
    expr: impl Fn(ChunkCtx) -> Range<usize> + 'static,
) -> SpreadMap {
    SpreadMap::new(MapType::ToFrom, array, expr)
}

/// `map(alloc: a[expr])`.
pub fn spread_alloc(
    array: HostArray,
    expr: impl Fn(ChunkCtx) -> Range<usize> + 'static,
) -> SpreadMap {
    SpreadMap::new(MapType::Alloc, array, expr)
}

/// `map(release: a[expr])` (exit-data only).
pub fn spread_release(
    array: HostArray,
    expr: impl Fn(ChunkCtx) -> Range<usize> + 'static,
) -> SpreadMap {
    SpreadMap::new(MapType::Release, array, expr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spread_devices::Topology;
    use spread_rt::map::to;
    use spread_rt::{Runtime, RuntimeConfig};

    fn any_array() -> HostArray {
        let mut rt = Runtime::new(RuntimeConfig::new(Topology::ctepower(1)).with_trace(false));
        rt.host_array("A", 100)
    }

    #[test]
    fn listing3_maps_evaluate_per_chunk() {
        let a = any_array();
        // map(to: A[omp_spread_start-1 : omp_spread_size+2])
        let m = spread_to(a, |c| c.start() - 1..c.end() + 1);
        let clause = m.at(ChunkCtx::new(5, 4));
        assert_eq!(clause, to(a, 4..10));
        let clause2 = m.at(ChunkCtx::new(9, 4));
        assert_eq!(clause2, to(a, 8..14));
    }

    #[test]
    fn identity_map() {
        let a = any_array();
        // map(from: B[omp_spread_start : omp_spread_size])
        let m = spread_from(a, |c| c.range());
        let clause = m.at(ChunkCtx::new(0, 7));
        assert_eq!(clause.section, a.section(0..7));
        assert_eq!(clause.map_type, MapType::From);
    }

    #[test]
    fn all_constructors() {
        let a = any_array();
        assert_eq!(spread_to(a, |c| c.range()).map_type, MapType::To);
        assert_eq!(spread_from(a, |c| c.range()).map_type, MapType::From);
        assert_eq!(spread_tofrom(a, |c| c.range()).map_type, MapType::ToFrom);
        assert_eq!(spread_alloc(a, |c| c.range()).map_type, MapType::Alloc);
        assert_eq!(spread_release(a, |c| c.range()).map_type, MapType::Release);
    }
}

//! Array sections — the `A[start:len]` notation of the `map`, `depend`
//! and `range` clauses — and their overlap algebra.

use std::fmt;
use std::ops::Range;

/// Identifier of a registered host array.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ArrayId(pub u32);

/// A contiguous element range of one array: `array[start : len]`
/// (OpenMP array-section syntax: start and *length*).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Section {
    /// The array.
    pub array: ArrayId,
    /// First element.
    pub start: usize,
    /// Number of elements.
    pub len: usize,
}

impl Section {
    /// `array[start:len]`.
    pub fn new(array: ArrayId, start: usize, len: usize) -> Self {
        Section { array, start, len }
    }

    /// Build from a `Range` of element indexes.
    pub fn from_range(array: ArrayId, range: Range<usize>) -> Self {
        Section {
            array,
            start: range.start,
            len: range.end.saturating_sub(range.start),
        }
    }

    /// One-past-the-end element.
    pub fn end(&self) -> usize {
        self.start + self.len
    }

    /// The element range.
    pub fn range(&self) -> Range<usize> {
        self.start..self.end()
    }

    /// True if the section has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if both sections are on the same array and share at least one
    /// element.
    pub fn overlaps(&self, other: &Section) -> bool {
        self.array == other.array
            && !self.is_empty()
            && !other.is_empty()
            && self.start < other.end()
            && other.start < self.end()
    }

    /// True if `other` lies entirely within `self` (same array). Empty
    /// sections are contained in anything on the same array whose range
    /// brackets their start point; for simplicity an empty `other` is
    /// contained iff its start is within `[start, end]`.
    pub fn contains(&self, other: &Section) -> bool {
        self.array == other.array && other.start >= self.start && other.end() <= self.end()
    }

    /// The overlapping sub-section, if any.
    pub fn intersection(&self, other: &Section) -> Option<Section> {
        if !self.overlaps(other) {
            return None;
        }
        let start = self.start.max(other.start);
        let end = self.end().min(other.end());
        Some(Section::new(self.array, start, end - start))
    }
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "arr{}[{}:{}]", self.array.0, self.start, self.len)
    }
}

impl fmt::Debug for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Section({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ArrayId = ArrayId(0);
    const B: ArrayId = ArrayId(1);

    fn s(start: usize, len: usize) -> Section {
        Section::new(A, start, len)
    }

    #[test]
    // A reversed range is deliberately passed to check it clamps to empty.
    #[allow(clippy::reversed_empty_ranges)]
    fn basic_accessors() {
        let x = s(10, 5);
        assert_eq!(x.end(), 15);
        assert_eq!(x.range(), 10..15);
        assert!(!x.is_empty());
        assert!(s(3, 0).is_empty());
        assert_eq!(Section::from_range(A, 4..9), s(4, 5));
        assert_eq!(Section::from_range(A, 9..4).len, 0);
    }

    #[test]
    fn overlap_cases() {
        assert!(s(0, 10).overlaps(&s(9, 5)));
        assert!(s(9, 5).overlaps(&s(0, 10)));
        assert!(!s(0, 10).overlaps(&s(10, 5)), "adjacent is not overlap");
        assert!(
            !s(0, 10).overlaps(&Section::new(B, 0, 10)),
            "different arrays"
        );
        assert!(!s(0, 0).overlaps(&s(0, 10)), "empty never overlaps");
        assert!(s(5, 1).overlaps(&s(0, 10)));
    }

    #[test]
    fn containment() {
        assert!(s(0, 10).contains(&s(2, 5)));
        assert!(s(0, 10).contains(&s(0, 10)));
        assert!(!s(0, 10).contains(&s(5, 10)));
        assert!(!s(0, 10).contains(&Section::new(B, 2, 5)));
    }

    #[test]
    fn intersection() {
        assert_eq!(s(0, 10).intersection(&s(5, 10)), Some(s(5, 5)));
        assert_eq!(s(0, 10).intersection(&s(10, 5)), None);
        assert_eq!(s(0, 10).intersection(&Section::new(B, 5, 10)), None);
    }

    #[test]
    fn display() {
        assert_eq!(s(3, 7).to_string(), "arr0[3:7]");
    }
}

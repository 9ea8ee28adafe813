//! The host array registry.
//!
//! Host arrays are owned by the runtime and addressed through cheap
//! [`HostArray`] handles (the reproduction's stand-in for C pointers in
//! `map` clauses). Storage is `Rc<RefCell<Vec<f64>>>` — the orchestration
//! layer is single-threaded (the DES), and transfer effects borrow
//! individual arrays for the duration of one memcpy.

use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

use crate::section::{ArrayId, Section};

/// Handle to a registered host array.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct HostArray {
    pub(crate) id: ArrayId,
    pub(crate) len: usize,
}

impl HostArray {
    /// The array's id.
    pub fn id(&self) -> ArrayId {
        self.id
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the array has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A section of this array from an element range.
    pub fn section(&self, range: Range<usize>) -> Section {
        Section::from_range(self.id, range)
    }

    /// The whole array as a section.
    pub fn full(&self) -> Section {
        Section::new(self.id, 0, self.len)
    }
}

/// Owns every host array.
#[derive(Default)]
pub struct HostRegistry {
    arrays: Vec<Rc<RefCell<Vec<f64>>>>,
    /// Shared so a copy label can name its array without copying it.
    names: Vec<Rc<str>>,
}

impl HostRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a zero-initialized array.
    pub fn register(&mut self, name: impl Into<String>, len: usize) -> HostArray {
        let id = ArrayId(self.arrays.len() as u32);
        self.arrays.push(Rc::new(RefCell::new(vec![0.0; len])));
        self.names.push(name.into().into());
        HostArray { id, len }
    }

    /// Name of an array.
    pub fn name(&self, id: ArrayId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Name of an array, as a handle a label can keep.
    pub(crate) fn shared_name(&self, id: ArrayId) -> Rc<str> {
        Rc::clone(&self.names[id.0 as usize])
    }

    /// Shared storage handle for one array (used by transfer effects).
    pub fn storage(&self, id: ArrayId) -> Rc<RefCell<Vec<f64>>> {
        Rc::clone(&self.arrays[id.0 as usize])
    }

    /// Read a copy of an array's contents.
    pub fn snapshot(&self, h: HostArray) -> Vec<f64> {
        self.arrays[h.id.0 as usize].borrow().clone()
    }

    /// Overwrite an array's contents via an index function.
    pub fn fill_with(&self, h: HostArray, f: impl Fn(usize) -> f64) {
        let mut a = self.arrays[h.id.0 as usize].borrow_mut();
        for (i, v) in a.iter_mut().enumerate() {
            *v = f(i);
        }
    }

    /// Run `f` with an immutable view of the array.
    pub fn with<R>(&self, h: HostArray, f: impl FnOnce(&[f64]) -> R) -> R {
        f(&self.arrays[h.id.0 as usize].borrow())
    }

    /// Run `f` with a mutable view of the array.
    pub fn with_mut<R>(&self, h: HostArray, f: impl FnOnce(&mut [f64]) -> R) -> R {
        f(&mut self.arrays[h.id.0 as usize].borrow_mut())
    }

    /// Number of registered arrays.
    pub fn len(&self) -> usize {
        self.arrays.len()
    }

    /// True if no arrays are registered.
    pub fn is_empty(&self) -> bool {
        self.arrays.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_access() {
        let mut reg = HostRegistry::new();
        let a = reg.register("A", 10);
        let b = reg.register("B", 5);
        assert_eq!(reg.len(), 2);
        assert_eq!(a.len(), 10);
        assert_eq!(reg.name(a.id()), "A");
        assert_eq!(reg.name(b.id()), "B");
        reg.fill_with(a, |i| i as f64);
        assert_eq!(reg.snapshot(a)[7], 7.0);
        assert!(reg.snapshot(b).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn sections_from_handles() {
        let mut reg = HostRegistry::new();
        let a = reg.register("A", 10);
        assert_eq!(a.section(2..6), Section::new(a.id(), 2, 4));
        assert_eq!(a.full(), Section::new(a.id(), 0, 10));
    }

    #[test]
    fn storage_is_shared() {
        let mut reg = HostRegistry::new();
        let a = reg.register("A", 4);
        let s = reg.storage(a.id());
        s.borrow_mut()[2] = 9.0;
        assert_eq!(reg.snapshot(a)[2], 9.0);
    }

    #[test]
    fn with_accessors() {
        let mut reg = HostRegistry::new();
        let a = reg.register("A", 4);
        reg.with_mut(a, |s| s[0] = 3.0);
        let v = reg.with(a, |s| s[0]);
        assert_eq!(v, 3.0);
    }

    #[test]
    fn empty_array() {
        let mut reg = HostRegistry::new();
        let a = reg.register("empty", 0);
        assert!(a.is_empty());
        assert!(reg.snapshot(a).is_empty());
    }
}

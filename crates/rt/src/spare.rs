//! Emptied vectors kept for reuse.

/// Vectors a [`Spares`] keeps at most: more than a narrow graph ever has
/// in use at once (a 16-chunk construct keeps 48 tasks alive), while a
/// wide graph's peak goes back to the allocator instead of staying
/// resident.
const KEPT: usize = 256;

/// Emptied vectors of one element type, handed out again so a steady
/// stream of tasks, plans and launches allocates none once they have
/// grown.
pub(crate) struct Spares<T>(Vec<Vec<T>>);

impl<T> Default for Spares<T> {
    fn default() -> Self {
        Spares(Vec::new())
    }
}

impl<T> Spares<T> {
    /// An empty vector: a kept one when there is one.
    pub(crate) fn take(&mut self) -> Vec<T> {
        self.0.pop().unwrap_or_default()
    }

    /// Keep `v`, emptied, unless it never allocated or enough are kept.
    pub(crate) fn keep(&mut self, mut v: Vec<T>) {
        if v.capacity() > 0 && self.0.len() < KEPT {
            v.clear();
            self.0.push(v);
        }
    }
}

//! First-commit-wins commit arbitration for speculative execution.
//!
//! A straggler rescue runs the *same* chunk twice — once on the lagging
//! device, once on a healthy sibling — and both copies end in a staged
//! D2H exit that wants to write the chunk's host section. A
//! [`CommitGate`] shared by the two exits decides which one lands:
//! the first exit to finish commits its staged writes; the loser's
//! staged snapshot is discarded (its presence cleanup still runs, so
//! device memory never leaks).
//!
//! Determinism: in a correct run both copies compute bit-identical
//! bytes, so *which* copy wins cannot change host memory. The recorded
//! winner identity is still made schedule-independent for the
//! conformance harness: when both commits arrive at the same virtual
//! instant (a tie the seeded tie-break permutes), the lower copy index
//! is recorded as the winner regardless of arrival order — without a
//! second write, because the bytes already match.

use std::cell::RefCell;
use std::rc::Rc;

use spread_trace::SimTime;

#[derive(Debug, Default)]
struct GateState {
    /// `(copy, commit instant)` of the recorded winner.
    winner: Option<(u32, SimTime)>,
    /// Staged-write sets actually drained to host memory. Exactly 1 in
    /// any correct run that reached its exit(s).
    commits: u32,
    /// Copies barred from committing: the cancelled half of a steal,
    /// and/or any copy whose staged bytes failed digest verification
    /// (`spread_integrity`). A set, because both can happen to the same
    /// gate — a stolen original *and* a corrupted rescue.
    disqualified: Vec<u32>,
    /// Index of this gate's rescue in the run ledger, set when
    /// a rescue is actually launched.
    log_idx: Option<usize>,
}

/// Shared first-commit-wins gate (cheap to clone; all clones arbitrate
/// the same decision).
#[derive(Clone, Debug, Default)]
pub struct CommitGate {
    inner: Rc<RefCell<GateState>>,
}

impl CommitGate {
    /// A fresh gate with no winner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arbitrate one commit attempt by `copy` at `now`. Returns whether
    /// this copy's staged writes should be drained to host memory.
    ///
    /// First caller wins. A later caller at the *same instant* with a
    /// lower copy index takes over the recorded winner identity (the
    /// deterministic tie-break) but still returns `false` — the bytes
    /// are identical, so no second write is needed.
    pub fn try_commit(&self, now: SimTime, copy: u32) -> bool {
        let mut st = self.inner.borrow_mut();
        if st.disqualified.contains(&copy) {
            return false;
        }
        match st.winner {
            None => {
                st.winner = Some((copy, now));
                st.commits += 1;
                true
            }
            Some((w, at)) => {
                if at == now && copy < w {
                    st.winner = Some((copy, now));
                }
                false
            }
        }
    }

    /// Bar `copy` from ever committing (its work was cancelled, or its
    /// staged bytes failed digest verification). Cumulative: each call
    /// adds to the barred set.
    pub fn disqualify(&self, copy: u32) {
        let mut st = self.inner.borrow_mut();
        if !st.disqualified.contains(&copy) {
            st.disqualified.push(copy);
        }
    }

    /// Whether `copy` is barred from committing.
    pub fn is_disqualified(&self, copy: u32) -> bool {
        self.inner.borrow().disqualified.contains(&copy)
    }

    /// The recorded winner's copy index, if a commit has happened.
    pub fn winner(&self) -> Option<u32> {
        self.inner.borrow().winner.map(|(c, _)| c)
    }

    /// Number of staged-write sets actually drained through this gate.
    pub fn commits(&self) -> u32 {
        self.inner.borrow().commits
    }

    /// Attach this gate to a rescue in the run ledger (the index
    /// [`Scope::record`](crate::Scope::record) returned): the gate will
    /// fill in that record's `winner`/`commits` as the racing exits
    /// arrive.
    pub fn set_log_idx(&self, idx: usize) {
        self.inner.borrow_mut().log_idx = Some(idx);
    }

    /// The attached ledger index, if any.
    pub(crate) fn log_idx(&self) -> Option<usize> {
        self.inner.borrow().log_idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn first_commit_wins() {
        let g = CommitGate::new();
        assert!(g.try_commit(t(10), 1));
        assert!(!g.try_commit(t(20), 0));
        assert_eq!(g.winner(), Some(1));
        assert_eq!(g.commits(), 1);
    }

    #[test]
    fn same_instant_tie_breaks_to_lower_copy() {
        // Arrival order 1 then 0 at the same instant: copy 0 is recorded
        // winner either way, and only one write happens.
        let g = CommitGate::new();
        assert!(g.try_commit(t(10), 1));
        assert!(!g.try_commit(t(10), 0));
        assert_eq!(g.winner(), Some(0));
        assert_eq!(g.commits(), 1);
        // Opposite arrival order: identical outcome.
        let g = CommitGate::new();
        assert!(g.try_commit(t(10), 0));
        assert!(!g.try_commit(t(10), 1));
        assert_eq!(g.winner(), Some(0));
        assert_eq!(g.commits(), 1);
    }

    #[test]
    fn disqualified_copy_never_commits() {
        let g = CommitGate::new();
        g.disqualify(0);
        assert!(!g.try_commit(t(5), 0));
        assert!(g.try_commit(t(9), 1));
        assert_eq!(g.winner(), Some(1));
    }

    #[test]
    fn same_instant_tie_break_is_transitive_over_three_copies() {
        // Three speculative copies landing at one instant: the lowest
        // index is recorded winner whatever the arrival permutation,
        // and exactly one write happens.
        for order in [[2, 1, 0], [1, 0, 2], [0, 2, 1], [2, 0, 1]] {
            let g = CommitGate::new();
            let mut writes = 0;
            for copy in order {
                if g.try_commit(t(7), copy) {
                    writes += 1;
                }
            }
            assert_eq!(g.winner(), Some(0), "order {order:?}");
            assert_eq!(g.commits(), 1, "order {order:?}");
            assert_eq!(writes, 1, "order {order:?}");
        }
    }

    #[test]
    fn later_instant_never_steals_the_win() {
        // The tie-break applies only to same-instant arrivals: a lower
        // copy index arriving *later* does not rewrite history.
        let g = CommitGate::new();
        assert!(g.try_commit(t(10), 3));
        assert!(!g.try_commit(t(11), 0));
        assert_eq!(g.winner(), Some(3));
        assert_eq!(g.commits(), 1);
    }

    #[test]
    fn disqualification_accumulates_across_copies() {
        // A stolen original (copy 0) and a corrupted rescue (copy 1) on
        // the same gate: both stay barred, a clean third copy commits.
        let g = CommitGate::new();
        g.disqualify(0);
        g.disqualify(1);
        g.disqualify(1); // idempotent
        assert!(g.is_disqualified(0));
        assert!(g.is_disqualified(1));
        assert!(!g.try_commit(t(5), 0));
        assert!(!g.try_commit(t(5), 1));
        assert_eq!(g.winner(), None);
        assert_eq!(g.commits(), 0);
        assert!(g.try_commit(t(6), 2));
        assert_eq!(g.winner(), Some(2));
        assert_eq!(g.commits(), 1);
    }

    #[test]
    fn disqualified_copy_cannot_claim_a_tie() {
        // Copy 0 is barred; at a shared instant the tie-break must not
        // hand it the recorded win either.
        let g = CommitGate::new();
        g.disqualify(0);
        assert!(g.try_commit(t(9), 1));
        assert!(!g.try_commit(t(9), 0));
        assert_eq!(g.winner(), Some(1));
    }

    #[test]
    fn clones_share_the_decision() {
        let g = CommitGate::new();
        let h = g.clone();
        assert!(g.try_commit(t(1), 0));
        assert!(!h.try_commit(t(2), 1));
        assert_eq!(h.winner(), Some(0));
    }
}

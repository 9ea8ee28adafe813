//! The `spread_integrity(off|verify|heal)` policy and its telemetry.
//!
//! Every staged D2H snapshot and every peer-copy payload is digested
//! with CRC32C at its *source* ([`spread_devices::integrity`]); the
//! runtime re-digests at the two trust boundaries where device bytes
//! become authoritative:
//!
//! 1. **Staged-commit drain** — the instant a construct's exit drains
//!    its staged writes into host memory (arbitrated by
//!    [`CommitGate`](crate::commit::CommitGate)).
//! 2. **Peer-copy receive** — the instant a device-to-device pull lands
//!    in the destination buffer.
//!
//! What a mismatch does is policy, not mechanism:
//!
//! * [`IntegrityMode::Off`] — no digests, no verification; corruption
//!   flows through silently (the baseline every real system without
//!   end-to-end checksums lives with).
//! * [`IntegrityMode::Verify`] — the construct fails with
//!   [`RtError::IntegrityViolation`](crate::RtError::IntegrityViolation).
//! * [`IntegrityMode::Heal`] — the affected piece is re-executed from
//!   the unharmed host image (a fresh enter→kernel→exit on the rescue
//!   machinery) or, for a peer copy, re-fetched over the host path; a
//!   per-device mismatch streak escalates through the `health.rs`
//!   circuit breaker into quarantine.
//!
//! Every detection is recorded once, as a
//! [`RunEvent::Integrity`](crate::RunEvent::Integrity) in the run ledger
//! ([`Runtime::events`](crate::runtime::Runtime::events)).

use spread_trace::SimTime;

use crate::section::Section;

/// The `spread_integrity(…)` clause: what the runtime does about a
/// digest mismatch at a trust boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IntegrityMode {
    /// Default: no digests are computed and nothing is verified.
    #[default]
    Off,
    /// Verify digests; a mismatch fails the construct with
    /// [`RtError::IntegrityViolation`](crate::RtError::IntegrityViolation).
    Verify,
    /// Verify digests; a mismatch discards the tainted bytes and heals
    /// from the unharmed host image (construct re-execution or host
    /// re-fetch), escalating repeat offenders into quarantine.
    Heal,
}

impl IntegrityMode {
    /// True when digests must be computed and checked (verify or heal).
    pub fn checks(self) -> bool {
        self != IntegrityMode::Off
    }
}

/// Which trust boundary caught (or healed) a corruption.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntegrityBoundary {
    /// The staged-D2H commit drain.
    Commit,
    /// A peer-copy receive.
    Peer,
}

/// What the runtime did about a caught corruption.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntegrityAction {
    /// `verify`: the construct was failed with an
    /// [`IntegrityViolation`](crate::RtError::IntegrityViolation).
    Failed,
    /// `heal`: the tainted bytes were discarded and the piece was
    /// re-executed from the host image (or re-fetched over the host
    /// path, for a peer copy).
    Healed,
    /// `heal`: the mismatch streak reached the circuit breaker — the
    /// device was quarantined (treated as lost from here on).
    Quarantined,
}

/// One caught corruption: a digest mismatch at a trust boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct IntegrityEvent {
    /// Device whose data path produced the tainted payload.
    pub device: u32,
    /// The section whose bytes failed verification.
    pub section: Section,
    /// Virtual instant of the detection.
    pub at: SimTime,
    /// Trust boundary that caught it.
    pub boundary: IntegrityBoundary,
    /// What the policy did about it.
    pub action: IntegrityAction,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_the_default_and_only_off_skips_checks() {
        assert_eq!(IntegrityMode::default(), IntegrityMode::Off);
        assert!(!IntegrityMode::Off.checks());
        assert!(IntegrityMode::Verify.checks());
        assert!(IntegrityMode::Heal.checks());
    }
}

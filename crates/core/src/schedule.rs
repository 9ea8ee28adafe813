//! Spread schedules: how a loop's iteration space is carved into chunks
//! and distributed over the `devices(…)` list.
//!
//! The paper ships `spread_schedule(static, chunk)` — chunks assigned
//! round-robin in *device-list order* (not device-id order). The
//! future-work section calls for irregular chunk sizes and a dynamic
//! schedule; both are implemented here as extensions
//! ([`SpreadSchedule::StaticWeighted`], [`SpreadSchedule::Dynamic`]).

use std::ops::Range;

use spread_rt::RtError;

/// The `spread_schedule` clause.
#[derive(Clone, Debug, PartialEq)]
pub enum SpreadSchedule {
    /// `spread_schedule(static, chunk)` — fixed-size chunks, round-robin
    /// over the device list (the paper's only schedule).
    Static {
        /// Chunk size in iterations.
        chunk: usize,
    },
    /// Extension (§IX): one chunk per device per round, sized
    /// proportionally to the device's weight. Useful for heterogeneous
    /// devices.
    StaticWeighted {
        /// Iterations per round (split according to `weights`).
        round: usize,
        /// Relative device weights (same order as the device list).
        weights: Vec<f64>,
    },
    /// Extension (§IX): chunks are claimed by the first idle device at
    /// run time instead of being pre-assigned.
    Dynamic {
        /// Chunk size in iterations.
        chunk: usize,
    },
    /// Extension (§IX): profile-guided. At `parallel_for` time the
    /// runtime resolves this into a concrete [`StaticWeighted`] plan
    /// using the weights learned from previous launches of the same
    /// `key` (equal split on the first launch), and records a
    /// per-device profile of the launch to adapt the next one.
    ///
    /// `Auto` never reaches [`distribute`] — it must be resolved first,
    /// so everything downstream (§V-B chunk-gap ordering, resilience,
    /// pressure, the conformance oracle) sees an ordinary static plan.
    ///
    /// [`StaticWeighted`]: SpreadSchedule::StaticWeighted
    Auto {
        /// Stable construct key: launches sharing a key share a learned
        /// weight vector.
        key: String,
    },
}

impl SpreadSchedule {
    /// The paper's `spread_schedule(static, chunk)`.
    pub fn static_chunk(chunk: usize) -> Self {
        SpreadSchedule::Static { chunk }
    }

    /// The dynamic extension.
    pub fn dynamic(chunk: usize) -> Self {
        SpreadSchedule::Dynamic { chunk }
    }

    /// The profile-guided extension: `spread_schedule(auto)` keyed by a
    /// stable construct name.
    pub fn auto(key: impl Into<String>) -> Self {
        SpreadSchedule::Auto { key: key.into() }
    }

    /// Check a user-written clause against a `devices(…)` list of
    /// `n_devices` entries, where it is about to meet [`distribute`] —
    /// whose assertions stay as invariants for internal callers.
    /// `directive` names the pragma in the error.
    pub(crate) fn validate(&self, directive: &str, n_devices: usize) -> Result<(), RtError> {
        let what = match self {
            SpreadSchedule::Static { chunk: 0 } | SpreadSchedule::Dynamic { chunk: 0 } => {
                "the chunk size must be >= 1".to_string()
            }
            SpreadSchedule::StaticWeighted { round: 0, .. } => {
                "the weighted round must be >= 1".to_string()
            }
            SpreadSchedule::StaticWeighted { weights, .. } if weights.len() != n_devices => {
                format!(
                    "{} weight(s) for {n_devices} device(s) (one per device in the list)",
                    weights.len()
                )
            }
            SpreadSchedule::StaticWeighted { weights, .. }
                if weights.iter().any(|w| !w.is_finite() || *w < 0.0)
                    || weights.iter().sum::<f64>() <= 0.0 =>
            {
                format!("weights {weights:?} must be finite, non-negative and sum to > 0")
            }
            _ => return Ok(()),
        };
        Err(RtError::InvalidDirective(format!(
            "{directive}: spread_schedule(…): {what}"
        )))
    }
}

/// One distributed chunk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Chunk {
    /// Sequence number in iteration order.
    pub index: usize,
    /// Position in the `devices(…)` list (`None` for dynamic chunks,
    /// which are claimed at run time).
    pub device_pos: Option<usize>,
    /// Physical device id (`None` for dynamic chunks).
    pub device: Option<u32>,
    /// First iteration.
    pub start: usize,
    /// Iteration count.
    pub len: usize,
}

impl Chunk {
    /// The chunk's iteration range.
    pub fn range(&self) -> Range<usize> {
        self.start..self.start + self.len
    }
}

/// Distribute `range` over `devices` according to `schedule`.
///
/// For static schedules every chunk carries its device assignment; for
/// the dynamic extension the chunks come back unassigned (the directive
/// assigns them to idle devices at run time).
///
/// Distribution order follows the *position in the device list*, as the
/// paper specifies: `devices(2,0,1)` sends the first chunk to device 2.
pub fn distribute(range: Range<usize>, devices: &[u32], schedule: &SpreadSchedule) -> Vec<Chunk> {
    assert!(!devices.is_empty(), "devices(…) must not be empty");
    let n = range.end.saturating_sub(range.start);
    let mut chunks = Vec::new();
    if n == 0 {
        return chunks;
    }
    match schedule {
        SpreadSchedule::Static { chunk } => {
            assert!(*chunk > 0, "spread_schedule chunk must be >= 1");
            let mut start = range.start;
            let mut index = 0usize;
            while start < range.end {
                let len = (*chunk).min(range.end - start);
                let pos = index % devices.len();
                chunks.push(Chunk {
                    index,
                    device_pos: Some(pos),
                    device: Some(devices[pos]),
                    start,
                    len,
                });
                start += len;
                index += 1;
            }
        }
        SpreadSchedule::StaticWeighted { round, weights } => {
            assert!(*round > 0, "round size must be >= 1");
            assert_eq!(
                weights.len(),
                devices.len(),
                "one weight per device in the list"
            );
            let total_w: f64 = weights.iter().sum();
            assert!(total_w > 0.0, "weights must sum to a positive value");
            let mut start = range.start;
            let mut index = 0usize;
            'outer: loop {
                // Split one round proportionally (largest-remainder-free
                // simple scheme: cumulative rounding keeps the round size
                // exact).
                let round_len = (*round).min(range.end - start);
                let mut given = 0usize;
                let mut acc = 0.0f64;
                for (pos, w) in weights.iter().enumerate() {
                    acc += w;
                    let upto = ((acc / total_w) * round_len as f64).round() as usize;
                    let len = upto.saturating_sub(given).min(round_len - given);
                    if len > 0 {
                        chunks.push(Chunk {
                            index,
                            device_pos: Some(pos),
                            device: Some(devices[pos]),
                            start: start + given,
                            len,
                        });
                        index += 1;
                        given += len;
                    }
                }
                start += round_len;
                if start >= range.end {
                    break 'outer;
                }
            }
        }
        SpreadSchedule::Dynamic { chunk } => {
            assert!(*chunk > 0, "spread_schedule chunk must be >= 1");
            let mut start = range.start;
            let mut index = 0usize;
            while start < range.end {
                let len = (*chunk).min(range.end - start);
                chunks.push(Chunk {
                    index,
                    device_pos: None,
                    device: None,
                    start,
                    len,
                });
                start += len;
                index += 1;
            }
        }
        SpreadSchedule::Auto { key } => {
            panic!(
                "spread_schedule(auto) [key `{key}`] must be resolved to a \
                 concrete StaticWeighted plan before distribution"
            );
        }
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §III-B.1, first example: `devices(2,0,1)`,
    /// `spread_schedule(static, 4)`, loop `for(i=1; i<N-1; i++)` with
    /// N=14 → iterations 1..13.
    #[test]
    fn paper_example_chunk4() {
        let chunks = distribute(1..13, &[2, 0, 1], &SpreadSchedule::static_chunk(4));
        assert_eq!(chunks.len(), 3);
        // Iterations 1,2,3,4 → device 2.
        assert_eq!(chunks[0].range(), 1..5);
        assert_eq!(chunks[0].device, Some(2));
        // Iterations 5,6,7,8 → device 0.
        assert_eq!(chunks[1].range(), 5..9);
        assert_eq!(chunks[1].device, Some(0));
        // Iterations 9,10,11,12 → device 1.
        assert_eq!(chunks[2].range(), 9..13);
        assert_eq!(chunks[2].device, Some(1));
    }

    /// §III-B.1, second example: same but chunk 2.
    #[test]
    fn paper_example_chunk2() {
        let chunks = distribute(1..13, &[2, 0, 1], &SpreadSchedule::static_chunk(2));
        let got: Vec<(Range<usize>, u32)> = chunks
            .iter()
            .map(|c| (c.range(), c.device.unwrap()))
            .collect();
        assert_eq!(
            got,
            vec![
                (1..3, 2),
                (3..5, 0),
                (5..7, 1),
                (7..9, 2),
                (9..11, 0),
                (11..13, 1),
            ]
        );
    }

    #[test]
    fn tail_chunk_is_short() {
        let chunks = distribute(0..10, &[0, 1], &SpreadSchedule::static_chunk(4));
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[2].range(), 8..10);
        assert_eq!(chunks[2].len, 2);
        assert_eq!(chunks[2].device, Some(0), "round-robin wraps");
    }

    #[test]
    fn chunks_partition_iteration_space() {
        for (range, devs, chunk) in [
            (0..100, vec![0u32, 1, 2], 7),
            (5..6, vec![3], 10),
            (10..1000, vec![1, 0], 1),
        ] {
            let chunks = distribute(range.clone(), &devs, &SpreadSchedule::static_chunk(chunk));
            let mut seen = vec![false; range.len()];
            for c in &chunks {
                for i in c.range() {
                    assert!(!seen[i - range.start], "iteration {i} duplicated");
                    seen[i - range.start] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "iteration space covered");
        }
    }

    #[test]
    fn empty_range_no_chunks() {
        assert!(distribute(5..5, &[0, 1], &SpreadSchedule::static_chunk(4)).is_empty());
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_devices_rejected() {
        distribute(0..10, &[], &SpreadSchedule::static_chunk(4));
    }

    #[test]
    #[should_panic(expected = "chunk must be >= 1")]
    fn zero_chunk_rejected() {
        distribute(0..10, &[0], &SpreadSchedule::static_chunk(0));
    }

    #[test]
    fn weighted_distribution_respects_ratios() {
        let chunks = distribute(
            0..100,
            &[0, 1],
            &SpreadSchedule::StaticWeighted {
                round: 100,
                weights: vec![3.0, 1.0],
            },
        );
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].len, 75);
        assert_eq!(chunks[0].device, Some(0));
        assert_eq!(chunks[1].len, 25);
        assert_eq!(chunks[1].device, Some(1));
    }

    #[test]
    fn weighted_multi_round_partitions() {
        let chunks = distribute(
            0..103,
            &[0, 1, 2],
            &SpreadSchedule::StaticWeighted {
                round: 30,
                weights: vec![1.0, 2.0, 3.0],
            },
        );
        let total: usize = chunks.iter().map(|c| c.len).sum();
        assert_eq!(total, 103);
        // Contiguous, ordered, non-overlapping.
        let mut cursor = 0;
        for c in &chunks {
            assert_eq!(c.start, cursor);
            cursor += c.len;
        }
    }

    #[test]
    #[should_panic(expected = "must be resolved")]
    fn unresolved_auto_rejected() {
        distribute(0..10, &[0, 1], &SpreadSchedule::auto("k"));
    }

    #[test]
    fn dynamic_chunks_unassigned() {
        let chunks = distribute(0..10, &[0, 1], &SpreadSchedule::dynamic(3));
        assert_eq!(chunks.len(), 4);
        assert!(chunks.iter().all(|c| c.device.is_none()));
        let total: usize = chunks.iter().map(|c| c.len).sum();
        assert_eq!(total, 10);
    }
}

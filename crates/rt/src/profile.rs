//! The keyed profile store behind `spread_schedule(auto)`.
//!
//! Each *construct key* (a stable name for one spread construct that a
//! program launches repeatedly) owns a weight vector. A launch resolves
//! `auto` into `spread_schedule(static_weighted)` using the current
//! weights; when the construct completes, the runtime aggregates its
//! trace window into a [`ConstructProfile`] and feeds the per-device
//! finish times back through a damped update:
//!
//! ```text
//! rate_d  = w_d / finish_d          (observed per-weight throughput)
//! ideal_d = rate_d / Σ rate         (weights that equalize finish times)
//! w'_d    = (1 − α)·w_d + α·ideal_d (damping factor α)
//! ```
//!
//! All inputs are virtual-time durations from the deterministic
//! simulator, so the weight trajectory — and therefore every later
//! placement — is bit-reproducible across runs.

use std::collections::HashMap;

use spread_trace::ConstructProfile;

/// Weights below this fraction of an equal share are clamped back up, so
/// a device that once looked slow keeps receiving a sliver of work and
/// can be re-measured (and the `StaticWeighted` plan never degenerates
/// to a zero-weight device).
const WEIGHT_FLOOR: f64 = 1e-3;

/// The pipeline depths `spread_overlap(auto)` explores, in order, before
/// settling on the EWMA argmin. 1 (no pipelining) stays a candidate so a
/// construct that does not benefit from overlap converges back to the
/// plain path.
const DEPTH_CANDIDATES: [u32; 3] = [1, 2, 4];

/// Smoothing factor for the per-depth duration EWMA.
const DEPTH_EWMA_ALPHA: f64 = 0.5;

/// Damping factor α of the weight update: half the step toward the
/// measured ideal split per launch. Finish times respond nonlinearly to
/// weights, so an undamped jump oscillates.
const DAMPING: f64 = 0.5;

/// Per-key adaptive state plus the full launch history.
pub(crate) struct ProfileStore {
    /// Current normalized weights per construct key.
    weights: HashMap<String, Vec<f64>>,
    /// Launches per key (the `launch` counter stamped on profiles).
    counts: HashMap<String, u64>,
    /// Every recorded launch, in completion order across all keys.
    history: Vec<ConstructProfile>,
    /// Per-key `spread_overlap(auto)` observations:
    /// depth → (duration EWMA in ns, observation count).
    depths: HashMap<String, Vec<(u32, f64, u64)>>,
}

impl ProfileStore {
    pub(crate) fn new() -> Self {
        ProfileStore {
            weights: HashMap::new(),
            counts: HashMap::new(),
            history: Vec::new(),
            depths: HashMap::new(),
        }
    }

    /// The pipeline depth `spread_overlap(auto)` should use for the
    /// next launch of `key`: unexplored candidates first (in
    /// [`DEPTH_CANDIDATES`] order), then the EWMA argmin of construct
    /// duration (ties break toward the smaller depth).
    pub(crate) fn next_depth(&self, key: &str) -> u32 {
        let obs = self.depths.get(key);
        for &d in &DEPTH_CANDIDATES {
            let seen = obs
                .and_then(|v| v.iter().find(|(dd, _, _)| *dd == d))
                .map_or(0, |&(_, _, n)| n);
            if seen == 0 {
                return d;
            }
        }
        let obs = obs.expect("all candidates observed above");
        let mut best = DEPTH_CANDIDATES[0];
        let mut best_ewma = f64::INFINITY;
        for &d in &DEPTH_CANDIDATES {
            if let Some(&(_, e, _)) = obs.iter().find(|(dd, _, _)| *dd == d) {
                if e < best_ewma {
                    best_ewma = e;
                    best = d;
                }
            }
        }
        best
    }

    /// Feed back one completed `spread_overlap(auto)` launch: update
    /// the duration EWMA of `depth` under `key`.
    pub(crate) fn record_depth(&mut self, key: &str, depth: u32, duration_ns: f64) {
        let v = self.depths.entry(key.to_string()).or_default();
        match v.iter_mut().find(|(d, _, _)| *d == depth) {
            Some((_, e, n)) => {
                *e = (1.0 - DEPTH_EWMA_ALPHA) * *e + DEPTH_EWMA_ALPHA * duration_ns;
                *n += 1;
            }
            None => v.push((depth, duration_ns, 1)),
        }
    }

    /// The weights to use for the next launch of `key` over `k` devices:
    /// the stored vector when it matches `k`, an equal split otherwise
    /// (first launch, or the construct changed its device list).
    pub(crate) fn weights(&self, key: &str, k: usize) -> Vec<f64> {
        match self.weights.get(key) {
            Some(w) if w.len() == k => w.clone(),
            _ => vec![1.0; k.max(1)],
        }
    }

    /// The next launch index for `key`.
    pub(crate) fn next_launch(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Record a completed launch and run the damped update.
    ///
    /// If any device shows a zero finish time the update is skipped:
    /// either tracing is disabled (no spans, nothing to learn from) or
    /// the device received no work this round — in both cases the
    /// observation carries no throughput information for that device.
    pub(crate) fn record(&mut self, profile: ConstructProfile) {
        let key = profile.key.clone();
        let finishes = profile.finish_ns();
        let used = &profile.weights;
        if finishes.len() == used.len() && finishes.iter().all(|&f| f > 0.0) {
            let rates: Vec<f64> = used.iter().zip(&finishes).map(|(w, f)| w / f).collect();
            let total_rate: f64 = rates.iter().sum();
            if total_rate > 0.0 && total_rate.is_finite() {
                let total_used: f64 = used.iter().sum();
                let a = DAMPING;
                let mut next: Vec<f64> = used
                    .iter()
                    .zip(&rates)
                    .map(|(w, r)| (1.0 - a) * (w / total_used) + a * (r / total_rate))
                    .collect();
                let floor = WEIGHT_FLOOR / next.len() as f64;
                for w in &mut next {
                    *w = w.max(floor);
                }
                let sum: f64 = next.iter().sum();
                let k = next.len() as f64;
                for w in &mut next {
                    // Normalize so weights sum to the device count: an
                    // equal split reads as all-ones, like the paper's
                    // hand-written `static` chunks.
                    *w = *w / sum * k;
                }
                self.weights.insert(key.clone(), next);
            }
        }
        *self.counts.entry(key).or_insert(0) += 1;
        self.history.push(profile);
    }

    /// Every recorded launch, in completion order.
    pub(crate) fn history(&self) -> &[ConstructProfile] {
        &self.history
    }

    /// The current weights for `key`, if it has adapted at least once.
    pub(crate) fn current(&self, key: &str) -> Option<&[f64]> {
        self.weights.get(key).map(|w| w.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spread_trace::{profile_window, SimTime};

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn profile_with_finishes(
        key: &str,
        launch: u64,
        weights: Vec<f64>,
        finishes_ns: &[u64],
    ) -> ConstructProfile {
        // Build per-device profiles with the requested finish times by
        // aggregating synthetic kernel spans.
        use spread_trace::{Lane, SpanKind, TraceRecorder};
        let rec = TraceRecorder::new();
        let t1 = *finishes_ns.iter().max().unwrap_or(&0);
        for (d, &f) in finishes_ns.iter().enumerate() {
            if f > 0 {
                rec.record(
                    Lane::compute(d as u32),
                    SpanKind::Kernel,
                    "k",
                    t(0),
                    t(f),
                    0,
                );
            }
        }
        let devices: Vec<u32> = (0..finishes_ns.len() as u32).collect();
        let devs = profile_window(&rec.snapshot(), &devices, t(0), t(t1.max(1)));
        ConstructProfile {
            key: key.into(),
            launch,
            start: t(0),
            end: t(t1.max(1)),
            devices: devs,
            weights,
            round: 100,
        }
    }

    #[test]
    fn first_launch_gets_equal_weights() {
        let store = ProfileStore::new();
        assert_eq!(store.weights("k", 3), vec![1.0, 1.0, 1.0]);
        assert_eq!(store.next_launch("k"), 0);
    }

    #[test]
    fn update_shifts_weight_toward_fast_device() {
        let mut store = ProfileStore::new();
        // Device 1 took twice as long as device 0 under equal weights.
        store.record(profile_with_finishes("k", 0, vec![1.0, 1.0], &[100, 200]));
        let w = store.weights("k", 2);
        assert!(w[0] > w[1], "fast device should gain weight: {w:?}");
        assert!((w.iter().sum::<f64>() - 2.0).abs() < 1e-12);
        // rate = [1/100, 1/200] → ideal = [2/3, 1/3];
        // w' = 0.5·[1/2,1/2] + 0.5·[2/3,1/3] = [7/12, 5/12]; ×2 → [7/6, 5/6].
        assert!((w[0] - 7.0 / 6.0).abs() < 1e-9, "{w:?}");
        assert!((w[1] - 5.0 / 6.0).abs() < 1e-9, "{w:?}");
    }

    #[test]
    fn converges_to_equal_finish_times() {
        // Device 1 is 2× slower: its per-iteration cost is doubled. If
        // weights (w0, w1) give finishes proportional to (w0, 2·w1), the
        // fixpoint is w0 = 2·w1.
        let mut store = ProfileStore::new();
        for launch in 0..20 {
            let w = store.weights("k", 2);
            let f0 = (w[0] * 1000.0) as u64;
            let f1 = (w[1] * 2000.0) as u64;
            store.record(profile_with_finishes(
                "k",
                launch,
                w,
                &[f0.max(1), f1.max(1)],
            ));
        }
        let w = store.weights("k", 2);
        assert!(
            (w[0] / w[1] - 2.0).abs() < 0.05,
            "should converge to a 2:1 split, got {w:?}"
        );
    }

    #[test]
    fn zero_finish_skips_adaptation() {
        let mut store = ProfileStore::new();
        store.record(profile_with_finishes("k", 0, vec![1.0, 1.0], &[100, 0]));
        assert_eq!(store.weights("k", 2), vec![1.0, 1.0]);
        assert_eq!(store.next_launch("k"), 1); // still counted + in history
        assert_eq!(store.history().len(), 1);
    }

    #[test]
    fn device_count_change_resets_to_equal() {
        let mut store = ProfileStore::new();
        store.record(profile_with_finishes("k", 0, vec![1.0, 1.0], &[100, 200]));
        assert_eq!(store.weights("k", 3), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn weights_never_hit_zero() {
        let mut store = ProfileStore::new();
        for launch in 0..50 {
            let w = store.weights("k", 2);
            // Device 1 pathologically slow.
            let f0 = ((w[0] * 100.0) as u64).max(1);
            let f1 = ((w[1] * 1_000_000.0) as u64).max(1);
            store.record(profile_with_finishes("k", launch, w, &[f0, f1]));
        }
        let w = store.weights("k", 2);
        assert!(w[1] > 0.0, "floor must keep the slow device sampled: {w:?}");
    }

    #[test]
    fn keys_are_independent() {
        let mut store = ProfileStore::new();
        store.record(profile_with_finishes("a", 0, vec![1.0, 1.0], &[100, 200]));
        assert_eq!(store.weights("b", 2), vec![1.0, 1.0]);
        assert!(store.current("a").is_some());
        assert!(store.current("b").is_none());
    }
}

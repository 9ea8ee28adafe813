//! The launch-plan cache.
//!
//! Repeated launches of the *same* construct — Somier's five constructs
//! × N timesteps — re-run chunking, admission planning and overlap
//! sub-slice prediction every iteration even though nothing about the
//! directive changed. The cache short-circuits that: a construct that
//! opts in with `with_plan_cache(key)` stores its finished plan under
//! `(key, fingerprint, epoch)` and replays it on the next launch when
//! all three still match.
//!
//! * **key** — the construct-site identity, chosen by the program. Like
//!   an OpenMP lexical construct, one key must always describe the same
//!   directive shape; the fingerprint guards against drift anyway.
//! * **fingerprint** — a cheap structural hash of everything the plan
//!   depends on (range, devices, schedule, clause set, map/dep shape —
//!   and under memory pressure the live headroom vector). Computed by
//!   `spread-core` without evaluating a single map closure.
//! * **epoch** — the runtime's *topology epoch*, bumped by device loss
//!   (including integrity-breaker quarantine, which routes through the
//!   loss hook) and by every adaptive-state update (`ProfileStore`
//!   weight or overlap-depth feedback). A plan stored under an old
//!   epoch can never be served, however well its fingerprint matches.
//!
//! The payload is an opaque `Rc<dyn Any>`: the runtime owns the cache
//! mechanics, `spread-core` owns the plan type and downcasts on a hit.
//! Debug builds additionally re-plan from scratch on every hit and
//! assert the cached plan equal (in `spread-core`), and the
//! `spread-check` cache-parity suite proves cold and warm runs
//! bit-identical across every fuzz mode.

use std::any::Any;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use spread_prng::FnvBuild;

/// Hit/miss/invalidation counters plus the planning-time accounting the
/// hot-path benchmark reports. Instrumentation only — nothing in here
/// feeds back into planning decisions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that returned a stored plan.
    pub hits: u64,
    /// Lookups that found nothing servable (absent, fingerprint
    /// mismatch, or stale epoch).
    pub misses: u64,
    /// Misses caused specifically by a stale epoch: the construct was
    /// cached, but the topology moved underneath it.
    pub invalidations: u64,
    /// Wall-clock nanoseconds spent producing plans from scratch
    /// (admission planning + chunking + map/dep section evaluation),
    /// summed over [`PlanCacheStats::cold_plans`] launches.
    pub cold_planning_ns: u64,
    /// Launches that planned from scratch.
    pub cold_plans: u64,
    /// Wall-clock nanoseconds spent on the warm path (fingerprint +
    /// lookup + plan replay), summed over [`PlanCacheStats::warm_plans`]
    /// launches.
    pub warm_planning_ns: u64,
    /// Launches served from the cache.
    pub warm_plans: u64,
}

impl PlanCacheStats {
    /// Mean nanoseconds per cold (from-scratch) planning pass.
    pub fn cold_ns_per_plan(&self) -> f64 {
        if self.cold_plans == 0 {
            return 0.0;
        }
        self.cold_planning_ns as f64 / self.cold_plans as f64
    }

    /// Mean nanoseconds per warm (cache-served) planning pass.
    pub fn warm_ns_per_plan(&self) -> f64 {
        if self.warm_plans == 0 {
            return 0.0;
        }
        self.warm_planning_ns as f64 / self.warm_plans as f64
    }
}

/// One stored plan.
struct CacheEntry {
    fingerprint: u64,
    epoch: u64,
    plan: Rc<dyn Any>,
}

/// The per-runtime launch-plan cache. Single-threaded like the rest of
/// `Inner`; the sharded structures around it carry the concurrency.
pub(crate) struct PlanCache {
    entries: HashMap<String, CacheEntry, FnvBuild>,
    epoch: u64,
    enabled: bool,
    stats: PlanCacheStats,
}

impl PlanCache {
    pub(crate) fn new(enabled: bool) -> Self {
        PlanCache {
            entries: HashMap::default(),
            epoch: 0,
            enabled,
            stats: PlanCacheStats::default(),
        }
    }

    /// Current topology epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Invalidate every stored plan by moving the epoch forward.
    pub(crate) fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Look up the plan stored under `key`. Serves it only when the
    /// fingerprint matches *and* the entry was stored in the current
    /// epoch; anything else is a miss (stale entries are dropped and
    /// counted as invalidations).
    ///
    /// `started` is the caller's planning-phase start (taken before it
    /// computed the fingerprint): a hit closes the warm planning window
    /// right here, inside the same borrow — the warm path must not pay
    /// a second round trip just to record how fast it was.
    pub(crate) fn lookup(
        &mut self,
        key: &str,
        fingerprint: u64,
        started: Instant,
    ) -> Option<Rc<dyn Any>> {
        if !self.enabled {
            return None;
        }
        match self.entries.get(key) {
            Some(e) if e.epoch == self.epoch && e.fingerprint == fingerprint => {
                let plan = Rc::clone(&e.plan);
                self.stats.hits += 1;
                self.note_planning(started.elapsed().as_nanos() as u64, true);
                Some(plan)
            }
            Some(e) => {
                if e.epoch != self.epoch {
                    self.stats.invalidations += 1;
                    self.entries.remove(key);
                }
                self.stats.misses += 1;
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Store a freshly computed plan under `key` for the current epoch.
    /// `started` is the same planning-phase start the failed lookup saw;
    /// the cold planning window (fingerprint + miss + from-scratch plan)
    /// closes here.
    pub(crate) fn store(
        &mut self,
        key: &str,
        fingerprint: u64,
        plan: Rc<dyn Any>,
        started: Instant,
    ) {
        if !self.enabled {
            return;
        }
        self.note_planning(started.elapsed().as_nanos() as u64, false);
        self.entries.insert(
            key.to_string(),
            CacheEntry {
                fingerprint,
                epoch: self.epoch,
                plan,
            },
        );
    }

    /// Account one planning pass: `warm` plans were served from the
    /// cache, cold ones ran the full planner.
    fn note_planning(&mut self, ns: u64, warm: bool) {
        if warm {
            self.stats.warm_planning_ns += ns;
            self.stats.warm_plans += 1;
        } else {
            self.stats.cold_planning_ns += ns;
            self.stats.cold_plans += 1;
        }
    }

    pub(crate) fn stats(&self) -> PlanCacheStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_requires_key_fingerprint_and_epoch() {
        let t0 = Instant::now();
        let mut c = PlanCache::new(true);
        assert!(c.lookup("k", 7, t0).is_none()); // absent
        c.store("k", 7, Rc::new(42u32), t0);
        let hit = c.lookup("k", 7, t0).expect("stored plan");
        assert_eq!(*hit.downcast::<u32>().unwrap(), 42);
        assert!(c.lookup("k", 8, t0).is_none()); // fingerprint mismatch
        c.bump_epoch();
        assert!(c.lookup("k", 7, t0).is_none()); // stale epoch
        let st = c.stats();
        assert_eq!(st.hits, 1);
        assert_eq!(st.misses, 3);
        assert_eq!(st.invalidations, 1);
        // Planning windows close on store (cold) and on hit (warm).
        assert_eq!(st.cold_plans, 1);
        assert_eq!(st.warm_plans, 1);
        // The stale entry was dropped: the next lookup is a plain miss,
        // not another invalidation.
        assert!(c.lookup("k", 7, t0).is_none());
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn disabled_cache_serves_and_stores_nothing() {
        let t0 = Instant::now();
        let mut c = PlanCache::new(false);
        c.store("k", 7, Rc::new(1u32), t0);
        assert!(c.lookup("k", 7, t0).is_none());
        assert_eq!(c.stats(), PlanCacheStats::default());
    }

    #[test]
    fn planning_time_accounting() {
        let mut c = PlanCache::new(true);
        c.note_planning(1_000, false);
        c.note_planning(3_000, false);
        c.note_planning(100, true);
        let st = c.stats();
        assert_eq!(st.cold_ns_per_plan(), 2_000.0);
        assert_eq!(st.warm_ns_per_plan(), 100.0);
    }
}

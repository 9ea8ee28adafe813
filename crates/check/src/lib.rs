//! # spread-check
//!
//! Model-based conformance harness for the `target spread` directive
//! set, with a semantic oracle and deterministic schedule fuzzing.
//!
//! The pieces:
//!
//! * [`ast`] — a small directive-program AST over the spread builder
//!   surface (spread kernels with static/weighted/dynamic schedules and
//!   `nowait`, halo'd stencils, cross-device reductions, data regions,
//!   raw enter/exit/update statements — including illegal ones);
//! * [`gen`] — a seeded generator: one `u64` ⇒ one program, forever,
//!   under each [`Mode`] (the clause family the generator arms);
//! * [`oracle`] — a thin lowering from programs onto the
//!   `spread-semantics` small-step machine, predicting the final host
//!   state (or the exact `RtError`) from the paper's mapping rules;
//! * [`enumerate`] — bounded model checking: every program up to a
//!   small statement bound over a fixed alphabet, checked exhaustively
//!   instead of sampled;
//! * [`run`] — the executor lowering a program onto the real
//!   [`spread_rt::Runtime`] under a chosen [`TieBreak`] policy;
//! * [`shrink`] — deterministic greedy minimization of failures;
//! * [`pretty`] — paper-listing pseudocode rendering.
//!
//! [`check_seed`] is the heart: generate the program for a seed, predict
//! with the oracle, then execute it under FIFO *plus* several seeded
//! tie-break permutations of the simulator's event queue — every legal
//! interleaving of same-instant events must reproduce the oracle's
//! host arrays, reduction values and mapping tables bit-for-bit, with
//! zero race reports.
//!
//! Which clause family is under test — fault plans, memory pressure,
//! adaptive schedules, peer exchanges, stragglers, silent corruption,
//! pipelined overlap — is one [`Mode`] value; each variant documents
//! what the generator arms and what the check demands beyond
//! bit-identity. The [`Fault`] canaries prove each demand is enforced.
//!
//! ```
//! use spread_check::{check_seed, CheckConfig};
//! assert!(check_seed(1, &CheckConfig::default()).is_ok());
//! ```

#![warn(missing_docs)]

pub mod ast;
mod config;
pub mod enumerate;
pub mod gen;
pub mod oracle;
pub mod pretty;
pub mod run;
pub mod shrink;

pub use ast::Program;
pub use config::{CheckConfig, Fault, Mode};
pub use spread_sim::TieBreak;

use spread_rt::{RtError, RunEvent};

/// A conformance violation: which interleaving disagreed, and how.
#[derive(Clone, Debug)]
pub struct CheckFailure {
    /// The tie-break policy that exposed it.
    pub tie: TieBreak,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

impl std::fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:?}] {}", self.tie, self.detail)
    }
}

/// The tie-break policies checked for a program seed: FIFO first, then
/// seeded permutations derived from the seed (so the whole run is
/// reproducible from the program seed alone).
pub fn tie_breaks(seed: u64, interleavings: usize) -> Vec<TieBreak> {
    let mut v = vec![TieBreak::Fifo];
    for k in 1..interleavings.max(1) as u64 {
        v.push(TieBreak::Seeded(spread_prng::mix(seed, k)));
    }
    v
}

/// `InvalidDirective` carries a free-form message the oracle does not
/// reproduce, and `DeviceLost`'s `what` names whichever task happened
/// to surface the loss first (interleaving-dependent) — both compare
/// structurally. `OverlapExtension` likewise: when several pieces of
/// one construct each trip the §V-B rule (bounded model checking
/// reaches this by sequencing a raw enter *before* a multi-piece
/// spread), the named window is whichever faulting piece won the race,
/// so it compares by device. Every other error must match exactly.
fn errors_match(want: &RtError, got: &RtError) -> bool {
    match (want, got) {
        (RtError::InvalidDirective(_), RtError::InvalidDirective(_)) => true,
        (RtError::DeviceLost { device: w, .. }, RtError::DeviceLost { device: g, .. }) => w == g,
        (
            RtError::OverlapExtension { device: w, .. },
            RtError::OverlapExtension { device: g, .. },
        ) => w == g,
        // The section names whichever tainted drain surfaced first
        // (interleaving-dependent); the offending device is pinned.
        (
            RtError::IntegrityViolation { device: w, .. },
            RtError::IntegrityViolation { device: g, .. },
        ) => w == g,
        _ => want == got,
    }
}

fn compare(want: &oracle::Expectation, got: &run::Observed) -> Option<String> {
    match (&want.error, &got.error) {
        (Some(w), Some(g)) => {
            if !errors_match(w, g) {
                return Some(format!("predicted error `{w}`, runtime raised `{g}`"));
            }
            // Poisoned program: intermediate state is unspecified.
            return None;
        }
        (Some(w), None) => return Some(format!("predicted error `{w}`, runtime succeeded")),
        (None, Some(g)) => return Some(format!("runtime raised unpredicted error `{g}`")),
        (None, None) => {}
    }
    if got.races != 0 {
        return Some(format!(
            "{} race report(s) on a race-free program",
            got.races
        ));
    }
    // Only the degradations are predicted exactly; rescues, integrity
    // detections, peer copies and pipelined pieces are checked
    // structurally in `check_program`.
    let got_degradations: Vec<_> = got
        .events
        .iter()
        .filter_map(RunEvent::degradation)
        .cloned()
        .collect();
    if want.degradations != got_degradations {
        return Some(format!(
            "degradation events: oracle predicted {:?}, runtime recorded {:?}",
            want.degradations, got_degradations
        ));
    }
    for (k, (w, g)) in want.arrays.iter().zip(&got.arrays).enumerate() {
        if let Some(i) = (0..w.len()).find(|&i| w[i].to_bits() != g[i].to_bits()) {
            return Some(format!(
                "array A{k}[{i}]: oracle {} vs runtime {}",
                w[i], g[i]
            ));
        }
    }
    if want.reduces.len() != got.reduces.len() {
        return Some(format!(
            "oracle predicted {} reduction(s), runtime produced {}",
            want.reduces.len(),
            got.reduces.len()
        ));
    }
    for (i, (w, g)) in want.reduces.iter().zip(&got.reduces).enumerate() {
        if w.to_bits() != g.to_bits() {
            return Some(format!("reduction #{i}: oracle {w} vs runtime {g}"));
        }
    }
    if want.mappings != got.mappings {
        return Some(format!(
            "mapping tables at quiescence: oracle {:?} vs runtime {:?}",
            want.mappings, got.mappings
        ));
    }
    // spread_schedule(auto) programs: whatever split the runtime
    // realized must have been a *valid* StaticWeighted plan. (Empty for
    // every other program kind, so the checks are vacuous there.)
    for prof in &got.profiles {
        if prof.weights.len() != prof.devices.len() {
            return Some(format!(
                "profile `{}` launch {}: {} weight(s) for {} device(s)",
                prof.key,
                prof.launch,
                prof.weights.len(),
                prof.devices.len()
            ));
        }
        if prof.weights.iter().any(|w| !w.is_finite() || *w <= 0.0) {
            return Some(format!(
                "profile `{}` launch {}: realized weights {:?} are not a \
                 valid StaticWeighted plan",
                prof.key, prof.launch, prof.weights
            ));
        }
        if prof.round == 0 {
            return Some(format!(
                "profile `{}` launch {}: realized round is zero",
                prof.key, prof.launch
            ));
        }
    }
    None
}

/// Structural soundness of the rescues a run performed: the bits are
/// already pinned by [`compare`], so this checks the first-commit-wins
/// bookkeeping — exactly one commit per rescued piece, a recorded
/// winner, and an in-range rescue target distinct from the straggler.
/// Which pieces straggle is *not* pinned: a healthy device whose chunk
/// is several times longer than the first finisher's legitimately blows
/// the relative deadline too, and such speculative duplicates must be
/// just as value-invisible as rescues of genuinely slowed devices.
/// Rescues outside straggler mode are themselves a violation.
fn validate_rescues(p: &Program, got: &run::Observed) -> Option<String> {
    let rescues: Vec<_> = got.events.iter().filter_map(RunEvent::rescue).collect();
    if p.straggler.is_none() {
        return (!rescues.is_empty()).then(|| {
            format!(
                "{} rescue(s) recorded without a straggler spec",
                rescues.len()
            )
        });
    }
    for r in rescues {
        if r.commits != 1 {
            return Some(format!(
                "rescued piece [{}..{}): {} commits (first-commit-wins demands exactly one)",
                r.start,
                r.start + r.len,
                r.commits
            ));
        }
        if r.winner.is_none() {
            return Some(format!(
                "rescued piece [{}..{}): no winner recorded at quiescence",
                r.start,
                r.start + r.len
            ));
        }
        if r.to == r.from || (r.to as usize) >= p.n_devices {
            return Some(format!(
                "rescued piece [{}..{}): straggler {} rescued onto device {}",
                r.start,
                r.start + r.len,
                r.from,
                r.to
            ));
        }
    }
    None
}

/// The closed-form integrity-event expectation. Flip bursts arm at
/// time zero and a device's tokens are all burned by detect→discard→
/// redo rounds at its *first* committing drain, so a flipped device
/// that receives at least one chunk of any spread statement records
/// exactly `count` healed commits — and one that never drains records
/// none. Failed/quarantined actions never appear (burst counts stay
/// far below the mismatch breaker), and integrity events outside
/// integrity mode are themselves a violation.
fn validate_integrity(p: &Program, got: &run::Observed) -> Option<String> {
    let events: Vec<_> = got.events.iter().filter_map(RunEvent::integrity).collect();
    let Some(is) = &p.integrity else {
        return (!events.is_empty()).then(|| {
            format!(
                "{} integrity event(s) recorded without an integrity spec",
                events.len()
            )
        });
    };
    if let Some(e) = events.iter().find(|e| {
        e.action != spread_rt::IntegrityAction::Healed
            || e.boundary != spread_rt::IntegrityBoundary::Commit
    }) {
        return Some(format!(
            "unexpected integrity event {:?}/{:?} on device {} (healed commits only)",
            e.action, e.boundary, e.device
        ));
    }
    // Devices that perform at least one committing drain: every
    // generated spread kernel commits (tofrom/from maps), so any
    // device the static distribution hands a non-empty chunk drains.
    let mut drains = std::collections::BTreeSet::new();
    for stmt in p.phases.iter().flatten() {
        if let ast::Stmt::Spread {
            devices, sched, op, ..
        } = stmt
        {
            for c in spread_core::schedule::distribute(
                op.range(p.n),
                devices,
                &sched.oracle_schedule(p.n, devices.len()),
            ) {
                if c.len > 0 {
                    if let Some(d) = c.device {
                        drains.insert(d);
                    }
                }
            }
        }
    }
    let mut want: Vec<u32> = is
        .flips
        .iter()
        .filter(|(d, _)| drains.contains(d))
        .flat_map(|&(d, count)| std::iter::repeat_n(d, count as usize))
        .collect();
    want.sort_unstable();
    let mut got_devs: Vec<u32> = events.iter().map(|e| e.device).collect();
    got_devs.sort_unstable();
    if want != got_devs {
        return Some(format!(
            "healed commits per device: flips {:?} predict {want:?}, runtime recorded {got_devs:?}",
            is.flips
        ));
    }
    None
}

/// Structural soundness of the pipelined pieces a run recorded: the
/// bits are already pinned by [`compare`] (the oracle is
/// overlap-blind), so this checks the pipeline's ledger — every staged
/// sub-slice of a non-bypassed piece committed exactly once at the
/// whole-piece boundary (one committed early is staged but never
/// counted as committed), the per-piece stage count equals
/// `min(depth, len)`, and the record count
/// equals the closed-form piece count of the program's static
/// distributions (pieces of a single iteration take the classic path
/// and record nothing). Overlap records outside overlap mode are
/// themselves a violation.
fn validate_overlap(p: &Program, got: &run::Observed) -> Option<String> {
    let records: Vec<_> = got.events.iter().filter_map(RunEvent::overlap).collect();
    let Some(os) = &p.overlap else {
        return (!records.is_empty()).then(|| {
            format!(
                "{} overlap record(s) without an overlap spec",
                records.len()
            )
        });
    };
    for r in &records {
        if !r.bypassed {
            if r.staged != r.committed {
                return Some(format!(
                    "device {} piece [{}..{}): {} staged sub-slice(s) but {} commit(s)",
                    r.device,
                    r.start,
                    r.start + r.len,
                    r.staged,
                    r.committed
                ));
            }
            let want_depth = os.depth.min(r.len as u32);
            if r.depth != want_depth {
                return Some(format!(
                    "device {} piece [{}..{}): {} pipeline stage(s), expected {}",
                    r.device,
                    r.start,
                    r.start + r.len,
                    r.depth,
                    want_depth
                ));
            }
        }
    }
    // Closed form: the runtime pipelines exactly the multi-iteration
    // pieces of each spread statement's static distribution (depth ≥ 2
    // always holds for generated specs).
    let mut want = 0usize;
    for stmt in p.phases.iter().flatten() {
        if let ast::Stmt::Spread {
            devices, sched, op, ..
        } = stmt
        {
            want += spread_core::schedule::distribute(op.range(p.n), devices, &sched.to_schedule())
                .iter()
                .filter(|c| c.len >= 2 && c.device.is_some())
                .count();
        }
    }
    if records.len() != want {
        return Some(format!(
            "overlap ledger: the static distributions predict {want} pipelined piece(s), \
             runtime recorded {}",
            records.len()
        ));
    }
    None
}

/// Check one program under every tie-break policy for `seed`.
///
/// Under [`Mode::Peer`] the check is differential: the per-tie
/// runs force every halo exchange through the host (zero peer copies
/// allowed), then one extra FIFO `exchange(auto)` run must reproduce
/// the same oracle bits while performing exactly the predicted
/// device-to-device route set, with nothing diverted.
pub fn check_program(p: &Program, seed: u64, cfg: &CheckConfig) -> Result<(), CheckFailure> {
    let want = oracle::predict(p, cfg.fault);
    for tie in tie_breaks(seed, cfg.interleavings) {
        let got = run::execute(p, tie, cfg.fault);
        if let Some(detail) = compare(&want, &got) {
            return Err(CheckFailure { tie, detail });
        }
        if want.error.is_none() {
            if let Some(detail) = validate_rescues(p, &got) {
                return Err(CheckFailure { tie, detail });
            }
            if let Some(detail) = validate_integrity(p, &got) {
                return Err(CheckFailure { tie, detail });
            }
            if let Some(detail) = validate_overlap(p, &got) {
                return Err(CheckFailure { tie, detail });
            }
        }
        let peer_copies = got.events.iter().filter_map(RunEvent::peer_copy).count();
        if peer_copies != 0 {
            return Err(CheckFailure {
                tie,
                detail: format!("exchange(host) run performed {peer_copies} peer copies"),
            });
        }
    }
    if cfg.mode == Mode::Peer {
        let tie = TieBreak::Fifo;
        let got = run::execute_ex(p, tie, cfg.fault, spread_core::ExchangeMode::Auto);
        if let Some(detail) = compare(&want, &got) {
            return Err(CheckFailure {
                tie,
                detail: format!("exchange(auto): {detail}"),
            });
        }
        // The route set is only pinned down for a legal program — after
        // a predicted error, what ran before the poison is unspecified.
        if want.error.is_none() {
            let copies = got.events.iter().filter_map(RunEvent::peer_copy);
            if let Some(r) = copies.clone().find(|r| r.diverted) {
                return Err(CheckFailure {
                    tie,
                    detail: format!(
                        "exchange(auto): peer copy {}→{} of A{}[{}..{}] diverted to the \
                         host on a fault-free program",
                        r.src,
                        r.dst,
                        r.section.array.0,
                        r.section.start,
                        r.section.end()
                    ),
                });
            }
            let mut routed: Vec<(u32, u32, u32, usize, usize)> = copies
                .map(|r| {
                    (
                        r.src,
                        r.dst,
                        r.section.array.0,
                        r.section.start,
                        r.section.len,
                    )
                })
                .collect();
            routed.sort_unstable();
            let predicted = oracle::predict_peer_copies(p);
            if routed != predicted {
                return Err(CheckFailure {
                    tie,
                    detail: format!(
                        "exchange(auto) route set: predicted {predicted:?}, runtime \
                         performed {routed:?}"
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Generate and check the program `seed` names under `cfg.mode`.
pub fn check_seed(seed: u64, cfg: &CheckConfig) -> Result<(), CheckFailure> {
    check_program(&gen::gen_program(seed, cfg.mode), seed, cfg)
}

/// The first observable on which a cold-planner run and a warm-cache
/// run of the same program disagreed, or `None` when they matched
/// everywhere — including the merged span timeline, byte for byte.
fn diff_cache_runs(cold: &run::CacheRun, warm: &run::CacheRun) -> Option<String> {
    let a = &cold.observed;
    let b = &warm.observed;
    let fields: [(&str, bool); 8] = [
        ("final arrays", a.arrays != b.arrays),
        ("reduction values", a.reduces != b.reduces),
        ("mapping snapshot", a.mappings != b.mappings),
        ("run ledger", a.events != b.events),
        ("adaptive profiles", a.profiles != b.profiles),
        ("race count", a.races != b.races),
        ("first error", a.error != b.error),
        ("span timeline", cold.timeline != warm.timeline),
    ];
    fields
        .iter()
        .find(|(_, differs)| *differs)
        .map(|(name, _)| format!("cold planner vs warm cache diverged on the {name}"))
}

/// The cold-vs-warm differential for one generated program: execute it
/// twice through [`run::execute_cached`] — once with the launch-plan
/// cache disabled (every construct plans from scratch) and once with it
/// enabled — and demand every observable identical: final arrays,
/// reduction values, `RtError`s, the run ledger (degradations, rescues,
/// integrity detections, pipelined pieces and peer copies, in recording
/// order), adaptive profiles, mapping snapshots, and
/// the merged span timeline byte for byte. Returns the warm leg's
/// cache counters so a sweep can assert the cache actually served hits.
pub fn cache_parity_seed(
    seed: u64,
    cfg: &CheckConfig,
) -> Result<spread_rt::PlanCacheStats, CheckFailure> {
    let p = gen::gen_program(seed, cfg.mode);
    let exchange = if cfg.mode == Mode::Peer {
        spread_core::ExchangeMode::Auto
    } else {
        spread_core::ExchangeMode::Host
    };
    let tie = TieBreak::Fifo;
    let cold = run::execute_cached(&p, tie, cfg.fault, exchange, false);
    let warm = run::execute_cached(&p, tie, cfg.fault, exchange, true);
    if cold.plan.hits != 0 || cold.plan.misses != 0 {
        return Err(CheckFailure {
            tie,
            detail: format!(
                "disabled cache still counted {} hit(s) / {} miss(es)",
                cold.plan.hits, cold.plan.misses
            ),
        });
    }
    if let Some(detail) = diff_cache_runs(&cold, &warm) {
        return Err(CheckFailure { tie, detail });
    }
    Ok(warm.plan)
}

/// Summary of a cache-parity sweep.
#[derive(Clone, Debug, Default)]
pub struct ParityReport {
    /// Programs diffed (two executions each).
    pub programs: usize,
    /// Warm-leg cache hits across the sweep.
    pub hits: u64,
    /// Warm-leg cache misses across the sweep.
    pub misses: u64,
    /// Warm-leg epoch invalidations across the sweep.
    pub invalidations: u64,
    /// Failing seeds (empty when cold and warm agree everywhere).
    pub failures: Vec<FuzzFailure>,
}

/// Sweep `programs` seeds derived from `seed0` through
/// [`cache_parity_seed`], aggregating the warm-leg cache counters.
pub fn cache_parity(seed0: u64, programs: usize, cfg: &CheckConfig) -> ParityReport {
    let mut report = ParityReport::default();
    for i in 0..programs {
        let seed = spread_prng::mix(seed0, i as u64);
        match cache_parity_seed(seed, cfg) {
            Ok(stats) => {
                report.hits += stats.hits;
                report.misses += stats.misses;
                report.invalidations += stats.invalidations;
            }
            Err(failure) => report.failures.push(FuzzFailure { seed, failure }),
        }
        report.programs += 1;
    }
    report
}

/// One failing seed of a fuzzing run.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// The program seed.
    pub seed: u64,
    /// What went wrong.
    pub failure: CheckFailure,
}

/// Summary of a fuzzing run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Programs checked.
    pub programs: usize,
    /// Total runtime executions (programs × interleavings).
    pub executions: usize,
    /// Failing seeds (empty on a healthy runtime).
    pub failures: Vec<FuzzFailure>,
}

/// Check `programs` seeds derived from `seed0` (`mix(seed0, i)`), each
/// under `cfg.interleavings` interleavings. `progress` is called after
/// every program with `(done, failures_so_far)`.
pub fn fuzz(
    seed0: u64,
    programs: usize,
    cfg: &CheckConfig,
    mut progress: impl FnMut(usize, usize),
) -> FuzzReport {
    let mut report = FuzzReport::default();
    for i in 0..programs {
        let seed = spread_prng::mix(seed0, i as u64);
        if let Err(failure) = check_seed(seed, cfg) {
            report.failures.push(FuzzFailure { seed, failure });
        }
        report.programs += 1;
        report.executions += cfg.interleavings.max(1);
        progress(report.programs, report.failures.len());
    }
    report
}

/// Re-check a failing seed and shrink its program to a minimal
/// counterexample (deterministically).
pub fn shrink_seed(seed: u64, cfg: &CheckConfig) -> Option<(Program, CheckFailure)> {
    let p = gen::gen_program(seed, cfg.mode);
    check_program(&p, seed, cfg).err()?;
    let mut fails = |q: &Program| check_program(q, seed, cfg).is_err();
    let minimal = shrink::shrink(&p, &mut fails);
    let failure = check_program(&minimal, seed, cfg).expect_err("shrink keeps the program failing");
    Some((minimal, failure))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tie_breaks_are_reproducible_and_start_with_fifo() {
        let a = tie_breaks(7, 4);
        assert_eq!(a.len(), 4);
        assert_eq!(a[0], TieBreak::Fifo);
        assert_eq!(a, tie_breaks(7, 4));
        assert_ne!(tie_breaks(7, 4)[1], tie_breaks(8, 4)[1]);
    }

    #[test]
    fn a_legal_seed_checks_clean() {
        check_seed(0, &CheckConfig::default()).unwrap();
    }

    #[test]
    fn seeds_of_every_mode_check_clean_and_their_scenario_engages() {
        for (mode, ..) in Mode::ALL {
            let cfg = CheckConfig {
                interleavings: 2,
                mode,
                ..CheckConfig::default()
            };
            // Rescues, healed commits and pipelined pieces: each kind of
            // event stays out of the ledger outside its own mode (the
            // validators insist).
            let mut engaged = 0;
            for seed in 0..8u64 {
                if let Err(f) = check_seed(seed, &cfg) {
                    panic!("{mode:?} seed {seed}: {f}");
                }
                let got = run::execute(&gen::gen_program(seed, mode), TieBreak::Fifo, None);
                engaged += got
                    .events
                    .iter()
                    .filter(|e| {
                        matches!(
                            e,
                            RunEvent::Rescue(_) | RunEvent::Integrity(_) | RunEvent::Overlap(_)
                        )
                    })
                    .count();
            }
            if matches!(mode, Mode::Stragglers | Mode::Integrity | Mode::Overlap) {
                assert!(
                    engaged > 0,
                    "{mode:?}: no seed in 0..8 ever rescued / healed / pipelined"
                );
            }
        }
    }

    #[test]
    fn every_canary_is_caught_and_every_failing_seed_shrinks() {
        use ast::Stmt;
        fn any(p: &Program, f: fn(&Stmt) -> bool) -> bool {
            p.phases.iter().flatten().any(f)
        }
        for (name, fault, mode) in Fault::ALL {
            let cfg = CheckConfig {
                interleavings: 1,
                fault: Some(fault),
                mode,
            };
            // Per canary: the bounded scan some seed of which must trip
            // it, where the divergence may surface, and what a minimal
            // counterexample must have kept — the statement or scenario
            // that is load-bearing for the divergence.
            type Kept = fn(&Program) -> bool;
            let (seeds, surfaces, kept): (_, &[&str], Kept) = match fault {
                // The oracle-side canaries each perturb one rule of the
                // `spread-semantics` machine: the stencil halo, the
                // host fold, the redistribute recovery.
                Fault::StencilDropsLeftHalo => (0..40u64, &["array"], |p| {
                    any(
                        p,
                        |s| matches!(s, Stmt::Spread { op, .. } if op.name() == "stencil"),
                    )
                }),
                Fault::ReduceSkipsLast => (0..40, &["reduction"], |p| {
                    any(p, |s| matches!(s, Stmt::Reduce { .. }))
                }),
                Fault::RecoveryDropsLostChunk => (0..80, &["array"], |p| p.fault.is_some()),
                // A seed's `exchange(auto)` run must actually route a
                // halo device-to-device (a `bump`-free Halo with
                // interior chunks), so the corrupted byte reaches the
                // final host state. The host-forced runs stay clean —
                // the canary is inert there — which is exactly what
                // proves the differential leg watches the peer route.
                Fault::PeerCorrupt => (0..50, &["array"], |p| {
                    any(p, |s| matches!(s, Stmt::Halo { .. }))
                }),
                // With the checks silently disabled, the armed flips
                // either rot the final host state or — when a later
                // statement overwrites the rotten element — leave the
                // predicted healed-commit ledger empty.
                Fault::IntegrityCorrupt => (0..50, &["array", "healed"], |p| p.integrity.is_some()),
            };
            let mut caught = 0;
            for seed in seeds.clone() {
                if check_seed(seed, &cfg).is_ok() {
                    continue;
                }
                caught += 1;
                let (minimal, failure) = shrink_seed(seed, &cfg)
                    .unwrap_or_else(|| panic!("{name} seed {seed}: the failure must shrink"));
                assert!(
                    surfaces.iter().any(|s| failure.detail.contains(s)),
                    "{name} seed {seed}: surfaced as {failure}"
                );
                assert!(
                    !minimal.phases.is_empty(),
                    "{name} seed {seed}: shrank to an empty program"
                );
                assert!(
                    check_program(&minimal, seed, &cfg).is_err(),
                    "{name} seed {seed}: the minimal program stopped failing: {failure}"
                );
                assert!(
                    kept(&minimal),
                    "{name} seed {seed}: shrinking dropped what is load-bearing for the divergence"
                );
            }
            assert!(caught > 0, "{name}: no seed in {seeds:?} trips the canary");
        }
    }
}

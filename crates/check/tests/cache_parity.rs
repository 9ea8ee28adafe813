//! The differential cache-parity suite: for every fuzz mode, generated
//! programs run twice — cold planner (launch-plan cache disabled) vs
//! warm cache (enabled) — and every observable must be bit-identical:
//! final arrays, reduction values, `RtError`s, the degradation / rescue
//! / integrity / overlap / peer ledgers, adaptive profiles, mapping
//! snapshots, and the merged span timeline byte for byte. Each sweep
//! also asserts the warm leg actually served hits (a parity proof over
//! a cache that never hits would prove nothing).

use spread_check::{cache_parity, CheckConfig, Mode};

const PROGRAMS: usize = 50;

#[test]
fn cold_planner_and_warm_cache_agree_in_every_mode() {
    for (mode, ..) in Mode::ALL {
        let cfg = CheckConfig {
            mode,
            ..CheckConfig::default()
        };
        let report = cache_parity(1, PROGRAMS, &cfg);
        for f in &report.failures {
            eprintln!("FAIL {mode:?} seed {}: {}", f.seed, f.failure);
        }
        assert!(
            report.failures.is_empty(),
            "{mode:?}: {} of {} program(s) diverged between cold planner and warm cache",
            report.failures.len(),
            report.programs
        );
        // Auto constructs re-resolve their weights per launch and bump
        // the topology epoch after every profile record, so the cache
        // may legitimately never serve a hit there — the sweep still
        // demands bit-identical observables, which is the point.
        assert!(
            report.hits > 0 || mode == Mode::Auto,
            "{mode:?}: warm legs never hit the cache ({} misses, {} invalidations) — \
             the parity sweep proved nothing",
            report.misses,
            report.invalidations
        );
    }
}

//! Tier-1 smoke over **every** fuzz mode: a dozen generated programs per
//! clause family must agree with the oracle (and their family's ledger
//! validator) under two interleavings. `tests/conformance.rs` keeps the
//! deeper per-mode budgets and the canaries; CI runs the full sweeps
//! through the `fuzz` binary. A mode added to `Mode::ALL` is covered
//! here without a line changing.

use spread_check::{fuzz, CheckConfig, Mode};

#[test]
fn every_mode_agrees_with_the_oracle() {
    for (mode, ..) in Mode::ALL {
        let cfg = CheckConfig {
            interleavings: 2,
            mode,
            ..CheckConfig::default()
        };
        let report = fuzz(0x5EED, 12, &cfg, |_, _| {});
        assert_eq!(report.programs, 12, "{mode:?}");
        let seeds: Vec<u64> = report.failures.iter().map(|f| f.seed).collect();
        assert!(seeds.is_empty(), "{mode:?}: failing seeds {seeds:?}");
    }
}

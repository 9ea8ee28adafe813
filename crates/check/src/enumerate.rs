//! Bounded model checking: exhaustive enumeration of small directive
//! programs.
//!
//! Fuzzing samples the program space; this module *covers* it, up to a
//! bound. [`programs`] enumerates **every** sequence of up to
//! `max_stmts` statements drawn from a fixed [`alphabet`] — per machine
//! size (one and two devices) — and [`model_check`] runs each one
//! through the full conformance check: the `spread-semantics` machine
//! predicts the final host arrays, mapping tables and exact `RtError`
//! (if any), and the real runtime must reproduce that prediction
//! bit-for-bit under FIFO plus seeded tie-break interleavings.
//!
//! The alphabet is chosen to cross every presence-table rule with every
//! other: compute constructs (blocking and `nowait`, static and
//! weighted), raw enters that *reuse*, *extend-overlap* or *leak*
//! mappings, raw exits with `from` and `delete` (including `NotMapped`
//! misuse), raw updates on possibly-absent sections, and a malformed
//! directive. Sequencing them in every order exercises exactly the
//! paths where the spec machine and the runtime could drift: reuse
//! after leak, delete after reuse, update after delete, compute over a
//! leaked section, everything after a poisoning error.
//!
//! Programs keep `n = 8` elements and two arrays, so depth 3 across
//! both machine sizes stays around ~1 700 programs — small enough for a
//! CI job in release, while a depth-2 sweep (~180 programs) runs in the
//! plain test suite.

use crate::ast::{BadKind, KernelOp, Program, Sched, Stmt};
use crate::{check_program, CheckConfig, CheckFailure};

/// Array length of every enumerated program.
pub const N: usize = 8;

/// Number of host arrays of every enumerated program.
pub const N_ARRAYS: usize = 2;

/// The machine sizes the enumeration sweeps.
pub const DEVICE_COUNTS: [usize; 2] = [1, 2];

/// The statement alphabet for a machine of `n_devices` devices and
/// arrays of length `n`. Deterministic; the two-device machine extends
/// the one-device alphabet with statements that exercise device 1 and
/// reversed distribution order.
pub fn alphabet(n_devices: usize, n: usize) -> Vec<Stmt> {
    let all: Vec<u32> = (0..n_devices as u32).collect();
    let mut ab = vec![
        // Blocking static spread over every device (tofrom round-trip).
        Stmt::Spread {
            devices: all.clone(),
            sched: Sched::Static { chunk: n / 2 },
            nowait: false,
            op: KernelOp::AddConst { a: 0, c: 1.0 },
        },
        // Two-array kernel: `to` on A0, `tofrom` on A1.
        Stmt::Spread {
            devices: all.clone(),
            sched: Sched::Static { chunk: n },
            nowait: false,
            op: KernelOp::Saxpy {
                x: 0,
                y: 1,
                alpha: 0.5,
            },
        },
        // A mapping that reuses (same section twice) or leaks (never
        // exited).
        Stmt::RawEnter {
            device: 0,
            a: 0,
            start: 0,
            len: 4,
        },
        // Overlaps-without-containment with the one above: §V-B
        // extension error when both run, a plain leak alone.
        Stmt::RawEnter {
            device: 0,
            a: 0,
            start: 2,
            len: 4,
        },
        // Copy-out release — `NotMapped` when nothing contains it.
        Stmt::RawExit {
            device: 0,
            a: 0,
            start: 0,
            len: 4,
            delete: false,
        },
        // Forced delete: zeroes the refcount, discards the data.
        Stmt::RawExit {
            device: 0,
            a: 0,
            start: 0,
            len: 4,
            delete: true,
        },
        // Device→host refresh of a possibly-absent window.
        Stmt::RawUpdate {
            device: 0,
            a: 0,
            start: 0,
            len: 4,
            from: true,
        },
        // Malformed directive: poisons everything after it.
        Stmt::Bad {
            a: 0,
            kind: BadKind::EmptyDevices,
        },
    ];
    if n_devices > 1 {
        // Reversed distribution order + nowait + weighted schedule.
        ab.push(Stmt::Spread {
            devices: vec![1, 0],
            sched: Sched::Weighted {
                round: n / 2,
                weights: vec![1, 1],
            },
            nowait: true,
            op: KernelOp::Scale { a: 1, c: 2.0 },
        });
        // A mapping on the *other* device: presence is per-device, so
        // exits/updates addressed to device 0 must not see it.
        ab.push(Stmt::RawEnter {
            device: 1,
            a: 0,
            start: 0,
            len: 4,
        });
    }
    ab
}

fn build(n_devices: usize, ab: &[Stmt], digits: &[usize]) -> Program {
    Program {
        // One statement per phase: a `drain_all` barrier between any
        // two statements, so sequencing — not intra-phase overlap — is
        // what the enumeration explores.
        phases: digits.iter().map(|&i| vec![ab[i].clone()]).collect(),
        ..Program::new(n_devices, N, N_ARRAYS)
    }
}

/// Every program of `1..=max_stmts` statements over [`alphabet`], for
/// each machine size in [`DEVICE_COUNTS`], in a deterministic order.
pub fn programs(max_stmts: usize) -> Vec<Program> {
    let mut out = Vec::new();
    for &d in &DEVICE_COUNTS {
        let ab = alphabet(d, N);
        for len in 1..=max_stmts {
            // Odometer over `len` base-`ab.len()` digits.
            let mut digits = vec![0usize; len];
            loop {
                out.push(build(d, &ab, &digits));
                let mut k = 0;
                while k < len {
                    digits[k] += 1;
                    if digits[k] < ab.len() {
                        break;
                    }
                    digits[k] = 0;
                    k += 1;
                }
                if k == len {
                    break;
                }
            }
        }
    }
    out
}

/// One enumerated program the runtime disagreed with the spec on.
#[derive(Clone, Debug)]
pub struct ModelFailure {
    /// Index of the program in [`programs`]' order (doubles as the
    /// tie-break seed it was checked under).
    pub index: usize,
    /// The failing program.
    pub program: Program,
    /// How it failed.
    pub failure: CheckFailure,
}

/// Summary of a bounded model-checking run.
#[derive(Clone, Debug, Default)]
pub struct ModelCheckReport {
    /// Programs checked.
    pub programs: usize,
    /// Total runtime executions (programs × interleavings).
    pub executions: usize,
    /// Disagreements (empty when runtime and spec coincide on the
    /// whole bounded space).
    pub failures: Vec<ModelFailure>,
}

/// Check every program in [`programs`]`(max_stmts)` under
/// `cfg.interleavings` tie-break policies (seeded by the program's
/// index, so the sweep is reproducible with no seed input at all).
/// `progress` is called after every program with
/// `(done, total, failures_so_far)`.
pub fn model_check(
    max_stmts: usize,
    cfg: &CheckConfig,
    mut progress: impl FnMut(usize, usize, usize),
) -> ModelCheckReport {
    let space = programs(max_stmts);
    let total = space.len();
    let mut report = ModelCheckReport::default();
    for (index, program) in space.into_iter().enumerate() {
        if let Err(failure) = check_program(&program, index as u64, cfg) {
            report.failures.push(ModelFailure {
                index,
                program,
                failure,
            });
        }
        report.programs += 1;
        report.executions += cfg.interleavings.max(1);
        progress(report.programs, total, report.failures.len());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_space_has_the_closed_form_size() {
        // One device: 8 letters; two devices: 10. Depth k sums the
        // geometric series per machine.
        let count = |letters: usize, depth: usize| -> usize {
            (1..=depth).map(|l| letters.pow(l as u32)).sum()
        };
        assert_eq!(alphabet(1, N).len(), 8);
        assert_eq!(alphabet(2, N).len(), 10);
        assert_eq!(programs(1).len(), count(8, 1) + count(10, 1));
        assert_eq!(programs(2).len(), count(8, 2) + count(10, 2));
    }

    #[test]
    fn enumeration_is_deterministic() {
        let a = programs(2);
        let b = programs(2);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn depth_one_model_checks_clean() {
        // The full bounded sweep lives in `tests/semantics_exhaustive`;
        // here just prove the driver end-to-end on the singletons.
        let cfg = CheckConfig {
            interleavings: 2,
            ..CheckConfig::default()
        };
        let report = model_check(1, &cfg, |_, _, _| {});
        assert_eq!(report.programs, 18);
        assert!(
            report.failures.is_empty(),
            "disagreements: {:?}",
            report.failures
        );
    }
}

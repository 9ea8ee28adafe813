//! What to check: the fuzz [`Mode`] (which clause family the generator
//! arms), the injected [`Fault`] canary, and the [`CheckConfig`] that
//! carries both — with their one command-line spelling, shared by the
//! `fuzz` and `replay` binaries.

/// The clause family under test: what [`crate::gen::gen_program`] arms
/// for a seed, and what [`crate::check_program`] demands beyond the
/// oracle's bit-identical host arrays, reduction values, mapping tables
/// and zero race reports. One mode per run — the scenarios a
/// [`crate::Program`] carries may coexist, but the generator arms one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Mode {
    /// The whole statement alphabet — spread kernels under static,
    /// weighted and dynamic schedules with `nowait`, halo'd stencils,
    /// cross-device reductions, data regions — plus, on some seeds, a
    /// final phase of raw (leaking or illegal) data directives whose
    /// exact `RtError` the oracle predicts. No scenario attached.
    #[default]
    Plain,
    /// Seeded fault plans ([`crate::ast::FaultSpec`]): a device dead on
    /// arrival under fail-stop or `spread_resilience(redistribute)`,
    /// plus retry-absorbable transient copy bursts. No dynamic
    /// schedules and no raw phase, so the only admissible error is the
    /// loss itself: resilient programs must match the fault-free
    /// prediction bit-for-bit, fail-stop ones the exact `DeviceLost`.
    Faults,
    /// Memory-pressure scenarios ([`crate::ast::PressureSpec`]): tiny
    /// device capacities plus sustained OOM windows over blocking,
    /// statically distributed spread kernels. The oracle additionally
    /// predicts the exact [`spread_semantics::Degradation`] sequence
    /// (admission shrinks, chunk splits, host spills) or the exact
    /// `Degraded` error, while results stay bit-identical.
    Pressure,
    /// `spread_schedule(auto)` programs: blocking constructs over
    /// placement-independent kernels with repeated construct keys, so
    /// the runtime's profile-guided adaptation engages across launches.
    /// The oracle predicts from an equal-weight stand-in split, and
    /// every realized split ([`spread_trace::ConstructProfile`]) must be
    /// a valid `StaticWeighted` plan.
    Auto,
    /// Halo-exchange programs ([`crate::ast::Stmt::Halo`]) checked
    /// *differentially*: every interleaving runs with the exchange
    /// forced through the host (the paper's round-trip — it must match
    /// the oracle and perform zero peer copies), then one
    /// `exchange(auto)` run must reproduce the same bits while
    /// performing **exactly** the closed-form device-to-device route set
    /// [`crate::oracle::predict_peer_copies`] derives from the
    /// generator's halo invariants — none diverted, missing or extra.
    Peer,
    /// Straggler scenarios ([`crate::ast::StragglerSpec`]): blocking
    /// spread kernels under `spread_straggler(steal|replicate)` with
    /// one device's compute slowed 10–16× from time zero. Slowdowns
    /// stretch durations only and rescues are first-commit-wins, so
    /// results must match the *fault-free* oracle while every recorded
    /// [`spread_rt::RescueRecord`] is structurally sound (exactly one
    /// commit, a healthy in-range target other than the straggler).
    Stragglers,
    /// Silent-corruption scenarios ([`crate::ast::IntegritySpec`]):
    /// blocking spread kernels under `spread_integrity(heal)` with flip
    /// bursts armed from time zero, far below the mismatch breaker.
    /// Detect→discard→redo rounds are value-invisible, so results must
    /// match the *flip-blind* oracle while the recorded
    /// [`spread_rt::IntegrityEvent`]s equal the closed-form ledger —
    /// exactly `count` healed commits per flipped device that drains.
    Integrity,
    /// Pipelined-overlap scenarios ([`crate::ast::OverlapSpec`]): every
    /// blocking spread kernel carries `spread_overlap(depth)`,
    /// `2 ≤ depth ≤ 4`. The pipeline is a pure latency optimization, so
    /// the oracle stays *overlap-blind* while the recorded
    /// [`spread_rt::OverlapRecord`]s must match the closed-form piece
    /// count (one per multi-iteration chunk) with every staged
    /// sub-slice committing exactly at the whole-piece boundary.
    Overlap,
}

impl Mode {
    /// Every mode with its command-line flag (none selects
    /// [`Mode::Plain`]) and the clause the `fuzz` banner appends.
    pub const ALL: [(Mode, &'static str, &'static str); 8] = [
        (Mode::Plain, "", ""),
        (Mode::Faults, "--faults", ", with fault plans"),
        (
            Mode::Pressure,
            "--pressure",
            ", with memory-pressure scenarios",
        ),
        (Mode::Auto, "--auto", ", with adaptive (auto) schedules"),
        (Mode::Peer, "--peer", ", with differential peer exchanges"),
        (Mode::Stragglers, "--stragglers", ", with straggler rescues"),
        (
            Mode::Integrity,
            "--integrity",
            ", with silent-corruption healing",
        ),
        (
            Mode::Overlap,
            "--overlap",
            ", with pipelined transfer/compute overlap",
        ),
    ];

    fn row(self) -> &'static (Mode, &'static str, &'static str) {
        let row = Mode::ALL.iter().find(|row| row.0 == self);
        row.expect("every mode has a row in Mode::ALL")
    }

    /// The rows that carry a flag: every mode but `Plain`.
    fn flagged() -> impl Iterator<Item = &'static (Mode, &'static str, &'static str)> {
        Mode::ALL.iter().filter(|row| row.0 != Mode::Plain)
    }

    /// The command-line flag selecting this mode (empty for `Plain`).
    pub fn flag(self) -> &'static str {
        self.row().1
    }

    /// What the `fuzz` banner says about this mode (empty for `Plain`).
    pub fn banner(self) -> &'static str {
        self.row().2
    }
}

/// A deliberate perturbation injected into one side of the comparison,
/// used to prove the harness catches disagreements (and to exercise
/// replay + shrinking on a reproducible failure). The first three
/// perturb the *oracle*; the other two perturb the *program* the
/// harness runs, so each doubles as proof that the real bug it imitates
/// would be flagged. Bugs in the runtime itself are committed mutation
/// rows under `mutants/`, not canaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The oracle "forgets" the left halo element of the stencil.
    StencilDropsLeftHalo,
    /// The oracle's host-side reduction fold skips the last element.
    ReduceSkipsLast,
    /// The oracle pretends `spread_resilience(redistribute)` silently
    /// drops the lost device's chunks instead of replaying them — the
    /// canary proving the harness catches recovery divergence.
    RecoveryDropsLostChunk,
    /// The program's fault plan arms one silent flip against the
    /// destination of the first predicted device-to-device route — the
    /// canary proving the differential peer harness really watches the
    /// peer route: the host-forced runs stay bit-clean and only the
    /// `exchange(auto)` run diverges.
    PeerCorrupt,
    /// The program downgrades every construct's `spread_integrity(…)`
    /// clause to `off` while its silent flips stay armed —
    /// the corruption reaches the host unnoticed, and the flip-blind
    /// oracle comparison must catch the bit divergence. The canary
    /// proving the harness would flag a checksum layer that silently
    /// stopped checking.
    IntegrityCorrupt,
}

impl Fault {
    /// Every canary with its `--inject` name and the mode whose
    /// programs can expose it. A canary naming a clause-family mode
    /// perturbs that family's scenario and is inert without it; the two
    /// naming [`Mode::Plain`] fire wherever a stencil or a reduction is
    /// generated.
    pub const ALL: [(&'static str, Fault, Mode); 5] = [
        ("stencil", Fault::StencilDropsLeftHalo, Mode::Plain),
        ("reduce", Fault::ReduceSkipsLast, Mode::Plain),
        ("recovery", Fault::RecoveryDropsLostChunk, Mode::Faults),
        ("peer", Fault::PeerCorrupt, Mode::Peer),
        ("integrity", Fault::IntegrityCorrupt, Mode::Integrity),
    ];

    /// Parse a `--inject` argument.
    pub fn parse(s: &str) -> Option<Fault> {
        Fault::ALL.iter().find(|row| row.0 == s).map(|row| row.1)
    }

    fn row(self) -> &'static (&'static str, Fault, Mode) {
        let row = Fault::ALL.iter().find(|row| row.1 == self);
        row.expect("every canary has a row in Fault::ALL")
    }

    /// The `--inject` name [`Fault::parse`] accepts for this canary.
    pub fn name(self) -> &'static str {
        self.row().0
    }

    /// The mode whose programs can expose this canary.
    pub fn mode(self) -> Mode {
        self.row().2
    }
}

/// How to check a program.
#[derive(Clone, Copy, Debug)]
pub struct CheckConfig {
    /// Number of interleavings per program: FIFO plus
    /// `interleavings − 1` seeded tie-break permutations.
    pub interleavings: usize,
    /// Optional perturbation of the oracle or the runtime.
    pub fault: Option<Fault>,
    /// The clause family the generator arms.
    pub mode: Mode,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            interleavings: 4,
            fault: None,
            mode: Mode::Plain,
        }
    }
}

impl CheckConfig {
    /// The options `fuzz` and `replay` share, as a usage line spells
    /// them.
    pub fn usage() -> String {
        let flags: Vec<String> = Mode::flagged().map(|row| format!("[{}]", row.1)).collect();
        let canaries: Vec<&str> = Fault::ALL.iter().map(|row| row.0).collect();
        format!(
            "[--interleavings K] {} [--inject {}]",
            flags.join(" "),
            canaries.join("|")
        )
    }

    /// Consume `arg` when it is one of the shared options, taking its
    /// value from `rest`; `Ok(false)` leaves it to the caller.
    pub fn parse_arg(
        &mut self,
        arg: &str,
        rest: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        let mut value = || rest.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg {
            "--interleavings" => {
                self.interleavings = value()?
                    .parse()
                    .map_err(|e| format!("--interleavings: {e}"))?
            }
            "--inject" => {
                let f = value()?;
                self.fault = Some(Fault::parse(&f).ok_or_else(|| format!("unknown fault `{f}`"))?);
            }
            flag => match Mode::flagged().find(|row| row.1 == flag) {
                Some(row) if self.mode == Mode::Plain || self.mode == row.0 => self.mode = row.0,
                Some(_) => {
                    let flags: Vec<&str> = Mode::flagged().map(|row| row.1).collect();
                    return Err(format!("{} are mutually exclusive", flags.join(", ")));
                }
                None => return Ok(false),
            },
        }
        Ok(true)
    }

    /// Reject a canary that is inert under the selected mode: it would
    /// perturb nothing and the run would pass vacuously.
    pub fn reject_inert_canary(&self) -> Result<(), String> {
        match self.fault {
            Some(f) if f.mode() != Mode::Plain && f.mode() != self.mode => Err(format!(
                "--inject {} needs {} (the canary is inert in every other mode)",
                f.name(),
                f.mode().flag()
            )),
            _ => Ok(()),
        }
    }

    /// The mode and canary arguments that reproduce this configuration
    /// under `replay`, each with a leading space.
    pub fn replay_args(&self) -> String {
        let mut args = String::new();
        if self.mode != Mode::Plain {
            args = format!(" {}", self.mode.flag());
        }
        if let Some(f) = self.fault {
            args += &format!(" --inject {}", f.name());
        }
        args
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tables_are_total_and_round_trip() {
        for (name, fault, _) in Fault::ALL {
            assert_eq!(Fault::parse(name), Some(fault));
            assert_eq!(fault.name(), name);
        }
        assert_eq!(Fault::parse("nope"), None);
        let mut none = std::iter::empty();
        for (mode, flag, _) in Mode::ALL {
            assert_eq!(mode.flag(), flag);
            let mut cfg = CheckConfig::default();
            assert_eq!(cfg.parse_arg(flag, &mut none), Ok(mode != Mode::Plain));
            assert_eq!(cfg.mode, mode, "{flag}");
        }
    }

    #[test]
    fn shared_options_parse_and_reject() {
        let mut cfg = CheckConfig::default();
        let mut rest = ["integrity", "3"].map(String::from).into_iter();
        assert_eq!(cfg.parse_arg("--integrity", &mut rest), Ok(true));
        assert_eq!(cfg.parse_arg("--integrity", &mut rest), Ok(true));
        assert_eq!(cfg.parse_arg("--inject", &mut rest), Ok(true));
        assert_eq!(cfg.parse_arg("--interleavings", &mut rest), Ok(true));
        assert_eq!(cfg.parse_arg("--interleavings", &mut rest).ok(), None);
        assert_eq!(cfg.parse_arg("--programs", &mut rest), Ok(false));
        assert!(cfg.parse_arg("--peer", &mut rest).is_err(), "two modes");
        assert_eq!((cfg.mode, cfg.interleavings), (Mode::Integrity, 3));
        assert_eq!(cfg.replay_args(), " --integrity --inject integrity");
        assert_eq!(cfg.reject_inert_canary(), Ok(()));
        // The same canary anywhere else is inert; the oracle-side
        // stencil/reduce canaries fire wherever their statements occur.
        cfg.mode = Mode::Pressure;
        let err = cfg.reject_inert_canary().unwrap_err();
        assert!(err.contains("--integrity"), "{err}");
        cfg.fault = Some(Fault::ReduceSkipsLast);
        assert_eq!(cfg.reject_inert_canary(), Ok(()));
    }
}

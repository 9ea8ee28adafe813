//! Clause legality as data: which clause families each spread directive
//! takes, and which clause combinations it refuses, in one table.
//!
//! Every spread builder carries the same [`ClauseSet`]
//! ([`SpreadClausesExt`](crate::SpreadClausesExt)), but not every
//! directive can honour every clause, and some clauses cannot meet on
//! one launch. `DIRECTIVES` holds that decision for the five pragmas of
//! paper §III-B, one entry each: the clause families the pragma takes
//! (any other family set to a non-default value is refused), then an
//! ordered list of rows — `Reject` (two clauses never meet), `Requires`
//! (a clause needs a prerequisite; a static schedule and a blocking
//! construct are prerequisites like any other) and `Refuse` (a schedule
//! kind the pragma cannot place).
//!
//! Each launch is checked once, families first, then rows in order; the
//! first violation is the launch's [`RtError::InvalidDirective`],
//! spelled `"<pragma>: <reason>"`. Nothing is allocated unless a launch
//! is refused. [`render`] prints the table — the rows, their reasons
//! and why each exists — as DESIGN.md §14 carries it.

use std::fmt::Write as _;

use spread_rt::{IntegrityMode, RtError};

use crate::clauses::{ClauseSet, OverlapPolicy};
use crate::pressure::PressurePolicy;
use crate::recovery::ResiliencePolicy;
use crate::schedule::SpreadSchedule;
use crate::straggler::StragglerPolicy;

/// The five spread directives (paper §III-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Pragma {
    /// `target spread` — the executable construct.
    Spread,
    /// `target data spread { … }` — the structured data region.
    Data,
    /// `target enter data spread`.
    EnterData,
    /// `target exit data spread`.
    ExitData,
    /// `target update spread`.
    Update,
}

impl Pragma {
    /// The pragma as written, the prefix of every refusal.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Pragma::Spread => "target spread",
            Pragma::Data => "target data spread",
            Pragma::EnterData => "target enter data spread",
            Pragma::ExitData => "target exit data spread",
            Pragma::Update => "target update spread",
        }
    }
}

/// A clause family of the [`ClauseSet`], present when set to anything
/// but its default.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Family {
    /// `spread_schedule(…)`.
    Schedule,
    /// `spread_resilience(…)`.
    Resilience,
    /// `spread_pressure(…)`.
    Pressure,
    /// `spread_straggler(…)`.
    Straggler,
    /// `spread_integrity(…)`.
    Integrity,
    /// `spread_overlap(…)`.
    Overlap,
    /// `spread_plan_cache(…)`.
    PlanCache,
}

impl Family {
    /// Every family, in the order a launch is checked for them.
    pub(crate) const ALL: [Family; 7] = [
        Family::Schedule,
        Family::Resilience,
        Family::Pressure,
        Family::Straggler,
        Family::Integrity,
        Family::Overlap,
        Family::PlanCache,
    ];

    /// The clause as written.
    pub(crate) fn spelling(self) -> &'static str {
        match self {
            Family::Schedule => "spread_schedule(…)",
            Family::Resilience => "spread_resilience(…)",
            Family::Pressure => "spread_pressure(…)",
            Family::Straggler => "spread_straggler(…)",
            Family::Integrity => "spread_integrity(…)",
            Family::Overlap => "spread_overlap(…)",
            Family::PlanCache => "spread_plan_cache(…)",
        }
    }

    fn present(self, set: &ClauseSet) -> bool {
        match self {
            Family::Schedule => set.schedule.is_some(),
            Family::Resilience => set.resilience != ResiliencePolicy::FailStop,
            Family::Pressure => set.pressure != PressurePolicy::Fail,
            Family::Straggler => set.straggler != StragglerPolicy::Wait,
            Family::Integrity => set.integrity != IntegrityMode::Off,
            Family::Overlap => set.overlap != OverlapPolicy::Off,
            Family::PlanCache => set.plan_key.is_some(),
        }
    }
}

/// One fact about a launch that a [`Rule`] tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Clause {
    /// `spread_schedule(dynamic, c)`.
    Dynamic,
    /// `spread_schedule(auto)`.
    AutoSchedule,
    /// A static distribution: any schedule but `dynamic`
    /// (`auto` resolves to a weighted static plan).
    Static,
    /// No `nowait`: the directive blocks until its chunks complete.
    Blocking,
    /// `spread_resilience(redistribute)`.
    Redistribute,
    /// `spread_pressure(split|spill)`.
    Pressure,
    /// `spread_straggler(steal|replicate)`.
    Straggler,
    /// `spread_integrity(heal)`.
    Heal,
    /// `spread_overlap(depth|auto)`.
    Overlap,
    /// `spread_overlap(auto)`.
    OverlapAuto,
    /// Any overlap but `spread_overlap(0)`.
    PositiveDepth,
    /// `spread_plan_cache(key)`.
    PlanCache,
    /// `exchange(peer)` on `target update spread`.
    PeerExchange,
    /// `from(…)` items on `target update spread`.
    FromItems,
}

impl Clause {
    /// The clause as written in the rendered table (markdown).
    pub(crate) fn spelling(self) -> &'static str {
        match self {
            Clause::Dynamic => "`spread_schedule(dynamic)`",
            Clause::AutoSchedule => "`spread_schedule(auto)`",
            Clause::Static => "a static schedule",
            Clause::Blocking => "a blocking construct",
            Clause::Redistribute => "`spread_resilience(redistribute)`",
            Clause::Pressure => "`spread_pressure(split|spill)`",
            Clause::Straggler => "`spread_straggler(steal|replicate)`",
            Clause::Heal => "`spread_integrity(heal)`",
            Clause::Overlap => "`spread_overlap(depth|auto)`",
            Clause::OverlapAuto => "`spread_overlap(auto)`",
            Clause::PositiveDepth => "a depth ≥ 1",
            Clause::PlanCache => "`spread_plan_cache(key)`",
            Clause::PeerExchange => "`exchange(peer)`",
            Clause::FromItems => "`from(…)` items",
        }
    }

    fn holds(self, l: &Launch<'_>) -> bool {
        let dynamic = matches!(l.set.schedule, Some(SpreadSchedule::Dynamic { .. }));
        match self {
            Clause::Dynamic => dynamic,
            Clause::AutoSchedule => matches!(l.set.schedule, Some(SpreadSchedule::Auto { .. })),
            Clause::Static => !dynamic,
            Clause::Blocking => !l.nowait,
            Clause::Redistribute => l.set.resilience == ResiliencePolicy::Redistribute,
            Clause::Pressure => l.set.pressure != PressurePolicy::Fail,
            Clause::Straggler => l.set.straggler != StragglerPolicy::Wait,
            Clause::Heal => l.set.integrity == IntegrityMode::Heal,
            Clause::Overlap => l.set.overlap != OverlapPolicy::Off,
            Clause::OverlapAuto => l.set.overlap == OverlapPolicy::Auto,
            Clause::PositiveDepth => l.set.overlap != OverlapPolicy::Depth(0),
            Clause::PlanCache => l.set.plan_key.is_some(),
            Clause::PeerExchange => l.peer,
            Clause::FromItems => l.from_items,
        }
    }
}

/// One row; its reason is the refusal's text after `"<pragma>: "`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Rule {
    /// The two clauses never meet on one launch.
    Reject(Clause, Clause, &'static str),
    /// The first clause needs the second.
    Requires(Clause, Clause, &'static str),
    /// The directive cannot take the clause at all.
    Refuse(Clause, &'static str),
}

impl Rule {
    fn violated(self, l: &Launch<'_>) -> Option<&'static str> {
        match self {
            Rule::Reject(a, b, reason) => (a.holds(l) && b.holds(l)).then_some(reason),
            Rule::Requires(a, p, reason) => (a.holds(l) && !p.holds(l)).then_some(reason),
            Rule::Refuse(a, reason) => a.holds(l).then_some(reason),
        }
    }
}

/// A [`Rule`] and why it exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Row {
    /// The rule.
    pub(crate) rule: Rule,
    /// The rationale, rendered beside the table.
    pub(crate) why: &'static str,
}

/// One pragma's line of the table.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Directive {
    /// The pragma.
    pub(crate) pragma: Pragma,
    /// The clause families it takes.
    pub(crate) supports: &'static [Family],
    /// Its rows, in check order.
    pub(crate) rows: &'static [Row],
}

const fn row(rule: Rule, why: &'static str) -> Row {
    Row { rule, why }
}

use Clause::*;
use Rule::{Refuse, Reject, Requires};

const CONSTRUCT_ROWS: &[Row] = &[
    row(
        Requires(AutoSchedule, Blocking, "spread_schedule(auto) requires a blocking construct"),
        "the profile window closes at construct completion, which a nowait construct does not observe",
    ),
    row(
        Requires(
            OverlapAuto,
            AutoSchedule,
            "spread_overlap(auto) requires spread_schedule(auto) on the same construct",
        ),
        "the depth controller learns in the per-construct-key profile store of `auto`; without a keyed construct there is nothing to learn from",
    ),
    row(
        Requires(Redistribute, Static, "spread_resilience(redistribute) requires a static schedule"),
        "dynamic chunks have no pre-assigned device to route off; the claim chains already absorb loss-shaped imbalance",
    ),
    row(
        Requires(PlanCache, Static, "spread_plan_cache(…) requires a static schedule"),
        "dynamic placement happens at claim time, so there is no launch-time plan to cache",
    ),
    row(
        Requires(Overlap, PositiveDepth, "spread_overlap(0) is invalid (depth must be ≥ 1)"),
        "a pipeline has at least one stage; `spread_overlap(1)` is exactly `off`",
    ),
    row(
        Requires(Overlap, Static, "spread_overlap(…) requires a static schedule"),
        "sub-slice planning works off the static chunk → device assignment",
    ),
    row(
        Requires(Overlap, Blocking, "spread_overlap(…) requires a blocking construct"),
        "the pipeline's staged commits drain at the construct's blocking completion",
    ),
    row(
        Reject(
            Overlap,
            Pressure,
            "spread_overlap(…) is incompatible with spread_pressure(split|spill)",
        ),
        "admission budgets whole pieces against headroom; splitting or spilling a piece mid-pipeline would void both plans, and pipelining raises peak residency",
    ),
    row(
        Requires(
            Straggler,
            Static,
            "spread_straggler(steal|replicate) requires a static schedule",
        ),
        "the deadline sweep and the least-loaded pick work off the static chunk → device assignment; dynamic chunks absorb imbalance through claim order",
    ),
    row(
        Requires(
            Straggler,
            Blocking,
            "spread_straggler(steal|replicate) requires a blocking construct",
        ),
        "the construct's blocking drain owns the rescue exits",
    ),
    row(
        Requires(Heal, Static, "spread_integrity(heal) requires a static schedule"),
        "healing rebuilds the same piece on a known device; dynamic chunks have no stable piece → device identity",
    ),
    row(
        Requires(Heal, Blocking, "spread_integrity(heal) requires a blocking construct"),
        "the blocking drain owns the redo exits",
    ),
    row(
        Reject(
            Heal,
            Straggler,
            "spread_integrity(heal) is incompatible with spread_straggler(steal|replicate); \
             use spread_integrity(verify)",
        ),
        "a heal redo racing a rescue of the same piece would double-arbitrate the commit gate; `verify` composes (a mismatch just fails the construct)",
    ),
    row(
        Reject(
            Heal,
            Pressure,
            "spread_integrity(heal) is incompatible with spread_pressure(split|spill); \
             use spread_integrity(verify)",
        ),
        "both register recovery handlers on the same construct phases; composing the two degradation ladders is future work",
    ),
    row(
        Requires(Pressure, Static, "spread_pressure(split|spill) requires a static schedule"),
        "admission plans against the static chunk → device assignment",
    ),
    row(
        Reject(
            Pressure,
            Redistribute,
            "spread_pressure(split|spill) is incompatible with spread_resilience(redistribute)",
        ),
        "both re-place a failed piece, in halves on its own device or whole on a survivor; arbitrating two replacement plans for one piece is future work",
    ),
    row(
        Requires(Pressure, Blocking, "spread_pressure(split|spill) requires a blocking construct"),
        "the admission plan budgets the whole construct against headroom sampled at launch; constructs raced in underneath would invalidate it",
    ),
];

const REFUSE_DYNAMIC: Row = row(
    Refuse(
        Dynamic,
        "data spread directives require a static distribution \
         (dynamic placement is undecidable at mapping time)",
    ),
    "the chunk → device assignment must be known when the mapping is created",
);

const REFUSE_AUTO: Row = row(
    Refuse(
        AutoSchedule,
        "data spread directives require a static distribution \
         (spread_schedule(auto) only resolves on executable constructs)",
    ),
    "`auto` resolves against a construct's profile history, which a data directive does not have",
);

const DATA_ROWS: &[Row] = &[REFUSE_DYNAMIC, REFUSE_AUTO];

const UPDATE_ROWS: &[Row] = &[
    row(
        Reject(
            PeerExchange,
            Redistribute,
            "exchange(peer) cannot compose with spread_resilience(redistribute): \
             a lost peer leaves no permitted route",
        ),
        "redistribution replays from the staged host image, the very fallback `peer` forbids; `exchange(auto)` composes because it degrades to the host path",
    ),
    row(
        Reject(
            Heal,
            FromItems,
            "spread_integrity(heal) cannot compose with from(…) items (the host image is being \
             overwritten — nothing unharmed to heal from); use spread_integrity(verify)",
        ),
        "a `from` drain makes the host the destination, so healing would re-read the very device bytes that failed verification",
    ),
    REFUSE_DYNAMIC,
    REFUSE_AUTO,
];

const DATA_FAMILIES: &[Family] = &[Family::Schedule, Family::Resilience];

/// The table, indexed by [`Pragma`] in declaration order.
pub(crate) const DIRECTIVES: [Directive; 5] = [
    Directive {
        pragma: Pragma::Spread,
        supports: &Family::ALL,
        rows: CONSTRUCT_ROWS,
    },
    Directive {
        pragma: Pragma::Data,
        supports: DATA_FAMILIES,
        rows: DATA_ROWS,
    },
    Directive {
        pragma: Pragma::EnterData,
        supports: DATA_FAMILIES,
        rows: DATA_ROWS,
    },
    Directive {
        pragma: Pragma::ExitData,
        supports: DATA_FAMILIES,
        rows: DATA_ROWS,
    },
    Directive {
        pragma: Pragma::Update,
        supports: &[Family::Schedule, Family::Resilience, Family::Integrity],
        rows: UPDATE_ROWS,
    },
];

// `check` indexes the table by pragma.
const _: () = {
    let mut i = 0;
    while i < DIRECTIVES.len() {
        assert!(DIRECTIVES[i].pragma as usize == i);
        i += 1;
    }
};

/// What a launch carries, as far as legality is concerned.
#[derive(Clone, Copy)]
pub(crate) struct Launch<'a> {
    pub set: &'a ClauseSet,
    pub nowait: bool,
    pub peer: bool,
    pub from_items: bool,
}

impl<'a> Launch<'a> {
    /// A blocking launch of `set` with no directive-specific items.
    pub fn of(set: &'a ClauseSet) -> Self {
        Launch {
            set,
            nowait: false,
            peer: false,
            from_items: false,
        }
    }
}

/// Check `launch` as `pragma`: the first unsupported family or
/// violated row rejects it.
pub(crate) fn check(pragma: Pragma, launch: &Launch<'_>) -> Result<(), RtError> {
    let d = &DIRECTIVES[pragma as usize];
    let name = pragma.name();
    if let Some(f) = Family::ALL
        .into_iter()
        .find(|f| f.present(launch.set) && !d.supports.contains(f))
    {
        return Err(RtError::InvalidDirective(format!(
            "{name}: the {} clause is not supported on this directive",
            f.spelling()
        )));
    }
    match d.rows.iter().find_map(|r| r.rule.violated(launch)) {
        Some(reason) => Err(RtError::InvalidDirective(format!("{name}: {reason}"))),
        None => Ok(()),
    }
}

/// The table as markdown: the directive × family support matrix, then
/// every row in check order with its rationale. DESIGN.md carries this
/// text verbatim between its `compose:begin`/`compose:end` markers.
pub fn render() -> String {
    let mut out = String::from("| Clause |");
    for d in &DIRECTIVES {
        let _ = write!(out, " `{}` |", d.pragma.name());
    }
    let _ = writeln!(out, "\n|---|{}", "---|".repeat(DIRECTIVES.len()));
    for f in Family::ALL {
        let _ = write!(out, "| `{}` |", f.spelling());
        for d in &DIRECTIVES {
            out.push_str(if d.supports.contains(&f) {
                " ✓ |"
            } else {
                " ✗ |"
            });
        }
        out.push('\n');
    }
    out.push_str(
        "\nRows, in check order; the reason is the error text after `<pragma>: `.\n\n\
         | # | Directive | Rule | Reason | Why |\n|---|---|---|---|---|\n",
    );
    let mut n = 0;
    // Adjacent directives with the same rows share one block.
    for group in DIRECTIVES.chunk_by(|a, b| a.rows == b.rows) {
        let pragmas: Vec<String> = group
            .iter()
            .map(|d| format!("`{}`", d.pragma.name()))
            .collect();
        let pragmas = pragmas.join(", ");
        for r in group[0].rows {
            n += 1;
            let (rule, reason) = match r.rule {
                Reject(a, b, reason) => (format!("{} ✗ {}", a.spelling(), b.spelling()), reason),
                Requires(a, p, reason) => (
                    format!("{} requires {}", a.spelling(), p.spelling()),
                    reason,
                ),
                Refuse(a, reason) => (format!("refuses {}", a.spelling()), reason),
            };
            let cells = [pragmas.as_str(), &rule, reason, r.why].map(|c| c.replace('|', "\\|"));
            let _ = writeln!(out, "| {n} | {} |", cells.join(" | "));
        }
    }
    out
}

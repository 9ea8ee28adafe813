//! Differential test for the task graph: seeded random `TaskSpec`
//! programs driven in lockstep through [`TaskGraph`] (which retires
//! tasks at `finish` and finds dependence records and running
//! footprints through a hash grid of length-class cells, walking a
//! context's live list when a query spans more cells than the context
//! holds entries) and through [`NaiveGraph`], the
//! algorithm the graph used before — every task kept forever, records
//! pruned and rescanned on every `create`, every running task's
//! footprints walked on every `start`. Both must agree on every
//! observable: `ready` flags, `finish` return vectors, the counters,
//! task states and the race ledger, element for element.
//!
//! The naive model is the reference and lives only here.

use std::collections::HashMap;

use spread_prng::Prng;
use spread_rt::task::{
    FpAccess, GroupId, LiveCounts, RaceReport, TaskGraph, TaskId, TaskSpec, TaskState,
};
use spread_rt::{ArrayId, Section};

// ---------------------------------------------------------------------
// The reference: linear scans over everything ever created.
// ---------------------------------------------------------------------

struct NaiveTask {
    label: String,
    state: TaskState,
    unfinished_preds: usize,
    succs: Vec<TaskId>,
    group: Option<GroupId>,
    gate_group: Option<GroupId>,
    parent: Option<TaskId>,
    fp_reads: Vec<FpAccess>,
    fp_writes: Vec<FpAccess>,
}

struct NaiveGroup {
    unfinished: usize,
    gated: Vec<TaskId>,
}

#[derive(Clone, Copy)]
struct NaiveRecord {
    task: TaskId,
    section: Section,
    write: bool,
}

#[derive(Default)]
struct NaiveGraph {
    tasks: HashMap<u64, NaiveTask>,
    next_task: u64,
    groups: Vec<NaiveGroup>,
    records: HashMap<(Option<TaskId>, ArrayId), Vec<NaiveRecord>>,
    running: Vec<TaskId>,
    races: Vec<RaceReport>,
    unfinished: usize,
    children: HashMap<Option<TaskId>, usize>,
}

impl NaiveGraph {
    fn unfinished_children(&self, parent: Option<TaskId>) -> usize {
        self.children.get(&parent).copied().unwrap_or(0)
    }

    fn group_create(&mut self) -> GroupId {
        self.groups.push(NaiveGroup {
            unfinished: 0,
            gated: Vec::new(),
        });
        GroupId((self.groups.len() - 1) as u32)
    }

    fn group_is_empty(&self, g: GroupId) -> bool {
        self.groups[g.0 as usize].unfinished == 0
    }

    fn state(&self, id: TaskId) -> TaskState {
        self.tasks[&id.0].state
    }

    fn create(&mut self, spec: TaskSpec) -> (TaskId, bool) {
        let id = TaskId(self.next_task);
        self.next_task += 1;

        let mut preds: Vec<TaskId> = Vec::new();
        for &(sec, is_write) in &spec.wait_on {
            let key = (spec.parent, sec.array);
            if let Some(records) = self.records.get_mut(&key) {
                records.retain(|r| {
                    self.tasks
                        .get(&r.task.0)
                        .map(|t| t.state != TaskState::Finished)
                        .unwrap_or(false)
                });
                for r in records.iter() {
                    let conflict = if is_write {
                        r.section.overlaps(&sec)
                    } else {
                        r.write && r.section.overlaps(&sec)
                    };
                    if conflict && !preds.contains(&r.task) {
                        preds.push(r.task);
                    }
                }
            }
        }
        for &p in &spec.extra_preds {
            if self.state(p) != TaskState::Finished && !preds.contains(&p) {
                preds.push(p);
            }
        }

        for &(section, write) in &spec.publish {
            self.records
                .entry((spec.parent, section.array))
                .or_default()
                .push(NaiveRecord {
                    task: id,
                    section,
                    write,
                });
        }

        if let Some(g) = spec.group {
            self.groups[g.0 as usize].unfinished += 1;
        }
        *self.children.entry(spec.parent).or_insert(0) += 1;
        self.unfinished += 1;

        let n_preds = preds.len();
        for p in preds {
            self.tasks.get_mut(&p.0).unwrap().succs.push(id);
        }

        let gate_open = spec
            .gate_group
            .map(|g| self.group_is_empty(g))
            .unwrap_or(true);
        let ready = n_preds == 0 && gate_open;

        let mut task = NaiveTask {
            label: spec.label.to_string(),
            state: if ready {
                TaskState::Ready
            } else {
                TaskState::Waiting
            },
            unfinished_preds: n_preds,
            succs: Vec::new(),
            group: spec.group,
            gate_group: spec.gate_group,
            parent: spec.parent,
            fp_reads: spec.fp_reads,
            fp_writes: spec.fp_writes,
        };
        if ready {
            task.gate_group = None;
        } else if let Some(g) = spec.gate_group {
            if n_preds == 0 {
                self.groups[g.0 as usize].gated.push(id);
            }
        }
        self.tasks.insert(id.0, task);
        (id, ready)
    }

    fn start(&mut self, id: TaskId) {
        let me = &self.tasks[&id.0];
        assert_eq!(me.state, TaskState::Ready);
        let mut found: Vec<RaceReport> = Vec::new();
        for &other_id in &self.running {
            let other = &self.tasks[&other_id.0];
            let conflict = naive_conflict(
                (&me.fp_reads, &me.fp_writes),
                (&other.fp_reads, &other.fp_writes),
            );
            if let Some(section) = conflict {
                found.push(RaceReport {
                    first: other_id,
                    first_label: other.label.clone(),
                    second: id,
                    second_label: me.label.clone(),
                    section,
                });
            }
        }
        self.races.extend(found);
        self.tasks.get_mut(&id.0).unwrap().state = TaskState::Running;
        self.running.push(id);
    }

    fn finish(&mut self, id: TaskId) -> Vec<TaskId> {
        let (succs, group, parent) = {
            let t = self.tasks.get_mut(&id.0).unwrap();
            assert_eq!(t.state, TaskState::Running);
            t.state = TaskState::Finished;
            (std::mem::take(&mut t.succs), t.group, t.parent)
        };
        self.running.retain(|&r| r != id);
        self.unfinished -= 1;
        *self.children.get_mut(&parent).unwrap() -= 1;

        let mut ready = Vec::new();
        for s in succs {
            let t = self.tasks.get_mut(&s.0).unwrap();
            t.unfinished_preds -= 1;
            if t.unfinished_preds == 0 {
                match t.gate_group {
                    Some(g) => {
                        if self.groups[g.0 as usize].unfinished == 0 {
                            self.mark_ready(s, &mut ready);
                        } else {
                            self.groups[g.0 as usize].gated.push(s);
                        }
                    }
                    None => self.mark_ready(s, &mut ready),
                }
            }
        }
        if let Some(g) = group {
            let gs = &mut self.groups[g.0 as usize];
            gs.unfinished -= 1;
            if gs.unfinished == 0 {
                for gated in std::mem::take(&mut gs.gated) {
                    let t = &self.tasks[&gated.0];
                    if t.state == TaskState::Waiting && t.unfinished_preds == 0 {
                        self.mark_ready(gated, &mut ready);
                    }
                }
            }
        }
        ready
    }

    fn mark_ready(&mut self, id: TaskId, out: &mut Vec<TaskId>) {
        let t = self.tasks.get_mut(&id.0).unwrap();
        if t.state == TaskState::Waiting {
            t.state = TaskState::Ready;
            t.gate_group = None;
            out.push(id);
        }
    }

    fn clear_footprints(&mut self, id: TaskId) {
        let t = self.tasks.get_mut(&id.0).unwrap();
        t.fp_reads.clear();
        t.fp_writes.clear();
    }
}

fn naive_conflict(a: (&[FpAccess], &[FpAccess]), b: (&[FpAccess], &[FpAccess])) -> Option<Section> {
    let (a_reads, a_writes) = a;
    let (b_reads, b_writes) = b;
    for aw in a_writes {
        for bs in b_writes.iter().chain(b_reads.iter()) {
            if let Some(ov) = aw.conflict(bs) {
                return Some(ov);
            }
        }
    }
    for ar in a_reads {
        for bw in b_writes {
            if let Some(ov) = ar.conflict(bw) {
                return Some(ov);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// The generator and the lockstep driver.
// ---------------------------------------------------------------------

const ARRAY_LEN: usize = 256;
const CHUNK: usize = 16;

/// Empty, one chunk, a chunk widened by a halo, the whole array, or
/// anything at all — the mix a chunked construct beside a whole-array
/// update produces, which is what the length classes of the index are
/// for.
fn section(rng: &mut Prng, arrays: u32) -> Section {
    let array = ArrayId(rng.below(u64::from(arrays)) as u32);
    let chunk = rng.range(0, ARRAY_LEN / CHUNK) * CHUNK;
    match rng.below(10) {
        0 => Section::new(array, rng.range(0, ARRAY_LEN), 0),
        1..=4 => Section::new(array, chunk, CHUNK),
        5 | 6 => {
            let halo = rng.range(1, 4);
            let start = chunk.saturating_sub(halo);
            let end = (chunk + CHUNK + halo).min(ARRAY_LEN);
            Section::new(array, start, end - start)
        }
        7 => Section::new(array, 0, ARRAY_LEN),
        _ => {
            let start = rng.range(0, ARRAY_LEN);
            Section::new(array, start, rng.range(1, ARRAY_LEN - start + 1))
        }
    }
}

fn sections(rng: &mut Prng, arrays: u32, max: usize) -> Vec<(Section, bool)> {
    (0..rng.range(0, max + 1))
        .map(|_| (section(rng, arrays), rng.chance(0.5)))
        .collect()
}

fn accesses(rng: &mut Prng, arrays: u32, max: usize) -> Vec<FpAccess> {
    (0..rng.range(0, max + 1))
        .map(|_| {
            let s = section(rng, arrays);
            match rng.below(3) {
                0 => FpAccess::host(s),
                d => FpAccess::device(d as u32 - 1, s),
            }
        })
        .collect()
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Waiting,
    Ready,
    Running,
    Finished,
}

struct Driver {
    rng: Prng,
    new: TaskGraph,
    old: NaiveGraph,
    /// The driver's own view of every task created, by id.
    phase: Vec<Phase>,
    groups: Vec<GroupId>,
    /// Groups something is gated on: they take no new members, so every
    /// dependence points at an earlier task and the program can drain.
    sealed: Vec<bool>,
    parents: Vec<Option<TaskId>>,
    races_checked: usize,
    arrays: u32,
    step: usize,
}

impl Driver {
    fn new(seed: u64) -> Self {
        let mut rng = Prng::new(seed);
        let arrays = rng.range(1, 4) as u32;
        Driver {
            rng,
            new: TaskGraph::new(),
            old: NaiveGraph::default(),
            phase: Vec::new(),
            groups: Vec::new(),
            sealed: Vec::new(),
            parents: vec![None],
            races_checked: 0,
            arrays,
            step: 0,
        }
    }

    fn in_phase(&self, p: Phase) -> Vec<TaskId> {
        (0..self.phase.len())
            .filter(|&i| self.phase[i] == p)
            .map(|i| TaskId(i as u64))
            .collect()
    }

    fn pick(&mut self, p: Phase) -> Option<TaskId> {
        let ids = self.in_phase(p);
        (!ids.is_empty()).then(|| *self.rng.pick(&ids))
    }

    fn group_create(&mut self) {
        let g = self.new.group_create();
        assert_eq!(g, self.old.group_create());
        self.groups.push(g);
        self.sealed.push(false);
    }

    fn create(&mut self) {
        let rng = &mut self.rng;
        let n = self.phase.len();
        // Several parent contexts: the main program, and now and then a
        // task already created (running, waiting or long finished).
        let parent = if n > 0 && rng.chance(0.15) {
            let p = Some(TaskId(rng.below(n as u64)));
            if !self.parents.contains(&p) {
                self.parents.push(p);
            }
            p
        } else {
            *rng.pick(&self.parents)
        };
        let open: Vec<GroupId> = (self.groups.iter().copied())
            .filter(|g| !self.sealed[g.0 as usize])
            .collect();
        let group = (!open.is_empty() && rng.chance(0.4)).then(|| *rng.pick(&open));
        let gates: Vec<GroupId> = (self.groups.iter().copied())
            .filter(|g| Some(*g) != group)
            .collect();
        let gate_group = (!gates.is_empty() && rng.chance(0.15)).then(|| *rng.pick(&gates));
        if let Some(g) = gate_group {
            self.sealed[g.0 as usize] = true;
        }
        // Explicit predecessors in any state, finished ones included.
        let extra_preds = if n > 0 && rng.chance(0.3) {
            (0..rng.range(1, 4))
                .map(|_| TaskId(rng.below(n as u64)))
                .collect()
        } else {
            Vec::new()
        };
        let wait_on = sections(rng, self.arrays, 3);
        // Usually publish what was waited on, as a plain construct does.
        let publish = if rng.chance(0.7) {
            wait_on.clone()
        } else {
            sections(rng, self.arrays, 3)
        };
        let spec = TaskSpec {
            wait_on,
            publish,
            fp_reads: accesses(rng, self.arrays, 2),
            fp_writes: accesses(rng, self.arrays, 2),
            parent,
            group,
            gate_group,
            extra_preds,
            ..TaskSpec::new(format!("t{n}"))
        };
        let (id, ready) = self.new.create(spec.clone());
        let (old_id, old_ready) = self.old.create(spec);
        assert_eq!(id, TaskId(n as u64));
        assert_eq!(id, old_id);
        assert_eq!(ready, old_ready, "step {}: ready flag of {id:?}", self.step);
        self.phase
            .push(if ready { Phase::Ready } else { Phase::Waiting });
    }

    fn start(&mut self) {
        if let Some(id) = self.pick(Phase::Ready) {
            self.new.start(id);
            self.old.start(id);
            self.phase[id.0 as usize] = Phase::Running;
        }
    }

    fn finish(&mut self) {
        if let Some(id) = self.pick(Phase::Running) {
            let released = self.new.finish(id);
            assert_eq!(
                released,
                self.old.finish(id),
                "step {}: finish({id:?})",
                self.step
            );
            self.phase[id.0 as usize] = Phase::Finished;
            for r in released {
                assert!(self.phase[r.0 as usize] == Phase::Waiting);
                self.phase[r.0 as usize] = Phase::Ready;
            }
        }
    }

    /// On a task in any state — waiting, running, or long retired.
    fn clear_footprints(&mut self) {
        if !self.phase.is_empty() {
            let id = TaskId(self.rng.below(self.phase.len() as u64));
            self.new.clear_footprints(id);
            self.old.clear_footprints(id);
        }
    }

    fn compare(&mut self) {
        let step = self.step;
        assert_eq!(self.new.unfinished(), self.old.unfinished, "step {step}");
        for &p in &self.parents {
            assert_eq!(
                self.new.unfinished_children(p),
                self.old.unfinished_children(p),
                "step {step}: children of {p:?}"
            );
        }
        for &g in &self.groups {
            assert_eq!(
                self.new.group_is_empty(g),
                self.old.group_is_empty(g),
                "step {step}: {g:?}"
            );
        }
        let (new, old) = (self.new.races(), &self.old.races);
        assert_eq!(new.len(), old.len(), "step {step}: race count");
        for (a, b) in new.iter().zip(old).skip(self.races_checked) {
            assert_eq!(
                (
                    a.first,
                    &a.first_label,
                    a.second,
                    &a.second_label,
                    a.section
                ),
                (
                    b.first,
                    &b.first_label,
                    b.second,
                    &b.second_label,
                    b.section
                ),
                "step {step}"
            );
        }
        self.races_checked = new.len();
    }

    fn compare_states(&self) {
        for i in 0..self.phase.len() {
            let id = TaskId(i as u64);
            let state = self.new.state(id);
            assert_eq!(state, self.old.state(id), "state of {id:?}");
            let expected = match self.phase[i] {
                Phase::Waiting => TaskState::Waiting,
                Phase::Ready => TaskState::Ready,
                Phase::Running => TaskState::Running,
                Phase::Finished => TaskState::Finished,
            };
            assert_eq!(state, expected);
            assert_eq!(self.new.is_finished(id), state == TaskState::Finished);
        }
    }

    /// `steps` random operations — creation favoured at first, so the
    /// graph gets wide before it drains — then run everything left.
    fn run(&mut self, steps: usize) {
        for step in 0..steps {
            self.step = step;
            let create_weight = if step < steps / 2 { 6 } else { 2 };
            match self.rng.below(create_weight + 7) {
                0 => self.group_create(),
                1 => self.clear_footprints(),
                2..=4 => self.start(),
                5 | 6 => self.finish(),
                _ => self.create(),
            }
            self.compare();
            if step % 32 == 0 {
                self.compare_states();
            }
        }
        loop {
            self.step += 1;
            if self.rng.chance(0.6) && self.pick(Phase::Ready).is_some() {
                self.start();
            } else if self.pick(Phase::Running).is_some() {
                self.finish();
            } else if self.pick(Phase::Ready).is_some() {
                self.start();
            } else {
                break;
            }
            self.compare();
        }
        self.compare_states();
        // Every dependence points backwards, so the program drained —
        // and a drained graph holds nothing.
        assert_eq!(self.new.unfinished(), 0);
        assert!(self.phase.iter().all(|&p| p == Phase::Finished));
        assert_eq!(self.new.live_counts(), LiveCounts::default());
    }
}

#[test]
fn random_programs_match_the_naive_model() {
    let mut races = 0;
    let mut tasks = 0;
    for seed in 0..300 {
        let mut d = Driver::new(seed);
        d.run(400);
        races += d.new.races().len();
        tasks += d.phase.len();
    }
    // The programs must actually reach the code under test.
    assert!(tasks > 30_000, "only {tasks} tasks");
    assert!(races > 10_000, "only {races} races");
}

/// A wide, long program: hundreds of tasks live at once.
#[test]
fn wide_programs_match_the_naive_model() {
    for seed in 1000..1010 {
        Driver::new(seed).run(4_000);
    }
}

/// The shape the length classes exist for: a whole-array record among
/// many chunk records must be found from any chunk, and must not hide
/// the chunk records from each other.
#[test]
fn whole_array_section_among_chunks() {
    const A: ArrayId = ArrayId(0);
    let mut new = TaskGraph::new();
    let mut old = NaiveGraph::default();
    let both = |new: &mut TaskGraph, old: &mut NaiveGraph, sec: Section, write: bool| {
        let mut spec = TaskSpec::new("t");
        spec.wait_on = vec![(sec, write)];
        spec.publish = vec![(sec, write)];
        let (id, ready) = new.create(spec.clone());
        assert_eq!((id, ready), old.create(spec));
        (id, ready)
    };
    let (whole, _) = both(&mut new, &mut old, Section::new(A, 0, 4096), true);
    let chunks: Vec<TaskId> = (0..64)
        .map(|i| {
            let (id, ready) = both(&mut new, &mut old, Section::new(A, i * 64, 64), true);
            assert!(!ready, "chunk {i} waits for the whole-array writer");
            id
        })
        .collect();
    // A reader of the far end sees the last chunk's writer (and not the
    // whole-array writer twice).
    let (tail, ready) = both(&mut new, &mut old, Section::new(A, 4095, 1), false);
    assert!(!ready);
    new.start(whole);
    old.start(whole);
    let released = new.finish(whole);
    assert_eq!(released, old.finish(whole));
    assert_eq!(released, chunks, "every chunk waited on exactly the whole");
    assert_eq!(new.state(tail), TaskState::Waiting);
    for &c in &chunks {
        new.start(c);
        old.start(c);
        assert_eq!(new.finish(c), old.finish(c));
    }
    assert_eq!(new.state(tail), TaskState::Ready);
    assert_eq!(old.state(tail), TaskState::Ready);
}

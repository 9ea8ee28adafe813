//! The task graph: OpenMP-style deferred tasks with `depend` matching on
//! array sections, taskgroups, and a concurrency race detector.
//!
//! Dependence semantics follow OpenMP: a task's `depend(in: s)` orders it
//! after previously created **sibling** tasks (same parent task context)
//! with an overlapping `out` section; `depend(out: s)` orders after
//! overlapping `in` *and* `out` records. Tasks created in different
//! parent contexts (e.g. two `taskloop` bodies) do *not* synchronize via
//! `depend` — exactly the OpenMP rule that makes the paper's Two Buffers
//! version rely on `taskgroup` barriers instead.
//!
//! The graph also keeps per-task *footprints* (everything the task reads
//! and writes: declared depends plus map sections). Footprints never
//! create edges; they feed the race detector, which flags any two tasks
//! that run concurrently in virtual time with conflicting footprints —
//! the honest version of "the coherence between the mappings of the
//! different directives is the programmer's responsibility" (§V-A.2).
//!
//! The graph forgets what it finished: `finish` drops the task's slot
//! (label, footprints, successors, action), its dependence records and
//! its entries in the race detector's running set, so cost and memory
//! follow the *live* width of the graph, not its history. Ids are
//! monotone and never recycled — an id below the next one that is no
//! longer stored *is* a finished task. The dependence records and the
//! running set are each one `SectionGrid`, so `create` and `start` visit
//! only the live sections near their own, and allocate nothing once the
//! grids have grown (DESIGN.md §16).

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::rc::Rc;

use spread_prng::FnvBuild;

use crate::kernel::KernelSpec;
use crate::runtime::Action;
use crate::section::{ArrayId, Section};

/// Identifier of a task.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(pub u64);

/// Identifier of a taskgroup.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GroupId(pub u32);

/// One footprint item: an access to `section`, either on the host
/// (`device == None`) or to its device image (`device == Some(d)`).
/// Accesses in different spaces never conflict (two devices may hold
/// copies of the same section; only same-space overlap is a race).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FpAccess {
    /// None = host memory; Some(d) = device d's image.
    pub device: Option<u32>,
    /// The section touched.
    pub section: Section,
}

impl FpAccess {
    /// A host-space access.
    pub fn host(section: Section) -> Self {
        FpAccess {
            device: None,
            section,
        }
    }

    /// A device-space access.
    pub fn device(device: u32, section: Section) -> Self {
        FpAccess {
            device: Some(device),
            section,
        }
    }

    /// Conflicting overlap with another access, if in the same space.
    pub fn conflict(&self, other: &FpAccess) -> Option<Section> {
        if self.device != other.device {
            return None;
        }
        self.section.intersection(&other.section)
    }
}

/// Task lifecycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskState {
    /// Created; waiting on predecessors or a group gate.
    Waiting,
    /// Eligible to start (start event scheduled).
    Ready,
    /// Action running (virtual time advancing).
    Running,
    /// Done.
    Finished,
}

/// A task's label: what race reports and diagnostics call the task.
///
/// Kept as its parts — a name, a phase, a device, a chunk index — and
/// rendered by `Display` only when something reads it, so issuing a task
/// formats nothing. It renders as `{name}{phase}(dev{device})[{index}]`,
/// each part only when set: `bump-exit(dev1)`, `update(dev0)`,
/// `enter-spread(dev2)[5]`, or free text as given.
#[derive(Clone)]
pub struct TaskLabel {
    name: LabelName,
    phase: &'static str,
    device: Option<u32>,
    index: Option<usize>,
}

#[derive(Clone)]
enum LabelName {
    Text(Cow<'static, str>),
    /// The kernel of a `target` construct, shared with its actions.
    Kernel(Rc<KernelSpec>),
}

impl TaskLabel {
    fn new(name: LabelName, phase: &'static str, device: Option<u32>) -> Self {
        TaskLabel {
            name,
            phase,
            device,
            index: None,
        }
    }

    /// `{name}(dev{device})`, e.g. `update(dev0)`.
    pub fn on_device(name: &'static str, device: u32) -> Self {
        Self::new(LabelName::Text(Cow::Borrowed(name)), "", Some(device))
    }

    /// `{name}(dev{device})[{index}]`, e.g. `enter-spread(dev2)[5]`.
    pub fn chunk(name: &'static str, device: u32, index: usize) -> Self {
        TaskLabel {
            index: Some(index),
            ..Self::on_device(name, device)
        }
    }

    /// A phase of a `target` construct running `kernel` on `device`:
    /// `{kernel}{phase}(dev{device})`, e.g. `bump-enter(dev1)`.
    pub(crate) fn kernel_phase(kernel: &Rc<KernelSpec>, phase: &'static str, device: u32) -> Self {
        Self::new(LabelName::Kernel(Rc::clone(kernel)), phase, Some(device))
    }
}

impl From<&str> for TaskLabel {
    fn from(text: &str) -> Self {
        text.to_owned().into()
    }
}

impl From<String> for TaskLabel {
    fn from(text: String) -> Self {
        Self::new(LabelName::Text(Cow::Owned(text)), "", None)
    }
}

impl fmt::Display for TaskLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.name {
            LabelName::Text(text) => f.write_str(text)?,
            LabelName::Kernel(kernel) => f.write_str(&kernel.name)?,
        }
        f.write_str(self.phase)?;
        if let Some(d) = self.device {
            write!(f, "(dev{d})")?;
        }
        if let Some(i) = self.index {
            write!(f, "[{i}]")?;
        }
        Ok(())
    }
}

/// Everything needed to create a task.
#[derive(Clone)]
pub struct TaskSpec {
    /// Human-readable label (race reports, diagnostics).
    pub label: TaskLabel,
    /// Sections whose previous writers/readers this task must wait for:
    /// `(section, is_write)`.
    pub wait_on: Vec<(Section, bool)>,
    /// Sections this task publishes for *future* siblings to match
    /// against: `(section, is_write)`. Usually identical to `wait_on`;
    /// split so composite constructs can wait at their first internal
    /// task and publish at their last.
    pub publish: Vec<(Section, bool)>,
    /// Read footprint for race detection.
    pub fp_reads: Vec<FpAccess>,
    /// Write footprint for race detection.
    pub fp_writes: Vec<FpAccess>,
    /// Parent task context (None = the main program).
    pub parent: Option<TaskId>,
    /// Taskgroup this task belongs to.
    pub group: Option<GroupId>,
    /// Additional readiness gate: do not start until this group is empty.
    pub gate_group: Option<GroupId>,
    /// Explicit predecessor tasks (internal chaining of composite
    /// constructs).
    pub extra_preds: Vec<TaskId>,
}

impl TaskSpec {
    /// A minimal spec with just a label.
    pub fn new(label: impl Into<TaskLabel>) -> Self {
        TaskSpec {
            label: label.into(),
            wait_on: Vec::new(),
            publish: Vec::new(),
            fp_reads: Vec::new(),
            fp_writes: Vec::new(),
            parent: None,
            group: None,
            gate_group: None,
            extra_preds: Vec::new(),
        }
    }
}

/// A live (unfinished) task. Dropped whole by [`TaskGraph::finish`].
struct Task {
    label: TaskLabel,
    state: TaskState,
    unfinished_preds: usize,
    succs: Vec<TaskId>,
    group: Option<GroupId>,
    gate_group: Option<GroupId>,
    parent: Option<TaskId>,
    /// The records this task published; `finish` removes exactly these.
    publish: Vec<(Section, bool)>,
    fp_reads: Vec<FpAccess>,
    fp_writes: Vec<FpAccess>,
    /// Position in start order (meaningful once `Running`): race
    /// reports list the earlier-started task first, earliest first.
    started: u64,
    /// What the runtime runs when the task starts.
    action: Option<Action>,
}

impl Task {
    /// Footprint accesses in their running-index slot order.
    fn accesses(&self) -> impl Iterator<Item = (u32, &FpAccess, bool)> {
        let writes = self.fp_writes.iter().map(|a| (a, true));
        let reads = self.fp_reads.iter().map(|a| (a, false));
        writes
            .chain(reads)
            .enumerate()
            .map(|(slot, (a, write))| (slot as u32, a, write))
    }
}

struct GroupState {
    unfinished: usize,
    gated: Vec<TaskId>,
}

/// No entry: the end of a chain, an empty list, an empty free list.
const NIL: u32 = u32::MAX;

/// One stored section of a [`SectionGrid`].
struct GridEntry {
    start: usize,
    len: usize,
    owner: TaskId,
    /// The item's position in its owner's list: with `owner` it names the
    /// one entry a `remove` undoes when a task stores several.
    slot: u32,
    write: bool,
    /// Next entry of the same cell; on the free list, the next free slot.
    next_in_cell: u32,
    /// Neighbours in the context's list.
    prev_in_context: u32,
    next_in_context: u32,
}

/// The live entries of one context: one `(parent, array)` or one
/// `(space, array)`.
struct Context {
    /// First entry of the context's list; on the free list, the next
    /// free context.
    head: u32,
    live: usize,
    /// Bit `c` is set if a class-`c` section was inserted since the
    /// context opened. Cleared only when it closes; a stale bit widens a
    /// query by a few empty cells, never past the context's live entries.
    classes: u64,
}

impl Context {
    const EMPTY: Context = Context {
        head: NIL,
        live: 0,
        classes: 0,
    };
}

/// The live sections of one relation — dependence records by
/// `(parent, array)`, the running set by `(space, array)` — findable by
/// overlap.
///
/// A section of length `len` has class `c = ⌊log2 len⌋` and lives in cell
/// `(context, c, start >> c)`. Every length in class `c` is below
/// `2^(c+1)`, so a section overlapping `[s, e)` starts in
/// `[s − 2^(c+1) + 2, e − 1]`: a query probes those cells of each class in
/// use, or — when they outnumber the context's live entries — walks the
/// context's list instead, so a query costs O(min(cells, live) + hits).
/// Chunked constructs put near-uniform sections in one or two classes; a
/// whole-array section lands in a class of its own. Entries sit in one
/// slab with a free list, chained into their cell and into their context,
/// so insert and remove are O(cell) and, once the slab and the maps have
/// grown to a workload, allocate nothing. Empty sections overlap nothing
/// and are never stored. Queries yield entries in no particular order.
struct SectionGrid<K> {
    entries: Vec<GridEntry>,
    free_entry: u32,
    contexts: Vec<Context>,
    free_context: u32,
    /// Open (non-empty) contexts by key → index in `contexts`.
    open: HashMap<K, u32, FnvBuild>,
    /// `(context, class, start >> class)` → first entry of the cell, `NIL`
    /// once it empties. Keys stay until the whole grid empties and the
    /// map is cleared in one pass: a removed key would leave a tombstone,
    /// and tombstones can make a table grow while it holds no more keys
    /// than before.
    cells: HashMap<(u32, u32, usize), u32, FnvBuild>,
    live: usize,
    /// Cells probed plus list entries walked by queries.
    #[cfg(test)]
    visits: std::cell::Cell<usize>,
}

impl<K> Default for SectionGrid<K> {
    fn default() -> Self {
        SectionGrid {
            entries: Vec::new(),
            free_entry: NIL,
            contexts: Vec::new(),
            free_context: NIL,
            open: HashMap::default(),
            cells: HashMap::default(),
            live: 0,
            #[cfg(test)]
            visits: std::cell::Cell::new(0),
        }
    }
}

/// The cell `(context, class, start >> class)` a non-empty section lives in.
fn cell_of(ctx: u32, section: &Section) -> (u32, u32, usize) {
    let class = section.len.ilog2();
    (ctx, class, section.start >> class)
}

impl<K: Hash + Eq> SectionGrid<K> {
    /// Live entries over all contexts.
    fn len(&self) -> usize {
        self.live
    }

    /// Open contexts: those holding at least one entry.
    fn open_contexts(&self) -> usize {
        self.open.len()
    }

    fn insert(&mut self, key: K, owner: TaskId, slot: u32, section: &Section, write: bool) {
        if section.is_empty() {
            return;
        }
        let ctx = match self.open.entry(key) {
            Entry::Occupied(o) => *o.get(),
            Entry::Vacant(v) => {
                let ctx = if self.free_context == NIL {
                    self.contexts.push(Context::EMPTY);
                    (self.contexts.len() - 1) as u32
                } else {
                    let ctx = self.free_context;
                    self.free_context = self.contexts[ctx as usize].head;
                    self.contexts[ctx as usize] = Context::EMPTY;
                    ctx
                };
                *v.insert(ctx)
            }
        };
        let cell = cell_of(ctx, section);
        let context = &mut self.contexts[ctx as usize];
        context.classes |= 1 << cell.1;
        context.live += 1;
        let entry = GridEntry {
            start: section.start,
            len: section.len,
            owner,
            slot,
            write,
            next_in_cell: NIL,
            prev_in_context: NIL,
            next_in_context: context.head,
        };
        let at = if self.free_entry == NIL {
            self.entries.push(entry);
            (self.entries.len() - 1) as u32
        } else {
            let at = self.free_entry;
            self.free_entry = self.entries[at as usize].next_in_cell;
            self.entries[at as usize] = entry;
            at
        };
        if context.head != NIL {
            self.entries[context.head as usize].prev_in_context = at;
        }
        context.head = at;
        let head = self.cells.entry(cell).or_insert(NIL);
        self.entries[at as usize].next_in_cell = std::mem::replace(head, at);
        self.live += 1;
    }

    /// Remove the entry `insert(key, owner, slot, section, _)` stored.
    fn remove(&mut self, key: K, owner: TaskId, slot: u32, section: &Section) {
        if section.is_empty() {
            return;
        }
        let ctx = *self
            .open
            .get(&key)
            .expect("a stored section's context is open");
        let cell = cell_of(ctx, section);
        let head = self.cells.get_mut(&cell).expect("a stored section's cell");
        let (mut prev, mut at) = (NIL, *head);
        loop {
            assert!(at != NIL, "remove of a section that was never stored");
            let e = &self.entries[at as usize];
            if e.owner == owner && e.slot == slot {
                break;
            }
            (prev, at) = (at, e.next_in_cell);
        }
        let e = &self.entries[at as usize];
        debug_assert_eq!((e.start, e.len), (section.start, section.len));
        let (next, before, after) = (e.next_in_cell, e.prev_in_context, e.next_in_context);
        if prev != NIL {
            self.entries[prev as usize].next_in_cell = next;
        } else {
            *head = next;
        }
        if before != NIL {
            self.entries[before as usize].next_in_context = after;
        } else {
            self.contexts[ctx as usize].head = after;
        }
        if after != NIL {
            self.entries[after as usize].prev_in_context = before;
        }
        self.entries[at as usize].next_in_cell = self.free_entry;
        self.free_entry = at;
        self.live -= 1;
        let context = &mut self.contexts[ctx as usize];
        context.live -= 1;
        if context.live == 0 {
            context.head = self.free_context;
            self.free_context = ctx;
            self.open.remove(&key);
        }
        if self.live == 0 {
            self.cells.clear();
        }
    }

    /// Call `f(owner, is_write)` for every stored section of context
    /// `key` overlapping `q` (once per stored section, so an owner may
    /// repeat), in no particular order.
    fn for_each_overlap(&self, key: &K, q: &Section, mut f: impl FnMut(TaskId, bool)) {
        if q.is_empty() {
            return;
        }
        let Some(&ctx) = self.open.get(key) else {
            return;
        };
        let context = &self.contexts[ctx as usize];
        let mut overlap = |e: &GridEntry| {
            if e.start < q.end() && e.start + e.len > q.start {
                f(e.owner, e.write);
            }
        };
        // Per class: the first and last cell an overlapping section can
        // start in. Longest section of class c: 2^(c+1) - 1.
        let bounds = |class: u32| {
            let longest = usize::MAX >> (usize::BITS - 1 - class);
            let lo = q.start.saturating_sub(longest - 1) >> class;
            (lo, (q.end() - 1) >> class)
        };
        let classes = || {
            let mut bits = context.classes;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let class = bits.trailing_zeros();
                    bits &= bits - 1;
                    class
                })
            })
        };
        let span = classes()
            .map(bounds)
            .fold(0usize, |n, (lo, hi)| n.saturating_add(hi - lo + 1));
        if span > context.live {
            let mut at = context.head;
            while at != NIL {
                #[cfg(test)]
                self.visits.set(self.visits.get() + 1);
                let e = &self.entries[at as usize];
                overlap(e);
                at = e.next_in_context;
            }
            return;
        }
        for class in classes() {
            let (lo, hi) = bounds(class);
            for cell in lo..=hi {
                #[cfg(test)]
                self.visits.set(self.visits.get() + 1);
                let mut at = self.cells.get(&(ctx, class, cell)).copied().unwrap_or(NIL);
                while at != NIL {
                    let e = &self.entries[at as usize];
                    overlap(e);
                    at = e.next_in_cell;
                }
            }
        }
    }
}

/// A detected footprint race between two concurrently running tasks.
#[derive(Clone, Debug)]
pub struct RaceReport {
    /// First task (started earlier).
    pub first: TaskId,
    /// Label of the first task.
    pub first_label: String,
    /// Second task (whose start detected the race).
    pub second: TaskId,
    /// Label of the second task.
    pub second_label: String,
    /// The conflicting overlap.
    pub section: Section,
}

/// What the runtime still holds on to — every field is zero when
/// nothing is in flight. For leak tests, not for programs.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LiveCounts {
    /// Tasks stored in the graph (created, not yet finished).
    pub tasks: usize,
    /// Dependence records published by live tasks.
    pub dep_records: usize,
    /// Footprint accesses of running tasks in the race detector's index.
    pub running_entries: usize,
    /// Stored tasks that still own their action.
    pub pending_actions: usize,
    /// Per-context map entries: children counters, `(parent, array)`
    /// record indexes and `(space, array)` running indexes.
    pub contexts: usize,
    /// Registered recovery handlers (filled in by the runtime).
    pub recoverers: usize,
    /// Enter tasks parked for device memory (filled in by the runtime).
    pub mem_waiters: usize,
}

/// The task graph.
#[derive(Default)]
pub struct TaskGraph {
    /// Live tasks by id. A missing id below `next_task` has finished.
    tasks: HashMap<u64, Task, FnvBuild>,
    next_task: u64,
    groups: Vec<GroupState>,
    /// Dependence records of live tasks, by (parent context, array).
    records: SectionGrid<(Option<TaskId>, ArrayId)>,
    /// Footprints of running tasks, by (memory space, array).
    running: SectionGrid<(Option<u32>, ArrayId)>,
    /// `create`'s predecessor set and `start`'s race hits, kept between
    /// calls so neither allocates once grown.
    preds: Vec<TaskId>,
    hits: Vec<(u64, TaskId)>,
    next_start: u64,
    races: Vec<RaceReport>,
    unfinished: usize,
    /// Unfinished children per parent context (None = main program);
    /// an entry is dropped when it reaches zero.
    children: HashMap<Option<TaskId>, usize, FnvBuild>,
    /// Monotone count of tasks ever finished — the progress signal the
    /// blocking-drain watchdog watches (a drain that keeps completing
    /// tasks is slow, not wedged).
    finished_total: u64,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total unfinished tasks.
    pub fn unfinished(&self) -> usize {
        self.unfinished
    }

    /// Monotone count of tasks finished since construction.
    pub fn finished_total(&self) -> u64 {
        self.finished_total
    }

    /// Unfinished children of a parent context.
    pub fn unfinished_children(&self, parent: Option<TaskId>) -> usize {
        self.children.get(&parent).copied().unwrap_or(0)
    }

    /// Create a taskgroup.
    pub fn group_create(&mut self) -> GroupId {
        self.groups.push(GroupState {
            unfinished: 0,
            gated: Vec::new(),
        });
        GroupId((self.groups.len() - 1) as u32)
    }

    /// True if all the group's tasks have finished.
    pub fn group_is_empty(&self, g: GroupId) -> bool {
        self.groups[g.0 as usize].unfinished == 0
    }

    /// Task state. A finished task is no longer stored; any id this
    /// graph has handed out and does not hold is `Finished`.
    pub fn state(&self, id: TaskId) -> TaskState {
        match self.tasks.get(&id.0) {
            Some(t) => t.state,
            None => {
                assert!(id.0 < self.next_task, "state of unknown task {id:?}");
                TaskState::Finished
            }
        }
    }

    /// True once the task has finished.
    pub fn is_finished(&self, id: TaskId) -> bool {
        self.state(id) == TaskState::Finished
    }

    /// Group a live task belongs to (`None` once it has finished).
    pub fn group_of(&self, id: TaskId) -> Option<GroupId> {
        self.tasks.get(&id.0).and_then(|t| t.group)
    }

    /// Recorded races.
    pub fn races(&self) -> &[RaceReport] {
        &self.races
    }

    /// The graph's share of [`LiveCounts`].
    #[doc(hidden)]
    pub fn live_counts(&self) -> LiveCounts {
        LiveCounts {
            tasks: self.tasks.len(),
            dep_records: self.records.len(),
            running_entries: self.running.len(),
            pending_actions: self.tasks.values().filter(|t| t.action.is_some()).count(),
            contexts: self.children.len()
                + self.records.open_contexts()
                + self.running.open_contexts(),
            ..LiveCounts::default()
        }
    }

    /// Create a task. Returns its id and whether it is immediately ready
    /// (the caller schedules the start event; the graph marks it Ready).
    pub fn create(&mut self, spec: TaskSpec) -> (TaskId, bool) {
        self.create_with(spec, None)
    }

    /// [`TaskGraph::create`], storing `action` in the task's slot until
    /// [`TaskGraph::take_action`] claims it or the task finishes.
    pub(crate) fn create_with(&mut self, spec: TaskSpec, action: Option<Action>) -> (TaskId, bool) {
        let id = TaskId(self.next_task);
        self.next_task += 1;

        // Dependence matching against the live records of siblings: an
        // `out` waits on overlapping `in` and `out`, an `in` on `out`
        // only. Only the *set* of predecessors matters (each gets `id`
        // appended to its successors once), so collect, then dedup.
        let mut preds = std::mem::take(&mut self.preds);
        preds.clear();
        for (sec, is_write) in &spec.wait_on {
            let key = (spec.parent, sec.array);
            self.records.for_each_overlap(&key, sec, |task, write| {
                if *is_write || write {
                    preds.push(task);
                }
            });
        }
        for &p in &spec.extra_preds {
            if !self.is_finished(p) {
                preds.push(p);
            }
        }
        preds.sort_unstable();
        preds.dedup();

        // Publish this task's records for future siblings.
        for (slot, (section, write)) in spec.publish.iter().enumerate() {
            let key = (spec.parent, section.array);
            self.records.insert(key, id, slot as u32, section, *write);
        }

        if let Some(g) = spec.group {
            self.groups[g.0 as usize].unfinished += 1;
        }
        *self.children.entry(spec.parent).or_insert(0) += 1;
        self.unfinished += 1;

        let n_preds = preds.len();
        for p in &preds {
            self.tasks
                .get_mut(&p.0)
                .expect("predecessor is live")
                .succs
                .push(id);
        }
        self.preds = preds;

        let gate_open = spec
            .gate_group
            .map(|g| self.group_is_empty(g))
            .unwrap_or(true);
        let ready = n_preds == 0 && gate_open;

        let mut task = Task {
            label: spec.label,
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
            publish: spec.publish,
            fp_reads: spec.fp_reads,
            fp_writes: spec.fp_writes,
            started: 0,
            action,
        };
        if ready {
            task.gate_group = None; // consumed
        } else if let Some(g) = spec.gate_group {
            if n_preds == 0 {
                self.groups[g.0 as usize].gated.push(id);
            }
            // If it has preds too, the gate is re-checked when the last
            // pred finishes.
        }
        self.tasks.insert(id.0, task);
        (id, ready)
    }

    /// Take a live task's action out of its slot (`None` if it has none,
    /// it was already taken, or the task has finished).
    pub(crate) fn take_action(&mut self, id: TaskId) -> Option<Action> {
        self.tasks.get_mut(&id.0).and_then(|t| t.action.take())
    }

    /// Mark a task as running and record any footprint races against the
    /// currently running set.
    pub fn start(&mut self, id: TaskId) {
        let me = self.tasks.get(&id.0).expect("start of unknown task");
        debug_assert!(
            matches!(me.state, TaskState::Ready),
            "start of task {id:?} in state {:?}",
            me.state
        );
        // Running tasks with a same-space access overlapping one of
        // mine, at least one of the two a write — exactly the tasks
        // `footprint_conflict` answers `Some` for.
        let mut hits = std::mem::take(&mut self.hits);
        hits.clear();
        for (_, a, mine_writes) in me.accesses() {
            let key = (a.device, a.section.array);
            self.running
                .for_each_overlap(&key, &a.section, |other, theirs_writes| {
                    if mine_writes || theirs_writes {
                        hits.push((self.tasks[&other.0].started, other));
                    }
                });
        }
        // One report per pair, earliest-started first, carrying the
        // first conflict in footprint order.
        hits.sort_unstable();
        hits.dedup();
        for &(_, other_id) in &hits {
            let other = &self.tasks[&other_id.0];
            let section = footprint_conflict(
                (&me.fp_reads, &me.fp_writes),
                (&other.fp_reads, &other.fp_writes),
            )
            .expect("an indexed overlap is a footprint conflict");
            self.races.push(RaceReport {
                first: other_id,
                first_label: other.label.to_string(),
                second: id,
                second_label: me.label.to_string(),
                section,
            });
        }
        self.hits = hits;
        for (slot, a, write) in me.accesses() {
            let key = (a.device, a.section.array);
            self.running.insert(key, id, slot, &a.section, write);
        }
        let me = self.tasks.get_mut(&id.0).expect("checked above");
        me.state = TaskState::Running;
        me.started = self.next_start;
        self.next_start += 1;
    }

    /// Mark a task finished and retire it: its slot, its dependence
    /// records and its running-set entries are dropped here. Returns the
    /// tasks that became ready.
    pub fn finish(&mut self, id: TaskId) -> Vec<TaskId> {
        let t = self.tasks.remove(&id.0).expect("finish of unknown task");
        debug_assert!(
            matches!(t.state, TaskState::Running),
            "finish of task {id:?} in state {:?}",
            t.state
        );
        for (slot, a, _) in t.accesses() {
            let key = (a.device, a.section.array);
            self.running.remove(key, id, slot, &a.section);
        }
        for (slot, (section, _)) in t.publish.iter().enumerate() {
            let key = (t.parent, section.array);
            self.records.remove(key, id, slot as u32, section);
        }
        self.unfinished -= 1;
        self.finished_total += 1;
        let siblings = self.children.get_mut(&t.parent).expect("counted at create");
        *siblings -= 1;
        if *siblings == 0 {
            self.children.remove(&t.parent);
        }

        let mut ready = Vec::new();
        for s in t.succs {
            let st = self.tasks.get_mut(&s.0).expect("successor is live");
            st.unfinished_preds -= 1;
            if st.unfinished_preds == 0 {
                match st.gate_group {
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
        if let Some(g) = t.group {
            let gs = &mut self.groups[g.0 as usize];
            gs.unfinished -= 1;
            if gs.unfinished == 0 {
                for gated in std::mem::take(&mut gs.gated) {
                    self.mark_ready(gated, &mut ready);
                }
            }
        }
        ready
    }

    /// `Waiting` with no unfinished predecessor → `Ready`.
    fn mark_ready(&mut self, id: TaskId, out: &mut Vec<TaskId>) {
        let t = self.tasks.get_mut(&id.0).expect("a waiting task is live");
        if t.state == TaskState::Waiting && t.unfinished_preds == 0 {
            t.state = TaskState::Ready;
            t.gate_group = None;
            out.push(id);
        }
    }

    /// Erase a task's footprints. Used when a fault handler *neutralizes*
    /// a not-yet-started task (its action becomes a no-op, so it touches
    /// nothing) or *forgives* a faulted running task (its operation was
    /// aborted mid-flight; replacement work covering the same sections
    /// must not be flagged as racing with a corpse). A finished task has
    /// none left to erase.
    pub fn clear_footprints(&mut self, id: TaskId) {
        let Some(t) = self.tasks.get_mut(&id.0) else {
            assert!(
                id.0 < self.next_task,
                "clear_footprints of unknown task {id:?}"
            );
            return;
        };
        if t.state == TaskState::Running {
            for (slot, a, _) in t.accesses() {
                let key = (a.device, a.section.array);
                self.running.remove(key, id, slot, &a.section);
            }
        }
        t.fp_reads.clear();
        t.fp_writes.clear();
    }
}

/// First conflicting overlap between two footprints (W∩W, W∩R, R∩W),
/// considering only same-space accesses.
fn footprint_conflict(
    a: (&[FpAccess], &[FpAccess]),
    b: (&[FpAccess], &[FpAccess]),
) -> Option<Section> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::section::ArrayId;

    const A: ArrayId = ArrayId(0);

    fn sec(start: usize, len: usize) -> Section {
        Section::new(A, start, len)
    }

    fn spec(label: &str) -> TaskSpec {
        TaskSpec::new(label)
    }

    /// Drive a task through its lifecycle manually.
    fn run(g: &mut TaskGraph, id: TaskId) -> Vec<TaskId> {
        g.start(id);
        g.finish(id)
    }

    #[test]
    fn independent_tasks_are_ready() {
        let mut g = TaskGraph::new();
        let (t1, r1) = g.create(spec("a"));
        let (t2, r2) = g.create(spec("b"));
        assert!(r1 && r2);
        assert_eq!(g.unfinished(), 2);
        run(&mut g, t1);
        run(&mut g, t2);
        assert_eq!(g.unfinished(), 0);
    }

    #[test]
    fn out_then_in_creates_edge() {
        let mut g = TaskGraph::new();
        let mut s1 = spec("writer");
        s1.wait_on = vec![(sec(0, 10), true)];
        s1.publish = vec![(sec(0, 10), true)];
        let (w, ready) = g.create(s1);
        assert!(ready);
        let mut s2 = spec("reader");
        s2.wait_on = vec![(sec(5, 10), false)];
        s2.publish = vec![(sec(5, 10), false)];
        let (r, ready) = g.create(s2);
        assert!(!ready, "reader must wait for overlapping writer");
        let now_ready = run(&mut g, w);
        assert_eq!(now_ready, vec![r]);
    }

    #[test]
    fn in_then_in_no_edge() {
        let mut g = TaskGraph::new();
        let mut s1 = spec("r1");
        s1.wait_on = vec![(sec(0, 10), false)];
        s1.publish = vec![(sec(0, 10), false)];
        g.create(s1);
        let mut s2 = spec("r2");
        s2.wait_on = vec![(sec(0, 10), false)];
        s2.publish = vec![(sec(0, 10), false)];
        let (_, ready) = g.create(s2);
        assert!(ready, "readers don't serialize");
    }

    #[test]
    fn in_then_out_creates_edge() {
        let mut g = TaskGraph::new();
        let mut s1 = spec("reader");
        s1.wait_on = vec![(sec(0, 10), false)];
        s1.publish = vec![(sec(0, 10), false)];
        let (r, _) = g.create(s1);
        let mut s2 = spec("writer");
        s2.wait_on = vec![(sec(0, 10), true)];
        s2.publish = vec![(sec(0, 10), true)];
        let (_, ready) = g.create(s2);
        assert!(!ready, "writer waits for previous reader");
        run(&mut g, r);
    }

    #[test]
    fn disjoint_sections_no_edge() {
        let mut g = TaskGraph::new();
        let mut s1 = spec("w1");
        s1.publish = vec![(sec(0, 10), true)];
        g.create(s1);
        let mut s2 = spec("w2");
        s2.wait_on = vec![(sec(10, 10), true)];
        let (_, ready) = g.create(s2);
        assert!(ready, "disjoint chunks run concurrently");
    }

    #[test]
    fn different_parents_do_not_match() {
        let mut g = TaskGraph::new();
        let (p1, _) = g.create(spec("parent1"));
        let (p2, _) = g.create(spec("parent2"));
        let mut s1 = spec("w-in-p1");
        s1.parent = Some(p1);
        s1.publish = vec![(sec(0, 10), true)];
        g.create(s1);
        let mut s2 = spec("r-in-p2");
        s2.parent = Some(p2);
        s2.wait_on = vec![(sec(0, 10), false)];
        let (_, ready) = g.create(s2);
        assert!(ready, "depend only matches siblings");
    }

    #[test]
    fn chain_of_kernels() {
        // forces(out F) → accel(in F, out Acc) → velocity(in Acc, out V).
        let f = |s: usize| sec(s * 100, 100);
        let mut g = TaskGraph::new();
        let mut s1 = spec("forces");
        s1.publish = vec![(f(0), true)];
        let (t1, _) = g.create(s1);
        let mut s2 = spec("accel");
        s2.wait_on = vec![(f(0), false), (f(1), true)];
        s2.publish = vec![(f(1), true)];
        let (t2, r2) = g.create(s2);
        assert!(!r2);
        let mut s3 = spec("velocity");
        s3.wait_on = vec![(f(1), false), (f(2), true)];
        s3.publish = vec![(f(2), true)];
        let (t3, r3) = g.create(s3);
        assert!(!r3);
        assert_eq!(run(&mut g, t1), vec![t2]);
        assert_eq!(run(&mut g, t2), vec![t3]);
        assert_eq!(run(&mut g, t3), vec![]);
    }

    #[test]
    fn groups_count_and_gate() {
        let mut g = TaskGraph::new();
        let grp = g.group_create();
        assert!(g.group_is_empty(grp));
        let mut s1 = spec("member");
        s1.group = Some(grp);
        let (m, _) = g.create(s1);
        assert!(!g.group_is_empty(grp));
        // A gated task is not ready while the group is non-empty.
        let mut s2 = spec("continuation");
        s2.gate_group = Some(grp);
        let (c, ready) = g.create(s2);
        assert!(!ready);
        let ready_after = run(&mut g, m);
        assert_eq!(ready_after, vec![c]);
        assert!(g.group_is_empty(grp));
    }

    #[test]
    fn gate_on_already_empty_group() {
        let mut g = TaskGraph::new();
        let grp = g.group_create();
        let mut s = spec("c");
        s.gate_group = Some(grp);
        let (_, ready) = g.create(s);
        assert!(ready);
    }

    #[test]
    fn gate_plus_preds() {
        let mut g = TaskGraph::new();
        let grp = g.group_create();
        let mut member = spec("member");
        member.group = Some(grp);
        let (m, _) = g.create(member);
        let (p, _) = g.create(spec("pred"));
        let mut s = spec("both");
        s.gate_group = Some(grp);
        s.extra_preds = vec![p];
        let (b, ready) = g.create(s);
        assert!(!ready);
        // Finish the group first: still waiting on pred.
        let r1 = run(&mut g, m);
        assert!(r1.is_empty());
        // Finish pred: now ready.
        let r2 = run(&mut g, p);
        assert_eq!(r2, vec![b]);
    }

    #[test]
    fn extra_preds_of_finished_tasks_ignored() {
        let mut g = TaskGraph::new();
        let (p, _) = g.create(spec("p"));
        run(&mut g, p);
        let mut s = spec("after");
        s.extra_preds = vec![p];
        let (_, ready) = g.create(s);
        assert!(ready);
    }

    #[test]
    fn race_detection_on_concurrent_conflict() {
        let mut g = TaskGraph::new();
        let mut s1 = spec("writer");
        s1.fp_writes = vec![FpAccess::host(sec(0, 10))];
        let (w, _) = g.create(s1);
        let mut s2 = spec("reader");
        s2.fp_reads = vec![FpAccess::host(sec(5, 10))];
        let (r, _) = g.create(s2);
        g.start(w);
        g.start(r); // concurrent with writer → race
        assert_eq!(g.races().len(), 1);
        let race = &g.races()[0];
        assert_eq!(race.first, w);
        assert_eq!(race.second, r);
        assert_eq!(race.section, sec(5, 5));
        g.finish(w);
        g.finish(r);
    }

    #[test]
    fn no_race_when_serialized() {
        let mut g = TaskGraph::new();
        let mut s1 = spec("writer");
        s1.fp_writes = vec![FpAccess::host(sec(0, 10))];
        let (w, _) = g.create(s1);
        let mut s2 = spec("reader");
        s2.fp_reads = vec![FpAccess::host(sec(0, 10))];
        let (r, _) = g.create(s2);
        run(&mut g, w); // finished before reader starts
        run(&mut g, r);
        assert!(g.races().is_empty());
    }

    #[test]
    fn no_race_on_read_read() {
        let mut g = TaskGraph::new();
        let mut s1 = spec("r1");
        s1.fp_reads = vec![FpAccess::host(sec(0, 10))];
        let (a, _) = g.create(s1);
        let mut s2 = spec("r2");
        s2.fp_reads = vec![FpAccess::host(sec(0, 10))];
        let (b, _) = g.create(s2);
        g.start(a);
        g.start(b);
        assert!(g.races().is_empty());
        g.finish(a);
        g.finish(b);
    }

    #[test]
    fn cleared_footprints_do_not_race() {
        let mut g = TaskGraph::new();
        let mut s1 = spec("faulted-writer");
        s1.fp_writes = vec![FpAccess::host(sec(0, 10))];
        let (w, _) = g.create(s1);
        let mut s2 = spec("replacement");
        s2.fp_writes = vec![FpAccess::host(sec(0, 10))];
        let (r, _) = g.create(s2);
        g.start(w);
        // The writer faulted: its in-flight work is aborted, so the
        // replacement covering the same section is not a race.
        g.clear_footprints(w);
        g.start(r);
        assert!(g.races().is_empty());
        g.finish(w);
        g.finish(r);
    }

    #[test]
    fn finished_tasks_are_retired_but_still_answer() {
        let mut g = TaskGraph::new();
        let mut s1 = spec("w");
        s1.publish = vec![(sec(0, 10), true)];
        s1.fp_writes = vec![FpAccess::host(sec(0, 10))];
        let (w, _) = g.create(s1);
        g.start(w);
        let live = g.live_counts();
        assert_eq!(
            (live.tasks, live.dep_records, live.running_entries),
            (1, 1, 1)
        );
        g.finish(w);
        assert_eq!(g.live_counts(), LiveCounts::default());
        assert_eq!(g.state(w), TaskState::Finished);
        assert_eq!(g.group_of(w), None);
        g.clear_footprints(w); // nothing left to erase
                               // Ids are never recycled, and the retired writer's record is gone.
        let mut s2 = spec("r");
        s2.wait_on = vec![(sec(0, 10), false)];
        let (r, ready) = g.create(s2);
        assert_eq!(r, TaskId(w.0 + 1));
        assert!(ready);
    }

    #[test]
    #[should_panic(expected = "unknown task")]
    fn an_id_never_handed_out_is_not_finished() {
        TaskGraph::new().state(TaskId(0));
    }

    /// All owners `grid` reports for `q` in context `key`, sorted.
    fn overlaps_of(grid: &SectionGrid<u32>, key: u32, q: Section) -> Vec<u64> {
        let mut found = Vec::new();
        grid.for_each_overlap(&key, &q, |t, _| found.push(t.0));
        found.sort_unstable();
        found
    }

    #[test]
    fn section_grid_finds_every_overlap_across_length_classes() {
        let mut grid = SectionGrid::default();
        let stored = [
            sec(0, 4096),
            sec(64, 64),
            sec(128, 64),
            sec(100, 1),
            sec(191, 3),
        ];
        for (i, s) in stored.iter().enumerate() {
            grid.insert(0, TaskId(i as u64), 0, s, true);
        }
        // A second context's sections never answer for the first.
        grid.insert(1, TaskId(99), 0, &sec(0, 4096), true);
        let hits = |q: Section| overlaps_of(&grid, 0, q);
        for q in [
            sec(0, 1),
            sec(100, 1),
            sec(127, 2),
            sec(190, 2),
            sec(4095, 1),
            sec(0, 4096),
        ] {
            let expect: Vec<u64> = (0..stored.len() as u64)
                .filter(|&i| stored[i as usize].overlaps(&q))
                .collect();
            assert_eq!(hits(q), expect, "query {q}");
        }
        assert!(
            hits(sec(100, 0)).is_empty(),
            "an empty query overlaps nothing"
        );
        assert!(hits(sec(4096, 10)).is_empty());
        assert!(overlaps_of(&grid, 2, sec(0, 4096)).is_empty());
    }

    #[test]
    fn a_wide_query_walks_live_entries_not_cells() {
        let mut grid = SectionGrid::default();
        let starts = [3, 70_000, 300_001, 512_000, 1_048_575];
        for (i, &s) in starts.iter().enumerate() {
            grid.insert(0, TaskId(i as u64), 0, &sec(s, 1), false);
        }
        grid.visits.set(0);
        let found = overlaps_of(&grid, 0, sec(0, 1 << 20));
        assert_eq!(found, vec![0, 1, 2, 3, 4]);
        assert!(
            grid.visits.get() <= starts.len(),
            "{} visits for {} live entries",
            grid.visits.get(),
            starts.len()
        );
        // A narrow query still probes cells: one, for one element.
        grid.visits.set(0);
        assert_eq!(overlaps_of(&grid, 0, sec(70_000, 1)), vec![1]);
        assert_eq!(grid.visits.get(), 1);
    }

    #[test]
    fn churn_matches_a_naive_model_and_stops_growing() {
        use spread_prng::Prng;

        /// `(context, owner, slot, section, write)` of every live entry.
        type Model = Vec<(u32, TaskId, u32, Section, bool)>;

        fn round(grid: &mut SectionGrid<u32>, seed: u64) {
            let mut rng = Prng::new(seed);
            let mut model: Model = Vec::new();
            let mut next_owner = 0;
            for step in 0..3_000 {
                if step < 2_000 && (model.is_empty() || rng.chance(0.6)) {
                    let ctx = rng.below(4) as u32;
                    let start = rng.range(0, 4_096);
                    let len = match rng.below(4) {
                        0 => 0,
                        1 => 64,
                        2 => rng.range(1, 8),
                        _ => rng.range(1, 4_096),
                    };
                    let owner = TaskId(next_owner / 3);
                    let slot = (next_owner % 3) as u32;
                    next_owner += 1;
                    let s = sec(start, len);
                    let write = rng.chance(0.5);
                    grid.insert(ctx, owner, slot, &s, write);
                    if !s.is_empty() {
                        model.push((ctx, owner, slot, s, write));
                    }
                } else if !model.is_empty() {
                    let i = rng.range(0, model.len());
                    let (ctx, owner, slot, s, _) = model.swap_remove(i);
                    grid.remove(ctx, owner, slot, &s);
                }
                assert_eq!(grid.len(), model.len(), "step {step}");
                // Short queries probe cells, long ones walk the context.
                let ctx = rng.below(5) as u32;
                let max_len = if rng.chance(0.5) { 48 } else { 600 };
                let q = sec(rng.range(0, 4_200), rng.range(0, max_len));
                let mut got = Vec::new();
                grid.for_each_overlap(&ctx, &q, |t, w| got.push((t, w)));
                let mut want: Vec<(TaskId, bool)> = model
                    .iter()
                    .filter(|e| e.0 == ctx && e.3.overlaps(&q))
                    .map(|e| (e.1, e.4))
                    .collect();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "step {step}: query {q} in context {ctx}");
            }
            while let Some((ctx, owner, slot, s, _)) = model.pop() {
                grid.remove(ctx, owner, slot, &s);
            }
            assert_eq!((grid.len(), grid.open_contexts()), (0, 0));
        }

        let capacities = |g: &SectionGrid<u32>| {
            (
                g.entries.capacity(),
                g.contexts.capacity(),
                g.open.capacity(),
                g.cells.capacity(),
            )
        };
        let mut grid = SectionGrid::default();
        round(&mut grid, 7);
        let warm = capacities(&grid);
        round(&mut grid, 7);
        assert_eq!(capacities(&grid), warm, "a repeated round allocated");
    }

    #[test]
    fn children_counting() {
        let mut g = TaskGraph::new();
        let (p, _) = g.create(spec("parent"));
        assert_eq!(g.unfinished_children(None), 1);
        let mut c1 = spec("child");
        c1.parent = Some(p);
        let (c, _) = g.create(c1);
        assert_eq!(g.unfinished_children(Some(p)), 1);
        run(&mut g, c);
        assert_eq!(g.unfinished_children(Some(p)), 0);
        run(&mut g, p);
        assert_eq!(g.unfinished_children(None), 0);
    }
}

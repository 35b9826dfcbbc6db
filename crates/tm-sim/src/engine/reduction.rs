//! The reduction layer of the exploration kernel: the pruning state the
//! schedule-tree search threads through its walk.
//!
//! Three reductions live here, all driven by per-TM independence
//! contracts (see the soundness discussion in [`crate::explore`]'s
//! module docs):
//!
//! * **sleep sets** over the coarse variable-footprint relation
//!   ([`Footprint`], gated on `SteppedTm::disjoint_var_ops_commute`);
//! * **source-set DPOR** ([`Dpor`]): vector clocks over the conflict
//!   relation declared by `SteppedTm::step_footprint`, with
//!   Flanagan–Godefroid backtrack sets and Abdulla-et-al source sets;
//! * **optimal DPOR** ([`OptimalDpor`]): the wakeup-tree algorithm of
//!   Abdulla, Aronis, Jonsson and Sagonas, replacing the flat backtrack
//!   sets with ordered sleep-set-aware trees of race-reversal
//!   *sequences*.
//!
//! # Wakeup trees
//!
//! A [`WakeupTree`] is an ordered tree whose edges are labelled with
//! steps (process + footprint); the children of every node carry
//! pairwise-distinct process labels, in insertion order. Each node of
//! the *schedule* tree being explored owns one wakeup tree holding the
//! race reversals still owed below it; exploration at a node pops the
//! tree's first edge, executes it, and hands the edge's subtree to the
//! child — so a multi-step reversal sequence is walked verbatim before
//! free seeding resumes at its end.
//!
//! **Insertion rule.** When race detection derives a reversal sequence
//! `v` for the node `e` (the not-yet-dependent suffix `notdep(e, E)`
//! followed by the racing process's step), the sequence is first guarded
//! by the *weak-initials* test: if `WI(v)` — the processes whose first
//! `v`-step has no happens-before predecessor inside `v`, plus the
//! processes not in `v` whose next step at `e` is independent of all of
//! `v` — meets `e`'s sleep set, an equivalent execution is already
//! explored or in progress and the insertion is dropped (counted
//! redundant). Otherwise the walk descends the ordered tree: at each
//! node, the first child edge whose label either *is* an initial of the
//! remaining `v` (consume that occurrence) or is independent of all of
//! it (pass `v` through unchanged) is entered; reaching the end of an
//! existing branch with `v` unconsumed proves subsumption (redundant);
//! if no child accepts, `v` is appended as a fresh chain in arrival
//! order. Appended chains always start with a process distinct from
//! every sibling label — a matching label would have been consumed as an
//! initial — which keeps child labels unique.
//!
//! **Why no execution is ever sleep-blocked.** A node's sleep set grows
//! only by (a) inheritance — sleeping siblings filtered through the
//! SDPOR independence test — and (b) its own explored children, and the
//! weak-initial guard checks both against `v` at insertion time. That
//! guard is exact for a *static* independence relation; our footprints
//! are state-dependent, so a sequence inserted from one execution
//! context (where, say, a `TryCommit` was about to hit a locked word)
//! may be replayed in the node's own context where that conflict has
//! dissolved — and sleep inheritance, which re-checks independence
//! against the actual footprints on the path, then keeps the head
//! asleep. The walk therefore re-tests each popped edge: an asleep head
//! certifies that an already-explored sibling subtree covers the whole
//! branch, and the edge is dropped — subtree included — *before any
//! step executes* (counted redundant). Source-set mode, by contrast,
//! suppresses race-inserted backtrack branches whose process has gone to
//! sleep *after* the insertion — each suppression is an execution the
//! classic SDPOR formulation starts and abandons, counted by
//! `Counter::SleepBlockedExecutions`. Optimal mode never starts a
//! schedule it abandons, so it must keep that counter at exactly zero
//! (asserted in the differential suite).
//!
//! # Per-node cost
//!
//! Race detection runs at every node for every process, so both DPOR
//! walks keep per-node work allocation-free: every path node's next-step
//! footprints sit on one flat stack in [`Dpor`] (a node's parent row is
//! the one below it), the optimal walk derives each reversal into one
//! reused buffer that [`WakeupTree::insert`] consumes in place, and the
//! race scans test happens-before (one clock row per scan) before the
//! footprint conflict. The optimal walk keeps no memo: a subtree summary
//! keyed on the pending wakeup tree never transferred (0 hits in 926,530
//! probes on the explorer benchmark), and a configuration-keyed one
//! would need stateful DPOR to stay sound.
//!
//! The graph search's transition memoization (execute each state-graph
//! edge once, replay re-walks) is the liveness checker's analogue; it
//! lives with the graph structures in [`crate::livecheck`].

use tm_core::{Invocation, ProcessId, TVarId};
use tm_stm::{BoxedTm, StepFootprint, SteppedTm};

use crate::workload::Client;

/// What a process's next step would do, for the sleep sets' coarse
/// independence relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Footprint {
    /// An operation step confined to one t-variable.
    Var(TVarId),
    /// A step whose effect or outcome depends on global TM state
    /// (`tryC`, or polling a blocking TM).
    Global,
}

/// Per-node footprints of every process's next step, on the stack (no
/// allocation in the hot recursion).
pub(crate) type Feet = [Footprint; 64];

pub(crate) fn footprint(tm: &BoxedTm, clients: &[Client], k: usize) -> Footprint {
    if tm.has_pending(ProcessId(k)) {
        return Footprint::Global;
    }
    match clients[k].next_invocation() {
        Invocation::Read(x) | Invocation::Write(x, _) => Footprint::Var(x),
        Invocation::TryCommit => Footprint::Global,
    }
}

pub(crate) fn independent(a: Footprint, b: Footprint) -> bool {
    match (a, b) {
        (Footprint::Var(x), Footprint::Var(y)) => x != y,
        _ => false,
    }
}

/// The sleep-set footprints of every process's next step at the current
/// configuration.
pub(crate) fn sleep_feet(tm: &BoxedTm, clients: &[Client]) -> Feet {
    let mut feet: Feet = [Footprint::Global; 64];
    for (k, foot) in feet.iter_mut().enumerate().take(clients.len()) {
        *foot = footprint(tm, clients, k);
    }
    feet
}

/// The sleep set `sleep` filtered down for the child reached by stepping
/// `k`: a sibling stays asleep only while its step is independent of the
/// step just taken.
pub(crate) fn filtered_sleep(sleep: u64, feet: &Feet, k: usize, n: usize) -> u64 {
    let mut kept = 0u64;
    for q in 0..n {
        if sleep & (1 << q) != 0 && independent(feet[q], feet[k]) {
            kept |= 1 << q;
        }
    }
    kept
}

/// The next-step footprint of process `q` at the current configuration:
/// the TM's conflict oracle for the pending invocation, with the
/// transaction-begin flag supplied by the driver (which owns the client
/// cursor), or the fully conservative footprint for a blocked poll.
pub(crate) fn next_footprint(tm: &BoxedTm, clients: &[Client], q: usize) -> StepFootprint {
    if tm.has_pending(ProcessId(q)) {
        StepFootprint::global()
    } else {
        let mut foot = tm.step_footprint(ProcessId(q), clients[q].next_invocation());
        foot.begins = !clients[q].mid_transaction();
        foot
    }
}

/// One executed step of the DPOR trace (the current path of the walk,
/// annotated with the data race reversal needs).
#[derive(Debug)]
pub(crate) struct DporStep {
    pub(crate) proc: u8,
    pub(crate) foot: StepFootprint,
    /// 1-based count of this process's steps up to and including this one.
    local_index: u32,
    /// The process's previous step's trace index (restored on pop).
    prev_of_proc: Option<u32>,
}

/// The source-set DPOR state riding along the depth-first walk: the
/// executed trace with vector clocks (happens-before), every path node's
/// next-step footprints, and the per-node backtrack sets race detection
/// grows.
#[derive(Debug)]
pub(crate) struct Dpor {
    n: usize,
    pub(crate) steps: Vec<DporStep>,
    /// Flat vector-clock matrix: `clocks[i * n + q]` = how many of
    /// process `q`'s steps happen before (or are) step `i`.
    clocks: Vec<u32>,
    /// Per-process trace index of the last executed step.
    last_of: Vec<Option<u32>>,
    /// Flat per-node footprints, one stack for the whole path:
    /// `feet[node * n + q]` is process `q`'s next-step footprint at the
    /// node at depth `node`. Pushed at node entry (leaves included),
    /// truncated on the node's return.
    feet: Vec<StepFootprint>,
    /// Per-depth backtrack sets (a step's trace index is also the depth
    /// of the node it was executed from).
    pub(crate) backtrack: Vec<u64>,
    /// Reversible races detected over this instance's lifetime
    /// (telemetry tally, flushed per worker as [`Counter::DporRaces`]).
    ///
    /// [`Counter::DporRaces`]: tm_telemetry::Counter::DporRaces
    pub(crate) races: u64,
    /// Backtrack bits suppressed by the sleep discipline: at node
    /// completion, processes the backtrack set demanded but the walk
    /// never ran because they were asleep. Each is an execution classic
    /// sleep-set DPOR would start and abandon — the redundant work
    /// source sets schedule and optimal mode never does (telemetry
    /// tally, flushed per worker as [`Counter::SleepBlockedExecutions`]).
    ///
    /// [`Counter::SleepBlockedExecutions`]: tm_telemetry::Counter::SleepBlockedExecutions
    pub(crate) blocked: u64,
}

impl Dpor {
    pub(crate) fn new(n: usize) -> Self {
        Dpor {
            n,
            steps: Vec::new(),
            clocks: Vec::new(),
            last_of: vec![None; n],
            feet: Vec::new(),
            backtrack: Vec::new(),
            races: 0,
            blocked: 0,
        }
    }

    /// Records the execution of one step by `k` with footprint `foot`:
    /// its clock is the join of the process's previous clock and the
    /// clocks of every earlier conflicting step, plus itself.
    ///
    /// A step the partial join already covers (its own entry is reached)
    /// is skipped without testing its footprint: it happens before some
    /// step already joined, so its whole clock is below the join and
    /// joining it again changes nothing.
    pub(crate) fn push(&mut self, k: usize, foot: StepFootprint) {
        let n = self.n;
        let i = self.steps.len();
        let base = self.clocks.len();
        match self.last_of[k] {
            Some(p) => {
                let row = p as usize * n;
                self.clocks.extend_from_within(row..row + n);
            }
            None => self.clocks.resize(base + n, 0),
        }
        let (past, clock) = self.clocks.split_at_mut(base);
        for (j, step) in self.steps.iter().enumerate() {
            if clock[step.proc as usize] >= step.local_index || !step.foot.conflicts(&foot) {
                continue;
            }
            for (c, &p) in clock.iter_mut().zip(&past[j * n..(j + 1) * n]) {
                *c = (*c).max(p);
            }
        }
        let local_index = self.last_of[k].map_or(0, |p| self.steps[p as usize].local_index) + 1;
        clock[k] = local_index;
        self.steps.push(DporStep {
            proc: u8::try_from(k).expect("≤ 64 processes"),
            foot,
            local_index,
            prev_of_proc: self.last_of[k],
        });
        self.last_of[k] = Some(u32::try_from(i).expect("trace fits u32"));
    }

    pub(crate) fn pop(&mut self) {
        let step = self.steps.pop().expect("pop matches push");
        self.last_of[step.proc as usize] = step.prev_of_proc;
        self.clocks.truncate(self.steps.len() * self.n);
    }

    /// Enters the node at depth `steps.len()`: pushes every process's
    /// next-step footprint at the current configuration.
    pub(crate) fn push_feet(&mut self, tm: &BoxedTm, clients: &[Client]) {
        for q in 0..self.n {
            self.feet.push(next_footprint(tm, clients, q));
        }
    }

    /// Leaves the node entered by the last [`Dpor::push_feet`].
    pub(crate) fn pop_feet(&mut self) {
        self.feet.truncate(self.feet.len() - self.n);
    }

    /// The next-step footprints at the node at `depth`.
    pub(crate) fn node_feet(&self, depth: usize) -> &[StepFootprint] {
        &self.feet[depth * self.n..(depth + 1) * self.n]
    }

    /// The race scan of process `q`'s next step at the node whose
    /// footprints were just pushed: the step's footprint and the trace
    /// index the scan starts from (`None` at the root, which has no
    /// trace). Incremental: a process that did not just step and whose
    /// footprint is unchanged since the parent node had all its races
    /// against older steps handled there (its clock is unchanged too),
    /// so only the newest trace step needs checking — full rescans
    /// happen exactly for the process that stepped or on a
    /// state-induced footprint change.
    fn node_scan(&self, q: usize) -> Option<(StepFootprint, usize)> {
        let (n, len) = (self.n, self.steps.len());
        let last = self.steps.last()?;
        let foot = self.feet[len * n + q];
        let full = q == last.proc as usize || self.feet[(len - 1) * n + q] != foot;
        Some((foot, if full { 0 } else { len - 1 }))
    }

    /// Source-set race detection at the node whose footprints were just
    /// pushed, for every process's next step
    /// ([`Dpor::detect_races_from`]).
    pub(crate) fn detect_node_races(&mut self) {
        for q in 0..self.n {
            if let Some((foot, lo)) = self.node_scan(q) {
                self.detect_races_from(q, &foot, lo);
            }
        }
    }

    /// Whether step `i` happens-before step `j` (`i < j`).
    fn hb_steps(&self, i: usize, j: usize) -> bool {
        self.clocks[j * self.n + self.steps[i].proc as usize] >= self.steps[i].local_index
    }

    /// The clock row of process `q`'s last executed step (all zeros
    /// before its first): trace step `i` happens before `q`'s *next*
    /// step iff `row[proc(i)] >= local_index(i)` or `i` is `q`'s own.
    /// Race scans read it once per scan instead of once per step.
    fn past_of(clocks: &[u32], last: Option<u32>, n: usize) -> &[u32] {
        static NONE: [u32; 64] = [0; 64];
        match last {
            Some(l) => &clocks[l as usize * n..(l as usize + 1) * n],
            None => &NONE[..n],
        }
    }

    /// SDPOR race detection for the next step of process `k` (footprint
    /// `fp`) against the trace steps at indices `lo..`: for every step
    /// in a reversible race with it — conflicting, by another process,
    /// not already ordered before `k` — ensure the backtrack set at that
    /// step's node intersects the race's source set, inserting one
    /// source member if not.
    ///
    /// Callers pass `lo = 0` for a full scan, or `lo = len - 1` to check
    /// only the step just executed: a race ensured at an ancestor stays
    /// ensured, because an initial of the shorter reversed continuation
    /// remains an initial of every extension (new events by other
    /// processes cannot become happens-before predecessors of it), so
    /// only the *new* step needs checking when neither `k`'s footprint
    /// nor its clock changed.
    fn detect_races_from(&mut self, k: usize, fp: &StepFootprint, lo: usize) {
        let past = Dpor::past_of(&self.clocks, self.last_of[k], self.n);
        for e in (lo..self.steps.len()).rev() {
            let step = &self.steps[e];
            let p = step.proc as usize;
            if p == k || past[p] >= step.local_index || !step.foot.conflicts(fp) {
                continue;
            }
            self.races += 1;
            let initials = self.source_initials(e, k);
            if self.backtrack[e] & initials == 0 {
                let add = if initials & (1 << k) != 0 {
                    k
                } else {
                    initials.trailing_zeros() as usize
                };
                self.backtrack[e] |= 1 << add;
            }
        }
    }

    /// The source set `I(notdep(e, E) · next_k)`: processes whose first
    /// step in the race's reversed continuation has no happens-before
    /// predecessor inside it. Exploring any one of them from `e`'s node
    /// (eventually) covers the reversal, which is the source-set
    /// weakening of plain DPOR's "add `k` itself".
    fn source_initials(&self, e: usize, k: usize) -> u64 {
        let len = self.steps.len();
        let mut initials = 0u64;
        for q in 0..self.n {
            let first = (e + 1..len).find(|&j| self.steps[j].proc as usize == q);
            match first {
                Some(j) => {
                    if self.hb_steps(e, j) {
                        continue; // causally after e: not in notdep
                    }
                    let blocked =
                        (e + 1..j).any(|j2| !self.hb_steps(e, j2) && self.hb_steps(j2, j));
                    if !blocked {
                        initials |= 1 << q;
                    }
                }
                None => {
                    if q == k {
                        initials |= 1 << k;
                    }
                }
            }
        }
        if initials == 0 {
            initials = 1 << k; // defensive: k is always a valid insertion
        }
        initials
    }
}

/// One step of a wakeup-tree sequence: the racing process and the
/// footprint its step had when the reversal was derived (footprints are
/// class-invariant under the commutation contract, so the recorded
/// footprint equals the footprint at execution time).
#[derive(Debug, Clone, Copy)]
pub(crate) struct WakeupStep {
    pub(crate) proc: u8,
    pub(crate) foot: StepFootprint,
}

/// An edge of a wakeup tree: a labelled step and the subtree to explore
/// after executing it.
#[derive(Debug)]
pub(crate) struct WakeupEdge {
    pub(crate) proc: u8,
    pub(crate) foot: StepFootprint,
    pub(crate) sub: WakeupTree,
}

/// An ordered tree of race-reversal sequences (see the module docs):
/// children carry pairwise-distinct process labels in insertion order.
/// Exploration pops edges front-first; insertion descends by the
/// weak-initial rule.
#[derive(Debug, Default)]
pub(crate) struct WakeupTree {
    pub(crate) edges: Vec<WakeupEdge>,
}

/// Whether `v[i]` is an initial of `v`: no earlier element is a
/// happens-before predecessor (same process, or conflicting footprint —
/// any longer happens-before chain into `v[i]` ends in one of those
/// direct edges, so the direct check suffices).
fn is_initial(v: &[WakeupStep], i: usize) -> bool {
    v[..i]
        .iter()
        .all(|s| s.proc != v[i].proc && !s.foot.conflicts(&v[i].foot))
}

impl WakeupTree {
    pub(crate) fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Removes and returns the first (oldest) edge.
    pub(crate) fn pop_first(&mut self) -> Option<WakeupEdge> {
        if self.edges.is_empty() {
            None
        } else {
            Some(self.edges.remove(0))
        }
    }

    /// Seeds an exhausted tree with a single free step (the walk's
    /// arbitrary first representative at a node no reversal targets).
    pub(crate) fn seed(&mut self, proc: u8, foot: StepFootprint) {
        debug_assert!(self.edges.is_empty());
        self.edges.push(WakeupEdge {
            proc,
            foot,
            sub: WakeupTree::default(),
        });
    }

    /// Inserts the reversal sequence `v` by the ordered-tree rule
    /// (module docs): descend into the first child edge whose label is
    /// an initial of the remaining sequence (consuming that occurrence
    /// from `v`) or independent of all of it (passing it through);
    /// append the remainder as a fresh chain when no child accepts;
    /// report subsumption (`false`) when an existing branch ends first or
    /// the sequence is consumed entirely. `v` is consumed in place, so a
    /// caller can reuse its buffer.
    pub(crate) fn insert(&mut self, v: &mut Vec<WakeupStep>) -> bool {
        let mut node = self;
        let mut interior = false;
        loop {
            if v.is_empty() {
                return false; // consumed: an existing branch covers it
            }
            if interior && node.edges.is_empty() {
                // End of an existing branch with steps left over: the
                // branch's own exploration (free seeding plus its own
                // race detection) subsumes the remainder.
                return false;
            }
            let mut accepted = None;
            for (i, edge) in node.edges.iter().enumerate() {
                if let Some(pos) = v.iter().position(|s| s.proc == edge.proc) {
                    if is_initial(v, pos) {
                        v.remove(pos);
                        accepted = Some(i);
                        break;
                    }
                    // The label's process occurs in v but is not an
                    // initial: this branch cannot host the reversal.
                } else if v.iter().all(|s| !edge.foot.conflicts(&s.foot)) {
                    accepted = Some(i);
                    break;
                }
            }
            match accepted {
                Some(i) => {
                    node = &mut node.edges[i].sub;
                    interior = true;
                }
                None => break,
            }
        }
        // No child accepts: append v as a fresh chain, head edge first.
        // Its head process is distinct from every sibling label (a
        // matching label would have consumed it as an initial above),
        // keeping labels unique.
        for s in v.drain(..) {
            node.edges.push(WakeupEdge {
                proc: s.proc,
                foot: s.foot,
                sub: WakeupTree::default(),
            });
            node = &mut node.edges.last_mut().expect("just pushed").sub;
        }
        true
    }
}

/// The optimal-DPOR state riding along the walk: the source-set core
/// (trace, vector clocks, per-node footprints, race detection) plus
/// per-path-node context — the sleep set and the wakeup tree.
#[derive(Debug)]
pub(crate) struct OptimalDpor {
    pub(crate) core: Dpor,
    n: usize,
    /// Per-node sleep sets along the current path (inherited sleepers
    /// plus explored children), indexed by node depth.
    sleeps: Vec<u64>,
    /// Per-node wakeup trees along the current path (pending reversal
    /// branches only; the edge being explored is popped).
    wuts: Vec<WakeupTree>,
    /// Scratch buffer for the reversal sequence being derived (reused
    /// across races, so deriving one allocates nothing).
    reversal: Vec<WakeupStep>,
    /// Reversal sequences inserted into wakeup trees (telemetry tally).
    pub(crate) inserts: u64,
    /// Reversals proved covered: rejected by the weak-initial sleep
    /// guard, subsumed by an existing branch, or popped with an asleep
    /// head — state-dependent footprints make the insertion-time guard
    /// conservative, so coverage can surface late (telemetry tally).
    pub(crate) redundant: u64,
    /// Executions started and then abandoned as redundant. Structurally
    /// zero here: the walk drops covered branches before their first
    /// step (module docs). Kept so the optimal path flushes the same
    /// [`Counter::SleepBlockedExecutions`] tally source mode does — the
    /// pinned zero *is* the optimality claim.
    ///
    /// [`Counter::SleepBlockedExecutions`]: tm_telemetry::Counter::SleepBlockedExecutions
    pub(crate) blocked: u64,
}

impl OptimalDpor {
    pub(crate) fn new(n: usize) -> Self {
        OptimalDpor {
            core: Dpor::new(n),
            n,
            sleeps: Vec::new(),
            wuts: Vec::new(),
            reversal: Vec::new(),
            inserts: 0,
            redundant: 0,
            blocked: 0,
        }
    }

    /// Expands the node whose footprints were just pushed
    /// ([`Dpor::push_feet`]): records its sleep set and pending wakeup
    /// tree.
    pub(crate) fn push_node(&mut self, sleep: u64, wut: WakeupTree) {
        self.sleeps.push(sleep);
        self.wuts.push(wut);
    }

    /// Leaves an expanded node: drops its sleep set, wakeup tree and
    /// footprints.
    pub(crate) fn pop_node(&mut self) {
        self.sleeps.pop().expect("pop matches push");
        self.wuts.pop();
        self.core.pop_feet();
    }

    /// Marks `k` explored at the node at `depth` (joins its sleep set).
    pub(crate) fn sleep_child(&mut self, depth: usize, k: usize) {
        self.sleeps[depth] |= 1 << k;
    }

    pub(crate) fn wut_is_empty(&self, depth: usize) -> bool {
        self.wuts[depth].is_empty()
    }

    pub(crate) fn seed(&mut self, depth: usize, proc: u8, foot: StepFootprint) {
        self.wuts[depth].seed(proc, foot);
    }

    pub(crate) fn pop_edge(&mut self, depth: usize) -> Option<WakeupEdge> {
        self.wuts[depth].pop_first()
    }

    /// Optimal-mode race detection at the node whose footprints were
    /// just pushed, for every process's next step, under the same
    /// incremental rescans as [`Dpor::detect_node_races`].
    pub(crate) fn detect_node_races(&mut self) {
        for q in 0..self.n {
            if let Some((foot, lo)) = self.core.node_scan(q) {
                self.detect_races(q, &foot, lo);
            }
        }
    }

    /// Optimal-mode race detection for the next step of process `k`
    /// (footprint `fp`) against trace steps `lo..`: for every reversible
    /// race, derive the full reversal sequence `notdep(e, E) · k` and
    /// insert it into the racing node's wakeup tree unless the
    /// weak-initial sleep guard proves it covered. Same incremental
    /// contract as [`Dpor::detect_races_from`].
    fn detect_races(&mut self, k: usize, fp: &StepFootprint, lo: usize) {
        let len = self.core.steps.len();
        let past = Dpor::past_of(&self.core.clocks, self.core.last_of[k], self.n);
        let mut v = std::mem::take(&mut self.reversal);
        for e in (lo..len).rev() {
            let step = &self.core.steps[e];
            let p = step.proc as usize;
            if p == k || past[p] >= step.local_index || !step.foot.conflicts(fp) {
                continue;
            }
            self.core.races += 1;
            v.clear();
            v.extend(
                (e + 1..len)
                    .filter(|&j| !self.core.hb_steps(e, j))
                    .map(|j| WakeupStep {
                        proc: self.core.steps[j].proc,
                        foot: self.core.steps[j].foot,
                    }),
            );
            v.push(WakeupStep {
                proc: u8::try_from(k).expect("≤ 64 processes"),
                foot: *fp,
            });
            let wi = self.weak_initials(e, &v);
            if wi & self.sleeps[e] != 0 {
                self.redundant += 1; // an explored or sleeping branch covers it
            } else if self.wuts[e].insert(&mut v) {
                self.inserts += 1;
            } else {
                self.redundant += 1; // subsumed by a pending branch
            }
        }
        self.reversal = v;
    }

    /// `WI(v)` at the node at depth `e`: initials of `v`, plus processes
    /// outside `v` whose next step at that node is independent of all of
    /// `v` (the weak part — executing such a step first commutes with
    /// the whole reversal).
    fn weak_initials(&self, e: usize, v: &[WakeupStep]) -> u64 {
        let mut wi = 0u64;
        let mut procs = 0u64;
        for (i, s) in v.iter().enumerate() {
            let bit = 1u64 << s.proc;
            if procs & bit == 0 {
                procs |= bit;
                if is_initial(v, i) {
                    wi |= bit;
                }
            }
        }
        for (q, foot) in self.core.node_feet(e).iter().enumerate() {
            let bit = 1u64 << q;
            if procs & bit == 0 && v.iter().all(|s| !foot.conflicts(&s.foot)) {
                wi |= bit;
            }
        }
        wi
    }
}

/// The sleep set of the child reached by stepping `k` from a node with
/// sleep set `sleep` and next-step footprints `feet` (SDPOR sleep
/// inheritance): a sibling stays asleep only while its next step is
/// independent of the step just taken.
pub(crate) fn inherited_sleep(feet: &[StepFootprint], sleep: u64, k: usize) -> u64 {
    let mut kept = 0u64;
    for (q, foot) in feet.iter().enumerate() {
        if sleep & (1 << q) != 0 && !foot.conflicts(&feet[k]) {
            kept |= 1 << q;
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(proc: u8, reads: u64, writes: u64) -> WakeupStep {
        WakeupStep {
            proc,
            foot: StepFootprint {
                var_reads: reads,
                var_writes: writes,
                ..StepFootprint::local()
            },
        }
    }

    /// The tree as `(depth, proc, foot)` in preorder.
    fn preorder(tree: &WakeupTree) -> Vec<(usize, u8, StepFootprint)> {
        fn walk(tree: &WakeupTree, depth: usize, out: &mut Vec<(usize, u8, StepFootprint)>) {
            for edge in &tree.edges {
                out.push((depth, edge.proc, edge.foot));
                walk(&edge.sub, depth + 1, out);
            }
        }
        let mut out = Vec::new();
        walk(tree, 0, &mut out);
        out
    }

    /// The owned-`Vec` insertion the in-place [`WakeupTree::insert`]
    /// replaced, kept verbatim as its oracle.
    fn insert_owned(tree: &mut WakeupTree, v: Vec<WakeupStep>, interior: bool) -> bool {
        if v.is_empty() {
            return false;
        }
        if interior && tree.edges.is_empty() {
            return false;
        }
        for i in 0..tree.edges.len() {
            let edge = &tree.edges[i];
            if let Some(pos) = v.iter().position(|s| s.proc == edge.proc) {
                if is_initial(&v, pos) {
                    let mut rest = v;
                    rest.remove(pos);
                    return insert_owned(&mut tree.edges[i].sub, rest, true);
                }
            } else if v.iter().all(|s| !edge.foot.conflicts(&s.foot)) {
                return insert_owned(&mut tree.edges[i].sub, v, true);
            }
        }
        let mut sub = WakeupTree::default();
        for s in v.into_iter().rev() {
            let mut wrap = WakeupTree::default();
            wrap.edges.push(WakeupEdge {
                proc: s.proc,
                foot: s.foot,
                sub,
            });
            sub = wrap;
        }
        tree.edges.append(&mut sub.edges);
        true
    }

    #[test]
    fn an_initial_label_is_consumed() {
        // Tree p0 → p2 (p2 writes x). The reversal [p0, p1 writes x]
        // starts with p0, an initial: the p0 edge consumes it; below,
        // p2 conflicts with p1's write and is not in the rest, so p1
        // is appended beside p2.
        let mut tree = WakeupTree::default();
        tree.seed(0, step(0, 0, 0b001).foot);
        tree.edges[0].sub.seed(2, step(2, 0, 0b001).foot);
        let mut v = vec![step(0, 0b010, 0), step(1, 0, 0b001)];
        assert!(tree.insert(&mut v));
        assert!(v.is_empty(), "the buffer is consumed");
        assert_eq!(
            preorder(&tree),
            vec![
                (0, 0, step(0, 0, 0b001).foot),
                (1, 2, step(2, 0, 0b001).foot),
                (1, 1, step(1, 0, 0b001).foot),
            ]
        );
    }

    #[test]
    fn an_independent_label_passes_the_sequence_through() {
        // Tree p2 (writes z) → p3 (writes x). p2 is independent of all
        // of [p1 writes x], which passes through unchanged and lands
        // beside the conflicting p3.
        let mut tree = WakeupTree::default();
        tree.seed(2, step(2, 0, 0b100).foot);
        tree.edges[0].sub.seed(3, step(3, 0, 0b001).foot);
        let mut v = vec![step(1, 0, 0b001)];
        assert!(tree.insert(&mut v));
        assert_eq!(
            preorder(&tree),
            vec![
                (0, 2, step(2, 0, 0b100).foot),
                (1, 3, step(3, 0, 0b001).foot),
                (1, 1, step(1, 0, 0b001).foot),
            ]
        );
    }

    #[test]
    fn a_sequence_outliving_a_branch_is_subsumed() {
        // After descending p0's (leaf) edge, steps remain: the branch's
        // own exploration covers them, so nothing is inserted.
        let mut tree = WakeupTree::default();
        tree.seed(0, step(0, 0, 0b01).foot);
        let mut v = vec![step(0, 0, 0b01), step(1, 0b01, 0)];
        assert!(!tree.insert(&mut v));
        assert_eq!(preorder(&tree), vec![(0, 0, step(0, 0, 0b01).foot)]);
        // A sequence consumed entirely is subsumed as well.
        let mut v = vec![step(0, 0, 0b01)];
        assert!(!tree.insert(&mut v));
        assert_eq!(preorder(&tree).len(), 1);
    }

    #[test]
    fn appended_chains_keep_labels_unique_in_arrival_order() {
        // Three reversals, all conflicting with the existing p0 branch
        // on x and headed by distinct processes that are not initials
        // of anything below: each becomes a fresh chain, appended after
        // the older siblings.
        let mut tree = WakeupTree::default();
        tree.seed(0, step(0, 0, 0b01).foot);
        for (head, tail) in [(1, 3), (2, 1), (3, 2)] {
            let mut v = vec![step(head, 0, 0b01), step(tail, 0b01, 0)];
            assert!(tree.insert(&mut v));
        }
        let labels: Vec<u8> = tree.edges.iter().map(|e| e.proc).collect();
        assert_eq!(labels, vec![0, 1, 2, 3]);
        let tails: Vec<Vec<u8>> = tree.edges[1..]
            .iter()
            .map(|e| e.sub.edges.iter().map(|s| s.proc).collect())
            .collect();
        assert_eq!(tails, vec![vec![3], vec![1], vec![2]]);
        // A repeat of an existing chain's head process is consumed by
        // that chain, never appended beside it.
        let mut v = vec![step(2, 0, 0b01), step(0, 0b01, 0)];
        assert!(!tree.insert(&mut v), "p2's chain covers it");
        let labels: Vec<u8> = tree.edges.iter().map(|e| e.proc).collect();
        assert_eq!(labels, vec![0, 1, 2, 3]);
    }

    #[test]
    fn in_place_insertion_matches_the_owned_insertion() {
        let mut s = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move |bound: u64| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % bound
        };
        let (mut inserted, mut subsumed) = (0, 0);
        for _ in 0..200 {
            let (mut tree, mut oracle) = (WakeupTree::default(), WakeupTree::default());
            let mut buffer = Vec::new();
            for _ in 0..12 {
                let len = 1 + next(5) as usize;
                let v: Vec<WakeupStep> = (0..len)
                    .map(|_| {
                        let mut foot = step(next(4) as u8, next(4), next(4)).foot;
                        foot.ends = next(5) == 0;
                        foot.begins = next(5) == 0;
                        WakeupStep {
                            proc: next(4) as u8,
                            foot,
                        }
                    })
                    .collect();
                buffer.clear();
                buffer.extend_from_slice(&v);
                let got = tree.insert(&mut buffer);
                assert_eq!(got, insert_owned(&mut oracle, v, false));
                assert_eq!(preorder(&tree), preorder(&oracle));
                if got {
                    inserted += 1;
                } else {
                    subsumed += 1;
                }
            }
        }
        assert!(inserted > 100 && subsumed > 100, "{inserted} / {subsumed}");
    }
}

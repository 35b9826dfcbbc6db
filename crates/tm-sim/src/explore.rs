//! Bounded-exhaustive interleaving exploration (the model checker).
//!
//! Theorem 3 claims **every** finite history of `Fgp` is opaque. For an
//! automaton-level ∀-claim the executable analogue is bounded-exhaustive
//! checking: enumerate *all* schedules of `n` deterministic clients up to
//! a depth and verify every produced history. Acceptance uses the fast
//! commit-order certifier and falls back to the exact witness search on
//! rejection, so every reported violation is definitive.
//!
//! # Prefix-sharing DFS
//!
//! Schedules of length `d` over `n` processes form the complete `n`-ary
//! tree of depth `d`; two schedules with a common prefix reach the *same*
//! intermediate state. The explorer therefore walks that tree depth-first
//! and extends the parent state by **one step per edge** instead of
//! replaying each of the `n^d` schedules from scratch:
//!
//! * the TM branches via [`tm_stm::SteppedTm::fork`] (all but a node's
//!   last child fork; the last child consumes the parent's instance, so a
//!   binary tree performs about one fork per node, not two);
//! * the client that stepped backtracks via an O(1)
//!   [`Client::mark`]/[`Client::restore`] snapshot;
//! * the commit-order certifier advances one event at a time and unwinds
//!   through [`IncrementalChecker::rollback`], so a rejection latches at
//!   the **shortest failing prefix** of the branch (reported per
//!   violation in [`Violation::fast_reject_at`]).
//!
//! Per-edge cost is thereby amortized O(1) TM/client/certifier work plus
//! one TM fork, versus the naive enumerator's O(depth) replay and
//! O(history) re-certification per schedule — the asymptotic gap grows
//! linearly with depth. The naive enumerator survives as
//! [`explore_schedules_naive`] for differential testing; both explorers
//! produce *identical* [`Exploration`] reports (same schedule counts,
//! fallback counts and violation lists, in the same lexicographic
//! order).
//!
//! # Parallel frontier
//!
//! With [`ExploreConfig::parallel`], the tree is split at a fixed depth:
//! every node at that depth becomes a subtree root carrying its own
//! forked TM, client snapshots and a compacted clone of the certifier,
//! and the roots are distributed over a thread pool (dynamic dealing —
//! idle workers claim the next root, so skewed subtrees balance). Roots
//! are processed in lexicographic order and merged in order, keeping the
//! report deterministic regardless of thread count.
//!
//! # Sleep-set pruning
//!
//! With [`ExploreConfig::sleep_sets`], schedules that differ only by
//! swapping adjacent **independent** steps are explored once. Two steps
//! are treated as independent exactly when both are operation steps
//! (read or write) by different processes on **different t-variables**
//! *and* the TM has opted into
//! [`tm_stm::SteppedTm::disjoint_var_ops_commute`] — an audited,
//! per-algorithm contract that such steps map TM states to the same
//! state in either order with the same responses. For TMs that keep
//! the conservative default (the blocking global-lock TM acquires the
//! lock on its first operation; SwissTM draws a fresh global
//! begin-timestamp), the explorer silently disables pruning instead of
//! risking a false certification. The remaining soundness argument:
//!
//! * `tryC` steps mutate global state (clocks, committed values,
//!   dooming) and are never classified independent;
//! * poll steps of blocking TMs depend on the global lock state and are
//!   likewise never independent;
//! * client state is per-process, so steps of different processes
//!   commute trivially;
//! * the certifier's verdict is invariant under swapping adjacent events
//!   of different processes on different variables when no commit
//!   intervenes (candidate slots are pruned per-variable against a
//!   committed-state sequence that only `tryC` extends).
//!
//! Swapping adjacent independent steps therefore maps each pruned
//! schedule to an explored one with an identical safety verdict: the
//! pruned exploration reports a violation iff the full exploration does.
//! Pruning changes the *number* of schedules visited (that is its
//! point), so differential tests comparing counts run with it disabled;
//! a separate test checks verdict equivalence with it enabled.
//!
//! # Digest dedup: collapsing the tree into a DAG
//!
//! Distinct schedule prefixes routinely reach the *same* configuration —
//! the same TM state, client cursors and certifier state (permuting two
//! processes' already-certified steps is the canonical case). The subtree
//! below such a configuration depends on nothing else, so with
//! [`ExploreConfig::dedup`] the explorer keys a seen set on
//!
//! `(TM state digest, client cursors, certifier digest, sleep set,
//!   remaining depth)`
//!
//! and, on a hit, *replays the memoized subtree summary* (schedule and
//! pruned-subtree counts) instead of walking the subtree again — turning
//! the schedule tree into a DAG. TM digests come from the per-algorithm
//! [`tm_stm::SteppedTm::state_digest`] canonicalization contract;
//! certifier digests from
//! [`tm_safety::IncrementalChecker::state_digest`]. For TMs without a
//! fingerprint the option silently disables (mirroring sleep sets).
//!
//! Two rules keep the reports **byte-identical** to the exhaustive
//! explorer's (differential-tested across the catalogue):
//!
//! * a subtree is memoized only when it certified *silently* — no
//!   violations and no exact-checker fallbacks. Those rare subtrees
//!   carry path-dependent report data (violation schedules/histories,
//!   exact re-checks of the full history), so every prefix re-explores
//!   them and reports its own copy;
//! * no lookup happens while a fast-certifier rejection is latched (all
//!   leaves below it fall back to the exact checker).
//!
//! Equal keys imply equal futures: the TM digest determines every future
//! response (the fingerprint contract), cursors determine every future
//! invocation, and the certifier digest determines every future verdict —
//! so the memoized counts transfer exactly, collision risk aside (which
//! is what the differential suite guards).
//!
//! # Source-set DPOR: equivalence-class pruning
//!
//! Most interleavings differ only by swaps of **independent** steps and
//! therefore carry the same verdict; the paper's quantitative results
//! are themselves stated per Mazurkiewicz equivalence class. With
//! [`ExploreConfig::dpor`] the explorer visits **one representative
//! schedule per class** instead of every member, using source-set
//! dynamic partial-order reduction (Flanagan–Godefroid backtrack sets
//! with Abdulla–Aronis–Jonsson–Sagonas source sets and sleep sets).
//!
//! **The independence relation.** Per-TM, via the conflict oracle
//! [`tm_stm::SteppedTm::step_footprint`]: before a step executes, the TM
//! declares the shared state it may touch — per-variable read/write
//! masks (including read-set revalidation and abort-time rollback or
//! lock-release sets), global-channel read/write bits (clocks, sequence
//! numbers, age counters, cross-process dooming), and whether the step
//! may complete a transaction now; the driver adds whether it begins
//! one. Two next-steps by different processes are independent iff their
//! footprints do not [`tm_stm::StepFootprint::conflicts`]. The oracle's
//! audited contract is that independent steps *commute*: either order
//! yields the same TM state and responses. The begin/end flags extend
//! commutation from states to **verdicts**: a swap of two interior op
//! steps preserves per-process event sequences, read values, and every
//! transaction's real-time precedence, so the opacity verdict of each
//! leaf history — and of every extension — is class-invariant. (A
//! transaction-*ending* step swapped with a transaction-*beginning* one
//! would reorder a completion past a start and could relax real-time
//! precedence, so such pairs are declared conflicting.) TMs that keep
//! the conservative default oracle conflict on every pair and soundly
//! degenerate to full exploration — the blocking global-lock TM does so
//! by audit, not by default.
//!
//! **The walk.** Each executed schedule carries vector clocks over the
//! conflict relation. At every node — leaves included, since at the
//! depth frontier the racing "second" step never executes — the walk
//! checks each process's next step against the trace for *races*:
//! conflicting earlier steps not already ordered before it. For each
//! race the walk ensures the backtrack set at the earlier step's node
//! intersects the race's **source set** (the initials of the reversed
//! continuation), inserting one member if not; each node then explores
//! exactly its backtrack set, seeded with a single process, under
//! SDPOR sleep sets. Soundness of the certified verdict: every schedule
//! of the full tree is reachable from an explored one by swapping
//! adjacent independent steps, each swap preserves the leaf verdict
//! (above), and the incremental certifier never accepts a violating
//! history — so `all_opaque` is preserved exactly, and every violation
//! DPOR reports is one the unreduced explorer reports verbatim.
//!
//! **Composition.** With [`ExploreConfig::dedup`], a source-set walk's
//! memoized subtree summary additionally stores the union of every
//! footprint the subtree queried or executed; a hit is replayed only
//! when nothing in the current trace conflicts with that union —
//! otherwise the skipped walk could owe race-reversal backtrack points
//! to the prefix. (Subtree *shape* is prefix-independent: race
//! insertions into the subtree depend only on its own trace, because
//! trace indices put subtree steps after every prefix step in the
//! max-scan and happens-before chains between subtree events cannot
//! route through the prefix.) The optimal walk below keeps no memo. With
//! [`ExploreConfig::parallel`], the prefix tree up to the split depth is
//! enumerated exhaustively — a reduced prefix tree could owe reversals
//! across the boundary — and each root runs an independent source-set
//! walk from a fresh trace.
//!
//! # Optimal DPOR: wakeup trees
//!
//! Source sets still waste work: a backtrack process inserted by race
//! detection can be put to sleep by a *later*-explored sibling, and the
//! classic formulation only discovers that after starting the branch and
//! abandoning it (counted by `sleep_blocked_executions`). With
//! [`ExploreConfig::optimal_dpor`] each node instead carries a **wakeup
//! tree** (Abdulla–Aronis–Jonsson–Sagonas): an ordered tree of full
//! race-reversal *sequences*, inserted under a weak-initial sleep guard
//! and walked verbatim — the walk pops the first edge, executes it, and
//! hands the edge's subtree to the child, seeding a fresh branch only at
//! nodes whose tree is exhausted. The payoff is the optimality property:
//! the walk **never starts a schedule it abandons as redundant**
//! (`sleep_blocked_executions` is pinned at exactly zero by the
//! differential suite), and executes at most as many schedules as
//! source-set mode — strictly fewer from three processes up (169 vs 330
//! at 3 processes, depth 8, on the bench workload). At two processes the
//! counts coincide: every race there has a single initial, so sleep sets
//! alone already achieve one schedule per class.
//!
//! Two honest caveats, both consequences of measuring against *this*
//! engine rather than the paper's abstract setting. First, the classic
//! optimality theorem ("exactly one execution per Mazurkiewicz class")
//! assumes a static independence relation; our footprints are
//! state-dependent, so an inserted reversal can lose its justifying
//! conflict by the time it is replayed and is then dropped, asleep, at
//! pop time (see `engine::reduction`'s module docs) — executed schedules
//! stay
//! pairwise inequivalent (asserted via [`schedule_normal_form`]), but
//! the class count from [`mazurkiewicz_classes`] is a ceiling, not an
//! equality, at the bounded-depth frontier. Second, the walk keeps no
//! memo: [`ExploreConfig::dedup`] is ignored under optimal DPOR. Two
//! nodes share a memoized summary only if they owe the same pending
//! reversals, and that never happened (0 hits in 926,530 probes on the
//! explorer benchmark, whose shipped configuration asks for dedup);
//! keying on the configuration alone would need the race information
//! to survive a hit, i.e. stateful DPOR. Since a hit only ever replayed
//! counts, dropping the memo changes no schedule, violation or
//! fallback. The parallel frontier enumerates the prefix tree
//! exhaustively and runs an independent wakeup-tree walk per root, as
//! in source mode, so reports stay deterministic and byte-identical
//! across thread counts.
//!
//! # The exploration kernel
//!
//! This explorer is one of two instantiations of the shared search
//! kernel in [`crate::engine`] (the other is the liveness checker,
//! [`mod@crate::livecheck`]): its `ScheduleSpace` implements the kernel's
//! [`SearchSpace`] contract (one stepper, client mark/restore, certifier
//! checkpoint/rollback, canonical configuration keys), TM branching runs
//! through the shared [`tm_stm::TmPool`], the seen sets are the kernel's
//! [`crate::engine::memo`] backends (worker-local or the 64-way
//! lock-striped shared table), the DPOR/sleep-set state lives in the
//! kernel's reduction layer, and the parallel frontier merges subtree
//! reports deterministically via [`crate::engine::frontier::distribute`].

use std::sync::Arc;

use tm_core::{Event, History, ProcessId};
use tm_safety::{check_opacity, Checkpoint, IncrementalChecker, Mode, SafetyVerdict};
use tm_stm::{BoxedTm, Outcome, StepFootprint, SteppedTm, TmPool};
use tm_telemetry::{Counter, Json, Telemetry, Timer};

use crate::engine::budget::{Budget, BudgetMeter};
use crate::engine::frontier;
use crate::engine::memo::{SeenSet, StripedTable};
use crate::engine::reduction::{self, Dpor, Feet, OptimalDpor, WakeupTree};
use crate::engine::space::{
    emit_trace, expand_child, step_process, SearchSpace, StepRecord, TraceWitness,
};
use crate::faults::{Fault, FaultConfig, FaultPlan, FaultState};
use crate::workload::{clients_digest, Client, ClientMark, ClientScript};

/// A definitive safety violation found during exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The schedule (process per step) that produced the history.
    pub schedule: Vec<ProcessId>,
    /// The offending history.
    pub history: History,
    /// Why it is not opaque.
    pub detail: String,
    /// Index of the event at which the commit-order certifier first
    /// rejected — the shortest failing prefix of this schedule's branch.
    pub fast_reject_at: usize,
    /// The concrete fault placements of this branch (`at_step` indexes
    /// into `schedule`, which carries process steps only). Empty for a
    /// fault-free run.
    pub faults: FaultPlan,
}

/// Outcome of an exploration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Exploration {
    /// Complete schedules replayed (leaves visited).
    pub schedules: usize,
    /// Histories that needed the exact checker (fast path rejected).
    pub exact_fallbacks: usize,
    /// Definitive opacity violations, in schedule-lexicographic order.
    pub violations: Vec<Violation>,
    /// Subtrees skipped by sleep-set pruning (0 unless enabled).
    pub pruned_subtrees: usize,
    /// Subtrees replayed from the digest seen set (0 unless enabled).
    pub dedup_hits: usize,
    /// Every executed schedule (process index per step), in exploration
    /// order. Populated only under
    /// [`ExploreConfig::with_schedule_log`] — an oracle/debugging aid
    /// for the optimality tests, empty otherwise.
    pub schedule_log: Vec<Vec<u8>>,
    /// `Some(reason)` when the run degraded into a **partial** report —
    /// an exploration [`Budget`] cap tripped or a frontier worker
    /// panicked. A partial report is a sound under-approximation: every
    /// violation it carries is real, but [`Exploration::all_opaque`] is
    /// *not* a certification (the unexplored remainder may violate).
    pub exhausted: Option<String>,
    /// Processes a `crash(p)` transition was exercised for (bitmask; 0
    /// for a fault-free run).
    pub crash_injected: u64,
    /// Processes a `parasite(p)` transition was exercised for (bitmask).
    pub parasite_injected: u64,
}

impl Exploration {
    /// Whether every explored history was opaque.
    pub fn all_opaque(&self) -> bool {
        self.violations.is_empty()
    }

    /// The *report* portion of the exploration — schedule count, exact
    /// fallback count and violations. Search diagnostics (pruned-subtree
    /// and dedup-hit counts) are excluded: two explorations "report
    /// identically" iff these match.
    pub fn report(&self) -> (usize, usize, &[Violation]) {
        (self.schedules, self.exact_fallbacks, &self.violations)
    }

    fn absorb(&mut self, other: Exploration) {
        self.schedules += other.schedules;
        self.exact_fallbacks += other.exact_fallbacks;
        self.violations.extend(other.violations);
        self.pruned_subtrees += other.pruned_subtrees;
        self.dedup_hits += other.dedup_hits;
        self.schedule_log.extend(other.schedule_log);
        if self.exhausted.is_none() {
            self.exhausted = other.exhausted;
        }
        self.crash_injected |= other.crash_injected;
        self.parasite_injected |= other.parasite_injected;
    }
}

/// Configuration for [`explore_with`].
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Schedule length to explore exhaustively.
    pub depth: usize,
    /// Distribute subtrees over a thread pool.
    pub parallel: bool,
    /// Prefix length at which the tree is split into parallel subtree
    /// roots; `None` picks the smallest prefix yielding at least eight
    /// roots per worker thread.
    pub split_depth: Option<usize>,
    /// Skip schedules differing only by swaps of adjacent independent
    /// steps (see the module docs for the soundness argument). Changes
    /// `schedules` counts, never verdicts. Takes effect only for TMs
    /// whose [`tm_stm::SteppedTm::disjoint_var_ops_commute`] contract
    /// holds; for the rest pruning is silently disabled.
    pub sleep_sets: bool,
    /// Collapse the schedule tree into a DAG via the digest seen set
    /// (see the module docs). Reports stay byte-identical; `schedules`
    /// still counts every leaf of the full tree. Takes effect only for
    /// TMs implementing [`tm_stm::SteppedTm::state_digest`]; for the
    /// rest dedup is silently disabled. Also disabled under
    /// `optimal_dpor`, whose walk keeps no memo (a summary keyed on the
    /// pending wakeup tree never transferred; see the module docs) —
    /// the report and schedules are those of the walk without dedup.
    pub dedup: bool,
    /// Source-set dynamic partial-order reduction (see the module docs):
    /// explore **one representative schedule per Mazurkiewicz
    /// equivalence class** of the independence relation declared by the
    /// TM's conflict oracle ([`tm_stm::SteppedTm::step_footprint`]).
    /// `schedules` then counts *executed* schedules — typically orders
    /// of magnitude below `n^depth` — while the violation verdict
    /// (`all_opaque`, and every violation actually reported) is
    /// preserved: each reported violation is a real explored schedule
    /// the unreduced explorer also reports. For TMs that keep the
    /// conservative default oracle, every step conflicts and the walk
    /// soundly degenerates to full exploration.
    pub dpor: bool,
    /// Optimal DPOR (see the module docs): replace `dpor`'s flat
    /// backtrack sets with **wakeup trees** — ordered trees of full
    /// race-reversal sequences, inserted under a weak-initial sleep
    /// guard. Same coverage and verdict guarantees as `dpor` (every
    /// reported violation is a real schedule the unreduced explorer also
    /// reports), but strictly fewer or equal executed schedules and —
    /// the optimality property — **zero sleep-blocked executions**: the
    /// walk never starts a schedule it abandons as redundant. Implies
    /// the `dpor` machinery; for TMs with the conservative default
    /// oracle it likewise degenerates to full exploration.
    pub optimal_dpor: bool,
    /// Record every executed schedule into
    /// [`Exploration::schedule_log`]. Disables digest dedup for the run
    /// (a replayed subtree summary cannot reproduce its schedules).
    pub record_schedules: bool,
    /// Share one sharded, lock-striped digest seen set across the
    /// parallel workers instead of per-worker tables: adds
    /// cross-subtree dedup hits at the price of lock traffic. Reports
    /// are byte-identical either way (memoized summaries are exact
    /// wherever they were computed); the per-worker default is kept
    /// because its diagnostics (`dedup_hits`) are run-to-run
    /// deterministic. No effect unless `dedup` and `parallel` are on.
    pub shared_dedup: bool,
    /// Fault quantification (see the module docs): with a non-trivial
    /// config, `crash(p)` / `parasite(p)` become scheduler-level
    /// transitions of the search, exhaustively explored like any process
    /// step. Each fault transition consumes one depth unit and leaves
    /// the TM untouched; every reported [`Violation`] carries the
    /// concrete [`FaultPlan`] its branch chose. With
    /// [`FaultConfig::none()`] (the default) reports are byte-identical
    /// to fault-free exploration.
    pub faults: FaultConfig,
    /// Resource caps ([`Budget`]): when a cap trips, the walk unwinds
    /// and the run returns a *partial* report with
    /// [`Exploration::exhausted`] set instead of running unbounded.
    /// Unlimited by default.
    pub budget: Budget,
    /// Observability handle (off by default — hooks are no-ops). The
    /// counters it accumulates are deterministic at any thread count;
    /// see the `tm_telemetry` module docs for the schema and contract.
    pub telemetry: Telemetry,
}

impl ExploreConfig {
    /// Exhaustive exploration to `depth`: parallel, no pruning — the
    /// drop-in semantics of [`explore_schedules`].
    pub fn new(depth: usize) -> Self {
        ExploreConfig {
            depth,
            parallel: true,
            split_depth: None,
            sleep_sets: false,
            dedup: false,
            dpor: false,
            optimal_dpor: false,
            record_schedules: false,
            shared_dedup: false,
            faults: FaultConfig::none(),
            budget: Budget::unlimited(),
            telemetry: Telemetry::off(),
        }
    }

    /// Disables the parallel frontier.
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Enables sleep-set pruning.
    pub fn with_sleep_sets(mut self) -> Self {
        self.sleep_sets = true;
        self
    }

    /// Pins the parallel split depth.
    pub fn with_split_depth(mut self, split: usize) -> Self {
        self.split_depth = Some(split);
        self
    }

    /// Enables digest dedup (the cross-schedule seen set). No effect
    /// under optimal DPOR ([`ExploreConfig::dedup`]).
    pub fn with_dedup(mut self) -> Self {
        self.dedup = true;
        self
    }

    /// Enables source-set dynamic partial-order reduction.
    pub fn with_dpor(mut self) -> Self {
        self.dpor = true;
        self
    }

    /// Enables optimal DPOR (wakeup trees + sleep-set-aware scheduling).
    pub fn with_optimal_dpor(mut self) -> Self {
        self.optimal_dpor = true;
        self
    }

    /// Records executed schedules into [`Exploration::schedule_log`].
    pub fn with_schedule_log(mut self) -> Self {
        self.record_schedules = true;
        self
    }

    /// Shares the digest seen set across parallel workers (sharded).
    pub fn with_shared_dedup(mut self) -> Self {
        self.shared_dedup = true;
        self
    }

    /// Quantifies over crash/parasitic faults ([`FaultConfig`]).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Caps the run's resources ([`Budget`]); a tripped cap yields a
    /// partial report with [`Exploration::exhausted`] set.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a telemetry handle (counters, phase spans and — when the
    /// handle streams — NDJSON progress events).
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self
    }
}

/// The safety explorer's instantiation of the kernel's [`SearchSpace`]:
/// a schedule-tree configuration — client cursors, the schedule path,
/// the growing history, and the incremental opacity certifier whose
/// verdict latches on rejection. The TM itself is threaded through the
/// walk separately (ownership moves along tree edges).
struct ScheduleSpace {
    clients: Vec<Client>,
    path: Vec<usize>,
    history: Vec<Event>,
    checker: IncrementalChecker,
    telemetry: Telemetry,
    /// Steps this space executed — a plain worker-local tally, flushed
    /// once per walk as [`tm_telemetry::Counter::WorkerSteps`].
    steps: u64,
    /// Record executed schedules at the leaves
    /// ([`ExploreConfig::record_schedules`]).
    log_schedules: bool,
    /// Crash/parasitic masks of the current branch. Mutated only along
    /// fault edges (saved/restored by the walker, not via [`Self::Mark`]
    /// — process steps never touch it).
    fstate: FaultState,
    /// The fault transitions taken along the current branch, in order —
    /// the concrete [`FaultPlan`] a violation on this branch reports.
    fault_log: Vec<Fault>,
}

/// Everything one [`ScheduleSpace`] step mutates, for O(1) backtrack.
struct ScheduleMark {
    checkpoint: Checkpoint,
    history_len: usize,
    client: ClientMark,
}

impl ScheduleSpace {
    fn new(
        scripts: &[ClientScript],
        depth: usize,
        telemetry: Telemetry,
        log_schedules: bool,
    ) -> Self {
        ScheduleSpace {
            clients: scripts.iter().cloned().map(Client::new).collect(),
            path: Vec::with_capacity(depth),
            history: Vec::with_capacity(depth * 2),
            checker: IncrementalChecker::new(Mode::Opacity),
            telemetry,
            steps: 0,
            log_schedules,
            fstate: FaultState::none(),
            fault_log: Vec::new(),
        }
    }

    /// A self-contained copy for a parallel subtree root, with the
    /// certifier's undo log compacted away (roots never unwind past
    /// their own split point).
    fn subtree_root(&self) -> Self {
        let mut checker = self.checker.clone();
        checker.compact();
        ScheduleSpace {
            clients: self.clients.clone(),
            path: self.path.clone(),
            history: self.history.clone(),
            checker,
            telemetry: self.telemetry.clone(),
            steps: 0,
            log_schedules: self.log_schedules,
            fstate: self.fstate,
            fault_log: self.fault_log.clone(),
        }
    }
}

impl SearchSpace for ScheduleSpace {
    type Mark = ScheduleMark;

    fn width(&self) -> usize {
        self.clients.len()
    }

    fn mark(&mut self, k: usize) -> ScheduleMark {
        ScheduleMark {
            checkpoint: self.checker.checkpoint(),
            history_len: self.history.len(),
            client: self.clients[k].mark(),
        }
    }

    fn step(&mut self, tm: &mut BoxedTm, k: usize) -> StepRecord {
        self.steps += 1;
        let started = self.telemetry.timer_start();
        self.path.push(k);
        let parasitic = self.fstate.parasitic & (1 << k) != 0;
        let record = step_process(tm, &mut self.clients, k, parasitic, &mut self.history);
        self.telemetry.timer_stop(Timer::Step, started);
        // Feed the certifier from the record; its verdict latches on
        // rejection, so pushes after a reject are deliberate no-ops.
        match record {
            StepRecord::Polled(Some(resp)) => {
                let _ = self.checker.push(Event::response(ProcessId(k), resp));
            }
            StepRecord::Polled(None) => {}
            StepRecord::Call(inv, resp) => {
                // Fused invocation+response certification: one record
                // lookup and one undo entry, observationally identical
                // to two `push` calls.
                let _ = self.checker.push_call(ProcessId(k), inv, resp);
            }
            StepRecord::Withheld(inv) => {
                let _ = self.checker.push(Event::invocation(ProcessId(k), inv));
            }
        }
        record
    }

    fn rewind(&mut self, k: usize, mark: ScheduleMark) {
        self.path.pop();
        self.history.truncate(mark.history_len);
        self.checker.rollback(mark.checkpoint);
        self.clients[k].restore(mark.client);
    }

    fn config_key(&self, tm: &BoxedTm) -> Option<(u64, u64)> {
        tm.state_digest()
            .map(|d| (d, clients_digest(&self.clients)))
    }
}

/// Certify a completed schedule exactly as the naive enumerator does:
/// count it, and when the (latched) fast certifier rejected somewhere on
/// this branch, fall back to the exact checker on the full history.
fn certify_leaf(space: &ScheduleSpace, out: &mut Exploration) {
    out.schedules += 1;
    if space.log_schedules {
        out.schedule_log
            .push(space.path.iter().map(|&k| k as u8).collect());
    }
    let Some(reject) = space.checker.violation() else {
        return;
    };
    let (path, history) = (&space.path, &space.history);
    out.exact_fallbacks += 1;
    let fast_reject_at = reject.position;
    let mut full = History::new();
    for &event in history {
        full.push(event);
    }
    match check_opacity(&full) {
        Ok(SafetyVerdict::Satisfied { .. }) => {}
        Ok(SafetyVerdict::Violated) => {
            out.violations.push(Violation {
                schedule: path.iter().copied().map(ProcessId).collect(),
                history: full,
                detail: "no legal sequential witness exists".to_string(),
                fast_reject_at,
                faults: FaultPlan::from_faults(space.fault_log.clone()),
            });
        }
        Err(e) => {
            out.violations.push(Violation {
                schedule: path.iter().copied().map(ProcessId).collect(),
                history: full,
                detail: format!("exact check infeasible: {e}"),
                fast_reject_at,
                faults: FaultPlan::from_faults(space.fault_log.clone()),
            });
        }
    }
}

/// Key of the digest seen set: one explored configuration of the search,
/// at one remaining depth (memoized subtree summaries only transfer
/// between identical residual searches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MemoKey {
    tm: u64,
    clients: u64,
    checker: u64,
    sleep: u64,
    remaining: u32,
    /// [`FaultState::key`] of the branch (0 in fault-free runs): a
    /// summary never transfers between distinct crash/parasitic masks —
    /// the residual searches differ in both branching and stepping.
    faults: u64,
}

/// The memoized summary of a silently-certified subtree.
#[derive(Debug, Clone, Copy)]
struct MemoDelta {
    schedules: usize,
    pruned_subtrees: usize,
    /// Union of every footprint the subtree queried or executed — the
    /// DPOR-mode replay guard (see the module docs). Unused (empty)
    /// without DPOR.
    agg: StepFootprint,
}

/// The digest seen set of one walk: the kernel's backend-agnostic table
/// (worker-local, or a handle onto the 64-way lock-striped shared table
/// behind [`ExploreConfig::shared_dedup`]).
type Memo = SeenSet<MemoKey, MemoDelta>;

/// The per-path mutable state of the depth-first walk. The TM is owned
/// and consumed per call (the last child of a node steals the parent's
/// instance); everything else unwinds in place through the
/// [`ScheduleSpace`] marks.
struct Walk<'a> {
    /// The kernel search space: clients, path, history, certifier.
    space: &'a mut ScheduleSpace,
    out: &'a mut Exploration,
    /// The shared fork/refork recycling pool ([`tm_stm::TmPool`]): left
    /// non-recycling for TMs without the `refork_from` fast path
    /// (probed once per exploration), so they pay no per-edge
    /// pop/refork-attempt overhead.
    pool: &'a mut TmPool,
    /// The digest seen set (disabled during the parallel split walk,
    /// whose "leaves" collect subtree roots rather than certifying).
    memo: &'a mut Memo,
    /// Worker-local telemetry tallies: plain integer increments on the
    /// hot path, one atomic add each at flush.
    tally: Tally,
    /// The run's fault quantification ([`ExploreConfig::faults`]).
    faults: FaultConfig,
    /// The run's shared budget meter: one atomic check per tree node,
    /// short-circuited to a load-free `true` when unlimited.
    meter: &'a BudgetMeter,
}

/// The per-walk telemetry tallies (see [`Walk::tally`]).
#[derive(Default)]
struct Tally {
    /// Seen-set lookups that did not replay a summary (true misses plus
    /// DPOR-mode hits blocked by the footprint replay guard).
    memo_misses: u64,
    /// Reversible races the source-set analysis detected.
    dpor_races: u64,
    /// Reversal sequences inserted into wakeup trees (optimal mode).
    wakeup_inserts: u64,
    /// Reversals proved covered and dropped (optimal mode): rejected at
    /// insertion by the weak-initial sleep guard, subsumed by a pending
    /// branch, or — because footprints are state-dependent — popped
    /// with an asleep head and discarded before executing anything.
    wakeup_redundant: u64,
    /// Executions the sleep discipline started and then abandoned:
    /// source mode's suppressed backtrack branches. Structurally zero
    /// in optimal mode — the wakeup-tree walk drops covered branches
    /// before their first step — which is the optimality property the
    /// differential suite pins.
    sleep_blocked: u64,
    /// Fault transitions (`crash(p)` / `parasite(p)`) the walk took.
    faults_injected: u64,
}

impl Tally {
    fn flush(&self, telemetry: &Telemetry) {
        telemetry.add(Counter::MemoMisses, self.memo_misses);
        telemetry.add(Counter::DporRaces, self.dpor_races);
        telemetry.add(Counter::WakeupInserts, self.wakeup_inserts);
        telemetry.add(Counter::WakeupRedundant, self.wakeup_redundant);
        telemetry.add(Counter::SleepBlockedExecutions, self.sleep_blocked);
        telemetry.add(Counter::FaultsInjected, self.faults_injected);
    }
}

/// Depth-first walk of the schedule tree below the current path,
/// invoking `leaf` at depth `remaining == 0` with ownership of the TM.
/// Returns the TM box for recycling (`None` if a leaf kept it).
///
/// `sleep` is the sleep set: processes whose next step is provably
/// covered by an already-explored sibling subtree. When `sleep_sets` is
/// false it is always empty.
///
/// With faults enabled ([`Walk::faults`]) each node additionally
/// branches on every `crash(p)` / `parasite(p)` the config still allows:
/// fault edges consume one depth unit, leave the TM and the schedule
/// path untouched, and reset the child sleep set (their footprint is
/// conservatively global — no sibling subtree covers anything across a
/// fault). Crashed processes drop out of the eligible set, and the
/// [`FaultState`] masks fold into the memo key so summaries never leak
/// across fault placements. With `FaultConfig::none()` the node shape —
/// including which child consumes the parent's box — is exactly the
/// fault-free walk, which is what keeps those reports byte-identical.
fn walk_tree<L>(
    walk: &mut Walk<'_>,
    mut tm: BoxedTm,
    remaining: usize,
    mut sleep: u64,
    sleep_sets: bool,
    leaf: &mut L,
) -> Option<BoxedTm>
where
    L: FnMut(&mut Walk<'_>, BoxedTm, u64) -> Option<BoxedTm>,
{
    // Budget gate before any expansion: a tripped meter unwinds the
    // whole walk into a partial report ([`Exploration::exhausted`]).
    if !walk.meter.note_state() {
        return Some(tm);
    }
    if remaining == 0 {
        return leaf(walk, tm, sleep);
    }
    // Digest dedup: replay a memoized subtree summary, or note the entry
    // counters so this subtree can be memoized on the way out. No lookup
    // while a rejection is latched (every leaf below falls back to the
    // exact checker on the full, path-dependent history).
    let memo_note = if walk.memo.enabled() && walk.space.checker.violation().is_none() {
        let (tm_digest, clients) = walk
            .space
            .config_key(&tm)
            .expect("dedup runs only for fingerprinting TMs");
        let key = MemoKey {
            tm: tm_digest,
            clients,
            checker: walk.space.checker.state_digest(),
            sleep,
            remaining: remaining as u32,
            faults: walk.space.fstate.key(),
        };
        if let Some(delta) = walk.memo.get(&key) {
            walk.out.schedules += delta.schedules;
            walk.out.pruned_subtrees += delta.pruned_subtrees;
            walk.out.dedup_hits += 1;
            return Some(tm);
        }
        walk.tally.memo_misses += 1;
        Some((
            key,
            walk.out.schedules,
            walk.out.exact_fallbacks,
            walk.out.violations.len(),
            walk.out.pruned_subtrees,
        ))
    } else {
        None
    };
    let n = walk.space.width();
    walk.out.pruned_subtrees += sleep.count_ones() as usize;
    // Only materialize footprints when pruning is on: the array init is
    // measurable in the no-pruning hot path.
    let feet: Option<Feet> = if sleep_sets {
        Some(reduction::sleep_feet(&tm, &walk.space.clients))
    } else {
        None
    };
    // The fault transitions available at this node, in canonical order
    // (crashes ascending, then parasitic turns ascending) — empty in
    // fault-free runs, so the node shape below degenerates exactly to
    // the fault-free walk.
    let crashed = walk.space.fstate.crashed;
    let mut fault_edges: Vec<Fault> = Vec::new();
    if walk.faults.enabled() {
        let at_step = walk.space.path.len();
        for k in 0..n {
            if walk.space.fstate.can_crash(&walk.faults, k) {
                let process = ProcessId(k);
                fault_edges.push(Fault::Crash { process, at_step });
            }
        }
        for k in 0..n {
            if walk.space.fstate.can_parasite(&walk.faults, k) {
                let process = ProcessId(k);
                fault_edges.push(Fault::Parasitic { process, at_step });
            }
        }
    }
    let last = (0..n)
        .rev()
        .find(|k| sleep & (1 << k) == 0 && crashed & (1 << k) == 0)
        .expect("a live step is always possible");
    // With fault edges pending, every process child forks and the *last
    // fault edge* consumes the parent's box instead.
    let consume_last = fault_edges.is_empty();
    for k in 0..n {
        if sleep & (1 << k) != 0 || crashed & (1 << k) != 0 || (consume_last && k == last) {
            continue;
        }
        let mark = walk.space.mark(k);
        let (child, _) = expand_child(walk.space, walk.pool, &tm, k);
        let child_sleep = feet
            .as_ref()
            .map_or(0, |f| reduction::filtered_sleep(sleep, f, k, n));
        let recycled = walk_tree(walk, child, remaining - 1, child_sleep, sleep_sets, leaf);
        if let Some(recycled) = recycled {
            walk.pool.put_back(recycled);
        }
        walk.space.rewind(k, mark);
        sleep |= 1 << k;
    }
    let recycled = if consume_last {
        // The last child consumes the parent's TM instance: no fork.
        // (Deferring this edge's rollback to an ancestor is semantically
        // sound but measurably slower — it trades the undo log's tight
        // LIFO locality for large cold sweeps.)
        let mark = walk.space.mark(last);
        let child_sleep = feet
            .as_ref()
            .map_or(0, |f| reduction::filtered_sleep(sleep, f, last, n));
        walk.space.step(&mut tm, last);
        let recycled = walk_tree(walk, tm, remaining - 1, child_sleep, sleep_sets, leaf);
        walk.space.rewind(last, mark);
        recycled
    } else {
        // Fault branches. A fault edge mutates only the fault state and
        // the per-branch fault log: the TM is untouched (a crash is the
        // *absence* of future steps; a parasitic turn reroutes the
        // client at its next `tryC`), so the box forks unchanged. The
        // child sleep set resets to zero — the fault's footprint is
        // conservatively global.
        let count = fault_edges.len();
        let mut slot = Some(tm);
        for (i, fault) in fault_edges.into_iter().enumerate() {
            let saved = walk.space.fstate;
            let k = fault.process().0;
            match fault {
                Fault::Crash { .. } => {
                    walk.space.fstate.crash(k);
                    walk.out.crash_injected |= 1 << k;
                }
                Fault::Parasitic { .. } => {
                    walk.space.fstate.parasite(k);
                    walk.out.parasite_injected |= 1 << k;
                }
            }
            walk.tally.faults_injected += 1;
            walk.space.fault_log.push(fault);
            let is_last = i + 1 == count;
            let child = if is_last {
                slot.take().expect("the last fault edge consumes the box")
            } else {
                walk.pool
                    .fork_child(slot.as_ref().expect("box still owned"))
            };
            let recycled = walk_tree(walk, child, remaining - 1, 0, sleep_sets, leaf);
            if let Some(recycled) = recycled {
                if is_last {
                    slot = Some(recycled);
                } else {
                    walk.pool.put_back(recycled);
                }
            }
            walk.space.fault_log.pop();
            walk.space.fstate = saved;
        }
        slot
    };
    // Memoize only silently-certified subtrees: violations and exact
    // fallbacks carry path-dependent report data that must be recomputed
    // per prefix (see the module docs) — and never a subtree truncated
    // by a tripped budget (its summary would under-count on replay).
    if let Some((key, schedules, fallbacks, violations, pruned)) = memo_note {
        if walk.out.exact_fallbacks == fallbacks
            && walk.out.violations.len() == violations
            && walk.meter.within()
        {
            walk.memo.insert(
                key,
                MemoDelta {
                    schedules: walk.out.schedules - schedules,
                    pruned_subtrees: walk.out.pruned_subtrees - pruned,
                    agg: StepFootprint::local(),
                },
            );
        }
    }
    recycled
}

/// Source-set DPOR walk (see the module docs): at each node, explore
/// only the processes the race analysis proves necessary, starting from
/// one arbitrary representative. Returns the TM box for recycling and
/// the union of every footprint the subtree queried or executed (the
/// memo replay guard).
fn walk_dpor(
    walk: &mut Walk<'_>,
    dpor: &mut Dpor,
    tm: BoxedTm,
    remaining: usize,
    mut sleep: u64,
) -> (BoxedTm, StepFootprint) {
    if !walk.meter.note_state() {
        return (tm, StepFootprint::local());
    }
    let n = walk.space.width();
    let depth = dpor.steps.len();
    dpor.push_feet(&tm, &walk.space.clients);
    let mut agg = StepFootprint::local();
    for foot in dpor.node_feet(depth) {
        agg.merge(foot);
    }
    // Race detection at *every* node for *every* process's next step
    // (Flanagan–Godefroid style), leaves included: at the depth frontier
    // the conflicting "second" step never executes, so detection keyed
    // on executed steps alone would miss reversals that only differ in
    // the final steps of the bounded window.
    let started = walk.space.telemetry.timer_start();
    dpor.detect_node_races();
    walk.space.telemetry.timer_stop(Timer::DporRace, started);
    if remaining == 0 {
        certify_leaf(walk.space, walk.out);
        walk.meter.note_schedule();
        dpor.pop_feet();
        return (tm, agg);
    }
    // Digest dedup, DPOR flavour: a stored subtree summary may be
    // replayed only when nothing in the current trace conflicts with
    // anything the stored subtree touched — otherwise the skipped walk
    // could owe race-reversal backtrack points to the prefix (see the
    // module docs).
    let memo_note = if walk.memo.enabled() && walk.space.checker.violation().is_none() {
        let (tm_digest, clients) = walk
            .space
            .config_key(&tm)
            .expect("dedup runs only for fingerprinting TMs");
        let key = MemoKey {
            tm: tm_digest,
            clients,
            checker: walk.space.checker.state_digest(),
            sleep,
            remaining: remaining as u32,
            faults: walk.space.fstate.key(),
        };
        if let Some(delta) = walk.memo.get(&key) {
            if dpor.steps.iter().all(|s| !s.foot.conflicts(&delta.agg)) {
                walk.out.schedules += delta.schedules;
                walk.out.pruned_subtrees += delta.pruned_subtrees;
                walk.out.dedup_hits += 1;
                dpor.pop_feet();
                return (tm, delta.agg);
            }
        }
        walk.tally.memo_misses += 1;
        Some((
            key,
            walk.out.schedules,
            walk.out.exact_fallbacks,
            walk.out.violations.len(),
            walk.out.pruned_subtrees,
        ))
    } else {
        None
    };
    debug_assert_eq!(dpor.backtrack.len(), depth);
    dpor.backtrack.push(0);
    // Seed with the first process the sleep set does not prove covered;
    // race detection grows the set from there. A fully-asleep node is
    // entirely covered by explored siblings.
    if let Some(first) = (0..n).find(|q| sleep & (1 << q) == 0) {
        dpor.backtrack[depth] |= 1 << first;
    }
    let mut explored = 0u64;
    loop {
        let avail = dpor.backtrack[depth] & !sleep;
        if avail == 0 {
            break;
        }
        let k = avail.trailing_zeros() as usize;
        explored |= 1 << k;
        let mark = walk.space.mark(k);
        let (child, _) = expand_child(walk.space, walk.pool, &tm, k);
        let feet = dpor.node_feet(depth);
        let (foot, child_sleep) = (feet[k], reduction::inherited_sleep(feet, sleep, k));
        dpor.push(k, foot);
        let (recycled, child_agg) = walk_dpor(walk, dpor, child, remaining - 1, child_sleep);
        agg.merge(&child_agg);
        walk.pool.put_back(recycled);
        dpor.pop();
        walk.space.rewind(k, mark);
        sleep |= 1 << k; // explored: its subtree covers it for the siblings
    }
    // Backtrack bits the sleep set suppressed: branches race detection
    // demanded that never ran. Each is an execution classic sleep-set
    // DPOR starts and abandons as redundant — the waste wakeup trees
    // eliminate (optimal mode keeps this tally at exactly zero).
    dpor.blocked += u64::from((dpor.backtrack[depth] & !explored).count_ones());
    dpor.backtrack.pop();
    dpor.pop_feet();
    if let Some((key, schedules, fallbacks, violations, pruned)) = memo_note {
        if walk.out.exact_fallbacks == fallbacks
            && walk.out.violations.len() == violations
            && walk.meter.within()
        {
            walk.memo.insert(
                key,
                MemoDelta {
                    schedules: walk.out.schedules - schedules,
                    pruned_subtrees: walk.out.pruned_subtrees - pruned,
                    agg,
                },
            );
        }
    }
    (tm, agg)
}

/// Optimal-DPOR walk (see the module docs): at each node, explore
/// exactly the branches of its wakeup tree — full reversal sequences
/// race detection inserted, minus those the weak-initial sleep guard
/// proved covered — seeding one free representative only when the tree
/// is empty. `wut` is the pending subtree the parent's popped edge
/// handed down. Returns the TM box for recycling. Never consults the
/// memo (see [`ExploreConfig::dedup`]).
fn walk_optimal(
    walk: &mut Walk<'_>,
    opt: &mut OptimalDpor,
    tm: BoxedTm,
    remaining: usize,
    mut sleep: u64,
    wut: WakeupTree,
) -> BoxedTm {
    if !walk.meter.note_state() {
        return tm;
    }
    let n = walk.space.width();
    let depth = opt.core.steps.len();
    opt.core.push_feet(&tm, &walk.space.clients);
    // Race detection at every node for every process's next step, under
    // the same incremental rescan discipline as [`walk_dpor`]. Reversal
    // sequences insert into *ancestor* nodes' wakeup trees (this node's
    // own entry is pushed below, after detection).
    let started = walk.space.telemetry.timer_start();
    opt.detect_node_races();
    walk.space.telemetry.timer_stop(Timer::DporRace, started);
    if remaining == 0 {
        certify_leaf(walk.space, walk.out);
        walk.meter.note_schedule();
        opt.core.pop_feet();
        return tm;
    }
    opt.push_node(sleep, wut);
    // Free seeding: only a node no pending reversal targets picks an
    // arbitrary first representative. A node entered with a non-empty
    // pending tree explores exactly those branches.
    if opt.wut_is_empty(depth) {
        if let Some(first) = (0..n).find(|q| sleep & (1 << q) == 0) {
            let foot = opt.core.node_feet(depth)[first];
            opt.seed(depth, u8::try_from(first).expect("≤ 64 processes"), foot);
        }
    }
    while let Some(edge) = opt.pop_edge(depth) {
        let k = edge.proc as usize;
        if sleep & (1 << k) != 0 {
            // Late-detected redundancy. Footprints are state-dependent,
            // so a reversal inserted from one execution context can
            // carry a conflict (say, a `TryCommit` about to hit a
            // locked word) that has dissolved by the time the walk
            // replays the branch in the node's own context. Sleep
            // inheritance re-checks independence against the *actual*
            // footprints on this path, so an asleep head proves an
            // already-explored sibling subtree covers the whole branch,
            // sub-tree included. Drop it before executing anything: the
            // schedule never starts, so this is a redundant reversal,
            // not a sleep-blocked execution.
            opt.redundant += 1;
            continue;
        }
        let mark = walk.space.mark(k);
        let (child, _) = expand_child(walk.space, walk.pool, &tm, k);
        let feet = opt.core.node_feet(depth);
        let (foot, child_sleep) = (feet[k], reduction::inherited_sleep(feet, sleep, k));
        opt.core.push(k, foot);
        let recycled = walk_optimal(walk, opt, child, remaining - 1, child_sleep, edge.sub);
        walk.pool.put_back(recycled);
        opt.core.pop();
        walk.space.rewind(k, mark);
        opt.sleep_child(depth, k);
        sleep |= 1 << k;
    }
    opt.pop_node();
    tm
}

/// A node at the parallel split depth, carrying everything a worker
/// needs to explore its subtree independently.
struct SubtreeRoot {
    tm: BoxedTm,
    space: ScheduleSpace,
    sleep: u64,
}

/// Explores every schedule of length `config.depth` over `scripts.len()`
/// processes against TMs built by `factory` (called once; the tree
/// branches via [`tm_stm::SteppedTm::fork`]), checking opacity of every
/// produced history — and, because the certifier is incremental and
/// eager, of every prefix.
///
/// # Panics
///
/// Panics if `scripts` is empty, has more than 64 entries, or does not
/// match the factory's process count.
pub fn explore_with<F>(factory: F, scripts: &[ClientScript], config: &ExploreConfig) -> Exploration
where
    F: Fn() -> BoxedTm,
{
    let n = scripts.len();
    assert!(n > 0, "need at least one process");
    assert!(n <= 64, "sleep sets are a u64 bitmask");
    let tm = factory();
    assert_eq!(tm.process_count(), n, "factory must match scripts");
    let telemetry = config.telemetry.clone();
    let tm_name = tm.name();
    telemetry.event(
        "run_start",
        &[
            ("engine", Json::str("explore")),
            ("tm", Json::str(tm_name)),
            ("depth", Json::Int(config.depth as i64)),
            ("processes", Json::Int(n as i64)),
        ],
    );
    // Sleep sets are sound only for TMs whose disjoint-variable
    // operations provably commute (an audited, opt-in trait contract);
    // for the rest, pruning silently disables rather than risking a
    // false certification.
    let sleep_sets = config.sleep_sets && tm.disjoint_var_ops_commute();
    // Probe refork support once ([`TmPool::for_tm`]): TMs without it
    // keep the spare pool empty rather than paying a failed dynamic
    // refork per tree edge.
    let pool = TmPool::for_tm(&tm).instrument(&telemetry);
    // Digest dedup silently disables for TMs without a fingerprint,
    // mirroring the sleep-set probe above — and under schedule logging,
    // whose replayed summaries could not reproduce their schedules.
    let dedup = config.dedup && !config.record_schedules && tm.state_digest().is_some();
    // The run's budget meter, shared by every worker. Its verdict is
    // read once at the end: a tripped cap makes the report partial.
    let meter = BudgetMeter::new(config.budget);

    // Fault quantification routes DPOR requests to the exhaustive walk:
    // the only sound footprint for a `crash(p)` / `parasite(p)`
    // transition is the global one (a crash reshapes every process's
    // future), under which the race analysis would demand every
    // reversal anyway — so the kernel takes the honest exhaustive walk
    // instead of a vacuous reduction. Sleep sets stay on where the TM
    // admits them: fault edges are never pruned and clear the child
    // sleep set, so the pruning refines only process-step pairs.
    let fault_mode = config.faults.enabled();
    let out = if config.optimal_dpor && !fault_mode {
        // Optimal DPOR: wakeup trees over the same parallel-split
        // strategy as source sets below (exhaustive prefix tree, one
        // independent walk per root with a fresh trace).
        // The walk keeps no memo, so dedup is off for it (see
        // [`ExploreConfig::dedup`]).
        let n = scripts.len();
        explore_split(
            tm,
            pool,
            scripts,
            config,
            SplitMode {
                dedup: false,
                split_sleep_sets: false,
            },
            &meter,
            move |walk, tm, remaining, _sleep| {
                let mut opt = OptimalDpor::new(n);
                walk_optimal(walk, &mut opt, tm, remaining, 0, WakeupTree::default());
                walk.tally.dpor_races += opt.core.races;
                walk.tally.wakeup_inserts += opt.inserts;
                walk.tally.wakeup_redundant += opt.redundant;
                walk.tally.sleep_blocked += opt.blocked;
            },
        )
    } else if config.dpor && !fault_mode {
        // Source-set DPOR. Parallel: the prefix tree up to the split
        // depth is enumerated **exhaustively** (no sleep sets — a
        // reduced prefix tree could owe race reversals across the
        // boundary) and each root runs an independent source-set walk
        // with a fresh, empty trace; every full schedule then has its
        // exact prefix explored and a representative of its suffix class
        // explored from that exact state, which preserves the verdict.
        let n = scripts.len();
        explore_split(
            tm,
            pool,
            scripts,
            config,
            SplitMode {
                dedup,
                split_sleep_sets: false,
            },
            &meter,
            move |walk, tm, remaining, _sleep| {
                let mut dpor = Dpor::new(n);
                walk_dpor(walk, &mut dpor, tm, remaining, 0);
                walk.tally.dpor_races += dpor.races;
                walk.tally.sleep_blocked += dpor.blocked;
            },
        )
    } else {
        explore_split(
            tm,
            pool,
            scripts,
            config,
            SplitMode {
                dedup,
                split_sleep_sets: sleep_sets,
            },
            &meter,
            move |walk, tm, remaining, sleep| {
                walk_tree(
                    walk,
                    tm,
                    remaining,
                    sleep,
                    sleep_sets,
                    &mut |walk, tm, _sleep| {
                        certify_leaf(walk.space, walk.out);
                        walk.meter.note_schedule();
                        Some(tm)
                    },
                );
            },
        )
    };

    // The budget verdict, read once: any tripped cap (including a
    // panicked frontier worker, tripped externally by the split driver)
    // turns the report partial.
    let mut out = out;
    if out.exhausted.is_none() {
        out.exhausted = meter.exhausted().map(str::to_string);
    }

    // The deterministic end-of-run flush: every count below is a fixed
    // property of the search, so the snapshot is thread-count-invariant.
    // `SchedulesExecuted` is flushed from the report itself, making
    // "snapshot equals report" true by construction.
    telemetry.add(Counter::SchedulesExecuted, out.schedules as u64);
    let pruned = (n as u128)
        .checked_pow(config.depth as u32)
        .map_or(u64::MAX, |total| {
            u64::try_from(total.saturating_sub(out.schedules as u128)).unwrap_or(u64::MAX)
        });
    telemetry.add(Counter::SchedulesPruned, pruned);
    telemetry.add(Counter::MemoHits, out.dedup_hits as u64);
    telemetry.add(Counter::ExactFallbacks, out.exact_fallbacks as u64);
    telemetry.add(Counter::ViolationsFound, out.violations.len() as u64);
    telemetry.add(Counter::SleepSetBlocks, out.pruned_subtrees as u64);
    if telemetry.streams() {
        // One `fault_injected` event per distinct fault transition the
        // search exercised — a compact, deterministic digest of the
        // adversary moves this run quantified over.
        for k in 0..n {
            if out.crash_injected & (1 << k) != 0 {
                telemetry.event(
                    "fault_injected",
                    &[
                        ("engine", Json::str("explore")),
                        ("kind", Json::str("crash")),
                        ("process", Json::Int(k as i64)),
                    ],
                );
            }
        }
        for k in 0..n {
            if out.parasite_injected & (1 << k) != 0 {
                telemetry.event(
                    "fault_injected",
                    &[
                        ("engine", Json::str("explore")),
                        ("kind", Json::str("parasite")),
                        ("process", Json::Int(k as i64)),
                    ],
                );
            }
        }
        for (idx, v) in out.violations.iter().take(8).enumerate() {
            let mut fields = vec![
                ("engine", Json::str("explore")),
                (
                    "schedule",
                    Json::Arr(v.schedule.iter().map(|p| Json::Int(p.0 as i64)).collect()),
                ),
                ("detail", Json::str(v.detail.as_str())),
            ];
            if !v.faults.is_empty() {
                fields.push(("faults", v.faults.to_json()));
            }
            telemetry.event("violation", &fields);
            // The witness timeline: a deterministic replay of the
            // violating schedule from a fresh TM, one `trace` event per
            // violation, adjacent to it in the stream.
            emit_trace(
                &telemetry,
                &TraceWitness {
                    engine: "explore",
                    kind: "violation",
                    idx,
                    cycle_start: None,
                },
                factory(),
                scripts,
                0,
                &v.faults,
                &v.schedule,
            );
        }
        telemetry.heartbeat_now(
            "explore",
            &[
                (
                    "steps",
                    Json::Int(telemetry.value(Counter::WorkerSteps) as i64),
                ),
                ("schedules", Json::Int(out.schedules as i64)),
            ],
        );
        // Optimal mode pins its headline zero: `sleep_blocked_executions`
        // must appear in the snapshot event even though zero-valued
        // counters are normally elided — the zero is the claim.
        if config.optimal_dpor && !fault_mode {
            telemetry.emit_counters_pinned(tm_name, &[Counter::SleepBlockedExecutions]);
        } else {
            telemetry.emit_counters(tm_name);
        }
        // Partial runs carry no boolean headline: an exhausted search
        // proved nothing about the schedules it never reached, so the
        // verdict says `partial` + `reason` instead of `all_opaque`
        // (consumers render it as inconclusive).
        if let Some(reason) = &out.exhausted {
            telemetry.event(
                "budget_exhausted",
                &[
                    ("engine", Json::str("explore")),
                    ("reason", Json::str(reason.as_str())),
                ],
            );
            telemetry.event(
                "verdict",
                &[
                    ("engine", Json::str("explore")),
                    ("tm", Json::str(tm_name)),
                    ("partial", Json::Bool(true)),
                    ("reason", Json::str(reason.as_str())),
                    ("schedules", Json::Int(out.schedules as i64)),
                ],
            );
        } else {
            telemetry.event(
                "verdict",
                &[
                    ("engine", Json::str("explore")),
                    ("tm", Json::str(tm_name)),
                    ("all_opaque", Json::Bool(out.all_opaque())),
                    ("schedules", Json::Int(out.schedules as i64)),
                ],
            );
        }
    }
    out
}

/// Walker-variant switches threaded from [`explore_with`] into the
/// split driver: digest dedup (already resolved against the TM's
/// fingerprint support) and whether the split walk itself prunes with
/// sleep sets (sound only for the exhaustive walker — a reduced prefix
/// tree could owe race reversals across the split boundary).
#[derive(Clone, Copy)]
struct SplitMode {
    dedup: bool,
    split_sleep_sets: bool,
}

/// The shared driver behind both explorers: runs `walk_root` once from
/// the initial configuration (sequential / zero split), or splits the
/// tree at the parallel frontier — the split walk (with
/// `split_sleep_sets` pruning) collects subtree roots, `walk_root` runs
/// per root on the rayon pool, and the reports merge in lexicographic
/// root order, keeping the result deterministic regardless of thread
/// count.
fn explore_split<R>(
    tm: BoxedTm,
    mut pool: TmPool,
    scripts: &[ClientScript],
    config: &ExploreConfig,
    mode: SplitMode,
    meter: &BudgetMeter,
    walk_root: R,
) -> Exploration
where
    R: Fn(&mut Walk<'_>, BoxedTm, usize, u64) + Sync,
{
    let SplitMode {
        dedup,
        split_sleep_sets,
    } = mode;
    let n = scripts.len();
    let recycle = pool.recycles();
    let telemetry = config.telemetry.clone();
    // Crashing every process trivially halts the system, so the crash
    // budget is clamped to n-1: the adversary gains nothing beyond it
    // and the walk always has a live step to take.
    let faults = FaultConfig {
        max_crashes: config.faults.max_crashes.min(n.saturating_sub(1)),
        ..config.faults
    };
    let mut space = ScheduleSpace::new(
        scripts,
        config.depth,
        telemetry.clone(),
        config.record_schedules,
    );
    let mut out = Exploration::default();

    let split = if config.parallel {
        config
            .split_depth
            .unwrap_or_else(|| frontier::auto_split_depth(n, config.depth))
            .min(config.depth)
    } else {
        0
    };

    if !config.parallel || split == 0 {
        let mut memo = Memo::new(dedup);
        let tally = {
            let mut walk = Walk {
                space: &mut space,
                out: &mut out,
                pool: &mut pool,
                memo: &mut memo,
                tally: Tally::default(),
                faults,
                meter,
            };
            let _span = telemetry.phase("explore", "walk");
            walk_root(&mut walk, tm, config.depth, 0);
            walk.tally
        };
        tally.flush(&telemetry);
        telemetry.add(Counter::WorkerSteps, space.steps);
        return out;
    }

    let mut roots = Vec::new();
    {
        // The split walk's "leaves" collect subtree roots instead of
        // certifying, so its subtree summaries would be vacuous: dedup
        // stays off here and runs per worker below.
        let _span = telemetry.phase("explore", "split");
        let mut memo = Memo::new(false);
        let mut walk = Walk {
            space: &mut space,
            out: &mut out,
            pool: &mut pool,
            memo: &mut memo,
            tally: Tally::default(),
            faults,
            meter,
        };
        walk_tree(
            &mut walk,
            tm,
            split,
            0,
            split_sleep_sets,
            &mut |walk, tm, sleep| {
                roots.push(SubtreeRoot {
                    tm,
                    space: walk.space.subtree_root(),
                    sleep,
                });
                None
            },
        );
    }
    telemetry.add(Counter::WorkerSteps, space.steps);
    telemetry.add(Counter::FrontierSplits, 1);
    telemetry.add(Counter::FrontierItems, roots.len() as u64);
    // Per-worker seen sets by default: sound (digests are
    // thread-agnostic), deterministic, and lock-free; only cross-subtree
    // hits are forgone relative to the sequential walk. The opt-in
    // sharded shared table recovers those hits at stripe-lock cost.
    let shared = (dedup && config.shared_dedup).then(|| Arc::new(StripedTable::new()));
    let remaining = config.depth - split;
    let results = {
        let telemetry = &telemetry;
        let walk_root = &walk_root;
        let shared = &shared;
        let _span = telemetry.phase("explore", "walk");
        // Panic isolation: a worker that panics loses its subtree's
        // results but not the run — its slot comes back `None`, the
        // meter trips, and the merged report is explicitly partial.
        frontier::distribute_isolated(roots, move |mut root| {
            let mut sub = Exploration::default();
            let mut pool = TmPool::new(recycle).instrument(telemetry);
            let mut memo = match &shared {
                Some(table) => Memo::shared(Arc::clone(table)),
                None => Memo::new(dedup),
            };
            let tally = {
                let mut walk = Walk {
                    space: &mut root.space,
                    out: &mut sub,
                    pool: &mut pool,
                    memo: &mut memo,
                    tally: Tally::default(),
                    faults,
                    meter,
                };
                walk_root(&mut walk, root.tm, remaining, root.sleep);
                walk.tally
            };
            tally.flush(telemetry);
            telemetry.add(Counter::WorkerSteps, root.space.steps);
            telemetry.heartbeat("explore", || {
                let steps = telemetry.value(Counter::WorkerSteps);
                vec![
                    ("steps", Json::Int(steps as i64)),
                    (
                        "steps_per_sec",
                        Json::Num(steps as f64 / telemetry.elapsed_secs().max(1e-9)),
                    ),
                ]
            });
            sub
        })
    };
    for sub in results {
        match sub {
            Some(sub) => out.absorb(sub),
            None => meter.trip_external(),
        }
    }
    out
}

/// Explores every schedule of length `depth` over `scripts.len()`
/// processes: the drop-in entry point (prefix-sharing DFS, parallel
/// frontier, no pruning — reports are identical to the naive
/// enumerator's).
pub fn explore_schedules<F>(factory: F, scripts: &[ClientScript], depth: usize) -> Exploration
where
    F: Fn() -> BoxedTm,
{
    explore_with(factory, scripts, &ExploreConfig::new(depth))
}

/// The seed enumerator: replays every one of the `processes^depth`
/// schedules from scratch and certifies each complete history from event
/// zero. Quadratically wasteful — kept (not exported to the prelude) as
/// the differential-testing baseline for [`explore_with`].
pub fn explore_schedules_naive<F>(factory: F, scripts: &[ClientScript], depth: usize) -> Exploration
where
    F: Fn() -> BoxedTm,
{
    let n = scripts.len();
    assert!(n > 0, "need at least one process");
    let mut exploration = Exploration::default();
    let mut schedule = vec![0usize; depth];

    loop {
        // Replay this schedule.
        let mut tm = factory();
        assert_eq!(tm.process_count(), n, "factory must match scripts");
        let mut clients: Vec<Client> = scripts.iter().cloned().map(Client::new).collect();
        let mut history = History::new();
        for &k in &schedule {
            let p = ProcessId(k);
            if tm.has_pending(p) {
                if let Some(resp) = tm.poll(p) {
                    history.push(Event::response(p, resp));
                    clients[k].observe(resp);
                }
                continue;
            }
            let inv = clients[k].next_invocation();
            history.push(Event::invocation(p, inv));
            match tm.invoke(p, inv) {
                Outcome::Response(resp) => {
                    history.push(Event::response(p, resp));
                    clients[k].observe(resp);
                }
                Outcome::Pending => {}
            }
        }
        exploration.schedules += 1;

        // Certify; fall back to the exact checker on rejection.
        let mut fast = IncrementalChecker::new(Mode::Opacity);
        if let Err(reject) = fast.push_all(history.iter().copied()) {
            exploration.exact_fallbacks += 1;
            let fast_reject_at = reject.position;
            match check_opacity(&history) {
                Ok(SafetyVerdict::Satisfied { .. }) => {}
                Ok(SafetyVerdict::Violated) => {
                    exploration.violations.push(Violation {
                        schedule: schedule.iter().copied().map(ProcessId).collect(),
                        history: history.clone(),
                        detail: "no legal sequential witness exists".to_string(),
                        fast_reject_at,
                        faults: FaultPlan::none(),
                    });
                }
                Err(e) => {
                    exploration.violations.push(Violation {
                        schedule: schedule.iter().copied().map(ProcessId).collect(),
                        history: history.clone(),
                        detail: format!("exact check infeasible: {e}"),
                        fast_reject_at,
                        faults: FaultPlan::none(),
                    });
                }
            }
        }

        // Next schedule in lexicographic order.
        let mut i = depth;
        loop {
            if i == 0 {
                return exploration;
            }
            i -= 1;
            schedule[i] += 1;
            if schedule[i] < n {
                break;
            }
            schedule[i] = 0;
        }
    }
}

/// Lexicographic normal form of the dependence DAG of one executed
/// schedule: repeatedly emit the lowest-numbered process among the steps
/// whose predecessors (program order or conflicting footprints) have all
/// been emitted — the canonical representative of the schedule's
/// Mazurkiewicz class.
fn lex_normal_form(schedule: &[usize], feet: &[StepFootprint]) -> Vec<u8> {
    let depth = schedule.len();
    let mut emitted = vec![false; depth];
    let mut normal = Vec::with_capacity(depth);
    for _ in 0..depth {
        let next = (0..depth)
            .filter(|&j| {
                !emitted[j]
                    && (0..j).all(|i| {
                        emitted[i] || (schedule[i] != schedule[j] && !feet[i].conflicts(&feet[j]))
                    })
            })
            .min_by_key(|&j| schedule[j])
            .expect("the dependence DAG always has a minimal step");
        emitted[next] = true;
        normal.push(schedule[next] as u8);
    }
    normal
}

/// The canonical (lexicographically least) representative of one
/// schedule's Mazurkiewicz class, by fresh replay against a TM built by
/// `factory`: two schedules are equivalent — reachable from each other
/// by swaps of adjacent independent steps — iff their normal forms are
/// equal. The optimality tests map the explorer's
/// [`Exploration::schedule_log`] through this and assert the images are
/// pairwise distinct: at most one executed schedule per class.
pub fn schedule_normal_form<F>(factory: F, scripts: &[ClientScript], schedule: &[u8]) -> Vec<u8>
where
    F: Fn() -> BoxedTm,
{
    let mut tm = factory();
    let mut clients: Vec<Client> = scripts.iter().cloned().map(Client::new).collect();
    let mut feet = Vec::with_capacity(schedule.len());
    let mut history = Vec::new();
    for &k in schedule {
        feet.push(reduction::next_footprint(&tm, &clients, k as usize));
        step_process(&mut tm, &mut clients, k as usize, false, &mut history);
        history.clear();
    }
    let widened: Vec<usize> = schedule.iter().map(|&k| k as usize).collect();
    lex_normal_form(&widened, &feet)
}

/// Brute-force count of the Mazurkiewicz equivalence classes of the
/// `processes^depth` bounded schedules, under the dependence relation
/// declared by the TM's conflict oracle
/// ([`tm_stm::SteppedTm::step_footprint`]) — the independent
/// **optimality oracle** ceiling for the wakeup-tree explorer: optimal
/// DPOR executes pairwise-inequivalent schedules, so its executed count
/// is bounded above by this. (It is a ceiling, not an equality: at a
/// bounded depth the walk's one-step race lookahead lets one executed
/// schedule cover frontier-truncated neighbour classes it never runs —
/// see the optimal-DPOR section of the module docs.)
///
/// Every schedule is replayed from scratch and its per-step footprints
/// recorded; the schedule's class is represented by its lexicographic
/// normal form (the least linearization of the trace's dependence DAG,
/// computed greedily — well-defined because the commutation contract
/// makes footprints class-invariant), and distinct normal forms are
/// counted. Exponential in `depth` by construction; a differential
/// baseline for small shapes, not an explorer.
pub fn mazurkiewicz_classes<F>(factory: F, scripts: &[ClientScript], depth: usize) -> usize
where
    F: Fn() -> BoxedTm,
{
    let n = scripts.len();
    assert!(n > 0, "need at least one process");
    let mut canonical = std::collections::HashSet::new();
    let mut schedule = vec![0usize; depth];
    let mut feet: Vec<StepFootprint> = Vec::with_capacity(depth);

    loop {
        // Replay this schedule, recording each executed step's footprint
        // exactly as the DPOR walk sees it (the conservative global
        // footprint for blocked polls, the begin flag from the cursor).
        let mut tm = factory();
        let mut clients: Vec<Client> = scripts.iter().cloned().map(Client::new).collect();
        feet.clear();
        for &k in &schedule {
            feet.push(reduction::next_footprint(&tm, &clients, k));
            let mut history = Vec::new();
            step_process(&mut tm, &mut clients, k, false, &mut history);
        }

        canonical.insert(lex_normal_form(&schedule, &feet));

        // Next schedule in lexicographic order.
        let mut i = depth;
        loop {
            if i == 0 {
                return canonical.len();
            }
            i -= 1;
            schedule[i] += 1;
            if schedule[i] < n {
                break;
            }
            schedule[i] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_automata::FgpVariant;
    use tm_core::TVarId;
    use tm_stm::{Dstm, FgpTm, GlobalLock, NOrec, Ostm, TinyStm, Tl2};

    const X: TVarId = TVarId(0);

    fn two_increments() -> Vec<ClientScript> {
        vec![ClientScript::increment(X), ClientScript::increment(X)]
    }

    #[test]
    fn fgp_all_histories_opaque_two_processes() {
        for variant in [FgpVariant::Strict, FgpVariant::CpOnly] {
            let result =
                explore_schedules(|| Box::new(FgpTm::new(2, 1, variant)), &two_increments(), 9);
            assert_eq!(result.schedules, 512);
            assert!(result.all_opaque(), "{variant:?}: {:?}", result.violations);
        }
    }

    #[test]
    fn literal_fgp_violations_are_found_by_exploration() {
        // The model checker finds the aborted-write leak of the literal
        // formal rules without any hand-crafted scenario: some schedule of
        // two increment clients exposes it.
        let result = explore_schedules(
            || tm_stm::literal_fgp(2, 1),
            &[
                ClientScript::increment(X),
                // A client writing a distinguishable constant.
                ClientScript::new(vec![
                    crate::workload::PlannedOp::Read(X),
                    crate::workload::PlannedOp::Write(X, 5),
                ]),
            ],
            10,
        );
        assert!(
            !result.all_opaque(),
            "expected the literal-Fgp leak to surface within depth 10"
        );
        // Violations surface their shortest failing prefix.
        for v in &result.violations {
            assert!(v.fast_reject_at < v.history.len());
        }
    }

    type Factory = Box<dyn Fn() -> BoxedTm>;

    #[test]
    fn every_catalog_tm_is_opaque_at_depth_eight() {
        let factories: Vec<(&str, Factory)> = vec![
            ("tl2", Box::new(|| Box::new(Tl2::new(2, 1)) as BoxedTm)),
            ("tiny", Box::new(|| Box::new(TinyStm::new(2, 1)) as BoxedTm)),
            ("norec", Box::new(|| Box::new(NOrec::new(2, 1)) as BoxedTm)),
            ("ostm", Box::new(|| Box::new(Ostm::new(2, 1)) as BoxedTm)),
            ("dstm", Box::new(|| Box::new(Dstm::new(2, 1)) as BoxedTm)),
            (
                "global-lock",
                Box::new(|| Box::new(GlobalLock::new(2, 1)) as BoxedTm),
            ),
        ];
        for (name, factory) in factories {
            let result = explore_schedules(&*factory, &two_increments(), 8);
            assert!(result.all_opaque(), "{name}: {:?}", result.violations);
        }
    }

    #[test]
    fn three_process_exploration() {
        let scripts = vec![
            ClientScript::increment(X),
            ClientScript::increment(X),
            ClientScript::read_both(X, TVarId(1)),
        ];
        let result = explore_schedules(
            || Box::new(FgpTm::new(3, 2, FgpVariant::CpOnly)),
            &scripts,
            7,
        );
        assert_eq!(result.schedules, 3usize.pow(7));
        assert!(result.all_opaque());
    }

    #[test]
    fn dfs_matches_naive_exactly_on_an_opaque_tm() {
        let scripts = two_increments();
        let naive = explore_schedules_naive(
            || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)),
            &scripts,
            8,
        );
        let dfs = explore_with(
            || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)),
            &scripts,
            &ExploreConfig::new(8).sequential(),
        );
        assert_eq!(naive, dfs);
    }

    #[test]
    fn dfs_matches_naive_exactly_on_the_buggy_tm() {
        let scripts = vec![
            ClientScript::increment(X),
            ClientScript::new(vec![
                crate::workload::PlannedOp::Read(X),
                crate::workload::PlannedOp::Write(X, 5),
            ]),
        ];
        let naive = explore_schedules_naive(|| tm_stm::literal_fgp(2, 1), &scripts, 9);
        let dfs = explore_with(
            || tm_stm::literal_fgp(2, 1),
            &scripts,
            &ExploreConfig::new(9).sequential(),
        );
        assert!(!naive.all_opaque());
        assert_eq!(naive, dfs);
    }

    #[test]
    fn parallel_split_depths_do_not_change_the_report() {
        let scripts = two_increments();
        let base = explore_with(
            || Box::new(Tl2::new(2, 1)),
            &scripts,
            &ExploreConfig::new(9).sequential(),
        );
        for split in [0, 1, 3, 5, 9] {
            let par = explore_with(
                || Box::new(Tl2::new(2, 1)),
                &scripts,
                &ExploreConfig::new(9).with_split_depth(split),
            );
            assert_eq!(base, par, "split depth {split}");
        }
    }

    #[test]
    fn sleep_sets_prune_but_preserve_verdicts() {
        // Two processes on disjoint variables: almost everything commutes.
        let scripts = vec![
            ClientScript::increment(X),
            ClientScript::increment(TVarId(1)),
        ];
        let full = explore_with(
            || Box::new(Tl2::new(2, 2)),
            &scripts,
            &ExploreConfig::new(8).sequential(),
        );
        let pruned = explore_with(
            || Box::new(Tl2::new(2, 2)),
            &scripts,
            &ExploreConfig::new(8).sequential().with_sleep_sets(),
        );
        assert!(pruned.schedules < full.schedules);
        assert!(pruned.pruned_subtrees > 0);
        assert_eq!(full.all_opaque(), pruned.all_opaque());
    }

    #[test]
    fn sleep_sets_disable_for_tms_without_the_commutation_contract() {
        // The global-lock TM acquires the global lock on its first
        // operation, and TinySTM's aborts roll back (and unlock) the
        // transaction's whole write set across variables — in both
        // cases disjoint-variable steps do NOT commute, so the explorer
        // must ignore the pruning request and visit every schedule.
        let scripts = vec![
            ClientScript::increment(X),
            ClientScript::increment(TVarId(1)),
        ];
        let factories: Vec<(&str, Factory)> = vec![
            (
                "global-lock",
                Box::new(|| Box::new(GlobalLock::new(2, 2)) as BoxedTm),
            ),
            ("tiny", Box::new(|| Box::new(TinyStm::new(2, 2)) as BoxedTm)),
        ];
        for (name, factory) in factories {
            let pruned = explore_with(
                &*factory,
                &scripts,
                &ExploreConfig::new(8).sequential().with_sleep_sets(),
            );
            assert_eq!(pruned.schedules, 1 << 8, "{name}");
            assert_eq!(pruned.pruned_subtrees, 0, "{name}");
            let full = explore_with(&*factory, &scripts, &ExploreConfig::new(8).sequential());
            assert_eq!(full, pruned, "{name}");
        }
    }

    #[test]
    fn dedup_replays_subtrees_but_reports_identically() {
        let scripts = two_increments();
        let full = explore_with(
            || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)),
            &scripts,
            &ExploreConfig::new(10).sequential(),
        );
        let deduped = explore_with(
            || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)),
            &scripts,
            &ExploreConfig::new(10).sequential().with_dedup(),
        );
        assert!(deduped.dedup_hits > 0, "the increment workload must merge");
        assert_eq!(full.report(), deduped.report());
        assert_eq!(deduped.schedules, 1 << 10, "hits still count every leaf");
    }

    #[test]
    fn dedup_still_catches_the_buggy_tm_with_identical_violations() {
        let scripts = vec![
            ClientScript::increment(X),
            ClientScript::new(vec![
                crate::workload::PlannedOp::Read(X),
                crate::workload::PlannedOp::Write(X, 5),
            ]),
        ];
        let full = explore_with(
            || tm_stm::literal_fgp(2, 1),
            &scripts,
            &ExploreConfig::new(10).sequential(),
        );
        let deduped = explore_with(
            || tm_stm::literal_fgp(2, 1),
            &scripts,
            &ExploreConfig::new(10).sequential().with_dedup(),
        );
        assert!(!full.all_opaque());
        assert_eq!(full.report(), deduped.report());
    }

    #[test]
    fn dedup_composes_with_sleep_sets_and_parallelism() {
        let scripts = vec![
            ClientScript::increment(X),
            ClientScript::increment(TVarId(1)),
        ];
        let base = explore_with(
            || Box::new(Tl2::new(2, 2)),
            &scripts,
            &ExploreConfig::new(9).sequential().with_sleep_sets(),
        );
        let deduped = explore_with(
            || Box::new(Tl2::new(2, 2)),
            &scripts,
            &ExploreConfig::new(9)
                .sequential()
                .with_sleep_sets()
                .with_dedup(),
        );
        assert_eq!(base.report(), deduped.report());
        assert_eq!(base.pruned_subtrees, deduped.pruned_subtrees);
        let parallel = explore_with(
            || Box::new(Tl2::new(2, 2)),
            &scripts,
            &ExploreConfig::new(9)
                .with_split_depth(3)
                .with_sleep_sets()
                .with_dedup(),
        );
        assert_eq!(base.report(), parallel.report());
    }

    #[test]
    fn dpor_reduces_schedules_and_preserves_verdicts() {
        let scripts = two_increments();
        let full = explore_with(
            || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)),
            &scripts,
            &ExploreConfig::new(9).sequential(),
        );
        let dpor = explore_with(
            || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)),
            &scripts,
            &ExploreConfig::new(9).sequential().with_dpor(),
        );
        assert!(
            dpor.schedules < full.schedules,
            "reduction must fire: {} vs {}",
            dpor.schedules,
            full.schedules
        );
        assert_eq!(full.all_opaque(), dpor.all_opaque());
    }

    #[test]
    fn dpor_still_catches_the_buggy_tm_with_a_subset_of_violations() {
        let scripts = vec![
            ClientScript::increment(X),
            ClientScript::new(vec![
                crate::workload::PlannedOp::Read(X),
                crate::workload::PlannedOp::Write(X, 5),
            ]),
        ];
        let full = explore_with(
            || tm_stm::literal_fgp(2, 1),
            &scripts,
            &ExploreConfig::new(9).sequential(),
        );
        let dpor = explore_with(
            || tm_stm::literal_fgp(2, 1),
            &scripts,
            &ExploreConfig::new(9).sequential().with_dpor(),
        );
        assert!(!full.all_opaque() && !dpor.all_opaque());
        // Every DPOR violation is a real schedule the unreduced explorer
        // also reports, verbatim.
        for v in &dpor.violations {
            assert!(full.violations.contains(v), "unknown violation {v:?}");
        }
    }

    #[test]
    fn dpor_degenerates_to_full_exploration_for_conservative_oracles() {
        // The global-lock TM's audited oracle conflicts on every pair,
        // so DPOR must visit every schedule — same report as plain DFS.
        let scripts = two_increments();
        let full = explore_with(
            || Box::new(GlobalLock::new(2, 1)),
            &scripts,
            &ExploreConfig::new(8).sequential(),
        );
        let dpor = explore_with(
            || Box::new(GlobalLock::new(2, 1)),
            &scripts,
            &ExploreConfig::new(8).sequential().with_dpor(),
        );
        assert_eq!(full, dpor);
    }

    #[test]
    fn dpor_composes_with_parallel_split_and_dedup() {
        let scripts = two_increments();
        let base = explore_with(
            || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)),
            &scripts,
            &ExploreConfig::new(9).sequential().with_dpor(),
        );
        let deduped = explore_with(
            || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)),
            &scripts,
            &ExploreConfig::new(9).sequential().with_dpor().with_dedup(),
        );
        // Dedup must not change the verdict; executed-schedule counts may
        // legitimately differ only through replayed summaries, which are
        // themselves executed-schedule counts — so they must match too.
        assert_eq!(base.report(), deduped.report());
        for split in [1, 3, 5] {
            let par = explore_with(
                || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)),
                &scripts,
                &ExploreConfig::new(9).with_split_depth(split).with_dpor(),
            );
            // The parallel frontier enumerates prefixes exhaustively, so
            // its executed-schedule count sits between the sequential
            // DPOR count and the full tree; the verdict is preserved.
            assert_eq!(par.all_opaque(), base.all_opaque(), "split {split}");
            assert!(par.schedules >= base.schedules, "split {split}");
            assert!(par.schedules <= 1 << 9, "split {split}");
        }
    }

    #[test]
    fn shared_dedup_reports_match_per_worker_dedup() {
        let scripts = two_increments();
        let per_worker = explore_with(
            || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)),
            &scripts,
            &ExploreConfig::new(10).with_split_depth(3).with_dedup(),
        );
        let shared = explore_with(
            || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)),
            &scripts,
            &ExploreConfig::new(10)
                .with_split_depth(3)
                .with_dedup()
                .with_shared_dedup(),
        );
        assert_eq!(per_worker.report(), shared.report());
        assert_eq!(shared.schedules, 1 << 10);
    }

    #[test]
    fn sleep_sets_still_catch_the_buggy_tm() {
        let scripts = vec![
            ClientScript::increment(X),
            ClientScript::new(vec![
                crate::workload::PlannedOp::Read(X),
                crate::workload::PlannedOp::Write(X, 5),
            ]),
        ];
        let pruned = explore_with(
            || tm_stm::literal_fgp(2, 1),
            &scripts,
            &ExploreConfig::new(10).with_sleep_sets(),
        );
        assert!(
            !pruned.all_opaque(),
            "pruning must preserve the violation verdict"
        );
    }
}

//! Unit costs of the model checkers' layers, timed from outside through
//! their public calls: a stepped-TM step (`invoke`/`poll`), a `TmPool`
//! fork and refork, an `IncrementalChecker` checkpoint-and-push and
//! rollback, the two state digests behind a memo probe, the DPOR conflict
//! oracle (`step_footprint`), and an exact `check_opacity` call.
//!
//! Each cost is taken the way the explorer pays it: short random
//! schedules of the workload's scripts from the TM's initial state, one
//! certifier checkpoint per step, rolled back step by step.

use std::time::Instant;

use tm_core::{Event, History, ProcessId};
use tm_safety::{check_opacity, IncrementalChecker, Mode};
use tm_sim::{Client, ClientScript};
use tm_stm::{BoxedTm, Outcome, SteppedTm, TmPool};

use crate::out::xorshift;

/// Nanoseconds per operation of one TM's model-checking layers.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepCosts {
    /// One scheduler step: `invoke` or `poll`, plus the client update.
    pub step_ns: f64,
    /// One allocating `SteppedTm::fork`.
    pub fork_ns: f64,
    /// One recycled `TmPool::fork_child` + `put_back`.
    pub refork_ns: f64,
    /// One certifier push of one event (with the checkpoint of the step
    /// it belongs to spread over the step's events).
    pub push_ns: f64,
    /// Events one step produces on average.
    pub events_per_step: f64,
    /// One certifier rollback of one step.
    pub rollback_ns: f64,
    /// One `SteppedTm::state_digest` (the TM half of a memo key).
    pub tm_digest_ns: f64,
    /// One `IncrementalChecker::state_digest` (the certifier half of the
    /// explorer's memo key).
    pub checker_digest_ns: f64,
    /// One `SteppedTm::step_footprint` query (the DPOR conflict oracle).
    pub footprint_ns: f64,
}

/// One layer's work in a run: its count, and what that count costs at
/// the measured unit costs, summed over the TMs.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCost {
    pub count: f64,
    pub ns: f64,
}

impl LayerCost {
    pub fn add(&mut self, count: u64, unit_ns: f64) {
        self.count += count as f64;
        self.ns += count as f64 * unit_ns;
    }

    /// The count-weighted unit cost (0 for an idle layer).
    pub fn unit_ns(&self) -> f64 {
        if self.count > 0.0 {
            self.ns / self.count
        } else {
            0.0
        }
    }
}

/// Forks and reforks timed per random schedule.
const BRANCHES: usize = 16;

/// One scheduler step of process `p`: poll a withheld response or issue
/// the client's next invocation, appending the events the step produced.
fn step(tm: &mut BoxedTm, clients: &mut [Client], p: usize, events: &mut Vec<Event>) {
    let process = ProcessId(p);
    if tm.has_pending(process) {
        if let Some(r) = tm.poll(process) {
            clients[p].observe(r);
            events.push(Event::response(process, r));
        }
        return;
    }
    let inv = clients[p].next_invocation();
    events.push(Event::invocation(process, inv));
    if let Outcome::Response(r) = tm.invoke(process, inv) {
        clients[p].observe(r);
        events.push(Event::response(process, r));
    }
}

/// Times the layers of the TM `factory` builds over `runs` random
/// schedules of `depth` steps of `scripts`.
pub fn step_costs(
    factory: &dyn Fn() -> BoxedTm,
    scripts: &[ClientScript],
    depth: usize,
    runs: usize,
    rng: &mut u64,
) -> StepCosts {
    let n = scripts.len();
    let base = factory();
    let mut pool = TmPool::for_tm(&base);
    let (mut step_t, mut fork_t, mut refork_t, mut push_t, mut back_t) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut tm_digest_t, mut checker_digest_t, mut footprint_t) = (0.0, 0.0, 0.0);
    let (mut steps, mut forks, mut pushed) = (0usize, 0usize, 0usize);
    let mut events = Vec::new();
    let mut bounds = Vec::with_capacity(depth + 1);
    for _ in 0..runs {
        let mut tm = base.fork();
        let mut clients: Vec<Client> = scripts.iter().cloned().map(Client::new).collect();
        let schedule: Vec<usize> = (0..depth)
            .map(|_| (xorshift(rng) % n as u64) as usize)
            .collect();
        events.clear();
        bounds.clear();
        bounds.push(0);
        let start = Instant::now();
        for &p in &schedule {
            step(&mut tm, &mut clients, p, &mut events);
            bounds.push(events.len());
        }
        step_t += start.elapsed().as_secs_f64();
        steps += depth;

        // Branch the end state the way the walk does at each node, in
        // batches so the clock read is not part of the cost.
        let start = Instant::now();
        for _ in 0..BRANCHES {
            std::hint::black_box(tm.fork());
        }
        fork_t += start.elapsed().as_secs_f64();
        let start = Instant::now();
        for _ in 0..BRANCHES {
            let child = pool.fork_child(&tm);
            pool.put_back(std::hint::black_box(child));
        }
        refork_t += start.elapsed().as_secs_f64();
        forks += BRANCHES;
        let start = Instant::now();
        for _ in 0..BRANCHES {
            std::hint::black_box(tm.state_digest());
        }
        tm_digest_t += start.elapsed().as_secs_f64();
        let start = Instant::now();
        for _ in 0..BRANCHES {
            for (p, client) in clients.iter().enumerate() {
                std::hint::black_box(tm.step_footprint(ProcessId(p), client.next_invocation()));
            }
        }
        footprint_t += start.elapsed().as_secs_f64() / n as f64;

        let mut checker = IncrementalChecker::new(Mode::Opacity);
        let mut marks = Vec::with_capacity(depth);
        let start = Instant::now();
        for w in bounds.windows(2) {
            marks.push(checker.checkpoint());
            for &e in &events[w[0]..w[1]] {
                // A rejection latches and is part of what a push costs.
                let _ = checker.push(e);
            }
        }
        push_t += start.elapsed().as_secs_f64();
        pushed += events.len();
        let start = Instant::now();
        for _ in 0..BRANCHES {
            std::hint::black_box(checker.state_digest());
        }
        checker_digest_t += start.elapsed().as_secs_f64();
        let start = Instant::now();
        while let Some(mark) = marks.pop() {
            checker.rollback(mark);
        }
        back_t += start.elapsed().as_secs_f64();
    }
    let per = |t: f64, k: usize| t * 1e9 / k.max(1) as f64;
    StepCosts {
        step_ns: per(step_t, steps),
        fork_ns: per(fork_t, forks),
        refork_ns: per(refork_t, forks),
        push_ns: per(push_t, pushed),
        events_per_step: pushed as f64 / steps.max(1) as f64,
        tm_digest_ns: per(tm_digest_t, forks),
        checker_digest_ns: per(checker_digest_t, forks),
        footprint_ns: per(footprint_t, forks),
        rollback_ns: per(back_t, steps),
    }
}

/// Mean microseconds of one exact `check_opacity` call over `histories`
/// (0 when there are none), each history checked `rounds` times.
pub fn exact_check_us(histories: &[&History], rounds: usize) -> f64 {
    if histories.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    for _ in 0..rounds {
        for h in histories {
            std::hint::black_box(check_opacity(h).map(|v| v.holds()).ok());
        }
    }
    start.elapsed().as_secs_f64() * 1e6 / (rounds * histories.len()) as f64
}

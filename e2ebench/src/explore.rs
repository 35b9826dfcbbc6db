//! `explore-catalogue`: the bounded opacity check of every catalogue TM
//! with the configuration the project ships (optimal DPOR, dedup, the
//! parallel frontier), then the literal-`Fgp` bug-finding leg under the
//! same configuration.
//!
//! The inputs are fixed by the check itself (three processes, two
//! t-variables, `increment(x)`, `increment(x)`, `read_both(x, y)`, depth
//! 12); the seed only orders the catalogue, which changes no verdict and
//! no count.
//!
//! The split depth of the parallel frontier is pinned to the one the
//! automatic choice makes for two workers. The frontier explores its
//! split prefixes exhaustively, so with the automatic choice the work
//! counts would depend on the number of rayon threads.

use tm_core::{History, TVarId};
use tm_sim::{explore_with, ClientScript, Exploration, ExploreConfig};
use tm_stm::{full_catalog, literal_fgp, BoxedTm};
use tm_telemetry::{Counter, Snapshot, Telemetry};

use crate::layers::{exact_check_us, step_costs, LayerCost};
use crate::out::{abba, rng, share, timed, unix_now, xorshift, Out};

const PROCESSES: usize = 3;
const TVARS: usize = 2;
const DEPTH: usize = 12;
/// Parallel frontier split depth: 27 subtree roots for three processes.
const SPLIT: usize = 3;

/// The counts the traced run requires to repeat exactly across runs and
/// across rayon thread counts.
const DETERMINISTIC: [Counter; 9] = [
    Counter::SchedulesExecuted,
    Counter::WorkerSteps,
    Counter::TmReforks,
    Counter::DporRaces,
    Counter::WakeupInserts,
    Counter::WakeupRedundant,
    Counter::MemoHits,
    Counter::MemoMisses,
    Counter::ExactFallbacks,
];

struct Inputs {
    /// Catalogue indices in the order the seed chose.
    order: Vec<usize>,
    names: Vec<&'static str>,
    scripts: Vec<ClientScript>,
}

fn scripts() -> Vec<ClientScript> {
    let (x, y) = (TVarId(0), TVarId(1));
    vec![
        ClientScript::increment(x),
        ClientScript::increment(x),
        ClientScript::read_both(x, y),
    ]
}

fn setup(seed: u64) -> Inputs {
    let names: Vec<&'static str> = full_catalog(PROCESSES, TVARS)
        .iter()
        .map(|tm| tm.name())
        .collect();
    let mut order: Vec<usize> = (0..names.len()).collect();
    let mut s = rng(seed, 0);
    for i in (1..order.len()).rev() {
        order.swap(i, (xorshift(&mut s) % (i as u64 + 1)) as usize);
    }
    Inputs {
        order,
        names,
        scripts: scripts(),
    }
}

fn catalogue_tm(i: usize) -> impl Fn() -> BoxedTm {
    move || full_catalog(PROCESSES, TVARS).swap_remove(i)
}

fn config(depth: usize, telemetry: &Telemetry) -> ExploreConfig {
    ExploreConfig::new(depth)
        .with_split_depth(SPLIT)
        .with_optimal_dpor()
        .with_dedup()
        .with_telemetry(telemetry)
}

/// One TM's exploration and the counters its run accumulated.
struct Run {
    name: &'static str,
    report: Exploration,
    snapshot: Snapshot,
}

/// Runs every verdict of the workload, checking each against the
/// expected table. `telemetry` makes one handle per TM (off for the
/// untraced runs).
fn run(
    inputs: &Inputs,
    depth: usize,
    telemetry: &dyn Fn() -> Telemetry,
    out: &mut Out,
) -> Vec<Run> {
    let mut runs = Vec::new();
    for &i in &inputs.order {
        let t = telemetry();
        let report = explore_with(catalogue_tm(i), &inputs.scripts, &config(depth, &t));
        let name = inputs.names[i];
        out.check(report.all_opaque() && report.exhausted.is_none(), || {
            format!(
                "{name}: expected a clean opacity verdict, got {} violations (exhausted: {:?})",
                report.violations.len(),
                report.exhausted
            )
        });
        runs.push(Run {
            name,
            report,
            snapshot: t.snapshot(),
        });
    }
    let t = telemetry();
    let report = explore_with(
        || literal_fgp(PROCESSES, TVARS),
        &inputs.scripts,
        &config(depth, &t),
    );
    out.check(
        !report.all_opaque() && report.exact_fallbacks > 0 && report.exhausted.is_none(),
        || {
            format!(
                "fgp-literal: expected violations via the exact checker, got {} violations from {} fallbacks",
                report.violations.len(),
                report.exact_fallbacks
            )
        },
    );
    runs.push(Run {
        name: "fgp-literal",
        report,
        snapshot: t.snapshot(),
    });
    runs
}

fn report_counts(runs: &[Run], out: &mut Out) {
    let sum = |f: &dyn Fn(&Exploration) -> usize| runs.iter().map(|r| f(&r.report) as u64).sum();
    out.count("schedules", sum(&|e| e.schedules));
    out.count("exact_fallbacks", sum(&|e| e.exact_fallbacks));
    out.count("violations", sum(&|e| e.violations.len()));
    out.count("dedup_hits", sum(&|e| e.dedup_hits));
}

/// One untraced repetition: set-up time and time to the checked verdict
/// table.
pub fn rep(seed: u64) -> Out {
    let mut out = Out {
        threads: rayon::current_num_threads(),
        ..Out::default()
    };
    let inputs = setup(seed);
    out.metric("first_call_unix_s", unix_now());
    let (verdict_s, runs) = timed(|| run(&inputs, DEPTH, &Telemetry::off, &mut out));
    out.metric("verdict_s", verdict_s);
    report_counts(&runs, &mut out);
    out
}

fn total(runs: &[Run], c: Counter) -> u64 {
    runs.iter().map(|r| r.snapshot.get(c)).sum()
}

/// The traced breakdown of the workload, with the determinism check and
/// the tracing overhead.
pub fn trace(seed: u64) -> Out {
    let mut out = Out {
        threads: rayon::current_num_threads(),
        ..Out::default()
    };
    let inputs = setup(seed);
    let (_, on, overhead) = abba(
        &mut out,
        |out| run(&inputs, DEPTH, &Telemetry::off, out),
        |out| run(&inputs, DEPTH, &Telemetry::counters, out),
    );
    let traced: Vec<Vec<Run>> = on.into_iter().map(|(_, runs)| runs).collect();
    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the rayon shim never fails to build");
    let (wall_1, single_runs) =
        single.install(|| timed(|| run(&inputs, DEPTH, &Telemetry::counters, &mut out)));
    let threads = rayon::current_num_threads();
    for c in DETERMINISTIC {
        let a = total(&traced[0], c);
        let b = total(&traced[1], c);
        let one = total(&single_runs, c);
        out.check(a == b && a == one, || {
            format!(
                "{}: not deterministic (run 1: {a}, run 2: {b}, 1 thread vs {threads}: {one})",
                c.name()
            )
        });
    }
    out.metric("tracing_overhead_share", overhead);
    layer_rows(&inputs, &single_runs, wall_1, seed, &mut out);
    out
}

/// The explorer's layer rows at reduced depth, for workloads that leave
/// the explorer idle.
pub fn probe(seed: u64) -> Out {
    let mut out = Out {
        threads: rayon::current_num_threads(),
        ..Out::default()
    };
    let inputs = setup(seed);
    let (wall, runs) = timed(|| run(&inputs, PROBE_DEPTH, &Telemetry::counters, &mut out));
    layer_rows(&inputs, &runs, wall, seed, &mut out);
    out
}

/// Depth of the reduced-scale probe.
const PROBE_DEPTH: usize = 10;

/// Random schedules timed per TM for the unit costs.
const COST_RUNS: usize = 4000;

/// Per-layer rows from one traced run of `wall` seconds (single-threaded
/// for the workload itself, so that counts times unit costs compare with
/// wall time), and the residual no layer accounts for.
fn layer_rows(inputs: &Inputs, runs: &[Run], wall: f64, seed: u64, out: &mut Out) {
    let mut s = rng(seed, 1);
    let [mut step, mut push, mut rollback, mut fork, mut refork, mut probe, mut footprint] =
        [LayerCost::default(); 7];
    for run in runs {
        let costs = if run.name == "fgp-literal" {
            step_costs(
                &|| literal_fgp(PROCESSES, TVARS),
                &inputs.scripts,
                DEPTH,
                COST_RUNS,
                &mut s,
            )
        } else {
            let i = inputs
                .names
                .iter()
                .position(|n| *n == run.name)
                .expect("catalogue name");
            step_costs(&catalogue_tm(i), &inputs.scripts, DEPTH, COST_RUNS, &mut s)
        };
        let count = |c| run.snapshot.get(c);
        let steps = count(Counter::WorkerSteps);
        step.add(steps, costs.step_ns);
        rollback.add(steps, costs.rollback_ns);
        footprint.add(steps, costs.footprint_ns);
        push.add((steps as f64 * costs.events_per_step) as u64, costs.push_ns);
        fork.add(count(Counter::TmForks), costs.fork_ns);
        refork.add(count(Counter::TmReforks), costs.refork_ns);
        probe.add(
            count(Counter::MemoHits) + count(Counter::MemoMisses),
            costs.tm_digest_ns + costs.checker_digest_ns,
        );
    }
    let literal = &runs.last().expect("the literal leg runs last").report;
    let histories: Vec<&History> = literal.violations.iter().map(|v| &v.history).collect();
    let mut exact = LayerCost::default();
    exact.add(
        total(runs, Counter::ExactFallbacks),
        exact_check_us(&histories, 20) * 1e3,
    );
    let modeled_ns: f64 = [step, push, rollback, fork, refork, probe, footprint, exact]
        .iter()
        .map(|l| l.ns)
        .sum();

    let (hits, misses) = (
        total(runs, Counter::MemoHits),
        total(runs, Counter::MemoMisses),
    );
    let (inserts, redundant) = (
        total(runs, Counter::WakeupInserts),
        total(runs, Counter::WakeupRedundant),
    );
    out.metric(
        "tm_stm.step.count",
        total(runs, Counter::WorkerSteps) as f64,
    );
    out.metric("tm_stm.step.ns", step.unit_ns());
    out.metric("tm_stm.pool.forks", total(runs, Counter::TmForks) as f64);
    out.metric(
        "tm_stm.pool.reforks",
        total(runs, Counter::TmReforks) as f64,
    );
    out.metric("tm_stm.pool.fork_ns", fork.unit_ns());
    out.metric("tm_stm.pool.refork_ns", refork.unit_ns());
    out.metric("tm_safety.incremental.push_ns", push.unit_ns());
    out.metric("tm_safety.incremental.rollback_ns", rollback.unit_ns());
    out.metric(
        "tm_sim.explore.exact_fallbacks",
        total(runs, Counter::ExactFallbacks) as f64,
    );
    out.metric("tm_safety.exact.check_us", exact.unit_ns() / 1e3);
    out.metric("tm_sim.engine.memo.probes", (hits + misses) as f64);
    out.metric(
        "tm_sim.engine.memo.hit_ratio",
        share(hits as f64, (hits + misses) as f64),
    );
    out.metric("tm_sim.engine.memo.probe_ns", probe.unit_ns());
    out.metric(
        "tm_sim.explore.dpor.races",
        total(runs, Counter::DporRaces) as f64,
    );
    out.metric("tm_sim.explore.dpor.footprint_ns", footprint.unit_ns());
    out.metric("tm_sim.explore.dpor.wakeup_inserts", inserts as f64);
    out.metric("tm_sim.explore.dpor.wakeup_redundant", redundant as f64);
    out.metric(
        "tm_sim.explore.dpor.wakeup_useful_ratio",
        share(inserts as f64, (inserts + redundant) as f64),
    );
    out.metric(
        "tm_sim.explore.schedules",
        total(runs, Counter::SchedulesExecuted) as f64,
    );
    out.metric("residual_share", 1.0 - modeled_ns / 1e9 / wall);
}

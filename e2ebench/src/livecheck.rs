//! `livecheck-faults`: fault-prone liveness checking of every catalogue
//! TM — at most one crash plus parasitic turns, quantified exhaustively —
//! under the reduced sequential discipline (each graph edge executed
//! once, re-walks replayed).
//!
//! Expected: Theorem 1's corollary. No TM is fair-starvation-free, and
//! the crash victims per TM match the table below. The seed picks the
//! three written constants (distinct and non-zero, so the value domain
//! stays bounded and the graph keeps its shape).

use tm_core::{ProcessId, TVarId, Value};
use tm_sim::{livecheck, ClientScript, FaultConfig, LivecheckConfig, LivecheckReport, PlannedOp};
use tm_stm::{full_catalog, BoxedTm};
use tm_telemetry::{Counter, Snapshot, Telemetry};

use crate::layers::{step_costs, LayerCost};
use crate::out::{abba, rng, share, timed, unix_now, xorshift, Out};

const PROCESSES: usize = 3;
const TVARS: usize = 2;
const DEPTH: usize = 16;

/// Depth of the reduced-scale probe.
const PROBE_DEPTH: usize = 10;

/// The counts the traced run requires to repeat exactly.
const DETERMINISTIC: [Counter; 6] = [
    Counter::GraphNodes,
    Counter::GraphEdges,
    Counter::StepsExecuted,
    Counter::StepsReplayed,
    Counter::CyclesDetected,
    Counter::LassosFound,
];

/// Expected crash victims per TM at depth 16 (process indices).
const CRASH_VICTIMS: [(&str, &[usize]); 9] = [
    ("fgp", &[0, 1, 2]),
    ("fgp-strict", &[0, 1, 2]),
    ("tl2", &[1, 2]),
    ("tinystm", &[0, 1, 2]),
    ("swisstm", &[0, 1, 2]),
    ("norec", &[]),
    ("ostm", &[1, 2]),
    ("dstm", &[0, 1]),
    ("global-lock", &[0, 1, 2]),
];

struct Inputs {
    names: Vec<&'static str>,
    scripts: Vec<ClientScript>,
}

fn setup(seed: u64) -> Inputs {
    let names = full_catalog(PROCESSES, TVARS)
        .iter()
        .map(|tm| tm.name())
        .collect();
    let mut s = rng(seed, 2);
    let mut values: Vec<Value> = (1..=9).collect();
    for i in (1..values.len()).rev() {
        values.swap(i, (xorshift(&mut s) % (i as u64 + 1)) as usize);
    }
    let (x, y) = (TVarId(0), TVarId(1));
    Inputs {
        names,
        scripts: vec![
            ClientScript::new(vec![PlannedOp::Write(x, values[0])]),
            ClientScript::new(vec![PlannedOp::Read(x), PlannedOp::Write(x, values[1])]),
            ClientScript::new(vec![
                PlannedOp::Read(x),
                PlannedOp::Read(y),
                PlannedOp::Write(y, values[2]),
            ]),
        ],
    }
}

fn catalogue_tm(i: usize) -> impl Fn() -> BoxedTm {
    move || full_catalog(PROCESSES, TVARS).swap_remove(i)
}

struct Run {
    report: LivecheckReport,
    snapshot: Snapshot,
    /// `(search, scc_certify)` phase spans in seconds.
    spans: (f64, f64),
}

fn run(
    inputs: &Inputs,
    depth: usize,
    telemetry: &dyn Fn() -> Telemetry,
    out: &mut Out,
) -> Vec<Run> {
    let faults = FaultConfig::with_crashes(1).and_parasitic();
    let mut runs = Vec::with_capacity(inputs.names.len());
    for (i, &name) in inputs.names.iter().enumerate() {
        let t = telemetry();
        let config = LivecheckConfig::new(depth)
            .with_faults(faults)
            .with_reduction()
            .with_telemetry(&t);
        let report = livecheck(catalogue_tm(i), &inputs.scripts, &config);
        let victims: Vec<usize> = report
            .crash_victims()
            .iter()
            .map(|p: &ProcessId| p.index())
            .collect();
        let all = (1u64 << PROCESSES) - 1;
        out.check(
            report.exhausted.is_none()
                && report.rejected_cycles == 0
                && report.crash_injected == all
                && report.parasite_injected == all,
            || {
                format!(
                    "{name}: fault space not fully explored or a cycle was rejected: {report:?}"
                )
            },
        );
        out.check(
            !report.fair_starvation_free() && !report.lasso_starvation_free(),
            || format!("{name}: Theorem 1's corollary fails — the TM stays starvation-free under faults"),
        );
        if depth == DEPTH {
            let expected = CRASH_VICTIMS
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v);
            out.check(expected == Some(&victims[..]), || {
                format!("{name}: crash victims {victims:?}, expected {expected:?}")
            });
        }
        let phase = |want: &str| {
            t.phases()
                .iter()
                .filter(|(n, _)| n.ends_with(want))
                .map(|(_, ns)| *ns as f64 / 1e9)
                .sum::<f64>()
        };
        runs.push(Run {
            spans: (phase("search"), phase("scc_certify")),
            snapshot: t.snapshot(),
            report,
        });
    }
    runs
}

fn report_counts(runs: &[Run], out: &mut Out) {
    let sum =
        |f: &dyn Fn(&LivecheckReport) -> usize| runs.iter().map(|r| f(&r.report) as u64).sum();
    out.count("states", sum(&|r| r.states));
    out.count("edges", sum(&|r| r.edges));
    out.count("steps", sum(&|r| r.steps));
    out.count("replayed_steps", sum(&|r| r.replayed_steps));
    out.count("lassos", sum(&|r| r.lassos.len()));
}

pub fn rep(seed: u64) -> Out {
    let mut out = Out {
        threads: 1,
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

pub fn trace(seed: u64) -> Out {
    let mut out = Out {
        threads: 1,
        ..Out::default()
    };
    let inputs = setup(seed);
    let (_, on, overhead) = abba(
        &mut out,
        |out| run(&inputs, DEPTH, &Telemetry::off, out),
        |out| run(&inputs, DEPTH, &Telemetry::counters, out),
    );
    let wall = on[0].0;
    let traced: Vec<Vec<Run>> = on.into_iter().map(|(_, runs)| runs).collect();
    for c in DETERMINISTIC {
        let (a, b) = (total(&traced[0], c), total(&traced[1], c));
        out.check(a == b, || {
            format!("{}: not deterministic ({a} vs {b})", c.name())
        });
    }
    out.metric("tracing_overhead_share", overhead);
    layer_rows(&inputs, &traced[0], wall, seed, &mut out);
    out
}

pub fn probe(seed: u64) -> Out {
    let mut out = Out {
        threads: 1,
        ..Out::default()
    };
    let inputs = setup(seed);
    let (wall, runs) = timed(|| run(&inputs, PROBE_DEPTH, &Telemetry::counters, &mut out));
    layer_rows(&inputs, &runs, wall, seed, &mut out);
    out
}

/// Random schedules timed per TM for the step unit cost.
const COST_RUNS: usize = 4000;

fn layer_rows(inputs: &Inputs, runs: &[Run], wall: f64, seed: u64, out: &mut Out) {
    let mut s = rng(seed, 3);
    let [mut step, mut fork, mut refork, mut probe] = [LayerCost::default(); 4];
    for (i, run) in runs.iter().enumerate() {
        let costs = step_costs(&catalogue_tm(i), &inputs.scripts, DEPTH, COST_RUNS, &mut s);
        let count = |c| run.snapshot.get(c);
        step.add(count(Counter::StepsExecuted), costs.step_ns);
        fork.add(count(Counter::TmForks), costs.fork_ns);
        refork.add(count(Counter::TmReforks), costs.refork_ns);
        // A state is either expanded once (a miss: it becomes a graph
        // node) or skipped as already seen (a hit).
        probe.add(
            count(Counter::MemoHits) + count(Counter::GraphNodes),
            costs.tm_digest_ns,
        );
    }
    let search: f64 = runs.iter().map(|r| r.spans.0).sum();
    let scc: f64 = runs.iter().map(|r| r.spans.1).sum();
    let nodes = total(runs, Counter::GraphNodes);
    out.metric(
        "tm_stm.step.count",
        total(runs, Counter::StepsExecuted) as f64,
    );
    out.metric("tm_stm.step.ns", step.unit_ns());
    out.metric("tm_stm.pool.forks", total(runs, Counter::TmForks) as f64);
    out.metric(
        "tm_stm.pool.reforks",
        total(runs, Counter::TmReforks) as f64,
    );
    out.metric("tm_stm.pool.fork_ns", fork.unit_ns());
    out.metric("tm_stm.pool.refork_ns", refork.unit_ns());
    let hits = total(runs, Counter::MemoHits);
    out.metric("tm_sim.engine.memo.probes", (hits + nodes) as f64);
    out.metric(
        "tm_sim.engine.memo.hit_ratio",
        share(hits as f64, (hits + nodes) as f64),
    );
    out.metric("tm_sim.engine.memo.probe_ns", probe.unit_ns());
    out.metric("tm_sim.livecheck.search.ms", search * 1e3);
    out.metric("tm_sim.livecheck.search.graph_nodes", nodes as f64);
    out.metric(
        "tm_sim.livecheck.search.graph_edges",
        total(runs, Counter::GraphEdges) as f64,
    );
    out.metric(
        "tm_sim.livecheck.search.steps_replayed",
        total(runs, Counter::StepsReplayed) as f64,
    );
    out.metric(
        "tm_sim.livecheck.search.states_per_s",
        share(nodes as f64, search),
    );
    out.metric("tm_liveness.scc.certify_ms", scc * 1e3);
    out.metric(
        "tm_liveness.scc.cycles_detected",
        total(runs, Counter::CyclesDetected) as f64,
    );
    out.metric(
        "tm_liveness.scc.lassos_found",
        total(runs, Counter::LassosFound) as f64,
    );
    out.metric("residual_share", 1.0 - (search + scc) / wall);
}

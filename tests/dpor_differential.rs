//! Differential suite for source-set DPOR: the equivalence-class-pruned
//! explorer must agree with sleep-sets-only pruning and with the plain
//! prefix-sharing DFS on every **verdict** across the catalogue —
//! including the seeded-buggy literal `Fgp`, where each DPOR-reported
//! violation must be a schedule the unreduced explorer reports verbatim
//! — while executing strictly fewer schedules wherever a TM's conflict
//! oracle admits any independence. The liveness checker's reduction is
//! held to the stronger bar: byte-identical graphs, lassos and
//! starvation verdicts.

use tm_core::{ProcessId, TVarId};
use tm_sim::{explore_with, livecheck, ClientScript, ExploreConfig, LivecheckConfig, PlannedOp};
use tm_stm::{BoxedTm, Dstm, FgpTm, GlobalLock, NOrec, Ostm, SwissTm, TinyStm, Tl2};

use tm_automata::FgpVariant;

const X: TVarId = TVarId(0);
const Y: TVarId = TVarId(1);

type Factory = Box<dyn Fn() -> BoxedTm>;

/// The **whole** catalogue (every refined conflict oracle, including
/// the intricate ones: TinySTM's undo-log rollback, SwissTM's greedy-CM
/// ages, OSTM's per-object versions), the blocking global-lock TM, and
/// the seeded-buggy literal `Fgp`.
fn factories(processes: usize, tvars: usize) -> Vec<(&'static str, Factory)> {
    vec![
        (
            "fgp",
            Box::new(move || Box::new(FgpTm::new(processes, tvars, FgpVariant::CpOnly)) as BoxedTm)
                as Factory,
        ),
        (
            "tl2",
            Box::new(move || Box::new(Tl2::new(processes, tvars)) as BoxedTm),
        ),
        (
            "norec",
            Box::new(move || Box::new(NOrec::new(processes, tvars)) as BoxedTm),
        ),
        (
            "tinystm",
            Box::new(move || Box::new(TinyStm::new(processes, tvars)) as BoxedTm),
        ),
        (
            "swisstm",
            Box::new(move || Box::new(SwissTm::new(processes, tvars)) as BoxedTm),
        ),
        (
            "ostm",
            Box::new(move || Box::new(Ostm::new(processes, tvars)) as BoxedTm),
        ),
        (
            "dstm",
            Box::new(move || Box::new(Dstm::new(processes, tvars)) as BoxedTm),
        ),
        (
            "global-lock",
            Box::new(move || Box::new(GlobalLock::new(processes, tvars)) as BoxedTm),
        ),
        (
            "fgp-literal",
            Box::new(move || tm_stm::literal_fgp(processes, tvars)),
        ),
    ]
}

fn contended_scripts() -> Vec<ClientScript> {
    vec![
        ClientScript::increment(X),
        ClientScript::new(vec![PlannedOp::Read(X), PlannedOp::Write(X, 5)]),
    ]
}

#[test]
fn dpor_verdicts_match_plain_and_sleep_sets_across_the_catalogue() {
    let scripts = contended_scripts();
    let mut buggy_caught = false;
    for (name, factory) in factories(2, 1) {
        let plain = explore_with(&*factory, &scripts, &ExploreConfig::new(8).sequential());
        let sleep = explore_with(
            &*factory,
            &scripts,
            &ExploreConfig::new(8).sequential().with_sleep_sets(),
        );
        let dpor = explore_with(
            &*factory,
            &scripts,
            &ExploreConfig::new(8).sequential().with_dpor(),
        );
        assert_eq!(plain.schedules, 1 << 8, "{name}");
        assert_eq!(
            plain.all_opaque(),
            sleep.all_opaque(),
            "{name}: sleep sets changed the verdict"
        );
        assert_eq!(
            plain.all_opaque(),
            dpor.all_opaque(),
            "{name}: DPOR changed the verdict"
        );
        // DPOR explores a subset of real schedules: every violation it
        // reports must appear in the plain explorer's list verbatim
        // (schedule, history, detail and shortest failing prefix).
        for violation in &dpor.violations {
            assert!(
                plain.violations.contains(violation),
                "{name}: DPOR reported a violation the full exploration lacks: {violation:?}"
            );
        }
        assert!(
            dpor.schedules <= plain.schedules,
            "{name}: DPOR may never execute more schedules than the full tree"
        );
        if name == "fgp-literal" {
            assert!(
                !dpor.all_opaque() && !dpor.violations.is_empty(),
                "DPOR must still catch the literal-Fgp leak"
            );
            buggy_caught = true;
        }
    }
    assert!(buggy_caught);
}

#[test]
fn dpor_executes_strictly_fewer_schedules_at_three_processes() {
    // The headline reduction claim: at 3 processes the class structure is
    // rich enough that DPOR must beat both plain DFS and sleep sets
    // strictly, for every TM whose oracle admits any independence.
    let scripts = vec![
        ClientScript::increment(X),
        ClientScript::increment(X),
        ClientScript::read_both(X, Y),
    ];
    for (name, factory) in factories(3, 2) {
        if name == "global-lock" {
            continue; // audited all-conflicting oracle: no reduction, by design
        }
        let sleep = explore_with(
            &*factory,
            &scripts,
            &ExploreConfig::new(7).sequential().with_sleep_sets(),
        );
        let dpor = explore_with(
            &*factory,
            &scripts,
            &ExploreConfig::new(7).sequential().with_dpor(),
        );
        assert!(
            dpor.schedules < sleep.schedules,
            "{name}: DPOR ({}) must beat sleep sets ({})",
            dpor.schedules,
            sleep.schedules
        );
        assert_eq!(
            sleep.all_opaque(),
            dpor.all_opaque(),
            "{name}: verdicts diverged"
        );
    }
}

#[test]
fn conservative_oracles_degenerate_to_report_identical_full_exploration() {
    // The global-lock TM's audited oracle conflicts on every pair of
    // steps, so the DPOR walk must visit every schedule and reproduce
    // the plain DFS report byte for byte.
    let scripts = contended_scripts();
    let plain = explore_with(
        || Box::new(GlobalLock::new(2, 1)) as BoxedTm,
        &scripts,
        &ExploreConfig::new(8).sequential(),
    );
    let dpor = explore_with(
        || Box::new(GlobalLock::new(2, 1)) as BoxedTm,
        &scripts,
        &ExploreConfig::new(8).sequential().with_dpor(),
    );
    assert_eq!(plain, dpor);
}

#[test]
fn dpor_composes_with_dedup_and_the_parallel_frontier() {
    let scripts = contended_scripts();
    for (name, factory) in factories(2, 1) {
        let base = explore_with(
            &*factory,
            &scripts,
            &ExploreConfig::new(9).sequential().with_dpor(),
        );
        let deduped = explore_with(
            &*factory,
            &scripts,
            &ExploreConfig::new(9).sequential().with_dpor().with_dedup(),
        );
        assert_eq!(
            base.report(),
            deduped.report(),
            "{name}: dedup changed the DPOR report"
        );
        for split in [2, 4] {
            let par = explore_with(
                &*factory,
                &scripts,
                &ExploreConfig::new(9).with_split_depth(split).with_dpor(),
            );
            assert_eq!(
                base.all_opaque(),
                par.all_opaque(),
                "{name}: parallel DPOR changed the verdict at split {split}"
            );
            for violation in &par.violations {
                assert!(
                    !base.all_opaque(),
                    "{name}: parallel DPOR invented a violation at split {split}: {violation:?}"
                );
            }
        }
    }
}

#[test]
fn dpor_catches_the_leak_on_disjoint_variables_too() {
    // The non-vacuous cross-variable case from the sleep-set suite: Fgp
    // conflicts are CP-membership-based, not variable-based, so the
    // literal leak must survive aggressive same-and-cross-variable
    // reduction.
    let scripts = vec![
        ClientScript::increment(X),
        ClientScript::new(vec![PlannedOp::Read(Y), PlannedOp::Write(Y, 5)]),
    ];
    let dpor = explore_with(
        || tm_stm::literal_fgp(2, 2),
        &scripts,
        &ExploreConfig::new(9).sequential().with_dpor(),
    );
    assert!(
        !dpor.all_opaque(),
        "DPOR must preserve the cross-variable violation verdict"
    );
}

#[test]
fn optimal_dpor_verdicts_and_violation_subset_across_the_catalogue() {
    // The wakeup-tree walk is held to the same differential bar as
    // source sets — verdict parity with plain DFS on all nine TMs and a
    // verbatim violation subset on the seeded-buggy literal Fgp — plus
    // the optimality ordering: never more executed schedules than the
    // source-set walk.
    let scripts = contended_scripts();
    let mut buggy_caught = false;
    for (name, factory) in factories(2, 1) {
        let plain = explore_with(&*factory, &scripts, &ExploreConfig::new(8).sequential());
        let dpor = explore_with(
            &*factory,
            &scripts,
            &ExploreConfig::new(8).sequential().with_dpor(),
        );
        let optimal = explore_with(
            &*factory,
            &scripts,
            &ExploreConfig::new(8).sequential().with_optimal_dpor(),
        );
        assert_eq!(
            plain.all_opaque(),
            optimal.all_opaque(),
            "{name}: optimal DPOR changed the verdict"
        );
        for violation in &optimal.violations {
            assert!(
                plain.violations.contains(violation),
                "{name}: optimal DPOR reported a violation the full exploration lacks: \
                 {violation:?}"
            );
        }
        assert!(
            optimal.schedules <= dpor.schedules,
            "{name}: optimal DPOR ({}) may never execute more than source sets ({})",
            optimal.schedules,
            dpor.schedules
        );
        if name == "fgp-literal" {
            assert!(
                !optimal.all_opaque() && !optimal.violations.is_empty(),
                "optimal DPOR must still catch the literal-Fgp leak"
            );
            buggy_caught = true;
        }
    }
    assert!(buggy_caught);
}

#[test]
fn optimal_dpor_executes_at_most_one_schedule_per_class() {
    // The optimality oracle: replay every schedule the wakeup-tree walk
    // executed and reduce it to its class's canonical normal form — the
    // images must be pairwise distinct (at most one execution per
    // Mazurkiewicz class), bounded by the brute-force class count, and
    // no larger than the source-set walk's executed count. The absolute
    // counts are pinned so a regression in either direction (lost
    // coverage or lost reduction) fails loudly.
    use std::collections::HashSet;
    use tm_sim::{mazurkiewicz_classes, schedule_normal_form};
    let table: &[(usize, usize, usize)] = &[(2, 8, 33), (3, 6, 37)];
    for &(procs, depth, expected) in table {
        let scripts: Vec<ClientScript> = (0..procs)
            .map(|i| {
                if i == 2 {
                    ClientScript::read_both(X, Y)
                } else {
                    ClientScript::increment(X)
                }
            })
            .collect();
        let tvars = if procs > 2 { 2 } else { 1 };
        let factory = move || Box::new(FgpTm::new(procs, tvars, FgpVariant::CpOnly)) as BoxedTm;
        let optimal = explore_with(
            factory,
            &scripts,
            &ExploreConfig::new(depth)
                .sequential()
                .with_optimal_dpor()
                .with_schedule_log(),
        );
        assert!(optimal.all_opaque());
        assert_eq!(
            optimal.schedule_log.len(),
            optimal.schedules,
            "{procs}p depth {depth}: the log must record every executed schedule"
        );
        let normals: HashSet<Vec<u8>> = optimal
            .schedule_log
            .iter()
            .map(|s| schedule_normal_form(factory, &scripts, s))
            .collect();
        assert_eq!(
            normals.len(),
            optimal.schedules,
            "{procs}p depth {depth}: two executed schedules share a Mazurkiewicz class"
        );
        let classes = mazurkiewicz_classes(factory, &scripts, depth);
        assert!(
            optimal.schedules <= classes,
            "{procs}p depth {depth}: executed {} exceeds the {} classes",
            optimal.schedules,
            classes
        );
        let dpor = explore_with(
            factory,
            &scripts,
            &ExploreConfig::new(depth).sequential().with_dpor(),
        );
        assert!(
            optimal.schedules <= dpor.schedules,
            "{procs}p depth {depth}: optimal ({}) exceeded source sets ({})",
            optimal.schedules,
            dpor.schedules
        );
        assert_eq!(
            optimal.schedules, expected,
            "{procs}p depth {depth}: pinned executed-schedule count moved"
        );
    }
}

#[test]
fn optimal_dpor_never_starts_a_sleep_blocked_execution() {
    // The headline optimality property, as telemetry: in optimal mode
    // `SleepBlockedExecutions` — wakeup-tree edges popped with their
    // head asleep — is exactly zero on every TM and shape, while the
    // source-set walk's analogue (backtrack branches its sleep set
    // suppressed) is demonstrably nonzero on the same 3-process
    // workload. Together: the redundancy source sets schedule-and-drop
    // is real, and wakeup trees never schedule it.
    use tm_telemetry::{Counter, Telemetry};
    let scripts = vec![
        ClientScript::increment(X),
        ClientScript::increment(X),
        ClientScript::read_both(X, Y),
    ];
    for (name, factory) in factories(3, 2) {
        let telemetry = Telemetry::counters();
        explore_with(
            &*factory,
            &scripts,
            &ExploreConfig::new(6)
                .sequential()
                .with_optimal_dpor()
                .with_telemetry(&telemetry),
        );
        assert_eq!(
            telemetry.snapshot().get(Counter::SleepBlockedExecutions),
            0,
            "{name}: optimal DPOR started a redundant execution"
        );
    }
    let source_telemetry = Telemetry::counters();
    explore_with(
        || Box::new(FgpTm::new(3, 2, FgpVariant::CpOnly)) as BoxedTm,
        &scripts,
        &ExploreConfig::new(6)
            .sequential()
            .with_dpor()
            .with_telemetry(&source_telemetry),
    );
    assert!(
        source_telemetry
            .snapshot()
            .get(Counter::SleepBlockedExecutions)
            > 0,
        "the source-set walk must suppress some backtrack branches here \
         (otherwise the comparison is vacuous)"
    );
}

#[test]
fn optimal_dpor_is_deterministic_across_rayon_thread_counts() {
    // With the split depth pinned, the parallel wakeup-tree walk's
    // report — executed schedules, fallbacks, violations, in merge
    // order — must be byte-identical at any worker count.
    let scripts = vec![
        ClientScript::increment(X),
        ClientScript::increment(X),
        ClientScript::read_both(X, Y),
    ];
    let run_at = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| {
            explore_with(
                || Box::new(FgpTm::new(3, 2, FgpVariant::CpOnly)) as BoxedTm,
                &scripts,
                &ExploreConfig::new(7)
                    .with_split_depth(2)
                    .with_optimal_dpor(),
            )
        })
    };
    let baseline = run_at(1);
    assert!(baseline.all_opaque());
    for threads in [2, 4] {
        assert_eq!(baseline, run_at(threads), "{threads} threads");
    }
}

#[test]
fn optimal_dpor_degenerates_to_full_exploration_for_conservative_oracles() {
    // Same bar as the source-set walk: the global-lock TM's audited
    // oracle conflicts on every pair, so wakeup trees must reproduce the
    // plain DFS report byte for byte.
    let scripts = contended_scripts();
    let plain = explore_with(
        || Box::new(GlobalLock::new(2, 1)) as BoxedTm,
        &scripts,
        &ExploreConfig::new(8).sequential(),
    );
    let optimal = explore_with(
        || Box::new(GlobalLock::new(2, 1)) as BoxedTm,
        &scripts,
        &ExploreConfig::new(8).sequential().with_optimal_dpor(),
    );
    assert_eq!(plain, optimal);
}

/// The 3-process shape of the explorer benchmark: two increments of
/// `x` and a reader of both variables.
fn three_process_scripts() -> Vec<ClientScript> {
    vec![
        ClientScript::increment(X),
        ClientScript::increment(X),
        ClientScript::read_both(X, Y),
    ]
}

#[test]
fn dpor_counts_are_pinned_across_the_catalogue() {
    // Both DPOR walks are deterministic functions of the TM and the
    // scripts, so these counts pin every decision they make: a change
    // to race detection, wakeup-tree insertion or the vector clocks
    // that alters any decision moves a count here, per TM. A change
    // meant to keep the walks' decisions must keep the table.
    use tm_telemetry::{Counter, Telemetry};
    // (tm, optimal: schedules, races, wakeup inserts, wakeup redundant;
    //  source sets: schedules, races, sleep-blocked executions)
    type Row = (&'static str, usize, u64, u64, u64, usize, u64, u64);
    const PINNED: [Row; 9] = [
        ("fgp", 169, 559, 173, 391, 330, 947, 103),
        ("fgp-strict", 353, 1154, 353, 802, 459, 1336, 91),
        ("tl2", 6, 12, 5, 7, 9, 18, 2),
        ("tinystm", 1130, 5204, 1129, 4075, 1130, 5204, 137),
        ("swisstm", 5325, 18122, 5336, 12798, 5457, 18278, 304),
        ("norec", 100, 302, 99, 203, 158, 425, 46),
        ("ostm", 100, 302, 99, 203, 158, 425, 46),
        ("dstm", 1493, 5693, 1492, 4201, 1911, 6227, 273),
        ("global-lock", 6561, 19680, 6560, 13120, 6561, 19680, 0),
    ];
    let scripts = three_process_scripts();
    assert_eq!(tm_stm::full_catalog(3, 2).len(), PINNED.len());
    for (i, row) in PINNED.iter().enumerate() {
        let factory = move || tm_stm::full_catalog(3, 2).swap_remove(i);
        let name = factory().name();
        assert_eq!(name, row.0, "catalogue order moved");
        let run = |config: ExploreConfig| {
            let telemetry = Telemetry::counters();
            let report = explore_with(factory, &scripts, &config.with_telemetry(&telemetry));
            assert!(report.all_opaque(), "{name}");
            (report.schedules, telemetry.snapshot())
        };
        let (optimal, o) = run(ExploreConfig::new(8).sequential().with_optimal_dpor());
        let (source, d) = run(ExploreConfig::new(8).sequential().with_dpor());
        let measured: Row = (
            name,
            optimal,
            o.get(Counter::DporRaces),
            o.get(Counter::WakeupInserts),
            o.get(Counter::WakeupRedundant),
            source,
            d.get(Counter::DporRaces),
            d.get(Counter::SleepBlockedExecutions),
        );
        assert_eq!(measured, *row, "{name}: pinned DPOR counts moved");
    }
}

#[test]
fn optimal_dpor_ignores_dedup_and_never_probes_the_memo() {
    // The optimal walk keeps no memo: a subtree cache keyed on the
    // pending wakeup tree never hit, and a configuration-keyed one is
    // unsound under wakeup trees without stateful DPOR. Asking for
    // dedup must therefore change nothing — not the report, not the
    // executed schedules — and no memo probe may happen.
    use tm_telemetry::{Counter, Telemetry};
    let scripts = three_process_scripts();
    let mut factories = factories(3, 2);
    factories.retain(|(name, _)| ["fgp", "swisstm", "fgp-literal"].contains(name));
    for (name, factory) in factories {
        for config in [
            ExploreConfig::new(8).sequential(),
            ExploreConfig::new(8).with_split_depth(2),
        ] {
            let config = config.with_optimal_dpor();
            let plain = explore_with(&*factory, &scripts, &config);
            let telemetry = Telemetry::counters();
            let deduped = explore_with(
                &*factory,
                &scripts,
                &config.clone().with_dedup().with_telemetry(&telemetry),
            );
            assert_eq!(plain.report(), deduped.report(), "{name}");
            assert_eq!(plain.schedules, deduped.schedules, "{name}");
            assert_eq!(deduped.dedup_hits, 0, "{name}");
            let snapshot = telemetry.snapshot();
            assert_eq!(snapshot.get(Counter::MemoHits), 0, "{name}");
            assert_eq!(snapshot.get(Counter::MemoMisses), 0, "{name}");
        }
    }
}

#[test]
fn race_detection_is_timed_only_with_timing_enabled() {
    // `Timer::DporRace` times each node's race detection in both DPOR
    // walks; without timing the histogram stays empty.
    use tm_telemetry::{Telemetry, Timer};
    let scripts = three_process_scripts();
    let factory = || Box::new(FgpTm::new(3, 2, FgpVariant::CpOnly)) as BoxedTm;
    for config in [
        ExploreConfig::new(5).sequential().with_optimal_dpor(),
        ExploreConfig::new(5).sequential().with_dpor(),
    ] {
        let off = Telemetry::counters();
        explore_with(factory, &scripts, &config.clone().with_telemetry(&off));
        assert_eq!(off.timer_total(Timer::DporRace), 0);
        let timed = Telemetry::counters().with_timing();
        explore_with(factory, &scripts, &config.with_telemetry(&timed));
        assert!(timed.timer_total(Timer::DporRace) > 0);
    }
}

#[test]
fn livecheck_reduction_is_byte_identical_across_the_catalogue() {
    // The liveness reduction's bar is stricter than the safety
    // explorer's: the state graph, every lasso and every certified
    // starvation verdict must be unchanged — only TM executions drop.
    let scripts = vec![
        ClientScript::new(vec![PlannedOp::Write(X, 1)]),
        ClientScript::new(vec![PlannedOp::Read(X), PlannedOp::Write(X, 2)]),
    ];
    for (name, factory) in factories(2, 1) {
        let plain = livecheck(&*factory, &scripts, &LivecheckConfig::new(12));
        let reduced = livecheck(
            &*factory,
            &scripts,
            &LivecheckConfig::new(12).with_reduction(),
        );
        assert_eq!(plain.states, reduced.states, "{name}: states diverged");
        assert_eq!(plain.edges, reduced.edges, "{name}: edges diverged");
        assert_eq!(
            plain.cycles_detected, reduced.cycles_detected,
            "{name}: cycle counts diverged"
        );
        assert_eq!(
            plain.lassos.len(),
            reduced.lassos.len(),
            "{name}: lasso sets diverged"
        );
        for (a, b) in plain.lassos.iter().zip(&reduced.lassos) {
            assert_eq!(a.schedule_prefix, b.schedule_prefix, "{name}");
            assert_eq!(a.schedule_cycle, b.schedule_cycle, "{name}");
            assert_eq!(a.classes, b.classes, "{name}");
        }
        assert_eq!(
            plain.verdicts, reduced.verdicts,
            "{name}: verdicts diverged"
        );
        assert_eq!(
            plain.lasso_starvation_free(),
            reduced.lasso_starvation_free(),
            "{name}"
        );
        // Conservation: every edge walk is executed once or replayed.
        assert_eq!(
            plain.steps,
            reduced.steps + reduced.replayed_steps,
            "{name}: step accounting broke"
        );
        assert!(
            reduced.replayed_steps > 0,
            "{name}: the reduction never fired at depth 12"
        );
    }
}

#[test]
fn parasitic_starvation_analysis_survives_both_reductions() {
    // Figure 12's parasitic-reader shape, end to end: the DPOR safety
    // sweep stays opaque and the reduced livecheck still certifies the
    // parasitic cycle.
    let scripts = vec![
        ClientScript::new(vec![PlannedOp::Read(X)]),
        ClientScript::new(vec![PlannedOp::Read(X), PlannedOp::Write(X, 2)]),
    ];
    let factory = || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)) as BoxedTm;
    let sweep = explore_with(factory, &scripts, &ExploreConfig::new(10).with_dpor());
    assert!(sweep.all_opaque());
    let report = livecheck(
        factory,
        &scripts,
        &LivecheckConfig::new(10)
            .with_parasitic(ProcessId(0))
            .with_reduction(),
    );
    assert!(report.parasitic_processes().contains(&ProcessId(0)));
    assert!(report.replayed_steps > 0);
}

//! Certified cycle-existence verdicts over explored state graphs.
//!
//! The liveness model checker (`tm_sim::livecheck`) records the explored
//! configuration graph explicitly and needs **completeness** claims over
//! it — "no cycle starves process `p` within the bound" — that on-path
//! lasso detection cannot give once a seen set prunes re-expansion. This
//! module decides cycle existence exactly, per process, by strongly
//! connected components (Tarjan over edge-filtered views of the graph):
//! an edge lies on a cycle of a filtered graph iff both endpoints share
//! an SCC.
//!
//! [`certify`] is the one entry point. It labels the unrestricted graph
//! once (for the `progressing` claims) and then, per process and per
//! recurring shape — starving, parasitic, blocked — labels the
//! shape's filtered graph once and reads *both* verdicts off that one
//! labelling: the plain flag ([`ProcessCycleVerdicts`]: some want edge
//! is intra-component) and the fairness-filtered flags
//! ([`FairProcessVerdicts`]: some such component also schedules every
//! live process). With `n` processes that is `1 + 3n` Tarjan passes.
//! The passes run sequentially: on the checker's graphs, fanning the
//! processes over a thread pool bought no wall time and cost memory.

use tm_core::ProcessId;

/// One labelled edge of an explored configuration graph, in the compact
/// form the cycle certificates need: the scheduled process and what its
/// step did (event count, commit/abort delivery, `tryC` invocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleEdge {
    /// Index of the target node in the graph's node vector.
    pub target: u32,
    /// The process whose step this edge is.
    pub process: u8,
    /// How many events the step produced (0 for a blocked poll).
    pub events: u8,
    /// The step delivered `Committed` to its process.
    pub committed: bool,
    /// The step delivered `Aborted` to its process.
    pub aborted: bool,
    /// The step invoked `tryC`.
    pub tryc: bool,
}

/// Certified cycle-existence verdicts for one process over an explored
/// subgraph (see the module docs).
///
/// Each flag is an independent **existential** claim — "some cycle with
/// this shape exists" — and different flags are generally witnessed by
/// *different* cycles, so several can hold at once. In particular a
/// process modelled as parasitic (it never invokes `tryC`) can be
/// certified both `parasitic` (a cycle where its reads succeed forever)
/// *and* `starving` (a cycle where the TM aborts those reads forever):
/// by the paper's Figure 2 definitions a history with infinitely many
/// `A_k` is **not** parasitic — the process is correct and pending,
/// i.e. starving — and [`crate::classify()`] returns exactly that on the
/// corresponding lasso witnesses. Within any *one* cycle the classes
/// remain mutually exclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessCycleVerdicts {
    /// The process.
    pub process: ProcessId,
    /// A cycle commits the process infinitely often.
    pub progressing: bool,
    /// A cycle aborts the process infinitely often and never commits it.
    pub starving: bool,
    /// A cycle gives the process infinitely many events but finitely
    /// many `tryC`/aborts.
    pub parasitic: bool,
    /// A cycle schedules the process forever without the TM ever
    /// responding (blocking, the Figure 14 shape).
    pub blocked: bool,
}

/// Iterative Tarjan SCC over the graph, restricted to edges passing
/// `keep`. Returns the component id of every node.
pub fn sccs(graph: &[Vec<CycleEdge>], keep: impl Fn(&CycleEdge) -> bool) -> Vec<u32> {
    const UNVISITED: u32 = u32::MAX;
    let n = graph.len();
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0u32; n];
    let mut comp = vec![UNVISITED; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut next_comp = 0u32;
    // (node, next edge offset) — an explicit call stack.
    let mut call: Vec<(u32, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        call.push((root as u32, 0));
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root as u32);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut edge)) = call.last_mut() {
            let vu = v as usize;
            let next = graph[vu][*edge..].iter().position(&keep);
            if let Some(offset) = next {
                *edge += offset + 1;
                let w = graph[vu][*edge - 1].target;
                let wu = w as usize;
                if index[wu] == UNVISITED {
                    index[wu] = next_index;
                    low[wu] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[wu] = true;
                    call.push((w, 0));
                } else if on_stack[wu] {
                    low[vu] = low[vu].min(index[wu]);
                }
            } else {
                call.pop();
                if low[vu] == index[vu] {
                    loop {
                        let w = stack.pop().expect("root still on stack");
                        on_stack[w as usize] = false;
                        comp[w as usize] = next_comp;
                        if w == v {
                            break;
                        }
                    }
                    next_comp += 1;
                }
                if let Some(&(parent, _)) = call.last() {
                    let pu = parent as usize;
                    low[pu] = low[pu].min(low[vu]);
                }
            }
        }
    }
    comp
}

/// Whether some kept edge passing `want` lies on a cycle of the
/// `keep`-restricted graph (both endpoints in one SCC).
pub fn cycle_edge_exists(
    graph: &[Vec<CycleEdge>],
    keep: impl Fn(&CycleEdge) -> bool + Copy,
    want: impl Fn(&CycleEdge) -> bool,
) -> bool {
    let comp = sccs(graph, keep);
    graph.iter().enumerate().any(|(u, edges)| {
        edges
            .iter()
            .any(|e| keep(e) && want(e) && comp[u] == comp[e.target as usize])
    })
}

/// Fairness-filtered cycle-existence verdicts for one process.
///
/// The plain [`ProcessCycleVerdicts`] quantify over *all* cycles — a
/// starving verdict may be witnessed by a lasso whose scheduler simply
/// abandons every other process. The fair verdicts restrict each
/// existential claim to cycles along which **every live (non-crashed)
/// process is scheduled infinitely often** — the weak-fairness filter of
/// the paper's §2 schedules. A flag that holds unfairly but not fairly
/// is therefore *scheduler-induced*; a flag that survives the filter is
/// induced by the TM itself (or, when [`FairProcessVerdicts::crash_victim`]
/// is set, by a crash the TM cannot recover from — the Theorem 1
/// adversary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FairProcessVerdicts {
    /// The process.
    pub process: ProcessId,
    /// A fair cycle aborts the process infinitely often, never commits it.
    pub starving: bool,
    /// A fair cycle gives the process infinitely many events but finitely
    /// many `tryC`/aborts.
    pub parasitic: bool,
    /// A fair cycle schedules the process forever without a response.
    pub blocked: bool,
    /// Some witnessing fair starving/blocked cycle runs in a region of
    /// the graph where at least one process has crashed: the starvation
    /// is crash-induced (Theorem 1's shape), not reachable fault-free.
    pub crash_victim: bool,
}

/// The verdicts one shape's filtered graph yields: the plain
/// existential claim, its fairness-filtered strengthening, and whether a
/// fair witness runs where some process has crashed.
#[derive(Debug, Clone, Copy, Default)]
struct ShapeVerdict {
    any: bool,
    fair: bool,
    crash_victim: bool,
}

/// Labels the `keep`-restricted graph once and decides, from that one
/// labelling, whether some component contains an intra-component `want`
/// edge (`any`), and whether some such component also has
/// intra-component kept edges of every live process (`fair`) — the exact
/// criterion for a **fair** cycle with the wanted recurring shape.
///
/// Soundness and completeness of `fair` both follow from strong
/// connectivity: any fair cycle lies inside one SCC of the kept graph and
/// contributes an intra-component edge per live process plus the
/// recurring want edge; conversely, given those edges, strong
/// connectivity stitches them into one closed walk that schedules every
/// live process and repeats the want edge infinitely often.
///
/// `crashed` gives the per-node crashed-process mask (all zeros for a
/// fault-free graph). Fault masks only grow along edges, so every node
/// of a cycle-bearing SCC carries the same mask; processes crashed in a
/// component are exempt from its fairness obligation. `crash_victim`
/// reports whether some fair witnessing component has a non-empty
/// crashed mask.
fn shape_verdict(
    graph: &[Vec<CycleEdge>],
    crashed: &[u64],
    live_mask: u64,
    keep: impl Fn(&CycleEdge) -> bool + Copy,
    want: impl Fn(&CycleEdge) -> bool,
) -> ShapeVerdict {
    let comp = sccs(graph, keep);
    let ncomp = comp.iter().copied().max().map_or(0, |c| c as usize + 1);
    // Per component: which processes have a kept intra-component edge,
    // whether a want edge is intra-component, and the component's
    // crashed mask.
    let mut scheduled = vec![0u64; ncomp];
    let mut want_hit = vec![false; ncomp];
    let mut comp_crashed = vec![0u64; ncomp];
    for (u, edges) in graph.iter().enumerate() {
        let c = comp[u] as usize;
        comp_crashed[c] |= crashed[u];
        for e in edges {
            if keep(e) && comp[u] == comp[e.target as usize] {
                scheduled[c] |= 1 << e.process;
                if want(e) {
                    want_hit[c] = true;
                }
            }
        }
    }
    let mut verdict = ShapeVerdict::default();
    for c in 0..ncomp {
        if !want_hit[c] {
            continue;
        }
        verdict.any = true;
        if (scheduled[c] | comp_crashed[c]) & live_mask == live_mask {
            verdict.fair = true;
            verdict.crash_victim |= comp_crashed[c] != 0;
        }
    }
    verdict
}

/// Certifies cycle existence for every process over the explored graph:
/// the plain starving/parasitic/blocked/progressing verdicts and their
/// fairness-filtered counterparts (see the module docs). `crashed[u]` is
/// the crashed-process mask at node `u` (all zeros for a fault-free
/// graph); crashed processes are exempt from the fairness obligation of
/// the components they crashed in.
///
/// Each fair verdict is derived from the same filtered labelling as the
/// plain one, so `fair.starving → plain.starving` etc. by construction.
///
/// # Panics
///
/// If `crashed` is not one mask per graph node.
pub fn certify(
    graph: &[Vec<CycleEdge>],
    crashed: &[u64],
    processes: usize,
) -> (Vec<ProcessCycleVerdicts>, Vec<FairProcessVerdicts>) {
    assert_eq!(crashed.len(), graph.len(), "one crashed mask per node");
    let live_mask = if processes >= 64 {
        u64::MAX
    } else {
        (1u64 << processes) - 1
    };
    let full = sccs(graph, |_| true);
    (0..processes)
        .map(|k| {
            let p = u8::try_from(k).expect("≤ 64 processes");
            let progressing = graph.iter().enumerate().any(|(u, edges)| {
                edges
                    .iter()
                    .any(|e| e.process == p && e.committed && full[u] == full[e.target as usize])
            });
            let starving = shape_verdict(
                graph,
                crashed,
                live_mask,
                |e| !(e.process == p && e.committed),
                |e| e.process == p && e.aborted,
            );
            let parasitic = shape_verdict(
                graph,
                crashed,
                live_mask,
                |e| !(e.process == p && (e.committed || e.aborted || e.tryc)),
                |e| e.process == p && e.events > 0,
            );
            let blocked = shape_verdict(
                graph,
                crashed,
                live_mask,
                |e| !(e.process == p && e.events > 0),
                |e| e.process == p && e.events == 0,
            );
            (
                ProcessCycleVerdicts {
                    process: ProcessId(k),
                    progressing,
                    starving: starving.any,
                    parasitic: parasitic.any,
                    blocked: blocked.any,
                },
                FairProcessVerdicts {
                    process: ProcessId(k),
                    starving: starving.fair,
                    parasitic: parasitic.fair,
                    blocked: blocked.fair,
                    crash_victim: starving.crash_victim || blocked.crash_victim,
                },
            )
        })
        .unzip()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(target: u32, process: u8, committed: bool, aborted: bool) -> CycleEdge {
        CycleEdge {
            target,
            process,
            events: 2,
            committed,
            aborted,
            tryc: committed || aborted,
        }
    }

    fn plain_verdicts(graph: &[Vec<CycleEdge>], processes: usize) -> Vec<ProcessCycleVerdicts> {
        certify(graph, &vec![0; graph.len()], processes).0
    }

    fn fair_verdicts(
        graph: &[Vec<CycleEdge>],
        crashed: &[u64],
        processes: usize,
    ) -> Vec<FairProcessVerdicts> {
        certify(graph, crashed, processes).1
    }

    /// Two nodes in a loop: p0 commits around the cycle, p1 aborts
    /// around it.
    fn starving_graph() -> Vec<Vec<CycleEdge>> {
        vec![vec![edge(1, 0, true, false)], vec![edge(0, 1, false, true)]]
    }

    #[test]
    fn starving_and_progressing_are_certified() {
        let graph = starving_graph();
        let verdicts = plain_verdicts(&graph, 2);
        assert!(verdicts[0].progressing && !verdicts[0].starving);
        assert!(verdicts[1].starving && !verdicts[1].progressing);
    }

    #[test]
    fn deleting_the_cycle_edge_kills_the_verdict() {
        // A dead-end tail: no cycles at all.
        let graph = vec![vec![edge(1, 0, true, false)], vec![]];
        let verdicts = plain_verdicts(&graph, 2);
        assert!(verdicts.iter().all(|v| !v.progressing && !v.starving));
    }

    #[test]
    fn blocked_needs_an_eventless_cycle_edge(// the Figure 14 shape
    ) {
        let mut graph = starving_graph();
        // p1 also spins a self-loop poll with no events at node 0.
        graph[0].push(CycleEdge {
            target: 0,
            process: 1,
            events: 0,
            committed: false,
            aborted: false,
            tryc: false,
        });
        let verdicts = plain_verdicts(&graph, 2);
        assert!(verdicts[1].blocked);
        assert!(!verdicts[0].blocked);
    }

    /// The shape filters of `certify`, restated: `(keep, want)` for
    /// starving, parasitic and blocked.
    type Filter = fn(&CycleEdge, u8) -> bool;
    const SHAPES: [(Filter, Filter); 3] = [
        (
            |e, p| !(e.process == p && e.committed),
            |e, p| e.process == p && e.aborted,
        ),
        (
            |e, p| !(e.process == p && (e.committed || e.aborted || e.tryc)),
            |e, p| e.process == p && e.events > 0,
        ),
        (
            |e, p| !(e.process == p && e.events > 0),
            |e, p| e.process == p && e.events == 0,
        ),
    ];

    /// Reflexive reachability over the kept edges, by DFS from every node.
    fn reach(graph: &[Vec<CycleEdge>], keep: impl Fn(&CycleEdge) -> bool) -> Vec<Vec<bool>> {
        (0..graph.len())
            .map(|root| {
                let mut seen = vec![false; graph.len()];
                let mut stack = vec![root];
                seen[root] = true;
                while let Some(u) = stack.pop() {
                    for e in graph[u].iter().filter(|e| keep(e)) {
                        let v = e.target as usize;
                        if !seen[v] {
                            seen[v] = true;
                            stack.push(v);
                        }
                    }
                }
                seen
            })
            .collect()
    }

    /// The naive fair check: for every kept want edge on a cycle, collect
    /// its strongly connected node set by mutual reachability and ask
    /// whether that set schedules (or has crashed) every live process.
    /// Returns `(fair, crash_victim)`.
    fn naive_fair(
        graph: &[Vec<CycleEdge>],
        crashed: &[u64],
        processes: usize,
        keep: impl Fn(&CycleEdge) -> bool + Copy,
        want: impl Fn(&CycleEdge) -> bool,
    ) -> (bool, bool) {
        let r = reach(graph, keep);
        let live = (1u64 << processes) - 1;
        let (mut fair, mut victim) = (false, false);
        for (u, edges) in graph.iter().enumerate() {
            for e in edges {
                let v = e.target as usize;
                if !(keep(e) && want(e) && r[v][u]) {
                    continue;
                }
                let member = |x: usize| r[u][x] && r[x][u];
                let mut scheduled = 0u64;
                let mut dead = 0u64;
                for (x, out) in graph.iter().enumerate().filter(|&(x, _)| member(x)) {
                    dead |= crashed[x];
                    for f in out {
                        if keep(f) && member(f.target as usize) {
                            scheduled |= 1 << f.process;
                        }
                    }
                }
                if (scheduled | dead) & live == live {
                    fair = true;
                    victim |= dead != 0;
                }
            }
        }
        (fair, victim)
    }

    /// A seeded random graph shaped like a fault-prone state graph:
    /// crashed masks only grow along edges and crashed processes take
    /// no steps.
    fn random_graph(seed: u64, processes: usize) -> (Vec<Vec<CycleEdge>>, Vec<u64>) {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move |bound: u64| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % bound
        };
        let n = 1 + next(10) as usize;
        let crashed: Vec<u64> = (0..n)
            .map(|_| match next(4) {
                0 => 1 << next(processes as u64),
                _ => 0,
            })
            .collect();
        let mut graph = vec![Vec::new(); n];
        for _ in 0..next(4 * n as u64 + 1) {
            let (u, v) = (next(n as u64) as usize, next(n as u64) as usize);
            let process = next(processes as u64) as u8;
            if crashed[u] & !crashed[v] != 0 || crashed[u] & 1 << process != 0 {
                continue;
            }
            let (events, committed, aborted, tryc) = match next(5) {
                0 => (0, false, false, false),
                1 => (1, false, false, false),
                2 => (2, true, false, true),
                3 => (2, false, true, next(2) == 0),
                _ => (1, false, false, true),
            };
            graph[u].push(CycleEdge {
                target: v as u32,
                process,
                events,
                committed,
                aborted,
                tryc,
            });
        }
        (graph, crashed)
    }

    #[test]
    fn certify_matches_a_per_filter_oracle_on_random_graphs() {
        let mut fair_hits = 0;
        for seed in 0..600u64 {
            let processes = 1 + (seed % 3) as usize;
            let (graph, crashed) = random_graph(seed, processes);
            let (plain, fair) = certify(&graph, &crashed, processes);
            assert_eq!((plain.len(), fair.len()), (processes, processes));
            for k in 0..processes {
                let p = k as u8;
                let oracle: Vec<(bool, (bool, bool))> = SHAPES
                    .iter()
                    .map(|&(keep, want)| {
                        let keep = move |e: &CycleEdge| keep(e, p);
                        let want = move |e: &CycleEdge| want(e, p);
                        (
                            cycle_edge_exists(&graph, keep, want),
                            naive_fair(&graph, &crashed, processes, keep, want),
                        )
                    })
                    .collect();
                let progressing =
                    cycle_edge_exists(&graph, |_| true, |e| e.process == p && e.committed);
                let ctx = format!("seed {seed}, process {k}: {graph:?} {crashed:?}");
                assert_eq!(
                    plain[k],
                    ProcessCycleVerdicts {
                        process: ProcessId(k),
                        progressing,
                        starving: oracle[0].0,
                        parasitic: oracle[1].0,
                        blocked: oracle[2].0,
                    },
                    "{ctx}"
                );
                assert_eq!(
                    fair[k],
                    FairProcessVerdicts {
                        process: ProcessId(k),
                        starving: oracle[0].1 .0,
                        parasitic: oracle[1].1 .0,
                        blocked: oracle[2].1 .0,
                        crash_victim: oracle[0].1 .1 || oracle[2].1 .1,
                    },
                    "{ctx}"
                );
                fair_hits += usize::from(fair[k].starving || fair[k].blocked);
            }
        }
        // The generator must actually produce fair witnesses.
        assert!(fair_hits > 20, "only {fair_hits} fair witnesses");
    }

    #[test]
    fn fair_starving_requires_every_live_process_on_the_cycle() {
        // Both processes scheduled around the loop: p1's starvation
        // survives the fairness filter and is not crash-induced.
        let graph = starving_graph();
        let fair = fair_verdicts(&graph, &[0, 0], 2);
        assert!(fair[1].starving && !fair[1].crash_victim);
        assert!(!fair[0].starving);

        // A self-loop aborting p1 while p0 is never scheduled: p1
        // starves unfairly (the scheduler abandons p0) but NOT fairly.
        let abandoned = vec![vec![edge(0, 1, false, true)]];
        let unfair = plain_verdicts(&abandoned, 2);
        assert!(unfair[1].starving);
        let fair = fair_verdicts(&abandoned, &[0], 2);
        assert!(!fair[1].starving);
    }

    #[test]
    fn crashed_processes_are_exempt_and_flagged() {
        // p0 has crashed (mask bit 0 set at both nodes); p1 aborts
        // around the loop alone. Fairness no longer owes p0 a slot, so
        // the starvation is certified fair — and crash-induced.
        let graph = vec![vec![edge(1, 1, false, true)], vec![edge(0, 1, false, true)]];
        let fair = fair_verdicts(&graph, &[1, 1], 2);
        assert!(fair[1].starving);
        assert!(fair[1].crash_victim);

        // The same graph with nobody crashed: unfair only.
        let fair = fair_verdicts(&graph, &[0, 0], 2);
        assert!(!fair[1].starving);
    }

    #[test]
    fn fair_blocked_needs_the_other_process_in_the_same_component() {
        // p1 spins an eventless poll at node 0 while p0 commits a
        // self-loop at the same node: the kept graph for "p1 blocked"
        // keeps both, one SCC schedules both processes → fair blocked.
        let eventless = |target: u32| CycleEdge {
            target,
            process: 1,
            events: 0,
            committed: false,
            aborted: false,
            tryc: false,
        };
        let graph = vec![vec![edge(0, 0, true, false), eventless(0)]];
        let fair = fair_verdicts(&graph, &[0], 2);
        assert!(fair[1].blocked && !fair[1].crash_victim);
        // Fair implies unfair by construction.
        assert!(plain_verdicts(&graph, 2)[1].blocked);

        // Without p0's self-loop the same poll cycle abandons p0: the
        // unfair verdict stays, the fair one falls.
        let lonely = vec![vec![eventless(0)]];
        assert!(plain_verdicts(&lonely, 2)[1].blocked);
        assert!(!fair_verdicts(&lonely, &[0], 2)[1].blocked);
    }
}

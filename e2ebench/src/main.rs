//! End-to-end and per-layer benchmark of the three checkers.
//!
//! One process runs one *repetition* of a workload (`rep`) or one traced
//! layer breakdown (`trace`) and prints a single JSON line on standard
//! output; `run.py` in this directory drives repetitions, aggregates
//! medians and prints the benchmark's result line. See `README.md` for
//! the workloads, the metrics and the metric → layer → workload map.
//!
//! ```text
//! e2ebench rep   --workload <name> --seed <n>
//! e2ebench trace --workload <name> --seed <n>
//! ```
//!
//! Workloads: `explore-catalogue`, `livecheck-faults`, `online-bank`.

mod explore;
mod layers;
mod livecheck;
mod online;
mod out;

use out::Out;

fn usage() -> ! {
    eprintln!("usage: e2ebench <rep|trace> --workload <name> --seed <n>");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or_else(|| usage());
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| usage())
    };
    let workload = flag("--workload");
    let seed: u64 = flag("--seed").parse().unwrap_or_else(|_| usage());
    let out = match (mode, workload.as_str()) {
        ("rep", "explore-catalogue") => explore::rep(seed),
        ("rep", "livecheck-faults") => livecheck::rep(seed),
        ("rep", "online-bank") => online::rep(seed),
        ("trace", "explore-catalogue") => trace(explore::trace(seed), seed, "explore"),
        ("trace", "livecheck-faults") => trace(livecheck::trace(seed), seed, "livecheck"),
        ("trace", "online-bank") => trace(online::trace(seed), seed, "online"),
        _ => usage(),
    };
    println!("{}", out.to_json());
}

/// Completes a workload's traced breakdown with the rows of the layers
/// it leaves idle, measured on the other workloads' reduced-scale
/// inputs, so every traced run prints every per-layer metric. The
/// workload's own rows take precedence.
fn trace(mut own: Out, seed: u64, workload: &str) -> Out {
    if workload != "explore" {
        own.fill_from(explore::probe(seed));
    }
    if workload != "livecheck" {
        own.fill_from(livecheck::probe(seed));
    }
    if workload != "online" {
        own.fill_from(online::probe(seed));
    }
    own
}

#!/usr/bin/env python3
"""End-to-end benchmark of the three checkers.

Run from the root of the repository:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the `e2ebench` binary (its own cargo package in this directory),
then

* with `--trace 0` runs untraced repetitions of the workload, one
  process each, for `--seconds` seconds (at least three), and reports the
  medians of the end-to-end metrics: set-up time, time to the checked
  verdict table and peak resident memory;
* with `--trace 1` runs one traced breakdown and reports every per-layer
  metric.

The last line of standard output is the result:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
The run envelope (cores, worker threads, seed, rustc version, source
revision) goes to standard error, and with `--out FILE` the envelope and
the result are appended to FILE as one JSON line. Two such files are
compared with

    python3 e2ebench/run.py compare BASE.jsonl NEW.jsonl

which refuses to compare runs made on different core or thread counts.
See README.md for the workloads and the metric map.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("explore-catalogue", "livecheck-faults", "online-bank")
MIN_REPS = 3
# A child process past this many seconds is killed and counted as failed.
CHILD_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the benchmark binary; exits non-zero if that fails."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("e2ebench: build failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(os.path.abspath(target), "release", "e2ebench")
    if not os.path.isfile(binary):
        sys.exit(f"e2ebench: no binary at {binary}")
    return binary


def run_child(argv):
    """Runs one benchmark process; returns (parsed last stdout line or
    None, peak resident set in MiB, wall-clock start)."""
    started = time.time()
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
    timer.start()
    try:
        stdout = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        timer.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)
    child.stdout.close()
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        log(f"e2ebench: {' '.join(argv[1:])} exited with {child.returncode}")
        return None, 0.0, started
    # Linux reports ru_maxrss in KiB.
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0, started


def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def source_revision():
    """The git commit when there is one, else a digest of the sources the
    benchmark builds."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        rev = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if rev.returncode == 0:
            return rev.stdout.strip()
    digest = hashlib.sha256()
    for top in ("crates", "shims", "e2ebench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def envelope(args, threads):
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    return {
        "workload": args.workload,
        "trace": args.trace,
        "seed": args.seed,
        "seconds": args.seconds,
        "cores": len(os.sched_getaffinity(0)),
        "threads": threads,
        "rustc": rustc.stdout.strip(),
        "revision": source_revision(),
    }


def measure(args):
    end_to_end, per_layer = metric_specs()
    binary = build()
    base = [binary, "trace" if args.trace else "rep", "--workload", args.workload, "--seed", str(args.seed)]
    attempted = failed = 0
    values = {}
    threads = None
    if args.trace:
        out, _, _ = run_child(base)
        outs = [out]
        specs = per_layer
        if out is not None:
            values = {k: [v] for k, v in out["metrics"].items()}
    else:
        specs = end_to_end
        outs = []
        start = time.monotonic()
        while len(outs) < MIN_REPS or time.monotonic() - start < args.seconds:
            out, rss, started = run_child(base)
            outs.append(out)
            if out is not None:
                metrics = out["metrics"]
                # Set-up: from starting the process to its first checked
                # call, as a user running the checker waits for it.
                metrics["setup_s"] = metrics.pop("first_call_unix_s") - started
                metrics["peak_rss_mib"] = rss
                for k, v in out["metrics"].items():
                    values.setdefault(k, []).append(v)
    for out in outs:
        if out is None:
            attempted += 1
            failed += 1
            continue
        attempted += out["attempted"]
        failed += out["failed"]
        threads = out["threads"]
    # The deterministic work counts must repeat exactly in every
    # repetition.
    counts = [json.dumps(o["counts"], sort_keys=True) for o in outs if o is not None]
    attempted += 1
    if len(set(counts)) > 1:
        failed += 1
        log("e2ebench: deterministic counts differ between repetitions: " + " | ".join(sorted(set(counts))))
    metrics = {}
    for spec in specs:
        name = spec["name"]
        attempted += 1
        got = [v for v in values.get(name, []) if v is not None]
        if not got:
            failed += 1
            log(f"e2ebench: metric {name} was not measured")
            continue
        metrics[name] = {"value": statistics.median(got), "unit": spec["unit"]}
    env = envelope(args, threads)
    log(json.dumps({"envelope": env, "repetitions": {k: values.get(k) for k in ("setup_s", "verdict_s")}}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"envelope": env, "result": result}) + "\n")
    print(json.dumps(result))


def compare(args):
    """Median of every metric per (workload, trace) in two result files,
    new against base; refuses different core or thread counts."""

    def load(path):
        rows = {}
        with open(path) as f:
            for line in f:
                row = json.loads(line)
                key = (row["envelope"]["workload"], row["envelope"]["trace"])
                rows.setdefault(key, []).append(row)
        return rows

    base, new = load(args.base), load(args.new)
    refused = False
    for key in sorted(set(base) & set(new)):
        mismatched = False
        for field in ("cores", "threads"):
            a = {r["envelope"][field] for r in base[key]}
            b = {r["envelope"][field] for r in new[key]}
            if a != b:
                print(f"{key[0]}: refusing to compare {field} {sorted(a)} with {sorted(b)}")
                mismatched = True
        refused |= mismatched
        if mismatched:
            continue
        names = base[key][0]["result"]["metrics"].keys()
        for name in names:
            med = lambda rows: statistics.median(r["result"]["metrics"][name]["value"] for r in rows)
            a, b = med(base[key]), med(new[key])
            change = (b - a) / a if a else float("nan")
            print(f"{key[0]:18} {name:52} {a:14.6g} -> {b:14.6g}  {change:+.1%}")
    return 1 if refused else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("new")
        sys.exit(compare(parser.parse_args(sys.argv[2:])))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--out", help="append the envelope and the result to this file")
    measure(parser.parse_args())


if __name__ == "__main__":
    main()

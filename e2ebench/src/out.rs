//! The JSON line one benchmark process prints, and the small measuring
//! helpers every workload shares.

use std::time::Instant;

/// What one process reports: verdicts attempted and failed, metric
/// values, deterministic work counts, and the reason for every failed
/// check.
#[derive(Debug, Default)]
pub struct Out {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
    pub counts: Vec<(String, u64)>,
    pub errors: Vec<String>,
    /// Threads the workload computes on (rayon workers or TM workers).
    pub threads: usize,
}

impl Out {
    /// Records one checked verdict; a failed check is also echoed to
    /// standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let what = what();
            eprintln!("check failed: {what}");
            self.errors.push(what);
        }
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.push((name.to_string(), value));
    }

    /// Takes over `other`'s verdicts, and the metrics this report does
    /// not already carry.
    pub fn fill_from(&mut self, other: Out) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        for (name, value) in other.metrics {
            if !self.metrics.iter().any(|(n, _)| *n == name) {
                self.metrics.push((name, value));
            }
        }
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", finite(*v)))
            .collect();
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let errors: Vec<String> = self.errors.iter().map(|e| json_str(e)).collect();
        format!(
            "{{\"attempted\": {}, \"failed\": {}, \"threads\": {}, \"metrics\": {{{}}}, \"counts\": {{{}}}, \"errors\": [{}]}}",
            self.attempted,
            self.failed,
            self.threads,
            metrics.join(", "),
            counts.join(", "),
            errors.join(", ")
        )
    }
}

/// A string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A float as JSON: full round-trip precision, `null` if not finite.
fn finite(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Seconds `f` takes, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed().as_secs_f64(), r)
}

/// Runs with their wall seconds.
pub type Timed<R> = Vec<(f64, R)>;

/// Times two untraced and two traced runs in the order untraced, traced,
/// traced, untraced, so that neither the first run's warm-up nor a slow
/// phase of the machine lands on one side only. Returns the runs,
/// untraced first, and the tracing overhead share.
pub fn abba<R>(
    out: &mut Out,
    untraced: impl Fn(&mut Out) -> R,
    traced: impl Fn(&mut Out) -> R,
) -> (Timed<R>, Timed<R>, f64) {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    off.push(timed(|| untraced(out)));
    on.push(timed(|| traced(out)));
    on.push(timed(|| traced(out)));
    off.push(timed(|| untraced(out)));
    let secs = |runs: &Timed<R>| median(runs.iter().map(|r| r.0).collect());
    let overhead = secs(&on) / secs(&off) - 1.0;
    (off, on, overhead)
}

pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Wall-clock seconds since the Unix epoch. `run.py` subtracts the
/// moment it started the process, so the difference is the set-up time
/// up to the first checked call, process start included.
pub fn unix_now() -> f64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64())
}

/// Xorshift64: the benchmark's only source of input randomness, so a
/// seed fixes every input.
pub fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A non-zero xorshift state derived from `seed` and a stream tag.
pub fn rng(seed: u64, stream: u64) -> u64 {
    let s = (seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(stream + 1))
        .wrapping_mul(0xff51_afd7_ed55_8ccd);
    if s == 0 {
        0x2545_f491_4f6c_dd1d
    } else {
        s
    }
}

/// Shares of `part` in `whole` (0 when `whole` is 0).
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The process's current resident set in MiB, from `/proc/self/status`
/// (0 where that file does not exist).
pub fn rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

//! `online-bank`: two closed-loop workers run the bank mix (75%
//! transfers, 25% read-and-write audits over 16 accounts) on TL2, then
//! NOrec, then the global lock, each under the sharded recorder with the
//! online pipeline certifying while they run.
//!
//! Expected: every TM certifies opaque and the commit count is exact. A
//! short run of the seeded lost-update TM, outside the timed window,
//! must be flagged. The seed derives every worker's transaction stream.
//!
//! The traced run replays the pipeline's stages one at a time on the
//! same streams: the bare TM, recording with a consumer that only
//! drains, the merge of a fully buffered stream, the chunker over the
//! captured history, and chunk certification, sequential and through
//! the parallel frontier.

use std::time::{Duration, Instant};

use tm_core::{ProcessId, TVarId};
use tm_safety::Mode;
use tm_sim::engine::frontier::distribute;
use tm_sim::{certify_chunk, Chunk, Chunker, OnlineConfig, OnlinePipeline, OnlineReport};
use tm_stm::concurrent::{
    atomically, atomically_sharded, ConcurrentBuggy, ConcurrentGlobalLock, ConcurrentNOrec,
    ConcurrentTl2, ConcurrentTm, ShardedRecorder, StampedEvent, StreamStatus, Transaction,
};
use tm_telemetry::Telemetry;

use crate::out::{abba, median, rng, rss_mib, share, timed, unix_now, xorshift, Out};

const WORKERS: usize = 2;
const ACCOUNTS: usize = 16;
/// Transactions per worker per TM.
const TXS: usize = 40_000;
/// Transactions per worker per TM in the reduced-scale probe.
const PROBE_TXS: usize = 4_000;
/// Transactions per worker in the seeded-bug run.
const CANARY_TXS: usize = 2_000;

#[derive(Debug, Clone, Copy)]
enum Txn {
    /// Move one unit from the first account to the second.
    Transfer(TVarId, TVarId),
    /// Read two accounts and write their masked sum into the first.
    Audit(TVarId, TVarId),
}

/// One transaction of the bank mix against any transaction type with
/// `read`/`write` (the concurrent TMs' and the recorder's).
macro_rules! bank {
    ($tx:expr, $txn:expr) => {
        match $txn {
            Txn::Transfer(a, b) => {
                let x = $tx.read(a)?;
                let y = $tx.read(b)?;
                $tx.write(a, x.wrapping_sub(1))?;
                $tx.write(b, y.wrapping_add(1))
            }
            Txn::Audit(a, b) => {
                let x = $tx.read(a)?;
                let y = $tx.read(b)?;
                $tx.write(a, x.wrapping_add(y) & 0xffff)
            }
        }
    };
}

/// Every worker's transaction stream, derived from the seed.
fn streams(seed: u64, txs: usize) -> Vec<Vec<Txn>> {
    (0..WORKERS)
        .map(|w| {
            let mut s = rng(seed, 10 + w as u64);
            (0..txs)
                .map(|_| {
                    let r = xorshift(&mut s);
                    let a = TVarId((r >> 8) as usize % ACCOUNTS);
                    let b = TVarId((r >> 24) as usize % ACCOUNTS);
                    if r.is_multiple_of(4) {
                        Txn::Audit(a, b)
                    } else {
                        Txn::Transfer(a, b)
                    }
                })
                .collect()
        })
        .collect()
}

/// Runs `work` on one scoped thread per worker stream and returns the
/// results in worker order.
fn on_workers<R: Send>(
    streams: &[Vec<Txn>],
    work: impl Fn(ProcessId, &[Txn]) -> R + Sync,
) -> Vec<R> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(w, txns)| {
                let work = &work;
                scope.spawn(move || work(ProcessId(w), txns))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

/// Runs a worker's stream under its recorder shard, returning each
/// transaction's latency in nanoseconds, retries included.
fn record<T: ConcurrentTm>(recorder: &ShardedRecorder<T>, w: ProcessId, txns: &[Txn]) -> Vec<u64> {
    let mut writer = recorder.shard(w);
    txns.iter()
        .map(|&txn| {
            let t0 = Instant::now();
            atomically_sharded(&mut writer, |tx| bank!(tx, txn));
            t0.elapsed().as_nanos() as u64
        })
        .collect()
}

/// One TM's run under the recorder and the online pipeline.
struct PipeRun {
    report: OnlineReport,
    /// From `recorder.close()` to `pipeline.join()`.
    tail: f64,
    /// Per-transaction latency as the worker saw it, retries included.
    latencies_ns: Vec<u64>,
}

fn pipeline<T: ConcurrentTm + Sync>(tm: T, streams: &[Vec<Txn>], telemetry: &Telemetry) -> PipeRun {
    let (recorder, stream) = ShardedRecorder::with_telemetry(tm, telemetry.clone());
    let pipeline = OnlinePipeline::spawn(
        stream,
        OnlineConfig {
            telemetry: telemetry.clone(),
            ..OnlineConfig::default()
        },
    );
    let latencies_ns = on_workers(streams, |w, txns| record(&recorder, w, txns)).concat();
    let closed = Instant::now();
    recorder.close();
    let report = pipeline.join();
    PipeRun {
        report,
        tail: closed.elapsed().as_secs_f64(),
        latencies_ns,
    }
}

/// Runs the three TMs under the pipeline, checking every verdict.
fn run(streams: &[Vec<Txn>], telemetry: &dyn Fn() -> Telemetry, out: &mut Out) -> Vec<PipeRun> {
    let runs = vec![
        (
            "tl2",
            pipeline(ConcurrentTl2::new(ACCOUNTS), streams, &telemetry()),
        ),
        (
            "norec",
            pipeline(ConcurrentNOrec::new(ACCOUNTS), streams, &telemetry()),
        ),
        (
            "global-lock",
            pipeline(ConcurrentGlobalLock::new(ACCOUNTS), streams, &telemetry()),
        ),
    ];
    let expected: u64 = streams.iter().map(|s| s.len() as u64).sum();
    runs.into_iter()
        .map(|(name, run)| {
            let r = &run.report;
            out.check(r.certified_opaque(), || {
                format!("{name}: expected opaque, flagged {:?}", r.violation)
            });
            out.check(r.commits == expected, || {
                format!(
                    "{name}: {} commits certified, expected {expected}",
                    r.commits
                )
            });
            run
        })
        .collect()
}

/// The seeded lost-update TM must be flagged.
fn canary(seed: u64, out: &mut Out) {
    let short: Vec<Vec<Txn>> = streams(seed, CANARY_TXS);
    let drop_at = 100 + rng(seed, 20) % 1000;
    let run = pipeline(
        ConcurrentBuggy::new(ACCOUNTS, drop_at),
        &short,
        &Telemetry::off(),
    );
    out.check(run.report.violation.is_some(), || {
        format!("buggy-lost-update (drop at commit {drop_at}) was not flagged")
    });
}

pub fn rep(seed: u64) -> Out {
    let mut out = Out {
        threads: WORKERS,
        ..Out::default()
    };
    let inputs = streams(seed, TXS);
    out.metric("first_call_unix_s", unix_now());
    let (verdict_s, runs) = timed(|| run(&inputs, &Telemetry::off, &mut out));
    canary(seed, &mut out);
    out.metric("verdict_s", verdict_s);
    out.count("commits", runs.iter().map(|r| r.report.commits).sum());
    out
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    let i = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[i] as f64
}

/// The stages of one TM's pipeline, replayed one at a time.
#[derive(Default)]
struct Stages {
    txs: u64,
    bare_s: f64,
    bare_aborts: u64,
    /// Workers recording while a consumer only drains the stream.
    record_s: f64,
    record_latencies_ns: Vec<u64>,
    /// Workers recording into an unread stream.
    buffered_s: f64,
    /// Draining the fully buffered stream (channel + reorder).
    merge_s: f64,
    merge_rss_mib: f64,
    events: u64,
    chunk_s: f64,
    chunks: u64,
    certify_s: f64,
    distributed_s: f64,
}

fn stages<T: ConcurrentTm + Sync>(
    make: impl Fn() -> T,
    streams: &[Vec<Txn>],
    out: &mut Out,
) -> Stages {
    let mut st = Stages {
        txs: streams.iter().map(|s| s.len() as u64).sum(),
        ..Stages::default()
    };

    let tm = make();
    let (bare_s, aborts) = timed(|| {
        on_workers(streams, |_, txns| {
            txns.iter()
                .map(|&txn| atomically(&tm, |tx| bank!(tx, txn)).1)
                .sum::<u64>()
        })
    });
    st.bare_s = bare_s;
    st.bare_aborts = aborts.iter().sum();

    let (recorder, mut stream) = ShardedRecorder::new(make());
    let start = Instant::now();
    let consumer = std::thread::spawn(move || {
        let mut events = Vec::new();
        while stream.poll(Duration::from_millis(1), &mut events) == StreamStatus::Open {}
        events
    });
    let latencies = on_workers(streams, |w, txns| record(&recorder, w, txns)).concat();
    recorder.close();
    let events = consumer.join().expect("consumer thread panicked");
    st.record_s = start.elapsed().as_secs_f64();
    st.record_latencies_ns = latencies;
    st.events = events.len() as u64;

    let rss_before = rss_mib();
    let (recorder, stream) = ShardedRecorder::new(make());
    let (buffered_s, _) = timed(|| {
        on_workers(streams, |w, txns| record(&recorder, w, txns));
        recorder.close();
    });
    let rss_buffered = rss_mib();
    let (merge_s, merged) = timed(|| stream.drain_all());
    st.merge_rss_mib = rss_buffered.max(rss_mib()) - rss_before;
    st.buffered_s = buffered_s;
    st.merge_s = merge_s;
    drop(merged);

    let (chunk_s, chunks) = timed(|| chunk(&events));
    st.chunk_s = chunk_s;
    st.chunks = chunks.len() as u64;

    let (certify_s, flagged) = timed(|| {
        chunks
            .iter()
            .filter(|c| certify_chunk(Mode::Opacity, c).is_some())
            .count()
    });
    st.certify_s = certify_s;
    let epochs = epochs(chunks);
    let (distributed_s, flagged_dist) = timed(|| {
        epochs
            .into_iter()
            .map(|epoch| {
                distribute(epoch, |c| certify_chunk(Mode::Opacity, &c))
                    .iter()
                    .filter(|v| v.is_some())
                    .count()
            })
            .sum::<usize>()
    });
    st.distributed_s = distributed_s;
    out.check(flagged == 0 && flagged_dist == 0, || {
        format!("stage replay: {flagged} chunks flagged sequentially, {flagged_dist} distributed")
    });
    st
}

fn chunk(events: &[StampedEvent]) -> Vec<Chunk> {
    let mut chunker = Chunker::new(OnlineConfig::default().min_chunk_events);
    let mut chunks = Vec::new();
    for e in events {
        chunker.push(e.seq, e.event, &mut chunks);
    }
    chunker.finish(&mut chunks);
    chunks
}

/// Groups chunks into epochs of at least `epoch_events` events, as the
/// pipeline's sealer does.
fn epochs(chunks: Vec<Chunk>) -> Vec<Vec<Chunk>> {
    let target = OnlineConfig::default().epoch_events;
    let mut epochs = vec![Vec::new()];
    let mut events = 0;
    for c in chunks {
        events += c.events.len();
        epochs.last_mut().expect("never empty").push(c);
        if events >= target {
            events = 0;
            epochs.push(Vec::new());
        }
    }
    epochs.retain(|e| !e.is_empty());
    epochs
}

fn all_stages(streams: &[Vec<Txn>], out: &mut Out) -> Vec<Stages> {
    vec![
        stages(|| ConcurrentTl2::new(ACCOUNTS), streams, out),
        stages(|| ConcurrentNOrec::new(ACCOUNTS), streams, out),
        stages(|| ConcurrentGlobalLock::new(ACCOUNTS), streams, out),
    ]
}

pub fn trace(seed: u64) -> Out {
    let mut out = Out {
        threads: WORKERS,
        ..Out::default()
    };
    let inputs = streams(seed, TXS);
    let (mut off, _, overhead) = abba(
        &mut out,
        |out| run(&inputs, &Telemetry::off, out),
        |out| run(&inputs, &Telemetry::counters, out),
    );
    canary(seed, &mut out);
    out.metric("tracing_overhead_share", overhead);
    let (off_s, untraced) = off.pop().expect("two untraced runs");
    layer_rows(&inputs, &untraced, off_s, &mut out);
    out
}

pub fn probe(seed: u64) -> Out {
    let mut out = Out {
        threads: WORKERS,
        ..Out::default()
    };
    let inputs = streams(seed, PROBE_TXS);
    let (wall, runs) = timed(|| run(&inputs, &Telemetry::off, &mut out));
    layer_rows(&inputs, &runs, wall, &mut out);
    out
}

fn layer_rows(inputs: &[Vec<Txn>], runs: &[PipeRun], wall: f64, out: &mut Out) {
    let st = all_stages(inputs, out);
    let sum = |f: &dyn Fn(&Stages) -> f64| st.iter().map(f).sum::<f64>();
    let txs = sum(&|s| s.txs as f64);
    let events = sum(&|s| s.events as f64);
    let chunks = sum(&|s| s.chunks as f64);
    let mut recorded: Vec<u64> = st
        .iter()
        .flat_map(|s| s.record_latencies_ns.iter().copied())
        .collect();
    recorded.sort_unstable();
    let aborts = sum(&|s| s.bare_aborts as f64);
    out.metric("tm_stm.concurrent.txn_per_s", txs / sum(&|s| s.bare_s));
    out.metric("tm_stm.concurrent.abort_ratio", share(aborts, aborts + txs));
    out.metric(
        "tm_stm.concurrent.sharded.record_txn_per_s",
        txs / sum(&|s| s.record_s),
    );
    out.metric(
        "tm_stm.concurrent.sharded.commit_p99_us",
        percentile(&recorded, 0.99) / 1e3,
    );
    out.metric(
        "tm_stm.concurrent.sharded.stream.merge_events_per_s",
        events / sum(&|s| s.merge_s),
    );
    out.metric(
        "tm_stm.concurrent.sharded.stream.peak_rss_mib",
        st.iter().map(|s| s.merge_rss_mib).fold(0.0, f64::max),
    );
    out.metric(
        "tm_sim.online.chunk.events_per_s",
        events / sum(&|s| s.chunk_s),
    );
    out.metric("tm_sim.online.chunk.chunks", chunks);
    out.metric(
        "tm_sim.online.chunk.mean_chunk_events",
        share(events, chunks),
    );
    out.metric(
        "tm_sim.online.certify.events_per_s",
        events / sum(&|s| s.certify_s),
    );
    out.metric(
        "tm_sim.online.certify.distributed_events_per_s",
        events / sum(&|s| s.distributed_s),
    );
    // `certify_chunk` is a fresh certifier fed push-only, one event at a
    // time.
    out.metric(
        "tm_safety.incremental.push_ns",
        sum(&|s| s.certify_s) * 1e9 / events,
    );

    let commits: u64 = runs.iter().map(|r| r.report.commits).sum();
    let mut latencies: Vec<u64> = runs
        .iter()
        .flat_map(|r| r.latencies_ns.iter().copied())
        .collect();
    latencies.sort_unstable();
    out.metric("online.certified_txn_per_s", commits as f64 / wall);
    out.metric(
        "online.verdict_tail_s",
        median(runs.iter().map(|r| r.tail).collect()),
    );
    out.metric("online.commit_p50_us", percentile(&latencies, 0.5) / 1e3);
    let staged = sum(&|s| s.buffered_s + s.merge_s + s.chunk_s + s.distributed_s);
    out.metric("residual_share", 1.0 - staged / wall);
}

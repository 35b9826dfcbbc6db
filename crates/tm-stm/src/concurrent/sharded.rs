//! Sharded, sequence-stamped recording for production traffic.
//!
//! Appending every event to one history under a global mutex is
//! correct, but a hard single-core ceiling on recording throughput.
//! [`ShardedRecorder`] keeps locks off the hot path entirely:
//!
//! * **per-thread shards** — each worker thread owns a [`ShardWriter`]
//!   with a private append-only event buffer; no cross-thread writes,
//!   no locks, no false sharing on the log;
//! * **atomic sequence stamps** — one global `AtomicU64` is
//!   `fetch_add`ed per event, giving every invocation/response a dense
//!   global sequence number. The stamp for an invocation is taken
//!   *before* the underlying operation starts and the stamp for its
//!   response *after* it returns, so sorting by stamp yields a faithful
//!   real-time-consistent history — the stamp's RMW linearization
//!   point plays the role a mutex acquisition would. Commit responses
//!   are stamped more precisely: *at the TM's serialization point*,
//!   from inside
//!   [`Transaction::commit_at`] (possibly optimistically, before the
//!   TM's final validation — a failed commit's stamp is charged to its
//!   abort response), so the merged order of commit events equals the
//!   TM's serialization order — the witness order the commit-order
//!   certifier checks (stamping after `commit` returns races in the
//!   unlock-to-stamp window and records false commit inversions);
//! * **batched hand-off** — a shard sends its buffered events to the
//!   consumer once per *transaction attempt* (commit, abort, or
//!   abandon) over a lock-free channel, so the channel cost is
//!   amortized over the attempt's operations.
//!
//! The consumer end is [`EventStream`]: a reorder buffer that merges
//! the per-shard batches back into one stream by sequence number.
//! Because stamps are dense (`fetch_add(1)` per event, no gaps), the
//! contiguous stamp prefix of the buffer is exactly the complete merged
//! history so far — no quiescence protocol, no epoch barriers stalling
//! writers. A long-running straggler transaction simply holds back the
//! prefix, which downstream surfaces honestly as checker lag rather
//! than being papered over by reordering.
//!
//! `tm_sim::online` builds the epoch sealer, chunker, and parallel
//! certifier on top of this stream; the layer diagram lives in the
//! [`concurrent`](super) module docs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};

use parking_lot::Mutex;

use tm_core::{Event, ProcessId, TVarId, Value};
use tm_telemetry::{Counter, Telemetry};

use super::api::{ConcurrentTm, Transaction, TxAbort};

/// A recorded event together with its dense global sequence stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StampedEvent {
    /// Position in the merged history (dense: every value in
    /// `0..total` occurs exactly once).
    pub seq: u64,
    /// The history event.
    pub event: Event,
}

/// Batches travel shard → consumer once per transaction attempt.
type Batch = Vec<StampedEvent>;

/// A sharded, lock-free history recorder around a concurrent TM.
///
/// Created with [`ShardedRecorder::new`], which also returns the
/// consumer-side [`EventStream`]. Worker threads obtain per-thread
/// [`ShardWriter`]s via [`ShardedRecorder::shard`]; when the workload is
/// done (all writers dropped) and [`ShardedRecorder::close`] has been
/// called, the stream reports end-of-history.
#[derive(Debug)]
pub struct ShardedRecorder<T> {
    inner: T,
    seq: AtomicU64,
    telemetry: Telemetry,
    /// Prototype sender, cloned once per shard. Behind a mutex only so
    /// the recorder stays `Sync`; the hot path never touches it.
    sender: Mutex<Option<Sender<Batch>>>,
}

impl<T: ConcurrentTm> ShardedRecorder<T> {
    /// Wraps `inner`, returning the recorder and the merged event
    /// stream its shards feed.
    pub fn new(inner: T) -> (Self, EventStream) {
        Self::with_telemetry(inner, Telemetry::off())
    }

    /// [`ShardedRecorder::new`] with a telemetry handle: shards tally
    /// [`Counter::OpsRecorded`] (once per batch flush) and the
    /// [`atomically_sharded`] loop tallies [`Counter::TxCommits`] /
    /// [`Counter::TxAborts`].
    pub fn with_telemetry(inner: T, telemetry: Telemetry) -> (Self, EventStream) {
        let (tx, rx) = channel();
        let recorder = ShardedRecorder {
            inner,
            seq: AtomicU64::new(0),
            telemetry,
            sender: Mutex::new(Some(tx)),
        };
        (recorder, EventStream::new(rx))
    }

    /// The wrapped TM.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The telemetry handle shards and retry loops tally into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Creates the calling thread's shard, attributing its events to
    /// `process`.
    ///
    /// # Panics
    ///
    /// Panics if the recorder was already [`close`](Self::close)d.
    pub fn shard(&self, process: ProcessId) -> ShardWriter<'_, T> {
        let sender = self
            .sender
            .lock()
            .as_ref()
            .expect("recorder already closed")
            .clone();
        ShardWriter {
            recorder: self,
            sender,
            process,
            batch: Vec::with_capacity(64),
            ops: 0,
        }
    }

    /// Retires the recorder's channel handle. Once every outstanding
    /// [`ShardWriter`] is dropped too, the [`EventStream`] observes
    /// end-of-history. Idempotent.
    pub fn close(&self) {
        self.sender.lock().take();
    }

    /// Events stamped so far (monotonic; racy against in-flight
    /// writers, exact once they are done).
    pub fn events_stamped(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }
}

/// One thread's private recording shard.
///
/// Not `Sync` by design — exactly one worker thread appends to it, so
/// the buffer needs no synchronization. Event discipline: invocation
/// stamped before the underlying operation, response after, abort
/// events on failure, and [`ShardedTx::abandon`] completing live
/// transactions with `tryC · A` so recorded histories stay complete.
#[derive(Debug)]
pub struct ShardWriter<'a, T: ConcurrentTm> {
    recorder: &'a ShardedRecorder<T>,
    sender: Sender<Batch>,
    process: ProcessId,
    batch: Batch,
    /// Operations since the last flush (flushed into
    /// [`Counter::OpsRecorded`] alongside the batch).
    ops: u64,
}

impl<'a, T: ConcurrentTm> ShardWriter<'a, T> {
    /// The process id this shard's events carry.
    pub fn process(&self) -> ProcessId {
        self.process
    }

    /// Stamps `event` with the next global sequence number and appends
    /// it to the shard's private buffer.
    fn log(&mut self, event: Event) {
        // AcqRel: the RMW must not be reordered with the operation it
        // brackets, so stamp order refines real-time order.
        let seq = self.recorder.seq.fetch_add(1, Ordering::AcqRel);
        self.batch.push(StampedEvent { seq, event });
    }

    /// Ships the buffered attempt to the consumer. Called at every
    /// attempt boundary (commit, abort, abandon).
    fn flush(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let capacity = self.batch.capacity();
        let batch = std::mem::replace(&mut self.batch, Vec::with_capacity(capacity));
        self.recorder
            .telemetry
            .add(Counter::OpsRecorded, std::mem::take(&mut self.ops));
        // A dropped receiver means the consumer is gone; recording
        // degrades to a no-op rather than poisoning the workload.
        let _ = self.sender.send(batch);
    }

    /// Starts a recorded transaction on this shard.
    pub fn begin(&mut self) -> ShardedTx<'_, 'a, T> {
        let inner = self.recorder.inner.begin();
        ShardedTx {
            writer: self,
            inner: Some(inner),
        }
    }
}

impl<T: ConcurrentTm> Drop for ShardWriter<'_, T> {
    fn drop(&mut self) {
        // Defensive: a panicking worker still ships what it recorded.
        self.flush();
    }
}

/// A recording transaction handle on a [`ShardWriter`].
pub struct ShardedTx<'w, 'a, T: ConcurrentTm> {
    writer: &'w mut ShardWriter<'a, T>,
    inner: Option<T::Tx<'a>>,
}

impl<T: ConcurrentTm> ShardedTx<'_, '_, T> {
    /// Transactional read, recorded.
    ///
    /// # Errors
    ///
    /// [`TxAbort`] when the underlying transaction aborts; the abort
    /// event `A_k` is recorded, the attempt is flushed, and the handle
    /// must be dropped.
    pub fn read(&mut self, x: TVarId) -> Result<Value, TxAbort> {
        let p = self.writer.process;
        self.writer.ops += 1;
        self.writer.log(Event::read(p, x));
        match self.inner.as_mut().expect("live transaction").read(x) {
            Ok(v) => {
                self.writer.log(Event::value(p, v));
                Ok(v)
            }
            Err(TxAbort) => {
                self.writer.log(Event::aborted(p));
                self.inner = None;
                self.writer.flush();
                Err(TxAbort)
            }
        }
    }

    /// Transactional write, recorded.
    ///
    /// # Errors
    ///
    /// [`TxAbort`] when the underlying transaction aborts.
    pub fn write(&mut self, x: TVarId, v: Value) -> Result<(), TxAbort> {
        let p = self.writer.process;
        self.writer.ops += 1;
        self.writer.log(Event::write(p, x, v));
        match self.inner.as_mut().expect("live transaction").write(x, v) {
            Ok(()) => {
                self.writer.log(Event::ok(p));
                Ok(())
            }
            Err(TxAbort) => {
                self.writer.log(Event::aborted(p));
                self.inner = None;
                self.writer.flush();
                Err(TxAbort)
            }
        }
    }

    /// Commit attempt, recorded as `tryC · C` or `tryC · A`; either way
    /// the attempt's batch is shipped to the consumer.
    ///
    /// # Errors
    ///
    /// [`TxAbort`] when validation fails.
    pub fn commit(mut self) -> Result<(), TxAbort> {
        let p = self.writer.process;
        self.writer.ops += 1;
        self.writer.log(Event::try_commit(p));
        // The commit response's stamp is taken *at the TM's
        // serialization point* (via [`Transaction::commit_at`], possibly
        // optimistically before the TM's final validation) — so the
        // merged order of commit events equals the TM's serialization
        // order, which is exactly the witness order the commit-order
        // certifier checks. A stamp taken after `commit` returns would
        // race: another conflicting commit can complete *and stamp*
        // inside the window between this TM's internal unlock and our
        // stamp, inverting the recorded commit order and manifesting as
        // false violations.
        let recorder = self.writer.recorder;
        let mut point_seq: Option<u64> = None;
        let result = self
            .inner
            .take()
            .expect("live transaction")
            .commit_at(&mut || {
                if point_seq.is_none() {
                    point_seq = Some(recorder.seq.fetch_add(1, Ordering::AcqRel));
                }
            });
        // Fall back to stamping now if the TM skipped its `point` call
        // (or use the taken stamp for the abort event if it called
        // `point` and then failed): either way every stamp drawn from
        // the counter lands in exactly one event, keeping the sequence
        // dense for the merge.
        let seq = point_seq.unwrap_or_else(|| recorder.seq.fetch_add(1, Ordering::AcqRel));
        let event = match result {
            Ok(()) => Event::committed(p),
            Err(TxAbort) => Event::aborted(p),
        };
        self.writer.batch.push(StampedEvent { seq, event });
        self.writer.flush();
        result
    }

    /// Abandons the transaction, recording a completion abort if it is
    /// still live (so recorded histories stay complete).
    pub fn abandon(mut self) {
        if self.inner.take().is_some() {
            let p = self.writer.process;
            self.writer.log(Event::try_commit(p));
            self.writer.log(Event::aborted(p));
            self.writer.flush();
        }
    }
}

/// Retry loop for sharded recording: runs `body` until commit,
/// returning the result and the number of aborted attempts, with
/// commit/abort tallies flushed through the recorder's counter path.
pub fn atomically_sharded<T, R, F>(writer: &mut ShardWriter<'_, T>, mut body: F) -> (R, u64)
where
    T: ConcurrentTm,
    F: FnMut(&mut ShardedTx<'_, '_, T>) -> Result<R, TxAbort>,
{
    let mut aborts = 0;
    loop {
        let mut tx = writer.begin();
        let committed = match body(&mut tx) {
            Ok(result) => match tx.commit() {
                Ok(()) => Some(result),
                Err(TxAbort) => None,
            },
            Err(TxAbort) => None,
        };
        match committed {
            Some(result) => {
                let telemetry = writer.recorder.telemetry();
                telemetry.add(Counter::TxCommits, 1);
                telemetry.add(Counter::TxAborts, aborts);
                return (result, aborts);
            }
            None => aborts += 1,
        }
    }
}

/// Min-heap entry ordered by sequence stamp alone.
#[derive(Debug)]
struct Pending(StampedEvent);

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.0.seq == other.0.seq
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we pop smallest seq first.
        other.0.seq.cmp(&self.0.seq)
    }
}

/// Whether an [`EventStream`] can still produce events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamStatus {
    /// Writers may still be active; poll again.
    Open,
    /// Every shard writer and the recorder's prototype sender are gone
    /// and the reorder buffer is fully drained.
    Closed,
}

/// The consumer end of a [`ShardedRecorder`]: merges per-shard batches
/// into the single sequence-ordered history.
///
/// Owns no reference to the recorder, so it can move to a dedicated
/// consumer thread while worker threads borrow the recorder.
#[derive(Debug)]
pub struct EventStream {
    rx: Receiver<Batch>,
    reorder: std::collections::BinaryHeap<Pending>,
    next_seq: u64,
    disconnected: bool,
}

impl EventStream {
    fn new(rx: Receiver<Batch>) -> Self {
        EventStream {
            rx,
            reorder: std::collections::BinaryHeap::new(),
            next_seq: 0,
            disconnected: false,
        }
    }

    /// Sequence number the merged prefix has reached: every event with
    /// `seq < merged_up_to()` has been handed out in order.
    pub fn merged_up_to(&self) -> u64 {
        self.next_seq
    }

    fn absorb(&mut self, batch: Batch) {
        for stamped in batch {
            self.reorder.push(Pending(stamped));
        }
    }

    fn drain_prefix(&mut self, out: &mut Vec<StampedEvent>) -> usize {
        let before = out.len();
        while let Some(top) = self.reorder.peek() {
            if top.0.seq != self.next_seq {
                break;
            }
            let Pending(stamped) = self.reorder.pop().expect("peeked");
            self.next_seq += 1;
            out.push(stamped);
        }
        out.len() - before
    }

    /// Waits up to `timeout` for progress, then appends every newly
    /// contiguous event (in sequence order) to `out`.
    ///
    /// Returns [`StreamStatus::Closed`] once all writers are gone and
    /// the buffer is drained; `out` may still have received final
    /// events on that call.
    pub fn poll(
        &mut self,
        timeout: std::time::Duration,
        out: &mut Vec<StampedEvent>,
    ) -> StreamStatus {
        use std::sync::mpsc::{RecvTimeoutError, TryRecvError};
        if !self.disconnected {
            // One bounded wait, then drain whatever else is ready.
            match self.rx.recv_timeout(timeout) {
                Ok(batch) => self.absorb(batch),
                Err(RecvTimeoutError::Disconnected) => self.disconnected = true,
                Err(RecvTimeoutError::Timeout) => {}
            }
            loop {
                match self.rx.try_recv() {
                    Ok(batch) => self.absorb(batch),
                    Err(TryRecvError::Disconnected) => {
                        self.disconnected = true;
                        break;
                    }
                    Err(TryRecvError::Empty) => break,
                }
            }
        }
        self.drain_prefix(out);
        if self.disconnected && self.reorder.is_empty() {
            StreamStatus::Closed
        } else {
            StreamStatus::Open
        }
    }

    /// Blocks until the stream closes and returns the complete merged
    /// history (convenience for tests and offline replay).
    pub fn drain_all(mut self) -> Vec<StampedEvent> {
        let mut out = Vec::new();
        while self.poll(std::time::Duration::from_millis(50), &mut out) == StreamStatus::Open {}
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::{ConcurrentNOrec, ConcurrentTl2};
    use tm_core::History;
    use tm_safety::{check_opacity_auto, CheckOutcome};

    const X: TVarId = TVarId(0);

    fn merged_history(events: &[StampedEvent]) -> History {
        let mut h = History::new();
        for stamped in events {
            h.push(stamped.event);
        }
        h
    }

    #[test]
    fn stamps_are_dense_and_merge_in_order() {
        let (recorder, stream) = ShardedRecorder::new(ConcurrentTl2::new(2));
        let mut shard = recorder.shard(ProcessId(0));
        for i in 0..10u64 {
            atomically_sharded(&mut shard, |tx| {
                let v = tx.read(X)?;
                tx.write(X, v + i)
            });
        }
        drop(shard);
        recorder.close();
        let events = stream.drain_all();
        assert!(!events.is_empty());
        for (i, stamped) in events.iter().enumerate() {
            assert_eq!(stamped.seq, i as u64, "merged stream must be dense");
        }
        let h = merged_history(&events);
        assert!(h.is_well_formed());
        assert!(h.is_complete());
        assert_eq!(check_opacity_auto(&h), CheckOutcome::Holds);
    }

    #[test]
    fn multi_threaded_merge_is_a_faithful_opaque_history() {
        assert_merged_history_is_opaque(ConcurrentNOrec::new(4));
        assert_merged_history_is_opaque(ConcurrentTl2::new(4));
    }

    fn assert_merged_history_is_opaque<T: ConcurrentTm>(tm: T) {
        let name = tm.name();
        let (recorder, stream) = ShardedRecorder::new(tm);
        std::thread::scope(|s| {
            for t in 0..3 {
                let mut shard = recorder.shard(ProcessId(t));
                s.spawn(move || {
                    for i in 0..40u64 {
                        atomically_sharded(&mut shard, |tx| {
                            let a = tx.read(TVarId((i % 4) as usize))?;
                            tx.write(TVarId(((i + 1) % 4) as usize), a + 1)
                        });
                    }
                });
            }
        });
        recorder.close();
        let events = stream.drain_all();
        for (i, stamped) in events.iter().enumerate() {
            assert_eq!(stamped.seq, i as u64);
        }
        let h = merged_history(&events);
        assert!(h.is_well_formed());
        assert_ne!(
            check_opacity_auto(&h),
            CheckOutcome::Violated,
            "real {name} interleavings must be opaque"
        );
    }

    #[test]
    fn abandon_completes_the_recorded_attempt() {
        let (recorder, stream) = ShardedRecorder::new(ConcurrentTl2::new(1));
        let mut shard = recorder.shard(ProcessId(0));
        let mut tx = shard.begin();
        let _ = tx.read(X);
        tx.abandon();
        drop(shard);
        recorder.close();
        let h = merged_history(&stream.drain_all());
        assert!(h.is_complete());
        assert_eq!(h.abort_count(ProcessId(0)), 1);
    }

    #[test]
    fn ops_and_outcomes_reach_the_counters() {
        use tm_telemetry::Telemetry;
        let telemetry = Telemetry::counters();
        let (recorder, stream) =
            ShardedRecorder::with_telemetry(ConcurrentTl2::new(1), telemetry.clone());
        let mut shard = recorder.shard(ProcessId(0));
        for _ in 0..5 {
            atomically_sharded(&mut shard, |tx| {
                let v = tx.read(X)?;
                tx.write(X, v + 1)
            });
        }
        drop(shard);
        recorder.close();
        let events = stream.drain_all();
        let snapshot = telemetry.snapshot();
        // 5 transactions × (read + write + commit) = 15 operations.
        assert_eq!(snapshot.get(Counter::OpsRecorded), 15);
        assert_eq!(snapshot.get(Counter::TxCommits), 5);
        assert_eq!(snapshot.get(Counter::TxAborts), 0);
        assert_eq!(events.len() as u64, recorder.events_stamped());
    }
}

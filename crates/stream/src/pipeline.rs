//! Pipelined spill I/O: a background run writer and merge read-ahead.
//!
//! The streaming engines are CPU/disk alternators when run synchronously:
//! `push` blocks while a full run is sorted *and* written, and the final
//! merge issues blocking reads from inside the loser-tree hot loop, so the
//! hardware is never sorting and doing I/O at the same time.  This module
//! provides the two stages that overlap them:
//!
//! * [`SpillPipeline`] — a dedicated **writer thread** behind a bounded
//!   channel.  The producer hands over a frozen, sorted run and immediately
//!   starts filling a recycled buffer from the pipeline's pool; the writer
//!   streams the run to disk (fsync included) in the background.  The
//!   channel bound is the backpressure: the engines run at most one run
//!   in flight (`SPILL_PIPELINE_DEPTH`), paid for by a budget share
//!   ([`dtsort::StreamConfig::spill_shares`]).
//! * [`RunPrefetcher`] — per-run **merge read-ahead**: one decode thread
//!   per spilled run fills a bounded channel with record blocks sized by
//!   the run's share of the merge read budget, so the loser tree pops
//!   from warm memory instead of cold buffered reads.  The engine caps
//!   the fan-in ([`crate::engine::MAX_PREFETCH_RUNS`]) so the thread
//!   count stays bounded.
//!
//! ## Error and ordering contract
//!
//! The writer preserves **submission order**: completed runs are recorded
//! in the order they were submitted, and after the first failure no later
//! run is written — subsequent submissions are stashed (with their
//! records intact) in order, so the owner can reclaim `completed ++
//! failed` as an order-preserving partition of everything it submitted.
//! A writer-side error is never dropped: it is returned by the next
//! [`SpillPipeline::poll_error`] / [`SpillPipeline::close`], which the
//! engines call on every `push` and on `finish`.  Writer panics (e.g. a
//! poisoned value serializer) are caught and converted to errors with the
//! same guarantees.

use crate::metrics::m;
use crate::spill::{wrap_spill_err, write_run_with_retry, RunReader, SpillValue, SpilledRun};
use crate::spillio::SpillIoHandle;
use dtsort::{IntegerKey, SpillCompression, SpillRetryPolicy};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Everything the writer thread and the owning engine share.
struct Shared<K, V> {
    state: Mutex<State<K, V>>,
    /// Signalled by the writer after every finished job (for
    /// [`SpillPipeline::flush`]).
    idle: Condvar,
}

struct State<K, V> {
    /// Runs written and synced, in submission order.
    completed: Vec<SpilledRun>,
    /// Runs *not* written (everything submitted after the first error, plus
    /// the failing run itself), in submission order, records intact.
    failed: Vec<Vec<(K, V)>>,
    /// First writer-side error; later errors are dropped (the first is the
    /// root cause and the pipeline stops writing after it).
    error: Option<io::Error>,
    /// Sticky failure flag: stays set even after the error itself is taken
    /// by [`SpillPipeline::poll_error`], so the writer keeps stashing
    /// (never resumes writing out of order) until the owner closes it.
    broken: bool,
    /// Cleared buffers of written runs, for the producer to reuse.
    pool: Vec<Vec<(K, V)>>,
    /// Jobs handed to [`SpillPipeline::submit`] so far.
    submitted: usize,
    /// Jobs the writer has fully processed (written or stashed).
    finished: usize,
    /// Set by [`SpillPipeline::abandon`]: stash instead of writing (the
    /// owner is being dropped unfinished, the bytes will never be read).
    abandoned: bool,
}

/// What a closed pipeline hands back to its owner.
pub(crate) struct ClosedPipeline<K, V> {
    /// Runs on disk, in submission order (always a prefix of the
    /// submissions).
    pub completed: Vec<SpilledRun>,
    /// Submitted runs that never reached disk, in submission order.
    pub failed: Vec<Vec<(K, V)>>,
    /// The first writer-side error, if any.
    pub error: Option<io::Error>,
}

/// Background spill-writer stage: see the module docs.
pub(crate) struct SpillPipeline<K: IntegerKey, V: SpillValue> {
    tx: Option<SyncSender<Vec<(K, V)>>>,
    worker: Option<JoinHandle<()>>,
    shared: Arc<Shared<K, V>>,
}

impl<K: IntegerKey, V: SpillValue> SpillPipeline<K, V> {
    /// Starts the writer thread over `dir`, naming run files
    /// `{prefix}NNNNNN.bin` and encoding them with `compression`.  `depth`
    /// bounds the in-flight runs (queued + being written); the buffer pool
    /// keeps at most `depth + 1` cleared run buffers for reuse.  `retry`
    /// governs how the writer handles transient I/O failures: each run is
    /// retried from scratch per the policy before it counts as failed.
    pub fn start(
        io: SpillIoHandle,
        dir: PathBuf,
        depth: usize,
        prefix: String,
        compression: SpillCompression,
        retry: SpillRetryPolicy,
    ) -> Self {
        let depth = depth.max(1);
        let (tx, rx) = sync_channel::<Vec<(K, V)>>(depth - 1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                completed: Vec::new(),
                failed: Vec::new(),
                error: None,
                broken: false,
                pool: Vec::new(),
                submitted: 0,
                finished: 0,
                abandoned: false,
            }),
            idle: Condvar::new(),
        });
        let worker_shared = Arc::clone(&shared);
        let pool_limit = depth + 1;
        let worker = std::thread::Builder::new()
            .name("pisort-spill-writer".to_string())
            .spawn(move || {
                writer_loop(
                    io,
                    rx,
                    dir,
                    prefix,
                    compression,
                    retry,
                    worker_shared,
                    pool_limit,
                )
            })
            .expect("failed to spawn spill-writer thread");
        Self {
            tx: Some(tx),
            worker: Some(worker),
            shared,
        }
    }

    /// Hands a sorted run to the writer, blocking while the pipeline is at
    /// depth (backpressure).  The handoff itself cannot fail: if the writer
    /// has already errored, the run is stashed — in order — for reclaim at
    /// [`SpillPipeline::close`]; call [`SpillPipeline::poll_error`]
    /// afterwards to learn about failures.
    pub fn submit(&mut self, run: Vec<(K, V)>) {
        {
            let mut st = self.shared.state.lock().expect("spill state");
            st.submitted += 1;
            if obs::enabled() {
                m().queue_depth.set((st.submitted - st.finished) as i64);
            }
        }
        let tx = self.tx.as_ref().expect("pipeline already closed");
        // The bounded send is the backpressure point: it blocks while the
        // pipeline is at depth.  Record the wait so budget tuning can see
        // when the producer outruns the disk.
        let send_result = if obs::enabled() {
            let start = std::time::Instant::now();
            let _bp = obs::span!("backpressure");
            let r = tx.send(run);
            m().backpressure_ns.record_duration(start.elapsed());
            r
        } else {
            tx.send(run)
        };
        if let Err(send) = send_result {
            // The writer thread is gone without draining the channel —
            // only possible if it aborted outside `catch_unwind`.  Keep
            // the records and surface an error rather than losing either.
            let mut st = self.shared.state.lock().expect("spill state");
            st.failed.push(send.0);
            st.finished += 1;
            if st.error.is_none() {
                st.error = Some(io::Error::other(
                    "spill writer thread terminated unexpectedly",
                ));
            }
            st.broken = true;
            self.shared.idle.notify_all();
        }
    }

    /// A cleared, capacity-bearing buffer recycled from a written run, if
    /// one is pooled (so steady-state spilling allocates no new run
    /// buffers).
    pub fn recycled_buffer(&self) -> Option<Vec<(K, V)>> {
        self.shared.state.lock().expect("spill state").pool.pop()
    }

    /// Moves the runs completed so far (in submission order) out of the
    /// pipeline.
    pub fn drain_completed(&self) -> Vec<SpilledRun> {
        std::mem::take(&mut self.shared.state.lock().expect("spill state").completed)
    }

    /// Takes the writer-side error, if one has occurred.  The caller is
    /// expected to tear the pipeline down ([`SpillPipeline::close`]) after
    /// seeing one.
    pub fn poll_error(&self) -> Option<io::Error> {
        self.shared.state.lock().expect("spill state").error.take()
    }

    /// Blocks until every submitted run has been written (or stashed), so
    /// spill statistics are exact and the data is durable.
    pub fn flush(&self) {
        let mut st = self.shared.state.lock().expect("spill state");
        while st.finished < st.submitted {
            st = self.shared.idle.wait(st).expect("spill state");
        }
    }

    /// Stops accepting runs, waits for the writer to drain the queue, and
    /// returns everything it produced.
    pub fn close(mut self) -> ClosedPipeline<K, V> {
        self.tx = None; // disconnect: the writer drains the queue and exits
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
        let mut st = self.shared.state.lock().expect("spill state");
        ClosedPipeline {
            completed: std::mem::take(&mut st.completed),
            failed: std::mem::take(&mut st.failed),
            error: st.error.take(),
        }
    }

    /// Marks the pipeline as abandoned (owner dropped without `finish`):
    /// still-queued runs are stashed instead of written, since nothing will
    /// ever read them.
    fn abandon(&self) {
        self.shared.state.lock().expect("spill state").abandoned = true;
    }
}

impl<K: IntegerKey, V: SpillValue> Drop for SpillPipeline<K, V> {
    fn drop(&mut self) {
        // `close` consumed the worker already in the normal path.  If the
        // owner is dropped mid-stream, skip the queued writes and join so
        // the spill directory is not deleted under a live writer.
        if self.worker.is_some() {
            self.abandon();
            self.tx = None;
            if let Some(worker) = self.worker.take() {
                let _ = worker.join();
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn writer_loop<K: IntegerKey, V: SpillValue>(
    io: SpillIoHandle,
    rx: Receiver<Vec<(K, V)>>,
    dir: PathBuf,
    prefix: String,
    compression: SpillCompression,
    retry: SpillRetryPolicy,
    shared: Arc<Shared<K, V>>,
    pool_limit: usize,
) {
    let mut seq = 0usize;
    while let Ok(buf) = rx.recv() {
        let skip = {
            let st = shared.state.lock().expect("spill state");
            st.broken || st.abandoned
        };
        if skip {
            // Ordering: stashing happens here, on the single writer
            // thread, so failed runs line up FIFO after the failing one.
            let mut st = shared.state.lock().expect("spill state");
            st.failed.push(buf);
            st.finished += 1;
            shared.idle.notify_all();
            continue;
        }
        let path = dir.join(format!("{prefix}{seq:06}.bin"));
        // A panic inside a value serializer must neither kill the channel
        // (hanging the producer's bounded send) nor drop the run's records:
        // convert it to an error with the run stashed like any I/O failure.
        let result = if obs::enabled() {
            let start = std::time::Instant::now();
            let _span = obs::span!("spill_write", run = seq);
            let r = catch_unwind(AssertUnwindSafe(|| {
                write_run_with_retry(&io, &path, &buf, compression, &retry)
            }));
            m().write_ns.record_duration(start.elapsed());
            r
        } else {
            catch_unwind(AssertUnwindSafe(|| {
                write_run_with_retry(&io, &path, &buf, compression, &retry)
            }))
        };
        let mut st = shared.state.lock().expect("spill state");
        match result {
            Ok(Ok(run)) => {
                st.completed.push(run);
                seq += 1;
                if st.pool.len() < pool_limit {
                    let mut recycled = buf;
                    recycled.clear();
                    st.pool.push(recycled);
                }
            }
            Ok(Err(e)) => {
                std::fs::remove_file(&path).ok();
                if st.error.is_none() {
                    // Attach the typed spill context without disturbing the
                    // error's kind, so callers can still tell ENOSPC from
                    // corruption after the pipeline relays it.
                    let attempted: u64 = buf.iter().map(|(_, v)| 8 + v.spill_size() as u64).sum();
                    st.error = Some(wrap_spill_err(&path, seq, attempted, e));
                }
                st.broken = true;
                st.failed.push(buf);
            }
            Err(panic) => {
                std::fs::remove_file(&path).ok();
                if st.error.is_none() {
                    st.error = Some(panic_error("spill writer", &*panic));
                }
                st.broken = true;
                st.failed.push(buf);
            }
        }
        st.finished += 1;
        if obs::enabled() {
            m().queue_depth.set((st.submitted - st.finished) as i64);
        }
        shared.idle.notify_all();
    }
}

/// Converts a caught panic into the I/O error a pipeline stage forwards.
fn panic_error(stage: &str, panic: &(dyn std::any::Any + Send)) -> io::Error {
    let msg = panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    io::Error::other(format!("{stage} panicked: {msg}"))
}

/// Decodes the next batch of records (roughly `block_bytes` of decoded
/// payload) from `reader`; returns the batch and whether the run is now
/// exhausted.
fn decode_one_block<V: SpillValue>(
    reader: &mut RunReader<V>,
    block_bytes: usize,
) -> io::Result<(Vec<(u64, V)>, bool)> {
    let refill_start = obs::enabled().then(std::time::Instant::now);
    let mut block: Vec<(u64, V)> = Vec::new();
    let mut bytes = 0usize;
    let mut end_of_run = false;
    loop {
        match reader.next_record()? {
            Some((key, value)) => {
                bytes += 8 + value.spill_size();
                block.push((key, value));
                if bytes >= block_bytes {
                    break;
                }
            }
            None => {
                end_of_run = true;
                break;
            }
        }
    }
    if let Some(start) = refill_start {
        m().prefetch_refill_ns.record_duration(start.elapsed());
        if !block.is_empty() {
            m().blocks_prefetched.incr();
        }
    }
    Ok((block, end_of_run))
}

/// Read-ahead stage of the final merge: a dedicated thread decodes one
/// spilled run into record batches ahead of the consumer, bounded to one
/// queued batch (so at most ~three are in flight: queued, decoding, being
/// consumed).
///
/// The producer stops when the run is exhausted, on the first read error
/// (which it forwards), or when the consumer hangs up.  A panic in a value
/// decoder is caught and forwarded as an error too: a dead producer must
/// never read as a clean end of run.
pub(crate) struct RunPrefetcher<V: SpillValue> {
    rx: Receiver<io::Result<Vec<(u64, V)>>>,
}

impl<V: SpillValue> RunPrefetcher<V> {
    /// Opens `run` through `io` (surfacing open-time validation errors
    /// synchronously) and starts the read-ahead thread.  `reader_budget`
    /// is this run's share of the merge read budget, split so the total
    /// stays within the share: half for the underlying buffered reader,
    /// the rest for the decoded batches — of which up to three are alive
    /// at once (one queued, one decoding, one being consumed), hence
    /// sixths.  `index` is the run's position in the merge, used only to
    /// label the prefetcher's trace spans.
    ///
    /// The floors below keep the reader functional without re-inflating a
    /// small share: merges only engage read-ahead when the per-run budget
    /// is at least [`crate::engine::MIN_PREFETCH_RUN_BUDGET`], so the
    /// splits here stay within the share the caller granted.
    pub fn spawn(
        io: &SpillIoHandle,
        run: &SpilledRun,
        reader_budget: usize,
        index: usize,
    ) -> io::Result<Self> {
        let mut reader: RunReader<V> = RunReader::open(io, run, (reader_budget / 2).max(64))?;
        let block_bytes = (reader_budget / 6).max(64);
        let (tx, rx) = sync_channel::<io::Result<Vec<(u64, V)>>>(1);
        std::thread::Builder::new()
            .name("pisort-run-prefetch".to_string())
            .spawn(move || {
                // One span covering the prefetcher's whole life: overlap
                // with the consumer's `merge` span is the read-ahead
                // actually running ahead.
                let _run_span = obs::span!("prefetch", run = index);
                loop {
                    let decoded = catch_unwind(AssertUnwindSafe(|| {
                        decode_one_block(&mut reader, block_bytes)
                    }))
                    .unwrap_or_else(|panic| Err(panic_error("prefetch decoder", &*panic)));
                    match decoded {
                        Ok((block, end_of_run)) => {
                            if !block.is_empty() && tx.send(Ok(block)).is_err() {
                                return; // consumer hung up (stream dropped early)
                            }
                            if end_of_run {
                                return; // dropping tx signals a clean end of run
                            }
                        }
                        Err(e) => {
                            let _ = tx.send(Err(e));
                            return;
                        }
                    }
                }
            })
            .expect("failed to spawn prefetch thread");
        Ok(Self { rx })
    }

    /// The next decoded batch: `None` is clean end of run, `Some(Err)` a
    /// read error (terminal — no further batches follow).
    pub fn recv(&mut self) -> Option<io::Result<Vec<(u64, V)>>> {
        self.rx.recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::write_run;
    use std::path::Path;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pisort-pipe-{}-{}", name, std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn bio() -> SpillIoHandle {
        SpillIoHandle::blocking()
    }

    fn read_back(run: &SpilledRun) -> Vec<(u64, u64)> {
        RunReader::<u64>::open(&bio(), run, 4096)
            .unwrap()
            .read_all::<u64>()
            .unwrap()
    }

    #[test]
    fn writes_runs_in_submission_order_and_recycles_buffers() {
        let dir = tmp_dir("order");
        let mut pipe: SpillPipeline<u64, u64> = SpillPipeline::start(
            bio(),
            dir.clone(),
            2,
            "run-p".to_string(),
            SpillCompression::Off,
            SpillRetryPolicy::default(),
        );
        for r in 0..6u64 {
            let run: Vec<(u64, u64)> = (0..100).map(|i| (i, r)).collect();
            pipe.submit(run);
        }
        pipe.flush();
        assert!(pipe.recycled_buffer().is_some(), "pool must recycle");
        let closed = pipe.close();
        assert!(closed.error.is_none());
        assert!(closed.failed.is_empty());
        assert_eq!(closed.completed.len(), 6);
        for (r, run) in closed.completed.iter().enumerate() {
            assert_eq!(run.len, 100);
            let records = read_back(run);
            // The r-th completed run is exactly the r-th submitted run.
            assert!(records.iter().all(|&(_, tag)| tag == r as u64));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_stops_writing_and_stashes_later_runs_in_order() {
        let dir = tmp_dir("err");
        let mut pipe: SpillPipeline<u64, u64> = SpillPipeline::start(
            bio(),
            dir.clone(),
            2,
            "run-p".to_string(),
            SpillCompression::Off,
            SpillRetryPolicy::default(),
        );
        pipe.submit(vec![(1, 0)]);
        pipe.flush();
        // Break the spill directory under the writer: every later write
        // must fail, and no later run may be partially written.
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"blocked").unwrap();
        for r in 1..5u64 {
            pipe.submit(vec![(1, r)]);
        }
        pipe.flush();
        assert!(pipe.poll_error().is_some(), "writer error must surface");
        let closed = pipe.close();
        assert_eq!(closed.completed.len(), 1, "only the pre-error run");
        assert_eq!(closed.failed.len(), 4, "every post-error run reclaimed");
        for (i, run) in closed.failed.iter().enumerate() {
            assert_eq!(run[0].1, 1 + i as u64, "stash preserves order");
        }
        std::fs::remove_file(&dir).ok();
    }

    #[test]
    fn close_surfaces_the_error_when_not_polled() {
        let dir = tmp_dir("close-err");
        let blocked = dir.join("blocked-file");
        std::fs::write(&blocked, b"x").unwrap();
        // Point the pipeline *at a file*: the very first write fails.
        let mut pipe: SpillPipeline<u64, u64> = SpillPipeline::start(
            bio(),
            blocked.clone(),
            1,
            "run-p".to_string(),
            SpillCompression::Off,
            SpillRetryPolicy::default(),
        );
        pipe.submit(vec![(9, 9)]);
        let closed = pipe.close();
        assert!(closed.error.is_some(), "close must never drop the error");
        assert_eq!(closed.failed.len(), 1);
        assert_eq!(closed.failed[0], vec![(9, 9)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prefetcher_streams_a_run_in_blocks() {
        let dir = tmp_dir("prefetch");
        let path: &Path = &dir.join("run.bin");
        let records: Vec<(u64, u64)> = (0..10_000u64).map(|i| (i, i * 3)).collect();
        // Both encodings must stream identical batches.
        for compression in [SpillCompression::Off, SpillCompression::DeltaLz] {
            let run = write_run(&bio(), path, &records, compression).unwrap();
            // A tiny budget forces many small blocks through the channel.
            let mut src = RunPrefetcher::<u64>::spawn(&bio(), &run, 8 << 10, 0).unwrap();
            let mut got: Vec<(u64, u64)> = Vec::new();
            let mut blocks = 0usize;
            while let Some(block) = src.recv() {
                got.extend(block.expect("clean run must not error"));
                blocks += 1;
            }
            assert!(blocks > 5, "expected several blocks, got {blocks}");
            assert_eq!(got, records);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A `u64` payload whose decoder panics on [`Tripwire::TRIP`].
    #[derive(Clone)]
    struct Tripwire(u64);

    impl Tripwire {
        const TRIP: u64 = u64::MAX;
    }

    impl crate::spill::sealed::Sealed for Tripwire {}

    impl SpillValue for Tripwire {
        const SPILL_FIXED_SIZE: Option<usize> = u64::SPILL_FIXED_SIZE;
        fn spill_size(&self) -> usize {
            self.0.spill_size()
        }
        fn spill_write(&self, w: &mut dyn std::io::Write) -> io::Result<()> {
            self.0.spill_write(w)
        }
        fn spill_read(
            r: &mut dyn std::io::Read,
            scratch: &mut Vec<u8>,
            payload_budget: u64,
        ) -> io::Result<Self> {
            let v = u64::spill_read(r, scratch, payload_budget)?;
            assert_ne!(v, Self::TRIP, "injected decoder panic");
            Ok(Self(v))
        }
        fn spill_placeholder() -> Self {
            Self(0)
        }
    }

    #[test]
    fn prefetcher_forwards_decoder_panics_as_errors() {
        let dir = tmp_dir("prefetch-panic");
        let path = dir.join("run.bin");
        // Record 6000 trips the decoder, many blocks past the first one.
        let records: Vec<(u64, Tripwire)> = (0..10_000u64)
            .map(|i| (i, Tripwire(if i == 6000 { Tripwire::TRIP } else { i })))
            .collect();
        let run = write_run(&bio(), &path, &records, SpillCompression::Off).unwrap();
        let mut src = RunPrefetcher::<Tripwire>::spawn(&bio(), &run, 8 << 10, 0).unwrap();
        let mut decoded = 0usize;
        let err = loop {
            match src.recv() {
                Some(Ok(block)) => decoded += block.len(),
                Some(Err(e)) => break e,
                None => panic!("decoder panic read as a clean end of run after {decoded} records"),
            }
        };
        assert!(
            err.to_string().contains("prefetch decoder panicked"),
            "{err}"
        );
        assert!(decoded < 6000, "{decoded} records decoded past the panic");

        // A streaming merge over the run must panic, not come up short.
        let src = RunPrefetcher::<Tripwire>::spawn(&bio(), &run, 8 << 10, 0).unwrap();
        let cursor = crate::engine::RunCursor::from_prefetch(src).unwrap();
        let mut tree = parlay::kway::LoserTree::new(vec![cursor], Tripwire::spill_record_lt);
        let drained = catch_unwind(AssertUnwindSafe(|| {
            std::iter::from_fn(|| tree.pop()).count()
        }));
        assert!(
            drained.is_err(),
            "merge returned {:?} of 10000 records instead of panicking",
            drained.ok()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prefetcher_forwards_read_errors() {
        let dir = tmp_dir("prefetch-err");
        let path = dir.join("run.bin");
        let records: Vec<(u64, u64)> = (0..1000u64).map(|i| (i, i)).collect();
        let good = write_run(&bio(), &path, &records, SpillCompression::Off).unwrap();
        // Lie about the record count: the reader must hit the in-stream
        // guard and the prefetcher must forward it (not hang or panic).
        let run = SpilledRun {
            path,
            len: records.len() + 1,
            bytes: good.bytes + 16,
            raw_bytes: good.raw_bytes + 16,
            compression: SpillCompression::Off,
            retries: 0,
        };
        match RunPrefetcher::<u64>::spawn(&bio(), &run, 4096, 0) {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            Ok(mut src) => {
                let mut saw_error = false;
                while let Some(block) = src.recv() {
                    if block.is_err() {
                        saw_error = true;
                        break;
                    }
                }
                assert!(saw_error, "overcount must surface as a read error");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

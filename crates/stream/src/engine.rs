//! The run engine behind [`crate::StreamSorter`] and [`crate::StreamGroupBy`].
//!
//! Both streaming engines have one shape: **buffer → reduce run →
//! spill/pipeline/probation → merge**.  Pushed records fill a run buffer
//! sized from the memory budget; a full buffer is *reduced* into a run
//! ordered by key; the run is written to disk inline or handed to the
//! background writer, with failed writes kept in memory for a retry and a
//! writer failure putting the engine on probation; `finish` k-way merges
//! every run.  [`RunEngine`] implements all of that once.  The engines
//! differ only in their [`RunReducer`]:
//!
//! * [`crate::SortRuns`] (the sorter) stably sorts the buffer with
//!   DovetailSort, seeded with the heavy keys carried from the previous
//!   run;
//! * [`crate::AggregateRuns`] (the group-by) semisorts the buffer and folds
//!   each group into one partial aggregate.
//!
//! A reducer also fixes the run-capacity formula, the run-file stem
//! (`run-` / `agg-`), the trace span (`sort_run` / `aggregate_run`), the
//! metric set (`stream.*` / `groupby.*`) and the output stream.
//!
//! [`Engine`] is the push → finish surface they (and the string-key
//! adapter over either) share, so a caller is written once for all.

use crate::metrics::{m, EngineMetrics, StreamMetrics};
use crate::pipeline::{RunPrefetcher, SpillPipeline};
use crate::spill::{
    per_run_reader_budget, sealed::Sealed, var_payload_bytes, var_payload_should_spill,
    with_transient_retry, wrap_spill_err, write_run_with_retry, RunReader, SpillSpace, SpillValue,
    SpilledRun,
};
use crate::spillio::SpillIoHandle;
use dtsort::{IntegerKey, StreamConfig};
use parlay::kway::{BlockSource, LoserTree, RunSource};
use std::collections::VecDeque;
use std::io;

/// Runs in flight to the background spill writer (queued plus being
/// written).  One is classic double buffering: run `N + 1` is reduced
/// while run `N` writes.  The in-flight run is paid for by one budget
/// share ([`StreamConfig::spill_shares`]).
pub(crate) const SPILL_PIPELINE_DEPTH: usize = 1;

/// Above this merge fan-in the read-ahead stage is skipped (one prefetch
/// thread per run would be a thread explosion; the per-run buffer shares
/// are tiny at that point anyway) and the merge reads synchronously.
pub(crate) const MAX_PREFETCH_RUNS: usize = 64;

/// Below this per-run share of [`StreamConfig::merge_read_buffer_bytes`]
/// the read-ahead stage is also skipped: a prefetch thread double-buffers
/// its budget, and at a few hundred bytes per buffer the channel overhead
/// dwarfs the read it hides.  Merges that wanted read-ahead but lost it to
/// either gate bump the `prefetch.disabled_merges` metric and are flagged
/// on the returned stream ([`crate::SortedStream::read_ahead_disabled`]).
pub(crate) const MIN_PREFETCH_RUN_BUDGET: usize = 4096;

/// Counters describing what a streaming engine ([`crate::StreamSorter`] or
/// [`crate::StreamGroupBy`]) did.
///
/// `records_pushed`, `carried_heavy_keys` and `partial_aggregates` are
/// always exact.  With pipelined spilling, `spilled_runs` /
/// `spilled_bytes` count only runs *confirmed durable*, reconciled lazily
/// at each `push`: a run still in flight to the background writer is not
/// yet counted.  [`is_settled`] reports whether that lag currently exists;
/// calling [`RunEngine::flush_spills`] drains it, after which every counter
/// is exact (and `is_settled` is `true`).
///
/// [`is_settled`]: StreamStats::is_settled
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamStats {
    /// Records accepted by `push` / `push_record` so far.  Counted per
    /// accepted chunk, so a failed spill mid-push leaves every record the
    /// engine still owns counted (for the sorter, `records_pushed` always
    /// equals [`crate::StreamSorter::len`]).
    pub records_pushed: u64,
    /// Runs spilled to disk so far.
    pub spilled_runs: usize,
    /// Bytes written to spill files so far (on-disk, post-compression).
    pub spilled_bytes: u64,
    /// Bytes the same runs would have occupied in the uncompressed (flat)
    /// spill encoding.  Equal to `spilled_bytes` when
    /// [`StreamConfig::spill_compression`] is off (up to the flat format's
    /// lack of block headers); the ratio `spilled_bytes /
    /// spilled_raw_bytes` is the on-disk compression win.
    pub spilled_raw_bytes: u64,
    /// Heavy keys currently carried into the next run's sampling (sorter;
    /// always 0 for the group-by).
    pub carried_heavy_keys: usize,
    /// Partial-aggregate records produced so far (spilled runs + tail);
    /// `records_pushed − partial_aggregates` records were collapsed before
    /// ever reaching disk (group-by; always 0 for the sorter).
    pub partial_aggregates: u64,
    /// Transient spill-write failures that were retried (and eventually
    /// succeeded) under [`StreamConfig::spill_retry`], across both the
    /// synchronous and the pipelined writer.
    pub spill_retries: u64,
    /// Runs spilled synchronously while pipelining was on probation after
    /// a writer failure.  Stops growing once the probation run count is
    /// served and pipelining resumes.
    pub degraded_syncs: u64,
    /// Whether the spill counters are exact right now: `false` while runs
    /// are in flight to the background spill writer (their bytes are not
    /// yet in `spilled_runs` / `spilled_bytes`), `true` once reconciliation
    /// has caught up.  Always `true` under
    /// [`StreamConfig::synchronous_spill`];
    /// [`RunEngine::flush_spills`] forces it back to `true`.
    pub is_settled: bool,
}

impl Default for StreamStats {
    fn default() -> Self {
        Self {
            records_pushed: 0,
            spilled_runs: 0,
            spilled_bytes: 0,
            spilled_raw_bytes: 0,
            carried_heavy_keys: 0,
            partial_aggregates: 0,
            spill_retries: 0,
            degraded_syncs: 0,
            // Nothing in flight before the first pipelined spill.
            is_settled: true,
        }
    }
}

/// How a [`RunEngine`] turns a full run buffer into a spillable run.
/// Sealed: implemented by [`crate::SortRuns`] and
/// [`crate::AggregateRuns`] only.
pub trait RunReducer: Sealed + Sized {
    /// Pushed key type.
    type Key: IntegerKey;
    /// Pushed value type.
    type Input: SpillValue;
    /// Key type of a reduced run.
    type RunKey: IntegerKey;
    /// Value type of a reduced run (what is spilled and merged).
    type Output: SpillValue;
    /// Run-file stem: synchronous runs are `{stem}-s*.bin`, pipelined ones
    /// `{stem}-p{generation}-*.bin`.
    #[doc(hidden)]
    const FILE_STEM: &'static str;
    /// Trace span recorded around each reduction.
    #[doc(hidden)]
    const SPAN: &'static str;
    /// Records one run may buffer under `cfg`'s current budget.
    #[doc(hidden)]
    fn run_capacity(cfg: &StreamConfig) -> usize;
    /// This engine's metric set.
    #[doc(hidden)]
    fn metrics(m: &StreamMetrics) -> &EngineMetrics;
    /// Reduces `buffer` into a run ordered by key, leaving `buffer`
    /// empty; `out` is a cleared run buffer to reuse.
    #[doc(hidden)]
    fn reduce(
        &mut self,
        buffer: &mut Vec<(Self::Key, Self::Input)>,
        out: Vec<(Self::RunKey, Self::Output)>,
        cfg: &StreamConfig,
        stats: &mut StreamStats,
    ) -> Vec<(Self::RunKey, Self::Output)>;
    /// The finished engine's output.
    type Stream: Iterator;
    /// Wraps the final merge into the output stream.
    #[doc(hidden)]
    fn into_stream(self, merge: RunMerge<Self::Output>) -> Self::Stream;
    /// [`RunEngine::finish`], materialized; the sorter overrides it with
    /// its parallel merge.
    #[doc(hidden)]
    fn finish_vec(engine: RunEngine<Self>) -> io::Result<Vec<Item<Self>>> {
        Ok(engine.finish()?.collect())
    }
}

/// The push → finish surface shared by every streaming engine:
/// [`crate::StreamSorter`], [`crate::StreamGroupBy`] and the string-key
/// adapter over either ([`crate::StringKeys`]), which are its only
/// implementations (sealed).  Generic callers such as the server's
/// sessions are written once against it and stay monomorphized.  The
/// methods are the [`RunEngine`] methods of the same names.
pub trait Engine: Sealed {
    type Key;
    type Value;
    type Stream: Iterator;
    fn push(&mut self, records: &[(Self::Key, Self::Value)]) -> io::Result<()>;
    fn push_record(&mut self, key: Self::Key, value: Self::Value) -> io::Result<()>;
    fn stats(&self) -> &StreamStats;
    fn flush_spills(&mut self) -> io::Result<()>;
    fn shrink_to_budget(&mut self) -> io::Result<()>;
    fn finish(self) -> io::Result<Self::Stream>;
    fn finish_vec(self) -> io::Result<Vec<<Self::Stream as Iterator>::Item>>;
}

impl<R: RunReducer> Sealed for RunEngine<R> {}

impl<R: RunReducer> Engine for RunEngine<R> {
    type Key = R::Key;
    type Value = R::Input;
    type Stream = R::Stream;

    fn push(&mut self, records: &[(R::Key, R::Input)]) -> io::Result<()> {
        RunEngine::push(self, records)
    }
    fn push_record(&mut self, key: R::Key, value: R::Input) -> io::Result<()> {
        RunEngine::push_record(self, key, value)
    }
    fn stats(&self) -> &StreamStats {
        RunEngine::stats(self)
    }
    fn flush_spills(&mut self) -> io::Result<()> {
        RunEngine::flush_spills(self)
    }
    fn shrink_to_budget(&mut self) -> io::Result<()> {
        RunEngine::shrink_to_budget(self)
    }
    fn finish(self) -> io::Result<R::Stream> {
        RunEngine::finish(self)
    }
    fn finish_vec(self) -> io::Result<Vec<Item<R>>> {
        RunEngine::finish_vec(self)
    }
}

/// An output record of a finished engine.
type Item<R> = <<R as RunReducer>::Stream as Iterator>::Item;

/// A reduced run, as spilled and merged.
type Run<R> = Vec<(<R as RunReducer>::RunKey, <R as RunReducer>::Output)>;

/// A bounded-memory streaming engine over pushed `(key, value)` records,
/// parameterized by its [`RunReducer`]; used as [`crate::StreamSorter`]
/// and [`crate::StreamGroupBy`].
///
/// Records are buffered up to the run capacity derived from
/// [`StreamConfig::memory_budget_bytes`] (re-read on every push when a
/// live [`dtsort::BudgetHandle`] is attached).  A full buffer is reduced
/// into a run and spilled.  Spilling is pipelined unless
/// [`StreamConfig::synchronous_spill`] is set: the run goes to a
/// background writer while the next one fills.  A failed write keeps the
/// run in memory, in run order, for the next spill to retry (or for
/// `finish` to merge from memory); a writer failure also puts the engine
/// on *probation*, spilling synchronously until
/// [`dtsort::SpillRetryPolicy::probation_spills`] clean spills succeed.
pub struct RunEngine<R: RunReducer> {
    pub(crate) cfg: StreamConfig,
    /// The spill I/O handle every read and write goes through; possibly
    /// shared with sibling engines, possibly fault-injecting.
    pub(crate) io: SpillIoHandle,
    pub(crate) reducer: R,
    pub(crate) run_capacity: usize,
    pub(crate) buffer: Vec<(R::Key, R::Input)>,
    /// Spilled payload bytes currently buffered (tracked only for
    /// variable-length values; always 0 on the pod path).
    buffered_value_bytes: usize,
    pub(crate) runs: Vec<SpilledRun>,
    /// Reduced runs whose spill write failed, kept intact in run order:
    /// retried by the next spill, merged from memory by `finish`
    /// otherwise.
    pub(crate) pending_runs: VecDeque<Run<R>>,
    /// Records currently in flight to the spill-writer thread.
    pub(crate) in_flight_records: usize,
    /// Runs currently in flight to the spill-writer thread.
    pub(crate) in_flight_runs: usize,
    /// Distinct name counter for synchronously written run files (the
    /// pipelined writer numbers its own `-p*` namespace).
    sync_run_seq: usize,
    /// `Some(n)` after a writer-side error surfaced: the engine is on
    /// *probation*, spilling synchronously (the error path converges onto
    /// one code path) until `n` more clean synchronous spills have
    /// succeeded, after which pipelining is re-enabled.  `None` while
    /// pipelining is allowed.
    pub(crate) degraded: Option<u32>,
    /// Runs reduced so far (labels the reduce trace spans).
    runs_reduced: usize,
    /// Pipeline incarnations started so far.  Each gets its own run-file
    /// namespace (`{stem}-p{generation}-NNNNNN.bin`), so a pipeline
    /// restarted after probation cannot collide with a previous
    /// incarnation's files.
    pipeline_generation: usize,
    // Field order matters: the pipeline must drop (joining its writer)
    // before the spill space deletes the directory under it.
    pub(crate) pipeline: Option<SpillPipeline<R::RunKey, R::Output>>,
    pub(crate) space: Option<SpillSpace>,
    stats: StreamStats,
    /// Scoped obs enable for [`StreamConfig::trace`]; transferred to the
    /// finished stream so recording covers the merge drain too.
    trace_guard: Option<obs::EnableGuard>,
}

impl<R: RunReducer> RunEngine<R> {
    pub(crate) fn with_reducer(reducer: R, cfg: StreamConfig, io: SpillIoHandle) -> Self {
        // Scoped, not sticky: tracing reverts when this engine (and any
        // stream it returns) is dropped.
        let trace_guard = cfg.trace.then(obs::scoped_enable);
        Self {
            run_capacity: R::run_capacity(&cfg),
            cfg,
            io,
            reducer,
            buffer: Vec::new(),
            buffered_value_bytes: 0,
            runs: Vec::new(),
            pending_runs: VecDeque::new(),
            in_flight_records: 0,
            in_flight_runs: 0,
            sync_run_seq: 0,
            degraded: None,
            runs_reduced: 0,
            pipeline_generation: 0,
            pipeline: None,
            space: None,
            stats: StreamStats::default(),
            trace_guard,
        }
    }

    /// Re-reads the budget (which a live [`dtsort::BudgetHandle`] may have
    /// resized since the last check) into the run capacity.  Called on
    /// every push chunk, so a shrunk grant takes effect mid-stream as an
    /// early spill instead of an over-budget buffer.
    fn refresh_run_capacity(&mut self) {
        if self.cfg.budget.is_some() {
            self.run_capacity = R::run_capacity(&self.cfg);
        }
    }

    /// Applies the current budget grant immediately: re-reads the
    /// (possibly shrunk) [`dtsort::BudgetHandle`] and spills the buffered
    /// run early if it no longer fits the grant.  `push` re-checks per
    /// chunk anyway; this hook exists for granters (e.g. a memory
    /// governor) reclaiming from a session that is idle between pushes.
    pub fn shrink_to_budget(&mut self) -> io::Result<()> {
        self.refresh_run_capacity();
        if self.should_spill() {
            self.spill_run()?;
        }
        Ok(())
    }

    /// Number of runs the final merge will see: spilled runs (including
    /// those still in flight to the writer), runs pending a spill retry,
    /// plus the in-memory tail, if any records are currently buffered.
    pub fn run_count(&self) -> usize {
        self.runs.len()
            + self.in_flight_runs
            + self.pending_runs.len()
            + usize::from(!self.buffer.is_empty())
    }

    /// Counters (spills, carried heavy keys, collapse ratio, ...).
    ///
    /// With pipelined spilling, `spilled_runs` / `spilled_bytes` count runs
    /// confirmed durable, reconciled at every `push`;
    /// [`StreamStats::is_settled`] tells whether they are exact right now,
    /// and [`RunEngine::flush_spills`] makes them exact.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// Blocks until every run handed to the background spill writer is
    /// durable on disk, surfacing any writer-side error.  Afterwards
    /// [`RunEngine::stats`] is exact.  A no-op under
    /// [`StreamConfig::synchronous_spill`].
    pub fn flush_spills(&mut self) -> io::Result<()> {
        if let Some(pipeline) = &self.pipeline {
            pipeline.flush();
        }
        self.reconcile_pipeline()
    }

    /// Spills are due when the record count hits capacity or buffered
    /// variable-length payloads reach one budget share (without which
    /// large payloads could pile up far past the budget).
    fn buffer_needs_spill(&self) -> bool {
        !self.buffer.is_empty()
            && (self.buffer.len() >= self.run_capacity
                || var_payload_should_spill::<R::Input>(
                    self.buffered_value_bytes,
                    self.cfg.effective_budget_bytes(),
                    self.cfg.spill_shares(),
                ))
    }

    fn should_spill(&self) -> bool {
        !self.pending_runs.is_empty() || self.buffer_needs_spill()
    }

    /// Appends a batch of records, spilling full runs to disk as needed.
    ///
    /// On a spill error the engine still takes ownership of the *whole*
    /// slice before the error surfaces: the un-consumed tail is buffered
    /// (transiently past the run capacity, bounded by the slice length),
    /// so a caller that treats the error as transient and keeps pushing
    /// never loses the records it already handed over.
    pub fn push(&mut self, records: &[(R::Key, R::Input)]) -> io::Result<()> {
        let mut rest = records;
        loop {
            self.refresh_run_capacity();
            if self.should_spill() {
                if let Err(e) = self.spill_run() {
                    // A failed spill parks its run in the pending queue,
                    // but must not cost the caller the rest of the slice:
                    // absorb it, then report.  The next successful spill
                    // drains the excess.
                    self.buffer_chunk(rest);
                    return Err(e);
                }
            }
            if rest.is_empty() {
                return Ok(());
            }
            // A shrunk grant can put the buffer over the new capacity; the
            // saturating space is then 0 and the spill above drains it on
            // the next iteration.
            let space = self.run_capacity.saturating_sub(self.buffer.len());
            let (chunk, tail) = rest.split_at(space.min(rest.len()));
            self.buffer_chunk(chunk);
            rest = tail;
        }
    }

    /// Moves `chunk` into the run buffer, keeping byte and record
    /// accounting exact (`records_pushed` counts every owned record even
    /// on error paths).
    fn buffer_chunk(&mut self, chunk: &[(R::Key, R::Input)]) {
        if chunk.is_empty() {
            return;
        }
        self.buffer.extend_from_slice(chunk);
        self.buffered_value_bytes += var_payload_bytes(chunk);
        self.stats.records_pushed += chunk.len() as u64;
        if obs::enabled() {
            R::metrics(m()).records_pushed.add(chunk.len() as u64);
        }
    }

    /// Appends a single record (no clone of the value).
    pub fn push_record(&mut self, key: R::Key, value: R::Input) -> io::Result<()> {
        // Buffer the record *before* any spill attempt: on a spill error
        // the caller's (possibly only) copy of the value is then owned by
        // the engine rather than dropped on the error return.
        if R::Input::SPILL_FIXED_SIZE.is_none() {
            self.buffered_value_bytes += value.spill_size();
        }
        self.buffer.push((key, value));
        self.stats.records_pushed += 1;
        if obs::enabled() {
            R::metrics(m()).records_pushed.incr();
        }
        self.refresh_run_capacity();
        if self.should_spill() {
            self.spill_run()?;
        }
        Ok(())
    }

    /// Reduces the buffer into a run (traced and timed), reusing `out`.
    pub(crate) fn reduce_run(&mut self, out: Run<R>) -> Run<R> {
        let records = self.buffer.len();
        let traced = obs::enabled() && records > 0;
        let start = traced.then(std::time::Instant::now);
        let run = {
            let _span = traced.then(|| obs::span!(R::SPAN, run = self.runs_reduced));
            self.reducer
                .reduce(&mut self.buffer, out, &self.cfg, &mut self.stats)
        };
        self.buffered_value_bytes = 0;
        if records > 0 {
            self.runs_reduced += 1;
        }
        if let Some(start) = start {
            let metrics = R::metrics(m());
            metrics.reduce_ns.record_duration(start.elapsed());
            if let Some(fill) = &metrics.run_fill_pct {
                fill.record((records * 100 / self.run_capacity.max(1)) as u64);
            }
        }
        run
    }

    fn spill_run(&mut self) -> io::Result<()> {
        // The directory is secured before the buffer is touched, so a
        // failure here leaves every record buffered (and counted).
        if self.space.is_none() {
            self.space = Some(SpillSpace::create(self.cfg.spill_dir.as_ref())?);
        }
        // Runs reclaimed from a failed write are retried first, in run
        // order, so the merge's smaller-index-wins tie rule keeps encoding
        // push order.  (The push loop spills once per iteration, so a
        // refilled buffer follows on the next one.)
        self.retry_pending_runs()?;
        if !self.buffer_needs_spill() {
            return Ok(());
        }
        if self.cfg.synchronous_spill || self.degraded.is_some() {
            // The queue is empty here, so the new run is written next.
            let run = self.reduce_run(Vec::new());
            self.pending_runs.push_back(run);
            self.retry_pending_runs()
        } else {
            self.spill_run_pipelined()
        }
    }

    /// Writes the pending runs synchronously, in run order (the pipeline
    /// is torn down by the time a run is pending); a run whose write fails
    /// stays at the front of the queue.
    fn retry_pending_runs(&mut self) -> io::Result<()> {
        while let Some(run) = self.pending_runs.pop_front() {
            if let Err(e) = self.write_run_sync(&run) {
                self.pending_runs.push_front(run);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Writes one reduced run inline on the calling thread.
    fn write_run_sync(&mut self, run: &[(R::RunKey, R::Output)]) -> io::Result<()> {
        let seq = self.sync_run_seq;
        let dir = &self.space.as_ref().expect("spill space secured").dir;
        let path = dir.join(format!("{}-s{seq:06}.bin", R::FILE_STEM));
        let _span = obs::enabled().then(|| obs::span!("spill_write", run = seq));
        let compression = self.cfg.spill_compression;
        let spilled =
            write_run_with_retry(&self.io, &path, run, compression, &self.cfg.spill_retry)
                .map_err(|e| {
                    std::fs::remove_file(&path).ok();
                    let attempted = run.iter().map(|(_, v)| 8 + v.spill_size() as u64).sum();
                    wrap_spill_err(&path, seq, attempted, e)
                })?;
        self.sync_run_seq += 1;
        self.record_spilled(spilled);
        self.note_degraded_sync();
        Ok(())
    }

    /// Counts one run durable on disk and keeps it for the merge.
    fn record_spilled(&mut self, run: SpilledRun) {
        self.stats.spilled_runs += 1;
        self.stats.spilled_bytes += run.bytes;
        self.stats.spilled_raw_bytes += run.raw_bytes;
        self.stats.spill_retries += run.retries as u64;
        if obs::enabled() {
            let metrics = R::metrics(m());
            metrics.spilled_runs.incr();
            metrics.spilled_bytes.add(run.bytes);
        }
        self.runs.push(run);
    }

    /// One clean synchronous spill while on probation: count it, and once
    /// [`dtsort::SpillRetryPolicy::probation_spills`] of them have
    /// succeeded, lift the probation so the next spill restarts the
    /// pipeline.  A no-op outside probation (including under
    /// [`StreamConfig::synchronous_spill`], which is a choice, not a
    /// degradation).
    fn note_degraded_sync(&mut self) {
        let Some(left) = self.degraded else { return };
        self.stats.degraded_syncs += 1;
        if obs::enabled() {
            m().degraded_syncs.incr();
        }
        let left = left.saturating_sub(1);
        self.degraded = (left > 0).then_some(left);
    }

    /// Hands the reduced run to the background writer and keeps going with
    /// a recycled buffer: run `N + 1` fills and reduces while run `N`
    /// streams to disk.
    fn spill_run_pipelined(&mut self) -> io::Result<()> {
        if self.pipeline.is_none() {
            let dir = self
                .space
                .as_ref()
                .expect("spill space secured")
                .dir
                .clone();
            let generation = self.pipeline_generation;
            self.pipeline_generation += 1;
            self.pipeline = Some(SpillPipeline::start(
                self.io.clone(),
                dir,
                SPILL_PIPELINE_DEPTH,
                format!("{}-p{generation}-", R::FILE_STEM),
                self.cfg.spill_compression,
                self.cfg.spill_retry,
            ));
        }
        let pipeline = self.pipeline.as_ref().expect("pipeline just started");
        let recycled = pipeline.recycled_buffer().unwrap_or_default();
        let run = self.reduce_run(recycled);
        self.in_flight_records += run.len();
        self.in_flight_runs += 1;
        // The run's bytes will not reach the spill counters until the
        // writer confirms them durable.
        self.stats.is_settled = false;
        let pipeline = self.pipeline.as_mut().expect("pipeline just started");
        pipeline.submit(run); // blocks while the pipeline is at depth
        self.reconcile_pipeline()
    }

    /// Accounts runs the writer has completed and surfaces any writer-side
    /// error; on error the pipeline is torn down, its unwritten runs are
    /// reclaimed as pending, and the engine goes on probation.
    fn reconcile_pipeline(&mut self) -> io::Result<()> {
        let (completed, error) = match &self.pipeline {
            None => return Ok(()),
            Some(p) => (p.drain_completed(), p.poll_error()),
        };
        self.account_completed(completed);
        if let Some(e) = error {
            self.teardown_pipeline();
            return Err(e);
        }
        Ok(())
    }

    fn account_completed(&mut self, completed: Vec<SpilledRun>) {
        for run in completed {
            self.in_flight_records -= run.len;
            self.in_flight_runs -= 1;
            self.record_spilled(run);
        }
        if self.in_flight_runs == 0 {
            self.stats.is_settled = true;
        }
    }

    /// Joins the writer, reclaims everything it did not write, and puts
    /// the engine on probation.  Returns the writer's error if one was
    /// still unreported.
    fn teardown_pipeline(&mut self) -> Option<io::Error> {
        let pipeline = self.pipeline.take()?;
        let closed = pipeline.close();
        self.account_completed(closed.completed);
        for run in closed.failed {
            self.in_flight_records -= run.len();
            self.in_flight_runs -= 1;
            self.pending_runs.push_back(run);
        }
        // Nothing is in flight any more: completed runs were accounted
        // above and failed ones reclaimed as pending.
        self.stats.is_settled = true;
        // Probation, not a life sentence: spill synchronously until enough
        // clean spills prove the fault was transient, then re-pipeline.
        self.degraded = Some(self.cfg.spill_retry.probation_spills.max(1));
        closed.error
    }

    /// Waits out the spill pipeline before a final merge; a writer error
    /// that never got the chance to surface on a `push` surfaces here.
    pub(crate) fn close_pipeline(&mut self) -> io::Result<()> {
        self.teardown_pipeline().map_or(Ok(()), Err)
    }

    /// Finishes into the output stream; a writer-side spill error that has
    /// not surfaced on a `push` yet surfaces here.  The stream holds one
    /// read buffer per spilled run (bounded by
    /// [`StreamConfig::merge_read_buffer_bytes`], decoded ahead of the
    /// merge unless read-ahead is off or disabled, see
    /// [`crate::SortedStream::read_ahead_disabled`]) plus the in-memory
    /// runs, so its footprint stays within the budget.
    pub fn finish(self) -> io::Result<R::Stream> {
        let (merge, reducer) = self.into_merge()?;
        Ok(reducer.into_stream(merge))
    }

    /// [`RunEngine::finish`], materialized into a vector (for the sorter,
    /// via the parallel merge of [`crate::StreamSorter::finish_into`]).
    pub fn finish_vec(self) -> io::Result<Vec<Item<R>>> {
        R::finish_vec(self)
    }

    /// Closes the pipeline, reduces the buffered tail, and opens the k-way
    /// merge over every run: spilled runs first, then pending runs, then
    /// the tail, so equal keys leave in push order.  Hands the reducer
    /// back for the output stream.
    pub(crate) fn into_merge(mut self) -> io::Result<(RunMerge<R::Output>, R)> {
        self.close_pipeline()?;
        let tail = self.reduce_run(Vec::new());
        let (mut cursors, read_ahead_disabled, prefetch_capped) =
            open_run_cursors::<R::Output>(&self.runs, &self.cfg, &self.io)?;
        let remaining = self.runs.iter().map(|r| r.len).sum::<usize>()
            + self.pending_runs.iter().map(Vec::len).sum::<usize>()
            + tail.len();
        let ordered = |run: Run<R>| -> Vec<(u64, R::Output)> {
            run.into_iter()
                .map(|(k, v)| (k.to_ordered_u64(), v))
                .collect()
        };
        let source = if self.runs.is_empty() && self.pending_runs.is_empty() {
            // One in-memory run: already in order, so no merge is needed.
            MergeSource::Single(ordered(tail).into_iter())
        } else {
            let in_memory = self.pending_runs.drain(..).chain(Some(tail));
            for run in in_memory.filter(|run| !run.is_empty()) {
                cursors.push(RunCursor::from_memory(ordered(run)));
            }
            MergeSource::Tree(LoserTree::new(cursors, R::Output::spill_record_lt))
        };
        let merge = RunMerge {
            source,
            remaining,
            read_ahead_disabled,
            prefetch_capped,
            // Records the merge phase as one span from here until the
            // stream is dropped, so prefetch spans can be shown (and
            // asserted) to overlap it.
            _merge_span: obs::enabled().then(|| obs::span!("merge")),
            // The scoped enable moves to the stream so the merge drain
            // records too; it reverts when the stream drops.
            _trace: self.trace_guard.take(),
            _space: self.space.take(),
        };
        Ok((merge, self.reducer))
    }
}

pub(crate) type MergeTree<V> = LoserTree<RunCursor<V>, fn(&(u64, V), &(u64, V)) -> bool>;

/// Where a finished engine's records come from.
pub(crate) enum MergeSource<V: SpillValue> {
    /// No spilled and no pending runs: the one in-memory run, read straight
    /// through.
    Single(std::vec::IntoIter<(u64, V)>),
    /// The k-way loser-tree merge over every run.
    Tree(MergeTree<V>),
}

/// The final k-way merge of a finished engine, plus what must live exactly
/// as long as it does.  Field order is drop order: the cursors close
/// before the span is recorded and before the spill directory (with its
/// run files) is deleted.
pub struct RunMerge<V: SpillValue> {
    pub(crate) source: MergeSource<V>,
    /// Records not yet popped.
    pub(crate) remaining: usize,
    pub(crate) read_ahead_disabled: bool,
    pub(crate) prefetch_capped: bool,
    /// Open `merge` trace span; recorded when the merge is dropped.
    _merge_span: Option<obs::SpanGuard>,
    /// Keeps [`StreamConfig::trace`]'s scoped enable alive through the
    /// merge drain (the span above is recorded on drop, while tracing is
    /// still on: [`obs::SpanGuard`] captures its enable state at start).
    _trace: Option<obs::EnableGuard>,
    _space: Option<SpillSpace>,
}

impl<V: SpillValue> RunMerge<V> {
    /// The next record in `(ordered key, run order)` order.
    pub(crate) fn pop(&mut self) -> Option<(u64, V)> {
        let record = match &mut self.source {
            MergeSource::Single(run) => run.next(),
            MergeSource::Tree(tree) => tree.pop(),
        }?;
        self.remaining -= 1;
        Some(record)
    }
}

/// Opens one merge cursor per spilled run, splitting
/// [`StreamConfig::merge_read_buffer_bytes`] across them.  With read-ahead
/// resolved on ([`StreamConfig::wants_merge_read_ahead`]) and a sane
/// fan-in, each run gets a read-ahead producer decoding blocks ahead of
/// the merge; otherwise the cursors read synchronously.
///
/// Read-ahead is silently a no-op in two regimes, both reported through
/// the returned flags (and the `prefetch.disabled_merges` /
/// `prefetch.capped_merges` metrics) rather than only through slower
/// merges: a fan-in above [`MAX_PREFETCH_RUNS`] (one thread per run would
/// be a thread explosion), and a per-run budget share below
/// [`MIN_PREFETCH_RUN_BUDGET`] (the double-buffered blocks would be too
/// small to hide any read latency).  Returns `(cursors,
/// read_ahead_disabled, capped_by_fan_in)`; the second flag covers both
/// regimes, the third specifically the fan-in cap.
pub(crate) fn open_run_cursors<V: SpillValue>(
    runs: &[SpilledRun],
    cfg: &StreamConfig,
    io: &SpillIoHandle,
) -> io::Result<(Vec<RunCursor<V>>, bool, bool)> {
    let reader_budget = per_run_reader_budget(cfg.merge_read_buffer_bytes, runs.len());
    let wants = cfg.wants_merge_read_ahead() && !runs.is_empty();
    let capped = wants && runs.len() > MAX_PREFETCH_RUNS;
    let prefetch = wants && !capped && reader_budget >= MIN_PREFETCH_RUN_BUDGET;
    let read_ahead_disabled = wants && !prefetch;
    if obs::enabled() {
        if read_ahead_disabled {
            m().prefetch_disabled_merges.incr();
        }
        if capped {
            m().prefetch_capped_merges.incr();
        }
    }
    let mut cursors: Vec<RunCursor<V>> = Vec::with_capacity(runs.len() + 2);
    if prefetch {
        // Spawn every producer before priming any cursor, so all the
        // first blocks decode in parallel.  Open-time failures (the only
        // ones with a clean retry point) are retried per the policy.
        let prefetchers: Vec<RunPrefetcher<V>> = runs
            .iter()
            .enumerate()
            .map(|(i, run)| {
                with_transient_retry(&cfg.spill_retry, || {
                    RunPrefetcher::spawn(io, run, reader_budget, i)
                })
                .map(|(p, _)| p)
                .map_err(|e| wrap_spill_err(&run.path, i, run.bytes, e))
            })
            .collect::<io::Result<_>>()?;
        for p in prefetchers {
            cursors.push(RunCursor::from_prefetch(p)?);
        }
    } else {
        for (i, run) in runs.iter().enumerate() {
            let cursor = with_transient_retry(&cfg.spill_retry, || {
                RunCursor::open_disk(io, run, reader_budget)
            })
            .map(|(c, _)| c)
            .map_err(|e| wrap_spill_err(&run.path, i, run.bytes, e))?;
            cursors.push(cursor);
        }
    }
    Ok((cursors, read_ahead_disabled, capped))
}

type Refill<V> = Box<dyn FnMut() -> Option<Vec<(u64, V)>> + Send>;

enum CursorInner<V: SpillValue> {
    Disk(RunReader<V>),
    Memory(std::vec::IntoIter<(u64, V)>),
    Blocks(BlockSource<(u64, V), Refill<V>>),
}

/// One run's cursor in the final merge ([`parlay::kway::RunSource`]).
pub(crate) struct RunCursor<V: SpillValue> {
    inner: CursorInner<V>,
    current: Option<(u64, V)>,
}

impl<V: SpillValue> RunCursor<V> {
    pub(crate) fn open_disk(
        io: &SpillIoHandle,
        run: &SpilledRun,
        buffer_bytes: usize,
    ) -> io::Result<Self> {
        let mut reader = RunReader::open(io, run, buffer_bytes)?;
        let current = reader.next_record()?;
        Ok(Self {
            inner: CursorInner::Disk(reader),
            current,
        })
    }

    pub(crate) fn from_memory(records: Vec<(u64, V)>) -> Self {
        let mut iter = records.into_iter();
        let current = iter.next();
        Self {
            inner: CursorInner::Memory(iter),
            current,
        }
    }

    /// A cursor fed by a [`RunPrefetcher`].  The first
    /// block is received here, so early read errors surface as a `Result`
    /// exactly like [`RunCursor::open_disk`]'s eager first read; errors in
    /// later blocks panic mid-merge (documented on
    /// [`crate::SortedStream`]).
    pub(crate) fn from_prefetch(mut src: RunPrefetcher<V>) -> io::Result<Self> {
        let mut first = match src.recv() {
            Some(res) => Some(res?),
            None => None, // empty run
        };
        let refill: Refill<V> = Box::new(move || {
            let block = match first.take() {
                Some(block) => block,
                None => {
                    // The receive is where the merge stalls when the
                    // read-ahead is not actually ahead; record the wait so
                    // the prefetch stage's effectiveness is measurable.
                    let stall_start = obs::enabled().then(std::time::Instant::now);
                    let received = src.recv();
                    if let Some(start) = stall_start {
                        m().prefetch_stall_ns.record_duration(start.elapsed());
                    }
                    match received {
                        Some(Ok(block)) => block,
                        Some(Err(e)) => panic!("I/O error reading spilled run: {e}"),
                        None => return None, // clean end of run
                    }
                }
            };
            if obs::enabled() {
                m().blocks_consumed.incr();
            }
            Some(block)
        });
        let mut source = BlockSource::new(refill);
        let current = source.pop();
        Ok(Self {
            inner: CursorInner::Blocks(source),
            current,
        })
    }
}

impl<V: SpillValue> RunSource for RunCursor<V> {
    type Item = (u64, V);

    fn peek(&self) -> Option<&(u64, V)> {
        self.current.as_ref()
    }

    fn pop(&mut self) -> Option<(u64, V)> {
        let item = self.current.take()?;
        self.current = match &mut self.inner {
            CursorInner::Memory(iter) => iter.next(),
            // The merge happens mid-iteration where no Result channel
            // exists; a read failure on a spill file we just wrote is an
            // environment fault, reported by panic (documented on
            // `SortedStream`).
            CursorInner::Disk(reader) => reader
                .next_record()
                .unwrap_or_else(|e| panic!("I/O error reading spilled run: {e}")),
            CursorInner::Blocks(source) => source.pop(),
        };
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan};
    use crate::{StreamGroupBy, StreamSorter, SumAgg};
    use dtsort::BudgetHandle;
    use parlay::random::Rng;
    use std::collections::BTreeMap;

    fn takes_single_run_path<V: SpillValue>(merge: &RunMerge<V>) -> bool {
        matches!(merge.source, MergeSource::Single(_))
    }

    fn drain<V: SpillValue>(mut merge: RunMerge<V>) -> Vec<(u64, V)> {
        std::iter::from_fn(|| merge.pop()).collect()
    }

    #[test]
    fn unspilled_engines_read_their_one_run_directly() {
        let rng = Rng::new(41);
        let input: Vec<(u64, u64)> = (0..5000u64).map(|i| (rng.ith_in(i, 700), i)).collect();
        let mut sorter: StreamSorter<u64, u64> = StreamSorter::new();
        sorter.push(&input).unwrap();
        let (merge, _) = sorter.into_merge().unwrap();
        assert!(takes_single_run_path(&merge));
        let mut want = input.clone();
        dtsort::sort_pairs(&mut want);
        assert_eq!(drain(merge), want);

        let mut gb: StreamGroupBy<u64, SumAgg> = StreamGroupBy::new(SumAgg);
        gb.push(&input).unwrap();
        let (merge, _) = gb.into_merge().unwrap();
        assert!(takes_single_run_path(&merge));
        let mut sums: BTreeMap<u64, u64> = BTreeMap::new();
        for &(k, v) in &input {
            *sums.entry(k).or_default() += v;
        }
        assert_eq!(drain(merge), sums.into_iter().collect::<Vec<_>>());

        let (merge, _) = StreamSorter::<u64, u64>::new().into_merge().unwrap();
        assert!(takes_single_run_path(&merge));
        assert!(drain(merge).is_empty());
    }

    #[test]
    fn run_reclaimed_into_pending_runs_takes_the_tree_path() {
        // The first spill write hits ENOSPC: the run is reclaimed into
        // `pending_runs` and, with no later push to retry it, `finish`
        // merges it from memory alongside the tail.
        let plan = FaultPlan::nth(FaultKind::WriteEnospc, 0);
        let cfg = StreamConfig {
            memory_budget_bytes: 16 << 10,
            synchronous_spill: true,
            ..StreamConfig::default()
        };
        let io = SpillIoHandle::blocking().with_faults(plan.clone());
        let mut sorter: StreamSorter<u64, u64> = StreamSorter::with_config_and_io(cfg, io);
        let rng = Rng::new(42);
        let mut pushed = Vec::new();
        for i in 0u64.. {
            let record = (rng.ith_in(i, 1 << 30), i);
            pushed.push(record);
            if sorter.push_record(record.0, record.1).is_err() {
                break;
            }
        }
        assert_eq!(plan.injected(), 1);
        assert_eq!(sorter.pending_runs.len(), 1, "the failed run is reclaimed");
        assert!(sorter.runs.is_empty());
        assert_eq!(sorter.len(), pushed.len(), "no record lost");
        let (merge, _) = sorter.into_merge().unwrap();
        assert!(!takes_single_run_path(&merge));
        dtsort::sort_pairs(&mut pushed);
        assert_eq!(drain(merge), pushed);
    }

    fn shrink_cfg(handle: &BudgetHandle) -> StreamConfig {
        StreamConfig {
            merge_read_ahead: Some(true),
            sort: dtsort::SortConfig {
                base_case_threshold: 64,
                ..Default::default()
            },
            ..StreamConfig::with_budget_handle(handle.clone())
        }
    }

    /// Drives `engine` through a live grant shrink: 40 pushes of 512
    /// records, with 7/8 of the grant reclaimed before push 15.  From then
    /// on the bytes held in memory (buffered + in flight to the writer)
    /// must fit the shrunk grant after every push.  Returns the engine and
    /// everything pushed.
    fn drive_shrink<R>(
        mut engine: RunEngine<R>,
        handle: &BudgetHandle,
    ) -> (RunEngine<R>, Vec<(u64, u64)>)
    where
        R: RunReducer<Key = u64, Input = u64>,
    {
        let initial_capacity = engine.run_capacity;
        let rng = Rng::new(31);
        let mut pushed: Vec<(u64, u64)> = Vec::new();
        for step in 0..40usize {
            if step == 15 {
                // The governor reclaims 7/8 of the grant from a live
                // session: the hook spills early rather than erroring,
                // and the old in-flight backlog is drained right here.
                handle.set(8 << 10);
                engine.shrink_to_budget().unwrap();
                engine.flush_spills().unwrap();
                assert!(
                    engine.run_capacity < initial_capacity,
                    "{}: capacity must track the shrunk grant",
                    R::SPAN
                );
            }
            let batch: Vec<(u64, u64)> = (0..512u64)
                .map(|i| {
                    let tag = (step as u64) * 512 + i;
                    (rng.ith(tag), tag)
                })
                .collect();
            pushed.extend_from_slice(&batch);
            engine.push(&batch).unwrap();
            if step >= 15 {
                let held_bytes = engine.buffer.len() * std::mem::size_of::<(u64, u64)>()
                    + engine.in_flight_records * std::mem::size_of::<(R::RunKey, R::Output)>();
                assert!(
                    held_bytes <= handle.get(),
                    "{}: step {step}: {held_bytes} held bytes exceed the {} byte grant",
                    R::SPAN,
                    handle.get()
                );
            }
        }
        (engine, pushed)
    }

    #[test]
    fn budget_shrink_is_respected_by_every_later_push() {
        // Regression (governor reclaim): `run_capacity` was read once at
        // construction, so shrinking a live grant changed nothing.  Now a
        // [`dtsort::BudgetHandle`] shrink must take effect on the next
        // chunk in both engines, and leave their output exact.
        let handle = BudgetHandle::new(64 << 10);
        let sorter: StreamSorter<u64, u64> = StreamSorter::with_config(shrink_cfg(&handle));
        let (sorter, pushed) = drive_shrink(sorter, &handle);
        let mut want = pushed;
        want.sort_by_key(|r| r.0);
        let got = sorter.finish_vec().unwrap();
        assert_eq!(got, want, "shrink must not perturb the sorted output");

        let handle = BudgetHandle::new(64 << 10);
        let gb: StreamGroupBy<u64, SumAgg> =
            StreamGroupBy::with_config(SumAgg, shrink_cfg(&handle));
        let (gb, pushed) = drive_shrink(gb, &handle);
        assert!(gb.stats().spilled_runs > 0, "the shrink must force spills");
        let mut want: BTreeMap<u64, u64> = BTreeMap::new();
        for (k, v) in pushed {
            *want.entry(k).or_default() += v;
        }
        let got = gb.finish_vec().unwrap();
        assert_eq!(
            got,
            want.into_iter().collect::<Vec<_>>(),
            "shrink must not perturb the aggregates"
        );
    }
}

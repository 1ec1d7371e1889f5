//! The bounded-memory streaming sorter: the [`RunEngine`] with the
//! sorting run reducer ([`SortRuns`]).

use crate::engine::{RunEngine, RunMerge, RunReducer, StreamStats};
use crate::metrics::{EngineMetrics, StreamMetrics};
use crate::spill::{
    per_run_reader_budget, sealed::Sealed, with_transient_retry, wrap_spill_err, PodValue,
    RunReader, SpillValue,
};
use crate::spillio::SpillIoHandle;
use dtsort::{sort_run_pairs_with, IntegerKey, RunReport, SortConfig, StreamConfig};
use parlay::kway::kway_merge_into;
use std::io;
use std::marker::PhantomData;

/// A bounded-memory, out-of-core stable sorter over pushed record batches.
///
/// Records are buffered up to the run capacity derived from
/// [`StreamConfig::memory_budget_bytes`]; each full buffer is stably sorted
/// with DovetailSort into a *run* and spilled to disk.  Heavy keys
/// confirmed by one run seed the next run's heavy-key detection
/// ([`dtsort::sort_run_pairs_with`]), so duplicate-dominated streams keep
/// DovetailSort's `O(n)` fast path in every run regardless of how the
/// stream is chunked.  [`StreamSorter::finish`] k-way merges all runs with
/// a loser tree into a sorted iterator; [`StreamSorter::finish_into`]
/// merges in parallel into a caller-provided slice.  Buffering, spilling,
/// failure recovery and the merge setup are the shared [`RunEngine`]'s.
///
/// Values may be fixed-size [`PodValue`]s (spilled as raw byte images) or
/// variable-length [`VarValue`](crate::VarValue)s such as `String` and `Vec<u8>` (spilled
/// length-prefixed); see [`SpillValue`].  For variable-length values the
/// sorter additionally tracks the buffered payload bytes and spills early
/// once they reach one budget share
/// ([`StreamConfig::spill_shares`]), so a stream of large values cannot
/// overshoot the budget through the record-count heuristic.
///
/// ```
/// use stream::StreamSorter;
/// use dtsort::StreamConfig;
///
/// // A tiny budget forces several spilled runs even for small inputs.
/// let mut sorter: StreamSorter<u32, u32> =
///     StreamSorter::with_config(StreamConfig::with_memory_budget(16 << 10));
/// for batch in 0..10u32 {
///     let records: Vec<(u32, u32)> =
///         (0..1000u32).map(|i| (i.wrapping_mul(2654435761).rotate_left(7), batch * 1000 + i)).collect();
///     sorter.push(&records).unwrap();
/// }
/// let sorted: Vec<(u32, u32)> = sorter.finish().unwrap().collect();
/// assert_eq!(sorted.len(), 10_000);
/// assert!(sorted.windows(2).all(|w| w[0].0 <= w[1].0));
/// ```
pub type StreamSorter<K, V = ()> = RunEngine<SortRuns<K, V>>;

/// The sorter's run reducer: a stable DovetailSort of the buffer, seeded
/// with the heavy keys the previous run confirmed.
pub struct SortRuns<K, V> {
    /// Heavy keys (ordered-`u64` domain) carried into the next run.
    carry: Vec<u64>,
    _records: PhantomData<fn() -> (K, V)>,
}

impl<K, V> Sealed for SortRuns<K, V> {}

impl<K: IntegerKey, V: SpillValue> RunReducer for SortRuns<K, V> {
    type Key = K;
    type Input = V;
    type RunKey = K;
    type Output = V;
    const FILE_STEM: &'static str = "run";
    const SPAN: &'static str = "sort_run";

    fn run_capacity(cfg: &StreamConfig) -> usize {
        cfg.run_capacity(std::mem::size_of::<(K, V)>())
    }

    fn metrics(m: &StreamMetrics) -> &EngineMetrics {
        &m.sort
    }

    /// Sorts the buffer in place and hands it over as the run; the
    /// recycled `out` becomes the next buffer.
    fn reduce(
        &mut self,
        buffer: &mut Vec<(K, V)>,
        out: Vec<(K, V)>,
        cfg: &StreamConfig,
        stats: &mut StreamStats,
    ) -> Vec<(K, V)> {
        let report = V::sort_spill_run(buffer, &cfg.sort, &self.carry);
        self.carry = report.heavy_keys;
        self.carry.truncate(cfg.max_carried_heavy_keys);
        stats.carried_heavy_keys = self.carry.len();
        std::mem::replace(buffer, out)
    }

    type Stream = SortedStream<K, V>;

    fn into_stream(self, merge: RunMerge<V>) -> SortedStream<K, V> {
        SortedStream {
            merge,
            _key: PhantomData,
        }
    }

    fn finish_vec(sorter: StreamSorter<K, V>) -> io::Result<Vec<(K, V)>> {
        let mut out = vec![(K::from_ordered_u64(0), V::spill_placeholder()); sorter.len()];
        sorter.finish_into(&mut out)?;
        Ok(out)
    }
}

impl<K: IntegerKey, V: SpillValue> Default for StreamSorter<K, V> {
    fn default() -> Self {
        Self::with_config(StreamConfig::default())
    }
}

impl<K: IntegerKey, V: SpillValue> StreamSorter<K, V> {
    /// Sorter with the default [`StreamConfig`] (256 MiB budget).
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_config(cfg: StreamConfig) -> Self {
        Self::with_config_and_io(cfg, SpillIoHandle::blocking())
    }

    /// Like [`StreamSorter::with_config`], but spilling through a
    /// caller-provided I/O handle — this is how a multi-session server
    /// shares one handle across sessions and gives a faulted view of it to
    /// the sessions under test.
    pub fn with_config_and_io(cfg: StreamConfig, io: SpillIoHandle) -> Self {
        let reducer = SortRuns {
            carry: Vec::new(),
            _records: PhantomData,
        };
        Self::with_reducer(reducer, cfg, io)
    }

    /// Total records accepted so far (buffered, in flight to the writer,
    /// pending retry, or spilled).
    pub fn len(&self) -> usize {
        self.runs.iter().map(|r| r.len).sum::<usize>()
            + self.in_flight_records
            + self.pending_runs.iter().map(Vec::len).sum::<usize>()
            + self.buffer.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heavy keys (ordered-`u64` domain) carried into the next run.
    pub fn carried_heavy_keys(&self) -> &[u64] {
        &self.reducer.carry
    }

    /// Finishes the sort by merging every run, in parallel, into `out`.
    ///
    /// All runs are loaded back into memory for the parallel merge, so
    /// `out` (which the caller sized to the full dataset) dominates the
    /// footprint.  Use [`StreamSorter::finish`] when the result must not be
    /// materialized.
    ///
    /// # Panics
    /// Panics if `out.len() != self.len()`.
    pub fn finish_into(mut self, out: &mut [(K, V)]) -> io::Result<()> {
        assert_eq!(
            out.len(),
            self.len(),
            "finish_into: output slice must hold exactly the pushed records"
        );
        // One merge span over run loading + the parallel merge, matching
        // the span the streaming [`StreamSorter::finish`] path records.
        let _merge_span = obs::enabled().then(|| obs::span!("merge"));
        self.close_pipeline()?;
        let tail = self.reduce_run(Vec::new());
        if self.runs.is_empty() && self.pending_runs.is_empty() {
            for (slot, rec) in out.iter_mut().zip(tail) {
                *slot = rec;
            }
            return Ok(());
        }
        let reader_budget =
            per_run_reader_budget(self.cfg.merge_read_buffer_bytes, self.runs.len());
        // Load all spilled runs back in parallel: each run is its own file,
        // so reads are independent and the deserialization fans out across
        // the pool.  Errors are surfaced after the barrier (first one wins).
        let mut results: Vec<io::Result<Vec<(K, V)>>> =
            (0..self.runs.len()).map(|_| Ok(Vec::new())).collect();
        {
            let cell = parlay::slice::UnsafeSliceCell::new(&mut results);
            let runs = &self.runs;
            let io = &self.io;
            let retry = &self.cfg.spill_retry;
            parlay::par::parallel_for_grained(0, runs.len(), 1, &|i| {
                // Whole-run granularity: a transient read failure anywhere
                // in the run re-opens and re-reads it from the start.
                let res = with_transient_retry(retry, || {
                    RunReader::<V>::open(io, &runs[i], reader_budget).and_then(|mut r| r.read_all())
                })
                .map(|(records, _)| records)
                .map_err(|e| wrap_spill_err(&runs[i].path, i, runs[i].bytes, e));
                unsafe { cell.write(i, res) };
            });
        }
        let mut loaded: Vec<Vec<(K, V)>> =
            Vec::with_capacity(self.runs.len() + self.pending_runs.len());
        for res in results {
            loaded.push(res?);
        }
        // Runs reclaimed from failed writes are already in memory; they
        // follow the disk runs in run order.
        loaded.extend(self.pending_runs.drain(..));
        V::merge_spill_runs_into(loaded, tail, out);
        Ok(())
    }
}

/// Var-path run sort: DovetailSort moves only `(ordered key, index)` tags;
/// the owned values are permuted once afterwards.  Stable because the sort
/// is stable and tags are unique.  The permutation goes through a
/// transient slot vector (one extra inline-size copy of the run) rather
/// than in-place cycle-following: two straight-line passes beat chased
/// cycles on large runs, and the inline records are a small fraction of a
/// var-length run's footprint.
pub(crate) fn var_sort_run<K: IntegerKey, V: SpillValue>(
    buffer: &mut Vec<(K, V)>,
    cfg: &SortConfig,
    carry: &[u64],
) -> RunReport {
    let mut tags: Vec<(u64, u64)> = buffer
        .iter()
        .enumerate()
        .map(|(i, (k, _))| (k.to_ordered_u64(), i as u64))
        .collect();
    let report = sort_run_pairs_with(&mut tags, cfg, carry);
    let mut slots: Vec<Option<(K, V)>> = buffer.drain(..).map(Some).collect();
    buffer.extend(
        tags.iter()
            .map(|&(_, i)| slots[i as usize].take().expect("each slot moved once")),
    );
    report
}

/// Pod-path final merge: the parallel k-way merge over the records
/// themselves (the pre-variable-length fast path, byte-for-byte).
pub(crate) fn pod_merge_runs_into<K: IntegerKey, V: PodValue>(
    runs: Vec<Vec<(K, V)>>,
    tail: Vec<(K, V)>,
    out: &mut [(K, V)],
) {
    let mut slices: Vec<&[(K, V)]> = runs.iter().map(|r| r.as_slice()).collect();
    slices.push(&tail);
    kway_merge_into(&slices, out, &|a: &(K, V), b: &(K, V)| a.0 < b.0);
}

/// Var-path final merge: the parallel k-way merge runs over pod
/// `(ordered key, slot)` tags, then the owned records are gathered by tag.
/// Ties favour earlier runs and slots increase within a run, so stability
/// matches the pod path exactly.  Values that embed a full key
/// ([`SpillValue::spill_embedded_key`], e.g. string-keyed records whose
/// ordered key is only a prefix) break ordered-key ties on those bytes.
pub(crate) fn var_merge_runs_into<K: IntegerKey, V: SpillValue>(
    runs: Vec<Vec<(K, V)>>,
    tail: Vec<(K, V)>,
    out: &mut [(K, V)],
) {
    let mut key_runs: Vec<Vec<(u64, u64)>> = Vec::with_capacity(runs.len() + 1);
    let mut embedded: Vec<Option<&[u8]>> = Vec::with_capacity(out.len());
    let mut base = 0u64;
    for run in runs.iter().chain(std::iter::once(&tail)) {
        key_runs.push(
            run.iter()
                .enumerate()
                .map(|(i, (k, _))| (k.to_ordered_u64(), base + i as u64))
                .collect(),
        );
        embedded.extend(run.iter().map(|(_, v)| v.spill_embedded_key()));
        base += run.len() as u64;
    }
    debug_assert_eq!(base as usize, out.len());
    let slices: Vec<&[(u64, u64)]> = key_runs.iter().map(|r| r.as_slice()).collect();
    let mut merged = vec![(0u64, 0u64); out.len()];
    kway_merge_into(&slices, &mut merged, &|a: &(u64, u64), b: &(u64, u64)| {
        (a.0, embedded[a.1 as usize]) < (b.0, embedded[b.1 as usize])
    });
    drop(embedded);
    let mut slots: Vec<Option<(K, V)>> = Vec::with_capacity(out.len());
    for run in runs {
        slots.extend(run.into_iter().map(Some));
    }
    slots.extend(tail.into_iter().map(Some));
    for (slot, &(_, tag)) in out.iter_mut().zip(merged.iter()) {
        *slot = slots[tag as usize]
            .take()
            .expect("each record gathered once");
    }
}

/// Streaming sorted output of a [`StreamSorter`] (ascending, stable).
///
/// Holds the spill directory alive until dropped; the directory and its
/// run files are deleted on drop.  Open/initial-read errors surface from
/// [`StreamSorter::finish`]; an I/O error in the middle of iteration
/// panics (the spill files live in a directory this process just wrote).
pub struct SortedStream<K: IntegerKey, V: SpillValue> {
    merge: RunMerge<V>,
    _key: PhantomData<K>,
}

impl<K: IntegerKey, V: SpillValue> SortedStream<K, V> {
    /// Whether this merge *wanted* read-ahead
    /// ([`StreamConfig::wants_merge_read_ahead`]) but ran synchronously
    /// anyway: the fan-in exceeded 64 runs (one read-ahead thread per run
    /// would be a thread explosion), or the per-run share of
    /// [`StreamConfig::merge_read_buffer_bytes`] fell
    /// below the 4 KiB floor where double-buffering stops paying.  Also
    /// counted by the `prefetch.disabled_merges` metric.  Widen the read
    /// buffer (or the memory budget, to get fewer, larger runs) to re-arm
    /// the read-ahead.
    pub fn read_ahead_disabled(&self) -> bool {
        self.merge.read_ahead_disabled
    }

    /// Whether read-ahead was disabled *specifically* by the fan-in cap
    /// (the first regime of [`SortedStream::read_ahead_disabled`]; also
    /// counted by the `prefetch.capped_merges` metric).  A larger memory
    /// budget (fewer, larger runs) lifts the cap.
    pub fn prefetch_capped(&self) -> bool {
        self.merge.prefetch_capped
    }
}

impl<K: IntegerKey, V: SpillValue> Iterator for SortedStream<K, V> {
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        let (key, value) = self.merge.pop()?;
        Some((K::from_ordered_u64(key), value))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.merge.remaining, Some(self.merge.remaining))
    }
}

impl<K: IntegerKey, V: SpillValue> ExactSizeIterator for SortedStream<K, V> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultKind, FaultPlan};
    use parlay::random::Rng;

    fn tiny_cfg(budget: usize) -> StreamConfig {
        StreamConfig {
            memory_budget_bytes: budget,
            // Force the read-ahead merge path so it is exercised even on
            // single-CPU CI hosts (where auto mode would disable it).
            merge_read_ahead: Some(true),
            sort: dtsort::SortConfig {
                base_case_threshold: 64,
                ..Default::default()
            },
            ..StreamConfig::default()
        }
    }

    #[test]
    fn in_memory_only_path() {
        let mut sorter: StreamSorter<u32, u32> = StreamSorter::new();
        let input: Vec<(u32, u32)> = vec![(5, 0), (3, 1), (5, 2), (1, 3)];
        sorter.push(&input).unwrap();
        assert_eq!(sorter.len(), 4);
        assert_eq!(sorter.stats().spilled_runs, 0);
        let got: Vec<(u32, u32)> = sorter.finish().unwrap().collect();
        assert_eq!(got, vec![(1, 3), (3, 1), (5, 0), (5, 2)]);
    }

    #[test]
    fn spills_and_merges_more_data_than_budget() {
        let n = 50_000usize;
        let rng = Rng::new(11);
        let input: Vec<(u32, u32)> = (0..n)
            .map(|i| (rng.ith_in(i as u64, 1 << 20) as u32, i as u32))
            .collect();
        // 8-byte records, ~2k records per run => ~25 spilled runs.
        let mut sorter: StreamSorter<u32, u32> = StreamSorter::with_config(tiny_cfg(32 << 10));
        for batch in input.chunks(997) {
            sorter.push(batch).unwrap();
        }
        assert!(
            sorter.stats().spilled_runs > 5,
            "expected spills, got {:?}",
            sorter.stats()
        );
        let got: Vec<(u32, u32)> = sorter.finish().unwrap().collect();
        let mut want = input;
        want.sort_by_key(|r| r.0);
        assert_eq!(got, want, "stable sorted permutation expected");
    }

    #[test]
    fn finish_into_and_finish_vec_match_iterator() {
        let n = 20_000usize;
        let rng = Rng::new(12);
        let input: Vec<(u64, u64)> = (0..n)
            .map(|i| (rng.ith_in(i as u64, 500), i as u64))
            .collect();
        let mk = || {
            let mut s: StreamSorter<u64, u64> = StreamSorter::with_config(tiny_cfg(64 << 10));
            s.push(&input).unwrap();
            s
        };
        let via_iter: Vec<(u64, u64)> = mk().finish().unwrap().collect();
        let via_vec = mk().finish_vec().unwrap();
        let mut via_slice = vec![(0u64, 0u64); n];
        mk().finish_into(&mut via_slice).unwrap();
        let mut want = input;
        want.sort_by_key(|r| r.0);
        assert_eq!(via_iter, want);
        assert_eq!(via_vec, want);
        assert_eq!(via_slice, want);
    }

    #[test]
    fn heavy_keys_are_carried_across_runs() {
        // 70% of every batch is key 42: after the first spilled run the
        // carry must contain 42's ordered image.
        let rng = Rng::new(13);
        let mut sorter: StreamSorter<u32, u32> = StreamSorter::with_config(tiny_cfg(64 << 10));
        let mut pushed = 0u32;
        while sorter.stats().spilled_runs < 3 {
            let batch: Vec<(u32, u32)> = (0..1024u32)
                .map(|i| {
                    let k = if rng.ith_f64((pushed + i) as u64) < 0.7 {
                        42
                    } else {
                        rng.ith((pushed + i) as u64) as u32
                    };
                    (k, pushed + i)
                })
                .collect();
            sorter.push(&batch).unwrap();
            pushed += 1024;
        }
        assert!(
            sorter.carried_heavy_keys().contains(&42),
            "carry: {:?}",
            sorter.carried_heavy_keys()
        );
        let got: Vec<(u32, u32)> = sorter.finish().unwrap().collect();
        assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn unit_values_and_signed_keys() {
        let rng = Rng::new(14);
        let mut sorter: StreamSorter<i64> = StreamSorter::with_config(tiny_cfg(32 << 10));
        let keys: Vec<i64> = (0..30_000).map(|i| rng.ith(i) as i64).collect();
        for k in &keys {
            sorter.push_record(*k, ()).unwrap();
        }
        assert!(sorter.stats().spilled_runs > 0);
        let got: Vec<i64> = sorter.finish().unwrap().map(|(k, ())| k).collect();
        let mut want = keys;
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let sorter: StreamSorter<u32, u32> = StreamSorter::new();
        assert!(sorter.is_empty());
        assert_eq!(sorter.finish().unwrap().count(), 0);

        let mut one: StreamSorter<u32, u32> = StreamSorter::new();
        one.push_record(9, 1).unwrap();
        assert_eq!(one.finish_vec().unwrap(), vec![(9, 1)]);
    }

    #[test]
    #[should_panic(expected = "output slice")]
    fn finish_into_length_mismatch_panics() {
        let mut sorter: StreamSorter<u32, u32> = StreamSorter::new();
        sorter.push_record(1, 1).unwrap();
        let mut out = vec![(0u32, 0u32); 5];
        sorter.finish_into(&mut out).unwrap();
    }

    #[test]
    fn spill_directory_is_removed_on_drop() {
        let base = std::env::temp_dir().join(format!("pisort-droptest-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let cfg = StreamConfig {
            spill_dir: Some(base.clone()),
            ..tiny_cfg(16 << 10)
        };
        let mut sorter: StreamSorter<u32, u32> = StreamSorter::with_config(cfg);
        let batch: Vec<(u32, u32)> = (0..20_000u32).map(|i| (i % 100, i)).collect();
        sorter.push(&batch).unwrap();
        assert!(sorter.stats().spilled_runs > 0);
        let stream = sorter.finish().unwrap();
        assert!(std::fs::read_dir(&base).unwrap().count() > 0);
        drop(stream);
        assert_eq!(std::fs::read_dir(&base).unwrap().count(), 0);
        std::fs::remove_dir_all(&base).ok();
    }

    /// Deterministic variable-length payload embedding the record index.
    fn payload(i: usize) -> String {
        let filler = "abcdefghijklmnop"
            .chars()
            .cycle()
            .take((i * 37) % 120)
            .collect::<String>();
        format!("v{i:06}-{filler}")
    }

    #[test]
    fn string_values_spill_and_merge_stably() {
        let n = 30_000usize;
        let rng = Rng::new(21);
        let input: Vec<(u64, String)> = (0..n)
            .map(|i| (rng.ith_in(i as u64, 300), payload(i)))
            .collect();
        let mut sorter: StreamSorter<u64, String> = StreamSorter::with_config(tiny_cfg(64 << 10));
        for chunk in input.chunks(997) {
            sorter.push(chunk).unwrap();
        }
        assert!(
            sorter.stats().spilled_runs > 2,
            "stats: {:?}",
            sorter.stats()
        );
        let got: Vec<(u64, String)> = sorter.finish().unwrap().collect();
        let mut want = input;
        want.sort_by_key(|r| r.0);
        assert_eq!(got, want, "stable sorted permutation of string records");
    }

    #[test]
    fn string_finish_paths_agree() {
        let n = 12_000usize;
        let rng = Rng::new(22);
        let input: Vec<(u32, String)> = (0..n)
            .map(|i| (rng.ith_in(i as u64, 64) as u32, payload(i)))
            .collect();
        let mk = || {
            let mut s: StreamSorter<u32, String> = StreamSorter::with_config(tiny_cfg(32 << 10));
            s.push(&input).unwrap();
            assert!(s.stats().spilled_runs > 0);
            s
        };
        let via_iter: Vec<(u32, String)> = mk().finish().unwrap().collect();
        let via_vec = mk().finish_vec().unwrap();
        let mut via_slice = vec![(0u32, String::new()); n];
        mk().finish_into(&mut via_slice).unwrap();
        let mut want = input;
        want.sort_by_key(|r| r.0);
        assert_eq!(via_iter, want);
        assert_eq!(via_vec, want);
        assert_eq!(via_slice, want);
    }

    #[test]
    fn byte_vec_values_roundtrip_including_empty_and_multi_kb() {
        let rng = Rng::new(23);
        let input: Vec<(u32, Vec<u8>)> = (0..4_000usize)
            .map(|i| {
                let len = match i % 3 {
                    0 => 0,
                    1 => (i * 13) % 200,
                    _ => 2048 + (i % 1024),
                };
                let payload = (0..len).map(|j| (i + j) as u8).collect();
                (rng.ith_in(i as u64, 40) as u32, payload)
            })
            .collect();
        let mut sorter: StreamSorter<u32, Vec<u8>> = StreamSorter::with_config(tiny_cfg(64 << 10));
        sorter.push(&input).unwrap();
        assert!(sorter.stats().spilled_runs > 0);
        let got = sorter.finish_vec().unwrap();
        let mut want = input;
        want.sort_by_key(|r| r.0);
        assert_eq!(got, want);
    }

    #[test]
    fn large_var_values_spill_by_bytes_not_record_count() {
        // 100 records fit the record-count capacity comfortably, but their
        // multi-KiB payloads exceed half the budget many times over; the
        // byte tracker must force spills anyway.
        let mut sorter: StreamSorter<u64, String> = StreamSorter::with_config(tiny_cfg(64 << 10));
        assert!(sorter.run_capacity > 100, "premise: count would not spill");
        for i in 0..100u64 {
            sorter.push_record(i % 7, "z".repeat(2 << 10)).unwrap();
        }
        assert!(
            sorter.stats().spilled_runs > 3,
            "payload bytes must trigger spills: {:?}",
            sorter.stats()
        );
        let got = sorter.finish_vec().unwrap();
        assert_eq!(got.len(), 100);
        assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn records_pushed_counts_accepted_records_when_spill_fails() {
        // Point the spill directory below a regular *file*: creating the
        // unique spill subdirectory fails, so the first spill errors out.
        let base = std::env::temp_dir().join(format!("pisort-failtest-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let blocker = base.join("not-a-directory");
        std::fs::write(&blocker, b"x").unwrap();
        let cfg = StreamConfig {
            spill_dir: Some(blocker.clone()),
            ..tiny_cfg(16 << 10)
        };
        let mut sorter: StreamSorter<u32, u32> = StreamSorter::with_config(cfg);
        let batch: Vec<(u32, u32)> = (0..20_000u32).map(|i| (i, i)).collect();
        let err = sorter
            .push(&batch)
            .expect_err("spill into a file must fail");
        assert_ne!(err.kind(), io::ErrorKind::NotFound);
        // Regression (stats drift): every record the sorter still owns is
        // counted, even though the batch failed part-way.
        assert!(sorter.stats().records_pushed > 0);
        assert_eq!(
            sorter.stats().records_pushed,
            sorter.len() as u64,
            "records_pushed must track exactly the records the sorter holds"
        );
        assert_eq!(sorter.stats().spilled_runs, 0);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn flush_spills_makes_stats_exact() {
        let mut sorter: StreamSorter<u32, u32> = StreamSorter::with_config(tiny_cfg(32 << 10));
        let batch: Vec<(u32, u32)> = (0..40_000u32).map(|i| (i.rotate_left(16), i)).collect();
        sorter.push(&batch).unwrap();
        sorter.flush_spills().unwrap();
        // After a flush nothing is in flight: every spilled run is durable
        // and counted, and the byte meter matches the files on disk.
        assert_eq!(sorter.in_flight_records, 0);
        assert_eq!(sorter.in_flight_runs, 0);
        let on_disk: u64 = sorter.runs.iter().map(|r| r.bytes).sum();
        assert_eq!(sorter.stats().spilled_bytes, on_disk);
        assert_eq!(sorter.stats().spilled_runs, sorter.runs.len());
        for run in &sorter.runs {
            assert_eq!(std::fs::metadata(&run.path).unwrap().len(), run.bytes);
        }
        let got = sorter.finish_vec().unwrap();
        let mut want = batch;
        want.sort_by_key(|r| r.0);
        assert_eq!(got, want);
    }

    #[test]
    fn concurrent_sorters_in_one_process_use_distinct_spill_dirs() {
        // Regression (spill-dir collision): the spill directory name was
        // derived from the pid alone, so two live sorters in one process
        // shared a directory and `remove_dir_all` on one stream's drop
        // deleted the other's runs mid-merge.
        let mk = |seed: u64| {
            let s: StreamSorter<u32, u32> = StreamSorter::with_config(tiny_cfg(16 << 10));
            let rng = Rng::new(seed);
            let input: Vec<(u32, u32)> = (0..20_000usize)
                .map(|i| (rng.ith(i as u64) as u32, i as u32))
                .collect();
            // Interleave pushes so both spill spaces are live at once.
            (s, input)
        };
        let (mut a, input_a) = mk(41);
        let (mut b, input_b) = mk(42);
        for (ca, cb) in input_a.chunks(997).zip(input_b.chunks(997)) {
            a.push(ca).unwrap();
            b.push(cb).unwrap();
        }
        assert!(a.stats().spilled_runs > 0 && b.stats().spilled_runs > 0);
        let dir_a = a.space.as_ref().unwrap().dir.clone();
        let dir_b = b.space.as_ref().unwrap().dir.clone();
        assert_ne!(dir_a, dir_b, "two live sorters must not share a dir");
        // Dropping one sorter's finished stream (deleting its directory)
        // must leave the other's runs readable.
        let got_a: Vec<(u32, u32)> = a.finish().unwrap().collect();
        assert!(!dir_a.exists(), "finished stream cleans its own dir");
        assert!(dir_b.exists(), "the sibling's dir must survive");
        let got_b: Vec<(u32, u32)> = b.finish().unwrap().collect();
        let sort = |mut v: Vec<(u32, u32)>| {
            v.sort_by_key(|r| r.0);
            v
        };
        assert_eq!(got_a, sort(input_a));
        assert_eq!(got_b, sort(input_b));
    }

    // -----------------------------------------------------------------
    // Failure injection: a value whose serializer panics after a chosen
    // number of writes, modelling a mid-spill crash.
    // -----------------------------------------------------------------

    use crate::spill::sealed::Sealed;
    use crate::spill::VarValue;
    use std::io::{Read, Write};
    use std::sync::atomic::{AtomicI64, Ordering};
    use std::sync::Arc;

    /// A var-length value that panics inside `spill_write` when its shared
    /// fuse counts down to zero (exactly once).
    #[derive(Debug, Clone)]
    struct Grenade {
        fuse: Arc<AtomicI64>,
        payload: Vec<u8>,
    }

    impl Grenade {
        fn new(fuse: &Arc<AtomicI64>, i: u64) -> Self {
            Self {
                fuse: Arc::clone(fuse),
                payload: format!("payload-{i:06}-{}", "g".repeat((i as usize * 11) % 64))
                    .into_bytes(),
            }
        }
    }

    impl VarValue for Grenade {
        fn as_spill_bytes(&self) -> &[u8] {
            &self.payload
        }
        fn from_spill_bytes(bytes: &[u8]) -> io::Result<Self> {
            Ok(Self {
                fuse: Arc::new(AtomicI64::new(i64::MAX)),
                payload: bytes.to_vec(),
            })
        }
    }

    impl Sealed for Grenade {}
    impl SpillValue for Grenade {
        const SPILL_FIXED_SIZE: Option<usize> = None;
        fn spill_size(&self) -> usize {
            4 + self.payload.len()
        }
        fn spill_write(&self, w: &mut dyn Write) -> io::Result<()> {
            if self.fuse.fetch_sub(1, Ordering::SeqCst) == 1 {
                panic!("injected spill-write failure");
            }
            self.payload.spill_write(w)
        }
        fn spill_read(
            r: &mut dyn Read,
            scratch: &mut Vec<u8>,
            payload_budget: u64,
        ) -> io::Result<Self> {
            Vec::<u8>::spill_read(r, scratch, payload_budget).map(|payload| Self {
                fuse: Arc::new(AtomicI64::new(i64::MAX)),
                payload,
            })
        }
        fn spill_placeholder() -> Self {
            Self {
                fuse: Arc::new(AtomicI64::new(i64::MAX)),
                payload: Vec::new(),
            }
        }
        fn sort_spill_run<K: IntegerKey>(
            buffer: &mut Vec<(K, Self)>,
            cfg: &SortConfig,
            carry: &[u64],
        ) -> RunReport {
            var_sort_run(buffer, cfg, carry)
        }
        fn merge_spill_runs_into<K: IntegerKey>(
            runs: Vec<Vec<(K, Self)>>,
            tail: Vec<(K, Self)>,
            out: &mut [(K, Self)],
        ) {
            var_merge_runs_into(runs, tail, out)
        }
    }

    #[test]
    fn panic_mid_spill_leaves_every_recorded_run_complete_on_disk() {
        // Synchronous mode: the injected panic unwinds straight through
        // `write_run`'s `BufWriter`, the classic silent-truncation shape.
        // The invariant under test: a run the sorter *recorded* as spilled
        // is fully on disk — only the never-recorded run may be partial.
        let cfg = StreamConfig {
            synchronous_spill: true,
            ..tiny_cfg(16 << 10)
        };
        let mut sorter: StreamSorter<u64, Grenade> = StreamSorter::with_config(cfg);
        let capacity = sorter.run_capacity;
        // Detonate in the middle of the second run's write.
        let fuse = Arc::new(AtomicI64::new(capacity as i64 + (capacity / 2) as i64));
        let n = 4 * capacity;
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for i in 0..n as u64 {
                sorter.push_record(i % 97, Grenade::new(&fuse, i)).unwrap();
            }
        }))
        .is_err();
        assert!(panicked, "the fuse must have gone off mid-write");
        assert_eq!(sorter.stats().spilled_runs, 1, "one run recorded");
        assert_eq!(sorter.runs.len(), 1);
        // The recorded run reads back completely — byte size, record count
        // and payloads all intact.
        let run = &sorter.runs[0];
        assert_eq!(std::fs::metadata(&run.path).unwrap().len(), run.bytes);
        let records: Vec<(u64, Grenade)> =
            RunReader::<Grenade>::open(&SpillIoHandle::blocking(), run, 4096)
                .unwrap()
                .read_all()
                .unwrap();
        assert_eq!(records.len(), run.len);
        assert!(records
            .iter()
            .all(|(_, g)| g.payload.starts_with(b"payload-")));
        // The panicking run's file is the partial one: it was never
        // recorded, and its truncation is visible on disk.
        let dir = run.path.parent().unwrap();
        let partial = dir.join("run-s000001.bin");
        assert!(partial.exists(), "the interrupted write left a file");
        let complete_run_bytes = run.bytes;
        assert!(
            std::fs::metadata(&partial).unwrap().len() < complete_run_bytes,
            "the unrecorded file must be visibly incomplete"
        );
    }

    #[test]
    fn writer_thread_panic_surfaces_as_error_and_loses_no_records() {
        // Pipelined mode: the same injected panic happens on the writer
        // thread, where it must convert to an io::Error surfaced by a
        // later push or by finish — never a hang — and the failed run's
        // records must still come out of the final merge.
        let mut sorter: StreamSorter<u64, Grenade> = StreamSorter::with_config(tiny_cfg(16 << 10));
        let capacity = sorter.run_capacity;
        let fuse = Arc::new(AtomicI64::new(capacity as i64 + (capacity / 2) as i64));
        let n = 6 * capacity;
        let mut input: Vec<(u64, Grenade)> = Vec::new();
        let mut saw_error = false;
        for i in 0..n as u64 {
            let record = (i % 89, Grenade::new(&fuse, i));
            input.push(record.clone());
            match sorter.push_record(record.0, record.1) {
                Ok(()) => {}
                Err(e) => {
                    assert!(e.to_string().contains("panicked"), "unexpected error: {e}");
                    // At the moment the error surfaces, the failed run's
                    // records are reclaimed, none are lost in flight, and
                    // the sorter has fallen back to synchronous spilling
                    // (which will retry the reclaimed runs).
                    assert!(!sorter.pending_runs.is_empty(), "records reclaimed");
                    assert_eq!(sorter.in_flight_records, 0);
                    assert!(sorter.degraded.is_some(), "probation engaged");
                    saw_error = true;
                }
            }
        }
        assert!(saw_error, "the writer panic must surface on a push");
        // The fuse only fires once, so the sorter (now in synchronous
        // fallback) finishes the sort with zero data loss.
        let got = sorter.finish_vec().unwrap();
        assert_eq!(got.len(), input.len());
        let mut want = input;
        want.sort_by_key(|r| r.0);
        let got_payloads: Vec<&[u8]> = got.iter().map(|(_, g)| g.payload.as_slice()).collect();
        let want_payloads: Vec<&[u8]> = want.iter().map(|(_, g)| g.payload.as_slice()).collect();
        assert_eq!(got_payloads, want_payloads, "stable, lossless recovery");
    }

    // -----------------------------------------------------------------
    // Merge fan-in cap and targeted fault injection.
    // -----------------------------------------------------------------

    #[test]
    fn fan_in_above_the_prefetch_cap_merges_synchronously_and_reports_it() {
        use crate::engine::MAX_PREFETCH_RUNS;
        // Tracing scoped to this sorter, so the metric below is recorded
        // whatever the process-wide baseline is.
        let cfg = StreamConfig {
            trace: true,
            ..tiny_cfg(8 << 10)
        };
        let mut sorter: StreamSorter<u32, u32> = StreamSorter::with_config(cfg);
        let n = (MAX_PREFETCH_RUNS + 8) * sorter.run_capacity;
        let rng = Rng::new(51);
        let input: Vec<(u32, u32)> = (0..n)
            .map(|i| (rng.ith(i as u64) as u32 % 1000, i as u32))
            .collect();
        for chunk in input.chunks(997) {
            sorter.push(chunk).unwrap();
        }
        sorter.flush_spills().unwrap();
        assert!(
            sorter.stats().spilled_runs > MAX_PREFETCH_RUNS,
            "fan-in must exceed the cap, got {} runs",
            sorter.stats().spilled_runs
        );
        let capped_before = obs::global().snapshot().counter("prefetch.capped_merges");
        let stream = sorter.finish().unwrap();
        assert!(stream.prefetch_capped(), "fan-in above MAX_PREFETCH_RUNS");
        assert!(stream.read_ahead_disabled());
        assert!(
            obs::global().snapshot().counter("prefetch.capped_merges") > capped_before,
            "a capped merge must bump prefetch.capped_merges"
        );
        let got: Vec<(u32, u32)> = stream.collect();
        let mut want = input;
        want.sort_by_key(|r| r.0);
        assert_eq!(got, want, "capped merge is still the stable sort");
    }

    #[test]
    fn torn_write_surfaces_on_push_and_loses_no_records() {
        // A torn write (half the bytes land, then `WriteZero`) in the
        // middle of the second synchronous spill: the failing spill
        // surfaces on a push, the run's records are reclaimed, and the
        // final merge loses nothing.
        let cfg = StreamConfig {
            synchronous_spill: true,
            ..tiny_cfg(16 << 10)
        };
        // Flat u64/u64 records are two writes each (key, then value).
        let writes_per_run = 2 * StreamSorter::<u64, u64>::with_config(cfg.clone()).run_capacity;
        let io = SpillIoHandle::blocking().with_faults(FaultPlan::nth(
            FaultKind::TornWrite,
            writes_per_run as u64 * 3 / 2,
        ));
        let mut sorter: StreamSorter<u64, u64> = StreamSorter::with_config_and_io(cfg, io);
        let n = 4 * sorter.run_capacity;
        let input: Vec<(u64, u64)> = (0..n as u64).map(|i| (i % 101, i)).collect();
        let mut saw_error = false;
        for &(k, v) in &input {
            if let Err(e) = sorter.push_record(k, v) {
                assert!(
                    e.to_string().contains("injected torn write"),
                    "unexpected: {e}"
                );
                saw_error = true;
            }
        }
        assert!(saw_error, "the torn write must surface on a push");
        assert_eq!(
            sorter.stats().records_pushed,
            sorter.len() as u64,
            "every accepted record stays owned and counted"
        );
        let got = sorter.finish_vec().unwrap();
        let mut want = input;
        want.sort_by_key(|r| r.0);
        assert_eq!(got, want, "stable, lossless recovery after a torn write");
    }

    #[test]
    fn probation_reenables_pipelining_after_clean_sync_spills() {
        // A writer failure no longer demotes the sorter to synchronous
        // spilling forever: after `probation_spills` clean synchronous
        // spills the pipeline restarts, and `degraded_syncs` stops
        // growing — the observable signature of a served probation.  The
        // one-shot ENOSPC mid-second-run is the disk that heals itself.
        let cfg = tiny_cfg(16 << 10);
        let writes_per_run = 2 * StreamSorter::<u64, u64>::with_config(cfg.clone()).run_capacity;
        let io = SpillIoHandle::blocking().with_faults(FaultPlan::nth(
            FaultKind::WriteEnospc,
            writes_per_run as u64 * 3 / 2,
        ));
        let mut sorter: StreamSorter<u64, u64> = StreamSorter::with_config_and_io(cfg, io);
        let n = 24 * sorter.run_capacity;
        let input: Vec<(u64, u64)> = (0..n as u64).map(|i| (i % 101, i)).collect();
        let mut saw_error = false;
        for &(k, v) in &input {
            match sorter.push_record(k, v) {
                Ok(()) => {}
                Err(e) => {
                    assert!(e.to_string().contains("injected ENOSPC"), "unexpected: {e}");
                    assert!(sorter.degraded.is_some(), "probation engaged");
                    saw_error = true;
                }
            }
        }
        assert!(saw_error, "the injected ENOSPC must surface on a push");
        let probation = sorter.cfg.spill_retry.probation_spills as u64;
        assert_eq!(
            sorter.stats().degraded_syncs,
            probation,
            "probation served exactly once, then degraded counting stopped"
        );
        assert!(sorter.degraded.is_none(), "probation lifted");
        assert!(
            sorter.pipeline.is_some(),
            "pipelining resumed after probation"
        );
        let got = sorter.finish_vec().unwrap();
        let mut want = input;
        want.sort_by_key(|r| r.0);
        assert_eq!(got, want, "lossless through failure, probation, resume");
    }

    #[test]
    fn merge_surfaces_a_corrupted_block_checksum() {
        // Bit rot between spill and merge: one byte of the first block's
        // payload section (the run's third read: header, keys, payload)
        // flips on the way back in, through both the read-ahead thread and
        // the synchronous cursor.  The block CRC must turn it into an
        // error, never silently wrong output.
        for read_ahead in [true, false] {
            let cfg = StreamConfig {
                spill_compression: dtsort::SpillCompression::DeltaLz,
                merge_read_ahead: Some(read_ahead),
                ..tiny_cfg(32 << 10)
            };
            let io =
                SpillIoHandle::blocking().with_faults(FaultPlan::nth(FaultKind::CorruptByte, 2));
            let mut sorter: StreamSorter<u32, u32> = StreamSorter::with_config_and_io(cfg, io);
            // One spilled run plus an in-memory tail, so exactly one
            // reader touches the disk and the read count is deterministic.
            let n = sorter.run_capacity as u32 + 10;
            let batch: Vec<(u32, u32)> = (0..n).map(|i| (i.rotate_left(13), i)).collect();
            sorter.push(&batch).unwrap();
            sorter.flush_spills().unwrap();
            assert_eq!(sorter.stats().spilled_runs, 1);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sorter.finish().map(|s| s.count())
            }));
            let message = match outcome {
                Ok(Ok(_)) => panic!("corrupted run must not merge cleanly"),
                Ok(Err(e)) => e.to_string(),
                Err(panic) => panic
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_else(|| "non-string panic".to_string()),
            };
            assert!(
                message.contains("checksum"),
                "corruption must be named a checksum failure (read-ahead {read_ahead}), got: {message}"
            );
        }
    }
}

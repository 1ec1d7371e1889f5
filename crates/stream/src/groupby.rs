//! Streaming group-by: bounded-memory aggregation over pushed records.
//!
//! [`StreamGroupBy`] is the group-by counterpart of [`crate::StreamSorter`]
//! and the streaming face of the `semisort` engine.  Where the sorter
//! spills every *record* of a run, the group-by **aggregates each run
//! before spilling**: a full buffer is semisorted (heavy duplicate keys
//! collapse into dedicated buckets in one pass), each group is folded into
//! one `(key, partial-aggregate)` record, and only those partials — one per
//! distinct key per run — reach disk.  A key that dominates the stream
//! therefore costs one spilled record per run no matter how many million
//! occurrences it has: heavy-key streams never materialize their
//! duplicates.
//!
//! At read time the per-run partials (each run spilled sorted by key) are
//! k-way merged with a loser tree and equal-key partials are combined on
//! the fly, so the output is one `(key, aggregate)` pair per distinct key,
//! in increasing key order, produced with a footprint bounded by the read
//! buffers.
//!
//! Accumulators may be variable-length ([`crate::VarValue`]: `String`,
//! `Vec<u8>`, `Box<[u8]>`) as well as fixed-size pods; the semisort always
//! runs over `(key, index)` tags, so owned payloads are moved, never
//! copied, through the grouping pass.
//!
//! ```
//! use stream::{CountAgg, StreamGroupBy};
//! use dtsort::StreamConfig;
//!
//! // A tiny budget forces several aggregated runs.
//! let mut gb: StreamGroupBy<u32, CountAgg> =
//!     StreamGroupBy::with_config(CountAgg, StreamConfig::with_memory_budget(16 << 10));
//! for i in 0..30_000u32 {
//!     gb.push_record(i % 100, ()).unwrap();
//! }
//! let counts: Vec<(u32, u64)> = gb.finish().unwrap().collect();
//! assert_eq!(counts.len(), 100);
//! assert!(counts.iter().all(|&(_, c)| c == 300));
//! assert!(counts.windows(2).all(|w| w[0].0 < w[1].0), "key-ordered output");
//! ```

use crate::engine::{RunEngine, RunMerge, RunReducer, StreamStats, SPILL_PIPELINE_DEPTH};
use crate::metrics::{m, EngineMetrics, StreamMetrics};
use crate::spill::{sealed::Sealed, SpillValue};
use crate::spillio::SpillIoHandle;
use dtsort::{IntegerKey, StreamConfig};
use semisort::{semisort_pairs_with, SemisortConfig};
use std::marker::PhantomData;

/// A streaming aggregation: how one value becomes a partial aggregate, and
/// how two partial aggregates merge.
///
/// `combine` must be associative; partials are combined in push order, so
/// commutativity is not required.  The accumulator is spilled to disk
/// between runs, hence the [`SpillValue`] bound (fixed-size pods and
/// variable-length `String` / `Vec<u8>` / `Box<[u8]>` all qualify).
pub trait Aggregator: Send + Sync {
    /// The pushed value type.  The [`SpillValue`] bound exists so the
    /// group-by can meter buffered variable-length payload *bytes* (not
    /// just record count) and spill early, like the streaming sorter.
    type Input: SpillValue;
    /// The partial-aggregate type (spilled to disk between runs).
    type Acc: SpillValue;
    /// Lifts one value into a partial aggregate.
    fn lift(&self, v: Self::Input) -> Self::Acc;
    /// Merges two partial aggregates (earlier-pushed partial first).
    fn combine(&self, a: Self::Acc, b: Self::Acc) -> Self::Acc;
}

/// Counts records per key.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountAgg;

impl Aggregator for CountAgg {
    type Input = ();
    type Acc = u64;
    fn lift(&self, _: ()) -> u64 {
        1
    }
    fn combine(&self, a: u64, b: u64) -> u64 {
        a + b
    }
}

/// Sums `u64` values per key.
#[derive(Debug, Clone, Copy, Default)]
pub struct SumAgg;

impl Aggregator for SumAgg {
    type Input = u64;
    type Acc = u64;
    fn lift(&self, v: u64) -> u64 {
        v
    }
    fn combine(&self, a: u64, b: u64) -> u64 {
        a + b
    }
}

/// Minimum `u64` value per key.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinAgg;

impl Aggregator for MinAgg {
    type Input = u64;
    type Acc = u64;
    fn lift(&self, v: u64) -> u64 {
        v
    }
    fn combine(&self, a: u64, b: u64) -> u64 {
        a.min(b)
    }
}

/// Maximum `u64` value per key.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxAgg;

impl Aggregator for MaxAgg {
    type Input = u64;
    type Acc = u64;
    fn lift(&self, v: u64) -> u64 {
        v
    }
    fn combine(&self, a: u64, b: u64) -> u64 {
        a.max(b)
    }
}

/// Keeps the *first* value pushed for each key (streaming dedup).
///
/// Works for any spillable value type, including variable-length payloads:
/// `FirstAgg<String>` turns the group-by into a bounded-memory
/// first-payload-per-key dedup.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstAgg<V>(PhantomData<fn() -> V>);

impl<V> FirstAgg<V> {
    pub fn new() -> Self {
        Self(PhantomData)
    }
}

impl<V: SpillValue> Aggregator for FirstAgg<V> {
    type Input = V;
    type Acc = V;
    fn lift(&self, v: V) -> V {
        v
    }
    fn combine(&self, a: V, _b: V) -> V {
        a
    }
}

/// Concatenates `Vec<u8>` payloads per key, in push order.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConcatAgg;

impl Aggregator for ConcatAgg {
    type Input = Vec<u8>;
    type Acc = Vec<u8>;
    fn lift(&self, v: Vec<u8>) -> Vec<u8> {
        v
    }
    fn combine(&self, mut a: Vec<u8>, b: Vec<u8>) -> Vec<u8> {
        a.extend_from_slice(&b);
        a
    }
}

/// A custom fold built from two closures: `lift` turns a value into a
/// partial aggregate, `combine` merges two partials.
pub struct FoldAgg<I, A, L, C> {
    lift: L,
    combine: C,
    _marker: PhantomData<fn(I) -> A>,
}

impl<I, A, L, C> FoldAgg<I, A, L, C>
where
    I: SpillValue,
    A: SpillValue,
    L: Fn(I) -> A + Send + Sync,
    C: Fn(A, A) -> A + Send + Sync,
{
    /// Builds the aggregator; `combine` must be associative.
    pub fn new(lift: L, combine: C) -> Self {
        Self {
            lift,
            combine,
            _marker: PhantomData,
        }
    }
}

impl<I, A, L, C> Aggregator for FoldAgg<I, A, L, C>
where
    I: SpillValue,
    A: SpillValue,
    L: Fn(I) -> A + Send + Sync,
    C: Fn(A, A) -> A + Send + Sync,
{
    type Input = I;
    type Acc = A;
    fn lift(&self, v: I) -> A {
        (self.lift)(v)
    }
    fn combine(&self, a: A, b: A) -> A {
        (self.combine)(a, b)
    }
}

/// Bounded-memory streaming group-by over pushed `(key, value)` records.
///
/// See the module docs for the design; in short: buffer → semisort
/// → fold per group → spill one partial per distinct key → merge-combine
/// partials at read time.  Buffering, spilling, failure recovery and the
/// merge setup are the shared [`RunEngine`]'s.
pub type StreamGroupBy<K, G> = RunEngine<AggregateRuns<K, G>>;

/// The group-by's run reducer: a semisort of the buffer, then one fold per
/// group into a partial aggregate.
pub struct AggregateRuns<K, G> {
    agg: G,
    _key: PhantomData<fn() -> K>,
}

impl<K, G> Sealed for AggregateRuns<K, G> {}

impl<K: IntegerKey, G: Aggregator> RunReducer for AggregateRuns<K, G> {
    type Key = K;
    type Input = G::Input;
    type RunKey = u64;
    type Output = G::Acc;
    const FILE_STEM: &'static str = "agg";
    const SPAN: &'static str = "aggregate_run";

    fn run_capacity(cfg: &StreamConfig) -> usize {
        // Peak transient footprint per buffered record: the pushed record
        // itself, plus the `(key, index)` tag pair the semisort moves (and
        // the scratch copy of it the semisort engine allocates), plus the
        // lifted accumulator slot — plus, when spilling is pipelined, one
        // in-flight partial-aggregate slot per pipeline-depth unit (an
        // aggregated run in flight to the writer holds at most one
        // `(u64, Acc)` record per buffered record).  Sizing the run from
        // that sum (not just the input record) keeps aggregation within
        // the configured budget.  Variable-length payloads count their
        // inline struct size only (see `StreamConfig`).
        let in_flight_footprint = if cfg.synchronous_spill {
            0
        } else {
            SPILL_PIPELINE_DEPTH * std::mem::size_of::<(u64, G::Acc)>()
        };
        let record_footprint = std::mem::size_of::<(K, G::Input)>()
            + 2 * std::mem::size_of::<(u64, u64)>()
            + std::mem::size_of::<Option<G::Acc>>()
            + in_flight_footprint;
        // Floor of 1 (not some larger convenience floor): any higher floor
        // would admit `floor × record_footprint` resident bytes under a
        // degenerate budget, silently overshooting it (the same fix as
        // `StreamConfig::run_capacity`).
        (cfg.effective_budget_bytes() / record_footprint.max(1)).max(1)
    }

    fn metrics(m: &StreamMetrics) -> &EngineMetrics {
        &m.groupby
    }

    /// Semisorts the buffered run and folds each group into one partial
    /// aggregate, returned sorted by (ordered) key.
    ///
    /// The semisort moves only `(ordered key, index)` tags; lifted
    /// accumulators sit in index-addressed slots and are *moved* into the
    /// fold, so variable-length accumulators are never copied here.
    fn reduce(
        &mut self,
        buffer: &mut Vec<(K, G::Input)>,
        mut out: Vec<(u64, G::Acc)>,
        cfg: &StreamConfig,
        stats: &mut StreamStats,
    ) -> Vec<(u64, G::Acc)> {
        let agg = &self.agg;
        let mut tags: Vec<(u64, u64)> = Vec::with_capacity(buffer.len());
        let mut accs: Vec<Option<G::Acc>> = Vec::with_capacity(buffer.len());
        for (i, (k, v)) in buffer.drain(..).enumerate() {
            tags.push((k.to_ordered_u64(), i as u64));
            accs.push(Some(agg.lift(v)));
        }
        let semi_cfg = SemisortConfig {
            sort: cfg.sort.clone(),
            ..SemisortConfig::default()
        };
        let mut groups = semisort_pairs_with(&mut tags, &semi_cfg);
        // Runs must be spilled sorted by key for the k-way merge; only the
        // distinct keys of the run are sorted, not its records.
        dtsort::sort_by_key(&mut groups, |g| g.key);
        let recycled = out.len();
        for g in &groups {
            let group_tags = &tags[g.start..g.end];
            // An ordered-`u64` key need not be injective: a string key's
            // 8-byte prefix collides for keys sharing their first 8 bytes.
            // Accumulators that embed the full key
            // ([`SpillValue::spill_embedded_key`]) are therefore
            // sub-grouped by those bytes before folding; plain integer
            // keys (no embedded key) fold the whole group at once.
            let has_embedded = accs[group_tags[0].1 as usize]
                .as_ref()
                .expect("slot folded once")
                .spill_embedded_key()
                .is_some();
            if !has_embedded {
                let mut tag_iter = group_tags.iter();
                let first = tag_iter.next().expect("groups are never empty");
                let mut acc = accs[first.1 as usize].take().expect("slot folded once");
                for &(_, idx) in tag_iter {
                    // Tags keep push order within a group (stable
                    // semisort), so partials combine in push order.
                    acc = agg.combine(acc, accs[idx as usize].take().expect("slot folded once"));
                }
                out.push((g.key, acc));
                continue;
            }
            // Stable sort by embedded key: sub-groups come out in the
            // order the merge's tie-break expects, and push order is kept
            // within each sub-group.
            fn embedded_of<A: SpillValue>(accs: &[Option<A>], i: u64) -> &[u8] {
                accs[i as usize]
                    .as_ref()
                    .expect("slot folded once")
                    .spill_embedded_key()
                    .unwrap_or(&[])
            }
            let mut idxs: Vec<u64> = group_tags.iter().map(|&(_, i)| i).collect();
            idxs.sort_by(|&a, &b| embedded_of(&accs, a).cmp(embedded_of(&accs, b)));
            let mut s = 0usize;
            while s < idxs.len() {
                let mut e = s + 1;
                while e < idxs.len() && embedded_of(&accs, idxs[e]) == embedded_of(&accs, idxs[s]) {
                    e += 1;
                }
                let mut acc = accs[idxs[s] as usize].take().expect("slot folded once");
                for &idx in &idxs[s + 1..e] {
                    acc = agg.combine(acc, accs[idx as usize].take().expect("slot folded once"));
                }
                out.push((g.key, acc));
                s = e;
            }
        }
        let produced = (out.len() - recycled) as u64;
        stats.partial_aggregates += produced;
        if obs::enabled() {
            m().gb_partial_aggregates.add(produced);
        }
        out
    }

    type Stream = GroupedStream<K, G>;

    fn into_stream(self, merge: RunMerge<G::Acc>) -> GroupedStream<K, G> {
        GroupedStream {
            merge,
            agg: self.agg,
            pending: None,
            _key: PhantomData,
        }
    }
}

impl<K: IntegerKey, G: Aggregator> StreamGroupBy<K, G> {
    /// Group-by with the default [`StreamConfig`] (256 MiB budget).
    pub fn new(agg: G) -> Self {
        Self::with_config(agg, StreamConfig::default())
    }

    pub fn with_config(agg: G, cfg: StreamConfig) -> Self {
        Self::with_config_and_io(agg, cfg, SpillIoHandle::blocking())
    }

    /// Like [`StreamGroupBy::with_config`], but spilling through a
    /// caller-provided I/O handle — this is how a multi-session server
    /// shares one handle across sessions.
    pub fn with_config_and_io(agg: G, cfg: StreamConfig, io: SpillIoHandle) -> Self {
        let reducer = AggregateRuns {
            agg,
            _key: PhantomData,
        };
        Self::with_reducer(reducer, cfg, io)
    }
}

/// Streaming output of a [`StreamGroupBy`]: `(key, aggregate)` pairs in
/// increasing key order.  Holds the spill directory alive until dropped.
pub struct GroupedStream<K: IntegerKey, G: Aggregator> {
    merge: RunMerge<G::Acc>,
    agg: G,
    /// The first partial of the *next* key, already popped from the tree.
    pending: Option<(u64, G::Acc)>,
    _key: PhantomData<K>,
}

impl<K: IntegerKey, G: Aggregator> GroupedStream<K, G> {
    /// Whether the final merge wanted read-ahead but ran synchronously;
    /// see [`crate::SortedStream::read_ahead_disabled`].
    pub fn read_ahead_disabled(&self) -> bool {
        self.merge.read_ahead_disabled
    }

    /// Whether read-ahead was disabled specifically by the merge
    /// fan-in cap; see [`crate::SortedStream::prefetch_capped`].
    pub fn prefetch_capped(&self) -> bool {
        self.merge.prefetch_capped
    }
}

impl<K: IntegerKey, G: Aggregator> Iterator for GroupedStream<K, G> {
    type Item = (K, G::Acc);

    fn next(&mut self) -> Option<(K, G::Acc)> {
        let (key, mut acc) = self.pending.take().or_else(|| self.merge.pop())?;
        loop {
            match self.merge.pop() {
                // The loser tree yields equal keys in run order, so partials
                // combine in push order.  Accumulators carrying an embedded
                // full key (string-keyed streams, where the ordered `u64`
                // is only an 8-byte prefix) must also agree on those bytes:
                // prefix-colliding keys are distinct groups.
                Some((k, a)) if k == key && a.spill_embedded_key() == acc.spill_embedded_key() => {
                    acc = self.agg.combine(acc, a)
                }
                other => {
                    self.pending = other;
                    break;
                }
            }
        }
        Some((K::from_ordered_u64(key), acc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlay::random::Rng;
    use std::collections::HashMap;
    use std::io;

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
    fn counts_match_hashmap_across_spilled_runs() {
        let rng = Rng::new(1);
        let n = 40_000usize;
        let keys: Vec<u64> = (0..n).map(|i| rng.ith_in(i as u64, 777)).collect();
        let mut gb: StreamGroupBy<u64, CountAgg> =
            StreamGroupBy::with_config(CountAgg, tiny_cfg(16 << 10));
        for chunk in keys.chunks(997) {
            let recs: Vec<(u64, ())> = chunk.iter().map(|&k| (k, ())).collect();
            gb.push(&recs).unwrap();
        }
        assert!(gb.stats().spilled_runs > 2, "stats: {:?}", gb.stats());
        let mut want: HashMap<u64, u64> = HashMap::new();
        for &k in &keys {
            *want.entry(k).or_default() += 1;
        }
        let got = gb.finish_vec().unwrap();
        assert_eq!(got.len(), want.len());
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "key-ordered");
        for &(k, c) in &got {
            assert_eq!(c, want[&k], "key {k}");
        }
    }

    #[test]
    fn heavy_key_stream_never_materializes_duplicates() {
        // 80% of the stream is one key; each run spills at most one partial
        // for it, so the spilled volume collapses.
        let rng = Rng::new(2);
        let n = 60_000usize;
        let mut gb: StreamGroupBy<u32, CountAgg> =
            StreamGroupBy::with_config(CountAgg, tiny_cfg(16 << 10));
        for i in 0..n {
            let k = if rng.ith_f64(i as u64) < 0.8 {
                7
            } else {
                rng.ith_in(i as u64, 200) as u32
            };
            gb.push_record(k, ()).unwrap();
        }
        let stats = gb.stats().clone();
        assert!(stats.spilled_runs > 2);
        assert!(
            stats.partial_aggregates < stats.records_pushed / 4,
            "duplicates must collapse before spilling: {stats:?}"
        );
        let got = gb.finish_vec().unwrap();
        let seven = got.iter().find(|&&(k, _)| k == 7).unwrap();
        assert!(seven.1 >= (n as u64) * 7 / 10);
        assert_eq!(got.iter().map(|&(_, c)| c).sum::<u64>(), n as u64);
    }

    #[test]
    fn sum_min_max_aggregations() {
        let rng = Rng::new(3);
        let n = 30_000usize;
        let records: Vec<(u32, u64)> = (0..n)
            .map(|i| {
                (
                    rng.ith_in(i as u64, 50) as u32,
                    rng.fork(9).ith_in(i as u64, 1000),
                )
            })
            .collect();
        let mut want_sum: HashMap<u32, u64> = HashMap::new();
        let mut want_min: HashMap<u32, u64> = HashMap::new();
        let mut want_max: HashMap<u32, u64> = HashMap::new();
        for &(k, v) in &records {
            *want_sum.entry(k).or_default() += v;
            want_min
                .entry(k)
                .and_modify(|m| *m = (*m).min(v))
                .or_insert(v);
            want_max
                .entry(k)
                .and_modify(|m| *m = (*m).max(v))
                .or_insert(v);
        }
        let run = |agg: &dyn Fn() -> Vec<(u32, u64)>| agg();
        let sums = run(&|| {
            let mut gb = StreamGroupBy::with_config(SumAgg, tiny_cfg(16 << 10));
            gb.push(&records).unwrap();
            gb.finish_vec().unwrap()
        });
        let mins = run(&|| {
            let mut gb = StreamGroupBy::with_config(MinAgg, tiny_cfg(16 << 10));
            gb.push(&records).unwrap();
            gb.finish_vec().unwrap()
        });
        let maxs = run(&|| {
            let mut gb = StreamGroupBy::with_config(MaxAgg, tiny_cfg(16 << 10));
            gb.push(&records).unwrap();
            gb.finish_vec().unwrap()
        });
        for &(k, s) in &sums {
            assert_eq!(s, want_sum[&k]);
        }
        for &(k, m) in &mins {
            assert_eq!(m, want_min[&k]);
        }
        for &(k, m) in &maxs {
            assert_eq!(m, want_max[&k]);
        }
    }

    #[test]
    fn custom_fold_aggregator() {
        // Track (count, sum) pairs through a custom fold.
        let agg = FoldAgg::new(
            |v: u64| [1u64, v],
            |a: [u64; 2], b: [u64; 2]| [a[0] + b[0], a[1] + b[1]],
        );
        let mut gb: StreamGroupBy<u64, _> = StreamGroupBy::with_config(agg, tiny_cfg(16 << 10));
        for i in 0..20_000u64 {
            gb.push_record(i % 10, i).unwrap();
        }
        let got = gb.finish_vec().unwrap();
        assert_eq!(got.len(), 10);
        for &(k, [cnt, sum]) in &got {
            assert_eq!(cnt, 2000);
            // Sum of the arithmetic progression k, k+10, ..., k+19990.
            let want: u64 = (0..2000u64).map(|j| k + 10 * j).sum();
            assert_eq!(sum, want, "key {k}");
        }
    }

    #[test]
    fn signed_keys_and_in_memory_only() {
        let mut gb: StreamGroupBy<i32, CountAgg> = StreamGroupBy::new(CountAgg);
        for &k in &[-5i32, 3, -5, 0, 3, -5] {
            gb.push_record(k, ()).unwrap();
        }
        assert_eq!(gb.stats().spilled_runs, 0);
        let got = gb.finish_vec().unwrap();
        assert_eq!(got, vec![(-5, 3), (0, 1), (3, 2)]);
    }

    #[test]
    fn empty_group_by_stream() {
        let gb: StreamGroupBy<u64, CountAgg> = StreamGroupBy::new(CountAgg);
        assert_eq!(gb.run_count(), 0);
        assert_eq!(gb.finish().unwrap().count(), 0);
    }

    #[test]
    fn first_agg_keeps_first_string_payload_per_key() {
        let rng = Rng::new(4);
        let n = 25_000usize;
        let records: Vec<(u64, String)> = (0..n)
            .map(|i| (rng.ith_in(i as u64, 400), format!("payload-{i}")))
            .collect();
        let mut gb: StreamGroupBy<u64, FirstAgg<String>> =
            StreamGroupBy::with_config(FirstAgg::new(), tiny_cfg(16 << 10));
        for chunk in records.chunks(997) {
            gb.push(chunk).unwrap();
        }
        assert!(gb.stats().spilled_runs > 2, "stats: {:?}", gb.stats());
        let mut want: HashMap<u64, &str> = HashMap::new();
        for (k, v) in &records {
            want.entry(*k).or_insert(v.as_str());
        }
        let got = gb.finish_vec().unwrap();
        assert_eq!(got.len(), want.len());
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "key-ordered");
        for (k, v) in &got {
            assert_eq!(v, want[k], "key {k}: first payload in push order");
        }
    }

    #[test]
    fn concat_agg_preserves_push_order_across_runs() {
        // Few keys, many records: per-key concatenations grow to multi-KB
        // variable-length accumulators that are spilled and re-merged, and
        // the final bytes must equal the push-order concatenation.
        let n = 9_000usize;
        let records: Vec<(u32, Vec<u8>)> = (0..n)
            .map(|i| ((i % 5) as u32, format!("[{i}]").into_bytes()))
            .collect();
        let mut gb: StreamGroupBy<u32, ConcatAgg> =
            StreamGroupBy::with_config(ConcatAgg, tiny_cfg(16 << 10));
        for chunk in records.chunks(613) {
            gb.push(chunk).unwrap();
        }
        assert!(gb.stats().spilled_runs > 1, "stats: {:?}", gb.stats());
        let mut want: HashMap<u32, Vec<u8>> = HashMap::new();
        for (k, v) in &records {
            want.entry(*k).or_default().extend_from_slice(v);
        }
        let got = gb.finish_vec().unwrap();
        assert_eq!(got.len(), 5);
        for (k, v) in &got {
            assert!(v.len() > 1 << 10, "accumulators must grow multi-KB");
            assert_eq!(v, &want[k], "key {k}: push-order concatenation");
        }
    }

    #[test]
    fn pending_partial_from_failed_spill_merges_in_finish() {
        // Simulate a run whose spill *write* failed (ENOSPC-style): the
        // aggregates were stashed in `pending_partial`.  `finish` must
        // merge them from memory, before the current tail.
        let mut gb: StreamGroupBy<u64, SumAgg> = StreamGroupBy::new(SumAgg);
        gb.push(&[(2, 10), (4, 1)]).unwrap();
        gb.pending_runs.push_back(vec![(1, 5), (2, 7)]);
        assert_eq!(gb.run_count(), 2, "pending run counts toward the merge");
        let got = gb.finish_vec().unwrap();
        assert_eq!(got, vec![(1, 5), (2, 17), (4, 1)]);
    }

    #[test]
    fn pending_partial_is_retried_by_the_next_push() {
        let mut gb: StreamGroupBy<u64, SumAgg> =
            StreamGroupBy::with_config(SumAgg, tiny_cfg(16 << 10));
        gb.pending_runs.push_back(vec![(9, 3)]);
        gb.push_record(9, 2).unwrap();
        assert_eq!(
            gb.stats().spilled_runs,
            1,
            "the stashed run must be written to disk by the next push"
        );
        let got = gb.finish_vec().unwrap();
        assert_eq!(got, vec![(9, 5)]);
    }

    #[test]
    fn large_var_inputs_spill_by_bytes_not_record_count() {
        // 120 distinct-keyed records fit the record-count capacity many
        // times over, but their multi-KiB payloads exceed half the budget;
        // the byte tracker must force aggregated spills anyway.
        let mut gb: StreamGroupBy<u64, FirstAgg<String>> =
            StreamGroupBy::with_config(FirstAgg::new(), tiny_cfg(64 << 10));
        assert!(gb.run_capacity > 120, "premise: count would not spill");
        for i in 0..120u64 {
            gb.push_record(i, "q".repeat(2 << 10)).unwrap();
        }
        assert!(
            gb.stats().spilled_runs > 3,
            "payload bytes must trigger spills: {:?}",
            gb.stats()
        );
        let got = gb.finish_vec().unwrap();
        assert_eq!(got.len(), 120);
    }

    #[test]
    fn records_pushed_counts_accepted_records_when_spill_fails() {
        // Same regression as the sorter: a spill failure mid-push must not
        // leave buffered records uncounted.
        let base = std::env::temp_dir().join(format!("pisort-gbfailtest-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let blocker = base.join("not-a-directory");
        std::fs::write(&blocker, b"x").unwrap();
        let cfg = StreamConfig {
            spill_dir: Some(blocker.clone()),
            ..tiny_cfg(16 << 10)
        };
        let mut gb: StreamGroupBy<u64, SumAgg> = StreamGroupBy::with_config(SumAgg, cfg);
        let batch: Vec<(u64, u64)> = (0..20_000u64).map(|i| (i, i)).collect();
        let err = gb.push(&batch).expect_err("spill into a file must fail");
        assert_ne!(err.kind(), io::ErrorKind::NotFound);
        // Regression (stats drift): the records accepted before the failed
        // spill stay counted — and stay *buffered*, because the spill
        // directory is secured before the buffer is drained.
        assert!(gb.stats().records_pushed > 0);
        assert_eq!(gb.stats().spilled_runs, 0);
        assert_eq!(gb.stats().partial_aggregates, 0, "buffer must survive");
        assert_eq!(gb.run_count(), 1, "the failed run is still buffered");
        std::fs::remove_dir_all(&base).ok();
    }
}

//! # stream — bounded-memory, out-of-core sorting on top of DovetailSort
//!
//! The core `dtsort` crate sorts fully in-memory slices.  This crate opens
//! the two scenario families the in-memory API cannot serve:
//!
//! * **Larger-than-memory inputs** — datasets that exceed the configured
//!   memory budget are sorted with the classic external-sort shape:
//!   sorted *runs* are spilled to disk and k-way merged at the end.
//! * **Pipelined ingestion** — records arrive as pushed batches (network
//!   shards, log segments, generator output) and the sorter overlaps
//!   run-sorting with ingestion instead of requiring the full dataset up
//!   front.
//!
//! ## How it works: one engine, two reducers
//!
//! Both streaming engines are the same [`RunEngine`], and every stage of
//! it exists once:
//!
//! ```text
//! push ─► buffer ─► reduce run ─► spill (inline, or pipelined with
//!                                 retry + probation) ─► k-way merge
//! ```
//!
//! 1. **Buffer.**  Pushed records fill a run buffer up to the run
//!    capacity derived from [`dtsort::StreamConfig::memory_budget_bytes`],
//!    which is split into equal shares
//!    ([`dtsort::StreamConfig::spill_shares`]): one buffers records, one
//!    is the reduction's scratch, and — when spilling is pipelined — one
//!    pays for the run in flight to the spill writer.  A live
//!    [`dtsort::BudgetHandle`] is re-read on every push.
//! 2. **Reduce.**  A full buffer becomes a run ordered by key.  This is
//!    the only step that differs between the engines (the
//!    [`RunReducer`]): [`StreamSorter`] ([`SortRuns`]) stably sorts the
//!    run with the paper's DovetailSort, while [`StreamGroupBy`]
//!    ([`AggregateRuns`]) semisorts it and folds each group into one
//!    partial aggregate.
//! 3. **Spill.**  The run is written to disk inline, or handed to a
//!    background writer so the next run fills meanwhile.  Failed writes
//!    keep the run in memory for a retry, and a writer failure puts the
//!    engine on probation (see below).
//! 4. **Merge.**  `finish` merges all runs with a tournament loser tree
//!    ([`parlay::kway::LoserTree`]) behind a streaming iterator whose
//!    footprint stays within the budget; [`StreamSorter::finish_into`]
//!    uses the parallel k-way merge ([`parlay::kway::kway_merge_into`])
//!    when the caller wants the result materialized in a slice.  Merges
//!    break ties toward earlier runs, so the end-to-end sort is
//!    **stable** with respect to push order, and the group-by combines
//!    equal-key partials in push order.
//!
//! Both engines report through one [`StreamStats`].
//!
//! ## Heavy-key carry-over and the dovetail merge
//!
//! DovetailSort's `O(n)` behaviour on duplicate-dominated inputs comes
//! from *heavy keys*: sampling detects keys with `Ω(n/2^γ)` occurrences,
//! each heavy key gets a dedicated bucket that skips all further radix
//! recursion, and the *dovetail merge* re-interleaves those buckets with
//! the sorted light records.  Chunking a stream into runs would normally
//! re-randomize that detection per run — a key that is heavy over the
//! whole stream but borderline within one run might be missed, sending
//! its records down the full radix recursion of that run.
//!
//! The streaming sorter closes this gap by **carrying heavy keys across
//! runs** ([`dtsort::sort_run_pairs_with`]): the heavy keys confirmed by
//! run `i`'s bucket counts are injected into run `i+1`'s root sampling, so
//! a stream-wide heavy key is dovetailed in *every* subsequent run, paying
//! `O(1)` per record from the second run on.  Carried keys that have
//! fallen light are dropped by the per-run confirmation (bucket count
//! below `n/2^{γ+2}`), so a drifting key distribution cannot bloat the
//! bucket table.  The dovetail merge itself is unchanged — carried keys
//! enter it exactly as natively sampled heavy keys do — and the final
//! k-way merge sees one sorted sequence per run, so heavy records cost
//! `log(runs)` comparisons there like everything else.
//!
//! ## Pipelined spill I/O
//!
//! Spilling is pipelined by default (the crate-private `pipeline`
//! module): each
//! reduced run is handed to a dedicated **writer thread** through a
//! bounded channel, so run `N + 1` is reduced while run `N` streams to disk
//! (fsync included — a run recorded as spilled is durably on disk), and
//! the final merge **reads ahead** of the loser tree with one block
//! prefetcher per spilled run.  The memory budget is split into *spill
//! shares* ([`dtsort::StreamConfig::spill_shares`]) so in-flight runs are
//! paid for out of the same budget; the bounded channel is the
//! backpressure.  Writer-side errors surface on the next `push` or on
//! `finish` — never dropped, never a hang — with the failed runs'
//! records reclaimed and the engine entering **degradation probation**:
//! it spills synchronously until
//! [`dtsort::SpillRetryPolicy::probation_spills`] consecutive spills
//! succeed, then re-enables the pipeline (visible as
//! `spill.degraded_syncs` / [`StreamStats::degraded_syncs`]).
//! Transient failures (interrupted/timed-out syscalls) are retried with
//! bounded deterministic backoff before any of that
//! ([`dtsort::SpillRetryPolicy`]), and errors that survive the retries
//! are typed [`SpillError`]s naming the run file, run index and bytes
//! attempted.  [`dtsort::StreamConfig::synchronous_spill`] turns the
//! whole stage off (the reference behavior for the differential tests).
//!
//! ## Spill I/O
//!
//! All spill reads and writes go through the crate-private `SpillIo`
//! abstraction (re-exported as the opaque [`SpillIoHandle`]).  There is
//! one backend: buffered `File` I/O on the calling thread — the engine
//! thread for synchronous spills, the background writer for pipelined
//! ones, one read-ahead thread per run during the merge.  The handle
//! exists so a session can be given a decorated view of it: the
//! deterministic fault injector ([`FaultPlan`],
//! [`SpillIoHandle::with_faults`]) wraps it for the chaos suites, and the
//! server shares one handle across sessions.
//! [`dtsort::StreamConfig::spill_io`] / [`SpillIoMode`] are one-valued.
//!
//! ## Streaming group-by
//!
//! When the consumer wants *aggregates per key* rather than the sorted
//! records themselves, [`StreamGroupBy`] does strictly less work: its
//! reducer semisorts each run (heavy duplicate keys collapse in one
//! pass) and folds it into one partial aggregate per distinct key, and
//! only those partials are spilled; the final merge combines equal-key
//! partials while streaming.  Duplicate-dominated streams never
//! materialize their duplicates on disk.
//!
//! ## Variable-length values
//!
//! Spilled values come in two families, unified by the sealed
//! [`SpillValue`] abstraction:
//!
//! * [`PodValue`] — fixed-size `Copy` types spilled as their raw byte
//!   image (`key | value`), read back with zero-copy scratch.  This is
//!   the original fast path and its on-disk format and in-memory sort are
//!   unchanged.
//! * [`VarValue`] — `Vec<u8>`, `String` and `Box<[u8]>`, spilled
//!   length-prefixed (`key | value_len (u32 LE) | value bytes`) and
//!   streamed through a reusable side buffer.  In memory, DovetailSort
//!   moves only `(key, index)` tags and the owned payloads are permuted
//!   once per run, so strings are never copied through the sort.
//!
//! `StreamSorter<u64, String>` therefore spills URLs or log lines as
//! naturally as pod records, and the sorter additionally spills early when
//! buffered payload *bytes* (not just record count) reach one budget
//! share.  [`FirstAgg`] turns [`StreamGroupBy`] into a bounded-memory
//! first-payload-per-key dedup over such values.
//!
//! ## String keys
//!
//! Byte-string *keys* (not just values) are supported end to end by one
//! adapter, [`StringKeys`], over either engine — used as
//! [`StringStreamSorter`] and [`StringStreamGroupBy`]: a key's 8-byte
//! big-endian prefix rides the ordered-`u64` merge domain
//! ([`dtsort::string_key_prefix64`] is monotone in lexicographic order)
//! and the full key bytes travel in the spilled record ([`StringKeyed`]),
//! tie-breaking equal prefixes at sort, merge, and group time.  The
//! output order is exactly lexicographic over the key bytes and the sort
//! stays stable.  See the `strkey` module docs for the collision
//! analysis.
//!
//! The sorter, the group-by and the adapter all implement the sealed
//! [`Engine`] trait (push, stats, flush, shrink, finish), so a caller
//! such as the server's generic session is written once for all of
//! them.
//!
//! ## Compressed spill runs
//!
//! [`dtsort::StreamConfig::spill_compression`] switches spilled runs from
//! the flat record encoding to delta-compressed blocks
//! ([`SpillCompression::DeltaLz`]): sorted keys are varint-delta encoded
//! and payloads are compressed with a built-in LZ codec (independently
//! decodable 64 KiB blocks, store-raw fallback for incompressible data).
//! Both encodings decode through the same reader, flow through the same
//! background writer thread and merge read-ahead, and yield
//! byte-identical output — the uncompressed format stays the
//! differential reference.  [`StreamStats::spilled_raw_bytes`] exposes
//! the achieved on-disk ratio.
//!
//! ## Choosing an API
//!
//! | Need | Call |
//! |---|---|
//! | Stream the sorted result, bounded memory | [`StreamSorter::finish`] |
//! | Materialize into a caller-owned slice, parallel merge | [`StreamSorter::finish_into`] |
//! | Materialize into a fresh vector | [`StreamSorter::finish_vec`] |
//! | Per-key aggregates of a stream, bounded memory | [`StreamGroupBy::finish`] |
//! | Dedup variable-length payloads per key | [`StreamGroupBy`] + [`FirstAgg`] |

mod codec;
mod engine;
mod fault;
mod groupby;
mod metrics;
#[cfg(test)]
mod obs_tests;
mod pipeline;
mod sorter;
mod spill;
mod spillio;
mod strkey;

pub use dtsort::{
    SortConfig, SpillCompression, SpillIoMode, SpillRetryPolicy, StreamConfig, StringKey,
};
pub use engine::{Engine, RunEngine, RunReducer, StreamStats};
pub use fault::{FaultKind, FaultPlan, DEFAULT_FAULT_KINDS, DEFAULT_FAULT_PERIOD};
pub use groupby::{
    AggregateRuns, Aggregator, ConcatAgg, CountAgg, FirstAgg, FoldAgg, GroupedStream, MaxAgg,
    MinAgg, StreamGroupBy, SumAgg,
};
pub use sorter::{SortRuns, SortedStream, StreamSorter};
pub use spill::{PodValue, SpillError, SpillValue, VarValue};
pub use spillio::SpillIoHandle;
pub use strkey::{
    StringAggAdapter, StringKeyed, StringKeys, StringStream, StringStreamGroupBy,
    StringStreamSorter,
};

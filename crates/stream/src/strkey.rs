//! Order-preserving string keys for the streaming engines.
//!
//! The sorter and group-by merge in the ordered-`u64` domain
//! ([`dtsort::IntegerKey`]); a variable-length byte-string key rides that
//! domain through its **8-byte big-endian prefix**
//! ([`dtsort::string_key_prefix64`]), which is monotone with respect to
//! lexicographic byte order.  The prefix is not injective — keys sharing
//! their first eight bytes collide — so every record carries its full key
//! bytes in the spill payload ([`StringKeyed`]) and the engines tie-break
//! on them:
//!
//! * **within a run**: after the DovetailSort pass over `(prefix, index)`
//!   tags, equal-prefix spans are stably re-sorted by full key;
//! * **across runs**: the loser-tree comparator
//!   ([`crate::SpillValue::spill_record_lt`]) compares `(prefix, full
//!   key)` pairs, and fully equal keys still favour earlier runs, so the
//!   end-to-end sort stays stable;
//! * **in the group-by**: prefix-colliding keys are sub-grouped by the
//!   embedded key bytes before folding, and the merge refuses to combine
//!   partials whose full keys differ.
//!
//! All of that lives in the spill value and the engines' reducers, so
//! the key mapping itself is one generic adapter, [`StringKeys`], over
//! any integer-keyed engine: it pushes `(key, value)` as
//! `(string_key_prefix64(key), StringKeyed { key, value })` and maps each
//! output record back.  [`StringStreamSorter`] and [`StringStreamGroupBy`]
//! are that adapter over the sorter and the group-by; they accept
//! `String` / `Vec<u8>` keys end to end, spilling and merging through the
//! exact same run formats, pipeline, and read-ahead as the integer-keyed
//! engines, and serve as server sessions like any other [`Engine`].
//!
//! ```
//! use stream::StringStreamSorter;
//!
//! let mut sorter: StringStreamSorter<String, u64> = StringStreamSorter::new();
//! sorter.push_record("banana".to_string(), 1).unwrap();
//! sorter.push_record("apple".to_string(), 2).unwrap();
//! sorter.push_record("apricot".to_string(), 3).unwrap();
//! let sorted: Vec<(String, u64)> = sorter.finish().unwrap().collect();
//! assert_eq!(sorted[0].0, "apple");
//! assert_eq!(sorted[2].0, "banana");
//! ```

use crate::engine::{Engine, StreamStats};
use crate::groupby::{Aggregator, StreamGroupBy};
use crate::sorter::{var_sort_run, StreamSorter};
use crate::spill::{sealed::Sealed, short_run_err, SpillValue};
use crate::spillio::SpillIoHandle;
use dtsort::{string_key_prefix64, IntegerKey, RunReport, SortConfig, StreamConfig, StringKey};
use std::io::{self, Read, Write};
use std::marker::PhantomData;

/// A spillable record pairing a variable-length key's full bytes with a
/// value, used as the *value* slot of the integer-keyed engines when the
/// logical key is a byte string.
///
/// Spill payload layout (the value part of the flat record format, and
/// the per-record payload inside compressed blocks):
///
/// ```text
/// ┌───────────────────┬────────────┬──────────────────────────┐
/// │ key_len (u32 LE)  │ key bytes  │ value payload (V's own)  │
/// └───────────────────┴────────────┴──────────────────────────┘
/// ```
#[derive(Debug, Clone)]
pub struct StringKeyed<V> {
    key: Box<[u8]>,
    value: V,
}

impl<V: SpillValue> Sealed for StringKeyed<V> {}

impl<V: SpillValue> SpillValue for StringKeyed<V> {
    const SPILL_FIXED_SIZE: Option<usize> = None;

    fn spill_size(&self) -> usize {
        4 + self.key.len() + self.value.spill_size()
    }

    fn spill_write(&self, w: &mut dyn Write) -> io::Result<()> {
        let len = u32::try_from(self.key.len()).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "string key of {} bytes exceeds the u32 spill length prefix",
                    self.key.len()
                ),
            )
        })?;
        w.write_all(&len.to_le_bytes())?;
        w.write_all(&self.key)?;
        self.value.spill_write(w)
    }

    fn spill_read(
        r: &mut dyn Read,
        scratch: &mut Vec<u8>,
        payload_budget: u64,
    ) -> io::Result<Self> {
        if payload_budget < 4 {
            return Err(short_run_err("spilled run ended mid-key-length"));
        }
        let mut len_bytes = [0u8; 4];
        r.read_exact(&mut len_bytes)?;
        let key_len = u64::from(u32::from_le_bytes(len_bytes));
        if key_len > payload_budget - 4 {
            return Err(short_run_err(
                "string key length prefix exceeds the bytes remaining in the spilled run",
            ));
        }
        let mut key = vec![0u8; key_len as usize];
        r.read_exact(&mut key)?;
        let value = V::spill_read(r, scratch, payload_budget - 4 - key_len)?;
        Ok(Self {
            key: key.into_boxed_slice(),
            value,
        })
    }

    fn spill_placeholder() -> Self {
        Self {
            key: Box::default(),
            value: V::spill_placeholder(),
        }
    }

    /// DovetailSort over `(prefix, index)` tags like the plain var path,
    /// then a stable full-key re-sort of every equal-prefix span: the run
    /// comes out in exact lexicographic key order, push order preserved
    /// within fully equal keys.
    fn sort_spill_run<K: IntegerKey>(
        buffer: &mut Vec<(K, Self)>,
        cfg: &SortConfig,
        carry: &[u64],
    ) -> RunReport {
        let report = var_sort_run(buffer, cfg, carry);
        let mut s = 0usize;
        while s < buffer.len() {
            let mut e = s + 1;
            while e < buffer.len() && buffer[e].0 == buffer[s].0 {
                e += 1;
            }
            if e - s > 1 {
                // `sort_by` is stable, so records with fully equal keys
                // keep their push order.
                buffer[s..e].sort_by(|a, b| a.1.key.cmp(&b.1.key));
            }
            s = e;
        }
        report
    }

    fn spill_record_lt(a: &(u64, Self), b: &(u64, Self)) -> bool {
        (a.0, &*a.1.key) < (b.0, &*b.1.key)
    }

    fn spill_embedded_key(&self) -> Option<&[u8]> {
        Some(&self.key)
    }
}

/// Lifts a plain [`Aggregator`] over values into one over
/// [`StringKeyed`] records: the key bytes ride along unchanged while the
/// wrapped aggregator folds the values.  `combine` is only ever called on
/// partials of the same full key (the group-by guarantees it via
/// [`crate::SpillValue::spill_embedded_key`]).
pub struct StringAggAdapter<G>(G);

impl<G: Aggregator> Aggregator for StringAggAdapter<G> {
    type Input = StringKeyed<G::Input>;
    type Acc = StringKeyed<G::Acc>;

    fn lift(&self, v: StringKeyed<G::Input>) -> StringKeyed<G::Acc> {
        StringKeyed {
            key: v.key,
            value: self.0.lift(v.value),
        }
    }

    fn combine(&self, a: StringKeyed<G::Acc>, b: StringKeyed<G::Acc>) -> StringKeyed<G::Acc> {
        debug_assert_eq!(a.key, b.key, "combine across distinct full keys");
        StringKeyed {
            key: a.key,
            value: self.0.combine(a.value, b.value),
        }
    }
}

/// The string-key adapter over a streaming engine: [`crate::StreamSorter`]
/// or [`crate::StreamGroupBy`]'s push/finish API with `String` / `Vec<u8>`
/// keys (any [`dtsort::StringKey`]), in lexicographic byte order.
///
/// Each pushed `(key, value)` goes to the wrapped engine as
/// `(string_key_prefix64(key), StringKeyed { key, value })`, and each
/// output record comes back as `(key, value)`; see the module docs for
/// why the result is exactly lexicographic and stable.  All
/// [`StreamConfig`] knobs (budget, spill compression, pipelining,
/// read-ahead) apply unchanged.  Used as [`StringStreamSorter`] and
/// [`StringStreamGroupBy`].
pub struct StringKeys<E, K> {
    inner: E,
    _key: PhantomData<fn() -> K>,
}

/// A bounded-memory streaming sorter over **string-keyed** records,
/// sorted in lexicographic byte order (stable in push order for equal
/// keys); see [`StringKeys`].
pub type StringStreamSorter<K, V = ()> = StringKeys<StreamSorter<u64, StringKeyed<V>>, K>;

/// Bounded-memory streaming group-by over **string-keyed** records: one
/// `(key, aggregate)` pair per distinct key in lexicographic key order;
/// see [`StringKeys`].  Prefix-colliding keys (first 8 bytes equal) are
/// kept apart by the full key bytes embedded in every partial, both when
/// a run is aggregated and when per-run partials combine at merge time.
pub type StringStreamGroupBy<K, G> = StringKeys<StreamGroupBy<u64, StringAggAdapter<G>>, K>;

impl<K: StringKey, V: SpillValue> Default for StringStreamSorter<K, V> {
    fn default() -> Self {
        Self::with_config(StreamConfig::default())
    }
}

impl<K: StringKey, V: SpillValue> StringStreamSorter<K, V> {
    /// Sorter with the default [`StreamConfig`] (256 MiB budget).
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_config(cfg: StreamConfig) -> Self {
        Self::with_config_and_io(cfg, SpillIoHandle::blocking())
    }

    /// Like [`StringStreamSorter::with_config`] but spilling through the
    /// caller's (possibly shared) I/O handle.
    pub fn with_config_and_io(cfg: StreamConfig, io: SpillIoHandle) -> Self {
        StringKeys {
            inner: StreamSorter::with_config_and_io(cfg, io),
            _key: PhantomData,
        }
    }
}

impl<K: StringKey, G: Aggregator> StringStreamGroupBy<K, G> {
    /// Group-by with the default [`StreamConfig`] (256 MiB budget).
    pub fn new(agg: G) -> Self {
        Self::with_config(agg, StreamConfig::default())
    }

    pub fn with_config(agg: G, cfg: StreamConfig) -> Self {
        Self::with_config_and_io(agg, cfg, SpillIoHandle::blocking())
    }

    /// Like [`StringStreamGroupBy::with_config`] but spilling through the
    /// caller's (possibly shared) I/O handle.
    pub fn with_config_and_io(agg: G, cfg: StreamConfig, io: SpillIoHandle) -> Self {
        StringKeys {
            inner: StreamGroupBy::with_config_and_io(StringAggAdapter(agg), cfg, io),
            _key: PhantomData,
        }
    }
}

impl<E, K, V, O> StringKeys<E, K>
where
    E: Engine<Key = u64, Value = StringKeyed<V>>,
    E::Stream: Iterator<Item = (u64, StringKeyed<O>)>,
    K: StringKey,
    V: SpillValue,
{
    /// Appends one record, spilling a full run if due.
    pub fn push_record(&mut self, key: K, value: V) -> io::Result<()> {
        let bytes = key.key_bytes();
        let record = StringKeyed {
            key: bytes.into(),
            value,
        };
        self.inner.push_record(string_key_prefix64(bytes), record)
    }

    /// Appends a batch of records (cloning each; use
    /// [`StringKeys::push_record`] to move values in).
    ///
    /// Like [`crate::RunEngine::push`], a spill error does not drop the
    /// rest of the slice: every record is buffered before its spill
    /// attempt, and the first error is reported once the whole slice is
    /// owned by the engine.
    pub fn push(&mut self, records: &[(K, V)]) -> io::Result<()> {
        let mut res = Ok(());
        for (k, v) in records {
            let pushed = self.push_record(k.clone(), v.clone());
            res = res.and(pushed);
        }
        res
    }

    /// Counters (spills, carried heavy prefixes, collapse ratio, ...).
    pub fn stats(&self) -> &StreamStats {
        self.inner.stats()
    }

    /// Finishes, streaming `(key, value)` pairs in lexicographic key order.
    pub fn finish(self) -> io::Result<StringStream<E::Stream, K>> {
        Ok(StringStream {
            inner: self.inner.finish()?,
            _key: PhantomData,
        })
    }

    /// Finishes into a vector (the sorter uses its parallel merge,
    /// [`crate::RunEngine::finish_vec`]).
    pub fn finish_vec(self) -> io::Result<Vec<(K, O)>> {
        Ok(self.inner.finish_vec()?.into_iter().map(unkey).collect())
    }
}

impl<E, K> Sealed for StringKeys<E, K> {}

impl<E, K, V, O> Engine for StringKeys<E, K>
where
    E: Engine<Key = u64, Value = StringKeyed<V>>,
    E::Stream: Iterator<Item = (u64, StringKeyed<O>)>,
    K: StringKey,
    V: SpillValue,
{
    type Key = K;
    type Value = V;
    type Stream = StringStream<E::Stream, K>;

    fn push(&mut self, records: &[(K, V)]) -> io::Result<()> {
        StringKeys::push(self, records)
    }
    fn push_record(&mut self, key: K, value: V) -> io::Result<()> {
        StringKeys::push_record(self, key, value)
    }
    fn stats(&self) -> &StreamStats {
        StringKeys::stats(self)
    }
    fn flush_spills(&mut self) -> io::Result<()> {
        self.inner.flush_spills()
    }
    fn shrink_to_budget(&mut self) -> io::Result<()> {
        self.inner.shrink_to_budget()
    }
    fn finish(self) -> io::Result<Self::Stream> {
        StringKeys::finish(self)
    }
    fn finish_vec(self) -> io::Result<Vec<(K, O)>> {
        StringKeys::finish_vec(self)
    }
}

/// Output of a [`StringKeys`] engine: the wrapped engine's stream with
/// each record's full key rebuilt from its embedded bytes.
pub struct StringStream<S, K> {
    inner: S,
    _key: PhantomData<fn() -> K>,
}

impl<S, K, O> Iterator for StringStream<S, K>
where
    S: Iterator<Item = (u64, StringKeyed<O>)>,
    K: StringKey,
{
    type Item = (K, O);

    fn next(&mut self) -> Option<(K, O)> {
        self.inner.next().map(unkey)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<S, K, O> ExactSizeIterator for StringStream<S, K>
where
    S: ExactSizeIterator<Item = (u64, StringKeyed<O>)>,
    K: StringKey,
{
}

/// Rebuilds a typed `(key, value)` record from its spilled form; the key
/// bytes were produced from a valid key by this process, so failure means
/// file corruption — the same environment fault a mid-merge read error
/// is, reported the same way (panic; see [`crate::SortedStream`]).
fn unkey<K: StringKey, O>((_, rec): (u64, StringKeyed<O>)) -> (K, O) {
    let key = K::from_key_bytes(&rec.key)
        .unwrap_or_else(|e| panic!("corrupt string key read back from spilled run: {e}"));
    (key, rec.value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groupby::{CountAgg, SumAgg};
    use dtsort::SpillCompression;
    use parlay::random::Rng;
    use std::collections::HashMap;

    fn tiny_cfg(budget: usize) -> StreamConfig {
        StreamConfig {
            memory_budget_bytes: budget,
            merge_read_ahead: Some(true),
            sort: dtsort::SortConfig {
                base_case_threshold: 64,
                ..Default::default()
            },
            ..StreamConfig::default()
        }
    }

    /// URL-ish keys with long shared prefixes, plus adversarial cases:
    /// prefix collisions past 8 bytes, NUL-extensions, empty keys.
    fn string_keys(n: usize, seed: u64) -> Vec<String> {
        let rng = Rng::new(seed);
        (0..n)
            .map(|i| match i % 7 {
                0 => String::new(),
                1 => format!("prefix08{:04}", rng.ith_in(i as u64, 50)),
                2 => "prefix08".to_string(),
                3 => format!("https://example.com/users/{}", rng.ith_in(i as u64, 300)),
                4 => format!("k{}", rng.ith_in(i as u64, 26) as u8 as char),
                5 => format!("prefix08\u{0}{}", rng.ith_in(i as u64, 3)),
                _ => format!("w{:06}", rng.ith_in(i as u64, 2000)),
            })
            .collect()
    }

    #[test]
    fn string_sorter_matches_comparison_sort_both_compressions() {
        for compression in [SpillCompression::Off, SpillCompression::DeltaLz] {
            let n = 20_000usize;
            let keys = string_keys(n, 31);
            let cfg = StreamConfig {
                spill_compression: compression,
                ..tiny_cfg(32 << 10)
            };
            let mut sorter: StringStreamSorter<String, u64> = StringStreamSorter::with_config(cfg);
            for (i, k) in keys.iter().enumerate() {
                sorter.push_record(k.clone(), i as u64).unwrap();
            }
            assert!(sorter.stats().spilled_runs > 2, "{:?}", sorter.stats());
            let got: Vec<(String, u64)> = sorter.finish().unwrap().collect();
            let mut want: Vec<(String, u64)> = keys
                .into_iter()
                .enumerate()
                .map(|(i, k)| (k, i as u64))
                .collect();
            want.sort_by(|a, b| a.0.cmp(&b.0));
            assert_eq!(got, want, "compression {compression:?}");
        }
    }

    #[test]
    fn string_finish_vec_parallel_merge_agrees_with_streaming() {
        let n = 12_000usize;
        let keys = string_keys(n, 32);
        let mk = || {
            let mut s: StringStreamSorter<String, u32> =
                StringStreamSorter::with_config(tiny_cfg(32 << 10));
            for (i, k) in keys.iter().enumerate() {
                s.push_record(k.clone(), i as u32).unwrap();
            }
            assert!(s.stats().spilled_runs > 0);
            s
        };
        let via_iter: Vec<(String, u32)> = mk().finish().unwrap().collect();
        let via_vec = mk().finish_vec().unwrap();
        assert_eq!(via_iter, via_vec);
    }

    #[test]
    fn byte_keys_sort_unsigned_lexicographically() {
        // 0xFF-leading keys must sort above ASCII, i.e. byte order is
        // unsigned; Vec<u8> keys exercise the non-UTF-8 path.
        let mut sorter: StringStreamSorter<Vec<u8>, ()> =
            StringStreamSorter::with_config(tiny_cfg(16 << 10));
        let keys: Vec<Vec<u8>> = (0..10_000u32)
            .map(|i| match i % 3 {
                0 => vec![0xFF, (i % 251) as u8],
                1 => format!("ascii-{}", i % 101).into_bytes(),
                _ => vec![(i % 256) as u8; (i % 12) as usize],
            })
            .collect();
        for k in &keys {
            sorter.push_record(k.clone(), ()).unwrap();
        }
        let got: Vec<Vec<u8>> = sorter.finish().unwrap().map(|(k, ())| k).collect();
        let mut want = keys;
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn string_groupby_matches_sort_then_scan_oracle() {
        for compression in [SpillCompression::Off, SpillCompression::DeltaLz] {
            let n = 25_000usize;
            let keys = string_keys(n, 33);
            let cfg = StreamConfig {
                spill_compression: compression,
                ..tiny_cfg(16 << 10)
            };
            let mut gb: StringStreamGroupBy<String, SumAgg> =
                StringStreamGroupBy::with_config(SumAgg, cfg);
            for (i, k) in keys.iter().enumerate() {
                gb.push_record(k.clone(), i as u64).unwrap();
            }
            assert!(gb.stats().spilled_runs > 2, "{:?}", gb.stats());
            let got: Vec<(String, u64)> = gb.finish().unwrap().collect();
            // Oracle: sort the records by key, scan, and fold adjacent
            // equal keys.
            let mut sorted: Vec<(String, u64)> = keys
                .into_iter()
                .enumerate()
                .map(|(i, k)| (k, i as u64))
                .collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            let mut want: Vec<(String, u64)> = Vec::new();
            for (k, v) in sorted {
                match want.last_mut() {
                    Some((lk, lv)) if *lk == k => *lv += v,
                    _ => want.push((k, v)),
                }
            }
            assert_eq!(got, want, "compression {compression:?}");
        }
    }

    #[test]
    fn prefix_colliding_keys_stay_distinct_groups() {
        // All keys share the same 8-byte prefix, so every ordered-u64 key
        // collides; grouping must still happen on the full key.
        let mut gb: StringStreamGroupBy<String, CountAgg> =
            StringStreamGroupBy::with_config(CountAgg, tiny_cfg(16 << 10));
        let n = 15_000usize;
        for i in 0..n {
            gb.push_record(format!("sameoldprefix-{}", i % 97), ())
                .unwrap();
        }
        assert!(gb.stats().spilled_runs > 1, "{:?}", gb.stats());
        let got = gb.finish_vec().unwrap();
        assert_eq!(got.len(), 97, "one group per distinct full key");
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "key-ordered");
        let total: u64 = got.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, n as u64, "every record counted exactly once");
    }

    #[test]
    fn equal_keys_keep_push_order_through_spills() {
        // Stability: records under the same full key come out in push
        // order even across spilled runs and prefix collisions.
        let mut sorter: StringStreamSorter<String, u64> =
            StringStreamSorter::with_config(tiny_cfg(16 << 10));
        let n = 12_000u64;
        for i in 0..n {
            sorter
                .push_record(format!("stable-prefix-{}", i % 5), i)
                .unwrap();
        }
        assert!(sorter.stats().spilled_runs > 1);
        let got: Vec<(String, u64)> = sorter.finish().unwrap().collect();
        for pair in got.windows(2) {
            if pair[0].0 == pair[1].0 {
                assert!(pair[0].1 < pair[1].1, "push order within equal keys");
            }
        }
    }

    #[test]
    fn string_key_groupby_counts_match_hashmap() {
        let n = 20_000usize;
        let keys = string_keys(n, 34);
        let mut gb: StringStreamGroupBy<String, CountAgg> =
            StringStreamGroupBy::with_config(CountAgg, tiny_cfg(16 << 10));
        for k in &keys {
            gb.push_record(k.clone(), ()).unwrap();
        }
        let mut want: HashMap<&str, u64> = HashMap::new();
        for k in &keys {
            *want.entry(k.as_str()).or_default() += 1;
        }
        let got = gb.finish_vec().unwrap();
        assert_eq!(got.len(), want.len());
        for (k, c) in &got {
            assert_eq!(*c, want[k.as_str()], "key {k:?}");
        }
    }
}

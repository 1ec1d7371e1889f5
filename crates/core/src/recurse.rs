//! The recursive DovetailSort driver (paper Alg. 2).
//!
//! Each call performs the four steps of the algorithm on one subproblem:
//!
//! 1. **Sampling** — detect heavy keys and the effective key range
//!    ([`crate::sampling`]).
//! 2. **Distributing** — stable counting sort by bucket id
//!    ([`parlay::counting_sort`]).  Levels with heavy keys classify each
//!    record once and scatter from the cached ids.
//! 3. **Recursing** — sort each light bucket on the next digit; heavy
//!    buckets (all records share one key) skip it, and the overflow bucket
//!    goes straight to the base case.
//! 4. **Dovetail merging** — interleave the heavy buckets back into the
//!    light bucket of each MSD zone ([`crate::dtmerge`]).
//!
//! Data movement follows the "minimizing data movement" scheme of Section 5:
//! the distribution writes from the current array into the scratch array and
//! the dovetail merge writes back, so each level moves every record exactly
//! twice and never copies a bucket back just to recurse on it.
//!
//! Subproblems of at most `base_case_threshold` records end in a stable
//! base case (`small_sort`): insertion sort for tiny inputs, otherwise an
//! LSD radix sort on only the key bits that vary within the bucket, using
//! the bucket's twin range in the other array as its ping-pong buffer.
//! Duplicate-rich buckets, spans needing too many passes, and the root
//! call (which has no scratch array yet) keep a stable comparison sort.

use crate::buckets::BucketTable;
use crate::config::{MergeStrategy, SortConfig};
use crate::dtmerge::{dovetail_merge_across, dovetail_merge_in_place, parallel_merge_zone};
use crate::key::{bit_width, low_mask};
use crate::sampling::sample_and_detect;
use crate::stats::SortStats;
use parlay::counting_sort::{counting_sort_by, counting_sort_cached_by, MAX_CACHED_BUCKETS};
use parlay::par::{parallel_for, parallel_for_grained};
use parlay::random::Rng;
use parlay::slice::UnsafeSliceCell;
use std::time::Instant;

/// Inputs up to this size are insertion sorted.
const INSERTION_SORT_MAX: usize = 32;
/// Widest LSD digit: `2^11` counters per pass.
const MAX_DIGIT_BITS: u32 = 11;
/// Duplicate guard: a bucket with at least `n / DUPLICATE_GUARD` equal
/// neighbours has few distinct keys, where the comparison sort wins.
const DUPLICATE_GUARD: usize = 16;

/// How [`small_sort`] ordered its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SmallSortRoute {
    /// At most [`INSERTION_SORT_MAX`] records: insertion sort.
    Insertion,
    /// All keys equal, or already in order: nothing moved.
    Presorted,
    /// Stable comparison sort (`sort_by_key`).
    Comparison,
    /// Stable LSD radix sort over the varying key bits.
    Radix,
}

/// The base case (Alg. 2, line 2), stable like every other step.  Counts
/// the records the radix path sorted in [`SortStats::radix_base_records`].
fn base_case<T, F>(data: &mut [T], scratch: Option<&mut [T]>, key: &F, stats: &SortStats)
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> u64 + Sync,
{
    let t = Instant::now();
    SortStats::add(&stats.base_case_calls, 1);
    SortStats::add(&stats.base_case_records, data.len() as u64);
    if small_sort(data, scratch, key) == SmallSortRoute::Radix {
        SortStats::add(&stats.radix_base_records, data.len() as u64);
    }
    SortStats::add(&stats.base_case_ns, elapsed_ns(t));
}

/// Stable small-n sort of `data` by `key`, using `scratch` (same length,
/// contents clobbered) as the LSD ping-pong buffer.
///
/// Tiny inputs are insertion sorted.  Otherwise one read pass finds the key
/// bits that vary (OR against AND of every key) and counts equal and
/// descending neighbours; all-equal or sorted inputs return there.  The
/// rest run one LSD pass per digit of the varying bit span, with balanced
/// digits of at most [`MAX_DIGIT_BITS`].  The comparison sort remains for
/// calls without scratch, duplicate-rich inputs, and spans needing too
/// many passes for `n`.
pub(crate) fn small_sort<T, F>(data: &mut [T], scratch: Option<&mut [T]>, key: &F) -> SmallSortRoute
where
    T: Copy,
    F: Fn(&T) -> u64,
{
    let n = data.len();
    if n <= INSERTION_SORT_MAX {
        insertion_sort(data, key);
        return SmallSortRoute::Insertion;
    }
    let Some(scratch) = scratch else {
        data.sort_by_key(key);
        return SmallSortRoute::Comparison;
    };
    debug_assert_eq!(scratch.len(), n);
    let mut prev = key(&data[0]);
    let (mut or, mut and) = (prev, prev);
    let (mut equal, mut descending) = (0usize, 0usize);
    for rec in &data[1..] {
        let k = key(rec);
        or |= k;
        and &= k;
        equal += usize::from(k == prev);
        descending += usize::from(k < prev);
        prev = k;
    }
    let varying = or ^ and;
    if varying == 0 || descending == 0 {
        return SmallSortRoute::Presorted;
    }
    let lo = varying.trailing_zeros();
    let span = 64 - varying.leading_zeros() - lo;
    // Narrower digits for smaller inputs keep the counters below ~2n.
    let max_digit = (n.ilog2() + 1).min(MAX_DIGIT_BITS);
    let passes = span.div_ceil(max_digit);
    if equal >= n / DUPLICATE_GUARD || 2 * passes > n.ilog2() + 2 || u32::try_from(n).is_err() {
        data.sort_by_key(key);
        return SmallSortRoute::Comparison;
    }
    lsd_sort(data, scratch, key, lo, span.div_ceil(passes), passes);
    SmallSortRoute::Radix
}

/// Stable insertion sort by `key`.
fn insertion_sort<T: Copy, F: Fn(&T) -> u64>(data: &mut [T], key: &F) {
    for i in 1..data.len() {
        let rec = data[i];
        let k = key(&rec);
        let mut j = i;
        while j > 0 && key(&data[j - 1]) > k {
            data[j] = data[j - 1];
            j -= 1;
        }
        data[j] = rec;
    }
}

/// Stable LSD radix sort by the `passes × digit` key bits above `lo`,
/// ping-ponging between `data` and `scratch`; the result ends in `data`.
/// One read pass fills every pass's histogram; a pass whose digit is the
/// same for every record is skipped.
fn lsd_sort<T: Copy, F: Fn(&T) -> u64>(
    data: &mut [T],
    scratch: &mut [T],
    key: &F,
    lo: u32,
    digit: u32,
    passes: u32,
) {
    let n = data.len();
    let radix = 1usize << digit;
    let mask = (radix - 1) as u64;
    let mut counts = vec![0u32; passes as usize * radix];
    for rec in data.iter() {
        let k = key(rec) >> lo;
        for (p, hist) in counts.chunks_exact_mut(radix).enumerate() {
            hist[((k >> (p as u32 * digit)) & mask) as usize] += 1;
        }
    }
    let (mut src, mut dst) = (data, scratch);
    let mut in_scratch = false;
    for (p, hist) in counts.chunks_exact_mut(radix).enumerate() {
        if hist.iter().any(|&c| c as usize == n) {
            continue;
        }
        let mut sum = 0u32;
        for c in hist.iter_mut() {
            let here = *c;
            *c = sum;
            sum += here;
        }
        let shift = lo + p as u32 * digit;
        for rec in src.iter() {
            let d = ((key(rec) >> shift) & mask) as usize;
            dst[hist[d] as usize] = *rec;
            hist[d] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
        in_scratch = !in_scratch;
    }
    if in_scratch {
        // `src` is the scratch buffer holding the result, `dst` is `data`.
        dst.copy_from_slice(src);
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Whether Step 2 classifies each record once into a cached `u16` id
/// buffer.  That pays only where the classifier is costly, i.e. the table
/// has heavy keys to look up, and it needs ids that fit `u16`.  Every other
/// level keeps the two-pass counting sort and allocates nothing extra.
fn caches_bucket_ids(table: &BucketTable) -> bool {
    !table.heavy.is_empty() && table.num_buckets <= MAX_CACHED_BUCKETS
}

/// Sorts `data` by the low `total_bits` bits of `key`, using a freshly
/// allocated scratch buffer.  Entry point used by the public API.
pub(crate) fn dtsort_impl<T, F>(
    data: &mut [T],
    key: &F,
    total_bits: u32,
    cfg: &SortConfig,
    stats: &SortStats,
) where
    T: Copy + Send + Sync,
    F: Fn(&T) -> u64 + Sync,
{
    dtsort_run_impl(data, key, total_bits, cfg, stats, &[]);
}

/// [`dtsort_impl`] for one *run* of a streamed input: heavy keys carried
/// from earlier runs seed the root sampling (`hints`, in the masked/ordered
/// key domain, sorted or not), and the root-level heavy keys *confirmed by
/// this run's bucket counts* are returned for carry-over to the next run.
///
/// Runs below the base-case threshold go to the base case and report no
/// heavy keys (there is no sampling step to confirm them).
pub(crate) fn dtsort_run_impl<T, F>(
    data: &mut [T],
    key: &F,
    total_bits: u32,
    cfg: &SortConfig,
    stats: &SortStats,
    hints: &[u64],
) -> Vec<u64>
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> u64 + Sync,
{
    let n = data.len();
    if n <= 1 {
        return Vec::new();
    }
    if n <= cfg.base_case_threshold.max(1) || total_bits == 0 {
        base_case(data, None, key, stats);
        return Vec::new();
    }
    let mut buf = data.to_vec();
    let rng = Rng::new(cfg.seed);
    recurse(data, &mut buf, key, total_bits, cfg, stats, rng, 1, hints)
}

/// One recursive DTSort call.  The sorted result ends in `data`; `scratch`
/// is a same-length buffer whose contents are clobbered.
///
/// `root_hints` (only consulted at `depth == 1`) are externally supplied
/// heavy-key candidates merged into the root sampling result; the returned
/// vector (non-empty only at the root, when heavy detection ran) holds the
/// heavy keys confirmed by this call's bucket counts — the carry-over
/// plumbing of the streaming sorter.
#[allow(clippy::too_many_arguments)]
pub(crate) fn recurse<T, F>(
    data: &mut [T],
    scratch: &mut [T],
    key: &F,
    bits: u32,
    cfg: &SortConfig,
    stats: &SortStats,
    rng: Rng,
    depth: u64,
    root_hints: &[u64],
) -> Vec<u64>
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> u64 + Sync,
{
    let n = data.len();
    debug_assert_eq!(n, scratch.len());
    if n <= 1 {
        return Vec::new();
    }
    if n <= cfg.base_case_threshold.max(1) || bits == 0 {
        base_case(data, Some(scratch), key, stats);
        return Vec::new();
    }
    SortStats::add(&stats.recursive_calls, 1);
    SortStats::max(&stats.max_depth, depth);
    let is_root = depth == 1;
    let mask = low_mask(bits);

    // ---------------- Step 1: sampling ----------------
    let t0 = Instant::now();
    let gamma_pre = cfg.radix_bits(n, bits);
    let need_sampling = cfg.heavy_detection || cfg.overflow_bucket;
    let mut sample_res = if need_sampling {
        sample_and_detect(n, |i| key(&data[i]) & mask, gamma_pre, cfg, rng)
    } else {
        crate::sampling::SampleResult {
            heavy_keys: Vec::new(),
            max_sample: mask,
            num_samples: 0,
            distinct_samples: 0,
        }
    };
    if is_root && cfg.heavy_detection && !root_hints.is_empty() {
        // Union carried heavy keys into the sampled set.  Raising the sample
        // maximum keeps every hint inside the effective key range, so hinted
        // keys never land in the overflow bucket.
        let mut merged = sample_res.heavy_keys;
        merged.extend(root_hints.iter().map(|&h| h & mask));
        merged.sort_unstable();
        merged.dedup();
        if let Some(&top) = merged.last() {
            sample_res.max_sample = sample_res.max_sample.max(top);
        }
        sample_res.heavy_keys = merged;
    }
    let sample_res = sample_res;
    SortStats::add(&stats.samples_drawn, sample_res.num_samples as u64);
    SortStats::add(&stats.heavy_keys, sample_res.heavy_keys.len() as u64);

    // Effective key range (Section 5): skip leading zero bits, as estimated
    // by the sample maximum.  Keys above the estimate go to the overflow
    // bucket.
    let eff_bits = if cfg.overflow_bucket && sample_res.num_samples > 0 {
        bit_width(sample_res.max_sample).clamp(1, bits)
    } else {
        bits
    };
    let gamma = cfg.radix_bits(n, eff_bits);
    let table = BucketTable::build(
        bits,
        eff_bits,
        gamma,
        &sample_res.heavy_keys,
        cfg.overflow_bucket,
    );
    let sample_ns = elapsed_ns(t0);
    SortStats::add(&stats.sample_ns, sample_ns);
    if is_root {
        SortStats::add(&stats.root_sample_ns, sample_ns);
    }

    // ---------------- Step 2: distributing ----------------
    let t1 = Instant::now();
    let classify = |rec: &T| table.bucket_id(key(rec) & mask);
    let plan = if caches_bucket_ids(&table) {
        counting_sort_cached_by(data, scratch, table.num_buckets, classify)
    } else {
        counting_sort_by(data, scratch, table.num_buckets, classify)
    };
    SortStats::add(&stats.distributed_records, n as u64);
    for h in &table.heavy {
        SortStats::add(&stats.heavy_records, plan.bucket_len(h.id as usize) as u64);
    }
    if let Some(of) = table.overflow_id {
        SortStats::add(&stats.overflow_records, plan.bucket_len(of as usize) as u64);
    }
    // Carry-over report: a root heavy key is confirmed when its bucket holds
    // a non-trivial share of the run (`n / 2^{γ+2}`); carried keys that have
    // fallen light are dropped here and must be re-detected by sampling to
    // return, so stale hints cannot accumulate across a long stream.  The
    // report is ordered by decreasing bucket count so a downstream cap on
    // carried keys keeps the heaviest ones.
    let confirmed_heavy: Vec<u64> = if is_root && cfg.heavy_detection {
        let threshold = ((n >> (gamma + 2)).max(2)) as u64;
        let mut counted: Vec<(u64, u64)> = table
            .heavy
            .iter()
            .map(|h| (plan.bucket_len(h.id as usize) as u64, h.key))
            .filter(|&(count, _)| count >= threshold)
            .collect();
        counted.sort_unstable_by(|a, b| b.cmp(a));
        counted.into_iter().map(|(_, key)| key).collect()
    } else {
        Vec::new()
    };
    let distribute_ns = elapsed_ns(t1);
    SortStats::add(&stats.distribute_ns, distribute_ns);
    if is_root {
        SortStats::add(&stats.root_distribute_ns, distribute_ns);
    }

    // ---------------- Step 3: recursing ----------------
    let t2 = Instant::now();
    let num_zones = table.num_zones();
    let child_bits = eff_bits - gamma;
    {
        let scratch_cell = UnsafeSliceCell::new(&mut *scratch);
        let data_cell = UnsafeSliceCell::new(&mut *data);
        let table_ref = &table;
        let plan_ref = &plan;
        // One task per MSD zone plus one for the overflow bucket.  Each is
        // a whole subproblem, so every zone may go to its own worker.
        let tasks = num_zones + usize::from(table.overflow_id.is_some());
        parallel_for_grained(0, tasks, 1, &|z| {
            if z < num_zones {
                let light_id = table_ref.light_ids[z] as usize;
                let range = plan_ref.bucket_range(light_id);
                if range.len() <= 1 {
                    return;
                }
                let bucket = unsafe { scratch_cell.slice_mut(range.start, range.len()) };
                let bucket_scratch = unsafe { data_cell.slice_mut(range.start, range.len()) };
                recurse(
                    bucket,
                    bucket_scratch,
                    key,
                    child_bits,
                    cfg,
                    stats,
                    rng.fork(1 + z as u64),
                    depth + 1,
                    &[],
                );
            } else {
                // Overflow bucket: straight to the base case (Section 5),
                // with its twin range of `data` as scratch.
                let of = table_ref.overflow_id.expect("overflow task") as usize;
                let range = plan_ref.bucket_range(of);
                if range.len() > 1 {
                    let bucket = unsafe { scratch_cell.slice_mut(range.start, range.len()) };
                    // SAFETY: bucket ranges are disjoint and each task
                    // touches only its own bucket's range in both arrays,
                    // so this range of `data` is free until Step 4.
                    let bucket_scratch = unsafe { data_cell.slice_mut(range.start, range.len()) };
                    base_case(bucket, Some(bucket_scratch), key, stats);
                }
            }
        });
    }
    if is_root {
        SortStats::add(&stats.root_recurse_ns, elapsed_ns(t2));
    }

    // ---------------- Step 4: dovetail merging ----------------
    let t3 = Instant::now();
    {
        let data_cell = UnsafeSliceCell::new(&mut *data);
        let scratch_ref: &[T] = scratch;
        let table_ref = &table;
        let plan_ref = &plan;
        // Heavy keys are stored masked to the subproblem's remaining bits, so
        // the merge must compare records by their masked key as well (the
        // bits above `bits` are shared by every record of this subproblem and
        // do not affect the order).
        let mkey = |r: &T| key(r) & mask;
        let tasks = num_zones + usize::from(table.overflow_id.is_some());
        parallel_for(0, tasks, |z| {
            if z >= num_zones {
                // Overflow bucket: already sorted, copy to its final place.
                let of = table_ref.overflow_id.expect("overflow task") as usize;
                let range = plan_ref.bucket_range(of);
                if !range.is_empty() {
                    let dst = unsafe { data_cell.slice_mut(range.start, range.len()) };
                    dst.copy_from_slice(&scratch_ref[range]);
                    SortStats::add(&stats.merged_records, dst.len() as u64);
                }
                return;
            }
            let bucket_ids = table_ref.zone_bucket_ids(z);
            let zone_start = plan_ref.bucket_offsets[bucket_ids.start];
            let zone_end = plan_ref.bucket_offsets[bucket_ids.end];
            if zone_start == zone_end {
                return;
            }
            let zone_len = zone_end - zone_start;
            let light_id = bucket_ids.start;
            let light_range = plan_ref.bucket_range(light_id);
            let light = &scratch_ref[light_range.clone()];
            let dst = unsafe { data_cell.slice_mut(zone_start, zone_len) };

            let heavy_buckets = table_ref.zone_heavy(z);
            let moved = match cfg.merge_strategy {
                MergeStrategy::Dovetail => {
                    let heavy_slices: Vec<(u64, &[T])> = heavy_buckets
                        .iter()
                        .map(|h| {
                            let r = plan_ref.bucket_range(h.id as usize);
                            (h.key, &scratch_ref[r])
                        })
                        .filter(|(_, s)| !s.is_empty())
                        .collect();
                    dovetail_merge_across(light, &heavy_slices, dst, &mkey)
                }
                MergeStrategy::DovetailInPlace => {
                    // Faithful Alg. 2/3: place the zone back first, then
                    // interleave fully in place within the output array.
                    dst.copy_from_slice(&scratch_ref[zone_start..zone_end]);
                    let heavy_lens: Vec<usize> = heavy_buckets
                        .iter()
                        .map(|h| plan_ref.bucket_len(h.id as usize))
                        .filter(|&l| l > 0)
                        .collect();
                    zone_len + dovetail_merge_in_place(dst, light.len(), &heavy_lens, &mkey)
                }
                MergeStrategy::ParallelMerge => {
                    let heavy_all = &scratch_ref[light_range.end..zone_end];
                    parallel_merge_zone(light, heavy_all, dst, &mkey)
                }
                MergeStrategy::Skip => {
                    // Measurement-only mode: copy the zone without
                    // interleaving (the output is not fully sorted when heavy
                    // buckets exist).
                    dst.copy_from_slice(&scratch_ref[zone_start..zone_end]);
                    zone_len
                }
            };
            SortStats::add(&stats.merged_records, moved as u64);
        });
    }
    let merge_ns = elapsed_ns(t3);
    SortStats::add(&stats.merge_ns, merge_ns);
    if is_root {
        SortStats::add(&stats.root_merge_ns, merge_ns);
    }
    confirmed_heavy
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SortConfig {
        SortConfig {
            base_case_threshold: 64,
            ..SortConfig::default()
        }
    }

    fn check_sorted_stable(input: &[(u32, u32)], cfg: &SortConfig) {
        let mut data = input.to_vec();
        let stats = SortStats::new();
        dtsort_impl(&mut data, &|r: &(u32, u32)| r.0 as u64, 32, cfg, &stats);
        let mut want = input.to_vec();
        want.sort_by_key(|&(k, _)| k);
        // Stability check: the value field records input order, and the
        // reference `sort_by_key` is stable, so outputs must match exactly.
        assert_eq!(data, want);
    }

    #[test]
    fn sorts_uniform_random() {
        let rng = Rng::new(1);
        let input: Vec<(u32, u32)> = (0..50_000)
            .map(|i| (rng.ith(i as u64) as u32, i as u32))
            .collect();
        check_sorted_stable(&input, &small_cfg());
    }

    #[test]
    fn sorts_heavy_duplicates_stably() {
        let rng = Rng::new(2);
        let input: Vec<(u32, u32)> = (0..80_000)
            .map(|i| (rng.ith_in(i as u64, 5) as u32 * 1000, i as u32))
            .collect();
        check_sorted_stable(&input, &small_cfg());
    }

    #[test]
    fn all_merge_strategies_agree() {
        let rng = Rng::new(3);
        let input: Vec<(u32, u32)> = (0..30_000)
            .map(|i| {
                let k = if rng.ith_f64(i as u64) < 0.5 {
                    42
                } else {
                    rng.ith(i as u64) as u32 % 10_000
                };
                (k, i as u32)
            })
            .collect();
        for strategy in [
            MergeStrategy::Dovetail,
            MergeStrategy::DovetailInPlace,
            MergeStrategy::ParallelMerge,
        ] {
            let cfg = SortConfig {
                merge_strategy: strategy,
                base_case_threshold: 128,
                ..SortConfig::default()
            };
            check_sorted_stable(&input, &cfg);
        }
    }

    #[test]
    fn plain_config_sorts_too() {
        let rng = Rng::new(4);
        let input: Vec<(u32, u32)> = (0..40_000)
            .map(|i| (rng.ith_in(i as u64, 100) as u32, i as u32))
            .collect();
        let cfg = SortConfig {
            heavy_detection: false,
            base_case_threshold: 64,
            ..SortConfig::default()
        };
        check_sorted_stable(&input, &cfg);
    }

    #[test]
    fn heavy_keys_in_deep_recursion_with_shared_upper_bits() {
        // Regression test: when heavy keys are detected below the root level,
        // the records' upper bits (shared within the subproblem) are nonzero,
        // so the dovetail merge must compare masked keys.  Keys here share the
        // top byte 0xFF and contain a heavy duplicate in the low bits,
        // mimicking the paper's Bit-Exponential distribution.
        let rng = Rng::new(7);
        let input: Vec<(u64, u32)> = (0..80_000)
            .map(|i| {
                let low = if rng.ith_f64(i as u64) < 0.4 {
                    0x00FF_FFFF_FFFF_FFFF // heavy key within the 0xFF zone
                } else {
                    rng.ith(i as u64) & 0x00FF_FFFF_FFFF_FFFF
                };
                (0xFF00_0000_0000_0000 | low, i as u32)
            })
            .collect();
        let mut data = input.clone();
        let stats = SortStats::new();
        let cfg = SortConfig {
            base_case_threshold: 256,
            ..SortConfig::default()
        };
        dtsort_impl(&mut data, &|r: &(u64, u32)| r.0, 64, &cfg, &stats);
        let mut want = input;
        want.sort_by_key(|&(k, _)| k);
        assert_eq!(data, want);
        assert!(stats.snapshot().max_depth >= 2, "{:?}", stats.snapshot());
    }

    #[test]
    fn heavy_keys_sharing_one_hash_slot_sort_correctly() {
        // Heavy keys built to collide under the heavy-key hash: the table
        // must stay small and every record must still reach its bucket.
        let colliding = crate::buckets::keys_sharing_home_slot(64);
        let rng = Rng::new(8);
        let input: Vec<(u64, u32)> = (0..60_000)
            .map(|i| {
                let r = rng.ith(i as u64);
                let k = if r.is_multiple_of(4) {
                    r
                } else {
                    colliding[(r >> 8) as usize % 64]
                };
                (k, i as u32)
            })
            .collect();
        let mut data = input.clone();
        let stats = SortStats::new();
        dtsort_impl(&mut data, &|r: &(u64, u32)| r.0, 64, &small_cfg(), &stats);
        let mut want = input;
        want.sort_by_key(|&(k, _)| k);
        assert_eq!(data, want);
        let snap = stats.snapshot();
        assert!(
            snap.heavy_keys > crate::buckets::MAX_PROBE_WINDOW as u64,
            "{snap:?}"
        );
    }

    #[test]
    fn stats_report_heavy_records_on_skewed_input() {
        let rng = Rng::new(5);
        // 80% of records have key 7.
        let mut data: Vec<(u32, u32)> = (0..100_000)
            .map(|i| {
                let k = if rng.ith_f64(i as u64) < 0.8 {
                    7
                } else {
                    rng.ith(i as u64) as u32
                };
                (k, i as u32)
            })
            .collect();
        let stats = SortStats::new();
        let cfg = small_cfg();
        dtsort_impl(&mut data, &|r: &(u32, u32)| r.0 as u64, 32, &cfg, &stats);
        let snap = stats.snapshot();
        assert!(snap.heavy_keys >= 1, "snapshot: {snap:?}");
        assert!(
            snap.heavy_records > 50_000,
            "heavy records not detected: {snap:?}"
        );
        assert!(snap.recursive_calls >= 1);
    }

    #[test]
    fn cached_ids_only_where_heavy_keys_and_u16_ids() {
        // Heavy keys and few buckets: classify once.
        assert!(caches_bucket_ids(&BucketTable::build(
            16,
            16,
            8,
            &[7, 300],
            false
        )));
        // No heavy keys: the two-pass sort, nothing allocated.
        assert!(!caches_bucket_ids(&BucketTable::build(
            16,
            16,
            8,
            &[],
            true
        )));
        assert!(!caches_bucket_ids(&BucketTable::build(
            32,
            24,
            8,
            &[],
            true
        )));
        // Exactly 2^16 buckets still fit u16 ids; one more does not.
        let heavy: Vec<u64> = (0..1u64 << 15).map(|i| i << 2).collect();
        let t = BucketTable::build(17, 17, 15, &heavy, false);
        assert_eq!(t.num_buckets, MAX_CACHED_BUCKETS);
        assert!(caches_bucket_ids(&t));
        let t = BucketTable::build(17, 17, 15, &heavy, true);
        assert_eq!(t.num_buckets, MAX_CACHED_BUCKETS);
        let t = BucketTable::build(16, 16, 16, &[9], false);
        assert_eq!(t.num_buckets, MAX_CACHED_BUCKETS + 1);
        assert!(!caches_bucket_ids(&t));
    }

    /// Runs [`small_sort`] with and without scratch and requires output
    /// identical to the stable `sort_by_key` reference (the value field
    /// records input order, so this checks stability).  Returns the route
    /// taken with scratch.
    fn check_small_sort(keys: &[u64]) -> SmallSortRoute {
        let input: Vec<(u64, u32)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u32))
            .collect();
        let mut want = input.clone();
        want.sort_by_key(|r| r.0);
        let key = |r: &(u64, u32)| r.0;
        let mut data = input.clone();
        let mut scratch = vec![(0xDEAD, u32::MAX); keys.len()];
        let route = small_sort(&mut data, Some(&mut scratch), &key);
        assert_eq!(data, want, "route {route:?}, n = {}", keys.len());
        let mut data = input;
        let plain = small_sort(&mut data, None, &key);
        assert_eq!(data, want, "route {plain:?} without scratch");
        assert_ne!(plain, SmallSortRoute::Radix, "radix needs scratch");
        route
    }

    /// `n` keys whose varying bits are the `span` bits above `lo`, under a
    /// shared high part.
    fn span_keys(n: usize, lo: u32, span: u32, high: u64, seed: u64) -> Vec<u64> {
        let rng = Rng::new(seed);
        (0..n as u64)
            .map(|i| high | ((rng.ith(i) & low_mask(span)) << lo))
            .collect()
    }

    #[test]
    fn small_sort_matches_stable_reference_across_sizes() {
        for n in [0usize, 1, 2, 31, 32, 33, 1000, 16384] {
            check_small_sort(&span_keys(n, 0, 32, 0, n as u64));
            // Twelve varying bits take at most two passes at every size.
            let route = check_small_sort(&span_keys(n, 0, 12, 0, n as u64));
            let want = if n <= INSERTION_SORT_MAX {
                SmallSortRoute::Insertion
            } else {
                SmallSortRoute::Radix
            };
            assert_eq!(route, want, "n = {n}");
        }
    }

    #[test]
    fn small_sort_covers_varying_bit_spans() {
        let high = 0xA5C0_0000_0000_0000;
        for span in [0u32, 1, 11, 12, 33, 64] {
            for n in [33usize, 1000, 16384] {
                let plain = span_keys(n, 0, span, 0, span as u64);
                let shifted = if span < 64 {
                    span_keys(n, 64 - 6 - span, span, high, span as u64)
                } else {
                    plain.clone()
                };
                for keys in [plain, shifted] {
                    let route = check_small_sort(&keys);
                    if span == 0 {
                        assert_eq!(route, SmallSortRoute::Presorted);
                    }
                    if (span >= 11 && n >= 1000 && span < 64) || (span == 64 && n == 16384) {
                        assert_eq!(route, SmallSortRoute::Radix, "span {span}, n {n}");
                    }
                }
            }
        }
    }

    #[test]
    fn small_sort_routes_shaped_inputs() {
        let n = 4000;
        let rising: Vec<u64> = (0..n as u64).map(|i| i * 3 + 7).collect();
        assert_eq!(check_small_sort(&rising), SmallSortRoute::Presorted);
        let equal = vec![0xFEED_u64; n];
        assert_eq!(check_small_sort(&equal), SmallSortRoute::Presorted);
        // Sorted with runs of equal keys: still nothing to move.
        let steps: Vec<u64> = (0..n as u64).map(|i| i / 10).collect();
        assert_eq!(check_small_sort(&steps), SmallSortRoute::Presorted);
        let falling: Vec<u64> = rising.iter().rev().copied().collect();
        assert_eq!(check_small_sort(&falling), SmallSortRoute::Radix);
        // Few distinct keys: the duplicate guard keeps the comparison sort.
        let rng = Rng::new(9);
        for distinct in [2u64, 4, 16] {
            let keys: Vec<u64> = (0..n as u64)
                .map(|i| rng.ith_in(i, distinct) * 1_000_003)
                .collect();
            assert_eq!(check_small_sort(&keys), SmallSortRoute::Comparison);
        }
        // Reverse order with duplicates: every tie must keep input order.
        let falling_dups: Vec<u64> = (0..n as u64).rev().map(|i| i / 3).collect();
        check_small_sort(&falling_dups);
    }

    #[test]
    fn small_sort_rejects_too_many_passes_for_small_n() {
        // 64 varying bits over 40 records would take many passes.
        let keys = span_keys(40, 0, 64, 0, 3);
        assert_eq!(check_small_sort(&keys), SmallSortRoute::Comparison);
    }

    #[test]
    fn small_sort_orders_signed_keys() {
        use crate::key::IntegerKey;
        let rng = Rng::new(10);
        for spread in [100i64, 1 << 20, i64::MAX] {
            let keys: Vec<u64> = (0..3000u64)
                .map(|i| ((rng.ith(i) as i64) % spread).to_ordered_u64())
                .collect();
            assert_eq!(check_small_sort(&keys), SmallSortRoute::Radix);
            let mut data: Vec<(i64, u32)> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| (i64::from_ordered_u64(k), i as u32))
                .collect();
            let mut scratch = data.clone();
            let mut want = data.clone();
            want.sort_by_key(|r| r.0);
            small_sort(&mut data, Some(&mut scratch), &|r: &(i64, u32)| {
                r.0.to_ordered_u64()
            });
            assert_eq!(data, want);
        }
    }

    #[test]
    fn overflow_bucket_goes_through_the_radix_base_case() {
        // Four heavy keys plus a few hundred keys far above them that the
        // sparse sample misses: the overflow bucket is the only light work,
        // so every radix-sorted record is an overflow record.
        let rng = Rng::new(11);
        let n = 200_000u64;
        let input: Vec<(u64, u32)> = (0..n)
            .map(|i| {
                let k = if i % 5000 == 2500 {
                    (1 << 40) | rng.ith_in(i, 1 << 16)
                } else {
                    [5, 9, 12, 30][rng.ith_in(i, 4) as usize]
                };
                (k, i as u32)
            })
            .collect();
        let cfg = SortConfig {
            radix_bits_override: Some(4),
            ..SortConfig::default()
        };
        let mut data = input.clone();
        let stats = SortStats::new();
        dtsort_impl(&mut data, &|r: &(u64, u32)| r.0, 64, &cfg, &stats);
        let mut want = input;
        want.sort_by_key(|r| r.0);
        assert_eq!(data, want);
        let snap = stats.snapshot();
        assert!(
            snap.overflow_records > INSERTION_SORT_MAX as u64,
            "{snap:?}"
        );
        assert_eq!(snap.radix_base_records, snap.overflow_records, "{snap:?}");
    }

    #[test]
    fn radix_base_records_follow_the_routing() {
        let rng = Rng::new(12);
        let wide: Vec<(u64, u32)> = (0..300_000u64)
            .map(|i| (rng.ith(i) & low_mask(40), i as u32))
            .collect();
        let few: Vec<(u64, u32)> = (0..300_000u64)
            .map(|i| (rng.ith_in(i, 4) << 30, i as u32))
            .collect();
        let sort = |input: &[(u64, u32)]| {
            let mut data = input.to_vec();
            let stats = SortStats::new();
            dtsort_impl(
                &mut data,
                &|r: &(u64, u32)| r.0,
                64,
                &SortConfig::default(),
                &stats,
            );
            stats.snapshot()
        };
        let snap = sort(&wide);
        assert!(snap.radix_base_records > 0, "{snap:?}");
        assert!(
            snap.radix_base_records <= snap.base_case_records,
            "{snap:?}"
        );
        let snap = sort(&few);
        assert_eq!(snap.radix_base_records, 0, "{snap:?}");
    }

    #[test]
    fn phase_sums_cover_every_level() {
        // Shared top byte plus heavy duplicates in the low bits: heavy keys
        // are found below the root, so the sort reaches depth >= 2.
        let rng = Rng::new(8);
        let mut data: Vec<(u64, u32)> = (0..200_000)
            .map(|i| {
                let r = rng.ith_f64(i as u64);
                let low = if r < 0.3 {
                    0x00FF_0000_0000_1234
                } else {
                    rng.ith(i as u64) & 0x00FF_FFFF_FFFF_FFFF
                };
                (0xFF00_0000_0000_0000 | low, i as u32)
            })
            .collect();
        let stats = SortStats::new();
        let cfg = SortConfig {
            base_case_threshold: 256,
            ..SortConfig::default()
        };
        dtsort_impl(&mut data, &|r: &(u64, u32)| r.0, 64, &cfg, &stats);
        let snap = stats.snapshot();
        assert!(snap.max_depth >= 2, "{snap:?}");
        assert!(snap.sample_time >= snap.root_sample_time, "{snap:?}");
        assert!(snap.distribute_time > snap.root_distribute_time, "{snap:?}");
        assert!(snap.merge_time >= snap.root_merge_time, "{snap:?}");
        assert!(snap.base_case_time > std::time::Duration::ZERO, "{snap:?}");
    }
}

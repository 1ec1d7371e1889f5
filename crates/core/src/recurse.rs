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
//!    buckets (all records share one key) and the overflow bucket
//!    (comparison sorted) skip the radix recursion.
//! 4. **Dovetail merging** — interleave the heavy buckets back into the
//!    light bucket of each MSD zone ([`crate::dtmerge`]).
//!
//! Data movement follows the "minimizing data movement" scheme of Section 5:
//! the distribution writes from the current array into the scratch array and
//! the dovetail merge writes back, so each level moves every record exactly
//! twice and never copies a bucket back just to recurse on it.

use crate::buckets::BucketTable;
use crate::config::{MergeStrategy, SortConfig};
use crate::dtmerge::{dovetail_merge_across, dovetail_merge_in_place, parallel_merge_zone};
use crate::key::{bit_width, low_mask};
use crate::sampling::sample_and_detect;
use crate::stats::SortStats;
use parlay::counting_sort::{counting_sort_by, counting_sort_cached_by, MAX_CACHED_BUCKETS};
use parlay::par::parallel_for;
use parlay::random::Rng;
use parlay::slice::UnsafeSliceCell;
use std::time::Instant;

/// Stable comparison-sort base case (Alg. 2, line 2).
fn base_case<T, F>(data: &mut [T], key: &F, stats: &SortStats)
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> u64 + Sync,
{
    let t = Instant::now();
    SortStats::add(&stats.base_case_calls, 1);
    SortStats::add(&stats.base_case_records, data.len() as u64);
    data.sort_by_key(|a| key(a));
    SortStats::add(&stats.base_case_ns, elapsed_ns(t));
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
/// Runs below the base-case threshold are comparison sorted and report no
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
        base_case(data, key, stats);
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
        base_case(data, key, stats);
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
        // One task per MSD zone plus one for the overflow bucket.
        let tasks = num_zones + usize::from(table.overflow_id.is_some());
        parallel_for(0, tasks, |z| {
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
                // Overflow bucket: comparison sort (Section 5).
                let of = table_ref.overflow_id.expect("overflow task") as usize;
                let range = plan_ref.bucket_range(of);
                if range.len() > 1 {
                    let bucket = unsafe { scratch_cell.slice_mut(range.start, range.len()) };
                    base_case(bucket, key, stats);
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

//! Stable blocked parallel counting sort (paper Section 2.4 / Appendix B).
//!
//! This is the *distribution* primitive used by every MSD integer sort in the
//! paper, including DovetailSort's Step 2.  The input is split into blocks;
//! each block counts how many of its records fall into each bucket (the
//! *counting matrix*), a column-major exclusive scan over the matrix yields
//! the scatter offset of every (block, bucket) pair, and a final parallel
//! pass scatters every record to its destination.  Because blocks are
//! processed in input order and each block scatters its records in input
//! order, the sort is stable.
//!
//! Work `O(n + B·b)` where `B` is the number of blocks and `b` the number of
//! buckets; span `O(b + log n)` — exactly the bounds quoted in the paper.

use crate::par::parallel_for;
use crate::slice::UnsafeSliceCell;

/// Result of planning a counting sort: block layout plus bucket boundaries.
#[derive(Debug, Clone)]
pub struct CountingSortPlan {
    /// Exclusive prefix of bucket sizes; `bucket_offsets[k]..bucket_offsets[k+1]`
    /// is the range of bucket `k` in the output.  Length `num_buckets + 1`.
    pub bucket_offsets: Vec<usize>,
}

impl CountingSortPlan {
    /// Number of buckets in the plan.
    pub fn num_buckets(&self) -> usize {
        self.bucket_offsets.len().saturating_sub(1)
    }

    /// The half-open output range of bucket `k`.
    pub fn bucket_range(&self, k: usize) -> std::ops::Range<usize> {
        self.bucket_offsets[k]..self.bucket_offsets[k + 1]
    }

    /// Size of bucket `k`.
    pub fn bucket_len(&self, k: usize) -> usize {
        self.bucket_offsets[k + 1] - self.bucket_offsets[k]
    }
}

/// Chooses the number of blocks for an input of `n` records and `b` buckets.
///
/// Following Appendix B, we keep the counting matrix (`blocks × buckets`
/// machine words) small enough to stay cache-resident while still exposing
/// enough blocks for load balancing across the available threads.
fn choose_num_blocks(n: usize, num_buckets: usize) -> usize {
    if n == 0 {
        return 1;
    }
    let threads = rayon::current_num_threads();
    // At least ~8 blocks per thread for balance, but never more blocks than
    // would make per-block work smaller than the bucket count (each block
    // must amortize its own histogram).
    let by_parallelism = threads * 8;
    let by_matrix = n / num_buckets.max(256) + 1;
    by_parallelism.min(by_matrix).clamp(1, n)
}

/// Largest bucket count [`counting_sort_cached_by`] accepts: its cached ids
/// are `u16`.
pub const MAX_CACHED_BUCKETS: usize = 1 << 16;

/// Stable parallel counting sort from `src` into `dst`.
///
/// `key(x)` must return a bucket id `< num_buckets` for every record.
/// Returns the plan holding the bucket boundaries in `dst`.  The classifier
/// runs twice per record, once per pass; see [`counting_sort_cached_by`] for
/// classifiers too costly for that.
///
/// # Panics
/// Panics if `src.len() != dst.len()` or if a key is out of range
/// (debug builds; in release an out-of-range key leads to a panic via
/// indexing).
pub fn counting_sort_by<T, F>(
    src: &[T],
    dst: &mut [T],
    num_buckets: usize,
    key: F,
) -> CountingSortPlan
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> usize + Sync,
{
    let Some(layout) = Layout::new(src.len(), dst.len(), num_buckets) else {
        return CountingSortPlan::empty(num_buckets);
    };
    let mut counts = layout.count(|block, row| {
        for rec in &src[block] {
            let k = key(rec);
            debug_assert!(k < num_buckets, "bucket id {k} out of range {num_buckets}");
            row[k] += 1;
        }
    });
    let bucket_offsets = layout.scan(&mut counts);
    layout.scatter(dst, &mut counts, |block, row, dst| {
        for rec in &src[block] {
            let k = key(rec);
            let pos = row[k];
            row[k] += 1;
            unsafe { dst.write(pos, *rec) };
        }
    });
    CountingSortPlan { bucket_offsets }
}

/// [`counting_sort_by`] that evaluates `key` once per record: pass 1 stores
/// each record's bucket id as a `u16`, and pass 3 scatters from the stored
/// ids.  Same block layout, scan and stability, for the price of a
/// 2-byte-per-record id buffer that lives for the duration of the call.
///
/// # Panics
/// As [`counting_sort_by`], and if `num_buckets > MAX_CACHED_BUCKETS`.
pub fn counting_sort_cached_by<T, F>(
    src: &[T],
    dst: &mut [T],
    num_buckets: usize,
    key: F,
) -> CountingSortPlan
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> usize + Sync,
{
    assert!(
        num_buckets <= MAX_CACHED_BUCKETS,
        "counting_sort_cached_by: {num_buckets} buckets do not fit u16 ids"
    );
    let Some(layout) = Layout::new(src.len(), dst.len(), num_buckets) else {
        return CountingSortPlan::empty(num_buckets);
    };
    let mut ids = vec![0u16; src.len()];
    let ids_cell = UnsafeSliceCell::new(&mut ids);
    let mut counts = layout.count(|block, row| {
        let block_ids = unsafe { ids_cell.slice_mut(block.start, block.len()) };
        for (rec, id) in src[block].iter().zip(block_ids) {
            let k = key(rec);
            debug_assert!(k < num_buckets, "bucket id {k} out of range {num_buckets}");
            row[k] += 1;
            *id = k as u16;
        }
    });
    let bucket_offsets = layout.scan(&mut counts);
    layout.scatter(dst, &mut counts, |block, row, dst| {
        for (rec, &k) in src[block.clone()].iter().zip(&ids[block]) {
            let pos = row[k as usize];
            row[k as usize] += 1;
            unsafe { dst.write(pos, *rec) };
        }
    });
    CountingSortPlan { bucket_offsets }
}

impl CountingSortPlan {
    /// The plan of an empty input.
    fn empty(num_buckets: usize) -> Self {
        Self {
            bucket_offsets: vec![0; num_buckets + 1],
        }
    }
}

/// Block layout of one counting sort, shared by its three passes.
struct Layout {
    n: usize,
    num_buckets: usize,
    num_blocks: usize,
    block_size: usize,
}

impl Layout {
    /// The layout for a nonempty input, or `None` for an empty one.
    fn new(n: usize, dst_len: usize, num_buckets: usize) -> Option<Self> {
        assert_eq!(
            n, dst_len,
            "counting_sort_by: src and dst must have equal length"
        );
        if num_buckets == 0 {
            assert_eq!(n, 0, "counting_sort_by: zero buckets with nonempty input");
        }
        if n == 0 {
            return None;
        }
        let num_blocks = choose_num_blocks(n, num_buckets);
        Some(Self {
            n,
            num_buckets,
            num_blocks,
            block_size: n.div_ceil(num_blocks),
        })
    }

    fn block(&self, b: usize) -> std::ops::Range<usize> {
        b * self.block_size..((b + 1) * self.block_size).min(self.n)
    }

    /// Pass 1: per-block histograms, stored row-major: counts[block][bucket].
    /// `count_block(records, row)` fills one block's row.
    fn count<C>(&self, count_block: C) -> Vec<usize>
    where
        C: Fn(std::ops::Range<usize>, &mut [usize]) + Sync,
    {
        let mut counts = vec![0usize; self.num_blocks * self.num_buckets];
        let counts_cell = UnsafeSliceCell::new(&mut counts);
        parallel_for(0, self.num_blocks, |b| {
            let row = unsafe { counts_cell.slice_mut(b * self.num_buckets, self.num_buckets) };
            count_block(self.block(b), row);
        });
        counts
    }

    /// Pass 2: column-major exclusive scan over the counting matrix.  The
    /// offset of (block b, bucket k) is: all records of buckets < k, plus the
    /// records of bucket k in blocks < b.  The matrix is small (it was sized
    /// to fit in cache) so a sequential scan keeps the span at O(B·b) <= O(n).
    /// Returns the bucket boundaries.
    fn scan(&self, counts: &mut [usize]) -> Vec<usize> {
        let mut bucket_offsets = vec![0usize; self.num_buckets + 1];
        let mut running = 0usize;
        for k in 0..self.num_buckets {
            bucket_offsets[k] = running;
            for b in 0..self.num_blocks {
                let idx = b * self.num_buckets + k;
                let c = counts[idx];
                counts[idx] = running;
                running += c;
            }
        }
        bucket_offsets[self.num_buckets] = running;
        debug_assert_eq!(
            running, self.n,
            "counting matrix total must equal input size"
        );
        bucket_offsets
    }

    /// Pass 3: stable scatter.  Each block owns its row of offsets, so the
    /// destination index sets of different blocks are disjoint.
    /// `scatter_block(records, row, dst)` writes one block's records.
    fn scatter<T, S>(&self, dst: &mut [T], counts: &mut [usize], scatter_block: S)
    where
        T: Copy + Send + Sync,
        S: Fn(std::ops::Range<usize>, &mut [usize], &UnsafeSliceCell<'_, T>) + Sync,
    {
        let dst_cell = UnsafeSliceCell::new(dst);
        let counts_cell = UnsafeSliceCell::new(counts);
        parallel_for(0, self.num_blocks, |b| {
            let row = unsafe { counts_cell.slice_mut(b * self.num_buckets, self.num_buckets) };
            scatter_block(self.block(b), row, &dst_cell);
        });
    }
}

/// Stable counting sort that leaves the result in `data`, using a freshly
/// allocated buffer internally.  Convenience wrapper for callers that do not
/// manage their own ping-pong buffers.
pub fn counting_sort_inplace_by<T, F>(
    data: &mut [T],
    num_buckets: usize,
    key: F,
) -> CountingSortPlan
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> usize + Sync,
{
    let mut tmp = data.to_vec();
    let plan = counting_sort_by(data, &mut tmp, num_buckets, key);
    data.copy_from_slice(&tmp);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::Rng;

    fn check_stable_counting_sort(input: &[(u32, u32)], num_buckets: usize) {
        let mut dst = vec![(0u32, 0u32); input.len()];
        let plan = counting_sort_by(input, &mut dst, num_buckets, |&(k, _)| k as usize);
        // Reference: std stable sort by bucket id.
        let mut want = input.to_vec();
        want.sort_by_key(|&(k, _)| k);
        assert_eq!(dst, want, "counting sort must equal a stable sort by key");
        // Bucket offsets must delimit the buckets.
        assert_eq!(plan.bucket_offsets.len(), num_buckets + 1);
        assert_eq!(*plan.bucket_offsets.last().unwrap(), input.len());
        for k in 0..num_buckets {
            for &(key, _) in &dst[plan.bucket_range(k)] {
                assert_eq!(key as usize, k);
            }
        }
    }

    #[test]
    fn random_input_is_stably_sorted() {
        let rng = Rng::new(1);
        let n = 100_000;
        let b = 64;
        let input: Vec<(u32, u32)> = (0..n)
            .map(|i| (rng.ith_in(i as u64, b as u64) as u32, i as u32))
            .collect();
        check_stable_counting_sort(&input, b);
    }

    #[test]
    fn skewed_input() {
        let rng = Rng::new(2);
        let n = 50_000;
        let b = 16;
        // 90% of records in bucket 3.
        let input: Vec<(u32, u32)> = (0..n)
            .map(|i| {
                let k = if rng.ith_f64(i as u64) < 0.9 {
                    3
                } else {
                    rng.ith_in(i as u64, b as u64) as u32
                };
                (k, i as u32)
            })
            .collect();
        check_stable_counting_sort(&input, b);
    }

    #[test]
    fn empty_input_and_single_bucket() {
        let input: Vec<(u32, u32)> = vec![];
        let mut dst: Vec<(u32, u32)> = vec![];
        let plan = counting_sort_by(&input, &mut dst, 8, |&(k, _)| k as usize);
        assert_eq!(plan.bucket_offsets, vec![0; 9]);

        let input: Vec<(u32, u32)> = (0..1000).map(|i| (0, i)).collect();
        check_stable_counting_sort(&input, 1);
    }

    #[test]
    fn many_buckets_few_records() {
        let input: Vec<(u32, u32)> = vec![(999, 0), (0, 1), (500, 2), (999, 3)];
        check_stable_counting_sort(&input, 1000);
    }

    #[test]
    fn inplace_wrapper_matches() {
        let rng = Rng::new(3);
        let mut data: Vec<(u32, u32)> = (0..10_000)
            .map(|i| (rng.ith_in(i, 32) as u32, i as u32))
            .collect();
        let mut want = data.clone();
        want.sort_by_key(|&(k, _)| k);
        counting_sort_inplace_by(&mut data, 32, |&(k, _)| k as usize);
        assert_eq!(data, want);
    }

    #[test]
    fn plan_accessors() {
        let input: Vec<(u32, u32)> = vec![(1, 0), (1, 1), (3, 2)];
        let mut dst = vec![(0, 0); 3];
        let plan = counting_sort_by(&input, &mut dst, 4, |&(k, _)| k as usize);
        assert_eq!(plan.num_buckets(), 4);
        assert_eq!(plan.bucket_len(0), 0);
        assert_eq!(plan.bucket_len(1), 2);
        assert_eq!(plan.bucket_len(2), 0);
        assert_eq!(plan.bucket_len(3), 1);
        assert_eq!(plan.bucket_range(1), 0..2);
    }

    /// The cached-id variant must produce the same output and plan as the
    /// two-pass sort.
    fn check_cached_matches(input: &[(u32, u32)], num_buckets: usize) {
        let bucket = |r: &(u32, u32)| r.0 as usize;
        let mut want = vec![(0u32, 0u32); input.len()];
        let want_plan = counting_sort_by(input, &mut want, num_buckets, bucket);
        let mut got = vec![(0u32, 0u32); input.len()];
        let got_plan = counting_sort_cached_by(input, &mut got, num_buckets, bucket);
        assert_eq!(got, want);
        assert_eq!(got_plan.bucket_offsets, want_plan.bucket_offsets);
    }

    #[test]
    fn cached_variant_matches_two_pass() {
        let rng = Rng::new(4);
        // Random.
        let random: Vec<(u32, u32)> = (0..100_000)
            .map(|i| (rng.ith_in(i, 300) as u32, i as u32))
            .collect();
        check_cached_matches(&random, 300);
        // Skewed: 90% of records in bucket 3.
        let skewed: Vec<(u32, u32)> = (0..50_000)
            .map(|i| {
                let k = if rng.ith_f64(i) < 0.9 {
                    3
                } else {
                    rng.ith_in(i, 16) as u32
                };
                (k, i as u32)
            })
            .collect();
        check_cached_matches(&skewed, 16);
        // Empty and single-bucket.
        check_cached_matches(&[], 8);
        let single: Vec<(u32, u32)> = (0..1000).map(|i| (0, i)).collect();
        check_cached_matches(&single, 1);
        // The largest bucket count whose ids fit u16.
        let wide: Vec<(u32, u32)> = (0..70_000)
            .map(|i| (rng.ith_in(i, MAX_CACHED_BUCKETS as u64) as u32, i as u32))
            .collect();
        check_cached_matches(&wide, MAX_CACHED_BUCKETS);
    }

    #[test]
    #[should_panic(expected = "do not fit u16 ids")]
    fn cached_variant_rejects_too_many_buckets() {
        let input = [(0u32, 0u32)];
        let mut dst = [(0u32, 0u32)];
        counting_sort_cached_by(&input, &mut dst, MAX_CACHED_BUCKETS + 1, |r| r.0 as usize);
    }
}

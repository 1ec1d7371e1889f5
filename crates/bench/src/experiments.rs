//! Reusable experiment drivers shared by the table/figure binaries.
//!
//! Each function reproduces the measurement loop behind one family of
//! results in the paper: full algorithm comparisons on a distribution
//! (Table 3 / Fig. 1), the heavy-key-detection ablation (Fig. 4(a)(b)), the
//! dovetail-merge ablation (Fig. 4(c)(d)), thread scaling (Fig. 4(e),
//! Figs. 5–20), input-size scaling (Fig. 4(f), Figs. 21–36), the
//! applications (Table 4), and the linear-work theory checks
//! (Theorems 4.6/4.7).

use crate::runner::{median_time_secs, SorterKind};
use apps::morton::morton_sort_2d_with;
use apps::transpose_with_sorter;
use dtsort::{MergeStrategy, SortConfig, StatsSnapshot};
use workloads::dist::{generate_pairs_u32, generate_pairs_u64, Distribution};
use workloads::graphs::Csr;
use workloads::points::Point2;

/// Measures every sorter in `sorters` on one distribution instance.
/// Returns the median seconds per sorter, in order.  With `verify`, each
/// sorter's output is checked against a stable reference
/// ([`check_sorted_output`]) and a mismatch panics.
pub fn measure_distribution(
    dist: &Distribution,
    n: usize,
    bits: u32,
    reps: usize,
    sorters: &[SorterKind],
    verify: bool,
    seed: u64,
) -> Vec<f64> {
    if bits == 32 {
        let input = generate_pairs_u32(dist, n, seed);
        measure_sorters(
            &input,
            reps,
            sorters,
            verify,
            dist,
            SorterKind::sort_pairs_u32,
        )
    } else {
        let input = generate_pairs_u64(dist, n, seed);
        measure_sorters(
            &input,
            reps,
            sorters,
            verify,
            dist,
            SorterKind::sort_pairs_u64,
        )
    }
}

fn measure_sorters<K: Ord + Copy, V: Ord + Copy>(
    input: &[(K, V)],
    reps: usize,
    sorters: &[SorterKind],
    verify: bool,
    dist: &Distribution,
    sort: fn(&SorterKind, &mut [(K, V)]),
) -> Vec<f64> {
    sorters
        .iter()
        .map(|s| {
            let t = median_time_secs(input, reps, |v| sort(s, v));
            if verify {
                let mut check = input.to_vec();
                sort(s, &mut check);
                if let Err(e) = check_sorted_output(input, &check, s.is_stable()) {
                    panic!("{} on {}: {e}", s.name(), dist.label());
                }
            }
            t
        })
        .collect()
}

/// Checks `got`, a sorter's output on `input`, against the stable sort by
/// key: a stable sorter must match it exactly; an unstable one must have
/// the same key sequence and the same multiset of records.  Catches
/// dropped, duplicated and (for stable sorters) reordered records, not
/// just out-of-order keys.
pub fn check_sorted_output<K: Ord + Copy, V: Ord + Copy>(
    input: &[(K, V)],
    got: &[(K, V)],
    stable: bool,
) -> Result<(), String> {
    let mut want = input.to_vec();
    want.sort_by_key(|r| r.0);
    if got.len() != want.len() {
        return Err(format!("{} records out, {} in", got.len(), want.len()));
    }
    let first_diff = |a: &[(K, V)], b: &[(K, V)]| a.iter().zip(b).position(|(x, y)| x != y);
    if stable {
        return match first_diff(got, &want) {
            None => Ok(()),
            Some(i) => Err(format!("differs from the stable sort at index {i}")),
        };
    }
    if let Some(i) = got.iter().zip(&want).position(|(x, y)| x.0 != y.0) {
        return Err(format!(
            "key sequence differs from the sorted one at index {i}"
        ));
    }
    let mut got_set = got.to_vec();
    got_set.sort_unstable();
    want.sort_unstable();
    match first_diff(&got_set, &want) {
        None => Ok(()),
        Some(_) => Err("records differ from the input's (dropped or duplicated)".into()),
    }
}

/// Fig. 4(a)(b): DTSort with and without heavy-key detection.
/// Returns `(with_detection, without_detection)` median seconds.
pub fn measure_heavy_ablation(
    dist: &Distribution,
    n: usize,
    bits: u32,
    reps: usize,
    seed: u64,
) -> (f64, f64) {
    let full = SortConfig::default();
    let plain = SortConfig::plain();
    if bits == 32 {
        let input = generate_pairs_u32(dist, n, seed);
        (
            median_time_secs(&input, reps, |v| dtsort::sort_pairs_with(v, &full)),
            median_time_secs(&input, reps, |v| dtsort::sort_pairs_with(v, &plain)),
        )
    } else {
        let input = generate_pairs_u64(dist, n, seed);
        (
            median_time_secs(&input, reps, |v| dtsort::sort_pairs_with(v, &full)),
            median_time_secs(&input, reps, |v| dtsort::sort_pairs_with(v, &plain)),
        )
    }
}

/// One strategy's result in the merge ablation: median wall seconds of the
/// whole sort, and median seconds of its merge step summed over every
/// recursive call (`StatsSnapshot::merge_time`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeTiming {
    pub total_s: f64,
    pub merge_s: f64,
}

/// Merge times below this are not told apart from zero: 1 µs, far above the
/// clock's nanosecond resolution once a few calls' spans are summed.
pub const TIMER_RESOLUTION_S: f64 = 1e-6;

/// How much faster the DTMerge step is than `baseline`'s, or `None` when
/// either merge time is below [`TIMER_RESOLUTION_S`].
pub fn merge_speedup(baseline: MergeTiming, dtmerge: MergeTiming) -> Option<f64> {
    (baseline.merge_s >= TIMER_RESOLUTION_S && dtmerge.merge_s >= TIMER_RESOLUTION_S)
        .then(|| baseline.merge_s / dtmerge.merge_s)
}

/// Fig. 4(c)(d): the dovetail merge versus the parallel-merge baseline and
/// the merge-free lower bound ("Others").
/// Returns `[dtmerge, plmerge, no_merge]`.
pub fn measure_merge_ablation(
    dist: &Distribution,
    n: usize,
    bits: u32,
    reps: usize,
    seed: u64,
) -> [MergeTiming; 3] {
    let mk = |strategy: MergeStrategy| SortConfig {
        merge_strategy: strategy,
        ..SortConfig::default()
    };
    let cfgs = [
        mk(MergeStrategy::Dovetail),
        mk(MergeStrategy::ParallelMerge),
        mk(MergeStrategy::Skip),
    ];
    if bits == 32 {
        let input = generate_pairs_u32(dist, n, seed);
        cfgs.map(|cfg| time_merge(&input, reps, &cfg))
    } else {
        let input = generate_pairs_u64(dist, n, seed);
        cfgs.map(|cfg| time_merge(&input, reps, &cfg))
    }
}

fn time_merge<K, V>(input: &[(K, V)], reps: usize, cfg: &SortConfig) -> MergeTiming
where
    K: dtsort::IntegerKey,
    V: Copy + Send + Sync,
{
    let mut merge = Vec::new();
    let total_s = median_time_secs(input, reps, |v| {
        let stats = dtsort::sort_pairs_with_stats(v, cfg);
        merge.push(stats.merge_time.as_secs_f64());
    });
    merge.sort_by(f64::total_cmp);
    MergeTiming {
        total_s,
        merge_s: merge[merge.len() / 2],
    }
}

/// Thread-scaling measurement (Fig. 4(e), Figs. 5–20): median seconds of
/// each sorter on the instance, using a dedicated pool of `threads` workers.
pub fn measure_with_threads(
    dist: &Distribution,
    n: usize,
    bits: u32,
    reps: usize,
    threads: usize,
    sorters: &[SorterKind],
    seed: u64,
) -> Vec<f64> {
    parlay::par::with_threads(threads, || {
        measure_distribution(dist, n, bits, reps, sorters, false, seed)
    })
}

/// Table 4 (graph transpose): measures transposing `g` with each sorter.
pub fn measure_transpose(g: &Csr, reps: usize, sorters: &[SorterKind]) -> Vec<f64> {
    sorters
        .iter()
        .map(|s| {
            let kind = *s;
            // The sorted edge list dominates the cost; we time the whole
            // application (pair construction + sort + CSR rebuild), as the
            // paper does.
            let dummy = [0u8];
            median_time_secs(&dummy, reps, |_| {
                let t = transpose_with_sorter(g, |edges| kind.sort_pairs_u32(edges));
                std::hint::black_box(t.num_edges());
            })
        })
        .collect()
}

/// Table 4 (Morton order): measures Morton-sorting the 2D points with each
/// sorter.
pub fn measure_morton(points: &[Point2], reps: usize, sorters: &[SorterKind]) -> Vec<f64> {
    sorters
        .iter()
        .map(|s| {
            let kind = *s;
            let dummy = [0u8];
            median_time_secs(&dummy, reps, |_| {
                let sorted = morton_sort_2d_with(points, |codes| kind.sort_codes(codes));
                std::hint::black_box(sorted.len());
            })
        })
        .collect()
}

/// Theory check (Theorems 4.6/4.7): returns the instrumentation snapshot of
/// a DTSort run on the distribution, from which the harness derives the
/// records-moved-per-input-record work proxy.
pub fn measure_work_counters(dist: &Distribution, n: usize, bits: u32, seed: u64) -> StatsSnapshot {
    if bits == 32 {
        let mut input = generate_pairs_u32(dist, n, seed);
        dtsort::sort_pairs_with_stats(&mut input, &SortConfig::default())
    } else {
        let mut input = generate_pairs_u64(dist, n, seed);
        dtsort::sort_pairs_with_stats(&mut input, &SortConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_measurement_returns_one_time_per_sorter() {
        let sorters = [SorterKind::DtSort, SorterKind::SampleSort];
        let t = measure_distribution(
            &Distribution::Zipfian { s: 1.0 },
            20_000,
            32,
            1,
            &sorters,
            true,
            1,
        );
        assert_eq!(t.len(), 2);
        assert!(t.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn verify_rejects_lost_duplicated_or_reordered_records() {
        let input: Vec<(u32, u32)> = (0..2000u32).map(|i| ((i * 7919) % 300, i)).collect();
        let sorted = |v: &mut [(u32, u32)]| dtsort::sort_pairs(v);
        let mut good = input.clone();
        sorted(&mut good);
        assert_eq!(check_sorted_output(&input, &good, true), Ok(()));
        assert_eq!(check_sorted_output(&input, &good, false), Ok(()));
        // Drops a record by overwriting it with its neighbour: the keys
        // stay sorted, which the old non-decreasing check accepted.
        let dropping = |v: &mut [(u32, u32)]| {
            sorted(v);
            v[1] = v[0];
        };
        let mut bad = input.clone();
        dropping(&mut bad);
        assert!(bad.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(check_sorted_output(&input, &bad, true).is_err());
        assert!(check_sorted_output(&input, &bad, false).is_err());
        // A shorter output fails too.
        assert!(check_sorted_output(&input, &good[1..], false).is_err());
        // Equal keys out of input order: only a stable sorter fails.
        let mut swapped = good.clone();
        let i = swapped.windows(2).position(|w| w[0].0 == w[1].0).unwrap();
        swapped.swap(i, i + 1);
        assert!(check_sorted_output(&input, &swapped, true).is_err());
        assert_eq!(check_sorted_output(&input, &swapped, false), Ok(()));
    }

    #[test]
    fn verify_accepts_every_sorter_on_a_duplicate_heavy_instance() {
        measure_distribution(
            &Distribution::Uniform { distinct: 1000 },
            20_000,
            64,
            1,
            &SorterKind::all(),
            true,
            5,
        );
    }

    #[test]
    fn ablations_return_positive_times() {
        let d = Distribution::Exponential { lambda: 10.0 };
        let (a, b) = measure_heavy_ablation(&d, 20_000, 32, 1, 2);
        assert!(a > 0.0 && b > 0.0);
        let [dt, pl, none] = measure_merge_ablation(&d, 20_000, 64, 1, 3);
        assert!(dt.total_s > 0.0 && pl.total_s > 0.0 && none.total_s > 0.0);
        let speedup = merge_speedup(pl, dt).expect("merge times above timer resolution");
        assert!(speedup.is_finite() && speedup > 0.0, "{speedup}");
        let unmeasured = MergeTiming {
            total_s: 1.0,
            merge_s: 0.0,
        };
        assert_eq!(merge_speedup(pl, unmeasured), None);
    }

    #[test]
    fn thread_scoped_measurement_works() {
        let t = measure_with_threads(
            &Distribution::Uniform { distinct: 1000 },
            10_000,
            32,
            1,
            2,
            &[SorterKind::DtSort],
            4,
        );
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn application_measurements_work() {
        let e = workloads::graphs::power_law_graph(500, 5_000, 1.2, 5);
        let g = Csr::from_unsorted_edges(e.num_vertices, &e.edges);
        let t = measure_transpose(&g, 1, &[SorterKind::DtSort, SorterKind::Plis]);
        assert_eq!(t.len(), 2);

        let pts = workloads::points::uniform_points_2d(5_000, 6);
        let t = measure_morton(&pts, 1, &[SorterKind::DtSort]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn work_counters_show_heavy_records_on_skewed_input() {
        let snap = measure_work_counters(&Distribution::Uniform { distinct: 10 }, 50_000, 32, 7);
        assert!(snap.heavy_records > 25_000, "{snap:?}");
        let snap_uni =
            measure_work_counters(&Distribution::Uniform { distinct: 1 << 40 }, 50_000, 64, 7);
        assert_eq!(snap_uni.heavy_records, 0, "{snap_uni:?}");
    }
}

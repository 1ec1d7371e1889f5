//! Property tests of the streaming out-of-core sorter: across batch sizes,
//! memory budgets (forcing spills) and key distributions, the output must
//! be a *stable sorted permutation* of the pushed input, exactly matching
//! the standard library's stable sort.

use pisort::dtsort::{SortConfig, StreamConfig};
use pisort::workloads::dist::Distribution;
use pisort::StreamSorter;
use proptest::collection::vec;
use proptest::prelude::*;

/// A small-budget config whose inner sort also exercises the radix path.
fn small_cfg(budget: usize) -> StreamConfig {
    StreamConfig {
        memory_budget_bytes: budget,
        sort: SortConfig {
            base_case_threshold: 64,
            ..SortConfig::default()
        },
        ..StreamConfig::default()
    }
}

fn reference(input: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut want = input.to_vec();
    want.sort_by_key(|r| r.0);
    want
}

/// Pushes `input` in `batch`-sized chunks under `budget` bytes and returns
/// the iterator-merged output plus the number of spilled runs.
fn stream_sorted(input: &[(u32, u32)], budget: usize, batch: usize) -> (Vec<(u32, u32)>, usize) {
    let mut sorter: StreamSorter<u32, u32> = StreamSorter::with_config(small_cfg(budget));
    for chunk in input.chunks(batch.max(1)) {
        sorter.push(chunk).expect("push");
    }
    let spilled = sorter.stats().spilled_runs;
    (sorter.finish().expect("finish").collect(), spilled)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn stable_sorted_permutation_across_budgets_and_batches(
        keys in vec(any::<u32>(), 0..4000),
        small_keys in vec(0u32..8, 0..4000),
        budget_kib in 1usize..32,
        batch in 1usize..1500,
    ) {
        // Wide keys (few duplicates) and narrow keys (heavy duplicates).
        for keyset in [keys, small_keys] {
            let input: Vec<(u32, u32)> = keyset.iter().enumerate()
                .map(|(i, &k)| (k, i as u32)).collect();
            let (got, _) = stream_sorted(&input, budget_kib << 10, batch);
            prop_assert_eq!(got, reference(&input));
        }
    }

    #[test]
    fn finish_into_matches_iterator(
        keys in vec(any::<u32>(), 0..3000),
        batch in 1usize..700,
    ) {
        let input: Vec<(u32, u32)> = keys.iter().enumerate()
            .map(|(i, &k)| (k, i as u32)).collect();
        let budget = 4 << 10;
        let (via_iter, _) = stream_sorted(&input, budget, batch);

        let mut sorter: StreamSorter<u32, u32> = StreamSorter::with_config(small_cfg(budget));
        for chunk in input.chunks(batch) {
            sorter.push(chunk).expect("push");
        }
        let mut via_slice = vec![(0u32, 0u32); input.len()];
        sorter.finish_into(&mut via_slice).expect("finish_into");
        prop_assert_eq!(via_iter, via_slice);
    }
}

/// Deterministic large-scale checks per distribution: the dataset is ~16×
/// the memory budget, so the sorter must spill many runs and merge them
/// from disk.
#[test]
fn larger_than_memory_across_distributions() {
    let n = 60_000usize;
    let record = std::mem::size_of::<(u32, u32)>();
    let budget = n * record / 16;
    for dist in [
        Distribution::Uniform { distinct: 1 << 30 }, // nearly all distinct
        Distribution::Uniform { distinct: 7 },       // heavy duplicates
        Distribution::Zipfian { s: 1.2 },            // skewed duplicates
    ] {
        let input = pisort::workloads::dist::generate_pairs_u32(&dist, n, 99);
        let (got, spilled) = stream_sorted(&input, budget, 4096);
        assert!(
            spilled >= 8,
            "{}: expected many spills, got {spilled}",
            dist.label()
        );
        assert_eq!(got, reference(&input), "{} must sort stably", dist.label());
    }
}

#[test]
fn streamed_batches_match_one_shot_generator_contract() {
    // The batch generator promises global record indices; a stable sort of
    // the concatenation must therefore keep per-key index order.
    let dist = Distribution::Zipfian { s: 1.5 };
    let n = 40_000usize;
    let mut sorter: StreamSorter<u32, u32> = StreamSorter::with_config(small_cfg(8 << 10));
    let mut input = Vec::with_capacity(n);
    for batch in pisort::workloads::batches_u32(&dist, n, 1777, 5) {
        input.extend_from_slice(&batch);
        sorter.push(&batch).expect("push");
    }
    assert!(sorter.stats().spilled_runs > 4);
    let got: Vec<(u32, u32)> = sorter.finish().expect("finish").collect();
    assert_eq!(got, reference(&input));
}

#[test]
fn heavy_duplicate_stream_carries_keys_and_stays_stable() {
    // 60% of the stream is one key; the carry must pick it up after the
    // first run and the output must still be exactly std's stable sort.
    let n = 50_000usize;
    let input: Vec<(u32, u32)> = (0..n)
        .map(|i| {
            let k = if i % 5 < 3 {
                123_456
            } else {
                (i as u32).wrapping_mul(2_654_435_761)
            };
            (k, i as u32)
        })
        .collect();
    let mut sorter: StreamSorter<u32, u32> = StreamSorter::with_config(small_cfg(16 << 10));
    sorter.push(&input).expect("push");
    assert!(sorter.stats().spilled_runs > 2);
    assert!(
        sorter.carried_heavy_keys().contains(&123_456),
        "carry: {:?}",
        sorter.carried_heavy_keys()
    );
    let got: Vec<(u32, u32)> = sorter.finish().expect("finish").collect();
    assert_eq!(got, reference(&input));
}

#[test]
fn string_payload_stream_matches_std_stable_sort() {
    // Public-API end-to-end check of the variable-length path: a
    // larger-than-budget stream of (key, String) records must come back as
    // exactly std's stable sort of the concatenated batches, through both
    // finish paths.
    let dist = Distribution::Zipfian { s: 1.2 };
    let n = 25_000usize;
    let mut input: Vec<(u64, String)> = Vec::with_capacity(n);
    let mk = || StreamSorter::<u64, String>::with_config(small_cfg(32 << 10));
    let mut sorter = mk();
    let mut sorter2 = mk();
    for batch in pisort::workloads::StringBatchStream::new(&dist, n, 32, 1333, 7, 0, 120) {
        sorter.push(&batch).expect("push");
        sorter2.push(&batch).expect("push");
        input.extend(batch);
    }
    assert!(
        sorter.stats().spilled_runs > 2,
        "stats: {:?}",
        sorter.stats()
    );
    let got: Vec<(u64, String)> = sorter.finish().expect("finish").collect();
    let via_vec = sorter2.finish_vec().expect("finish_vec");
    let mut want = input;
    want.sort_by_key(|r| r.0);
    assert_eq!(got, want, "streamed string sort must be std's stable sort");
    assert_eq!(via_vec, want, "parallel merge path must agree");
}

#[test]
fn streaming_string_dedup_keeps_first_payload() {
    use pisort::stream::{FirstAgg, StreamGroupBy};
    let dist = Distribution::Uniform { distinct: 300 };
    let n = 20_000usize;
    let mut gb: StreamGroupBy<u64, FirstAgg<String>> =
        StreamGroupBy::with_config(FirstAgg::new(), small_cfg(16 << 10));
    let mut first = std::collections::HashMap::new();
    for batch in pisort::workloads::StringBatchStream::new(&dist, n, 32, 997, 8, 4, 64) {
        for (k, v) in &batch {
            first.entry(*k).or_insert_with(|| v.clone());
        }
        gb.push(&batch).expect("push");
    }
    assert!(gb.stats().spilled_runs > 1, "stats: {:?}", gb.stats());
    let got = gb.finish_vec().expect("finish");
    assert_eq!(got.len(), first.len());
    assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "key-ordered");
    for (k, v) in &got {
        assert_eq!(v, &first[k], "key {k}: first payload in stream order");
    }
}

/// Unspilled streams read their one in-memory run straight through; the
/// iterator must match the materializing finish and a one-shot sort byte
/// for byte.
#[test]
fn unspilled_stream_matches_finish_vec_and_sort_pairs() {
    use pisort::workloads::dist::generate_pairs_u64;
    let dists = [
        Distribution::Uniform { distinct: 1 << 40 },
        Distribution::Uniform { distinct: 1000 },
        Distribution::Zipfian { s: 1.0 },
        Distribution::BitExponential { t: 10.0 },
    ];
    for (di, dist) in dists.iter().enumerate() {
        let input = generate_pairs_u64(dist, 60_000, 0x5EED + di as u64);
        let mk = || {
            let mut sorter: StreamSorter<u64, u64> = StreamSorter::new();
            for chunk in input.chunks(4099) {
                sorter.push(chunk).expect("push");
            }
            assert_eq!(sorter.stats().spilled_runs, 0, "{}", dist.label());
            sorter
        };
        let via_iter: Vec<(u64, u64)> = mk().finish().expect("finish").collect();
        let via_vec = mk().finish_vec().expect("finish_vec");
        let mut want = input.clone();
        pisort::dtsort::sort_pairs(&mut want);
        assert_eq!(via_iter, want, "iterator [{}]", dist.label());
        assert_eq!(via_vec, want, "finish_vec [{}]", dist.label());
    }
}

/// The unspilled group-by (one run, read directly) and a spilling one
/// (loser-tree merge of many runs) produce the same groups.
#[test]
fn unspilled_group_by_matches_spilling_group_by() {
    use pisort::stream::{StreamGroupBy, SumAgg};
    use pisort::workloads::dist::generate_pairs_u64;
    let input = generate_pairs_u64(&Distribution::Zipfian { s: 1.0 }, 60_000, 0xA66);
    let group = |cfg: StreamConfig| {
        let mut gb: StreamGroupBy<u64, SumAgg> = StreamGroupBy::with_config(SumAgg, cfg);
        for chunk in input.chunks(997) {
            gb.push(chunk).expect("push");
        }
        let spilled = gb.stats().spilled_runs;
        let got: Vec<(u64, u64)> = gb.finish().expect("finish").collect();
        (got, spilled)
    };
    let (unspilled, none) = group(StreamConfig::default());
    let (spilling, some) = group(small_cfg(16 << 10));
    assert_eq!(none, 0);
    assert!(some > 1, "expected spills, got {some}");
    assert_eq!(unspilled, spilling);
    let mut sums = std::collections::BTreeMap::new();
    for &(k, v) in &input {
        *sums.entry(k).or_insert(0u64) += v;
    }
    assert_eq!(unspilled, sums.into_iter().collect::<Vec<_>>());
}

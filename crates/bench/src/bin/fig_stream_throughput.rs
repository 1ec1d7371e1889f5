//! Streaming-sorter throughput: records/sec of `stream::StreamSorter` as
//! the memory budget shrinks (forcing more spilled runs), against the
//! in-memory DovetailSort baseline on the same input — measured in three
//! spill modes: **synchronous** (`StreamConfig::synchronous_spill`, the
//! pre-pipelining behavior), **pipelined** (background spill writer +
//! merge read-ahead, the default), and **compressed** (pipelined +
//! `SpillCompression::DeltaLz` delta/LZ spill blocks), so every run
//! re-baselines both the overlap win and the compression trade on the
//! current host.
//!
//! Each row reports the spill-phase wall time (pushing, sorting and
//! writing every run, i.e. `push` loop + `flush_spills`) and the merge
//! wall time (`finish` + drain) separately, plus the bytes written to
//! spill files — the pipelining win lives in the spill phase, where disk
//! time hides behind sort time.  Compressed rows additionally report the
//! pre-compression byte count and the achieved on-disk ratio.
//!
//! Beyond the console table, results are appended as machine-readable JSON
//! to `BENCH_stream.json` in the current directory so successive PRs can
//! track the perf trajectory.
//!
//! Usage: `cargo run -p bench --release --bin fig_stream_throughput -- [--n 2e6] [--reps 3]`

use bench::{
    json_escape, median_time_secs, obs_json_fields, write_bench_json, write_obs_artifacts, Args,
    ObsPhaseDeltas, ObsProbe, Table,
};
use dtsort::{SpillCompression, StreamConfig};
use std::time::Instant;
use stream::StreamSorter;
use workloads::dist::Distribution;

struct Measurement {
    dist: String,
    mode: &'static str,
    budget_label: String,
    budget_bytes: usize,
    runs: usize,
    spilled_bytes: u64,
    spilled_raw_bytes: u64,
    spill_secs: f64,
    merge_secs: f64,
    secs: f64,
    records_per_sec: f64,
    /// Median of paired pipelined-vs-synchronous speedups (pipelined rows
    /// only).
    pipe_sync_ratio: Option<f64>,
    /// Phase-time deltas from the obs registry (zero unless `OBS_TRACE=1`).
    obs: ObsPhaseDeltas,
}

/// One spill mode of the measurement matrix.
#[derive(Clone, Copy)]
struct Mode {
    name: &'static str,
    sync: bool,
    compression: SpillCompression,
}

const MODES: [Mode; 3] = [
    Mode {
        name: "synchronous",
        sync: true,
        compression: SpillCompression::Off,
    },
    Mode {
        name: "pipelined",
        sync: false,
        compression: SpillCompression::Off,
    },
    Mode {
        name: "compressed",
        sync: false,
        compression: SpillCompression::DeltaLz,
    },
];

struct Phases {
    spill_secs: f64,
    merge_secs: f64,
    runs: usize,
    spilled_bytes: u64,
    spilled_raw_bytes: u64,
    obs: ObsPhaseDeltas,
}

/// One full streaming sort, phase-timed: returns the spill-phase wall time
/// (pushes + flush) and the merge wall time (finish + drain) separately.
fn stream_sort_phases(input: &[(u32, u32)], budget: usize, batch: usize, mode: Mode) -> Phases {
    let cfg = StreamConfig {
        memory_budget_bytes: budget,
        synchronous_spill: mode.sync,
        spill_compression: mode.compression,
        ..StreamConfig::default()
    };
    let mut sorter: StreamSorter<u32, u32> = StreamSorter::with_config(cfg);
    let probe = ObsProbe::start();
    let spill_start = Instant::now();
    for chunk in input.chunks(batch) {
        sorter.push(chunk).expect("push failed");
    }
    // Waiting for the writer here charges residual in-flight writes to the
    // spill phase, so the two modes' phase splits are comparable.
    sorter.flush_spills().expect("flush failed");
    let spill_secs = spill_start.elapsed().as_secs_f64();
    let runs = sorter.run_count();
    let spilled_bytes = sorter.stats().spilled_bytes;
    let spilled_raw_bytes = sorter.stats().spilled_raw_bytes;
    let merge_start = Instant::now();
    let mut last = 0u32;
    for (k, _) in sorter.finish().expect("finish failed") {
        debug_assert!(k >= last);
        last = k;
        std::hint::black_box(k);
    }
    let merge_secs = merge_start.elapsed().as_secs_f64();
    Phases {
        spill_secs,
        merge_secs,
        runs,
        spilled_bytes,
        spilled_raw_bytes,
        obs: probe.finish(),
    }
}

/// Measures every mode `reps` times, **interleaved** (sync, pipelined,
/// compressed, sync, ...) so drifting background load on a shared host
/// hits all modes alike, and returns the per-mode median-total reps plus
/// the median of the per-pair pipelined-vs-synchronous speedup ratios —
/// the statistically meaningful overlap estimate under noisy timing.
fn median_modes(
    input: &[(u32, u32)],
    budget: usize,
    batch: usize,
    reps: usize,
) -> (Vec<Phases>, f64) {
    let reps = reps.max(1);
    let mut mode_runs: Vec<Vec<Phases>> = MODES.iter().map(|_| Vec::with_capacity(reps)).collect();
    let mut ratios: Vec<f64> = Vec::with_capacity(reps);
    let total = |p: &Phases| p.spill_secs + p.merge_secs;
    for _ in 0..reps {
        for (mi, &mode) in MODES.iter().enumerate() {
            mode_runs[mi].push(stream_sort_phases(input, budget, batch, mode));
        }
        let s = mode_runs[0].last().unwrap();
        let p = mode_runs[1].last().unwrap();
        ratios.push(total(s) / total(p));
    }
    let median = |mut v: Vec<Phases>| -> Phases {
        v.sort_by(|a, b| total(a).partial_cmp(&total(b)).unwrap());
        v.swap_remove(v.len() / 2)
    };
    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let ratio = ratios[ratios.len() / 2];
    (mode_runs.into_iter().map(median).collect(), ratio)
}

fn write_json(
    path: &str,
    n: usize,
    batch: usize,
    threads: usize,
    host_cpus: usize,
    rows: &[Measurement],
) {
    let rendered: Vec<String> = rows
        .iter()
        .map(|m| {
            let extra = format!(
                "{}{}",
                match m.pipe_sync_ratio {
                    Some(r) => format!(", \"pipe_sync_ratio\": {r:.3}"),
                    None => String::new(),
                },
                obs_json_fields(&m.obs),
            );
            let comp_ratio = if m.spilled_bytes > 0 {
                m.spilled_raw_bytes as f64 / m.spilled_bytes as f64
            } else {
                1.0
            };
            format!(
                "{{\"dist\": \"{}\", \"mode\": \"{}\", \"budget\": \"{}\", \"budget_bytes\": {}, \"runs\": {}, \"spilled_bytes\": {}, \"spilled_raw_bytes\": {}, \"comp_ratio\": {comp_ratio:.3}, \"spill_secs\": {:.6}, \"merge_secs\": {:.6}, \"secs\": {:.6}, \"records_per_sec\": {:.1}{}}}",
                json_escape(&m.dist),
                m.mode,
                json_escape(&m.budget_label),
                m.budget_bytes,
                m.runs,
                m.spilled_bytes,
                m.spilled_raw_bytes,
                m.spill_secs,
                m.merge_secs,
                m.secs,
                m.records_per_sec,
                extra,
            )
        })
        .collect();
    write_bench_json(
        path,
        "stream_throughput",
        &[
            ("n", n.to_string()),
            ("batch", batch.to_string()),
            ("threads", threads.to_string()),
            ("host_cpus", host_cpus.to_string()),
        ],
        &rendered,
    );
}

fn main() {
    let args = Args::parse();
    args.apply_thread_limit();
    // Checking for the flag itself (not the default value) keeps an
    // explicit `--n 10000000` honest.
    let n = if std::env::args().any(|a| a == "--n") {
        args.n
    } else {
        2_000_000
    };
    let batch = 64 * 1024;
    let record_bytes = std::mem::size_of::<(u32, u32)>();
    let data_bytes = n * record_bytes;
    // From "everything in memory" down to an eighth of the dataset.  The
    // budget is split into spill shares (buffer, scratch, in-flight runs),
    // so 8·data is the comfortably spill-free configuration in both modes.
    let budgets = [
        ("mem", 8 * data_bytes),
        ("1/2", data_bytes / 2),
        ("1/4", data_bytes / 4),
        ("1/8", data_bytes / 8),
    ];
    let instances = vec![
        Distribution::Uniform {
            distinct: 1_000_000_000,
        },
        Distribution::Zipfian { s: 1.2 },
        Distribution::Uniform { distinct: 10 },
    ];
    println!(
        "Streaming sorter throughput — n = {n}, batch = {batch}, {} threads",
        rayon::current_num_threads()
    );
    let mut all = Vec::new();
    for dist in &instances {
        println!("\n=== {} ===", dist.label());
        let input = workloads::dist::generate_pairs_u32(dist, n, 42);
        let mut table = Table::new(vec![
            "budget".to_string(),
            "mode".to_string(),
            "runs".to_string(),
            "spill MiB".to_string(),
            "comp".to_string(),
            "spill s".to_string(),
            "merge s".to_string(),
            "sec".to_string(),
            "Mrec/s".to_string(),
            "pipe/sync".to_string(),
        ]);
        // In-memory baseline for context.
        let base = median_time_secs(&input, args.reps, |v| dtsort::sort_pairs(v));
        table.add_row(vec![
            "dtsort".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            format!("{base:.4}"),
            format!("{:.2}", n as f64 / base / 1e6),
            "-".to_string(),
        ]);
        for &(label, budget) in &budgets {
            let (medians, ratio) = median_modes(&input, budget, batch, args.reps);
            for (mode, p) in MODES.iter().zip(&medians) {
                let pair_ratio = (mode.name == "pipelined").then_some(ratio);
                let ratio_cell = match pair_ratio {
                    Some(r) => format!("{r:.2}x"),
                    None => "-".to_string(),
                };
                let comp_cell = if p.spilled_bytes > 0 && p.spilled_raw_bytes != p.spilled_bytes {
                    format!(
                        "{:.2}x",
                        p.spilled_raw_bytes as f64 / p.spilled_bytes as f64
                    )
                } else {
                    "-".to_string()
                };
                let secs = p.spill_secs + p.merge_secs;
                let rps = n as f64 / secs;
                table.add_row(vec![
                    label.to_string(),
                    mode.name.to_string(),
                    format!("{}", p.runs),
                    format!("{:.1}", p.spilled_bytes as f64 / (1 << 20) as f64),
                    comp_cell,
                    format!("{:.4}", p.spill_secs),
                    format!("{:.4}", p.merge_secs),
                    format!("{secs:.4}"),
                    format!("{:.2}", rps / 1e6),
                    ratio_cell,
                ]);
                all.push(Measurement {
                    dist: dist.label(),
                    mode: mode.name,
                    budget_label: label.to_string(),
                    budget_bytes: budget,
                    runs: p.runs,
                    spilled_bytes: p.spilled_bytes,
                    spilled_raw_bytes: p.spilled_raw_bytes,
                    spill_secs: p.spill_secs,
                    merge_secs: p.merge_secs,
                    secs,
                    records_per_sec: rps,
                    pipe_sync_ratio: pair_ratio,
                    obs: p.obs,
                });
            }
        }
        table.print();
    }
    write_json(
        "BENCH_stream.json",
        n,
        batch,
        rayon::current_num_threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        &all,
    );
    write_obs_artifacts("stream");
}

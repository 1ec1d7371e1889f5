//! Variable-length value streaming throughput: records/sec and payload
//! MB/sec of `stream::StreamSorter<u64, String>` across payload-size
//! classes and memory budgets, against the fixed-size pod-value sorter on
//! the same keys (which isolates the cost of the length-prefixed format).
//! Spill-bound rows are measured in three spill modes — **synchronous**
//! (`StreamConfig::synchronous_spill`), **pipelined** (background writer +
//! read-ahead, the default) and **compressed** (pipelined +
//! `SpillCompression::DeltaLz`) — with the spill-phase wall time, bytes
//! written and achieved compression ratio reported per row.
//!
//! A final **web-log sessionization** section exercises the string-*key*
//! engines end to end: a synthetic web log (`workloads::strings`) is
//! sorted by session key (`StringStreamSorter`) and aggregated into
//! per-session byte totals (`StringStreamGroupBy`), under both spill
//! encodings, reporting the on-disk reduction the prefix-heavy keys get
//! from the delta/LZ block format.
//!
//! Beyond the console table, results are appended as machine-readable JSON
//! to `BENCH_varlen.json` in the current directory so successive PRs can
//! track the perf trajectory.
//!
//! Usage: `cargo run -p bench --release --bin fig_varlen_throughput -- [--n 3e5] [--reps 3]`

use bench::{
    json_escape, median_time_secs, obs_json_fields, write_bench_json, write_obs_artifacts, Args,
    ObsPhaseDeltas, ObsProbe, Table,
};
use dtsort::{SpillCompression, StreamConfig};
use std::time::Instant;
use stream::{StreamSorter, StringStreamGroupBy, StringStreamSorter, SumAgg};
use workloads::dist::Distribution;
use workloads::{generate_string_pairs, generate_weblog_records};

struct Measurement {
    dist: String,
    payload: String,
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
    payload_mb_per_sec: f64,
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

/// One full string streaming sort, phase-timed (pushes + flush vs finish +
/// drain).
fn stream_sort_strings_phases(
    input: &[(u64, String)],
    budget: usize,
    batch: usize,
    mode: Mode,
) -> Phases {
    let cfg = StreamConfig {
        memory_budget_bytes: budget,
        synchronous_spill: mode.sync,
        spill_compression: mode.compression,
        ..StreamConfig::default()
    };
    let mut sorter: StreamSorter<u64, String> = StreamSorter::with_config(cfg);
    let probe = ObsProbe::start();
    let spill_start = Instant::now();
    for chunk in input.chunks(batch) {
        sorter.push(chunk).expect("push failed");
    }
    sorter.flush_spills().expect("flush failed");
    let spill_secs = spill_start.elapsed().as_secs_f64();
    let runs = sorter.run_count();
    let spilled_bytes = sorter.stats().spilled_bytes;
    let spilled_raw_bytes = sorter.stats().spilled_raw_bytes;
    let merge_start = Instant::now();
    let mut last = 0u64;
    for (k, v) in sorter.finish().expect("finish failed") {
        debug_assert!(k >= last);
        last = k;
        std::hint::black_box(v.len());
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

/// Measures every mode `reps` times, interleaved (so drifting background
/// load hits all alike), returning the per-mode median-total reps and the
/// median of the per-pair pipelined-vs-synchronous speedup ratios.
fn median_modes(
    input: &[(u64, String)],
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
            mode_runs[mi].push(stream_sort_strings_phases(input, budget, batch, mode));
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
                "{{\"dist\": \"{}\", \"payload\": \"{}\", \"mode\": \"{}\", \"budget\": \"{}\", \"budget_bytes\": {}, \"runs\": {}, \"spilled_bytes\": {}, \"spilled_raw_bytes\": {}, \"comp_ratio\": {comp_ratio:.3}, \"spill_secs\": {:.6}, \"merge_secs\": {:.6}, \"secs\": {:.6}, \"records_per_sec\": {:.1}, \"payload_mb_per_sec\": {:.2}{}}}",
                json_escape(&m.dist),
                json_escape(&m.payload),
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
                m.payload_mb_per_sec,
                extra,
            )
        })
        .collect();
    write_bench_json(
        path,
        "varlen_throughput",
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
    // Strings are far heavier per record than pod values; default to a
    // smaller instance than the pod-value benches.  Checking for the flag
    // itself (not the default value) keeps an explicit `--n 10000000`
    // honest.
    let n = if std::env::args().any(|a| a == "--n") {
        args.n
    } else {
        300_000
    };
    let batch = 16 * 1024;
    // Payload-size classes: short tags, URL-ish, log-line-ish.
    let payloads = [
        ("8-16B", 8usize, 16usize),
        ("32-128B", 32, 128),
        ("256-1KiB", 256, 1024),
    ];
    let instances = vec![
        Distribution::Uniform {
            distinct: 1_000_000_000,
        },
        Distribution::Zipfian { s: 1.2 },
    ];
    println!(
        "Variable-length streaming sorter throughput — n = {n}, batch = {batch}, {} threads",
        rayon::current_num_threads()
    );
    let mut all = Vec::new();
    for dist in &instances {
        for &(plabel, min_len, max_len) in &payloads {
            let input = generate_string_pairs(dist, n, 32, 42, min_len, max_len);
            let payload_bytes: usize = input.iter().map(|(_, v)| v.len()).sum();
            let data_bytes = payload_bytes + input.len() * 12;
            println!(
                "\n=== {} · payload {plabel} ({} MiB on disk) ===",
                dist.label(),
                data_bytes >> 20
            );
            let mut table = Table::new(vec![
                "budget".to_string(),
                "mode".to_string(),
                "runs".to_string(),
                "spill MiB".to_string(),
                "spill s".to_string(),
                "sec".to_string(),
                "Mrec/s".to_string(),
                "MB/s".to_string(),
                "pipe/sync".to_string(),
            ]);
            // Pod-value baseline on the same keys: the varlen overhead is
            // the gap between this row and the in-memory string row.
            let keys: Vec<(u64, u64)> = input.iter().map(|(k, _)| (*k, 0u64)).collect();
            let base = median_time_secs(&keys, args.reps, |v| {
                let mut s: StreamSorter<u64, u64> =
                    StreamSorter::with_config(StreamConfig::with_memory_budget(8 * data_bytes));
                s.push(v).expect("push");
                for r in s.finish().expect("finish") {
                    std::hint::black_box(r);
                }
            });
            table.add_row(vec![
                "pod-keys".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                format!("{base:.4}"),
                format!("{:.2}", n as f64 / base / 1e6),
                "-".to_string(),
                "-".to_string(),
            ]);
            // From "everything in memory" down to an eighth of the dataset.
            let budgets = [
                ("mem", 8 * data_bytes),
                ("1/4", data_bytes / 4),
                ("1/8", data_bytes / 8),
            ];
            for &(blabel, budget) in &budgets {
                let (medians, ratio) = median_modes(&input, budget, batch, args.reps);
                for (mode, p) in MODES.iter().zip(&medians) {
                    let pair_ratio = (mode.name == "pipelined").then_some(ratio);
                    let ratio_cell = match pair_ratio {
                        Some(r) => format!("{r:.2}x"),
                        None => "-".to_string(),
                    };
                    let secs = p.spill_secs + p.merge_secs;
                    let rps = n as f64 / secs;
                    let mbps = payload_bytes as f64 / secs / 1e6;
                    table.add_row(vec![
                        blabel.to_string(),
                        mode.name.to_string(),
                        format!("{}", p.runs),
                        format!("{:.1}", p.spilled_bytes as f64 / (1 << 20) as f64),
                        format!("{:.4}", p.spill_secs),
                        format!("{secs:.4}"),
                        format!("{:.2}", rps / 1e6),
                        format!("{mbps:.1}"),
                        ratio_cell,
                    ]);
                    all.push(Measurement {
                        dist: dist.label(),
                        payload: plabel.to_string(),
                        mode: mode.name,
                        budget_label: blabel.to_string(),
                        budget_bytes: budget,
                        runs: p.runs,
                        spilled_bytes: p.spilled_bytes,
                        spilled_raw_bytes: p.spilled_raw_bytes,
                        spill_secs: p.spill_secs,
                        merge_secs: p.merge_secs,
                        secs,
                        records_per_sec: rps,
                        payload_mb_per_sec: mbps,
                        pipe_sync_ratio: pair_ratio,
                        obs: p.obs,
                    });
                }
            }
            table.print();
        }
    }
    all.extend(weblog_sessionization(n, batch, args.reps));
    write_json(
        "BENCH_varlen.json",
        n,
        batch,
        rayon::current_num_threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        &all,
    );
    write_obs_artifacts("varlen");
}

/// Web-log sessionization on the string-key engines: sort the log by
/// session key, and aggregate per-session payload bytes — under both
/// spill encodings, at a budget that forces heavy spilling.  The
/// prefix-heavy session keys are the reference workload for the delta/LZ
/// spill blocks, and the `comp_ratio` of these rows is the headline
/// bytes-on-disk reduction.
fn weblog_sessionization(n: usize, batch: usize, reps: usize) -> Vec<Measurement> {
    let dist = Distribution::Zipfian { s: 1.1 };
    let log = generate_weblog_records(&dist, n, 32, 42);
    let payload_bytes: usize = log.iter().map(|(k, v)| k.len() + v.len()).sum();
    let budget = (payload_bytes / 8).max(64 << 10);
    println!(
        "\n=== web-log sessionization · {} sessions keyed by string ({} MiB of log) ===",
        log.iter()
            .map(|(k, _)| k)
            .collect::<std::collections::HashSet<_>>()
            .len(),
        payload_bytes >> 20
    );
    let mut table = Table::new(vec![
        "job".to_string(),
        "mode".to_string(),
        "runs".to_string(),
        "spill MiB".to_string(),
        "comp".to_string(),
        "sec".to_string(),
        "Mrec/s".to_string(),
        "MB/s".to_string(),
    ]);
    let modes = [
        ("pipelined", SpillCompression::Off),
        ("compressed", SpillCompression::DeltaLz),
    ];
    let cfg = |compression| StreamConfig {
        memory_budget_bytes: budget,
        spill_compression: compression,
        ..StreamConfig::default()
    };
    let mut rows = Vec::new();
    for (job, runner) in [
        ("sort", true),   // sort the raw log by session key
        ("group", false), // per-session byte totals
    ] {
        for &(mode, compression) in &modes {
            let reps = reps.max(1);
            let mut timed: Vec<(f64, usize, u64, u64)> = (0..reps)
                .map(|_| {
                    let start = Instant::now();
                    let (runs, bytes, raw) = if runner {
                        let mut s: StringStreamSorter<String, String> =
                            StringStreamSorter::with_config(cfg(compression));
                        for chunk in log.chunks(batch) {
                            s.push(chunk).expect("push failed");
                        }
                        let st = (
                            s.stats().spilled_runs,
                            s.stats().spilled_bytes,
                            s.stats().spilled_raw_bytes,
                        );
                        for (k, v) in s.finish().expect("finish failed") {
                            std::hint::black_box((k.len(), v.len()));
                        }
                        st
                    } else {
                        let mut g: StringStreamGroupBy<String, SumAgg> =
                            StringStreamGroupBy::with_config(SumAgg, cfg(compression));
                        for (k, v) in &log {
                            g.push_record(k.clone(), v.len() as u64)
                                .expect("push failed");
                        }
                        let st = (
                            g.stats().spilled_runs,
                            g.stats().spilled_bytes,
                            g.stats().spilled_raw_bytes,
                        );
                        for (k, total) in g.finish().expect("finish failed") {
                            std::hint::black_box((k.len(), total));
                        }
                        st
                    };
                    (start.elapsed().as_secs_f64(), runs, bytes, raw)
                })
                .collect();
            timed.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let (secs, runs, spilled_bytes, spilled_raw_bytes) = timed[timed.len() / 2];
            let rps = n as f64 / secs;
            let mbps = payload_bytes as f64 / secs / 1e6;
            let comp_cell = if spilled_bytes > 0 && spilled_raw_bytes != spilled_bytes {
                format!("{:.2}x", spilled_raw_bytes as f64 / spilled_bytes as f64)
            } else {
                "-".to_string()
            };
            table.add_row(vec![
                job.to_string(),
                mode.to_string(),
                format!("{runs}"),
                format!("{:.1}", spilled_bytes as f64 / (1 << 20) as f64),
                comp_cell,
                format!("{secs:.4}"),
                format!("{:.2}", rps / 1e6),
                format!("{mbps:.1}"),
            ]);
            rows.push(Measurement {
                dist: "weblog-zipf-1.1".to_string(),
                payload: format!("weblog-{job}"),
                mode,
                budget_label: "1/8".to_string(),
                budget_bytes: budget,
                runs,
                spilled_bytes,
                spilled_raw_bytes,
                spill_secs: 0.0,
                merge_secs: 0.0,
                secs,
                records_per_sec: rps,
                payload_mb_per_sec: mbps,
                pipe_sync_ratio: None,
                obs: ObsPhaseDeltas::default(),
            });
        }
    }
    table.print();
    rows
}

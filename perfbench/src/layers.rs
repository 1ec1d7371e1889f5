//! Per-layer metrics of a traced run, all measured from outside: timed
//! calls into each crate's public functions, `dtsort`'s `SortStats`, and
//! deltas of the `obs` registry the library already records into.

use crate::report::{median, metric, Metric};
use crate::runner::LoopResult;
use crate::workload::{self, elapsed_ns, input_seed, OpTrace, Workload, N_DISTINCT, N_DUP};
use dtsort::verify::check_sorted_by;
use dtsort::SortConfig;
use obs::MetricsSnapshot;
use std::path::Path;
use std::time::{Duration, Instant};

/// Repetitions of every probe and of the `SortStats` collection.
const REPS: usize = 5;

/// The library calls the workloads time, each reported as the median
/// per-op time spent in it (0 where a workload never makes the call).
const CALLS: [&str; 8] = [
    "core.sort_pairs",
    "stream.push",
    "stream.finish",
    "stream.drain",
    "server.admit",
    "server.push",
    "server.finish",
    "server.drain",
];

fn call_ns(t: &OpTrace, name: &str) -> u64 {
    t.calls
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, ns)| *ns)
}

/// Metrics of the traced closed loop: per-call medians, the unattributed
/// remainder, the tracing overhead and the registry deltas per op.
pub fn loop_metrics(
    untraced: &LoopResult,
    traced: &LoopResult,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let per_op_ms = |f: &dyn Fn(&OpTrace) -> u64| -> f64 {
        let v: Vec<f64> = traced
            .samples
            .iter()
            .map(|s| f(&s.trace) as f64 / 1e6)
            .collect();
        median(&v)
    };
    for name in CALLS {
        out.push(metric(
            format!("{name}_ms"),
            per_op_ms(&|t| call_ns(t, name)),
            "ms",
        ));
    }
    out.push(metric(
        "unattributed_ms",
        per_op_ms(&|t| {
            let attributed: u64 = t.calls.iter().map(|(_, ns)| ns).sum();
            t.op_ns.saturating_sub(attributed)
        }),
        "ms",
    ));
    out.push(metric(
        "obs.trace_overhead",
        median(&traced.op_ms()) / median(&untraced.op_ms()),
        "ratio",
    ));

    // The registry deltas cover every traced op, the warm-up included.
    let ops = traced.attempted.max(1) as f64;
    let counter = |name: &str| after.counter(name).saturating_sub(before.counter(name)) as f64;
    let hist = |name: &str| {
        after
            .histogram_sum(name)
            .saturating_sub(before.histogram_sum(name)) as f64
    };
    let records_per_op = traced.samples.first().map_or(1, |s| s.records) as f64;
    out.push(metric(
        "pool.parks",
        counter("pool.parks") / ops,
        "count/op",
    ));
    out.push(metric(
        "pool.wakes",
        counter("pool.wakes") / ops,
        "count/op",
    ));
    out.push(metric(
        "stream.spilled_runs",
        counter("stream.spilled_runs") / ops,
        "count/op",
    ));
    out.push(metric(
        "stream.spilled_bytes_per_rec",
        counter("stream.spilled_bytes") / (ops * records_per_op),
        "B/rec",
    ));
    out.push(metric(
        "stream.spill_retries",
        counter("spill.retries") / ops,
        "count/op",
    ));
    out.push(metric(
        "stream.degraded_syncs",
        counter("spill.degraded_syncs") / ops,
        "count/op",
    ));
    for name in [
        "spill.write_ns",
        "spill.fsync_ns",
        "spill.backpressure_ns",
        "prefetch.stall_ns",
        "prefetch.refill_ns",
        "stream.sort_ns",
    ] {
        out.push(metric(name, hist(name) / ops, "ns/op"));
    }
    let sessions = counter("server.sessions_opened");
    out.push(metric(
        "server.reclaims_per_session",
        if sessions > 0.0 {
            counter("governor.reclaims") / sessions
        } else {
            0.0
        },
        "count/op",
    ));
    out.push(metric(
        "server.sessions_failed",
        counter("server.sessions_failed"),
        "count",
    ));
    out
}

/// `dtsort` counters over the workload's own inputs.  The counts come from
/// the first repetition; `repeat_exactly` is false if a later one differed.
pub struct CoreStats {
    pub metrics: Vec<Metric>,
    pub repeat_exactly: bool,
}

pub fn core_stats(w: &dyn Workload) -> CoreStats {
    let cfg = SortConfig::default();
    let runs: Vec<_> = (0..REPS).map(|_| w.core_stats(&cfg)).collect();
    let (first, n) = runs[0];
    let same_counts = |s: &dtsort::StatsSnapshot| {
        let timeless = |s: &dtsort::StatsSnapshot| dtsort::StatsSnapshot {
            root_sample_time: Duration::ZERO,
            root_distribute_time: Duration::ZERO,
            root_recurse_time: Duration::ZERO,
            root_merge_time: Duration::ZERO,
            ..*s
        };
        timeless(s) == timeless(&first)
    };
    let repeat_exactly = runs.iter().all(|(s, _)| same_counts(s));
    let root_ms = |f: fn(&dtsort::StatsSnapshot) -> Duration| {
        let v: Vec<f64> = runs.iter().map(|(s, _)| f(s).as_secs_f64() * 1e3).collect();
        median(&v)
    };
    let count = |name: &str, v: u64| metric(name, v as f64, "count");
    let metrics = vec![
        count("core.heavy_records", first.heavy_records),
        count("core.heavy_keys", first.heavy_keys),
        count("core.distributed_records", first.distributed_records),
        count("core.merged_records", first.merged_records),
        count("core.base_case_calls", first.base_case_calls),
        count("core.base_case_records", first.base_case_records),
        count("core.recursive_calls", first.recursive_calls),
        count("core.max_depth", first.max_depth),
        metric(
            "core.records_moved_per_rec",
            first.records_moved() as f64 / n.max(1) as f64,
            "ratio",
        ),
        metric("core.root_sample_ms", root_ms(|s| s.root_sample_time), "ms"),
        metric(
            "core.root_distribute_ms",
            root_ms(|s| s.root_distribute_time),
            "ms",
        ),
        metric(
            "core.root_recurse_ms",
            root_ms(|s| s.root_recurse_time),
            "ms",
        ),
        metric("core.root_merge_ms", root_ms(|s| s.root_merge_time), "ms"),
    ];
    CoreStats {
        metrics,
        repeat_exactly,
    }
}

fn expect(errors: &mut Vec<String>, label: &str, sorted: bool) {
    if !sorted {
        errors.push(format!("probe {label}: output not sorted"));
    }
}

fn time_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    elapsed_ns(start) as f64 / 1e6
}

/// Fixed-input probes, the same on every workload: one timed call per
/// input and repetition, reported as medians.  Returns the metrics and the
/// probe outputs that came back unsorted or failed.
pub fn probes(seed: u64, spill_dir: &Path) -> (Vec<Metric>, Vec<String>) {
    let mut out = Vec::new();
    let mut errors = Vec::new();

    let (mut dt_sum, mut lsd_sum, mut plain_sum, mut counting_sum) = (0.0, 0.0, 0.0, 0.0);
    let mut lsd = Vec::new();
    for (i, (label, dist)) in workload::dup_dists().into_iter().enumerate() {
        let input = workloads::generate_pairs_u32(&dist, N_DUP, input_seed(seed, i as u64));
        let mut buf = input.clone();
        let (mut dt, mut plain, mut base, mut counting) = (vec![], vec![], vec![], vec![]);
        for _ in 0..REPS {
            buf.copy_from_slice(&input);
            dt.push(time_ms(|| dtsort::sort_pairs(&mut buf)));
            expect(&mut errors, label, check_sorted_by(&buf, |r| r.0).is_ok());
            buf.copy_from_slice(&input);
            let plain_cfg = SortConfig::plain();
            plain.push(time_ms(|| dtsort::sort_pairs_with(&mut buf, &plain_cfg)));
            expect(&mut errors, label, check_sorted_by(&buf, |r| r.0).is_ok());
            buf.copy_from_slice(&input);
            base.push(time_ms(|| baselines::lsd::sort_pairs(&mut buf)));
            expect(&mut errors, label, check_sorted_by(&buf, |r| r.0).is_ok());
            counting.push(time_ms(|| {
                parlay::counting_sort::counting_sort_by(&input, &mut buf, 256, |r| {
                    (r.0 >> 24) as usize
                });
            }));
            expect(
                &mut errors,
                label,
                check_sorted_by(&buf, |r| r.0 >> 24).is_ok(),
            );
        }
        let (dt, plain, base, counting) = (
            median(&dt),
            median(&plain),
            median(&base),
            median(&counting),
        );
        out.push(metric(format!("core.sort_ms.{label}"), dt, "ms"));
        lsd.push(metric(format!("ref.lsd_ms.{label}"), base, "ms"));
        dt_sum += dt;
        plain_sum += plain;
        lsd_sum += base;
        counting_sum += counting;
    }

    let input =
        workloads::generate_pairs_u64(&workload::distinct_dist(), N_DISTINCT, input_seed(seed, 3));
    let cfg = workload::stream_fit_config(input.len(), spill_dir);
    let mut buf = input.clone();
    let mut streamed = Vec::with_capacity(input.len());
    let (mut raw, mut cycle) = (vec![], vec![]);
    for _ in 0..REPS {
        buf.copy_from_slice(&input);
        raw.push(time_ms(|| dtsort::sort_pairs(&mut buf)));
        expect(
            &mut errors,
            "unif2e40",
            check_sorted_by(&buf, |r| r.0).is_ok(),
        );
        streamed.clear();
        let mut trace = OpTrace::default();
        let mut result = Ok(());
        cycle.push(time_ms(|| {
            result = workload::stream_cycle(&input, &cfg, &mut streamed, &mut trace)
        }));
        match result {
            Ok(()) => expect(&mut errors, "stream cycle", streamed == buf),
            Err(e) => errors.push(format!("probe stream cycle: {e}")),
        }
    }
    out.push(metric("core.sort_ms.unif2e40", median(&raw), "ms"));
    out.extend(lsd);
    out.push(metric("core.gap_to_lsd", dt_sum / lsd_sum, "ratio"));
    out.push(metric("core.heavy_off_ratio", plain_sum / dt_sum, "ratio"));
    out.push(metric("parlay.counting_sort_ms", counting_sum, "ms"));
    out.push(metric(
        "stream.mem_overhead_ratio",
        median(&cycle) / median(&raw),
        "ratio",
    ));
    (out, errors)
}

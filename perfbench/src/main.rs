//! The pisort benchmark: one workload per run, as a closed loop of verified
//! ops, printing its end-to-end metrics or (with `--trace 1`) its per-layer
//! metrics and a chrome trace.
//!
//! ```text
//! perfbench --workload <inmem-dup|stream-fit|service-spill> --seed <n>
//!           --seconds <s> --trace <0|1> [--run-dir <dir>] [--commit <sha>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.  The process exits with
//! code 1 when any op failed or any output was rejected.

mod layers;
mod report;
mod runner;
mod verify;
mod workload;

use report::{median, metric, quantile, Metric};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    run_dir: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        run_dir: PathBuf::from(".bench_run"),
        commit: "unknown".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--run-dir" => args.run_dir = PathBuf::from(value),
            "--commit" => args.commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workload::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            workload::NAMES,
            args.workload
        ));
    }
    Ok(args)
}

/// Sets the workload up and warms the pool with a small parallel sort.
fn setup(args: &Args) -> std::io::Result<(Box<dyn workload::Workload>, f64)> {
    let start = Instant::now();
    let w = workload::setup(&args.workload, args.seed, &args.run_dir)?;
    let mut warm: Vec<(u32, u32)> = (0..100_000u32)
        .map(|i| (i.wrapping_mul(2_654_435_761), i))
        .collect();
    dtsort::sort_pairs(&mut warm);
    Ok((w, start.elapsed().as_secs_f64()))
}

/// The facts every result row carries.
fn row_json(args: &Args, w: &dyn workload::Workload, ops: usize) -> String {
    let shape = w.shape();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"ops\": {ops}, \
         \"host_cpus\": {}, \"pool_threads\": {}, \"client_threads\": {}, \
         \"n_per_input\": {}, \"inputs\": {}, \"input_bytes\": {}, \
         \"l2_bytes\": {}, \"l3_bytes\": {}, \"git_commit\": {}}}",
        report::json_str(&args.workload),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        report::host_cpus(),
        rayon::current_num_threads(),
        w.clients(),
        shape.n_per_input,
        shape.inputs,
        shape.input_bytes,
        report::cache_bytes(2),
        report::cache_bytes(3),
        report::json_str(&args.commit),
    )
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn print_errors(errors: &[String]) {
    for e in errors {
        eprintln!("perfbench: failed: {e}");
    }
}

/// Untraced run: `SETUP_REPS` set-ups, then the measured closed loop.
fn run_untraced(args: &Args) -> std::io::Result<bool> {
    let mut setups = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        drop(workload.take());
        let (w, secs) = setup(args)?;
        setups.push(secs);
        workload = Some(w);
    }
    let w = workload.expect("at least one set-up ran");
    let res = runner::closed_loop(w.as_ref(), args.seconds);
    let leaks = w.leaks();
    let attempted = res.attempted + 1;
    let failed = res.failed + u64::from(!leaks.is_empty());
    let ops_ms = res.op_ms();
    let metrics = vec![
        metric("throughput_mrec_s", res.throughput_mrec_s(), "Mrec/s"),
        metric("op_p50_ms", median(&ops_ms), "ms"),
        metric("op_p90_ms", quantile(&ops_ms, 0.9), "ms"),
        metric(
            "ok_rate",
            (attempted - failed) as f64 / attempted as f64,
            "ratio",
        ),
        metric(
            "peak_rss_mb",
            report::proc_status_kb("VmHWM") as f64 * 1024.0 / 1e6,
            "MB",
        ),
        metric("setup_s", median(&setups), "s"),
    ];
    println!("row: {}", row_json(args, w.as_ref(), ops_ms.len()));
    print_metrics(&metrics);
    println!(
        "  {:<32} {:>16.4} ratio ({failed} of {attempted} ops failed; op latencies over {} ops)",
        "error_rate",
        failed as f64 / attempted as f64,
        ops_ms.len()
    );
    print_errors(&res.errors);
    print_errors(&leaks);
    let correct = failed == 0 && !ops_ms.is_empty();
    println!(
        "{}",
        report::result_json(correct, attempted, failed, &metrics)
    );
    Ok(correct)
}

/// Traced run: half the time untraced, half traced, then the `SortStats`
/// collection and the fixed-input probes.
fn run_traced(args: &Args) -> std::io::Result<bool> {
    let (w, _) = setup(args)?;
    let half = args.seconds / 2.0;
    let untraced = runner::closed_loop(w.as_ref(), half);

    obs::enable();
    let _ = obs::drain_spans();
    let before = obs::global().snapshot();
    let traced = runner::closed_loop(w.as_ref(), half);
    let after = obs::global().snapshot();
    let (spans, lost) = obs::drain_spans();
    obs::disable();

    let mut errors: Vec<String> = untraced
        .errors
        .iter()
        .chain(&traced.errors)
        .cloned()
        .collect();
    let leaks = w.leaks();
    let mut attempted = untraced.attempted + traced.attempted + 1;
    let mut failed = untraced.failed + traced.failed + u64::from(!leaks.is_empty());
    errors.extend(leaks);

    let mut metrics = layers::loop_metrics(&untraced, &traced, &before, &after);
    let core = layers::core_stats(w.as_ref());
    if !core.repeat_exactly {
        eprintln!("perfbench: warning: dtsort counters differed between repetitions");
    }
    metrics.extend(core.metrics);
    let row = row_json(args, w.as_ref(), traced.samples.len());
    drop(w);

    let probe_dir = args
        .run_dir
        .join(format!("spill-probe-{}", std::process::id()));
    std::fs::create_dir_all(&probe_dir)?;
    let (probe_metrics, probe_errors) = layers::probes(args.seed, &probe_dir);
    attempted += 1;
    failed += u64::from(!probe_errors.is_empty());
    errors.extend(probe_errors);
    std::fs::remove_dir(&probe_dir)?;
    metrics.extend(probe_metrics);

    let trace_path = args
        .run_dir
        .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    obs::write_chrome_trace(&trace_path, &spans)?;

    println!("row: {row}");
    println!(
        "chrome trace: {} ({} spans, {lost} lost to ring overflow)",
        trace_path.display(),
        spans.len()
    );
    print_metrics(&metrics);
    print_errors(&errors);
    let correct = failed == 0 && !traced.samples.is_empty();
    println!(
        "{}",
        report::result_json(correct, attempted, failed, &metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Tracing is decided by --trace alone, never by the environment.
    obs::disable();
    rayon::ThreadPoolBuilder::new()
        .num_threads(report::host_cpus())
        .build_global()
        .expect("the pool is built before any parallel call");
    if let Err(e) = std::fs::create_dir_all(&args.run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.run_dir.display());
        return ExitCode::from(2);
    }
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let run = if args.trace { run_traced } else { run_untraced };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

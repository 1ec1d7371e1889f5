//! Session-completion latency of the multi-session sort service
//! (`server::SortServer`) under hundreds of interleaved bursty clients.
//!
//! A fixed population of client sessions (each a full open → push bursts →
//! finish → drain cycle over `workloads::batches`) is driven by a pool of
//! client threads at two **client-concurrency levels** (1 and 4 by
//! default).  The governor's global ceiling is sized so that concurrent
//! sessions crowd each other: every admission reclaims budget from the
//! live grants, the engines react by spilling early, and the per-session
//! completion latency absorbs both the contention and the shared
//! work-stealing pool.  Each row reports the p50 / p99 / mean session
//! latency at one concurrency level, plus total throughput, governor
//! reclaim count and durable spill volume — the service-level view the
//! per-engine throughput figures (`fig_stream_throughput`) cannot see.
//!
//! Results are appended as machine-readable JSON to `BENCH_server.json`
//! in the current directory so successive PRs can track the trajectory.
//!
//! Usage: `cargo run -p bench --release --bin fig_server_latency -- [--n 2e6] [--reps 3]`

use bench::{write_bench_json, write_obs_artifacts, Args, Table};
use dtsort::StreamConfig;
use server::{AdmissionPolicy, GovernorConfig, ServerConfig, SortServer, SpillManagerConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use workloads::dist::Distribution;

/// Client-thread counts of the measurement matrix.
const CLIENT_LEVELS: [usize; 2] = [1, 4];
/// Total sessions per measured run ("hundreds of clients").
const SESSIONS: usize = 200;

/// The session mix: each client cycles through these distributions, so
/// every concurrency level sees the same blend of uniform, skewed and
/// duplicate-heavy streams.
fn session_dists() -> Vec<Distribution> {
    vec![
        Distribution::Uniform {
            distinct: 1_000_000_000,
        },
        Distribution::Zipfian { s: 1.2 },
        Distribution::Uniform { distinct: 100 },
    ]
}

struct LevelResult {
    clients: usize,
    p50_ms: f64,
    p99_ms: f64,
    mean_ms: f64,
    total_secs: f64,
    records_per_sec: f64,
    reclaims: u64,
    spilled_bytes: u64,
}

fn percentile_ms(sorted_ns: &[u64], q: f64) -> f64 {
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx] as f64 / 1e6
}

/// One full client session: open, push the batch stream in bursts, finish
/// and drain.  Returns (latency, spilled bytes).
fn run_session(
    server: &SortServer,
    id: usize,
    per_session: usize,
    batch: usize,
    request_bytes: usize,
    dists: &[Distribution],
) -> (u64, u64) {
    let dist = &dists[id % dists.len()];
    let start = Instant::now();
    let mut session = server
        .open_sort::<u32, u32>(&format!("client-{}", id % 16), request_bytes)
        .expect("admission failed");
    for (i, chunk) in
        workloads::batches::batches_u32(dist, per_session, batch, id as u64).enumerate()
    {
        session.push(&chunk).expect("push failed");
        // Bursty arrival: yield between bursts so concurrent clients
        // interleave at batch granularity rather than running to completion.
        if i % 2 == 1 {
            std::thread::yield_now();
        }
    }
    let spilled = session.stats().spilled_bytes;
    let mut last = 0u32;
    let mut n = 0usize;
    for (k, _) in session.finish().expect("finish failed") {
        debug_assert!(k >= last);
        last = k;
        n += 1;
    }
    assert_eq!(n, per_session, "session {id} lost records");
    (start.elapsed().as_nanos() as u64, spilled)
}

/// Runs the whole session population at one client-concurrency level and
/// returns the per-session latency distribution.
fn run_level(clients: usize, per_session: usize, batch: usize) -> LevelResult {
    let record_bytes = std::mem::size_of::<(u32, u32)>();
    let session_bytes = per_session * record_bytes;
    // Sized for contention: a lone session is granted its full request, but
    // a crowd shares ~2.5 sessions' worth — every admission past the second
    // reclaims budget from the live grants.
    let request_bytes = session_bytes.max(32 << 10);
    let floor = (session_bytes / 8).clamp(16 << 10, request_bytes);
    let global = (request_bytes * 5 / 2).max(8 * floor);
    let server = SortServer::new(ServerConfig {
        governor: GovernorConfig {
            global_budget_bytes: global,
            session_floor_bytes: floor,
            admission: AdmissionPolicy::Queue,
        },
        spill: SpillManagerConfig::default(),
        base: StreamConfig::default(),
    })
    .expect("server construction failed");

    let dists = session_dists();
    let next = AtomicUsize::new(0);
    let samples: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::with_capacity(SESSIONS));
    let wall = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let id = next.fetch_add(1, Ordering::Relaxed);
                if id >= SESSIONS {
                    break;
                }
                let sample = run_session(&server, id, per_session, batch, request_bytes, &dists);
                samples.lock().unwrap().push(sample);
            });
        }
    });
    let total_secs = wall.elapsed().as_secs_f64();
    let (mut lat_ns, spilled): (Vec<u64>, Vec<u64>) =
        samples.into_inner().unwrap().into_iter().unzip();
    lat_ns.sort_unstable();
    let mean_ms = lat_ns.iter().sum::<u64>() as f64 / lat_ns.len() as f64 / 1e6;
    LevelResult {
        clients,
        p50_ms: percentile_ms(&lat_ns, 0.50),
        p99_ms: percentile_ms(&lat_ns, 0.99),
        mean_ms,
        total_secs,
        records_per_sec: (SESSIONS * per_session) as f64 / total_secs,
        reclaims: server.governor().reclaims(),
        spilled_bytes: spilled.iter().sum(),
    }
}

fn write_json(
    path: &str,
    n: usize,
    per_session: usize,
    threads: usize,
    host_cpus: usize,
    rows: &[LevelResult],
) {
    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"clients\": {}, \"sessions\": {SESSIONS}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \"mean_ms\": {:.4}, \"total_secs\": {:.4}, \"records_per_sec\": {:.1}, \"reclaims\": {}, \"spilled_bytes\": {}}}",
                r.clients, r.p50_ms, r.p99_ms, r.mean_ms, r.total_secs, r.records_per_sec,
                r.reclaims, r.spilled_bytes,
            )
        })
        .collect();
    write_bench_json(
        path,
        "server_latency",
        &[
            ("n", n.to_string()),
            ("sessions", SESSIONS.to_string()),
            ("per_session", per_session.to_string()),
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
    // explicit `--n 2000000` honest.
    let n = if std::env::args().any(|a| a == "--n") {
        args.n
    } else {
        2_000_000
    };
    let per_session = (n / SESSIONS).max(1);
    let batch = (per_session / 8).max(256);
    println!(
        "Sort-service session latency — {SESSIONS} sessions × {per_session} records, batch = {batch}, {} pool threads",
        rayon::current_num_threads()
    );
    let mut table = Table::new(vec![
        "clients".to_string(),
        "p50 ms".to_string(),
        "p99 ms".to_string(),
        "mean ms".to_string(),
        "total s".to_string(),
        "Mrec/s".to_string(),
        "reclaims".to_string(),
        "spill MiB".to_string(),
    ]);
    let mut rows = Vec::new();
    for &clients in &CLIENT_LEVELS {
        // Median-total rep: interleaving reps per level would thrash the
        // governor meters, so each rep is a fresh server.
        let mut reps: Vec<LevelResult> = (0..args.reps.max(1))
            .map(|_| run_level(clients, per_session, batch))
            .collect();
        reps.sort_by(|a, b| a.total_secs.partial_cmp(&b.total_secs).unwrap());
        let r = reps.swap_remove(reps.len() / 2);
        table.add_row(vec![
            format!("{}", r.clients),
            format!("{:.2}", r.p50_ms),
            format!("{:.2}", r.p99_ms),
            format!("{:.2}", r.mean_ms),
            format!("{:.3}", r.total_secs),
            format!("{:.2}", r.records_per_sec / 1e6),
            format!("{}", r.reclaims),
            format!("{:.1}", r.spilled_bytes as f64 / (1 << 20) as f64),
        ]);
        rows.push(r);
    }
    table.print();
    write_json(
        "BENCH_server.json",
        n,
        per_session,
        rayon::current_num_threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        &rows,
    );
    write_obs_artifacts("server");
}

//! The three workloads, each a closed loop of verified ops.
//!
//! * `inmem-dup` — one op sorts three duplicate-heavy inputs with
//!   `dtsort::sort_pairs`, so heavy-key detection and the dovetail merge
//!   carry the work.
//! * `stream-fit` — one op is a full `StreamSorter` cycle over near-distinct
//!   keys with a budget of 8× the data: nothing spills and sampling finds no
//!   heavy key, so the heavy path is bypassed.
//! * `service-spill` — one op is a `SortServer` session whose grant is below
//!   its data, so every session spills, and two clients make admissions
//!   reclaim from each other.
//!
//! Inputs are generated from the seed at set-up; the library only sees the
//! generated records.  Every value is its record's input position, so
//! `verify` can check order, stability and completeness.

use crate::verify::{self, Mismatch};
use dtsort::{SortConfig, SpillIoMode, StatsSnapshot, StreamConfig};
use server::{AdmissionPolicy, GovernorConfig, ServerConfig, SortServer, SpillManagerConfig};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;
use stream::StreamSorter;
use workloads::Distribution;

pub const NAMES: [&str; 3] = ["inmem-dup", "stream-fit", "service-spill"];

// Sizes keep an op near 100 ms, so a 30-second run holds a few hundred
// ops and its p90 rests on dozens of samples, while every input stays
// beyond the 2 MiB per-core L2.

/// Records per `inmem-dup` input: 4 MB of pairs.
pub const N_DUP: usize = 500_000;
/// Records of the `stream-fit` input: 16 MB of pairs.
pub const N_DISTINCT: usize = 1_000_000;
/// Records per `service-spill` session.
pub const N_SESSION: usize = 400_000;
/// `stream-fit` push batch: 64 Ki records.
const STREAM_BATCH: usize = 1 << 16;
/// `service-spill` push batch.
const SESSION_BATCH: usize = N_SESSION / 8;
/// Distinct `service-spill` session inputs (the mix, twice over).
const SESSION_INPUTS: usize = 6;

/// The three duplicate-heavy inputs of `inmem-dup`.
pub fn dup_dists() -> [(&'static str, Distribution); 3] {
    [
        ("zipf1", Distribution::Zipfian { s: 1.0 }),
        ("bexp10", Distribution::BitExponential { t: 10.0 }),
        ("unif1e3", Distribution::Uniform { distinct: 1000 }),
    ]
}

/// The near-distinct `stream-fit` input distribution (Unif-2^40).
pub fn distinct_dist() -> Distribution {
    Distribution::Uniform { distinct: 1 << 40 }
}

/// The `service-spill` session mix.
fn session_dists() -> [Distribution; 3] {
    [
        Distribution::Uniform {
            distinct: 1_000_000_000,
        },
        Distribution::Zipfian { s: 1.2 },
        Distribution::Uniform { distinct: 100 },
    ]
}

/// Seed of input `index` of a workload run at `seed` (splitmix64).
pub fn input_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Time spent inside each timed library call of one op, plus the op's own
/// wall time.  Every timed region is also an `obs` span, so a traced run's
/// chrome trace shows the same boundaries.
#[derive(Debug, Default)]
pub struct OpTrace {
    pub op_ns: u64,
    pub calls: Vec<(&'static str, u64)>,
}

impl OpTrace {
    /// Runs `f` as the op's timed region.
    pub fn op<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let _span = obs::span!("op");
        let start = Instant::now();
        let r = f(self);
        self.op_ns = elapsed_ns(start);
        r
    }

    /// Runs `f` as one call into a library layer, adding its time to `name`.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _span = obs::span!(name);
        let start = Instant::now();
        let r = f();
        let ns = elapsed_ns(start);
        match self.calls.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += ns,
            None => self.calls.push((name, ns)),
        }
        r
    }
}

pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One verified op.
#[derive(Debug)]
pub struct OpSample {
    pub records: u64,
    pub trace: OpTrace,
}

/// Why an op failed: a library error or a rejected output.
pub type OpError = String;

/// Where a workload's records came from, for the result row.
pub struct InputShape {
    pub n_per_input: usize,
    pub inputs: usize,
    pub input_bytes: usize,
}

pub trait Workload: Sync {
    /// Client threads of the closed loop.
    fn clients(&self) -> usize;
    /// Runs op number `iter` of `client`: the timed op, then (untimed) the
    /// verification of its output.
    fn op(&self, client: usize, iter: usize) -> Result<OpSample, OpError>;
    fn shape(&self) -> InputShape;
    /// `dtsort` counters over this workload's own inputs, summed per
    /// input (`max_depth` is the maximum), plus the records sorted.
    fn core_stats(&self, cfg: &SortConfig) -> (StatsSnapshot, u64);
    /// State the run left behind that it should not have (spill files,
    /// live grants), one message each.
    fn leaks(&self) -> Vec<String>;
}

/// A `(key, input position)` input and its stable-sort reference.
struct Case<K, V> {
    input: Vec<(K, V)>,
    reference: Vec<(K, V)>,
}

impl<K: Ord + Copy, V: Ord + Copy> Case<K, V> {
    fn new(input: Vec<(K, V)>) -> Self {
        let reference = verify::reference(&input);
        Self { input, reference }
    }
}

fn check_output<K, V>(out: &[(K, V)], case: &Case<K, V>, label: &str) -> Result<(), OpError>
where
    K: Ord + Copy + Send + Sync,
    V: Ord + Copy + Sync,
{
    verify::check(out, &case.reference).map_err(|m: Mismatch| format!("{label}: {m}"))
}

fn stats_over<K: dtsort::IntegerKey, V: Copy + Send + Sync>(
    inputs: impl IntoIterator<Item = Vec<(K, V)>>,
    cfg: &SortConfig,
) -> (StatsSnapshot, u64) {
    let mut total = StatsSnapshot::default();
    let mut n = 0;
    for mut data in inputs {
        n += data.len() as u64;
        let s = dtsort::sort_pairs_with_stats(&mut data, cfg);
        total.recursive_calls += s.recursive_calls;
        total.base_case_calls += s.base_case_calls;
        total.base_case_records += s.base_case_records;
        total.heavy_keys += s.heavy_keys;
        total.heavy_records += s.heavy_records;
        total.overflow_records += s.overflow_records;
        total.distributed_records += s.distributed_records;
        total.merged_records += s.merged_records;
        total.samples_drawn += s.samples_drawn;
        total.max_depth = total.max_depth.max(s.max_depth);
        total.root_sample_time += s.root_sample_time;
        total.root_distribute_time += s.root_distribute_time;
        total.root_recurse_time += s.root_recurse_time;
        total.root_merge_time += s.root_merge_time;
    }
    (total, n)
}

/// Files and directories left under `dir`.
fn dir_leaks(dir: &Path) -> Vec<String> {
    match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .flatten()
            .map(|e| format!("spill file left behind: {}", e.path().display()))
            .collect(),
        Err(e) => vec![format!("spill root {} unreadable: {e}", dir.display())],
    }
}

// ---------------------------------------------------------------------------

pub struct InmemDup {
    cases: Vec<(&'static str, Case<u32, u32>)>,
    /// The single client's working copies, reused across ops.
    work: Mutex<Vec<Vec<(u32, u32)>>>,
}

impl InmemDup {
    pub fn setup(seed: u64) -> Self {
        let cases: Vec<_> = dup_dists()
            .into_iter()
            .enumerate()
            .map(|(i, (label, dist))| {
                let input = workloads::generate_pairs_u32(&dist, N_DUP, input_seed(seed, i as u64));
                (label, Case::new(input))
            })
            .collect();
        let work = cases.iter().map(|(_, c)| c.input.clone()).collect();
        Self {
            cases,
            work: Mutex::new(work),
        }
    }
}

impl Workload for InmemDup {
    fn clients(&self) -> usize {
        1
    }

    fn op(&self, _client: usize, _iter: usize) -> Result<OpSample, OpError> {
        let mut work = self
            .work
            .lock()
            .expect("no op panicked holding the buffers");
        for (buf, (_, case)) in work.iter_mut().zip(&self.cases) {
            buf.copy_from_slice(&case.input);
        }
        let mut trace = OpTrace::default();
        trace.op(|t| {
            for buf in work.iter_mut() {
                t.call("core.sort_pairs", || dtsort::sort_pairs(buf));
            }
        });
        for (buf, (label, case)) in work.iter().zip(&self.cases) {
            check_output(buf, case, label)?;
        }
        Ok(OpSample {
            records: (N_DUP * self.cases.len()) as u64,
            trace,
        })
    }

    fn shape(&self) -> InputShape {
        InputShape {
            n_per_input: N_DUP,
            inputs: self.cases.len(),
            input_bytes: N_DUP * std::mem::size_of::<(u32, u32)>(),
        }
    }

    fn core_stats(&self, cfg: &SortConfig) -> (StatsSnapshot, u64) {
        stats_over(self.cases.iter().map(|(_, c)| c.input.clone()), cfg)
    }

    fn leaks(&self) -> Vec<String> {
        Vec::new()
    }
}

// ---------------------------------------------------------------------------

pub struct StreamFit {
    case: Case<u64, u64>,
    cfg: StreamConfig,
    spill_dir: PathBuf,
    out: Mutex<Vec<(u64, u64)>>,
}

/// The `stream-fit` engine config: a budget of 8× the data, so the run
/// buffer holds every record and nothing spills.
pub fn stream_fit_config(records: usize, spill_dir: &Path) -> StreamConfig {
    let mut cfg = StreamConfig::with_memory_budget(8 * records * std::mem::size_of::<(u64, u64)>());
    cfg.spill_dir = Some(spill_dir.to_path_buf());
    cfg.spill_io = SpillIoMode::Blocking;
    cfg
}

/// One full streaming cycle: push in 64 Ki-record batches, finish, drain
/// into `out`.
pub fn stream_cycle(
    input: &[(u64, u64)],
    cfg: &StreamConfig,
    out: &mut Vec<(u64, u64)>,
    t: &mut OpTrace,
) -> std::io::Result<()> {
    let mut sorter = StreamSorter::<u64, u64>::with_config(cfg.clone());
    for batch in input.chunks(STREAM_BATCH) {
        t.call("stream.push", || sorter.push(batch))?;
    }
    let sorted = t.call("stream.finish", || sorter.finish())?;
    t.call("stream.drain", || out.extend(sorted));
    Ok(())
}

impl StreamFit {
    pub fn setup(seed: u64, run_dir: &Path) -> std::io::Result<Self> {
        let input =
            workloads::generate_pairs_u64(&distinct_dist(), N_DISTINCT, input_seed(seed, 3));
        let spill_dir = run_dir.join(format!("spill-stream-{}", std::process::id()));
        std::fs::create_dir_all(&spill_dir)?;
        Ok(Self {
            cfg: stream_fit_config(input.len(), &spill_dir),
            case: Case::new(input),
            spill_dir,
            out: Mutex::new(Vec::with_capacity(N_DISTINCT)),
        })
    }
}

impl Workload for StreamFit {
    fn clients(&self) -> usize {
        1
    }

    fn op(&self, _client: usize, _iter: usize) -> Result<OpSample, OpError> {
        let mut out = self.out.lock().expect("no op panicked holding the buffer");
        out.clear();
        let mut trace = OpTrace::default();
        trace
            .op(|t| stream_cycle(&self.case.input, &self.cfg, &mut out, t))
            .map_err(|e| format!("stream sorter: {e}"))?;
        check_output(&out, &self.case, "unif2e40")?;
        Ok(OpSample {
            records: N_DISTINCT as u64,
            trace,
        })
    }

    fn shape(&self) -> InputShape {
        InputShape {
            n_per_input: N_DISTINCT,
            inputs: 1,
            input_bytes: N_DISTINCT * std::mem::size_of::<(u64, u64)>(),
        }
    }

    fn core_stats(&self, cfg: &SortConfig) -> (StatsSnapshot, u64) {
        stats_over([self.case.input.clone()], cfg)
    }

    fn leaks(&self) -> Vec<String> {
        dir_leaks(&self.spill_dir)
    }
}

impl Drop for StreamFit {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir(&self.spill_dir);
    }
}

// ---------------------------------------------------------------------------

pub struct ServiceSpill {
    server: SortServer,
    cases: Vec<Case<u32, u32>>,
    spill_root: PathBuf,
    outs: Vec<Mutex<Vec<(u32, u32)>>>,
}

/// Client threads of `service-spill`, capped at the host's CPUs.
fn service_clients() -> usize {
    crate::report::host_cpus().clamp(1, 2)
}

/// Bytes of one session's records.
const SESSION_BYTES: usize = N_SESSION * std::mem::size_of::<(u32, u32)>();

impl ServiceSpill {
    pub fn setup(seed: u64, run_dir: &Path) -> std::io::Result<Self> {
        let dists = session_dists();
        let cases = (0..SESSION_INPUTS)
            .map(|i| {
                let dist = &dists[i % dists.len()];
                let seed = input_seed(seed, 10 + i as u64);
                Case::new(workloads::generate_pairs_u32(dist, N_SESSION, seed))
            })
            .collect();
        let spill_root = run_dir.join(format!("spill-service-{}", std::process::id()));
        let base = StreamConfig {
            spill_io: SpillIoMode::Blocking,
            ..StreamConfig::default()
        };
        let server = SortServer::new(ServerConfig {
            governor: GovernorConfig {
                // Below one session's data: every session spills, and a
                // second live session takes part of the first one's grant.
                global_budget_bytes: SESSION_BYTES * 5 / 8,
                session_floor_bytes: SESSION_BYTES / 16,
                admission: AdmissionPolicy::Queue,
            },
            spill: SpillManagerConfig {
                root: Some(spill_root.clone()),
                quota_bytes: u64::MAX,
            },
            base,
        })?;
        let outs = (0..service_clients())
            .map(|_| Mutex::new(Vec::with_capacity(N_SESSION)))
            .collect();
        Ok(Self {
            server,
            cases,
            spill_root,
            outs,
        })
    }
}

impl Workload for ServiceSpill {
    fn clients(&self) -> usize {
        self.outs.len()
    }

    fn op(&self, client: usize, iter: usize) -> Result<OpSample, OpError> {
        let case_index = (iter * self.clients() + client) % self.cases.len();
        let case = &self.cases[case_index];
        let tenant = ["client-0", "client-1"][client % 2];
        let mut out = self.outs[client]
            .lock()
            .expect("no op panicked holding the buffer");
        out.clear();
        let mut trace = OpTrace::default();
        trace
            .op(|t| -> std::io::Result<()> {
                let mut session = t.call("server.admit", || {
                    self.server.open_sort::<u32, u32>(tenant, SESSION_BYTES)
                })?;
                for batch in case.input.chunks(SESSION_BATCH) {
                    t.call("server.push", || session.push(batch))?;
                }
                let sorted = t.call("server.finish", || session.finish())?;
                // Dropping the stream releases the grant and removes the
                // session's spill directory, so it is part of the drain.
                t.call("server.drain", || out.extend(sorted));
                Ok(())
            })
            .map_err(|e| format!("session: {e}"))?;
        check_output(&out, case, &format!("session input {case_index}"))?;
        Ok(OpSample {
            records: N_SESSION as u64,
            trace,
        })
    }

    fn shape(&self) -> InputShape {
        InputShape {
            n_per_input: N_SESSION,
            inputs: self.cases.len(),
            input_bytes: SESSION_BYTES,
        }
    }

    fn core_stats(&self, cfg: &SortConfig) -> (StatsSnapshot, u64) {
        stats_over(self.cases.iter().map(|c| c.input.clone()), cfg)
    }

    fn leaks(&self) -> Vec<String> {
        let gov = self.server.governor();
        let spill = self.server.spill_manager();
        let mut leaks = dir_leaks(&self.spill_root);
        if gov.live_sessions() != 0 || gov.bytes_granted() != 0 {
            leaks.push(format!(
                "governor still holds {} sessions, {} granted bytes",
                gov.live_sessions(),
                gov.bytes_granted()
            ));
        }
        if spill.live_leases() != 0 || spill.charged_bytes() != 0 {
            leaks.push(format!(
                "spill manager still holds {} leases, {} charged bytes",
                spill.live_leases(),
                spill.charged_bytes()
            ));
        }
        leaks
    }
}

impl Drop for ServiceSpill {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir(&self.spill_root);
    }
}

/// Sets up the named workload.
pub fn setup(name: &str, seed: u64, run_dir: &Path) -> std::io::Result<Box<dyn Workload>> {
    Ok(match name {
        "inmem-dup" => Box::new(InmemDup::setup(seed)),
        "stream-fit" => Box::new(StreamFit::setup(seed, run_dir)?),
        "service-spill" => Box::new(ServiceSpill::setup(seed, run_dir)?),
        other => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("unknown workload {other:?}; expected one of {NAMES:?}"),
            ))
        }
    })
}

//! Tuning knobs of DovetailSort.
//!
//! The defaults follow the paper's "Parameter Selection" (Section 6):
//! a variable radix width `γ = log2(∛n)` clamped to `[8, 12]` (theory:
//! `γ = Θ(√log r)`, Section 4), base-case threshold `θ = 2^14`, sampling of
//! `Θ(2^γ log n)` keys with a `log n` subsample stride, the overflow-bucket
//! key-range optimization (Section 5), and the dovetail merge.  Every knob is
//! exposed so the ablation experiments of Section 6.3 can be reproduced.

/// Strategy used by Step 4 (interleaving heavy and light buckets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeStrategy {
    /// The paper's optimized dovetail merge across the ping-pong buffers:
    /// heavy-key positions are binary searched in the sorted light bucket and
    /// every record is copied directly to its final destination (Section 5,
    /// "minimizing data movement").  Default.
    Dovetail,
    /// The paper's Algorithm 3 exactly as written: data is first placed back
    /// into the output array and the heavy buckets are then interleaved fully
    /// in place, using the flip (in-place circular shift) trick; at most half
    /// of the zone is copied through a temporary buffer.
    DovetailInPlace,
    /// The `PLMerge` baseline of Section 6.3: a standard parallel merge of
    /// the light bucket with the (already sorted) concatenation of heavy
    /// buckets.
    ParallelMerge,
    /// Skip the merge entirely.  The output is *not* correctly interleaved;
    /// this exists only to measure the cost of the merge step as in
    /// Fig. 4(c)(d) ("Others" bars).
    Skip,
}

/// Configuration of a DovetailSort run.
#[derive(Debug, Clone)]
pub struct SortConfig {
    /// Base-case threshold `θ`: subproblems of at most this many records go
    /// to the stable base case (paper default `2^14`): insertion sort for
    /// tiny inputs, LSD radix sort on the varying key bits, or a stable
    /// comparison sort for duplicate-rich inputs.
    pub base_case_threshold: usize,
    /// Lower clamp for the radix width `γ`.
    pub min_radix_bits: u32,
    /// Upper clamp for the radix width `γ`.
    pub max_radix_bits: u32,
    /// If set, use exactly this radix width instead of the `log2(∛n)` rule.
    pub radix_bits_override: Option<u32>,
    /// Enable sampling-based heavy-key detection (Step 1).  Disabling it
    /// yields the "Plain" MSD radix sort of the Fig. 4(a)(b) ablation.
    pub heavy_detection: bool,
    /// How Step 4 interleaves heavy and light buckets.
    pub merge_strategy: MergeStrategy,
    /// Enable the overflow-bucket key-range optimization (Section 5): the
    /// effective key range of each subproblem is estimated from the sample
    /// maximum and keys above it go to a dedicated overflow bucket.
    pub overflow_bucket: bool,
    /// Multiplier `c` in the sample count `c · 2^γ · log2 n`.
    pub sample_factor: usize,
    /// Seed of the deterministic splittable RNG used for sampling.
    pub seed: u64,
}

impl Default for SortConfig {
    fn default() -> Self {
        Self {
            base_case_threshold: 1 << 14,
            min_radix_bits: 8,
            max_radix_bits: 12,
            radix_bits_override: None,
            heavy_detection: true,
            merge_strategy: MergeStrategy::Dovetail,
            overflow_bucket: true,
            sample_factor: 1,
            seed: 0x005E_EDD7_5027,
        }
    }
}

impl SortConfig {
    /// Configuration of the "Plain" ablation: identical MSD sort without
    /// heavy-key detection (Fig. 4(a)(b)).
    pub fn plain() -> Self {
        Self {
            heavy_detection: false,
            ..Self::default()
        }
    }

    /// Configuration using the `PLMerge` baseline for Step 4 (Fig. 4(c)(d)).
    pub fn with_parallel_merge() -> Self {
        Self {
            merge_strategy: MergeStrategy::ParallelMerge,
            ..Self::default()
        }
    }

    /// Radix width `γ` for a (sub)problem of `n` records with `bits`
    /// remaining key bits.
    ///
    /// Uses the paper's rule `γ = log2(∛n)` clamped to
    /// `[min_radix_bits, max_radix_bits]`, never exceeding the number of
    /// remaining bits, and at least 1.
    pub fn radix_bits(&self, n: usize, bits: u32) -> u32 {
        let gamma = match self.radix_bits_override {
            Some(g) => g,
            None => {
                // log2(n)/3, the paper's variable radix width.
                let log_n = usize::BITS - n.max(2).leading_zeros();
                (log_n / 3).clamp(self.min_radix_bits, self.max_radix_bits)
            }
        };
        gamma.min(bits).max(1)
    }

    /// Number of sample keys for a subproblem of `n` records with radix
    /// width `gamma`: `c · 2^γ · ⌈log2 n⌉`, capped at `n/2` so that tiny
    /// subproblems are not oversampled.
    pub fn num_samples(&self, n: usize, gamma: u32) -> usize {
        if n < 4 {
            return 0;
        }
        let log_n = (usize::BITS - n.leading_zeros()) as usize;
        let want = self.sample_factor.max(1) * (1usize << gamma) * log_n;
        want.min(n / 2)
    }

    /// Subsample stride used by the heavy-key detector: every `⌈log2 n⌉`-th
    /// sample (in sorted order) is a subsample; keys with at least two
    /// subsamples are declared heavy (Section 2.5).
    pub fn subsample_stride(&self, n: usize) -> usize {
        ((usize::BITS - n.max(2).leading_zeros()) as usize).max(1)
    }
}

/// On-disk encoding of spilled runs (the `stream` crate).
///
/// Runs are written once and read once (or twice for `finish_into`), so
/// the codec trades CPU against disk bytes on exactly one round trip.  On
/// spill-bound workloads bytes written *is* the wall clock, which makes
/// even a modest ratio a direct speedup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpillCompression {
    /// The flat reference format: `key (8B LE) | value bytes`, with a
    /// `u32 LE` length prefix for variable-length values.  This is the
    /// format every release so far has written, and it stays the
    /// byte-identical reference side of the compression differential
    /// tests.
    #[default]
    Off,
    /// Block format: records are grouped into independently decodable
    /// blocks; within each block the sorted `u64` keys are delta-encoded
    /// as LEB128 varints (monotone per run, so deltas are small) and the
    /// concatenated value bytes are LZ-compressed (hand-rolled LZ77
    /// codec, no dependencies), with a per-block store-raw fallback for
    /// incompressible payloads.
    DeltaLz,
}

/// Backend used for spill-file reads and writes (the `stream` crate's
/// `SpillIo` trait).
///
/// One-valued: buffered `std::fs` I/O is the only backend.  The enum (and
/// [`StreamConfig::spill_io`]) stay so configs that name the backend keep
/// compiling; both go when the stream configuration moves out of this
/// crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpillIoMode {
    /// One blocking `std::fs` call per read/write on the calling thread
    /// (buffered `File` writes for runs, buffered reads for merges).
    #[default]
    Blocking,
}

/// Recovery policy for spill I/O failures (the `stream` crate's engines).
///
/// Spill I/O errors split into two classes.  *Transient* kinds
/// ([`SpillRetryPolicy::is_transient`]: `Interrupted`, `TimedOut`,
/// `WouldBlock`) describe conditions that can clear on their own; a spill
/// write is retried in place up to [`SpillRetryPolicy::max_retries`]
/// times with bounded exponential backoff — deterministic, derived only
/// from the attempt number, never from wall clock or randomness, so
/// failure tests replay identically.  Every other kind (ENOSPC, quota,
/// corruption, permission) is *permanent* and surfaces immediately as a
/// typed `SpillError`.
///
/// A pipelined-writer failure additionally puts the engine on
/// **probation** instead of the old permanent synchronous fallback: the
/// next [`SpillRetryPolicy::probation_spills`] runs are written
/// synchronously (each counted by the `spill.degraded_syncs` metric), and
/// once they complete cleanly the pipeline is restarted — so a transient
/// burst degrades throughput for a bounded window instead of for the rest
/// of the engine's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillRetryPolicy {
    /// Retries per spill operation after the first attempt fails with a
    /// transient kind.  `0` disables retrying (every failure is final).
    pub max_retries: u32,
    /// Backoff before the first retry, in milliseconds; each further
    /// retry doubles it.
    pub backoff_base_ms: u64,
    /// Upper bound on a single backoff sleep, in milliseconds.
    pub backoff_cap_ms: u64,
    /// Clean synchronous spills required after a pipelined-writer failure
    /// before pipelining is re-enabled (clamped to at least 1).  Use
    /// `u32::MAX` to make degradation effectively permanent (the pre-PR-10
    /// behavior).
    pub probation_spills: u32,
}

impl Default for SpillRetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            backoff_base_ms: 2,
            backoff_cap_ms: 50,
            probation_spills: 4,
        }
    }
}

impl SpillRetryPolicy {
    /// A policy that never retries and keeps degradation effectively
    /// permanent — the exact pre-PR-10 behavior, for differentials.
    pub fn disabled() -> Self {
        Self {
            max_retries: 0,
            backoff_base_ms: 0,
            backoff_cap_ms: 0,
            probation_spills: u32::MAX,
        }
    }

    /// Whether `kind` is worth retrying: the condition can clear without
    /// any corrective action (interrupted call, timeout, contended
    /// resource).  ENOSPC (`StorageFull`) and `QuotaExceeded` are
    /// deliberately *not* transient: retrying a full disk burns the
    /// backoff budget without any chance of success.
    pub fn is_transient(kind: std::io::ErrorKind) -> bool {
        matches!(
            kind,
            std::io::ErrorKind::Interrupted
                | std::io::ErrorKind::TimedOut
                | std::io::ErrorKind::WouldBlock
        )
    }

    /// Deterministic backoff before retry number `attempt` (0-based):
    /// `base · 2^attempt`, capped at [`SpillRetryPolicy::backoff_cap_ms`].
    pub fn backoff(&self, attempt: u32) -> std::time::Duration {
        let ms = self
            .backoff_base_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.backoff_cap_ms);
        std::time::Duration::from_millis(ms)
    }
}

/// A shared, mutable view of a granted memory budget.
///
/// Budgets were per-call constants until the multi-session server made
/// them runtime resources: a memory governor admits a session with some
/// grant and may later *shrink* it while the session's engine is live
/// (reclaiming bytes for a new tenant).  The handle is the channel for
/// that: the granter keeps one clone and calls [`BudgetHandle::set`]; the
/// engine re-reads the grant on every push chunk via
/// [`StreamConfig::effective_budget_bytes`] and spills early instead of
/// erroring when the grant shrank under its buffered records.
///
/// Reads and writes are relaxed atomics — a shrink is advisory and takes
/// effect at the engine's next capacity check, never mid-chunk.
#[derive(Debug, Clone, Default)]
pub struct BudgetHandle(std::sync::Arc<std::sync::atomic::AtomicUsize>);

impl BudgetHandle {
    /// A new handle granting `bytes`.
    pub fn new(bytes: usize) -> Self {
        Self(std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(
            bytes,
        )))
    }

    /// The current grant in bytes.
    pub fn get(&self) -> usize {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Replaces the grant (both growth and reclaim).
    pub fn set(&self, bytes: usize) {
        self.0.store(bytes, std::sync::atomic::Ordering::Relaxed)
    }

    /// Whether two handles share the same grant cell.
    pub fn same_handle(&self, other: &Self) -> bool {
        std::sync::Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Configuration of a bounded-memory streaming sort (the `stream` crate).
///
/// Lives beside [`SortConfig`] so every layer that tunes the in-memory sort
/// can tune its streaming wrapper the same way.  The streaming sorter
/// accumulates pushed records in a buffer sized from `memory_budget_bytes`,
/// sorts each full buffer into a *run* with DovetailSort (seeding heavy-key
/// detection with keys carried from earlier runs), spills runs to
/// `spill_dir`, and k-way merges all runs at the end.
///
/// Spill I/O is **pipelined** by default: sorted runs are handed to a
/// dedicated writer thread (so run `N + 1` is sorted while run `N` streams
/// to disk) and the final merge reads ahead of the loser tree through
/// bounded channels.  `synchronous_spill` turns both stages off.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Total working-set budget in bytes, split into
    /// [`StreamConfig::spill_shares`] equal shares: one buffers incoming
    /// records, one is the sort's ping-pong scratch, and (when spilling is
    /// pipelined) one bounds the sorted run in flight to the writer
    /// thread.  One run therefore holds about
    /// `memory_budget_bytes / (spill_shares · record_size)` records.
    ///
    /// `record_size` is the *inline* struct size (`size_of::<(K, V)>()`).
    /// For variable-length values (`String`, `Vec<u8>`, `Box<[u8]>`) the
    /// heap payload is not part of that size, so the streaming sorter and
    /// the streaming group-by additionally track the buffered payload
    /// bytes and spill a run early once they reach
    /// `memory_budget_bytes / spill_shares` — with in-flight runs counted
    /// against the budget exactly like buffered ones.
    pub memory_budget_bytes: usize,
    /// Optional live override of `memory_budget_bytes`: when set, every
    /// budget-derived quantity ([`StreamConfig::run_capacity`], the
    /// var-length payload threshold) reads the handle's *current* value
    /// instead of the constant, so a granter (e.g. the server's memory
    /// governor) can shrink or grow the budget while the engine runs.
    /// Engines re-check capacity on every push chunk, so a shrink
    /// triggers an early spill rather than an error.
    pub budget: Option<BudgetHandle>,
    /// Upper bound on the number of heavy keys carried from one run's
    /// sampling into the next (each carried key costs one bucket in the
    /// next run's root distribution).
    pub max_carried_heavy_keys: usize,
    /// Directory for spilled runs; `None` uses the system temp directory.
    /// Each sorter creates (and removes on drop) a unique subdirectory.
    pub spill_dir: Option<std::path::PathBuf>,
    /// Total bytes of read buffering shared by all runs during the final
    /// streaming merge.
    pub merge_read_buffer_bytes: usize,
    /// Disable the spill pipeline: `push` sorts *and* writes each run
    /// inline on the calling thread, and the final merge issues blocking
    /// reads from inside the loser tree — the pre-pipelining behavior,
    /// kept as an escape hatch (and as the reference side of the
    /// pipelined-vs-synchronous differential tests).
    pub synchronous_spill: bool,
    /// Prefetch decoded record blocks ahead of the final k-way merge, one
    /// reader thread per spilled run, through a channel bounded by the
    /// per-run share of `merge_read_buffer_bytes` — so the loser tree
    /// never blocks on a cold read.
    ///
    /// `None` (the default) auto-tunes: read-ahead engages when the host
    /// reports more than one unit of available parallelism, because on a
    /// single CPU the decode thread cannot run concurrently with the merge
    /// and page-cache-warm reads make it pure overhead.  `Some(true)` /
    /// `Some(false)` force it.  Ignored (off) when `synchronous_spill` is
    /// set.
    pub merge_read_ahead: Option<bool>,
    /// On-disk encoding of spilled runs: [`SpillCompression::Off`] (the
    /// default) writes the flat reference format, while
    /// [`SpillCompression::DeltaLz`] delta-encodes the sorted keys and
    /// LZ-compresses the value payloads in independently decodable
    /// blocks.  Both formats flow through the same writer thread and
    /// merge read-ahead; decoding is transparent to the merge.
    pub spill_compression: SpillCompression,
    /// Backend for the spill-file reads and writes.  One-valued
    /// ([`SpillIoMode::Blocking`]); kept so configs that set it explicitly
    /// keep compiling.
    pub spill_io: SpillIoMode,
    /// Recovery policy for spill I/O failures: transient-kind retries
    /// with bounded deterministic backoff, and the probation window that
    /// re-enables pipelined spilling after a writer failure.  See
    /// [`SpillRetryPolicy`]; [`SpillRetryPolicy::disabled`] restores the
    /// pre-recovery behavior (no retries, permanent synchronous
    /// fallback).
    pub spill_retry: SpillRetryPolicy,
    /// Turn on the `obs` tracing/metrics layer for this engine's
    /// lifetime: the streaming sorter and group-by hold an
    /// `obs::EnableGuard` from construction until the engine (and any
    /// stream it returned) is dropped, so their spans (`sort_run`,
    /// `spill_write`, `prefetch`, `merge`) and registry metrics are
    /// recorded.
    ///
    /// The enable state is **scoped and refcounted**: recording stays on
    /// while *any* traced engine is alive and reverts when the last one
    /// drops, so one traced session no longer turns tracing on for every
    /// other tenant of the process forever.  `obs::enable()` /
    /// `obs::disable()` still force the state process-wide, and the
    /// `OBS_TRACE` environment variable enables the same machinery
    /// without touching configs.
    pub trace: bool,
    /// Configuration of the per-run in-memory DovetailSort.
    pub sort: SortConfig,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            memory_budget_bytes: 256 << 20,
            budget: None,
            max_carried_heavy_keys: 1024,
            spill_dir: None,
            merge_read_buffer_bytes: 8 << 20,
            synchronous_spill: false,
            merge_read_ahead: None,
            spill_compression: SpillCompression::default(),
            spill_io: SpillIoMode::default(),
            spill_retry: SpillRetryPolicy::default(),
            trace: false,
            sort: SortConfig::default(),
        }
    }
}

impl StreamConfig {
    /// A config with the given memory budget and defaults elsewhere.
    pub fn with_memory_budget(bytes: usize) -> Self {
        Self {
            memory_budget_bytes: bytes,
            ..Self::default()
        }
    }

    /// [`StreamConfig::with_memory_budget`] with the spill pipeline and
    /// merge read-ahead disabled (the pre-pipelining behavior).
    pub fn synchronous_with_memory_budget(bytes: usize) -> Self {
        Self {
            memory_budget_bytes: bytes,
            synchronous_spill: true,
            ..Self::default()
        }
    }

    /// [`StreamConfig::with_memory_budget`] bound to a live
    /// [`BudgetHandle`]: the handle's current value *is* the budget, so
    /// the granter can resize it while the engine runs.
    pub fn with_budget_handle(handle: BudgetHandle) -> Self {
        Self {
            memory_budget_bytes: handle.get(),
            budget: Some(handle),
            ..Self::default()
        }
    }

    /// The budget in force right now: the live [`StreamConfig::budget`]
    /// handle's current value when one is attached, the
    /// [`StreamConfig::memory_budget_bytes`] constant otherwise.
    pub fn effective_budget_bytes(&self) -> usize {
        match &self.budget {
            Some(handle) => handle.get(),
            None => self.memory_budget_bytes,
        }
    }

    /// Number of equal budget shares the record memory is split into: one
    /// filling buffer + one sort scratch, plus one for the run in flight
    /// to the writer when spilling is pipelined (classic double buffering:
    /// run `N + 1` sorts while run `N` writes).  The in-flight run buffers
    /// real bytes, so it must be paid for out of the same budget.
    pub fn spill_shares(&self) -> usize {
        if self.synchronous_spill {
            2
        } else {
            3
        }
    }

    /// Number of records of `record_size` bytes one run may hold.
    /// Accounts for pipelined in-flight runs via
    /// [`StreamConfig::spill_shares`].
    ///
    /// The floor is a single record, so a degenerate budget still makes
    /// progress but cannot silently multiply: the worst-case resident
    /// record memory is `max(memory_budget_bytes, spill_shares() ·
    /// record_size)` — one record per share — never the
    /// `64 · spill_shares() · record_size` the old `.max(64)` floor
    /// admitted (e.g. 64 records × 5 shares × a 1 KiB record ≈ 320 KiB
    /// against a 1 KiB budget).
    pub fn run_capacity(&self, record_size: usize) -> usize {
        (self.effective_budget_bytes() / (self.spill_shares() * record_size.max(1))).max(1)
    }

    /// Whether the final merge should read ahead of the loser tree:
    /// [`StreamConfig::merge_read_ahead`] resolved against the host's
    /// available parallelism (see that field for the auto rule).
    pub fn wants_merge_read_ahead(&self) -> bool {
        if self.synchronous_spill {
            return false;
        }
        self.merge_read_ahead
            .unwrap_or_else(|| std::thread::available_parallelism().is_ok_and(|p| p.get() > 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let c = SortConfig::default();
        assert_eq!(c.base_case_threshold, 1 << 14);
        assert_eq!(c.min_radix_bits, 8);
        assert_eq!(c.max_radix_bits, 12);
        assert!(c.heavy_detection);
        assert!(c.overflow_bucket);
        assert_eq!(c.merge_strategy, MergeStrategy::Dovetail);
    }

    #[test]
    fn radix_bits_follows_cuberoot_rule() {
        let c = SortConfig::default();
        // n = 10^9 -> log2 n ≈ 30 -> γ = 10.
        assert_eq!(c.radix_bits(1_000_000_000, 64), 10);
        // Small n clamps to the minimum.
        assert_eq!(c.radix_bits(1 << 15, 64), 8);
        // Huge n clamps to the maximum.
        assert_eq!(c.radix_bits(usize::MAX / 2, 64), 12);
        // Never more than the remaining bits.
        assert_eq!(c.radix_bits(1_000_000_000, 4), 4);
        // Never zero.
        assert_eq!(c.radix_bits(10, 1), 1);
    }

    #[test]
    fn radix_override_wins() {
        let c = SortConfig {
            radix_bits_override: Some(6),
            ..SortConfig::default()
        };
        assert_eq!(c.radix_bits(1_000_000_000, 64), 6);
        assert_eq!(c.radix_bits(1_000_000_000, 3), 3);
    }

    #[test]
    fn sample_count_capped_by_half() {
        let c = SortConfig::default();
        let n = 40_000;
        assert!(c.num_samples(n, 12) <= n / 2);
        assert!(c.num_samples(1_000_000, 8) >= (1 << 8) * 10);
        assert_eq!(c.num_samples(2, 8), 0);
    }

    #[test]
    fn subsample_stride_is_log_n() {
        let c = SortConfig::default();
        assert_eq!(c.subsample_stride(1 << 20), 21);
        assert!(c.subsample_stride(1) >= 1);
    }

    #[test]
    fn presets() {
        assert!(!SortConfig::plain().heavy_detection);
        assert_eq!(
            SortConfig::with_parallel_merge().merge_strategy,
            MergeStrategy::ParallelMerge
        );
    }

    #[test]
    fn stream_config_run_capacity() {
        // Synchronous: half the budget buffers records (the rest is sort
        // scratch).
        let sync = StreamConfig::synchronous_with_memory_budget(1 << 20);
        assert_eq!(sync.spill_shares(), 2);
        assert_eq!(sync.run_capacity(8), (1 << 20) / 16);
        // Pipelined (double buffering): one more share
        // pays for the run in flight to the writer thread.
        let piped = StreamConfig::with_memory_budget(1 << 20);
        assert!(!piped.synchronous_spill);
        assert_eq!(piped.spill_shares(), 3);
        assert_eq!(piped.run_capacity(8), (1 << 20) / 24);
        // The share count follows the spill mode alone; degenerate budgets
        // clamp to a record floor in either mode.
        assert_eq!(StreamConfig::default().spill_shares(), 3);
        let sync_default = StreamConfig {
            synchronous_spill: true,
            ..StreamConfig::default()
        };
        assert_eq!(sync_default.spill_shares(), 2);
        assert_eq!(StreamConfig::with_memory_budget(0).run_capacity(8), 1);
        assert_eq!(
            StreamConfig::synchronous_with_memory_budget(0).run_capacity(8),
            1
        );
        assert!(StreamConfig::default().memory_budget_bytes > 0);
    }

    #[test]
    fn run_capacity_never_overshoots_the_budget() {
        // Regression: the old `.max(64)` floor admitted 64 records per
        // budget share under a degenerate budget — buffer + scratch +
        // in-flight runs far above `memory_budget_bytes`.  The worst case
        // is now one record per share.
        for record_size in [1usize, 8, 64, 1024, 64 << 10] {
            for budget in [0usize, 1, 100, 4096, 1 << 20] {
                for synchronous_spill in [true, false] {
                    let cfg = StreamConfig {
                        memory_budget_bytes: budget,
                        synchronous_spill,
                        ..StreamConfig::default()
                    };
                    let resident = cfg.run_capacity(record_size) * cfg.spill_shares() * record_size;
                    let worst = budget.max(cfg.spill_shares() * record_size);
                    assert!(
                        resident <= worst,
                        "budget {budget}, record {record_size}, sync {synchronous_spill}: \
                         resident {resident} > worst-case {worst}"
                    );
                }
            }
        }
    }

    #[test]
    fn budget_handle_overrides_the_constant_live() {
        let handle = BudgetHandle::new(1 << 20);
        let cfg = StreamConfig {
            memory_budget_bytes: 64, // must be ignored while a handle is attached
            budget: Some(handle.clone()),
            synchronous_spill: true,
            ..StreamConfig::default()
        };
        assert_eq!(cfg.effective_budget_bytes(), 1 << 20);
        assert_eq!(cfg.run_capacity(8), (1 << 20) / 16);
        // A shrink through the handle is visible to an existing config
        // (and all its clones) without rebuilding anything.
        let cloned = cfg.clone();
        handle.set(32 << 10);
        assert_eq!(cfg.run_capacity(8), (32 << 10) / 16);
        assert_eq!(cloned.run_capacity(8), (32 << 10) / 16);
        assert!(cfg.budget.as_ref().unwrap().same_handle(&handle));
        // Without a handle, the constant is the budget.
        assert_eq!(
            StreamConfig::with_memory_budget(4096).effective_budget_bytes(),
            4096
        );
        let bound = StreamConfig::with_budget_handle(BudgetHandle::new(8192));
        assert_eq!(bound.effective_budget_bytes(), 8192);
        assert_eq!(bound.memory_budget_bytes, 8192);
    }

    #[test]
    fn spill_compression_defaults_off() {
        assert_eq!(
            StreamConfig::default().spill_compression,
            SpillCompression::Off
        );
        assert_eq!(SpillCompression::default(), SpillCompression::Off);
    }

    #[test]
    fn spill_retry_policy_classification_and_backoff() {
        use std::io::ErrorKind;
        for kind in [
            ErrorKind::Interrupted,
            ErrorKind::TimedOut,
            ErrorKind::WouldBlock,
        ] {
            assert!(SpillRetryPolicy::is_transient(kind), "{kind:?}");
        }
        for kind in [
            ErrorKind::StorageFull,
            ErrorKind::QuotaExceeded,
            ErrorKind::InvalidData,
            ErrorKind::NotFound,
            ErrorKind::PermissionDenied,
            ErrorKind::WriteZero,
            ErrorKind::Other,
        ] {
            assert!(!SpillRetryPolicy::is_transient(kind), "{kind:?}");
        }
        let p = SpillRetryPolicy {
            max_retries: 5,
            backoff_base_ms: 2,
            backoff_cap_ms: 9,
            probation_spills: 3,
        };
        // base · 2^attempt, capped — and deterministic across calls.
        assert_eq!(p.backoff(0).as_millis(), 2);
        assert_eq!(p.backoff(1).as_millis(), 4);
        assert_eq!(p.backoff(2).as_millis(), 8);
        assert_eq!(p.backoff(3).as_millis(), 9, "capped");
        assert_eq!(p.backoff(60).as_millis(), 9, "huge attempts stay capped");
        let off = SpillRetryPolicy::disabled();
        assert_eq!(off.max_retries, 0);
        assert_eq!(off.probation_spills, u32::MAX);
        assert_eq!(off.backoff(0).as_millis(), 0);
        assert_eq!(
            StreamConfig::default().spill_retry,
            SpillRetryPolicy::default()
        );
    }

    #[test]
    fn merge_read_ahead_resolution() {
        // Forced settings win regardless of host parallelism.
        let forced_on = StreamConfig {
            merge_read_ahead: Some(true),
            ..StreamConfig::default()
        };
        assert!(forced_on.wants_merge_read_ahead());
        let forced_off = StreamConfig {
            merge_read_ahead: Some(false),
            ..StreamConfig::default()
        };
        assert!(!forced_off.wants_merge_read_ahead());
        // Synchronous mode disables read-ahead even when forced on.
        let sync = StreamConfig {
            synchronous_spill: true,
            merge_read_ahead: Some(true),
            ..StreamConfig::default()
        };
        assert!(!sync.wants_merge_read_ahead());
        // Auto mode follows the host's available parallelism.
        let auto = StreamConfig::default();
        let multicore = std::thread::available_parallelism().is_ok_and(|p| p.get() > 1);
        assert_eq!(auto.wants_merge_read_ahead(), multicore);
    }
}

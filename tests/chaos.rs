//! Chaos differential suite: the streaming engines under seeded fault
//! injection ([`stream::FaultPlan`]).
//!
//! The contract every cell asserts is **loud or lossless, never silent,
//! never hung**:
//!
//! * if the engine completes, the output must be *byte-identical* to the
//!   fault-free reference (a transparently recovered fault may not change
//!   a single record);
//! * if the engine errors, the error must be attributable — a typed
//!   [`stream::SpillError`] and/or a message naming the injected fault —
//!   and the spill directory must be empty after teardown (no leaked
//!   runs, no leaked partial files);
//! * mid-merge read faults on the streaming iterator keep the documented
//!   loud-panic contract — the panic names the injection, and teardown
//!   still empties the spill directory.
//!
//! Fault schedules are deterministic (seeded, keyed by per-operation
//! counters).  CI re-runs the suite under two seeds via
//! `PISORT_FAULT_PLAN=<seed>[:<period>]`; without the variable the
//! built-in seeds below run.

use std::collections::HashMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use stream::{
    FaultKind, FaultPlan, SpillCompression, SpillError, SpillIoHandle, StreamGroupBy, StreamSorter,
    SumAgg, DEFAULT_FAULT_PERIOD,
};
use workloads::dist::{generate_pairs_u32, Distribution};

const N: usize = 10_000;
const CHUNK: usize = 777;

static CASE: AtomicU64 = AtomicU64::new(0);

/// A fresh, empty spill base directory unique to one chaos cell.
fn case_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pisort-chaos-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_empty_and_remove(base: &Path, ctx: &str) {
    let leftovers: Vec<_> = std::fs::read_dir(base)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert!(
        leftovers.is_empty(),
        "leaked spill state after injected fault [{ctx}]: {leftovers:?}"
    );
    std::fs::remove_dir_all(base).ok();
}

/// The `(seed, period)` fault schedules of this run: the
/// `PISORT_FAULT_PLAN` spec when set (the CI chaos legs), the two
/// built-in seeds otherwise.
fn fault_specs() -> Vec<(u64, u64)> {
    if let Ok(spec) = std::env::var("PISORT_FAULT_PLAN") {
        let spec = spec.trim();
        let parsed = match spec.split_once(':') {
            Some((s, p)) => s.trim().parse().ok().zip(p.trim().parse().ok()),
            None => spec.parse().ok().map(|s| (s, DEFAULT_FAULT_PERIOD)),
        };
        if let Some(sp) = parsed {
            return vec![sp];
        }
    }
    vec![(0xC4A0_5001, 23), (0xC4A0_5002, 23)]
}

/// The (codec, spill-mode) matrix each chaos scenario sweeps.
fn cells() -> [(SpillCompression, bool); 4] {
    use SpillCompression::{DeltaLz, Off};
    [(Off, true), (Off, false), (DeltaLz, true), (DeltaLz, false)]
}

/// A spill I/O handle that injects faults per `plan`.
fn faulted_io(plan: &FaultPlan) -> SpillIoHandle {
    SpillIoHandle::blocking().with_faults(plan.clone())
}

fn cfg(base: &Path, compression: SpillCompression, synchronous: bool) -> dtsort::StreamConfig {
    dtsort::StreamConfig {
        spill_dir: Some(base.to_path_buf()),
        spill_compression: compression,
        synchronous_spill: synchronous,
        ..dtsort::StreamConfig::with_memory_budget(16 << 10)
    }
}

/// An error escaping a chaos run must be attributable: typed, or naming
/// the injection, or the loud writer/worker-panic conversion.
fn assert_attributable(e: &io::Error, ctx: &str) {
    let msg = e.to_string();
    assert!(
        SpillError::from_io(e).is_some() || msg.contains("injected") || msg.contains("panicked"),
        "untyped, unattributable chaos error [{ctx}]: kind={:?} msg={msg}",
        e.kind()
    );
}

/// The main sweep: the distribution matrix under a blanket fault mix
/// (every error-returning site), on every format × spill-mode cell.  `finish_vec` is used so merge-time read faults surface as
/// `Err`, keeping the whole cell in the loud-or-lossless contract.
#[test]
fn faulted_sorts_are_byte_identical_or_loudly_typed() {
    let dists = [
        Distribution::Uniform {
            distinct: 1_000_000_000,
        },
        Distribution::Zipfian { s: 1.2 },
    ];
    let mut injected_total = 0u64;
    let mut recovered = 0usize;
    let mut errored = 0usize;
    for (seed, period) in fault_specs() {
        for (di, dist) in dists.iter().enumerate() {
            let input = generate_pairs_u32(dist, N, 0xC4A0_0000 + di as u64);
            let mut want = input.clone();
            want.sort_by_key(|r| r.0);
            for (compression, synchronous) in cells() {
                let ctx = format!(
                    "sorter seed={seed} period={period} dist={} \
                     compression={compression:?} sync={synchronous}",
                    dist.label()
                );
                let base = case_dir("sort");
                let plan = FaultPlan::seeded(seed ^ (di as u64) << 32, period);
                let io = faulted_io(&plan);
                let mut sorter: StreamSorter<u32, u32> =
                    StreamSorter::with_config_and_io(cfg(&base, compression, synchronous), io);
                let mut push_err = None;
                for chunk in input.chunks(CHUNK) {
                    if let Err(e) = sorter.push(chunk) {
                        push_err = Some(e);
                        break;
                    }
                }
                let result = match push_err {
                    Some(e) => {
                        drop(sorter);
                        Err(e)
                    }
                    None => sorter.finish_vec(),
                };
                match result {
                    Ok(got) => {
                        assert_eq!(got, want, "recovered run must be byte-identical [{ctx}]");
                        recovered += 1;
                    }
                    Err(e) => {
                        assert_attributable(&e, &ctx);
                        errored += 1;
                    }
                }
                assert_empty_and_remove(&base, &ctx);
                injected_total += plan.injected();
            }
        }
    }
    assert!(
        injected_total > 0,
        "the chaos sweep must actually inject faults \
         (recovered={recovered} errored={errored})"
    );
}

/// The group-by engine under the same blanket mix, minus the read-side
/// kinds: its merge streams partials through the loser tree, where a
/// mid-stream read fault panics by contract (covered separately below),
/// so this sweep pins the write/open/fsync paths to Ok-or-typed.
#[test]
fn faulted_group_bys_aggregate_exactly_or_loudly_typed() {
    const WRITE_SIDE: &[FaultKind] = &[
        FaultKind::CreateTransient,
        FaultKind::OpenTransient,
        FaultKind::WriteEnospc,
        FaultKind::WriteTransient,
        FaultKind::TornWrite,
        FaultKind::FsyncTransient,
    ];
    let input: Vec<(u32, u64)> =
        generate_pairs_u32(&Distribution::Zipfian { s: 1.2 }, 4 * N, 0xC4A0_6000)
            .into_iter()
            .map(|(k, _)| (k, 1u64))
            .collect();
    let mut want = std::collections::BTreeMap::new();
    for &(k, v) in &input {
        *want.entry(k).or_insert(0u64) += v;
    }
    let want: Vec<(u32, u64)> = want.into_iter().collect();
    let mut injected_total = 0u64;
    for (seed, period) in fault_specs() {
        for (compression, synchronous) in cells() {
            let ctx = format!(
                "group-by seed={seed} period={period} \
                 compression={compression:?} sync={synchronous}"
            );
            let base = case_dir("group");
            let plan = FaultPlan::seeded_kinds(seed, period, WRITE_SIDE);
            let io = faulted_io(&plan);
            let mut gb: StreamGroupBy<u32, SumAgg> =
                StreamGroupBy::with_config_and_io(SumAgg, cfg(&base, compression, synchronous), io);
            let mut push_err = None;
            for chunk in input.chunks(CHUNK) {
                if let Err(e) = gb.push(chunk) {
                    push_err = Some(e);
                    break;
                }
            }
            let result = match push_err {
                Some(e) => {
                    drop(gb);
                    Err(e)
                }
                None => gb.finish_vec(),
            };
            match result {
                Ok(got) => assert_eq!(got, want, "recovered group-by must agree [{ctx}]"),
                Err(e) => assert_attributable(&e, &ctx),
            }
            assert_empty_and_remove(&base, &ctx);
            injected_total += plan.injected();
        }
    }
    assert!(injected_total > 0, "the group-by sweep must inject faults");
}

/// Single targeted transient faults must be *fully absorbed*: the retry
/// layer re-runs the failed operation, the output is byte-identical, and
/// the write-side retries are visible in [`stream::StreamStats`].
#[test]
fn single_transient_faults_are_recovered_exactly_with_visible_retries() {
    let input = generate_pairs_u32(&Distribution::Zipfian { s: 1.2 }, N, 0xC4A0_7000);
    let mut want = input.clone();
    want.sort_by_key(|r| r.0);
    let targets = [
        ("create", FaultKind::CreateTransient, 1),
        ("write", FaultKind::WriteTransient, 5),
        ("fsync", FaultKind::FsyncTransient, 2),
        ("read", FaultKind::ReadTransient, 3),
    ];
    for (compression, synchronous) in cells() {
        for (name, kind, n) in targets {
            let ctx = format!("targeted {name} compression={compression:?} sync={synchronous}");
            let base = case_dir("nth");
            let plan = FaultPlan::nth(kind, n);
            let io = faulted_io(&plan);
            let mut sorter: StreamSorter<u32, u32> =
                StreamSorter::with_config_and_io(cfg(&base, compression, synchronous), io);
            for chunk in input.chunks(CHUNK) {
                sorter.push(chunk).unwrap_or_else(|e| {
                    panic!("single transient fault must be absorbed [{ctx}]: {e}")
                });
            }
            sorter
                .flush_spills()
                .unwrap_or_else(|e| panic!("flush must absorb the fault [{ctx}]: {e}"));
            let write_side = !matches!(kind, FaultKind::ReadTransient);
            if write_side {
                assert!(
                    plan.injected() == 1,
                    "the targeted fault must have fired by flush time [{ctx}]"
                );
                assert!(
                    sorter.stats().spill_retries >= 1,
                    "write-side recovery must be visible in stats [{ctx}]"
                );
            }
            let got = sorter
                .finish_vec()
                .unwrap_or_else(|e| panic!("recovery must complete the sort [{ctx}]: {e}"));
            assert_eq!(got, want, "recovered output must be byte-identical [{ctx}]");
            assert_eq!(
                plan.injected(),
                1,
                "exactly the targeted fault fires [{ctx}]"
            );
            assert_empty_and_remove(&base, &ctx);
        }
    }
}

/// A torn write on the pipelined path surfaces exactly one loud, typed
/// error, engages degradation probation (visible in the stats), rewrites
/// the reclaimed run synchronously — and loses not a single record.  Both
/// engines (sorter and group-by) run through the same fault.
#[test]
fn torn_write_degrades_recovers_and_reports_probation() {
    let input = generate_pairs_u32(
        &Distribution::Uniform { distinct: 1 << 20 },
        2 * N,
        0xC4A0_8000,
    );
    let mut want = input.clone();
    want.sort_by_key(|r| r.0);
    let gb_input: Vec<(u32, u64)> = input.iter().map(|&(k, v)| (k, u64::from(v))).collect();
    let mut gb_want: HashMap<u32, u64> = HashMap::new();
    for &(k, v) in &gb_input {
        *gb_want.entry(k).or_default() += v;
    }
    let ctx = "torn-write".to_string();
    let base = case_dir("torn");
    let plan = FaultPlan::nth(FaultKind::TornWrite, 4);
    let io = faulted_io(&plan);
    let mut sorter: StreamSorter<u32, u32> =
        StreamSorter::with_config_and_io(cfg(&base, SpillCompression::Off, false), io);
    // The broken pipeline reports its error on exactly one push (or
    // the flush); afterwards the engine carries on synchronously.
    let mut errors = 0usize;
    for chunk in input.chunks(CHUNK) {
        if let Err(e) = sorter.push(chunk) {
            assert_attributable(&e, &ctx);
            errors += 1;
        }
    }
    if let Err(e) = sorter.flush_spills() {
        assert_attributable(&e, &ctx);
        errors += 1;
    }
    assert_eq!(plan.injected(), 1, "the torn write must have fired [{ctx}]");
    assert_eq!(errors, 1, "exactly one loud error [{ctx}]");
    assert!(
        sorter.stats().degraded_syncs >= 1,
        "probation must be visible in stats [{ctx}]: {:?}",
        sorter.stats()
    );
    let got = sorter.finish_vec().unwrap();
    assert_eq!(got, want, "no record may be lost to the torn write [{ctx}]");
    assert_empty_and_remove(&base, &ctx);

    // The group-by engine through the same torn write: one loud error,
    // probation visible, aggregates exact.
    let ctx = "torn-write group-by".to_string();
    let base = case_dir("torn-gb");
    let plan = FaultPlan::nth(FaultKind::TornWrite, 4);
    let io = faulted_io(&plan);
    let mut gb: StreamGroupBy<u32, SumAgg> =
        StreamGroupBy::with_config_and_io(SumAgg, cfg(&base, SpillCompression::Off, false), io);
    let mut errors = 0usize;
    for chunk in gb_input.chunks(CHUNK) {
        if let Err(e) = gb.push(chunk) {
            assert_attributable(&e, &ctx);
            errors += 1;
        }
    }
    if let Err(e) = gb.flush_spills() {
        assert_attributable(&e, &ctx);
        errors += 1;
    }
    assert_eq!(plan.injected(), 1, "the torn write must have fired [{ctx}]");
    assert_eq!(errors, 1, "exactly one loud error [{ctx}]");
    assert!(
        gb.stats().degraded_syncs >= 1,
        "probation must be visible in stats [{ctx}]: {:?}",
        gb.stats()
    );
    let got = gb.finish_vec().unwrap();
    assert_eq!(got.len(), gb_want.len(), "one aggregate per key [{ctx}]");
    for (k, sum) in got {
        assert_eq!(
            sum, gb_want[&k],
            "key {k}: aggregate lost to the torn write [{ctx}]"
        );
    }
    assert_empty_and_remove(&base, &ctx);
}

/// Mid-merge read faults on the *streaming* iterator keep the documented
/// contract: loud (an error from `finish`, or a panic naming the
/// injection mid-drain) — never silent truncation — and the spill
/// directory is empty after unwinding.
#[test]
fn mid_merge_read_faults_are_loud_and_clean_up() {
    let input = generate_pairs_u32(&Distribution::Zipfian { s: 1.2 }, N, 0xC4A0_9000);
    let mut want = input.clone();
    want.sort_by_key(|r| r.0);
    for n in [0u64, 7, 31, 200] {
        let ctx = format!("mid-merge-read nth={n}");
        let base = case_dir("midread");
        let plan = FaultPlan::nth(FaultKind::ReadTransient, n);
        let io = faulted_io(&plan);
        let mut sorter: StreamSorter<u32, u32> =
            StreamSorter::with_config_and_io(cfg(&base, SpillCompression::DeltaLz, true), io);
        for chunk in input.chunks(CHUNK) {
            sorter.push(chunk).unwrap();
        }
        let outcome = catch_unwind(AssertUnwindSafe(move || -> io::Result<Vec<(u32, u32)>> {
            Ok(sorter.finish()?.collect())
        }));
        match outcome {
            // The fault landed on a retried path (cursor open) or
            // never fired: the drain must then be exact.
            Ok(Ok(got)) => assert_eq!(got, want, "absorbed read fault changed bytes [{ctx}]"),
            Ok(Err(e)) => assert_attributable(&e, &ctx),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                assert!(
                    msg.contains("injected") || msg.contains("I/O error reading spilled run"),
                    "unattributable mid-merge panic [{ctx}]: {msg}"
                );
            }
        }
        assert_empty_and_remove(&base, &ctx);
    }
}

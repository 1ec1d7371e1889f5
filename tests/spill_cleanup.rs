//! Spill-file lifecycle: every spill file a stream engine creates must be
//! gone from disk after the engine is torn down — on normal completion,
//! on early drop, during panic unwinding, and after I/O errors — for the
//! sorter and the group-by, under synchronous and pipelined spilling and
//! both spill encodings.
//!
//! Each scenario points `spill_dir` at a test-owned base directory, so
//! "cleaned up" is simply "the base directory is empty again": the unique
//! per-engine spill subdirectory (and everything in it) is removed by the
//! engine's drop glue, which must also hold while the background writer
//! thread of the pipelined path is mid-flight.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use stream::{
    FaultKind, FaultPlan, SpillCompression, SpillIoHandle, StreamGroupBy, StreamSorter, SumAgg,
};

static CASE: AtomicU64 = AtomicU64::new(0);

/// A fresh, empty base directory unique to one scenario of one test run.
fn case_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pisort-cleanup-{tag}-{}-{}",
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
        "leaked spill state [{ctx}]: {leftovers:?}"
    );
    std::fs::remove_dir_all(base).ok();
}

fn cfg(base: &Path, compression: SpillCompression, synchronous: bool) -> dtsort::StreamConfig {
    dtsort::StreamConfig {
        spill_dir: Some(base.to_path_buf()),
        spill_compression: compression,
        synchronous_spill: synchronous,
        ..dtsort::StreamConfig::with_memory_budget(16 << 10)
    }
}

/// The (compression, spill-mode) matrix every scenario below runs under.
fn matrix() -> [(SpillCompression, bool); 4] {
    use SpillCompression::{DeltaLz, Off};
    [(Off, true), (Off, false), (DeltaLz, true), (DeltaLz, false)]
}

fn spilled_sorter(
    base: &Path,
    compression: SpillCompression,
    sync: bool,
) -> StreamSorter<u32, u32> {
    let mut s: StreamSorter<u32, u32> = StreamSorter::with_config(cfg(base, compression, sync));
    let batch: Vec<(u32, u32)> = (0..20_000u32).map(|i| (i.rotate_left(16), i)).collect();
    s.push(&batch).unwrap();
    assert!(s.stats().spilled_runs > 0, "premise: runs on disk");
    s
}

fn spilled_group_by(
    base: &Path,
    compression: SpillCompression,
    sync: bool,
) -> StreamGroupBy<u32, SumAgg> {
    let mut g: StreamGroupBy<u32, SumAgg> =
        StreamGroupBy::with_config(SumAgg, cfg(base, compression, sync));
    let batch: Vec<(u32, u64)> = (0..40_000u32).map(|i| (i.rotate_left(16), 1)).collect();
    g.push(&batch).unwrap();
    assert!(g.stats().spilled_runs > 0, "premise: partials on disk");
    g
}

#[test]
fn sorter_cleans_up_after_full_drain() {
    for (compression, sync) in matrix() {
        let ctx = format!("sorter drain compression={compression:?} sync={sync}");
        let base = case_dir("sorter-drain");
        let stream = spilled_sorter(&base, compression, sync).finish().unwrap();
        assert!(std::fs::read_dir(&base).unwrap().count() > 0, "[{ctx}]");
        let n = stream.count();
        assert_eq!(n, 20_000, "[{ctx}]");
        assert_empty_and_remove(&base, &ctx);
    }
}

#[test]
fn sorter_cleans_up_when_dropped_before_and_mid_merge() {
    for (compression, sync) in matrix() {
        // Dropped without ever calling finish (spills possibly in flight
        // to the writer thread).
        let ctx = format!("sorter early-drop compression={compression:?} sync={sync}");
        let base = case_dir("sorter-drop");
        drop(spilled_sorter(&base, compression, sync));
        assert_empty_and_remove(&base, &ctx);

        // Dropped with the merge only partially consumed: run cursors and
        // read-ahead prefetchers are still open on the spill files.
        let ctx = format!("sorter mid-merge-drop compression={compression:?} sync={sync}");
        let base = case_dir("sorter-middrop");
        let mut stream = spilled_sorter(&base, compression, sync).finish().unwrap();
        for _ in 0..100 {
            stream.next().unwrap();
        }
        drop(stream);
        assert_empty_and_remove(&base, &ctx);
    }
}

#[test]
fn group_by_cleans_up_after_full_drain_and_early_drop() {
    for (compression, sync) in matrix() {
        let ctx = format!("group-by drain compression={compression:?} sync={sync}");
        let base = case_dir("groupby-drain");
        let groups = spilled_group_by(&base, compression, sync).finish().unwrap();
        assert!(std::fs::read_dir(&base).unwrap().count() > 0, "[{ctx}]");
        let total: u64 = groups.map(|(_, c)| c).sum();
        assert_eq!(total, 40_000, "[{ctx}]");
        assert_empty_and_remove(&base, &ctx);

        let ctx = format!("group-by early-drop compression={compression:?} sync={sync}");
        let base = case_dir("groupby-drop");
        drop(spilled_group_by(&base, compression, sync));
        assert_empty_and_remove(&base, &ctx);

        let ctx = format!("group-by mid-merge-drop compression={compression:?} sync={sync}");
        let base = case_dir("groupby-middrop");
        let mut groups = spilled_group_by(&base, compression, sync).finish().unwrap();
        groups.next().unwrap();
        drop(groups);
        assert_empty_and_remove(&base, &ctx);
    }
}

#[test]
fn spill_files_are_cleaned_up_during_panic_unwinding() {
    // A panic on the owning thread unwinds through the engine's drop glue,
    // which must still stop the writer thread and remove the directory.
    for (compression, sync) in matrix() {
        for engine in ["sorter", "group-by"] {
            let ctx = format!("{engine} panic compression={compression:?} sync={sync}");
            let base = case_dir("panic");
            let thrown = catch_unwind(AssertUnwindSafe(|| {
                if engine == "sorter" {
                    let _s = spilled_sorter(&base, compression, sync);
                    panic!("consumer bug [{ctx}]");
                } else {
                    let _g = spilled_group_by(&base, compression, sync);
                    panic!("consumer bug [{ctx}]");
                }
            }));
            assert!(thrown.is_err(), "[{ctx}]");
            assert_empty_and_remove(&base, &ctx);
        }
    }
}

#[test]
fn spill_files_are_cleaned_up_after_merge_io_errors() {
    // Deleting a spill file out from under the sorter makes finish() fail
    // at cursor-open time; the error path must still tear down the spill
    // directory (including the surviving runs).
    for (compression, sync) in matrix() {
        let ctx = format!("io-error compression={compression:?} sync={sync}");
        let base = case_dir("ioerr");
        let mut sorter = spilled_sorter(&base, compression, sync);
        sorter.flush_spills().unwrap();
        // Remove one run file from the engine's unique spill subdirectory.
        let sub = std::fs::read_dir(&base).unwrap().next().unwrap().unwrap();
        let victim = std::fs::read_dir(sub.path())
            .unwrap()
            .next()
            .unwrap()
            .unwrap();
        std::fs::remove_file(victim.path()).unwrap();
        let err = sorter
            .finish()
            .err()
            .expect("missing run must fail the merge");
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "[{ctx}]");
        assert_empty_and_remove(&base, &ctx);
    }
}

#[test]
fn spill_files_are_cleaned_up_after_injected_faults() {
    // Deterministic injected failures ([`FaultPlan::nth`]) on each
    // spill-I/O hot spot — run write, fsync, cursor read, mid-merge
    // streaming read — under both formats and both spill modes.  Whether the
    // engine absorbs the fault, surfaces a typed error, or panics
    // mid-drain (the documented streaming-read contract), teardown must
    // leave the base directory empty.
    let scenarios: &[(&str, FaultKind, u64)] = &[
        ("write-enospc", FaultKind::WriteEnospc, 2),
        ("torn-write", FaultKind::TornWrite, 2),
        ("fsync", FaultKind::FsyncTransient, 1),
        ("read", FaultKind::ReadTransient, 1),
        ("mid-merge-read", FaultKind::ReadTransient, 40),
    ];
    for (compression, sync) in matrix() {
        for &(name, kind, n) in scenarios {
            let ctx = format!("fault {name} compression={compression:?} sync={sync}");
            let base = case_dir("fault");
            let handle = SpillIoHandle::blocking().with_faults(FaultPlan::nth(kind, n));
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut s: StreamSorter<u32, u32> =
                    StreamSorter::with_config_and_io(cfg(&base, compression, sync), handle);
                let batch: Vec<(u32, u32)> =
                    (0..20_000u32).map(|i| (i.rotate_left(16), i)).collect();
                let _ = s.push(&batch);
                // Drain partially on success, so drop still holds open
                // cursors; an Err from finish tears down immediately.
                if let Ok(mut stream) = s.finish() {
                    for _ in 0..200 {
                        stream.next();
                    }
                }
            }));
            if let Err(panic) = outcome {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                assert!(
                    msg.contains("injected") || msg.contains("I/O error reading spilled run"),
                    "unattributable panic [{ctx}]: {msg}"
                );
            }
            assert_empty_and_remove(&base, &ctx);
        }
    }
}

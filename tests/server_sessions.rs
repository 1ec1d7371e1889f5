//! Multi-tenant differential suite: N interleaved sessions over one shared
//! [`SortServer`] must be **byte-identical** to solo [`StreamSorter`] runs.
//!
//! The server changes *everything about the schedule* — sessions share the
//! work-stealing pool, their grants shrink live as peers are admitted (so
//! run boundaries land in different places than any solo run), and all
//! spill files live under one managed root.  None of that may leak into
//! the output: a stable external sort's result is a pure function of the
//! input, never of the run partitioning or the interleaving.  Each case in
//! this suite pushes the same inputs through (a) plain solo sorters with a
//! fixed budget and (b) a crowded server with reclaim-inducing admissions,
//! and asserts the outputs are identical, across the sync/pipelined spill
//! paths and both spill codecs, for integer- and string-keyed sessions.
//!
//! Thread counts: CI re-runs this suite under `RAYON_NUM_THREADS ∈ {1, 4}`
//! (the thread-matrix job), which covers schedule-dependence of the shared
//! pool at both concurrency levels.

use dtsort::{SortConfig, StreamConfig};
use server::{
    AdmissionPolicy, GovernorConfig, ServerConfig, Session, SessionError, SortServer,
    SpillManagerConfig,
};
use stream::{
    Engine, FaultKind, FaultPlan, SpillCompression, StreamGroupBy, StreamSorter,
    StringStreamSorter, SumAgg,
};
use workloads::dist::{generate_pairs_u32, paper_instances};

/// Sessions per scenario — enough that admissions force several reclaims.
const SESSIONS: usize = 6;
/// Records per session.
const N: usize = 12_000;
/// Interleave granularity (odd, so chunk boundaries drift across runs).
const CHUNK: usize = 499;

/// The spill-path matrix: sync/pipelined × spill codec.
fn spill_modes() -> Vec<(&'static str, bool, SpillCompression)> {
    vec![
        ("sync/off", true, SpillCompression::Off),
        ("sync/delta-lz", true, SpillCompression::DeltaLz),
        ("pipelined/off", false, SpillCompression::Off),
        ("pipelined/delta-lz", false, SpillCompression::DeltaLz),
    ]
}

/// One input per session, drawn from distinct paper distributions so the
/// sessions stress different code paths (uniform, skewed, heavy keys).
fn session_inputs() -> Vec<Vec<(u32, u32)>> {
    let dists = paper_instances();
    (0..SESSIONS)
        .map(|s| {
            let dist = &dists[s % dists.len()];
            generate_pairs_u32(dist, N, 0xD7_5EED ^ (s as u64))
        })
        .collect()
}

/// The string-keyed counterpart of [`session_inputs`]: 4096 distinct
/// 8-byte prefixes, each shared by many full keys, so the prefix
/// tie-break is exercised in every run and merge.
fn string_session_inputs(inputs: &[Vec<(u32, u32)>]) -> Vec<Vec<(String, u32)>> {
    inputs
        .iter()
        .map(|input| {
            input
                .iter()
                .map(|&(k, v)| (format!("{:03x}/item-{k}", k % 4096), v))
                .collect()
        })
        .collect()
}

/// A small base config that spills aggressively at test sizes.
fn base_config(synchronous: bool, codec: SpillCompression) -> StreamConfig {
    StreamConfig {
        synchronous_spill: synchronous,
        spill_compression: codec,
        sort: SortConfig {
            base_case_threshold: 64,
            ..SortConfig::default()
        },
        ..StreamConfig::default()
    }
}

/// Records a finished engine of type `E` yields.
type Output<E> = Vec<<<E as Engine>::Stream as Iterator>::Item>;

/// Solo reference: one engine per input, fixed private budget, default
/// (per-engine) spill directory.
fn solo_outputs<E: Engine>(
    inputs: &[Vec<(E::Key, E::Value)>],
    synchronous: bool,
    codec: SpillCompression,
    build: impl Fn(StreamConfig) -> E,
) -> Vec<Output<E>> {
    inputs
        .iter()
        .map(|input| {
            let mut cfg = base_config(synchronous, codec);
            cfg.memory_budget_bytes = 32 << 10;
            let mut sorter = build(cfg);
            for chunk in input.chunks(CHUNK) {
                sorter.push(chunk).unwrap();
            }
            sorter.finish().unwrap().collect()
        })
        .collect()
}

/// Shared-server run: all sessions admitted up front (each admission
/// reclaims budget from the live ones), pushes interleaved round-robin.
fn server_outputs<E: Engine>(
    inputs: &[Vec<(E::Key, E::Value)>],
    synchronous: bool,
    codec: SpillCompression,
    open: impl Fn(&SortServer, &str) -> std::io::Result<Session<E>>,
) -> Vec<Output<E>> {
    let server = SortServer::new(ServerConfig {
        governor: GovernorConfig {
            // Tight ceiling: sessions are granted far less than requested
            // and each admission shrinks every live grant.
            global_budget_bytes: SESSIONS * (24 << 10),
            session_floor_bytes: 8 << 10,
            admission: AdmissionPolicy::Reject,
        },
        spill: SpillManagerConfig::default(),
        base: base_config(synchronous, codec),
    })
    .unwrap();

    let mut sessions: Vec<_> = (0..inputs.len())
        .map(|s| open(&server, &format!("tenant-{s}")).unwrap())
        .collect();
    assert!(
        server.governor().reclaims() > 0,
        "crowding the governor must have reclaimed at least one grant"
    );

    // Round-robin interleave: session 0's chunk 0, session 1's chunk 0, …
    let max_chunks = inputs
        .iter()
        .map(|i| i.len().div_ceil(CHUNK))
        .max()
        .unwrap();
    for c in 0..max_chunks {
        for (s, input) in inputs.iter().enumerate() {
            let lo = c * CHUNK;
            if lo < input.len() {
                let hi = (lo + CHUNK).min(input.len());
                sessions[s].push(&input[lo..hi]).unwrap();
            }
        }
    }

    let outputs: Vec<Output<E>> = sessions
        .into_iter()
        .map(|s| s.finish().unwrap().collect())
        .collect();
    assert_eq!(server.governor().live_sessions(), 0);
    assert_eq!(server.spill_manager().charged_bytes(), 0);
    outputs
}

#[test]
fn interleaved_sessions_match_solo_runs_across_spill_modes() {
    let inputs = session_inputs();
    let string_inputs = string_session_inputs(&inputs);
    for (mode, synchronous, codec) in spill_modes() {
        let want = solo_outputs(&inputs, synchronous, codec, StreamSorter::with_config);
        let got = server_outputs(&inputs, synchronous, codec, |server, tenant| {
            server.open_sort::<u32, u32>(tenant, 64 << 10)
        });
        for (s, (got_s, want_s)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                got_s, want_s,
                "session {s} output differs from its solo run [{mode}]"
            );
        }
        let want = solo_outputs(
            &string_inputs,
            synchronous,
            codec,
            StringStreamSorter::with_config,
        );
        let got = server_outputs(&string_inputs, synchronous, codec, |server, tenant| {
            server.open_string_sort::<String, u32>(tenant, 64 << 10)
        });
        for (s, (got_s, want_s)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                got_s, want_s,
                "string session {s} output differs from its solo run [{mode}]"
            );
        }
    }
}

/// The same differential claim for the group-by engine: interleaved
/// group-by [`Session`]s must aggregate identically to solo runs
/// (exercised on one representative spill mode; the sorter matrix above
/// covers the codec/pipeline axes).
#[test]
fn interleaved_group_sessions_match_solo_runs() {
    let inputs = session_inputs();
    let server = SortServer::new(ServerConfig {
        governor: GovernorConfig {
            global_budget_bytes: SESSIONS * (24 << 10),
            session_floor_bytes: 8 << 10,
            admission: AdmissionPolicy::Reject,
        },
        spill: SpillManagerConfig::default(),
        base: base_config(false, SpillCompression::DeltaLz),
    })
    .unwrap();
    let mut sessions: Vec<_> = (0..inputs.len())
        .map(|s| {
            server
                .open_group::<u32, SumAgg>(&format!("tenant-{s}"), SumAgg, 64 << 10)
                .unwrap()
        })
        .collect();
    let max_chunks = inputs
        .iter()
        .map(|i| i.len().div_ceil(CHUNK))
        .max()
        .unwrap();
    for c in 0..max_chunks {
        for (s, input) in inputs.iter().enumerate() {
            let lo = c * CHUNK;
            if lo < input.len() {
                let hi = (lo + CHUNK).min(input.len());
                for &(k, v) in &input[lo..hi] {
                    sessions[s].push_record(k, v as u64).unwrap();
                }
            }
        }
    }
    for (s, (session, input)) in sessions.into_iter().zip(&inputs).enumerate() {
        let got = session.finish_vec().unwrap();
        // Solo reference: an in-memory sum per key, emitted in key order.
        let mut want = std::collections::BTreeMap::new();
        for &(k, v) in input {
            *want.entry(k).or_insert(0u64) += v as u64;
        }
        let want: Vec<(u32, u64)> = want.into_iter().collect();
        assert_eq!(got, want, "group session {s} differs from solo aggregation");
    }
}

/// Cross-session fault isolation over the shared spill I/O handle:
///
/// * session A gets a one-shot injected spill-write panic — the writer
///   thread catches it, the run is reclaimed and rewritten, and A's
///   output is byte-identical (a writer panic in one session must not
///   poison the shared [`stream::SpillIoHandle`]);
/// * session C gets a dense permanent ENOSPC plan — it fails loudly with
///   a typed [`SessionError`] naming its own tenant, kind preserved;
/// * group-by session D gets the same kind of plan and fails the same
///   way;
/// * clean session B, interleaved with all three, stays byte-identical to
///   a solo run, and every lease/grant is reclaimed after the drops.
#[test]
fn faulted_sessions_stay_isolated_from_clean_peers() {
    let inputs = session_inputs();
    let (input_a, input_b, input_c) = (&inputs[0], &inputs[1], &inputs[2]);
    let input_d: Vec<(u32, u64)> = inputs[3].iter().map(|&(k, v)| (k, v as u64)).collect();
    let sorted = |input: &[(u32, u32)]| {
        let mut want = input.to_vec();
        want.sort_by_key(|r| r.0);
        want
    };

    let server = SortServer::new(ServerConfig {
        governor: GovernorConfig {
            global_budget_bytes: 3 * (24 << 10),
            session_floor_bytes: 8 << 10,
            admission: AdmissionPolicy::Reject,
        },
        spill: SpillManagerConfig::default(),
        base: base_config(false, SpillCompression::Off),
    })
    .unwrap();

    let panic_plan = FaultPlan::nth(FaultKind::WritePanic, 1);
    let mut a = server
        .open(
            "tenant-a",
            64 << 10,
            Some(panic_plan.clone()),
            StreamSorter::<u32, u32>::with_config_and_io,
        )
        .unwrap();
    let mut b = server.open_sort::<u32, u32>("tenant-b", 64 << 10).unwrap();
    let enospc_plan = FaultPlan::seeded_kinds(0xBAD_5EED, 2, &[FaultKind::WriteEnospc]);
    let mut c = server
        .open(
            "tenant-c",
            64 << 10,
            Some(enospc_plan),
            StreamSorter::<u32, u32>::with_config_and_io,
        )
        .unwrap();
    let group_plan = FaultPlan::seeded_kinds(0x6_5EED, 2, &[FaultKind::WriteEnospc]);
    let mut d = server
        .open("tenant-d", 64 << 10, Some(group_plan), |cfg, io| {
            StreamGroupBy::<u32, SumAgg>::with_config_and_io(SumAgg, cfg, io)
        })
        .unwrap();

    // Round-robin interleave.  A's single loud error (the caught writer
    // panic) is tolerated and pushing continues; C stops at its first
    // (permanent) error; B must never error.
    let mut a_errors = 0usize;
    let mut c_error: Option<std::io::Error> = None;
    let mut d_error: Option<std::io::Error> = None;
    let max_chunks = inputs[..3]
        .iter()
        .map(|i| i.len().div_ceil(CHUNK))
        .max()
        .unwrap();
    for chunk in 0..max_chunks {
        let lo = chunk * CHUNK;
        let hi = (lo + CHUNK).min(N);
        if lo >= N {
            break;
        }
        if let Err(e) = a.push(&input_a[lo..hi]) {
            assert!(
                e.to_string().contains("panicked"),
                "A's only error must be the converted writer panic: {e}"
            );
            a_errors += 1;
        }
        b.push(&input_b[lo..hi])
            .expect("the clean session must never see a peer's fault");
        if c_error.is_none() {
            if let Err(e) = c.push(&input_c[lo..hi]) {
                c_error = Some(e);
            }
        }
        if d_error.is_none() {
            if let Err(e) = d.push(&input_d[lo..hi]) {
                d_error = Some(e);
            }
        }
    }

    assert_eq!(panic_plan.injected(), 1, "A's panic fault must have fired");
    assert!(a_errors <= 1, "the caught panic surfaces at most once");
    let got_a = a.finish_vec().expect("A recovers after the caught panic");
    assert_eq!(
        got_a,
        sorted(input_a),
        "worker panic must not cost session A a record"
    );

    let err = c_error.expect("the dense ENOSPC plan must fail session C");
    assert_eq!(
        err.kind(),
        std::io::ErrorKind::StorageFull,
        "kind preserved"
    );
    let session_err = SessionError::from_io(&err).expect("typed SessionError");
    assert_eq!(session_err.tenant, "tenant-c", "failure names its session");
    drop(c);

    let err = d_error.expect("the dense ENOSPC plan must fail group session D");
    assert_eq!(
        err.kind(),
        std::io::ErrorKind::StorageFull,
        "kind preserved"
    );
    let session_err = SessionError::from_io(&err).expect("typed SessionError");
    assert_eq!(session_err.tenant, "tenant-d", "failure names its session");
    drop(d);

    let got_b: Vec<(u32, u32)> = b.finish().unwrap().collect();
    assert_eq!(
        got_b,
        sorted(input_b),
        "session B must be byte-identical despite faulted neighbors"
    );

    assert_eq!(server.governor().live_sessions(), 0, "grants reclaimed");
    assert_eq!(server.spill_manager().live_leases(), 0, "leases reclaimed");
    assert_eq!(
        server.spill_manager().charged_bytes(),
        0,
        "charges released"
    );
}

/// `shrink_to_budget` can spill like `push` can, so it goes through the
/// same session quarantine and disk-quota charge.  Session A fills most of
/// its full grant without spilling; admitting peer B shrinks that grant,
/// and A's `shrink_to_budget` spills the buffered run right away.  With a
/// fault on that first spill write, the error is a [`SessionError`] naming
/// A's tenant with the ENOSPC kind kept; without one, the spilled bytes
/// are charged to the quota before the call returns.
#[test]
fn shrink_to_budget_spills_through_quarantine_and_quota() {
    for faulted in [true, false] {
        let server = SortServer::new(ServerConfig {
            governor: GovernorConfig {
                global_budget_bytes: 64 << 10,
                session_floor_bytes: 8 << 10,
                admission: AdmissionPolicy::Reject,
            },
            spill: SpillManagerConfig::default(),
            base: base_config(true, SpillCompression::Off),
        })
        .unwrap();
        let faults = faulted.then(|| FaultPlan::nth(FaultKind::WriteEnospc, 0));
        let mut a = server
            .open(
                "tenant-a",
                64 << 10,
                faults,
                StreamSorter::<u32, u32>::with_config_and_io,
            )
            .unwrap();
        // 3000 records fit the full grant's run (64 KiB / 2 shares / 8 B =
        // 4096 records) but not a halved one.
        let input: Vec<(u32, u32)> = (0..3000u32).map(|i| (i.rotate_left(11), i)).collect();
        a.push(&input).unwrap();
        assert_eq!(
            a.stats().spilled_runs,
            0,
            "nothing spills at the full grant"
        );
        let _b = server.open_sort::<u32, u32>("tenant-b", 64 << 10).unwrap();
        assert!(
            a.granted_bytes() <= 32 << 10,
            "admitting B shrinks A's grant"
        );
        let res = a.shrink_to_budget();
        if faulted {
            let err = res.expect_err("the faulted spill write must fail");
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::StorageFull,
                "kind preserved"
            );
            let session_err = SessionError::from_io(&err).expect("typed SessionError");
            assert_eq!(session_err.tenant, "tenant-a", "failure names its session");
        } else {
            res.unwrap();
            assert_eq!(a.stats().spilled_runs, 1, "the shrunk grant forces a spill");
            assert!(
                server.spill_manager().charged_bytes() > 0,
                "the spill is charged to the quota as soon as it is durable"
            );
        }
    }
}

//! The session front end: one engine per session, resources leased from
//! the shared governor and spill manager.

use crate::governor::{BudgetLease, GovernorConfig, MemoryGovernor};
use crate::metrics::m;
use crate::spillmgr::{SpillDirLease, SpillDirManager, SpillManagerConfig};
use dtsort::{IntegerKey, StreamConfig};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use stream::{
    Aggregator, Engine, FaultPlan, SpillIoHandle, SpillValue, StreamGroupBy, StreamSorter,
    StreamStats, StringKey, StringStreamSorter,
};

/// A session-scoped failure: the I/O error that broke *one* session,
/// tagged with the session id and tenant so a multi-tenant caller can
/// attribute the blast radius.  The source's [`io::ErrorKind`] is
/// preserved (an injected ENOSPC still reads as
/// [`io::ErrorKind::StorageFull`]), and a typed [`stream::SpillError`]
/// underneath stays reachable through [`SessionError::source_io`].
///
/// Quarantine contract: the failure is scoped to the session that hit it.
/// The shared spill I/O pool, the governor's grant pool and every other
/// session keep running; the failed session's budget lease and spill
/// subdirectory are still reclaimed when it drops.
#[derive(Debug)]
pub struct SessionError {
    /// Server-assigned session id (matches its `session-<id>` spill dir).
    pub session_id: u64,
    /// The tenant that opened the session.
    pub tenant: String,
    source: io::Error,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "session {:08} (tenant {}) failed: {}",
            self.session_id, self.tenant, self.source
        )
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

impl SessionError {
    pub fn new(session_id: u64, tenant: String, source: io::Error) -> Self {
        Self {
            session_id,
            tenant,
            source,
        }
    }

    /// Repacks into an [`io::Error`] that keeps the source's kind and
    /// carries `self` in the boxed slot ([`SessionError::from_io`] gets it
    /// back).
    pub fn into_io(self) -> io::Error {
        let kind = self.source.kind();
        io::Error::new(kind, self)
    }

    /// The underlying I/O error (e.g. to downcast further into
    /// [`stream::SpillError`]).
    pub fn source_io(&self) -> &io::Error {
        &self.source
    }

    /// Recovers the typed error from an [`io::Error`] produced by
    /// [`SessionError::into_io`].
    pub fn from_io(e: &io::Error) -> Option<&SessionError> {
        e.get_ref()?.downcast_ref()
    }
}

/// Tuning knobs of the [`SortServer`].
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// The global memory governor's ceiling, floor and admission policy.
    pub governor: GovernorConfig,
    /// The shared spill root and disk quota.
    pub spill: SpillManagerConfig,
    /// Template for every session's [`StreamConfig`] (compression, spill
    /// mode, sort tuning, ...).  The budget and spill directory fields are
    /// overridden per session by the leases.
    pub base: StreamConfig,
}

/// A multi-session sort service over the streaming engines.
///
/// Each opened [`Session`] owns one engine (any [`Engine`]:
/// [`StreamSorter`], [`StreamGroupBy`] or a string-keyed
/// [`stream::StringKeys`]) wired to two leases: a [`BudgetLease`] from
/// the global [`MemoryGovernor`] (a *live* grant — admitting more
/// sessions shrinks it, and the engine reacts by spilling early) and a
/// private spill subdirectory from the shared [`SpillDirManager`] (so
/// sessions can never trample each other's runs).  All sessions share the
/// process-wide work-stealing pool.
///
/// ```no_run
/// use server::{ServerConfig, SortServer};
///
/// let server = SortServer::new(ServerConfig::default()).unwrap();
/// let mut session = server.open_sort::<u64, u64>("tenant-a", 64 << 20).unwrap();
/// session.push(&[(3, 0), (1, 1)]).unwrap();
/// let sorted: Vec<(u64, u64)> = session.finish().unwrap().collect();
/// assert_eq!(sorted, vec![(1, 1), (3, 0)]);
/// ```
pub struct SortServer {
    governor: Arc<MemoryGovernor>,
    spill: Arc<SpillDirManager>,
    base: StreamConfig,
    session_seq: AtomicU64,
}

impl SortServer {
    pub fn new(cfg: ServerConfig) -> io::Result<Self> {
        // One I/O handle for the whole server, shared by every session.
        Ok(Self {
            governor: MemoryGovernor::new(cfg.governor),
            spill: SpillDirManager::new(cfg.spill, SpillIoHandle::blocking())?,
            base: cfg.base,
            session_seq: AtomicU64::new(0),
        })
    }

    /// The shared memory governor (grants, reclaim and fairness counters).
    pub fn governor(&self) -> &Arc<MemoryGovernor> {
        &self.governor
    }

    /// The shared spill-directory manager (root, quota, charge meter).
    pub fn spill_manager(&self) -> &Arc<SpillDirManager> {
        &self.spill
    }

    /// Admits a session requesting `bytes` of budget (blocking or failing
    /// per the governor's admission policy), leases its grant and spill
    /// subdirectory, and builds its engine with `build` from the session's
    /// [`StreamConfig`] (the base template with the leased budget handle
    /// and spill directory wired in) and its view of the shared spill I/O
    /// handle.
    ///
    /// With `faults`, that view injects the deterministic [`FaultPlan`]
    /// (chaos testing).  The decorator is per *handle*, so faults — and
    /// any broken state they leave behind — stay scoped to the returned
    /// session; every other session keeps the clean handle.
    pub fn open<E: Engine>(
        &self,
        tenant: &str,
        bytes: usize,
        faults: Option<FaultPlan>,
        build: impl FnOnce(StreamConfig, SpillIoHandle) -> E,
    ) -> io::Result<Session<E>> {
        let lease = self.governor.admit(tenant, bytes)?;
        let id = self.session_seq.fetch_add(1, Ordering::Relaxed);
        let dir = self.spill.lease(id)?;
        if obs::enabled() {
            m().sessions_opened.incr();
        }
        let mut cfg = self.base.clone();
        cfg.memory_budget_bytes = lease.handle().get();
        cfg.budget = Some(lease.handle());
        cfg.spill_dir = Some(dir.path().to_path_buf());
        let io = match faults {
            Some(plan) => dir.io().with_faults(plan),
            None => dir.io().clone(),
        };
        Ok(Session {
            engine: build(cfg, io),
            core: SessionCore {
                id,
                tenant: tenant.to_string(),
                lease,
                dir,
                charged: 0,
                failed: false,
                opened: Instant::now(),
            },
        })
    }

    /// Opens a sorting session over integer keys (values may be pod or
    /// variable-length, per [`SpillValue`]).
    pub fn open_sort<K: IntegerKey, V: SpillValue>(
        &self,
        tenant: &str,
        bytes: usize,
    ) -> io::Result<Session<StreamSorter<K, V>>> {
        self.open(tenant, bytes, None, StreamSorter::with_config_and_io)
    }

    /// Opens a streaming group-by session.
    pub fn open_group<K: IntegerKey, G: Aggregator>(
        &self,
        tenant: &str,
        agg: G,
        bytes: usize,
    ) -> io::Result<Session<StreamGroupBy<K, G>>> {
        self.open(tenant, bytes, None, |cfg, io| {
            StreamGroupBy::with_config_and_io(agg, cfg, io)
        })
    }

    /// Opens a sorting session over string keys (`String` / `Vec<u8>`).
    pub fn open_string_sort<K: StringKey, V: SpillValue>(
        &self,
        tenant: &str,
        bytes: usize,
    ) -> io::Result<Session<StringStreamSorter<K, V>>> {
        self.open(tenant, bytes, None, StringStreamSorter::with_config_and_io)
    }
}

/// The leases + accounting of a session.  Dropping it ends the session:
/// the budget returns to the governor's pool (waking queued admissions),
/// the spill subdirectory is removed, and the session's open-to-end
/// latency is recorded.
struct SessionCore {
    id: u64,
    tenant: String,
    lease: BudgetLease,
    dir: SpillDirLease,
    /// Durable spill bytes already charged against the disk quota.
    charged: u64,
    /// Quarantine flag: the first I/O failure marks the session failed
    /// (and bumps `server.sessions_failed` exactly once).
    failed: bool,
    opened: Instant,
}

impl SessionCore {
    /// Quarantines the session: records the failure (once) and wraps the
    /// error as a [`SessionError`] naming this session, preserving the
    /// source's [`io::ErrorKind`].  Only this session sees the error —
    /// the shared I/O handle and its neighbors are untouched, and the leases
    /// still release on drop.
    fn fail(&mut self, source: io::Error) -> io::Error {
        if !self.failed {
            self.failed = true;
            if obs::enabled() {
                m().sessions_failed.incr();
            }
        }
        if SessionError::from_io(&source).is_some() {
            return source;
        }
        SessionError::new(self.id, self.tenant.clone(), source).into_io()
    }

    /// Charges the growth of the engine's durable spill bytes against the
    /// shared disk quota.
    fn charge_spill(&mut self, spilled_bytes: u64) -> io::Result<()> {
        if spilled_bytes > self.charged {
            if let Err(e) = self.dir.charge(spilled_bytes - self.charged) {
                return Err(self.fail(e));
            }
            self.charged = spilled_bytes;
        }
        Ok(())
    }
}

impl Drop for SessionCore {
    fn drop(&mut self) {
        if obs::enabled() {
            m().session_ns.record_duration(self.opened.elapsed());
        }
    }
}

/// A session: one engine bound to its leases, opened by
/// [`SortServer::open`] (or its `open_sort` / `open_group` /
/// `open_string_sort` shorthands).
///
/// Every engine call that can spill goes through the session's
/// quarantine: an I/O failure fails *this* session only (the error comes
/// back as a [`SessionError`] with the source kind preserved; sibling
/// sessions on the shared backend are unaffected), and spilled bytes are
/// charged to the disk quota as soon as they are durable.
pub struct Session<E> {
    engine: E,
    core: SessionCore,
}

impl<E: Engine> Session<E> {
    /// Runs an engine call that may spill: an error quarantines the
    /// session, success charges the spill bytes it made durable.
    fn spilling(&mut self, call: impl FnOnce(&mut E) -> io::Result<()>) -> io::Result<()> {
        if let Err(e) = call(&mut self.engine) {
            return Err(self.core.fail(e));
        }
        self.core.charge_spill(self.engine.stats().spilled_bytes)
    }

    /// Appends a batch.
    pub fn push(&mut self, records: &[(E::Key, E::Value)]) -> io::Result<()> {
        self.spilling(|e| e.push(records))
    }

    /// Appends one record.
    pub fn push_record(&mut self, key: E::Key, value: E::Value) -> io::Result<()> {
        self.spilling(|e| e.push_record(key, value))
    }

    /// Applies a shrunk grant right now (see
    /// [`stream::RunEngine::shrink_to_budget`]); `push` re-checks per
    /// chunk anyway.
    pub fn shrink_to_budget(&mut self) -> io::Result<()> {
        self.spilling(E::shrink_to_budget)
    }

    /// The session's current grant in bytes (live: may shrink).
    pub fn granted_bytes(&self) -> usize {
        self.core.lease.granted_bytes()
    }

    /// Engine counters (see [`StreamStats`]).
    pub fn stats(&self) -> &StreamStats {
        self.engine.stats()
    }

    /// Finishes the engine; the leases ride inside the returned stream and
    /// are released when it drops.
    pub fn finish(mut self) -> io::Result<SessionStream<E::Stream>> {
        self.spilling(E::flush_spills)?;
        match self.engine.finish() {
            Ok(inner) => Ok(SessionStream {
                inner,
                _core: self.core,
            }),
            Err(e) => Err(self.core.fail(e)),
        }
    }

    /// [`Session::finish`], materialized (a sorter uses its parallel
    /// merge).
    pub fn finish_vec(mut self) -> io::Result<Vec<<E::Stream as Iterator>::Item>> {
        self.spilling(E::flush_spills)?;
        self.engine.finish_vec().map_err(|e| self.core.fail(e))
    }
}

/// Output of a finished [`Session`]; holds the session's leases until
/// dropped.
pub struct SessionStream<S> {
    inner: S,
    _core: SessionCore,
}

impl<S: Iterator> Iterator for SessionStream<S> {
    type Item = S::Item;

    fn next(&mut self) -> Option<S::Item> {
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<S: ExactSizeIterator> ExactSizeIterator for SessionStream<S> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::AdmissionPolicy;
    use stream::SumAgg;

    fn tiny_server(global: usize, floor: usize) -> SortServer {
        SortServer::new(ServerConfig {
            governor: GovernorConfig {
                global_budget_bytes: global,
                session_floor_bytes: floor,
                admission: AdmissionPolicy::Reject,
            },
            spill: SpillManagerConfig::default(),
            base: StreamConfig {
                sort: dtsort::SortConfig {
                    base_case_threshold: 64,
                    ..Default::default()
                },
                ..StreamConfig::default()
            },
        })
        .unwrap()
    }

    #[test]
    fn interleaved_sessions_sort_spill_and_release() {
        let server = tiny_server(64 << 10, 8 << 10);
        let mut a = server.open_sort::<u32, u32>("alice", 64 << 10).unwrap();
        // Admitting bob reclaims part of alice's grant; alice reacts by
        // spilling early, not by failing.
        let mut b = server.open_sort::<u32, u32>("bob", 64 << 10).unwrap();
        assert!(a.granted_bytes() < 64 << 10);
        assert_eq!(server.governor().reclaims(), 1);
        let input_a: Vec<(u32, u32)> = (0..20_000u32).map(|i| (i.rotate_left(9), i)).collect();
        let input_b: Vec<(u32, u32)> = (0..20_000u32).map(|i| (i.rotate_left(21), i)).collect();
        for (ca, cb) in input_a.chunks(997).zip(input_b.chunks(997)) {
            a.push(ca).unwrap();
            b.push(cb).unwrap();
        }
        assert!(a.stats().spilled_runs > 0 && b.stats().spilled_runs > 0);
        assert!(
            server.spill_manager().charged_bytes() > 0,
            "durable spill bytes must be charged to the quota"
        );
        let sort = |mut v: Vec<(u32, u32)>| {
            v.sort_by_key(|r| r.0);
            v
        };
        let got_a: Vec<(u32, u32)> = a.finish().unwrap().collect();
        assert_eq!(got_a, sort(input_a));
        let got_b = b.finish_vec().unwrap();
        assert_eq!(got_b, sort(input_b));
        assert_eq!(server.governor().live_sessions(), 0);
        assert_eq!(server.governor().bytes_granted(), 0);
        assert_eq!(server.spill_manager().charged_bytes(), 0);
    }

    #[test]
    fn group_and_string_sessions_share_the_same_plumbing() {
        let server = tiny_server(128 << 10, 8 << 10);
        let mut gb = server
            .open_group::<u32, SumAgg>("g", SumAgg, 32 << 10)
            .unwrap();
        for i in 0..30_000u64 {
            gb.push_record((i % 64) as u32, i).unwrap();
        }
        assert!(gb.stats().spilled_runs > 0);
        let sums = gb.finish_vec().unwrap();
        assert_eq!(sums.len(), 64);

        let mut s = server
            .open_string_sort::<String, u32>("s", 32 << 10)
            .unwrap();
        for i in 0..5_000u32 {
            s.push_record(format!("key-{:05}", i % 500), i).unwrap();
        }
        let got = s.finish_vec().unwrap();
        assert_eq!(got.len(), 5_000);
        assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(server.governor().live_sessions(), 0);
    }

    #[test]
    fn spill_quota_surfaces_as_a_push_error() {
        let server = SortServer::new(ServerConfig {
            governor: GovernorConfig {
                global_budget_bytes: 16 << 10,
                session_floor_bytes: 8 << 10,
                admission: AdmissionPolicy::Reject,
            },
            spill: SpillManagerConfig {
                root: None,
                quota_bytes: 4 << 10,
            },
            base: StreamConfig::default(),
        })
        .unwrap();
        let mut s = server.open_sort::<u32, u32>("hog", 16 << 10).unwrap();
        let batch: Vec<(u32, u32)> = (0..200_000u32).map(|i| (i.rotate_left(7), i)).collect();
        let assert_typed_quota = |e: &io::Error| {
            assert!(e.to_string().contains("quota"), "got: {e}");
            assert_eq!(e.kind(), io::ErrorKind::QuotaExceeded);
            let session = SessionError::from_io(e).expect("typed SessionError");
            assert_eq!(session.tenant, "hog");
            assert!(
                stream::SpillError::from_io(session.source_io()).is_some(),
                "SpillError must stay reachable under the session wrapper"
            );
        };
        let mut failed = false;
        for chunk in batch.chunks(4096) {
            if let Err(e) = s.push(chunk) {
                assert_typed_quota(&e);
                failed = true;
                break;
            }
        }
        // The pipelined writer reports durable bytes with a lag, so the
        // error may surface on a later push or at finish; force the issue.
        if !failed {
            let err = s.finish().err().expect("quota must be enforced");
            assert_typed_quota(&err);
        }
    }
}

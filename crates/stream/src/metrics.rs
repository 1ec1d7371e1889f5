//! Registry handles for the streaming engines' metrics.
//!
//! One lazily initialized bundle of handles into [`obs::global`], shared
//! by the run engine, the spill pipeline, and the prefetchers.
//! Every call site gates on [`obs::enabled`] *before* touching [`m`], so a
//! fully disabled run never registers anything — the first `m()` call is
//! the registration, and it only happens on an enabled path.
//!
//! Metric names are the stable external contract (the benches and the CI
//! smoke validation select by these names):
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `stream.records_pushed` | counter | records accepted by the sorter |
//! | `stream.spilled_runs` | counter | sorter runs durable on disk |
//! | `stream.spilled_bytes` | counter | sorter bytes durable on disk |
//! | `stream.sort_ns` | histogram | per-run DovetailSort latency |
//! | `stream.run_fill_pct` | histogram | run occupancy at spill time (budget-share utilization) |
//! | `groupby.records_pushed` | counter | records accepted by the group-by |
//! | `groupby.spilled_runs` | counter | aggregated runs durable on disk |
//! | `groupby.spilled_bytes` | counter | group-by bytes durable on disk |
//! | `groupby.partial_aggregates` | counter | partials produced (spilled + tail) |
//! | `groupby.aggregate_ns` | histogram | per-run semisort + fold latency |
//! | `spill.backpressure_ns` | histogram | producer wait on the full pipeline |
//! | `spill.write_ns` | histogram | per-run write (encode + flush + fsync) |
//! | `spill.fsync_ns` | histogram | per-run flush + `sync_data` alone |
//! | `spill.bytes_written` | counter | bytes through `write_run` (both engines, sync + pipelined; post-compression) |
//! | `spill.raw_bytes` | counter | pre-compression (flat-encoding) bytes through `write_run`; the ratio against `spill.bytes_written` is the compression win |
//! | `spill.queue_depth` | gauge | runs in flight to the writer thread |
//! | `prefetch.refill_ns` | histogram | per-block decode latency (reader thread) |
//! | `prefetch.stall_ns` | histogram | merge-side wait for the next block |
//! | `prefetch.blocks_prefetched` | counter | blocks decoded ahead of the merge |
//! | `prefetch.blocks_consumed` | counter | blocks the merge actually took |
//! | `prefetch.disabled_merges` | counter | merges that wanted read-ahead but ran without it (fan-in above `MAX_PREFETCH_RUNS`, or per-run budget below `MIN_PREFETCH_RUN_BUDGET`) |
//! | `prefetch.capped_merges` | counter | merges whose read-ahead was disabled *specifically* by the `MAX_PREFETCH_RUNS` fan-in cap |
//! | `spill.retries` | counter | transient spill-I/O failures retried (writes and merge-side reads) |
//! | `spill.degraded_syncs` | counter | synchronous spills performed while pipelining was on probation after a failure |
//! | `fault.injected` | counter | faults injected by an active [`crate::FaultPlan`] (zero outside chaos runs) |

use std::sync::OnceLock;

/// One engine's own metric set: `stream.*` for the sorter, `groupby.*`
/// for the group-by ([`crate::RunReducer`] picks which).
pub struct EngineMetrics {
    pub records_pushed: obs::Counter,
    pub spilled_runs: obs::Counter,
    pub spilled_bytes: obs::Counter,
    /// Per-run reduce latency (`stream.sort_ns` / `groupby.aggregate_ns`).
    pub reduce_ns: obs::Histogram,
    /// Run occupancy at spill time (`stream.run_fill_pct`; sorter only).
    pub run_fill_pct: Option<obs::Histogram>,
}

pub struct StreamMetrics {
    pub sort: EngineMetrics,
    pub groupby: EngineMetrics,
    pub gb_partial_aggregates: obs::Counter,

    pub backpressure_ns: obs::Histogram,
    pub write_ns: obs::Histogram,
    pub fsync_ns: obs::Histogram,
    pub bytes_written: obs::Counter,
    pub raw_bytes_spilled: obs::Counter,
    pub queue_depth: obs::Gauge,

    pub prefetch_refill_ns: obs::Histogram,
    pub prefetch_stall_ns: obs::Histogram,
    pub blocks_prefetched: obs::Counter,
    pub blocks_consumed: obs::Counter,
    pub prefetch_disabled_merges: obs::Counter,
    pub prefetch_capped_merges: obs::Counter,

    pub spill_retries: obs::Counter,
    pub degraded_syncs: obs::Counter,
    pub fault_injected: obs::Counter,
}

/// The handle bundle, registered in [`obs::global`] on first use.  Call
/// only from behind an `obs::enabled()` check.
pub(crate) fn m() -> &'static StreamMetrics {
    static METRICS: OnceLock<StreamMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = obs::global();
        StreamMetrics {
            sort: EngineMetrics {
                records_pushed: reg.counter("stream.records_pushed"),
                spilled_runs: reg.counter("stream.spilled_runs"),
                spilled_bytes: reg.counter("stream.spilled_bytes"),
                reduce_ns: reg.histogram("stream.sort_ns"),
                run_fill_pct: Some(reg.histogram("stream.run_fill_pct")),
            },
            groupby: EngineMetrics {
                records_pushed: reg.counter("groupby.records_pushed"),
                spilled_runs: reg.counter("groupby.spilled_runs"),
                spilled_bytes: reg.counter("groupby.spilled_bytes"),
                reduce_ns: reg.histogram("groupby.aggregate_ns"),
                run_fill_pct: None,
            },
            gb_partial_aggregates: reg.counter("groupby.partial_aggregates"),
            backpressure_ns: reg.histogram("spill.backpressure_ns"),
            write_ns: reg.histogram("spill.write_ns"),
            fsync_ns: reg.histogram("spill.fsync_ns"),
            bytes_written: reg.counter("spill.bytes_written"),
            raw_bytes_spilled: reg.counter("spill.raw_bytes"),
            queue_depth: reg.gauge("spill.queue_depth"),
            prefetch_refill_ns: reg.histogram("prefetch.refill_ns"),
            prefetch_stall_ns: reg.histogram("prefetch.stall_ns"),
            blocks_prefetched: reg.counter("prefetch.blocks_prefetched"),
            blocks_consumed: reg.counter("prefetch.blocks_consumed"),
            prefetch_disabled_merges: reg.counter("prefetch.disabled_merges"),
            prefetch_capped_merges: reg.counter("prefetch.capped_merges"),
            spill_retries: reg.counter("spill.retries"),
            degraded_syncs: reg.counter("spill.degraded_syncs"),
            fault_injected: reg.counter("fault.injected"),
        }
    })
}

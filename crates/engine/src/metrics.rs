//! aiql-engine's telemetry handles, resolved once against the global
//! [`aiql_telemetry::Registry`] and recorded lock-free afterwards.

use aiql_telemetry::trace::SpanNode;
use aiql_telemetry::{Counter, Gauge, Histogram};
use std::sync::OnceLock;

/// Handles for every engine-layer metric.
pub(crate) struct EngineMetrics {
    /// Statements executed through the engine's funnel — every entry
    /// point, session and one-shot alike.
    pub statements: Counter,
    /// `Session::prepare` wall time (cache hits and misses alike).
    pub prepare_micros: Histogram,
    /// Full statement execution wall time, one sample per funnel
    /// statement (failed ones included).
    pub execute_micros: Histogram,
    /// Scheduler planning (pattern scoring) time per statement.
    pub plan_micros: Histogram,
    /// Per-pattern data-query scan time.
    pub scan_micros: Histogram,
    /// Tuple-set create/extend/merge time per join step.
    pub join_micros: Histogram,
    /// Result assembly (projection, aggregation, sort) time.
    pub score_micros: Histogram,
    /// Executions at or above the slow-query threshold.
    pub slow_queries: Counter,
    /// Rows streamed out of cursors.
    pub cursor_rows: Counter,
    /// `Cursor::fetch` batches served.
    pub cursor_fetches: Counter,
    /// Shard-scan tasks submitted to the execution pool.
    pub pool_tasks: Counter,
    /// Per-task wait between submission and a worker picking it up.
    pub pool_queue_wait_micros: Histogram,
    /// Worker threads alive in the execution pool.
    pub pool_workers: Gauge,
    /// Per-shard scan wall time (one sample per scattered shard scan).
    pub shard_scan_micros: Histogram,
    /// Rows returned per scattered shard scan.
    pub shard_scan_rows: Histogram,
}

pub(crate) fn metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = aiql_telemetry::global();
        EngineMetrics {
            statements: r.counter("aiql_engine_statements_total"),
            prepare_micros: r.histogram("aiql_engine_prepare_micros"),
            execute_micros: r.histogram("aiql_engine_execute_micros"),
            plan_micros: r.histogram("aiql_engine_plan_micros"),
            scan_micros: r.histogram("aiql_engine_scan_micros"),
            join_micros: r.histogram("aiql_engine_join_micros"),
            score_micros: r.histogram("aiql_engine_score_micros"),
            slow_queries: r.counter("aiql_engine_slow_queries_total"),
            cursor_rows: r.counter("aiql_engine_cursor_rows_total"),
            cursor_fetches: r.counter("aiql_engine_cursor_fetches_total"),
            pool_tasks: r.counter("aiql_engine_pool_tasks"),
            pool_queue_wait_micros: r.histogram("aiql_engine_pool_queue_wait_micros"),
            pool_workers: r.gauge("aiql_engine_pool_workers"),
            shard_scan_micros: r.histogram("aiql_engine_shard_scan_micros"),
            shard_scan_rows: r.histogram("aiql_engine_shard_scan_rows"),
        }
    })
}

/// Folds a finished execution trace into the per-phase histograms: every
/// direct child of the root is one recorded phase sample.
pub(crate) fn record_phases(m: &EngineMetrics, tree: &SpanNode) {
    for c in &tree.children {
        match c.name.as_str() {
            "plan" => m.plan_micros.record(c.micros),
            "join" => m.join_micros.record(c.micros),
            "score" => m.score_micros.record(c.micros),
            s if s.starts_with("scan:") => m.scan_micros.record(c.micros),
            _ => {}
        }
    }
}

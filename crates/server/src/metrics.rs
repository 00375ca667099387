//! aiql-server's telemetry handles, resolved once against the global
//! [`aiql_telemetry::Registry`] and recorded lock-free afterwards.
//!
//! Per-tenant counters use dynamic names
//! (`aiql_server_tenant_<what>_total{tenant}` spelled as
//! `aiql_server_tenant_executes_total_<tenant>`), resolved through the
//! registry on first use per tenant.

use aiql_telemetry::{Counter, Gauge, Histogram};
use std::sync::OnceLock;

/// Handles for every server-layer metric (see docs/METRICS.md).
pub(crate) struct ServerMetrics {
    /// Connections accepted over the server's lifetime.
    pub connections_opened: Counter,
    /// Connections torn down (EOF, error, drain, or reap).
    pub connections_closed: Counter,
    /// Connections currently alive.
    pub active_connections: Gauge,
    /// Sessions opened over the server's lifetime.
    pub sessions_opened: Counter,
    /// Sessions currently open across all tenants.
    pub active_sessions: Gauge,
    /// Server-side cursors currently open.
    pub active_cursors: Gauge,
    /// `Prepare` requests served successfully.
    pub prepares: Counter,
    /// `Execute` requests served successfully.
    pub executes: Counter,
    /// `FetchPage` requests served successfully.
    pub fetches: Counter,
    /// Wall time of one `Execute` (bind + engine run), microseconds.
    pub execute_micros: Histogram,
    /// Wall time of one `FetchPage` (rows pulled + encoded), microseconds.
    pub fetch_micros: Histogram,
    /// Payload bytes received from clients.
    pub bytes_in: Counter,
    /// Payload bytes queued to clients.
    pub bytes_out: Counter,
    /// Requests rejected with `QuotaExceeded`.
    pub quota_rejections: Counter,
    /// Statements cancelled by the wall-clock budget (execute or fetch).
    pub timeouts: Counter,
    /// Connections dropped for protocol violations (bad CRC, oversized
    /// frame, unknown opcode) plus wrong-state requests answered with a
    /// typed error.
    pub protocol_errors: Counter,
    /// Outbox flushes where a socket write timed out because the client
    /// was not reading (at most one per flush).
    pub backpressure_stalls: Counter,
    /// Sessions reaped for idleness.
    pub idle_reaped: Counter,
}

pub(crate) fn metrics() -> &'static ServerMetrics {
    static METRICS: OnceLock<ServerMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = aiql_telemetry::global();
        ServerMetrics {
            connections_opened: r.counter("aiql_server_connections_opened_total"),
            connections_closed: r.counter("aiql_server_connections_closed_total"),
            active_connections: r.gauge("aiql_server_active_connections"),
            sessions_opened: r.counter("aiql_server_sessions_opened_total"),
            active_sessions: r.gauge("aiql_server_active_sessions"),
            active_cursors: r.gauge("aiql_server_active_cursors"),
            prepares: r.counter("aiql_server_prepares_total"),
            executes: r.counter("aiql_server_executes_total"),
            fetches: r.counter("aiql_server_fetches_total"),
            execute_micros: r.histogram("aiql_server_execute_micros"),
            fetch_micros: r.histogram("aiql_server_fetch_micros"),
            bytes_in: r.counter("aiql_server_bytes_in_total"),
            bytes_out: r.counter("aiql_server_bytes_out_total"),
            quota_rejections: r.counter("aiql_server_quota_rejections_total"),
            timeouts: r.counter("aiql_server_timeouts_total"),
            protocol_errors: r.counter("aiql_server_protocol_errors_total"),
            backpressure_stalls: r.counter("aiql_server_backpressure_stalls_total"),
            idle_reaped: r.counter("aiql_server_idle_reaped_total"),
        }
    })
}

/// Per-tenant execute counter, resolved dynamically. Tenant names are
/// sanitized to metric-safe characters.
pub(crate) fn tenant_executes(tenant: &str) -> Counter {
    let safe: String = tenant
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    aiql_telemetry::global().counter(&format!("aiql_server_tenant_executes_total_{safe}"))
}

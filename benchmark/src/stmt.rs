//! One in-process statement: `Session::prepare`, then execute, then drain
//! the cursor, each timed from outside and, on a traced run, recorded as a
//! span. The engine's per-statement accounting is folded into a tally.

use crate::common::{drain, Row};
use crate::trace::{timed, Tracer};
use aiql_engine::{EngineError, Session};
use std::time::Duration;

/// Outside timings of one statement.
#[derive(Debug, Clone, Copy, Default)]
pub struct StmtTimes {
    pub prepare: Duration,
    pub execute: Duration,
    pub fetch: Duration,
}

impl StmtTimes {
    pub fn total(&self) -> Duration {
        self.prepare + self.execute + self.fetch
    }
}

/// Engine-side accounting summed over many statements: the phase tree of
/// every execution (`Cursor::trace`) and its scan profiles
/// (`Cursor::stats`).
#[derive(Debug, Clone, Default)]
pub struct EngineTally {
    pub executions: u64,
    pub phase_root_us: u64,
    pub plan_us: u64,
    pub scan_us: u64,
    pub join_us: u64,
    pub score_us: u64,
    pub other_us: u64,
    pub rows_scanned: u64,
    pub rows_matched: u64,
    pub blocks_total: u64,
    pub blocks_pruned: u64,
    pub result_rows: u64,
}

impl EngineTally {
    fn add(&mut self, cursor: &aiql_engine::Cursor) {
        self.executions += 1;
        self.result_rows += cursor.remaining() as u64;
        for scan in &cursor.stats().scans {
            let p = &scan.profile;
            self.rows_scanned += p.rows_scanned;
            self.rows_matched += p.rows_matched;
            self.blocks_total += p.blocks_total;
            self.blocks_pruned += p.blocks_pruned;
        }
        if let Some(root) = cursor.trace() {
            self.phase_root_us += root.micros;
            for c in &root.children {
                let slot = match c.name.as_str() {
                    "plan" => &mut self.plan_us,
                    "join" => &mut self.join_us,
                    "score" => &mut self.score_us,
                    n if n.starts_with("scan:") => &mut self.scan_us,
                    _ => &mut self.other_us,
                };
                *slot += c.micros;
            }
        }
    }

    pub fn merge(&mut self, other: &EngineTally) {
        self.executions += other.executions;
        self.phase_root_us += other.phase_root_us;
        self.plan_us += other.plan_us;
        self.scan_us += other.scan_us;
        self.join_us += other.join_us;
        self.score_us += other.score_us;
        self.other_us += other.other_us;
        self.rows_scanned += other.rows_scanned;
        self.rows_matched += other.rows_matched;
        self.blocks_total += other.blocks_total;
        self.blocks_pruned += other.blocks_pruned;
        self.result_rows += other.result_rows;
    }

    /// Writes the engine and rdb ratios into `m`.
    pub fn report(&self, m: &mut std::collections::BTreeMap<&'static str, f64>) {
        let per = |us: u64| us as f64 / self.executions.max(1) as f64;
        m.insert("engine.plan_us", per(self.plan_us));
        m.insert("engine.scan_us", per(self.scan_us));
        m.insert("engine.join_us", per(self.join_us));
        m.insert("engine.score_us", per(self.score_us));
        let attributed = self.plan_us + self.scan_us + self.join_us + self.score_us + self.other_us;
        m.insert(
            "engine.unattributed_ratio",
            self.phase_root_us.saturating_sub(attributed) as f64 / self.phase_root_us.max(1) as f64,
        );
        m.insert(
            "rdb.rows_scanned_per_result_row",
            self.rows_scanned as f64 / self.result_rows.max(1) as f64,
        );
        m.insert(
            "rdb.rows_matched_per_scanned",
            self.rows_matched as f64 / self.rows_scanned.max(1) as f64,
        );
        m.insert(
            "rdb.blocks_pruned_ratio",
            self.blocks_pruned as f64 / self.blocks_total.max(1) as f64,
        );
    }
}

/// Runs `source` on `session` and returns its rows (in engine order) or
/// the engine error, with the outside timings. `op` names the statement
/// in the trace.
pub fn run(
    session: &Session,
    source: &str,
    tracer: Option<&Tracer>,
    op: u64,
    tally: &mut EngineTally,
) -> (Result<Vec<Row>, EngineError>, StmtTimes) {
    let mut times = StmtTimes::default();
    let (prepared, t) = timed(tracer, 0, op, "core", "Session::prepare", |id| {
        let p = session.prepare(source);
        if let (Some(tr), Ok(p)) = (tracer, &p) {
            if let Some(node) = p.trace() {
                tr.attach_phases(id, op, std::time::Instant::now() - t_of(node), node);
            }
        }
        p
    });
    times.prepare = t;
    let prepared = match prepared {
        Ok(p) => p,
        Err(e) => return (Err(e), times),
    };
    let (cursor, t) = timed(tracer, 0, op, "engine", "Prepared::execute", |id| {
        let c = prepared.execute();
        if let (Some(tr), Ok(c)) = (tracer, &c) {
            if let Some(node) = c.trace() {
                tr.attach_phases(id, op, std::time::Instant::now() - t_of(node), node);
            }
        }
        c
    });
    times.execute = t;
    let mut cursor = match cursor {
        Ok(c) => c,
        Err(e) => return (Err(e), times),
    };
    tally.add(&cursor);
    let (rows, t) = timed(tracer, 0, op, "engine", "Cursor::fetch", |_| {
        drain(&mut cursor)
    });
    times.fetch = t;
    (Ok(rows), times)
}

/// A phase tree's duration, used to place it so that it ends when the
/// call that produced it returned.
fn t_of(node: &aiql_telemetry::trace::SpanNode) -> Duration {
    Duration::from_micros(node.micros)
}

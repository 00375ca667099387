//! Investigation sessions: prepared parameterized queries, snapshot
//! pinning, plan caching, `EXPLAIN`, and streaming cursors.
//!
//! The paper's workload is an *interactive* investigation: an analyst
//! iterates on near-identical queries — the same pattern with different
//! agent / time-window / attribute constants — against a live store. A
//! [`Session`] makes each iteration cheap:
//!
//! - [`Session::open`] binds the session to a [`SharedStore`] and owns the
//!   **snapshot-pinning policy**: by default every statement pins the
//!   freshest published snapshot (each query sees the newest acknowledged
//!   data); [`Session::pin`] switches to repeatable reads — every
//!   statement sees one fixed snapshot until [`Session::refresh`] moves
//!   the pin forward or [`Session::unpin`] returns to per-statement mode.
//! - [`Session::prepare`] parses, analyzes, and validates a query **once**
//!   (through the session's plan cache, so preparing the same text twice
//!   is a cache hit), returning a [`Prepared`] statement whose `$name`
//!   placeholders are bound per execution.
//! - [`Prepared::bind`] + [`Bound::execute`] produce a [`Cursor`]:
//!   pull-based row delivery with `limit`/`offset`, no forced full
//!   materialization on the consumer side.
//! - [`Bound::explain`] runs the statement with instrumentation and
//!   reports the chosen access paths, partition/zone-map pruning,
//!   estimated-vs-actual rows, and the plan cache's hit/miss counters.
//!
//! # Examples
//!
//! ```
//! use aiql_engine::{Params, Session};
//! use aiql_model::{AgentId, Dataset, Entity, EntityKind, Event, OpType, Timestamp};
//! use aiql_storage::{EventStore, SharedStore, StoreConfig};
//!
//! let mut data = Dataset::new();
//! let a = AgentId(1);
//! let bash = data.add_entity(Entity::process(1.into(), a, "bash", 7));
//! let hist = data.add_entity(Entity::file(2.into(), a, "/home/u/.bash_history"));
//! data.add_event(Event::new(
//!     1.into(), a, bash, OpType::Read, hist, EntityKind::File,
//!     Timestamp::from_ymd(2017, 1, 1).unwrap(),
//! ));
//! let store = SharedStore::new(EventStore::ingest(&data, StoreConfig::partitioned()).unwrap());
//!
//! let session = Session::open(&store);
//! let stmt = session
//!     .prepare("agentid = $agent proc p read file f[$fname] return p, f")
//!     .unwrap();
//! let cursor = stmt
//!     .bind(Params::new().set("agent", 1).set("fname", "%.bash_history"))
//!     .unwrap()
//!     .execute()
//!     .unwrap();
//! let rows: Vec<_> = cursor.collect();
//! assert_eq!(rows.len(), 1);
//! ```

use crate::error::EngineError;
use crate::pattern::{EngineStats, ScanRecord};
use crate::result::EngineResult;
use crate::scoring;
use crate::{Engine, EngineConfig, Outcome, PlanSlot};
use aiql_core::{CacheStats, ParamSpec, PlanCache, PreparedQuery, QueryContext, QueryKind};
use aiql_rdb::{Row, ScanProfile};
use aiql_storage::{SharedStore, StoreSnapshot, StoreStamp};
use aiql_telemetry::trace::SpanNode;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Parameter values for [`Prepared::bind`], built fluently:
/// `Params::new().set("agent", 9).set("pname", "%cmd.exe")`.
pub use aiql_core::ParamValues as Params;

/// Default number of compiled statements a session's plan cache retains.
pub const SESSION_PLAN_CACHE_CAPACITY: usize = 256;

/// Shared state behind a session and every statement prepared on it.
struct SessionCore {
    store: SharedStore,
    config: EngineConfig,
    /// `Some` while the session is pinned to one snapshot (repeatable
    /// reads); `None` in per-statement mode.
    pinned: Mutex<Option<StoreSnapshot>>,
    cache: Mutex<PlanCache>,
    /// Statement-level physical plans, keyed by normalized source like the
    /// plan cache, so re-preparing (or `Session::run`ning) identical text
    /// reuses the plan a previous `Prepared` already filled. Coarsely
    /// bounded: cleared wholesale when it outgrows the plan cache.
    plans: Mutex<std::collections::HashMap<String, Arc<PlanSlot>>>,
    /// Per-statement wall-clock budget in nanoseconds (0 = none). Shared by
    /// all clones; overlays (never widens) the engine config's own budget.
    timeout_nanos: AtomicU64,
}

impl SessionCore {
    /// The snapshot the next statement runs against under the current
    /// pinning policy.
    fn snapshot(&self) -> StoreSnapshot {
        self.pinned
            .lock()
            .expect("session pin lock poisoned")
            .clone()
            .unwrap_or_else(|| self.store.read())
    }

    /// The engine configuration for the next execution: the session config
    /// with the statement timeout folded into the budget (tightest wins).
    fn exec_config(&self) -> EngineConfig {
        let mut config = self.config;
        let nanos = self.timeout_nanos.load(Ordering::Relaxed);
        if nanos > 0 {
            let t = Duration::from_nanos(nanos);
            config.budget = Some(config.budget.map_or(t, |b| b.min(t)));
        }
        config
    }
}

/// An investigation session over a [`SharedStore`].
///
/// Cheap to clone (all clones share the plan cache and pinning policy) and
/// safe to use from multiple threads; see the [module docs](self) for the
/// lifecycle.
#[derive(Clone)]
pub struct Session {
    core: Arc<SessionCore>,
}

impl Session {
    /// Opens a session with AIQL's default engine configuration
    /// (relationship scheduling + partition parallelism) and per-statement
    /// snapshot pinning.
    pub fn open(store: &SharedStore) -> Session {
        Session::with_config(store, EngineConfig::aiql())
    }

    /// Opens a session with an explicit engine configuration.
    pub fn with_config(store: &SharedStore, config: EngineConfig) -> Session {
        Session {
            core: Arc::new(SessionCore {
                store: store.clone(),
                config,
                pinned: Mutex::new(None),
                cache: Mutex::new(PlanCache::new(SESSION_PLAN_CACHE_CAPACITY)),
                plans: Mutex::new(std::collections::HashMap::new()),
                timeout_nanos: AtomicU64::new(0),
            }),
        }
    }

    /// Caps every statement on this session (and its clones) at `timeout`
    /// of wall-clock time, builder style. Execution is cancelled at the
    /// engine's cooperative checkpoints — between partition scans, join
    /// steps, and cursor-page assembly — and surfaces as
    /// [`EngineError::Timeout`]. The cap composes with an engine-config
    /// budget: the tighter of the two wins.
    pub fn with_timeout(self, timeout: Duration) -> Session {
        self.set_statement_timeout(Some(timeout));
        self
    }

    /// Sets or clears the per-statement timeout (see
    /// [`Session::with_timeout`]).
    pub fn set_statement_timeout(&self, timeout: Option<Duration>) {
        let nanos = timeout.map_or(0, |t| t.as_nanos().min(u64::MAX as u128) as u64);
        self.core.timeout_nanos.store(nanos, Ordering::Relaxed);
    }

    /// The per-statement timeout currently in force, if any.
    pub fn statement_timeout(&self) -> Option<Duration> {
        match self.core.timeout_nanos.load(Ordering::Relaxed) {
            0 => None,
            n => Some(Duration::from_nanos(n)),
        }
    }

    /// Pins the session to the currently published snapshot: every
    /// following statement sees exactly this store version (repeatable
    /// reads for an investigation in progress), regardless of concurrent
    /// ingestion. Returns the pinned stamp.
    pub fn pin(&self) -> StoreStamp {
        let snap = self.core.store.read();
        let stamp = snap.stamp();
        *self.core.pinned.lock().expect("session pin lock poisoned") = Some(snap);
        stamp
    }

    /// Moves a pinned session forward to the newest published snapshot
    /// (and pins it). Equivalent to [`Session::pin`]; named for intent.
    pub fn refresh(&self) -> StoreStamp {
        self.pin()
    }

    /// Returns to per-statement pinning: each statement reads the newest
    /// published snapshot at execution time.
    pub fn unpin(&self) {
        *self.core.pinned.lock().expect("session pin lock poisoned") = None;
    }

    /// The stamp the next statement will observe: the pinned snapshot's,
    /// or the currently published one in per-statement mode.
    pub fn stamp(&self) -> StoreStamp {
        self.core.snapshot().stamp()
    }

    /// Whether the session is pinned to a fixed snapshot.
    pub fn is_pinned(&self) -> bool {
        self.core
            .pinned
            .lock()
            .expect("session pin lock poisoned")
            .is_some()
    }

    /// Compiles `source` into a reusable [`Prepared`] statement: lex,
    /// parse, and structural analysis happen here — once — and never again
    /// for any number of bind/execute iterations. Queries may declare
    /// `$name` placeholders (see [`aiql_core::prepare`]). The session's
    /// plan cache makes re-preparing identical (whitespace-normalized)
    /// text a lookup.
    pub fn prepare(&self, source: &str) -> Result<Prepared, EngineError> {
        // Collect the compile-phase tree (lex/parse/analyze — empty on a
        // plan-cache hit). `finish` runs before `?` so a compile error
        // never leaves an armed collector on this thread.
        aiql_telemetry::trace::begin("prepare");
        let compiled = self
            .core
            .cache
            .lock()
            .expect("plan cache lock poisoned")
            .get_or_compile(source);
        let trace = aiql_telemetry::trace::finish();
        let stmt = compiled?;
        if let Some(t) = &trace {
            crate::metrics::metrics().prepare_micros.record(t.micros);
        }
        // Share the statement's physical-plan slot across re-prepares of
        // the same (normalized) text, so cache hits skip planning too.
        let plan = {
            let mut plans = self.core.plans.lock().expect("plan map poisoned");
            if plans.len() >= 2 * SESSION_PLAN_CACHE_CAPACITY {
                plans.clear();
            }
            plans
                .entry(aiql_core::normalize_source(source))
                .or_default()
                .clone()
        };
        Ok(Prepared {
            stmt,
            core: self.core.clone(),
            plan,
            trace: trace.map(Arc::new),
        })
    }

    /// One-shot convenience: prepare (through the plan cache), execute
    /// with no parameters, and materialize the full result.
    pub fn run(&self, source: &str) -> Result<EngineResult, EngineError> {
        Ok(self.prepare(source)?.execute()?.into_result())
    }

    /// Plan-cache counters (hits, misses, entries, capacity).
    pub fn cache_stats(&self) -> CacheStats {
        self.core
            .cache
            .lock()
            .expect("plan cache lock poisoned")
            .stats()
    }
}

/// A compiled statement bound to a [`Session`].
///
/// Created by [`Session::prepare`]; executing it never re-parses the
/// source. Clone freely — clones share the compiled plan.
///
/// # Examples
///
/// ```
/// use aiql_engine::Session;
/// use aiql_storage::{EventStore, SharedStore, StoreConfig};
///
/// let store = SharedStore::new(EventStore::empty(StoreConfig::partitioned()).unwrap());
/// let session = Session::open(&store);
/// let stmt = session.prepare("proc p read file f return p, f").unwrap();
/// assert!(stmt.params().is_empty());
/// assert_eq!(stmt.execute().unwrap().count(), 0);
/// ```
#[derive(Clone)]
pub struct Prepared {
    stmt: Arc<PreparedQuery>,
    core: Arc<SessionCore>,
    /// Statement-level physical-plan cache: the first execution plans
    /// (under `ScoreModel::DataStatistics` that means measuring real
    /// selectivities against the store), every later execution — any
    /// binding — reuses the cached ordering. Clones share the slot.
    plan: Arc<PlanSlot>,
    /// Compile-phase trace collected by [`Session::prepare`].
    trace: Option<Arc<SpanNode>>,
}

impl Prepared {
    /// The original source text.
    pub fn source(&self) -> &str {
        self.stmt.source()
    }

    /// The compile-phase trace of the `prepare` call that produced this
    /// statement: a `prepare` root with `lex`/`parse`/`analyze` children
    /// on a compile, and no children on a plan-cache hit.
    pub fn trace(&self) -> Option<&SpanNode> {
        self.trace.as_deref()
    }

    /// The declared `$name` parameters, in first-occurrence order.
    pub fn params(&self) -> &[ParamSpec] {
        self.stmt.params()
    }

    /// Whether this statement's physical plan has been cached by an
    /// earlier execution — its own, or that of another `Prepared` for the
    /// same (normalized) source on this session.
    pub fn is_planned(&self) -> bool {
        self.plan.is_planned()
    }

    /// Binds values to the placeholders, producing an executable
    /// statement. Binding is semantically identical to substituting each
    /// value's literal spelling into the source text — `$x` bound to
    /// `"%cmd%"` behaves as a LIKE, to `"cmd.exe"` as an equality — but
    /// skips the lexer and parser entirely.
    pub fn bind(&self, params: Params) -> Result<Bound, EngineError> {
        let ctx = self.stmt.bind(&params)?;
        Ok(Bound {
            ctx: Arc::new(ctx),
            core: self.core.clone(),
            plan: self.plan.clone(),
            source: self.stmt.source().to_string(),
            params: params.render(),
            offset: 0,
            limit: None,
        })
    }

    /// Executes a parameterless statement. Statements with placeholders
    /// must go through [`Prepared::bind`].
    pub fn execute(&self) -> Result<Cursor, EngineError> {
        self.bind(Params::new())?.execute()
    }

    /// Explains a parameterless statement (see [`Bound::explain`]).
    pub fn explain(&self) -> Result<Explain, EngineError> {
        self.bind(Params::new())?.explain()
    }
}

/// A prepared statement with all parameters bound, ready to execute.
///
/// `limit`/`offset` shape the cursor without materializing intermediate
/// copies.
pub struct Bound {
    ctx: Arc<QueryContext>,
    core: Arc<SessionCore>,
    plan: Arc<PlanSlot>,
    /// Source text and rendered parameters, kept for the slow-query log.
    source: String,
    params: String,
    offset: usize,
    limit: Option<usize>,
}

impl Bound {
    /// Yields at most `n` rows from the cursor.
    pub fn limit(mut self, n: usize) -> Bound {
        self.limit = Some(n);
        self
    }

    /// Skips the first `n` rows before yielding any.
    pub fn offset(mut self, n: usize) -> Bound {
        self.offset = n;
        self
    }

    /// The analyzed context this binding will execute.
    pub fn ctx(&self) -> &QueryContext {
        &self.ctx
    }

    /// Executes under the session's pinning policy and returns a pull-based
    /// [`Cursor`] over the result rows.
    ///
    /// The execution is traced: the cursor carries an `execute`-rooted
    /// phase tree ([`Cursor::trace`]) whose children are the scheduler's
    /// `plan`, one `scan:<pattern>` per data query, the `join` steps, and
    /// the final `score` (result assembly). Statements at or above the
    /// [`aiql_telemetry::slowlog`] threshold are recorded there with their
    /// source, bound parameters, and scan profile.
    pub fn execute(self) -> Result<Cursor, EngineError> {
        let snapshot = self.core.snapshot();
        let stamp = snapshot.stamp();
        let (ran, trace) = Engine::with_config(&snapshot, self.core.exec_config())
            .with_plan_slot(&self.plan)
            .funnel(&self.ctx, || (self.source, self.params));
        Ok(Cursor::new(ran?, stamp, self.offset, self.limit, trace))
    }

    /// Executes with instrumentation and reports the physical plan that
    /// actually ran: access paths per scan, partition and zone-map pruning
    /// counts, estimated-vs-actual rows per pattern, and the session plan
    /// cache's counters. (`EXPLAIN ANALYZE` semantics: the statement runs
    /// to completion against the session's current snapshot.)
    pub fn explain(&self) -> Result<Explain, EngineError> {
        let snapshot = self.core.snapshot();
        let stamp = snapshot.stamp();
        let estimates = scoring::estimate_rows(&snapshot, &self.ctx);
        let (ran, _) = Engine::with_config(&snapshot, self.core.exec_config())
            .with_plan_slot(&self.plan)
            .funnel(&self.ctx, || (self.source.clone(), self.params.clone()));
        let outcome = ran?;
        let patterns = (0..self.ctx.patterns.len())
            .map(|idx| {
                let actual = outcome
                    .stats
                    .matches
                    .iter()
                    .rev()
                    .find(|(p, _)| *p == idx)
                    .map(|(_, n)| *n as u64);
                PatternPlan {
                    pattern: idx,
                    estimated_rows: estimates.get(idx).copied().unwrap_or(0),
                    actual_rows: actual,
                    scans: outcome
                        .stats
                        .scans
                        .iter()
                        .filter(|s| s.pattern == idx)
                        .cloned()
                        .collect(),
                }
            })
            .collect();
        Ok(Explain {
            kind: self.ctx.kind,
            stamp,
            elapsed: outcome.elapsed,
            rows_returned: outcome.result.rows.len(),
            data_queries: outcome.stats.data_queries,
            rows_scanned: outcome.stats.rows_scanned,
            patterns,
            cache: self
                .core
                .cache
                .lock()
                .expect("plan cache lock poisoned")
                .stats(),
        })
    }
}

/// Pull-based row delivery for one statement execution.
///
/// The cursor owns the snapshot-consistent result of its execution and
/// hands rows out incrementally (each `next` *moves* a row out — nothing
/// is cloned, and a consumer that stops early never touches the tail).
/// `limit`/`offset` set on the [`Bound`] are applied during iteration.
///
/// # Examples
///
/// ```
/// use aiql_engine::Session;
/// use aiql_storage::{EventStore, SharedStore, StoreConfig};
///
/// let store = SharedStore::new(EventStore::empty(StoreConfig::partitioned()).unwrap());
/// let session = Session::open(&store);
/// let mut cursor = session
///     .prepare("proc p read file f return p, f")
///     .unwrap()
///     .execute()
///     .unwrap();
/// assert_eq!(cursor.columns(), ["p", "f"]);
/// assert!(cursor.next().is_none());
/// ```
pub struct Cursor {
    columns: Vec<String>,
    rows: std::vec::IntoIter<Row>,
    remaining: usize,
    stats: EngineStats,
    stamp: StoreStamp,
    elapsed: Duration,
    trace: Option<SpanNode>,
}

impl Cursor {
    fn new(
        outcome: Outcome,
        stamp: StoreStamp,
        offset: usize,
        limit: Option<usize>,
        trace: Option<SpanNode>,
    ) -> Cursor {
        let Outcome {
            result,
            stats,
            elapsed,
        } = outcome;
        let total = result.rows.len();
        let remaining = limit
            .unwrap_or(usize::MAX)
            .min(total.saturating_sub(offset));
        let mut rows = result.rows.into_iter();
        if offset > 0 {
            // `advance_by` is unstable; nth(offset-1) drops the skipped
            // prefix without cloning anything.
            let _ = rows.nth(offset - 1);
        }
        Cursor {
            columns: result.columns,
            rows,
            remaining,
            stats,
            stamp,
            elapsed,
            trace,
        }
    }

    /// Result column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Pulls up to `n` rows in one batch (fewer at the end of the result).
    pub fn fetch(&mut self, n: usize) -> Vec<Row> {
        self.fetch_while(n, |_| true)
    }

    /// Like [`Cursor::fetch`], but stops before the first row `take`
    /// rejects; that row stays in the cursor for the next fetch.
    pub fn fetch_while(&mut self, n: usize, mut take: impl FnMut(&Row) -> bool) -> Vec<Row> {
        crate::metrics::metrics().cursor_fetches.inc();
        let mut out = Vec::with_capacity(n.min(self.remaining));
        while out.len() < n && self.remaining > 0 {
            if !self.rows.as_slice().first().is_some_and(&mut take) {
                break;
            }
            out.extend(self.next());
        }
        out
    }

    /// Rows not yet pulled (after `limit`/`offset`).
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// The store version the whole execution observed.
    pub fn stamp(&self) -> StoreStamp {
        self.stamp
    }

    /// Execution statistics of the run that produced this cursor.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Wall-clock execution time of the run.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// The execution's phase tree: an `execute` root over the scheduler's
    /// `plan`, per-pattern `scan:<name>` phases, `join` steps, and the
    /// final `score` (see [`aiql_telemetry::trace`]).
    pub fn trace(&self) -> Option<&SpanNode> {
        self.trace.as_ref()
    }

    /// Drains the remaining rows into a materialized [`EngineResult`].
    pub fn into_result(mut self) -> EngineResult {
        let mut rows = Vec::with_capacity(self.remaining);
        rows.extend(self.by_ref());
        EngineResult {
            columns: self.columns,
            rows,
        }
    }
}

impl Iterator for Cursor {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        crate::metrics::metrics().cursor_rows.inc();
        self.rows.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// The physical plan of one pattern's data query, with estimation error
/// made visible.
#[derive(Debug, Clone)]
pub struct PatternPlan {
    /// Pattern index in query order.
    pub pattern: usize,
    /// Estimated match rows, from the statistical scorer's store stats.
    pub estimated_rows: u64,
    /// Rows the pattern actually matched (`None` if the scheduler pruned
    /// the pattern away before it executed, e.g. after an empty partner).
    pub actual_rows: Option<u64>,
    /// Every storage scan the pattern issued, in execution order.
    pub scans: Vec<ScanRecord>,
}

/// The result of [`Bound::explain`]: what physically ran and what it cost.
#[derive(Debug, Clone)]
pub struct Explain {
    pub kind: QueryKind,
    /// Snapshot the explained execution observed.
    pub stamp: StoreStamp,
    pub elapsed: Duration,
    pub rows_returned: usize,
    pub data_queries: u32,
    pub rows_scanned: u64,
    pub patterns: Vec<PatternPlan>,
    /// Session plan-cache counters at explain time.
    pub cache: CacheStats,
}

impl Explain {
    /// Every access path that ran, deduplicated (e.g. `["index-probe",
    /// "columnar"]`).
    pub fn access_paths(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for p in &self.patterns {
            for s in &p.scans {
                for path in s.profile.paths() {
                    if !out.contains(&path) {
                        out.push(path);
                    }
                }
            }
        }
        out
    }

    /// Summed profile across all scans.
    pub fn total_profile(&self) -> ScanProfile {
        let mut total = ScanProfile::default();
        for p in &self.patterns {
            for s in &p.scans {
                total.merge(&s.profile);
            }
        }
        total
    }
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "EXPLAIN {:?} query @ snapshot {{epoch {}, {} events}}: \
             {} rows in {:.3} ms ({} data queries, {} rows scanned)",
            self.kind,
            self.stamp.epoch,
            self.stamp.events,
            self.rows_returned,
            self.elapsed.as_secs_f64() * 1e3,
            self.data_queries,
            self.rows_scanned,
        )?;
        for p in &self.patterns {
            let actual = match p.actual_rows {
                Some(n) => n.to_string(),
                None => "not executed".to_string(),
            };
            writeln!(
                f,
                "  pattern {}: estimated {} rows, actual {}",
                p.pattern, p.estimated_rows, actual
            )?;
            for s in &p.scans {
                let prof = &s.profile;
                let paths = prof.paths().join("+");
                write!(
                    f,
                    "    {} ({}): {} · partitions {}/{}",
                    s.table,
                    s.target.name(),
                    if paths.is_empty() { "no scan" } else { &paths },
                    prof.partitions_scanned,
                    prof.partitions_total,
                )?;
                if prof.blocks_total > 0 {
                    write!(
                        f,
                        " · blocks {}/{} zone-pruned",
                        prof.blocks_pruned, prof.blocks_total
                    )?;
                }
                writeln!(
                    f,
                    " · rows {} scanned -> {} matched",
                    prof.rows_scanned, prof.rows_matched
                )?;
                if let Some(sc) = &s.scatter {
                    write!(
                        f,
                        "      scatter: shards {}/{} · workers {}",
                        sc.shards_scanned, sc.shards_total, sc.workers,
                    )?;
                    if sc.colocated {
                        write!(f, " · shard-local")?;
                    } else {
                        let order = sc
                            .scatter_order
                            .iter()
                            .zip(&sc.rows_per_shard)
                            .map(|(s, r)| format!("s{s}:{r}"))
                            .collect::<Vec<_>>()
                            .join(" ");
                        write!(
                            f,
                            " · order [{order}] · queue wait {} µs",
                            sc.queue_wait_micros
                        )?;
                    }
                    writeln!(f)?;
                }
            }
        }
        writeln!(
            f,
            "  plan cache: {} hits / {} misses ({:.0}% hit rate, {}/{} entries)",
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate() * 100.0,
            self.cache.entries,
            self.cache.capacity,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::ScanTarget;
    use aiql_model::{AgentId, Dataset, Entity, EntityKind, Event, OpType, Timestamp};
    use aiql_storage::{EventStore, StoreConfig};

    fn dataset() -> Dataset {
        let mut d = Dataset::new();
        let t0 = Timestamp::from_ymd(2017, 1, 1).unwrap().0;
        let s = 1_000_000_000i64;
        for agent in 1..=2u32 {
            let a = AgentId(agent);
            let base = agent as u64 * 100;
            let p = d.add_entity(Entity::process(
                (base + 1).into(),
                a,
                format!("tool{agent}.exe"),
                10,
            ));
            for i in 0..6u64 {
                let f = d.add_entity(Entity::file(
                    (base + 10 + i).into(),
                    a,
                    format!("/data/{agent}/{i}"),
                ));
                d.add_event(
                    Event::new(
                        (base + 50 + i).into(),
                        a,
                        p,
                        if i % 2 == 0 {
                            OpType::Write
                        } else {
                            OpType::Read
                        },
                        f,
                        EntityKind::File,
                        Timestamp(
                            t0 + (i as i64 % 2) * aiql_rdb::partition::NANOS_PER_DAY + i as i64 * s,
                        ),
                    )
                    .with_amount(1000 * i as i64),
                );
            }
        }
        d
    }

    fn shared(config: StoreConfig) -> SharedStore {
        SharedStore::new(EventStore::ingest(&dataset(), config).unwrap())
    }

    const TEMPLATE: &str =
        r#"(at $day) agentid = $agent proc p[$pname] write file f return p, f sort by f"#;

    #[test]
    fn bind_execute_equals_textual_substitution() {
        let store = shared(StoreConfig::partitioned());
        let session = Session::open(&store);
        let stmt = session.prepare(TEMPLATE).unwrap();
        assert_eq!(stmt.params().len(), 3);
        let got = stmt
            .bind(
                Params::new()
                    .set("day", "01/01/2017")
                    .set("agent", 1)
                    .set("pname", "%tool1%"),
            )
            .unwrap()
            .execute()
            .unwrap()
            .into_result();
        let oracle = Engine::new(&store.read())
            .run(
                r#"(at "01/01/2017") agentid = 1 proc p["%tool1%"] write file f
                   return p, f sort by f"#,
            )
            .unwrap();
        assert_eq!(got, oracle);
        assert!(!got.rows.is_empty());
    }

    #[test]
    fn cursor_streams_with_limit_and_offset() {
        let store = shared(StoreConfig::partitioned());
        let session = Session::open(&store);
        let stmt = session
            .prepare("proc p read || write file f return p, f sort by f")
            .unwrap();
        let all = stmt.execute().unwrap().into_result();
        assert!(all.rows.len() >= 6);

        let mut cursor = stmt
            .bind(Params::new())
            .unwrap()
            .offset(2)
            .limit(3)
            .execute()
            .unwrap();
        assert_eq!(cursor.columns(), ["p", "f"]);
        assert_eq!(cursor.remaining(), 3);
        let first = cursor.next().unwrap();
        assert_eq!(first, all.rows[2]);
        let batch = cursor.fetch(10);
        assert_eq!(batch, all.rows[3..5].to_vec());
        assert!(cursor.next().is_none());

        // Offset past the end yields nothing.
        let empty: Vec<_> = stmt
            .bind(Params::new())
            .unwrap()
            .offset(10_000)
            .execute()
            .unwrap()
            .collect();
        assert!(empty.is_empty());
    }

    #[test]
    fn pin_refresh_and_per_statement_policies() {
        let store = shared(StoreConfig::partitioned());
        let session = Session::open(&store);
        let stmt = session
            .prepare("agentid = 1 proc p read || write file f return count p")
            .unwrap();
        let count = |c: Cursor| c.into_result().rows[0][0].as_int().unwrap();

        let before = count(stmt.execute().unwrap());
        let pinned_stamp = session.pin();
        assert!(session.is_pinned());

        // A concurrent append publishes a new snapshot...
        {
            let mut w = store.write();
            let t = Timestamp::from_ymd(2017, 1, 1).unwrap();
            w.append_event(&Event::new(
                9_999.into(),
                AgentId(1),
                101.into(),
                OpType::Read,
                110.into(),
                EntityKind::File,
                Timestamp(t.0 + 3600 * 1_000_000_000),
            ))
            .unwrap();
        }
        // ...but the pinned session still sees the old version.
        let c = stmt.execute().unwrap();
        assert_eq!(c.stamp(), pinned_stamp);
        assert_eq!(count(c), before);

        // Refresh moves the pin to the newest snapshot.
        let refreshed = session.refresh();
        assert!(refreshed > pinned_stamp);
        assert_eq!(count(stmt.execute().unwrap()), before + 1);

        // Unpin: per-statement mode follows the published store again.
        session.unpin();
        assert!(!session.is_pinned());
        assert_eq!(count(stmt.execute().unwrap()), before + 1);
    }

    #[test]
    fn explain_reports_columnar_and_index_probe_paths() {
        let store = shared(StoreConfig::partitioned());
        let session = Session::open(&store);
        // Unconstrained entities: the events scan runs on the columnar
        // projection (time-window kernels), entity rows resolve through
        // id-index probes.
        let explain = session
            .prepare(r#"(at "01/01/2017") proc p write file f return p, f"#)
            .unwrap()
            .explain()
            .unwrap();
        let paths = explain.access_paths();
        assert!(
            paths.contains(&"columnar"),
            "events scan columnar: {paths:?}"
        );
        assert!(
            paths.contains(&"index-probe"),
            "entity id probes: {paths:?}"
        );
        assert!(explain.rows_returned > 0);
        // Day pruning: only day-1 partitions of the events table scanned.
        let ev = explain.patterns[0]
            .scans
            .iter()
            .find(|s| s.target == ScanTarget::Events)
            .unwrap();
        assert!(ev.profile.partitions_scanned < ev.profile.partitions_total);
        assert_eq!(
            explain.patterns[0].actual_rows,
            Some(ev.profile.rows_matched)
        );
        let rendered = explain.to_string();
        assert!(rendered.contains("columnar"), "{rendered}");
        assert!(rendered.contains("plan cache"), "{rendered}");
    }

    #[test]
    fn explain_reports_seq_scan_on_the_row_store() {
        let store = shared(StoreConfig::partitioned().with_columnar(false));
        let session = Session::open(&store);
        let explain = session
            .prepare(r#"(at "01/01/2017") proc p write file f as e[amount >= 0] return p, f"#)
            .unwrap()
            .explain()
            .unwrap();
        assert!(
            explain.access_paths().contains(&"seq-scan"),
            "row store without usable index: {:?}",
            explain.access_paths()
        );
        assert!(explain.to_string().contains("seq-scan"));
    }

    #[test]
    fn estimated_vs_actual_rows_are_populated() {
        let store = shared(StoreConfig::partitioned());
        let session = Session::open(&store);
        let explain = session
            .prepare(r#"(at "01/01/2017") agentid = 1 proc p write file f return p, f"#)
            .unwrap()
            .explain()
            .unwrap();
        let p = &explain.patterns[0];
        assert!(p.estimated_rows > 0, "non-empty window estimates > 0");
        assert!(p.actual_rows.is_some());
    }

    #[test]
    fn reprepared_statements_share_the_physical_plan() {
        let store = shared(StoreConfig::partitioned());
        let session = Session::with_config(&store, crate::EngineConfig::aiql_statistical());
        let src = "proc p read || write file f return count p";
        let first = session.prepare(src).unwrap();
        assert!(!first.is_planned(), "nothing has executed yet");
        first.execute().unwrap().count();
        assert!(first.is_planned(), "first execution fills the slot");
        // A re-prepare of the same text — e.g. `session.run` in a loop —
        // picks up the already-filled slot instead of replanning.
        let again = session.prepare(src).unwrap();
        assert!(again.is_planned(), "cache hit reuses the plan");
        // Different text gets its own, empty slot.
        assert!(!session
            .prepare("proc p read file f return count p")
            .unwrap()
            .is_planned());
    }

    #[test]
    fn session_plan_cache_counts_and_run_convenience() {
        let store = shared(StoreConfig::partitioned());
        let session = Session::open(&store);
        let src = "proc p read file f return count p";
        session.prepare(src).unwrap();
        session.prepare(src).unwrap();
        let r = session.run(src).unwrap();
        assert_eq!(r.columns, vec!["count"]);
        let stats = session.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        assert!(stats.hit_rate() > 0.6);
    }

    #[test]
    fn execution_traces_expose_the_phase_tree() {
        let store = shared(StoreConfig::partitioned());
        let session = Session::open(&store);
        // Force a real compile (unique source) so prepare has children.
        let src = r#"(at "01/01/2017") proc p write file f as tracedevt return p, f"#;
        let stmt = session.prepare(src).unwrap();
        let ptrace = stmt.trace().expect("prepare is traced");
        assert_eq!(ptrace.name, "prepare");
        for phase in ["lex", "parse", "analyze"] {
            assert!(ptrace.child(phase).is_some(), "missing {phase}");
        }
        // A cache hit still yields a tree, just without compile phases.
        let hit = session.prepare(src).unwrap();
        assert!(hit.trace().unwrap().children.is_empty());

        let cursor = stmt.execute().unwrap();
        let etrace = cursor.trace().expect("execute is traced");
        assert_eq!(etrace.name, "execute");
        assert!(etrace.child("plan").is_some());
        assert!(!etrace.children_with_prefix("scan:").is_empty());
        assert!(etrace.child("score").is_some());
    }

    #[test]
    fn slow_queries_land_in_the_global_log() {
        let store = shared(StoreConfig::partitioned());
        let session = Session::open(&store);
        let log = aiql_telemetry::slowlog::global();
        let saved = log.threshold_micros();
        log.set_threshold_micros(0); // everything is slow
        let src = r#"agentid = $agent proc p write file f as slowevt return p, f"#;
        session
            .prepare(src)
            .unwrap()
            .bind(Params::new().set("agent", 1))
            .unwrap()
            .execute()
            .unwrap()
            .count();
        log.set_threshold_micros(saved);
        let entry = log
            .entries()
            .into_iter()
            .rev()
            .find(|e| e.source.contains("slowevt"))
            .expect("slow execution recorded");
        assert!(entry.params.contains("$agent = 1"), "{}", entry.params);
        assert!(entry.profile.contains("rows"), "{}", entry.profile);
    }

    #[test]
    fn statement_timeout_cancels_instead_of_completing() {
        let store = shared(StoreConfig::partitioned());
        // A 1 ns budget is expired by the time the first cooperative
        // checkpoint (entering the pattern scan) runs, so any query that
        // touches data must cancel rather than complete.
        let session = Session::open(&store).with_timeout(Duration::from_nanos(1));
        assert_eq!(session.statement_timeout(), Some(Duration::from_nanos(1)));
        let r = session.run("proc p read || write file f return p, f");
        assert!(matches!(r, Err(EngineError::Timeout)), "got {r:?}");

        // Clearing the timeout lets the same source run to completion —
        // clones share the setting.
        let clone = session.clone();
        clone.set_statement_timeout(None);
        assert_eq!(session.statement_timeout(), None);
        assert!(session
            .run("proc p read || write file f return p, f")
            .is_ok());
    }

    #[test]
    fn binding_errors_surface_as_compile_errors() {
        let store = shared(StoreConfig::partitioned());
        let session = Session::open(&store);
        let stmt = session.prepare(TEMPLATE).unwrap();
        let err = match stmt.bind(Params::new().set("agent", 1)) {
            Err(e) => e,
            Ok(_) => panic!("missing parameter must fail"),
        };
        assert!(matches!(err, EngineError::Compile(_)), "{err}");
        // Executing a parameterized statement without binding fails too.
        assert!(stmt.execute().is_err());
    }
}

//! The AIQL query execution engine (paper Sec. 5).
//!
//! The engine executes [`aiql_core::QueryContext`]s against an
//! [`aiql_storage::EventStore`]:
//!
//! 1. per event pattern it **synthesizes a data query** ([`synth`]),
//! 2. a **scheduler** orders and constrains the data queries —
//!    relationship-based (paper Algorithm 1) or fetch-and-filter
//!    ([`schedule`]),
//! 3. events scans **parallelize across time/space partitions**, scattered
//!    over the store's execution shards ([`pattern`]),
//! 4. **dependency** queries arrive pre-compiled to multievent form (the
//!    rewrite lives in `aiql-core`), and
//! 5. **anomaly** queries run through the sliding-window executor with
//!    history states and moving averages ([`anomaly`]).
//!
//! Every statement, whichever entry point it came through ([`Engine::run`],
//! [`Engine::run_ctx`], or a [`Session`]), runs through one instrumented
//! funnel: it is traced, timed into `aiql_engine_execute_micros` and the
//! phase histograms, and offered to the slow-query log.
//!
//! # Examples
//!
//! ```
//! use aiql_engine::Engine;
//! use aiql_model::{AgentId, Dataset, Entity, EntityKind, Event, OpType, Timestamp};
//! use aiql_storage::{EventStore, StoreConfig};
//!
//! let mut data = Dataset::new();
//! let a = AgentId(1);
//! let bash = data.add_entity(Entity::process(1.into(), a, "bash", 7));
//! let hist = data.add_entity(Entity::file(2.into(), a, "/home/u/.bash_history"));
//! data.add_event(Event::new(
//!     1.into(), a, bash, OpType::Read, hist, EntityKind::File,
//!     Timestamp::from_ymd(2017, 1, 1).unwrap(),
//! ));
//! let store = EventStore::ingest(&data, StoreConfig::partitioned()).unwrap();
//!
//! let result = Engine::new(&store)
//!     .run(r#"proc p read file f["%.bash_history"] return p, f"#)
//!     .unwrap();
//! assert_eq!(result.rows.len(), 1);
//! ```

pub mod anomaly;
pub mod error;
pub mod exec;
pub mod layout;
mod metrics;
pub mod pattern;
pub mod result;
pub mod schedule;
pub mod scoring;
pub mod session;
pub mod synth;
pub mod tupleset;

pub use error::EngineError;
pub use exec::{ExecPolicy, ScatterProfile};
pub use pattern::{Deadline, EngineStats, ScanRecord, ScanTarget};
pub use result::EngineResult;
pub use schedule::Scheduler;
pub use scoring::ScoreModel;
pub use session::{Bound, Cursor, Explain, Params, PatternPlan, Prepared, Session};

use aiql_core::{PreparedQuery, QueryContext, QueryKind};
use aiql_storage::EventStore;
use aiql_telemetry::trace::{self, SpanNode};
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineConfig {
    /// Data-query scheduling strategy.
    pub scheduler: Scheduler,
    /// Pruning-score model for relationship-based scheduling (paper
    /// Algorithm 1 default, or the Sec. 7 statistical refinement).
    pub scorer: ScoreModel,
    /// Parallelize event scans across partitions (time-window partition
    /// parallelism, paper Sec. 5.2), scattered over the process-wide
    /// execution pool by shard.
    pub parallel: bool,
    /// Scatter width in threads when `parallel` (coordinator included);
    /// `0` auto-sizes to `available_parallelism`. Capped at
    /// [`exec::MAX_WORKERS`].
    pub workers: usize,
    /// Optional wall-clock budget per query.
    pub budget: Option<Duration>,
}

impl EngineConfig {
    /// AIQL's full configuration: relationship scheduling + parallelism.
    pub fn aiql() -> EngineConfig {
        EngineConfig {
            scheduler: Scheduler::Relationship,
            scorer: ScoreModel::ConstraintCount,
            parallel: true,
            workers: 0,
            budget: None,
        }
    }

    /// The fetch-and-filter baseline configuration ("AIQL FF").
    pub fn fetch_filter() -> EngineConfig {
        EngineConfig {
            scheduler: Scheduler::FetchFilter,
            scorer: ScoreModel::ConstraintCount,
            parallel: false,
            workers: 1,
            budget: None,
        }
    }

    /// The Sec. 7 ablation: relationship scheduling driven by statistical
    /// cardinality estimates instead of constraint counts.
    pub fn aiql_statistical() -> EngineConfig {
        EngineConfig {
            scorer: ScoreModel::DataStatistics,
            ..EngineConfig::aiql()
        }
    }

    /// Sets the budget, builder style.
    pub fn with_budget(mut self, budget: Duration) -> EngineConfig {
        self.budget = Some(budget);
        self
    }

    /// Sets the scatter width, builder style (`0` = auto).
    pub fn with_workers(mut self, workers: usize) -> EngineConfig {
        self.workers = workers;
        self
    }

    /// The per-query execution policy this configuration implies.
    pub fn exec_policy(&self) -> exec::ExecPolicy {
        exec::ExecPolicy {
            parallel: self.parallel,
            workers: self.workers,
        }
    }
}

/// A cached physical plan for one statement: the relationship scheduler's
/// pattern-ordering scores.
///
/// Scores decide only the *order* patterns execute in (any order is
/// correct), so reusing them across bindings of a prepared statement is
/// the classic generic-plan tradeoff: skip per-call planning — which under
/// [`ScoreModel::DataStatistics`] measures real selectivities against the
/// store — at the cost of an ordering tuned to the first binding.
#[derive(Debug, Default)]
pub struct PlanSlot(std::sync::Mutex<Option<Vec<u32>>>);

impl PlanSlot {
    /// An empty slot; the first run through it plans and fills it.
    pub fn new() -> PlanSlot {
        PlanSlot::default()
    }

    /// Whether a plan has been cached.
    pub fn is_planned(&self) -> bool {
        self.0.lock().expect("plan slot poisoned").is_some()
    }
}

/// The query engine, bound to a store.
pub struct Engine<'a> {
    store: &'a EventStore,
    config: EngineConfig,
    plan: Option<&'a PlanSlot>,
}

/// A query outcome: result plus execution statistics and elapsed time.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub result: EngineResult,
    pub stats: EngineStats,
    pub elapsed: Duration,
}

impl<'a> Engine<'a> {
    /// An engine over a single-node store with AIQL's default configuration
    /// (relationship-based scheduling, partition parallelism).
    pub fn new(store: &'a EventStore) -> Engine<'a> {
        Engine {
            store,
            config: EngineConfig::aiql(),
            plan: None,
        }
    }

    /// An engine with an explicit configuration.
    pub fn with_config(store: &'a EventStore, config: EngineConfig) -> Engine<'a> {
        Engine {
            store,
            config,
            plan: None,
        }
    }

    /// Attaches a [`PlanSlot`]: the first query through this engine plans
    /// and fills it, later queries reuse the cached plan instead of
    /// re-scoring. Prepared statements attach their statement-level slot
    /// here.
    pub fn with_plan_slot(mut self, slot: &'a PlanSlot) -> Engine<'a> {
        self.plan = Some(slot);
        self
    }

    /// Compiles and runs an AIQL query, returning just the result.
    ///
    /// A one-shot convenience: the source is compiled on every call. For
    /// parameterized, iterated investigations use [`Session`] /
    /// [`Session::prepare`], whose plan cache compiles each text once.
    pub fn run(&self, source: &str) -> Result<EngineResult, EngineError> {
        self.run_outcome(source).map(|o| o.result)
    }

    /// Compiles and runs an AIQL query, returning result + statistics.
    pub fn run_outcome(&self, source: &str) -> Result<Outcome, EngineError> {
        let stmt = PreparedQuery::compile(source)?;
        let params = Params::new();
        let bound;
        let ctx = match stmt.static_ctx() {
            Some(ctx) => ctx,
            // `$name` placeholders need a binding — surface the analyzer's
            // unbound-parameter error rather than executing nonsense.
            None => {
                bound = stmt.bind(&params)?;
                &bound
            }
        };
        self.funnel(ctx, || (source.to_string(), params.render())).0
    }

    /// The scheduler scores for `ctx`: from the attached [`PlanSlot`] when
    /// one is present and filled, computing (and caching) them otherwise.
    fn plan_scores(&self, ctx: &QueryContext) -> Vec<u32> {
        let Some(slot) = self.plan else {
            return scoring::scores(self.config.scorer, self.store, ctx);
        };
        let mut guard = slot.0.lock().expect("plan slot poisoned");
        match &*guard {
            Some(s) if s.len() == ctx.patterns.len() => s.clone(),
            _ => {
                let s = scoring::scores(self.config.scorer, self.store, ctx);
                *guard = Some(s.clone());
                s
            }
        }
    }

    /// Runs a pre-compiled query context through the instrumented funnel
    /// every statement shares (see the [crate docs](crate)). With no source
    /// text at hand, the slow-query log labels the statement with the
    /// context's `Debug` rendering.
    pub fn run_ctx(&self, ctx: &QueryContext) -> Result<Outcome, EngineError> {
        self.funnel(ctx, || (format!("{ctx:?}"), Params::new().render()))
            .0
    }

    /// The one instrumented execution path. Counts the statement in
    /// `aiql_engine_statements_total`, collects its `execute`-rooted phase
    /// tree, records its wall time into `aiql_engine_execute_micros` and
    /// its phases into the per-phase histograms — failed statements
    /// included — and, when it finished at or above the
    /// [`aiql_telemetry::slowlog`] threshold, logs it under the
    /// `(source, params)` pair `label` renders. Returns the outcome and the
    /// phase tree.
    pub(crate) fn funnel(
        &self,
        ctx: &QueryContext,
        label: impl FnOnce() -> (String, String),
    ) -> (Result<Outcome, EngineError>, Option<SpanNode>) {
        let m = metrics::metrics();
        m.statements.inc();
        trace::begin("execute");
        let started = Instant::now();
        let mut stats = EngineStats::default();
        let ran = self.execute(ctx, started, &mut stats);
        let elapsed = started.elapsed();
        let tree = trace::finish();
        let elapsed_micros = elapsed.as_micros() as u64;
        m.execute_micros.record(elapsed_micros);
        if let Some(t) = &tree {
            metrics::record_phases(m, t);
        }
        let ran = ran.map(|result| Outcome {
            result,
            stats,
            elapsed,
        });
        if let Ok(outcome) = &ran {
            let slowlog = aiql_telemetry::slowlog::global();
            if slowlog.is_slow(elapsed_micros) {
                m.slow_queries.inc();
                let (source, params) = label();
                slowlog.record(aiql_telemetry::slowlog::SlowQueryEntry {
                    source,
                    params,
                    elapsed_micros,
                    rows: outcome.result.rows.len() as u64,
                    profile: render_profile(&outcome.stats),
                });
            }
        }
        (ran, tree)
    }

    /// Plans and executes `ctx`: the uninstrumented body of the funnel.
    fn execute(
        &self,
        ctx: &QueryContext,
        started: Instant,
        stats: &mut EngineStats,
    ) -> Result<EngineResult, EngineError> {
        let deadline = Deadline(self.config.budget.map(|b| started + b));
        match ctx.kind {
            QueryKind::Anomaly => {
                let _anomaly = trace::span("anomaly");
                anomaly::run_anomaly(self.store, ctx, self.config.exec_policy(), deadline, stats)
            }
            QueryKind::Multievent | QueryKind::Dependency => {
                let joined = match self.config.scheduler {
                    Scheduler::Relationship => {
                        let scores = {
                            let _plan = trace::span("plan");
                            self.plan_scores(ctx)
                        };
                        schedule::relationship_based_scored(
                            self.store,
                            ctx,
                            &scores,
                            self.config.exec_policy(),
                            deadline,
                            stats,
                        )?
                    }
                    Scheduler::FetchFilter => schedule::fetch_and_filter(
                        self.store,
                        ctx,
                        self.config.exec_policy(),
                        deadline,
                        stats,
                    )?,
                };
                let _score = trace::span("score");
                result::assemble(ctx, &joined, stats)
            }
        }
    }
}

/// Renders a one-line scan profile for the slow-query log: per scan, the
/// access paths taken and the scanned→matched row funnel.
fn render_profile(stats: &EngineStats) -> String {
    stats
        .scans
        .iter()
        .map(|s| {
            let paths = s.profile.paths().join("+");
            let scatter = match &s.scatter {
                Some(sc) if sc.colocated => " · shard-local".to_string(),
                Some(sc) => format!(
                    " · shards {}/{} w{}",
                    sc.shards_scanned, sc.shards_total, sc.workers
                ),
                None => String::new(),
            };
            format!(
                "p{} {}({}): {} · rows {}→{}{}",
                s.pattern,
                s.table,
                s.target.name(),
                if paths.is_empty() { "no-scan" } else { &paths },
                s.profile.rows_scanned,
                s.profile.rows_matched,
                scatter,
            )
        })
        .collect::<Vec<_>>()
        .join("; ")
}

/// Opens the store persisted at `dir` — newest snapshot plus write-ahead
/// log tail, tolerating a torn final record — ready to query.
///
/// The open-from-disk entrypoint: wrap the result in [`Engine::new`] (or
/// [`Engine::with_config`]) to investigate a store directory left behind
/// by a stopped or crashed ingestion pipeline. Open/recovery failures name
/// the directory — an investigator pointed at the wrong path (or a
/// corrupted store) sees *which* store refused to open, not a bare errno.
pub fn open_store(dir: impl AsRef<std::path::Path>) -> Result<EventStore, EngineError> {
    let dir = dir.as_ref();
    EventStore::open(dir)
        .map_err(|e| EngineError::Recovery(format!("opening store at `{}`: {e}", dir.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_model::{AgentId, Dataset, Entity, EntityKind, Event, OpType, Timestamp, Value};
    use aiql_storage::StoreConfig;

    /// The paper's c5 exfiltration chain plus beaconing traffic for anomaly
    /// detection, over two hosts and two days.
    fn dataset() -> Dataset {
        let mut d = Dataset::new();
        let a = AgentId(9);
        let t0 = Timestamp::from_ymd(2017, 1, 2).unwrap().0;
        let s = 1_000_000_000i64;

        let cmd = d.add_entity(Entity::process(1.into(), a, "cmd.exe", 10));
        let osql = d.add_entity(Entity::process(2.into(), a, "osql.exe", 11));
        let sql = d.add_entity(Entity::process(3.into(), a, "sqlservr.exe", 12));
        let sbblv = d.add_entity(Entity::process(4.into(), a, "sbblv.exe", 13));
        let dump = d.add_entity(Entity::file(5.into(), a, "C:\\db\\BACKUP1.DMP"));
        let evil = d.add_entity(Entity::netconn(
            6.into(),
            a,
            "10.1.1.2",
            49999,
            "10.10.1.129",
            443,
        ));

        let mut eid = 0u64;
        let mut ev = |d: &mut Dataset, s_, op, o, k, t: i64, amount: i64| {
            eid += 1;
            d.add_event(Event::new(eid.into(), a, s_, op, o, k, Timestamp(t)).with_amount(amount));
        };
        ev(
            &mut d,
            cmd,
            OpType::Start,
            osql,
            EntityKind::Process,
            t0 + 10 * s,
            0,
        );
        ev(
            &mut d,
            sql,
            OpType::Write,
            dump,
            EntityKind::File,
            t0 + 20 * s,
            1 << 20,
        );
        ev(
            &mut d,
            sbblv,
            OpType::Read,
            dump,
            EntityKind::File,
            t0 + 30 * s,
            1 << 20,
        );
        // Beaconing: small transfers every 10 s, then a big exfil spike.
        for i in 0..60i64 {
            ev(
                &mut d,
                sbblv,
                OpType::Write,
                evil,
                EntityKind::NetConn,
                t0 + 40 * s + i * 10 * s,
                1_000,
            );
        }
        ev(
            &mut d,
            sbblv,
            OpType::Write,
            evil,
            EntityKind::NetConn,
            t0 + 700 * s,
            50_000_000,
        );
        // Background noise on another agent/day.
        let b = AgentId(3);
        let t1 = Timestamp::from_ymd(2017, 1, 1).unwrap().0;
        let bash = d.add_entity(Entity::process(100.into(), b, "bash", 500));
        for i in 0..40u64 {
            let f = d.add_entity(Entity::file((200 + i).into(), b, format!("/var/tmp/n{i}")));
            d.add_event(Event::new(
                (1000 + i).into(),
                b,
                bash,
                OpType::Write,
                f,
                EntityKind::File,
                Timestamp(t1 + i as i64 * s),
            ));
        }
        d
    }

    fn store() -> EventStore {
        EventStore::ingest(&dataset(), StoreConfig::partitioned()).unwrap()
    }

    #[test]
    fn paper_query7_finds_exfiltration_chain() {
        let store = store();
        for config in [EngineConfig::aiql(), EngineConfig::fetch_filter()] {
            let engine = Engine::with_config(&store, config);
            let r = engine
                .run(
                    r#"
                    (at "01/02/2017")
                    agentid = 9
                    proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
                    proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
                    proc p4["%sbblv.exe"] read file f1 as evt3
                    proc p4 read || write ip i1[dstip = "10.10.1.129"] as evt4
                    with evt1 before evt2, evt2 before evt3, evt3 before evt4
                    return distinct p1, p2, p3, f1, p4, i1
                    "#,
                )
                .unwrap();
            assert_eq!(r.rows.len(), 1);
            assert_eq!(
                r.rows[0],
                vec![
                    Value::str("cmd.exe"),
                    Value::str("osql.exe"),
                    Value::str("sqlservr.exe"),
                    Value::str("C:\\db\\BACKUP1.DMP"),
                    Value::str("sbblv.exe"),
                    Value::str("10.10.1.129"),
                ]
            );
        }
    }

    #[test]
    fn anomaly_query5_flags_only_the_spike() {
        let store = store();
        let engine = Engine::new(&store);
        let r = engine
            .run(
                r#"
                (at "01/02/2017")
                agentid = 9
                window = 1 min, step = 10 sec
                proc p write ip i[dstip = "10.10.1.129"] as evt
                return p, avg(evt.amount) as amt
                group by p
                having amt > 2 * (amt + amt[1] + amt[2]) / 3
                "#,
            )
            .unwrap();
        assert!(!r.rows.is_empty(), "the 50 MB burst must alert");
        assert!(r.rows.iter().all(|row| row[0] == Value::str("sbblv.exe")));
        // Alerted averages are far above the 1 kB beacon noise.
        assert!(r
            .rows
            .iter()
            .all(|row| row[1].as_f64().unwrap() > 100_000.0));
        // And the number of alerting windows is small (the spike region
        // only: 6 sliding windows cover any instant at step 10 s / 1 min).
        assert!(r.rows.len() <= 8, "got {} alert rows", r.rows.len());
    }

    #[test]
    fn dependency_query_tracks_dump_provenance() {
        let store = store();
        let engine = Engine::new(&store);
        let r = engine
            .run(
                r#"
                (at "01/02/2017")
                forward: proc p1["%sqlservr.exe"] ->[write] file f1["%backup1.dmp"]
                <-[read] proc p2 ->[write] ip i1
                return p1, f1, p2, i1
                "#,
            )
            .unwrap();
        assert!(!r.rows.is_empty());
        assert_eq!(r.rows[0][2], Value::str("sbblv.exe"));
        assert_eq!(r.rows[0][3], Value::str("10.10.1.129"));
    }

    #[test]
    fn count_and_group_by_aggregates() {
        let store = store();
        let engine = Engine::new(&store);
        let r = engine
            .run(r#"(at "01/01/2017") agentid = 3 proc p write file f return count distinct p, f"#)
            .unwrap();
        assert_eq!(r.columns, vec!["count"]);
        assert_eq!(r.rows, vec![vec![Value::Int(40)]]);

        let r = engine
            .run(
                r#"(at "01/01/2017") agentid = 3 proc p write file f
                   return p, count(f) as n group by p"#,
            )
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::str("bash"), Value::Int(40)]]);
    }

    #[test]
    fn sort_and_top() {
        let store = store();
        let engine = Engine::new(&store);
        let r = engine
            .run(
                r#"(at "01/01/2017") proc p write file f return distinct f
                   sort by f desc top 3"#,
            )
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0][0], Value::str("/var/tmp/n9"));
    }

    #[test]
    fn timeout_budget_enforced() {
        // A pathological pair of unconstrained patterns with a non-equi
        // relation on a larger store.
        let mut d = dataset();
        let a = AgentId(9);
        let s = 1_000_000_000i64;
        let t0 = Timestamp::from_ymd(2017, 1, 2).unwrap().0;
        let p = d.add_entity(Entity::process(9000.into(), a, "noise.exe", 1));
        for i in 0..3000u64 {
            let f = d.add_entity(Entity::file((10_000 + i).into(), a, format!("/n/{i}")));
            d.add_event(Event::new(
                (50_000 + i).into(),
                a,
                p,
                OpType::Read,
                f,
                EntityKind::File,
                Timestamp(t0 + i as i64 * s / 100),
            ));
        }
        let store = EventStore::ingest(&d, StoreConfig::partitioned()).unwrap();
        let engine = Engine::with_config(
            &store,
            EngineConfig::fetch_filter().with_budget(Duration::from_millis(5)),
        );
        let r = engine.run(
            "proc p1 read file f1 as e1 proc p2 read file f2 as e2 \
             proc p3 read file f3 as e3 with e1 before e2, e2 before e3 \
             return count p1",
        );
        assert!(
            matches!(r, Err(EngineError::Timeout) | Err(EngineError::Resource)),
            "got {r:?}"
        );
    }

    #[test]
    fn compile_errors_surface() {
        let store = store();
        let engine = Engine::new(&store);
        assert!(matches!(
            engine.run("proc p frobnicate file f return p"),
            Err(EngineError::Compile(_))
        ));
    }

    #[test]
    fn session_sees_growing_store_between_statements() {
        let shared = aiql_storage::SharedStore::new(store());
        let session = Session::open(&shared);
        let q = r#"(at "01/02/2017") agentid = 9 proc p4["%sbblv.exe"] read file f1 return p4, f1"#;
        let first = session.prepare(q).unwrap().execute().unwrap();
        assert_eq!(first.remaining(), 1);

        // Append a second qualifying read; the next statement sees it, and
        // the stamps prove the two statements ran at different store
        // versions.
        {
            let mut w = shared.write();
            let t = Timestamp::from_ymd(2017, 1, 2).unwrap();
            w.append_event(&Event::new(
                9_999.into(),
                AgentId(9),
                4.into(),
                OpType::Read,
                5.into(),
                EntityKind::File,
                Timestamp(t.0 + 60 * 1_000_000_000),
            ))
            .unwrap();
        }
        let second = session.prepare(q).unwrap().execute().unwrap();
        assert!(second.stamp() > first.stamp());
        assert_eq!(second.remaining(), 2);
    }

    #[test]
    fn segmented_engine_matches_single_node() {
        let d = dataset();
        let single = EventStore::ingest(&d, StoreConfig::partitioned()).unwrap();
        let sharded = EventStore::ingest(&d, StoreConfig::partitioned().with_shards(4)).unwrap();
        let q = r#"(at "01/02/2017") proc p4["%sbblv.exe"] read file f1 return p4, f1"#;
        let a = Engine::new(&single).run(q).unwrap();
        let b = Engine::with_config(&sharded, EngineConfig::aiql())
            .run(q)
            .unwrap();
        let norm = |mut r: EngineResult| {
            r.rows.sort();
            r.rows
        };
        assert_eq!(norm(a), norm(b));
    }

    #[test]
    fn open_store_errors_name_the_directory() {
        let missing = std::env::temp_dir().join("aiql-engine-no-such-store");
        let _ = std::fs::remove_dir_all(&missing);
        let err = open_store(&missing).expect_err("nothing persisted there");
        match err {
            EngineError::Recovery(msg) => assert!(
                msg.contains("aiql-engine-no-such-store"),
                "error must name the directory: {msg}"
            ),
            other => panic!("expected a recovery error, got {other:?}"),
        }
    }
}

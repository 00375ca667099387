//! Experiment harness: datasets, systems under test, timed runs.

use crate::catalog::{CatalogQuery, QueryKind};
use aiql_baselines::{greenplum, neo4j, postgres, BaselineError};
use aiql_core::QueryContext;
use aiql_datagen::{EnterpriseSim, GroundTruth};
use aiql_engine::{Engine, EngineConfig, EngineError};
use aiql_graphdb::GraphDb;
use aiql_model::Dataset;
use aiql_storage::{EventStore, SegmentedStore, StoreConfig};
use std::time::{Duration, Instant};

/// Dataset scale presets (the laptop-scale stand-ins for the paper's
/// 857 GB / 2.5 B events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~25 k events — CI-friendly.
    Small,
    /// ~110 k events — the default for `repro`.
    Medium,
    /// ~1 M events — closest shape to the paper's asymmetries.
    Large,
}

impl Scale {
    /// Parses a scale name.
    pub fn parse(s: &str) -> Option<Scale> {
        Some(match s.to_ascii_lowercase().as_str() {
            "small" => Scale::Small,
            "medium" => Scale::Medium,
            "large" => Scale::Large,
            _ => return None,
        })
    }

    fn params(self) -> (u32, u32, u32) {
        match self {
            Scale::Small => (10, 2, 1_000),
            Scale::Medium => (10, 2, 5_000),
            Scale::Large => (15, 3, 22_000),
        }
    }
}

/// Best-of-`samples` wall-clock timing: runs `f` at least once and returns
/// the minimum elapsed seconds plus the last result. The shared micro-bench
/// harness of `benches/scan.rs` and the `repro scan` snapshot.
pub fn best_of<T>(samples: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let mut out = f();
    let mut best = t0.elapsed().as_secs_f64();
    for _ in 1..samples.max(1) {
        let t = Instant::now();
        out = f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best, out)
}

/// Generates the evaluation dataset with the attack scenarios planted.
pub fn dataset(scale: Scale) -> (Dataset, GroundTruth) {
    let (hosts, days, per_day) = scale.params();
    EnterpriseSim::builder()
        .hosts(hosts)
        .days(days)
        .seed(2017)
        .events_per_host_per_day(per_day)
        .attacks(true)
        .build()
        .generate_with_truth()
}

/// The outcome of one timed query run.
#[derive(Debug, Clone)]
pub enum RunResult {
    /// Finished: elapsed time and result-row count.
    Done { elapsed: Duration, rows: usize },
    /// Exceeded the budget (time or memory) — the paper's ">1 hour" bucket.
    DidNotFinish { budget: Duration },
    /// The system cannot express the query (e.g. anomaly in SQL).
    Unsupported,
}

impl RunResult {
    /// Elapsed seconds, with DNF runs charged the full budget (as the paper
    /// charges its one-hour timeout).
    pub fn secs(&self) -> Option<f64> {
        match self {
            RunResult::Done { elapsed, .. } => Some(elapsed.as_secs_f64()),
            RunResult::DidNotFinish { budget } => Some(budget.as_secs_f64()),
            RunResult::Unsupported => None,
        }
    }

    /// Whether the run finished.
    pub fn finished(&self) -> bool {
        matches!(self, RunResult::Done { .. })
    }
}

/// All stores needed by the experiments, built from one dataset.
pub struct Systems {
    /// AIQL's partitioned store.
    pub partitioned: EventStore,
    /// Monolithic store (end-to-end PostgreSQL baseline).
    pub monolithic: EventStore,
    /// Property graph (Neo4j baseline).
    pub graph: GraphDb,
}

impl Systems {
    /// Ingests the dataset into every single-node system.
    pub fn build(data: &Dataset) -> Systems {
        Systems {
            partitioned: EventStore::ingest(data, StoreConfig::partitioned())
                .expect("partitioned ingest"),
            monolithic: EventStore::ingest(data, StoreConfig::monolithic())
                .expect("monolithic ingest"),
            graph: neo4j::load_graph(data),
        }
    }
}

fn compile(q: &CatalogQuery) -> QueryContext {
    aiql_core::compile(q.source).expect("catalog query compiles")
}

/// Runs a query on the AIQL engine (any configuration).
pub fn run_aiql(
    store: &EventStore,
    q: &CatalogQuery,
    config: EngineConfig,
    budget: Duration,
) -> RunResult {
    let ctx = compile(q);
    let engine = Engine::with_config(store, config.with_budget(budget));
    let started = Instant::now();
    match engine.run_ctx(&ctx) {
        Ok(out) => RunResult::Done {
            elapsed: started.elapsed(),
            rows: out.result.rows.len(),
        },
        Err(EngineError::Timeout) | Err(EngineError::Resource) => {
            RunResult::DidNotFinish { budget }
        }
        Err(EngineError::Unsupported(_)) => RunResult::Unsupported,
        Err(e) => panic!("AIQL failed on {}: {e}", q.id),
    }
}

/// Runs the big-join SQL baseline.
pub fn run_postgres(store: &EventStore, q: &CatalogQuery, budget: Duration) -> RunResult {
    if q.kind == QueryKind::Anomaly {
        return RunResult::Unsupported;
    }
    let ctx = compile(q);
    let started = Instant::now();
    match postgres::run(store, &ctx, Some(started + budget)) {
        Ok((rows, _)) => RunResult::Done {
            elapsed: started.elapsed(),
            rows: rows.len(),
        },
        Err(BaselineError::Timeout) => RunResult::DidNotFinish { budget },
        Err(BaselineError::Storage(aiql_rdb::RdbError::ResourceLimit)) => {
            RunResult::DidNotFinish { budget }
        }
        Err(BaselineError::Untranslatable(_)) => RunResult::Unsupported,
        Err(e) => panic!("PostgreSQL baseline failed on {}: {e}", q.id),
    }
}

/// Runs the graph-traversal baseline.
pub fn run_neo4j(graph: &GraphDb, q: &CatalogQuery, budget: Duration) -> RunResult {
    if q.kind == QueryKind::Anomaly {
        return RunResult::Unsupported;
    }
    let ctx = compile(q);
    let started = Instant::now();
    match neo4j::run(graph, &ctx, Some(started + budget)) {
        Ok((rows, _)) => RunResult::Done {
            elapsed: started.elapsed(),
            rows: rows.len(),
        },
        Err(BaselineError::Timeout) => RunResult::DidNotFinish { budget },
        Err(BaselineError::Untranslatable(_)) => RunResult::Unsupported,
        Err(e) => panic!("Neo4j baseline failed on {}: {e}", q.id),
    }
}

/// Runs the MPP gather baseline.
pub fn run_greenplum(store: &SegmentedStore, q: &CatalogQuery, budget: Duration) -> RunResult {
    if q.kind == QueryKind::Anomaly {
        return RunResult::Unsupported;
    }
    let ctx = compile(q);
    let started = Instant::now();
    match greenplum::run(store, &ctx, Some(started + budget)) {
        Ok(rows) => RunResult::Done {
            elapsed: started.elapsed(),
            rows: rows.len(),
        },
        Err(BaselineError::Timeout)
        | Err(BaselineError::Storage(aiql_rdb::RdbError::ResourceLimit)) => {
            RunResult::DidNotFinish { budget }
        }
        Err(BaselineError::Untranslatable(_)) => RunResult::Unsupported,
        Err(e) => panic!("Greenplum baseline failed on {}: {e}", q.id),
    }
}

/// Fetch-and-filter engine configuration (single-node, no parallelism).
pub fn ff_config() -> EngineConfig {
    EngineConfig::fetch_filter()
}

/// Relationship scheduling without partition parallelism (isolates the
/// scheduler's contribution, as Fig. 6 does).
pub fn sched_only_config() -> EngineConfig {
    EngineConfig {
        parallel: false,
        ..EngineConfig::aiql()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn small_systems_answer_every_catalog_query() {
        let (data, _) = dataset(Scale::Small);
        let systems = Systems::build(&data);
        let budget = Duration::from_secs(20);
        for q in catalog::case_study()
            .iter()
            .chain(catalog::behaviours().iter())
        {
            let r = run_aiql(&systems.partitioned, q, EngineConfig::aiql(), budget);
            match r {
                RunResult::Done { rows, .. } => {
                    assert!(rows > 0, "{} returned no rows — scenario not found", q.id)
                }
                other => panic!("{} did not finish on AIQL: {other:?}", q.id),
            }
        }
    }

    #[test]
    fn differential_aiql_vs_postgres_on_case_study() {
        let (data, _) = dataset(Scale::Small);
        let systems = Systems::build(&data);
        for q in catalog::case_study() {
            if q.kind != QueryKind::Multievent {
                continue;
            }
            let ctx = aiql_core::compile(q.source).unwrap();
            let engine = Engine::with_config(&systems.partitioned, EngineConfig::aiql());
            let ours = aiql_baselines::normalize(engine.run_ctx(&ctx).unwrap().result.rows);
            let (pg, _) = postgres::run(&systems.monolithic, &ctx, None).unwrap();
            assert_eq!(
                ours,
                aiql_baselines::normalize(pg),
                "{}: AIQL and the big join disagree",
                q.id
            );
        }
    }
}

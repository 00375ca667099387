//! Pruning-score models for the relationship-based scheduler.
//!
//! The paper's Algorithm 1 scores an event pattern by its *number of
//! constraints*, and its Sec. 7 discussion proposes refining this with
//! record statistics ("considering the number of records in different hosts
//! and different time periods and constructing a statistical model of
//! constraint pruning power"). This module implements both:
//!
//! - [`ScoreModel::ConstraintCount`] — the paper's default,
//! - [`ScoreModel::DataStatistics`] — the Sec. 7 refinement: estimate each
//!   pattern's match cardinality from cheap store statistics (partition row
//!   counts after pruning, entity-filter selectivities measured against the
//!   indexed entity tables, operation-mix fractions) and score by the
//!   negated log-cardinality, so fewer estimated matches ⇒ more pruning
//!   power.
//!
//! The `ablation` Criterion bench and `tests/ablation.rs` compare the two.

use crate::pattern::EngineStats;
use crate::synth::synthesize;
use aiql_core::QueryContext;
use aiql_model::EntityKind;
use aiql_rdb::Prune;
use aiql_storage::EventStore;

/// How the scheduler estimates pattern pruning power.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoreModel {
    /// The paper's Algorithm 1: count the constraints in the pattern.
    #[default]
    ConstraintCount,
    /// The paper's Sec. 7 refinement: estimate match cardinalities from
    /// store statistics.
    DataStatistics,
}

/// Computes per-pattern scores under the chosen model (higher = executed
/// earlier).
pub fn scores(model: ScoreModel, store: &EventStore, ctx: &QueryContext) -> Vec<u32> {
    match model {
        ScoreModel::ConstraintCount => ctx.patterns.iter().map(|p| p.score).collect(),
        ScoreModel::DataStatistics => statistical_scores(store, ctx),
    }
}

fn statistical_scores(store: &EventStore, ctx: &QueryContext) -> Vec<u32> {
    // Total entity counts, for selectivity denominators (entity tables are
    // small; a full count scan is cheap and runs once per query).
    let mut throwaway = EngineStats::default();
    let totals = entity_totals(store, &mut throwaway);
    ctx.patterns
        .iter()
        .map(|p| {
            let est = pattern_estimate(store, p, &totals, &mut throwaway);
            // Fewer estimated matches ⇒ higher score. log2(2^40) headroom.
            (40.0 - (est + 1.0).log2()).max(0.0).round() as u32
        })
        .collect()
}

/// Total rows per entity kind, ordered `[File, Process, NetConn]`.
fn entity_totals(store: &EventStore, stats: &mut EngineStats) -> [f64; 3] {
    let mut total =
        |kind: EntityKind| -> f64 { entity_count(store, kind, &[], stats).max(1) as f64 };
    [
        total(EntityKind::File),
        total(EntityKind::Process),
        total(EntityKind::NetConn),
    ]
}

/// Estimated match cardinality of one pattern's data query: events in the
/// admitted partitions × uniform operation-mix fraction × measured
/// entity-filter selectivities.
fn pattern_estimate(
    store: &EventStore,
    p: &aiql_core::PatternCtx,
    totals: &[f64; 3],
    stats: &mut EngineStats,
) -> f64 {
    let q = synthesize(p);
    let base = estimate_events(store, &q.prune) as f64;
    let op_frac = p.ops.len() as f64 / aiql_model::event::ALL_OPS.len() as f64;
    let subj_frac = if q.subject.is_empty() {
        1.0
    } else {
        entity_count(store, EntityKind::Process, &q.subject, stats) as f64 / totals[1]
    };
    let kind_idx = match p.object_kind {
        EntityKind::File => 0,
        EntityKind::Process => 1,
        EntityKind::NetConn => 2,
    };
    let obj_frac = if q.object.is_empty() {
        1.0
    } else {
        entity_count(store, p.object_kind, &q.object, stats) as f64 / totals[kind_idx]
    };
    (base * op_frac * subj_frac.max(1e-6) * obj_frac.max(1e-6)).max(0.0)
}

/// Estimated match rows for every pattern of `ctx`, from the same store
/// statistics the [`ScoreModel::DataStatistics`] scorer uses — the
/// "estimated rows" column of the session API's `EXPLAIN`.
pub fn estimate_rows(store: &EventStore, ctx: &QueryContext) -> Vec<u64> {
    let mut throwaway = EngineStats::default();
    let totals = entity_totals(store, &mut throwaway);
    ctx.patterns
        .iter()
        .map(|p| pattern_estimate(store, p, &totals, &mut throwaway).round() as u64)
        .collect()
}

fn entity_count(
    store: &EventStore,
    kind: EntityKind,
    conjuncts: &[aiql_rdb::Expr],
    stats: &mut EngineStats,
) -> usize {
    // `scan_entities` is index-accelerated for equality probes; LIKE
    // filters fall back to a scan of the (small) entity table.
    store_scan_entities(store, kind, conjuncts, stats).len()
}

fn store_scan_entities(
    store: &EventStore,
    kind: EntityKind,
    conjuncts: &[aiql_rdb::Expr],
    stats: &mut EngineStats,
) -> Vec<aiql_rdb::Row> {
    let mut scanned = 0u64;
    let rows = store.scan_entities(kind, conjuncts, &mut scanned);
    stats.rows_scanned += scanned;
    rows
}

fn estimate_events(store: &EventStore, prune: &Prune) -> u64 {
    match store.events_partitioned() {
        Some(pt) => pt
            .partitions_for(prune)
            .iter()
            .map(|(_, t)| t.len() as u64)
            .sum(),
        None => store.event_count() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_core::compile;
    use aiql_model::{AgentId, Dataset, Entity, Event, OpType, Timestamp};
    use aiql_storage::StoreConfig;

    /// A dataset where constraint counting is misleading: `noisy.exe`
    /// matches a 3-constraint pattern on every row, while a 1-constraint
    /// exact name pins a single rare process.
    fn misleading() -> Dataset {
        let mut d = Dataset::new();
        let a = AgentId(1);
        let t0 = Timestamp::from_ymd(2017, 1, 1).unwrap().0;
        let rare =
            d.add_entity(Entity::process(1.into(), a, "rare.exe", 5).with_attr("user", "svc"));
        let f = d.add_entity(Entity::file(2.into(), a, "/data/x"));
        d.add_event(Event::new(
            1.into(),
            a,
            rare,
            OpType::Write,
            f,
            aiql_model::EntityKind::File,
            Timestamp(t0),
        ));
        for i in 0..200u64 {
            let p = d.add_entity(
                Entity::process((10 + i).into(), a, format!("noisy{i}.exe"), 100 + i as i64)
                    .with_attr("user", "alice"),
            );
            let g = d.add_entity(Entity::file((1000 + i).into(), a, format!("/tmp/{i}")));
            d.add_event(Event::new(
                (10 + i).into(),
                a,
                p,
                OpType::Read,
                g,
                aiql_model::EntityKind::File,
                Timestamp(t0 + i as i64 * 1_000),
            ));
        }
        d
    }

    const QUERY: &str = r#"
        proc p1[pid >= 0 && pid <= 1000000 && user != "nobody"] read file f1 as e1
        proc p2["rare.exe"] write file f2 as e2
        with e1 after e2
        return p1, p2
    "#;

    #[test]
    fn constraint_count_is_fooled_statistics_are_not() {
        let store = EventStore::ingest(&misleading(), StoreConfig::partitioned()).unwrap();
        let ctx = compile(QUERY).unwrap();
        let by_count = scores(ScoreModel::ConstraintCount, &store, &ctx);
        let by_stats = scores(ScoreModel::DataStatistics, &store, &ctx);
        // Constraint counting ranks the noisy pattern (3 atoms) above the
        // selective one (1 atom)...
        assert!(by_count[0] > by_count[1], "count model: {by_count:?}");
        // ...while the statistical model inverts that.
        assert!(by_stats[1] > by_stats[0], "stats model: {by_stats:?}");
    }

    #[test]
    fn statistics_reflect_partition_pruning() {
        let store = EventStore::ingest(&misleading(), StoreConfig::partitioned()).unwrap();
        // A pattern on an empty day estimates ~0 matches → max-ish score.
        let ctx = compile(r#"(at "06/01/2019") proc p read file f as e1 return p"#).unwrap();
        let s = scores(ScoreModel::DataStatistics, &store, &ctx);
        assert!(s[0] >= 39, "empty window should score near the cap: {s:?}");
    }

    #[test]
    fn both_models_cover_all_patterns() {
        let store = EventStore::ingest(&misleading(), StoreConfig::partitioned()).unwrap();
        let ctx = compile(QUERY).unwrap();
        for model in [ScoreModel::ConstraintCount, ScoreModel::DataStatistics] {
            assert_eq!(scores(model, &store, &ctx).len(), 2);
        }
    }
}

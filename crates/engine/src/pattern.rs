//! Per-pattern data-query execution against the store.
//!
//! A pattern execution scans the subject/object entity tables (index-
//! accelerated), scans the `events` table with partition pruning — in
//! parallel across the store's execution shards when configured (the
//! paper's time-window partition parallelism, Sec. 5.2) — and emits
//! flattened match rows.

use crate::error::EngineError;
use crate::exec::{self, ExecPolicy, ScatterProfile};
use crate::layout;
use crate::synth::{apply_extra, synthesize, DataQuery, ExtraCstr};
use aiql_core::PatternCtx;
use aiql_model::EntityKind;
use aiql_rdb::{CmpOp, Expr, PartKey, Prune, Row, Value};
use aiql_storage::{schema, EventStore};
use std::collections::HashMap;
use std::time::Instant;

/// Execution statistics for one query.
#[derive(Debug, Default, Clone)]
pub struct EngineStats {
    /// Number of data queries issued (one per pattern execution).
    pub data_queries: u32,
    /// Rows touched by storage scans.
    pub rows_scanned: u64,
    /// Match counts per executed pattern (by pattern index).
    pub matches: Vec<(usize, usize)>,
    /// Tuples considered during joins.
    pub join_work: u64,
    /// Per-scan access-path and pruning accounting, in execution order —
    /// the raw material of the session API's `EXPLAIN`.
    pub scans: Vec<ScanRecord>,
}

/// Which side of a pattern's data query a scan served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanTarget {
    /// The events-table scan.
    Events,
    /// The subject entity table (constrained scan or batch ID lookup).
    Subject,
    /// The object entity table (constrained scan or batch ID lookup).
    Object,
}

impl ScanTarget {
    /// Display name used in EXPLAIN output.
    pub fn name(self) -> &'static str {
        match self {
            ScanTarget::Events => "events",
            ScanTarget::Subject => "subject",
            ScanTarget::Object => "object",
        }
    }
}

/// One storage scan issued while executing a pattern's data query.
#[derive(Debug, Clone)]
pub struct ScanRecord {
    /// Pattern index the scan served.
    pub pattern: usize,
    /// Which side of the data query it was.
    pub target: ScanTarget,
    /// The table scanned.
    pub table: String,
    /// Access paths, partition pruning, zone-map skips, rows touched.
    pub profile: aiql_rdb::ScanProfile,
    /// How the scan scattered across shards (None for entity scans and
    /// unsharded event scans).
    pub scatter: Option<ScatterProfile>,
}

/// Deadline wrapper shared across the engine.
#[derive(Debug, Clone, Copy)]
pub struct Deadline(pub Option<Instant>);

impl Deadline {
    /// No deadline.
    pub fn none() -> Deadline {
        Deadline(None)
    }

    /// Errors when the deadline has passed.
    #[inline]
    pub fn check(&self) -> Result<(), EngineError> {
        match self.0 {
            Some(d) if Instant::now() >= d => Err(EngineError::Timeout),
            _ => Ok(()),
        }
    }
}

/// Scans the events table, scattering across the store's shards when the
/// policy is parallel and the layout is partitioned. Rows stay borrowed
/// from the store — no per-row clone.
#[allow(clippy::too_many_arguments)]
fn scan_events<'a>(
    store: &'a EventStore,
    conjuncts: &[Expr],
    prune: &Prune,
    exec: ExecPolicy,
    deadline: Deadline,
    scanned: &mut u64,
    profile: &mut aiql_rdb::ScanProfile,
    scatter: &mut Option<ScatterProfile>,
) -> Result<Vec<&'a Row>, EngineError> {
    deadline.check()?;
    if exec.parallel {
        if let Some(pt) = store.events_partitioned() {
            let (rows, sp) = scatter_partition_scan(
                pt,
                store.shard_count(),
                conjuncts,
                prune,
                exec,
                deadline,
                scanned,
                profile,
            )?;
            *scatter = Some(sp);
            return Ok(rows);
        }
    }
    Ok(store.scan_events_profiled(conjuncts, prune, scanned, profile))
}

fn merge_prune(a: &Prune, b: &Prune) -> Prune {
    Prune {
        day_lo: match (a.day_lo, b.day_lo) {
            (Some(x), Some(y)) => Some(x.max(y)),
            (x, y) => x.or(y),
        },
        day_hi: match (a.day_hi, b.day_hi) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, y) => x.or(y),
        },
        agents: a.agents.clone().or_else(|| b.agents.clone()),
    }
}

/// Scatters the admitted partitions of a sharded event table across the
/// execution pool and gathers the borrowed rows back in sequential order.
///
/// Partitions are grouped into shards by `shard_of` (the store layout's
/// routing function); each occupied shard becomes one pool task scanning
/// its partitions in key order. Tasks are dispatched **largest estimated
/// shard first** so stragglers start earliest, and the gather merges the
/// per-partition results sorted by `PartKey` — exactly the order the
/// sequential `select_refs_profiled` walk produces, which is what lets the
/// proptest oracle demand row-identical output. When pruning confines the
/// scan to a single shard, the scan runs shard-local on the coordinator
/// (no pool round-trip).
///
/// Rows stay borrowed throughout: workers collect `&Row` per partition,
/// so no event row is cloned regardless of parallelism. A worker panic
/// surfaces as [`EngineError::Worker`] (see `crate::exec`), never a
/// process abort.
#[allow(clippy::too_many_arguments)]
fn scatter_partition_scan<'a>(
    pt: &'a aiql_rdb::PartitionedTable,
    shards: usize,
    conjuncts: &[Expr],
    prune: &Prune,
    exec: ExecPolicy,
    deadline: Deadline,
    scanned: &mut u64,
    profile: &mut aiql_rdb::ScanProfile,
) -> Result<(Vec<&'a Row>, ScatterProfile), EngineError> {
    let derived = pt.prune_from_conjuncts(conjuncts);
    let merged = merge_prune(prune, &derived);
    let shards = shards.max(1);
    let buckets = pt.shards_for(&merged, shards);
    let occupied: Vec<(usize, Vec<(PartKey, &'a aiql_rdb::Table)>)> = buckets
        .into_iter()
        .enumerate()
        .filter(|(_, b)| !b.is_empty())
        .collect();

    profile.partitions_total += pt.partition_count() as u32;
    profile.partitions_scanned += occupied.iter().map(|(_, b)| b.len() as u32).sum::<u32>();
    profile.shards_total += shards as u32;
    profile.shards_scanned += occupied.len() as u32;

    let mut sp = ScatterProfile {
        shards_total: shards as u32,
        shards_scanned: occupied.len() as u32,
        colocated: occupied.len() <= 1,
        ..Default::default()
    };

    // Scatter order: estimated rows (admitted partition sizes — the same
    // statistic the scheduler's scorer uses) descending.
    let mut order: Vec<usize> = (0..occupied.len()).collect();
    let est: Vec<usize> = occupied
        .iter()
        .map(|(_, b)| b.iter().map(|(_, t)| t.len()).sum())
        .collect();
    order.sort_by_key(|&i| std::cmp::Reverse(est[i]));

    let tasks: Vec<_> = order
        .iter()
        .map(|&i| {
            let (sid, bucket) = &occupied[i];
            let sid = *sid;
            move || {
                let t0 = Instant::now();
                let mut local = 0u64;
                let mut prof = aiql_rdb::ScanProfile::default();
                let mut parts: Vec<(PartKey, Vec<&'a Row>)> = Vec::with_capacity(bucket.len());
                for (k, t) in bucket {
                    let (_, pos) = t.select_profiled(conjuncts, &mut local, &mut prof);
                    parts.push((*k, pos.into_iter().map(|p| t.row(p)).collect()));
                }
                let m = crate::metrics::metrics();
                m.shard_scan_micros.record(t0.elapsed().as_micros() as u64);
                m.shard_scan_rows
                    .record(parts.iter().map(|(_, r)| r.len() as u64).sum());
                (sid, local, prof, parts)
            }
        })
        .collect();

    let width = exec.width().min(tasks.len().max(1));
    sp.workers = width as u32;
    let run = exec::scatter(tasks, width)?;
    deadline.check()?;
    sp.queue_wait_micros = run.queue_wait_micros;

    // Gather: merge per-partition results by key — sequential scan order.
    let mut tagged: Vec<(PartKey, Vec<&'a Row>)> = Vec::new();
    for (sid, local, prof, parts) in run.results {
        *scanned += local;
        profile.merge(&prof);
        sp.scatter_order.push(sid as u32);
        sp.rows_per_shard
            .push(parts.iter().map(|(_, r)| r.len() as u64).sum());
        tagged.extend(parts);
    }
    tagged.sort_by_key(|(k, _)| *k);
    let out: Vec<&'a Row> = tagged.into_iter().flat_map(|(_, r)| r).collect();
    Ok((out, sp))
}

/// When an entity filter yields at most this many IDs, the executor pushes
/// an IN-list onto the events scan so the `subject_id`/`object_id` indexes
/// can drive it.
const ID_PUSHDOWN_LIMIT: usize = 20_000;

/// Executes one pattern's data query; returns flattened match rows.
pub fn execute_pattern(
    store: &EventStore,
    p: &PatternCtx,
    extra: &ExtraCstr,
    exec: ExecPolicy,
    deadline: Deadline,
    stats: &mut EngineStats,
) -> Result<Vec<Row>, EngineError> {
    // Trace the whole data query as one `scan:<pattern>` phase, named by
    // the event variable when the query declared one (`as evt1`).
    let _scan = aiql_telemetry::trace::span(&match &p.evt_var {
        Some(v) => format!("scan:{v}"),
        None => format!("scan:p{}", p.idx),
    });
    let mut q: DataQuery = synthesize(p);
    apply_extra(&mut q, extra);
    stats.data_queries += 1;

    // 1. Entity-side scans (only when constrained — otherwise resolved
    //    lazily from the event rows).
    let subj_map = if q.subject.is_empty() {
        None
    } else {
        Some(scan_entity_map(
            store,
            EntityKind::Process,
            &q.subject,
            p.idx,
            ScanTarget::Subject,
            stats,
        ))
    };
    let obj_map = if q.object.is_empty() {
        None
    } else {
        Some(scan_entity_map(
            store,
            p.object_kind,
            &q.object,
            p.idx,
            ScanTarget::Object,
            stats,
        ))
    };
    deadline.check()?;

    // Early exit: a constrained entity side with no matches.
    if subj_map.as_ref().is_some_and(HashMap::is_empty)
        || obj_map.as_ref().is_some_and(HashMap::is_empty)
    {
        stats.matches.push((p.idx, 0));
        return Ok(Vec::new());
    }

    // 2. Push small ID sets into the events scan.
    let mut event_conjuncts = q.event.clone();
    if let Some(m) = &subj_map {
        if m.len() <= ID_PUSHDOWN_LIMIT {
            event_conjuncts.push(Expr::In(
                Box::new(Expr::Col(schema::ev::SUBJECT)),
                m.keys().map(|&k| Value::Int(k)).collect(),
            ));
        }
    }
    if let Some(m) = &obj_map {
        if m.len() <= ID_PUSHDOWN_LIMIT {
            event_conjuncts.push(Expr::In(
                Box::new(Expr::Col(schema::ev::OBJECT)),
                m.keys().map(|&k| Value::Int(k)).collect(),
            ));
        }
    }

    // 3. Events scan. Rows stay borrowed from the store — they are only
    //    read and flattened, never kept.
    let mut scanned = 0u64;
    let mut profile = aiql_rdb::ScanProfile::default();
    let mut scatter = None;
    let events = scan_events(
        store,
        &event_conjuncts,
        &q.prune,
        exec,
        deadline,
        &mut scanned,
        &mut profile,
        &mut scatter,
    )?;
    stats.scans.push(ScanRecord {
        pattern: p.idx,
        target: ScanTarget::Events,
        table: schema::EVENTS.to_string(),
        profile,
        scatter,
    });
    stats.rows_scanned += scanned;

    // 4. Filter by entity maps and resolve missing entity rows in batches.
    let mut kept: Vec<&Row> = Vec::with_capacity(events.len());
    let mut need_subj: Vec<i64> = Vec::new();
    let mut need_obj: Vec<i64> = Vec::new();
    for ev in events {
        let sid = ev[schema::ev::SUBJECT].as_int().unwrap_or(-1);
        let oid = ev[schema::ev::OBJECT].as_int().unwrap_or(-1);
        match &subj_map {
            Some(m) if !m.contains_key(&sid) => continue,
            Some(_) => {}
            None => need_subj.push(sid),
        }
        match &obj_map {
            Some(m) if !m.contains_key(&oid) => continue,
            Some(_) => {}
            None => need_obj.push(oid),
        }
        kept.push(ev);
    }
    let subj_map = match subj_map {
        Some(m) => m,
        None => batch_lookup(
            store,
            EntityKind::Process,
            need_subj,
            p.idx,
            ScanTarget::Subject,
            stats,
        ),
    };
    let obj_map = match obj_map {
        Some(m) => m,
        None => batch_lookup(
            store,
            p.object_kind,
            need_obj,
            p.idx,
            ScanTarget::Object,
            stats,
        ),
    };
    deadline.check()?;

    // 5. Flatten.
    let mut out = Vec::with_capacity(kept.len());
    for ev in kept {
        let sid = ev[schema::ev::SUBJECT].as_int().unwrap_or(-1);
        let oid = ev[schema::ev::OBJECT].as_int().unwrap_or(-1);
        let (Some(s), Some(o)) = (subj_map.get(&sid), obj_map.get(&oid)) else {
            // Entity row missing (dangling reference) — drop the event.
            continue;
        };
        out.push(layout::flatten(ev, s, o));
    }
    stats.matches.push((p.idx, out.len()));
    Ok(out)
}

fn scan_entity_map(
    store: &EventStore,
    kind: EntityKind,
    conjuncts: &[Expr],
    pattern: usize,
    target: ScanTarget,
    stats: &mut EngineStats,
) -> HashMap<i64, Row> {
    let mut scanned = 0u64;
    let mut profile = aiql_rdb::ScanProfile::default();
    let rows = store.scan_entities_profiled(kind, conjuncts, &mut scanned, &mut profile);
    stats.rows_scanned += scanned;
    stats.scans.push(ScanRecord {
        pattern,
        target,
        table: schema::entity_table(kind).to_string(),
        profile,
        scatter: None,
    });
    rows.into_iter()
        .filter_map(|r| r[0].as_int().map(|id| (id, r)))
        .collect()
}

fn batch_lookup(
    store: &EventStore,
    kind: EntityKind,
    mut ids: Vec<i64>,
    pattern: usize,
    target: ScanTarget,
    stats: &mut EngineStats,
) -> HashMap<i64, Row> {
    ids.sort_unstable();
    ids.dedup();
    if ids.is_empty() {
        return HashMap::new();
    }
    let conjuncts = vec![Expr::In(
        Box::new(Expr::Col(0)),
        ids.iter().map(|&i| Value::Int(i)).collect(),
    )];
    scan_entity_map(store, kind, &conjuncts, pattern, target, stats)
}

/// Convenience: the event-start lower/upper bound conjunct positions used in
/// tests.
pub fn start_bound(lo: i64) -> Expr {
    Expr::cmp_lit(schema::ev::START, CmpOp::Ge, lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_core::compile;
    use aiql_model::{AgentId, Dataset, Entity, Event, OpType, Timestamp};
    use aiql_storage::StoreConfig;

    fn dataset() -> Dataset {
        let mut d = Dataset::new();
        let a = AgentId(1);
        let cmd = d.add_entity(Entity::process(1.into(), a, "cmd.exe", 100));
        let osql = d.add_entity(Entity::process(2.into(), a, "osql.exe", 101));
        let svchost = d.add_entity(Entity::process(3.into(), a, "svchost.exe", 102));
        let dump = d.add_entity(Entity::file(4.into(), a, "c:\\backup1.dmp"));
        let t0 = Timestamp::from_ymd(2017, 1, 1).unwrap().0;
        d.add_event(Event::new(
            1.into(),
            a,
            cmd,
            OpType::Start,
            osql,
            EntityKind::Process,
            Timestamp(t0 + 100),
        ));
        d.add_event(Event::new(
            2.into(),
            a,
            osql,
            OpType::Write,
            dump,
            EntityKind::File,
            Timestamp(t0 + 200),
        ));
        d.add_event(Event::new(
            3.into(),
            a,
            svchost,
            OpType::Read,
            dump,
            EntityKind::File,
            Timestamp(t0 + 300),
        ));
        d
    }

    fn policy(parallel: bool) -> ExecPolicy {
        ExecPolicy {
            parallel,
            workers: 0,
        }
    }

    fn run(src: &str, parallel: bool) -> Vec<Row> {
        let store = EventStore::ingest(&dataset(), StoreConfig::partitioned()).unwrap();
        let ctx = compile(src).unwrap();
        let mut stats = EngineStats::default();
        execute_pattern(
            &store,
            &ctx.patterns[0],
            &ExtraCstr::default(),
            policy(parallel),
            Deadline::none(),
            &mut stats,
        )
        .unwrap()
    }

    #[test]
    fn constrained_subject_and_object() {
        let rows = run(
            r#"proc p["%osql%"] write file f["%backup1.dmp"] return p, f"#,
            false,
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].len(), layout::MATCH_WIDTH);
        assert_eq!(
            rows[0][layout::SUBJ_OFF + schema::proc::EXE_NAME],
            Value::str("osql.exe")
        );
        assert_eq!(
            rows[0][layout::OBJ_OFF + schema::file::NAME],
            Value::str("c:\\backup1.dmp")
        );
    }

    #[test]
    fn unconstrained_sides_lazy_resolved() {
        let rows = run("proc p read || write file f return p, f", false);
        assert_eq!(rows.len(), 2, "write + read of the dump");
        // Subject rows resolved by batch lookup.
        assert!(rows
            .iter()
            .any(|r| r[layout::SUBJ_OFF + schema::proc::EXE_NAME] == Value::str("svchost.exe")));
    }

    #[test]
    fn no_matches_when_entity_filter_empty() {
        let rows = run(r#"proc p["%powershell%"] write file f return p"#, false);
        assert!(rows.is_empty());
    }

    #[test]
    fn parallel_equals_sequential() {
        let src = r#"(at "01/01/2017") proc p read || write || start file f return p, f"#;
        let mut a = run(src, false);
        let mut b = run(src, true);
        let key = |r: &Row| r[schema::ev::ID].clone();
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
    }

    #[test]
    fn scatter_rows_identical_to_sequential_across_shards() {
        // Stronger than `parallel_equals_sequential`: no sorting — the
        // gather must reproduce the sequential row order exactly, for
        // every shard count and scatter width.
        let src = r#"proc p read || write || start file f return p, f"#;
        let ctx = compile(src).unwrap();
        for shards in [1u32, 2, 3, 5, 8] {
            let store =
                EventStore::ingest(&dataset(), StoreConfig::partitioned().with_shards(shards))
                    .unwrap();
            let mut s1 = EngineStats::default();
            let seq = execute_pattern(
                &store,
                &ctx.patterns[0],
                &ExtraCstr::default(),
                policy(false),
                Deadline::none(),
                &mut s1,
            )
            .unwrap();
            for workers in [1usize, 2, 4] {
                let mut s2 = EngineStats::default();
                let par = execute_pattern(
                    &store,
                    &ctx.patterns[0],
                    &ExtraCstr::default(),
                    ExecPolicy {
                        parallel: true,
                        workers,
                    },
                    Deadline::none(),
                    &mut s2,
                )
                .unwrap();
                assert_eq!(par, seq, "shards={shards} workers={workers}");
                // The events scan carries the scatter shape for EXPLAIN.
                let ev_scan = s2
                    .scans
                    .iter()
                    .find(|s| s.target == ScanTarget::Events)
                    .unwrap();
                let sp = ev_scan.scatter.as_ref().expect("scatter profile");
                assert_eq!(sp.shards_total, shards);
                assert_eq!(sp.scatter_order.len(), sp.shards_scanned as usize);
                assert_eq!(sp.rows_per_shard.len(), sp.shards_scanned as usize);
            }
        }
    }

    #[test]
    fn window_prunes_everything_outside() {
        let rows = run(r#"(at "06/01/2019") proc p write file f return p"#, false);
        assert!(rows.is_empty());
    }

    #[test]
    fn extra_in_list_constrains() {
        let store = EventStore::ingest(&dataset(), StoreConfig::partitioned()).unwrap();
        let ctx = compile("proc p read || write file f return p, f").unwrap();
        let extra = ExtraCstr {
            in_lists: vec![(
                crate::synth::Side::Event,
                schema::ev::SUBJECT,
                vec![Value::Int(3)],
            )],
            time_lo: None,
            time_hi: None,
        };
        let mut stats = EngineStats::default();
        let rows = execute_pattern(
            &store,
            &ctx.patterns[0],
            &extra,
            policy(false),
            Deadline::none(),
            &mut stats,
        )
        .unwrap();
        assert_eq!(rows.len(), 1, "only svchost's read");
    }

    #[test]
    fn segmented_store_matches_single() {
        let d = dataset();
        let single = EventStore::ingest(&d, StoreConfig::partitioned()).unwrap();
        let sharded = EventStore::ingest(&d, StoreConfig::partitioned().with_shards(4)).unwrap();
        let ctx = compile("proc p read || write || start file f return p, f").unwrap();
        let mut s1 = EngineStats::default();
        let mut s2 = EngineStats::default();
        let mut a = execute_pattern(
            &single,
            &ctx.patterns[0],
            &ExtraCstr::default(),
            policy(false),
            Deadline::none(),
            &mut s1,
        )
        .unwrap();
        let mut b = execute_pattern(
            &sharded,
            &ctx.patterns[0],
            &ExtraCstr::default(),
            crate::EngineConfig::aiql().exec_policy(),
            Deadline::none(),
            &mut s2,
        )
        .unwrap();
        let key = |r: &Row| r[schema::ev::ID].clone();
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
    }
}

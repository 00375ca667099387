//! Data-query scheduling (paper Sec. 5.2).
//!
//! Two schedulers are implemented:
//!
//! - [`fetch_and_filter`] — the straightforward baseline the paper compares
//!   against ("AIQL FF"): execute every data query independently, keep all
//!   results in memory, then use the relationships to filter.
//! - [`relationship_based`] — the paper's Algorithm 1: compute a pruning
//!   score per pattern (its constraint count), sort relationships by type
//!   (process/network events ahead of file events) and combined score, then
//!   walk the relationships executing the higher-scored pattern first and
//!   *constraining* the other side's data query with the observed results
//!   (IN-lists on equi-join attributes, narrowed time bounds for temporal
//!   relationships).

use crate::error::EngineError;
use crate::exec::ExecPolicy;
use crate::layout::{resolve_field, OBJ_OFF, START_COL, SUBJ_OFF};
use crate::pattern::{execute_pattern, Deadline, EngineStats};
use crate::synth::{ExtraCstr, Side};
use crate::tupleset::{Matches, RelEval, TupleSet};
use aiql_core::ast::{CmpOp as AstCmp, TempKind};
use aiql_core::{FieldRef, QueryContext, RelationCtx};
use aiql_model::EntityKind;
use aiql_rdb::Value;
use aiql_storage::EventStore;

/// Scheduler selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Relationship-based scheduling (Algorithm 1) — AIQL's optimization.
    #[default]
    Relationship,
    /// Fetch-and-filter — the in-memory baseline.
    FetchFilter,
}

/// Output of multievent scheduling: per-pattern matches plus the final
/// tuple set joining all patterns.
pub struct Joined {
    pub matches: Matches,
    pub tuples: TupleSet,
}

/// Runs the fetch-and-filter strategy.
pub fn fetch_and_filter(
    store: &EventStore,
    ctx: &QueryContext,
    exec: ExecPolicy,
    deadline: Deadline,
    stats: &mut EngineStats,
) -> Result<Joined, EngineError> {
    let n = ctx.patterns.len();
    let mut matches = Matches::new(n);
    for p in &ctx.patterns {
        let rows = execute_pattern(store, p, &ExtraCstr::default(), exec, deadline, stats)?;
        matches.per_pattern[p.idx] = Some(rows);
    }
    let rels: Vec<RelEval> = ctx
        .relations
        .iter()
        .map(|r| RelEval::build(r, ctx))
        .collect::<Result<_, _>>()?;

    // Fold patterns in query order, applying every relationship as soon as
    // both endpoints are present.
    let mut ts = TupleSet::singleton(0, matches.rows(0).len());
    for j in 1..n {
        let applicable: Vec<&RelEval> = rels
            .iter()
            .filter(|r| {
                let (l, rr) = r.endpoints();
                (l == j && rr < j) || (rr == j && l < j)
            })
            .collect();
        ts = ts.extend(&matches, j, &applicable, deadline, stats)?;
    }
    Ok(Joined {
        matches,
        tuples: ts,
    })
}

/// Relationship sort key (Algorithm 1, step 2): process/network-event
/// relationships ahead of file-event ones, then by descending combined
/// pruning score. Ties break in favour of attribute (equality)
/// relationships — they prune by hash join and constrained execution,
/// whereas temporal relationships only bound a time range.
fn rel_sort_key(rel: &RelationCtx, ctx: &QueryContext, scores: &[u32]) -> (u8, i64, u8) {
    let (l, r) = rel.endpoints();
    let file_class = |p: usize| ctx.patterns[p].object_kind == EntityKind::File;
    let class = u8::from(file_class(l) || file_class(r));
    let score = scores[l] as i64 + scores[r] as i64;
    let kind = match rel {
        RelationCtx::Attr { .. } => 0,
        RelationCtx::Temporal { .. } => 1,
    };
    (class, -score, kind)
}

/// Derives the extra constraints for executing `target`'s data query given
/// the already-known rows of `known` under relationship `rel` (Algorithm 1's
/// `S_j ←execute_{S_i} q_j`).
fn derive_extra(
    rel: &RelationCtx,
    ctx: &QueryContext,
    known: usize,
    known_rows: &[aiql_rdb::Row],
    target: usize,
) -> Result<ExtraCstr, EngineError> {
    let mut extra = ExtraCstr::default();
    if known_rows.is_empty() {
        // No results on the known side: the target query can still run, the
        // join will produce nothing. Constrain maximally with an empty IN.
        extra
            .in_lists
            .push((Side::Event, aiql_storage::schema::ev::ID, Vec::new()));
        return Ok(extra);
    }
    match rel {
        RelationCtx::Attr {
            left,
            op: AstCmp::Eq,
            right,
        } => {
            let (known_ref, target_ref): (&FieldRef, &FieldRef) = if left.pattern == known {
                (left, right)
            } else {
                (right, left)
            };
            debug_assert_eq!(target_ref.pattern, target);
            let known_col = resolve_field(known_ref, ctx.patterns[known].object_kind)?;
            let mut values: Vec<Value> = known_rows.iter().map(|r| r[known_col].clone()).collect();
            values.sort();
            values.dedup();
            // Map the target field onto its sub-scan.
            let tcol = resolve_field(target_ref, ctx.patterns[target].object_kind)?;
            let (side, local) = if tcol >= OBJ_OFF {
                (Side::Object, tcol - OBJ_OFF)
            } else if tcol >= SUBJ_OFF {
                (Side::Subject, tcol - SUBJ_OFF)
            } else {
                (Side::Event, tcol)
            };
            extra.in_lists.push((side, local, values));
        }
        RelationCtx::Attr { .. } => {
            // Non-equality attribute relationships do not constrain the scan;
            // they filter during the join.
        }
        RelationCtx::Temporal {
            left,
            kind,
            range_ns,
            right,
        } => {
            let times: Vec<i64> = known_rows
                .iter()
                .filter_map(|r| r[START_COL].as_int())
                .collect();
            let (min_t, max_t) = (
                times.iter().copied().min().unwrap_or(i64::MIN),
                times.iter().copied().max().unwrap_or(i64::MAX),
            );
            // Orient: does the known side come first (`before`) w.r.t. the
            // target?
            let known_is_left = *left == known;
            debug_assert!(if known_is_left {
                *right == target
            } else {
                *left == target
            });
            let target_after_known = match kind {
                TempKind::Before => known_is_left,
                TempKind::After => !known_is_left,
                TempKind::Within => {
                    let (_lo, hi) = range_ns.unwrap_or((0, 0));
                    extra.time_lo = Some(min_t - hi);
                    extra.time_hi = Some(max_t + hi);
                    return Ok(extra);
                }
            };
            if target_after_known {
                extra.time_lo = Some(match range_ns {
                    Some((lo, _)) => min_t + lo,
                    None => min_t,
                });
                if let Some((_, hi)) = range_ns {
                    extra.time_hi = Some(max_t + hi);
                }
            } else {
                extra.time_hi = Some(match range_ns {
                    Some((lo, _)) => max_t - lo,
                    None => max_t,
                });
                if let Some((_, hi)) = range_ns {
                    extra.time_lo = Some(min_t - hi);
                }
            }
        }
    }
    Ok(extra)
}

/// Runs Algorithm 1 with the paper's constraint-count pruning scores.
pub fn relationship_based(
    store: &EventStore,
    ctx: &QueryContext,
    exec: ExecPolicy,
    deadline: Deadline,
    stats: &mut EngineStats,
) -> Result<Joined, EngineError> {
    let scores: Vec<u32> = ctx.patterns.iter().map(|p| p.score).collect();
    relationship_based_scored(store, ctx, &scores, exec, deadline, stats)
}

/// Runs Algorithm 1: relationship-based scheduling with constrained
/// execution, under externally supplied pruning scores (see
/// [`crate::scoring`] for the available models).
pub fn relationship_based_scored(
    store: &EventStore,
    ctx: &QueryContext,
    scores: &[u32],
    exec: ExecPolicy,
    deadline: Deadline,
    stats: &mut EngineStats,
) -> Result<Joined, EngineError> {
    let n = ctx.patterns.len();
    let mut matches = Matches::new(n);

    // Step 1-2: sort relationships by class and combined pruning score.
    let mut order: Vec<usize> = (0..ctx.relations.len()).collect();
    order.sort_by_key(|&ri| rel_sort_key(&ctx.relations[ri], ctx, scores));
    let rels: Vec<RelEval> = ctx
        .relations
        .iter()
        .map(|r| RelEval::build(r, ctx))
        .collect::<Result<_, _>>()?;

    // M: pattern → tuple-set id; sets stored in an arena.
    let mut set_of: Vec<Option<usize>> = vec![None; n];
    let mut arena: Vec<Option<TupleSet>> = Vec::new();

    // Step 3: main loop over sorted relationships.
    for &ri in &order {
        deadline.check()?;
        let rel_ctx = &ctx.relations[ri];
        let rel = &rels[ri];
        let (i0, j0) = rel.endpoints();
        if i0 == j0 {
            continue;
        }
        match (matches.executed(i0), matches.executed(j0)) {
            (false, false) => {
                // Execute the higher-scoring pattern first, then constrain
                // the other side with its results.
                let (hi, lo) = if scores[i0] >= scores[j0] {
                    (i0, j0)
                } else {
                    (j0, i0)
                };
                let hi_rows = execute_pattern(
                    store,
                    &ctx.patterns[hi],
                    &ExtraCstr::default(),
                    exec,
                    deadline,
                    stats,
                )?;
                let extra = derive_extra(rel_ctx, ctx, hi, &hi_rows, lo)?;
                matches.per_pattern[hi] = Some(hi_rows);
                let lo_rows =
                    execute_pattern(store, &ctx.patterns[lo], &extra, exec, deadline, stats)?;
                matches.per_pattern[lo] = Some(lo_rows);
                let ts = TupleSet::create(&matches, i0, j0, &[rel], deadline, stats)?;
                let id = arena.len();
                arena.push(Some(ts));
                set_of[i0] = Some(id);
                set_of[j0] = Some(id);
            }
            (true, false) | (false, true) => {
                let (known, fresh) = if matches.executed(i0) {
                    (i0, j0)
                } else {
                    (j0, i0)
                };
                // Constrain the fresh query with the known side's *joined*
                // rows (those still present in the tuple set, when one
                // exists — a tighter bound than the raw matches).
                let extra = {
                    let known_rows: Vec<aiql_rdb::Row> = match set_of[known] {
                        Some(id) => {
                            let ts = arena[id].as_ref().expect("live set");
                            let slot = ts.slot(known).expect("pattern in its set");
                            let rows = matches.rows(known);
                            let mut seen = std::collections::HashSet::new();
                            ts.tuples
                                .iter()
                                .filter(|t| seen.insert(t[slot]))
                                .map(|t| rows[t[slot] as usize].clone())
                                .collect()
                        }
                        None => matches.rows(known).to_vec(),
                    };
                    derive_extra(rel_ctx, ctx, known, &known_rows, fresh)?
                };
                let fresh_rows =
                    execute_pattern(store, &ctx.patterns[fresh], &extra, exec, deadline, stats)?;
                matches.per_pattern[fresh] = Some(fresh_rows);
                match set_of[known] {
                    Some(id) => {
                        let ts = arena[id].take().expect("live set");
                        let ts2 = ts.extend(&matches, fresh, &[rel], deadline, stats)?;
                        arena[id] = Some(ts2);
                        set_of[fresh] = Some(id);
                    }
                    None => {
                        let ts = TupleSet::create(&matches, known, fresh, &[rel], deadline, stats)?;
                        let id = arena.len();
                        arena.push(Some(ts));
                        set_of[known] = Some(id);
                        set_of[fresh] = Some(id);
                    }
                }
            }
            (true, true) => {
                match (set_of[i0], set_of[j0]) {
                    (Some(a), Some(b)) if a == b => {
                        // Same set: filter in place.
                        arena[a].as_mut().expect("live set").filter(&matches, rel);
                    }
                    (Some(a), Some(b)) => {
                        // Different sets: merge and re-point all members.
                        let ta = arena[a].take().expect("live set");
                        let tb = arena[b].take().expect("live set");
                        let merged = TupleSet::merge(&ta, &tb, &matches, &[rel], deadline, stats)?;
                        let id = arena.len();
                        for p in &merged.patterns {
                            set_of[*p] = Some(id);
                        }
                        arena.push(Some(merged));
                    }
                    (a, b) => {
                        // A pattern executed without a set (leftover path) —
                        // wrap in singletons then merge.
                        let ga = ensure_set(&mut arena, &mut set_of, &matches, i0, a);
                        let gb = ensure_set(&mut arena, &mut set_of, &matches, j0, b);
                        if ga == gb {
                            arena[ga].as_mut().expect("live set").filter(&matches, rel);
                        } else {
                            let ta = arena[ga].take().expect("live set");
                            let tb = arena[gb].take().expect("live set");
                            let merged =
                                TupleSet::merge(&ta, &tb, &matches, &[rel], deadline, stats)?;
                            let id = arena.len();
                            for p in &merged.patterns {
                                set_of[*p] = Some(id);
                            }
                            arena.push(Some(merged));
                        }
                    }
                }
            }
        }
    }

    // Step 4: leftover patterns (no relationships) execute unconstrained.
    for p in &ctx.patterns {
        if !matches.executed(p.idx) {
            let rows = execute_pattern(store, p, &ExtraCstr::default(), exec, deadline, stats)?;
            matches.per_pattern[p.idx] = Some(rows);
        }
        if set_of[p.idx].is_none() {
            let ts = TupleSet::singleton(p.idx, matches.rows(p.idx).len());
            let id = arena.len();
            arena.push(Some(ts));
            set_of[p.idx] = Some(id);
        }
    }

    // Step 5: merge all remaining distinct sets (cartesian).
    let mut live: Vec<usize> = arena
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.as_ref().map(|_| i))
        .collect();
    // Only keep sets actually referenced by patterns.
    live.retain(|&id| set_of.contains(&Some(id)));
    while live.len() > 1 {
        deadline.check()?;
        let b = live.pop().expect("len > 1");
        let a = live[0];
        let ta = arena[a].take().expect("live set");
        let tb = arena[b].take().expect("live set");
        let merged = TupleSet::merge(&ta, &tb, &matches, &[], deadline, stats)?;
        let id = arena.len();
        for p in &merged.patterns {
            set_of[*p] = Some(id);
        }
        arena.push(Some(merged));
        live[0] = id;
    }

    let final_id = live.pop().expect("at least one pattern");
    let tuples = arena[final_id].take().expect("live set");
    Ok(Joined { matches, tuples })
}

fn ensure_set(
    arena: &mut Vec<Option<TupleSet>>,
    set_of: &mut [Option<usize>],
    matches: &Matches,
    pattern: usize,
    existing: Option<usize>,
) -> usize {
    match existing {
        Some(id) => id,
        None => {
            let ts = TupleSet::singleton(pattern, matches.rows(pattern).len());
            let id = arena.len();
            arena.push(Some(ts));
            set_of[pattern] = Some(id);
            id
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_core::compile;
    use aiql_model::{AgentId, Dataset, Entity, Event, OpType, Timestamp};
    use aiql_storage::StoreConfig;

    /// cmd→osql start; sqlservr→dump write; sbblv reads dump; sbblv→ip write.
    /// Plus noise: 50 background file reads.
    fn dataset() -> Dataset {
        let mut d = Dataset::new();
        let a = AgentId(1);
        let t0 = Timestamp::from_ymd(2017, 1, 1).unwrap().0;
        let cmd = d.add_entity(Entity::process(1.into(), a, "cmd.exe", 1));
        let osql = d.add_entity(Entity::process(2.into(), a, "osql.exe", 2));
        let sql = d.add_entity(Entity::process(3.into(), a, "sqlservr.exe", 3));
        let sbblv = d.add_entity(Entity::process(4.into(), a, "sbblv.exe", 4));
        let dump = d.add_entity(Entity::file(5.into(), a, "c:\\backup1.dmp"));
        let ip = d.add_entity(Entity::netconn(
            6.into(),
            a,
            "10.0.0.5",
            999,
            "10.10.1.129",
            443,
        ));
        let mut eid = 1u64;
        let mut ev = |d: &mut Dataset, s, op, o, k, t: i64| {
            let id = eid;
            eid += 1;
            d.add_event(Event::new(id.into(), a, s, op, o, k, Timestamp(t0 + t)));
        };
        ev(
            &mut d,
            cmd,
            OpType::Start,
            osql,
            aiql_model::EntityKind::Process,
            1_000_000_000,
        );
        ev(
            &mut d,
            sql,
            OpType::Write,
            dump,
            aiql_model::EntityKind::File,
            2_000_000_000,
        );
        ev(
            &mut d,
            sbblv,
            OpType::Read,
            dump,
            aiql_model::EntityKind::File,
            3_000_000_000,
        );
        ev(
            &mut d,
            sbblv,
            OpType::Write,
            ip,
            aiql_model::EntityKind::NetConn,
            4_000_000_000,
        );
        // Background noise.
        for i in 0..50u64 {
            let f = d.add_entity(Entity::file((100 + i).into(), a, format!("/tmp/noise{i}")));
            ev(
                &mut d,
                sbblv,
                OpType::Read,
                f,
                aiql_model::EntityKind::File,
                10_000_000_000 + i as i64,
            );
        }
        d
    }

    const QUERY7: &str = r#"
        (at "01/01/2017")
        proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
        proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
        proc p4["%sbblv.exe"] read file f1 as evt3
        proc p4 read || write ip i1[dstip = "10.10.1.129"] as evt4
        with evt1 before evt2, evt2 before evt3, evt3 before evt4
        return distinct p1, p2, p3, f1, p4, i1
    "#;

    fn joined(sched: Scheduler) -> (Joined, EngineStats) {
        let store = EventStore::ingest(&dataset(), StoreConfig::partitioned()).unwrap();
        let ctx = compile(QUERY7).unwrap();
        let mut stats = EngineStats::default();
        let j = match sched {
            Scheduler::Relationship => relationship_based(
                &store,
                &ctx,
                ExecPolicy::sequential(),
                Deadline::none(),
                &mut stats,
            ),
            Scheduler::FetchFilter => fetch_and_filter(
                &store,
                &ctx,
                ExecPolicy::sequential(),
                Deadline::none(),
                &mut stats,
            ),
        }
        .unwrap();
        (j, stats)
    }

    #[test]
    fn both_schedulers_find_the_attack_chain() {
        for sched in [Scheduler::Relationship, Scheduler::FetchFilter] {
            let (j, _) = joined(sched);
            assert_eq!(
                j.tuples.tuples.len(),
                1,
                "{sched:?} finds exactly the chain"
            );
            assert_eq!(j.tuples.patterns.len(), 4);
        }
    }

    #[test]
    fn relationship_scheduling_does_less_join_work() {
        let (_, rs) = joined(Scheduler::Relationship);
        let (_, ff) = joined(Scheduler::FetchFilter);
        // The constrained execution narrows pattern 2/3 result sets (the
        // unselective `p4 read file f1` pattern), so the relationship
        // scheduler's total matched rows must be smaller.
        let total = |s: &EngineStats| s.matches.iter().map(|(_, n)| *n).sum::<usize>();
        assert!(
            total(&rs) <= total(&ff),
            "relationship {} vs fetch-filter {}",
            total(&rs),
            total(&ff)
        );
    }

    #[test]
    fn patterns_without_relations_cartesian_merge() {
        let store = EventStore::ingest(&dataset(), StoreConfig::partitioned()).unwrap();
        let ctx = compile(
            r#"
            proc pa["%cmd.exe"] start proc pb as e1
            proc pc["%sqlservr.exe"] write file fd as e2
            return pa, pc
            "#,
        )
        .unwrap();
        let mut stats = EngineStats::default();
        let j = relationship_based(
            &store,
            &ctx,
            ExecPolicy::sequential(),
            Deadline::none(),
            &mut stats,
        )
        .unwrap();
        assert_eq!(j.tuples.tuples.len(), 1, "1 x 1 cartesian");
        assert_eq!(j.tuples.patterns.len(), 2);
    }

    #[test]
    fn empty_pattern_empties_the_join() {
        let store = EventStore::ingest(&dataset(), StoreConfig::partitioned()).unwrap();
        let ctx = compile(
            r#"
            proc p1["%cmd.exe"] start proc p2 as e1
            proc p3["%nonexistent%"] write file f as e2
            with e1 before e2
            return p1, p3
            "#,
        )
        .unwrap();
        for sched in [Scheduler::Relationship, Scheduler::FetchFilter] {
            let mut stats = EngineStats::default();
            let j = match sched {
                Scheduler::Relationship => relationship_based(
                    &store,
                    &ctx,
                    ExecPolicy::sequential(),
                    Deadline::none(),
                    &mut stats,
                ),
                Scheduler::FetchFilter => fetch_and_filter(
                    &store,
                    &ctx,
                    ExecPolicy::sequential(),
                    Deadline::none(),
                    &mut stats,
                ),
            }
            .unwrap();
            assert!(j.tuples.tuples.is_empty(), "{sched:?}");
        }
    }

    #[test]
    fn rel_sort_prefers_process_network_over_file() {
        let ctx = compile(QUERY7).unwrap();
        // Relation 2 (evt3 before evt4) touches the network pattern (idx 3)
        // and a file pattern; relation 0 (evt1 before evt2) touches a
        // process pattern and a file pattern... all involve files except
        // none. Verify at least that keys are computed and orderable.
        let scores: Vec<u32> = ctx.patterns.iter().map(|p| p.score).collect();
        let keys: Vec<_> = ctx
            .relations
            .iter()
            .map(|r| rel_sort_key(r, &ctx, &scores))
            .collect();
        assert_eq!(keys.len(), ctx.relations.len());
        // evt1 (process-event) + evt2 (file-event) → class 1.
        assert_eq!(keys[0].0, 1);
    }
}

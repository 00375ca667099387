//! Time- and space-partitioned tables (paper Sec. 3.2).
//!
//! System monitoring data is independent across agents and monotone in time,
//! and queries usually carry a time range and/or host constraint. A
//! [`PartitionedTable`] therefore splits rows by `(day, agent group)`:
//! one partition per day per group of `agent_group_size` agents. Scans prune
//! partitions from the query's temporal/spatial constraints, and the query
//! engine parallelizes across partitions.

use crate::columnar::ColumnarSpec;
use crate::error::RdbError;
use crate::expr::Expr;
use crate::schema::{Row, Schema};
use crate::table::Table;
use aiql_model::SharedDict;
use std::sync::Arc;

/// Nanoseconds per day (partition granularity).
pub const NANOS_PER_DAY: i64 = 86_400 * 1_000_000_000;

/// Declares which columns carry the partitioning dimensions.
#[derive(Debug, Clone)]
pub struct PartitionSpec {
    /// Column holding the event time (Int nanoseconds).
    pub time_col: String,
    /// Column holding the agent ID (Int).
    pub agent_col: String,
    /// Number of consecutive agent IDs per spatial group.
    pub agent_group_size: u32,
}

impl PartitionSpec {
    /// A spec partitioning on `time_col`/`agent_col` with groups of `g`.
    pub fn new(time_col: &str, agent_col: &str, g: u32) -> PartitionSpec {
        PartitionSpec {
            time_col: time_col.to_string(),
            agent_col: agent_col.to_string(),
            agent_group_size: g.max(1),
        }
    }
}

/// Partition key: (day index, agent group).
pub type PartKey = (i64, u32);

/// Deterministic shard assignment of a partition key.
///
/// Shards are the unit of scatter-gather execution: a shard is the set of
/// partitions whose `(day, agent group)` key hashes to it, so one shard's
/// partitions can be scanned by one worker with no coordination. The hash
/// (FNV-1a over both key components) is stable across runs and across
/// shard counts being queried, which keeps routing a pure function of the
/// data: all rows of one agent group on one day share a shard — the
/// by-host placement of the paper's MPP comparison (Fig. 7), generalized
/// to the time dimension.
pub fn shard_of(key: &PartKey, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.0.to_le_bytes().into_iter().chain(key.1.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// What one row insert did to the physical layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InsertReport {
    /// The partition key materialized by this insert, if the row was the
    /// first of its `(day, agent group)` — `None` for plain tables and for
    /// rows landing in an existing partition.
    pub created_partition: Option<PartKey>,
}

/// Pruning constraints for a partitioned scan.
#[derive(Debug, Clone, Default)]
pub struct Prune {
    /// Inclusive lower day bound.
    pub day_lo: Option<i64>,
    /// Inclusive upper day bound.
    pub day_hi: Option<i64>,
    /// Exact agent set, when known.
    pub agents: Option<Vec<i64>>,
}

impl Prune {
    /// No pruning: scan everything.
    pub fn all() -> Prune {
        Prune::default()
    }

    fn admits(&self, key: &PartKey, group_size: u32) -> bool {
        if self.day_lo.is_some_and(|lo| key.0 < lo) {
            return false;
        }
        if self.day_hi.is_some_and(|hi| key.0 > hi) {
            return false;
        }
        if let Some(agents) = &self.agents {
            let g = group_size as i64;
            if !agents.iter().any(|a| a.div_euclid(g) == key.1 as i64) {
                return false;
            }
        }
        true
    }
}

/// A table partitioned by (day, agent group).
///
/// Partitions are held behind `Arc` so a cloned `PartitionedTable` (the
/// snapshot-publication step of `aiql-storage`'s epoch-swapped store)
/// shares every partition by reference instead of copying rows. A
/// partition stays **sealed** — immutable, shared with every snapshot that
/// pinned it — until the writer next routes a row into it, at which point
/// [`Arc::make_mut`] detaches a private copy (copy-on-write). Partitions
/// the stream has moved past (older days, other agent groups) are never
/// touched again, so they are shared by all snapshots forever at zero cost.
///
/// Since tables went chunked (see [`crate::table`]), the detach itself is
/// cheap too: [`Table::clone`] shares the partition's sealed chunks by
/// reference and deep-copies only the open tail, so unsealing a hot
/// partition costs O(tail) — not O(partition). The publish path can drive
/// that cost to ~zero by [`PartitionedTable::freeze_tails`]-ing before it
/// clones.
#[derive(Debug, Clone)]
pub struct PartitionedTable {
    schema: Schema,
    spec: PartitionSpec,
    time_idx: usize,
    agent_idx: usize,
    index_columns: Vec<String>,
    /// Columnar configuration applied to every partition (and every future
    /// partition) once [`PartitionedTable::enable_columnar`] is called.
    columnar: Option<(ColumnarSpec, SharedDict)>,
    partitions: std::collections::BTreeMap<PartKey, Arc<Table>>,
    len: usize,
    /// Cumulative bytes deep-copied by copy-on-write unseals on the
    /// append path (see [`PartitionedTable::copied_bytes`]).
    copied_bytes: u64,
}

impl PartitionedTable {
    /// Creates an empty partitioned table.
    pub fn new(schema: Schema, spec: PartitionSpec) -> Result<PartitionedTable, RdbError> {
        let time_idx = schema.require(&spec.time_col)?;
        let agent_idx = schema.require(&spec.agent_col)?;
        Ok(PartitionedTable {
            schema,
            spec,
            time_idx,
            agent_idx,
            index_columns: Vec::new(),
            columnar: None,
            partitions: std::collections::BTreeMap::new(),
            len: 0,
            copied_bytes: 0,
        })
    }

    /// Enables a columnar projection on every existing partition and
    /// remembers the configuration for partitions created by rollover.
    /// Defaults the sort column to this table's partition time column.
    pub fn enable_columnar(
        &mut self,
        mut spec: ColumnarSpec,
        dict: SharedDict,
    ) -> Result<(), RdbError> {
        if spec.time_col.is_none() {
            spec.time_col = Some(self.spec.time_col.clone());
        }
        // Validate the spec against the schema even when no partition
        // exists yet, so misconfiguration fails at enable time.
        crate::columnar::Columnar::build(&self.schema, &spec, dict.clone(), &[])?;
        for t in self.partitions.values_mut() {
            Arc::make_mut(t).enable_columnar(&spec, dict.clone())?;
        }
        self.columnar = Some((spec, dict));
        Ok(())
    }

    /// Whether partitions carry columnar projections.
    pub fn is_columnar(&self) -> bool {
        self.columnar.is_some()
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The partition spec.
    pub fn spec(&self) -> &PartitionSpec {
        &self.spec
    }

    /// Local positions of the (time, agent) partition columns.
    pub fn partition_columns(&self) -> (usize, usize) {
        (self.time_idx, self.agent_idx)
    }

    /// Total row count across partitions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of partitions currently materialized.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Cumulative bytes deep-copied because an append had to unseal a
    /// partition still `Arc`-shared with a published snapshot — the write
    /// amplification of copy-on-write snapshot isolation, in
    /// [`Table::approx_bytes`] units. With chunked tables the charge per
    /// detach is [`Table::tail_bytes`]: sealed chunks are shared by
    /// reference, only the open tail is copied. Clones (snapshots) carry
    /// the value at clone time, so `head - snapshot` deltas give the bytes
    /// copied between two publishes. One-time schema detaches (index
    /// creation, columnar enablement) are deliberately not counted.
    pub fn copied_bytes(&self) -> u64 {
        self.copied_bytes
    }

    fn key_of(&self, row: &Row) -> Result<PartKey, RdbError> {
        let t = row[self.time_idx].as_int().ok_or_else(|| {
            RdbError::SchemaMismatch(format!(
                "partition time column must be Int, got {:?}",
                row[self.time_idx]
            ))
        })?;
        let a = row[self.agent_idx].as_int().ok_or_else(|| {
            RdbError::SchemaMismatch(format!(
                "partition agent column must be Int, got {:?}",
                row[self.agent_idx]
            ))
        })?;
        Ok((
            t.div_euclid(NANOS_PER_DAY),
            a.div_euclid(self.spec.agent_group_size as i64) as u32,
        ))
    }

    /// Routes a row to its partition, creating it (with the configured
    /// indexes) on first use.
    pub fn insert(&mut self, row: Row) -> Result<(), RdbError> {
        self.insert_reporting(row).map(|_| ())
    }

    /// Like [`PartitionedTable::insert`], but reports whether the insert
    /// rolled over into a freshly created partition — the signal live
    /// ingestion uses to detect day-boundary/agent-group rollover.
    ///
    /// A new partition is born with every index in
    /// [`PartitionedTable::indexed_columns`] already in place, so rows
    /// appended later are index-maintained identically to batch-loaded ones.
    pub fn insert_reporting(&mut self, row: Row) -> Result<InsertReport, RdbError> {
        self.schema.check_row(&row)?;
        let key = self.key_of(&row)?;
        let mut created = None;
        let table = match self.partitions.entry(key) {
            // `make_mut` is the unseal step: a partition shared with a
            // published snapshot is detached into a private copy before
            // the first post-publish append touches it; an unshared one
            // is mutated in place.
            std::collections::btree_map::Entry::Occupied(e) => {
                let slot = e.into_mut();
                if Arc::strong_count(slot) > 1 {
                    // The write amplification the live store pays for
                    // snapshot isolation: charge the detach before it
                    // happens so `copied_bytes` deltas quantify it. The
                    // clone shares sealed chunks, so only the tail counts.
                    self.copied_bytes += slot.tail_bytes();
                }
                Arc::make_mut(slot)
            }
            std::collections::btree_map::Entry::Vacant(e) => {
                let mut t = Table::new(self.schema.clone());
                // Columnar first: `create_index` then projects each indexed
                // column, so both layouts cover `indexed_columns`.
                if let Some((spec, dict)) = &self.columnar {
                    t.enable_columnar(spec, dict.clone())?;
                }
                for c in &self.index_columns {
                    t.create_index(c)?;
                }
                created = Some(key);
                Arc::make_mut(e.insert(Arc::new(t)))
            }
        };
        table.insert(row)?;
        self.len += 1;
        Ok(InsertReport {
            created_partition: created,
        })
    }

    /// Attaches a fully-built partition under `key` — the deserialization
    /// path of the durable store. The table must match this table's schema
    /// arity and must carry whatever indexes/projections the caller wants;
    /// nothing is rebuilt here. Fails if the key is already materialized.
    pub fn restore_partition(&mut self, key: PartKey, table: Table) -> Result<(), RdbError> {
        if table.schema().arity() != self.schema.arity() {
            return Err(RdbError::SchemaMismatch(format!(
                "partition arity {} does not match table arity {}",
                table.schema().arity(),
                self.schema.arity()
            )));
        }
        match self.partitions.entry(key) {
            std::collections::btree_map::Entry::Occupied(_) => Err(RdbError::SchemaMismatch(
                format!("partition {key:?} restored twice"),
            )),
            std::collections::btree_map::Entry::Vacant(e) => {
                self.len += table.len();
                e.insert(Arc::new(table));
                Ok(())
            }
        }
    }

    /// Columns carrying secondary indexes (every current partition has them;
    /// every future partition is created with them).
    pub fn indexed_columns(&self) -> &[String] {
        &self.index_columns
    }

    /// Creates an index on every existing partition and remembers it for
    /// future partitions. Partitions with columnar projections also project
    /// the column (see [`Table::create_index`]), keeping
    /// [`PartitionedTable::indexed_columns`] the single source of truth for
    /// both layouts.
    pub fn create_index(&mut self, column: &str) -> Result<(), RdbError> {
        self.schema.require(column)?;
        if !self.index_columns.iter().any(|c| c == column) {
            self.index_columns.push(column.to_string());
        }
        for t in self.partitions.values_mut() {
            Arc::make_mut(t).create_index(column)?;
        }
        Ok(())
    }

    /// The partitions admitted by `prune`, in key order.
    pub fn partitions_for(&self, prune: &Prune) -> Vec<(PartKey, &Table)> {
        self.partitions
            .iter()
            .filter(|(k, _)| prune.admits(k, self.spec.agent_group_size))
            .map(|(k, t)| (*k, t.as_ref()))
            .collect()
    }

    /// The admitted partitions grouped into `shards` scatter buckets.
    ///
    /// Bucket `i` holds exactly the admitted partitions with
    /// [`shard_of`]`(key, shards) == i`, each bucket in key order — the
    /// same order [`PartitionedTable::select_refs_profiled`] scans them
    /// sequentially. A gather that concatenates per-partition results
    /// sorted by `PartKey` therefore reproduces the sequential scan's row
    /// order exactly. Buckets can be empty (pruning may eliminate a
    /// shard's every partition).
    pub fn shards_for(&self, prune: &Prune, shards: usize) -> Vec<Vec<(PartKey, &Table)>> {
        let n = shards.max(1);
        let mut out: Vec<Vec<(PartKey, &Table)>> = (0..n).map(|_| Vec::new()).collect();
        for (k, t) in self.partitions_for(prune) {
            out[shard_of(&k, n)].push((k, t));
        }
        out
    }

    /// How many of this table's partitions are physically shared (same
    /// `Arc` allocation) with `other` — the observable of the seal-and-swap
    /// protocol: after a snapshot is published, every partition the writer
    /// has not touched since stays shared rather than copied. Diagnostic
    /// for tests and benches; not a query API.
    pub fn partitions_shared_with(&self, other: &PartitionedTable) -> usize {
        self.partitions
            .iter()
            .filter(|(k, t)| other.partitions.get(k).is_some_and(|o| Arc::ptr_eq(t, o)))
            .count()
    }

    /// How many sealed chunks, summed over key-matched partitions, are
    /// physically shared with `other` — the finer-grained observable of
    /// chunked publication: even after the writer detached a hot
    /// partition's tail, its sealed history stays shared with every
    /// snapshot (see [`Table::chunks_shared_with`]).
    pub fn sealed_chunks_shared_with(&self, other: &PartitionedTable) -> usize {
        self.partitions
            .iter()
            .filter_map(|(k, t)| other.partitions.get(k).map(|o| t.chunks_shared_with(o)))
            .sum()
    }

    /// Seals every partition tail holding at least `min_rows` rows (see
    /// [`Table::freeze_tail`]); returns how many partitions sealed. The
    /// publish path calls this right before cloning the head so the clone
    /// shares the freshly sealed chunks and copies at most `min_rows`-sized
    /// tails per partition. Sealing a still-snapshot-shared partition must
    /// detach it first, so the tail copy is charged to `copied_bytes`
    /// exactly as an append-driven unseal would be.
    pub fn freeze_tails(&mut self, min_rows: usize) -> usize {
        let mut sealed = 0;
        for t in self.partitions.values_mut() {
            if t.tail_chunk().len() < min_rows.max(1) {
                continue;
            }
            if Arc::strong_count(t) > 1 {
                self.copied_bytes += t.tail_bytes();
            }
            if Arc::make_mut(t).freeze_tail(min_rows) {
                sealed += 1;
            }
        }
        sealed
    }

    /// Derives pruning hints from scan conjuncts over this table's layout.
    pub fn prune_from_conjuncts(&self, conjuncts: &[Expr]) -> Prune {
        let (lo, hi, agents) =
            crate::plan::prune_hints(conjuncts, self.time_idx, self.agent_idx, NANOS_PER_DAY);
        Prune {
            day_lo: lo,
            day_hi: hi,
            agents,
        }
    }

    /// Scans all admitted partitions sequentially, applying `conjuncts` with
    /// per-partition access-path selection; returns matching rows (cloned).
    pub fn select(&self, conjuncts: &[Expr], prune: &Prune, scanned: &mut u64) -> Vec<Row> {
        self.select_refs(conjuncts, prune, scanned)
            .into_iter()
            .cloned()
            .collect()
    }

    /// Like [`PartitionedTable::select`], but returns borrowed rows — the
    /// hot path for engine scans, which flatten matches into fresh rows and
    /// never need the clones.
    pub fn select_refs(&self, conjuncts: &[Expr], prune: &Prune, scanned: &mut u64) -> Vec<&Row> {
        let mut profile = crate::table::ScanProfile::default();
        self.select_refs_profiled(conjuncts, prune, scanned, &mut profile)
    }

    /// [`PartitionedTable::select_refs`] with full accounting: partition
    /// pruning, per-partition access paths, and zone-map block skips land
    /// in `profile` (see [`crate::table::ScanProfile`]).
    pub fn select_refs_profiled(
        &self,
        conjuncts: &[Expr],
        prune: &Prune,
        scanned: &mut u64,
        profile: &mut crate::table::ScanProfile,
    ) -> Vec<&Row> {
        profile.partitions_total += self.partition_count() as u32;
        let mut out = Vec::new();
        for (_, t) in self.partitions_for(prune) {
            profile.partitions_scanned += 1;
            let (_, positions) = t.select_profiled(conjuncts, scanned, profile);
            out.extend(positions.into_iter().map(|p| t.row(p)));
        }
        out
    }

    /// All distinct day indexes with data, sorted.
    pub fn days(&self) -> Vec<i64> {
        let mut v: Vec<i64> = self.partitions.keys().map(|(d, _)| *d).collect();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::schema::ColumnType;
    use aiql_model::Value;

    fn pt() -> PartitionedTable {
        let schema = Schema::new(&[
            ("id", ColumnType::Int),
            ("agentid", ColumnType::Int),
            ("start_time", ColumnType::Int),
            ("name", ColumnType::Str),
        ]);
        let mut pt =
            PartitionedTable::new(schema, PartitionSpec::new("start_time", "agentid", 2)).unwrap();
        pt.create_index("name").unwrap();
        // Two days, four agents (groups {0,1} and {2,3}).
        for day in 0..2i64 {
            for agent in 0..4i64 {
                for n in 0..3i64 {
                    pt.insert(vec![
                        Value::Int(day * 100 + agent * 10 + n),
                        Value::Int(agent),
                        Value::Int(day * NANOS_PER_DAY + n * 1_000),
                        Value::str(format!("f{n}")),
                    ])
                    .unwrap();
                }
            }
        }
        pt
    }

    #[test]
    fn copied_bytes_counts_only_shared_unseals() {
        let mut head = pt();
        assert_eq!(head.copied_bytes(), 0, "building alone copies nothing");
        let snapshot = head.clone();
        // First append into a snapshot-shared partition detaches (copies)
        // it; the charge is the partition's size at detach time.
        head.insert(vec![
            Value::Int(900),
            Value::Int(0),
            Value::Int(500_000),
            Value::str("f9"),
        ])
        .unwrap();
        let after_first = head.copied_bytes();
        assert!(after_first > 0, "shared partition unsealed");
        // The partition is now private: further appends copy nothing.
        head.insert(vec![
            Value::Int(901),
            Value::Int(0),
            Value::Int(600_000),
            Value::str("f9"),
        ])
        .unwrap();
        assert_eq!(head.copied_bytes(), after_first);
        // The snapshot froze the counter at clone time.
        assert_eq!(snapshot.copied_bytes(), 0);
    }

    #[test]
    fn routing_and_counts() {
        let pt = pt();
        assert_eq!(pt.len(), 24);
        assert_eq!(pt.partition_count(), 4, "2 days x 2 agent groups");
        assert_eq!(pt.days(), vec![0, 1]);
    }

    #[test]
    fn pruning_by_day_and_agent() {
        let pt = pt();
        let all = pt.partitions_for(&Prune::all());
        assert_eq!(all.len(), 4);

        let day0 = Prune {
            day_lo: Some(0),
            day_hi: Some(0),
            agents: None,
        };
        assert_eq!(pt.partitions_for(&day0).len(), 2);

        let agent3 = Prune {
            day_lo: None,
            day_hi: None,
            agents: Some(vec![3]),
        };
        assert_eq!(pt.partitions_for(&agent3).len(), 2, "group 1, both days");

        let both = Prune {
            day_lo: Some(1),
            day_hi: Some(1),
            agents: Some(vec![0]),
        };
        assert_eq!(pt.partitions_for(&both).len(), 1);
    }

    #[test]
    fn select_uses_partition_indexes() {
        let pt = pt();
        let mut scanned = 0;
        let name_col = pt.schema().position("name").unwrap();
        let rows = pt.select(
            &[Expr::cmp_lit(name_col, CmpOp::Eq, "f1")],
            &Prune::all(),
            &mut scanned,
        );
        assert_eq!(rows.len(), 8);
        assert_eq!(scanned, 8, "index probe touches only matches");
    }

    #[test]
    fn select_with_prune_reduces_work() {
        let pt = pt();
        let mut scanned = 0;
        let prune = Prune {
            day_lo: Some(0),
            day_hi: Some(0),
            agents: Some(vec![0]),
        };
        let rows = pt.select(&[], &prune, &mut scanned);
        assert_eq!(rows.len(), 6, "one group (agents 0,1) on day 0");
    }

    #[test]
    fn prune_from_conjuncts_uses_spec_columns() {
        let pt = pt();
        let prune = pt.prune_from_conjuncts(&[
            Expr::cmp_lit(2, CmpOp::Ge, 0i64),
            Expr::cmp_lit(2, CmpOp::Lt, NANOS_PER_DAY),
            Expr::cmp_lit(1, CmpOp::Eq, 2i64),
        ]);
        assert_eq!(prune.day_lo, Some(0));
        assert_eq!(prune.day_hi, Some(1), "upper bound is day of the literal");
        assert_eq!(prune.agents, Some(vec![2]));
    }

    #[test]
    fn insert_reports_rollover_and_new_partitions_carry_indexes() {
        let schema = Schema::new(&[
            ("agentid", ColumnType::Int),
            ("start_time", ColumnType::Int),
            ("name", ColumnType::Str),
        ]);
        let mut pt =
            PartitionedTable::new(schema, PartitionSpec::new("start_time", "agentid", 2)).unwrap();
        pt.create_index("name").unwrap();
        let row = |agent: i64, t: i64| vec![Value::Int(agent), Value::Int(t), Value::str("f")];

        // First row of (day 0, group 0) creates the partition.
        let r = pt.insert_reporting(row(0, 0)).unwrap();
        assert_eq!(r.created_partition, Some((0, 0)));
        // Same partition: no rollover.
        let r = pt.insert_reporting(row(1, 1_000)).unwrap();
        assert_eq!(r.created_partition, None);
        // Crossing the day boundary rolls over.
        let r = pt.insert_reporting(row(0, NANOS_PER_DAY)).unwrap();
        assert_eq!(r.created_partition, Some((1, 0)));
        // New agent group rolls over too.
        let r = pt.insert_reporting(row(2, 500)).unwrap();
        assert_eq!(r.created_partition, Some((0, 1)));

        // Every partition (including rolled-over ones) has the index: an
        // equality probe touches only matching rows.
        assert_eq!(pt.indexed_columns(), &["name".to_string()]);
        let mut scanned = 0;
        let name_col = pt.schema().position("name").unwrap();
        let rows = pt.select(
            &[Expr::cmp_lit(name_col, CmpOp::Eq, "f")],
            &Prune::all(),
            &mut scanned,
        );
        assert_eq!(rows.len(), 4);
        assert_eq!(scanned, 4, "index probes only");
    }

    #[test]
    fn columnar_follows_rollover_and_index_creation() {
        let mut pt = pt();
        // Project only the partition columns; "name" and "id" stay row-only.
        pt.enable_columnar(
            ColumnarSpec::all().with_columns(&["start_time", "agentid"]),
            SharedDict::new(),
        )
        .unwrap();
        assert!(pt.is_columnar());
        // Existing indexes ("name") are projected on enable; a later index
        // ("id") joins the projection on every partition too.
        pt.create_index("id").unwrap();
        for (_, t) in pt.partitions_for(&Prune::all()) {
            let c = t.columnar().expect("projection enabled");
            let name_col = t.schema().position("name").unwrap();
            let id_col = t.schema().position("id").unwrap();
            assert!(c.is_projected(name_col), "pre-existing index covered");
            assert!(c.is_projected(id_col), "new index covered");
        }
        // Rollover into a fresh partition carries projection + indexes.
        pt.insert(vec![
            Value::Int(999),
            Value::Int(0),
            Value::Int(5 * NANOS_PER_DAY),
            Value::str("late"),
        ])
        .unwrap();
        let fresh = pt
            .partitions_for(&Prune {
                day_lo: Some(5),
                day_hi: Some(5),
                agents: None,
            })
            .pop()
            .expect("rolled-over partition")
            .1;
        let c = fresh.columnar().expect("rollover keeps columnar");
        assert!(c.is_projected(fresh.schema().position("name").unwrap()));
        assert_eq!(c.len(), 1);
        // And scans through the columnar path agree with the row path.
        let mut scanned = 0;
        let rows = pt.select(
            &[Expr::cmp_lit(2, CmpOp::Ge, 5 * NANOS_PER_DAY)],
            &Prune::all(),
            &mut scanned,
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][3], Value::str("late"));
    }

    #[test]
    fn shard_routing_is_stable_and_total() {
        let pt = pt();
        for shards in 1..=8usize {
            let buckets = pt.shards_for(&Prune::all(), shards);
            assert_eq!(buckets.len(), shards);
            // Every admitted partition lands in exactly one bucket, in the
            // bucket shard_of names, and in key order within the bucket.
            let mut seen = 0;
            for (i, bucket) in buckets.iter().enumerate() {
                assert!(bucket.windows(2).all(|w| w[0].0 < w[1].0));
                for (k, _) in bucket {
                    assert_eq!(shard_of(k, shards), i);
                    seen += 1;
                }
            }
            assert_eq!(seen, pt.partition_count());
        }
        // shard_of is a pure function: same key, same shard, every call.
        assert_eq!(shard_of(&(3, 7), 5), shard_of(&(3, 7), 5));
        assert_eq!(shard_of(&(3, 7), 1), 0);
    }

    #[test]
    fn sharded_gather_matches_sequential_order() {
        let pt = pt();
        let mut scanned = 0;
        let seq = pt.select_refs(&[], &Prune::all(), &mut scanned);
        for shards in 1..=6usize {
            // Scan each shard bucket independently, tag rows with their
            // partition key, then merge by key — the gather contract.
            let mut tagged: Vec<(PartKey, Vec<&Row>)> = Vec::new();
            for bucket in pt.shards_for(&Prune::all(), shards) {
                for (k, t) in bucket {
                    let mut s = 0;
                    let mut prof = crate::table::ScanProfile::default();
                    let (_, positions) = t.select_profiled(&[], &mut s, &mut prof);
                    tagged.push((k, positions.into_iter().map(|p| t.row(p)).collect()));
                }
            }
            tagged.sort_by_key(|(k, _)| *k);
            let gathered: Vec<&Row> = tagged.into_iter().flat_map(|(_, r)| r).collect();
            assert_eq!(gathered, seq, "shards={shards}");
        }
    }

    #[test]
    fn insert_rejects_bad_partition_values() {
        let mut pt = pt();
        let r = pt.insert(vec![
            Value::Int(1),
            Value::str("x"),
            Value::Int(0),
            Value::str("f"),
        ]);
        assert!(r.is_err());
    }
}

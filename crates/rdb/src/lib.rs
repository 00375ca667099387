//! A from-scratch mini relational database, standing in for the PostgreSQL /
//! Greenplum storage layer of the AIQL paper.
//!
//! The AIQL system stores system monitoring data in relational databases and
//! issues SQL *data queries* against them; its evaluation compares against
//! executing one big semantics-agnostic SQL join. This crate provides exactly
//! that substrate, self-contained and deterministic:
//!
//! - typed row-store [`Table`]s with secondary B-tree [`table::Index`]es,
//! - a SQL-subset front end ([`sql`]) — `SELECT` with joins, `WHERE`,
//!   `GROUP BY`, `HAVING`, `ORDER BY`, `LIMIT`,
//! - a deliberately *semantics-agnostic* planner ([`plan`]): single-table
//!   predicate pushdown with index selection, left-deep joins in `FROM`
//!   order, hash joins for equi-predicates and nested loops otherwise —
//!   the plan class a generic RDBMS runs when handed the paper's big-join
//!   translation of a multievent query,
//! - time/space [`partition`]ing of tables with partition pruning (the
//!   paper's Sec. 3.2 storage optimization), and
//! - an MPP [`segment`] layer with round-robin placement and
//!   scatter/gather execution (the Greenplum analogue of Sec. 6.3.3).
//!
//! Execution is materialized and cancellable: long-running queries observe a
//! deadline through [`exec::ExecCtx`] so benchmark harnesses can impose the
//! paper's one-hour-style budget.
//!
//! # Examples
//!
//! ```
//! use aiql_rdb::{Database, Schema, ColumnType, Value};
//!
//! let mut db = Database::new();
//! let schema = Schema::new(&[("id", ColumnType::Int), ("name", ColumnType::Str)]);
//! db.create_table("users", schema).unwrap();
//! db.create_index("users", "name").unwrap();
//! db.insert("users", vec![Value::Int(1), Value::str("alice")]).unwrap();
//! db.insert("users", vec![Value::Int(2), Value::str("bob")]).unwrap();
//!
//! let rs = db.query("SELECT u.id FROM users u WHERE u.name = 'bob'").unwrap();
//! assert_eq!(rs.rows, vec![vec![Value::Int(2)]]);
//! ```

pub mod columnar;
pub mod error;
pub mod exec;
pub mod expr;
pub mod partition;
pub mod plan;
pub mod schema;
pub mod segment;
pub mod snapshot;
pub mod sql;
pub mod table;

pub use aiql_model::{SharedDict, Sym, Value};
pub use columnar::{Columnar, ColumnarSpec, Kernel};
pub use error::RdbError;
pub use exec::{ExecCtx, ExecStats, ResultSet};
pub use expr::{CmpOp, Expr};
pub use partition::{shard_of, InsertReport, PartKey, PartitionSpec, PartitionedTable, Prune};
pub use schema::{ColumnType, Row, Schema};
pub use segment::SegmentedDb;
pub use table::{AccessPath, ScanProfile, SealedChunk, Table, DEFAULT_CHUNK_ROWS};

use std::collections::BTreeMap;
use std::sync::Arc;

/// Storage backing one named table: monolithic or partitioned.
///
/// Plain tables sit behind `Arc` for the same copy-on-write sharing as
/// partitions (see [`PartitionedTable`]): cloning a [`Database`] — the
/// snapshot-publication step of the live store — shares every table by
/// reference, and a table is deep-copied only when the writer next mutates
/// it while a published snapshot still holds the previous version.
// A database holds a handful of slots (one per named table), so the size
// spread between the boxed plain variant and the inline partitioned one
// costs nothing worth an extra indirection on every partitioned access.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum TableSlot {
    Plain(Arc<Table>),
    Partitioned(PartitionedTable),
}

impl TableSlot {
    /// The table schema, regardless of storage form.
    pub fn schema(&self) -> &Schema {
        match self {
            TableSlot::Plain(t) => t.schema(),
            TableSlot::Partitioned(t) => t.schema(),
        }
    }

    /// Total row count.
    pub fn len(&self) -> usize {
        match self {
            TableSlot::Plain(t) => t.len(),
            TableSlot::Partitioned(t) => t.len(),
        }
    }

    /// Whether the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A named collection of tables with a SQL front end.
///
/// `Clone` is cheap by design: every table is `Arc`-shared with the clone
/// (copy-on-write), which is what lets the live store publish an immutable
/// snapshot per flush without copying row data.
#[derive(Debug, Default, Clone)]
pub struct Database {
    tables: BTreeMap<String, TableSlot>,
    /// Copy-on-write bytes charged by plain-table detaches (partitioned
    /// tables carry their own counter; see [`Database::copied_bytes`]).
    plain_copied_bytes: u64,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Creates a monolithic table; fails if the name is taken.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<(), RdbError> {
        if self.tables.contains_key(name) {
            return Err(RdbError::TableExists(name.to_string()));
        }
        self.tables.insert(
            name.to_string(),
            TableSlot::Plain(Arc::new(Table::new(schema))),
        );
        Ok(())
    }

    /// Creates a time/space-partitioned table; fails if the name is taken.
    pub fn create_partitioned_table(
        &mut self,
        name: &str,
        schema: Schema,
        spec: PartitionSpec,
    ) -> Result<(), RdbError> {
        if self.tables.contains_key(name) {
            return Err(RdbError::TableExists(name.to_string()));
        }
        self.tables.insert(
            name.to_string(),
            TableSlot::Partitioned(PartitionedTable::new(schema, spec)?),
        );
        Ok(())
    }

    /// Creates a secondary index on `column` of `table` (on every partition
    /// for partitioned tables). Columnar projections, when enabled, project
    /// the column too.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<(), RdbError> {
        match self.slot_mut(table)? {
            TableSlot::Plain(t) => Arc::make_mut(t).create_index(column),
            TableSlot::Partitioned(t) => t.create_index(column),
        }
    }

    /// Enables a columnar projection on `table` (on every partition — and
    /// every future partition — for partitioned tables), interning strings
    /// into `dict`.
    pub fn enable_columnar(
        &mut self,
        table: &str,
        spec: ColumnarSpec,
        dict: SharedDict,
    ) -> Result<(), RdbError> {
        match self.slot_mut(table)? {
            TableSlot::Plain(t) => Arc::make_mut(t).enable_columnar(&spec, dict),
            TableSlot::Partitioned(t) => t.enable_columnar(spec, dict),
        }
    }

    /// Inserts a row into `table`, routing to the right partition if the
    /// table is partitioned.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<(), RdbError> {
        self.insert_reporting(table, row).map(|_| ())
    }

    /// Inserts a row, reporting partition creation (see
    /// [`PartitionedTable::insert_reporting`]); plain tables always report
    /// no rollover.
    pub fn insert_reporting(&mut self, table: &str, row: Row) -> Result<InsertReport, RdbError> {
        let mut copied = 0;
        let report = match self.slot_mut(table)? {
            // The copy-on-write step: a plain table shared with a published
            // snapshot is detached before the first post-publish insert.
            TableSlot::Plain(t) => {
                if Arc::strong_count(t) > 1 {
                    // Chunked tables make the detach O(tail): sealed chunks
                    // stay shared with the snapshot.
                    copied = t.tail_bytes();
                }
                Arc::make_mut(t)
                    .insert(row)
                    .map(|_| InsertReport::default())
            }
            TableSlot::Partitioned(t) => t.insert_reporting(row),
        };
        self.plain_copied_bytes += copied;
        report
    }

    /// Cumulative bytes deep-copied by copy-on-write detaches on the
    /// insert path, across every table — the write amplification the
    /// epoch-swapped live store pays for snapshot isolation. Snapshots
    /// (clones) freeze the value at clone time, so `head.copied_bytes() -
    /// snapshot.copied_bytes()` is exactly what publishing after the next
    /// batch cost. Units are [`Table::approx_bytes`] estimates.
    pub fn copied_bytes(&self) -> u64 {
        self.plain_copied_bytes
            + self
                .tables
                .values()
                .map(|s| match s {
                    TableSlot::Plain(_) => 0,
                    TableSlot::Partitioned(t) => t.copied_bytes(),
                })
                .sum::<u64>()
    }

    /// Attaches a fully-built table under `name` — the deserialization path
    /// of the durable store (see [`snapshot`]). Fails if the name is taken.
    pub fn attach(&mut self, name: &str, slot: TableSlot) -> Result<(), RdbError> {
        if self.tables.contains_key(name) {
            return Err(RdbError::TableExists(name.to_string()));
        }
        self.tables.insert(name.to_string(), slot);
        Ok(())
    }

    /// The storage slot for `table`.
    pub fn slot(&self, name: &str) -> Result<&TableSlot, RdbError> {
        self.tables
            .get(name)
            .ok_or_else(|| RdbError::NoSuchTable(name.to_string()))
    }

    fn slot_mut(&mut self, name: &str) -> Result<&mut TableSlot, RdbError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| RdbError::NoSuchTable(name.to_string()))
    }

    /// The schema of `table`.
    pub fn schema_of(&self, name: &str) -> Result<&Schema, RdbError> {
        Ok(self.slot(name)?.schema())
    }

    /// The monolithic table `name`, if stored plain.
    pub fn plain(&self, name: &str) -> Option<&Table> {
        match self.tables.get(name) {
            Some(TableSlot::Plain(t)) => Some(t.as_ref()),
            _ => None,
        }
    }

    /// Seals every table tail holding at least `min_rows` rows, across
    /// plain and partitioned tables (see [`Table::freeze_tail`] /
    /// [`PartitionedTable::freeze_tails`]); returns how many tails sealed.
    /// The live store calls this right before cloning the head into a
    /// snapshot so the clone shares the sealed chunks and the next
    /// publish's copy-on-write detaches cost ~nothing.
    pub fn freeze_tails(&mut self, min_rows: usize) -> usize {
        let mut sealed = 0;
        for slot in self.tables.values_mut() {
            match slot {
                TableSlot::Plain(t) => {
                    if t.tail_chunk().len() >= min_rows.max(1) {
                        if Arc::strong_count(t) > 1 {
                            self.plain_copied_bytes += t.tail_bytes();
                        }
                        if Arc::make_mut(t).freeze_tail(min_rows) {
                            sealed += 1;
                        }
                    }
                }
                TableSlot::Partitioned(t) => sealed += t.freeze_tails(min_rows),
            }
        }
        sealed
    }

    /// How many sealed chunks are physically shared with `other`, summed
    /// over name-matched tables and key-matched partitions (see
    /// [`Table::chunks_shared_with`]). The chunk-level observable of
    /// snapshot publication: sealed history stays shared even after hot
    /// tails are detached.
    pub fn sealed_chunks_shared_with(&self, other: &Database) -> usize {
        self.tables
            .iter()
            .map(|(name, slot)| match (slot, other.tables.get(name)) {
                (TableSlot::Plain(t), Some(TableSlot::Plain(o))) => t.chunks_shared_with(o),
                (TableSlot::Partitioned(t), Some(TableSlot::Partitioned(o))) => {
                    t.sealed_chunks_shared_with(o)
                }
                _ => 0,
            })
            .sum()
    }

    /// How many tables (plain tables plus individual partitions) are
    /// physically shared — same `Arc` allocation — between `self` and
    /// `other`. The copy-on-write observable behind snapshot publication;
    /// diagnostic for tests and benches.
    pub fn tables_shared_with(&self, other: &Database) -> usize {
        self.tables
            .iter()
            .map(|(name, slot)| match (slot, other.tables.get(name)) {
                (TableSlot::Plain(t), Some(TableSlot::Plain(o))) => Arc::ptr_eq(t, o) as usize,
                (TableSlot::Partitioned(t), Some(TableSlot::Partitioned(o))) => {
                    t.partitions_shared_with(o)
                }
                _ => 0,
            })
            .sum()
    }

    /// The partitioned table `name`, if stored partitioned.
    pub fn partitioned(&self, name: &str) -> Option<&PartitionedTable> {
        match self.tables.get(name) {
            Some(TableSlot::Partitioned(t)) => Some(t),
            _ => None,
        }
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Parses, plans, and executes a SQL query with no deadline.
    pub fn query(&self, sql: &str) -> Result<ResultSet, RdbError> {
        self.query_ctx(sql, &mut ExecCtx::unbounded())
    }

    /// Parses, plans, and executes a SQL query under an execution context
    /// (deadline + statistics).
    pub fn query_ctx(&self, sql: &str, ctx: &mut ExecCtx) -> Result<ResultSet, RdbError> {
        let stmt = sql::parse_select(sql)?;
        let plan = plan::plan_select(self, &stmt)?;
        exec::execute(self, &plan, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_duplicate_table() {
        let mut db = Database::new();
        let s = Schema::new(&[("a", ColumnType::Int)]);
        db.create_table("t", s.clone()).unwrap();
        assert!(matches!(
            db.create_table("t", s.clone()),
            Err(RdbError::TableExists(_))
        ));
        assert!(matches!(
            db.create_partitioned_table("t", s, PartitionSpec::new("a", "a", 1)),
            Err(RdbError::TableExists(_))
        ));
        assert!(matches!(db.slot("missing"), Err(RdbError::NoSuchTable(_))));
        assert_eq!(db.table_names(), vec!["t"]);
    }

    #[test]
    fn sql_over_partitioned_table() {
        let mut db = Database::new();
        let schema = Schema::new(&[
            ("id", ColumnType::Int),
            ("agentid", ColumnType::Int),
            ("start_time", ColumnType::Int),
        ]);
        db.create_partitioned_table(
            "events",
            schema,
            PartitionSpec::new("start_time", "agentid", 1),
        )
        .unwrap();
        let day = partition::NANOS_PER_DAY;
        for i in 0..10i64 {
            db.insert(
                "events",
                vec![Value::Int(i), Value::Int(i % 2), Value::Int(i * day / 4)],
            )
            .unwrap();
        }
        let mut ctx = ExecCtx::unbounded();
        let rs = db
            .query_ctx(
                &format!(
                    "SELECT e.id FROM events e WHERE e.start_time >= {} AND e.start_time < {} \
                     AND e.agentid = 0 ORDER BY e.id",
                    day,
                    2 * day
                ),
                &mut ctx,
            )
            .unwrap();
        // Rows with t in [day, 2day): i*day/4 in that range → i in {4..7};
        // agent 0 → even i → {4, 6}.
        assert_eq!(rs.rows, vec![vec![Value::Int(4)], vec![Value::Int(6)]]);
        // Partition pruning means we scanned only day-1 partitions of agent 0.
        assert!(ctx.stats.rows_scanned <= 4);
    }

    #[test]
    fn plain_and_partitioned_accessors() {
        let mut db = Database::new();
        db.create_table("p", Schema::new(&[("a", ColumnType::Int)]))
            .unwrap();
        db.create_partitioned_table(
            "q",
            Schema::new(&[("t", ColumnType::Int), ("g", ColumnType::Int)]),
            PartitionSpec::new("t", "g", 1),
        )
        .unwrap();
        assert!(db.plain("p").is_some());
        assert!(db.partitioned("p").is_none());
        assert!(db.partitioned("q").is_some());
        assert!(db.plain("q").is_none());
    }
}

//! The experiment drivers: one function per paper table/figure.

use crate::catalog::{self, CatalogQuery, QueryKind};
use crate::harness::{self, RunResult, Scale, Systems};
use crate::report::{cell, log10_cell, speedup, total_secs, TextTable};
use aiql_engine::EngineConfig;
use aiql_storage::SegmentedStore;
use aiql_translate::metrics::{compare, conciseness};
use std::time::Duration;

/// Options shared by all experiments.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub scale: Scale,
    /// Per-query budget (the analogue of the paper's one-hour cutoff).
    pub budget: Duration,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            scale: Scale::Medium,
            budget: Duration::from_secs(30),
        }
    }
}

/// Table 1/2: the data-model schema.
pub fn schema() -> String {
    aiql_model::schema::describe()
}

/// Table 3 + Fig. 5: the end-to-end APT case study. Returns the rendered
/// report.
pub fn table3_fig5(opts: Options) -> String {
    let (data, _) = harness::dataset(opts.scale);
    let systems = Systems::build(&data);
    let queries = catalog::case_study();

    let mut per_query: Vec<(&CatalogQuery, RunResult, RunResult, RunResult)> = Vec::new();
    for q in &queries {
        let aiql = harness::run_aiql(&systems.partitioned, q, EngineConfig::aiql(), opts.budget);
        let pg = harness::run_postgres(&systems.monolithic, q, opts.budget);
        let n4 = harness::run_neo4j(&systems.graph, q, opts.budget);
        per_query.push((q, aiql, pg, n4));
    }

    let mut out = String::new();
    out.push_str(&format!(
        "Table 3: APT case study aggregate statistics ({} events; budget {}s)\n\n",
        data.events.len(),
        opts.budget.as_secs()
    ));
    let mut t = TextTable::new(&[
        "step",
        "#queries",
        "#patterns",
        "AIQL (s)",
        "PostgreSQL (s)",
        "Neo4j (s)",
    ]);
    let mut all = (0usize, 0usize, Vec::new(), Vec::new(), Vec::new());
    for step in ["c1", "c2", "c3", "c4", "c5"] {
        let rows: Vec<_> = per_query
            .iter()
            .filter(|(q, ..)| q.group == step && q.kind == QueryKind::Multievent)
            .collect();
        let patterns: usize = rows
            .iter()
            .map(|(q, ..)| catalog::pattern_count(q.source))
            .sum();
        let aiql: Vec<RunResult> = rows.iter().map(|(_, a, ..)| a.clone()).collect();
        let pg: Vec<RunResult> = rows.iter().map(|(_, _, p, _)| p.clone()).collect();
        let n4: Vec<RunResult> = rows.iter().map(|(_, _, _, n)| n.clone()).collect();
        t.row(vec![
            step.to_string(),
            rows.len().to_string(),
            patterns.to_string(),
            format!("{:.2}", total_secs(&aiql)),
            format!("{:.2}", total_secs(&pg)),
            format!("{:.2}", total_secs(&n4)),
        ]);
        all.0 += rows.len();
        all.1 += patterns;
        all.2.extend(aiql);
        all.3.extend(pg);
        all.4.extend(n4);
    }
    t.row(vec![
        "All".into(),
        all.0.to_string(),
        all.1.to_string(),
        format!("{:.2}", total_secs(&all.2)),
        format!("{:.2}", total_secs(&all.3)),
        format!("{:.2}", total_secs(&all.4)),
    ]);
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nSpeedup (geometric mean, DNF charged at budget): {:.1}x over PostgreSQL, {:.1}x over Neo4j\n",
        speedup(&all.3, &all.2),
        speedup(&all.4, &all.2),
    ));
    out.push_str(&format!(
        "Total investigation time: AIQL {:.1}s vs PostgreSQL {:.1}s ({:.0}x) vs Neo4j {:.1}s ({:.0}x)\n",
        total_secs(&all.2),
        total_secs(&all.3),
        total_secs(&all.3) / total_secs(&all.2).max(1e-9),
        total_secs(&all.4),
        total_secs(&all.4) / total_secs(&all.2).max(1e-9),
    ));

    out.push_str("\nFig. 5: log10(execution time in s) per query\n\n");
    let mut t = TextTable::new(&["query", "AIQL", "PostgreSQL", "Neo4j"]);
    for (q, a, p, n) in &per_query {
        if q.kind != QueryKind::Multievent {
            continue;
        }
        t.row(vec![
            q.id.to_string(),
            log10_cell(a),
            log10_cell(p),
            log10_cell(n),
        ]);
    }
    out.push_str(&t.render());
    // The anomaly query runs on AIQL only (as in the paper).
    if let Some((q, a, ..)) = per_query
        .iter()
        .find(|(q, ..)| q.kind == QueryKind::Anomaly)
    {
        out.push_str(&format!(
            "\nAnomaly query {} (AIQL only): {}\n",
            q.id,
            cell(a)
        ));
    }
    out
}

/// Fig. 6: scheduling comparison on single-node storage — PostgreSQL
/// scheduling vs AIQL fetch-and-filter vs AIQL relationship scheduling,
/// all over the same partition-optimized store.
pub fn fig6(opts: Options) -> String {
    let (data, _) = harness::dataset(opts.scale);
    let store = aiql_storage::EventStore::ingest(&data, aiql_storage::StoreConfig::partitioned())
        .expect("ingest");
    let queries = catalog::behaviours();

    let mut out = format!(
        "Fig. 6: query execution time (s) under PostgreSQL / AIQL-FF / AIQL scheduling\n\
         (single node, partition-optimized storage, {} events, budget {}s)\n\n",
        data.events.len(),
        opts.budget.as_secs()
    );
    type SchedulingRow = (String, RunResult, RunResult, RunResult);
    let mut groups: Vec<(&str, Vec<SchedulingRow>)> = Vec::new();
    for group in ["apt", "dep", "malware", "abnormal"] {
        let mut rows = Vec::new();
        for q in queries.iter().filter(|q| q.group == group) {
            let pg = harness::run_postgres(&store, q, opts.budget);
            let ff = harness::run_aiql(&store, q, harness::ff_config(), opts.budget);
            let rb = harness::run_aiql(&store, q, harness::sched_only_config(), opts.budget);
            rows.push((q.id.to_string(), pg, ff, rb));
        }
        groups.push((group, rows));
    }
    let mut all_pg = Vec::new();
    let mut all_ff = Vec::new();
    let mut all_rb = Vec::new();
    for (group, rows) in &groups {
        out.push_str(&format!("\n[{group}]\n"));
        let mut t = TextTable::new(&["query", "PostgreSQL", "AIQL FF", "AIQL"]);
        for (id, pg, ff, rb) in rows {
            t.row(vec![id.clone(), cell(pg), cell(ff), cell(rb)]);
            all_pg.push(pg.clone());
            all_ff.push(ff.clone());
            all_rb.push(rb.clone());
        }
        out.push_str(&t.render());
    }
    out.push_str(&format!(
        "\nScheduling speedup over PostgreSQL (geomean, comparable queries): AIQL FF {:.1}x, AIQL {:.1}x\n",
        speedup(&all_pg, &all_ff),
        speedup(&all_pg, &all_rb),
    ));
    out
}

/// Fig. 7: parallel (MPP) comparison — Greenplum scheduling (gather joins,
/// arrival-order placement over segments) vs AIQL scheduling on a
/// partitioned store scattered over as many execution shards, whose
/// `(day, agent group)` routing is the semantics-aware by-host placement.
pub fn fig7(opts: Options) -> String {
    use aiql_storage::{EventStore, StoreConfig};

    let (data, _) = harness::dataset(opts.scale);
    let segments = 5;
    let gp_store = SegmentedStore::ingest(&data, segments).expect("round-robin ingest");
    let aiql_store = EventStore::ingest(
        &data,
        StoreConfig::partitioned().with_shards(segments as u32),
    )
    .expect("sharded ingest");
    let queries = catalog::behaviours();

    let mut out = format!(
        "Fig. 7: query execution time (s), Greenplum scheduling vs AIQL (parallel, {} segments/shards, {} events, budget {}s)\n",
        segments,
        data.events.len(),
        opts.budget.as_secs()
    );
    let mut all_gp = Vec::new();
    let mut all_aiql = Vec::new();
    for group in ["apt", "dep", "malware", "abnormal"] {
        out.push_str(&format!("\n[{group}]\n"));
        let mut t = TextTable::new(&["query", "Greenplum", "AIQL (parallel)"]);
        for q in queries.iter().filter(|q| q.group == group) {
            let gp = harness::run_greenplum(&gp_store, q, opts.budget);
            let us = harness::run_aiql(&aiql_store, q, EngineConfig::aiql(), opts.budget);
            t.row(vec![q.id.to_string(), cell(&gp), cell(&us)]);
            all_gp.push(gp);
            all_aiql.push(us);
        }
        out.push_str(&t.render());
    }
    out.push_str(&format!(
        "\nAverage speedup over Greenplum scheduling (geomean): {:.1}x\n",
        speedup(&all_gp, &all_aiql),
    ));
    out
}

/// The selective time-window + attribute-predicate event-scan workload
/// shared by `benches/scan.rs` and the `repro scan` snapshot: a two-hour
/// window inside the observed span plus an operation-type equality.
pub fn scan_conjuncts(data: &aiql_model::Dataset) -> Vec<aiql_rdb::Expr> {
    use aiql_rdb::{CmpOp, Expr};
    use aiql_storage::schema;
    let lo = data.events.iter().map(|e| e.start.0).min().unwrap_or(0);
    let hi = data.events.iter().map(|e| e.start.0).max().unwrap_or(0);
    let span = (hi - lo).max(1);
    let w_lo = lo + span / 4;
    let w_hi = w_lo + (2 * 3600 * 1_000_000_000).min(span / 10);
    vec![
        Expr::cmp_lit(schema::ev::START, CmpOp::Ge, w_lo),
        Expr::cmp_lit(schema::ev::START, CmpOp::Lt, w_hi),
        Expr::cmp_lit(
            schema::ev::OPTYPE,
            CmpOp::Eq,
            schema::opcode(aiql_model::OpType::Write),
        ),
    ]
}

/// Columnar-vs-row scan comparison backing the `repro scan` target. Returns
/// the rendered table and a `BENCH_scan.json` snapshot body.
pub fn scan_bench(opts: Options) -> (String, String) {
    use aiql_rdb::Prune;
    use aiql_storage::{EventStore, StoreConfig};

    let (data, _) = harness::dataset(opts.scale);
    let row_store =
        EventStore::ingest(&data, StoreConfig::partitioned().with_columnar(false)).expect("ingest");
    let col_store = EventStore::ingest(&data, StoreConfig::partitioned()).expect("ingest");
    let conjuncts = scan_conjuncts(&data);

    let time_scan = |store: &EventStore| {
        let (best, (matched, scanned)) = harness::best_of(7, || {
            let mut local = 0u64;
            let rows = store.scan_events_ref(&conjuncts, &Prune::all(), &mut local);
            (rows.len(), local)
        });
        (best, matched, scanned)
    };
    let (row_s, row_n, row_scanned) = time_scan(&row_store);
    let (col_s, col_n, col_scanned) = time_scan(&col_store);
    assert_eq!(row_n, col_n, "columnar scan must agree with the row store");
    let speedup = row_s / col_s.max(1e-12);

    let mut out = format!(
        "Scan path: row store vs columnar ({} events, {:?} scale)\n\n",
        data.events.len(),
        opts.scale
    );
    let mut t = TextTable::new(&["path", "time (ms)", "rows matched", "rows touched"]);
    t.row(vec![
        "row store".into(),
        format!("{:.3}", row_s * 1e3),
        row_n.to_string(),
        row_scanned.to_string(),
    ]);
    t.row(vec![
        "columnar".into(),
        format!("{:.3}", col_s * 1e3),
        col_n.to_string(),
        col_scanned.to_string(),
    ]);
    out.push_str(&t.render());
    out.push_str(&format!("\nColumnar speedup: {speedup:.1}x\n"));

    let json = format!(
        "{{\n  \"experiment\": \"scan\",\n  \"scale\": \"{:?}\",\n  \"events\": {},\n  \
         \"row_store_ms\": {:.4},\n  \"columnar_ms\": {:.4},\n  \"speedup\": {:.2},\n  \
         \"rows_matched\": {},\n  \"rows_touched_row\": {},\n  \"rows_touched_columnar\": {}\n}}\n",
        opts.scale,
        data.events.len(),
        row_s * 1e3,
        col_s * 1e3,
        speedup,
        row_n,
        row_scanned,
        col_scanned,
    );
    (out, json)
}

/// Builds a durable store under `dir` by streaming the dataset through a
/// durable ingestor; `checkpoint` decides whether everything lands in the
/// snapshot (true) or stays in the WAL tail (false). Shared by
/// `benches/recovery.rs` and the `repro recovery` snapshot.
pub fn build_durable_store(data: &aiql_model::Dataset, dir: &std::path::Path, checkpoint: bool) {
    use aiql_ingest::{EventBatch, IngestConfig, Ingestor};
    let _ = std::fs::remove_dir_all(dir);
    let (mut ing, _) = Ingestor::durable(IngestConfig::live(), dir).expect("durable ingestor");
    let mut first = EventBatch::new();
    first.entities = data.entities.clone();
    ing.submit_with_flush(first).expect("entities land");
    for chunk in data.events.chunks(4096) {
        let mut b = EventBatch::new();
        b.events = chunk.to_vec();
        ing.submit_with_flush(b).expect("bounded queue");
    }
    if checkpoint {
        ing.checkpoint().expect("checkpoint");
    } else {
        ing.flush().expect("final flush");
    }
}

/// Crash-recovery benchmark backing the `repro recovery` target: how fast
/// a killed store comes back via `EventStore::open`, for the two extremes
/// of the snapshot/WAL protocol — everything checkpointed (pure snapshot
/// load) and everything in the log tail (pure WAL replay). Returns the
/// rendered table and a `BENCH_recovery.json` snapshot body.
pub fn recovery_bench(opts: Options) -> (String, String) {
    use aiql_storage::EventStore;

    let (data, _) = harness::dataset(opts.scale);
    let base = std::env::temp_dir().join(format!("aiql-recovery-bench-{}", std::process::id()));
    let snap_dir = base.join("all-snapshot");
    let replay_dir = base.join("all-wal");
    build_durable_store(&data, &snap_dir, true);
    build_durable_store(&data, &replay_dir, false);

    let events = data.events.len();
    let entities = data.entities.len();
    let reopen = |dir: &std::path::Path| {
        let (best, store) = harness::best_of(3, || EventStore::open(dir).expect("recovery"));
        assert_eq!(store.event_count(), events, "every event recovered");
        assert_eq!(store.entity_count(), entities, "every entity recovered");
        best
    };
    let snap_s = reopen(&snap_dir);
    let replay_s = reopen(&replay_dir);
    let snap_rate = events as f64 / snap_s.max(1e-12);
    let replay_rate = events as f64 / replay_s.max(1e-12);
    let drill = fault_drill(&data, &base.join("fault-drill"));
    let _ = std::fs::remove_dir_all(&base);

    let mut out = format!(
        "Crash recovery: EventStore::open on a {} event / {} entity store ({:?} scale)\n\n",
        events, entities, opts.scale
    );
    let mut t = TextTable::new(&["recovery path", "open time (ms)", "recovered events/sec"]);
    t.row(vec![
        "snapshot load (checkpointed)".into(),
        format!("{:.2}", snap_s * 1e3),
        format!("{:.0}", snap_rate),
    ]);
    t.row(vec![
        "WAL replay (no checkpoint)".into(),
        format!("{:.2}", replay_s * 1e3),
        format!("{:.0}", replay_rate),
    ]);
    out.push_str(&t.render());
    out.push_str(
        "\nBoth paths rebuild partitions, secondary indexes, columnar blocks, \
         and the shared dictionary; mixed checkpoint points fall between them.\n",
    );
    out.push_str(&format!(
        "\nFault drill (injected via aiql-fault): {} faults injected, {} flush \
         retries, {} degraded entries; every acknowledged row recovered.\n",
        drill.faults_injected, drill.flush_retries, drill.degraded_entries,
    ));

    let json = format!(
        "{{\n  \"experiment\": \"recovery\",\n  \"scale\": \"{:?}\",\n  \"events\": {},\n  \
         \"entities\": {},\n  \"snapshot_open_ms\": {:.4},\n  \"wal_replay_open_ms\": {:.4},\n  \
         \"snapshot_events_per_sec\": {:.0},\n  \"replay_events_per_sec\": {:.0},\n  \
         \"fault_drill\": {{\n    \"faults_injected\": {},\n    \"flush_retries\": {},\n    \
         \"degraded_entries\": {},\n    \"recovered_events\": {}\n  }}\n}}\n",
        opts.scale,
        events,
        entities,
        snap_s * 1e3,
        replay_s * 1e3,
        snap_rate,
        replay_rate,
        drill.faults_injected,
        drill.flush_retries,
        drill.degraded_entries,
        drill.recovered_events,
    );
    (out, json)
}

/// Outcome of the [`fault_drill`] leg of the recovery benchmark.
struct FaultDrill {
    faults_injected: usize,
    flush_retries: u64,
    degraded_entries: u64,
    recovered_events: usize,
}

/// Streams the dataset through a durable ingestor while `aiql-fault`
/// injects one transient write error (absorbed by the bounded retry) and a
/// temporary out-of-space window (degraded mode + back-pressure until the
/// "disk" clears), then reopens and verifies every acknowledged row came
/// back. Exercises the retry/degradation policies end to end so the
/// telemetry counters (`aiql_fault_injected_total`,
/// `aiql_ingest_flush_retries_total`,
/// `aiql_ingest_degraded_transitions_total`) appear in the
/// `BENCH_recovery.json` snapshot.
fn fault_drill(data: &aiql_model::Dataset, dir: &std::path::Path) -> FaultDrill {
    use aiql_fault::{control, FaultKind, FaultPlan};
    use aiql_ingest::{EventBatch, IngestConfig, IngestError, Ingestor, RetryPolicy};
    use aiql_storage::EventStore;
    use std::io::ErrorKind;

    let ctl = control();
    let _ = std::fs::remove_dir_all(dir);
    let config = IngestConfig::live().with_retry(RetryPolicy {
        max_retries: 2,
        backoff: std::time::Duration::ZERO,
    });
    let (mut ing, _) = Ingestor::durable(config, dir).expect("durable ingestor");
    let mut first = EventBatch::new();
    first.entities = data.entities.clone();
    ing.submit_with_flush(first).expect("entities land");

    let half = data.events.len() / 2;
    // Leg 1: a transient EIO in the middle of the stream — the flush retry
    // must absorb it without the caller seeing an error.
    ctl.arm(FaultPlan::new().fail("wal.segment.write", 2, FaultKind::Errno(ErrorKind::Other)));
    for chunk in data.events[..half].chunks(4096) {
        let mut b = EventBatch::new();
        b.events = chunk.to_vec();
        ing.submit(b).expect("within the mark");
        ing.flush().expect("transient faults are retried");
    }
    // Leg 2: the disk fills mid-stream; the ingestor degrades and
    // back-pressures, then drains once space frees.
    ctl.arm(FaultPlan::new().fail(
        "wal.segment.write",
        0,
        FaultKind::Errno(ErrorKind::StorageFull),
    ));
    let mut b = EventBatch::new();
    b.events = data.events[half..].to_vec();
    ing.submit(b).expect("within the mark");
    match ing.flush() {
        Err(IngestError::Degraded { .. }) => {}
        other => panic!("full disk must degrade, got {other:?}"),
    }
    ctl.disarm();
    ing.flush().expect("space freed, queue drains");

    let faults_injected = ctl.injected().len();
    let stats = ing.stats();
    drop(ing);
    drop(ctl);

    let store = EventStore::open(dir).expect("reopen after drill");
    assert_eq!(
        store.event_count(),
        data.events.len(),
        "acknowledged rows survive"
    );
    FaultDrill {
        faults_injected,
        flush_retries: stats.flush_retries,
        degraded_entries: stats.degraded_entries,
        recovered_events: store.event_count(),
    }
}

/// Embeds the process-wide telemetry registry into a `BENCH_*.json` body:
/// the object gains a final `"telemetry"` member holding every counter,
/// gauge, and histogram summary recorded so far this process.
pub fn with_telemetry(json: &str) -> String {
    let trimmed = json.trim_end();
    let body = trimmed
        .strip_suffix('}')
        .expect("BENCH snapshot bodies are JSON objects");
    format!(
        "{body},\n  \"telemetry\": {}\n}}\n",
        aiql_telemetry::global().snapshot().to_json()
    )
}

/// End-to-end ingestion benchmark backing the `repro ingestion` target:
/// batch (`EventStore::ingest`) vs durable streaming (WAL + fsync +
/// epoch-swapped publishes) events/sec, with a prepared investigator
/// re-querying the live store between flushes. The headline numbers —
/// flush/fsync tail latency, snapshot-publish bytes copied (write
/// amplification), plan-cache hit rate — are read back from the telemetry
/// registry rather than measured by the harness, so the snapshot doubles
/// as an exercise of the whole observability path. Returns the rendered
/// table and a `BENCH_ingestion.json` body.
pub fn ingestion_bench(opts: Options) -> (String, String) {
    use aiql_engine::{Params, Session};
    use aiql_ingest::{EventBatch, IngestConfig, Ingestor};
    use aiql_storage::{EventStore, StoreConfig};
    use std::time::Instant;

    let (data, _) = harness::dataset(opts.scale);
    let events = data.events.len();
    let registry = aiql_telemetry::global();
    let before = registry.snapshot();

    // Batch baseline: one monolithic ingest, no durability.
    let batch_started = Instant::now();
    let batch_store = EventStore::ingest(&data, StoreConfig::partitioned()).expect("ingest");
    let batch_s = batch_started.elapsed().as_secs_f64();
    assert_eq!(batch_store.event_count(), events);
    drop(batch_store);

    // Streaming: durable ingestor (WAL append + fsync per flush, snapshot
    // publish per flush) with a session investigator polling a prepared
    // statement between flushes — the live-monitoring shape.
    let dir = std::env::temp_dir().join(format!("aiql-ingestion-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let stream_started = Instant::now();
    let (mut ing, _) = Ingestor::durable(IngestConfig::live(), &dir).expect("durable ingestor");
    let session = Session::open(&ing.shared());
    const PROBE: &str = "agentid = $agent proc p write file f return count p";
    session.prepare(PROBE).expect("prepare"); // the one compile; later prepares hit
    let mut queries = 0u64;
    let mut rows_streamed = 0usize;
    {
        let mut first = EventBatch::new();
        first.entities = data.entities.clone();
        ing.submit(first).expect("within high-water mark");
        ing.flush().expect("entities land");
    }
    for chunk in data.events.chunks(4096) {
        let mut b = EventBatch::new();
        b.events = chunk.to_vec();
        ing.submit(b).expect("within high-water mark");
        // Flush per shipment: each flush WAL-appends + fsyncs + publishes
        // one snapshot, so the tail-latency histograms see every shipment.
        ing.flush().expect("flush");
        rows_streamed += session
            .prepare(PROBE)
            .expect("cache hit")
            .bind(Params::new().set("agent", 1))
            .expect("bind")
            .execute()
            .expect("live query")
            .count();
        queries += 1;
    }
    let stream_s = stream_started.elapsed().as_secs_f64();
    assert_eq!(ing.shared().read().event_count(), events);
    drop(ing);
    let _ = std::fs::remove_dir_all(&dir);

    // Read the run's cost back out of the registry (delta vs the start,
    // so repeated experiments in one process do not pollute each other).
    let after = registry.snapshot();
    let hist_delta = |name: &str| {
        let a = after.histogram(name).expect("recorded histogram").clone();
        match before.histogram(name) {
            Some(b) => a.delta_since(b),
            None => a,
        }
    };
    let counter_delta = |name: &str| {
        after
            .counter(name)
            .unwrap_or(0)
            .saturating_sub(before.counter(name).unwrap_or(0))
    };
    let fsync = hist_delta("aiql_wal_fsync_micros");
    let flush = hist_delta("aiql_ingest_flush_micros");
    let publish_bytes = hist_delta("aiql_storage_publish_bytes_copied");
    let append_bytes = hist_delta("aiql_wal_append_bytes");
    let publishes = counter_delta("aiql_storage_publishes_total");
    let hits = counter_delta("aiql_core_plan_cache_hits_total");
    let misses = counter_delta("aiql_core_plan_cache_misses_total");
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    let amplification = publish_bytes.sum as f64 / (append_bytes.sum.max(1)) as f64;
    let batch_eps = events as f64 / batch_s.max(1e-12);
    let stream_eps = events as f64 / stream_s.max(1e-12);

    let mut out = format!(
        "Ingestion: batch vs durable streaming ({} events, {:?} scale, \
         {} live queries interleaved, {} rows streamed back)\n\n",
        events, opts.scale, queries, rows_streamed
    );
    let mut t = TextTable::new(&["path", "time (s)", "events/sec"]);
    t.row(vec![
        "batch ingest".into(),
        format!("{batch_s:.2}"),
        format!("{batch_eps:.0}"),
    ]);
    t.row(vec![
        "durable stream (WAL + publish)".into(),
        format!("{stream_s:.2}"),
        format!("{stream_eps:.0}"),
    ]);
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nfsync p99 {:.2} ms over {} syncs; flush p99 {:.2} ms over {} flushes\n\
         {} publishes copied {:.2} MiB of open tail ({:.2}x the {:.2} MiB WAL-appended) \
         — sealed chunks are shared, so ROADMAP item 1's write amplification is gone\n\
         plan cache: {} hits / {} misses ({:.0}% hit rate)\n",
        fsync.quantile(0.99) / 1e3,
        fsync.count,
        flush.quantile(0.99) / 1e3,
        flush.count,
        publishes,
        publish_bytes.sum as f64 / (1 << 20) as f64,
        amplification,
        append_bytes.sum as f64 / (1 << 20) as f64,
        hits,
        misses,
        hit_rate * 100.0,
    ));

    let json = format!(
        "{{\n  \"experiment\": \"ingestion\",\n  \"scale\": \"{:?}\",\n  \"events\": {},\n  \
         \"batch_events_per_sec\": {:.0},\n  \"stream_events_per_sec\": {:.0},\n  \
         \"live_queries\": {},\n  \"fsyncs\": {},\n  \"fsync_p99_ms\": {:.4},\n  \
         \"flushes\": {},\n  \"flush_p99_ms\": {:.4},\n  \"publishes\": {},\n  \
         \"publish_bytes_copied\": {},\n  \"wal_append_bytes\": {},\n  \
         \"publish_amplification\": {:.4},\n  \"plan_cache_hits\": {},\n  \
         \"plan_cache_misses\": {},\n  \"plan_cache_hit_rate\": {:.4}\n}}\n",
        opts.scale,
        events,
        batch_eps,
        stream_eps,
        queries,
        fsync.count,
        fsync.quantile(0.99) / 1e3,
        flush.count,
        flush.quantile(0.99) / 1e3,
        publishes,
        publish_bytes.sum,
        append_bytes.sum,
        amplification,
        hits,
        misses,
        hit_rate,
    );
    (out, json)
}

/// Fig. 8 + Table 5: conciseness of the 19 behaviours across languages.
pub fn fig8() -> String {
    let queries = catalog::behaviours();
    let mut out =
        String::from("Fig. 8: conciseness per behaviour (constraints / words / characters)\n\n");
    let mut t = TextTable::new(&[
        "query",
        "AIQL c/w/ch",
        "SQL c/w/ch",
        "Cypher c/w/ch",
        "SPL c/w/ch",
    ]);
    let mut sums = [[0usize; 3]; 4];
    let mut counts = [0usize; 4];
    let fmt =
        |c: &aiql_translate::Conciseness| format!("{}/{}/{}", c.constraints, c.words, c.characters);
    for q in &queries {
        let cmp = compare(q.source).expect("catalog compiles");
        // Measure AIQL on its canonical (comment-free) source.
        let aiql_c = conciseness(q.source);
        let mut row = vec![q.id.to_string(), fmt(&aiql_c)];
        sums[0][0] += aiql_c.constraints;
        sums[0][1] += aiql_c.words;
        sums[0][2] += aiql_c.characters;
        counts[0] += 1;
        for (k, m) in [&cmp.sql, &cmp.cypher, &cmp.spl].iter().enumerate() {
            match m {
                Some(c) => {
                    row.push(fmt(c));
                    sums[k + 1][0] += c.constraints;
                    sums[k + 1][1] += c.words;
                    sums[k + 1][2] += c.characters;
                    counts[k + 1] += 1;
                }
                None => row.push("-".into()),
            }
        }
        t.row(row);
    }
    out.push_str(&t.render());

    out.push_str(
        "\nTable 5: average conciseness blow-up vs AIQL (constraints / words / characters)\n\n",
    );
    // Compare each language against AIQL over the queries that language
    // supports (s5/s6 are AIQL-only, as in the paper).
    let mut t = TextTable::new(&["metric", "SQL/AIQL", "Cypher/AIQL", "SPL/AIQL"]);
    let mut aiql_supported = [[0usize; 3]; 4];
    for q in &queries {
        let cmp = compare(q.source).expect("compiles");
        let a = conciseness(q.source);
        for (k, m) in [&cmp.sql, &cmp.cypher, &cmp.spl].iter().enumerate() {
            if m.is_some() {
                aiql_supported[k + 1][0] += a.constraints;
                aiql_supported[k + 1][1] += a.words;
                aiql_supported[k + 1][2] += a.characters;
            }
        }
    }
    for (mi, name) in ["# of constraints", "# of words", "# of characters"]
        .iter()
        .enumerate()
    {
        let ratio = |k: usize| -> String {
            if aiql_supported[k][mi] == 0 {
                "-".into()
            } else {
                format!("{:.1}x", sums[k][mi] as f64 / aiql_supported[k][mi] as f64)
            }
        };
        t.row(vec![name.to_string(), ratio(1), ratio(2), ratio(3)]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Options {
        Options {
            scale: Scale::Small,
            budget: Duration::from_secs(10),
        }
    }

    #[test]
    fn schema_report() {
        let s = schema();
        assert!(s.contains("Table 1"));
        assert!(s.contains("exe_name"));
    }

    #[test]
    fn fig8_shows_aiql_most_concise() {
        let s = fig8();
        assert!(s.contains("Table 5"));
        // Every ratio line should be >= 1.0x; grab the characters line.
        let chars_line = s.lines().find(|l| l.contains("# of characters")).unwrap();
        for tok in chars_line.split_whitespace().filter(|t| t.ends_with('x')) {
            let v: f64 = tok.trim_end_matches('x').parse().unwrap();
            assert!(v > 1.5, "expected clear blow-up, got {v} in {chars_line}");
        }
    }

    #[test]
    #[ignore = "several seconds; run with --ignored or via the repro binary"]
    fn table3_runs_at_small_scale() {
        let s = table3_fig5(small());
        assert!(s.contains("Table 3"));
        assert!(s.contains("c5-7"));
    }
}

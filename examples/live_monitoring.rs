//! Live monitoring walkthrough: agents stream audit events into a
//! **durable** store *while* an investigator runs the paper's APT queries
//! against it — and the whole investigation survives a restart.
//!
//! The enterprise of `apt_investigation.rs` is replayed as a shipment
//! stream — out-of-order arrivals, per-agent clock skew, day-boundary
//! rollover — through `aiql-ingest` in durable mode: every acknowledged
//! row is write-ahead logged before it is applied, and a mid-stream
//! checkpoint snapshots the store and truncates the log (the scratch
//! store lives under the system temp dir and is cleaned up on exit). Two
//! investigators
//! watch the stream: the pipeline thread polls the paper's Query 7 (the
//! complete exfiltration chain) between flushes, and a **second thread**
//! polls it continuously *while* flushes run — each poll pins one
//! published snapshot of the epoch-swapped store, so it never waits for a
//! flush and never sees a half-applied batch. The chain assembles only
//! once the day-2 attack events have streamed in. At the end the process
//! "restarts": the ingestor is dropped without a final checkpoint and the
//! store is reopened from disk (snapshot + WAL tail), where the chain is
//! still exactly where it was.
//!
//! ```text
//! cargo run --release --example live_monitoring
//! ```

use aiql::datagen::stream::{stream, StreamConfig};
use aiql::datagen::EnterpriseSim;
use aiql::engine::{open_store, Engine, Session};
use aiql::ingest::{EventBatch, IngestConfig, Ingestor};
use aiql::storage::timesync::ClockSample;

const QUERY7: &str = r#"
    (at "01/02/2017") agentid = 9
    proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
    proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
    proc p4["%sbblv.exe"] read file f1 as evt3
    proc p4 read || write ip i1[dstip = "192.168.66.129"] as evt4
    with evt1 before evt2, evt2 before evt3, evt3 before evt4
    return distinct p1, p2, p3, f1, p4, i1
"#;

fn main() {
    println!("generating the monitored enterprise ...");
    let data = EnterpriseSim::builder()
        .hosts(10)
        .days(2)
        .seed(2017)
        .events_per_host_per_day(2_000)
        .attacks(true)
        .build()
        .generate();

    // Replay as a live stream: 1024-event shipments, ±2 s clock skew,
    // arrivals up to 64 positions out of order.
    let cfg = StreamConfig {
        batch_events: 1024,
        max_skew_ns: 2_000_000_000,
        jitter_events: 64,
        seed: 2017,
    };
    let (batches, skews) = stream(&data, &cfg);
    println!(
        "{} events from {} hosts, arriving in {} shipments\n",
        data.events.len(),
        data.agents().len(),
        batches.len()
    );

    // The durable scratch store lives under the system temp directory —
    // never in the repository — and is removed again on exit.
    let store_dir =
        std::env::temp_dir().join(format!("aiql-live-monitoring-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store_dir = store_dir.as_path();
    let (mut ingestor, _) =
        Ingestor::durable(IngestConfig::live(), store_dir).expect("durable live store");
    let shared = ingestor.shared();

    // The second investigator: polls Query 7 on its own thread for the
    // whole stream. Every poll pins one published snapshot — it runs in
    // parallel with flushes, checkpoints, and the pipeline's own queries,
    // and observes only whole acknowledged flushes.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let (polls, first_chain) = std::thread::scope(|scope| {
        let investigator = scope.spawn(|| {
            // The investigator is a session client: Query 7 is prepared
            // once (parse + analysis paid up front), then re-executed per
            // poll. Each execute pins the freshest published snapshot —
            // the session's default per-statement pinning policy.
            let session = Session::open(&shared);
            let stmt = session.prepare(QUERY7).expect("prepare");
            let mut polls = 0u64;
            let mut first: Option<aiql::storage::StoreStamp> = None;
            loop {
                // Read the stop flag *before* polling: a poll started after
                // the flag was set necessarily pins the final published
                // snapshot (the pipeline's last flush publishes before the
                // flag is stored), so the thread always gets one guaranteed
                // look at the complete stream before returning.
                let stopping = stop.load(std::sync::atomic::Ordering::Relaxed);
                let cursor = stmt.execute().expect("poll");
                polls += 1;
                if first.is_none() && cursor.remaining() > 0 {
                    first = Some(cursor.stamp());
                }
                if stopping {
                    return (polls, first);
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        });

        stream_pipeline(&mut ingestor, &shared, batches, &skews);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        investigator.join().expect("investigator thread")
    });
    // Poll count and first-sighting version depend on thread timing, so
    // they go to stderr — stdout stays deterministic (diffable across
    // runs). The investigator's guaranteed post-stop poll sees the final
    // published store, so the chain is always visible by then.
    let first = first_chain.expect("chain eventually visible");
    eprintln!(
        "[concurrent investigator: {polls} polls served while the stream ran; \
         first saw the chain at store version {} events]",
        first.events,
    );
    println!("\nconcurrent investigator saw the chain while the stream ran: true");

    let stats = ingestor.stats();
    println!(
        "ingested {} events / {} entities in {} batches \
         ({} out-of-order arrivals, {} partition rollovers)",
        stats.events_applied,
        stats.entities_applied,
        stats.batches_applied,
        stats.out_of_order_events,
        stats.rollovers
    );

    finish_and_restart(ingestor, shared, store_dir);
}

/// The ingestion pipeline: streams every shipment, flushing every few and
/// letting the pipeline's own investigator poll between flushes.
fn stream_pipeline(
    ingestor: &mut Ingestor,
    shared: &aiql::storage::SharedStore,
    batches: Vec<aiql::datagen::StreamBatch>,
    skews: &[aiql::datagen::AgentSkew],
) {
    let total = batches.len();
    let session = Session::open(shared);
    for (i, sb) in batches.into_iter().enumerate() {
        let mut eb = EventBatch {
            entities: sb.entities,
            events: sb.events,
            clock_samples: Vec::new(),
        };
        if i == 0 {
            // Each agent reports a clock sample with its first shipment; the
            // ingestor corrects all later stamps server-side.
            for s in skews {
                eb.add_clock_sample(
                    s.agent,
                    ClockSample {
                        agent_time: 0,
                        server_time: s.offset_ns,
                    },
                );
            }
        }
        ingestor.submit(eb).expect("within high-water mark");

        // Flush every few shipments and let the investigator poll.
        if (i + 1) % 8 == 0 || i + 1 == total {
            let report = ingestor.flush().expect("flush");
            let live = session
                .prepare(QUERY7)
                .and_then(|stmt| stmt.execute())
                .expect("query");
            let chain = live.remaining();
            println!(
                "shipment {:>3}/{total}: +{:>5} events, {:>2} partition rollover(s), \
                 watermark {}, store@{:>6} events -> exfiltration chains found: {}",
                i + 1,
                report.events,
                report.new_partitions.len(),
                ingestor
                    .watermark()
                    .map(|w| w.to_string())
                    .unwrap_or_else(|| "-".into()),
                live.stamp().events,
                chain,
            );
            if chain > 0 && i + 1 < total {
                println!("  --> chain visible before the stream even ends");
            }
        }
        // Mid-stream checkpoint: snapshot the store, truncate the WAL.
        if i + 1 == total / 2 {
            let path = ingestor
                .checkpoint()
                .expect("checkpoint")
                .expect("durable ingestor");
            println!(
                "  [checkpoint: snapshot {} written, WAL truncated]",
                path.file_name().unwrap().to_string_lossy()
            );
        }
    }
}

/// Final live query, then the simulated restart: reopen from disk and
/// check the chain survived.
fn finish_and_restart(
    ingestor: Ingestor,
    shared: aiql::storage::SharedStore,
    store_dir: &std::path::Path,
) {
    let final_result = Session::open(&shared).run(QUERY7).expect("final query");
    println!("\n== paper Query 7 against the live store ==");
    print!("{final_result}");
    assert_eq!(final_result.rows.len(), 1);
    let live_events = shared.read().event_count();

    // "Restart": drop the pipeline without a final checkpoint — the tail
    // since the mid-stream checkpoint lives only in the write-ahead log —
    // and reopen the store from disk.
    drop(ingestor);
    drop(shared);
    println!(
        "\n== restart: reopening {} from snapshot + WAL tail ==",
        store_dir.display()
    );
    let reopened = open_store(store_dir).expect("recovery");
    assert_eq!(
        reopened.event_count(),
        live_events,
        "every acknowledged event recovered"
    );
    let after = Engine::new(&reopened)
        .run(QUERY7)
        .expect("query after restart");
    assert_eq!(
        after.rows.len(),
        1,
        "the exfiltration chain survives restart"
    );
    println!(
        "recovered {} events; Query 7 still finds the chain: {}",
        reopened.event_count(),
        after.rows[0]
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(" / ")
    );
    println!(
        "\nverdict: cmd.exe ran osql.exe; sqlservr.exe dumped BACKUP1.DMP; \
         sbblv.exe read the dump and exfiltrated it to 192.168.66.129 — \
         reconstructed without ever taking the store offline, and again \
         after a restart from disk."
    );
    telemetry_summary();
    // Clean up the temp-dir scratch store.
    let _ = std::fs::remove_dir_all(store_dir);
}

/// Exit telemetry: what the run cost end to end, read back from the
/// process-wide registry. Values are timing- and machine-dependent, so
/// they go to stderr — stdout stays deterministic.
fn telemetry_summary() {
    let snap = aiql::telemetry::global().snapshot();
    let quantile = |name: &str, q: f64| snap.histogram(name).map_or(0.0, |h| h.quantile(q));
    let sum = |name: &str| snap.histogram(name).map_or(0, |h| h.sum);
    let count = |name: &str| snap.histogram(name).map_or(0, |h| h.count);
    eprintln!("\n[telemetry: ingestion-to-query, from the global registry]");
    eprintln!(
        "[  wal: {} fsyncs, p99 {:.1} ms; {} segment rollover(s)]",
        count("aiql_wal_fsync_micros"),
        quantile("aiql_wal_fsync_micros", 0.99) / 1e3,
        snap.counter("aiql_wal_segment_rollovers_total")
            .unwrap_or(0),
    );
    eprintln!(
        "[  ingest: {} flushes, p99 {:.1} ms]",
        count("aiql_ingest_flush_micros"),
        quantile("aiql_ingest_flush_micros", 0.99) / 1e3,
    );
    eprintln!(
        "[  storage: {} publishes copied {:.2} MiB of open tail; {} sealed chunk(s) shared]",
        snap.counter("aiql_storage_publishes_total").unwrap_or(0),
        sum("aiql_storage_publish_bytes_copied") as f64 / (1 << 20) as f64,
        snap.gauge("aiql_storage_sealed_chunks_shared").unwrap_or(0),
    );
    eprintln!(
        "[  engine: {} statements, execute p99 {:.1} ms, {} slow; {} cursor rows]",
        snap.counter("aiql_engine_statements_total").unwrap_or(0),
        quantile("aiql_engine_execute_micros", 0.99) / 1e3,
        snap.counter("aiql_engine_slow_queries_total").unwrap_or(0),
        snap.counter("aiql_engine_cursor_rows_total").unwrap_or(0),
    );
    let hits = snap.counter("aiql_core_plan_cache_hits_total").unwrap_or(0);
    let misses = snap
        .counter("aiql_core_plan_cache_misses_total")
        .unwrap_or(0);
    eprintln!(
        "[  plan cache: {hits} hits / {misses} misses ({:.0}% hit rate)]",
        100.0 * hits as f64 / (hits + misses).max(1) as f64,
    );
}

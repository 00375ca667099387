//! `ingest`: durable catch-up after a collector restart.
//!
//! The Large dataset is replayed as the skewed, out-of-order shipment
//! stream (`datagen::stream`, default `StreamConfig` with the workload
//! seed: 256-event shipments). The first tenth of the stream is already in
//! the store when the collector restarts; set-up is the restart itself
//! (`Ingestor::durable` recovering that directory) plus one warm-up read.
//! A closed loop then submits the remaining shipments to the durable
//! ingestor with one `flush()` per shipment: one WAL fsync and one
//! snapshot publish each. When the stream ends inside the window, the
//! replay starts again from a fresh copy of the restarted store; the copy
//! and restart are not part of the window.
//!
//! One live-reader thread loops the "last hour before the newest
//! acknowledged event" query for a rotating `agentid`, as fresh literal
//! text each time (the texts outnumber the plan cache).
//!
//! The store directories live under the benchmark's `work/` directory.
//!
//! Output checks: after the window, the first replay's directory is
//! reopened; the recovered event count must equal the acknowledged count,
//! and (when that replay completed) a probe set must match a batch-built
//! store. Every reader result must be a subset of the same text's result
//! on that reopened store.

use crate::common::*;
use crate::stmt::{self, EngineTally, StmtTimes};
use crate::trace::{timed, Tracer};
use aiql_bench::catalog;
use aiql_datagen::stream::{stream, StreamConfig};
use aiql_engine::Session;
use aiql_ingest::{EventBatch, IngestConfig, Ingestor};
use aiql_model::{AgentId, Duration as Span, TimeUnit, Timestamp};
use aiql_storage::timesync::ClockSample;
use aiql_storage::{EventStore, SharedStore, StoreConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::time::{Duration, Instant};

/// Set-ups (restarts) per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Share of the stream acknowledged before the restart.
const PREFIX_SHARE: f64 = 0.1;

pub fn run(args: &Args) -> Report {
    let (hosts, days, per_day) = LARGE;
    let (data, _) = dataset(args.seed, hosts, days, per_day);
    let cfg = StreamConfig {
        seed: args.seed,
        ..StreamConfig::default()
    };
    let (shipments, skews) = stream(&data, &cfg);
    let mut batches: Vec<EventBatch> = shipments
        .into_iter()
        .map(|s| EventBatch {
            entities: s.entities,
            events: s.events,
            clock_samples: Vec::new(),
        })
        .collect();
    // Each agent reports one exact clock sample with the first shipment;
    // the ingestor corrects every later stamp server-side.
    for s in &skews {
        batches[0].add_clock_sample(
            s.agent,
            ClockSample {
                agent_time: 0,
                server_time: s.offset_ns,
            },
        );
    }
    let prefix = ((batches.len() as f64) * PREFIX_SHARE).round() as usize;
    let agents = data.agents();
    let probes = Probes::batch_built(&data, &agents);
    let events_total = data.events.len();
    drop(data);
    let mut notes = vec![format!(
        "ingest: {} events in {} shipments of {} events ({} acknowledged before the \
         restart); flush per shipment (1 fsync + 1 publish); 1 ingest thread, 1 reader thread",
        events_total,
        batches.len(),
        cfg.batch_events,
        prefix
    )];

    remove_stale_stores();
    let root = work_dir().join(format!("ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let template = root.join("restart");
    {
        let (mut ing, _) =
            Ingestor::durable(IngestConfig::live(), &template).expect("durable ingestor");
        for b in &batches[..prefix] {
            ing.submit(b.clone()).expect("within the high-water mark");
            ing.flush().expect("flush");
        }
    }
    let prefix_events: u64 = batches[..prefix]
        .iter()
        .map(|b| b.events.len() as u64)
        .sum();

    // Set-up: the restart (recovery) plus one warm-up read.
    let mut setup_s = Vec::new();
    let mut replay_no = 0;
    let mut restarted = None;
    for _ in 0..SETUPS {
        drop(restarted.take());
        let dir = fresh_copy(&template, &root, &mut replay_no);
        let t0 = Instant::now();
        let (ing, _) = Ingestor::durable(IngestConfig::live(), &dir).expect("recovers");
        let session = Session::open(&ing.shared());
        let newest = ing.watermark().map_or(0, |w| w.0);
        let _ = stmt::run(
            &session,
            &reader_text(newest, agents[0]),
            None,
            0,
            &mut EngineTally::default(),
        );
        setup_s.push(t0.elapsed().as_secs_f64());
        restarted = Some((ing, dir));
    }

    let mut checks = Checks::default();
    let ctx = Ctx {
        batches: &batches[prefix..],
        prefix_events,
        agents: &agents,
        template: &template,
        root: &root,
    };
    let mut metrics = BTreeMap::new();
    let restarted = restarted.expect("at least one set-up");
    let (window, tracer) = if args.trace {
        let untraced = measure(&ctx, restarted, &mut replay_no, args.seconds / 2.0, None);
        check_window(&mut checks, &untraced, None);
        let tracer = Tracer::default();
        let dir = fresh_copy(&template, &root, &mut replay_no);
        let ing = Ingestor::durable(IngestConfig::live(), &dir)
            .expect("recovers")
            .0;
        let traced = measure(
            &ctx,
            (ing, dir),
            &mut replay_no,
            args.seconds / 2.0,
            Some(&tracer),
        );
        metrics.insert(
            "telemetry.trace_overhead_ratio",
            untraced.events_per_s() / traced.events_per_s(),
        );
        (traced, Some(tracer))
    } else {
        (
            measure(&ctx, restarted, &mut replay_no, args.seconds, None),
            None,
        )
    };
    let t_check = Instant::now();
    check_window(&mut checks, &window, Some(&probes));
    notes.push(format!(
        "ingest: output checks took {:.2} s",
        t_check.elapsed().as_secs_f64()
    ));
    let _ = std::fs::remove_dir_all(&root);

    let a = window.ack_percentiles(&[0.5, 0.95]);
    let mut acks: Vec<f64> = window.acks.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    let ack_p99 = percentiles(&mut acks, &[0.99])[0];
    let r = window.read_percentiles(&[0.5, 0.95]);
    let attempted = (window.acks.len() + window.reads.len()) as u64;
    let failed = window.failed;
    let fsync = window.registry.histogram("aiql_wal_fsync_micros");
    notes.push(format!(
        "ingest: {} replays ({} complete), {} shipments acknowledged, {} events; \
         setup_s {:.3} (median of {SETUPS} restarts), mem_mb {:.1}; reader: {} statements, \
         query_p50_ms {:.3}, query_p95_ms {:.3}, throughput_qps {:.1}; ingest_eps {:.0}, \
         ack_p50_ms {:.3}, ack_p95_ms {:.3} (each per replay, median over replays), \
         ack_p99_ms {:.3} (all acks); fsync p50 {:.0} us, p95 {:.0} us over {} fsyncs; \
         failed_ratio {:.4}",
        window.replays.len(),
        window.replays.iter().filter(|r| r.complete).count(),
        window.acks.len(),
        window.events,
        median(&mut setup_s.clone()),
        window.mem_mb,
        window.reads.len(),
        r[0],
        r[1],
        window.reader_qps(),
        window.events_per_s(),
        a[0],
        a[1],
        ack_p99,
        fsync.quantile(0.5),
        fsync.quantile(0.95),
        fsync.count,
        failed as f64 / attempted.max(1) as f64,
    ));

    if let Some(tracer) = tracer {
        let pick = |f: fn(&StmtTimes) -> Duration| -> Vec<f64> {
            window
                .reads
                .iter()
                .map(|r| f(&r.times).as_secs_f64() * 1e6)
                .collect()
        };
        metrics.insert("core.prepare_p50_us", median(&mut pick(|t| t.prepare)));
        metrics.insert(
            "core.plan_cache_hit_ratio",
            window.cache_hits as f64 / window.reads.len().max(1) as f64,
        );
        let ex = percentiles(&mut pick(|t| t.execute), &[0.5, 0.95]);
        metrics.insert("engine.execute_p50_us", ex[0]);
        metrics.insert("engine.execute_p95_us", ex[1]);
        metrics.insert("engine.live_execute_p50_us", ex[0]);
        metrics.insert("engine.fetch_p50_us", median(&mut pick(|t| t.fetch)));
        window.tally.report(&mut metrics);
        let mut snap: Vec<f64> = window.reads.iter().map(|r| r.snapshot_us).collect();
        metrics.insert(
            "storage.snapshot_read_p99_us",
            percentiles(&mut snap, &[0.99])[0],
        );
        let d = &window.registry;
        let events = window.events.max(1) as f64;
        let publish = d.histogram("aiql_storage_publish_micros");
        metrics.insert("storage.publish_p50_us", publish.quantile(0.5));
        metrics.insert("storage.publish_p99_us", publish.quantile(0.99));
        metrics.insert(
            "storage.publish_bytes_per_event",
            d.histogram("aiql_storage_publish_bytes_copied").sum as f64 / events,
        );
        metrics.insert("storage.build_s", probes.build_s);
        let mut submits: Vec<f64> = window
            .submits
            .iter()
            .map(|d| d.as_secs_f64() * 1e6)
            .collect();
        metrics.insert("ingest.submit_p50_us", median(&mut submits));
        metrics.insert("ingest.eps", window.events_per_s());
        metrics.insert("ingest.ack_p50_ms", a[0]);
        metrics.insert("ingest.ack_p95_ms", a[1]);
        metrics.insert("ingest.ack_p99_ms", ack_p99);
        metrics.insert("wal.fsync_p50_us", fsync.quantile(0.5));
        metrics.insert(
            "wal.fsyncs_per_1k_events",
            fsync.count as f64 * 1000.0 / events,
        );
        metrics.insert(
            "wal.append_bytes_per_event",
            d.histogram("aiql_wal_append_bytes").sum as f64 / events,
        );
        metrics.insert(
            "engine.pool_queue_wait_p50_us",
            d.histogram("aiql_engine_pool_queue_wait_micros")
                .quantile(0.5),
        );
        metrics.insert(
            "engine.pool_tasks_per_stmt",
            d.counter("aiql_engine_pool_tasks") as f64 / window.reads.len().max(1) as f64,
        );
        metrics.insert(
            "client.failed_ratio",
            failed as f64 / attempted.max(1) as f64,
        );
        crate::report_self_time(&tracer, &mut metrics);
        crate::write_trace(&tracer, args);
    } else {
        metrics.insert("setup_s", median(&mut setup_s));
        metrics.insert("mem_mb", window.mem_mb);
        metrics.insert("throughput_qps", window.reader_qps());
        metrics.insert("query_p50_ms", r[0]);
        metrics.insert("query_p95_ms", r[1]);
    }
    Report {
        attempted,
        failed,
        checks,
        metrics,
        notes,
    }
}

struct Ctx<'a> {
    /// The shipments after the restart.
    batches: &'a [EventBatch],
    prefix_events: u64,
    agents: &'a [AgentId],
    template: &'a Path,
    root: &'a Path,
}

/// Removes store directories left by runs that were killed before they
/// could clean up (their process no longer exists).
fn remove_stale_stores() {
    let Ok(entries) = std::fs::read_dir(work_dir()) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|n| n.strip_prefix("ingest-")) else {
            continue;
        };
        if !Path::new("/proc").join(pid).exists() {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// A fresh copy of the restart directory.
fn fresh_copy(template: &Path, root: &Path, n: &mut usize) -> PathBuf {
    *n += 1;
    let dir = root.join(format!("replay-{n}"));
    copy_dir(template, &dir).expect("copy the restart directory");
    dir
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// The live reader's statement: the hour before `newest` (nanoseconds) on
/// one agent.
fn reader_text(newest: i64, agent: AgentId) -> String {
    let hi = Timestamp(newest);
    let lo = hi.saturating_sub(Span::of(1, TimeUnit::Hour));
    format!(
        "(from \"{}\" to \"{}\") agentid = {} proc p write file f return distinct p, f",
        literal(lo),
        literal(hi),
        agent.0
    )
}

fn literal(t: Timestamp) -> String {
    let (y, m, d) = t.ymd();
    let (hh, mm, ss) = t.hms();
    format!("{y:04}-{m:02}-{d:02} {hh:02}:{mm:02}:{ss:02}")
}

struct Read {
    text: String,
    rows: Vec<Row>,
    times: StmtTimes,
    snapshot_us: f64,
}

/// One replay: its share of the window's acks and reads.
struct Replay {
    elapsed: Duration,
    events: u64,
    acks: std::ops::Range<usize>,
    reads: std::ops::Range<usize>,
    complete: bool,
}

struct Window {
    acks: Vec<Duration>,
    submits: Vec<Duration>,
    reads: Vec<Read>,
    events: u64,
    wall: Duration,
    replays: Vec<Replay>,
    failed: u64,
    mem_mb: f64,
    tally: EngineTally,
    cache_hits: u64,
    registry: RegistryDelta,
    /// The first replay's directory and its acknowledged event count
    /// (restart prefix included), and whether it reached the end.
    first: (PathBuf, u64, bool),
    /// Every other replay's directory and acknowledged count.
    others: Vec<(PathBuf, u64)>,
}

impl Window {
    /// The replays figures are taken over: the complete ones, or all of
    /// them when none completed. Each figure is the median across them, so
    /// a stall of the host or its disk moves one replay, not the figure.
    fn segments(&self) -> Vec<&Replay> {
        let complete: Vec<&Replay> = self.replays.iter().filter(|r| r.complete).collect();
        if complete.is_empty() {
            self.replays.iter().collect()
        } else {
            complete
        }
    }

    fn events_per_s(&self) -> f64 {
        median(
            &mut self
                .segments()
                .iter()
                .map(|r| r.events as f64 / r.elapsed.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    }

    /// Reader statements per second.
    fn reader_qps(&self) -> f64 {
        median(
            &mut self
                .segments()
                .iter()
                .map(|r| r.reads.len() as f64 / r.elapsed.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    }

    /// Ack-latency percentiles, ms.
    fn ack_percentiles(&self, ps: &[f64]) -> Vec<f64> {
        let acks: Vec<f64> = self.acks.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        segment_percentiles(self.segments().iter().map(|r| &acks[r.acks.clone()]), ps)
    }

    /// Reader statement-latency percentiles, ms.
    fn read_percentiles(&self, ps: &[f64]) -> Vec<f64> {
        let reads: Vec<f64> = self
            .reads
            .iter()
            .map(|r| r.times.total().as_secs_f64() * 1e3)
            .collect();
        segment_percentiles(self.segments().iter().map(|r| &reads[r.reads.clone()]), ps)
    }
}

/// Replays until `seconds` of replay time have passed. `restarted` is the
/// first replay's recovered ingestor; later replays restart from fresh
/// copies outside the window.
fn measure(
    ctx: &Ctx<'_>,
    restarted: (Ingestor, PathBuf),
    replay_no: &mut usize,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Window {
    let registry = RegistryWindow::open();
    let mut w = Window {
        acks: Vec::new(),
        submits: Vec::new(),
        reads: Vec::new(),
        events: 0,
        wall: Duration::ZERO,
        replays: Vec::new(),
        failed: 0,
        mem_mb: 0.0,
        tally: EngineTally::default(),
        cache_hits: 0,
        registry: RegistryWindow::open().close(),
        first: (PathBuf::new(), 0, false),
        others: Vec::new(),
    };
    let fsync = aiql_telemetry::global().histogram("aiql_wal_fsync_micros");
    let publish = aiql_telemetry::global().histogram("aiql_storage_publish_micros");
    let mut next = Some(restarted);
    while let Some((mut ing, dir)) = next.take() {
        let rss0 = if w.replays.is_empty() {
            trimmed_rss_mb()
        } else {
            0.0
        };
        let shared = ing.shared();
        let newest = AtomicI64::new(ing.watermark().map_or(0, |t| t.0));
        let stop = AtomicBool::new(false);
        let budget = Duration::from_secs_f64(seconds).saturating_sub(w.wall);
        let mut acked = ctx.prefix_events;
        let events0 = w.events;
        let acks0 = w.acks.len();
        let reads0 = w.reads.len();
        let mut completed = true;
        let t0 = Instant::now();
        let (reads, tally, hits) = std::thread::scope(|s| {
            let reader = s.spawn(|| reader_loop(&shared, ctx.agents, &newest, &stop, tracer));
            for b in ctx.batches {
                if t0.elapsed() >= budget {
                    completed = false;
                    break;
                }
                let op = tracer.map_or(0, Tracer::id);
                let (sub, t) = timed(tracer, 0, op, "ingest", "Ingestor::submit", |_| {
                    ing.submit(b.clone())
                });
                w.submits.push(t);
                if sub.is_err() {
                    w.failed += 1;
                    continue;
                }
                let marks = tracer.map(|_| (fsync.snapshot().sum, publish.snapshot().sum));
                let (flushed, t) = timed(tracer, 0, op, "ingest", "Ingestor::flush", |id| {
                    let flushed = ing.flush();
                    if let (Some(tr), Some((f0, p0))) = (tracer, marks) {
                        // The flush's fsync and publish, from the registry,
                        // laid end to end at the end of the call.
                        let end = Instant::now();
                        let f = Duration::from_micros(fsync.snapshot().sum - f0);
                        let p = Duration::from_micros(publish.snapshot().sum - p0);
                        tr.record(tr.id(), id, op, "storage", "publish", end - p, end);
                        tr.record(tr.id(), id, op, "wal", "fsync", end - p - f, end - p);
                    }
                    flushed
                });
                match flushed {
                    Ok(report) => {
                        w.acks.push(t);
                        acked += report.events as u64;
                        w.events += report.events as u64;
                        if let Some(wm) = ing.watermark() {
                            newest.store(wm.0, Ordering::Relaxed);
                        }
                    }
                    Err(_) => w.failed += 1,
                }
            }
            stop.store(true, Ordering::Relaxed);
            reader.join().expect("reader thread")
        });
        let elapsed = t0.elapsed();
        w.wall += elapsed;
        if w.replays.is_empty() {
            w.mem_mb = rss_mb() - rss0;
        }
        w.failed += reads.iter().filter(|r| r.is_none()).count() as u64;
        w.reads.extend(reads.into_iter().flatten());
        w.replays.push(Replay {
            elapsed,
            events: w.events - events0,
            acks: acks0..w.acks.len(),
            reads: reads0..w.reads.len(),
            complete: completed,
        });
        w.cache_hits += hits;
        w.tally.merge(&tally);
        drop(ing);
        if w.replays.len() == 1 {
            w.first = (dir, acked, completed);
        } else {
            w.others.push((dir, acked));
        }
        if w.wall.as_secs_f64() < seconds {
            let dir = fresh_copy(ctx.template, ctx.root, replay_no);
            let ing = Ingestor::durable(IngestConfig::live(), &dir)
                .expect("recovers")
                .0;
            next = Some((ing, dir));
        }
    }
    w.registry = registry.close();
    w
}

/// The live reader: `None` marks a failed statement.
fn reader_loop(
    shared: &SharedStore,
    agents: &[AgentId],
    newest: &AtomicI64,
    stop: &AtomicBool,
    tracer: Option<&Tracer>,
) -> (Vec<Option<Read>>, EngineTally, u64) {
    let session = Session::open(shared);
    let mut tally = EngineTally::default();
    let mut out = Vec::new();
    let mut i = 0;
    while !stop.load(Ordering::Relaxed) {
        let op = tracer.map_or(0, Tracer::id);
        let (snap, t) = timed(tracer, 0, op, "storage", "SharedStore::read", |_| {
            shared.read()
        });
        drop(snap);
        let text = reader_text(newest.load(Ordering::Relaxed), agents[i % agents.len()]);
        let (rows, times) = stmt::run(&session, &text, tracer, op, &mut tally);
        out.push(rows.ok().map(|rows| Read {
            text,
            rows: sorted(rows),
            times,
            snapshot_us: t.as_secs_f64() * 1e6,
        }));
        i += 1;
    }
    (out, tally, session.cache_stats().hits)
}

/// The probe set's results on a batch-built store of the whole dataset.
struct Probes {
    build_s: f64,
    events: u64,
    results: Vec<(String, Result<Vec<Row>, aiql_engine::EngineError>)>,
}

impl Probes {
    fn batch_built(data: &aiql_model::Dataset, agents: &[AgentId]) -> Probes {
        let t = Instant::now();
        let batch =
            EventStore::ingest(data, StoreConfig::partitioned()).expect("batch store builds");
        let build_s = t.elapsed().as_secs_f64();
        let events = batch.event_count() as u64;
        let session = Session::open(&SharedStore::new(batch));
        let results = probe_set(agents)
            .into_iter()
            .map(|text| {
                let rows = session.run(&text).map(|r| sorted(r.rows));
                (text, rows)
            })
            .collect();
        Probes {
            build_s,
            events,
            results,
        }
    }
}

/// Reopens the window's replay directories and checks them. The probe
/// comparison runs when `probes` is given and the first replay reached
/// the end of the stream.
fn check_window(checks: &mut Checks, w: &Window, probes: Option<&Probes>) {
    let reopen = |dir: &Path| -> SharedStore {
        Ingestor::durable(IngestConfig::live(), dir)
            .expect("reopens")
            .0
            .shared()
    };
    if let Some((dir, acked)) = w.others.last() {
        let n = reopen(dir).read().event_count() as u64;
        checks.check(n == *acked, || {
            format!(
                "replay {}: recovered {n} events, acknowledged {acked}",
                dir.display()
            )
        });
    }
    let (dir, acked, completed) = &w.first;
    let store = reopen(dir);
    let recovered = store.read().event_count() as u64;
    checks.check(recovered == *acked, || {
        format!("first replay: recovered {recovered} events, acknowledged {acked}")
    });
    // Every reader result is a subset of the same text on the reopened
    // store: every replay is a prefix of the same stream. Two threads.
    let session = Session::open(&store);
    let half = w.reads.len().div_ceil(2);
    let outcomes: Vec<Checks> = std::thread::scope(|s| {
        let workers: Vec<_> = w
            .reads
            .chunks(half.max(1))
            .map(|reads| {
                let session = session.clone();
                s.spawn(move || {
                    let mut checks = Checks::default();
                    let mut full: BTreeMap<&str, Vec<Row>> = BTreeMap::new();
                    for r in reads {
                        let want = full.entry(&r.text).or_insert_with(|| {
                            sorted(session.run(&r.text).map(|res| res.rows).unwrap_or_default())
                        });
                        checks.check(is_sub_multiset(&r.rows, want), || {
                            format!(
                                "reader result is not a subset of the final store's: {}",
                                r.text
                            )
                        });
                    }
                    checks
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|t| t.join().expect("check thread"))
            .collect()
    });
    for c in outcomes {
        checks.passed += c.passed;
        for f in c.failures {
            checks.check(false, || f);
        }
    }
    let (Some(probes), true) = (probes, *completed) else {
        return;
    };
    checks.check(probes.events == recovered, || {
        format!(
            "batch-built store holds {} events, the replayed one {recovered}",
            probes.events
        )
    });
    for (text, want) in &probes.results {
        let got = session.run(text).map(|r| sorted(r.rows));
        checks.check(got.is_ok() && got == *want, || {
            format!("probe differs between the replayed and the batch-built store: {text}")
        });
    }
}

/// The probe set: the final query of each case-study step and a per-agent
/// count.
fn probe_set(agents: &[AgentId]) -> Vec<String> {
    let mut out: Vec<String> = catalog::case_study()
        .into_iter()
        .filter(|q| ["c1-1", "c2-8", "c3-2", "c4-8", "c5-7"].contains(&q.id))
        .map(|q| q.source.to_string())
        .collect();
    out.extend(
        agents
            .iter()
            .map(|a| format!("agentid = {} proc p write file f return count p", a.0)),
    );
    out
}

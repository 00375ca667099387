//! Concurrent query serving under live ingestion — the workload the
//! epoch-swapped snapshot store exists for.
//!
//! The paper's investigation setting is many analysts querying while
//! system-monitoring events stream in. This experiment models each analyst
//! as a **closed-loop session**: issue a query against the live store,
//! read the answer, think for a few milliseconds, repeat. Aggregate
//! queries/second across 1/2/4/8 analyst threads is measured four ways:
//!
//! - **snapshot** store ([`SharedStore`]): readers pin the published
//!   `Arc<EventStore>` snapshot per query — no lock is held while the
//!   query runs;
//! - **lock** store: the pre-snapshot design, `RwLock<EventStore>` with a
//!   read guard held for the whole query and the write lock held for the
//!   whole flush — kept here as the measured baseline;
//!
//! each **idle** (no writer) and **live** (a writer thread continuously
//! streams shipments into the store and flushes them). The differentiator
//! is the live column: snapshot readers keep serving the previous snapshot
//! while a flush runs, so their throughput and tail latency stay at idle
//! levels; lock readers stall behind every flush's write-lock hold, which
//! shows up as a max-latency spike and a throughput dip exactly when
//! ingestion is busy.
//!
//! The closed-loop think time makes the scaling measurement meaningful on
//! any core count: an analyst's throughput is latency-bound, so N sessions
//! scale until either the CPUs saturate *or the store serializes them* —
//! and the latter is what this experiment isolates. Think time is
//! calibrated to ~8x the single-query latency, leaving headroom for 8
//! sessions; `cpu_cores` is recorded in the snapshot so saturated-CPU runs
//! are interpretable.

use crate::harness::{self, Scale};
use aiql_engine::{Engine, EngineConfig, Session};
use aiql_ingest::{EventBatch, IngestConfig, Ingestor};
use aiql_model::{Dataset, Event};
use aiql_storage::{EventStore, SharedStore, StoreConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::RwLock;
use std::time::{Duration, Instant};

/// The analyst query: a selective pattern over the attack day, answerable
/// from indexes + columnar blocks in well under a millisecond at small
/// scale — short enough that serving throughput, not scan cost, dominates.
const QUERY: &str = r#"(at "01/02/2017") proc p write ip i[dstip = "192.168.66.129"] as evt
                       return distinct p, i"#;

/// Events per writer shipment (one flush = one published snapshot).
const SHIPMENT_EVENTS: usize = 1024;

/// Writer pause between shipments — a paced arrival stream (~25k events/s
/// at 1024-event shipments), not a tight loop: a monitoring feed delivers
/// at the agents' event rate, it does not saturate a core re-ingesting.
const WRITER_PAUSE: Duration = Duration::from_millis(40);

/// Engine configuration for serving: relationship scheduling without
/// partition-parallel scans — reader parallelism comes from the analyst
/// threads themselves, not from nested per-query worker pools.
fn serving_config() -> EngineConfig {
    EngineConfig {
        parallel: false,
        ..EngineConfig::aiql()
    }
}

/// One closed-loop serving measurement: N analyst threads for a fixed
/// wall-clock window.
#[derive(Debug, Clone, Copy)]
pub struct ServingRun {
    /// Analyst threads serving concurrently.
    pub readers: usize,
    /// Aggregate queries per second across all threads.
    pub qps: f64,
    /// Mean per-query latency.
    pub mean_latency: Duration,
    /// Worst per-query latency observed by any thread — the stall metric:
    /// a reader blocked behind a flush shows up here.
    pub max_latency: Duration,
}

/// Untimed queries each session runs before its cell's clock starts.
/// Without this, the first measured cell of a grid absorbs every one-shot
/// cold-start cost — thread spawn, lazy index materialisation, allocator
/// growth — and can read an order of magnitude slower than its neighbours
/// (observed once as `lock_idle_qps: [4.4, 4.0, 533.6, 3087.1]`).
const WARMUP_QUERIES: usize = 3;

/// Drives `readers` closed-loop sessions for `window`; each session runs
/// `run_query`, sleeps `think`, repeats. Every cell warms up untimed
/// first, so cells are comparable regardless of grid position.
fn closed_loop(
    readers: usize,
    window: Duration,
    think: Duration,
    run_query: impl Fn() -> usize + Sync,
) -> ServingRun {
    std::thread::scope(|s| {
        for _ in 0..readers {
            s.spawn(|| {
                for _ in 0..WARMUP_QUERIES {
                    std::hint::black_box(run_query());
                }
            });
        }
    });
    let stop_at = Instant::now() + window;
    let per_thread: Vec<(u64, Duration, Duration, Duration)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                s.spawn(|| {
                    let started = Instant::now();
                    let (mut n, mut total, mut max) = (0u64, Duration::ZERO, Duration::ZERO);
                    while Instant::now() < stop_at {
                        let t = Instant::now();
                        std::hint::black_box(run_query());
                        let lat = t.elapsed();
                        n += 1;
                        total += lat;
                        max = max.max(lat);
                        if !think.is_zero() {
                            std::thread::sleep(think);
                        }
                    }
                    (n, total, max, started.elapsed())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("analyst thread panicked"))
            .collect()
    });
    let queries: u64 = per_thread.iter().map(|(n, ..)| n).sum();
    let total: Duration = per_thread.iter().map(|(_, t, ..)| *t).sum();
    let max = per_thread
        .iter()
        .map(|(.., m, _)| *m)
        .max()
        .unwrap_or_default();
    let elapsed = per_thread
        .iter()
        .map(|(.., e)| *e)
        .max()
        .unwrap_or(window)
        .max(Duration::from_millis(1));
    ServingRun {
        readers,
        qps: queries as f64 / elapsed.as_secs_f64(),
        mean_latency: total / queries.max(1) as u32,
        max_latency: max,
    }
}

/// The ingestion feed: the dataset's events re-shipped cyclically in
/// time-ordered chunks, shifted two days **past the queried window** — the
/// investigation setting exactly: analysts scan the attack day while
/// today's telemetry streams in. The shift keeps the serving measurement
/// unconfounded: partition pruning keeps the analyst query's scan size
/// constant no matter how much the feed appends, so any live-vs-idle
/// throughput difference is coordination cost, not store growth.
fn shipments(data: &Dataset) -> Vec<Vec<Event>> {
    const SHIFT: i64 = 2 * aiql_rdb::partition::NANOS_PER_DAY;
    data.events
        .chunks(SHIPMENT_EVENTS)
        .map(|chunk| {
            chunk
                .iter()
                .map(|ev| {
                    let mut ev = ev.clone();
                    ev.start = aiql_model::Timestamp(ev.start.0 + SHIFT);
                    ev.end = aiql_model::Timestamp(ev.end.0 + SHIFT);
                    ev
                })
                .collect()
        })
        .collect()
}

/// Runs `measure_in` with a paced writer thread applying shipments via
/// `apply` until measurement finishes.
fn with_writer<T: Send>(
    chunks: &[Vec<Event>],
    apply: impl FnMut(&[Event]) + Send,
    measure_in: impl FnOnce() -> T + Send,
) -> T {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer = s.spawn({
            let stop = &stop;
            let mut apply = apply;
            move || {
                for chunk in chunks.iter().cycle() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    apply(chunk);
                    std::thread::sleep(WRITER_PAUSE);
                }
            }
        });
        let out = measure_in();
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("writer thread panicked");
        out
    })
}

/// The pre-snapshot design, reconstructed as the measured baseline: one
/// `RwLock<EventStore>`, read guard per query, write lock per flush.
struct LockStore {
    inner: RwLock<EventStore>,
}

impl LockStore {
    fn query(&self) -> usize {
        let guard = self.inner.read().expect("lock store poisoned");
        Engine::with_config(&guard, serving_config())
            .run(QUERY)
            .expect("query runs")
            .rows
            .len()
    }

    fn flush(&self, chunk: &[Event]) {
        let mut guard = self.inner.write().expect("lock store poisoned");
        for ev in chunk {
            guard.append_event(ev).expect("append");
        }
    }
}

/// Everything one `measure` call produced, ready to render or gate on.
#[derive(Debug, Clone)]
pub struct ConcurrentReport {
    pub scale: Scale,
    /// Events in the seed store each design starts from.
    pub seed_events: usize,
    /// CPUs available to this process — reader scaling beyond this count
    /// is latency-hiding (think time), not parallel compute.
    pub cpu_cores: usize,
    /// Execution shards the seed store routes partitions into — recorded
    /// so serving numbers can be compared across shard layouts.
    pub store_shards: usize,
    /// Calibrated think time between an analyst's queries.
    pub think: Duration,
    pub threads: Vec<usize>,
    pub snapshot_idle: Vec<ServingRun>,
    pub snapshot_live: Vec<ServingRun>,
    pub lock_idle: Vec<ServingRun>,
    pub lock_live: Vec<ServingRun>,
}

impl ConcurrentReport {
    fn at(runs: &[ServingRun], readers: usize) -> Option<&ServingRun> {
        runs.iter().find(|r| r.readers == readers)
    }

    /// Snapshot-store reader scaling: idle qps at `readers` threads over
    /// idle qps at 1 thread.
    pub fn scaling(&self, readers: usize) -> f64 {
        match (
            Self::at(&self.snapshot_idle, readers),
            Self::at(&self.snapshot_idle, 1),
        ) {
            (Some(n), Some(one)) if one.qps > 0.0 => n.qps / one.qps,
            _ => 0.0,
        }
    }

    /// Snapshot-store live-over-idle throughput ratio at `readers`
    /// threads: 1.0 means ingestion costs readers nothing.
    pub fn live_over_idle(&self, readers: usize) -> f64 {
        match (
            Self::at(&self.snapshot_live, readers),
            Self::at(&self.snapshot_idle, readers),
        ) {
            (Some(live), Some(idle)) if idle.qps > 0.0 => live.qps / idle.qps,
            _ => 0.0,
        }
    }

    /// Same ratio for the lock-based baseline.
    pub fn lock_live_over_idle(&self, readers: usize) -> f64 {
        match (
            Self::at(&self.lock_live, readers),
            Self::at(&self.lock_idle, readers),
        ) {
            (Some(live), Some(idle)) if idle.qps > 0.0 => live.qps / idle.qps,
            _ => 0.0,
        }
    }

    /// Renders the human-readable table.
    pub fn render(&self) -> String {
        use crate::report::TextTable;
        let mut out = format!(
            "Concurrent serving: closed-loop analysts over a live store \
             ({} seed events, {:?} scale, {} cpu core(s), {} shard(s), think {:.1} ms)\n\n",
            self.seed_events,
            self.scale,
            self.cpu_cores,
            self.store_shards,
            self.think.as_secs_f64() * 1e3,
        );
        let mut t = TextTable::new(&[
            "readers",
            "snapshot idle (q/s)",
            "snapshot live (q/s)",
            "lock idle (q/s)",
            "lock live (q/s)",
            "snap live max-lat (ms)",
            "lock live max-lat (ms)",
        ]);
        for (i, &n) in self.threads.iter().enumerate() {
            t.row(vec![
                n.to_string(),
                format!("{:.0}", self.snapshot_idle[i].qps),
                format!("{:.0}", self.snapshot_live[i].qps),
                format!("{:.0}", self.lock_idle[i].qps),
                format!("{:.0}", self.lock_live[i].qps),
                format!(
                    "{:.2}",
                    self.snapshot_live[i].max_latency.as_secs_f64() * 1e3
                ),
                format!("{:.2}", self.lock_live[i].max_latency.as_secs_f64() * 1e3),
            ]);
        }
        out.push_str(&t.render());
        out.push_str(&format!(
            "\nSnapshot reader scaling (idle): {:.2}x at 2, {:.2}x at 4, {:.2}x at 8 threads\n\
             Read throughput under live ingestion vs idle: snapshot {:.0}%, lock-based {:.0}% (4 threads)\n",
            self.scaling(2),
            self.scaling(4),
            self.scaling(8),
            100.0 * self.live_over_idle(4),
            100.0 * self.lock_live_over_idle(4),
        ));
        out
    }

    /// Renders the `BENCH_concurrent.json` snapshot body.
    pub fn json(&self) -> String {
        let qps = |runs: &[ServingRun]| {
            runs.iter()
                .map(|r| format!("{:.1}", r.qps))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let max_ms = |runs: &[ServingRun]| {
            runs.iter()
                .map(|r| format!("{:.3}", r.max_latency.as_secs_f64() * 1e3))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "{{\n  \"experiment\": \"concurrent\",\n  \"scale\": \"{:?}\",\n  \
             \"seed_events\": {},\n  \"cpu_cores\": {},\n  \"store_shards\": {},\n  \"think_time_ms\": {:.3},\n  \
             \"reader_threads\": [{}],\n  \
             \"snapshot_idle_qps\": [{}],\n  \"snapshot_live_qps\": [{}],\n  \
             \"lock_idle_qps\": [{}],\n  \"lock_live_qps\": [{}],\n  \
             \"snapshot_live_max_latency_ms\": [{}],\n  \"lock_live_max_latency_ms\": [{}],\n  \
             \"snapshot_scaling_4_threads\": {:.2},\n  \
             \"snapshot_live_over_idle_4_threads\": {:.3},\n  \
             \"lock_live_over_idle_4_threads\": {:.3}\n}}\n",
            self.scale,
            self.seed_events,
            self.cpu_cores,
            self.store_shards,
            self.think.as_secs_f64() * 1e3,
            self.threads
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", "),
            qps(&self.snapshot_idle),
            qps(&self.snapshot_live),
            qps(&self.lock_idle),
            qps(&self.lock_live),
            max_ms(&self.snapshot_live),
            max_ms(&self.lock_live),
            self.scaling(4),
            self.live_over_idle(4),
            self.lock_live_over_idle(4),
        )
    }
}

/// Runs the full measurement grid: {1,2,4,8} analyst threads x {idle,
/// live} x {snapshot store, lock-based baseline}, `window` of wall clock
/// per cell.
pub fn measure(data: &Dataset, scale: Scale, window: Duration) -> ConcurrentReport {
    let seed = EventStore::ingest(data, StoreConfig::partitioned()).expect("seed ingest");
    let seed_events = seed.event_count();
    let store_shards = seed.shard_count();
    let chunks = shipments(data);
    let threads = vec![1usize, 2, 4, 8];

    // Both designs serve the same seed store; `EventStore::clone` is the
    // copy-on-write snapshot clone, so this costs pointers, not rows.
    let shared = SharedStore::new(seed.clone());
    let lock = LockStore {
        inner: RwLock::new(seed),
    };

    // Sanity: the analyst query must actually find the attack pattern.
    let session = Session::with_config(&shared, serving_config());
    let rows = session.run(QUERY).expect("query runs").rows.len();
    assert!(rows > 0, "serving query found nothing — wrong dataset?");
    assert_eq!(lock.query(), rows, "designs disagree on the seed store");

    // Calibrate think time to ~8x the single-query latency so eight
    // closed-loop sessions have scaling headroom.
    let (latency, _) = harness::best_of(5, || session.run(QUERY).expect("query runs").rows.len());
    let think = Duration::from_secs_f64((8.0 * latency).clamp(0.002, 0.025));
    let cpu_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let snapshot_query = || session.run(QUERY).expect("query runs").rows.len();

    let snapshot_idle: Vec<ServingRun> = threads
        .iter()
        .map(|&n| closed_loop(n, window, think, snapshot_query))
        .collect();
    let lock_idle: Vec<ServingRun> = threads
        .iter()
        .map(|&n| closed_loop(n, window, think, || lock.query()))
        .collect();

    // Live: one writer thread streams shipments for the whole row of
    // measurements. Snapshot design ingests through the real `Ingestor`
    // over the same shared handle the analysts read.
    let mut ingestor = Ingestor::over(shared.clone(), IngestConfig::live());
    let snapshot_live: Vec<ServingRun> = with_writer(
        &chunks,
        |chunk| {
            let mut batch = EventBatch::new();
            batch.events = chunk.to_vec();
            ingestor.submit(batch).expect("within high-water mark");
            ingestor.flush().expect("flush");
        },
        || {
            threads
                .iter()
                .map(|&n| closed_loop(n, window, think, snapshot_query))
                .collect()
        },
    );
    let lock_live: Vec<ServingRun> = with_writer(
        &chunks,
        |chunk| lock.flush(chunk),
        || {
            threads
                .iter()
                .map(|&n| closed_loop(n, window, think, || lock.query()))
                .collect()
        },
    );

    ConcurrentReport {
        scale,
        seed_events,
        cpu_cores,
        store_shards,
        think,
        threads,
        snapshot_idle,
        snapshot_live,
        lock_idle,
        lock_live,
    }
}

/// The `repro concurrent` driver: measures at the requested scale and
/// returns the rendered table plus the `BENCH_concurrent.json` body.
pub fn concurrent_bench(opts: crate::experiments::Options) -> (String, String) {
    let (data, _) = harness::dataset(opts.scale);
    let report = measure(&data, opts.scale, Duration::from_millis(400));
    (report.render(), report.json())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_counts_queries() {
        let run = closed_loop(2, Duration::from_millis(30), Duration::from_millis(1), || 1);
        assert_eq!(run.readers, 2);
        assert!(run.qps > 0.0);
        assert!(run.max_latency >= run.mean_latency);
    }

    #[test]
    fn report_ratios() {
        let mk = |readers: usize, qps: f64| ServingRun {
            readers,
            qps,
            mean_latency: Duration::from_micros(100),
            max_latency: Duration::from_micros(300),
        };
        let r = ConcurrentReport {
            scale: Scale::Small,
            seed_events: 1000,
            cpu_cores: 4,
            store_shards: 4,
            think: Duration::from_millis(2),
            threads: vec![1, 4],
            snapshot_idle: vec![mk(1, 100.0), mk(4, 390.0)],
            snapshot_live: vec![mk(1, 95.0), mk(4, 360.0)],
            lock_idle: vec![mk(1, 100.0), mk(4, 380.0)],
            lock_live: vec![mk(1, 60.0), mk(4, 150.0)],
        };
        assert!((r.scaling(4) - 3.9).abs() < 1e-9);
        assert!(r.live_over_idle(4) > 0.9);
        assert!(r.lock_live_over_idle(4) < 0.5);
        let json = r.json();
        assert!(json.contains("\"snapshot_scaling_4_threads\": 3.90"));
        assert!(json.contains("\"store_shards\": 4"));
        let table = r.render();
        assert!(table.contains("readers"));
    }
}

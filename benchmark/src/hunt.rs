//! `hunt`: one analyst, in process, over the Large store.
//!
//! A closed loop runs whole passes of the 46-query catalog (26 case-study
//! queries, the anomaly query, 19 behaviours) as text: `Session::prepare`,
//! execute, drain. The 46 texts fit the session's 256-entry plan cache, so
//! after set-up every prepare hits.
//!
//! Output checks: every result equals an oracle computed on the row store
//! (`StoreConfig::partitioned().with_columnar(false)`) with the sequential
//! engine, and the final query of each case-study step recovers the
//! step's planted actors from the generator's ground truth. c5-5 exceeds
//! `tupleset::MAX_TUPLES` at this scale; it stays in the mix and counts as
//! a failed statement, provided the oracle fails the same way.

use crate::common::*;
use crate::stmt::{self, EngineTally};
use crate::trace::Tracer;
use aiql_bench::catalog::{self, CatalogQuery, QueryKind};
use aiql_datagen::GroundTruth;
use aiql_engine::{Engine, EngineConfig, EngineError, Session};
use aiql_model::{Dataset, Value};
use aiql_storage::{EventStore, SharedStore, StoreConfig};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

type Outcome = Result<Vec<Row>, EngineError>;

pub fn run(args: &Args) -> Report {
    let (hosts, days, per_day) = LARGE;
    let t_gen = Instant::now();
    let (data, truth) = dataset(args.seed, hosts, days, per_day);
    let gen_s = t_gen.elapsed().as_secs_f64();
    let queries: Vec<CatalogQuery> = catalog::case_study()
        .into_iter()
        .chain(catalog::behaviours())
        .collect();
    let mut notes = vec![format!(
        "hunt: {} events, {} entities, {} catalog queries, 1 analyst thread; \
         inputs generated in {gen_s:.2} s",
        data.events.len(),
        data.entities.len(),
        queries.len()
    )];

    // The oracle first, so its row store is gone before the measured
    // store is built.
    let t_oracle = Instant::now();
    let oracle = oracle(&data, &queries);
    let oracle_s = t_oracle.elapsed().as_secs_f64();

    // Set-up: store build, session, one warm-up pass. Repeated; the last
    // session is the one measured.
    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut mem_mb = 0.0;
    let mut last: Option<Session> = None;
    let mut warm = Vec::new();
    for k in 0..SETUPS {
        drop(last.take());
        let rss0 = trimmed_rss_mb();
        let t0 = Instant::now();
        let store = EventStore::ingest(&data, StoreConfig::partitioned()).expect("store builds");
        build_s.push(t0.elapsed().as_secs_f64());
        let session = Session::open(&SharedStore::new(store));
        warm = queries
            .iter()
            .map(|q| stmt::run(&session, q.source, None, 0, &mut EngineTally::default()).0)
            .collect();
        setup_s.push(t0.elapsed().as_secs_f64());
        if k == 0 {
            mem_mb = rss_mb() - rss0;
        }
        last = Some(session);
    }
    let session = last.expect("at least one set-up");

    let mut checks = Checks::default();
    notes.push(format!(
        "hunt: set-ups took {setup_s:.3?} s; oracle computed in {oracle_s:.2} s"
    ));
    compare(&mut checks, &queries, &oracle, &warm, "warm-up pass");
    check_ground_truth(&mut checks, &data, &truth, &queries, &oracle);
    drop(warm);

    let mut metrics = BTreeMap::new();
    let (window, traced) = if args.trace {
        let half = args.seconds / 2.0;
        let untraced = measure(&session, &queries, &oracle, half, None, &mut checks);
        let tracer = Tracer::default();
        let traced = measure(
            &session,
            &queries,
            &oracle,
            half,
            Some(&tracer),
            &mut checks,
        );
        metrics.insert(
            "telemetry.trace_overhead_ratio",
            traced.per_statement_s() / untraced.per_statement_s(),
        );
        (traced, Some(tracer))
    } else {
        let window = measure(&session, &queries, &oracle, args.seconds, None, &mut checks);
        (window, None)
    };

    let lat: Vec<f64> = window
        .times
        .iter()
        .map(|t| t.total().as_secs_f64() * 1e3)
        .collect();
    let q = segment_percentiles(lat.chunks_exact(queries.len()), &[0.5, 0.95]);
    let attempted = window.times.len() as u64;
    notes.push(format!(
        "hunt: {} passes, {} statements ({} failed; percentiles per pass of {} statements, \
         median over passes), setup_s {:.3} (median of {SETUPS}), query_p50_ms {:.3}, query_p95_ms {:.3}, \
         throughput_qps {:.2}, failed_ratio {:.4}, mem_mb {:.1}",
        window.passes,
        attempted,
        window.failed,
        queries.len(),
        median(&mut setup_s.clone()),
        q[0],
        q[1],
        window.throughput(),
        window.failed as f64 / attempted.max(1) as f64,
        mem_mb,
    ));

    if let Some(tracer) = traced {
        let col = |f: fn(&stmt::StmtTimes) -> Duration| -> Vec<f64> {
            window
                .times
                .iter()
                .map(|t| f(t).as_secs_f64() * 1e6)
                .collect()
        };
        metrics.insert("core.prepare_p50_us", median(&mut col(|t| t.prepare)));
        metrics.insert(
            "core.plan_cache_hit_ratio",
            (window.cache_hits as f64) / (window.cache_lookups.max(1) as f64),
        );
        let ex = percentiles(&mut col(|t| t.execute), &[0.5, 0.95]);
        metrics.insert("engine.execute_p50_us", ex[0]);
        metrics.insert("engine.execute_p95_us", ex[1]);
        metrics.insert("engine.fetch_p50_us", median(&mut col(|t| t.fetch)));
        window.tally.report(&mut metrics);
        let d = &window.registry;
        metrics.insert(
            "engine.pool_queue_wait_p50_us",
            d.histogram("aiql_engine_pool_queue_wait_micros")
                .quantile(0.5),
        );
        metrics.insert(
            "engine.pool_tasks_per_stmt",
            d.counter("aiql_engine_pool_tasks") as f64 / attempted.max(1) as f64,
        );
        metrics.insert("storage.build_s", median(&mut build_s));
        metrics.insert(
            "client.failed_ratio",
            window.failed as f64 / attempted.max(1) as f64,
        );
        crate::report_self_time(&tracer, &mut metrics);
        crate::write_trace(&tracer, args);
    } else {
        metrics.insert("setup_s", median(&mut setup_s));
        metrics.insert("mem_mb", mem_mb);
        metrics.insert("throughput_qps", window.throughput());
        metrics.insert("query_p50_ms", q[0]);
        metrics.insert("query_p95_ms", q[1]);
    }
    Report {
        attempted,
        failed: window.failed,
        checks,
        metrics,
        notes,
    }
}

/// The row-store, sequential-engine answer to every catalog query, rows
/// sorted.
fn oracle(data: &Dataset, queries: &[CatalogQuery]) -> Vec<Outcome> {
    let store = EventStore::ingest(data, StoreConfig::partitioned().with_columnar(false))
        .expect("oracle store builds");
    let config = EngineConfig {
        parallel: false,
        workers: 1,
        ..EngineConfig::aiql()
    };
    let engine = Engine::with_config(&store, config);
    queries
        .iter()
        .map(|q| engine.run(q.source).map(|r| sorted(r.rows)))
        .collect()
}

fn compare(
    checks: &mut Checks,
    queries: &[CatalogQuery],
    oracle: &[Outcome],
    got: &[Outcome],
    when: &str,
) {
    for ((q, want), got) in queries.iter().zip(oracle).zip(got) {
        check_one(checks, q, want, got, when);
    }
}

fn check_one(checks: &mut Checks, q: &CatalogQuery, want: &Outcome, got: &Outcome, when: &str) {
    let same = match (want, got) {
        (Ok(w), Ok(g)) => w.len() == g.len() && *w == sorted(g.clone()),
        (Err(w), Err(g)) => w == g,
        _ => false,
    };
    checks.check(same, || {
        format!(
            "{when}: {} differs from the row-store oracle ({} vs {})",
            q.id,
            describe(got),
            describe(want)
        )
    });
}

fn describe(o: &Outcome) -> String {
    match o {
        Ok(rows) => format!("{} rows", rows.len()),
        Err(e) => format!("error: {e}"),
    }
}

/// The final multievent query of each case-study step must name both
/// endpoints of at least one of the step's planted events.
fn check_ground_truth(
    checks: &mut Checks,
    data: &Dataset,
    truth: &GroundTruth,
    queries: &[CatalogQuery],
    oracle: &[Outcome],
) {
    let entities: HashMap<_, _> = data.entities.iter().map(|e| (e.id, e)).collect();
    let events: HashMap<_, _> = data.events.iter().map(|e| (e.id, e)).collect();
    let name = |id| -> Option<Value> {
        let e = entities.get(&id)?;
        e.attrs
            .get(aiql_model::schema::default_attr(e.kind))
            .cloned()
    };
    for step in ["c1", "c2", "c3", "c4", "c5"] {
        let Some(idx) = queries
            .iter()
            .rposition(|q| q.group == step && q.kind == QueryKind::Multievent)
        else {
            checks.check(false, || format!("no final query for step {step}"));
            continue;
        };
        let returned: HashSet<Value> = match &oracle[idx] {
            Ok(rows) => rows.iter().flatten().cloned().collect(),
            Err(_) => HashSet::new(),
        };
        let planted = truth.get(step).map_or(&[][..], |v| &v[..]);
        let recovered = planted.iter().filter_map(|id| events.get(id)).any(|ev| {
            match (name(ev.subject), name(ev.object)) {
                (Some(s), Some(o)) => returned.contains(&s) && returned.contains(&o),
                _ => false,
            }
        });
        checks.check(recovered, || {
            format!(
                "{}: the final query of step {step} recovers none of its {} planted events",
                queries[idx].id,
                planted.len()
            )
        });
    }
}

/// One measured window.
struct Window {
    times: Vec<stmt::StmtTimes>,
    failed: u64,
    passes: u64,
    wall: Duration,
    tally: EngineTally,
    registry: RegistryDelta,
    cache_hits: u64,
    cache_lookups: u64,
}

impl Window {
    /// Statements per second over a median catalog pass, so a transient
    /// stall of the host moves one pass, not the figure.
    fn throughput(&self) -> f64 {
        let pass_len = self.times.len() / self.passes.max(1) as usize;
        let mut passes: Vec<f64> = self
            .times
            .chunks_exact(pass_len)
            .map(|pass| pass.iter().map(|t| t.total().as_secs_f64()).sum())
            .collect();
        pass_len as f64 / median(&mut passes)
    }

    fn per_statement_s(&self) -> f64 {
        self.wall.as_secs_f64() / self.times.len().max(1) as f64
    }
}

/// Whole catalog passes until `seconds` have passed.
fn measure(
    session: &Session,
    queries: &[CatalogQuery],
    oracle: &[Outcome],
    seconds: f64,
    tracer: Option<&Tracer>,
    checks: &mut Checks,
) -> Window {
    let mut times = Vec::new();
    let mut failed = 0;
    let mut passes = 0;
    let mut tally = EngineTally::default();
    let cache0 = session.cache_stats();
    let registry = RegistryWindow::open();
    let t0 = Instant::now();
    // Time spent checking outputs is not the analyst's: keep it out of the
    // window.
    let mut checking = Duration::ZERO;
    while passes == 0 || (t0.elapsed() - checking).as_secs_f64() < seconds {
        for (q, want) in queries.iter().zip(oracle) {
            let op = tracer.map_or(0, Tracer::id);
            let (got, t) = stmt::run(session, q.source, tracer, op, &mut tally);
            times.push(t);
            if got.is_err() {
                failed += 1;
            }
            let c = Instant::now();
            check_one(checks, q, want, &got, "measured pass");
            checking += c.elapsed();
        }
        passes += 1;
    }
    let wall = t0.elapsed() - checking;
    let registry = registry.close();
    let cache1 = session.cache_stats();
    Window {
        times,
        failed,
        passes,
        wall,
        tally,
        registry,
        cache_hits: cache1.hits - cache0.hits,
        cache_lookups: (cache1.hits + cache1.misses) - (cache0.hits + cache0.misses),
    }
}

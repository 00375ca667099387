//! `triage`: two tenants share one `aiql-server` with one worker thread,
//! over the Medium store.
//!
//! - `interactive`: an open loop at 20 statements/s on one connection.
//!   Each statement executes the prepared Query-7 family
//!   (`service::QUERY7_TEMPLATE`, bound per `service::family`) and fetches
//!   every row, then sends one `Ping`. Latency runs from when the
//!   statement was due, so a stall also charges the statements queued
//!   behind it; how late the generator ran is recorded.
//! - `hunter`: a closed loop over the 46-query catalog as prepared
//!   statements on a second connection.
//!
//! One worker and two connections is the smallest setup where connections
//! outnumber workers, so head-of-line blocking behind a heavy statement
//! shows. Output check: every remote result is row-identical to the
//! in-process session on the same store.

use crate::common::*;
use crate::trace::{timed, Tracer};
use aiql_bench::catalog;
use aiql_bench::service::{family, FamilyBinding, QUERY7_TEMPLATE};
use aiql_client::Client;
use aiql_engine::{Params, Session};
use aiql_server::{Server, ServerConfig, ServerHandle};
use aiql_storage::{EventStore, SharedStore, StoreConfig};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The interactive tenant's arrival rate.
const INTERACTIVE_PER_S: f64 = 20.0;
/// A send this much later than due counts as late.
const LATE: Duration = Duration::from_millis(1);

type Outcome = Result<Vec<Row>, String>;

pub fn run(args: &Args) -> Report {
    let (hosts, days, per_day) = MEDIUM;
    let (data, _) = dataset(args.seed, hosts, days, per_day);
    let sources: Vec<&'static str> = catalog::case_study()
        .into_iter()
        .chain(catalog::behaviours())
        .map(|q| q.source)
        .collect();
    let bindings = family(&data);
    let mut notes = vec![format!(
        "triage: {} events; server with 1 worker; interactive tenant open loop at \
         {INTERACTIVE_PER_S}/s (one arrival per period, seeded phase) over {} family \
         bindings; hunter tenant closed loop over {} catalog queries; 2 load threads, \
         2 connections",
        data.events.len(),
        bindings.len(),
        sources.len()
    )];

    // Set-up: store build, server spawn, one warm-up pass (the catalog and
    // the family, remotely). Repeated; the last system is measured.
    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut mem_mb = 0.0;
    let mut system: Option<(SharedStore, ServerHandle)> = None;
    for k in 0..SETUPS {
        if let Some((_, server)) = system.take() {
            server.shutdown();
        }
        let rss0 = trimmed_rss_mb();
        let t0 = Instant::now();
        let store = EventStore::ingest(&data, StoreConfig::partitioned()).expect("store builds");
        build_s.push(t0.elapsed().as_secs_f64());
        let shared = SharedStore::new(store);
        let server = Server::spawn(
            &shared,
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .expect("server spawns");
        let mut c = Client::connect(server.addr(), "warmup").expect("connect");
        let session = c.open_session().expect("open session");
        for src in &sources {
            let stmt = c.prepare(session, src).expect("prepare");
            let _ = c.query(session, stmt.stmt, &Params::new());
        }
        let stmt = c.prepare(session, QUERY7_TEMPLATE).expect("prepare");
        for b in &bindings {
            let _ = c.query(session, stmt.stmt, &b.to_params());
        }
        c.close_session(session).expect("close session");
        drop(c);
        setup_s.push(t0.elapsed().as_secs_f64());
        if k == 0 {
            mem_mb = rss_mb() - rss0;
        }
        system = Some((shared, server));
    }
    let (shared, server) = system.expect("at least one set-up");

    // The in-process oracle: the same statements on an in-process session.
    let session = Session::open(&shared);
    let catalog_oracle: Vec<Outcome> = sources
        .iter()
        .map(|src| session.run(src).map(|r| r.rows).map_err(|e| e.to_string()))
        .collect();
    let family_stmt = session.prepare(QUERY7_TEMPLATE).expect("template compiles");
    let family_oracle: Vec<Vec<Row>> = bindings
        .iter()
        .map(|b| {
            let mut cur = family_stmt
                .bind(b.to_params())
                .expect("binds")
                .execute()
                .expect("runs");
            drain(&mut cur)
        })
        .collect();

    let mut metrics = BTreeMap::new();
    let mut checks = Checks::default();
    let mut rng = SplitMix64(args.seed);
    let oracle = Oracles {
        sources: &sources,
        catalog: &catalog_oracle,
        bindings: &bindings,
        family: &family_oracle,
    };
    let (window, tracer) = if args.trace {
        metrics.insert(
            "server.wire_overhead_p50_us",
            wire_overhead_us(&server, &session, &bindings),
        );
        let untraced = measure(
            &server,
            &oracle,
            &arrivals(&mut rng, args.seconds / 2.0),
            None,
            &mut checks,
        );
        let tracer = Tracer::default();
        let traced = measure(
            &server,
            &oracle,
            &arrivals(&mut rng, args.seconds / 2.0),
            Some(&tracer),
            &mut checks,
        );
        metrics.insert(
            "telemetry.trace_overhead_ratio",
            traced.hunter_per_statement_s() / untraced.hunter_per_statement_s(),
        );
        (traced, Some(tracer))
    } else {
        (
            measure(
                &server,
                &oracle,
                &arrivals(&mut rng, args.seconds),
                None,
                &mut checks,
            ),
            None,
        )
    };
    let stats = server.stats();
    server.shutdown();

    let attempted = (window.interactive.len() + window.hunter.len()) as u64;
    let failed = window.failed;
    let mut lat: Vec<f64> = window.interactive.iter().map(|s| s.latency_ms).collect();
    let q = percentiles(&mut lat, &[0.5, 0.95]);
    let late = window.interactive.iter().filter(|s| s.late > LATE).count() as f64
        / window.interactive.len().max(1) as f64;
    notes.push(format!(
        "triage: {} interactive statements ({} samples per percentile), {} hunter statements, \
         {} failed; setup_s {:.3} (median of {SETUPS}), query_p50_ms {:.3}, query_p95_ms {:.3} \
         (interactive, from due time), throughput_qps {:.2} (hunter), failed_ratio {:.4}, \
         mem_mb {:.1}; late sends {:.3}",
        window.interactive.len(),
        window.interactive.len(),
        window.hunter.len(),
        failed,
        median(&mut setup_s.clone()),
        q[0],
        q[1],
        window.hunter_throughput(),
        failed as f64 / attempted.max(1) as f64,
        mem_mb,
        late,
    ));
    if let Some(tracer) = tracer {
        let pick =
            |f: fn(&Interactive) -> f64| -> Vec<f64> { window.interactive.iter().map(f).collect() };
        let ping = percentiles(&mut pick(|s| s.ping_us), &[0.5, 0.99]);
        metrics.insert("server.ping_p50_us", ping[0]);
        metrics.insert("server.ping_p99_us", ping[1]);
        metrics.insert(
            "server.execute_rtt_p50_us",
            median(&mut pick(|s| s.execute_us)),
        );
        metrics.insert("server.fetch_rtt_p50_us", median(&mut pick(|s| s.fetch_us)));
        metrics.insert("server.quota_rejections", stats.quota_rejections as f64);
        metrics.insert("server.timeouts", stats.timeouts as f64);
        metrics.insert("server.protocol_errors", stats.protocol_errors as f64);
        metrics.insert("client.late_sends_ratio", late);
        metrics.insert(
            "client.failed_ratio",
            failed as f64 / attempted.max(1) as f64,
        );
        let mut engine_us: Vec<f64> = window.hunter.iter().map(|h| h.engine_us).collect();
        let ex = percentiles(&mut engine_us, &[0.5, 0.95]);
        metrics.insert("engine.execute_p50_us", ex[0]);
        metrics.insert("engine.execute_p95_us", ex[1]);
        let d = &window.registry;
        let executes = d.histogram("aiql_engine_execute_micros");
        let per = |name: &str| d.histogram(name).sum as f64 / executes.count.max(1) as f64;
        metrics.insert("engine.plan_us", per("aiql_engine_plan_micros"));
        metrics.insert("engine.scan_us", per("aiql_engine_scan_micros"));
        metrics.insert("engine.join_us", per("aiql_engine_join_micros"));
        metrics.insert("engine.score_us", per("aiql_engine_score_micros"));
        let phases: u64 = [
            "aiql_engine_plan_micros",
            "aiql_engine_scan_micros",
            "aiql_engine_join_micros",
            "aiql_engine_score_micros",
        ]
        .iter()
        .map(|n| d.histogram(n).sum)
        .sum();
        metrics.insert(
            "engine.unattributed_ratio",
            executes.sum.saturating_sub(phases) as f64 / executes.sum.max(1) as f64,
        );
        metrics.insert(
            "engine.pool_queue_wait_p50_us",
            d.histogram("aiql_engine_pool_queue_wait_micros")
                .quantile(0.5),
        );
        metrics.insert(
            "engine.pool_tasks_per_stmt",
            d.counter("aiql_engine_pool_tasks") as f64 / executes.count.max(1) as f64,
        );
        metrics.insert("storage.build_s", median(&mut build_s));
        crate::report_self_time(&tracer, &mut metrics);
        crate::write_trace(&tracer, args);
    } else {
        metrics.insert("setup_s", median(&mut setup_s));
        metrics.insert("mem_mb", mem_mb);
        metrics.insert("throughput_qps", window.hunter_throughput());
        metrics.insert("query_p50_ms", q[0]);
        metrics.insert("query_p95_ms", q[1]);
    }
    Report {
        attempted,
        failed,
        checks,
        metrics,
        notes,
    }
}

struct Oracles<'a> {
    sources: &'a [&'static str],
    catalog: &'a [Outcome],
    bindings: &'a [FamilyBinding],
    family: &'a [Vec<Row>],
}

/// One interactive statement.
struct Interactive {
    /// How late the send was.
    late: Duration,
    /// Due time to last row.
    latency_ms: f64,
    execute_us: f64,
    fetch_us: f64,
    ping_us: f64,
    ok: bool,
}

/// One hunter statement.
struct Hunter {
    latency: Duration,
    /// Server-side execute time as the server reports it.
    engine_us: f64,
    ok: bool,
}

struct Window {
    interactive: Vec<Interactive>,
    hunter: Vec<Hunter>,
    hunter_wall: Duration,
    /// Statements in one catalog pass.
    pass_len: usize,
    failed: u64,
    registry: RegistryDelta,
}

impl Window {
    /// Hunter statements per second over a median catalog pass, so a
    /// transient stall of the host moves one pass, not the figure.
    fn hunter_throughput(&self) -> f64 {
        let mut passes: Vec<f64> = self
            .hunter
            .chunks_exact(self.pass_len)
            .map(|pass| pass.iter().map(|h| h.latency.as_secs_f64()).sum())
            .collect();
        if passes.is_empty() {
            return self.hunter.len() as f64 / self.hunter_wall.as_secs_f64();
        }
        self.pass_len as f64 / median(&mut passes)
    }

    fn hunter_per_statement_s(&self) -> f64 {
        self.hunter
            .iter()
            .map(|h| h.latency.as_secs_f64())
            .sum::<f64>()
            / self.hunter.len().max(1) as f64
    }
}

/// A remote statement's rows and the server-reported execute time (µs).
type Remote = Result<(Vec<Row>, f64), String>;

/// One remote execute + fetch of every row, as spans of the `server`
/// layer with the server-reported engine time beneath the execute.
fn remote_query(
    c: &mut Client,
    session: u64,
    stmt: u64,
    params: &Params,
    tracer: Option<&Tracer>,
    op: u64,
) -> (Remote, Duration, Duration) {
    let (cur, exec) = timed(tracer, 0, op, "server", "Client::execute", |id| {
        let cur = c.execute(session, stmt, params, None);
        if let (Some(tr), Ok(cur)) = (tracer, &cur) {
            let end = Instant::now();
            let engine = Duration::from_micros(cur.elapsed_micros);
            tr.record(
                tr.id(),
                id,
                op,
                "engine",
                "server execute",
                end - engine,
                end,
            );
        }
        cur
    });
    let cur = match cur {
        Ok(cur) => cur,
        Err(e) => return (Err(e.to_string()), exec, Duration::ZERO),
    };
    let (rows, fetch) = timed(tracer, 0, op, "server", "Client::fetch_all", |_| {
        c.fetch_all(cur.cursor, 1024)
    });
    (
        rows.map(|r| (r, cur.elapsed_micros as f64))
            .map_err(|e| e.to_string()),
        exec,
        fetch,
    )
}

/// Arrivals at `INTERACTIVE_PER_S` over `seconds`, as offsets from the
/// start of the window: one per period, at a seeded random point inside
/// it. Analysts arrive independently of the server, and a fixed phase
/// would alias with the hunter's catalog pass.
fn arrivals(rng: &mut SplitMix64, seconds: f64) -> Vec<Duration> {
    let period = 1.0 / INTERACTIVE_PER_S;
    let slots = (seconds * INTERACTIVE_PER_S).floor() as u32;
    (0..slots)
        .map(|k| Duration::from_secs_f64((k as f64 + 1.0 - rng.unit()) * period))
        .collect()
}

fn measure(
    server: &ServerHandle,
    oracle: &Oracles<'_>,
    arrivals: &[Duration],
    tracer: Option<&Tracer>,
    checks: &mut Checks,
) -> Window {
    let addr = server.addr();
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(2);
    let registry = RegistryWindow::open();
    let (interactive, (hunter, hunter_wall, hunter_checks)) = std::thread::scope(|s| {
        let hunter = s.spawn(|| {
            let mut c = Client::connect(addr, "hunter").expect("hunter connects");
            let session = c.open_session().expect("hunter session");
            let stmts: Vec<u64> = oracle
                .sources
                .iter()
                .map(|src| c.prepare(session, src).expect("prepare").stmt)
                .collect();
            let mut checks = Checks::default();
            let mut out = Vec::new();
            barrier.wait();
            let t0 = Instant::now();
            let mut i = 0;
            while !stop.load(Ordering::Relaxed) {
                let k = i % stmts.len();
                let op = tracer.map_or(0, Tracer::id);
                let t = Instant::now();
                let (got, _, _) =
                    remote_query(&mut c, session, stmts[k], &Params::new(), tracer, op);
                let latency = t.elapsed();
                let (rows, engine_us) = match got {
                    Ok((rows, us)) => (Ok(rows), us),
                    Err(e) => (Err(e), 0.0),
                };
                let ok = rows.is_ok();
                let want = &oracle.catalog[k];
                let same = match (&rows, want) {
                    (Ok(g), Ok(w)) => g == w,
                    (Err(_), Err(_)) => true,
                    _ => false,
                };
                checks.check(same, || {
                    format!("hunter statement {k} differs from the in-process session")
                });
                out.push(Hunter {
                    latency,
                    engine_us,
                    ok,
                });
                i += 1;
            }
            let wall = t0.elapsed();
            let _ = c.close_session(session);
            (out, wall, checks)
        });

        let mut c = Client::connect(addr, "interactive").expect("interactive connects");
        let session = c.open_session().expect("interactive session");
        let stmt = c.prepare(session, QUERY7_TEMPLATE).expect("prepare").stmt;
        let params: Vec<Params> = oracle
            .bindings
            .iter()
            .map(FamilyBinding::to_params)
            .collect();
        let mut out = Vec::new();
        barrier.wait();
        let start = Instant::now();
        for (k, offset) in arrivals.iter().enumerate() {
            let due = start + *offset;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let late = Instant::now().saturating_duration_since(due);
            let at = k % params.len();
            let op = tracer.map_or(0, Tracer::id);
            let (got, execute, fetch) =
                remote_query(&mut c, session, stmt, &params[at], tracer, op);
            let done = Instant::now();
            let (ping, ping_t) = timed(tracer, 0, op, "server", "Client::ping", |_| c.ping());
            let rows = got.map(|(rows, _)| rows);
            let ok = rows.is_ok() && ping.is_ok();
            checks.check(rows.as_ref() == Ok(&oracle.family[at]), || {
                format!("interactive statement on family member {at} differs from the in-process session")
            });
            out.push(Interactive {
                late,
                latency_ms: done.duration_since(due).as_secs_f64() * 1e3,
                execute_us: execute.as_secs_f64() * 1e6,
                fetch_us: fetch.as_secs_f64() * 1e6,
                ping_us: ping_t.as_secs_f64() * 1e6,
                ok,
            });
        }
        stop.store(true, Ordering::Relaxed);
        let _ = c.close_session(session);
        (out, hunter.join().expect("hunter thread"))
    });
    let registry = registry.close();
    for f in hunter_checks.failures {
        checks.check(false, || f);
    }
    checks.passed += hunter_checks.passed;
    // Statements the server refused or failed; wrong rows are output-check
    // failures instead.
    let failed = (hunter.iter().filter(|h| !h.ok).count()
        + interactive.iter().filter(|s| !s.ok).count()) as u64;
    Window {
        interactive,
        hunter,
        hunter_wall,
        pass_len: oracle.sources.len(),
        failed,
        registry,
    }
}

/// The interactive round trip (execute + fetch) minus the in-process time
/// of the same family, both as medians over the family, with no other
/// load on the server.
fn wire_overhead_us(server: &ServerHandle, session: &Session, bindings: &[FamilyBinding]) -> f64 {
    let mut c = Client::connect(server.addr(), "probe").expect("probe connects");
    let remote_session = c.open_session().expect("probe session");
    let stmt = c
        .prepare(remote_session, QUERY7_TEMPLATE)
        .expect("prepare")
        .stmt;
    let local = session.prepare(QUERY7_TEMPLATE).expect("template compiles");
    let mut remote_us = Vec::new();
    let mut local_us = Vec::new();
    for _ in 0..2 {
        for b in bindings {
            let t = Instant::now();
            let _ = c.query(remote_session, stmt, &b.to_params());
            remote_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let mut cur = local
                .bind(b.to_params())
                .expect("binds")
                .execute()
                .expect("runs");
            drain(&mut cur);
            local_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let _ = c.close_session(remote_session);
    median(&mut remote_us) - median(&mut local_us)
}

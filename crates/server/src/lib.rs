//! aiql-server: a multi-tenant query service over the session API.
//!
//! The server fronts a [`SharedStore`] with the length-prefixed,
//! CRC-checked binary protocol of [`proto`]: clients greet with their
//! tenant name, open investigation sessions, prepare parameterized AIQL
//! statements, execute bindings, and pull result pages through cursors —
//! the same lifecycle [`aiql_engine::Session`] offers in-process, made
//! remote.
//!
//! # Concurrency model
//!
//! Std-only (the build is offline; no tokio/mio): an acceptor thread
//! blocks in `accept` and serves each connection on its own thread with
//! blocking I/O. A statement runs on its connection's thread, so it
//! stalls nobody else's pings, fetches or prepares; only the engine run
//! holds one of `ServerConfig::workers` statement permits, the bound on
//! statements executing at once. See docs/ARCHITECTURE.md (“Serving
//! layer”) for why this beats a nonblocking multiplexer here.
//!
//! # Tenancy and robustness
//!
//! Per-tenant session quotas and concurrent-statement caps reject with
//! typed `QuotaExceeded` frames (never queue, never hang); statement
//! timeouts cancel cooperatively inside the engine and again at every
//! cursor-page boundary; slow consumers get back-pressure (a bounded
//! per-connection outbox — when full, the server flushes it with
//! blocking writes before it reads that socket again); idle sessions are
//! reaped; shutdown drains in-flight requests before the connection
//! threads exit. Everything is observable through
//! `aiql_telemetry` (`aiql_server_*`, see docs/METRICS.md) and, for
//! deterministic tests, through the per-handle [`ServerStats`].
//!
//! # Examples
//!
//! ```
//! use aiql_server::{Server, ServerConfig};
//! use aiql_storage::{EventStore, SharedStore, StoreConfig};
//!
//! let store = SharedStore::new(EventStore::empty(StoreConfig::partitioned()).unwrap());
//! let handle = Server::spawn(&store, ServerConfig::default()).unwrap();
//! let addr = handle.addr(); // connect aiql-client here
//! assert_eq!(handle.stats().active_sessions, 0);
//! handle.shutdown();
//! # let _ = addr;
//! ```

mod conn;
pub(crate) mod metrics;
pub mod proto;
mod tenant;

use metrics::metrics;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use aiql_storage::SharedStore;

/// How a [`Server`] behaves: statement concurrency, quotas, budgets,
/// limits.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Statements executing at once across the server; other requests
    /// never wait for one. `0` = auto: `min(4, available_parallelism)`.
    pub workers: usize,
    /// Open sessions one tenant may hold across all its connections.
    pub max_sessions_per_tenant: usize,
    /// Statements one tenant may have executing at once.
    pub max_concurrent_statements: usize,
    /// Server-side wall-clock cap per statement (execute through last
    /// fetch). Zero = no server cap; clients can only tighten it.
    pub statement_timeout: Duration,
    /// Sessions untouched this long are reaped (zero disables reaping).
    pub idle_session_timeout: Duration,
    /// Outbox bytes per connection before the server flushes it, reading
    /// no new requests meanwhile (back-pressure on slow consumers).
    pub outbox_limit: usize,
    /// Upper bound on rows per `FetchPage` regardless of the request.
    pub page_rows_max: u32,
    /// On shutdown, how long connections may spend draining buffered
    /// requests and flushing outboxes before closing forcibly.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 0,
            max_sessions_per_tenant: 64,
            max_concurrent_statements: 8,
            statement_timeout: Duration::from_secs(30),
            idle_session_timeout: Duration::from_secs(300),
            outbox_limit: 1 << 20,
            page_rows_max: 4096,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// Per-server counters mirrored out of the hot path for deterministic
/// assertions (the global telemetry registry aggregates across servers
/// and test runs; these are this instance's alone).
#[derive(Default)]
pub(crate) struct Counts {
    pub active_connections: AtomicI64,
    pub active_sessions: AtomicI64,
    pub active_cursors: AtomicI64,
    pub sessions_opened: AtomicU64,
    pub executes: AtomicU64,
    pub quota_rejections: AtomicU64,
    pub timeouts: AtomicU64,
    pub protocol_errors: AtomicU64,
    pub backpressure_stalls: AtomicU64,
}

/// A point-in-time snapshot of one server's counters, from
/// [`ServerHandle::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    pub active_connections: i64,
    pub active_sessions: i64,
    pub active_cursors: i64,
    pub sessions_opened: u64,
    pub executes: u64,
    pub quota_rejections: u64,
    pub timeouts: u64,
    pub protocol_errors: u64,
    pub backpressure_stalls: u64,
}

/// State shared by the acceptor, the connection threads, and the handle.
pub(crate) struct Shared {
    pub store: SharedStore,
    pub config: ServerConfig,
    /// Set once by shutdown to when the drain must be over: stop
    /// accepting, serve what was received, exit.
    pub drain_by: OnceLock<Instant>,
    pub tenants: tenant::TenantGate,
    /// Session / statement / cursor id source (ids are server-unique).
    pub next_id: AtomicU64,
    pub counts: Counts,
    /// Free statement permits, `ServerConfig::workers` in all.
    free_permits: Mutex<usize>,
    permit_freed: Condvar,
}

/// A statement permit from [`Shared::statement_permit`]; dropping it
/// frees the slot.
pub(crate) struct Permit<'a>(&'a Shared);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        if let Ok(mut free) = self.0.free_permits.lock() {
            *free += 1;
        }
        self.0.permit_freed.notify_one();
    }
}

impl Shared {
    fn new(store: &SharedStore, config: ServerConfig) -> Shared {
        let permits = match config.workers {
            0 => thread::available_parallelism().map_or(1, |p| p.get().min(4)),
            n => n,
        };
        Shared {
            store: store.clone(),
            config,
            drain_by: OnceLock::new(),
            tenants: tenant::TenantGate::new(),
            next_id: AtomicU64::new(1),
            counts: Counts::default(),
            free_permits: Mutex::new(permits),
            permit_freed: Condvar::new(),
        }
    }

    /// Shutdown has begun.
    pub fn draining(&self) -> bool {
        self.drain_by.get().is_some()
    }

    /// Blocks until fewer than `ServerConfig::workers` statements are
    /// executing, then holds a slot until the permit drops.
    pub fn statement_permit(&self) -> Permit<'_> {
        let free = self.free_permits.lock().expect("permits poisoned");
        *self
            .permit_freed
            .wait_while(free, |free| *free == 0)
            .expect("permits poisoned") -= 1;
        Permit(self)
    }

    // Each server event is recorded here once, into both the global
    // registry and this instance's `Counts`.

    pub fn connection_opened(&self) {
        metrics().connections_opened.inc();
        metrics().active_connections.add(1);
        self.counts
            .active_connections
            .fetch_add(1, Ordering::Relaxed);
    }

    pub fn connection_closed(&self) {
        metrics().connections_closed.inc();
        metrics().active_connections.add(-1);
        self.counts
            .active_connections
            .fetch_sub(1, Ordering::Relaxed);
    }

    pub fn session_opened(&self) {
        metrics().sessions_opened.inc();
        metrics().active_sessions.add(1);
        self.counts.sessions_opened.fetch_add(1, Ordering::Relaxed);
        self.counts.active_sessions.fetch_add(1, Ordering::Relaxed);
    }

    pub fn session_closed(&self) {
        metrics().active_sessions.add(-1);
        self.counts.active_sessions.fetch_sub(1, Ordering::Relaxed);
    }

    pub fn cursor_opened(&self) {
        metrics().active_cursors.add(1);
        self.counts.active_cursors.fetch_add(1, Ordering::Relaxed);
    }

    pub fn cursor_closed(&self) {
        metrics().active_cursors.add(-1);
        self.counts.active_cursors.fetch_sub(1, Ordering::Relaxed);
    }

    pub fn executed(&self, tenant: &str, micros: u64) {
        metrics().executes.inc();
        metrics().execute_micros.record(micros);
        metrics::tenant_executes(tenant).inc();
        self.counts.executes.fetch_add(1, Ordering::Relaxed);
    }

    pub fn quota_rejected(&self) {
        metrics().quota_rejections.inc();
        self.counts.quota_rejections.fetch_add(1, Ordering::Relaxed);
    }

    pub fn timed_out(&self) {
        metrics().timeouts.inc();
        self.counts.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    pub fn protocol_error(&self) {
        metrics().protocol_errors.inc();
        self.counts.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub fn backpressure_stall(&self) {
        metrics().backpressure_stalls.inc();
        self.counts
            .backpressure_stalls
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// The server: spawn with [`Server::spawn`], control through the
/// returned [`ServerHandle`].
pub struct Server;

impl Server {
    /// Binds `127.0.0.1:0` (an ephemeral loopback port) and starts the
    /// acceptor thread. See [`Server::bind`] to choose the address.
    pub fn spawn(store: &SharedStore, config: ServerConfig) -> io::Result<ServerHandle> {
        Server::bind(store, config, "127.0.0.1:0")
    }

    /// Binds `addr` and starts the service.
    pub fn bind(
        store: &SharedStore,
        config: ServerConfig,
        addr: impl ToSocketAddrs,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared::new(store, config));
        let acceptor = {
            let shared = shared.clone();
            thread::Builder::new()
                .name("aiql-serve-accept".to_string())
                .spawn(move || accept_loop(&shared, &listener))?
        };
        Ok(ServerHandle {
            addr: local,
            shared,
            acceptor: Mutex::new(Some(acceptor)),
        })
    }
}

/// Accepts connections until shutdown, serving each on its own thread.
/// Returns the handles of the connection threads still running, for
/// shutdown to join.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) -> Vec<JoinHandle<()>> {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    for (n, stream) in listener.incoming().enumerate() {
        // Shutdown's wake-up connection, or a late arrival: closed
        // unserved.
        if shared.draining() {
            break;
        }
        let Ok(stream) = stream else {
            // Out of descriptors, most likely: wait a tick for
            // connections to close instead of spinning on the error.
            thread::park_timeout(conn::TICK);
            continue;
        };
        conns.retain(|c| !c.is_finished());
        let shared = shared.clone();
        let spawned = thread::Builder::new()
            .name(format!("aiql-serve-c{n}"))
            .spawn(move || {
                if let Ok(conn) = conn::Conn::new(stream, &shared) {
                    conn.run(&shared);
                }
            });
        // A failed spawn drops the stream, closing the connection.
        conns.extend(spawned.ok());
    }
    conns
}

/// Owner handle for a running server: address, live stats, shutdown.
///
/// Dropping the handle shuts the server down (and joins its threads), so
/// tests and benches can't leak listeners.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// The acceptor until shutdown joins it; it hands back the
    /// connection threads.
    acceptor: Mutex<Option<JoinHandle<Vec<JoinHandle<()>>>>>,
}

impl ServerHandle {
    /// The bound address (useful with the ephemeral port of
    /// [`Server::spawn`]).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This instance's live counters.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.counts;
        ServerStats {
            active_connections: c.active_connections.load(Ordering::Relaxed),
            active_sessions: c.active_sessions.load(Ordering::Relaxed),
            active_cursors: c.active_cursors.load(Ordering::Relaxed),
            sessions_opened: c.sessions_opened.load(Ordering::Relaxed),
            executes: c.executes.load(Ordering::Relaxed),
            quota_rejections: c.quota_rejections.load(Ordering::Relaxed),
            timeouts: c.timeouts.load(Ordering::Relaxed),
            protocol_errors: c.protocol_errors.load(Ordering::Relaxed),
            backpressure_stalls: c.backpressure_stalls.load(Ordering::Relaxed),
        }
    }

    /// Graceful shutdown: stop accepting, serve every request already
    /// received, flush outboxes, then join all threads. Idempotent.
    pub fn shutdown(&self) {
        let mut acceptor = self.acceptor.lock().expect("server threads poisoned");
        let Some(accept) = acceptor.take() else {
            return;
        };
        let _ = self
            .shared
            .drain_by
            .set(Instant::now() + self.shared.config.drain_timeout);
        // Wake the blocking accept with one connection it will drop.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(if wake.is_ipv4() {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            });
        }
        let _ = TcpStream::connect(wake);
        for conn in accept.join().unwrap_or_default() {
            let _ = conn.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

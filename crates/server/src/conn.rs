//! One connection, served on its own thread: frame reassembly, request
//! dispatch, bounded outbox, and resource cleanup.
//!
//! [`Conn::run`] loops over blocking socket calls: read, serve every
//! complete frame, flush. A full outbox is flushed before anything more
//! is served or read, so TCP flow control pushes back on a client that
//! does not read. Sessions, prepared statements, and cursors all live on
//! the connection, so a dead socket can never leak them:
//! [`Conn::cleanup`] returns every quota slot and gauge increment the
//! connection ever took.

use crate::metrics::metrics;
use crate::proto::{
    page_row_len, ErrorCode, FrameBuffer, Request, Response, FRAME_HEADER, MAX_FRAME, PAGE_HEADER,
    PROTO_VERSION,
};
use crate::Shared;
use aiql_engine::{Cursor, EngineError, Params, Session};
use std::collections::HashMap;
use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Socket read and write timeout: the only time a connection thread wakes
/// without I/O, to reap idle sessions and notice drain.
pub(crate) const TICK: Duration = Duration::from_millis(100);

/// Read timeout of a drain's final read. The socket stays blocking, so
/// "bytes the client already sent" means bytes readable within this.
const DRAIN_READ: Duration = Duration::from_millis(1);

/// One open session on this connection.
struct ServerSession {
    engine: Session,
    tenant: String,
    stmts: HashMap<u64, aiql_engine::Prepared>,
    /// Cursor ids owned by this session, for cascade close.
    cursor_ids: Vec<u64>,
    last_used: Instant,
}

/// One open cursor on this connection.
struct ServerCursor {
    session: u64,
    cursor: Cursor,
    /// Wall-clock budget for the whole statement, enforced again at every
    /// page boundary: a slow consumer cannot hold rows hostage forever.
    deadline: Option<Instant>,
}

pub(crate) struct Conn {
    stream: TcpStream,
    fb: FrameBuffer,
    /// Encoded responses not yet written; flushed whenever it reaches
    /// `ServerConfig::outbox_limit` bytes (back-pressure).
    out: Vec<u8>,
    /// Tenant name once `Hello` succeeded.
    tenant: Option<String>,
    sessions: HashMap<u64, ServerSession>,
    cursors: HashMap<u64, ServerCursor>,
    /// Flush what's queued, then close (protocol violation or peer EOF).
    closing: bool,
}

impl Conn {
    pub fn new(stream: TcpStream, shared: &Shared) -> io::Result<Conn> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(TICK))?;
        stream.set_write_timeout(Some(TICK))?;
        shared.connection_opened();
        Ok(Conn {
            stream,
            fb: FrameBuffer::new(),
            out: Vec::new(),
            tenant: None,
            sessions: HashMap::new(),
            cursors: HashMap::new(),
            closing: false,
        })
    }

    /// Serves the connection until the peer hangs up, a protocol
    /// violation or socket error ends it, or the server drains; then
    /// returns everything it held.
    pub fn run(mut self, shared: &Shared) {
        let mut buf = vec![0u8; 64 * 1024];
        while self.serve_buffered(shared).is_ok() && !self.closing {
            if shared.draining() {
                let _ = self.drain(shared, &mut buf);
                break;
            }
            if self.read_some(&mut buf).is_err() || self.tick(shared).is_err() {
                break;
            }
        }
        self.cleanup(shared);
    }

    /// One blocking read into the frame buffer; EOF marks the connection
    /// closing, a timeout just returns.
    fn read_some(&mut self, buf: &mut [u8]) -> io::Result<()> {
        match self.stream.read(buf) {
            Ok(0) => self.closing = true,
            Ok(n) => {
                metrics().bytes_in.add(n as u64);
                self.fb.extend(&buf[..n]);
            }
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => {}
            Err(e) => return Err(e),
        }
        Ok(())
    }

    /// Serves every complete buffered frame, then flushes. A full outbox
    /// is flushed before the next frame is served.
    fn serve_buffered(&mut self, shared: &Shared) -> io::Result<()> {
        while !self.closing {
            let req = match self.fb.next_frame() {
                Ok(Some(payload)) => Request::decode(&payload).map_err(|e| e.to_string()),
                Ok(None) => break,
                Err(e) => Err(e.to_string()),
            };
            match req {
                Ok(req) => self.handle_request(shared, req),
                Err(message) => {
                    // Corrupt framing or an unintelligible payload: the
                    // stream can no longer be trusted, so answer and hang up.
                    self.protocol_violation(shared, message);
                    self.closing = true;
                }
            }
            if self.out.len() >= shared.config.outbox_limit {
                self.flush(shared)?;
            }
        }
        self.flush(shared)
    }

    /// Writes the whole outbox. Each write that times out (the client is
    /// not reading) runs a tick; the first one also counts a
    /// back-pressure stall.
    fn flush(&mut self, shared: &Shared) -> io::Result<()> {
        let mut written = 0;
        let mut stalled = false;
        while written < self.out.len() {
            let pending = &self.out[written..];
            match aiql_fault::point("server.conn.write").and_then(|_| self.stream.write(pending)) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => written += n,
                Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => {
                    if !std::mem::replace(&mut stalled, true) {
                        shared.backpressure_stall();
                    }
                    self.tick(shared)?;
                }
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        Ok(())
    }

    /// Housekeeping between blocking calls, at least once per [`TICK`]:
    /// reaps idle sessions, and fails once the drain deadline has passed.
    fn tick(&mut self, shared: &Shared) -> io::Result<()> {
        let now = Instant::now();
        self.reap_idle(shared, now);
        if shared.drain_by.get().is_some_and(|by| now > *by) {
            return Err(TimedOut.into());
        }
        Ok(())
    }

    /// Drain: one final read picks up requests the client sent before
    /// shutdown; they are served (`OpenSession` answers `ShuttingDown`)
    /// and flushed. Anything later, or a frame left incomplete, is not.
    fn drain(&mut self, shared: &Shared, buf: &mut [u8]) -> io::Result<()> {
        self.stream.set_read_timeout(Some(DRAIN_READ))?;
        self.read_some(buf)?;
        self.serve_buffered(shared)
    }

    /// Queues one response; one the client would reject (it fails to
    /// encode or outgrows [`MAX_FRAME`]) is answered `Internal` instead.
    fn queue(&mut self, resp: &Response) {
        let frame = match resp.to_frame() {
            Ok(frame) if frame.len() - FRAME_HEADER <= MAX_FRAME as usize => frame,
            _ => Response::Error {
                code: ErrorCode::Internal,
                message: format!("response does not fit one {MAX_FRAME}-byte frame"),
            }
            .to_frame()
            .unwrap_or_default(),
        };
        metrics().bytes_out.add(frame.len() as u64);
        self.out.extend_from_slice(&frame);
    }

    fn queue_error(&mut self, code: ErrorCode, message: impl Into<String>) {
        self.queue(&Response::Error {
            code,
            message: message.into(),
        });
    }

    fn protocol_violation(&mut self, shared: &Shared, message: String) {
        shared.protocol_error();
        self.queue_error(ErrorCode::Protocol, message);
    }

    fn handle_request(&mut self, shared: &Shared, req: Request) {
        // Everything but the handshake itself requires a completed Hello.
        if self.tenant.is_none() && !matches!(req, Request::Hello { .. }) {
            self.protocol_violation(
                shared,
                "Hello required before any other request".to_string(),
            );
            return;
        }
        match req {
            Request::Hello { version, tenant } => {
                if version != PROTO_VERSION {
                    self.protocol_violation(
                        shared,
                        format!(
                            "protocol version {version} unsupported (server speaks {PROTO_VERSION})"
                        ),
                    );
                    self.closing = true;
                } else if tenant.is_empty() {
                    self.protocol_violation(shared, "tenant name must be non-empty".to_string());
                } else if self.tenant.is_some() {
                    self.protocol_violation(shared, "already greeted".to_string());
                } else {
                    self.tenant = Some(tenant);
                    self.queue(&Response::HelloOk {
                        version: PROTO_VERSION,
                        server: format!("aiql-server/{}", env!("CARGO_PKG_VERSION")),
                    });
                }
            }
            Request::OpenSession => self.open_session(shared),
            Request::Prepare { session, source } => self.prepare(shared, session, &source),
            Request::Execute {
                session,
                stmt,
                params,
                timeout_ms,
            } => self.execute(shared, session, stmt, params, timeout_ms),
            Request::FetchPage { cursor, max_rows } => self.fetch_page(shared, cursor, max_rows),
            Request::CloseCursor { cursor } => {
                if self.close_cursor(shared, cursor) {
                    self.queue(&Response::CursorClosed { cursor });
                } else {
                    self.queue_error(ErrorCode::NotFound, format!("no cursor {cursor}"));
                }
            }
            Request::CloseSession { session } => {
                if self.sessions.contains_key(&session) {
                    self.close_session(shared, session);
                    self.queue(&Response::SessionClosed { session });
                } else {
                    self.queue_error(ErrorCode::NotFound, format!("no session {session}"));
                }
            }
            Request::Ping { token } => self.queue(&Response::Pong { token }),
        }
    }

    fn open_session(&mut self, shared: &Shared) {
        let tenant = self.tenant.clone().expect("greeted");
        if shared.draining() {
            self.queue_error(ErrorCode::ShuttingDown, "server is draining");
            return;
        }
        if !shared
            .tenants
            .try_open_session(&tenant, shared.config.max_sessions_per_tenant)
        {
            shared.quota_rejected();
            self.queue_error(
                ErrorCode::QuotaExceeded,
                format!(
                    "tenant {tenant:?} at its session quota ({})",
                    shared.config.max_sessions_per_tenant
                ),
            );
            return;
        }
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        self.sessions.insert(
            id,
            ServerSession {
                engine: Session::open(&shared.store),
                tenant,
                stmts: HashMap::new(),
                cursor_ids: Vec::new(),
                last_used: Instant::now(),
            },
        );
        shared.session_opened();
        self.queue(&Response::SessionOpened { session: id });
    }

    fn prepare(&mut self, shared: &Shared, session: u64, source: &str) {
        let Some(sess) = self.sessions.get_mut(&session) else {
            self.queue_error(ErrorCode::NotFound, format!("no session {session}"));
            return;
        };
        sess.last_used = Instant::now();
        match sess.engine.prepare(source) {
            Ok(prepared) => {
                let params = prepared.params().iter().map(|p| p.name.clone()).collect();
                let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
                sess.stmts.insert(id, prepared);
                metrics().prepares.inc();
                self.queue(&Response::Prepared { stmt: id, params });
            }
            Err(e) => self.queue_error(ErrorCode::Compile, e.to_string()),
        }
    }

    fn execute(
        &mut self,
        shared: &Shared,
        session: u64,
        stmt: u64,
        params: Vec<(String, aiql_core::ast::Lit)>,
        timeout_ms: u64,
    ) {
        let (prepared, engine, tenant) = {
            let Some(sess) = self.sessions.get_mut(&session) else {
                self.queue_error(ErrorCode::NotFound, format!("no session {session}"));
                return;
            };
            sess.last_used = Instant::now();
            let Some(prepared) = sess.stmts.get(&stmt) else {
                self.queue_error(ErrorCode::NotFound, format!("no statement {stmt}"));
                return;
            };
            // Prepared and Session are Arc-backed: clones share the plan.
            (prepared.clone(), sess.engine.clone(), sess.tenant.clone())
        };
        if !shared
            .tenants
            .try_begin_statement(&tenant, shared.config.max_concurrent_statements)
        {
            shared.quota_rejected();
            self.queue_error(
                ErrorCode::QuotaExceeded,
                format!(
                    "tenant {tenant:?} at its concurrent-statement cap ({})",
                    shared.config.max_concurrent_statements
                ),
            );
            return;
        }

        // Effective budget: the server cap, tightened by the client's own
        // request if any (a client can never widen the server's cap; a
        // zero cap means the server imposes none).
        let budget = [
            shared.config.statement_timeout,
            Duration::from_millis(timeout_ms),
        ]
        .into_iter()
        .filter(|d| !d.is_zero())
        .min();
        engine.set_statement_timeout(budget);

        // Only the engine run holds a statement permit: waiting for one
        // blocks this connection alone.
        let permit = shared.statement_permit();
        let started = Instant::now();
        let ran = prepared
            .bind(params_from_wire(params))
            .and_then(|b| b.execute());
        drop(permit);
        shared.tenants.end_statement(&tenant);

        match ran {
            Ok(cursor) => {
                let elapsed_micros = cursor.elapsed().as_micros() as u64;
                shared.executed(&tenant, started.elapsed().as_micros() as u64);
                let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
                let columns = cursor.columns().to_vec();
                let rows_total = cursor.remaining() as u64;
                self.cursors.insert(
                    id,
                    ServerCursor {
                        session,
                        cursor,
                        deadline: budget.map(|b| started + b),
                    },
                );
                self.sessions
                    .get_mut(&session)
                    .expect("session checked above")
                    .cursor_ids
                    .push(id);
                shared.cursor_opened();
                self.queue(&Response::Executed {
                    cursor: id,
                    columns,
                    rows_total,
                    elapsed_micros,
                });
            }
            Err(EngineError::Timeout) => {
                shared.timed_out();
                self.queue_error(
                    ErrorCode::Timeout,
                    "statement exceeded its wall-clock budget",
                );
            }
            Err(e @ EngineError::Compile(_)) => self.queue_error(ErrorCode::Compile, e.to_string()),
            Err(e) => self.queue_error(ErrorCode::Internal, e.to_string()),
        }
    }

    fn fetch_page(&mut self, shared: &Shared, cursor: u64, max_rows: u32) {
        let Some(sc) = self.cursors.get_mut(&cursor) else {
            self.queue_error(ErrorCode::NotFound, format!("no cursor {cursor}"));
            return;
        };
        let session = sc.session;
        // Page-boundary cancellation: the statement's budget covers its
        // whole cursor lifetime, checked cooperatively per page.
        if sc.deadline.is_some_and(|d| Instant::now() > d) {
            shared.timed_out();
            self.close_cursor(shared, cursor);
            self.queue_error(ErrorCode::Timeout, "cursor exceeded its statement budget");
            return;
        }
        let started = Instant::now();
        let n = max_rows.clamp(1, shared.config.page_rows_max) as usize;
        // A page must fit one frame: stop before the row that would
        // overflow it, leaving that row for the next fetch.
        let mut bytes = PAGE_HEADER;
        let rows = sc.cursor.fetch_while(n, |row| {
            bytes += page_row_len(row);
            bytes <= MAX_FRAME as usize
        });
        let done = sc.cursor.remaining() == 0;
        if rows.is_empty() && !done {
            self.close_cursor(shared, cursor);
            self.queue_error(
                ErrorCode::Internal,
                format!("cursor {cursor}: a row does not fit one {MAX_FRAME}-byte frame"),
            );
            return;
        }
        metrics().fetches.inc();
        metrics()
            .fetch_micros
            .record(started.elapsed().as_micros() as u64);
        if let Some(sess) = self.sessions.get_mut(&session) {
            sess.last_used = Instant::now();
        }
        if done {
            self.close_cursor(shared, cursor);
        }
        self.queue(&Response::Page { cursor, rows, done });
    }

    /// Closes one cursor, returning whether it existed.
    fn close_cursor(&mut self, shared: &Shared, id: u64) -> bool {
        let Some(sc) = self.cursors.remove(&id) else {
            return false;
        };
        if let Some(sess) = self.sessions.get_mut(&sc.session) {
            sess.cursor_ids.retain(|c| *c != id);
        }
        shared.cursor_closed();
        true
    }

    /// Closes a session and everything it owns (statements, cursors,
    /// quota slot). The caller has verified it exists.
    fn close_session(&mut self, shared: &Shared, id: u64) {
        let sess = self.sessions.remove(&id).expect("caller checked");
        for c in sess.cursor_ids {
            if self.cursors.remove(&c).is_some() {
                shared.cursor_closed();
            }
        }
        shared.tenants.close_session(&sess.tenant);
        shared.session_closed();
    }

    /// Reaps sessions idle past the configured horizon.
    fn reap_idle(&mut self, shared: &Shared, now: Instant) {
        let horizon = shared.config.idle_session_timeout;
        if horizon.is_zero() {
            return;
        }
        let idle: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, s)| now.duration_since(s.last_used) > horizon)
            .map(|(id, _)| *id)
            .collect();
        for id in idle {
            self.close_session(shared, id);
            metrics().idle_reaped.inc();
        }
    }

    /// Returns every resource the connection holds: called exactly once,
    /// when the connection ends for any reason (EOF, error, protocol
    /// violation, drain, fault injection).
    fn cleanup(&mut self, shared: &Shared) {
        let ids: Vec<u64> = self.sessions.keys().copied().collect();
        for id in ids {
            self.close_session(shared, id);
        }
        debug_assert!(self.cursors.is_empty(), "every cursor has a session");
        shared.connection_closed();
    }
}

/// Rebuilds engine [`Params`] from the wire pairs.
fn params_from_wire(pairs: Vec<(String, aiql_core::ast::Lit)>) -> Params {
    let mut p = Params::new();
    for (name, lit) in pairs {
        p = p.set(&name, lit);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServerConfig, Shared};
    use aiql_storage::{EventStore, SharedStore, StoreConfig};
    use std::net::TcpListener;

    /// A connection pair with the server side wrapped in a [`Conn`],
    /// driven step by step by the test itself — interleavings (like
    /// "request arrives, then drain begins") become deterministic.
    fn harness() -> (Shared, Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.set_nodelay(true).unwrap();
        let (served, _) = listener.accept().unwrap();
        let store = SharedStore::new(EventStore::empty(StoreConfig::partitioned()).unwrap());
        let shared = Shared::new(&store, ServerConfig::default());
        let conn = Conn::new(served, &shared).unwrap();
        (shared, conn, client)
    }

    fn response(client: &mut TcpStream) -> Response {
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut fb = FrameBuffer::new();
        let mut buf = [0u8; 4096];
        loop {
            if let Some(p) = fb.next_frame().unwrap() {
                return Response::decode(&p).unwrap();
            }
            let n = client.read(&mut buf).unwrap();
            assert!(n > 0, "connection closed while awaiting a response");
            fb.extend(&buf[..n]);
        }
    }

    #[test]
    fn draining_refuses_new_sessions_with_a_typed_frame() {
        let (shared, mut conn, mut client) = harness();
        let mut buf = vec![0u8; 4096];
        client
            .write_all(
                &Request::Hello {
                    version: PROTO_VERSION,
                    tenant: "late".to_string(),
                }
                .to_frame()
                .unwrap(),
            )
            .unwrap();
        conn.read_some(&mut buf).unwrap();
        conn.serve_buffered(&shared).unwrap();
        assert!(matches!(response(&mut client), Response::HelloOk { .. }));

        // The OpenSession is fully delivered (loopback) before drain
        // begins; the drain's final read picks it up, and it must be
        // answered ShuttingDown, not dropped.
        client
            .write_all(&Request::OpenSession.to_frame().unwrap())
            .unwrap();
        shared
            .drain_by
            .set(Instant::now() + Duration::from_secs(5))
            .unwrap();
        conn.drain(&shared, &mut buf).unwrap();
        assert!(matches!(
            response(&mut client),
            Response::Error {
                code: ErrorCode::ShuttingDown,
                ..
            }
        ));
        conn.cleanup(&shared);
        assert_eq!(shared.counts.active_sessions.load(Ordering::Relaxed), 0);
        assert_eq!(shared.counts.active_connections.load(Ordering::Relaxed), 0);
    }
}

//! The AIQL wire protocol: length-prefixed, CRC-checked binary frames.
//!
//! Every message travels as one frame:
//!
//! ```text
//! [u32 payload length][u32 CRC-32 of payload][payload]
//! ```
//!
//! with the payload being one opcode byte followed by the message body in
//! the little-endian conventions of [`aiql_model::codec`] (fixed-width
//! integers, `u32`-length-prefixed UTF-8 strings, one tag byte per
//! variant). The CRC is the same IEEE-802.3 polynomial the write-ahead
//! log frames with ([`aiql_wal::crc32`]), so a flipped bit anywhere in
//! transit is detected before the payload is interpreted.
//!
//! The request/response vocabulary is the session lifecycle made remote:
//! `Hello{tenant}` → `OpenSession` → `Prepare{src}` → `Execute{params}`
//! (bind + execute in one round trip) → `FetchPage{cursor, max_rows}`* →
//! `CloseCursor` / `CloseSession`, plus `Ping` for liveness. Every
//! request receives exactly one response; failures arrive as a typed
//! [`Response::Error`] frame carrying an [`ErrorCode`], never as a
//! dropped connection (the server only hangs up on protocol-level
//! corruption, where the stream itself can no longer be trusted).
//!
//! Malformed input — truncated frames, oversized length prefixes, CRC
//! mismatches, unknown opcodes, out-of-range tags — decodes to an error
//! ([`FrameError`] at the framing layer, `io::ErrorKind::InvalidData`
//! inside a payload); corruption is never a panic.

use aiql_core::ast::Lit;
use aiql_model::codec::{
    read_str, read_u32, read_u64, read_u8, read_value, write_str, write_u32, write_u64, write_u8,
    write_value,
};
use aiql_model::Value;
use aiql_wal::crc32;
use std::io::{self, Read};

/// Protocol version exchanged in `Hello`/`HelloOk`. Bumped on any frame
/// layout change.
pub const PROTO_VERSION: u32 = 1;

/// Hard cap on one frame's payload. A length prefix above this is
/// protocol corruption (or a hostile peer) and closes the connection
/// before any allocation happens.
pub const MAX_FRAME: u32 = 8 << 20;

/// Bytes of framing per message: length + CRC.
pub const FRAME_HEADER: usize = 8;

/// One result row on the wire.
pub type WireRow = Vec<Value>;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// What the framing layer found wrong with an incoming byte stream.
/// All variants are unrecoverable for the connection: after any of them
/// the stream position can no longer be trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized(u32),
    /// The payload CRC did not match.
    BadCrc,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::BadCrc => write!(f, "frame CRC mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Wraps a payload into a complete frame: length, CRC, payload.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Incremental frame reassembly over a byte stream read in chunks: feed
/// whatever bytes arrived with [`FrameBuffer::extend`], pop complete
/// payloads with [`FrameBuffer::next_frame`].
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Bytes already consumed off the front (compacted lazily).
    at: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Appends newly received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing so a long-lived connection doesn't drag
        // consumed prefixes around forever.
        if self.at > 0 {
            self.buf.drain(..self.at);
            self.at = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete payload, `Ok(None)` if more bytes are
    /// needed, or a [`FrameError`] if the stream is corrupt.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let avail = &self.buf[self.at..];
        if avail.len() < FRAME_HEADER {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes"));
        if len > MAX_FRAME {
            return Err(FrameError::Oversized(len));
        }
        let total = FRAME_HEADER + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let crc = u32::from_le_bytes(avail[4..8].try_into().expect("4 bytes"));
        let payload = &avail[FRAME_HEADER..total];
        if crc32(payload) != crc {
            return Err(FrameError::BadCrc);
        }
        let out = payload.to_vec();
        self.at += total;
        Ok(Some(out))
    }
}

// ---------------------------------------------------------------------------
// Request frames (client → server)
// ---------------------------------------------------------------------------

const OP_HELLO: u8 = 0x01;
const OP_OPEN_SESSION: u8 = 0x02;
const OP_PREPARE: u8 = 0x03;
const OP_EXECUTE: u8 = 0x04;
const OP_FETCH_PAGE: u8 = 0x05;
const OP_CLOSE_CURSOR: u8 = 0x06;
const OP_CLOSE_SESSION: u8 = 0x07;
const OP_PING: u8 = 0x08;

/// A client request. Every variant elicits exactly one [`Response`].
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// First frame on every connection: protocol handshake + tenant
    /// identity (quotas and per-tenant metrics key off it).
    Hello { version: u32, tenant: String },
    /// Opens an investigation session (counted against the tenant's
    /// session quota).
    OpenSession,
    /// Compiles `source` once, server-side, through the session's plan
    /// cache.
    Prepare { session: u64, source: String },
    /// Binds `params` and executes — one round trip, returning a cursor.
    /// `timeout_ms = 0` means the server's default statement timeout;
    /// a nonzero value is honored up to that same server cap.
    Execute {
        session: u64,
        stmt: u64,
        params: Vec<(String, Lit)>,
        timeout_ms: u64,
    },
    /// Pulls up to `max_rows` rows from an open cursor.
    FetchPage { cursor: u64, max_rows: u32 },
    /// Closes a cursor early (fully drained cursors close themselves).
    CloseCursor { cursor: u64 },
    /// Closes a session and everything it owns.
    CloseSession { session: u64 },
    /// Liveness probe; the token round-trips in the `Pong`.
    Ping { token: u64 },
}

const LIT_STR: u8 = 0;
const LIT_INT: u8 = 1;
const LIT_FLOAT: u8 = 2;

fn write_lit(out: &mut Vec<u8>, lit: &Lit) -> io::Result<()> {
    match lit {
        Lit::Str(s) => {
            write_u8(out, LIT_STR)?;
            write_str(out, s)
        }
        Lit::Int(i) => {
            write_u8(out, LIT_INT)?;
            write_u64(out, *i as u64)
        }
        Lit::Float(x) => {
            write_u8(out, LIT_FLOAT)?;
            write_u64(out, x.to_bits())
        }
        Lit::Param(name) => Err(bad(format!("unbound parameter ${name} cannot be sent"))),
    }
}

fn read_lit<R: Read>(r: &mut R) -> io::Result<Lit> {
    Ok(match read_u8(r)? {
        LIT_STR => Lit::Str(read_str(r)?),
        LIT_INT => Lit::Int(read_u64(r)? as i64),
        LIT_FLOAT => Lit::Float(f64::from_bits(read_u64(r)?)),
        tag => return Err(bad(format!("unknown literal tag {tag}"))),
    })
}

/// Cap on collection counts inside one payload (params, columns, rows):
/// anything larger would not fit in a [`MAX_FRAME`] frame anyway.
const MAX_ITEMS: u32 = 1 << 22;

fn read_count<R: Read>(r: &mut R, what: &str) -> io::Result<u32> {
    let n = read_u32(r)?;
    if n > MAX_ITEMS {
        return Err(bad(format!("{what} count {n} exceeds cap")));
    }
    Ok(n)
}

impl Request {
    /// Serializes into a payload (opcode + body, no framing).
    pub fn encode(&self) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        match self {
            Request::Hello { version, tenant } => {
                write_u8(&mut out, OP_HELLO)?;
                write_u32(&mut out, *version)?;
                write_str(&mut out, tenant)?;
            }
            Request::OpenSession => write_u8(&mut out, OP_OPEN_SESSION)?,
            Request::Prepare { session, source } => {
                write_u8(&mut out, OP_PREPARE)?;
                write_u64(&mut out, *session)?;
                write_str(&mut out, source)?;
            }
            Request::Execute {
                session,
                stmt,
                params,
                timeout_ms,
            } => {
                write_u8(&mut out, OP_EXECUTE)?;
                write_u64(&mut out, *session)?;
                write_u64(&mut out, *stmt)?;
                write_u64(&mut out, *timeout_ms)?;
                write_u32(&mut out, params.len() as u32)?;
                for (name, lit) in params {
                    write_str(&mut out, name)?;
                    write_lit(&mut out, lit)?;
                }
            }
            Request::FetchPage { cursor, max_rows } => {
                write_u8(&mut out, OP_FETCH_PAGE)?;
                write_u64(&mut out, *cursor)?;
                write_u32(&mut out, *max_rows)?;
            }
            Request::CloseCursor { cursor } => {
                write_u8(&mut out, OP_CLOSE_CURSOR)?;
                write_u64(&mut out, *cursor)?;
            }
            Request::CloseSession { session } => {
                write_u8(&mut out, OP_CLOSE_SESSION)?;
                write_u64(&mut out, *session)?;
            }
            Request::Ping { token } => {
                write_u8(&mut out, OP_PING)?;
                write_u64(&mut out, *token)?;
            }
        }
        Ok(out)
    }

    /// Serializes into a complete frame, ready to write to a socket.
    pub fn to_frame(&self) -> io::Result<Vec<u8>> {
        Ok(frame(&self.encode()?))
    }

    /// Decodes a payload produced by [`Request::encode`]. Unknown opcodes
    /// and malformed bodies are `InvalidData` errors.
    pub fn decode(payload: &[u8]) -> io::Result<Request> {
        let mut r = payload;
        let op = read_u8(&mut r)?;
        let req = match op {
            OP_HELLO => Request::Hello {
                version: read_u32(&mut r)?,
                tenant: read_str(&mut r)?,
            },
            OP_OPEN_SESSION => Request::OpenSession,
            OP_PREPARE => Request::Prepare {
                session: read_u64(&mut r)?,
                source: read_str(&mut r)?,
            },
            OP_EXECUTE => {
                let session = read_u64(&mut r)?;
                let stmt = read_u64(&mut r)?;
                let timeout_ms = read_u64(&mut r)?;
                let n = read_count(&mut r, "param")?;
                let mut params = Vec::with_capacity(n.min(64) as usize);
                for _ in 0..n {
                    let name = read_str(&mut r)?;
                    params.push((name, read_lit(&mut r)?));
                }
                Request::Execute {
                    session,
                    stmt,
                    params,
                    timeout_ms,
                }
            }
            OP_FETCH_PAGE => Request::FetchPage {
                cursor: read_u64(&mut r)?,
                max_rows: read_u32(&mut r)?,
            },
            OP_CLOSE_CURSOR => Request::CloseCursor {
                cursor: read_u64(&mut r)?,
            },
            OP_CLOSE_SESSION => Request::CloseSession {
                session: read_u64(&mut r)?,
            },
            OP_PING => Request::Ping {
                token: read_u64(&mut r)?,
            },
            other => return Err(bad(format!("unknown request opcode {other:#04x}"))),
        };
        if !r.is_empty() {
            return Err(bad("trailing bytes after request body"));
        }
        Ok(req)
    }
}

// ---------------------------------------------------------------------------
// Response frames (server → client)
// ---------------------------------------------------------------------------

const OP_HELLO_OK: u8 = 0x81;
const OP_SESSION_OPENED: u8 = 0x82;
const OP_PREPARED: u8 = 0x83;
const OP_EXECUTED: u8 = 0x84;
const OP_PAGE: u8 = 0x85;
const OP_CURSOR_CLOSED: u8 = 0x86;
const OP_SESSION_CLOSED: u8 = 0x87;
const OP_PONG: u8 = 0x88;
const OP_ERROR: u8 = 0x8F;

/// Why a request was rejected — the typed error vocabulary of the
/// protocol. Clients can branch on the code without parsing the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame or its payload violated the protocol (wrong state,
    /// malformed body). The server closes the connection after sending
    /// this when the stream itself can no longer be trusted.
    Protocol = 1,
    /// The query failed to compile or bind.
    Compile = 2,
    /// A per-tenant quota (sessions or concurrent statements) is
    /// exhausted. Retry later or close something; nothing is queued.
    QuotaExceeded = 3,
    /// The statement exceeded its wall-clock budget and was cancelled at
    /// a cooperative checkpoint.
    Timeout = 4,
    /// The referenced session, statement, or cursor does not exist
    /// (never did, was closed, or was reaped for idleness).
    NotFound = 5,
    /// The server is draining for shutdown and takes no new work.
    ShuttingDown = 6,
    /// Execution failed server-side for a non-protocol reason.
    Internal = 7,
}

impl ErrorCode {
    /// The code behind a wire byte.
    pub fn from_code(code: u8) -> Option<ErrorCode> {
        Some(match code {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::Compile,
            3 => ErrorCode::QuotaExceeded,
            4 => ErrorCode::Timeout,
            5 => ErrorCode::NotFound,
            6 => ErrorCode::ShuttingDown,
            7 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// A server response. `Error` is the only failure shape — everything
/// else acknowledges the matching request.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    HelloOk { version: u32, server: String },
    /// Session opened; all later requests reference the id.
    SessionOpened { session: u64 },
    /// Statement compiled; `params` are the declared `$name` placeholders
    /// in first-occurrence order.
    Prepared { stmt: u64, params: Vec<String> },
    /// Execution finished; rows wait server-side behind `cursor`.
    Executed {
        cursor: u64,
        columns: Vec<String>,
        rows_total: u64,
        elapsed_micros: u64,
    },
    /// One page of rows. `done` means the cursor is exhausted and has
    /// been closed server-side.
    Page {
        cursor: u64,
        rows: Vec<WireRow>,
        done: bool,
    },
    /// Cursor closed (explicitly).
    CursorClosed { cursor: u64 },
    /// Session closed, its statements and cursors freed.
    SessionClosed { session: u64 },
    /// Liveness echo.
    Pong { token: u64 },
    /// The request failed; see [`ErrorCode`].
    Error { code: ErrorCode, message: String },
}

/// Payload bytes of a `Page` before its rows: opcode, cursor, `done`,
/// row count.
pub(crate) const PAGE_HEADER: usize = 1 + 8 + 1 + 4;

/// Bytes `row` adds to a `Page` payload: its value count, then each
/// value's tag and body as [`write_value`] lays them out.
pub(crate) fn page_row_len(row: &WireRow) -> usize {
    let value_len = |v: &Value| match v {
        Value::Null => 1,
        Value::Bool(_) => 2,
        Value::Int(_) | Value::Float(_) => 9,
        Value::Str(s) => 5 + s.len(),
    };
    4 + row.iter().map(value_len).sum::<usize>()
}

impl Response {
    /// Serializes into a payload (opcode + body, no framing).
    pub fn encode(&self) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        match self {
            Response::HelloOk { version, server } => {
                write_u8(&mut out, OP_HELLO_OK)?;
                write_u32(&mut out, *version)?;
                write_str(&mut out, server)?;
            }
            Response::SessionOpened { session } => {
                write_u8(&mut out, OP_SESSION_OPENED)?;
                write_u64(&mut out, *session)?;
            }
            Response::Prepared { stmt, params } => {
                write_u8(&mut out, OP_PREPARED)?;
                write_u64(&mut out, *stmt)?;
                write_u32(&mut out, params.len() as u32)?;
                for p in params {
                    write_str(&mut out, p)?;
                }
            }
            Response::Executed {
                cursor,
                columns,
                rows_total,
                elapsed_micros,
            } => {
                write_u8(&mut out, OP_EXECUTED)?;
                write_u64(&mut out, *cursor)?;
                write_u64(&mut out, *rows_total)?;
                write_u64(&mut out, *elapsed_micros)?;
                write_u32(&mut out, columns.len() as u32)?;
                for c in columns {
                    write_str(&mut out, c)?;
                }
            }
            Response::Page { cursor, rows, done } => {
                write_u8(&mut out, OP_PAGE)?;
                write_u64(&mut out, *cursor)?;
                write_u8(&mut out, *done as u8)?;
                write_u32(&mut out, rows.len() as u32)?;
                for row in rows {
                    write_u32(&mut out, row.len() as u32)?;
                    for v in row {
                        write_value(&mut out, v)?;
                    }
                }
            }
            Response::CursorClosed { cursor } => {
                write_u8(&mut out, OP_CURSOR_CLOSED)?;
                write_u64(&mut out, *cursor)?;
            }
            Response::SessionClosed { session } => {
                write_u8(&mut out, OP_SESSION_CLOSED)?;
                write_u64(&mut out, *session)?;
            }
            Response::Pong { token } => {
                write_u8(&mut out, OP_PONG)?;
                write_u64(&mut out, *token)?;
            }
            Response::Error { code, message } => {
                write_u8(&mut out, OP_ERROR)?;
                write_u8(&mut out, *code as u8)?;
                write_str(&mut out, message)?;
            }
        }
        Ok(out)
    }

    /// Serializes into a complete frame, ready to write to a socket.
    pub fn to_frame(&self) -> io::Result<Vec<u8>> {
        Ok(frame(&self.encode()?))
    }

    /// Decodes a payload produced by [`Response::encode`].
    pub fn decode(payload: &[u8]) -> io::Result<Response> {
        let mut r = payload;
        let op = read_u8(&mut r)?;
        let resp = match op {
            OP_HELLO_OK => Response::HelloOk {
                version: read_u32(&mut r)?,
                server: read_str(&mut r)?,
            },
            OP_SESSION_OPENED => Response::SessionOpened {
                session: read_u64(&mut r)?,
            },
            OP_PREPARED => {
                let stmt = read_u64(&mut r)?;
                let n = read_count(&mut r, "param")?;
                let mut params = Vec::with_capacity(n.min(64) as usize);
                for _ in 0..n {
                    params.push(read_str(&mut r)?);
                }
                Response::Prepared { stmt, params }
            }
            OP_EXECUTED => {
                let cursor = read_u64(&mut r)?;
                let rows_total = read_u64(&mut r)?;
                let elapsed_micros = read_u64(&mut r)?;
                let n = read_count(&mut r, "column")?;
                let mut columns = Vec::with_capacity(n.min(64) as usize);
                for _ in 0..n {
                    columns.push(read_str(&mut r)?);
                }
                Response::Executed {
                    cursor,
                    columns,
                    rows_total,
                    elapsed_micros,
                }
            }
            OP_PAGE => {
                let cursor = read_u64(&mut r)?;
                let done = read_u8(&mut r)? != 0;
                let n = read_count(&mut r, "row")?;
                let mut rows = Vec::with_capacity(n.min(1024) as usize);
                for _ in 0..n {
                    let w = read_count(&mut r, "column")?;
                    let mut row = Vec::with_capacity(w.min(64) as usize);
                    for _ in 0..w {
                        row.push(read_value(&mut r)?);
                    }
                    rows.push(row);
                }
                Response::Page { cursor, rows, done }
            }
            OP_CURSOR_CLOSED => Response::CursorClosed {
                cursor: read_u64(&mut r)?,
            },
            OP_SESSION_CLOSED => Response::SessionClosed {
                session: read_u64(&mut r)?,
            },
            OP_PONG => Response::Pong {
                token: read_u64(&mut r)?,
            },
            OP_ERROR => {
                let code = read_u8(&mut r)?;
                let code = ErrorCode::from_code(code)
                    .ok_or_else(|| bad(format!("unknown error code {code}")))?;
                Response::Error {
                    code,
                    message: read_str(&mut r)?,
                }
            }
            other => return Err(bad(format!("unknown response opcode {other:#04x}"))),
        };
        if !r.is_empty() {
            return Err(bad("trailing bytes after response body"));
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_the_buffer() {
        let req = Request::Prepare {
            session: 7,
            source: "proc p read file f return p, f".into(),
        };
        let bytes = req.to_frame().unwrap();
        let mut fb = FrameBuffer::new();
        // Feed byte by byte: no frame until the last byte lands.
        for (i, b) in bytes.iter().enumerate() {
            assert_eq!(fb.next_frame().unwrap(), None, "premature frame at {i}");
            fb.extend(std::slice::from_ref(b));
        }
        let payload = fb.next_frame().unwrap().expect("complete frame");
        assert_eq!(Request::decode(&payload).unwrap(), req);
        assert_eq!(fb.next_frame().unwrap(), None);
    }

    #[test]
    fn oversized_and_corrupt_frames_are_typed_errors() {
        let mut fb = FrameBuffer::new();
        fb.extend(&(MAX_FRAME + 1).to_le_bytes());
        fb.extend(&[0u8; 4]);
        assert_eq!(
            fb.next_frame().unwrap_err(),
            FrameError::Oversized(MAX_FRAME + 1)
        );

        let mut fb = FrameBuffer::new();
        let mut bytes = Request::Ping { token: 1 }.to_frame().unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fb.extend(&bytes);
        assert_eq!(fb.next_frame().unwrap_err(), FrameError::BadCrc);
    }

    #[test]
    fn unknown_opcode_and_trailing_bytes_are_invalid_data() {
        assert!(Request::decode(&[0x7E]).is_err());
        assert!(Response::decode(&[0x10]).is_err());
        let mut payload = Request::Ping { token: 3 }.encode().unwrap();
        payload.push(0);
        assert!(Request::decode(&payload).is_err());
    }

    #[test]
    fn page_size_is_header_plus_row_lengths() {
        let rows = vec![
            vec![Value::Null, Value::Bool(true), Value::Int(-3)],
            vec![Value::Float(0.5), Value::Str("é/tmp/x".into())],
            vec![],
        ];
        let expected = PAGE_HEADER + rows.iter().map(page_row_len).sum::<usize>();
        let page = Response::Page {
            cursor: 9,
            rows,
            done: false,
        };
        assert_eq!(page.encode().unwrap().len(), expected);
    }

    #[test]
    fn unbound_params_cannot_be_encoded() {
        let req = Request::Execute {
            session: 1,
            stmt: 1,
            params: vec![("x".into(), Lit::Param("x".into()))],
            timeout_ms: 0,
        };
        assert!(req.encode().is_err());
    }
}

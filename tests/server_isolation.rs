//! Serving isolation: one connection's work must not hold up another's,
//! and no answer may outgrow the frame cap the client enforces.
//!
//! - A `Ping` on one connection is answered while another connection's
//!   statement is still executing, even with a single statement permit
//!   (`workers: 1`).
//! - A result page whose rows would pass `MAX_FRAME` is split across
//!   fetches instead of being sent as a frame the client must reject.

use aiql::client::Client;
use aiql::engine::Params;
use aiql::model::{AgentId, Dataset, Entity, EntityKind, Event, OpType, Timestamp, Value};
use aiql::server::proto::{FrameBuffer, Request, Response, PROTO_VERSION};
use aiql::server::{Server, ServerConfig};
use aiql::storage::{EventStore, SharedStore, StoreConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// One process that read one file per name, one second apart.
fn store_of_reads(names: impl IntoIterator<Item = String>) -> SharedStore {
    let mut data = Dataset::new();
    let a = AgentId(1);
    let p = data.add_entity(Entity::process(1.into(), a, "bash", 7));
    // 2017-01-01T00:00:00Z.
    let start = 1_483_228_800;
    for (i, name) in names.into_iter().enumerate() {
        let i = i as u64;
        let f = data.add_entity(Entity::file((i + 2).into(), a, name));
        data.add_event(Event::new(
            (i + 1).into(),
            a,
            p,
            OpType::Read,
            f,
            EntityKind::File,
            Timestamp::from_secs(start + i as i64),
        ));
    }
    SharedStore::new(EventStore::ingest(&data, StoreConfig::partitioned()).unwrap())
}

fn send(stream: &mut TcpStream, req: &Request) {
    stream.write_all(&req.to_frame().unwrap()).unwrap();
}

fn read_response(stream: &mut TcpStream, fb: &mut FrameBuffer) -> Response {
    let mut buf = [0u8; 4096];
    loop {
        if let Some(p) = fb.next_frame().unwrap() {
            return Response::decode(&p).unwrap();
        }
        let n = stream.read(&mut buf).expect("response arrives in time");
        assert!(n > 0, "server closed while a response was awaited");
        fb.extend(&buf[..n]);
    }
}

#[test]
fn ping_is_answered_while_another_connection_executes() {
    const SELF_JOIN: &str = "proc p1 read file f1 as e1 proc p2 read file f2 as e2 \
                             with e1.start_time <= e2.start_time return f1, f2";
    let store = store_of_reads((0..1000).map(|i| format!("/tmp/f{i}")));
    let server = Server::spawn(
        &store,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // Connection A walks up to a prepared self-join on a raw socket, so
    // the test knows exactly when the Execute frame has been sent.
    let mut a = TcpStream::connect(server.addr()).unwrap();
    a.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut fb = FrameBuffer::new();
    send(
        &mut a,
        &Request::Hello {
            version: PROTO_VERSION,
            tenant: "hunter".to_string(),
        },
    );
    assert!(matches!(
        read_response(&mut a, &mut fb),
        Response::HelloOk { .. }
    ));
    send(&mut a, &Request::OpenSession);
    let Response::SessionOpened { session } = read_response(&mut a, &mut fb) else {
        panic!("expected SessionOpened");
    };
    send(
        &mut a,
        &Request::Prepare {
            session,
            source: SELF_JOIN.to_string(),
        },
    );
    let Response::Prepared { stmt, .. } = read_response(&mut a, &mut fb) else {
        panic!("expected Prepared");
    };
    let mut b = Client::connect(server.addr(), "analyst").unwrap();

    let executed = Arc::new(AtomicBool::new(false));
    let (sent_tx, sent_rx) = mpsc::channel();
    let hunter = {
        let executed = executed.clone();
        std::thread::spawn(move || {
            send(
                &mut a,
                &Request::Execute {
                    session,
                    stmt,
                    params: Vec::new(),
                    timeout_ms: 0,
                },
            );
            sent_tx.send(()).unwrap();
            let resp = read_response(&mut a, &mut fb);
            executed.store(true, Ordering::SeqCst);
            resp
        })
    };

    sent_rx.recv().unwrap();
    b.ping().expect("pong");
    assert!(
        !executed.load(Ordering::SeqCst),
        "the ping waited for another connection's statement"
    );
    match hunter.join().unwrap() {
        Response::Executed { rows_total, .. } => assert!(rows_total > 0),
        other => panic!("expected Executed, got {other:?}"),
    }
}

#[test]
fn pages_are_split_to_fit_the_frame_cap() {
    // Twelve 1 MiB names: the 12 MiB result cannot travel in one page.
    let names: Vec<String> = (0..12u8)
        .map(|i| format!("/{}", char::from(b'a' + i)).repeat(1 << 19))
        .collect();
    let server = Server::spawn(&store_of_reads(names.clone()), ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.addr(), "bulk").unwrap();
    let session = c.open_session().unwrap();
    let stmt = c.prepare(session, "proc p read file f return f").unwrap();
    let (_columns, rows) = c.query(session, stmt.stmt, &Params::new()).unwrap();
    let mut got: Vec<String> = rows
        .into_iter()
        .map(|row| match row.as_slice() {
            [Value::Str(name)] => name.clone(),
            other => panic!("expected one string column, got {} values", other.len()),
        })
        .collect();
    got.sort();
    assert_eq!(got, names, "every row arrives intact");
    assert_eq!(server.stats().active_cursors, 0);
}

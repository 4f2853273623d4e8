//! Admission-control behaviour under overload and drain, asserted at
//! the protocol level: excess requests get a typed `Retry` (never a
//! silent drop, never an unbounded queue), `server.req.shed` counts
//! them, and — the load-bearing invariant — a shed request leaves
//! **no WAL frames** behind: the database never heard of it.

use std::time::Duration;

use cdb_core::sharded::ShardedDb;
use cdb_core::shared::SharedDb;
use cdb_model::Atom;
use cdb_server::admission::{Admission, Decision};
use cdb_server::proto::{read_frame, write_frame, Request, Response, PROTOCOL_VERSION};
use cdb_server::session::Session;
use cdb_server::transport::{mem_pair, MemTransport};
use cdb_storage::{CheckpointStore, MemIo};

/// A durable database over in-memory devices, served as one shard.
fn durable_db() -> ShardedDb {
    ShardedDb::from(
        SharedDb::open(
            "admit",
            "name",
            Box::new(MemIo::new()),
            CheckpointStore::mem(),
            Duration::ZERO,
        )
        .unwrap(),
    )
}

/// One lockstep exchange: write the request, serve it, read the reply.
fn exchange(
    client: &mut MemTransport,
    session: &mut Session<MemTransport>,
    req: &Request,
) -> Response {
    write_frame(client, &req.encode()).unwrap();
    session.serve_one();
    let payload = read_frame(client).unwrap().expect("response frame");
    Response::decode(&payload).unwrap()
}

fn hello(client: &mut MemTransport, session: &mut Session<MemTransport>) {
    let resp = exchange(
        client,
        session,
        &Request::Hello {
            version: PROTOCOL_VERSION,
            client: "admission-test".to_string(),
        },
    );
    assert!(matches!(resp, Response::Hello { .. }));
}

fn add_req(key: &str) -> Request {
    Request::Add {
        curator: "alice".to_string(),
        time: 1,
        key: key.to_string(),
        fields: vec![("tm".to_string(), Atom::Int(4))],
    }
}

#[test]
fn one_slot_and_a_stalled_worker_sheds_with_retry_and_no_wal_frames() {
    let db = durable_db();
    let admission = Admission::new(1, 17, db.metrics());

    // The stalled worker: a permit held for the duration, as if a
    // request were stuck mid-execution.
    let _stall = match admission.try_begin() {
        Decision::Go(p) => p,
        Decision::Shed { .. } => panic!("fresh gate shed its first request"),
    };

    let (mut client, server_end) = mem_pair();
    let mut session = Session::new(server_end, db.clone(), admission.clone());
    hello(&mut client, &mut session);

    let wal_before = db.shard()[0].wal_len().expect("durable db has a WAL");
    let epoch_before = db.epoch();

    // Excess requests: each gets Retry with the configured hint —
    // typed, not a silent drop — and the connection stays usable.
    for i in 0..3 {
        let resp = exchange(&mut client, &mut session, &add_req(&format!("K{i}")));
        assert_eq!(
            resp,
            Response::Retry { after_hint_ms: 17 },
            "request {i} should shed while the slot is held"
        );
    }

    // The shed counter saw all three, through both the handle and the
    // registered metric.
    assert_eq!(admission.shed_count(), 3);
    assert_eq!(db.metrics().counter("server.req.shed").get(), 3);

    // The load-bearing assertion: shedding happened before the
    // database — no WAL frames, no epoch, no entries.
    assert_eq!(
        db.shard()[0].wal_len().unwrap(),
        wal_before,
        "shed request reached the WAL"
    );
    assert_eq!(db.epoch(), epoch_before, "shed request committed an epoch");
    assert!(db.snapshot().entry_keys().unwrap().is_empty());

    // Reads shed too while the pool is exhausted (they hold slots).
    let resp = exchange(&mut client, &mut session, &Request::Entries);
    assert_eq!(resp, Response::Retry { after_hint_ms: 17 });

    // Release the stalled worker: the same connection immediately
    // gets through, and the write lands in the WAL.
    drop(_stall);
    let resp = exchange(&mut client, &mut session, &add_req("K9"));
    assert!(matches!(resp, Response::Node { .. }), "got {resp:?}");
    assert!(db.shard()[0].wal_len().unwrap() > wal_before);
    assert_eq!(db.snapshot().entry_keys().unwrap(), vec!["K9".to_string()]);
}

#[test]
fn queue_depth_gauge_tracks_in_flight_requests() {
    let db = durable_db();
    let admission = Admission::new(2, 5, db.metrics());
    let depth = db.metrics().gauge("server.req.queue_depth");
    assert_eq!(depth.get(), 0);
    let p1 = match admission.try_begin() {
        Decision::Go(p) => p,
        _ => unreachable!(),
    };
    let p2 = match admission.try_begin() {
        Decision::Go(p) => p,
        _ => unreachable!(),
    };
    assert_eq!(depth.get(), 2);
    assert!(matches!(admission.try_begin(), Decision::Shed { .. }));
    assert_eq!(depth.get(), 2, "a shed request must not occupy the queue");
    drop(p1);
    drop(p2);
    assert_eq!(depth.get(), 0);
}

#[test]
fn draining_refuses_writes_but_serves_reads() {
    let db = durable_db();
    let admission = Admission::new(4, 5, db.metrics());
    let (mut client, server_end) = mem_pair();
    let mut session = Session::new(server_end, db.clone(), admission.clone());
    hello(&mut client, &mut session);

    // Seed one entry before the drain begins.
    let resp = exchange(&mut client, &mut session, &add_req("K0"));
    assert!(matches!(resp, Response::Node { .. }));
    let wal_at_drain = db.shard()[0].wal_len().unwrap();

    admission.begin_drain();

    // Writes: refused with the shutdown class, and nothing hits the WAL.
    let resp = exchange(&mut client, &mut session, &add_req("K1"));
    assert!(
        matches!(
            &resp,
            Response::Err {
                code: cdb_server::ErrCode::Shutdown,
                ..
            }
        ),
        "got {resp:?}"
    );
    assert_eq!(db.shard()[0].wal_len().unwrap(), wal_at_drain);

    // Reads: still served, still from the pinned snapshot.
    let resp = exchange(&mut client, &mut session, &Request::Entries);
    let Response::Keys { keys, .. } = resp else {
        panic!("read refused during drain: {resp:?}")
    };
    assert_eq!(keys, vec!["K0".to_string()]);

    // Ping keeps answering so health checks see the drain through.
    let resp = exchange(&mut client, &mut session, &Request::Ping);
    assert_eq!(resp, Response::Pong);
}

#[test]
fn shed_is_not_a_drop_the_client_can_retry_to_success() {
    // The end-to-end retry story: a client using request_retrying
    // succeeds once the stall clears concurrently.
    let db = durable_db();
    let admission = Admission::new(1, 1, db.metrics());
    let stall = match admission.try_begin() {
        Decision::Go(p) => p,
        _ => unreachable!(),
    };

    let (client_end, server_end) = mem_pair();
    let mut session = Session::new(server_end, db.clone(), admission.clone());
    let server_thread = std::thread::spawn(move || session.run());

    let mut client = cdb_server::Client::over(client_end);
    client.hello("retrier").unwrap();

    // Release the stall shortly after the client starts retrying.
    let release = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(5));
        drop(stall);
    });

    let resp = client
        .request_retrying(&add_req("K0"), 50)
        .expect("retrying client must eventually land the write");
    assert!(matches!(resp, Response::Node { .. }));
    release.join().unwrap();

    client.close().unwrap();
    drop(client);
    server_thread.join().unwrap();
    assert_eq!(db.snapshot().entry_keys().unwrap(), vec!["K0".to_string()]);
}

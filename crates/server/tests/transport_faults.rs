//! Fault-plan classes for the connection transport, enumerated
//! deterministically: a peer cut off at every byte offset of the
//! stream (torn frames, mid-request disconnects) and a reader that
//! delivers one byte per read (a slow or adversarial peer). The
//! invariant under every cut: the database applies exactly the
//! requests whose frames arrived whole — a torn write is never
//! half-applied — and the session always terminates.

use cdb_core::sharded::ShardedDb;
use cdb_core::shared::SharedDb;
use cdb_model::Atom;
use cdb_server::admission::Admission;
use cdb_server::proto::{read_frame, Request, Response, PROTOCOL_VERSION};
use cdb_server::session::{Session, Turn};
use cdb_server::transport::{mem_pair, mem_pair_with, MemFaultPlan, Transport};

fn frame(req: &Request) -> Vec<u8> {
    let payload = req.encode();
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// The scripted conversation: hello, then two writes. Returns the
/// stream and the end offset of each frame.
fn scripted_stream() -> (Vec<u8>, Vec<usize>) {
    let reqs = [
        Request::Hello {
            version: PROTOCOL_VERSION,
            client: "faults".to_string(),
        },
        Request::Add {
            curator: "alice".to_string(),
            time: 1,
            key: "GABA-A".to_string(),
            fields: vec![("tm".to_string(), Atom::Int(4))],
        },
        Request::Add {
            curator: "bob".to_string(),
            time: 2,
            key: "5-HT3".to_string(),
            fields: vec![("tm".to_string(), Atom::Int(5))],
        },
    ];
    let mut stream = Vec::new();
    let mut ends = Vec::new();
    for req in &reqs {
        stream.extend_from_slice(&frame(req));
        ends.push(stream.len());
    }
    (stream, ends)
}

#[test]
fn cut_at_every_offset_applies_exactly_the_whole_frames() {
    let (stream, ends) = scripted_stream();
    for cut in 0..=stream.len() {
        let db = ShardedDb::from(SharedDb::new("faults", "name"));
        let admission = Admission::new(4, 1, db.metrics());
        let (mut client, server_end) = mem_pair_with(MemFaultPlan {
            cut_after: Some(cut),
            ..MemFaultPlan::default()
        });
        // The cut plan truncates and closes; the write result reflects
        // whether everything fit. When everything fits (cut at the
        // very end), half-close so the session sees EOF, not silence.
        let _ = client.write_all(&stream);
        client.shutdown_write();
        let mut session = Session::new(server_end, db.clone(), admission);
        session.run(); // must terminate for every cut — no hang, no panic

        let keys = db.snapshot().entry_keys().unwrap();
        let expect_first = cut >= ends[1];
        let expect_second = cut >= ends[2];
        assert_eq!(
            keys.contains(&"GABA-A".to_string()),
            expect_first,
            "cut at {cut}: first add half-applied or lost"
        );
        assert_eq!(
            keys.contains(&"5-HT3".to_string()),
            expect_second,
            "cut at {cut}: second add half-applied or lost"
        );
        // Torn-frame cuts (inside a frame, past the hello) are counted.
        let torn = db.metrics().counter("server.conn.torn").get();
        let lands_mid_frame = cut != stream.len() && !ends.contains(&cut) && cut != 0;
        if lands_mid_frame {
            assert_eq!(torn, 1, "cut at {cut} should count one torn connection");
        }
    }
}

#[test]
fn slow_reader_still_parses_every_frame() {
    // One byte per read: a frame reader that assumes `read` returns
    // whole frames fails here on the first multi-byte header.
    let (stream, _) = scripted_stream();
    let db = ShardedDb::from(SharedDb::new("faults", "name"));
    let admission = Admission::new(4, 1, db.metrics());
    let (mut client, server_end) = mem_pair_with(MemFaultPlan {
        read_chunk: Some(1),
        ..MemFaultPlan::default()
    });
    client.write_all(&stream).unwrap();
    client.shutdown_write();
    let mut session = Session::new(server_end, db.clone(), admission);
    session.run();
    drop(session);

    let keys = db.snapshot().entry_keys().unwrap();
    assert_eq!(keys.len(), 2, "both adds must apply under a slow reader");
    // And the responses all arrived, well-formed.
    let mut responses = Vec::new();
    while let Ok(Some(p)) = read_frame(&mut client) {
        responses.push(Response::decode(&p).unwrap());
    }
    assert_eq!(responses.len(), 3);
    assert!(matches!(responses[0], Response::Hello { .. }));
    assert!(matches!(responses[1], Response::Node { .. }));
    assert!(matches!(responses[2], Response::Node { .. }));
}

#[test]
fn mid_request_disconnect_after_header_is_torn_not_applied() {
    // Deliver the hello whole, then only the 4-byte length header of
    // the add: the classic mid-request disconnect.
    let (stream, ends) = scripted_stream();
    let cut = ends[0] + 4;
    let db = ShardedDb::from(SharedDb::new("faults", "name"));
    let admission = Admission::new(4, 1, db.metrics());
    let (mut client, server_end) = mem_pair_with(MemFaultPlan {
        cut_after: Some(cut),
        ..MemFaultPlan::default()
    });
    let _ = client.write_all(&stream);
    let mut session = Session::new(server_end, db.clone(), admission);
    assert_eq!(session.serve_one(), Turn::Continue); // hello
    assert_eq!(session.serve_one(), Turn::Closed); // torn add
    assert!(db.snapshot().entry_keys().unwrap().is_empty());
    assert_eq!(db.epoch(), 0, "a torn write must not commit an epoch");
}

#[test]
fn force_close_unblocks_a_parked_session() {
    // A session blocked reading an idle connection must come back
    // when its closer fires — this is what drain leans on.
    let db = ShardedDb::from(SharedDb::new("faults", "name"));
    let admission = Admission::new(4, 1, db.metrics());
    let (client, server_end) = mem_pair();
    let closer = server_end.closer();
    let t = std::thread::spawn(move || {
        let mut session = Session::new(server_end, db, admission);
        session.run(); // parks in read_frame immediately
        true
    });
    std::thread::sleep(std::time::Duration::from_millis(20));
    closer.close();
    assert!(t.join().unwrap(), "session must return after force-close");
    drop(client);
}

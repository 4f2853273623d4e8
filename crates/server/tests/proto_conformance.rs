//! Protocol conformance: every request and response frame round-trips
//! through the codec, and *no* corruption of a valid byte stream —
//! truncation at any offset, a flipped bit at any offset — can make
//! the server panic, hang, or answer with undecodable bytes. Mirrors
//! `storage/tests/fault_classes.rs`: random structure comes from
//! seeded property tests, corruption offsets are enumerated
//! exhaustively.

use cdb_core::shared::SharedDb;
use cdb_model::atom::Decimal;
use cdb_model::Atom;
use cdb_server::admission::Admission;
use cdb_server::proto::{
    read_frame, write_frame, ErrCode, Request, Response, MAX_FRAME, PROTOCOL_VERSION,
};
use cdb_server::session::Session;
use cdb_server::transport::{mem_pair, Transport};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------- generators

fn arb_atom(rng: &mut StdRng) -> Atom {
    match rng.gen_range(0u32..5) {
        0 => Atom::Unit,
        1 => Atom::Bool(rng.gen()),
        2 => Atom::Int(rng.gen()),
        3 => Atom::Decimal(Decimal::new(rng.gen_range(-1_000_000i64..1_000_000), {
            let s: i64 = rng.gen_range(0i64..6);
            s as u8
        })),
        _ => Atom::Str(arb_string(rng)),
    }
}

fn arb_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0i64..12) as usize;
    (0..len)
        .map(|_| {
            // Mix ASCII and multi-byte to exercise UTF-8 handling.
            match rng.gen_range(0u32..8) {
                0 => 'δ',
                1 => '批',
                _ => (b'a' + (rng.gen_range(0i64..26) as u8)) as char,
            }
        })
        .collect()
}

fn arb_fields(rng: &mut StdRng) -> Vec<(String, Atom)> {
    let n = rng.gen_range(0i64..4) as usize;
    (0..n).map(|_| (arb_string(rng), arb_atom(rng))).collect()
}

fn arb_request(rng: &mut StdRng) -> Request {
    match rng.gen_range(0u32..15) {
        0 => Request::Hello {
            version: rng.gen_range(0i64..4) as u32,
            client: arb_string(rng),
        },
        1 => Request::Ping,
        2 => Request::Add {
            curator: arb_string(rng),
            time: rng.gen(),
            key: arb_string(rng),
            fields: arb_fields(rng),
        },
        3 => Request::Edit {
            curator: arb_string(rng),
            time: rng.gen(),
            key: arb_string(rng),
            field: arb_string(rng),
            value: arb_atom(rng),
        },
        4 => Request::Delete {
            curator: arb_string(rng),
            time: rng.gen(),
            key: arb_string(rng),
        },
        5 => Request::Merge {
            curator: arb_string(rng),
            time: rng.gen(),
            kept: arb_string(rng),
            absorbed: arb_string(rng),
        },
        6 => Request::Annotate {
            key: arb_string(rng),
            field: rng.gen_bool(0.5).then(|| arb_string(rng)),
            author: arb_string(rng),
            text: arb_string(rng),
            time: rng.gen(),
        },
        7 => Request::Publish {
            label: arb_string(rng),
        },
        8 => Request::GetField {
            key: arb_string(rng),
            field: arb_string(rng),
        },
        9 => Request::Entries,
        10 => Request::Refresh,
        11 => Request::Epoch,
        12 => Request::Stats,
        13 => Request::TraceDump,
        _ => Request::Close,
    }
}

fn arb_response(rng: &mut StdRng) -> Response {
    match rng.gen_range(0u32..11) {
        0 => Response::Hello {
            version: rng.gen_range(0i64..4) as u32,
            server: arb_string(rng),
        },
        1 => Response::Pong,
        2 => Response::Ok,
        3 => Response::Node { id: rng.gen() },
        4 => Response::Value {
            epoch: rng.gen(),
            value: arb_atom(rng),
        },
        5 => Response::Keys {
            epoch: rng.gen(),
            keys: (0..rng.gen_range(0i64..5))
                .map(|_| arb_string(rng))
                .collect(),
        },
        6 => Response::Epoch { epoch: rng.gen() },
        7 => Response::Version {
            id: rng.gen_range(0i64..1_000_000) as u32,
        },
        8 => Response::Stats {
            json: arb_string(rng),
        },
        9 => Response::Err {
            code: match rng.gen_range(0u32..10) {
                0 => ErrCode::Protocol,
                1 => ErrCode::BadRequest,
                2 => ErrCode::NoSuchEntry,
                3 => ErrCode::NoSuchField,
                4 => ErrCode::Duplicate,
                5 => ErrCode::Lifecycle,
                6 => ErrCode::Storage,
                7 => ErrCode::Shutdown,
                8 => ErrCode::VersionMismatch,
                _ => ErrCode::Internal,
            },
            msg: arb_string(rng),
        },
        _ => Response::Retry {
            after_hint_ms: rng.gen_range(0i64..10_000) as u32,
        },
    }
}

// --------------------------------------------------- round-trips

proptest! {
    #[test]
    fn requests_round_trip(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let req = arb_request(&mut rng);
        let bytes = req.encode();
        let back = Request::decode(&bytes);
        prop_assert_eq!(back.as_ref(), Ok(&req));
    }

    /// The trace-context word survives the wire exactly, and its
    /// absence decodes as "no trace" — the backward-compatibility
    /// contract of `encode_traced`/`decode_traced`.
    #[test]
    fn traced_requests_round_trip(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let req = arb_request(&mut rng);
        let trace = cdb_obs::TraceId(rng.gen());
        let bytes = req.encode_traced(trace);
        let (back, tback) = Request::decode_traced(&bytes).unwrap();
        prop_assert_eq!(&back, &req);
        prop_assert_eq!(tback, trace);
        let (untraced, t0) = Request::decode_traced(&req.encode()).unwrap();
        prop_assert_eq!(untraced, req);
        prop_assert_eq!(t0.0, 0);
    }

    #[test]
    fn responses_round_trip(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let resp = arb_response(&mut rng);
        let bytes = resp.encode();
        let back = Response::decode(&bytes);
        prop_assert_eq!(back.as_ref(), Ok(&resp));
    }

    #[test]
    fn truncated_payloads_never_panic(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes = arb_request(&mut rng).encode();
        for cut in 0..bytes.len() {
            // Any prefix must yield a typed error (or, for a prefix
            // that happens to be a complete shorter value, trailing
            // handling does not apply — but a strict prefix of a
            // canonical encoding never re-decodes to Ok of the same).
            let _ = Request::decode(&bytes[..cut]);
        }
        // Appending junk makes it trailing bytes, not a silent success.
        let mut padded = bytes.clone();
        padded.push(0);
        prop_assert!(Request::decode(&padded).is_err());
    }
}

// ------------------------------------- corrupt frames, end to end

/// Feeds a raw byte stream to a fresh session over the in-memory
/// transport, lets the session run to completion, and returns every
/// response frame the server produced. The client half-closes after
/// writing, so the session always reaches EOF — a hang is impossible
/// by construction, and a panic propagates out of `run`.
fn serve_raw(stream: &[u8]) -> Vec<Response> {
    let db = SharedDb::new("conformance", "name");
    db.add_entry("seed", 1, "K", &[("f", Atom::Int(7))])
        .unwrap();
    let admission = Admission::new(4, 1, db.metrics());
    let (mut client, server_end) = mem_pair();
    client.write_all(stream).unwrap();
    client.shutdown_write();
    let mut session = Session::new(server_end, db, admission);
    session.run();
    drop(session); // hangs up the server end; reads below terminate
    let mut responses = Vec::new();
    while let Ok(Some(payload)) = read_frame(&mut client) {
        responses.push(
            Response::decode(&payload).expect("server emitted an undecodable response frame"),
        );
    }
    responses
}

/// A canonical two-frame conversation: a valid hello, then a valid
/// write. Corruption tests mutate this stream.
fn canonical_stream() -> Vec<u8> {
    let mut stream = Vec::new();
    let hello = Request::Hello {
        version: PROTOCOL_VERSION,
        client: "conformance".to_string(),
    };
    let add = Request::Add {
        curator: "alice".to_string(),
        time: 2,
        key: "GABA-A".to_string(),
        fields: vec![("tm".to_string(), Atom::Int(4))],
    };
    for req in [&hello, &add] {
        let payload = req.encode();
        stream.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        stream.extend_from_slice(&payload);
    }
    stream
}

#[test]
fn every_byte_offset_truncation_is_survived() {
    let stream = canonical_stream();
    for cut in 0..stream.len() {
        let responses = serve_raw(&stream[..cut]);
        // Every response the server did send must be well-formed (the
        // expect inside serve_raw) and every error typed.
        for r in &responses {
            if let Response::Err { code, .. } = r {
                assert!(
                    matches!(code, ErrCode::Protocol | ErrCode::VersionMismatch),
                    "cut at {cut}: unexpected error class {code}"
                );
            }
        }
    }
}

#[test]
fn every_byte_offset_bit_flip_is_survived() {
    let stream = canonical_stream();
    for offset in 0..stream.len() {
        for mask in [0x01u8, 0x80u8] {
            let mut corrupt = stream.clone();
            corrupt[offset] ^= mask;
            // Must terminate (serve_raw cannot hang) and every frame
            // the server answers must decode (asserted inside).
            let _ = serve_raw(&corrupt);
        }
    }
}

#[test]
fn oversized_frame_length_is_refused_with_a_typed_error() {
    let mut stream = Vec::new();
    stream.extend_from_slice(&((MAX_FRAME as u32) + 1).to_le_bytes());
    stream.extend_from_slice(&[0u8; 64]);
    let responses = serve_raw(&stream);
    assert_eq!(responses.len(), 1);
    assert!(
        matches!(
            &responses[0],
            Response::Err {
                code: ErrCode::Protocol,
                ..
            }
        ),
        "got {responses:?}"
    );
}

#[test]
fn zero_length_frame_is_refused_with_a_typed_error() {
    let mut stream = Vec::new();
    stream.extend_from_slice(&0u32.to_le_bytes());
    let responses = serve_raw(&stream);
    assert_eq!(responses.len(), 1);
    assert!(matches!(
        &responses[0],
        Response::Err {
            code: ErrCode::Protocol,
            ..
        }
    ));
}

#[test]
fn request_before_hello_is_refused_and_closed() {
    let mut stream = Vec::new();
    let payload = Request::Ping.encode();
    stream.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    stream.extend_from_slice(&payload);
    // A second request after the offender proves the close: it must
    // never be answered.
    stream.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    stream.extend_from_slice(&payload);
    let responses = serve_raw(&stream);
    assert_eq!(responses.len(), 1, "connection must close after refusal");
    assert!(matches!(
        &responses[0],
        Response::Err {
            code: ErrCode::Protocol,
            ..
        }
    ));
}

#[test]
fn version_mismatch_is_refused_and_closed() {
    let mut stream = Vec::new();
    let payload = Request::Hello {
        version: PROTOCOL_VERSION + 1,
        client: "future".to_string(),
    }
    .encode();
    stream.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    stream.extend_from_slice(&payload);
    let responses = serve_raw(&stream);
    assert_eq!(responses.len(), 1);
    assert!(matches!(
        &responses[0],
        Response::Err {
            code: ErrCode::VersionMismatch,
            ..
        }
    ));
}

#[test]
fn clean_conversation_over_the_wire() {
    // The uncorrupted baseline the corruption tests perturb: hello,
    // add, read-back — driven in single-threaded lockstep (write a
    // request, let the session serve it, read the response) over the
    // raw transport.
    let db = SharedDb::new("conformance", "name");
    let admission = Admission::new(4, 1, db.metrics());
    let (mut client, server_end) = mem_pair();
    let mut session = Session::new(server_end, db, admission);

    let exchange = |client: &mut dyn Transport,
                    session: &mut Session<cdb_server::MemTransport>,
                    req: &Request|
     -> Response {
        write_frame(client, &req.encode()).unwrap();
        session.serve_one();
        let payload = read_frame(client).unwrap().expect("response frame");
        Response::decode(&payload).unwrap()
    };

    let resp = exchange(
        &mut client,
        &mut session,
        &Request::Hello {
            version: PROTOCOL_VERSION,
            client: "t".to_string(),
        },
    );
    let Response::Hello { version, server } = resp else {
        panic!("no hello, got {resp:?}")
    };
    assert_eq!(version, PROTOCOL_VERSION);
    assert_eq!(server, "conformance");

    let resp = exchange(
        &mut client,
        &mut session,
        &Request::Add {
            curator: "alice".to_string(),
            time: 1,
            key: "GABA-A".to_string(),
            fields: vec![("tm".to_string(), Atom::Int(4))],
        },
    );
    assert!(matches!(resp, Response::Node { .. }));

    let resp = exchange(
        &mut client,
        &mut session,
        &Request::GetField {
            key: "GABA-A".to_string(),
            field: "tm".to_string(),
        },
    );
    let Response::Value { epoch, value } = resp else {
        panic!("no value, got {resp:?}")
    };
    assert_eq!(value, Atom::Int(4));
    assert_eq!(epoch, 1);
    assert_eq!(session.pinned().epoch(), 1);
}

#[test]
fn refused_curation_requests_get_typed_errors_and_append_nothing() {
    // Requests the engine refuses outright — a fusion of an entry with
    // itself (once: `Ok`, and the entry was gone), a write naming the
    // key field (once: the tree renamed, the registry not) — answer
    // with their error class, and the WAL never hears of them.
    let db = SharedDb::open(
        "conformance",
        "name",
        Box::new(cdb_storage::MemIo::new()),
        cdb_storage::CheckpointStore::mem(),
        std::time::Duration::ZERO,
    )
    .unwrap();
    db.add_entry("seed", 1, "K", &[("f", Atom::Int(7))])
        .unwrap();
    let admission = Admission::new(4, 1, db.metrics());
    let (mut client, server_end) = mem_pair();
    let mut session = Session::new(server_end, db.clone(), admission);
    let mut exchange = |req: &Request| -> Response {
        write_frame(&mut client, &req.encode()).unwrap();
        session.serve_one();
        let payload = read_frame(&mut client).unwrap().expect("response frame");
        Response::decode(&payload).unwrap()
    };
    let hello = exchange(&Request::Hello {
        version: PROTOCOL_VERSION,
        client: "t".to_string(),
    });
    assert!(matches!(hello, Response::Hello { .. }));
    let wal_before = db.wal_len().expect("durable db has a WAL");

    let refused = [
        (
            Request::Merge {
                curator: "mallory".to_string(),
                time: 2,
                kept: "K".to_string(),
                absorbed: "K".to_string(),
            },
            ErrCode::Lifecycle,
        ),
        (
            Request::Edit {
                curator: "mallory".to_string(),
                time: 3,
                key: "K".to_string(),
                field: "name".to_string(),
                value: Atom::Str("Q".into()),
            },
            ErrCode::BadRequest,
        ),
        (
            Request::Add {
                curator: "mallory".to_string(),
                time: 4,
                key: "L".to_string(),
                fields: vec![("name".to_string(), Atom::Str("K".into()))],
            },
            ErrCode::BadRequest,
        ),
    ];
    for (req, want) in refused {
        let resp = exchange(&req);
        let Response::Err { code, .. } = resp else {
            panic!("{req:?} was not refused: {resp:?}")
        };
        assert_eq!(code, want, "{req:?}");
    }
    assert_eq!(db.wal_len().unwrap(), wal_before, "nothing was appended");
    let snap = db.snapshot();
    assert_eq!(snap.entry_keys().unwrap(), ["K"]);
    assert_eq!(snap.resolve_id("K").unwrap(), ["K"]);
    assert_eq!(snap.field("K", "f").unwrap(), Atom::Int(7));
}

#[test]
fn write_frame_helper_matches_manual_framing() {
    // Guard the manual framing used above against the library helper.
    let (mut a, mut b) = mem_pair();
    let payload = Request::Ping.encode();
    write_frame(&mut a, &payload).unwrap();
    let got = read_frame(&mut b).unwrap().unwrap();
    assert_eq!(got, payload);
}

//! Flight-recorder fault classes.
//!
//! Two invariants from the observability design (DESIGN.md §29):
//!
//! 1. **The black box fires on corruption.** An injected `Corrupt`
//!    recovery — the one storage failure that loses data — must leave
//!    a loadable flight dump in the installed directory, reason
//!    `storage.recovery.corrupt`, whose body parses back to spans.
//! 2. **The dump itself is never torn.** The persist discipline is
//!    temp + fsync + rename; a crash may still leave the dump file
//!    holding any byte prefix of the encoded bytes (torn write on a
//!    misbehaving filesystem) or a stray `flight.tmp`. Enumerating
//!    every cut offset — the same fault model `FaultyIo` applies to
//!    WAL images, applied here to the dump file — `load` must answer
//!    loadable-or-absent: the complete dump, `Ok(None)`, or a
//!    detection `Err`. Never a silently wrong `Ok(Some)`.

use cdb_curation::provstore::StoreMode;
use cdb_obs::flight::{self, FlightDump, DUMP_FILE, TMP_FILE};
use cdb_obs::Metrics;
use cdb_storage::{encode_commit, recover, DurableLog, MemIo, StorageError, FRAME_COMMIT};
use cdb_workload::sessions::{CurationSim, SessionConfig};

use std::path::PathBuf;

/// A private scratch directory under the OS temp dir; removed by
/// the returned guard even when the test panics.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        // pid + per-test tag: unique across parallel test binaries
        // and across this binary's parallel test threads.
        let dir = std::env::temp_dir().join(format!("cdb-flight-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A WAL image whose transaction ids are swapped out of order — the
/// deterministic `Corrupt` trigger (recovery refuses non-monotone
/// ids because they imply a log spliced from different histories).
fn out_of_order_wal() -> MemIo {
    let mut sim = CurationSim::new(
        11,
        StoreMode::Hereditary,
        SessionConfig {
            source_entries: 4,
            fields_per_entry: 2,
            transactions: 3,
            pastes_per_txn: 1,
            edits_per_txn: 1,
            inserts_per_txn: 1,
        },
    );
    sim.run();
    let db = sim.target;
    assert!(db.log().len() >= 2, "simulator must yield two transactions");
    let mut log = DurableLog::create(MemIo::new()).unwrap();
    log.append(FRAME_COMMIT, &encode_commit(&db.log()[1], &[]))
        .unwrap();
    log.append(FRAME_COMMIT, &encode_commit(&db.log()[0], &[]))
        .unwrap();
    log.sync().unwrap();
    log.into_io()
}

/// Invariant 1: corruption triggers the black box. This test is the
/// only one in the binary that `install`s the process-global recorder
/// (install/uninstall bracket it), so parallel siblings cannot race
/// on it — they drive `persist`/`load` on private dirs directly.
#[test]
fn injected_corrupt_recovery_leaves_a_loadable_flight_dump() {
    let scratch = ScratchDir::new("corrupt");
    flight::install(&scratch.0);

    let err = recover("r", StoreMode::Hereditary, out_of_order_wal(), None).unwrap_err();
    assert!(
        matches!(err, StorageError::Corrupt(_)),
        "the swapped WAL must recover as Corrupt, got: {err}"
    );

    let dump = flight::load(&scratch.0)
        .expect("dump must validate")
        .expect("a Corrupt recovery must have persisted a dump");
    assert_eq!(dump.reason, "storage.recovery.corrupt");
    assert!(dump.seq >= 1, "dump sequence starts at one");
    assert!(
        dump.body.contains("\"type\":\"flight\""),
        "body must carry the flight header line"
    );
    dump.spans().expect("the dump's span section must parse");

    flight::uninstall();
}

/// A dump with enough in it that truncations land inside every
/// section: header line, metrics lines, span lines.
fn sample_dump() -> FlightDump {
    let m = Metrics::new();
    m.counter("storage.wal.sync").add(42);
    m.histogram("storage.wal.sync_ns").record(1_000);
    cdb_obs::set_tracing(true);
    {
        let _a = cdb_obs::SpanGuard::enter("test.flight.outer");
        let _b = cdb_obs::SpanGuard::with_attr("test.flight.inner", 7);
    }
    cdb_obs::set_tracing(false);
    FlightDump::capture("test.flight.cut", 3, &m.snapshot())
}

/// Invariant 2, crash cuts: for every byte prefix of the encoded
/// bytes sitting where `flight.dump` should be, `load` detects the
/// tear. Only the complete bytes round-trip.
#[test]
fn every_byte_offset_cut_of_a_dump_is_loadable_or_absent_never_torn() {
    let scratch = ScratchDir::new("cuts");
    let dump = sample_dump();
    let bytes = flight::encode(&dump);
    assert_eq!(
        flight::decode(&bytes).as_ref(),
        Ok(&dump),
        "encode/decode must round-trip before cutting"
    );

    let path = scratch.0.join(DUMP_FILE);
    for cut in 0..bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let res = flight::load(&scratch.0);
        assert!(
            !matches!(res, Ok(Some(_))),
            "cut at byte {cut}/{} must not load as a whole dump: {res:?}",
            bytes.len()
        );
    }
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(
        flight::load(&scratch.0),
        Ok(Some(dump)),
        "the complete bytes must load back exactly"
    );
}

/// Invariant 2, bit rot: the FNV checksum in the header catches every
/// low-bit flip in the payload (and header flips fail parsing or
/// change the claimed length/checksum), so a rotted dump is an `Err`,
/// never wrong data.
#[test]
fn every_single_byte_flip_of_a_dump_is_rejected() {
    let scratch = ScratchDir::new("flips");
    let bytes = flight::encode(&sample_dump());
    let path = scratch.0.join(DUMP_FILE);
    for i in 0..bytes.len() {
        let mut rotted = bytes.clone();
        rotted[i] ^= 0x01;
        std::fs::write(&path, &rotted).unwrap();
        assert!(
            flight::load(&scratch.0).is_err(),
            "flip at byte {i} must be detected"
        );
    }
}

/// Invariant 2, mid-persist crash: a stray `flight.tmp` (any prefix
/// of a new dump, cut before the rename) neither shadows nor damages
/// the previously completed dump; with no completed dump at all the
/// answer is a clean `Ok(None)`.
#[test]
fn a_torn_tmp_file_never_shadows_the_completed_dump() {
    let scratch = ScratchDir::new("tmp");
    let old = sample_dump();
    flight::persist(&scratch.0, &old).unwrap();

    let new_bytes = flight::encode(&FlightDump {
        reason: "test.flight.next".into(),
        seq: 4,
        body: old.body.clone(),
    });
    for cut in [0, 1, new_bytes.len() / 2, new_bytes.len()] {
        std::fs::write(scratch.0.join(TMP_FILE), &new_bytes[..cut]).unwrap();
        assert_eq!(
            flight::load(&scratch.0),
            Ok(Some(old.clone())),
            "tmp cut at {cut} must leave the old dump intact"
        );
    }

    std::fs::remove_file(scratch.0.join(DUMP_FILE)).unwrap();
    assert_eq!(
        flight::load(&scratch.0),
        Ok(None),
        "tmp alone is a cut mid-persist: absent, not an error"
    );
}

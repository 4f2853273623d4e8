//! Fault tests for the page heap: torn record writes at *every byte
//! offset* of the heap, partial-flush (lying disk) faults during
//! checkpoint capture, and bit rot in the heap.
//!
//! The durability claim under test: an acked commit is never lost. The
//! page heap is a cache of the WAL-authoritative state — when a fault
//! leaves the heap unable to serve its checkpoint anchor (the durable
//! prefix is shorter than the anchor watermark, or a record inside it
//! is damaged), recovery falls back to full WAL replay and still lands
//! on exactly the committed state. When the heap *can* serve the
//! anchor, the materialized state is byte-identical to the resident
//! one. There is no third outcome.

use cdb_curation::ops::CuratedTree;
use cdb_curation::provstore::StoreMode;
use cdb_curation::replay::apply_committed;
use cdb_curation::wire::{self, PagedRef};
use cdb_storage::{
    encode_commit, recover, DurableLog, FaultPlan, FaultyIo, Io, MemIo, PagedState, FRAME_COMMIT,
};
use cdb_workload::sessions::{CurationSim, SessionConfig};

fn session(seed: u64, txns: usize) -> CuratedTree {
    let mut sim = CurationSim::new(
        seed,
        StoreMode::Hereditary,
        SessionConfig {
            source_entries: 3,
            fields_per_entry: 2,
            transactions: txns,
            pastes_per_txn: 1,
            edits_per_txn: 2,
            inserts_per_txn: 1,
        },
    );
    sim.run();
    sim.target
}

/// The session as a synced WAL image — the authoritative record every
/// faulted-heap recovery must fall back to.
fn wal_image(db: &CuratedTree) -> Vec<u8> {
    let mut log = DurableLog::create(MemIo::new()).unwrap();
    for txn in db.transactions() {
        log.append(FRAME_COMMIT, &encode_commit(txn, &[])).unwrap();
        log.sync().unwrap();
    }
    log.into_io().bytes().to_vec()
}

/// Captures the whole session into a `PagedState` over `io`,
/// transaction by transaction, so the heap's appends interleave with
/// the captures (the fault plan on `io` fires *during* them, not
/// after). A slot's provenance record is written once it has any
/// (records only accrue in these sessions). Returns the state with
/// everything flushed — the checkpoint capture barrier.
fn capture_session<I: Io>(db: &CuratedTree, io: I) -> PagedState<I> {
    let (mut state, _) = PagedState::open(io, None).unwrap();
    let mut r = CuratedTree::new(db.tree.name(), StoreMode::Hereditary);
    for txn in db.log() {
        apply_committed(&mut r, txn).unwrap();
        for i in 0..wire::arena_len(&r.tree) {
            state.capture_node(&r.tree, i).unwrap();
            if !wire::direct_prov_records(&r.prov, i).is_empty() {
                state.capture_prov(&r.prov, i).unwrap();
            }
        }
    }
    state.flush().unwrap();
    state
}

/// The recovery decision the paged open makes, replayed at storage
/// level: use the heap if (and only if) it fully serves the anchor;
/// otherwise replay the WAL. Asserts the recovered state equals `db`
/// either way — the no-lost-acked-commit property.
fn recover_and_check(db: &CuratedTree, crashed_heap: Vec<u8>, watermark: u64, wal: &[u8]) -> bool {
    let pref = PagedRef {
        heap_len: watermark,
        arena_len: wire::arena_len(&db.tree) as u64,
        root: db.tree.root().index() as u64,
    };
    let anchor = Some((db.tree.name(), StoreMode::Hereditary, pref));
    let heap_ok = match PagedState::open(MemIo::from_bytes(crashed_heap), anchor) {
        Ok((state, Some((tree, prov)))) => {
            // Anchor usable: byte-identical to the resident state.
            assert_eq!(state.heap_len(), watermark);
            assert_eq!(tree, db.tree, "materialized tree diverged");
            assert_eq!(prov, db.prov, "materialized prov diverged");
            true
        }
        _ => false,
    };
    if !heap_ok {
        // Anchor unusable: the WAL is authoritative and complete.
        let (_, rec) = recover(
            "curated",
            StoreMode::Hereditary,
            MemIo::from_bytes(wal.to_vec()),
            None,
        )
        .unwrap();
        assert_eq!(rec.db.tree, db.tree, "WAL fallback lost a commit");
        assert_eq!(rec.db.prov, db.prov, "WAL fallback lost provenance");
    }
    heap_ok
}

/// Torn record writes at every byte offset of the heap: the device
/// silently drops everything at/past the offset during the capture's
/// appends and final flush. For offsets at or past the full
/// image the anchor must survive intact; below it, recovery must fall
/// back to the WAL — and the committed state is identical either way.
#[test]
fn torn_heap_at_every_offset_never_loses_an_acked_commit() {
    let db = session(7, 4);
    let wal = wal_image(&db);

    // Fault-free capture first, to learn the full image and watermark.
    let clean = capture_session(&db, MemIo::new());
    let watermark = clean.heap_len();
    let full = clean.into_io().bytes().to_vec();
    assert_eq!(watermark, full.len() as u64);
    assert!(recover_and_check(&db, full.clone(), watermark, &wal));

    let mut fellback = 0u32;
    for cap in 0..=full.len() as u64 {
        let state = capture_session(
            &db,
            FaultyIo::new(FaultPlan {
                torn_write_at: Some(cap),
                ..FaultPlan::default()
            }),
        );
        // The device lies: logically everything was written.
        assert_eq!(state.heap_len(), watermark, "offset {cap}");
        let crashed = state.into_io().crash();
        assert!(crashed.len() as u64 <= cap.min(watermark));
        let used_heap = recover_and_check(&db, crashed, watermark, &wal);
        if cap < watermark {
            assert!(!used_heap, "torn heap at {cap} must not serve the anchor");
            fellback += 1;
        } else {
            assert!(used_heap, "intact heap at {cap} must serve the anchor");
        }
    }
    assert_eq!(fellback, watermark as u32);
}

/// Partial flushes (a lying disk that persists at most `cap` bytes per
/// sync) during capture: same dichotomy, no third outcome, no lost
/// commit.
#[test]
fn flush_cap_faults_during_capture_never_lose_an_acked_commit() {
    let db = session(11, 4);
    let wal = wal_image(&db);
    let clean = capture_session(&db, MemIo::new());
    let watermark = clean.heap_len();

    for cap in (0..watermark)
        .step_by(37)
        .chain([watermark, watermark + 64])
    {
        let state = capture_session(
            &db,
            FaultyIo::new(FaultPlan {
                flush_cap: Some(cap),
                ..FaultPlan::default()
            }),
        );
        assert_eq!(state.heap_len(), watermark, "cap {cap}");
        let crashed = state.into_io().crash();
        let used_heap = recover_and_check(&db, crashed, watermark, &wal);
        assert_eq!(
            used_heap,
            cap >= watermark,
            "flush cap {cap} of {watermark}: wrong recovery branch"
        );
    }
}

/// Bit rot inside the durable heap prefix: the opening scan refuses
/// the damaged record, the anchor is unusable, and the WAL fallback
/// still recovers everything.
#[test]
fn heap_bit_rot_falls_back_to_the_wal() {
    let db = session(13, 3);
    let wal = wal_image(&db);
    let clean = capture_session(&db, MemIo::new());
    let watermark = clean.heap_len();
    let full = clean.into_io().bytes().to_vec();

    for offset in (8..full.len() as u64).step_by(97) {
        let io = FaultyIo::with_contents(
            full.clone(),
            FaultPlan {
                bit_flips: vec![(offset, 0x40)],
                ..FaultPlan::default()
            },
        );
        let crashed = io.crash();
        // Damage inside the watermarked prefix always forces the WAL
        // path; recover_and_check asserts the state is intact.
        let used_heap = recover_and_check(&db, crashed, watermark, &wal);
        assert!(!used_heap, "bit rot at {offset} went unnoticed");
    }
}

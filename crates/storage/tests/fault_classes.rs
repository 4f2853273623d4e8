//! Deterministic enumeration of every injected fault class.
//!
//! Each test scripts one fault class — crash at a byte offset, torn
//! write, partial flush, bit rot, short reads, checkpoint/log skew —
//! and asserts the recovery invariant: the recovered database equals,
//! structurally and provenance-wise, an in-memory reference built by
//! applying exactly the committed (durably synced, checksum-valid)
//! prefix of the log. No randomness: every offset is enumerated, so a
//! failure here is a unit-test failure with a concrete byte address.

use cdb_curation::ops::CuratedTree;
use cdb_curation::provstore::StoreMode;
use cdb_curation::replay::apply_committed;
use cdb_curation::wire::{decode_checkpoint, encode_checkpoint, encode_transaction, Checkpoint};
use cdb_storage::frame::{encode_frame, CKPT_MAGIC, WAL_MAGIC};
use cdb_storage::{
    encode_commit, recover, CheckpointStore, DurableLog, FaultPlan, FaultyIo, MemIo, PagedState,
    StorageError, FRAME_AUX, FRAME_CKPT, FRAME_COMMIT, FRAME_PAGE,
};
use cdb_workload::sessions::{CurationSim, SessionConfig};

/// A realistic curation session (pastes, edits, inserts, deletes come
/// from the simulator) with a smallish footprint.
fn session() -> CuratedTree {
    let mut sim = CurationSim::new(
        7,
        StoreMode::Hereditary,
        SessionConfig {
            source_entries: 6,
            fields_per_entry: 3,
            transactions: 5,
            pastes_per_txn: 2,
            edits_per_txn: 2,
            inserts_per_txn: 1,
        },
    );
    sim.run();
    sim.target
}

/// Writes the session log as a WAL image, syncing after each frame,
/// and returns the image plus each frame's end offset.
fn wal_image(db: &CuratedTree) -> (Vec<u8>, Vec<u64>) {
    let mut log = DurableLog::create(MemIo::new()).unwrap();
    let mut ends = Vec::new();
    for txn in db.transactions() {
        log.append(FRAME_COMMIT, &encode_commit(txn, &[])).unwrap();
        log.sync().unwrap();
        ends.push(log.len().unwrap());
    }
    (log.into_io().bytes().to_vec(), ends)
}

/// The reference state after the first `n` transactions, built through
/// the same committed-apply path recovery uses.
fn reference(db: &CuratedTree, n: usize) -> CuratedTree {
    let mut r = CuratedTree::new(db.tree.name(), StoreMode::Hereditary);
    for txn in db.log().iter().take(n) {
        apply_committed(&mut r, txn).unwrap();
    }
    r
}

#[test]
fn crash_at_every_byte_offset_recovers_the_committed_prefix() {
    let db = session();
    let (image, ends) = wal_image(&db);
    for cut in 0..=image.len() {
        let committed = ends.iter().filter(|&&e| e <= cut as u64).count();
        let (_, rec) = recover(
            "curated",
            StoreMode::Hereditary,
            MemIo::from_bytes(image[..cut].to_vec()),
            None,
        )
        .unwrap_or_else(|e| panic!("recovery failed at cut {cut}: {e}"));
        assert_eq!(rec.db, reference(&db, committed), "cut at byte {cut}");
        assert_eq!(rec.stats.frames_scanned, committed as u64, "cut {cut}");
    }
}

#[test]
fn torn_write_loses_only_the_tail() {
    let db = session();
    let (image, ends) = wal_image(&db);
    // The lying disk persists nothing at or past the cap, whatever the
    // writer believed: enumerate caps at frame boundaries and straddling
    // them.
    for &end in &ends {
        for delta in [0i64, -1, 1, 5] {
            let cap = end.saturating_add_signed(delta).min(image.len() as u64);
            let mut io = FaultyIo::new(FaultPlan {
                torn_write_at: Some(cap),
                ..FaultPlan::default()
            });
            let mut log = DurableLog::create(io).unwrap();
            for txn in db.transactions() {
                log.append(FRAME_COMMIT, &encode_commit(txn, &[])).unwrap();
                log.sync().unwrap();
            }
            io = log.into_io();
            let crashed = io.crash();
            let committed = ends.iter().filter(|&&e| e <= cap).count();
            let (_, rec) = recover(
                "curated",
                StoreMode::Hereditary,
                MemIo::from_bytes(crashed),
                None,
            )
            .unwrap();
            assert_eq!(rec.db, reference(&db, committed), "torn at {cap}");
        }
    }
}

#[test]
fn partial_flush_then_crash_keeps_a_clean_prefix() {
    let db = session();
    let (_, ends) = wal_image(&db);
    // Each flush persists at most 64 bytes, so most of each sync's
    // data is still in the cache when the crash hits.
    for flushes_before_crash in [1u32, 2, 3, 5] {
        let mut log = DurableLog::create(FaultyIo::new(FaultPlan {
            flush_cap: Some(64),
            ..FaultPlan::default()
        }))
        .unwrap();
        let mut flushes = 0;
        for txn in db.transactions() {
            log.append(FRAME_COMMIT, &encode_commit(txn, &[])).unwrap();
            if flushes < flushes_before_crash {
                log.sync().unwrap();
                flushes += 1;
            }
        }
        let crashed = log.into_io().crash();
        let durable = crashed.len() as u64;
        let committed = ends.iter().filter(|&&e| e <= durable).count();
        let (_, rec) = recover(
            "curated",
            StoreMode::Hereditary,
            MemIo::from_bytes(crashed),
            None,
        )
        .unwrap();
        assert_eq!(
            rec.db,
            reference(&db, committed),
            "crash after {flushes_before_crash} capped flushes"
        );
    }
}

#[test]
fn bit_rot_at_every_offset_truncates_at_the_rotten_frame() {
    let db = session();
    let (image, ends) = wal_image(&db);
    // Flipping any bit of frame k must recover exactly the first k
    // transactions. Stride 3 over offsets keeps the test fast while
    // still touching every frame's header, payload, and checksum.
    for offset in (8..image.len()).step_by(3) {
        let io = FaultyIo::with_contents(
            image.clone(),
            FaultPlan {
                bit_flips: vec![(offset as u64, 0x10)],
                ..FaultPlan::default()
            },
        );
        let crashed = io.crash();
        let rotten_frame = ends.iter().filter(|&&e| e <= offset as u64).count();
        let (_, rec) = recover(
            "curated",
            StoreMode::Hereditary,
            MemIo::from_bytes(crashed),
            None,
        )
        .unwrap();
        assert_eq!(rec.db, reference(&db, rotten_frame), "rot at byte {offset}");
        assert_eq!(rec.stats.frames_dropped, 1, "rot at byte {offset}");
        assert!(rec.stats.bytes_dropped > 0, "rot at byte {offset}");
    }
}

#[test]
fn short_reads_during_recovery_change_nothing() {
    let db = session();
    let (image, _) = wal_image(&db);
    let (_, clean) = recover(
        "curated",
        StoreMode::Hereditary,
        MemIo::from_bytes(image.clone()),
        None,
    )
    .unwrap();
    for chunk in [1usize, 2, 7, 64] {
        let io = FaultyIo::with_contents(
            image.clone(),
            FaultPlan {
                short_read_chunk: Some(chunk),
                ..FaultPlan::default()
            },
        );
        let (_, rec) = recover("curated", StoreMode::Hereditary, io, None).unwrap();
        assert_eq!(rec.db, clean.db, "short-read chunk {chunk}");
    }
}

/// A checkpoint in truncated form (it carries an archive, opaque at
/// this layer) after any transaction skips the frames it covers and
/// replays only the tail onto its state. The same snapshot without an
/// archive (the full form) reads as absent: the log replays from empty.
#[test]
fn checkpoint_shortens_replay_without_changing_the_result() {
    let db = session();
    let (image, ends) = wal_image(&db);
    for ckpt_at in 0..=db.log().len() {
        let snap = reference(&db, ckpt_at);
        let covered = ckpt_at
            .checked_sub(1)
            .map_or(WAL_MAGIC.len() as u64, |i| ends[i]);
        for truncated in [true, false] {
            let (tree, prov) = (snap.tree.clone(), snap.prov.clone());
            let mut ck = Checkpoint::basic(snap.last_txn_id(), covered, tree, prov);
            if truncated {
                ck.archive = b"archive".to_vec();
            }
            let mut store = CheckpointStore::mem();
            store.install(&ck).unwrap();
            let ck = store.load().unwrap();
            let (_, rec) = recover(
                "curated",
                StoreMode::Hereditary,
                MemIo::from_bytes(image.clone()),
                ck,
            )
            .unwrap();
            let at = format!("checkpoint after txn {ckpt_at}, truncated {truncated}");
            assert_eq!((&rec.db.tree, &rec.db.prov), (&db.tree, &db.prov), "{at}");
            assert_eq!(rec.stats.used_checkpoint, truncated, "{at}");
            let replayed = if truncated { ckpt_at } else { 0 };
            assert_eq!(
                rec.db.transactions()[..],
                db.transactions()[replayed..],
                "{at}"
            );
            assert_eq!(rec.stats.frames_skipped, replayed as u64, "{at}");
            let tail = (db.log().len() - replayed) as u64;
            assert_eq!(rec.stats.txns_replayed, tail, "{at}");
        }
    }
}

#[test]
fn failed_flush_means_the_transaction_never_committed() {
    let db = session();
    let mut log = DurableLog::create(FaultyIo::new(FaultPlan {
        fail_flush: Some(3), // counting the header flush at create()
        ..FaultPlan::default()
    }))
    .unwrap();
    let mut committed = 0usize;
    for txn in db.transactions() {
        log.append(FRAME_COMMIT, &encode_commit(txn, &[])).unwrap();
        if log.sync().is_ok() {
            committed += 1;
        } else {
            break; // the writer stops at the first failed commit
        }
    }
    let crashed = log.into_io().crash();
    let (_, rec) = recover(
        "curated",
        StoreMode::Hereditary,
        MemIo::from_bytes(crashed),
        None,
    )
    .unwrap();
    assert_eq!(rec.db, reference(&db, committed));
}

#[test]
fn fault_classes_surface_as_distinct_error_counters() {
    // Each injected fault class must land in its own counter in the
    // process-global registry. Deltas are asserted with `>=`: tests in
    // this binary run in parallel and other threads may bump the same
    // process-global counters concurrently.
    let g = cdb_obs::global();
    let sync_failed = g.counter("storage.error.sync_failed");
    let append_failed = g.counter("storage.error.append_failed");
    let torn_tail = g.counter("storage.error.torn_tail");

    // Failed sync: flush #1 is the header flush in create(), so #2 is
    // the first commit attempt.
    let before = sync_failed.get();
    let mut log = DurableLog::create(FaultyIo::new(FaultPlan {
        fail_flush: Some(2),
        ..FaultPlan::default()
    }))
    .unwrap();
    log.append(FRAME_AUX, b"doomed").unwrap();
    assert!(log.sync().is_err());
    assert!(
        sync_failed.get() > before,
        "a failed sync must bump storage.error.sync_failed"
    );

    // Failed append: device append #1 is the header in create(), so #2
    // is the first frame.
    let before = append_failed.get();
    let mut log = DurableLog::create(FaultyIo::new(FaultPlan {
        fail_append: Some(2),
        ..FaultPlan::default()
    }))
    .unwrap();
    assert!(log.append(FRAME_AUX, b"doomed").is_err());
    assert!(
        append_failed.get() > before,
        "a failed append must bump storage.error.append_failed"
    );

    // Torn tail: bit rot drops exactly one frame during recovery.
    let db = session();
    let (image, _) = wal_image(&db);
    let before = torn_tail.get();
    let rotten = FaultyIo::with_contents(
        image,
        FaultPlan {
            bit_flips: vec![(20, 0x10)],
            ..FaultPlan::default()
        },
    )
    .crash();
    let (_, rec) = recover(
        "curated",
        StoreMode::Hereditary,
        MemIo::from_bytes(rotten),
        None,
    )
    .unwrap();
    assert_eq!(rec.stats.frames_dropped, 1);
    assert!(
        torn_tail.get() > before,
        "dropped frames must bump storage.error.torn_tail"
    );
}

#[test]
fn retired_forms_are_refused_never_adopted() {
    // Each row is a durable form this engine no longer writes. Opening
    // one must fail, or for a checkpoint read as absent (recovery then
    // replays the log) — never decode into state.
    let db = session();
    let ck = Checkpoint::basic(db.last_txn_id(), 0, db.tree.clone(), db.prov.clone());
    let current = encode_checkpoint(&ck);
    // The untagged v1 payload was the core fields alone: today's
    // payload minus its tag and minus what follows the provenance store
    // in a basic checkpoint at watermark 0 (covered_len 8 + last_time 8
    // + paged 1 + two empty chunk lists 8 + an empty archive 4 = 29
    // bytes).
    let (core, rest) = current.split_at(current.len() - 29);
    assert!(
        rest.iter().all(|&b| b == 0),
        "a basic checkpoint ends in 29 zero bytes"
    );
    let v1 = core[1..].to_vec();
    let retagged = |tag: u8| [&[tag], &current[1..]].concat();
    // Tag 4 carried one exported snapshot per release where later tags
    // carry the encoded archive. Tag 5 carried an optional watermark
    // and the covered transaction log, here empty.
    let v5 = [&[5u8][..], &core[1..], &[1], &[0; 8 + 8 + 1 + 4 * 4]].concat();
    let checkpoints = [
        ("v1", v1),
        ("v2 tag", retagged(2)),
        ("v3 tag", retagged(3)),
        ("v4 tag", retagged(4)),
        ("v5", v5),
    ];
    for (form, payload) in checkpoints {
        assert!(
            decode_checkpoint(&payload).is_err(),
            "{form} payload decoded"
        );
        let mut slot = CKPT_MAGIC.to_vec();
        slot.extend_from_slice(&encode_frame(
            FRAME_CKPT,
            &[&1u64.to_le_bytes(), payload.as_slice()].concat(),
        ));
        let mut store =
            CheckpointStore::slots(Box::new(MemIo::from_bytes(slot)), Box::new(MemIo::new()));
        assert_eq!(store.load().unwrap(), None, "{form} checkpoint loaded");
    }

    // A WAL holding a kind-1 frame: a bare transaction.
    let mut wal = WAL_MAGIC.to_vec();
    wal.extend_from_slice(&encode_frame(1, &encode_transaction(&db.log()[0])));
    let err = recover(
        "curated",
        StoreMode::Hereditary,
        MemIo::from_bytes(wal),
        None,
    )
    .expect_err("kind-1 frame adopted");
    assert!(matches!(err, StorageError::Corrupt(_)), "{err}");

    // A heap under the old magic, holding one old-layout record
    // (page id, version, len, crc, payload).
    let mut heap = b"CDBPGH01".to_vec();
    for word in [7u64, 1] {
        heap.extend_from_slice(&word.to_le_bytes());
    }
    heap.extend_from_slice(&4u32.to_le_bytes());
    heap.extend_from_slice(&0u32.to_le_bytes());
    heap.extend_from_slice(b"page");
    // A heap under the page-table magic, holding one chunked-page
    // record (page id, then the object's length prefix and bytes).
    let mut paged = b"CDBPGH02".to_vec();
    let page = [&7u64.to_le_bytes()[..], &4u32.to_le_bytes(), b"page"].concat();
    paged.extend_from_slice(&encode_frame(FRAME_PAGE, &page));
    for heap in [heap, paged] {
        let bytes = MemIo::from_bytes(heap.clone());
        let err = PagedState::open(bytes, None).expect_err("old heap opened");
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
    }
}

//! Randomized crash-recovery testing: arbitrary curation sessions from
//! `cdb-workload`, crashed at arbitrary byte offsets, frame boundaries,
//! and under every injected fault class — the recovered `TreeDb` and
//! `ProvStore` must equal an in-memory reference built by applying
//! exactly the committed prefix of the log.
//!
//! Three properties × 256 cases each (PROPTEST_CASES overrides). The
//! proptest shim derives each case's inputs from a deterministic seed,
//! so any failure reproduces exactly, fault offsets included.

use std::collections::BTreeMap;

use cdb_curation::ops::CuratedTree;
use cdb_curation::provstore::StoreMode;
use cdb_curation::replay::apply_committed;
use cdb_curation::wire::Checkpoint;
use cdb_storage::{
    encode_commit, encode_decide, encode_prepare, recover, recover_shards, recover_with,
    scan_decisions, CheckpointStore, DecideRecord, DurableLog, FaultPlan, FaultyIo, MemIo,
    PrepareRecord, Retention, SegmentConfig, SegmentedIo, FRAME_AUX, FRAME_COMMIT, FRAME_DECIDE,
    FRAME_PREPARE,
};
use cdb_workload::sessions::{CurationSim, SessionConfig};
use proptest::prelude::*;

fn session(seed: u64, mode: StoreMode, txns: usize, pastes: usize, edits: usize) -> CuratedTree {
    let mut sim = CurationSim::new(
        seed,
        mode,
        SessionConfig {
            source_entries: 3,
            fields_per_entry: 2,
            transactions: txns,
            pastes_per_txn: pastes,
            edits_per_txn: edits,
            inserts_per_txn: 1,
        },
    );
    sim.run();
    sim.target
}

/// The session log as a WAL image (synced after every frame) plus each
/// frame's end offset.
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

/// In-memory reference: the state after the first `n` transactions,
/// built through the same committed-apply path recovery uses.
fn reference(db: &CuratedTree, mode: StoreMode, n: usize) -> CuratedTree {
    let mut r = CuratedTree::new(db.tree.name(), mode);
    for txn in db.log().iter().take(n) {
        apply_committed(&mut r, txn).unwrap();
    }
    r
}

/// A checkpoint in truncated form (it carries an archive, opaque at
/// this layer) of the state after `k` transactions, its watermark the
/// end of the `k`th frame (`ends` as [`wal_image`] gives them),
/// round-tripped through its on-disk encoding.
fn checkpoint_after(
    db: &CuratedTree,
    mode: StoreMode,
    ends: &[u64],
    k: usize,
) -> Option<Checkpoint> {
    let snap = reference(db, mode, k);
    let covered = k.checked_sub(1).map_or(8, |i| ends[i]);
    let mut ck = Checkpoint::basic(snap.last_txn_id(), covered, snap.tree, snap.prov);
    ck.archive = b"archive".to_vec();
    let mut store = CheckpointStore::mem();
    store.install(&ck).unwrap();
    store.load().unwrap()
}

fn mode_of(naive: bool) -> StoreMode {
    if naive {
        StoreMode::Naive
    } else {
        StoreMode::Hereditary
    }
}

proptest! {
    /// Crash at an arbitrary byte offset, with an arbitrary checkpoint
    /// (possibly ahead of the surviving log — recovery must discard
    /// it): the recovered tree and provenance store equal the
    /// committed-prefix reference, exactly, and the log is its tail
    /// after the checkpoint, or all of it when the checkpoint was
    /// discarded.
    #[test]
    fn arbitrary_crash_offsets_recover_the_committed_prefix(
        seed in 0u64..1_000_000,
        naive in any::<bool>(),
        txns in 1usize..6,
        pastes in 0usize..3,
        edits in 0usize..3,
        cut_sel in 0usize..100_000,
        ckpt_at in 0usize..6,
    ) {
        let mode = mode_of(naive);
        let db = session(seed, mode, txns, pastes, edits);
        let (image, ends) = wal_image(&db);
        let cut = 8 + cut_sel % (image.len() - 7);
        let committed = ends.iter().filter(|&&e| e <= cut as u64).count();

        let ckpt_at = ckpt_at.min(db.log().len());
        let ck = checkpoint_after(&db, mode, &ends, ckpt_at);
        prop_assert!(ck.is_some());

        let (_, rec) = recover(
            "curated",
            mode,
            MemIo::from_bytes(image[..cut].to_vec()),
            ck,
        )
        .unwrap();
        let expect = reference(&db, mode, committed);
        prop_assert_eq!(&rec.db.tree, &expect.tree);
        prop_assert_eq!(&rec.db.prov, &expect.prov);
        // The checkpoint is used exactly when the surviving log covers it.
        let used = ckpt_at <= committed;
        prop_assert_eq!(rec.stats.used_checkpoint, used);
        prop_assert_eq!(rec.stats.frames_scanned, committed as u64);
        if used {
            let tail = &expect.transactions()[ckpt_at..];
            prop_assert_eq!(&rec.db.transactions()[..], tail);
            prop_assert_eq!(rec.db.last_txn_id(), expect.last_txn_id());
        } else {
            prop_assert_eq!(&rec.db, &expect);
        }
    }

    /// Crash exactly at every frame boundary of the session (plus the
    /// bare header): each recovery yields precisely that many
    /// transactions, ids and provenance intact.
    #[test]
    fn every_frame_boundary_crash_is_exact(
        seed in 0u64..1_000_000,
        naive in any::<bool>(),
        txns in 1usize..5,
        pastes in 0usize..3,
    ) {
        let mode = mode_of(naive);
        let db = session(seed, mode, txns, pastes, 2);
        let (image, ends) = wal_image(&db);
        let mut cuts = vec![8u64];
        cuts.extend_from_slice(&ends);
        for (i, &cut) in cuts.iter().enumerate() {
            let (_, rec) = recover(
                "curated",
                mode,
                MemIo::from_bytes(image[..cut as usize].to_vec()),
                None,
            )
            .unwrap();
            let expect = reference(&db, mode, i);
            prop_assert_eq!(&rec.db, &expect, "boundary {}", i);
            prop_assert_eq!(rec.stats.frames_dropped, 0);
            prop_assert_eq!(rec.stats.bytes_dropped, 0);
        }
    }

    /// Injected fault classes — torn writes, bit rot, short reads,
    /// partial flushes — at proptest-scripted offsets: recovery always
    /// reconstructs the committed (durable, checksum-valid) prefix.
    #[test]
    fn injected_faults_never_corrupt_recovery(
        seed in 0u64..1_000_000,
        naive in any::<bool>(),
        txns in 1usize..5,
        fault in 0usize..4,
        a in 0usize..100_000,
        bit in 0u8..8,
    ) {
        let mode = mode_of(naive);
        let db = session(seed, mode, txns, 1, 2);
        let (image, ends) = wal_image(&db);

        let (crashed, committed) = match fault {
            // Torn write: the device silently drops bytes at/past a cap.
            0 => {
                let cap = (8 + a % (image.len() - 7)) as u64;
                let mut log = DurableLog::create(FaultyIo::new(FaultPlan {
                    torn_write_at: Some(cap),
                    ..FaultPlan::default()
                }))
                .unwrap();
                for txn in db.transactions() {
                    log.append(FRAME_COMMIT, &encode_commit(txn, &[])).unwrap();
                    log.sync().unwrap();
                }
                let crashed = log.into_io().crash();
                (crashed, ends.iter().filter(|&&e| e <= cap).count())
            }
            // Bit rot at a scripted offset.
            1 => {
                let offset = (8 + a % (image.len() - 8)) as u64;
                let io = FaultyIo::with_contents(
                    image.clone(),
                    FaultPlan {
                        bit_flips: vec![(offset, 1 << bit)],
                        ..FaultPlan::default()
                    },
                );
                (io.crash(), ends.iter().filter(|&&e| e <= offset).count())
            }
            // Short reads: recovery must be unaffected entirely.
            2 => (image.clone(), db.log().len()),
            // Partial flush: each sync persists at most `cap` bytes.
            _ => {
                let cap = (16 + a % 256) as u64;
                let mut log = DurableLog::create(FaultyIo::new(FaultPlan {
                    flush_cap: Some(cap),
                    ..FaultPlan::default()
                }))
                .unwrap();
                for txn in db.transactions() {
                    log.append(FRAME_COMMIT, &encode_commit(txn, &[])).unwrap();
                    log.sync().unwrap();
                }
                let crashed = log.into_io().crash();
                let durable = crashed.len() as u64;
                (crashed, ends.iter().filter(|&&e| e <= durable).count())
            }
        };

        let io = FaultyIo::with_contents(
            crashed,
            FaultPlan {
                short_read_chunk: if fault == 2 { Some(1 + a % 7) } else { None },
                ..FaultPlan::default()
            },
        );
        let (_, rec) = recover("curated", mode, io, None).unwrap();
        let expect = reference(&db, mode, committed);
        prop_assert_eq!(&rec.db.tree, &expect.tree, "fault class {}", fault);
        prop_assert_eq!(&rec.db.prov, &expect.prov, "fault class {}", fault);
        prop_assert_eq!(&rec.db, &expect, "fault class {}", fault);
    }

    /// Segmented logs crossing rotations: under Reclaim a checkpoint
    /// with a coverage watermark retires the covered segments, and
    /// under KeepAll, which keeps every one live, there is no
    /// checkpoint; recovery over the surviving device still equals the
    /// full-replay oracle, tree and provenance alike.
    #[test]
    fn segment_retirement_preserves_the_replay_oracle(
        seed in 0u64..1_000_000,
        naive in any::<bool>(),
        txns in 4usize..10,
        pastes in 0usize..3,
        reclaim in any::<bool>(),
        ckpt_sel in 0usize..100,
    ) {
        let mode = mode_of(naive);
        let db = session(seed, mode, txns, pastes, 2);
        let cfg = SegmentConfig {
            // Tiny segments so every session crosses several rotations.
            segment_bytes: 512,
            retention: if reclaim { Retention::Reclaim } else { Retention::KeepAll },
        };
        let (io, backing) = SegmentedIo::mem(cfg).unwrap();
        let mut log = DurableLog::create(io).unwrap();
        let ckpt_at = 1 + ckpt_sel % db.log().len();
        let mut ck = None;
        for (i, txn) in db.transactions().iter().enumerate() {
            log.append(FRAME_COMMIT, &encode_commit(txn, &[])).unwrap();
            log.sync().unwrap();
            if reclaim && i + 1 == ckpt_at {
                let covered = log.len().unwrap();
                let snap = reference(&db, mode, ckpt_at);
                let mut c = Checkpoint::basic(snap.last_txn_id(), covered, snap.tree, snap.prov);
                // The truncated form: it carries an archive (opaque at
                // this layer) in place of the log it cuts.
                c.archive = b"archive".to_vec();
                log.reclaim(covered).unwrap();
                ck = Some(c);
            }
        }
        let final_len = log.len().unwrap();
        drop(log);
        if final_len > 2 * cfg.segment_bytes {
            let rotated = backing.live_seqs().last().copied().unwrap_or(0) > 0;
            prop_assert!(rotated, "a {final_len}-byte log must have rotated");
        }
        if !reclaim {
            // KeepAll: every segment stays live, the WAL holds it all.
            prop_assert_eq!(backing.live_seqs().first().copied(), Some(0));
            prop_assert!(backing.live_bytes() >= final_len);
        }

        let io = SegmentedIo::open(Box::new(backing.crash()), cfg).unwrap();
        let (_, rec) = recover("curated", mode, io, ck).unwrap();
        prop_assert_eq!(rec.stats.used_checkpoint, reclaim);
        let expect = reference(&db, mode, db.log().len());
        prop_assert_eq!(&rec.db.tree, &expect.tree, "retention {:?}", cfg.retention);
        prop_assert_eq!(&rec.db.prov, &expect.prov, "retention {:?}", cfg.retention);
        if !reclaim {
            // The whole log read from the WAL.
            prop_assert_eq!(&rec.db, &expect);
        } else {
            // Truncated form: history before the checkpoint is gone by
            // design, but the tail is intact and anchored.
            prop_assert_eq!(rec.db.log().len(), db.log().len() - ckpt_at);
            prop_assert_eq!(rec.db.last_txn_id(), expect.last_txn_id());
        }
    }
    /// Parallel N-shard recovery ([`recover_shards`]) is byte-identical
    /// to recovering the shards sequentially under the same merged
    /// decision context, under random torn tails per shard — healed log
    /// bytes, recovered databases, decision records, in-doubt
    /// resolutions, and gid watermarks all equal. This is the
    /// equivalence promise `recover_shards`'s docs cite.
    #[test]
    fn parallel_shard_recovery_equals_sequential(
        seed in 0u64..1_000_000,
        naive in any::<bool>(),
        nshards in 2usize..5,
        txns in 1usize..4,
        cut_seed in 0u64..1_000_000_000,
    ) {
        let mode = mode_of(naive);
        let images: Vec<Vec<u8>> = (0..nshards)
            .map(|i| {
                let db = session(seed.wrapping_add(i as u64 * 7919), mode, txns, 1, 2);
                twopc_image(&db, i, nshards)
            })
            .collect();

        // Full images resolve the 2PC fixture as built: gid 1 committed
        // everywhere, gid 2 aborted everywhere (decision on the
        // coordinator only — the others resolve through the merged
        // context).
        let full = recover_shards(
            "curated",
            mode,
            images.iter().map(|im| (MemIo::from_bytes(im.clone()), None)).collect(),
            &BTreeMap::new(),
        )
        .unwrap();
        for (i, (_, rec)) in full.iter().enumerate() {
            let committed = format!("cross-1-{i}").into_bytes();
            let aborted = format!("cross-2-{i}").into_bytes();
            prop_assert!(rec.aux.contains(&committed), "shard {} lost gid 1", i);
            prop_assert!(!rec.aux.contains(&aborted), "shard {} applied aborted gid 2", i);
        }

        // Random torn tail per shard, all derived from one seed.
        let mut r = cut_seed | 1;
        let cut_images: Vec<Vec<u8>> = images
            .iter()
            .map(|img| {
                r = r.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let cut = 8 + (r >> 33) as usize % (img.len() - 7);
                img[..cut].to_vec()
            })
            .collect();

        for imgs in [images, cut_images] {
            // The sequential oracle: the same two phases, no threads.
            let mut ctx = BTreeMap::new();
            for img in &imgs {
                let mut io = MemIo::from_bytes(img.clone());
                ctx.extend(scan_decisions(&mut io).unwrap());
            }
            let seq: Vec<_> = imgs
                .iter()
                .map(|img| {
                    let (log, rec) =
                        recover_with("curated", mode, MemIo::from_bytes(img.clone()), None, &ctx)
                            .unwrap();
                    (log.into_io().bytes().to_vec(), rec)
                })
                .collect();

            let par = recover_shards(
                "curated",
                mode,
                imgs.iter().map(|im| (MemIo::from_bytes(im.clone()), None)).collect(),
                &BTreeMap::new(),
            )
            .unwrap();

            for (i, ((sbytes, srec), (plog, prec))) in seq.iter().zip(par.into_iter()).enumerate() {
                let pbytes = plog.into_io().bytes().to_vec();
                prop_assert_eq!(&pbytes, sbytes, "shard {} healed log bytes differ", i);
                prop_assert_eq!(&prec.db, &srec.db, "shard {} databases differ", i);
                prop_assert_eq!(&prec.decisions, &srec.decisions, "shard {} decisions differ", i);
                prop_assert_eq!(&prec.resolved, &srec.resolved, "shard {} resolutions differ", i);
                prop_assert_eq!(prec.max_gid, srec.max_gid, "shard {} gid watermarks differ", i);
            }
        }
    }
}

/// One shard's WAL for the parallel-recovery equivalence test: its
/// session history, then two cross-shard transactions journaled the way
/// `ShardedDb` would — gid 1 prepared everywhere and decided commit,
/// gid 2 prepared everywhere but decided (abort) only on the
/// coordinator, leaving the rest in doubt.
fn twopc_image(db: &CuratedTree, shard: usize, nshards: usize) -> Vec<u8> {
    let mut log = DurableLog::create(MemIo::new()).unwrap();
    for txn in db.transactions() {
        log.append(FRAME_COMMIT, &encode_commit(txn, &[])).unwrap();
        log.sync().unwrap();
    }
    let parts: Vec<u32> = (0..nshards as u32).collect();
    let prep = |gid: u64| PrepareRecord {
        gid,
        coordinator: 0,
        participants: parts.clone(),
        frames: vec![(FRAME_AUX, format!("cross-{gid}-{shard}").into_bytes())],
    };
    log.append(FRAME_PREPARE, &encode_prepare(&prep(1)))
        .unwrap();
    log.sync().unwrap();
    log.append(
        FRAME_DECIDE,
        &encode_decide(&DecideRecord {
            gid: 1,
            commit: true,
        }),
    )
    .unwrap();
    log.sync().unwrap();
    log.append(FRAME_PREPARE, &encode_prepare(&prep(2)))
        .unwrap();
    log.sync().unwrap();
    if shard == 0 {
        log.append(
            FRAME_DECIDE,
            &encode_decide(&DecideRecord {
                gid: 2,
                commit: false,
            }),
        )
        .unwrap();
        log.sync().unwrap();
    }
    log.into_io().bytes().to_vec()
}

/// Regression for `Retention::Reclaim` + page-granular checkpoints:
/// once a paged checkpoint's watermark retires (deletes) the covered
/// WAL segments, the heap + anchor are the *only* record of the
/// covered history — recovery must materialize the anchor from pages,
/// decode the archive it carries, replay the live tail, and reproduce
/// the pre-crash state exactly, published versions included.
#[test]
fn reclaim_with_paged_checkpoints_recovers_from_retired_segments() {
    use std::sync::{Arc, Mutex};

    use cdb_core::CuratedDatabase;
    use cdb_model::Atom;
    use cdb_storage::{CheckpointStore, FaultyIo, Io, StorageError};

    /// A shared device: the database owns one handle, the checker
    /// photographs the durable image after the "crash".
    #[derive(Debug, Clone)]
    struct SharedDev(Arc<Mutex<FaultyIo>>);
    impl SharedDev {
        fn new() -> Self {
            SharedDev(Arc::new(Mutex::new(FaultyIo::new(FaultPlan::default()))))
        }
        fn durable(&self) -> Vec<u8> {
            self.0.lock().unwrap().durable_image()
        }
    }
    impl Io for SharedDev {
        fn len(&self) -> Result<u64, StorageError> {
            self.0.lock().unwrap().len()
        }
        fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, StorageError> {
            self.0.lock().unwrap().read_at(offset, buf)
        }
        fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
            self.0.lock().unwrap().append(bytes)
        }
        fn flush(&mut self) -> Result<(), StorageError> {
            self.0.lock().unwrap().flush()
        }
        fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
            self.0.lock().unwrap().truncate(len)
        }
    }

    let cfg = SegmentConfig {
        segment_bytes: 512,
        retention: Retention::Reclaim,
    };
    let (io, backing) = SegmentedIo::mem(cfg).unwrap();
    let heap = SharedDev::new();
    let (s1, s2) = (SharedDev::new(), SharedDev::new());
    let mut db = CuratedDatabase::open_paged(
        "paged-reclaim",
        "id",
        Box::new(io),
        CheckpointStore::slots(Box::new(s1.clone()), Box::new(s2.clone())),
        Box::new(heap.clone()),
        0,
    )
    .unwrap();
    db.set_retention(Retention::Reclaim);

    for i in 0..24u64 {
        db.add_entry(
            "curator",
            i + 1,
            &format!("k{i}"),
            &[("f", Atom::Int(i as i64))],
        )
        .unwrap();
    }
    db.publish("v0").unwrap();
    let stats = db.checkpoint().unwrap();
    assert!(
        stats.retired_segments >= 1,
        "the paged checkpoint must retire covered segments (got {stats:?})"
    );
    // Live history after the reclaim: only the tail below survives in
    // the WAL; everything above exists solely as pages + anchor. A
    // second checkpoint cuts again between two more releases, so the
    // archive it carries is one that a reopen decoded and extended.
    for i in 24..36u64 {
        db.add_entry(
            "curator",
            i + 1,
            &format!("k{i}"),
            &[("f", Atom::Int(i as i64))],
        )
        .unwrap();
        if i == 29 {
            db.publish("v1").unwrap();
            db.checkpoint().unwrap();
        }
    }
    db.publish("v2").unwrap();
    let before_export = db.export().unwrap();
    let before_last = db.curated.last_txn_id();
    let before_keys = db.entry_keys().unwrap();
    let before_versions: Vec<_> = (0..3).map(|v| db.version(v).unwrap()).collect();
    let before_archive = db.archive().encode();
    drop(db);

    let io = SegmentedIo::open(Box::new(backing.crash()), cfg).unwrap();
    let re = CuratedDatabase::open_paged(
        "paged-reclaim",
        "id",
        Box::new(io),
        CheckpointStore::slots(
            Box::new(MemIo::from_bytes(s1.durable())),
            Box::new(MemIo::from_bytes(s2.durable())),
        ),
        Box::new(MemIo::from_bytes(heap.durable())),
        0,
    )
    .unwrap();
    assert_eq!(re.export().unwrap(), before_export);
    assert_eq!(re.curated.last_txn_id(), before_last);
    assert_eq!(re.entry_keys().unwrap(), before_keys);
    assert!(
        re.curated.base_txn_id().is_some(),
        "a reclaiming paged checkpoint recovers in truncated form"
    );
    assert_eq!(re.archive().version_count(), 3, "a published version lost");
    for (v, before) in (0..).zip(&before_versions) {
        assert_eq!(&re.version(v).unwrap(), before);
    }
    assert_eq!(re.archive().encode(), before_archive);
}

/// A long history over many segments, checkpointed and truncated along
/// the way: recovery must scan only the live tail — strictly fewer
/// bytes than two segments — and still land on the oracle state. This
/// is the bounded-recovery guarantee `scripts/check.sh` smokes.
#[test]
fn long_history_recovery_scans_a_bounded_tail() {
    let mode = StoreMode::Hereditary;
    let db = session(42, mode, 48, 2, 2);
    let cfg = SegmentConfig {
        segment_bytes: 1024,
        retention: Retention::Reclaim,
    };
    let (io, backing) = SegmentedIo::mem(cfg).unwrap();
    let mut log = DurableLog::create(io).unwrap();
    let mut ck = None;
    for (i, txn) in db.transactions().iter().enumerate() {
        log.append(FRAME_COMMIT, &encode_commit(txn, &[])).unwrap();
        log.sync().unwrap();
        if (i + 1) % 8 == 0 {
            let covered = log.len().unwrap();
            let snap = reference(&db, mode, i + 1);
            let mut c = Checkpoint::basic(snap.last_txn_id(), covered, snap.tree, snap.prov);
            c.archive = b"archive".to_vec();
            log.reclaim(covered).unwrap();
            ck = Some(c);
        }
    }
    let total = log.len().unwrap();
    assert!(
        total > 4 * cfg.segment_bytes,
        "history must span many segments (got {total} logical bytes)"
    );
    drop(log);

    let io = SegmentedIo::open(Box::new(backing.crash()), cfg).unwrap();
    let (_, rec) = recover("curated", mode, io, ck).unwrap();
    let expect = reference(&db, mode, db.log().len());
    assert_eq!(rec.db.tree, expect.tree);
    assert_eq!(rec.db.prov, expect.prov);
    assert!(
        rec.stats.bytes_scanned < 2 * cfg.segment_bytes,
        "recovery scanned {} bytes, expected < {} (2 segments)",
        rec.stats.bytes_scanned,
        2 * cfg.segment_bytes
    );
    assert!(
        rec.stats.live_segments < 4,
        "retirement must bound live segments (got {})",
        rec.stats.live_segments
    );
}

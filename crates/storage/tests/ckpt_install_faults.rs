//! Crash-atomicity of checkpoint installation and segment retirement.
//!
//! The tentpole guarantee under test: at every byte offset a device
//! can die inside a checkpoint install, the *previous* checkpoint
//! still loads — recovery never silently degrades to full replay
//! because an install was torn. Likewise for crashes inside the
//! segment-retire window and for torn flushes that cut the log across
//! a segment boundary: recovery always lands on a consistent committed
//! prefix. Every offset/budget is enumerated, no randomness.

use cdb_curation::ops::CuratedTree;
use cdb_curation::provstore::StoreMode;
use cdb_curation::replay::apply_committed;
use cdb_curation::wire::Checkpoint;
use cdb_storage::ckpt::write_checkpoint_slot;
use cdb_storage::{
    encode_commit, recover, CheckpointStore, DurableLog, FaultPlan, FaultyIo, MemBacking, MemIo,
    Retention, SegFaultPlan, SegmentConfig, SegmentedIo, FRAME_COMMIT,
};
use cdb_workload::sessions::{CurationSim, SessionConfig};

/// A small distinguishable checkpoint: one entry named `label`.
fn snapshot(label: &str) -> Checkpoint {
    let mut db = CuratedTree::new("ck", StoreMode::Hereditary);
    let root = db.tree.root();
    let mut t = db.begin("curator", 1);
    t.insert(root, label, None).unwrap();
    t.commit();
    Checkpoint::basic(db.last_txn_id(), 64, db.tree.clone(), db.prov.clone())
}

/// The byte image a completed slot write leaves behind.
fn slot_image(gen: u64, ck: &Checkpoint) -> Vec<u8> {
    let mut io = MemIo::new();
    write_checkpoint_slot(&mut io, gen, ck).unwrap();
    io.bytes().to_vec()
}

/// Slot writes are truncate-then-append, so a crash at byte offset
/// `cut` of the install leaves exactly the first `cut` bytes of the
/// new image. Enumerate every offset: the store must load the prior
/// checkpoint for every strict prefix and the new one only when the
/// write completed.
#[test]
fn torn_slot_install_at_every_byte_offset_keeps_the_prior_checkpoint() {
    let ck1 = snapshot("one");
    let ck2 = snapshot("two");
    let slot0 = slot_image(1, &ck1);
    let full = slot_image(2, &ck2);
    for cut in 0..=full.len() {
        let mut store = CheckpointStore::slots(
            Box::new(MemIo::from_bytes(slot0.clone())),
            Box::new(MemIo::from_bytes(full[..cut].to_vec())),
        );
        let got = store.load().unwrap();
        if cut == full.len() {
            assert_eq!(got, Some(ck2.clone()), "completed install at cut {cut}");
        } else {
            assert_eq!(got, Some(ck1.clone()), "torn install at cut {cut}");
        }
    }
}

/// Same enumeration one generation later: both slots hold valid
/// checkpoints (gen 2 newest), and the install of gen 3 tears the
/// *older* slot. The newest surviving checkpoint is never lost.
#[test]
fn torn_install_over_two_valid_slots_only_risks_the_older_one() {
    let ck1 = snapshot("one");
    let ck2 = snapshot("two");
    let ck3 = snapshot("three");
    let newest = slot_image(2, &ck2);
    let oldest = slot_image(1, &ck1);
    let full = slot_image(3, &ck3);
    // Sanity: a real install on these images targets the older slot.
    let mut store = CheckpointStore::slots(
        Box::new(MemIo::from_bytes(newest.clone())),
        Box::new(MemIo::from_bytes(oldest.clone())),
    );
    store.install(&ck3).unwrap();
    assert_eq!(store.load().unwrap(), Some(ck3.clone()));

    for cut in 0..=full.len() {
        let mut store = CheckpointStore::slots(
            Box::new(MemIo::from_bytes(newest.clone())),
            Box::new(MemIo::from_bytes(full[..cut].to_vec())),
        );
        let got = store.load().unwrap();
        if cut == full.len() {
            assert_eq!(got, Some(ck3.clone()), "completed install at cut {cut}");
        } else {
            assert_eq!(got, Some(ck2.clone()), "torn install at cut {cut}");
        }
    }
}

/// Device errors (failed append, failed flush) during an install make
/// the install report failure — and whatever `load` then sees is the
/// prior checkpoint or the new one, never neither and never garbage.
#[test]
fn failed_install_appends_and_flushes_leave_a_loadable_checkpoint() {
    let ck1 = snapshot("one");
    let ck2 = snapshot("two");
    let slot0 = slot_image(1, &ck1);
    // fail_append 1 = the magic write; 2 = the checkpoint frame;
    // fail_flush 1 = the single flush closing the install.
    for plan in [
        FaultPlan {
            fail_append: Some(1),
            ..FaultPlan::default()
        },
        FaultPlan {
            fail_append: Some(2),
            ..FaultPlan::default()
        },
        FaultPlan {
            fail_flush: Some(1),
            ..FaultPlan::default()
        },
    ] {
        let mut store = CheckpointStore::slots(
            Box::new(MemIo::from_bytes(slot0.clone())),
            Box::new(FaultyIo::new(plan.clone())),
        );
        assert!(store.install(&ck2).is_err(), "plan {plan:?}");
        let got = store.load().unwrap();
        assert!(
            got == Some(ck1.clone()) || got == Some(ck2.clone()),
            "after a failed install ({plan:?}) the store must hold the \
             old or the new checkpoint, got {got:?}"
        );
    }
}

/// Directory store: a crash between writing the temp file and the
/// rename leaves a stray `.ckpt.tmp` and an intact live checkpoint;
/// the next install overwrites the leftover and completes.
#[test]
fn dir_store_survives_a_crash_before_the_rename() {
    let dir = std::env::temp_dir().join(format!("cdb-ckpt-faults-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ck1 = snapshot("one");
    let ck2 = snapshot("two");
    let mut store = CheckpointStore::dir(&dir, "db");
    store.install(&ck1).unwrap();

    // Simulate the crash: a half-written temp file that never renamed.
    let live = std::fs::read(dir.join("db.ckpt")).unwrap();
    for cut in [0, 1, live.len() / 2, live.len().saturating_sub(1)] {
        std::fs::write(dir.join("db.ckpt.tmp"), &live[..cut]).unwrap();
        let mut fresh = CheckpointStore::dir(&dir, "db");
        assert_eq!(
            fresh.load().unwrap(),
            Some(ck1.clone()),
            "torn tmp of {cut} bytes must not shadow the live checkpoint"
        );
        fresh.install(&ck2).unwrap();
        assert_eq!(fresh.load().unwrap(), Some(ck2.clone()));
        assert!(!dir.join("db.ckpt.tmp").exists(), "tmp renamed away");
        // Reset for the next cut.
        store.install(&ck1).unwrap();
        let _ = std::fs::remove_file(dir.join("db.ckpt.tmp"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A realistic curation session for the segmented-log tests.
fn session() -> CuratedTree {
    let mut sim = CurationSim::new(
        11,
        StoreMode::Hereditary,
        SessionConfig {
            source_entries: 5,
            fields_per_entry: 3,
            transactions: 6,
            pastes_per_txn: 2,
            edits_per_txn: 2,
            inserts_per_txn: 1,
        },
    );
    sim.run();
    sim.target
}

/// The reference state after the first `n` transactions.
fn reference(db: &CuratedTree, n: usize) -> CuratedTree {
    let mut r = CuratedTree::new(db.tree.name(), StoreMode::Hereditary);
    for txn in db.log().iter().take(n) {
        apply_committed(&mut r, txn).unwrap();
    }
    r
}

/// Crashes at every point inside the segment-retire window — after 0,
/// 1, 2, … successful retire operations — must leave recovery able to
/// reconstruct the full committed state, under both retention
/// policies. Retirement only touches segments wholly below the
/// coverage watermark, so a half-done retirement loses nothing. Under
/// `KeepAll` a checkpoint installs nothing, so the retire runs with no
/// checkpoint and recovery replays the whole log.
#[test]
fn crash_inside_the_retire_window_never_loses_committed_state() {
    let db = session();
    for retention in [Retention::KeepAll, Retention::Reclaim] {
        for survive_retires in 0u32..6 {
            let cfg = SegmentConfig {
                segment_bytes: 512,
                retention,
            };
            let backing = MemBacking::with_plan(SegFaultPlan {
                fail_retire_after: Some(survive_retires),
                ..SegFaultPlan::default()
            });
            let io = SegmentedIo::open(Box::new(backing.clone()), cfg).unwrap();
            let mut log = DurableLog::create(io).unwrap();
            let ckpt_at = db.log().len() / 2;
            let mut ck = None;
            for (i, txn) in db.transactions().iter().enumerate() {
                log.append(FRAME_COMMIT, &encode_commit(txn, &[])).unwrap();
                log.sync().unwrap();
                if i + 1 == ckpt_at {
                    let covered = log.len().unwrap();
                    let snap = reference(&db, ckpt_at);
                    let mut c =
                        Checkpoint::basic(snap.last_txn_id(), covered, snap.tree, snap.prov);
                    // The truncated form: it carries an archive (opaque
                    // at this layer) in place of the log.
                    c.archive = b"archive".to_vec();
                    // The retire may die partway through; that's the
                    // window under test. A partial retirement surfaces
                    // via `failed` in the stats, not as an error.
                    if let Some(stats) = log.reclaim(covered).unwrap() {
                        if stats.failed {
                            assert!(
                                u64::from(survive_retires) == stats.retired,
                                "exactly the surviving retires completed"
                            );
                        }
                    }
                    ck = (retention == Retention::Reclaim).then_some(c);
                }
            }
            drop(log);

            let io = SegmentedIo::open(Box::new(backing.crash()), cfg).unwrap();
            let (_, rec) = recover("curated", StoreMode::Hereditary, io, ck).unwrap();
            assert_eq!(rec.stats.used_checkpoint, retention == Retention::Reclaim);
            let expect = reference(&db, db.log().len());
            assert_eq!(
                rec.db.tree, expect.tree,
                "{retention:?}, crash after {survive_retires} retires"
            );
            assert_eq!(
                rec.db.prov, expect.prov,
                "{retention:?}, crash after {survive_retires} retires"
            );
            assert_eq!(rec.db.last_txn_id(), expect.last_txn_id());
        }
    }
}

/// Torn flushes with a global durable-byte budget cut the log at an
/// arbitrary physical offset — including mid-segment-header and across
/// rotation boundaries. Enumerating every budget, recovery must always
/// produce *some* exact committed prefix of the session, and the full
/// budget must produce the whole session.
#[test]
fn torn_flush_at_every_byte_budget_recovers_a_committed_prefix() {
    let db = session();
    let cfg = SegmentConfig {
        segment_bytes: 512,
        retention: Retention::KeepAll,
    };

    // First pass, no faults: how many durable bytes does the full
    // session occupy across all segment files?
    let backing = MemBacking::new();
    let io = SegmentedIo::open(Box::new(backing.clone()), cfg).unwrap();
    let mut log = DurableLog::create(io).unwrap();
    for txn in db.transactions() {
        log.append(FRAME_COMMIT, &encode_commit(txn, &[])).unwrap();
        log.sync().unwrap();
    }
    drop(log);
    let total = backing.crash().live_bytes();
    assert!(total > 2 * cfg.segment_bytes, "session must span segments");

    let mut prefixes_seen = std::collections::BTreeSet::new();
    for budget in 0..=total {
        let backing = MemBacking::with_plan(SegFaultPlan {
            torn_flush_budget: Some(budget),
            ..SegFaultPlan::default()
        });
        let io = SegmentedIo::open(Box::new(backing.clone()), cfg).unwrap();
        let mut log = DurableLog::create(io).unwrap();
        for txn in db.transactions() {
            log.append(FRAME_COMMIT, &encode_commit(txn, &[])).unwrap();
            log.sync().unwrap();
        }
        drop(log);

        let io = SegmentedIo::open(Box::new(backing.crash()), cfg).unwrap();
        let (_, rec) = recover("curated", StoreMode::Hereditary, io, None)
            .unwrap_or_else(|e| panic!("recovery failed at budget {budget}: {e}"));
        let committed = rec.db.log().len();
        assert_eq!(
            rec.db,
            reference(&db, committed),
            "budget {budget}: recovered state is not a committed prefix"
        );
        prefixes_seen.insert(committed);
        if budget == total {
            assert_eq!(committed, db.log().len(), "full budget loses nothing");
        }
    }
    assert!(
        prefixes_seen.len() > 2,
        "the budget sweep must actually exercise multiple prefixes, saw {prefixes_seen:?}"
    );
}

//! Differential harness for the paged storage layer: the page heap
//! must be *byte-equivalent* to the resident state across random
//! curation workloads, crash offsets, and recovery.
//!
//! Proptest properties × 256 cases each (PROPTEST_CASES overrides),
//! plus directed smokes:
//!
//! * `paged_store_is_byte_equivalent_to_resident` — storage-level:
//!   random sessions recaptured transaction-by-transaction into a
//!   `PagedState` (so the heap accumulates superseded records), then
//!   each slot's newest record and the full materialization must equal
//!   the resident `TreeDb`/`ProvStore` exactly, before and after a
//!   reopen.
//! * `paged_database_matches_classic_and_recovery` — database-level:
//!   the same scripted session driven through a classic
//!   `CuratedDatabase` and a paged one (page-granular checkpoints)
//!   must produce identical WAL bytes, identical live state and query
//!   results, and — after a crash cut at an arbitrary WAL byte offset
//!   — identical recovery outcomes, whether or not the surviving log
//!   still covers the paged anchor.
//!
//! Directed tests pin the capture rule — a checkpoint rewrites exactly
//! the slots that differ from what the heap holds: a tail replayed at
//! open is recaptured, a capture that failed is retried, and the
//! number of slots captured is exact. Built with `--features stress`,
//! every capture also materialises the heap and compares it with the
//! state it captured.
//!
//! The archive a checkpoint in truncated form carries, paged or not:
//! a third property (`reopened_archives_encode_as_the_live_one`) holds
//! every reopen to the live archive byte for byte, and directed tests
//! pin that a release is stored once and that a carried archive of the
//! wrong length fails the open.
//!
//! The log under `KeepAll`, which the WAL alone holds: a fourth
//! property (`provenance_answers_survive_a_keep_all_reopen`) holds the
//! provenance answers of every live entry across each crash-reopen.
//! Directed tests pin that `archive_from_log` on a cut log names the
//! cut, and that switching retention never strands a checkpoint.
//!
//! The touch index the provenance reads probe: a fifth property
//! (`provenance_reads_answer_as_the_fold_across_reopens`) holds every
//! live node and every operation target to the folds over the log, at
//! every step of careers under both retentions, paged or not.

mod common;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use cdb_core::CuratedDatabase;
use cdb_curation::ops::CuratedTree;
use cdb_curation::provstore::StoreMode;
use cdb_curation::replay::apply_committed;
use cdb_curation::wire::{self, PagedRef};
use cdb_model::Atom;
use cdb_storage::{
    CheckpointStore, FaultPlan, FaultyIo, Io, MemBacking, MemIo, PagedState, Retention,
    SegmentConfig, SegmentedIo, StorageError, FRAME_PAGE, KIND_NODE, KIND_PROV, PAGE_MAGIC,
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

fn mode_of(naive: bool) -> StoreMode {
    if naive {
        StoreMode::Naive
    } else {
        StoreMode::Hereditary
    }
}

/// Each slot's newest object in a heap image, by `(kind, slot)`, read
/// straight from the records.
fn newest_objects(image: &[u8]) -> BTreeMap<(u8, u64), Vec<u8>> {
    let mut newest = BTreeMap::new();
    let mut io = MemIo::from_bytes(image.to_vec());
    let out = cdb_storage::frame::scan(&mut io, PAGE_MAGIC, None, |kind, payload, _| {
        assert_eq!(kind, FRAME_PAGE);
        let (&obj_kind, rest) = payload.split_first().unwrap();
        let (slot, object) = rest.split_first_chunk::<8>().unwrap();
        newest.insert((obj_kind, u64::from_le_bytes(*slot)), object.to_vec());
        Ok(())
    })
    .unwrap();
    assert_eq!(out.valid_len, image.len() as u64);
    newest
}

proptest! {
    /// Storage-level byte equivalence: each slot's newest record in the
    /// paged store equals the resident encoding, and full
    /// materialization reproduces the resident `TreeDb` and
    /// `ProvStore` exactly, before and after a reopen.
    #[test]
    fn paged_store_is_byte_equivalent_to_resident(
        seed in 0u64..1_000_000,
        naive in any::<bool>(),
        txns in 1usize..6,
        pastes in 0usize..3,
        edits in 0usize..3,
    ) {
        let mode = mode_of(naive);
        let db = session(seed, mode, txns, pastes, edits);
        let (mut state, _) = PagedState::open(MemIo::new(), None).unwrap();

        // Recapture every slot after every transaction: the heap
        // accumulates superseded records (empty provenance included),
        // and newest-wins must still hold for each slot.
        let mut r = CuratedTree::new(db.tree.name(), mode);
        for txn in db.log() {
            apply_committed(&mut r, txn).unwrap();
            for i in 0..wire::arena_len(&r.tree) {
                state.capture_node(&r.tree, i).unwrap();
                state.capture_prov(&r.prov, i).unwrap();
            }
        }
        state.flush().unwrap();

        let arena = wire::arena_len(&db.tree);
        let pref = PagedRef {
            heap_len: state.heap_len(),
            arena_len: arena as u64,
            root: db.tree.root().index() as u64,
        };
        let want = Some((db.tree.clone(), db.prov.clone()));
        prop_assert_eq!(&state.materialise(db.tree.name(), mode, pref).unwrap(), &want);

        let io = state.into_io();
        let newest = newest_objects(io.bytes());
        for i in 0..arena {
            // Byte-for-byte slot equivalence, tombstones included.
            prop_assert_eq!(
                newest.get(&(KIND_NODE, i as u64)).cloned(),
                wire::encode_tree_node(&db.tree, i),
                "node record {} diverged", i
            );
            let recs = wire::direct_prov_records(&db.prov, i);
            prop_assert_eq!(
                newest.get(&(KIND_PROV, i as u64)),
                Some(&wire::encode_prov_records(recs)),
                "prov record of node {} diverged", i
            );
        }

        // Reopen from the durable device at the flushed watermark: the
        // open's one pass gives the same answer.
        let anchor = Some((db.tree.name(), mode, pref));
        let (_, found) = PagedState::open(io, anchor).unwrap();
        prop_assert_eq!(&found, &want);
    }
}

// ------------------------------------------ database-level differential

/// A shared fault-injectable device: the database owns one handle, the
/// checker keeps another to photograph the durable image post-crash.
#[derive(Debug, Clone)]
struct SharedDev(Arc<Mutex<FaultyIo>>);

impl SharedDev {
    fn new() -> Self {
        SharedDev(Arc::new(Mutex::new(FaultyIo::new(FaultPlan::default()))))
    }
    fn durable(&self) -> Vec<u8> {
        self.0.lock().unwrap().durable_image()
    }
    /// Arms `plan` from the device's next operation on; nothing may be
    /// waiting for a flush.
    fn arm(&self, plan: FaultPlan) {
        let mut io = self.0.lock().unwrap();
        assert_eq!(io.len().unwrap(), io.durable_len(), "unflushed bytes");
        *io = FaultyIo::with_contents(io.durable_image(), plan);
    }
    /// The device a reopen after a crash sees: the durable image only.
    fn crash(&self) -> Self {
        let image = FaultyIo::with_contents(self.durable(), FaultPlan::default());
        SharedDev(Arc::new(Mutex::new(image)))
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

fn lcg(r: &mut u64) -> u64 {
    *r = r
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *r >> 33
}

/// Drives a deterministic scripted session: adds, edits, deletes, and
/// publishes, with a checkpoint every `ckpt_every` steps. Identical
/// seeds produce byte-identical WALs on any database.
fn drive(db: &mut CuratedDatabase, seed: u64, ops: usize, ckpt_every: usize) {
    let mut r = seed;
    let mut keys: Vec<String> = Vec::new();
    for i in 0..ops {
        let t = (i + 1) as u64;
        let sel = if i == 0 { 0 } else { lcg(&mut r) % 10 };
        match sel {
            0..=3 => {
                let key = format!("k{i}");
                let f = Atom::Int((lcg(&mut r) % 100) as i64);
                let g = Atom::Str(format!("v{}", lcg(&mut r) % 50));
                db.add_entry("curator", t, &key, &[("f", f), ("g", g)])
                    .unwrap();
                keys.push(key);
            }
            4..=6 if !keys.is_empty() => {
                let k = keys[lcg(&mut r) as usize % keys.len()].clone();
                let v = Atom::Int((lcg(&mut r) % 100) as i64);
                db.edit_field("curator", t, &k, "f", v).unwrap();
            }
            7 if !keys.is_empty() => {
                let k = keys.remove(lcg(&mut r) as usize % keys.len());
                db.delete_entry("curator", t, &k).unwrap();
            }
            8 => {
                db.publish(format!("v{i}")).unwrap();
            }
            _ => {}
        }
        if (i + 1) % ckpt_every == 0 {
            db.checkpoint().unwrap();
        }
    }
}

proptest! {
    /// Database-level differential: the same scripted session under
    /// `Reclaim` through a classic database and a paged one yields
    /// identical WAL bytes, identical live state and queries, and
    /// identical recovery outcomes after a crash cut at an arbitrary
    /// WAL byte offset.
    #[test]
    fn paged_database_matches_classic_and_recovery(
        seed in 0u64..1_000_000,
        ops in 4usize..16,
        ckpt_every in 1usize..5,
        cut_sel in 0usize..100_000,
    ) {
        let wal_a = SharedDev::new();
        let (c1, c2) = (SharedDev::new(), SharedDev::new());
        let mut classic = CuratedDatabase::open(
            "diff",
            "id",
            Box::new(wal_a.clone()),
            CheckpointStore::slots(Box::new(c1.clone()), Box::new(c2.clone())),
        )
        .unwrap();

        let wal_b = SharedDev::new();
        let heap = SharedDev::new();
        let (s1, s2) = (SharedDev::new(), SharedDev::new());
        let mut paged = CuratedDatabase::open_paged(
            "diff",
            "id",
            Box::new(wal_b.clone()),
            CheckpointStore::slots(Box::new(s1.clone()), Box::new(s2.clone())),
            Box::new(heap.clone()),
            0,
        )
        .unwrap();
        prop_assert!(paged.is_paged());
        prop_assert!(!classic.is_paged());
        classic.set_retention(Retention::Reclaim);
        paged.set_retention(Retention::Reclaim);

        drive(&mut classic, seed, ops, ckpt_every);
        drive(&mut paged, seed, ops, ckpt_every);

        // Identical live state, queries, and provenance annotations.
        prop_assert_eq!(&classic.curated, &paged.curated);
        prop_assert_eq!(classic.export().unwrap(), paged.export().unwrap());
        prop_assert_eq!(classic.entry_keys().unwrap(), paged.entry_keys().unwrap());
        prop_assert_eq!(classic.archive().encode(), paged.archive().encode());

        // The checkpoints captured through the page heap, and the
        // capture counter surfaced through the metrics registry.
        let snap = paged.metrics_snapshot();
        prop_assert!(snap.counters.contains_key("storage.page.captured"));

        // The WAL protocol is untouched by paging: byte-identical logs.
        drop(classic);
        drop(paged);
        let img_a = wal_a.durable();
        let img_b = wal_b.durable();
        prop_assert_eq!(&img_a, &img_b, "paged database diverged on the WAL");

        // Crash at an arbitrary byte offset: both recoveries land on
        // the same state, whether the surviving log still covers the
        // anchors (whole-state or page-granular load + tail replay) or
        // not (anchors discarded, full replay).
        let cut = 8 + cut_sel % (img_b.len() - 7);
        let re_classic = CuratedDatabase::open(
            "diff",
            "id",
            Box::new(MemIo::from_bytes(img_a[..cut].to_vec())),
            CheckpointStore::slots(
                Box::new(MemIo::from_bytes(c1.durable())),
                Box::new(MemIo::from_bytes(c2.durable())),
            ),
        )
        .unwrap();
        let re_paged = CuratedDatabase::open_paged(
            "diff",
            "id",
            Box::new(MemIo::from_bytes(img_b[..cut].to_vec())),
            CheckpointStore::slots(
                Box::new(MemIo::from_bytes(s1.durable())),
                Box::new(MemIo::from_bytes(s2.durable())),
            ),
            Box::new(MemIo::from_bytes(heap.durable())),
            0,
        )
        .unwrap();
        prop_assert_eq!(&re_classic.curated, &re_paged.curated, "recovery outcomes diverged at cut {}", cut);
        prop_assert_eq!(re_classic.export().unwrap(), re_paged.export().unwrap());
        prop_assert_eq!(
            re_classic.entry_keys().unwrap(),
            re_paged.entry_keys().unwrap()
        );
        prop_assert_eq!(re_classic.archive().encode(), re_paged.archive().encode());
    }
}

/// The shared serving layer rides the same machinery: a paged
/// `SharedDb` under `Reclaim` checkpoints page-granularly and reopens
/// to the same state.
#[test]
fn shared_db_opens_and_recovers_paged() {
    use cdb_core::SharedDb;
    use std::time::Duration;

    let wal = SharedDev::new();
    let heap = SharedDev::new();
    let (s1, s2) = (SharedDev::new(), SharedDev::new());
    let db = SharedDb::open_paged(
        "shared-paged",
        "id",
        Box::new(wal.clone()),
        CheckpointStore::slots(Box::new(s1.clone()), Box::new(s2.clone())),
        Box::new(heap.clone()),
        0,
        Duration::from_millis(0),
    )
    .unwrap();
    db.set_retention(Retention::Reclaim);
    for i in 0..6 {
        db.add_entry(
            "curator",
            i + 1,
            &format!("k{i}"),
            &[("f", Atom::Int(i as i64))],
        )
        .unwrap();
    }
    db.checkpoint().unwrap();
    db.add_entry("curator", 7, "tail", &[("f", Atom::Int(7))])
        .unwrap();
    let before = db.snapshot().export().unwrap();
    drop(db);

    let re = SharedDb::open_paged(
        "shared-paged",
        "id",
        Box::new(MemIo::from_bytes(wal.durable())),
        CheckpointStore::slots(
            Box::new(MemIo::from_bytes(s1.durable())),
            Box::new(MemIo::from_bytes(s2.durable())),
        ),
        Box::new(MemIo::from_bytes(heap.durable())),
        0,
        Duration::from_millis(0),
    )
    .unwrap();
    assert_eq!(re.snapshot().export().unwrap(), before);
    let recovery = re.metrics_snapshot().counters["storage.recovery.checkpoint_used"];
    assert_eq!(recovery, 1);
}

/// A database of a size people curate: 2 000 entries (some 14 000
/// arena slots) through checkpoint → reopen → edit → checkpoint →
/// reopen under `Reclaim`, equal to the resident database driven alike
/// at both reopens. Capture reads the arena slot by slot; when each of those
/// reads copied the arena this took minutes, not seconds.
#[test]
fn large_paged_round_trip_matches_resident() {
    const ENTRIES: usize = 2_000;
    let key = |i: usize| format!("k{i:04}");
    let wal = SharedDev::new();
    let heap = SharedDev::new();
    let (s1, s2) = (SharedDev::new(), SharedDev::new());
    // Every life of the database opens the same four devices.
    let open = || {
        let dev = |d: &SharedDev| Box::new(d.clone()) as Box<dyn Io>;
        let slots = CheckpointStore::slots(dev(&s1), dev(&s2));
        let mut db =
            CuratedDatabase::open_paged("big", "id", dev(&wal), slots, dev(&heap), 0).unwrap();
        db.set_retention(Retention::Reclaim);
        db
    };
    let probes = [key(0), key(7), "never".to_owned()];
    let same = |paged: &CuratedDatabase, resident: &CuratedDatabase| {
        assert!(paged.recovery_stats().unwrap().used_checkpoint);
        assert_same(paged, resident, &probes);
    };

    let mut resident = CuratedDatabase::new("big", "id");
    let mut paged = open();
    for i in 0..ENTRIES {
        let fields = [
            ("gn", Atom::Int((i % 97) as i64)),
            ("os", Atom::Int((i % 7) as i64)),
            ("de", Atom::Str(format!("protein {i}"))),
            ("sq", Atom::Str("MKVLAAGIVGLCAQ".repeat(1 + i % 3))),
            ("kw", Atom::Str(format!("kw{}", i % 13))),
        ];
        for db in [&mut resident, &mut paged] {
            db.add_entry("c", i as u64 + 1, &key(i), &fields).unwrap();
        }
    }
    paged.checkpoint().unwrap();
    drop(paged);

    let mut paged = open();
    same(&paged, &resident);
    let mut time = ENTRIES as u64;
    for i in (0..ENTRIES).step_by(10) {
        time += 1;
        for db in [&mut resident, &mut paged] {
            db.edit_field("c", time, &key(i), "de", Atom::Str(format!("revised {i}")))
                .unwrap();
        }
    }
    for db in [&mut resident, &mut paged] {
        db.delete_entry("c", time + 1, &key(7)).unwrap();
    }
    paged.checkpoint().unwrap();
    // The second life replayed nothing, so its capture is its own
    // writes: 200 edited fields, the deleted entry's 7 slots and the
    // root whose child list lost it.
    assert_eq!(captured(&paged), 200 + 7 + 1);
    drop(paged);

    same(&open(), &resident);
}

/// Asserts a paged database answers as its resident twin: the tree and
/// provenance the page heap holds, the exported value, the entries, the
/// archive and the derived state (the primary index probed with
/// `probes`). The logs may differ: one recovered under
/// `Retention::Reclaim` holds only a tail.
fn assert_same(paged: &CuratedDatabase, resident: &CuratedDatabase, probes: &[String]) {
    assert_eq!(paged.archive().encode(), resident.archive().encode());
    assert_eq!(paged.curated.tree, resident.curated.tree);
    assert_eq!(paged.curated.prov, resident.curated.prov);
    assert_eq!(paged.curated.last_txn_id(), resident.curated.last_txn_id());
    assert_eq!(paged.export().unwrap(), resident.export().unwrap());
    assert_eq!(paged.entry_keys().unwrap(), resident.entry_keys().unwrap());
    common::check_derived(paged, probes).unwrap();
}

/// Arena slots this database's paged backing has captured since it
/// was opened.
fn captured(db: &CuratedDatabase) -> u64 {
    let snap = db.metrics_snapshot();
    snap.counters
        .get("storage.page.captured")
        .copied()
        .unwrap_or(0)
}

/// The devices of one database, opened life after life: a WAL in
/// 512-byte segments (so checkpoints retire some), two checkpoint
/// slots and, when `paged`, the page heap.
struct Lives {
    wal: MemBacking,
    s1: SharedDev,
    s2: SharedDev,
    heap: SharedDev,
    paged: bool,
    retention: Retention,
}

impl Lives {
    /// A paged database under `Retention::Reclaim`.
    fn new() -> Self {
        Lives::with(true, Retention::Reclaim)
    }

    fn with(paged: bool, retention: Retention) -> Self {
        Lives {
            wal: MemBacking::new(),
            s1: SharedDev::new(),
            s2: SharedDev::new(),
            heap: SharedDev::new(),
            paged,
            retention,
        }
    }

    fn try_open(&self) -> Result<CuratedDatabase, cdb_core::DbError> {
        self.open_over(Box::new(self.heap.clone()))
    }

    /// Opens the database over `heap` in place of its own heap device.
    fn open_over(&self, heap: Box<dyn Io>) -> Result<CuratedDatabase, cdb_core::DbError> {
        let cfg = SegmentConfig {
            segment_bytes: 512,
            retention: self.retention,
        };
        let wal = Box::new(SegmentedIo::open(Box::new(self.wal.clone()), cfg).unwrap());
        let dev = |d: &SharedDev| Box::new(d.clone()) as Box<dyn Io>;
        let slots = CheckpointStore::slots(dev(&self.s1), dev(&self.s2));
        let mut db = if self.paged {
            CuratedDatabase::open_paged("lives", "id", wal, slots, heap, 0)?
        } else {
            CuratedDatabase::open("lives", "id", wal, slots)?
        };
        db.set_retention(self.retention);
        Ok(db)
    }

    fn open(&self) -> CuratedDatabase {
        self.try_open().unwrap()
    }

    /// The devices a reopen after a crash sees: durable bytes only.
    fn crash(&self) -> Self {
        Lives {
            wal: self.wal.crash(),
            s1: self.s1.crash(),
            s2: self.s2.crash(),
            heap: self.heap.crash(),
            ..*self
        }
    }

    /// The size of the larger checkpoint slot: the newest checkpoint
    /// where each holds at least what the one before it did.
    fn checkpoint_bytes(&self) -> usize {
        self.s1.durable().len().max(self.s2.durable().len())
    }
}

/// Applies one write to the paged database and its resident twin.
fn both(
    paged: &mut CuratedDatabase,
    resident: &mut CuratedDatabase,
    write: impl Fn(&mut CuratedDatabase),
) {
    write(paged);
    write(resident);
}

fn add(db: &mut CuratedDatabase, t: u64, key: &str) {
    let fields = [
        ("f", Atom::Int(t as i64)),
        ("g", Atom::Str(format!("g{t}"))),
    ];
    db.add_entry("c", t, key, &fields).unwrap();
}

/// A tail replayed at open lands in the state and not in the heap; the
/// next capture must write it, or a reopen that has only the heap and
/// the new anchor (the segments holding the tail retired) loses it.
#[test]
fn a_tail_replayed_at_open_is_recaptured() {
    let key = |i: usize| format!("k{i:02}");
    let probes = [key(0), key(3), key(11), "never".to_owned()];
    let mut resident = CuratedDatabase::new("lives", "id");

    // Life 1: entries, captured by the first anchor.
    let lives = Lives::new();
    let mut paged = lives.open();
    for i in 0..12 {
        both(&mut paged, &mut resident, |db| {
            add(db, i as u64 + 1, &key(i))
        });
    }
    paged.checkpoint().unwrap();
    drop(paged);

    // Life 2: edit and delete what the first anchor captured, crash
    // before any checkpoint, reopen with the tail replayed.
    let mut paged = lives.open();
    for (t, i) in (20..).zip([0, 4, 8]) {
        both(&mut paged, &mut resident, |db| {
            db.edit_field("c", t, &key(i), "f", Atom::Int(-1)).unwrap();
        });
    }
    for (t, i) in (30..).zip([3, 9]) {
        both(&mut paged, &mut resident, |db| {
            db.delete_entry("c", t, &key(i)).unwrap();
        });
    }
    drop(paged);
    let lives = lives.crash();
    let mut paged = lives.open();
    let replayed = paged.metrics_snapshot().counters["storage.recovery.txns_replayed"];
    assert_eq!(replayed, 5, "the reopen replays the tail");
    assert_same(&paged, &resident, &probes);
    let stats = paged.checkpoint().unwrap();
    assert!(stats.retired_segments >= 1, "{stats:?}");
    drop(paged);

    // Life 3: only the heap and the second anchor hold the tail.
    assert_same(&lives.open(), &resident, &probes);
}

/// A capture that fails leaves the checkpoint undone; the next
/// checkpoint must capture what the failed one did not install, plus
/// what changed since. Two faults on the heap: its flush fails (every
/// page was handed to the device), or an append fails part-way (the
/// pages after it never were). Two scripts around each: the writes
/// after the failure change other slots, or they return the root to
/// what the heap held before the failure — the failed capture's root
/// page may still become the heap's newest, so the retry must rewrite
/// it although it equals the last successful capture.
#[test]
fn a_failed_capture_is_retried() {
    type Write = fn(&mut CuratedDatabase);
    let key = |i: usize| format!("k{i:02}");
    let probes = [key(0), key(5), key(6), "never".to_owned()];
    let faults = [
        FaultPlan {
            fail_flush: Some(1),
            ..FaultPlan::default()
        },
        FaultPlan {
            fail_append: Some(2),
            ..FaultPlan::default()
        },
    ];
    let scripts: [(Write, Write); 2] = [
        (
            |db| {
                add(db, 10, "k06");
                db.edit_field("c", 11, "k00", "f", Atom::Int(-1)).unwrap();
                db.delete_entry("c", 12, "k05").unwrap();
            },
            |db| db.edit_field("c", 13, "k01", "g", Atom::Int(-2)).unwrap(),
        ),
        (
            |db| add(db, 10, "k06"),
            |db| {
                db.delete_entry("c", 11, "k06").unwrap();
                db.edit_field("c", 12, "k01", "g", Atom::Int(-2)).unwrap();
            },
        ),
    ];
    for fault in faults {
        for (before, after) in scripts {
            let mut resident = CuratedDatabase::new("lives", "id");
            let lives = Lives::new();
            let mut paged = lives.open();
            for i in 0..6 {
                both(&mut paged, &mut resident, |db| {
                    add(db, i as u64 + 1, &key(i))
                });
            }
            paged.checkpoint().unwrap();
            both(&mut paged, &mut resident, before);
            lives.heap.arm(fault.clone());
            assert!(paged.checkpoint().is_err(), "{fault:?} did not fail");
            both(&mut paged, &mut resident, after);
            let stats = paged.checkpoint().unwrap();
            assert!(stats.retired_segments >= 1, "{stats:?}");
            drop(paged);

            assert_same(&lives.crash().open(), &resident, &probes);
        }
    }
}

/// The capture rule is exact: a checkpoint rewrites the slots whose
/// node or provenance differ from the last capture, and no others.
#[test]
fn the_dirty_set_is_exact() {
    let lives = Lives::new();
    let mut db = lives.open();
    add(&mut db, 1, "a");
    add(&mut db, 2, "b");
    db.checkpoint().unwrap();
    let step = |db: &mut CuratedDatabase| {
        let before = captured(db);
        db.checkpoint().unwrap();
        captured(db) - before
    };
    assert_eq!(step(&mut db), 0, "no writes since the last checkpoint");
    drop(db);

    let mut db = lives.open();
    assert_eq!(step(&mut db), 0, "a reopen with no tail");
    db.edit_field("c", 3, "a", "f", Atom::Int(7)).unwrap();
    assert_eq!(step(&mut db), 1, "one edited field");
    // An entry with two fields is four new slots (entry, key, two
    // fields); deleting it restores the root's child list.
    add(&mut db, 4, "c");
    db.delete_entry("c", 5, "c").unwrap();
    assert_eq!(step(&mut db), 4, "the new slots, not the unchanged root");
}

/// One step of a career in [`reopened_archives_encode_as_the_live_one`].
#[derive(Debug, Clone, Copy)]
enum Step {
    Write,
    Publish,
    Checkpoint,
    Reopen,
}

/// Applies one random write (add, edit, delete or merge) at time `t`.
fn write(db: &mut CuratedDatabase, r: &mut u64, t: u64, keys: &mut Vec<String>) {
    let pick = |r: &mut u64, keys: &[String]| lcg(r) as usize % keys.len();
    match lcg(r) % 6 {
        0..=1 if keys.len() >= 2 => {
            let i = pick(r, keys);
            db.edit_field("c", t, &keys[i], "f", Atom::Int(t as i64))
                .unwrap();
        }
        2 if keys.len() >= 2 => {
            let k = keys.remove(pick(r, keys));
            db.delete_entry("c", t, &k).unwrap();
        }
        3 if keys.len() >= 2 => {
            let absorbed = keys.remove(pick(r, keys));
            let kept = keys[pick(r, keys)].clone();
            db.merge_entries("c", t, &kept, &absorbed).unwrap();
        }
        _ => {
            let key = format!("k{t:03}");
            add(db, t, &key);
            keys.push(key);
        }
    }
}

proptest! {
    /// A reopen rebuilds the archive byte for byte. Careers under
    /// `Retention::Reclaim`, paged or not, interleave writes, publishes,
    /// checkpoints and crash-reopens, with at least two checkpoints and
    /// a publish on each side of them. After every reopen the archive
    /// encodes as the live one did before the crash, and as
    /// `archive_from_log` of a `KeepAll` twin that lived the same career.
    #[test]
    fn reopened_archives_encode_as_the_live_one(
        seed in 0u64..1_000_000,
        steps in 6usize..20,
        paged in any::<bool>(),
    ) {
        let mut lives = Lives::with(paged, Retention::Reclaim);
        let mut twin_lives = Lives::with(false, Retention::KeepAll);
        let (mut db, mut twin) = (lives.open(), twin_lives.open());
        let (mut r, mut twin_r) = (seed, seed);
        let (mut keys, mut twin_keys) = (Vec::new(), Vec::new());
        let mut career = Vec::new();
        let mut choice = seed;
        for i in 0..steps {
            if i == steps / 3 || i == 2 * steps / 3 {
                career.extend([Step::Publish, Step::Checkpoint, Step::Write, Step::Publish]);
            } else {
                career.push(match lcg(&mut choice) % 8 {
                    0 => Step::Publish,
                    1 => Step::Checkpoint,
                    2 => Step::Reopen,
                    _ => Step::Write,
                });
            }
        }
        career.insert(0, Step::Write);
        career.push(Step::Reopen);
        for (t, step) in (1u64..).zip(career) {
            match step {
                Step::Write => {
                    write(&mut db, &mut r, t, &mut keys);
                    write(&mut twin, &mut twin_r, t, &mut twin_keys);
                }
                Step::Publish => {
                    db.publish(format!("v{t}")).unwrap();
                    twin.publish(format!("v{t}")).unwrap();
                }
                Step::Checkpoint => {
                    db.checkpoint().unwrap();
                    twin.checkpoint().unwrap();
                }
                Step::Reopen => {
                    let live = db.archive().encode();
                    prop_assert_eq!(&twin.archive().encode(), &live);
                    drop((db, twin));
                    (lives, twin_lives) = (lives.crash(), twin_lives.crash());
                    (db, twin) = (lives.open(), twin_lives.open());
                    prop_assert_eq!(&db.archive().encode(), &live, "at step {}", t);
                    prop_assert_eq!(&twin.archive_from_log().unwrap().encode(), &live);
                }
            }
        }
    }
}

/// An upstream database to copy from: one entry whose fields were
/// pasted on from a third database, so an import carries a chain of
/// origins.
fn upstream_clip() -> cdb_curation::Clipboard {
    let mut far = CuratedDatabase::new("far", "id");
    add(&mut far, 1, "x");
    let clip = far.curated.copy(far.entry_node("x").unwrap()).unwrap();
    let mut near = CuratedDatabase::new("near", "id");
    near.import_entry("ann", 2, "y", &clip).unwrap();
    near.edit_field("bob", 3, "y", "g", Atom::Int(1)).unwrap();
    near.curated.copy(near.entry_node("y").unwrap()).unwrap()
}

/// Everything the provenance queries answer about the live `keys`:
/// per entry, `how_arrived` of every field, `last_modified`,
/// `curators_of`, and the authors `cite` credits in the last version
/// (none for an entry published in no version yet).
fn provenance(db: &CuratedDatabase, keys: &[String]) -> Vec<String> {
    use cdb_curation::queries::{curators_of, how_arrived, last_modified};
    let last = db.archive().version_count() - 1;
    let tree = &db.curated.tree;
    keys.iter()
        .map(|key| {
            let entry = db.entry_node(key).unwrap();
            let fields: Vec<_> = tree
                .children(entry)
                .unwrap()
                .iter()
                .map(|&f| (tree.label(f).unwrap(), how_arrived(&db.curated, f)))
                .collect();
            format!(
                "{key}: {fields:?} {:?} {:?} {:?}",
                last_modified(&db.curated, entry).unwrap(),
                curators_of(&db.curated, entry).unwrap(),
                db.cite(last, key).map(|c| c.authors).ok(),
            )
        })
        .collect()
}

proptest! {
    /// Provenance is answered from one record: under `KeepAll` a reopen
    /// reads the log from the WAL, and it answers as the log the live
    /// instance held. Careers, paged or not, interleave writes by
    /// several curators and imports from upstream with publishes,
    /// checkpoints and crash-reopens; at every reopen every live
    /// entry's provenance answers are what they were before the crash.
    #[test]
    fn provenance_answers_survive_a_keep_all_reopen(
        seed in 0u64..1_000_000,
        steps in 4usize..16,
        paged in any::<bool>(),
    ) {
        let mut lives = Lives::with(paged, Retention::KeepAll);
        let mut db = lives.open();
        let clip = upstream_clip();
        let (mut r, mut choice) = (seed, seed);
        let mut keys = Vec::new();
        let mut career = vec![Step::Write, Step::Publish];
        for _ in 0..steps {
            career.push(match lcg(&mut choice) % 6 {
                0 => Step::Publish,
                1 => Step::Checkpoint,
                2 => Step::Reopen,
                _ => Step::Write,
            });
        }
        career.extend([Step::Write, Step::Checkpoint, Step::Write, Step::Reopen]);
        for (t, step) in (1u64..).zip(career) {
            match step {
                Step::Write if lcg(&mut r).is_multiple_of(4) => {
                    let key = format!("i{t:03}");
                    db.import_entry("carol", t, &key, &clip).unwrap();
                    keys.push(key);
                }
                Step::Write => write(&mut db, &mut r, t, &mut keys),
                Step::Publish => {
                    db.publish(format!("v{t}")).unwrap();
                }
                Step::Checkpoint => {
                    db.checkpoint().unwrap();
                }
                Step::Reopen => {
                    let before = provenance(&db, &keys);
                    drop(db);
                    lives = lives.crash();
                    db = lives.open();
                    prop_assert_eq!(provenance(&db, &keys), before, "at step {}", t);
                }
            }
        }
        // The last reopen followed a checkpoint with writes on both
        // sides: under `KeepAll` that checkpoint installed nothing, and
        // the open replayed the whole log from the WAL.
        let stats = db.recovery_stats().unwrap();
        prop_assert!(!stats.used_checkpoint, "{:?}", stats);
        prop_assert_eq!(stats.txns_replayed, db.curated.log().len() as u64, "{:?}", stats);
    }
}

proptest! {
    /// The provenance reads come off the log's touch index, which an
    /// open rebuilds and every commit extends; they must answer as the
    /// folds over the log the instance holds. Careers under either
    /// retention, paged or not, mix adds, imports from upstream, edits,
    /// deletes, fusions and fissions with publishes, checkpoints and
    /// crash-reopens; after every step every live node and every
    /// operation target answers `last_modified`, `curators_of` and
    /// `history` as the folds do (under `Reclaim`, over the tail a cut
    /// left).
    #[test]
    fn provenance_reads_answer_as_the_fold_across_reopens(
        seed in 0u64..1_000_000,
        steps in 4usize..16,
        paged in any::<bool>(),
        reclaim in any::<bool>(),
    ) {
        let retention = if reclaim { Retention::Reclaim } else { Retention::KeepAll };
        let mut lives = Lives::with(paged, retention);
        let mut db = lives.open();
        let clip = upstream_clip();
        let (mut r, mut choice) = (seed, seed);
        let mut keys = Vec::new();
        let mut career = vec![Step::Write, Step::Write];
        for _ in 0..steps {
            career.push(match lcg(&mut choice) % 6 {
                0 => Step::Publish,
                1 => Step::Checkpoint,
                2 => Step::Reopen,
                _ => Step::Write,
            });
        }
        career.extend([Step::Checkpoint, Step::Write, Step::Reopen]);
        for (t, step) in (1u64..).zip(career) {
            match step {
                Step::Write => match lcg(&mut r) % 5 {
                    0 => {
                        let key = format!("i{t:03}");
                        db.import_entry("carol", t, &key, &clip).unwrap();
                        keys.push(key);
                    }
                    1 if !keys.is_empty() => {
                        let original = keys.remove(lcg(&mut r) as usize % keys.len());
                        let (a, b) = (format!("s{t:03}a"), format!("s{t:03}b"));
                        let parts = [(a.as_str(), vec![("f", Atom::Int(1))]), (b.as_str(), vec![])];
                        db.split_entry("dave", t, &original, &parts).unwrap();
                        keys.extend([a, b]);
                    }
                    _ => write(&mut db, &mut r, t, &mut keys),
                },
                Step::Publish => {
                    db.publish(format!("v{t}")).unwrap();
                }
                Step::Checkpoint => {
                    db.checkpoint().unwrap();
                }
                Step::Reopen => {
                    drop(db);
                    lives = lives.crash();
                    db = lives.open();
                }
            }
            common::check_provenance(&db.curated)
                .map_err(|m| TestCaseError::fail(format!("step {t} ({step:?}): {m}")))?;
        }
    }
}

/// `archive_from_log` on an instance a reclaiming checkpoint cut says
/// so, naming the transaction the log is cut after, instead of failing
/// a replay of the tail; the archive the checkpoint carried is intact.
#[test]
fn archive_from_log_on_a_cut_log_names_the_cut() {
    for paged in [false, true] {
        let lives = Lives::with(paged, Retention::Reclaim);
        let mut db = lives.open();
        populate(&mut db, 19);
        db.publish("r1").unwrap();
        db.checkpoint().unwrap();
        for t in 20..30 {
            add(&mut db, t, &format!("k{t:03}"));
        }
        db.publish("r2").unwrap();
        let live = db.archive().encode();
        drop(db);
        let db = lives.crash().open();
        let cut = db
            .curated
            .base_txn_id()
            .expect("the checkpoint cut the log");
        assert_eq!(cut, cdb_curation::TxnId(18));
        match db.archive_from_log() {
            Err(cdb_core::DbError::Storage(m)) => {
                assert!(m.contains("cut after txn18"), "{m}")
            }
            other => panic!("paged {paged}: {:?}", other.map(|a| a.version_count())),
        }
        assert_eq!(db.archive().encode(), live);
    }
}

/// A citation survives a crash-reopen: every `cite(v, key)` of every
/// release, for entries still live and entries since deleted or merged
/// away, is the same before and after. Under `Reclaim` the reopen reads
/// the archive its checkpoint carried, under `KeepAll` the archive it
/// rebuilt from the log. Under `Reclaim` the authors are left out: they
/// come from the log, and the cut log loses them (ROADMAP item 17).
#[test]
fn citations_are_equal_across_a_crash_reopen() {
    let retentions = [Retention::Reclaim, Retention::KeepAll];
    for (paged, retention) in [false, true]
        .into_iter()
        .flat_map(|p| retentions.map(|r| (p, r)))
    {
        let lives = Lives::with(paged, retention);
        let mut db = lives.open();
        populate(&mut db, 12);
        db.publish("r0").unwrap();
        for (t, key) in [(13, "k002"), (14, "k005")] {
            db.edit_field("bob", t, key, "f", Atom::Int(-1)).unwrap();
        }
        db.delete_entry("bob", 15, "k007").unwrap();
        db.publish("r1").unwrap();
        db.checkpoint().unwrap();
        db.edit_field("carol", 16, "k005", "g", Atom::Str("late".into()))
            .unwrap();
        db.merge_entries("carol", 17, "k001", "k003").unwrap();
        db.publish("r2").unwrap();
        let citations = |db: &CuratedDatabase| {
            let mut out = Vec::new();
            for v in 0..db.archive().version_count() {
                for i in 0..12 {
                    let cited = db.cite(v, &format!("k{i:03}")).map(|mut c| {
                        if retention == Retention::Reclaim {
                            c.authors.clear();
                        }
                        c
                    });
                    out.push(cited.map_err(|e| e.to_string()));
                }
            }
            out
        };
        let live = citations(&db);
        // 36 citations; k007 is gone from r1 on, k003 from r2.
        assert_eq!(live.iter().filter(|c| c.is_ok()).count(), 33);
        drop(db);
        let db = lives.crash().open();
        assert_eq!(citations(&db), live, "paged {paged}, {retention:?}");
    }
}

/// Switching retention never strands a checkpoint. A `KeepAll`
/// checkpoint after a reclaiming one still cuts the log, because a
/// prefix is already gone; a `KeepAll` database over a device set up to
/// reclaim deletes nothing, and its next open reads the whole log.
#[test]
fn retention_switches_keep_every_checkpoint_recoverable() {
    for paged in [false, true] {
        let lives = Lives::with(paged, Retention::Reclaim);
        let mut db = lives.open();
        populate(&mut db, 30);
        assert!(db.checkpoint().unwrap().retired_segments >= 1);
        db.set_retention(Retention::KeepAll);
        add(&mut db, 31, "late");
        db.checkpoint().unwrap();
        let keys = db.entry_keys().unwrap();
        drop(db);
        let db = lives.crash().open();
        assert_eq!(db.entry_keys().unwrap(), keys, "paged {paged}");
        assert!(db.curated.base_txn_id().is_some(), "paged {paged}");

        let lives = Lives::with(paged, Retention::Reclaim);
        let mut db = lives.open();
        db.set_retention(Retention::KeepAll);
        populate(&mut db, 30);
        assert_eq!(db.checkpoint().unwrap().retired_segments, 0);
        add(&mut db, 31, "late");
        drop(db);
        let db = lives.crash().open();
        let stats = db.recovery_stats().unwrap();
        assert!(!stats.used_checkpoint, "paged {paged}");
        assert_eq!(stats.txns_replayed, 31, "paged {paged}");
        assert_eq!(db.curated.base_txn_id(), None, "paged {paged}");
        assert_eq!(db.curated.log().len(), 31);
    }
}

/// Entries of a constant state for the size tests below.
fn populate(db: &mut CuratedDatabase, n: usize) {
    for i in 0..n {
        add(db, i as u64 + 1, &format!("k{i:03}"));
    }
}

/// Under `Retention::Reclaim` an unpaged checkpoint carries the archive,
/// which stores an unchanged release once: ten releases of one state
/// cost less than a second full copy of it.
#[test]
fn reclaiming_checkpoints_carry_each_release_once() {
    let lives = Lives::with(false, Retention::Reclaim);
    let mut db = lives.open();
    populate(&mut db, 40);
    let release = cdb_archive::codec::encode_value(&db.export().unwrap()).len();
    let mut after_one = 0;
    for cycle in 1..=10 {
        db.publish(format!("r{cycle}")).unwrap();
        db.checkpoint().unwrap();
        if cycle == 1 {
            after_one = lives.checkpoint_bytes();
        }
    }
    let after_ten = lives.checkpoint_bytes();
    assert!(
        after_ten < after_one + release,
        "ten releases {after_ten} B, one release {after_one} B, a release {release} B"
    );
}

/// A paged checkpoint writes the slots that changed, and a release adds
/// nothing to the heap: one edited field and a publish grow it by less
/// than one exported release.
#[test]
fn a_release_adds_no_copy_to_the_page_heap() {
    let lives = Lives::new();
    let mut db = lives.open();
    populate(&mut db, 40);
    db.checkpoint().unwrap();
    let before = lives.heap.durable().len();
    db.edit_field("c", 100, "k007", "f", Atom::Int(-7)).unwrap();
    db.publish("r1").unwrap();
    db.checkpoint().unwrap();
    let grown = lives.heap.durable().len() - before;
    let release = cdb_archive::codec::encode_value(&db.export().unwrap()).len();
    assert!(
        grown < release,
        "heap grew {grown} B, a release is {release} B"
    );
}

/// A checkpoint in truncated form must carry an archive of exactly its
/// publish points: one of fewer or more versions fails the open as
/// corrupt instead of opening with a wrong history.
#[test]
fn a_carried_archive_of_the_wrong_length_is_corrupt() {
    let lives = Lives::with(false, Retention::Reclaim);
    let mut db = lives.open();
    populate(&mut db, 4);
    db.publish("r1").unwrap();
    db.checkpoint().unwrap();
    let mut longer = db.archive().clone();
    longer.add_version(&db.export().unwrap(), "r2").unwrap();
    let shorter = cdb_archive::Archive::new("lives", db.archive().spec().clone());
    drop(db);
    for archive in [shorter, longer] {
        let lives = lives.crash();
        let dev = |d: &SharedDev| Box::new(d.clone()) as Box<dyn Io>;
        let mut store = CheckpointStore::slots(dev(&lives.s1), dev(&lives.s2));
        let mut ck = store.load().unwrap().unwrap();
        assert!(ck.is_truncated());
        ck.archive = archive.encode();
        store.install(&ck).unwrap();
        match lives.try_open() {
            Err(cdb_core::DbError::Storage(m)) => assert!(m.starts_with("corrupt store"), "{m}"),
            other => panic!("opened with a wrong archive: {:?}", other.map(|_| ())),
        }
    }
}

/// How many times opening this database found its anchor unusable.
fn unusable(db: &CuratedDatabase) -> u64 {
    db.metrics().counter("storage.page.anchor_unusable").get()
}

/// An object larger than the 4 KiB page the heap once had is one
/// record, and it round-trips through a checkpoint and a reopen.
#[test]
fn a_large_object_is_one_record() {
    let lives = Lives::new();
    let mut db = lives.open();
    populate(&mut db, 3);
    let big = "x".repeat(12_000);
    db.edit_field("c", 10, "k001", "g", Atom::Str(big.clone()))
        .unwrap();
    db.checkpoint().unwrap();
    let live = db.export().unwrap();
    drop(db);
    let image = lives.heap.durable();
    let records = newest_objects(&image);
    let large: Vec<_> = records.values().filter(|o| o.len() > 10_000).collect();
    assert_eq!(large.len(), 1, "one record holds the large field");
    assert!(large[0].windows(big.len()).any(|w| w == big.as_bytes()));
    let db = lives.crash().open();
    assert_eq!(unusable(&db), 0);
    assert_eq!(db.export().unwrap(), live);
}

/// A heap device whose reads fail once they reach `fail_from`.
#[derive(Debug)]
struct ReadsFailPast(SharedDev, u64);

impl Io for ReadsFailPast {
    fn len(&self) -> Result<u64, StorageError> {
        self.0.len()
    }
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, StorageError> {
        if offset + buf.len() as u64 > self.1 {
            return Err(StorageError::Io(format!("read past {}", self.1)));
        }
        self.0.read_at(offset, buf)
    }
    fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.0.append(bytes)
    }
    fn flush(&mut self) -> Result<(), StorageError> {
        self.0.flush()
    }
    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        self.0.truncate(len)
    }
}

/// A heap read that fails below the anchor's watermark fails the open
/// with the I/O error. It does not make the anchor unusable (under
/// `Reclaim`, with a retired prefix, a WAL fallback could not
/// recover), and it truncates nothing: once reads work again the same
/// anchor serves the open.
#[test]
fn a_heap_read_error_fails_the_open_and_truncates_nothing() {
    let lives = Lives::new();
    let mut db = lives.open();
    populate(&mut db, 20);
    assert!(db.checkpoint().unwrap().retired_segments > 0);
    drop(db);
    let image = lives.heap.durable();
    let watermark = image.len() as u64;
    for fail_from in [0, 8, watermark / 2, watermark - 1] {
        let heap = ReadsFailPast(lives.heap.clone(), fail_from);
        match lives.open_over(Box::new(heap)) {
            Err(cdb_core::DbError::Storage(m)) => assert!(m.starts_with("storage i/o"), "{m}"),
            other => panic!("read error at {fail_from}: {:?}", other.map(|_| ())),
        }
        assert_eq!(lives.heap.durable(), image, "read error at {fail_from}");
    }
    let db = lives.open();
    assert_eq!(unusable(&db), 0);
    assert_eq!(db.entry_keys().unwrap().len(), 20);
    assert_eq!(lives.heap.durable(), image);
}

/// A heap torn below the anchor's watermark makes the anchor unusable:
/// the open replays the WAL and empties the heap. The next checkpoint
/// captures every slot into the empty heap, and a clean reopen serves
/// its anchor and equals the live state. The WAL device keeps every
/// segment, so the open can fall back to it, while the database
/// checkpoints under `Reclaim`: only that form writes the heap.
#[test]
fn a_fallback_open_empties_the_heap_and_the_next_capture_refills_it() {
    let lives = Lives::with(true, Retention::KeepAll);
    let open = |lives: &Lives| {
        let mut db = lives.open();
        db.set_retention(Retention::Reclaim);
        db
    };
    let mut db = open(&lives);
    populate(&mut db, 12);
    db.checkpoint().unwrap();
    drop(db);
    let image = lives.heap.durable();
    let torn = image[..image.len() / 2].to_vec();
    let torn = SharedDev(Arc::new(Mutex::new(FaultyIo::with_contents(
        torn,
        FaultPlan::default(),
    ))));
    let lives = Lives {
        heap: torn,
        ..lives
    };
    let mut db = open(&lives);
    assert_eq!(unusable(&db), 1);
    assert_eq!(lives.heap.durable(), PAGE_MAGIC.to_vec(), "heap emptied");
    add(&mut db, 40, "after");
    db.checkpoint().unwrap();
    let live = (db.curated.tree.clone(), db.curated.prov.clone());
    let export = db.export().unwrap();
    drop(db);
    let db = lives.open();
    assert_eq!(unusable(&db), 0);
    assert!(db.recovery_stats().unwrap().used_checkpoint);
    assert_eq!((db.curated.tree.clone(), db.curated.prov.clone()), live);
    assert_eq!(db.export().unwrap(), export);
}

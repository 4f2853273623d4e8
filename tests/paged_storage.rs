//! Differential harness for the paged storage layer: the page heap +
//! buffer pool must be *byte-equivalent* to the resident state across
//! random curation workloads, eviction schedules (tiny pools churn the
//! clock constantly), crash offsets, and recovery — the headline test
//! of the larger-than-memory milestone.
//!
//! Two proptest properties × 256 cases each (PROPTEST_CASES
//! overrides), plus directed smokes:
//!
//! * `paged_store_is_byte_equivalent_to_resident` — storage-level:
//!   random sessions recaptured transaction-by-transaction into a
//!   `PagedState` (so the heap accumulates superseded page versions
//!   and stranded chunk tails), then every object read and full
//!   materialization must equal the resident `TreeDb`/`ProvStore`
//!   exactly — hot cache and cold reopen alike, at pool sizes
//!   {2, 8, 64}.
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
//! The pool size respects `CDB_TEST_POOL_PAGES` so the check.sh
//! small-pool matrix leg squeezes every test through a 4-frame pool.

mod common;

use std::sync::{Arc, Mutex};

use cdb_core::CuratedDatabase;
use cdb_curation::ops::CuratedTree;
use cdb_curation::provstore::StoreMode;
use cdb_curation::replay::apply_committed;
use cdb_curation::wire;
use cdb_model::Atom;
use cdb_obs::Metrics;
use cdb_storage::{
    pool_pages_from_env, CheckpointStore, FaultPlan, FaultyIo, Io, MemBacking, MemIo, PagedState,
    Retention, SegmentConfig, SegmentedIo, StorageError, KIND_NODE,
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

proptest! {
    /// Storage-level byte equivalence under eviction churn: every
    /// object read from the paged store — through a pool far smaller
    /// than the working set — equals the resident encoding, and full
    /// materialization reproduces the resident `TreeDb` and
    /// `ProvStore` exactly, before and after a cold reopen.
    #[test]
    fn paged_store_is_byte_equivalent_to_resident(
        seed in 0u64..1_000_000,
        naive in any::<bool>(),
        txns in 1usize..6,
        pastes in 0usize..3,
        edits in 0usize..3,
        pool_sel in 0usize..3,
    ) {
        let mode = mode_of(naive);
        let db = session(seed, mode, txns, pastes, edits);
        let pool = pool_pages_from_env([2usize, 8, 64][pool_sel]);
        let metrics = Metrics::new();
        let mut state = PagedState::open(MemIo::new(), pool, None, &metrics).unwrap();

        // Recapture every node after every transaction: the heap
        // accumulates superseded page versions and stranded tails,
        // newest-wins must still hold for each object.
        let mut r = CuratedTree::new(db.tree.name(), mode);
        for txn in &db.log {
            apply_committed(&mut r, txn).unwrap();
            for i in 0..wire::arena_len(&r.tree) {
                state.capture_node(&r.tree, i).unwrap();
                state.capture_prov(&r.prov, i).unwrap();
            }
        }
        state.flush().unwrap();

        let arena = wire::arena_len(&db.tree);
        let root = db.tree.root().index() as u64;
        for i in 0..arena {
            // Byte-for-byte object equivalence, tombstones included.
            prop_assert_eq!(
                state.get_object(KIND_NODE, i as u64).unwrap(),
                wire::encode_tree_node(&db.tree, i),
                "node object {} diverged", i
            );
            let prov = state.node_prov(i as u64).unwrap();
            prop_assert_eq!(
                prov.as_slice(),
                wire::direct_prov_records(&db.prov, i),
                "prov records of node {} diverged", i
            );
        }
        let mt = state.materialize_tree(db.tree.name(), root, arena as u64).unwrap();
        prop_assert_eq!(&mt, &db.tree);
        let mp = state.materialize_prov(mode, arena as u64).unwrap();
        prop_assert_eq!(&mp, &db.prov);

        // Pool invariants: never more resident frames than capacity,
        // and a working set past the pool must actually evict.
        prop_assert!(state.pool_mut().resident() <= pool);
        let stats = state.stats();
        prop_assert!(stats.hits + stats.misses > 0);
        if arena > pool {
            prop_assert!(stats.evictions > 0, "no evictions with {} objects in {} frames", arena, pool);
        }

        // Cold reopen from the durable device at the flushed
        // watermark: same answers with an empty cache.
        let heap_len = state.heap_len();
        let io = state.into_store().into_io();
        let mut re = PagedState::open(io, pool, Some(heap_len), &metrics).unwrap();
        let mt = re.materialize_tree(db.tree.name(), root, arena as u64).unwrap();
        prop_assert_eq!(&mt, &db.tree);
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
    /// Database-level differential: the same scripted session through
    /// a classic database and a paged one yields identical WAL bytes,
    /// identical live state and queries, and identical recovery
    /// outcomes after a crash cut at an arbitrary WAL byte offset.
    #[test]
    fn paged_database_matches_classic_and_recovery(
        seed in 0u64..1_000_000,
        ops in 4usize..16,
        ckpt_every in 1usize..5,
        pool in 2usize..9,
        cut_sel in 0usize..100_000,
    ) {
        let pool = pool_pages_from_env(pool);
        let wal_a = SharedDev::new();
        let mut classic = CuratedDatabase::open(
            "diff",
            "id",
            Box::new(wal_a.clone()),
            CheckpointStore::mem(),
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
            pool,
        )
        .unwrap();
        prop_assert!(paged.is_paged());
        prop_assert!(!classic.is_paged());

        drive(&mut classic, seed, ops, ckpt_every);
        drive(&mut paged, seed, ops, ckpt_every);

        // Identical live state, queries, and provenance annotations.
        prop_assert_eq!(&classic.curated, &paged.curated);
        prop_assert_eq!(classic.export().unwrap(), paged.export().unwrap());
        prop_assert_eq!(classic.entry_keys().unwrap(), paged.entry_keys().unwrap());
        prop_assert_eq!(
            classic.archive().version_count(),
            paged.archive().version_count()
        );

        // The paged pool actually served the checkpoint captures, and
        // its counters surfaced through the metrics registry.
        let stats = paged.paged_stats().unwrap();
        prop_assert!(stats.hits + stats.misses > 0);
        let snap = paged.metrics_snapshot();
        prop_assert!(snap.counters.contains_key("storage.buffer.miss"));

        // The WAL protocol is untouched by paging: byte-identical logs.
        drop(classic);
        drop(paged);
        let img_a = wal_a.durable();
        let img_b = wal_b.durable();
        prop_assert_eq!(&img_a, &img_b, "paged database diverged on the WAL");

        // Crash at an arbitrary byte offset: both recoveries land on
        // the same state, whether the surviving log still covers the
        // paged anchor (page-granular load + tail replay) or not
        // (anchor discarded, full replay).
        let cut = 8 + cut_sel % (img_b.len() - 7);
        let re_classic = CuratedDatabase::open(
            "diff",
            "id",
            Box::new(MemIo::from_bytes(img_a[..cut].to_vec())),
            CheckpointStore::mem(),
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
            pool,
        )
        .unwrap();
        prop_assert_eq!(&re_classic.curated, &re_paged.curated, "recovery outcomes diverged at cut {}", cut);
        prop_assert_eq!(re_classic.export().unwrap(), re_paged.export().unwrap());
        prop_assert_eq!(
            re_classic.entry_keys().unwrap(),
            re_paged.entry_keys().unwrap()
        );
    }
}

/// The shared serving layer rides the same machinery: a paged
/// `SharedDb` checkpoints page-granularly and reopens to the same
/// state.
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
        pool_pages_from_env(4),
        Duration::from_millis(0),
    )
    .unwrap();
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
        pool_pages_from_env(4),
        Duration::from_millis(0),
    )
    .unwrap();
    assert_eq!(re.snapshot().export().unwrap(), before);
}

/// A database of a size people curate: 2 000 entries (some 14 000
/// arena slots) through checkpoint → reopen → edit → checkpoint →
/// reopen, equal to the resident database driven alike at both
/// reopens. Capture reads the arena slot by slot; when each of those
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
        let pool = pool_pages_from_env(64);
        CuratedDatabase::open_paged("big", "id", dev(&wal), slots, dev(&heap), pool).unwrap()
    };
    let probes = [key(0), key(7), "never".to_owned()];
    let same = |paged: &CuratedDatabase, resident: &CuratedDatabase| {
        assert_eq!(paged.curated, resident.curated);
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
/// provenance the page heap holds, the exported value, the entries and
/// the derived state (the primary index probed with `probes`). The logs
/// may differ: one recovered under `Retention::Reclaim` holds only a
/// tail.
fn assert_same(paged: &CuratedDatabase, resident: &CuratedDatabase, probes: &[String]) {
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

/// The devices of one paged database under `Retention::Reclaim`, opened
/// life after life: a WAL in 512-byte segments (so checkpoints retire
/// some), two checkpoint slots and the page heap.
struct Lives {
    wal: MemBacking,
    s1: SharedDev,
    s2: SharedDev,
    heap: SharedDev,
}

impl Lives {
    fn new() -> Self {
        Lives {
            wal: MemBacking::new(),
            s1: SharedDev::new(),
            s2: SharedDev::new(),
            heap: SharedDev::new(),
        }
    }

    fn open(&self) -> CuratedDatabase {
        let cfg = SegmentConfig {
            segment_bytes: 512,
            retention: Retention::Reclaim,
        };
        let wal = SegmentedIo::open(Box::new(self.wal.clone()), cfg).unwrap();
        let dev = |d: &SharedDev| Box::new(d.clone()) as Box<dyn Io>;
        let slots = CheckpointStore::slots(dev(&self.s1), dev(&self.s2));
        let pool = pool_pages_from_env(8);
        let mut db =
            CuratedDatabase::open_paged("lives", "id", Box::new(wal), slots, dev(&self.heap), pool)
                .unwrap();
        db.set_retention(Retention::Reclaim);
        db
    }

    /// The devices a reopen after a crash sees: durable bytes only.
    fn crash(&self) -> Self {
        Lives {
            wal: self.wal.crash(),
            s1: self.s1.crash(),
            s2: self.s2.crash(),
            heap: self.heap.crash(),
        }
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

//! End-to-end durability for the integrated database: open → curate →
//! crash/reopen → identical state, across file, memory, and
//! fault-injected devices.

use std::sync::{Arc, Mutex};

use cdb_core::storage::{CheckpointStore, FaultPlan, FaultyIo, Io, MemIo, StorageError};
use cdb_core::{CuratedDatabase, Durability, Fate};
use cdb_model::{Atom, Value};

/// A fault-injected device the test keeps a handle on after the
/// database takes ownership, so it can crash it post-drop. (`Mutex`
/// rather than `RefCell` because `Io` is `Send + Sync` — devices can
/// be shared with concurrent databases.)
#[derive(Debug, Clone)]
struct SharedFaulty(Arc<Mutex<Option<FaultyIo>>>);

impl SharedFaulty {
    fn new(plan: FaultPlan) -> Self {
        SharedFaulty(Arc::new(Mutex::new(Some(FaultyIo::new(plan)))))
    }

    fn crash(&self) -> Vec<u8> {
        self.0
            .lock()
            .unwrap()
            .take()
            .expect("device already crashed")
            .crash()
    }
}

/// After [`SharedFaulty::crash`] the device is gone: every operation
/// errors (it does not panic — the database's best-effort drop flush
/// may still run against it).
fn crashed() -> StorageError {
    StorageError::Io("device crashed".into())
}

impl Io for SharedFaulty {
    fn len(&self) -> Result<u64, StorageError> {
        self.0
            .lock()
            .unwrap()
            .as_ref()
            .map_or_else(|| Err(crashed()), Io::len)
    }
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, StorageError> {
        match self.0.lock().unwrap().as_mut() {
            Some(io) => io.read_at(offset, buf),
            None => Err(crashed()),
        }
    }
    fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        match self.0.lock().unwrap().as_mut() {
            Some(io) => io.append(bytes),
            None => Err(crashed()),
        }
    }
    fn flush(&mut self) -> Result<(), StorageError> {
        match self.0.lock().unwrap().as_mut() {
            Some(io) => io.flush(),
            None => Err(crashed()),
        }
    }
    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        match self.0.lock().unwrap().as_mut() {
            Some(io) => io.truncate(len),
            None => Err(crashed()),
        }
    }
}

/// Shared in-memory device for the checkpoint file, surviving the
/// database that owns the boxed handle.
#[derive(Debug, Clone)]
struct SharedMem(Arc<Mutex<MemIo>>);

impl SharedMem {
    fn new() -> Self {
        SharedMem(Arc::new(Mutex::new(MemIo::new())))
    }
}

/// A two-slot checkpoint store over shared in-memory slots, surviving
/// the database that owns the store handle — so the checkpoint
/// installed before a crash is loadable at reopen.
#[derive(Debug, Clone)]
struct SharedCkpt(SharedMem, SharedMem);

impl SharedCkpt {
    fn new() -> Self {
        SharedCkpt(SharedMem::new(), SharedMem::new())
    }

    /// A fresh store over the same underlying slots.
    fn store(&self) -> CheckpointStore {
        CheckpointStore::slots(Box::new(self.0.clone()), Box::new(self.1.clone()))
    }
}

impl Io for SharedMem {
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

/// Runs a representative curation career against the database: adds,
/// edits, annotations, a merge, a split, and two publishes.
fn curate(db: &mut CuratedDatabase) {
    db.add_entry(
        "alice",
        1,
        "GABA-A",
        &[("kind", Atom::Str("receptor".into())), ("tm", Atom::Int(4))],
    )
    .unwrap();
    db.add_entry("bob", 2, "5-HT3", &[("kind", Atom::Str("receptor".into()))])
        .unwrap();
    db.publish("r0").unwrap();
    db.edit_field(
        "carol",
        3,
        "GABA-A",
        "kind",
        Atom::Str("ion channel".into()),
    )
    .unwrap();
    db.annotate("GABA-A", Some("kind"), "carol", "verify vs IUPHAR", 4)
        .unwrap();
    db.add_entry("erin", 5, "NMDA", &[("tm", Atom::Int(4))])
        .unwrap();
    db.merge_entries("erin", 6, "GABA-A", "5-HT3").unwrap();
    db.split_entry("erin", 7, "NMDA", &[("NMDA-1", vec![]), ("NMDA-2", vec![])])
        .unwrap();
    db.publish("r1").unwrap();
}

/// Asserts the recovered database is observably identical to the
/// reference: tree + provenance + log, lifecycle, notes, and every
/// archived version.
fn assert_same(recovered: &CuratedDatabase, reference: &CuratedDatabase) {
    assert_eq!(recovered.curated, reference.curated);
    assert_eq!(recovered.lifecycle, reference.lifecycle);
    assert_eq!(
        recovered.notes_on("GABA-A", Some("kind")),
        reference.notes_on("GABA-A", Some("kind"))
    );
    assert_eq!(
        recovered.archive().version_count(),
        reference.archive().version_count()
    );
    for v in 0..reference.archive().version_count() {
        assert_eq!(
            recovered.version(v).unwrap(),
            reference.version(v).unwrap(),
            "archived version {v} differs"
        );
    }
    assert_eq!(recovered.export().unwrap(), reference.export().unwrap());
}

fn reference() -> CuratedDatabase {
    let mut db = CuratedDatabase::new("iuphar", "name");
    curate(&mut db);
    db
}

#[test]
fn durable_database_survives_clean_reopen_on_files() {
    let dir = std::env::temp_dir().join(format!("cdb-durable-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    {
        let mut db = CuratedDatabase::open_dir("iuphar", "name", &dir).unwrap();
        assert!(db.is_durable());
        assert!(db.recovery_stats().is_some());
        curate(&mut db);
    }
    let db = CuratedDatabase::open_dir("iuphar", "name", &dir).unwrap();
    assert_same(&db, &reference());
    let stats = db.recovery_stats().unwrap();
    assert_eq!(stats.frames_dropped, 0);
    assert!(stats.frames_scanned > 0);

    // The reopened database keeps working: ids, publishes, citations.
    let mut db = db;
    db.add_entry("fred", 8, "AMPA", &[]).unwrap();
    let v = db.publish("r2").unwrap();
    let cited = db.cite(v, "AMPA").unwrap();
    assert!(cited.authors.contains(&"fred".to_string()));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_with_always_durability_loses_nothing() {
    let wal = SharedFaulty::new(FaultPlan::default());
    let ckpt = SharedCkpt::new();
    {
        let mut db =
            CuratedDatabase::open("iuphar", "name", Box::new(wal.clone()), ckpt.store()).unwrap();
        assert_eq!(db.durability(), Durability::Always);
        curate(&mut db);
        // db dropped without any orderly shutdown.
    }
    let image = wal.crash();
    let db = CuratedDatabase::open(
        "iuphar",
        "name",
        Box::new(MemIo::from_bytes(image)),
        ckpt.store(),
    )
    .unwrap();
    assert_same(&db, &reference());
}

#[test]
fn crash_with_batched_durability_loses_only_the_unsynced_tail() {
    let wal = SharedFaulty::new(FaultPlan::default());
    let image;
    {
        let mut db = CuratedDatabase::open(
            "iuphar",
            "name",
            Box::new(wal.clone()),
            CheckpointStore::mem(),
        )
        .unwrap();
        db.set_durability(Durability::Batched);
        db.add_entry("alice", 1, "A", &[("tm", Atom::Int(1))])
            .unwrap();
        db.add_entry("bob", 2, "B", &[]).unwrap();
        db.sync().unwrap();
        db.add_entry("carol", 3, "C", &[]).unwrap(); // never synced
                                                     // The device dies while the handle is still alive — a real
                                                     // crash, so the best-effort flush on drop has nowhere to write
                                                     // and C's frames are genuinely lost.
        image = wal.crash();
    }
    let db = CuratedDatabase::open(
        "iuphar",
        "name",
        Box::new(MemIo::from_bytes(image)),
        CheckpointStore::mem(),
    )
    .unwrap();
    let mut keys = db.entry_keys().unwrap();
    keys.sort();
    assert_eq!(keys, vec!["A".to_string(), "B".to_string()]);
    // The lost transaction's lifecycle event vanished with it.
    assert!(db.lifecycle.fate("C").is_err());
    // And the database keeps working from the truncated state.
    let mut db = db;
    db.add_entry("dave", 4, "D", &[]).unwrap();
    assert_eq!(db.entry_keys().unwrap().len(), 3);
}

#[test]
fn checkpoint_is_used_by_recovery_and_changes_nothing() {
    let wal = SharedFaulty::new(FaultPlan::default());
    let ckpt = SharedCkpt::new();
    {
        let mut db =
            CuratedDatabase::open("iuphar", "name", Box::new(wal.clone()), ckpt.store()).unwrap();
        db.add_entry(
            "alice",
            1,
            "GABA-A",
            &[("kind", Atom::Str("receptor".into())), ("tm", Atom::Int(4))],
        )
        .unwrap();
        db.add_entry("bob", 2, "5-HT3", &[("kind", Atom::Str("receptor".into()))])
            .unwrap();
        db.publish("r0").unwrap();
        db.checkpoint().unwrap();
        db.edit_field(
            "carol",
            3,
            "GABA-A",
            "kind",
            Atom::Str("ion channel".into()),
        )
        .unwrap();
        db.annotate("GABA-A", Some("kind"), "carol", "verify vs IUPHAR", 4)
            .unwrap();
        db.add_entry("erin", 5, "NMDA", &[("tm", Atom::Int(4))])
            .unwrap();
        db.merge_entries("erin", 6, "GABA-A", "5-HT3").unwrap();
        db.split_entry("erin", 7, "NMDA", &[("NMDA-1", vec![]), ("NMDA-2", vec![])])
            .unwrap();
        db.publish("r1").unwrap();
    }
    let image = wal.crash();
    let db = CuratedDatabase::open(
        "iuphar",
        "name",
        Box::new(MemIo::from_bytes(image)),
        ckpt.store(),
    )
    .unwrap();
    assert_same(&db, &reference());
    let stats = db.recovery_stats().unwrap();
    assert!(stats.used_checkpoint);
    assert_eq!(stats.txns_adopted, 2);
    assert!(stats.txns_replayed >= 4);
}

#[test]
fn torn_wal_tail_is_truncated_and_state_rolls_back_cleanly() {
    let wal = SharedFaulty::new(FaultPlan::default());
    {
        let mut db = CuratedDatabase::open(
            "iuphar",
            "name",
            Box::new(wal.clone()),
            CheckpointStore::mem(),
        )
        .unwrap();
        db.add_entry("alice", 1, "A", &[("tm", Atom::Int(1))])
            .unwrap();
        db.add_entry("bob", 2, "B", &[]).unwrap();
    }
    let mut image = wal.crash();
    // Tear mid-frame: chop the last 3 bytes of the final frame.
    image.truncate(image.len() - 3);
    let db = CuratedDatabase::open(
        "iuphar",
        "name",
        Box::new(MemIo::from_bytes(image)),
        CheckpointStore::mem(),
    )
    .unwrap();
    let stats = db.recovery_stats().unwrap();
    assert_eq!(stats.frames_dropped, 1);
    assert!(stats.bytes_dropped > 0);
    let keys = db.entry_keys().unwrap();
    assert_eq!(keys, vec!["A".to_string()]);
    // B's lifecycle creation rode in a frame after B's transaction —
    // both were torn, so the registry is consistent with the tree.
    assert!(db.lifecycle.fate("B").is_err());
    assert!(db.lifecycle.is_active("A"));
}

/// Reusing a retired identifier is rejected before anything commits,
/// so the WAL never develops a gap. (Before this was enforced, the
/// rejected op left a committed-but-never-persisted transaction in the
/// in-memory log; the next commit skipped it in the WAL forever, and
/// every later reopen failed verification — permanent data loss.)
#[test]
fn rejected_retired_id_reuse_leaves_the_wal_recoverable() {
    let wal = SharedFaulty::new(FaultPlan::default());
    {
        let mut db = CuratedDatabase::open(
            "iuphar",
            "name",
            Box::new(wal.clone()),
            CheckpointStore::mem(),
        )
        .unwrap();
        db.add_entry("alice", 1, "A", &[]).unwrap();
        db.delete_entry("alice", 2, "A").unwrap();
        // "A" is retired: recreating it fails cleanly, committing nothing.
        assert!(db.add_entry("bob", 3, "A", &[]).is_err());
        // Follow-on commits persist fine.
        db.add_entry("bob", 4, "B", &[]).unwrap();
    }
    let image = wal.crash();
    let db = CuratedDatabase::open(
        "iuphar",
        "name",
        Box::new(MemIo::from_bytes(image)),
        CheckpointStore::mem(),
    )
    .unwrap();
    assert_eq!(db.entry_keys().unwrap(), vec!["B".to_string()]);
    assert_eq!(db.lifecycle.fate("A").unwrap(), &Fate::Deleted);
    assert!(db.lifecycle.is_active("B"));
}

/// A transient WAL append failure delays persistence of that commit —
/// the next successful commit writes every unpersisted transaction, in
/// order, rather than skipping the failed one forever.
#[test]
fn failed_wal_append_is_retried_by_the_next_commit() {
    // Append #1 is the WAL header; #2 is A's commit frame; #3 (B's
    // commit frame) fails once.
    let wal = SharedFaulty::new(FaultPlan {
        fail_append: Some(3),
        ..FaultPlan::default()
    });
    {
        let mut db = CuratedDatabase::open(
            "iuphar",
            "name",
            Box::new(wal.clone()),
            CheckpointStore::mem(),
        )
        .unwrap();
        db.add_entry("alice", 1, "A", &[]).unwrap();
        assert!(db.add_entry("bob", 2, "B", &[]).is_err(), "append fails");
        // C's commit drains B's queued frame first, then its own.
        db.add_entry("carol", 3, "C", &[]).unwrap();
    }
    let image = wal.crash();
    let db = CuratedDatabase::open(
        "iuphar",
        "name",
        Box::new(MemIo::from_bytes(image)),
        CheckpointStore::mem(),
    )
    .unwrap();
    let mut keys = db.entry_keys().unwrap();
    keys.sort();
    assert_eq!(
        keys,
        vec!["A".to_string(), "B".to_string(), "C".to_string()],
        "the commit whose append failed was retried, not skipped"
    );
    assert!(db.lifecycle.is_active("B"));
    assert_eq!(db.recovery_stats().unwrap().frames_dropped, 0);
}

/// An explicit sync with nothing pending — before any commit, and
/// again after everything is already synced — is a harmless no-op:
/// no error, no effect on what recovery sees.
#[test]
fn empty_batch_sync_is_a_no_op() {
    let wal = SharedFaulty::new(FaultPlan::default());
    {
        let mut db = CuratedDatabase::open(
            "iuphar",
            "name",
            Box::new(wal.clone()),
            CheckpointStore::mem(),
        )
        .unwrap();
        db.set_durability(Durability::Batched);
        db.sync().unwrap(); // nothing has ever been appended
        db.add_entry("alice", 1, "A", &[]).unwrap();
        db.sync().unwrap();
        db.sync().unwrap(); // batch already empty again
    }
    let db = CuratedDatabase::open(
        "iuphar",
        "name",
        Box::new(MemIo::from_bytes(wal.crash())),
        CheckpointStore::mem(),
    )
    .unwrap();
    assert_eq!(db.entry_keys().unwrap(), vec!["A".to_string()]);
}

/// A checkpoint taken while a batch is still pending must sync that
/// batch first — otherwise the checkpoint could capture state whose
/// WAL frames a crash then loses, and recovery would see a checkpoint
/// "from the future" relative to its log.
#[test]
fn checkpoint_racing_a_pending_batch_syncs_it_first() {
    let wal = SharedFaulty::new(FaultPlan::default());
    let ckpt = SharedCkpt::new();
    let image;
    {
        let mut db =
            CuratedDatabase::open("iuphar", "name", Box::new(wal.clone()), ckpt.store()).unwrap();
        db.set_durability(Durability::Batched);
        db.add_entry("alice", 1, "A", &[]).unwrap(); // pending, unsynced
        db.checkpoint().unwrap(); // must flush A before snapshotting
        db.add_entry("bob", 2, "B", &[]).unwrap(); // unsynced, lost in crash
        image = wal.crash(); // crash, not a clean drop — B is gone
    }
    let db = CuratedDatabase::open(
        "iuphar",
        "name",
        Box::new(MemIo::from_bytes(image)),
        ckpt.store(),
    )
    .unwrap();
    assert_eq!(db.entry_keys().unwrap(), vec!["A".to_string()]);
    let stats = db.recovery_stats().unwrap();
    assert!(stats.used_checkpoint);
    assert_eq!(
        stats.frames_dropped, 0,
        "checkpoint state is all in the WAL"
    );
}

/// `fail_append` under group commit: one batch's device write fails.
/// The failed op reports the error, its frames stay in the group's
/// batch, and the next commit writes them first —
/// the WAL stays gap-free through the shared group-commit path just as
/// it does through the owned path.
#[test]
fn fail_append_during_group_commit_is_retried_not_skipped() {
    use cdb_core::SharedDb;
    use std::time::Duration;

    // Append #1 is the WAL header; #2 is A's frame; #3 (B) fails once.
    let wal = SharedFaulty::new(FaultPlan {
        fail_append: Some(3),
        ..FaultPlan::default()
    });
    let db = SharedDb::open(
        "iuphar",
        "name",
        Box::new(wal.clone()),
        CheckpointStore::mem(),
        Duration::ZERO,
    )
    .unwrap();
    db.add_entry("alice", 1, "A", &[]).unwrap();
    assert!(db.add_entry("bob", 2, "B", &[]).is_err(), "append fails");
    db.add_entry("carol", 3, "C", &[]).unwrap(); // drains B's frame first
    let failed_syncs = db.metrics().counter("storage.group.failed_syncs").get();
    assert_eq!(failed_syncs, 0, "the fault was in append, not sync");
    drop(db);
    let recovered = CuratedDatabase::open(
        "iuphar",
        "name",
        Box::new(MemIo::from_bytes(wal.crash())),
        CheckpointStore::mem(),
    )
    .unwrap();
    let mut keys = recovered.entry_keys().unwrap();
    keys.sort();
    assert_eq!(
        keys,
        vec!["A".to_string(), "B".to_string(), "C".to_string()],
        "the commit whose append failed was retried, not skipped"
    );
}

/// A short WAL write: half of B's frame reaches the device, then the
/// write errors. The torn half is cut back off, so C's commit writes
/// B's frame again whole and then C, and recovery keeps all three —
/// not just the prefix in front of a torn frame.
#[test]
fn short_wal_write_is_cut_off_and_rewritten() {
    // Append #1 is the WAL header; #2 is A's frame; #3 (B) is short.
    let wal = SharedFaulty::new(FaultPlan {
        short_append: Some(3),
        ..FaultPlan::default()
    });
    {
        let mut db = CuratedDatabase::open(
            "iuphar",
            "name",
            Box::new(wal.clone()),
            CheckpointStore::mem(),
        )
        .unwrap();
        db.add_entry("alice", 1, "A", &[]).unwrap();
        assert!(db.add_entry("bob", 2, "B", &[]).is_err(), "short write");
        db.add_entry("carol", 3, "C", &[]).unwrap();
    }
    let recovered = CuratedDatabase::open(
        "iuphar",
        "name",
        Box::new(MemIo::from_bytes(wal.crash())),
        CheckpointStore::mem(),
    )
    .unwrap();
    let mut keys = recovered.entry_keys().unwrap();
    keys.sort();
    assert_eq!(keys, ["A", "B", "C"]);
    assert_eq!(recovered.recovery_stats().unwrap().frames_dropped, 0);
}

/// Dropping a batched database without a final explicit sync flushes
/// the tail best-effort: a clean shutdown loses nothing.
#[test]
fn clean_drop_with_batched_durability_flushes_the_tail() {
    let wal = SharedFaulty::new(FaultPlan::default());
    {
        let mut db = CuratedDatabase::open(
            "iuphar",
            "name",
            Box::new(wal.clone()),
            CheckpointStore::mem(),
        )
        .unwrap();
        db.set_durability(Durability::Batched);
        db.add_entry("alice", 1, "A", &[]).unwrap();
        db.add_entry("bob", 2, "B", &[]).unwrap();
        // No sync: the drop must flush what recovery will need.
    }
    let db = CuratedDatabase::open(
        "iuphar",
        "name",
        Box::new(MemIo::from_bytes(wal.crash())),
        CheckpointStore::mem(),
    )
    .unwrap();
    let mut keys = db.entry_keys().unwrap();
    keys.sort();
    assert_eq!(keys, vec!["A".to_string(), "B".to_string()]);
}

/// When the drop-time flush cannot reach the device, the failure is
/// counted (`storage.error.dropped_unsynced`) instead of panicking in
/// a destructor.
#[test]
fn failed_drop_flush_is_counted_not_fatal() {
    let counter = cdb_obs::global().counter("storage.error.dropped_unsynced");
    let before = counter.get();
    let wal = SharedFaulty::new(FaultPlan::default());
    {
        let mut db = CuratedDatabase::open(
            "iuphar",
            "name",
            Box::new(wal.clone()),
            CheckpointStore::mem(),
        )
        .unwrap();
        db.set_durability(Durability::Batched);
        db.add_entry("alice", 1, "A", &[]).unwrap();
        let _ = wal.crash(); // device gone before the handle drops
    }
    assert!(
        counter.get() > before,
        "a failed drop flush must bump storage.error.dropped_unsynced"
    );
}

/// A device whose appends can be gated shut, to build an arbitrarily
/// large queued-frame backlog without one-shot fault plans.
#[derive(Debug, Clone)]
struct GatedIo(Arc<Mutex<(MemIo, bool)>>);

impl GatedIo {
    fn new() -> Self {
        GatedIo(Arc::new(Mutex::new((MemIo::new(), true))))
    }

    fn set_open(&self, open: bool) {
        self.0.lock().unwrap().1 = open;
    }

    fn bytes(&self) -> Vec<u8> {
        self.0.lock().unwrap().0.bytes().to_vec()
    }
}

impl Io for GatedIo {
    fn len(&self) -> Result<u64, StorageError> {
        self.0.lock().unwrap().0.len()
    }
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, StorageError> {
        self.0.lock().unwrap().0.read_at(offset, buf)
    }
    fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        let mut inner = self.0.lock().unwrap();
        if !inner.1 {
            return Err(StorageError::Io("append gate closed".into()));
        }
        inner.0.append(bytes)
    }
    fn flush(&mut self) -> Result<(), StorageError> {
        self.0.lock().unwrap().0.flush()
    }
    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        self.0.lock().unwrap().0.truncate(len)
    }
}

/// Ten thousand commits' worth of frames queue up behind a dead device
/// and then drain in one linear pass once it heals — each failed write
/// stops at the batch's first frame and hands the batch back whole, so
/// the backlog costs O(n), and recovery sees every transaction.
#[test]
fn ten_thousand_frame_backlog_drains_in_one_pass() {
    let dev = GatedIo::new();
    {
        let mut db = CuratedDatabase::open(
            "iuphar",
            "name",
            Box::new(dev.clone()),
            CheckpointStore::mem(),
        )
        .unwrap();
        dev.set_open(false);
        for i in 0..10_000u64 {
            // Each add commits in memory and queues its frame; the
            // append error is reported but nothing is lost.
            assert!(db.add_entry("alice", i, &format!("E{i:05}"), &[]).is_err());
        }
        dev.set_open(true);
        db.sync().unwrap();
    }
    let db = CuratedDatabase::open(
        "iuphar",
        "name",
        Box::new(MemIo::from_bytes(dev.bytes())),
        CheckpointStore::mem(),
    )
    .unwrap();
    assert_eq!(db.entry_keys().unwrap().len(), 10_000);
    assert_eq!(db.recovery_stats().unwrap().frames_dropped, 0);
}

#[test]
fn recovered_export_matches_value_level_snapshot() {
    let wal = SharedFaulty::new(FaultPlan::default());
    let snapshot: Value;
    {
        let mut db = CuratedDatabase::open(
            "iuphar",
            "name",
            Box::new(wal.clone()),
            CheckpointStore::mem(),
        )
        .unwrap();
        curate(&mut db);
        snapshot = db.export().unwrap();
    }
    let image = wal.crash();
    let db = CuratedDatabase::open(
        "iuphar",
        "name",
        Box::new(MemIo::from_bytes(image)),
        CheckpointStore::mem(),
    )
    .unwrap();
    assert_eq!(db.export().unwrap(), snapshot);
}

/// The on-disk sharded stack end to end: per-shard segmented WALs and
/// directory checkpoint stores under one directory, a cross-shard 2PC
/// merge, a checkpoint, a live tail past it — then a clean reopen that
/// must recover every shard and the merge atomically.
#[test]
fn sharded_database_survives_clean_reopen_on_files() {
    use cdb_core::{ShardMap, ShardedDb};
    use std::time::Duration;

    let dir = std::env::temp_dir().join(format!("cdb-sharded-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let map = ShardMap::uniform(2);
    // One key per shard, probed from the map.
    let key_on = |shard: usize| {
        (b'A'..=b'z')
            .map(|b| format!("{}R", b as char))
            .find(|k| map.route(k) == shard)
            .unwrap()
    };
    let (a, z) = (key_on(0), key_on(1));
    {
        let db = ShardedDb::open_dir("iuphar", "name", map.clone(), &dir, Duration::ZERO).unwrap();
        db.add_entry("alice", 1, &a, &[("tm", Atom::Int(4))])
            .unwrap();
        db.add_entry("bob", 2, &z, &[("pore", Atom::Int(3))])
            .unwrap();
        db.merge_entries("carol", 3, &a, &z).unwrap(); // cross-shard 2PC
        db.checkpoint().unwrap();
        db.edit_field("dave", 4, &a, "tm", Atom::Int(5)).unwrap(); // live tail
    }
    let db = ShardedDb::open_dir("iuphar", "name", map, &dir, Duration::ZERO).unwrap();
    let snap = db.snapshot();
    assert_eq!(snap.entry_keys().unwrap(), vec![a.clone()]);
    assert_eq!(snap.field(&a, "tm").unwrap(), Atom::Int(5));
    // The merge carried the absorbed entry's field across shards.
    assert_eq!(snap.field(&a, "pore").unwrap(), Atom::Int(3));
    assert_eq!(snap.resolve_id(&z).unwrap(), vec![a.clone()]);

    // The reopened registry remembers z is retired (§6.2) …
    assert!(db.add_entry("erin", 5, &z, &[]).is_err());
    // … and the shards keep serving writes, including another 2PC.
    let z2 = format!("{z}2");
    assert_ne!(db.map().route(&a), db.map().route(&z2));
    db.add_entry("erin", 5, &z2, &[("tm", Atom::Int(7))])
        .unwrap();
    db.merge_entries("fred", 6, &a, &z2).unwrap();
    assert_eq!(db.snapshot().entry_keys().unwrap(), vec![a]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Index registrations ride the WAL (AUX tag 4); postings are derived
/// state rebuilt from the recovered tree. After a crash the recovered
/// indexes must be observably identical to indexes built from scratch
/// over the same final tree — the live per-commit reconcile and the
/// recovery-time rebuild must agree.
#[test]
fn indexes_survive_crash_and_equal_a_fresh_rebuild() {
    let wal = SharedFaulty::new(FaultPlan::default());
    {
        let mut db = CuratedDatabase::open(
            "iuphar",
            "name",
            Box::new(wal.clone()),
            CheckpointStore::mem(),
        )
        .unwrap();
        assert!(db.create_index("kind").unwrap());
        assert!(db.create_index("tm").unwrap());
        assert!(!db.create_index("tm").unwrap(), "second create is a no-op");
        curate(&mut db); // adds, edits, merge, split — all reconciled live
    }
    let image = wal.crash();
    let db = CuratedDatabase::open(
        "iuphar",
        "name",
        Box::new(MemIo::from_bytes(image)),
        CheckpointStore::mem(),
    )
    .unwrap();
    // From-scratch reference: curate first, index after — postings are
    // built in one pass over the final tree, no incremental reconcile.
    let mut fresh = reference();
    fresh.create_index("kind").unwrap();
    fresh.create_index("tm").unwrap();
    assert_eq!(
        db.index_fields(),
        vec!["kind".to_string(), "tm".to_string()]
    );
    assert_eq!(db.field_index("kind"), fresh.field_index("kind"));
    assert_eq!(db.field_index("tm"), fresh.field_index("tm"));
    // Spot-check through the lookup API: the merge folded 5-HT3 into
    // GABA-A, the split retired NMDA for NMDA-1/NMDA-2 (tm-less).
    assert_eq!(
        db.index_lookup("tm", &Atom::Int(4)).unwrap(),
        vec!["GABA-A".to_string()]
    );
    assert!(db.index_lookup("tm", &Atom::Int(9)).unwrap().is_empty());
}

/// Dropping an index is as durable as creating one: after a crash the
/// dropped field stays unindexed while the surviving one still answers.
#[test]
fn drop_index_is_durable() {
    let wal = SharedFaulty::new(FaultPlan::default());
    {
        let mut db = CuratedDatabase::open(
            "iuphar",
            "name",
            Box::new(wal.clone()),
            CheckpointStore::mem(),
        )
        .unwrap();
        db.create_index("kind").unwrap();
        db.create_index("tm").unwrap();
        curate(&mut db);
        assert!(db.drop_index("kind").unwrap());
        assert!(!db.drop_index("kind").unwrap(), "second drop is a no-op");
    }
    let image = wal.crash();
    let db = CuratedDatabase::open(
        "iuphar",
        "name",
        Box::new(MemIo::from_bytes(image)),
        CheckpointStore::mem(),
    )
    .unwrap();
    assert_eq!(db.index_fields(), vec!["tm".to_string()]);
    assert!(db.field_index("kind").is_none());
    assert!(db.field_index("tm").is_some());
}

/// A checkpoint re-encodes the surviving registrations, so recovery
/// that adopts the checkpoint (and never sees the original create
/// frames) still rebuilds the indexes.
#[test]
fn checkpoint_carries_index_registrations() {
    let wal = SharedFaulty::new(FaultPlan::default());
    let ckpt = SharedCkpt::new();
    {
        let mut db =
            CuratedDatabase::open("iuphar", "name", Box::new(wal.clone()), ckpt.store()).unwrap();
        db.create_index("tm").unwrap();
        db.add_entry("alice", 1, "GABA-A", &[("tm", Atom::Int(4))])
            .unwrap();
        db.checkpoint().unwrap();
        // Tail past the checkpoint: the recovered index must cover this
        // entry too, proving rebuild runs over the fully recovered tree.
        db.add_entry("bob", 2, "5-HT3", &[("tm", Atom::Int(4))])
            .unwrap();
    }
    let image = wal.crash();
    let db = CuratedDatabase::open(
        "iuphar",
        "name",
        Box::new(MemIo::from_bytes(image)),
        ckpt.store(),
    )
    .unwrap();
    assert!(db.recovery_stats().unwrap().used_checkpoint);
    assert_eq!(db.index_fields(), vec!["tm".to_string()]);
    assert_eq!(
        db.index_lookup("tm", &Atom::Int(4)).unwrap(),
        vec!["5-HT3".to_string(), "GABA-A".to_string()]
    );
}

/// The live reconcile keeps postings exact through the full curation
/// vocabulary: edits move keys between values, merges drop the absorbed
/// key everywhere, splits retire the original and index the parts, and
/// deletes unlink the key.
#[test]
fn index_reconcile_tracks_edits_merges_splits_and_deletes() {
    let mut db = CuratedDatabase::new("iuphar", "name");
    db.create_index("kind").unwrap();
    let receptor = || Atom::Str("receptor".into());
    let channel = || Atom::Str("channel".into());
    db.add_entry("a", 1, "GABA-A", &[("kind", receptor())])
        .unwrap();
    db.add_entry("a", 2, "5-HT3", &[("kind", receptor())])
        .unwrap();
    db.add_entry("a", 3, "NMDA", &[("kind", channel())])
        .unwrap();
    assert_eq!(
        db.index_lookup("kind", &receptor()).unwrap(),
        vec!["5-HT3".to_string(), "GABA-A".to_string()]
    );
    // Edit: GABA-A moves from receptor to channel.
    db.edit_field("a", 4, "GABA-A", "kind", channel()).unwrap();
    assert_eq!(
        db.index_lookup("kind", &receptor()).unwrap(),
        vec!["5-HT3".to_string()]
    );
    assert_eq!(
        db.index_lookup("kind", &channel()).unwrap(),
        vec!["GABA-A".to_string(), "NMDA".to_string()]
    );
    // Merge: 5-HT3 is absorbed — gone from every posting list.
    db.merge_entries("a", 5, "GABA-A", "5-HT3").unwrap();
    assert!(db.index_lookup("kind", &receptor()).unwrap().is_empty());
    // Split: NMDA retires; its kind-less parts index under Unit.
    db.split_entry("a", 6, "NMDA", &[("NMDA-1", vec![]), ("NMDA-2", vec![])])
        .unwrap();
    assert_eq!(
        db.index_lookup("kind", &channel()).unwrap(),
        vec!["GABA-A".to_string()]
    );
    assert_eq!(
        db.index_lookup("kind", &Atom::Unit).unwrap(),
        vec!["NMDA-1".to_string(), "NMDA-2".to_string()]
    );
    // Delete: the key is unlinked.
    db.delete_entry("a", 7, "NMDA-1").unwrap();
    assert_eq!(
        db.index_lookup("kind", &Atom::Unit).unwrap(),
        vec!["NMDA-2".to_string()]
    );
    // A failed transaction (2PC backup/restore path) leaves the index
    // exactly as before: merging with a nonexistent entry errors out.
    let before = db.field_index("kind").cloned();
    assert!(db.merge_entries("a", 8, "GABA-A", "nope").is_err());
    assert_eq!(db.field_index("kind").cloned(), before);
}

/// A planned query over an indexed field compiles to an `IndexLookup`
/// access path (visible in the plan cdbsh's `explain` renders) and
/// returns exactly the rows the naive entries view yields.
#[test]
fn planned_query_uses_the_durable_index() {
    use cdb_core::relalg::{PlanOp, Pred, RaExpr};
    use cdb_core::views::{entry_relation, query_entries_planned};

    let mut db = CuratedDatabase::new("iuphar", "name");
    db.create_index("kind").unwrap();
    for (i, (name, kind)) in [
        ("GABA-A", "receptor"),
        ("5-HT3", "receptor"),
        ("Kv1.1", "channel"),
        ("NMDA", "receptor"),
    ]
    .iter()
    .enumerate()
    {
        db.add_entry("a", i as u64, name, &[("kind", Atom::Str((*kind).into()))])
            .unwrap();
    }
    let q = RaExpr::scan("entries").select(Pred::col_eq_const("kind", "receptor"));
    let (rows, plan, runs) = query_entries_planned(&db, &["kind"], &q).unwrap();
    assert!(
        plan.ops()
            .iter()
            .any(|op| matches!(op, PlanOp::IndexLookup { col, .. } if col == "kind")),
        "expected an index scan in:\n{plan}"
    );
    assert_eq!(runs.len(), plan.operator_count());
    // Byte-identical to the naive view filtered the slow way (planned
    // results come out canonical — sorted tuple order).
    let naive = entry_relation(&db, &["kind"]).unwrap();
    let receptor = Atom::Str("receptor".into());
    let mut expect: Vec<_> = naive
        .tuples()
        .iter()
        .filter(|t| t[1] == receptor)
        .cloned()
        .collect();
    expect.sort();
    assert_eq!(rows.tuples().to_vec(), expect);
}

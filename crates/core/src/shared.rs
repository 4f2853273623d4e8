//! The concurrent serving layer: snapshot-isolated readers over a
//! group-committed writer path.
//!
//! Curated databases are read-mostly (§1, §5 of the paper: a handful
//! of curators write, everyone else queries the published versions),
//! so the serving layer is built around that asymmetry:
//!
//! * **Readers** call [`SharedDb::snapshot`] and get an immutable
//!   [`Snapshot`] — an `Arc` of a frozen [`DbState`], the entire
//!   curated value (tree, provenance, transaction log, lifecycle
//!   registry, archive, notes, index postings).
//!   Every read — queries, provenance lookups, archive citations,
//!   version retrieval, annotation reads — runs against the snapshot
//!   with **no locks at all**; taking the snapshot itself is one
//!   mutex-protected `Arc::clone`.
//! * **Writers** serialize through the database mutex for the
//!   in-memory commit, whose WAL frames only join the group's
//!   in-memory batch, then wait for durability through the WAL's
//!   group commit ([`cdb_storage::GroupWal`]) *outside* the lock. The
//!   batch leader writes and syncs without the append lock, so one
//!   writer's `fdatasync` never blocks another writer's in-memory
//!   commit — the commits that arrive during a sync share the next.
//!
//! # Protocol
//!
//! A write does, in order:
//!
//! 1. lock the database, run the curation op (the [`DbState`]
//!    operation, then its WAL frames added to the group's batch — the
//!    inner database runs at [`Durability::Batched`]);
//! 2. still under the lock, record the WAL sequence number of its
//!    frames and, if the op changed the state, **publish a fresh
//!    snapshot** (epoch `e+1`) — a refused op publishes nothing;
//! 3. unlock, drop the displaced epoch, then [`GroupWal::commit`] the
//!    recorded sequence number — block until a batch leader's single
//!    write and sync covers it (or lead that batch itself).
//!
//! Publishing under the lock means snapshots are created in commit
//! order: epoch `e`'s transaction log is always a prefix of epoch
//! `e+1`'s (the `stress` feature compiles an assertion of exactly
//! this).
//!
//! # Visibility and ack rules
//!
//! A snapshot may show a commit whose sync is still in flight: readers
//! see a write once it is in memory, never a torn or reordered one, and
//! a crash can lose a commit a reader saw. What holds is *acked ⊆
//! recovered*: a write method returning `Ok` means the commit is
//! durable — its frames were covered by a WAL sync that reported
//! success — and survives a crash of an honest device. Because
//! frames are appended in commit order under the database lock, the
//! durable log is always a gap-free prefix of the acknowledged commit
//! order — a crash may cut acknowledged commits off the end (a lying
//! disk), never punch holes in the middle. `tests/concurrent_serving.rs`
//! checks this against scripted fault schedules.
//!
//! # Epoch reclamation
//!
//! Snapshots are reference-counted, nothing more: the cache holds the
//! newest epoch, each reader holds the epochs it is still using, and
//! an old epoch's memory is freed the moment its last `Arc` drops — by
//! the writer that displaced it, after it released the database lock.
//! No global epoch tracking, no grace periods. A snapshot is the
//! state's derived `Clone`, and every part of the state that grows with
//! the database is chunked and shared (`cdb_model::cow`), so a commit
//! pays reference counts for its snapshot, and an epoch kept alive
//! retains only the chunks written since it was taken.

use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use cdb_archive::VersionId;
use cdb_curation::ops::Clipboard;
use cdb_curation::NodeId;
use cdb_model::Atom;
use cdb_storage::{CheckpointStore, GroupWal, Io};

use crate::db::{CuratedDatabase, DbError, DbState};
use crate::durable::{dir_devices, open_one, CheckpointStats, Devices, Durability};

/// The value for the serving constructors' `window` argument, which
/// group commit no longer reads: it has no timer, and a batch is
/// whatever was appended while the previous sync ran.
pub const DEFAULT_BATCH_WINDOW: Duration = Duration::ZERO;

/// Pre-resolved serving-layer instruments (one registry lookup at
/// construction; the write path touches only atomics).
#[derive(Debug, Clone)]
struct ServeInstruments {
    writes: cdb_obs::Counter,
    write_ns: cdb_obs::HistogramHandle,
    snapshots: cdb_obs::Counter,
}

impl ServeInstruments {
    fn resolve(m: &cdb_obs::Metrics) -> Self {
        ServeInstruments {
            writes: m.counter("core.shared.writes"),
            write_ns: m.histogram("core.shared.write_ns"),
            snapshots: m.counter("core.shared.snapshots"),
        }
    }
}

#[derive(Debug)]
struct SharedInner {
    db: Mutex<CuratedDatabase>,
    /// The newest snapshot and its epoch, replaced on every commit.
    /// Readers clone the `Arc` out; old epochs die by refcount.
    cache: Mutex<(u64, Arc<DbState>)>,
    /// The database's group-commit handle, when it is durable — kept
    /// here so the durability wait never takes the database lock.
    group: Option<GroupWal>,
    /// The database's metric registry (shared with the inner
    /// [`CuratedDatabase`]), kept here so [`SharedDb::metrics_snapshot`]
    /// never has to take the database lock.
    metrics: cdb_obs::Metrics,
    instr: ServeInstruments,
}

/// A cloneable, thread-safe handle to a curated database. All clones
/// refer to the same database; see the module docs for the protocol.
#[derive(Debug, Clone)]
pub struct SharedDb {
    inner: Arc<SharedInner>,
}

/// An immutable, lock-free view of the database as of one commit
/// epoch: the [`DbState`] itself, frozen behind an `Arc`. A snapshot
/// is a state and not a database — it has every read method and the
/// relational [`crate::views`], and no WAL, checkpoint or durability
/// policy to misreport. It owns its state outright (including the
/// notes map, so [`DbState::notes_on`] borrows from the snapshot, not
/// the live database — a concurrent `annotate` cannot be observed
/// half-applied).
#[derive(Debug, Clone)]
pub struct Snapshot {
    state: Arc<DbState>,
    epoch: u64,
}

impl Deref for Snapshot {
    type Target = DbState;
    fn deref(&self) -> &DbState {
        &self.state
    }
}

impl Snapshot {
    /// The commit epoch this snapshot froze (0 = before any commit).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl SharedDb {
    /// Wraps a fresh in-memory database for concurrent use.
    pub fn new(name: impl Into<String>, key_field: impl Into<String>) -> Self {
        Self::from_db(CuratedDatabase::new(name, key_field))
    }

    /// Wraps an existing database. A durable database's durability is
    /// set to [`Durability::Batched`] — the write path here
    /// acknowledges durability through the group, per-commit inline
    /// syncs would defeat it.
    pub fn from_db(mut db: CuratedDatabase) -> Self {
        db.set_durability(Durability::Batched);
        Self::serve(db)
    }

    /// The serving assembly around a database whose durability policy
    /// is already the serving one.
    pub(crate) fn serve(db: CuratedDatabase) -> Self {
        let group = db.durable.as_ref().map(|d| d.wal.clone());
        let metrics = db.metrics().clone();
        let instr = ServeInstruments::resolve(&metrics);
        let snapshot = Arc::new(db.state.clone());
        SharedDb {
            inner: Arc::new(SharedInner {
                db: Mutex::new(db),
                cache: Mutex::new((0, snapshot)),
                group,
                metrics,
                instr,
            }),
        }
    }

    fn open_devices(
        name: String,
        key_field: String,
        devices: Devices,
        pool_pages: usize,
    ) -> Result<Self, DbError> {
        open_one(&name, &key_field, devices, pool_pages, Durability::Batched).map(Self::serve)
    }

    /// Opens a durable shared database over a WAL device and a
    /// checkpoint device (see [`CuratedDatabase::open`] for recovery
    /// semantics), serving writes through group commit. `_window` is
    /// ignored (see [`DEFAULT_BATCH_WINDOW`]).
    pub fn open(
        name: impl Into<String>,
        key_field: impl Into<String>,
        wal_io: Box<dyn Io>,
        ckpt: CheckpointStore,
        _window: Duration,
    ) -> Result<Self, DbError> {
        let devices = (wal_io, ckpt, None);
        Self::open_devices(name.into(), key_field.into(), devices, 0)
    }

    /// Opens a durable shared database whose checkpoints are
    /// page-granular — [`SharedDb::open`] plus the page heap of
    /// [`CuratedDatabase::open_paged`]: `page_io` holds the heap,
    /// served through a pool of `pool_pages` frames. `_window` is
    /// ignored.
    pub fn open_paged(
        name: impl Into<String>,
        key_field: impl Into<String>,
        wal_io: Box<dyn Io>,
        ckpt: CheckpointStore,
        page_io: Box<dyn Io>,
        pool_pages: usize,
        _window: Duration,
    ) -> Result<Self, DbError> {
        let devices = (wal_io, ckpt, Some(page_io));
        Self::open_devices(name.into(), key_field.into(), devices, pool_pages)
    }

    /// Opens a durable shared database backed by segmented WAL files
    /// `<dir>/<name>.wal.<seq>` and the atomically-installed checkpoint
    /// `<dir>/<name>.ckpt` (created if absent). `_window` is ignored.
    pub fn open_dir(
        name: impl Into<String>,
        key_field: impl Into<String>,
        dir: impl AsRef<std::path::Path>,
        _window: Duration,
    ) -> Result<Self, DbError> {
        let name = name.into();
        let devices = dir_devices(dir.as_ref(), &name, cdb_storage::SegmentConfig::default())?;
        Self::open_devices(name, key_field.into(), devices, 0)
    }

    pub(crate) fn lock_db(&self) -> MutexGuard<'_, CuratedDatabase> {
        self.inner
            .db
            .lock()
            .expect("a writer panicked while holding the database lock")
    }

    /// Publishes the current state as the next snapshot epoch and
    /// returns the epoch it displaced. Called under the database lock,
    /// so epochs are assigned in commit order. The clone shares every
    /// chunk with the state (O(chunks) reference counts, no element
    /// copied). The caller drops the displaced epoch once it has
    /// released its locks: if it held the last reference, freeing the
    /// chunks only the old epoch still owned then delays no writer and
    /// no reader.
    #[must_use = "drop the displaced epoch after releasing the database lock"]
    pub(crate) fn publish_snapshot(&self, state: &DbState) -> Arc<DbState> {
        let _span = cdb_obs::SpanGuard::enter("core.shared.publish");
        let fresh = Arc::new(state.clone());
        let mut cache = self
            .inner
            .cache
            .lock()
            .expect("a writer panicked while publishing a snapshot");
        #[cfg(feature = "stress")]
        assert_snapshot_extends(&cache.1, &fresh);
        cache.0 += 1;
        std::mem::replace(&mut cache.1, fresh)
    }

    /// The write path: in-memory commit and snapshot publication under
    /// the lock, durability wait outside it (see module docs). An op the
    /// state refused changed nothing and publishes nothing: the epoch
    /// stays. An op whose state change landed publishes it even when
    /// its WAL write then fails — the change is in memory either way.
    fn write<R>(
        &self,
        op: impl FnOnce(&mut CuratedDatabase) -> Result<R, DbError>,
    ) -> Result<R, DbError> {
        // Every write is a trace root: the spans the op opens below —
        // persist, group commit, device sync — inherit this id, so
        // `cdbsh profile` can cut one transaction's path out of the
        // ring buffers.
        let _trace = cdb_obs::trace_root();
        let span = cdb_obs::SpanGuard::enter("core.shared.write");
        let lock_wait = cdb_obs::SpanGuard::enter("core.shared.lock_wait");
        let mut db = self.lock_db();
        drop(lock_wait);
        let applied = db.applied;
        let op_span = cdb_obs::SpanGuard::enter("core.shared.op");
        let out = op(&mut db);
        drop(op_span);
        let seq = self.inner.group.as_ref().map(|g| g.appended_seq());
        let displaced = (db.applied != applied).then(|| self.publish_snapshot(&db));
        drop(db);
        drop(displaced);
        if out.is_ok() {
            if let (Some(group), Some(seq)) = (self.inner.group.as_ref(), seq) {
                group.commit(seq)?;
            }
            self.inner.instr.writes.inc();
            self.inner.instr.write_ns.observe(span.elapsed());
        }
        out
    }

    /// An immutable view of the latest committed state. O(1): one
    /// lock-protected `Arc` clone, no copying. Reads on the returned
    /// snapshot take no locks and are never blocked by writers.
    pub fn snapshot(&self) -> Snapshot {
        let _span = cdb_obs::SpanGuard::enter("core.shared.snapshot");
        self.inner.instr.snapshots.inc();
        let cache = self
            .inner
            .cache
            .lock()
            .expect("a writer panicked while publishing a snapshot");
        Snapshot {
            epoch: cache.0,
            state: cache.1.clone(),
        }
    }

    /// The current commit epoch (0 = nothing committed through this
    /// handle yet).
    pub fn epoch(&self) -> u64 {
        self.inner
            .cache
            .lock()
            .expect("a writer panicked while publishing a snapshot")
            .0
    }

    // ------------------------------------------------- curation ops
    // Each mirrors the `CuratedDatabase` method of the same name.

    /// Adds a freshly-authored entry. See [`CuratedDatabase::add_entry`].
    pub fn add_entry(
        &self,
        curator: &str,
        time: u64,
        key: &str,
        fields: &[(&str, Atom)],
    ) -> Result<NodeId, DbError> {
        self.write(|db| db.add_entry(curator, time, key, fields))
    }

    /// Imports a copied entry. See [`CuratedDatabase::import_entry`].
    pub fn import_entry(
        &self,
        curator: &str,
        time: u64,
        key: &str,
        clip: &Clipboard,
    ) -> Result<NodeId, DbError> {
        self.write(|db| db.import_entry(curator, time, key, clip))
    }

    /// Edits (or adds) a field. See [`CuratedDatabase::edit_field`].
    pub fn edit_field(
        &self,
        curator: &str,
        time: u64,
        key: &str,
        field: &str,
        value: Atom,
    ) -> Result<(), DbError> {
        self.write(|db| db.edit_field(curator, time, key, field, value))
    }

    /// Deletes an entry. See [`CuratedDatabase::delete_entry`].
    pub fn delete_entry(&self, curator: &str, time: u64, key: &str) -> Result<(), DbError> {
        self.write(|db| db.delete_entry(curator, time, key))
    }

    /// Fuses two entries. See [`CuratedDatabase::merge_entries`].
    pub fn merge_entries(
        &self,
        curator: &str,
        time: u64,
        kept: &str,
        absorbed: &str,
    ) -> Result<(), DbError> {
        self.write(|db| db.merge_entries(curator, time, kept, absorbed))
    }

    /// Splits an entry. See [`CuratedDatabase::split_entry`].
    pub fn split_entry(
        &self,
        curator: &str,
        time: u64,
        original: &str,
        parts: &[(&str, Vec<(&str, Atom)>)],
    ) -> Result<(), DbError> {
        self.write(|db| db.split_entry(curator, time, original, parts))
    }

    /// Attaches a superimposed annotation. See
    /// [`CuratedDatabase::annotate`].
    pub fn annotate(
        &self,
        key: &str,
        field: Option<&str>,
        author: &str,
        text: &str,
        time: u64,
    ) -> Result<(), DbError> {
        self.write(|db| db.annotate(key, field, author, text, time))
    }

    /// Publishes the current state as a new archived version. See
    /// [`CuratedDatabase::publish`]. Publishes sync the WAL inline
    /// (regardless of batching), so `Ok` means the publish point is
    /// durable.
    pub fn publish(&self, label: impl Into<String>) -> Result<VersionId, DbError> {
        let label = label.into();
        self.write(|db| db.publish(label))
    }

    /// Registers a durable secondary index over `field`. See
    /// [`CuratedDatabase::create_index`]. The index is visible to every
    /// snapshot taken after this returns.
    pub fn create_index(&self, field: &str) -> Result<bool, DbError> {
        self.write(|db| db.create_index(field))
    }

    /// Drops the secondary index over `field`. See
    /// [`CuratedDatabase::drop_index`].
    pub fn drop_index(&self, field: &str) -> Result<bool, DbError> {
        self.write(|db| db.drop_index(field))
    }

    // ---------------------------------------------------- durability

    /// Forces everything committed so far to durable storage.
    pub fn sync(&self) -> Result<(), DbError> {
        let mut db = self.lock_db();
        db.sync()
    }

    /// Writes a checkpoint (see [`CuratedDatabase::checkpoint`]). Safe
    /// to race with concurrent writers: the checkpoint holds the
    /// database lock, so the coverage watermark it records is exactly
    /// the synced log, and recovery replays whatever the WAL holds
    /// past it.
    pub fn checkpoint(&self) -> Result<CheckpointStats, DbError> {
        let mut db = self.lock_db();
        db.checkpoint()
    }

    /// Sets the segment-retention policy for future checkpoints (see
    /// [`CuratedDatabase::set_retention`]).
    pub fn set_retention(&self, retention: cdb_storage::Retention) {
        self.lock_db().set_retention(retention);
    }

    /// The group-commit handle, when durable. The sharded layer uses
    /// this to journal 2PC PREPARE/DECIDE frames directly.
    pub(crate) fn group(&self) -> Option<&GroupWal> {
        self.inner.group.as_ref()
    }

    /// The number of frames in the write-ahead log, when durable
    /// (`None` for in-memory). Used by the serving layer's admission
    /// tests to prove that load-shed requests never reached the log.
    pub fn wal_len(&self) -> Option<u64> {
        self.inner.group.as_ref().and_then(|g| g.log_len().ok())
    }

    // -------------------------------------------------- observability

    /// The metric registry shared with the inner database: storage,
    /// curation and serving-layer instruments in one place. A
    /// [`crate::ShardedDb`] shows it under `shard.<i>.`.
    pub fn metrics(&self) -> &cdb_obs::Metrics {
        &self.inner.metrics
    }

    /// A point-in-time view of every metric this database can see (its
    /// registry merged with the process-global one), without taking
    /// the database lock.
    pub fn metrics_snapshot(&self) -> cdb_obs::MetricsSnapshot {
        let mut snap = self.inner.metrics.snapshot();
        snap.merge(&cdb_obs::global().snapshot());
        snap
    }
}

/// Stress-mode invariant: each published snapshot's transaction log
/// extends the previous one — commit order and snapshot order agree.
#[cfg(feature = "stress")]
fn assert_snapshot_extends(prev: &DbState, next: &DbState) {
    let p = &prev.curated.log;
    let n = &next.curated.log;
    assert!(
        p.len() <= n.len(),
        "snapshot regressed: {} -> {} transactions",
        p.len(),
        n.len()
    );
    for (a, b) in p.iter().zip(n.iter()) {
        assert_eq!(
            a.id, b.id,
            "snapshot log diverged from its predecessor at txn {:?}",
            a.id
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_are_isolated_from_later_writes() {
        let db = SharedDb::new("iuphar", "name");
        db.add_entry("alice", 1, "GABA-A", &[("tm", Atom::Int(4))])
            .unwrap();
        let snap = db.snapshot();
        assert_eq!(snap.epoch(), 1);
        db.edit_field("bob", 2, "GABA-A", "tm", Atom::Int(5))
            .unwrap();
        db.add_entry("bob", 3, "5-HT3", &[]).unwrap();
        // The old snapshot still shows the old world.
        assert_eq!(snap.field("GABA-A", "tm").unwrap(), Atom::Int(4));
        assert_eq!(snap.entry_keys().unwrap().len(), 1);
        // A fresh snapshot shows the new one.
        let now = db.snapshot();
        assert_eq!(now.epoch(), 3);
        assert_eq!(now.field("GABA-A", "tm").unwrap(), Atom::Int(5));
    }

    #[test]
    fn snapshot_notes_survive_concurrent_annotate() {
        // Satellite fix: notes_on borrows from the snapshot's own
        // notes map, so later annotates are invisible to it.
        let db = SharedDb::new("iuphar", "name");
        db.add_entry("alice", 1, "GABA-A", &[]).unwrap();
        db.annotate("GABA-A", None, "carol", "first", 2).unwrap();
        let snap = db.snapshot();
        db.annotate("GABA-A", None, "dave", "second", 3).unwrap();
        assert_eq!(snap.notes_on("GABA-A", None).len(), 1);
        assert_eq!(db.snapshot().notes_on("GABA-A", None).len(), 2);
    }
}

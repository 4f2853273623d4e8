//! Sharded serving: the database partitioned by hierarchical key range
//! into independent shards, each with its own WAL and checkpoint store.
//!
//! Curated databases grow write traffic with curator head-count, and a
//! single WAL serializes every durability wait behind one device. A
//! [`ShardedDb`] splits the entry space by key range ([`ShardMap`])
//! across N [`SharedDb`] shards:
//!
//! * **Single-shard transactions** (the overwhelming majority: §1's
//!   curation loop edits one entry at a time) route to their shard and
//!   commit under that shard's lock and group-commit WAL only — no
//!   global lock, no cross-shard coordination, write throughput scales
//!   with shards.
//! * **Cross-shard transactions** (fusion/fission across a shard
//!   boundary — §6.2's merge and split) run a lightweight two-phase
//!   commit journaled in *both* participants' WALs as
//!   `FRAME_PREPARE`/`FRAME_DECIDE` records (see [`cdb_storage::twopc`]):
//!
//!   1. apply the op on every participant's [`DbState`] (under all
//!      participant locks, acquired in shard-index order) — the same
//!      fusion/fission halves a single database composes, and nothing
//!      yet persisted;
//!   2. seal each shard's WAL frames inside a PREPARE frame, append and
//!      **sync** it on every participant;
//!   3. append and **sync** DECIDE(commit) on the coordinator (the
//!      lowest participant index) — this is the commit point and the
//!      ack gate;
//!   4. append DECIDE on the other participants (synced lazily by their
//!      next group sync — a crash first leaves exactly the in-doubt
//!      window [`cdb_storage::recover_shards`] resolves from the
//!      coordinator's decision record).
//!
//!   Any failure before step 3 completes rolls every participant back
//!   to its savepoint (a [`DbState`] clone plus the persist cursors)
//!   and journals DECIDE(abort) best-effort; recovery presumes abort
//!   for undecided PREPAREs, so a torn abort record is harmless.
//! * **Atomic visibility**: participant snapshots are published while
//!   all participant locks are held, bracketed by a seqlock
//!   ([`ShardedDb::snapshot`] retries while a cross-shard publication
//!   is in flight), so a reader never observes one half of a
//!   cross-shard transaction.
//! * **Recovery** ([`ShardedDb::open`]) runs per-shard recovery in
//!   parallel with a shared decision context: phase one scans every
//!   WAL for decision records (plus decisions carried by checkpoints,
//!   which survive WAL truncation), phase two recovers all shards
//!   concurrently under that fixed context — deterministic and
//!   byte-identical to sequential recovery.
//!
//! Cross-shard *copy-paste* (§3) needs no 2PC: the copy is a snapshot
//! read on the source shard and the paste a single-shard transaction on
//! the destination ([`ShardedDb::copy_paste`]). [`ShardedDb::publish`]
//! fans out per shard and is documented non-atomic across shards.
//!
//! A one-shard map ([`ShardMap::single`], or `ShardedDb::from` a
//! [`SharedDb`]) is the single-node deployment: the same code path,
//! on which every transaction is single-shard.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, MutexGuard};
use std::time::Duration;

use cdb_archive::VersionId;
use cdb_curation::NodeId;
use cdb_model::Atom;
use cdb_storage::{
    encode_decide, encode_prepare, CheckpointStore, DecideRecord, Io, PrepareRecord, StorageError,
    FRAME_DECIDE, FRAME_PREPARE,
};

use crate::db::{CuratedDatabase, DbError, DbState};
use crate::durable::{dir_devices, open_all, Devices, Durability};
use crate::lifecycle::{Fate, LifecycleError};
use crate::shared::{SharedDb, Snapshot};

/// One shard's durable devices for a paged open: `(WAL device,
/// checkpoint store, page heap)` — see [`ShardedDb::open_paged`].
pub type PagedShardDevices = (Box<dyn Io>, CheckpointStore, Box<dyn Io>);

/// A range partition of the entry key space: `bounds` holds the N−1
/// sorted boundary keys of an N-shard map, and key `k` routes to the
/// number of bounds ≤ `k` (so shard `i` owns `[bounds[i-1], bounds[i])`,
/// with open ends). Range — not hash — partitioning keeps each shard a
/// contiguous hierarchical subtree of the key space, so prefix scans
/// and published versions stay shard-local.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    bounds: Vec<String>,
}

impl ShardMap {
    /// A single-shard map (everything routes to shard 0).
    pub fn single() -> Self {
        ShardMap { bounds: Vec::new() }
    }

    /// An N-shard map with bounds evenly spaced over the printable
    /// ASCII range — a reasonable default for human-assigned entry
    /// keys. Skewed key distributions should use
    /// [`ShardMap::with_bounds`].
    ///
    /// # Panics
    ///
    /// Unless `1 <= n <= 95`: there are 95 printable ASCII characters,
    /// and past that the bounds repeat, leaving shards no key can reach.
    pub fn uniform(n: usize) -> Self {
        assert!(n >= 1, "a shard map needs at least one shard");
        assert!(
            n <= 95,
            "a uniform map has at most 95 shards, one per printable ASCII character"
        );
        let (lo, hi) = (0x20u32, 0x7fu32);
        let bounds = (1..n as u32)
            .map(|i| {
                char::from_u32(lo + (hi - lo) * i / n as u32)
                    .expect("printable ASCII")
                    .to_string()
            })
            .collect();
        ShardMap { bounds }
    }

    /// A map with explicit boundary keys (must be strictly increasing);
    /// `bounds.len() + 1` shards.
    pub fn with_bounds(bounds: Vec<String>) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "shard bounds must be strictly increasing"
        );
        ShardMap { bounds }
    }

    /// The number of shards this map routes across.
    pub fn shards(&self) -> usize {
        self.bounds.len() + 1
    }

    /// The boundary keys.
    pub fn bounds(&self) -> &[String] {
        &self.bounds
    }

    /// The shard owning `key`.
    pub fn route(&self, key: &str) -> usize {
        self.bounds.partition_point(|b| b.as_str() <= key)
    }
}

/// Pre-resolved sharded-layer instruments.
#[derive(Debug)]
struct ShardedInstruments {
    /// Acknowledged single-shard writes, per shard
    /// (`core.sharded.shard.N.writes`).
    shard_writes: Vec<cdb_obs::Counter>,
    /// Committed cross-shard (2PC) transactions.
    cross_commits: cdb_obs::Counter,
    /// Aborted cross-shard transactions (validation or journal failure).
    cross_aborts: cdb_obs::Counter,
    /// Cross-shard transactions currently between lock acquisition and
    /// publication.
    cross_inflight: cdb_obs::Gauge,
    /// Per-participant PREPARE latency (append + sync on one shard's
    /// WAL) — `core.twopc.prepare_ns`.
    twopc_prepare: cdb_obs::HistogramHandle,
    /// Coordinator DECIDE latency (the commit-point sync) —
    /// `core.twopc.decide_ns`.
    twopc_decide: cdb_obs::HistogramHandle,
}

impl ShardedInstruments {
    fn resolve(m: &cdb_obs::Metrics, shards: usize) -> Self {
        ShardedInstruments {
            shard_writes: (0..shards)
                .map(|i| m.counter(&format!("core.sharded.shard.{i}.writes")))
                .collect(),
            cross_commits: m.counter("core.sharded.cross.commits"),
            cross_aborts: m.counter("core.sharded.cross.aborts"),
            cross_inflight: m.gauge("core.sharded.cross.inflight"),
            twopc_prepare: m.histogram("core.twopc.prepare_ns"),
            twopc_decide: m.histogram("core.twopc.decide_ns"),
        }
    }
}

#[derive(Debug)]
struct ShardedInner {
    map: ShardMap,
    shards: Vec<SharedDb>,
    /// Global transaction id allocator for 2PC; seeded past every gid
    /// recovery saw, so a stale decision record can never resolve a new
    /// transaction.
    gid: AtomicU64,
    /// Cross-shard publication seqlock: odd while participant snapshots
    /// are being replaced, bumped to even when all are published.
    xver: AtomicU64,
    metrics: cdb_obs::Metrics,
    instr: ShardedInstruments,
}

/// A cloneable handle to a range-sharded curated database. See the
/// module docs for the commit and visibility protocol.
#[derive(Debug, Clone)]
pub struct ShardedDb {
    inner: Arc<ShardedInner>,
}

/// A cross-shard-coherent set of per-shard snapshots: taken under the
/// publication seqlock, so it never contains one half of a cross-shard
/// transaction.
#[derive(Debug, Clone)]
pub struct ShardedSnapshot {
    map: ShardMap,
    shards: Vec<Snapshot>,
}

impl ShardedSnapshot {
    /// The database name (every shard carries it).
    pub fn name(&self) -> &str {
        self.shards[0].name()
    }

    /// The sum of the per-shard commit epochs — monotone across
    /// successive snapshots from one handle.
    pub fn epoch(&self) -> u64 {
        self.shards.iter().map(Snapshot::epoch).sum()
    }

    /// The per-shard snapshots, in shard order.
    pub fn shards(&self) -> &[Snapshot] {
        &self.shards
    }

    /// The snapshot of one shard.
    pub fn shard(&self, i: usize) -> &Snapshot {
        &self.shards[i]
    }

    /// The snapshot of the shard owning `key`.
    pub fn for_key(&self, key: &str) -> &Snapshot {
        &self.shards[self.map.route(key)]
    }

    /// Reads a field of an entry (routed).
    pub fn field(&self, key: &str, field: &str) -> Result<Atom, DbError> {
        self.for_key(key).field(key, field)
    }

    /// The keys of all current entries, across all shards, in key
    /// order (shards are contiguous ranges, so concatenation sorts).
    pub fn entry_keys(&self) -> Result<Vec<String>, DbError> {
        let mut out = Vec::new();
        for s in &self.shards {
            let mut keys = s.entry_keys()?;
            keys.sort();
            out.append(&mut keys);
        }
        Ok(out)
    }

    /// Resolves an identifier — active or retired — to the current
    /// entries holding its data, following merges and splits *across
    /// shards*: each step of the walk consults every shard's lifecycle
    /// registry (a cross-shard fusion/fission records its event on all
    /// participants, so any one shard may know only its side of a
    /// lineage; the federated walk reassembles it).
    pub fn resolve_id(&self, id: &str) -> Result<Vec<String>, DbError> {
        if !self.shards.iter().any(|s| s.lifecycle.fate(id).is_ok()) {
            return Err(LifecycleError::Unknown(id.to_owned()).into());
        }
        let mut current = BTreeSet::new();
        let mut seen = BTreeSet::new();
        let mut work = vec![id.to_owned()];
        while let Some(x) = work.pop() {
            if !seen.insert(x.clone()) {
                continue;
            }
            for s in &self.shards {
                match s.lifecycle.fate(&x) {
                    Ok(Fate::Active) => {
                        current.insert(x.clone());
                    }
                    Ok(Fate::MergedInto(k)) => work.push(k.clone()),
                    Ok(Fate::SplitInto(ps)) => work.extend(ps.iter().cloned()),
                    Ok(Fate::Deleted) | Err(_) => {}
                }
            }
        }
        Ok(current.into_iter().collect())
    }
}

/// A single database served as the one shard of a [`ShardMap::single`]
/// map: the single-node deployment. Every merge and split is then
/// same-shard, so the 2PC journal and the seqlock are never used, and
/// the shard keeps its own devices (an `open_dir` database keeps its
/// `<name>.*` files).
impl From<SharedDb> for ShardedDb {
    fn from(db: SharedDb) -> Self {
        Self::assemble(ShardMap::single(), vec![db], 0)
    }
}

impl ShardedDb {
    /// An in-memory sharded database (no durability; cross-shard
    /// transactions skip the 2PC journal but keep atomic visibility).
    pub fn new(name: impl Into<String>, key_field: impl Into<String>, map: ShardMap) -> Self {
        let name = name.into();
        let key_field = key_field.into();
        let shards = (0..map.shards())
            .map(|_| SharedDb::new(name.clone(), key_field.clone()))
            .collect();
        Self::assemble(map, shards, 0)
    }

    /// Opens a durable sharded database over one `(WAL device,
    /// checkpoint store)` pair per shard. Recovery is parallel and
    /// 2PC-aware: decision records are gathered from every WAL *and*
    /// every checkpoint first, then all shards recover concurrently
    /// under that shared context (in-doubt PREPAREs commit iff a commit
    /// decision exists anywhere, else abort). `_window` is ignored:
    /// group commit has no timer (see [`crate::DEFAULT_BATCH_WINDOW`]).
    pub fn open(
        name: impl Into<String>,
        key_field: impl Into<String>,
        map: ShardMap,
        devices: Vec<(Box<dyn Io>, CheckpointStore)>,
        _window: Duration,
    ) -> Result<Self, DbError> {
        let devices = devices
            .into_iter()
            .map(|(wal_io, ckpt)| (wal_io, ckpt, None))
            .collect();
        Self::open_devices(name.into(), key_field.into(), map, devices, 0)
    }

    /// Every shard through the one open routine
    /// ([`crate::durable::open_all`]: parallel, decision-context-aware
    /// recovery), then the standard serving assembly per shard.
    fn open_devices(
        name: String,
        key_field: String,
        map: ShardMap,
        devices: Vec<Devices>,
        pool_pages: usize,
    ) -> Result<Self, DbError> {
        assert_eq!(devices.len(), map.shards(), "one device set per shard");
        let (dbs, max_gid) = open_all(&name, &key_field, devices, pool_pages, Durability::Batched)?;
        let shards = dbs.into_iter().map(SharedDb::serve).collect();
        Ok(Self::assemble(map, shards, max_gid + 1))
    }

    /// Opens a durable sharded database in a directory: shard `i` gets
    /// segmented WAL files `<dir>/<name>.s<i>.wal.*` and checkpoint
    /// `<dir>/<name>.s<i>.ckpt`. `_window` is ignored, as in
    /// [`ShardedDb::open`].
    pub fn open_dir(
        name: impl Into<String>,
        key_field: impl Into<String>,
        map: ShardMap,
        dir: impl AsRef<std::path::Path>,
        _window: Duration,
    ) -> Result<Self, DbError> {
        let name = name.into();
        let cfg = cdb_storage::SegmentConfig::default();
        let devices = (0..map.shards())
            .map(|i| dir_devices(dir.as_ref(), &format!("{name}.s{i}"), cfg))
            .collect::<Result<_, _>>()?;
        Self::open_devices(name, key_field.into(), map, devices, 0)
    }

    /// Opens a durable sharded database whose checkpoints are
    /// page-granular — [`ShardedDb::open`] plus a page heap per shard
    /// (see [`SharedDb::open_paged`]): each shard gets a `(WAL device,
    /// checkpoint store, page heap)` triple and a buffer pool of
    /// `pool_pages` frames, so the working set of every shard is
    /// bounded independently. Recovery is that of [`ShardedDb::open`],
    /// and `_window` is ignored as there.
    pub fn open_paged(
        name: impl Into<String>,
        key_field: impl Into<String>,
        map: ShardMap,
        devices: Vec<PagedShardDevices>,
        pool_pages: usize,
        _window: Duration,
    ) -> Result<Self, DbError> {
        let devices = devices
            .into_iter()
            .map(|(wal_io, ckpt, page_io)| (wal_io, ckpt, Some(page_io)))
            .collect();
        Self::open_devices(name.into(), key_field.into(), map, devices, pool_pages)
    }

    fn assemble(map: ShardMap, shards: Vec<SharedDb>, next_gid: u64) -> Self {
        let durable = shards.iter().filter(|s| s.group().is_some()).count();
        assert!(
            durable == 0 || durable == shards.len(),
            "shards must be uniformly durable or uniformly in-memory"
        );
        let metrics = cdb_obs::Metrics::new();
        let instr = ShardedInstruments::resolve(&metrics, shards.len());
        ShardedDb {
            inner: Arc::new(ShardedInner {
                map,
                shards,
                gid: AtomicU64::new(next_gid),
                xver: AtomicU64::new(0),
                metrics,
                instr,
            }),
        }
    }

    /// The shard map.
    pub fn map(&self) -> &ShardMap {
        &self.inner.map
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// A handle to one shard's serving layer (per-shard stats, WAL
    /// introspection, direct single-shard access in tests).
    pub fn shard(&self) -> &[SharedDb] {
        &self.inner.shards
    }

    fn route(&self, key: &str) -> usize {
        self.inner.map.route(key)
    }

    /// A cross-shard-coherent snapshot: retries while a cross-shard
    /// publication is in flight (a short, bounded window — participant
    /// snapshots are cloned under already-held locks).
    pub fn snapshot(&self) -> ShardedSnapshot {
        loop {
            let v1 = self.inner.xver.load(Ordering::Acquire);
            if v1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let shards: Vec<Snapshot> = self.inner.shards.iter().map(SharedDb::snapshot).collect();
            if self.inner.xver.load(Ordering::Acquire) == v1 {
                return ShardedSnapshot {
                    map: self.inner.map.clone(),
                    shards,
                };
            }
        }
    }

    /// The sum of per-shard commit epochs.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    // ------------------------------------------- single-shard writes

    fn routed<R>(
        &self,
        key: &str,
        op: impl FnOnce(&SharedDb) -> Result<R, DbError>,
    ) -> Result<R, DbError> {
        let s = self.route(key);
        let out = op(&self.inner.shards[s]);
        if out.is_ok() {
            self.inner.instr.shard_writes[s].inc();
        }
        out
    }

    /// Adds a freshly-authored entry on its key's shard.
    pub fn add_entry(
        &self,
        curator: &str,
        time: u64,
        key: &str,
        fields: &[(&str, Atom)],
    ) -> Result<NodeId, DbError> {
        self.routed(key, |s| s.add_entry(curator, time, key, fields))
    }

    /// Imports a copied entry on its key's shard.
    pub fn import_entry(
        &self,
        curator: &str,
        time: u64,
        key: &str,
        clip: &cdb_curation::ops::Clipboard,
    ) -> Result<NodeId, DbError> {
        self.routed(key, |s| s.import_entry(curator, time, key, clip))
    }

    /// Edits (or adds) a field on its entry's shard.
    pub fn edit_field(
        &self,
        curator: &str,
        time: u64,
        key: &str,
        field: &str,
        value: Atom,
    ) -> Result<(), DbError> {
        self.routed(key, |s| s.edit_field(curator, time, key, field, value))
    }

    /// Deletes an entry on its shard.
    pub fn delete_entry(&self, curator: &str, time: u64, key: &str) -> Result<(), DbError> {
        self.routed(key, |s| s.delete_entry(curator, time, key))
    }

    /// Attaches a superimposed annotation on the entry's shard.
    pub fn annotate(
        &self,
        key: &str,
        field: Option<&str>,
        author: &str,
        text: &str,
        time: u64,
    ) -> Result<(), DbError> {
        self.routed(key, |s| s.annotate(key, field, author, text, time))
    }

    /// The §3 copy-paste loop across shards: copy `src_key`'s subtree
    /// from its shard's snapshot (read-only — provenance rides the
    /// clipboard) and import it as `dst_key` on that key's shard. A
    /// single-shard transaction on the destination; no 2PC needed.
    pub fn copy_paste(
        &self,
        curator: &str,
        time: u64,
        src_key: &str,
        dst_key: &str,
    ) -> Result<NodeId, DbError> {
        let snap = self.snapshot();
        let src = snap.for_key(src_key);
        let node = src.entry_node(src_key)?;
        let clip = src.curated.copy(node)?;
        self.import_entry(curator, time, dst_key, &clip)
    }

    /// Publishes every shard's current state as a new archived version,
    /// returning the per-shard version ids. Fan-out, **not** atomic
    /// across shards: a failure part-way leaves earlier shards
    /// published (each publish is durable per shard as usual).
    pub fn publish(&self, label: impl Into<String>) -> Result<Vec<VersionId>, DbError> {
        let label = label.into();
        self.inner
            .shards
            .iter()
            .map(|s| s.publish(label.clone()))
            .collect()
    }

    /// Registers a durable secondary index over `field` on **every**
    /// shard (each shard indexes its own entries; lookups fan out via
    /// the per-shard snapshots). Fan-out, not atomic across shards.
    /// Returns `true` if any shard newly created the index.
    pub fn create_index(&self, field: &str) -> Result<bool, DbError> {
        let mut created = false;
        for s in &self.inner.shards {
            created |= s.create_index(field)?;
        }
        Ok(created)
    }

    /// Drops the secondary index over `field` on every shard. Returns
    /// `true` if any shard had it.
    pub fn drop_index(&self, field: &str) -> Result<bool, DbError> {
        let mut dropped = false;
        for s in &self.inner.shards {
            dropped |= s.drop_index(field)?;
        }
        Ok(dropped)
    }

    // ------------------------------------------- cross-shard commits

    /// Fusion (§6.2), sharded: same-shard pairs delegate to the shard;
    /// cross-shard pairs run the 2PC protocol — fields `absorbed` has
    /// and `kept` lacks are carried onto `kept`'s shard, `absorbed`'s
    /// node is deleted on its shard, and both lifecycle registries
    /// record the fusion (so "what happened to X?" answers on either
    /// side).
    pub fn merge_entries(
        &self,
        curator: &str,
        time: u64,
        kept: &str,
        absorbed: &str,
    ) -> Result<(), DbError> {
        let (ks, os) = (self.route(kept), self.route(absorbed));
        if ks == os {
            return self.routed(kept, |s| s.merge_entries(curator, time, kept, absorbed));
        }
        self.cross_commit(&[ks, os], |states| {
            let [k, a] = states else {
                unreachable!("two participants, two states");
            };
            // The keep half on `kept`'s shard, the drop half on
            // `absorbed`'s.
            let offered = a.fusion_offer(absorbed)?;
            k.fuse(curator, time, kept, absorbed, Some(&offered), false)?;
            a.fuse(curator, time, kept, absorbed, None, true)
        })
    }

    /// Fission (§6.2), sharded: parts route to their own shards.
    /// All-on-one-shard splits delegate; otherwise every shard gaining
    /// a part creates it in one local transaction, the original's shard
    /// deletes the original, and each registry records its side of the
    /// fission — all under the 2PC protocol.
    pub fn split_entry(
        &self,
        curator: &str,
        time: u64,
        original: &str,
        parts: &[(&str, Vec<(&str, Atom)>)],
    ) -> Result<(), DbError> {
        let os = self.route(original);
        let part_shards: BTreeSet<usize> = parts.iter().map(|(key, _)| self.route(key)).collect();
        if part_shards.iter().all(|&s| s == os) {
            return self.routed(original, |s| s.split_entry(curator, time, original, parts));
        }
        let mut participants: Vec<usize> = part_shards.into_iter().collect();
        if !participants.contains(&os) {
            participants.push(os);
        }
        // Which keys live on the participant at `pos`.
        let here = |pos: usize| {
            let shard = participants[pos];
            move |key: &str| self.route(key) == shard
        };
        let opos = participants
            .iter()
            .position(|&s| s == os)
            .expect("the original's shard participates");
        self.cross_commit(&participants, |states| {
            // Every participant accepts before any applies; the
            // original's shard is asked first, so a request a single
            // database would refuse is refused for the same reason.
            let others = (0..states.len()).filter(|&pos| pos != opos);
            for pos in std::iter::once(opos).chain(others) {
                states[pos].check_fission(original, parts, here(pos))?;
            }
            for (pos, state) in states.iter_mut().enumerate() {
                state.fission(curator, time, original, parts, here(pos))?;
            }
            Ok(())
        })
    }

    /// The 2PC engine (see the module docs for the protocol and the
    /// crash-safety argument). `participants` are distinct shard
    /// indices; `apply` receives the participants' states, locked, in
    /// the same order, and must either fully apply the transaction or
    /// return `Err` without caring about partial mutations — the engine
    /// rolls every participant back to its savepoint.
    fn cross_commit(
        &self,
        participants: &[usize],
        apply: impl FnOnce(&mut [&mut DbState]) -> Result<(), DbError>,
    ) -> Result<(), DbError> {
        let _trace = cdb_obs::trace_root();
        let _span = cdb_obs::SpanGuard::enter("core.sharded.cross_commit");
        self.inner.instr.cross_inflight.inc();
        let out = self.cross_commit_inner(participants, apply);
        self.inner.instr.cross_inflight.dec();
        match &out {
            Ok(()) => self.inner.instr.cross_commits.inc(),
            Err(_) => self.inner.instr.cross_aborts.inc(),
        }
        out
    }

    fn cross_commit_inner(
        &self,
        participants: &[usize],
        apply: impl FnOnce(&mut [&mut DbState]) -> Result<(), DbError>,
    ) -> Result<(), DbError> {
        debug_assert!(participants.len() >= 2);
        // Acquire participant locks in shard-index order (deadlock
        // freedom), then present guards in the caller's order.
        let mut order: Vec<usize> = (0..participants.len()).collect();
        order.sort_by_key(|&p| participants[p]);
        debug_assert!(order
            .windows(2)
            .all(|w| participants[w[0]] != participants[w[1]]));
        let mut acquired: Vec<(usize, MutexGuard<'_, CuratedDatabase>)> = order
            .iter()
            .map(|&p| (p, self.inner.shards[participants[p]].lock_db()))
            .collect();
        acquired.sort_by_key(|&(p, _)| p);
        let mut guards: Vec<MutexGuard<'_, CuratedDatabase>> =
            acquired.into_iter().map(|(_, g)| g).collect();

        let savepoints: Vec<_> = guards.iter().map(|g| g.savepoint()).collect();
        // The transaction runs on the states alone: nothing reaches a
        // WAL until its frames are sealed inside the PREPAREs below.
        let mut states: Vec<&mut DbState> = guards.iter_mut().map(|g| &mut g.state).collect();
        if let Err(e) = apply(&mut states) {
            for (g, sp) in guards.iter_mut().zip(savepoints) {
                g.rollback(sp);
            }
            return Err(e);
        }
        let frames: Vec<Vec<(u8, Vec<u8>)>> =
            guards.iter_mut().map(|g| g.seal_unpersisted()).collect();

        let gid = self.inner.gid.fetch_add(1, Ordering::Relaxed);
        // The coordinator is the lowest participant index: recovery
        // looks there (and at every decision record) for the outcome.
        let coordinator = *participants.iter().min().unwrap();
        let decided = if self.inner.shards[coordinator].group().is_some() {
            self.journal(participants, &frames, gid, coordinator)
        } else {
            Ok(()) // in-memory: commit is just the publication below
        };
        if let Err(e) = decided {
            // PREPAREs may be durable on some shards; roll the memory
            // back and journal abort decisions best-effort — recovery
            // presumes abort for undecided PREPAREs anyway. A failed
            // decision sync is one of the black-box triggers: snapshot
            // the flight recorder (no-op unless installed).
            let _ = cdb_obs::flight::snap("core.twopc.decision_failed");
            for (g, sp) in guards.iter_mut().zip(savepoints) {
                g.rollback(sp);
            }
            let abort = encode_decide(&DecideRecord { gid, commit: false });
            for (pos, &s) in participants.iter().enumerate() {
                if let Some(group) = self.inner.shards[s].group() {
                    group.append(FRAME_DECIDE, abort.clone());
                }
                Arc::make_mut(&mut guards[pos].state.decisions).insert(gid, false);
            }
            return Err(e.into());
        }
        for g in guards.iter_mut() {
            Arc::make_mut(&mut g.state.decisions).insert(gid, true);
        }
        // Publish all participants inside the seqlock's odd window:
        // readers retry rather than observe half a transaction. The
        // displaced epochs are freed only after the window closes and
        // the participant locks are released, so neither spinning
        // readers nor waiting writers pay for the deallocation.
        self.inner.xver.fetch_add(1, Ordering::AcqRel);
        let displaced: Vec<_> = participants
            .iter()
            .enumerate()
            .map(|(pos, &s)| self.inner.shards[s].publish_snapshot(&guards[pos]))
            .collect();
        self.inner.xver.fetch_add(1, Ordering::AcqRel);
        drop(guards);
        drop(displaced);
        Ok(())
    }

    /// The durable half of the protocol: PREPARE (append + sync) on
    /// every participant, then DECIDE(commit) synced on the coordinator
    /// — the commit point — then DECIDE appended (lazily synced) on the
    /// rest. Called with all participant locks held, so per shard the
    /// PREPARE→DECIDE window admits no interleaved frames.
    fn journal(
        &self,
        participants: &[usize],
        frames: &[Vec<(u8, Vec<u8>)>],
        gid: u64,
        coordinator: usize,
    ) -> Result<(), StorageError> {
        let parts_u32: Vec<u32> = participants.iter().map(|&s| s as u32).collect();
        for (pos, &s) in participants.iter().enumerate() {
            let rec = PrepareRecord {
                gid,
                coordinator: coordinator as u32,
                participants: parts_u32.clone(),
                frames: frames[pos].clone(),
            };
            let span = cdb_obs::SpanGuard::with_attr("core.twopc.prepare", s as u64);
            let group = self.inner.shards[s].group().expect("uniformly durable");
            let seq = group.append(FRAME_PREPARE, encode_prepare(&rec));
            group.commit(seq)?;
            self.inner.instr.twopc_prepare.observe(span.elapsed());
        }
        let decide = encode_decide(&DecideRecord { gid, commit: true });
        let span = cdb_obs::SpanGuard::with_attr("core.twopc.decide", coordinator as u64);
        let coord = self.inner.shards[coordinator].group().expect("durable");
        let seq = coord.append(FRAME_DECIDE, decide.clone());
        coord.commit(seq)?; // the commit point: ack gates on this sync
        self.inner.instr.twopc_decide.observe(span.elapsed());
        drop(span);
        for &s in participants {
            if s != coordinator {
                let group = self.inner.shards[s].group().expect("durable");
                group.append(FRAME_DECIDE, decide.clone());
            }
        }
        Ok(())
    }

    // ---------------------------------------------------- durability

    /// Forces every shard's committed state to durable storage.
    pub fn sync(&self) -> Result<(), DbError> {
        for s in &self.inner.shards {
            s.sync()?;
        }
        Ok(())
    }

    /// Checkpoints every shard (each checkpoint carries the shard's
    /// decision records, so 2PC outcomes survive WAL truncation).
    pub fn checkpoint(&self) -> Result<Vec<crate::durable::CheckpointStats>, DbError> {
        self.inner.shards.iter().map(SharedDb::checkpoint).collect()
    }

    // -------------------------------------------------- observability

    /// The sharded layer's own metric registry (cross-shard counters,
    /// per-shard write counters). The network server registers its
    /// `server.*` instruments here.
    pub fn metrics(&self) -> &cdb_obs::Metrics {
        &self.inner.metrics
    }

    /// Every metric the sharded database can see: its own registry,
    /// every shard's registry (each prefixed `shard.<i>.` so two
    /// shards' identically-named instruments stay distinguishable —
    /// per-shard WAL sync counts, buffer-pool hit rates), and the
    /// process-global one, merged.
    pub fn metrics_snapshot(&self) -> cdb_obs::MetricsSnapshot {
        let mut snap = self.inner.metrics.snapshot();
        for (i, s) in self.inner.shards.iter().enumerate() {
            snap.merge_prefixed(&format!("shard.{i}."), &s.metrics().snapshot());
        }
        snap.merge(&cdb_obs::global().snapshot());
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_storage::MemIo;

    fn mem_devices(n: usize) -> Vec<(Box<dyn Io>, CheckpointStore)> {
        (0..n)
            .map(|_| {
                (
                    Box::new(MemIo::new()) as Box<dyn Io>,
                    CheckpointStore::mem(),
                )
            })
            .collect()
    }

    fn ab_map() -> ShardMap {
        // Keys < "M" on shard 0, the rest on shard 1.
        ShardMap::with_bounds(vec!["M".into()])
    }

    fn paged_mem_devices(n: usize) -> Vec<PagedShardDevices> {
        (0..n)
            .map(|_| {
                (
                    Box::new(MemIo::new()) as Box<dyn Io>,
                    CheckpointStore::mem(),
                    Box::new(MemIo::new()) as Box<dyn Io>,
                )
            })
            .collect()
    }

    /// Differential smoke: the same curation script against a paged
    /// open (tiny pool, heavy eviction) and a resident open must agree
    /// on every observable — keys, fields, lineage — including across
    /// a mid-script checkpoint (page-granular on one side, full-state
    /// on the other).
    #[test]
    fn paged_open_matches_resident_shards_differentially() {
        let window = Duration::from_micros(50);
        let resident = ShardedDb::open("iuphar", "name", ab_map(), mem_devices(2), window).unwrap();
        let paged =
            ShardedDb::open_paged("iuphar", "name", ab_map(), paged_mem_devices(2), 2, window)
                .unwrap();
        for db in [&resident, &paged] {
            db.add_entry("alice", 1, "GABA-A", &[("tm", Atom::Int(4))])
                .unwrap();
            db.add_entry("bob", 2, "P2X", &[("ligand", Atom::Str("ATP".into()))])
                .unwrap();
            db.merge_entries("carol", 3, "GABA-A", "P2X").unwrap();
            db.copy_paste("dave", 4, "GABA-A", "Z-copy").unwrap();
            db.checkpoint().unwrap();
            db.edit_field("erin", 5, "Z-copy", "tm", Atom::Int(7))
                .unwrap();
            db.sync().unwrap();
        }
        let (r, p) = (resident.snapshot(), paged.snapshot());
        assert_eq!(r.entry_keys().unwrap(), p.entry_keys().unwrap());
        for key in r.entry_keys().unwrap() {
            for field in ["tm", "ligand"] {
                assert_eq!(
                    r.field(&key, field).ok(),
                    p.field(&key, field).ok(),
                    "{key}.{field} diverged between paged and resident"
                );
            }
        }
        assert_eq!(
            r.resolve_id("P2X").unwrap(),
            p.resolve_id("P2X").unwrap(),
            "lineage diverged"
        );
        // The paged side's pool counters surface, shard-prefixed, in
        // the merged snapshot.
        let m = paged.metrics_snapshot();
        assert!(
            m.counters.keys().any(|k| k.starts_with("shard.0.storage.")),
            "expected shard-prefixed storage metrics, got: {:?}",
            m.counters.keys().take(8).collect::<Vec<_>>()
        );
    }

    /// A key exactly equal to a boundary belongs to the *higher* shard:
    /// shard `i` owns `[bounds[i-1], bounds[i])`, half-open on the
    /// right, so every key routes to exactly one shard and adjacent
    /// ranges never overlap.
    #[test]
    fn shard_map_boundary_keys_route_to_the_higher_shard() {
        let m = ShardMap::with_bounds(vec!["b".into(), "m".into(), "t".into()]);
        assert_eq!(m.shards(), 4);
        // Exactly on each bound.
        assert_eq!(m.route("b"), 1);
        assert_eq!(m.route("m"), 2);
        assert_eq!(m.route("t"), 3);
        // One step either side of a bound.
        assert_eq!(m.route("a\u{10FFFF}"), 0, "just below the first bound");
        assert_eq!(m.route("b\u{0}"), 1, "just above the first bound");
        assert_eq!(m.route("lzzz"), 1);
        assert_eq!(m.route("m\u{0}"), 2);
        // Open ends.
        assert_eq!(m.route(""), 0);
        assert_eq!(m.route("\u{10FFFF}"), 3);
    }

    /// A split that leaves a range empty (adjacent bounds with no key
    /// between them in practice) still routes every key to a valid
    /// shard, and only the boundary key itself lands in the pinched
    /// range.
    #[test]
    fn shard_map_empty_ranges_after_split_still_route_validly() {
        // Shard 1 owns exactly ["m", "m\u{0}") — the single key "m".
        let m = ShardMap::with_bounds(vec!["m".into(), "m\u{0}".into()]);
        assert_eq!(m.shards(), 3);
        assert_eq!(m.route("m"), 1);
        assert_eq!(m.route("l"), 0);
        assert_eq!(m.route("m\u{0}"), 2);
        assert_eq!(m.route("ma"), 2);
        for k in ["", "a", "m", "m\u{0}", "ma", "z"] {
            assert!(m.route(k) < m.shards(), "key {k:?} routed out of range");
        }
    }

    /// Hierarchical path keys: a parent path sorts before its
    /// descendants, so a bound on the parent key puts the parent at
    /// the start of the higher shard and every deeper path follows it
    /// — the contiguous-subtree property the range partitioning is
    /// chosen for.
    #[test]
    fn shard_map_routes_deepest_paths_with_their_subtree() {
        let m = ShardMap::with_bounds(vec!["proteins".into(), "species".into()]);
        assert_eq!(m.route("proteins"), 1, "bound key starts its shard");
        assert_eq!(m.route("proteins/Q04917"), 1);
        assert_eq!(m.route("proteins/Q04917/de"), 1);
        assert_eq!(m.route("proteins\u{10FFFF}"), 1);
        assert_eq!(m.route("protein"), 0, "strict prefix sorts lower");
        assert_eq!(m.route("species/human"), 2);
        // Every descendant of a routed key routes to the same shard
        // unless a bound falls inside the subtree.
        for leaf in ["a", "a/b", "a/b/c/d/e"] {
            assert_eq!(m.route(leaf), 0);
        }
    }

    /// `uniform(n)` produces strictly increasing printable bounds and a
    /// monotone routing function covering all n shards.
    #[test]
    fn shard_map_uniform_bounds_are_monotone_and_total() {
        assert_eq!(ShardMap::single().shards(), 1);
        assert_eq!(ShardMap::single().route("anything"), 0);
        for n in 1..=95 {
            let m = ShardMap::uniform(n);
            assert_eq!(m.shards(), n);
            assert!(m.bounds().windows(2).all(|w| w[0] < w[1]));
            // Monotone over a sorted key sweep, hitting every shard.
            let mut last = 0;
            let mut seen = std::collections::BTreeSet::new();
            for c in 0x20u8..0x7f {
                let s = m.route(&(c as char).to_string());
                assert!(s >= last, "routing must be monotone in the key");
                assert!(s < n);
                seen.insert(s);
                last = s;
            }
            assert_eq!(seen.len(), n, "uniform({n}) left a shard unreachable");
            // Each bound is the first key of its shard.
            for (i, b) in m.bounds().iter().enumerate() {
                assert_eq!(m.route(b), i + 1);
            }
        }
    }

    /// Past 95 shards the printable bounds would repeat (97 and up) or
    /// start at `' '` (96), leaving a shard no printable key reaches.
    #[test]
    #[should_panic(expected = "at most 95 shards")]
    fn shard_map_uniform_refuses_96_shards() {
        ShardMap::uniform(96);
    }

    #[test]
    #[should_panic(expected = "at most 95 shards")]
    fn shard_map_uniform_refuses_97_shards() {
        ShardMap::uniform(97);
    }

    #[test]
    fn shard_map_routes_ranges() {
        let m = ShardMap::uniform(4);
        assert_eq!(m.shards(), 4);
        let mut seen = std::collections::BTreeSet::new();
        for k in ["Alanine", "Glycine", "Serine", "Zyxin", "0x", "~tail"] {
            seen.insert(m.route(k));
            assert!(m.route(k) < 4);
        }
        assert!(seen.len() > 1, "uniform map should spread ASCII keys");
        let c = ShardMap::with_bounds(vec!["H".into(), "P".into()]);
        assert_eq!(c.route("Alanine"), 0);
        assert_eq!(c.route("Histidine"), 1);
        assert_eq!(c.route("Proline"), 2);
        assert_eq!(ShardMap::single().route("anything"), 0);
    }

    #[test]
    fn single_shard_writes_route_and_read_back() {
        let db = ShardedDb::new("iuphar", "name", ab_map());
        db.add_entry("alice", 1, "GABA-A", &[("tm", Atom::Int(4))])
            .unwrap();
        db.add_entry("bob", 2, "P2X", &[("tm", Atom::Int(2))])
            .unwrap();
        let snap = db.snapshot();
        assert_eq!(snap.field("GABA-A", "tm").unwrap(), Atom::Int(4));
        assert_eq!(snap.field("P2X", "tm").unwrap(), Atom::Int(2));
        assert_eq!(snap.entry_keys().unwrap(), vec!["GABA-A", "P2X"]);
        // Each write landed on its own shard.
        assert_eq!(snap.shard(0).entry_keys().unwrap(), vec!["GABA-A"]);
        assert_eq!(snap.shard(1).entry_keys().unwrap(), vec!["P2X"]);
    }

    #[test]
    fn cross_shard_merge_carries_fields_and_resolves_on_both_sides() {
        let db = ShardedDb::new("iuphar", "name", ab_map());
        db.add_entry("alice", 1, "GABA-A", &[("tm", Atom::Int(4))])
            .unwrap();
        db.add_entry("bob", 2, "P2X", &[("ligand", Atom::Str("ATP".into()))])
            .unwrap();
        db.merge_entries("carol", 3, "GABA-A", "P2X").unwrap();
        let snap = db.snapshot();
        assert_eq!(
            snap.field("GABA-A", "ligand").unwrap(),
            Atom::Str("ATP".into())
        );
        assert!(snap.field("P2X", "ligand").is_err(), "absorbed is gone");
        assert_eq!(snap.resolve_id("P2X").unwrap(), vec!["GABA-A"]);
        assert_eq!(snap.resolve_id("GABA-A").unwrap(), vec!["GABA-A"]);
    }

    #[test]
    fn cross_shard_split_places_parts_on_their_shards() {
        let db = ShardedDb::new("iuphar", "name", ab_map());
        db.add_entry("alice", 1, "ACh", &[("kind", Atom::Str("both".into()))])
            .unwrap();
        db.split_entry(
            "bob",
            2,
            "ACh",
            &[
                ("AChE", vec![("kind", Atom::Str("enzyme".into()))]),
                ("nAChR", vec![("kind", Atom::Str("receptor".into()))]),
            ],
        )
        .unwrap();
        let snap = db.snapshot();
        assert_eq!(snap.shard(0).entry_keys().unwrap(), vec!["AChE"]);
        assert_eq!(snap.shard(1).entry_keys().unwrap(), vec!["nAChR"]);
        let mut resolved = snap.resolve_id("ACh").unwrap();
        resolved.sort();
        assert_eq!(resolved, vec!["AChE", "nAChR"]);
    }

    #[test]
    fn cross_shard_abort_rolls_both_sides_back() {
        let db = ShardedDb::new("iuphar", "name", ab_map());
        db.add_entry("alice", 1, "GABA-A", &[]).unwrap();
        db.add_entry("bob", 2, "P2X", &[]).unwrap();
        db.delete_entry("bob", 3, "P2X").unwrap();
        let before = db.snapshot();
        // Absorbed is deleted: validation fails on shard 1 after shard
        // 0 was locked; nothing may stick anywhere.
        assert!(db.merge_entries("carol", 4, "GABA-A", "P2X").is_err());
        let after = db.snapshot();
        assert_eq!(after.epoch(), before.epoch(), "no publication on abort");
        assert_eq!(after.entry_keys().unwrap(), vec!["GABA-A"]);
        let m = db.metrics_snapshot();
        assert_eq!(m.counters.get("core.sharded.cross.aborts"), Some(&1));
        assert_eq!(
            m.counters
                .get("core.sharded.cross.commits")
                .copied()
                .unwrap_or(0),
            0
        );
    }

    #[test]
    fn copy_paste_across_shards_preserves_provenance() {
        let db = ShardedDb::new("iuphar", "name", ab_map());
        db.add_entry("alice", 1, "GABA-A", &[("tm", Atom::Int(4))])
            .unwrap();
        db.copy_paste("bob", 2, "GABA-A", "P2X-like").unwrap();
        let snap = db.snapshot();
        assert_eq!(snap.field("P2X-like", "tm").unwrap(), Atom::Int(4));
        assert_eq!(snap.for_key("P2X-like").epoch(), 1);
    }

    #[test]
    fn durable_open_over_mem_devices_journals_cross_commits() {
        let db = ShardedDb::open(
            "iuphar",
            "name",
            ab_map(),
            mem_devices(2),
            Duration::from_micros(50),
        )
        .unwrap();
        db.add_entry("alice", 1, "GABA-A", &[]).unwrap();
        db.add_entry("bob", 2, "P2X", &[("ligand", Atom::Str("ATP".into()))])
            .unwrap();
        db.merge_entries("carol", 3, "GABA-A", "P2X").unwrap();
        db.sync().unwrap();
        // The 2PC frames landed in both shards' WALs.
        for s in db.shard() {
            assert!(s.wal_len().unwrap() > 0);
        }
        let m = db.metrics_snapshot();
        assert_eq!(m.counters.get("core.sharded.cross.commits"), Some(&1));
    }

    #[test]
    fn durable_cross_shard_commit_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("cdb-sharded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let window = Duration::from_micros(50);
        {
            let db = ShardedDb::open_dir("iuphar", "name", ab_map(), &dir, window).unwrap();
            db.add_entry("alice", 1, "GABA-A", &[]).unwrap();
            db.add_entry("bob", 2, "P2X", &[("ligand", Atom::Str("ATP".into()))])
                .unwrap();
            db.merge_entries("carol", 3, "GABA-A", "P2X").unwrap();
            db.split_entry("dave", 4, "GABA-A", &[("A1", vec![]), ("Z9", vec![])])
                .unwrap();
            db.sync().unwrap();
        }
        let db = ShardedDb::open_dir("iuphar", "name", ab_map(), &dir, window).unwrap();
        let snap = db.snapshot();
        assert_eq!(snap.entry_keys().unwrap(), vec!["A1", "Z9"]);
        // The merged-then-split lineage resolves through both hops.
        assert_eq!(snap.resolve_id("P2X").unwrap(), vec!["A1", "Z9"]);
        assert_eq!(snap.resolve_id("GABA-A").unwrap(), vec!["A1", "Z9"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! The systems under test, opened over metered real files.
//!
//! Flush policy, identical for every workload and stated in the
//! README: real files; the WAL is a `SegmentedIo` over a directory of
//! segment files; the group-commit window is `DEFAULT_BATCH_WINDOW`;
//! every acknowledged write has been `fdatasync`ed. Checkpoints go
//! through the directory checkpoint store (`<name>.ckpt`, written,
//! synced, then renamed into place) exactly as `open_dir` sets it up.

use std::path::Path;

use cdb_core::{CuratedDatabase, DbError, ShardedDb, SharedDb, Snapshot};
use cdb_storage::{CheckpointStore, Io, Retention, SegmentConfig, SegmentedIo};

use crate::corpus::{self, Fields, DB_NAME, INDEXED, KEY_FIELD};
use crate::meter::{DevClass, Meter, MeteredBacking};
use crate::plan::Workload;
use crate::spans::span;

/// Frames in the buffer pool of the paged workload; the state is far
/// larger (thousands of pages), so the pool evicts.
pub const POOL_PAGES: usize = 64;

/// The database a workload drives.
#[derive(Debug, Clone)]
pub enum Db {
    /// Two uniform shards (the wire workloads).
    Sharded(ShardedDb),
    /// One database (`query_mix`; paged for `release_cycle`).
    Single(SharedDb),
}

fn segment_config(workload: Workload) -> SegmentConfig {
    match workload {
        // Small segments and `Reclaim`, so retirement happens several
        // times per round at this size.
        Workload::ReleaseCycle => SegmentConfig {
            segment_bytes: 128 << 10,
            retention: Retention::Reclaim,
        },
        _ => SegmentConfig::default(),
    }
}

/// The file-name stem of shard `i`: `open_dir`'s layout.
pub fn part_name(workload: Workload, shard: usize) -> String {
    if workload.is_wire() {
        format!("{DB_NAME}.s{shard}")
    } else {
        DB_NAME.to_owned()
    }
}

fn wal(dir: &Path, part: &str, meter: &Meter, cfg: SegmentConfig) -> Result<Box<dyn Io>, DbError> {
    let backing = MeteredBacking::new(dir, part, meter.clone());
    Ok(Box::new(SegmentedIo::open(Box::new(backing), cfg)?))
}

fn heap(dir: &Path, meter: &Meter) -> Result<Box<dyn Io>, DbError> {
    let path = dir.join(format!("{DB_NAME}.heap"));
    Ok(Box::new(meter.open_file(&path, DevClass::Heap)?))
}

/// Loads the corpus into fresh files under `dir` and checkpoints it.
///
/// The load goes through a single-threaded `CuratedDatabase` per shard
/// (one transaction per entry, one sync at the end): the serving
/// façades clone the whole state on every commit, which at 2 048
/// entries would make set-up several times longer than the run.
pub fn load(
    workload: Workload,
    dir: &Path,
    meter: &Meter,
    entries: &[(String, Fields)],
) -> Result<(), DbError> {
    let map = workload.shard_map();
    let cfg = segment_config(workload);
    for shard in 0..map.shards() {
        let part = part_name(workload, shard);
        let wal_io = wal(dir, &part, meter, cfg)?;
        let ckpt = CheckpointStore::dir(dir, &part);
        let mut db = if workload == Workload::ReleaseCycle {
            CuratedDatabase::open_paged(
                DB_NAME,
                KEY_FIELD,
                wal_io,
                ckpt,
                heap(dir, meter)?,
                POOL_PAGES,
            )?
        } else {
            CuratedDatabase::open(DB_NAME, KEY_FIELD, wal_io, ckpt)?
        };
        db.set_retention(cfg.retention);
        db.set_durability(cdb_core::Durability::Batched);
        for (i, (key, fields)) in entries.iter().enumerate() {
            if map.route(key) == shard {
                db.add_entry("loader", i as u64 + 1, key, &corpus::borrowed(fields))?;
            }
        }
        db.sync()?;
        db.checkpoint()?;
    }
    Ok(())
}

/// An in-memory database named `name` holding `entries`, with the
/// workloads' indexes when `indexed`: the upstream database copy-paste
/// copies from, and the ladder's twins.
pub fn in_memory(name: &str, entries: &[(String, Fields)], indexed: bool) -> CuratedDatabase {
    let mut db = CuratedDatabase::new(name, KEY_FIELD);
    for (i, (key, fields)) in entries.iter().enumerate() {
        db.add_entry("loader", i as u64 + 1, key, &corpus::borrowed(fields))
            .expect("the corpus has distinct keys");
    }
    if indexed {
        for f in INDEXED {
            db.create_index(f).expect("in-memory index creation");
        }
    }
    db
}

/// Opens (recovers) the workload's database from the files in `dir`.
pub fn open(workload: Workload, dir: &Path, meter: &Meter) -> Result<Db, DbError> {
    let _s = span("core.open");
    let cfg = segment_config(workload);
    let window = cdb_core::DEFAULT_BATCH_WINDOW;
    match workload {
        Workload::WireSmall | Workload::WireLarge => {
            let map = workload.shard_map();
            let mut devices = Vec::new();
            for shard in 0..map.shards() {
                let part = part_name(workload, shard);
                devices.push((
                    wal(dir, &part, meter, cfg)?,
                    CheckpointStore::dir(dir, &part),
                ));
            }
            Ok(Db::Sharded(ShardedDb::open(
                DB_NAME, KEY_FIELD, map, devices, window,
            )?))
        }
        Workload::QueryMix => Ok(Db::Single(SharedDb::open(
            DB_NAME,
            KEY_FIELD,
            wal(dir, DB_NAME, meter, cfg)?,
            CheckpointStore::dir(dir, DB_NAME),
            window,
        )?)),
        Workload::ReleaseCycle => {
            let db = SharedDb::open_paged(
                DB_NAME,
                KEY_FIELD,
                wal(dir, DB_NAME, meter, cfg)?,
                CheckpointStore::dir(dir, DB_NAME),
                heap(dir, meter)?,
                POOL_PAGES,
                window,
            )?;
            db.set_retention(cfg.retention);
            Ok(Db::Single(db))
        }
    }
}

/// What one checkpoint retired.
#[derive(Debug, Clone, Copy, Default)]
pub struct Retired {
    /// Segments retired.
    pub segments: u64,
    /// Bytes they held.
    pub bytes: u64,
}

impl Db {
    /// One snapshot per shard, in shard order.
    pub fn snapshots(&self) -> Vec<Snapshot> {
        let _s = span("core.snapshot");
        match self {
            Db::Sharded(db) => db.snapshot().shards().to_vec(),
            Db::Single(db) => vec![db.snapshot()],
        }
    }

    /// The shard that owns `key`.
    pub fn route(&self, key: &str) -> usize {
        match self {
            Db::Sharded(db) => db.map().route(key),
            Db::Single(_) => 0,
        }
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        match self {
            Db::Sharded(db) => db.shard_count(),
            Db::Single(_) => 1,
        }
    }

    /// Registers the secondary indexes every workload uses.
    pub fn create_indexes(&self) -> Result<(), DbError> {
        for field in INDEXED {
            match self {
                Db::Sharded(db) => db.create_index(field)?,
                Db::Single(db) => db.create_index(field)?,
            };
        }
        Ok(())
    }

    /// Publishes the current state on every shard.
    pub fn publish(&self, label: &str) -> Result<u32, DbError> {
        let _s = span("core.publish");
        match self {
            Db::Sharded(db) => Ok(db.publish(label)?[0]),
            Db::Single(db) => db.publish(label),
        }
    }

    /// Checkpoints every shard.
    pub fn checkpoint(&self) -> Result<Retired, DbError> {
        let _s = span("core.checkpoint");
        let stats = match self {
            Db::Sharded(db) => db.checkpoint()?,
            Db::Single(db) => vec![db.checkpoint()?],
        };
        Ok(Retired {
            segments: stats.iter().map(|s| s.retired_segments).sum(),
            bytes: stats.iter().map(|s| s.reclaimed_bytes).sum(),
        })
    }

    /// Every metric the database can see; shard registries are
    /// prefixed `shard.<i>.` for a sharded database.
    pub fn metrics_snapshot(&self) -> cdb_obs::MetricsSnapshot {
        match self {
            Db::Sharded(db) => db.metrics_snapshot(),
            Db::Single(db) => db.metrics_snapshot(),
        }
    }
}

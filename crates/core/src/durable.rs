//! Durability for the integrated database: WAL wiring, checkpoints,
//! and crash recovery.
//!
//! The curation layer's transaction log is the durable core — every
//! committed [`cdb_curation::ops::Transaction`] becomes one
//! `FRAME_COMMIT` in the WAL, together with the auxiliary records it
//! produced. The integrated engine has three more kinds of state that
//! the tree replay cannot reconstruct, and each rides along as a frame
//! or inside a commit:
//!
//! * publish points → `FRAME_PUBLISH`. The archive itself is rebuilt
//!   on open from the log and the publish points, the paper's §5.1
//!   answer ([`DbState::archive_from_log`]): recovery keeps the tree at
//!   each publish point as it applies the log, once, and each point is
//!   merged from its tree under the rule a live publish follows. A
//!   checkpoint that cuts the log (under [`Retention::Reclaim`], or
//!   once a WAL prefix is retired) carries the encoded archive instead,
//!   and the open merges only the publish points after the cut;
//! * lifecycle events → aux records tagged [`AUX_EVENT`];
//! * superimposed notes → aux records tagged [`AUX_NOTE`].
//!
//! Durability is per-instance: a database created with
//! [`CuratedDatabase::new`] is purely in-memory; one opened with
//! [`CuratedDatabase::open`] (or [`CuratedDatabase::open_dir`])
//! persists every commit, with [`Durability::Always`] syncing at each
//! commit and [`Durability::Batched`] deferring to an explicit
//! [`CuratedDatabase::sync`] — the classic group-commit trade
//! (unsynced transactions can be lost on crash, torn tails are
//! truncated on recovery, committed-and-synced ones never are).
//!
//! Everything durable about an instance is one `Durable` value
//! beside its [`DbState`]: the WAL (always a [`GroupWal`]), the
//! checkpoint store, the policies, the persist cursors and the paged
//! backing. Every public `open*` constructor of the three façades is a
//! wrapper over `open_all`, the only caller of recovery.

use std::collections::BTreeMap;
use std::sync::Arc;

use cdb_archive::Archive;
use cdb_curation::provstore::StoreMode;
use cdb_curation::wire::{put_str, put_u64, Checkpoint, Reader, WireError};
use cdb_storage::{
    recover_shards, recover_with, CheckpointStore, GroupWal, Io, PublishRecord, Recovered,
    RecoveryStats, Retention, StorageError, FRAME_AUX, FRAME_COMMIT, FRAME_PUBLISH,
};

use crate::db::{CuratedDatabase, DbError, DbState, Note};
use crate::lifecycle::EntryEvent;
use crate::paged::{prepare_paged_open, PagedBacking};

/// What one [`CuratedDatabase::checkpoint`] covered and reclaimed. A
/// checkpoint under [`Retention::KeepAll`] of a whole WAL installs
/// nothing: every count but `live_segments` is 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Log bytes the installed checkpoint durably covers — the next
    /// recovery applies no frame at or below this watermark. 0 when
    /// nothing was installed.
    pub covered_bytes: u64,
    /// Fully-covered segments this checkpoint deleted under
    /// [`Retention::Reclaim`]; 0 under [`Retention::KeepAll`], which
    /// keeps every segment, and on unsegmented devices.
    pub retired_segments: u64,
    /// Bytes those retired segments held.
    pub reclaimed_bytes: u64,
    /// Live segments remaining after retirement (1 on unsegmented
    /// devices).
    pub live_segments: u64,
}

/// When WAL appends are forced to durable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Sync at every commit: a returned operation is crash-durable.
    #[default]
    Always,
    /// Buffer appends until [`CuratedDatabase::sync`] (group commit):
    /// faster, but a crash can lose operations since the last sync —
    /// never corrupt the log, only truncate it.
    Batched,
}

/// Aux-frame tag: a serialized [`EntryEvent`].
pub const AUX_EVENT: u8 = 1;
/// Aux-frame tag: a serialized [`Note`] with its attachment point.
pub const AUX_NOTE: u8 = 2;
/// Aux-frame tag: a 2PC decision record (gid, commit). Only ever
/// written into a checkpoint's aux carriage — the WAL's own record is
/// the `FRAME_DECIDE` frame — so cross-shard decisions survive
/// checkpoint-anchored log truncation and can still resolve another
/// shard's in-doubt PREPARE after the deciding frames are retired.
pub const AUX_DECIDE: u8 = 3;
/// Aux-frame tag: a secondary-index registration or drop. Only the
/// registration is durable — postings are derived state, rebuilt from
/// the recovered tree — so the payload is just the field name and a
/// create/drop flag. Checkpoints re-encode the surviving registrations
/// (creates only), exactly as they re-encode notes.
pub const AUX_INDEX: u8 = 4;

/// One decoded auxiliary frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuxRecord {
    /// A lifecycle event to replay into the registry.
    Event(EntryEvent),
    /// A superimposed note and where it attaches.
    Note {
        /// Entry key the note attaches to.
        key: String,
        /// Field within the entry, if field-level.
        field: Option<String>,
        /// The annotation itself.
        note: Note,
    },
    /// A 2PC decision record carried by a checkpoint.
    Decision {
        /// Global cross-shard transaction id.
        gid: u64,
        /// Whether the transaction committed.
        commit: bool,
    },
    /// A secondary-index registration (`create`) or drop (`!create`).
    Index {
        /// The indexed entry field.
        field: String,
        /// `true` = register, `false` = drop.
        create: bool,
    },
}

fn put_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
    }
}

fn read_opt_str(r: &mut Reader<'_>) -> Result<Option<String>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.str()?)),
        t => Err(WireError::BadTag("option", t)),
    }
}

/// Encodes a lifecycle event as an aux-frame payload.
pub fn encode_event(e: &EntryEvent) -> Vec<u8> {
    let mut out = vec![AUX_EVENT];
    match e {
        EntryEvent::Created {
            id,
            from_split,
            time,
        } => {
            out.push(0);
            put_str(&mut out, id);
            put_opt_str(&mut out, from_split.as_deref());
            put_u64(&mut out, *time);
        }
        EntryEvent::Merged {
            kept,
            absorbed,
            time,
        } => {
            out.push(1);
            put_str(&mut out, kept);
            put_str(&mut out, absorbed);
            put_u64(&mut out, *time);
        }
        EntryEvent::Split {
            original,
            parts,
            time,
        } => {
            out.push(2);
            put_str(&mut out, original);
            out.extend_from_slice(&(parts.len() as u32).to_le_bytes());
            for p in parts {
                put_str(&mut out, p);
            }
            put_u64(&mut out, *time);
        }
        EntryEvent::Deleted { id, time } => {
            out.push(3);
            put_str(&mut out, id);
            put_u64(&mut out, *time);
        }
    }
    out
}

/// Encodes a note as an aux-frame payload.
pub fn encode_note(key: &str, field: Option<&str>, note: &Note) -> Vec<u8> {
    let mut out = vec![AUX_NOTE];
    put_str(&mut out, key);
    put_opt_str(&mut out, field);
    put_str(&mut out, &note.author);
    put_str(&mut out, &note.text);
    put_u64(&mut out, note.time);
    out
}

/// Encodes a 2PC decision record as an aux-frame payload (checkpoint
/// carriage only; see [`AUX_DECIDE`]).
pub fn encode_decision(gid: u64, commit: bool) -> Vec<u8> {
    let mut out = vec![AUX_DECIDE];
    put_u64(&mut out, gid);
    out.push(u8::from(commit));
    out
}

/// Encodes a secondary-index registration/drop as an aux-frame payload.
pub fn encode_index(field: &str, create: bool) -> Vec<u8> {
    let mut out = vec![AUX_INDEX];
    put_str(&mut out, field);
    out.push(u8::from(create));
    out
}

/// Decodes an aux-frame payload.
pub fn decode_aux(bytes: &[u8]) -> Result<AuxRecord, WireError> {
    let mut r = Reader::new(bytes);
    let rec = match r.u8()? {
        AUX_EVENT => AuxRecord::Event(match r.u8()? {
            0 => EntryEvent::Created {
                id: r.str()?,
                from_split: read_opt_str(&mut r)?,
                time: r.u64()?,
            },
            1 => EntryEvent::Merged {
                kept: r.str()?,
                absorbed: r.str()?,
                time: r.u64()?,
            },
            2 => {
                let original = r.str()?;
                let n = r.u32()? as usize;
                let mut parts = Vec::with_capacity(n.min(65_536));
                for _ in 0..n {
                    parts.push(r.str()?);
                }
                EntryEvent::Split {
                    original,
                    parts,
                    time: r.u64()?,
                }
            }
            3 => EntryEvent::Deleted {
                id: r.str()?,
                time: r.u64()?,
            },
            t => return Err(WireError::BadTag("lifecycle event", t)),
        }),
        AUX_NOTE => AuxRecord::Note {
            key: r.str()?,
            field: read_opt_str(&mut r)?,
            note: Note {
                author: r.str()?,
                text: r.str()?,
                time: r.u64()?,
            },
        },
        AUX_DECIDE => AuxRecord::Decision {
            gid: r.u64()?,
            commit: match r.u8()? {
                0 => false,
                1 => true,
                t => return Err(WireError::BadTag("decision flag", t)),
            },
        },
        AUX_INDEX => AuxRecord::Index {
            field: r.str()?,
            create: match r.u8()? {
                0 => false,
                1 => true,
                t => return Err(WireError::BadTag("index flag", t)),
            },
        },
        t => return Err(WireError::BadTag("aux record", t)),
    };
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(rec)
}

/// The plumbing that persists the [`DbState`] beside it. A snapshot or
/// a 2PC rollback copies the state and never this.
#[derive(Debug)]
pub(crate) struct Durable {
    /// The write-ahead log, always behind a group-commit handle. Its
    /// in-memory batch is also the retry queue: frames a failed write
    /// left unwritten go out, in order, with the next sync.
    /// Single-threaded use is the degenerate group — an inline sync
    /// per commit; [`crate::SharedDb`] waits for the batch outside the
    /// database lock.
    pub(crate) wal: GroupWal,
    /// The crash-atomic checkpoint store.
    ckpt: CheckpointStore,
    /// What happens to fully-checkpointed WAL segments: kept live
    /// (default, paper semantics) or deleted to reclaim disk.
    retention: Retention,
    /// When to force appended frames to disk.
    durability: Durability,
    /// Curation transactions already encoded into WAL frames (a prefix
    /// length of `curated.log`). Persistence is driven by this
    /// position, not by "the last transaction", so a commit whose
    /// persist step failed or was skipped is picked up by the next one
    /// instead of being skipped in the WAL forever.
    persisted_txns: usize,
    /// Lifecycle events already encoded into WAL frames.
    persisted_events: usize,
    /// What the recovery that opened this instance saw.
    recovery: RecoveryStats,
    /// The page heap and what it holds, when checkpoints are
    /// page-granular; `None` = checkpoints carry the whole state.
    pub(crate) paged: Option<PagedBacking>,
}

/// A 2PC rollback point (see [`CuratedDatabase::savepoint`]).
pub(crate) type Savepoint = (DbState, (usize, usize));

/// One database's (or one shard's) devices: the WAL, the checkpoint
/// store, and the page heap when checkpoints are page-granular.
pub(crate) type Devices = (Box<dyn Io>, CheckpointStore, Option<Box<dyn Io>>);

/// The one open routine behind every public `open*` constructor: per
/// device set, load the checkpoint → materialise a paged anchor →
/// recover the WAL → assemble the state → attach the page heap.
/// Returns the databases in device order and the largest 2PC gid any
/// log or checkpoint knows.
///
/// 2PC decisions are harvested from every checkpoint first (it may
/// have truncated the segments that held the DECIDE frames); several
/// logs then recover in parallel under that shared context
/// ([`recover_shards`], which also scans every log for decisions). A
/// lone log has no other log to consult and is read once.
///
/// The open's spans form one tree: `storage.open` over
/// `storage.ckpt.load`, `storage.page.scan`, `storage.recovery.replay`,
/// `core.open.derived` and `core.open.archive`. (Logs recovered in
/// parallel replay on their own threads, outside the root.)
pub(crate) fn open_all(
    name: &str,
    key_field: &str,
    devices: Vec<Devices>,
    durability: Durability,
) -> Result<(Vec<CuratedDatabase>, u64), DbError> {
    let _trace = cdb_obs::trace_root();
    let _span = cdb_obs::SpanGuard::enter("storage.open");
    let mut decided = BTreeMap::new();
    let mut rest = Vec::with_capacity(devices.len());
    let mut to_recover = Vec::with_capacity(devices.len());
    for (wal_io, mut store, page_io) in devices {
        // A checkpoint that does not cut the log (the old full form)
        // never anchors: read it as absent, so no heap is materialised
        // for it.
        let mut ck = store.load()?.filter(Checkpoint::is_truncated);
        for bytes in ck.iter().flat_map(|ck| &ck.aux) {
            if bytes.first() == Some(&AUX_DECIDE) {
                if let AuxRecord::Decision { gid, commit } =
                    decode_aux(bytes).map_err(StorageError::Wire)?
                {
                    decided.insert(gid, commit);
                }
            }
        }
        let metrics = cdb_obs::Metrics::new();
        let mut paged = None;
        if let Some(page_io) = page_io {
            let (heap, ck_eff, base) = prepare_paged_open(ck, page_io, &metrics)?;
            ck = ck_eff;
            paged = Some((heap, base));
        }
        to_recover.push((wal_io, ck));
        rest.push((store, metrics, paged));
    }
    let recovered = match to_recover.len() {
        1 => {
            let (wal_io, ck) = to_recover.pop().expect("one device set");
            vec![recover_with(
                name,
                StoreMode::Hereditary,
                wal_io,
                ck,
                &decided,
            )?]
        }
        _ => recover_shards(name, StoreMode::Hereditary, to_recover, &decided)?,
    };
    let mut max_gid = decided.keys().next_back().copied().unwrap_or(0);
    let mut dbs = Vec::with_capacity(recovered.len());
    for ((log, rec), (ckpt, metrics, paged)) in recovered.into_iter().zip(rest) {
        max_gid = max_gid.max(rec.max_gid);
        let (state, recovery) = DbState::from_recovered(name, key_field, rec)?;
        recovery.record_to(&metrics);
        metrics
            .gauge("storage.segment.count")
            .set(recovery.live_segments);
        dbs.push(CuratedDatabase {
            durable: Some(Durable {
                wal: GroupWal::with_metrics(log, &metrics),
                ckpt,
                retention: Retention::default(),
                durability,
                persisted_txns: state.curated.log().len(),
                persisted_events: state.lifecycle.events().len(),
                recovery,
                paged: paged.map(|(heap, base)| PagedBacking::attach(heap, base)),
            }),
            state,
            metrics,
            applied: 0,
        });
    }
    Ok((dbs, max_gid))
}

impl DbState {
    /// Rebuilds the state from a finished recovery: the recovered tree
    /// and log as they are, the lifecycle registry, notes, decisions
    /// and index registrations from the aux records, the primary index
    /// and the index postings from the tree, the archive from the trees
    /// recovery kept at the publish points (onto the archive the
    /// checkpoint carried, where the log was cut).
    fn from_recovered(
        name: &str,
        key_field: &str,
        rec: Recovered,
    ) -> Result<(DbState, RecoveryStats), DbError> {
        let mut state = DbState::new(name, key_field);
        state.curated = rec.db;
        for aux in &rec.aux {
            match decode_aux(aux).map_err(StorageError::Wire)? {
                AuxRecord::Event(e) => state.lifecycle.record(e),
                AuxRecord::Note { key, field, note } => {
                    state.attach_note(&key, field.as_deref(), note);
                }
                AuxRecord::Decision { gid, commit } => {
                    Arc::make_mut(&mut state.decisions).insert(gid, commit);
                }
                // Registrations replay in log order, so a drop cancels
                // an earlier create; postings rebuild below, after the
                // recovered tree is in place.
                AuxRecord::Index { field, create } => {
                    if create {
                        state.indexes.register(&field);
                    } else {
                        state.indexes.unregister(&field);
                    }
                }
            }
        }
        {
            let _span = cdb_obs::SpanGuard::enter("core.open.derived");
            state.rebuild_derived()?;
        }
        // The WAL's own DECIDE frames join the checkpoint-carried
        // records (later frames win — they are never contradictory, but
        // a self-healed abort may postdate a carried record).
        Arc::make_mut(&mut state.decisions).extend(rec.decisions.iter());
        state.publish_points = rec
            .publishes
            .iter()
            .map(|p| (p.txn, p.time, p.label.clone()))
            .collect();
        let _span = cdb_obs::SpanGuard::enter("core.open.archive");
        // Where the log was cut, versions published before the cut
        // cannot be merged from it: the checkpoint carried their
        // archive, and recovery kept the trees of the points after it.
        let archive = match rec.cut {
            None => crate::db::empty_archive(name, key_field),
            Some(cut) => {
                state.last_time = cut.time;
                let corrupt = |m: String| DbError::from(StorageError::Corrupt(m));
                let carried = Archive::decode(name, state.archive.spec().clone(), &cut.archive)
                    .map_err(|e| corrupt(format!("carried archive: {e}")))?;
                if carried.version_count() as usize != cut.publishes {
                    return Err(corrupt(format!(
                        "the checkpoint carries {} publish points but an archive of {} versions",
                        cut.publishes,
                        carried.version_count()
                    )));
                }
                carried
            }
        };
        state.archive = Arc::new(state.merge_points(archive, &rec.point_trees)?);
        Ok((state, rec.stats))
    }
}

impl Durable {
    /// Adds `frames` to the group's batch, behind whatever a failed
    /// write left there, and writes and syncs the batch when
    /// `force_sync` or the policy says so. A device error surfaces
    /// here, at the sync; the frames stay batched for the next one.
    fn log(
        &mut self,
        frames: impl IntoIterator<Item = (u8, Vec<u8>)>,
        force_sync: bool,
    ) -> Result<(), DbError> {
        for (kind, payload) in frames {
            self.wal.append(kind, payload);
        }
        if force_sync || self.durability == Durability::Always {
            self.wal.sync_all()?;
        }
        Ok(())
    }

    /// Writes and syncs everything batched.
    fn sync(&mut self) -> Result<(), DbError> {
        self.log([], true)
    }

    /// Encodes every not-yet-persisted committed transaction (plus its
    /// lifecycle events) into WAL frames and advances the persistence
    /// cursors — without touching the WAL. Each transaction and its
    /// events share one atomic commit frame — a torn write can drop the
    /// whole operation but never split the transaction from its side
    /// effects. [`CuratedDatabase::persist_commit`] feeds the frames
    /// straight into the group's batch; the sharded 2PC path
    /// ([`CuratedDatabase::seal_unpersisted`]) instead seals them
    /// inside a PREPARE frame, so the transaction's whole cross-shard
    /// effect commits or aborts atomically.
    fn encode_unpersisted(
        &mut self,
        state: &DbState,
        metrics: &cdb_obs::Metrics,
    ) -> Vec<(u8, Vec<u8>)> {
        let events = state.lifecycle.events();
        let log = state.curated.log();
        let mut frames = Vec::new();
        let mut fresh: Vec<Vec<u8>> = events
            .iter_from(self.persisted_events)
            .map(encode_event)
            .collect();
        let txns = log.iter_from(self.persisted_txns);
        let unpersisted = txns.len();
        if unpersisted == 0 {
            for payload in fresh.drain(..) {
                frames.push((FRAME_AUX, payload));
            }
        } else {
            // Normally exactly one transaction is unpersisted and the
            // fresh events are its own. More than one means an earlier
            // persist was interrupted; the stragglers' events then ride
            // with the newest frame — relative aux order (all recovery
            // depends on) is preserved.
            for (i, txn) in txns.enumerate() {
                let aux = if i + 1 == unpersisted {
                    std::mem::take(&mut fresh)
                } else {
                    Vec::new()
                };
                frames.push((FRAME_COMMIT, cdb_storage::encode_commit(txn, &aux)));
            }
        }
        metrics.counter("core.commits").add(unpersisted as u64);
        self.persisted_txns = log.len();
        self.persisted_events = events.len();
        frames
    }

    /// The checkpoint protocol; see [`CuratedDatabase::checkpoint`].
    fn checkpoint(
        &mut self,
        state: &DbState,
        metrics: &cdb_obs::Metrics,
    ) -> Result<CheckpointStats, DbError> {
        let _span = cdb_obs::SpanGuard::enter("core.checkpoint");
        metrics.counter("core.checkpoints").inc();
        self.sync()?;
        // Under `KeepAll` a whole WAL is the log, and every open
        // replays it from empty (the archive is rebuilt from it
        // anyway): a checkpoint would save nothing, so it is this sync.
        // Otherwise it cuts the log, carrying the archive.
        if self.retention == Retention::KeepAll && self.wal.base() == 0 {
            return Ok(CheckpointStats {
                live_segments: self.wal.live_segments(),
                ..CheckpointStats::default()
            });
        }
        // Everything up to here is durable; nothing can be appended
        // between the sync and this read (the caller holds the
        // database exclusively — by `&mut`, or through the serving
        // layer's lock), so the watermark is exactly the durable log
        // length.
        let covered = self.wal.log_len()?;

        // Paged databases capture changed objects into the page heap and
        // flush it *before* the anchor below installs: a durable anchor
        // must always reference a durable heap prefix.
        let paged_ref = match self.paged.as_mut() {
            Some(backing) => Some(backing.capture(state, metrics)?),
            None => None,
        };

        let curated = &state.curated;
        let mut ck = if paged_ref.is_some() {
            // A paged anchor carries no tree or provenance — their
            // bodies live as pages behind the PagedRef watermark. The
            // placeholder tree exists solely to carry the database
            // name and store mode across the wire.
            Checkpoint::basic(
                curated.last_txn_id(),
                covered,
                cdb_curation::TreeDb::new(curated.tree.name()),
                cdb_curation::ProvStore::new(curated.prov.mode()),
            )
        } else {
            Checkpoint::basic(
                curated.last_txn_id(),
                covered,
                curated.tree.clone(),
                curated.prov.clone(),
            )
        };
        ck.paged = paged_ref;
        ck.last_time = state.clock();
        ck.archive = state.archive.encode();
        // Recovery reads publishes and aux records below the watermark
        // from the checkpoint, not from their frames (which the cut
        // retires), so the checkpoint re-encodes the complete
        // current sets (events first, then notes — recovery only
        // depends on relative order within each kind).
        ck.publishes = state
            .publish_points
            .iter()
            .map(encode_publish_point)
            .collect();
        let mut aux: Vec<Vec<u8>> = state.lifecycle.events().iter().map(encode_event).collect();
        for (key, notes) in state.notes.iter() {
            for (field, note) in notes.iter() {
                aux.push(encode_note(key, field, note));
            }
        }
        // 2PC decision records ride every checkpoint so they outlive
        // the DECIDE frames the watermark is about to retire.
        for (&gid, &commit) in state.decisions.iter() {
            aux.push(encode_decision(gid, commit));
        }
        // Index registrations likewise: only the surviving creates —
        // a drop below the watermark has already erased its create
        // from this set, so no drop records are needed.
        for field in state.indexes.fields() {
            aux.push(encode_index(&field, true));
        }
        ck.aux = aux;

        self.ckpt.install(&ck)?;

        // The checkpoint is durably installed: history it cut can be
        // retired. Best-effort — a failed retire is retried by the next
        // checkpoint, never blocks this one.
        let reclaimed = self.wal.reclaim(covered)?;
        let mut stats = CheckpointStats {
            covered_bytes: covered,
            live_segments: self.wal.live_segments(),
            ..CheckpointStats::default()
        };
        if let Some(r) = reclaimed {
            stats.retired_segments = r.retired;
            stats.reclaimed_bytes = r.reclaimed_bytes;
            stats.live_segments = r.live;
            metrics.counter("storage.segment.retired").add(r.retired);
            metrics
                .counter("storage.segment.reclaimed_bytes")
                .add(r.reclaimed_bytes);
            if r.failed {
                metrics.counter("storage.error.retire_failed").inc();
            }
        }
        metrics
            .gauge("storage.segment.count")
            .set(stats.live_segments);
        Ok(stats)
    }
}

/// Encodes one of [`DbState`]'s publish points as a `FRAME_PUBLISH`
/// payload.
fn encode_publish_point(
    (txn, time, label): &(Option<cdb_curation::TxnId>, u64, String),
) -> Vec<u8> {
    cdb_storage::recovery::encode_publish(&PublishRecord {
        txn: *txn,
        time: *time,
        label: label.clone(),
    })
}

/// Single-threaded use: every commit synced inline.
const OWNED: Durability = Durability::Always;

/// The single database as the one-shard case of [`open_all`].
pub(crate) fn open_one(
    name: &str,
    key_field: &str,
    devices: Devices,
    durability: Durability,
) -> Result<CuratedDatabase, DbError> {
    let (mut dbs, _) = open_all(name, key_field, vec![devices], durability)?;
    Ok(dbs.pop().expect("one device set opens one database"))
}

/// The devices of `open_dir`: `<dir>/<part>.wal.<seq>` and `<dir>/<part>.ckpt`.
pub(crate) fn dir_devices(
    dir: &std::path::Path,
    part: &str,
    cfg: cdb_storage::SegmentConfig,
) -> Result<Devices, DbError> {
    let wal = cdb_storage::SegmentedIo::open_dir(dir, part, cfg)?;
    Ok((Box::new(wal), CheckpointStore::dir(dir, part), None))
}

impl CuratedDatabase {
    /// Opens a durable database over a WAL device and a checkpoint
    /// device, recovering whatever committed state they hold. Empty
    /// devices yield a fresh database that will persist from the
    /// first commit on; a torn WAL tail (crash mid-write) is truncated
    /// and the state is rebuilt from the committed prefix, checkpoint
    /// first when one is usable.
    pub fn open(
        name: impl Into<String>,
        key_field: impl Into<String>,
        wal_io: Box<dyn Io>,
        ckpt: CheckpointStore,
    ) -> Result<Self, DbError> {
        let devices = (wal_io, ckpt, None);
        open_one(&name.into(), &key_field.into(), devices, OWNED)
    }

    /// Opens a durable database whose checkpoints are page-granular:
    /// `wal_io` and `ckpt` work exactly as in
    /// [`CuratedDatabase::open`], and `page_io` holds the page heap
    /// (see [`crate::paged`]). `_pool_pages` is ignored: checkpoints
    /// append to the heap and nothing reads a page twice.
    ///
    /// Recovery first tries the newest checkpoint anchor: if it
    /// carries a paged reference whose heap prefix survived, the tree
    /// and provenance are materialized from pages and handed to the
    /// ordinary recovery path, which applies the log's tail onto them
    /// exactly as onto an unpaged checkpoint's. If the heap cannot
    /// serve the anchor, recovery falls back to full WAL replay — the
    /// WAL stays authoritative.
    pub fn open_paged(
        name: impl Into<String>,
        key_field: impl Into<String>,
        wal_io: Box<dyn Io>,
        ckpt: CheckpointStore,
        page_io: Box<dyn Io>,
        _pool_pages: usize,
    ) -> Result<Self, DbError> {
        let devices = (wal_io, ckpt, Some(page_io));
        open_one(&name.into(), &key_field.into(), devices, OWNED)
    }

    /// Opens a durable database backed by segmented WAL files
    /// `<dir>/<name>.wal.<seq>` and the checkpoint `<dir>/<name>.ckpt`
    /// (all created if absent). Checkpoints install atomically via
    /// temp-file + rename; a legacy single-file `<dir>/<name>.wal` from
    /// an older layout is **not** migrated — open it with
    /// [`CuratedDatabase::open`] over a [`cdb_storage::FileIo`] instead.
    pub fn open_dir(
        name: impl Into<String>,
        key_field: impl Into<String>,
        dir: impl AsRef<std::path::Path>,
    ) -> Result<Self, DbError> {
        Self::open_dir_with(name, key_field, dir, cdb_storage::SegmentConfig::default())
    }

    /// [`CuratedDatabase::open_dir`] with an explicit segment
    /// rotation/retention policy. The database's own retention knob is
    /// aligned with `cfg.retention`, so checkpoints cut the log exactly
    /// when the segment files below them are deleted.
    pub fn open_dir_with(
        name: impl Into<String>,
        key_field: impl Into<String>,
        dir: impl AsRef<std::path::Path>,
        cfg: cdb_storage::SegmentConfig,
    ) -> Result<Self, DbError> {
        let name = name.into();
        let devices = dir_devices(dir.as_ref(), &name, cfg)?;
        let mut db = open_one(&name, &key_field.into(), devices, OWNED)?;
        db.set_retention(cfg.retention);
        Ok(db)
    }

    /// Whether this instance persists commits.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// The durability policy ([`Durability::Always`] for an in-memory
    /// database, where it means nothing).
    pub fn durability(&self) -> Durability {
        self.durable
            .as_ref()
            .map_or(Durability::Always, |d| d.durability)
    }

    /// Sets the durability policy. Switching to [`Durability::Always`]
    /// does not retroactively sync — call [`CuratedDatabase::sync`].
    pub fn set_durability(&mut self, durability: Durability) {
        if let Some(d) = self.durable.as_mut() {
            d.durability = durability;
        }
    }

    /// The segment-retention policy applied when a checkpoint retires
    /// fully-covered WAL history.
    pub fn retention(&self) -> Retention {
        self.durable
            .as_ref()
            .map_or(Retention::default(), |d| d.retention)
    }

    /// Sets the segment-retention policy for future checkpoints.
    /// [`Retention::KeepAll`] (the default) keeps every WAL segment,
    /// preserving the paper's full-history semantics: the WAL is the
    /// log, and checkpoints carry only state. [`Retention::Reclaim`]
    /// deletes the segments a checkpoint covers, trading history
    /// reconstruction from the raw log for bounded disk (the
    /// checkpoint then cuts the log and carries the encoded archive of
    /// the published versions instead).
    pub fn set_retention(&mut self, retention: Retention) {
        if let Some(d) = self.durable.as_mut() {
            d.retention = retention;
        }
    }

    /// What recovery saw when this instance was opened from a WAL
    /// (`None` for in-memory databases).
    pub fn recovery_stats(&self) -> Option<&RecoveryStats> {
        self.durable.as_ref().map(|d| &d.recovery)
    }

    /// Forces all buffered WAL frames to durable storage (a no-op for
    /// in-memory databases and under [`Durability::Always`]).
    pub fn sync(&mut self) -> Result<(), DbError> {
        self.durable.as_mut().map_or(Ok(()), Durable::sync)
    }

    /// Writes a checkpoint. The WAL is synced first. Under
    /// [`Retention::KeepAll`], while the WAL holds the whole log, that
    /// is all: the log is kept forever, every open replays it from
    /// empty, and a snapshot would save that open nothing (the returned
    /// stats cover 0 bytes). Otherwise — under [`Retention::Reclaim`],
    /// or once a WAL prefix is retired — the current state is
    /// snapshotted with a coverage watermark (the synced log length)
    /// and installed **crash-atomically** through the
    /// [`CheckpointStore`]: a crash mid-install leaves the previous
    /// checkpoint loadable, never neither. This checkpoint cuts the
    /// log: it carries the state and the encoded archive of the
    /// published versions, never the transaction log, and once it is
    /// installed, WAL segments fully below the watermark are deleted.
    pub fn checkpoint(&mut self) -> Result<CheckpointStats, DbError> {
        match self.durable.as_mut() {
            Some(d) => d.checkpoint(&self.state, &self.metrics),
            None => Err(DbError::Storage(
                "checkpoint on an in-memory database".into(),
            )),
        }
    }

    /// Appends every not-yet-persisted transaction and its lifecycle
    /// events to the WAL. Persistence is position-based, so a commit
    /// whose persist step previously errored is encoded or written now,
    /// never skipped: the WAL always holds a gap-free prefix of the
    /// in-memory log. In-memory instances skip straight out.
    pub(crate) fn persist_commit(&mut self) -> Result<(), DbError> {
        let Some(d) = self.durable.as_mut() else {
            return Ok(());
        };
        let _span = cdb_obs::SpanGuard::enter("core.persist_commit");
        let frames = d.encode_unpersisted(&self.state, &self.metrics);
        d.log(frames, false)
    }

    /// What a cross-shard transaction may have to undo on this shard:
    /// a [`DbState`] clone, and the persist cursors that index into it.
    /// Nothing else — it runs on the state alone and queues no frames.
    pub(crate) fn savepoint(&self) -> Savepoint {
        let cursors = self
            .durable
            .as_ref()
            .map_or((0, 0), |d| (d.persisted_txns, d.persisted_events));
        (self.state.clone(), cursors)
    }

    /// Restores a [`CuratedDatabase::savepoint`] — the abort path of a
    /// cross-shard transaction.
    pub(crate) fn rollback(&mut self, (state, (txns, events)): Savepoint) {
        self.state = state;
        if let Some(d) = self.durable.as_mut() {
            d.persisted_txns = txns;
            d.persisted_events = events;
        }
    }

    /// The frames of everything committed but not yet persisted, for
    /// the 2PC path to seal inside a PREPARE. Advances the cursors.
    pub(crate) fn seal_unpersisted(&mut self) -> Vec<(u8, Vec<u8>)> {
        match self.durable.as_mut() {
            Some(d) => d.encode_unpersisted(&self.state, &self.metrics),
            None => Vec::new(),
        }
    }

    /// Appends the newest publish point to the WAL. Publishes are
    /// synced immediately regardless of policy — losing one silently
    /// desyncs the archive from what users were told was published.
    pub(crate) fn persist_publish(&mut self) -> Result<(), DbError> {
        let Some(d) = self.durable.as_mut() else {
            return Ok(());
        };
        let _span = cdb_obs::SpanGuard::enter("core.persist_publish");
        self.metrics.counter("core.publishes").inc();
        let point = self
            .state
            .publish_points
            .last()
            .expect("persist_publish follows a publish");
        d.log([(FRAME_PUBLISH, encode_publish_point(point))], true)
    }

    /// Appends the newest note on `(key, field)` to the WAL.
    pub(crate) fn persist_note(&mut self, key: &str, field: Option<&str>) -> Result<(), DbError> {
        let Some(d) = self.durable.as_mut() else {
            return Ok(());
        };
        self.metrics.counter("core.notes").inc();
        let note = self
            .state
            .notes_on(key, field)
            .last()
            .expect("persist_note follows an annotate");
        d.log([(FRAME_AUX, encode_note(key, field, note))], false)
    }

    /// Appends a secondary-index registration or drop to the WAL.
    /// Synced immediately like a publish: index DDL is rare and losing
    /// one silently changes which plans recovery can produce.
    pub(crate) fn persist_index(&mut self, field: &str, create: bool) -> Result<(), DbError> {
        let Some(d) = self.durable.as_mut() else {
            return Ok(());
        };
        self.metrics.counter("core.index_ddl").inc();
        d.log([(FRAME_AUX, encode_index(field, create))], true)
    }
}

impl Drop for CuratedDatabase {
    /// Best-effort flush on drop: under [`Durability::Batched`] a
    /// database can die holding committed-but-unsynced frames; dropping
    /// it cleanly (scope exit, shutdown) is not a crash, so those
    /// frames get one last write + sync. Failure is swallowed — drop
    /// cannot return an error — but counted: the global
    /// `storage.error.dropped_unsynced` counter records every drop that
    /// lost a tail, so silent loss is at least observable. Panics skip
    /// the flush entirely (the unwound state is suspect, and crash
    /// recovery handles a truncated tail by design).
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        let Some(d) = self.durable.as_mut() else {
            return;
        };
        if d.wal.unsynced() > 0 && d.sync().is_err() {
            cdb_obs::global()
                .counter("storage.error.dropped_unsynced")
                .inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aux_records_round_trip() {
        let records = [
            AuxRecord::Event(EntryEvent::Created {
                id: "P1".into(),
                from_split: None,
                time: 3,
            }),
            AuxRecord::Event(EntryEvent::Created {
                id: "P2".into(),
                from_split: Some("P0".into()),
                time: 4,
            }),
            AuxRecord::Event(EntryEvent::Merged {
                kept: "A".into(),
                absorbed: "B".into(),
                time: 5,
            }),
            AuxRecord::Event(EntryEvent::Split {
                original: "C".into(),
                parts: vec!["C1".into(), "C2".into()],
                time: 6,
            }),
            AuxRecord::Event(EntryEvent::Deleted {
                id: "D".into(),
                time: 7,
            }),
            AuxRecord::Note {
                key: "GABA-A".into(),
                field: Some("kind".into()),
                note: Note {
                    author: "carol".into(),
                    text: "verify against IUPHAR".into(),
                    time: 9,
                },
            },
            AuxRecord::Note {
                key: "5-HT3".into(),
                field: None,
                note: Note {
                    author: "dave".into(),
                    text: String::new(),
                    time: 0,
                },
            },
            AuxRecord::Decision {
                gid: 42,
                commit: true,
            },
            AuxRecord::Decision {
                gid: 0,
                commit: false,
            },
            AuxRecord::Index {
                field: "tm".into(),
                create: true,
            },
            AuxRecord::Index {
                field: String::new(),
                create: false,
            },
        ];
        for rec in records {
            let bytes = match &rec {
                AuxRecord::Event(e) => encode_event(e),
                AuxRecord::Note { key, field, note } => encode_note(key, field.as_deref(), note),
                AuxRecord::Decision { gid, commit } => encode_decision(*gid, *commit),
                AuxRecord::Index { field, create } => encode_index(field, *create),
            };
            assert_eq!(decode_aux(&bytes).unwrap(), rec);
        }
    }

    #[test]
    fn truncated_aux_payloads_error() {
        let bytes = encode_event(&EntryEvent::Merged {
            kept: "A".into(),
            absorbed: "B".into(),
            time: 5,
        });
        for cut in 0..bytes.len() {
            assert!(decode_aux(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }
}

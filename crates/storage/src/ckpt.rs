//! Crash-atomic checkpoint installation.
//!
//! A checkpoint file holds one record: the magic, then a single
//! [`FRAME_CKPT`] frame whose payload is a generation number followed
//! by the encoded checkpoint ([`write_checkpoint_slot`]). Writing it is
//! `truncate(0)` + append, so a crash inside that window would destroy
//! the *previous* checkpoint too. [`CheckpointStore`] closes the window
//! two ways:
//!
//! - **Directory store** — the snapshot is written to a temp file,
//!   fsynced, then atomically `rename`d over the live name (and the
//!   directory fsynced). A crash leaves either the old file or the new
//!   one, never a torn mix.
//! - **Two-slot store** — for raw [`Io`] devices with no rename
//!   primitive: two slots written alternately, each framed with a
//!   monotonically increasing generation number. An install targets
//!   the slot *not* holding the newest valid checkpoint, so a torn
//!   install can only destroy the older of the two; load picks the
//!   highest-generation slot that validates.

use cdb_curation::wire::{decode_checkpoint, encode_checkpoint, Checkpoint};

use crate::frame::{encode_parts, scan, CKPT_MAGIC, FRAME_CKPT};
use crate::io::{sync_parent_dir, FileIo, Io, MemIo};
use crate::StorageError;

/// A crash-atomic home for the checkpoint snapshot.
#[derive(Debug)]
pub struct CheckpointStore {
    kind: StoreKind,
}

#[derive(Debug)]
enum StoreKind {
    Slots {
        slots: [Box<dyn Io>; 2],
    },
    Dir {
        dir: std::path::PathBuf,
        name: String,
        /// Generation of the newest checkpoint this store loaded or
        /// installed (0 before either). Rename gives the atomicity;
        /// the generation only numbers the installs.
        gen: u64,
    },
}

impl CheckpointStore {
    /// A two-slot store over two raw devices. Installs alternate
    /// between the slots by generation so one valid checkpoint always
    /// survives a torn install.
    pub fn slots(a: Box<dyn Io>, b: Box<dyn Io>) -> Self {
        CheckpointStore {
            kind: StoreKind::Slots { slots: [a, b] },
        }
    }

    /// A two-slot store over in-memory devices (tests, benches).
    pub fn mem() -> Self {
        CheckpointStore::slots(Box::new(MemIo::new()), Box::new(MemIo::new()))
    }

    /// A directory store: the live checkpoint is `<dir>/<name>.ckpt`,
    /// installs go through `<dir>/<name>.ckpt.tmp` + rename.
    pub fn dir(dir: impl Into<std::path::PathBuf>, name: impl Into<String>) -> Self {
        CheckpointStore {
            kind: StoreKind::Dir {
                dir: dir.into(),
                name: name.into(),
                gen: 0,
            },
        }
    }

    /// Loads the newest valid checkpoint, or `None` when no usable
    /// snapshot exists (recovery then replays the whole log).
    pub fn load(&mut self) -> Result<Option<Checkpoint>, StorageError> {
        let _span = cdb_obs::SpanGuard::enter("storage.ckpt.load");
        match &mut self.kind {
            StoreKind::Slots { slots } => {
                let mut best: Option<(u64, Checkpoint)> = None;
                for slot in slots.iter_mut() {
                    if let Some((gen, ck)) = read_checkpoint_slot(slot.as_mut())? {
                        if best.as_ref().is_none_or(|(g, _)| gen > *g) {
                            best = Some((gen, ck));
                        }
                    }
                }
                Ok(best.map(|(_, ck)| ck))
            }
            StoreKind::Dir { dir, name, gen } => {
                let path = dir.join(format!("{name}.ckpt"));
                if !path.exists() {
                    return Ok(None);
                }
                let mut io = FileIo::open(&path)?;
                let found = read_checkpoint_slot(&mut io)?;
                *gen = found.as_ref().map_or(*gen, |(g, _)| *g);
                Ok(found.map(|(_, ck)| ck))
            }
        }
    }

    /// Atomically installs `ck` as the live checkpoint. On any crash
    /// inside this call, a subsequent [`CheckpointStore::load`] returns
    /// either the previous checkpoint or the new one — never neither.
    pub fn install(&mut self, ck: &Checkpoint) -> Result<(), StorageError> {
        let _span = cdb_obs::SpanGuard::enter("storage.ckpt.install");
        match &mut self.kind {
            StoreKind::Slots { slots } => {
                let gens = [
                    read_checkpoint_slot(slots[0].as_mut())?.map(|(g, _)| g),
                    read_checkpoint_slot(slots[1].as_mut())?.map(|(g, _)| g),
                ];
                // Overwrite the slot NOT holding the newest valid
                // checkpoint; if both or neither are valid, any order
                // with a higher generation works.
                let target = match (gens[0], gens[1]) {
                    (Some(a), Some(b)) => usize::from(a >= b),
                    (Some(_), None) => 1,
                    _ => 0,
                };
                let gen = gens[0].unwrap_or(0).max(gens[1].unwrap_or(0)) + 1;
                write_checkpoint_slot(slots[target].as_mut(), gen, ck)
            }
            StoreKind::Dir { dir, name, gen } => {
                std::fs::create_dir_all(&dir)
                    .map_err(|e| StorageError::Io(format!("mkdir {}: {e}", dir.display())))?;
                let tmp = dir.join(format!("{name}.ckpt.tmp"));
                let live = dir.join(format!("{name}.ckpt"));
                {
                    let mut io = FileIo::open(&tmp)?;
                    write_checkpoint_slot(&mut io, *gen + 1, ck)?;
                }
                *gen += 1;
                std::fs::rename(&tmp, &live)
                    .map_err(|e| StorageError::Io(format!("rename {}: {e}", tmp.display())))?;
                sync_parent_dir(&live)
                    .map_err(|e| StorageError::Io(format!("sync dir of {}: {e}", live.display())))
            }
        }
    }
}

/// Writes one checkpoint record: magic, then a single [`FRAME_CKPT`]
/// frame whose payload is `gen:u64le` followed by the encoded
/// checkpoint. Not atomic on its own — atomicity comes from the
/// store's two-slot or rename protocol.
pub fn write_checkpoint_slot(
    io: &mut dyn Io,
    gen: u64,
    ck: &Checkpoint,
) -> Result<(), StorageError> {
    let body = encode_checkpoint(ck);
    io.truncate(0)?;
    io.append(CKPT_MAGIC)?;
    io.append(&encode_parts(FRAME_CKPT, &[&gen.to_le_bytes(), &body]))?;
    io.flush()
}

/// Reads a checkpoint record, returning `None` for anything torn,
/// corrupt, absent, or of a retired payload generation: the first bad
/// record makes the whole checkpoint absent, and recovery replays the
/// log instead.
pub fn read_checkpoint_slot(io: &mut dyn Io) -> Result<Option<(u64, Checkpoint)>, StorageError> {
    let mut frames = 0;
    let mut found = None;
    let outcome = scan(io, CKPT_MAGIC, None, |kind, payload, _| {
        frames += 1;
        if let (FRAME_CKPT, Some((gen, body))) = (kind, payload.split_first_chunk::<8>()) {
            found = decode_checkpoint(body)
                .ok()
                .map(|ck| (u64::from_le_bytes(*gen), ck));
        }
        Ok(())
    })?;
    let whole = outcome.header_ok && outcome.frames_dropped == 0 && frames == 1;
    Ok(found.filter(|_| whole))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_curation::ops::CuratedTree;
    use cdb_curation::provstore::StoreMode;

    fn snapshot(label: &str) -> Checkpoint {
        let mut db = CuratedTree::new("ck", StoreMode::Hereditary);
        let root = db.tree.root();
        let mut t = db.begin("c", 1);
        t.insert(root, label, None).unwrap();
        t.commit();
        Checkpoint::basic(db.last_txn_id(), 64, db.tree.clone(), db.prov.clone())
    }

    #[test]
    fn slot_store_load_prefers_the_newest_generation() {
        let mut store = CheckpointStore::mem();
        assert_eq!(store.load().unwrap(), None);
        let ck1 = snapshot("one");
        store.install(&ck1).unwrap();
        assert_eq!(store.load().unwrap(), Some(ck1.clone()));
        let ck2 = snapshot("two");
        store.install(&ck2).unwrap();
        assert_eq!(store.load().unwrap(), Some(ck2.clone()));
        let ck3 = snapshot("three");
        store.install(&ck3).unwrap();
        assert_eq!(store.load().unwrap(), Some(ck3));
    }

    #[test]
    fn dir_store_installs_atomically_via_rename() {
        let dir = std::env::temp_dir().join(format!("cdb-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::dir(&dir, "db");
        assert_eq!(store.load().unwrap(), None);
        let ck = snapshot("one");
        store.install(&ck).unwrap();
        assert_eq!(store.load().unwrap(), Some(ck.clone()));
        assert!(!dir.join("db.ckpt.tmp").exists(), "tmp is renamed away");
        // A fresh store over the same directory sees the install.
        let mut again = CheckpointStore::dir(&dir, "db");
        assert_eq!(again.load().unwrap(), Some(ck));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

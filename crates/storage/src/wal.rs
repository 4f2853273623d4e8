//! The durable log: an append-only sequence of checksummed frames.
//!
//! [`DurableLog::open`] is self-healing: it scans the device, keeps the
//! longest valid frame prefix, and **truncates the torn tail** so the
//! next append lands on a clean boundary. Appends are buffered by the
//! device until [`DurableLog::sync`]; a transaction is *committed* once
//! the sync covering its frame returns.
//!
//! Checkpoints live apart from the log ([`crate::ckpt`]) and are
//! ignored when invalid, because the WAL retains every transaction
//! frame the checkpoint does not cover. The checkpoint is an
//! optimization, the log is the truth.

use crate::frame::{encode_frame, scan, Frame, ScanOutcome, WAL_MAGIC};
use crate::io::Io;
use crate::StorageError;

/// An open write-ahead log over some [`Io`] device.
#[derive(Debug)]
pub struct DurableLog<I: Io> {
    io: I,
}

impl<I: Io> DurableLog<I> {
    /// Initializes a fresh log on `io` (truncating whatever was
    /// there) and syncs the header.
    pub fn create(mut io: I) -> Result<Self, StorageError> {
        io.truncate(0)?;
        io.append(WAL_MAGIC)?;
        io.flush()?;
        Ok(DurableLog { io })
    }

    /// Opens an existing log: scans the valid prefix, truncates any
    /// torn tail, and returns the surviving frames. A device with a
    /// missing or torn header (crash before creation finished, or an
    /// empty file) is re-initialized to an empty log.
    pub fn open(mut io: I) -> Result<(Self, Vec<Frame>, ScanOutcome), StorageError> {
        let mut frames = Vec::new();
        let mut outcome = scan(&mut io, WAL_MAGIC, None, |kind, payload, end| {
            frames.push(Frame {
                kind,
                payload: payload.to_vec(),
                end,
            });
            Ok(())
        })?;
        if !outcome.header_ok {
            io.truncate(0)?;
            io.append(WAL_MAGIC)?;
            io.flush()?;
        } else if outcome.bytes_dropped > 0 {
            io.truncate(outcome.valid_len)?;
            io.flush()?;
        }
        if !outcome.header_ok {
            outcome.valid_len = WAL_MAGIC.len() as u64;
        }
        Ok((DurableLog { io }, frames, outcome))
    }

    /// Appends one frame. Not durable until [`DurableLog::sync`].
    pub fn append(&mut self, kind: u8, payload: &[u8]) -> Result<(), StorageError> {
        if let Err(e) = self.io.append(&encode_frame(kind, payload)) {
            cdb_obs::global()
                .counter("storage.error.append_failed")
                .inc();
            return Err(e);
        }
        Ok(())
    }

    /// Forces all appended frames to durable storage. This is the
    /// commit point.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        if let Err(e) = self.io.flush() {
            cdb_obs::global().counter("storage.error.sync_failed").inc();
            return Err(e);
        }
        Ok(())
    }

    /// Cuts the log back to `len` bytes: how a group-commit leader
    /// takes back a batch whose write failed part-way, so no torn frame
    /// sits in front of the frames written after it.
    pub fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        self.io.truncate(len)
    }

    /// Device length in bytes, as seen by this handle.
    pub fn len(&self) -> Result<u64, StorageError> {
        self.io.len()
    }

    /// Whether the log holds no frames (header only).
    pub fn is_empty(&self) -> Result<bool, StorageError> {
        Ok(self.len()? <= WAL_MAGIC.len() as u64)
    }

    /// Retires log history that a durably installed checkpoint covers:
    /// forwards to the device's [`Io::reclaim`]. Segmented devices
    /// under `Retention::Reclaim` delete fully-covered segments and
    /// advance their logical base; plain devices return `Ok(None)`
    /// (nothing to retire).
    pub fn reclaim(
        &mut self,
        covered: u64,
    ) -> Result<Option<crate::io::ReclaimStats>, StorageError> {
        self.io.reclaim(covered)
    }

    /// Live segments backing this log (1 for unsegmented devices).
    pub fn live_segments(&self) -> u64 {
        self.io.live_segments()
    }

    /// The device's logical base ([`Io::base`]): 0 while it holds its
    /// whole history.
    pub fn base(&self) -> u64 {
        self.io.base()
    }

    /// Consumes the log, returning the device (for crash simulation).
    pub fn into_io(self) -> I {
        self.io
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ckpt::{read_checkpoint_slot, write_checkpoint_slot};
    use crate::frame::FRAME_AUX;
    use crate::io::{FaultPlan, FaultyIo, MemIo};
    use cdb_curation::ops::CuratedTree;
    use cdb_curation::provstore::StoreMode;
    use cdb_curation::wire::Checkpoint;

    #[test]
    fn create_append_sync_reopen() {
        let mut log = DurableLog::create(MemIo::new()).unwrap();
        log.append(FRAME_AUX, b"one").unwrap();
        log.append(FRAME_AUX, b"two").unwrap();
        log.sync().unwrap();
        let io = log.into_io();
        let (_, frames, _) = DurableLog::open(io).unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[1].payload, b"two");
    }

    #[test]
    fn open_truncates_torn_tail_so_appends_land_clean() {
        let mut log = DurableLog::create(FaultyIo::new(FaultPlan::default())).unwrap();
        log.append(FRAME_AUX, b"committed").unwrap();
        log.sync().unwrap();
        log.append(FRAME_AUX, b"lost-in-crash").unwrap(); // never synced
        let image = log.into_io().crash();

        let (mut log, frames, _) = DurableLog::open(MemIo::from_bytes(image)).unwrap();
        assert_eq!(frames.len(), 1);
        log.append(FRAME_AUX, b"after-recovery").unwrap();
        log.sync().unwrap();
        let (_, frames2, out2) = DurableLog::open(log.into_io()).unwrap();
        assert_eq!(frames2.len(), 2);
        assert_eq!(frames2[1].payload, b"after-recovery");
        assert_eq!(out2.frames_dropped, 0);
    }

    #[test]
    fn crash_before_header_reinitializes() {
        let (log, _, out) = DurableLog::open(MemIo::from_bytes(b"CDB".to_vec())).unwrap();
        assert!(!out.header_ok);
        assert!(log.is_empty().unwrap());
        let (_, frames2, out2) = DurableLog::open(log.into_io()).unwrap();
        assert!(out2.header_ok);
        assert_eq!(frames2.len(), 0);
    }

    #[test]
    fn checkpoint_round_trips_and_corruption_reads_as_none() {
        let mut db = CuratedTree::new("ck", StoreMode::Hereditary);
        let root = db.tree.root();
        let mut t = db.begin("c", 1);
        t.insert(root, "entry", None).unwrap();
        t.commit();
        let ck = Checkpoint::basic(db.last_txn_id(), 64, db.tree.clone(), db.prov.clone());
        let mut io = MemIo::new();
        write_checkpoint_slot(&mut io, 1, &ck).unwrap();
        let read = |io: &mut MemIo| read_checkpoint_slot(io).unwrap().map(|(_, ck)| ck);
        assert_eq!(read(&mut io), Some(ck.clone()));

        // Flip any byte: the checkpoint must read as absent, never as
        // a different checkpoint.
        let bytes = io.bytes().to_vec();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            let mut bad = MemIo::from_bytes(corrupt);
            let got = read(&mut bad);
            assert!(got.is_none() || got == Some(ck.clone()), "byte {i}");
        }
    }
}

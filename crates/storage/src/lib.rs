//! # cdb-storage — durability for the curation log
//!
//! §2 of the paper defines a curated database by its *process*: every
//! change arrives through a curation transaction, and the transaction
//! log is what provenance, archiving, and citation are built on. That
//! makes the log the one artifact that must survive a crash — lose it
//! and the database loses not just data but its history of
//! accountability.
//!
//! This crate persists the log as a write-ahead log of length-prefixed,
//! CRC-32-checksummed frames (one per committed transaction, plus
//! publish points and auxiliary records), written through a narrow
//! [`io::Io`] device trait with explicit sync points. The frame is the
//! one record format on disk: checkpoint files and page-heap records
//! are frames too, validated by the same [`frame::scan`]. Periodic
//! [`wire::Checkpoint`] snapshots (tree + provenance store) bound
//! recovery time; recovery is `load(checkpoint) + replay(tail)` on the
//! machinery `cdb-curation::replay` already provides, and is verified
//! against a from-scratch replay before the database is handed back.
//!
//! Long-lived databases get bounded recovery *and* bounded disk from
//! two cooperating pieces: [`segment::SegmentedIo`] splits the log into
//! fixed-size rotating segments behind the same `Io` trait, and
//! [`ckpt::CheckpointStore`] installs checkpoints crash-atomically
//! (temp-file + rename on filesystems, a two-slot generation scheme on
//! raw devices). Under [`segment::Retention::Reclaim`], once a
//! checkpoint durably covers a watermark of the log, fully-covered
//! segments are deleted and recovery scans only the checkpoint plus
//! the live tail segments. Under [`segment::Retention::KeepAll`]
//! (paper semantics: the full curation history remains
//! reconstructible) every segment stays live: the WAL is the one home
//! of the log, and checkpoints carry state, never the log.
//!
//! Crash consistency is tested, not assumed: [`io::FaultyIo`] injects
//! torn writes, partial flushes, short reads, and bit rot at scripted
//! offsets, deterministically — see `tests/fault_classes.rs` and the
//! workspace-level `tests/storage_recovery.rs` proptest.
//!
//! Everything is std-only: no external crates, matching the rest of
//! the workspace.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod ckpt;
pub mod frame;
pub mod group;
pub mod io;
pub mod page;
pub mod paged;
pub mod recovery;
pub mod segment;
pub mod twopc;
pub mod wal;

pub use cdb_curation::wire;

pub use crate::ckpt::CheckpointStore;
pub use crate::frame::{
    Frame, ScanOutcome, FRAME_AUX, FRAME_CKPT, FRAME_COMMIT, FRAME_DECIDE, FRAME_PAGE,
    FRAME_PREPARE, FRAME_PUBLISH,
};
pub use crate::group::GroupWal;
pub use crate::io::{FaultPlan, FaultyIo, FileIo, Io, MemIo, ReclaimStats, ThrottledIo};
pub use crate::page::{PagedState, KIND_NODE, KIND_PROV, PAGE_MAGIC};
pub use crate::recovery::{
    decode_commit, encode_commit, recover, recover_shards, recover_with, PublishRecord, Recovered,
    RecoveryStats,
};
pub use crate::segment::{
    DirBacking, MemBacking, Retention, SegFaultPlan, SegmentBacking, SegmentConfig, SegmentedIo,
    DEFAULT_SEGMENT_BYTES, SEG_HEADER, SEG_MAGIC,
};
pub use crate::twopc::{
    decode_decide, decode_prepare, encode_decide, encode_prepare, scan_decisions, DecideRecord,
    PrepareRecord,
};
pub use crate::wal::DurableLog;

/// Errors from the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An I/O failure (real or injected).
    Io(String),
    /// The device contents are structurally invalid in a way the
    /// scanner cannot repair by truncation (e.g. a frame that passed
    /// its checksum but decodes to garbage, or transaction ids out of
    /// order).
    Corrupt(String),
    /// A frame payload failed to decode.
    Wire(cdb_curation::wire::WireError),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(m) => write!(f, "storage i/o: {m}"),
            StorageError::Corrupt(m) => write!(f, "corrupt store: {m}"),
            StorageError::Wire(e) => write!(f, "bad frame payload: {e}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<cdb_curation::wire::WireError> for StorageError {
    fn from(e: cdb_curation::wire::WireError) -> Self {
        StorageError::Wire(e)
    }
}

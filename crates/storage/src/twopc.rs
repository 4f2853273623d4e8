//! Two-phase-commit journaling for cross-shard curation transactions.
//!
//! A cross-shard operation (merge or split of entities living on
//! different shards, copy-paste across shards with lifecycle effects on
//! both sides) must be atomic even though each shard owns its own WAL.
//! The protocol journals it as two frame kinds in *every* participant's
//! log:
//!
//! ```text
//! prepare := gid:u64 coordinator:u32 nparts:u32 part:u32*
//!            nframes:u32 (kind:u8 len:u32 payload)*
//! decide  := gid:u64 commit:u8
//! ```
//!
//! The PREPARE carries the transaction's complete effect on that shard
//! as ordinary WAL frames (`FRAME_COMMIT`/`FRAME_PUBLISH`/`FRAME_AUX`),
//! **not yet applied**: recovery adopts the inner frames
//! only when a DECIDE(commit) for the same `gid` follows in the log, or
//! when the in-doubt resolution pass (consulting every shard's decision
//! record) finds a commit decision elsewhere. A prepared transaction
//! with no decision anywhere is presumed aborted.
//!
//! Why this is safe (the in-doubt resolution argument, DESIGN.md §S27):
//! the coordinator appends DECIDE(commit) only after every
//! participant's PREPARE is durably synced, and the client is
//! acknowledged only after the coordinator's DECIDE is durable. So if
//! any shard recovers with a committed PREPARE lacking its DECIDE, the
//! global outcome is fully determined by the coordinator's log (plus
//! the decision records its checkpoints carry): a commit decision
//! exists there iff the transaction was allowed to commit anywhere.
//! Presumed abort is sound because no DECIDE(commit) can be durable
//! anywhere while any participant's PREPARE is still torn.

use std::collections::BTreeMap;

use cdb_curation::wire::{put_u32, put_u64, Reader, WireError};

use crate::frame::{scan, FRAME_AUX, FRAME_COMMIT, FRAME_DECIDE, FRAME_PUBLISH};
use crate::io::Io;
use crate::StorageError;

/// A PREPARE frame payload: one cross-shard transaction's effect on
/// the shard whose WAL holds it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrepareRecord {
    /// Global transaction id, unique across the sharded database's
    /// lifetime (recovery re-seeds the counter past every gid it saw,
    /// so a stale decision record can never resolve a *new* txn).
    pub gid: u64,
    /// Shard index of the coordinator — the shard whose DECIDE is the
    /// commit point.
    pub coordinator: u32,
    /// Every participating shard index, coordinator included.
    pub participants: Vec<u32>,
    /// The transaction's effect on this shard as ordinary WAL frames
    /// `(kind, payload)`, adopted in order on commit. 2PC kinds may not
    /// nest.
    pub frames: Vec<(u8, Vec<u8>)>,
}

/// A DECIDE frame payload: the outcome for a prepared transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecideRecord {
    /// The prepared transaction this decides.
    pub gid: u64,
    /// `true` = commit (adopt the PREPARE's frames), `false` = abort.
    pub commit: bool,
}

/// Encodes a [`PrepareRecord`] as a `FRAME_PREPARE` payload.
pub fn encode_prepare(p: &PrepareRecord) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, p.gid);
    put_u32(&mut out, p.coordinator);
    put_u32(&mut out, p.participants.len() as u32);
    for part in &p.participants {
        put_u32(&mut out, *part);
    }
    put_u32(&mut out, p.frames.len() as u32);
    for (kind, payload) in &p.frames {
        out.push(*kind);
        put_u32(&mut out, payload.len() as u32);
        out.extend_from_slice(payload);
    }
    out
}

/// Decodes a `FRAME_PREPARE` payload, rejecting nested 2PC kinds.
pub fn decode_prepare(bytes: &[u8]) -> Result<PrepareRecord, WireError> {
    let mut r = Reader::new(bytes);
    let gid = r.u64()?;
    let coordinator = r.u32()?;
    let nparts = r.u32()? as usize;
    let mut participants = Vec::with_capacity(nparts.min(65_536));
    for _ in 0..nparts {
        participants.push(r.u32()?);
    }
    let nframes = r.u32()? as usize;
    let mut frames = Vec::with_capacity(nframes.min(65_536));
    for _ in 0..nframes {
        let kind = r.u8()?;
        if !matches!(kind, FRAME_COMMIT | FRAME_PUBLISH | FRAME_AUX) {
            return Err(WireError::BadTag("prepare inner frame kind", kind));
        }
        let len = r.u32()? as usize;
        frames.push((kind, r.bytes(len)?.to_vec()));
    }
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(PrepareRecord {
        gid,
        coordinator,
        participants,
        frames,
    })
}

/// Encodes a [`DecideRecord`] as a `FRAME_DECIDE` payload.
pub fn encode_decide(d: &DecideRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(9);
    put_u64(&mut out, d.gid);
    out.push(u8::from(d.commit));
    out
}

/// Decodes a `FRAME_DECIDE` payload.
pub fn decode_decide(bytes: &[u8]) -> Result<DecideRecord, WireError> {
    let mut r = Reader::new(bytes);
    let gid = r.u64()?;
    let commit = match r.u8()? {
        0 => false,
        1 => true,
        other => return Err(WireError::BadTag("decide flag", other)),
    };
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(DecideRecord { gid, commit })
}

/// Pre-pass for sharded recovery: scans one shard's WAL for DECIDE
/// frames only, returning its decision record `gid → commit`. The
/// union of every shard's decisions (plus any carried by checkpoints)
/// resolves in-doubt PREPAREs on the other shards. Torn tails are
/// tolerated exactly as in recovery — the scan stops at the first bad
/// frame, and a torn DECIDE is no DECIDE.
pub fn scan_decisions(io: &mut dyn Io) -> Result<BTreeMap<u64, bool>, StorageError> {
    let mut decisions = BTreeMap::new();
    scan(io, crate::frame::WAL_MAGIC, None, |kind, payload, _| {
        if kind == FRAME_DECIDE {
            let d = decode_decide(payload).map_err(StorageError::Wire)?;
            decisions.insert(d.gid, d.commit);
        }
        Ok(())
    })?;
    Ok(decisions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_frame, FRAME_PREPARE, WAL_MAGIC};
    use crate::io::MemIo;

    fn sample_prepare() -> PrepareRecord {
        PrepareRecord {
            gid: 7,
            coordinator: 1,
            participants: vec![1, 3],
            frames: vec![
                (FRAME_COMMIT, b"txn-bytes".to_vec()),
                (FRAME_AUX, b"event".to_vec()),
            ],
        }
    }

    #[test]
    fn prepare_round_trips() {
        let p = sample_prepare();
        assert_eq!(decode_prepare(&encode_prepare(&p)).unwrap(), p);
        let empty = PrepareRecord {
            gid: 0,
            coordinator: 0,
            participants: vec![0],
            frames: Vec::new(),
        };
        assert_eq!(decode_prepare(&encode_prepare(&empty)).unwrap(), empty);
    }

    #[test]
    fn decide_round_trips_and_rejects_bad_flag() {
        for commit in [false, true] {
            let d = DecideRecord { gid: 9, commit };
            assert_eq!(decode_decide(&encode_decide(&d)).unwrap(), d);
        }
        let mut bytes = encode_decide(&DecideRecord {
            gid: 9,
            commit: true,
        });
        *bytes.last_mut().unwrap() = 2;
        assert!(decode_decide(&bytes).is_err());
    }

    #[test]
    fn nested_twopc_kinds_are_rejected() {
        let mut p = sample_prepare();
        p.frames.push((FRAME_PREPARE, Vec::new()));
        assert!(decode_prepare(&encode_prepare(&p)).is_err());
    }

    #[test]
    fn scan_decisions_reads_only_decides_and_tolerates_torn_tails() {
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&encode_frame(FRAME_COMMIT, b"whatever"));
        bytes.extend_from_slice(&encode_frame(
            FRAME_DECIDE,
            &encode_decide(&DecideRecord {
                gid: 3,
                commit: true,
            }),
        ));
        let clean_len = bytes.len();
        bytes.extend_from_slice(&encode_frame(
            FRAME_DECIDE,
            &encode_decide(&DecideRecord {
                gid: 4,
                commit: false,
            }),
        ));
        for cut in clean_len..bytes.len() {
            let mut io = MemIo::from_bytes(bytes[..cut].to_vec());
            let d = scan_decisions(&mut io).unwrap();
            assert_eq!(d.len(), 1, "cut {cut}");
            assert_eq!(d.get(&3), Some(&true));
        }
        let mut io = MemIo::from_bytes(bytes);
        let d = scan_decisions(&mut io).unwrap();
        assert_eq!(d.get(&4), Some(&false));
    }
}

//! Crash recovery: `load(checkpoint) + replay(tail)`.
//!
//! [`recover`] turns a possibly-torn WAL device (plus an optional
//! checkpoint) back into a live [`CuratedTree`]:
//!
//! 1. [`DurableLog::open`] scans the device, keeps the longest valid
//!    frame prefix, and truncates the torn tail — CRC-32 decides what
//!    "valid" means, so bit rot anywhere in a frame voids it.
//! 2. Transaction frames are decoded; publish and aux frames are
//!    collected for the caller (`cdb-core` rebuilds publish points,
//!    lifecycle events, and notes from them).
//! 3. A checkpoint anchors recovery only when it cuts the log (it
//!    carries an archive: the truncated form) and its coverage
//!    watermark lies in the surviving log. The frames below the
//!    watermark are skipped — the last transaction they carry must be
//!    the checkpoint's last, or the log is corrupt — and only the tail
//!    is applied onto the checkpoint's state via [`apply_committed`].
//!    Otherwise — no checkpoint, one that carries no archive, a
//!    corrupt one, or one *ahead* of a torn log — the log is
//!    authoritative and the whole of it is replayed from empty.
//! 4. That one pass ([`apply_committed_at`]) checks every node id the
//!    log names against the id the replay allocates, and keeps a
//!    chunk-sharing clone of the tree at each publish point of the
//!    tail: `cdb-core` merges the archive from those trees and replays
//!    nothing.
//!
//! The returned [`RecoveryStats`] mirror `cdb-relalg`'s `ExecStats`
//! in spirit: they make recovery observable (frames scanned, dropped
//! and skipped, txns replayed, elapsed time) without changing behavior.
//!
//! [`apply_committed`]: cdb_curation::replay::apply_committed

use std::collections::BTreeMap;

use cdb_curation::ops::{CuratedTree, Transaction, TxnId};
use cdb_curation::provstore::{ProvStore, StoreMode};
use cdb_curation::replay::apply_committed_at;
use cdb_curation::tree::TreeDb;
use cdb_curation::wire::{
    decode_transaction, put_opt_u64, put_str, put_u64, Checkpoint, Reader, WireError,
};

use crate::frame::{
    Frame, ScanOutcome, FRAME_AUX, FRAME_COMMIT, FRAME_DECIDE, FRAME_PREPARE, FRAME_PUBLISH,
};
use crate::io::Io;
use crate::twopc::{decode_decide, decode_prepare, encode_decide, DecideRecord, PrepareRecord};
use crate::wal::DurableLog;
use crate::StorageError;

/// A persisted publish point: the database was published at `time`
/// under `label`, with the log at `txn` (None = published empty).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishRecord {
    /// Last transaction included in the published version.
    pub txn: Option<TxnId>,
    /// Publication timestamp.
    pub time: u64,
    /// Version label.
    pub label: String,
}

/// Encodes a publish record as a [`FRAME_PUBLISH`] payload.
pub fn encode_publish(p: &PublishRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + p.label.len());
    put_opt_u64(&mut out, p.txn.map(|t| t.0));
    put_u64(&mut out, p.time);
    put_str(&mut out, &p.label);
    out
}

/// Decodes a [`FRAME_PUBLISH`] payload.
pub fn decode_publish(bytes: &[u8]) -> Result<PublishRecord, WireError> {
    let mut r = Reader::new(bytes);
    let txn = r.opt_u64()?.map(TxnId);
    let time = r.u64()?;
    let label = r.str()?;
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(PublishRecord { txn, time, label })
}

/// Encodes an atomic commit frame payload: the transaction plus the
/// auxiliary records (e.g. lifecycle events) it produced. Bundling
/// them in one frame makes the logical operation atomic under torn
/// writes — either the transaction *and* its side effects survive, or
/// none of them do.
pub fn encode_commit(txn: &Transaction, aux: &[Vec<u8>]) -> Vec<u8> {
    let txn_bytes = cdb_curation::wire::encode_transaction(txn);
    let mut out = Vec::with_capacity(8 + txn_bytes.len());
    out.extend_from_slice(&(txn_bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&txn_bytes);
    out.extend_from_slice(&(aux.len() as u32).to_le_bytes());
    for a in aux {
        out.extend_from_slice(&(a.len() as u32).to_le_bytes());
        out.extend_from_slice(a);
    }
    out
}

/// Decodes a [`FRAME_COMMIT`] payload.
pub fn decode_commit(bytes: &[u8]) -> Result<(Transaction, Vec<Vec<u8>>), WireError> {
    let mut r = Reader::new(bytes);
    let txn_len = r.u32()? as usize;
    let txn = decode_transaction(r.bytes(txn_len)?)?;
    let n = r.u32()? as usize;
    let mut aux = Vec::with_capacity(n.min(65_536));
    for _ in 0..n {
        let len = r.u32()? as usize;
        aux.push(r.bytes(len)?.to_vec());
    }
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok((txn, aux))
}

/// Observability counters for one recovery, in the spirit of
/// `ExecStats`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Valid frames found in the log.
    pub frames_scanned: u64,
    /// Torn or corrupt frames dropped (at most 1 — scanning stops at
    /// the first bad frame, since frame boundaries after it are
    /// unknowable).
    pub frames_dropped: u64,
    /// Bytes truncated off the torn tail.
    pub bytes_dropped: u64,
    /// Whether a checkpoint snapshot was used (vs full replay).
    pub used_checkpoint: bool,
    /// Transactions re-applied from the log tail.
    pub txns_replayed: u64,
    /// Valid frames skipped without decoding because a checkpoint in
    /// truncated form cut the log at its coverage watermark.
    pub frames_skipped: u64,
    /// Log payload bytes the recovery scan actually read. With a
    /// segmented log and checkpoint-anchored truncation this is bounded
    /// by the live (unretired) segments, not total history.
    pub bytes_scanned: u64,
    /// Live log segments at recovery time (1 for unsegmented devices).
    pub live_segments: u64,
    /// Wall-clock microseconds spent decoding + replaying.
    pub replay_micros: u128,
}

impl RecoveryStats {
    /// Publishes these counters into `metrics` under the
    /// `storage.recovery.*` names — `cdb-core` calls this with the
    /// database registry after a durable open, so recovery history
    /// shows up in `metrics_snapshot` alongside the live counters.
    pub fn record_to(&self, metrics: &cdb_obs::Metrics) {
        let add = |name: &str, n: u64| metrics.counter(name).add(n);
        add("storage.recovery.count", 1);
        add("storage.recovery.frames_scanned", self.frames_scanned);
        add("storage.recovery.frames_dropped", self.frames_dropped);
        add("storage.recovery.bytes_dropped", self.bytes_dropped);
        add("storage.recovery.txns_replayed", self.txns_replayed);
        add("storage.recovery.frames_skipped", self.frames_skipped);
        add("storage.recovery.bytes_scanned", self.bytes_scanned);
        add("storage.recovery.live_segments", self.live_segments);
        if self.used_checkpoint {
            add("storage.recovery.checkpoint_used", 1);
        }
        metrics
            .histogram("storage.recovery.replay_ns")
            .record((self.replay_micros as u64).saturating_mul(1_000));
    }
}

/// Everything recovery reconstructs from one WAL device.
#[derive(Debug)]
pub struct Recovered {
    /// The recovered database: tree, provenance, and transaction log.
    pub db: CuratedTree,
    /// Publish points, in log order.
    pub publishes: Vec<PublishRecord>,
    /// The tree at each publish point of the tail — the last
    /// `point_trees.len()` of [`Recovered::publishes`], all of them
    /// when the log is whole: a chunk-sharing clone of the recovered
    /// tree after every transaction up to the point's `txn`, or of the
    /// base tree when there is none.
    pub point_trees: Vec<TreeDb>,
    /// Auxiliary frame payloads, in log order (opaque here; `cdb-core`
    /// decodes lifecycle events and notes out of them).
    pub aux: Vec<Vec<u8>>,
    /// Where the log was cut, when a checkpoint in truncated form
    /// anchored this recovery; `None` when `db.log` is the whole
    /// history.
    pub cut: Option<Cut>,
    /// What recovery saw and did.
    pub stats: RecoveryStats,
    /// Every 2PC decision this log knows: DECIDE frames found in the
    /// scanned region plus decisions resolved during this recovery.
    pub decisions: BTreeMap<u64, bool>,
    /// In-doubt PREPAREs this recovery resolved (gid, committed) —
    /// either from a decision found in the caller-supplied context
    /// (another shard's log or a checkpoint's decision record) or by
    /// presumed abort. A matching DECIDE frame has already been
    /// appended and synced so future recoveries self-resolve.
    pub resolved: Vec<(u64, bool)>,
    /// Largest 2PC gid seen anywhere in this log (0 when none). The
    /// sharded layer re-seeds its gid counter past the max across all
    /// shards so decision records can never alias a new transaction.
    pub max_gid: u64,
}

/// A log cut by the checkpoint in truncated form that anchored a
/// recovery: the transactions it covers are not in
/// [`Recovered::db`]'s log, which holds only the tail, with
/// [`CuratedTree::base_txn_id`] marking the cut.
#[derive(Debug)]
pub struct Cut {
    /// The encoded archive the checkpoint carried: the versions
    /// published at its publish points, whose log prefix is gone.
    /// Opaque here; `cdb-core` decodes it.
    pub archive: Vec<u8>,
    /// How many of [`Recovered::publishes`] the checkpoint carried; the
    /// rest were published in the replayed tail.
    pub publishes: usize,
    /// The checkpoint's clock ([`Checkpoint::last_time`]): keeps publish
    /// times monotone though the covered transactions are gone.
    pub time: u64,
}

/// What one decode pass over a log yields, in log order.
#[derive(Debug, Default)]
struct Decoded {
    /// The transaction before the first one decoded, when that history
    /// is not in `txns` (a cut log): seeds the ordering check.
    floor: Option<TxnId>,
    txns: Vec<Transaction>,
    publishes: Vec<PublishRecord>,
    aux: Vec<Vec<u8>>,
}

impl Decoded {
    /// Decodes one plain (non-2PC) frame. 2PC and unknown kinds are an
    /// error — callers handle 2PC first.
    fn plain(&mut self, kind: u8, payload: Vec<u8>) -> Result<(), StorageError> {
        match kind {
            FRAME_COMMIT => {
                let (txn, mut extra) = decode_commit(&payload).map_err(StorageError::Wire)?;
                if let Some(prev) = self.txns.last().map(|t| t.id).or(self.floor) {
                    if txn.id <= prev {
                        return Err(StorageError::Corrupt(format!(
                            "transaction ids out of order: {:?} after {prev:?}",
                            txn.id
                        )));
                    }
                }
                self.txns.push(txn);
                self.aux.append(&mut extra);
            }
            FRAME_PUBLISH => {
                let p = decode_publish(&payload).map_err(StorageError::Wire)?;
                self.publishes.push(p);
            }
            FRAME_AUX => self.aux.push(payload),
            other => {
                return Err(StorageError::Corrupt(format!(
                    "unknown frame kind {other} in WAL"
                )))
            }
        }
        Ok(())
    }
}

/// Mutable 2PC bookkeeping threaded through one log's decode pass.
struct TwoPcPass<'a> {
    /// Decisions known from *outside* this log (other shards' DECIDEs,
    /// checkpoint-carried decision records). Consulted only for a
    /// PREPARE still pending at log end.
    ctx: &'a BTreeMap<u64, bool>,
    /// A PREPARE whose decision window is still open, and the latest
    /// DECIDE seen for it (if any). At most one can be pending: the
    /// shard's write lock is held from PREPARE through DECIDE, so
    /// nothing interleaves. The decision is not acted on until the
    /// window closes (a frame for something else, or log end): a failed
    /// commit-point sync leaves DECIDE(commit) in the write cache and
    /// the abort path appends DECIDE(abort) behind it — both become
    /// durable together, and the last one is the outcome.
    pending: Option<(PrepareRecord, Option<bool>)>,
    decisions: BTreeMap<u64, bool>,
    resolved: Vec<(u64, bool)>,
    max_gid: u64,
}

impl<'a> TwoPcPass<'a> {
    fn new(ctx: &'a BTreeMap<u64, bool>) -> Self {
        TwoPcPass {
            ctx,
            pending: None,
            decisions: BTreeMap::new(),
            resolved: Vec::new(),
            max_gid: 0,
        }
    }

    /// Adopts a committed PREPARE's inner frames through the ordinary
    /// decode path (ordering checks included).
    fn adopt(prepare: PrepareRecord, out: &mut Decoded) -> Result<(), StorageError> {
        for (kind, payload) in prepare.frames {
            out.plain(kind, payload)?;
        }
        Ok(())
    }

    /// Closes a decided PREPARE's decision window: adopts its frames
    /// when the last DECIDE said commit, drops them on abort. A still
    /// undecided PREPARE stays pending (for tail resolution).
    fn settle_decided(&mut self, out: &mut Decoded) -> Result<(), StorageError> {
        if matches!(self.pending, Some((_, Some(_)))) {
            let (p, decision) = self.pending.take().expect("checked above");
            if decision == Some(true) {
                TwoPcPass::adopt(p, out)?;
            }
        }
        Ok(())
    }
}

/// Decodes a run of valid frames into `out`, in log order. PREPARE
/// frames are held back until their DECIDE; a PREPARE still pending
/// when the run ends is resolved by `twopc.ctx` (commit decision found
/// elsewhere) or presumed abort.
fn decode_frames(
    frames: impl Iterator<Item = Frame>,
    out: &mut Decoded,
    twopc: &mut TwoPcPass<'_>,
) -> Result<(), StorageError> {
    for frame in frames {
        match frame.kind {
            FRAME_PREPARE => {
                twopc.settle_decided(out)?;
                let p = decode_prepare(&frame.payload).map_err(StorageError::Wire)?;
                if let Some((prev, _)) = &twopc.pending {
                    return Err(StorageError::Corrupt(format!(
                        "prepare gid {} while gid {} is still undecided",
                        p.gid, prev.gid
                    )));
                }
                twopc.max_gid = twopc.max_gid.max(p.gid);
                twopc.pending = Some((p, None));
            }
            FRAME_DECIDE => {
                let d = decode_decide(&frame.payload).map_err(StorageError::Wire)?;
                twopc.max_gid = twopc.max_gid.max(d.gid);
                twopc.decisions.insert(d.gid, d.commit);
                if twopc.pending.as_ref().is_some_and(|(p, ..)| p.gid == d.gid) {
                    // Record but don't act: a later DECIDE for the same
                    // gid (commit-point sync failure followed by the
                    // abort path) overrides this one. The window closes
                    // at the next foreign frame or at log end.
                    twopc.pending.as_mut().expect("checked above").1 = Some(d.commit);
                } else {
                    twopc.settle_decided(out)?;
                }
                // A DECIDE with no matching pending PREPARE is a
                // decision record for a txn resolved earlier (or one
                // this shard never prepared); keep it, apply nothing.
            }
            _ => {
                twopc.settle_decided(out)?;
                out.plain(frame.kind, frame.payload)?;
            }
        }
    }
    twopc.settle_decided(out)?;
    // In-doubt resolution: a PREPARE at the tail with no DECIDE. Commit
    // iff some decision record anywhere says commit; otherwise presumed
    // abort — sound because the coordinator's DECIDE(commit) is only
    // ever written after every participant's PREPARE is durable, and
    // acks wait for that DECIDE to be durable.
    if let Some((p, _)) = twopc.pending.take() {
        let gid = p.gid;
        let commit = twopc
            .decisions
            .get(&gid)
            .or_else(|| twopc.ctx.get(&gid))
            .copied()
            .unwrap_or(false);
        if commit {
            TwoPcPass::adopt(p, out)?;
        }
        twopc.decisions.insert(gid, commit);
        twopc.resolved.push((gid, commit));
    }
    Ok(())
}

/// The last transaction `frames` carry: a commit's, or the last commit
/// sealed in a PREPARE whose last DECIDE among them says commit. `None`
/// when they carry none. Reads backwards, decoding only the frames it
/// passes.
fn last_txn_in(frames: &[Frame]) -> Result<Option<TxnId>, StorageError> {
    let txn_of = |payload: &[u8]| {
        let (txn, _) = decode_commit(payload).map_err(StorageError::Wire)?;
        Ok(Some(txn.id))
    };
    let mut decided = BTreeMap::new();
    for frame in frames.iter().rev() {
        match frame.kind {
            FRAME_COMMIT => return txn_of(&frame.payload),
            FRAME_DECIDE => {
                let d = decode_decide(&frame.payload).map_err(StorageError::Wire)?;
                decided.entry(d.gid).or_insert(d.commit);
            }
            FRAME_PREPARE => {
                let p = decode_prepare(&frame.payload).map_err(StorageError::Wire)?;
                if decided.get(&p.gid) == Some(&true) {
                    let mut sealed = p.frames.iter().rev();
                    if let Some((_, payload)) = sealed.find(|(kind, _)| *kind == FRAME_COMMIT) {
                        return txn_of(payload);
                    }
                }
            }
            _ => {}
        }
    }
    Ok(None)
}

/// Recovers a curated database from a WAL device, anchored at
/// `checkpoint` when its watermark allows. `name` and `mode` seed the
/// empty database when no checkpoint anchors. The returned log handle
/// is positioned after the last valid frame, torn tail already
/// truncated.
///
/// One anchor rule: a checkpoint anchors only when it is in truncated
/// form — it carries an archive ([`Checkpoint::is_truncated`]) — and its
/// watermark ([`Checkpoint::covered_len`]) lies in the surviving log,
/// `base ≤ covered_len ≤ valid_len` (with `base` the device's logical
/// base, [`Io::base`]). The log is then cut after the watermark:
/// frames at or below it are skipped without decoding, the
/// checkpoint's state is the base the tail replays onto, publish points
/// and aux records come from the checkpoint's complete sets plus the
/// frames above the watermark, and [`Recovered::cut`] says so.
///
/// Otherwise a device holding its whole history (`base == 0`) replays
/// from empty — the log is authoritative, so a checkpoint ahead of a
/// torn log is discarded, and one that carries no archive (a full-form
/// checkpoint, which older versions wrote beside a whole log) reads as
/// absent. A device with a retired prefix is then corrupt: a retired
/// prefix nothing covers is not data loss to be papered over.
pub fn recover<I: Io>(
    name: &str,
    mode: StoreMode,
    io: I,
    checkpoint: Option<Checkpoint>,
) -> Result<(DurableLog<I>, Recovered), StorageError> {
    recover_with(name, mode, io, checkpoint, &BTreeMap::new())
}

/// [`recover`], with a decision-record context for resolving in-doubt
/// 2PC transactions: `ctx` maps gid → commit for decisions found
/// *outside* this log (the other shards' DECIDE frames via
/// [`crate::twopc::scan_decisions`], plus decision records carried by
/// checkpoints). A PREPARE left undecided at the tail commits iff a
/// commit decision exists somewhere; otherwise it is presumed aborted.
/// Either way a DECIDE frame is appended and synced before returning,
/// so the log self-resolves on any future recovery.
pub fn recover_with<I: Io>(
    name: &str,
    mode: StoreMode,
    io: I,
    checkpoint: Option<Checkpoint>,
    ctx: &BTreeMap<u64, bool>,
) -> Result<(DurableLog<I>, Recovered), StorageError> {
    let res = recover_with_inner(name, mode, io, checkpoint, ctx);
    if let Err(StorageError::Corrupt(_)) = &res {
        // The black-box moment: a store we cannot recover. Freeze the
        // recent spans and metrics before the caller gives up — the
        // evidence of *how* the store got here lives in this process.
        let _ = cdb_obs::flight::snap("storage.recovery.corrupt");
    }
    res
}

fn recover_with_inner<I: Io>(
    name: &str,
    mode: StoreMode,
    io: I,
    checkpoint: Option<Checkpoint>,
    ctx: &BTreeMap<u64, bool>,
) -> Result<(DurableLog<I>, Recovered), StorageError> {
    let span = cdb_obs::SpanGuard::enter("storage.recovery.replay");
    let mut twopc = TwoPcPass::new(ctx);
    let (log, frames, outcome) = DurableLog::open(io)?;
    let ScanOutcome {
        base,
        valid_len,
        frames_dropped,
        bytes_dropped,
        ..
    } = outcome;

    let scan_start = if base == 0 {
        crate::frame::WAL_MAGIC.len() as u64
    } else {
        base
    };
    let mut stats = RecoveryStats {
        frames_scanned: frames.len() as u64,
        frames_dropped,
        bytes_dropped,
        bytes_scanned: valid_len.saturating_sub(scan_start),
        live_segments: log.live_segments(),
        ..RecoveryStats::default()
    };

    // The anchor rule; without an anchor, recovery starts from the
    // empty database at watermark 0, which skips no frame.
    let anchor =
        checkpoint.filter(|ck| ck.is_truncated() && (base..=valid_len).contains(&ck.covered_len));
    if base > 0 && anchor.is_none() {
        return Err(StorageError::Corrupt(format!(
            "bytes below {base} are retired, but no checkpoint in truncated form covers them"
        )));
    }
    stats.used_checkpoint = anchor.is_some();
    let Checkpoint {
        last_txn,
        tree,
        prov,
        covered_len,
        last_time,
        publishes: ck_pubs,
        aux,
        archive,
        paged: _,
    } = anchor
        .unwrap_or_else(|| Checkpoint::basic(None, 0, TreeDb::new(name), ProvStore::new(mode)));

    let skip = frames.iter().take_while(|f| f.end <= covered_len).count();
    stats.frames_skipped = skip as u64;
    // The skipped frames must end where the snapshot does: a watermark
    // ahead of it would drop the transactions between the two, one
    // behind it would repeat them. (A retired prefix may hold the
    // snapshot's last transaction when the live frames below the
    // watermark carry none.)
    let skipped_last = last_txn_in(&frames[..skip])?;
    if skipped_last != last_txn && (skipped_last.is_some() || base == 0) {
        return Err(StorageError::Corrupt(format!(
            "the checkpoint's snapshot ends at {last_txn:?}, but the log it covers ends at \
             {skipped_last:?}"
        )));
    }
    let mut out = Decoded {
        floor: last_txn,
        publishes: ck_pubs
            .iter()
            .map(|b| decode_publish(b).map_err(StorageError::Wire))
            .collect::<Result<_, _>>()?,
        aux,
        ..Decoded::default()
    };
    let carried = out.publishes.len();
    decode_frames(frames.into_iter().skip(skip), &mut out, &mut twopc)?;

    stats.txns_replayed = out.txns.len() as u64;
    let mut db = CuratedTree::from_parts_at(tree, Vec::new(), prov, last_txn);
    let points = out.publishes[carried..].iter().map(|p| p.txn);
    let point_trees = apply_committed_at(&mut db, &out.txns, points)
        .map_err(|e| StorageError::Corrupt(format!("log replay: {e}")))?;

    stats.replay_micros = span.elapsed().as_micros();
    if stats.frames_dropped > 0 {
        // Failure observability: a torn tail is a (survived) fault and
        // counts as one, distinct from sync/append failures.
        cdb_obs::global()
            .counter("storage.error.torn_tail")
            .add(stats.frames_dropped);
    }

    // Self-heal: persist the outcome of every in-doubt resolution so
    // future recoveries of this log resolve identically without any
    // context — the decision is now in the log itself.
    let mut log = log;
    if !twopc.resolved.is_empty() {
        for &(gid, commit) in &twopc.resolved {
            log.append(FRAME_DECIDE, &encode_decide(&DecideRecord { gid, commit }))?;
        }
        log.sync()?;
    }

    Ok((
        log,
        Recovered {
            db,
            publishes: out.publishes,
            point_trees,
            aux: out.aux,
            cut: stats.used_checkpoint.then_some(Cut {
                archive,
                publishes: carried,
                time: last_time,
            }),
            stats,
            decisions: twopc.decisions,
            resolved: twopc.resolved,
            max_gid: twopc.max_gid,
        },
    ))
}

/// Recovers N shard logs in parallel (`std::thread::scope`), resolving
/// cross-shard in-doubt transactions against the union of every
/// shard's decision record. Two phases:
///
/// 1. every shard's live log is scanned for DECIDE frames (in
///    parallel), and the results are merged with `extra` (decision
///    records carried by the shards' checkpoints, which survive log
///    truncation);
/// 2. every shard runs [`recover_with`] under that shared context, one
///    OS thread per shard.
///
/// The result vector preserves shard order. Per-shard outcomes are
/// deterministic — the context is fixed before phase 2 starts — so
/// parallel recovery is byte-identical to recovering the shards
/// sequentially (proven by the equivalence proptest in
/// `tests/storage_recovery.rs`).
pub fn recover_shards<I: Io + Send>(
    name: &str,
    mode: StoreMode,
    shards: Vec<(I, Option<Checkpoint>)>,
    extra: &BTreeMap<u64, bool>,
) -> Result<Vec<(DurableLog<I>, Recovered)>, StorageError> {
    let mut shards = shards;
    let mut ctx = extra.clone();
    let scanned = std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .iter_mut()
            .map(|(io, _)| s.spawn(|| crate::twopc::scan_decisions(io)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("decision scan panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    for m in scanned {
        ctx.extend(m);
    }
    std::thread::scope(|s| {
        let ctx = &ctx;
        let handles: Vec<_> = shards
            .into_iter()
            .map(|(io, ck)| s.spawn(move || recover_with(name, mode, io, ck, ctx)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard recovery panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ckpt::CheckpointStore;
    use crate::io::{FaultPlan, FaultyIo, MemIo};
    use cdb_curation::replay::apply_committed;
    use cdb_model::Atom;

    /// Builds a reference database, a WAL image holding its log, and
    /// the end offset of each frame.
    fn seeded() -> (CuratedTree, Vec<u8>, Vec<u64>) {
        let mut db = CuratedTree::new("r", StoreMode::Hereditary);
        let root = db.tree.root();
        let mut t = db.begin("ann", 10);
        let e = t.insert(root, "entry", None).unwrap();
        let n = t.insert(e, "name", Some(Atom::Str("a".into()))).unwrap();
        t.commit();
        let mut t = db.begin("bob", 11);
        t.modify(n, Some(Atom::Str("b".into()))).unwrap();
        t.commit();
        let mut t = db.begin("cyd", 12);
        let x = t.insert(root, "scratch", None).unwrap();
        t.delete(x).unwrap();
        t.commit();

        let mut log = DurableLog::create(MemIo::new()).unwrap();
        let mut ends = Vec::new();
        for txn in db.transactions() {
            log.append(FRAME_COMMIT, &encode_commit(txn, &[])).unwrap();
            ends.push(log.len().unwrap());
        }
        log.sync().unwrap();
        let image = log.into_io().bytes().to_vec();
        (db, image, ends)
    }

    #[test]
    fn full_replay_recovers_the_exact_database() {
        let (db, image, _) = seeded();
        let (_, rec) = recover("r", StoreMode::Hereditary, MemIo::from_bytes(image), None).unwrap();
        assert_eq!(rec.db, db);
        assert!(!rec.stats.used_checkpoint);
        assert_eq!(rec.stats.txns_replayed, 3);
        assert_eq!(rec.stats.frames_scanned, 3);
    }

    /// A snapshot of `db` after its first `n` transactions, with the
    /// watermark `covered`, in truncated form: it carries an archive
    /// (opaque at this layer).
    fn checkpoint_after(db: &CuratedTree, n: usize, covered: u64) -> Checkpoint {
        let mut prefix = CuratedTree::new("r", StoreMode::Hereditary);
        for t in db.log().iter().take(n) {
            apply_committed(&mut prefix, t).unwrap();
        }
        let mut ck = Checkpoint::basic(prefix.last_txn_id(), covered, prefix.tree, prefix.prov);
        ck.archive = b"archive".to_vec();
        ck
    }

    #[test]
    fn checkpoint_plus_tail_equals_full_replay() {
        let (db, image, ends) = seeded();
        let ck = checkpoint_after(&db, 2, ends[1]);
        let mut store = CheckpointStore::mem();
        store.install(&ck).unwrap();
        let ck = store.load().unwrap();

        let (_, rec) = recover("r", StoreMode::Hereditary, MemIo::from_bytes(image), ck).unwrap();
        assert_eq!((&rec.db.tree, &rec.db.prov), (&db.tree, &db.prov));
        assert_eq!(rec.db.transactions()[..], db.transactions()[2..]);
        assert_eq!(rec.db.base_txn_id(), Some(db.log()[1].id));
        assert_eq!(rec.cut.unwrap().archive, b"archive");
        assert!(rec.stats.used_checkpoint);
        assert_eq!(rec.stats.frames_skipped, 2);
        assert_eq!(rec.stats.txns_replayed, 1);
    }

    /// Recovery keeps the tree at each publish point of the tail: every
    /// point of a whole log, only those above the watermark of a cut one.
    #[test]
    fn recovery_keeps_the_tree_at_each_publish_point_of_the_tail() {
        let (db, ..) = seeded();
        let publish = |txn: Option<TxnId>| {
            let label = String::new();
            encode_publish(&PublishRecord {
                txn,
                time: 0,
                label,
            })
        };
        let mut log = DurableLog::create(MemIo::new()).unwrap();
        log.append(FRAME_PUBLISH, &publish(None)).unwrap();
        let mut ends = Vec::new();
        for txn in db.log().iter() {
            log.append(FRAME_COMMIT, &encode_commit(txn, &[])).unwrap();
            log.append(FRAME_PUBLISH, &publish(Some(txn.id))).unwrap();
            ends.push(log.len().unwrap());
        }
        log.sync().unwrap();
        let image = log.into_io().bytes().to_vec();
        let after = |n: usize| checkpoint_after(&db, n, 0).tree;

        let whole = MemIo::from_bytes(image.clone());
        let (_, rec) = recover("r", StoreMode::Hereditary, whole, None).unwrap();
        let trees: Vec<TreeDb> = (0..=3).map(after).collect();
        assert_eq!(rec.point_trees, trees);

        let mut ck = checkpoint_after(&db, 2, ends[1]);
        ck.publishes = [None, Some(db.log()[0].id), Some(db.log()[1].id)]
            .map(publish)
            .to_vec();
        let (_, rec) = recover(
            "r",
            StoreMode::Hereditary,
            MemIo::from_bytes(image),
            Some(ck),
        )
        .unwrap();
        assert_eq!(rec.publishes.len(), 4);
        assert_eq!(rec.point_trees, [after(3)]);
    }

    #[test]
    fn checkpoint_ahead_of_torn_log_is_discarded() {
        let (db, image, ends) = seeded();
        // Checkpoint covers all 3 txns, but the log is torn after 1.
        let ck = checkpoint_after(&db, 3, ends[2]);
        let torn = image[..ends[0] as usize + 4].to_vec();
        let (_, rec) = recover(
            "r",
            StoreMode::Hereditary,
            MemIo::from_bytes(torn),
            Some(ck),
        )
        .unwrap();
        // The log is authoritative: one committed txn, replayed fresh.
        assert!(!rec.stats.used_checkpoint);
        assert_eq!(rec.db.log().len(), 1);
        assert_eq!(rec.db.log()[0], db.log()[0]);
        assert_eq!(rec.stats.frames_dropped, 1);
    }

    /// A checkpoint whose watermark lies behind its `last_txn` leaves
    /// a tail that repeats transactions the snapshot already holds; one
    /// whose watermark lies ahead (the snapshot holds ann's insert, the
    /// watermark covers bob's edit too) would drop the transactions in
    /// between. Both are refused.
    #[test]
    fn a_watermark_that_disagrees_with_the_snapshot_is_corrupt() {
        let (db, image, ends) = seeded();
        for (n, covered) in [(2, ends[0]), (3, ends[1]), (1, ends[1])] {
            let ck = checkpoint_after(&db, n, covered);
            let image = MemIo::from_bytes(image.clone());
            let err = recover("r", StoreMode::Hereditary, image, Some(ck)).unwrap_err();
            assert!(matches!(err, StorageError::Corrupt(_)), "{n}: {err}");
        }
    }

    /// The watermark check reads a transaction sealed in a PREPARE as
    /// the skipped frames' last only when its last DECIDE commits.
    #[test]
    fn a_watermark_after_a_prepare_ends_at_its_decided_transaction() {
        let (db, ..) = seeded();
        for commit in [true, false] {
            let mut log = DurableLog::create(MemIo::new()).unwrap();
            log.append(FRAME_COMMIT, &encode_commit(&db.log()[0], &[]))
                .unwrap();
            let prepare = crate::twopc::PrepareRecord {
                gid: 7,
                coordinator: 0,
                participants: vec![0, 1],
                frames: vec![(FRAME_COMMIT, encode_commit(&db.log()[1], &[]))],
            };
            log.append(FRAME_PREPARE, &crate::twopc::encode_prepare(&prepare))
                .unwrap();
            log.append(
                FRAME_DECIDE,
                &encode_decide(&DecideRecord { gid: 7, commit }),
            )
            .unwrap();
            let covered = log.len().unwrap();
            log.sync().unwrap();
            let image = log.into_io().bytes().to_vec();
            let holds = if commit { 2 } else { 1 };
            for n in [1, 2] {
                let ck = checkpoint_after(&db, n, covered);
                let io = MemIo::from_bytes(image.clone());
                let res = recover("r", StoreMode::Hereditary, io, Some(ck));
                assert_eq!(res.is_ok(), n == holds, "commit {commit}, snapshot of {n}");
            }
        }
    }

    #[test]
    fn crash_image_recovers_committed_prefix_exactly() {
        let (db, ..) = seeded();
        let mut log = DurableLog::create(FaultyIo::new(FaultPlan::default())).unwrap();
        log.append(FRAME_COMMIT, &encode_commit(&db.log()[0], &[]))
            .unwrap();
        log.append(FRAME_COMMIT, &encode_commit(&db.log()[1], &[]))
            .unwrap();
        log.sync().unwrap();
        log.append(FRAME_COMMIT, &encode_commit(&db.log()[2], &[]))
            .unwrap();
        // Crash before the covering sync: txn 2 is uncommitted.
        let image = log.into_io().crash();

        let (_, rec) = recover("r", StoreMode::Hereditary, MemIo::from_bytes(image), None).unwrap();
        let mut reference = CuratedTree::new("r", StoreMode::Hereditary);
        for t in db.log().iter().take(2) {
            apply_committed(&mut reference, t).unwrap();
        }
        assert_eq!(rec.db, reference);
    }

    #[test]
    fn out_of_order_transaction_ids_are_rejected() {
        let (db, ..) = seeded();
        let mut log = DurableLog::create(MemIo::new()).unwrap();
        log.append(FRAME_COMMIT, &encode_commit(&db.log()[1], &[]))
            .unwrap();
        log.append(FRAME_COMMIT, &encode_commit(&db.log()[0], &[]))
            .unwrap();
        log.sync().unwrap();
        let err = recover("r", StoreMode::Hereditary, log.into_io(), None).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)));
    }

    #[test]
    fn publish_records_round_trip() {
        for p in [
            PublishRecord {
                txn: None,
                time: 0,
                label: String::new(),
            },
            PublishRecord {
                txn: Some(TxnId(42)),
                time: 1_699_999_999,
                label: "2026-08".into(),
            },
        ] {
            assert_eq!(decode_publish(&encode_publish(&p)).unwrap(), p);
        }
    }
}

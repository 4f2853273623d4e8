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
//! 3. If the checkpoint's `last_txn` is consistent with the decoded
//!    log (the log actually contains that prefix), recovery starts
//!    from the snapshot and applies only the tail via
//!    [`apply_committed`]. Otherwise — no checkpoint, corrupt
//!    checkpoint, or a checkpoint *ahead* of a torn log — the log is
//!    authoritative and the whole of it is replayed from empty.
//! 4. The result is cross-checked with [`replay_and_verify`]: the
//!    recovered tree must equal an independent from-scratch replay of
//!    its own log, ids included.
//!
//! The returned [`RecoveryStats`] mirror `cdb-relalg`'s `ExecStats`
//! in spirit: they make recovery observable (frames scanned/dropped,
//! txns adopted vs replayed, elapsed time) without changing behavior.

use std::collections::BTreeMap;

use cdb_curation::ops::{CuratedTree, Transaction, TxnId};
use cdb_curation::provstore::StoreMode;
use cdb_curation::replay::{apply_committed, replay_and_verify, replay_onto, verify_replay};
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
    /// Transactions covered by the checkpoint (adopted into the log
    /// without re-applying).
    pub txns_adopted: u64,
    /// Transactions re-applied from the log tail.
    pub txns_replayed: u64,
    /// Valid frames skipped without decoding because the checkpoint's
    /// coverage watermark proves the snapshot already contains them.
    pub frames_skipped: u64,
    /// Log payload bytes the recovery scan actually read. With a
    /// segmented log and checkpoint-anchored truncation this is bounded
    /// by the live (unretired) segments, not total history.
    pub bytes_scanned: u64,
    /// Live log segments at recovery time (1 for unsegmented devices).
    pub live_segments: u64,
    /// Wall-clock microseconds spent decoding + replaying + verifying.
    pub replay_micros: u128,
}

impl RecoveryStats {
    /// Publishes these counters into a metric sink under the
    /// `storage.recovery.*` names — `cdb-core` calls this with the
    /// database registry after a durable open, so recovery history
    /// shows up in `metrics_snapshot` alongside the live counters.
    pub fn record_to(&self, sink: &dyn cdb_obs::MetricSink) {
        sink.add("storage.recovery.count", 1);
        sink.add("storage.recovery.frames_scanned", self.frames_scanned);
        sink.add("storage.recovery.frames_dropped", self.frames_dropped);
        sink.add("storage.recovery.bytes_dropped", self.bytes_dropped);
        sink.add("storage.recovery.txns_adopted", self.txns_adopted);
        sink.add("storage.recovery.txns_replayed", self.txns_replayed);
        sink.add("storage.recovery.frames_skipped", self.frames_skipped);
        sink.add("storage.recovery.bytes_scanned", self.bytes_scanned);
        sink.add("storage.recovery.live_segments", self.live_segments);
        if self.used_checkpoint {
            sink.add("storage.recovery.checkpoint_used", 1);
        }
        sink.observe_ns(
            "storage.recovery.replay_ns",
            (self.replay_micros as u64).saturating_mul(1_000),
        );
    }
}

/// Everything recovery reconstructs from one WAL device.
#[derive(Debug)]
pub struct Recovered {
    /// The recovered database: tree, provenance, and full transaction
    /// log, verified against a from-scratch replay.
    pub db: CuratedTree,
    /// Publish points, in log order.
    pub publishes: Vec<PublishRecord>,
    /// Auxiliary frame payloads, in log order (opaque here; `cdb-core`
    /// decodes lifecycle events and notes out of them).
    pub aux: Vec<Vec<u8>>,
    /// True when the covered log prefix is physically gone (the log was
    /// truncated under `Retention::Reclaim`): `db.log` then holds only
    /// the tail, with [`CuratedTree::base_txn_id`] marking the cut.
    pub truncated: bool,
    /// The checkpoint's tree snapshot, when one anchored this recovery.
    /// This is the replay base for truncated histories.
    pub base_tree: Option<TreeDb>,
    /// The encoded archive a truncated checkpoint carried: the
    /// versions published at its `base_publishes` publish points,
    /// whose log prefix is gone. Opaque here; `cdb-core` decodes it.
    pub carried_archive: Vec<u8>,
    /// How many of `publishes` the anchoring checkpoint carried (0
    /// without one); the rest were published in the replayed tail.
    pub base_publishes: usize,
    /// The checkpoint's publication clock: the largest publish
    /// timestamp at install time (0 when none). Keeps publish times
    /// monotone even when the covered publish frames are gone.
    pub base_time: u64,
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

/// Appends `txn` to `txns`, enforcing strictly increasing ids. `floor`
/// seeds the check when the preceding history is not in `txns` itself
/// (a checkpoint's `last_txn` under the anchored path).
fn push_txn(
    txns: &mut Vec<Transaction>,
    floor: Option<TxnId>,
    txn: Transaction,
) -> Result<(), StorageError> {
    if let Some(prev) = txns.last().map(|t| t.id).or(floor) {
        if txn.id <= prev {
            return Err(StorageError::Corrupt(format!(
                "transaction ids out of order: {:?} after {:?}",
                txn.id, prev
            )));
        }
    }
    txns.push(txn);
    Ok(())
}

/// Decodes one plain (non-2PC) frame into the output streams. Returns
/// an error for 2PC or unknown kinds — callers handle those first.
fn decode_plain_frame(
    kind: u8,
    payload: Vec<u8>,
    floor: Option<TxnId>,
    txns: &mut Vec<Transaction>,
    publishes: &mut Vec<PublishRecord>,
    aux: &mut Vec<Vec<u8>>,
) -> Result<(), StorageError> {
    match kind {
        FRAME_COMMIT => {
            let (txn, mut extra) = decode_commit(&payload).map_err(StorageError::Wire)?;
            push_txn(txns, floor, txn)?;
            aux.append(&mut extra);
        }
        FRAME_PUBLISH => {
            publishes.push(decode_publish(&payload).map_err(StorageError::Wire)?);
        }
        FRAME_AUX => aux.push(payload),
        other => {
            return Err(StorageError::Corrupt(format!(
                "unknown frame kind {other} in WAL"
            )))
        }
    }
    Ok(())
}

/// Mutable 2PC bookkeeping threaded through one log's decode pass.
struct TwoPcPass<'a> {
    /// Decisions known from *outside* this log (other shards' DECIDEs,
    /// checkpoint-carried decision records). Consulted only for a
    /// PREPARE still pending at log end.
    ctx: &'a BTreeMap<u64, bool>,
    /// A PREPARE whose decision window is still open, with the latest
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
    fn adopt(
        prepare: PrepareRecord,
        floor: Option<TxnId>,
        txns: &mut Vec<Transaction>,
        publishes: &mut Vec<PublishRecord>,
        aux: &mut Vec<Vec<u8>>,
    ) -> Result<(), StorageError> {
        for (kind, payload) in prepare.frames {
            decode_plain_frame(kind, payload, floor, txns, publishes, aux)?;
        }
        Ok(())
    }

    /// Closes a decided PREPARE's decision window: adopts its frames
    /// when the last DECIDE said commit, drops them on abort. A still
    /// undecided PREPARE stays pending (for tail resolution).
    fn settle_decided(
        &mut self,
        floor: Option<TxnId>,
        txns: &mut Vec<Transaction>,
        publishes: &mut Vec<PublishRecord>,
        aux: &mut Vec<Vec<u8>>,
    ) -> Result<(), StorageError> {
        if matches!(self.pending, Some((_, Some(_)))) {
            let (p, decision) = self.pending.take().expect("checked above");
            if decision == Some(true) {
                TwoPcPass::adopt(p, floor, txns, publishes, aux)?;
            }
        }
        Ok(())
    }
}

/// Decodes a run of valid frames into transactions, publish records,
/// and aux payloads, in log order. PREPARE frames are held back until
/// their DECIDE; a PREPARE still pending when the run ends is resolved
/// by `twopc.ctx` (commit decision found elsewhere) or presumed abort.
fn decode_frames(
    frames: impl Iterator<Item = Frame>,
    floor: Option<TxnId>,
    txns: &mut Vec<Transaction>,
    publishes: &mut Vec<PublishRecord>,
    aux: &mut Vec<Vec<u8>>,
    twopc: &mut TwoPcPass<'_>,
) -> Result<(), StorageError> {
    for frame in frames {
        match frame.kind {
            FRAME_PREPARE => {
                twopc.settle_decided(floor, txns, publishes, aux)?;
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
                if twopc.pending.as_ref().is_some_and(|(p, _)| p.gid == d.gid) {
                    // Record but don't act: a later DECIDE for the same
                    // gid (commit-point sync failure followed by the
                    // abort path) overrides this one. The window closes
                    // at the next foreign frame or at log end.
                    twopc.pending.as_mut().expect("checked above").1 = Some(d.commit);
                } else {
                    twopc.settle_decided(floor, txns, publishes, aux)?;
                }
                // A DECIDE with no matching pending PREPARE is a
                // decision record for a txn resolved earlier (or one
                // this shard never prepared); keep it, apply nothing.
            }
            _ => {
                twopc.settle_decided(floor, txns, publishes, aux)?;
                decode_plain_frame(frame.kind, frame.payload, floor, txns, publishes, aux)?;
            }
        }
    }
    twopc.settle_decided(floor, txns, publishes, aux)?;
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
            TwoPcPass::adopt(p, floor, txns, publishes, aux)?;
        }
        twopc.decisions.insert(gid, commit);
        twopc.resolved.push((gid, commit));
    }
    Ok(())
}

/// Recovers a curated database from a WAL device, using `checkpoint`
/// when it is consistent with the log. `name` and `mode` seed the
/// empty database for full replay (a used checkpoint supersedes both).
/// The returned log handle is positioned after the last valid frame,
/// torn tail already truncated.
///
/// Two recovery modes exist, selected by the checkpoint's coverage
/// watermark ([`Checkpoint::covered_len`]) and the device's logical
/// base offset ([`Io::base`]):
///
/// - **Legacy / whole-log** — no checkpoint, or a checkpoint without a
///   watermark, over a device whose full history is present
///   (`base == 0`). Every frame is decoded; the checkpoint is used
///   only if the decoded log contains its `last_txn` (a checkpoint
///   ahead of a torn log is discarded — the log is authoritative).
/// - **Anchored** — a watermarked checkpoint proving coverage of the
///   log prefix up to `covered_len`. Frames ending at or below the
///   watermark are skipped without decoding; the snapshot supplies
///   that history (fully, under `Retention::KeepAll`, or as a
///   `base_txn` cut under `Retention::Reclaim`). This is the only
///   legal mode once segments are retired (`base > 0`): a retired
///   prefix with no covering checkpoint is corruption, not data loss
///   to be papered over.
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

    // Mode selection. `legacy_ck` feeds the whole-log path's usability
    // filter; `anchored` carries a (checkpoint, watermark) pair whose
    // coverage was validated against the device.
    let watermark = checkpoint.as_ref().and_then(|ck| ck.covered_len);
    let (legacy_ck, anchored) = match (checkpoint, watermark) {
        (None, _) => {
            if base > 0 {
                return Err(StorageError::Corrupt(
                    "log prefix retired but no checkpoint to anchor recovery".into(),
                ));
            }
            (None, None)
        }
        (Some(ck), None) => {
            if base > 0 {
                return Err(StorageError::Corrupt(
                    "log prefix retired but checkpoint carries no coverage watermark".into(),
                ));
            }
            (Some(ck), None)
        }
        (Some(ck), Some(w)) => {
            if w < base {
                return Err(StorageError::Corrupt(format!(
                    "checkpoint covers the log to byte {w}, but bytes below {base} are retired"
                )));
            }
            if w > valid_len {
                if base > 0 {
                    return Err(StorageError::Corrupt(format!(
                        "checkpoint covers {w} bytes but only {valid_len} survived, \
                         and the covered prefix is partly retired"
                    )));
                }
                // Full history present but shorter than the watermark:
                // the log is torn below coverage. The log stays
                // authoritative — fall back to the legacy filter, which
                // discards the snapshot unless its last_txn survived.
                (Some(ck), None)
            } else {
                (None, Some((ck, w)))
            }
        }
    };

    let (db, publishes, aux, truncated, base_tree, carried, base_time) = match anchored {
        Some((ck, w)) => {
            let Checkpoint {
                last_txn,
                tree,
                prov,
                covered_len: _,
                last_time,
                log: ck_log,
                publishes: ck_pubs,
                aux: ck_aux,
                archive,
                paged: _,
            } = ck;
            stats.used_checkpoint = true;
            let skip = frames.iter().filter(|f| f.end <= w).count();
            stats.frames_skipped = skip as u64;

            let mut tail: Vec<Transaction> = Vec::new();
            let mut publishes: Vec<PublishRecord> = ck_pubs
                .iter()
                .map(|b| decode_publish(b).map_err(StorageError::Wire))
                .collect::<Result<_, _>>()?;
            let carried = (archive, publishes.len());
            let mut aux = ck_aux;
            decode_frames(
                frames.into_iter().skip(skip),
                last_txn,
                &mut tail,
                &mut publishes,
                &mut aux,
                &mut twopc,
            )?;

            let truncated = ck_log.is_empty() && last_txn.is_some();
            let base_tree = tree.clone();
            let mut db = if truncated {
                CuratedTree::from_parts_at(tree, Vec::new(), prov, last_txn)
            } else {
                CuratedTree::from_parts(tree, ck_log, prov)
            };
            stats.txns_adopted = db.log.len() as u64;
            stats.txns_replayed = tail.len() as u64;
            for txn in &tail {
                apply_committed(&mut db, txn)
                    .map_err(|e| StorageError::Corrupt(format!("tail replay: {e}")))?;
            }

            if truncated {
                // The covered log is gone, so a from-empty replay is
                // impossible: verify the tail against the checkpoint
                // tree instead.
                let replayed = replay_onto(base_tree.clone(), &tail, None)
                    .map_err(|e| StorageError::Corrupt(format!("verification: {e}")))?;
                verify_replay(&db, &replayed)
                    .map_err(|e| StorageError::Corrupt(format!("verification: {e}")))?;
            } else {
                replay_and_verify(&db)
                    .map_err(|e| StorageError::Corrupt(format!("verification: {e}")))?;
            }
            (
                db,
                publishes,
                aux,
                truncated,
                Some(base_tree),
                carried,
                last_time,
            )
        }
        None => {
            let mut txns: Vec<Transaction> = Vec::new();
            let mut publishes = Vec::new();
            let mut aux = Vec::new();
            decode_frames(
                frames.into_iter(),
                None,
                &mut txns,
                &mut publishes,
                &mut aux,
                &mut twopc,
            )?;

            // A checkpoint is usable only when the log contains the
            // exact prefix it claims to snapshot. A checkpoint ahead of
            // a torn log would smuggle back transactions the log lost —
            // the log is the source of truth, so such a snapshot is
            // discarded.
            let usable = legacy_ck.filter(|ck| match ck.last_txn {
                None => true,
                Some(last) => txns.iter().any(|t| t.id == last),
            });

            let db = match usable {
                Some(ck) => {
                    stats.used_checkpoint = true;
                    let covered = match ck.last_txn {
                        None => 0,
                        Some(last) => txns.iter().take_while(|t| t.id <= last).count(),
                    };
                    let (head, tail) = txns.split_at(covered);
                    stats.txns_adopted = head.len() as u64;
                    stats.txns_replayed = tail.len() as u64;
                    let mut db = CuratedTree::from_parts(ck.tree, head.to_vec(), ck.prov);
                    for txn in tail {
                        apply_committed(&mut db, txn)
                            .map_err(|e| StorageError::Corrupt(format!("tail replay: {e}")))?;
                    }
                    db
                }
                None => {
                    stats.txns_replayed = txns.len() as u64;
                    let mut db = CuratedTree::new(name, mode);
                    for txn in &txns {
                        apply_committed(&mut db, txn)
                            .map_err(|e| StorageError::Corrupt(format!("log replay: {e}")))?;
                    }
                    db
                }
            };

            replay_and_verify(&db)
                .map_err(|e| StorageError::Corrupt(format!("verification: {e}")))?;
            (db, publishes, aux, false, None, (Vec::new(), 0), 0)
        }
    };

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
            publishes,
            aux,
            truncated,
            base_tree,
            carried_archive: carried.0,
            base_publishes: carried.1,
            base_time,
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
    use cdb_model::Atom;

    /// Builds a reference database and a WAL image holding its log.
    fn seeded() -> (CuratedTree, Vec<u8>) {
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
        for txn in db.transactions() {
            log.append(FRAME_COMMIT, &encode_commit(txn, &[])).unwrap();
        }
        log.sync().unwrap();
        let image = log.into_io().bytes().to_vec();
        (db, image)
    }

    #[test]
    fn full_replay_recovers_the_exact_database() {
        let (db, image) = seeded();
        let (_, rec) = recover("r", StoreMode::Hereditary, MemIo::from_bytes(image), None).unwrap();
        assert_eq!(rec.db, db);
        assert!(!rec.stats.used_checkpoint);
        assert_eq!(rec.stats.txns_replayed, 3);
        assert_eq!(rec.stats.frames_scanned, 3);
    }

    #[test]
    fn checkpoint_plus_tail_equals_full_replay() {
        let (db, image) = seeded();
        // Snapshot as of the second transaction.
        let prefix = CuratedTree::from_parts(
            cdb_curation::replay::replay("r", db.log.iter().take(2), None).unwrap(),
            db.log.iter().take(2).cloned().collect::<Vec<_>>(),
            {
                let mut p = CuratedTree::new("r", StoreMode::Hereditary);
                for t in db.log.iter().take(2) {
                    apply_committed(&mut p, t).unwrap();
                }
                p.prov
            },
        );
        let ck = Checkpoint::basic(Some(db.log[1].id), prefix.tree.clone(), prefix.prov.clone());
        let mut store = CheckpointStore::mem();
        store.install(&ck).unwrap();
        let ck = store.load().unwrap();

        let (_, rec) = recover("r", StoreMode::Hereditary, MemIo::from_bytes(image), ck).unwrap();
        assert_eq!(rec.db, db);
        assert!(rec.stats.used_checkpoint);
        assert_eq!(rec.stats.txns_adopted, 2);
        assert_eq!(rec.stats.txns_replayed, 1);
    }

    #[test]
    fn checkpoint_ahead_of_torn_log_is_discarded() {
        let (db, image) = seeded();
        // Checkpoint covers all 3 txns, but the log is torn after 1.
        let ck = Checkpoint::basic(db.last_txn_id(), db.tree.clone(), db.prov.clone());
        let first_txn_end = {
            let mut log = DurableLog::create(MemIo::new()).unwrap();
            log.append(FRAME_COMMIT, &encode_commit(&db.log[0], &[]))
                .unwrap();
            log.sync().unwrap();
            log.len().unwrap()
        };
        let torn = image[..first_txn_end as usize + 4].to_vec();
        let (_, rec) = recover(
            "r",
            StoreMode::Hereditary,
            MemIo::from_bytes(torn),
            Some(ck),
        )
        .unwrap();
        // The log is authoritative: one committed txn, replayed fresh.
        assert!(!rec.stats.used_checkpoint);
        assert_eq!(rec.db.log.len(), 1);
        assert_eq!(rec.db.log[0], db.log[0]);
        assert_eq!(rec.stats.frames_dropped, 1);
    }

    #[test]
    fn crash_image_recovers_committed_prefix_exactly() {
        let (db, _) = seeded();
        let mut log = DurableLog::create(FaultyIo::new(FaultPlan::default())).unwrap();
        log.append(FRAME_COMMIT, &encode_commit(&db.log[0], &[]))
            .unwrap();
        log.append(FRAME_COMMIT, &encode_commit(&db.log[1], &[]))
            .unwrap();
        log.sync().unwrap();
        log.append(FRAME_COMMIT, &encode_commit(&db.log[2], &[]))
            .unwrap();
        // Crash before the covering sync: txn 2 is uncommitted.
        let image = log.into_io().crash();

        let (_, rec) = recover("r", StoreMode::Hereditary, MemIo::from_bytes(image), None).unwrap();
        let mut reference = CuratedTree::new("r", StoreMode::Hereditary);
        for t in db.log.iter().take(2) {
            apply_committed(&mut reference, t).unwrap();
        }
        assert_eq!(rec.db, reference);
    }

    #[test]
    fn out_of_order_transaction_ids_are_rejected() {
        let (db, _) = seeded();
        let mut log = DurableLog::create(MemIo::new()).unwrap();
        log.append(FRAME_COMMIT, &encode_commit(&db.log[1], &[]))
            .unwrap();
        log.append(FRAME_COMMIT, &encode_commit(&db.log[0], &[]))
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

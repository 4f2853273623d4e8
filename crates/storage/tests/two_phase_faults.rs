//! The 2PC crash matrix: every byte offset of the PREPARE and DECIDE
//! frames on both participants' WALs, restricted to the crash states
//! the protocol's sync ordering can actually produce.
//!
//! The journaling protocol (cdb-core's `ShardedDb::journal`) is:
//!
//! 1. PREPARE appended + synced on shard 0 (the coordinator);
//! 2. PREPARE appended + synced on shard 1;
//! 3. DECIDE(commit) appended + synced on the coordinator — the commit
//!    point; the client's ack gates on this sync;
//! 4. DECIDE appended (lazily synced) on shard 1.
//!
//! So the reachable durable states form a staircase: shard 1's PREPARE
//! can only be durable once shard 0's is, the coordinator's DECIDE only
//! once both PREPAREs are, and shard 1's DECIDE bytes only once the
//! commit point is durable. Within each step a crash mid-sync can leave
//! any byte prefix of the frame being flushed. The matrix walks every
//! such (cut0, cut1) pair and demands that recovery (a) never fails,
//! (b) never half-applies the cross-shard transaction, (c) commits iff
//! the coordinator's DECIDE(commit) is fully durable, (d) agrees across
//! shards, (e) is deterministic, and (f) self-heals in-doubt PREPAREs
//! so a later standalone recovery — without the other shard's log —
//! reaches the same outcome.

use std::collections::BTreeMap;

use cdb_curation::ops::{CuratedTree, Transaction, TxnId};
use cdb_curation::provstore::StoreMode;
use cdb_curation::replay::apply_committed;
use cdb_model::Atom;
use cdb_storage::frame::{encode_frame, WAL_MAGIC};
use cdb_storage::{
    encode_commit, encode_decide, encode_prepare, recover, recover_shards, DecideRecord, MemIo,
    PrepareRecord, Recovered, FRAME_AUX, FRAME_COMMIT, FRAME_DECIDE, FRAME_PREPARE,
};

const GID: u64 = 1;

/// One shard's side of the story: a local base transaction, then its
/// half of one cross-shard transaction.
fn shard_tree(entry: &str, alt_second: bool) -> CuratedTree {
    let mut db = CuratedTree::new("s", StoreMode::Hereditary);
    let root = db.tree.root();
    let mut t = db.begin("base", 10);
    let e = t.insert(root, entry, None).unwrap();
    t.insert(e, "name", Some(Atom::Str(entry.into()))).unwrap();
    t.commit();
    let mut t = db.begin("merge", 20);
    let label = if alt_second { "retry" } else { "merged" };
    t.insert(e, label, Some(Atom::Str("yes".into()))).unwrap();
    t.commit();
    db
}

/// A shard's WAL image with the byte offsets of its 2PC frames:
/// `magic | TXN(base) | PREPARE | DECIDE`.
struct Side {
    image: Vec<u8>,
    /// First byte of the PREPARE frame.
    p_start: usize,
    /// One past the PREPARE frame (PREPARE fully durable).
    p_end: usize,
    /// One past the DECIDE frame.
    d_end: usize,
    base_id: TxnId,
    cross_id: TxnId,
    /// The base transaction, then the cross-shard one.
    txns: Vec<Transaction>,
}

fn build_side(tree: &CuratedTree, decide_commit: bool) -> Side {
    let mut image = WAL_MAGIC.to_vec();
    image.extend_from_slice(&encode_frame(
        FRAME_COMMIT,
        &encode_commit(&tree.log()[0], &[]),
    ));
    let p_start = image.len();
    let prepare = PrepareRecord {
        gid: GID,
        coordinator: 0,
        participants: vec![0, 1],
        frames: vec![
            (FRAME_COMMIT, encode_commit(&tree.log()[1], &[])),
            (FRAME_AUX, b"cross-evt".to_vec()),
        ],
    };
    image.extend_from_slice(&encode_frame(FRAME_PREPARE, &encode_prepare(&prepare)));
    let p_end = image.len();
    image.extend_from_slice(&encode_frame(
        FRAME_DECIDE,
        &encode_decide(&DecideRecord {
            gid: GID,
            commit: decide_commit,
        }),
    ));
    Side {
        d_end: image.len(),
        image,
        p_start,
        p_end,
        base_id: tree.log()[0].id,
        cross_id: tree.log()[1].id,
        txns: tree.log().iter().cloned().collect(),
    }
}

fn ids(rec: &Recovered) -> Vec<TxnId> {
    rec.db.log().iter().map(|t| t.id).collect()
}

/// Recovers the pair of cut images and checks every invariant the
/// matrix demands for that crash state. Returns the per-shard outcomes
/// for the caller's extra assertions.
fn check_cut(s0: &Side, s1: &Side, c0: usize, c1: usize) -> Vec<Recovered> {
    let expect_commit = c0 >= s0.d_end;
    let run = || {
        recover_shards(
            "s",
            StoreMode::Hereditary,
            vec![
                (MemIo::from_bytes(s0.image[..c0].to_vec()), None),
                (MemIo::from_bytes(s1.image[..c1].to_vec()), None),
            ],
            &BTreeMap::new(),
        )
        .unwrap_or_else(|e| panic!("recovery failed at cut ({c0},{c1}): {e}"))
    };
    let out = run();
    let sides = [s0, s1];
    for (i, (_, rec)) in out.iter().enumerate() {
        let s = sides[i];
        // All-or-nothing: the cross txn's id appears exactly when the
        // global outcome is commit — never a partial effect.
        let want = if expect_commit {
            vec![s.base_id, s.cross_id]
        } else {
            vec![s.base_id]
        };
        assert_eq!(ids(rec), want, "shard {i} at cut ({c0},{c1})");
        // And the recovered database is the expected transactions
        // applied onto an empty tree: tree, provenance and log.
        let mut reference = CuratedTree::new("s", StoreMode::Hereditary);
        for txn in &s.txns[..want.len()] {
            apply_committed(&mut reference, txn).unwrap();
        }
        assert_eq!(rec.db, reference, "shard {i} tree at cut ({c0},{c1})");
        // The aux payload sealed inside the PREPARE rides along iff
        // the transaction committed.
        assert_eq!(
            rec.aux.iter().any(|a| a == b"cross-evt"),
            expect_commit,
            "shard {i} aux at cut ({c0},{c1})"
        );
        let prepared = [c0 >= s0.p_end, c1 >= s1.p_end][i];
        if prepared {
            assert_eq!(
                rec.decisions.get(&GID),
                Some(&expect_commit),
                "shard {i} decision at cut ({c0},{c1})"
            );
            assert_eq!(rec.max_gid, GID, "shard {i} max_gid at cut ({c0},{c1})");
        }
    }
    // Cross-shard agreement, stated directly.
    let committed: Vec<bool> = out
        .iter()
        .map(|(_, r)| ids(r).contains(&sides[0].cross_id) || ids(r).contains(&sides[1].cross_id))
        .collect();
    assert_eq!(
        committed[0], committed[1],
        "shards disagree at cut ({c0},{c1})"
    );

    // Determinism: the same crash state recovers to the same database.
    let again = run();
    for ((_, a), (_, b)) in out.iter().zip(again.iter()) {
        assert_eq!(a.db, b.db, "non-deterministic recovery at cut ({c0},{c1})");
        assert_eq!(a.decisions, b.decisions, "decisions differ at ({c0},{c1})");
    }

    // Self-heal: recovery appended DECIDE frames for every in-doubt
    // resolution, so recovering each shard's log again — standalone,
    // with no context from the other shard — reaches the same outcome.
    let mut recs = Vec::new();
    for (i, (log, rec)) in out.into_iter().enumerate() {
        let healed = log.into_io().bytes().to_vec();
        let (_, solo) = recover("s", StoreMode::Hereditary, MemIo::from_bytes(healed), None)
            .unwrap_or_else(|e| panic!("standalone re-recovery failed at ({c0},{c1}): {e}"));
        assert_eq!(
            ids(&solo),
            ids(&rec),
            "shard {i} standalone re-recovery diverged at cut ({c0},{c1})"
        );
        recs.push(rec);
    }
    recs
}

/// The full staircase: every byte of every 2PC frame on both WALs, in
/// every reachable combination.
#[test]
fn every_reachable_crash_offset_recovers_consistently() {
    let t0 = shard_tree("gaba-a", false);
    let t1 = shard_tree("gaba-b", false);
    let s0 = build_side(&t0, true);
    let s1 = build_side(&t1, true);

    let mut cuts: Vec<(usize, usize)> = Vec::new();
    // Step 1: crash while syncing shard 0's PREPARE.
    for c0 in s0.p_start..=s0.p_end {
        cuts.push((c0, s1.p_start));
    }
    // Step 2: crash while syncing shard 1's PREPARE.
    for c1 in s1.p_start..=s1.p_end {
        cuts.push((s0.p_end, c1));
    }
    // Step 3: crash while syncing the coordinator's DECIDE — the
    // in-doubt window. Commit becomes the outcome only at the last
    // byte.
    for c0 in s0.p_end..=s0.d_end {
        cuts.push((c0, s1.p_end));
    }
    // Step 4: commit point durable; shard 1's lazy DECIDE torn
    // anywhere.
    for c1 in s1.p_end..=s1.d_end {
        cuts.push((s0.d_end, c1));
    }

    for &(c0, c1) in &cuts {
        let recs = check_cut(&s0, &s1, c0, c1);
        // In-doubt windows resolve by presumed abort (before the commit
        // point) or by the coordinator's decision (after), and the
        // resolution is journaled.
        let expect_commit = c0 >= s0.d_end;
        if (s0.p_end..s0.d_end).contains(&c0) {
            assert_eq!(recs[0].resolved, vec![(GID, false)], "cut ({c0},{c1})");
        }
        if c1 == s1.p_end && c1 < s1.d_end {
            assert_eq!(
                recs[1].resolved,
                vec![(GID, expect_commit)],
                "cut ({c0},{c1})"
            );
        }
    }
}

/// The decide-override regression: a failed commit-point sync leaves
/// DECIDE(commit) in the coordinator's write cache; the runtime abort
/// path appends DECIDE(abort) behind it and rolls memory back, and the
/// rolled-back transaction id is reused by a later standalone commit.
/// Both DECIDEs become durable together, in order. Recovery must honor
/// the *last* decision — adopting the PREPARE on the first
/// DECIDE(commit) replays a transaction that never happened and then
/// chokes on the reused id.
#[test]
fn later_abort_decide_overrides_earlier_commit_decide() {
    let t0 = shard_tree("gaba-a", false);
    let t1 = shard_tree("gaba-b", false);
    // The post-abort retry: same base transaction, so the retry txn
    // reuses the rolled-back id with different content.
    let retry = shard_tree("gaba-a", true);
    assert_eq!(retry.log()[1].id, t0.log()[1].id);

    let s0 = build_side(&t0, true);
    let mut img0 = s0.image.clone();
    img0.extend_from_slice(&encode_frame(
        FRAME_DECIDE,
        &encode_decide(&DecideRecord {
            gid: GID,
            commit: false,
        }),
    ));
    img0.extend_from_slice(&encode_frame(
        FRAME_COMMIT,
        &encode_commit(&retry.log()[1], &[]),
    ));
    let s1 = build_side(&t1, false);

    let out = recover_shards(
        "s",
        StoreMode::Hereditary,
        vec![
            (MemIo::from_bytes(img0.clone()), None),
            (MemIo::from_bytes(s1.image.clone()), None),
        ],
        &BTreeMap::new(),
    )
    .expect("recovery over conflicting decides");
    // Coordinator: the prepared txn is dropped, the retry applied — the
    // recovered database is exactly the retry history.
    assert_eq!(out[0].1.db, retry);
    assert_eq!(out[0].1.decisions.get(&GID), Some(&false));
    // Participant: abort, base only.
    assert_eq!(ids(&out[1].1), vec![s1.base_id]);
    assert_eq!(out[1].1.decisions.get(&GID), Some(&false));

    // Standalone recovery of the coordinator's log — no context —
    // reaches the same outcome: the decision sequence is in the log.
    let (_, solo) = recover("s", StoreMode::Hereditary, MemIo::from_bytes(img0), None)
        .expect("standalone recovery over conflicting decides");
    assert_eq!(solo.db, retry);
}

/// Conflicting decides at the very tail of the log: end-of-stream must
/// settle with the last decision, not treat the PREPARE as in-doubt
/// (the decision is already journaled — no self-heal applies).
#[test]
fn conflicting_decides_at_log_tail_settle_last_wins() {
    let t0 = shard_tree("gaba-a", false);
    let s0 = build_side(&t0, true);
    let mut img = s0.image.clone();
    img.extend_from_slice(&encode_frame(
        FRAME_DECIDE,
        &encode_decide(&DecideRecord {
            gid: GID,
            commit: false,
        }),
    ));

    let (_, rec) = recover("s", StoreMode::Hereditary, MemIo::from_bytes(img), None).unwrap();
    assert_eq!(ids(&rec), vec![s0.base_id]);
    assert_eq!(rec.decisions.get(&GID), Some(&false));
    assert!(rec.resolved.is_empty(), "a decided PREPARE is not in doubt");

    // And the mirror image: a single DECIDE(commit) at the tail still
    // commits — deferral must not turn a decided txn into presumed
    // abort.
    let (_, rec) = recover(
        "s",
        StoreMode::Hereditary,
        MemIo::from_bytes(s0.image.clone()),
        None,
    )
    .unwrap();
    assert_eq!(ids(&rec), vec![s0.base_id, s0.cross_id]);
    assert_eq!(rec.decisions.get(&GID), Some(&true));
    assert!(rec.resolved.is_empty());
}

/// An explicit abort decision on the coordinator resolves the
/// participant's in-doubt PREPARE to abort — and journals it there.
#[test]
fn coordinator_abort_decision_resolves_participant_in_doubt() {
    let t0 = shard_tree("gaba-a", false);
    let t1 = shard_tree("gaba-b", false);
    let s0 = build_side(&t0, false); // DECIDE(abort) durable
    let s1 = build_side(&t1, true);
    let c1 = s1.p_end; // participant crashed before its DECIDE

    let out = recover_shards(
        "s",
        StoreMode::Hereditary,
        vec![
            (MemIo::from_bytes(s0.image.clone()), None),
            (MemIo::from_bytes(s1.image[..c1].to_vec()), None),
        ],
        &BTreeMap::new(),
    )
    .expect("recovery under explicit abort");
    assert_eq!(ids(&out[0].1), vec![s0.base_id]);
    assert_eq!(ids(&out[1].1), vec![s1.base_id]);
    assert_eq!(out[1].1.resolved, vec![(GID, false)]);

    // Self-heal: the participant's log now resolves alone.
    let healed = out.into_iter().nth(1).unwrap().0.into_io().bytes().to_vec();
    let (_, solo) = recover("s", StoreMode::Hereditary, MemIo::from_bytes(healed), None).unwrap();
    assert_eq!(ids(&solo), vec![s1.base_id]);
    assert_eq!(solo.decisions.get(&GID), Some(&false));
}

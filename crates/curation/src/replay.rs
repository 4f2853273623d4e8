//! Log replay: reconstructing past states from the transaction log.
//!
//! §5.1 asks: "An open question is whether one could create an archive
//! directly from the transaction log." With the log recording parents
//! for creations and clipboard content for pastes (see
//! [`CurationOp::Insert`] and [`CurationOp::Paste`]), the answer here is
//! yes: [`replay`] deterministically rebuilds the tree as of any
//! transaction — reproducing the original node ids exactly, because the
//! arena allocates in operation order — and `cdb-core` layers archive
//! construction on top (`CuratedDatabase::archive_from_log`).
//!
//! Because ids are reproduced, provenance records and lifecycle data
//! remain valid against replayed states, which makes the reconstruction
//! more than a value-level diff.

use crate::ops::{ClipNode, CuratedTree, CurationOp, Transaction, TxnId};
use crate::tree::{NodeId, TreeDb, TreeError};

/// Errors during replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The log disagrees with what replay produced — the log is corrupt,
    /// truncated, or from another database.
    Inconsistent(String),
    /// An underlying tree error.
    Tree(TreeError),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Inconsistent(m) => write!(f, "inconsistent log: {m}"),
            ReplayError::Tree(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<TreeError> for ReplayError {
    fn from(e: TreeError) -> Self {
        ReplayError::Tree(e)
    }
}

/// Replays a transaction log (in order) up to and **including** `upto`
/// (or the whole log when `None`), returning the reconstructed tree.
/// Node ids in the replayed tree equal the original ids.
pub fn replay<'a>(
    name: &str,
    log: impl IntoIterator<Item = &'a Transaction>,
    upto: Option<TxnId>,
) -> Result<TreeDb, ReplayError> {
    replay_onto(TreeDb::new(name), log, upto)
}

/// Replays a transaction tail onto an existing base tree (a checkpoint
/// snapshot), up to and **including** `upto` (or the whole tail when
/// `None`). This is the truncated-history counterpart of [`replay`]:
/// when the covered log is gone, reconstruction starts from the
/// checkpoint tree instead of empty.
pub fn replay_onto<'a>(
    base: TreeDb,
    log: impl IntoIterator<Item = &'a Transaction>,
    upto: Option<TxnId>,
) -> Result<TreeDb, ReplayError> {
    let mut tree = base;
    for txn in log {
        if let Some(limit) = upto {
            if txn.id > limit {
                break;
            }
        }
        for op in &txn.ops {
            apply(&mut tree, op)?;
        }
    }
    Ok(tree)
}

/// Verifies a reconstructed tree against the live tree of `db` (ids,
/// labels, values, structure).
pub fn verify_replay(db: &CuratedTree, replayed: &TreeDb) -> Result<(), ReplayError> {
    for id in db.tree.live_nodes() {
        if !replayed.is_alive(id) {
            return Err(ReplayError::Inconsistent(format!(
                "live node {id} missing from replay"
            )));
        }
        if db.tree.label(id)? != replayed.label(id)?
            || db.tree.value(id)? != replayed.value(id)?
            || db.tree.children(id)? != replayed.children(id)?
        {
            return Err(ReplayError::Inconsistent(format!(
                "node {id} differs from replay"
            )));
        }
    }
    if replayed.size() != db.tree.size() {
        return Err(ReplayError::Inconsistent(format!(
            "replay has {} live nodes, database has {}",
            replayed.size(),
            db.tree.size()
        )));
    }
    Ok(())
}

/// Replays the log of a curated tree and verifies the reconstruction
/// matches the live tree (ids, labels, values, structure). Returns the
/// replayed tree.
pub fn replay_and_verify(db: &CuratedTree) -> Result<TreeDb, ReplayError> {
    let replayed = replay(db.tree.name(), db.log(), None)?;
    verify_replay(db, &replayed)?;
    Ok(replayed)
}

/// Applies a committed transaction to a curated database during
/// recovery: the tree *and* the provenance store are updated exactly as
/// the original [`crate::ops::Txn`] methods did, allocated node ids are
/// verified against the log, and the transaction is appended to the
/// database's log. This is the WAL tail-replay primitive of
/// `cdb-storage`: `recover = load(checkpoint) + apply_committed(tail)`.
pub fn apply_committed(db: &mut CuratedTree, txn: &Transaction) -> Result<(), ReplayError> {
    for op in &txn.ops {
        match op {
            CurationOp::Insert {
                node,
                parent,
                label,
                value,
            } => {
                let created = db.tree.create_node(*parent, label.clone(), value.clone())?;
                check_id(*node, created)?;
                db.prov.on_insert(created, txn.id);
            }
            CurationOp::Modify { node, new, .. } => {
                db.tree.set_value(*node, new.clone())?;
                db.prov.on_modify(*node, txn.id);
            }
            CurationOp::Delete { node } => {
                db.tree.delete_subtree(*node)?;
            }
            CurationOp::Paste {
                node,
                parent,
                origin,
                snapshot,
            } => {
                let created = paste_snapshot(&mut db.tree, *parent, snapshot)?;
                check_id(*node, created)?;
                db.prov
                    .on_paste(created, txn.id, origin.clone(), snapshot.size());
            }
        }
    }
    db.adopt_unapplied(txn.clone());
    Ok(())
}

/// Applies one logged operation to a tree: the step [`replay_onto`]
/// takes for each operation of each transaction, for callers that
/// replay op by op.
pub fn apply(tree: &mut TreeDb, op: &CurationOp) -> Result<(), ReplayError> {
    match op {
        CurationOp::Insert {
            node,
            parent,
            label,
            value,
        } => {
            let created = tree.create_node(*parent, label.clone(), value.clone())?;
            check_id(*node, created)
        }
        CurationOp::Modify { node, new, .. } => {
            tree.set_value(*node, new.clone())?;
            Ok(())
        }
        CurationOp::Delete { node } => {
            tree.delete_subtree(*node)?;
            Ok(())
        }
        CurationOp::Paste {
            node,
            parent,
            snapshot,
            ..
        } => {
            let created = paste_snapshot(tree, *parent, snapshot)?;
            check_id(*node, created)
        }
    }
}

fn check_id(expected: NodeId, got: NodeId) -> Result<(), ReplayError> {
    if expected == got {
        Ok(())
    } else {
        Err(ReplayError::Inconsistent(format!(
            "replay allocated {got}, log says {expected}"
        )))
    }
}

fn paste_snapshot(
    tree: &mut TreeDb,
    parent: NodeId,
    snap: &ClipNode,
) -> Result<NodeId, ReplayError> {
    let node = tree.create_node(parent, snap.label.clone(), snap.value.clone())?;
    for c in &snap.children {
        paste_snapshot(tree, node, c)?;
    }
    Ok(node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provstore::StoreMode;
    use cdb_model::Atom;

    fn build() -> CuratedTree {
        let mut db = CuratedTree::new("d", StoreMode::Hereditary);
        let root = db.tree.root();
        let mut t = db.begin("a", 1);
        let e = t.insert(root, "entry", None).unwrap();
        let n = t.insert(e, "name", Some(Atom::Str("x".into()))).unwrap();
        t.commit();
        let mut t = db.begin("b", 2);
        t.modify(n, Some(Atom::Str("y".into()))).unwrap();
        let e2 = t.insert(root, "entry2", None).unwrap();
        t.commit();
        let mut t = db.begin("c", 3);
        t.delete(e2).unwrap();
        t.commit();
        db
    }

    #[test]
    fn full_replay_matches_live_tree() {
        let db = build();
        let replayed = replay_and_verify(&db).unwrap();
        assert_eq!(replayed.size(), db.tree.size());
    }

    #[test]
    fn partial_replay_reconstructs_past_states() {
        let db = build();
        // After txn 0: root + entry + name(x).
        let t0 = replay("d", db.log(), Some(TxnId(0))).unwrap();
        assert_eq!(t0.size(), 3);
        let name = t0.resolve_path("/entry/name").unwrap();
        assert_eq!(t0.value(name).unwrap(), Some(&Atom::Str("x".into())));
        // After txn 1: name modified, entry2 added.
        let t1 = replay("d", db.log(), Some(TxnId(1))).unwrap();
        assert_eq!(t1.size(), 4);
        let name = t1.resolve_path("/entry/name").unwrap();
        assert_eq!(t1.value(name).unwrap(), Some(&Atom::Str("y".into())));
        // After txn 2: entry2 gone again.
        let t2 = replay("d", db.log(), Some(TxnId(2))).unwrap();
        assert_eq!(t2.size(), 3);
    }

    #[test]
    fn replay_reproduces_node_ids() {
        let db = build();
        let replayed = replay_and_verify(&db).unwrap();
        let live_orig = db.tree.live_nodes();
        let live_replay = replayed.live_nodes();
        assert_eq!(live_orig, live_replay);
    }

    #[test]
    fn pastes_replay_with_content() {
        let src = {
            let mut s = CuratedTree::new("s", StoreMode::Hereditary);
            let root = s.tree.root();
            let mut t = s.begin("u", 1);
            let e = t.insert(root, "entry", None).unwrap();
            t.insert(e, "ac", Some(Atom::Str("Q1".into()))).unwrap();
            t.commit();
            s
        };
        let clip = src.copy(src.tree.resolve_path("/entry").unwrap()).unwrap();
        let mut db = CuratedTree::new("d", StoreMode::Hereditary);
        let root = db.tree.root();
        let mut t = db.begin("me", 2);
        t.paste(root, &clip).unwrap();
        t.commit();
        let replayed = replay_and_verify(&db).unwrap();
        let ac = replayed.resolve_path("/entry/ac").unwrap();
        assert_eq!(replayed.value(ac).unwrap(), Some(&Atom::Str("Q1".into())));
    }

    #[test]
    fn apply_committed_reproduces_the_live_database_exactly() {
        let db = build();
        let mut recovered = CuratedTree::new("d", StoreMode::Hereditary);
        for txn in db.transactions() {
            apply_committed(&mut recovered, txn).unwrap();
        }
        // Whole-struct equality: arena (tombstones included), provenance
        // records, log, and the next transaction id.
        assert_eq!(recovered, db);
        // And the next transaction continues the id sequence.
        let id = recovered.begin("x", 9).commit();
        assert_eq!(Some(id), recovered.last_txn_id());
        assert!(id > db.last_txn_id().unwrap());
    }

    #[test]
    fn truncated_or_corrupt_logs_are_detected() {
        let db = build();
        // Drop the middle transaction: ids no longer line up.
        let mut broken: Vec<Transaction> = db.log().iter().cloned().collect();
        broken.remove(1);
        // Either replay errors (id mismatch / missing node)…
        match replay("d", &broken, None) {
            Err(_) => {}
            Ok(t) => {
                // …or produces a tree that verification would reject.
                assert_ne!(t.size(), db.tree.size());
            }
        }
    }
}

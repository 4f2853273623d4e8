//! Log replay: reconstructing past states from the transaction log.
//!
//! §5.1 asks: "An open question is whether one could create an archive
//! directly from the transaction log." With the log recording parents
//! for creations and clipboard content for pastes (see
//! [`CurationOp::Insert`] and [`CurationOp::Paste`]), the answer here is
//! yes: [`replay`] deterministically rebuilds the tree as of any
//! transaction — reproducing the original node ids exactly, because the
//! arena allocates in operation order — and `cdb-core` merges an archive
//! from the trees [`apply_committed_at`] keeps at the publish points
//! (`CuratedDatabase::archive_from_log`, and every open).
//!
//! Because ids are reproduced, provenance records and lifecycle data
//! remain valid against replayed states, which makes the reconstruction
//! more than a value-level diff.

use crate::ops::{paste_snapshot, CuratedTree, CurationOp, Transaction, TxnId};
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
    let mut tree = TreeDb::new(name);
    let upto = |txn: &&Transaction| upto.is_none_or(|limit| txn.id <= limit);
    for op in log.into_iter().take_while(upto).flat_map(|txn| &txn.ops) {
        apply(&mut tree, op)?;
    }
    Ok(tree)
}

/// Replays the log of a curated tree and checks that the replay is the
/// live tree, slot for slot: ids, labels, values, structure and
/// tombstones. Returns the replayed tree.
pub fn replay_and_verify(db: &CuratedTree) -> Result<TreeDb, ReplayError> {
    let replayed = replay(db.tree.name(), db.log(), None)?;
    if replayed != db.tree {
        return Err(ReplayError::Inconsistent(
            "the replay differs from the live tree".to_owned(),
        ));
    }
    Ok(replayed)
}

/// Applies a committed transaction to a curated database during
/// recovery: each operation through [`apply`], the one tree applier,
/// then the provenance hook the original [`crate::ops::Txn`] method
/// ran; allocated node ids are verified against the log, and the
/// transaction is appended to the database's log. This is the WAL
/// tail-replay primitive of `cdb-storage`:
/// `recover = load(checkpoint) + apply_committed(tail)`.
pub fn apply_committed(db: &mut CuratedTree, txn: &Transaction) -> Result<(), ReplayError> {
    for op in &txn.ops {
        apply(&mut db.tree, op)?;
        match op {
            CurationOp::Insert { node, .. } => db.prov.on_insert(*node, txn.id),
            CurationOp::Modify { node, .. } => db.prov.on_modify(*node, txn.id),
            CurationOp::Delete { .. } => {}
            CurationOp::Paste {
                node,
                origin,
                snapshot,
                ..
            } => db
                .prov
                .on_paste(*node, txn.id, origin.clone(), snapshot.size()),
        }
    }
    db.adopt_unapplied(txn.clone());
    Ok(())
}

/// Applies committed transactions in order ([`apply_committed`]) and
/// keeps the tree at each of `points`, ascending transaction ids (`None`
/// for a point before any transaction): a chunk-sharing clone of the
/// tree after every transaction up to the point, or of the tree `db`
/// came with when there is none. One pass gives recovery its database
/// and the publish-point trees the archive is merged from.
pub fn apply_committed_at<'a>(
    db: &mut CuratedTree,
    txns: impl IntoIterator<Item = &'a Transaction>,
    points: impl IntoIterator<Item = Option<TxnId>>,
) -> Result<Vec<TreeDb>, ReplayError> {
    let mut points = points.into_iter().peekable();
    let mut trees = Vec::new();
    for txn in txns {
        while points.next_if(|upto| *upto < Some(txn.id)).is_some() {
            trees.push(db.tree.clone());
        }
        apply_committed(db, txn)?;
    }
    trees.extend(points.map(|_| db.tree.clone()));
    Ok(trees)
}

/// Applies one logged operation to a tree: the step [`replay`] and
/// [`apply_committed`] take for each operation of each transaction.
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
    fn apply_committed_at_keeps_the_tree_at_each_point() {
        let db = build();
        let mut recovered = CuratedTree::new("d", StoreMode::Hereditary);
        let points = [None, Some(TxnId(0)), Some(TxnId(0)), Some(TxnId(2))];
        let trees = apply_committed_at(&mut recovered, db.log(), points).unwrap();
        assert_eq!(recovered, db);
        let expected: Vec<TreeDb> = points
            .iter()
            .map(|point| match point {
                None => TreeDb::new("d"),
                Some(upto) => replay("d", db.log(), Some(*upto)).unwrap(),
            })
            .collect();
        assert_eq!(trees, expected);
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

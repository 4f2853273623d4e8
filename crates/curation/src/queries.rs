//! Provenance queries over a curated tree (§3.1).
//!
//! "…it is possible to ask questions such as when some data value was
//! first created, by what process did that value arrive in a database,
//! when was a subtree last modified…"

use crate::ops::{CuratedTree, CurationOp, Transaction, TxnId};
use crate::provstore::{Origin, ProvEvent};
use crate::tree::{NodeId, TreeError};

/// When (which transaction) a node was first created — directly, or via
/// the paste that brought its subtree in. A node whose direct records
/// only say "modified" inherits its creation from the nearest ancestor
/// with a creation record (the hereditary rule).
pub fn when_created(db: &CuratedTree, node: NodeId) -> Option<TxnId> {
    let created_in = |n: NodeId| {
        db.prov
            .direct(n)
            .iter()
            .find(|r| matches!(r.event, ProvEvent::Created(_)))
            .map(|r| r.txn)
    };
    if let Some(t) = created_in(node) {
        return Some(t);
    }
    for a in db.tree.ancestors(node).ok()? {
        if let Some(t) = created_in(a) {
            return Some(t);
        }
    }
    None
}

/// The process by which a value arrived: the flattened origin chain,
/// oldest first — e.g. `[Local (in uniprot), CopiedFrom uniprot:/entry]`.
pub fn how_arrived(db: &CuratedTree, node: NodeId) -> Vec<Origin> {
    db.prov.chain(&db.tree, node)
}

/// `node` and every live node below it, sorted: the operation targets
/// that touch the subtree rooted at `node`. The ancestors of a live node
/// are live, so walking up from a live target reaches `node` exactly
/// when the target is in this set — one walk down instead of a walk up
/// per logged operation.
fn subtree_of(db: &CuratedTree, node: NodeId) -> Vec<NodeId> {
    let mut inside = vec![node];
    let mut stack = vec![node];
    while let Some(n) = stack.pop() {
        if let Ok(children) = db.tree.children(n) {
            inside.extend_from_slice(children);
            stack.extend_from_slice(children);
        }
    }
    inside.sort_unstable();
    inside
}

/// The transaction that last modified the subtree rooted at `node`
/// (any modification, insertion or paste below it counts; deletions
/// count against the parent subtree that contained them).
pub fn last_modified(db: &CuratedTree, node: NodeId) -> Result<Option<TxnId>, TreeError> {
    let inside = subtree_of(db, node);
    let node_alive = db.tree.is_alive(node);
    let mut last = None;
    for txn in &db.log {
        for op in &txn.ops {
            let target = op.node();
            // Every member of `inside` but `node` itself is live.
            let live_inside =
                inside.binary_search(&target).is_ok() && (target != node || node_alive);
            // Deleted nodes: we cannot walk ancestors anymore; a delete
            // op affects the subtree it was in if the deleted node's id
            // was ever under `node` — approximate by attributing deletes
            // to every ancestor query (safe over-approximation used only
            // for last-modified).
            let affected = live_inside
                || (matches!(op, CurationOp::Delete { .. }) && !db.tree.is_alive(target));
            if affected {
                last = Some(txn.id);
            }
        }
    }
    Ok(last)
}

/// The full history of a node: every transaction whose log touches it,
/// with the touching operations.
pub fn history(db: &CuratedTree, node: NodeId) -> Vec<(&Transaction, Vec<&CurationOp>)> {
    let mut out = Vec::new();
    for txn in &db.log {
        let ops: Vec<&CurationOp> = txn.ops.iter().filter(|op| op.node() == node).collect();
        if !ops.is_empty() {
            out.push((txn, ops));
        }
    }
    out
}

/// All curators who have touched the subtree rooted at `node`, in first-
/// touch order — the "authorship" a citation of this entry should credit
/// (§5.2: "It is appropriate to cite the authorship of an entry…").
pub fn curators_of(db: &CuratedTree, node: NodeId) -> Result<Vec<String>, TreeError> {
    let mut out: Vec<String> = Vec::new();
    let inside = subtree_of(db, node);
    for txn in &db.log {
        let touches = txn
            .ops
            .iter()
            .any(|op| inside.binary_search(&op.node()).is_ok());
        if touches && !out.contains(&txn.curator) {
            out.push(txn.curator.clone());
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provstore::StoreMode;
    use cdb_model::Atom;

    fn source_db() -> (CuratedTree, NodeId) {
        let mut src = CuratedTree::new("uniprot", StoreMode::Hereditary);
        let root = src.tree.root();
        let mut t = src.begin("upstream-curator", 1);
        let e = t.insert(root, "entry", None).unwrap();
        t.insert(e, "ac", Some(Atom::Str("Q04917".into()))).unwrap();
        t.insert(e, "seq", Some(Atom::Str("GDREQLL".into())))
            .unwrap();
        t.commit();
        (src, e)
    }

    #[test]
    fn when_created_via_paste() {
        let (src, e) = source_db();
        let clip = src.copy(e).unwrap();
        let mut db = CuratedTree::new("mine", StoreMode::Hereditary);
        let root = db.tree.root();
        let mut t = db.begin("me", 10);
        t.paste(root, &clip).unwrap();
        let paste_txn = t.commit();
        let seq = db.tree.resolve_path("/entry/seq").unwrap();
        assert_eq!(when_created(&db, seq), Some(paste_txn));
    }

    #[test]
    fn how_arrived_shows_the_copy_chain() {
        let (src, e) = source_db();
        let clip = src.copy(e).unwrap();
        let mut db = CuratedTree::new("mine", StoreMode::Hereditary);
        let root = db.tree.root();
        let mut t = db.begin("me", 10);
        let p = t.paste(root, &clip).unwrap();
        t.commit();
        let chain = how_arrived(&db, p);
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0], Origin::Local);
        assert!(matches!(&chain[1], Origin::CopiedFrom { db, .. } if db == "uniprot"));
    }

    #[test]
    fn last_modified_tracks_subtree_edits() {
        let (mut src, e) = source_db();
        assert_eq!(
            last_modified(&src, e).unwrap(),
            Some(TxnId(0)),
            "creation counts"
        );
        let seq = src.tree.resolve_path("/entry/seq").unwrap();
        let mut t = src.begin("upstream-curator", 2);
        t.modify(seq, Some(Atom::Str("GDREQLX".into()))).unwrap();
        let txn = t.commit();
        assert_eq!(last_modified(&src, e).unwrap(), Some(txn));
        // A sibling subtree is untouched by that txn.
        let root = src.tree.root();
        let mut t = src.begin("x", 3);
        let other = t.insert(root, "other", None).unwrap();
        t.commit();
        assert_eq!(last_modified(&src, other).unwrap(), Some(TxnId(2)));
    }

    #[test]
    fn history_lists_touching_transactions() {
        let (mut src, _) = source_db();
        let seq = src.tree.resolve_path("/entry/seq").unwrap();
        let mut t = src.begin("second-curator", 5);
        t.modify(seq, Some(Atom::Str("NEW".into()))).unwrap();
        t.commit();
        let h = history(&src, seq);
        assert_eq!(h.len(), 2, "insert txn and modify txn");
        assert_eq!(h[0].0.curator, "upstream-curator");
        assert_eq!(h[1].0.curator, "second-curator");
    }

    #[test]
    fn curators_of_collects_authorship() {
        let (mut src, e) = source_db();
        let seq = src.tree.resolve_path("/entry/seq").unwrap();
        let mut t = src.begin("second-curator", 5);
        t.modify(seq, Some(Atom::Str("NEW".into()))).unwrap();
        t.commit();
        assert_eq!(
            curators_of(&src, e).unwrap(),
            vec!["upstream-curator".to_string(), "second-curator".to_string()]
        );
    }
}

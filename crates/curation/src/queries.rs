//! Provenance queries over a curated tree (§3.1).
//!
//! "…it is possible to ask questions such as when some data value was
//! first created, by what process did that value arrive in a database,
//! when was a subtree last modified…"
//!
//! [`when_created`] and [`how_arrived`] read the provenance store.
//! [`last_modified`], [`curators_of`] and [`history`] read the log
//! through its inverted form, the touch index [`CuratedTree`] keeps
//! (per node, the transactions that targeted it): each walks the
//! queried subtree, never the whole log. The provenance store cannot
//! serve those three: it keeps no record for a deleted node, so a
//! delete's curator would be lost, and in naive mode it records every
//! pasted node, not only the paste's target.

use std::sync::OnceLock;

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

/// Touch-index entries the provenance queries read: each of
/// [`last_modified`], [`curators_of`] and [`history`] adds, once per
/// call, the number of transaction ids it read off the index.
fn touches_read() -> &'static cdb_obs::Counter {
    static READ: OnceLock<cdb_obs::Counter> = OnceLock::new();
    READ.get_or_init(|| cdb_obs::global().counter("curation.prov.touches_read"))
}

/// `node` and every live node below it: the nodes whose touches make
/// up the history of the subtree rooted at `node`. Only `node` itself
/// may be dead (a dead node has no children to walk).
fn subtree_of(db: &CuratedTree, node: NodeId) -> Vec<NodeId> {
    let mut inside = vec![node];
    let mut stack = vec![node];
    while let Some(n) = stack.pop() {
        if let Ok(children) = db.tree.children(n) {
            inside.extend_from_slice(children);
            stack.extend_from_slice(children);
        }
    }
    inside
}

/// The transaction that last modified the subtree rooted at `node`
/// (any modification, insertion or paste below it counts; deletions
/// count against the parent subtree that contained them).
///
/// Read off the touch index ([`CuratedTree`]): the newest touch of each
/// node in the subtree — `node` itself only while it is alive — so the
/// cost follows the subtree, not the log. A deleted node can no longer
/// be walked to, so every delete is attributed to every subtree: the
/// answer is at least the last logged delete (a safe
/// over-approximation, used only here). After a cut of the log
/// ([`CuratedTree::base_txn_id`]) only the transactions after the cut
/// count.
pub fn last_modified(db: &CuratedTree, node: NodeId) -> Result<Option<TxnId>, TreeError> {
    let node_alive = db.tree.is_alive(node);
    let mut last = db.last_delete();
    let mut read = 0;
    for n in subtree_of(db, node) {
        if n == node && !node_alive {
            continue;
        }
        if let Some(&t) = db.touches(n).last() {
            read += 1;
            last = last.max(Some(t));
        }
    }
    touches_read().add(read);
    Ok(last)
}

/// The full history of a node: every transaction whose log touches it,
/// with the touching operations — its touch-index entry, each
/// transaction found by id ([`CuratedTree::txn`]).
pub fn history(db: &CuratedTree, node: NodeId) -> Vec<(&Transaction, Vec<&CurationOp>)> {
    let touches = db.touches(node);
    touches_read().add(touches.len() as u64);
    touches
        .iter()
        .map(|&id| {
            let txn = db.txn(id).expect("an indexed transaction is logged");
            let ops = txn.ops.iter().filter(|op| op.node() == node).collect();
            (txn, ops)
        })
        .collect()
}

/// All curators who have touched the subtree rooted at `node`, in first-
/// touch order — the "authorship" a citation of this entry should credit
/// (§5.2: "It is appropriate to cite the authorship of an entry…").
///
/// The transactions are the sorted union of the touches of `node` and
/// of every live node below it, read off the touch index; ids increase
/// along the log, so ascending ids are first-touch order.
pub fn curators_of(db: &CuratedTree, node: NodeId) -> Result<Vec<String>, TreeError> {
    curators_through(db, node, TxnId(u64::MAX))
}

/// [`curators_of`] as of transaction `last`: only the touches at or
/// before it count, so a curator who first touched the subtree later is
/// not among them. The subtree is still the live one.
pub fn curators_through(
    db: &CuratedTree,
    node: NodeId,
    last: TxnId,
) -> Result<Vec<String>, TreeError> {
    let mut txns: Vec<TxnId> = Vec::new();
    for n in subtree_of(db, node) {
        let touches = db.touches(n);
        txns.extend_from_slice(&touches[..touches.partition_point(|&t| t <= last)]);
    }
    touches_read().add(txns.len() as u64);
    txns.sort_unstable();
    txns.dedup();
    let mut out: Vec<String> = Vec::new();
    for id in txns {
        let curator = &db
            .txn(id)
            .expect("an indexed transaction is logged")
            .curator;
        if !out.contains(curator) {
            out.push(curator.clone());
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

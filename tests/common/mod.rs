//! Oracles shared by the integration suites.

use std::collections::{BTreeMap, BTreeSet};

use cdb_archive::Archive;
use cdb_core::{DbError, DbState, EntryRegistry};
use cdb_curation::ops::CuratedTree;
use cdb_curation::tree::TreeError;
use cdb_curation::{queries, CurationOp, NodeId, Transaction, TxnId};
use cdb_model::Atom;

/// The full-export oracle for the archive: each release exported whole
/// by `DbState::export` and merged by `Archive::add_version` into an
/// archive of its own. The engine's archive — merged by delta at
/// publish, rebuilt on open, carried by a checkpoint — must encode as
/// this one does. (Not every suite that includes this module
/// publishes.)
#[allow(dead_code)]
pub struct FullMerge(pub Archive);

#[allow(dead_code)]
impl FullMerge {
    /// An oracle with no releases, named and keyed as `s`'s archive.
    pub fn new(s: &DbState) -> Self {
        FullMerge(Archive::new(s.name(), s.archive().spec().clone()))
    }

    /// Merges `s` as it is now, whole, as the release `label`.
    pub fn publish(&mut self, s: &DbState, label: &str) {
        let release = s.export().expect("exporting a release");
        self.0
            .add_version(&release, label)
            .expect("merging a release");
    }
}

/// An index's postings: value → keys of the entries holding it.
pub type Postings = BTreeMap<Atom, BTreeSet<String>>;

/// The maintained postings of the index on `field` (empty when none is
/// registered).
#[allow(dead_code)]
pub fn postings(s: &DbState, field: &str) -> Postings {
    let idx = s.field_index(field).into_iter();
    let all = idx.flat_map(|idx| idx.postings());
    all.map(|(v, keys)| (v.clone(), keys.clone())).collect()
}

/// The derived state of `s` — the primary index and every registered
/// index — equals a rebuild from its tree, computed from public reads:
/// - each key a scan of the root's children finds is addressed to the
///   node the scan found it on, and the row count equals the scan's;
/// - every identifier in `ids` the scan did not find — never issued,
///   deleted, absorbed, split away, or live on another shard — is
///   `NoSuchEntry`;
/// - every index posts exactly the scanned entries, the key field as
///   `Str(key)` and a missing field as `Unit`;
/// - the lifecycle registry — fates and the survivor → merges map
///   behind `secondary_ids_at` — equals a fold of `record` over its
///   event log;
/// - every scanned entry's `last_modified` and `curators_of`, read off
///   the log's touch index, equal the folds over the whole log
///   ([`fold_last_modified`], [`fold_curators_of`]).
#[allow(dead_code)]
pub fn check_derived<'a>(
    s: &DbState,
    ids: impl IntoIterator<Item = &'a String>,
) -> Result<(), String> {
    let tree = &s.curated.tree;
    let value = |node, field: &str| {
        let child = tree.child_by_label(node, field).unwrap();
        child.and_then(|c| tree.value(c).unwrap().cloned())
    };
    let mut scanned = BTreeMap::new();
    for &entry in tree.children(tree.root()).unwrap() {
        if let Some(Atom::Str(key)) = value(entry, s.key_field()) {
            scanned.entry(key).or_insert(entry);
        }
    }
    for (key, node) in &scanned {
        if s.entry_node(key) != Ok(*node) {
            return Err(format!(
                "{key} is at {node} but addressed as {:?}",
                s.entry_node(key)
            ));
        }
    }
    let indexed = s.planner_stats(&[]).rel("entries").map(|r| r.rows);
    if indexed != Some(scanned.len() as u64) {
        return Err(format!(
            "{indexed:?} keys indexed, {} entries in the tree",
            scanned.len()
        ));
    }
    for id in ids.into_iter().filter(|id| !scanned.contains_key(*id)) {
        if !matches!(s.entry_node(id), Err(DbError::NoSuchEntry(_))) {
            return Err(format!(
                "{id} is not in the tree but addressed as {:?}",
                s.entry_node(id)
            ));
        }
    }
    for (key, &node) in &scanned {
        let (have, want) = (
            queries::last_modified(&s.curated, node),
            fold_last_modified(&s.curated, node),
        );
        if have != want {
            return Err(format!("{key}: last_modified {have:?}, the fold {want:?}"));
        }
        let (have, want) = (
            queries::curators_of(&s.curated, node),
            fold_curators_of(&s.curated, node),
        );
        if have != want {
            return Err(format!("{key}: curators_of {have:?}, the fold {want:?}"));
        }
    }
    let folded: EntryRegistry = s.lifecycle.events().iter().cloned().collect();
    if folded != s.lifecycle {
        return Err("the lifecycle registry drifted from a fold of its events".into());
    }
    for field in s.index_fields() {
        let mut want = Postings::new();
        for (key, &node) in &scanned {
            let v = if field == s.key_field() {
                Atom::Str(key.clone())
            } else {
                value(node, &field).unwrap_or(Atom::Unit)
            };
            want.entry(v).or_default().insert(key.clone());
        }
        let have = postings(s, &field);
        if have != want {
            return Err(format!(
                "index on {field} drifted from the tree\n  have {have:?}\n  want {want:?}"
            ));
        }
    }
    Ok(())
}

// ------------------------------------------------ provenance oracle

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

/// `queries::last_modified` as a fold over every logged transaction:
/// the oracle for the touch index.
pub fn fold_last_modified(db: &CuratedTree, node: NodeId) -> Result<Option<TxnId>, TreeError> {
    let inside = subtree_of(db, node);
    let node_alive = db.tree.is_alive(node);
    let mut last = None;
    for txn in db.log() {
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

/// `queries::history` as a fold over every logged transaction.
#[allow(dead_code)]
pub fn fold_history(db: &CuratedTree, node: NodeId) -> Vec<(&Transaction, Vec<&CurationOp>)> {
    let mut out = Vec::new();
    for txn in db.log() {
        let ops: Vec<&CurationOp> = txn.ops.iter().filter(|op| op.node() == node).collect();
        if !ops.is_empty() {
            out.push((txn, ops));
        }
    }
    out
}

/// `queries::curators_of` as a fold over every logged transaction.
pub fn fold_curators_of(db: &CuratedTree, node: NodeId) -> Result<Vec<String>, TreeError> {
    let mut out: Vec<String> = Vec::new();
    let inside = subtree_of(db, node);
    for txn in db.log() {
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

/// Every live node of `db` and every node an operation in its log
/// targets (dead ones included) answers `last_modified`, `curators_of`
/// and `history` as the folds do.
#[allow(dead_code)]
pub fn check_provenance(db: &CuratedTree) -> Result<(), String> {
    let mut nodes = BTreeSet::new();
    let mut stack = vec![db.tree.root()];
    while let Some(n) = stack.pop() {
        nodes.insert(n);
        stack.extend_from_slice(db.tree.children(n).unwrap());
    }
    nodes.extend(
        db.log()
            .iter()
            .flat_map(|t| t.ops.iter().map(CurationOp::node)),
    );
    for node in nodes {
        let have = queries::last_modified(db, node);
        let want = fold_last_modified(db, node);
        if have != want {
            return Err(format!("{node}: last_modified {have:?}, the fold {want:?}"));
        }
        let have = queries::curators_of(db, node);
        let want = fold_curators_of(db, node);
        if have != want {
            return Err(format!("{node}: curators_of {have:?}, the fold {want:?}"));
        }
        if queries::history(db, node) != fold_history(db, node) {
            return Err(format!("{node}: history differs from the fold"));
        }
    }
    Ok(())
}

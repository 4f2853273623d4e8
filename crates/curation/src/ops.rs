//! Curation operations and transactions.
//!
//! §3.1: curation is "entirely familiar to anyone who has constructed
//! bibliographies": find an entry elsewhere, **copy** it, **paste** it
//! into one's own database, then **correct** it. Each basic operation is
//! recorded inside a [`Transaction`] attributed to a curator at a
//! timestamp; the provenance store (see [`crate::provstore`]) derives
//! per-node provenance from these records.

use std::fmt;

use cdb_model::{Atom, ChunkVec};

use crate::provstore::{Origin, ProvStore};
use crate::tree::{NodeId, TreeDb, TreeError};

/// A transaction identifier (monotonic per database).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// One basic curation operation, as recorded in the transaction log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CurationOp {
    /// A fresh node was inserted (new data, typed in by the curator).
    Insert {
        /// The created node.
        node: NodeId,
        /// The parent it was attached to (recorded so the log is
        /// replayable — see [`crate::replay`]).
        parent: NodeId,
        /// Its label.
        label: String,
        /// Its atomic payload, if a leaf.
        value: Option<Atom>,
    },
    /// A node's atomic payload was modified.
    Modify {
        /// The modified node.
        node: NodeId,
        /// The previous payload.
        old: Option<Atom>,
        /// The new payload.
        new: Option<Atom>,
    },
    /// A subtree was deleted.
    Delete {
        /// The deleted subtree root.
        node: NodeId,
    },
    /// A subtree copied from elsewhere was pasted here.
    Paste {
        /// The pasted subtree's new root node.
        node: NodeId,
        /// The parent it was attached to.
        parent: NodeId,
        /// Where the data came from.
        origin: Origin,
        /// The pasted content, as captured on the clipboard. Recording
        /// the content (not just a reference) is what makes the log
        /// *replayable* — see [`crate::replay`], which answers §5.1's
        /// "whether one could create an archive directly from the
        /// transaction log".
        snapshot: ClipNode,
    },
}

impl CurationOp {
    /// The node this operation primarily concerns.
    pub fn node(&self) -> NodeId {
        match self {
            CurationOp::Insert { node, .. }
            | CurationOp::Modify { node, .. }
            | CurationOp::Delete { node }
            | CurationOp::Paste { node, .. } => *node,
        }
    }
}

/// A committed transaction: who, when, and the operation log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// The transaction id.
    pub id: TxnId,
    /// The curator who performed it.
    pub curator: String,
    /// A logical timestamp (supplied by the caller; the engine never
    /// reads wall-clock time).
    pub time: u64,
    /// The operations, in execution order.
    pub ops: Vec<CurationOp>,
}

/// A subtree captured by a copy operation, carrying its provenance.
///
/// §3: "When data is copied between applications or systems, its
/// annotation, context, and especially where-provenance information is
/// lost." The clipboard is exactly the artifact that *prevents* that
/// loss: it snapshots both the data and the source's provenance chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clipboard {
    /// The copied subtree (labels, values, structure).
    pub snapshot: ClipNode,
    /// The source database name.
    pub source_db: String,
    /// The source path at copy time.
    pub source_path: String,
    /// The provenance chain of the copied subtree root in the source,
    /// oldest first (the source's own origins, so that pasting preserves
    /// the full derivation history across databases).
    pub source_chain: Vec<Origin>,
}

/// A node snapshot inside a clipboard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClipNode {
    /// The node label.
    pub label: String,
    /// The node payload.
    pub value: Option<Atom>,
    /// Child snapshots.
    pub children: Vec<ClipNode>,
}

impl ClipNode {
    /// Number of nodes in this snapshot.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(ClipNode::size).sum::<usize>()
    }
}

/// A curated database: the tree plus its transaction log and provenance
/// store.
///
/// The log also has an inverted form, the *touch index*: per node id,
/// the transactions with an operation targeting that node. It is
/// derived state, appended to at the one place the log grows
/// ([`CuratedTree::adopt_unapplied`], which [`Txn::commit`] shares) and
/// rebuilt in one pass by [`CuratedTree::from_parts_at`]; it is never
/// persisted. The
/// provenance queries of [`crate::queries`] read it, so their cost
/// follows the queried subtree, not the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CuratedTree {
    /// The underlying tree.
    pub tree: TreeDb,
    /// The committed transaction log. May be a *tail* of the full
    /// history when the database was recovered from a checkpoint whose
    /// covered log was truncated (`Retention::Reclaim`); `base_txn`
    /// then records where the tail begins. Full chunks are sealed and
    /// shared by every clone; a commit appends to the open last chunk
    /// and copies only that one while a clone shares it. Private, so
    /// nothing appends around the touch index: read it through
    /// [`CuratedTree::log`].
    log: ChunkVec<Transaction>,
    /// The provenance store.
    pub prov: ProvStore,
    next_txn: u64,
    /// Last transaction id folded into the state before `log` begins
    /// (`None` when `log` is the full history).
    base_txn: Option<TxnId>,
    /// The touch index: slot `i` lists, ascending and each once, the
    /// logged transactions with an operation of any kind (a delete
    /// included) targeting node `i`. At most one id per logged op;
    /// shares chunks with every clone, as the provenance store does.
    touched: ChunkVec<Touches>,
    /// The last logged transaction holding a delete.
    last_delete: Option<TxnId>,
}

/// One node's slot of the touch index. Most nodes are touched once,
/// by the transaction that created them, so a single touch is held
/// inline: it needs no allocation, and a chunk copied for a write
/// copies no list for it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
enum Touches {
    #[default]
    None,
    One(TxnId),
    Many(Vec<TxnId>),
}

impl Touches {
    fn as_slice(&self) -> &[TxnId] {
        match self {
            Touches::None => &[],
            Touches::One(id) => std::slice::from_ref(id),
            Touches::Many(ids) => ids,
        }
    }

    /// Appends `id` unless it is already the newest touch.
    fn add(&mut self, id: TxnId) {
        match self {
            Touches::None => *self = Touches::One(id),
            Touches::One(t) if *t == id => {}
            Touches::One(t) => *self = Touches::Many(vec![*t, id]),
            Touches::Many(ids) if ids.last() == Some(&id) => {}
            Touches::Many(ids) => ids.push(id),
        }
    }
}

/// Indexes one logged transaction: its id joins the touches of every
/// node it targets, once per node, and it becomes the last delete if it
/// holds one.
fn index_txn(touched: &mut ChunkVec<Touches>, last_delete: &mut Option<TxnId>, txn: &Transaction) {
    for op in &txn.ops {
        let node = op.node().0;
        while touched.len() <= node {
            touched.push(Touches::None);
        }
        touched
            .get_mut(node)
            .expect("slot just ensured")
            .add(txn.id);
        if matches!(op, CurationOp::Delete { .. }) {
            *last_delete = Some(txn.id);
        }
    }
}

/// The touch index of a whole log, built in one pass.
fn index_log(log: &ChunkVec<Transaction>) -> (ChunkVec<Touches>, Option<TxnId>) {
    let (mut touched, mut last_delete) = (ChunkVec::new(), None);
    for txn in log {
        index_txn(&mut touched, &mut last_delete, txn);
    }
    (touched, last_delete)
}

impl CuratedTree {
    /// Creates an empty curated database with the given provenance-store
    /// mode.
    pub fn new(name: impl Into<String>, mode: crate::provstore::StoreMode) -> Self {
        CuratedTree {
            tree: TreeDb::new(name),
            log: ChunkVec::new(),
            prov: ProvStore::new(mode),
            next_txn: 0,
            base_txn: None,
            touched: ChunkVec::new(),
            last_delete: None,
        }
    }

    /// Begins a transaction. Operations are applied immediately to the
    /// tree; the record is committed (appended to the log and the
    /// provenance store) by [`Txn::commit`].
    pub fn begin(&mut self, curator: impl Into<String>, time: u64) -> Txn<'_> {
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        Txn {
            db: self,
            txn: Transaction {
                id,
                curator: curator.into(),
                time,
                ops: Vec::new(),
            },
        }
    }

    /// Copies a subtree of this database to a clipboard (non-mutating).
    pub fn copy(&self, node: NodeId) -> Result<Clipboard, TreeError> {
        Ok(Clipboard {
            snapshot: self.snapshot(node)?,
            source_db: self.tree.name().to_owned(),
            source_path: self.tree.path_of(node)?,
            source_chain: self.prov.chain(&self.tree, node),
        })
    }

    fn snapshot(&self, node: NodeId) -> Result<ClipNode, TreeError> {
        Ok(ClipNode {
            label: self.tree.label(node)?.to_owned(),
            value: self.tree.value(node)?.cloned(),
            children: self
                .tree
                .children(node)?
                .to_vec()
                .into_iter()
                .map(|c| self.snapshot(c))
                .collect::<Result<_, _>>()?,
        })
    }

    /// Reassembles a curated database whose `log` is only the *tail*
    /// of its history: everything through `base_txn` is already folded
    /// into `tree` and `prov`, and the covered transaction records are
    /// gone (checkpoint-anchored truncation under `Retention::Reclaim`).
    /// Transaction ids continue after the tail, or after `base_txn`
    /// when the tail is empty.
    pub fn from_parts_at(
        tree: TreeDb,
        log: impl Into<ChunkVec<Transaction>>,
        prov: ProvStore,
        base_txn: Option<TxnId>,
    ) -> Self {
        let log = log.into();
        let next_txn = log
            .last()
            .map(|t| t.id.0 + 1)
            .or(base_txn.map(|t| t.0 + 1))
            .unwrap_or(0);
        let (touched, last_delete) = index_log(&log);
        CuratedTree {
            tree,
            log,
            prov,
            next_txn,
            base_txn,
            touched,
            last_delete,
        }
    }

    /// Appends an already-committed transaction to the log *without*
    /// applying it — used by recovery for transactions whose effects are
    /// already covered by a loaded checkpoint. Every append to the log
    /// comes through here, and indexes the transaction's targets.
    pub fn adopt_unapplied(&mut self, txn: Transaction) {
        self.next_txn = txn.id.0 + 1;
        index_txn(&mut self.touched, &mut self.last_delete, &txn);
        self.log.push(txn);
    }

    /// The committed transaction log, oldest first (a tail of the
    /// history after a cut: see [`CuratedTree::base_txn_id`]). Full
    /// chunks are shared by every clone; index it, or walk it in place
    /// with `iter()` / `iter_from(n)`.
    pub fn log(&self) -> &ChunkVec<Transaction> {
        &self.log
    }

    /// The logged transaction `id`, found by binary search (ids
    /// increase along the log); `None` when it is not in the log.
    pub fn txn(&self, id: TxnId) -> Option<&Transaction> {
        let t = self.log.get(self.partition(|t| t < id))?;
        (t.id == id).then_some(t)
    }

    /// The logged transactions after `after` (all of them for `None`),
    /// oldest first: a binary search, then a walk in place.
    pub fn txns_after(&self, after: Option<TxnId>) -> impl Iterator<Item = &Transaction> {
        self.log.iter_from(self.partition(|t| Some(t) <= after))
    }

    /// The number of logged transactions whose ids satisfy `before`, a
    /// predicate that holds for a prefix of the log (ids increase).
    fn partition(&self, before: impl Fn(TxnId) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.log.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if before(self.log[mid].id) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The touch index of `node`: every logged transaction with an
    /// operation targeting it (a delete included), ascending, each
    /// once. A dead node keeps its touches.
    pub(crate) fn touches(&self, node: NodeId) -> &[TxnId] {
        self.touched.get(node.0).map_or(&[], Touches::as_slice)
    }

    /// The last logged transaction that holds a delete.
    pub(crate) fn last_delete(&self) -> Option<TxnId> {
        self.last_delete
    }

    /// Whether the touch index equals its rebuild from the log — the
    /// invariant stress builds assert after every commit.
    pub fn touch_index_is_derived(&self) -> bool {
        let (touched, last_delete) = index_log(&self.log);
        touched == self.touched && last_delete == self.last_delete
    }

    /// The committed transactions as a list of borrows (one pointer
    /// per transaction), for callers that slice or index it. A walk
    /// over the log reads [`CuratedTree::log`] in place instead.
    pub fn transactions(&self) -> Vec<&Transaction> {
        self.log.iter().collect()
    }

    /// The id of the most recently committed transaction, if any —
    /// falling back to the truncated-history base when the tail log is
    /// empty.
    pub fn last_txn_id(&self) -> Option<TxnId> {
        self.log.last().map(|t| t.id).or(self.base_txn)
    }

    /// Where the in-memory log begins: the last transaction id already
    /// folded into the state before `log`, or `None` when `log` is the
    /// full history.
    pub fn base_txn_id(&self) -> Option<TxnId> {
        self.base_txn
    }
}

/// An open transaction.
pub struct Txn<'a> {
    db: &'a mut CuratedTree,
    txn: Transaction,
}

impl<'a> Txn<'a> {
    /// The transaction id.
    pub fn id(&self) -> TxnId {
        self.txn.id
    }

    /// Read access to the tree mid-transaction (operations apply
    /// immediately, so this reflects the in-progress state).
    pub fn tree(&self) -> &TreeDb {
        &self.db.tree
    }

    /// Inserts a fresh node (newly-authored data).
    pub fn insert(
        &mut self,
        parent: NodeId,
        label: impl Into<String>,
        value: Option<Atom>,
    ) -> Result<NodeId, TreeError> {
        let label = label.into();
        let node = self
            .db
            .tree
            .create_node(parent, label.clone(), value.clone())?;
        self.db.prov.on_insert(node, self.txn.id);
        self.txn.ops.push(CurationOp::Insert {
            node,
            parent,
            label,
            value,
        });
        Ok(node)
    }

    /// Modifies a node's payload.
    pub fn modify(&mut self, node: NodeId, new: Option<Atom>) -> Result<(), TreeError> {
        let old = self.db.tree.set_value(node, new.clone())?;
        self.db.prov.on_modify(node, self.txn.id);
        self.txn.ops.push(CurationOp::Modify { node, old, new });
        Ok(())
    }

    /// Deletes a subtree.
    pub fn delete(&mut self, node: NodeId) -> Result<(), TreeError> {
        self.db.tree.delete_subtree(node)?;
        self.txn.ops.push(CurationOp::Delete { node });
        Ok(())
    }

    /// Pastes a clipboard under `parent`, recording where it came from.
    pub fn paste(&mut self, parent: NodeId, clip: &Clipboard) -> Result<NodeId, TreeError> {
        let node = paste_snapshot(&mut self.db.tree, parent, &clip.snapshot)?;
        let origin = Origin::CopiedFrom {
            db: clip.source_db.clone(),
            path: clip.source_path.clone(),
            chain: clip.source_chain.clone(),
        };
        self.db
            .prov
            .on_paste(node, self.txn.id, origin.clone(), clip.snapshot.size());
        self.txn.ops.push(CurationOp::Paste {
            node,
            parent,
            origin,
            snapshot: clip.snapshot.clone(),
        });
        Ok(node)
    }

    /// Commits: appends the record to the database log.
    pub fn commit(self) -> TxnId {
        let id = self.txn.id;
        self.db.adopt_unapplied(self.txn);
        id
    }
}

/// Creates the nodes of `snap` under `parent`, depth first — the tree
/// edit of a paste, shared by [`Txn::paste`] and log replay
/// ([`crate::replay::apply`]), so both allocate the same node ids.
pub(crate) fn paste_snapshot(
    tree: &mut TreeDb,
    parent: NodeId,
    snap: &ClipNode,
) -> Result<NodeId, TreeError> {
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

    fn new_db(name: &str) -> CuratedTree {
        CuratedTree::new(name, StoreMode::Hereditary)
    }

    #[test]
    fn insert_modify_delete_are_logged() {
        let mut db = new_db("d");
        let root = db.tree.root();
        let mut t = db.begin("alice", 100);
        let e = t.insert(root, "entry", None).unwrap();
        let n = t.insert(e, "name", Some(Atom::Str("x".into()))).unwrap();
        t.modify(n, Some(Atom::Str("y".into()))).unwrap();
        t.commit();
        assert_eq!(db.log().len(), 1);
        assert_eq!(db.log()[0].ops.len(), 3);
        assert_eq!(db.log()[0].curator, "alice");
        let mut t2 = db.begin("bob", 200);
        t2.delete(e).unwrap();
        t2.commit();
        assert_eq!(db.log()[1].ops, vec![CurationOp::Delete { node: e }]);
        assert!(!db.tree.is_alive(n));
    }

    #[test]
    fn copy_paste_between_databases() {
        // Build a source database with an entry.
        let mut src = new_db("uniprot");
        let root = src.tree.root();
        let mut t = src.begin("curator1", 1);
        let e = t.insert(root, "entry", None).unwrap();
        t.insert(e, "ac", Some(Atom::Str("Q04917".into()))).unwrap();
        t.insert(e, "de", Some(Atom::Str("14-3-3 PROTEIN ETA".into())))
            .unwrap();
        t.commit();

        // Copy it into a target database.
        let clip = src.copy(e).unwrap();
        assert_eq!(clip.snapshot.size(), 3);
        assert_eq!(clip.source_db, "uniprot");
        assert_eq!(clip.source_path, "/entry");

        let mut dst = new_db("mydb");
        let droot = dst.tree.root();
        let mut t = dst.begin("me", 2);
        let pasted = t.paste(droot, &clip).unwrap();
        t.commit();

        assert_eq!(dst.tree.label(pasted).unwrap(), "entry");
        let ac = dst.tree.resolve_path("/entry/ac").unwrap();
        assert_eq!(
            dst.tree.value(ac).unwrap(),
            Some(&Atom::Str("Q04917".into()))
        );
        // The paste op recorded the origin.
        match &dst.log()[0].ops[0] {
            CurationOp::Paste {
                origin, snapshot, ..
            } => {
                assert_eq!(snapshot.size(), 3);
                match origin {
                    Origin::CopiedFrom { db, path, .. } => {
                        assert_eq!(db, "uniprot");
                        assert_eq!(path, "/entry");
                    }
                    other => panic!("unexpected origin {other:?}"),
                }
            }
            other => panic!("unexpected op {other:?}"),
        }
    }

    #[test]
    fn txn_ids_are_monotonic() {
        let mut db = new_db("d");
        let a = db.begin("x", 1).commit();
        let b = db.begin("x", 2).commit();
        assert!(b > a);
    }

    #[test]
    fn modify_records_old_and_new() {
        let mut db = new_db("d");
        let root = db.tree.root();
        let mut t = db.begin("a", 1);
        let n = t.insert(root, "v", Some(Atom::Int(1))).unwrap();
        t.commit();
        let mut t = db.begin("a", 2);
        t.modify(n, Some(Atom::Int(2))).unwrap();
        t.commit();
        match &db.log()[1].ops[0] {
            CurationOp::Modify { old, new, .. } => {
                assert_eq!(old, &Some(Atom::Int(1)));
                assert_eq!(new, &Some(Atom::Int(2)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

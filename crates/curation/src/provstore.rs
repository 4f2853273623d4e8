//! The provenance store, with the two §3.1 cost mitigations.
//!
//! > "The cost of storing such provenance information appears to be
//! > prohibitive if done naively because some trail of information needs
//! > to be kept of each node in the tree. However this can be mitigated
//! > by two observations: first that provenance information is
//! > *hereditary*: unless a node in the tree has been modified, its
//! > provenance is that of its parent node. Second, one can collect a
//! > sequence of basic operations into a transaction, and there is a
//! > description of the effects of the transaction that is shorter than
//! > recording the log of basic operations."
//!
//! [`StoreMode::Naive`] keeps a record for every node touched (the
//! baseline); [`StoreMode::Hereditary`] records only at the roots of
//! change, and lookups walk up the tree. [`squash`] implements the
//! transaction-level compression.
//!
//! Records are kept per node id in a [`ChunkVec`] (node ids are dense
//! arena indices): a clone of the store shares every chunk, and a new
//! record copies only the chunk of the node it lands on.

use std::collections::BTreeMap;
use std::fmt;

use cdb_model::ChunkVec;

use crate::ops::{CurationOp, TxnId};
use crate::tree::{NodeId, TreeDb};

/// Where a piece of data came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Origin {
    /// Authored locally (typed in by a curator).
    Local,
    /// Copied from another database.
    CopiedFrom {
        /// Source database name.
        db: String,
        /// Source path at copy time.
        path: String,
        /// The source's own provenance chain at copy time, oldest first.
        chain: Vec<Origin>,
    },
    /// An external, non-database source (a paper, a web page).
    External {
        /// A citation-ish description of the source.
        source: String,
    },
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Origin::Local => write!(f, "local"),
            Origin::CopiedFrom { db, path, .. } => write!(f, "copied from {db}:{path}"),
            Origin::External { source } => write!(f, "external: {source}"),
        }
    }
}

/// One provenance record on a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvRecord {
    /// The transaction that produced this record.
    pub txn: TxnId,
    /// What happened.
    pub event: ProvEvent,
}

/// The kind of provenance event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProvEvent {
    /// Node created fresh.
    Created(Origin),
    /// Node's payload modified.
    Modified,
}

/// Which storage discipline the store uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreMode {
    /// A record on every node of every touched subtree (the baseline
    /// whose cost §3.1 calls prohibitive).
    Naive,
    /// Records only at the roots of change; descendants inherit.
    Hereditary,
}

/// The provenance store.
///
/// Equality compares mode and every stored record — the crash-recovery
/// tests assert a recovered store equals the uncrashed one exactly.
/// Records are never removed, so the slot vector always ends at the
/// highest node holding one and equal record sets are equal slot
/// vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvStore {
    mode: StoreMode,
    /// Slot `i`: the records stored directly on node `i` (empty for a
    /// node without any).
    records: ChunkVec<Vec<ProvRecord>>,
    /// How many slots hold at least one record.
    keyed: usize,
}

impl ProvStore {
    /// An empty store.
    pub fn new(mode: StoreMode) -> Self {
        ProvStore {
            mode,
            records: ChunkVec::new(),
            keyed: 0,
        }
    }

    /// The storage mode.
    pub fn mode(&self) -> StoreMode {
        self.mode
    }

    fn push(&mut self, node: NodeId, rec: ProvRecord) {
        while self.records.len() <= node.0 {
            self.records.push(Vec::new());
        }
        let slot = self.records.get_mut(node.0).expect("slot just ensured");
        if slot.is_empty() {
            self.keyed += 1;
        }
        slot.push(rec);
    }

    /// Records a fresh insert.
    pub fn on_insert(&mut self, node: NodeId, txn: TxnId) {
        self.push(
            node,
            ProvRecord {
                txn,
                event: ProvEvent::Created(Origin::Local),
            },
        );
    }

    /// Records a modification.
    pub fn on_modify(&mut self, node: NodeId, txn: TxnId) {
        self.push(
            node,
            ProvRecord {
                txn,
                event: ProvEvent::Modified,
            },
        );
    }

    /// Records a paste of a subtree of `size` nodes rooted at `node`.
    ///
    /// Hereditary mode records once at the pasted root; naive mode
    /// attaches a record to every pasted node. The `size` parameter is
    /// used only by the naive accounting when the tree walk is not
    /// available at call time.
    pub fn on_paste(&mut self, node: NodeId, txn: TxnId, origin: Origin, size: usize) {
        match self.mode {
            StoreMode::Hereditary => {
                self.push(
                    node,
                    ProvRecord {
                        txn,
                        event: ProvEvent::Created(origin),
                    },
                );
            }
            StoreMode::Naive => {
                // One record per pasted node. Node ids of a pasted
                // subtree are contiguous starting at `node` (arena
                // allocation order).
                for i in 0..size {
                    self.push(
                        NodeId(node_index(node) + i),
                        ProvRecord {
                            txn,
                            event: ProvEvent::Created(origin.clone()),
                        },
                    );
                }
            }
        }
    }

    /// The records stored *directly* on a node.
    pub fn direct(&self, node: NodeId) -> &[ProvRecord] {
        self.records.get(node.0).map_or(&[], Vec::as_slice)
    }

    /// The record slots, borrowed — for the wire codec's comparison of
    /// two stores by shared chunk.
    pub(crate) fn raw_slots(&self) -> &ChunkVec<Vec<ProvRecord>> {
        &self.records
    }

    /// The effective provenance records of a node: its own, or —
    /// hereditarily — the nearest recorded ancestor's.
    pub fn effective<'a>(&'a self, tree: &TreeDb, node: NodeId) -> &'a [ProvRecord] {
        if !self.direct(node).is_empty() {
            return self.direct(node);
        }
        if let Ok(ancestors) = tree.ancestors(node) {
            for a in ancestors {
                if !self.direct(a).is_empty() {
                    return self.direct(a);
                }
            }
        }
        &[]
    }

    /// The provenance *chain* of a node: the origins of its effective
    /// creation records, oldest first, flattening cross-database copy
    /// chains.
    pub fn chain(&self, tree: &TreeDb, node: NodeId) -> Vec<Origin> {
        let mut out = Vec::new();
        for rec in self.effective(tree, node) {
            if let ProvEvent::Created(origin) = &rec.event {
                if let Origin::CopiedFrom { chain, .. } = origin {
                    out.extend(chain.iter().cloned());
                }
                out.push(origin.clone());
            }
        }
        out
    }

    /// The nodes holding records, in id order, with their records — the
    /// wire codec's view (`crate::wire`), read in place.
    pub(crate) fn raw_records(&self) -> impl Iterator<Item = (NodeId, &[ProvRecord])> {
        self.records
            .iter()
            .enumerate()
            .filter(|(_, recs)| !recs.is_empty())
            .map(|(i, recs)| (NodeId(i), recs.as_slice()))
    }

    /// How many nodes hold records (the length [`ProvStore::raw_records`]
    /// yields).
    pub(crate) fn keyed_nodes(&self) -> usize {
        self.keyed
    }

    /// Rebuilds a store from decoded `(node, records)` parts
    /// (`crate::wire`): the slots are laid out in one vector and moved
    /// into chunks, not pushed one by one. Empty record lists are
    /// skipped.
    pub(crate) fn from_raw(
        mode: StoreMode,
        records: impl IntoIterator<Item = (NodeId, Vec<ProvRecord>)>,
    ) -> Self {
        let mut slots: Vec<Vec<ProvRecord>> = Vec::new();
        let mut keyed = 0;
        for (node, recs) in records {
            if recs.is_empty() {
                continue;
            }
            if slots.len() <= node.0 {
                slots.resize_with(node.0 + 1, Vec::new);
            }
            if slots[node.0].is_empty() {
                keyed += 1;
            }
            slots[node.0].extend(recs);
        }
        ProvStore {
            mode,
            records: ChunkVec::from(slots),
            keyed,
        }
    }

    /// Number of records stored (the E6 space metric).
    pub fn record_count(&self) -> usize {
        self.records.iter().map(Vec::len).sum()
    }

    /// Approximate encoded size in bytes: a fixed overhead per record
    /// plus the origin strings (copy chains included — they are what
    /// makes naive storage expensive).
    pub fn encoded_size(&self) -> usize {
        fn origin_size(o: &Origin) -> usize {
            match o {
                Origin::Local => 1,
                Origin::External { source } => 1 + source.len(),
                Origin::CopiedFrom { db, path, chain } => {
                    1 + db.len() + path.len() + chain.iter().map(origin_size).sum::<usize>()
                }
            }
        }
        self.records
            .iter()
            .flatten()
            .map(|r| {
                16 + match &r.event {
                    ProvEvent::Created(o) => origin_size(o),
                    ProvEvent::Modified => 1,
                }
            })
            .sum()
    }
}

fn node_index(n: NodeId) -> usize {
    // NodeId is an index newtype; this is the only place outside `tree`
    // that needs the raw index, for the naive store's contiguity trick.
    n.0
}

/// Squashes a transaction's operation log into the shorter "net effect"
/// description of §3.1:
///
/// * an insert (or paste) followed by deletion of the same node within
///   the transaction cancels entirely (including intervening modifies),
/// * repeated modifications of a node collapse to the last one,
/// * a modification of a node inserted in the same transaction folds
///   into the insert.
pub fn squash(ops: &[CurationOp]) -> Vec<CurationOp> {
    // Pass 1: find nodes created and deleted within the txn.
    let mut created: BTreeMap<NodeId, ()> = BTreeMap::new();
    let mut deleted: BTreeMap<NodeId, ()> = BTreeMap::new();
    for op in ops {
        match op {
            CurationOp::Insert { node, .. } | CurationOp::Paste { node, .. } => {
                created.insert(*node, ());
            }
            CurationOp::Delete { node } => {
                if created.contains_key(node) {
                    deleted.insert(*node, ());
                }
            }
            CurationOp::Modify { .. } => {}
        }
    }
    // Pass 2: rebuild, dropping cancelled ops and folding modifies.
    let mut out: Vec<CurationOp> = Vec::new();
    for op in ops {
        match op {
            CurationOp::Insert {
                node,
                parent,
                label,
                value,
            } => {
                if !deleted.contains_key(node) {
                    out.push(CurationOp::Insert {
                        node: *node,
                        parent: *parent,
                        label: label.clone(),
                        value: value.clone(),
                    });
                }
            }
            CurationOp::Paste {
                node,
                parent,
                origin,
                snapshot,
            } => {
                if !deleted.contains_key(node) {
                    out.push(CurationOp::Paste {
                        node: *node,
                        parent: *parent,
                        origin: origin.clone(),
                        snapshot: snapshot.clone(),
                    });
                }
            }
            CurationOp::Delete { node } => {
                if !deleted.contains_key(node) {
                    out.push(CurationOp::Delete { node: *node });
                }
            }
            CurationOp::Modify { node, old, new } => {
                if deleted.contains_key(node) {
                    continue; // modified then deleted: drop
                }
                // Fold into a prior insert or a prior modify of the node.
                let mut folded = false;
                for prev in out.iter_mut().rev() {
                    match prev {
                        CurationOp::Insert { node: n, value, .. } if n == node => {
                            *value = new.clone();
                            folded = true;
                            break;
                        }
                        CurationOp::Modify {
                            node: n, new: pnew, ..
                        } if n == node => {
                            *pnew = new.clone();
                            folded = true;
                            break;
                        }
                        _ => {}
                    }
                }
                if !folded {
                    out.push(CurationOp::Modify {
                        node: *node,
                        old: old.clone(),
                        new: new.clone(),
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::CuratedTree;
    use cdb_model::Atom;

    #[test]
    fn hereditary_lookup_walks_ancestors() {
        let mut db = CuratedTree::new("d", StoreMode::Hereditary);
        let root = db.tree.root();
        // Paste a three-node subtree built in another db.
        let mut src = CuratedTree::new("s", StoreMode::Hereditary);
        let sroot = src.tree.root();
        let mut t = src.begin("a", 1);
        let e = t.insert(sroot, "entry", None).unwrap();
        t.insert(e, "name", Some(Atom::Str("x".into()))).unwrap();
        t.commit();
        let clip = src.copy(e).unwrap();
        let mut t = db.begin("b", 2);
        let pasted = t.paste(root, &clip).unwrap();
        t.commit();

        let child = db.tree.resolve_path("/entry/name").unwrap();
        // Only the pasted root has a direct record…
        assert_eq!(db.prov.direct(pasted).len(), 1);
        assert!(db.prov.direct(child).is_empty());
        // …but the child's effective provenance is inherited.
        let eff = db.prov.effective(&db.tree, child);
        assert_eq!(eff.len(), 1);
        assert!(matches!(
            &eff[0].event,
            ProvEvent::Created(Origin::CopiedFrom { .. })
        ));
    }

    #[test]
    fn naive_mode_stores_one_record_per_pasted_node() {
        let mut src = CuratedTree::new("s", StoreMode::Hereditary);
        let sroot = src.tree.root();
        let mut t = src.begin("a", 1);
        let e = t.insert(sroot, "entry", None).unwrap();
        for i in 0..4 {
            t.insert(e, format!("f{i}"), Some(Atom::Int(i))).unwrap();
        }
        t.commit();
        let clip = src.copy(e).unwrap();

        let mut naive = CuratedTree::new("n", StoreMode::Naive);
        let mut hered = CuratedTree::new("h", StoreMode::Hereditary);
        let (nr, hr) = (naive.tree.root(), hered.tree.root());
        let mut t = naive.begin("b", 2);
        t.paste(nr, &clip).unwrap();
        t.commit();
        let mut t = hered.begin("b", 2);
        t.paste(hr, &clip).unwrap();
        t.commit();

        assert_eq!(naive.prov.record_count(), 5);
        assert_eq!(hered.prov.record_count(), 1);
        assert!(naive.prov.encoded_size() > hered.prov.encoded_size());
    }

    #[test]
    fn modified_descendant_overrides_inherited_provenance() {
        let mut src = CuratedTree::new("s", StoreMode::Hereditary);
        let sroot = src.tree.root();
        let mut t = src.begin("a", 1);
        let e = t.insert(sroot, "entry", None).unwrap();
        t.insert(e, "name", Some(Atom::Str("x".into()))).unwrap();
        t.commit();
        let clip = src.copy(e).unwrap();

        let mut db = CuratedTree::new("d", StoreMode::Hereditary);
        let root = db.tree.root();
        let mut t = db.begin("b", 2);
        t.paste(root, &clip).unwrap();
        t.commit();
        let name = db.tree.resolve_path("/entry/name").unwrap();
        let mut t = db.begin("c", 3);
        t.modify(name, Some(Atom::Str("y".into()))).unwrap();
        let txn = t.commit();

        let eff = db.prov.effective(&db.tree, name);
        assert_eq!(eff.len(), 1);
        assert_eq!(eff[0].txn, txn);
        assert_eq!(eff[0].event, ProvEvent::Modified);
    }

    #[test]
    fn chain_flattens_cross_database_copies() {
        // a → b → c: pasting from b into c carries a's origin.
        let mut a = CuratedTree::new("a", StoreMode::Hereditary);
        let ar = a.tree.root();
        let mut t = a.begin("u", 1);
        let e = t.insert(ar, "e", Some(Atom::Int(1))).unwrap();
        t.commit();
        let clip_ab = a.copy(e).unwrap();

        let mut b = CuratedTree::new("b", StoreMode::Hereditary);
        let br = b.tree.root();
        let mut t = b.begin("u", 2);
        let pb = t.paste(br, &clip_ab).unwrap();
        t.commit();
        let clip_bc = b.copy(pb).unwrap();

        let mut c = CuratedTree::new("c", StoreMode::Hereditary);
        let cr = c.tree.root();
        let mut t = c.begin("u", 3);
        let pc = t.paste(cr, &clip_bc).unwrap();
        t.commit();

        let chain = c.prov.chain(&c.tree, pc);
        // Oldest first: a's local creation, the copy a→b, the copy b→c.
        assert_eq!(chain.len(), 3);
        assert_eq!(chain[0], Origin::Local);
        assert!(matches!(&chain[1], Origin::CopiedFrom { db, .. } if db == "a"));
        assert!(matches!(&chain[2], Origin::CopiedFrom { db, .. } if db == "b"));
    }

    #[test]
    fn squash_cancels_insert_then_delete() {
        let n = NodeId(5);
        let ops = vec![
            CurationOp::Insert {
                node: n,
                parent: NodeId(0),
                label: "x".into(),
                value: None,
            },
            CurationOp::Modify {
                node: n,
                old: None,
                new: Some(Atom::Int(1)),
            },
            CurationOp::Delete { node: n },
        ];
        assert!(squash(&ops).is_empty());
    }

    #[test]
    fn squash_folds_modifies_into_insert() {
        let n = NodeId(5);
        let ops = vec![
            CurationOp::Insert {
                node: n,
                parent: NodeId(0),
                label: "x".into(),
                value: Some(Atom::Int(1)),
            },
            CurationOp::Modify {
                node: n,
                old: Some(Atom::Int(1)),
                new: Some(Atom::Int(2)),
            },
            CurationOp::Modify {
                node: n,
                old: Some(Atom::Int(2)),
                new: Some(Atom::Int(3)),
            },
        ];
        let s = squash(&ops);
        assert_eq!(
            s,
            vec![CurationOp::Insert {
                node: n,
                parent: NodeId(0),
                label: "x".into(),
                value: Some(Atom::Int(3))
            }]
        );
    }

    #[test]
    fn squash_collapses_repeated_modifies() {
        let n = NodeId(7);
        let ops = vec![
            CurationOp::Modify {
                node: n,
                old: Some(Atom::Int(0)),
                new: Some(Atom::Int(1)),
            },
            CurationOp::Modify {
                node: n,
                old: Some(Atom::Int(1)),
                new: Some(Atom::Int(2)),
            },
        ];
        let s = squash(&ops);
        assert_eq!(s.len(), 1);
        match &s[0] {
            CurationOp::Modify { old, new, .. } => {
                assert_eq!(old, &Some(Atom::Int(0)));
                assert_eq!(new, &Some(Atom::Int(2)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn squash_keeps_deletes_of_preexisting_nodes() {
        let n = NodeId(3);
        let ops = vec![CurationOp::Delete { node: n }];
        assert_eq!(squash(&ops), ops);
    }

    #[test]
    fn squash_preserves_pastes() {
        let ops = vec![CurationOp::Paste {
            node: NodeId(9),
            parent: NodeId(0),
            origin: Origin::External {
                source: "PMID:94032477".into(),
            },
            snapshot: crate::ops::ClipNode {
                label: "entry".into(),
                value: None,
                children: vec![],
            },
        }];
        assert_eq!(squash(&ops), ops);
    }
}

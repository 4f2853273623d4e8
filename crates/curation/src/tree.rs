//! The mutable semistructured tree store.
//!
//! An edge-labeled tree in the AceDB/semistructured tradition (§6 of the
//! paper): every node has a label, an optional atomic payload, and an
//! ordered list of children. Nodes live in an arena and keep their
//! [`NodeId`] for life, which is what provenance records point at;
//! deleted nodes are tombstoned, never reused. The arena is a
//! [`ChunkVec`]: a clone of the tree shares every chunk of nodes, and
//! an edit copies only the chunk holding the node it changes.

use std::fmt;

use cdb_model::{Atom, ChunkVec, Value};

/// A node identifier: stable for the lifetime of the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The raw index behind this id — stable for the database's
    /// lifetime. The network protocol ships ids to clients as
    /// integers; everything in-process should keep using `NodeId`.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Errors from tree manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The node id is unknown or tombstoned.
    NoSuchNode(NodeId),
    /// The operation would detach the root.
    CannotDeleteRoot,
    /// A path lookup failed.
    NoSuchPath(String),
    /// Attaching a node under its own descendant.
    CycleCreated,
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::NoSuchNode(n) => write!(f, "no such node {n}"),
            TreeError::CannotDeleteRoot => write!(f, "cannot delete the root"),
            TreeError::NoSuchPath(p) => write!(f, "no such path {p:?}"),
            TreeError::CycleCreated => write!(f, "operation would create a cycle"),
        }
    }
}

impl std::error::Error for TreeError {}

/// One arena slot, tombstones included. The wire codec (`crate::wire`)
/// reads and builds slots directly; the arena index of a node is its
/// position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RawNode {
    pub(crate) label: String,
    pub(crate) value: Option<Atom>,
    pub(crate) parent: Option<NodeId>,
    pub(crate) children: Vec<NodeId>,
    pub(crate) alive: bool,
}

/// A curated database as a semistructured tree.
///
/// Equality compares the *entire arena* — names, tombstones, and node
/// order included — which is what the crash-recovery tests rely on: a
/// recovered tree must be byte-identical to the uncrashed one, not
/// merely value-equal on live nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeDb {
    name: String,
    nodes: ChunkVec<RawNode>,
    root: NodeId,
}

impl TreeDb {
    /// Creates a database whose root carries the database name as label.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        let root = RawNode {
            label: name.clone(),
            value: None,
            parent: None,
            children: Vec::new(),
            alive: true,
        };
        TreeDb {
            name,
            nodes: ChunkVec::from(vec![root]),
            root: NodeId(0),
        }
    }

    /// The database name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    fn node(&self, id: NodeId) -> Result<&RawNode, TreeError> {
        self.nodes
            .get(id.0)
            .filter(|n| n.alive)
            .ok_or(TreeError::NoSuchNode(id))
    }

    /// A live node, mutably. Checked through the shared read first, so
    /// a refused edit copies no chunk.
    fn node_mut(&mut self, id: NodeId) -> Result<&mut RawNode, TreeError> {
        self.node(id)?;
        Ok(self
            .nodes
            .get_mut(id.0)
            .expect("a live node is in the arena"))
    }

    /// Whether a node id is live.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.nodes.get(id.0).map(|n| n.alive).unwrap_or(false)
    }

    /// A node's label.
    pub fn label(&self, id: NodeId) -> Result<&str, TreeError> {
        Ok(&self.node(id)?.label)
    }

    /// A node's atomic payload.
    pub fn value(&self, id: NodeId) -> Result<Option<&Atom>, TreeError> {
        Ok(self.node(id)?.value.as_ref())
    }

    /// A node's parent.
    pub fn parent(&self, id: NodeId) -> Result<Option<NodeId>, TreeError> {
        Ok(self.node(id)?.parent)
    }

    /// A node's children, in order.
    pub fn children(&self, id: NodeId) -> Result<&[NodeId], TreeError> {
        Ok(&self.node(id)?.children)
    }

    /// The chain of ancestors from `id` (exclusive) to the root
    /// (inclusive).
    pub fn ancestors(&self, id: NodeId) -> Result<Vec<NodeId>, TreeError> {
        let mut out = Vec::new();
        let mut cur = self.node(id)?.parent;
        while let Some(p) = cur {
            out.push(p);
            cur = self.node(p)?.parent;
        }
        Ok(out)
    }

    /// The label path from the root to `id`, e.g. `"/entry/name"`.
    pub fn path_of(&self, id: NodeId) -> Result<String, TreeError> {
        if id == self.root {
            self.node(id)?;
            return Ok("/".to_owned());
        }
        let mut labels = vec![self.node(id)?.label.clone()];
        for a in self.ancestors(id)? {
            if a != self.root {
                labels.push(self.node(a)?.label.clone());
            }
        }
        labels.reverse();
        Ok(format!("/{}", labels.join("/")))
    }

    /// The first child of `id` with the given label.
    pub fn child_by_label(&self, id: NodeId, label: &str) -> Result<Option<NodeId>, TreeError> {
        for &c in &self.node(id)?.children {
            if self.node(c)?.label == label {
                return Ok(Some(c));
            }
        }
        Ok(None)
    }

    /// Resolves a `/`-separated label path from the root (first matching
    /// child at each step).
    pub fn resolve_path(&self, path: &str) -> Result<NodeId, TreeError> {
        let mut cur = self.root;
        for seg in path.split('/').filter(|s| !s.is_empty()) {
            cur = self
                .child_by_label(cur, seg)?
                .ok_or_else(|| TreeError::NoSuchPath(path.to_owned()))?;
        }
        Ok(cur)
    }

    /// The root child at or above `id`, live or deleted: read off the
    /// arena, which holds because nodes never move and a tombstone
    /// keeps its parent link. `None` for the root and for an id past
    /// the arena.
    pub fn root_child_of(&self, id: NodeId) -> Option<NodeId> {
        let mut node = id;
        loop {
            let parent = self.nodes.get(node.0)?.parent?;
            if parent == self.root {
                return Some(node);
            }
            node = parent;
        }
    }

    /// The payload of the first child of `id` labelled `label`, live or
    /// deleted: read off the arena, where a deleted node keeps the
    /// children it had when it was deleted.
    pub fn slot_child_value(&self, id: NodeId, label: &str) -> Option<&Atom> {
        let children = self.nodes.get(id.0)?.children.iter();
        let child = children
            .map(|c| &self.nodes[c.0])
            .find(|c| c.label == label)?;
        child.value.as_ref()
    }

    /// All live node ids, in creation order.
    pub fn live_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|&(i, n)| n.alive && self.reachable(NodeId(i)))
            .map(|(i, _)| NodeId(i))
            .collect()
    }

    fn reachable(&self, id: NodeId) -> bool {
        let mut cur = id;
        loop {
            match self.nodes[cur.0].parent {
                None => return cur == self.root,
                Some(p) => {
                    if !self.nodes[p.0].alive {
                        return false;
                    }
                    cur = p;
                }
            }
        }
    }

    /// The number of live, reachable nodes.
    pub fn size(&self) -> usize {
        self.live_nodes().len()
    }

    // ------------------------------------------------- serialization
    //
    // Raw arena access for the wire codec (`crate::wire`). The codec
    // must round-trip tombstoned nodes and arena positions exactly,
    // because node ids are arena indices and log replay re-allocates
    // them in order.

    /// The arena, borrowed: its length, one slot or all of them cost
    /// what they read, in place, never a copy of the tree.
    pub(crate) fn raw_slots(&self) -> &ChunkVec<RawNode> {
        &self.nodes
    }

    pub(crate) fn from_raw(name: String, root: NodeId, raw: ChunkVec<RawNode>) -> Self {
        TreeDb {
            name,
            nodes: raw,
            root,
        }
    }

    // ----------------------------------------------------- mutations
    //
    // These are the raw tree edits; curation code goes through
    // `ops::Transaction`, which records provenance around them.

    pub(crate) fn create_node(
        &mut self,
        parent: NodeId,
        label: impl Into<String>,
        value: Option<Atom>,
    ) -> Result<NodeId, TreeError> {
        self.node(parent)?; // validate
        let id = NodeId(self.nodes.len());
        self.nodes.push(RawNode {
            label: label.into(),
            value,
            parent: Some(parent),
            children: Vec::new(),
            alive: true,
        });
        self.node_mut(parent)?.children.push(id);
        Ok(id)
    }

    pub(crate) fn set_value(
        &mut self,
        id: NodeId,
        value: Option<Atom>,
    ) -> Result<Option<Atom>, TreeError> {
        let node = self.node_mut(id)?;
        Ok(std::mem::replace(&mut node.value, value))
    }

    pub(crate) fn delete_subtree(&mut self, id: NodeId) -> Result<(), TreeError> {
        if id == self.root {
            return Err(TreeError::CannotDeleteRoot);
        }
        let parent = self.node(id)?.parent;
        if let Some(p) = parent {
            self.node_mut(p)?.children.retain(|&c| c != id);
        }
        // Tombstone the whole subtree.
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            let node = self.node_mut(n)?;
            node.alive = false;
            stack.extend(node.children.iter().copied());
        }
        Ok(())
    }

    /// Extracts a subtree as a plain [`Value`]: leaves become atoms,
    /// inner nodes become records keyed by child label (repeated labels
    /// become a list), preserving the curated-entry shape.
    pub fn subtree_value(&self, id: NodeId) -> Result<Value, TreeError> {
        let node = self.node(id)?;
        if node.children.is_empty() {
            return Ok(match &node.value {
                Some(a) => Value::Atom(a.clone()),
                None => Value::unit(),
            });
        }
        let mut grouped: Vec<(String, Vec<Value>)> = Vec::new();
        for &c in &node.children {
            let label = self.node(c)?.label.clone();
            let v = self.subtree_value(c)?;
            match grouped.iter_mut().find(|(l, _)| *l == label) {
                Some((_, vs)) => vs.push(v),
                None => grouped.push((label, vec![v])),
            }
        }
        Ok(Value::Record(
            grouped
                .into_iter()
                .map(|(l, mut vs)| {
                    let v = if vs.len() == 1 {
                        vs.remove(0)
                    } else {
                        Value::list(vs)
                    };
                    (l, v)
                })
                .collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (TreeDb, NodeId, NodeId) {
        let mut db = TreeDb::new("udb");
        let entry = db.create_node(db.root(), "entry", None).unwrap();
        let name = db
            .create_node(entry, "name", Some(Atom::Str("ywhah".into())))
            .unwrap();
        (db, entry, name)
    }

    #[test]
    fn creation_and_navigation() {
        let (db, entry, name) = sample();
        assert_eq!(db.label(entry).unwrap(), "entry");
        assert_eq!(db.value(name).unwrap(), Some(&Atom::Str("ywhah".into())));
        assert_eq!(db.parent(name).unwrap(), Some(entry));
        assert_eq!(db.children(entry).unwrap(), &[name]);
        assert_eq!(db.path_of(name).unwrap(), "/entry/name");
        assert_eq!(db.resolve_path("/entry/name").unwrap(), name);
        assert_eq!(db.size(), 3);
    }

    #[test]
    fn delete_tombstones_subtree() {
        let (mut db, entry, name) = sample();
        db.delete_subtree(entry).unwrap();
        assert!(!db.is_alive(entry));
        assert!(!db.is_alive(name));
        assert_eq!(db.size(), 1);
        assert!(matches!(db.label(name), Err(TreeError::NoSuchNode(_))));
        assert!(matches!(
            db.resolve_path("/entry"),
            Err(TreeError::NoSuchPath(_))
        ));
    }

    #[test]
    fn slot_reads_find_a_deleted_node_s_entry_and_key() {
        let (mut db, entry, name) = sample();
        let other = db.create_node(db.root(), "entry", None).unwrap();
        let reads = |db: &TreeDb| {
            let key = db.slot_child_value(entry, "name").cloned();
            (db.root_child_of(name), db.root_child_of(entry), key)
        };
        let live = reads(&db);
        assert_eq!(
            live,
            (Some(entry), Some(entry), Some(Atom::Str("ywhah".into())))
        );
        db.delete_subtree(entry).unwrap();
        assert_eq!(reads(&db), live);
        assert_eq!(db.root_child_of(other), Some(other));
        assert_eq!(db.slot_child_value(other, "name"), None);
        assert_eq!(db.root_child_of(db.root()), None);
        assert_eq!(db.root_child_of(NodeId(99)), None);
    }

    #[test]
    fn root_cannot_be_deleted() {
        let (mut db, _, _) = sample();
        let root = db.root();
        assert_eq!(db.delete_subtree(root), Err(TreeError::CannotDeleteRoot));
    }

    #[test]
    fn node_ids_are_never_reused() {
        let (mut db, entry, _) = sample();
        db.delete_subtree(entry).unwrap();
        let e2 = db.create_node(db.root(), "entry", None).unwrap();
        assert_ne!(e2, entry);
    }

    #[test]
    fn set_value_returns_previous() {
        let (mut db, _, name) = sample();
        let old = db.set_value(name, Some(Atom::Str("ywha1".into()))).unwrap();
        assert_eq!(old, Some(Atom::Str("ywhah".into())));
        assert_eq!(db.value(name).unwrap(), Some(&Atom::Str("ywha1".into())));
    }

    #[test]
    fn subtree_value_groups_children() {
        let mut db = TreeDb::new("udb");
        let entry = db.create_node(db.root(), "entry", None).unwrap();
        db.create_node(entry, "name", Some(Atom::Str("x".into())))
            .unwrap();
        let refs = db.create_node(entry, "refs", None).unwrap();
        db.create_node(refs, "ref", Some(Atom::Int(1))).unwrap();
        db.create_node(refs, "ref", Some(Atom::Int(2))).unwrap();
        let v = db.subtree_value(entry).unwrap();
        assert_eq!(
            v,
            Value::record([
                ("name", Value::str("x")),
                (
                    "refs",
                    Value::record([("ref", Value::list([Value::int(1), Value::int(2)]))])
                ),
            ])
        );
    }

    #[test]
    fn path_of_root_children() {
        let (db, entry, _) = sample();
        assert_eq!(db.path_of(entry).unwrap(), "/entry");
        assert_eq!(db.path_of(db.root()).unwrap(), "/");
    }
}

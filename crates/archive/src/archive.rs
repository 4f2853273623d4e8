//! The fat-node archive.
//!
//! All versions of a keyed hierarchical database live in a single merged
//! tree. Every archive node carries the set of version intervals during
//! which it was present; atomic leaves carry a *timeline* of values.
//! Merging a new version identifies nodes by their hierarchical key
//! paths (update-invariant, per \[15\]), so a node that persists across
//! versions — the common case in curated databases, which "do not grow
//! or change rapidly" — costs nothing beyond its single stored copy.
//! The same holds between clones of an archive: nodes are shared behind
//! `Arc`s, and a merge copies only the nodes it writes.
//!
//! The encoding honors the fat-node paper's optimization: a child
//! whose interval set equals its parent's stores nothing for it (the
//! hereditary trick; see [`Archive::encode`]). It is also the durable
//! form of the archive: a checkpoint that cut the log carries it, and
//! [`Archive::decode`] reads it back.

use std::collections::{BTreeMap, HashSet};
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, OnceLock};

use cdb_model::keys::{KeySpec, KeyStep};
use cdb_model::{Atom, KeyPath, ModelError, Path, Value};

use crate::codec::{self, CodecError};

/// A version number: dense, starting at 0.
pub type VersionId = u32;

/// Metadata about a published version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionInfo {
    /// The version number.
    pub id: VersionId,
    /// A human-readable label (a date, a release name).
    pub label: String,
}

/// Archive errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchiveError {
    /// A key violation in the incoming version.
    Model(ModelError),
    /// The requested version does not exist.
    NoSuchVersion(VersionId),
    /// The requested key path does not exist in any version.
    NoSuchKeyPath(String),
}

impl From<ModelError> for ArchiveError {
    fn from(e: ModelError) -> Self {
        ArchiveError::Model(e)
    }
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::Model(e) => write!(f, "{e}"),
            ArchiveError::NoSuchVersion(v) => write!(f, "no such version {v}"),
            ArchiveError::NoSuchKeyPath(p) => write!(f, "no such key path {p}"),
        }
    }
}

impl std::error::Error for ArchiveError {}

/// A half-open presence interval `[start, end)`; `end = None` means
/// still present.
pub type Interval = (VersionId, Option<VersionId>);

fn contains(iv: &Interval, v: VersionId) -> bool {
    iv.0 <= v && iv.1.is_none_or(|e| v < e)
}

/// The shape of a node during an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Atom,
    Record,
    Set,
    List,
}

fn shape_of(v: &Value) -> Shape {
    match v {
        Value::Atom(_) => Shape::Atom,
        Value::Record(_) => Shape::Record,
        Value::Set(_) => Shape::Set,
        Value::List(_) => Shape::List,
    }
}

/// A timeline of an archive node: its records in order, held inline
/// while there is at most one. Most nodes have one presence interval,
/// one shape and at most one value, so their timelines take no
/// allocation of their own: reaching a node costs one pointer hop (its
/// `Arc`), not one more per timeline, and a node copied on write is one
/// allocation plus its child map.
#[derive(Debug, Clone)]
enum Timeline<T> {
    Inline(Option<T>),
    Spilled(Vec<T>),
}

impl<T> Default for Timeline<T> {
    fn default() -> Self {
        Timeline::Inline(None)
    }
}

impl<T> Deref for Timeline<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        match self {
            Timeline::Inline(one) => one.as_slice(),
            Timeline::Spilled(all) => all,
        }
    }
}

impl<T> DerefMut for Timeline<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Timeline::Inline(one) => one.as_mut_slice(),
            Timeline::Spilled(all) => all,
        }
    }
}

impl<T> Timeline<T> {
    fn push(&mut self, record: T) {
        match self {
            Timeline::Inline(one @ None) => *one = Some(record),
            Timeline::Inline(one) => {
                let first = one.take().expect("an inline record");
                *self = Timeline::Spilled(vec![first, record]);
            }
            Timeline::Spilled(all) => all.push(record),
        }
    }
}

impl<T> FromIterator<T> for Timeline<T> {
    fn from_iter<I: IntoIterator<Item = T>>(records: I) -> Self {
        let mut timeline = Timeline::default();
        for record in records {
            timeline.push(record);
        }
        timeline
    }
}

/// One node of the archive. Children sit behind an `Arc`, so a clone
/// of an archive shares every node below the root, and a merge copies
/// a node (with [`own`]) only where it writes while a clone still
/// shares it: path copying, one copy per written node.
#[derive(Debug, Clone, Default)]
struct ANode {
    /// Presence intervals, in order, non-overlapping.
    intervals: Timeline<Interval>,
    /// Shape timeline (only transitions are stored).
    shapes: Timeline<(Interval, Shape)>,
    /// Atomic-value timeline (when the shape is `Atom`).
    atoms: Timeline<(Interval, Atom)>,
    /// Children, identified by key step.
    children: BTreeMap<KeyStep, Arc<ANode>>,
}

impl ANode {
    fn present_at(&self, v: VersionId) -> bool {
        self.intervals.iter().any(|iv| contains(iv, v))
    }

    fn open(&self) -> bool {
        self.intervals.last().is_some_and(|iv| iv.1.is_none())
    }

    fn ensure_open(&mut self, v: VersionId) {
        if !self.open() {
            self.intervals.push((v, None));
        }
    }

    fn close_all(&mut self, v: VersionId) {
        if let Some(last) = self.intervals.last_mut() {
            if last.1.is_none() {
                last.1 = Some(v);
            }
        }
        if let Some((iv, _)) = self.shapes.last_mut() {
            if iv.1.is_none() {
                iv.1 = Some(v);
            }
        }
        if let Some((iv, _)) = self.atoms.last_mut() {
            if iv.1.is_none() {
                iv.1 = Some(v);
            }
        }
        // A closed node has nothing open below it, so only the open
        // children are written (and copied when shared).
        for c in self.children.values_mut().filter(|c| c.open()) {
            own(c).close_all(v);
        }
    }

    fn set_shape(&mut self, v: VersionId, s: Shape) {
        match self.shapes.last_mut() {
            Some((iv, last)) if iv.1.is_none() && *last == s => {}
            Some((iv, _)) if iv.1.is_none() => {
                iv.1 = Some(v);
                self.shapes.push(((v, None), s));
            }
            _ => self.shapes.push(((v, None), s)),
        }
    }

    fn set_atom(&mut self, v: VersionId, a: &Atom) {
        match self.atoms.last_mut() {
            Some((iv, last)) if iv.1.is_none() && last == a => {}
            Some((iv, _)) if iv.1.is_none() => {
                iv.1 = Some(v);
                self.atoms.push(((v, None), a.clone()));
            }
            _ => self.atoms.push(((v, None), a.clone())),
        }
    }

    fn shape_at(&self, v: VersionId) -> Option<Shape> {
        self.shapes
            .iter()
            .find(|(iv, _)| contains(iv, v))
            .map(|(_, s)| *s)
    }

    fn atom_at(&self, v: VersionId) -> Option<&Atom> {
        self.atoms
            .iter()
            .find(|(iv, _)| contains(iv, v))
            .map(|(_, a)| a)
    }

    fn node_count(&self) -> usize {
        1 + self
            .children
            .values()
            .map(|c| c.node_count())
            .sum::<usize>()
    }
}

/// The fat-node archive of a keyed hierarchical database.
///
/// A clone copies the root node (one `(step, pointer)` pair per entry)
/// and the version labels, and shares every node below the root; a
/// merge into either side then copies only the nodes it writes
/// (counted in `archive.publish.nodes_copied`), so the other side keeps
/// answering, and encoding, exactly as before.
#[derive(Debug, Clone)]
pub struct Archive {
    name: String,
    spec: KeySpec,
    versions: Vec<VersionInfo>,
    root: ANode,
}

impl Archive {
    /// Creates an empty archive.
    pub fn new(name: impl Into<String>, spec: KeySpec) -> Self {
        Archive {
            name: name.into(),
            spec,
            versions: Vec::new(),
            root: ANode::default(),
        }
    }

    /// The database name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The key specification.
    pub fn spec(&self) -> &KeySpec {
        &self.spec
    }

    /// The published versions, in order.
    pub fn versions(&self) -> &[VersionInfo] {
        &self.versions
    }

    /// Number of versions.
    pub fn version_count(&self) -> u32 {
        self.versions.len() as u32
    }

    /// Merges a new version of the database into the archive, returning
    /// its version id. The incoming value must satisfy the key spec; a
    /// value that does not is refused before anything is merged, so the
    /// archive is left as it was.
    pub fn add_version(
        &mut self,
        value: &Value,
        label: impl Into<String>,
    ) -> Result<VersionId, ArchiveError> {
        // Validate keys up front (duplicate keys would corrupt merging).
        self.spec.check_keys(value)?;
        let vid = self.versions.len() as VersionId;
        if let Value::Set(entries) = value {
            merged_entries().add(entries.len() as u64);
        }
        merge(&mut self.root, value, &mut Vec::new(), vid, &self.spec)?;
        Ok(self.push_version(vid, label))
    }

    /// Merges a new version of a keyed root set given only what changed
    /// since the last version: `changed` holds the new value of every
    /// entry that is new or differs, `gone` the steps of the entries
    /// that are no more. Every other entry is the same as in the last
    /// version, and a full merge of an unchanged entry is a no-op (its
    /// intervals are open-ended), so the archive this leaves encodes
    /// byte for byte as [`Archive::add_version`] of the whole set would.
    /// A step in `gone` the archive holds no open node for is skipped.
    ///
    /// Refused before anything is merged, leaving the archive as it
    /// was, when the last version's root is not a set, when an entry
    /// breaks the key spec, or when two entries (changed or gone) share
    /// a step.
    pub fn add_version_delta(
        &mut self,
        changed: &[Value],
        gone: &[KeyStep],
        label: impl Into<String>,
    ) -> Result<VersionId, ArchiveError> {
        if let Some((_, shape)) = self.root.shapes.last().filter(|(iv, _)| iv.1.is_none()) {
            if *shape != Shape::Set {
                return Err(ArchiveError::Model(ModelError::KeyViolation {
                    detail: format!("a delta merges into a keyed set, not a {shape:?}"),
                    at: Path::root(),
                }));
            }
        }
        let mut steps = Vec::with_capacity(changed.len());
        for entry in changed {
            self.spec.check_keys(entry)?;
            steps.push(self.spec.entry_step(&[], entry, &Path::root())?);
        }
        let mut named = HashSet::with_capacity(steps.len() + gone.len());
        if let Some(step) = steps.iter().chain(gone).find(|s| !named.insert(*s)) {
            return Err(ArchiveError::Model(ModelError::KeyViolation {
                detail: format!("duplicate key {step} among siblings"),
                at: Path::root(),
            }));
        }
        let vid = self.versions.len() as VersionId;
        merged_entries().add((changed.len() + gone.len()) as u64);
        let (root, context) = (&mut self.root, &mut Vec::new());
        open_as(root, vid, Shape::Set);
        for (step, entry) in steps.into_iter().zip(changed) {
            merge_entry(root, step, Some(entry), context, vid, &self.spec)?;
        }
        for step in gone {
            merge_entry(root, step.clone(), None, context, vid, &self.spec)?;
        }
        Ok(self.push_version(vid, label))
    }

    fn push_version(&mut self, id: VersionId, label: impl Into<String>) -> VersionId {
        self.versions.push(VersionInfo {
            id,
            label: label.into(),
        });
        id
    }

    /// Reconstructs the database as of version `v`.
    pub fn retrieve(&self, v: VersionId) -> Result<Value, ArchiveError> {
        if v as usize >= self.versions.len() {
            return Err(ArchiveError::NoSuchVersion(v));
        }
        reconstruct(&self.root, v).ok_or(ArchiveError::NoSuchVersion(v))
    }

    /// The subtree at `path` as of version `v`: what
    /// `spec().resolve(&retrieve(v)?, path)` returns, read without
    /// rebuilding the rest of the version. The walk goes down one child
    /// per step, checking at each that the node is present at `v` and
    /// has the shape the step needs there (`Field` a record, `Entry` a
    /// set, `Index` a list), and then rebuilds only the subtree it
    /// reached. So a citation costs the path's depth plus the cited
    /// entry's size, not the size of the release.
    ///
    /// [`ArchiveError::NoSuchVersion`] when `v` was never published,
    /// [`ArchiveError::NoSuchKeyPath`] when `path` is not present at `v`.
    pub fn subtree_at(&self, path: &KeyPath, v: VersionId) -> Result<Value, ArchiveError> {
        if v as usize >= self.versions.len() {
            return Err(ArchiveError::NoSuchVersion(v));
        }
        let missing = || ArchiveError::NoSuchKeyPath(path.to_string());
        let mut cur = &self.root;
        for step in path.steps() {
            let fits = matches!(
                (step, cur.shape_at(v)),
                (KeyStep::Field(_), Some(Shape::Record))
                    | (KeyStep::Entry(_), Some(Shape::Set))
                    | (KeyStep::Index(_), Some(Shape::List))
            );
            if !fits || !cur.present_at(v) {
                return Err(missing());
            }
            cur = cur.children.get(step).ok_or_else(missing)?;
        }
        reconstruct(cur, v).ok_or_else(missing)
    }

    /// Looks up the archive node at a key path (any version).
    fn node(&self, path: &KeyPath) -> Option<&ANode> {
        let mut cur = &self.root;
        for step in path.steps() {
            cur = cur.children.get(step)?;
        }
        Some(cur)
    }

    /// The presence intervals of the node at `path`.
    pub fn lifespan(&self, path: &KeyPath) -> Result<Vec<Interval>, ArchiveError> {
        self.node(path)
            .map(|n| n.intervals.to_vec())
            .ok_or_else(|| ArchiveError::NoSuchKeyPath(path.to_string()))
    }

    /// The atomic-value timeline of the node at `path`.
    pub fn value_history(&self, path: &KeyPath) -> Result<Vec<(Interval, Atom)>, ArchiveError> {
        self.node(path)
            .map(|n| n.atoms.to_vec())
            .ok_or_else(|| ArchiveError::NoSuchKeyPath(path.to_string()))
    }

    /// The `Entry` children of the node at `path` with their presence
    /// intervals, in key order; none when there is no node at `path`.
    pub(crate) fn entry_lifespans(&self, path: &KeyPath) -> Vec<(KeyPath, Vec<Interval>)> {
        self.node(path)
            .into_iter()
            .flat_map(|n| &n.children)
            .filter(|(step, _)| matches!(step, KeyStep::Entry(_)))
            .map(|(step, child)| (path.child(step.clone()), child.intervals.to_vec()))
            .collect()
    }

    /// Whether the node at `path` was present at version `v`.
    pub fn present_at(&self, path: &KeyPath, v: VersionId) -> bool {
        self.node(path).is_some_and(|n| n.present_at(v))
    }

    /// The value of an atomic node at `path` as of version `v`.
    pub fn value_at(&self, path: &KeyPath, v: VersionId) -> Option<Atom> {
        self.node(path).and_then(|n| n.atom_at(v)).cloned()
    }

    /// All key paths that ever existed under the root (depth-first).
    pub fn all_key_paths(&self) -> Vec<KeyPath> {
        let mut out = Vec::new();
        collect_paths(&self.root, KeyPath::root(), &mut out);
        out
    }

    /// Total number of archive nodes (the E7 "merged tree" size).
    pub fn node_count(&self) -> usize {
        self.root.node_count()
    }

    /// Encodes the archive: the merged tree, then the version labels.
    /// Intervals are hereditary: a child whose interval set equals its
    /// parent's writes a one-byte marker instead of its intervals.
    /// [`Archive::decode`] reads the bytes back.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with(true)
    }

    /// The encoded size of the archive in bytes: the length of
    /// [`Archive::encode`].
    pub fn encoded_size(&self) -> usize {
        self.encode().len()
    }

    /// The encoded size *without* the hereditary-interval optimization
    /// (every node writes its full interval set) — the ablation of the
    /// paper's "if it is different from the time interval of its parent
    /// node" rule, measured in the E7 bench.
    pub fn encoded_size_flat(&self) -> usize {
        self.encode_with(false).len()
    }

    fn encode_with(&self, hereditary: bool) -> Vec<u8> {
        let mut out = Vec::new();
        encode_node(&self.root, None, hereditary, &mut out);
        codec::put_uvarint(&mut out, self.versions.len() as u64);
        for v in &self.versions {
            codec::put_str(&mut out, &v.label);
            out.extend_from_slice(&v.id.to_le_bytes());
        }
        out
    }

    /// Decodes the bytes of [`Archive::encode`] into the archive they
    /// encode, named `name` and keyed by `spec`. Bytes that are not
    /// such an encoding, a truncated one included, are an error.
    pub fn decode(
        name: impl Into<String>,
        spec: KeySpec,
        bytes: &[u8],
    ) -> Result<Archive, CodecError> {
        let mut pos = 0;
        let root = decode_node(bytes, &mut pos, None, 0)?;
        let mut versions = Vec::new();
        for id in 0..codec::get_uvarint(bytes, &mut pos)? {
            let label = codec::get_str(bytes, &mut pos)?;
            let raw: [u8; 4] = bytes
                .get(pos..pos + 4)
                .and_then(|b| b.try_into().ok())
                .ok_or(CodecError::UnexpectedEof)?;
            pos += 4;
            if u64::from(u32::from_le_bytes(raw)) != id {
                return Err(CodecError::Malformed("version ids are not dense"));
            }
            versions.push(VersionInfo {
                id: id as VersionId,
                label,
            });
        }
        if pos != bytes.len() {
            return Err(CodecError::Malformed("trailing bytes after the archive"));
        }
        Ok(Archive {
            name: name.into(),
            spec,
            versions,
            root,
        })
    }
}

/// Entries merged into archives, counted by the per-entry step of the
/// root set: every element of a full version, every changed or gone
/// entry of a delta.
fn merged_entries() -> &'static cdb_obs::Counter {
    static MERGED: OnceLock<cdb_obs::Counter> = OnceLock::new();
    MERGED.get_or_init(|| cdb_obs::global().counter("archive.merge.entries"))
}

/// Archive nodes copied because a clone of the archive (a snapshot's)
/// still shared them when a merge wrote them.
fn nodes_copied() -> &'static cdb_obs::Counter {
    static COPIED: OnceLock<cdb_obs::Counter> = OnceLock::new();
    COPIED.get_or_init(|| cdb_obs::global().counter("archive.publish.nodes_copied"))
}

/// The node behind `node`, to write in place: every write below the
/// root goes through here. It is copied first (`Arc::make_mut`, one
/// level: its children stay shared) when another archive still shares
/// it, and each such copy is counted in `archive.publish.nodes_copied`.
/// No `Weak` is ever made of a node, so a strong count above one is
/// exactly "shared".
fn own(node: &mut Arc<ANode>) -> &mut ANode {
    if Arc::strong_count(node) != 1 {
        nodes_copied().inc();
    }
    Arc::make_mut(node)
}

/// Opens `node` in version `vid` with shape `shape`; a node that is now
/// structured closes its atom timeline.
fn open_as(node: &mut ANode, vid: VersionId, shape: Shape) {
    node.ensure_open(vid);
    node.set_shape(vid, shape);
    if shape != Shape::Atom {
        if let Some((iv, _)) = node.atoms.last_mut() {
            if iv.1.is_none() {
                iv.1 = Some(vid);
            }
        }
    }
}

fn merge(
    node: &mut ANode,
    value: &Value,
    context: &mut Vec<String>,
    vid: VersionId,
    spec: &KeySpec,
) -> Result<(), ArchiveError> {
    open_as(node, vid, shape_of(value));
    let mut entries = HashSet::new();
    match value {
        Value::Atom(a) => node.set_atom(vid, a),
        Value::Record(m) => {
            for (label, child) in m {
                let step = KeyStep::Field(label.clone());
                context.push(label.clone());
                merge(
                    own(node.children.entry(step).or_default()),
                    child,
                    context,
                    vid,
                    spec,
                )?;
                context.pop();
            }
        }
        Value::Set(s) => {
            entries.reserve(s.len());
            for child in s {
                let step = spec
                    .entry_step(context, child, &Path::root())
                    .map_err(ArchiveError::Model)?;
                entries.insert(step.clone());
                merge_entry(node, step, Some(child), context, vid, spec)?;
            }
        }
        Value::List(xs) => {
            for (i, child) in xs.iter().enumerate() {
                let step = KeyStep::Index(i);
                merge(
                    own(node.children.entry(step).or_default()),
                    child,
                    context,
                    vid,
                    spec,
                )?;
            }
        }
    }
    // One closing rule, whatever shape the node had before: every open
    // child the merged value does not hold closes.
    for (step, child) in node.children.iter_mut() {
        if child.open() && !holds(value, step, &entries) {
            own(child).close_all(vid);
        }
    }
    Ok(())
}

/// Whether `value` holds a child at `step`; `entries` are the steps of
/// its elements when it is a set.
fn holds(value: &Value, step: &KeyStep, entries: &HashSet<KeyStep>) -> bool {
    match (value, step) {
        (Value::Record(m), KeyStep::Field(l)) => m.contains_key(l),
        (Value::Set(_), KeyStep::Entry(_)) => entries.contains(step),
        (Value::List(xs), KeyStep::Index(i)) => *i < xs.len(),
        _ => false,
    }
}

/// The per-entry step of a set merge, shared by the full merge of a set
/// and by [`Archive::add_version_delta`]: the element now at `step` is
/// merged into its node, or, when the entry is gone (`None`), its node
/// is closed if it is open.
fn merge_entry(
    set: &mut ANode,
    step: KeyStep,
    element: Option<&Value>,
    context: &mut Vec<String>,
    vid: VersionId,
    spec: &KeySpec,
) -> Result<(), ArchiveError> {
    match element {
        Some(value) => merge(
            own(set.children.entry(step).or_default()),
            value,
            context,
            vid,
            spec,
        ),
        None => {
            if let Some(node) = set.children.get_mut(&step).filter(|n| n.open()) {
                own(node).close_all(vid);
            }
            Ok(())
        }
    }
}

/// Nodes rebuilt by reads of the archive: each whole-version or
/// subtree read adds the number of values it built.
fn read_nodes() -> &'static cdb_obs::Counter {
    static READ: OnceLock<cdb_obs::Counter> = OnceLock::new();
    READ.get_or_init(|| cdb_obs::global().counter("archive.read.nodes"))
}

/// Rebuilds the value of `node` as of version `v`, `None` when it is
/// absent then, and counts the values built in `archive.read.nodes`.
fn reconstruct(node: &ANode, v: VersionId) -> Option<Value> {
    let mut built = 0;
    let value = build(node, v, &mut built);
    read_nodes().add(built);
    value
}

fn build(node: &ANode, v: VersionId, built: &mut u64) -> Option<Value> {
    if !node.present_at(v) {
        return None;
    }
    let shape = node.shape_at(v)?;
    *built += 1;
    match shape {
        Shape::Atom => node.atom_at(v).cloned().map(Value::Atom),
        Shape::Record => {
            let mut m = std::collections::BTreeMap::new();
            for (step, child) in &node.children {
                if let KeyStep::Field(l) = step {
                    if let Some(cv) = build(child, v, built) {
                        m.insert(l.clone(), cv);
                    }
                }
            }
            Some(Value::Record(m))
        }
        Shape::Set => {
            let mut s = std::collections::BTreeSet::new();
            for (step, child) in &node.children {
                if matches!(step, KeyStep::Entry(_)) {
                    if let Some(cv) = build(child, v, built) {
                        s.insert(cv);
                    }
                }
            }
            Some(Value::Set(s))
        }
        Shape::List => {
            let mut xs: Vec<(usize, Value)> = Vec::new();
            for (step, child) in &node.children {
                if let KeyStep::Index(i) = step {
                    if let Some(cv) = build(child, v, built) {
                        xs.push((*i, cv));
                    }
                }
            }
            xs.sort_by_key(|(i, _)| *i);
            Some(Value::List(xs.into_iter().map(|(_, v)| v).collect()))
        }
    }
}

fn collect_paths(node: &ANode, here: KeyPath, out: &mut Vec<KeyPath>) {
    out.push(here.clone());
    for (step, child) in &node.children {
        collect_paths(child, here.child(step.clone()), out);
    }
}

fn put_interval(out: &mut Vec<u8>, (s, e): &Interval) {
    codec::put_uvarint(out, u64::from(*s));
    codec::put_uvarint(out, e.map(|x| u64::from(x) + 1).unwrap_or(0));
}

fn encode_node(
    node: &ANode,
    parent_intervals: Option<&[Interval]>,
    hereditary: bool,
    out: &mut Vec<u8>,
) {
    // The interval count is written plus one; 0 marks intervals equal
    // to the parent's.
    if hereditary && parent_intervals == Some(&node.intervals[..]) {
        out.push(0);
    } else {
        codec::put_uvarint(out, node.intervals.len() as u64 + 1);
        for iv in node.intervals.iter() {
            put_interval(out, iv);
        }
    }
    codec::put_uvarint(out, node.shapes.len() as u64);
    for (iv, shape) in node.shapes.iter() {
        put_interval(out, iv);
        out.push(*shape as u8);
    }
    codec::put_uvarint(out, node.atoms.len() as u64);
    for (iv, a) in node.atoms.iter() {
        put_interval(out, iv);
        codec::put_atom(out, a);
    }
    codec::put_uvarint(out, node.children.len() as u64);
    for (step, child) in &node.children {
        match step {
            KeyStep::Field(l) => {
                out.push(1);
                codec::put_str(out, l);
            }
            KeyStep::Entry(atoms) => {
                out.push(2);
                codec::put_uvarint(out, atoms.len() as u64);
                for a in atoms {
                    codec::put_atom(out, a);
                }
            }
            KeyStep::Index(i) => {
                out.push(3);
                codec::put_uvarint(out, *i as u64);
            }
        }
        encode_node(child, Some(&node.intervals[..]), hereditary, out);
    }
}

/// Archive trees nested deeper than this are refused, not recursed into.
const MAX_DEPTH: usize = 512;

fn get_byte(input: &[u8], pos: &mut usize) -> Result<u8, CodecError> {
    let b = *input.get(*pos).ok_or(CodecError::UnexpectedEof)?;
    *pos += 1;
    Ok(b)
}

fn get_interval(input: &[u8], pos: &mut usize) -> Result<Interval, CodecError> {
    let version = |x: u64| VersionId::try_from(x).map_err(|_| CodecError::BadVarint);
    let s = version(codec::get_uvarint(input, pos)?)?;
    let e = match codec::get_uvarint(input, pos)? {
        0 => None,
        x => Some(version(x - 1)?),
    };
    Ok((s, e))
}

/// Reads one node written by [`encode_node`] in its hereditary form.
fn decode_node(
    input: &[u8],
    pos: &mut usize,
    parent_intervals: Option<&[Interval]>,
    depth: usize,
) -> Result<ANode, CodecError> {
    if depth > MAX_DEPTH {
        return Err(CodecError::Malformed("archive nested too deep"));
    }
    let mut node = ANode::default();
    match codec::get_uvarint(input, pos)? {
        0 => {
            node.intervals = parent_intervals
                .ok_or(CodecError::Malformed("hereditary intervals at the root"))?
                .iter()
                .copied()
                .collect();
        }
        n => {
            for _ in 1..n {
                node.intervals.push(get_interval(input, pos)?);
            }
        }
    }
    for _ in 0..codec::get_uvarint(input, pos)? {
        let iv = get_interval(input, pos)?;
        let shape = match get_byte(input, pos)? {
            0 => Shape::Atom,
            1 => Shape::Record,
            2 => Shape::Set,
            3 => Shape::List,
            t => return Err(CodecError::BadTag(t)),
        };
        node.shapes.push((iv, shape));
    }
    for _ in 0..codec::get_uvarint(input, pos)? {
        let iv = get_interval(input, pos)?;
        node.atoms.push((iv, codec::get_atom(input, pos)?));
    }
    for _ in 0..codec::get_uvarint(input, pos)? {
        let step = match get_byte(input, pos)? {
            1 => KeyStep::Field(codec::get_str(input, pos)?),
            2 => KeyStep::Entry(
                (0..codec::get_uvarint(input, pos)?)
                    .map(|_| codec::get_atom(input, pos))
                    .collect::<Result<_, _>>()?,
            ),
            3 => KeyStep::Index(
                usize::try_from(codec::get_uvarint(input, pos)?)
                    .map_err(|_| CodecError::BadVarint)?,
            ),
            t => return Err(CodecError::BadTag(t)),
        };
        let child = decode_node(input, pos, Some(&node.intervals[..]), depth + 1)?;
        if node.children.insert(step, Arc::new(child)).is_some() {
            return Err(CodecError::Malformed("a child step repeats"));
        }
    }
    Ok(node)
}

/// A difference between two archived versions at one key path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Change {
    /// Present in `v2` but not `v1`.
    Added,
    /// Present in `v1` but not `v2`.
    Removed,
    /// Atomic value changed.
    Changed {
        /// The value at `v1`.
        from: Atom,
        /// The value at `v2`.
        to: Atom,
    },
}

impl Archive {
    /// The differences between two versions, by key path. Reported at
    /// the highest path where the change is visible (an added subtree
    /// reports only its root), directly off the archive structure —
    /// "it is difficult to compare between versions of the database
    /// using the transaction log"; it is easy here.
    pub fn diff(
        &self,
        v1: VersionId,
        v2: VersionId,
    ) -> Result<Vec<(KeyPath, Change)>, ArchiveError> {
        for v in [v1, v2] {
            if v as usize >= self.versions.len() {
                return Err(ArchiveError::NoSuchVersion(v));
            }
        }
        let mut out = Vec::new();
        diff_node(&self.root, KeyPath::root(), v1, v2, &mut out);
        Ok(out)
    }
}

fn diff_node(
    node: &ANode,
    here: KeyPath,
    v1: VersionId,
    v2: VersionId,
    out: &mut Vec<(KeyPath, Change)>,
) {
    let p1 = node.present_at(v1);
    let p2 = node.present_at(v2);
    match (p1, p2) {
        (false, false) => {}
        (false, true) => out.push((here, Change::Added)),
        (true, false) => out.push((here, Change::Removed)),
        (true, true) => {
            if let (Some(a1), Some(a2)) = (node.atom_at(v1), node.atom_at(v2)) {
                if a1 != a2 {
                    out.push((
                        here.clone(),
                        Change::Changed {
                            from: a1.clone(),
                            to: a2.clone(),
                        },
                    ));
                }
            }
            for (step, child) in &node.children {
                diff_node(child, here.child(step.clone()), v1, v2, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_model::keys::KeySpec;

    fn factbook_spec() -> KeySpec {
        KeySpec::new().rule(Vec::<String>::new(), ["name"])
    }

    fn country(name: &str, pop: i64) -> Value {
        Value::record([("name", Value::str(name)), ("population", Value::int(pop))])
    }

    #[test]
    fn versions_round_trip() {
        let mut arch = Archive::new("factbook", factbook_spec());
        let v0 = Value::set([country("Iceland", 300_000)]);
        let v1 = Value::set([country("Iceland", 310_000), country("Latvia", 2_000_000)]);
        let v2 = Value::set([country("Latvia", 1_900_000)]);
        arch.add_version(&v0, "2000").unwrap();
        arch.add_version(&v1, "2001").unwrap();
        arch.add_version(&v2, "2002").unwrap();
        assert_eq!(arch.retrieve(0).unwrap(), v0);
        assert_eq!(arch.retrieve(1).unwrap(), v1);
        assert_eq!(arch.retrieve(2).unwrap(), v2);
        assert!(arch.retrieve(3).is_err());
        assert_eq!(arch.version_count(), 3);
    }

    #[test]
    fn persistent_nodes_are_stored_once() {
        let mut arch = Archive::new("factbook", factbook_spec());
        let v = Value::set([country("Iceland", 300_000)]);
        for i in 0..10 {
            arch.add_version(&v, format!("y{i}")).unwrap();
        }
        // set + record + 2 fields = 4 nodes, regardless of 10 versions.
        assert_eq!(arch.node_count(), 4);
        let kp = KeyPath::root().child(KeyStep::Entry(vec![Atom::Str("Iceland".into())]));
        assert_eq!(arch.lifespan(&kp).unwrap(), vec![(0, None)]);
    }

    #[test]
    fn value_history_tracks_changes() {
        let mut arch = Archive::new("factbook", factbook_spec());
        for (i, pop) in [300_000i64, 300_000, 310_000, 320_000].iter().enumerate() {
            arch.add_version(&Value::set([country("Iceland", *pop)]), format!("y{i}"))
                .unwrap();
        }
        let kp = KeyPath::root()
            .child(KeyStep::Entry(vec![Atom::Str("Iceland".into())]))
            .child(KeyStep::Field("population".into()));
        let hist = arch.value_history(&kp).unwrap();
        assert_eq!(
            hist,
            vec![
                ((0, Some(2)), Atom::Int(300_000)),
                ((2, Some(3)), Atom::Int(310_000)),
                ((3, None), Atom::Int(320_000)),
            ]
        );
        assert_eq!(arch.value_at(&kp, 1), Some(Atom::Int(300_000)));
        assert_eq!(arch.value_at(&kp, 3), Some(Atom::Int(320_000)));
    }

    #[test]
    fn deletion_and_reappearance_create_two_intervals() {
        let mut arch = Archive::new("factbook", factbook_spec());
        let with = Value::set([country("Iceland", 1), country("USSR", 2)]);
        let without = Value::set([country("Iceland", 1)]);
        arch.add_version(&with, "a").unwrap();
        arch.add_version(&without, "b").unwrap();
        arch.add_version(&with, "c").unwrap();
        let kp = KeyPath::root().child(KeyStep::Entry(vec![Atom::Str("USSR".into())]));
        assert_eq!(arch.lifespan(&kp).unwrap(), vec![(0, Some(1)), (2, None)]);
        assert!(!arch.present_at(&kp, 1));
        assert!(arch.present_at(&kp, 2));
    }

    #[test]
    fn diff_reports_minimal_changes() {
        let mut arch = Archive::new("factbook", factbook_spec());
        arch.add_version(&Value::set([country("Iceland", 1)]), "a")
            .unwrap();
        arch.add_version(
            &Value::set([country("Iceland", 2), country("Latvia", 3)]),
            "b",
        )
        .unwrap();
        let diff = arch.diff(0, 1).unwrap();
        assert_eq!(diff.len(), 2);
        assert!(diff.iter().any(|(p, c)| {
            matches!(
                c,
                Change::Changed {
                    from: Atom::Int(1),
                    to: Atom::Int(2)
                }
            ) && p.to_string().contains("population")
        }));
        assert!(diff
            .iter()
            .any(|(p, c)| *c == Change::Added && p.to_string().contains("Latvia")));
        assert!(arch.diff(0, 9).is_err());
    }

    #[test]
    fn shape_changes_are_versioned() {
        // A leaf that later becomes structured (Factbook-style schema
        // evolution within the data).
        let spec = KeySpec::new();
        let mut arch = Archive::new("db", spec);
        let v0 = Value::record([("gov", Value::str("monarchy"))]);
        let v1 = Value::record([("gov", Value::record([("type", Value::str("republic"))]))]);
        arch.add_version(&v0, "a").unwrap();
        arch.add_version(&v1, "b").unwrap();
        assert_eq!(arch.retrieve(0).unwrap(), v0);
        assert_eq!(arch.retrieve(1).unwrap(), v1);
    }

    /// A node whose shape changes closes the children of its old
    /// shape: `{a: {1, 2}}` then `{a: {x: 1}}` removes both elements.
    #[test]
    fn a_shape_change_closes_the_old_shapes_children() {
        let mut arch = Archive::new("db", KeySpec::new());
        let v0 = Value::record([("a", Value::set([Value::int(1), Value::int(2)]))]);
        let v1 = Value::record([("a", Value::record([("x", Value::int(1))]))]);
        arch.add_version(&v0, "0").unwrap();
        arch.add_version(&v1, "1").unwrap();
        let a = KeyPath::root().child(KeyStep::Field("a".into()));
        let diff = arch.diff(0, 1).unwrap();
        for i in [1, 2] {
            let element = a.child(KeyStep::Entry(vec![Atom::Int(i)]));
            assert_eq!(arch.lifespan(&element).unwrap(), vec![(0, Some(1))]);
            assert!(arch.present_at(&element, 0) && !arch.present_at(&element, 1));
            assert!(diff.contains(&(element, Change::Removed)), "{diff:?}");
        }
        let x = a.child(KeyStep::Field("x".into()));
        assert!(diff.contains(&(x, Change::Added)), "{diff:?}");
        assert_eq!(diff.len(), 3, "{diff:?}");
        assert_eq!(arch.retrieve(0).unwrap(), v0);
        assert_eq!(arch.retrieve(1).unwrap(), v1);
    }

    #[test]
    fn key_violations_are_rejected_before_merging() {
        let mut arch = Archive::new("factbook", factbook_spec());
        let bad = Value::set([Value::record([("nokey", Value::int(1))])]);
        assert!(arch.add_version(&bad, "x").is_err());
        assert_eq!(arch.version_count(), 0);
    }

    /// A version the spec refuses — a repeated key deep inside, a
    /// missing one, two delta entries on one step — is refused before
    /// anything merges: the encoding does not move.
    #[test]
    fn a_refused_version_leaves_the_archive_as_it_was() {
        let spec = factbook_spec().rule(["cities"], ["city"]);
        let mut arch = Archive::new("factbook", spec);
        arch.add_version(&Value::set([country("Iceland", 1)]), "a")
            .unwrap();
        let before = arch.encode();
        let city =
            |name: &str, pop| Value::record([("city", Value::str(name)), ("pop", Value::int(pop))]);
        let twice = Value::record([
            ("name", Value::str("Latvia")),
            ("cities", Value::set([city("Riga", 1), city("Riga", 2)])),
        ]);
        // Latvia sorts after Iceland, so a merge that validated as it
        // went would already have merged Iceland's new population.
        let refused = [
            Value::set([country("Iceland", 2), twice.clone()]),
            Value::set([
                country("Iceland", 2),
                Value::record([("nokey", Value::int(1))]),
            ]),
        ];
        for bad in &refused {
            assert!(arch.add_version(bad, "x").is_err(), "{bad}");
            assert_eq!(arch.encode(), before);
        }
        let iceland = KeyStep::Entry(vec![Atom::Str("Iceland".into())]);
        let deltas: [(&[Value], &[KeyStep]); 3] = [
            (&[country("Iceland", 2), twice], &[]),
            (&[country("Latvia", 2), country("Latvia", 3)], &[]),
            (&[country("Iceland", 2)], &[iceland]),
        ];
        for (changed, gone) in deltas {
            assert!(arch.add_version_delta(changed, gone, "x").is_err());
            assert_eq!(arch.encode(), before);
        }
        let mut record_root = Archive::new("r", KeySpec::new());
        record_root
            .add_version(&Value::record([("a", Value::int(1))]), "a")
            .unwrap();
        assert!(record_root.add_version_delta(&[], &[], "b").is_err());
        assert_eq!(arch.version_count(), 1);
    }

    /// Releases of the factbook: an entry leaves and comes back, and one
    /// changes its population.
    fn releases() -> [Vec<Value>; 4] {
        [
            vec![country("Iceland", 1), country("USSR", 2)],
            vec![country("Iceland", 2)],
            vec![
                country("Iceland", 2),
                country("USSR", 3),
                country("Latvia", 4),
            ],
            vec![country("Latvia", 5)],
        ]
    }

    /// What changed from `last` to `release`: the entries that are new
    /// or differ, and the steps of the entries that are gone.
    fn delta(last: &[Value], release: &[Value]) -> (Vec<Value>, Vec<KeyStep>) {
        let changed = release
            .iter()
            .filter(|e| !last.contains(e))
            .cloned()
            .collect();
        let name = |e: &Value| e.field("name").cloned();
        let gone = last
            .iter()
            .filter(|e| !release.iter().any(|n| name(n) == name(e)))
            .map(|e| factbook_spec().entry_step(&[], e, &Path::root()).unwrap())
            .collect();
        (changed, gone)
    }

    /// The delta of each release — changed entries plus the steps of
    /// the gone ones — merges to the bytes of the full merge.
    #[test]
    fn a_delta_merges_as_the_whole_version() {
        let mut full = Archive::new("factbook", factbook_spec());
        let mut delta_merged = Archive::new("factbook", factbook_spec());
        let mut last: Vec<Value> = Vec::new();
        for (i, release) in releases().iter().enumerate() {
            full.add_version(&Value::set(release.iter().cloned()), format!("{i}"))
                .unwrap();
            let (changed, gone) = delta(&last, release);
            delta_merged
                .add_version_delta(&changed, &gone, format!("{i}"))
                .unwrap();
            assert_eq!(delta_merged.encode(), full.encode(), "release {i}");
            last = release.clone();
        }
    }

    /// A clone taken before a merge, full or delta, shares its nodes
    /// with the merged side: it encodes afterwards as it did when it was
    /// taken, and the merged side encodes as the same merges into an
    /// archive that was never cloned.
    #[test]
    fn a_clone_taken_before_a_merge_keeps_its_bytes() {
        let mut alone = Archive::new("factbook", factbook_spec());
        let mut shared = Archive::new("factbook", factbook_spec());
        let mut pinned: Vec<(Archive, Vec<u8>)> = Vec::new();
        let mut last: Vec<Value> = Vec::new();
        for (i, release) in releases().iter().enumerate() {
            let whole = Value::set(release.iter().cloned());
            alone.add_version(&whole, format!("{i}")).unwrap();
            pinned.push((shared.clone(), shared.encode()));
            if i % 2 == 0 {
                shared.add_version(&whole, format!("{i}")).unwrap();
            } else {
                let (changed, gone) = delta(&last, release);
                shared
                    .add_version_delta(&changed, &gone, format!("{i}"))
                    .unwrap();
            }
            assert_eq!(shared.encode(), alone.encode(), "release {i}");
            last = release.clone();
        }
        for (i, (clone, bytes)) in pinned.iter().enumerate() {
            assert_eq!(clone.encode(), *bytes, "the clone taken before release {i}");
            assert_eq!(clone.version_count(), i as u32);
        }
    }

    #[test]
    fn encoded_size_grows_sublinearly_for_stable_data() {
        let mut arch = Archive::new("factbook", factbook_spec());
        let v = Value::set((0..50).map(|i| country(&format!("c{i}"), i)));
        arch.add_version(&v, "0").unwrap();
        let after_one = arch.encoded_size();
        for i in 1..20 {
            arch.add_version(&v, format!("{i}")).unwrap();
        }
        let after_twenty = arch.encoded_size();
        // 20 identical versions cost barely more than one (just labels).
        assert!(
            after_twenty < after_one + 500,
            "archive should not replicate unchanged data: {after_one} → {after_twenty}"
        );
    }

    #[test]
    fn all_key_paths_enumerates_history() {
        let mut arch = Archive::new("factbook", factbook_spec());
        arch.add_version(&Value::set([country("A", 1)]), "a")
            .unwrap();
        arch.add_version(&Value::set([country("B", 2)]), "b")
            .unwrap();
        let paths = arch.all_key_paths();
        // root, A, A.name, A.population, B, B.name, B.population
        assert_eq!(paths.len(), 7);
    }
}

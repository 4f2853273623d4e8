//! The integrated curated database.
//!
//! Ties the substrates together the way §1 describes real curated
//! databases working: curators edit a working database through
//! transactions (with provenance recorded automatically), annotations
//! are superimposed on the core data (DAS-style, §2), and the database
//! is periodically **published** — each publication merged into the
//! fat-node archive so that any version can be retrieved, cited, and
//! queried longitudinally (§5).
//!
//! [`DbState`] is the value — tree, provenance, log, lifecycle
//! registry, archive, notes, publish points, 2PC decisions, index
//! postings, the primary index — and this is the only module that
//! opens a curation transaction. A [`CuratedDatabase`] is a `DbState`
//! plus an optional `Durable` ([`crate::durable`]); a
//! [`crate::Snapshot`] is an `Arc<DbState>`; a cross-shard commit calls
//! the same `DbState` halves on each participant.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use cdb_archive::{Archive, ArchiveError, Citation, VersionId};
use cdb_curation::ops::{Clipboard, CuratedTree, Txn};
use cdb_curation::provstore::StoreMode;
use cdb_curation::tree::TreeError;
use cdb_curation::{queries, NodeId};
use cdb_model::keys::KeyStep;
use cdb_model::{Atom, KeyPath, KeySpec, Value};

use crate::lifecycle::{EntryEvent, EntryRegistry, LifecycleError};

/// Errors from the integrated engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// A tree-level error.
    Tree(TreeError),
    /// An archive-level error.
    Archive(ArchiveError),
    /// A lifecycle error.
    Lifecycle(LifecycleError),
    /// No entry with the given key.
    NoSuchEntry(String),
    /// No such field on the entry.
    NoSuchField(String, String),
    /// An entry with this key already exists.
    DuplicateEntry(String),
    /// A durability-layer failure (WAL, checkpoint, or recovery).
    Storage(String),
    /// A relational view or query over the entries failed (unknown
    /// attribute, schema mismatch, …).
    Relational(cdb_relalg::RelalgError),
    /// A field write named the entry key field. The key is set when an
    /// entry is created and changes only through fusion and fission.
    KeyFieldWrite(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Tree(e) => write!(f, "{e}"),
            DbError::Archive(e) => write!(f, "{e}"),
            DbError::Lifecycle(e) => write!(f, "{e}"),
            DbError::NoSuchEntry(k) => write!(f, "no entry with key {k:?}"),
            DbError::NoSuchField(k, fld) => write!(f, "entry {k:?} has no field {fld:?}"),
            DbError::DuplicateEntry(k) => write!(f, "entry {k:?} already exists"),
            DbError::Storage(m) => write!(f, "storage: {m}"),
            DbError::Relational(e) => write!(f, "{e}"),
            DbError::KeyFieldWrite(fld) => write!(
                f,
                "field {fld:?} is the entry key: it is set at creation and changes only by merge or split"
            ),
        }
    }
}

impl std::error::Error for DbError {}

impl From<TreeError> for DbError {
    fn from(e: TreeError) -> Self {
        DbError::Tree(e)
    }
}

impl From<ArchiveError> for DbError {
    fn from(e: ArchiveError) -> Self {
        DbError::Archive(e)
    }
}

impl From<cdb_relalg::RelalgError> for DbError {
    fn from(e: cdb_relalg::RelalgError) -> Self {
        DbError::Relational(e)
    }
}

impl From<LifecycleError> for DbError {
    fn from(e: LifecycleError) -> Self {
        DbError::Lifecycle(e)
    }
}

impl From<cdb_storage::StorageError> for DbError {
    fn from(e: cdb_storage::StorageError) -> Self {
        DbError::Storage(e.to_string())
    }
}

/// A superimposed annotation: external to the core data (the DAS model
/// of §2), attributed and timestamped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Note {
    /// Who made the annotation.
    pub author: String,
    /// The annotation text.
    pub text: String,
    /// Logical time.
    pub time: u64,
}

/// The notes superimposed on one entry: on the entry itself and on its
/// fields. Keyed so that a probe borrows its key and field.
#[derive(Debug, Clone, Default)]
pub(crate) struct EntryNotes {
    entry: Vec<Note>,
    fields: BTreeMap<String, Vec<Note>>,
}

impl EntryNotes {
    fn on(&self, field: Option<&str>) -> &[Note] {
        match field {
            None => &self.entry,
            Some(f) => self.fields.get(f).map_or(&[], Vec::as_slice),
        }
    }

    pub(crate) fn push(&mut self, field: Option<&str>, note: Note) {
        match field {
            None => self.entry.push(note),
            Some(f) => match self.fields.get_mut(f) {
                Some(notes) => notes.push(note),
                None => {
                    self.fields.insert(f.to_owned(), vec![note]);
                }
            },
        }
    }

    /// Every note with its attachment point: the entry's own first,
    /// then field by field — the order checkpoints carry them in.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Option<&str>, &Note)> {
        let own = self.entry.iter().map(|n| (None, n));
        let on_fields = self
            .fields
            .iter()
            .flat_map(|(f, notes)| notes.iter().map(move |n| (Some(f.as_str()), n)));
        own.chain(on_fields)
    }
}

/// One field of an entry as a fusion carries it: label and payload.
pub(crate) type Carried = (String, Option<Atom>);

/// The parts of a fission: each new key with its fields.
pub(crate) type Parts<'a> = [(&'a str, Vec<(&'a str, Atom)>)];

/// The curated state as a value: everything a commit changes, a
/// snapshot freezes, a 2PC abort rolls back and an open rebuilds.
/// `Clone` *is* the snapshot and the rollback point — a field added
/// here is covered by both without further code. It owns every read
/// and the in-memory half of every curation operation (validate → one
/// curation transaction → one settle step for the derived state), and
/// knows nothing of WALs, checkpoints or locks.
///
/// Every field that grows with the database shares structure, so the
/// derived `Clone` bumps reference counts and copies no element: the
/// tree arena, the provenance records, the transaction log and the
/// lifecycle event log are [`cdb_model::ChunkVec`]s; the lifecycle fates,
/// the index postings and the primary index are
/// [`cdb_model::BucketMap`]s; the archive, the notes and the 2PC
/// decisions sit behind one `Arc` each, copied by the operations that
/// change them (publish, annotate, a cross-shard decision). An operation
/// copies only the chunks and buckets it writes while a clone shares
/// them (`DESIGN.md`, S23).
#[derive(Debug, Clone)]
pub struct DbState {
    /// The working tree with its provenance store and transaction log.
    pub curated: CuratedTree,
    /// The identifier lifecycle registry.
    pub lifecycle: EntryRegistry,
    pub(crate) key_field: String,
    pub(crate) archive: Arc<Archive>,
    pub(crate) notes: Arc<BTreeMap<String, EntryNotes>>,
    /// For each published version: the last committed transaction at
    /// publish time (None = published before any transaction) and the
    /// logical time of that transaction — enough to rebuild the archive
    /// from the log alone (see [`DbState::archive_from_log`]).
    pub(crate) publish_points: Vec<(Option<cdb_curation::TxnId>, u64, String)>,
    /// Logical clock floor carried over from a checkpoint whose covered
    /// log was truncated: [`DbState::publish`] falls back to it when
    /// the in-memory log is empty, keeping publish times monotone.
    pub(crate) last_time: u64,
    /// 2PC decision records this shard knows (gid → commit): populated
    /// by cross-shard commits and by recovery, re-encoded into every
    /// checkpoint so decisions outlive WAL truncation.
    pub(crate) decisions: Arc<BTreeMap<u64, bool>>,
    /// Registered secondary indexes over entry fields. Registrations
    /// are WAL-durable (tag [`crate::durable::AUX_INDEX`]) and carried
    /// by checkpoints; postings are derived state, reconciled by the
    /// settle step every operation ends in ([`DbState::settle`]) and
    /// rebuilt from the tree on open ([`DbState::rebuild_derived`]).
    pub(crate) indexes: crate::indexes::FieldIndexes,
    /// The primary index, entry key → entry node: the access path
    /// behind [`DbState::entry_node`]. Derived state like the postings:
    /// never written to a WAL, a checkpoint or the page heap, kept by
    /// the same settle step from the node ids the operation holds, and
    /// rebuilt by the same walk on open. A snapshot or a savepoint
    /// shares it (see [`crate::indexes::PrimaryIndex`]).
    pub(crate) primary: crate::indexes::PrimaryIndex,
}

/// The lifecycle event of a fresh identifier.
fn created(id: &str, from_split: Option<&str>, time: u64) -> EntryEvent {
    EntryEvent::Created {
        id: id.to_owned(),
        from_split: from_split.map(str::to_owned),
        time,
    }
}

/// Inserts a fresh entry node under the root: the key field first,
/// then `fields` in order.
fn insert_entry(
    t: &mut Txn<'_>,
    key_field: &str,
    key: &str,
    fields: &[(&str, Atom)],
) -> Result<NodeId, TreeError> {
    let root = t.tree().root();
    let entry = t.insert(root, "entry", None)?;
    t.insert(entry, key_field, Some(Atom::Str(key.to_owned())))?;
    for (label, value) in fields {
        t.insert(entry, *label, Some(value.clone()))?;
    }
    Ok(entry)
}

impl DbState {
    /// An empty state whose entries are keyed by `key_field`.
    pub(crate) fn new(name: impl Into<String>, key_field: impl Into<String>) -> Self {
        let (name, key_field) = (name.into(), key_field.into());
        DbState {
            archive: Arc::new(empty_archive(&name, &key_field)),
            curated: CuratedTree::new(name, StoreMode::Hereditary),
            lifecycle: EntryRegistry::new(),
            key_field,
            notes: Arc::default(),
            publish_points: Vec::new(),
            last_time: 0,
            decisions: Arc::default(),
            indexes: crate::indexes::FieldIndexes::default(),
            primary: crate::indexes::PrimaryIndex::default(),
        }
    }

    /// The database name.
    pub fn name(&self) -> &str {
        self.curated.tree.name()
    }

    /// The entry key field.
    pub fn key_field(&self) -> &str {
        &self.key_field
    }

    /// The archive of published versions.
    pub fn archive(&self) -> &Archive {
        &self.archive
    }

    /// The node of the entry with the given key: one lookup in the
    /// primary index, whatever the number of entries.
    pub fn entry_node(&self, key: &str) -> Result<NodeId, DbError> {
        self.primary
            .get(key)
            .ok_or_else(|| DbError::NoSuchEntry(key.to_owned()))
    }

    /// The live entries in tree order — every child of the root that
    /// carries a string under the key field, as `(key, node)`: the one
    /// walk over the root's children that every whole-database read
    /// shares.
    pub(crate) fn entries(&self) -> Result<Vec<(&str, NodeId)>, DbError> {
        let tree = &self.curated.tree;
        let mut out = Vec::new();
        for &entry in tree.children(tree.root())? {
            if let Some(kf) = tree.child_by_label(entry, &self.key_field)? {
                if let Some(Atom::Str(key)) = tree.value(kf)? {
                    out.push((key.as_str(), entry));
                }
            }
        }
        Ok(out)
    }

    /// The keys of all current entries, in tree order (the order they
    /// were created in) — the order published versions and relational
    /// views list them in, which the key-ordered primary index does not
    /// keep.
    pub fn entry_keys(&self) -> Result<Vec<String>, DbError> {
        let entries = self.entries()?;
        Ok(entries.into_iter().map(|(key, _)| key.to_owned()).collect())
    }

    fn field_node(&self, key: &str, field: &str) -> Result<NodeId, DbError> {
        let entry = self.entry_node(key)?;
        self.curated
            .tree
            .child_by_label(entry, field)?
            .ok_or_else(|| DbError::NoSuchField(key.to_owned(), field.to_owned()))
    }

    /// Reads a field of an entry.
    pub fn field(&self, key: &str, field: &str) -> Result<Atom, DbError> {
        let node = self.field_node(key, field)?;
        Ok(self
            .curated
            .tree
            .value(node)?
            .cloned()
            .unwrap_or(Atom::Unit))
    }

    /// Resolves any identifier — active or retired — to the current
    /// entries holding its data (following merges and splits).
    pub fn resolve_id(&self, id: &str) -> Result<Vec<String>, DbError> {
        let (current, _) = self.lifecycle.what_happened_to(id)?;
        Ok(current)
    }

    // -------------------------------------------------- curation ops
    // The in-memory half of each operation (documented on the public
    // `CuratedDatabase` methods of the same names). Every check runs
    // before the curation transaction opens, and each ends in
    // `settle`, which cannot fail: a transaction in the log behind a
    // failed lifecycle update would corrupt WAL recovery. The registry
    // remembers retired ids forever, so a key absent from the live
    // tree can still be refused.

    /// A plain write to the key field would rename the entry in the
    /// tree alone, leaving the registry and the indexes on the old key.
    fn check_writable<'a>(&self, fields: impl IntoIterator<Item = &'a str>) -> Result<(), DbError> {
        match fields.into_iter().find(|f| *f == self.key_field) {
            Some(f) => Err(DbError::KeyFieldWrite(f.to_owned())),
            None => Ok(()),
        }
    }

    /// The node of `key`, which must be a live entry with an active
    /// identifier.
    fn live_entry(&self, key: &str) -> Result<NodeId, DbError> {
        let node = self.entry_node(key)?;
        self.lifecycle.require_active(key)?;
        Ok(node)
    }

    pub(crate) fn add_entry(
        &mut self,
        curator: &str,
        time: u64,
        key: &str,
        fields: &[(&str, Atom)],
    ) -> Result<NodeId, DbError> {
        self.check_writable(fields.iter().map(|(label, _)| *label))?;
        if self.entry_node(key).is_ok() {
            return Err(DbError::DuplicateEntry(key.to_owned()));
        }
        self.lifecycle.check_create(key)?;
        let mut t = self.curated.begin(curator, time);
        let entry = insert_entry(&mut t, &self.key_field, key, fields)?;
        t.commit();
        self.settle(&[(key, Some(entry))], [created(key, None, time)]);
        Ok(entry)
    }

    pub(crate) fn import_entry(
        &mut self,
        curator: &str,
        time: u64,
        key: &str,
        clip: &Clipboard,
    ) -> Result<NodeId, DbError> {
        if self.entry_node(key).is_ok() {
            return Err(DbError::DuplicateEntry(key.to_owned()));
        }
        self.lifecycle.check_create(key)?;
        let root = self.curated.tree.root();
        let mut t = self.curated.begin(curator, time);
        let entry = t.paste(root, clip)?;
        // Ensure the key field is present and equal to `key`.
        match t.tree().child_by_label(entry, &self.key_field)? {
            Some(kf) => {
                if t.tree().value(kf)? != Some(&Atom::Str(key.to_owned())) {
                    t.modify(kf, Some(Atom::Str(key.to_owned())))?;
                }
            }
            None => {
                t.insert(
                    entry,
                    self.key_field.clone(),
                    Some(Atom::Str(key.to_owned())),
                )?;
            }
        }
        t.commit();
        self.settle(&[(key, Some(entry))], [created(key, None, time)]);
        Ok(entry)
    }

    pub(crate) fn edit_field(
        &mut self,
        curator: &str,
        time: u64,
        key: &str,
        field: &str,
        value: Atom,
    ) -> Result<(), DbError> {
        self.check_writable([field])?;
        let entry = self.entry_node(key)?;
        let existing = self.curated.tree.child_by_label(entry, field)?;
        let mut t = self.curated.begin(curator, time);
        match existing {
            Some(node) => t.modify(node, Some(value))?,
            None => {
                t.insert(entry, field.to_owned(), Some(value))?;
            }
        }
        t.commit();
        self.settle(&[(key, Some(entry))], []);
        Ok(())
    }

    pub(crate) fn delete_entry(
        &mut self,
        curator: &str,
        time: u64,
        key: &str,
    ) -> Result<(), DbError> {
        let entry = self.entry_node(key)?;
        self.lifecycle.check_delete(key)?;
        let mut t = self.curated.begin(curator, time);
        t.delete(entry)?;
        t.commit();
        let deleted = EntryEvent::Deleted {
            id: key.to_owned(),
            time,
        };
        self.settle(&[(key, None)], [deleted]);
        Ok(())
    }

    /// Both halves of a fusion on one state.
    pub(crate) fn merge_entries(
        &mut self,
        curator: &str,
        time: u64,
        kept: &str,
        absorbed: &str,
    ) -> Result<(), DbError> {
        self.entry_node(kept)?;
        let offered = self.fusion_offer(absorbed)?;
        self.lifecycle.check_merge(kept, absorbed)?;
        self.fuse(curator, time, kept, absorbed, Some(&offered), true)
    }

    /// What `absorbed`, live and active here, offers a fusion: its
    /// non-key fields. Read-only — a cross-shard fusion takes the offer
    /// on one shard and keeps it on another.
    pub(crate) fn fusion_offer(&self, absorbed: &str) -> Result<Vec<Carried>, DbError> {
        let node = self.live_entry(absorbed)?;
        let tree = &self.curated.tree;
        let mut offered = Vec::new();
        for &c in tree.children(node)? {
            let label = tree.label(c)?;
            if label != self.key_field {
                offered.push((label.to_owned(), tree.value(c)?.cloned()));
            }
        }
        Ok(offered)
    }

    /// This state's side of a fusion, in one transaction. The keep
    /// half (`offered` given): `kept` lives here and takes the offered
    /// fields it lacks. The drop half (`drop_absorbed`): `absorbed`
    /// lives here and is retired. Checks that its entries are live
    /// before it changes anything; records the event either way.
    pub(crate) fn fuse(
        &mut self,
        curator: &str,
        time: u64,
        kept: &str,
        absorbed: &str,
        offered: Option<&[Carried]>,
        drop_absorbed: bool,
    ) -> Result<(), DbError> {
        let mut carry = Vec::new();
        let mut survivor = None;
        if let Some(offered) = offered {
            let node = self.live_entry(kept)?;
            for (label, value) in offered {
                if self.curated.tree.child_by_label(node, label)?.is_none() {
                    carry.push((node, label.clone(), value.clone()));
                }
            }
            survivor = Some(node);
        }
        let dropped = if drop_absorbed {
            Some(self.live_entry(absorbed)?)
        } else {
            None
        };
        let mut t = self.curated.begin(curator, time);
        for (node, label, value) in carry {
            t.insert(node, label, value)?;
        }
        if let Some(node) = dropped {
            t.delete(node)?;
        }
        t.commit();
        let merged = EntryEvent::Merged {
            kept: kept.to_owned(),
            absorbed: absorbed.to_owned(),
            time,
        };
        // Whichever of the two is not live here — absorbed and dropped,
        // or on another shard — is unlinked.
        self.settle(&[(kept, survivor), (absorbed, None)], [merged]);
        Ok(())
    }

    /// Both halves of a fission on one state.
    pub(crate) fn split_entry(
        &mut self,
        curator: &str,
        time: u64,
        original: &str,
        parts: &Parts<'_>,
    ) -> Result<(), DbError> {
        self.check_fission(original, parts, |_| true)?;
        self.fission(curator, time, original, parts, |_| true)
    }

    /// Whether this state accepts its side of a fission. `here` says
    /// which keys live on this state: the one holding `original` checks
    /// the whole request (the original is live, every part is a fresh
    /// identifier named once), the others that their own parts are
    /// fresh. Every participant of a cross-shard fission must accept
    /// before any applies [`DbState::fission`].
    pub(crate) fn check_fission(
        &self,
        original: &str,
        parts: &Parts<'_>,
        here: impl Fn(&str) -> bool,
    ) -> Result<(), DbError> {
        let labels = parts.iter().flat_map(|(_, fields)| fields);
        self.check_writable(labels.map(|(label, _)| *label))?;
        if here(original) {
            self.entry_node(original)?;
            let keys: Vec<String> = parts.iter().map(|(k, _)| (*k).to_owned()).collect();
            return Ok(self.lifecycle.check_split(original, &keys)?);
        }
        for (key, _) in parts.iter().filter(|(k, _)| here(k)) {
            self.lifecycle.check_create(key)?;
        }
        Ok(())
    }

    /// This state's side of a fission, in one transaction: the create
    /// half for the parts that live `here`, the retire half when
    /// `original` does.
    pub(crate) fn fission(
        &mut self,
        curator: &str,
        time: u64,
        original: &str,
        parts: &Parts<'_>,
        here: impl Fn(&str) -> bool,
    ) -> Result<(), DbError> {
        let retired = if here(original) {
            Some(self.entry_node(original)?)
        } else {
            None
        };
        let mut t = self.curated.begin(curator, time);
        let mut touched = vec![(original, None)];
        for (key, fields) in parts.iter() {
            let created = if here(key) {
                Some(insert_entry(&mut t, &self.key_field, key, fields)?)
            } else {
                None
            };
            touched.push((*key, created));
        }
        if let Some(node) = retired {
            t.delete(node)?;
        }
        t.commit();
        let mut events: Vec<EntryEvent> = parts
            .iter()
            .filter(|(k, _)| here(k))
            .map(|(key, _)| created(key, Some(original), time))
            .collect();
        if retired.is_some() {
            events.push(EntryEvent::Split {
                original: original.to_owned(),
                parts: parts.iter().map(|(k, _)| (*k).to_owned()).collect(),
                time,
            });
        }
        self.settle(&touched, events);
        Ok(())
    }

    // ------------------------------------------------------- indexes

    /// Registers an index on `field` and posts every entry the primary
    /// index addresses; the other indexes are left as they are.
    pub(crate) fn create_index(&mut self, field: &str) -> bool {
        if !self.indexes.register(field) {
            return false;
        }
        let mut indexes = std::mem::take(&mut self.indexes);
        let idx = indexes.get_mut(field).expect("registered above");
        for (key, node) in self.primary.iter() {
            idx.set(key, self.view_value(key, node, field));
        }
        self.indexes = indexes;
        true
    }

    /// The fields currently indexed, in order.
    pub fn index_fields(&self) -> Vec<String> {
        self.indexes.fields()
    }

    /// The index over `field`, if one is registered.
    pub fn field_index(&self, field: &str) -> Option<&crate::indexes::FieldIndex> {
        self.indexes.get(field)
    }

    /// Keys of the entries whose `field` equals `value`, through the
    /// index; `None` when the field is not indexed (callers fall back
    /// to a scan).
    pub fn index_lookup(&self, field: &str, value: &Atom) -> Option<Vec<String>> {
        self.indexes.get(field).map(|i| i.lookup(value))
    }

    /// The value the entry at `node` shows a relational view — and
    /// indexes under — for `field`: the key itself for the key field,
    /// `Unit` when the field is absent or carries no payload.
    pub(crate) fn view_value(&self, key: &str, node: NodeId, field: &str) -> Atom {
        if field == self.key_field {
            return Atom::Str(key.to_owned());
        }
        let tree = &self.curated.tree;
        match tree.child_by_label(node, field) {
            Ok(Some(n)) => tree.value(n).ok().flatten().cloned(),
            _ => None,
        }
        .unwrap_or(Atom::Unit)
    }

    // ------------------------------------------------- derived state
    // The lifecycle fates, the primary index and the postings change
    // here and nowhere else: in the settle step every operation above
    // ends in, and in the rebuild an open runs. (Index DDL only adds
    // or drops a whole index.)

    /// The last step of every operation above, after its transaction
    /// committed; it cannot fail. Records the operation's lifecycle
    /// `events`, then brings the primary index and every registered
    /// index up to date for the entries it `touched`: an entry live
    /// here (its node given) is addressed to its node and re-posted
    /// under its current field values, a vanished one (deleted,
    /// absorbed, split away — or living on another shard) is unlinked.
    fn settle(
        &mut self,
        touched: &[(&str, Option<NodeId>)],
        events: impl IntoIterator<Item = EntryEvent>,
    ) {
        for event in events {
            self.lifecycle.record(event);
        }
        // Out of `self` while the tree is read, so keys stay borrowed.
        let mut indexes = std::mem::take(&mut self.indexes);
        for &(key, node) in touched {
            let Some(node) = node else {
                self.primary.remove(key);
                indexes.remove_key(key);
                continue;
            };
            // An edit leaves the address as it was: no bucket copied.
            if self.primary.get(key) != Some(node) {
                self.primary.insert(key, node);
            }
            for idx in indexes.iter_mut() {
                idx.set(key, self.view_value(key, node, idx.field()));
            }
        }
        self.indexes = indexes;
    }

    /// Rebuilds the primary index and the postings of every registered
    /// index from the tree, in one walk over the entries. The first
    /// entry wins a repeated key, as a scan would find it.
    pub(crate) fn rebuild_derived(&mut self) -> Result<(), DbError> {
        let mut primary = crate::indexes::PrimaryIndex::default();
        let mut indexes = crate::indexes::FieldIndexes::default();
        for field in self.indexes.fields() {
            indexes.register(&field);
        }
        for (key, node) in self.entries()? {
            if primary.get(key).is_some() {
                continue;
            }
            primary.insert(key, node);
            for idx in indexes.iter_mut() {
                idx.set(key, self.view_value(key, node, idx.field()));
            }
        }
        self.primary = primary;
        self.indexes = indexes;
        Ok(())
    }

    /// Planner statistics for the entries relation over the given
    /// fields, derived without scanning: row count from the primary
    /// index, per-field distinct counts from the registered indexes
    /// (unindexed fields keep the planner's default heuristics). The
    /// relation is named `entries`, matching
    /// [`crate::views::query_entries_planned`].
    pub fn planner_stats(&self, fields: &[&str]) -> cdb_relalg::DbStats {
        let rows = self.primary.len() as u64;
        let mut cols = std::collections::BTreeMap::new();
        cols.insert(
            self.key_field.clone(),
            cdb_relalg::ColStats::distinct_only(rows),
        );
        for f in fields {
            if let Some(idx) = self.indexes.get(f) {
                cols.insert(
                    (*f).to_owned(),
                    cdb_relalg::ColStats::distinct_only(idx.distinct()),
                );
            }
        }
        let mut stats = cdb_relalg::DbStats::none();
        stats
            .rels
            .insert("entries".to_owned(), cdb_relalg::RelStats { rows, cols });
        stats
    }

    /// The registered indexes as a relational [`cdb_relalg::IndexSet`]
    /// over the entries relation of `[key_field, fields…]` — postings
    /// converted from entry keys to row offsets (entries appear in
    /// [`DbState::entry_keys`] order, the order
    /// [`crate::views::entry_relation`] emits rows in). Indexed fields
    /// not in the view are skipped.
    pub fn relalg_index_set(&self, fields: &[&str]) -> Result<cdb_relalg::IndexSet, DbError> {
        let mut set = cdb_relalg::IndexSet::new();
        if self.indexes.is_empty() {
            return Ok(set);
        }
        let offsets: HashMap<&str, usize> = self
            .entries()?
            .into_iter()
            .enumerate()
            .map(|(row, (key, _))| (key, row))
            .collect();
        let schema: Vec<&str> = std::iter::once(self.key_field.as_str())
            .chain(fields.iter().copied())
            .collect();
        for idx in self.indexes.iter() {
            let Some(col_idx) = schema.iter().position(|c| *c == idx.field()) else {
                continue;
            };
            let postings = idx.postings().map(|(value, keys)| {
                let mut rows: Vec<usize> = keys
                    .iter()
                    .filter_map(|k| offsets.get(k.as_str()).copied())
                    .collect();
                rows.sort_unstable();
                (value.clone(), rows)
            });
            set.add(cdb_relalg::ColumnIndex::from_postings(
                "entries",
                idx.field(),
                col_idx,
                postings,
            ));
        }
        Ok(set)
    }

    // ---------------------------------------------------- annotations

    pub(crate) fn annotate(
        &mut self,
        key: &str,
        field: Option<&str>,
        author: &str,
        text: &str,
        time: u64,
    ) -> Result<(), DbError> {
        match field {
            Some(f) => {
                self.field_node(key, f)?;
            }
            None => {
                self.entry_node(key)?;
            }
        }
        self.attach_note(
            key,
            field,
            Note {
                author: author.to_owned(),
                text: text.to_owned(),
                time,
            },
        );
        Ok(())
    }

    /// Files `note` under `(key, field)`; an entry already annotated is
    /// found without building an owned key.
    pub(crate) fn attach_note(&mut self, key: &str, field: Option<&str>, note: Note) {
        let notes = Arc::make_mut(&mut self.notes);
        match notes.get_mut(key) {
            Some(on_entry) => on_entry.push(field, note),
            None => notes.entry(key.to_owned()).or_default().push(field, note),
        }
    }

    /// The annotations on an entry or field.
    pub fn notes_on(&self, key: &str, field: Option<&str>) -> &[Note] {
        self.notes.get(key).map_or(&[], |n| n.on(field))
    }

    // ----------------------------------------------------- publishing

    /// Exports the current working state as a keyed value: a set of
    /// entry records, each carrying its secondary (retired) identifiers
    /// from the lifecycle registry — UniProt's convention.
    pub fn export(&self) -> Result<Value, DbError> {
        export_tree(
            &self.curated.tree,
            &self.key_field,
            &self.lifecycle,
            u64::MAX,
        )
    }

    pub(crate) fn publish(&mut self, label: String) -> Result<VersionId, DbError> {
        let snapshot = self.export()?;
        let v = Arc::make_mut(&mut self.archive).add_version(&snapshot, label.clone())?;
        let txn = self.curated.last_txn_id();
        self.publish_points.push((txn, self.clock(), label));
        Ok(v)
    }

    /// The logical time of the newest transaction, floored by
    /// `last_time` when the log was truncated by a reclaiming
    /// checkpoint: the covered transactions are gone, but publish
    /// times must stay monotone across the cut.
    pub(crate) fn clock(&self) -> u64 {
        self.curated
            .log
            .last()
            .map(|t| t.time)
            .unwrap_or(0)
            .max(self.last_time)
    }

    /// Rebuilds the entire archive **from the transaction log alone** —
    /// the paper's §5.1 open question ("whether one could create an
    /// archive directly from the transaction log"), answered: each
    /// publish point's state is reconstructed by [`cdb_curation::replay`]
    /// and merged into a fresh archive. The result retrieves the same
    /// versions as the incrementally-built archive (asserted in tests).
    pub fn archive_from_log(&self) -> Result<Archive, DbError> {
        self.rebuild_archive(None, &[])
    }

    /// Rebuilds the archive from the publish points. The first
    /// `carried.len()` versions take their exported values from a
    /// checkpoint's carried snapshots (their log prefix was reclaimed);
    /// the rest are reconstructed by replaying the log onto `base` —
    /// the checkpoint's tree after such a cut, empty when the log is
    /// the full history.
    pub(crate) fn rebuild_archive(
        &self,
        base: Option<&cdb_curation::tree::TreeDb>,
        carried: &[Vec<u8>],
    ) -> Result<Archive, DbError> {
        let start = || match base {
            Some(tree) => tree.clone(),
            None => cdb_curation::tree::TreeDb::new(self.name()),
        };
        let mut rebuilt = empty_archive(self.name(), &self.key_field);
        for (i, (txn, time, label)) in self.publish_points.iter().enumerate() {
            let snapshot = match carried.get(i) {
                Some(bytes) => cdb_archive::codec::decode_value(bytes)
                    .map_err(|e| DbError::Storage(format!("carried snapshot {i}: {e}")))?,
                None => {
                    let tree = match txn {
                        Some(t) => {
                            cdb_curation::replay::replay_onto(start(), &self.curated.log, Some(*t))
                                .map_err(|e| DbError::Storage(format!("replay for publish: {e}")))?
                        }
                        None => start(),
                    };
                    export_tree(&tree, &self.key_field, &self.lifecycle, *time)?
                }
            };
            rebuilt.add_version(&snapshot, label.clone())?;
        }
        Ok(rebuilt)
    }

    /// Retrieves a published version.
    pub fn version(&self, v: VersionId) -> Result<Value, DbError> {
        Ok(self.archive.retrieve(v)?)
    }

    /// The key path of an entry in the archive.
    pub fn entry_key_path(&self, key: &str) -> KeyPath {
        KeyPath::root().child(KeyStep::Entry(vec![Atom::Str(key.to_owned())]))
    }

    /// Cites an entry as of a published version, crediting the curators
    /// who touched it (§5.2: "It is appropriate to cite the authorship
    /// of an entry").
    pub fn cite(&self, version: VersionId, key: &str) -> Result<Citation, DbError> {
        let authors = match self.entry_node(key) {
            Ok(node) => queries::curators_of(&self.curated, node)?,
            Err(_) => Vec::new(), // entry may exist only in old versions
        };
        Ok(Citation::cite(
            &self.archive,
            version,
            &self.entry_key_path(key),
            authors,
        )?)
    }

    /// The history of an entry field's value across published versions.
    pub fn field_series(&self, key: &str, field: &str) -> Result<Vec<(VersionId, Atom)>, DbError> {
        let path = self
            .entry_key_path(key)
            .child(KeyStep::Field(field.to_owned()));
        Ok(cdb_archive::temporal::series(&self.archive, &path)?)
    }
}

/// The integrated curated database: a [`DbState`] (which it
/// dereferences to, so every read works on it directly), the plumbing
/// that makes its commits durable when it was opened over devices, and
/// a metric registry. Each curation method below is the state's
/// in-memory operation followed by one persist step.
#[derive(Debug)]
pub struct CuratedDatabase {
    pub(crate) state: DbState,
    /// WAL, checkpoints and persist cursors; `None` = in-memory only.
    pub(crate) durable: Option<crate::durable::Durable>,
    /// The per-database metric registry (`Arc`-backed: storage handles
    /// created for this database and the serving layer record here).
    pub(crate) metrics: cdb_obs::Metrics,
    /// How many operations have changed the state: bumped once the
    /// state half of an operation succeeds, before its persist step.
    /// The serving layer publishes a new snapshot only when it moved.
    pub(crate) applied: u64,
}

impl Deref for CuratedDatabase {
    type Target = DbState;
    fn deref(&self) -> &DbState {
        &self.state
    }
}

impl CuratedDatabase {
    /// Creates an empty database whose entries are keyed by `key_field`
    /// (e.g. `"ac"` for a UniProt-like database, `"name"` for a
    /// Factbook-like one).
    pub fn new(name: impl Into<String>, key_field: impl Into<String>) -> Self {
        CuratedDatabase {
            state: DbState::new(name, key_field),
            durable: None,
            metrics: cdb_obs::Metrics::new(),
            applied: 0,
        }
    }

    /// The per-database metric registry. Storage handles created for
    /// this database (the group-commit WAL, recovery) record here.
    pub fn metrics(&self) -> &cdb_obs::Metrics {
        &self.metrics
    }

    /// A point-in-time view of every metric this database can see: its
    /// own registry merged with the process-global one (relational
    /// engine timings, storage error counters). Counters add, gauges
    /// take the maximum, histograms fold bucket-wise.
    pub fn metrics_snapshot(&self) -> cdb_obs::MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        snap.merge(&cdb_obs::global().snapshot());
        snap
    }

    /// Runs a state operation and persists what it committed (nothing,
    /// when the state refuses it).
    fn commit<R>(
        &mut self,
        op: impl FnOnce(&mut DbState) -> Result<R, DbError>,
    ) -> Result<R, DbError> {
        let out = op(&mut self.state)?;
        self.applied += 1;
        self.persist_commit()?;
        Ok(out)
    }

    /// Adds a freshly-authored entry. `fields` may not name the key
    /// field ([`DbError::KeyFieldWrite`]).
    pub fn add_entry(
        &mut self,
        curator: &str,
        time: u64,
        key: &str,
        fields: &[(&str, Atom)],
    ) -> Result<NodeId, DbError> {
        self.commit(|s| s.add_entry(curator, time, key, fields))
    }

    /// Imports an entry copied from another curated database (the §3
    /// copy-paste loop), registering it under `key`. The pasted
    /// subtree's provenance chain is preserved by the curation layer.
    pub fn import_entry(
        &mut self,
        curator: &str,
        time: u64,
        key: &str,
        clip: &Clipboard,
    ) -> Result<NodeId, DbError> {
        self.commit(|s| s.import_entry(curator, time, key, clip))
    }

    /// Edits (or adds) a field of an entry. The key field is not
    /// editable ([`DbError::KeyFieldWrite`]): entries are renamed by
    /// fusion and fission, which retire the old identifier.
    pub fn edit_field(
        &mut self,
        curator: &str,
        time: u64,
        key: &str,
        field: &str,
        value: Atom,
    ) -> Result<(), DbError> {
        self.commit(|s| s.edit_field(curator, time, key, field, value))
    }

    /// Deletes an entry outright.
    pub fn delete_entry(&mut self, curator: &str, time: u64, key: &str) -> Result<(), DbError> {
        self.commit(|s| s.delete_entry(curator, time, key))
    }

    /// Fusion (§6.2): `absorbed` is discovered to be the same object as
    /// `kept`; its fields that `kept` lacks are carried over, its node
    /// deleted, and its identifier retired (resolvable forever through
    /// the lifecycle registry).
    pub fn merge_entries(
        &mut self,
        curator: &str,
        time: u64,
        kept: &str,
        absorbed: &str,
    ) -> Result<(), DbError> {
        self.commit(|s| s.merge_entries(curator, time, kept, absorbed))
    }

    /// Fission (§6.2): `original` splits into `parts`, each given its
    /// own fields. The original's identifier is retired.
    pub fn split_entry(
        &mut self,
        curator: &str,
        time: u64,
        original: &str,
        parts: &[(&str, Vec<(&str, Atom)>)],
    ) -> Result<(), DbError> {
        self.commit(|s| s.split_entry(curator, time, original, parts))
    }

    /// Registers a durable secondary index over an entry field and
    /// builds its postings from the current entries. The registration
    /// is WAL-logged and checkpoint-carried; recovery re-registers it
    /// and rebuilds the postings from the recovered tree. Returns
    /// `false` (and does nothing) when the field is already indexed.
    ///
    /// Entries missing the field index as [`Atom::Unit`] — the same
    /// convention [`crate::views::entry_relation`] uses — so the index
    /// answers exactly the questions the relational view would.
    pub fn create_index(&mut self, field: &str) -> Result<bool, DbError> {
        if !self.state.create_index(field) {
            return Ok(false);
        }
        self.applied += 1;
        self.persist_index(field, true)?;
        Ok(true)
    }

    /// Drops a secondary index. Returns `false` when none existed. The
    /// drop is WAL-logged like the creation, so recovery converges on
    /// the surviving registrations.
    pub fn drop_index(&mut self, field: &str) -> Result<bool, DbError> {
        if !self.state.indexes.unregister(field) {
            return Ok(false);
        }
        self.applied += 1;
        self.persist_index(field, false)?;
        Ok(true)
    }

    /// Attaches a superimposed annotation to an entry (`field = None`)
    /// or to one of its fields.
    pub fn annotate(
        &mut self,
        key: &str,
        field: Option<&str>,
        author: &str,
        text: &str,
        time: u64,
    ) -> Result<(), DbError> {
        self.state.annotate(key, field, author, text, time)?;
        self.applied += 1;
        self.persist_note(key, field)
    }

    /// Publishes the current state as a new archived version — "a common
    /// practice is to maintain a working database … and periodically to
    /// 'publish' versions of the database" (§1).
    pub fn publish(&mut self, label: impl Into<String>) -> Result<VersionId, DbError> {
        let v = self.state.publish(label.into())?;
        self.applied += 1;
        self.persist_publish()?;
        Ok(v)
    }
}

/// An archive with no versions, its entries keyed by `key_field`.
fn empty_archive(name: &str, key_field: &str) -> Archive {
    let spec = KeySpec::new().rule(Vec::<String>::new(), [key_field.to_owned()]);
    Archive::new(name, spec)
}

/// Exports a (possibly replayed) tree as a keyed set of entry records,
/// injecting the secondary identifiers known as of `time`.
pub(crate) fn export_tree(
    tree: &cdb_curation::tree::TreeDb,
    key_field: &str,
    lifecycle: &EntryRegistry,
    time: u64,
) -> Result<Value, DbError> {
    let root = tree.root();
    let mut entries = Vec::new();
    for &child in tree.children(root)? {
        let mut v = tree.subtree_value(child)?;
        if let Value::Record(m) = &mut v {
            if let Some(Value::Atom(Atom::Str(key))) = m.get(key_field).cloned() {
                let secondary = lifecycle.secondary_ids_at(&key, time);
                if !secondary.is_empty() {
                    m.insert(
                        "secondary_ids".to_owned(),
                        Value::set(secondary.into_iter().map(Value::str)),
                    );
                }
            }
        }
        entries.push(v);
    }
    Ok(Value::set(entries))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CuratedDatabase {
        let mut db = CuratedDatabase::new("iuphar", "name");
        db.add_entry(
            "alice",
            1,
            "GABA-A",
            &[("kind", Atom::Str("receptor".into())), ("tm", Atom::Int(4))],
        )
        .unwrap();
        db.add_entry("bob", 2, "5-HT3", &[("kind", Atom::Str("receptor".into()))])
            .unwrap();
        db
    }

    #[test]
    fn add_edit_read_entries() {
        let mut db = sample();
        assert_eq!(db.entry_keys().unwrap().len(), 2);
        assert_eq!(
            db.field("GABA-A", "kind").unwrap(),
            Atom::Str("receptor".into())
        );
        db.edit_field(
            "carol",
            3,
            "GABA-A",
            "kind",
            Atom::Str("ion channel".into()),
        )
        .unwrap();
        assert_eq!(
            db.field("GABA-A", "kind").unwrap(),
            Atom::Str("ion channel".into())
        );
        assert!(matches!(
            db.field("GABA-A", "nope"),
            Err(DbError::NoSuchField(_, _))
        ));
        assert!(matches!(
            db.add_entry("x", 4, "GABA-A", &[]),
            Err(DbError::DuplicateEntry(_))
        ));
    }

    /// Finding an entry reads no tree node, wherever the entry sits
    /// among the root's children: with the tree taken away the index
    /// still answers, for the first key and the last alike.
    #[test]
    fn entry_node_answers_from_the_index_alone() {
        let mut db = sample();
        let found = [db.entry_node("GABA-A"), db.entry_node("5-HT3")];
        assert!(found.iter().all(Result::is_ok));
        db.state.curated.tree = cdb_curation::TreeDb::new("gone");
        assert_eq!([db.entry_node("GABA-A"), db.entry_node("5-HT3")], found);
        assert!(matches!(
            db.entry_node("nope"),
            Err(DbError::NoSuchEntry(_))
        ));
    }

    #[test]
    fn publish_and_time_travel() {
        let mut db = sample();
        let v0 = db.publish("2008-01").unwrap();
        db.edit_field("carol", 3, "GABA-A", "tm", Atom::Int(5))
            .unwrap();
        let v1 = db.publish("2008-02").unwrap();
        let series = db.field_series("GABA-A", "tm").unwrap();
        assert_eq!(series, vec![(v0, Atom::Int(4)), (v1, Atom::Int(5))]);
        // Old version still shows the old value.
        let old = db.version(v0).unwrap();
        let entry = old
            .as_set()
            .unwrap()
            .iter()
            .find(|e| e.field("name") == Some(&Value::str("GABA-A")))
            .unwrap()
            .clone();
        assert_eq!(entry.field("tm"), Some(&Value::int(4)));
    }

    #[test]
    fn citations_credit_curators_and_pin_versions() {
        let mut db = sample();
        let v0 = db.publish("r1").unwrap();
        db.edit_field(
            "carol",
            5,
            "GABA-A",
            "kind",
            Atom::Str("ion channel".into()),
        )
        .unwrap();
        db.publish("r2").unwrap();
        let c = db.cite(v0, "GABA-A").unwrap();
        assert!(c.authors.contains(&"alice".to_string()));
        assert!(c.authors.contains(&"carol".to_string()));
        let resolved = c.resolve(db.archive()).unwrap();
        assert_eq!(resolved.field("kind"), Some(&Value::str("receptor")));
    }

    #[test]
    fn fusion_retires_and_resolves_identifiers() {
        let mut db = sample();
        db.add_entry("alice", 3, "GABA-B", &[("tm", Atom::Int(7))])
            .unwrap();
        db.merge_entries("alice", 4, "GABA-A", "GABA-B").unwrap();
        assert!(matches!(
            db.entry_node("GABA-B"),
            Err(DbError::NoSuchEntry(_))
        ));
        // The retired id resolves to the survivor.
        assert_eq!(db.resolve_id("GABA-B").unwrap(), vec!["GABA-A".to_string()]);
        // Export carries the secondary id.
        let snap = db.export().unwrap();
        let entry = snap
            .as_set()
            .unwrap()
            .iter()
            .find(|e| e.field("name") == Some(&Value::str("GABA-A")))
            .unwrap()
            .clone();
        let secs = entry.field("secondary_ids").unwrap().as_set().unwrap();
        assert!(secs.contains(&Value::str("GABA-B")));
        // Fields missing on the survivor were carried over... GABA-A had
        // no "tm"? It did (4) — so tm is NOT carried. Kind was shared.
        assert_eq!(db.field("GABA-A", "tm").unwrap(), Atom::Int(4));
    }

    /// Retired identifiers stay in the registry forever (§6.2), so
    /// reusing one must be rejected *before* a curation transaction
    /// commits — a committed txn behind a failed lifecycle update is
    /// exactly the state that used to corrupt WAL recovery.
    #[test]
    fn retired_identifiers_cannot_be_reused() {
        let mut db = sample();
        db.delete_entry("alice", 3, "5-HT3").unwrap();
        let log_len = db.curated.log.len();
        assert!(matches!(
            db.add_entry("x", 4, "5-HT3", &[]),
            Err(DbError::Lifecycle(LifecycleError::Duplicate(_)))
        ));
        assert_eq!(db.curated.log.len(), log_len, "no phantom transaction");
        assert!(db.entry_node("5-HT3").is_err(), "no phantom entry");
        // A split onto a retired part name is rejected the same way,
        // leaving the original untouched.
        assert!(matches!(
            db.split_entry("y", 5, "GABA-A", &[("5-HT3", vec![])]),
            Err(DbError::Lifecycle(LifecycleError::Duplicate(_)))
        ));
        assert_eq!(db.curated.log.len(), log_len);
        assert!(db.entry_node("GABA-A").is_ok());
        // The database keeps working after the rejections.
        db.add_entry("x", 6, "5-HT4", &[]).unwrap();
        assert_eq!(db.curated.log.len(), log_len + 1);
    }

    /// Merging an entry into itself once deleted it and retired its id
    /// into itself — the data was gone and `resolve_id` found nothing.
    #[test]
    fn self_merge_is_rejected_and_loses_nothing() {
        let mut db = sample();
        let log_len = db.curated.log.len();
        assert_eq!(
            db.merge_entries("alice", 3, "GABA-A", "GABA-A"),
            Err(DbError::Lifecycle(LifecycleError::SelfMerge(
                "GABA-A".into()
            )))
        );
        assert_eq!(db.curated.log.len(), log_len, "no phantom transaction");
        assert_eq!(db.entry_keys().unwrap(), ["GABA-A", "5-HT3"]);
        assert_eq!(db.resolve_id("GABA-A").unwrap(), ["GABA-A"]);
        assert_eq!(db.field("GABA-A", "tm").unwrap(), Atom::Int(4));
    }

    /// A fission naming one part twice once created two live entries
    /// with the same key.
    #[test]
    fn split_with_a_repeated_part_key_is_rejected() {
        let mut db = sample();
        let log_len = db.curated.log.len();
        assert_eq!(
            db.split_entry("alice", 3, "GABA-A", &[("A", vec![]), ("A", vec![])]),
            Err(DbError::Lifecycle(LifecycleError::Duplicate("A".into())))
        );
        assert_eq!(db.curated.log.len(), log_len);
        assert_eq!(db.entry_keys().unwrap(), ["GABA-A", "5-HT3"]);
        assert!(db.resolve_id("A").is_err(), "no phantom identifier");
    }

    /// The key field is written at creation and by fusion/fission
    /// only: a plain write to it once renamed the entry in the tree
    /// while the registry and the indexes kept the old key, and a
    /// `fields` list naming it added a second key child.
    #[test]
    fn writes_naming_the_key_field_are_rejected() {
        let mut db = sample();
        db.create_index("kind").unwrap();
        let log_len = db.curated.log.len();
        let refused = Err(DbError::KeyFieldWrite("name".into()));
        assert_eq!(
            db.edit_field("x", 3, "GABA-A", "name", Atom::Str("Q".into())),
            refused
        );
        assert_eq!(
            db.add_entry("x", 4, "NMDA", &[("name", Atom::Str("other".into()))])
                .map(|_| ()),
            refused
        );
        assert_eq!(
            db.split_entry(
                "x",
                5,
                "GABA-A",
                &[
                    ("A1", vec![]),
                    ("A2", vec![("name", Atom::Str("A1".into()))])
                ],
            ),
            refused
        );
        assert_eq!(db.curated.log.len(), log_len, "no phantom transaction");
        assert_eq!(db.entry_keys().unwrap(), ["GABA-A", "5-HT3"]);
        assert_eq!(db.resolve_id("GABA-A").unwrap(), ["GABA-A"]);
        assert_eq!(
            db.index_lookup("kind", &Atom::Str("receptor".into()))
                .unwrap(),
            ["5-HT3", "GABA-A"]
        );
        // An import whose clipboard carries another key is still
        // re-keyed by the engine itself.
        let clip = db.curated.copy(db.entry_node("5-HT3").unwrap()).unwrap();
        let mut dst = CuratedDatabase::new("other", "name");
        dst.import_entry("me", 1, "renamed", &clip).unwrap();
        assert_eq!(dst.entry_keys().unwrap(), ["renamed"]);
    }

    #[test]
    fn fission_splits_with_lineage() {
        let mut db = sample();
        db.split_entry(
            "alice",
            5,
            "GABA-A",
            &[
                ("GABA-A1", vec![("kind", Atom::Str("receptor".into()))]),
                ("GABA-A2", vec![("kind", Atom::Str("receptor".into()))]),
            ],
        )
        .unwrap();
        assert!(db.entry_node("GABA-A").is_err());
        let mut resolved = db.resolve_id("GABA-A").unwrap();
        resolved.sort();
        assert_eq!(resolved, vec!["GABA-A1".to_string(), "GABA-A2".to_string()]);
        let anc = db.lifecycle.how_did_come_about("GABA-A1").unwrap();
        assert_eq!(anc, vec!["GABA-A".to_string()]);
    }

    #[test]
    fn annotations_are_superimposed() {
        let mut db = sample();
        db.annotate("GABA-A", Some("kind"), "carol", "verify against IUPHAR", 9)
            .unwrap();
        db.annotate("GABA-A", None, "dave", "entry looks complete", 10)
            .unwrap();
        assert_eq!(db.notes_on("GABA-A", Some("kind")).len(), 1);
        assert_eq!(db.notes_on("GABA-A", None).len(), 1);
        assert!(db.notes_on("5-HT3", None).is_empty());
        // Annotations do not leak into the published core data (§2: DAS
        // keeps them external).
        db.publish("r").unwrap();
        let snap = db.version(0).unwrap();
        assert!(!format!("{snap}").contains("IUPHAR"));
        // Annotating a missing target fails.
        assert!(db.annotate("nope", None, "x", "y", 1).is_err());
    }

    /// §5.1's open question, answered: the archive rebuilt from the
    /// transaction log retrieves the same versions as the archive built
    /// incrementally at publish time — through edits, annotations (which
    /// must NOT appear), merges and splits.
    #[test]
    fn archive_from_log_matches_live_archive() {
        let mut db = sample();
        db.publish("r0").unwrap();
        db.edit_field(
            "carol",
            3,
            "GABA-A",
            "kind",
            Atom::Str("ion channel".into()),
        )
        .unwrap();
        db.annotate("GABA-A", None, "dave", "superimposed, not core", 4)
            .unwrap();
        db.publish("r1").unwrap();
        db.add_entry("erin", 5, "NMDA", &[("tm", Atom::Int(4))])
            .unwrap();
        db.merge_entries("erin", 6, "GABA-A", "5-HT3").unwrap();
        db.publish("r2").unwrap();
        db.split_entry("erin", 7, "NMDA", &[("NMDA-1", vec![]), ("NMDA-2", vec![])])
            .unwrap();
        db.publish("r3").unwrap();

        let rebuilt = db.archive_from_log().unwrap();
        assert_eq!(rebuilt.version_count(), db.archive().version_count());
        for v in 0..db.archive().version_count() {
            assert_eq!(
                rebuilt.retrieve(v).unwrap(),
                db.archive().retrieve(v).unwrap(),
                "version {v} differs"
            );
            assert_eq!(
                rebuilt.versions()[v as usize].label,
                db.archive().versions()[v as usize].label
            );
        }
    }

    #[test]
    fn import_preserves_cross_database_provenance() {
        let mut src = CuratedDatabase::new("uniprot", "name");
        src.add_entry("upstream", 1, "P1", &[("sq", Atom::Str("GDREQ".into()))])
            .unwrap();
        let node = src.entry_node("P1").unwrap();
        let clip = src.curated.copy(node).unwrap();

        let mut dst = CuratedDatabase::new("mydb", "name");
        let pasted = dst.import_entry("me", 2, "P1", &clip).unwrap();
        let chain = queries::how_arrived(&dst.curated, pasted);
        assert!(chain
            .iter()
            .any(|o| matches!(o, cdb_curation::Origin::CopiedFrom { db, .. } if db == "uniprot")));
        assert_eq!(dst.field("P1", "sq").unwrap(), Atom::Str("GDREQ".into()));
    }
}

//! Durable secondary indexes over entry fields.
//!
//! A [`FieldIndex`] maps each value of one entry field to the set of
//! entry keys holding it — the curated-database analogue of
//! `cdb_relalg`'s column index, keyed by entry instead of row offset
//! because entries move (merge, split, delete) while a curated database
//! evolves. [`CuratedDatabase::create_index`] registers one; the
//! registration is written to the WAL as an `AUX` frame (tag
//! [`crate::durable::AUX_INDEX`]), carried by every checkpoint, and
//! replayed on recovery, where the postings are rebuilt from the
//! recovered tree — postings themselves are derived state and are never
//! serialized. Every curation operation on [`DbState`] ends by
//! reconciling the keys it touched, on every shard it runs on, so
//! postings are transactionally consistent with the tree; they are
//! part of the state, so a 2PC rollback restores them with it.
//!
//! The planner-facing view: [`DbState::planner_stats`] derives row
//! counts and per-field distinct counts without scanning — the durable
//! engine's answer to `DbStats::analyze` — and a planned read
//! ([`crate::views::query_entries_planned`]) asks only which view
//! columns are indexed, then reads the postings its plan looks up;
//! [`DbState::relalg_index_set`] converts postings to row offsets of
//! the full entries relation for callers that hold one.
//!
//! Beside them sits the *primary* index, entry key → entry node
//! (`DbState::primary`): the same kind of derived state — never
//! serialized, rebuilt from the recovered tree, changed inside the
//! operations that create or retire an entry and restored by a 2PC
//! rollback — and the reason a posting's key costs one lookup to turn
//! into its entry.
//!
//! Every map here is a [`BucketMap`], so the snapshot a commit publishes
//! and the savepoint a 2PC transaction takes share each bucket until a
//! write lands in it. A posting set sits behind its own `Arc`: copying a
//! bucket bumps a count per value, and only the set a write changes is
//! copied.
//!
//! [`CuratedDatabase::create_index`]: crate::db::CuratedDatabase::create_index
//! [`DbState`]: crate::db::DbState
//! [`DbState::relalg_index_set`]: crate::db::DbState::relalg_index_set
//! [`DbState::planner_stats`]: crate::db::DbState::planner_stats

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use cdb_curation::NodeId;
use cdb_model::{Atom, BucketMap};

/// A secondary index over one entry field.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FieldIndex {
    field: String,
    /// Value → keys of the entries holding it.
    by_value: BucketMap<Atom, Arc<BTreeSet<String>>>,
    /// Key → the value currently indexed for it (the reverse map that
    /// makes reconciliation O(log n) instead of a full-index sweep).
    by_key: BucketMap<Arc<str>, Atom>,
}

impl FieldIndex {
    pub(crate) fn new(field: impl Into<String>) -> FieldIndex {
        FieldIndex {
            field: field.into(),
            ..FieldIndex::default()
        }
    }

    /// The indexed field name.
    pub fn field(&self) -> &str {
        &self.field
    }

    /// Keys of the entries whose field equals `value`, in key order.
    pub fn lookup(&self, value: &Atom) -> Vec<String> {
        self.posting(value).map(str::to_owned).collect()
    }

    /// [`FieldIndex::lookup`], borrowed.
    pub fn posting(&self, value: &Atom) -> impl Iterator<Item = &str> {
        self.by_value
            .get(value)
            .into_iter()
            .flat_map(|keys| keys.iter())
            .map(String::as_str)
    }

    /// Number of distinct indexed values.
    pub fn distinct(&self) -> u64 {
        self.by_value.len() as u64
    }

    /// Number of entries indexed.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Whether no entries are indexed.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Iterates the `(value, keys)` postings — bucket by bucket, not in
    /// value order.
    pub fn postings(&self) -> impl Iterator<Item = (&Atom, &BTreeSet<String>)> {
        self.by_value.iter().map(|(value, keys)| (value, &**keys))
    }

    /// Points `key` at `value`, unlinking any previous value. A key
    /// already at `value` changes nothing and copies nothing.
    pub(crate) fn set(&mut self, key: &str, value: Atom) {
        if self.by_key.get(key) == Some(&value) {
            return;
        }
        self.remove(key);
        match self.by_value.get_mut(&value) {
            Some(keys) => {
                Arc::make_mut(keys).insert(key.to_owned());
            }
            None => {
                let keys = BTreeSet::from([key.to_owned()]);
                self.by_value.insert(value.clone(), Arc::new(keys));
            }
        }
        self.by_key.insert(key.into(), value);
    }

    /// Unlinks `key` entirely (entry deleted or absorbed).
    pub(crate) fn remove(&mut self, key: &str) {
        let Some(old) = self.by_key.remove(key) else {
            return;
        };
        if let Some(keys) = self.by_value.get_mut(&old) {
            if keys.len() == 1 {
                self.by_value.remove(&old);
            } else {
                Arc::make_mut(keys).remove(key);
            }
        }
    }
}

/// The primary index: entry key → entry node.
///
/// Every commit's snapshot shares the map; an operation that changes
/// the key set copies only the bucket the key hashes to. Keys are
/// `Arc<str>`: that copy bumps a reference count per key and allocates
/// no strings.
#[derive(Debug, Clone, Default)]
pub(crate) struct PrimaryIndex {
    map: BucketMap<Arc<str>, NodeId>,
}

impl PrimaryIndex {
    /// The node of the entry with this key.
    pub(crate) fn get(&self, key: &str) -> Option<NodeId> {
        self.map.get(key).copied()
    }

    /// Number of entries indexed.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Addresses `key` to `node`, replacing any previous address.
    pub(crate) fn insert(&mut self, key: &str, node: NodeId) {
        self.map.insert(key.into(), node);
    }

    /// Forgets `key`.
    pub(crate) fn remove(&mut self, key: &str) {
        self.map.remove(key);
    }
}

/// The registered secondary indexes of a curated database.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FieldIndexes {
    map: BTreeMap<String, FieldIndex>,
}

impl FieldIndexes {
    /// The index on `field`, if registered.
    pub fn get(&self, field: &str) -> Option<&FieldIndex> {
        self.map.get(field)
    }

    /// The registered field names, in order.
    pub fn fields(&self) -> Vec<String> {
        self.map.keys().cloned().collect()
    }

    /// Iterates the registered indexes in field order.
    pub fn iter(&self) -> impl Iterator<Item = &FieldIndex> {
        self.map.values()
    }

    /// Number of registered indexes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no indexes are registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Registers an empty index; `false` if one already existed.
    pub(crate) fn register(&mut self, field: &str) -> bool {
        if self.map.contains_key(field) {
            return false;
        }
        self.map.insert(field.to_owned(), FieldIndex::new(field));
        true
    }

    /// Drops an index; `false` if none was registered.
    pub(crate) fn unregister(&mut self, field: &str) -> bool {
        self.map.remove(field).is_some()
    }

    /// Mutable access for a rebuild.
    pub(crate) fn get_mut(&mut self, field: &str) -> Option<&mut FieldIndex> {
        self.map.get_mut(field)
    }

    /// Every index, mutably, for reconciliation.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut FieldIndex> {
        self.map.values_mut()
    }

    /// Unlinks a key from every index.
    pub(crate) fn remove_key(&mut self, key: &str) {
        for idx in self.map.values_mut() {
            idx.remove(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_moves_postings_between_values() {
        let mut idx = FieldIndex::new("tm");
        idx.set("P1", Atom::Int(7));
        idx.set("P2", Atom::Int(7));
        assert_eq!(idx.lookup(&Atom::Int(7)), ["P1", "P2"]);
        idx.set("P1", Atom::Int(9));
        assert_eq!(idx.lookup(&Atom::Int(7)), ["P2"]);
        assert_eq!(idx.lookup(&Atom::Int(9)), ["P1"]);
        assert_eq!(idx.distinct(), 2);
        idx.remove("P2");
        assert!(idx.lookup(&Atom::Int(7)).is_empty());
        assert_eq!(idx.distinct(), 1, "empty postings are pruned");
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn registry_registers_once() {
        let mut set = FieldIndexes::default();
        assert!(set.register("tm"));
        assert!(!set.register("tm"));
        assert_eq!(set.fields(), ["tm"]);
        assert!(set.unregister("tm"));
        assert!(!set.unregister("tm"));
        assert!(set.is_empty());
    }
}

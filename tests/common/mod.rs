//! Oracles shared by the integration suites.

use std::collections::{BTreeMap, BTreeSet};

use cdb_archive::Archive;
use cdb_core::{DbError, DbState, EntryRegistry};
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
///   event log.
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

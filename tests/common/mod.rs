//! Oracles shared by the integration suites.

use std::collections::BTreeMap;

use cdb_core::{DbError, DbState};
use cdb_model::Atom;

/// The primary index of `s` equals a rebuild from its tree: each key a
/// scan of the root's children finds is addressed to the node the scan
/// found it on, the index holds nothing else, and every identifier in
/// `ids` the scan did not find — never issued, deleted, absorbed, split
/// away, or live on another shard — is `NoSuchEntry`.
pub fn check_primary<'a>(
    s: &DbState,
    ids: impl IntoIterator<Item = &'a String>,
) -> Result<(), String> {
    let tree = &s.curated.tree;
    let mut scanned = BTreeMap::new();
    for &entry in tree.children(tree.root()).unwrap() {
        let Some(kf) = tree.child_by_label(entry, s.key_field()).unwrap() else {
            continue;
        };
        if let Some(Atom::Str(key)) = tree.value(kf).unwrap() {
            scanned.entry(key.clone()).or_insert(entry);
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
    Ok(())
}

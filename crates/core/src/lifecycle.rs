//! Entry lifecycle: fission, fusion, and retired identifiers (§6.2).
//!
//! > "To deal with this phenomenon, UniProt introduces and 'retires'
//! > object identifiers, but records the retired identifiers along with
//! > the new, primary, identifier. … Given that fission and fusion are
//! > so fundamental to the evolution of databases, they deserve better
//! > treatment in data models, which should support, at least,
//! > provenance queries of the general form: 'What happened to X?' or
//! > 'How did Y come about?'"
//!
//! The [`EntryRegistry`] is that better treatment: a complete event
//! graph over entry identifiers, answering both questions exactly. Its
//! fate map is a [`BucketMap`] and its event log a [`ChunkVec`], so a
//! snapshot shares the registry and an operation copies only the bucket
//! and the log chunk it writes.

use std::fmt;

use cdb_model::{BucketMap, ChunkVec};

/// What ultimately became of an identifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fate {
    /// Still the primary identifier of a live entry.
    Active,
    /// Merged into another entry; this identifier is retired but
    /// recorded as secondary on the survivor.
    MergedInto(String),
    /// Split into several successor entries.
    SplitInto(Vec<String>),
    /// Deleted outright.
    Deleted,
}

/// A lifecycle event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryEvent {
    /// The identifier was created (optionally from a split of another).
    Created {
        /// The new identifier.
        id: String,
        /// The predecessor it split from, if any.
        from_split: Option<String>,
        /// Logical time.
        time: u64,
    },
    /// `absorbed` was merged into `kept`.
    Merged {
        /// The surviving identifier.
        kept: String,
        /// The retired identifier.
        absorbed: String,
        /// Logical time.
        time: u64,
    },
    /// `original` split into `parts`.
    Split {
        /// The retired identifier.
        original: String,
        /// The successors.
        parts: Vec<String>,
        /// Logical time.
        time: u64,
    },
    /// The identifier was deleted.
    Deleted {
        /// The deleted identifier.
        id: String,
        /// Logical time.
        time: u64,
    },
}

/// Lifecycle errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LifecycleError {
    /// The identifier is unknown.
    Unknown(String),
    /// The identifier is not active (already retired/deleted).
    NotActive(String),
    /// The identifier already exists.
    Duplicate(String),
    /// A fusion named the same identifier as survivor and absorbed:
    /// merging an entry into itself would retire the only copy.
    SelfMerge(String),
}

impl fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LifecycleError::Unknown(id) => write!(f, "unknown entry id {id:?}"),
            LifecycleError::NotActive(id) => write!(f, "entry id {id:?} is not active"),
            LifecycleError::Duplicate(id) => write!(f, "entry id {id:?} already exists"),
            LifecycleError::SelfMerge(id) => {
                write!(f, "entry id {id:?} cannot be merged into itself")
            }
        }
    }
}

impl std::error::Error for LifecycleError {}

/// The identifier registry: every id ever issued, its fate, and the full
/// event log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EntryRegistry {
    fates: BucketMap<String, Fate>,
    events: ChunkVec<EntryEvent>,
}

impl EntryRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        EntryRegistry::default()
    }

    /// Whether the identifier is currently active.
    pub fn is_active(&self, id: &str) -> bool {
        matches!(self.fates.get(id), Some(Fate::Active))
    }

    /// The fate of an identifier.
    pub fn fate(&self, id: &str) -> Result<&Fate, LifecycleError> {
        self.fates
            .get(id)
            .ok_or_else(|| LifecycleError::Unknown(id.to_owned()))
    }

    /// All events, in order.
    pub fn events(&self) -> &ChunkVec<EntryEvent> {
        &self.events
    }

    /// Requires `id` to be active, reporting why when it is not.
    pub fn require_active(&self, id: &str) -> Result<(), LifecycleError> {
        if self.is_active(id) {
            Ok(())
        } else if self.fates.contains_key(id) {
            Err(LifecycleError::NotActive(id.to_owned()))
        } else {
            Err(LifecycleError::Unknown(id.to_owned()))
        }
    }

    /// Whether [`EntryRegistry::create`] would accept `id`. Identifiers
    /// are never reissued (§6.2: retired ids stay resolvable forever),
    /// so a previously deleted/merged/split id is a `Duplicate` even
    /// though no live entry carries it. Callers that pair a registry
    /// update with another mutation (e.g. a curation transaction) must
    /// check *before* committing the other mutation.
    pub fn check_create(&self, id: &str) -> Result<(), LifecycleError> {
        if self.fates.contains_key(id) {
            return Err(LifecycleError::Duplicate(id.to_owned()));
        }
        Ok(())
    }

    /// Whether [`EntryRegistry::merge`] would accept this fusion.
    pub fn check_merge(&self, kept: &str, absorbed: &str) -> Result<(), LifecycleError> {
        if kept == absorbed {
            return Err(LifecycleError::SelfMerge(kept.to_owned()));
        }
        self.require_active(kept)?;
        self.require_active(absorbed)
    }

    /// Whether [`EntryRegistry::split`] would accept this fission: the
    /// original is active and every part is a fresh identifier, named
    /// once.
    pub fn check_split(&self, original: &str, parts: &[String]) -> Result<(), LifecycleError> {
        self.require_active(original)?;
        for (i, p) in parts.iter().enumerate() {
            if self.fates.contains_key(p) || parts[..i].contains(p) {
                return Err(LifecycleError::Duplicate(p.clone()));
            }
        }
        Ok(())
    }

    /// Whether [`EntryRegistry::delete`] would accept this deletion.
    pub fn check_delete(&self, id: &str) -> Result<(), LifecycleError> {
        self.require_active(id)
    }

    /// Registers a fresh identifier.
    pub fn create(&mut self, id: impl Into<String>, time: u64) -> Result<(), LifecycleError> {
        let id = id.into();
        self.check_create(&id)?;
        self.fates.insert(id.clone(), Fate::Active);
        self.events.push(EntryEvent::Created {
            id,
            from_split: None,
            time,
        });
        Ok(())
    }

    /// Records a fusion: `absorbed` is retired into `kept`.
    pub fn merge(&mut self, kept: &str, absorbed: &str, time: u64) -> Result<(), LifecycleError> {
        self.check_merge(kept, absorbed)?;
        self.fates
            .insert(absorbed.to_owned(), Fate::MergedInto(kept.to_owned()));
        self.events.push(EntryEvent::Merged {
            kept: kept.to_owned(),
            absorbed: absorbed.to_owned(),
            time,
        });
        Ok(())
    }

    /// Records a fission: `original` is retired; `parts` are created.
    pub fn split(
        &mut self,
        original: &str,
        parts: &[String],
        time: u64,
    ) -> Result<(), LifecycleError> {
        self.check_split(original, parts)?;
        self.fates
            .insert(original.to_owned(), Fate::SplitInto(parts.to_vec()));
        for p in parts {
            self.fates.insert(p.clone(), Fate::Active);
            self.events.push(EntryEvent::Created {
                id: p.clone(),
                from_split: Some(original.to_owned()),
                time,
            });
        }
        self.events.push(EntryEvent::Split {
            original: original.to_owned(),
            parts: parts.to_vec(),
            time,
        });
        Ok(())
    }

    /// Records a deletion.
    pub fn delete(&mut self, id: &str, time: u64) -> Result<(), LifecycleError> {
        self.check_delete(id)?;
        self.fates.insert(id.to_owned(), Fate::Deleted);
        self.events.push(EntryEvent::Deleted {
            id: id.to_owned(),
            time,
        });
        Ok(())
    }

    /// Re-applies one recorded event during crash recovery. Events
    /// must be replayed in their original order; each call updates the
    /// fate map exactly as the original operation did and re-appends
    /// the event. (A `Split` relies on its parts' `Created` events —
    /// which the original operation also emitted — for the parts'
    /// `Active` fates.)
    pub fn replay_event(&mut self, event: &EntryEvent) {
        match event {
            EntryEvent::Created { id, .. } => {
                self.fates.insert(id.clone(), Fate::Active);
            }
            EntryEvent::Merged { kept, absorbed, .. } => {
                self.fates
                    .insert(absorbed.clone(), Fate::MergedInto(kept.clone()));
            }
            EntryEvent::Split {
                original, parts, ..
            } => {
                self.fates
                    .insert(original.clone(), Fate::SplitInto(parts.clone()));
            }
            EntryEvent::Deleted { id, .. } => {
                self.fates.insert(id.clone(), Fate::Deleted);
            }
        }
        self.events.push(event.clone());
    }

    /// "What happened to X?" — follows merges and splits forward to the
    /// set of *currently active* identifiers descending from `id`
    /// (empty if the line died out), plus the trail of events involved.
    pub fn what_happened_to(
        &self,
        id: &str,
    ) -> Result<(Vec<String>, Vec<&EntryEvent>), LifecycleError> {
        self.fate(id)?;
        let mut current = Vec::new();
        let mut trail = Vec::new();
        let mut work = vec![id.to_owned()];
        let mut seen = std::collections::BTreeSet::new();
        while let Some(x) = work.pop() {
            if !seen.insert(x.clone()) {
                continue;
            }
            match self.fates.get(&x) {
                Some(Fate::Active) => current.push(x.clone()),
                Some(Fate::MergedInto(k)) => work.push(k.clone()),
                Some(Fate::SplitInto(ps)) => work.extend(ps.iter().cloned()),
                Some(Fate::Deleted) | None => {}
            }
            for e in &self.events {
                let involved = match e {
                    EntryEvent::Merged { absorbed, .. } => absorbed == &x,
                    EntryEvent::Split { original, .. } => original == &x,
                    EntryEvent::Deleted { id, .. } => id == &x,
                    EntryEvent::Created { .. } => false,
                };
                if involved && !trail.iter().any(|t: &&EntryEvent| std::ptr::eq(*t, e)) {
                    trail.push(e);
                }
            }
        }
        current.sort();
        Ok((current, trail))
    }

    /// "How did Y come about?" — follows provenance backward to the
    /// roots: all retired/ancestor identifiers that contributed to `id`.
    pub fn how_did_come_about(&self, id: &str) -> Result<Vec<String>, LifecycleError> {
        self.fate(id)?;
        let mut ancestors = Vec::new();
        let mut work = vec![id.to_owned()];
        let mut seen = std::collections::BTreeSet::new();
        while let Some(x) = work.pop() {
            if !seen.insert(x.clone()) {
                continue;
            }
            // Who merged into x?
            for e in &self.events {
                match e {
                    EntryEvent::Merged { kept, absorbed, .. } if kept == &x => {
                        ancestors.push(absorbed.clone());
                        work.push(absorbed.clone());
                    }
                    EntryEvent::Created {
                        id: cid,
                        from_split: Some(orig),
                        ..
                    } if cid == &x => {
                        ancestors.push(orig.clone());
                        work.push(orig.clone());
                    }
                    _ => {}
                }
            }
        }
        ancestors.sort();
        ancestors.dedup();
        Ok(ancestors)
    }

    /// The retired (secondary) identifiers that resolve to `id` — the
    /// UniProt secondary-accession list.
    pub fn secondary_ids(&self, id: &str) -> Vec<String> {
        self.secondary_ids_at(id, u64::MAX)
    }

    /// The secondary identifiers of `id` *as of* logical time `time`
    /// (merges recorded later are invisible). Used by log replay to
    /// reconstruct historical published versions exactly.
    pub fn secondary_ids_at(&self, id: &str, time: u64) -> Vec<String> {
        let mut out: Vec<String> = self
            .events
            .iter()
            .filter_map(|e| match e {
                EntryEvent::Merged {
                    kept,
                    absorbed,
                    time: t,
                } if kept == id && *t <= time => Some(absorbed.clone()),
                _ => None,
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_merge_split_delete() {
        let mut r = EntryRegistry::new();
        r.create("A", 1).unwrap();
        r.create("B", 1).unwrap();
        r.merge("A", "B", 2).unwrap();
        assert!(r.is_active("A"));
        assert!(!r.is_active("B"));
        assert_eq!(r.fate("B").unwrap(), &Fate::MergedInto("A".into()));
        r.split("A", &["A1".into(), "A2".into()], 3).unwrap();
        assert!(r.is_active("A1") && r.is_active("A2"));
        r.delete("A2", 4).unwrap();
        assert_eq!(r.fate("A2").unwrap(), &Fate::Deleted);
    }

    #[test]
    fn what_happened_to_follows_chains() {
        let mut r = EntryRegistry::new();
        r.create("X", 1).unwrap();
        r.create("Y", 1).unwrap();
        r.merge("Y", "X", 2).unwrap(); // X → Y
        r.split("Y", &["Y1".into(), "Y2".into()], 3).unwrap();
        r.delete("Y2", 4).unwrap();
        let (current, trail) = r.what_happened_to("X").unwrap();
        assert_eq!(current, vec!["Y1".to_string()]);
        assert!(trail.len() >= 3, "merge, split, delete all on the trail");
    }

    #[test]
    fn how_did_come_about_collects_ancestry() {
        let mut r = EntryRegistry::new();
        r.create("A", 1).unwrap();
        r.create("B", 1).unwrap();
        r.merge("A", "B", 2).unwrap();
        r.split("A", &["C".into()], 3).unwrap();
        let anc = r.how_did_come_about("C").unwrap();
        assert_eq!(anc, vec!["A".to_string(), "B".to_string()]);
    }

    #[test]
    fn secondary_ids_list_retired_accessions() {
        let mut r = EntryRegistry::new();
        r.create("A", 1).unwrap();
        r.create("B", 1).unwrap();
        r.create("C", 1).unwrap();
        r.merge("A", "B", 2).unwrap();
        r.merge("A", "C", 3).unwrap();
        assert_eq!(r.secondary_ids("A"), vec!["B".to_string(), "C".to_string()]);
        assert!(r.secondary_ids("B").is_empty());
    }

    #[test]
    fn errors_on_bad_operations() {
        let mut r = EntryRegistry::new();
        r.create("A", 1).unwrap();
        assert!(matches!(
            r.create("A", 2),
            Err(LifecycleError::Duplicate(_))
        ));
        assert!(matches!(
            r.merge("A", "Z", 2),
            Err(LifecycleError::Unknown(_))
        ));
        r.delete("A", 3).unwrap();
        assert!(matches!(
            r.delete("A", 4),
            Err(LifecycleError::NotActive(_))
        ));
        assert!(matches!(
            r.split("A", &["B".into()], 5),
            Err(LifecycleError::NotActive(_))
        ));
    }

    #[test]
    fn self_merge_and_repeated_parts_are_rejected_without_effect() {
        let mut r = EntryRegistry::new();
        r.create("A", 1).unwrap();
        let before = r.clone();
        assert_eq!(
            r.merge("A", "A", 2),
            Err(LifecycleError::SelfMerge("A".into()))
        );
        assert_eq!(
            r.split("A", &["B".into(), "B".into()], 3),
            Err(LifecycleError::Duplicate("B".into()))
        );
        assert_eq!(r, before);
    }

    #[test]
    fn replaying_the_event_log_reconstructs_the_registry() {
        let mut r = EntryRegistry::new();
        r.create("A", 1).unwrap();
        r.create("B", 1).unwrap();
        r.merge("A", "B", 2).unwrap();
        r.split("A", &["A1".into(), "A2".into()], 3).unwrap();
        r.delete("A2", 4).unwrap();
        let mut rebuilt = EntryRegistry::new();
        for e in r.events() {
            rebuilt.replay_event(e);
        }
        assert_eq!(rebuilt, r);
    }

    #[test]
    fn dead_lines_report_empty_current() {
        let mut r = EntryRegistry::new();
        r.create("A", 1).unwrap();
        r.delete("A", 2).unwrap();
        let (current, trail) = r.what_happened_to("A").unwrap();
        assert!(current.is_empty());
        assert_eq!(trail.len(), 1);
    }
}

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
    /// Survivor → each identifier merged into it, with the merge's
    /// time: the access path behind [`EntryRegistry::secondary_ids_at`].
    /// Derived from the events like the fates — both are a fold of
    /// `record` over them.
    absorbed: BucketMap<String, Vec<(u64, String)>>,
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

    /// Whether a fresh identifier `id` may be created. Identifiers are
    /// never reissued (§6.2: retired ids stay resolvable forever), so a
    /// previously deleted/merged/split id is a `Duplicate` even though
    /// no live entry carries it.
    ///
    /// The `check_*` methods are the registry's whole validation: an
    /// operation runs its check before its curation transaction opens,
    /// and once the transaction committed hands the event to
    /// `EntryRegistry::record`, which checks nothing and cannot fail.
    pub fn check_create(&self, id: &str) -> Result<(), LifecycleError> {
        if self.fates.contains_key(id) {
            return Err(LifecycleError::Duplicate(id.to_owned()));
        }
        Ok(())
    }

    /// Whether `absorbed` may be merged into `kept`: two distinct
    /// active identifiers.
    pub fn check_merge(&self, kept: &str, absorbed: &str) -> Result<(), LifecycleError> {
        if kept == absorbed {
            return Err(LifecycleError::SelfMerge(kept.to_owned()));
        }
        self.require_active(kept)?;
        self.require_active(absorbed)
    }

    /// Whether `original` may split into `parts`: the original is
    /// active and every part is a fresh identifier, named once.
    pub fn check_split(&self, original: &str, parts: &[String]) -> Result<(), LifecycleError> {
        self.require_active(original)?;
        for (i, p) in parts.iter().enumerate() {
            if self.fates.contains_key(p) || parts[..i].contains(p) {
                return Err(LifecycleError::Duplicate(p.clone()));
            }
        }
        Ok(())
    }

    /// Whether `id` may be deleted: it is active.
    pub fn check_delete(&self, id: &str) -> Result<(), LifecycleError> {
        self.require_active(id)
    }

    /// Records one event: the registry's only mutator, called by every
    /// operation that emits an event and by recovery replaying the
    /// event log, in the original order. It updates the fate the event
    /// decides and appends the event. A fission emits a `Created` per
    /// part before its `Split`, so the parts' `Active` fates come from
    /// those.
    pub(crate) fn record(&mut self, event: EntryEvent) {
        let (id, fate) = match &event {
            EntryEvent::Created { id, .. } => (id, Fate::Active),
            EntryEvent::Merged {
                kept,
                absorbed,
                time,
            } => {
                let merge = (*time, absorbed.clone());
                match self.absorbed.get_mut(kept) {
                    Some(merges) => merges.push(merge),
                    None => {
                        self.absorbed.insert(kept.clone(), vec![merge]);
                    }
                }
                (absorbed, Fate::MergedInto(kept.clone()))
            }
            EntryEvent::Split {
                original, parts, ..
            } => (original, Fate::SplitInto(parts.clone())),
            EntryEvent::Deleted { id, .. } => (id, Fate::Deleted),
        };
        self.fates.insert(id.clone(), fate);
        self.events.push(event);
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
    /// (merges recorded later are invisible), sorted: one probe of the
    /// survivor's merges, whatever the number of events. Used by log
    /// replay to reconstruct historical published versions exactly.
    pub fn secondary_ids_at(&self, id: &str, time: u64) -> Vec<String> {
        let merges = self.absorbed.get(id).into_iter().flatten();
        let mut out: Vec<String> = merges
            .filter(|(t, _)| *t <= time)
            .map(|(_, absorbed)| absorbed.clone())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// The survivors of a merge whose time satisfies `at`: the entries
    /// whose secondary identifiers such merges moved.
    pub(crate) fn merged_at(&self, at: impl Fn(u64) -> bool) -> impl Iterator<Item = &str> {
        self.absorbed
            .iter()
            .filter(move |(_, merges)| merges.iter().any(|(t, _)| at(*t)))
            .map(|(kept, _)| kept.as_str())
    }
}

/// The registry an event log folds to: each event recorded in order.
impl FromIterator<EntryEvent> for EntryRegistry {
    fn from_iter<I: IntoIterator<Item = EntryEvent>>(events: I) -> Self {
        let mut registry = EntryRegistry::new();
        events.into_iter().for_each(|e| registry.record(e));
        registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one operation as the engine does — its check, then its
    /// events, recorded only if the check passed — from a line such as
    /// `"merge A B"` (B into A) or `"split A A1 A2"`. The logical time
    /// is the number of events before it.
    fn run(r: &mut EntryRegistry, line: &str) -> Result<(), LifecycleError> {
        let mut words = line.split(' ').map(str::to_owned);
        let (verb, id) = (words.next().unwrap(), words.next().unwrap());
        let rest: Vec<String> = words.collect();
        let time = r.events().len() as u64;
        let created = |id: &String, from_split| EntryEvent::Created {
            id: id.clone(),
            from_split,
            time,
        };
        let events = match verb.as_str() {
            "create" => r.check_create(&id).map(|()| vec![created(&id, None)]),
            "merge" => r.check_merge(&id, &rest[0]).map(|()| {
                let absorbed = rest[0].clone();
                vec![EntryEvent::Merged {
                    kept: id,
                    absorbed,
                    time,
                }]
            }),
            "split" => r.check_split(&id, &rest).map(|()| {
                let parts = rest.iter().map(|p| created(p, Some(id.clone())));
                let split = EntryEvent::Split {
                    original: id.clone(),
                    parts: rest.clone(),
                    time,
                };
                parts.chain([split]).collect()
            }),
            "delete" => r
                .check_delete(&id)
                .map(|()| vec![EntryEvent::Deleted { id, time }]),
            _ => unreachable!("unknown operation {verb}"),
        }?;
        events.into_iter().for_each(|e| r.record(e));
        Ok(())
    }

    fn registry(script: &[&str]) -> EntryRegistry {
        let mut r = EntryRegistry::new();
        for line in script {
            run(&mut r, line).unwrap();
        }
        r
    }

    #[test]
    fn create_merge_split_delete() {
        let mut r = registry(&["create A", "create B", "merge A B"]);
        assert!(r.is_active("A"));
        assert!(!r.is_active("B"));
        assert_eq!(r.fate("B").unwrap(), &Fate::MergedInto("A".into()));
        run(&mut r, "split A A1 A2").unwrap();
        assert!(r.is_active("A1") && r.is_active("A2"));
        let parts = vec!["A1".to_string(), "A2".to_string()];
        assert_eq!(r.fate("A").unwrap(), &Fate::SplitInto(parts));
        run(&mut r, "delete A2").unwrap();
        assert_eq!(r.fate("A2").unwrap(), &Fate::Deleted);
        assert_eq!(
            r.events().len(),
            7,
            "2 creates, a merge, 2 parts, a split, a delete"
        );
    }

    #[test]
    fn what_happened_to_follows_chains() {
        // X → Y → {Y1, Y2}, and Y2 is deleted.
        let script = [
            "create X",
            "create Y",
            "merge Y X",
            "split Y Y1 Y2",
            "delete Y2",
        ];
        let r = registry(&script);
        let (current, trail) = r.what_happened_to("X").unwrap();
        assert_eq!(current, vec!["Y1".to_string()]);
        assert!(trail.len() >= 3, "merge, split, delete all on the trail");
    }

    #[test]
    fn how_did_come_about_collects_ancestry() {
        let r = registry(&["create A", "create B", "merge A B", "split A C"]);
        let anc = r.how_did_come_about("C").unwrap();
        assert_eq!(anc, vec!["A".to_string(), "B".to_string()]);
    }

    #[test]
    fn secondary_ids_list_retired_accessions() {
        // The merges happen at times 3 and 4.
        let r = registry(&["create A", "create B", "create C", "merge A B", "merge A C"]);
        assert_eq!(r.secondary_ids("A"), vec!["B".to_string(), "C".to_string()]);
        assert!(r.secondary_ids("B").is_empty());
        assert_eq!(r.secondary_ids_at("A", 3), vec!["B".to_string()]);
    }

    /// Survivor → merges is a fold of `record` over the events: probing
    /// it answers as the scan of every event it replaced, at every time,
    /// for every identifier — and a registry rebuilt from its events
    /// equals it.
    mod secondary_ids {
        use super::*;
        use proptest::prelude::*;

        fn scanned(r: &EntryRegistry, id: &str, time: u64) -> Vec<String> {
            let mut out: Vec<String> = r
                .events()
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

        proptest! {
            #[test]
            fn a_probe_answers_as_the_scan(script in proptest::collection::vec((0u8..4, 0u8..8, 0u8..8), 0..40)) {
                let ids: Vec<String> = (0..8).map(|i| format!("P{i}")).collect();
                let mut r = EntryRegistry::new();
                for (verb, a, b) in script {
                    let (a, b) = (&ids[a as usize], &ids[b as usize]);
                    let line = match verb {
                        0 => format!("create {a}"),
                        1 => format!("merge {a} {b}"),
                        2 => format!("split {a} {b}"),
                        _ => format!("delete {a}"),
                    };
                    let _ = run(&mut r, &line);
                }
                for id in &ids {
                    for time in 0..=r.events().len() as u64 {
                        prop_assert_eq!(r.secondary_ids_at(id, time), scanned(&r, id, time));
                    }
                }
                let folded: EntryRegistry = r.events().iter().cloned().collect();
                prop_assert_eq!(folded, r);
            }
        }
    }

    #[test]
    fn errors_on_bad_operations() {
        let mut r = registry(&["create A"]);
        let before = r.clone();
        assert!(matches!(
            run(&mut r, "create A"),
            Err(LifecycleError::Duplicate(_))
        ));
        assert!(matches!(
            run(&mut r, "merge A Z"),
            Err(LifecycleError::Unknown(_))
        ));
        assert_eq!(r, before, "a refused op records nothing");
        run(&mut r, "delete A").unwrap();
        let before = r.clone();
        assert!(matches!(
            run(&mut r, "delete A"),
            Err(LifecycleError::NotActive(_))
        ));
        assert!(matches!(
            run(&mut r, "split A B"),
            Err(LifecycleError::NotActive(_))
        ));
        let reissued = run(&mut r, "create A");
        assert!(
            matches!(reissued, Err(LifecycleError::Duplicate(_))),
            "ids are never reissued"
        );
        assert_eq!(r, before, "a refused op records nothing");
    }

    #[test]
    fn self_merge_and_repeated_parts_are_rejected_without_effect() {
        let mut r = registry(&["create A", "create C"]);
        let before = r.clone();
        let self_merge = Err(LifecycleError::SelfMerge("A".into()));
        assert_eq!(run(&mut r, "merge A A"), self_merge);
        let repeated = Err(LifecycleError::Duplicate("B".into()));
        assert_eq!(run(&mut r, "split A B B"), repeated);
        let issued = Err(LifecycleError::Duplicate("C".into()));
        assert_eq!(
            run(&mut r, "split A B C"),
            issued,
            "a part may not reuse an issued id"
        );
        assert_eq!(r, before);
    }

    #[test]
    fn dead_lines_report_empty_current() {
        let r = registry(&["create A", "delete A"]);
        let (current, trail) = r.what_happened_to("A").unwrap();
        assert!(current.is_empty());
        assert_eq!(trail.len(), 1);
    }
}

//! Versioned citations (§5.2, after \[12\]).
//!
//! "Since the database may be expected to change, the usual principles
//! of citation dictate that one should cite, or link to, the appropriate
//! version of the database. This requires that all old versions are
//! recoverable even when the database gets constantly updated." — which
//! is exactly what the archive provides. A [`Citation`] pins database
//! name, version (with its label), and the key path of the cited entry;
//! it resolves against the archive forever, no matter how the working
//! database moves on, and carries the "small amount of extra information"
//! (title-ish label, optional authors) that lets a reader recognize the
//! cited entry without dereferencing.

use std::fmt;

use cdb_model::{KeyPath, Value};

use crate::archive::{Archive, ArchiveError, VersionId};

/// A citation of one entry of one version of a curated database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Citation {
    /// The database name.
    pub database: String,
    /// The cited version.
    pub version: VersionId,
    /// The version label (release date or name) at citation time.
    pub version_label: String,
    /// The key path of the cited entry.
    pub path: KeyPath,
    /// Authors/curators to credit, when the database records them.
    pub authors: Vec<String>,
    /// A short human-readable description of the cited entry.
    pub title: String,
}

impl Citation {
    /// Creates a citation for the entry at `path` in version `version`,
    /// verifying that the entry exists there. The `title` is derived
    /// from the entry's `name`/`id`/`ac` field when present, else from
    /// the key path.
    ///
    /// The entry is read with [`Archive::subtree_at`], which walks down
    /// the key path and rebuilds only the cited subtree: the cost is the
    /// path's depth plus the entry's size, whatever the size of the
    /// release. It reads what resolving `path` in
    /// [`Archive::retrieve`]`(version)` would.
    pub fn cite(
        archive: &Archive,
        version: VersionId,
        path: &KeyPath,
        authors: Vec<String>,
    ) -> Result<Citation, ArchiveError> {
        let info = archive
            .versions()
            .get(version as usize)
            .ok_or(ArchiveError::NoSuchVersion(version))?
            .clone();
        let entry = archive.subtree_at(path, version)?;
        let title = derive_title(&entry, path);
        Ok(Citation {
            database: archive.name().to_owned(),
            version,
            version_label: info.label,
            path: path.clone(),
            authors,
            title,
        })
    }

    /// Resolves the citation against the archive, returning the cited
    /// entry exactly as it was in the cited version. Like
    /// [`Citation::cite`], it reads one subtree with
    /// [`Archive::subtree_at`], not the whole version.
    pub fn resolve(&self, archive: &Archive) -> Result<Value, ArchiveError> {
        if archive.name() != self.database {
            return Err(ArchiveError::NoSuchKeyPath(format!(
                "citation is into database {:?}, not {:?}",
                self.database,
                archive.name()
            )));
        }
        archive.subtree_at(&self.path, self.version)
    }
}

fn derive_title(entry: &Value, path: &KeyPath) -> String {
    if let Some(rec) = entry.as_record() {
        for key in ["name", "id", "ac", "title"] {
            if let Some(Value::Atom(a)) = rec.get(key) {
                return a.to_string().trim_matches('"').to_owned();
            }
        }
    }
    path.to_string()
}

impl fmt::Display for Citation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.authors.is_empty() {
            write!(f, "{}. ", self.authors.join(", "))?;
        }
        write!(
            f,
            "\"{}\". In: {} (release {}, version {}), entry {}.",
            self.title, self.database, self.version_label, self.version, self.path
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_model::keys::KeyStep;
    use cdb_model::{Atom, KeySpec};

    fn build() -> Archive {
        let spec = KeySpec::new().rule(Vec::<String>::new(), ["name"]);
        let mut arch = Archive::new("iuphar", spec);
        arch.add_version(
            &Value::set([Value::record([
                ("name", Value::str("GABA-A")),
                ("kind", Value::str("receptor")),
            ])]),
            "2007-12",
        )
        .unwrap();
        arch.add_version(
            &Value::set([Value::record([
                ("name", Value::str("GABA-A")),
                ("kind", Value::str("ion channel")),
            ])]),
            "2008-06",
        )
        .unwrap();
        arch
    }

    fn entry_path() -> KeyPath {
        KeyPath::root().child(KeyStep::Entry(vec![Atom::Str("GABA-A".into())]))
    }

    #[test]
    fn citations_pin_versions() {
        let arch = build();
        let c0 = Citation::cite(&arch, 0, &entry_path(), vec!["A. Curator".into()]).unwrap();
        // The working database has moved on, but the citation resolves
        // to the cited version's content.
        let resolved = c0.resolve(&arch).unwrap();
        assert_eq!(resolved.field("kind").unwrap(), &Value::str("receptor"));
        let c1 = Citation::cite(&arch, 1, &entry_path(), vec![]).unwrap();
        assert_eq!(
            c1.resolve(&arch).unwrap().field("kind").unwrap(),
            &Value::str("ion channel")
        );
    }

    #[test]
    fn citation_display_is_readable() {
        let arch = build();
        let c = Citation::cite(&arch, 0, &entry_path(), vec!["A. Curator".into()]).unwrap();
        let s = c.to_string();
        assert!(s.contains("A. Curator"));
        assert!(s.contains("GABA-A"));
        assert!(s.contains("iuphar"));
        assert!(s.contains("2007-12"));
    }

    #[test]
    fn citing_a_missing_entry_fails() {
        let arch = build();
        let bad = KeyPath::root().child(KeyStep::Entry(vec![Atom::Str("nope".into())]));
        assert!(Citation::cite(&arch, 0, &bad, vec![]).is_err());
        assert!(Citation::cite(&arch, 7, &entry_path(), vec![]).is_err());
    }

    #[test]
    fn resolving_against_the_wrong_database_fails() {
        let arch = build();
        let c = Citation::cite(&arch, 0, &entry_path(), vec![]).unwrap();
        let other = Archive::new("uniprot", KeySpec::new());
        assert!(c.resolve(&other).is_err());
    }

    #[test]
    fn title_derivation_prefers_name_field() {
        let arch = build();
        let c = Citation::cite(&arch, 0, &entry_path(), vec![]).unwrap();
        assert_eq!(c.title, "GABA-A");
        // A non-record entry falls back to the path.
        let leaf = entry_path().child(KeyStep::Field("kind".into()));
        let c2 = Citation::cite(&arch, 0, &leaf, vec![]).unwrap();
        assert_eq!(c2.title, leaf.to_string());
    }
}

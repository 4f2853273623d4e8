//! Temporal (longitudinal) queries, answered directly on the archive.
//!
//! §5.1: "this archiving technique is also a promising solution for
//! answering a range of temporal queries over hierarchical data by,
//! essentially, executing them directly on the archive." The example the
//! paper keeps returning to: "query previous versions to retrieve useful
//! information such as the internet penetration of Liechtenstein over
//! the past five years, and perhaps correlate it with economic data".
//!
//! Each query here comes in two forms for the E7 benchmark: the
//! archive-direct form (one walk over the fat-node tree) and the
//! scan-all-versions baseline (retrieve every version, evaluate, merge).

use cdb_model::{Atom, KeyPath, Value};

use crate::archive::{Archive, ArchiveError, Interval, VersionId};
use crate::snapshots::SnapshotStore;

/// The series of values of an atomic key path across versions:
/// `(version, value)` for every version where it was present. The
/// archive-direct form.
pub fn series(archive: &Archive, path: &KeyPath) -> Result<Vec<(VersionId, Atom)>, ArchiveError> {
    let hist = archive.value_history(path)?;
    let n = archive.version_count();
    let mut out = Vec::new();
    for ((start, end), atom) in hist {
        let end = end.unwrap_or(n);
        for v in start..end {
            out.push((v, atom.clone()));
        }
    }
    Ok(out)
}

/// The scan-all-versions baseline for [`series`]: reconstruct every
/// snapshot and navigate it.
pub fn series_by_scan(
    store: &SnapshotStore,
    spec: &cdb_model::KeySpec,
    path: &KeyPath,
) -> Result<Vec<(VersionId, Atom)>, ArchiveError> {
    let mut out = Vec::new();
    for v in 0..store.version_count() {
        let snapshot = store.retrieve(v)?;
        if let Ok(Value::Atom(a)) = spec.resolve(&snapshot, path) {
            out.push((v, a.clone()));
        }
    }
    Ok(out)
}

/// Versions at which `pred` holds of the atomic value at `path`.
pub fn versions_where(
    archive: &Archive,
    path: &KeyPath,
    pred: impl Fn(&Atom) -> bool,
) -> Result<Vec<VersionId>, ArchiveError> {
    Ok(series(archive, path)?
        .into_iter()
        .filter(|(_, a)| pred(a))
        .map(|(v, _)| v)
        .collect())
}

/// The lifespans of every child entry of the set at `path` — e.g. each
/// country's period of existence in the Factbook (fission/fusion shows
/// up as interval boundaries). In key order; empty when the archive has
/// no node at `path`. Reads the children of that one node.
pub fn entry_lifespans(
    archive: &Archive,
    path: &KeyPath,
) -> Result<Vec<(KeyPath, Vec<Interval>)>, ArchiveError> {
    Ok(archive.entry_lifespans(path))
}

/// Pearson correlation between two atomic series over the versions where
/// both are present (the paper's "correlate it with economic data").
/// Returns `None` when fewer than two shared versions exist or a series
/// is constant.
pub fn correlate(archive: &Archive, a: &KeyPath, b: &KeyPath) -> Result<Option<f64>, ArchiveError> {
    let sa = series(archive, a)?;
    let sb = series(archive, b)?;
    let to_f = |x: &Atom| -> Option<f64> {
        match x {
            Atom::Int(i) => Some(*i as f64),
            Atom::Decimal(d) => Some(d.to_f64()),
            _ => None,
        }
    };
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (v, av) in &sa {
        if let Some((_, bv)) = sb.iter().find(|(w, _)| w == v) {
            if let (Some(x), Some(y)) = (to_f(av), to_f(bv)) {
                xs.push(x);
                ys.push(y);
            }
        }
    }
    if xs.len() < 2 {
        return Ok(None);
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let vx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let vy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    if vx == 0.0 || vy == 0.0 {
        return Ok(None);
    }
    Ok(Some(cov / (vx.sqrt() * vy.sqrt())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_model::keys::KeyStep;
    use cdb_model::KeySpec;

    fn spec() -> KeySpec {
        KeySpec::new().rule(Vec::<String>::new(), ["name"])
    }

    fn country(name: &str, net: i64, gdp: i64) -> Value {
        Value::record([
            ("name", Value::str(name)),
            ("internet_users", Value::int(net)),
            ("gdp", Value::int(gdp)),
        ])
    }

    fn liecht_path(field: &str) -> KeyPath {
        KeyPath::root()
            .child(KeyStep::Entry(vec![Atom::Str("Liechtenstein".into())]))
            .child(KeyStep::Field(field.into()))
    }

    /// Five "years" of Factbook data for Liechtenstein.
    fn build() -> (Archive, SnapshotStore) {
        let mut arch = Archive::new("factbook", spec());
        let mut snaps = SnapshotStore::new();
        for (i, (net, gdp)) in [(10, 100), (12, 110), (15, 130), (20, 160), (26, 200)]
            .iter()
            .enumerate()
        {
            let v = Value::set([country("Liechtenstein", *net, *gdp)]);
            arch.add_version(&v, format!("200{i}")).unwrap();
            snaps.add_version(&v, format!("200{i}"));
        }
        (arch, snaps)
    }

    #[test]
    fn series_matches_scan_baseline() {
        let (arch, snaps) = build();
        let p = liecht_path("internet_users");
        let direct = series(&arch, &p).unwrap();
        let scanned = series_by_scan(&snaps, &spec(), &p).unwrap();
        assert_eq!(direct, scanned);
        assert_eq!(direct.len(), 5);
        assert_eq!(direct[0], (0, Atom::Int(10)));
        assert_eq!(direct[4], (4, Atom::Int(26)));
    }

    #[test]
    fn versions_where_filters() {
        let (arch, _) = build();
        let p = liecht_path("internet_users");
        let vs = versions_where(&arch, &p, |a| matches!(a, Atom::Int(i) if *i >= 15)).unwrap();
        assert_eq!(vs, vec![2, 3, 4]);
    }

    #[test]
    fn correlation_of_growing_series_is_high() {
        let (arch, _) = build();
        let c = correlate(&arch, &liecht_path("internet_users"), &liecht_path("gdp"))
            .unwrap()
            .unwrap();
        assert!(c > 0.98, "both grow monotonically: r = {c}");
    }

    #[test]
    fn correlation_none_for_constant_series() {
        let mut arch = Archive::new("f", spec());
        for i in 0..3 {
            arch.add_version(&Value::set([country("X", 5, 100 + i)]), i.to_string())
                .unwrap();
        }
        let c = correlate(
            &arch,
            &KeyPath::root()
                .child(KeyStep::Entry(vec![Atom::Str("X".into())]))
                .child(KeyStep::Field("internet_users".into())),
            &KeyPath::root()
                .child(KeyStep::Entry(vec![Atom::Str("X".into())]))
                .child(KeyStep::Field("gdp".into())),
        )
        .unwrap();
        assert_eq!(c, None);
    }

    #[test]
    fn entry_lifespans_report_each_country() {
        let mut arch = Archive::new("f", spec());
        arch.add_version(&Value::set([country("A", 1, 1), country("B", 2, 2)]), "0")
            .unwrap();
        arch.add_version(&Value::set([country("A", 1, 1)]), "1")
            .unwrap();
        let spans = entry_lifespans(&arch, &KeyPath::root()).unwrap();
        assert_eq!(spans.len(), 2);
        let b = spans
            .iter()
            .find(|(p, _)| p.to_string().contains('B'))
            .unwrap();
        assert_eq!(b.1, vec![(0, Some(1))]);
    }

    #[test]
    fn missing_path_errors() {
        let (arch, _) = build();
        let p = KeyPath::root().child(KeyStep::Field("nope".into()));
        assert!(series(&arch, &p).is_err());
    }
}

//! Property-based tests: codec round-trips for arbitrary values, and
//! store equivalence (archive = snapshots = deltas) over random keyed
//! version sequences; a delta merge encodes as the full merge; the
//! archive's own encoding round-trips and refuses what it did not
//! write; a keyed read of one subtree is the whole version's read
//! resolved at the key path.

use cdb_archive::codec::{decode_value, encode_value, CodecError};
use std::collections::{BTreeMap, BTreeSet};

use cdb_archive::{temporal, Archive, ArchiveError, DeltaStore, SnapshotStore};
use cdb_model::keys::KeyStep;
use cdb_model::{Atom, KeyPath, KeySpec, Value};
use proptest::prelude::*;

fn atom() -> impl Strategy<Value = Atom> {
    prop_oneof![
        Just(Atom::Unit),
        any::<bool>().prop_map(Atom::Bool),
        any::<i64>().prop_map(Atom::Int),
        "[ -~]{0,12}".prop_map(Atom::Str),
        (any::<i64>(), 0u8..6).prop_map(|(d, s)| {
            Atom::Decimal(cdb_model::atom::Decimal::new(
                d.clamp(-1_000_000, 1_000_000),
                s,
            ))
        }),
    ]
}

fn value() -> impl Strategy<Value = Value> {
    let leaf = atom().prop_map(Value::Atom);
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            proptest::collection::btree_map("[a-d]{1,3}", inner.clone(), 0..4)
                .prop_map(Value::Record),
            proptest::collection::btree_set(inner.clone(), 0..4).prop_map(Value::Set),
            proptest::collection::vec(inner, 0..4).prop_map(Value::List),
        ]
    })
}

proptest! {
    /// The binary codec round-trips every value.
    #[test]
    fn codec_round_trips(v in value()) {
        let bytes = encode_value(&v);
        prop_assert_eq!(decode_value(&bytes).unwrap(), v);
    }

    /// Truncated encodings never decode successfully to the same value
    /// (they error or — never — succeed spuriously on full input).
    #[test]
    fn codec_rejects_truncation(v in value()) {
        let bytes = encode_value(&v);
        if bytes.len() > 1 {
            prop_assert!(decode_value(&bytes[..bytes.len()-1]).is_err());
        }
    }
}

/// A generator of keyed version sequences: a map entry per key, each
/// version flips values and adds/removes entries.
fn version_sequences() -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(
        proptest::collection::btree_map("[a-h]", (-50i64..50, any::<bool>()), 0..8),
        1..8,
    )
    .prop_map(|versions| {
        versions
            .into_iter()
            .map(|entries| {
                Value::set(entries.into_iter().map(|(name, (val, flag))| {
                    Value::record([
                        ("name", Value::str(name)),
                        ("val", Value::int(val)),
                        ("flag", Value::atom(flag)),
                    ])
                }))
            })
            .collect()
    })
}

proptest! {
    /// Archive, snapshots and delta log reconstruct identical versions
    /// for arbitrary keyed evolutions — including deletions and
    /// re-additions.
    #[test]
    fn stores_agree_on_all_versions(versions in version_sequences()) {
        let spec = KeySpec::new().rule(Vec::<String>::new(), ["name"]);
        let mut archive = Archive::new("p", spec.clone());
        let mut snaps = SnapshotStore::new();
        let mut deltas = DeltaStore::new(spec);
        for (i, v) in versions.iter().enumerate() {
            archive.add_version(v, format!("{i}")).unwrap();
            snaps.add_version(v, format!("{i}"));
            deltas.add_version(v, format!("{i}")).unwrap();
        }
        for (i, expected) in versions.iter().enumerate() {
            let v = i as u32;
            prop_assert_eq!(&archive.retrieve(v).unwrap(), expected);
            prop_assert_eq!(&snaps.retrieve(v).unwrap(), expected);
            prop_assert_eq!(&deltas.retrieve(v).unwrap(), expected);
        }
    }

    /// An archive decodes from its encoding to one that encodes the
    /// same, retrieves the same versions, and merges the next version
    /// as the original does.
    #[test]
    fn archive_encoding_round_trips(versions in version_sequences()) {
        let spec = KeySpec::new().rule(Vec::<String>::new(), ["name"]);
        let (last, head) = versions.split_last().unwrap();
        let mut archive = Archive::new("p", spec.clone());
        for (i, v) in head.iter().enumerate() {
            archive.add_version(v, format!("{i}")).unwrap();
        }
        let mut back = Archive::decode("p", spec, &archive.encode()).unwrap();
        prop_assert_eq!(back.encode(), archive.encode());
        for (i, expected) in head.iter().enumerate() {
            prop_assert_eq!(&back.retrieve(i as u32).unwrap(), expected);
        }
        archive.add_version(last, "last").unwrap();
        back.add_version(last, "last").unwrap();
        prop_assert_eq!(back.encode(), archive.encode());
    }

    /// Archive diffs are sound: applying the reported change set
    /// explains exactly the differing keyed nodes.
    #[test]
    fn archive_diff_is_sound(versions in version_sequences()) {
        prop_assume!(versions.len() >= 2);
        let spec = KeySpec::new().rule(Vec::<String>::new(), ["name"]);
        let mut archive = Archive::new("p", spec.clone());
        for (i, v) in versions.iter().enumerate() {
            archive.add_version(v, format!("{i}")).unwrap();
        }
        let (a, b) = (0u32, (versions.len() - 1) as u32);
        let diff = archive.diff(a, b).unwrap();
        if versions[0] == versions[versions.len() - 1] {
            prop_assert!(diff.is_empty());
        } else {
            prop_assert!(!diff.is_empty());
        }
    }
}

/// One entry of a random history: a value, a field whose shape flips
/// between absent, atom, record and list, and secondary identifiers.
type EntryDraw = (i64, u8, BTreeSet<String>);

fn history_entry(name: &str, (val, shape, secondary): &EntryDraw) -> Value {
    let mut fields = vec![("name", Value::str(name)), ("val", Value::int(*val))];
    match shape {
        0 => {}
        1 => fields.push(("info", Value::int(val % 2))),
        2 => fields.push(("info", Value::record([("x", Value::int(val % 2))]))),
        _ => {
            let items = (0..=val.rem_euclid(3)).map(Value::int).collect();
            fields.push(("info", Value::List(items)));
        }
    }
    if !secondary.is_empty() {
        let ids = secondary.iter().map(Value::str);
        fields.push(("secondary_ids", Value::set(ids)));
    }
    Value::record(fields)
}

/// Histories of keyed releases: entries come, go and come back, change
/// value, flip `info` between atom, record and lists of one to three
/// items, gain and lose secondary identifiers; a narrow value range
/// keeps many entries unchanged.
fn histories() -> impl Strategy<Value = Vec<BTreeMap<String, EntryDraw>>> {
    let draw = (
        -2i64..2,
        0u8..4,
        proptest::collection::btree_set("[x-z]", 0..3),
    );
    proptest::collection::vec(proptest::collection::btree_map("[a-f]", draw, 0..6), 1..10)
}

proptest! {
    /// Merging only what changed — each entry new or different since
    /// the last release, plus the steps of the gone ones — encodes byte
    /// for byte as merging every release whole. Unchanged entries named
    /// as changed anyway (value 0) and gone steps for keys never seen
    /// change nothing. Keyed reads of the full-merged, the delta-merged
    /// and the decoded archive agree with their whole-version reads
    /// (`keyed_reads_agree`).
    #[test]
    fn a_delta_merge_encodes_as_the_full_merge(history in histories()) {
        let spec = KeySpec::new().rule(Vec::<String>::new(), ["name"]);
        let step = |name: &str| KeyStep::Entry(vec![Atom::Str(name.to_owned())]);
        let mut full = Archive::new("p", spec.clone());
        let mut delta = Archive::new("p", spec);
        let mut last: BTreeMap<String, EntryDraw> = BTreeMap::new();
        for (i, release) in history.iter().enumerate() {
            let whole = Value::set(release.iter().map(|(k, e)| history_entry(k, e)));
            full.add_version(&whole, format!("{i}")).unwrap();
            let changed: Vec<Value> = release
                .iter()
                .filter(|(k, e)| last.get(*k) != Some(*e) || e.0 == 0)
                .map(|(k, e)| history_entry(k, e))
                .collect();
            let mut gone: Vec<KeyStep> = last
                .keys()
                .filter(|k| !release.contains_key(*k))
                .map(|k| step(k))
                .collect();
            gone.push(step("never"));
            delta.add_version_delta(&changed, &gone, format!("{i}")).unwrap();
            prop_assert_eq!(delta.encode(), full.encode(), "release {}", i);
            last = release.clone();
        }
        for v in 0..full.version_count() {
            prop_assert_eq!(delta.retrieve(v).unwrap(), full.retrieve(v).unwrap());
        }
        let decoded = Archive::decode("p", full.spec().clone(), &full.encode()).unwrap();
        for archive in [&full, &delta, &decoded] {
            keyed_reads_agree(archive)?;
        }
    }
}

fn factbook_spec() -> KeySpec {
    KeySpec::new().rule(Vec::<String>::new(), ["name"])
}

fn country(name: &str, pop: i64) -> Value {
    Value::record([("name", Value::str(name)), ("population", Value::int(pop))])
}

fn decoded(arch: &Archive) -> Archive {
    let back = Archive::decode(arch.name(), arch.spec().clone(), &arch.encode()).unwrap();
    assert_eq!(back.encode(), arch.encode());
    assert_eq!(back.versions(), arch.versions());
    for v in 0..arch.version_count() {
        assert_eq!(back.retrieve(v).unwrap(), arch.retrieve(v).unwrap());
    }
    back
}

#[test]
fn a_node_with_254_intervals_round_trips() {
    // 254 encodes as the varint `fe 01`: the count must not be
    // mistaken for the hereditary marker.
    let mut arch = Archive::new("factbook", factbook_spec());
    let with = Value::set([country("Iceland", 1), country("USSR", 2)]);
    let without = Value::set([country("Iceland", 1)]);
    for v in 0..508 {
        let value = if v % 2 == 0 { &with } else { &without };
        arch.add_version(value, format!("v{v}")).unwrap();
    }
    let kp = KeyPath::root().child(KeyStep::Entry(vec![Atom::Str("USSR".into())]));
    assert_eq!(arch.lifespan(&kp).unwrap().len(), 254);
    let back = decoded(&arch);
    assert_eq!(back.lifespan(&kp).unwrap(), arch.lifespan(&kp).unwrap());
}

#[test]
fn a_decoded_archive_merges_on_as_the_original() {
    let mut arch = Archive::new("factbook", factbook_spec());
    arch.add_version(&Value::set([country("Iceland", 1)]), "a")
        .unwrap();
    let next = Value::set([country("Iceland", 2), country("Latvia", 3)]);
    let mut back = decoded(&arch);
    arch.add_version(&next, "b").unwrap();
    back.add_version(&next, "b").unwrap();
    assert_eq!(back.encode(), arch.encode());
    // An empty archive round-trips too.
    decoded(&Archive::new("empty", factbook_spec()));
}

#[test]
fn truncations_and_unknown_tags_are_errors() {
    let mut arch = Archive::new("factbook", factbook_spec());
    arch.add_version(&Value::set([country("Iceland", 1)]), "a")
        .unwrap();
    arch.add_version(&Value::set([country("Latvia", 3)]), "b")
        .unwrap();
    let bytes = arch.encode();
    for cut in 0..bytes.len() {
        assert!(
            Archive::decode("f", factbook_spec(), &bytes[..cut]).is_err(),
            "cut at {cut}"
        );
    }
    let decode = |bytes: &[u8]| Archive::decode("f", KeySpec::new(), bytes);
    let mut trailing = bytes.clone();
    trailing.push(0);
    assert!(decode(&trailing).is_err());
    // The root of `{a: 1}`: one interval [0, ∞), one shape
    // interval (Record), no atoms, one child under a Field step.
    let mut arch = Archive::new("r", KeySpec::new());
    arch.add_version(&Value::record([("a", Value::int(1))]), "x")
        .unwrap();
    let bytes = arch.encode();
    assert_eq!(bytes[..9], [2, 0, 0, 1, 0, 0, 1, 0, 1]);
    let (shape_at, step_at) = (6, 9);
    assert_eq!(bytes[step_at], 1);
    for (at, tag) in [(shape_at, 4), (step_at, 0), (step_at, 4)] {
        let mut bad = bytes.clone();
        bad[at] = tag;
        assert_eq!(decode(&bad).unwrap_err(), CodecError::BadTag(tag));
    }
    // A hereditary marker where there is no parent to inherit from.
    let mut bad = bytes.clone();
    bad[0] = 0;
    assert!(decode(&bad).is_err());
}

/// A value whose nodes take any shape: atoms, sets of atoms (the only
/// sets an empty key spec accepts), lists and records, two levels deep.
fn shaped(depth: u32) -> BoxedStrategy<Value> {
    let leaf = (0i64..3).prop_map(Value::int);
    let set = proptest::collection::btree_set(0i64..3, 0..3)
        .prop_map(|xs| Value::set(xs.into_iter().map(Value::int)));
    if depth == 0 {
        return prop_oneof![leaf, set].boxed();
    }
    let inner = shaped(depth - 1);
    prop_oneof![
        leaf,
        set,
        proptest::collection::vec(inner.clone(), 0..3).prop_map(Value::List),
        proptest::collection::btree_map("[ab]", inner, 0..3).prop_map(Value::Record),
    ]
    .boxed()
}

/// Every key path `value` holds, below and including `here`.
fn held_paths(value: &Value, here: KeyPath, out: &mut BTreeSet<KeyPath>) {
    out.insert(here.clone());
    match value {
        Value::Atom(_) => {}
        Value::Record(m) => {
            for (label, child) in m {
                held_paths(child, here.child(KeyStep::Field(label.clone())), out);
            }
        }
        Value::Set(s) => {
            for child in s {
                let atom = child.as_atom().expect("sets of atoms").clone();
                held_paths(child, here.child(KeyStep::Entry(vec![atom])), out);
            }
        }
        Value::List(xs) => {
            for (i, child) in xs.iter().enumerate() {
                held_paths(child, here.child(KeyStep::Index(i)), out);
            }
        }
    }
}

proptest! {
    /// Nodes flip between set, list, record and atom from one version
    /// to the next: a node is present in exactly the versions that
    /// hold its path, whatever shape its parent had before, and every
    /// version retrieves as it was merged.
    #[test]
    fn presence_follows_the_value_through_shape_changes(
        versions in proptest::collection::vec(
            proptest::collection::btree_map("[ab]", shaped(1), 0..3).prop_map(Value::Record),
            1..6,
        ),
    ) {
        let mut archive = Archive::new("p", KeySpec::new());
        let mut held = Vec::new();
        for (i, v) in versions.iter().enumerate() {
            archive.add_version(v, format!("{i}")).unwrap();
            let mut paths = BTreeSet::new();
            held_paths(v, KeyPath::root(), &mut paths);
            held.push(paths);
        }
        for path in archive.all_key_paths() {
            for (v, paths) in held.iter().enumerate() {
                prop_assert_eq!(
                    archive.present_at(&path, v as u32),
                    paths.contains(&path),
                    "{} in version {}", path, v
                );
            }
        }
        for (v, expected) in versions.iter().enumerate() {
            prop_assert_eq!(&archive.retrieve(v as u32).unwrap(), expected);
        }
        let back = Archive::decode("p", KeySpec::new(), &archive.encode()).unwrap();
        prop_assert_eq!(back.encode(), archive.encode());
    }
}

/// Key paths no version of `archive` holds: a field, an entry and an
/// index below every node the archive has, the root included.
fn absent_paths(archive: &Archive) -> Vec<KeyPath> {
    let never = [
        KeyStep::Field("never".into()),
        KeyStep::Entry(vec![Atom::Str("never".into())]),
        KeyStep::Index(7),
    ];
    let mut out = Vec::new();
    for path in archive.all_key_paths() {
        out.extend(never.iter().map(|step| path.child(step.clone())));
    }
    out
}

/// `subtree_at(path, v)` reads what resolving `path` in `retrieve(v)`
/// does, for every path the archive ever held and some it never did,
/// in every version and one past the last (which must be
/// `NoSuchVersion`). `entry_lifespans` lists what filtering every key
/// path of the archive to the entries under `path` lists.
fn keyed_reads_agree(archive: &Archive) -> Result<(), TestCaseError> {
    let known = archive.all_key_paths();
    let paths: Vec<KeyPath> = known.iter().cloned().chain(absent_paths(archive)).collect();
    let n = archive.version_count();
    for v in 0..=n {
        let whole = archive.retrieve(v).ok();
        for path in &paths {
            let read = archive.subtree_at(path, v);
            let resolved = whole
                .as_ref()
                .and_then(|whole| archive.spec().resolve(whole, path).ok());
            prop_assert_eq!(read.as_ref().ok(), resolved, "{} in version {}", path, v);
            if v == n {
                prop_assert_eq!(read, Err(ArchiveError::NoSuchVersion(v)));
            }
        }
    }
    for path in &paths {
        let by_scan: Vec<_> = known
            .iter()
            .filter(|kp| {
                kp.len() == path.len() + 1
                    && path.is_prefix_of(kp)
                    && matches!(kp.steps().last(), Some(KeyStep::Entry(_)))
            })
            .map(|kp| (kp.clone(), archive.lifespan(kp).unwrap()))
            .collect();
        prop_assert_eq!(
            temporal::entry_lifespans(archive, path).unwrap(),
            by_scan,
            "{}",
            path
        );
    }
    Ok(())
}

proptest! {
    /// Keyed reads agree with whole-version reads on unkeyed records
    /// whose nodes flip between set, list, record and atom from one
    /// version to the next, merged and decoded.
    #[test]
    fn a_keyed_read_follows_shape_changes(
        versions in proptest::collection::vec(
            proptest::collection::btree_map("[ab]", shaped(2), 0..3).prop_map(Value::Record),
            1..6,
        ),
    ) {
        let mut archive = Archive::new("p", KeySpec::new());
        for (i, v) in versions.iter().enumerate() {
            archive.add_version(v, format!("{i}")).unwrap();
        }
        keyed_reads_agree(&archive)?;
        keyed_reads_agree(&Archive::decode("p", KeySpec::new(), &archive.encode()).unwrap())?;
    }
}

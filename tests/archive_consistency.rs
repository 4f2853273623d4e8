//! Cross-crate integration: the three version stores agree on every
//! version of realistic workloads, temporal queries agree with the
//! scan-everything baseline, citations stay resolvable forever, and the
//! engine's archive — merged by delta at publish, rebuilt on open,
//! carried by a checkpoint — encodes as a full merge of every release.

mod common;

use std::path::PathBuf;

use cdb_core::CuratedDatabase;
use cdb_storage::{CheckpointStore, FileIo, Retention, SegmentConfig, SegmentedIo};
use curated_db::archive::temporal;
use curated_db::archive::{Archive, Citation, DeltaStore, SnapshotStore};
use curated_db::model::keys::KeyStep;
use curated_db::workload::factbook::{FactbookConfig, FactbookSim};
use curated_db::workload::uniprot::{UniprotConfig, UniprotSim};
use curated_db::{Atom, KeyPath, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build_all(
    spec: curated_db::KeySpec,
    versions: &[Value],
) -> (Archive, SnapshotStore, DeltaStore) {
    let mut archive = Archive::new("db", spec.clone());
    let mut snaps = SnapshotStore::new();
    let mut deltas = DeltaStore::new(spec);
    for (i, v) in versions.iter().enumerate() {
        archive.add_version(v, format!("v{i}")).unwrap();
        snaps.add_version(v, format!("v{i}"));
        deltas.add_version(v, format!("v{i}")).unwrap();
    }
    (archive, snaps, deltas)
}

#[test]
fn all_stores_reconstruct_identical_uniprot_releases() {
    let mut sim = UniprotSim::new(
        99,
        UniprotConfig {
            initial_entries: 60,
            adds_per_release: 8,
            ..Default::default()
        },
    );
    let mut versions = Vec::new();
    for _ in 0..12 {
        versions.push(sim.snapshot());
        sim.advance();
    }
    let (archive, snaps, deltas) = build_all(UniprotSim::key_spec(), &versions);
    for v in 0..versions.len() as u32 {
        let a = archive.retrieve(v).unwrap();
        assert_eq!(a, versions[v as usize], "archive v{v}");
        assert_eq!(a, snaps.retrieve(v).unwrap(), "snapshot v{v}");
        assert_eq!(a, deltas.retrieve(v).unwrap(), "delta v{v}");
    }
}

#[test]
fn archive_is_smaller_than_snapshots_on_append_mostly_data() {
    let mut sim = UniprotSim::new(
        7,
        UniprotConfig {
            initial_entries: 80,
            adds_per_release: 5,
            ..Default::default()
        },
    );
    let mut versions = Vec::new();
    for _ in 0..15 {
        versions.push(sim.snapshot());
        sim.advance();
    }
    let (archive, snaps, _) = build_all(UniprotSim::key_spec(), &versions);
    // §5.1's claim: for databases where "updates are mostly additions
    // and a node tends to persist", the merged archive is far smaller
    // than keeping all versions.
    assert!(
        archive.encoded_size() * 3 < snaps.encoded_size(),
        "archive {} B vs snapshots {} B",
        archive.encoded_size(),
        snaps.encoded_size()
    );
}

#[test]
fn temporal_series_agree_with_scan_baseline_on_factbook() {
    let mut sim = FactbookSim::new(
        11,
        FactbookConfig {
            countries: 25,
            fission_probability: 0.3,
            ..Default::default()
        },
    );
    let first_country = sim.country_name(0).to_owned();
    let mut versions = Vec::new();
    for _ in 0..10 {
        versions.push(sim.snapshot());
        sim.advance();
    }
    let (archive, snaps, _) = build_all(FactbookSim::key_spec(), &versions);
    let spec = FactbookSim::key_spec();
    let path = KeyPath::root()
        .child(KeyStep::Entry(vec![Atom::Str(first_country)]))
        .child(KeyStep::Field("people".into()))
        .child(KeyStep::Field("population".into()));
    let direct = temporal::series(&archive, &path).unwrap();
    let scanned = temporal::series_by_scan(&snaps, &spec, &path).unwrap();
    assert_eq!(direct, scanned);
    assert!(!direct.is_empty());
}

#[test]
fn fissioned_countries_have_bounded_lifespans() {
    let mut sim = FactbookSim::new(
        13,
        FactbookConfig {
            countries: 10,
            fission_probability: 1.0,
            ..Default::default()
        },
    );
    let mut versions = Vec::new();
    for _ in 0..5 {
        versions.push(sim.snapshot());
        sim.advance();
    }
    assert!(!sim.fissions.is_empty());
    let (archive, _, _) = build_all(FactbookSim::key_spec(), &versions);
    for f in &sim.fissions {
        if f.year as usize >= versions.len() {
            continue; // split after the last archived version
        }
        let kp = KeyPath::root().child(KeyStep::Entry(vec![Atom::Str(f.original.clone())]));
        let spans = archive.lifespan(&kp).unwrap();
        // The original ends exactly at its fission year.
        assert_eq!(spans.last().unwrap().1, Some(f.year));
    }
}

#[test]
fn citations_survive_database_evolution() {
    let mut sim = UniprotSim::new(
        5,
        UniprotConfig {
            initial_entries: 10,
            ..Default::default()
        },
    );
    let first = sim.snapshot();
    let ac = first
        .as_set()
        .unwrap()
        .iter()
        .next()
        .unwrap()
        .field("ac")
        .unwrap()
        .clone();
    let Value::Atom(Atom::Str(ac)) = ac else {
        panic!()
    };

    let mut archive = Archive::new("uniprot", UniprotSim::key_spec());
    archive.add_version(&first, "rel-1").unwrap();
    let path = KeyPath::root().child(KeyStep::Entry(vec![Atom::Str(ac.clone())]));
    let citation =
        Citation::cite(&archive, 0, &path, vec!["The UniProt Consortium".into()]).unwrap();
    let original_entry = citation.resolve(&archive).unwrap();

    // Twenty more releases later…
    for i in 0..20 {
        sim.advance();
        archive
            .add_version(&sim.snapshot(), format!("rel-{}", i + 2))
            .unwrap();
    }
    // …the citation still resolves to the identical entry.
    assert_eq!(citation.resolve(&archive).unwrap(), original_entry);
    assert!(citation.to_string().contains("rel-1"));
}

#[test]
fn archive_diffs_match_store_level_reconstruction() {
    let mut sim = FactbookSim::new(17, FactbookConfig::default());
    let v0 = sim.snapshot();
    sim.advance();
    let v1 = sim.snapshot();
    let (archive, _, _) = build_all(FactbookSim::key_spec(), &[v0.clone(), v1.clone()]);
    let diff = archive.diff(0, 1).unwrap();
    if v0 != v1 {
        assert!(!diff.is_empty());
    }
    // Every reported change names a key path that exists in one of the
    // versions.
    let spec = FactbookSim::key_spec();
    for (kp, _) in &diff {
        let in_v0 = spec.resolve(&v0, kp).is_ok();
        let in_v1 = spec.resolve(&v1, kp).is_ok();
        assert!(in_v0 || in_v1, "{kp} in neither version");
    }
}

/// A database's files in a directory of their own: a reopen reads back
/// what the life before it wrote. Removed when dropped.
struct Home {
    dir: PathBuf,
    paged: bool,
    retention: Retention,
}

impl Home {
    fn new(tag: &str, paged: bool, retention: Retention) -> Home {
        let name = format!("cdb-archive-{tag}-{}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Home {
            dir,
            paged,
            retention,
        }
    }

    fn open(&self) -> CuratedDatabase {
        let cfg = SegmentConfig {
            segment_bytes: 512,
            retention: self.retention,
        };
        let wal = Box::new(SegmentedIo::open_dir(&self.dir, "db", cfg).unwrap());
        let ckpt = CheckpointStore::dir(&self.dir, "db");
        let mut db = if self.paged {
            let heap = Box::new(FileIo::open(self.dir.join("db.heap")).unwrap());
            CuratedDatabase::open_paged("db", "ac", wal, ckpt, heap, 0).unwrap()
        } else {
            CuratedDatabase::open("db", "ac", wal, ckpt).unwrap()
        };
        db.set_retention(self.retention);
        db
    }
}

impl Drop for Home {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One random curation step at time `t`: an add, edit, delete, fusion
/// or fission, over the live `keys`.
fn curate(db: &mut CuratedDatabase, rng: &mut StdRng, t: u64, keys: &mut Vec<String>) {
    let fields = |rng: &mut StdRng| {
        let n = rng.gen_range(0..3);
        vec![("gn", Atom::Int(n)), ("os", Atom::Str(format!("o{n}")))]
    };
    let pick = |rng: &mut StdRng, keys: &[String]| rng.gen_range(0..keys.len());
    match rng.gen_range(0..10) {
        0..=3 if keys.len() >= 3 => {
            let key = &keys[pick(rng, keys)];
            let value = if rng.gen_bool(0.2) {
                Atom::Str(format!("s{t}"))
            } else {
                Atom::Int(rng.gen_range(0..3))
            };
            db.edit_field("c", t, key, "gn", value).unwrap();
        }
        4 if keys.len() >= 3 => {
            let key = keys.remove(pick(rng, keys));
            db.delete_entry("c", t, &key).unwrap();
        }
        5 | 6 if keys.len() >= 3 => {
            let absorbed = keys.remove(pick(rng, keys));
            let kept = keys[pick(rng, keys)].clone();
            db.merge_entries("c", t, &kept, &absorbed).unwrap();
        }
        7 if keys.len() >= 3 => {
            let original = keys.remove(pick(rng, keys));
            let parts = [format!("{original}.1"), format!("{original}.2")];
            let (a, b) = (fields(rng), fields(rng));
            db.split_entry("c", t, &original, &[(&parts[0], a), (&parts[1], b)])
                .unwrap();
            keys.extend(parts);
        }
        _ => {
            let key = format!("k{t:03}");
            db.add_entry("c", t, &key, &fields(rng)).unwrap();
            keys.push(key);
        }
    }
}

/// A career of curation, publishes, checkpoints and clean reopens. After
/// every publish and every reopen the live archive encodes as the
/// full-export oracle, and so does `archive_from_log()` wherever the
/// log is whole (under `Retention::Reclaim` a reopen after a checkpoint
/// cuts it, and the archive comes back from the checkpoint instead).
/// Returns how many reopens found the log cut.
fn archive_career(seed: u64, paged: bool, retention: Retention) -> usize {
    let tag = format!("{seed}-{paged}-{retention:?}");
    let home = Home::new(&tag, paged, retention);
    let mut db = home.open();
    let mut oracle = common::FullMerge::new(&db);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys = Vec::new();
    let mut cut_reopens = 0;
    for t in 1..=90u64 {
        let step = rng.gen_range(0..20);
        match step {
            0..=2 => {
                let label = format!("r{t}");
                db.publish(label.clone()).unwrap();
                oracle.publish(&db, &label);
            }
            3 => {
                db.checkpoint().unwrap();
            }
            4 => {
                drop(db);
                db = home.open();
                cut_reopens += usize::from(db.curated.base_txn_id().is_some());
                common::check_derived(&db, &keys).unwrap();
            }
            _ => curate(&mut db, &mut rng, t, &mut keys),
        }
        if step <= 4 {
            assert_eq!(db.archive().encode(), oracle.0.encode(), "{tag}: step {t}");
            if db.curated.base_txn_id().is_none() {
                let from_log = db.archive_from_log().unwrap();
                assert_eq!(from_log.encode(), oracle.0.encode(), "{tag}: log at {t}");
            }
        }
    }
    cut_reopens
}

#[test]
fn every_archive_encodes_as_the_full_merge_across_reopens() {
    for paged in [false, true] {
        let mut cut = 0;
        for seed in 1..=3 {
            assert_eq!(archive_career(seed, paged, Retention::KeepAll), 0);
            cut += archive_career(seed, paged, Retention::Reclaim);
        }
        assert!(
            cut > 0,
            "paged {paged}: no reopen under Reclaim found the log cut"
        );
    }
}

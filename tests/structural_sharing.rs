//! Structural sharing between epochs: a published snapshot shares the
//! chunks and buckets of the state it froze, so no write may reach
//! through a shared chunk into a snapshot taken before it.
//!
//! * Seeded careers on a durable `SharedDb` and a durable 3-shard
//!   `ShardedDb` — refused inputs, index DDL, annotations, publishes,
//!   merges and splits on one shard and across shards, a 2PC abort over
//!   `FaultyIo`, a checkpoint and a reopen — pin a snapshot every few
//!   steps and record what it answers. At the end every pinned snapshot
//!   must still answer exactly that.
//! * The `core.snapshot.chunks_copied` counter bounds what a write
//!   copies: the same edit, add, annotate and delete copy the same
//!   number of chunks at 500 entries as at 5 000.
//! * A refused write publishes no epoch; a write whose WAL append failed
//!   after its state change still does.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use cdb_core::{CuratedDatabase, DbError, DbState, Note, ShardMap, ShardedDb, SharedDb, Snapshot};
use cdb_curation::{queries, Origin, TxnId};
use cdb_model::{Atom, Value};
use cdb_storage::{CheckpointStore, FaultPlan, FaultyIo, Io, StorageError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KEY: &str = "id";
const TAGS: [&str; 3] = ["alpha", "beta", "gamma"];

/// The copy counter is process-global: tests in this file run one at a
/// time so one test's copies never land in another's count.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fault-injected WAL device shared with the test, which reads its
/// durable image to reopen the database.
#[derive(Debug, Clone)]
struct Device(Arc<Mutex<FaultyIo>>);

impl Device {
    fn new(io: FaultyIo) -> Self {
        Device(Arc::new(Mutex::new(io)))
    }

    fn image(&self) -> Vec<u8> {
        self.0.lock().unwrap().durable_image()
    }
}

impl Io for Device {
    fn len(&self) -> Result<u64, StorageError> {
        self.0.lock().unwrap().len()
    }
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, StorageError> {
        self.0.lock().unwrap().read_at(offset, buf)
    }
    fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.0.lock().unwrap().append(bytes)
    }
    fn flush(&mut self) -> Result<(), StorageError> {
        self.0.lock().unwrap().flush()
    }
    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        self.0.lock().unwrap().truncate(len)
    }
}

/// A probed key's `how_arrived` and `last_modified`, when it is live.
type Provenance = Option<(Vec<Origin>, Option<TxnId>)>;

/// One write of the copy count, by name.
type Write<'a> = (&'static str, &'a dyn Fn() -> Result<(), DbError>);

/// What one state answered when it was pinned.
#[derive(Debug, PartialEq)]
struct Answers {
    export: Value,
    notes: Vec<(String, Option<&'static str>, Vec<Note>)>,
    postings: BTreeMap<String, common::Postings>,
    provenance: Vec<(String, Provenance)>,
    transactions: usize,
    versions: u32,
}

fn answers(s: &DbState, ids: &BTreeSet<String>, probes: &[String]) -> Answers {
    let mut notes = Vec::new();
    for id in ids {
        for field in [None, Some("v"), Some("tag")] {
            let on = s.notes_on(id, field);
            if !on.is_empty() {
                notes.push((id.clone(), field, on.to_vec()));
            }
        }
    }
    common::check_derived(s, ids).unwrap_or_else(|m| panic!("derived state: {m}"));
    let fields = s.index_fields().into_iter();
    let postings = fields
        .map(|f| (f.clone(), common::postings(s, &f)))
        .collect();
    let provenance = probes
        .iter()
        .map(|k| {
            let prov = s.entry_node(k).ok().map(|node| {
                (
                    queries::how_arrived(&s.curated, node),
                    queries::last_modified(&s.curated, node).expect("live node"),
                )
            });
            (k.clone(), prov)
        })
        .collect();
    Answers {
        export: s.export().expect("export"),
        notes,
        postings,
        provenance,
        transactions: s.curated.transactions().len(),
        versions: s.archive().version_count(),
    }
}

/// A snapshot pinned mid-career, with what it answered at pin time.
struct Pin {
    step: usize,
    states: Vec<Snapshot>,
    ids: BTreeSet<String>,
    probes: Vec<String>,
    answered: Vec<Answers>,
}

impl Pin {
    fn new(step: usize, states: Vec<Snapshot>, ids: &BTreeSet<String>, probes: Vec<String>) -> Pin {
        let answered = states.iter().map(|s| answers(s, ids, &probes)).collect();
        Pin {
            step,
            states,
            ids: ids.clone(),
            probes,
            answered,
        }
    }

    fn still_answers(&self, career: &str) {
        for (i, (s, then)) in self.states.iter().zip(&self.answered).enumerate() {
            let now = answers(s, &self.ids, &self.probes);
            assert_eq!(
                &now, then,
                "{career}: the snapshot pinned at step {} (shard {i}) changed",
                self.step
            );
        }
    }
}

/// The database under a career: one shared database or three shards.
enum Db {
    Shared(SharedDb),
    Sharded(ShardedDb),
}

impl Db {
    fn states(&self) -> Vec<Snapshot> {
        match self {
            Db::Shared(db) => vec![db.snapshot()],
            Db::Sharded(db) => db.snapshot().shards().to_vec(),
        }
    }

    fn live(&self) -> Vec<String> {
        match self {
            Db::Shared(db) => db.snapshot().entry_keys().unwrap(),
            Db::Sharded(db) => db.snapshot().entry_keys().unwrap(),
        }
    }

    fn add(&self, t: u64, key: &str, fields: &[(&str, Atom)]) -> Result<(), DbError> {
        match self {
            Db::Shared(db) => db.add_entry("cur", t, key, fields).map(drop),
            Db::Sharded(db) => db.add_entry("cur", t, key, fields).map(drop),
        }
    }

    fn edit(&self, t: u64, key: &str, field: &str, value: Atom) -> Result<(), DbError> {
        match self {
            Db::Shared(db) => db.edit_field("cur", t, key, field, value),
            Db::Sharded(db) => db.edit_field("cur", t, key, field, value),
        }
    }

    fn delete(&self, t: u64, key: &str) -> Result<(), DbError> {
        match self {
            Db::Shared(db) => db.delete_entry("cur", t, key),
            Db::Sharded(db) => db.delete_entry("cur", t, key),
        }
    }

    fn merge(&self, t: u64, kept: &str, absorbed: &str) -> Result<(), DbError> {
        match self {
            Db::Shared(db) => db.merge_entries("cur", t, kept, absorbed),
            Db::Sharded(db) => db.merge_entries("cur", t, kept, absorbed),
        }
    }

    fn split(
        &self,
        t: u64,
        original: &str,
        parts: &[(&str, Vec<(&str, Atom)>)],
    ) -> Result<(), DbError> {
        match self {
            Db::Shared(db) => db.split_entry("cur", t, original, parts),
            Db::Sharded(db) => db.split_entry("cur", t, original, parts),
        }
    }

    fn annotate(&self, t: u64, key: &str, field: Option<&str>) -> Result<(), DbError> {
        let text = format!("note {t}");
        match self {
            Db::Shared(db) => db.annotate(key, field, "cur", &text, t),
            Db::Sharded(db) => db.annotate(key, field, "cur", &text, t),
        }
    }

    fn publish(&self, t: u64) -> Result<(), DbError> {
        let label = format!("r{t}");
        match self {
            Db::Shared(db) => db.publish(label).map(drop),
            Db::Sharded(db) => db.publish(label).map(drop),
        }
    }

    fn index(&self, field: &str, create: bool) -> Result<bool, DbError> {
        match (self, create) {
            (Db::Shared(db), true) => db.create_index(field),
            (Db::Shared(db), false) => db.drop_index(field),
            (Db::Sharded(db), true) => db.create_index(field),
            (Db::Sharded(db), false) => db.drop_index(field),
        }
    }

    fn checkpoint(&self) {
        match self {
            Db::Shared(db) => drop(db.checkpoint().expect("checkpoint")),
            Db::Sharded(db) => drop(db.checkpoint().expect("checkpoint")),
        }
    }
}

/// Key prefixes that land on shards 0, 1 and 2 of `ShardMap::uniform(3)`.
const PREFIXES: [&str; 3] = ["0", "A", "a"];

struct Career {
    rng: StdRng,
    ids: BTreeSet<String>,
    next: usize,
    time: u64,
}

impl Career {
    fn fresh(&mut self) -> String {
        self.next += 1;
        let key = format!("{}{:03}", PREFIXES[self.rng.gen_range(0..3)], self.next);
        self.ids.insert(key.clone());
        key
    }

    fn tick(&mut self) -> u64 {
        self.time += 1;
        self.time
    }

    fn fields(&mut self) -> Vec<(&'static str, Atom)> {
        vec![
            ("v", Atom::Int(self.rng.gen_range(0..5))),
            ("tag", Atom::Str(TAGS[self.rng.gen_range(0..3)].into())),
        ]
    }

    fn pick(&mut self, live: &[String]) -> Option<String> {
        (!live.is_empty()).then(|| live[self.rng.gen_range(0..live.len())].clone())
    }

    /// One random step. Inputs the database must refuse are asserted
    /// refused; every other outcome is accepted as it comes.
    fn step(&mut self, db: &Db) {
        let live = db.live();
        let t = self.tick();
        match self.rng.gen_range(0..16) {
            0..=3 => {
                let (key, fields) = (self.fresh(), self.fields());
                db.add(t, &key, &fields).expect("add of a fresh key");
            }
            4 => {
                if let Some(key) = self.ids.iter().next().cloned() {
                    assert!(db.add(t, &key, &[]).is_err(), "re-adding {key} is refused");
                }
            }
            5 | 6 => {
                if let Some(key) = self.pick(&live) {
                    let field = ["v", "tag", "w"][self.rng.gen_range(0..3)];
                    let value = Atom::Str(TAGS[self.rng.gen_range(0..3)].into());
                    db.edit(t, &key, field, value)
                        .expect("edit of a live entry");
                }
            }
            7 => {
                if let Some(key) = self.pick(&live) {
                    let refused = db.edit(t, &key, KEY, Atom::Str("renamed".into()));
                    assert!(matches!(refused, Err(DbError::KeyFieldWrite(_))));
                }
            }
            8 => {
                if let Some(key) = self.pick(&live) {
                    db.delete(t, &key).expect("delete of a live entry");
                }
            }
            9 => {
                if let (Some(kept), Some(absorbed)) = (self.pick(&live), self.pick(&live)) {
                    let merged = db.merge(t, &kept, &absorbed);
                    assert_eq!(
                        merged.is_err(),
                        kept == absorbed,
                        "merge {kept} ← {absorbed}"
                    );
                }
            }
            10 => {
                if let Some(original) = self.pick(&live) {
                    let (a, b) = (self.fresh(), self.fresh());
                    let fa = self.fields();
                    let parts = [(a.as_str(), fa), (b.as_str(), vec![])];
                    db.split(t, &original, &parts)
                        .expect("split into fresh parts");
                }
            }
            11 => {
                if let Some(key) = self.pick(&live) {
                    let field = [None, Some("v")][self.rng.gen_range(0..2)];
                    let _ = db.annotate(t, &key, field);
                }
            }
            12 => {
                assert!(db.annotate(t, "never-issued", None).is_err());
            }
            13 => db.publish(t).expect("publish"),
            14 => {
                let field = ["v", "tag"][self.rng.gen_range(0..2)];
                let _ = db.index(field, self.rng.gen_range(0..2) == 0);
            }
            _ => {
                if let Some(key) = self.pick(&live) {
                    assert!(db.merge(t, &key, &key).is_err(), "self-merge is refused");
                }
            }
        }
    }

    fn pin(&mut self, step: usize, db: &Db) -> Pin {
        let live = db.live();
        let probes = (0..3).filter_map(|_| self.pick(&live)).collect();
        Pin::new(step, db.states(), &self.ids, probes)
    }
}

const STEPS: usize = 60;
const PIN_EVERY: usize = 3;

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cdb-structural-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `STEPS` random steps with a pin every `PIN_EVERY`, calling
/// `midway` once halfway (it may replace the database).
fn run_career(
    seed: u64,
    mut db: Db,
    mut midway: impl FnMut(&mut Career, Db, &mut Vec<Pin>) -> Db,
) -> Vec<Pin> {
    let mut career = Career {
        rng: StdRng::seed_from_u64(seed),
        ids: BTreeSet::new(),
        next: 0,
        time: 0,
    };
    let mut pins = Vec::new();
    for step in 0..STEPS {
        if step == STEPS / 2 {
            db = midway(&mut career, db, &mut pins);
        }
        career.step(&db);
        if step % PIN_EVERY == 0 {
            pins.push(career.pin(step, &db));
        }
    }
    pins.push(career.pin(STEPS, &db));
    pins
}

#[test]
fn pinned_shared_snapshots_never_see_later_writes() {
    let _g = serial();
    for seed in 0..4u64 {
        let dir = scratch_dir(&format!("shared{seed}"));
        let wal = Device::new(FaultyIo::new(FaultPlan::default()));
        let open = |wal: Device| {
            let ckpt = CheckpointStore::dir(&dir, "shared");
            SharedDb::open("sharing", KEY, Box::new(wal), ckpt, Duration::ZERO).expect("open")
        };
        let db = Db::Shared(open(wal.clone()));
        let pins = run_career(seed, db, |career, db, pins| {
            // Checkpoint, close, reopen from the durable image: the
            // reopened state answers as the closed one did.
            db.checkpoint();
            let before = career.pin(STEPS / 2, &db);
            drop(db);
            let reopened = Db::Shared(open(Device::new(FaultyIo::with_contents(
                wal.image(),
                FaultPlan::default(),
            ))));
            let after = Pin::new(
                STEPS / 2,
                reopened.states(),
                &before.ids,
                before.probes.clone(),
            );
            assert_eq!(
                after.answered, before.answered,
                "seed {seed}: reopen changed answers"
            );
            pins.push(before);
            reopened
        });
        for pin in &pins {
            pin.still_answers(&format!("shared seed {seed}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn pinned_sharded_snapshots_never_see_later_writes() {
    let _g = serial();
    let map = ShardMap::uniform(3);
    for (i, prefix) in PREFIXES.iter().enumerate() {
        assert_eq!(map.route(&format!("{prefix}001")), i);
    }
    let mut aborts = 0;
    for seed in 0..3u64 {
        let dir = scratch_dir(&format!("sharded{seed}"));
        let ckpts = || {
            (0..3)
                .map(|i| CheckpointStore::dir(&dir, format!("shard{i}")))
                .collect::<Vec<_>>()
        };
        let open = |wals: &[Device]| {
            let devices = wals
                .iter()
                .zip(ckpts())
                .map(|(w, c)| (Box::new(w.clone()) as Box<dyn Io>, c))
                .collect();
            ShardedDb::open("sharing", KEY, map.clone(), devices, Duration::ZERO).expect("open")
        };
        let wals: Vec<Device> = (0..3)
            .map(|_| Device::new(FaultyIo::new(FaultPlan::default())))
            .collect();
        let db = Db::Sharded(open(&wals));
        let pins = run_career(100 + seed, db, |career, db, pins| {
            // Two live entries on shards 0 and 1 for the fusion below.
            let (kept, absorbed) = (format!("0k{seed}"), format!("Ak{seed}"));
            for key in [&kept, &absorbed] {
                career.ids.insert(key.clone());
                let t = career.tick();
                db.add(t, key, &[("v", Atom::Int(1))]).expect("add");
            }
            db.checkpoint();
            let before = career.pin(STEPS / 2, &db);
            drop(db);
            let images: Vec<Vec<u8>> = wals.iter().map(Device::image).collect();
            // Reopen with shard 1's k-th flush failing, until the
            // fusion's PREPARE on shard 1 is the flush that fails and
            // the 2PC transaction aborts.
            for k in 1..=4 {
                let reopened: Vec<Device> = images
                    .iter()
                    .enumerate()
                    .map(|(i, img)| {
                        let plan = FaultPlan {
                            fail_flush: (i == 1).then_some(k),
                            ..FaultPlan::default()
                        };
                        Device::new(FaultyIo::with_contents(img.clone(), plan))
                    })
                    .collect();
                let db = Db::Sharded(open(&reopened));
                let at_open = Pin::new(STEPS / 2, db.states(), &before.ids, before.probes.clone());
                assert_eq!(
                    at_open.answered, before.answered,
                    "seed {seed}: reopen changed answers"
                );
                let t = career.tick();
                if db.merge(t, &kept, &absorbed).is_err() {
                    aborts += 1;
                    // The abort rolled both shards back to what the
                    // open showed: postings and primary index included.
                    let after =
                        Pin::new(STEPS / 2, db.states(), &before.ids, before.probes.clone());
                    assert_eq!(
                        after.answered, at_open.answered,
                        "seed {seed}: abort left traces"
                    );
                    pins.push(before);
                    pins.push(at_open);
                    return db;
                }
            }
            panic!("seed {seed}: no reopen aborted the cross-shard fusion");
        });
        for pin in &pins {
            pin.still_answers(&format!("sharded seed {}", 100 + seed));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(aborts, 3, "every career ran its 2PC abort");
}

/// Chunks copied by each of four writes on a database of `entries`
/// entries, every chunk shared with the published snapshot.
fn copies_per_op(entries: usize) -> Vec<(&'static str, u64)> {
    let mut db = CuratedDatabase::new("count", KEY);
    db.create_index("tag").unwrap();
    for i in 0..entries {
        let tag = Atom::Str(TAGS[i % 3].into());
        let fields = [("v", Atom::Int(i as i64)), ("tag", tag)];
        db.add_entry("cur", i as u64, &format!("k{i:05}"), &fields)
            .unwrap();
    }
    let shared = SharedDb::from_db(db);
    let copied = cdb_obs::global().counter("core.snapshot.chunks_copied");
    let t = entries as u64;
    let ops: [Write<'_>; 4] = [
        ("edit", &|| {
            shared.edit_field("cur", t, "k00042", "tag", Atom::Str("beta".into()))
        }),
        ("add", &|| {
            shared
                .add_entry(
                    "cur",
                    t + 1,
                    "new",
                    &[("v", Atom::Int(1)), ("tag", Atom::Str("alpha".into()))],
                )
                .map(drop)
        }),
        ("annotate", &|| {
            shared.annotate("k00042", Some("v"), "cur", "checked", t + 2)
        }),
        ("delete", &|| shared.delete_entry("cur", t + 3, "k00007")),
    ];
    ops.iter()
        .map(|(name, op)| {
            let before = copied.get();
            op().unwrap();
            (*name, copied.get() - before)
        })
        .collect()
}

#[test]
fn a_write_copies_the_same_chunks_at_any_database_size() {
    let _g = serial();
    assert!(cdb_obs::metrics_enabled());
    let small = copies_per_op(500);
    let large = copies_per_op(5000);
    eprintln!("chunks copied per op at 500 entries: {small:?}; at 5000: {large:?}");
    assert_eq!(
        small, large,
        "a write's copies do not grow with the database"
    );
    for (name, n) in &small {
        if *name != "annotate" {
            assert!(*n > 0, "{name} copies the chunks it writes");
        }
        assert!(*n < 16, "{name} copied {n} chunks");
    }
}

#[test]
fn refused_writes_keep_the_epoch_and_failed_appends_advance_it() {
    let _g = serial();
    let db = SharedDb::new("epochs", KEY);
    db.add_entry("cur", 1, "a", &[("v", Atom::Int(1))]).unwrap();
    db.create_index("v").unwrap();
    let epoch = db.epoch();
    let pinned = db.snapshot();
    assert!(matches!(
        db.add_entry("cur", 2, "a", &[]),
        Err(DbError::DuplicateEntry(_))
    ));
    assert!(matches!(
        db.edit_field("cur", 3, "a", KEY, Atom::Str("b".into())),
        Err(DbError::KeyFieldWrite(_))
    ));
    assert!(db.delete_entry("cur", 4, "missing").is_err());
    assert!(db.annotate("missing", None, "cur", "x", 5).is_err());
    assert_eq!(
        db.create_index("v"),
        Ok(false),
        "already indexed: nothing changes"
    );
    assert_eq!(db.epoch(), epoch, "refused writes publish no epoch");
    assert_eq!(db.snapshot().epoch(), pinned.epoch());
    db.edit_field("cur", 6, "a", "v", Atom::Int(2)).unwrap();
    assert_eq!(db.epoch(), epoch + 1);

    // A WAL append that fails after the state changed: the change is in
    // memory, so it is published and the epoch advances.
    let mut failed = 0;
    for n in 1..=4 {
        let plan = FaultPlan {
            fail_append: Some(n),
            ..FaultPlan::default()
        };
        let wal = Box::new(FaultyIo::new(plan));
        // An open that appends hits the failure itself; the next n
        // aims past it.
        let Ok(db) = SharedDb::open("epochs", KEY, wal, CheckpointStore::mem(), Duration::ZERO)
        else {
            continue;
        };
        for i in 0..6u64 {
            let epoch = db.epoch();
            let key = format!("k{i}");
            let out = db.add_entry("cur", i, &key, &[]);
            assert_eq!(db.epoch(), epoch + 1, "append {n}, add {i}: {out:?}");
            assert!(db.snapshot().entry_node(&key).is_ok());
            if matches!(out, Err(DbError::Storage(_))) {
                failed += 1;
            }
        }
    }
    assert!(failed > 0, "some add hit the failing append");
}

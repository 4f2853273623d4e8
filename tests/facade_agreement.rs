//! Façade agreement: one random curation career, four ways in.
//!
//! `CuratedDatabase`, `SharedDb` and `ShardedDb` (one shard, three
//! shards) are different plumbing around the same `DbState`
//! operations, so the same career — adds, imports, edits, deletes,
//! annotations, publishes, index DDL, fusions, fissions, and the
//! inputs every façade must refuse (self-merges, repeated part keys,
//! writes naming the key field, retired or unknown identifiers) —
//! must leave them indistinguishable: step by step the same `Ok` or
//! the same class of error, the same `export()`, the same answer to
//! "what happened to X?" for every identifier, the same notes, index
//! postings that equal a rebuild from the entries on every underlying
//! state and agree across façades, and a primary index that addresses
//! exactly the entries a scan of the tree finds. On the three-shard
//! database a good share of the fusions and fissions cross a shard
//! boundary and run as 2PC transactions.
//!
//! 256 seeded careers (`PROPTEST_CASES` overrides); a failing seed
//! replays exactly.

mod common;
use common::Postings;

use std::collections::{BTreeMap, BTreeSet};
use std::mem::{discriminant, Discriminant};
use std::time::Duration;

use cdb_core::{CuratedDatabase, DbError, DbState, ShardMap, ShardedDb, SharedDb};
use cdb_curation::ops::Clipboard;
use cdb_model::{Atom, Value};
use cdb_storage::{CheckpointStore, Io, MemIo};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KEY_FIELD: &str = "ac";
const FIELDS: [&str; 3] = ["gn", "os", "n"];
const STEPS: u64 = 48;

/// One step of a career.
#[derive(Debug, Clone)]
enum Op {
    Add(String, Vec<(String, Atom)>),
    Import(String),
    Edit(String, String, Atom),
    Delete(String),
    Annotate(String, Option<String>),
    Publish(String),
    CreateIndex(String),
    DropIndex(String),
    Merge(String, String),
    Split(String, Vec<(String, Vec<(String, Atom)>)>),
}

/// What a step answered, as far as façades must agree on it: node ids
/// are per-arena and so excluded; versions and DDL outcomes are not.
#[derive(Debug, PartialEq)]
enum Outcome {
    Done,
    Version(u32),
    Changed(bool),
    Refused(Discriminant<DbError>),
}

fn outcome<T>(r: Result<T, DbError>, ok: impl FnOnce(T) -> Outcome) -> Outcome {
    match r {
        Ok(v) => ok(v),
        Err(e) => Outcome::Refused(discriminant(&e)),
    }
}

fn borrowed(fields: &[(String, Atom)]) -> Vec<(&str, Atom)> {
    fields
        .iter()
        .map(|(k, v)| (k.as_str(), v.clone()))
        .collect()
}

/// The surface the three façades share, as this test needs it.
trait Facade {
    fn apply(&mut self, op: &Op, time: u64, clip: &Clipboard) -> Outcome;
    /// The frozen state(s) behind the façade: one, or one per shard.
    fn states(&self) -> Vec<DbStateRef<'_>>;
    fn resolve(&self, id: &str) -> Result<Vec<String>, Discriminant<DbError>>;
}

/// A state read either in place or through a snapshot.
enum DbStateRef<'a> {
    Live(&'a DbState),
    Frozen(cdb_core::Snapshot),
}

impl std::ops::Deref for DbStateRef<'_> {
    type Target = DbState;
    fn deref(&self) -> &DbState {
        match self {
            DbStateRef::Live(s) => s,
            DbStateRef::Frozen(s) => s,
        }
    }
}

/// Expands to the shared `match` over [`Op`]: the three façades spell
/// every curation method identically, differing only in receiver
/// mutability and in what `publish` returns.
macro_rules! apply_op {
    ($db:expr, $op:expr, $time:expr, $clip:expr, $version:expr) => {{
        let (db, time) = ($db, $time);
        match $op {
            Op::Add(key, fields) => {
                outcome(db.add_entry("c", time, key, &borrowed(fields)), |_| {
                    Outcome::Done
                })
            }
            Op::Import(key) => outcome(db.import_entry("c", time, key, $clip), |_| Outcome::Done),
            Op::Edit(key, field, value) => {
                outcome(db.edit_field("c", time, key, field, value.clone()), |()| {
                    Outcome::Done
                })
            }
            Op::Delete(key) => outcome(db.delete_entry("c", time, key), |()| Outcome::Done),
            Op::Annotate(key, field) => outcome(
                db.annotate(key, field.as_deref(), "c", "note", time),
                |()| Outcome::Done,
            ),
            Op::Publish(label) => outcome(db.publish(label.clone()), $version),
            Op::CreateIndex(field) => outcome(db.create_index(field), Outcome::Changed),
            Op::DropIndex(field) => outcome(db.drop_index(field), Outcome::Changed),
            Op::Merge(kept, absorbed) => {
                outcome(db.merge_entries("c", time, kept, absorbed), |()| {
                    Outcome::Done
                })
            }
            Op::Split(original, parts) => {
                let fields: Vec<Vec<(&str, Atom)>> =
                    parts.iter().map(|(_, f)| borrowed(f)).collect();
                let parts: Vec<(&str, Vec<(&str, Atom)>)> = parts
                    .iter()
                    .zip(fields)
                    .map(|((k, _), f)| (k.as_str(), f))
                    .collect();
                outcome(db.split_entry("c", time, original, &parts), |()| {
                    Outcome::Done
                })
            }
        }
    }};
}

fn class<T>(r: Result<T, DbError>) -> Result<T, Discriminant<DbError>> {
    r.map_err(|e| discriminant(&e))
}

impl Facade for CuratedDatabase {
    fn apply(&mut self, op: &Op, time: u64, clip: &Clipboard) -> Outcome {
        apply_op!(&mut *self, op, time, clip, Outcome::Version)
    }
    fn states(&self) -> Vec<DbStateRef<'_>> {
        vec![DbStateRef::Live(self)]
    }
    fn resolve(&self, id: &str) -> Result<Vec<String>, Discriminant<DbError>> {
        class(self.resolve_id(id))
    }
}

impl Facade for SharedDb {
    fn apply(&mut self, op: &Op, time: u64, clip: &Clipboard) -> Outcome {
        apply_op!(&*self, op, time, clip, Outcome::Version)
    }
    fn states(&self) -> Vec<DbStateRef<'_>> {
        vec![DbStateRef::Frozen(self.snapshot())]
    }
    fn resolve(&self, id: &str) -> Result<Vec<String>, Discriminant<DbError>> {
        class(self.snapshot().resolve_id(id))
    }
}

impl Facade for ShardedDb {
    fn apply(&mut self, op: &Op, time: u64, clip: &Clipboard) -> Outcome {
        // Every shard publishes the same version number.
        apply_op!(&*self, op, time, clip, |ids: Vec<u32>| {
            assert!(ids.iter().all(|v| *v == ids[0]), "{ids:?}");
            Outcome::Version(ids[0])
        })
    }
    fn states(&self) -> Vec<DbStateRef<'_>> {
        let snap = self.snapshot();
        snap.shards()
            .iter()
            .cloned()
            .map(DbStateRef::Frozen)
            .collect()
    }
    fn resolve(&self, id: &str) -> Result<Vec<String>, Discriminant<DbError>> {
        class(self.snapshot().resolve_id(id))
    }
}

// --------------------------------------------------------- generation

/// Keys over the three ranges of the 3-shard map (bounds `h`, `p`).
fn key_pool() -> Vec<String> {
    ["a", "c", "h", "k", "p", "t"]
        .iter()
        .flat_map(|p| (0..8).map(move |n| format!("{p}{n}")))
        .collect()
}

fn pick<'a>(rng: &mut StdRng, from: &'a [String]) -> &'a String {
    &from[rng.gen_range(0..from.len())]
}

/// A key for a role that wants a live entry: usually one, sometimes
/// any key at all (missing, retired, never issued).
fn live_key(rng: &mut StdRng, live: &[String], pool: &[String]) -> String {
    if !live.is_empty() && rng.gen_bool(0.85) {
        pick(rng, live).clone()
    } else {
        pick(rng, pool).clone()
    }
}

/// A key for a role that wants a fresh identifier: usually one never
/// issued, sometimes any key at all (live or retired).
fn fresh_key(rng: &mut StdRng, issued: &BTreeSet<String>, pool: &[String]) -> String {
    let unused: Vec<&String> = pool.iter().filter(|k| !issued.contains(*k)).collect();
    if !unused.is_empty() && rng.gen_bool(0.85) {
        unused[rng.gen_range(0..unused.len())].clone()
    } else {
        pick(rng, pool).clone()
    }
}

fn arb_fields(rng: &mut StdRng) -> Vec<(String, Atom)> {
    let mut fields = Vec::new();
    for f in FIELDS {
        if rng.gen_bool(0.6) {
            fields.push((f.to_owned(), Atom::Int(rng.gen_range(0..4))));
        }
    }
    if rng.gen_bool(0.06) {
        fields.push((KEY_FIELD.to_owned(), Atom::Str("smuggled".into())));
    }
    fields
}

fn arb_op(
    rng: &mut StdRng,
    step: u64,
    live: &[String],
    issued: &BTreeSet<String>,
    pool: &[String],
) -> Op {
    let any_field = |rng: &mut StdRng| {
        if rng.gen_bool(0.08) {
            KEY_FIELD.to_owned()
        } else {
            FIELDS[rng.gen_range(0..FIELDS.len())].to_owned()
        }
    };
    match rng.gen_range(0..100) {
        0..=24 => Op::Add(fresh_key(rng, issued, pool), arb_fields(rng)),
        25..=29 => Op::Import(fresh_key(rng, issued, pool)),
        30..=47 => Op::Edit(
            live_key(rng, live, pool),
            any_field(rng),
            Atom::Int(rng.gen_range(0..4)),
        ),
        48..=54 => Op::Delete(live_key(rng, live, pool)),
        55..=61 => {
            let field = rng.gen_bool(0.5).then(|| any_field(rng));
            Op::Annotate(live_key(rng, live, pool), field)
        }
        62..=65 => Op::Publish(format!("r{step}")),
        66..=71 => Op::CreateIndex(any_field(rng)),
        72..=73 => Op::DropIndex(any_field(rng)),
        74..=87 => {
            let kept = live_key(rng, live, pool);
            let absorbed = if rng.gen_bool(0.1) {
                kept.clone()
            } else {
                live_key(rng, live, pool)
            };
            Op::Merge(kept, absorbed)
        }
        _ => {
            let mut parts: Vec<(String, Vec<(String, Atom)>)> = (0..rng.gen_range(1..4))
                .map(|_| (fresh_key(rng, issued, pool), arb_fields(rng)))
                .collect();
            if rng.gen_bool(0.1) {
                parts.push(parts[0].clone());
            }
            Op::Split(live_key(rng, live, pool), parts)
        }
    }
}

// ------------------------------------------------------------ oracles

fn export_all(f: &dyn Facade) -> Value {
    let mut entries = Vec::new();
    for s in f.states() {
        entries.extend(s.export().unwrap().as_set().unwrap().iter().cloned());
    }
    Value::set(entries)
}

/// [`common::check_derived`] on every underlying state; returns the
/// postings of every index, unioned over the states.
fn check_derived(f: &dyn Facade, pool: &[String]) -> Result<BTreeMap<String, Postings>, String> {
    let mut union: BTreeMap<String, Postings> = BTreeMap::new();
    for (i, s) in f.states().iter().enumerate() {
        common::check_derived(s, pool).map_err(|m| format!("state {i}: {m}"))?;
        for field in s.index_fields() {
            let all = union.entry(field.clone()).or_default();
            for (value, keys) in common::postings(s, &field) {
                all.entry(value).or_default().extend(keys);
            }
        }
    }
    Ok(union)
}

fn notes_all(f: &dyn Facade, pool: &[String]) -> Vec<(String, Option<&'static str>, usize)> {
    let mut out = Vec::new();
    for s in f.states() {
        for key in pool {
            for field in std::iter::once(None).chain(FIELDS.iter().map(|f| Some(*f))) {
                let n = s.notes_on(key, field).len();
                if n > 0 {
                    out.push((key.clone(), field, n));
                }
            }
        }
    }
    out.sort();
    out
}

fn mem_devices(n: usize) -> Vec<(Box<dyn Io>, CheckpointStore)> {
    (0..n)
        .map(|_| {
            (
                Box::new(MemIo::new()) as Box<dyn Io>,
                CheckpointStore::mem(),
            )
        })
        .collect()
}

proptest! {
    #[test]
    fn every_facade_runs_the_same_career_to_the_same_database(seed in 0u64..1_000_000) {
        let mut upstream = CuratedDatabase::new("upstream", KEY_FIELD);
        upstream
            .add_entry("up", 1, "SRC", &[("gn", Atom::Int(9)), ("sq", Atom::Str("GDREQ".into()))])
            .unwrap();
        let clip = upstream.curated.copy(upstream.entry_node("SRC").unwrap()).unwrap();

        // The reference is the plain in-memory database; the serving
        // façades run durable so their persist and 2PC journal paths
        // are on the road too.
        let mut reference = CuratedDatabase::new("db", KEY_FIELD);
        let three = ShardMap::with_bounds(vec!["h".into(), "p".into()]);
        let mut others: Vec<(&str, Box<dyn Facade>)> = vec![
            (
                "SharedDb",
                Box::new(
                    SharedDb::open(
                        "db",
                        KEY_FIELD,
                        Box::new(MemIo::new()),
                        CheckpointStore::mem(),
                        Duration::ZERO,
                    )
                    .unwrap(),
                ),
            ),
            (
                "ShardedDb/1",
                Box::new(ShardedDb::new("db", KEY_FIELD, ShardMap::single())),
            ),
            (
                "ShardedDb/3",
                Box::new(
                    ShardedDb::open("db", KEY_FIELD, three, mem_devices(3), Duration::ZERO)
                        .unwrap(),
                ),
            ),
        ];

        let pool = key_pool();
        let mut issued: BTreeSet<String> = BTreeSet::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for step in 1..=STEPS {
            let live = reference.entry_keys().unwrap();
            let op = arb_op(&mut rng, step, &live, &issued, &pool);
            let want = reference.apply(&op, step, &clip);
            for (name, db) in others.iter_mut() {
                let got = db.apply(&op, step, &clip);
                prop_assert_eq!(&got, &want, "step {} {:?} on {}", step, op, name);
            }
            issued.extend(reference.entry_keys().unwrap());

            let want_export = export_all(&reference);
            let want_postings = check_derived(&reference, &pool)
                .map_err(|m| TestCaseError::fail(format!("step {step} {op:?}: {m}")))?;
            for (name, db) in &others {
                let postings = check_derived(db.as_ref(), &pool)
                    .map_err(|m| TestCaseError::fail(format!("step {step} {op:?} on {name}: {m}")))?;
                prop_assert_eq!(
                    &export_all(db.as_ref()), &want_export,
                    "export after step {} {:?} on {}", step, op, name
                );
                prop_assert_eq!(
                    &postings, &want_postings,
                    "index lookups after step {} {:?} on {}", step, op, name
                );
            }
        }
        let want_notes = notes_all(&reference, &pool);
        for (name, db) in &others {
            for id in &pool {
                prop_assert_eq!(
                    db.resolve(id), reference.resolve(id),
                    "what happened to {} on {}", id, name
                );
            }
            prop_assert_eq!(&notes_all(db.as_ref(), &pool), &want_notes, "notes on {}", name);
        }
    }
}

//! Sharded serving layer: linearizability and crash checking for
//! [`ShardedDb`] — per-shard WALs, routed writes, and 2PC cross-shard
//! curation (DESIGN.md §S27).
//!
//! The harness generalizes `tests/concurrent_serving.rs` to sharded
//! histories. Three layers:
//!
//! 1. **Deterministic interleaving driver** — 256 seeded histories of
//!    4 logical writers × 4 logical readers over 4 shards, scheduled
//!    one step at a time by a seeded [`StdRng`]. Each writer's script
//!    mixes single-shard writes on its home shard with *cross-shard*
//!    transactions (a merge whose absorbed entry lives on another
//!    shard, a split whose parts land on two shards).
//! 2. **Real threads** — the same scripts on OS threads, with the
//!    shard count taken from `CDB_TEST_SHARDS` (default 4) so
//!    `scripts/check.sh` can run the 1/2/num_cpus matrix. Shard count
//!    1 degenerates every cross-shard op into the single-shard
//!    delegate path — the oracles hold identically.
//! 3. **Crash under faults** — scripted cross-shard merges over
//!    fault-injected per-shard devices; after the crash, each shard
//!    recovers a gap-free prefix, and on honest devices the shards
//!    always *agree* about every cross-shard transaction (committed on
//!    both sides or on neither) and every acknowledged commit
//!    survives.
//!
//! Per-shard, every observed snapshot passes the §S23 checkers
//! (committed prefix, replay oracle, lifecycle retirement, epoch
//! coherence). On top of those, the sharded-specific oracle:
//!
//! - **Cross-shard atomicity** — an acked cross-shard merge is visible
//!   *atomically*: the absorbed id is retired on its shard **iff** the
//!   carried field has appeared on the kept entry's shard **iff** both
//!   registries record the fusion. A snapshot never contains one
//!   shard's half. Same for splits: the original is retired iff every
//!   part (each on its own shard) exists.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use cdb_core::{
    CuratedDatabase, DbState, EntryEvent, Fate, ShardMap, ShardedDb, ShardedSnapshot, SharedDb,
    Snapshot,
};
use cdb_curation::ops::Transaction;
use cdb_curation::queries::how_arrived;
use cdb_curation::replay::replay_and_verify;
use cdb_curation::Origin;
use cdb_model::Atom;
use cdb_storage::{CheckpointStore, FaultPlan, FaultyIo, Io, MemIo, StorageError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ------------------------------------------------------------ scripts

/// Key prefixes that land on distinct shards under the 4-shard map
/// used by the deterministic driver (bounds `h`, `p`, `x`).
const PFX: [&str; 4] = ["a", "h", "p", "x"];

/// One scripted curation step against a [`ShardedDb`].
#[derive(Debug, Clone)]
enum SOp {
    Add(String, Vec<(String, Atom)>),
    Edit(String, i64),
    Annotate(String),
    /// Cross-shard under the 4-shard map: `kept` on the writer's home
    /// prefix, `absorbed` on the next one.
    Merge(String, String),
    /// Cross-shard under the 4-shard map: parts on two prefixes.
    Split(String, String, String),
    Delete(String),
    Publish(String),
}

/// An acked cross-shard merge to hold the atomicity oracle against:
/// `absorbed` carried `field`, which `kept` lacked.
#[derive(Debug, Clone)]
struct MergeMark {
    kept: String,
    absorbed: String,
    field: String,
}

/// An acked cross-shard split: `orig` fissioned into `a` and `b`.
#[derive(Debug, Clone)]
struct SplitMark {
    orig: String,
    a: String,
    b: String,
}

/// Writer `w`'s script for one `round`: single-shard ops on its home
/// prefix interleaved with a cross-shard merge and a cross-shard
/// split. Key namespaces are disjoint per (writer, round) so any
/// interleaving is conflict-free.
fn shard_script(w: usize, round: usize) -> (Vec<SOp>, MergeMark, SplitMark) {
    let home = PFX[w % PFX.len()];
    let other = PFX[(w + 1) % PFX.len()];
    let k = |p: &str, n: usize| format!("{p}{w}r{round}n{n}");
    let (h0, h1, h2) = (k(home, 0), k(home, 1), k(home, 2));
    let (o0, o1, o2) = (k(other, 3), k(other, 4), k(other, 5));
    let mfield = format!("m{w}r{round}");
    let v = |n: i64| ("v".to_string(), Atom::Int(n));
    let ops = vec![
        SOp::Add(h0.clone(), vec![v(0)]),
        SOp::Add(h1.clone(), vec![v(0)]),
        SOp::Add(
            o0.clone(),
            vec![v(0), (mfield.clone(), Atom::Int(w as i64))],
        ),
        SOp::Edit(h0.clone(), 7),
        SOp::Annotate(h1.clone()),
        SOp::Merge(h0.clone(), o0.clone()),
        SOp::Add(o1.clone(), vec![v(0)]),
        SOp::Split(o1.clone(), h2.clone(), o2.clone()),
        SOp::Edit(h2.clone(), 9),
        SOp::Delete(h1),
        SOp::Publish(format!("w{w}r{round}")),
    ];
    (
        ops,
        MergeMark {
            kept: h0,
            absorbed: o0,
            field: mfield,
        },
        SplitMark {
            orig: o1,
            a: h2,
            b: o2,
        },
    )
}

/// One scripted step against `$db` — a [`ShardedDb`] or the sequential
/// [`CuratedDatabase`] oracle, which spell every curation method alike.
macro_rules! apply_sop_to {
    ($db:expr, $w:expr, $time:expr, $op:expr) => {{
        let (db, w, time, op) = ($db, $w, $time, $op);
        let curator = format!("c{w}");
        match op {
            SOp::Add(key, fields) => {
                let fields: Vec<(&str, Atom)> = fields
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.clone()))
                    .collect();
                db.add_entry(&curator, time, key, &fields).unwrap();
            }
            SOp::Edit(key, v) => db
                .edit_field(&curator, time, key, "v", Atom::Int(*v))
                .unwrap(),
            SOp::Annotate(key) => db
                .annotate(key, Some("v"), &curator, "checked", time)
                .unwrap(),
            SOp::Merge(kept, absorbed) => db.merge_entries(&curator, time, kept, absorbed).unwrap(),
            SOp::Split(orig, a, b) => db
                .split_entry(
                    &curator,
                    time,
                    orig,
                    &[
                        (a, vec![("v", Atom::Int(1))]),
                        (b, vec![("v", Atom::Int(2))]),
                    ],
                )
                .unwrap(),
            SOp::Delete(key) => db.delete_entry(&curator, time, key).unwrap(),
            SOp::Publish(label) => {
                db.publish(label.clone()).unwrap();
            }
        }
    }};
}

/// Applies one scripted step; logical times are unique across the
/// whole history.
fn apply_sop(db: &ShardedDb, w: u64, time: u64, op: &SOp) {
    apply_sop_to!(db, w, time, op)
}

// ------------------------------------------------------------ oracles

/// The identity of a transaction for prefix comparison.
fn ids<'a>(log: impl IntoIterator<Item = &'a Transaction>) -> Vec<(u64, String, u64)> {
    log.into_iter()
        .map(|t| (t.id.0, t.curator.clone(), t.time))
        .collect()
}

/// The §S23 single-shard checker, applied to each shard of each
/// observed sharded snapshot: committed prefix of that shard's final
/// log, replay oracle, lifecycle retirement.
fn check_shard_snapshot(s: &Snapshot, final_ids: &[(u64, String, u64)]) -> Result<(), String> {
    let sids = ids(&s.curated.log);
    if sids.len() > final_ids.len() {
        return Err(format!(
            "shard log ({} txns) is longer than its final log ({})",
            sids.len(),
            final_ids.len()
        ));
    }
    if sids[..] != final_ids[..sids.len()] {
        return Err(format!(
            "shard log is not a prefix of its final log (epoch {})",
            s.epoch()
        ));
    }
    replay_and_verify(&s.curated).map_err(|e| format!("shard snapshot != replay: {e}"))?;
    for key in s.entry_keys().map_err(|e| format!("entry_keys: {e}"))? {
        if !s.lifecycle.is_active(&key) {
            return Err(format!("entry {key} visible but its id is not active"));
        }
    }
    Ok(())
}

/// The sharded-specific oracle: no snapshot ever contains one half of
/// a cross-shard transaction. Holds at *every* point in the history —
/// before the transaction both sides show nothing, after it both show
/// everything.
fn check_cross_atomicity(
    s: &ShardedSnapshot,
    merges: &[MergeMark],
    splits: &[SplitMark],
) -> Result<(), String> {
    for m in merges {
        let retired = matches!(
            s.for_key(&m.absorbed).lifecycle.fate(&m.absorbed),
            Ok(Fate::MergedInto(_))
        );
        let carried = s.for_key(&m.kept).field(&m.kept, &m.field).is_ok();
        if retired != carried {
            return Err(format!(
                "half a merge visible: {} retired={retired} but {}.{} carried={carried}",
                m.absorbed, m.kept, m.field
            ));
        }
        let kept_side_knows = matches!(
            s.for_key(&m.kept).lifecycle.fate(&m.absorbed),
            Ok(Fate::MergedInto(_))
        );
        if kept_side_knows != retired {
            return Err(format!(
                "registries disagree about merge of {}: absorbed side {retired}, kept side {kept_side_knows}",
                m.absorbed
            ));
        }
    }
    for sp in splits {
        let retired = matches!(
            s.for_key(&sp.orig).lifecycle.fate(&sp.orig),
            Ok(Fate::SplitInto(_))
        );
        let a = s.for_key(&sp.a).field(&sp.a, "v").is_ok();
        let b = s.for_key(&sp.b).field(&sp.b, "v").is_ok();
        if a != retired || b != retired {
            return Err(format!(
                "half a split visible: {} retired={retired} but parts exist ({}={a}, {}={b})",
                sp.orig, sp.a, sp.b
            ));
        }
    }
    Ok(())
}

/// Per-shard epoch coherence: one epoch ⇒ one log length, never a
/// shorter log at a later epoch.
fn check_shard_epochs<'a>(snaps: impl Iterator<Item = &'a Snapshot>) -> Result<(), String> {
    let mut by_epoch: std::collections::BTreeMap<u64, usize> = Default::default();
    for s in snaps {
        let len = s.curated.log.len();
        let entry = by_epoch.entry(s.epoch()).or_insert(len);
        if *entry != len {
            return Err(format!(
                "epoch {} observed with log lengths {} and {len}",
                s.epoch(),
                *entry
            ));
        }
    }
    let mut prev = 0usize;
    for (epoch, len) in by_epoch {
        if len < prev {
            return Err(format!(
                "epoch {epoch} exposes a shorter log ({len} < {prev})"
            ));
        }
        prev = len;
    }
    Ok(())
}

fn total_len(s: &ShardedSnapshot) -> usize {
    s.shards().iter().map(|x| x.curated.log.len()).sum()
}

// ---------------------------------------- deterministic interleavings

proptest! {
    /// 256 seeded histories of 4 writers × 4 readers over 4 shards:
    /// every snapshot any reader ever took is per-shard a committed
    /// prefix that replays to itself, cross-shard transactions are
    /// atomically visible, per-shard epochs cohere, and the combined
    /// epoch is monotone per reader. Failures replay byte-for-byte
    /// from the case seed.
    #[test]
    fn sharded_seeded_histories_are_coherent(seed in 0u64..1_000_000) {
        const WRITERS: usize = 4;
        const READERS: usize = 4;
        const SHARDS: usize = 4;
        let map = ShardMap::with_bounds(vec!["h".into(), "p".into(), "x".into()]);
        let db = ShardedDb::new("shard-conc", "id", map);
        let mut rng = StdRng::seed_from_u64(seed);

        let mut scripts = Vec::new();
        let mut merges = Vec::new();
        let mut splits = Vec::new();
        for w in 0..WRITERS {
            let (ops, m, s) = shard_script(w, 0);
            scripts.push(ops);
            merges.push(m);
            splits.push(s);
        }
        let mut cursor = [0usize; WRITERS];
        let mut reader_state = [(0u64, 0usize); READERS];
        let mut observed: Vec<ShardedSnapshot> = Vec::new();

        while cursor.iter().zip(&scripts).any(|(c, s)| *c < s.len()) {
            let actor = rng.gen_range(0..WRITERS + READERS);
            if actor < WRITERS {
                let w = actor;
                if cursor[w] < scripts[w].len() {
                    let time = (w as u64 + 1) * 100_000 + cursor[w] as u64;
                    apply_sop(&db, w as u64, time, &scripts[w][cursor[w]]);
                    cursor[w] += 1;
                }
            } else {
                let r = actor - WRITERS;
                let snap = db.snapshot();
                let (prev_epoch, prev_len) = reader_state[r];
                prop_assert!(
                    snap.epoch() >= prev_epoch,
                    "reader {r} saw the combined epoch go backwards: {} < {prev_epoch}",
                    snap.epoch()
                );
                prop_assert!(total_len(&snap) >= prev_len, "reader {r} saw the history shrink");
                if let Err(msg) = check_cross_atomicity(&snap, &merges, &splits) {
                    return Err(TestCaseError::fail(msg));
                }
                reader_state[r] = (snap.epoch(), total_len(&snap));
                observed.push(snap);
            }
        }

        let fin = db.snapshot();
        let final_ids: Vec<Vec<_>> = fin.shards().iter().map(|s| ids(&s.curated.log)).collect();
        for snap in observed.iter().chain(std::iter::once(&fin)) {
            for (i, shard) in snap.shards().iter().enumerate() {
                if let Err(msg) = check_shard_snapshot(shard, &final_ids[i]) {
                    return Err(TestCaseError::fail(format!("shard {i}: {msg}")));
                }
            }
            if let Err(msg) = check_cross_atomicity(snap, &merges, &splits) {
                return Err(TestCaseError::fail(msg));
            }
        }
        for i in 0..SHARDS {
            let it = observed.iter().chain(std::iter::once(&fin)).map(|s| s.shard(i));
            if let Err(msg) = check_shard_epochs(it) {
                return Err(TestCaseError::fail(format!("shard {i}: {msg}")));
            }
        }

        // Every writer committed exactly one cross-shard merge and one
        // cross-shard split under this map (home ≠ other always).
        let m = db.metrics_snapshot();
        prop_assert_eq!(
            m.counters.get("core.sharded.cross.commits").copied().unwrap_or(0),
            (2 * WRITERS) as u64,
            "unexpected cross-shard commit count"
        );
        prop_assert_eq!(
            m.counters.get("core.sharded.cross.aborts").copied().unwrap_or(0),
            0u64,
            "no cross-shard transaction should have aborted"
        );
    }
}

// ----------------------------------------------------- real threads

fn env_shards() -> usize {
    std::env::var("CDB_TEST_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(4)
}

/// N writer threads × M reader threads over one `ShardedDb` with a
/// configurable shard count; readers verify combined-epoch
/// monotonicity, per-shard prefix order, and cross-shard atomicity
/// *live*, then everything is re-checked against the final state.
fn sharded_real_thread_history(shards: usize, writers: usize, readers: usize, rounds: usize) {
    let db = ShardedDb::new("shard-mt", "id", ShardMap::uniform(shards));
    let mut merges = Vec::new();
    let mut splits = Vec::new();
    for w in 0..writers {
        for round in 0..rounds {
            let (_, m, s) = shard_script(w, round);
            merges.push(m);
            splits.push(s);
        }
    }
    let marks = Arc::new((merges, splits));
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let reader_handles: Vec<_> = (0..readers)
        .map(|r| {
            let db = db.clone();
            let done = done.clone();
            let marks = marks.clone();
            thread::spawn(move || {
                let mut prev: Option<ShardedSnapshot> = None;
                let mut kept: Vec<ShardedSnapshot> = Vec::new();
                let mut samples = 0usize;
                while !done.load(std::sync::atomic::Ordering::Acquire) {
                    let snap = db.snapshot();
                    if let Some(p) = &prev {
                        assert!(
                            snap.epoch() >= p.epoch(),
                            "reader {r}: combined epoch went backwards"
                        );
                        for (i, (ps, ns)) in p.shards().iter().zip(snap.shards()).enumerate() {
                            let pids = ids(&ps.curated.log);
                            let nids = ids(&ns.curated.log);
                            assert!(
                                pids.len() <= nids.len() && pids[..] == nids[..pids.len()],
                                "reader {r}: shard {i} log is not a prefix of its successor"
                            );
                        }
                    }
                    check_cross_atomicity(&snap, &marks.0, &marks.1)
                        .unwrap_or_else(|msg| panic!("reader {r}: {msg}"));
                    samples += 1;
                    if samples.is_multiple_of(7) {
                        kept.push(snap.clone());
                    }
                    prev = Some(snap);
                    thread::yield_now();
                }
                kept.extend(prev);
                kept
            })
        })
        .collect();

    let writer_handles: Vec<_> = (0..writers)
        .map(|w| {
            let db = db.clone();
            thread::spawn(move || {
                for round in 0..rounds {
                    let (script, _, _) = shard_script(w, round);
                    for (step, op) in script.iter().enumerate() {
                        let time =
                            (w as u64 + 1) * 1_000_000 + (round * script.len() + step) as u64;
                        apply_sop(&db, w as u64, time, op);
                    }
                }
            })
        })
        .collect();

    for h in writer_handles {
        h.join().unwrap();
    }
    done.store(true, std::sync::atomic::Ordering::Release);

    // Final-state completeness: each (writer, round) script leaves
    // exactly {kept, part a, part b} active, everything else retired.
    let fin = db.snapshot();
    let mut expect = BTreeSet::new();
    for m in &marks.0 {
        expect.insert(m.kept.clone());
    }
    for s in &marks.1 {
        expect.insert(s.a.clone());
        expect.insert(s.b.clone());
    }
    let got: BTreeSet<String> = fin.entry_keys().unwrap().into_iter().collect();
    assert_eq!(got, expect, "final entry set is wrong");

    let final_ids: Vec<Vec<_>> = fin.shards().iter().map(|s| ids(&s.curated.log)).collect();
    let mut all: Vec<ShardedSnapshot> = vec![fin];
    for h in reader_handles {
        all.extend(h.join().unwrap());
    }
    for snap in &all {
        for (i, shard) in snap.shards().iter().enumerate() {
            check_shard_snapshot(shard, &final_ids[i])
                .unwrap_or_else(|msg| panic!("shard {i}: {msg}"));
        }
        check_cross_atomicity(snap, &marks.0, &marks.1).unwrap_or_else(|msg| panic!("{msg}"));
    }
    for i in 0..shards {
        check_shard_epochs(all.iter().map(|s| s.shard(i)))
            .unwrap_or_else(|msg| panic!("shard {i} epochs: {msg}"));
    }
}

/// Real OS threads; shard count from `CDB_TEST_SHARDS` (default 4) —
/// `scripts/check.sh` runs this under a 1/2/num_cpus matrix. Shard
/// count 1 exercises the delegate (non-2PC) path of every cross op.
#[test]
fn sharded_real_thread_history_is_coherent() {
    sharded_real_thread_history(env_shards(), 4, 4, 2);
}

/// Stress target (not part of the default run):
///
/// ```text
/// cargo test --release --test sharded_serving -- --ignored
/// ```
#[test]
#[ignore = "stress target: cargo test --release --test sharded_serving -- --ignored"]
fn sharded_stress_history() {
    sharded_real_thread_history(8, 8, 8, 4);
}

// ------------------------------------------- crash under faults

/// A fault-injected device shared between a shard under test and the
/// checker (which photographs the durable image post-crash).
#[derive(Debug, Clone)]
struct SharedFaulty(Arc<Mutex<FaultyIo>>);

impl Io for SharedFaulty {
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

proptest! {
    /// Scripted cross-shard merges over two shards, one on a
    /// fault-injected device; after the crash each shard recovers a
    /// gap-free prefix of its own append order, and on honest devices
    /// (syncs may fail but never lie) the recovered shards *agree*
    /// about every cross-shard transaction — committed on both sides
    /// or on neither, with every acknowledged commit durable.
    #[test]
    fn sharded_crash_recovery_keeps_shards_agreeing(
        seed in 0u64..1_000_000,
        fault_sel in 0usize..3,
        fault_n in 0u64..24,
        faulty_shard in 0usize..2,
    ) {
        const SHARDS: usize = 2;
        let plan = match fault_sel {
            0 => FaultPlan { fail_flush: Some(fault_n as u32 % 8 + 2), ..Default::default() },
            1 => FaultPlan { flush_cap: Some(64 + fault_n * 48), ..Default::default() },
            _ => FaultPlan { torn_write_at: Some(32 + fault_n * 32), ..Default::default() },
        };
        let honest = fault_sel == 0;
        let devs: Vec<SharedFaulty> = (0..SHARDS)
            .map(|i| {
                let p = if i == faulty_shard { plan.clone() } else { FaultPlan::default() };
                SharedFaulty(Arc::new(Mutex::new(FaultyIo::new(p))))
            })
            .collect();
        let map = ShardMap::uniform(SHARDS);
        let db = ShardedDb::open(
            "shard-crash",
            "id",
            map.clone(),
            devs.iter()
                .map(|d| (Box::new(d.clone()) as Box<dyn Io>, CheckpointStore::mem()))
                .collect(),
            Duration::ZERO,
        )
        .map_err(|e| TestCaseError::fail(format!("open: {e}")))?;

        // Two keys guaranteed to land on different shards of the
        // uniform 2-shard map.
        let shard_key = |s: usize, n: u64| if s == 0 {
            format!("A{n}")
        } else {
            format!("z{n}")
        };
        prop_assert_eq!(map.route(&shard_key(0, 0)), 0);
        prop_assert_eq!(map.route(&shard_key(1, 0)), 1);

        let mut rng = StdRng::seed_from_u64(seed);
        let rounds = rng.gen_range(3u64..10);
        let mut acked_adds: Vec<(usize, u64)> = Vec::new(); // (shard, time)
        let mut attempted: Vec<MergeMark> = Vec::new();
        let mut acked_merges: Vec<MergeMark> = Vec::new();
        for n in 0..rounds {
            // kept on a seed-chosen shard, absorbed on the other.
            let ks = rng.gen_range(0..SHARDS);
            let kept = shard_key(ks, n);
            let absorbed = shard_key(1 - ks, n);
            let mfield = format!("m{n}");
            let t = n * 10;
            let kept_ok = db
                .add_entry("c", t, &kept, &[("v", Atom::Int(n as i64))])
                .is_ok();
            if kept_ok {
                acked_adds.push((ks, t));
            }
            let abs_ok = db
                .add_entry("c", t + 1, &absorbed, &[("v", Atom::Int(0)), (&mfield, Atom::Int(1))])
                .is_ok();
            if abs_ok {
                acked_adds.push((1 - ks, t + 1));
            }
            let mark = MergeMark { kept, absorbed, field: mfield };
            attempted.push(mark.clone());
            if kept_ok && abs_ok && db.merge_entries("c", t + 2, &mark.kept, &mark.absorbed).is_ok() {
                acked_merges.push(mark);
            }
        }

        // Crash: photograph the durable images and recover.
        let fin = db.snapshot();
        let final_ids: Vec<Vec<_>> = fin.shards().iter().map(|s| ids(&s.curated.log)).collect();
        let images: Vec<Vec<u8>> = devs.iter().map(|d| d.0.lock().unwrap().durable_image()).collect();
        let reopened = ShardedDb::open(
            "shard-crash",
            "id",
            map,
            images
                .into_iter()
                .map(|img| (Box::new(MemIo::from_bytes(img)) as Box<dyn Io>, CheckpointStore::mem()))
                .collect(),
            Duration::ZERO,
        )
        .map_err(|e| TestCaseError::fail(format!("recovery failed outright: {e}")))?;
        let rsnap = reopened.snapshot();

        // Each shard recovered a gap-free prefix of its append order.
        for (i, shard) in rsnap.shards().iter().enumerate() {
            let rids = ids(&shard.curated.log);
            prop_assert!(
                rids.len() <= final_ids[i].len(),
                "shard {i} recovered more transactions than were appended"
            );
            prop_assert_eq!(
                &rids[..],
                &final_ids[i][..rids.len()],
                "shard {i} recovered log is not a gap-free prefix"
            );
            replay_and_verify(&shard.curated)
                .map_err(|e| TestCaseError::fail(format!("shard {i} replay: {e}")))?;
        }
        // Whatever prefix each shard recovered, it is addressed.
        check_derived(&fin).map_err(TestCaseError::fail)?;
        check_derived(&rsnap).map_err(|m| TestCaseError::fail(format!("reopened: {m}")))?;

        if honest {
            // Never half-applied, and both registries agree, for every
            // merge that was ever *attempted* (committed ones show on
            // both sides, aborted/unreached ones on neither).
            if let Err(msg) = check_cross_atomicity(&rsnap, &attempted, &[]) {
                return Err(TestCaseError::fail(msg));
            }
            // Every ack survives: single-shard adds by (shard, time)…
            for (s, t) in &acked_adds {
                prop_assert!(
                    rsnap.shard(*s).curated.log.iter().any(|x| x.time == *t),
                    "acked add t={t} lost from shard {s} by an honest device"
                );
            }
            // …and acked cross-shard merges as committed-on-both-sides.
            for m in &acked_merges {
                let retired = matches!(
                    rsnap.for_key(&m.absorbed).lifecycle.fate(&m.absorbed),
                    Ok(Fate::MergedInto(_))
                );
                prop_assert!(
                    retired,
                    "acked cross-shard merge of {} lost by an honest device",
                    m.absorbed
                );
                prop_assert!(
                    rsnap.for_key(&m.kept).field(&m.kept, &m.field).is_ok(),
                    "acked merge committed on one shard but not the other"
                );
            }
        }
    }
}

// ------------------------------------------ secondary-index coherence

/// [`common::check_derived`] on every shard, with every identifier
/// any shard's registry has heard of: each shard refuses those not live
/// on it — retired, absorbed, or live on another shard.
fn check_derived(snap: &ShardedSnapshot) -> Result<(), String> {
    let mut ids = BTreeSet::new();
    for e in snap.shards().iter().flat_map(|s| s.lifecycle.events()) {
        match e {
            EntryEvent::Created { id, .. } | EntryEvent::Deleted { id, .. } => {
                ids.insert(id.clone());
            }
            EntryEvent::Merged { kept, absorbed, .. } => {
                ids.extend([kept.clone(), absorbed.clone()]);
            }
            EntryEvent::Split {
                original, parts, ..
            } => {
                ids.insert(original.clone());
                ids.extend(parts.iter().cloned());
            }
        }
    }
    for (i, shard) in snap.shards().iter().enumerate() {
        common::check_derived(shard, &ids).map_err(|m| format!("shard {i}: {m}"))?;
    }
    Ok(())
}

/// Every shard's derived state equals a rebuild, every shard indexes
/// `fields`, and the union of the shards' postings answers every lookup
/// as `oracle` (a sequential replay of the same career on one unsharded
/// database) does.
fn check_indexes(
    snap: &ShardedSnapshot,
    oracle: Option<&CuratedDatabase>,
    fields: &[String],
) -> Result<(), String> {
    check_derived(snap)?;
    for field in fields {
        let mut union = common::Postings::new();
        for (i, shard) in snap.shards().iter().enumerate() {
            if shard.field_index(field).is_none() {
                return Err(format!("shard {i} has no index on {field}"));
            }
            for (value, keys) in common::postings(shard, field) {
                union.entry(value).or_default().extend(keys);
            }
        }
        let Some(oracle) = oracle else { continue };
        let want = common::postings(oracle, field);
        if union != want {
            return Err(format!(
                "sharded lookups on {field} differ from the sequential replay:\n  have {union:?}\n  want {want:?}"
            ));
        }
    }
    Ok(())
}

/// [`apply_sop`] against the sequential oracle.
fn apply_sop_seq(db: &mut CuratedDatabase, w: u64, time: u64, op: &SOp) {
    apply_sop_to!(db, w, time, op)
}

/// Seeded careers of four writers over four shards — every script has
/// a cross-shard fusion and a cross-shard fission — with indexes on
/// the edited field and on the fields the fusions carry across. After
/// every step, each shard's index equals a rebuild from its entries
/// and the shards together answer as one sequential database would.
/// (The cross-shard paths once skipped reconciliation: an absorbed
/// entry stayed in its shard's postings and carried fields never
/// reached the survivor's.)
#[test]
fn cross_shard_fusion_and_fission_keep_indexes_reconciled() {
    const WRITERS: usize = 4;
    const ROUNDS: usize = 2;
    let mut fields = vec!["v".to_string(), "id".to_string()];
    fields.extend((0..WRITERS).map(|w| format!("m{w}r0")));
    for seed in 0..32u64 {
        let map = ShardMap::with_bounds(vec!["h".into(), "p".into(), "x".into()]);
        let db = ShardedDb::new("shard-idx", "id", map);
        let mut oracle = CuratedDatabase::new("shard-idx", "id");
        // Half the indexes exist before the data, half are built
        // mid-career from whatever the shards hold by then.
        for f in &fields[..3] {
            db.create_index(f).unwrap();
            oracle.create_index(f).unwrap();
        }
        let mut scripts: Vec<Vec<SOp>> = (0..WRITERS)
            .map(|w| {
                let mut ops: Vec<SOp> = (0..ROUNDS).flat_map(|r| shard_script(w, r).0).collect();
                ops.reverse();
                ops
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut time = 0u64;
        while scripts.iter().any(|s| !s.is_empty()) {
            let w = rng.gen_range(0..WRITERS);
            let Some(op) = scripts[w].pop() else { continue };
            time += 1;
            apply_sop(&db, w as u64, time, &op);
            apply_sop_seq(&mut oracle, w as u64, time, &op);
            if time == 20 {
                for f in &fields[3..] {
                    db.create_index(f).unwrap();
                    oracle.create_index(f).unwrap();
                }
            }
            let live = if time < 20 { &fields[..3] } else { &fields[..] };
            if let Err(msg) = check_indexes(&db.snapshot(), Some(&oracle), live) {
                panic!("seed {seed}, after step {time} ({op:?}): {msg}");
            }
        }
    }
}

/// A cross-shard fusion that aborts *after* both shards applied it in
/// memory (a participant's PREPARE sync fails) rolls the postings back
/// with the rest of the state; one that commits moves them. Either
/// way each shard's index equals a rebuild from its entries.
#[test]
fn cross_shard_abort_restores_index_postings() {
    let fields = ["v".to_string(), "carried".to_string()];
    let mut aborted = 0;
    for fail_at in 2..12u32 {
        let devs: Vec<SharedFaulty> = (0..2)
            .map(|i| {
                let plan = if i == 1 {
                    FaultPlan {
                        fail_flush: Some(fail_at),
                        ..Default::default()
                    }
                } else {
                    FaultPlan::default()
                };
                SharedFaulty(Arc::new(Mutex::new(FaultyIo::new(plan))))
            })
            .collect();
        let db = ShardedDb::open(
            "shard-idx-abort",
            "id",
            ShardMap::uniform(2),
            devs.iter()
                .map(|d| (Box::new(d.clone()) as Box<dyn Io>, CheckpointStore::mem()))
                .collect(),
            Duration::ZERO,
        )
        .unwrap();
        // Writes on the faulty shard may fail (and are retried by the
        // next persist); the invariant must hold regardless.
        let _ = db.add_entry("c", 1, "A0", &[("v", Atom::Int(1))]);
        let _ = db.add_entry(
            "c",
            2,
            "z0",
            &[("v", Atom::Int(2)), ("carried", Atom::Int(7))],
        );
        for f in &fields {
            let _ = db.create_index(f);
        }
        let before = db.snapshot();
        if before.entry_keys().unwrap().len() < 2 || before.shard(0).index_fields().len() < 2 {
            continue;
        }
        let merged = db.merge_entries("c", 3, "A0", "z0");
        let after = db.snapshot();
        check_indexes(&after, None, &fields)
            .unwrap_or_else(|msg| panic!("fail_flush {fail_at}, merge {merged:?}: {msg}"));
        let carried = after
            .shard(0)
            .index_lookup("carried", &Atom::Int(7))
            .unwrap();
        if merged.is_ok() {
            assert_eq!(
                carried,
                ["A0"],
                "the carried field is indexed on the survivor"
            );
        } else {
            aborted += 1;
            assert!(carried.is_empty(), "an aborted fusion carried nothing");
            assert_eq!(after.epoch(), before.epoch(), "no publication on abort");
            assert_eq!(
                after.shard(1).index_lookup("v", &Atom::Int(2)).unwrap(),
                ["z0"],
                "the absorbed entry is back in its shard's postings"
            );
        }
    }
    assert!(aborted > 0, "no schedule aborted the fusion mid-journal");
}

// ---------------------------------------------- cross-shard copy-paste

/// Every field of `key`'s entry, by label, with the origin chain
/// `how_arrived` gives it.
fn field_origins(s: &DbState, key: &str) -> BTreeMap<String, Vec<Origin>> {
    let tree = &s.curated.tree;
    let entry = s.entry_node(key).unwrap();
    tree.children(entry)
        .unwrap()
        .iter()
        .map(|&f| {
            let label = tree.label(f).unwrap().to_owned();
            (label, how_arrived(&s.curated, f))
        })
        .collect()
}

/// The §3.1 copy-paste loop across shards: [`ShardedDb::copy_paste`]
/// copies an entry out of one shard's snapshot and imports it on the
/// destination key's shard. The destination holds the entry, the
/// source shard is untouched, and every copied field arrived the way
/// one [`SharedDb`] records the same copy-then-`import_entry`: copied
/// from the logical database, at the source entry's tree path. That
/// path is built from node labels (`/entry`), so it does not name the
/// source key.
#[test]
fn copy_paste_across_shards_records_what_one_database_records() {
    let map = ShardMap::with_bounds(vec!["M".into()]);
    let (src, dst) = ("GABA-A", "P2X-like");
    assert_eq!((map.route(src), map.route(dst)), (0, 1));
    let fields = [("kind", Atom::Str("receptor".into())), ("tm", Atom::Int(4))];
    let sharded = ShardedDb::new("iuphar", "name", map);
    let single = SharedDb::new("iuphar", "name");
    sharded.add_entry("alice", 1, src, &fields).unwrap();
    single.add_entry("alice", 1, src, &fields).unwrap();
    let before = sharded.snapshot();

    sharded.copy_paste("bob", 2, src, dst).unwrap();
    let snap = single.snapshot();
    let clip = snap.curated.copy(snap.entry_node(src).unwrap()).unwrap();
    single.import_entry("bob", 2, dst, &clip).unwrap();

    let after = sharded.snapshot();
    let (source, dest) = (after.shard(0), after.shard(1));
    assert_eq!(
        source.epoch(),
        before.shard(0).epoch(),
        "source shard wrote"
    );
    assert!(
        source.entry_node(dst).is_err(),
        "copy landed on the source shard"
    );
    for (field, value) in &fields {
        assert_eq!(source.field(src, field).unwrap(), *value);
        assert_eq!(dest.field(dst, field).unwrap(), *value);
    }

    let copied = field_origins(dest, dst);
    assert_eq!(copied, field_origins(&single.snapshot(), dst));
    let src_path = source
        .curated
        .tree
        .path_of(source.entry_node(src).unwrap())
        .unwrap();
    for (field, _) in &fields {
        let chain = &copied[*field];
        assert!(
            matches!(
                chain.as_slice(),
                [Origin::Local, Origin::CopiedFrom { db, path, chain: upstream }]
                    if db == "iuphar" && *path == src_path && *upstream == [Origin::Local]
            ),
            "{field} arrived as {chain:?}"
        );
    }
}

// ------------------------------------- the one-shard deployment

/// An in-memory device whose bytes stay readable after it is handed to
/// a database.
#[derive(Debug, Clone, Default)]
struct SharedMem(Arc<Mutex<MemIo>>);

impl Io for SharedMem {
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

/// A single database served as `ShardedDb::from(shared)` is the same
/// database: one scripted career — add, edit, annotate, a merge, a
/// split, index DDL, publish — writes a byte-identical WAL, moves the
/// epoch in lockstep after every step (the wire's epoch-coherence
/// contract reads the summed epoch), and publishes the same version.
#[test]
fn wrapping_a_shared_db_adds_no_durable_bytes_and_no_epoch_skew() {
    let open = |wal: &SharedMem| {
        SharedDb::open(
            "iuphar",
            "name",
            Box::new(wal.clone()),
            CheckpointStore::mem(),
            Duration::ZERO,
        )
        .unwrap()
    };
    let (single_wal, served_wal) = (SharedMem::default(), SharedMem::default());
    let single = open(&single_wal);
    let served = ShardedDb::from(open(&served_wal));

    // Runs one call on both handles, checks the epochs agree after it,
    // and returns both results.
    macro_rules! both {
        ($db:ident => $call:expr) => {{
            let a = {
                let $db = &single;
                $call
            };
            let b = {
                let $db = &served;
                $call
            };
            assert_eq!(
                single.snapshot().epoch(),
                served.snapshot().epoch(),
                "epochs diverged after {}",
                stringify!($call)
            );
            (a.unwrap(), b.unwrap())
        }};
    }
    let str = |s: &str| Atom::Str(s.into());
    let (a, b) = both!(db => db.add_entry("alice", 1, "GABA-A", &[("tm", Atom::Int(4))]));
    assert_eq!(a, b);
    let (a, b) = both!(db => db.add_entry("bob", 2, "P2X", &[("ligand", str("ATP"))]));
    assert_eq!(a, b);
    both!(db => db.add_entry("carol", 3, "ACh", &[("kind", str("both"))]));
    both!(db => db.edit_field("alice", 4, "GABA-A", "tm", Atom::Int(5)));
    both!(db => db.annotate("GABA-A", Some("tm"), "dave", "checked", 5));
    both!(db => db.merge_entries("erin", 6, "GABA-A", "P2X"));
    both!(db => db.split_entry(
        "frank",
        7,
        "ACh",
        &[
            ("AChE", vec![("kind", str("enzyme"))]),
            ("nAChR", vec![("kind", str("receptor"))]),
        ],
    ));
    assert_eq!(both!(db => db.create_index("kind")), (true, true));
    let (v, ids) = both!(db => db.publish("2008-06"));
    assert_eq!(
        ids,
        vec![v],
        "a one-shard publish answers the single version"
    );
    assert_eq!(both!(db => db.drop_index("kind")), (true, true));

    single.sync().unwrap();
    served.sync().unwrap();
    let single_bytes = single_wal.0.lock().unwrap().bytes().to_vec();
    let served_bytes = served_wal.0.lock().unwrap().bytes().to_vec();
    assert!(!single_bytes.is_empty());
    assert!(
        single_bytes == served_bytes,
        "the one-shard wrapper changed the WAL ({} vs {} bytes)",
        single_bytes.len(),
        served_bytes.len()
    );
}

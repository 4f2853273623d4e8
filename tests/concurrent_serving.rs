//! Concurrent serving layer: snapshot-isolation and crash checking for
//! [`SharedDb`] over WAL group commit (DESIGN.md §S23).
//!
//! Three layers of testing:
//!
//! 1. **Deterministic interleaving driver** — 256 seeded histories of
//!    4 logical writers × 4 logical readers, scheduled one step at a
//!    time by a seeded [`StdRng`]. Because the schedule is a pure
//!    function of the case seed, a failing history replays
//!    byte-for-byte. Every snapshot a reader takes is fed through the
//!    checker below.
//! 2. **Real threads** — the same scripts on OS threads (writer count
//!    from `CDB_TEST_THREADS`, default 4), readers sampling
//!    concurrently; plus an `#[ignore]`d stress target sized for
//!    `--release --features stress -- --ignored` (the `stress` feature
//!    arms extra epoch-ordering assertions inside `cdb-core`).
//! 3. **Crash under concurrency** — writers race over group commit on
//!    a fault-injected device; after the scripted crash, recovery must
//!    restore a gap-free prefix of the append order, and (for honest
//!    devices) a superset of everything that was acknowledged.
//!
//! The snapshot checker (applied to every observed snapshot):
//!
//! - **Committed prefix** — the snapshot's transaction log is exactly a
//!   prefix of the final log: no torn entries, no holes, no reordering.
//! - **Replay oracle** — [`replay_and_verify`]: the snapshot's tree
//!   equals a from-scratch replay of its own log.
//! - **Lifecycle consistency** — every visible entry key is an active
//!   identifier; ids retired by merge/split/delete are never visible
//!   (no time-travel across lifecycle events).
//! - **Epoch coherence** — one epoch maps to one log length, and later
//!   epochs never expose shorter logs. Per reader, epochs and log
//!   lengths are monotone.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use cdb_core::{CuratedDatabase, ShardedDb, SharedDb, Snapshot, DEFAULT_BATCH_WINDOW};
use cdb_curation::ops::Transaction;
use cdb_curation::replay::replay_and_verify;
use cdb_model::Atom;
use cdb_storage::{FaultPlan, FaultyIo, Io, MemIo, StorageError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ------------------------------------------------------------ scripts

/// One scripted curation step. Writers run disjoint key namespaces so
/// any interleaving of their scripts is conflict-free: the checker then
/// verifies what the *serving layer* interleaved, not what the scripts
/// happened to collide on.
#[derive(Debug, Clone)]
enum Op {
    Add(String),
    Edit(String, i64),
    Annotate(String),
    Merge(String, String),
    Split(String, String, String),
    Delete(String),
    Publish(String),
}

/// A writer's script over namespace `ns`: create entries, edit them,
/// annotate, then exercise every lifecycle transition (merge, split,
/// delete) and publish a version.
fn writer_script(ns: &str) -> Vec<Op> {
    let k = |n: usize| format!("{ns}k{n}");
    vec![
        Op::Add(k(0)),
        Op::Add(k(1)),
        Op::Add(k(2)),
        Op::Add(k(3)),
        Op::Edit(k(0), 7),
        Op::Annotate(k(1)),
        Op::Edit(k(0), 8),
        Op::Merge(k(0), k(1)),
        Op::Split(k(2), k(4), k(5)),
        Op::Edit(k(4), 9),
        Op::Delete(k(3)),
        Op::Publish(format!("{ns}-v1")),
    ]
}

/// Applies one scripted step. `w`/`step` make the logical time unique
/// across the whole history (the engine never reads wall-clock time).
fn apply_op(db: &SharedDb, w: u64, step: u64, op: &Op) {
    let curator = format!("c{w}");
    let time = (w + 1) * 100_000 + step;
    match op {
        Op::Add(key) => {
            db.add_entry(&curator, time, key, &[("v", Atom::Int(time as i64))])
                .unwrap();
        }
        Op::Edit(key, v) => db
            .edit_field(&curator, time, key, "v", Atom::Int(*v))
            .unwrap(),
        Op::Annotate(key) => db
            .annotate(key, Some("v"), &curator, "checked", time)
            .unwrap(),
        Op::Merge(kept, absorbed) => db.merge_entries(&curator, time, kept, absorbed).unwrap(),
        Op::Split(orig, a, b) => db
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
        Op::Delete(key) => db.delete_entry(&curator, time, key).unwrap(),
        Op::Publish(label) => {
            db.publish(label.clone()).unwrap();
        }
    }
}

// ------------------------------------------------------------ checker

/// The identity of a transaction for prefix comparison.
fn ids<'a>(log: impl IntoIterator<Item = &'a Transaction>) -> Vec<(u64, String, u64)> {
    log.into_iter()
        .map(|t| (t.id.0, t.curator.clone(), t.time))
        .collect()
}

/// Checks one observed snapshot against the final history (see module
/// docs). Returns an error message rather than panicking so proptest
/// cases report the failing seed.
fn check_snapshot(s: &Snapshot, final_ids: &[(u64, String, u64)]) -> Result<(), String> {
    let sids = ids(s.curated.log());
    if sids.len() > final_ids.len() {
        return Err(format!(
            "snapshot log ({} txns) is longer than the final log ({})",
            sids.len(),
            final_ids.len()
        ));
    }
    if sids[..] != final_ids[..sids.len()] {
        return Err(format!(
            "snapshot log is not a prefix of the final log (epoch {})",
            s.epoch()
        ));
    }
    replay_and_verify(&s.curated).map_err(|e| format!("snapshot != replay of its log: {e}"))?;
    for key in s.entry_keys().map_err(|e| format!("entry_keys: {e}"))? {
        if !s.lifecycle.is_active(&key) {
            return Err(format!("entry {key} visible but its id is not active"));
        }
    }
    Ok(())
}

/// Cross-snapshot epoch coherence: one epoch ⇒ one log length, and the
/// epoch order never shrinks the log.
fn check_epochs<'a>(snaps: impl Iterator<Item = &'a Snapshot>) -> Result<(), String> {
    let mut by_epoch: BTreeMap<u64, usize> = BTreeMap::new();
    for s in snaps {
        let len = s.curated.log().len();
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

// ---------------------------------------- deterministic interleavings

proptest! {
    /// 256 seeded histories of 4 writers × 4 readers under a
    /// deterministic scheduler: every snapshot any reader ever took is
    /// a committed prefix of the final log, replays to itself, and
    /// respects lifecycle retirement. Failures replay byte-for-byte
    /// from the case seed.
    #[test]
    fn seeded_scheduler_histories_are_snapshot_consistent(seed in 0u64..1_000_000) {
        const WRITERS: usize = 4;
        const READERS: usize = 4;
        let db = SharedDb::new("conc", "id");
        let mut rng = StdRng::seed_from_u64(seed);
        let scripts: Vec<Vec<Op>> =
            (0..WRITERS).map(|w| writer_script(&format!("w{w}"))).collect();
        let mut cursor = [0usize; WRITERS];
        let mut reader_state = [(0u64, 0usize); READERS];
        let mut observed: Vec<Snapshot> = Vec::new();

        while cursor.iter().zip(&scripts).any(|(c, s)| *c < s.len()) {
            let actor = rng.gen_range(0..WRITERS + READERS);
            if actor < WRITERS {
                let w = actor;
                if cursor[w] < scripts[w].len() {
                    apply_op(&db, w as u64, cursor[w] as u64, &scripts[w][cursor[w]]);
                    cursor[w] += 1;
                }
            } else {
                let r = actor - WRITERS;
                let snap = db.snapshot();
                let (prev_epoch, prev_len) = reader_state[r];
                prop_assert!(
                    snap.epoch() >= prev_epoch,
                    "reader {r} saw epoch go backwards: {} < {prev_epoch}",
                    snap.epoch()
                );
                prop_assert!(
                    snap.curated.log().len() >= prev_len,
                    "reader {r} saw the log shrink"
                );
                reader_state[r] = (snap.epoch(), snap.curated.log().len());
                observed.push(snap);
            }
        }

        let fin = db.snapshot();
        let final_ids = ids(fin.curated.log());
        for snap in observed.iter().chain(std::iter::once(&fin)) {
            if let Err(msg) = check_snapshot(snap, &final_ids) {
                return Err(TestCaseError::fail(msg));
            }
        }
        if let Err(msg) = check_epochs(observed.iter().chain(std::iter::once(&fin))) {
            return Err(TestCaseError::fail(msg));
        }
    }
}

// ----------------------------------------------------- real threads

fn env_threads() -> Option<usize> {
    std::env::var("CDB_TEST_THREADS").ok()?.parse().ok()
}

/// N writer threads × M reader threads over one `SharedDb`; each
/// reader checks monotonicity inline (previous snapshot's log must be
/// a prefix of the next one's) and retains a sample of snapshots for
/// the full checker after the writers join.
fn real_thread_history(writers: usize, readers: usize, rounds: usize) {
    let db = SharedDb::new("conc-mt", "id");
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let reader_handles: Vec<_> = (0..readers)
        .map(|r| {
            let db = db.clone();
            let done = done.clone();
            thread::spawn(move || {
                let mut prev: Option<Snapshot> = None;
                let mut kept: Vec<Snapshot> = Vec::new();
                let mut samples = 0usize;
                while !done.load(std::sync::atomic::Ordering::Acquire) {
                    let snap = db.snapshot();
                    if let Some(p) = &prev {
                        assert!(
                            snap.epoch() >= p.epoch(),
                            "reader {r}: epoch went backwards"
                        );
                        let pids = ids(p.curated.log());
                        let nids = ids(snap.curated.log());
                        assert!(
                            pids.len() <= nids.len() && pids[..] == nids[..pids.len()],
                            "reader {r}: earlier snapshot is not a prefix of a later one"
                        );
                    }
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
                    let script = writer_script(&format!("w{w}r{round}"));
                    for (step, op) in script.iter().enumerate() {
                        let time = (round * script.len() + step) as u64;
                        apply_op(&db, w as u64, time, op);
                    }
                }
            })
        })
        .collect();

    for h in writer_handles {
        h.join().unwrap();
    }
    done.store(true, std::sync::atomic::Ordering::Release);

    let fin = db.snapshot();
    let final_ids = ids(fin.curated.log());
    // Each script round commits 10 transactions (4 adds, 3 edits,
    // merge, split, delete — annotate and publish are aux-only).
    assert_eq!(
        final_ids.len(),
        writers * rounds * 10,
        "missing transactions"
    );
    let mut all: Vec<Snapshot> = vec![fin];
    for h in reader_handles {
        all.extend(h.join().unwrap());
    }
    for snap in &all {
        if let Err(msg) = check_snapshot(snap, &final_ids) {
            panic!("real-thread history violated snapshot isolation: {msg}");
        }
    }
    check_epochs(all.iter()).unwrap_or_else(|msg| panic!("epoch coherence: {msg}"));
}

/// Real OS threads, writer count from `CDB_TEST_THREADS` (default 4) —
/// `scripts/check.sh` runs this under a 1/4/num_cpus matrix.
#[test]
fn real_thread_history_is_snapshot_consistent() {
    real_thread_history(env_threads().unwrap_or(4), 4, 2);
}

/// Stress target (not part of the default run):
///
/// ```text
/// cargo test --release --features stress --test concurrent_serving -- --ignored
/// ```
///
/// The `stress` feature arms `cdb-core`'s internal assertion that each
/// published epoch's log extends the previous epoch's (checked inside
/// the publish path itself, under the cache lock).
#[test]
#[ignore = "stress target: cargo test --release --features stress -- --ignored"]
fn stress_history_with_many_threads() {
    real_thread_history(8, 8, 6);
}

// ------------------------------------------- crash under concurrency

/// A fault-injected device shared between the `SharedDb` under test
/// and the checker (which photographs the durable image post-crash).
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
    /// Writers race over group commit on a faulty device; after the
    /// crash, recovery restores exactly a gap-free prefix of the
    /// append order — never a subset with holes — and on devices that
    /// never lie about a flush, every acknowledged commit survives.
    ///
    /// Fault classes: `fail_flush` (one sync errors, honestly — the
    /// next leader retries), `flush_cap` (partial flushes that report
    /// success — a lying disk), `torn_write_at` (a hard durability
    /// ceiling). `DurableLog::create` flushes the 8-byte WAL header
    /// first, so flush #1 is the header sync and the fault offsets
    /// below start past it.
    #[test]
    fn crash_mid_batch_recovers_an_acknowledged_prefix(
        writers in 1usize..5,
        per_writer in 1u64..6,
        fault_sel in 0usize..3,
        fault_n in 0u64..24,
    ) {
        let plan = match fault_sel {
            0 => FaultPlan { fail_flush: Some(fault_n as u32 % 6 + 2), ..Default::default() },
            1 => FaultPlan { flush_cap: Some(32 + fault_n * 24), ..Default::default() },
            _ => FaultPlan { torn_write_at: Some(16 + fault_n * 16), ..Default::default() },
        };
        let honest = fault_sel == 0;
        let dev = SharedFaulty(Arc::new(Mutex::new(FaultyIo::new(plan))));
        let db = SharedDb::open(
            "crash",
            "id",
            Box::new(dev.clone()),
            cdb_storage::CheckpointStore::mem(),
            DEFAULT_BATCH_WINDOW,
        )
        .map_err(|e| TestCaseError::fail(format!("open: {e}")))?;

        // Writers race; each records the commits that were ACKED (the
        // write returned Ok, i.e. a sync covering its frames claimed
        // success). Failed commits stay in memory and may or may not
        // reach disk — that's allowed either way.
        let acked = Arc::new(Mutex::new(Vec::<u64>::new()));
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let db = db.clone();
                let acked = acked.clone();
                thread::spawn(move || {
                    for i in 0..per_writer {
                        let time = (w as u64 + 1) * 1_000_000 + i;
                        let res = db.add_entry(
                            &format!("c{w}"),
                            time,
                            &format!("w{w}k{i}"),
                            &[("v", Atom::Int(time as i64))],
                        );
                        if res.is_ok() {
                            acked.lock().unwrap().push(time);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        // Crash: photograph what actually reached durable storage and
        // recover from it into a fresh database.
        let fin = db.snapshot();
        let final_ids = ids(fin.curated.log());
        let image = dev.0.lock().unwrap().durable_image();
        let reopened = CuratedDatabase::open(
            "crash",
            "id",
            Box::new(MemIo::from_bytes(image)),
            cdb_storage::CheckpointStore::mem(),
        )
        .map_err(|e| TestCaseError::fail(format!("recovery failed outright: {e}")))?;

        let rids = ids(reopened.curated.log());
        prop_assert!(
            rids.len() <= final_ids.len(),
            "recovered more transactions than were ever appended"
        );
        prop_assert_eq!(
            &rids[..],
            &final_ids[..rids.len()],
            "recovered log is not a gap-free prefix of the append order"
        );
        if honest {
            let durable: BTreeSet<u64> =
                reopened.curated.log().iter().map(|t| t.time).collect();
            for t in acked.lock().unwrap().iter() {
                prop_assert!(
                    durable.contains(t),
                    "commit t={t} was acknowledged but lost by an honest device"
                );
            }
        }
    }
}

// ------------------------------------------ a held sync blocks no op

/// [`SharedFaulty`] behind a gate: while held, every flush blocks (and
/// is counted as blocked) until the gate opens.
#[derive(Debug, Clone)]
struct HeldSync {
    dev: SharedFaulty,
    /// (held, flushes blocked right now)
    gate: Arc<(Mutex<(bool, usize)>, Condvar)>,
}

impl HeldSync {
    fn set_held(&self, held: bool) {
        self.gate.0.lock().unwrap().0 = held;
        self.gate.1.notify_all();
    }
}

impl Io for HeldSync {
    fn len(&self) -> Result<u64, StorageError> {
        self.dev.len()
    }
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, StorageError> {
        self.dev.read_at(offset, buf)
    }
    fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.dev.append(bytes)
    }
    fn flush(&mut self) -> Result<(), StorageError> {
        let (lock, cv) = &*self.gate;
        let mut g = lock.lock().unwrap();
        g.1 += 1;
        cv.notify_all();
        g = cv.wait_while(g, |g| g.0).unwrap();
        g.1 -= 1;
        drop(g);
        self.dev.flush()
    }
    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        self.dev.truncate(len)
    }
}

/// One writer's sync is held open on the device; a second writer's
/// in-memory commit must still finish — its snapshot epoch is
/// published, showing both commits while neither is durable (the
/// visibility rule) — and once the sync is released both commits are
/// acknowledged and survive a crash-reopen.
#[test]
fn a_held_sync_does_not_block_another_writers_commit() {
    let held = HeldSync {
        dev: SharedFaulty(Arc::new(Mutex::new(FaultyIo::new(FaultPlan::default())))),
        gate: Arc::new((Mutex::new((false, 0)), Condvar::new())),
    };
    let db = SharedDb::open(
        "held",
        "id",
        Box::new(held.clone()),
        cdb_storage::CheckpointStore::mem(),
        Duration::ZERO,
    )
    .unwrap();
    held.set_held(true);
    let writer = |key: &'static str, time: u64| {
        let db = db.clone();
        thread::spawn(move || db.add_entry("c", time, key, &[]))
    };
    let w1 = writer("k1", 1);
    {
        // Writer 1 leads the group and its flush is now held.
        let (lock, cv) = &*held.gate;
        let _g = cv.wait_while(lock.lock().unwrap(), |g| g.1 == 0).unwrap();
    }
    let w2 = writer("k2", 2);
    // Bounded, so a blocked writer fails the test instead of hanging it.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while db.epoch() < 2 && std::time::Instant::now() < deadline {
        thread::sleep(Duration::from_millis(1));
    }
    let seen = db.snapshot();
    held.set_held(false);
    assert_eq!(
        seen.epoch(),
        2,
        "writer 2's op blocked behind writer 1's sync"
    );
    assert_eq!(seen.entry_keys().unwrap().len(), 2);
    w1.join().unwrap().unwrap();
    w2.join().unwrap().unwrap();
    let image = held.dev.0.lock().unwrap().durable_image();
    let reopened = CuratedDatabase::open(
        "held",
        "id",
        Box::new(MemIo::from_bytes(image)),
        cdb_storage::CheckpointStore::mem(),
    )
    .unwrap();
    let mut keys = reopened.entry_keys().unwrap();
    keys.sort();
    assert_eq!(keys, ["k1", "k2"]);
}

// --------------------------------------- satellite 1: replay oracle

proptest! {
    /// Differential test: every snapshot equals replaying the final
    /// curation log up to the snapshot's last transaction id
    /// ([`cdb_curation::replay::replay`] as the oracle).
    #[test]
    fn snapshot_state_equals_log_replay_to_its_txn_id(seed in 0u64..1_000_000) {
        let db = SharedDb::new("diff", "id");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut live: Vec<String> = Vec::new();
        let mut next_key = 0u64;
        let mut taken: Vec<Snapshot> = Vec::new();
        let steps = rng.gen_range(5..40);
        for step in 0..steps {
            let time = 1_000 + step as u64;
            match rng.gen_range(0..10) {
                0..=3 => {
                    let key = format!("k{next_key}");
                    next_key += 1;
                    db.add_entry("c", time, &key, &[("v", Atom::Int(time as i64))]).unwrap();
                    live.push(key);
                }
                4..=6 if !live.is_empty() => {
                    let key = &live[rng.gen_range(0..live.len())];
                    db.edit_field("c", time, key, "v", Atom::Int(step as i64)).unwrap();
                }
                7 if !live.is_empty() => {
                    let key = live.remove(rng.gen_range(0..live.len()));
                    db.delete_entry("c", time, &key).unwrap();
                }
                8 if !live.is_empty() => {
                    let key = &live[rng.gen_range(0..live.len())];
                    db.annotate(key, None, "c", "note", time).unwrap();
                }
                _ => {}
            }
            if rng.gen_range(0..3) == 0 {
                taken.push(db.snapshot());
            }
        }

        let fin = db.snapshot();
        let final_log = fin.curated.log();
        for snap in taken.iter().chain(std::iter::once(&fin)) {
            // `upto: None` means "the whole log" to `replay`, so an
            // empty snapshot replays an empty slice instead.
            let oracle = match snap.curated.log().last().map(|t| t.id) {
                Some(upto) => cdb_curation::replay::replay("diff", final_log, Some(upto)),
                None => cdb_curation::replay::replay("diff", &[], None),
            }
            .map_err(|e| TestCaseError::fail(format!("oracle replay: {e}")))?;
            // The oracle tree and the snapshot tree must agree on every
            // live node (ids are stable across replay).
            for id in snap.curated.tree.live_nodes() {
                prop_assert!(oracle.is_alive(id), "node {id} in snapshot, not in oracle");
                prop_assert_eq!(
                    snap.curated.tree.value(id).unwrap(),
                    oracle.value(id).unwrap(),
                    "node {} differs from the replay oracle", id
                );
            }
            prop_assert_eq!(
                snap.curated.tree.size(),
                oracle.size(),
                "snapshot and oracle disagree on live-node count"
            );
        }
    }
}

// ----------------------------- satellite: over-the-wire histories
//
// The same seeded-scheduler discipline, but each actor is now a full
// network client: requests are encoded to frames, pushed through the
// deterministic in-memory transport, served by the production
// `cdb_server::Session` code (snapshot-pinned reads, group-committed
// writes), and the responses decoded back. The checkers then apply to
// what the *protocol* exposed: every pinned snapshot any session ever
// served from must be a committed prefix that replays to itself, the
// epochs carried inside `Value`/`Keys` responses must match the pins,
// and after a scripted crash the durable log must cover every commit
// any client was ever acknowledged — including when one client
// disconnects halfway through writing a request frame.

use cdb_server::admission::Admission;
use cdb_server::proto::{read_frame, write_frame, Request, Response, PROTOCOL_VERSION};
use cdb_server::session::{Session, Turn};
use cdb_server::transport::{mem_pair, MemTransport, Transport};

/// One scripted protocol request with its expected-success shape.
#[derive(Debug, Clone)]
enum WireOp {
    Write(Request),
    GetOwn(String, i64),
    Entries,
    Refresh,
    Epoch,
}

/// A client's script over namespace `ns`: adds, an edit, read-your-
/// writes probes, lifecycle ops, a refresh, and a publish.
fn wire_script(c: usize) -> Vec<WireOp> {
    let ns = format!("c{c}");
    let k = |n: usize| format!("{ns}k{n}");
    let curator = ns.clone();
    let time = |step: usize| (c as u64 + 1) * 100_000 + step as u64;
    let mut steps = Vec::new();
    for n in 0..3 {
        steps.push(WireOp::Write(Request::Add {
            curator: curator.clone(),
            time: time(n),
            key: k(n),
            fields: vec![("v".to_string(), Atom::Int(n as i64))],
        }));
    }
    steps.push(WireOp::Write(Request::Edit {
        curator: curator.clone(),
        time: time(3),
        key: k(0),
        field: "v".to_string(),
        value: Atom::Int(7),
    }));
    steps.push(WireOp::GetOwn(k(0), 7));
    steps.push(WireOp::Entries);
    steps.push(WireOp::Write(Request::Annotate {
        key: k(1),
        field: Some("v".to_string()),
        author: curator.clone(),
        text: "checked".to_string(),
        time: time(4),
    }));
    steps.push(WireOp::Write(Request::Merge {
        curator: curator.clone(),
        time: time(5),
        kept: k(0),
        absorbed: k(1),
    }));
    steps.push(WireOp::Write(Request::Delete {
        curator: curator.clone(),
        time: time(6),
        key: k(2),
    }));
    steps.push(WireOp::Refresh);
    steps.push(WireOp::Epoch);
    steps.push(WireOp::Write(Request::Publish {
        label: format!("{ns}-v1"),
    }));
    steps
}

/// One client session riding the deterministic transport.
struct WireClient {
    transport: MemTransport,
    session: Session<MemTransport>,
    script: Vec<WireOp>,
    cursor: usize,
    /// `time` of every write this client was ACKED (an Ok/Node/Version
    /// response arrived).
    acked: Vec<u64>,
    /// The last epoch any response exposed to this client.
    last_epoch: u64,
    alive: bool,
}

impl WireClient {
    fn exchange(&mut self, req: &Request) -> Result<Response, String> {
        write_frame(&mut self.transport, &req.encode()).map_err(|e| format!("send: {e}"))?;
        let turn = self.session.serve_one();
        if turn != Turn::Continue {
            return Err(format!("session closed on {req:?}"));
        }
        let payload = read_frame(&mut self.transport)
            .map_err(|e| format!("recv: {e}"))?
            .ok_or("server hung up mid-conversation")?;
        Response::decode(&payload).map_err(|e| format!("bad response frame: {e}"))
    }

    /// Runs one scripted step; records acks and response epochs, and
    /// cross-checks every exposed epoch against the session's actual
    /// pin (end-to-end epoch coherence).
    fn step(&mut self) -> Result<(), String> {
        let op = self.script[self.cursor].clone();
        self.cursor += 1;
        match op {
            WireOp::Write(req) => {
                // Only ops that append to the curation log are tracked
                // for the acked ⊆ recovered check (annotations and
                // publishes are aux structures with no log entry).
                let time = match &req {
                    Request::Add { time, .. }
                    | Request::Edit { time, .. }
                    | Request::Delete { time, .. }
                    | Request::Merge { time, .. } => Some(*time),
                    _ => None,
                };
                match self.exchange(&req)? {
                    Response::Ok | Response::Node { .. } | Response::Version { .. } => {
                        self.acked.extend(time);
                        Ok(())
                    }
                    other => Err(format!("write {req:?} answered {other:?}")),
                }
            }
            WireOp::GetOwn(key, expect) => match self.exchange(&Request::GetField {
                key: key.clone(),
                field: "v".to_string(),
            })? {
                Response::Value { epoch, value } => {
                    if value != Atom::Int(expect) {
                        return Err(format!(
                            "read-your-writes violated: {key} = {value:?}, wanted {expect}"
                        ));
                    }
                    self.note_epoch(epoch)
                }
                other => Err(format!("get {key} answered {other:?}")),
            },
            WireOp::Entries => match self.exchange(&Request::Entries)? {
                Response::Keys { epoch, .. } => self.note_epoch(epoch),
                other => Err(format!("entries answered {other:?}")),
            },
            WireOp::Refresh => match self.exchange(&Request::Refresh)? {
                Response::Epoch { epoch } => self.note_epoch(epoch),
                other => Err(format!("refresh answered {other:?}")),
            },
            WireOp::Epoch => match self.exchange(&Request::Epoch)? {
                Response::Epoch { epoch } => self.note_epoch(epoch),
                other => Err(format!("epoch answered {other:?}")),
            },
        }
    }

    fn note_epoch(&mut self, epoch: u64) -> Result<(), String> {
        let pin = self.session.pinned().epoch();
        if epoch != pin {
            return Err(format!(
                "response epoch {epoch} disagrees with the session pin {pin}"
            ));
        }
        if epoch < self.last_epoch {
            return Err(format!(
                "client-visible epoch went backwards: {epoch} < {}",
                self.last_epoch
            ));
        }
        self.last_epoch = epoch;
        Ok(())
    }
}

proptest! {
    /// 256 seeded multi-client histories through the in-memory
    /// transport against a durable database:
    /// committed-prefix, replay-oracle, and epoch-coherence hold end
    /// to end, one client disconnects in the middle of writing a
    /// frame, and after a crash the recovered log covers every ack
    /// any client received (acked ⊆ recovered).
    #[test]
    fn over_the_wire_histories_are_linearizable(seed in 0u64..1_000_000) {
        const CLIENTS: usize = 3;
        let dev = SharedFaulty(Arc::new(Mutex::new(FaultyIo::new(FaultPlan::default()))));
        let db = SharedDb::open(
            "wire",
            "id",
            Box::new(dev.clone()),
            cdb_storage::CheckpointStore::mem(),
            Duration::ZERO,
        )
        .map_err(|e| TestCaseError::fail(format!("open: {e}")))?;
        let served = ShardedDb::from(db.clone());
        let admission = Admission::new(CLIENTS + 1, 1, served.metrics());
        let mut rng = StdRng::seed_from_u64(seed);

        let mut clients: Vec<WireClient> = (0..CLIENTS)
            .map(|c| {
                let (transport, server_end) = mem_pair();
                let mut wc = WireClient {
                    transport,
                    session: Session::new(server_end, served.clone(), admission.clone()),
                    script: wire_script(c),
                    cursor: 0,
                    acked: Vec::new(),
                    last_epoch: 0,
                    alive: true,
                };
                let hello = wc
                    .exchange(&Request::Hello {
                        version: PROTOCOL_VERSION,
                        client: format!("c{c}"),
                    })
                    .expect("hello");
                assert!(matches!(hello, Response::Hello { .. }));
                wc
            })
            .collect();

        // One client is doomed: after a seed-chosen number of steps it
        // will disconnect midway through writing its next frame.
        let doomed = rng.gen_range(0..CLIENTS);
        let doom_at = rng.gen_range(0..clients[doomed].script.len());

        let mut observed: Vec<Snapshot> = Vec::new();
        loop {
            let runnable: Vec<usize> = clients
                .iter()
                .enumerate()
                .filter(|(_, c)| c.alive && c.cursor < c.script.len())
                .map(|(i, _)| i)
                .collect();
            if runnable.is_empty() {
                break;
            }
            let pick = runnable[rng.gen_range(0..runnable.len())];
            let wc = &mut clients[pick];
            if pick == doomed && wc.cursor == doom_at {
                // Write a strict prefix of a valid Add frame, then
                // hang up: the torn request must not be applied.
                let payload = Request::Add {
                    curator: "doomed".to_string(),
                    time: 999_999,
                    key: "torn-key".to_string(),
                    fields: vec![("v".to_string(), Atom::Int(13))],
                }
                .encode();
                let mut frame = Vec::new();
                frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                frame.extend_from_slice(&payload);
                let cut = rng.gen_range(1..frame.len());
                wc.transport
                    .write_all(&frame[..cut])
                    .map_err(|e| TestCaseError::fail(format!("partial write: {e}")))?;
                wc.transport.shutdown_write();
                let turn = wc.session.serve_one();
                prop_assert_eq!(turn, Turn::Closed, "torn frame must close the session");
                wc.alive = false;
            } else {
                wc.step().map_err(TestCaseError::fail)?;
            }
            observed.push(clients[pick].session.pinned().shard(0).clone());
        }

        // The torn request never reached the database.
        let fin = db.snapshot();
        prop_assert!(
            !fin.entry_keys().unwrap().contains(&"torn-key".to_string()),
            "a torn frame was half-applied"
        );

        // Snapshot checkers over every pinned view any session served.
        let final_ids = ids(fin.curated.log());
        for snap in observed.iter().chain(std::iter::once(&fin)) {
            if let Err(msg) = check_snapshot(snap, &final_ids) {
                return Err(TestCaseError::fail(msg));
            }
        }
        if let Err(msg) = check_epochs(observed.iter().chain(std::iter::once(&fin))) {
            return Err(TestCaseError::fail(msg));
        }

        // Crash: every ack any client (including the doomed one, for
        // its pre-disconnect writes) ever saw must be recovered.
        let image = dev.0.lock().unwrap().durable_image();
        let reopened = CuratedDatabase::open(
            "wire",
            "id",
            Box::new(MemIo::from_bytes(image)),
            cdb_storage::CheckpointStore::mem(),
        )
        .map_err(|e| TestCaseError::fail(format!("recovery: {e}")))?;
        let rids = ids(reopened.curated.log());
        prop_assert_eq!(
            &rids[..],
            &final_ids[..rids.len()],
            "recovered log is not a prefix of the served history"
        );
        let durable: BTreeSet<u64> = reopened.curated.log().iter().map(|t| t.time).collect();
        for wc in &clients {
            for t in &wc.acked {
                prop_assert!(
                    durable.contains(t),
                    "acked commit t={t} lost across sessions (acked ⊄ recovered)"
                );
            }
        }
    }
}

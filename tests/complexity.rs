//! Counted, not timed: how much work a publish or a versioned read
//! does, read from the `archive.merge.entries` counter (entries handed
//! to the archive's per-entry merge step) and the `archive.read.nodes`
//! counter (values an archive read rebuilt), so the bounds hold on any
//! machine.
//!
//! - A publish after k edits merges exactly k entries, at 1 000 entries
//!   and at 8 000.
//! - A publish after 10 edits, while a snapshot shares the archive,
//!   copies the archive nodes of the 10 edited entries
//!   (`archive.publish.nodes_copied`): as many at 8 000 entries as at
//!   1 000, where a deep copy would copy every node.
//! - `archive_from_log` merges every entry once, at the first publish
//!   point, and after that only each segment's delta.
//! - An open under `KeepAll` merges, point by point, what
//!   `archive_from_log` merges; after it, the first publish following
//!   k edits merges k entries, at 1 000 entries and at 8 000.
//! - A citation rebuilds the cited entry only: as many nodes at 8 000
//!   entries as at 1 000. A whole-version read rebuilds about 8× more.
//! - A checkpoint under `KeepAll` writes no checkpoint byte and no heap
//!   byte, paged or not, at 1 000 entries and at 8 000; under `Reclaim`
//!   it writes both.
//! - A paged checkpoint under `Reclaim` after k edits reads no heap
//!   bytes and captures as many slots at 8 000 entries as at 1 000.
//! - A paged open reads the heap once: at most 1.1× its length, at
//!   1 000 entries and at 8 000.
//! - `last_modified` plus `curators_of` of one entry read as many
//!   touch-index entries (`curation.prov.touches_read`) at 1 000
//!   entries as at 8 000, after 10× as many edits to other entries as
//!   after 1×.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use cdb_core::{CuratedDatabase, DbState, Durability};
use cdb_model::Atom;
use cdb_storage::{CheckpointStore, Io, MemIo, Retention, StorageError};

/// The counter is process-global: one test at a time reads it.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// What `op` adds to the `archive.merge.entries` counter.
fn merges<T>(op: impl FnOnce() -> T) -> (T, u64) {
    counted("archive.merge.entries", op)
}

/// What `op` adds to the process-global counter `name`.
fn counted<T>(name: &str, op: impl FnOnce() -> T) -> (T, u64) {
    let counter = cdb_obs::global().counter(name);
    let before = counter.get();
    let out = op();
    (out, counter.get() - before)
}

fn key(i: usize) -> String {
    format!("K{i:05}")
}

/// A database of `n` entries, none published.
fn loaded(n: usize) -> CuratedDatabase {
    let mut db = CuratedDatabase::new("count", "ac");
    for i in 0..n {
        let fields = [("gn", Atom::Int(i as i64 % 7)), ("os", Atom::Int(1))];
        db.add_entry("c", i as u64, &key(i), &fields).unwrap();
    }
    db
}

/// Edits `k` distinct entries, each twice, at times after `t`.
fn edit(db: &mut CuratedDatabase, k: usize, t: u64) {
    let n = db.entry_keys().unwrap().len();
    for round in 0..2 {
        for i in 0..k {
            let at = t + (round * k + i) as u64;
            db.edit_field("c", at, &key(i * 7 % n), "gn", Atom::Int(at as i64))
                .unwrap();
        }
    }
}

#[test]
fn a_publish_after_k_edits_merges_k_entries() {
    let _g = serial();
    assert!(cdb_obs::metrics_enabled());
    for n in [1_000, 8_000] {
        let mut db = loaded(n);
        let (_, first) = merges(|| db.publish("full").unwrap());
        assert_eq!(first, n as u64, "the first publish merges the whole export");
        for (round, k) in [0usize, 1, 17, 64].into_iter().enumerate() {
            edit(&mut db, k, (n + 1000 * round) as u64);
            let (_, merged) = merges(|| db.publish(format!("r{round}")).unwrap());
            assert_eq!(merged, k as u64, "{n} entries, {k} edited");
        }
    }
}

#[test]
fn a_publish_copies_only_the_archive_nodes_it_merges() {
    let _g = serial();
    let mut copied = Vec::new();
    for n in [1_000, 8_000] {
        let mut db = loaded(n);
        db.publish("r0").unwrap();
        edit(&mut db, 10, n as u64);
        let pinned = DbState::clone(&db);
        let before = pinned.archive().encode();
        let (_, nodes) = counted("archive.publish.nodes_copied", || db.publish("r1").unwrap());
        assert_eq!(pinned.archive().encode(), before, "{n} entries");
        copied.push(nodes);
    }
    // Each edited entry is a record of three fields: four nodes.
    assert_eq!(copied, [40, 40], "nodes copied at 1 000 and 8 000 entries");
}

#[test]
fn archive_from_log_merges_the_first_release_whole_then_deltas() {
    let _g = serial();
    let n = 1_000;
    let mut db = loaded(n);
    db.publish("r0").unwrap();
    let deltas = [3usize, 0, 11, 40];
    for (round, k) in deltas.into_iter().enumerate() {
        edit(&mut db, k, (n + 1000 * round) as u64);
        db.publish(format!("r{}", round + 1)).unwrap();
    }
    let (rebuilt, merged) = merges(|| db.archive_from_log().unwrap());
    assert_eq!(merged, (n + deltas.iter().sum::<usize>()) as u64);
    assert_eq!(rebuilt.encode(), db.archive().encode());
}

#[test]
fn a_citation_rebuilds_one_entry_whatever_the_release_size() {
    let _g = serial();
    let mut cited = Vec::new();
    let mut whole = Vec::new();
    for n in [1_000, 8_000] {
        let mut db = loaded(n);
        let v = db.publish("r0").unwrap();
        edit(&mut db, 17, n as u64);
        db.publish("r1").unwrap();
        let (citation, nodes) = counted("archive.read.nodes", || db.cite(v, &key(7)).unwrap());
        assert_eq!(citation.title, key(7));
        cited.push(nodes);
        let (_, nodes) = counted("archive.read.nodes", || db.version(v).unwrap());
        whole.push(nodes);
    }
    assert!(cited[0] > 0);
    assert_eq!(
        cited[0], cited[1],
        "a citation at 1 000 and at 8 000 entries"
    );
    let ratio = whole[1] as f64 / whole[0] as f64;
    assert!((7.5..=8.5).contains(&ratio), "whole versions {whole:?}");
}

#[test]
fn provenance_reads_of_one_entry_are_flat_in_the_log() {
    use cdb_curation::queries::{curators_of, last_modified};
    let _g = serial();
    let mut reads = Vec::new();
    for n in [1_000, 8_000] {
        for others in [100, 1_000] {
            let mut db = loaded(n);
            let mut t = n as u64;
            for _ in 0..5 {
                t += 1;
                db.edit_field("c", t, &key(3), "gn", Atom::Int(t as i64))
                    .unwrap();
            }
            for i in 0..others {
                t += 1;
                db.edit_field("c", t, &key(4 + i % 900), "os", Atom::Int(t as i64))
                    .unwrap();
            }
            let node = db.entry_node(&key(3)).unwrap();
            let (_, read) = counted("curation.prov.touches_read", || {
                last_modified(&db.curated, node).unwrap();
                curators_of(&db.curated, node).unwrap();
            });
            reads.push(read);
        }
    }
    assert!(reads[0] > 0);
    assert!(
        reads.iter().all(|&r| r == reads[0]),
        "touches read at 1 000 / 8 000 entries × 1× / 10× other edits: {reads:?}"
    );
}

/// An in-memory device that counts the bytes read from it. Clones
/// share the bytes and the count, so a test can reopen what a dropped
/// database wrote.
#[derive(Debug, Clone, Default)]
struct ReadCounting {
    io: Arc<Mutex<MemIo>>,
    read: Arc<AtomicU64>,
}

impl Io for ReadCounting {
    fn len(&self) -> Result<u64, StorageError> {
        self.io.lock().unwrap().len()
    }
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, StorageError> {
        let n = self.io.lock().unwrap().read_at(offset, buf)?;
        self.read.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
    fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.io.lock().unwrap().append(bytes)
    }
    fn flush(&mut self) -> Result<(), StorageError> {
        self.io.lock().unwrap().flush()
    }
    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        self.io.lock().unwrap().truncate(len)
    }
}

/// Under `KeepAll` the reopened log holds every publish point: each
/// open merges the first release whole and then each point's delta —
/// what `archive_from_log` merges — and the first publish after the
/// open merges the k entries edited since the last point, at 1 000
/// entries and at 8 000.
#[test]
fn a_keep_all_reopen_merges_what_changed() {
    let _g = serial();
    for n in [1_000, 8_000] {
        let [wal, s1, s2] = std::array::from_fn(|_| ReadCounting::default());
        let open = || {
            let dev = |d: &ReadCounting| Box::new(d.clone()) as Box<dyn Io>;
            let slots = CheckpointStore::slots(dev(&s1), dev(&s2));
            let mut db = CuratedDatabase::open("count", "ac", dev(&wal), slots).unwrap();
            db.set_durability(Durability::Batched);
            db
        };
        let mut db = open();
        for i in 0..n {
            let fields = [("gn", Atom::Int(i as i64 % 7)), ("os", Atom::Int(1))];
            db.add_entry("c", i as u64, &key(i), &fields).unwrap();
        }
        db.publish("r0").unwrap();
        let deltas = [3usize, 0, 17];
        let mut opened = Vec::new();
        for (round, k) in deltas.into_iter().enumerate() {
            edit(&mut db, k, (n + 1000 * round) as u64);
            db.publish(format!("r{}", round + 1)).unwrap();
            db.sync().unwrap();
            let live = db.archive().encode();
            drop(db);
            let (reopened, at_open) = merges(open);
            db = reopened;
            let (rebuilt, from_log) = merges(|| db.archive_from_log().unwrap());
            assert_eq!(at_open, from_log, "{n} entries, open {round}");
            assert_eq!(db.archive().encode(), live, "{n} entries, open {round}");
            assert_eq!(rebuilt.encode(), live, "{n} entries, open {round}");
            opened.push(at_open);
        }
        let whole_then_deltas: Vec<u64> = (1..=deltas.len())
            .map(|points| (n + deltas[..points].iter().sum::<usize>()) as u64)
            .collect();
        assert_eq!(
            opened, whole_then_deltas,
            "{n} entries: merged by each open"
        );
        let k = 64;
        edit(&mut db, k, (n + 10_000) as u64);
        let (_, merged) = merges(|| db.publish("after").unwrap());
        assert_eq!(merged, k as u64, "{n} entries, {k} edited after a reopen");
    }
}

/// A checkpoint under `KeepAll` is a sync: the WAL holds the whole log,
/// so it writes neither the checkpoint store nor the page heap, at
/// 1 000 entries and at 8 000. Under `Reclaim` it writes the store,
/// and the heap when paged.
#[test]
fn a_keep_all_checkpoint_writes_no_checkpoint_or_heap_byte() {
    let _g = serial();
    for n in [1_000, 8_000] {
        for paged in [false, true] {
            for retention in [Retention::KeepAll, Retention::Reclaim] {
                let [s1, s2, heap] = std::array::from_fn(|_| ReadCounting::default());
                let dev = |d: &ReadCounting| Box::new(d.clone()) as Box<dyn Io>;
                let wal = Box::new(MemIo::new());
                let slots = CheckpointStore::slots(dev(&s1), dev(&s2));
                let mut db = if paged {
                    CuratedDatabase::open_paged("count", "ac", wal, slots, dev(&heap), 0)
                } else {
                    CuratedDatabase::open("count", "ac", wal, slots)
                }
                .unwrap();
                db.set_retention(retention);
                db.set_durability(Durability::Batched);
                for i in 0..n {
                    let fields = [("gn", Atom::Int(i as i64 % 7)), ("os", Atom::Int(1))];
                    db.add_entry("c", i as u64, &key(i), &fields).unwrap();
                }
                db.publish("r0").unwrap();
                let lens = || [&s1, &s2, &heap].map(|d| d.len().unwrap());
                let before = lens();
                db.checkpoint().unwrap();
                let after = lens();
                let ckpt = after[0] + after[1] - before[0] - before[1];
                let heap = after[2] - before[2];
                let at = format!("{n} entries, paged {paged}, {retention:?}");
                if retention == Retention::KeepAll {
                    assert_eq!((ckpt, heap), (0, 0), "{at}");
                } else {
                    assert!(ckpt > 0, "{at}");
                    assert_eq!(heap > 0, paged, "{at}");
                }
            }
        }
    }
}

/// The second checkpoint under `Reclaim` appends what 10 edits changed
/// and reads nothing back from the heap. (The `stress` feature reads
/// every capture back to check it.)
#[test]
#[cfg_attr(feature = "stress", ignore = "stress reads every capture back")]
fn a_paged_checkpoint_after_k_edits_reads_no_heap_bytes() {
    let mut captured = Vec::new();
    for n in [1_000, 8_000] {
        let heap = ReadCounting::default();
        let read = heap.read.clone();
        let wal = Box::new(MemIo::new());
        let ckpt = CheckpointStore::mem();
        let mut db =
            CuratedDatabase::open_paged("count", "ac", wal, ckpt, Box::new(heap), 0).unwrap();
        db.set_retention(Retention::Reclaim);
        db.set_durability(Durability::Batched);
        for i in 0..n {
            let fields = [("gn", Atom::Int(i as i64 % 7)), ("os", Atom::Int(1))];
            db.add_entry("c", i as u64, &key(i), &fields).unwrap();
        }
        db.checkpoint().unwrap();
        let page_captured =
            |db: &CuratedDatabase| db.metrics().counter("storage.page.captured").get();
        let before = (read.load(Ordering::Relaxed), page_captured(&db));
        for i in 0..10 {
            let at = (n + i) as u64;
            db.edit_field("c", at, &key(i * 7), "gn", Atom::Int(at as i64))
                .unwrap();
        }
        db.checkpoint().unwrap();
        let read_bytes = read.load(Ordering::Relaxed) - before.0;
        assert_eq!(
            read_bytes, 0,
            "{n} entries: heap bytes read by the second checkpoint"
        );
        captured.push(page_captured(&db) - before.1);
    }
    assert!(captured[0] > 0);
    assert_eq!(
        captured[0], captured[1],
        "slots captured at 1 000 and at 8 000 entries"
    );
}

/// Reopening a paged database reads the heap once: at most 1.1× its
/// length, at 1 000 entries and at 8 000, with superseded records from
/// a second checkpoint under `Reclaim` in it.
#[test]
fn a_paged_open_reads_the_heap_once() {
    for n in [1_000, 8_000] {
        let [wal, s1, s2, heap] = std::array::from_fn(|_| ReadCounting::default());
        let open = || {
            let dev = |d: &ReadCounting| Box::new(d.clone()) as Box<dyn Io>;
            let slots = CheckpointStore::slots(dev(&s1), dev(&s2));
            CuratedDatabase::open_paged("count", "ac", dev(&wal), slots, dev(&heap), 0).unwrap()
        };
        let mut db = open();
        db.set_retention(Retention::Reclaim);
        db.set_durability(Durability::Batched);
        for i in 0..n {
            let fields = [("gn", Atom::Int(i as i64 % 7)), ("os", Atom::Int(1))];
            db.add_entry("c", i as u64, &key(i), &fields).unwrap();
        }
        db.checkpoint().unwrap();
        edit(&mut db, 10, n as u64);
        db.checkpoint().unwrap();
        drop(db);
        let before = heap.read.load(Ordering::Relaxed);
        let db = open();
        let read = heap.read.load(Ordering::Relaxed) - before;
        let len = heap.len().unwrap();
        assert!(db.recovery_stats().unwrap().used_checkpoint);
        assert_eq!(
            db.metrics().counter("storage.page.anchor_unusable").get(),
            0
        );
        assert!(
            read as f64 <= 1.1 * len as f64,
            "{n} entries: an open read {read} bytes of a {len}-byte heap"
        );
    }
}

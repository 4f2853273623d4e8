//! Counted, not timed: how much work a publish does, read from the
//! `archive.merge.entries` counter (entries handed to the archive's
//! per-entry merge step), so the bound holds on any machine.
//!
//! - A publish after k edits merges exactly k entries, at 1 000 entries
//!   and at 8 000.
//! - `archive_from_log` merges every entry once, at the first publish
//!   point, and after that only each segment's delta.

use std::sync::{Mutex, MutexGuard};

use cdb_core::CuratedDatabase;
use cdb_model::Atom;

/// The counter is process-global: one test at a time reads it.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn merged() -> u64 {
    cdb_obs::global().counter("archive.merge.entries").get()
}

/// What `op` adds to the counter.
fn merges<T>(op: impl FnOnce() -> T) -> (T, u64) {
    let before = merged();
    let out = op();
    (out, merged() - before)
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

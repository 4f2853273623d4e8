//! E17 — commit throughput under group commit, and snapshot read
//! latency under write load (see EXPERIMENTS.md).
//!
//! Hand-rolled harness (the criterion-shim `Bencher` model is
//! single-threaded; this experiment is about threads), recording rows
//! through [`criterion::push_record`] so the results land in
//! `BENCH_commit_throughput.json` like every other experiment.
//!
//! Two measurements:
//!
//! 1. **Commit throughput** — ops/s for a single writer syncing every
//!    commit (`Durability::Always`, the PR-2 path) versus N concurrent
//!    writers over [`SharedDb`] group commit, across batch windows.
//!    The device is a [`ThrottledIo`] charging a fixed latency per
//!    sync, so the measured ratios reflect the batching protocol
//!    rather than the host filesystem's fsync cost (tmpfs would make
//!    syncs nearly free and the comparison meaningless); a real-file
//!    pair of rows is included for reference.
//! 2. **Snapshot read latency** — p50/p99 of `snapshot()` + a view
//!    query, on an idle database and again with 4 writers committing
//!    concurrently. Snapshot isolation should keep the two within
//!    noise of each other.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use cdb_core::{CuratedDatabase, SharedDb};
use cdb_model::Atom;
use cdb_storage::{FileIo, Io, MemIo, ThrottledIo};
use criterion::{push_record, smoke_mode, write_json_report, Record};

/// Simulated device sync latency — the regime group commit targets
/// (a commodity SSD fdatasync is ~0.5–2 ms).
const SYNC_LATENCY: Duration = Duration::from_millis(3);

/// Entries pre-seeded before the timed loop. The timed commits are
/// `edit_field` over these keys, so the workload is stationary: the
/// database stays the same size throughout and neither path's
/// per-commit CPU cost drifts as the run progresses.
const SEED_KEYS: u64 = 16;

fn throttled_dev() -> Box<dyn Io> {
    Box::new(ThrottledIo::new(MemIo::new(), SYNC_LATENCY))
}

fn seed_key(i: u64) -> String {
    format!("K{}", i % SEED_KEYS)
}

/// Single writer, sync at every commit — the PR-2 baseline.
fn always_throughput(dev: Box<dyn Io>, commits: u64) -> f64 {
    let mut db =
        CuratedDatabase::open("bench", "id", dev, cdb_storage::CheckpointStore::mem()).unwrap();
    for i in 0..SEED_KEYS {
        db.add_entry("seed", i, &seed_key(i), &[("v", Atom::Int(0))])
            .unwrap();
    }
    let start = Instant::now();
    for i in 0..commits {
        db.edit_field("w", SEED_KEYS + i, &seed_key(i), "v", Atom::Int(i as i64))
            .unwrap();
    }
    commits as f64 / start.elapsed().as_secs_f64()
}

/// N writers over `SharedDb` group commit at the given batch window.
fn group_throughput(dev: Box<dyn Io>, writers: u64, window: Duration, per_writer: u64) -> f64 {
    let db = SharedDb::open(
        "bench",
        "id",
        dev,
        cdb_storage::CheckpointStore::mem(),
        window,
    )
    .unwrap();
    for i in 0..SEED_KEYS {
        db.add_entry("seed", i, &seed_key(i), &[("v", Atom::Int(0))])
            .unwrap();
    }
    let start = Instant::now();
    let handles: Vec<_> = (0..writers)
        .map(|w| {
            let db = db.clone();
            thread::spawn(move || {
                for i in 0..per_writer {
                    db.edit_field(
                        "w",
                        1_000_000 * (w + 1) + i,
                        &seed_key(w + i * writers),
                        "v",
                        Atom::Int(i as i64),
                    )
                    .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    (writers * per_writer) as f64 / start.elapsed().as_secs_f64()
}

/// One read sample: take a snapshot, build the relational view over
/// every entry, then read a window of fields — a realistic serving
/// query, not a mutex microbenchmark, so the percentiles measure the
/// serving layer rather than scheduler jitter (the benches run on
/// small hosts where a sub-µs read's p99 is pure preemption noise).
const READS_PER_SAMPLE: usize = 25;

/// Samples snapshot reads, returning (p50, p99) in ns per sample.
fn read_latency(db: &SharedDb, keys: &[String], samples: usize) -> (u128, u128) {
    let mut times: Vec<u128> = Vec::with_capacity(samples);
    for i in 0..samples {
        let start = Instant::now();
        let snap = db.snapshot();
        let rel = cdb_core::views::entry_relation(&snap, &["v"]).unwrap();
        std::hint::black_box(rel.len());
        let colored = cdb_core::views::colored_entry_relation(&snap, &["v"]).unwrap();
        std::hint::black_box(colored.tuples().len());
        for j in 0..READS_PER_SAMPLE {
            let key = &keys[(i + j) % keys.len()];
            let _ = std::hint::black_box(snap.field(key, "v"));
        }
        times.push(start.elapsed().as_nanos());
    }
    times.sort();
    (times[times.len() / 2], times[times.len() * 99 / 100])
}

fn ops_row(op: &str, ops_per_s: f64, threads: u64, window: Option<Duration>, commits: u64) {
    eprintln!("  {op:<40} {ops_per_s:>10.0} commits/s");
    push_record(Record {
        op: op.to_owned(),
        ns_per_iter: (1e9 / ops_per_s) as u128,
        samples: commits as usize,
        iters_per_sample: 1,
        threads: Some(threads),
        batch_window_us: window.map(|w| w.as_micros() as u64),
        ..Record::default()
    });
}

fn latency_row(op: &str, ns: u128, threads: u64, samples: usize) {
    eprintln!("  {op:<40} {:>10.3?}", Duration::from_nanos(ns as u64));
    push_record(Record {
        op: op.to_owned(),
        ns_per_iter: ns,
        samples,
        iters_per_sample: 1,
        threads: Some(threads),
        ..Record::default()
    });
}

fn bench_commit_throughput(per_writer_base: u64) {
    eprintln!("\n== e17: commit throughput (simulated {SYNC_LATENCY:?} sync) ==");
    let baseline = always_throughput(throttled_dev(), per_writer_base * 4);
    ops_row(
        "e17_commit/always/w1",
        baseline,
        1,
        None,
        per_writer_base * 4,
    );
    for writers in [1u64, 2, 4] {
        for window_us in [0u64, 100, 500] {
            let window = Duration::from_micros(window_us);
            let per_writer = per_writer_base * 4 / writers;
            let ops = group_throughput(throttled_dev(), writers, window, per_writer);
            ops_row(
                &format!("e17_commit/group/w{writers}/win{window_us}us"),
                ops,
                writers,
                Some(window),
                writers * per_writer,
            );
        }
    }

    // Reference rows on a real file (host-dependent; the simulated
    // rows above are the comparable series).
    let dir = std::env::temp_dir().join(format!("cdb-e17-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file_dev = |name: &str| -> Box<dyn Io> { Box::new(FileIo::open(dir.join(name)).unwrap()) };
    let base_file = always_throughput(file_dev("always.wal"), per_writer_base * 2);
    ops_row(
        "e17_commit/file/always/w1",
        base_file,
        1,
        None,
        per_writer_base * 2,
    );
    let group_file = group_throughput(
        file_dev("group.wal"),
        4,
        Duration::from_micros(100),
        per_writer_base / 2,
    );
    ops_row(
        "e17_commit/file/group/w4/win100us",
        group_file,
        4,
        Some(Duration::from_micros(100)),
        per_writer_base * 2,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_read_latency(samples: usize) {
    eprintln!("\n== e17: snapshot read latency (idle vs 4 writers) ==");
    const ENTRIES: usize = 100;
    let db = SharedDb::open(
        "bench",
        "id",
        throttled_dev(),
        cdb_storage::CheckpointStore::mem(),
        Duration::from_micros(100),
    )
    .unwrap();
    let keys: Vec<String> = (0..ENTRIES).map(|i| format!("K{i}")).collect();
    for (i, key) in keys.iter().enumerate() {
        db.add_entry("seed", i as u64, key, &[("v", Atom::Int(i as i64))])
            .unwrap();
    }

    let (p50, p99) = read_latency(&db, &keys, samples);
    latency_row("e17_read/idle/p50", p50, 0, samples);
    latency_row("e17_read/idle/p99", p99, 0, samples);

    // Writers pace themselves like interactive curators rather than
    // spinning flat out: each edits, waits for its commit to be acked,
    // then pauses. A tight loop on a small host measures CPU
    // starvation of the reader, not the serving layer.
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..4)
        .map(|w| {
            let db = db.clone();
            let stop = stop.clone();
            let keys = keys.clone();
            thread::spawn(move || {
                let mut t = 1_000_000 * (w + 1);
                let mut i = w as usize;
                while !stop.load(Ordering::Relaxed) {
                    t += 1;
                    i = (i + 7) % keys.len();
                    db.edit_field("w", t, &keys[i], "v", Atom::Int(t as i64))
                        .unwrap();
                    thread::sleep(Duration::from_millis(6));
                }
            })
        })
        .collect();
    // Let the write load reach steady state before sampling.
    thread::sleep(Duration::from_millis(if smoke_mode() { 1 } else { 50 }));
    let (p50w, p99w) = read_latency(&db, &keys, samples);
    stop.store(true, Ordering::Relaxed);
    for h in writers {
        h.join().unwrap();
    }
    latency_row("e17_read/under_4_writers/p50", p50w, 4, samples);
    latency_row("e17_read/under_4_writers/p99", p99w, 4, samples);
    let m = db.metrics();
    eprintln!(
        "  group stats: {} batches, {} frames, max batch {}",
        m.counter("storage.group.batches").get(),
        m.counter("storage.group.frames_synced").get(),
        m.gauge("storage.group.max_batch").get()
    );
}

fn main() {
    let (per_writer, samples) = if smoke_mode() { (3, 50) } else { (100, 2_000) };
    bench_commit_throughput(per_writer);
    bench_read_latency(samples);
    write_json_report("commit_throughput", env!("CARGO_MANIFEST_DIR"));
}

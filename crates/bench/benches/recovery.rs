//! E16/E19 — durable WAL: recovery cost vs checkpoint policy.
//!
//! **E16** (single-file log): a curation session from `cdb-workload`
//! is written as a WAL image; the bench then times full recovery
//! (scan + decode + replay + verify) with no checkpoint and with
//! checkpoints taken every 64 / 16 transactions (recovery loads the
//! *last* checkpoint and replays only the tail), plus raw append+sync
//! throughput.
//!
//! **E19** (segmented log): history grows 16× across three sizes; with
//! no checkpoint, recovery replays the whole log and its cost grows
//! linearly, while with periodic checkpoints plus
//! [`Retention::Reclaim`] truncation the covered segments are deleted
//! and recovery stays flat — it scans only the live tail. Each row
//! records the live-segment count in the `segments` field of
//! `BENCH_recovery.json`.
//!
//! Prints a one-shot table of image size and recovery stats before the
//! timed samples; the measurements land in `BENCH_recovery.json`.

use std::hint::black_box;
use std::sync::Once;
use std::time::Instant;

use cdb_curation::ops::CuratedTree;
use cdb_curation::provstore::StoreMode;
use cdb_curation::replay::apply_committed;
use cdb_curation::wire::Checkpoint;
use cdb_model::Atom;
use cdb_storage::{
    encode_commit, recover, DurableLog, MemBacking, MemIo, Retention, SegmentConfig, SegmentedIo,
    FRAME_COMMIT,
};
use cdb_workload::sessions::{CurationSim, SessionConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Record};

static REPORT: Once = Once::new();

fn session(txns: usize) -> CuratedTree {
    let mut sim = CurationSim::new(
        0xD0_0B,
        StoreMode::Hereditary,
        SessionConfig {
            source_entries: 8,
            fields_per_entry: 3,
            transactions: txns,
            pastes_per_txn: 2,
            edits_per_txn: 3,
            inserts_per_txn: 1,
        },
    );
    sim.run();
    sim.target
}

fn wal_image(db: &CuratedTree) -> Vec<u8> {
    let mut log = DurableLog::create(MemIo::new()).unwrap();
    for txn in db.transactions() {
        log.append(FRAME_COMMIT, &encode_commit(txn, &[])).unwrap();
    }
    log.sync().unwrap();
    log.into_io().bytes().to_vec()
}

/// The checkpoint a curator checkpointing every `interval` transactions
/// would hold at crash time: state after the last full interval
/// strictly before the crash (so there is always a tail to replay).
fn checkpoint_every(db: &CuratedTree, interval: usize) -> Checkpoint {
    let k = (db.log.len() - 1) / interval * interval;
    let mut snap = CuratedTree::new(db.tree.name(), StoreMode::Hereditary);
    for txn in db.log.iter().take(k) {
        apply_committed(&mut snap, txn).unwrap();
    }
    Checkpoint::basic(snap.last_txn_id(), snap.tree, snap.prov)
}

fn bench_recovery(c: &mut Criterion) {
    let txns: usize = if criterion::smoke_mode() { 12 } else { 250 };
    let db = session(txns);
    let image = wal_image(&db);

    cdb_bench::print_once(&REPORT, || {
        let (_, rec) = recover(
            "curated",
            StoreMode::Hereditary,
            MemIo::from_bytes(image.clone()),
            None,
        )
        .unwrap();
        eprintln!(
            "\n-- E16: {} txns, WAL image {} bytes, {} tree nodes --",
            txns,
            image.len(),
            rec.db.tree.size(),
        );
        eprintln!("full replay: {:?}", rec.stats);
        for interval in [64, 16] {
            if interval >= txns {
                continue;
            }
            let ck = checkpoint_every(&db, interval);
            let (_, rec) = recover(
                "curated",
                StoreMode::Hereditary,
                MemIo::from_bytes(image.clone()),
                Some(ck),
            )
            .unwrap();
            eprintln!("checkpoint every {interval}: {:?}", rec.stats);
        }
        eprintln!();
    });

    let mut g = c.benchmark_group("e16_recovery");
    g.sample_size(10);
    g.bench_with_input(BenchmarkId::new("replay_full", txns), &txns, |b, _| {
        b.iter_with_setup(
            || MemIo::from_bytes(image.clone()),
            |io| black_box(recover("curated", StoreMode::Hereditary, io, None).unwrap()),
        )
    });
    for interval in [64usize, 16] {
        if interval >= txns {
            continue;
        }
        let ck = checkpoint_every(&db, interval);
        g.bench_with_input(
            BenchmarkId::new(format!("replay_ckpt_every_{interval}"), txns),
            &txns,
            |b, _| {
                b.iter_with_setup(
                    || (MemIo::from_bytes(image.clone()), Some(ck.clone())),
                    |(io, ck)| {
                        black_box(recover("curated", StoreMode::Hereditary, io, ck).unwrap())
                    },
                )
            },
        );
    }
    // Raw log-append throughput: encode + append + one sync per txn.
    let frames: Vec<Vec<u8>> = db.log.iter().map(|t| encode_commit(t, &[])).collect();
    g.bench_with_input(BenchmarkId::new("append_sync", txns), &txns, |b, _| {
        b.iter_with_setup(
            || DurableLog::create(MemIo::new()).unwrap(),
            |mut log| {
                for f in &frames {
                    log.append(FRAME_COMMIT, f).unwrap();
                    log.sync().unwrap();
                }
                black_box(log.len().unwrap())
            },
        )
    });
    g.finish();
}

/// E19's curation workload: one setup transaction builds a fixed
/// 8-entry / 3-field tree, then every later transaction only *edits*
/// existing fields. The live tree (and the node arena) stay a constant
/// size while the history grows without bound — isolating exactly what
/// checkpoint-anchored truncation is supposed to bound. Hand-rolled
/// rather than `CurationSim` because the simulator's scratch notes
/// insert-and-delete nodes, which grows the arena with history.
fn e19_session(txns: usize) -> CuratedTree {
    let mut db = CuratedTree::new("curated", StoreMode::Naive);
    let root = db.tree.root();
    let mut t = db.begin("curator0", 0);
    let mut fields = Vec::new();
    for i in 0..8 {
        let entry = t.insert(root, format!("entry{i}"), None).expect("insert");
        for f in 0..3 {
            let field = t
                .insert(entry, format!("f{f}"), Some(Atom::Str("v".into())))
                .expect("insert");
            fields.push(field);
        }
    }
    t.commit();
    for k in 1..txns {
        let mut t = db.begin("curator", k as u64);
        for j in 0..4 {
            let node = fields[(k * 4 + j) % fields.len()];
            let _ = t.modify(node, Some(Atom::Str(format!("v{k}.{j}"))));
        }
        t.commit();
    }
    db
}

/// Builds a segmented durable history of `txns` transactions. With
/// `reclaim`, a v2 checkpoint (coverage watermark + truncated log) is
/// taken every 8 transactions and the covered segments are deleted;
/// without it, the log just grows. Returns the crash-surviving backing
/// plus the last installed checkpoint.
fn segmented_history(
    db: &CuratedTree,
    reclaim: bool,
    cfg: SegmentConfig,
) -> (MemBacking, Option<Checkpoint>) {
    let (io, backing) = SegmentedIo::mem(cfg).unwrap();
    let mut log = DurableLog::create(io).unwrap();
    let mut snap = CuratedTree::new(db.tree.name(), StoreMode::Naive);
    let mut ck = None;
    for (i, txn) in db.transactions().iter().enumerate() {
        log.append(FRAME_COMMIT, &encode_commit(txn, &[])).unwrap();
        apply_committed(&mut snap, txn).unwrap();
        if reclaim && (i + 1) % 8 == 0 {
            log.sync().unwrap();
            let covered = log.len().unwrap();
            let mut c = Checkpoint::basic(snap.last_txn_id(), snap.tree.clone(), snap.prov.clone());
            c.covered_len = Some(covered);
            ck = Some(c);
            log.reclaim(covered).unwrap();
        }
    }
    log.sync().unwrap();
    (backing, ck)
}

/// One timed recovery over a fresh crash image of `backing`. Returns
/// the wall time and the live-segment count recovery reported.
fn timed_recover(
    backing: &MemBacking,
    cfg: SegmentConfig,
    ck: &Option<Checkpoint>,
) -> (std::time::Duration, u64) {
    let io = SegmentedIo::open(Box::new(backing.crash()), cfg).unwrap();
    // The clone stands in for the checkpoint *load* (a deserialization
    // whose cost tracks state size, not history) — keep it outside the
    // timed window so the samples isolate scan + tail replay.
    let ck = ck.clone();
    let start = Instant::now();
    let (_, rec) = recover("curated", StoreMode::Naive, io, ck).unwrap();
    let elapsed = start.elapsed();
    black_box(&rec.db);
    (elapsed, rec.stats.live_segments)
}

/// E19 — does checkpoint-anchored truncation keep recovery flat as
/// history grows? Hand-rolled timing (each sample is one full
/// recovery), recorded via `push_record` so the `segments` column
/// lands in the JSON report.
fn bench_recovery_growth(_c: &mut Criterion) {
    let (base, samples) = if criterion::smoke_mode() {
        (8usize, 1usize)
    } else {
        (24, 10)
    };
    // Segments small enough that even the smallest size spans several,
    // so every row measures the bounded steady state: live tail ≤ 2
    // segments regardless of how much history came before.
    let cfg = SegmentConfig {
        segment_bytes: 1024,
        retention: Retention::Reclaim,
    };
    eprintln!("\n== bench group: e19_recovery_growth ==");
    for (variant, reclaim) in [("full_replay", false), ("ckpt_reclaim", true)] {
        for mult in [1usize, 4, 16] {
            let txns = base * mult;
            let (backing, ck) = segmented_history(&e19_session(txns), reclaim, cfg);
            let mut times = Vec::with_capacity(samples);
            let mut segments = 0;
            for _ in 0..samples {
                let (t, live) = timed_recover(&backing, cfg, &ck);
                times.push(t);
                segments = live;
            }
            times.sort();
            let median = times[times.len() / 2];
            eprintln!(
                "  e19_recovery_growth/{variant}/{txns:<28} median {median:>10.3?}  \
                 ({segments} live segments, {} bytes on device)",
                backing.live_bytes(),
            );
            criterion::push_record(Record {
                op: format!("e19_recovery_growth/{variant}/{txns}"),
                size: Some(txns as u64),
                ns_per_iter: median.as_nanos(),
                samples,
                iters_per_sample: 1,
                segments: Some(segments),
                ..Record::default()
            });
        }
    }
}

criterion_group!(benches, bench_recovery, bench_recovery_growth);
criterion_main!(benches);

//! E22 — sharded serving: write throughput at 1/2/4 shards, the
//! cross-shard 2PC transaction tax, and parallel vs sequential shard
//! recovery (see EXPERIMENTS.md).
//!
//! Hand-rolled harness (the criterion-shim `Bencher` model is
//! single-threaded), printing one row per measurement.
//!
//! Three measurements:
//!
//! 1. **Write throughput** — 4 concurrent writers editing keys spread
//!    uniformly over S ∈ {1, 2, 4} shards, twice: over plain `MemIo`
//!    (commit cost is the in-memory apply under the shard lock — the
//!    regime sharding parallelizes) and over [`ThrottledIo`] charging a
//!    3 ms sync (the regime group commit already collapses: every
//!    writer queued during a sync is acked by it, so per-shard WALs
//!    are expected to be roughly latency-neutral there — that
//!    *negative* result is part of the experiment).
//! 2. **Cross-shard tax** — `merge_entries` latency when both keys live
//!    on one shard (plain commit) vs on two (PREPARE×2 + DECIDE×2 2PC
//!    journaling).
//! 3. **Recovery** — wall-clock to recover 4 shard WALs sequentially
//!    (decision scan + `recover_with`, one thread) vs
//!    [`recover_shards`] (one OS thread per shard). The parallel row
//!    only wins on a multi-core host; on a single CPU it measures pure
//!    thread overhead (correctness equivalence is proven separately by
//!    the `parallel_shard_recovery_equals_sequential` proptest).

use std::thread;
use std::time::{Duration, Instant};

use cdb_core::{ShardMap, ShardedDb};
use cdb_curation::provstore::StoreMode;
use cdb_model::Atom;
use cdb_storage::{
    encode_commit, recover_shards, recover_with, scan_decisions, CheckpointStore, DurableLog, Io,
    MemIo, ThrottledIo, FRAME_COMMIT,
};
use cdb_workload::sessions::{CurationSim, SessionConfig};
use criterion::smoke_mode;

/// Simulated device sync latency for the throttled series (same regime
/// as E17).
const SYNC_LATENCY: Duration = Duration::from_millis(3);

const WRITERS: u64 = 4;

/// One printable prefix character per shard, found by probing the map.
fn shard_prefixes(map: &ShardMap) -> Vec<char> {
    (0..map.shards())
        .map(|s| {
            (0x21u8..0x7f)
                .map(|b| b as char)
                .find(|c| map.route(&c.to_string()) == s)
                .expect("every shard owns part of printable ASCII")
        })
        .collect()
}

fn durable_sharded(nshards: usize, throttled: bool, window: Duration) -> ShardedDb {
    let devices = (0..nshards)
        .map(|_| {
            let dev: Box<dyn Io> = if throttled {
                Box::new(ThrottledIo::new(MemIo::new(), SYNC_LATENCY))
            } else {
                Box::new(MemIo::new())
            };
            (dev, CheckpointStore::mem())
        })
        .collect();
    ShardedDb::open("bench", "id", ShardMap::uniform(nshards), devices, window).unwrap()
}

/// 4 writers editing pre-seeded keys striped over every shard; returns
/// ops/s.
fn sharded_write_throughput(db: &ShardedDb, per_writer: u64) -> f64 {
    let prefixes = shard_prefixes(db.map());
    let keys: Vec<String> = (0..16)
        .map(|i| format!("{}{:03}", prefixes[i % prefixes.len()], i))
        .collect();
    for (i, key) in keys.iter().enumerate() {
        db.add_entry("seed", i as u64, key, &[("v", Atom::Int(0))])
            .unwrap();
    }
    let start = Instant::now();
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let db = db.clone();
            let keys = keys.clone();
            thread::spawn(move || {
                for i in 0..per_writer {
                    // Stripe across shards so every WAL sees traffic.
                    let key = &keys[((w + i * WRITERS) as usize) % keys.len()];
                    db.edit_field("w", 1_000_000 * (w + 1) + i, key, "v", Atom::Int(i as i64))
                        .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    (WRITERS * per_writer) as f64 / start.elapsed().as_secs_f64()
}

fn ops_row(op: &str, ops_per_s: f64) {
    eprintln!("  {op:<44} {ops_per_s:>10.0} commits/s");
}

fn bench_write_scaling(per_writer: u64) {
    eprintln!("\n== e22: write throughput vs shard count (4 writers) ==");
    for &shards in &[1usize, 2, 4] {
        let db = durable_sharded(shards, false, Duration::ZERO);
        let ops = sharded_write_throughput(&db, per_writer);
        ops_row(&format!("e22_write/mem/shards/{shards}"), ops);
    }
    let throttled_per_writer = (per_writer / 4).max(2);
    for &shards in &[1usize, 2, 4] {
        let db = durable_sharded(shards, true, Duration::from_micros(100));
        let ops = sharded_write_throughput(&db, throttled_per_writer);
        ops_row(&format!("e22_write/throttled/shards/{shards}"), ops);
    }
}

/// Merge latency, same-shard vs cross-shard, on a durable 2-shard db.
fn bench_cross_shard_tax(pairs: u64) {
    eprintln!("\n== e22: cross-shard 2PC tax (merge latency, 2 shards) ==");
    let db = durable_sharded(2, false, Duration::ZERO);
    let p = shard_prefixes(db.map());
    let mut t = 0u64;
    let mut add = |key: &str| {
        t += 1;
        db.add_entry("seed", t, key, &[("v", Atom::Int(t as i64))])
            .unwrap();
    };
    for i in 0..pairs {
        add(&format!("{}same-a{i}", p[0]));
        add(&format!("{}same-b{i}", p[0]));
        add(&format!("{}cross-a{i}", p[0]));
        add(&format!("{}cross-b{i}", p[1]));
    }
    for (label, a, b) in [
        ("same_shard", "same-a", "same-b"),
        ("cross_shard", "cross-a", "cross-b"),
    ] {
        let start = Instant::now();
        for i in 0..pairs {
            t += 1;
            let (kept, absorbed) = (
                format!("{}{a}{i}", p[0]),
                format!("{}{b}{i}", p[if label == "cross_shard" { 1 } else { 0 }]),
            );
            db.merge_entries("m", t, &kept, &absorbed).unwrap();
        }
        let ns = start.elapsed().as_nanos() / pairs as u128;
        eprintln!(
            "  e22_cross/{label:<34} {:>10.3?}/merge",
            Duration::from_nanos(ns as u64)
        );
    }
}

/// One shard's WAL image: a `CurationSim` session of `txns`
/// transactions, framed and synced.
fn shard_image(seed: u64, txns: usize) -> Vec<u8> {
    let mut sim = CurationSim::new(
        seed,
        StoreMode::Hereditary,
        SessionConfig {
            source_entries: 3,
            fields_per_entry: 2,
            transactions: txns,
            pastes_per_txn: 1,
            edits_per_txn: 2,
            inserts_per_txn: 1,
        },
    );
    sim.run();
    let mut log = DurableLog::create(MemIo::new()).unwrap();
    for txn in sim.target.transactions() {
        log.append(FRAME_COMMIT, &encode_commit(txn, &[])).unwrap();
    }
    log.sync().unwrap();
    log.into_io().bytes().to_vec()
}

fn bench_parallel_recovery(txns_per_shard: usize) {
    eprintln!("\n== e22: parallel vs sequential shard recovery (4 shards) ==");
    const SHARDS: usize = 4;
    let images: Vec<Vec<u8>> = (0..SHARDS)
        .map(|i| shard_image(7 + i as u64 * 7919, txns_per_shard))
        .collect();

    let row = |op: &str, elapsed: Duration| eprintln!("  {op:<44} {elapsed:>10.3?}");

    // Sequential: the same two phases recover_shards runs, one thread.
    let ios: Vec<MemIo> = images
        .iter()
        .map(|im| MemIo::from_bytes(im.clone()))
        .collect();
    let start = Instant::now();
    let mut ctx = std::collections::BTreeMap::new();
    let mut seq_txns = 0u64;
    for mut io in ios {
        ctx.extend(scan_decisions(&mut io).unwrap());
        let (_, rec) = recover_with("bench", StoreMode::Hereditary, io, None, &ctx).unwrap();
        seq_txns += rec.db.log().len() as u64;
    }
    row("e22_recovery/sequential", start.elapsed());

    // Parallel: one OS thread per shard.
    let shards: Vec<(MemIo, _)> = images
        .iter()
        .map(|im| (MemIo::from_bytes(im.clone()), None))
        .collect();
    let start = Instant::now();
    let out = recover_shards("bench", StoreMode::Hereditary, shards, &Default::default()).unwrap();
    row("e22_recovery/parallel", start.elapsed());
    let par_txns: u64 = out.iter().map(|(_, r)| r.db.log().len() as u64).sum();
    assert_eq!(seq_txns, par_txns, "both paths must replay the same log");
    eprintln!("  ({par_txns} transactions replayed per path)");
}

fn main() {
    let (per_writer, pairs, txns) = if smoke_mode() {
        (3, 2, 2)
    } else {
        (500, 64, 320)
    };
    bench_write_scaling(per_writer);
    bench_cross_shard_tax(pairs);
    bench_parallel_recovery(txns);
}

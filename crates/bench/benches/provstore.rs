//! E6 — §3.1's provenance-store cost claims.
//!
//! Regenerates the storage comparison (naive per-node trail vs
//! hereditary provenance) and the transaction-squashing compression
//! ratio, and measures the time cost of running curation sessions under
//! each store mode plus the provenance-query latency.

use std::sync::Once;

use cdb_bench::print_once;
use cdb_curation::provstore::{squash, StoreMode};
use cdb_curation::queries;
use cdb_workload::sessions::{CurationSim, SessionConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

static TABLE: Once = Once::new();

fn cfg(transactions: usize) -> SessionConfig {
    SessionConfig {
        source_entries: 200,
        fields_per_entry: 12,
        transactions,
        pastes_per_txn: 4,
        edits_per_txn: 6,
        inserts_per_txn: 1,
    }
}

fn table() {
    println!("\n=== E6: provenance store size vs curation volume ===");
    println!(
        "{:<8} {:>10} {:>14} {:>14} {:>14} {:>14} {:>10}",
        "txns", "nodes", "naive recs", "naive B", "hered recs", "hered B", "squash"
    );
    for txns in [10usize, 40, 160] {
        let mut naive = CurationSim::new(1, StoreMode::Naive, cfg(txns));
        let mut hered = CurationSim::new(1, StoreMode::Hereditary, cfg(txns));
        naive.run();
        hered.run();
        let raw: usize = hered.target.log().iter().map(|t| t.ops.len()).sum();
        let squashed: usize = hered
            .target
            .log()
            .iter()
            .map(|t| squash(&t.ops).len())
            .sum();
        println!(
            "{:<8} {:>10} {:>14} {:>14} {:>14} {:>14} {:>9.0}%",
            txns,
            hered.target.tree.size(),
            naive.target.prov.record_count(),
            naive.target.prov.encoded_size(),
            hered.target.prov.record_count(),
            hered.target.prov.encoded_size(),
            100.0 * squashed as f64 / raw as f64,
        );
    }
    println!();
}

fn bench_sessions(c: &mut Criterion) {
    print_once(&TABLE, table);
    let mut g = c.benchmark_group("e6_curation_sessions");
    for mode in [StoreMode::Naive, StoreMode::Hereditary] {
        g.bench_with_input(
            BenchmarkId::new("run_40_txns", format!("{mode:?}")),
            &mode,
            |b, &mode| {
                b.iter(|| {
                    let mut sim = CurationSim::new(3, mode, cfg(40));
                    sim.run();
                    black_box(sim.target.prov.record_count())
                })
            },
        );
    }
    g.finish();
}

fn bench_queries(c: &mut Criterion) {
    let mut sim = CurationSim::new(5, StoreMode::Hereditary, cfg(80));
    sim.run();
    let entry = sim.pasted_roots()[sim.pasted_roots().len() / 2];
    // A leaf under that entry exercises the hereditary ancestor walk.
    let leaf = sim.target.tree.children(entry).unwrap()[0];

    let mut g = c.benchmark_group("e6_provenance_queries");
    g.bench_function("how_arrived_leaf", |b| {
        b.iter(|| black_box(queries::how_arrived(&sim.target, leaf)))
    });
    g.bench_function("when_created", |b| {
        b.iter(|| black_box(queries::when_created(&sim.target, leaf)))
    });
    g.bench_function("history_scan", |b| {
        b.iter(|| black_box(queries::history(&sim.target, entry).len()))
    });
    g.bench_function("squash_all_txns", |b| {
        b.iter(|| {
            let total: usize = sim.target.log().iter().map(|t| squash(&t.ops).len()).sum();
            black_box(total)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_sessions, bench_queries);
criterion_main!(benches);

//! E21 — larger-than-memory paging: hit rate vs read latency as the
//! working set sweeps past the buffer pool.
//!
//! A fixed-capacity [`BufferPool`] (64 frames, `CDB_TEST_POOL_PAGES`
//! overrides) serves page reads from heaps holding 0.5× to 8× the
//! pool's capacity in pages. Two access patterns per size:
//!
//! * `read_uniform` — uniform random pages: the adversarial case; the
//!   hit rate should track `pool/working_set` and the latency should
//!   degrade smoothly with the miss rate — a gentle slope, not a
//!   cliff, because a miss is one `read_at` against the page table,
//!   never a rescan;
//! * `read_hot` — 90% of reads over a hot tenth of the pages
//!   (curation sessions revisit the entries under edit): the pool
//!   keeps the hot set resident and the hit rate stays high even at
//!   8× memory pressure.
//!
//! Every printed row shows the observed hit rate alongside the
//! latency, so the table shows the degradation curve directly
//! (EXPERIMENTS.md E21).

use std::hint::black_box;
use std::time::Instant;

use cdb_obs::Metrics;
use cdb_storage::{pool_pages_from_env, BufferPool, MemIo, PageStore};
use criterion::{criterion_group, criterion_main, Criterion};

fn lcg(r: &mut u64) -> u64 {
    *r = r
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *r >> 33
}

/// A heap of `pages` pages with distinct, recognizable payloads.
fn heap(pages: u64, payload: usize) -> PageStore<MemIo> {
    let mut store = PageStore::open(MemIo::new(), None).unwrap();
    for p in 0..pages {
        let mut body = vec![0u8; payload];
        body[..8].copy_from_slice(&p.to_le_bytes());
        store.write_page(p, &body).unwrap();
    }
    store
}

fn bench_paging(_c: &mut Criterion) {
    let pool_pages = pool_pages_from_env(64);
    let (reads, samples) = if criterion::smoke_mode() {
        (256usize, 1usize)
    } else {
        (20_000, 10)
    };
    let payload = 512usize;
    eprintln!("\n== bench group: e21_paging (pool {pool_pages} frames, {payload}-byte pages) ==");
    for (pattern, hot) in [("read_uniform", false), ("read_hot", true)] {
        // Working set as a multiple of the pool: ×0.5 (fits twice
        // over) through ×8 (heavy eviction churn).
        for num in [pool_pages as u64 / 2, 1, 2, 4, 8]
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                if i == 0 {
                    m.max(1)
                } else {
                    m * pool_pages as u64
                }
            })
        {
            let pages = num;
            let mut times = Vec::with_capacity(samples);
            let mut hit_rate = 1.0f64;
            for s in 0..samples {
                let metrics = Metrics::new();
                let mut pool = BufferPool::new(heap(pages, payload), pool_pages, &metrics);
                let mut r = 0x5EED ^ ((s as u64) << 32) ^ pages;
                // Warm the pool with one pass so the steady state is
                // measured, not the cold fill.
                for p in 0..pages.min(pool_pages as u64) {
                    black_box(pool.get(p).unwrap());
                }
                let warm = pool.stats();
                let start = Instant::now();
                for _ in 0..reads {
                    let p = if hot && lcg(&mut r) % 10 < 9 {
                        lcg(&mut r) % (pages / 10).max(1)
                    } else {
                        lcg(&mut r) % pages
                    };
                    black_box(pool.get(p).unwrap());
                }
                times.push(start.elapsed() / reads as u32);
                let end = pool.stats();
                let (h, m) = (end.hits - warm.hits, end.misses - warm.misses);
                hit_rate = h as f64 / (h + m).max(1) as f64;
            }
            times.sort();
            let median = times[times.len() / 2];
            eprintln!(
                "  e21_paging/{pattern}/{pages:<8} median {median:>9.1?}/read  \
                 hit rate {hit_rate:.3}  ({:.1}x pool)",
                pages as f64 / pool_pages as f64,
            );
        }
    }
}

criterion_group!(benches, bench_paging);
criterion_main!(benches);

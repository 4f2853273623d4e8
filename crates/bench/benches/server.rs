//! E20 — network serving layer: throughput and latency versus
//! connection count over real TCP, closed- and open-loop, and the
//! admission-control knee (see EXPERIMENTS.md).
//!
//! Hand-rolled harness (the criterion-shim `Bencher` model is
//! single-threaded; this experiment is about concurrent connections).
//! It prints one row per sweep point.
//!
//! Two sweeps:
//!
//! 1. **Closed loop** — N connections, each issuing the next request
//!    only after the previous response (think interactive curators).
//!    The server is sized to fit (`slots > conns`), so nothing sheds;
//!    the curve shows how per-request latency and aggregate
//!    throughput scale with connections.
//! 2. **Open loop** — the same sweep but against a server pinned to
//!    `OPEN_LOOP_SLOTS` admission slots, clients *not* retrying: a
//!    shed request is counted and the client moves on, so offered
//!    load keeps rising past what the server admits. Past the knee
//!    the shed count climbs while the p99 of *admitted* requests
//!    stays bounded — that is the point of load-shedding, and the
//!    `shed` column shows it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use cdb_core::SharedDb;
use cdb_model::Atom;
use cdb_server::{Client, ClientError, Request, Response, Server, ServerConfig};
use cdb_storage::{CheckpointStore, MemIo};
use criterion::smoke_mode;

/// Keys pre-seeded before the timed loop; timed requests are edits
/// over these, so the database size is stationary throughout.
const SEED_KEYS: u64 = 16;

/// Admission slots for the open-loop sweep — deliberately small so
/// the connection sweep crosses the knee.
const OPEN_LOOP_SLOTS: usize = 2;

fn serve(conns: usize, slots: usize) -> (SharedDb, Server) {
    let db = SharedDb::open(
        "bench",
        "id",
        Box::new(MemIo::new()),
        CheckpointStore::mem(),
        Duration::from_micros(100),
    )
    .unwrap();
    for i in 0..SEED_KEYS {
        db.add_entry("seed", i, &format!("K{i}"), &[("v", Atom::Int(0))])
            .unwrap();
    }
    let server = Server::bind(
        db.clone(),
        "127.0.0.1:0",
        ServerConfig {
            workers: conns + 1,
            slots,
            retry_hint_ms: 1,
        },
    )
    .unwrap();
    (db, server)
}

fn edit_req(conn: usize, i: u64) -> Request {
    Request::Edit {
        curator: format!("c{conn}"),
        time: 1_000_000 * (conn as u64 + 1) + i,
        key: format!("K{}", (conn as u64 + i) % SEED_KEYS),
        field: "v".to_string(),
        value: Atom::Int(i as i64),
    }
}

struct SweepPoint {
    ops_per_s: f64,
    p50_ns: u128,
    p99_ns: u128,
    shed: u64,
    done: u64,
}

/// Runs `conns` TCP clients for `per_conn` requests each. Closed loop
/// when `retry` is true (shed requests are retried until admitted);
/// open loop when false (a shed request is counted and skipped).
fn sweep(conns: usize, per_conn: u64, slots: usize, retry: bool) -> SweepPoint {
    let (db, server) = serve(conns, slots);
    let addr = server.local_addr().to_string();
    let shed_seen = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let handles: Vec<_> = (0..conns)
        .map(|c| {
            let addr = addr.clone();
            let shed_seen = shed_seen.clone();
            thread::spawn(move || {
                let mut client = Client::dial(&addr).expect("dial bench server");
                client.hello(&format!("bench{c}")).unwrap();
                let mut latencies = Vec::with_capacity(per_conn as usize);
                for i in 0..per_conn {
                    let req = edit_req(c, i);
                    let t0 = Instant::now();
                    let resp = if retry {
                        client.request_retrying(&req, 10_000)
                    } else {
                        client.request(&req)
                    };
                    match resp {
                        Ok(Response::Ok) => latencies.push(t0.elapsed().as_nanos()),
                        Ok(Response::Retry { .. }) => {
                            shed_seen.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(other) => panic!("unexpected response {other:?}"),
                        Err(ClientError::Shed { .. }) => {
                            shed_seen.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("bench client failed: {e}"),
                    }
                }
                let _ = client.close();
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<u128> = Vec::new();
    for h in handles {
        latencies.extend(h.join().unwrap());
    }
    let wall = start.elapsed().as_secs_f64();
    server.drain(Duration::from_secs(5));
    // The server-side counter and the client-side tally agree; report
    // the server's (the one the metrics pipeline exports).
    let shed = db.metrics().counter("server.req.shed").get();
    assert_eq!(
        shed,
        shed_seen.load(Ordering::Relaxed),
        "shed accounting split"
    );
    latencies.sort();
    let done = latencies.len() as u64;
    let (p50_ns, p99_ns) = if latencies.is_empty() {
        (0, 0)
    } else {
        (
            latencies[latencies.len() / 2],
            latencies[latencies.len() * 99 / 100],
        )
    };
    SweepPoint {
        ops_per_s: done as f64 / wall,
        p50_ns,
        p99_ns,
        shed,
        done,
    }
}

fn rows(prefix: &str, conns: usize, p: &SweepPoint) {
    eprintln!(
        "  {prefix}/c{conns:<2} {:>10.0} ops/s  p50 {:>10.3?}  p99 {:>10.3?}  shed {}",
        p.ops_per_s,
        Duration::from_nanos(p.p50_ns as u64),
        Duration::from_nanos(p.p99_ns as u64),
        p.shed,
    );
}

fn main() {
    let (per_conn, conn_sweep): (u64, &[usize]) = if smoke_mode() {
        (5, &[1, 2])
    } else {
        (400, &[1, 2, 4, 8])
    };

    eprintln!("\n== e20: closed loop (slots sized to fit — no shedding) ==");
    for &conns in conn_sweep {
        let p = sweep(conns, per_conn, conns + 2, true);
        assert_eq!(p.shed, 0, "closed-loop run was sized not to shed");
        assert_eq!(p.done, conns as u64 * per_conn);
        rows("e20_closed", conns, &p);
    }

    eprintln!("\n== e20: open loop ({OPEN_LOOP_SLOTS} slots — sweep across the knee) ==");
    for &conns in conn_sweep {
        let p = sweep(conns, per_conn, OPEN_LOOP_SLOTS, false);
        rows("e20_open", conns, &p);
    }
}

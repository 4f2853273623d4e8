//! End-to-end over real TCP: the accept loop, worker cap, and drain.
//! Kept small and generously timed — the deterministic behaviour is
//! covered by the in-memory suites; this proves the TCP plumbing.

use std::time::Duration;

use cdb_core::sharded::ShardedDb;
use cdb_core::shared::SharedDb;
use cdb_model::Atom;
use cdb_server::{Client, ClientError, Response, Server, ServerConfig};

/// A single in-memory database, served as one shard.
fn shared_db() -> ShardedDb {
    ShardedDb::from(SharedDb::new("tcp", "name"))
}

#[test]
fn serve_and_drain_over_tcp() {
    let db = shared_db();
    let server = Server::bind(db.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();

    let mut client = Client::dial(&addr).unwrap();
    assert_eq!(client.hello("tcp-test").unwrap(), "tcp");
    client.ping().unwrap();
    client
        .add("alice", 1, "GABA-A", vec![("tm".to_string(), Atom::Int(4))])
        .unwrap();
    let (epoch, value) = client.get("GABA-A", "tm").unwrap();
    assert_eq!(value, Atom::Int(4));
    assert_eq!(epoch, 1);
    let stats = client.stats().unwrap();
    assert!(
        stats.contains("server.req.latency_ns"),
        "stats must include the request-latency histogram: {stats}"
    );
    client.close().unwrap();
    drop(client);

    // A second client mid-drain: reads fine, writes refused.
    let mut late = Client::dial(&addr).unwrap();
    late.hello("late").unwrap();
    server.admission().begin_drain();
    let (_, keys) = late.entries().unwrap();
    assert_eq!(keys, vec!["GABA-A".to_string()]);
    let err = late
        .add("bob", 2, "5-HT3", vec![])
        .expect_err("writes must be refused during drain");
    assert!(
        matches!(
            &err,
            ClientError::Server {
                code: cdb_server::ErrCode::Shutdown,
                ..
            }
        ),
        "got {err:?}"
    );
    drop(late);

    let report = server.drain(Duration::from_secs(2));
    assert!(report.sessions_served >= 2);
    // State after drain: exactly the acknowledged write.
    assert_eq!(
        db.snapshot().entry_keys().unwrap(),
        vec!["GABA-A".to_string()]
    );
}

#[test]
fn worker_cap_sheds_connections_with_retry() {
    let db = shared_db();
    let server = Server::bind(
        db.clone(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            slots: 4,
            retry_hint_ms: 9,
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    // First connection occupies the only worker.
    let mut first = Client::dial(&addr).unwrap();
    first.hello("occupant").unwrap();

    // The next connection is answered with one Retry frame and closed.
    // The accept loop is asynchronous, so poll until it reacts.
    let mut saw_retry = false;
    for _ in 0..100 {
        let mut second = Client::dial(&addr).unwrap();
        match second.request(&cdb_server::Request::Ping) {
            Ok(Response::Retry { after_hint_ms }) => {
                assert_eq!(after_hint_ms, 9);
                saw_retry = true;
                break;
            }
            // Raced the registry sweep (the first session not yet
            // counted, or the shed frame lost to the close): retry.
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    assert!(saw_retry, "over-capacity connection never saw Retry");
    assert!(db.metrics().counter("server.conn.shed").get() >= 1);

    // The occupant is unaffected.
    first.ping().unwrap();
    drop(first);
    server.drain(Duration::from_secs(2));
}

#[test]
fn drain_force_closes_an_idle_session() {
    let db = shared_db();
    let server = Server::bind(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let mut idle = Client::dial(&addr).unwrap();
    idle.hello("idler").unwrap();
    // Give the accept loop time to register the session, then drain
    // with a short deadline: the idle connection must be force-closed
    // rather than stalling shutdown forever.
    std::thread::sleep(Duration::from_millis(30));
    let report = server.drain(Duration::from_millis(100));
    assert_eq!(report.forced, 1, "idle session should be force-closed");
    // The client now sees a dead connection.
    assert!(idle.ping().is_err());
}

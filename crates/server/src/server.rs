//! The TCP server: a bounded accept loop feeding per-connection
//! session threads, with load-shed at the door and a graceful drain.
//!
//! # Admission at two levels
//!
//! * **Connections**: at most `workers` session threads exist. A
//!   connection arriving past that is answered with one `Retry` frame
//!   and closed (`server.conn.shed` counts these) — bounded accept,
//!   no hidden backlog beyond the kernel's listen queue.
//! * **Requests**: within a session, database-touching requests pass
//!   the shared [`Admission`] slot pool (`slots` across the whole
//!   server), shedding with `Retry` when full.
//!
//! # Drain semantics
//!
//! [`Server::drain`] runs in phases:
//!
//! 1. stop accepting (the listener thread exits);
//! 2. flip the admission gate to draining — in-flight sessions keep
//!    serving reads but refuse new writes with `Err{Shutdown}`;
//! 3. wait up to the timeout for sessions to say goodbye on their own;
//! 4. force-close the stragglers through their transport
//!    [`Closer`]s and join every thread.
//!
//! Because writes are refused from step 2 on, and every acknowledged
//! write already waited for its group commit, a drained server leaves
//! a WAL whose synced prefix covers every `Ok` any client ever saw.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use cdb_core::sharded::ShardedDb;

use crate::admission::{Admission, DEFAULT_RETRY_HINT_MS};
use crate::proto::{write_frame, Response};
use crate::session::Session;
use crate::transport::{Closer, TcpTransport, Transport};

/// Server sizing and behaviour knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrent session threads (connection-level bound).
    pub workers: usize,
    /// Admission slots shared by all sessions (request-level bound).
    pub slots: usize,
    /// Backoff hint handed to shed clients, in milliseconds.
    pub retry_hint_ms: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            slots: 8,
            retry_hint_ms: DEFAULT_RETRY_HINT_MS,
        }
    }
}

/// What [`Server::drain`] accomplished.
#[derive(Debug, Clone, Copy)]
pub struct DrainReport {
    /// Sessions accepted over the server's lifetime.
    pub sessions_served: u64,
    /// Sessions that had to be force-closed at the deadline.
    pub forced: usize,
}

struct Live {
    handle: JoinHandle<()>,
    closer: Box<dyn Closer>,
    done: Arc<AtomicBool>,
}

/// A running TCP server. Dropping it without calling [`Server::drain`]
/// aborts the accept loop but leaves session threads to finish on
/// their own; call `drain` for an orderly shutdown.
pub struct Server {
    addr: SocketAddr,
    admission: Admission,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    live: Arc<Mutex<Vec<Live>>>,
    accepted: Arc<AtomicU64>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port — read it back
    /// with [`Server::local_addr`]) and starts accepting. Every session
    /// serves a clone of `db`; a single database is served as
    /// `ShardedDb::from(shared)`.
    pub fn bind(db: ShardedDb, addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let admission = Admission::new(config.slots, config.retry_hint_ms, db.metrics());
        let conn_shed = db.metrics().counter("server.conn.shed");
        let stop = Arc::new(AtomicBool::new(false));
        let live: Arc<Mutex<Vec<Live>>> = Arc::new(Mutex::new(Vec::new()));
        let accepted = Arc::new(AtomicU64::new(0));

        let accept = {
            let stop = stop.clone();
            let live = live.clone();
            let admission = admission.clone();
            let accepted = accepted.clone();
            let workers = config.workers.max(1);
            let retry_hint_ms = config.retry_hint_ms;
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            accepted.fetch_add(1, Ordering::Relaxed);
                            let mut guard = live.lock().expect("session registry poisoned");
                            guard.retain(|l| !l.done.load(Ordering::Acquire));
                            if guard.len() >= workers {
                                drop(guard);
                                conn_shed.inc();
                                shed_connection(stream, retry_hint_ms);
                                continue;
                            }
                            match spawn_session(stream, &db, &admission) {
                                Ok(l) => guard.push(l),
                                Err(_) => continue, // peer died before setup
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => {
                            // Transient accept errors (aborted handshake
                            // etc.); keep listening.
                            std::thread::sleep(Duration::from_millis(2));
                        }
                    }
                }
            })
        };

        Ok(Server {
            addr: local,
            admission,
            stop,
            accept_thread: Some(accept),
            live,
            accepted,
        })
    }

    /// The bound address, ephemeral port resolved.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared admission gate (exposed for tests and stats).
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// Graceful shutdown; see the module docs for the phases.
    pub fn drain(mut self, timeout: Duration) -> DrainReport {
        self.stop.store(true, Ordering::Release);
        self.admission.begin_drain();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // The span API is the house stopwatch (check.sh forbids raw
        // std timing in library code); this also makes the drain
        // visible in traces.
        let stopwatch = cdb_obs::SpanGuard::enter("server.drain");
        loop {
            let all_done = {
                let guard = self.live.lock().expect("session registry poisoned");
                guard.iter().all(|l| l.done.load(Ordering::Acquire))
            };
            if all_done || stopwatch.elapsed() >= timeout {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut forced = 0;
        let mut guard = self.live.lock().expect("session registry poisoned");
        for l in guard.iter() {
            if !l.done.load(Ordering::Acquire) {
                forced += 1;
                l.closer.close();
            }
        }
        for l in guard.drain(..) {
            let _ = l.handle.join();
        }
        drop(guard);
        DrainReport {
            sessions_served: self.accepted.load(Ordering::Relaxed),
            forced,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Answers an over-capacity connection with a single `Retry` frame
/// and closes it. Done on its own short-lived thread so a slow peer
/// cannot stall the accept loop.
fn shed_connection(stream: TcpStream, after_hint_ms: u32) {
    std::thread::spawn(move || {
        if let Ok(mut t) = TcpTransport::new(stream) {
            let resp = Response::Retry { after_hint_ms };
            let _ = write_frame(&mut t, &resp.encode());
        }
    });
}

fn spawn_session(
    stream: TcpStream,
    db: &ShardedDb,
    admission: &Admission,
) -> std::io::Result<Live> {
    stream.set_nodelay(true).ok();
    let transport = TcpTransport::new(stream)?;
    let closer = transport.closer();
    let done = Arc::new(AtomicBool::new(false));
    let flag = done.clone();
    let db = db.clone();
    let admission = admission.clone();
    let handle = std::thread::spawn(move || {
        // A panicking session is a black-box trigger: snapshot the
        // flight recorder (no-op unless installed) before the thread
        // dies, then keep the panic's effect — the session ends, the
        // server keeps serving everyone else.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let mut session = Session::new(transport, db, admission);
            session.run();
        }));
        if outcome.is_err() {
            let _ = cdb_obs::flight::snap("server.session_panic");
        }
        flag.store(true, Ordering::Release);
    });
    Ok(Live {
        handle,
        closer,
        done,
    })
}

//! A per-connection session: the server-side request loop.
//!
//! # Epoch pinning
//!
//! Each session pins one [`ShardedSnapshot`] (cross-shard coherent,
//! see [`cdb_core::sharded`]) and serves every read from it —
//! lock-free, and **stable**: a client sees one consistent epoch
//! until something moves it forward. The pin advances only on the
//! session's *own* committed writes (read-your-writes) and on an
//! explicit `Refresh`; other sessions' commits never shift the view
//! mid-conversation. Read responses carry the pinned epoch so clients
//! (and the over-the-wire linearizability harness) can check epoch
//! coherence end to end. The pinned epoch is the sum of the per-shard
//! epochs, which is monotone under the same commit-order guarantees a
//! single shard's epoch has; with one shard it is that shard's epoch.
//!
//! # Error discipline
//!
//! Database errors are typed and recoverable: the session answers
//! `Err{code}` and keeps serving. Protocol errors — a frame that does
//! not decode, a request before `Hello`, a version mismatch — answer
//! `Err` once and then close the connection: after a framing error
//! the byte stream can no longer be trusted.

use cdb_core::db::DbError;
use cdb_core::sharded::{ShardedDb, ShardedSnapshot};

use crate::admission::{Admission, Decision};
use crate::proto::{
    read_frame, write_frame, ErrCode, FrameError, Request, Response, PROTOCOL_VERSION,
};
use crate::transport::Transport;

/// Pre-resolved session instruments: one registry lookup per
/// connection, atomics per request.
#[derive(Debug)]
struct Instruments {
    total: cdb_obs::Counter,
    errors: cdb_obs::Counter,
    latency: cdb_obs::HistogramHandle,
    torn: cdb_obs::Counter,
    /// Time from arrival at the admission gate to a permit (or a shed
    /// answer) — `server.admission.wait_ns`.
    admission_wait: cdb_obs::HistogramHandle,
}

impl Instruments {
    fn resolve(m: &cdb_obs::Metrics) -> Instruments {
        Instruments {
            total: m.counter("server.req.total"),
            errors: m.counter("server.req.errors"),
            latency: m.histogram("server.req.latency_ns"),
            torn: m.counter("server.conn.torn"),
            admission_wait: m.histogram("server.admission.wait_ns"),
        }
    }
}

/// What a completed [`Session::serve_one`] means for the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Turn {
    /// The request was answered; keep serving.
    Continue,
    /// The connection is done (clean goodbye, EOF, torn stream, or a
    /// protocol error); stop serving.
    Closed,
}

/// One connection's server half. Generic over [`Transport`], so the
/// deterministic test harness and the TCP accept loop run the exact
/// same code.
pub struct Session<T: Transport> {
    transport: T,
    db: ShardedDb,
    admission: Admission,
    pinned: ShardedSnapshot,
    instr: Instruments,
    greeted: bool,
}

impl<T: Transport> Session<T> {
    /// Builds a session over a connected transport, pinned to the
    /// latest committed snapshot. Serve a single database as
    /// `ShardedDb::from(shared)`, once, and hand each session a clone:
    /// the server's instruments live in the `ShardedDb`'s registry.
    pub fn new(transport: T, db: ShardedDb, admission: Admission) -> Session<T> {
        let pinned = db.snapshot();
        let instr = Instruments::resolve(db.metrics());
        Session {
            transport,
            db,
            admission,
            pinned,
            instr,
            greeted: false,
        }
    }

    /// The snapshot this session currently serves reads from. The
    /// linearizability harness uses this to run the committed-prefix
    /// and epoch-coherence checkers against exactly what the client
    /// saw.
    pub fn pinned(&self) -> &ShardedSnapshot {
        &self.pinned
    }

    /// Serves requests until the connection closes.
    pub fn run(&mut self) {
        while self.serve_one() == Turn::Continue {}
    }

    /// Reads one frame, executes it, writes the response. Every
    /// protocol failure mode lands here: clean EOF and torn streams
    /// end the session; undecodable requests answer a typed protocol
    /// error and then end it.
    pub fn serve_one(&mut self) -> Turn {
        let payload = match read_frame(&mut self.transport) {
            Ok(Some(p)) => p,
            Ok(None) => return Turn::Closed,
            Err(FrameError::Torn) => {
                self.instr.torn.inc();
                return Turn::Closed;
            }
            Err(FrameError::Empty) | Err(FrameError::TooLarge(_)) => {
                self.refuse(ErrCode::Protocol, "bad frame length");
                return Turn::Closed;
            }
            Err(FrameError::Transport(_)) => return Turn::Closed,
        };
        let (req, trace) = match Request::decode_traced(&payload) {
            Ok(decoded) => decoded,
            Err(e) => {
                self.refuse(ErrCode::Protocol, &e.to_string());
                return Turn::Closed;
            }
        };
        // Adopt the client's trace context (or root a fresh local
        // trace) for everything this request does: the "server.req"
        // span and every span below it down to the device sync carry
        // the wire id, so client- and server-side ring dumps merge
        // into one tree.
        let _trace = cdb_obs::adopt_trace(trace);
        let span = cdb_obs::SpanGuard::enter("server.req");
        self.instr.total.inc();
        let (resp, turn) = self.dispatch(req);
        self.instr.latency.observe(span.elapsed());
        if matches!(resp, Response::Err { .. }) {
            self.instr.errors.inc();
        }
        if write_frame(&mut self.transport, &resp.encode()).is_err() {
            return Turn::Closed;
        }
        turn
    }

    /// Executes one decoded request. Returns the response and whether
    /// the connection survives it.
    fn dispatch(&mut self, req: Request) -> (Response, Turn) {
        // The handshake gate: nothing before Hello, and Hello only
        // with a version we speak.
        if let Request::Hello { version, client: _ } = &req {
            if *version != PROTOCOL_VERSION {
                return (
                    Response::Err {
                        code: ErrCode::VersionMismatch,
                        msg: format!("server speaks v{PROTOCOL_VERSION}, client sent v{version}"),
                    },
                    Turn::Closed,
                );
            }
            self.greeted = true;
            return (
                Response::Hello {
                    version: PROTOCOL_VERSION,
                    server: self.pinned.name().to_string(),
                },
                Turn::Continue,
            );
        }
        if !self.greeted {
            return (
                Response::Err {
                    code: ErrCode::Protocol,
                    msg: "first request must be hello".to_string(),
                },
                Turn::Closed,
            );
        }
        match req {
            Request::Hello { .. } => unreachable!("handled above"),
            Request::Ping => (Response::Pong, Turn::Continue),
            Request::Close => (Response::Ok, Turn::Closed),
            Request::Epoch => (
                Response::Epoch {
                    epoch: self.pinned.epoch(),
                },
                Turn::Continue,
            ),
            Request::Stats => (
                Response::Stats {
                    json: cdb_obs::export::line_json(&self.db.metrics_snapshot()),
                },
                Turn::Continue,
            ),
            Request::TraceDump => (
                Response::Stats {
                    json: trace_dump_json(),
                },
                Turn::Continue,
            ),
            req => self.admitted(req),
        }
    }

    /// The admission-gated endpoints: everything that touches the
    /// database. The slot is taken *before* any database call and
    /// held (via the permit) until the work finishes, so a `Retry`
    /// answer proves the request never reached the WAL.
    fn admitted(&mut self, req: Request) -> (Response, Turn) {
        if req.is_write() && self.admission.is_draining() {
            return (
                Response::Err {
                    code: ErrCode::Shutdown,
                    msg: "server is draining; write refused".to_string(),
                },
                Turn::Continue,
            );
        }
        let wait = cdb_obs::SpanGuard::enter("server.admission");
        let decision = self.admission.try_begin();
        self.instr.admission_wait.observe(wait.elapsed());
        drop(wait);
        let _permit = match decision {
            Decision::Go(p) => p,
            Decision::Shed { after_hint_ms } => {
                return (Response::Retry { after_hint_ms }, Turn::Continue);
            }
        };
        let span = cdb_obs::SpanGuard::enter("server.req.endpoint");
        let endpoint = req.endpoint();
        let resp = self.execute(req);
        self.db
            .metrics()
            .histogram(&format!("server.req.{endpoint}.latency_ns"))
            .observe(span.elapsed());
        (resp, Turn::Continue)
    }

    fn execute(&mut self, req: Request) -> Response {
        match req {
            Request::Add {
                curator,
                time,
                key,
                fields,
            } => {
                let borrowed: Vec<(&str, cdb_model::Atom)> = fields
                    .iter()
                    .map(|(name, value)| (name.as_str(), value.clone()))
                    .collect();
                match self.db.add_entry(&curator, time, &key, &borrowed) {
                    Ok(id) => {
                        self.repin();
                        Response::Node {
                            id: id.index() as u64,
                        }
                    }
                    Err(e) => db_err(e),
                }
            }
            Request::Edit {
                curator,
                time,
                key,
                field,
                value,
            } => match self.db.edit_field(&curator, time, &key, &field, value) {
                Ok(()) => {
                    self.repin();
                    Response::Ok
                }
                Err(e) => db_err(e),
            },
            Request::Delete { curator, time, key } => {
                match self.db.delete_entry(&curator, time, &key) {
                    Ok(()) => {
                        self.repin();
                        Response::Ok
                    }
                    Err(e) => db_err(e),
                }
            }
            Request::Merge {
                curator,
                time,
                kept,
                absorbed,
            } => match self.db.merge_entries(&curator, time, &kept, &absorbed) {
                Ok(()) => {
                    self.repin();
                    Response::Ok
                }
                Err(e) => db_err(e),
            },
            Request::Annotate {
                key,
                field,
                author,
                text,
                time,
            } => match self
                .db
                .annotate(&key, field.as_deref(), &author, &text, time)
            {
                Ok(()) => {
                    self.repin();
                    Response::Ok
                }
                Err(e) => db_err(e),
            },
            // A sharded publish fans out per shard (not atomically);
            // the wire answers shard 0's version id.
            Request::Publish { label } => match self.db.publish(label) {
                Ok(ids) => {
                    self.repin();
                    Response::Version { id: ids[0] }
                }
                Err(e) => db_err(e),
            },
            Request::GetField { key, field } => match self.pinned.field(&key, &field) {
                Ok(value) => Response::Value {
                    epoch: self.pinned.epoch(),
                    value,
                },
                Err(e) => db_err(e),
            },
            Request::Entries => match self.pinned.entry_keys() {
                Ok(keys) => Response::Keys {
                    epoch: self.pinned.epoch(),
                    keys,
                },
                Err(e) => db_err(e),
            },
            Request::Refresh => {
                self.repin();
                Response::Epoch {
                    epoch: self.pinned.epoch(),
                }
            }
            Request::Hello { .. }
            | Request::Ping
            | Request::Close
            | Request::Epoch
            | Request::Stats
            | Request::TraceDump => unreachable!("routed before admission"),
        }
    }

    /// Advances the pin to the latest committed snapshot. Called after
    /// this session's own successful writes — the epoch can only move
    /// forward, so read-your-writes holds.
    fn repin(&mut self) {
        self.pinned = self.db.snapshot();
    }

    /// Sends a typed error; failures are moot because the connection
    /// is closing anyway.
    fn refuse(&mut self, code: ErrCode, msg: &str) {
        self.instr.errors.inc();
        let resp = Response::Err {
            code,
            msg: msg.to_string(),
        };
        let _ = write_frame(&mut self.transport, &resp.encode());
    }
}

/// The server's recent span events as line-JSON, sized to fit one
/// response frame: when the full ring dump would overflow [`MAX_FRAME`]
/// (many threads × deep rings), the *oldest* events are dropped first
/// — the client is reconstructing a trace it just ran, so recency
/// wins. Drops are visible in the `obs.ring.dropped` counter and in
/// the dump simply missing spans the merge reports as absent.
fn trace_dump_json() -> String {
    // Head-room for the response tag and the string length prefix.
    const BUDGET: usize = crate::proto::MAX_FRAME - 64;
    let mut events = cdb_obs::recent_events();
    loop {
        let json = cdb_obs::export::span_line_json(&events);
        if json.len() <= BUDGET || events.is_empty() {
            return json;
        }
        let drop = (events.len() / 4).max(1);
        events.drain(..drop);
    }
}

/// Maps a database error to its wire error class.
fn db_err(e: DbError) -> Response {
    let code = match &e {
        DbError::NoSuchEntry(_) => ErrCode::NoSuchEntry,
        DbError::NoSuchField(_, _) => ErrCode::NoSuchField,
        DbError::DuplicateEntry(_) => ErrCode::Duplicate,
        DbError::Lifecycle(_) => ErrCode::Lifecycle,
        DbError::Storage(_) => ErrCode::Storage,
        DbError::Tree(_)
        | DbError::Archive(_)
        | DbError::Relational(_)
        | DbError::KeyFieldWrite(_) => ErrCode::BadRequest,
    };
    Response::Err {
        code,
        msg: e.to_string(),
    }
}

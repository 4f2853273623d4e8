//! # cdb-server — the network serving layer
//!
//! The paper's curated-database setting (§1: a handful of curators,
//! "millions of users" reading the published versions) needs the
//! database on the other end of a wire. This crate serves a
//! [`ShardedDb`] over a length-prefixed binary protocol. A single
//! database is served as its one-shard case, `ShardedDb::from(shared)`
//! — the single-node deployment — so there is one serving type and
//! one session code path:
//!
//! * [`proto`] — typed request/response frames on the same
//!   `cdb-curation::wire` codec the WAL uses, with a protocol version
//!   and typed error codes;
//! * [`transport`] — the connection byte stream behind a trait, with
//!   a real TCP implementation and a deterministic in-memory one
//!   whose fault plan reproduces torn frames, mid-request
//!   disconnects, and slow readers on demand;
//! * [`session`] — the per-connection request loop: reads pinned to a
//!   snapshot epoch, writes funneled through group commit;
//! * [`admission`] — a bounded slot pool that sheds excess load with
//!   a typed `Retry{after_hint}` instead of queueing without bound;
//! * [`server`] — the TCP accept loop, worker cap, and graceful
//!   drain;
//! * [`client`] — the typed client used by `cdbsh connect` and the
//!   test harnesses.
//!
//! Everything above the transport is transport-agnostic, so the
//! protocol-conformance, fault-injection, and linearizability suites
//! drive the *production* session code over in-memory pipes — no
//! sockets, no timing, no flakes — while `cdbsh connect` exercises
//! the same code over real TCP.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod client;
pub mod proto;
pub mod server;
pub mod session;
pub mod transport;

pub use admission::{Admission, Decision, Permit};
pub use client::{Client, ClientError};
pub use proto::{ErrCode, FrameError, Request, Response, MAX_FRAME, PROTOCOL_VERSION};
pub use server::{DrainReport, Server, ServerConfig};
pub use session::{Session, Turn};
pub use transport::{
    mem_pair, mem_pair_with, Closer, MemFaultPlan, MemTransport, TcpTransport, Transport,
    TransportError,
};

use cdb_core::sharded::ShardedDb;

/// The served database under its former name, kept for `benchmark/`
/// until ROADMAP 2(a) retires it.
pub type ServeHandle = ShardedDb;

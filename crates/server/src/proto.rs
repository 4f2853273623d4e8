//! The request/response protocol: typed frames over a length-prefixed
//! binary encoding, built on the same `cdb-curation::wire` codec the
//! WAL uses (little-endian, length-prefixed strings, tagged enums).
//!
//! # Frame format
//!
//! ```text
//! +----------------+---------------------+
//! | len: u32 (LE)  | payload: len bytes  |
//! +----------------+---------------------+
//! ```
//!
//! `len` counts the payload only, must be nonzero, and is capped at
//! [`MAX_FRAME`] — a corrupt or hostile length field is rejected
//! before any allocation. The payload's first byte is the request (or
//! response) tag; the rest is that variant's fields in order. A frame
//! must decode to exactly one value: trailing bytes are a protocol
//! error, same as the WAL codec.
//!
//! # Trace context
//!
//! A request frame may carry one trailing u64 — a [`cdb_obs::TraceId`]
//! — after the request body ([`Request::encode_traced`] /
//! [`Request::decode_traced`]): the client's ambient trace id rides
//! the wire and the server adopts it for every span the request
//! produces, so one trace spans both processes and their ring dumps
//! merge by id (`cdb_obs::export::merge_span_dumps`). Absent trailing
//! bytes mean an untraced request; the encoding is therefore fully
//! backward compatible in both directions.
//!
//! # Versioning
//!
//! The first request on a connection must be [`Request::Hello`]
//! carrying [`PROTOCOL_VERSION`]; anything else — or a version the
//! server does not speak — is answered with a typed error and the
//! connection closes. Version negotiation is deliberately all-or-
//! nothing: the protocol is an internal surface, not a public API.

use cdb_curation::wire::{put_atom, put_str, put_u32, put_u64, Reader, WireError};
use cdb_model::Atom;

use crate::transport::{Transport, TransportError};

/// The one protocol version this build speaks.
pub const PROTOCOL_VERSION: u32 = 1;

/// Maximum payload bytes in a single frame (1 MiB). Large enough for
/// any real request or stats dump; small enough that a corrupt length
/// field cannot drive allocation.
pub const MAX_FRAME: usize = 1 << 20;

/// A failure while reading a frame off a transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The stream ended in the middle of a frame (header or payload):
    /// the peer died or the bytes were cut. Distinct from a clean EOF
    /// at a frame boundary, which is a normal disconnect.
    Torn,
    /// The length field was zero — no valid frame is empty.
    Empty,
    /// The length field exceeded [`MAX_FRAME`].
    TooLarge(u32),
    /// The transport itself failed.
    Transport(TransportError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Torn => write!(f, "stream ended mid-frame"),
            FrameError::Empty => write!(f, "zero-length frame"),
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
            FrameError::Transport(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame: length prefix and payload in a single
/// `write_all` so a concurrent closer can tear the frame but never
/// interleave it.
pub fn write_frame(t: &mut dyn Transport, payload: &[u8]) -> Result<(), TransportError> {
    debug_assert!(!payload.is_empty() && payload.len() <= MAX_FRAME);
    let mut framed = Vec::with_capacity(4 + payload.len());
    put_u32(&mut framed, payload.len() as u32);
    framed.extend_from_slice(payload);
    t.write_all(&framed)
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (EOF exactly
/// at a frame boundary); [`FrameError::Torn`] is EOF anywhere else.
/// Handles transports that return one byte per read.
pub fn read_frame(t: &mut dyn Transport) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; 4];
    match read_exact(t, &mut header)? {
        ReadOutcome::Full => {}
        ReadOutcome::CleanEof => return Ok(None),
        ReadOutcome::TornEof => return Err(FrameError::Torn),
    }
    let len = u32::from_le_bytes(header);
    if len == 0 {
        return Err(FrameError::Empty);
    }
    if len as usize > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    match read_exact(t, &mut payload)? {
        ReadOutcome::Full => Ok(Some(payload)),
        ReadOutcome::CleanEof | ReadOutcome::TornEof => Err(FrameError::Torn),
    }
}

enum ReadOutcome {
    Full,
    /// EOF before the first byte of this read.
    CleanEof,
    /// EOF after at least one byte of this read.
    TornEof,
}

fn read_exact(t: &mut dyn Transport, buf: &mut [u8]) -> Result<ReadOutcome, FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match t.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::CleanEof
                } else {
                    ReadOutcome::TornEof
                });
            }
            Ok(n) => filled += n,
            // A force-closed connection reads as a torn stream if we
            // were mid-frame, clean EOF otherwise.
            Err(TransportError::Closed) => {
                return Ok(if filled == 0 {
                    ReadOutcome::CleanEof
                } else {
                    ReadOutcome::TornEof
                });
            }
            Err(e) => return Err(FrameError::Transport(e)),
        }
    }
    Ok(ReadOutcome::Full)
}

// -------------------------------------------------------- requests

/// A client request. Tags are the wire encoding's first payload byte.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Mandatory first request: protocol version and a client name
    /// (for logs and metrics; not trusted for anything).
    Hello {
        /// The protocol version the client speaks.
        version: u32,
        /// Free-form client identification.
        client: String,
    },
    /// Liveness probe; answered with [`Response::Pong`] even while
    /// draining.
    Ping,
    /// Add a freshly-authored entry (`ShardedDb::add_entry`).
    Add {
        /// Acting curator.
        curator: String,
        /// Curation timestamp.
        time: u64,
        /// Entry key.
        key: String,
        /// Initial fields.
        fields: Vec<(String, Atom)>,
    },
    /// Edit (or add) one field (`ShardedDb::edit_field`).
    Edit {
        /// Acting curator.
        curator: String,
        /// Curation timestamp.
        time: u64,
        /// Entry key.
        key: String,
        /// Field name.
        field: String,
        /// New value.
        value: Atom,
    },
    /// Delete an entry (`ShardedDb::delete_entry`).
    Delete {
        /// Acting curator.
        curator: String,
        /// Curation timestamp.
        time: u64,
        /// Entry key.
        key: String,
    },
    /// Fuse two entries (`ShardedDb::merge_entries`).
    Merge {
        /// Acting curator.
        curator: String,
        /// Curation timestamp.
        time: u64,
        /// Key of the surviving entry.
        kept: String,
        /// Key of the entry absorbed into it.
        absorbed: String,
    },
    /// Attach a superimposed annotation (`ShardedDb::annotate`).
    Annotate {
        /// Entry key.
        key: String,
        /// Field to annotate, or the whole entry when absent.
        field: Option<String>,
        /// Annotation author.
        author: String,
        /// Annotation text.
        text: String,
        /// Annotation timestamp.
        time: u64,
    },
    /// Publish the current state as an archived version
    /// (`ShardedDb::publish`; the answer carries shard 0's version id).
    Publish {
        /// Version label.
        label: String,
    },
    /// Read one field from the session's pinned snapshot.
    GetField {
        /// Entry key.
        key: String,
        /// Field name.
        field: String,
    },
    /// List entry keys from the session's pinned snapshot.
    Entries,
    /// Re-pin the session to the latest committed snapshot; answers
    /// with the new epoch.
    Refresh,
    /// The session's currently pinned epoch.
    Epoch,
    /// A line-JSON metrics dump (server and database instruments).
    Stats,
    /// Orderly goodbye; the server acknowledges and closes.
    Close,
    /// A line-JSON dump of the server's recent span events (the
    /// per-thread trace rings), for client-side span-tree merging.
    TraceDump,
}

impl Request {
    /// Stable endpoint name, used for per-endpoint metrics.
    pub fn endpoint(&self) -> &'static str {
        match self {
            Request::Hello { .. } => "hello",
            Request::Ping => "ping",
            Request::Add { .. } => "add",
            Request::Edit { .. } => "edit",
            Request::Delete { .. } => "delete",
            Request::Merge { .. } => "merge",
            Request::Annotate { .. } => "annotate",
            Request::Publish { .. } => "publish",
            Request::GetField { .. } => "get_field",
            Request::Entries => "entries",
            Request::Refresh => "refresh",
            Request::Epoch => "epoch",
            Request::Stats => "stats",
            Request::Close => "close",
            Request::TraceDump => "trace_dump",
        }
    }

    /// True for requests that mutate the database (and therefore must
    /// be refused while draining and must pass admission).
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Request::Add { .. }
                | Request::Edit { .. }
                | Request::Delete { .. }
                | Request::Merge { .. }
                | Request::Annotate { .. }
                | Request::Publish { .. }
        )
    }

    /// Encodes to a frame payload (without the length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        match self {
            Request::Hello { version, client } => {
                b.push(0);
                put_u32(&mut b, *version);
                put_str(&mut b, client);
            }
            Request::Ping => b.push(1),
            Request::Add {
                curator,
                time,
                key,
                fields,
            } => {
                b.push(2);
                put_str(&mut b, curator);
                put_u64(&mut b, *time);
                put_str(&mut b, key);
                put_u32(&mut b, fields.len() as u32);
                for (name, value) in fields {
                    put_str(&mut b, name);
                    put_atom(&mut b, value);
                }
            }
            Request::Edit {
                curator,
                time,
                key,
                field,
                value,
            } => {
                b.push(3);
                put_str(&mut b, curator);
                put_u64(&mut b, *time);
                put_str(&mut b, key);
                put_str(&mut b, field);
                put_atom(&mut b, value);
            }
            Request::Delete { curator, time, key } => {
                b.push(4);
                put_str(&mut b, curator);
                put_u64(&mut b, *time);
                put_str(&mut b, key);
            }
            Request::Merge {
                curator,
                time,
                kept,
                absorbed,
            } => {
                b.push(5);
                put_str(&mut b, curator);
                put_u64(&mut b, *time);
                put_str(&mut b, kept);
                put_str(&mut b, absorbed);
            }
            Request::Annotate {
                key,
                field,
                author,
                text,
                time,
            } => {
                b.push(6);
                put_str(&mut b, key);
                match field {
                    None => b.push(0),
                    Some(f) => {
                        b.push(1);
                        put_str(&mut b, f);
                    }
                }
                put_str(&mut b, author);
                put_str(&mut b, text);
                put_u64(&mut b, *time);
            }
            Request::Publish { label } => {
                b.push(7);
                put_str(&mut b, label);
            }
            Request::GetField { key, field } => {
                b.push(8);
                put_str(&mut b, key);
                put_str(&mut b, field);
            }
            Request::Entries => b.push(9),
            Request::Refresh => b.push(10),
            Request::Epoch => b.push(11),
            Request::Stats => b.push(12),
            Request::Close => b.push(13),
            Request::TraceDump => b.push(14),
        }
        b
    }

    /// [`Request::encode`] plus a trailing trace-context word: when
    /// `trace` is nonzero its 8 bytes (u64 LE) follow the request
    /// body, and the server adopts that id for every span the request
    /// produces — one trace across both processes. A zero trace
    /// encodes identically to the untraced form, so untraced clients
    /// and traced servers (and vice versa) interoperate unchanged.
    pub fn encode_traced(&self, trace: cdb_obs::TraceId) -> Vec<u8> {
        let mut b = self.encode();
        if trace.0 != 0 {
            put_u64(&mut b, trace.0);
        }
        b
    }

    /// Decodes a frame payload. The whole payload must be consumed.
    pub fn decode(bytes: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader::new(bytes);
        let req = Self::decode_body(&mut r)?;
        r.finish()?;
        Ok(req)
    }

    /// Decodes a frame payload that may carry a trailing trace-context
    /// word (see [`Request::encode_traced`]): exactly 8 bytes left
    /// after the request body are the trace id; zero bytes left means
    /// an untraced request (`TraceId(0)`); anything else is a protocol
    /// error, as in [`Request::decode`].
    pub fn decode_traced(bytes: &[u8]) -> Result<(Request, cdb_obs::TraceId), WireError> {
        let mut r = Reader::new(bytes);
        let req = Self::decode_body(&mut r)?;
        let trace = if r.remaining() == 8 {
            cdb_obs::TraceId(r.u64()?)
        } else {
            cdb_obs::TraceId(0)
        };
        r.finish()?;
        Ok((req, trace))
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Request, WireError> {
        let req = match r.u8()? {
            0 => Request::Hello {
                version: r.u32()?,
                client: r.str()?,
            },
            1 => Request::Ping,
            2 => {
                let curator = r.str()?;
                let time = r.u64()?;
                let key = r.str()?;
                // Each field is at least 5 bytes: empty name (4) plus
                // an atom tag (1).
                let n = r.seq_len(5)?;
                let mut fields = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = r.str()?;
                    let value = r.atom()?;
                    fields.push((name, value));
                }
                Request::Add {
                    curator,
                    time,
                    key,
                    fields,
                }
            }
            3 => Request::Edit {
                curator: r.str()?,
                time: r.u64()?,
                key: r.str()?,
                field: r.str()?,
                value: r.atom()?,
            },
            4 => Request::Delete {
                curator: r.str()?,
                time: r.u64()?,
                key: r.str()?,
            },
            5 => Request::Merge {
                curator: r.str()?,
                time: r.u64()?,
                kept: r.str()?,
                absorbed: r.str()?,
            },
            6 => Request::Annotate {
                key: r.str()?,
                field: match r.u8()? {
                    0 => None,
                    1 => Some(r.str()?),
                    t => return Err(WireError::BadTag("optional field", t)),
                },
                author: r.str()?,
                text: r.str()?,
                time: r.u64()?,
            },
            7 => Request::Publish { label: r.str()? },
            8 => Request::GetField {
                key: r.str()?,
                field: r.str()?,
            },
            9 => Request::Entries,
            10 => Request::Refresh,
            11 => Request::Epoch,
            12 => Request::Stats,
            13 => Request::Close,
            14 => Request::TraceDump,
            t => return Err(WireError::BadTag("request", t)),
        };
        Ok(req)
    }
}

// ------------------------------------------------------- responses

/// A typed error class, carried by [`Response::Err`]. Maps one-to-one
/// from `DbError` plus the server-side failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrCode {
    /// The bytes on the wire were not a valid frame or request.
    Protocol = 0,
    /// The request was well-formed but invalid in context (e.g. a
    /// request before `Hello`).
    BadRequest = 1,
    /// No entry with the given key.
    NoSuchEntry = 2,
    /// No such field on the entry.
    NoSuchField = 3,
    /// An entry with this key already exists.
    Duplicate = 4,
    /// An entry-lifecycle rule was violated.
    Lifecycle = 5,
    /// The durability layer failed; the write may not be durable.
    Storage = 6,
    /// The server is draining; writes are refused.
    Shutdown = 7,
    /// The client's protocol version is not spoken here.
    VersionMismatch = 8,
    /// A server-side invariant failure.
    Internal = 9,
}

impl ErrCode {
    fn from_tag(t: u8) -> Result<ErrCode, WireError> {
        Ok(match t {
            0 => ErrCode::Protocol,
            1 => ErrCode::BadRequest,
            2 => ErrCode::NoSuchEntry,
            3 => ErrCode::NoSuchField,
            4 => ErrCode::Duplicate,
            5 => ErrCode::Lifecycle,
            6 => ErrCode::Storage,
            7 => ErrCode::Shutdown,
            8 => ErrCode::VersionMismatch,
            9 => ErrCode::Internal,
            t => return Err(WireError::BadTag("error code", t)),
        })
    }
}

impl std::fmt::Display for ErrCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrCode::Protocol => "protocol",
            ErrCode::BadRequest => "bad-request",
            ErrCode::NoSuchEntry => "no-such-entry",
            ErrCode::NoSuchField => "no-such-field",
            ErrCode::Duplicate => "duplicate",
            ErrCode::Lifecycle => "lifecycle",
            ErrCode::Storage => "storage",
            ErrCode::Shutdown => "shutdown",
            ErrCode::VersionMismatch => "version-mismatch",
            ErrCode::Internal => "internal",
        };
        write!(f, "{name}")
    }
}

/// A server response. Read responses carry the epoch they were served
/// from, so clients can check epoch coherence end to end.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake acknowledgement.
    Hello {
        /// The protocol version the server speaks.
        version: u32,
        /// The database name being served.
        server: String,
    },
    /// Liveness answer.
    Pong,
    /// The write (or close) succeeded; for writes this means the
    /// commit is durable per the ack rule of `cdb_core::shared`.
    Ok,
    /// An `add` succeeded; carries the new entry's node id.
    Node {
        /// The entry's tree node id.
        id: u64,
    },
    /// A field value, as of `epoch`.
    Value {
        /// Snapshot epoch the read was served from.
        epoch: u64,
        /// The field's value.
        value: Atom,
    },
    /// The entry-key listing, as of `epoch`.
    Keys {
        /// Snapshot epoch the read was served from.
        epoch: u64,
        /// Entry keys in tree order.
        keys: Vec<String>,
    },
    /// An epoch answer (`Refresh`, `Epoch`).
    Epoch {
        /// The session's pinned epoch.
        epoch: u64,
    },
    /// A publish succeeded; carries the archived version id.
    Version {
        /// The archive version number.
        id: u32,
    },
    /// A line-JSON metrics dump.
    Stats {
        /// One JSON object per line, as `cdb_obs::export::line_json`.
        json: String,
    },
    /// The request failed with a typed error.
    Err {
        /// The error class.
        code: ErrCode,
        /// Human-readable detail.
        msg: String,
    },
    /// The server is at capacity: try again after the hint. The
    /// request was not executed and left no trace in the WAL.
    Retry {
        /// Suggested client backoff in milliseconds.
        after_hint_ms: u32,
    },
}

impl Response {
    /// Encodes to a frame payload (without the length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        match self {
            Response::Hello { version, server } => {
                b.push(0);
                put_u32(&mut b, *version);
                put_str(&mut b, server);
            }
            Response::Pong => b.push(1),
            Response::Ok => b.push(2),
            Response::Node { id } => {
                b.push(3);
                put_u64(&mut b, *id);
            }
            Response::Value { epoch, value } => {
                b.push(4);
                put_u64(&mut b, *epoch);
                put_atom(&mut b, value);
            }
            Response::Keys { epoch, keys } => {
                b.push(5);
                put_u64(&mut b, *epoch);
                put_u32(&mut b, keys.len() as u32);
                for k in keys {
                    put_str(&mut b, k);
                }
            }
            Response::Epoch { epoch } => {
                b.push(6);
                put_u64(&mut b, *epoch);
            }
            Response::Version { id } => {
                b.push(7);
                put_u32(&mut b, *id);
            }
            Response::Stats { json } => {
                b.push(8);
                put_str(&mut b, json);
            }
            Response::Err { code, msg } => {
                b.push(9);
                b.push(*code as u8);
                put_str(&mut b, msg);
            }
            Response::Retry { after_hint_ms } => {
                b.push(10);
                put_u32(&mut b, *after_hint_ms);
            }
        }
        b
    }

    /// Decodes a frame payload. The whole payload must be consumed.
    pub fn decode(bytes: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader::new(bytes);
        let resp = match r.u8()? {
            0 => Response::Hello {
                version: r.u32()?,
                server: r.str()?,
            },
            1 => Response::Pong,
            2 => Response::Ok,
            3 => Response::Node { id: r.u64()? },
            4 => Response::Value {
                epoch: r.u64()?,
                value: r.atom()?,
            },
            5 => {
                let epoch = r.u64()?;
                // Each key is at least 4 bytes (an empty string's
                // length prefix).
                let n = r.seq_len(4)?;
                let mut keys = Vec::with_capacity(n);
                for _ in 0..n {
                    keys.push(r.str()?);
                }
                Response::Keys { epoch, keys }
            }
            6 => Response::Epoch { epoch: r.u64()? },
            7 => Response::Version { id: r.u32()? },
            8 => Response::Stats { json: r.str()? },
            9 => Response::Err {
                code: ErrCode::from_tag(r.u8()?)?,
                msg: r.str()?,
            },
            10 => Response::Retry {
                after_hint_ms: r.u32()?,
            },
            t => return Err(WireError::BadTag("response", t)),
        };
        r.finish()?;
        Ok(resp)
    }
}

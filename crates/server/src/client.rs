//! The client half of the protocol: typed request helpers over any
//! [`Transport`]. `cdbsh connect` uses this over TCP; the test
//! harnesses use it over in-memory pipes.

use std::fmt;
use std::time::Duration;

use cdb_model::Atom;

use crate::proto::{
    read_frame, write_frame, ErrCode, FrameError, Request, Response, PROTOCOL_VERSION,
};
use crate::transport::{TcpTransport, Transport, TransportError};

/// A client-side failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// The connection broke.
    Transport(TransportError),
    /// The byte stream was not valid frames.
    Frame(FrameError),
    /// A frame decoded to garbage.
    Wire(String),
    /// The server answered with a typed error.
    Server {
        /// The error class.
        code: ErrCode,
        /// Human-readable detail.
        msg: String,
    },
    /// The server shed the request; retry after the hint.
    Shed {
        /// Suggested backoff in milliseconds.
        after_hint_ms: u32,
    },
    /// The server sent a well-formed response of the wrong kind.
    Unexpected(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "{e}"),
            ClientError::Frame(e) => write!(f, "{e}"),
            ClientError::Wire(m) => write!(f, "bad response payload: {m}"),
            ClientError::Server { code, msg } => write!(f, "server error [{code}]: {msg}"),
            ClientError::Shed { after_hint_ms } => {
                write!(f, "server busy; retry in {after_hint_ms}ms")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected response (wanted {what})"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<TransportError> for ClientError {
    fn from(e: TransportError) -> Self {
        ClientError::Transport(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// A connected protocol client. Construct with [`Client::dial`] (TCP)
/// or [`Client::over`] (any transport), then call [`Client::hello`]
/// before anything else.
pub struct Client<T: Transport> {
    transport: T,
    last_trace: cdb_obs::TraceId,
}

impl Client<TcpTransport> {
    /// Connects over TCP to `addr` (e.g. `"127.0.0.1:7070"`).
    pub fn dial(addr: &str) -> std::io::Result<Client<TcpTransport>> {
        Ok(Client::over(TcpTransport::dial(addr)?))
    }
}

impl<T: Transport> Client<T> {
    /// Wraps an already-connected transport.
    pub fn over(transport: T) -> Client<T> {
        Client {
            transport,
            last_trace: cdb_obs::TraceId(0),
        }
    }

    /// One request/response exchange, untyped.
    ///
    /// When tracing is on, the exchange runs under a trace: the
    /// ambient trace id if the caller rooted one, else a fresh root —
    /// and that id is stamped onto the wire frame
    /// ([`Request::encode_traced`]) so the server's spans join it.
    /// The id is remembered ([`Client::last_trace`]) for post-hoc
    /// span-tree merging. Introspection requests (`Stats`,
    /// `TraceDump`) are never traced: they must not perturb the trace
    /// they are reading back.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        let introspection = matches!(req, Request::Stats | Request::TraceDump);
        let traced = cdb_obs::tracing_enabled() && !introspection;
        let mut _root = None;
        let payload = if traced {
            let mut trace = cdb_obs::current_trace().unwrap_or(cdb_obs::TraceId(0));
            if trace.0 == 0 {
                _root = Some(cdb_obs::trace_root());
                trace = cdb_obs::current_trace().unwrap_or(cdb_obs::TraceId(0));
            }
            self.last_trace = trace;
            req.encode_traced(trace)
        } else {
            req.encode()
        };
        let _span = cdb_obs::SpanGuard::enter("client.req");
        write_frame(&mut self.transport, &payload)?;
        let payload = read_frame(&mut self.transport)?
            .ok_or(ClientError::Transport(TransportError::Closed))?;
        Response::decode(&payload).map_err(|e| ClientError::Wire(e.to_string()))
    }

    /// The trace id of the most recent traced exchange (zero when
    /// tracing was never on). `cdbsh trace merged` filters the merged
    /// client+server span dump down to this id.
    pub fn last_trace(&self) -> cdb_obs::TraceId {
        self.last_trace
    }

    /// Like [`Client::request`], but honours `Retry` responses by
    /// sleeping the hinted backoff, up to `attempts` tries total.
    pub fn request_retrying(
        &mut self,
        req: &Request,
        attempts: usize,
    ) -> Result<Response, ClientError> {
        let mut left = attempts.max(1);
        loop {
            match self.request(req)? {
                Response::Retry { after_hint_ms } if left > 1 => {
                    left -= 1;
                    std::thread::sleep(Duration::from_millis(u64::from(after_hint_ms)));
                }
                Response::Retry { after_hint_ms } => {
                    return Err(ClientError::Shed { after_hint_ms })
                }
                resp => return Ok(resp),
            }
        }
    }

    /// The mandatory handshake. Returns the server's database name.
    pub fn hello(&mut self, client_name: &str) -> Result<String, ClientError> {
        match self.checked(&Request::Hello {
            version: PROTOCOL_VERSION,
            client: client_name.to_string(),
        })? {
            Response::Hello { server, .. } => Ok(server),
            _ => Err(ClientError::Unexpected("hello")),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.checked(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(ClientError::Unexpected("pong")),
        }
    }

    /// Adds an entry; returns its node id.
    pub fn add(
        &mut self,
        curator: &str,
        time: u64,
        key: &str,
        fields: Vec<(String, Atom)>,
    ) -> Result<u64, ClientError> {
        match self.checked(&Request::Add {
            curator: curator.to_string(),
            time,
            key: key.to_string(),
            fields,
        })? {
            Response::Node { id } => Ok(id),
            _ => Err(ClientError::Unexpected("node id")),
        }
    }

    /// Edits (or adds) a field.
    pub fn edit(
        &mut self,
        curator: &str,
        time: u64,
        key: &str,
        field: &str,
        value: Atom,
    ) -> Result<(), ClientError> {
        match self.checked(&Request::Edit {
            curator: curator.to_string(),
            time,
            key: key.to_string(),
            field: field.to_string(),
            value,
        })? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Unexpected("ok")),
        }
    }

    /// Deletes an entry.
    pub fn delete(&mut self, curator: &str, time: u64, key: &str) -> Result<(), ClientError> {
        match self.checked(&Request::Delete {
            curator: curator.to_string(),
            time,
            key: key.to_string(),
        })? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Unexpected("ok")),
        }
    }

    /// Fuses `absorbed` into `kept`.
    pub fn merge(
        &mut self,
        curator: &str,
        time: u64,
        kept: &str,
        absorbed: &str,
    ) -> Result<(), ClientError> {
        match self.checked(&Request::Merge {
            curator: curator.to_string(),
            time,
            kept: kept.to_string(),
            absorbed: absorbed.to_string(),
        })? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Unexpected("ok")),
        }
    }

    /// Attaches an annotation.
    pub fn annotate(
        &mut self,
        key: &str,
        field: Option<&str>,
        author: &str,
        text: &str,
        time: u64,
    ) -> Result<(), ClientError> {
        match self.checked(&Request::Annotate {
            key: key.to_string(),
            field: field.map(str::to_string),
            author: author.to_string(),
            text: text.to_string(),
            time,
        })? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Unexpected("ok")),
        }
    }

    /// Publishes an archived version; returns its id.
    pub fn publish(&mut self, label: &str) -> Result<u32, ClientError> {
        match self.checked(&Request::Publish {
            label: label.to_string(),
        })? {
            Response::Version { id } => Ok(id),
            _ => Err(ClientError::Unexpected("version id")),
        }
    }

    /// Reads one field; returns it with the serving epoch.
    pub fn get(&mut self, key: &str, field: &str) -> Result<(u64, Atom), ClientError> {
        match self.checked(&Request::GetField {
            key: key.to_string(),
            field: field.to_string(),
        })? {
            Response::Value { epoch, value } => Ok((epoch, value)),
            _ => Err(ClientError::Unexpected("value")),
        }
    }

    /// Lists entry keys; returns them with the serving epoch.
    pub fn entries(&mut self) -> Result<(u64, Vec<String>), ClientError> {
        match self.checked(&Request::Entries)? {
            Response::Keys { epoch, keys } => Ok((epoch, keys)),
            _ => Err(ClientError::Unexpected("keys")),
        }
    }

    /// Re-pins the session to the latest snapshot; returns the epoch.
    pub fn refresh(&mut self) -> Result<u64, ClientError> {
        match self.checked(&Request::Refresh)? {
            Response::Epoch { epoch } => Ok(epoch),
            _ => Err(ClientError::Unexpected("epoch")),
        }
    }

    /// The session's pinned epoch.
    pub fn epoch(&mut self) -> Result<u64, ClientError> {
        match self.checked(&Request::Epoch)? {
            Response::Epoch { epoch } => Ok(epoch),
            _ => Err(ClientError::Unexpected("epoch")),
        }
    }

    /// A line-JSON metrics dump from the server.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        match self.checked(&Request::Stats)? {
            Response::Stats { json } => Ok(json),
            _ => Err(ClientError::Unexpected("stats")),
        }
    }

    /// A line-JSON dump of the server's recent span events (for
    /// merging with the local rings via
    /// `cdb_obs::export::parse_span_lines` + `merge_span_dumps`).
    pub fn trace_dump(&mut self) -> Result<String, ClientError> {
        match self.checked(&Request::TraceDump)? {
            Response::Stats { json } => Ok(json),
            _ => Err(ClientError::Unexpected("trace dump")),
        }
    }

    /// Orderly goodbye.
    pub fn close(&mut self) -> Result<(), ClientError> {
        match self.checked(&Request::Close)? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Unexpected("ok")),
        }
    }

    /// Sends a request and lifts `Err`/`Retry` responses into
    /// [`ClientError`], leaving success variants for the caller.
    fn checked(&mut self, req: &Request) -> Result<Response, ClientError> {
        match self.request(req)? {
            Response::Err { code, msg } => Err(ClientError::Server { code, msg }),
            Response::Retry { after_hint_ms } => Err(ClientError::Shed { after_hint_ms }),
            resp => Ok(resp),
        }
    }
}

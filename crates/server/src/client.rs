//! A blocking client for `sbfd`, built by [`ClientBuilder`].
//!
//! Each typed method writes a single pre-assembled frame
//! (`Request::encode` builds header + body in one buffer) and blocks for
//! the matching response frame; [`SbfClient::pipeline`] writes a whole
//! batch of frames in one syscall and reads the responses back in order —
//! the client side of the server's pipelined parsing. The client enforces
//! the same frame-size cap on responses that the server enforces on
//! requests — a client talking to a hostile or broken endpoint never
//! allocates more than the cap.
//!
//! Construction goes through the builder:
//!
//! ```no_run
//! use std::time::Duration;
//! use sbf_server::SbfClient;
//!
//! let mut client = SbfClient::builder("127.0.0.1:7070")
//!     .io_timeout(Some(Duration::from_secs(5)))
//!     .max_frame(1 << 20)
//!     .connect()?;
//! client.ping()?;
//! # Ok::<(), sbf_server::ClientError>(())
//! ```

use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use sbf_db::wire::WireError;

use crate::proto::{self, ErrorCode, ProtoError, Request, RequestRef, Response, MAX_FRAME_DEFAULT};

/// Configures and opens an [`SbfClient`] connection. Obtained from
/// [`SbfClient::builder`]; every knob is optional.
#[derive(Debug)]
pub struct ClientBuilder<A: ToSocketAddrs> {
    addr: A,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    connect_timeout: Option<Duration>,
    max_frame: usize,
    nodelay: bool,
}

impl<A: ToSocketAddrs> ClientBuilder<A> {
    /// Blocking-read timeout on the open connection; `None` (default)
    /// waits forever.
    pub fn read_timeout(mut self, t: Option<Duration>) -> Self {
        self.read_timeout = t;
        self
    }

    /// Blocking-write timeout on the open connection; `None` (default)
    /// waits forever.
    pub fn write_timeout(mut self, t: Option<Duration>) -> Self {
        self.write_timeout = t;
        self
    }

    /// Sets read and write timeouts together (the common case).
    pub fn io_timeout(self, t: Option<Duration>) -> Self {
        self.read_timeout(t).write_timeout(t)
    }

    /// Bounds the TCP connect itself; `None` (default) uses the OS
    /// default. With a timeout set, the address must resolve to at least
    /// one endpoint (only the first is tried, matching
    /// [`TcpStream::connect_timeout`]).
    pub fn connect_timeout(mut self, t: Option<Duration>) -> Self {
        self.connect_timeout = t;
        self
    }

    /// Caps how large a response frame the client will accept (defaults
    /// to [`MAX_FRAME_DEFAULT`]).
    pub fn max_frame(mut self, cap: usize) -> Self {
        self.max_frame = cap;
        self
    }

    /// Whether to set `TCP_NODELAY` (default `true`; request/response
    /// traffic is latency-bound, not throughput-bound).
    pub fn nodelay(mut self, on: bool) -> Self {
        self.nodelay = on;
        self
    }

    /// Opens the connection with the configured knobs.
    pub fn connect(self) -> Result<SbfClient, ClientError> {
        let stream = match self.connect_timeout {
            None => TcpStream::connect(&self.addr)?,
            Some(t) => {
                let addr = self.addr.to_socket_addrs()?.next().ok_or_else(|| {
                    ClientError::Io(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "address resolved to no endpoints",
                    ))
                })?;
                TcpStream::connect_timeout(&addr, t)?
            }
        };
        if self.nodelay {
            stream.set_nodelay(true)?;
        }
        stream.set_read_timeout(self.read_timeout)?;
        stream.set_write_timeout(self.write_timeout)?;
        Ok(SbfClient {
            stream,
            max_frame: self.max_frame,
        })
    }
}

/// A client-side failure: transport, framing, or a server error frame.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server's bytes did not parse as a response frame.
    Proto(ProtoError),
    /// The server answered with a typed error frame.
    Server {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable context from the server.
        message: String,
    },
    /// The server answered with a well-formed response of the wrong kind
    /// for the request (e.g. `Ok` where a value was expected).
    Unexpected(&'static str),
    /// The server declared a response frame larger than the client's cap.
    Oversized {
        /// Declared frame length.
        declared: usize,
        /// The client's cap.
        cap: usize,
    },
    /// A filter envelope the server shipped did not decode within the
    /// caller's counter cap.
    Envelope(WireError),
    /// A filter envelope the server shipped decoded, but its `(m, k, seed)`
    /// differs from the geometry the caller expects.
    Geometry {
        /// The caller's geometry.
        expected: (usize, usize, u64),
        /// The envelope's geometry.
        got: (usize, usize, u64),
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Proto(e) => write!(f, "protocol: {e}"),
            ClientError::Server { code, message } => write!(f, "server error ({code}): {message}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response kind: {what}"),
            ClientError::Oversized { declared, cap } => {
                write!(f, "response frame of {declared} bytes exceeds cap {cap}")
            }
            ClientError::Envelope(e) => write!(f, "filter envelope: {e}"),
            ClientError::Geometry { expected, got } => write!(
                f,
                "filter envelope geometry (m={}, k={}, seed={}) != expected (m={}, k={}, seed={})",
                got.0, got.1, got.2, expected.0, expected.1, expected.2
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// A blocking `sbfd` connection.
#[derive(Debug)]
pub struct SbfClient {
    stream: TcpStream,
    max_frame: usize,
}

impl SbfClient {
    /// Starts configuring a connection to `addr`; see [`ClientBuilder`].
    pub fn builder<A: ToSocketAddrs>(addr: A) -> ClientBuilder<A> {
        ClientBuilder {
            addr,
            read_timeout: None,
            write_timeout: None,
            connect_timeout: None,
            max_frame: MAX_FRAME_DEFAULT,
            nodelay: true,
        }
    }

    /// Sends one request and reads one response, surfacing server error
    /// frames as [`ClientError::Server`]. A request too large for its
    /// `u32` length prefix fails client-side as [`ClientError::Proto`]
    /// (`Oversized`) before any bytes are written.
    pub fn roundtrip(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.roundtrip_ref(&req.view())
    }

    /// [`roundtrip`](Self::roundtrip) for a borrowed request: encoded
    /// straight from the caller's keys, with no owned copy of them.
    pub(crate) fn roundtrip_ref(&mut self, req: &RequestRef<'_>) -> Result<Response, ClientError> {
        self.send(req)?;
        match self.read_response()? {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            resp => Ok(resp),
        }
    }

    /// Writes one request frame without waiting for its response — the
    /// scatter half of the cluster client's fan-out ([`recv`](Self::recv)
    /// is the gather half). Pairs must stay balanced per connection or
    /// responses desynchronize.
    pub(crate) fn send(&mut self, req: &RequestRef<'_>) -> Result<(), ClientError> {
        self.stream.write_all(&req.encode()?)?;
        self.stream.flush()?;
        Ok(())
    }

    /// Reads one response frame for a previously [`send`](Self::send)-ed
    /// request. Server error frames come back as [`Response::Error`], not
    /// `Err` — the caller decides per-node how to react.
    pub(crate) fn recv(&mut self) -> Result<Response, ClientError> {
        self.read_response()
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        let mut header = [0u8; 4];
        self.stream.read_exact(&mut header)?;
        let len = u32::from_le_bytes(header) as usize;
        if len == 0 {
            return Err(ProtoError::Truncated.into());
        }
        if len > self.max_frame {
            return Err(ClientError::Oversized {
                declared: len,
                cap: self.max_frame,
            });
        }
        let mut body = vec![0u8; len];
        self.stream.read_exact(&mut body)?;
        Ok(Response::decode(body[0], &body[1..])?)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.roundtrip_ref(&RequestRef::Ping)? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Unexpected("ping expects Ok")),
        }
    }

    /// Adds `count` occurrences of `key`.
    pub fn insert(&mut self, key: &[u8], count: u64) -> Result<(), ClientError> {
        match self.roundtrip_ref(&RequestRef::Insert { count, key })? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Unexpected("insert expects Ok")),
        }
    }

    /// Removes `count` occurrences of `key`; underflow comes back as a
    /// [`ClientError::Server`] with [`ErrorCode::Underflow`].
    pub fn remove(&mut self, key: &[u8], count: u64) -> Result<(), ClientError> {
        match self.roundtrip_ref(&RequestRef::Remove { count, key })? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Unexpected("remove expects Ok")),
        }
    }

    /// The server's one-sided multiplicity estimate for `key`.
    pub fn estimate(&mut self, key: &[u8]) -> Result<u64, ClientError> {
        match self.roundtrip_ref(&RequestRef::Estimate { key })? {
            Response::Value(v) => Ok(v),
            _ => Err(ClientError::Unexpected("estimate expects Value")),
        }
    }

    /// Adds one occurrence of every key in one frame (the hot path).
    pub fn insert_batch<K: AsRef<[u8]>>(&mut self, keys: &[K]) -> Result<(), ClientError> {
        match self.roundtrip_ref(&RequestRef::InsertBatch {
            keys: proto::borrow_keys(keys),
        })? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Unexpected("insert_batch expects Ok")),
        }
    }

    /// Estimates every key in one frame; answers come back in input order.
    pub fn estimate_batch<K: AsRef<[u8]>>(&mut self, keys: &[K]) -> Result<Vec<u64>, ClientError> {
        match self.roundtrip_ref(&RequestRef::EstimateBatch {
            keys: proto::borrow_keys(keys),
        })? {
            Response::Values(vs) => {
                if vs.len() == keys.len() {
                    Ok(vs)
                } else {
                    Err(ClientError::Unexpected("estimate_batch answer count"))
                }
            }
            _ => Err(ClientError::Unexpected("estimate_batch expects Values")),
        }
    }

    /// Ships a wire-encoded [`sbf_db::wire::FilterEnvelope`] for §5 union
    /// into the server's filter.
    pub fn merge(&mut self, envelope: &[u8]) -> Result<(), ClientError> {
        match self.roundtrip_ref(&RequestRef::Merge { envelope })? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Unexpected("merge expects Ok")),
        }
    }

    /// Fetches the server's whole filter as an encoded envelope.
    pub fn snapshot(&mut self) -> Result<Vec<u8>, ClientError> {
        match self.roundtrip_ref(&RequestRef::Snapshot)? {
            Response::Frame(bytes) => Ok(bytes),
            _ => Err(ClientError::Unexpected("snapshot expects Frame")),
        }
    }

    /// Fetches the server's telemetry as Prometheus exposition text.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        match self.roundtrip_ref(&RequestRef::Stats)? {
            Response::Text(text) => Ok(text),
            _ => Err(ClientError::Unexpected("stats expects Text")),
        }
    }

    /// Asks the server to drain and exit; the Ok answer confirms the
    /// drain has begun, not that it has finished.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.roundtrip_ref(&RequestRef::Shutdown)? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Unexpected("shutdown expects Ok")),
        }
    }

    /// Cluster handshake: verifies the server's filter geometry matches
    /// `(m, k, seed)` before any data flows. A mismatched server answers
    /// with [`ErrorCode::Incompatible`], surfaced here as
    /// [`ClientError::Server`].
    pub fn hello(&mut self, m: usize, k: usize, seed: u64) -> Result<(), ClientError> {
        match self.roundtrip_ref(&RequestRef::Hello {
            m: m as u64,
            k: k as u64,
            seed,
        })? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Unexpected("hello expects Ok")),
        }
    }

    /// Fetches the server's filter envelope for a §5.3 Bloomjoin, with
    /// the geometry check done server-side: a server whose filter is not
    /// `(m, k, seed)` refuses with [`ErrorCode::Incompatible`] instead of
    /// shipping an envelope the caller could not multiply into.
    pub fn join_filter(&mut self, m: usize, k: usize, seed: u64) -> Result<Vec<u8>, ClientError> {
        match self.roundtrip_ref(&RequestRef::JoinFilter {
            m: m as u64,
            k: k as u64,
            seed,
        })? {
            Response::Frame(bytes) => Ok(bytes),
            _ => Err(ClientError::Unexpected("join_filter expects Frame")),
        }
    }

    /// Runs a cross-node spectral Bloomjoin: the server dials `peer`,
    /// fetches its filter, multiplies it into its own (§5.3), and answers
    /// one joined-frequency estimate per key in input order (zeroed below
    /// `threshold`).
    pub fn join_plan<K: AsRef<[u8]>>(
        &mut self,
        peer: &str,
        threshold: u64,
        keys: &[K],
    ) -> Result<Vec<u64>, ClientError> {
        match self.roundtrip_ref(&RequestRef::JoinPlan {
            peer,
            threshold,
            keys: proto::borrow_keys(keys),
        })? {
            Response::Values(vs) => {
                if vs.len() == keys.len() {
                    Ok(vs)
                } else {
                    Err(ClientError::Unexpected("join_plan answer count"))
                }
            }
            _ => Err(ClientError::Unexpected("join_plan expects Values")),
        }
    }

    /// Pipelines a batch: writes every request's frame back-to-back in
    /// one buffer (one `write(2)` for the lot — the client side of the
    /// server's pipelined parsing), then reads the responses back in
    /// request order.
    ///
    /// Unlike [`roundtrip`](Self::roundtrip), a server error frame does
    /// **not** abort the batch: it comes back in place as
    /// [`Response::Error`], because responses for the requests after it
    /// are already on the wire. Only transport/framing failures error the
    /// call.
    pub fn pipeline(&mut self, reqs: &[Request]) -> Result<Vec<Response>, ClientError> {
        let mut wire = Vec::new();
        for req in reqs {
            req.view().encode_into(&mut wire)?;
        }
        self.stream.write_all(&wire)?;
        self.stream.flush()?;
        let mut out = Vec::with_capacity(reqs.len());
        for _ in reqs {
            out.push(self.read_response()?);
        }
        Ok(out)
    }

    /// Sends pre-encoded frame bytes verbatim — test hook for driving the
    /// server with malformed input — then reads one response frame.
    pub fn raw_roundtrip(&mut self, frame: &[u8]) -> Result<Response, ClientError> {
        self.stream.write_all(frame)?;
        self.stream.flush()?;
        self.read_response()
    }

    /// Sends one frame given its body (`opcode + payload`, no length
    /// prefix), then reads one response frame. The 4-byte prefix and the
    /// borrowed body go out in vectored writes, so the frame is never
    /// copied into one buffer. `Unsupported` if the body is too long for
    /// the prefix.
    pub(crate) fn body_roundtrip(&mut self, body: &[u8]) -> Result<Response, ClientError> {
        let len = u32::try_from(body.len())
            .map_err(|_| io::Error::new(io::ErrorKind::Unsupported, "frame body over 4 GiB"))?
            .to_le_bytes();
        let mut bufs = [IoSlice::new(&len), IoSlice::new(body)];
        let mut bufs = &mut bufs[..];
        while !bufs.is_empty() {
            match self.stream.write_vectored(bufs) {
                Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero).into()),
                Ok(n) => IoSlice::advance_slices(&mut bufs, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        self.stream.flush()?;
        self.read_response()
    }
}

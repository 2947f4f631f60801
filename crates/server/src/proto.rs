//! The `sbfd` wire protocol: length-prefixed binary frames.
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! +----------------+--------+---------------------+
//! | len: u32 LE    | opcode | payload (len−1 B)   |
//! +----------------+--------+---------------------+
//! ```
//!
//! `len` counts the opcode byte plus the payload, so an empty-payload
//! message is `len = 1`. All integers are little-endian. Keys are opaque
//! byte strings (the sketches canonicalize them via `sbf_hash::Key` for
//! `[u8]`), counter payloads reuse `sbf_db::wire`'s Elias-δ framed form —
//! the SNAPSHOT response body and the MERGE request body are exactly a
//! [`sbf_db::wire::FilterEnvelope`], so a snapshot pulled over the socket
//! can be fed to `sbf merge`, `sbf info`, or another server's MERGE
//! unchanged.
//!
//! [`RequestRef`] is the request codec: it decodes a frame body in place,
//! its keys and blobs borrowing the body, and encodes straight into a
//! caller's buffer. [`Request`], the owned form, converts to and from it,
//! so there is one request parser and one request encoder.
//!
//! Decoders here face attacker-controlled bytes. They validate every
//! length field against the bytes actually present *before* allocating
//! (the batch paths additionally bound element counts by the payload
//! size), return [`ProtoError`] instead of panicking, and are fuzzed in
//! `tests/wire_adversarial.rs` alongside the counter decoder.

use sbf_db::framing::{self, EncodeError};
use sbf_db::wire::FilterEnvelope;
use spectral_bloom::PlainCounters;

/// Default cap on a single frame's length field, requests and responses
/// alike (8 MiB — a 64 Ki-key batch of 100-byte keys fits comfortably).
pub const MAX_FRAME_DEFAULT: usize = 8 << 20;

/// A client-to-server command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Ok`].
    Ping,
    /// Add `count` occurrences of `key`.
    Insert {
        /// Multiplicity to add.
        count: u64,
        /// Opaque key bytes.
        key: Vec<u8>,
    },
    /// Remove `count` occurrences of `key` (may fail with `Underflow`).
    Remove {
        /// Multiplicity to remove.
        count: u64,
        /// Opaque key bytes.
        key: Vec<u8>,
    },
    /// Query the multiplicity estimate of `key`.
    Estimate {
        /// Opaque key bytes.
        key: Vec<u8>,
    },
    /// Add one occurrence of every key (the batched hot path).
    InsertBatch {
        /// Opaque keys, applied in order.
        keys: Vec<Vec<u8>>,
    },
    /// Query every key; answered with [`Response::Values`] in input order.
    EstimateBatch {
        /// Opaque keys.
        keys: Vec<Vec<u8>>,
    },
    /// §5 union: add a client-shipped counter frame into the live sketch.
    /// The body is a [`FilterEnvelope`], kept as raw bytes here so the
    /// expensive decode happens once, under the server's counter cap.
    Merge {
        /// Encoded [`FilterEnvelope`] bytes.
        envelope: Vec<u8>,
    },
    /// Fetch the server's whole filter as a wire-encoded envelope.
    Snapshot,
    /// Fetch the server's telemetry as Prometheus exposition text.
    Stats,
    /// Begin graceful shutdown: stop accepting, drain in-flight requests,
    /// flush a final snapshot if configured.
    Shutdown,
    /// Cluster handshake: the client declares the geometry it expects.
    /// Answered with [`Response::Ok`] on a match, `Incompatible` otherwise
    /// — a scatter-gather client refuses to talk to a node whose estimates
    /// it could not combine one-sidedly.
    Hello {
        /// Counters per filter the client expects.
        m: u64,
        /// Hash functions per filter the client expects.
        k: u64,
        /// Hash seed the client expects.
        seed: u64,
    },
    /// Cross-node spectral Bloomjoin (§5.3 over live servers): the server
    /// fetches the peer's filter via [`Request::JoinFilter`], multiplies it
    /// counter-wise with its own snapshot, runs the verification round, and
    /// answers [`Response::Values`] with one product estimate per candidate
    /// key (entries below `threshold` zeroed).
    JoinPlan {
        /// The peer node's `host:port`, dialed by the serving node.
        peer: String,
        /// `HAVING count(*) >= threshold` cut; `0`/`1` reports everything.
        threshold: u64,
        /// Candidate join keys (site 1's distinct values), answered in order.
        keys: Vec<Vec<u8>>,
    },
    /// Fetch the server's whole filter for a join, geometry-checked: the
    /// body is the same envelope SNAPSHOT returns, but the server refuses
    /// (`Incompatible`) unless `(m, k, seed)` match — multiplying filters
    /// with different hash functions would be meaningless (§5.3's
    /// "identical in their parameters" precondition).
    JoinFilter {
        /// Counters per filter the joining node expects.
        m: u64,
        /// Hash functions per filter the joining node expects.
        k: u64,
        /// Hash seed the joining node expects.
        seed: u64,
    },
}

/// A request borrowing the frame body it was decoded from (or the owned
/// [`Request`] it views): the protocol's only request decoder and encoder.
/// Decoding a batch allocates one vector of slices, not one buffer per
/// key. Variants mirror [`Request`]'s one for one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestRef<'a> {
    /// [`Request::Ping`].
    Ping,
    /// [`Request::Insert`].
    Insert {
        /// Multiplicity to add.
        count: u64,
        /// Opaque key bytes.
        key: &'a [u8],
    },
    /// [`Request::Remove`].
    Remove {
        /// Multiplicity to remove.
        count: u64,
        /// Opaque key bytes.
        key: &'a [u8],
    },
    /// [`Request::Estimate`].
    Estimate {
        /// Opaque key bytes.
        key: &'a [u8],
    },
    /// [`Request::InsertBatch`].
    InsertBatch {
        /// Opaque keys, applied in order.
        keys: Vec<&'a [u8]>,
    },
    /// [`Request::EstimateBatch`].
    EstimateBatch {
        /// Opaque keys.
        keys: Vec<&'a [u8]>,
    },
    /// [`Request::Merge`].
    Merge {
        /// Encoded [`FilterEnvelope`] bytes.
        envelope: &'a [u8],
    },
    /// [`Request::Snapshot`].
    Snapshot,
    /// [`Request::Stats`].
    Stats,
    /// [`Request::Shutdown`].
    Shutdown,
    /// [`Request::Hello`].
    Hello {
        /// Counters per filter the client expects.
        m: u64,
        /// Hash functions per filter the client expects.
        k: u64,
        /// Hash seed the client expects.
        seed: u64,
    },
    /// [`Request::JoinPlan`].
    JoinPlan {
        /// The peer node's `host:port`.
        peer: &'a str,
        /// `HAVING count(*) >= threshold` cut.
        threshold: u64,
        /// Candidate join keys, answered in order.
        keys: Vec<&'a [u8]>,
    },
    /// [`Request::JoinFilter`].
    JoinFilter {
        /// Counters per filter the joining node expects.
        m: u64,
        /// Hash functions per filter the joining node expects.
        k: u64,
        /// Hash seed the joining node expects.
        seed: u64,
    },
}

/// A server-to-client answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Command applied.
    Ok,
    /// A single numeric answer (ESTIMATE).
    Value(u64),
    /// Numeric answers in request order (ESTIMATE batch).
    Values(Vec<u64>),
    /// An encoded [`FilterEnvelope`] (SNAPSHOT).
    Frame(Vec<u8>),
    /// UTF-8 text (STATS).
    Text(String),
    /// A typed protocol or command error; the connection stays usable.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable context.
        message: String,
    },
}

/// Failure classes carried in [`Response::Error`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request frame did not parse.
    BadFrame = 1,
    /// A frame or embedded structure exceeded the server's size caps.
    Oversized = 2,
    /// The opcode byte is not a known request.
    UnknownOp = 3,
    /// A remove would drive a counter below zero; nothing was applied.
    Underflow = 4,
    /// A MERGE envelope disagrees with the server's `(m, k, seed)`.
    Incompatible = 5,
    /// The server is draining and no longer accepts mutations.
    Draining = 6,
    /// A server-side I/O failure (WAL append, fsync): the mutation was NOT
    /// durably logged and must not be treated as acknowledged.
    Io = 7,
    /// A cluster peer could not be reached: the replica refused or dropped
    /// a replication ship (the mutation is applied and logged locally but
    /// NOT acknowledged — retry once the replica link re-syncs), or a
    /// JOIN_PLAN could not dial its peer node.
    Unavailable = 8,
}

impl ErrorCode {
    /// The code an untrusted byte names, if any.
    fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(ErrorCode::BadFrame),
            2 => Some(ErrorCode::Oversized),
            3 => Some(ErrorCode::UnknownOp),
            4 => Some(ErrorCode::Underflow),
            5 => Some(ErrorCode::Incompatible),
            6 => Some(ErrorCode::Draining),
            7 => Some(ErrorCode::Io),
            8 => Some(ErrorCode::Unavailable),
            _ => None,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::BadFrame => "bad frame",
            ErrorCode::Oversized => "oversized",
            ErrorCode::UnknownOp => "unknown op",
            ErrorCode::Underflow => "underflow",
            ErrorCode::Incompatible => "incompatible",
            ErrorCode::Draining => "draining",
            ErrorCode::Io => "io",
            ErrorCode::Unavailable => "unavailable",
        };
        f.write_str(s)
    }
}

/// Why a frame failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoError {
    /// Payload shorter than a length field inside it claims.
    Truncated,
    /// The opcode byte names no known message.
    UnknownOpcode(u8),
    /// A structurally invalid field (bad UTF-8, bad error code, …).
    Malformed(&'static str),
    /// An *encode*-side failure: a field is too large for its `u32` length
    /// prefix. Returned instead of letting `as u32` silently wrap, which
    /// would emit a frame whose header lies about its own length.
    Oversized,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "frame truncated"),
            ProtoError::UnknownOpcode(b) => write!(f, "unknown opcode {b:#04x}"),
            ProtoError::Malformed(what) => write!(f, "malformed frame: {what}"),
            ProtoError::Oversized => write!(f, "field exceeds u32 length prefix"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<EncodeError> for ProtoError {
    fn from(e: EncodeError) -> Self {
        match e {
            EncodeError::Oversized => ProtoError::Oversized,
        }
    }
}

/// Declares the request opcode table. Each row names a [`RequestRef`]
/// variant and writes its wire byte, its metric label and whether it
/// mutates the sketch, once. From the rows it generates `Op` (the byte is
/// its discriminant, so the compiler refuses a byte used twice), the
/// untrusted byte → `Op` decode, `Op::label`, `Op::is_mutation`,
/// [`LABELS`] and `RequestRef::op`. All but the decode are exhaustive
/// matches by variant name, so a row or a variant added on one side alone
/// does not compile.
macro_rules! request_ops {
    ($($variant:ident = $byte:literal, $label:literal, $mutates:literal;)+) => {
        /// A request opcode; its discriminant is its wire byte.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        enum Op {
            $($variant = $byte,)+
        }

        /// Every request's metric label, in opcode order.
        pub(crate) const LABELS: &[&str] = &[$($label,)+];

        impl Op {
            /// Every request opcode, in wire-byte order.
            #[cfg(test)]
            const ALL: &[Op] = &[$(Op::$variant,)+];

            /// The opcode an untrusted byte names, if any.
            fn from_byte(byte: u8) -> Option<Op> {
                match byte {
                    $($byte => Some(Op::$variant),)+
                    _ => None,
                }
            }

            fn label(self) -> &'static str {
                match self {
                    $(Op::$variant => $label,)+
                }
            }

            fn is_mutation(self) -> bool {
                match self {
                    $(Op::$variant => $mutates,)+
                }
            }
        }

        impl RequestRef<'_> {
            fn op(&self) -> Op {
                match self {
                    $(RequestRef::$variant { .. } => Op::$variant,)+
                }
            }
        }
    };
}

// variant = wire byte, metric label, mutates the sketch;
request_ops! {
    Ping = 0x01, "ping", false;
    Insert = 0x02, "insert", true;
    Remove = 0x03, "remove", true;
    Estimate = 0x04, "estimate", false;
    InsertBatch = 0x05, "insert_batch", true;
    EstimateBatch = 0x06, "estimate_batch", false;
    Merge = 0x07, "merge", true;
    Snapshot = 0x08, "snapshot", false;
    Stats = 0x09, "stats", false;
    Shutdown = 0x0A, "shutdown", false;
    Hello = 0x0B, "hello", false;
    JoinPlan = 0x0C, "join_plan", false;
    JoinFilter = 0x0D, "join_filter", false;
}

// Response opcodes (high bit set).
const OP_OK: u8 = 0x80;
const OP_VALUE: u8 = 0x81;
const OP_VALUES: u8 = 0x82;
const OP_FRAME: u8 = 0x83;
const OP_TEXT: u8 = 0x84;
const OP_ERROR: u8 = 0xEE;

/// A cursor over an untrusted payload; every read is length-checked.
struct Scan<'a> {
    rest: &'a [u8],
}

impl<'a> Scan<'a> {
    fn new(rest: &'a [u8]) -> Self {
        Scan { rest }
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        let (head, tail) = self
            .rest
            .split_first_chunk::<4>()
            .ok_or(ProtoError::Truncated)?;
        self.rest = tail;
        Ok(u32::from_le_bytes(*head))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let (head, tail) = self
            .rest
            .split_first_chunk::<8>()
            .ok_or(ProtoError::Truncated)?;
        self.rest = tail;
        Ok(u64::from_le_bytes(*head))
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.rest.len() < n {
            return Err(ProtoError::Truncated);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    /// Everything left in the payload (a trailing key or blob).
    fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.rest)
    }

    /// A `u32`-length-prefixed byte string.
    fn lstring(&mut self) -> Result<&'a [u8], ProtoError> {
        let n = self.u32()? as usize;
        self.bytes(n)
    }

    /// A batch of length-prefixed byte strings. The element count is
    /// validated against the minimum bytes it implies (4 per element)
    /// before the output vector is reserved, so a hostile count cannot
    /// drive a huge allocation. The keys borrow the payload; the vector
    /// of slices is the batch's only allocation.
    fn key_batch(&mut self) -> Result<Vec<&'a [u8]>, ProtoError> {
        let n = self.u32()? as usize;
        if n > self.rest.len() / 4 {
            return Err(ProtoError::Truncated);
        }
        let mut keys = Vec::with_capacity(n);
        for _ in 0..n {
            keys.push(self.lstring()?);
        }
        Ok(keys)
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(ProtoError::Malformed("trailing bytes after payload"))
        }
    }
}

/// Appends one `u32`-length-prefixed byte string; the checked narrowing
/// lives in [`sbf_db::framing`] (satellite 3's single chokepoint).
fn put_lstring(buf: &mut Vec<u8>, bytes: &[u8]) -> Result<(), ProtoError> {
    framing::put_lstring(buf, bytes)?;
    Ok(())
}

/// Appends one frame — length prefix, `opcode`, then the `payload_len`
/// bytes `payload` writes — to `out`. The length field is a checked
/// conversion via [`framing::u32_len`], made before anything is written:
/// a payload past `u32::MAX − 1` bytes is [`ProtoError::Oversized`], not a
/// frame that silently declares itself ~4 GiB shorter than it is. On any
/// error `out` is truncated back to where the frame would have started,
/// so a caller that appends frames back to back never leaves half of one.
fn put_frame(
    out: &mut Vec<u8>,
    opcode: u8,
    payload_len: usize,
    payload: impl FnOnce(&mut Vec<u8>) -> Result<(), ProtoError>,
) -> Result<(), ProtoError> {
    let len = framing::u32_len(1 + payload_len)?;
    let start = out.len();
    out.reserve(5 + payload_len);
    out.extend_from_slice(&len.to_le_bytes());
    out.push(opcode);
    let written = payload(out);
    if written.is_err() {
        out.truncate(start);
    }
    debug_assert!(written.is_err() || out.len() == start + 5 + payload_len);
    written
}

impl Request {
    /// Borrows this request as the [`RequestRef`] view the codec works on.
    pub fn view(&self) -> RequestRef<'_> {
        match self {
            Request::Ping => RequestRef::Ping,
            Request::Insert { count, key } => RequestRef::Insert { count: *count, key },
            Request::Remove { count, key } => RequestRef::Remove { count: *count, key },
            Request::Estimate { key } => RequestRef::Estimate { key },
            Request::InsertBatch { keys } => RequestRef::InsertBatch {
                keys: borrow_keys(keys),
            },
            Request::EstimateBatch { keys } => RequestRef::EstimateBatch {
                keys: borrow_keys(keys),
            },
            Request::Merge { envelope } => RequestRef::Merge { envelope },
            Request::Snapshot => RequestRef::Snapshot,
            Request::Stats => RequestRef::Stats,
            Request::Shutdown => RequestRef::Shutdown,
            Request::Hello { m, k, seed } => RequestRef::Hello {
                m: *m,
                k: *k,
                seed: *seed,
            },
            Request::JoinPlan {
                peer,
                threshold,
                keys,
            } => RequestRef::JoinPlan {
                peer,
                threshold: *threshold,
                keys: borrow_keys(keys),
            },
            Request::JoinFilter { m, k, seed } => RequestRef::JoinFilter {
                m: *m,
                k: *k,
                seed: *seed,
            },
        }
    }

    /// Serializes into a complete frame (header included), ready for one
    /// `write_all` — single-syscall sends keep loopback latency flat.
    ///
    /// Fails with [`ProtoError::Oversized`] when a key, batch, or payload
    /// cannot be described by its `u32` length field.
    pub fn encode(&self) -> Result<Vec<u8>, ProtoError> {
        self.view().encode()
    }

    /// Parses the body of a frame whose header the transport has already
    /// consumed and length-checked ([`RequestRef::decode`], then copied
    /// out of `payload`).
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Self, ProtoError> {
        RequestRef::decode(opcode, payload).map(RequestRef::into_owned)
    }
}

impl<'a> RequestRef<'a> {
    /// Parses the body of a frame whose header the transport has already
    /// consumed and length-checked. Keys, the MERGE envelope and the
    /// JOIN_PLAN peer borrow `payload`.
    pub fn decode(opcode: u8, payload: &'a [u8]) -> Result<Self, ProtoError> {
        let op = Op::from_byte(opcode).ok_or(ProtoError::UnknownOpcode(opcode))?;
        let mut s = Scan::new(payload);
        let req = match op {
            Op::Ping => RequestRef::Ping,
            Op::Insert => RequestRef::Insert {
                count: s.u64()?,
                key: s.rest(),
            },
            Op::Remove => RequestRef::Remove {
                count: s.u64()?,
                key: s.rest(),
            },
            Op::Estimate => RequestRef::Estimate { key: s.rest() },
            Op::InsertBatch => RequestRef::InsertBatch {
                keys: s.key_batch()?,
            },
            Op::EstimateBatch => RequestRef::EstimateBatch {
                keys: s.key_batch()?,
            },
            Op::Merge => RequestRef::Merge { envelope: s.rest() },
            Op::Snapshot => RequestRef::Snapshot,
            Op::Stats => RequestRef::Stats,
            Op::Shutdown => RequestRef::Shutdown,
            Op::Hello => RequestRef::Hello {
                m: s.u64()?,
                k: s.u64()?,
                seed: s.u64()?,
            },
            Op::JoinPlan => RequestRef::JoinPlan {
                threshold: s.u64()?,
                peer: std::str::from_utf8(s.lstring()?)
                    .map_err(|_| ProtoError::Malformed("join peer address is not UTF-8"))?,
                keys: s.key_batch()?,
            },
            Op::JoinFilter => RequestRef::JoinFilter {
                m: s.u64()?,
                k: s.u64()?,
                seed: s.u64()?,
            },
        };
        s.finish()?;
        Ok(req)
    }

    /// Copies the borrowed fields out into an owned [`Request`].
    pub fn into_owned(self) -> Request {
        let owned_keys = |keys: Vec<&[u8]>| keys.into_iter().map(<[u8]>::to_vec).collect();
        match self {
            RequestRef::Ping => Request::Ping,
            RequestRef::Insert { count, key } => Request::Insert {
                count,
                key: key.to_vec(),
            },
            RequestRef::Remove { count, key } => Request::Remove {
                count,
                key: key.to_vec(),
            },
            RequestRef::Estimate { key } => Request::Estimate { key: key.to_vec() },
            RequestRef::InsertBatch { keys } => Request::InsertBatch {
                keys: owned_keys(keys),
            },
            RequestRef::EstimateBatch { keys } => Request::EstimateBatch {
                keys: owned_keys(keys),
            },
            RequestRef::Merge { envelope } => Request::Merge {
                envelope: envelope.to_vec(),
            },
            RequestRef::Snapshot => Request::Snapshot,
            RequestRef::Stats => Request::Stats,
            RequestRef::Shutdown => Request::Shutdown,
            RequestRef::Hello { m, k, seed } => Request::Hello { m, k, seed },
            RequestRef::JoinPlan {
                peer,
                threshold,
                keys,
            } => Request::JoinPlan {
                peer: peer.to_string(),
                threshold,
                keys: owned_keys(keys),
            },
            RequestRef::JoinFilter { m, k, seed } => Request::JoinFilter { m, k, seed },
        }
    }

    /// Serializes into a complete frame (header included); see
    /// [`Request::encode`].
    pub fn encode(&self) -> Result<Vec<u8>, ProtoError> {
        let mut out = Vec::new();
        self.encode_into(&mut out)?;
        Ok(out)
    }

    /// Appends the complete frame to `out`, reserving its exact size once.
    /// On error (a field too large for its `u32` length) `out` is left as
    /// it was.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), ProtoError> {
        let payload_len = match self {
            RequestRef::Ping | RequestRef::Snapshot | RequestRef::Stats | RequestRef::Shutdown => 0,
            RequestRef::Insert { key, .. } | RequestRef::Remove { key, .. } => 8 + key.len(),
            RequestRef::Estimate { key } => key.len(),
            RequestRef::InsertBatch { keys } | RequestRef::EstimateBatch { keys } => {
                key_batch_len(keys)
            }
            RequestRef::Merge { envelope } => envelope.len(),
            RequestRef::Hello { .. } | RequestRef::JoinFilter { .. } => 24,
            RequestRef::JoinPlan { peer, keys, .. } => 8 + 4 + peer.len() + key_batch_len(keys),
        };
        put_frame(out, self.op() as u8, payload_len, |p| {
            match self {
                RequestRef::Ping
                | RequestRef::Snapshot
                | RequestRef::Stats
                | RequestRef::Shutdown => {}
                RequestRef::Insert { count, key } | RequestRef::Remove { count, key } => {
                    p.extend_from_slice(&count.to_le_bytes());
                    p.extend_from_slice(key);
                }
                RequestRef::Estimate { key } => p.extend_from_slice(key),
                RequestRef::InsertBatch { keys } | RequestRef::EstimateBatch { keys } => {
                    put_key_batch(p, keys)?;
                }
                RequestRef::Merge { envelope } => p.extend_from_slice(envelope),
                RequestRef::Hello { m, k, seed } | RequestRef::JoinFilter { m, k, seed } => {
                    p.extend_from_slice(&encode_geometry(*m, *k, *seed));
                }
                RequestRef::JoinPlan {
                    peer,
                    threshold,
                    keys,
                } => {
                    p.extend_from_slice(&threshold.to_le_bytes());
                    put_lstring(p, peer.as_bytes())?;
                    put_key_batch(p, keys)?;
                }
            }
            Ok(())
        })
    }

    /// The metric label for this command (see `metrics.rs`).
    pub fn label(&self) -> &'static str {
        self.op().label()
    }

    /// Whether the command mutates the sketch (refused while draining,
    /// and the only records recovery replays).
    pub fn is_mutation(&self) -> bool {
        self.op().is_mutation()
    }
}

/// Borrows owned keys as the slices a [`RequestRef`] batch holds.
pub(crate) fn borrow_keys<K: AsRef<[u8]>>(keys: &[K]) -> Vec<&[u8]> {
    keys.iter().map(AsRef::as_ref).collect()
}

/// The 24-byte `(m, k, seed)` payload shared by HELLO and JOIN_FILTER.
fn encode_geometry(m: u64, k: u64, seed: u64) -> [u8; 24] {
    let mut p = [0u8; 24];
    p[..8].copy_from_slice(&m.to_le_bytes());
    p[8..16].copy_from_slice(&k.to_le_bytes());
    p[16..].copy_from_slice(&seed.to_le_bytes());
    p
}

/// Wire size of a `keys` batch: the count, then each length-prefixed key.
fn key_batch_len(keys: &[&[u8]]) -> usize {
    4 + keys.iter().map(|k| 4 + k.len()).sum::<usize>()
}

fn put_key_batch(p: &mut Vec<u8>, keys: &[&[u8]]) -> Result<(), ProtoError> {
    let n = framing::u32_len(keys.len())?;
    p.extend_from_slice(&n.to_le_bytes());
    for key in keys {
        put_lstring(p, key)?;
    }
    Ok(())
}

impl Response {
    /// Serializes into a complete frame (header included).
    ///
    /// Fails with [`ProtoError::Oversized`] when the body cannot be
    /// described by its `u32` length field.
    pub fn encode(&self) -> Result<Vec<u8>, ProtoError> {
        let mut out = Vec::new();
        self.encode_into(&mut out)?;
        Ok(out)
    }

    /// Appends the complete frame to `out`, reserving its exact size once;
    /// into a buffer that already has room it allocates nothing. On error
    /// `out` is left as it was, so frames appended before it stay framed.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), ProtoError> {
        let (opcode, payload_len) = match self {
            Response::Ok => (OP_OK, 0),
            Response::Value(_) => (OP_VALUE, 8),
            Response::Values(vs) => (OP_VALUES, 4 + 8 * vs.len()),
            Response::Frame(bytes) => (OP_FRAME, bytes.len()),
            Response::Text(text) => (OP_TEXT, text.len()),
            Response::Error { message, .. } => (OP_ERROR, 1 + message.len()),
        };
        put_frame(out, opcode, payload_len, |p| {
            match self {
                Response::Ok => {}
                Response::Value(v) => p.extend_from_slice(&v.to_le_bytes()),
                Response::Values(vs) => {
                    let n = framing::u32_len(vs.len())?;
                    p.extend_from_slice(&n.to_le_bytes());
                    for v in vs {
                        p.extend_from_slice(&v.to_le_bytes());
                    }
                }
                Response::Frame(bytes) => p.extend_from_slice(bytes),
                Response::Text(text) => p.extend_from_slice(text.as_bytes()),
                Response::Error { code, message } => {
                    p.push(*code as u8);
                    p.extend_from_slice(message.as_bytes());
                }
            }
            Ok(())
        })
    }

    /// Parses the body of a response frame.
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Self, ProtoError> {
        let mut s = Scan::new(payload);
        let resp = match opcode {
            OP_OK => Response::Ok,
            OP_VALUE => Response::Value(s.u64()?),
            OP_VALUES => {
                let n = s.u32()? as usize;
                if n > s.rest.len() / 8 {
                    return Err(ProtoError::Truncated);
                }
                let mut vs = Vec::with_capacity(n);
                for _ in 0..n {
                    vs.push(s.u64()?);
                }
                Response::Values(vs)
            }
            OP_FRAME => Response::Frame(s.bytes(s.rest.len())?.to_vec()),
            OP_TEXT => {
                let bytes = s.bytes(s.rest.len())?;
                Response::Text(
                    String::from_utf8(bytes.to_vec())
                        .map_err(|_| ProtoError::Malformed("text response is not UTF-8"))?,
                )
            }
            OP_ERROR => {
                let code_byte = s.bytes(1)?.first().copied().ok_or(ProtoError::Truncated)?;
                let code = ErrorCode::from_byte(code_byte)
                    .ok_or(ProtoError::Malformed("unknown error code"))?;
                let bytes = s.bytes(s.rest.len())?;
                Response::Error {
                    code,
                    message: String::from_utf8_lossy(bytes).into_owned(),
                }
            }
            other => return Err(ProtoError::UnknownOpcode(other)),
        };
        s.finish()?;
        Ok(resp)
    }
}

/// Decodes a MERGE body into an envelope whose counters narrow straight
/// into the served store, mapping decode failures onto protocol error
/// codes. `max_counters` is the server's own `m` — any compatible envelope
/// has exactly that many counters, so a larger claim is rejected before
/// allocation.
pub fn decode_merge_envelope(
    bytes: &[u8],
    max_counters: usize,
) -> Result<FilterEnvelope<PlainCounters>, (ErrorCode, String)> {
    FilterEnvelope::decode_capped_as(bytes, max_counters).map_err(|e| {
        let code = match e {
            sbf_db::wire::WireError::Oversized => ErrorCode::Oversized,
            _ => ErrorCode::BadFrame,
        };
        (code, format!("merge envelope: {e}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let bytes = req.encode().expect("encode");
        let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        assert_eq!(len, bytes.len() - 4, "header length must match body");
        let back = Request::decode(bytes[4], &bytes[5..]).expect("decode");
        assert_eq!(back, req);
        // The borrowed view is the same codec: it decodes to the owned
        // request's view, and appends the same bytes after earlier ones.
        let view = RequestRef::decode(bytes[4], &bytes[5..]).expect("decode view");
        assert_eq!(view, req.view());
        let mut out = b"earlier".to_vec();
        view.encode_into(&mut out).expect("encode view");
        assert_eq!(&out[..7], b"earlier");
        assert_eq!(&out[7..], &bytes[..]);
    }

    fn roundtrip_response(resp: Response) {
        let bytes = resp.encode().expect("encode");
        let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        assert_eq!(len, bytes.len() - 4);
        let back = Response::decode(bytes[4], &bytes[5..]).expect("decode");
        assert_eq!(back, resp);
        let mut out = b"earlier".to_vec();
        resp.encode_into(&mut out).expect("encode in place");
        assert_eq!(&out[..7], b"earlier");
        assert_eq!(&out[7..], &bytes[..]);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Insert {
            count: 3,
            key: b"hello".to_vec(),
        });
        roundtrip_request(Request::Remove {
            count: 1,
            key: vec![],
        });
        roundtrip_request(Request::Estimate {
            key: b"\x00\xff".to_vec(),
        });
        roundtrip_request(Request::InsertBatch {
            keys: vec![b"a".to_vec(), vec![], b"ccc".to_vec()],
        });
        roundtrip_request(Request::EstimateBatch { keys: vec![] });
        roundtrip_request(Request::Merge {
            envelope: vec![1, 2, 3],
        });
        roundtrip_request(Request::Snapshot);
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::Hello {
            m: 1 << 16,
            k: 5,
            seed: 42,
        });
        roundtrip_request(Request::JoinPlan {
            peer: "127.0.0.1:7071".into(),
            threshold: 8,
            keys: vec![b"a".to_vec(), vec![], b"ccc".to_vec()],
        });
        roundtrip_request(Request::JoinFilter {
            m: 64,
            k: 3,
            seed: u64::MAX,
        });
    }

    #[test]
    fn join_plan_rejects_non_utf8_peer() {
        let bytes = Request::JoinPlan {
            peer: "x".into(),
            threshold: 1,
            keys: vec![],
        }
        .encode()
        .expect("encode");
        // Corrupt the single peer byte into invalid UTF-8.
        let mut body = bytes[5..].to_vec();
        body[12] = 0xFF;
        assert_eq!(
            Request::decode(bytes[4], &body),
            Err(ProtoError::Malformed("join peer address is not UTF-8"))
        );
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Ok);
        roundtrip_response(Response::Value(u64::MAX));
        roundtrip_response(Response::Values(vec![0, 1, 2, 3]));
        roundtrip_response(Response::Values(vec![]));
        roundtrip_response(Response::Frame(vec![9; 100]));
        roundtrip_response(Response::Text("sbf_requests_total 7\n".into()));
        roundtrip_response(Response::Error {
            code: ErrorCode::Underflow,
            message: "counter 3".into(),
        });
        roundtrip_response(Response::Error {
            code: ErrorCode::Io,
            message: "wal append failed".into(),
        });
        roundtrip_response(Response::Error {
            code: ErrorCode::Unavailable,
            message: "replica unreachable".into(),
        });
    }

    #[test]
    fn unknown_opcodes_are_rejected() {
        assert_eq!(
            Request::decode(0x7F, &[]),
            Err(ProtoError::UnknownOpcode(0x7F))
        );
        assert_eq!(
            Response::decode(0x01, &[]),
            Err(ProtoError::UnknownOpcode(0x01))
        );
    }

    #[test]
    fn truncated_payloads_are_rejected() {
        assert_eq!(
            Request::decode(Op::Insert as u8, &[1, 2, 3]),
            Err(ProtoError::Truncated)
        );
        // Batch claiming 100 keys with 4 bytes of payload.
        let mut p = Vec::new();
        p.extend_from_slice(&100u32.to_le_bytes());
        assert_eq!(
            Request::decode(Op::InsertBatch as u8, &p),
            Err(ProtoError::Truncated)
        );
        // Values response claiming more entries than bytes.
        let mut p = Vec::new();
        p.extend_from_slice(&5u32.to_le_bytes());
        p.extend_from_slice(&7u64.to_le_bytes());
        assert_eq!(Response::decode(OP_VALUES, &p), Err(ProtoError::Truncated));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Request::Ping.encode().expect("encode");
        bytes.extend_from_slice(&[0, 0]);
        // Re-frame by hand: opcode + oversized payload.
        assert_eq!(
            Request::decode(bytes[4], &bytes[5..]),
            Err(ProtoError::Malformed("trailing bytes after payload"))
        );
    }

    #[test]
    fn mutation_classification() {
        let mutates = |req: Request| req.view().is_mutation();
        assert!(mutates(Request::Insert {
            count: 1,
            key: vec![]
        }));
        assert!(mutates(Request::Merge { envelope: vec![] }));
        assert!(!mutates(Request::Estimate { key: vec![] }));
        assert!(!mutates(Request::Snapshot));
        assert!(!mutates(Request::Shutdown));
        // Cluster commands never mutate: HELLO and JOIN_FILTER are pure
        // reads, and JOIN_PLAN only multiplies private copies.
        assert!(!mutates(Request::Hello {
            m: 1,
            k: 1,
            seed: 0
        }));
        assert!(!mutates(Request::JoinPlan {
            peer: String::new(),
            threshold: 0,
            keys: vec![]
        }));
        assert!(!mutates(Request::JoinFilter {
            m: 1,
            k: 1,
            seed: 0
        }));
    }

    /// One request per opcode, by an exhaustive match: a new `Op` fails to
    /// compile here until it has a sample.
    fn sample(op: Op) -> RequestRef<'static> {
        const KEYS: &[&[u8]] = &[b"a", b"", b"ccc"];
        match op {
            Op::Ping => RequestRef::Ping,
            Op::Insert => RequestRef::Insert {
                count: 3,
                key: b"k",
            },
            Op::Remove => RequestRef::Remove { count: 1, key: b"" },
            Op::Estimate => RequestRef::Estimate { key: b"\x00\xff" },
            Op::InsertBatch => RequestRef::InsertBatch {
                keys: KEYS.to_vec(),
            },
            Op::EstimateBatch => RequestRef::EstimateBatch {
                keys: KEYS.to_vec(),
            },
            Op::Merge => RequestRef::Merge {
                envelope: &[1, 2, 3],
            },
            Op::Snapshot => RequestRef::Snapshot,
            Op::Stats => RequestRef::Stats,
            Op::Shutdown => RequestRef::Shutdown,
            Op::Hello => RequestRef::Hello {
                m: 64,
                k: 3,
                seed: 7,
            },
            Op::JoinPlan => RequestRef::JoinPlan {
                peer: "127.0.0.1:7071",
                threshold: 2,
                keys: KEYS.to_vec(),
            },
            Op::JoinFilter => RequestRef::JoinFilter {
                m: 64,
                k: 3,
                seed: u64::MAX,
            },
        }
    }

    #[test]
    fn every_opcode_roundtrips_through_the_codec() {
        for &op in Op::ALL {
            let req = sample(op);
            assert_eq!(req.op(), op);
            let bytes = req.encode().expect("encode");
            assert_eq!(bytes[4], op as u8, "{op:?} encodes under its own byte");
            let back = RequestRef::decode(bytes[4], &bytes[5..]).expect("decode");
            assert_eq!(back.op(), op);
            assert_eq!(back, req);
        }
    }

    /// DESIGN.md §4f, the section that documents the protocol.
    fn design_4f() -> &'static str {
        let design = include_str!("../../../DESIGN.md");
        let start = design.find("\n## 4f.").expect("DESIGN.md has a §4f");
        let section = &design[start + 1..];
        let end = section.find("\n## ").unwrap_or(section.len());
        &section[..end]
    }

    /// Every `0xNN NAME` pair in `text`.
    fn opcode_pairs(text: &str) -> Vec<(u8, String)> {
        let words: Vec<&str> = text.split_whitespace().collect();
        words
            .windows(2)
            .filter_map(|w| {
                let byte = u8::from_str_radix(w[0].strip_prefix("0x")?, 16).ok()?;
                let name = w[1];
                let is_name = name.chars().all(|c| c.is_ascii_uppercase() || c == '_');
                is_name.then(|| (byte, name.to_string()))
            })
            .collect()
    }

    #[test]
    fn design_4f_documents_exactly_the_protocol() {
        let section = design_4f();
        let (requests, responses): (Vec<_>, Vec<_>) = opcode_pairs(section)
            .into_iter()
            .partition(|&(byte, _)| byte < 0x80);

        let table: Vec<(u8, String)> = Op::ALL
            .iter()
            .map(|&op| (op as u8, op.label().to_ascii_uppercase()))
            .collect();
        assert_eq!(requests, table, "§4f's request opcodes");

        let response_ops = [
            (OP_OK, "OK"),
            (OP_VALUE, "VALUE"),
            (OP_VALUES, "VALUES"),
            (OP_FRAME, "FRAME"),
            (OP_TEXT, "TEXT"),
            (OP_ERROR, "ERROR"),
        ];
        let response_ops: Vec<(u8, String)> = response_ops
            .iter()
            .map(|&(byte, name)| (byte, name.to_string()))
            .collect();
        assert_eq!(responses, response_ops, "§4f's response opcodes");

        // "Error codes: A, B (why), C." — the names outside parentheses,
        // up to the first full stop outside them.
        let list = &section
            [section.find("Error codes:").expect("§4f lists error codes") + "Error codes:".len()..];
        let mut depth = 0usize;
        let mut names = String::new();
        for c in list.chars() {
            match c {
                '(' => depth += 1,
                ')' => depth -= 1,
                '.' if depth == 0 => break,
                _ if depth == 0 => names.push(c),
                _ => {}
            }
        }
        let documented: Vec<&str> = names.split(',').map(str::trim).collect();
        let codes: Vec<ErrorCode> = (0..=u8::MAX).filter_map(ErrorCode::from_byte).collect();
        let defined: Vec<String> = codes.iter().map(|code| format!("{code:?}")).collect();
        assert_eq!(documented, defined, "§4f's error codes");
        // The encoder's `as u8` cast and the decoder's match agree.
        for code in codes {
            assert_eq!(ErrorCode::from_byte(code as u8), Some(code));
        }
    }

    #[test]
    fn merge_decode_maps_error_codes() {
        let env = FilterEnvelope {
            kind: sbf_db::wire::FilterKind::MinimumSelection,
            k: 4,
            seed: 9,
            counters: (0..512).collect(),
        };
        let bytes = env.encode();
        assert_eq!(decode_merge_envelope(&bytes, 512).map(|e| e.k), Ok(4));
        assert_eq!(
            decode_merge_envelope(&bytes, 128).map_err(|(c, _)| c),
            Err(ErrorCode::Oversized)
        );
        assert_eq!(
            decode_merge_envelope(&bytes[..10], 512).map_err(|(c, _)| c),
            Err(ErrorCode::BadFrame)
        );
    }
}

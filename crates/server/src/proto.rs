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
//! Decoders here face attacker-controlled bytes. They validate every
//! length field against the bytes actually present *before* allocating
//! (the batch paths additionally bound element counts by the payload
//! size), return [`ProtoError`] instead of panicking, and are fuzzed in
//! `tests/wire_adversarial.rs` alongside the counter decoder.

use sbf_db::framing::{self, EncodeError, WireEncode};
use sbf_db::wire::FilterEnvelope;

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
pub enum ErrorCode {
    /// The request frame did not parse.
    BadFrame,
    /// A frame or embedded structure exceeded the server's size caps.
    Oversized,
    /// The opcode byte is not a known request.
    UnknownOp,
    /// A remove would drive a counter below zero; nothing was applied.
    Underflow,
    /// A MERGE envelope disagrees with the server's `(m, k, seed)`.
    Incompatible,
    /// The server is draining and no longer accepts mutations.
    Draining,
    /// A server-side I/O failure (WAL append, fsync): the mutation was NOT
    /// durably logged and must not be treated as acknowledged.
    Io,
    /// A cluster peer could not be reached: the replica refused or dropped
    /// a replication ship (the mutation is applied and logged locally but
    /// NOT acknowledged — retry once the replica link re-syncs), or a
    /// JOIN_PLAN could not dial its peer node.
    Unavailable,
}

impl ErrorCode {
    fn to_byte(self) -> u8 {
        match self {
            ErrorCode::BadFrame => 1,
            ErrorCode::Oversized => 2,
            ErrorCode::UnknownOp => 3,
            ErrorCode::Underflow => 4,
            ErrorCode::Incompatible => 5,
            ErrorCode::Draining => 6,
            ErrorCode::Io => 7,
            ErrorCode::Unavailable => 8,
        }
    }

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

// Request opcodes.
const OP_PING: u8 = 0x01;
const OP_INSERT: u8 = 0x02;
const OP_REMOVE: u8 = 0x03;
const OP_ESTIMATE: u8 = 0x04;
const OP_INSERT_BATCH: u8 = 0x05;
const OP_ESTIMATE_BATCH: u8 = 0x06;
const OP_MERGE: u8 = 0x07;
const OP_SNAPSHOT: u8 = 0x08;
const OP_STATS: u8 = 0x09;
const OP_SHUTDOWN: u8 = 0x0A;
const OP_HELLO: u8 = 0x0B;
const OP_JOIN_PLAN: u8 = 0x0C;
const OP_JOIN_FILTER: u8 = 0x0D;

/// Whether a request frame with this opcode is a *point* frame: its whole
/// cost is k hashes and k counter probes, so the reactor may run it on its
/// own thread without holding up another connection by more than O(k)
/// work. PING and ESTIMATE always are. INSERT and REMOVE are only on a
/// node that is not `durable` (no WAL and no replicator): a durable
/// mutation waits on an fsync or a replica ack before it answers. Batches,
/// MERGE, SNAPSHOT, JOIN_*, STATS, HELLO, SHUTDOWN and unknown opcodes
/// never are.
pub(crate) fn is_point_op(opcode: u8, durable: bool) -> bool {
    match opcode {
        OP_PING | OP_ESTIMATE => true,
        OP_INSERT | OP_REMOVE => !durable,
        _ => false,
    }
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

    /// A `u32`-length-prefixed byte string.
    fn lstring(&mut self) -> Result<&'a [u8], ProtoError> {
        let n = self.u32()? as usize;
        self.bytes(n)
    }

    /// A batch of length-prefixed byte strings. The element count is
    /// validated against the minimum bytes it implies (4 per element)
    /// before the output vector is reserved, so a hostile count cannot
    /// drive a huge allocation.
    fn key_batch(&mut self) -> Result<Vec<Vec<u8>>, ProtoError> {
        let n = self.u32()? as usize;
        if n > self.rest.len() / 4 {
            return Err(ProtoError::Truncated);
        }
        let mut keys = Vec::with_capacity(n);
        for _ in 0..n {
            keys.push(self.lstring()?.to_vec());
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

/// Wraps `opcode` + `payload` in a length-prefixed frame. The length field
/// is a checked conversion via [`framing::u32_len`]: a payload past
/// `u32::MAX − 1` bytes is [`ProtoError::Oversized`], not a frame that
/// silently declares itself ~4 GiB shorter than it is.
fn frame(opcode: u8, payload: &[u8]) -> Result<Vec<u8>, ProtoError> {
    let len = framing::u32_len(1 + payload.len())?;
    let mut out = Vec::with_capacity(5 + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.push(opcode);
    out.extend_from_slice(payload);
    Ok(out)
}

impl Request {
    /// Serializes into a complete frame (header included), ready for one
    /// `write_all` — single-syscall sends keep loopback latency flat.
    ///
    /// Fails with [`ProtoError::Oversized`] when a key, batch, or payload
    /// cannot be described by its `u32` length field.
    pub fn encode(&self) -> Result<Vec<u8>, ProtoError> {
        match self {
            Request::Ping => frame(OP_PING, &[]),
            Request::Insert { count, key } => {
                let mut p = Vec::with_capacity(8 + key.len());
                p.extend_from_slice(&count.to_le_bytes());
                p.extend_from_slice(key);
                frame(OP_INSERT, &p)
            }
            Request::Remove { count, key } => {
                let mut p = Vec::with_capacity(8 + key.len());
                p.extend_from_slice(&count.to_le_bytes());
                p.extend_from_slice(key);
                frame(OP_REMOVE, &p)
            }
            Request::Estimate { key } => frame(OP_ESTIMATE, key),
            Request::InsertBatch { keys } => frame(OP_INSERT_BATCH, &encode_key_batch(keys)?),
            Request::EstimateBatch { keys } => frame(OP_ESTIMATE_BATCH, &encode_key_batch(keys)?),
            Request::Merge { envelope } => frame(OP_MERGE, envelope),
            Request::Snapshot => frame(OP_SNAPSHOT, &[]),
            Request::Stats => frame(OP_STATS, &[]),
            Request::Shutdown => frame(OP_SHUTDOWN, &[]),
            Request::Hello { m, k, seed } => frame(OP_HELLO, &encode_geometry(*m, *k, *seed)),
            Request::JoinPlan {
                peer,
                threshold,
                keys,
            } => {
                let mut p = Vec::with_capacity(8 + 4 + peer.len());
                p.extend_from_slice(&threshold.to_le_bytes());
                put_lstring(&mut p, peer.as_bytes())?;
                p.extend_from_slice(&encode_key_batch(keys)?);
                frame(OP_JOIN_PLAN, &p)
            }
            Request::JoinFilter { m, k, seed } => {
                frame(OP_JOIN_FILTER, &encode_geometry(*m, *k, *seed))
            }
        }
    }

    /// Parses the body of a frame whose header the transport has already
    /// consumed and length-checked.
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Self, ProtoError> {
        let mut s = Scan::new(payload);
        let req = match opcode {
            OP_PING => Request::Ping,
            OP_INSERT => Request::Insert {
                count: s.u64()?,
                key: s.bytes(s.rest.len())?.to_vec(),
            },
            OP_REMOVE => Request::Remove {
                count: s.u64()?,
                key: s.bytes(s.rest.len())?.to_vec(),
            },
            OP_ESTIMATE => Request::Estimate {
                key: s.bytes(s.rest.len())?.to_vec(),
            },
            OP_INSERT_BATCH => Request::InsertBatch {
                keys: s.key_batch()?,
            },
            OP_ESTIMATE_BATCH => Request::EstimateBatch {
                keys: s.key_batch()?,
            },
            OP_MERGE => Request::Merge {
                envelope: s.bytes(s.rest.len())?.to_vec(),
            },
            OP_SNAPSHOT => Request::Snapshot,
            OP_STATS => Request::Stats,
            OP_SHUTDOWN => Request::Shutdown,
            OP_HELLO => Request::Hello {
                m: s.u64()?,
                k: s.u64()?,
                seed: s.u64()?,
            },
            OP_JOIN_PLAN => Request::JoinPlan {
                threshold: s.u64()?,
                peer: String::from_utf8(s.lstring()?.to_vec())
                    .map_err(|_| ProtoError::Malformed("join peer address is not UTF-8"))?,
                keys: s.key_batch()?,
            },
            OP_JOIN_FILTER => Request::JoinFilter {
                m: s.u64()?,
                k: s.u64()?,
                seed: s.u64()?,
            },
            other => return Err(ProtoError::UnknownOpcode(other)),
        };
        s.finish()?;
        Ok(req)
    }

    /// The metric label for this command (see `metrics.rs`).
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Insert { .. } => "insert",
            Request::Remove { .. } => "remove",
            Request::Estimate { .. } => "estimate",
            Request::InsertBatch { .. } => "insert_batch",
            Request::EstimateBatch { .. } => "estimate_batch",
            Request::Merge { .. } => "merge",
            Request::Snapshot => "snapshot",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
            Request::Hello { .. } => "hello",
            Request::JoinPlan { .. } => "join_plan",
            Request::JoinFilter { .. } => "join_filter",
        }
    }

    /// Whether the command mutates the sketch (refused while draining).
    pub fn is_mutation(&self) -> bool {
        matches!(
            self,
            Request::Insert { .. }
                | Request::Remove { .. }
                | Request::InsertBatch { .. }
                | Request::Merge { .. }
        )
    }
}

/// The 24-byte `(m, k, seed)` payload shared by HELLO and JOIN_FILTER.
fn encode_geometry(m: u64, k: u64, seed: u64) -> [u8; 24] {
    let mut p = [0u8; 24];
    p[..8].copy_from_slice(&m.to_le_bytes());
    p[8..16].copy_from_slice(&k.to_le_bytes());
    p[16..].copy_from_slice(&seed.to_le_bytes());
    p
}

fn encode_key_batch(keys: &[Vec<u8>]) -> Result<Vec<u8>, ProtoError> {
    let total: usize = keys.iter().map(|k| 4 + k.len()).sum();
    let mut p = Vec::with_capacity(4 + total);
    let n = framing::u32_len(keys.len())?;
    p.extend_from_slice(&n.to_le_bytes());
    for key in keys {
        put_lstring(&mut p, key)?;
    }
    Ok(p)
}

impl Response {
    /// Serializes into a complete frame (header included).
    ///
    /// Fails with [`ProtoError::Oversized`] when the body cannot be
    /// described by its `u32` length field.
    pub fn encode(&self) -> Result<Vec<u8>, ProtoError> {
        match self {
            Response::Ok => frame(OP_OK, &[]),
            Response::Value(v) => frame(OP_VALUE, &v.to_le_bytes()),
            Response::Values(vs) => {
                let mut p = Vec::with_capacity(4 + vs.len() * 8);
                let n = framing::u32_len(vs.len())?;
                p.extend_from_slice(&n.to_le_bytes());
                for v in vs {
                    p.extend_from_slice(&v.to_le_bytes());
                }
                frame(OP_VALUES, &p)
            }
            Response::Frame(bytes) => frame(OP_FRAME, bytes),
            Response::Text(text) => frame(OP_TEXT, text.as_bytes()),
            Response::Error { code, message } => {
                let mut p = Vec::with_capacity(1 + message.len());
                p.push(code.to_byte());
                p.extend_from_slice(message.as_bytes());
                frame(OP_ERROR, &p)
            }
        }
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

impl WireEncode for Request {
    /// [`WireEncode`] arm of [`Request::encode`]: same bytes, shared error
    /// type, so generic framing code can treat requests, WAL records and
    /// filter envelopes uniformly.
    fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), EncodeError> {
        let bytes = self.encode().map_err(|_| EncodeError::Oversized)?;
        out.extend_from_slice(&bytes);
        Ok(())
    }
}

impl WireEncode for Response {
    /// [`WireEncode`] arm of [`Response::encode`].
    fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), EncodeError> {
        let bytes = self.encode().map_err(|_| EncodeError::Oversized)?;
        out.extend_from_slice(&bytes);
        Ok(())
    }
}

/// Decodes a MERGE body into an envelope, mapping decode failures onto
/// protocol error codes. `max_counters` is the server's own `m` — any
/// compatible envelope has exactly that many counters, so a larger claim
/// is rejected before allocation.
pub fn decode_merge_envelope(
    bytes: &[u8],
    max_counters: usize,
) -> Result<FilterEnvelope, (ErrorCode, String)> {
    FilterEnvelope::decode_capped(bytes, max_counters).map_err(|e| {
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
    }

    fn roundtrip_response(resp: Response) {
        let bytes = resp.encode().expect("encode");
        let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        assert_eq!(len, bytes.len() - 4);
        let back = Response::decode(bytes[4], &bytes[5..]).expect("decode");
        assert_eq!(back, resp);
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
            Request::decode(OP_INSERT, &[1, 2, 3]),
            Err(ProtoError::Truncated)
        );
        // Batch claiming 100 keys with 4 bytes of payload.
        let mut p = Vec::new();
        p.extend_from_slice(&100u32.to_le_bytes());
        assert_eq!(
            Request::decode(OP_INSERT_BATCH, &p),
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
        assert!(Request::Insert {
            count: 1,
            key: vec![]
        }
        .is_mutation());
        assert!(Request::Merge { envelope: vec![] }.is_mutation());
        assert!(!Request::Estimate { key: vec![] }.is_mutation());
        assert!(!Request::Snapshot.is_mutation());
        assert!(!Request::Shutdown.is_mutation());
        // Cluster commands never mutate: HELLO and JOIN_FILTER are pure
        // reads, and JOIN_PLAN only multiplies private copies.
        assert!(!Request::Hello {
            m: 1,
            k: 1,
            seed: 0
        }
        .is_mutation());
        assert!(!Request::JoinPlan {
            peer: String::new(),
            threshold: 0,
            keys: vec![]
        }
        .is_mutation());
        assert!(!Request::JoinFilter {
            m: 1,
            k: 1,
            seed: 0
        }
        .is_mutation());
        // Which frames the reactor may serve on its own thread, for every
        // request opcode: (opcode, point on a volatile node, point on a
        // durable node). Only the O(k) frames qualify, and a mutation
        // stops qualifying once it must wait on an fsync or a replica ack.
        let table = [
            (OP_PING, true, true),
            (OP_INSERT, true, false),
            (OP_REMOVE, true, false),
            (OP_ESTIMATE, true, true),
            (OP_INSERT_BATCH, false, false),
            (OP_ESTIMATE_BATCH, false, false),
            (OP_MERGE, false, false),
            (OP_SNAPSHOT, false, false),
            (OP_STATS, false, false),
            (OP_SHUTDOWN, false, false),
            (OP_HELLO, false, false),
            (OP_JOIN_PLAN, false, false),
            (OP_JOIN_FILTER, false, false),
        ];
        let ops: Vec<u8> = table.iter().map(|row| row.0).collect();
        assert_eq!(ops, (0x01..=0x0D).collect::<Vec<u8>>(), "all 13 opcodes");
        for (op, volatile, durable) in table {
            assert_eq!(is_point_op(op, false), volatile, "opcode {op:#04x}");
            assert_eq!(is_point_op(op, true), durable, "opcode {op:#04x}");
        }
        assert!(!is_point_op(0x0E, false), "unknown opcodes go to the pool");
    }

    #[test]
    fn wire_encode_trait_matches_inherent_encode() {
        let req = Request::InsertBatch {
            keys: vec![b"a".to_vec(), b"bb".to_vec()],
        };
        assert_eq!(req.encode_vec().unwrap(), req.encode().unwrap());
        let resp = Response::Values(vec![1, 2, 3]);
        assert_eq!(resp.encode_vec().unwrap(), resp.encode().unwrap());
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

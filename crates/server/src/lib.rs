//! `sbfd`: a concurrent TCP sketch server and its client — the paper's
//! distributed scenarios (§4.7.1 "filter as a message", §5 unions across
//! sites) over a real socket instead of the simulated network layer in
//! `sbf-db::network`.
//!
//! * [`proto`] — the length-prefixed binary frame protocol; SNAPSHOT and
//!   MERGE bodies are [`sbf_db::wire::FilterEnvelope`]s, so bytes move
//!   between servers, CLI files, and this daemon unchanged,
//! * [`server`] — [`ServerConfig`] (builder + typed validation) /
//!   [`SbfServer`]: a sharded live sketch plus a §5-union "remote"
//!   filter, served by an event-driven reactor with per-connection
//!   timeouts, frame-size caps, typed error frames, and graceful drain
//!   (finish in-flight, flush a final snapshot),
//! * `reactor` (private) — the nonblocking core: a std-only epoll shim,
//!   per-connection read→split→dispatch→write state machines with
//!   pipelined parsing (N frames per read) and a timer wheel for
//!   timeouts, on `workers` reactor threads fed by one acceptor —
//!   thousands of idle connections cost slab slots, not threads,
//! * [`client`] — [`SbfClient`], a blocking client built by
//!   [`ClientBuilder`], enforcing the same frame cap on responses and
//!   able to pipeline request batches over one socket,
//! * [`cluster`] — the multi-node layer: [`ClusterTopology`]
//!   (hash-partitioned key ownership + geometry handshake),
//!   [`ClusterClient`] (scatter-gather batching, replica failover,
//!   cross-node spectral Bloomjoins), and [`Replicator`]
//!   (primary→replica snapshot bootstrap + semi-synchronous frame
//!   streaming),
//! * [`wal`] — the write-ahead log: CRC-framed mutation records fsynced
//!   before acknowledgement, atomic snapshots, log compaction,
//! * [`recovery`] — replay-on-boot (snapshot, then log tails, truncating
//!   torn records) and the offline `sbf wal inspect` reader,
//! * [`metrics`] — `sbfd_*` telemetry published to [`sbf_telemetry`].
//!
//! The estimate contract survives the network: for any key, the answer to
//! ESTIMATE is ≥ the true number of inserts acknowledged for that key
//! (socket inserts plus merged remote mass) — same one-sidedness as the
//! in-process sketches, verified end-to-end in `tests/loopback.rs`.

// Library code must surface failures as `Result`/documented panics, never
// ad-hoc `unwrap`/`expect` (ISSUE 4 lint wall); tests keep idiomatic unwraps.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// `deny` rather than `forbid`: the reactor's epoll shim (`reactor::sys`)
// opts back in at module scope for its four raw syscalls, exactly like
// `sbf-hash`'s `prefetch.rs`. Everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod metrics;
pub mod proto;
mod reactor;
pub mod recovery;
pub mod server;
pub(crate) mod sync;
pub mod wal;

pub use client::{ClientBuilder, ClientError, SbfClient};
pub use cluster::{ClusterClient, ClusterError, ClusterTopology, NodeSpec, Replicator};
pub use proto::{ErrorCode, ProtoError, Request, RequestRef, Response, MAX_FRAME_DEFAULT};
pub use recovery::{RecoveryError, RecoveryReport, WalInspection};
pub use server::{
    ConfigError, SbfServer, ServerConfig, ServerConfigBuilder, ServerHandle, SharedState,
};
pub use wal::{atomic_write, Wal};

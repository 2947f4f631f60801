//! The `sbfd` daemon: configuration, shared sketch state, command
//! dispatch, and the reactor that serves it (see the private `reactor`
//! module for the event loop itself).
//!
//! # State model
//!
//! The server holds **two** filters over the same `(m, k, seed)` geometry:
//!
//! - the *live* sketch — a [`ShardedSketch`]`<MsSbf>` taking all
//!   socket-driven inserts/removes (keys route to their owning shard, so
//!   concurrent reactors rarely contend), and
//! - the *remote* filter — a plain [`MsSbf`] behind an `RwLock`,
//!   accumulating §5 unions of client-shipped counter frames. It is
//!   absent (`None`) until the first MERGE or snapshot restore installs
//!   one, and every read skips it while it is: a node that never merged
//!   answers from the live sketch alone.
//!
//! MERGE mass cannot go into the sharded sketch: a key's estimate there
//! reads only its owning shard, while an external frame carries mass for
//! *every* key, so folding it into one shard would hide it from most
//! queries and break the one-sided contract. Keeping it in a separate
//! whole-range filter and answering ESTIMATE with `live + remote`
//! preserves one-sidedness: each term upper-bounds the mass ingested on
//! its side, so the sum upper-bounds the true total frequency.
//! SNAPSHOT returns the counter-wise sum of both (the §5 union), which is
//! exactly what a client would get by merging the two envelopes itself.
//! That union is built afresh for each use: the shard union
//! ([`ShardedSketch::snapshot`]) plus the remote filter, added in place.
//! SNAPSHOT, JOIN_FILTER, every checkpoint and the replica bootstrap code
//! their envelope from it, and JOIN_PLAN multiplies it by the peer's
//! filter; nothing is cached between uses.
//!
//! Presence, not mass, decides whether the remote filter is read: a
//! merged or restored filter has its counters set directly, so its
//! `total_count()` is 0 however much mass it carries, and skipping it on
//! that basis would break `f̂ ≥ f`.

use std::cell::RefCell;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use sbf_db::wire::{encode_envelope, FilterEnvelope, FilterKind};
use spectral_bloom::{
    CounterStore, DefaultFamily, MsSbf, PlainCounters, ShardedSketch, SketchReader,
};

use crate::client::{ClientError, SbfClient};
use crate::cluster::repl::Replicator;
use crate::metrics;
use crate::proto::{self, ErrorCode, Request, RequestRef, Response, MAX_FRAME_DEFAULT};
use crate::reactor::{self, ReactorConfig, Waker};
use crate::recovery::{self, RecoveryError, RecoveryReport};
use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::{lock_unpoisoned, Arc, Mutex, OnceLock, RwLock};
use crate::wal::{self, Wal};

/// Everything `sbfd` needs to start serving.
///
/// Marked `#[non_exhaustive]`: construct it with
/// [`ServerConfig::builder`] (or start from [`ServerConfig::default`] and
/// set fields) so new knobs can ship without breaking callers. The fields
/// split into a **workload** section (geometry, shards, workers, WAL) and
/// a **reactor** section ([`max_connections`](Self::max_connections),
/// [`poll_timeout`](Self::poll_timeout),
/// [`pipeline_depth`](Self::pipeline_depth)) — `workers` sizes the
/// serving threads; connection capacity is `max_connections`.
/// Nonsense combinations are rejected with a typed [`ConfigError`] at
/// build/bind time rather than misbehaving at runtime.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Listen address, e.g. `"127.0.0.1:7070"`; port `0` picks a free one.
    pub addr: String,
    /// Counters per filter.
    pub m: usize,
    /// Hash functions per filter.
    pub k: usize,
    /// Hash seed; MERGE requires clients to match it.
    pub seed: u64,
    /// Shards in the live sketch, between 1 and
    /// [`spectral_bloom::MAX_SHARDS`].
    pub shards: usize,
    /// Serving threads. Each runs its own reactor, owns the connections
    /// placed on it, and runs their jobs itself, so a job holds up only
    /// its own reactor's connections. Size to cores; connection capacity
    /// is `max_connections`.
    pub workers: usize,
    /// Per-connection read timeout. An idle or stalled peer is dropped
    /// after this long; `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// Per-connection write timeout.
    pub write_timeout: Option<Duration>,
    /// Hard cap on any frame's declared length, either direction.
    pub max_frame: usize,
    /// Where to flush the final union snapshot during graceful shutdown.
    pub snapshot_path: Option<PathBuf>,
    /// Durability directory. `Some` makes every acknowledged mutation
    /// fsynced to a write-ahead log before its Ok frame, recovers state
    /// from snapshot + logs on bind, and checkpoints in the background
    /// (see [`crate::wal`]). `None` keeps the pre-WAL in-memory behavior.
    pub wal_dir: Option<PathBuf>,
    /// Compaction trigger: checkpoint once the log exceeds this multiple
    /// of the last snapshot's size.
    pub wal_compact_ratio: u64,
    /// Floor (in bytes) for the compaction threshold, so a near-empty
    /// filter does not checkpoint after every few records.
    pub wal_compact_min_bytes: u64,
    /// Periodic checkpoint interval; `None` checkpoints only on the size
    /// trigger and at graceful drain.
    pub wal_checkpoint_interval: Option<Duration>,
    /// Most sockets open at once, across every reactor; the listener is
    /// parked (stops accepting) while at the cap and resumes on the next
    /// close. Idle connections cost a slab slot and a timer entry, not a
    /// thread.
    pub max_connections: usize,
    /// Upper bound on one `epoll_wait`; bounds how stale the drain check
    /// can get when nothing else wakes a reactor or the acceptor.
    pub poll_timeout: Duration,
    /// Most pipelined frames run as one job, and the per-connection
    /// parsed-frame queue depth beyond which the reactor stops reading
    /// that socket (backpressure).
    pub pipeline_depth: usize,
    /// Address of a replica `sbfd` to stream mutations to. `Some` makes
    /// every acknowledged mutation semi-synchronously replicated: the
    /// primary ships the mutation's wire frame to the replica *inside*
    /// the acknowledgement path, and a mutation whose ship fails is
    /// answered with [`ErrorCode::Unavailable`] instead of Ok (applied
    /// and logged locally, but not acknowledged — so a failover to the
    /// replica never loses an acknowledged mutation). A background
    /// thread (re)connects and bootstraps the replica from a SNAPSHOT
    /// envelope via MERGE; see [`crate::cluster::repl`].
    pub replicate_to: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            m: 1 << 16,
            k: 5,
            seed: 42,
            shards: 4,
            workers: 4,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_frame: MAX_FRAME_DEFAULT,
            snapshot_path: None,
            wal_dir: None,
            wal_compact_ratio: 4,
            wal_compact_min_bytes: 1 << 20,
            wal_checkpoint_interval: Some(Duration::from_secs(60)),
            max_connections: 4096,
            poll_timeout: Duration::from_millis(100),
            pipeline_depth: 32,
            replicate_to: None,
        }
    }
}

impl ServerConfig {
    /// Starts a builder seeded with [`ServerConfig::default`].
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            cfg: ServerConfig::default(),
        }
    }

    /// Rejects configurations the reactor cannot honor. Called by
    /// [`ServerConfigBuilder::build`] and again by [`SbfServer::bind`]
    /// (fields are public, so a config can be mutated after building).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.m == 0 {
            return Err(ConfigError::ZeroM);
        }
        if self.k == 0 {
            return Err(ConfigError::ZeroK);
        }
        if self.k > sbf_hash::MAX_K {
            return Err(ConfigError::KAboveMax);
        }
        if self.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if self.shards > spectral_bloom::MAX_SHARDS {
            return Err(ConfigError::ShardsAboveMax);
        }
        if self.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if self.read_timeout == Some(Duration::ZERO) {
            return Err(ConfigError::ZeroReadTimeout);
        }
        if self.write_timeout == Some(Duration::ZERO) {
            return Err(ConfigError::ZeroWriteTimeout);
        }
        if self.max_connections == 0 {
            return Err(ConfigError::ZeroMaxConnections);
        }
        if self.pipeline_depth == 0 {
            return Err(ConfigError::ZeroPipelineDepth);
        }
        if self.poll_timeout == Duration::ZERO {
            return Err(ConfigError::ZeroPollTimeout);
        }
        if self.max_frame == 0 {
            return Err(ConfigError::ZeroMaxFrame);
        }
        Ok(())
    }

    fn reactor_config(&self) -> ReactorConfig {
        ReactorConfig {
            max_connections: self.max_connections,
            poll_timeout: self.poll_timeout,
            pipeline_depth: self.pipeline_depth,
            max_frame: self.max_frame,
            read_timeout: self.read_timeout,
            write_timeout: self.write_timeout,
        }
    }
}

/// A configuration the server refuses to start with. A zero geometry or
/// more hash functions than the family supports, or more shards than a
/// batched estimate can hold, would build no filter; timeouts of zero would
/// mark every connection dead on arrival; zero capacities would serve
/// nothing — all twelve are caller bugs worth naming, not values to
/// silently clamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `m` was zero — a filter needs at least one counter.
    ZeroM,
    /// `k` was zero — a filter needs at least one hash function.
    ZeroK,
    /// `k` exceeded [`sbf_hash::MAX_K`], the most the hash family supports.
    KAboveMax,
    /// `shards` was zero — the live sketch needs at least one shard.
    ZeroShards,
    /// `shards` exceeded [`spectral_bloom::MAX_SHARDS`], the most a
    /// batched estimate holds read guards for.
    ShardsAboveMax,
    /// `workers` was zero — no reactor thread would serve a connection.
    ZeroWorkers,
    /// `read_timeout` was `Some(0)`; use `None` to wait forever.
    ZeroReadTimeout,
    /// `write_timeout` was `Some(0)`; use `None` to wait forever.
    ZeroWriteTimeout,
    /// `max_connections` was zero — the server could never accept.
    ZeroMaxConnections,
    /// `pipeline_depth` was zero — no frame could ever dispatch.
    ZeroPipelineDepth,
    /// `poll_timeout` was zero — the reactor would spin hot.
    ZeroPollTimeout,
    /// `max_frame` was zero — every frame would be refused as oversized.
    ZeroMaxFrame,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroM => write!(f, "m must be at least 1"),
            ConfigError::ZeroK => write!(f, "k must be at least 1"),
            ConfigError::KAboveMax => write!(f, "k must be at most {}", sbf_hash::MAX_K),
            ConfigError::ZeroShards => write!(f, "shards must be at least 1"),
            ConfigError::ShardsAboveMax => {
                write!(f, "shards must be at most {}", spectral_bloom::MAX_SHARDS)
            }
            ConfigError::ZeroWorkers => write!(f, "workers must be at least 1"),
            ConfigError::ZeroReadTimeout => {
                write!(f, "read_timeout must be nonzero (use None to wait forever)")
            }
            ConfigError::ZeroWriteTimeout => {
                write!(
                    f,
                    "write_timeout must be nonzero (use None to wait forever)"
                )
            }
            ConfigError::ZeroMaxConnections => write!(f, "max_connections must be at least 1"),
            ConfigError::ZeroPipelineDepth => write!(f, "pipeline_depth must be at least 1"),
            ConfigError::ZeroPollTimeout => write!(f, "poll_timeout must be nonzero"),
            ConfigError::ZeroMaxFrame => write!(f, "max_frame must be at least 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`ServerConfig`]; the supported way to construct one now
/// that the struct is `#[non_exhaustive]`. Every method is a plain
/// setter; [`build`](Self::build) validates the combination.
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    cfg: ServerConfig,
}

impl ServerConfigBuilder {
    /// Listen address, e.g. `"127.0.0.1:7070"`; port `0` picks a free one.
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.cfg.addr = addr.into();
        self
    }

    /// Counters per filter.
    pub fn m(mut self, m: usize) -> Self {
        self.cfg.m = m;
        self
    }

    /// Hash functions per filter.
    pub fn k(mut self, k: usize) -> Self {
        self.cfg.k = k;
        self
    }

    /// Hash seed; MERGE requires clients to match it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Shards in the live sketch.
    pub fn shards(mut self, shards: usize) -> Self {
        self.cfg.shards = shards;
        self
    }

    /// Serving threads, each owning its connections (see
    /// [`ServerConfig::workers`]); connection capacity is
    /// [`max_connections`](Self::max_connections).
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    /// Per-connection read timeout; `None` waits forever.
    pub fn read_timeout(mut self, t: Option<Duration>) -> Self {
        self.cfg.read_timeout = t;
        self
    }

    /// Per-connection write timeout; `None` waits forever.
    pub fn write_timeout(mut self, t: Option<Duration>) -> Self {
        self.cfg.write_timeout = t;
        self
    }

    /// Hard cap on any frame's declared length, either direction.
    pub fn max_frame(mut self, max_frame: usize) -> Self {
        self.cfg.max_frame = max_frame;
        self
    }

    /// Where to flush the final union snapshot during graceful shutdown.
    pub fn snapshot_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.cfg.snapshot_path = Some(path.into());
        self
    }

    /// Durability directory (see [`ServerConfig::wal_dir`]).
    pub fn wal_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cfg.wal_dir = Some(dir.into());
        self
    }

    /// Compaction trigger ratio (see [`ServerConfig::wal_compact_ratio`]).
    pub fn wal_compact_ratio(mut self, ratio: u64) -> Self {
        self.cfg.wal_compact_ratio = ratio;
        self
    }

    /// Compaction threshold floor in bytes.
    pub fn wal_compact_min_bytes(mut self, bytes: u64) -> Self {
        self.cfg.wal_compact_min_bytes = bytes;
        self
    }

    /// Periodic checkpoint interval; `None` checkpoints only on the size
    /// trigger and at graceful drain.
    pub fn wal_checkpoint_interval(mut self, interval: Option<Duration>) -> Self {
        self.cfg.wal_checkpoint_interval = interval;
        self
    }

    /// Most sockets kept open at once (reactor knob).
    pub fn max_connections(mut self, n: usize) -> Self {
        self.cfg.max_connections = n;
        self
    }

    /// Upper bound on one poll wait (reactor knob).
    pub fn poll_timeout(mut self, t: Duration) -> Self {
        self.cfg.poll_timeout = t;
        self
    }

    /// Most pipelined frames per job (reactor knob).
    pub fn pipeline_depth(mut self, depth: usize) -> Self {
        self.cfg.pipeline_depth = depth;
        self
    }

    /// Stream every acknowledged mutation to the replica `sbfd` at
    /// `addr` (see [`ServerConfig::replicate_to`]).
    pub fn replicate_to(mut self, addr: impl Into<String>) -> Self {
        self.cfg.replicate_to = Some(addr.into());
        self
    }

    /// Validates the combination and produces the config.
    pub fn build(self) -> Result<ServerConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Rebuilds a concrete MS sketch from a decoded envelope so it can be
/// unioned into the remote filter, adopting the counters the decoder
/// narrowed as its store. Mirrors `sbf-cli`'s rehydration: both MS and MI
/// wire frames are plain counter vectors queried the same way. Every
/// caller has checked the envelope against the server's geometry, so it
/// holds `m ≥ 1` counters.
fn rehydrate(env: FilterEnvelope<PlainCounters>) -> MsSbf {
    let family = DefaultFamily::new(env.counters.len(), env.k as usize, env.seed);
    MsSbf::with_parts(family, env.counters)
}

/// Appends one acknowledged mutation to the WAL. The logged payload is
/// the wire body (`opcode + payload`, no length prefix) — taken verbatim
/// from the transport when it still holds the frame, re-encoded otherwise
/// (embedded callers going through [`SharedState::handle`]).
fn log_mutation(wal: &Wal, req: &RequestRef<'_>, raw_body: Option<&[u8]>) -> io::Result<()> {
    match raw_body {
        Some(body) => wal.append(body),
        None => {
            let frame = req
                .encode()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
            wal.append(&frame[4..])
        }
    }
}

/// State shared by every reactor: the filters, the drain flag, and the
/// limits connections enforce.
#[derive(Debug)]
pub struct SharedState {
    /// Socket-driven mass, sharded for concurrent ingest.
    sketch: ShardedSketch<MsSbf>,
    /// Client-shipped §5 union mass (see the module docs for why this is
    /// a separate whole-range filter); `None` until the first MERGE or
    /// snapshot restore.
    remote: RwLock<Option<MsSbf>>,
    /// Set once by SHUTDOWN (or [`ServerHandle::shutdown`]); never cleared.
    shutdown: AtomicBool,
    /// Crash-simulation flag: drain skips the final checkpoint/snapshot
    /// flush, leaving exactly the on-disk state a SIGKILL would.
    crash: AtomicBool,
    /// The write-ahead log, attached after recovery when configured.
    wal: OnceLock<Arc<Wal>>,
    /// The replica shipper, attached at bind when `replicate_to` is set.
    replicator: OnceLock<Arc<Replicator>>,
    /// The poll-interrupt handles of every reactor and of the acceptor,
    /// attached when they are built; lets `begin_shutdown` from any thread
    /// cut their poll waits short instead of waiting out the poll timeout.
    wakers: Mutex<Vec<Arc<Waker>>>,
    m: usize,
    k: usize,
    seed: u64,
    /// Frame cap, also bounding WAL records accepted during replay.
    pub(crate) max_frame: usize,
}

impl SharedState {
    /// Builds the state for a config that passed [`ServerConfig::validate`].
    pub(crate) fn new(config: &ServerConfig) -> Self {
        SharedState {
            sketch: ShardedSketch::with_shards(config.shards, |_| {
                MsSbf::new(config.m, config.k, config.seed)
            }),
            remote: RwLock::new(None),
            shutdown: AtomicBool::new(false),
            crash: AtomicBool::new(false),
            wal: OnceLock::new(),
            replicator: OnceLock::new(),
            wakers: Mutex::new(Vec::new()),
            m: config.m,
            k: config.k,
            seed: config.seed,
            max_frame: config.max_frame,
        }
    }

    /// Whether graceful shutdown has begun. Draining servers answer
    /// mutations with [`ErrorCode::Draining`] and close connections after
    /// the in-flight response.
    pub fn draining(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Begins graceful shutdown: the acceptor stops accepting, running
    /// jobs finish and their responses flush, then every connection
    /// closes. Wakes every reactor and the acceptor out of their poll
    /// waits so the drain starts immediately.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        for waker in lock_unpoisoned(self.wakers.lock()).iter() {
            waker.wake();
        }
    }

    /// The attached write-ahead log, when durability is configured.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.get()
    }

    /// Whether [`SharedState::request_crash`] was called.
    pub fn crash_requested(&self) -> bool {
        self.crash.load(Ordering::Acquire)
    }

    /// Arms crash simulation: the next drain skips the final checkpoint
    /// and snapshot flush. Because every acknowledged mutation was already
    /// fsynced at append time, the resulting on-disk WAL state is exactly
    /// what a SIGKILL at that moment leaves behind — recovery tests use
    /// this to exercise the crash path deterministically in-process (the
    /// CLI e2e suite additionally kills a real process).
    pub fn request_crash(&self) {
        self.crash.store(true, Ordering::Release);
    }

    pub(crate) fn attach_wal(&self, wal: Arc<Wal>) {
        // At most one WAL is ever attached (bind-time only); a second set
        // is a no-op by OnceLock semantics.
        let _ = self.wal.set(wal);
    }

    /// The attached replica shipper, when `replicate_to` is configured.
    pub fn replicator(&self) -> Option<&Arc<Replicator>> {
        self.replicator.get()
    }

    pub(crate) fn attach_replicator(&self, repl: Arc<Replicator>) {
        // Bind-time only, same OnceLock discipline as the WAL.
        let _ = self.replicator.set(repl);
    }

    /// Registers the wakers `begin_shutdown` must interrupt. A drain that
    /// began before this call is still seen: the threads behind these
    /// wakers check the drain flag before their first poll wait.
    pub(crate) fn attach_wakers(&self, wakers: impl IntoIterator<Item = Arc<Waker>>) {
        lock_unpoisoned(self.wakers.lock()).extend(wakers);
    }

    /// The server's filter geometry `(m, k, seed)` — what a snapshot or
    /// MERGE envelope must match.
    pub(crate) fn geometry(&self) -> (usize, usize, u64) {
        (self.m, self.k, self.seed)
    }

    /// Unions an already-validated envelope into the remote filter
    /// (recovery's snapshot restore; same mass placement as MERGE).
    pub(crate) fn absorb_envelope(&self, env: FilterEnvelope<PlainCounters>) {
        self.union_remote(rehydrate(env));
    }

    /// Adds `incoming` to the remote filter, installing it as the remote
    /// filter when there is none yet (no union into an empty filter).
    fn union_remote(&self, incoming: MsSbf) {
        let mut remote = lock_unpoisoned(self.remote.write());
        match remote.as_mut() {
            Some(r) => r.union_assign(&incoming),
            None => *remote = Some(incoming),
        }
    }

    /// Re-applies one logged mutation during replay, without re-logging
    /// and without the drain gate. Returns whether it applied; a remove
    /// that would underflow is skipped (skipping only over-counts, which
    /// keeps estimates one-sided).
    pub(crate) fn apply_replay(&self, req: &RequestRef<'_>) -> bool {
        matches!(self.apply(req), Response::Ok)
    }

    /// One-sided estimate across both filters (see the module docs).
    fn estimate_one(&self, key: &[u8]) -> u64 {
        let live = self.sketch.estimate(key);
        match lock_unpoisoned(self.remote.read()).as_ref() {
            Some(remote) => live.saturating_add(remote.estimate(key)),
            None => live,
        }
    }

    /// [`SharedState::estimate_one`] for every key, in order: one batched
    /// probe of the live sketch, then — only if a remote filter exists —
    /// one batched probe of it into this thread's reused scratch buffer.
    fn estimate_batch(&self, keys: &[&[u8]]) -> Vec<u64> {
        thread_local! {
            static REMOTE_ANSWERS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
        }
        let mut out = Vec::with_capacity(keys.len());
        self.sketch.estimate_batch_into(keys, &mut out);
        let remote = lock_unpoisoned(self.remote.read());
        if let Some(remote) = remote.as_ref() {
            REMOTE_ANSWERS.with(|scratch| {
                let mut scratch = scratch.borrow_mut();
                remote.estimate_batch_into(keys, &mut scratch);
                for (v, r) in out.iter_mut().zip(scratch.iter()) {
                    *v = v.saturating_add(*r);
                }
            });
        }
        out
    }

    /// The §5 union of both filters — the shard union plus the remote
    /// mass, added in place — as one whole-range sketch (see the module
    /// docs for who uses it).
    fn merged_filter(&self) -> MsSbf {
        let mut merged = self.sketch.snapshot();
        if let Some(remote) = lock_unpoisoned(self.remote.read()).as_ref() {
            merged.union_assign(remote);
        }
        merged
    }

    /// The full filter — live shards unioned with the remote mass — as a
    /// wire-encoded envelope, byte-compatible with `sbf-db` files and
    /// `sbf` CLI subcommands.
    pub fn snapshot_envelope(&self) -> Vec<u8> {
        let merged = self.merged_filter();
        encode_envelope(
            FilterKind::MinimumSelection,
            self.k as u32,
            self.seed,
            merged.core().store().values(),
        )
    }

    /// Applies one decoded request and produces its response. Protocol
    /// errors never reach here — `conn` answers those itself — so every
    /// arm speaks for a well-formed command.
    ///
    /// When a WAL is attached, a successful mutation is fsynced to the log
    /// *before* its Ok frame is produced (apply → append → acknowledge;
    /// see [`crate::wal`] for why that order makes recovery one-sided). A
    /// failed append is answered with [`ErrorCode::Io`] — the mutation is
    /// in memory but not durable, so it must not be acknowledged.
    pub fn handle(&self, req: &Request) -> Response {
        self.handle_framed(&req.view(), None)
    }

    /// [`SharedState::handle`] for a borrowed request, with its
    /// already-encoded frame body (`opcode + payload`, no length prefix)
    /// when the transport has it — the WAL logs those bytes verbatim
    /// instead of re-encoding.
    pub(crate) fn handle_framed(&self, req: &RequestRef<'_>, raw_body: Option<&[u8]>) -> Response {
        if req.is_mutation() && self.draining() {
            return Response::Error {
                code: ErrorCode::Draining,
                message: "server is draining; mutation refused".into(),
            };
        }
        let resp = self.apply(req);
        if req.is_mutation() && !matches!(resp, Response::Error { .. }) {
            if let Some(wal) = self.wal.get() {
                if let Err(e) = log_mutation(wal, req, raw_body) {
                    return Response::Error {
                        code: ErrorCode::Io,
                        message: format!("mutation applied but not durably logged: {e}"),
                    };
                }
            }
            // Semi-synchronous replication: the mutation's wire frame must
            // reach the replica before the Ok frame is produced. A failed
            // ship downgrades the answer to Unavailable — applied (and
            // logged) locally, but NOT acknowledged, so a client failing
            // over to the replica never misses an acknowledged mutation.
            if let Some(repl) = self.replicator.get() {
                if !repl.ship(req, raw_body) {
                    return Response::Error {
                        code: ErrorCode::Unavailable,
                        message: "replica did not acknowledge; mutation applied locally but \
                                  not acknowledged"
                            .into(),
                    };
                }
            }
        }
        resp
    }

    /// The pure dispatch: applies `req` to the in-memory state. Shared by
    /// the serving path (which adds drain gating + WAL logging around it)
    /// and WAL replay (which must skip both). The lints keep a `_ =>` arm
    /// from hiding a new request from dispatch (clippy reports a wildcard
    /// that covers one variant under the second lint, not the first).
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn apply(&self, req: &RequestRef<'_>) -> Response {
        match req {
            RequestRef::Ping => Response::Ok,
            RequestRef::Insert { count, key } => {
                self.sketch.insert_by(*key, *count);
                Response::Ok
            }
            RequestRef::Remove { count, key } => match self.sketch.remove_by(*key, *count) {
                Ok(()) => Response::Ok,
                Err(e) => Response::Error {
                    code: ErrorCode::Underflow,
                    message: e.to_string(),
                },
            },
            RequestRef::Estimate { key } => Response::Value(self.estimate_one(key)),
            RequestRef::InsertBatch { keys } => {
                metrics::on(|m| m.batch_keys.add(keys.len() as u64));
                self.sketch.insert_batch(keys);
                Response::Ok
            }
            RequestRef::EstimateBatch { keys } => {
                metrics::on(|m| m.batch_keys.add(keys.len() as u64));
                Response::Values(self.estimate_batch(keys))
            }
            RequestRef::Merge { envelope } => self.apply_merge(envelope),
            RequestRef::Hello { m, k, seed } => match self.check_geometry(*m, *k, *seed) {
                Ok(()) => Response::Ok,
                Err(resp) => resp,
            },
            RequestRef::JoinFilter { m, k, seed } => match self.check_geometry(*m, *k, *seed) {
                Ok(()) => Response::Frame(self.snapshot_envelope()),
                Err(resp) => resp,
            },
            RequestRef::JoinPlan {
                peer,
                threshold,
                keys,
            } => self.apply_join_plan(peer, *threshold, keys),
            RequestRef::Snapshot => Response::Frame(self.snapshot_envelope()),
            RequestRef::Stats => {
                self.sketch.publish_metrics();
                Response::Text(sbf_telemetry::global().snapshot().to_prometheus())
            }
            RequestRef::Shutdown => {
                self.begin_shutdown();
                Response::Ok
            }
        }
    }

    fn apply_merge(&self, envelope: &[u8]) -> Response {
        // The cap is the server's own m: a compatible envelope has exactly
        // m counters, so anything claiming more dies before allocation.
        let env = match proto::decode_merge_envelope(envelope, self.m) {
            Ok(env) => env,
            Err((code, message)) => return Response::Error { code, message },
        };
        if env.counters.len() != self.m || env.k as usize != self.k || env.seed != self.seed {
            return Response::Error {
                code: ErrorCode::Incompatible,
                message: format!(
                    "envelope geometry (m={}, k={}, seed={}) != server (m={}, k={}, seed={})",
                    env.counters.len(),
                    env.k,
                    env.seed,
                    self.m,
                    self.k,
                    self.seed
                ),
            };
        }
        // Any FilterKind is accepted: MS and MI frames are both plain
        // counter vectors, and counter addition keeps estimates one-sided
        // regardless of which insertion policy built them.
        self.union_remote(rehydrate(env));
        Response::Ok
    }

    /// The HELLO/JOIN_FILTER geometry gate: counter frames only compose
    /// across identical `(m, k, seed)`, so a mismatched peer is refused
    /// with a typed [`ErrorCode::Incompatible`] before any data flows.
    fn check_geometry(&self, m: u64, k: u64, seed: u64) -> Result<(), Response> {
        if m as usize == self.m && k as usize == self.k && seed == self.seed {
            Ok(())
        } else {
            Err(Response::Error {
                code: ErrorCode::Incompatible,
                message: format!(
                    "peer geometry (m={}, k={}, seed={}) != server (m={}, k={}, seed={})",
                    m, k, seed, self.m, self.k, self.seed
                ),
            })
        }
    }

    /// Executes a §5.3 spectral Bloomjoin against a live peer: dial
    /// `peer`, fetch its filter envelope (geometry-checked on the peer's
    /// side), multiply it counter-wise into this server's merged filter,
    /// and answer one joined-frequency estimate per key, zeroed below
    /// `threshold`.
    ///
    /// The product estimate alone over-counts by collision noise squared;
    /// a verification round of per-key estimates against the peer clamps
    /// each answer to `min(product, local · peer)` — still an upper bound
    /// on the true joined frequency (each factor is one-sided), but tight
    /// enough that with sane geometry the reported group set matches the
    /// exact join.
    fn apply_join_plan(&self, peer: &str, threshold: u64, keys: &[&[u8]]) -> Response {
        let unavailable = |message: String| Response::Error {
            code: ErrorCode::Unavailable,
            message,
        };
        let mut conn = match SbfClient::builder(peer)
            .io_timeout(Some(Duration::from_secs(30)))
            .connect()
        {
            Ok(c) => c,
            Err(e) => return unavailable(format!("join peer {peer} unreachable: {e}")),
        };
        let envelope = match conn.join_filter(self.m, self.k, self.seed) {
            Ok(bytes) => bytes,
            Err(ClientError::Server { code, message }) => {
                return Response::Error { code, message };
            }
            Err(e) => return unavailable(format!("join peer {peer} failed JOIN_FILTER: {e}")),
        };
        metrics::on(|m| m.cluster_join_bytes.add(envelope.len() as u64));
        let env = match proto::decode_merge_envelope(&envelope, self.m) {
            Ok(env) => env,
            Err((code, message)) => return Response::Error { code, message },
        };
        if env.counters.len() != self.m || env.k as usize != self.k || env.seed != self.seed {
            return Response::Error {
                code: ErrorCode::Incompatible,
                message: format!(
                    "join peer {peer} shipped geometry (m={}, k={}, seed={}) != ours",
                    env.counters.len(),
                    env.k,
                    env.seed
                ),
            };
        }
        let peer_ests = match conn.estimate_batch(keys) {
            Ok(vs) => vs,
            Err(e) => return unavailable(format!("join peer {peer} failed verification: {e}")),
        };
        let local = self.merged_filter();
        let mut product = local.clone();
        product.multiply_assign(&rehydrate(env));
        let values = keys
            .iter()
            .zip(&peer_ests)
            .map(|(key, &peer_est)| {
                let bound = local.estimate(key).saturating_mul(peer_est);
                let v = product.estimate(key).min(bound);
                if v >= threshold {
                    v
                } else {
                    0
                }
            })
            .collect();
        Response::Values(values)
    }
}

/// A bound-but-not-yet-running server. Split from [`SbfServer::run`] so
/// callers can learn the OS-assigned port (`addr: "127.0.0.1:0"`) before
/// the accept loop starts.
#[derive(Debug)]
pub struct SbfServer {
    listener: TcpListener,
    state: Arc<SharedState>,
    workers: usize,
    reactor_cfg: ReactorConfig,
    snapshot_path: Option<PathBuf>,
    checkpoint_interval: Option<Duration>,
    recovery: Option<RecoveryReport>,
}

impl SbfServer {
    /// Binds the listen socket and builds the shared state. With
    /// `wal_dir` configured, this is also where crash recovery happens:
    /// the snapshot and logs are replayed into the fresh state *before*
    /// the first connection can be accepted, then the WAL is opened for
    /// appending. A snapshot with the wrong geometry refuses the boot
    /// (`InvalidData`) rather than serving estimates that would break the
    /// one-sided contract.
    pub fn bind(config: ServerConfig) -> io::Result<Self> {
        config
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let listener = TcpListener::bind(&config.addr)?;
        let state = Arc::new(SharedState::new(&config));
        let mut report = None;
        if let Some(dir) = &config.wal_dir {
            report = Some(recovery::recover(dir, &state).map_err(|e| match e {
                RecoveryError::Io(io_err) => io_err,
                RecoveryError::Snapshot(msg) => io::Error::new(io::ErrorKind::InvalidData, msg),
            })?);
            let wal = Wal::open(dir, config.wal_compact_ratio, config.wal_compact_min_bytes)?;
            state.attach_wal(Arc::new(wal));
        }
        if let Some(target) = &config.replicate_to {
            state.attach_replicator(Arc::new(Replicator::new(target.clone())));
        }
        Ok(SbfServer {
            listener,
            state,
            workers: config.workers,
            reactor_cfg: config.reactor_config(),
            snapshot_path: config.snapshot_path,
            checkpoint_interval: config.wal_checkpoint_interval,
            recovery: report,
        })
    }

    /// What recovery restored, when the server was bound with a WAL.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The bound address (with the real port when `addr` asked for `:0`).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared state, for embedding (tests assert against it directly).
    pub fn state(&self) -> Arc<SharedState> {
        Arc::clone(&self.state)
    }

    /// Serves until a SHUTDOWN request (or [`SharedState::begin_shutdown`])
    /// flips the drain flag, then drains: stop accepting, let every queued
    /// and in-flight connection finish, and flush the final union snapshot
    /// if a path was configured.
    pub fn run(self) -> io::Result<()> {
        let checkpointer = self.spawn_checkpointer()?;
        let replication = self.spawn_replication()?;
        // `serve` returns once the drain flag is up and every reactor has
        // flushed and closed its last connection and been joined.
        let served = reactor::serve(self.listener, &self.state, &self.reactor_cfg, self.workers);
        if served.is_err() {
            // A setup failure (epoll, waker, thread spawn) must still take
            // the drain path, or the checkpointer would spin forever.
            self.state.begin_shutdown();
        }
        if let Some(t) = checkpointer {
            t.join()
                .map_err(|_| io::Error::other("checkpoint thread panicked"))?;
        }
        if let Some(t) = replication {
            t.join()
                .map_err(|_| io::Error::other("replication thread panicked"))?;
        }
        served?;
        if self.state.crash_requested() {
            // Crash simulation: stop exactly as a SIGKILL would have left
            // us — every acknowledged mutation is already fsynced in the
            // WAL, and nothing else gets flushed.
            return Ok(());
        }
        if let Some(wal) = self.state.wal() {
            // Final checkpoint: every reactor is joined, so the snapshot is
            // exact and the logs it supersedes can go — a clean restart
            // replays nothing.
            wal.checkpoint(|| self.state.snapshot_envelope())?;
        }
        if let Some(path) = &self.snapshot_path {
            wal::atomic_write(path, &self.state.snapshot_envelope())?;
        }
        Ok(())
    }

    /// Starts the background checkpoint thread when a WAL is attached:
    /// cuts a snapshot and compacts the log on the size trigger, and on
    /// the configured interval. A failed checkpoint is counted in
    /// `sbfd_wal_checkpoint_failures_total`; durability does not regress
    /// (the logs stay), compaction just waits for the next tick.
    fn spawn_checkpointer(&self) -> io::Result<Option<std::thread::JoinHandle<()>>> {
        let Some(wal) = self.state.wal().map(Arc::clone) else {
            return Ok(None);
        };
        let state = Arc::clone(&self.state);
        let interval = self.checkpoint_interval;
        let thread = std::thread::Builder::new()
            .name("sbfd-checkpoint".into())
            .spawn(move || {
                let mut last = Instant::now();
                while !state.draining() {
                    std::thread::sleep(Duration::from_millis(10));
                    let interval_due = interval.is_some_and(|iv| last.elapsed() >= iv);
                    if interval_due || wal.wants_checkpoint() {
                        if wal.checkpoint(|| state.snapshot_envelope()).is_err() {
                            metrics::on(|m| m.wal_checkpoint_failures.inc());
                        }
                        last = Instant::now();
                    }
                }
            })?;
        Ok(Some(thread))
    }

    /// Starts the background replication thread when `replicate_to` is
    /// configured: every 10ms it (re)connects a downed replica link —
    /// geometry handshake, then a SNAPSHOT-envelope bootstrap via MERGE —
    /// so mutations can resume shipping synchronously. Same lifecycle as
    /// the checkpointer: polls the drain flag and exits with the drain.
    fn spawn_replication(&self) -> io::Result<Option<std::thread::JoinHandle<()>>> {
        let Some(repl) = self.state.replicator().map(Arc::clone) else {
            return Ok(None);
        };
        let state = Arc::clone(&self.state);
        let thread = std::thread::Builder::new()
            .name("sbfd-repl".into())
            .spawn(move || {
                while !state.draining() {
                    repl.tick(&state);
                    std::thread::sleep(Duration::from_millis(10));
                }
            })?;
        Ok(Some(thread))
    }

    /// Runs the server on a background thread; the returned handle knows
    /// the bound address and can stop and join it.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let state = self.state();
        let thread = std::thread::Builder::new()
            .name("sbfd-accept".into())
            .spawn(move || self.run())?;
        Ok(ServerHandle {
            addr,
            state,
            thread: Some(thread),
        })
    }
}

/// Handle to a server running on a background thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<SharedState>,
    thread: Option<std::thread::JoinHandle<io::Result<()>>>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's shared state.
    pub fn state(&self) -> Arc<SharedState> {
        Arc::clone(&self.state)
    }

    /// Flips the drain flag and waits for the full drain (accept loop
    /// exit, in-flight connections finished, snapshot flushed).
    pub fn shutdown_and_join(mut self) -> io::Result<()> {
        self.state.begin_shutdown();
        self.join_inner()
    }

    /// Stops the server as a crash would: in-flight work finishes, but no
    /// final checkpoint or snapshot is flushed — the WAL directory is left
    /// exactly as a SIGKILL at this instant would leave it (acknowledged
    /// mutations fsynced, nothing else). See [`SharedState::request_crash`].
    pub fn crash_and_join(mut self) -> io::Result<()> {
        self.state.request_crash();
        self.state.begin_shutdown();
        self.join_inner()
    }

    /// Waits for the server to finish on its own (e.g. after a client
    /// sent SHUTDOWN).
    pub fn join(mut self) -> io::Result<()> {
        self.join_inner()
    }

    fn join_inner(&mut self) -> io::Result<()> {
        match self.thread.take() {
            Some(t) => t
                .join()
                .map_err(|_| io::Error::other("server thread panicked"))?,
            None => Ok(()),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.state.begin_shutdown();
        let _ = self.join_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectral_bloom::{CounterStore, MultisetSketch};

    fn state(m: usize) -> SharedState {
        SharedState::new(&ServerConfig {
            m,
            shards: 2,
            ..ServerConfig::default()
        })
    }

    #[test]
    fn insert_then_estimate_is_one_sided() {
        let st = state(1 << 12);
        for _ in 0..5 {
            assert_eq!(
                st.handle(&Request::Insert {
                    count: 2,
                    key: b"apple".to_vec()
                }),
                Response::Ok
            );
        }
        match st.handle(&Request::Estimate {
            key: b"apple".to_vec(),
        }) {
            Response::Value(v) => assert!(v >= 10, "one-sided: got {v}"),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn merge_adds_mass_visible_to_every_key() {
        let st = state(1 << 12);
        // Build a remote site's filter with mass on keys the live sketch
        // never saw.
        let mut site_b = MsSbf::new(1 << 12, st.k, st.seed);
        site_b.insert_by(&b"pear".as_slice(), 7);
        let store = site_b.core().store();
        let env = FilterEnvelope {
            kind: FilterKind::MinimumSelection,
            k: st.k as u32,
            seed: st.seed,
            counters: (0..1 << 12).map(|i| store.get(i)).collect(),
        };
        assert_eq!(
            st.handle(&Request::Merge {
                envelope: env.encode()
            }),
            Response::Ok
        );
        match st.handle(&Request::Estimate {
            key: b"pear".to_vec(),
        }) {
            Response::Value(v) => assert!(v >= 7, "merged mass must be visible: got {v}"),
            other => panic!("unexpected response {other:?}"),
        }
        // The batched path probes the remote filter too, at every position
        // of the batch. The merged filter's counters were set directly, so
        // its `total_count()` is 0 — presence, not mass, must decide.
        let remote_total = lock_unpoisoned(st.remote.read())
            .as_ref()
            .map(|r| r.core().total_count());
        assert_eq!(remote_total, Some(0));
        let keys = vec![b"apple".to_vec(), b"pear".to_vec(), b"pear".to_vec()];
        match st.handle(&Request::EstimateBatch { keys }) {
            Response::Values(vs) => {
                assert_eq!(vs.len(), 3);
                assert!(
                    vs[1] >= 7 && vs[2] >= 7,
                    "merged mass must be visible: got {vs:?}"
                );
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn a_node_that_never_merged_answers_batches_from_the_live_sketch() {
        let st = state(1 << 12);
        let truth: Vec<(Vec<u8>, u64)> = (0..200u64)
            .map(|i| (format!("key-{i}").into_bytes(), 1 + i % 4))
            .collect();
        for (key, count) in &truth {
            st.handle(&Request::Insert {
                count: *count,
                key: key.clone(),
            });
        }
        let keys: Vec<Vec<u8>> = truth.iter().map(|(k, _)| k.clone()).collect();
        match st.handle(&Request::EstimateBatch { keys }) {
            Response::Values(vs) => {
                assert_eq!(vs.len(), truth.len());
                for ((key, count), v) in truth.iter().zip(vs) {
                    assert!(v >= *count, "estimate {v} < truth {count} for {key:?}");
                }
            }
            other => panic!("unexpected response {other:?}"),
        }
        assert!(
            lock_unpoisoned(st.remote.read()).is_none(),
            "no MERGE or restore, so no remote filter"
        );
    }

    #[test]
    fn merge_rejects_mismatched_geometry() {
        let st = state(1 << 12);
        let env = FilterEnvelope {
            kind: FilterKind::MinimumSelection,
            k: 3, // server uses a different k
            seed: st.seed,
            counters: vec![0; 1 << 12],
        };
        match st.handle(&Request::Merge {
            envelope: env.encode(),
        }) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Incompatible),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn merge_rejects_oversized_envelopes_as_oversized() {
        let st = state(256);
        let env = FilterEnvelope {
            kind: FilterKind::MinimumSelection,
            k: st.k as u32,
            seed: st.seed,
            counters: vec![1; 4096],
        };
        match st.handle(&Request::Merge {
            envelope: env.encode(),
        }) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Oversized),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn snapshot_decodes_to_live_plus_remote() {
        let m = 1 << 12;
        let st = state(m);
        // Remote mass first, so SNAPSHOT has both terms of the union to add.
        let merged: Vec<u64> = (0..m as u64).map(|i| i % 7 + (i % 3) * 1000).collect();
        let env = FilterEnvelope {
            kind: FilterKind::MinimumSelection,
            k: st.k as u32,
            seed: st.seed,
            counters: merged.clone(),
        };
        assert_eq!(
            st.handle(&Request::Merge {
                envelope: env.encode()
            }),
            Response::Ok
        );
        for i in 0..100u64 {
            st.handle(&Request::Insert {
                count: i % 4 + 1,
                key: format!("x{i}").into_bytes(),
            });
        }
        let bytes = match st.handle(&Request::Snapshot) {
            Response::Frame(b) => b,
            other => panic!("unexpected response {other:?}"),
        };
        let env = FilterEnvelope::decode(&bytes).expect("snapshot must decode");
        assert_eq!(env.counters.len(), m);
        let shard_union = st.sketch.snapshot();
        let live = shard_union.core().store();
        assert!(live.values().any(|c| c > 0));
        for (i, (&got, &remote)) in env.counters.iter().zip(&merged).enumerate() {
            assert_eq!(got, live.get(i) + remote, "counter {i}");
        }
    }

    #[test]
    fn draining_refuses_mutations_but_answers_reads() {
        let st = state(1 << 10);
        st.handle(&Request::Insert {
            count: 1,
            key: b"y".to_vec(),
        });
        st.begin_shutdown();
        match st.handle(&Request::Insert {
            count: 1,
            key: b"y".to_vec(),
        }) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Draining),
            other => panic!("unexpected response {other:?}"),
        }
        match st.handle(&Request::Estimate { key: b"y".to_vec() }) {
            Response::Value(v) => assert!(v >= 1),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn builder_sets_reactor_and_workload_knobs() {
        let cfg = ServerConfig::builder()
            .addr("127.0.0.1:0")
            .m(1 << 10)
            .k(3)
            .seed(7)
            .workers(2)
            .max_connections(128)
            .pipeline_depth(8)
            .poll_timeout(Duration::from_millis(50))
            .read_timeout(None)
            .build()
            .expect("valid config");
        assert_eq!(cfg.m, 1 << 10);
        assert_eq!(cfg.max_connections, 128);
        assert_eq!(cfg.pipeline_depth, 8);
        assert_eq!(cfg.poll_timeout, Duration::from_millis(50));
        assert_eq!(cfg.read_timeout, None);
    }

    #[test]
    fn builder_rejects_nonsense_combinations_with_typed_errors() {
        assert_eq!(
            ServerConfig::builder()
                .read_timeout(Some(Duration::ZERO))
                .build()
                .unwrap_err(),
            ConfigError::ZeroReadTimeout
        );
        assert_eq!(
            ServerConfig::builder()
                .write_timeout(Some(Duration::ZERO))
                .build()
                .unwrap_err(),
            ConfigError::ZeroWriteTimeout
        );
        assert_eq!(
            ServerConfig::builder()
                .max_connections(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroMaxConnections
        );
        assert_eq!(
            ServerConfig::builder()
                .pipeline_depth(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroPipelineDepth
        );
        assert_eq!(
            ServerConfig::builder()
                .poll_timeout(Duration::ZERO)
                .build()
                .unwrap_err(),
            ConfigError::ZeroPollTimeout
        );
        assert_eq!(
            ServerConfig::builder().max_frame(0).build().unwrap_err(),
            ConfigError::ZeroMaxFrame
        );
        assert_eq!(
            ServerConfig::builder().m(0).build().unwrap_err(),
            ConfigError::ZeroM
        );
        assert_eq!(
            ServerConfig::builder().k(0).build().unwrap_err(),
            ConfigError::ZeroK
        );
        assert_eq!(
            ServerConfig::builder()
                .k(sbf_hash::MAX_K + 1)
                .build()
                .unwrap_err(),
            ConfigError::KAboveMax
        );
        assert_eq!(
            ServerConfig::builder().shards(0).build().unwrap_err(),
            ConfigError::ZeroShards
        );
        assert_eq!(
            ServerConfig::builder()
                .shards(spectral_bloom::MAX_SHARDS + 1)
                .build()
                .unwrap_err(),
            ConfigError::ShardsAboveMax
        );
        assert!(ServerConfig::builder()
            .shards(spectral_bloom::MAX_SHARDS)
            .build()
            .is_ok());
        assert_eq!(
            ServerConfig::builder().workers(0).build().unwrap_err(),
            ConfigError::ZeroWorkers
        );
        assert!(ServerConfig::builder().k(sbf_hash::MAX_K).build().is_ok());
    }

    #[test]
    fn bind_revalidates_mutated_configs() {
        // FRU is legal in-crate despite `#[non_exhaustive]`; external
        // crates mutate public fields instead (see the integration tests).
        let cfg = ServerConfig {
            read_timeout: Some(Duration::ZERO),
            ..ServerConfig::default()
        };
        let err = SbfServer::bind(cfg).expect_err("zero read timeout must refuse to bind");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("read_timeout"));
        // Too many hash functions used to panic inside the hash family.
        let cfg = ServerConfig {
            k: 17,
            ..ServerConfig::default()
        };
        let err = SbfServer::bind(cfg).expect_err("k = 17 must refuse to bind");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("at most 16"));
    }

    #[test]
    fn remove_underflow_is_a_typed_error() {
        let st = state(1 << 10);
        match st.handle(&Request::Remove {
            count: 5,
            key: b"never-inserted".to_vec(),
        }) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Underflow),
            other => panic!("unexpected response {other:?}"),
        }
    }
}

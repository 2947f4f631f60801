//! [`ClusterClient`]: scatter-gather over every node in a
//! [`ClusterTopology`], with read failover to replicas.
//!
//! # Scatter-gather
//!
//! Batched operations partition their keys per owning node with the same
//! counting sort `ShardedSketch` uses for shards (one pass to count, one
//! to scatter, zero allocation in steady state), then run in two phases:
//! **send** every node's frame back-to-back, **then** gather the
//! responses in the same order. Writing all frames before reading any
//! response lets the N servers process their sub-batches concurrently —
//! the fan-out costs one round trip, not N.
//!
//! # One-sidedness end-to-end
//!
//! Each key is routed to exactly one owning node for both INSERT and
//! ESTIMATE, so a key's estimate comes from the node that absorbed all
//! its acknowledged inserts: per-node one-sidedness (`f̂ ≥ f`) lifts to
//! the cluster unchanged. Failover preserves it because a replica only
//! ever holds a superset of the primary's acknowledged mass (see
//! [`super::repl`]).
//!
//! # Failover
//!
//! Reads (ESTIMATE, SNAPSHOT, JOIN, PING) that hit a dead primary
//! reconnect to the node's replica — geometry handshake included — and
//! retry once. Mutations never fail over: a replica must not take writes
//! the primary's WAL never saw, so they surface the transport error
//! instead.

use std::time::Duration;

use sbf_db::wire::FilterEnvelope;

use crate::client::{ClientError, SbfClient};
use crate::metrics;
use crate::proto::{self, RequestRef, Response};

use super::topology::{ClusterTopology, NodeSpec};

/// A failure pinned to the cluster member that produced it.
#[derive(Debug)]
pub enum ClusterError {
    /// Talking to `addr` (node index `node` in topology order) failed.
    Node {
        /// Index of the node in [`ClusterTopology::nodes`] order.
        node: usize,
        /// The address the client was talking to when it failed.
        addr: String,
        /// The underlying client failure.
        source: ClientError,
    },
}

impl ClusterError {
    /// Whether this is a typed geometry refusal (the HELLO handshake or a
    /// JOIN filter fetch answered [`Incompatible`], or a node's SNAPSHOT
    /// envelope does not match the topology's geometry).
    ///
    /// [`Incompatible`]: crate::proto::ErrorCode::Incompatible
    pub fn is_incompatible(&self) -> bool {
        let ClusterError::Node { source, .. } = self;
        matches!(
            source,
            ClientError::Server {
                code: crate::proto::ErrorCode::Incompatible,
                ..
            } | ClientError::Geometry { .. }
        )
    }
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ClusterError::Node { node, addr, source } = self;
        write!(f, "cluster node {node} ({addr}): {source}")
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        let ClusterError::Node { source, .. } = self;
        Some(source)
    }
}

/// One live connection into a cluster member.
#[derive(Debug)]
struct NodeConn {
    spec: NodeSpec,
    conn: SbfClient,
    /// Whether the connection points at the replica (after a failover)
    /// instead of the primary. Mutations are refused client-side then.
    on_replica: bool,
}

impl NodeConn {
    fn current_addr(&self) -> &str {
        if self.on_replica {
            self.spec.replica.as_deref().unwrap_or(&self.spec.primary)
        } else {
            &self.spec.primary
        }
    }
}

/// Per-node counting-sort scratch, the `PartitionScratch` shape lifted to
/// node granularity: `picks(n)` yields the key indices node `n` owns,
/// grouped contiguously, and `order` doubles as the gather map back into
/// input order. Buffers are reused across batches.
#[derive(Debug, Default)]
struct NodePartition {
    node_ids: Vec<u32>,
    counts: Vec<usize>,
    cursor: Vec<usize>,
    order: Vec<u32>,
}

impl NodePartition {
    fn partition(&mut self, len: usize, num_nodes: usize, node_of: impl Fn(usize) -> usize) {
        self.node_ids.clear();
        self.node_ids.reserve(len);
        self.counts.clear();
        self.counts.resize(num_nodes + 1, 0);
        for i in 0..len {
            let n = node_of(i);
            self.node_ids.push(n as u32);
            self.counts[n + 1] += 1;
        }
        for n in 0..num_nodes {
            self.counts[n + 1] += self.counts[n];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.counts[..num_nodes]);
        self.order.clear();
        self.order.resize(len, 0);
        for (i, &n) in self.node_ids.iter().enumerate() {
            let c = &mut self.cursor[n as usize];
            self.order[*c] = i as u32;
            *c += 1;
        }
    }

    /// The key indices owned by node `n`.
    fn picks(&self, n: usize) -> &[u32] {
        &self.order[self.counts[n]..self.counts[n + 1]]
    }
}

/// A connected cluster: one [`SbfClient`] per node, scatter-gather
/// batching, read failover, and cross-node joins. See the module docs for
/// the semantics; see [`ClusterClient::connect`] for the handshake.
#[derive(Debug)]
pub struct ClusterClient {
    topology: ClusterTopology,
    conns: Vec<NodeConn>,
    scratch: NodePartition,
    io_timeout: Option<Duration>,
}

impl ClusterClient {
    /// Connects to every node's primary and runs the HELLO geometry
    /// handshake on each. A primary that cannot be reached fails over to
    /// its replica immediately (reads will be served; mutations to that
    /// node are refused client-side). A node whose filter geometry
    /// differs refuses with a typed [`Incompatible`] error — check
    /// [`ClusterError::is_incompatible`].
    ///
    /// [`Incompatible`]: crate::proto::ErrorCode::Incompatible
    pub fn connect(topology: ClusterTopology) -> Result<Self, ClusterError> {
        Self::connect_with_timeout(topology, Some(Duration::from_secs(30)))
    }

    /// [`connect`](Self::connect) with an explicit per-connection I/O
    /// timeout (`None` waits forever).
    pub fn connect_with_timeout(
        topology: ClusterTopology,
        io_timeout: Option<Duration>,
    ) -> Result<Self, ClusterError> {
        let (m, k, seed) = topology.geometry();
        let mut conns = Vec::with_capacity(topology.num_nodes());
        for (node, spec) in topology.nodes().iter().enumerate() {
            let (conn, on_replica) = match dial(&spec.primary, io_timeout, m, k, seed) {
                Ok(conn) => (conn, false),
                // A dead primary at connect time: serve reads from the
                // replica if there is one, otherwise surface the failure.
                Err(e @ ClientError::Server { .. }) | Err(e @ ClientError::Unexpected(_)) => {
                    return Err(ClusterError::Node {
                        node,
                        addr: spec.primary.clone(),
                        source: e,
                    });
                }
                Err(primary_err) => match &spec.replica {
                    Some(replica) => {
                        let conn = dial(replica, io_timeout, m, k, seed).map_err(|e| {
                            ClusterError::Node {
                                node,
                                addr: replica.clone(),
                                source: e,
                            }
                        })?;
                        metrics::on(|mx| mx.cluster_failovers.inc());
                        (conn, true)
                    }
                    None => {
                        return Err(ClusterError::Node {
                            node,
                            addr: spec.primary.clone(),
                            source: primary_err,
                        });
                    }
                },
            };
            conns.push(NodeConn {
                spec: spec.clone(),
                conn,
                on_replica,
            });
        }
        Ok(ClusterClient {
            topology,
            conns,
            scratch: NodePartition::default(),
            io_timeout,
        })
    }

    /// The topology this client routes with.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topology
    }

    /// Whether reads for `node` are currently served by its replica.
    pub fn serving_from_replica(&self, node: usize) -> bool {
        self.conns[node].on_replica
    }

    fn node_error(&self, node: usize, source: ClientError) -> ClusterError {
        ClusterError::Node {
            node,
            addr: self.conns[node].current_addr().to_string(),
            source,
        }
    }

    /// Reconnects `node` to its replica after a primary failure. Errors
    /// with the original failure shape if the node has no replica or the
    /// replica is down too.
    fn failover(&mut self, node: usize) -> Result<(), ClusterError> {
        let (m, k, seed) = self.topology.geometry();
        let nc = &mut self.conns[node];
        if nc.on_replica {
            return Err(ClusterError::Node {
                node,
                addr: nc.current_addr().to_string(),
                source: ClientError::Unexpected("replica connection failed; no further failover"),
            });
        }
        let Some(replica) = nc.spec.replica.clone() else {
            return Err(ClusterError::Node {
                node,
                addr: nc.spec.primary.clone(),
                source: ClientError::Unexpected("primary down and node has no replica"),
            });
        };
        let conn = dial(&replica, self.io_timeout, m, k, seed).map_err(|e| ClusterError::Node {
            node,
            addr: replica.clone(),
            source: e,
        })?;
        nc.conn = conn;
        nc.on_replica = true;
        metrics::on(|mx| mx.cluster_failovers.inc());
        Ok(())
    }

    /// One read round trip with single-shot replica failover on transport
    /// failure. Server error frames do not fail over — the node answered.
    fn read_roundtrip(
        &mut self,
        node: usize,
        req: &RequestRef<'_>,
    ) -> Result<Response, ClusterError> {
        match self.conns[node].conn.roundtrip_ref(req) {
            Ok(resp) => Ok(resp),
            Err(ClientError::Io(_)) => {
                self.failover(node)?;
                self.conns[node]
                    .conn
                    .roundtrip_ref(req)
                    .map_err(|e| self.node_error(node, e))
            }
            Err(e) => Err(self.node_error(node, e)),
        }
    }

    /// One mutation round trip: never fails over (a replica must not take
    /// writes the primary's WAL never saw) and is refused client-side
    /// when the node is already serving from its replica.
    fn mutate_roundtrip(
        &mut self,
        node: usize,
        req: &RequestRef<'_>,
    ) -> Result<Response, ClusterError> {
        if self.conns[node].on_replica {
            return Err(self.node_error(
                node,
                ClientError::Unexpected(
                    "node is serving from its replica; mutations need the primary",
                ),
            ));
        }
        self.conns[node]
            .conn
            .roundtrip_ref(req)
            .map_err(|e| self.node_error(node, e))
    }

    /// Adds `count` occurrences of `key` on its owning node.
    pub fn insert(&mut self, key: &[u8], count: u64) -> Result<(), ClusterError> {
        let node = self.topology.node_of(key);
        match self.mutate_roundtrip(node, &RequestRef::Insert { count, key })? {
            Response::Ok => Ok(()),
            _ => Err(self.node_error(node, ClientError::Unexpected("insert expects Ok"))),
        }
    }

    /// Removes `count` occurrences of `key` on its owning node.
    pub fn remove(&mut self, key: &[u8], count: u64) -> Result<(), ClusterError> {
        let node = self.topology.node_of(key);
        match self.mutate_roundtrip(node, &RequestRef::Remove { count, key })? {
            Response::Ok => Ok(()),
            _ => Err(self.node_error(node, ClientError::Unexpected("remove expects Ok"))),
        }
    }

    /// The owning node's one-sided estimate for `key` (read; fails over).
    pub fn estimate(&mut self, key: &[u8]) -> Result<u64, ClusterError> {
        let node = self.topology.node_of(key);
        match self.read_roundtrip(node, &RequestRef::Estimate { key })? {
            Response::Value(v) => Ok(v),
            _ => Err(self.node_error(node, ClientError::Unexpected("estimate expects Value"))),
        }
    }

    /// Partitions `keys` per owning node and returns `(touched nodes,
    /// their sub-batches)`, recording the fan-out histogram. Sub-batches
    /// borrow the caller's keys.
    fn scatter_plan<'k, K: AsRef<[u8]>>(&mut self, keys: &'k [K]) -> Vec<(usize, Vec<&'k [u8]>)> {
        let n = self.topology.num_nodes();
        let topo = &self.topology;
        self.scratch
            .partition(keys.len(), n, |i| topo.node_of(keys[i].as_ref()));
        let plan: Vec<(usize, Vec<&[u8]>)> = (0..n)
            .filter(|&node| !self.scratch.picks(node).is_empty())
            .map(|node| {
                let sub = self
                    .scratch
                    .picks(node)
                    .iter()
                    .map(|&i| keys[i as usize].as_ref())
                    .collect();
                (node, sub)
            })
            .collect();
        metrics::on(|mx| mx.cluster_fanout.observe(plan.len() as u64));
        plan
    }

    /// Adds one occurrence of every key, scatter-gathered: each key goes
    /// to its owning node, all frames are written before any response is
    /// read. Mutations do not fail over; the first failing node aborts
    /// (keys acknowledged by other nodes in the same batch stay applied —
    /// re-running the batch only over-counts, which is one-sided-safe).
    pub fn insert_batch<K: AsRef<[u8]>>(&mut self, keys: &[K]) -> Result<(), ClusterError> {
        if keys.is_empty() {
            return Ok(());
        }
        let plan: Vec<(usize, RequestRef<'_>)> = self
            .scatter_plan(keys)
            .into_iter()
            .map(|(node, sub)| (node, RequestRef::InsertBatch { keys: sub }))
            .collect();
        for (node, req) in &plan {
            if self.conns[*node].on_replica {
                return Err(self.node_error(
                    *node,
                    ClientError::Unexpected(
                        "node is serving from its replica; mutations need the primary",
                    ),
                ));
            }
            self.conns[*node]
                .conn
                .send(req)
                .map_err(|e| self.node_error(*node, e))?;
        }
        for (node, _) in &plan {
            match self.conns[*node].conn.recv() {
                Ok(Response::Ok) => {}
                Ok(Response::Error { code, message }) => {
                    return Err(self.node_error(*node, ClientError::Server { code, message }));
                }
                Ok(_) => {
                    return Err(
                        self.node_error(*node, ClientError::Unexpected("insert_batch expects Ok"))
                    );
                }
                Err(e) => return Err(self.node_error(*node, e)),
            }
        }
        Ok(())
    }

    /// Estimates every key, scatter-gathered, answers recombined into
    /// input order. Each key is answered by its owning node, so per-node
    /// one-sidedness lifts to the whole batch. A node whose transport
    /// fails in the gather phase fails over to its replica and retries
    /// its sub-batch once.
    pub fn estimate_batch<K: AsRef<[u8]>>(&mut self, keys: &[K]) -> Result<Vec<u64>, ClusterError> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        let plan: Vec<(usize, RequestRef<'_>)> = self
            .scatter_plan(keys)
            .into_iter()
            .map(|(node, sub)| (node, RequestRef::EstimateBatch { keys: sub }))
            .collect();
        let mut sendfail = Vec::new();
        for (node, req) in &plan {
            // A send failure is retried in the gather phase (failover +
            // full roundtrip), same as a recv failure.
            if self.conns[*node].conn.send(req).is_err() {
                sendfail.push(*node);
            }
        }
        let mut out = vec![0u64; keys.len()];
        for (node, req) in &plan {
            let resp = if sendfail.contains(node) {
                self.failover(*node)?;
                self.conns[*node]
                    .conn
                    .roundtrip_ref(req)
                    .map_err(|e| self.node_error(*node, e))?
            } else {
                match self.conns[*node].conn.recv() {
                    Ok(Response::Error { code, message }) => {
                        return Err(self.node_error(*node, ClientError::Server { code, message }));
                    }
                    Ok(resp) => resp,
                    Err(ClientError::Io(_)) => {
                        self.failover(*node)?;
                        self.conns[*node]
                            .conn
                            .roundtrip_ref(req)
                            .map_err(|e| self.node_error(*node, e))?
                    }
                    Err(e) => return Err(self.node_error(*node, e)),
                }
            };
            let Response::Values(vs) = resp else {
                return Err(self.node_error(
                    *node,
                    ClientError::Unexpected("estimate_batch expects Values"),
                ));
            };
            let picks = self.scratch.picks(*node);
            if vs.len() != picks.len() {
                return Err(self.node_error(
                    *node,
                    ClientError::Unexpected("estimate_batch answer count"),
                ));
            }
            for (&i, v) in picks.iter().zip(vs) {
                out[i as usize] = v;
            }
        }
        Ok(out)
    }

    /// The §5 union of every node's filter: each node's SNAPSHOT envelope
    /// fetched (reads; fail over) and counter-added into one envelope —
    /// the whole cluster's mass as a single wire-compatible frame.
    ///
    /// Each envelope is decoded with the topology's `m` as its counter
    /// cap, so a misbehaving node cannot size the client's allocation; one
    /// that does not decode fails as [`ClientError::Envelope`], and one
    /// whose `(m, k, seed)` differs from the topology's as
    /// [`ClientError::Geometry`].
    pub fn snapshot_union(&mut self) -> Result<FilterEnvelope, ClusterError> {
        let (m, k, seed) = self.topology.geometry();
        let mut merged: Option<FilterEnvelope> = None;
        for node in 0..self.topology.num_nodes() {
            let bytes = match self.read_roundtrip(node, &RequestRef::Snapshot)? {
                Response::Frame(b) => b,
                _ => {
                    return Err(
                        self.node_error(node, ClientError::Unexpected("snapshot expects Frame"))
                    );
                }
            };
            let env = FilterEnvelope::decode_capped(&bytes, m)
                .map_err(|e| self.node_error(node, ClientError::Envelope(e)))?;
            let got = (env.counters.len(), env.k as usize, env.seed);
            if got != (m, k, seed) {
                let expected = (m, k, seed);
                return Err(self.node_error(node, ClientError::Geometry { expected, got }));
            }
            merged = Some(match merged {
                None => env,
                Some(mut acc) => {
                    for (a, b) in acc.counters.iter_mut().zip(&env.counters) {
                        *a = a.saturating_add(*b);
                    }
                    acc
                }
            });
        }
        // The topology is non-empty by construction, so merged is Some.
        merged.ok_or_else(|| {
            self.node_error(0, ClientError::Unexpected("empty topology has no snapshot"))
        })
    }

    /// Cross-node spectral Bloomjoin (§5.3): node `left` dials node
    /// `right`'s currently-serving address, multiplies the two filters
    /// counter-wise, and answers one joined-frequency estimate per key
    /// (zeroed below `threshold`), in input order.
    pub fn join<K: AsRef<[u8]>>(
        &mut self,
        left: usize,
        right: usize,
        threshold: u64,
        keys: &[K],
    ) -> Result<Vec<u64>, ClusterError> {
        let peer = self.conns[right].current_addr().to_string();
        let req = RequestRef::JoinPlan {
            peer: &peer,
            threshold,
            keys: proto::borrow_keys(keys),
        };
        match self.read_roundtrip(left, &req)? {
            Response::Values(vs) if vs.len() == keys.len() => Ok(vs),
            Response::Values(_) => {
                Err(self.node_error(left, ClientError::Unexpected("join_plan answer count")))
            }
            _ => Err(self.node_error(left, ClientError::Unexpected("join_plan expects Values"))),
        }
    }

    /// Pings every node (reads; fail over). Proves the whole cluster is
    /// reachable and geometry-compatible.
    pub fn ping_all(&mut self) -> Result<(), ClusterError> {
        for node in 0..self.topology.num_nodes() {
            match self.read_roundtrip(node, &RequestRef::Ping)? {
                Response::Ok => {}
                _ => {
                    return Err(self.node_error(node, ClientError::Unexpected("ping expects Ok")));
                }
            }
        }
        Ok(())
    }

    /// Asks every reachable node (primaries and, where connected,
    /// replicas) to drain and exit. Best-effort: unreachable members are
    /// skipped, not errors — shutdown is how a smoke test tears the
    /// cluster down after killing a primary.
    pub fn shutdown_all(&mut self) {
        let (m, k, seed) = self.topology.geometry();
        for nc in &mut self.conns {
            let _ = nc.conn.roundtrip_ref(&RequestRef::Shutdown);
            // The counterpart address (replica when serving the primary
            // and vice versa) gets a fresh best-effort connection.
            let other = if nc.on_replica {
                Some(nc.spec.primary.clone())
            } else {
                nc.spec.replica.clone()
            };
            if let Some(addr) = other {
                if let Ok(mut conn) = dial(&addr, self.io_timeout, m, k, seed) {
                    let _ = conn.shutdown();
                }
            }
        }
    }
}

/// Connects to one member and runs the HELLO geometry handshake.
fn dial(
    addr: &str,
    io_timeout: Option<Duration>,
    m: usize,
    k: usize,
    seed: u64,
) -> Result<SbfClient, ClientError> {
    let mut conn = SbfClient::builder(addr).io_timeout(io_timeout).connect()?;
    conn.hello(m, k, seed)?;
    Ok(conn)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_groups_and_recombines() {
        let mut p = NodePartition::default();
        let owners = [2usize, 0, 1, 2, 0, 0, 1];
        p.partition(owners.len(), 3, |i| owners[i]);
        assert_eq!(p.picks(0), &[1, 4, 5]);
        assert_eq!(p.picks(1), &[2, 6]);
        assert_eq!(p.picks(2), &[0, 3]);
        // Every index appears exactly once across all picks.
        let mut seen: Vec<u32> = (0..3).flat_map(|n| p.picks(n).to_vec()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..owners.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn partition_handles_empty_and_single_node() {
        let mut p = NodePartition::default();
        p.partition(0, 4, |_| 0);
        for n in 0..4 {
            assert!(p.picks(n).is_empty());
        }
        p.partition(5, 1, |_| 0);
        assert_eq!(p.picks(0), &[0, 1, 2, 3, 4]);
    }
}

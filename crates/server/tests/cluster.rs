//! Cluster end-to-end suite: real `sbfd` processes-worth of servers on
//! loopback sockets, driven through [`ClusterClient`] — the acceptance
//! criteria of the cluster issue. A 1-node cluster is bit-identical to a
//! single server; geometry mismatches are refused at handshake; 3-node
//! scatter-gather stays one-sided versus ground truth; a replica promoted
//! after a primary crash never under-counts an acknowledged mutation; and
//! a cross-node spectral Bloomjoin reports the same group set as the
//! in-process verified join on identical relations, shipping a small
//! fraction of the bytes that shipping the relation would, and saturating
//! a counter product past `u64::MAX` instead of panicking.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use sbf_db::join::{spectral_bloomjoin_verified, JoinPlan};
use sbf_db::relation::Relation;
use sbf_db::wire::{FilterEnvelope, FilterKind, WireError};
use sbf_server::metrics::server_metrics;
use sbf_server::{
    ClientError, ClusterClient, ClusterError, ClusterTopology, ErrorCode, NodeSpec, Request,
    Response, SbfClient, SbfServer, ServerConfig, ServerHandle,
};
use sbf_workloads::ZipfWorkload;
use spectral_bloom::{CounterStore, MsSbf, SketchReader};

const M: usize = 1 << 14;
const K: usize = 5;
const SEED: u64 = 42;

fn config() -> ServerConfig {
    config_m(M)
}

fn config_m(m: usize) -> ServerConfig {
    ServerConfig::builder()
        .addr("127.0.0.1:0")
        .m(m)
        .k(K)
        .seed(SEED)
        .shards(4)
        .workers(4)
        .read_timeout(Some(Duration::from_secs(10)))
        .write_timeout(Some(Duration::from_secs(10)))
        .build()
        .expect("test config is valid")
}

fn spawn_node(cfg: ServerConfig) -> ServerHandle {
    SbfServer::bind(cfg).unwrap().spawn().unwrap()
}

fn key_bytes(key: u64) -> Vec<u8> {
    key.to_le_bytes().to_vec()
}

/// Serialises the tests that run a JOIN_PLAN: every join adds to the
/// process-global `sbfd_cluster_join_bytes_total`, which
/// [`join_envelope_is_a_small_fraction_of_ship_all`] reads.
fn join_lock() -> MutexGuard<'static, ()> {
    static JOINS: Mutex<()> = Mutex::new(());
    JOINS.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait_replicated(handle: &ServerHandle) {
    let state = handle.state();
    let repl = state.replicator().expect("replicator configured");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !repl.connected() {
        assert!(
            Instant::now() < deadline,
            "replica link did not come up in 10s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn one_node_cluster_degenerates_to_single_node_bit_identically() {
    let clustered = spawn_node(config());
    let solo = spawn_node(config());
    let topo = ClusterTopology::new(
        vec![NodeSpec::solo(clustered.addr().to_string())],
        M,
        K,
        SEED,
    )
    .unwrap();
    let mut cluster = ClusterClient::connect(topo).unwrap();
    let mut plain = SbfClient::builder(solo.addr()).connect().unwrap();

    let keys: Vec<Vec<u8>> = (0u64..500).map(key_bytes).collect();
    cluster.insert_batch(&keys).unwrap();
    plain.insert_batch(&keys).unwrap();
    cluster.insert(b"apple", 7).unwrap();
    plain.insert(b"apple", 7).unwrap();
    cluster.remove(b"apple", 2).unwrap();
    plain.remove(b"apple", 2).unwrap();

    // Same ops, same geometry, same seed: estimates agree exactly...
    let via_cluster = cluster.estimate_batch(&keys).unwrap();
    let via_plain = plain.estimate_batch(&keys).unwrap();
    assert_eq!(via_cluster, via_plain);
    assert_eq!(
        cluster.estimate(b"apple").unwrap(),
        plain.estimate(b"apple").unwrap()
    );
    // ...and the full filters are byte-identical on the wire.
    assert_eq!(
        cluster.snapshot_union().unwrap().encode(),
        plain.snapshot().unwrap()
    );

    clustered.shutdown_and_join().unwrap();
    solo.shutdown_and_join().unwrap();
}

#[test]
fn geometry_mismatch_is_refused_at_handshake() {
    let node = spawn_node(config());
    // The client expects k = K+1; the server serves k = K. The HELLO
    // handshake must refuse with a typed Incompatible before any data op.
    let topo = ClusterTopology::new(
        vec![NodeSpec::solo(node.addr().to_string())],
        M,
        K + 1,
        SEED,
    )
    .unwrap();
    match ClusterClient::connect(topo) {
        Err(e) => assert!(e.is_incompatible(), "want Incompatible, got: {e}"),
        Ok(_) => panic!("mismatched geometry must not connect"),
    }
    // JOIN_FILTER runs the same gate server-side.
    let mut plain = SbfClient::builder(node.addr()).connect().unwrap();
    match plain.join_filter(M, K, SEED + 1) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Incompatible),
        other => panic!("expected Incompatible, got {other:?}"),
    }
    node.shutdown_and_join().unwrap();
}

/// A node that passes the HELLO handshake and then answers every SNAPSHOT
/// with `envelope`: the misbehaving peer `snapshot_union` must not trust.
fn spawn_lying_node(envelope: Vec<u8>) -> String {
    use std::io::{Read, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut len = [0u8; 4];
        while stream.read_exact(&mut len).is_ok() {
            let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
            stream.read_exact(&mut body).unwrap();
            let resp = match Request::decode(body[0], &body[1..]).unwrap() {
                Request::Snapshot => Response::Frame(envelope.clone()),
                _ => Response::Ok,
            };
            stream.write_all(&resp.encode().unwrap()).unwrap();
        }
    });
    addr
}

#[test]
fn snapshot_union_refuses_envelopes_off_the_topology() {
    let envelope = |m: usize, k: u32, seed: u64| {
        FilterEnvelope {
            kind: FilterKind::MinimumSelection,
            k,
            seed,
            counters: vec![1; m],
        }
        .encode()
    };
    let union_of = |lying: Vec<u8>| {
        let topo = ClusterTopology::new(vec![NodeSpec::solo(spawn_lying_node(lying))], M, K, SEED)
            .unwrap();
        ClusterClient::connect(topo).unwrap().snapshot_union()
    };
    // More counters than the topology's m: refused by the decode cap
    // before the client reserves room for them.
    match union_of(envelope(M + 1, K as u32, SEED)) {
        Err(ClusterError::Node {
            source: ClientError::Envelope(WireError::Oversized),
            ..
        }) => {}
        other => panic!("want an Oversized envelope error, got {other:?}"),
    }
    // Fewer counters, another k, another seed: a typed geometry error.
    for (m, k, seed) in [(M - 1, K, SEED), (M, K + 1, SEED), (M, K, SEED + 1)] {
        match union_of(envelope(m, k as u32, seed)) {
            Err(
                e @ ClusterError::Node {
                    source: ClientError::Geometry { expected, got },
                    ..
                },
            ) => {
                assert_eq!(expected, (M, K, SEED));
                assert_eq!(got, (m, k, seed));
                assert!(e.is_incompatible());
            }
            other => panic!(
                "want a Geometry error for {:?}, got {other:?}",
                (m, k, seed)
            ),
        }
    }
    // The topology's own geometry goes through.
    assert_eq!(
        union_of(envelope(M, K as u32, SEED)).unwrap().counters,
        vec![1; M]
    );
}

#[test]
fn three_node_scatter_gather_is_one_sided_vs_reference() {
    let nodes: Vec<ServerHandle> = (0..3).map(|_| spawn_node(config())).collect();
    let topo = ClusterTopology::new(
        nodes
            .iter()
            .map(|h| NodeSpec::solo(h.addr().to_string()))
            .collect(),
        M,
        K,
        SEED,
    )
    .unwrap();
    let mut cluster = ClusterClient::connect(topo).unwrap();
    cluster.ping_all().unwrap();

    // Skewed multiplicities: key i appears (i % 7) + 1 times.
    let mut keys = Vec::new();
    for i in 0u64..400 {
        for _ in 0..(i % 7) + 1 {
            keys.push(key_bytes(i));
        }
    }
    cluster.insert_batch(&keys).unwrap();

    let distinct: Vec<Vec<u8>> = (0u64..400).map(key_bytes).collect();
    let ests = cluster.estimate_batch(&distinct).unwrap();
    for (i, est) in ests.iter().enumerate() {
        let truth = (i as u64 % 7) + 1;
        assert!(*est >= truth, "key {i}: estimate {est} < truth {truth}");
    }
    // The union snapshot carries the whole cluster's mass: k counters per
    // insert, summed across nodes.
    let env = cluster.snapshot_union().unwrap();
    let total: u64 = env.counters.iter().sum();
    assert_eq!(total, keys.len() as u64 * K as u64);
    // §2.2 global queries: the coordinator-side union answers every key
    // one-sidedly without asking the owning node.
    let mut global = MsSbf::new(M, K, SEED);
    for (i, &c) in env.counters.iter().enumerate() {
        global.core_mut().store_mut().set(i, c);
    }
    for (i, key) in distinct.iter().enumerate() {
        let truth = (i as u64 % 7) + 1;
        let est = global.estimate(key.as_slice());
        assert!(
            est >= truth,
            "key {i}: union estimate {est} < truth {truth}"
        );
    }

    cluster.shutdown_all();
    for h in nodes {
        h.join().unwrap();
    }
}

#[test]
fn promoted_replica_never_under_counts_acknowledged_mutations() {
    let replica = spawn_node(config());
    let mut primary_cfg = config();
    primary_cfg.replicate_to = Some(replica.addr().to_string());
    let primary = spawn_node(primary_cfg);
    wait_replicated(&primary);

    let topo = ClusterTopology::new(
        vec![NodeSpec::replicated(
            primary.addr().to_string(),
            replica.addr().to_string(),
        )],
        M,
        K,
        SEED,
    )
    .unwrap();
    let mut cluster = ClusterClient::connect(topo).unwrap();

    // Acknowledged ingest: every batch the client saw Ok for is covered
    // by the semi-sync ship contract.
    let mut acked = Vec::new();
    for round in 0u64..10 {
        let batch: Vec<Vec<u8>> = (round * 50..(round + 1) * 50).map(key_bytes).collect();
        cluster.insert_batch(&batch).unwrap();
        acked.extend(batch);
    }
    cluster.insert(b"last-acked", 3).unwrap();

    // Crash the primary mid-stream, exactly as a SIGKILL would leave it.
    primary.crash_and_join().unwrap();

    // Mutations must NOT fail over to the replica...
    match cluster.insert(b"post-crash", 1) {
        Err(ClusterError::Node { .. }) => {}
        Ok(()) => panic!("mutation must not be acknowledged after the primary died"),
    }
    // ...but reads do, and every acknowledged mutation is still counted.
    let ests = cluster.estimate_batch(&acked).unwrap();
    assert!(cluster.serving_from_replica(0), "reads failed over");
    for (key, est) in acked.iter().zip(&ests) {
        assert!(*est >= 1, "acked key {key:?} under-counted after failover");
    }
    assert!(cluster.estimate(b"last-acked").unwrap() >= 3);

    cluster.shutdown_all();
    replica.join().unwrap();
}

#[test]
fn replication_survives_a_replica_restart_via_resync() {
    // Kill the replica mid-stream: ships fail (mutations answer
    // Unavailable, unacknowledged), then a new replica at the same port
    // is bootstrapped by the background resync and ships resume.
    let replica = spawn_node(config());
    let replica_addr = replica.addr();
    let mut primary_cfg = config();
    primary_cfg.replicate_to = Some(replica_addr.to_string());
    let primary = spawn_node(primary_cfg);
    wait_replicated(&primary);

    let mut client = SbfClient::builder(primary.addr()).connect().unwrap();
    client.insert(b"before", 2).unwrap();

    replica.shutdown_and_join().unwrap();
    // The dead replica downgrades mutations to Unavailable (the first
    // insert may still succeed if the TCP write lands in the dead
    // socket's buffer; the roundtrip read then fails and drops the link).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client.insert(b"unacked", 1) {
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::Unavailable);
                break;
            }
            Ok(()) => assert!(
                Instant::now() < deadline,
                "ships kept succeeding with a dead replica"
            ),
            Err(other) => panic!("unexpected failure: {other:?}"),
        }
    }

    // Restart a replica on the same address; resync must bootstrap it.
    let mut cfg = config();
    cfg.addr = replica_addr.to_string();
    let replica2 = spawn_node(cfg);
    wait_replicated(&primary);
    client.insert(b"after-resync", 4).unwrap();

    // The bootstrap snapshot covered everything applied before the
    // resync (acked or not), and the new ship carried the rest: the
    // replica's counters dominate every acknowledged mutation.
    let mut rclient = SbfClient::builder(replica_addr).connect().unwrap();
    assert!(rclient.estimate(b"before").unwrap() >= 2);
    assert!(rclient.estimate(b"after-resync").unwrap() >= 4);

    primary.shutdown_and_join().unwrap();
    replica2.shutdown_and_join().unwrap();
}

#[test]
fn cross_node_join_matches_in_process_verified_join() {
    let _joins = join_lock();
    let site_a = spawn_node(config());
    let site_b = spawn_node(config());
    let topo = ClusterTopology::new(
        vec![
            NodeSpec::solo(site_a.addr().to_string()),
            NodeSpec::solo(site_b.addr().to_string()),
        ],
        M,
        K,
        SEED,
    )
    .unwrap();

    // Identical relations on both sides of the wire and in-process:
    // R holds keys 0..300 (multiplicity 1 + i%3), S holds 150..450
    // (multiplicity 1 + i%2); the join groups are the 150..300 overlap.
    let mut r_keys = Vec::new();
    for i in 0u64..300 {
        for _ in 0..1 + i % 3 {
            r_keys.push(i);
        }
    }
    let mut s_keys = Vec::new();
    for i in 150u64..450 {
        for _ in 0..1 + i % 2 {
            s_keys.push(i);
        }
    }
    let threshold = 2u64;

    // Wire side: R's multiset into node 0, S's into node 1, then a
    // JOIN_PLAN executed between the two live servers.
    let mut a = SbfClient::builder(site_a.addr()).connect().unwrap();
    let mut b = SbfClient::builder(site_b.addr()).connect().unwrap();
    a.insert_batch(&r_keys.iter().map(|&k| key_bytes(k)).collect::<Vec<_>>())
        .unwrap();
    b.insert_batch(&s_keys.iter().map(|&k| key_bytes(k)).collect::<Vec<_>>())
        .unwrap();
    let candidates: Vec<u64> = (0u64..300).collect();
    let candidate_bytes: Vec<Vec<u8>> = candidates.iter().map(|&k| key_bytes(k)).collect();
    let mut cluster = ClusterClient::connect(topo).unwrap();
    let wire = cluster.join(0, 1, threshold, &candidate_bytes).unwrap();

    // In-process reference: the paper's verified Bloomjoin (exact) on the
    // same relations and geometry.
    let r = Relation::from_keys("r", &r_keys, 64);
    let s = Relation::from_keys("s", &s_keys, 64);
    let plan = JoinPlan {
        m: M,
        k: K,
        seed: SEED,
        threshold: Some(threshold),
    };
    let verified = spectral_bloomjoin_verified(&r, &s, &plan);

    for (key, &got) in candidates.iter().zip(&wire) {
        match verified.groups.get(key) {
            Some(&exact) => assert!(
                got >= exact,
                "group {key}: wire {got} under-counts exact {exact}"
            ),
            None => assert_eq!(got, 0, "group {key}: wire reports a non-group"),
        }
    }
    let wire_groups: Vec<u64> = candidates
        .iter()
        .zip(&wire)
        .filter(|(_, &v)| v > 0)
        .map(|(k, _)| *k)
        .collect();
    assert_eq!(
        wire_groups.len(),
        verified.groups.len(),
        "wire group set != verified group set"
    );

    // A dead peer is a typed Unavailable, not a hang.
    site_b.shutdown_and_join().unwrap();
    match cluster.join(0, 1, threshold, &candidate_bytes) {
        Err(ClusterError::Node { source, .. }) => match source {
            ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::Unavailable),
            other => panic!("expected server Unavailable, got {other:?}"),
        },
        Ok(_) => panic!("join against a dead peer must fail"),
    }
    site_a.shutdown_and_join().unwrap();
}

/// A JOIN_PLAN whose counter product passes `u64::MAX` saturates instead
/// of panicking the reactor: node A holds a key at `count = u64::MAX`, peer
/// B holds it twice, the join answers `u64::MAX` for it, and A's
/// connection still answers a PING afterwards.
#[test]
fn join_plan_saturates_an_overflowing_product() {
    let _joins = join_lock();
    let site_a = spawn_node(config());
    let site_b = spawn_node(config());
    let mut a = SbfClient::builder(site_a.addr()).connect().unwrap();
    let mut b = SbfClient::builder(site_b.addr()).connect().unwrap();
    a.insert(b"hot", u64::MAX).unwrap();
    b.insert(b"hot", 1).unwrap();
    b.insert(b"hot", 1).unwrap();
    let joined = a
        .join_plan(&site_b.addr().to_string(), 1, &[b"hot"])
        .unwrap();
    assert_eq!(joined, vec![u64::MAX]);
    a.ping().unwrap();
    drop((a, b));
    site_a.shutdown_and_join().unwrap();
    site_b.shutdown_and_join().unwrap();
}

/// The wire Bloomjoin ships one Elias-δ coded filter envelope instead of
/// the remote relation. Fixed data: m = 2^16, k = 5, seed 42; R is ids
/// 0..8192 on node A and S is 20,000 Zipf keys on node B. The envelope
/// measured 15,194 B against 1,280,000 B for shipping S at 64 B per row
/// (1.19%); the ceiling is 1.2%.
#[test]
fn join_envelope_is_a_small_fraction_of_ship_all() {
    const JOIN_M: usize = 1 << 16;
    const ROW_BYTES: u64 = 64;
    let _joins = join_lock();
    sbf_telemetry::set_enabled(true);
    let site_a = spawn_node(config_m(JOIN_M));
    let site_b = spawn_node(config_m(JOIN_M));
    let topo = ClusterTopology::new(
        vec![
            NodeSpec::solo(site_a.addr().to_string()),
            NodeSpec::solo(site_b.addr().to_string()),
        ],
        JOIN_M,
        K,
        SEED,
    )
    .unwrap();

    let r_keys: Vec<Vec<u8>> = (0u64..8192).map(key_bytes).collect();
    let s_keys: Vec<Vec<u8>> = ZipfWorkload::generate(8192, 20_000, 1.07, 0x10_1A)
        .stream
        .into_iter()
        .map(key_bytes)
        .collect();
    let mut a = SbfClient::builder(site_a.addr()).connect().unwrap();
    let mut b = SbfClient::builder(site_b.addr()).connect().unwrap();
    a.insert_batch(&r_keys).unwrap();
    b.insert_batch(&s_keys).unwrap();

    let shipped = &server_metrics().cluster_join_bytes;
    let before = shipped.get();
    let mut cluster = ClusterClient::connect(topo).unwrap();
    cluster.join(0, 1, 2, &r_keys).unwrap();
    let envelope = shipped.get() - before;
    assert_eq!(
        envelope,
        b.join_filter(JOIN_M, K, SEED).unwrap().len() as u64,
        "JOIN_PLAN ships exactly the peer's JOIN_FILTER envelope"
    );
    let ship_all = s_keys.len() as u64 * ROW_BYTES;
    assert!(
        envelope * 1000 <= ship_all * 12,
        "join envelope {envelope} B is more than 1.2% of ship-all {ship_all} B"
    );

    drop((a, b));
    cluster.shutdown_all();
    site_a.join().unwrap();
    site_b.join().unwrap();
}

//! End-to-end loopback suite: a real `sbfd` on `127.0.0.1:0`, real
//! [`SbfClient`]s, and the acceptance criteria from the serving-layer
//! issue — concurrent zipf ingest stays one-sided versus a reference
//! sketch, SNAPSHOT matches the server's own counters, malformed and
//! oversized frames get typed error frames on a connection that keeps
//! working, and graceful drain finishes in-flight work and flushes a
//! final snapshot.

use std::time::Duration;

use sbf_db::wire::{FilterEnvelope, FilterKind};
use sbf_server::{ClientError, ErrorCode, Request, SbfClient, SbfServer, ServerConfig};
use sbf_workloads::ZipfWorkload;
use spectral_bloom::{CounterStore, MsSbf, MultisetSketch, SketchReader};

const M: usize = 1 << 14;
const K: usize = 5;
const SEED: u64 = 42;

fn test_config() -> ServerConfig {
    ServerConfig::builder()
        .addr("127.0.0.1:0")
        .m(M)
        .k(K)
        .seed(SEED)
        .shards(4)
        .workers(6)
        .read_timeout(Some(Duration::from_secs(10)))
        .write_timeout(Some(Duration::from_secs(10)))
        .build()
        .expect("test config is valid")
}

fn connect(addr: std::net::SocketAddr) -> SbfClient {
    SbfClient::builder(addr).connect().expect("client connects")
}

fn key_bytes(key: u64) -> Vec<u8> {
    key.to_le_bytes().to_vec()
}

#[test]
fn ping_and_basic_ops_over_a_real_socket() {
    let handle = SbfServer::bind(test_config()).unwrap().spawn().unwrap();
    let mut client = connect(handle.addr());
    client.ping().unwrap();
    client.insert(b"alpha", 3).unwrap();
    client.insert(b"alpha", 2).unwrap();
    assert!(client.estimate(b"alpha").unwrap() >= 5, "one-sided");
    client.remove(b"alpha", 1).unwrap();
    assert!(client.estimate(b"alpha").unwrap() >= 4);
    // Underflow is a typed server error, and the connection survives it.
    match client.remove(b"never-seen", 9) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Underflow),
        other => panic!("expected underflow error, got {other:?}"),
    }
    client.ping().unwrap();
    handle.shutdown_and_join().unwrap();
}

/// The tentpole acceptance test: 4 client threads batch-insert a 100k-item
/// zipf stream; afterwards every key's ESTIMATE is ≥ its true frequency,
/// and SNAPSHOT decodes to exactly the counters a reference sharded+MS
/// union would hold for the same multiset (same total mass).
#[test]
fn concurrent_zipf_ingest_stays_one_sided() {
    const THREADS: usize = 4;
    const ITEMS: usize = 100_000;
    const UNIVERSE: usize = 4_096;
    const BATCH: usize = 512;

    let w = ZipfWorkload::generate(UNIVERSE, ITEMS, 1.07, 0xDECAF);
    let handle = SbfServer::bind(test_config()).unwrap().spawn().unwrap();
    let addr = handle.addr();

    // Slice the stream across THREADS clients, each batching inserts.
    let chunk = w.stream.len().div_ceil(THREADS);
    std::thread::scope(|scope| {
        for part in w.stream.chunks(chunk) {
            scope.spawn(move || {
                let mut client = connect(addr);
                for batch in part.chunks(BATCH) {
                    let keys: Vec<Vec<u8>> = batch.iter().map(|&k| key_bytes(k)).collect();
                    client.insert_batch(&keys).unwrap();
                }
            });
        }
    });

    let mut client = connect(addr);

    // One-sidedness for every key in the universe, via batched estimates.
    let all_keys: Vec<Vec<u8>> = (0..UNIVERSE as u64).map(key_bytes).collect();
    let estimates = client.estimate_batch(&all_keys).unwrap();
    for (key, (&est, &truth)) in estimates.iter().zip(&w.truth).enumerate() {
        assert!(
            est >= truth,
            "key {key}: estimate {est} < true frequency {truth}"
        );
    }

    // Cross-check against a reference in-process sketch built from the
    // same stream: the server's estimate can exceed the reference's only
    // through shard-union collisions, never fall below it... both are
    // upper bounds of truth; what must match exactly is total mass.
    let mut reference = MsSbf::new(M, K, SEED);
    for &key in &w.stream {
        reference.insert_by(&key_bytes(key).as_slice(), 1);
    }
    let snap = client.snapshot().unwrap();
    let env = FilterEnvelope::decode(&snap).unwrap();
    assert_eq!(env.counters.len(), M);
    assert_eq!(env.k, K as u32);
    assert_eq!(env.seed, SEED);
    let server_mass: u64 = env.counters.iter().sum();
    let reference_store = reference.core().store();
    let reference_mass: u64 = (0..M).map(|i| reference_store.get(i)).sum();
    assert_eq!(
        server_mass, reference_mass,
        "snapshot must carry exactly the ingested mass"
    );

    // The snapshot itself answers one-sided estimates when rehydrated.
    let mut rehydrated = MsSbf::new(M, K, SEED);
    for (i, &c) in env.counters.iter().enumerate() {
        rehydrated.core_mut().store_mut().set(i, c);
    }
    for (key, &truth) in w.truth.iter().enumerate() {
        let est = rehydrated.estimate(&key_bytes(key as u64).as_slice());
        assert!(est >= truth, "rehydrated snapshot must stay one-sided");
    }

    handle.shutdown_and_join().unwrap();
}

/// §5 over the wire: a second site's filter MERGEd into the server is
/// visible in estimates and in the next snapshot.
#[test]
fn merge_unions_a_remote_site() {
    let handle = SbfServer::bind(test_config()).unwrap().spawn().unwrap();
    let mut client = connect(handle.addr());
    client.insert(b"local-key", 4).unwrap();

    let mut site_b = MsSbf::new(M, K, SEED);
    site_b.insert_by(&b"remote-key".as_slice(), 9);
    let store = site_b.core().store();
    let env = FilterEnvelope {
        kind: FilterKind::MinimumSelection,
        k: K as u32,
        seed: SEED,
        counters: (0..M).map(|i| store.get(i)).collect(),
    };
    client.merge(&env.encode()).unwrap();

    assert!(client.estimate(b"remote-key").unwrap() >= 9);
    assert!(client.estimate(b"local-key").unwrap() >= 4);

    let snap = FilterEnvelope::decode(&client.snapshot().unwrap()).unwrap();
    let total: u64 = snap.counters.iter().sum();
    assert_eq!(total, (4 + 9) * K as u64);

    // Geometry mismatch is a typed Incompatible error.
    let bad = FilterEnvelope {
        kind: FilterKind::MinimumSelection,
        k: K as u32 + 1,
        seed: SEED,
        counters: vec![0; M],
    };
    match client.merge(&bad.encode()) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Incompatible),
        other => panic!("expected incompatible, got {other:?}"),
    }
    handle.shutdown_and_join().unwrap();
}

#[test]
fn stats_exposes_server_metrics() {
    sbf_telemetry::set_enabled(true);
    let handle = SbfServer::bind(test_config()).unwrap().spawn().unwrap();
    let mut client = connect(handle.addr());
    client.insert(b"observed", 1).unwrap();
    let text = client.stats().unwrap();
    assert!(
        text.contains("sbfd_connections_total"),
        "stats must carry server metrics, got:\n{text}"
    );
    assert!(text.contains("sbfd_requests_total{op=\"insert\"}"));
    assert!(text.contains("sbfd_request_latency_ns"));
    handle.shutdown_and_join().unwrap();
}

/// Malformed input never kills the connection, let alone the server:
/// every bad frame gets a typed error frame and the same socket then
/// serves a normal request.
#[test]
fn malformed_frames_get_typed_errors_and_the_connection_survives() {
    let handle = SbfServer::bind(test_config()).unwrap().spawn().unwrap();
    let mut client = connect(handle.addr());

    // Unknown opcode.
    let frame = [5u8, 0, 0, 0, 0x7F, 1, 2, 3, 4];
    match client.raw_roundtrip(&frame).unwrap() {
        sbf_server::Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownOp),
        other => panic!("expected error frame, got {other:?}"),
    }

    // Truncated INSERT payload (count field cut short).
    let frame = [4u8, 0, 0, 0, 0x02, 9, 9, 9];
    match client.raw_roundtrip(&frame).unwrap() {
        sbf_server::Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("expected error frame, got {other:?}"),
    }

    // Batch with a hostile element count (claims 2^31 keys, ships 4 B).
    let mut frame = vec![10u8, 0, 0, 0, 0x05];
    frame.extend_from_slice(&(1u32 << 31).to_le_bytes());
    frame.extend_from_slice(&[0, 0, 0, 0, 0]);
    match client.raw_roundtrip(&frame).unwrap() {
        sbf_server::Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("expected error frame, got {other:?}"),
    }

    // Zero-length frame.
    match client.raw_roundtrip(&[0u8, 0, 0, 0]).unwrap() {
        sbf_server::Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("expected error frame, got {other:?}"),
    }

    // Same connection still works.
    client.ping().unwrap();
    client.insert(b"still-alive", 1).unwrap();
    assert!(client.estimate(b"still-alive").unwrap() >= 1);
    handle.shutdown_and_join().unwrap();
}

/// A frame whose declared length exceeds the server cap is answered with
/// `Oversized` *before* the payload arrives, the payload is discarded,
/// and the connection keeps serving.
#[test]
fn oversized_frames_are_refused_and_discarded() {
    let mut config = test_config();
    config.max_frame = 1024;
    let handle = SbfServer::bind(config).unwrap().spawn().unwrap();
    let mut client = connect(handle.addr());

    // Declared length 4096 > cap 1024; ship the whole payload so the
    // discard path has real bytes to consume.
    let mut frame = Vec::new();
    frame.extend_from_slice(&4096u32.to_le_bytes());
    frame.push(0x02); // INSERT opcode
    frame.extend(std::iter::repeat_n(0xAB, 4095));
    match client.raw_roundtrip(&frame).unwrap() {
        sbf_server::Response::Error { code, .. } => assert_eq!(code, ErrorCode::Oversized),
        other => panic!("expected oversized error, got {other:?}"),
    }

    // Stream stayed framed: the next request on the same socket works.
    client.ping().unwrap();
    handle.shutdown_and_join().unwrap();
}

/// An idle peer is reclaimed by the read timeout; the server itself keeps
/// serving new connections afterwards.
#[test]
fn idle_connections_time_out_but_the_server_lives_on() {
    let mut config = test_config();
    config.read_timeout = Some(Duration::from_millis(100));
    let handle = SbfServer::bind(config).unwrap().spawn().unwrap();

    let mut idle = connect(handle.addr());
    idle.ping().unwrap();
    std::thread::sleep(Duration::from_millis(400));
    // The server has dropped us; the next roundtrip fails at transport
    // level (EOF reading the response, or a reset write).
    assert!(idle.ping().is_err(), "idle connection should be reclaimed");

    let mut fresh = connect(handle.addr());
    fresh.ping().unwrap();
    handle.shutdown_and_join().unwrap();
}

/// Graceful drain: SHUTDOWN is acknowledged, the accept loop stops, and
/// the final snapshot lands on disk with the full ingested mass.
#[test]
fn shutdown_drains_and_flushes_a_snapshot() {
    let dir = std::env::temp_dir().join(format!("sbfd-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("final.sbf");

    let mut config = test_config();
    config.snapshot_path = Some(path.clone());
    let handle = SbfServer::bind(config).unwrap().spawn().unwrap();
    let addr = handle.addr();

    let mut client = connect(addr);
    client.insert(b"persist-me", 6).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();

    // Post-drain: new connections are refused or die unanswered.
    if let Ok(mut c) = SbfClient::builder(addr)
        .io_timeout(Some(Duration::from_millis(200)))
        .connect()
    {
        assert!(c.ping().is_err(), "drained server must not serve");
    }

    let bytes = std::fs::read(&path).unwrap();
    let env = FilterEnvelope::decode(&bytes).unwrap();
    assert_eq!(env.counters.len(), M);
    let total: u64 = env.counters.iter().sum();
    assert_eq!(total, 6 * K as u64, "flushed snapshot carries the mass");

    let mut sbf = MsSbf::new(M, K, SEED);
    for (i, &c) in env.counters.iter().enumerate() {
        sbf.core_mut().store_mut().set(i, c);
    }
    assert!(sbf.estimate(&b"persist-me".as_slice()) >= 6);

    std::fs::remove_dir_all(&dir).ok();
}

/// Mutations racing a drain either complete fully or are refused with
/// `Draining` — never half-applied, and the drain always terminates.
#[test]
fn draining_refuses_new_mutations() {
    let handle = SbfServer::bind(test_config()).unwrap().spawn().unwrap();
    let state = handle.state();
    let mut client = connect(handle.addr());
    client.insert(b"before", 1).unwrap();
    state.begin_shutdown();
    // This request may race the worker noticing the flag; both outcomes
    // are legal, but a refusal must be typed `Draining`.
    match client.insert(b"after", 1) {
        Ok(()) => {}
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Draining),
        Err(e) => {
            // Worker closed the connection before reading the request —
            // also a legal drain outcome.
            assert!(matches!(e, ClientError::Io(_)), "unexpected: {e}");
        }
    }
    handle.join().unwrap();
}

/// The raw request constructors used by other tools roundtrip through a
/// live server (guards against client/server opcode drift).
#[test]
fn every_request_kind_is_answered() {
    let handle = SbfServer::bind(test_config()).unwrap().spawn().unwrap();
    let mut client = connect(handle.addr());
    for req in [
        Request::Ping,
        Request::Insert {
            count: 1,
            key: b"k".to_vec(),
        },
        Request::Estimate { key: b"k".to_vec() },
        Request::InsertBatch {
            keys: vec![b"a".to_vec(), b"b".to_vec()],
        },
        Request::EstimateBatch {
            keys: vec![b"a".to_vec()],
        },
        Request::Snapshot,
        Request::Stats,
    ] {
        let resp = client.roundtrip(&req).unwrap();
        assert!(
            !matches!(resp, sbf_server::Response::Error { .. }),
            "{req:?} should succeed"
        );
    }
    handle.shutdown_and_join().unwrap();
}

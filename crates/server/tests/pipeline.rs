//! Pipelined-parsing suite for the reactor core: one TCP segment carrying
//! N frames must yield N ordered dispatches, partial frames must
//! reassemble across reads, an oversized frame in the middle of a burst
//! must be refused without desyncing its neighbours, and a thousand idle
//! connections must cost a 4-reactor server nothing but wait-set entries.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use sbf_server::{ErrorCode, Request, Response, SbfClient, SbfServer, ServerConfig};

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
        .workers(4)
        .read_timeout(Some(Duration::from_secs(10)))
        .write_timeout(Some(Duration::from_secs(10)))
        .build()
        .expect("test config is valid")
}

fn key_bytes(key: u64) -> Vec<u8> {
    key.to_le_bytes().to_vec()
}

/// Reads one `[u32 len][opcode][payload]` response frame off a raw socket.
fn read_response(stream: &mut TcpStream) -> Response {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf).expect("read frame length");
    let len = u32::from_le_bytes(len_buf) as usize;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("read frame body");
    let (op, payload) = body.split_first().expect("response frame nonempty");
    Response::decode(*op, payload).expect("decode response")
}

/// One write carrying many frames yields one response per frame, in
/// order. Each pair inserts key i with count i+1 and then estimates it,
/// which makes the order observable: each estimate must already see its
/// insert, and the distinct counts pin each answer to its position.
///
/// The burst runs twice. First on a lone connection with the default
/// `pipeline_depth` (32), which 100 pairs overflow, so the burst spans
/// several dispatch batches. Then with a second, idle connection held
/// open and `pipeline_depth` 1, so every frame is its own job and point
/// and batch frames alternate job by job.
#[test]
fn many_frames_in_one_write_yield_ordered_responses() {
    const PAIRS: u64 = 100;
    let mut reqs = Vec::new();
    for i in 0..PAIRS {
        let key = key_bytes(i);
        // Even pairs insert with a point frame, odd ones with a batch;
        // the estimate alternates every two pairs, so all four
        // combinations of point and batch frames occur.
        let insert = if i % 2 == 0 {
            Request::Insert {
                count: i + 1,
                key: key.clone(),
            }
        } else {
            Request::InsertBatch {
                keys: vec![key.clone(); i as usize + 1],
            }
        };
        let estimate = if i / 2 % 2 == 0 {
            Request::Estimate { key }
        } else {
            Request::EstimateBatch { keys: vec![key] }
        };
        reqs.push(insert);
        reqs.push(estimate);
    }

    for idle_peer in [false, true] {
        let mut config = test_config();
        if idle_peer {
            config.pipeline_depth = 1;
        }
        let handle = SbfServer::bind(config).unwrap().spawn().unwrap();
        // A completed round trip proves the reactor registered the peer.
        let _idle = idle_peer.then(|| {
            let mut peer = SbfClient::builder(handle.addr()).connect().unwrap();
            peer.ping().unwrap();
            peer
        });
        let mut client = SbfClient::builder(handle.addr()).connect().unwrap();
        let resps = client.pipeline(&reqs).unwrap();
        assert_eq!(resps.len(), reqs.len());
        for (i, pair) in resps.chunks(2).enumerate() {
            let want = i as u64 + 1;
            assert!(
                matches!(pair[0], Response::Ok),
                "insert {i} should ack (idle peer: {idle_peer})"
            );
            let v = match &pair[1] {
                Response::Value(v) => *v,
                Response::Values(vs) if vs.len() == 1 => vs[0],
                other => panic!("estimate {i}: unexpected response {other:?}"),
            };
            assert!(
                v >= want,
                "estimate {i} must see its preceding insert: {v} < {want} (idle peer: {idle_peer})"
            );
        }
        handle.shutdown_and_join().unwrap();
    }
}

/// A frame dribbled in over three writes (header split, then body split)
/// reassembles into exactly one dispatch.
#[test]
fn a_frame_split_across_reads_is_reassembled() {
    let handle = SbfServer::bind(test_config()).unwrap().spawn().unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();

    let frame = Request::Insert {
        count: 7,
        key: b"slow-drip".to_vec(),
    }
    .encode()
    .unwrap();
    // Split inside the length prefix, then inside the payload: the parser
    // must wait for bytes at both boundaries without dispatching early.
    let cuts = [2, frame.len() / 2, frame.len()];
    let mut sent = 0;
    for cut in cuts {
        stream.write_all(&frame[sent..cut]).unwrap();
        stream.flush().unwrap();
        sent = cut;
        std::thread::sleep(Duration::from_millis(30));
    }
    assert!(matches!(read_response(&mut stream), Response::Ok));

    // Exactly one insert landed.
    let mut client = SbfClient::builder(handle.addr()).connect().unwrap();
    assert!(client.estimate(b"slow-drip").unwrap() >= 7);
    handle.shutdown_and_join().unwrap();
}

/// An oversized frame in the middle of a single multi-frame write gets a
/// typed `Oversized` error, its payload is discarded, and the frames on
/// either side of it are answered normally — the stream resyncs.
#[test]
fn an_oversized_frame_mid_pipeline_resyncs_the_stream() {
    let mut config = test_config();
    config.max_frame = 1024;
    let handle = SbfServer::bind(config).unwrap().spawn().unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();

    let mut burst = Vec::new();
    burst.extend_from_slice(
        &Request::Insert {
            count: 3,
            key: b"before".to_vec(),
        }
        .encode()
        .unwrap(),
    );
    // Declared length 4096 > cap 1024; ship the whole body so the discard
    // path has to skip real bytes to find the next frame.
    burst.extend_from_slice(&4096u32.to_le_bytes());
    burst.push(0x02); // INSERT opcode
    burst.extend(std::iter::repeat_n(0xAB, 4095));
    burst.extend_from_slice(&Request::Ping.encode().unwrap());
    stream.write_all(&burst).unwrap();

    assert!(matches!(read_response(&mut stream), Response::Ok));
    match read_response(&mut stream) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Oversized),
        other => panic!("expected oversized error, got {other:?}"),
    }
    assert!(
        matches!(read_response(&mut stream), Response::Ok),
        "the frame after the oversized one must be served"
    );
    handle.shutdown_and_join().unwrap();
}

/// The scaling acceptance test: 1000 idle connections parked on a server
/// with 4 reactor threads, while a fresh client gets batched ESTIMATE
/// service. Idle peers are reactor wait-set entries, not threads, so the
/// `workers` count never bounds the connection count.
#[test]
fn a_thousand_idle_connections_are_held_by_four_workers() {
    const IDLE: usize = 1000;
    sbf_telemetry::set_enabled(true);
    let handle = SbfServer::bind(test_config()).unwrap().spawn().unwrap();
    let addr = handle.addr();

    let idlers: Vec<TcpStream> = (0..IDLE)
        .map(|i| {
            TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle connect {i} failed: {e}"))
        })
        .collect();

    // Service while parked: a fresh client ingests and reads estimates.
    let mut client = SbfClient::builder(addr).connect().unwrap();
    let keys: Vec<Vec<u8>> = (0..512u64).map(key_bytes).collect();
    client.insert_batch(&keys).unwrap();
    let estimates = client.estimate_batch(&keys).unwrap();
    assert!(estimates.iter().all(|&e| e >= 1), "service while parked");

    // The reactor is actually holding them: the active-connections gauge
    // counts every parked peer (registration can trail the last connect,
    // so poll briefly). The gauge is process-wide, so servers of tests
    // running beside this one add their own connections: it may read
    // higher, never lower.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut active = 0u64;
    while std::time::Instant::now() < deadline {
        let text = client.stats().unwrap();
        active = text
            .lines()
            .find_map(|l| l.strip_prefix("sbfd_connections_active "))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        if active > IDLE as u64 {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        active > IDLE as u64,
        "expected > {IDLE} registered connections, gauge says {active}"
    );

    drop(idlers);
    handle.shutdown_and_join().unwrap();
}

//! The multi-reactor serving model: `max_connections` is one cap across
//! every reactor and frees a place on close, a job that waits holds up
//! only its own reactor's connections, and the drain wakes every reactor
//! rather than waiting out their poll timeouts.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use sbf_server::{ClientError, ErrorCode, Request, Response, SbfClient, SbfServer, ServerConfig};

fn config(workers: usize) -> ServerConfig {
    ServerConfig::builder()
        .addr("127.0.0.1:0")
        .m(1 << 14)
        .k(5)
        .seed(42)
        .shards(4)
        .workers(workers)
        .read_timeout(Some(Duration::from_secs(10)))
        .write_timeout(Some(Duration::from_secs(10)))
        .build()
        .expect("test config is valid")
}

/// Reads one `[u32 len][opcode][payload]` response frame off a raw socket.
fn read_response(stream: &mut TcpStream) -> Response {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf).expect("read frame length");
    let mut body = vec![0u8; u32::from_le_bytes(len_buf) as usize];
    stream.read_exact(&mut body).expect("read frame body");
    let (op, payload) = body.split_first().expect("response frame nonempty");
    Response::decode(*op, payload).expect("decode response")
}

/// Two clients fill a cap of two, though three reactors have room. A
/// third socket's PING waits in the listen backlog until one of the two
/// closes, and is answered then.
#[test]
fn max_connections_holds_across_reactors_and_releases_on_close() {
    let mut cfg = config(3);
    cfg.max_connections = 2;
    let handle = SbfServer::bind(cfg).unwrap().spawn().unwrap();
    let mut first = SbfClient::builder(handle.addr()).connect().unwrap();
    first.ping().unwrap();
    let mut second = SbfClient::builder(handle.addr()).connect().unwrap();
    second.ping().unwrap();

    let mut third = TcpStream::connect(handle.addr()).unwrap();
    third.write_all(&Request::Ping.encode().unwrap()).unwrap();
    third
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    match third.read(&mut [0u8; 1]) {
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        other => panic!("a third connection was served past the cap: {other:?}"),
    }

    drop(first);
    third
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert_eq!(read_response(&mut third), Response::Ok);
    second.ping().unwrap();
    drop((second, third));
    handle.shutdown_and_join().unwrap();
}

/// Connection A's JOIN_PLAN dials a peer that accepts and never answers,
/// so A's job holds its reactor. A connection opened after A lands on the
/// other reactor and is served at once. Closing the silent peer fails A's
/// join as `Unavailable`, and the server still drains.
#[test]
fn a_waiting_job_blocks_only_its_own_reactor() {
    let silent = TcpListener::bind("127.0.0.1:0").unwrap();
    let silent_addr = silent.local_addr().unwrap().to_string();
    let handle = SbfServer::bind(config(2)).unwrap().spawn().unwrap();
    let keys: Vec<Vec<u8>> = (0..64u64).map(|i| i.to_le_bytes().to_vec()).collect();

    let mut a = SbfClient::builder(handle.addr()).connect().unwrap();
    a.ping().unwrap();
    let join_keys = keys.clone();
    let join = std::thread::spawn(move || a.join_plan(&silent_addr, 0, &join_keys));
    // The server's dial reaching the peer proves A's job is running.
    let (peer_side, _) = silent.accept().unwrap();

    let started = Instant::now();
    let mut b = SbfClient::builder(handle.addr())
        .io_timeout(Some(Duration::from_secs(1)))
        .connect()
        .unwrap();
    b.ping().unwrap();
    b.insert_batch(&keys).unwrap();
    let estimates = b.estimate_batch(&keys).unwrap();
    assert!(estimates.iter().all(|&e| e >= 1), "{estimates:?}");
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "B waited {:?} behind A's join",
        started.elapsed()
    );

    drop((peer_side, silent));
    match join.join().unwrap() {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Unavailable),
        other => panic!("a join against a closed peer must be Unavailable: {other:?}"),
    }
    drop(b);
    handle.shutdown_and_join().unwrap();
}

/// With a 10 s poll timeout and one idle connection on each of four
/// reactors, the drain finishes in well under the poll timeout: it comes
/// from waking every reactor, not from their polls timing out.
#[test]
fn drain_wakes_every_reactor() {
    let mut cfg = config(4);
    cfg.poll_timeout = Duration::from_secs(10);
    cfg.read_timeout = None;
    cfg.write_timeout = None;
    let handle = SbfServer::bind(cfg).unwrap().spawn().unwrap();
    // Each connection goes to the reactor with the fewest, so four
    // registered connections sit one per reactor.
    let idle: Vec<SbfClient> = (0..4)
        .map(|_| {
            let mut c = SbfClient::builder(handle.addr()).connect().unwrap();
            c.ping().unwrap();
            c
        })
        .collect();

    let started = Instant::now();
    handle.shutdown_and_join().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "drain took {:?}",
        started.elapsed()
    );
    drop(idle);
}

//! Durability suite: a real `sbfd` with a write-ahead log on a temp
//! directory, killed (simulated SIGKILL via [`ServerHandle::crash_and_join`],
//! which skips every drain-time flush) and restarted against the same
//! directory. The acceptance bar from the durability issue:
//!
//! * no acknowledged mutation is lost across a crash — every estimate
//!   after recovery is ≥ the pre-crash ground truth,
//! * torn log tails are detected, truncated, and counted,
//! * stale `snapshot.sbf.tmp` files (a crash between write and rename)
//!   are swept on boot and never restored from,
//! * clean shutdown compacts to a snapshot and restarts with exactly the
//!   pre-shutdown mass,
//! * a background checkpoint that fails is counted, and the node keeps
//!   acknowledging durable inserts from the log it could not retire,
//! * a timeout that could never be armed (`Some(0)`) is refused at
//!   build/bind time with a typed config error instead of any connection
//!   being served untimed,
//! * a counter saturated at `u64::MAX` passes through every path that
//!   codes the filter envelope and still reads `u64::MAX` afterwards.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sbf_db::wire::FilterEnvelope;
use sbf_server::{SbfClient, SbfServer, ServerConfig};
use spectral_bloom::{DefaultFamily, MsSbf, PlainCounters, SketchReader};

const M: usize = 1 << 14;
const K: usize = 5;
const SEED: u64 = 42;

/// Fresh scratch directory for one test's WAL.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbfd-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn wal_config(dir: &Path) -> ServerConfig {
    ServerConfig::builder()
        .addr("127.0.0.1:0")
        .m(M)
        .k(K)
        .seed(SEED)
        .shards(4)
        .workers(4)
        .read_timeout(Some(Duration::from_secs(10)))
        .write_timeout(Some(Duration::from_secs(10)))
        .wal_dir(dir)
        // Tests drive checkpoints explicitly (or not at all) so each can
        // pin down which recovery path it exercises.
        .wal_checkpoint_interval(None)
        .build()
        .expect("wal config is valid")
}

fn connect(addr: std::net::SocketAddr) -> SbfClient {
    SbfClient::builder(addr).connect().expect("client connects")
}

/// Inserts a deterministic workload and returns its ground truth.
fn ingest(client: &mut SbfClient, keys: u64, reps: u64) -> HashMap<Vec<u8>, u64> {
    let mut truth = HashMap::new();
    for rep in 0..reps {
        for key in 0..keys {
            let k = format!("key-{key}").into_bytes();
            let count = 1 + (key + rep) % 3;
            client.insert(&k, count).unwrap();
            *truth.entry(k).or_insert(0) += count;
        }
    }
    truth
}

fn assert_one_sided(client: &mut SbfClient, truth: &HashMap<Vec<u8>, u64>) {
    for (key, &count) in truth {
        let est = client.estimate(key).unwrap();
        assert!(
            est >= count,
            "estimate {est} < true count {count} for {key:?}: acked mutation lost"
        );
    }
}

/// [`assert_one_sided`] through one ESTIMATE_BATCH frame, which probes the
/// restored filter with the batched path rather than per key.
fn assert_batch_one_sided(client: &mut SbfClient, truth: &HashMap<Vec<u8>, u64>) {
    let keys: Vec<&Vec<u8>> = truth.keys().collect();
    let ests = client.estimate_batch(&keys).unwrap();
    for (key, est) in keys.into_iter().zip(ests) {
        let count = truth[key];
        assert!(
            est >= count,
            "batched estimate {est} < true count {count} for {key:?}: acked mutation lost"
        );
    }
}

/// The headline guarantee: SIGKILL mid-ingest loses no acknowledged
/// mutation. Every insert was fsynced to the log before its OK frame, so
/// replaying the log alone (no snapshot was ever cut) rebuilds a sketch
/// whose estimates dominate the pre-crash truth.
#[test]
fn crash_mid_ingest_loses_no_acked_mutation() {
    let dir = scratch("crash");
    let cfg = wal_config(&dir);

    let handle = SbfServer::bind(cfg.clone()).unwrap().spawn().unwrap();
    let mut client = connect(handle.addr());
    let truth = ingest(&mut client, 64, 3);
    drop(client);
    handle.crash_and_join().unwrap();

    let server = SbfServer::bind(cfg).unwrap();
    let report = server.recovery_report().expect("wal dir implies recovery");
    assert!(!report.snapshot_loaded, "no checkpoint ever ran");
    assert_eq!(report.records_replayed, 64 * 3, "one record per insert");
    assert_eq!(report.torn_tails, 0);
    let handle = server.spawn().unwrap();
    let mut client = connect(handle.addr());
    assert_one_sided(&mut client, &truth);
    drop(client);
    handle.shutdown_and_join().unwrap();
}

/// Crashing *after* a checkpoint exercises the snapshot-restore path plus
/// replay of only the post-checkpoint records.
#[test]
fn crash_after_checkpoint_recovers_snapshot_plus_tail() {
    let dir = scratch("checkpoint");
    let cfg = wal_config(&dir);

    let handle = SbfServer::bind(cfg.clone()).unwrap().spawn().unwrap();
    let mut client = connect(handle.addr());
    let mut truth = ingest(&mut client, 48, 2);
    // Cut a checkpoint at this point in the stream, then keep writing.
    let state = handle.state();
    let wal = state.wal().expect("wal attached").clone();
    wal.checkpoint(|| state.snapshot_envelope()).unwrap();
    for (key, count) in ingest(&mut client, 16, 1) {
        *truth.entry(key).or_insert(0) += count;
    }
    drop(client);
    handle.crash_and_join().unwrap();

    let server = SbfServer::bind(cfg).unwrap();
    let report = server.recovery_report().unwrap();
    assert!(report.snapshot_loaded, "checkpoint wrote a snapshot");
    assert!(report.snapshot_mass > 0);
    assert_eq!(report.records_replayed, 16, "only the post-checkpoint tail");
    let handle = server.spawn().unwrap();
    let mut client = connect(handle.addr());
    assert_one_sided(&mut client, &truth);
    assert_batch_one_sided(&mut client, &truth);
    drop(client);
    handle.shutdown_and_join().unwrap();
}

/// A torn tail — the crash landed mid-append — is truncated at the last
/// CRC-valid record boundary and counted, and everything before the tear
/// still replays.
#[test]
fn torn_log_tail_is_truncated_and_survivors_replay() {
    let dir = scratch("torn");
    let cfg = wal_config(&dir);

    let handle = SbfServer::bind(cfg.clone()).unwrap().spawn().unwrap();
    let mut client = connect(handle.addr());
    let truth = ingest(&mut client, 32, 1);
    drop(client);
    handle.crash_and_join().unwrap();

    // Tear the tail: a partial header, as if the process died mid-write.
    let log = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|e| e == "log"))
        .expect("one generation log exists");
    let clean_len = std::fs::metadata(&log).unwrap().len();
    let mut f = std::fs::OpenOptions::new().append(true).open(&log).unwrap();
    f.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
    drop(f);

    let server = SbfServer::bind(cfg).unwrap();
    let report = server.recovery_report().unwrap();
    assert_eq!(report.torn_tails, 1, "the tear is detected and counted");
    assert_eq!(
        report.records_replayed, 32,
        "records before the tear survive"
    );
    assert_eq!(
        std::fs::metadata(&log).unwrap().len(),
        clean_len,
        "recovery truncates the log back to the last valid boundary"
    );
    let handle = server.spawn().unwrap();
    let mut client = connect(handle.addr());
    assert_one_sided(&mut client, &truth);
    drop(client);
    handle.shutdown_and_join().unwrap();
}

/// A crash between writing `snapshot.sbf.tmp` and renaming it leaves a
/// stale tmp file. Boot must sweep it (it was never acknowledged as a
/// snapshot) and restore from the last *renamed* snapshot, if any.
#[test]
fn stale_snapshot_tmp_is_swept_not_restored() {
    let dir = scratch("staletmp");
    let cfg = wal_config(&dir);

    let handle = SbfServer::bind(cfg.clone()).unwrap().spawn().unwrap();
    let mut client = connect(handle.addr());
    let truth = ingest(&mut client, 16, 1);
    drop(client);
    handle.crash_and_join().unwrap();

    // Simulate the torn checkpoint: garbage under the tmp name.
    let stale = dir.join("snapshot.sbf.tmp");
    std::fs::write(&stale, b"half-written snapshot").unwrap();

    let server = SbfServer::bind(cfg).unwrap();
    let report = server.recovery_report().unwrap();
    assert_eq!(report.stale_tmp_removed, 1);
    assert!(
        !report.snapshot_loaded,
        "garbage tmp is never restored from"
    );
    assert!(!stale.exists(), "the stale tmp was deleted");
    let handle = server.spawn().unwrap();
    let mut client = connect(handle.addr());
    assert_one_sided(&mut client, &truth);
    drop(client);
    handle.shutdown_and_join().unwrap();
}

/// Clean shutdown cuts a final checkpoint: the restart restores the
/// snapshot with *exactly* the pre-shutdown mass and replays nothing.
#[test]
fn clean_shutdown_then_restart_is_exact() {
    let dir = scratch("clean");
    let cfg = wal_config(&dir);

    let handle = SbfServer::bind(cfg.clone()).unwrap().spawn().unwrap();
    let mut client = connect(handle.addr());
    let truth = ingest(&mut client, 32, 2);
    // Cell mass of the full filter at shutdown, in the same units the
    // recovery report uses (sum over all counters).
    let env = FilterEnvelope::decode(&handle.state().snapshot_envelope()).unwrap();
    let mass_before: u64 = env.counters.iter().sum();
    drop(client);
    handle.shutdown_and_join().unwrap();

    let server = SbfServer::bind(cfg).unwrap();
    let report = server.recovery_report().unwrap();
    assert!(report.snapshot_loaded);
    assert_eq!(report.records_replayed, 0, "drain checkpoint covered all");
    assert_eq!(
        report.snapshot_mass, mass_before,
        "no mass lost or invented"
    );
    let handle = server.spawn().unwrap();
    let mut client = connect(handle.addr());
    assert_one_sided(&mut client, &truth);
    drop(client);
    handle.shutdown_and_join().unwrap();
}

/// Compaction under live ingest: with an aggressive ratio and a fast
/// checkpointer the log is rotated while clients write, and a crash
/// afterwards still recovers a dominating sketch.
#[test]
fn compaction_under_live_ingest_stays_one_sided() {
    let dir = scratch("compact");
    let mut cfg = wal_config(&dir);
    cfg.wal_compact_ratio = 1;
    cfg.wal_compact_min_bytes = 256;
    cfg.wal_checkpoint_interval = Some(Duration::from_millis(20));

    let handle = SbfServer::bind(cfg.clone()).unwrap().spawn().unwrap();
    let mut client = connect(handle.addr());
    let truth = ingest(&mut client, 128, 4);
    // Give the checkpointer a beat to cut at least one snapshot.
    std::thread::sleep(Duration::from_millis(120));
    drop(client);
    handle.crash_and_join().unwrap();

    assert!(
        dir.join("snapshot.sbf").exists(),
        "the background checkpointer compacted the log"
    );
    let server = SbfServer::bind(cfg).unwrap();
    let report = server.recovery_report().unwrap();
    assert!(report.snapshot_loaded);
    let handle = server.spawn().unwrap();
    let mut client = connect(handle.addr());
    assert_one_sided(&mut client, &truth);
    drop(client);
    handle.shutdown_and_join().unwrap();
}

/// A background checkpoint that fails is counted, not swallowed. A
/// non-empty directory at `snapshot.sbf` makes the checkpoint's rename
/// fail whatever the process's privileges. The node keeps acknowledging
/// durable inserts, and a crash afterwards recovers them from the logs
/// the failed checkpoints left in place.
#[test]
fn failed_background_checkpoints_are_counted_and_ingest_continues() {
    sbf_telemetry::set_enabled(true);
    let failures = &sbf_server::metrics::server_metrics().wal_checkpoint_failures;
    let dir = scratch("checkpoint-fails");
    let mut cfg = wal_config(&dir);
    cfg.wal_checkpoint_interval = Some(Duration::from_millis(20));

    // Recovery runs at bind and would refuse a directory at the snapshot
    // path, so the obstacle goes in between bind and spawn, before the
    // checkpointer starts.
    let server = SbfServer::bind(cfg.clone()).unwrap();
    let blocker = dir.join("snapshot.sbf");
    std::fs::create_dir(&blocker).unwrap();
    std::fs::write(blocker.join("occupied"), b"x").unwrap();
    let before = failures.get();
    let handle = server.spawn().unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    while failures.get() == before {
        assert!(
            Instant::now() < deadline,
            "no checkpoint failure was counted in 10s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut client = connect(handle.addr());
    let truth = ingest(&mut client, 64, 2);
    assert_one_sided(&mut client, &truth);
    drop(client);

    std::fs::remove_dir_all(&blocker).unwrap();
    handle.crash_and_join().unwrap();
    let handle = SbfServer::bind(cfg).unwrap().spawn().unwrap();
    let mut client = connect(handle.addr());
    assert_one_sided(&mut client, &truth);
    drop(client);
    handle.shutdown_and_join().unwrap();
}

/// A WAL directory written with one geometry refuses to boot a server
/// with another: silently re-hashing into different cells would break
/// the one-sided guarantee.
#[test]
fn geometry_mismatch_refuses_to_boot() {
    let dir = scratch("geometry");
    let cfg = wal_config(&dir);

    let handle = SbfServer::bind(cfg.clone()).unwrap().spawn().unwrap();
    let mut client = connect(handle.addr());
    ingest(&mut client, 8, 1);
    drop(client);
    handle.shutdown_and_join().unwrap();

    let mut wrong = cfg;
    wrong.m = M * 2;
    let err = SbfServer::bind(wrong).expect_err("mismatched geometry must refuse");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

/// Satellite fix, reactor edition: a timeout that could never be armed
/// (`Some(0)`) is a config bug, and the redesigned surface rejects it
/// *before* any socket exists — `build()` and `bind()` both answer with
/// the typed [`sbf_server::ConfigError`] instead of serving untimed
/// connections (the old per-socket `set_read_timeout` failure path no
/// longer exists: the reactor enforces timeouts with its own timer wheel).
#[test]
fn zero_timeouts_are_typed_config_errors_not_untimed_service() {
    assert_eq!(
        ServerConfig::builder()
            .read_timeout(Some(Duration::ZERO))
            .build()
            .unwrap_err(),
        sbf_server::ConfigError::ZeroReadTimeout
    );
    // A config mutated after build is caught at bind, with the same
    // typed error carried inside the io::Error.
    let mut cfg = ServerConfig::default();
    cfg.write_timeout = Some(Duration::ZERO);
    let err = SbfServer::bind(cfg).expect_err("zero write timeout must refuse to bind");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("write_timeout"));
}

/// One INSERT of `count = u64::MAX` saturates its key's counters, and a
/// second such INSERT and a MERGE of an envelope onto them saturate again
/// (in debug builds too). The node must still code its filter envelope on
/// every path: SNAPSHOT, JOIN_FILTER, a checkpoint, the restore and replay
/// after a crash, and a replica bootstrap. The key reads `u64::MAX` after
/// each.
#[test]
fn saturated_counter_survives_every_envelope_path() {
    const KEY: &[u8] = b"saturated";
    /// The key's estimate in a decoded envelope.
    fn envelope_estimate(bytes: &[u8]) -> u64 {
        let env = FilterEnvelope::decode(bytes).expect("envelope decodes");
        let family = DefaultFamily::new(env.counters.len(), env.k as usize, env.seed);
        MsSbf::with_parts(family, PlainCounters::from(env.counters)).estimate(KEY)
    }
    let dir = scratch("saturated");
    let mut cfg = wal_config(&dir);

    let handle = SbfServer::bind(cfg.clone()).unwrap().spawn().unwrap();
    let mut client = connect(handle.addr());
    client.insert(KEY, u64::MAX).unwrap();
    // A second key in the same node: the shard totals it adds to must
    // saturate too.
    client.insert(b"other", 2).unwrap();
    // Past saturation: the live counters and then the merged remote
    // filter clamp at u64::MAX instead of wrapping or panicking.
    client.insert(KEY, u64::MAX).unwrap();
    assert_eq!(client.estimate(KEY).unwrap(), u64::MAX);
    let saturated = client.snapshot().unwrap();
    client.merge(&saturated).unwrap();
    assert_eq!(client.estimate(KEY).unwrap(), u64::MAX);
    assert_eq!(envelope_estimate(&client.snapshot().unwrap()), u64::MAX);
    assert_eq!(
        envelope_estimate(&client.join_filter(M, K, SEED).unwrap()),
        u64::MAX
    );
    let state = handle.state();
    let wal = state.wal().expect("wal attached").clone();
    wal.checkpoint(|| state.snapshot_envelope()).unwrap();
    // One record after the cut, so the restart also replays the log on
    // top of the restored snapshot.
    client.insert(b"late", 1).unwrap();
    drop(client);
    handle.crash_and_join().unwrap();

    // Restart from the checkpoint plus the log, replicating to a fresh
    // node, which the primary bootstraps from its SNAPSHOT envelope.
    let mut replica_cfg = cfg.clone();
    replica_cfg.wal_dir = None;
    let replica = SbfServer::bind(replica_cfg).unwrap().spawn().unwrap();
    cfg.replicate_to = Some(replica.addr().to_string());
    let server = SbfServer::bind(cfg).unwrap();
    let report = server.recovery_report().unwrap();
    assert!(report.snapshot_loaded);
    assert_eq!(report.snapshot_mass, u64::MAX);
    assert_eq!(report.records_replayed, 1);
    let handle = server.spawn().unwrap();
    let mut client = connect(handle.addr());
    assert_eq!(client.estimate(KEY).unwrap(), u64::MAX);
    assert_eq!(envelope_estimate(&client.snapshot().unwrap()), u64::MAX);

    let repl = handle.state().replicator().expect("replicator").clone();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !repl.connected() {
        assert!(
            Instant::now() < deadline,
            "replica bootstrap did not finish in 10s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut replica_client = connect(replica.addr());
    assert_eq!(replica_client.estimate(KEY).unwrap(), u64::MAX);
    assert!(replica_client.estimate(b"other").unwrap() >= 2);
    assert!(replica_client.estimate(b"late").unwrap() >= 1);

    drop(client);
    drop(replica_client);
    handle.shutdown_and_join().unwrap();
    replica.shutdown_and_join().unwrap();
}

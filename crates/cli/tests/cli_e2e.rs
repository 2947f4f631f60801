//! End-to-end tests driving the real `sbf` binary through pipes and files.

use std::io::Write;
use std::process::{Command, Stdio};

use sbf_db::wire::{FilterEnvelope, FilterKind};

fn sbf_bin() -> &'static str {
    env!("CARGO_BIN_EXE_sbf")
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sbf-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run_with_stdin(args: &[&str], stdin: &str) -> (String, String, bool) {
    let mut child = Command::new(sbf_bin())
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sbf");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn build_query_merge_info_pipeline() {
    let dir = tmpdir("pipeline");
    let shard1 = dir.join("s1.sbf");
    let shard2 = dir.join("s2.sbf");
    let merged = dir.join("all.sbf");

    // Two shards with overlapping keys, identical parameters.
    let (_, err, ok) = run_with_stdin(
        &[
            "build",
            "--out",
            shard1.to_str().unwrap(),
            "--m",
            "4096",
            "--seed",
            "7",
        ],
        "alpha\nbeta\nalpha\n",
    );
    assert!(ok, "build 1 failed: {err}");
    let (_, err, ok) = run_with_stdin(
        &[
            "build",
            "--out",
            shard2.to_str().unwrap(),
            "--m",
            "4096",
            "--seed",
            "7",
        ],
        "alpha\ngamma\n",
    );
    assert!(ok, "build 2 failed: {err}");

    // Merge = distributed union.
    let (_, err, ok) = run_with_stdin(
        &[
            "merge",
            "--out",
            merged.to_str().unwrap(),
            shard1.to_str().unwrap(),
            shard2.to_str().unwrap(),
        ],
        "",
    );
    assert!(ok, "merge failed: {err}");

    // Query the union.
    let (stdout, err, ok) = run_with_stdin(
        &["query", "--filter", merged.to_str().unwrap()],
        "alpha\nbeta\ngamma\nabsent\n",
    );
    assert!(ok, "query failed: {err}");
    assert!(
        stdout.contains("alpha\t3"),
        "union must sum shard counts: {stdout}"
    );
    assert!(stdout.contains("beta\t1"));
    assert!(stdout.contains("gamma\t1"));
    assert!(stdout.contains("absent\t0"));

    // Info renders the parameters.
    let (stdout, err, ok) = run_with_stdin(&["info", merged.to_str().unwrap()], "");
    assert!(ok, "info failed: {err}");
    assert!(stdout.contains("m: 4096"), "info output: {stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn threshold_query_filters_output() {
    let dir = tmpdir("threshold");
    let filter = dir.join("f.sbf");
    run_with_stdin(
        &["build", "--out", filter.to_str().unwrap(), "--m", "2048"],
        "hot\nhot\nhot\ncold\n",
    );
    let (stdout, _, ok) = run_with_stdin(
        &[
            "query",
            "--filter",
            filter.to_str().unwrap(),
            "--threshold",
            "2",
        ],
        "hot\ncold\n",
    );
    assert!(ok);
    assert!(stdout.contains("hot\t3"));
    assert!(
        !stdout.contains("cold"),
        "below-threshold keys must be suppressed"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_flag_writes_exposition_file() {
    // A fresh process per invocation, so values here are exact.
    let dir = tmpdir("metrics");
    let filter = dir.join("f.sbf");
    let prom = dir.join("run.prom");
    let (_, err, ok) = run_with_stdin(
        &[
            "--metrics",
            prom.to_str().unwrap(),
            "build",
            "--out",
            filter.to_str().unwrap(),
            "--m",
            "2048",
        ],
        "a\nb\na\nc\n",
    );
    assert!(ok, "build --metrics failed: {err}");
    let text = std::fs::read_to_string(&prom).expect("exposition file");
    let samples = sbf_telemetry::parse_exposition(&text).expect("valid exposition");
    let get = |name: &str| {
        samples
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} missing from dump:\n{text}"))
            .1
    };
    assert_eq!(get("sbf_inserts_total"), 4.0);
    assert_eq!(get("sbf_counter_saturations_total"), 0.0);
    let occ = get("sbf_shard_occupancy_ratio{shard=\"0\"}");
    assert!(occ > 0.0 && occ <= 1.0, "occupancy gauge: {occ}");
    // Pre-registered schema: db metrics appear at zero even though this
    // run never touched the join machinery.
    assert_eq!(get("sbf_db_wire_bytes_total"), 0.0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_merge_reports_per_input_occupancy() {
    let dir = tmpdir("stats-merge");
    let s1 = dir.join("s1.sbf");
    let s2 = dir.join("s2.sbf");
    let merged = dir.join("all.sbf");
    for (path, keys) in [(&s1, "a\nb\n"), (&s2, "c\n")] {
        let (_, err, ok) = run_with_stdin(
            &["build", "--out", path.to_str().unwrap(), "--m", "1024"],
            keys,
        );
        assert!(ok, "build failed: {err}");
    }
    let (stdout, err, ok) = run_with_stdin(
        &[
            "stats",
            "merge",
            "--out",
            merged.to_str().unwrap(),
            s1.to_str().unwrap(),
            s2.to_str().unwrap(),
        ],
        "",
    );
    assert!(ok, "stats merge failed: {err}");
    let samples = sbf_telemetry::parse_exposition(&stdout).expect("stats output parses");
    let get = |name: &str| samples.iter().find(|(n, _)| n == name).map(|s| s.1);
    // One occupancy gauge per input envelope, one §5 union performed.
    assert!(get("sbf_shard_occupancy_ratio{shard=\"0\"}").unwrap_or(0.0) > 0.0);
    assert!(get("sbf_shard_occupancy_ratio{shard=\"1\"}").unwrap_or(0.0) > 0.0);
    assert_eq!(get("sbf_sharded_snapshot_rebuilds_total"), Some(1.0));
    std::fs::remove_dir_all(&dir).ok();
}

/// Spawns `sbf serve` as a real child process and reads stdout lines
/// until the listening banner, returning the child and the bound address.
fn spawn_serve(dir: &std::path::Path) -> (std::process::Child, String) {
    use std::io::BufRead;
    let mut child = Command::new(sbf_bin())
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--m",
            "4096",
            "--shards",
            "2",
            "--workers",
            "2",
            "--wal-dir",
            dir.to_str().unwrap(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sbf serve");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve exited before announcing its address")
            .expect("read serve stdout");
        // A recovery summary may precede the banner; skip to it.
        if let Some(addr) = line.strip_prefix("sbfd listening on ") {
            break addr.to_string();
        }
    };
    (child, addr)
}

/// The durability acceptance test against the real binary: ingest over a
/// socket, SIGKILL the daemon (no drain, no final snapshot), restart on
/// the same WAL directory, and every acknowledged count must still be
/// dominated by the estimates.
#[test]
fn sigkill_mid_ingest_recovers_acked_counts() {
    let dir = tmpdir("sigkill");

    let (mut child, addr) = spawn_serve(&dir);
    let (_, err, ok) = run_with_stdin(
        &["client", "--addr", &addr, "insert"],
        "apple\napple\nbanana\napple\ncherry\n",
    );
    assert!(ok, "ingest failed: {err}");
    // The summary line lands on stderr (stdout is for data).
    assert!(err.contains("inserted 5 keys"), "{err}");

    // SIGKILL: the daemon gets no chance to flush anything at exit.
    child.kill().expect("kill sbfd");
    child.wait().expect("reap sbfd");

    // The log is readable offline and holds the acknowledged batch (the
    // CLI client ships stdin keys as one INSERT_BATCH frame).
    let (stdout, err, ok) = run_with_stdin(&["wal", "inspect", dir.to_str().unwrap()], "");
    assert!(ok, "wal inspect failed: {err}");
    assert!(
        stdout.contains("insert_batch×1"),
        "inspect output: {stdout}"
    );
    assert!(stdout.contains("clean"), "inspect output: {stdout}");

    let (child, addr) = spawn_serve(&dir);
    let (stdout, err, ok) = run_with_stdin(
        &["client", "--addr", &addr, "estimate"],
        "apple\nbanana\ncherry\n",
    );
    assert!(ok, "estimate after recovery failed: {err}");
    let count = |key: &str| -> u64 {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{key}\t")))
            .unwrap_or_else(|| panic!("{key} missing from: {stdout}"))
            .parse()
            .unwrap()
    };
    assert!(count("apple") >= 3, "apple lost mass: {stdout}");
    assert!(count("banana") >= 1, "banana lost mass: {stdout}");
    assert!(count("cherry") >= 1, "cherry lost mass: {stdout}");

    let (_, _, ok) = run_with_stdin(&["client", "--addr", &addr, "shutdown"], "");
    assert!(ok);
    let mut child = child;
    child.wait().expect("drained exit");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_exits_nonzero() {
    let (_, err, ok) = run_with_stdin(&["frobnicate"], "");
    assert!(!ok);
    assert!(err.contains("usage"), "stderr: {err}");

    let (_, err, ok) = run_with_stdin(&["build", "--m", "10"], "");
    assert!(!ok);
    assert!(err.contains("--out"), "stderr: {err}");

    // Deleted front ends are refused like any unknown command or flag.
    for args in [
        &["bench"][..],
        &["lint"],
        &["cluster", "serve"],
        &[
            "build",
            "--out",
            "unused.sbf",
            "--m",
            "10",
            "--ingest-threads",
            "4",
        ],
    ] {
        let out = Command::new(sbf_bin())
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("run sbf");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains("usage error"), "{args:?}: {err}");
    }
}

#[test]
fn corrupt_filter_file_is_reported() {
    let dir = tmpdir("corrupt");
    let path = dir.join("junk.sbf");
    std::fs::write(&path, b"this is not a filter").expect("write junk");
    let (_, err, ok) = run_with_stdin(&["info", path.to_str().unwrap()], "");
    assert!(!ok);
    assert!(err.contains("bad filter"), "stderr: {err}");

    // Well-formed envelopes whose geometry no filter has: no counters, no
    // hash function, or more than the family supports.
    for (k, m) in [(5, 0), (0, 64), (17, 64)] {
        let env = FilterEnvelope {
            kind: FilterKind::MinimumSelection,
            k,
            seed: 1,
            counters: vec![1; m],
        };
        std::fs::write(&path, env.encode()).expect("write envelope");
        let path = path.to_str().unwrap();
        for args in [&["info", path][..], &["query", "--filter", path]] {
            let (_, err, ok) = run_with_stdin(args, "");
            assert!(!ok, "{args:?}");
            assert!(err.contains("bad filter"), "{args:?}: {err}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

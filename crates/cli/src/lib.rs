//! The `sbf` command-line tool: build, query, merge and inspect Spectral
//! Bloom Filter files, and run or drive the `sbfd` daemon.
//!
//! Filter files are [`sbf_db::wire::FilterEnvelope`] frames — the same
//! self-describing message format the distributed join machinery ships
//! between sites — so a file written by one process can be united or
//! multiplied with a compatible one by another.
//!
//! ```text
//! sbf build --out words.sbf --m 65536 --k 5 --seed 42 < words.txt
//! sbf query --filter words.sbf --threshold 3 < candidates.txt
//! sbf merge --out all.sbf shard1.sbf shard2.sbf
//! sbf info  words.sbf
//! sbf serve --addr 127.0.0.1:7070 --wal-dir /var/lib/sbfd
//! sbf client --addr 127.0.0.1:7070 estimate < candidates.txt
//! sbf cluster join --nodes 127.0.0.1:7070,127.0.0.1:7071 < candidates.txt
//! sbf wal inspect /var/lib/sbfd
//! sbf stats build --out words.sbf --m 65536 < words.txt
//! sbf --metrics run.prom build --out words.sbf --m 65536 < words.txt
//! ```
//!
//! Each job has one front end. The `sbf-lint` binary runs the
//! static-analysis passes, and `sbfbench` measures the daemon.
//!
//! Keys are read one per line; the whole trimmed line is the key.
//!
//! # Telemetry
//!
//! Two switches expose the instrumentation of `spectral-bloom` and
//! `sbf-db` (disabled, and free, by default):
//!
//! * `--metrics <path>` — global flag; enables telemetry for the run and
//!   writes a Prometheus-style exposition dump to `<path>` on success.
//! * `stats [<command> ...]` — wrapper subcommand; runs the inner command
//!   with telemetry enabled and prints the exposition on stdout (the
//!   summary line stays on stderr). With no inner command it prints the
//!   registered metric schema at zero.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{BufRead, Write};

use sbf_db::wire::{FilterEnvelope, FilterKind};
use spectral_bloom::{
    CounterStore, DefaultFamily, MiSbf, MsSbf, MultisetSketch, PlainCounters, ShardedSketch,
    SketchReader, MAX_SHARDS,
};

/// Errors surfaced to the user with exit code 1.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Usage(String),
    /// I/O trouble.
    Io(std::io::Error),
    /// A filter file failed to parse.
    BadFilter(String),
    /// Incompatible filters for a merge.
    Incompatible(String),
    /// The `sbfd` server (or the connection to it) failed.
    Server(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::BadFilter(msg) => write!(f, "bad filter file: {msg}"),
            CliError::Incompatible(msg) => write!(f, "incompatible filters: {msg}"),
            CliError::Server(msg) => write!(f, "server: {msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<sbf_server::ClientError> for CliError {
    fn from(e: sbf_server::ClientError) -> Self {
        CliError::Server(e.to_string())
    }
}

/// Parsed `build` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildOpts {
    /// Output path.
    pub out: String,
    /// Counters.
    pub m: usize,
    /// Hash functions.
    pub k: usize,
    /// Hash seed.
    pub seed: u64,
    /// Algorithm: Minimum Selection or Minimal Increase.
    pub kind: FilterKind,
}

/// Simple `--flag value` scanner shared by the subcommands.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        return None;
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Some(value)
}

/// Takes the numeric `--flag value`, or `default` when the flag is absent.
fn num<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
    default: T,
) -> Result<T, CliError> {
    take_flag(args, flag).map_or(Ok(default), |v| {
        v.parse::<T>()
            .map_err(|_| CliError::Usage(format!("{flag} must be an integer")))
    })
}

/// Reads keys one per line; the trimmed line is the key and blank lines
/// are skipped.
fn read_keys(input: impl BufRead) -> Result<Vec<Vec<u8>>, CliError> {
    let mut keys = Vec::new();
    for line in input.lines() {
        let line = line?;
        let key = line.trim();
        if !key.is_empty() {
            keys.push(key.as_bytes().to_vec());
        }
    }
    Ok(keys)
}

/// Refuses more hash functions than the family supports, which would
/// otherwise panic when the filter is built.
fn check_k(k: usize) -> Result<(), CliError> {
    if k > sbf_hash::MAX_K {
        return Err(CliError::Usage(format!(
            "--k must be at most {}",
            sbf_hash::MAX_K
        )));
    }
    Ok(())
}

/// Parses `build` arguments.
pub fn parse_build(mut args: Vec<String>) -> Result<BuildOpts, CliError> {
    let out = take_flag(&mut args, "--out")
        .ok_or_else(|| CliError::Usage("build requires --out <path>".into()))?;
    let m = take_flag(&mut args, "--m")
        .ok_or_else(|| CliError::Usage("build requires --m <counters>".into()))?
        .parse::<usize>()
        .map_err(|_| CliError::Usage("--m must be an integer".into()))?;
    let k = num(&mut args, "--k", 5)?;
    let seed = num(&mut args, "--seed", 42)?;
    let kind = match take_flag(&mut args, "--algo").as_deref() {
        None | Some("ms") => FilterKind::MinimumSelection,
        Some("mi") => FilterKind::MinimalIncrease,
        Some(other) => {
            return Err(CliError::Usage(format!("unknown --algo {other} (ms|mi)")));
        }
    };
    if !args.is_empty() {
        return Err(CliError::Usage(format!("unrecognized arguments: {args:?}")));
    }
    if m == 0 || k == 0 {
        return Err(CliError::Usage("--m and --k must be positive".into()));
    }
    check_k(k)?;
    Ok(BuildOpts {
        out,
        m,
        k,
        seed,
        kind,
    })
}

/// Builds a filter from keys on `input`, one key at a time, returning the
/// envelope.
pub fn build_filter(opts: &BuildOpts, input: impl BufRead) -> Result<FilterEnvelope, CliError> {
    enum Either {
        Ms(MsSbf),
        Mi(MiSbf),
    }
    let mut filter = match opts.kind {
        FilterKind::MinimalIncrease => Either::Mi(MiSbf::new(opts.m, opts.k, opts.seed)),
        _ => Either::Ms(MsSbf::new(opts.m, opts.k, opts.seed)),
    };
    for line in input.lines() {
        let line = line?;
        let key = line.trim();
        if key.is_empty() {
            continue;
        }
        match &mut filter {
            Either::Ms(f) => f.insert(&key),
            Either::Mi(f) => f.insert(&key),
        }
    }
    let counters = match &filter {
        Either::Ms(f) => (0..opts.m).map(|i| f.core().store().get(i)).collect(),
        Either::Mi(f) => (0..opts.m).map(|i| f.core().store().get(i)).collect(),
    };
    Ok(FilterEnvelope {
        kind: opts.kind,
        k: opts.k as u32,
        seed: opts.seed,
        counters,
    })
}

/// Rehydrates a queryable MS filter from an envelope (all kinds query the
/// same way: minimum over the key's counters), narrowing its counters into
/// the store. The envelope must hold `m ≥ 1` counters and
/// `1 ≤ k ≤ MAX_K`, as every filter the CLI reads or builds does.
pub fn rehydrate(env: FilterEnvelope) -> MsSbf {
    let family = DefaultFamily::new(env.counters.len(), env.k as usize, env.seed);
    MsSbf::with_parts(family, PlainCounters::from(env.counters))
}

/// Reads and decodes the filter file at `path`, refusing a geometry no
/// filter can have (no counters, or a `k` outside `1..=MAX_K`).
fn read_filter(path: &str) -> Result<FilterEnvelope, CliError> {
    let bytes = std::fs::read(path)?;
    let env =
        FilterEnvelope::decode(&bytes).map_err(|e| CliError::BadFilter(format!("{path}: {e}")))?;
    if env.counters.is_empty() || env.k == 0 || env.k as usize > sbf_hash::MAX_K {
        return Err(CliError::BadFilter(format!(
            "{path}: geometry m={} k={} is not a filter",
            env.counters.len(),
            env.k
        )));
    }
    Ok(env)
}

/// Runs `query`: prints `key<TAB>estimate` for every input key whose
/// estimate reaches `threshold` (0 = print all).
pub fn run_query(
    env: FilterEnvelope,
    threshold: u64,
    input: impl BufRead,
    mut output: impl Write,
) -> Result<usize, CliError> {
    let sbf = rehydrate(env);
    let mut printed = 0;
    for line in input.lines() {
        let line = line?;
        let key = line.trim();
        if key.is_empty() {
            continue;
        }
        let est = sbf.estimate(&key);
        if est >= threshold.max(1) || threshold == 0 {
            writeln!(output, "{key}\t{est}")?;
            printed += 1;
        }
    }
    Ok(printed)
}

/// Merges envelopes by counter addition (the §5 distributed union).
/// All inputs must agree on `m`, `k`, `seed` and kind, and there may be at
/// most [`MAX_SHARDS`] of them (merge more in rounds).
///
/// The union itself reuses [`ShardedSketch`]: each input envelope is
/// rehydrated as one shard and the result is the shard union of
/// [`ShardedSketch::snapshot`] — the same §5 counter-addition path the
/// concurrent ingest machinery uses, with per-input occupancy gauges
/// published when telemetry is on. A counter that would reach
/// `u32::MAX` sticks and reads `u64::MAX` (each clamp counted in
/// `sbf_counter_saturations_total`) instead of failing the merge;
/// saturation preserves the one-sided estimate contract.
pub fn merge_envelopes(envelopes: Vec<FilterEnvelope>) -> Result<FilterEnvelope, CliError> {
    let first = envelopes
        .first()
        .ok_or_else(|| CliError::Usage("merge needs at least one input".into()))?;
    if envelopes.len() > MAX_SHARDS {
        return Err(CliError::Usage(format!(
            "merge takes at most {MAX_SHARDS} inputs; merge in rounds"
        )));
    }
    for env in &envelopes[1..] {
        if env.counters.len() != first.counters.len()
            || env.k != first.k
            || env.seed != first.seed
            || env.kind != first.kind
        {
            return Err(CliError::Incompatible(
                "all inputs must share m, k, seed and algorithm".into(),
            ));
        }
    }
    let (kind, k, seed) = (first.kind, first.k, first.seed);
    let sharded = ShardedSketch::from_shards(envelopes.into_iter().map(rehydrate).collect());
    sharded.publish_metrics();
    let merged = sharded.snapshot();
    Ok(FilterEnvelope {
        kind,
        k,
        seed,
        counters: merged.core().store().values().collect(),
    })
}

/// Renders `info` for an envelope, including what the counter vector
/// would cost per counter in each storage layout: `raw`, the plain store
/// sbfd serves ([`PlainCounters`]), the §4 String-Array Index and the §4.5
/// Elias-δ compact array.
pub fn info_string(env: &FilterEnvelope) -> String {
    let m = env.counters.len();
    let nonzero = env.counters.iter().filter(|&&c| c > 0).count();
    // Saturating, like recovery's snapshot mass: a counter pinned at
    // `u64::MAX` must not wrap the total.
    let total = env
        .counters
        .iter()
        .fold(0u64, |acc, &c| acc.saturating_add(c));
    let wire = env.encode().len();
    let bits_per_counter = |bits: usize| bits as f64 / 8.0 / m.max(1) as f64;
    let sai = sbf_sai::StaticCounterArray::from_counters(&env.counters);
    let elias = sbf_sai::CompactCounterArray::from_counters(&env.counters);
    format!(
        "kind: {:?}\nm: {m}\nk: {}\nseed: {}\nnon-zero counters: {nonzero} ({:.1}%)\n\
         counter mass: {total} (≈ {} insertions)\nwire size: {wire} bytes\n\
         bytes/counter: raw {:.3}, sai {:.3}, elias {:.3}",
        env.kind,
        env.k,
        env.seed,
        100.0 * nonzero as f64 / m.max(1) as f64,
        total / u64::from(env.k.max(1)),
        bits_per_counter(PlainCounters::with_len(m).storage_bits()),
        bits_per_counter(sai.size_breakdown().total_bits()),
        bits_per_counter(elias.total_bits()),
    )
}

/// Flips the process-global telemetry switch on and pre-registers every
/// metric the core and db crates publish, so an exposition dump shows the
/// full schema (at zero) even for a run that never fires some events.
pub fn enable_telemetry() {
    sbf_telemetry::set_enabled(true);
    let _ = spectral_bloom::core_metrics();
    let _ = sbf_db::db_metrics();
}

/// The current metrics as Prometheus-style exposition text.
pub fn metrics_exposition() -> String {
    sbf_telemetry::global().snapshot().to_prometheus()
}

/// Dispatches a full command line (without the program name). Returns the
/// text to print on success.
///
/// The global `--metrics <path>` flag (recognised anywhere on the line)
/// enables telemetry and writes [`metrics_exposition`] to `<path>` after a
/// successful command; the `stats` wrapper prints it on stdout instead.
pub fn run(
    args: Vec<String>,
    stdin: impl BufRead,
    mut stdout: impl Write,
) -> Result<String, CliError> {
    let mut args = args;
    let metrics_path = take_flag(&mut args, "--metrics");
    if metrics_path.is_some() {
        enable_telemetry();
    }
    if args.is_empty() {
        return Err(CliError::Usage(USAGE.into()));
    }
    let cmd = args.remove(0);
    let summary = if cmd == "stats" {
        enable_telemetry();
        let inner = if args.is_empty() {
            String::new()
        } else {
            let inner_cmd = args.remove(0);
            dispatch(&inner_cmd, args, stdin, &mut stdout)?
        };
        write!(stdout, "{}", metrics_exposition())?;
        inner
    } else {
        dispatch(&cmd, args, stdin, &mut stdout)?
    };
    if let Some(path) = metrics_path {
        std::fs::write(&path, metrics_exposition())?;
    }
    Ok(summary)
}

/// Runs one subcommand (everything but the global flags and the `stats`
/// wrapper, which [`run`] peels off first).
fn dispatch(
    cmd: &str,
    args: Vec<String>,
    stdin: impl BufRead,
    mut stdout: impl Write,
) -> Result<String, CliError> {
    match cmd {
        "build" => {
            let opts = parse_build(args)?;
            let env = build_filter(&opts, stdin)?;
            std::fs::write(&opts.out, env.encode())?;
            let m = env.counters.len();
            if sbf_telemetry::enabled() {
                // Publish the finished filter's load as shard 0 so a
                // `--metrics` dump always carries occupancy gauges, whatever
                // ingest path built it.
                ShardedSketch::from_shards(vec![rehydrate(env)]).publish_metrics();
            }
            Ok(format!("wrote {} ({m} counters)", opts.out))
        }
        "query" => {
            let mut args = args;
            let filter = take_flag(&mut args, "--filter")
                .ok_or_else(|| CliError::Usage("query requires --filter <path>".into()))?;
            let threshold = num(&mut args, "--threshold", 0)?;
            let n = run_query(read_filter(&filter)?, threshold, stdin, stdout)?;
            Ok(format!("{n} keys reported"))
        }
        "merge" => {
            let mut args = args;
            let out = take_flag(&mut args, "--out")
                .ok_or_else(|| CliError::Usage("merge requires --out <path>".into()))?;
            if args.is_empty() {
                return Err(CliError::Usage("merge needs input filter files".into()));
            }
            let envelopes = args
                .iter()
                .map(|path| read_filter(path))
                .collect::<Result<Vec<_>, _>>()?;
            let n = envelopes.len();
            let merged = merge_envelopes(envelopes)?;
            std::fs::write(&out, merged.encode())?;
            Ok(format!("merged {n} filters into {out}"))
        }
        "info" => {
            let path = args
                .first()
                .ok_or_else(|| CliError::Usage("info requires a filter file".into()))?;
            writeln!(stdout, "{}", info_string(&read_filter(path)?))?;
            Ok(String::new())
        }
        "serve" => run_serve(args, &mut stdout),
        "client" => run_client(args, stdin, &mut stdout),
        "cluster" => run_cluster(args, stdin, &mut stdout),
        "wal" => run_wal(args, &mut stdout),
        other => Err(CliError::Usage(format!("unknown command {other}\n{USAGE}"))),
    }
}

/// Runs `serve`: binds an `sbfd` daemon and blocks until a client sends
/// SHUTDOWN (or the process is killed). The listening line is printed and
/// flushed *before* the accept loop starts, so wrappers (CI smoke tests,
/// `examples/cluster_join.rs`) can parse the bound port from a `:0` bind.
fn run_serve(mut args: Vec<String>, stdout: &mut impl Write) -> Result<String, CliError> {
    use std::time::Duration;
    let mut config = sbf_server::ServerConfig::default();
    config.addr = take_flag(&mut args, "--addr").unwrap_or_else(|| "127.0.0.1:7070".into());
    config.m = num(&mut args, "--m", config.m)?;
    config.k = num(&mut args, "--k", config.k)?;
    config.seed = num(&mut args, "--seed", config.seed)?;
    config.shards = num(&mut args, "--shards", config.shards)?;
    config.workers = num(&mut args, "--workers", config.workers)?;
    config.read_timeout = Some(Duration::from_secs(num(&mut args, "--timeout-secs", 30)?));
    // Reactor knobs, 1:1 with the ServerConfig fields.
    config.max_connections = num(&mut args, "--max-connections", config.max_connections)?;
    config.poll_timeout = Duration::from_millis(num(
        &mut args,
        "--poll-timeout-ms",
        config.poll_timeout.as_millis() as u64,
    )?);
    config.pipeline_depth = num(&mut args, "--pipeline-depth", config.pipeline_depth)?;
    config.max_frame = num(&mut args, "--max-frame", config.max_frame)?;
    config.wal_compact_ratio = num(&mut args, "--wal-compact-ratio", config.wal_compact_ratio)?;
    config.wal_compact_min_bytes = num(
        &mut args,
        "--wal-compact-min-bytes",
        config.wal_compact_min_bytes,
    )?;
    // 0 disables the background checkpointer (the drain-time checkpoint
    // still runs; compaction then only happens at exit).
    config.wal_checkpoint_interval = match num(&mut args, "--wal-checkpoint-secs", 60)? {
        0 => None,
        secs => Some(Duration::from_secs(secs)),
    };
    config.snapshot_path = take_flag(&mut args, "--snapshot-path").map(Into::into);
    config.wal_dir = take_flag(&mut args, "--wal-dir").map(Into::into);
    // Semi-synchronous replication: every acknowledged mutation is shipped
    // to the sbfd at this address before the client sees Ok.
    config.replicate_to = take_flag(&mut args, "--replicate-to");
    if !args.is_empty() {
        return Err(CliError::Usage(format!("unrecognized arguments: {args:?}")));
    }
    // Nonsense knob combinations are usage errors, caught before any
    // socket exists.
    config
        .validate()
        .map_err(|e| CliError::Usage(e.to_string()))?;
    // A daemon exists to be observed: telemetry on, full schema registered.
    enable_telemetry();
    let _ = sbf_server::metrics::server_metrics();
    let server =
        sbf_server::SbfServer::bind(config).map_err(|e| CliError::Server(format!("bind: {e}")))?;
    if let Some(report) = server.recovery_report() {
        writeln!(stdout, "{}", report.summary())?;
    }
    let addr = server.local_addr()?;
    writeln!(stdout, "sbfd listening on {addr}")?;
    stdout.flush()?;
    server.run().map_err(|e| CliError::Server(e.to_string()))?;
    Ok(format!("sbfd on {addr} drained and exited"))
}

/// Parses the `--nodes` topology list: comma-separated members, each
/// `primary[/replica]`, e.g. `127.0.0.1:7070/127.0.0.1:7071,127.0.0.1:7072`.
fn parse_nodes(list: &str) -> Result<Vec<sbf_server::NodeSpec>, CliError> {
    let mut nodes = Vec::new();
    for part in list.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        match part.split_once('/') {
            Some((primary, replica)) if !primary.is_empty() && !replica.is_empty() => {
                nodes.push(sbf_server::NodeSpec::replicated(primary, replica));
            }
            Some(_) => {
                return Err(CliError::Usage(format!(
                    "--nodes member {part:?} must be primary[/replica]"
                )));
            }
            None => nodes.push(sbf_server::NodeSpec::solo(part)),
        }
    }
    if nodes.is_empty() {
        return Err(CliError::Usage(
            "--nodes must list at least one primary[/replica] address".into(),
        ));
    }
    Ok(nodes)
}

/// Runs `cluster`: the multi-node front end over [`sbf_server::ClusterClient`].
/// Each member is an ordinary `sbf serve` daemon.
///
/// * `cluster client --nodes ... <op>` scatter-gathers one operation
///   across the whole topology (keys on stdin, one per line),
/// * `cluster join --nodes ... --left I --right J` runs a cross-node
///   spectral Bloomjoin between two members and prints `key<TAB>estimate`
///   for every stdin key that survives the threshold.
fn run_cluster(
    mut args: Vec<String>,
    stdin: impl BufRead,
    stdout: &mut impl Write,
) -> Result<String, CliError> {
    if args.is_empty() {
        return Err(CliError::Usage(
            "cluster requires: client|join (see usage)".into(),
        ));
    }
    let sub = args.remove(0);
    // Both subcommands talk to a topology with one shared
    // geometry; the HELLO handshake refuses any member that disagrees.
    let defaults = sbf_server::ServerConfig::default();
    let list = take_flag(&mut args, "--nodes").ok_or_else(|| {
        CliError::Usage("cluster client/join require --nodes p1[/r1],p2,...".into())
    })?;
    let nodes = parse_nodes(&list)?;
    let m = num(&mut args, "--m", defaults.m)?;
    let k = num(&mut args, "--k", defaults.k)?;
    let seed = num(&mut args, "--seed", defaults.seed)?;
    let topology = sbf_server::ClusterTopology::new(nodes, m, k, seed)
        .ok_or_else(|| CliError::Usage("--nodes must list at least one node".into()))?;
    let connect = |topology: sbf_server::ClusterTopology| {
        sbf_server::ClusterClient::connect(topology)
            .map_err(|e| CliError::Server(format!("cluster connect: {e}")))
    };
    match sub.as_str() {
        "join" => {
            let left: usize = num(&mut args, "--left", 0)?;
            let right: usize = num(&mut args, "--right", 1)?;
            let threshold: u64 = num(&mut args, "--threshold", 1)?;
            let n = topology.num_nodes();
            if left >= n || right >= n || left == right {
                return Err(CliError::Usage(format!(
                    "--left/--right must be two distinct node indices below {n}"
                )));
            }
            let keys = read_keys(stdin)?;
            let mut cluster = connect(topology)?;
            let estimates = cluster
                .join(left, right, threshold, &keys)
                .map_err(|e| CliError::Server(e.to_string()))?;
            let mut survivors = 0u64;
            for (key, est) in keys.iter().zip(estimates) {
                if est > 0 {
                    survivors += 1;
                    writeln!(stdout, "{}\t{est}", String::from_utf8_lossy(key))?;
                }
            }
            Ok(format!(
                "{survivors} of {} keys joined (threshold {threshold})",
                keys.len()
            ))
        }
        "client" => {
            if args.is_empty() {
                return Err(CliError::Usage(
                    "cluster client requires a command \
                     (ping|insert|remove|estimate|snapshot|shutdown)"
                        .into(),
                ));
            }
            let op = args.remove(0);
            match op.as_str() {
                "ping" => {
                    let mut cluster = connect(topology)?;
                    cluster
                        .ping_all()
                        .map_err(|e| CliError::Server(e.to_string()))?;
                    Ok(format!(
                        "pong from {} node(s)",
                        cluster.topology().num_nodes()
                    ))
                }
                "insert" => {
                    let count: u64 = num(&mut args, "--count", 1)?;
                    let keys = read_keys(stdin)?;
                    let mut cluster = connect(topology)?;
                    if count == 1 {
                        for chunk in keys.chunks(4096) {
                            cluster
                                .insert_batch(chunk)
                                .map_err(|e| CliError::Server(e.to_string()))?;
                        }
                    } else {
                        for key in &keys {
                            cluster
                                .insert(key, count)
                                .map_err(|e| CliError::Server(e.to_string()))?;
                        }
                    }
                    Ok(format!("inserted {} keys (count {count})", keys.len()))
                }
                "remove" => {
                    let count: u64 = num(&mut args, "--count", 1)?;
                    let keys = read_keys(stdin)?;
                    let mut cluster = connect(topology)?;
                    for key in &keys {
                        cluster
                            .remove(key, count)
                            .map_err(|e| CliError::Server(e.to_string()))?;
                    }
                    Ok(format!("removed {} keys (count {count})", keys.len()))
                }
                "estimate" => {
                    let keys = read_keys(stdin)?;
                    let mut cluster = connect(topology)?;
                    for chunk in keys.chunks(4096) {
                        let estimates = cluster
                            .estimate_batch(chunk)
                            .map_err(|e| CliError::Server(e.to_string()))?;
                        for (key, est) in chunk.iter().zip(estimates) {
                            writeln!(stdout, "{}\t{est}", String::from_utf8_lossy(key))?;
                        }
                    }
                    Ok(format!("{} keys estimated", keys.len()))
                }
                "snapshot" => {
                    let out = take_flag(&mut args, "--out").ok_or_else(|| {
                        CliError::Usage("cluster client snapshot requires --out <path>".into())
                    })?;
                    let mut cluster = connect(topology)?;
                    let env = cluster
                        .snapshot_union()
                        .map_err(|e| CliError::Server(e.to_string()))?;
                    std::fs::write(&out, env.encode())?;
                    Ok(format!(
                        "wrote {out} ({} counters, cluster-wide union)",
                        env.counters.len()
                    ))
                }
                "shutdown" => {
                    let mut cluster = connect(topology)?;
                    cluster.shutdown_all();
                    Ok("cluster draining".into())
                }
                other => Err(CliError::Usage(format!(
                    "unknown cluster client command {other}"
                ))),
            }
        }
        other => Err(CliError::Usage(format!(
            "unknown cluster subcommand {other} (client|join)"
        ))),
    }
}

/// Runs `wal inspect <dir>`: prints what a recovery from that directory
/// would see — snapshot geometry and mass, then every generation log with
/// its record count, op breakdown, and torn-tail verdict. Read-only, so
/// it is safe against a live server's directory.
fn run_wal(mut args: Vec<String>, stdout: &mut impl Write) -> Result<String, CliError> {
    match args.first().map(String::as_str) {
        Some("inspect") => {
            args.remove(0);
        }
        _ => return Err(CliError::Usage("wal requires: inspect <dir>".into())),
    }
    let max_record = num(&mut args, "--max-record", sbf_server::MAX_FRAME_DEFAULT)?;
    let dir = match args.as_slice() {
        [dir] => std::path::PathBuf::from(dir),
        _ => {
            return Err(CliError::Usage(
                "wal inspect requires exactly one <dir>".into(),
            ))
        }
    };
    let insp = sbf_server::recovery::inspect(&dir, max_record)?;
    match &insp.snapshot {
        Some(Ok(s)) => writeln!(
            stdout,
            "snapshot: {} bytes, m={} k={} seed={}, mass={}",
            s.bytes, s.m, s.k, s.seed, s.mass
        )?,
        Some(Err(e)) => writeln!(stdout, "snapshot: UNDECODABLE ({e})")?,
        None => writeln!(stdout, "snapshot: none")?,
    }
    let mut records = 0u64;
    for log in &insp.logs {
        records += log.records;
        let ops: Vec<String> = log.ops.iter().map(|(op, n)| format!("{op}×{n}")).collect();
        let tail = match &log.torn {
            Some(reason) => format!("torn tail at byte {} ({reason})", log.valid_bytes),
            None => "clean".into(),
        };
        writeln!(
            stdout,
            "wal-{:06}.log: {} bytes, {} records [{}], {tail}",
            log.generation,
            log.bytes,
            log.records,
            ops.join(", "),
        )?;
    }
    Ok(format!(
        "{} log(s), {} replayable record(s)",
        insp.logs.len(),
        records
    ))
}

/// Runs `client`: one `sbfd` command over a fresh connection.
fn run_client(
    mut args: Vec<String>,
    stdin: impl BufRead,
    stdout: &mut impl Write,
) -> Result<String, CliError> {
    let addr = take_flag(&mut args, "--addr")
        .ok_or_else(|| CliError::Usage("client requires --addr <host:port>".into()))?;
    if args.is_empty() {
        return Err(CliError::Usage(
            "client requires a command (ping|insert|remove|estimate|merge|snapshot|stats|shutdown)"
                .into(),
        ));
    }
    let op = args.remove(0);
    let mut client = sbf_server::SbfClient::builder(&addr as &str)
        .io_timeout(Some(std::time::Duration::from_secs(30)))
        .connect()
        .map_err(|e| CliError::Server(format!("connect {addr}: {e}")))?;
    match op.as_str() {
        "ping" => {
            client.ping()?;
            Ok("pong".into())
        }
        "insert" => {
            let count: u64 = num(&mut args, "--count", 1)?;
            let keys = read_keys(stdin)?;
            let n = keys.len();
            if count == 1 {
                // The batched frame is the hot path; use it when counts
                // allow.
                for chunk in keys.chunks(4096) {
                    client.insert_batch(chunk)?;
                }
            } else {
                for key in &keys {
                    client.insert(key, count)?;
                }
            }
            Ok(format!("inserted {n} keys (count {count})"))
        }
        "remove" => {
            let count: u64 = num(&mut args, "--count", 1)?;
            let keys = read_keys(stdin)?;
            let n = keys.len();
            for key in &keys {
                client.remove(key, count)?;
            }
            Ok(format!("removed {n} keys (count {count})"))
        }
        "estimate" => {
            let keys = read_keys(stdin)?;
            for chunk in keys.chunks(4096) {
                let estimates = client.estimate_batch(chunk)?;
                for (key, est) in chunk.iter().zip(estimates) {
                    writeln!(stdout, "{}\t{est}", String::from_utf8_lossy(key))?;
                }
            }
            Ok(format!("{} keys estimated", keys.len()))
        }
        "merge" => {
            let path = args
                .first()
                .ok_or_else(|| CliError::Usage("client merge requires a filter file".into()))?;
            let bytes = std::fs::read(path)?;
            client.merge(&bytes)?;
            Ok(format!("merged {path} into the server"))
        }
        "snapshot" => {
            let out = take_flag(&mut args, "--out")
                .ok_or_else(|| CliError::Usage("client snapshot requires --out <path>".into()))?;
            let bytes = client.snapshot()?;
            let env = FilterEnvelope::decode(&bytes)
                .map_err(|e| CliError::Server(format!("snapshot did not decode: {e}")))?;
            std::fs::write(&out, &bytes)?;
            Ok(format!("wrote {out} ({} counters)", env.counters.len()))
        }
        "stats" => {
            write!(stdout, "{}", client.stats()?)?;
            Ok(String::new())
        }
        "shutdown" => {
            client.shutdown()?;
            Ok("server draining".into())
        }
        other => Err(CliError::Usage(format!("unknown client command {other}"))),
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
usage: sbf [--metrics <path>] <build|query|merge|info|serve|client|cluster|wal|stats> [options]
  build --out <path> --m <counters> [--k 5] [--seed 42] [--algo ms|mi]    keys on stdin
  query --filter <path> [--threshold T]                                   keys on stdin
  merge --out <path> <in1.sbf> <in2.sbf> ...
  info  <path>
  serve [--addr 127.0.0.1:7070] [--m 65536] [--k 5] [--seed 42] [--shards 4]
        [--workers 4] [--timeout-secs 30] [--snapshot-path <path>]   run the sbfd daemon
        [--max-connections 4096] [--poll-timeout-ms 100] [--pipeline-depth 32]
        [--max-frame 1048576]       reactor knobs: capacity, wait bound, batch, frame cap
        [--wal-dir <dir>] [--wal-compact-ratio 4] [--wal-compact-min-bytes 1048576]
        [--wal-checkpoint-secs 60]          durable mode: fsynced log + crash recovery
        [--replicate-to <host:port>]   ship every acknowledged mutation to a replica
                    sbfd before answering Ok (semi-synchronous; failover-safe reads)
  client --addr <host:port> <ping|insert|remove|estimate|merge|snapshot|stats|shutdown>
        [--count N] [--out <path>] [<file.sbf>]        keys on stdin where applicable
  cluster client --nodes p1[/r1],p2,... [--m 65536] [--k 5] [--seed 42]
        <ping|insert|remove|estimate|snapshot|shutdown> [--count N] [--out <path>]
                    scatter-gather one op across the topology; keys on stdin
  cluster join --nodes ... --left 0 --right 1 [--threshold 1]
                    cross-node spectral Bloomjoin; stdin keys, key<TAB>est survivors
  wal inspect <dir> [--max-record N]   read-only dump of a WAL directory's recovery view
  stats [<command> ...]      run <command> with telemetry on; print metrics on stdout
  --metrics <path>           global: enable telemetry, dump exposition to <path>";

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn opts(kind: FilterKind) -> BuildOpts {
        BuildOpts {
            out: "unused".into(),
            m: 4096,
            k: 5,
            seed: 7,
            kind,
        }
    }

    #[test]
    fn parse_build_full_and_defaults() {
        let o = parse_build(
            [
                "--out", "f.sbf", "--m", "1000", "--k", "4", "--seed", "9", "--algo", "mi",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        )
        .unwrap();
        assert_eq!(
            o,
            BuildOpts {
                out: "f.sbf".into(),
                m: 1000,
                k: 4,
                seed: 9,
                kind: FilterKind::MinimalIncrease,
            }
        );
        let o = parse_build(
            ["--out", "f", "--m", "10"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        )
        .unwrap();
        assert_eq!(o.k, 5);
        assert_eq!(o.kind, FilterKind::MinimumSelection);
    }

    #[test]
    fn parse_nodes_topologies() {
        let nodes = parse_nodes("127.0.0.1:1/127.0.0.1:2, 127.0.0.1:3").unwrap();
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[0].primary, "127.0.0.1:1");
        assert_eq!(nodes[0].replica.as_deref(), Some("127.0.0.1:2"));
        assert_eq!(nodes[1].primary, "127.0.0.1:3");
        assert_eq!(nodes[1].replica, None);
        assert!(parse_nodes("").is_err(), "empty topology");
        assert!(parse_nodes("a/").is_err(), "empty replica");
        assert!(parse_nodes("/b").is_err(), "empty primary");
    }

    #[test]
    fn parse_build_rejects_junk() {
        assert!(
            parse_build(vec!["--m".into(), "10".into()]).is_err(),
            "missing --out"
        );
        assert!(parse_build(vec!["--out".into(), "f".into(), "--m".into(), "x".into()]).is_err());
        assert!(parse_build(
            ["--out", "f", "--m", "10", "--algo", "zzz"]
                .iter()
                .map(|s| s.to_string())
                .collect()
        )
        .is_err());
        // The parallel build is gone; its flag is refused like any other.
        assert!(parse_build(
            ["--out", "f", "--m", "10", "--ingest-threads", "4"]
                .iter()
                .map(|s| s.to_string())
                .collect()
        )
        .is_err());
        assert!(parse_build(
            ["--out", "f", "--m", "10", "stray"]
                .iter()
                .map(|s| s.to_string())
                .collect()
        )
        .is_err());
        // One more hash function than the family supports used to panic.
        assert!(matches!(
            parse_build(
                ["--out", "f", "--m", "10", "--k", "17"]
                    .map(String::from)
                    .to_vec()
            ),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn build_then_query_roundtrip() {
        let keys = "apple\napple\nbanana\n\napple\n";
        let env = build_filter(&opts(FilterKind::MinimumSelection), Cursor::new(keys)).unwrap();
        let mut out = Vec::new();
        let n = run_query(env, 2, Cursor::new("apple\nbanana\ncherry\n"), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(n, 1);
        assert!(text.contains("apple\t3"), "got: {text}");
        assert!(!text.contains("banana"), "banana is below threshold 2");
    }

    #[test]
    fn mi_build_counts_too() {
        let env =
            build_filter(&opts(FilterKind::MinimalIncrease), Cursor::new("x\nx\nx\n")).unwrap();
        let sbf = rehydrate(env);
        assert_eq!(sbf.estimate(&"x"), 3);
    }

    #[test]
    fn merge_requires_compatibility() {
        let a = build_filter(&opts(FilterKind::MinimumSelection), Cursor::new("p\n")).unwrap();
        let b = build_filter(&opts(FilterKind::MinimumSelection), Cursor::new("q\nq\n")).unwrap();
        let merged = merge_envelopes(vec![a.clone(), b]).unwrap();
        let sbf = rehydrate(merged);
        assert!(sbf.estimate(&"p") >= 1);
        assert_eq!(sbf.estimate(&"q"), 2);

        let mut alien = a;
        alien.seed ^= 1;
        let b2 = build_filter(&opts(FilterKind::MinimumSelection), Cursor::new("q\n")).unwrap();
        assert!(matches!(
            merge_envelopes(vec![alien, b2]),
            Err(CliError::Incompatible(_))
        ));
        // Each input is one shard of the union, so the shard cap bounds a
        // merge: past it the merge is refused, not a panic.
        let c = build_filter(&opts(FilterKind::MinimumSelection), Cursor::new("r\n")).unwrap();
        let many = vec![c; MAX_SHARDS + 1];
        assert!(merge_envelopes(many[..MAX_SHARDS].to_vec()).is_ok());
        assert!(matches!(merge_envelopes(many), Err(CliError::Usage(_))));
    }

    #[test]
    fn info_reports_parameters() {
        let env = build_filter(&opts(FilterKind::MinimumSelection), Cursor::new("a\nb\n")).unwrap();
        let info = info_string(&env);
        assert!(info.contains("m: 4096"));
        assert!(info.contains("k: 5"));
        assert!(info.contains("≈ 2 insertions"));
        // The storage line names every counter layout with its
        // per-counter cost; on a nearly-empty filter the compressed forms
        // must undercut raw's 4 bytes (one sticky `u32` per counter).
        let line = info
            .lines()
            .find(|l| l.starts_with("bytes/counter:"))
            .expect("info must report bytes/counter");
        assert!(line.contains("raw 4.000"), "{line}");
        for enc in ["sai", "elias"] {
            let cost: f64 = line
                .split(&format!("{enc} "))
                .nth(1)
                .and_then(|rest| rest.split(&[',', '\n'][..]).next())
                .unwrap()
                .trim()
                .parse()
                .unwrap();
            assert!(cost < 4.0, "{enc} should compress a sparse filter: {line}");
        }
        // A saturated counter pins the mass at u64::MAX instead of wrapping.
        let saturated = FilterEnvelope {
            counters: vec![u64::MAX, 5],
            ..env
        };
        let info = info_string(&saturated);
        assert!(
            info.contains("counter mass: 18446744073709551615"),
            "{info}"
        );
    }

    #[test]
    fn merge_uses_saturating_union() {
        // Overflowing counters clamp at u64::MAX instead of failing the
        // merge (documented on merge_envelopes). Build the near-overflow
        // envelope by hand.
        let a = build_filter(&opts(FilterKind::MinimumSelection), Cursor::new("p\n")).unwrap();
        let mut b = a.clone();
        for c in &mut b.counters {
            *c = u64::MAX - 1;
        }
        let merged = merge_envelopes(vec![a, b]).unwrap();
        assert!(merged.counters.iter().all(|&c| c >= u64::MAX - 1));
    }

    #[test]
    fn stats_wrapper_prints_parseable_exposition() {
        let dir = std::env::temp_dir().join(format!("sbf-cli-stats-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.sbf");
        let mut out = Vec::new();
        run(
            vec![
                "stats".into(),
                "build".into(),
                "--out".into(),
                path.to_str().unwrap().into(),
                "--m".into(),
                "1024".into(),
            ],
            Cursor::new("a\nb\na\n"),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let samples = sbf_telemetry::parse_exposition(&text).expect("stats output must parse");
        // The registry is process-global and tests run in parallel, so
        // assert presence and minimums, not exact values.
        let inserts = samples
            .iter()
            .find(|(name, _)| name == "sbf_inserts_total")
            .expect("insert counter exposed");
        assert!(inserts.1 >= 3.0, "3 keys were ingested: {}", inserts.1);
        assert!(
            samples
                .iter()
                .any(|(name, _)| name.starts_with("sbf_shard_occupancy_ratio")),
            "build must publish per-shard occupancy"
        );
        assert!(samples
            .iter()
            .any(|(name, _)| name == "sbf_counter_saturations_total"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_flag_dumps_to_file() {
        let dir = std::env::temp_dir().join(format!("sbf-cli-metrics-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let filter = dir.join("f.sbf");
        let prom = dir.join("run.prom");
        run(
            vec![
                "--metrics".into(),
                prom.to_str().unwrap().into(),
                "build".into(),
                "--out".into(),
                filter.to_str().unwrap().into(),
                "--m".into(),
                "1024".into(),
            ],
            Cursor::new("k1\nk2\n"),
            Vec::new(),
        )
        .unwrap();
        let text = std::fs::read_to_string(&prom).expect("exposition file written");
        let samples = sbf_telemetry::parse_exposition(&text).expect("dump must parse");
        assert!(samples.iter().any(|(name, _)| name == "sbf_inserts_total"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_through_files() {
        let dir = std::env::temp_dir().join(format!("sbf-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.sbf");
        let msg = run(
            vec![
                "build".into(),
                "--out".into(),
                path.to_str().unwrap().into(),
                "--m".into(),
                "2048".into(),
            ],
            Cursor::new("k1\nk2\nk1\n"),
            Vec::new(),
        )
        .unwrap();
        assert!(msg.contains("wrote"));
        let mut out = Vec::new();
        let msg = run(
            vec![
                "query".into(),
                "--filter".into(),
                path.to_str().unwrap().into(),
            ],
            Cursor::new("k1\nk3\n"),
            &mut out,
        )
        .unwrap();
        assert!(msg.contains("keys reported"));
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("k1\t2"));
        assert!(text.contains("k3\t0"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `Write` that ships each flushed chunk through a channel — lets a
    /// test read `serve`'s listening line while `run` is still blocked in
    /// the accept loop.
    struct ChannelWriter {
        tx: std::sync::mpsc::Sender<String>,
        buf: Vec<u8>,
    }

    impl Write for ChannelWriter {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.buf.extend_from_slice(data);
            Ok(data.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            if !self.buf.is_empty() {
                let text = String::from_utf8_lossy(&self.buf).into_owned();
                self.buf.clear();
                let _ = self.tx.send(text);
            }
            Ok(())
        }
    }

    #[test]
    fn serve_and_client_roundtrip_through_the_cli() {
        let (tx, rx) = std::sync::mpsc::channel();
        let server = std::thread::spawn(move || {
            run(
                [
                    "serve",
                    "--addr",
                    "127.0.0.1:0",
                    "--m",
                    "4096",
                    "--shards",
                    "2",
                    "--workers",
                    "2",
                    "--max-connections",
                    "64",
                    "--poll-timeout-ms",
                    "50",
                    "--pipeline-depth",
                    "16",
                ]
                .map(String::from)
                .to_vec(),
                Cursor::new(""),
                ChannelWriter {
                    tx,
                    buf: Vec::new(),
                },
            )
        });
        let banner = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("serve must announce its address");
        let addr = banner
            .trim()
            .strip_prefix("sbfd listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
            .to_string();

        let client = |args: Vec<String>, input: &str| {
            let mut out = Vec::new();
            let msg = run(args, Cursor::new(input.to_string()), &mut out).unwrap();
            (msg, String::from_utf8(out).unwrap())
        };
        let base = vec!["client".to_string(), "--addr".to_string(), addr];

        let (msg, _) = client(
            base.clone().into_iter().chain(["ping".into()]).collect(),
            "",
        );
        assert_eq!(msg, "pong");

        let (msg, _) = client(
            base.clone().into_iter().chain(["insert".into()]).collect(),
            "apple\napple\nbanana\n",
        );
        assert!(msg.contains("inserted 3 keys"), "{msg}");

        let (_, table) = client(
            base.clone()
                .into_iter()
                .chain(["estimate".into()])
                .collect(),
            "apple\nbanana\ncherry\n",
        );
        assert!(table.contains("apple\t"), "{table}");
        let apple: u64 = table
            .lines()
            .find_map(|l| l.strip_prefix("apple\t"))
            .unwrap()
            .parse()
            .unwrap();
        assert!(apple >= 2, "one-sided over the CLI: {apple}");

        let (_, stats) = client(
            base.clone().into_iter().chain(["stats".into()]).collect(),
            "",
        );
        assert!(stats.contains("sbfd_connections_total"), "{stats}");

        let dir = std::env::temp_dir().join(format!("sbf-cli-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("snap.sbf");
        let (msg, _) = client(
            base.clone()
                .into_iter()
                .chain([
                    "snapshot".into(),
                    "--out".into(),
                    snap.to_str().unwrap().into(),
                ])
                .collect(),
            "",
        );
        assert!(msg.contains("4096 counters"), "{msg}");
        // The snapshot file is a normal filter file: `sbf info` reads it.
        let mut out = Vec::new();
        run(
            vec!["info".into(), snap.to_str().unwrap().into()],
            Cursor::new(""),
            &mut out,
        )
        .unwrap();
        assert!(String::from_utf8(out).unwrap().contains("m: 4096"));

        let (msg, _) = client(base.into_iter().chain(["shutdown".into()]).collect(), "");
        assert_eq!(msg, "server draining");
        let summary = server.join().unwrap().unwrap();
        assert!(summary.contains("drained"), "{summary}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn client_usage_errors_are_typed() {
        assert!(matches!(
            run(
                vec!["client".into(), "ping".into()],
                Cursor::new(""),
                Vec::new()
            ),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(
                ["client", "--addr", "127.0.0.1:1", "ping"]
                    .map(String::from)
                    .to_vec(),
                Cursor::new(""),
                Vec::new()
            ),
            Err(CliError::Server(_))
        ));
        assert!(matches!(
            run(
                ["serve", "--addr", "not-an-address"]
                    .map(String::from)
                    .to_vec(),
                Cursor::new(""),
                Vec::new()
            ),
            Err(CliError::Server(_))
        ));
        // Nonsense reactor knobs are usage errors, refused before binding.
        for flags in [
            ["--pipeline-depth", "0"],
            ["--max-connections", "0"],
            ["--poll-timeout-ms", "0"],
            ["--timeout-secs", "0"],
            ["--max-frame", "0"],
            ["--k", "17"],
            ["--k", "0"],
            ["--m", "0"],
            ["--shards", "0"],
            ["--workers", "0"],
        ] {
            let argv: Vec<String> = ["serve", "--addr", "127.0.0.1:0", flags[0], flags[1]]
                .map(String::from)
                .to_vec();
            assert!(
                matches!(
                    run(argv, Cursor::new(""), Vec::new()),
                    Err(CliError::Usage(_))
                ),
                "{flags:?} should be a usage error"
            );
        }
        // More shards than a batched estimate holds guards for is refused
        // with the typed config error's message.
        let argv: Vec<String> = ["serve", "--addr", "127.0.0.1:0", "--shards", "65"]
            .map(String::from)
            .to_vec();
        match run(argv, Cursor::new(""), Vec::new()) {
            Err(CliError::Usage(msg)) => assert_eq!(msg, "shards must be at most 64"),
            other => panic!("--shards 65 should be refused, got {other:?}"),
        }
    }

    /// `wal inspect` reads a directory a durable server actually wrote:
    /// the log of a crashed run, then the snapshot a clean drain leaves.
    #[test]
    fn wal_inspect_reads_a_real_wal_directory() {
        let dir = std::env::temp_dir().join(format!("sbf-cli-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = sbf_server::ServerConfig::builder()
            .addr("127.0.0.1:0")
            .m(4096)
            .shards(2)
            .workers(2)
            .wal_dir(dir.clone())
            .wal_checkpoint_interval(None)
            .build()
            .unwrap();
        let handle = sbf_server::SbfServer::bind(cfg).unwrap().spawn().unwrap();
        let mut client = sbf_server::SbfClient::builder(handle.addr())
            .connect()
            .unwrap();
        client.insert(b"apple", 2).unwrap();
        client.insert(b"banana", 1).unwrap();
        drop(client);
        handle.crash_and_join().unwrap();

        let inspect = |dir: &std::path::Path| {
            let mut out = Vec::new();
            let msg = run(
                vec!["wal".into(), "inspect".into(), dir.to_str().unwrap().into()],
                Cursor::new(""),
                &mut out,
            )
            .unwrap();
            (msg, String::from_utf8(out).unwrap())
        };

        let (msg, text) = inspect(&dir);
        assert!(msg.contains("2 replayable record(s)"), "{msg}");
        assert!(text.contains("snapshot: none"), "{text}");
        assert!(text.contains("insert×2"), "{text}");
        assert!(text.contains("clean"), "{text}");

        // Usage errors are typed, not panics.
        assert!(matches!(
            run(vec!["wal".into()], Cursor::new(""), Vec::new()),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}

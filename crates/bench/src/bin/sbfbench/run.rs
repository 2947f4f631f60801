//! One workload, end to end: set-up, the timed closed loops, the truth
//! checks, and the numbers they produce.
//!
//! Every loop is closed: a caller sends its next frame only once the
//! previous answer is back, as sbfd's callers do (a planner or cache asks
//! about a key, then acts). Two callers run at once, one connection each,
//! because the machines this runs on have two CPUs and the server's
//! reactor and workers need them too.

use std::fs;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use sbf_bench::AccuracyMetrics;
use sbf_server::{
    ClusterClient, ClusterTopology, NodeSpec, Request, Response, SbfClient, SbfServer,
    ServerConfig, ServerConfigBuilder, ServerHandle, SharedState,
};

use crate::inputs::{key, tally, Frame, Op, Plan, Workload, BATCH};
use crate::json::Json;
use crate::stats;
use crate::trace::{self, Layers, Span};

/// Hash functions per filter.
pub const K: usize = 5;
/// Hash seed every node and probe shares.
pub const HASH_SEED: u64 = 42;
/// Shards in each node's live sketch.
pub const SHARDS: usize = 4;
/// Set-ups per run. An untraced run times an equal segment of its work
/// after each.
const SETUP_REPS: usize = 5;
/// An untraced segment is one warm-up window, whose frames are checked but
/// not timed, then this many measured windows of the same length.
const WINDOWS: usize = 11;
/// The cluster reader pulls a `snapshot_union` every this many frames.
const SNAPSHOT_EVERY: u64 = 256;
/// Frames per stretch in a traced run; stretches alternate untraced, traced.
const TRACE_STRETCH: u64 = 256;
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One named number, as printed and as written to the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one run: keys attempted and failed, any contract
/// violation found, and the metrics of the requested kind.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]);
                (m.name.to_string(), v)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// Where runs keep their WAL directories and traces: inside the build
/// directory, so a run writes nothing outside the checkout.
pub fn scratch_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("sbfbench")
}

pub fn config(plan: &Plan) -> ServerConfigBuilder {
    ServerConfig::builder()
        // A durable node checkpoints only when it shuts down gracefully
        // (see README.md, "Flush policy"); nodes without a WAL ignore both.
        .wal_compact_ratio(u64::MAX)
        .wal_checkpoint_interval(None)
        .addr("127.0.0.1:0")
        .m(plan.m)
        .k(K)
        .seed(HASH_SEED)
        .shards(SHARDS)
        .workers(plan.workers)
}

pub fn spawn(builder: ServerConfigBuilder) -> ServerHandle {
    SbfServer::bind(builder.build().expect("valid server config"))
        .expect("bind a loopback node")
        .spawn()
        .expect("spawn a node")
}

pub fn dial(addr: SocketAddr) -> SbfClient {
    SbfClient::builder(addr)
        .io_timeout(Some(IO_TIMEOUT))
        .connect()
        .expect("connect to a node")
}

/// A caller's connection: one node, or the whole cluster.
pub enum Client {
    Node(SbfClient),
    Cluster(ClusterClient),
}

#[derive(Debug)]
pub enum Reply {
    Ack,
    One(u64),
    Many(Vec<u64>),
}

impl Client {
    /// Sends one frame through the typed client API and waits for it.
    pub fn call(&mut self, f: &Frame) -> Result<Reply, String> {
        match self {
            Client::Node(c) => match f.op {
                Op::Insert => c.insert(&f.keys[0], 1).map(|()| Reply::Ack),
                Op::Estimate => c.estimate(&f.keys[0]).map(Reply::One),
                Op::InsertBatch => c.insert_batch(&f.keys).map(|()| Reply::Ack),
                Op::EstimateBatch => c.estimate_batch(&f.keys).map(Reply::Many),
            }
            .map_err(|e| e.to_string()),
            Client::Cluster(c) => match f.op {
                Op::Insert => c.insert(&f.keys[0], 1).map(|()| Reply::Ack),
                Op::Estimate => c.estimate(&f.keys[0]).map(Reply::One),
                Op::InsertBatch => c.insert_batch(&f.keys).map(|()| Reply::Ack),
                Op::EstimateBatch => c.estimate_batch(&f.keys).map(Reply::Many),
            }
            .map_err(|e| e.to_string()),
        }
    }
}

/// The system under test: the nodes a workload's callers talk to.
struct Sut {
    primaries: Vec<ServerHandle>,
    replicas: Vec<ServerHandle>,
    topology: Option<ClusterTopology>,
}

impl Sut {
    fn single(node: ServerHandle) -> Self {
        Sut {
            primaries: vec![node],
            replicas: Vec::new(),
            topology: None,
        }
    }

    fn cluster_client(&self) -> Option<Result<ClusterClient, String>> {
        let t = self.topology.clone()?;
        Some(ClusterClient::connect_with_timeout(t, Some(IO_TIMEOUT)).map_err(|e| e.to_string()))
    }

    /// Every id's served estimate: in process through the node's own
    /// dispatch, or through a cluster client for the cluster.
    fn sweep(&self, universe: u32) -> Result<Vec<u64>, String> {
        match self.cluster_client() {
            Some(client) => {
                let mut client = client?;
                let mut out = Vec::with_capacity(universe as usize);
                for lo in (0..universe).step_by(BATCH) {
                    let keys: Vec<Vec<u8>> =
                        (lo..universe.min(lo + BATCH as u32)).map(key).collect();
                    out.extend(client.estimate_batch(&keys).map_err(|e| e.to_string())?);
                }
                Ok(out)
            }
            None => sweep_state(&self.primaries[0].state(), 0..universe),
        }
    }

    fn shut_down(self) {
        for node in self.primaries.into_iter().chain(self.replicas) {
            node.shutdown_and_join().expect("node drains");
        }
    }
}

/// Estimates for `ids` straight through a node's dispatch, bypassing the
/// socket, on two threads (the sweeps cover millions of ids).
fn sweep_state(state: &SharedState, ids: impl Iterator<Item = u32>) -> Result<Vec<u64>, String> {
    let ids: Vec<u32> = ids.collect();
    let half = ids.len().div_ceil(2 * BATCH) * BATCH;
    let parts: Vec<Result<Vec<u64>, String>> = thread::scope(|s| {
        let halves: Vec<_> = ids
            .chunks(half.max(1))
            .map(|part| {
                s.spawn(move || {
                    let mut out = Vec::with_capacity(part.len());
                    for chunk in part.chunks(BATCH) {
                        let keys = chunk.iter().map(|&id| key(id)).collect();
                        match state.handle(&Request::EstimateBatch { keys }) {
                            Response::Values(vs) => out.extend(vs),
                            other => return Err(format!("sweep answered {other:?}")),
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        halves
            .into_iter()
            .map(|h| h.join().expect("sweep thread"))
            .collect()
    });
    parts
        .into_iter()
        .try_fold(Vec::with_capacity(ids.len()), |mut all, part| {
            all.extend(part?);
            Ok(all)
        })
}

/// Sends the preload over both connections at once; any refusal aborts
/// the run, since set-up that did not happen cannot be measured.
fn preload(clients: &mut [Client; 2], plan: &Plan) {
    thread::scope(|s| {
        for (c, client) in clients.iter_mut().enumerate() {
            s.spawn(move || {
                for f in plan.preload_frames(c, 2) {
                    if let Err(e) = client.call(&f) {
                        panic!("preload frame refused: {e}");
                    }
                }
            });
        }
    });
}

/// One set-up, from the first bind until both callers are connected and
/// the preload is acknowledged. Returns the replica bootstrap time for
/// the cluster.
fn set_up(plan: &Plan, wal_dir: &Path) -> (Sut, [Client; 2], Option<f64>) {
    match plan.workload {
        Workload::ReadBatch | Workload::PointMixed => {
            let node = spawn(config(plan));
            let mut clients = [0, 1].map(|_| Client::Node(dial(node.addr())));
            preload(&mut clients, plan);
            (Sut::single(node), clients, None)
        }
        Workload::WriteDurable => {
            // The preload is already on disk (see `seed_durable`): set-up
            // is the bind, which recovers it, plus the connections.
            let node = spawn(config(plan).wal_dir(wal_dir));
            let clients = [0, 1].map(|_| Client::Node(dial(node.addr())));
            (Sut::single(node), clients, None)
        }
        Workload::ClusterRepl => {
            let replicas: Vec<ServerHandle> = (0..2).map(|_| spawn(config(plan))).collect();
            let booting = Instant::now();
            let primaries: Vec<ServerHandle> = replicas
                .iter()
                .map(|r| spawn(config(plan).replicate_to(r.addr().to_string())))
                .collect();
            let give_up = booting + IO_TIMEOUT;
            while !primaries
                .iter()
                .all(|p| p.state().replicator().is_some_and(|r| r.connected()))
            {
                assert!(Instant::now() < give_up, "replicas never bootstrapped");
                thread::sleep(Duration::from_millis(1));
            }
            let bootstrap_ms = booting.elapsed().as_secs_f64() * 1e3;
            let nodes = primaries
                .iter()
                .zip(&replicas)
                .map(|(p, r)| NodeSpec::replicated(p.addr().to_string(), r.addr().to_string()))
                .collect();
            let topology =
                ClusterTopology::new(nodes, plan.m, K, HASH_SEED).expect("two-node topology");
            let mut clients = [0, 1].map(|_| {
                Client::Cluster(
                    ClusterClient::connect_with_timeout(topology.clone(), Some(IO_TIMEOUT))
                        .expect("connect to the cluster"),
                )
            });
            preload(&mut clients, plan);
            let sut = Sut {
                primaries,
                replicas,
                topology: Some(topology),
            };
            (sut, clients, Some(bootstrap_ms))
        }
    }
}

/// write_durable's untimed first step: preload a durable node, then shut
/// it down gracefully, so each timed set-up recovers the same state.
fn seed_durable(plan: &Plan, wal_dir: &Path) {
    let node = spawn(config(plan).wal_dir(wal_dir));
    let mut clients = [0, 1].map(|_| Client::Node(dial(node.addr())));
    preload(&mut clients, plan);
    drop(clients);
    node.shutdown_and_join().expect("durable node drains");
}

/// Replaces `to` with a copy of the flat directory `from`, synced to disk
/// so its writeback does not land on the fsyncs timed next.
fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    if to.exists() {
        fs::remove_dir_all(to)?;
    }
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        fs::copy(entry.path(), &dest)?;
        fs::File::open(&dest)?.sync_all()?;
    }
    fs::File::open(to)?.sync_all()
}

/// One caller's record of a timed phase.
#[derive(Default)]
pub struct Log {
    /// Latency of every frame sent, answered or not, by the window it
    /// started in.
    pub lat: Vec<stats::Histogram>,
    pub frames: u64,
    pub keys_sent: u64,
    /// Keys acknowledged (writes) or answered (reads), by window.
    pub keys_ok: Vec<u64>,
    pub keys_failed: u64,
    /// Answers below the preload's truth: one-sided violations.
    pub under_counts: u64,
    pub write_frames: u64,
    pub write_keys: u64,
    /// Times each pool frame was acknowledged, for the final truth.
    pub acks: Vec<u64>,
    pub snapshot_ms: Vec<f64>,
    pub spans: Vec<Span>,
    /// Traced runs only: each frame's cycle, from its start to the next
    /// frame's start, split by whether its window was traced.
    pub cycle_plain: stats::Histogram,
    pub cycle_traced: stats::Histogram,
    pub first_error: Option<String>,
}

struct Pace<'a> {
    epoch: Instant,
    /// Where each window starts, then where the last one ends.
    bounds: &'a [Instant],
    caller: usize,
    traced: bool,
    snapshot_every: u64,
}

fn drive(client: &mut Client, pool: &[Frame], floor: &[u64], floor_mass: u64, pace: Pace) -> Log {
    let windows = pace.bounds.len() - 1;
    let mut log = Log {
        lat: vec![stats::Histogram::default(); windows],
        keys_ok: vec![0; windows],
        acks: vec![0; pool.len()],
        ..Log::default()
    };
    let mut last: Option<(Instant, bool)> = None;
    let mut w = 0;
    for (i, frame) in pool.iter().enumerate().cycle() {
        let t0 = Instant::now();
        if let Some((start, traced)) = last {
            let cycle = (t0 - start).as_nanos() as u64;
            if traced {
                log.cycle_traced.record(cycle);
            } else {
                log.cycle_plain.record(cycle);
            }
        }
        while w < windows && t0 >= pace.bounds[w + 1] {
            w += 1;
        }
        if w == windows {
            break;
        }
        // A traced run alternates untraced and traced stretches, so host
        // drift and a filling filter hit both kinds alike.
        let traced = pace.traced && (log.frames / TRACE_STRETCH) % 2 == 1;
        last = Some((t0, traced));
        let result = client.call(frame);
        let ns = t0.elapsed().as_nanos() as u64;
        log.lat[w].record(ns);
        if traced {
            log.spans.push(Span {
                trace: ((pace.caller as u64 + 1) << 32) | log.frames,
                name: frame.op.name(),
                child: None,
                start_ns: (t0 - pace.epoch).as_nanos() as u64,
                dur_ns: ns,
            });
        }
        log.frames += 1;
        let n = frame.ids.len() as u64;
        log.keys_sent += n;
        if frame.op.is_write() {
            log.write_frames += 1;
            log.write_keys += n;
        }
        let under = |ids: &[u32], vs: &[u64]| {
            ids.iter()
                .zip(vs)
                .filter(|&(&id, &v)| v < floor[id as usize])
                .count() as u64
        };
        match result {
            Ok(Reply::Ack) if frame.op.is_write() => {
                log.acks[i] += 1;
                log.keys_ok[w] += n;
            }
            Ok(Reply::One(v)) if frame.op == Op::Estimate => {
                log.keys_ok[w] += 1;
                log.under_counts += under(&frame.ids, &[v]);
            }
            Ok(Reply::Many(vs)) if frame.op == Op::EstimateBatch && vs.len() == frame.ids.len() => {
                log.keys_ok[w] += n;
                log.under_counts += under(&frame.ids, &vs);
            }
            other => {
                log.keys_failed += n;
                if log.first_error.is_none() {
                    log.first_error = Some(match other {
                        Err(e) => e,
                        Ok(r) => format!("{} answered {r:?}", frame.op.name()),
                    });
                }
            }
        }
        if pace.snapshot_every > 0 && log.frames.is_multiple_of(pace.snapshot_every) {
            if let Client::Cluster(c) = client {
                let t = Instant::now();
                match c.snapshot_union() {
                    Ok(env) => {
                        log.snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        if env.counters.iter().sum::<u64>() < floor_mass {
                            log.under_counts += 1;
                        }
                    }
                    Err(e) => {
                        log.keys_failed += 1;
                        log.first_error.get_or_insert(e.to_string());
                    }
                }
            }
        }
    }
    log
}

/// Both callers' logs from one timed phase.
pub struct Phase {
    pub logs: Vec<Log>,
    /// Each window's length in seconds, and the share of the machine's CPU
    /// time stolen in it (see [`Steal`]).
    pub windows: Vec<(f64, f64)>,
}

impl Phase {
    pub fn sum(&self, f: impl Fn(&Log) -> u64) -> u64 {
        self.logs.iter().map(f).sum()
    }

    /// Every frame's latency.
    pub fn latencies(&self) -> stats::Histogram {
        let mut all = stats::Histogram::default();
        for h in self.logs.iter().flat_map(|l| &l.lat) {
            all.merge(h);
        }
        all
    }

    /// Window `w`, both callers merged.
    fn window(&self, w: usize) -> Window {
        let mut lat = stats::Histogram::default();
        for l in &self.logs {
            lat.merge(&l.lat[w]);
        }
        let (secs, steal) = self.windows[w];
        Window {
            lat,
            keys_ok: self.logs.iter().map(|l| l.keys_ok[w]).sum(),
            secs,
            steal,
        }
    }
}

/// One measured window: the frames both callers started in it.
struct Window {
    lat: stats::Histogram,
    keys_ok: u64,
    secs: f64,
    steal: f64,
}

/// CPU time of the whole machine, as `/proc/stat` counts it in ticks.
///
/// On a virtual machine, stolen time is time a virtual CPU wanted to run
/// while the host ran something else. On a shared host it comes in spells
/// that last minutes and slow every timing together, by up to 2x at a
/// quarter of the CPU time stolen. Where the file cannot be read, every
/// share reads 0.
#[derive(Clone, Copy)]
struct Steal {
    total: u64,
    stolen: u64,
}

impl Steal {
    fn now() -> Self {
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        // cpu  user nice system idle iowait irq softirq steal guest ...
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|t| t.parse().ok())
            .collect();
        Steal {
            total: ticks.iter().sum(),
            stolen: ticks.get(7).copied().unwrap_or(0),
        }
    }

    /// The share of CPU time stolen from `self` to `later`.
    fn share(self, later: Steal) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.stolen.saturating_sub(self.stolen) as f64 / total as f64
    }
}

/// Indexes of the `keep` phases during which the least CPU time was
/// stolen. Phases come `per_segment` to a segment; among equals, the first
/// phase of every segment goes before the second of any, so a quiet run
/// keeps phases from every segment.
fn quietest(steal: &[f64], keep: usize, per_segment: usize) -> Vec<usize> {
    let place = |i: usize| (i % per_segment, i / per_segment);
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(place(a).cmp(&place(b))));
    order.truncate(keep);
    order
}

/// Both callers' closed loops for `seconds`, cut into `windows` windows of
/// equal length. A frame belongs to the window it started in; no frame
/// starts after the last window ends.
fn timed(
    clients: &mut [Client; 2],
    plan: &Plan,
    seconds: f64,
    windows: usize,
    traced: bool,
    epoch: Instant,
) -> Phase {
    let floor_mass = plan.preload.len() as u64;
    let start = Instant::now();
    let step = Duration::from_secs_f64(seconds / windows as f64);
    let bounds: Vec<Instant> = (0..=windows).map(|w| start + step * w as u32).collect();
    let (logs, steal) = thread::scope(|s| {
        let bounds = &bounds;
        let callers: Vec<_> = clients
            .iter_mut()
            .zip(&plan.pools)
            .enumerate()
            .map(|(caller, (client, pool))| {
                let snapshot_every = if plan.workload == Workload::ClusterRepl && caller == 1 {
                    SNAPSHOT_EVERY
                } else {
                    0
                };
                let pace = Pace {
                    epoch,
                    bounds,
                    caller,
                    traced,
                    snapshot_every,
                };
                s.spawn(move || drive(client, pool, &plan.truth, floor_mass, pace))
            })
            .collect();
        // Meanwhile, read the steal counters at every window boundary.
        let mut steal = vec![Steal::now()];
        for &b in &bounds[1..] {
            thread::sleep(b.saturating_duration_since(Instant::now()));
            steal.push(Steal::now());
        }
        let logs: Vec<Log> = callers
            .into_iter()
            .map(|h| h.join().expect("caller thread"))
            .collect();
        (logs, steal)
    });
    Phase {
        logs,
        windows: bounds
            .windows(2)
            .zip(steal.windows(2))
            .map(|(b, s)| ((b[1] - b[0]).as_secs_f64(), s[0].share(s[1])))
            .collect(),
    }
}

/// Attempts, failures and violations, accumulated over the whole run.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

impl Checks {
    /// One-sidedness over a sweep: every id's estimate must be ≥ its truth.
    fn sweep(&mut self, what: &str, est: Result<Vec<u64>, String>, truth: &[u64], ids: &[u32]) {
        self.attempted += ids.len() as u64;
        let est = match est {
            Ok(est) if est.len() == ids.len() => est,
            Ok(est) => {
                self.failed += ids.len() as u64;
                self.violations.push(format!(
                    "{what}: {} answers for {} ids",
                    est.len(),
                    ids.len()
                ));
                return;
            }
            Err(e) => {
                self.failed += ids.len() as u64;
                self.violations.push(format!("{what}: {e}"));
                return;
            }
        };
        let under: Vec<(u32, u64)> = ids
            .iter()
            .zip(&est)
            .filter(|&(&id, &v)| v < truth[id as usize])
            .map(|(&id, &v)| (id, v))
            .collect();
        if let Some(&(id, v)) = under.first() {
            self.failed += under.len() as u64;
            self.violations.push(format!(
                "{what}: {} ids under-counted, first id {id}: estimate {v} < truth {}",
                under.len(),
                truth[id as usize]
            ));
        }
    }

    fn phase(&mut self, p: &Phase) {
        self.attempted += p.sum(|l| l.keys_sent);
        self.failed += p.sum(|l| l.keys_failed + l.under_counts);
        for l in &p.logs {
            if l.under_counts > 0 {
                self.violations.push(format!(
                    "{} answers below the preload's truth",
                    l.under_counts
                ));
            }
            if let Some(e) = &l.first_error {
                self.violations.push(format!("timed frame failed: {e}"));
            }
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn say(m: &Metric, note: &str) {
    println!("  {:<30} {:>14.4} {:<8} {note}", m.name, m.value, m.unit);
}

/// Runs one workload and returns its outcome; the metrics are the
/// end-to-end set untraced, the per-layer set traced.
pub fn run(opts: &Options) -> Outcome {
    // As `sbf serve` does: the daemon always runs with telemetry on.
    sbf_telemetry::set_enabled(true);
    let epoch = Instant::now();
    let plan = Plan::build(opts.workload, opts.seed);
    let work = scratch_root().join(format!("{}-{}", opts.workload.name(), std::process::id()));
    let _ = fs::remove_dir_all(&work);
    fs::create_dir_all(&work).expect("create the run's work directory");
    let wal_dir = work.join("wal");
    let mut checks = Checks::default();
    let mut layers = Layers::default();
    println!(
        "sbfbench {} seed={} seconds={} trace={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );

    let seed_dir = work.join("seed");
    if opts.workload == Workload::WriteDurable {
        seed_durable(&plan, &seed_dir);
    }
    // Untraced, every set-up is followed by an equal share of the timed
    // work: a run's nodes, threads and buffers are made afresh for each, so
    // one unlucky placement moves one segment, not the run. Each segment is
    // cut into short windows, and the timings come from the quietest quarter
    // of them (see `end_to_end`). Traced, the whole timed phase follows the
    // last set-up, so registry differences cover it alone.
    let all_ids: Vec<u32> = (0..plan.universe).collect();
    let mut setups = Vec::new();
    let mut bootstrap_ms = Vec::new();
    let mut accuracy = AccuracyMetrics::default();
    let mut windows = Vec::new();
    let mut last = None;
    let mut rss_mb = 0.0;
    let mut live = None;
    for rep in 0..SETUP_REPS {
        if let Some((sut, clients)) = live.take() {
            drop::<[Client; 2]>(clients);
            Sut::shut_down(sut);
        }
        if opts.workload == Workload::WriteDurable {
            // Untimed: each set-up recovers the seeded state, not the state
            // the previous segment left.
            copy_dir(&seed_dir, &wal_dir).expect("copy the seeded WAL directory");
        }
        let steal = Steal::now();
        let t = Instant::now();
        let (sut, mut clients, boot) = set_up(&plan, &wal_dir);
        setups.push((t.elapsed().as_secs_f64(), steal.share(Steal::now())));
        bootstrap_ms.extend(boot);

        if rep == 0 {
            // Accuracy of the state set-up leaves, against the preload's
            // truth; every set-up leaves the same state.
            let est = sut.sweep(plan.universe);
            if let Ok(e) = &est {
                if e.len() == plan.truth.len() {
                    accuracy = AccuracyMetrics::from_estimates(e, &plan.truth);
                }
            }
            checks.sweep("post-set-up sweep", est, &plan.truth, &all_ids);
        }
        if opts.trace && rep + 1 < SETUP_REPS {
            live = Some((sut, clients));
            continue;
        }
        let before = sbf_telemetry::global().snapshot();
        let phase = if opts.trace {
            timed(&mut clients, &plan, opts.seconds, 1, true, epoch)
        } else {
            let seconds = opts.seconds / SETUP_REPS as f64;
            timed(&mut clients, &plan, seconds, WINDOWS + 1, false, epoch)
        };
        checks.phase(&phase);
        if opts.trace {
            // Traced and untraced stretches alternate; the ratio of their
            // median frame cycles is the tracing overhead.
            let after = sbf_telemetry::global().snapshot();
            let (mut plain, mut spanned) =
                (stats::Histogram::default(), stats::Histogram::default());
            for l in &phase.logs {
                plain.merge(&l.cycle_plain);
                spanned.merge(&l.cycle_traced);
            }
            let p50 = |h: &stats::Histogram| h.percentile(1, 2) as f64;
            layers.set("trace.overhead_frac", p50(&spanned) / p50(&plain) - 1.0);
            trace::registry_layers(&mut layers, &before, &after, &phase, &plan);
        } else {
            // Window 0 warms up: cold caches and what set-up left behind
            // land in it.
            windows.extend((1..=WINDOWS).map(|w| phase.window(w)));
            if rep == 0 {
                // Later set-ups reuse memory the earlier ones freed, in an
                // order thread scheduling decides, so the peak is taken
                // before any set-up has been torn down.
                rss_mb = peak_rss_mib();
            }
        }
        last = Some(phase);
        live = Some((sut, clients));
    }
    let (sut, clients) = live.expect("at least one set-up");
    let last = last.expect("a timed phase after the last set-up");
    if !bootstrap_ms.is_empty() {
        layers.set("repl.bootstrap_ms", stats::median(&bootstrap_ms));
    }

    // The live nodes hold the preload plus what the last phase acked.
    let mut truth = plan.truth.clone();
    for (log, pool) in last.logs.iter().zip(&plan.pools) {
        for (frame, &acks) in pool.iter().zip(&log.acks) {
            tally(&mut truth, &frame.ids, acks);
        }
    }
    let snapshot_ms: Vec<f64> = last
        .logs
        .iter()
        .flat_map(|l| l.snapshot_ms.iter().copied())
        .collect();

    // Every acknowledged insert must be visible.
    checks.sweep("final sweep", sut.sweep(plan.universe), &truth, &all_ids);

    if opts.trace {
        if !snapshot_ms.is_empty() {
            layers.set("cluster.snapshot_union_ms", stats::median(&snapshot_ms));
        }
        let mut stats_client = dial(sut.primaries[0].addr());
        let text = stats_client.stats().unwrap_or_default();
        drop(stats_client);
        trace::occupancy(&mut layers, &text);
        trace::wire_probes(&mut layers, &sut.primaries[0].state().snapshot_envelope());
    }

    drop(clients);
    match plan.workload {
        Workload::WriteDurable => {
            // Crash, recover, and sweep again: acked ⊆ recovered.
            let Sut { primaries, .. } = sut;
            for node in primaries {
                node.crash_and_join().expect("crashed node stops");
            }
            let t = Instant::now();
            let server = SbfServer::bind(config(&plan).wal_dir(&wal_dir).build().expect("config"))
                .expect("recover the crashed node");
            layers.set("recovery.replay_s", t.elapsed().as_secs_f64());
            let replayed = server.recovery_report().map_or(0, |r| r.records_replayed);
            layers.set("recovery.replayed_records", replayed as f64);
            let state = server.state();
            let est = sweep_state(&state, 0..plan.universe);
            checks.sweep("sweep after crash recovery", est, &truth, &all_ids);
            if let (true, Some(wal)) = (opts.trace, state.wal()) {
                let t = Instant::now();
                wal.checkpoint(|| state.snapshot_envelope())
                    .expect("checkpoint probe");
                layers.set("wal.checkpoint_ms", t.elapsed().as_secs_f64() * 1e3);
            }
        }
        Workload::ClusterRepl => {
            // Each replica alone must cover its primary's acknowledged keys,
            // and the union snapshot must hold every acknowledged insert.
            let topology = sut.topology.clone().expect("cluster topology");
            for (node, replica) in sut.replicas.iter().enumerate() {
                let owned: Vec<u32> = all_ids
                    .iter()
                    .copied()
                    .filter(|&id| topology.node_of(key(id).as_slice()) == node)
                    .collect();
                let est = sweep_state(&replica.state(), owned.iter().copied());
                checks.sweep(&format!("replica {node} sweep"), est, &truth, &owned);
            }
            let acked: u64 = truth.iter().sum();
            let mass = sut
                .cluster_client()
                .expect("cluster")
                .and_then(|mut c| c.snapshot_union().map_err(|e| e.to_string()))
                .map(|env| env.counters.iter().sum::<u64>());
            checks.attempted += 1;
            match mass {
                Ok(mass) if mass >= acked => {}
                other => {
                    checks.failed += 1;
                    checks.violations.push(format!(
                        "snapshot_union mass {other:?} below {acked} acked inserts"
                    ));
                }
            }
            sut.shut_down();
        }
        Workload::ReadBatch | Workload::PointMixed => sut.shut_down(),
    }

    let metrics = if opts.trace {
        let mut spans: Vec<Span> = last.logs.into_iter().flat_map(|l| l.spans).collect();
        trace::ladder(&plan, &work, &mut layers, &mut spans);
        let path = scratch_root().join("trace").join(format!(
            "{}-{}.jsonl",
            opts.workload.name(),
            opts.seed
        ));
        match trace::write_spans(&path, &spans) {
            Ok(()) => println!("  {} spans written to {}", spans.len(), path.display()),
            Err(e) => println!("  spans not written: {e}"),
        }
        let metrics: Vec<Metric> = trace::LAYER_METRICS
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: layers.get(name),
                unit,
            })
            .collect();
        for m in &metrics {
            say(m, "");
        }
        metrics
    } else {
        end_to_end(&setups, &windows, &accuracy, rss_mb)
    };
    let _ = fs::remove_dir_all(&work);
    Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        violations: checks.violations,
        metrics,
    }
}

/// The metrics a user of sbfd sees, from the untraced timed windows.
///
/// Timings come from the quietest quarter of the windows, and `setup_s`
/// from the quieter half of the set-ups: those during which the least CPU
/// time was stolen (see [`Steal`]). Stolen time slows every timing of a
/// window at once, whatever the program does, while a slower program is
/// slower in every window; so the quiet windows keep what the program
/// costs and drop most of what the host's other guests cost.
fn end_to_end(
    setups: &[(f64, f64)],
    windows: &[Window],
    accuracy: &AccuracyMetrics,
    rss_mb: f64,
) -> Vec<Metric> {
    let steal: Vec<f64> = setups.iter().map(|&(_, s)| s).collect();
    let setup_s: Vec<f64> = quietest(&steal, steal.len().div_ceil(2), 1)
        .iter()
        .map(|&i| setups[i].0)
        .collect();
    let steal: Vec<f64> = windows.iter().map(|w| w.steal).collect();
    let kept = quietest(&steal, steal.len().div_ceil(4), WINDOWS);
    let us = |h: &stats::Histogram, num, den| h.percentile(num, den) as f64 / 1e3;
    let mut lat = stats::Histogram::default();
    let (mut keys_ok, mut secs) = (0, 0.0);
    for &i in &kept {
        lat.merge(&windows[i].lat);
        keys_ok += windows[i].keys_ok;
        secs += windows[i].secs;
    }
    let frames = lat.count();
    let metric = |name, value, unit| Metric { name, value, unit };
    let timed = format!(
        "n={frames} frames in the {} of {} windows with the least steal, {secs:.3} s",
        kept.len(),
        windows.len()
    );
    let lines = [
        (
            metric("setup_s", stats::median(&setup_s), "s"),
            format!(
                "median of the {} of {} set-ups with the least steal",
                setup_s.len(),
                setups.len()
            ),
        ),
        (
            metric("throughput_kps", keys_ok as f64 / secs / 1e3, "kkeys/s"),
            timed.clone(),
        ),
        (metric("frame_p50_us", us(&lat, 1, 2), "us"), timed),
        (
            metric("e_add", accuracy.additive_error, "count"),
            "post-set-up sweep".into(),
        ),
        (
            metric("error_ratio", accuracy.error_ratio, "ratio"),
            "post-set-up sweep".into(),
        ),
        (
            metric("rss_mb", rss_mb, "MiB"),
            "peak, whole process, through the first segment".into(),
        ),
    ];
    for (m, note) in &lines {
        say(m, note);
    }
    // Tails are printed, not gated: stolen time reaches them first, and
    // moved p90 by up to 2.8x between runs of one commit.
    println!("  frame p90 = {:.1} us (not gated)", us(&lat, 9, 10));
    if let Some((label, num, den, beyond)) = stats::tail(frames) {
        println!(
            "  frame {label} = {:.1} us: the highest percentile with at least 10 of the {frames} \
             kept frames beyond it ({beyond}); not gated",
            us(&lat, num, den)
        );
    }
    for (i, w) in windows.iter().enumerate() {
        println!(
            "  window {:>2}.{:<2} steal {:.3} {:>9.1} kkeys/s  p50 {:>9.1} us  p90 {:>9.1} us{}",
            i / WINDOWS + 1,
            i % WINDOWS + 1,
            w.steal,
            w.keys_ok as f64 / w.secs / 1e3,
            us(&w.lat, 1, 2),
            us(&w.lat, 9, 10),
            if kept.contains(&i) { "  kept" } else { "" }
        );
    }
    lines.into_iter().map(|(m, _)| m).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quietest_keeps_least_stolen_and_spreads_ties_over_segments() {
        // Two segments of three windows each.
        let steal = [0.0, 0.0, 0.3, 0.0, 0.2, 0.0];
        assert_eq!(quietest(&steal, 2, 3), [0, 3]);
        assert_eq!(quietest(&steal, 4, 3), [0, 3, 1, 5]);
        assert_eq!(quietest(&steal, 5, 3), [0, 3, 1, 5, 4]);
        // One phase per segment: equals keep their order.
        assert_eq!(quietest(&[0.1, 0.0, 0.1, 0.0, 0.3], 3, 1), [1, 3, 0]);
    }

    #[test]
    fn steal_share_is_stolen_over_all_ticks() {
        let a = Steal {
            total: 1000,
            stolen: 10,
        };
        let b = Steal {
            total: 1200,
            stolen: 60,
        };
        assert_eq!(a.share(b), 0.25);
        // No ticks passed, or a counter that cannot be read: nothing stolen.
        assert_eq!(a.share(a), 0.0);
        let unread = Steal {
            total: 0,
            stolen: 0,
        };
        assert_eq!(unread.share(unread), 0.0);
    }
}

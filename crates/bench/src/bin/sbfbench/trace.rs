//! The traced run's per-layer numbers.
//!
//! Three sources, all measured from outside the program by calling each
//! layer's public functions:
//!
//! * counts the program already exports to its telemetry registry, taken
//!   as differences around the timed phase;
//! * a ladder: a fixed 512-frame sample of the workload replayed through
//!   public entry points, innermost first (hash, sketch, dispatch, proto,
//!   reactor, then wal, repl or cluster where the workload has them). Each
//!   rung's span takes the frame number as its trace id and names the
//!   next-inner rung as its child, so a layer's self time is its rung
//!   minus the rung inside it;
//! * direct probes of checkpoint, snapshot and envelope costs on the
//!   workload's geometry.
//!
//! A layer a workload never reaches reads 0, so every traced run prints
//! every name.

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::io::{self, Write};
use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

use sbf_db::wire::FilterEnvelope;
use sbf_hash::IndexBuf;
use sbf_server::{
    ClusterClient, ClusterTopology, NodeSpec, Request, Response, SbfClient, SbfServer,
};
use sbf_telemetry::{HistogramSnapshot, SampleValue, Snapshot};
use spectral_bloom::{MsSbf, ShardedSketch};

use crate::alloc;
use crate::inputs::{Frame, Op, Plan, Workload};
use crate::json::Json;
use crate::run::{config, dial, spawn, Phase, HASH_SEED, K, SHARDS};
use crate::stats;

/// Every per-layer metric, with its unit, in output order.
pub const LAYER_METRICS: [(&str, &str); 40] = [
    ("trace.overhead_frac", "frac"),
    ("hash.ns_per_key", "ns"),
    ("sketch.estimate_ns_per_key", "ns"),
    ("sketch.insert_ns_per_key", "ns"),
    ("sketch.occupancy", "ratio"),
    ("sketch.snapshot_ms", "ms"),
    ("sketch.snapshot_rebuilds", "count"),
    ("dispatch.estimate_ns_per_key", "ns"),
    ("dispatch.insert_ns_per_key", "ns"),
    ("dispatch.point_ns_per_op", "ns"),
    ("telemetry.ns_per_request", "ns"),
    ("proto.decode_ns_per_key", "ns"),
    ("proto.encode_ns_per_key", "ns"),
    ("proto.allocs_per_frame", "count"),
    ("proto.req_bytes_per_key", "B"),
    ("proto.resp_bytes_per_key", "B"),
    ("reactor.us_per_frame", "us"),
    ("reactor.wait_us_per_frame", "us"),
    ("reactor.frames_per_job", "count"),
    ("reactor.backpressure_stalls", "count"),
    ("wal.append_us_per_frame", "us"),
    ("wal.fsync_mean_us", "us"),
    ("wal.fsync_p99_us", "us"),
    ("wal.appends_per_frame", "count"),
    ("wal.bytes_per_key", "B"),
    ("wal.checkpoint_ms", "ms"),
    ("wal.stall_max_ms", "ms"),
    ("recovery.replay_s", "s"),
    ("recovery.replayed_records", "count"),
    ("repl.ship_us_per_frame", "us"),
    ("repl.shipped_per_frame", "count"),
    ("repl.resyncs", "count"),
    ("repl.bootstrap_ms", "ms"),
    ("cluster.scatter_us_per_batch", "us"),
    ("cluster.fanout_nodes_mean", "count"),
    ("cluster.failovers", "count"),
    ("cluster.snapshot_union_ms", "ms"),
    ("wire.envelope_bytes", "B"),
    ("wire.encode_ms", "ms"),
    ("wire.decode_ms", "ms"),
];

/// Frames the ladder replays.
const SAMPLE: usize = 512;

/// The per-layer values measured so far; unmeasured names read 0.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(LAYER_METRICS.iter().any(|&(n, _)| n == name), "{name}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// One timed call: `trace` groups the spans of one frame, `child` names
/// the ladder rung this one wraps.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub trace: u64,
    pub name: &'static str,
    pub child: Option<&'static str>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Writes `spans` as JSON lines. Spans stay in memory until the run ends.
pub fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(fs::File::create(path)?);
    for s in spans {
        let line = Json::Obj(vec![
            ("trace".into(), Json::Num(s.trace as f64)),
            ("span".into(), Json::Str(s.name.into())),
            (
                "child".into(),
                s.child.map_or(Json::Null, |p| Json::Str(p.into())),
            ),
            ("start_ns".into(), Json::Num(s.start_ns as f64)),
            ("dur_ns".into(), Json::Num(s.dur_ns as f64)),
        ]);
        writeln!(out, "{}", line.render())?;
    }
    out.flush()
}

fn counter(s: &Snapshot, name: &str) -> f64 {
    s.counter_value(name).unwrap_or(0) as f64
}

fn histogram(s: &Snapshot, name: &str) -> HistogramSnapshot {
    match s.get(name) {
        Some(SampleValue::Histogram(h)) => h.clone(),
        _ => HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: vec![(f64::INFINITY, 0)],
        },
    }
}

/// The observations `after` holds beyond `before`, as a histogram.
fn histogram_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    let cum_at = |h: &HistogramSnapshot, bound: f64| {
        h.buckets
            .iter()
            .take_while(|&&(b, _)| b <= bound)
            .last()
            .map_or(0, |&(_, c)| c)
    };
    HistogramSnapshot {
        count: after.count - before.count,
        sum: after.sum - before.sum,
        buckets: after
            .buckets
            .iter()
            .map(|&(b, c)| (b, c - cum_at(before, b).min(c)))
            .collect(),
    }
}

/// Counts and times the program recorded during a traced run's timed phase.
pub fn registry_layers(
    l: &mut Layers,
    before: &Snapshot,
    after: &Snapshot,
    p: &Phase,
    plan: &Plan,
) {
    let d = |name: &str| counter(after, name) - counter(before, name);
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let batches = d("sbfd_pipeline_batches_total");
    l.set(
        "reactor.frames_per_job",
        if batches > 0.0 {
            d("sbfd_pipeline_frames_total") / batches
        } else {
            0.0
        },
    );
    l.set(
        "reactor.backpressure_stalls",
        d("sbfd_backpressure_stalls_total"),
    );
    l.set(
        "sketch.snapshot_rebuilds",
        d("sbf_sharded_snapshot_rebuilds_total"),
    );

    let write_frames = p.sum(|log| log.write_frames);
    let write_keys = p.sum(|log| log.write_keys);
    let fsync = histogram_delta(
        &histogram(before, "sbfd_wal_fsync_ns"),
        &histogram(after, "sbfd_wal_fsync_ns"),
    );
    if fsync.count > 0 {
        l.set(
            "wal.fsync_mean_us",
            fsync.sum as f64 / fsync.count as f64 / 1e3,
        );
        l.set(
            "wal.fsync_p99_us",
            fsync.quantile(0.99).unwrap_or(0.0) / 1e3,
        );
        l.set(
            "wal.appends_per_frame",
            per(d("sbfd_wal_appends_total"), write_frames),
        );
        l.set(
            "wal.bytes_per_key",
            per(d("sbfd_wal_bytes_total"), write_keys),
        );
        let max_ns = p.latencies().max();
        l.set("wal.stall_max_ms", max_ns as f64 / 1e6);
    }
    if plan.workload == Workload::ClusterRepl {
        l.set(
            "repl.shipped_per_frame",
            per(d("sbfd_repl_shipped_total"), write_frames),
        );
        l.set("repl.resyncs", d("sbfd_repl_resyncs_total"));
        let fan = histogram_delta(
            &histogram(before, "sbfd_cluster_fanout_nodes"),
            &histogram(after, "sbfd_cluster_fanout_nodes"),
        );
        l.set("cluster.fanout_nodes_mean", per(fan.sum as f64, fan.count));
        l.set("cluster.failovers", d("sbfd_cluster_failovers_total"));
    }
}

/// Mean shard occupancy from a STATS exposition.
pub fn occupancy(l: &mut Layers, exposition: &str) {
    let occ: Vec<f64> = exposition
        .lines()
        .filter(|line| line.starts_with("sbf_shard_occupancy_ratio{"))
        .filter_map(|line| line.rsplit(' ').next()?.parse().ok())
        .collect();
    if !occ.is_empty() {
        l.set(
            "sketch.occupancy",
            occ.iter().sum::<f64>() / occ.len() as f64,
        );
    }
}

/// Envelope size and its encode/decode cost, for the node's own snapshot.
pub fn wire_probes(l: &mut Layers, envelope: &[u8]) {
    l.set("wire.envelope_bytes", envelope.len() as f64);
    let mut decode = Vec::new();
    let mut encode = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let env = FilterEnvelope::decode(black_box(envelope)).expect("own snapshot decodes");
        decode.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        black_box(env.encode());
        encode.push(t.elapsed().as_secs_f64() * 1e3);
    }
    l.set("wire.decode_ms", stats::median(&decode));
    l.set("wire.encode_ms", stats::median(&encode));
}

/// One rung's timings over the sample.
struct Timing {
    /// Each frame's median duration over the passes.
    ns: Vec<u64>,
    /// Each frame's start, in the last pass.
    starts: Vec<u64>,
    /// Mean frame duration over every pass.
    mean_ns: f64,
}

/// Times `f(i)` for every sample frame, `reps` passes over. One clock
/// read separates consecutive frames, so the durations of a pass sum to
/// the whole pass.
fn rung(reps: usize, n: usize, epoch: Instant, mut f: impl FnMut(usize)) -> Timing {
    let mut per: Vec<Vec<u64>> = vec![Vec::with_capacity(reps); n];
    let mut starts = vec![0; n];
    let mut total = 0u64;
    for _ in 0..reps {
        let mut last = Instant::now();
        for (i, frame_ns) in per.iter_mut().enumerate() {
            f(i);
            let now = Instant::now();
            let ns = (now - last).as_nanos() as u64;
            frame_ns.push(ns);
            total += ns;
            starts[i] = (last - epoch).as_nanos() as u64;
            last = now;
        }
    }
    let ns = per
        .into_iter()
        .map(|mut v| {
            v.sort_unstable();
            v[v.len() / 2]
        })
        .collect();
    Timing {
        ns,
        starts,
        mean_ns: total as f64 / (reps * n) as f64,
    }
}

/// Per-frame durations of one rung, kept for self times and spans.
struct Rung {
    name: &'static str,
    child: Option<&'static str>,
    ns: Vec<u64>,
    starts: Vec<u64>,
}

/// Replays the sample through every rung the workload has and records
/// each layer's self time.
pub fn ladder(plan: &Plan, work: &Path, l: &mut Layers, spans: &mut Vec<Span>) {
    let frames: Vec<&Frame> = (0..SAMPLE)
        .map(|i| {
            let pool = &plan.pools[i % 2];
            &pool[(i / 2) % pool.len()]
        })
        .collect();
    let reqs: Vec<Request> = frames.iter().map(|f| f.request()).collect();
    let n = frames.len();
    // Point frames take tens of nanoseconds in process: more passes.
    let reps = if frames[0].op.is_batch() { 5 } else { 9 };
    let epoch = Instant::now();
    let mut rungs: Vec<Rung> = Vec::new();
    let add = |rungs: &mut Vec<Rung>, name, child, t: Timing| {
        rungs.push(Rung {
            name,
            child,
            ns: t.ns,
            starts: t.starts,
        });
    };

    // The clock itself, subtracted from the innermost rung.
    let clock = rung(reps, n, epoch, |i| {
        black_box(i);
    })
    .ns;

    {
        let probe = MsSbf::new(plan.m, K, HASH_SEED);
        let core = probe.core();
        let mut buf = IndexBuf::new();
        add(
            &mut rungs,
            "hash",
            None,
            rung(reps, n, epoch, |i| {
                for key in &frames[i].keys {
                    core.key_indexes_into(key.as_slice(), &mut buf);
                    black_box(&buf);
                }
            }),
        );
    }
    {
        let sketch = ShardedSketch::with_shards(SHARDS, |_| MsSbf::new(plan.m, K, HASH_SEED));
        let mut out = Vec::new();
        add(
            &mut rungs,
            "sketch",
            Some("hash"),
            rung(reps, n, epoch, |i| {
                let f = frames[i];
                match f.op {
                    Op::InsertBatch => sketch.insert_batch(&f.keys),
                    Op::EstimateBatch => {
                        sketch.estimate_batch_into(&f.keys, &mut out);
                        black_box(&out);
                    }
                    Op::Insert => sketch.insert_by(f.keys[0].as_slice(), 1),
                    Op::Estimate => {
                        black_box(sketch.estimate(f.keys[0].as_slice()));
                    }
                }
            }),
        );
        let mut snap = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            black_box(sketch.snapshot());
            snap.push(t.elapsed().as_secs_f64() * 1e3);
        }
        l.set("sketch.snapshot_ms", stats::median(&snap));
    }
    {
        // Dispatch on a bound server that never serves a socket.
        let server = SbfServer::bind(config(plan).build().expect("config")).expect("bind");
        let state = server.state();
        add(
            &mut rungs,
            "dispatch",
            Some("sketch"),
            rung(reps, n, epoch, |i| {
                black_box(state.handle(&reqs[i]));
            }),
        );
        // Telemetry on against off, alternating passes so drift hits both.
        let (mut loud, mut quiet) = (Vec::new(), Vec::new());
        for pass in 0..2 * reps {
            sbf_telemetry::set_enabled(pass % 2 == 0);
            let t = rung(1, n, epoch, |i| {
                black_box(state.handle(&reqs[i]));
            });
            if pass % 2 == 0 { &mut loud } else { &mut quiet }.push(t.mean_ns);
        }
        sbf_telemetry::set_enabled(true);
        l.set(
            "telemetry.ns_per_request",
            stats::median(&loud) - stats::median(&quiet),
        );
        add(
            &mut rungs,
            "proto",
            Some("dispatch"),
            rung(reps, n, epoch, |i| {
                let bytes = reqs[i].encode().expect("encode request");
                let req = Request::decode(bytes[4], &bytes[5..]).expect("decode request");
                let resp = state.handle(&req).encode().expect("encode response");
                black_box(Response::decode(resp[4], &resp[5..]).expect("decode response"));
            }),
        );
        proto_parts(l, &reqs, &state, reps);
    }
    {
        let node = spawn(config(plan));
        let mut client = dial(node.addr());
        let before = sbf_telemetry::global().snapshot();
        let t = over_socket(reps, n, epoch, &mut client, &reqs);
        let after = sbf_telemetry::global().snapshot();
        let served = histogram_delta(
            &histogram(&before, "sbfd_request_latency_ns"),
            &histogram(&after, "sbfd_request_latency_ns"),
        );
        // The registry saw every pass, so compare with every pass's mean.
        let in_server = served.sum as f64 / served.count.max(1) as f64;
        l.set("reactor.wait_us_per_frame", (t.mean_ns - in_server) / 1e3);
        add(&mut rungs, "reactor", Some("proto"), t);
        drop(client);
        node.shutdown_and_join().expect("ladder node drains");
    }
    match plan.workload {
        Workload::WriteDurable => {
            let dir = work.join("ladder-wal");
            let node = spawn(config(plan).wal_dir(&dir));
            let mut client = dial(node.addr());
            add(
                &mut rungs,
                "wal",
                Some("reactor"),
                over_socket(reps, n, epoch, &mut client, &reqs),
            );
            drop(client);
            node.crash_and_join().expect("ladder node stops");
            let _ = fs::remove_dir_all(&dir);
        }
        Workload::ClusterRepl => {
            let replica = spawn(config(plan));
            let primary = spawn(config(plan).replicate_to(replica.addr().to_string()));
            let give_up = Instant::now() + Duration::from_secs(30);
            while !primary.state().replicator().is_some_and(|r| r.connected()) {
                assert!(
                    Instant::now() < give_up,
                    "ladder replica never bootstrapped"
                );
                thread::sleep(Duration::from_millis(1));
            }
            let mut client = dial(primary.addr());
            add(
                &mut rungs,
                "repl",
                Some("reactor"),
                over_socket(reps, n, epoch, &mut client, &reqs),
            );
            drop(client);
            primary.shutdown_and_join().expect("ladder primary drains");
            replica.shutdown_and_join().expect("ladder replica drains");

            let nodes = [spawn(config(plan)), spawn(config(plan))];
            let topology = ClusterTopology::new(
                nodes
                    .iter()
                    .map(|h| NodeSpec::solo(h.addr().to_string()))
                    .collect(),
                plan.m,
                K,
                HASH_SEED,
            )
            .expect("topology");
            let mut cluster = ClusterClient::connect(topology).expect("connect cluster");
            add(
                &mut rungs,
                "cluster",
                Some("reactor"),
                rung(reps, n, epoch, |i| {
                    let f = frames[i];
                    match f.op {
                        Op::InsertBatch => cluster.insert_batch(&f.keys).expect("insert_batch"),
                        Op::EstimateBatch => {
                            black_box(cluster.estimate_batch(&f.keys).expect("estimate_batch"));
                        }
                        Op::Insert => cluster.insert(&f.keys[0], 1).expect("insert"),
                        Op::Estimate => {
                            black_box(cluster.estimate(&f.keys[0]).expect("estimate"));
                        }
                    }
                }),
            );
            drop(cluster);
            for node in nodes {
                node.shutdown_and_join().expect("ladder node drains");
            }
        }
        Workload::ReadBatch | Workload::PointMixed => {}
    }

    // Self times: each rung minus the rung it wraps.
    let find = |name: &str| rungs.iter().find(|r| r.name == name);
    let self_ns = |name: &str, i: usize| -> f64 {
        let r = find(name).expect("rung ran");
        let inner = match r.child {
            Some(c) => find(c).expect("child rung ran").ns[i],
            None => clock[i],
        };
        r.ns[i] as f64 - inner as f64
    };
    let total = |name: &str, i: usize| find(name).map_or(0.0, |r| r.ns[i] as f64 - clock[i] as f64);
    let mean = |keep: &dyn Fn(&Frame) -> bool, f: &dyn Fn(usize) -> f64, per_key: bool| {
        let (mut sum, mut count) = (0.0, 0usize);
        for (i, frame) in frames.iter().enumerate().filter(|(_, f)| keep(f)) {
            sum += f(i);
            count += if per_key { frame.keys.len() } else { 1 };
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    };
    let all = |_: &Frame| true;
    let reads = |f: &Frame| !f.op.is_write();
    let writes = |f: &Frame| f.op.is_write();
    let batch_reads = |f: &Frame| f.op == Op::EstimateBatch;
    let batch_writes = |f: &Frame| f.op == Op::InsertBatch;
    let points = |f: &Frame| !f.op.is_batch();

    l.set("hash.ns_per_key", mean(&all, &|i| self_ns("hash", i), true));
    // The sketch rung reports its whole cost (less the clock): the batched
    // path fuses hashing into the counter probes, so its self time would
    // understate it.
    l.set(
        "sketch.estimate_ns_per_key",
        mean(&reads, &|i| total("sketch", i), true),
    );
    l.set(
        "sketch.insert_ns_per_key",
        mean(&writes, &|i| total("sketch", i), true),
    );
    l.set(
        "dispatch.estimate_ns_per_key",
        mean(&batch_reads, &|i| self_ns("dispatch", i), true),
    );
    l.set(
        "dispatch.insert_ns_per_key",
        mean(&batch_writes, &|i| self_ns("dispatch", i), true),
    );
    l.set(
        "dispatch.point_ns_per_op",
        mean(&points, &|i| self_ns("dispatch", i), false),
    );
    let us = |name: &'static str| move |i: usize| self_ns(name, i) / 1e3;
    l.set("reactor.us_per_frame", mean(&all, &us("reactor"), false));
    for (rung, metric) in [
        ("wal", "wal.append_us_per_frame"),
        ("repl", "repl.ship_us_per_frame"),
        ("cluster", "cluster.scatter_us_per_batch"),
    ] {
        if find(rung).is_some() {
            l.set(metric, mean(&all, &us(rung), false));
        }
    }

    for r in &rungs {
        for (i, (&dur_ns, &start_ns)) in r.ns.iter().zip(&r.starts).enumerate() {
            spans.push(Span {
                trace: (1 << 48) | i as u64,
                name: r.name,
                child: r.child,
                start_ns,
                dur_ns,
            });
        }
    }
}

/// The reactor-and-up rungs: the sample's requests over one connection.
fn over_socket(
    reps: usize,
    n: usize,
    epoch: Instant,
    client: &mut SbfClient,
    reqs: &[Request],
) -> Timing {
    rung(reps, n, epoch, |i| {
        black_box(client.roundtrip(&reqs[i]).expect("ladder frame answered"));
    })
}

/// Encode and decode costs, bytes on the wire, and the exact number of
/// allocations one request decode makes.
fn proto_parts(l: &mut Layers, reqs: &[Request], state: &sbf_server::SharedState, reps: usize) {
    let keys: usize = reqs
        .iter()
        .map(|r| match r {
            Request::InsertBatch { keys } | Request::EstimateBatch { keys } => keys.len(),
            _ => 1,
        })
        .sum();
    let wire: Vec<Vec<u8>> = reqs.iter().map(|r| r.encode().expect("encode")).collect();
    let resps: Vec<Response> = reqs.iter().map(|r| state.handle(r)).collect();
    let resp_wire: Vec<Vec<u8>> = resps.iter().map(|r| r.encode().expect("encode")).collect();
    let size = |v: &[Vec<u8>]| v.iter().map(Vec::len).sum::<usize>() as f64 / keys as f64;
    l.set("proto.req_bytes_per_key", size(&wire));
    l.set("proto.resp_bytes_per_key", size(&resp_wire));

    let pass = |f: &mut dyn FnMut()| {
        let mut t = Vec::new();
        for _ in 0..reps {
            let s = Instant::now();
            f();
            t.push(s.elapsed().as_nanos() as f64);
        }
        stats::median(&t)
    };
    let encode = pass(&mut || {
        for r in reqs {
            black_box(r.encode().expect("encode"));
        }
    }) + pass(&mut || {
        for r in &resps {
            black_box(r.encode().expect("encode"));
        }
    });
    let decode = pass(&mut || {
        for b in &resp_wire {
            black_box(Response::decode(b[4], &b[5..]).expect("decode"));
        }
    });
    let mut allocs = 0;
    let request_decode = pass(&mut || {
        let before = alloc::allocations();
        for b in &wire {
            black_box(Request::decode(b[4], &b[5..]).expect("decode"));
        }
        allocs = alloc::allocations() - before;
    });
    l.set("proto.encode_ns_per_key", encode / keys as f64);
    l.set(
        "proto.decode_ns_per_key",
        (decode + request_decode) / keys as f64,
    );
    l.set("proto.allocs_per_frame", allocs as f64 / reqs.len() as f64);
}

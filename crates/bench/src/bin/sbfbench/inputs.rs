//! The workloads' inputs. Every key is derived from `--seed` and the
//! workload's name, so one seed replays byte-identical traffic; the
//! program under test only ever sees the generated keys. Exact truth is a
//! per-id array, so checking an answer costs one index per key.

use sbf_hash::{fmix64, SplitMix64};
use sbf_server::Request;
use sbf_workloads::ZipfDistribution;

/// Keys per batched frame.
pub const BATCH: usize = 1024;
/// Zipf draws every workload's set-up inserts.
pub const PRELOAD_KEYS: usize = 1 << 22;

/// The four traffic mixes; see the README for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReadBatch,
    PointMixed,
    WriteDurable,
    ClusterRepl,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ReadBatch,
        Workload::PointMixed,
        Workload::WriteDurable,
        Workload::ClusterRepl,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadBatch => "read_batch",
            Workload::PointMixed => "point_mixed",
            Workload::WriteDurable => "write_durable",
            Workload::ClusterRepl => "cluster_repl",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Insert,
    Estimate,
    InsertBatch,
    EstimateBatch,
}

impl Op {
    pub fn is_write(self) -> bool {
        matches!(self, Op::Insert | Op::InsertBatch)
    }

    pub fn is_batch(self) -> bool {
        matches!(self, Op::InsertBatch | Op::EstimateBatch)
    }

    pub fn name(self) -> &'static str {
        match self {
            Op::Insert => "insert",
            Op::Estimate => "estimate",
            Op::InsertBatch => "insert_batch",
            Op::EstimateBatch => "estimate_batch",
        }
    }
}

/// One request frame: its ids (for the truth checks) and their wire keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub op: Op,
    pub ids: Vec<u32>,
    pub keys: Vec<Vec<u8>>,
}

impl Frame {
    pub fn new(op: Op, ids: Vec<u32>) -> Self {
        let keys = ids.iter().map(|&id| key(id)).collect();
        Frame { op, ids, keys }
    }

    /// The frame as a protocol request.
    pub fn request(&self) -> Request {
        match self.op {
            Op::Insert => Request::Insert {
                count: 1,
                key: self.keys[0].clone(),
            },
            Op::Estimate => Request::Estimate {
                key: self.keys[0].clone(),
            },
            Op::InsertBatch => Request::InsertBatch {
                keys: self.keys.clone(),
            },
            Op::EstimateBatch => Request::EstimateBatch {
                keys: self.keys.clone(),
            },
        }
    }
}

/// The wire key of id `id`: its 8 little-endian bytes.
pub fn key(id: u32) -> Vec<u8> {
    u64::from(id).to_le_bytes().to_vec()
}

/// Adds `by` to `truth[id]` for every id.
pub fn tally(truth: &mut [u64], ids: &[u32], by: u64) {
    for &id in ids {
        truth[id as usize] += by;
    }
}

/// A seeded id stream. `stream` names an independent sub-stream, so the
/// preload and each caller draw from their own generator.
struct Ids(SplitMix64);

impl Ids {
    fn new(seed: u64, workload: Workload, stream: &str) -> Self {
        let mut h = fmix64(seed ^ 0x5bf_bec4_2003);
        for b in workload.name().bytes().chain([b'/']).chain(stream.bytes()) {
            h = fmix64(h ^ u64::from(b));
        }
        Ids(SplitMix64::new(h))
    }

    fn zipf(&mut self, dist: &ZipfDistribution) -> u32 {
        (dist.sample(&mut self.0) - 1) as u32
    }

    fn below(&mut self, bound: u32) -> u32 {
        self.0.next_below(u64::from(bound)) as u32
    }

    /// A query key: 7 in 8 drawn from `dist` (ids `0..u`), 1 in 8 from
    /// `u..2u`, which no workload ever preloads.
    fn query(&mut self, dist: &ZipfDistribution, u: u32) -> u32 {
        if self.below(8) == 0 {
            u + self.below(u)
        } else {
            self.zipf(dist)
        }
    }
}

/// Everything one workload sends, built before any server starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    pub workload: Workload,
    /// Counters per filter (per shard, and per node for the cluster).
    pub m: usize,
    /// Worker threads per node.
    pub workers: usize,
    /// Ids the accuracy sweeps cover: `0..universe`.
    pub universe: u32,
    /// The ids set-up inserts, sent as INSERT_BATCH frames of [`BATCH`].
    /// Only ids are kept: each frame's keys are made as it is sent.
    pub preload: Vec<u32>,
    /// Exact count of every id once the preload is acknowledged.
    pub truth: Vec<u64>,
    /// One frame pool per caller, replayed in a cycle while timed.
    pub pools: [Vec<Frame>; 2],
}

impl Plan {
    pub fn build(workload: Workload, seed: u64) -> Self {
        let batches = |ids: Vec<u32>, op: Op| -> Vec<Frame> {
            ids.chunks(BATCH)
                .map(|c| Frame::new(op, c.to_vec()))
                .collect()
        };
        // Every workload preloads 2^22 Zipf draws; `u` is the id universe
        // they are drawn from.
        let (m, workers, u, skew) = match workload {
            Workload::ReadBatch | Workload::PointMixed => (1 << 16, 2, 1u32 << 20, 1.1),
            Workload::WriteDurable => (1 << 22, 2, 1 << 22, 0.8),
            Workload::ClusterRepl => (1 << 16, 1, 1 << 20, 1.1),
        };
        let dist = ZipfDistribution::new(u as usize, skew);
        let mut ids = Ids::new(seed, workload, "preload");
        let preload: Vec<u32> = (0..PRELOAD_KEYS).map(|_| ids.zipf(&dist)).collect();
        let universe = match workload {
            Workload::WriteDurable => u,
            _ => 2 * u,
        };
        let mut truth = vec![0u64; universe as usize];
        tally(&mut truth, &preload, 1);

        let caller = |c: usize, frames: usize, op: Op| -> Vec<Frame> {
            let mut ids = Ids::new(seed, workload, &format!("caller{c}"));
            let n = if op.is_batch() {
                frames * BATCH
            } else {
                frames
            };
            let drawn: Vec<u32> = (0..n)
                .map(|_| match op {
                    Op::InsertBatch => ids.zipf(&dist),
                    Op::EstimateBatch => ids.query(&dist, u),
                    Op::Insert | Op::Estimate => ids.below(2 * u),
                })
                .collect();
            match op {
                Op::InsertBatch | Op::EstimateBatch => batches(drawn, op),
                // point_mixed: one key per frame, 1 in 10 an insert.
                Op::Insert | Op::Estimate => drawn
                    .into_iter()
                    .map(|id| {
                        let op = if ids.below(10) == 0 {
                            Op::Insert
                        } else {
                            Op::Estimate
                        };
                        Frame::new(op, vec![id])
                    })
                    .collect(),
            }
        };
        let pools = match workload {
            Workload::ReadBatch => [0, 1].map(|c| caller(c, 128, Op::EstimateBatch)),
            Workload::PointMixed => [0, 1].map(|c| caller(c, 1 << 16, Op::Estimate)),
            Workload::WriteDurable => [0, 1].map(|c| caller(c, 256, Op::InsertBatch)),
            Workload::ClusterRepl => [
                caller(0, 256, Op::InsertBatch),
                caller(1, 256, Op::EstimateBatch),
            ],
        };
        Plan {
            workload,
            m,
            workers,
            universe,
            preload,
            truth,
            pools,
        }
    }

    /// The preload's INSERT_BATCH frames `first`, `first + step`, ...,
    /// each built as it is needed.
    pub fn preload_frames(&self, first: usize, step: usize) -> impl Iterator<Item = Frame> + '_ {
        self.preload
            .chunks(BATCH)
            .skip(first)
            .step_by(step)
            .map(|ids| Frame::new(Op::InsertBatch, ids.to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in [
            Workload::ReadBatch,
            Workload::PointMixed,
            Workload::ClusterRepl,
        ] {
            let a = Plan::build(w, 2003);
            assert_eq!(a, Plan::build(w, 2003), "{w:?} must replay exactly");
            let b = Plan::build(w, 2004);
            assert_ne!(a.preload, b.preload, "{w:?} preload ignores the seed");
            assert_ne!(a.pools, b.pools, "{w:?} callers ignore the seed");
            assert_ne!(a.pools[0], a.pools[1], "{w:?} callers share a stream");
        }
    }

    #[test]
    fn workloads_draw_independent_streams() {
        let r = Plan::build(Workload::ReadBatch, 7);
        let p = Plan::build(Workload::PointMixed, 7);
        assert_ne!(r.preload, p.preload);
    }

    #[test]
    fn plans_have_the_documented_shape() {
        let r = Plan::build(Workload::ReadBatch, 1);
        assert_eq!(r.preload.len(), PRELOAD_KEYS);
        assert!(r.preload.iter().all(|&id| id < 1 << 20));
        assert_eq!(r.truth.len(), 1 << 21);
        assert_eq!(r.truth.iter().sum::<u64>(), PRELOAD_KEYS as u64);
        let frames: Vec<Frame> = r.preload_frames(1, 2).collect();
        assert_eq!(frames.len(), PRELOAD_KEYS / BATCH / 2);
        assert_eq!(frames[0].ids, r.preload[BATCH..2 * BATCH]);
        assert!(frames.iter().all(|f| f.op == Op::InsertBatch));
        assert!(r.pools[0]
            .iter()
            .all(|f| f.op == Op::EstimateBatch && f.keys.len() == BATCH));
        let never: usize = r.pools[0]
            .iter()
            .flat_map(|f| &f.ids)
            .filter(|&&id| id >= 1 << 20)
            .count();
        let share = never as f64 / (128 * BATCH) as f64;
        assert!(
            (0.11..0.14).contains(&share),
            "1 in 8 never inserted: {share}"
        );

        let p = Plan::build(Workload::PointMixed, 1);
        let inserts = p.pools[0].iter().filter(|f| f.op == Op::Insert).count();
        let share = inserts as f64 / p.pools[0].len() as f64;
        assert!((0.09..0.11).contains(&share), "1 in 10 inserts: {share}");
        assert!(p.pools[0].iter().all(|f| f.ids[0] < 1 << 21));
        assert_eq!(p.pools[0][0].keys[0], key(p.pools[0][0].ids[0]));
    }
}

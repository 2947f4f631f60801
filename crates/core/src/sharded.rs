//! Hash-partitioned concurrent sketches: per-shard locks instead of one
//! global lock.
//!
//! Every sketch mutates through `&mut self`: Minimal Increase reads the
//! minimum before raising, Recurring Minimum decides between primary and
//! secondary, and even a Minimum Selection insert updates `k` counters.
//! [`ShardedSketch`] replaces the one global lock with one lock per
//! sub-filter: it hash-partitions keys across `S` independent sub-filters,
//! each behind its own `RwLock`, so producers working on different shards
//! never contend.
//!
//! Because every occurrence of a key routes to the same shard, each shard
//! is an exact sketch of its own sub-multiset, and §5's distributed union
//! ("SBFs can be united simply by addition of their counter vectors")
//! rebuilds a single filter of the whole stream: [`ShardedSketch::snapshot`]
//! adds the shard counter vectors. Queries don't need the union — they
//! route to the owning shard, touching one lock in read mode.
//!
//! Partitioning is write-only. A batched insert is partitioned once into
//! per-shard pick lists — with one shard as with many — and each shard
//! applies its picks under its own write lock through its batch path: the
//! pipelined ingest engine for [`MsSbf`], the trait's item loop for the
//! other sketches. A batched estimate read-locks every shard once, in
//! ascending index order, and answers in one pass in input order
//! ([`SketchReader::estimate_routed_into`]): for [`MsSbf`] shards of one
//! hash family, each key is routed and hashed once and its minimum read
//! from its owning shard's counters (§2.2 and §5: a key's `k` counters all
//! sit in the one sub-filter that owns it). There is no batched removal;
//! removals lock the owning shard per key.

use crate::sync::lock_unpoisoned;
use crate::sync::{Mutex, RwLock};

use sbf_hash::{fmix64, HashFamily, Key};

use crate::metrics;
use crate::mi::MiSbf;
use crate::ms::MsSbf;
use crate::num;
use crate::params::{FromParams, SbfParams};
use crate::rm::RmSbf;
use crate::sketch::{MultisetSketch, SketchReader};
use crate::store::{CounterStore, RemoveError};

/// The most shards a [`ShardedSketch`] may hold.
///
/// A batched estimate holds every shard's read guard at once, in a
/// fixed-size stack array, so the count needs a ceiling. The served sketch
/// has 4 shards; 64 leaves ample room.
pub const MAX_SHARDS: usize = 64;

/// The shard, of `n`, that owns a key of canonical value `v` under router
/// seed `seed`. [`sbf_hash::dispatch::mix_reduce_lanes`] computes the same
/// owner for a lane group.
#[inline]
pub(crate) fn route(v: u64, seed: u64, n: usize) -> usize {
    // Widening multiply maps uniformly onto {0..n-1} without modulo bias.
    num::mul_shift_range(fmix64(v ^ seed), n)
}

/// Reusable buffers for partitioning one batch of keys across shards (the
/// batched insert path).
///
/// Holding plain indices (not borrowed keys) keeps the struct lifetime-free
/// so one instance can live inside [`ShardedSketch`] and be reused across
/// batches — the steady-state batch path performs **zero** heap
/// allocations once the buffers have grown to the working batch size.
#[derive(Debug, Default)]
struct PartitionScratch {
    /// `shard_ids[i]` = owning shard of `keys[i]`.
    shard_ids: Vec<u32>,
    /// Per-shard offsets into `order` (`counts[s]..counts[s + 1]`).
    counts: Vec<usize>,
    /// Item indices grouped by shard, input order preserved within a shard.
    order: Vec<u32>,
    /// Per-shard fill cursor into `order` while partitioning.
    cursor: Vec<usize>,
}

impl PartitionScratch {
    /// Counting-sort partition: fills `order` with `0..len` grouped by
    /// shard (stable within each shard) and `counts` with the group
    /// boundaries. `shard_of` is evaluated once per item.
    fn partition(&mut self, len: usize, num_shards: usize, mut shard_of: impl FnMut(usize) -> u32) {
        self.shard_ids.clear();
        self.shard_ids.reserve(len);
        self.counts.clear();
        self.counts.resize(num_shards + 1, 0);
        for i in 0..len {
            let s = shard_of(i);
            self.shard_ids.push(s);
            self.counts[num::to_usize(s) + 1] += 1;
        }
        for s in 0..num_shards {
            self.counts[s + 1] += self.counts[s];
        }
        self.order.clear();
        self.order.resize(len, 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.counts[..num_shards]);
        for (i, &s) in self.shard_ids.iter().enumerate() {
            let c = &mut self.cursor[num::to_usize(s)];
            self.order[*c] = num::idx_u32(i);
            *c += 1;
        }
    }

    /// The item indices owned by shard `s`.
    fn picks(&self, s: usize) -> &[u32] {
        &self.order[self.counts[s]..self.counts[s + 1]]
    }
}

/// Sketches that can absorb a disjoint peer by counter addition (§5).
///
/// `absorb` requires both sketches to share parameters and hash functions,
/// and is exact when the two inputs hold disjoint key sets (the sharding
/// invariant); see each implementation for what addition means when keys
/// overlap.
pub trait ShardMerge {
    /// Adds `other`'s counters into `self`.
    fn absorb(&mut self, other: &Self);
}

impl<F: HashFamily, S: CounterStore> ShardMerge for MsSbf<F, S> {
    fn absorb(&mut self, other: &Self) {
        self.union_assign(other);
    }
}

impl<F: HashFamily, S: CounterStore> ShardMerge for MiSbf<F, S> {
    fn absorb(&mut self, other: &Self) {
        self.union_assign(other);
    }
}

impl<F: HashFamily, S: CounterStore> ShardMerge for RmSbf<F, S> {
    fn absorb(&mut self, other: &Self) {
        self.union_assign(other);
    }
}

/// `S` independent sub-filters with per-shard read/write locks.
///
/// All shards must be built with **identical parameters** (`m`, `k`, seed)
/// so their counter vectors are addable per §5; [`ShardedSketch::from_params`]
/// enforces this by construction. A batched estimate over [`MsSbf`] shards
/// takes its one-pass path only when they share one hash family, and
/// answers shards that differ key by key. The router hash is independent
/// of the sketches' own hash family, so shard assignment does not bias
/// which counters a key touches. There are at most [`MAX_SHARDS`] shards.
///
/// ```
/// use spectral_bloom::{MiSbf, MultisetSketch, ShardedSketch};
///
/// let sketch = ShardedSketch::with_shards(8, |_| MiSbf::new(4096, 5, 7));
/// std::thread::scope(|s| {
///     for t in 0..4u64 {
///         let h = &sketch;
///         s.spawn(move || {
///             let keys: Vec<u64> = (0..1000).map(|i| t * 10_000 + i).collect();
///             h.insert_batch(&keys);
///         });
///     }
/// });
/// assert_eq!(sketch.total_count(), 4000);
/// assert!(sketch.estimate(&10_001u64) >= 1);
/// ```
#[derive(Debug)]
pub struct ShardedSketch<SK> {
    shards: Vec<RwLock<SK>>,
    route_seed: u64,
    /// Reused partition buffers for batched inserts. `try_lock`ed: if
    /// another thread is mid-batch, the loser falls back to a transient
    /// local scratch rather than serialising batches on this mutex.
    scratch: Mutex<PartitionScratch>,
}

impl<SK> ShardedSketch<SK> {
    /// Builds `n` shards from a constructor called with each shard index.
    ///
    /// The constructor must produce sketches with identical parameters
    /// (same `m`, `k`, hash seed) — pass the index only for bookkeeping,
    /// not to vary the filter shape, or [`ShardedSketch::snapshot`] will
    /// refuse to union the shards.
    pub fn with_shards(n: usize, make: impl FnMut(usize) -> SK) -> Self {
        assert!(n > 0, "sharded sketch needs at least one shard");
        Self::from_shards((0..n).map(make).collect())
    }

    /// Wraps pre-built shards (all with identical parameters), between 1
    /// and [`MAX_SHARDS`] of them.
    pub fn from_shards(shards: Vec<SK>) -> Self {
        assert!(
            !shards.is_empty(),
            "sharded sketch needs at least one shard"
        );
        assert!(
            shards.len() <= MAX_SHARDS,
            "sharded sketch holds at most {MAX_SHARDS} shards"
        );
        ShardedSketch {
            shards: shards.into_iter().map(RwLock::new).collect(),
            // Fixed and family-independent: routing must not correlate with
            // the counter indices the sketches derive from their own seeds.
            route_seed: 0x5ba2_d911_c3b1_70a4,
            scratch: Mutex::new(PartitionScratch::default()),
        }
    }

    /// Builds `n` shards of `SK` sized by `params` — every shard gets
    /// identical `(m, k, seed)`, the invariant [`ShardedSketch::snapshot`]
    /// relies on. Note the per-*shard* size is `params.dimensions()`, so
    /// total space is `n ×` that; size `params` for the per-shard
    /// sub-multiset.
    pub fn from_params(n: usize, params: &SbfParams, seed: u64) -> Self
    where
        SK: FromParams,
    {
        assert!(n > 0, "sharded sketch needs at least one shard");
        Self::with_shards(n, |_| SK::from_params(params, seed))
    }

    /// Number of shards `S`.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Which shard owns `key`.
    #[inline]
    pub fn shard_of<K: Key + ?Sized>(&self, key: &K) -> usize {
        route(key.canonical(), self.route_seed, self.shards.len())
    }

    /// Runs `f` with shared read access to shard `i` (bulk queries against
    /// one shard without per-call lock traffic).
    pub fn with_shard_read<R>(&self, i: usize, f: impl FnOnce(&SK) -> R) -> R {
        let guard = lock_unpoisoned(self.shards[i].read());
        f(&guard)
    }
}

impl<SK: MultisetSketch> ShardedSketch<SK> {
    /// Adds `count` occurrences of `key` (locks the owning shard only).
    pub fn insert_by<K: Key + ?Sized>(&self, key: &K, count: u64) {
        metrics::on(|m| m.sharded_ops.inc());
        let shard = self.shard_of(key);
        lock_unpoisoned(self.shards[shard].write()).insert_by(key, count);
    }

    /// Adds one occurrence of `key`.
    pub fn insert<K: Key + ?Sized>(&self, key: &K) {
        self.insert_by(key, 1);
    }

    /// Adds a batch of keys, partitioned once so each shard's lock is taken
    /// once per batch instead of once per key, and applied through the
    /// shard's batch path ([`MultisetSketch::insert_batch_picked`]).
    /// Grouping also improves locality: consecutive inserts touch one
    /// shard's counters.
    ///
    /// Relative input order is preserved *within* each shard, and keys in
    /// different shards never share counters, so the final state equals
    /// inserting every key in turn. The partition buffers are reused across
    /// batches: the steady state allocates nothing.
    pub fn insert_batch<K: Key>(&self, keys: &[K]) {
        metrics::on(|m| m.sharded_ops.add(num::to_u64(keys.len())));
        self.with_partitioned(keys, |scratch| {
            for s in 0..self.shards.len() {
                let picks = scratch.picks(s);
                if !picks.is_empty() {
                    lock_unpoisoned(self.shards[s].write()).insert_batch_picked(keys, picks);
                }
            }
        });
    }

    /// Partitions `keys` across shards in the shared scratch (or a
    /// transient one when another thread holds it), then runs `f` on it.
    ///
    /// Kept out of line: inlined into [`ShardedSketch::insert_batch`], its
    /// one caller, it slowed batched inserts from 46–50 to 64–70 ns/key.
    #[inline(never)]
    fn with_partitioned<K: Key>(&self, keys: &[K], f: impl FnOnce(&mut PartitionScratch)) {
        let mut local = PartitionScratch::default();
        let mut guard = self.scratch.try_lock().ok();
        let scratch = match guard.as_mut() {
            Some(g) => &mut **g,
            None => &mut local,
        };
        scratch.partition(keys.len(), self.shards.len(), |i| {
            num::idx_u32(self.shard_of(&keys[i]))
        });
        f(scratch)
    }

    /// Estimates every key, writing `out[i]` for `keys[i]` — results are
    /// exactly per-key [`ShardedSketch::estimate`] calls. Every shard is
    /// read-locked once, in ascending index order, and the guards are held
    /// for the whole batch (DESIGN.md §4b: writers never hold two shard
    /// locks, so this order cannot deadlock). The batch is then answered in
    /// one pass in input order by [`SketchReader::estimate_routed_into`].
    /// Steady-state allocation-free: the guards live in a stack array and
    /// `out` is caller-reused.
    pub fn estimate_batch_into<K: Key>(&self, keys: &[K], out: &mut Vec<u64>) {
        let guards: [Option<_>; MAX_SHARDS] =
            std::array::from_fn(|i| self.shards.get(i).map(|s| lock_unpoisoned(s.read())));
        let Some(first) = guards[0].as_deref() else {
            unreachable!("a sharded sketch has at least one shard")
        };
        let shards: [&SK; MAX_SHARDS] =
            std::array::from_fn(|i| guards[i].as_deref().unwrap_or(first));
        SK::estimate_routed_into(&shards[..self.shards.len()], self.route_seed, keys, out);
    }

    /// Convenience form of [`ShardedSketch::estimate_batch_into`].
    pub fn estimate_batch<K: Key>(&self, keys: &[K]) -> Vec<u64> {
        let mut out = Vec::new();
        self.estimate_batch_into(keys, &mut out);
        out
    }

    /// Removes `count` occurrences of `key` from its owning shard.
    pub fn remove_by<K: Key + ?Sized>(&self, key: &K, count: u64) -> Result<(), RemoveError> {
        metrics::on(|m| m.sharded_ops.inc());
        let shard = self.shard_of(key);
        lock_unpoisoned(self.shards[shard].write()).remove_by(key, count)
    }

    /// Removes one occurrence of `key`.
    pub fn remove<K: Key + ?Sized>(&self, key: &K) -> Result<(), RemoveError> {
        self.remove_by(key, 1)
    }

    /// Estimates the multiplicity of `key` (read-locks the owning shard).
    pub fn estimate<K: Key + ?Sized>(&self, key: &K) -> u64 {
        let shard = self.shard_of(key);
        lock_unpoisoned(self.shards[shard].read()).estimate(key)
    }

    /// Membership test: `f̂ > 0`.
    pub fn contains<K: Key + ?Sized>(&self, key: &K) -> bool {
        self.estimate(key) > 0
    }

    /// Spectral threshold test against the owning shard.
    pub fn passes_threshold<K: Key + ?Sized>(&self, key: &K, threshold: u64) -> bool {
        let shard = self.shard_of(key);
        lock_unpoisoned(self.shards[shard].read()).passes_threshold(key, threshold)
    }

    /// Total multiplicity across all shards, saturating at `u64::MAX` like
    /// each shard's own total.
    ///
    /// Shards are read-locked one at a time, so the total is a consistent
    /// sum of per-shard pasts, not an instantaneous global cut — fine for
    /// monitoring, and exact once producers quiesce.
    pub fn total_count(&self) -> u64 {
        self.shard_totals().into_iter().fold(0, u64::saturating_add)
    }

    /// Per-shard multiplicity totals (for load-balance inspection).
    pub fn shard_totals(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| lock_unpoisoned(s.read()).total_count())
            .collect()
    }

    /// Total storage across shards.
    pub fn storage_bits(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_unpoisoned(s.read()).storage_bits())
            .sum()
    }

    /// Unions all shards into one sketch by counter addition (§5) — the
    /// bridge back to the single-threaded world (serialization, further
    /// union/multiply, compressed re-encoding).
    ///
    /// The union is built afresh on every call: `O(m × num_shards)`
    /// clone-and-add work, counted by `sbf_sharded_snapshot_rebuilds_total`.
    /// Shards are read-locked one at a time, so under concurrent writes the
    /// union is a sum of per-shard pasts, like [`ShardedSketch::total_count`].
    pub fn snapshot(&self) -> SK
    where
        SK: ShardMerge + Clone,
    {
        metrics::on(|m| m.snapshot_rebuilds.inc());
        let mut merged = lock_unpoisoned(self.shards[0].read()).clone();
        for shard in &self.shards[1..] {
            let guard = lock_unpoisoned(shard.read());
            merged.absorb(&guard);
        }
        merged
    }

    /// Publishes per-shard load gauges into the global telemetry registry:
    /// `sbf_shard_occupancy_ratio{shard="i"}` and
    /// `sbf_shard_total_count{shard="i"}`. No-op while telemetry is
    /// disabled.
    pub fn publish_metrics(&self)
    where
        SK: SketchReader,
    {
        if !sbf_telemetry::enabled() {
            return;
        }
        let reg = sbf_telemetry::global();
        for (i, shard) in self.shards.iter().enumerate() {
            let (occ, total) = {
                let guard = lock_unpoisoned(shard.read());
                (guard.occupancy(), guard.total_count())
            };
            reg.gauge(&format!("sbf_shard_occupancy_ratio{{shard=\"{i}\"}}"))
                .set(occ);
            reg.gauge(&format!("sbf_shard_total_count{{shard=\"{i}\"}}"))
                .set_u64(total);
        }
    }
}

impl<SK: MultisetSketch> SketchReader for ShardedSketch<SK> {
    fn estimate<K: Key + ?Sized>(&self, key: &K) -> u64 {
        // Inherent resolution picks the instrumented routing methods.
        self.estimate(key)
    }

    fn estimate_batch_into<K: Key>(&self, keys: &[K], out: &mut Vec<u64>) {
        // Route to the one-pass, one-read-lock-per-shard version.
        ShardedSketch::estimate_batch_into(self, keys, out);
    }

    fn total_count(&self) -> u64 {
        self.total_count()
    }

    fn storage_bits(&self) -> usize {
        self.storage_bits()
    }

    fn occupancy(&self) -> f64 {
        let n = self.shards.len();
        self.shards
            .iter()
            .map(|s| lock_unpoisoned(s.read()).occupancy())
            .sum::<f64>()
            / num::to_f64(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_stable_and_in_range() {
        let sketch = ShardedSketch::with_shards(8, |_| MsSbf::new(1024, 4, 1));
        for key in 0u64..1000 {
            let s = sketch.shard_of(&key);
            assert!(s < 8);
            assert_eq!(s, sketch.shard_of(&key), "routing must be deterministic");
        }
        // All shards should receive some keys.
        let mut hit = [false; 8];
        for key in 0u64..1000 {
            hit[sketch.shard_of(&key)] = true;
        }
        assert!(hit.iter().all(|&h| h), "1000 keys must touch all 8 shards");
    }

    #[test]
    fn sharded_ms_matches_unsharded_after_snapshot() {
        let sharded = ShardedSketch::with_shards(4, |_| MsSbf::new(2048, 5, 9));
        let mut flat = MsSbf::new(2048, 5, 9);
        for key in 0u64..400 {
            sharded.insert_by(&key, key % 5 + 1);
            flat.insert_by(&key, key % 5 + 1);
        }
        let merged = sharded.snapshot();
        for key in 0u64..400 {
            assert_eq!(merged.estimate(&key), flat.estimate(&key), "key {key}");
        }
        assert_eq!(merged.total_count(), flat.total_count());
    }

    #[test]
    fn estimates_route_to_owning_shard() {
        let sketch = ShardedSketch::with_shards(4, |_| MiSbf::new(4096, 5, 3));
        for key in 0u64..300 {
            sketch.insert_by(&key, key % 7 + 1);
        }
        for key in 0u64..300 {
            assert!(sketch.estimate(&key) > key % 7, "undercount for {key}");
        }
    }

    #[test]
    fn insert_batch_equals_singles() {
        let batched = ShardedSketch::with_shards(4, |_| MsSbf::new(1024, 4, 5));
        let singles = ShardedSketch::with_shards(4, |_| MsSbf::new(1024, 4, 5));
        let keys: Vec<u64> = (0..500).map(|i| i % 100).collect();
        batched.insert_batch(&keys);
        for key in &keys {
            singles.insert(key);
        }
        for key in 0u64..100 {
            assert_eq!(batched.estimate(&key), singles.estimate(&key));
        }
        assert_eq!(batched.total_count(), 500);
    }

    #[test]
    fn total_count_saturates_across_shards() {
        let sketch = ShardedSketch::with_shards(4, |_| MsSbf::new(1024, 4, 1));
        sketch.insert_by(&1u64, u64::MAX);
        let other = (2u64..)
            .find(|k| sketch.shard_of(k) != sketch.shard_of(&1u64))
            .expect("a key owned by another shard");
        sketch.insert_by(&other, 5);
        assert_eq!(sketch.total_count(), u64::MAX);
        assert_eq!(SketchReader::total_count(&sketch), u64::MAX);
    }

    #[test]
    fn removals_stay_within_shard() {
        let sketch = ShardedSketch::with_shards(4, |_| RmSbf::new(3000, 5, 2));
        for key in 0u64..100 {
            sketch.insert_by(&key, 10);
        }
        for key in 0u64..100 {
            sketch.remove_by(&key, 4).unwrap();
        }
        for key in 0u64..100 {
            assert!(sketch.estimate(&key) >= 6, "false negative for {key}");
        }
        assert_eq!(sketch.total_count(), 600);
    }

    #[test]
    fn snapshot_of_rm_shards_keeps_upper_bound() {
        let sketch = ShardedSketch::with_shards(4, |_| RmSbf::new(6000, 5, 8));
        for key in 0u64..200 {
            sketch.insert_by(&key, key % 9 + 1);
        }
        let merged = sketch.snapshot();
        for key in 0u64..200 {
            assert!(merged.estimate(&key) > key % 9, "undercount for {key}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedSketch::<MsSbf>::from_shards(Vec::new());
    }

    #[test]
    #[should_panic(expected = "at most 64 shards")]
    fn shards_past_the_cap_rejected() {
        let _ = ShardedSketch::with_shards(MAX_SHARDS + 1, |_| MsSbf::new(8, 1, 1));
    }

    #[test]
    fn from_params_builds_identical_shards() {
        use crate::params::SbfParams;
        let params = SbfParams::for_capacity(1000).with_target_error(0.01);
        let sketch: ShardedSketch<MsSbf> = ShardedSketch::from_params(4, &params, 11);
        assert_eq!(sketch.num_shards(), 4);
        for key in 0u64..100 {
            sketch.insert_by(&key, 2);
        }
        // Identical shard parameters: snapshot unions without panicking and
        // stays one-sided.
        let merged = sketch.snapshot();
        for key in 0u64..100 {
            assert!(merged.estimate(&key) >= 2);
        }
    }

    #[test]
    fn reader_trait_is_object_usable_generically() {
        fn probe<S: SketchReader>(s: &S, key: u64) -> u64 {
            s.estimate(&key)
        }
        let sketch = ShardedSketch::with_shards(2, |_| MsSbf::new(512, 4, 1));
        sketch.insert_by(&5u64, 7);
        assert!(probe(&sketch, 5) >= 7);
        assert!(SketchReader::occupancy(&sketch) > 0.0);
    }
}

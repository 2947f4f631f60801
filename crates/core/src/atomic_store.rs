//! Lock-free counter storage for concurrent ingest.
//!
//! The paper's streaming scenario (§1.1.4) has data arriving "faster than a
//! single consumer comfortably handles". For the Minimum Selection family
//! that pressure needs no locking at all: an MS insert only ever *adds* to
//! counters, and the estimate is a minimum over monotonically increasing
//! values, so concurrent increments keep the one-sided `f̂_x ≥ f_x`
//! contract (§2.2, Claim 1) — a reader can at worst observe a *partially
//! applied* insert, which under-applies someone else's increments, never
//! the key's own completed ones.
//!
//! [`ConcurrentCounterStore`] is the `&self` analogue of
//! [`crate::CounterStore`]; [`AtomicCounters`] realizes it as one
//! `AtomicU64` per counter. [`AtomicMsSbf`] builds the MS algorithm on top
//! with shared-reference insert/estimate/threshold, so any number of
//! producer and query threads proceed without coordination. Heuristics
//! that need read-modify-write atomicity across several counters (Minimal
//! Increase, Recurring Minimum) cannot run lock-free; they go through
//! [`crate::ShardedSketch`]'s per-shard locks instead.

use crate::sync::atomic::{AtomicU64, Ordering};

use sbf_hash::{BlockedFamily, HashFamily, IndexBuf, Key};

use crate::core_ops::{lane_pipeline, lanes_worthwhile, pipelined_batch, LaneOp};
use crate::metrics;
use crate::ms::MsSbf;
use crate::num;
use crate::params::{FromParams, SbfParams};
use crate::sketch::SketchReader;
use crate::store::{CounterStore, PlainCounters};
use crate::DefaultFamily;

/// A fixed-length counter vector whose operations take `&self`.
///
/// The contract mirrors [`crate::CounterStore`] with concurrency folded in:
/// increments are atomic per counter and saturate at `u64::MAX` (see the
/// overflow discussion on [`crate::CounterStore::increment`]); the
/// saturating decrement never drives a counter below zero even under
/// contention. No ordering between *different* counters is promised —
/// exactly the freedom that makes the MS one-sided bound cheap to keep.
pub trait ConcurrentCounterStore: Send + Sync {
    /// Creates a store of `m` zero counters.
    fn with_len(m: usize) -> Self;

    /// Number of counters.
    fn len(&self) -> usize;

    /// Whether the store has no counters.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads counter `i`.
    fn load(&self, i: usize) -> u64;

    /// Atomically adds `by` to counter `i`, saturating at `u64::MAX`.
    fn fetch_add(&self, i: usize, by: u64);

    /// Atomically subtracts `by` from counter `i`, clamping at zero.
    fn fetch_sub_saturating(&self, i: usize, by: u64);

    /// Atomically raises counter `i` to at least `floor`.
    fn fetch_max(&self, i: usize, floor: u64);

    /// Hints that counter `i` will be accessed shortly (see
    /// [`crate::CounterStore::prefetch`]). Advisory; default no-op.
    #[inline]
    fn prefetch(&self, _i: usize) {}

    /// Write-intent prefetch hint (see `CounterStore::prefetch_write`):
    /// the line is about to be the target of an atomic RMW, which needs
    /// exclusive ownership. Advisory; defaults to a no-op.
    fn prefetch_write(&self, _i: usize) {}

    /// Storage footprint in bits.
    fn storage_bits(&self) -> usize;
}

/// One `AtomicU64` per counter — the lock-free backend.
///
/// All operations use relaxed ordering: counters are independent statistics
/// and every consumer tolerates reordering between counters (the estimate
/// is a min over values that only grow under the MS workload).
#[derive(Debug, Default)]
pub struct AtomicCounters {
    counters: Vec<AtomicU64>,
}

impl AtomicCounters {
    /// Copies the current counter values into a plain store (the bridge to
    /// the single-threaded API: union, serialization, compression).
    pub fn snapshot(&self) -> PlainCounters {
        let mut plain = PlainCounters::with_len(self.counters.len());
        for (i, c) in self.counters.iter().enumerate() {
            plain.set(i, c.load(Ordering::Relaxed));
        }
        plain
    }
}

impl ConcurrentCounterStore for AtomicCounters {
    fn with_len(m: usize) -> Self {
        AtomicCounters {
            counters: (0..m).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.counters.len()
    }

    #[inline]
    fn load(&self, i: usize) -> u64 {
        self.counters[i].load(Ordering::Relaxed)
    }

    #[inline]
    fn fetch_add(&self, i: usize, by: u64) {
        // Saturating add via CAS: `AtomicU64::fetch_add` would wrap, and a
        // wrapped counter would (transiently) report a tiny value — a false
        // negative, which the one-sided contract forbids.
        let cell = &self.counters[i];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let (next, overflowed) = cur.overflowing_add(by);
            let next = if overflowed { u64::MAX } else { next };
            match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => {
                    if overflowed {
                        metrics::on(|m| m.saturations.inc());
                    }
                    return;
                }
                Err(seen) => {
                    metrics::on(|m| m.cas_retries.inc());
                    cur = seen;
                }
            }
        }
    }

    #[inline]
    fn fetch_sub_saturating(&self, i: usize, by: u64) {
        let cell = &self.counters[i];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(by);
            match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => {
                    metrics::on(|m| m.cas_retries.inc());
                    cur = seen;
                }
            }
        }
    }

    #[inline]
    fn fetch_max(&self, i: usize, floor: u64) {
        self.counters[i].fetch_max(floor, Ordering::Relaxed);
    }

    #[inline]
    fn prefetch(&self, i: usize) {
        sbf_hash::prefetch_slice(&self.counters, i);
    }

    #[inline]
    fn prefetch_write(&self, i: usize) {
        sbf_hash::prefetch_slice_write(&self.counters, i);
    }

    fn storage_bits(&self) -> usize {
        self.counters.len() * 64
    }
}

/// Minimum Selection over atomic counters: fully lock-free ingest and
/// query.
///
/// Every method takes `&self`, so the filter can be shared across threads
/// behind a plain `Arc` — no `RwLock`, no shards. This is the
/// fastest-scaling ingest path in the crate; its price is that it only
/// speaks MS (Claim 1's baseline accuracy) and that deletions are limited
/// to the saturating form. See `DESIGN.md` ("Concurrency model") for why
/// MI/RM need per-shard locks instead.
///
/// ```
/// use std::sync::Arc;
/// use spectral_bloom::AtomicMsSbf;
///
/// let sbf = Arc::new(AtomicMsSbf::new(1 << 14, 5, 42));
/// std::thread::scope(|s| {
///     for t in 0..4u64 {
///         let h = Arc::clone(&sbf);
///         s.spawn(move || h.insert_by(&t, 10));
///     }
/// });
/// assert!(sbf.estimate(&2u64) >= 10); // one-sided, even mid-flight
/// assert_eq!(sbf.total_count(), 40);
/// ```
#[derive(Debug)]
pub struct AtomicMsSbf<F: HashFamily = DefaultFamily, S: ConcurrentCounterStore = AtomicCounters> {
    family: F,
    store: S,
    total_count: AtomicU64,
}

impl AtomicMsSbf<DefaultFamily, AtomicCounters> {
    /// An atomic MS filter with `m` counters, `k` hash functions. Prefer
    /// [`FromParams::from_params`] when sizing from a capacity/error target.
    pub fn new(m: usize, k: usize, seed: u64) -> Self {
        Self::from_family(DefaultFamily::new(m, k, seed))
    }
}

impl FromParams for AtomicMsSbf<DefaultFamily, AtomicCounters> {
    fn from_params(params: &SbfParams, seed: u64) -> Self {
        let (m, k) = params.dimensions();
        Self::new(m, k, seed)
    }
}

impl<F: HashFamily, S: ConcurrentCounterStore> AtomicMsSbf<F, S> {
    /// Builds over an explicit hash family.
    pub fn from_family(family: F) -> Self {
        let store = S::with_len(family.m());
        AtomicMsSbf {
            family,
            store,
            total_count: AtomicU64::new(0),
        }
    }

    /// Number of counters `m`.
    pub fn m(&self) -> usize {
        self.family.m()
    }

    /// Number of hash functions `k`.
    pub fn k(&self) -> usize {
        self.family.k()
    }

    /// The hash family.
    pub fn family(&self) -> &F {
        &self.family
    }

    /// The concurrent store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The distinct counter indices of `key`, sorted — the same §3.1
    /// canonicalisation [`crate::SbfCore::key_indexes`] applies, so the
    /// atomic filter and [`MsSbf`] built from equal parameters stay
    /// counter-for-counter identical under identical operations.
    #[inline]
    fn key_indexes<K: Key + ?Sized>(&self, key: &K) -> IndexBuf {
        let mut idx = self.family.indexes(key);
        idx.sort_dedup();
        idx
    }

    /// [`AtomicMsSbf::key_indexes`] written into a caller-owned buffer (the
    /// pipelines' copy-free ring refill; see `IndexBuf::fill`).
    #[inline]
    fn key_indexes_into<K: Key + ?Sized>(&self, key: &K, out: &mut IndexBuf) {
        out.fill(self.family.k(), |slots| {
            self.family.indexes_into(key, slots)
        });
        out.sort_dedup();
    }

    #[inline]
    fn prefetch_idx(&self, idx: &IndexBuf) {
        for &i in idx.as_slice() {
            self.store.prefetch(i);
        }
    }

    #[inline]
    fn prefetch_idx_write(&self, idx: &IndexBuf) {
        for &i in idx.as_slice() {
            self.store.prefetch_write(i);
        }
    }

    /// Adds `count` occurrences of `key` (lock-free).
    pub fn insert_by<K: Key + ?Sized>(&self, key: &K, count: u64) {
        metrics::on(|m| m.inserts.inc());
        for &i in self.key_indexes(key).as_slice() {
            self.store.fetch_add(i, count);
        }
        self.total_count.fetch_add(count, Ordering::Relaxed);
    }

    /// Adds one occurrence of `key` (lock-free).
    pub fn insert<K: Key + ?Sized>(&self, key: &K) {
        self.insert_by(key, 1);
    }

    /// Adds a batch of keys. The final state equals inserting each key in
    /// turn; the running total is published once at the end of the batch,
    /// so a concurrent [`AtomicMsSbf::total_count`] read may lag mid-batch
    /// (counter reads were always racy in that window anyway).
    ///
    /// Pipelined with **write-intent** prefetch: `fetch_add` needs the
    /// line in exclusive state, which a read-intent hint does not provide
    /// (and can actively delay by fetching the line shared first), but a
    /// `PREFETCHW`-class hint requests ownership up front — exactly what a
    /// `lock xadd` wants. The batch also hashes once per key, hoists the
    /// metrics guard, and publishes one total-count RMW per batch instead
    /// of per item.
    pub fn insert_batch<K: Key>(&self, keys: &[K]) {
        metrics::on(|m| m.inserts.add(num::to_u64(keys.len())));
        pipelined_batch!(
            keys,
            hash = |key, slot| self.key_indexes_into(key, slot),
            prefetch = |idx| self.prefetch_idx_write(idx),
            apply = |_i, idx| {
                for &i in idx.as_slice() {
                    self.store.fetch_add(i, 1);
                }
            }
        );
        self.total_count
            .fetch_add(num::to_u64(keys.len()), Ordering::Relaxed);
    }

    /// Removes `count` occurrences of `key`, clamping counters at zero.
    ///
    /// The precise (atomic-across-counters) removal of [`crate::MsSbf`]
    /// needs a consistent multi-counter read-modify-write and therefore a
    /// lock; under the lock-free contract only the saturating form is
    /// available. Removing more than was inserted can introduce false
    /// negatives — the same §3.2 caveat as Minimal Increase deletions.
    pub fn remove_saturating<K: Key + ?Sized>(&self, key: &K, count: u64) {
        metrics::on(|m| m.removes.inc());
        for &i in self.key_indexes(key).as_slice() {
            self.store.fetch_sub_saturating(i, count);
        }
        // Total stays monotone-consistent: clamp like the counters do.
        let mut cur = self.total_count.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(count);
            match self.total_count.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => {
                    metrics::on(|m| m.cas_retries.inc());
                    cur = seen;
                }
            }
        }
    }

    /// Estimates the multiplicity of `key` (minimum over its counters).
    pub fn estimate<K: Key + ?Sized>(&self, key: &K) -> u64 {
        let est = self
            .key_indexes(key)
            .as_slice()
            .iter()
            .map(|&i| self.store.load(i))
            .min()
            .unwrap_or(0);
        metrics::on(|m| {
            m.estimates.inc();
            m.estimate_values.observe(est);
        });
        est
    }

    /// Estimates every key, software-pipelined; `out` is cleared first and
    /// `out[i]` answers `keys[i]`, exactly as [`AtomicMsSbf::estimate`]
    /// would at the same moment.
    ///
    /// This backend cannot take the SIMD gathered-min path: a vector
    /// gather over `AtomicU64` memory would be a non-atomic access racing
    /// concurrent writers (TSan would rightly flag it). The counter reads
    /// stay per-element atomic loads; the lane pass still pays off here
    /// because dedup is skipped (the minimum over a multiset equals the
    /// minimum over its distinct values), which the per-key scalar hash
    /// path cannot do without a dedicated no-dedup pipeline.
    pub fn estimate_batch_into<K: Key>(&self, keys: &[K], out: &mut Vec<u64>) {
        out.clear();
        out.reserve(keys.len());
        if lanes_worthwhile(keys.len()) {
            lane_pipeline(
                &self.family,
                keys.len(),
                |i| keys[i].canonical(),
                false,
                |op| match op {
                    LaneOp::Prefetch(idx) => self.prefetch_idx(idx),
                    LaneOp::Apply(idx) => out.push(
                        idx.as_slice()
                            .iter()
                            .map(|&i| self.store.load(i))
                            .min()
                            .unwrap_or(0),
                    ),
                },
            );
        } else {
            pipelined_batch!(
                keys,
                hash = |key, slot| self.key_indexes_into(key, slot),
                prefetch = |idx| self.prefetch_idx(idx),
                apply = |_i, idx| out.push(
                    idx.as_slice()
                        .iter()
                        .map(|&i| self.store.load(i))
                        .min()
                        .unwrap_or(0)
                )
            );
        }
        metrics::on(|m| {
            m.estimates.add(num::to_u64(keys.len()));
            m.estimate_values.observe_many(out);
        });
    }

    /// Membership test: `f̂ > 0`.
    pub fn contains<K: Key + ?Sized>(&self, key: &K) -> bool {
        self.estimate(key) > 0
    }

    /// Spectral threshold test: `f̂ ≥ threshold` (lock-free; false
    /// positives only while the workload is insert-only).
    pub fn passes_threshold<K: Key + ?Sized>(&self, key: &K, threshold: u64) -> bool {
        self.estimate(key) >= threshold
    }

    /// Total multiplicity represented.
    pub fn total_count(&self) -> u64 {
        self.total_count.load(Ordering::Relaxed)
    }

    /// Storage footprint in bits.
    pub fn storage_bits(&self) -> usize {
        self.store.storage_bits()
    }

    /// Fraction of non-zero counters (a racy but monotone-safe read: each
    /// counter only grows under the insert-only workload).
    pub fn occupancy(&self) -> f64 {
        let m = self.store.len();
        if m == 0 {
            return 0.0;
        }
        let nonzero = (0..m).filter(|&i| self.store.load(i) > 0).count();
        num::to_f64(nonzero) / num::to_f64(m)
    }
}

impl<F: HashFamily, S: ConcurrentCounterStore> SketchReader for AtomicMsSbf<F, S> {
    fn estimate<K: Key + ?Sized>(&self, key: &K) -> u64 {
        // Inherent method resolution picks the instrumented `&self` version.
        self.estimate(key)
    }

    fn estimate_batch_into<K: Key>(&self, keys: &[K], out: &mut Vec<u64>) {
        // Route to the pipelined inherent version.
        AtomicMsSbf::estimate_batch_into(self, keys, out);
    }

    fn total_count(&self) -> u64 {
        self.total_count()
    }

    fn storage_bits(&self) -> usize {
        self.storage_bits()
    }

    fn occupancy(&self) -> f64 {
        self.occupancy()
    }
}

/// Lock-free Minimum Selection over the cache-blocked layout: the same
/// two-level hashing as [`crate::BlockedMsSbf`] (first-level hash picks a
/// block, the `k` functions hash within it), so one key's counters share
/// 1–2 cache lines — one prefetch or miss per concurrent insert instead of
/// `k` scattered ones. Same accuracy trade-off as the locked variant
/// (negligible for blocks ≳ 64 counters).
pub type BlockedAtomicMsSbf = AtomicMsSbf<BlockedFamily<DefaultFamily>, AtomicCounters>;

impl BlockedAtomicMsSbf {
    /// A blocked atomic MS filter of `num_blocks × block_size` counters
    /// with `k` hash functions per block (see
    /// [`crate::BlockedMsSbf::new_blocked`] for block-size guidance).
    pub fn new_blocked(block_size: usize, num_blocks: usize, k: usize, seed: u64) -> Self {
        Self::from_family(BlockedFamily::new(
            DefaultFamily::new(block_size, k, seed),
            num_blocks,
            seed,
        ))
    }
}

impl<F: HashFamily> AtomicMsSbf<F, AtomicCounters> {
    /// Freezes the current state into a single-threaded [`MsSbf`] (for
    /// union, serialization, or switching to a compressed store).
    ///
    /// Taken while producers are still running, the snapshot is some valid
    /// *past* state per counter — still one-sided for every key whose
    /// inserts completed before the call.
    pub fn snapshot(&self) -> MsSbf<F, PlainCounters> {
        let mut ms = MsSbf::with_parts(self.family.clone(), self.store.snapshot());
        ms.core_mut().add_to_total(self.total_count());
        ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::MultisetSketch;
    use crate::sync::Arc;

    #[test]
    fn store_contract() {
        let s = AtomicCounters::with_len(64);
        assert_eq!(s.len(), 64);
        s.fetch_add(3, 10);
        assert_eq!(s.load(3), 10);
        s.fetch_sub_saturating(3, 4);
        assert_eq!(s.load(3), 6);
        s.fetch_sub_saturating(3, 100);
        assert_eq!(s.load(3), 0, "decrement clamps at zero");
        s.fetch_max(5, 9);
        s.fetch_max(5, 2);
        assert_eq!(s.load(5), 9, "fetch_max only raises");
        assert_eq!(s.storage_bits(), 64 * 64);
    }

    #[test]
    fn fetch_add_saturates_instead_of_wrapping() {
        let s = AtomicCounters::with_len(4);
        s.fetch_add(0, u64::MAX - 1);
        s.fetch_add(0, 5);
        assert_eq!(s.load(0), u64::MAX);
    }

    #[test]
    fn matches_locked_ms_single_threaded() {
        let atomic = AtomicMsSbf::new(4096, 5, 7);
        let mut locked = MsSbf::new(4096, 5, 7);
        for key in 0u64..300 {
            atomic.insert_by(&key, key % 9 + 1);
            locked.insert_by(&key, key % 9 + 1);
        }
        for key in 0u64..300 {
            assert_eq!(atomic.estimate(&key), locked.estimate(&key), "key {key}");
        }
        assert_eq!(atomic.total_count(), locked.total_count());
    }

    #[test]
    fn concurrent_inserts_never_undercount() {
        let sbf = Arc::new(AtomicMsSbf::new(1 << 14, 5, 1));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let h = Arc::clone(&sbf);
                scope.spawn(move || {
                    for i in 0..500u64 {
                        h.insert(&(t * 1_000_000 + i));
                    }
                });
            }
        });
        assert_eq!(sbf.total_count(), 8 * 500);
        for t in 0..8u64 {
            for i in 0..500u64 {
                assert!(sbf.estimate(&(t * 1_000_000 + i)) >= 1);
            }
        }
    }

    #[test]
    fn blocked_atomic_matches_blocked_locked() {
        // Same (block_size, num_blocks, k, seed) ⇒ identical index streams,
        // so single-threaded the lock-free blocked backend must agree with
        // the sequential one, batch and single paths alike.
        let atomic = BlockedAtomicMsSbf::new_blocked(128, 32, 5, 17);
        let mut locked = crate::ms::BlockedMsSbf::new_blocked(128, 32, 5, 17);
        let keys: Vec<u64> = (0..400).map(|i| i * 13 + 1).collect();
        atomic.insert_batch(&keys);
        locked.insert_batch(&keys);
        let mut got = Vec::new();
        atomic.estimate_batch_into(&keys, &mut got);
        for (key, est) in keys.iter().zip(&got) {
            assert_eq!(*est, locked.estimate(key), "key {key}");
            assert_eq!(atomic.estimate(key), *est, "batch vs single, key {key}");
        }
        assert_eq!(atomic.total_count(), locked.total_count());
    }

    #[test]
    fn snapshot_roundtrips_to_locked_ms() {
        let atomic = AtomicMsSbf::new(2048, 4, 3);
        for key in 0u64..100 {
            atomic.insert_by(&key, 2);
        }
        let ms = atomic.snapshot();
        for key in 0u64..100 {
            assert_eq!(ms.estimate(&key), atomic.estimate(&key));
        }
        assert_eq!(ms.total_count(), 200);
    }
}

//! Minimum Selection — the basic SBF of §2.2.

use sbf_hash::{BlockedFamily, HashFamily, Key};

use crate::core_ops::SbfCore;
use crate::metrics;
use crate::num;
use crate::params::{FromParams, SbfParams};
use crate::sketch::{MultisetSketch, SketchReader};
use crate::store::{CounterStore, PlainCounters, RemoveError};
use crate::DefaultFamily;

/// The basic Spectral Bloom Filter with the Minimum Selection estimator:
/// insert increments all `k` counters, the estimate is their minimum.
///
/// Claim 1 of the paper: `f_x ≤ m_x` always, and `f_x ≠ m_x` only with the
/// Bloom-error probability `E_b ≈ (1 − e^{−kn/m})^k`. Supports deletions
/// and updates by decrementing, and sliding windows by deleting out-of-date
/// items.
#[derive(Debug, Clone)]
pub struct MsSbf<F: HashFamily = DefaultFamily, S: CounterStore = PlainCounters> {
    core: SbfCore<F, S>,
}

impl MsSbf<DefaultFamily, PlainCounters> {
    /// An MS filter with `m` counters, `k` hash functions and the default
    /// hash family, plain storage. Prefer [`FromParams::from_params`] when
    /// sizing from a capacity/error target.
    pub fn new(m: usize, k: usize, seed: u64) -> Self {
        Self::from_family(DefaultFamily::new(m, k, seed))
    }
}

impl FromParams for MsSbf<DefaultFamily, PlainCounters> {
    fn from_params(params: &SbfParams, seed: u64) -> Self {
        let (m, k) = params.dimensions();
        Self::new(m, k, seed)
    }
}

impl<F: HashFamily, S: CounterStore> MsSbf<F, S> {
    /// Builds over an explicit hash family, with a fresh store.
    pub fn from_family(family: F) -> Self {
        MsSbf {
            core: SbfCore::from_family(family),
        }
    }

    /// Builds from explicit parts.
    pub fn with_parts(family: F, store: S) -> Self {
        MsSbf {
            core: SbfCore::with_parts(family, store),
        }
    }

    /// The underlying core (counters, family, totals).
    pub fn core(&self) -> &SbfCore<F, S> {
        &self.core
    }

    /// Mutable core access (for estimators and tests).
    pub fn core_mut(&mut self) -> &mut SbfCore<F, S> {
        &mut self.core
    }

    /// Unites another MS filter into this one (counter addition, §2.2).
    pub fn union_assign<S2: CounterStore>(&mut self, other: &MsSbf<F, S2>)
    where
        F: PartialEq,
    {
        self.core.union_assign(&other.core);
    }

    /// Multiplies counter-wise, forming the join synopsis of §2.2.
    pub fn multiply_assign<S2: CounterStore>(&mut self, other: &MsSbf<F, S2>)
    where
        F: PartialEq,
    {
        self.core.multiply_assign(&other.core);
    }
}

/// Minimum Selection over a cache-blocked layout: a first-level hash picks
/// a block, the `k` functions hash *within* it (the §2.2 external-memory
/// scheme of Manber & Wu, applied at cache granularity).
///
/// With a block sized to a few cache lines, one key's `k` counters share
/// 1–2 lines instead of `k` scattered ones, so a single prefetch (or miss)
/// covers the whole operation — the batched hot path's best case. The
/// trade-off is accuracy: `k` counters drawn from one small block collide
/// more than `k` drawn from all of `m`, raising the effective error rate
/// slightly (negligibly for blocks ≳ 64 counters; see DESIGN.md "Hot
/// path" and `repro paged`).
pub type BlockedMsSbf = MsSbf<BlockedFamily<DefaultFamily>, PlainCounters>;

impl BlockedMsSbf {
    /// A blocked MS filter of `num_blocks × block_size` counters with `k`
    /// hash functions per block. `block_size = 64` (one 512-byte span, 8
    /// cache lines) is a good default; smaller blocks trade accuracy for
    /// locality.
    pub fn new_blocked(block_size: usize, num_blocks: usize, k: usize, seed: u64) -> Self {
        MsSbf::from_family(BlockedFamily::new(
            DefaultFamily::new(block_size, k, seed),
            num_blocks,
            seed,
        ))
    }
}

impl<F: HashFamily, S: CounterStore> SketchReader for MsSbf<F, S> {
    fn estimate<K: Key + ?Sized>(&self, key: &K) -> u64 {
        let est = self.core.min_of_key(key);
        metrics::on(|m| {
            m.estimates.inc();
            m.estimate_values.observe(est);
        });
        est
    }

    fn estimate_batch_into<K: Key>(&self, keys: &[K], out: &mut Vec<u64>) {
        self.core.min_batch_into(keys, out);
        metrics::on(|m| {
            m.estimates.add(num::to_u64(keys.len()));
            m.estimate_values.observe_many(out);
        });
    }

    fn estimate_batch_picked_into<K: Key>(&self, keys: &[K], picks: &[u32], out: &mut Vec<u64>) {
        let before = out.len();
        self.core.min_batch_picked_into(keys, picks, out);
        metrics::on(|m| {
            m.estimates.add(num::to_u64(picks.len()));
            m.estimate_values.observe_many(&out[before..]);
        });
    }

    fn total_count(&self) -> u64 {
        self.core.total_count()
    }

    fn storage_bits(&self) -> usize {
        self.core.store().storage_bits()
    }

    fn occupancy(&self) -> f64 {
        self.core.occupancy()
    }
}

impl<F: HashFamily, S: CounterStore> MultisetSketch for MsSbf<F, S> {
    fn insert_by<K: Key + ?Sized>(&mut self, key: &K, count: u64) {
        metrics::on(|m| m.inserts.inc());
        self.core.increment_all(key, count);
    }

    fn insert_batch<K: Key>(&mut self, keys: &[K]) {
        metrics::on(|m| m.inserts.add(num::to_u64(keys.len())));
        self.core.increment_batch(keys);
    }

    fn insert_batch_picked<K: Key>(&mut self, keys: &[K], picks: &[u32]) {
        metrics::on(|m| m.inserts.add(num::to_u64(picks.len())));
        self.core.increment_batch_picked(keys, picks);
    }

    fn remove_by<K: Key + ?Sized>(&mut self, key: &K, count: u64) -> Result<(), RemoveError> {
        metrics::on(|m| m.removes.inc());
        self.core.decrement_all(key, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::CompressedCounters;
    use sbf_hash::MixFamily;

    #[test]
    fn estimate_is_upper_bound_and_usually_exact() {
        let mut sbf = MsSbf::new(4096, 5, 1);
        for key in 0u64..200 {
            sbf.insert_by(&key, key + 1);
        }
        let mut exact = 0;
        for key in 0u64..200 {
            let est = sbf.estimate(&key);
            assert!(est > key, "one-sidedness violated for {key}");
            if est == key + 1 {
                exact += 1;
            }
        }
        // At γ = 200·5/4096 ≈ 0.24 the error probability is tiny.
        assert!(exact >= 195, "only {exact}/200 exact");
    }

    #[test]
    fn absent_keys_mostly_report_zero() {
        let mut sbf = MsSbf::new(8192, 5, 2);
        for key in 0u64..500 {
            sbf.insert(&key);
        }
        let false_pos = (10_000u64..11_000).filter(|k| sbf.contains(k)).count();
        assert!(false_pos < 20, "{false_pos} false positives out of 1000");
    }

    #[test]
    fn delete_restores_zero() {
        let mut sbf = MsSbf::new(1024, 4, 3);
        sbf.insert_by(&7u64, 5);
        sbf.remove_by(&7u64, 5).unwrap();
        assert_eq!(sbf.estimate(&7u64), 0);
        assert_eq!(sbf.total_count(), 0);
    }

    #[test]
    fn update_is_delete_then_insert() {
        let mut sbf = MsSbf::new(1024, 4, 4);
        sbf.insert_by(&"session", 10);
        // Update 10 → 6 (§2.2: "updates are also allowed").
        sbf.remove_by(&"session", 10).unwrap();
        sbf.insert_by(&"session", 6);
        assert_eq!(sbf.estimate(&"session"), 6);
    }

    #[test]
    fn works_over_compressed_store() {
        let family = MixFamily::new(2048, 5, 7);
        let mut sbf: MsSbf<MixFamily, CompressedCounters> = MsSbf::from_family(family);
        for key in 0u64..100 {
            sbf.insert_by(&key, 3);
        }
        for key in 0u64..100 {
            assert!(sbf.estimate(&key) >= 3);
        }
        // Compressed storage beats 64 bits/counter comfortably here.
        assert!(sbf.storage_bits() < 2048 * 64);
    }

    /// A family whose `k` functions all collide on one slot — the worst
    /// case for per-item index dedup.
    #[derive(Debug, Clone, PartialEq)]
    struct CollidingFamily {
        inner: MixFamily,
        k: usize,
    }

    impl CollidingFamily {
        fn new(m: usize, k: usize, seed: u64) -> Self {
            CollidingFamily {
                inner: MixFamily::new(m, 1, seed),
                k,
            }
        }
    }

    impl HashFamily for CollidingFamily {
        fn k(&self) -> usize {
            self.k
        }
        fn m(&self) -> usize {
            self.inner.m()
        }
        fn indexes_into<K: Key + ?Sized>(&self, key: &K, out: &mut [usize]) {
            let mut one = [0usize; 1];
            self.inner.indexes_into(key, &mut one);
            out[..self.k].fill(one[0]);
        }
    }

    #[test]
    fn colliding_indices_count_each_insert_once() {
        // Regression: when a key's hash functions collide, the slot must be
        // bumped once per insert, not once per colliding function —
        // otherwise the estimate over-counts by up to k×.
        let mut sbf: MsSbf<CollidingFamily> = MsSbf::from_family(CollidingFamily::new(64, 4, 9));
        sbf.insert(&1u64);
        assert_eq!(sbf.estimate(&1u64), 1, "k-way collision inflated count");
        sbf.insert_by(&1u64, 4);
        assert_eq!(sbf.estimate(&1u64), 5);
        sbf.remove(&1u64).unwrap();
        assert_eq!(sbf.estimate(&1u64), 4, "dedup must hold on removes too");
    }

    #[test]
    fn colliding_indices_batch_matches_singles() {
        let keys: Vec<u64> = (0..100).map(|i| i % 13).collect();
        let mut single: MsSbf<CollidingFamily> = MsSbf::from_family(CollidingFamily::new(64, 4, 9));
        let mut batch = single.clone();
        for k in &keys {
            single.insert(k);
        }
        batch.insert_batch(&keys);
        for k in 0u64..13 {
            assert_eq!(single.estimate(&k), batch.estimate(&k));
            assert_eq!(single.estimate(&k), batch.estimate_batch(&[k])[0]);
        }
        for k in &keys {
            batch.remove(k).unwrap();
        }
        assert_eq!(batch.total_count(), 0);
        for k in 0u64..13 {
            assert_eq!(batch.estimate(&k), 0);
        }
    }

    #[test]
    fn blocked_variant_is_one_sided_and_batch_consistent() {
        let mut blocked = BlockedMsSbf::new_blocked(64, 64, 4, 11);
        assert_eq!(blocked.core().family().m(), 4096);
        let keys: Vec<u64> = (0..800).map(|i| i % 160).collect();
        blocked.insert_batch(&keys);
        assert_eq!(blocked.total_count(), 800);
        let ests = blocked.estimate_batch(&(0u64..160).collect::<Vec<_>>());
        for (k, &est) in ests.iter().enumerate() {
            assert!(est >= 5, "undercount for {k}: {est}");
            assert_eq!(est, blocked.estimate(&(k as u64)));
        }
    }

    #[test]
    fn sliding_window_by_deletion() {
        // §2.2: maintain a window of the last W items by deleting leavers.
        let mut sbf = MsSbf::new(4096, 5, 8);
        let stream: Vec<u64> = (0..1000).map(|i| i % 50).collect();
        let w = 100;
        for (t, &x) in stream.iter().enumerate() {
            sbf.insert(&x);
            if t >= w {
                sbf.remove(&stream[t - w]).unwrap();
            }
        }
        assert_eq!(sbf.total_count(), w as u64);
        // Every key still occurs exactly w/50 = 2 times in the window.
        for key in 0u64..50 {
            assert!(sbf.estimate(&key) >= 2);
        }
    }
}

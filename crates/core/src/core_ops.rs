//! The shared machinery under every SBF algorithm: `k` hashed counters,
//! bulk increment/decrement, minima inspection, union and multiply — plus
//! the two software-pipelined batch engines: ingest
//! ([`SbfCore::increment_batch`], [`SbfCore::increment_batch_picked`]) and
//! minimum ([`SbfCore::min_batch_into`], [`SbfCore::min_batch_picked_into`]).
//! Minimum Selection is the one sketch whose batched trait methods call
//! them; the other sketches answer batches with the trait's item loops.

use sbf_hash::{dispatch, HashFamily, IndexBuf, Key, SimdLevel, LANES, MAX_K};

use crate::metrics;
use crate::num;
use crate::store::{CounterStore, RemoveError};
use crate::DefaultFamily;

/// Software-pipeline depth of the batched hot path: while item `i` is
/// applied, item `i + PIPELINE_DEPTH`'s indices are hashed and their
/// counter cache lines prefetched.
///
/// The distance must cover the miss latency with useful work: one item's
/// apply step is `k` (~5) dependent counter accesses plus `k` hashes
/// (~2 ns each), so 8 items in flight put roughly 80–120 ns between a
/// line's prefetch and its use — about one DRAM round-trip — while keeping
/// the ring's own footprint (8 × `IndexBuf` ≈ 1 KiB) inside L1. Measured
/// flat on this workload from 4 to 16; see DESIGN.md "Hot path".
pub const PIPELINE_DEPTH: usize = 8;

/// The software-pipelined loop under both batch engines.
///
/// Expands to a ring-buffered "hash ahead by [`PIPELINE_DEPTH`]" loop over
/// the positions `0..n`: `hash` computes the [`IndexBuf`] of the item at
/// `pos`, `prefetch` requests its counter cache lines, `apply` consumes the
/// indices of the *current* item. Items are applied strictly in order —
/// only hashing and prefetching run ahead — so batched results are
/// bit-identical to the item-at-a-time path.
///
/// A macro rather than a higher-order function so that `hash`/`prefetch`
/// (shared borrows) and `apply` (a mutable borrow of the same core, on the
/// ingest engine) expand to *sequential* statements instead of coexisting
/// closure captures, which the borrow checker would reject.
macro_rules! pipelined_batch {
    (
        $n:expr,
        hash = |$pos:ident, $slot:ident| $hash:expr,
        prefetch = |$pidx:ident| $pre:expr,
        apply = |$idx:ident| $body:expr
    ) => {{
        let len = $n;
        let depth = PIPELINE_DEPTH.min(len);
        if depth > 0 {
            let mut ring = [IndexBuf::new(); PIPELINE_DEPTH];
            for ($pos, ring_slot) in ring.iter_mut().enumerate().take(depth) {
                {
                    let $slot = &mut *ring_slot;
                    $hash;
                }
                {
                    let $pidx = &*ring_slot;
                    $pre;
                }
            }
            for i in 0..len {
                // Borrow (not copy) the slot: `apply` consumes it before
                // the refill below overwrites it, so the shared borrow of
                // `ring` has ended by then.
                {
                    let $idx = &ring[i % PIPELINE_DEPTH];
                    $body;
                }
                let $pos = i + depth;
                if $pos < len {
                    // Hash straight into the just-vacated slot (the `hash`
                    // stage writes the slot in place — no `IndexBuf`-sized
                    // temp copy), then prefetch from it.
                    {
                        let $slot = &mut ring[i % PIPELINE_DEPTH];
                        $hash;
                    }
                    {
                        let $pidx = &ring[i % PIPELINE_DEPTH];
                        $pre;
                    }
                }
            }
        }
    }};
}

/// Whether the minimum engine's lane pass is worth dispatching for a batch
/// of `n` items: a SIMD level is active and the batch covers at least one
/// lane group.
///
/// The ingest engine deliberately stays on the scalar [`pipelined_batch!`]
/// pipeline: it is bound by the `k` read-modify-writes per item, which no
/// gather kernel can vectorise, so lane hashing only trades the scalar hash
/// for a seed-major→per-item transpose. With dedup a pairwise test,
/// lane-hashed inserts measured a median of 56–85 ns/key against 46–77 for
/// scalar on 2026-10-17 (see DESIGN.md §4i) — no win worth a second write
/// pipeline. The minimum engine wins because the minimum over a multiset
/// equals the minimum over its distinct values: dedup is skipped, and
/// (where the store exposes a plain `u64` slice) the hashes feed the
/// gathered-min kernel directly.
#[inline]
fn lanes_worthwhile(n: usize) -> bool {
    n >= LANES && sbf_hash::simd_level() != SimdLevel::Scalar
}

/// Writes the `k` counter indices of `key` into `out`, in hash-function
/// order, duplicates kept — enough for a minimum read, which a repeated
/// counter cannot change.
#[inline]
fn raw_indexes_into<F: HashFamily, K: Key + ?Sized>(family: &F, key: &K, out: &mut IndexBuf) {
    out.fill(family.k(), |slots| family.indexes_into(key, slots));
}

/// The counter values of one key, in index-set order, plus the derived
/// minimum statistics the algorithms of §2–§3 decide on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyCounters {
    /// The `k` counter indices.
    pub indexes: IndexBuf,
    values: [u64; MAX_K],
    k: usize,
}

impl KeyCounters {
    /// The `k` counter values.
    pub fn values(&self) -> &[u64] {
        &self.values[..self.k]
    }

    /// The minimal counter value `m_x` — the Minimum Selection estimate.
    pub fn min(&self) -> u64 {
        self.values().iter().copied().min().unwrap_or(0)
    }

    /// How many of the `k` counters hold the minimum.
    pub fn min_multiplicity(&self) -> usize {
        let m = self.min();
        self.values().iter().filter(|&&v| v == m).count()
    }

    /// Whether the minimum recurs (appears in ≥ 2 counters) — the
    /// error-detection signal of the Recurring Minimum method (§3.3).
    pub fn has_recurring_min(&self) -> bool {
        self.min_multiplicity() >= 2
    }

    /// The position (within the `k` functions) of the single minimum, when
    /// there is exactly one.
    pub fn single_min_slot(&self) -> Option<usize> {
        let m = self.min();
        let mut found = None;
        for (slot, &v) in self.values().iter().enumerate() {
            if v == m {
                if found.is_some() {
                    return None;
                }
                found = Some(slot);
            }
        }
        found
    }

    /// Mean of the `k` counter values (used by the unbiased estimator).
    pub fn mean(&self) -> f64 {
        if self.k == 0 {
            return 0.0;
        }
        self.values().iter().map(|&v| num::to_f64(v)).sum::<f64>() / num::to_f64(self.k)
    }
}

/// Hash family + counter store + multiplicity accounting.
///
/// Every SBF algorithm in this crate owns one (the Recurring Minimum
/// variants own two). The core does not choose an estimation policy; it
/// provides the operations the policies are written in.
#[derive(Debug, Clone)]
pub struct SbfCore<F: HashFamily = DefaultFamily, S: CounterStore = crate::PlainCounters> {
    family: F,
    store: S,
    total_count: u64,
}

impl<F: HashFamily, S: CounterStore> SbfCore<F, S> {
    /// Assembles a core from a hash family and a fresh store of matching
    /// length.
    pub fn from_family(family: F) -> Self {
        let store = S::with_len(family.m());
        SbfCore {
            family,
            store,
            total_count: 0,
        }
    }

    /// Assembles from explicit parts. `store.len()` must equal `family.m()`.
    pub fn with_parts(family: F, store: S) -> Self {
        assert_eq!(
            family.m(),
            store.len(),
            "hash range and store length disagree"
        );
        let total_count = 0;
        SbfCore {
            family,
            store,
            total_count,
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

    /// The counter store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutable counter store (for algorithm internals).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Total multiplicity currently represented (Σ inserts − Σ removes,
    /// saturating at `u64::MAX` like the counters); the `N` of the unbiased
    /// estimator (Lemma 3).
    pub fn total_count(&self) -> u64 {
        self.total_count
    }

    /// The load factor `γ = (total k-increments)/m` would need the distinct
    /// count; this reports the *occupancy*: fraction of non-zero counters.
    pub fn occupancy(&self) -> f64 {
        if self.store.len() == 0 {
            return 0.0;
        }
        let nz = (0..self.store.len())
            .filter(|&i| self.store.get(i) > 0)
            .count();
        num::to_f64(nz) / num::to_f64(self.store.len())
    }

    /// The counter indices of `key`: distinct, in hash-function order
    /// unless a collision forced a sort.
    ///
    /// This is the canonical per-key index set every mutation and every
    /// read of minimum multiplicities (RM, Trapping RM) goes through; see
    /// [`IndexBuf::dedup`] for why a colliding index is kept once. Minimum
    /// reads skip it ([`SbfCore::min_of_key`]).
    #[inline]
    pub fn key_indexes<K: Key + ?Sized>(&self, key: &K) -> IndexBuf {
        let mut idx = IndexBuf::new();
        self.key_indexes_into(key, &mut idx);
        idx
    }

    /// [`SbfCore::key_indexes`] written into a caller-owned buffer — the
    /// ingest engine's ring-refill path, which avoids copying the full
    /// `IndexBuf` struct per item (see [`IndexBuf::fill`]).
    #[inline]
    pub fn key_indexes_into<K: Key + ?Sized>(&self, key: &K, out: &mut IndexBuf) {
        raw_indexes_into(&self.family, key, out);
        out.dedup();
    }

    /// Prefetches the counter cache lines behind `idx` (no-op for stores
    /// without a linear memory layout).
    ///
    /// One hint per index, deliberately *without* deduplicating indices
    /// that share a cache line: a `line != last_line` test is an
    /// unpredictable branch (especially for the blocked layout, where all
    /// `k` indices land in one 64-counter block and the comparison is a
    /// coin flip), and a mispredict costs more than the redundant prefetch
    /// µop it saves — the load/store queue collapses duplicate requests to
    /// a resident line for free.
    #[inline]
    fn prefetch_idx(&self, idx: &IndexBuf) {
        for &i in idx.as_slice() {
            self.store.prefetch(i);
        }
    }

    /// Write-intent form of [`SbfCore::prefetch_idx`], for the ingest
    /// engine, whose apply stage *stores* to the counters: the lines are
    /// requested in exclusive state so the increments skip the
    /// read-for-ownership upgrade.
    #[inline]
    fn prefetch_idx_write(&self, idx: &IndexBuf) {
        for &i in idx.as_slice() {
            self.store.prefetch_write(i);
        }
    }

    /// The minimum counter value of a precomputed index set, without
    /// materialising a full [`KeyCounters`] — the batched estimate's inner
    /// loop.
    #[inline]
    pub fn min_of_idx(&self, idx: &IndexBuf) -> u64 {
        idx.as_slice()
            .iter()
            .map(|&i| self.store.get(i))
            .min()
            .unwrap_or(0)
    }

    /// The Minimum Selection estimate `m_x` of `key`: the minimum over its
    /// `k` counters, without dedup — a repeated index repeats a value, and
    /// the minimum over a multiset equals the minimum over its set.
    /// Equal to `key_counters(key).min()`.
    #[inline]
    pub fn min_of_key<K: Key + ?Sized>(&self, key: &K) -> u64 {
        let mut idx = IndexBuf::new();
        raw_indexes_into(&self.family, key, &mut idx);
        self.min_of_idx(&idx)
    }

    /// Reads the key's counters and minimum statistics.
    pub fn key_counters<K: Key + ?Sized>(&self, key: &K) -> KeyCounters {
        self.key_counters_idx(&self.key_indexes(key))
    }

    /// [`SbfCore::key_counters`] over a precomputed (deduplicated) index
    /// set — the batch engine hashes each key once and fans out from here.
    pub fn key_counters_idx(&self, idx: &IndexBuf) -> KeyCounters {
        let mut values = [0u64; MAX_K];
        for (slot, &i) in idx.as_slice().iter().enumerate() {
            values[slot] = self.store.get(i);
        }
        KeyCounters {
            indexes: *idx,
            values,
            k: idx.len(),
        }
    }

    /// Increments every distinct counter of `key` by `by`.
    pub fn increment_all<K: Key + ?Sized>(&mut self, key: &K, by: u64) {
        let idx = self.key_indexes(key);
        self.increment_idx(&idx, by);
    }

    /// [`SbfCore::increment_all`] over a precomputed index set, which must
    /// be distinct ([`SbfCore::key_indexes`]).
    #[inline]
    pub fn increment_idx(&mut self, idx: &IndexBuf, by: u64) {
        debug_assert!(!idx.has_duplicate(), "increment over a repeated index");
        for &i in idx.as_slice() {
            self.store.increment(i, by);
        }
        self.total_count = self.total_count.saturating_add(by);
    }

    /// Decrements every distinct counter of `key` by `by`; fails atomically
    /// (no counter is changed) if any would underflow.
    pub fn decrement_all<K: Key + ?Sized>(&mut self, key: &K, by: u64) -> Result<(), RemoveError> {
        let idx = self.key_indexes(key);
        self.decrement_idx(&idx, by)
    }

    /// [`SbfCore::decrement_all`] over a precomputed index set, which must
    /// be distinct ([`SbfCore::key_indexes`]).
    pub fn decrement_idx(&mut self, idx: &IndexBuf, by: u64) -> Result<(), RemoveError> {
        debug_assert!(!idx.has_duplicate(), "decrement over a repeated index");
        for &i in idx.as_slice() {
            if self.store.get(i) < by {
                return Err(RemoveError::Underflow { index: i });
            }
        }
        for &i in idx.as_slice() {
            self.store
                .decrement(i, by)
                .unwrap_or_else(|_| unreachable!("pre-checked decrement cannot underflow"));
        }
        self.total_count = self.total_count.saturating_sub(by);
        Ok(())
    }

    /// Decrements every distinct counter of `key` by `by`, clamping at
    /// zero. Used to reproduce Minimal Increase's behaviour under deletions
    /// (§3.2), where counters may legitimately sit below the amount being
    /// removed.
    pub fn decrement_all_saturating<K: Key + ?Sized>(&mut self, key: &K, by: u64) {
        let idx = self.key_indexes(key);
        for &i in idx.as_slice() {
            self.store.decrement_saturating(i, by);
        }
        self.total_count = self.total_count.saturating_sub(by);
    }

    /// Raises every counter of `key` to at least `floor` — the batch form
    /// of Minimal Increase (§3.2): *"increase the smallest counter(s) by r,
    /// and update every other counter to the maximum of its old value and
    /// m_x + r"*.
    pub fn raise_to_floor<K: Key + ?Sized>(&mut self, key: &K, floor: u64) {
        let idx = self.key_indexes(key);
        self.raise_to_floor_idx(&idx, floor);
    }

    /// [`SbfCore::raise_to_floor`] over a precomputed index set, which must
    /// be distinct ([`SbfCore::key_indexes`]).
    #[inline]
    pub fn raise_to_floor_idx(&mut self, idx: &IndexBuf, floor: u64) {
        debug_assert!(!idx.has_duplicate(), "raise over a repeated index");
        for &i in idx.as_slice() {
            if self.store.get(i) < floor {
                self.store.set(i, floor);
            }
        }
    }

    /// Adds one occurrence of every key. Bit-identical to calling
    /// [`SbfCore::increment_all`] with `by = 1` per key.
    pub fn increment_batch<K: Key>(&mut self, keys: &[K]) {
        self.ingest_run(keys.len(), |i| &keys[i]);
    }

    /// [`SbfCore::increment_batch`] addressed through `picks` (indices into
    /// `keys`) — the sharded backend's per-shard ingest path.
    pub fn increment_batch_picked<K: Key>(&mut self, keys: &[K], picks: &[u32]) {
        self.ingest_run(picks.len(), |i| &keys[num::to_usize(picks[i])]);
    }

    /// The ingest engine: adds one occurrence of the `n` keys `key_at(0)`,
    /// …, `key_at(n - 1)`, in that order.
    ///
    /// Pipelined with **write-intent** prefetch: increments are stores,
    /// and a read-intent hint (`PREFETCHT0`) leaves the line in shared
    /// state, so the increment still pays the read-for-ownership upgrade —
    /// which is why a read-prefetch pipeline measures no better than a
    /// fused hash-and-apply loop here. `PREFETCHW` requests the line
    /// exclusive up front, and that is what makes the insert pipeline beat
    /// the single-item loop on cache-hostile (uniform) streams; see
    /// DESIGN.md "Hot path".
    #[inline]
    fn ingest_run<'k, K: Key + 'k>(&mut self, n: usize, key_at: impl Fn(usize) -> &'k K) {
        pipelined_batch!(
            n,
            hash = |pos, slot| self.key_indexes_into(key_at(pos), slot),
            prefetch = |idx| self.prefetch_idx_write(idx),
            apply = |idx| self.increment_idx(idx, 1)
        );
    }

    /// The per-key minimum counter (the Minimum Selection estimate `m_x`)
    /// for every key, without dedup (like [`SbfCore::min_of_key`]). `out`
    /// is cleared first; `out[i]` answers `keys[i]`, exactly as
    /// `key_counters(keys[i]).min()` would.
    pub fn min_batch_into<K: Key>(&self, keys: &[K], out: &mut Vec<u64>) {
        out.clear();
        self.min_run(keys.len(), |i| &keys[i], out);
    }

    /// [`SbfCore::min_batch_into`] addressed through `picks`, *appending*
    /// to `out` (the sharded estimate scatters per-shard answers back into
    /// request order afterwards).
    pub fn min_batch_picked_into<K: Key>(&self, keys: &[K], picks: &[u32], out: &mut Vec<u64>) {
        self.min_run(picks.len(), |i| &keys[num::to_usize(picks[i])], out);
    }

    /// The minimum engine: appends the minimum counter of each of the `n`
    /// keys `key_at(0)`, …, `key_at(n - 1)` to `out`, in that order.
    ///
    /// Batches covering a lane group on a store with a plain `u64` slice
    /// take the SIMD lane pass ([`SbfCore::min_lanes_run`]); the rest take
    /// the scalar pipeline with read-intent prefetch. Both answer
    /// bit-identically to per-key [`SbfCore::min_of_key`].
    #[inline]
    fn min_run<'k, K: Key + 'k>(
        &self,
        n: usize,
        key_at: impl Fn(usize) -> &'k K,
        out: &mut Vec<u64>,
    ) {
        out.reserve(n);
        if lanes_worthwhile(n) {
            if let Some(counters) = self.store.as_u64_slice() {
                self.min_lanes_run(counters, n, |i| key_at(i).canonical(), out);
                return;
            }
        }
        pipelined_batch!(
            n,
            hash = |pos, slot| raw_indexes_into(&self.family, key_at(pos), slot),
            prefetch = |idx| self.prefetch_idx(idx),
            apply = |idx| out.push(self.min_of_idx(idx))
        );
    }

    /// The SIMD estimate worker: hashes lane groups through the family's
    /// vector kernel straight into seed-major stages (no [`IndexBuf`], no
    /// [`IndexBuf::dedup`] — the minimum over a multiset equals the
    /// minimum over its distinct values, so the answers stay bit-identical
    /// to the scalar path) and reduces each group with the gathered-min
    /// kernel. Two lane groups stay hashed-and-prefetched ahead, matching
    /// [`PIPELINE_DEPTH`] items in flight.
    fn min_lanes_run(
        &self,
        counters: &[u64],
        n: usize,
        canon: impl Fn(usize) -> u64,
        out: &mut Vec<u64>,
    ) {
        let k = self.family.k();
        let groups = n / LANES;
        // Ring of 3 so the refill (2 groups ahead) never lands on a stage
        // that is still unconsumed.
        let mut stages = [[0usize; LANES * MAX_K]; 3];
        let ahead = 2.min(groups);
        for (g, stage) in stages.iter_mut().enumerate().take(ahead) {
            let b = g * LANES;
            let vs = [canon(b), canon(b + 1), canon(b + 2), canon(b + 3)];
            self.family.indexes_lanes(vs, &mut stage[..k * LANES]);
            for &i in &stage[..k * LANES] {
                sbf_hash::prefetch_slice(counters, i);
            }
        }
        for g in 0..groups {
            let refill = g + ahead;
            if refill < groups {
                let b = refill * LANES;
                let vs = [canon(b), canon(b + 1), canon(b + 2), canon(b + 3)];
                let stage = &mut stages[refill % 3];
                self.family.indexes_lanes(vs, &mut stage[..k * LANES]);
                for &i in &stage[..k * LANES] {
                    sbf_hash::prefetch_slice(counters, i);
                }
            }
            let mins = dispatch::min_gather_lanes(counters, &stages[g % 3][..k * LANES], k);
            out.extend_from_slice(&mins);
        }
        for j in groups * LANES..n {
            let v = canon(j);
            let mut idx = [0usize; MAX_K];
            self.family.indexes_into(&v, &mut idx[..k]);
            out.push(idx[..k].iter().map(|&i| counters[i]).min().unwrap_or(0));
        }
    }

    /// Bumps the internal multiplicity account (for algorithms that bypass
    /// [`Self::increment_all`]).
    pub fn add_to_total(&mut self, by: u64) {
        self.total_count = self.total_count.saturating_add(by);
    }

    /// Lowers the internal multiplicity account.
    pub fn sub_from_total(&mut self, by: u64) {
        self.total_count = self.total_count.saturating_sub(by);
    }

    /// Whether `other` was built with identical parameters and hash
    /// functions — the precondition for union and multiply (§2.2).
    pub fn compatible<S2: CounterStore>(&self, other: &SbfCore<F, S2>) -> bool
    where
        F: PartialEq,
    {
        self.family == other.family
    }

    /// Counter-wise addition: the distributed union of §2.2 (*"SBFs can be
    /// united simply by addition of their counter vectors"*).
    pub fn union_assign<S2: CounterStore>(&mut self, other: &SbfCore<F, S2>)
    where
        F: PartialEq,
    {
        assert!(
            self.compatible(other),
            "union requires identical parameters and hash functions"
        );
        for i in 0..self.store.len() {
            let o = other.store.get(i);
            if o > 0 {
                self.store.increment(i, o);
            }
        }
        self.total_count = self.total_count.saturating_add(other.total_count);
    }

    /// Counter-wise multiplication: the join synopsis of §2.2 (*"the
    /// counter vectors are linearly multiplied to generate an SBF
    /// representing the join of the two relations"*).
    ///
    /// A product past `u64::MAX` saturates there, like
    /// [`CounterStore::increment`], and each clamp counts in
    /// `sbf_counter_saturations_total`; a saturated product is still an
    /// upper bound on the joined frequency.
    pub fn multiply_assign<S2: CounterStore>(&mut self, other: &SbfCore<F, S2>)
    where
        F: PartialEq,
    {
        assert!(
            self.compatible(other),
            "multiply requires identical parameters and hash functions"
        );
        let mut total = 0u64;
        for i in 0..self.store.len() {
            let v = self
                .store
                .get(i)
                .checked_mul(other.store.get(i))
                .unwrap_or_else(|| {
                    metrics::on(|m| m.saturations.inc());
                    u64::MAX
                });
            self.store.set(i, v);
            total = total.saturating_add(v);
        }
        // Multiplicity accounting is heuristic after a multiply; expose the
        // counter mass divided by k as the best available figure.
        self.total_count = total / num::to_u64(self.k().max(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PlainCounters;
    use sbf_hash::MixFamily;

    type Core = SbfCore<MixFamily, PlainCounters>;

    fn core(m: usize, k: usize, seed: u64) -> Core {
        SbfCore::from_family(MixFamily::new(m, k, seed))
    }

    #[test]
    fn increment_then_min_is_at_least_count() {
        let mut c = core(1024, 5, 1);
        c.increment_all(&7u64, 3);
        c.increment_all(&7u64, 2);
        assert!(c.key_counters(&7u64).min() >= 5);
        assert_eq!(c.total_count(), 5);
    }

    #[test]
    fn decrement_is_atomic_on_underflow() {
        let mut c = core(64, 4, 2);
        c.increment_all(&1u64, 2);
        let before: Vec<u64> = (0..64).map(|i| c.store().get(i)).collect();
        assert!(c.decrement_all(&1u64, 3).is_err());
        let after: Vec<u64> = (0..64).map(|i| c.store().get(i)).collect();
        assert_eq!(before, after, "failed removal must not change any counter");
        assert!(c.decrement_all(&1u64, 2).is_ok());
        assert_eq!(c.key_counters(&1u64).min(), 0);
    }

    #[test]
    fn recurring_minimum_detection() {
        let mut c = core(4096, 5, 3);
        c.increment_all(&99u64, 10);
        let kc = c.key_counters(&99u64);
        // With an empty filter all k counters are exactly 10.
        assert_eq!(kc.min(), 10);
        assert!(kc.has_recurring_min());
        assert_eq!(kc.single_min_slot(), None);
        assert_eq!(kc.min_multiplicity(), 5);
    }

    #[test]
    fn single_min_slot_identified() {
        let mut c = core(4096, 3, 4);
        c.increment_all(&5u64, 1);
        // Manually bump all but the last distinct counter to fabricate a
        // single min (slots follow the canonical index order: distinct, in
        // hash-function order unless a collision forced a sort).
        let idx = c.key_indexes(&5u64);
        let last = idx.len() - 1;
        for &i in &idx.as_slice()[..last] {
            c.store_mut().increment(i, 7);
        }
        let kc = c.key_counters(&5u64);
        assert_eq!(kc.single_min_slot(), Some(last));
        assert!(!kc.has_recurring_min());
    }

    #[test]
    fn key_counters_equality_ignores_stale_index_slots() {
        let c = core(64, 3, 1);
        // A reused buffer keeps a stale third slot past its length.
        let mut reused = IndexBuf::new();
        reused.fill(3, |s| s.copy_from_slice(&[1, 2, 3]));
        reused.fill(2, |s| s.copy_from_slice(&[1, 2]));
        let mut fresh = IndexBuf::new();
        fresh.fill(2, |s| s.copy_from_slice(&[1, 2]));
        assert_eq!(c.key_counters_idx(&reused), c.key_counters_idx(&fresh));
    }

    #[test]
    fn union_adds_counters() {
        let mut a = core(512, 4, 9);
        let mut b = core(512, 4, 9);
        a.increment_all(&10u64, 3);
        b.increment_all(&10u64, 4);
        b.increment_all(&20u64, 1);
        a.union_assign(&b);
        assert!(a.key_counters(&10u64).min() >= 7);
        assert!(a.key_counters(&20u64).min() >= 1);
        assert_eq!(a.total_count(), 8);
    }

    #[test]
    #[should_panic(expected = "identical parameters")]
    fn union_rejects_different_seeds() {
        let mut a = core(512, 4, 9);
        let b = core(512, 4, 10);
        a.union_assign(&b);
    }

    #[test]
    fn multiply_zeroes_disjoint_keys() {
        let mut a = core(2048, 5, 11);
        let mut b = core(2048, 5, 11);
        a.increment_all(&1u64, 5);
        b.increment_all(&1u64, 3);
        a.increment_all(&2u64, 5); // only in a
        b.increment_all(&3u64, 4); // only in b
        a.multiply_assign(&b);
        assert!(a.key_counters(&1u64).min() >= 15);
        assert_eq!(a.key_counters(&2u64).min(), 0);
        assert_eq!(a.key_counters(&3u64).min(), 0);
    }

    #[test]
    fn raise_to_floor_only_raises() {
        let mut c = core(256, 4, 5);
        c.increment_all(&8u64, 10);
        c.raise_to_floor(&8u64, 6); // below current values: no-op
        assert_eq!(c.key_counters(&8u64).min(), 10);
        c.raise_to_floor(&8u64, 12);
        assert_eq!(c.key_counters(&8u64).min(), 12);
    }

    #[test]
    fn batch_engine_matches_singles_across_depth_boundaries() {
        // Exercise batch lengths around PIPELINE_DEPTH: empty, shorter than
        // the ring, exactly the ring, and several multiples past it — for
        // both engines, addressed directly and through reversed picks.
        for n in [0usize, 1, 7, 8, 9, 40] {
            let keys: Vec<u64> = (0..n as u64).map(|i| i % 11).collect();
            let picks: Vec<u32> = (0..n as u32).rev().collect();
            let mut single = core(512, 5, 7);
            let mut batch = core(512, 5, 7);
            let mut by_pick = core(512, 5, 7);
            for k in &keys {
                single.increment_all(k, 1);
            }
            batch.increment_batch(&keys);
            by_pick.increment_batch_picked(&keys, &picks);
            assert_eq!(batch.total_count(), single.total_count(), "n={n}");
            assert_eq!(by_pick.total_count(), single.total_count(), "n={n}");
            let probes: Vec<u64> = (0..n as u64).map(|i| i % 16).collect();
            let want: Vec<u64> = probes
                .iter()
                .map(|p| single.key_counters(p).min())
                .collect();
            let mut got = Vec::new();
            batch.min_batch_into(&probes, &mut got);
            assert_eq!(got, want, "n={n}");
            let mut picked = vec![u64::MAX];
            by_pick.min_batch_picked_into(&probes, &picks, &mut picked);
            let want_picked: Vec<u64> = std::iter::once(u64::MAX)
                .chain(picks.iter().map(|&j| want[j as usize]))
                .collect();
            assert_eq!(picked, want_picked, "picked n={n}");
        }
    }

    #[test]
    fn min_batch_reuses_buffer_without_stale_entries() {
        let mut c = core(256, 4, 3);
        c.increment_all(&5u64, 9);
        let mut out = vec![111, 222, 333, 444, 555];
        c.min_batch_into(&[5u64, 6u64], &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], 9);
    }

    #[test]
    fn occupancy_counts_nonzero() {
        let mut c = core(100, 1, 6);
        assert_eq!(c.occupancy(), 0.0);
        c.increment_all(&1u64, 1);
        assert!((c.occupancy() - 0.01).abs() < 1e-9);
    }
}

//! Counter storage backends.
//!
//! The accuracy experiments of the paper treat the SBF as an abstract
//! vector of counters; Section 4 then shows how to store that vector in
//! `N + o(N) + O(m)` bits. Both views live here behind one trait:
//!
//! * [`PlainCounters`] — one `u32` per counter, sticky at `u32::MAX`: a
//!   counter whose value would reach `u32::MAX` is pinned there and reads
//!   `u64::MAX` from then on. Fast, simple, and what sbfd serves and the
//!   accuracy sweeps use (the paper's experiments in §6.1–§6.2 likewise
//!   measure estimation error independently of the encoding).
//! * [`CompressedCounters`] — the dynamic String-Array-Index representation
//!   of §4.4, at near-minimal bits with slack for growth.
//! * [`CompactCounters`] — the §4.5 Elias-coded representation made
//!   dynamic; smallest of all, at a bounded sequential-decode access cost.
//!
//! Every store reads and writes `u64` values; the width a store keeps is
//! its own business.

use sbf_encoding::DecodeSink;
use sbf_hash::dispatch::widen_counter;
use sbf_sai::{CompactConfig, DynamicCompactArray, DynamicConfig, DynamicCounterArray};

use crate::metrics;

/// Error from a removal the sketch cannot perform.
///
/// Distinguishes the two failure modes the paper's algorithms exhibit: a
/// counter that would go negative (MS/RM refuse such removals atomically),
/// and an algorithm that does not support deletions at all (Minimal
/// Increase, §3.2 — deleting would introduce false negatives).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoveError {
    /// The removal would drive the counter at `index` below zero.
    Underflow {
        /// Index of the counter that would underflow.
        index: usize,
    },
    /// The sketch's algorithm cannot delete soundly (Minimal Increase).
    Unsupported,
}

impl std::fmt::Display for RemoveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoveError::Underflow { index } => {
                write!(f, "removal would drive counter {index} below zero")
            }
            RemoveError::Unsupported => {
                write!(f, "this sketch algorithm does not support deletions")
            }
        }
    }
}

impl std::error::Error for RemoveError {}

/// A fixed-length vector of counters, read and written as `u64` values.
pub trait CounterStore {
    /// Creates a store of `m` zero counters.
    fn with_len(m: usize) -> Self;

    /// Number of counters.
    fn len(&self) -> usize;

    /// Whether the store has no counters.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads counter `i`.
    fn get(&self, i: usize) -> u64;

    /// Overwrites counter `i`.
    fn set(&mut self, i: usize, v: u64);

    /// Hints that counter `i` will be read or written shortly.
    ///
    /// The batched hot path calls this for item `i+D`'s counters while item
    /// `i` is being applied, hiding cache-miss latency behind useful work.
    /// Purely advisory: the default is a no-op, which is also the right
    /// answer for encoded stores ([`CompressedCounters`],
    /// [`CompactCounters`]) whose counter position in memory is not an
    /// affine function of `i`.
    #[inline]
    fn prefetch(&self, _i: usize) {}

    /// Write-intent form of [`CounterStore::prefetch`]: hints that counter
    /// `i` will be *stored to* shortly, so the line should be acquired in
    /// exclusive state (skipping the read-for-ownership upgrade a plain
    /// read hint would leave behind). Defaults to a no-op for the same
    /// reasons as `prefetch`.
    #[inline]
    fn prefetch_write(&self, _i: usize) {}

    /// Adds `by` to counter `i`, saturating at the store's ceiling.
    ///
    /// Saturating (rather than panicking) semantics are deliberate: the
    /// ingest path runs behind server locks, and a hostile or merely
    /// long-running stream must not be able to panic a thread mid-insert.
    /// Saturation preserves the paper's one-sided contract — a pinned
    /// counter can only *over*-estimate. The encoded stores pin at
    /// `u64::MAX`; [`PlainCounters`] pins at `u32::MAX` and reads the
    /// pinned counter as `u64::MAX` (its sticky rule). It is documented
    /// behaviour in every build, not a bug: a single INSERT with a count of
    /// 2³² or more, or a MERGE onto a counter that holds one, reaches it.
    /// Telemetry counts each clamp in `sbf_counter_saturations_total`.
    fn increment(&mut self, i: usize, by: u64) {
        let v = self.get(i);
        let (next, overflowed) = v.overflowing_add(by);
        if overflowed {
            metrics::on(|m| m.saturations.inc());
            self.set(i, u64::MAX);
        } else {
            self.set(i, next);
        }
    }

    /// Subtracts `by` from counter `i`, failing on underflow.
    fn decrement(&mut self, i: usize, by: u64) -> Result<(), RemoveError> {
        let v = self.get(i);
        if by > v {
            return Err(RemoveError::Underflow { index: i });
        }
        self.set(i, v - by);
        Ok(())
    }

    /// Subtracts `by`, clamping at zero (used by Minimal Increase under
    /// deletions, which the paper shows produces false negatives — the
    /// clamp keeps the counters well-defined while reproducing that
    /// behaviour).
    fn decrement_saturating(&mut self, i: usize, by: u64) {
        let v = self.get(i);
        self.set(i, v.saturating_sub(by));
    }

    /// Storage footprint in bits (for the paper's size comparisons).
    fn storage_bits(&self) -> usize;

    /// The counters as one contiguous `u32` slice, when the store has that
    /// layout ([`PlainCounters`]). The batched estimate uses this to
    /// dispatch its SIMD gather-min kernel; encoded stores (whose counter
    /// positions are not an affine function of the index) return `None`
    /// and take the scalar path. Each word, widened by
    /// [`widen_counter`], must be the value `get` reports.
    #[inline]
    fn as_u32_slice(&self) -> Option<&[u32]> {
        None
    }
}

/// The stored word of a stuck [`PlainCounters`] counter.
const STUCK: u32 = u32::MAX;

/// Narrows the exact result `v` of a write to the stored word. A result at
/// or past [`STUCK`] sticks there and counts once in
/// `sbf_counter_saturations_total` — unless it is exactly `u64::MAX`,
/// which the stuck counter reads back unchanged, so nothing was clamped.
#[inline]
fn narrow(v: u64) -> u32 {
    match u32::try_from(v) {
        Ok(c) if c != STUCK => c,
        _ => {
            if v != u64::MAX {
                metrics::on(|m| m.saturations.inc());
            }
            STUCK
        }
    }
}

/// One 32-bit word per counter, sticky at `u32::MAX`.
///
/// A write whose result would reach `u32::MAX` stores `u32::MAX`, and the
/// counter is then *stuck*: it reads `u64::MAX`, increments and decrements
/// leave it there, and only [`CounterStore::set`] overwrites it. A stuck
/// counter reads at least the true count of every key hashed to it, so
/// f̂ ≥ f holds without an escape table. The price is accuracy: a stuck
/// counter no longer follows removals, and a key whose `k` counters all
/// stuck reads `u64::MAX`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlainCounters {
    counters: Vec<u32>,
}

impl PlainCounters {
    /// The counters in index order, as `get` reads them (a stuck counter
    /// as `u64::MAX`) — the envelope encoder's input.
    pub fn values(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.counters.iter().map(|&c| widen_counter(c))
    }
}

impl From<Vec<u64>> for PlainCounters {
    /// Narrows `counters` into a store in one pass, each value of
    /// `u32::MAX` or more sticking as a write of it would.
    fn from(counters: Vec<u64>) -> Self {
        PlainCounters {
            counters: counters.into_iter().map(narrow).collect(),
        }
    }
}

/// A decoder fills an empty (`Default`) store with a filter envelope's
/// counters, each narrowing as a write of it would, with no `u64` copy of
/// the frame.
impl DecodeSink for PlainCounters {
    #[inline]
    fn reserve(&mut self, additional: usize) {
        self.counters.reserve_exact(additional);
    }

    #[inline]
    fn push(&mut self, value: u64) {
        self.counters.push(narrow(value));
    }
}

impl CounterStore for PlainCounters {
    fn with_len(m: usize) -> Self {
        PlainCounters {
            counters: vec![0; m],
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.counters.len()
    }

    #[inline]
    fn get(&self, i: usize) -> u64 {
        widen_counter(self.counters[i])
    }

    #[inline]
    fn set(&mut self, i: usize, v: u64) {
        self.counters[i] = narrow(v);
    }

    #[inline]
    fn prefetch(&self, i: usize) {
        sbf_hash::prefetch_slice(&self.counters, i);
    }

    #[inline]
    fn prefetch_write(&self, i: usize) {
        sbf_hash::prefetch_slice_write(&self.counters, i);
    }

    #[inline]
    fn increment(&mut self, i: usize, by: u64) {
        let c = &mut self.counters[i];
        *c = match widen_counter(*c).checked_add(by) {
            Some(v) => narrow(v),
            None => {
                metrics::on(|m| m.saturations.inc());
                STUCK
            }
        };
    }

    fn decrement(&mut self, i: usize, by: u64) -> Result<(), RemoveError> {
        let c = &mut self.counters[i];
        if *c != STUCK {
            let v = u64::from(*c);
            if by > v {
                return Err(RemoveError::Underflow { index: i });
            }
            *c = narrow(v - by);
        }
        Ok(())
    }

    fn decrement_saturating(&mut self, i: usize, by: u64) {
        let c = &mut self.counters[i];
        if *c != STUCK {
            *c = narrow(u64::from(*c).saturating_sub(by));
        }
    }

    fn storage_bits(&self) -> usize {
        self.counters.len() * 32
    }

    #[inline]
    fn as_u32_slice(&self) -> Option<&[u32]> {
        Some(&self.counters)
    }
}

/// The §4 compressed representation: counters at `⌈log C⌉` bits with slack,
/// amortized O(1) updates.
#[derive(Debug, Clone)]
pub struct CompressedCounters {
    inner: DynamicCounterArray,
}

impl CompressedCounters {
    /// Creates with an explicit dynamic-array configuration.
    pub fn with_config(m: usize, cfg: DynamicConfig) -> Self {
        CompressedCounters {
            inner: DynamicCounterArray::with_config(m, cfg),
        }
    }

    /// The underlying dynamic array (for maintenance statistics).
    pub fn inner(&self) -> &DynamicCounterArray {
        &self.inner
    }
}

impl CounterStore for CompressedCounters {
    fn with_len(m: usize) -> Self {
        CompressedCounters {
            inner: DynamicCounterArray::new(m),
        }
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn get(&self, i: usize) -> u64 {
        self.inner.get(i)
    }

    fn set(&mut self, i: usize, v: u64) {
        self.inner.set(i, v);
    }

    fn decrement(&mut self, i: usize, by: u64) -> Result<(), RemoveError> {
        self.inner
            .decrement(i, by)
            .map_err(|_| RemoveError::Underflow { index: i })
    }

    fn storage_bits(&self) -> usize {
        self.inner.total_bits()
    }
}

/// The §4.5 dynamic compact representation: Elias-δ-coded counters with
/// per-group slack and **no per-item bookkeeping** — the smallest mutable
/// backend, at ≤ `group_size` codeword decodes per access.
#[derive(Debug, Clone)]
pub struct CompactCounters {
    inner: DynamicCompactArray,
}

impl CompactCounters {
    /// Creates with an explicit configuration.
    pub fn with_config(m: usize, cfg: CompactConfig) -> Self {
        CompactCounters {
            inner: DynamicCompactArray::with_config(sbf_encoding::EliasDelta, m, cfg),
        }
    }

    /// The underlying array (for maintenance statistics).
    pub fn inner(&self) -> &DynamicCompactArray {
        &self.inner
    }
}

impl CounterStore for CompactCounters {
    fn with_len(m: usize) -> Self {
        CompactCounters {
            inner: DynamicCompactArray::new(m),
        }
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn get(&self, i: usize) -> u64 {
        self.inner.get(i)
    }

    fn set(&mut self, i: usize, v: u64) {
        self.inner.set(i, v);
    }

    fn decrement(&mut self, i: usize, by: u64) -> Result<(), RemoveError> {
        self.inner
            .decrement(i, by)
            .map_err(|_| RemoveError::Underflow { index: i })
    }

    fn storage_bits(&self) -> usize {
        self.inner.total_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract every store keeps; `big_reads_as` is what the store
    /// reads back after `set(_, u64::MAX / 2)` — the value itself, or
    /// `u64::MAX` for the sticky 32-bit plain store.
    fn exercise<S: CounterStore>(big_reads_as: u64) {
        let mut s = S::with_len(100);
        assert_eq!(s.len(), 100);
        for i in 0..100 {
            assert_eq!(s.get(i), 0);
        }
        s.increment(7, 5);
        s.increment(7, 5);
        assert_eq!(s.get(7), 10);
        s.decrement(7, 3).unwrap();
        assert_eq!(s.get(7), 7);
        assert!(s.decrement(7, 8).is_err());
        assert_eq!(s.get(7), 7, "failed decrement must not mutate");
        s.decrement_saturating(7, 100);
        assert_eq!(s.get(7), 0);
        s.set(99, u64::MAX / 2);
        assert_eq!(s.get(99), big_reads_as);
        assert!(s.storage_bits() > 0);
    }

    #[test]
    fn plain_counters_contract() {
        exercise::<PlainCounters>(u64::MAX);
    }

    #[test]
    fn compressed_counters_contract() {
        exercise::<CompressedCounters>(u64::MAX / 2);
    }

    #[test]
    fn compact_counters_contract() {
        exercise::<CompactCounters>(u64::MAX / 2);
    }

    /// `u32::MAX`, the sticky word, as a value.
    const TOP: u64 = (1 << 32) - 1;

    #[test]
    fn plain_increment_crossing_u32_max_sticks() {
        let mut s = PlainCounters::with_len(4);
        s.set(0, TOP - 2);
        s.increment(0, 1);
        assert_eq!(s.get(0), TOP - 1, "the largest live value reads exactly");
        s.increment(0, 1);
        assert_eq!(s.get(0), u64::MAX, "reaching u32::MAX sticks");
        s.increment(0, 5);
        assert_eq!(s.get(0), u64::MAX);
        // A jump past the top from below, and from zero.
        s.set(1, TOP - 1);
        s.increment(1, 2);
        assert_eq!(s.get(1), u64::MAX);
        s.increment(2, u64::MAX);
        assert_eq!(s.get(2), u64::MAX);
        assert_eq!(s.get(3), 0);
        assert_eq!(s.storage_bits(), 4 * 32);
    }

    #[test]
    fn plain_set_above_u32_max_sticks() {
        let mut s = PlainCounters::with_len(4);
        s.set(0, TOP);
        s.set(1, TOP + 7);
        s.set(2, TOP - 1);
        s.set(3, u64::MAX);
        assert_eq!(s.get(0), u64::MAX);
        assert_eq!(s.get(1), u64::MAX);
        assert_eq!(s.get(2), TOP - 1);
        assert_eq!(s.get(3), u64::MAX);
        // `set` is the one write that overwrites a stuck counter.
        s.set(0, 3);
        assert_eq!(s.get(0), 3);
        // Restoring from wide values narrows by the same rule.
        let restored = PlainCounters::from(vec![TOP - 1, TOP, u64::MAX / 2, 9]);
        assert_eq!(
            restored.values().collect::<Vec<_>>(),
            vec![TOP - 1, u64::MAX, u64::MAX, 9]
        );
    }

    #[test]
    fn plain_decrements_leave_a_stuck_counter_stuck() {
        let mut s = PlainCounters::with_len(2);
        s.set(0, TOP + 1);
        s.decrement(0, 1).unwrap();
        assert_eq!(s.get(0), u64::MAX);
        s.decrement(0, u64::MAX).unwrap();
        assert_eq!(s.get(0), u64::MAX);
        s.decrement_saturating(0, u64::MAX);
        assert_eq!(s.get(0), u64::MAX);
        // A live counter just below the top still decrements exactly.
        s.set(1, TOP - 1);
        s.decrement(1, 1).unwrap();
        assert_eq!(s.get(1), TOP - 2);
    }

    #[test]
    fn plain_union_and_multiply_into_stuck_counters() {
        use crate::SbfCore;
        use sbf_hash::MixFamily;
        type Core = SbfCore<MixFamily, PlainCounters>;
        let core = || Core::from_family(MixFamily::new(256, 3, 5));
        let (hot, near, cold) = (1u64, 2u64, 3u64);

        let mut a = core();
        a.increment_all(&hot, TOP + 1);
        a.increment_all(&near, TOP - 3);
        let mut b = core();
        b.increment_all(&hot, 4);
        b.increment_all(&near, 5);
        b.increment_all(&cold, 2);
        a.union_assign(&b);
        assert_eq!(a.min_of_key(&hot), u64::MAX, "stuck counters stay stuck");
        assert_eq!(a.min_of_key(&near), u64::MAX, "a union past the top sticks");
        assert!(a.min_of_key(&cold) >= 2);

        // Stuck × live sticks; stuck × 0 is overwritten by the product.
        let mut c = core();
        c.increment_all(&hot, 2);
        c.increment_all(&near, 70_000);
        let mut joined = a.clone();
        joined.multiply_assign(&c);
        assert_eq!(joined.min_of_key(&hot), u64::MAX);
        let empty = core();
        joined.multiply_assign(&empty);
        assert_eq!(joined.min_of_key(&hot), 0);
        // 70,000² passes u32::MAX: the product sticks.
        let mut squared = c.clone();
        squared.multiply_assign(&c);
        assert_eq!(squared.min_of_key(&near), u64::MAX);
        assert_eq!(squared.min_of_key(&hot), 4);
    }

    #[test]
    fn compact_is_smallest_backend_on_sparse_data() {
        let mut plain = PlainCounters::with_len(10_000);
        let mut compressed = CompressedCounters::with_len(10_000);
        let mut compact = CompactCounters::with_len(10_000);
        for i in (0..10_000).step_by(40) {
            plain.increment(i, 5);
            compressed.increment(i, 5);
            compact.increment(i, 5);
        }
        assert!(compact.storage_bits() < compressed.storage_bits());
        assert!(compressed.storage_bits() < plain.storage_bits());
    }

    #[test]
    fn plain_and_compressed_agree_under_identical_ops() {
        let mut a = PlainCounters::with_len(64);
        let mut b = CompressedCounters::with_len(64);
        let mut x = 42u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let i = (x >> 33) as usize % 64;
            let by = x % 50;
            a.increment(i, by);
            b.increment(i, by);
        }
        for i in 0..64 {
            assert_eq!(a.get(i), b.get(i), "counter {i}");
        }
        // Compressed must be far smaller than 64 bits/counter here.
        assert!(b.storage_bits() < a.storage_bits());
    }

    #[test]
    fn compressed_reports_smaller_storage_for_sparse_data() {
        let mut c = CompressedCounters::with_len(10_000);
        for i in (0..10_000).step_by(100) {
            c.increment(i, 3);
        }
        // ~1 bit per counter + bookkeeping: far below the plain 640k bits.
        assert!(c.storage_bits() < PlainCounters::with_len(10_000).storage_bits());
    }
}

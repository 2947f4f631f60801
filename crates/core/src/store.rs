//! Counter storage backends.
//!
//! The accuracy experiments of the paper treat the SBF as an abstract
//! vector of counters; Section 4 then shows how to store that vector in
//! `N + o(N) + O(m)` bits. Both views live here behind one trait:
//!
//! * [`PlainCounters`] — one `u64` per counter. Fast, simple, and what the
//!   accuracy sweeps use (the paper's experiments in §6.1–§6.2 likewise
//!   measure estimation error independently of the encoding).
//! * [`CompressedCounters`] — the dynamic String-Array-Index representation
//!   of §4.4, at near-minimal bits with slack for growth.
//! * [`CompactCounters`] — the §4.5 Elias-coded representation made
//!   dynamic; smallest of all, at a bounded sequential-decode access cost.

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

/// A fixed-length vector of `u64` counters.
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

    /// Adds `by` to counter `i`, saturating at `u64::MAX`.
    ///
    /// Saturating (rather than panicking) semantics are deliberate: the
    /// ingest path runs behind server locks, and a hostile or merely
    /// long-running stream must not be able to panic a thread mid-insert.
    /// Saturation preserves the paper's one-sided contract — a pinned
    /// counter can only *over*-estimate. It is documented behaviour in
    /// every build, not a bug: a single INSERT with `count = u64::MAX`, or a
    /// MERGE onto a counter that holds one, reaches it. Telemetry counts
    /// each clamp in `sbf_counter_saturations_total`.
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

    /// The counters as one contiguous `u64` slice, when the store has that
    /// layout. The batched estimate uses this to dispatch its SIMD
    /// gather-min kernel; encoded stores (whose counter positions are not
    /// an affine function of the index) return `None` and take the scalar
    /// path. Must view the same values `get` reports.
    #[inline]
    fn as_u64_slice(&self) -> Option<&[u64]> {
        None
    }
}

/// One machine word per counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlainCounters {
    counters: Vec<u64>,
}

impl PlainCounters {
    /// Direct access to the raw counters (used by union/multiply).
    pub fn as_slice(&self) -> &[u64] {
        &self.counters
    }

    /// Mutable access to the raw counters.
    pub fn as_mut_slice(&mut self) -> &mut [u64] {
        &mut self.counters
    }
}

impl From<Vec<u64>> for PlainCounters {
    /// Adopts `counters` as the store, without a copy.
    fn from(counters: Vec<u64>) -> Self {
        PlainCounters { counters }
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
        self.counters[i]
    }

    #[inline]
    fn set(&mut self, i: usize, v: u64) {
        self.counters[i] = v;
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
        let v = self.counters[i];
        let (next, overflowed) = v.overflowing_add(by);
        if overflowed {
            metrics::on(|m| m.saturations.inc());
            self.counters[i] = u64::MAX;
        } else {
            self.counters[i] = next;
        }
    }

    fn storage_bits(&self) -> usize {
        self.counters.len() * 64
    }

    #[inline]
    fn as_u64_slice(&self) -> Option<&[u64]> {
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

    fn exercise<S: CounterStore>() {
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
        assert_eq!(s.get(99), u64::MAX / 2);
        assert!(s.storage_bits() > 0);
    }

    #[test]
    fn plain_counters_contract() {
        exercise::<PlainCounters>();
    }

    #[test]
    fn compressed_counters_contract() {
        exercise::<CompressedCounters>();
    }

    #[test]
    fn compact_counters_contract() {
        exercise::<CompactCounters>();
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

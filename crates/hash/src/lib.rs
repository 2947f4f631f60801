//! Hash-function families for Bloom filters and Spectral Bloom Filters.
//!
//! The SBF paper (Cohen & Matias, SIGMOD 2003) uses `k` hash functions
//! `h_1 .. h_k` mapping keys from a universe `U` into counter positions
//! `{0 .. m-1}`. This crate provides:
//!
//! * [`Key`] — a trait turning application keys (integers, strings, byte
//!   slices) into a canonical 64-bit value,
//! * [`HashFamily`] — the abstraction the filter crates program against,
//! * [`MultiplyFamily`] — the paper's "modulo/multiply" family
//!   `H(v) = ⌈m·(αv mod 1)⌉` realized in 64-bit fixed point,
//! * [`MixFamily`] — a SplitMix64-based family with much better diffusion
//!   (the recommended default),
//! * [`DoubleHashFamily`] — Kirsch–Mitzenmacher double hashing, deriving all
//!   `k` indices from two base hashes,
//! * [`TabulationFamily`] — simple tabulation (3-independent with
//!   Chernoff-grade concentration), the provable-guarantees option,
//! * [`BlockedFamily`] — the external-memory scheme of Manber & Wu
//!   (§2.2 "External memory SBF"): a first-level hash picks a block, the
//!   `k` functions hash within that block, confining each lookup to one
//!   block of storage.
//!
//! All families are deterministic given their seed, so filters built with
//! equal parameters can be united or multiplied counter-wise as the paper
//! requires for distributed processing.

// Library code must surface failures as `Result`/documented panics, never
// ad-hoc `unwrap`/`expect` (ISSUE 4 lint wall); tests keep idiomatic unwraps.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// `deny` rather than `forbid`: the `prefetch` and `dispatch` modules
// narrowly re-allow unsafe for the architecture intrinsics they wrap (a
// faultless cache hint; runtime-feature-gated SIMD kernels with documented
// safety arguments); everything else in the crate remains statically
// unsafe-free, and downstream crates (`spectral-bloom` among them) keep
// their own `#![forbid(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod blocked;
pub mod dispatch;
pub mod family;
pub mod key;
pub mod mix;
pub mod prefetch;
pub mod quality;
pub(crate) mod sync;
pub mod tabulation;

pub use blocked::BlockedFamily;
pub use dispatch::{set_simd_level, simd_level, SimdLevel, LANES};
pub use family::{DoubleHashFamily, HashFamily, MixFamily, MultiplyFamily};
pub use key::Key;
pub use mix::{fmix64, splitmix64, SplitMix64};
pub use prefetch::{prefetch_read, prefetch_slice, prefetch_slice_write, prefetch_write};
pub use quality::{collision_rate, stride_correlation, uniformity, UniformityReport};
pub use tabulation::TabulationFamily;

/// Maximum number of hash functions supported without heap allocation.
///
/// The paper's experiments use `k ≤ 10`; 16 leaves generous headroom while
/// letting callers keep index buffers on the stack.
pub const MAX_K: usize = 16;

/// A fixed-capacity buffer of counter indices produced by a [`HashFamily`].
///
/// Using a stack buffer keeps per-operation allocations at zero, which
/// matters because every insert/lookup of the SBF computes `k` indices.
///
/// Equality compares the stored indices ([`IndexBuf::as_slice`]) only:
/// slots past `len` keep stale values after a [`IndexBuf::fill`] that
/// shrinks the buffer or a dedup that drops a duplicate.
#[derive(Debug, Clone, Copy)]
pub struct IndexBuf {
    buf: [usize; MAX_K],
    len: usize,
}

impl IndexBuf {
    /// An empty buffer.
    #[inline]
    pub const fn new() -> Self {
        IndexBuf {
            buf: [0; MAX_K],
            len: 0,
        }
    }

    /// Pushes an index. Panics if the buffer is full (`k > MAX_K`).
    #[inline]
    pub fn push(&mut self, idx: usize) {
        assert!(self.len < MAX_K, "more than MAX_K hash functions requested");
        self.buf[self.len] = idx;
        self.len += 1;
    }

    /// Number of indices stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no indices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The indices as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[usize] {
        &self.buf[..self.len]
    }

    /// Overwrites the buffer in place: sets the length to `k` and hands
    /// the writer `f` the `k` slots to fill.
    ///
    /// This is the allocation- and copy-free way to refill a long-lived
    /// buffer (the batch pipelines keep a ring of these and refill one
    /// slot per item): building a fresh `IndexBuf` on the stack and
    /// assigning it would copy the full `MAX_K`-sized struct — two cache
    /// lines — per item, where this touches only the `k` slots actually
    /// used.
    #[inline]
    pub fn fill(&mut self, k: usize, f: impl FnOnce(&mut [usize])) {
        assert!(k <= MAX_K, "more than MAX_K hash functions requested");
        self.len = k;
        f(&mut self.buf[..k]);
    }

    /// Whether two of the stored indices are equal.
    ///
    /// Compares every pair — `len·(len−1)/2` equality tests OR-ed
    /// together — with no data-dependent branch, so the common all-distinct
    /// case costs a few cycles instead of a mispredicted sort. A filter's
    /// `len` is its fixed `k`, so the match below is one predictable branch
    /// into a fully unrolled test; at k = 5 that measured about half the
    /// cost of the runtime-bounded loop kept for `k > 8`.
    #[inline]
    pub fn has_duplicate(&self) -> bool {
        match self.len {
            0 | 1 => false,
            2 => pairs_collide::<2>(&self.buf),
            3 => pairs_collide::<3>(&self.buf),
            4 => pairs_collide::<4>(&self.buf),
            5 => pairs_collide::<5>(&self.buf),
            6 => pairs_collide::<6>(&self.buf),
            7 => pairs_collide::<7>(&self.buf),
            8 => pairs_collide::<8>(&self.buf),
            len => {
                let s = &self.buf[..len];
                let mut hit = false;
                for (i, &a) in s.iter().enumerate() {
                    for &b in &s[..i] {
                        hit |= a == b;
                    }
                }
                hit
            }
        }
    }

    /// Removes duplicate indices in place. The result is distinct, in
    /// hash-function order unless a collision forced a sort.
    ///
    /// Two hash functions of a family can collide on the same counter
    /// (`h_i(x) = h_j(x)`, `i ≠ j`). The paper's §3.1 model increments each
    /// *distinct* counter of a key once per occurrence, so the filter cores
    /// canonicalise every per-key index set they mutate through this
    /// method — otherwise a single insert would bump the shared counter
    /// twice and inflate `min`-based estimates. Collisions are rare (about
    /// `k(k−1)/2m` of keys), so the pairwise [`IndexBuf::has_duplicate`]
    /// test runs first and [`IndexBuf::sort_dedup`] only on a hit.
    #[inline]
    pub fn dedup(&mut self) {
        if self.has_duplicate() {
            self.sort_dedup();
        }
    }

    /// Sorts the indices and removes duplicates in place: the slow path of
    /// [`IndexBuf::dedup`]. Insertion sort: `k` is at most [`MAX_K`], where
    /// it beats the general-purpose sorts.
    #[inline]
    pub fn sort_dedup(&mut self) {
        for i in 1..self.len {
            let v = self.buf[i];
            let mut j = i;
            while j > 0 && self.buf[j - 1] > v {
                self.buf[j] = self.buf[j - 1];
                j -= 1;
            }
            self.buf[j] = v;
        }
        let mut w = 0;
        for r in 0..self.len {
            if w == 0 || self.buf[r] != self.buf[w - 1] {
                self.buf[w] = self.buf[r];
                w += 1;
            }
        }
        self.len = w;
    }
}

/// Whether two of the first `N` slots of `buf` are equal: the
/// `N·(N−1)/2` compares of [`IndexBuf::has_duplicate`], unrolled.
#[inline(always)]
fn pairs_collide<const N: usize>(buf: &[usize; MAX_K]) -> bool {
    let mut hit = false;
    for j in 1..N {
        for i in 0..j {
            hit |= buf[i] == buf[j];
        }
    }
    hit
}

impl PartialEq for IndexBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for IndexBuf {}

impl Default for IndexBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for IndexBuf {
    type Target = [usize];

    #[inline]
    fn deref(&self) -> &[usize] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a IndexBuf {
    type Item = usize;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, usize>>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_buf_push_and_read() {
        let mut b = IndexBuf::new();
        assert!(b.is_empty());
        b.push(3);
        b.push(7);
        assert_eq!(b.len(), 2);
        assert_eq!(b.as_slice(), &[3, 7]);
        assert_eq!((&b).into_iter().collect::<Vec<_>>(), vec![3, 7]);
    }

    #[test]
    fn sort_dedup_orders_and_uniquifies() {
        let mut b = IndexBuf::new();
        for i in [9usize, 3, 9, 1, 3, 7, 1] {
            b.push(i);
        }
        b.sort_dedup();
        assert_eq!(b.as_slice(), &[1, 3, 7, 9]);
        // Idempotent, and harmless on the boundary cases.
        b.sort_dedup();
        assert_eq!(b.as_slice(), &[1, 3, 7, 9]);
        let mut empty = IndexBuf::new();
        empty.sort_dedup();
        assert!(empty.is_empty());
        let mut one = IndexBuf::new();
        one.push(5);
        one.sort_dedup();
        assert_eq!(one.as_slice(), &[5]);
    }

    fn buf(indexes: &[usize]) -> IndexBuf {
        let mut b = IndexBuf::new();
        for &i in indexes {
            b.push(i);
        }
        b
    }

    #[test]
    fn dedup_keeps_distinct_indexes_in_order() {
        let mut b = buf(&[9, 3, 7, 1, 4]);
        assert!(!b.has_duplicate());
        b.dedup();
        assert_eq!(b.as_slice(), &[9, 3, 7, 1, 4]);
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn dedup_collapses_all_equal_indexes() {
        let mut b = buf(&[6; 5]);
        assert!(b.has_duplicate());
        b.dedup();
        assert_eq!(b.as_slice(), &[6]);
        let mut full = buf(&[2; MAX_K]);
        full.dedup();
        assert_eq!(full.as_slice(), &[2]);
    }

    #[test]
    fn dedup_boundary_lengths() {
        let mut empty = IndexBuf::new();
        assert!(!empty.has_duplicate());
        empty.dedup();
        assert!(empty.is_empty());
        let mut one = buf(&[5]);
        one.dedup();
        assert_eq!(one.as_slice(), &[5]);
        // k = MAX_K, all distinct: untouched.
        let distinct: Vec<usize> = (0..MAX_K).rev().collect();
        let mut b = buf(&distinct);
        b.dedup();
        assert_eq!(b.as_slice(), distinct.as_slice());
        // k = MAX_K with only the first and last colliding.
        let mut ends = distinct.clone();
        ends[MAX_K - 1] = ends[0];
        let mut b = buf(&ends);
        assert!(b.has_duplicate());
        b.dedup();
        assert_eq!(b.len(), MAX_K - 1);
    }

    #[test]
    fn dedup_equals_sort_dedup_as_a_set() {
        // Every index vector over a 3-symbol alphabet at lengths 0..=5, plus
        // pseudo-random vectors of every length up to MAX_K over small
        // ranges.
        let mut cases: Vec<Vec<usize>> = Vec::new();
        for len in 0..=5u32 {
            for code in 0..3usize.pow(len) {
                let mut c = code;
                cases.push(
                    (0..len)
                        .map(|_| {
                            let d = c % 3;
                            c /= 3;
                            d
                        })
                        .collect(),
                );
            }
        }
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for len in 0..=MAX_K {
            for range in [2u64, 5, 17, 1 << 20] {
                for _ in 0..20 {
                    cases.push(
                        (0..len)
                            .map(|_| usize::try_from(crate::splitmix64(&mut x) % range).unwrap())
                            .collect(),
                    );
                }
            }
        }
        for case in cases {
            let mut fast = buf(&case);
            fast.dedup();
            let mut sorted = buf(&case);
            sorted.sort_dedup();
            assert!(!fast.has_duplicate(), "{case:?}");
            let mut got = fast.as_slice().to_vec();
            got.sort_unstable();
            assert_eq!(got, sorted.as_slice(), "{case:?}");
        }
    }

    #[test]
    fn has_duplicate_finds_every_single_colliding_pair() {
        for len in 0..=MAX_K {
            let distinct: Vec<usize> = (100..100 + len).collect();
            assert!(!buf(&distinct).has_duplicate(), "len {len}");
            for j in 1..len {
                for i in 0..j {
                    let mut v = distinct.clone();
                    v[j] = v[i];
                    assert!(buf(&v).has_duplicate(), "len {len}: slots {i} and {j}");
                }
            }
        }
    }

    #[test]
    fn equality_ignores_stale_slots_past_len() {
        // A refill that shrinks the buffer leaves old values behind `len`.
        let mut reused = buf(&[1, 2, 3]);
        reused.fill(2, |s| s.copy_from_slice(&[1, 2]));
        assert_eq!(reused, buf(&[1, 2]));
        // So does a dedup that drops a collision.
        let mut collided = buf(&[4, 8, 4]);
        collided.dedup();
        assert_eq!(collided, buf(&[4, 8]));
        assert_ne!(collided, buf(&[4, 8, 4]));
    }

    #[test]
    #[should_panic(expected = "MAX_K")]
    fn index_buf_overflow_panics() {
        let mut b = IndexBuf::new();
        for i in 0..=MAX_K {
            b.push(i);
        }
    }
}

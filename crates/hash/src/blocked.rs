//! Blocked (external-memory) hashing, after Manber & Wu.
//!
//! Section 2.2 of the paper ("External memory SBF") recalls the multi-level
//! scheme of \[MW94\]: a first-level hash assigns each key to a *block*, and
//! the `k` Bloom hash functions then hash only *within* that block. A lookup
//! therefore touches a single block — one page of external storage — instead
//! of up to `k` random pages. The paper notes that accuracy degrades only
//! negligibly for large enough blocks; `repro paged` measures exactly that.

use crate::dispatch::{self, LANES};
use crate::family::HashFamily;
use crate::key::Key;
use crate::mix::fmix64;

/// A two-level hash family: key → block, then `k` functions within the block.
///
/// Wraps an inner family that spans a single block of `block_size` counters;
/// the final index is `block_base + inner_index`. The total range is
/// `num_blocks · block_size`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedFamily<F: HashFamily> {
    inner: F,
    num_blocks: usize,
    block_seed: u64,
}

impl<F: HashFamily> BlockedFamily<F> {
    /// Creates a blocked family.
    ///
    /// `inner` must span exactly one block (`inner.m()` is the block size);
    /// the overall range becomes `num_blocks * inner.m()`.
    pub fn new(inner: F, num_blocks: usize, seed: u64) -> Self {
        assert!(num_blocks > 0, "need at least one block");
        assert!(
            inner.m().checked_mul(num_blocks).is_some(),
            "num_blocks * block_size overflows usize"
        );
        BlockedFamily {
            inner,
            num_blocks,
            block_seed: seed ^ 0x626c_6f63_6b65_6421,
        }
    }

    /// Number of blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Counters per block.
    #[inline]
    pub fn block_size(&self) -> usize {
        self.inner.m()
    }

    /// The block a key falls into.
    #[inline]
    pub fn block_of<K: Key + ?Sized>(&self, key: &K) -> usize {
        let h = fmix64(key.canonical() ^ self.block_seed);
        ((u128::from(h) * self.num_blocks as u128) >> 64) as usize
    }
}

impl<F: HashFamily> HashFamily for BlockedFamily<F> {
    #[inline]
    fn k(&self) -> usize {
        self.inner.k()
    }

    #[inline]
    fn m(&self) -> usize {
        self.inner.m() * self.num_blocks
    }

    #[inline]
    fn indexes_into<K: Key + ?Sized>(&self, key: &K, out: &mut [usize]) {
        let base = self.block_of(key) * self.inner.m();
        self.inner.indexes_into(key, out);
        for slot in out.iter_mut().take(self.inner.k()) {
            *slot += base;
        }
    }

    #[inline]
    fn indexes_lanes(&self, vs: [u64; LANES], out: &mut [usize]) {
        // First level: pick the four blocks in one lane pass (the same
        // seeded mix + widening reduce `block_of` computes per key).
        let blocks = dispatch::mix_reduce_lanes(vs, self.block_seed, self.num_blocks as u64);
        // Second level: the inner family's lane kernel within one block.
        self.inner.indexes_lanes(vs, out);
        let bs = self.inner.m();
        let k = self.inner.k();
        for i in 0..k {
            for (lane, &b) in blocks.iter().enumerate() {
                out[i * LANES + lane] += b * bs;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::MixFamily;

    fn blocked(block_size: usize, blocks: usize, k: usize) -> BlockedFamily<MixFamily> {
        BlockedFamily::new(MixFamily::new(block_size, k, 17), blocks, 17)
    }

    #[test]
    fn all_indices_land_in_one_block() {
        let f = blocked(128, 32, 5);
        for key in 0u64..1000 {
            let b = f.block_of(&key);
            for &idx in f.indexes(&key).iter() {
                assert_eq!(idx / 128, b, "index escaped its block");
            }
        }
    }

    #[test]
    fn total_range_is_blocks_times_block_size() {
        let f = blocked(128, 32, 5);
        assert_eq!(f.m(), 128 * 32);
        assert_eq!(f.k(), 5);
        for key in 0u64..1000 {
            for &idx in f.indexes(&key).iter() {
                assert!(idx < f.m());
            }
        }
    }

    #[test]
    fn keys_spread_over_blocks() {
        let f = blocked(64, 16, 3);
        let mut seen = [false; 16];
        for key in 0u64..500 {
            seen[f.block_of(&key)] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "500 keys should touch all 16 blocks"
        );
    }

    #[test]
    fn deterministic() {
        let a = blocked(64, 8, 4);
        let b = blocked(64, 8, 4);
        for key in 0u64..100 {
            assert_eq!(a.indexes(&key).as_slice(), b.indexes(&key).as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_blocks_rejected() {
        let _ = blocked(64, 0, 4);
    }

    /// The two-level lane kernel (vector block pick + inner lane pass) must
    /// agree with the per-key scalar path at every dispatch level.
    #[test]
    fn lanes_match_scalar() {
        use crate::dispatch::{set_simd_level, simd_level, test_level_lock, SimdLevel};
        use crate::mix::SplitMix64;
        use crate::{LANES, MAX_K};
        let _g = test_level_lock();
        let initial = simd_level();
        let f = blocked(128, 32, 5);
        let mut rng = SplitMix64::new(0xb10c);
        for _ in 0..100 {
            let vs = [
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
            ];
            for level in [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2] {
                set_simd_level(level);
                let mut lanes = [0usize; MAX_K * LANES];
                f.indexes_lanes(vs, &mut lanes[..f.k() * LANES]);
                for (lane, &v) in vs.iter().enumerate() {
                    let mut want = [0usize; MAX_K];
                    f.indexes_into(&v, &mut want[..f.k()]);
                    for i in 0..f.k() {
                        assert_eq!(lanes[i * LANES + lane], want[i], "lane {lane} fn {i}");
                    }
                }
            }
        }
        set_simd_level(initial);
    }
}

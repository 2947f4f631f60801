//! Hash-function families mapping keys to `k` counter positions.

use crate::dispatch::{self, LANES};
use crate::key::Key;
use crate::mix::{fmix64, SplitMix64};
use crate::{IndexBuf, MAX_K};

/// A family of `k` hash functions onto the range `{0 .. m-1}`.
///
/// This is the abstraction every filter in the workspace programs against.
/// Families are value types: two families constructed with equal parameters
/// (including the seed) produce identical indices, which is what makes the
/// paper's distributed union (`C = C_1 + C_2`) and multiply operations sound.
/// Equality is parameter equality: union and multiply check it, and a
/// sharded batched estimate checks it before hashing every shard's keys
/// with one family.
pub trait HashFamily: Clone + PartialEq {
    /// Number of hash functions `k`.
    fn k(&self) -> usize;

    /// Size of the index range `m`.
    fn m(&self) -> usize;

    /// Writes the `k` indices of `key` into `out[..k]`.
    ///
    /// `out` must have length at least `k`.
    fn indexes_into<K: Key + ?Sized>(&self, key: &K, out: &mut [usize]);

    /// Returns the `k` indices of `key` in a stack buffer.
    #[inline]
    fn indexes<K: Key + ?Sized>(&self, key: &K) -> IndexBuf {
        let mut buf = IndexBuf::new();
        let mut tmp = [0usize; MAX_K];
        let k = self.k();
        self.indexes_into(key, &mut tmp[..k]);
        for &i in &tmp[..k] {
            buf.push(i);
        }
        buf
    }

    /// Hashes [`LANES`] canonical key values in one pass, writing the
    /// indices seed-major: `out[i * LANES + lane]` receives `h_i` of lane
    /// `lane`. `out` must hold at least `k() * LANES` slots.
    ///
    /// The inputs are *canonical* values ([`Key::canonical`]), not keys —
    /// every family in this crate derives its indices solely from that
    /// 64-bit value, and `u64::canonical` is the identity, so
    /// `indexes_lanes([key.canonical(); ..])` agrees exactly with
    /// `indexes_into(&key, ..)` lane by lane. The default implementation is
    /// that scalar loop; [`MixFamily`], [`MultiplyFamily`] and
    /// `BlockedFamily` override it with runtime-dispatched SIMD kernels
    /// (`crate::dispatch`) that are bit-identical to the scalar path.
    #[inline]
    fn indexes_lanes(&self, vs: [u64; LANES], out: &mut [usize]) {
        let k = self.k();
        debug_assert!(out.len() >= k * LANES);
        let mut tmp = [0usize; MAX_K];
        for (lane, v) in vs.into_iter().enumerate() {
            self.indexes_into(&v, &mut tmp[..k]);
            for (i, &idx) in tmp[..k].iter().enumerate() {
                out[i * LANES + lane] = idx;
            }
        }
    }
}

fn validate_params(m: usize, k: usize) {
    assert!(m > 0, "hash family needs m > 0");
    assert!(k > 0, "hash family needs k > 0");
    assert!(
        k <= MAX_K,
        "hash family supports at most {MAX_K} functions, got {k}"
    );
}

/// The paper's "modulo/multiply" family: `H(v) = ⌊m · (α v mod 1)⌋`.
///
/// Section 6.1 of the paper: *"The SBF was implemented using hash functions
/// of modulo/multiply type: given a value v, its hash value H(v),
/// 0 ≤ H(v) < m is computed by H(v) = ⌈m(αv mod 1)⌉, where α is taken
/// uniformly at random from \[0,1\]."*
///
/// We realize `α ∈ [0,1)` as a random odd 64-bit integer `a` interpreted as
/// the fixed-point fraction `a / 2^64`; then `αv mod 1` is simply the
/// wrapping product `a·v` reinterpreted as a fraction, and scaling by `m`
/// is a widening multiply. This is exact fixed-point arithmetic, not a
/// floating-point approximation.
///
/// Faithful to the paper, this family applies no pre-mixing to the key, so
/// it inherits multiplicative hashing's weakness on structured integer keys
/// — the clustering the paper observes in its Figure 12 discussion. Prefer
/// [`MixFamily`] unless reproducing that behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiplyFamily {
    m: usize,
    alphas: Vec<u64>,
}

impl MultiplyFamily {
    /// Creates `k` functions onto `{0..m-1}` with multipliers drawn from
    /// `seed`.
    pub fn new(m: usize, k: usize, seed: u64) -> Self {
        validate_params(m, k);
        let mut rng = SplitMix64::new(seed ^ 0x6d75_6c74_6970_6c79); // "multiply"
        let alphas = (0..k).map(|_| rng.next_odd_u64()).collect();
        MultiplyFamily { m, alphas }
    }
}

impl HashFamily for MultiplyFamily {
    #[inline]
    fn k(&self) -> usize {
        self.alphas.len()
    }

    #[inline]
    fn m(&self) -> usize {
        self.m
    }

    #[inline]
    fn indexes_into<K: Key + ?Sized>(&self, key: &K, out: &mut [usize]) {
        let v = key.canonical();
        let m = self.m as u64;
        for (slot, &a) in out.iter_mut().zip(&self.alphas) {
            let frac = a.wrapping_mul(v); // (α·v) mod 1 in 64-bit fixed point
            *slot = ((u128::from(frac) * u128::from(m)) >> 64) as usize;
        }
    }

    #[inline]
    fn indexes_lanes(&self, vs: [u64; LANES], out: &mut [usize]) {
        dispatch::multiply_indexes_lanes(vs, &self.alphas, self.m as u64, out);
    }
}

/// A SplitMix64/Murmur-finalizer family with strong diffusion.
///
/// Each of the `k` functions owns an independent 64-bit seed; the index is
/// `fmix64(key ⊕ seed_i)` reduced to `{0..m-1}` by a widening multiply.
/// This behaves like `k` independent uniform functions on arbitrary key
/// distributions and is the recommended default family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixFamily {
    m: usize,
    seeds: Vec<u64>,
}

impl MixFamily {
    /// Creates `k` functions onto `{0..m-1}` seeded from `seed`.
    pub fn new(m: usize, k: usize, seed: u64) -> Self {
        validate_params(m, k);
        let mut rng = SplitMix64::new(seed ^ 0x6d69_7866_616d_696c); // "mixfamil"
        let seeds = (0..k).map(|_| rng.next_u64()).collect();
        MixFamily { m, seeds }
    }
}

impl HashFamily for MixFamily {
    #[inline]
    fn k(&self) -> usize {
        self.seeds.len()
    }

    #[inline]
    fn m(&self) -> usize {
        self.m
    }

    #[inline]
    fn indexes_into<K: Key + ?Sized>(&self, key: &K, out: &mut [usize]) {
        let v = key.canonical();
        let m = self.m as u64;
        for (slot, &s) in out.iter_mut().zip(&self.seeds) {
            let h = fmix64(v ^ s);
            *slot = ((u128::from(h) * u128::from(m)) >> 64) as usize;
        }
    }

    #[inline]
    fn indexes_lanes(&self, vs: [u64; LANES], out: &mut [usize]) {
        dispatch::mix_indexes_lanes(vs, &self.seeds, self.m as u64, out);
    }
}

/// Kirsch–Mitzenmacher double hashing: `g_i(x) = h1(x) + i·h2(x) mod m`.
///
/// Computes only two full hashes per key and derives all `k` indices
/// arithmetically, preserving the Bloom-filter false-positive asymptotics.
/// This is the fastest family for large `k` and is used by the throughput
/// benchmarks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoubleHashFamily {
    m: usize,
    k: usize,
    seed1: u64,
    seed2: u64,
}

impl DoubleHashFamily {
    /// Creates a double-hashing family of `k` functions onto `{0..m-1}`.
    pub fn new(m: usize, k: usize, seed: u64) -> Self {
        validate_params(m, k);
        let mut rng = SplitMix64::new(seed ^ 0x646f_7562_6c65_6873); // "doublehs"
        DoubleHashFamily {
            m,
            k,
            seed1: rng.next_u64(),
            seed2: rng.next_u64(),
        }
    }
}

impl HashFamily for DoubleHashFamily {
    #[inline]
    fn k(&self) -> usize {
        self.k
    }

    #[inline]
    fn m(&self) -> usize {
        self.m
    }

    #[inline]
    fn indexes_into<K: Key + ?Sized>(&self, key: &K, out: &mut [usize]) {
        let v = key.canonical();
        let m = self.m as u64;
        let h1 = fmix64(v ^ self.seed1) % m;
        // Force h2 odd so that when m is a power of two the probe sequence
        // cycles through all of {0..m-1}; for general m it simply avoids the
        // degenerate h2 = 0 case together with the +1.
        let h2 = (fmix64(v ^ self.seed2) | 1) % m;
        let step = if h2 == 0 { 1 } else { h2 };
        let mut cur = h1;
        for slot in out.iter_mut().take(self.k) {
            *slot = cur as usize;
            cur += step;
            if cur >= m {
                cur -= m;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn families(m: usize, k: usize) -> (MultiplyFamily, MixFamily, DoubleHashFamily) {
        (
            MultiplyFamily::new(m, k, 42),
            MixFamily::new(m, k, 42),
            DoubleHashFamily::new(m, k, 42),
        )
    }

    #[test]
    fn indices_are_in_range() {
        for m in [1usize, 2, 3, 17, 1000, 1 << 20] {
            let (f1, f2, f3) = families(m, 5);
            for key in 0u64..500 {
                for idx in f1
                    .indexes(&key)
                    .iter()
                    .chain(f2.indexes(&key).iter())
                    .chain(f3.indexes(&key).iter())
                {
                    assert!(*idx < m, "index {idx} out of range for m={m}");
                }
            }
        }
    }

    #[test]
    fn same_seed_same_indices() {
        let a = MixFamily::new(997, 5, 7);
        let b = MixFamily::new(997, 5, 7);
        for key in 0u64..100 {
            assert_eq!(a.indexes(&key).as_slice(), b.indexes(&key).as_slice());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = MixFamily::new(1 << 16, 5, 1);
        let b = MixFamily::new(1 << 16, 5, 2);
        let diff = (0..100u64)
            .filter(|v| a.indexes(v).as_slice() != b.indexes(v).as_slice())
            .count();
        assert!(diff > 90);
    }

    #[test]
    fn k_and_m_are_reported() {
        let (f1, f2, f3) = families(1234, 7);
        for (k, m) in [(f1.k(), f1.m()), (f2.k(), f2.m()), (f3.k(), f3.m())] {
            assert_eq!(k, 7);
            assert_eq!(m, 1234);
        }
    }

    #[test]
    fn mix_family_is_roughly_uniform() {
        // Hash 100k sequential keys into 64 buckets with one function and
        // check occupancy is within ±20% of uniform — sequential integers
        // are the adversarial case for multiplicative families.
        let f = MixFamily::new(64, 1, 3);
        let mut counts = [0usize; 64];
        for key in 0u64..100_000 {
            counts[f.indexes(&key)[0]] += 1;
        }
        let expect = 100_000.0 / 64.0;
        for &c in &counts {
            let ratio = c as f64 / expect;
            assert!((0.8..1.2).contains(&ratio), "bucket skew {ratio}");
        }
    }

    #[test]
    fn multiply_family_matches_paper_formula() {
        // For a known α, H(v) must equal floor(m * frac(α·v / 2^64 scale)).
        let f = MultiplyFamily::new(1000, 1, 9);
        // Recompute from scratch: extract α via the generator the family used.
        let mut rng = SplitMix64::new(9 ^ 0x6d75_6c74_6970_6c79);
        let a = rng.next_odd_u64();
        for v in [0u64, 1, 2, 12345, u64::MAX] {
            let frac = a.wrapping_mul(v);
            let want = ((u128::from(frac) * 1000u128) >> 64) as usize;
            assert_eq!(f.indexes(&v)[0], want);
        }
    }

    #[test]
    fn double_hash_first_index_matches_h1() {
        let f = DoubleHashFamily::new(101, 4, 5);
        for v in 0u64..50 {
            let idxs = f.indexes(&v);
            assert_eq!(idxs.len(), 4);
            // consecutive indices differ by a constant step mod m
            let d1 = (idxs[1] + 101 - idxs[0]) % 101;
            let d2 = (idxs[2] + 101 - idxs[1]) % 101;
            let d3 = (idxs[3] + 101 - idxs[2]) % 101;
            assert_eq!(d1, d2);
            assert_eq!(d2, d3);
        }
    }

    #[test]
    fn string_keys_work_through_families() {
        let f = MixFamily::new(512, 3, 11);
        let a = f.indexes(&"hello");
        let b = f.indexes(&String::from("hello"));
        assert_eq!(a.as_slice(), b.as_slice());
        assert_ne!(
            f.indexes(&"hello").as_slice(),
            f.indexes(&"world").as_slice()
        );
    }

    #[test]
    #[should_panic(expected = "m > 0")]
    fn zero_m_rejected() {
        let _ = MixFamily::new(0, 3, 1);
    }

    #[test]
    #[should_panic(expected = "k > 0")]
    fn zero_k_rejected() {
        let _ = MixFamily::new(10, 0, 1);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn huge_k_rejected() {
        let _ = MixFamily::new(10, MAX_K + 1, 1);
    }

    /// Lane kernels must agree with the per-key scalar path, family by
    /// family, at every dispatch level the machine supports.
    #[test]
    fn lanes_match_scalar_per_family() {
        use crate::dispatch::{set_simd_level, simd_level, test_level_lock, SimdLevel};
        let _g = test_level_lock();
        let initial = simd_level();
        for m in [1usize, 2, 97, 1 << 16, 1 << 20] {
            let k = 5;
            let mul = MultiplyFamily::new(m, k, 13);
            let mix = MixFamily::new(m, k, 13);
            let dh = DoubleHashFamily::new(m, k, 13);
            let mut rng = SplitMix64::new(0xfeed);
            for _ in 0..50 {
                let vs = [
                    rng.next_u64(),
                    rng.next_u64(),
                    rng.next_u64(),
                    rng.next_u64(),
                ];
                for level in [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2] {
                    set_simd_level(level);
                    check_lanes(&mul, vs);
                    check_lanes(&mix, vs);
                    // DoubleHashFamily has no vector override; the default
                    // lane method must still agree with the scalar path.
                    check_lanes(&dh, vs);
                }
            }
        }
        set_simd_level(initial);
    }

    fn check_lanes<F: HashFamily>(f: &F, vs: [u64; crate::LANES]) {
        let k = f.k();
        let mut lanes = [0usize; MAX_K * crate::LANES];
        f.indexes_lanes(vs, &mut lanes[..k * crate::LANES]);
        for (lane, &v) in vs.iter().enumerate() {
            let mut want = [0usize; MAX_K];
            f.indexes_into(&v, &mut want[..k]);
            for i in 0..k {
                assert_eq!(
                    lanes[i * crate::LANES + lane],
                    want[i],
                    "lane {lane} fn {i} diverged (m={}, k={k})",
                    f.m()
                );
            }
        }
    }
}

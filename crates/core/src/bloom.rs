//! The classic Bloom filter (Bloom 1970) — the baseline the SBF extends,
//! and the marker filter used by the Recurring Minimum refinement (§3.3).

use sbf_bitvec::BitVec;
use sbf_hash::{HashFamily, Key};

use crate::num;
use crate::DefaultFamily;

/// A plain bit-vector Bloom filter over `m` bits and `k` hash functions.
///
/// ```
/// use spectral_bloom::BloomFilter;
///
/// let mut bf = BloomFilter::new(1024, 4, 9);
/// bf.insert(&"hunter2");
/// assert!(bf.contains(&"hunter2"));     // never a false negative
/// assert!(!bf.contains(&"hunter3"));    // w.h.p.
/// ```
#[derive(Debug, Clone)]
pub struct BloomFilter<F: HashFamily = DefaultFamily> {
    family: F,
    bits: BitVec,
    inserted: u64,
}

impl BloomFilter<DefaultFamily> {
    /// A filter with `m` bits and `k` hash functions.
    pub fn new(m: usize, k: usize, seed: u64) -> Self {
        Self::from_family(DefaultFamily::new(m, k, seed))
    }
}

impl<F: HashFamily> BloomFilter<F> {
    /// Builds over an explicit hash family.
    pub fn from_family(family: F) -> Self {
        let bits = BitVec::zeros(family.m());
        BloomFilter {
            family,
            bits,
            inserted: 0,
        }
    }

    /// Number of bits `m`.
    pub fn m(&self) -> usize {
        self.family.m()
    }

    /// Number of hash functions `k`.
    pub fn k(&self) -> usize {
        self.family.k()
    }

    /// Count of insert operations performed (not distinct keys).
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Sets the `k` bits of `key`.
    pub fn insert<K: Key + ?Sized>(&mut self, key: &K) {
        for &i in self.family.indexes(key).as_slice() {
            self.bits.set(i, true);
        }
        self.inserted += 1;
    }

    /// Whether all `k` bits of `key` are set (no false negatives; false
    /// positives with probability `≈ (1 − e^{−kn/m})^k`).
    pub fn contains<K: Key + ?Sized>(&self, key: &K) -> bool {
        self.family
            .indexes(key)
            .as_slice()
            .iter()
            .all(|&i| self.bits.get(i))
    }

    /// Unites another filter into this one (bitwise OR) — the Bloom
    /// analogue of the SBF's §5 counter-addition union. Both filters must
    /// share parameters and hash functions.
    pub fn union_assign(&mut self, other: &BloomFilter<F>) {
        assert!(
            self.family == other.family,
            "union requires identical parameters and hash functions"
        );
        for (i, bit) in other.bits.iter().enumerate() {
            if bit {
                self.bits.set(i, true);
            }
        }
        self.inserted += other.inserted;
    }

    /// Fraction of set bits (the fill that determines the error rate).
    pub fn fill_ratio(&self) -> f64 {
        if self.bits.is_empty() {
            return 0.0;
        }
        num::to_f64(self.bits.count_ones()) / num::to_f64(self.bits.len())
    }

    /// Storage in bits.
    pub fn storage_bits(&self) -> usize {
        self.bits.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut bf = BloomFilter::new(4096, 5, 1);
        for key in 0u64..400 {
            bf.insert(&key);
        }
        for key in 0u64..400 {
            assert!(bf.contains(&key), "false negative for {key}");
        }
    }

    #[test]
    fn false_positive_rate_tracks_theory() {
        // n = 400, m = 4096, k = 5 → γ ≈ 0.49, E_b ≈ (1 − e^{−0.49})⁵ ≈ 0.9%.
        let mut bf = BloomFilter::new(4096, 5, 2);
        for key in 0u64..400 {
            bf.insert(&key);
        }
        let trials = 20_000u64;
        let fp = (1_000_000..1_000_000 + trials)
            .filter(|k| bf.contains(k))
            .count();
        let rate = fp as f64 / trials as f64;
        let theory = crate::params::bloom_error_rate(400, 4096, 5);
        assert!(
            (rate - theory).abs() < 0.01,
            "measured {rate:.4} vs theory {theory:.4}"
        );
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let bf = BloomFilter::new(64, 3, 3);
        assert!(!bf.contains(&1u64));
        assert_eq!(bf.fill_ratio(), 0.0);
    }

    #[test]
    fn string_keys() {
        let mut bf = BloomFilter::new(1024, 4, 4);
        bf.insert(&"password123");
        assert!(bf.contains(&"password123"));
        assert!(!bf.contains(&"password124"));
    }
}

//! Prefix-free integer encodings used by the SBF's compact representations.
//!
//! Section 4.5 of the paper builds a sequentially-decodable counter array
//! out of two codes:
//!
//! * **Elias encoding** — the universal δ code of Elias (1975): an integer
//!   `n ≥ 1` costs `⌊log₂n⌋ + 2⌊log₂(⌊log₂n⌋+1)⌋ + 1` bits. Because Elias
//!   codes cannot express 0, the paper (footnote 1) encodes `n + 1`; the
//!   [`EliasDelta`] codec here does the same, so its domain is all of `u64`
//!   (values up to `2^63 - 2`). [`EliasGamma`] is provided as the simpler
//!   building block (δ's length header *is* a γ code).
//!
//! * **The steps method** — a Huffman-like header for very small counters:
//!   e.g. `0` ↦ "0", `1` ↦ "10", and "11" marks an Elias-coded escape. For
//!   count distributions dominated by frequency-1 items ("almost sets") this
//!   beats Elias; Figure 10 of the paper sweeps the crossover. The
//!   [`StepsCode`] generalizes to arbitrary step widths: `steps(w₁,…,wⱼ)`
//!   spends `i` ones + one zero + `wᵢ` payload bits on the `i`-th bucket of
//!   `2^{wᵢ}` values, then escapes to Elias δ.
//!
//! All codecs implement [`Codec`], writing to / reading from the sequential
//! bit cursors of `sbf-bitvec`.

// Library code must surface failures as `Result`/documented panics, never
// ad-hoc `unwrap`/`expect` (ISSUE 4 lint wall); tests keep idiomatic unwraps.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod elias;
pub mod steps;

pub use codec::Codec;
pub use elias::{DecodeSink, EliasDelta, EliasGamma};
pub use steps::StepsCode;

/// Number of bits in the minimal binary representation of `v` (`bitlen(0) = 0`).
#[inline]
pub fn bit_len(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Width of the binary field the SBF base array allots to a counter of value
/// `c`: the paper's `⌈log c⌉` convention, with a 1-bit minimum so that a
/// counter of 0 or 1 still occupies one bit.
#[inline]
pub fn counter_width(c: u64) -> usize {
    bit_len(c).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_len_basics() {
        assert_eq!(bit_len(0), 0);
        assert_eq!(bit_len(1), 1);
        assert_eq!(bit_len(2), 2);
        assert_eq!(bit_len(3), 2);
        assert_eq!(bit_len(4), 3);
        assert_eq!(bit_len(u64::MAX), 64);
    }

    #[test]
    fn counter_width_has_one_bit_floor() {
        assert_eq!(counter_width(0), 1);
        assert_eq!(counter_width(1), 1);
        assert_eq!(counter_width(2), 2);
        assert_eq!(counter_width(255), 8);
        assert_eq!(counter_width(256), 9);
    }
}

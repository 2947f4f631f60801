//! The codec abstraction shared by all prefix-free encodings.

use sbf_bitvec::{BitReader, BitWriter};

/// A prefix-free code over `u64` values.
///
/// Implementations must be *self-delimiting*: a decoder positioned at the
/// first bit of a codeword consumes exactly that codeword, so codewords can
/// be concatenated without separators — the property §4.5 relies on for
/// sequential scans of counter sub-groups.
pub trait Codec {
    /// Appends the codeword for `value` to `w`.
    fn encode(&self, value: u64, w: &mut BitWriter);

    /// Decodes one codeword, advancing the reader.
    ///
    /// Returns `None` on a truncated stream (the reader position is then
    /// unspecified).
    fn decode(&self, r: &mut BitReader<'_>) -> Option<u64>;

    /// Length in bits of the codeword for `value`, without encoding it.
    fn encoded_len(&self, value: u64) -> usize;

    /// Largest encodable value.
    fn max_value(&self) -> u64;

    /// Encodes a whole slice, returning the bit vector.
    fn encode_all(&self, values: &[u64]) -> sbf_bitvec::BitVec {
        let mut w = BitWriter::new();
        for &v in values {
            self.encode(v, &mut w);
        }
        w.finish()
    }

    /// Decodes exactly `count` codewords from `r`.
    ///
    /// Reserves room for `count` values up front, bounded by the bits left
    /// (every codeword costs at least one), so a hostile `count` cannot
    /// size the allocation.
    fn decode_all(&self, r: &mut BitReader<'_>, count: usize) -> Option<Vec<u64>> {
        let mut out = Vec::with_capacity(count.min(r.remaining()));
        for _ in 0..count {
            out.push(self.decode(r)?);
        }
        Some(out)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// Round-trips `values` through `codec` and checks self-delimitation and
    /// the `encoded_len` contract.
    pub fn roundtrip<C: Codec>(codec: &C, values: &[u64]) {
        let bits = codec.encode_all(values);
        let expected_len: usize = values.iter().map(|&v| codec.encoded_len(v)).sum();
        assert_eq!(
            bits.len(),
            expected_len,
            "encoded_len must match actual encoding"
        );
        let mut r = BitReader::new(&bits);
        let decoded = codec
            .decode_all(&mut r, values.len())
            .expect("decode failed");
        assert_eq!(decoded, values);
        assert_eq!(r.remaining(), 0, "decoder must consume exactly the stream");
    }
}

//! Elias γ and δ universal codes (Elias 1975).
//!
//! Both codes are defined over positive integers. Following the paper's
//! footnote, the public codecs accept any `u64` value `v` and internally
//! code `v + 1`, so 0 is representable and the advertised lengths match the
//! paper's `L₂(n)` formula shifted by one.

use crate::bit_len;
use crate::codec::Codec;
use sbf_bitvec::{BitReader, BitSink, BitSource, BitWriter};

/// The low `width` bits of `v` in MSB-first stream order, as the
/// LSB-first field the bit cursors write: one bit reversal. It is its own
/// inverse, so it also turns a field read back into the value. Width 0
/// yields 0.
#[inline]
fn msb_first(v: u64, width: usize) -> u64 {
    debug_assert!(width <= 64);
    v.reverse_bits().checked_shr(64 - width as u32).unwrap_or(0)
}

/// Encodes positive `n`: `⌊log₂n⌋` zeros, then `n` MSB-first (leading 1
/// included). Length `2⌊log₂n⌋ + 1`: one field write up to 64 bits, two
/// beyond.
#[inline]
fn gamma_encode_pos<S: BitSink>(n: u64, w: &mut S) {
    debug_assert!(n >= 1);
    let len = bit_len(n);
    let width = 2 * len - 1;
    if width <= 64 {
        // The `len − 1` high zeros of the field are the unary run.
        w.write(msb_first(n, width), width);
    } else {
        w.write(0, len - 1);
        w.write(msb_first(n, len), len);
    }
}

/// The next `min(64, remaining)` bits of `r` in stream order from the top
/// bit down (unused low bits zero): one bit reversal of a peeked word, after
/// which an MSB-first codeword reads with plain shifts.
#[inline]
fn peek_msb_first<R: BitSource>(r: &R) -> (u64, usize) {
    (r.peek().reverse_bits(), r.remaining().min(64))
}

/// Decodes a γ codeword: the leading zeros of one peeked word are the
/// unary run, and the rest is one field. `None` on a truncated stream or a
/// run too long for any `u64`.
#[inline]
fn gamma_decode_pos<R: BitSource>(r: &mut R) -> Option<u64> {
    let (word, avail) = peek_msb_first(r);
    let zeros = word.leading_zeros() as usize;
    if zeros >= avail {
        return None;
    }
    let width = 2 * zeros + 1;
    if width <= avail {
        r.consume(width);
        Some(word >> (64 - width))
    } else {
        // The leading 1 plus `zeros` more bits: at most 64.
        r.consume(zeros);
        Some(msb_first(r.read(zeros + 1)?, zeros + 1))
    }
}

/// Elias γ over `u64` (internally coding `v + 1`).
///
/// γ spends `2⌊log₂(v+1)⌋ + 1` bits; optimal when values follow a
/// `P(v) ∝ 1/v²`-ish law — it is also the header that δ uses for lengths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EliasGamma;

impl Codec for EliasGamma {
    fn encode(&self, value: u64, w: &mut BitWriter) {
        assert!(value <= self.max_value(), "value out of EliasGamma domain");
        gamma_encode_pos(value + 1, w);
    }

    fn decode(&self, r: &mut BitReader<'_>) -> Option<u64> {
        gamma_decode_pos(r).map(|n| n - 1)
    }

    fn encoded_len(&self, value: u64) -> usize {
        2 * bit_len(value + 1) - 1
    }

    fn max_value(&self) -> u64 {
        u64::MAX - 1
    }
}

/// Elias δ over `u64` (internally coding `v + 1`).
///
/// δ writes γ(bitlen(n)) followed by the `bitlen(n) − 1` low bits of `n`;
/// total length `⌊log₂n⌋ + 2⌊log₂(⌊log₂n⌋+1)⌋ + 1` — the `L₂(n)` of §4.5.
/// Asymptotically optimal for any power-law and the workhorse of the
/// compact counter representation. Every `u64` codes, `u64::MAX`
/// (n = 2^64) included: γ(65), then 64 zero bits, 77 bits in all.
///
/// ```
/// use sbf_encoding::{Codec, EliasDelta};
/// use sbf_bitvec::BitReader;
///
/// let bits = EliasDelta.encode_all(&[0, 1, 1000]);
/// let mut r = BitReader::new(&bits);
/// assert_eq!(EliasDelta.decode_all(&mut r, 3), Some(vec![0, 1, 1000]));
/// assert_eq!(EliasDelta.encoded_len(0), 1); // value 0 costs one bit
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EliasDelta;

impl EliasDelta {
    /// Appends the codeword for `value` to any bit sink — the one δ
    /// encoder behind [`Codec::encode`] and the wire envelope. At most two
    /// field writes: one when the codeword fits a word, which it does for
    /// every value below `2^54 − 1`.
    #[inline]
    pub fn encode_to<S: BitSink>(&self, value: u64, w: &mut S) {
        let (len, rest) = match value.checked_add(1) {
            Some(n) => {
                let len = bit_len(n);
                // n without its leading 1 bit.
                (len, n ^ (1 << (len - 1)))
            }
            // n = 2^64: below its leading 1 sit 64 zeros.
            None => (65, 0),
        };
        let header = 2 * bit_len(len as u64) - 1;
        let rest_width = len - 1;
        let width = header + rest_width;
        if width <= 64 {
            let code = ((len as u64) << rest_width) | rest;
            w.write(msb_first(code, width), width);
        } else {
            w.write(msb_first(len as u64, header), header);
            w.write(msb_first(rest, rest_width), rest_width);
        }
    }

    /// Decodes one codeword from any bit source — the one δ decoder behind
    /// [`Codec::decode`], [`Codec::decode_all`] and the wire envelope. One
    /// peeked word covers the whole codeword for every value below
    /// `2^54 − 1`; longer ones take one more field read.
    ///
    /// Returns `None` on a truncated stream, a length field of 0 or above
    /// 65, or a length of 65 whose 64 low bits are not all zero: n = 2^64
    /// (`u64::MAX`) is the one 65-bit n (the reader position is then
    /// unspecified).
    #[inline]
    pub fn decode_from<R: BitSource>(&self, r: &mut R) -> Option<u64> {
        let (word, avail) = peek_msb_first(r);
        match delta_in_word(word, avail) {
            Fit::Whole(value, width) => {
                r.consume(width);
                Some(value)
            }
            Fit::Bad => None,
            // Cut short by the end of the stream.
            Fit::Spills if avail < 64 => None,
            Fit::Spills => {
                // Over 64 bits: the header is whole in `word`, the rest of
                // `n` is one more field.
                let header = 2 * word.leading_zeros() as usize + 1;
                let rest_width = (word >> (64 - header)) as usize - 1;
                r.consume(header);
                let rest = msb_first(r.read(rest_width)?, rest_width);
                match rest_width {
                    64 if rest == 0 => Some(u64::MAX),
                    64 => None,
                    _ => Some(((1u64 << rest_width) | rest) - 1),
                }
            }
        }
    }

    /// Decodes `count` codewords onto the end of `out`, several from each
    /// peeked word: a codeword that ends inside the current word costs no
    /// new read. Same results and failures as `count` calls of
    /// [`EliasDelta::decode_from`].
    pub fn decode_into<R: BitSource, S: DecodeSink>(
        &self,
        r: &mut R,
        count: usize,
        out: &mut S,
    ) -> Option<()> {
        // `word` holds the next `avail` bits from its top bit down; `used`
        // bits before them are decoded but not yet consumed from `r`.
        let (mut word, mut avail) = peek_msb_first(r);
        let mut used = 0;
        for _ in 0..count {
            if let Fit::Whole(value, width) = delta_in_word(word, avail) {
                out.push(value);
                // Two shifts: `width` may be 64.
                word = (word << (width - 1)) << 1;
                avail -= width;
                used += width;
            } else {
                r.consume(used);
                used = 0;
                out.push(self.decode_from(r)?);
                (word, avail) = peek_msb_first(r);
            }
        }
        r.consume(used);
        Some(())
    }
}

/// Where [`EliasDelta::decode_into`] puts the values it decodes, in stream
/// order. A `Vec<u64>` keeps them as they are; a counter store that keeps
/// its counters narrower can take them without a `u64` copy of the stream.
pub trait DecodeSink {
    /// Makes room for `additional` more values.
    fn reserve(&mut self, additional: usize);

    /// Appends the next value.
    fn push(&mut self, value: u64);
}

impl DecodeSink for Vec<u64> {
    #[inline]
    fn reserve(&mut self, additional: usize) {
        Vec::reserve(self, additional);
    }

    #[inline]
    fn push(&mut self, value: u64) {
        Vec::push(self, value);
    }
}

/// How a δ codeword starting at the top bit of a peeked word lies in it.
enum Fit {
    /// Whole inside the valid bits: the value and the codeword's width.
    Whole(u64, usize),
    /// Runs past the valid bits, or they end before its length is known.
    Spills,
    /// Its length field is above 65: no stream continues it validly.
    Bad,
}

/// Locates the δ codeword at the top of `word` (stream order from the top
/// bit down), of which the high `avail` bits are valid: the leading zeros
/// are the γ run of the length field, and shifts cut out the length and
/// the rest of `n`.
#[inline]
fn delta_in_word(word: u64, avail: usize) -> Fit {
    let zeros = (word.leading_zeros() as usize).min(avail);
    // A length of at most 65 has at most 7 bits, so at most 6 zeros.
    if zeros > 6 {
        return Fit::Bad;
    }
    let header = 2 * zeros + 1;
    if header > avail {
        return Fit::Spills;
    }
    let len = (word >> (64 - header)) as usize;
    // The γ run ends in its leading 1, so a length of 0 cannot occur;
    // the guard keeps `len − 1` safe without leaning on that. A length of
    // 65 is 77 bits long, so it always spills.
    if len == 0 || len > 65 {
        return Fit::Bad;
    }
    let rest_width = len - 1;
    let width = header + rest_width;
    if width > avail {
        return Fit::Spills;
    }
    // Two shifts: `rest_width` may be 0.
    let rest = ((word << header) >> 1) >> (63 - rest_width);
    Fit::Whole(((1u64 << rest_width) | rest) - 1, width)
}

impl Codec for EliasDelta {
    fn encode(&self, value: u64, w: &mut BitWriter) {
        self.encode_to(value, w);
    }

    fn decode(&self, r: &mut BitReader<'_>) -> Option<u64> {
        self.decode_from(r)
    }

    fn decode_all(&self, r: &mut BitReader<'_>, count: usize) -> Option<Vec<u64>> {
        let mut out = Vec::with_capacity(count.min(r.remaining()));
        self.decode_into(r, count, &mut out)?;
        Some(out)
    }

    fn encoded_len(&self, value: u64) -> usize {
        let len = value.checked_add(1).map_or(65, bit_len);
        (len - 1) + (2 * bit_len(len as u64) - 1)
    }

    fn max_value(&self) -> u64 {
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::test_support::roundtrip;
    use proptest::prelude::*;
    use sbf_bitvec::BitVec;

    #[test]
    fn gamma_known_codewords() {
        // γ(1) = "1", γ(2) = "010", γ(3) = "011", γ(4) = "00100".
        // The codec encodes v+1, so value 0 → γ(1) etc.
        let g = EliasGamma;
        let bits = g.encode_all(&[0]);
        assert_eq!(bits.len(), 1);
        assert!(bits.get(0));
        let bits = g.encode_all(&[1]); // γ(2) = 0 1 0
        let s: Vec<bool> = bits.iter().collect();
        assert_eq!(s, [false, true, false]);
        let bits = g.encode_all(&[3]); // γ(4) = 0 0 1 0 0
        let s: Vec<bool> = bits.iter().collect();
        assert_eq!(s, [false, false, true, false, false]);
    }

    #[test]
    fn delta_known_lengths_match_paper_formula() {
        // L₂(n) = ⌊log₂n⌋ + 2⌊log₂(⌊log₂n⌋+1)⌋ + 1 for the coded n = v+1.
        let d = EliasDelta;
        for v in [0u64, 1, 2, 3, 7, 8, 100, 1000, 65_535, 1 << 40] {
            let n = v + 1;
            let log = bit_len(n) - 1;
            let expect = log + 2 * (bit_len(log as u64 + 1) - 1) + 1;
            assert_eq!(d.encoded_len(v), expect, "v={v}");
        }
    }

    #[test]
    fn delta_encodes_one_in_one_bit() {
        // The paper's concern: δ(1) = "1" (a single bit) — value 0 here.
        assert_eq!(EliasDelta.encoded_len(0), 1);
        // ... but value 1 (coded 2) costs 4 bits: "0100".
        assert_eq!(EliasDelta.encoded_len(1), 4);
    }

    #[test]
    fn gamma_roundtrip_small_and_boundary() {
        let vals: Vec<u64> = (0..200)
            .chain([254, 255, 256, 1023, 1024, (1 << 32) - 1, 1 << 32, (1 << 62)])
            .collect();
        roundtrip(&EliasGamma, &vals);
    }

    #[test]
    fn delta_roundtrip_small_and_boundary() {
        let vals: Vec<u64> = (0..200)
            .chain([
                254,
                255,
                256,
                1023,
                1024,
                (1 << 32) - 1,
                1 << 32,
                (1 << 62),
                u64::MAX - 1,
                u64::MAX,
            ])
            .collect();
        roundtrip(&EliasDelta, &vals);
    }

    #[test]
    fn delta_beats_gamma_for_large_values() {
        for v in [1_000u64, 1_000_000, 1 << 40] {
            assert!(EliasDelta.encoded_len(v) < EliasGamma.encoded_len(v));
        }
    }

    #[test]
    fn every_length_roundtrips_at_every_word_offset() {
        // Both ends of every value length (1..=64 bits of v + 1), placed at
        // each bit offset of a word, so one- and two-write codewords and
        // codewords straddling a word boundary are all covered. δ also
        // takes length 65: `u64::MAX`.
        let vals: Vec<u64> = (1..=64u32)
            .flat_map(|len| {
                let lo = (1u64 << (len - 1)) - 1;
                let hi = if len == 64 {
                    u64::MAX - 1
                } else {
                    (1u64 << len) - 2
                };
                [lo, hi]
            })
            .collect();
        for offset in 0..64 {
            let mut w = BitWriter::new();
            w.write(0, offset);
            for &v in &vals {
                EliasDelta.encode(v, &mut w);
                EliasGamma.encode(v, &mut w);
            }
            EliasDelta.encode(u64::MAX, &mut w);
            let bits = w.finish();
            let mut r = BitReader::new(&bits);
            assert_eq!(r.read(offset), Some(0));
            for &v in &vals {
                assert_eq!(
                    EliasDelta.decode(&mut r),
                    Some(v),
                    "δ v={v} offset={offset}"
                );
                assert_eq!(
                    EliasGamma.decode(&mut r),
                    Some(v),
                    "γ v={v} offset={offset}"
                );
            }
            assert_eq!(EliasDelta.decode(&mut r), Some(u64::MAX), "offset={offset}");
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn delta_takes_length_65_only_as_u64_max() {
        // A length field (6 zeros then `len` in 7 bits) and a 64-bit rest.
        let codeword = |len: u64, rest: u64| {
            let mut w = BitWriter::new();
            w.write_run(false, 6);
            for i in (0..7).rev() {
                w.write_bit((len >> i) & 1 == 1);
            }
            w.write(rest, 64);
            w.finish()
        };
        let decode = |bits: &BitVec| EliasDelta.decode(&mut BitReader::new(bits));
        // n = 2^64: γ(65), then 64 zero bits — exactly what the encoder writes.
        let max = codeword(65, 0);
        assert_eq!(decode(&max), Some(u64::MAX));
        assert_eq!(max, EliasDelta.encode_all(&[u64::MAX]));
        assert_eq!(EliasDelta.encoded_len(u64::MAX), max.len());
        // Any other 65-bit n overflows u64.
        for rest in [1, 1 << 31, 1 << 63, u64::MAX] {
            assert_eq!(decode(&codeword(65, rest)), None, "rest={rest:#x}");
        }
        // Lengths above 65 never code a u64.
        assert_eq!(decode(&codeword(66, 0)), None);
        assert_eq!(decode(&codeword(127, 0)), None);
        // A run of 7 zeros can only start a length of 128 or more.
        let bits = BitVec::from_bools(&[false; 70]);
        assert_eq!(decode(&bits), None);
        // γ(65) with its zero bits cut short is truncated.
        let mut r = BitReader::with_range(&max, 0, max.len() - 1);
        assert_eq!(EliasDelta.decode(&mut r), None);
    }

    #[test]
    fn truncated_streams_decode_to_none() {
        let d = EliasDelta;
        let bits = d.encode_all(&[123_456]);
        for cut in 0..bits.len() {
            let mut r = sbf_bitvec::BitReader::with_range(&bits, 0, cut);
            assert_eq!(d.decode(&mut r), None, "cut at {cut}");
        }
    }

    proptest! {
        #[test]
        fn gamma_roundtrip_prop(vals in prop::collection::vec(0u64..u64::MAX - 1, 0..50)) {
            roundtrip(&EliasGamma, &vals);
        }

        #[test]
        fn delta_roundtrip_prop(
            vals in prop::collection::vec(prop_oneof![8 => any::<u64>(), 1 => Just(u64::MAX)], 0..50),
        ) {
            roundtrip(&EliasDelta, &vals);
        }

        #[test]
        fn delta_len_is_monotone_in_magnitude_class(v in 0u64..(1 << 60)) {
            // Doubling a value never shrinks its code.
            prop_assert!(EliasDelta.encoded_len(v.saturating_mul(2)) >= EliasDelta.encoded_len(v));
        }
    }
}

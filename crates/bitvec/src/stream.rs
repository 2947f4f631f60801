//! Sequential bit writers and readers.
//!
//! The prefix-free encodings of §4.5 (Elias γ/δ and the "steps" method) are
//! written and decoded sequentially; these cursors keep that code free of
//! index bookkeeping. Every stream is LSB-first within little-endian `u64`
//! words — a [`BitVec`]'s layout — and comes in two backings: a
//! [`BitWriter`]/[`BitReader`] over a [`BitVec`], and a
//! [`ByteWriter`]/[`ByteReader`] over the same words held as bytes, which is
//! how a coded counter vector travels on the wire. [`BitSink`] and
//! [`BitSource`] let one codec drive either backing a field at a time.

use crate::bits::BitVec;

const WORD_BITS: usize = 64;

/// A destination for LSB-first bit fields.
pub trait BitSink {
    /// Appends the low `width` bits of `value`, LSB first (`width ≤ 64`).
    /// Bits of `value` above `width` must be zero.
    fn write(&mut self, value: u64, width: usize);
}

/// A source of LSB-first bit fields that can look ahead one word.
pub trait BitSource {
    /// Bits left to read.
    fn remaining(&self) -> usize;

    /// The next `min(64, remaining)` bits as the low bits of a word,
    /// without consuming them; the bits past the end read as zero.
    fn peek(&self) -> u64;

    /// Consumes `width ≤ remaining()` bits.
    fn consume(&mut self, width: usize);

    /// Reads `width` bits (`width ≤ 64`), advancing the cursor.
    ///
    /// Returns `None`, without advancing, if fewer than `width` bits remain.
    #[inline]
    fn read(&mut self, width: usize) -> Option<u64> {
        debug_assert!(width <= WORD_BITS);
        if width > self.remaining() {
            return None;
        }
        let v = self.peek();
        self.consume(width);
        Some(if width == WORD_BITS {
            v
        } else {
            v & ((1u64 << width) - 1)
        })
    }
}

/// Append-only bit writer producing a [`BitVec`].
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bits: BitVec,
}

impl BitWriter {
    /// A fresh writer.
    pub fn new() -> Self {
        BitWriter {
            bits: BitVec::new(),
        }
    }

    /// Appends the low `width` bits of `value`, LSB first (`width ≤ 64`).
    #[inline]
    pub fn write(&mut self, value: u64, width: usize) {
        self.bits.push_bits(value, width);
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.bits.push(bit);
    }

    /// Appends `count` copies of `bit`.
    pub fn write_run(&mut self, bit: bool, count: usize) {
        for _ in 0..count {
            self.bits.push(bit);
        }
    }

    /// Number of bits written so far.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Finishes and returns the bits.
    pub fn finish(self) -> BitVec {
        self.bits
    }
}

impl BitSink for BitWriter {
    #[inline]
    fn write(&mut self, value: u64, width: usize) {
        BitWriter::write(self, value, width);
    }
}

/// Sequential bit reader over a [`BitVec`] slice of the caller.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bits: &'a BitVec,
    pos: usize,
    end: usize,
}

impl<'a> BitReader<'a> {
    /// Reads from the start of `bits`.
    pub fn new(bits: &'a BitVec) -> Self {
        BitReader {
            bits,
            pos: 0,
            end: bits.len(),
        }
    }

    /// Reads the sub-range `start .. end` of `bits`.
    pub fn with_range(bits: &'a BitVec, start: usize, end: usize) -> Self {
        assert!(
            start <= end && end <= bits.len(),
            "reader range out of bounds"
        );
        BitReader {
            bits,
            pos: start,
            end,
        }
    }

    /// Current absolute bit position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bits left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.end - self.pos
    }

    /// Reads `width` bits (`width ≤ 64`), advancing the cursor.
    ///
    /// Returns `None` if fewer than `width` bits remain.
    #[inline]
    pub fn read(&mut self, width: usize) -> Option<u64> {
        BitSource::read(self, width)
    }

    /// Reads one bit.
    pub fn read_bit(&mut self) -> Option<bool> {
        if self.remaining() == 0 {
            return None;
        }
        let b = self.bits.get(self.pos);
        self.pos += 1;
        Some(b)
    }
}

impl BitSource for BitReader<'_> {
    #[inline]
    fn remaining(&self) -> usize {
        self.end - self.pos
    }

    #[inline]
    fn peek(&self) -> u64 {
        self.bits
            .read_bits(self.pos, self.remaining().min(WORD_BITS))
    }

    #[inline]
    fn consume(&mut self, width: usize) {
        debug_assert!(width <= self.remaining());
        self.pos += width;
    }
}

/// Append-only bit writer that emits each finished word as 8 little-endian
/// bytes onto the end of a caller's buffer: the byte form of the
/// [`BitVec`] a [`BitWriter`] would have built, with no intermediate copy.
///
/// [`ByteWriter::finish`] flushes the last, partly filled word (its unused
/// high bits zero) and must be called.
#[derive(Debug)]
#[must_use = "the last partial word is only written by `finish`"]
pub struct ByteWriter<'a> {
    out: &'a mut Vec<u8>,
    /// The word being filled; its low `len % 64` bits are pending.
    acc: u64,
    len: usize,
}

impl<'a> ByteWriter<'a> {
    /// Appends to `out` after whatever it already holds.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        ByteWriter {
            out,
            acc: 0,
            len: 0,
        }
    }

    /// Flushes the last partial word and returns the number of bits written.
    pub fn finish(self) -> usize {
        if !self.len.is_multiple_of(WORD_BITS) {
            self.out.extend_from_slice(&self.acc.to_le_bytes());
        }
        self.len
    }
}

impl BitSink for ByteWriter<'_> {
    #[inline]
    fn write(&mut self, value: u64, width: usize) {
        debug_assert!(width <= WORD_BITS);
        debug_assert!(
            width == WORD_BITS || value < (1u64 << width),
            "value wider than field"
        );
        let fill = self.len % WORD_BITS;
        self.acc |= value << fill;
        self.len += width;
        if fill + width >= WORD_BITS {
            self.out.extend_from_slice(&self.acc.to_le_bytes());
            // The bits of `value` that did not fit start the next word.
            self.acc = if fill == 0 {
                0
            } else {
                value >> (WORD_BITS - fill)
            };
        }
    }
}

/// Sequential bit reader over little-endian `u64` words held as bytes —
/// what a [`ByteWriter`] emits — without copying them into a [`BitVec`].
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    end: usize,
}

impl<'a> ByteReader<'a> {
    /// Reads bits `0 .. bit_len` of the words in `bytes`.
    ///
    /// # Panics
    ///
    /// If `bytes` holds fewer than the `⌈bit_len / 64⌉` whole words those
    /// bits lie in.
    pub fn new(bytes: &'a [u8], bit_len: usize) -> Self {
        assert!(
            bit_len.div_ceil(WORD_BITS) * 8 <= bytes.len(),
            "reader range out of bounds"
        );
        ByteReader {
            bytes,
            pos: 0,
            end: bit_len,
        }
    }

    /// Word `i`; every word holding a bit below the end is whole (checked
    /// by [`ByteReader::new`]).
    #[inline]
    fn word(&self, i: usize) -> u64 {
        self.bytes
            .get(i * 8..i * 8 + 8)
            .and_then(|b| <[u8; 8]>::try_from(b).ok())
            .map_or(0, u64::from_le_bytes)
    }
}

impl BitSource for ByteReader<'_> {
    #[inline]
    fn remaining(&self) -> usize {
        self.end - self.pos
    }

    #[inline]
    fn peek(&self) -> u64 {
        let avail = self.remaining().min(WORD_BITS);
        let (w, off) = (self.pos / WORD_BITS, self.pos % WORD_BITS);
        let mut v = self.word(w) >> off;
        if off + avail > WORD_BITS {
            v |= self.word(w + 1) << (WORD_BITS - off);
        }
        if avail == WORD_BITS {
            v
        } else {
            v & ((1u64 << avail) - 1)
        }
    }

    #[inline]
    fn consume(&mut self, width: usize) {
        debug_assert!(width <= self.remaining());
        self.pos += width;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let mut w = BitWriter::new();
        w.write(0b101, 3);
        w.write(0xFFFF, 16);
        w.write(0, 7);
        w.write(u64::MAX, 64);
        let bits = w.finish();
        let mut r = BitReader::new(&bits);
        assert_eq!(r.read(3), Some(0b101));
        assert_eq!(r.read(16), Some(0xFFFF));
        assert_eq!(r.read(7), Some(0));
        assert_eq!(r.read(64), Some(u64::MAX));
        assert_eq!(r.read(1), None);
    }

    #[test]
    fn read_past_end_returns_none_without_advancing() {
        let mut w = BitWriter::new();
        w.write(0b11, 2);
        let bits = w.finish();
        let mut r = BitReader::new(&bits);
        assert_eq!(r.read(3), None);
        assert_eq!(r.position(), 0);
        assert_eq!(r.read(2), Some(0b11));
    }

    #[test]
    fn peek_looks_ahead_without_consuming() {
        let mut w = BitWriter::new();
        w.write_run(false, 5);
        w.write_bit(true);
        w.write(u64::MAX, 64);
        w.write(0b101, 3);
        let bits = w.finish();
        let mut r = BitReader::new(&bits);
        assert_eq!(r.peek().trailing_zeros(), 5);
        assert_eq!(r.position(), 0);
        r.consume(6);
        assert_eq!(r.peek(), u64::MAX);
        r.consume(64);
        // Near the end only the bits left are seen; the rest read as zero.
        assert_eq!(r.peek(), 0b101);
        r.consume(3);
        assert_eq!(r.peek(), 0);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn byte_cursors_match_the_bitvec_cursors() {
        let fields = [
            (0b1u64, 1),
            (0x2A, 7),
            (u64::MAX, 64),
            (0, 5),
            (0x1FFF, 13),
            (3, 63),
            (1, 64),
        ];
        let mut w = BitWriter::new();
        let mut out = vec![0xEE]; // a prefix the byte writer must keep
        let mut bw = ByteWriter::new(&mut out);
        for (value, width) in fields {
            w.write(value, width);
            bw.write(value, width);
        }
        let bit_len = bw.finish();
        assert_eq!(bit_len, w.len());
        let bits = w.finish();
        let words: Vec<u8> = bits.words().iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(out[0], 0xEE);
        assert_eq!(&out[1..], &words[..]);

        let mut br = ByteReader::new(&out[1..], bit_len);
        let mut r = BitReader::new(&bits);
        for (value, width) in fields {
            assert_eq!(br.peek(), r.peek());
            assert_eq!(BitSource::read(&mut br, width), Some(value));
            assert_eq!(r.read(width), Some(value));
        }
        assert_eq!(br.remaining(), 0);
        assert_eq!(BitSource::read(&mut br, 1), None);
    }

    #[test]
    fn byte_reader_ignores_bits_past_its_length() {
        let bytes = u64::MAX.to_le_bytes();
        let mut r = ByteReader::new(&bytes, 10);
        assert_eq!(r.peek(), 0x3FF);
        assert_eq!(BitSource::read(&mut r, 11), None);
        assert_eq!(BitSource::read(&mut r, 10), Some(0x3FF));
    }

    #[test]
    fn ranged_reader_respects_bounds() {
        let mut w = BitWriter::new();
        w.write(0xABCD, 16);
        let bits = w.finish();
        let mut r = BitReader::with_range(&bits, 4, 12);
        assert_eq!(r.remaining(), 8);
        assert_eq!(r.read(8), Some((0xABCD >> 4) & 0xFF));
        assert_eq!(r.read_bit(), None);
    }

    #[test]
    fn write_bit_interleaves_with_write() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        w.write(0b10, 2);
        w.write_bit(false);
        let bits = w.finish();
        assert_eq!(bits.len(), 4);
        assert_eq!(bits.read_bits(0, 4), 0b0101);
    }
}

//! A growable packed bit vector with arbitrary-width field access.

const WORD_BITS: usize = 64;

/// A packed vector of bits stored in `u64` words, LSB-first within a word.
///
/// Bit `i` lives in word `i / 64` at position `i % 64`. All multi-bit reads
/// and writes are little-endian in this bit order: `read_bits(p, w)` returns
/// the bits `p .. p+w` with bit `p` as the least-significant bit of the
/// result. This is the base array of the String-Array Index and the payload
/// of the encodings crate.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl std::fmt::Debug for BitVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BitVec(len={}, bits=", self.len)?;
        for i in 0..self.len.min(96) {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        if self.len > 96 {
            write!(f, "…")?;
        }
        write!(f, ")")
    }
}

impl BitVec {
    /// An empty bit vector.
    pub fn new() -> Self {
        BitVec {
            words: Vec::new(),
            len: 0,
        }
    }

    /// An empty bit vector with room for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        BitVec {
            words: Vec::with_capacity(bits.div_ceil(WORD_BITS)),
            len: 0,
        }
    }

    /// A bit vector of `bits` zero bits.
    pub fn zeros(bits: usize) -> Self {
        BitVec {
            words: vec![0; bits.div_ceil(WORD_BITS)],
            len: bits,
        }
    }

    /// Builds from a slice of booleans (index 0 becomes bit 0).
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut v = BitVec::with_capacity(bools.len());
        for &b in bools {
            v.push(b);
        }
        v
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words; bits past `len` in the last word are zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Appends one bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        let (w, b) = (self.len / WORD_BITS, self.len % WORD_BITS);
        if w == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[w] |= 1 << b;
        }
        self.len += 1;
    }

    /// Appends the low `width` bits of `value`, LSB first (`width ≤ 64`).
    ///
    /// Bits of `value` above `width` must be zero.
    #[inline]
    pub fn push_bits(&mut self, value: u64, width: usize) {
        debug_assert!(width <= 64);
        debug_assert!(
            width == 64 || value < (1u64 << width),
            "value wider than field"
        );
        if width == 0 {
            return;
        }
        let off = self.len % WORD_BITS;
        match self.words.last_mut() {
            Some(last) if off != 0 => {
                *last |= value << off;
                if off + width > WORD_BITS {
                    self.words.push(value >> (WORD_BITS - off));
                }
            }
            _ => self.words.push(value),
        }
        self.len += width;
    }

    /// Grows (with zero bits) or shrinks to exactly `bits` bits.
    pub fn resize(&mut self, bits: usize) {
        self.words.resize(bits.div_ceil(WORD_BITS), 0);
        if bits < self.len {
            // Clear the dropped tail so invariants on `words` hold.
            let rem = bits % WORD_BITS;
            if rem != 0 {
                if let Some(last) = self.words.last_mut() {
                    *last &= (1u64 << rem) - 1;
                }
            }
        }
        self.len = bits;
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Writes bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize, bit: bool) {
        debug_assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        if bit {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Number of one bits in the whole vector.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Reads the `width`-bit field starting at bit `pos` (`width ≤ 64`).
    ///
    /// Bits beyond the current length must not be touched; the caller is
    /// responsible for `pos + width ≤ len`.
    #[inline]
    pub fn read_bits(&self, pos: usize, width: usize) -> u64 {
        debug_assert!(width <= 64);
        debug_assert!(
            pos + width <= self.len,
            "read past end: {pos}+{width} > {}",
            self.len
        );
        if width == 0 {
            return 0;
        }
        let (w, b) = (pos / WORD_BITS, pos % WORD_BITS);
        let lo = self.words[w] >> b;
        let got = WORD_BITS - b;
        let raw = if width <= got {
            lo
        } else {
            lo | (self.words[w + 1] << got)
        };
        if width == 64 {
            raw
        } else {
            raw & ((1u64 << width) - 1)
        }
    }

    /// Writes `value` into the `width`-bit field at bit `pos` (`width ≤ 64`).
    ///
    /// Bits of `value` above `width` must be zero.
    #[inline]
    pub fn write_bits(&mut self, pos: usize, width: usize, value: u64) {
        debug_assert!(width <= 64);
        debug_assert!(
            pos + width <= self.len,
            "write past end: {pos}+{width} > {}",
            self.len
        );
        debug_assert!(
            width == 64 || value < (1u64 << width),
            "value wider than field"
        );
        if width == 0 {
            return;
        }
        let (w, b) = (pos / WORD_BITS, pos % WORD_BITS);
        let got = WORD_BITS - b;
        if width <= got {
            let mask = if width == 64 {
                u64::MAX
            } else {
                ((1u64 << width) - 1) << b
            };
            self.words[w] = (self.words[w] & !mask) | ((value << b) & mask);
        } else {
            // Low part into word w, high part into word w+1.
            let lo_mask = u64::MAX << b;
            self.words[w] = (self.words[w] & !lo_mask) | (value << b);
            let hi_bits = width - got;
            let hi_mask = (1u64 << hi_bits) - 1;
            self.words[w + 1] = (self.words[w + 1] & !hi_mask) | ((value >> got) & hi_mask);
        }
    }

    /// Moves the bit range `src .. src + count` to start at `dst`, with
    /// `memmove` semantics (the ranges may overlap). Bits left behind keep
    /// their previous values.
    ///
    /// This is the primitive behind the §4.4 slack-push: when a counter
    /// grows, every following counter up to the nearest slack is shifted.
    pub fn copy_within(&mut self, src: usize, dst: usize, count: usize) {
        assert!(
            src + count <= self.len && dst + count <= self.len,
            "copy_within out of range"
        );
        if count == 0 || src == dst {
            return;
        }
        if dst < src {
            // Copy forward in 64-bit chunks.
            let mut done = 0;
            while done < count {
                let chunk = (count - done).min(64);
                let v = self.read_bits(src + done, chunk);
                self.write_bits(dst + done, chunk, v);
                done += chunk;
            }
        } else {
            // Copy backward so overlapping moves don't clobber the source.
            let mut remaining = count;
            while remaining > 0 {
                let chunk = remaining.min(64);
                remaining -= chunk;
                let v = self.read_bits(src + remaining, chunk);
                self.write_bits(dst + remaining, chunk, v);
            }
        }
    }

    /// Sets the bit range `pos .. pos + count` to zero.
    pub fn clear_range(&mut self, pos: usize, count: usize) {
        assert!(pos + count <= self.len, "clear_range out of range");
        let mut done = 0;
        while done < count {
            let chunk = (count - done).min(64);
            self.write_bits(pos + done, chunk, 0);
            done += chunk;
        }
    }

    /// Iterator over all bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip() {
        let pattern: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        let v = BitVec::from_bools(&pattern);
        assert_eq!(v.len(), 200);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(v.get(i), b, "bit {i}");
        }
    }

    #[test]
    fn set_flips_bits() {
        let mut v = BitVec::zeros(130);
        v.set(0, true);
        v.set(63, true);
        v.set(64, true);
        v.set(129, true);
        assert_eq!(v.count_ones(), 4);
        v.set(64, false);
        assert_eq!(v.count_ones(), 3);
        assert!(!v.get(64));
        assert!(v.get(63));
    }

    #[test]
    fn read_write_aligned_fields() {
        let mut v = BitVec::zeros(256);
        v.write_bits(0, 8, 0xAB);
        v.write_bits(64, 64, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(v.read_bits(0, 8), 0xAB);
        assert_eq!(v.read_bits(64, 64), 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn read_write_straddling_fields() {
        let mut v = BitVec::zeros(256);
        // Field straddling the word boundary at bit 64.
        v.write_bits(60, 10, 0b10_1101_0110);
        assert_eq!(v.read_bits(60, 10), 0b10_1101_0110);
        // Neighbors untouched.
        assert_eq!(v.read_bits(0, 60), 0);
        assert_eq!(v.read_bits(70, 64), 0);
        // 64-bit field at an unaligned position.
        v.write_bits(100, 64, u64::MAX);
        assert_eq!(v.read_bits(100, 64), u64::MAX);
        assert_eq!(v.read_bits(99, 1), 0);
        assert_eq!(v.read_bits(164, 1), 0);
    }

    #[test]
    fn write_preserves_neighbors() {
        let mut v = BitVec::zeros(192);
        for i in 0..192 {
            v.set(i, true);
        }
        v.write_bits(50, 20, 0);
        for i in 0..192 {
            assert_eq!(v.get(i), !(50..70).contains(&i), "bit {i}");
        }
    }

    #[test]
    fn zero_width_ops_are_noops() {
        let mut v = BitVec::zeros(64);
        v.write_bits(10, 0, 0);
        assert_eq!(v.read_bits(10, 0), 0);
        assert_eq!(v.count_ones(), 0);
    }

    #[test]
    fn copy_within_non_overlapping() {
        let mut v = BitVec::zeros(300);
        v.write_bits(0, 24, 0xABCDEF);
        v.copy_within(0, 200, 24);
        assert_eq!(v.read_bits(200, 24), 0xABCDEF);
        assert_eq!(v.read_bits(0, 24), 0xABCDEF, "source unchanged");
    }

    #[test]
    fn copy_within_overlap_shift_right() {
        // Shifting a run right by 3 bits — the SAI slack-push direction.
        let mut v = BitVec::zeros(400);
        let payload = 0x1234_5678_9ABC_DEF0u64;
        v.write_bits(10, 64, payload);
        v.write_bits(74, 64, !payload);
        v.copy_within(10, 13, 128);
        assert_eq!(v.read_bits(13, 64), payload);
        assert_eq!(v.read_bits(77, 64), !payload);
    }

    #[test]
    fn copy_within_overlap_shift_left() {
        let mut v = BitVec::zeros(400);
        let payload = 0xF0E1_D2C3_B4A5_9687u64;
        v.write_bits(50, 64, payload);
        v.write_bits(114, 64, !payload);
        v.copy_within(50, 45, 128);
        assert_eq!(v.read_bits(45, 64), payload);
        assert_eq!(v.read_bits(109, 64), !payload);
    }

    #[test]
    fn copy_within_matches_model() {
        // Exhaustive-ish cross-check against a Vec<bool> model.
        let n = 230;
        let base: Vec<bool> = (0..n).map(|i| (i * 7 + 3) % 5 < 2).collect();
        for (src, dst, count) in [
            (0, 1, 100),
            (1, 0, 100),
            (13, 77, 64),
            (77, 13, 64),
            (5, 6, 1),
            (100, 40, 130),
            (40, 100, 130),
        ] {
            let mut v = BitVec::from_bools(&base);
            let mut model = base.clone();
            model.copy_within(src..src + count, dst);
            v.copy_within(src, dst, count);
            let got: Vec<bool> = v.iter().collect();
            assert_eq!(got, model, "src={src} dst={dst} count={count}");
        }
    }

    #[test]
    fn clear_range_clears_exactly() {
        let mut v = BitVec::zeros(200);
        for i in 0..200 {
            v.set(i, true);
        }
        v.clear_range(33, 100);
        for i in 0..200 {
            assert_eq!(v.get(i), !(33..133).contains(&i));
        }
    }

    #[test]
    fn resize_grows_with_zeros_and_shrinks_cleanly() {
        let mut v = BitVec::new();
        for _ in 0..70 {
            v.push(true);
        }
        v.resize(100);
        assert_eq!(v.len(), 100);
        assert_eq!(v.count_ones(), 70);
        assert!(!v.get(99));
        v.resize(10);
        assert_eq!(v.count_ones(), 10);
        // Growing again must not resurrect old bits.
        v.resize(100);
        assert_eq!(v.count_ones(), 10);
    }

    #[test]
    fn push_bits_matches_bitwise_pushes() {
        let fields = [
            (0b1u64, 1),
            (0x2A, 7),
            (u64::MAX, 64),
            (0, 5),
            (0x1FFF, 13),
            (3, 63),
        ];
        let mut v = BitVec::new();
        let mut model = BitVec::new();
        for (value, width) in fields {
            v.push_bits(value, width);
            for i in 0..width {
                model.push((value >> i) & 1 == 1);
            }
            assert_eq!(v, model, "after a {width}-bit field");
        }
        v.push_bits(0, 0);
        assert_eq!(v, model, "a zero-width push is a no-op");
    }

    #[test]
    fn words_tail_is_clean_after_shrink() {
        let mut v = BitVec::new();
        for _ in 0..64 {
            v.push(true);
        }
        v.resize(3);
        assert_eq!(v.words()[0], 0b111);
    }
}

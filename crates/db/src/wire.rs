//! Wire encoding of SBF counter vectors.
//!
//! §4.7.1 motivates keeping the filter in "one continuous block" so it can
//! be shipped between sites as a message. This module provides that wire
//! form for the distributed join algorithms: counters are Elias-δ coded
//! back-to-back (so a lightly-loaded SBF costs far less than `m` words) and
//! framed with the counter count. Hash parameters travel out of band — the
//! paper's precondition for union/multiply is that both sites already
//! agreed on `(m, k, seed)`.

use sbf_bitvec::{BitSource, ByteReader, ByteWriter};
use sbf_encoding::{Codec, DecodeSink, EliasDelta};

/// Encodes a counter vector into a framed byte message.
pub fn encode_counters(counters: impl ExactSizeIterator<Item = u64>) -> Vec<u8> {
    let mut out = Vec::new();
    encode_counters_into(counters, &mut out);
    out
}

/// Appends the counter frame — `m`, the payload bit length, then the
/// Elias-δ codewords as little-endian words — to `out`, coding each counter
/// straight into the output bytes.
fn encode_counters_into(counters: impl ExactSizeIterator<Item = u64>, out: &mut Vec<u8>) {
    let m = counters.len();
    let header = out.len();
    // Every codeword costs at least one bit.
    out.reserve(16 + m.div_ceil(64) * 8);
    out.extend_from_slice(&(m as u64).to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes()); // bit length, patched below
    let mut w = ByteWriter::new(out);
    for c in counters {
        EliasDelta.encode_to(c, &mut w);
    }
    let bit_len = w.finish() as u64;
    out[header + 8..header + 16].copy_from_slice(&bit_len.to_le_bytes());
}

/// Decoding failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The frame is shorter than its header claims.
    Truncated,
    /// A counter codeword was malformed.
    BadCodeword,
    /// A header field claims more counters than the decoder's cap allows.
    ///
    /// Raised *before* any allocation sized by untrusted input, so a
    /// hostile frame cannot drive the decoder into a huge `Vec` reserve
    /// (see [`decode_counters_capped`]).
    Oversized,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire frame truncated"),
            WireError::BadCodeword => write!(f, "malformed counter codeword"),
            WireError::Oversized => write!(f, "wire frame exceeds counter cap"),
        }
    }
}

impl std::error::Error for WireError {}

/// Reads a little-endian `u64` from a length-checked 8-byte sub-slice.
fn le_u64(bytes: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(bytes);
    u64::from_le_bytes(b)
}

/// Reads a little-endian `u32` from a length-checked 4-byte sub-slice.
fn le_u32(bytes: &[u8]) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(bytes);
    u32::from_le_bytes(b)
}

/// Default counter-count cap for [`decode_counters`]: far above any filter
/// this workspace builds (`2^26` counters = 512 MiB of decoded `u64`s), far
/// below what a length-inflated header could otherwise request.
pub const DEFAULT_COUNTER_CAP: usize = 1 << 26;

/// Decodes a framed counter vector with the [`DEFAULT_COUNTER_CAP`].
///
/// Trusted-file callers (CLI filter files, in-process messages) use this
/// form; anything decoding attacker-controlled bytes (the `sbf-server`
/// request path) should pick its own cap via [`decode_counters_capped`].
pub fn decode_counters(frame: &[u8]) -> Result<Vec<u64>, WireError> {
    decode_counters_capped(frame, DEFAULT_COUNTER_CAP)
}

/// Decodes a framed counter vector, validating the untrusted header against
/// `max_counters` and the actual frame length **before any allocation**.
///
/// The header carries two attacker-controlled sizes: `m` (counter count,
/// which sizes the output `Vec`) and `bit_len` (payload bits). Checks, in
/// order:
///
/// 1. `m ≤ max_counters`, else [`WireError::Oversized`] — the caller's
///    allocation budget;
/// 2. `m ≤ bit_len` — every Elias-δ codeword costs ≥ 1 bit, so a header
///    claiming more counters than payload bits is lying
///    ([`WireError::Truncated`]);
/// 3. `bit_len` fits inside the bytes actually present
///    ([`WireError::Truncated`]);
/// 4. the payload is exactly the `⌈bit_len / 64⌉` words `bit_len` needs,
///    with no bytes after them ([`WireError::BadCodeword`]);
/// 5. each of the `m` codewords decodes inside `bit_len`, with a length
///    field of 1 to 64 ([`WireError::BadCodeword`]);
/// 6. the codewords fill `bit_len` exactly and the last word's padding
///    bits are zero ([`WireError::BadCodeword`]).
///
/// The encoder never emits a frame that fails 4–6. The codewords are read
/// straight from `frame`; the only allocation is the `m`-counter output.
/// Never panics on malformed input, and never allocates more than
/// `O(max_counters)` (fuzzed in `tests/wire_adversarial.rs`).
pub fn decode_counters_capped(frame: &[u8], max_counters: usize) -> Result<Vec<u64>, WireError> {
    decode_counters_capped_as(frame, max_counters)
}

/// [`decode_counters_capped`], decoding the counters into any
/// [`DecodeSink`]. Same checks, failures and allocation bound.
fn decode_counters_capped_as<C: DecodeSink + Default>(
    frame: &[u8],
    max_counters: usize,
) -> Result<C, WireError> {
    if frame.len() < 16 {
        return Err(WireError::Truncated);
    }
    let m = le_u64(&frame[0..8]);
    let bit_len = le_u64(&frame[8..16]);
    if m > max_counters as u64 {
        return Err(WireError::Oversized);
    }
    // `m` is now known small; `bit_len` must cover ≥ 1 bit per codeword and
    // must itself be covered by the bytes present.
    if m > bit_len {
        return Err(WireError::Truncated);
    }
    let Ok(bit_len) = usize::try_from(bit_len) else {
        return Err(WireError::Truncated);
    };
    let m = m as usize; // ≤ max_counters: usize on every supported target
    let payload = &frame[16..];
    let need_words = bit_len.div_ceil(64);
    if payload.len() / 8 < need_words {
        return Err(WireError::Truncated);
    }
    if payload.len() != need_words * 8 {
        return Err(WireError::BadCodeword);
    }
    let mut reader = ByteReader::new(payload, bit_len);
    let mut out = C::default();
    out.reserve(m);
    EliasDelta
        .decode_into(&mut reader, m, &mut out)
        .ok_or(WireError::BadCodeword)?;
    // Nothing may follow the last codeword: no stray bits inside
    // `bit_len`, and zero padding up to the end of its word.
    let used = bit_len % 64;
    let dirty_padding = used != 0 && le_u64(&payload[payload.len() - 8..]) >> used != 0;
    if reader.remaining() != 0 || dirty_padding {
        return Err(WireError::BadCodeword);
    }
    Ok(out)
}

/// Wire size in bytes of a counter vector without materializing the frame.
pub fn encoded_size(counters: impl Iterator<Item = u64>) -> usize {
    let bits: usize = counters.map(|c| EliasDelta.encoded_len(c)).sum();
    16 + bits.div_ceil(64) * 8
}

/// Algorithm tag carried in a [`FilterEnvelope`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterKind {
    /// A plain Bloom filter (bit vector shipped as 0/1 counters).
    Bloom,
    /// A Minimum Selection SBF.
    MinimumSelection,
    /// A Minimal Increase SBF.
    MinimalIncrease,
    /// A Recurring Minimum SBF (primary counters only; the secondary
    /// travels as its own envelope).
    RecurringMinimum,
}

impl FilterKind {
    fn to_byte(self) -> u8 {
        match self {
            FilterKind::Bloom => 0,
            FilterKind::MinimumSelection => 1,
            FilterKind::MinimalIncrease => 2,
            FilterKind::RecurringMinimum => 3,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(FilterKind::Bloom),
            1 => Some(FilterKind::MinimumSelection),
            2 => Some(FilterKind::MinimalIncrease),
            3 => Some(FilterKind::RecurringMinimum),
            _ => None,
        }
    }
}

/// A self-describing filter message: algorithm, parameters and counters.
///
/// This is the "Bloom filter as a message" of §1.1.1/§4.7.1 made concrete:
/// the receiving site can reconstruct a compatible filter (same `m`, `k`,
/// `seed` — the union/multiply precondition) without out-of-band
/// agreement.
///
/// The counters are a `Vec<u64>` unless a decoder put them into another
/// [`DecodeSink`] ([`FilterEnvelope::decode_capped_as`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterEnvelope<C = Vec<u64>> {
    /// Which algorithm produced the counters.
    pub kind: FilterKind,
    /// Number of hash functions.
    pub k: u32,
    /// Hash seed both sites must share.
    pub seed: u64,
    /// The counter vector (length `m`).
    pub counters: C,
}

/// Serializes a [`FilterEnvelope`] from borrowed parts — the same bytes as
/// [`FilterEnvelope::encode`], coded straight from `counters` (a filter's
/// own counter slice, say) without first collecting them into an
/// envelope.
pub fn encode_envelope(
    kind: FilterKind,
    k: u32,
    seed: u64,
    counters: impl ExactSizeIterator<Item = u64>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(18);
    out.extend_from_slice(&0x5BF0_CAFEu32.to_le_bytes()); // magic
    out.push(1); // version
    out.push(kind.to_byte());
    out.extend_from_slice(&k.to_le_bytes());
    out.extend_from_slice(&seed.to_le_bytes());
    encode_counters_into(counters, &mut out);
    out
}

impl FilterEnvelope {
    /// Serializes: magic, version, kind, k, seed, then the counter frame.
    pub fn encode(&self) -> Vec<u8> {
        encode_envelope(self.kind, self.k, self.seed, self.counters.iter().copied())
    }

    /// Deserializes, validating magic/version/kind and the counter frame.
    /// Never panics on malformed input (fuzzed in the tests). Uses the
    /// [`DEFAULT_COUNTER_CAP`]; network-facing callers should pass their
    /// own budget via [`FilterEnvelope::decode_capped`].
    pub fn decode(frame: &[u8]) -> Result<Self, WireError> {
        Self::decode_capped(frame, DEFAULT_COUNTER_CAP)
    }

    /// Like [`FilterEnvelope::decode`], but with a caller-supplied cap on
    /// the decoded counter count (see [`decode_counters_capped`]).
    pub fn decode_capped(frame: &[u8], max_counters: usize) -> Result<Self, WireError> {
        Self::decode_capped_as(frame, max_counters)
    }
}

impl<C: DecodeSink + Default> FilterEnvelope<C> {
    /// [`FilterEnvelope::decode_capped`], decoding the counters straight
    /// into `C`, so a store that keeps its counters narrower than `u64`
    /// fills from the frame without a `u64` copy of it.
    pub fn decode_capped_as(frame: &[u8], max_counters: usize) -> Result<Self, WireError> {
        if frame.len() < 18 {
            return Err(WireError::Truncated);
        }
        let magic = le_u32(&frame[0..4]);
        if magic != 0x5BF0_CAFE {
            return Err(WireError::BadCodeword);
        }
        if frame[4] != 1 {
            return Err(WireError::BadCodeword); // unknown version
        }
        let kind = FilterKind::from_byte(frame[5]).ok_or(WireError::BadCodeword)?;
        let k = le_u32(&frame[6..10]);
        let seed = le_u64(&frame[10..18]);
        let counters = decode_counters_capped_as(&frame[18..], max_counters)?;
        Ok(FilterEnvelope {
            kind,
            k,
            seed,
            counters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::prop_assert_eq;

    #[test]
    fn roundtrip() {
        let counters: Vec<u64> = (0..5000).map(|i| (i * i) % 97).collect();
        let frame = encode_counters(counters.iter().copied());
        let back = decode_counters(&frame).unwrap();
        assert_eq!(back, counters);
    }

    #[test]
    fn sparse_filters_are_tiny_on_the_wire() {
        // 10k counters, 100 of them 3, rest 0: Elias-δ spends 1 bit per zero.
        let counters: Vec<u64> = (0..10_000)
            .map(|i| if i % 100 == 0 { 3 } else { 0 })
            .collect();
        let frame = encode_counters(counters.iter().copied());
        assert!(frame.len() < 10_000 / 4, "frame {} bytes", frame.len());
        assert_eq!(frame.len(), encoded_size(counters.iter().copied()));
        assert_eq!(decode_counters(&frame).unwrap(), counters);
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let counters: Vec<u64> = (0..100).collect();
        let frame = encode_counters(counters.iter().copied());
        assert_eq!(decode_counters(&frame[..8]), Err(WireError::Truncated));
        assert_eq!(
            decode_counters(&frame[..frame.len() - 8]),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn envelope_roundtrip() {
        let env = FilterEnvelope {
            kind: FilterKind::MinimumSelection,
            k: 5,
            seed: 0xDEADBEEF,
            counters: (0..2000).map(|i| i % 13).collect(),
        };
        let frame = env.encode();
        assert_eq!(FilterEnvelope::decode(&frame).unwrap(), env);
    }

    #[test]
    fn envelope_rejects_garbage_headers() {
        let env = FilterEnvelope {
            kind: FilterKind::Bloom,
            k: 3,
            seed: 7,
            counters: vec![1, 0, 1],
        };
        let mut frame = env.encode().to_vec();
        frame[0] ^= 0xFF; // corrupt magic
        assert_eq!(FilterEnvelope::decode(&frame), Err(WireError::BadCodeword));
        let mut frame = env.encode().to_vec();
        frame[4] = 9; // unknown version
        assert_eq!(FilterEnvelope::decode(&frame), Err(WireError::BadCodeword));
        let mut frame = env.encode().to_vec();
        frame[5] = 200; // unknown kind
        assert_eq!(FilterEnvelope::decode(&frame), Err(WireError::BadCodeword));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Decoders must never panic on arbitrary bytes — they are the
        /// network-facing surface of the distributed schemes.
        #[test]
        fn decode_never_panics_on_fuzz(bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..400)) {
            let _ = decode_counters(&bytes);
            let _ = FilterEnvelope::decode(&bytes);
        }

        #[test]
        fn counter_roundtrip_prop(counters in proptest::collection::vec(0u64..(1u64 << 50), 0..300)) {
            let frame = encode_counters(counters.iter().copied());
            prop_assert_eq!(decode_counters(&frame).unwrap(), counters);
        }
    }

    #[test]
    fn oversized_headers_are_rejected_before_allocation() {
        let counters: Vec<u64> = (0..64).collect();
        let mut frame = encode_counters(counters.iter().copied());
        // Inflate the claimed counter count to u64::MAX: must fail with
        // Oversized (not attempt a huge Vec reserve, not panic).
        frame[0..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode_counters(&frame), Err(WireError::Oversized));
        // A claimed count above the caller's cap but below the payload's
        // bit budget still trips the cap.
        let frame = encode_counters((0..64u64).collect::<Vec<_>>().iter().copied());
        assert_eq!(
            decode_counters_capped(&frame, 63),
            Err(WireError::Oversized)
        );
        // At the exact cap it decodes fine.
        assert_eq!(
            decode_counters_capped(&frame, 64).unwrap(),
            (0..64).collect::<Vec<u64>>()
        );
    }

    #[test]
    fn counter_count_above_bit_budget_is_truncated() {
        // Claim more counters than payload bits: each δ codeword costs at
        // least one bit, so the header is lying about the frame length.
        let counters: Vec<u64> = vec![0; 10];
        let mut frame = encode_counters(counters.iter().copied());
        frame[0..8].copy_from_slice(&1000u64.to_le_bytes());
        assert_eq!(decode_counters(&frame), Err(WireError::Truncated));
    }

    #[test]
    fn envelope_honours_the_cap() {
        let env = FilterEnvelope {
            kind: FilterKind::MinimumSelection,
            k: 5,
            seed: 3,
            counters: (0..256).collect(),
        };
        let frame = env.encode();
        assert_eq!(
            FilterEnvelope::decode_capped(&frame, 100),
            Err(WireError::Oversized)
        );
        assert_eq!(FilterEnvelope::decode_capped(&frame, 256).unwrap(), env);
    }

    #[test]
    fn empty_vector() {
        let frame = encode_counters(
            std::iter::empty::<u64>()
                .collect::<Vec<_>>()
                .iter()
                .copied(),
        );
        assert_eq!(decode_counters(&frame).unwrap(), Vec::<u64>::new());
    }
}

//! Adversarial property tests for every decoder that faces bytes from the
//! network: the Elias-δ counter frame (`sbf_db::wire`), the filter
//! envelope, and the `sbfd` request/response framing (`sbf_server::proto`).
//!
//! The contract under test, for arbitrary hostile input:
//!
//! * decoding returns `Err` — it never panics, and
//! * no allocation is sized by an unvalidated header field, so a 16-byte
//!   frame claiming 2^60 counters dies in `O(1)` (`WireError::Oversized` /
//!   `Truncated`), and
//! * well-formed frames still roundtrip after the hardening.

use proptest::prelude::*;

use sbf_db::logrec::{append_record, LogScanner, TailStatus};
use sbf_db::wire::{
    decode_counters, decode_counters_capped, encode_counters, FilterEnvelope, FilterKind, WireError,
};
use sbf_server::{Request, Response};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Well-formed frames still decode to the exact counters, over the
    /// whole value domain: each counter is a random word shifted right by
    /// a random amount, so every codeword length from 1 bit to past 64
    /// bits, at every offset in a word, turns up. A shift of 64 stands for
    /// a saturated counter, `u64::MAX`. The frame matches the per-bit
    /// oracle bit for bit.
    #[test]
    fn counter_frames_roundtrip(
        draws in prop::collection::vec((0u32..65, any::<u64>()), 0..256),
    ) {
        let counters: Vec<u64> = draws
            .iter()
            .map(|&(shift, word)| word.checked_shr(shift).unwrap_or(u64::MAX))
            .collect();
        let frame = encode_counters(counters.iter().copied());
        prop_assert_eq!(&frame, &per_bit_counter_frame(&counters));
        prop_assert_eq!(decode_counters(&frame), Ok(counters.clone()));
        prop_assert_eq!(
            decode_counters_capped(&frame, counters.len()),
            Ok(counters)
        );
    }

    /// Truncating a valid frame anywhere yields `Err`, never a panic and
    /// never a partial success.
    #[test]
    fn truncated_counter_frames_error(
        counters in prop::collection::vec(0u64..1 << 16, 1..128),
        cut in 0usize..1000,
    ) {
        let frame = encode_counters(counters.iter().copied());
        let cut = cut % frame.len();
        prop_assert!(decode_counters(&frame[..cut]).is_err());
    }

    /// Flipping any single bit of a valid frame either still decodes (the
    /// flip landed in padding or produced another valid stream) or errors
    /// — it never panics, and a success never exceeds the cap.
    #[test]
    fn bit_flipped_counter_frames_never_panic(
        counters in prop::collection::vec(0u64..1 << 16, 1..64),
        flip in 0usize..100_000,
    ) {
        let mut frame = encode_counters(counters.iter().copied());
        let bit = flip % (frame.len() * 8);
        frame[bit / 8] ^= 1 << (bit % 8);
        if let Ok(decoded) = decode_counters_capped(&frame, counters.len()) {
            prop_assert!(decoded.len() <= counters.len());
        }
    }

    /// Inflating the header's counter count beyond the cap is refused
    /// before allocation: a tiny frame claiming up to `u64::MAX` counters
    /// must come back `Oversized` (cap breach) in O(1).
    #[test]
    fn length_inflated_headers_are_refused(
        counters in prop::collection::vec(0u64..1 << 16, 1..64),
        claim in (1u64 << 32)..u64::MAX,
    ) {
        let mut frame = encode_counters(counters.iter().copied());
        frame[0..8].copy_from_slice(&claim.to_le_bytes());
        prop_assert_eq!(
            decode_counters_capped(&frame, 1 << 20),
            Err(WireError::Oversized)
        );
    }

    /// Inflating the bit-length field instead is caught by the
    /// bytes-present check: `Truncated`, not a huge buffer.
    #[test]
    fn bit_length_inflated_headers_are_refused(
        counters in prop::collection::vec(0u64..1 << 16, 1..64),
        claim in (1u64 << 32)..u64::MAX,
    ) {
        let mut frame = encode_counters(counters.iter().copied());
        frame[8..16].copy_from_slice(&claim.to_le_bytes());
        prop_assert_eq!(
            decode_counters_capped(&frame, 1 << 20),
            Err(WireError::Truncated)
        );
    }

    /// Completely random bytes never panic any wire decoder.
    #[test]
    fn random_bytes_never_panic_the_decoders(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = decode_counters_capped(&bytes, 1 << 16);
        let _ = FilterEnvelope::decode_capped(&bytes, 1 << 16);
        if let Some((&opcode, payload)) = bytes.split_first() {
            let _ = Request::decode(opcode, payload);
            let _ = Response::decode(opcode, payload);
        }
    }

    /// Envelope roundtrip survives the hardened decode path.
    #[test]
    fn envelopes_roundtrip_under_cap(
        counters in prop::collection::vec(0u64..1 << 12, 1..128),
        k in 1u32..16,
        seed in any::<u64>(),
    ) {
        let env = FilterEnvelope {
            kind: FilterKind::MinimumSelection,
            k,
            seed,
            counters: counters.clone(),
        };
        let bytes = env.encode();
        let back = FilterEnvelope::decode_capped(&bytes, counters.len()).unwrap();
        prop_assert_eq!(back.counters, counters);
        prop_assert_eq!(back.k, k);
        prop_assert_eq!(back.seed, seed);
        // One fewer than needed: the cap must bite.
        prop_assert_eq!(
            FilterEnvelope::decode_capped(&bytes, env.counters.len() - 1).err(),
            Some(WireError::Oversized)
        );
    }

    /// Request frames roundtrip for arbitrary keys and batches, and the
    /// decoded form equals the encoded one (no silent truncation).
    #[test]
    fn request_frames_roundtrip(
        key in prop::collection::vec(any::<u8>(), 0..64),
        keys in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..32), 0..32),
        count in any::<u64>(),
    ) {
        for req in [
            Request::Insert { count, key: key.clone() },
            Request::Remove { count, key: key.clone() },
            Request::Estimate { key: key.clone() },
            Request::InsertBatch { keys: keys.clone() },
            Request::EstimateBatch { keys: keys.clone() },
            Request::Merge { envelope: key.clone() },
        ] {
            let bytes = req.encode().expect("well-formed requests encode");
            let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
            prop_assert_eq!(len, bytes.len() - 4);
            let back = Request::decode(bytes[4], &bytes[5..]);
            prop_assert_eq!(back, Ok(req));
        }
    }

    /// A batch header claiming more elements than the payload could hold
    /// is refused before the output vector is reserved.
    #[test]
    fn hostile_batch_counts_are_refused(
        claim in (1u32 << 16)..u32::MAX,
        tail in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut payload = claim.to_le_bytes().to_vec();
        payload.extend_from_slice(&tail);
        // Opcode 0x05 = INSERT_BATCH, 0x06 = ESTIMATE_BATCH.
        for opcode in [0x05u8, 0x06] {
            prop_assert!(Request::decode(opcode, &payload).is_err());
        }
    }
}

// The WAL record codec faces bytes from *disk* after a crash: torn
// tails, flipped bits, duplicated suffixes. Same contract as the wire
// decoders — never panic, never allocate from an unvalidated length —
// plus the repair property recovery relies on: the scanner's
// `valid_len()` always marks a prefix that re-scans clean.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Well-formed logs roundtrip and end clean.
    #[test]
    fn log_records_roundtrip(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 0..32),
    ) {
        let mut log = Vec::new();
        for p in &payloads {
            append_record(&mut log, p).unwrap();
        }
        let mut scan = LogScanner::new(&log);
        let back: Vec<Vec<u8>> = scan.by_ref().map(<[u8]>::to_vec).collect();
        prop_assert_eq!(back, payloads);
        prop_assert_eq!(scan.tail(), TailStatus::Clean);
        prop_assert_eq!(scan.valid_len(), log.len());
    }

    /// A log truncated anywhere (a torn tail) yields some prefix of the
    /// records, and truncating at `valid_len()` repairs it: the repaired
    /// log re-scans clean with exactly the surviving records.
    #[test]
    fn torn_log_tails_truncate_to_a_clean_prefix(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..32), 1..16),
        cut in 0usize..4096,
    ) {
        let mut log = Vec::new();
        for p in &payloads {
            append_record(&mut log, p).unwrap();
        }
        let cut = cut % (log.len() + 1);
        let mut scan = LogScanner::new(&log[..cut]);
        let survived: Vec<Vec<u8>> = scan.by_ref().map(<[u8]>::to_vec).collect();
        prop_assert!(survived.len() <= payloads.len());
        prop_assert_eq!(&payloads[..survived.len()], &survived[..]);
        let keep = scan.valid_len();
        prop_assert!(keep <= cut);
        // The repair recovery performs: drop everything past valid_len.
        let mut rescan = LogScanner::new(&log[..keep]);
        let repaired = rescan.by_ref().count();
        prop_assert_eq!(repaired, survived.len());
        prop_assert_eq!(rescan.tail(), TailStatus::Clean);
    }

    /// Any single flipped bit is caught (CRC, length check, or header
    /// damage) without a panic, and the valid prefix still re-scans
    /// clean — corruption never yields a record that was not written.
    #[test]
    fn bit_flipped_logs_never_panic_and_stay_repairable(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..32), 1..16),
        flip in 0usize..100_000,
    ) {
        let mut log = Vec::new();
        for p in &payloads {
            append_record(&mut log, p).unwrap();
        }
        let bit = flip % (log.len() * 8);
        log[bit / 8] ^= 1 << (bit % 8);
        let mut scan = LogScanner::new(&log);
        let survived = scan.by_ref().count();
        prop_assert!(survived <= payloads.len());
        let keep = scan.valid_len();
        let mut rescan = LogScanner::new(&log[..keep]);
        prop_assert_eq!(rescan.by_ref().count(), survived);
        prop_assert_eq!(rescan.tail(), TailStatus::Clean);
    }

    /// A duplicated tail (the same records appended twice — e.g. a retry
    /// after an unacknowledged append) is simply more valid records:
    /// replay double-applies them, which only over-counts and keeps
    /// estimates one-sided.
    #[test]
    fn duplicated_log_tails_scan_as_extra_records(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..32), 1..8),
    ) {
        let mut log = Vec::new();
        for p in &payloads {
            append_record(&mut log, p).unwrap();
        }
        let tail = log.clone();
        log.extend_from_slice(&tail[..]);
        let mut scan = LogScanner::new(&log);
        prop_assert_eq!(scan.by_ref().count(), payloads.len() * 2);
        prop_assert_eq!(scan.tail(), TailStatus::Clean);
    }

    /// Completely random bytes never panic the scanner, and whatever
    /// valid prefix it reports re-scans clean.
    #[test]
    fn random_bytes_never_panic_the_log_scanner(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut scan = LogScanner::new(&bytes);
        let n = scan.by_ref().count();
        let keep = scan.valid_len();
        prop_assert!(keep <= bytes.len());
        let mut rescan = LogScanner::new(&bytes[..keep]);
        prop_assert_eq!(rescan.by_ref().count(), n);
        prop_assert_eq!(rescan.tail(), TailStatus::Clean);
    }
}

/// The counter frame coded one bit at a time, straight from §4.5: `m`,
/// the bit length, then per counter `n = c + 1` as γ(bitlen(n)) and the
/// low `bitlen(n) − 1` bits of `n`, each MSB first, packed LSB-first into
/// little-endian words. The oracle the word-at-a-time coder must match.
fn per_bit_counter_frame(counters: &[u64]) -> Vec<u8> {
    fn msb_first(bits: &mut Vec<bool>, v: u128, width: usize) {
        for i in (0..width).rev() {
            bits.push((v >> i) & 1 == 1);
        }
    }
    let bit_len = |v: u128| 128 - v.leading_zeros() as usize;
    let mut bits = Vec::new();
    for &c in counters {
        // n reaches 2^64 for a saturated counter.
        let n = u128::from(c) + 1;
        let len = bit_len(n);
        let len_len = bit_len(len as u128);
        bits.extend(std::iter::repeat_n(false, len_len - 1));
        msb_first(&mut bits, len as u128, len_len);
        msb_first(&mut bits, n, len - 1);
    }
    let mut frame = (counters.len() as u64).to_le_bytes().to_vec();
    frame.extend_from_slice(&(bits.len() as u64).to_le_bytes());
    for word in bits.chunks(64) {
        let word = word
            .iter()
            .enumerate()
            .fold(0u64, |w, (i, &bit)| w | (u64::from(bit) << i));
        frame.extend_from_slice(&word.to_le_bytes());
    }
    frame
}

/// Counters of the golden envelope: both ends of small lengths, a
/// codeword crossing a word boundary, and codewords of 64 bits and more.
const GOLDEN_COUNTERS: [u64; 11] = [
    0,
    1,
    2,
    3,
    7,
    8,
    255,
    256,
    (1 << 32) + 5,
    1 << 62,
    u64::MAX - 1,
];

/// `GOLDEN_COUNTERS` as a Minimum Selection envelope with k = 5 and
/// seed = 42, as the bit-at-a-time coder wrote it: files and replica
/// bootstraps in this format must keep decoding, and new ones must be
/// byte-identical.
const GOLDEN_ENVELOPE: &str = "fecaf05b0101050000002a000000000000000b00000000000000\
                               fc00000000000000450d0121120009084200000030f003000000\
                               0000008040e0ffffffffffffff0f";

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn golden_envelope_bytes_are_pinned() {
    let golden = unhex(GOLDEN_ENVELOPE);
    let env = FilterEnvelope {
        kind: FilterKind::MinimumSelection,
        k: 5,
        seed: 42,
        counters: GOLDEN_COUNTERS.to_vec(),
    };
    assert_eq!(env.encode(), golden, "the encoder changed the wire bytes");
    assert_eq!(&golden[18..], &per_bit_counter_frame(&GOLDEN_COUNTERS)[..]);
    assert_eq!(FilterEnvelope::decode(&golden), Ok(env));
}

/// A frame is exactly its codewords: anything past the last one is
/// refused, though the encoder never emits it.
#[test]
fn frames_with_anything_after_the_last_codeword_are_refused() {
    let counters = [3u64, 0, 5];
    let frame = encode_counters(counters.iter().copied());
    let bit_len = u64::from_le_bytes(frame[8..16].try_into().unwrap());
    assert_eq!(
        bit_len,
        5 + 1 + 5,
        "the cases below lean on a part-filled word"
    );
    assert_eq!(decode_counters(&frame), Ok(counters.to_vec()));

    // Leftover bits inside `bit_len`: a stray codeword past the m-th...
    let mut stray = encode_counters([3u64, 0, 5, 0].into_iter());
    stray[0..8].copy_from_slice(&3u64.to_le_bytes());
    assert_eq!(decode_counters(&stray), Err(WireError::BadCodeword));
    // ...or zero bits that form no codeword.
    let mut leftover = frame.clone();
    leftover[8..16].copy_from_slice(&(bit_len + 3).to_le_bytes());
    assert_eq!(decode_counters(&leftover), Err(WireError::BadCodeword));

    // A set bit in the last word's padding, past `bit_len`.
    let mut dirty = frame.clone();
    dirty[16 + 7] |= 0x80;
    assert_eq!(decode_counters(&dirty), Err(WireError::BadCodeword));

    // Bytes after the last word: one stray byte, or a whole zero word.
    for extra in [1usize, 8] {
        let mut long = frame.clone();
        long.resize(frame.len() + extra, 0);
        assert_eq!(decode_counters(&long), Err(WireError::BadCodeword));
        let mut env = unhex(GOLDEN_ENVELOPE);
        env.resize(env.len() + extra, 0);
        assert_eq!(FilterEnvelope::decode(&env), Err(WireError::BadCodeword));
    }
}

/// Deterministic regression cases pinned outside the property loop.
#[test]
fn pinned_hostile_frames() {
    // The original allocation hole: 16 header bytes claiming 2^60
    // counters with no payload at all.
    let mut frame = Vec::new();
    frame.extend_from_slice(&(1u64 << 60).to_le_bytes());
    frame.extend_from_slice(&u64::MAX.to_le_bytes());
    assert_eq!(decode_counters(&frame), Err(WireError::Oversized));

    // Sub-header frames.
    for n in 0..16 {
        assert_eq!(
            decode_counters_capped(&vec![0xFF; n], 1 << 10),
            Err(WireError::Truncated)
        );
    }

    // m > bit_len: more counters than payload bits can possibly encode.
    let mut frame = Vec::new();
    frame.extend_from_slice(&100u64.to_le_bytes());
    frame.extend_from_slice(&10u64.to_le_bytes());
    frame.extend_from_slice(&[0u8; 8]);
    assert_eq!(
        decode_counters_capped(&frame, 1 << 10),
        Err(WireError::Truncated)
    );
}

//! CRC-framed log records for the `sbfd` write-ahead log.
//!
//! A WAL record is a wire frame re-armored for disk. On the wire, a frame's
//! `u32` length prefix is enough — TCP delivers bytes intact or not at all.
//! On disk the failure mode is different: a crash mid-`write` leaves a
//! *torn tail* (a half-written record), and a torn length prefix can point
//! anywhere. So each record carries a CRC32 over its payload:
//!
//! ```text
//! record  := [len: u32 LE] [crc: u32 LE] [payload: len bytes]
//! log     := record*  (possibly followed by one torn tail)
//! payload := opcode byte + request body — exactly the bytes of a wire
//!            frame after its own length prefix
//! ```
//!
//! [`LogScanner`] walks a log image, yielding each intact payload and
//! stopping at the first record that is short, oversized, or fails its CRC.
//! The scanner reports *where* the valid prefix ends ([`LogScanner::valid_len`])
//! so recovery can truncate the file there and resume appending — a torn
//! tail is expected wreckage from a crash, not corruption worth refusing to
//! start over (only the unacknowledged suffix is lost).
//!
//! CRC32 is the IEEE polynomial (0xEDB88320, reflected), table-driven and
//! built at compile time — no external crate, per the workspace's
//! no-network-registry constraint.

use crate::framing::{u32_len, EncodeError};
use spectral_bloom::num::try_usize;

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) lookup table,
/// built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `bytes` — the checksum zlib, PNG and Ethernet use, so a
/// log written here can be checked by standard external tooling.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        let idx = ((crc ^ u32::from(b)) & 0xFF) as usize;
        crc = (crc >> 8) ^ CRC32_TABLE[idx];
    }
    !crc
}

/// Bytes of framing overhead per record (`len` + `crc`).
pub const RECORD_HEADER_LEN: usize = 8;

/// Default per-record payload cap for [`LogScanner`]: generous for any
/// request `sbfd` accepts (its own frame cap is far smaller), tiny next to
/// what a torn length prefix could claim.
pub const DEFAULT_RECORD_CAP: usize = 1 << 26;

/// Why appending a record was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogRecError {
    /// The payload cannot be described by a `u32` length prefix.
    Oversized,
}

impl std::fmt::Display for LogRecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogRecError::Oversized => write!(f, "log record payload exceeds u32 length prefix"),
        }
    }
}

impl std::error::Error for LogRecError {}

impl From<EncodeError> for LogRecError {
    fn from(e: EncodeError) -> Self {
        match e {
            EncodeError::Oversized => LogRecError::Oversized,
        }
    }
}

/// Appends one framed record (`len`, `crc`, payload) to `buf`.
///
/// Fails only if the payload cannot fit a `u32` length field — the
/// narrowing goes through [`crate::framing::u32_len`], checked not wrapped,
/// so an absurd payload is an error instead of a record that lies about its
/// own length (satellite 3's bug class).
pub fn append_record(buf: &mut Vec<u8>, payload: &[u8]) -> Result<(), LogRecError> {
    let len = u32_len(payload.len())?;
    buf.reserve(RECORD_HEADER_LEN + payload.len());
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    Ok(())
}

/// Why a scan stopped before the end of the log image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornReason {
    /// Fewer than [`RECORD_HEADER_LEN`] bytes remained — a header was cut
    /// mid-write.
    TruncatedHeader,
    /// The header is intact but fewer than `len` payload bytes follow.
    TruncatedPayload,
    /// The payload bytes are present but fail their CRC — a torn or
    /// bit-rotted write inside the record body.
    BadCrc,
    /// The length prefix exceeds the scanner's per-record cap; treated as a
    /// torn tail because a half-written prefix can claim anything.
    Oversized,
}

impl std::fmt::Display for TornReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TornReason::TruncatedHeader => write!(f, "record header truncated"),
            TornReason::TruncatedPayload => write!(f, "record payload truncated"),
            TornReason::BadCrc => write!(f, "record CRC mismatch"),
            TornReason::Oversized => write!(f, "record length exceeds cap"),
        }
    }
}

/// What the scanner found after the last intact record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailStatus {
    /// The log ends exactly at a record boundary.
    Clean,
    /// A torn tail follows the valid prefix; recovery should truncate the
    /// log to [`LogScanner::valid_len`] bytes.
    Torn(TornReason),
}

/// Iterator over the intact records of a log image.
///
/// Yields each record's payload slice in order. Iteration stops at the
/// first torn record; afterwards [`LogScanner::valid_len`] is the byte
/// length of the valid prefix and [`LogScanner::tail`] says why scanning
/// stopped. No allocation is ever sized by a length prefix — payloads are
/// borrowed sub-slices of the image the caller already holds, so a hostile
/// or torn prefix claiming 2^30 bytes costs `O(1)` to reject.
pub struct LogScanner<'a> {
    bytes: &'a [u8],
    pos: usize,
    max_record: usize,
    tail: TailStatus,
    done: bool,
}

impl<'a> LogScanner<'a> {
    /// Scans `bytes` with the [`DEFAULT_RECORD_CAP`].
    pub fn new(bytes: &'a [u8]) -> Self {
        Self::with_cap(bytes, DEFAULT_RECORD_CAP)
    }

    /// Scans `bytes` refusing any record whose payload exceeds `max_record`.
    pub fn with_cap(bytes: &'a [u8], max_record: usize) -> Self {
        LogScanner {
            bytes,
            pos: 0,
            max_record,
            tail: TailStatus::Clean,
            done: false,
        }
    }

    /// Byte length of the valid record prefix scanned so far. After the
    /// iterator is exhausted this is the truncation point for torn-tail
    /// repair: everything before it CRC-checked, everything after is the
    /// tail described by [`LogScanner::tail`].
    pub fn valid_len(&self) -> usize {
        self.pos
    }

    /// Tail state so far; final once the iterator returns `None`.
    pub fn tail(&self) -> TailStatus {
        self.tail
    }
}

impl<'a> Iterator for LogScanner<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.done {
            return None;
        }
        let rest = &self.bytes[self.pos..];
        if rest.is_empty() {
            self.done = true;
            return None;
        }
        if rest.len() < RECORD_HEADER_LEN {
            self.tail = TailStatus::Torn(TornReason::TruncatedHeader);
            self.done = true;
            return None;
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        let torn = |reason| TailStatus::Torn(reason);
        let Some(len) = try_usize(u64::from(len)) else {
            self.tail = torn(TornReason::Oversized);
            self.done = true;
            return None;
        };
        if len > self.max_record {
            self.tail = torn(TornReason::Oversized);
            self.done = true;
            return None;
        }
        if rest.len() - RECORD_HEADER_LEN < len {
            self.tail = torn(TornReason::TruncatedPayload);
            self.done = true;
            return None;
        }
        let payload = &rest[RECORD_HEADER_LEN..RECORD_HEADER_LEN + len];
        if crc32(payload) != crc {
            self.tail = torn(TornReason::BadCrc);
            self.done = true;
            return None;
        }
        self.pos += RECORD_HEADER_LEN + len;
        Some(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(payloads: &[&[u8]]) -> Vec<u8> {
        let mut buf = Vec::new();
        for p in payloads {
            append_record(&mut buf, p).unwrap();
        }
        buf
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values (same as zlib's crc32()).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn roundtrip_and_clean_tail() {
        let log = log_of(&[b"alpha", b"", b"\x02counted-key"]);
        let mut scan = LogScanner::new(&log);
        let records: Vec<&[u8]> = scan.by_ref().collect();
        assert_eq!(
            records,
            vec![&b"alpha"[..], &b""[..], &b"\x02counted-key"[..]]
        );
        assert_eq!(scan.tail(), TailStatus::Clean);
        assert_eq!(scan.valid_len(), log.len());
    }

    #[test]
    fn torn_tail_is_detected_at_every_cut() {
        let log = log_of(&[b"first", b"second", b"third"]);
        let boundaries: Vec<usize> = {
            let mut scan = LogScanner::new(&log);
            let mut b = vec![0];
            while scan.next().is_some() {
                b.push(scan.valid_len());
            }
            b
        };
        for cut in 0..log.len() {
            let mut scan = LogScanner::new(&log[..cut]);
            let n = scan.by_ref().count();
            // The valid prefix is the largest record boundary ≤ cut.
            let expect = boundaries
                .iter()
                .rev()
                .find(|&&b| b <= cut)
                .copied()
                .unwrap();
            assert_eq!(scan.valid_len(), expect, "cut at {cut}");
            assert_eq!(
                n,
                boundaries.iter().filter(|&&b| b != 0 && b <= cut).count()
            );
            if cut == expect {
                assert_eq!(scan.tail(), TailStatus::Clean);
            } else {
                assert!(matches!(scan.tail(), TailStatus::Torn(_)), "cut at {cut}");
            }
        }
    }

    #[test]
    fn bad_crc_stops_the_scan() {
        let mut log = log_of(&[b"first", b"second"]);
        let last = log.len() - 1;
        log[last] ^= 0x40; // corrupt the final payload byte
        let mut scan = LogScanner::new(&log);
        assert_eq!(scan.next(), Some(&b"first"[..]));
        assert_eq!(scan.next(), None);
        assert_eq!(scan.tail(), TailStatus::Torn(TornReason::BadCrc));
        assert_eq!(scan.valid_len(), RECORD_HEADER_LEN + 5);
    }

    #[test]
    fn oversized_prefix_is_rejected_in_constant_space() {
        // A torn header claiming a huge record must not be trusted.
        let mut log = log_of(&[b"ok"]);
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&0u32.to_le_bytes());
        let mut scan = LogScanner::new(&log);
        assert_eq!(scan.next(), Some(&b"ok"[..]));
        assert_eq!(scan.next(), None);
        assert_eq!(scan.tail(), TailStatus::Torn(TornReason::Oversized));

        // Same claim under the cap is merely truncated payload.
        let mut scan = LogScanner::with_cap(&log, usize::MAX);
        assert_eq!(scan.next(), Some(&b"ok"[..]));
        assert_eq!(scan.next(), None);
        assert_eq!(scan.tail(), TailStatus::Torn(TornReason::TruncatedPayload));
    }

    #[test]
    fn empty_log_is_clean() {
        let mut scan = LogScanner::new(&[]);
        assert_eq!(scan.next(), None);
        assert_eq!(scan.tail(), TailStatus::Clean);
        assert_eq!(scan.valid_len(), 0);
    }
}

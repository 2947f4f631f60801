//! Per-connection reactor state: the read-accumulate → frame-split →
//! dispatch → write-drain machine, minus the I/O itself (which lives in
//! [`super::Reactor`] so this file stays unit-testable without sockets).
//!
//! The frame splitter is where pipelining happens: one TCP segment
//! carrying N frames yields N queued [`FrameItem`]s from a single
//! `read(2)`, and the reactor runs up to `pipeline_depth` of them as one
//! job. Protocol-level rejections (zero-length frame,
//! declared length over the cap) are queued as [`FrameItem::Reject`]
//! *in sequence* with real frames, so a client that pipelines
//! `[good][bad][good]` gets its three responses in order — the resync
//! contract `tests/pipeline.rs` locks down.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::proto::{ErrorCode, Response};

/// One parsed unit of client input, in arrival order.
#[derive(Debug)]
pub(crate) enum FrameItem {
    /// A complete frame body (opcode + payload, length prefix stripped) —
    /// exactly the bytes the WAL logs for mutations.
    Body(Vec<u8>),
    /// A protocol rejection produced at split time; answered in order,
    /// without decoding.
    Reject(Response),
}

/// What one [`split_frames`] pass produced (feeds metrics).
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct SplitStats {
    /// Items appended to the queue (bodies + rejections).
    pub frames: usize,
    /// Rejections for frames over the cap.
    pub oversized: usize,
}

/// Splits as many complete frames as `buf` holds into `out` and returns
/// how many leading bytes were consumed — the caller buffers only the
/// unconsumed tail (an incomplete frame), which is what lets the hot
/// path parse straight out of the read scratch without an intermediate
/// copy. `discard` carries oversized-resync state across reads: when a
/// frame declares a length over `max_frame`, its payload is dropped in
/// place (never buffered) until `discard` reaches zero and framing
/// resumes at the next header.
pub(crate) fn split_frames(
    buf: &[u8],
    discard: &mut usize,
    max_frame: usize,
    out: &mut VecDeque<FrameItem>,
) -> (usize, SplitStats) {
    let mut stats = SplitStats::default();
    let mut pos = 0usize;
    loop {
        if *discard > 0 {
            let n = (*discard).min(buf.len() - pos);
            pos += n;
            *discard -= n;
            if *discard > 0 {
                break; // the oversized payload continues past this read
            }
        }
        let rest = &buf[pos..];
        if rest.len() < 4 {
            break;
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        if len == 0 {
            // A zero-length frame has no opcode to answer; still typed.
            pos += 4;
            out.push_back(FrameItem::Reject(Response::Error {
                code: ErrorCode::BadFrame,
                message: "zero-length frame".into(),
            }));
            stats.frames += 1;
            continue;
        }
        if len > max_frame {
            pos += 4;
            *discard = len;
            out.push_back(FrameItem::Reject(Response::Error {
                code: ErrorCode::Oversized,
                message: format!("frame of {len} bytes exceeds cap {max_frame}"),
            }));
            stats.frames += 1;
            stats.oversized += 1;
            continue;
        }
        if rest.len() < 4 + len {
            break; // incomplete frame; wait for more bytes
        }
        out.push_back(FrameItem::Body(rest[4..4 + len].to_vec()));
        pos += 4 + len;
        stats.frames += 1;
    }
    (pos, stats)
}

/// One registered connection: plain state that only its reactor's thread
/// touches.
pub(crate) struct Connection {
    /// The nonblocking socket.
    pub stream: TcpStream,
    /// Bytes read but not yet split into frames.
    pub read_buf: Vec<u8>,
    /// Remaining payload bytes of an oversized frame being dropped.
    pub discard: usize,
    /// Parsed frames awaiting dispatch.
    pub queued: VecDeque<FrameItem>,
    /// Encoded response bytes awaiting the socket.
    pub write_buf: Vec<u8>,
    /// How much of `write_buf` has been written.
    pub write_pos: usize,
    /// Incarnation counter guarding against stale timer entries after this
    /// slot is reused.
    pub generation: u64,
    /// Last byte-level progress in either direction (feeds timeouts).
    pub last_activity: Instant,
    /// Peer half-closed (EOF read); serve what's queued, then close.
    pub peer_closed: bool,
    /// Close once the write buffer drains (shutdown ack, drain, fatal
    /// encode failure).
    pub close_after_flush: bool,
    /// Interest mask currently registered with epoll.
    pub interest: u32,
    /// Whether a timer wheel entry is live for this generation.
    pub timer_armed: bool,
    /// Whether opening this connection raised `sbfd_connections_active`
    /// (telemetry was on), so closing it must lower the gauge again.
    pub gauged: bool,
}

impl Connection {
    pub(crate) fn new(stream: TcpStream, generation: u64, now: Instant) -> Self {
        Connection {
            stream,
            read_buf: Vec::new(),
            discard: 0,
            queued: VecDeque::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            generation,
            last_activity: now,
            peer_closed: false,
            close_after_flush: false,
            interest: 0,
            timer_armed: false,
            gauged: false,
        }
    }

    /// Unwritten response bytes.
    pub(crate) fn pending_write(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// The connection's current timeout deadline: write timeout while a
    /// response is draining, read timeout otherwise. `None` when the
    /// relevant timeout is unconfigured.
    pub(crate) fn deadline(
        &self,
        read_timeout: Option<Duration>,
        write_timeout: Option<Duration>,
    ) -> Option<Instant> {
        let timeout = if self.pending_write() > 0 {
            write_timeout
        } else {
            read_timeout
        }?;
        self.last_activity.checked_add(timeout)
    }

    /// Whether everything owed to the peer has been flushed and nothing
    /// more can be produced — i.e. the connection can close cleanly.
    pub(crate) fn fully_drained(&self) -> bool {
        self.queued.is_empty() && self.pending_write() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Request;

    fn frame_bytes(req: &Request) -> Vec<u8> {
        req.encode().unwrap()
    }

    fn bodies(out: &VecDeque<FrameItem>) -> Vec<Option<&[u8]>> {
        out.iter()
            .map(|i| match i {
                FrameItem::Body(b) => Some(b.as_slice()),
                FrameItem::Reject(_) => None,
            })
            .collect()
    }

    #[test]
    fn many_frames_in_one_buffer_split_into_many_items() {
        let mut buf = Vec::new();
        for i in 0..5u64 {
            buf.extend_from_slice(&frame_bytes(&Request::Insert {
                count: i,
                key: vec![b'k', i as u8],
            }));
        }
        let mut discard = 0;
        let mut out = VecDeque::new();
        let (consumed, stats) = split_frames(&buf, &mut discard, 1 << 20, &mut out);
        assert_eq!(stats.frames, 5);
        assert_eq!(stats.oversized, 0);
        assert_eq!(out.len(), 5);
        assert_eq!(consumed, buf.len());
        assert!(bodies(&out).iter().all(|b| b.is_some()));
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let full = frame_bytes(&Request::Insert {
            count: 1,
            key: b"split-me".to_vec(),
        });
        let mut out = VecDeque::new();
        let mut discard = 0;
        let mut buf = Vec::new();
        for cut in 1..full.len() {
            buf.clear();
            buf.extend_from_slice(&full[..cut]);
            let (consumed, stats) = split_frames(&buf, &mut discard, 1 << 20, &mut out);
            assert_eq!(stats.frames, 0, "cut at {cut}");
            assert_eq!(consumed, 0, "nothing consumed at {cut}");
            buf.extend_from_slice(&full[cut..]);
            let (consumed, stats) = split_frames(&buf, &mut discard, 1 << 20, &mut out);
            assert_eq!(stats.frames, 1, "cut at {cut}");
            assert_eq!(consumed, buf.len());
            out.clear();
        }
    }

    #[test]
    fn oversized_mid_pipeline_resyncs_without_desyncing_later_frames() {
        let good = frame_bytes(&Request::Ping);
        let mut buf = Vec::new();
        buf.extend_from_slice(&good);
        // A frame declaring 4096 bytes against a 64-byte cap, payload
        // included in full — the splitter must drop exactly that payload.
        buf.extend_from_slice(&4096u32.to_le_bytes());
        buf.extend_from_slice(&vec![0xAB; 4096]);
        buf.extend_from_slice(&good);

        let mut discard = 0;
        let mut out = VecDeque::new();
        let (consumed, stats) = split_frames(&buf, &mut discard, 64, &mut out);
        assert_eq!(stats.frames, 3);
        assert_eq!(stats.oversized, 1);
        assert_eq!(discard, 0);
        assert_eq!(consumed, buf.len());
        match &out[1] {
            FrameItem::Reject(Response::Error { code, .. }) => {
                assert_eq!(*code, ErrorCode::Oversized)
            }
            other => panic!("expected oversized rejection, got {other:?}"),
        }
        assert!(matches!(&out[0], FrameItem::Body(_)));
        assert!(matches!(&out[2], FrameItem::Body(_)));
    }

    #[test]
    fn oversized_payload_discards_across_reads() {
        let mut discard = 0;
        let mut out = VecDeque::new();
        // Header arrives alone.
        let mut buf = 1000u32.to_le_bytes().to_vec();
        let (consumed, stats) = split_frames(&buf, &mut discard, 64, &mut out);
        assert_eq!(stats.oversized, 1);
        assert_eq!(discard, 1000);
        buf.drain(..consumed);
        // Payload dribbles in over three reads, then a good frame follows.
        buf.extend_from_slice(&[0; 400]);
        let (consumed, _) = split_frames(&buf, &mut discard, 64, &mut out);
        assert_eq!(discard, 600);
        buf.drain(..consumed);
        buf.extend_from_slice(&[0; 600]);
        buf.extend_from_slice(&frame_bytes(&Request::Ping));
        let (consumed, stats) = split_frames(&buf, &mut discard, 64, &mut out);
        assert_eq!(discard, 0);
        assert_eq!(stats.frames, 1);
        assert_eq!(consumed, buf.len());
        assert!(matches!(out.back(), Some(FrameItem::Body(_))));
    }

    #[test]
    fn zero_length_frames_are_typed_rejections() {
        let mut buf = 0u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&frame_bytes(&Request::Ping));
        let mut discard = 0;
        let mut out = VecDeque::new();
        let (_, stats) = split_frames(&buf, &mut discard, 64, &mut out);
        assert_eq!(stats.frames, 2);
        match &out[0] {
            FrameItem::Reject(Response::Error { code, .. }) => {
                assert_eq!(*code, ErrorCode::BadFrame)
            }
            other => panic!("expected bad-frame rejection, got {other:?}"),
        }
    }
}

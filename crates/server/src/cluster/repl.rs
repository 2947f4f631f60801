//! [`Replicator`]: the primary side of primary→replica streaming.
//!
//! # Protocol
//!
//! The replica is an ordinary `sbfd` — replication needs no new opcodes
//! on the receiving side. Bootstrap ships the primary's atomic SNAPSHOT
//! envelope through MERGE (the §5 union lands in the replica's remote
//! filter); steady state ships each acknowledged mutation's wire frame
//! verbatim (the WAL already logs exactly these bytes), applied through
//! the replica's ordinary mutation path.
//!
//! # Semi-synchronous acknowledgement
//!
//! `Replicator::ship` runs *inside* the primary's acknowledgement path,
//! after apply and WAL append: a mutation is only acknowledged once the
//! replica has answered its frame. If the ship fails, the primary answers
//! [`Unavailable`] — the mutation is applied and logged locally but NOT
//! acknowledged — so the set of acknowledged mutations is always a subset
//! of what the replica holds, and failover reads never under-count. The
//! reconnect path re-bootstraps from a fresh snapshot, which may re-ship
//! mass the replica already absorbed; double-apply only inflates counters
//! (over-count), which the one-sided contract allows.
//!
//! A replica answering [`Underflow`] to a shipped REMOVE is treated as
//! acknowledged: the replica skipped a decrement the primary performed,
//! leaving the replica's counters ≥ the primary's — one-sided-safe, same
//! argument as WAL replay skipping underflowing removes.
//!
//! # Locking
//!
//! All state lives under one mutex. The ship path takes it after the
//! request's own locks are released (dispatch returned before the ship
//! starts); the resync path holds it across the snapshot+MERGE bootstrap
//! so no mutation can slip between the snapshot cut and the first
//! streamed frame. That ordering (replicator → sketch/remote, never the
//! reverse) keeps the lock graph acyclic.
//!
//! [`Unavailable`]: crate::proto::ErrorCode::Unavailable
//! [`Underflow`]: crate::proto::ErrorCode::Underflow

use std::time::Duration;

use crate::client::SbfClient;
use crate::metrics;
use crate::proto::{ErrorCode, RequestRef, Response};
use crate::server::SharedState;
use crate::sync::{lock_unpoisoned, Mutex};

/// Mutable replication state, all under one lock (see module docs).
#[derive(Debug, Default)]
struct ReplState {
    /// The live link to the replica; `None` while down (ships fail fast
    /// and the background thread keeps trying to re-establish it).
    conn: Option<SbfClient>,
    /// Mutation frames the replica has acknowledged since the last resync.
    shipped: u64,
    /// Mutation bytes applied locally while the link was down — the
    /// replication lag a resync's snapshot bootstrap will cover.
    lag_bytes: u64,
}

/// Ships acknowledged mutations to one replica `sbfd`; see module docs.
#[derive(Debug)]
pub struct Replicator {
    target: String,
    state: Mutex<ReplState>,
}

impl Replicator {
    /// A replicator streaming to the `sbfd` at `target`. The link starts
    /// down; [`Replicator::tick`] establishes it.
    pub fn new(target: String) -> Self {
        Replicator {
            target,
            state: Mutex::new(ReplState::default()),
        }
    }

    /// The replica's address.
    pub fn target(&self) -> &str {
        &self.target
    }

    /// Whether the replica link is currently up.
    pub fn connected(&self) -> bool {
        lock_unpoisoned(self.state.lock()).conn.is_some()
    }

    /// Mutation frames acknowledged by the replica since the last resync.
    pub fn shipped(&self) -> u64 {
        lock_unpoisoned(self.state.lock()).shipped
    }

    /// Ships one acknowledged mutation's wire frame; `true` iff the
    /// replica acknowledged it (an [`ErrorCode::Underflow`] answer counts
    /// — see module docs). `false` means the caller must not acknowledge
    /// the mutation.
    pub(crate) fn ship(&self, req: &RequestRef<'_>, raw_body: Option<&[u8]>) -> bool {
        // The full frame is the 4-byte LE length prefix + body, the same
        // bytes `Request::encode` emits and the WAL logs. A borrowed body
        // is shipped as is; only a request without one is encoded here.
        let encoded;
        let body = match raw_body {
            Some(body) => body,
            None => match req.encode() {
                Ok(frame) => {
                    encoded = frame;
                    &encoded[4..]
                }
                Err(_) => return false,
            },
        };
        if u32::try_from(body.len()).is_err() {
            return false;
        }
        let frame_len = 4 + body.len() as u64;
        let mut st = lock_unpoisoned(self.state.lock());
        let Some(conn) = st.conn.as_mut() else {
            st.lag_bytes += frame_len;
            let lag = st.lag_bytes;
            metrics::on(|m| m.repl_lag_bytes.set_u64(lag));
            return false;
        };
        match conn.body_roundtrip(body) {
            Ok(Response::Ok)
            | Ok(Response::Error {
                code: ErrorCode::Underflow,
                ..
            }) => {
                st.shipped += 1;
                metrics::on(|m| m.repl_shipped.inc());
                true
            }
            _ => {
                // Transport failure or a typed refusal (draining replica,
                // geometry change): drop the link; the background thread
                // re-bootstraps.
                st.conn = None;
                st.lag_bytes += frame_len;
                let lag = st.lag_bytes;
                metrics::on(|m| m.repl_lag_bytes.set_u64(lag));
                false
            }
        }
    }

    /// One background-thread beat: if the link is down, dial the replica,
    /// run the HELLO geometry handshake, and bootstrap it from a fresh
    /// SNAPSHOT envelope via MERGE. The bootstrap runs under the ship
    /// lock, so every mutation acknowledged after this returns ships on
    /// the new link and everything before it is inside the snapshot.
    pub fn tick(&self, state: &SharedState) {
        if self.connected() {
            return;
        }
        // Dial outside the ship lock: a down replica must not stall the
        // (fast-failing) ship path behind a connect timeout.
        let (m, k, seed) = state.geometry();
        let Ok(mut conn) = SbfClient::builder(self.target.as_str())
            .connect_timeout(Some(Duration::from_millis(250)))
            .io_timeout(Some(Duration::from_secs(10)))
            .connect()
        else {
            return;
        };
        if conn.hello(m, k, seed).is_err() {
            return;
        }
        let mut st = lock_unpoisoned(self.state.lock());
        if st.conn.is_some() {
            return;
        }
        if conn.merge(&state.snapshot_envelope()).is_err() {
            return;
        }
        st.conn = Some(conn);
        st.lag_bytes = 0;
        metrics::on(|mx| {
            mx.repl_resyncs.inc();
            mx.repl_lag_bytes.set_u64(0);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ship_fails_fast_and_tracks_lag_while_down() {
        let repl = Replicator::new("127.0.0.1:1".into());
        assert!(!repl.connected());
        let req = RequestRef::Insert {
            count: 1,
            key: b"k",
        };
        assert!(!repl.ship(&req, None));
        assert_eq!(repl.shipped(), 0);
        let st = lock_unpoisoned(repl.state.lock());
        assert!(st.lag_bytes > 0, "a failed ship must count toward lag");
    }

    #[test]
    fn ship_sends_the_request_frame_byte_for_byte() {
        use std::io::{Read, Write};
        use std::net::TcpListener;

        // A stand-in replica: reads one frame per ship, answers Ok, and
        // hands back the bytes it read.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let replica = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let ok = Response::Ok.encode().unwrap();
            let mut frames = Vec::new();
            for _ in 0..2 {
                let mut len = [0u8; 4];
                stream.read_exact(&mut len).unwrap();
                let mut frame = len.to_vec();
                frame.resize(4 + u32::from_le_bytes(len) as usize, 0);
                stream.read_exact(&mut frame[4..]).unwrap();
                stream.write_all(&ok).unwrap();
                frames.push(frame);
            }
            frames
        });
        let repl = Replicator::new(addr.to_string());
        lock_unpoisoned(repl.state.lock()).conn = Some(SbfClient::builder(addr).connect().unwrap());

        let keys: Vec<Vec<u8>> = (0u32..700).map(|i| i.to_le_bytes().to_vec()).collect();
        let req = crate::proto::Request::InsertBatch { keys };
        let frame = req.encode().unwrap();
        // With the transport's body, and re-encoded without one.
        assert!(repl.ship(&req.view(), Some(&frame[4..])));
        assert!(repl.ship(&req.view(), None));
        assert_eq!(repl.shipped(), 2);
        assert_eq!(replica.join().unwrap(), vec![frame.clone(), frame]);
    }

    #[test]
    fn tick_gives_up_quietly_when_replica_is_unreachable() {
        use crate::server::{ServerConfig, SharedState};
        // Port 1 refuses connections; the tick must neither panic nor
        // mark the link up.
        let repl = Replicator::new("127.0.0.1:1".into());
        let state = SharedState::new(&ServerConfig {
            m: 256,
            ..ServerConfig::default()
        });
        repl.tick(&state);
        assert!(!repl.connected());
    }
}

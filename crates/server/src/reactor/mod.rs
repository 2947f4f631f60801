//! The event-driven I/O core of `sbfd`: one reactor thread multiplexes
//! every connection over epoll, runs the jobs whose cost is O(k) — k
//! hashes and k counter probes — itself, and hands every other job to the
//! [`WorkerPool`] (see *Inline dispatch* below).
//!
//! # Shape
//!
//! ```text
//!            epoll (level-triggered)
//!   listener ──► accept ──► Connection slab (token = slot + 2)
//!   waker    ──► drain completion queue
//!   conn fd  ──► read-accumulate ─► frame-split ─► dispatch ─► write-drain
//! ```
//!
//! Per connection the reactor runs a four-stage machine
//! ([`conn::Connection`]): bytes accumulate in `read_buf`, the splitter
//! carves out *every* complete frame it holds (pipelined parsing — N
//! frames per `read(2)`), up to `pipeline_depth` frames form **one** job,
//! and the job's concatenated response bytes drain back through
//! `write_buf`. At most one job per connection is in flight, which is what
//! keeps pipelined responses in request order — whichever thread runs it.
//!
//! # Inline dispatch
//!
//! A job runs on the reactor thread when doing so cannot hold up another
//! connection by more than O(k) work: when its connection is the only one
//! registered, or when every frame in it is a point frame
//! ([`is_point_op`]: PING, ESTIMATE, and INSERT/REMOVE on a node with
//! neither a WAL nor a replicator) or a split-time rejection. Inline jobs
//! run the same [`worker_process`] as pool jobs and post the same
//! completion, so the drain gate, the apply→fsync→ack order and typed
//! errors do not depend on where a job ran. The reactor can now wait on a
//! lock a pool job holds: an inline ESTIMATE read-locks the `remote`
//! filter, which a MERGE write-locks while it unions m counters, and a
//! point frame's shard lock can be held by a pool batch on the same shard.
//! Such a wait lasts no longer than the pool jobs already holding that
//! lock, at most one per worker.
//!
//! Workers return their bytes through [`Completions`] — a mutex'd vector
//! plus a [`Waker`] (a `UnixStream` pair whose read end lives in the
//! epoll set), so a completion posted while the reactor sleeps
//! interrupts the poll wait; pushes landing mid-iteration skip the
//! syscall. One deliberate exception to "workers never touch sockets":
//! when the connection had no buffered output at dispatch time, the
//! worker writes its response directly (exclusive by the one-job-per-
//! connection invariant), cutting two scheduler hops off the response
//! path; leftovers the nonblocking socket refuses still drain through
//! the reactor's `EPOLLOUT` machinery.
//!
//! # Backpressure
//!
//! A connection stops being read (its `EPOLLIN` interest is dropped) when
//! its parsed-frame queue reaches `pipeline_depth` or its write buffer
//! passes [`WRITE_HIGH_WATER`]; reading resumes when both drain. The
//! listener is deregistered while `max_connections` sockets are open and
//! re-registered on the next close. Both stalls are counted
//! (`sbfd_backpressure_stalls_total`).
//!
//! # Timeouts and drain
//!
//! Idle/stalled peers are closed by the [`timer::TimerWheel`] — read
//! timeout while waiting for bytes, write timeout while a response is
//! draining, enforced to one tick (±10 ms). Graceful drain preserves the
//! blocking core's contract: the listener closes first, queued-but-
//! undispatched frames are dropped, in-flight jobs finish and their
//! responses (including the SHUTDOWN ack) flush before the socket closes,
//! and the reactor returns once the last connection is gone.

mod conn;
mod sys;
mod timer;

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use crate::metrics::{self, server_metrics};
use crate::pool::WorkerPool;
use crate::proto::{is_point_op, ErrorCode, ProtoError, RequestRef, Response};
use crate::server::SharedState;
use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::{lock_unpoisoned, Arc, Mutex};

use conn::{split_frames, Connection, FrameItem};
use sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use timer::{TimerEntry, TimerWheel};

/// Token of the listen socket in the epoll set.
const TOKEN_LISTENER: u64 = 0;
/// Token of the waker's read end.
const TOKEN_WAKER: u64 = 1;
/// First connection token; connection `i` registers as `TOKEN_BASE + i`.
const TOKEN_BASE: u64 = 2;

/// Stop reading a connection whose unsent responses exceed this (bytes);
/// a peer that pipelines requests but never reads answers must not grow
/// an unbounded buffer server-side.
const WRITE_HIGH_WATER: usize = 1 << 20;

/// Wakes the reactor out of `epoll_wait` from another thread by writing
/// one byte into a socketpair whose read end is in the epoll set. Writes
/// that would block are dropped — the pipe being full already guarantees
/// a pending wakeup.
#[derive(Debug)]
pub(crate) struct Waker {
    tx: UnixStream,
}

impl Waker {
    /// Interrupts the current (or next) poll wait.
    pub(crate) fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// One worker job's result: the concatenated response frames for a batch
/// of pipelined requests, routed back to the owning connection.
struct Completion {
    token: u64,
    generation: u64,
    bytes: Vec<u8>,
    close: bool,
}

/// The worker→reactor return channel.
///
/// The waker syscall is elided while the reactor is awake (`polling`
/// false): the event loop runs `process_completions` at the end of every
/// iteration anyway, so a push that lands mid-iteration is picked up for
/// free. The pre-sleep window is closed on the reactor side — it sets
/// `polling` *before* checking the queue one last time, so a push either
/// sees `polling` and wakes, or strictly precedes that final check
/// (both orders are serialized through the queue mutex and SeqCst flag).
pub(crate) struct Completions {
    queue: Mutex<Vec<Completion>>,
    polling: AtomicBool,
    waker: Arc<Waker>,
}

impl Completions {
    fn push(&self, c: Completion) {
        lock_unpoisoned(self.queue.lock()).push(c);
        if self.polling.load(Ordering::SeqCst) {
            self.waker.wake();
        }
    }

    fn drain(&self, out: &mut Vec<Completion>) {
        let mut queue = lock_unpoisoned(self.queue.lock());
        out.append(&mut queue);
    }

    fn has_pending(&self) -> bool {
        !lock_unpoisoned(self.queue.lock()).is_empty()
    }
}

/// Reactor knobs, split out of the workload configuration (see
/// `ServerConfig`'s reactor section).
#[derive(Debug, Clone)]
pub(crate) struct ReactorConfig {
    pub max_connections: usize,
    pub poll_timeout: Duration,
    pub pipeline_depth: usize,
    pub max_frame: usize,
    pub read_timeout: Option<Duration>,
    pub write_timeout: Option<Duration>,
}

/// The reactor: owns the listener, the epoll set, the connection slab and
/// the timer wheel. Single-threaded; everything it shares with workers
/// goes through [`Completions`].
pub(crate) struct Reactor {
    epoll: Epoll,
    listener: TcpListener,
    listener_armed: bool,
    waker_rx: UnixStream,
    completions: Arc<Completions>,
    conns: Vec<Option<Connection>>,
    free: Vec<usize>,
    active: usize,
    timers: TimerWheel,
    state: Arc<SharedState>,
    cfg: ReactorConfig,
    next_generation: u64,
}

impl Reactor {
    /// Builds the epoll set, registers the listener and the waker, and
    /// attaches the waker to `state` so `begin_shutdown` can interrupt
    /// the poll wait from any thread.
    pub(crate) fn new(
        listener: TcpListener,
        state: Arc<SharedState>,
        cfg: ReactorConfig,
    ) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        let (tx, waker_rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        waker_rx.set_nonblocking(true)?;
        let waker = Arc::new(Waker { tx });
        epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        epoll.add(waker_rx.as_raw_fd(), EPOLLIN, TOKEN_WAKER)?;
        state.attach_waker(Arc::clone(&waker));
        Ok(Reactor {
            epoll,
            listener,
            listener_armed: true,
            waker_rx,
            completions: Arc::new(Completions {
                queue: Mutex::new(Vec::new()),
                polling: AtomicBool::new(false),
                waker,
            }),
            conns: Vec::new(),
            free: Vec::new(),
            active: 0,
            timers: TimerWheel::new(Instant::now()),
            state,
            cfg,
            next_generation: 0,
        })
    }

    /// Serves until the drain flag is up *and* every connection has
    /// closed. `pool` outlives the call; its `join` afterwards is the
    /// barrier for in-flight CPU work (there is none by then — drain only
    /// completes once no job is in flight).
    pub(crate) fn run(&mut self, pool: &WorkerPool) -> io::Result<()> {
        let mut events = vec![EpollEvent::empty(); 1024];
        let mut fired: Vec<TimerEntry> = Vec::new();
        loop {
            self.drain_step();
            if self.state.draining() && self.active == 0 {
                return Ok(());
            }
            let now = Instant::now();
            let timeout = self
                .timers
                .next_timeout(now)
                .map_or(self.cfg.poll_timeout, |t| t.min(self.cfg.poll_timeout));
            // Round up: rounding down would spin hot for the sub-ms
            // remainder before each tick boundary.
            let ms = timeout.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32;
            // Announce the sleep, then look at the queue once more: a
            // completion pushed before this check is handled with a zero
            // timeout, one pushed after it sees `polling` and wakes us.
            self.completions.polling.store(true, Ordering::SeqCst);
            let ms = if self.completions.has_pending() {
                0
            } else {
                ms
            };
            let n = self.epoll.wait(&mut events, ms)?;
            self.completions.polling.store(false, Ordering::SeqCst);
            let mut accept_pending = false;
            for ev in &events[..n] {
                let token = ev.data;
                let bits = ev.events;
                match token {
                    // Accept last: connection slots freed by events in
                    // this same batch must not be reused while stale
                    // events for their tokens are still queued behind us.
                    TOKEN_LISTENER => accept_pending = true,
                    TOKEN_WAKER => self.drain_waker(),
                    t => self.conn_event((t - TOKEN_BASE) as usize, bits, pool),
                }
            }
            if accept_pending {
                self.accept_ready();
            }
            self.process_completions(pool);
            self.process_timers(&mut fired);
        }
    }

    /// Swallows queued wakeup bytes; the work they announce is picked up
    /// by `process_completions` / the drain check in the same iteration.
    fn drain_waker(&mut self) {
        let mut sink = [0u8; 64];
        loop {
            match (&self.waker_rx).read(&mut sink) {
                Ok(0) => return,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return, // WouldBlock: drained
            }
        }
    }

    /// Accepts until the kernel backlog is empty or the connection cap is
    /// reached (at which point the listener leaves the epoll set until a
    /// slot frees up).
    fn accept_ready(&mut self) {
        loop {
            if self.active >= self.cfg.max_connections {
                if self.listener_armed {
                    let _ = self.epoll.delete(self.listener.as_raw_fd());
                    self.listener_armed = false;
                    metrics::on(|m| m.backpressure_stalls.inc());
                }
                return;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue; // drop the socket; the peer sees a close
                    }
                    // Latency over loopback is dominated by Nagle delays
                    // otherwise; best-effort is fine for nodelay alone.
                    let _ = stream.set_nodelay(true);
                    let idx = match self.free.pop() {
                        Some(i) => i,
                        None => {
                            self.conns.push(None);
                            self.conns.len() - 1
                        }
                    };
                    self.next_generation += 1;
                    let mut c =
                        Connection::new(Arc::new(stream), self.next_generation, Instant::now());
                    let token = TOKEN_BASE + idx as u64;
                    let interest = EPOLLIN | EPOLLRDHUP;
                    if self
                        .epoll
                        .add(c.stream.as_raw_fd(), interest, token)
                        .is_err()
                    {
                        self.free.push(idx);
                        continue;
                    }
                    c.interest = interest;
                    // The gauge is process-wide (every reactor in the
                    // process adds its own ±1), and a connection lowers it
                    // on close only if it raised it here.
                    metrics::on(|m| {
                        m.connections.inc();
                        m.connections_active.adjust(1.0);
                        c.gauged = true;
                    });
                    self.conns[idx] = Some(c);
                    self.active += 1;
                    self.finish_or_keep(idx); // arms the idle timer
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient accept failure (peer reset mid-handshake, fd
                // pressure): keep serving.
                Err(_) => return,
            }
        }
    }

    /// Handles readiness on one connection: flush on writable, then
    /// read-accumulate + frame-split on readable, then dispatch.
    fn conn_event(&mut self, idx: usize, bits: u32, pool: &WorkerPool) {
        let mut fatal = false;
        {
            let Some(Some(c)) = self.conns.get_mut(idx) else {
                return; // closed earlier in this event batch
            };
            if bits & (EPOLLERR | EPOLLHUP) != 0 {
                fatal = true;
            }
            if !fatal && bits & (EPOLLIN | EPOLLRDHUP) != 0 {
                let mut scratch = [0u8; 16 * 1024];
                loop {
                    if c.queued.len() >= self.cfg.pipeline_depth
                        || c.pending_write() >= WRITE_HIGH_WATER
                    {
                        break; // backpressure: leave bytes in the kernel
                    }
                    match (&*c.stream).read(&mut scratch) {
                        Ok(0) => {
                            c.peer_closed = true;
                            break;
                        }
                        Ok(n) => {
                            metrics::on(|m| m.bytes_read.add(n as u64));
                            c.last_activity = Instant::now();
                            // Complete frames parse straight out of the
                            // scratch; only an incomplete tail (or a
                            // continuation of one) touches `read_buf`.
                            let stats = if c.read_buf.is_empty() {
                                let (consumed, stats) = split_frames(
                                    &scratch[..n],
                                    &mut c.discard,
                                    self.cfg.max_frame,
                                    &mut c.queued,
                                );
                                c.read_buf.extend_from_slice(&scratch[consumed..n]);
                                stats
                            } else {
                                c.read_buf.extend_from_slice(&scratch[..n]);
                                let (consumed, stats) = split_frames(
                                    &c.read_buf,
                                    &mut c.discard,
                                    self.cfg.max_frame,
                                    &mut c.queued,
                                );
                                c.read_buf.drain(..consumed);
                                stats
                            };
                            if stats.oversized > 0 {
                                metrics::on(|m| m.frames_oversized.add(stats.oversized as u64));
                            }
                            if n < scratch.len() {
                                break; // socket likely drained
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            fatal = true;
                            break;
                        }
                    }
                }
            }
        }
        if fatal {
            self.close_conn(idx);
            return;
        }
        self.maybe_dispatch(idx, pool);
        self.finish_or_keep(idx);
    }

    /// Runs up to `pipeline_depth` queued frames as one job, inline or on
    /// the pool (see the module docs). At most one job per connection is
    /// in flight — that invariant is what keeps pipelined responses in
    /// request order.
    fn maybe_dispatch(&mut self, idx: usize, pool: &WorkerPool) {
        if self.state.draining() {
            return; // drain_step will close this connection
        }
        let (items, token, generation, direct) = {
            let Some(Some(c)) = self.conns.get_mut(idx) else {
                return;
            };
            if c.inflight || c.close_after_flush || c.queued.is_empty() {
                return;
            }
            let take = c.queued.len().min(self.cfg.pipeline_depth);
            let items: Vec<FrameItem> = c.queued.drain(..take).collect();
            c.inflight = true;
            // Direct-write fast path: with nothing already buffered for
            // this socket, the worker may write its response bytes itself
            // — no other writer can race it (one job in flight, and the
            // reactor only writes from `write_buf`, which only refills
            // from this job's own completion).
            let direct = (c.pending_write() == 0).then(|| Arc::clone(&c.stream));
            (items, TOKEN_BASE + idx as u64, c.generation, direct)
        };
        metrics::on(|m| {
            m.pipeline_batches.inc();
            m.pipeline_frames.add(items.len() as u64);
        });
        let state = Arc::clone(&self.state);
        let completions = Arc::clone(&self.completions);
        // Inline dispatch (see the module docs): for a lone connection or
        // a job of point frames, the pool round trip — a queue send to
        // wake a worker, a completion push and a waker write to wake the
        // reactor — costs far more than the job itself. The completion
        // still travels the normal path; the end-of-iteration
        // `process_completions` picks it up without a waker syscall.
        let durable = state.wal().is_some() || state.replicator().is_some();
        let inline = self.active == 1
            || items.iter().all(|item| match item {
                FrameItem::Body(body) => body.first().is_some_and(|&op| is_point_op(op, durable)),
                FrameItem::Reject(_) => true,
            });
        if inline {
            worker_process(&state, &completions, token, generation, items, direct);
            return;
        }
        if !pool
            .execute(move || worker_process(&state, &completions, token, generation, items, direct))
        {
            // The pool only refuses after its queue closed (drain).
            if let Some(Some(c)) = self.conns.get_mut(idx) {
                c.inflight = false;
                c.close_after_flush = true;
            }
        }
    }

    /// Routes finished worker jobs back to their connections and flushes.
    fn process_completions(&mut self, pool: &WorkerPool) {
        let mut batch = Vec::new();
        self.completions.drain(&mut batch);
        for done in batch {
            let idx = (done.token - TOKEN_BASE) as usize;
            {
                let Some(Some(c)) = self.conns.get_mut(idx) else {
                    continue;
                };
                if c.generation != done.generation {
                    continue; // slot was reused; completion is stale
                }
                c.inflight = false;
                c.write_buf.extend_from_slice(&done.bytes);
                c.last_activity = Instant::now();
                if done.close {
                    // SHUTDOWN ack (or unframeable response): flush what
                    // is owed, serve nothing more.
                    c.close_after_flush = true;
                    c.queued.clear();
                }
            }
            self.maybe_dispatch(idx, pool);
            self.finish_or_keep(idx);
        }
    }

    /// Fires due timers. Entries pop lazily (see [`timer`]): a stale
    /// generation is dropped, an early pop re-arms at the true deadline,
    /// and only a genuinely expired deadline closes the connection.
    fn process_timers(&mut self, fired: &mut Vec<TimerEntry>) {
        let now = Instant::now();
        fired.clear();
        self.timers.advance(now, fired);
        for entry in fired.drain(..) {
            let idx = (entry.token - TOKEN_BASE) as usize;
            let deadline = {
                let Some(Some(c)) = self.conns.get_mut(idx) else {
                    continue;
                };
                if c.generation != entry.generation {
                    continue;
                }
                c.timer_armed = false;
                c.deadline(self.cfg.read_timeout, self.cfg.write_timeout)
            };
            match deadline {
                Some(dl) if dl <= now => {
                    metrics::on(|m| m.timeouts.inc());
                    self.close_conn(idx);
                }
                Some(dl) => {
                    if let Some(Some(c)) = self.conns.get_mut(idx) {
                        self.timers.insert(dl, entry);
                        c.timer_armed = true;
                    }
                }
                None => {} // timeouts unconfigured: stay unarmed
            }
        }
    }

    /// Flushes, then either closes the connection or re-registers the
    /// interest mask and timer that match its new state. The single exit
    /// point of the per-connection machine.
    fn finish_or_keep(&mut self, idx: usize) {
        let token = TOKEN_BASE + idx as u64;
        let mut fatal = false;
        let close_now;
        let mut want = 0u32;
        let mut stalled = false;
        {
            let Some(Some(c)) = self.conns.get_mut(idx) else {
                return;
            };
            while c.pending_write() > 0 {
                match (&*c.stream).write(&c.write_buf[c.write_pos..]) {
                    Ok(0) => {
                        fatal = true;
                        break;
                    }
                    Ok(n) => {
                        c.write_pos += n;
                        c.last_activity = Instant::now();
                        metrics::on(|m| m.bytes_written.add(n as u64));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        fatal = true;
                        break;
                    }
                }
            }
            if c.pending_write() == 0 {
                c.write_buf.clear();
                c.write_pos = 0;
            }
            close_now = fatal
                || (c.close_after_flush && !c.inflight && c.pending_write() == 0)
                || (c.peer_closed && c.fully_drained());
            if !close_now {
                let backpressured = c.queued.len() >= self.cfg.pipeline_depth
                    || c.pending_write() >= WRITE_HIGH_WATER;
                let want_read = !c.peer_closed && !c.close_after_flush && !backpressured;
                want = EPOLLRDHUP;
                if want_read {
                    want |= EPOLLIN;
                }
                if c.pending_write() > 0 {
                    want |= EPOLLOUT;
                }
                stalled = backpressured && (c.interest & EPOLLIN) != 0;
            }
        }
        if close_now {
            self.close_conn(idx);
            return;
        }
        if stalled {
            metrics::on(|m| m.backpressure_stalls.inc());
        }
        let Some(Some(c)) = self.conns.get_mut(idx) else {
            return;
        };
        if want != c.interest {
            if self
                .epoll
                .modify(c.stream.as_raw_fd(), want, token)
                .is_err()
            {
                self.close_conn(idx);
                return;
            }
            let Some(Some(c)) = self.conns.get_mut(idx) else {
                return;
            };
            c.interest = want;
        }
        let Some(Some(c)) = self.conns.get_mut(idx) else {
            return;
        };
        if !c.timer_armed {
            if let Some(dl) = c.deadline(self.cfg.read_timeout, self.cfg.write_timeout) {
                self.timers.insert(
                    dl,
                    TimerEntry {
                        token,
                        generation: c.generation,
                    },
                );
                c.timer_armed = true;
            }
        }
    }

    /// Removes a connection: epoll deregistration, gauge update, slot
    /// recycle, and listener re-arm if the cap had parked it.
    fn close_conn(&mut self, idx: usize) {
        let Some(slot) = self.conns.get_mut(idx) else {
            return;
        };
        let Some(c) = slot.take() else {
            return;
        };
        let _ = self.epoll.delete(c.stream.as_raw_fd());
        if c.gauged {
            server_metrics().connections_active.adjust(-1.0);
        }
        drop(c);
        self.free.push(idx);
        self.active -= 1;
        if !self.listener_armed
            && !self.state.draining()
            && self.active < self.cfg.max_connections
            && self
                .epoll
                .add(self.listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
                .is_ok()
        {
            self.listener_armed = true;
        }
    }

    /// One drain pass: park the listener, then walk every open connection
    /// — those with a job in flight keep running (their response must
    /// flush), everything else drops its unserved queue and closes once
    /// its write buffer is empty.
    fn drain_step(&mut self) {
        if !self.state.draining() {
            return;
        }
        if self.listener_armed {
            let _ = self.epoll.delete(self.listener.as_raw_fd());
            self.listener_armed = false;
        }
        for idx in 0..self.conns.len() {
            let marked = {
                let Some(Some(c)) = self.conns.get_mut(idx) else {
                    continue;
                };
                if c.inflight {
                    continue;
                }
                c.queued.clear();
                c.close_after_flush = true;
                true
            };
            if marked {
                self.finish_or_keep(idx);
            }
        }
    }
}

/// The CPU half of a pipelined batch, run on a worker thread or inline on
/// the reactor thread: decode, apply (drain gate + WAL ordering live in
/// `handle_framed`), encode — then post the concatenated response bytes
/// back to the reactor.
fn worker_process(
    state: &SharedState,
    completions: &Completions,
    token: u64,
    generation: u64,
    items: Vec<FrameItem>,
    direct: Option<Arc<TcpStream>>,
) {
    let mut bytes = Vec::new();
    let mut close = false;
    for item in &items {
        let started = Instant::now();
        let answered;
        let resp = match item {
            FrameItem::Body(body) => {
                let Some((&opcode, payload)) = body.split_first() else {
                    continue; // unreachable: the splitter never emits an empty body
                };
                // Decoded in place: the request's keys borrow `body`.
                answered = match RequestRef::decode(opcode, payload) {
                    Ok(req) => {
                        metrics::on(|m| m.requests_for(req.op_name()).inc());
                        if matches!(req, RequestRef::Shutdown) {
                            close = true;
                        }
                        // `body` is the frame minus its length prefix —
                        // exactly the WAL record payload — so mutations
                        // are logged without re-encoding.
                        state.handle_framed(&req, Some(body))
                    }
                    Err(e) => {
                        let code = match e {
                            ProtoError::UnknownOpcode(_) => ErrorCode::UnknownOp,
                            ProtoError::Oversized => ErrorCode::Oversized,
                            ProtoError::Truncated | ProtoError::Malformed(_) => ErrorCode::BadFrame,
                        };
                        Response::Error {
                            code,
                            message: e.to_string(),
                        }
                    }
                };
                &answered
            }
            FrameItem::Reject(resp) => resp,
        };
        if matches!(resp, Response::Error { .. }) {
            metrics::on(|m| m.errors.inc());
        }
        // Encoded straight into the job's output. A response that cannot
        // be framed leaves `bytes` ending where its frame would have
        // started (`encode_into` truncates on error), so the fallback
        // below follows the previous frame and the peer stays framed.
        let frame_start = bytes.len();
        if let Err(e) = resp.encode_into(&mut bytes) {
            debug_assert_eq!(bytes.len(), frame_start);
            // The response body cannot fit its u32 length field. Degrade
            // to a small typed error; this tiny frame itself always
            // encodes.
            let fallback = Response::Error {
                code: ErrorCode::Oversized,
                message: format!("response could not be framed: {e}"),
            };
            if fallback.encode_into(&mut bytes).is_err() {
                close = true;
            }
        }
        metrics::on(|m| {
            m.request_latency_ns
                .observe(started.elapsed().as_nanos() as u64);
        });
    }
    // Direct-write fast path: when the reactor had nothing buffered for
    // this socket at dispatch time, write the response here and now —
    // the peer's reply races straight to the reactor without waiting for
    // a completion roundtrip. Whatever the (nonblocking) socket refuses
    // travels back through the completion and drains via `EPOLLOUT`.
    let mut sent = 0;
    if let Some(stream) = &direct {
        while sent < bytes.len() {
            match (&**stream).write(&bytes[sent..]) {
                Ok(0) => break,
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // WouldBlock or a dead peer: the reactor's write path
                // takes over (and surfaces the error, if any).
                Err(_) => break,
            }
        }
        if sent > 0 {
            metrics::on(|m| m.bytes_written.add(sent as u64));
            bytes.drain(..sent);
        }
    }
    completions.push(Completion {
        token,
        generation,
        bytes,
        close,
    });
}

//! The event-driven I/O core of `sbfd`: `workers` reactor threads, each
//! multiplexing its own connections over its own epoll set and running
//! every job of those connections itself, and one acceptor that places
//! new connections on them.
//!
//! # Shape
//!
//! ```text
//!   acceptor (the thread that calls `serve`)
//!     listener ──► accept ──► least-loaded reactor's inbox, then its waker
//!   reactor i (`sbfd-reactor-{i}`), epoll (level-triggered)
//!     waker    ──► adopt inbox sockets into the Connection slab (token = slot + 2)
//!     conn fd  ──► read-accumulate ─► frame-split ─► run jobs ─► write-drain
//! ```
//!
//! Per connection the reactor runs a four-stage machine
//! ([`conn::Connection`]): bytes accumulate in `read_buf`, the splitter
//! carves out *every* complete frame it holds (pipelined parsing — N
//! frames per `read(2)`), up to `pipeline_depth` frames form **one** job,
//! and the job's concatenated response bytes drain back through
//! `write_buf`. A job runs to completion on its connection's reactor
//! before the next one starts, so a connection never has two jobs at
//! once, and that is what keeps pipelined responses in request order.
//!
//! # Placement
//!
//! The acceptor owns the listener. It enforces `max_connections` across
//! every reactor with one shared count ([`Placement`]), parking the
//! listener while the count is at the cap; the close that frees a place
//! wakes it. Each accepted socket goes to the reactor with the fewest open
//! connections (ties to the lowest index), through that reactor's inbox
//! and waker, and stays there until it closes.
//!
//! # What a job holds up
//!
//! A job holds its reactor while it runs, so it delays the other
//! connections on that reactor, and no others. Most jobs are k hashes and
//! k counter probes per key. Three kinds wait on something outside the
//! process: JOIN_PLAN (peer I/O, up to its 30 s timeout), durable
//! mutations (a WAL fsync) and replicated mutations (the replica's ack).
//! A job can also wait on a lock a job of another reactor holds: ESTIMATE
//! read-locks the `remote` filter, which a MERGE write-locks while it
//! unions m counters, and every reactor shares the shard locks.
//!
//! # Backpressure
//!
//! A connection stops being read (its `EPOLLIN` interest is dropped) when
//! its parsed-frame queue reaches `pipeline_depth` or its write buffer
//! passes [`WRITE_HIGH_WATER`]; reading resumes when both drain. Both
//! stalls, and every listener park at the connection cap, are counted
//! (`sbfd_backpressure_stalls_total`).
//!
//! # Timeouts and drain
//!
//! Idle/stalled peers are closed by each reactor's [`timer::TimerWheel`] —
//! read timeout while waiting for bytes, write timeout while a response is
//! draining, enforced to one tick (±10 ms). `begin_shutdown` wakes every
//! reactor and the acceptor. The acceptor stops accepting first; each
//! reactor finishes the job it is running, drops its queued-but-unrun
//! frames, flushes the responses it owes (including the SHUTDOWN ack),
//! and returns once its last connection is gone. [`serve`] joins every
//! reactor before it returns.

mod conn;
mod sys;
mod timer;

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use crate::metrics::{self, server_metrics};
use crate::proto::{ErrorCode, ProtoError, RequestRef, Response};
use crate::server::SharedState;
use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::{lock_unpoisoned, Arc, Mutex};

use conn::{split_frames, Connection, FrameItem};
use sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use timer::{TimerEntry, TimerWheel};

/// Token of the listen socket in the acceptor's epoll set.
const TOKEN_LISTENER: u64 = 0;
/// Token of the waker's read end.
const TOKEN_WAKER: u64 = 1;
/// First connection token; connection `i` registers as `TOKEN_BASE + i`.
const TOKEN_BASE: u64 = 2;

/// Stop reading a connection whose unsent responses exceed this (bytes);
/// a peer that pipelines requests but never reads answers must not grow
/// an unbounded buffer server-side.
const WRITE_HIGH_WATER: usize = 1 << 20;

/// Wakes a reactor or the acceptor out of `epoll_wait` from another
/// thread by writing one byte into a socketpair whose read end is in the
/// epoll set. Writes that would block are dropped — the pipe being full
/// already guarantees a pending wakeup.
#[derive(Debug)]
pub(crate) struct Waker {
    tx: UnixStream,
}

impl Waker {
    /// A waker and the read end to register with the sleeper's epoll set.
    fn pair() -> io::Result<(Arc<Waker>, UnixStream)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Arc::new(Waker { tx }), rx))
    }

    /// Interrupts the current (or next) poll wait.
    pub(crate) fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// Swallows the wakeup bytes queued on a waker's read end.
fn drain_waker(rx: &UnixStream) {
    let mut sink = [0u8; 64];
    loop {
        match (&*rx).read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return, // WouldBlock: drained
        }
    }
}

/// `timeout` in whole milliseconds for `epoll_wait`, rounded up: rounding
/// down would spin hot for the sub-ms remainder before each tick boundary.
fn poll_ms(timeout: Duration) -> i32 {
    timeout.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32
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

/// One reactor's side of [`Placement`].
struct Inbox {
    /// Sockets placed on the reactor and not yet adopted by it.
    streams: Mutex<Vec<TcpStream>>,
    /// Connections placed on the reactor and not yet closed.
    open: AtomicUsize,
    waker: Arc<Waker>,
}

/// What the acceptor and the reactors share: one inbox per reactor and
/// the server-wide count of open connections that `max_connections`
/// caps. Only the acceptor raises the counts and only reactors lower
/// them, so a stale read by the acceptor can only overstate them: the
/// cap is never exceeded.
struct Placement {
    /// Connections placed on any reactor and not yet closed.
    open: AtomicUsize,
    max: usize,
    acceptor: Arc<Waker>,
    inboxes: Vec<Inbox>,
}

impl Placement {
    /// Whether `max_connections` sockets are open.
    fn full(&self) -> bool {
        self.open.load(Ordering::Relaxed) >= self.max
    }

    /// Hands `stream` to the reactor with the fewest open connections,
    /// the lowest index on a tie.
    fn place(&self, stream: TcpStream) {
        let Some(inbox) = self
            .inboxes
            .iter()
            .min_by_key(|inbox| inbox.open.load(Ordering::Relaxed))
        else {
            return; // no reactor (`workers` is validated nonzero)
        };
        self.open.fetch_add(1, Ordering::Relaxed);
        inbox.open.fetch_add(1, Ordering::Relaxed);
        lock_unpoisoned(inbox.streams.lock()).push(stream);
        inbox.waker.wake();
    }

    /// Counts one of reactor `index`'s connections closed, and wakes the
    /// acceptor when that frees a place under the cap.
    fn release(&self, index: usize) {
        self.inboxes[index].open.fetch_sub(1, Ordering::Relaxed);
        if self.open.fetch_sub(1, Ordering::Relaxed) == self.max {
            self.acceptor.wake();
        }
    }
}

/// Serves `listener` until the drain completes. Builds `workers`
/// reactors, runs each on its own `sbfd-reactor-{i}` thread, accepts on
/// the calling thread, and joins every reactor before it returns. Any
/// failure, of the acceptor or of a reactor, begins the drain.
pub(crate) fn serve(
    listener: TcpListener,
    state: &Arc<SharedState>,
    cfg: &ReactorConfig,
    workers: usize,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let (acceptor, acceptor_rx) = Waker::pair()?;
    let mut receivers = Vec::with_capacity(workers);
    let mut inboxes = Vec::with_capacity(workers);
    for _ in 0..workers {
        let (waker, rx) = Waker::pair()?;
        receivers.push(rx);
        inboxes.push(Inbox {
            streams: Mutex::new(Vec::new()),
            open: AtomicUsize::new(0),
            waker,
        });
    }
    let placement = Arc::new(Placement {
        open: AtomicUsize::new(0),
        max: cfg.max_connections,
        acceptor,
        inboxes,
    });
    let reactors = receivers
        .into_iter()
        .enumerate()
        .map(|(index, waker_rx)| Reactor::new(index, waker_rx, &placement, state, cfg))
        .collect::<io::Result<Vec<_>>>()?;
    state.attach_wakers(
        placement
            .inboxes
            .iter()
            .map(|inbox| &inbox.waker)
            .chain([&placement.acceptor])
            .map(Arc::clone),
    );
    let mut threads = Vec::with_capacity(workers);
    let mut served = Ok(());
    for (index, mut reactor) in reactors.into_iter().enumerate() {
        let spawned = std::thread::Builder::new()
            .name(format!("sbfd-reactor-{index}"))
            .spawn(move || {
                // However a reactor ends (the drain, a poll error or a
                // panicking job), the server drains: the acceptor must not
                // place connections on a reactor that no longer serves.
                let _drain = DrainOnExit(Arc::clone(&reactor.state));
                reactor.run()
            });
        match spawned {
            Ok(thread) => threads.push(thread),
            Err(e) => {
                served = Err(e);
                break;
            }
        }
    }
    if served.is_ok() {
        served = accept_loop(&listener, &acceptor_rx, &placement, state, cfg.poll_timeout);
    }
    state.begin_shutdown();
    for thread in threads {
        let joined = thread
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("reactor thread panicked")));
        served = served.and(joined);
    }
    served
}

/// Begins the drain when dropped, including while a panic unwinds.
struct DrainOnExit(Arc<SharedState>);

impl Drop for DrainOnExit {
    fn drop(&mut self) {
        self.0.begin_shutdown();
    }
}

/// The acceptor: places every socket the listener yields, parking the
/// listener while the server is at `max_connections`, until the drain
/// begins.
fn accept_loop(
    listener: &TcpListener,
    waker_rx: &UnixStream,
    placement: &Placement,
    state: &SharedState,
    poll_timeout: Duration,
) -> io::Result<()> {
    let epoll = Epoll::new()?;
    epoll.add(waker_rx.as_raw_fd(), EPOLLIN, TOKEN_WAKER)?;
    let mut armed = false;
    let mut events = [EpollEvent::empty(); 2];
    while !state.draining() {
        if armed == placement.full() {
            if armed {
                epoll.delete(listener.as_raw_fd())?;
                metrics::on(|m| m.backpressure_stalls.inc());
            } else {
                epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
            }
            armed = !armed;
        }
        let n = epoll.wait(&mut events, poll_ms(poll_timeout))?;
        for ev in &events[..n] {
            if ev.data == TOKEN_WAKER {
                drain_waker(waker_rx);
            } else {
                accept_ready(listener, placement);
            }
        }
    }
    Ok(())
}

/// Accepts until the kernel backlog is empty or the server is full.
fn accept_ready(listener: &TcpListener, placement: &Placement) {
    while !placement.full() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue; // drop the socket; the peer sees a close
                }
                // Latency over loopback is dominated by Nagle delays
                // otherwise; best-effort is fine for nodelay alone.
                let _ = stream.set_nodelay(true);
                placement.place(stream);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // WouldBlock: the backlog is empty. Anything else is a
            // transient failure (peer reset mid-handshake, fd pressure):
            // keep serving.
            Err(_) => return,
        }
    }
}

/// One serving thread: owns an epoll set, the connections placed on it,
/// and their timer wheel, and runs every job of those connections itself.
struct Reactor {
    index: usize,
    epoll: Epoll,
    waker_rx: UnixStream,
    placement: Arc<Placement>,
    conns: Vec<Option<Connection>>,
    free: Vec<usize>,
    active: usize,
    timers: TimerWheel,
    state: Arc<SharedState>,
    cfg: ReactorConfig,
    next_generation: u64,
}

impl Reactor {
    /// Builds reactor `index`'s epoll set around its waker's read end.
    fn new(
        index: usize,
        waker_rx: UnixStream,
        placement: &Arc<Placement>,
        state: &Arc<SharedState>,
        cfg: &ReactorConfig,
    ) -> io::Result<Self> {
        let epoll = Epoll::new()?;
        epoll.add(waker_rx.as_raw_fd(), EPOLLIN, TOKEN_WAKER)?;
        Ok(Reactor {
            index,
            epoll,
            waker_rx,
            placement: Arc::clone(placement),
            conns: Vec::new(),
            free: Vec::new(),
            active: 0,
            timers: TimerWheel::new(Instant::now()),
            state: Arc::clone(state),
            cfg: cfg.clone(),
            next_generation: 0,
        })
    }

    /// Serves until the drain flag is up *and* every connection on this
    /// reactor has closed.
    fn run(&mut self) -> io::Result<()> {
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
            let n = self.epoll.wait(&mut events, poll_ms(timeout))?;
            let mut adopt_pending = false;
            for ev in &events[..n] {
                match ev.data {
                    // Adopt last: connection slots freed by events in this
                    // same batch must not be reused while stale events for
                    // their tokens are still queued behind us.
                    TOKEN_WAKER => adopt_pending = true,
                    t => self.conn_event((t - TOKEN_BASE) as usize, ev.events),
                }
            }
            if adopt_pending {
                drain_waker(&self.waker_rx);
                self.adopt();
            }
            self.process_timers(&mut fired);
        }
    }

    /// Registers every socket the acceptor placed here since the last call.
    fn adopt(&mut self) {
        let streams = std::mem::take(&mut *lock_unpoisoned(
            self.placement.inboxes[self.index].streams.lock(),
        ));
        for stream in streams {
            let idx = match self.free.pop() {
                Some(i) => i,
                None => {
                    self.conns.push(None);
                    self.conns.len() - 1
                }
            };
            let interest = EPOLLIN | EPOLLRDHUP;
            if self
                .epoll
                .add(stream.as_raw_fd(), interest, TOKEN_BASE + idx as u64)
                .is_err()
            {
                self.free.push(idx);
                self.placement.release(self.index);
                continue; // drop the socket; the peer sees a close
            }
            self.next_generation += 1;
            let mut c = Connection::new(stream, self.next_generation, Instant::now());
            c.interest = interest;
            // The gauge is process-wide (every reactor in the process adds
            // its own ±1), and a connection lowers it on close only if it
            // raised it here.
            metrics::on(|m| {
                m.connections.inc();
                m.connections_active.adjust(1.0);
                c.gauged = true;
            });
            self.conns[idx] = Some(c);
            self.active += 1;
            self.finish_or_keep(idx); // arms the idle timer
        }
    }

    /// Handles readiness on one connection: flush on writable, then
    /// read-accumulate + frame-split on readable, then run the jobs.
    fn conn_event(&mut self, idx: usize, bits: u32) {
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
                    match (&c.stream).read(&mut scratch) {
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
        self.run_queued(idx);
        self.finish_or_keep(idx);
    }

    /// Runs the connection's queued frames as jobs of up to
    /// `pipeline_depth` frames each, appending every job's responses to the
    /// write buffer. Stops at a SHUTDOWN ack or once the drain begins
    /// (`drain_step` then drops what is left).
    fn run_queued(&mut self, idx: usize) {
        let Some(Some(c)) = self.conns.get_mut(idx) else {
            return;
        };
        while !c.queued.is_empty() && !c.close_after_flush && !self.state.draining() {
            let take = c.queued.len().min(self.cfg.pipeline_depth);
            metrics::on(|m| {
                m.pipeline_batches.inc();
                m.pipeline_frames.add(take as u64);
            });
            if run_job(&self.state, c.queued.drain(..take), &mut c.write_buf) {
                // SHUTDOWN ack (or unframeable response): flush what is
                // owed, serve nothing more.
                c.close_after_flush = true;
                c.queued.clear();
            }
            c.last_activity = Instant::now();
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
                match (&c.stream).write(&c.write_buf[c.write_pos..]) {
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
                || (c.close_after_flush && c.pending_write() == 0)
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
    /// recycle, and its place under the connection cap.
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
        self.placement.release(self.index);
    }

    /// One drain pass: every open connection drops its unrun frames and
    /// closes once the responses it is owed have flushed.
    fn drain_step(&mut self) {
        if !self.state.draining() {
            return;
        }
        for idx in 0..self.conns.len() {
            let Some(Some(c)) = self.conns.get_mut(idx) else {
                continue;
            };
            c.queued.clear();
            c.close_after_flush = true;
            self.finish_or_keep(idx);
        }
    }
}

/// Runs one job: decode, apply (drain gate + WAL ordering live in
/// `handle_framed`) and encode each frame in order, appending the
/// responses to `out`. Returns whether the connection must close once
/// `out` has flushed.
fn run_job(state: &SharedState, items: impl Iterator<Item = FrameItem>, out: &mut Vec<u8>) -> bool {
    let mut close = false;
    for item in items {
        let started = Instant::now();
        let answered;
        let resp = match &item {
            FrameItem::Body(body) => {
                let Some((&opcode, payload)) = body.split_first() else {
                    continue; // unreachable: the splitter never emits an empty body
                };
                // Decoded in place: the request's keys borrow `body`.
                answered = match RequestRef::decode(opcode, payload) {
                    Ok(req) => {
                        metrics::on(|m| m.requests_for(req.label()).inc());
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
        // be framed leaves `out` ending where its frame would have
        // started (`encode_into` truncates on error), so the fallback
        // below follows the previous frame and the peer stays framed.
        let frame_start = out.len();
        if let Err(e) = resp.encode_into(out) {
            debug_assert_eq!(out.len(), frame_start);
            // The response body cannot fit its u32 length field. Degrade
            // to a small typed error; this tiny frame itself always
            // encodes.
            let fallback = Response::Error {
                code: ErrorCode::Oversized,
                message: format!("response could not be framed: {e}"),
            };
            if fallback.encode_into(out).is_err() {
                close = true;
            }
        }
        metrics::on(|m| {
            m.request_latency_ns
                .observe(started.elapsed().as_nanos() as u64);
        });
    }
    close
}

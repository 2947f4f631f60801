//! The std-only epoll shim: four `extern "C"` declarations and a safe
//! RAII wrapper, in the same in-workspace discipline as the proptest
//! shim — no `libc` crate, no registry dependency.
//!
//! This is the only file in `sbf-server` allowed to contain `unsafe`
//! (the crate is `#![deny(unsafe_code)]`; this module opts back in, like
//! `sbf-hash`'s `prefetch.rs`). The unsafety is confined to the raw
//! syscall boundary: everything above [`Epoll`] speaks owned fds, slices
//! and `io::Result`.
//!
//! Linux-only by design — the reactor is the serving core of a daemon
//! whose deploy target (and CI) is Linux. Level-triggered mode is used
//! throughout: interest is toggled with `EPOLL_CTL_MOD` instead of
//! edge-triggered re-arm bookkeeping, which keeps the state machine in
//! `reactor::mod` obviously correct at the cost of a few extra wakeups.
#![allow(unsafe_code)]

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

/// `EPOLL_CLOEXEC`: the epoll fd itself must not leak into children
/// (`sbf serve` can be spawned from test harnesses that fork).
const EPOLL_CLOEXEC: i32 = 0o2000000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

/// Readable (or a pending accept on a listener).
pub(crate) const EPOLLIN: u32 = 0x001;
/// Writable without blocking.
pub(crate) const EPOLLOUT: u32 = 0x004;
/// Error condition; always reported, never needs registering.
pub(crate) const EPOLLERR: u32 = 0x008;
/// Hangup; always reported, never needs registering.
pub(crate) const EPOLLHUP: u32 = 0x010;
/// Peer shut down its write half (half-close detection).
pub(crate) const EPOLLRDHUP: u32 = 0x2000;

/// Mirror of `struct epoll_event`. On x86_64 Linux the kernel ABI packs
/// the struct (12 bytes); other architectures use natural alignment.
/// `data` carries the reactor token verbatim.
#[derive(Clone, Copy)]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
pub(crate) struct EpollEvent {
    /// Ready-state bitmask (`EPOLLIN | …`).
    pub events: u32,
    /// The token registered with the fd.
    pub data: u64,
}

impl EpollEvent {
    /// A zeroed event, for sizing the wait buffer.
    pub(crate) fn empty() -> Self {
        EpollEvent { events: 0, data: 0 }
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
}

/// An owned epoll instance. Closed on drop via [`OwnedFd`].
pub(crate) struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub(crate) fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes no pointers; a negative return is an
        // error, any other return is a freshly allocated fd we own.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` was just returned by epoll_create1, is valid, and
        // nothing else owns it.
        let fd = unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, event: Option<&mut EpollEvent>) -> io::Result<()> {
        let ptr = event.map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
        // SAFETY: `self.fd` is a live epoll fd; `ptr` is either null (only
        // for EPOLL_CTL_DEL, where the kernel ignores it) or a valid
        // exclusive pointer to a properly laid out EpollEvent that outlives
        // the call.
        let rc = unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, ptr) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    /// Registers `fd` with the given interest mask and token.
    pub(crate) fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        self.ctl(EPOLL_CTL_ADD, fd, Some(&mut ev))
    }

    /// Replaces `fd`'s interest mask (level-triggered interest toggling).
    pub(crate) fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        self.ctl(EPOLL_CTL_MOD, fd, Some(&mut ev))
    }

    /// Deregisters `fd`.
    pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, None)
    }

    /// Waits up to `timeout_ms` (−1 = forever) for readiness, filling
    /// `events` from the front; returns how many entries are valid. A
    /// signal interruption reports `Ok(0)` — the reactor loop treats it as
    /// a spurious wakeup and re-evaluates its timers.
    pub(crate) fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let cap = i32::try_from(events.len()).unwrap_or(i32::MAX).max(1);
        // SAFETY: `events` is a live, exclusively borrowed slice of at
        // least `cap` properly laid out EpollEvents; the kernel writes at
        // most `cap` entries into it and does not retain the pointer.
        let rc = unsafe { epoll_wait(self.fd.as_raw_fd(), events.as_mut_ptr(), cap, timeout_ms) };
        if rc < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                Ok(0)
            } else {
                Err(e)
            }
        } else {
            Ok(rc as usize)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;

    #[test]
    fn epoll_reports_readable_pipe_with_token() {
        let ep = Epoll::new().unwrap();
        let (mut tx, rx) = UnixStream::pair().unwrap();
        rx.set_nonblocking(true).unwrap();
        ep.add(rx.as_raw_fd(), EPOLLIN, 0xBEEF).unwrap();

        let mut events = vec![EpollEvent::empty(); 8];
        // Nothing readable yet: a zero-timeout wait returns no events.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        tx.write_all(&[1]).unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let ev = events[0];
        assert_eq!({ ev.data }, 0xBEEF);
        assert_ne!({ ev.events } & EPOLLIN, 0);

        // MOD to write-only interest: the pending byte no longer wakes us.
        ep.modify(rx.as_raw_fd(), EPOLLOUT, 0xBEEF).unwrap();
        let n = ep.wait(&mut events, 0).unwrap();
        assert!(n == 0 || ({ events[0].events } & EPOLLIN) == 0);

        ep.delete(rx.as_raw_fd()).unwrap();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }
}

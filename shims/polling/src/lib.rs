//! Offline stand-in for the part of `polling` 2.8 this workspace uses:
//! a [`Poller`] that waits on many sockets at once, level-triggered,
//! and can be woken from another thread, over Linux `epoll`.
//!
//! `std` has no readiness call, so this is the one place in the
//! repository that crosses into C: three `epoll` functions, already
//! linked through `std`'s libc, and the adoption of the descriptor
//! `epoll_create1` returns. Everything else (closing it, the wake-up
//! channel) is safe `std`. The wake-up is a socket pair rather than an
//! `eventfd`, which would be a fourth foreign call.
//!
//! Only read interest and [`PollMode::Level`] exist here: the registry
//! crate's write interest and other modes have no caller, and a subset
//! keeps the swap back to the registry crate a one-line pin change.

#[cfg(not(target_os = "linux"))]
compile_error!(
    "shims/polling wraps Linux epoll only; on another target swap the pin in the root \
     Cargo.toml's [workspace.dependencies] to the registry crate: polling = \"2.8\""
);

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::c_int;
use std::os::unix::net::UnixStream;
use std::time::Duration;

const EPOLL_CLOEXEC: c_int = 0o2_000_000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLLIN: u32 = 0x001;
const EPOLLPRI: u32 = 0x002;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

/// What makes a source readable: data, a peer that closed or half-closed,
/// or an error the next `read` will return.
const READ_FLAGS: u32 = EPOLLIN | EPOLLPRI | EPOLLRDHUP | EPOLLHUP | EPOLLERR;

/// Events taken out of the kernel per [`Poller::wait`]; a source still
/// ready beyond that is reported by the next call (level-triggered).
const MAX_EVENTS: usize = 256;

/// The key of the wake-up channel, reserved as in the registry crate.
const NOTIFY_KEY: usize = usize::MAX;

/// The kernel's `struct epoll_event`, which x86-64 alone packs.
#[derive(Clone, Copy)]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
}

/// Interest in, or readiness of, the source registered under `key`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// The key the source was registered under.
    pub key: usize,
    /// Readable, closed by the peer, or in error.
    pub readable: bool,
}

impl Event {
    /// Interest in readability alone.
    pub fn readable(key: usize) -> Self {
        Self {
            key,
            readable: true,
        }
    }
}

/// How a registered source reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum PollMode {
    /// A ready source is reported by every [`Poller::wait`] until it is
    /// no longer ready.
    Level,
}

/// A descriptor a [`Poller`] can watch: a raw one, or a reference to
/// whatever owns one.
pub trait Source {
    /// The descriptor itself.
    fn raw(&self) -> RawFd;
}

impl Source for RawFd {
    fn raw(&self) -> RawFd {
        *self
    }
}

impl<T: AsRawFd> Source for &T {
    fn raw(&self) -> RawFd {
        self.as_raw_fd()
    }
}

/// An `epoll` instance plus the socket pair that wakes it.
pub struct Poller {
    epoll: OwnedFd,
    wake_tx: UnixStream,
    wake_rx: UnixStream,
}

impl Poller {
    /// A poller watching nothing but its own wake-up channel.
    ///
    /// # Errors
    ///
    /// Whatever `epoll_create1` or the socket pair fail with (descriptor
    /// limits, in practice).
    pub fn new() -> io::Result<Self> {
        // SAFETY: `epoll_create1` takes a flag word and touches no
        // memory of ours.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is a descriptor the call above just opened and
        // nothing else holds, so the `OwnedFd` is its only owner.
        let epoll = unsafe { OwnedFd::from_raw_fd(fd) };
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let poller = Self {
            epoll,
            wake_tx,
            wake_rx,
        };
        poller.ctl(
            EPOLL_CTL_ADD,
            poller.wake_rx.as_raw_fd(),
            Some(Event::readable(NOTIFY_KEY)),
        )?;
        Ok(poller)
    }

    fn ctl(&self, op: c_int, fd: RawFd, interest: Option<Event>) -> io::Result<()> {
        let mut event = interest.map(|i| EpollEvent {
            events: if i.readable { READ_FLAGS } else { 0 },
            data: i.key as u64,
        });
        let event = event
            .as_mut()
            .map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
        // SAFETY: `event` is null (which `EPOLL_CTL_DEL` allows) or
        // points at a live `EpollEvent` laid out as the kernel's struct,
        // which the call reads before it returns and does not keep.
        let rc = unsafe { epoll_ctl(self.epoll.as_raw_fd(), op, fd, event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Starts watching `source` for `interest`. The source must be
    /// [`Poller::delete`]d before it is closed.
    ///
    /// # Errors
    ///
    /// The reserved key `usize::MAX`, a source already registered, or
    /// the kernel's watch limit.
    pub fn add_with_mode(
        &self,
        source: impl Source,
        interest: Event,
        mode: PollMode,
    ) -> io::Result<()> {
        if interest.key == NOTIFY_KEY {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "the key `usize::MAX` is reserved",
            ));
        }
        let PollMode::Level = mode;
        self.ctl(EPOLL_CTL_ADD, source.raw(), Some(interest))
    }

    /// Stops watching `source`.
    ///
    /// # Errors
    ///
    /// A source that is not registered.
    pub fn delete(&self, source: impl Source) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, source.raw(), None)
    }

    /// Blocks until a registered source is ready, [`Poller::notify`] is
    /// called, or `timeout` passes, and appends what is ready to
    /// `events`. Returns how many were appended: zero after a timeout or
    /// a wake-up.
    ///
    /// # Errors
    ///
    /// `Interrupted` when a signal cut the wait short.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        // Rounded up: a wait must not return before its timeout.
        let timeout_ms = timeout.map_or(-1, |t| {
            t.as_nanos().div_ceil(1_000_000).min(c_int::MAX as u128) as c_int
        });
        let mut ready = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        // SAFETY: `ready` is a live array of `MAX_EVENTS` kernel-layout
        // entries, and the call writes at most that many of them.
        let n = unsafe {
            epoll_wait(
                self.epoll.as_raw_fd(),
                ready.as_mut_ptr(),
                MAX_EVENTS as c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        let before = events.len();
        for entry in &ready[..n as usize] {
            // By value: a packed field has no aligned address to borrow.
            let (flags, key) = (entry.events, entry.data as usize);
            if key == NOTIFY_KEY {
                // Emptied, or the level-triggered channel wakes every
                // later wait too.
                let mut sink = [0u8; 64];
                while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
            } else {
                events.push(Event {
                    key,
                    readable: flags & READ_FLAGS != 0,
                });
            }
        }
        Ok(events.len() - before)
    }

    /// Wakes the current [`Poller::wait`], or the next one if none is
    /// blocked now.
    ///
    /// # Errors
    ///
    /// None on Linux: a full channel means a wake-up is already pending.
    pub fn notify(&self) -> io::Result<()> {
        match (&self.wake_tx).write(&[1]) {
            Err(e) if e.kind() != io::ErrorKind::WouldBlock => Err(e),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    const LONG: Option<Duration> = Some(Duration::from_secs(30));

    fn pair() -> (UnixStream, UnixStream) {
        let (tx, rx) = UnixStream::pair().unwrap();
        rx.set_nonblocking(true).unwrap();
        (tx, rx)
    }

    #[test]
    fn a_ready_source_reports_until_it_is_drained() {
        let poller = Poller::new().unwrap();
        let (mut tx, mut rx) = pair();
        poller
            .add_with_mode(&rx, Event::readable(7), PollMode::Level)
            .unwrap();
        let mut events = Vec::new();
        assert_eq!(
            poller.wait(&mut events, Some(Duration::ZERO)).unwrap(),
            0,
            "nothing written yet"
        );
        tx.write_all(b"xy").unwrap();
        for _ in 0..2 {
            events.clear();
            assert_eq!(poller.wait(&mut events, LONG).unwrap(), 1);
            assert_eq!((events[0].key, events[0].readable), (7, true));
        }
        let mut buf = [0u8; 8];
        assert_eq!(rx.read(&mut buf).unwrap(), 2);
        events.clear();
        assert_eq!(poller.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);
    }

    #[test]
    fn a_closed_peer_reads_as_readable_and_a_deleted_source_is_silent() {
        let poller = Poller::new().unwrap();
        let (tx, rx) = pair();
        poller
            .add_with_mode(&rx, Event::readable(1), PollMode::Level)
            .unwrap();
        drop(tx);
        let mut events = Vec::new();
        assert_eq!(poller.wait(&mut events, LONG).unwrap(), 1);
        assert!(events[0].readable, "EOF is something to read");
        poller.delete(&rx).unwrap();
        events.clear();
        assert_eq!(poller.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);
        assert!(poller.delete(&rx).is_err(), "it is registered no more");
    }

    #[test]
    fn wait_appends_and_rejects_the_reserved_key() {
        let poller = Poller::new().unwrap();
        let (mut tx, rx) = pair();
        assert_eq!(
            poller
                .add_with_mode(&rx, Event::readable(usize::MAX), PollMode::Level)
                .unwrap_err()
                .kind(),
            io::ErrorKind::InvalidInput
        );
        poller
            .add_with_mode(rx.as_raw_fd(), Event::readable(2), PollMode::Level)
            .unwrap();
        tx.write_all(b"z").unwrap();
        let mut events = vec![Event::readable(99)];
        assert_eq!(poller.wait(&mut events, LONG).unwrap(), 1);
        assert_eq!(events.len(), 2, "earlier entries stay");
        assert_eq!(events[1].key, 2);
    }

    #[test]
    fn notify_wakes_a_blocked_wait_once() {
        let poller = Arc::new(Poller::new().unwrap());
        let waker = Arc::clone(&poller);
        // No sleep orders the two threads: a notify that lands before
        // the wait starts must wake it just the same.
        let thread = std::thread::spawn(move || waker.notify().unwrap());
        let mut events = Vec::new();
        let started = Instant::now();
        assert_eq!(poller.wait(&mut events, LONG).unwrap(), 0);
        assert!(started.elapsed() < Duration::from_secs(20), "timed out");
        thread.join().unwrap();
        // The wake-up is spent: the next wait runs to its timeout.
        let started = Instant::now();
        let timeout = Duration::from_millis(20);
        assert_eq!(poller.wait(&mut events, Some(timeout)).unwrap(), 0);
        assert!(started.elapsed() >= timeout);
    }
}

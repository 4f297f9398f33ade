//! Vendored readiness-polling shim: a minimal, safe wrapper over
//! `poll(2)` in the spirit of the `polling` crate's level-triggered API.
//!
//! The workspace builds offline, so instead of pulling `mio`/`polling`
//! from crates.io this crate declares the single `poll` symbol already
//! present in the libc that `std` links against — zero new external
//! dependencies. The `unsafe` surface is confined to the `sys` module:
//! one `#[repr(C)]` struct and one FFI call, both checked against the
//! POSIX definition.
//!
//! Semantics are **level-triggered**: a registered descriptor is
//! reported on every [`Poller::wait`] for as long as it stays ready, so
//! callers must read/write to `WouldBlock` (or deregister) to quiesce
//! it. Registration is keyed: every descriptor carries a caller-chosen
//! `usize` key that comes back in the delivered [`Event`]s.
//!
//! [`Poller::notify`] wakes a concurrent (or the next) `wait` from any
//! thread — the reactor's cross-thread completion signal — implemented
//! with a nonblocking `UnixStream` pair plus an atomic collapse so a
//! burst of notifies costs one write.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::os::unix::io::RawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The `unsafe` floor: the `pollfd` ABI struct and the one FFI call.
#[allow(unsafe_code)]
mod sys {
    use std::ffi::{c_int, c_ulong};
    use std::os::unix::io::RawFd;

    /// `struct pollfd` (POSIX).
    #[repr(C)]
    #[derive(Clone, Copy, Debug)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Safe entry point: the slice bounds the pointer/len pair by
    /// construction, and `PollFd` is plain old data.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: c_int) -> std::io::Result<usize> {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // `repr(C)` structs matching the POSIX `pollfd` layout, and
        // `nfds` is exactly its length.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if rc < 0 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(rc as usize)
        }
    }
}

/// Readiness interest in — or delivered readiness of — one registered
/// descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The caller-chosen registration key.
    pub key: usize,
    /// Read readiness (includes hangup/error so the owner observes the
    /// failure on its next read).
    pub readable: bool,
    /// Write readiness.
    pub writable: bool,
}

impl Event {
    /// Interest in readability only.
    pub fn readable(key: usize) -> Self {
        Self {
            key,
            readable: true,
            writable: false,
        }
    }

    /// Interest in writability only.
    pub fn writable(key: usize) -> Self {
        Self {
            key,
            readable: false,
            writable: true,
        }
    }

    /// Interest in both directions.
    pub fn all(key: usize) -> Self {
        Self {
            key,
            readable: true,
            writable: true,
        }
    }

    /// No interest (keeps the registration for error reporting).
    pub fn none(key: usize) -> Self {
        Self {
            key,
            readable: false,
            writable: false,
        }
    }
}

/// One registration: key plus current interest.
#[derive(Debug, Clone, Copy)]
struct Interest {
    key: usize,
    readable: bool,
    writable: bool,
}

/// Scratch state rebuilt each [`Poller::wait`] (kept allocated between
/// calls — at 10k descriptors the rebuild is a memcpy, not an alloc).
#[derive(Default)]
struct Scratch {
    fds: Vec<sys::PollFd>,
    keys: Vec<usize>,
}

/// A keyed, level-triggered `poll(2)` selector, shareable across
/// threads (`wait` on one thread, `notify` from any).
pub struct Poller {
    interests: Mutex<BTreeMap<RawFd, Interest>>,
    scratch: Mutex<Scratch>,
    /// Read end of the self-pipe, polled alongside registrations.
    waker_rx: Mutex<UnixStream>,
    /// Write end, used by [`notify`](Self::notify).
    waker_tx: UnixStream,
    waker_fd: RawFd,
    /// Collapses notify bursts: set by `notify`, cleared at `wait`
    /// entry. A set flag forces the next `wait` to be nonblocking, so a
    /// notify can never be lost even if its pipe byte was consumed by an
    /// earlier drain.
    notified: AtomicBool,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.interests.lock().map(|m| m.len()).unwrap_or(0);
        f.debug_struct("Poller").field("registered", &n).finish()
    }
}

impl Poller {
    /// A new selector with its wakeup channel armed.
    ///
    /// # Errors
    ///
    /// Propagates socketpair creation failures.
    pub fn new() -> io::Result<Self> {
        let (waker_rx, waker_tx) = UnixStream::pair()?;
        waker_rx.set_nonblocking(true)?;
        waker_tx.set_nonblocking(true)?;
        let waker_fd = {
            use std::os::unix::io::AsRawFd;
            waker_rx.as_raw_fd()
        };
        Ok(Self {
            interests: Mutex::new(BTreeMap::new()),
            scratch: Mutex::new(Scratch::default()),
            waker_rx: Mutex::new(waker_rx),
            waker_tx,
            waker_fd,
            notified: AtomicBool::new(false),
        })
    }

    /// Register `fd` with the given interest. The caller keeps ownership
    /// of the descriptor and must [`delete`](Self::delete) it before
    /// closing it.
    ///
    /// # Errors
    ///
    /// Fails if `fd` is already registered.
    pub fn add(&self, fd: RawFd, ev: Event) -> io::Result<()> {
        let mut m = self.interests.lock().expect("poller interests poisoned");
        if m.contains_key(&fd) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("fd {fd} is already registered"),
            ));
        }
        m.insert(
            fd,
            Interest {
                key: ev.key,
                readable: ev.readable,
                writable: ev.writable,
            },
        );
        Ok(())
    }

    /// Replace the interest of a registered `fd`.
    ///
    /// # Errors
    ///
    /// Fails if `fd` is not registered.
    pub fn modify(&self, fd: RawFd, ev: Event) -> io::Result<()> {
        let mut m = self.interests.lock().expect("poller interests poisoned");
        match m.get_mut(&fd) {
            Some(i) => {
                *i = Interest {
                    key: ev.key,
                    readable: ev.readable,
                    writable: ev.writable,
                };
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("fd {fd} is not registered"),
            )),
        }
    }

    /// Deregister `fd`.
    ///
    /// # Errors
    ///
    /// Fails if `fd` is not registered.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        let mut m = self.interests.lock().expect("poller interests poisoned");
        match m.remove(&fd) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("fd {fd} is not registered"),
            )),
        }
    }

    /// Number of registered descriptors.
    pub fn registered(&self) -> usize {
        self.interests
            .lock()
            .expect("poller interests poisoned")
            .len()
    }

    /// Block until at least one registered descriptor is ready, the
    /// timeout expires (`None` = wait forever), or [`notify`] is called;
    /// append delivered readiness to `events` and return how many were
    /// appended. Spurious zero-event returns are allowed (wakeups,
    /// `EINTR`) — callers loop.
    ///
    /// [`notify`]: Self::notify
    ///
    /// # Errors
    ///
    /// Propagates `poll(2)` failures other than `EINTR`.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        // A pending notify forces a nonblocking pass: its pipe byte may
        // have been consumed by a previous drain, so the flag is the
        // only durable trace.
        let forced = self.notified.swap(false, Ordering::AcqRel);
        let timeout_ms: i32 = if forced {
            0
        } else {
            match timeout {
                None => -1,
                Some(d) => {
                    // Round up so sub-millisecond timers still sleep.
                    let ms = d.as_millis();
                    let ms = if ms == 0 && !d.is_zero() { 1 } else { ms };
                    ms.min(i32::MAX as u128) as i32
                }
            }
        };
        let mut scratch = self.scratch.lock().expect("poller scratch poisoned");
        scratch.fds.clear();
        scratch.keys.clear();
        scratch.fds.push(sys::PollFd {
            fd: self.waker_fd,
            events: sys::POLLIN,
            revents: 0,
        });
        scratch.keys.push(usize::MAX);
        {
            let m = self.interests.lock().expect("poller interests poisoned");
            for (&fd, interest) in m.iter() {
                let mut mask = 0i16;
                if interest.readable {
                    mask |= sys::POLLIN;
                }
                if interest.writable {
                    mask |= sys::POLLOUT;
                }
                scratch.fds.push(sys::PollFd {
                    fd,
                    events: mask,
                    revents: 0,
                });
                scratch.keys.push(interest.key);
            }
        }
        let Scratch { fds, keys } = &mut *scratch;
        match sys::poll_fds(fds, timeout_ms) {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(0),
            Err(e) => return Err(e),
        }
        // Self-pipe readiness: drain the burst of notify bytes.
        if fds[0].revents & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) != 0 {
            let mut rx = self.waker_rx.lock().expect("poller waker poisoned");
            let mut sink = [0u8; 64];
            while matches!(rx.read(&mut sink), Ok(n) if n > 0) {}
        }
        let mut appended = 0;
        for (pfd, &key) in fds.iter().zip(keys.iter()).skip(1) {
            let r = pfd.revents;
            let readable = r & (sys::POLLIN | sys::POLLHUP | sys::POLLERR | sys::POLLNVAL) != 0;
            let writable = r & (sys::POLLOUT | sys::POLLERR) != 0;
            if readable || writable {
                events.push(Event {
                    key,
                    readable,
                    writable,
                });
                appended += 1;
            }
        }
        Ok(appended)
    }

    /// Wake a concurrent (or the next) [`wait`](Self::wait) from any
    /// thread. Bursts collapse to one pipe write.
    pub fn notify(&self) {
        if !self.notified.swap(true, Ordering::AcqRel) {
            // A full pipe means unread wakeup bytes already exist, which
            // wakes the waiter just the same — ignore the error.
            let _ = (&self.waker_tx).write(&[1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::sync::Arc;
    use std::time::Instant;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn readable_when_bytes_arrive() {
        let poller = Poller::new().unwrap();
        let (mut a, b) = pair();
        b.set_nonblocking(true).unwrap();
        poller.add(b.as_raw_fd(), Event::readable(7)).unwrap();

        let mut events = Vec::new();
        // Nothing yet: a short wait times out empty.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);

        a.write_all(b"ping").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].key, 7);
        assert!(events[0].readable);
        poller.delete(b.as_raw_fd()).unwrap();
    }

    #[test]
    fn writable_interest_reports_on_fresh_socket() {
        let poller = Poller::new().unwrap();
        let (a, _b) = pair();
        poller.add(a.as_raw_fd(), Event::writable(3)).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.key == 3 && e.writable));
    }

    #[test]
    fn modify_changes_interest_and_delete_unregisters() {
        let poller = Poller::new().unwrap();
        let (mut a, b) = pair();
        poller.add(b.as_raw_fd(), Event::none(1)).unwrap();
        a.write_all(b"x").unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(
            events.iter().all(|e| e.key != 1 || !e.readable),
            "no-interest registration must not report readable"
        );
        poller.modify(b.as_raw_fd(), Event::readable(1)).unwrap();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.key == 1 && e.readable));
        poller.delete(b.as_raw_fd()).unwrap();
        assert!(poller.delete(b.as_raw_fd()).is_err(), "double delete");
        assert_eq!(poller.registered(), 0);
    }

    #[test]
    fn duplicate_add_is_rejected() {
        let poller = Poller::new().unwrap();
        let (a, _b) = pair();
        poller.add(a.as_raw_fd(), Event::readable(0)).unwrap();
        assert!(poller.add(a.as_raw_fd(), Event::readable(9)).is_err());
    }

    #[test]
    fn notify_wakes_a_blocked_wait() {
        let poller = Arc::new(Poller::new().unwrap());
        let waker = Arc::clone(&poller);
        let started = Instant::now();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.notify();
        });
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(30)))
            .unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "notify must cut the 30s timeout short"
        );
        h.join().unwrap();
    }

    #[test]
    fn notify_before_wait_is_not_lost() {
        let poller = Poller::new().unwrap();
        poller.notify();
        poller.notify(); // burst collapses
        let started = Instant::now();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(30)))
            .unwrap();
        assert!(started.elapsed() < Duration::from_secs(10));
        // Flag and pipe are both drained: the next wait blocks normally.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
    }
}

//! Raw readiness syscalls: the zero-dependency substrate of the event
//! loop.
//!
//! The workspace forbids external crates, and `std` exposes no
//! readiness API, so this module declares the handful of libc symbols
//! the server needs — `epoll_create1`/`epoll_ctl`/`epoll_wait` and
//! `eventfd` on Linux, `poll` elsewhere on Unix — and wraps them in
//! safe, owned types:
//!
//! * [`Poller`] — add/rearm/remove interest in a file descriptor and
//!   wait for readiness events, each tagged with the caller's token.
//!   Every registration is **one-shot**: once an fd's event has been
//!   reported, the fd reports nothing more until it is re-armed. Many
//!   threads may wait on one poller, and each event goes to exactly one
//!   of them, so the thread that takes an fd's event owns that fd until
//!   it re-arms it;
//! * [`Waker`] — a thread-safe doorbell another thread can ring to pull
//!   a waiter out of [`Poller::wait`] (queued requests, shutdown).
//!
//! This is the **only** module in the workspace allowed to use
//! `unsafe`. The audit surface is deliberately tiny: every unsafe block
//! is a single FFI call whose arguments are sized slices or plain
//! integers owned by the caller, every returned fd is checked before
//! use, and no pointer outlives its call.

#![allow(unsafe_code)]

use std::io;
use std::os::unix::io::RawFd;
use std::sync::Arc;

/// Readiness reported for one registered file descriptor.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: usize,
    /// Data can be read (or a peer hang-up makes read return promptly).
    pub readable: bool,
    /// The socket send buffer has room.
    pub writable: bool,
    /// Error or hang-up: the fd should be serviced and closed.
    pub error: bool,
}

/// Which readiness a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake on readable.
    pub read: bool,
    /// Wake on writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Write-only interest.
    pub const WRITE: Interest = Interest {
        read: false,
        write: true,
    };
    /// Read + write interest.
    pub const BOTH: Interest = Interest {
        read: true,
        write: true,
    };
}

#[cfg(target_os = "linux")]
mod backend {
    //! Linux: epoll with `EPOLLONESHOT` registrations.

    use super::{Event, Interest};
    use std::io;
    use std::os::unix::io::RawFd;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLLONESHOT: u32 = 1 << 30;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    /// Mirrors `struct epoll_event`, whose layout is per-architecture:
    /// the kernel (and glibc, via `__EPOLL_PACKED`) packs it **only on
    /// x86-64** (12 bytes, `data` at offset 4); everywhere else it has
    /// natural alignment (16 bytes, `data` at offset 8). Matching the
    /// ABI exactly matters: `epoll_wait` writes kernel-sized entries
    /// into our buffer, so a mismatched size would overflow it, and
    /// `epoll_ctl` would read the token from the wrong offset.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    // Pin the ABI-dependent size so a layout regression fails to
    // compile instead of corrupting memory at runtime.
    const _: () = assert!(
        std::mem::size_of::<EpollEvent>() == if cfg!(target_arch = "x86_64") { 12 } else { 16 }
    );

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    /// The epoll instance. Every call is a single syscall on `epfd`,
    /// which the kernel serializes, so any number of threads may share
    /// it.
    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            // SAFETY: no pointers; the returned fd is validated below.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller { epfd })
        }

        fn ctl(&self, op: i32, fd: RawFd, events: u32, token: usize) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token as u64,
            };
            // SAFETY: `ev` is a live stack value for the duration of
            // the call; epoll_ctl does not retain the pointer.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn add(&self, fd: RawFd, interest: Interest, token: usize) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, mask(interest), token)
        }

        pub fn rearm(&self, fd: RawFd, interest: Interest, token: usize) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, mask(interest), token)
        }

        pub fn remove(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        pub fn wait(&self, timeout_ms: i32, max: usize, out: &mut Vec<Event>) -> io::Result<()> {
            let mut buf = [EpollEvent { events: 0, data: 0 }; 256];
            let max = max.clamp(1, buf.len());
            // SAFETY: `buf` is owned and live, and `maxevents` is at
            // most its length, so the kernel writes only inside it.
            let n = unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), max as i32, timeout_ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(()); // EINTR: treat as a spurious wake
                }
                return Err(err);
            }
            for ev in &buf[..n as usize] {
                let events = ev.events;
                out.push(Event {
                    token: ev.data as usize,
                    readable: events & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: events & EPOLLOUT != 0,
                    error: events & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: closing an fd we own exactly once.
            unsafe { close(self.epfd) };
        }
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = EPOLLONESHOT;
        if interest.read {
            m |= EPOLLIN | EPOLLRDHUP;
        }
        if interest.write {
            m |= EPOLLOUT;
        }
        m
    }

    /// An eventfd-backed doorbell.
    pub struct WakeFd {
        fd: RawFd,
    }

    impl WakeFd {
        pub fn new() -> io::Result<WakeFd> {
            const EFD_CLOEXEC: i32 = 0o2000000;
            const EFD_NONBLOCK: i32 = 0o4000;
            // SAFETY: no pointers; the returned fd is validated below.
            let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(WakeFd { fd })
        }

        pub fn raw_fd(&self) -> RawFd {
            self.fd
        }

        pub fn wake(&self) {
            let one: u64 = 1;
            // SAFETY: writes 8 owned bytes; an EAGAIN (counter already
            // saturated) still leaves the fd readable, which is all a
            // wake needs.
            let _ = unsafe { write(self.fd, (&raw const one).cast::<u8>(), 8) };
        }

        pub fn drain(&self) {
            let mut buf = [0u8; 8];
            // SAFETY: reads into an owned 8-byte buffer; the fd is
            // nonblocking so this never parks.
            let _ = unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
        }
    }

    impl Drop for WakeFd {
        fn drop(&mut self) {
            // SAFETY: closing an fd we own exactly once.
            unsafe { close(self.fd) };
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod backend {
    //! Portable Unix fallback: `poll(2)`, with one-shot emulated in
    //! userspace and waiters served one at a time.
    //!
    //! O(n) per wait, which is fine for development on non-Linux hosts;
    //! production deployments target the epoll backend.

    use super::{Event, Interest};
    use std::io::{self, Read, Write};
    use std::os::unix::io::{AsRawFd, RawFd};
    use std::os::unix::net::UnixStream;
    use std::sync::{Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[cfg(target_os = "linux")]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::os::raw::c_uint;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
    }

    /// One registration; `armed` goes false once its event is reported.
    struct Entry {
        fd: RawFd,
        interest: Interest,
        token: usize,
        armed: bool,
    }

    /// Registration table polled on every wait.
    pub struct Poller {
        entries: Mutex<Vec<Entry>>,
        /// Serializes waiters, so no event is reported twice.
        waiter: Mutex<()>,
        /// Rung on every registration change, so a waiter blocked in
        /// `poll` picks up fds armed after it started waiting.
        changed: WakeFd,
    }

    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                entries: Mutex::new(Vec::new()),
                waiter: Mutex::new(()),
                changed: WakeFd::new()?,
            })
        }

        pub fn add(&self, fd: RawFd, interest: Interest, token: usize) -> io::Result<()> {
            lock(&self.entries).push(Entry {
                fd,
                interest,
                token,
                armed: true,
            });
            self.changed.wake();
            Ok(())
        }

        pub fn rearm(&self, fd: RawFd, interest: Interest, token: usize) -> io::Result<()> {
            let mut entries = lock(&self.entries);
            let e = entries
                .iter_mut()
                .find(|e| e.fd == fd)
                .ok_or(io::ErrorKind::NotFound)?;
            *e = Entry {
                fd,
                interest,
                token,
                armed: true,
            };
            drop(entries);
            self.changed.wake();
            Ok(())
        }

        pub fn remove(&self, fd: RawFd) -> io::Result<()> {
            lock(&self.entries).retain(|e| e.fd != fd);
            Ok(())
        }

        pub fn wait(&self, timeout_ms: i32, max: usize, out: &mut Vec<Event>) -> io::Result<()> {
            let _turn = lock(&self.waiter);
            let deadline = Instant::now() + Duration::from_millis(timeout_ms.max(0) as u64);
            loop {
                let mut fds = vec![PollFd {
                    fd: self.changed.raw_fd(),
                    events: POLLIN,
                    revents: 0,
                }];
                fds.extend(lock(&self.entries).iter().filter(|e| e.armed).map(|e| {
                    let mut events = 0i16;
                    if e.interest.read {
                        events |= POLLIN;
                    }
                    if e.interest.write {
                        events |= POLLOUT;
                    }
                    PollFd {
                        fd: e.fd,
                        events,
                        revents: 0,
                    }
                }));
                let left = deadline.saturating_duration_since(Instant::now());
                let left_ms = i32::try_from(left.as_millis()).unwrap_or(i32::MAX);
                // SAFETY: the vector is owned and its length bounds nfds.
                let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, left_ms) };
                if n < 0 {
                    let err = io::Error::last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        return Ok(());
                    }
                    return Err(err);
                }
                if fds[0].revents != 0 {
                    self.changed.drain();
                }
                let mut entries = lock(&self.entries);
                let mut taken = 0;
                for pfd in fds[1..].iter().filter(|p| p.revents != 0) {
                    // The fd may have been removed or re-registered
                    // while this waiter was in poll; report only a
                    // registration that is still armed.
                    if let Some(e) = entries.iter_mut().find(|e| e.fd == pfd.fd && e.armed) {
                        e.armed = false;
                        out.push(Event {
                            token: e.token,
                            readable: pfd.revents & (POLLIN | POLLHUP) != 0,
                            writable: pfd.revents & POLLOUT != 0,
                            error: pfd.revents & (POLLERR | POLLHUP) != 0,
                        });
                        taken += 1;
                        if taken == max.max(1) {
                            break;
                        }
                    }
                }
                if taken > 0 || Instant::now() >= deadline {
                    return Ok(());
                }
            }
        }
    }

    /// A socket-pair doorbell.
    pub struct WakeFd {
        rx: UnixStream,
        tx: UnixStream,
    }

    impl WakeFd {
        pub fn new() -> io::Result<WakeFd> {
            let (rx, tx) = UnixStream::pair()?;
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            Ok(WakeFd { rx, tx })
        }

        pub fn raw_fd(&self) -> RawFd {
            self.rx.as_raw_fd()
        }

        pub fn wake(&self) {
            // A full buffer (WouldBlock) still leaves the read end
            // readable, which is all a wake needs.
            let _ = (&self.tx).write(&[1]);
        }

        pub fn drain(&self) {
            let mut buf = [0u8; 64];
            while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
        }
    }
}

#[cfg(not(unix))]
compile_error!(
    "questpro-server's readiness loop needs epoll (Linux) or poll (Unix); \
     no non-Unix backend is implemented"
);

/// Readiness poller over the platform backend; see the module docs.
pub struct Poller {
    inner: backend::Poller,
}

impl Poller {
    /// A fresh poller with no registrations.
    ///
    /// # Errors
    /// Propagates the backend creation failure (fd exhaustion).
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            inner: backend::Poller::new()?,
        })
    }

    /// Registers `fd` with one-shot `interest` under `token`.
    ///
    /// # Errors
    /// Propagates the backend registration failure.
    pub fn add(&self, fd: RawFd, interest: Interest, token: usize) -> io::Result<()> {
        self.inner.add(fd, interest, token)
    }

    /// Re-arms an already-registered `fd` with one-shot `interest` (and
    /// token); until then the fd reports nothing after its last event.
    ///
    /// # Errors
    /// Propagates the backend failure (unknown fd).
    pub fn rearm(&self, fd: RawFd, interest: Interest, token: usize) -> io::Result<()> {
        self.inner.rearm(fd, interest, token)
    }

    /// Unregisters `fd`.
    ///
    /// # Errors
    /// Propagates the backend failure (unknown fd).
    pub fn remove(&self, fd: RawFd) -> io::Result<()> {
        self.inner.remove(fd)
    }

    /// Waits up to `timeout_ms` and appends at most `max` readiness
    /// events to `out`, disarming each reported fd. A timeout or an
    /// interrupted wait (EINTR) returns cleanly with no events.
    ///
    /// # Errors
    /// Propagates a non-EINTR backend failure.
    pub fn wait(&self, timeout_ms: i32, max: usize, out: &mut Vec<Event>) -> io::Result<()> {
        self.inner.wait(timeout_ms, max, out)
    }
}

/// Widens the kernel accept backlog of an already-listening socket.
///
/// `std::net::TcpListener::bind` listens with a fixed backlog of 128.
/// When a client fleet connects in one burst, the overflow SYNs are
/// dropped and each affected client stalls for its ~1s retransmit
/// timeout — long enough at a few hundred simultaneous connects for
/// the earliest accepted connections to sit idle past the keep-alive
/// read timeout before the fleet is even established. POSIX allows
/// `listen(2)` on an already-listening socket to simply update the
/// backlog, so this widens it in place; the kernel still clamps the
/// value to `net.core.somaxconn`.
///
/// # Errors
/// Propagates the `listen` failure (e.g. the fd is not listening).
pub fn widen_listen_backlog(fd: RawFd, backlog: usize) -> io::Result<()> {
    extern "C" {
        fn listen(fd: i32, backlog: i32) -> i32;
    }
    // SAFETY: plain-integer syscall on a caller-owned fd; no pointers.
    let rc = unsafe { listen(fd, i32::try_from(backlog).unwrap_or(i32::MAX)) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// A cloneable doorbell: ring it from any thread to wake a poller that
/// registered [`Waker::raw_fd`] for read interest.
#[derive(Clone)]
pub struct Waker {
    inner: Arc<backend::WakeFd>,
}

impl Waker {
    /// A fresh doorbell.
    ///
    /// # Errors
    /// Propagates fd creation failure.
    pub fn new() -> io::Result<Waker> {
        Ok(Waker {
            inner: Arc::new(backend::WakeFd::new()?),
        })
    }

    /// The fd to register with a [`Poller`] (read interest).
    pub fn raw_fd(&self) -> RawFd {
        self.inner.raw_fd()
    }

    /// Makes the registered fd readable, pulling the poller out of
    /// `wait`. Never blocks; safe from any thread.
    pub fn wake(&self) {
        self.inner.wake();
    }

    /// Consumes pending wake signals so the fd stops reading ready.
    pub fn drain(&self) {
        self.inner.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    /// Waits up to `ms` for one event.
    fn wait_one(poller: &Poller, ms: i32) -> Option<Event> {
        let mut out = Vec::new();
        poller.wait(ms, 1, &mut out).unwrap();
        assert!(out.len() <= 1, "{out:?}");
        out.pop()
    }

    /// Waits up to five seconds for the next event.
    fn next_event(poller: &Poller) -> Option<Event> {
        (0..100).find_map(|_| wait_one(poller, 50))
    }

    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        (client, server_side)
    }

    #[test]
    fn poller_reports_readable_after_bytes_arrive() {
        let (mut client, mut server_side) = socket_pair();
        let poller = Poller::new().unwrap();
        poller
            .add(server_side.as_raw_fd(), Interest::READ, 7)
            .unwrap();
        assert!(wait_one(&poller, 0).is_none(), "no bytes yet");

        client.write_all(b"ping").unwrap();
        client.flush().unwrap();
        let ev = next_event(&poller).expect("readable after bytes arrive");
        assert!(ev.token == 7 && ev.readable, "{ev:?}");

        let mut buf = [0u8; 16];
        assert_eq!(server_side.read(&mut buf).unwrap(), 4);
    }

    #[test]
    fn one_shot_reports_once_until_rearmed() {
        let (mut client, server_side) = socket_pair();
        let poller = Poller::new().unwrap();
        let fd = server_side.as_raw_fd();
        poller.add(fd, Interest::READ, 5).unwrap();
        client.write_all(b"unread").unwrap();
        client.flush().unwrap();
        assert_eq!(next_event(&poller).map(|e| e.token), Some(5));

        // The bytes are still unread, yet the fd stays silent: whoever
        // took the event owns the fd until it re-arms it.
        assert!(
            wait_one(&poller, 100).is_none(),
            "disarmed after one report"
        );
        poller.rearm(fd, Interest::READ, 6).unwrap();
        let ev = next_event(&poller).expect("re-armed fd reports again");
        assert!(ev.token == 6 && ev.readable, "{ev:?}");
    }

    #[test]
    fn each_event_goes_to_exactly_one_waiter() {
        let (mut client, server_side) = socket_pair();
        let poller = std::sync::Arc::new(Poller::new().unwrap());
        poller
            .add(server_side.as_raw_fd(), Interest::READ, 9)
            .unwrap();
        let start = std::sync::Arc::new(std::sync::Barrier::new(5));
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let poller = std::sync::Arc::clone(&poller);
                let start = std::sync::Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    wait_one(&poller, 500).is_some()
                })
            })
            .collect();
        start.wait();
        client.write_all(b"x").unwrap();
        client.flush().unwrap();
        let woken = waiters
            .into_iter()
            .map(|w| w.join().unwrap())
            .filter(|&got| got)
            .count();
        assert_eq!(woken, 1, "one readiness event, one taker");
    }

    #[test]
    fn waker_pulls_wait_back_and_drains() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.add(waker.raw_fd(), Interest::READ, 42).unwrap();

        // Without a wake, a zero-timeout wait sees nothing.
        assert!(wait_one(&poller, 0).is_none());

        // A wake from another thread makes the fd readable.
        let w2 = waker.clone();
        let t = std::thread::spawn(move || w2.wake());
        let ev = next_event(&poller).expect("the wake is reported");
        t.join().unwrap();
        assert!(ev.token == 42 && ev.readable, "{ev:?}");

        // Draining clears it: re-armed, it stays quiet.
        waker.drain();
        poller.rearm(waker.raw_fd(), Interest::READ, 42).unwrap();
        assert!(
            wait_one(&poller, 0).is_none(),
            "drained waker must go quiet"
        );
    }

    #[test]
    fn widen_listen_backlog_accepts_listeners_and_rejects_streams() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        widen_listen_backlog(listener.as_raw_fd(), 4096).expect("relisten widens the backlog");

        // A connected stream is not listening; listen(2) must refuse.
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        widen_listen_backlog(client.as_raw_fd(), 4096)
            .expect_err("a connected socket cannot listen");
        drop(server_side);
    }

    #[test]
    fn write_interest_fires_on_a_fresh_socket() {
        let (_client, server_side) = socket_pair();
        let poller = Poller::new().unwrap();
        let fd = server_side.as_raw_fd();
        poller.add(fd, Interest::BOTH, 3).unwrap();
        let ev = next_event(&poller).expect("an empty send buffer is writable");
        assert!(ev.token == 3 && ev.writable, "{ev:?}");
        // Rearm to read-only and the writable report stops.
        poller.rearm(fd, Interest::READ, 3).unwrap();
        assert!(wait_one(&poller, 0).is_none());
        poller.remove(fd).unwrap();
    }
}

//! # surf-reactor
//!
//! A thin, dependency-free epoll readiness reactor: the foundation of the serving crate's
//! non-blocking event loop.
//!
//! The build environment has no route to a crates registry, so this is the workspace's own
//! minimal answer to `mio`: raw `epoll`/`eventfd` syscalls (declared directly against the
//! libc that `std` already links) wrapped in a small safe API —
//!
//! * [`Poller`] — an epoll instance: [`Poller::register`] file descriptors with a caller
//!   token and an interest set, [`Poller::wait`] for readiness [`Event`]s. Registration is
//!   **level-triggered**: an fd keeps reporting ready for as long as the condition holds,
//!   so a handler that does not exhaust a socket's buffer is woken again rather than
//!   silently stalled.
//! * [`Waker`] — a cross-thread wakeup channel built on `eventfd`: worker threads call
//!   [`Waker::wake`] to make a concurrent (or future) [`Poller::wait`] return, the event
//!   loop calls [`Waker::drain`] to re-arm it.
//!
//! ## The unsafe boundary
//!
//! This crate is one of the workspace's two vetted holes through `#![forbid(unsafe_code)]`
//! (the other is `surf-ml`'s AVX2 dispatch), registered in `analyze/unsafe_boundary.toml`,
//! and the only one that calls foreign code. Every `unsafe` block is a direct FFI call
//! into the platform libc with a written `// SAFETY:` argument, and nothing unsafe escapes
//! the module: the public API hands out no raw pointers, every file descriptor this crate
//! creates is owned by a type that closes it on `Drop`, and descriptors registered by the
//! caller are only passed *by value* to the kernel, never dereferenced. The
//! `surf-analyze check` gate (unsafe-boundary rule) enforces the SAFETY-comment adjacency
//! on every CI run.
//!
//! Linux-only, deliberately: `surf-serve`'s one transport is built on this crate, so the
//! serving subsystem runs wherever epoll does and nowhere else.
#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Raw syscall surface. `std` already links the platform libc, so declaring the five
/// symbols the reactor needs is enough — no external crate required.
mod ffi {
    /// `struct epoll_event` with the kernel's ABI. On x86-64 the kernel declares it
    /// packed (no padding between the 32-bit mask and the 64-bit payload); elsewhere it
    /// uses natural alignment.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;

    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EFD_CLOEXEC: i32 = 0o2000000;
    pub const EFD_NONBLOCK: i32 = 0o4000;

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn eventfd(initval: u32, flags: i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        pub fn close(fd: i32) -> i32;
    }
}

/// Largest number of readiness events one [`Poller::wait`] call can return. Level-triggered
/// registration makes this a latency knob, not a correctness one: descriptors still ready
/// beyond the batch are simply reported by the next call.
const WAIT_BATCH: usize = 256;

/// One readiness notification from [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// The descriptor is readable — or in an error/hang-up state a `read` will surface.
    pub readable: bool,
    /// The descriptor is writable — or in an error state a `write` will surface.
    pub writable: bool,
    /// The peer closed or the descriptor errored (`EPOLLHUP`/`EPOLLRDHUP`/`EPOLLERR`).
    pub hangup: bool,
}

/// An epoll instance: a set of registered file descriptors and a [`Poller::wait`] call
/// that blocks until at least one is ready (or a timeout, or a [`Waker`] fires).
///
/// The poller does not own the descriptors registered with it — callers keep their
/// `TcpListener`/`TcpStream` values and must [`Poller::deregister`] before closing them
/// (dropping a still-registered fd is not unsound, merely a source of stale events).
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Creates a new epoll instance (close-on-exec).
    ///
    /// # Errors
    ///
    /// The raw `epoll_create1` error, typically fd-limit exhaustion (`EMFILE`).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 reads no caller memory; it returns a fresh descriptor this
        // Poller now owns (closed in Drop) or -1 with errno set.
        let epfd = unsafe { ffi::epoll_create1(ffi::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn interest_bits(readable: bool, writable: bool) -> u32 {
        let mut bits = ffi::EPOLLRDHUP;
        if readable {
            bits |= ffi::EPOLLIN;
        }
        if writable {
            bits |= ffi::EPOLLOUT;
        }
        bits
    }

    fn ctl(&self, op: i32, fd: RawFd, event: Option<&mut ffi::EpollEvent>) -> io::Result<()> {
        let ptr = event.map_or(std::ptr::null_mut(), |e| e as *mut ffi::EpollEvent);
        // SAFETY: `ptr` is either null (only for EPOLL_CTL_DEL, which ignores it) or points
        // at a live, exclusively borrowed EpollEvent; the kernel copies it before the call
        // returns and retains no reference. `fd` is passed by value, never dereferenced.
        let rc = unsafe { ffi::epoll_ctl(self.epfd, op, fd, ptr) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    /// Registers a descriptor under `token` with the given interest set (level-triggered;
    /// peer hang-up is always watched).
    ///
    /// # Errors
    ///
    /// The raw `epoll_ctl` error — most notably `EEXIST` when the fd is already
    /// registered (use [`Poller::modify`]) and `EBADF` when it is closed.
    pub fn register(
        &self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        let mut event = ffi::EpollEvent {
            events: Self::interest_bits(readable, writable),
            data: token,
        };
        self.ctl(ffi::EPOLL_CTL_ADD, fd, Some(&mut event))
    }

    /// Replaces the interest set (and token) of an already registered descriptor.
    ///
    /// # Errors
    ///
    /// The raw `epoll_ctl` error — `ENOENT` when the fd was never registered, `EBADF`
    /// when it is closed.
    pub fn modify(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        let mut event = ffi::EpollEvent {
            events: Self::interest_bits(readable, writable),
            data: token,
        };
        self.ctl(ffi::EPOLL_CTL_MOD, fd, Some(&mut event))
    }

    /// Removes a descriptor from the interest set.
    ///
    /// # Errors
    ///
    /// The raw `epoll_ctl` error — `ENOENT` when the fd was not registered.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(ffi::EPOLL_CTL_DEL, fd, None)
    }

    /// Blocks until at least one registered descriptor is ready, the timeout elapses
    /// (`Ok` with an empty `events`), or a registered [`Waker`] fires. Ready events are
    /// appended to `events` after clearing it; at most `WAIT_BATCH` per call.
    /// `None` blocks indefinitely. Interrupted waits (`EINTR`) are retried internally.
    ///
    /// # Errors
    ///
    /// The raw `epoll_wait` error (after `EINTR` retry), e.g. `EBADF` if the poller's own
    /// descriptor was externally closed.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(d) => {
                let ms = d.as_millis().min(i32::MAX as u128) as i32;
                // Round sub-millisecond timeouts up so a short wait is a wait, not a spin.
                if ms == 0 && !d.is_zero() {
                    1
                } else {
                    ms
                }
            }
        };
        let mut raw = [ffi::EpollEvent { events: 0, data: 0 }; WAIT_BATCH];
        loop {
            // SAFETY: `raw` is a live, properly initialized array of WAIT_BATCH
            // epoll_event slots on this stack frame; the kernel writes at most
            // WAIT_BATCH entries and we read back only the `n` it reports.
            let n = unsafe {
                ffi::epoll_wait(self.epfd, raw.as_mut_ptr(), WAIT_BATCH as i32, timeout_ms)
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(err);
            }
            for slot in raw.iter().take(n as usize) {
                // Field reads copy out of the (possibly packed) struct by value.
                let bits = slot.events;
                let hangup = bits & (ffi::EPOLLHUP | ffi::EPOLLRDHUP | ffi::EPOLLERR) != 0;
                events.push(Event {
                    token: slot.data,
                    // Error/hang-up states are folded into readability/writability so a
                    // state machine that only checks those still observes the failure via
                    // its next read()/write() instead of spinning on a dead socket.
                    readable: bits
                        & (ffi::EPOLLIN | ffi::EPOLLRDHUP | ffi::EPOLLHUP | ffi::EPOLLERR)
                        != 0,
                    writable: bits & (ffi::EPOLLOUT | ffi::EPOLLERR | ffi::EPOLLHUP) != 0,
                    hangup,
                });
            }
            return Ok(n as usize);
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` is the descriptor epoll_create1 handed this Poller; it is closed
        // exactly once (Drop runs once) and never exposed for the caller to close first.
        let _ = unsafe { ffi::close(self.epfd) };
    }
}

/// A cross-thread wakeup channel for a [`Poller`], built on `eventfd`.
///
/// Register [`Waker::fd`] with the poller under a reserved token; any thread may then call
/// [`Waker::wake`] to make the current (or next) [`Poller::wait`] return with that token.
/// The event loop must call [`Waker::drain`] when it sees the token — the registration is
/// level-triggered, so an undrained waker would wake every subsequent wait.
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    /// Creates a new waker (non-blocking, close-on-exec).
    ///
    /// # Errors
    ///
    /// The raw `eventfd` error, typically fd-limit exhaustion (`EMFILE`).
    pub fn new() -> io::Result<Waker> {
        // SAFETY: eventfd reads no caller memory; it returns a fresh descriptor this
        // Waker now owns (closed in Drop) or -1 with errno set.
        let fd = unsafe { ffi::eventfd(0, ffi::EFD_CLOEXEC | ffi::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Waker { fd })
    }

    /// The descriptor to register with the poller (readable whenever a wake is pending).
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Signals the poller. Wakes the in-progress `wait` if one is blocked, otherwise makes
    /// the next `wait` return immediately. Saturation (`EAGAIN` on a counter already at
    /// max) is success: a wake is by definition pending.
    ///
    /// # Errors
    ///
    /// The raw `write` error for anything other than saturation — e.g. `EBADF` if the
    /// descriptor was externally closed.
    pub fn wake(&self) -> io::Result<()> {
        let one: u64 = 1;
        // SAFETY: the buffer points at 8 live bytes (a u64 on this stack frame) for the
        // duration of the call; eventfd writes consume exactly 8 bytes.
        let rc = unsafe { ffi::write(self.fd, (&one as *const u64).cast(), 8) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::WouldBlock {
                return Ok(());
            }
            return Err(err);
        }
        Ok(())
    }

    /// Consumes all pending wakes, re-arming the waker. Call on every wait that reports the
    /// waker's token. A drain with no pending wake is a harmless no-op (the fd is
    /// non-blocking).
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: the buffer is 8 live bytes on this stack frame; an eventfd read fills
        // exactly 8 bytes (or fails with EAGAIN when no wake is pending, which is fine).
        let _ = unsafe { ffi::read(self.fd, buf.as_mut_ptr(), 8) };
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: `fd` is the descriptor eventfd handed this Waker; it is closed exactly
        // once, and `fd()` only lends the value for registration, never ownership.
        let _ = unsafe { ffi::close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    #[test]
    fn timeout_expires_with_no_events() {
        let poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let started = Instant::now();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(30)))
            .unwrap();
        assert_eq!(n, 0);
        assert!(events.is_empty());
        assert!(started.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn listener_becomes_readable_on_connect() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller
            .register(listener.as_raw_fd(), 7, true, false)
            .unwrap();

        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert_eq!(n, 0, "no pending connection yet");

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        assert!(!events[0].hangup);
        poller.deregister(listener.as_raw_fd()).unwrap();
    }

    #[test]
    fn level_triggered_events_repeat_until_consumed() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        client.write_all(b"ping").unwrap();

        poller
            .register(server_side.as_raw_fd(), 1, true, false)
            .unwrap();
        let mut events = Vec::new();
        for _ in 0..2 {
            // The 4 bytes are never read, so both waits must report readable.
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(n, 1);
            assert!(events[0].readable);
        }
    }

    #[test]
    fn modify_switches_interest_sets() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        client.write_all(b"x").unwrap();

        // Write-only interest: the pending readable byte must not surface.
        poller
            .register(server_side.as_raw_fd(), 3, false, true)
            .unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().all(|e| e.token == 3 && e.writable));

        poller
            .modify(server_side.as_raw_fd(), 4, true, false)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 4);
        assert!(events[0].readable);
    }

    #[test]
    fn peer_close_reports_hangup() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        poller
            .register(server_side.as_raw_fd(), 9, true, false)
            .unwrap();
        drop(client);
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events[0].hangup);
        assert!(events[0].readable, "EOF is surfaced through read()");
    }

    #[test]
    fn waker_wakes_a_blocked_wait_from_another_thread() {
        let poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller.register(waker.fd(), u64::MAX, true, false).unwrap();

        let remote = std::sync::Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            remote.wake().unwrap();
        });

        let mut events = Vec::new();
        let started = Instant::now();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        handle.join().unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, u64::MAX);
        assert!(started.elapsed() < Duration::from_secs(5));

        // Undrained, the level-triggered waker keeps firing; drained, it goes quiet.
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert_eq!(events.len(), 1, "undrained waker stays ready");
        waker.drain();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(30)))
            .unwrap();
        assert_eq!(n, 0, "drained waker is re-armed");
    }

    #[test]
    fn repeated_wakes_coalesce_into_one_drain() {
        let waker = Waker::new().unwrap();
        for _ in 0..1000 {
            waker.wake().unwrap();
        }
        waker.drain();
        let poller = Poller::new().unwrap();
        poller.register(waker.fd(), 0, true, false).unwrap();
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(30)))
            .unwrap();
        assert_eq!(n, 0, "one drain consumes any number of wakes");
    }
}

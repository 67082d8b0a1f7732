//! # skyferry-reactor
//!
//! A minimal readiness reactor over `ppoll(2)` — the multiplexing core
//! of the sharded `skyferryd` event loops and the many-connection load
//! generator. Vendored for the same reason `crates/bufs` exists: the
//! workspace builds offline with zero external dependencies, so the
//! usual `mio`/`polling` crates are out and the ~30 lines of FFI they
//! wrap come in-tree instead.
//!
//! The design is deliberately the smallest thing that serves the
//! serving layer:
//!
//! * [`Poller`] — an edge-agnostic (level-triggered, like `poll(2)`
//!   itself) readiness set: register a raw fd with a caller-chosen
//!   [`Token`] and an [`Interest`], then [`Poller::wait`] for events.
//! * [`Event`] — `(token, readable, writable, hangup)`, the complete
//!   verdict for one fd.
//! * [`Waker`] — a `UnixStream` pair whose read end lives in the
//!   poller; any thread can [`Waker::wake`] the loop out of `wait`
//!   without touching the reactor itself. This is how shard inboxes,
//!   shutdown and cross-shard completions interrupt a blocked loop.
//!
//! This crate is the one place in the workspace allowed to contain
//! `unsafe`: a single FFI declaration of `ppoll` and its `repr(C)`
//! argument structs, all annotated with the invariants they uphold.
//! Everything above the syscall boundary is safe Rust over
//! `std::os::fd` types. It is `ppoll` rather than `poll` because the
//! timeout is a nanosecond `timespec`: `poll`'s millisecond timeout
//! rounds a 100 µs wait up to a whole millisecond, which turns a
//! fixed-rate send schedule into bursts.

use std::io;
use std::os::fd::RawFd;
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Opaque per-registration identifier, echoed back on every [`Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Token(pub u64);

/// What readiness a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd has bytes to read (or a peer hangup).
    pub readable: bool,
    /// Wake when the fd can accept writes without blocking.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest — a connection with a backed-up write
    /// buffer waiting for the socket to drain.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One fd's readiness verdict from a [`Poller::wait`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: Token,
    /// Bytes (or EOF) are available to read.
    pub readable: bool,
    /// The fd accepts writes without blocking.
    pub writable: bool,
    /// Peer hangup / error (`POLLHUP`/`POLLERR`/`POLLNVAL`): the
    /// connection is done regardless of the interest set.
    pub hangup: bool,
}

// `poll(2)`/`ppoll(2)` constants, straight from poll.h on every Unix this
// workspace targets.
const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

/// The `struct pollfd` of `ppoll(2)`.
///
/// SAFETY: the layout (`int fd; short events; short revents;`) is fixed
/// by POSIX and `repr(C)` pins the Rust side to it; the kernel only
/// ever reads `fd`/`events` and writes `revents`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

/// The `struct timespec` of `ppoll(2)`.
///
/// SAFETY: `time_t tv_sec; long tv_nsec;` — both 64-bit on the 64-bit
/// linux targets this workspace builds for; `repr(C)` pins the layout
/// and the kernel only reads it.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    // SAFETY: the glibc prototype — `int ppoll(struct pollfd *fds,
    // nfds_t nfds, const struct timespec *tmo_p, const sigset_t
    // *sigmask)` with `nfds_t` an unsigned long on linux. A null
    // `tmo_p` blocks indefinitely; a null `sigmask` leaves the signal
    // mask alone, which makes it `poll` with a finer timeout. libc is
    // already linked by std.
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        tmo_p: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Level-triggered readiness over a set of registered fds.
///
/// Registration order is preserved, so two `wait` calls over the same
/// kernel state report events in the same order — the event loops built
/// on this stay deterministic in everything they control.
#[derive(Debug, Default)]
pub struct Poller {
    fds: Vec<PollFd>,
    tokens: Vec<Token>,
}

impl Poller {
    /// An empty poller.
    pub fn new() -> Poller {
        Poller::default()
    }

    /// Number of registered fds.
    pub fn len(&self) -> usize {
        self.fds.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.fds.is_empty()
    }

    /// Register `fd` under `token`. The fd must outlive the
    /// registration (deregister before closing); `token` need not be
    /// unique, but event attribution is by token, so callers want it
    /// unique in practice.
    pub fn register(&mut self, fd: RawFd, token: Token, interest: Interest) {
        self.fds.push(PollFd {
            fd,
            events: interest_bits(interest),
            revents: 0,
        });
        self.tokens.push(token);
    }

    /// Change the interest set of the registration under `token`.
    /// Unknown tokens are ignored (the connection raced a close).
    pub fn modify(&mut self, token: Token, interest: Interest) {
        if let Some(i) = self.tokens.iter().position(|t| *t == token) {
            self.fds[i].events = interest_bits(interest);
        }
    }

    /// Remove the registration under `token` (a no-op for unknown
    /// tokens, so close paths need not track registration state).
    pub fn deregister(&mut self, token: Token) {
        if let Some(i) = self.tokens.iter().position(|t| *t == token) {
            self.fds.remove(i);
            self.tokens.remove(i);
        }
    }

    /// Block until at least one registered fd is ready (or `timeout`
    /// elapses, to the nanosecond; `None` blocks indefinitely), then
    /// collect every ready fd's verdict into `events` (cleared first).
    /// Returns the number of events delivered; `0` means the timeout
    /// fired. `EINTR` retries internally.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        if self.fds.is_empty() {
            // ppoll(NULL, 0, t) is a sleep; model it without the syscall.
            return Ok(0);
        }
        let timespec = timeout.map(|d| Timespec {
            tv_sec: d.as_secs().min(i64::MAX as u64) as i64,
            tv_nsec: i64::from(d.subsec_nanos()),
        });
        let tmo_p = timespec
            .as_ref()
            .map_or(std::ptr::null(), |t| t as *const Timespec);
        loop {
            // `tmo_p` is null or points at `timespec`, alive on this
            // frame for the whole call.
            // SAFETY: `fds` is a live, exclusively-borrowed Vec of
            // `repr(C)` PollFd; the pointer/length pair is exactly its
            // initialized contents, and ppoll only writes `revents`.
            let n = unsafe {
                ppoll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as u64,
                    tmo_p,
                    std::ptr::null(),
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(e);
            }
            break;
        }
        for (pfd, token) in self.fds.iter().zip(&self.tokens) {
            let r = pfd.revents;
            if r == 0 {
                continue;
            }
            events.push(Event {
                token: *token,
                readable: r & POLLIN != 0,
                writable: r & POLLOUT != 0,
                hangup: r & (POLLHUP | POLLERR | POLLNVAL) != 0,
            });
        }
        Ok(events.len())
    }
}

fn interest_bits(interest: Interest) -> i16 {
    let mut bits = 0;
    if interest.readable {
        bits |= POLLIN;
    }
    if interest.writable {
        bits |= POLLOUT;
    }
    bits
}

/// Cross-thread wakeup for a poller-blocked event loop.
///
/// The read end registers with the loop's [`Poller`]; any holder of a
/// clone of the [`Waker`] can interrupt `wait` from another thread.
/// Wakes coalesce: a loop that drains after waking observes all the
/// work that triggered any number of wakes.
#[derive(Debug)]
pub struct Waker {
    write_half: UnixStream,
}

impl Clone for Waker {
    fn clone(&self) -> Waker {
        Waker {
            write_half: self
                .write_half
                .try_clone()
                .expect("waker fd clone (fd table exhausted)"),
        }
    }
}

/// The loop-owned read end of a waker pair.
#[derive(Debug)]
pub struct WakeReceiver {
    read_half: UnixStream,
}

impl Waker {
    /// A connected waker pair; register [`WakeReceiver::fd`] readable
    /// in the loop's poller.
    pub fn pair() -> io::Result<(Waker, WakeReceiver)> {
        let (read_half, write_half) = UnixStream::pair()?;
        read_half.set_nonblocking(true)?;
        write_half.set_nonblocking(true)?;
        Ok((Waker { write_half }, WakeReceiver { read_half }))
    }

    /// Interrupt the paired loop's `wait`. Never blocks: if the pipe is
    /// full the loop has unread wakes pending already and this one
    /// coalesces with them.
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&self.write_half).write(&[1u8]);
    }
}

impl WakeReceiver {
    /// The fd to register (readable) in the loop's poller.
    pub fn fd(&self) -> RawFd {
        use std::os::fd::AsRawFd;
        self.read_half.as_raw_fd()
    }

    /// Consume pending wake bytes so a level-triggered poller goes
    /// quiet again. Call once per loop iteration after draining work.
    pub fn drain(&self) {
        use std::io::Read;
        let mut sink = [0u8; 64];
        loop {
            match (&self.read_half).read(&mut sink) {
                Ok(0) => break, // peer gone: nothing more will arrive
                Ok(_) => continue,
                Err(_) => break, // WouldBlock: drained
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        client.set_nonblocking(true).expect("nonblocking");
        server.set_nonblocking(true).expect("nonblocking");
        (client, server)
    }

    #[test]
    fn readable_fires_only_after_bytes_arrive() {
        let (client, mut server) = tcp_pair();
        let mut poller = Poller::new();
        poller.register(client.as_raw_fd(), Token(7), Interest::READ);
        let mut events = Vec::new();

        let n = poller
            .wait(&mut events, Some(Duration::ZERO))
            .expect("poll");
        assert_eq!(n, 0, "no bytes yet");

        server.write_all(b"ping").expect("write");
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(1)))
            .expect("poll");
        assert_eq!(n, 1);
        assert_eq!(events[0].token, Token(7));
        assert!(events[0].readable);
        assert!(!events[0].hangup);

        let mut buf = [0u8; 16];
        let got = (&client).read(&mut buf).expect("read");
        assert_eq!(&buf[..got], b"ping");
        // Level-triggered: drained fd goes quiet again.
        let n = poller
            .wait(&mut events, Some(Duration::ZERO))
            .expect("poll");
        assert_eq!(n, 0);
    }

    // A sub-millisecond timeout must not round up to poll(2)'s 1 ms
    // granularity. Best of five, so one scheduler hiccup on a loaded
    // host cannot fail it; every try would take ≥ 1 ms under poll(2).
    #[test]
    fn sub_millisecond_timeout_is_honoured() {
        let (client, _server) = tcp_pair();
        let mut poller = Poller::new();
        poller.register(client.as_raw_fd(), Token(0), Interest::READ);
        let mut events = Vec::new();
        let best = (0..5)
            .map(|_| {
                let t = std::time::Instant::now(); // lint:allow-line(wall-clock): times a real kernel timeout
                let n = poller
                    .wait(&mut events, Some(Duration::from_micros(200)))
                    .expect("poll");
                assert_eq!(n, 0, "nothing to read: the timeout fires");
                t.elapsed()
            })
            .min()
            .expect("five tries");
        assert!(
            best >= Duration::from_micros(200),
            "returned early: {best:?}"
        );
        assert!(best < Duration::from_micros(700), "rounded up: {best:?}");
    }

    #[test]
    fn writable_and_modify_round_trip() {
        let (client, _server) = tcp_pair();
        let mut poller = Poller::new();
        poller.register(client.as_raw_fd(), Token(1), Interest::READ);
        let mut events = Vec::new();
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::ZERO))
                .expect("poll"),
            0
        );

        // An empty socket buffer is immediately writable.
        poller.modify(Token(1), Interest::READ_WRITE);
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(1)))
            .expect("poll");
        assert_eq!(n, 1);
        assert!(events[0].writable);
        assert!(!events[0].readable);

        poller.deregister(Token(1));
        assert!(poller.is_empty());
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::ZERO))
                .expect("poll"),
            0
        );
    }

    #[test]
    fn hangup_reported_on_peer_close() {
        let (client, server) = tcp_pair();
        let mut poller = Poller::new();
        poller.register(client.as_raw_fd(), Token(3), Interest::READ);
        drop(server);
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(1)))
            .expect("poll");
        assert_eq!(n, 1);
        // Linux reports EOF as POLLIN (read returns 0) and usually also
        // POLLHUP for TCP; either way the loop must see *something*.
        assert!(events[0].readable || events[0].hangup);
    }

    #[test]
    fn waker_interrupts_wait_from_another_thread() {
        let (waker, receiver) = Waker::pair().expect("pair");
        let mut poller = Poller::new();
        poller.register(receiver.fd(), Token(0), Interest::READ);

        let remote = waker.clone();
        let t = std::thread::spawn(move || remote.wake());
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("poll");
        t.join().expect("waker thread");
        assert_eq!(n, 1);
        assert_eq!(events[0].token, Token(0));
        assert!(events[0].readable);

        receiver.drain();
        let n = poller
            .wait(&mut events, Some(Duration::ZERO))
            .expect("poll");
        assert_eq!(n, 0, "drained waker goes quiet");
    }

    #[test]
    fn wakes_coalesce_without_blocking() {
        let (waker, receiver) = Waker::pair().expect("pair");
        // Far more wakes than the pipe buffers: wake never blocks.
        for _ in 0..1_000_000 {
            waker.wake();
        }
        let mut poller = Poller::new();
        poller.register(receiver.fd(), Token(0), Interest::READ);
        let mut events = Vec::new();
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::from_secs(1)))
                .expect("poll"),
            1
        );
        receiver.drain();
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::ZERO))
                .expect("poll"),
            0
        );
    }

    #[test]
    fn multiple_registrations_attribute_by_token() {
        let (c1, mut s1) = tcp_pair();
        let (c2, mut s2) = tcp_pair();
        let mut poller = Poller::new();
        poller.register(c1.as_raw_fd(), Token(10), Interest::READ);
        poller.register(c2.as_raw_fd(), Token(20), Interest::READ);
        s2.write_all(b"x").expect("write");
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(1)))
            .expect("poll");
        assert_eq!(n, 1);
        assert_eq!(events[0].token, Token(20));
        s1.write_all(b"y").expect("write");
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(1)))
            .expect("poll");
        assert_eq!(n, 2, "both ready, registration order preserved");
        assert_eq!(events[0].token, Token(10));
        assert_eq!(events[1].token, Token(20));
    }
}

//! The skyferryd load client: one process, at most two connections.
//!
//! One thread drives every connection with non-blocking sockets.
//!
//! * **Closed loop**: each connection keeps a fixed window of pipelined
//!   requests in flight. Throughput is bounded by the server, not by
//!   round trips.
//! * **Open loop**: the thread sends request `i` at the scheduled
//!   instant `t0 + i / rate`, round-robin over the connections, and
//!   times each reply from that *scheduled* instant, so a stall is
//!   charged to every request it delays. Between events it blocks in
//!   `ppoll` until the next scheduled send or the next reply (see
//!   [`crate::sys`]). How late the generator itself ran is reported as
//!   `gen.late_p99_us`.
//!
//! Every reply is recorded as `(index, d_star, utility)` and checked
//! against the in-process reference after the timed phases (see
//! [`crate::gen`]), so the reference solves never compete with the
//! daemon for the two cores.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

use bytes::Buf;

use skyferry_stats::json::{self, Json};
use skyferry_trace as trace;
use skyferry_trace::clock::monotonic_ns;

use crate::gen::{Request, Workload};
use crate::sys;

/// Wire codec of one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    Ndjson,
    Bin1,
}

/// A request on the wire, awaiting its reply.
#[derive(Debug, Clone, Copy)]
struct Pending {
    idx: u64,
    sched_ns: u64,
    sent_ns: u64,
}

/// Longest wait for a reply before the closed loop re-checks its state.
const REPLY_TIMEOUT_NS: u64 = 100_000_000;

/// One parsed reply.
enum Reply {
    Decision {
        d: f64,
        u: f64,
        cache_hit: bool,
        policy_hit: bool,
    },
    /// An error object (bad request, overloaded, shutting down) or any
    /// other non-decision frame where a decision was due.
    Other(String),
}

/// What a phase observed.
#[derive(Default)]
pub struct Record {
    /// `(index, d_star, utility)` of every decision reply.
    pub replies: Vec<(u64, f64, f64)>,
    /// Replies that were errors rather than decisions.
    pub errors: u64,
    /// Requests sent.
    pub sent: u64,
    /// Replies flagged as served by the compiled table / the LRU.
    pub policy_hits: u64,
    pub cache_hits: u64,
    /// Arrival time of every reply (closed loop: batch wall times).
    pub done_ns: Vec<u64>,
    /// Open loop, per reply: scheduled send instant, scheduled send →
    /// reply (µs), and scheduled → actual send (µs).
    pub open_samples: Vec<(u64, f64, f64)>,
    /// First error text, for the log.
    pub first_error: Option<String>,
}

impl Record {
    fn take(&mut self, p: Pending, reply: Reply, recv_ns: u64, open: bool, traced: bool) {
        match reply {
            Reply::Decision {
                d,
                u,
                cache_hit,
                policy_hit,
            } => {
                self.replies.push((p.idx, d, u));
                self.cache_hits += cache_hit as u64;
                self.policy_hits += policy_hit as u64;
            }
            Reply::Other(text) => {
                self.errors += 1;
                self.first_error.get_or_insert(text);
            }
        }
        self.done_ns.push(recv_ns);
        if open {
            self.open_samples.push((
                p.sched_ns,
                recv_ns.saturating_sub(p.sched_ns) as f64 / 1e3,
                p.sent_ns.saturating_sub(p.sched_ns) as f64 / 1e3,
            ));
        }
        if traced {
            trace::manual_span("client.request").finish_tree(
                p.sched_ns,
                recv_ns,
                Vec::new(),
                &[
                    ("client.send_wait", p.sched_ns, p.sent_ns),
                    ("client.wire", p.sent_ns, recv_ns),
                ],
            );
        }
    }

    pub fn merge(&mut self, other: Record) {
        self.replies.extend(other.replies);
        self.errors += other.errors;
        self.sent += other.sent;
        self.policy_hits += other.policy_hits;
        self.cache_hits += other.cache_hits;
        self.done_ns.extend(other.done_ns);
        self.open_samples.extend(other.open_samples);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    /// Requests that never got a reply.
    pub fn missing(&self) -> u64 {
        self.sent
            .saturating_sub(self.replies.len() as u64 + self.errors)
    }
}

/// Extract the number after `key` in a flat JSON object line.
fn number_after(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].parse().ok()
}

fn parse_ndjson_reply(line: &[u8]) -> Reply {
    let Ok(text) = std::str::from_utf8(line) else {
        return Reply::Other("reply is not UTF-8".into());
    };
    if text.starts_with("{\"d_star\":") {
        if let (Some(d), Some(u)) = (
            number_after(text, "\"d_star\":"),
            number_after(text, "\"utility\":"),
        ) {
            return Reply::Decision {
                d,
                u,
                cache_hit: text.contains("\"cache_hit\":true"),
                policy_hit: text.contains("\"policy_hit\":true"),
            };
        }
    }
    Reply::Other(text.to_string())
}

fn parse_bin1_reply(payload: &[u8]) -> Reply {
    match payload.first() {
        Some(0) if payload.len() == 34 => {
            let mut fields = &payload[1..];
            Reply::Decision {
                d: fields.get_f64_le(),
                u: fields.get_f64_le(),
                cache_hit: payload[25] & 2 != 0,
                policy_hit: payload[25] & 4 != 0,
            }
        }
        Some(1) => Reply::Other(String::from_utf8_lossy(&payload[1..]).into_owned()),
        _ => Reply::Other(format!("malformed bin1 reply of {} bytes", payload.len())),
    }
}

/// One client connection with its own send and receive buffers.
pub struct Conn {
    stream: TcpStream,
    codec: Codec,
    out: Vec<u8>,
    out_pos: usize,
    inb: Vec<u8>,
    in_pos: usize,
    scratch: Box<[u8]>,
    inflight: VecDeque<Pending>,
}

/// What one read returned.
enum Fill {
    Data,
    /// Non-blocking: nothing to read yet. Blocking: the read timed out.
    Empty,
    Eof,
}

impl Conn {
    /// Connect and, for `bin1`, negotiate the codec.
    pub fn connect(addr: &str, codec: Codec) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let mut c = Conn {
            stream,
            codec: Codec::Ndjson,
            out: Vec::with_capacity(1 << 16),
            out_pos: 0,
            inb: Vec::with_capacity(1 << 16),
            in_pos: 0,
            scratch: vec![0; 1 << 16].into_boxed_slice(),
            inflight: VecDeque::new(),
        };
        if codec == Codec::Bin1 {
            let ack = c.control("{\"cmd\":\"codec\",\"v\":\"bin1\"}")?;
            if !ack.contains("\"ok\"") {
                return Err(std::io::Error::other(format!(
                    "codec negotiation refused: {ack}"
                )));
            }
            c.codec = Codec::Bin1;
        }
        Ok(c)
    }

    /// Send one control line on an idle NDJSON connection and return the
    /// reply line.
    pub fn control(&mut self, line: &str) -> std::io::Result<String> {
        assert!(self.inflight.is_empty() && self.codec == Codec::Ndjson);
        self.stream.set_nonblocking(false)?;
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        loop {
            if let Some(nl) = self.inb[self.in_pos..].iter().position(|&b| b == b'\n') {
                let text =
                    String::from_utf8_lossy(&self.inb[self.in_pos..self.in_pos + nl]).into_owned();
                self.in_pos += nl + 1;
                return Ok(text);
            }
            match self.fill()? {
                Fill::Data => {}
                Fill::Empty => return Err(ErrorKind::TimedOut.into()),
                Fill::Eof => return Err(ErrorKind::UnexpectedEof.into()),
            }
        }
    }

    /// Append what the socket holds to the receive buffer.
    fn fill(&mut self) -> std::io::Result<Fill> {
        if self.in_pos > 0 && self.in_pos * 2 >= self.inb.len() {
            self.inb.drain(..self.in_pos);
            self.in_pos = 0;
        }
        match self.stream.read(&mut self.scratch) {
            Ok(0) => Ok(Fill::Eof),
            Ok(n) => {
                self.inb.extend_from_slice(&self.scratch[..n]);
                Ok(Fill::Data)
            }
            Err(e) => match e.kind() {
                ErrorKind::WouldBlock | ErrorKind::Interrupted => Ok(Fill::Empty),
                _ => Err(e),
            },
        }
    }

    fn queue(&mut self, r: &Request, p: Pending) {
        match self.codec {
            Codec::Ndjson => r.ndjson(&mut self.out),
            Codec::Bin1 => r.bin1(&mut self.out),
        }
        self.inflight.push_back(p);
    }

    /// Write buffered requests; in non-blocking mode stops at would-block.
    fn flush(&mut self) -> std::io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(())
    }

    /// Parse every complete reply buffered, handing each to `rec`.
    /// Returns how many were parsed.
    fn drain_replies(&mut self, rec: &mut Record, open: bool, traced: bool) -> usize {
        let mut n = 0;
        loop {
            let avail = &self.inb[self.in_pos..];
            let (reply, used) = match self.codec {
                Codec::Ndjson => match avail.iter().position(|&b| b == b'\n') {
                    Some(nl) => (parse_ndjson_reply(&avail[..nl]), nl + 1),
                    None => break,
                },
                Codec::Bin1 => {
                    if avail.len() < 4 {
                        break;
                    }
                    let len = (&avail[..4]).get_u32_le() as usize;
                    if avail.len() < 4 + len {
                        break;
                    }
                    (parse_bin1_reply(&avail[4..4 + len]), 4 + len)
                }
            };
            self.in_pos += used;
            let now = monotonic_ns();
            match self.inflight.pop_front() {
                Some(p) => rec.take(p, reply, now, open, traced),
                None => {
                    rec.errors += 1;
                    rec.first_error
                        .get_or_insert_with(|| "reply without a request".into());
                }
            }
            n += 1;
        }
        n
    }
}

/// Closed loop over all `conns` from this one thread: each connection
/// keeps `window` requests in flight until `deadline_ns`, then waits up
/// to `drain_ns` for the last replies. Request `k` of the phase has
/// index `base + k`.
pub fn closed_loop(
    conns: &mut [Conn],
    wl: &Workload,
    base: u64,
    window: usize,
    deadline_ns: u64,
    drain_ns: u64,
    traced: bool,
) -> std::io::Result<Record> {
    let mut rec = Record::default();
    for c in conns.iter_mut() {
        c.stream.set_nonblocking(true)?;
    }
    let mut k = 0u64;
    loop {
        let now = monotonic_ns();
        let mut progress = false;
        for c in conns.iter_mut() {
            if now < deadline_ns {
                while c.inflight.len() < window {
                    let idx = base + k;
                    k += 1;
                    let p = Pending {
                        idx,
                        sched_ns: now,
                        sent_ns: now,
                    };
                    c.queue(&wl.request(idx), p);
                    rec.sent += 1;
                }
            }
            if c.out_pos < c.out.len() {
                c.flush()?;
            }
            if let Fill::Eof = c.fill()? {
                return Err(ErrorKind::UnexpectedEof.into());
            }
            if c.drain_replies(&mut rec, false, traced) > 0 {
                progress = true;
            }
        }
        let drained = conns.iter().all(|c| c.inflight.is_empty());
        if now >= deadline_ns && (drained || now >= deadline_ns + drain_ns) {
            break;
        }
        if !progress {
            sys::wait(&poll_set(conns), REPLY_TIMEOUT_NS)?;
        }
    }
    finish(conns)?;
    Ok(rec)
}

/// Open loop over all `conns` from this one thread: `total` requests at
/// `rate` req/s, then up to `drain_ns` for the last replies.
pub fn open_loop(
    conns: &mut [Conn],
    wl: &Workload,
    base: u64,
    rate: f64,
    total: u64,
    drain_ns: u64,
    traced: bool,
) -> std::io::Result<Record> {
    let mut rec = Record::default();
    sys::tight_timer_slack()?;
    for c in conns.iter_mut() {
        c.stream.set_nonblocking(true)?;
    }
    let interval_ns = 1e9 / rate;
    let t0 = monotonic_ns() + 1_000_000;
    let sched = |i: u64| t0 + (i as f64 * interval_ns) as u64;
    let mut next = 0u64;
    let mut drain_deadline = None;
    loop {
        let now = monotonic_ns();
        let mut progress = false;
        while next < total && sched(next) <= now {
            let idx = base + next;
            let c = &mut conns[(next % conns.len() as u64) as usize];
            c.queue(
                &wl.request(idx),
                Pending {
                    idx,
                    sched_ns: sched(next),
                    sent_ns: now,
                },
            );
            rec.sent += 1;
            next += 1;
            progress = true;
        }
        for c in conns.iter_mut() {
            if c.out_pos < c.out.len() {
                c.flush()?;
            }
            if let Fill::Eof = c.fill()? {
                return Err(ErrorKind::UnexpectedEof.into());
            }
            if c.drain_replies(&mut rec, true, traced) > 0 {
                progress = true;
            }
        }
        let now = monotonic_ns();
        let wake_at = if next < total {
            sched(next)
        } else {
            if conns.iter().all(|c| c.inflight.is_empty()) {
                break;
            }
            let deadline = *drain_deadline.get_or_insert(now + drain_ns);
            if now > deadline {
                break;
            }
            deadline
        };
        if !progress && wake_at > now {
            sys::wait(&poll_set(conns), wake_at - now)?;
        }
    }
    finish(conns)?;
    Ok(rec)
}

/// Each connection's socket, and whether it has output waiting.
fn poll_set(conns: &[Conn]) -> Vec<(RawFd, bool)> {
    conns
        .iter()
        .map(|c| (c.stream.as_raw_fd(), c.out_pos < c.out.len()))
        .collect()
}

/// Forget replies that never came and return the sockets to blocking
/// mode for control requests.
fn finish(conns: &mut [Conn]) -> std::io::Result<()> {
    for c in conns.iter_mut() {
        c.inflight.clear();
        c.out.clear();
        c.out_pos = 0;
        c.stream.set_nonblocking(false)?;
    }
    Ok(())
}

/// A `{"cmd":"stats"}` snapshot, parsed.
pub fn stats(conn: &mut Conn) -> std::io::Result<Json> {
    let line = conn.control("{\"cmd\":\"stats\"}")?;
    json::parse(&line).map_err(|e| std::io::Error::other(format!("stats reply: {e}")))
}

/// Look up a dotted path (`"cache.hits"`) in a stats snapshot.
pub fn field(j: &Json, path: &str) -> Option<f64> {
    let mut v = j;
    for part in path.split('.') {
        v = v.get(part)?;
    }
    v.as_f64()
}

/// CPU time of process `pid` in nanoseconds: `utime + stime` from
/// `/proc/<pid>/stat`, which also counts threads that have exited (the
/// daemon's solve pool spawns short-lived workers). `clk_tck` is the
/// kernel's clock-tick rate.
pub fn process_cpu_ns(pid: u32, clk_tck: u64) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 1_000_000_000 / clk_tck.max(1))
}

/// Check every reply against the reference on two threads. Returns the
/// number of mismatches.
pub fn verify(wl: &Workload, replies: &[(u64, f64, f64)]) -> u64 {
    let check = |chunk: &[(u64, f64, f64)]| {
        chunk
            .iter()
            .filter(|&&(idx, d, u)| {
                let (rd, ru) = wl.expected(&wl.request(idx));
                rd.to_bits() != d.to_bits() || ru.to_bits() != u.to_bits()
            })
            .count() as u64
    };
    let mid = replies.len() / 2;
    std::thread::scope(|s| {
        let h = s.spawn(|| check(&replies[..mid]));
        let here = check(&replies[mid..]);
        here + h.join().expect("verifier thread panicked")
    })
}

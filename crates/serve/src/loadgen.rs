//! The load generator behind `skyferry-loadgen`.
//!
//! Drives a running `skyferryd` with a seeded, reproducible request mix
//! and measures it from the client side. One single-threaded,
//! non-blocking request loop runs every phase: it takes the phase's requests
//! as one flat list and multiplexes its connections on one
//! [`skyferry_reactor`] event loop, in one of two modes:
//!
//! * **closed loop** (default): `--concurrency N` connections, each
//!   owning one contiguous share of the list and keeping up to
//!   `--window` requests of it in flight, so throughput is bounded by
//!   the server, not by round trips;
//! * **open loop** (`--conns N --rate R`): requests go out on one
//!   global fixed-rate schedule, round-robin across N mostly-idle
//!   connections (the fleet-of-UAVs shape), and the schedule never
//!   stretches when the server falls behind. `--saturation R1,R2,...`
//!   sweeps the offered rate and records a latency-under-load curve.
//!
//! Replies are stored by each request's position in the list, so a
//! phase's `d_star` stream does not depend on which connection answered
//! first; every phase reports its FNV-1a digest, and equal digests
//! across runs (shard counts, codecs) prove bit-identical answers.
//!
//! Latency is reported three ways, because a pipelined client's raw
//! round trip is *not* comparable to the server's per-request service
//! time (~4.2 ms client p50 vs ~29 µs server p50 was pure client-side
//! pipeline queueing):
//!
//! * **rtt**: admission to response — in open loop from the
//!   *scheduled* send, so coordinated omission is not hidden;
//! * **service**: the in-order decomposition
//!   `service_i = T_i − max(sent_i, T_{i−1})` (T = response arrival on
//!   the same connection), comparable to the server-side histogram;
//! * **connect**: TCP setup, kept out of the request latencies.
//!
//! The mix comes from `DetRng` streams under a fixed seed: every
//! request repeats one of 64 pool tuples drawn once. Closed loop draws
//! one stream per connection, joined in connection order; open loop
//! and the sweep draw one. The same flags therefore replay
//! byte-identical request lines, which is what makes `--compare`
//! meaningful: the cache is on for phase 1 and off for phase 2
//! (`cache`/`reset` control requests), and the report carries the
//! server-side decide p50 ratio (from the `stats` snapshot each phase
//! embeds) plus a per-request `d_star` comparison (bit-exact against
//! a server in exactness mode). `--codec bin1` negotiates the binary
//! codec on every connection before the clock starts; decides then
//! travel as raw `f64` bits, so `--expect-identical` holds across
//! codecs too.
//!
//! * `--miss-heavy` repeats every phase with a workload that draws
//!   every request fresh, reported as `<label>-miss`;
//! * `--policy-compare` (against `skyferryd --policy`) runs `table`,
//!   `cache` and `no-cache` phases and reports `table_speedup`;
//! * `--grid quick|full` draws requests *on* the compiled grid's cell
//!   centres, so all three phases solve bit-identical parameters;
//! * `--fleet-trace FILE` replays a recorded fleet request stream
//!   (`repro --export-fleet-trace` JSONL) in arrival order instead of
//!   the random mix, so a generic `skyferryd` solves exactly the d\*
//!   the fleet campaign computed; the report gains the stream's
//!   inter-arrival statistics (p50/p95 gap, burstiness = the gaps'
//!   coefficient of variation — ~0 uniform, >1 for bursty waves).
//!
//! Client-side percentiles are exact (`stats::quantile` over the raw
//! samples); the report also embeds the server's own `STATS` snapshot
//! and lands in `BENCH_serve.json` / `BENCH_policy.json`.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::time::Duration;

use bytes::{BufMut, BytesMut};
use skyferry_core::policy::PolicyGrid;
use skyferry_reactor::{Event, Interest, Poller, Token};
use skyferry_sim::rng::{DetRng, SeedStream};
use skyferry_stats::json::{self, Json};
use skyferry_stats::quantile::quantile;
use skyferry_trace::clock::monotonic_ns;

use crate::framing::{self, BinResponse, Codec, Frame, FrameDecoder, FrameError};
use crate::proto::{self, Request};

/// Seed of every workload's `DetRng` streams.
const SEED: u64 = 0x5AFE_5EED;
/// Distinct parameter tuples in the warm workload's repeated pool.
const POOL: usize = 64;

/// Which compiled-policy grid the workload should align to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridMode {
    /// [`PolicyGrid::quick`] — the CI grid.
    Quick,
    /// [`PolicyGrid::full`] — the production grid.
    Full,
}

impl GridMode {
    /// The grid this mode names.
    pub fn grid(&self) -> PolicyGrid {
        match self {
            GridMode::Quick => PolicyGrid::quick(),
            GridMode::Full => PolicyGrid::full(),
        }
    }

    /// The `--grid` value naming this mode.
    fn name(self) -> &'static str {
        match self {
            GridMode::Quick => "quick",
            GridMode::Full => "full",
        }
    }
}

impl std::str::FromStr for GridMode {
    type Err = String;
    fn from_str(s: &str) -> Result<GridMode, String> {
        [GridMode::Quick, GridMode::Full]
            .into_iter()
            .find(|g| g.name() == s)
            .ok_or_else(|| format!("unknown grid '{s}' (quick|full)"))
    }
}

/// Knobs of one load-generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:4517`.
    pub addr: String,
    /// Total requests per phase.
    pub requests: usize,
    /// Closed-loop connections, one workload stream each.
    pub concurrency: usize,
    /// Closed-loop pipelining window per connection.
    pub window: usize,
    /// Open-loop request rate in req/s over `conns` connections (one
    /// global schedule); `None` = closed loop.
    pub rate: Option<f64>,
    /// Connections of the open loop and of the saturation sweep.
    pub conns: usize,
    /// Offered-load sweep (req/s points) appended to the report as a
    /// latency-under-load saturation curve.
    pub saturation: Vec<f64>,
    /// Wire codec every measured connection negotiates up front.
    pub codec: Codec,
    /// Align the request mix to a compiled policy grid's cell centres.
    pub grid: Option<GridMode>,
    /// Replay a recorded fleet request stream (`repro
    /// --export-fleet-trace` JSONL) instead of the random mix.
    pub fleet_trace: Option<PathBuf>,
    /// Run a second phase with the cache disabled and report speedup.
    pub compare: bool,
    /// Run `table` / `cache` / `no-cache` phases against a server with a
    /// compiled policy table (implies the `policy` control toggles).
    pub policy_compare: bool,
    /// Repeat every phase with a workload that draws every request
    /// fresh, reported as `<label>-miss`.
    pub miss_heavy: bool,
    /// With `--check`: fail unless the server-side decide p50 of the
    /// `no-cache` phase over that of the `cache` phase reaches this.
    pub min_speedup: Option<f64>,
    /// With `--check`: fail unless the decide p50 of `no-cache` over
    /// `table` (the `-miss` pair when present) reaches this.
    pub min_table_speedup: Option<f64>,
    /// With `--compare`: require bit-identical `d_star` streams across
    /// phases (valid against a server in exactness mode).
    pub expect_identical: bool,
    /// Gate the exit code on the checks (protocol errors, p99,
    /// speedup, identity).
    pub check: bool,
    /// Where to write the JSON report.
    pub out: Option<PathBuf>,
    /// Send a `shutdown` control request when done.
    pub shutdown_after: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: String::new(),
            requests: 2000,
            concurrency: 4,
            window: 32,
            rate: None,
            conns: 0,
            saturation: Vec::new(),
            codec: Codec::Ndjson,
            grid: None,
            fleet_trace: None,
            compare: false,
            policy_compare: false,
            miss_heavy: false,
            min_speedup: None,
            min_table_speedup: None,
            expect_identical: false,
            check: false,
            out: None,
            shutdown_after: false,
        }
    }
}

/// A failed run (I/O trouble or a failed `--check` gate).
#[derive(Debug)]
pub enum LoadgenError {
    /// Socket-level failure talking to the server.
    Io(std::io::Error),
    /// The server answered something the protocol does not allow here.
    Protocol(String),
    /// A `--check` gate failed; the report is still returned alongside.
    CheckFailed(String),
}

impl std::fmt::Display for LoadgenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadgenError::Io(e) => write!(f, "i/o: {e}"),
            LoadgenError::Protocol(m) => write!(f, "protocol: {m}"),
            LoadgenError::CheckFailed(m) => write!(f, "check failed: {m}"),
        }
    }
}

impl std::error::Error for LoadgenError {}

impl From<std::io::Error> for LoadgenError {
    fn from(e: std::io::Error) -> Self {
        LoadgenError::Io(e)
    }
}

impl From<FrameError> for LoadgenError {
    fn from(e: FrameError) -> Self {
        LoadgenError::Protocol(format!("framing: {e}"))
    }
}

/// Render one random decision-request line. With a grid, the request is
/// drawn *on* a random cell centre ([`PolicyGrid::request_of`] wire
/// values), so the server's snapped parameters land bit-exactly on the
/// cell and the compiled table serves every request.
fn random_request_line(rng: &mut DetRng, grid: Option<&PolicyGrid>) -> String {
    if let Some(g) = grid {
        let (platform, [d0, mdata, rho, speed]) = g.request_of(rng.index(g.cells()));
        return Json::obj([
            ("platform", Json::str(platform.id())),
            ("d0", Json::Num(d0)),
            ("mdata", Json::Num(mdata)),
            ("rho", Json::Num(rho)),
            ("speed", Json::Num(speed)),
        ])
        .render();
    }
    let airplane = rng.chance(0.5);
    let (platform, d0_lo, d0_hi) = if airplane {
        ("airplane", 50.0, 300.0)
    } else {
        ("quadrocopter", 30.0, 100.0)
    };
    Json::obj([
        ("platform", Json::str(platform)),
        ("d0", Json::Num(rng.uniform_range(d0_lo, d0_hi))),
        ("mdata", Json::Num(rng.uniform_range(1.0, 60.0))),
        ("rho", Json::Num(rng.uniform_range(5e-5, 5e-4))),
        ("speed", Json::Num(rng.uniform_range(2.0, 12.0))),
    ])
    .render()
}

/// Connection `t`'s share of `n` requests split over `parts`: the
/// balanced contiguous split the closed-loop workload streams and the
/// request loop's per-connection slices both use.
fn share(n: usize, parts: usize, t: usize) -> usize {
    n / parts + usize::from(t < n % parts)
}

/// One phase's request lines as a flat list: `streams` seeded `DetRng`
/// streams, each drawing its [`share`] of `cfg.requests`, joined in
/// stream order. A pure function of its arguments, so a second phase
/// replays the identical workload. `miss` draws every request fresh
/// instead of repeating the pool (the same RNG schedule, so the
/// `-miss` phases keep the warm phases' per-connection split).
pub fn build_workload(cfg: &LoadgenConfig, streams: usize, miss: bool) -> Vec<String> {
    let grid = cfg.grid.map(|g| g.grid());
    let grid = grid.as_ref();
    let seeds = SeedStream::new(SEED);
    let mut pool_rng = seeds.rng("loadgen-pool");
    let pool: Vec<String> = (0..POOL)
        .map(|_| random_request_line(&mut pool_rng, grid))
        .collect();
    let unique_frac = if miss { 1.0 } else { 0.0 };
    let streams = streams.max(1);
    let mut lines = Vec::with_capacity(cfg.requests);
    for t in 0..streams {
        let mut rng = seeds.rng_indexed("loadgen-mix", t as u64);
        for _ in 0..share(cfg.requests, streams, t) {
            lines.push(if rng.chance(unique_frac) {
                random_request_line(&mut rng, grid)
            } else {
                pool[rng.index(pool.len())].clone()
            });
        }
    }
    lines
}

/// A parsed fleet trace: decide-request lines in arrival order plus the
/// arrival times that produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTraceWorkload {
    /// Request lines, sorted by arrival time.
    pub lines: Vec<String>,
    /// Arrival offsets, seconds (parallel to `lines`, non-decreasing).
    pub arrivals_s: Vec<f64>,
}

/// Parse a `repro --export-fleet-trace` JSONL stream into replayable
/// request lines. Each event's `(platform, d0, mdata, rho, speed)`
/// tuple is re-rendered as a plain decide request — provenance keys
/// (`uav`, `station`, `contenders`) are dropped so the server sees the
/// ordinary wire grammar. Events are sorted by `t` defensively.
pub fn parse_fleet_trace(text: &str) -> Result<FleetTraceWorkload, String> {
    let mut events: Vec<(f64, String)> = Vec::new();
    for (n, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("fleet trace line {}: {e}", n + 1))?;
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .filter(|x| x.is_finite())
                .ok_or_else(|| format!("fleet trace line {}: missing numeric '{key}'", n + 1))
        };
        let platform = v
            .get("platform")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("fleet trace line {}: missing 'platform'", n + 1))?
            .to_string();
        let t = num("t")?;
        let request = Json::obj([
            ("platform", Json::str(&platform)),
            ("d0", Json::Num(num("d0")?)),
            ("mdata", Json::Num(num("mdata")?)),
            ("rho", Json::Num(num("rho")?)),
            ("speed", Json::Num(num("speed")?)),
        ])
        .render();
        events.push((t, request));
    }
    if events.is_empty() {
        return Err("fleet trace has no events".to_string());
    }
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite arrival times"));
    let (arrivals_s, lines) = events.into_iter().unzip();
    Ok(FleetTraceWorkload { lines, arrivals_s })
}

/// Inter-arrival statistics of a replayed request stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Events in the stream.
    pub events: usize,
    /// First-to-last arrival span, seconds.
    pub span_s: f64,
    /// Median inter-arrival gap, seconds.
    pub p50_gap_s: f64,
    /// 95th-percentile inter-arrival gap, seconds.
    pub p95_gap_s: f64,
    /// Coefficient of variation of the gaps (`std/mean`): ~0 for a
    /// uniform schedule, ~1 for Poisson, >1 for bursty waves.
    pub burstiness: f64,
}

/// Compute [`TraceStats`] over sorted arrival offsets.
pub fn trace_stats(arrivals_s: &[f64]) -> TraceStats {
    let gaps: Vec<f64> = arrivals_s.windows(2).map(|w| w[1] - w[0]).collect();
    let span_s = match (arrivals_s.first(), arrivals_s.last()) {
        (Some(a), Some(b)) => b - a,
        _ => 0.0,
    };
    let mean = if gaps.is_empty() {
        0.0
    } else {
        gaps.iter().sum::<f64>() / gaps.len() as f64
    };
    let var = if gaps.len() < 2 {
        0.0
    } else {
        gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64
    };
    TraceStats {
        events: arrivals_s.len(),
        span_s,
        p50_gap_s: quantile(&gaps, 0.50).unwrap_or(0.0),
        p95_gap_s: quantile(&gaps, 0.95).unwrap_or(0.0),
        burstiness: if mean > 0.0 { var.sqrt() / mean } else { 0.0 },
    }
}

impl TraceStats {
    fn to_json(self) -> Json {
        Json::obj([
            ("events", Json::Int(self.events as i64)),
            ("span_s", Json::Fixed(self.span_s, 3)),
            ("p50_gap_s", Json::Fixed(self.p50_gap_s, 4)),
            ("p95_gap_s", Json::Fixed(self.p95_gap_s, 4)),
            ("burstiness", Json::Fixed(self.burstiness, 3)),
        ])
    }
}

/// Per-kind tally of `{"error": ...}` responses, keyed by the closed
/// set of wire tags in [`crate::proto::ErrorKind`]. An undifferentiated
/// error count hides whether a run tripped over its own request
/// generator (`bad-request`), queue sizing (`overloaded`) or a race
/// with a drain (`shutting-down`); the tally keeps the kinds apart.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ErrorTally {
    /// `"bad-request"`: the request itself was rejected.
    pub bad_request: u64,
    /// `"overloaded"`: the server shed load (retryable).
    pub overloaded: u64,
    /// `"shutting-down"`: the request raced a drain.
    pub shutting_down: u64,
    /// Any tag outside the known set — protocol drift.
    pub unknown: u64,
}

impl ErrorTally {
    /// Classify one wire error tag into the tally.
    fn record(&mut self, tag: Option<&str>) {
        match tag {
            Some("bad-request") => self.bad_request += 1,
            Some("overloaded") => self.overloaded += 1,
            Some("shutting-down") => self.shutting_down += 1,
            _ => self.unknown += 1,
        }
    }

    /// Error responses of every kind.
    pub fn total(&self) -> u64 {
        self.bad_request + self.overloaded + self.shutting_down + self.unknown
    }

    fn merge(&mut self, other: &ErrorTally) {
        self.bad_request += other.bad_request;
        self.overloaded += other.overloaded;
        self.shutting_down += other.shutting_down;
        self.unknown += other.unknown;
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("bad_request", Json::Int(self.bad_request as i64)),
            ("overloaded", Json::Int(self.overloaded as i64)),
            ("shutting_down", Json::Int(self.shutting_down as i64)),
            ("unknown", Json::Int(self.unknown as i64)),
        ])
    }

    /// `kind=count` pairs for the non-zero kinds, for error messages.
    fn describe(&self) -> String {
        [
            ("bad-request", self.bad_request),
            ("overloaded", self.overloaded),
            ("shutting-down", self.shutting_down),
            ("unknown", self.unknown),
        ]
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(k, n)| format!("{k}={n}"))
        .collect::<Vec<_>>()
        .join(", ")
    }
}

/// Exact p50/p95/p99 over one latency dimension, microseconds.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Median, µs.
    pub p50_us: f64,
    /// 95th percentile, µs.
    pub p95_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
}

impl LatencySummary {
    fn from_samples(us: &[f64]) -> LatencySummary {
        let q = |p: f64| quantile(us, p).unwrap_or(0.0);
        LatencySummary {
            p50_us: q(0.50),
            p95_us: q(0.95),
            p99_us: q(0.99),
        }
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("p50", Json::Fixed(self.p50_us, 1)),
            ("p95", Json::Fixed(self.p95_us, 1)),
            ("p99", Json::Fixed(self.p99_us, 1)),
        ])
    }
}

/// Decompose one completion at `now_ns` into `(rtt, service)` µs.
///
/// `rtt` runs from the request's send stamp. `service` is the in-order
/// pipeline decomposition: a response cannot arrive before the previous
/// response on the same connection (`prev_done_ns`), so the server's own
/// contribution to this request is only the interval since the later of
/// its send and that previous arrival — the quantity comparable to the
/// server-side per-request histogram.
fn split_latency(now_ns: u64, sent_ns: u64, prev_done_ns: u64) -> (f64, f64) {
    let rtt = now_ns.saturating_sub(sent_ns) as f64 / 1e3;
    let service = now_ns.saturating_sub(sent_ns.max(prev_done_ns)) as f64 / 1e3;
    (rtt, service)
}

/// Send one NDJSON request line on a blocking stream and read its
/// one-line reply. Nothing else is in flight on the stream, so every
/// byte read belongs to that reply. An `{"error": ...}` answer (e.g. a
/// `policy` toggle against a server with no table loaded, or a codec
/// the server does not know) aborts the run instead of silently
/// measuring the wrong path.
fn exchange(stream: &mut TcpStream, line: &str) -> Result<Json, LoadgenError> {
    stream.write_all(format!("{line}\n").as_bytes())?;
    let mut reply = Vec::new();
    let mut buf = [0u8; 4096];
    while !reply.ends_with(b"\n") {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(LoadgenError::Protocol(format!(
                "server closed the connection before answering {line}"
            )));
        }
        reply.extend_from_slice(&buf[..n]);
    }
    let value = json::parse(String::from_utf8_lossy(&reply).trim())
        .map_err(|e| LoadgenError::Protocol(format!("unparsable reply to {line}: {e}")))?;
    if let Some(err) = value.get("error") {
        return Err(LoadgenError::Protocol(format!(
            "{line} rejected: {}",
            err.render()
        )));
    }
    Ok(value)
}

/// One control request over its own throwaway connection.
fn control(addr: &str, line: &str) -> Result<Json, LoadgenError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    exchange(&mut stream, line)
}

/// Encode one workload line in the negotiated codec. NDJSON sends the
/// line verbatim; `bin1` re-parses it into decision parameters and ships
/// the raw `f64` bits, so both codecs solve bit-identical parameters.
fn encode_request(line: &str, codec: Codec, out: &mut BytesMut) -> Result<(), LoadgenError> {
    match codec {
        Codec::Ndjson => {
            out.put_slice(line.as_bytes());
            out.put_u8(b'\n');
        }
        Codec::Bin1 => match proto::parse_request(line) {
            Ok(Request::Decide(p)) => framing::encode_decide_frame(&p, out),
            _ => {
                return Err(LoadgenError::Protocol(format!(
                    "workload line is not a decide request: {line}"
                )))
            }
        },
    }
    Ok(())
}

/// One multiplexed connection of the request loop.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    out_pos: usize,
    /// `(request index, send stamp)` per request awaiting its reply,
    /// in send order (replies come back in request order).
    inflight: VecDeque<(usize, u64)>,
    prev_done_ns: u64,
    want_write: bool,
    /// Closed loop: the requests of this connection's contiguous share
    /// not yet sent.
    todo: std::ops::Range<usize>,
}

impl Conn {
    /// Connect, negotiate `codec` while the socket still blocks (the ack
    /// arrives in the old codec; only then does the decoder switch,
    /// mirroring the server's parse-time seam), then go non-blocking.
    fn open(
        addr: &str,
        codec: Codec,
        todo: std::ops::Range<usize>,
        connect_us: &mut Vec<f64>,
    ) -> Result<Conn, LoadgenError> {
        let t_conn_ns = monotonic_ns();
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        connect_us.push(monotonic_ns().saturating_sub(t_conn_ns) as f64 / 1e3);
        let mut decoder = FrameDecoder::new();
        if codec != Codec::Ndjson {
            let line = format!("{{\"cmd\":\"codec\",\"v\":\"{}\"}}", codec.wire_name());
            exchange(&mut stream, &line)?;
            decoder.set_codec(codec);
        }
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            decoder,
            out: Vec::new(),
            out_pos: 0,
            inflight: VecDeque::new(),
            prev_done_ns: 0,
            want_write: false,
            todo,
        })
    }

    /// Queue request `idx` stamped `sent_ns`.
    fn queue(&mut self, idx: usize, bytes: &[u8], sent_ns: u64) {
        self.out.extend_from_slice(bytes);
        self.inflight.push_back((idx, sent_ns));
    }

    /// Push buffered bytes until the socket would block.
    fn flush(&mut self) -> std::io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "server stopped reading",
                    ))
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(())
    }

    /// Read until the socket would block; `Ok(true)` means EOF.
    fn read_ready(&mut self) -> std::io::Result<bool> {
        let mut buf = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Ok(true),
                Ok(n) => self.decoder.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// What one driven request list measured.
#[derive(Default)]
struct Outcome {
    wall_s: f64,
    rtt_us: Vec<f64>,
    service_us: Vec<f64>,
    connect_us: Vec<f64>,
    /// Indexed by position in the request list (NaN for an error
    /// reply), so the stream does not depend on which connection
    /// answered first.
    d_stars: Vec<f64>,
    cache_hits: u64,
    errors: ErrorTally,
}

impl Outcome {
    /// Record request `idx`'s reply frame, from either codec.
    fn record(&mut self, idx: usize, frame: Frame) -> Result<(), LoadgenError> {
        let line = match frame {
            Frame::Bin(payload) => match framing::decode_response_frame(&payload)? {
                BinResponse::Decision(d) => {
                    self.d_stars[idx] = d.d_star;
                    self.cache_hits += u64::from(d.cache_hit);
                    return Ok(());
                }
                BinResponse::Json(line) => line,
            },
            Frame::Line(line) => line,
        };
        let value = json::parse(line.trim())
            .map_err(|e| LoadgenError::Protocol(format!("unparsable response: {e}")))?;
        if let Some(err) = value.get("error") {
            self.errors.record(err.as_str());
            return Ok(());
        }
        self.d_stars[idx] = value
            .get("d_star")
            .and_then(Json::as_f64)
            .ok_or_else(|| LoadgenError::Protocol("response lacks d_star".into()))?;
        self.cache_hits += u64::from(value.get("cache_hit").and_then(Json::as_bool) == Some(true));
        Ok(())
    }
}

/// Drive `lines` over `conns` connections multiplexed on one poller.
///
/// * `rate: None` — closed loop: connection `t` sends its contiguous
///   [`share`] of the list in order, keeping up to `window` requests in
///   flight; rtt runs from the moment a request is queued.
/// * `rate: Some(r)` — open loop: request `i` is due `i / r` seconds
///   after the start and goes out on connection `i % conns`, however
///   many replies are outstanding. rtt runs from the *scheduled* send,
///   so when the server (or this client) falls behind, the backlog
///   shows up as latency instead of silently stretching the schedule
///   (coordinated omission). A late wakeup sends the whole backlog as
///   one burst.
///
/// The wall clock starts after every connection is open and negotiated
/// and stops at the last reply.
fn drive(
    addr: &str,
    lines: &[String],
    conns: usize,
    window: usize,
    rate: Option<f64>,
    codec: Codec,
) -> Result<Outcome, LoadgenError> {
    let total = lines.len();
    let nconns = conns.max(1);
    let window = window.max(1);
    let mut o = Outcome {
        wall_s: 1e-9,
        d_stars: vec![f64::NAN; total],
        ..Outcome::default()
    };
    if total == 0 {
        return Ok(o);
    }
    let encoded: Vec<Vec<u8>> = lines
        .iter()
        .map(|l| {
            let mut b = BytesMut::new();
            encode_request(l, codec, &mut b)?;
            Ok(b[..].to_vec())
        })
        .collect::<Result<_, LoadgenError>>()?;

    let mut poller = Poller::new();
    let mut cs: Vec<Conn> = Vec::with_capacity(nconns);
    let mut start = 0;
    for t in 0..nconns {
        let end = start + share(total, nconns, t);
        let c = Conn::open(addr, codec, start..end, &mut o.connect_us)?;
        start = end;
        poller.register(c.stream.as_raw_fd(), Token(t as u64), Interest::READ);
        cs.push(c);
    }

    let interval_ns = rate.map(|r| 1e9 / r.max(1e-9));
    let t0_ns = monotonic_ns();
    let due_of = |i: usize, iv: f64| t0_ns + (i as f64 * iv) as u64;
    let mut next = 0usize;
    let mut done = 0usize;
    let mut last_done_ns = t0_ns;
    let mut events: Vec<Event> = Vec::new();
    while done < total {
        let now_ns = monotonic_ns();
        match interval_ns {
            Some(iv) => {
                while next < total && due_of(next, iv) <= now_ns {
                    cs[next % nconns].queue(next, &encoded[next], due_of(next, iv));
                    next += 1;
                }
            }
            None => {
                for c in cs.iter_mut() {
                    while c.inflight.len() < window {
                        let Some(idx) = c.todo.next() else { break };
                        c.queue(idx, &encoded[idx], now_ns);
                    }
                }
            }
        }
        for (t, c) in cs.iter_mut().enumerate() {
            if c.out_pos < c.out.len() {
                c.flush()?;
            }
            let want = c.out_pos < c.out.len();
            if want != c.want_write {
                let interest = Interest {
                    readable: true,
                    writable: want,
                };
                poller.modify(Token(t as u64), interest);
                c.want_write = want;
            }
        }
        let timeout = match interval_ns {
            Some(iv) if next < total => Some(Duration::from_nanos(
                due_of(next, iv).saturating_sub(monotonic_ns()),
            )),
            _ => None,
        };
        poller.wait(&mut events, timeout)?;
        for ev in events.iter() {
            let c = &mut cs[ev.token.0 as usize];
            if ev.writable && c.out_pos < c.out.len() {
                c.flush()?;
            }
            if !(ev.readable || ev.hangup) {
                continue;
            }
            let eof = c.read_ready()?;
            while let Some(frame) = c.decoder.next_frame()? {
                let (idx, sent_ns) = c
                    .inflight
                    .pop_front()
                    .ok_or_else(|| LoadgenError::Protocol("response without a request".into()))?;
                let now_ns = monotonic_ns();
                let (rtt, service) = split_latency(now_ns, sent_ns, c.prev_done_ns);
                o.rtt_us.push(rtt);
                o.service_us.push(service);
                c.prev_done_ns = now_ns;
                last_done_ns = now_ns;
                o.record(idx, frame)?;
                done += 1;
            }
            if eof && done < total {
                return Err(LoadgenError::Protocol(
                    "server closed the connection mid-stream".into(),
                ));
            }
        }
    }
    o.wall_s = (last_done_ns.saturating_sub(t0_ns) as f64 / 1e9).max(1e-9);
    Ok(o)
}

/// One measured phase.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// `"table"` / `"cache"` / `"no-cache"` / `"single"`, with a
    /// `-miss` suffix for the miss-heavy repeat of the same phase.
    pub label: &'static str,
    /// Wall-clock of the whole phase, seconds.
    pub wall_s: f64,
    /// Requests per second over the phase.
    pub throughput_rps: f64,
    /// Error responses received.
    pub protocol_errors: u64,
    /// The same errors classified by wire tag.
    pub errors_by_kind: ErrorTally,
    /// `cache_hit: true` responses.
    pub cache_hits: u64,
    /// Send-to-response round trip (includes pipeline queueing).
    pub rtt: LatencySummary,
    /// In-order service decomposition — comparable to the server-side
    /// per-request histogram.
    pub service: LatencySummary,
    /// TCP connection setup, kept out of the request latencies.
    pub connect: LatencySummary,
    /// The server's `STATS` snapshot taken right after the phase.
    pub server_stats: Json,
    /// The `d_star` stream in request-list order (NaN for an error
    /// reply), for cross-phase comparison.
    d_stars: Vec<f64>,
}

impl PhaseReport {
    /// The phase's `d_star` stream as raw bits, in request-list order —
    /// the unit of the `--expect-identical` comparison, exposed so
    /// integration tests can also compare it *across* runs (shard
    /// counts, codecs).
    pub fn d_star_bits(&self) -> Vec<u64> {
        self.d_stars.iter().map(|d| d.to_bits()).collect()
    }

    /// FNV-1a (word-wise) over [`d_star_bits`](Self::d_star_bits): equal
    /// digests from separate runs prove the servers produced
    /// bit-identical decision streams.
    pub fn d_star_digest(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.d_star_bits() {
            h ^= b;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }

    /// The server-side decide p50 (µs) from the embedded `stats`
    /// snapshot; `reset` clears it between phases.
    fn decide_p50_us(&self) -> Option<f64> {
        self.server_stats.get("latency")?.get("p50_us")?.as_f64()
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::str(self.label)),
            ("wall_s", Json::Fixed(self.wall_s, 4)),
            ("throughput_rps", Json::Fixed(self.throughput_rps, 1)),
            ("protocol_errors", Json::Int(self.protocol_errors as i64)),
            ("errors_by_kind", self.errors_by_kind.to_json()),
            ("cache_hits", Json::Int(self.cache_hits as i64)),
            ("d_star_digest", Json::str(self.d_star_digest())),
            (
                "latency_us",
                Json::obj([
                    ("rtt", self.rtt.to_json()),
                    ("service", self.service.to_json()),
                    ("connect", self.connect.to_json()),
                ]),
            ),
            ("server", self.server_stats.clone()),
        ])
    }
}

/// One offered-load point of the saturation sweep.
#[derive(Debug, Clone)]
pub struct SatPoint {
    /// Scheduled load, req/s.
    pub offered_rps: f64,
    /// Completed load, req/s (diverges below offered past the knee).
    pub achieved_rps: f64,
    /// Reactor-multiplexed connections carrying the load.
    pub conns: usize,
    /// Requests fired at this point.
    pub requests: usize,
    /// Error responses (overload shedding shows up here, by design).
    pub protocol_errors: u64,
    /// The same errors classified by wire tag.
    pub errors_by_kind: ErrorTally,
    /// Schedule-to-response latency under this load.
    pub rtt: LatencySummary,
    /// In-order service decomposition under this load.
    pub service: LatencySummary,
}

impl SatPoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("offered_rps", Json::Fixed(self.offered_rps, 1)),
            ("achieved_rps", Json::Fixed(self.achieved_rps, 1)),
            ("conns", Json::Int(self.conns as i64)),
            ("requests", Json::Int(self.requests as i64)),
            ("protocol_errors", Json::Int(self.protocol_errors as i64)),
            ("errors_by_kind", self.errors_by_kind.to_json()),
            (
                "latency_us",
                Json::obj([
                    ("rtt", self.rtt.to_json()),
                    ("service", self.service.to_json()),
                ]),
            ),
        ])
    }
}

/// The full run report (what `BENCH_serve.json` serialises).
#[derive(Debug, Clone)]
pub struct Report {
    /// Phases in execution order.
    pub phases: Vec<PhaseReport>,
    /// Latency-under-load curve (`--saturation`), in sweep order.
    pub saturation: Vec<SatPoint>,
    /// Server-side decide p50 of `no-cache` over `cache`, warm
    /// workload: what the cache saves per decision, measured where the
    /// solve happens (end-to-end rps is dominated by framing and I/O).
    pub speedup: Option<f64>,
    /// The same ratio on the miss-heavy workload.
    pub speedup_miss: Option<f64>,
    /// Decide p50 of `no-cache` over `table`, warm workload
    /// (`--policy-compare` only).
    pub table_speedup: Option<f64>,
    /// The same ratio on the miss-heavy workload.
    pub table_speedup_miss: Option<f64>,
    /// Were the `d_star` streams bit-identical across the phases of
    /// each workload (warm phases vs warm, miss vs miss)?
    pub d_star_identical: Option<bool>,
    /// Inter-arrival statistics of the replayed stream (`--fleet-trace`
    /// only).
    pub fleet_trace: Option<TraceStats>,
    cfg: LoadgenConfig,
}

impl Report {
    /// Serialise for `BENCH_serve.json` / `BENCH_policy.json`.
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<Json>| v.unwrap_or(Json::Null);
        let ratio = |r: Option<f64>| opt(r.map(|s| Json::Fixed(s, 2)));
        Json::obj([
            (
                "workload",
                Json::obj([
                    ("requests", Json::Int(self.cfg.requests as i64)),
                    ("concurrency", Json::Int(self.cfg.concurrency as i64)),
                    ("window", Json::Int(self.cfg.window as i64)),
                    (
                        "mode",
                        Json::str(if self.cfg.rate.is_some() {
                            "open-loop-conns"
                        } else {
                            "closed-loop"
                        }),
                    ),
                    ("rate_rps", opt(self.cfg.rate.map(Json::Num))),
                    ("conns", Json::Int(self.cfg.conns as i64)),
                    ("codec", Json::str(self.cfg.codec.wire_name())),
                    ("seed", Json::Int(SEED as i64)),
                    ("grid", opt(self.cfg.grid.map(|g| Json::str(g.name())))),
                    ("miss_heavy", Json::Bool(self.cfg.miss_heavy)),
                    ("policy_compare", Json::Bool(self.cfg.policy_compare)),
                    (
                        "fleet_trace",
                        opt(self
                            .cfg
                            .fleet_trace
                            .as_ref()
                            .map(|p| Json::str(p.display().to_string()))),
                    ),
                ]),
            ),
            (
                "fleet_trace_stats",
                opt(self.fleet_trace.map(TraceStats::to_json)),
            ),
            (
                "phases",
                Json::Arr(self.phases.iter().map(PhaseReport::to_json).collect()),
            ),
            (
                "saturation",
                Json::Arr(self.saturation.iter().map(SatPoint::to_json).collect()),
            ),
            ("speedup", ratio(self.speedup)),
            ("speedup_miss", ratio(self.speedup_miss)),
            ("table_speedup", ratio(self.table_speedup)),
            ("table_speedup_miss", ratio(self.table_speedup_miss)),
            (
                "d_star_identical",
                opt(self.d_star_identical.map(Json::Bool)),
            ),
        ])
    }
}

/// Run one phase: drive `lines` over `conns` connections in the
/// configured mode, then take the server's `stats` snapshot.
fn run_phase(
    cfg: &LoadgenConfig,
    conns: usize,
    label: &'static str,
    lines: &[String],
) -> Result<PhaseReport, LoadgenError> {
    let o = drive(&cfg.addr, lines, conns, cfg.window, cfg.rate, cfg.codec)?;
    let server_stats = control(&cfg.addr, r#"{"cmd":"stats"}"#)?;
    Ok(PhaseReport {
        label,
        wall_s: o.wall_s,
        throughput_rps: lines.len() as f64 / o.wall_s,
        protocol_errors: o.errors.total(),
        errors_by_kind: o.errors,
        cache_hits: o.cache_hits,
        rtt: LatencySummary::from_samples(&o.rtt_us),
        service: LatencySummary::from_samples(&o.service_us),
        connect: LatencySummary::from_samples(&o.connect_us),
        server_stats,
        d_stars: o.d_stars,
    })
}

/// Bitwise `d_star` identity across a group of phases that replayed
/// the same workload; `None` when there is nothing to compare.
fn d_stars_identical(group: &[&PhaseReport]) -> Option<bool> {
    if group.len() < 2 {
        return None;
    }
    let first = group[0].d_star_bits();
    Some(group[1..].iter().all(|p| p.d_star_bits() == first))
}

/// Sweep the offered-load points of `cfg.saturation` over `cfg.conns`
/// open-loop connections (64 when unset) and return the curve. One
/// `reset` precedes the sweep, so the first point pays the pool's cache
/// misses and the rest measure the warm serving path — the curve's knee
/// is the capacity number BENCH_serve.json is after.
fn run_saturation(cfg: &LoadgenConfig) -> Result<Vec<SatPoint>, LoadgenError> {
    if cfg.saturation.is_empty() {
        return Ok(Vec::new());
    }
    let conns = if cfg.conns > 0 { cfg.conns } else { 64 };
    let lines = build_workload(cfg, 1, false);
    control(&cfg.addr, r#"{"cmd":"reset"}"#)?;
    let mut curve = Vec::with_capacity(cfg.saturation.len());
    for &rate in &cfg.saturation {
        let o = drive(&cfg.addr, &lines, conns, cfg.window, Some(rate), cfg.codec)?;
        curve.push(SatPoint {
            offered_rps: rate,
            achieved_rps: lines.len() as f64 / o.wall_s,
            conns,
            requests: lines.len(),
            protocol_errors: o.errors.total(),
            errors_by_kind: o.errors,
            rtt: LatencySummary::from_samples(&o.rtt_us),
            service: LatencySummary::from_samples(&o.service_us),
        });
    }
    Ok(curve)
}

/// Run the configured workload; on success the report is also written
/// to `cfg.out` (pretty JSON) when set.
pub fn run(cfg: &LoadgenConfig) -> Result<Report, LoadgenError> {
    // Closed loop draws one workload stream per connection; the open
    // loop's single global schedule draws one.
    let (conns, streams) = match cfg.rate {
        Some(_) => (cfg.conns, 1),
        None => (cfg.concurrency, cfg.concurrency),
    };
    let (warm, fleet_trace) = match &cfg.fleet_trace {
        Some(path) => {
            let text = std::fs::read_to_string(path)?;
            let f = parse_fleet_trace(&text).map_err(LoadgenError::Protocol)?;
            let stats = trace_stats(&f.arrivals_s);
            (f.lines, Some(stats))
        }
        None => (build_workload(cfg, streams, false), None),
    };
    let miss = cfg.miss_heavy.then(|| build_workload(cfg, streams, true));

    // One entry per server configuration: (label, miss-heavy label,
    // policy toggle, cache toggle). Each runs the warm workload, then
    // the miss-heavy one when requested.
    type Spec = (&'static str, &'static str, Option<bool>, Option<bool>);
    let specs: Vec<Spec> = if cfg.policy_compare {
        vec![
            ("table", "table-miss", Some(true), Some(true)),
            ("cache", "cache-miss", Some(false), Some(true)),
            ("no-cache", "no-cache-miss", Some(false), Some(false)),
        ]
    } else if cfg.compare {
        vec![
            ("cache", "cache-miss", None, Some(true)),
            ("no-cache", "no-cache-miss", None, Some(false)),
        ]
    } else {
        vec![("single", "single-miss", None, None)]
    };
    let multi_phase = specs.len() > 1 || miss.is_some();

    let mut phases = Vec::new();
    for &(base, base_miss, policy_on, cache_on) in &specs {
        if let Some(on) = cache_on {
            control(&cfg.addr, &format!(r#"{{"cmd":"cache","enabled":{on}}}"#))?;
        }
        if let Some(on) = policy_on {
            control(&cfg.addr, &format!(r#"{{"cmd":"policy","enabled":{on}}}"#))?;
        }
        let mut workloads: Vec<(&'static str, &Vec<String>)> = vec![(base, &warm)];
        if let Some(m) = &miss {
            workloads.push((base_miss, m));
        }
        for (label, workload) in workloads {
            if multi_phase {
                control(&cfg.addr, r#"{"cmd":"reset"}"#)?;
            }
            phases.push(run_phase(cfg, conns, label, workload)?);
        }
    }
    // Restore the toggles the sweep changed.
    if cfg.policy_compare {
        control(&cfg.addr, r#"{"cmd":"policy","enabled":true}"#)?;
    }
    if cfg.compare || cfg.policy_compare {
        control(&cfg.addr, r#"{"cmd":"cache","enabled":true}"#)?;
    }

    let saturation = run_saturation(cfg)?;

    let p50 = |label: &str| {
        phases
            .iter()
            .find(|p| p.label == label)
            .and_then(PhaseReport::decide_p50_us)
    };
    let ratio = |num: Option<f64>, den: Option<f64>| match (num, den) {
        (Some(n), Some(d)) => Some(n / d.max(1e-9)),
        _ => None,
    };
    let speedup = ratio(p50("no-cache"), p50("cache"));
    let speedup_miss = ratio(p50("no-cache-miss"), p50("cache-miss"));
    let table_speedup = ratio(p50("no-cache"), p50("table"));
    let table_speedup_miss = ratio(p50("no-cache-miss"), p50("table-miss"));

    let group = |miss: bool| -> Vec<&PhaseReport> {
        let phases = phases.iter();
        phases
            .filter(|p| p.label.ends_with("-miss") == miss)
            .collect()
    };
    let d_star_identical = match (
        d_stars_identical(&group(false)),
        d_stars_identical(&group(true)),
    ) {
        (None, None) => None,
        (a, b) => Some(a.unwrap_or(true) && b.unwrap_or(true)),
    };

    let report = Report {
        phases,
        saturation,
        speedup,
        speedup_miss,
        table_speedup,
        table_speedup_miss,
        d_star_identical,
        fleet_trace,
        cfg: cfg.clone(),
    };

    if let Some(out) = &cfg.out {
        std::fs::write(out, report.to_json().render_pretty())?;
    }
    if cfg.shutdown_after {
        let _ = control(&cfg.addr, r#"{"cmd":"shutdown"}"#);
    }

    if cfg.check {
        let mut by_kind = ErrorTally::default();
        for p in &report.phases {
            by_kind.merge(&p.errors_by_kind);
        }
        if by_kind.total() > 0 {
            return Err(LoadgenError::CheckFailed(format!(
                "{} protocol error responses ({})",
                by_kind.total(),
                by_kind.describe()
            )));
        }
        if report.phases.iter().any(|p| p.rtt.p99_us <= 0.0) {
            return Err(LoadgenError::CheckFailed("p99 latency is zero".into()));
        }
        if let (Some(min), Some(got)) = (cfg.min_speedup, report.speedup) {
            if got < min {
                return Err(LoadgenError::CheckFailed(format!(
                    "cache speedup (decide p50, no-cache / cache) {got:.2}x below required {min:.2}x"
                )));
            }
        }
        if let Some(min) = cfg.min_table_speedup {
            let got = report
                .table_speedup_miss
                .or(report.table_speedup)
                .ok_or_else(|| {
                    LoadgenError::CheckFailed("--min-table-speedup needs --policy-compare".into())
                })?;
            if got < min {
                return Err(LoadgenError::CheckFailed(format!(
                    "table speedup (decide p50, no-cache / table) {got:.2}x below required {min:.2}x"
                )));
            }
        }
        if cfg.expect_identical && report.d_star_identical == Some(false) {
            return Err(LoadgenError::CheckFailed(
                "d_star streams differ between phases of the same workload".into(),
            ));
        }
    }
    Ok(report)
}

/// Parse the `skyferry-loadgen` argument grammar (without the program
/// name). Kept here so it is unit-testable without spawning the binary.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<LoadgenConfig, String> {
    let mut cfg = LoadgenConfig::default();
    let mut args = args.into_iter();
    fn value<T: std::str::FromStr>(
        args: &mut impl Iterator<Item = String>,
        flag: &str,
    ) -> Result<T, String> {
        let raw = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        raw.parse()
            .map_err(|_| format!("{flag} got unparsable value '{raw}'"))
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => cfg.addr = value(&mut args, "--addr")?,
            "--requests" => cfg.requests = value(&mut args, "--requests")?,
            "--concurrency" => cfg.concurrency = value(&mut args, "--concurrency")?,
            "--window" => cfg.window = value(&mut args, "--window")?,
            "--rate" => cfg.rate = Some(value(&mut args, "--rate")?),
            "--conns" => cfg.conns = value(&mut args, "--conns")?,
            "--saturation" => {
                let raw: String = value(&mut args, "--saturation")?;
                cfg.saturation = raw
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<f64>()
                            .map_err(|_| format!("--saturation got unparsable rate '{s}'"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--codec" => {
                let raw: String = value(&mut args, "--codec")?;
                cfg.codec = Codec::from_wire(&raw)
                    .ok_or_else(|| format!("unknown codec '{raw}' (ndjson|bin1)"))?;
            }
            "--grid" => cfg.grid = Some(value(&mut args, "--grid")?),
            "--fleet-trace" => cfg.fleet_trace = Some(value(&mut args, "--fleet-trace")?),
            "--min-speedup" => cfg.min_speedup = Some(value(&mut args, "--min-speedup")?),
            "--min-table-speedup" => {
                cfg.min_table_speedup = Some(value(&mut args, "--min-table-speedup")?)
            }
            "--out" => cfg.out = Some(value(&mut args, "--out")?),
            "--compare" => cfg.compare = true,
            "--policy-compare" => cfg.policy_compare = true,
            "--miss-heavy" => cfg.miss_heavy = true,
            "--expect-identical" => cfg.expect_identical = true,
            "--check" => cfg.check = true,
            "--shutdown-after" => cfg.shutdown_after = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if cfg.addr.is_empty() {
        return Err("--addr is required".to_string());
    }
    if cfg.conns > 0 && cfg.rate.is_none() && cfg.saturation.is_empty() {
        return Err("--conns needs --rate or --saturation".to_string());
    }
    if cfg.rate.is_some() && cfg.conns == 0 {
        return Err("--rate needs --conns (the open loop's connection count)".to_string());
    }
    if cfg.fleet_trace.is_some() && (cfg.miss_heavy || cfg.grid.is_some()) {
        return Err("--fleet-trace replays a fixed stream; drop --miss-heavy/--grid".to_string());
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::JoinHandle;

    #[test]
    fn error_tally_covers_every_wire_tag() {
        use crate::proto::ErrorKind;
        let mut tally = ErrorTally::default();
        for kind in [
            ErrorKind::BadRequest,
            ErrorKind::Overloaded,
            ErrorKind::ShuttingDown,
        ] {
            tally.record(Some(kind.tag()));
        }
        tally.record(Some("not-a-known-tag"));
        tally.record(None);
        assert_eq!(
            tally,
            ErrorTally {
                bad_request: 1,
                overloaded: 1,
                shutting_down: 1,
                unknown: 2,
            }
        );
        assert_eq!(
            tally.describe(),
            "bad-request=1, overloaded=1, shutting-down=1, unknown=2"
        );
    }

    #[test]
    fn workload_is_deterministic_and_pool_heavy() {
        let cfg = LoadgenConfig {
            addr: "x".into(),
            requests: 100,
            ..Default::default()
        };
        let a = build_workload(&cfg, 3, false);
        let b = build_workload(&cfg, 3, false);
        assert_eq!(a, b, "same seed, same bytes");
        assert_eq!(a.len(), 100);
        // Streams are joined in order: the first 34 lines (100 = 34 +
        // 33 + 33) are stream 0, exactly what a one-stream run of 34
        // requests draws.
        let one = build_workload(
            &LoadgenConfig {
                requests: 34,
                ..cfg
            },
            1,
            false,
        );
        assert_eq!(a[..34], one[..]);
        // The warm mix repeats the pool: every line is a pool entry.
        let mut distinct: Vec<&String> = a.iter().collect();
        distinct.sort();
        distinct.dedup();
        assert!(distinct.len() <= POOL);
        // Lines must parse as valid decision requests.
        for line in &a {
            assert!(matches!(
                crate::proto::parse_request(line),
                Ok(crate::proto::Request::Decide(_))
            ));
        }
    }

    #[test]
    fn unique_fraction_diversifies_the_mix() {
        let cfg = LoadgenConfig {
            addr: "x".into(),
            requests: 200,
            ..Default::default()
        };
        let lines = build_workload(&cfg, 1, true);
        let mut distinct: Vec<&String> = lines.iter().collect();
        distinct.sort();
        distinct.dedup();
        assert!(distinct.len() > 150, "fresh params almost never collide");
    }

    #[test]
    fn split_latency_decomposes_pipelined_responses() {
        // Three requests sent together at t=0; responses arrive at
        // 10 µs, 20 µs, 30 µs. RTT accumulates the queueing (10/20/30)
        // while the service decomposition attributes 10 µs of server
        // work to each — which is what makes the client histogram
        // comparable to the server's.
        let mut prev = 0u64;
        let mut rtts = Vec::new();
        let mut services = Vec::new();
        for now in [10_000u64, 20_000, 30_000] {
            let (rtt, service) = split_latency(now, 0, prev);
            rtts.push(rtt);
            services.push(service);
            prev = now;
        }
        assert_eq!(rtts, vec![10.0, 20.0, 30.0]);
        assert_eq!(services, vec![10.0, 10.0, 10.0]);
        // An idle gap between responses is charged to neither stream
        // beyond the true interval: sent at 40 µs, answered at 45 µs.
        let (rtt, service) = split_latency(45_000, 40_000, prev);
        assert_eq!((rtt, service), (5.0, 5.0));
    }

    /// An in-test server for one connection: it must read `hold_after`
    /// request lines before it sends the first reply, which it holds
    /// for 50 ms; it answers every later request as soon as it reads it.
    fn held_reply_server(requests: usize, hold_after: usize) -> (String, JoinHandle<()>) {
        use std::io::{BufRead, BufReader};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            // A client that does not pipeline fails the test, not hangs it.
            let timeout = Some(Duration::from_secs(5));
            stream.set_read_timeout(timeout).expect("timeout");
            let mut writer = stream.try_clone().expect("clone");
            let mut lines = BufReader::new(stream).lines();
            let mut read = |n: usize| {
                for _ in 0..n {
                    lines.next().expect("eof").expect("read");
                }
            };
            read(hold_after);
            std::thread::sleep(Duration::from_millis(50));
            for i in 0..requests {
                read(usize::from(i >= hold_after));
                writer.write_all(b"{\"d_star\":100.0}\n").expect("reply");
            }
        });
        (addr, server)
    }

    // A held reply must not hide the next request's wait: at 1000 req/s
    // the second request is due 1 ms in, but its reply cannot come
    // before the held first reply lands 50 ms in, so its rtt (timed
    // from its scheduled send) is at least ~49 ms.
    #[test]
    fn open_loop_rtt_counts_from_the_scheduled_send() {
        let (addr, server) = held_reply_server(2, 1);
        let lines = vec![r#"{"platform":"airplane"}"#.to_string(); 2];
        let o = drive(&addr, &lines, 1, 1, Some(1000.0), Codec::Ndjson).expect("drive");
        server.join().expect("listener thread");
        assert_eq!(o.rtt_us.len(), 2);
        assert!(
            o.rtt_us[1] >= 40_000.0,
            "second rtt {} µs hides the stalled send",
            o.rtt_us[1]
        );
    }

    // Closed loop with window 2 pipelines: both request lines are on the
    // wire before the first reply, so the server can read the second
    // while it holds the first answer.
    #[test]
    fn closed_loop_window_pipelines_past_a_held_reply() {
        let (addr, server) = held_reply_server(3, 2);
        let lines = vec![r#"{"platform":"airplane"}"#.to_string(); 3];
        let o = drive(&addr, &lines, 1, 2, None, Codec::Ndjson).expect("drive");
        server
            .join()
            .expect("listener read both lines before replying");
        assert_eq!(o.d_stars, vec![100.0; 3]);
        assert!(o.rtt_us[0] >= 40_000.0, "first reply was held");
    }

    #[test]
    fn encode_request_bin1_round_trips_the_line() {
        let line = r#"{"platform":"quadrocopter","d0":42.5,"mdata":12,"rho":0.0002,"speed":7}"#;
        let mut out = BytesMut::new();
        encode_request(line, Codec::Bin1, &mut out).expect("encodable");
        let mut decoder = FrameDecoder::new();
        decoder.set_codec(Codec::Bin1);
        decoder.extend_from_slice(&out);
        let frame = decoder.next_frame().expect("frame").expect("complete");
        let Frame::Bin(payload) = frame else {
            panic!("bin1 encoding must yield a binary frame");
        };
        let decoded = match framing::decode_request_frame(&payload) {
            Ok(Request::Decide(p)) => p,
            other => panic!("expected decide, got {other:?}"),
        };
        let Ok(Request::Decide(reference)) = proto::parse_request(line) else {
            panic!("reference line must parse as a decide request");
        };
        assert_eq!(decoded.d0_m.to_bits(), reference.d0_m.to_bits());
        assert_eq!(decoded.v_mps.to_bits(), reference.v_mps.to_bits());
        // Control lines are not encodable as binary decides.
        let mut out = BytesMut::new();
        assert!(encode_request(r#"{"cmd":"stats"}"#, Codec::Bin1, &mut out).is_err());
    }

    /// Parse a whitespace-separated command line.
    fn parse(line: &str) -> Result<LoadgenConfig, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn args_parse_round_trip() {
        let cfg = parse(
            "--addr 127.0.0.1:9 --requests 500 --concurrency 2 --window 16 \
             --conns 128 --rate 5000 --saturation 1000,2000,4000 --codec bin1 \
             --grid quick --compare --policy-compare --miss-heavy --min-speedup 5 \
             --min-table-speedup 3 --expect-identical --check \
             --out BENCH_serve.json --shutdown-after",
        )
        .expect("valid args");
        assert_eq!(cfg.addr, "127.0.0.1:9");
        assert_eq!(cfg.requests, 500);
        assert_eq!(cfg.concurrency, 2);
        assert_eq!(cfg.window, 16);
        assert_eq!(cfg.conns, 128);
        assert_eq!(cfg.rate, Some(5000.0));
        assert_eq!(cfg.saturation, vec![1000.0, 2000.0, 4000.0]);
        assert_eq!(cfg.codec, Codec::Bin1);
        assert_eq!(cfg.grid, Some(GridMode::Quick));
        assert!(cfg.compare && cfg.check && cfg.expect_identical && cfg.shutdown_after);
        assert!(cfg.policy_compare && cfg.miss_heavy);
        assert_eq!(cfg.min_speedup, Some(5.0));
        assert_eq!(cfg.min_table_speedup, Some(3.0));
        assert_eq!(
            cfg.out.as_deref(),
            Some(std::path::Path::new("BENCH_serve.json"))
        );
        let spaced = ["--addr", "x", "--saturation", "1000, 2000"].map(String::from);
        assert_eq!(
            parse_args(spaced).expect("valid").saturation,
            [1000.0, 2000.0]
        );

        assert!(parse("--requests 5").is_err(), "addr required");
        assert!(parse("--frob").is_err());
        assert!(parse("--addr").is_err());
        assert!(parse("--addr x --grid vast").is_err(), "grids: quick|full");
        assert!(
            parse("--addr x --codec cbor").is_err(),
            "codecs: ndjson|bin1"
        );
        assert!(parse("--addr x --conns 8").is_err(), "--conns needs a rate");
        assert!(
            parse("--addr x --rate 100").is_err(),
            "--rate needs --conns"
        );
        assert!(parse("--addr x --seed 7").is_err(), "the seed is fixed");
        assert!(parse("--addr x --saturation 1000,fast").is_err());
    }

    #[test]
    fn fleet_trace_parses_to_decide_requests_in_arrival_order() {
        let jsonl = "\
{\"t\":14.1,\"uav\":1,\"station\":0,\"contenders\":2,\"platform\":\"quadrocopter\",\
\"d0\":114.5,\"mdata\":20,\"rho\":0.0076,\"speed\":4.5}\n\
{\"t\":9.9,\"uav\":3,\"station\":2,\"contenders\":3,\"platform\":\"quadrocopter\",\
\"d0\":109.2,\"mdata\":30,\"rho\":0.015,\"speed\":4.5}\n\
\n\
{\"t\":63.0,\"uav\":0,\"station\":1,\"contenders\":1,\"platform\":\"airplane\",\
\"d0\":210.0,\"mdata\":10,\"rho\":0.0005,\"speed\":30}\n";
        let wl = parse_fleet_trace(jsonl).expect("valid trace");
        assert_eq!(wl.arrivals_s, vec![9.9, 14.1, 63.0], "sorted by t");
        assert_eq!(wl.lines.len(), 3);
        for line in &wl.lines {
            let params = match crate::proto::parse_request(line) {
                Ok(crate::proto::Request::Decide(p)) => p,
                other => panic!("trace line must replay as a decide request, got {other:?}"),
            };
            assert!(params.d0_m > 0.0);
        }
        // The contended-equivalent parameters survive the re-render.
        assert!(wl.lines[0].contains("\"mdata\":30"));
        assert!(wl.lines[0].contains("\"rho\":0.015"));

        assert!(parse_fleet_trace("").is_err(), "empty trace is an error");
        assert!(
            parse_fleet_trace("{\"t\":1.0,\"platform\":\"quadrocopter\"}").is_err(),
            "missing request fields are an error"
        );
        assert!(parse_fleet_trace("not json").is_err());
    }

    #[test]
    fn trace_stats_separate_uniform_from_bursty() {
        // Uniform schedule: every gap identical, burstiness ~0.
        let uniform: Vec<f64> = (0..40).map(|i| i as f64 * 0.5).collect();
        let u = trace_stats(&uniform);
        assert_eq!(u.events, 40);
        assert!((u.span_s - 19.5).abs() < 1e-9);
        assert!((u.p50_gap_s - 0.5).abs() < 1e-9);
        assert!((u.p95_gap_s - 0.5).abs() < 1e-9);
        assert!(u.burstiness < 1e-9);

        // Bursty waves: tight clusters separated by long silences, the
        // fleet shape. p50 sees the in-wave gap, p95 the wave gap, and
        // the coefficient of variation is far above uniform.
        let mut bursty = Vec::new();
        for wave in 0..5 {
            for j in 0..8 {
                bursty.push(wave as f64 * 60.0 + j as f64 * 0.2);
            }
        }
        let b = trace_stats(&bursty);
        assert!((b.p50_gap_s - 0.2).abs() < 1e-9);
        assert!(b.p95_gap_s > 50.0);
        assert!(b.burstiness > 2.0, "waves must read as bursty");

        let empty = trace_stats(&[]);
        assert_eq!(empty.events, 0);
        assert_eq!(empty.burstiness, 0.0);
    }

    #[test]
    fn closed_loop_shares_are_contiguous_and_balanced() {
        let shares: Vec<usize> = (0..3).map(|t| share(10, 3, t)).collect();
        assert_eq!(shares, vec![4, 3, 3]);
        assert_eq!(share(10, 1, 0), 10);
        assert_eq!((0..4).map(|t| share(0, 4, t)).sum::<usize>(), 0);
        assert_eq!(
            (0..4).map(|t| share(2, 4, t)).collect::<Vec<_>>(),
            vec![1, 1, 0, 0]
        );
    }

    #[test]
    fn fleet_trace_args() {
        let cfg = parse("--addr x --fleet-trace fleet.jsonl --compare").expect("valid args");
        assert_eq!(
            cfg.fleet_trace.as_deref(),
            Some(std::path::Path::new("fleet.jsonl"))
        );
        assert!(cfg.compare);
        let fixed = "fleet trace replays a fixed stream";
        assert!(
            parse("--addr x --fleet-trace f --miss-heavy").is_err(),
            "{fixed}"
        );
        assert!(
            parse("--addr x --fleet-trace f --grid quick").is_err(),
            "{fixed}"
        );
        assert!(parse("--addr x --fleet-trace").is_err());
    }

    #[test]
    fn grid_aligned_workload_lands_on_cell_centres() {
        let cfg = LoadgenConfig {
            addr: "x".into(),
            requests: 120,
            grid: Some(GridMode::Quick),
            ..Default::default()
        };
        let grid = GridMode::Quick.grid();
        let mut lines = build_workload(&cfg, 2, false);
        lines.extend(build_workload(&cfg, 2, true));
        assert_eq!(lines.len(), 240);
        for line in &lines {
            let params = match crate::proto::parse_request(line) {
                Ok(crate::proto::Request::Decide(p)) => p,
                other => panic!("grid line must be a decide request, got {other:?}"),
            };
            let cell = grid
                .cell_of(&params)
                .unwrap_or_else(|| panic!("line off-grid: {line}"));
            // Wire round-trip must be bit-exact: the parsed parameters
            // ARE the cell centre, so the table serves this request.
            let centre = grid.params_at(cell);
            assert_eq!(params.platform, centre.platform);
            assert_eq!(params.d0_m.to_bits(), centre.d0_m.to_bits());
            assert_eq!(params.mdata_bytes.to_bits(), centre.mdata_bytes.to_bits());
            assert_eq!(params.rho_per_m.to_bits(), centre.rho_per_m.to_bits());
            assert_eq!(params.v_mps.to_bits(), centre.v_mps.to_bits());
        }
    }

    #[test]
    fn miss_workload_shares_schedule_but_diversifies() {
        let cfg = LoadgenConfig {
            addr: "x".into(),
            requests: 200,
            ..Default::default()
        };
        let warm = build_workload(&cfg, 2, false);
        let miss = build_workload(&cfg, 2, true);
        assert_eq!(warm.len(), miss.len(), "same per-connection split");
        let mut warm_distinct: Vec<&String> = warm.iter().collect();
        warm_distinct.sort();
        warm_distinct.dedup();
        assert!(warm_distinct.len() <= POOL);
        let mut miss_distinct: Vec<&String> = miss.iter().collect();
        miss_distinct.sort();
        miss_distinct.dedup();
        assert!(miss_distinct.len() > 150, "miss mix is essentially unique");
    }

    #[test]
    fn phase_grouping_and_labels() {
        let mk = |label: &'static str, d: Vec<f64>| PhaseReport {
            label,
            wall_s: 1.0,
            throughput_rps: 1.0,
            protocol_errors: 0,
            errors_by_kind: ErrorTally::default(),
            cache_hits: 0,
            rtt: LatencySummary::default(),
            service: LatencySummary::default(),
            connect: LatencySummary::default(),
            server_stats: json::parse(r#"{"latency":{"p50_us":12.5}}"#).expect("stats"),
            d_stars: d,
        };
        let a = mk("table", vec![1.0, 2.0]);
        let b = mk("cache", vec![1.0, 2.0]);
        let c = mk("no-cache", vec![1.0, 2.5]);
        assert_eq!(d_stars_identical(&[&a]), None);
        assert_eq!(d_stars_identical(&[&a, &b]), Some(true));
        assert_eq!(d_stars_identical(&[&a, &b, &c]), Some(false));
        // The digest is the cross-run form of the same comparison.
        assert_eq!(a.d_star_digest(), b.d_star_digest());
        assert_ne!(a.d_star_digest(), c.d_star_digest());
        assert_eq!(a.decide_p50_us(), Some(12.5));
    }

    #[test]
    fn report_json_carries_modes_and_saturation() {
        let mut cfg = LoadgenConfig {
            addr: "x".into(),
            ..Default::default()
        };
        cfg.rate = Some(100.0);
        cfg.conns = 256;
        cfg.codec = Codec::Bin1;
        let report = Report {
            phases: Vec::new(),
            saturation: vec![SatPoint {
                offered_rps: 1000.0,
                achieved_rps: 950.0,
                conns: 256,
                requests: 500,
                protocol_errors: 3,
                errors_by_kind: ErrorTally {
                    overloaded: 3,
                    ..Default::default()
                },
                rtt: LatencySummary {
                    p50_us: 80.0,
                    p95_us: 200.0,
                    p99_us: 400.0,
                },
                service: LatencySummary {
                    p50_us: 30.0,
                    p95_us: 60.0,
                    p99_us: 90.0,
                },
            }],
            speedup: None,
            speedup_miss: None,
            table_speedup: Some(7.25),
            table_speedup_miss: None,
            d_star_identical: None,
            fleet_trace: None,
            cfg,
        };
        let j = report.to_json();
        // The value at a `/`-separated path (array elements by index).
        let at = |path: &str| {
            path.split('/')
                .try_fold(&j, |v, k| match (v, k.parse::<usize>()) {
                    (Json::Arr(items), Ok(i)) => items.get(i),
                    _ => v.get(k),
                })
        };
        let num = |path: &str| at(path).and_then(Json::as_f64);
        assert_eq!(at("workload/mode"), Some(&Json::str("open-loop-conns")));
        assert_eq!(num("workload/rate_rps"), Some(100.0));
        assert_eq!(num("workload/conns"), Some(256.0));
        assert_eq!(at("workload/codec"), Some(&Json::str("bin1")));
        assert_eq!(at("workload/grid"), Some(&Json::Null));
        assert_eq!(at("workload/miss_heavy"), Some(&Json::Bool(false)));
        assert_eq!(at("speedup"), Some(&Json::Null));
        assert_eq!(num("table_speedup"), Some(7.25), "ratios survive");
        assert!(at("saturation/1").is_none(), "one sweep point");
        assert_eq!(num("saturation/0/offered_rps"), Some(1000.0));
        assert_eq!(num("saturation/0/achieved_rps"), Some(950.0));
        assert_eq!(num("saturation/0/latency_us/rtt/p50"), Some(80.0));
        assert_eq!(num("saturation/0/latency_us/service/p99"), Some(90.0));
        assert_eq!(num("saturation/0/errors_by_kind/overloaded"), Some(3.0));
    }
}

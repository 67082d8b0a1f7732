//! The load generator behind `skyferry-loadgen`.
//!
//! Drives a running `skyferryd` with a seeded, reproducible request mix
//! and measures it from the client side:
//!
//! * **closed-loop** (default): `concurrency` connections, each keeping
//!   `window` requests in flight (pipelined — an initial burst, then
//!   read-one-send-one), so throughput is bounded by the server, not by
//!   round trips;
//! * **open-loop** (`--rate R`): requests are launched on a fixed
//!   schedule split across the connections, so latency includes queue
//!   buildup when the server cannot keep up;
//! * **many-connection open-loop** (`--conns N --rate R`): one reactor
//!   ([`skyferry_reactor`]) event loop multiplexes N mostly-idle
//!   connections — the fleet-of-UAVs shape — and requests fire on a
//!   single global schedule round-robin across them. The same engine
//!   drives `--saturation R1,R2,...`, which sweeps offered load and
//!   records a latency-under-load curve in the report.
//!
//! Latency is reported three ways, because a pipelined client's raw
//! round trip is *not* comparable to the server's per-request service
//! time (that mismatch — ~4.2 ms client p50 vs ~29 µs server p50 — is
//! pure client-side pipeline queueing, not server work):
//!
//! * **rtt**: send (open loop: *scheduled* send, so coordinated
//!   omission is not hidden) to response — what a caller experiences,
//!   including time queued behind the rest of the pipeline window;
//! * **service**: the in-order decomposition
//!   `service_i = T_i − max(sent_i, T_{i−1})` (T = response arrival on
//!   the same connection) — the interval the server alone contributes
//!   to response `i`, directly comparable to the server-side histogram;
//! * **connect**: TCP connection setup, separated out instead of
//!   polluting the first request's latency.
//!
//! The mix comes from a `DetRng` stream: a `pool` of distinct parameter
//! tuples is drawn once, then each request either repeats a pool entry
//! or (with probability `unique_frac`) draws fresh parameters. The same
//! seed therefore replays byte-identical request lines — which is what
//! makes `--compare` meaningful: phase 1 runs with the decision cache
//! enabled, phase 2 disables it (`cache`/`reset` control requests),
//! same workload, and the report carries the throughput ratio plus a
//! per-request `d_star` comparison (bit-exact when the server runs in
//! exactness mode).
//!
//! `--codec bin1` negotiates the length-prefixed binary codec on every
//! measured connection before the clock starts; decide requests then
//! travel as raw `f64` bits, so `--expect-identical` holds across
//! codecs too.
//!
//! Two extensions exercise the paths a warm 64-key pool never touches:
//!
//! * `--miss-heavy` repeats every phase with a second, fully unique
//!   workload (`unique_frac = 1`), reported as `<label>-miss` — the
//!   uncached-optimizer floor and the table path under realistic churn;
//! * `--policy-compare` (against a `skyferryd --policy` server) runs
//!   three phases — `table` (policy on), `cache` (policy off, cache
//!   on), `no-cache` (both off) — and reports `table_speedup`;
//! * `--grid quick|full` draws requests *on* the compiled policy grid's
//!   cell centres, so table, cache and exact phases all solve
//!   bit-identical parameters and the `d_star` streams can be compared
//!   bitwise across all three.
//!
//! `--fleet-trace FILE` replaces the random mix with a recorded fleet
//! request stream (`repro --export-fleet-trace` JSONL): each line's
//! contended-equivalent `(platform, d0, mdata, rho, speed)` tuple is
//! replayed in arrival order, so a generic `skyferryd` solves exactly
//! the d\* the fleet campaign computed. The report gains the stream's
//! inter-arrival statistics (p50/p95 gap, burstiness = the gaps'
//! coefficient of variation — ~0 for a uniform schedule, >1 for the
//! fleet's bursty waves), and `--compare --expect-identical` gates the
//! replayed d\* streams bitwise across phases exactly as for the
//! uniform-pool workload.
//!
//! Client-side percentiles use the exact `stats::quantile` over the raw
//! latency samples; the report also embeds the server's own `STATS`
//! snapshot, and everything lands in `BENCH_serve.json` /
//! `BENCH_policy.json`.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::time::Duration;

use bytes::{BufMut, BytesMut};
use skyferry_core::policy::PolicyGrid;
use skyferry_core::request::DecisionParams;
use skyferry_reactor::{Event, Interest, Poller, Token};
use skyferry_sim::rng::{DetRng, SeedStream};
use skyferry_stats::json::{self, Json};
use skyferry_stats::quantile::quantile;
use skyferry_trace::clock::monotonic_ns;

use crate::framing::{self, BinResponse, Codec, Frame, FrameDecoder, FrameError};
use crate::proto::{self, Request};

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
}

impl std::str::FromStr for GridMode {
    type Err = String;
    fn from_str(s: &str) -> Result<GridMode, String> {
        match s {
            "quick" => Ok(GridMode::Quick),
            "full" => Ok(GridMode::Full),
            other => Err(format!("unknown grid '{other}' (quick|full)")),
        }
    }
}

/// Knobs of one load-generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:4517`.
    pub addr: String,
    /// Total requests per phase.
    pub requests: usize,
    /// Concurrent connections (closed-loop / split-rate mode).
    pub concurrency: usize,
    /// Pipelining window per connection (closed loop) / outstanding cap
    /// (open loop).
    pub window: usize,
    /// Open-loop request rate in req/s; `None` = closed loop. With
    /// `conns > 0` the rate is a single global schedule over the
    /// reactor-multiplexed connections, otherwise it is split across
    /// `concurrency` threads.
    pub rate: Option<f64>,
    /// Reactor-multiplexed connections for the many-connection open
    /// loop; `0` keeps the thread-per-connection driver.
    pub conns: usize,
    /// Offered-load sweep (req/s points) appended to the report as a
    /// latency-under-load saturation curve.
    pub saturation: Vec<f64>,
    /// Wire codec every measured connection negotiates up front.
    pub codec: Codec,
    /// Workload seed.
    pub seed: u64,
    /// Distinct parameter tuples in the repeated pool.
    pub pool: usize,
    /// Probability a request draws fresh parameters instead of reusing
    /// the pool.
    pub unique_frac: f64,
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
    /// Repeat every phase with a fully unique (`unique_frac = 1`)
    /// workload, reported as `<label>-miss`.
    pub miss_heavy: bool,
    /// With `--check`: fail unless cached/uncached throughput ratio
    /// reaches this.
    pub min_speedup: Option<f64>,
    /// With `--check`: fail unless table/uncached throughput ratio
    /// (miss-heavy variant when present) reaches this.
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
            seed: 0x5AFE_5EED,
            pool: 64,
            unique_frac: 0.0,
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

/// The per-connection request streams for one run: `lines[t]` is
/// connection `t`'s exact byte sequence. Pure function of the config,
/// so a second phase replays the identical workload.
pub fn build_workload(cfg: &LoadgenConfig) -> Vec<Vec<String>> {
    build_workload_unique(cfg, cfg.unique_frac)
}

/// Same streams with `unique_frac` overridden — the miss-heavy phases
/// replay the identical RNG schedule over a fully fresh mix.
fn build_workload_unique(cfg: &LoadgenConfig, unique_frac: f64) -> Vec<Vec<String>> {
    let grid = cfg.grid.map(|g| g.grid());
    let grid = grid.as_ref();
    let stream = SeedStream::new(cfg.seed);
    let mut pool_rng = stream.rng("loadgen-pool");
    let pool: Vec<String> = (0..cfg.pool.max(1))
        .map(|_| random_request_line(&mut pool_rng, grid))
        .collect();

    let threads = cfg.concurrency.max(1);
    (0..threads)
        .map(|t| {
            let mut rng = stream.rng_indexed("loadgen-mix", t as u64);
            let share = cfg.requests / threads + usize::from(t < cfg.requests % threads);
            (0..share)
                .map(|_| {
                    if rng.chance(unique_frac) {
                        random_request_line(&mut rng, grid)
                    } else {
                        pool[rng.index(pool.len())].clone()
                    }
                })
                .collect()
        })
        .collect()
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

/// Split a global request stream into per-connection slices, preserving
/// order within each slice (the same contiguous split
/// [`build_workload`] uses for its per-thread shares).
fn split_stream(lines: &[String], threads: usize) -> Vec<Vec<String>> {
    let threads = threads.max(1);
    let mut rest = lines;
    (0..threads)
        .map(|t| {
            let share = lines.len() / threads + usize::from(t < lines.len() % threads);
            let (head, tail) = rest.split_at(share);
            rest = tail;
            head.to_vec()
        })
        .collect()
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

/// What a response frame means to the measurement loop.
enum Reply {
    /// A solved decision.
    Decision { d_star: f64, cache_hit: bool },
    /// A typed `{"error": ...}` response (wire tag attached).
    ErrorTag(Option<String>),
}

/// Interpret one response frame from either codec.
fn classify_frame(frame: Frame) -> Result<Reply, LoadgenError> {
    let line = match frame {
        Frame::Bin(payload) => match framing::decode_response_frame(&payload)? {
            BinResponse::Decision(d) => {
                return Ok(Reply::Decision {
                    d_star: d.d_star,
                    cache_hit: d.cache_hit,
                })
            }
            BinResponse::Json(line) => line,
        },
        Frame::Line(line) => line,
    };
    let value = json::parse(line.trim())
        .map_err(|e| LoadgenError::Protocol(format!("unparsable response: {e}")))?;
    if let Some(err) = value.get("error") {
        return Ok(Reply::ErrorTag(err.as_str().map(str::to_string)));
    }
    let d_star = value
        .get("d_star")
        .and_then(Json::as_f64)
        .ok_or_else(|| LoadgenError::Protocol("response lacks d_star".into()))?;
    Ok(Reply::Decision {
        d_star,
        cache_hit: value.get("cache_hit").and_then(Json::as_bool) == Some(true),
    })
}

/// Pull the next frame off a blocking stream, reading as needed.
fn read_frame_blocking(
    stream: &mut TcpStream,
    decoder: &mut FrameDecoder,
) -> Result<Frame, LoadgenError> {
    let mut buf = [0u8; 16 * 1024];
    loop {
        if let Some(frame) = decoder.next_frame()? {
            return Ok(frame);
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(LoadgenError::Protocol(
                "server closed the connection mid-stream".into(),
            ));
        }
        decoder.extend_from_slice(&buf[..n]);
    }
}

/// Negotiate `codec` on a fresh connection (no-op for NDJSON). The ack
/// arrives in the old codec; only after it is checked does the decoder
/// switch, mirroring the server's parse-time seam.
fn negotiate_codec(
    stream: &mut TcpStream,
    decoder: &mut FrameDecoder,
    codec: Codec,
) -> Result<(), LoadgenError> {
    if codec == Codec::Ndjson {
        return Ok(());
    }
    let line = format!("{{\"cmd\":\"codec\",\"v\":\"{}\"}}\n", codec.wire_name());
    stream.write_all(line.as_bytes())?;
    let Frame::Line(ack) = read_frame_blocking(stream, decoder)? else {
        return Err(LoadgenError::Protocol(
            "codec ack arrived in the new codec".into(),
        ));
    };
    let value = json::parse(ack.trim())
        .map_err(|e| LoadgenError::Protocol(format!("unparsable codec ack: {e}")))?;
    if let Some(err) = value.get("error") {
        return Err(LoadgenError::Protocol(format!(
            "codec {} rejected: {}",
            codec.wire_name(),
            err.render()
        )));
    }
    decoder.set_codec(codec);
    Ok(())
}

/// Encode one workload line in the negotiated codec. NDJSON sends the
/// line verbatim; `bin1` re-parses it into [`DecisionParams`] and ships
/// the raw `f64` bits, so both codecs solve bit-identical parameters.
fn encode_request(line: &str, codec: Codec, out: &mut BytesMut) -> Result<(), LoadgenError> {
    match codec {
        Codec::Ndjson => {
            out.put_slice(line.as_bytes());
            out.put_u8(b'\n');
        }
        Codec::Bin1 => {
            let params = workload_params(line)?;
            framing::encode_decide_frame(&params, out);
        }
    }
    Ok(())
}

fn workload_params(line: &str) -> Result<DecisionParams, LoadgenError> {
    match proto::parse_request(line) {
        Ok(Request::Decide(p)) => Ok(p),
        _ => Err(LoadgenError::Protocol(format!(
            "workload line is not a decide request: {line}"
        ))),
    }
}

/// What one connection measured.
#[derive(Debug, Default, Clone)]
struct ThreadResult {
    rtt_us: Vec<f64>,
    service_us: Vec<f64>,
    connect_us: Vec<f64>,
    d_stars: Vec<f64>,
    cache_hits: u64,
    protocol_errors: u64,
    error_tally: ErrorTally,
}

impl ThreadResult {
    fn record_reply(&mut self, reply: Reply) {
        match reply {
            Reply::Decision { d_star, cache_hit } => {
                self.d_stars.push(d_star);
                if cache_hit {
                    self.cache_hits += 1;
                }
            }
            Reply::ErrorTag(tag) => {
                self.protocol_errors += 1;
                self.error_tally.record(tag.as_deref());
                self.d_stars.push(f64::NAN);
            }
        }
    }
}

/// Drive one connection through its request lines.
fn drive_connection(
    addr: &str,
    lines: &[String],
    window: usize,
    rate_per_conn: Option<f64>,
    codec: Codec,
) -> Result<ThreadResult, LoadgenError> {
    let mut result = ThreadResult::default();
    if lines.is_empty() {
        return Ok(result);
    }
    let t_conn_ns = monotonic_ns();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    result
        .connect_us
        .push(monotonic_ns().saturating_sub(t_conn_ns) as f64 / 1e3);
    let mut decoder = FrameDecoder::new();
    negotiate_codec(&mut stream, &mut decoder, codec)?;

    let window = window.max(1);
    let mut send_times: VecDeque<u64> = VecDeque::with_capacity(window);
    let mut sent = 0usize;
    let mut done = 0usize;
    let mut prev_done_ns = 0u64;
    let started_ns = monotonic_ns();
    let due_ns = |i: usize, rate: f64| started_ns + (i as f64 / rate * 1e9) as u64;

    while done < lines.len() {
        // Send while the window allows (and, open loop, the schedule
        // says the next request is due).
        let mut burst = BytesMut::new();
        let mut burst_n = 0usize;
        while sent < lines.len() && sent - done < window {
            if let Some(rate) = rate_per_conn {
                let due_ns = due_ns(sent, rate);
                let now_ns = monotonic_ns();
                if now_ns < due_ns {
                    if burst_n == 0 && done == sent {
                        // Nothing in flight and nothing due: sleep.
                        std::thread::sleep(Duration::from_nanos(due_ns - now_ns));
                    } else {
                        break;
                    }
                }
            }
            encode_request(&lines[sent], codec, &mut burst)?;
            sent += 1;
            burst_n += 1;
            if rate_per_conn.is_some() {
                break; // open loop: one request per due tick
            }
        }
        if !burst.is_empty() {
            stream.write_all(&burst)?;
            let now_ns = monotonic_ns();
            for i in sent - burst_n..sent {
                // Open loop: rtt runs from the *scheduled* send, so time
                // this request spent waiting behind a blocking read
                // still counts (no coordinated omission).
                send_times.push_back(rate_per_conn.map_or(now_ns, |rate| due_ns(i, rate)));
            }
        }
        if done < sent {
            let frame = read_frame_blocking(&mut stream, &mut decoder)?;
            let t_sent_ns = send_times
                .pop_front()
                .ok_or_else(|| LoadgenError::Protocol("response without a request".into()))?;
            let now_ns = monotonic_ns();
            let (rtt, service) = split_latency(now_ns, t_sent_ns, prev_done_ns);
            result.rtt_us.push(rtt);
            result.service_us.push(service);
            prev_done_ns = now_ns;
            result.record_reply(classify_frame(frame)?);
            done += 1;
        }
    }
    Ok(result)
}

/// One reactor-multiplexed connection of the many-connection open loop.
struct OpenConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    out_pos: usize,
    inflight: VecDeque<(usize, u64)>,
    prev_done_ns: u64,
    want_write: bool,
}

impl OpenConn {
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

/// What the many-connection open loop measured.
struct OpenLoopOutcome {
    wall_s: f64,
    rtt_us: Vec<f64>,
    service_us: Vec<f64>,
    connect_us: Vec<f64>,
    /// Indexed by global schedule order, so `d_star` streams stay
    /// deterministic regardless of which connection answered first.
    d_stars: Vec<f64>,
    cache_hits: u64,
    protocol_errors: u64,
    error_tally: ErrorTally,
}

/// Fire `lines` on a single global open-loop schedule at `rate` req/s,
/// round-robin across `conns` reactor-multiplexed connections.
///
/// Send stamps are the *scheduled* fire times, not the actual write
/// times, so when the server (or this client) falls behind, the backlog
/// shows up as latency instead of silently stretching the schedule
/// (coordinated omission). The fleet-of-UAVs shape falls out of the
/// numbers: with thousands of connections and a modest rate, almost
/// every connection is idle at any instant, yet all stay registered
/// with the poller.
fn drive_open_loop(
    addr: &str,
    lines: &[String],
    conns: usize,
    rate: f64,
    codec: Codec,
) -> Result<OpenLoopOutcome, LoadgenError> {
    let total = lines.len();
    let nconns = conns.max(1);
    let mut outcome = OpenLoopOutcome {
        wall_s: 1e-9,
        rtt_us: Vec::with_capacity(total),
        service_us: Vec::with_capacity(total),
        connect_us: Vec::with_capacity(nconns),
        d_stars: vec![f64::NAN; total],
        cache_hits: 0,
        protocol_errors: 0,
        error_tally: ErrorTally::default(),
    };
    if total == 0 {
        return Ok(outcome);
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
    let mut cs: Vec<OpenConn> = Vec::with_capacity(nconns);
    for i in 0..nconns {
        let t_conn_ns = monotonic_ns();
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        outcome
            .connect_us
            .push(monotonic_ns().saturating_sub(t_conn_ns) as f64 / 1e3);
        let mut decoder = FrameDecoder::new();
        negotiate_codec(&mut stream, &mut decoder, codec)?;
        stream.set_nonblocking(true)?;
        poller.register(stream.as_raw_fd(), Token(i as u64), Interest::READ);
        cs.push(OpenConn {
            stream,
            decoder,
            out: Vec::new(),
            out_pos: 0,
            inflight: VecDeque::new(),
            prev_done_ns: 0,
            want_write: false,
        });
    }

    let interval_ns = 1e9 / rate.max(1e-9);
    let t0_ns = monotonic_ns();
    let due_of = |i: usize| t0_ns + (i as f64 * interval_ns) as u64;
    let mut next = 0usize;
    let mut done = 0usize;
    let mut last_done_ns = t0_ns;
    let mut events: Vec<Event> = Vec::new();
    while done < total {
        // Launch everything the schedule says is due; a late wakeup
        // sends the whole backlog as one burst (open loop: the schedule
        // never stretches).
        let now_ns = monotonic_ns();
        while next < total && due_of(next) <= now_ns {
            let c = &mut cs[next % nconns];
            c.out.extend_from_slice(&encoded[next]);
            c.inflight.push_back((next, due_of(next)));
            next += 1;
        }
        for (i, c) in cs.iter_mut().enumerate() {
            if c.out_pos < c.out.len() {
                c.flush()?;
            }
            let want = c.out_pos < c.out.len();
            if want != c.want_write {
                let interest = if want {
                    Interest::READ_WRITE
                } else {
                    Interest::READ
                };
                poller.modify(Token(i as u64), interest);
                c.want_write = want;
            }
        }
        let timeout = if next < total {
            let gap_ns = due_of(next).saturating_sub(monotonic_ns());
            Some((gap_ns.div_ceil(1_000_000)).max(1) as i32)
        } else {
            None
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
                let (idx, due_ns) = c
                    .inflight
                    .pop_front()
                    .ok_or_else(|| LoadgenError::Protocol("response without a request".into()))?;
                let now_ns = monotonic_ns();
                let (rtt, service) = split_latency(now_ns, due_ns, c.prev_done_ns);
                outcome.rtt_us.push(rtt);
                outcome.service_us.push(service);
                c.prev_done_ns = now_ns;
                last_done_ns = now_ns;
                match classify_frame(frame)? {
                    Reply::Decision { d_star, cache_hit } => {
                        outcome.d_stars[idx] = d_star;
                        if cache_hit {
                            outcome.cache_hits += 1;
                        }
                    }
                    Reply::ErrorTag(tag) => {
                        outcome.protocol_errors += 1;
                        outcome.error_tally.record(tag.as_deref());
                    }
                }
                done += 1;
            }
            if eof && done < total {
                return Err(LoadgenError::Protocol(
                    "server closed the connection mid-stream".into(),
                ));
            }
        }
    }
    outcome.wall_s = (last_done_ns.saturating_sub(t0_ns) as f64 / 1e9).max(1e-9);
    Ok(outcome)
}

/// One control request over its own throwaway connection.
fn control(addr: &str, line: &str) -> Result<Json, LoadgenError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut write_half = stream.try_clone()?;
    write_half.write_all(line.as_bytes())?;
    write_half.write_all(b"\n")?;
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response)?;
    json::parse(response.trim())
        .map_err(|e| LoadgenError::Protocol(format!("unparsable control response: {e}")))
}

/// A control request that must be acknowledged: an `{"error": ...}`
/// answer (e.g. a `policy` toggle against a server with no table loaded)
/// aborts the run instead of silently measuring the wrong path.
fn control_ok(addr: &str, line: &str) -> Result<Json, LoadgenError> {
    let response = control(addr, line)?;
    if let Some(err) = response.get("error") {
        return Err(LoadgenError::Protocol(format!(
            "control {line} rejected: {}",
            err.render()
        )));
    }
    Ok(response)
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
    /// Per-connection `d_star` streams (for cross-phase comparison).
    d_stars: Vec<Vec<f64>>,
}

impl PhaseReport {
    /// The phase's `d_star` stream as raw bits, per-connection streams
    /// concatenated in connection order — the unit of the
    /// `--expect-identical` comparison, exposed so integration tests
    /// can also compare it *across* runs (shard counts, codecs).
    pub fn d_star_bits(&self) -> Vec<u64> {
        self.d_stars.iter().flatten().map(|d| d.to_bits()).collect()
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::str(self.label)),
            ("wall_s", Json::Fixed(self.wall_s, 4)),
            ("throughput_rps", Json::Fixed(self.throughput_rps, 1)),
            ("protocol_errors", Json::Int(self.protocol_errors as i64)),
            ("errors_by_kind", self.errors_by_kind.to_json()),
            ("cache_hits", Json::Int(self.cache_hits as i64)),
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
    /// Cached/uncached throughput ratio on the warm workload.
    pub speedup: Option<f64>,
    /// Cached/uncached throughput ratio on the miss-heavy workload.
    pub speedup_miss: Option<f64>,
    /// Table/uncached throughput ratio on the warm workload
    /// (`--policy-compare` only).
    pub table_speedup: Option<f64>,
    /// Table/uncached throughput ratio on the miss-heavy workload.
    pub table_speedup_miss: Option<f64>,
    /// Were the `d_star` streams bit-identical across the phases of
    /// each workload (warm phases vs warm, miss vs miss)?
    pub d_star_identical: Option<bool>,
    /// Inter-arrival statistics of the replayed stream (`--fleet-trace`
    /// only).
    pub fleet_trace: Option<TraceStats>,
    /// FNV-1a digest of the replayed `d_star` bit stream (`--fleet-trace`
    /// only): equal digests across separate runs — e.g. against servers
    /// with different shard counts — prove bit-identical responses.
    pub d_star_digest: Option<String>,
    cfg: LoadgenConfig,
}

impl Report {
    /// Serialise for `BENCH_serve.json` / `BENCH_policy.json`.
    pub fn to_json(&self) -> Json {
        let ratio = |r: Option<f64>| r.map(|s| Json::Fixed(s, 2)).unwrap_or(Json::Null);
        Json::obj([
            (
                "workload",
                Json::obj([
                    ("requests", Json::Int(self.cfg.requests as i64)),
                    ("concurrency", Json::Int(self.cfg.concurrency as i64)),
                    ("window", Json::Int(self.cfg.window as i64)),
                    (
                        "mode",
                        Json::str(if self.cfg.conns > 0 && self.cfg.rate.is_some() {
                            "open-loop-conns"
                        } else if self.cfg.rate.is_some() {
                            "open-loop"
                        } else {
                            "closed-loop"
                        }),
                    ),
                    (
                        "rate_rps",
                        self.cfg.rate.map(Json::Num).unwrap_or(Json::Null),
                    ),
                    ("conns", Json::Int(self.cfg.conns as i64)),
                    ("codec", Json::str(self.cfg.codec.wire_name())),
                    ("seed", Json::Int(self.cfg.seed as i64)),
                    ("pool", Json::Int(self.cfg.pool as i64)),
                    ("unique_frac", Json::Num(self.cfg.unique_frac)),
                    (
                        "grid",
                        match self.cfg.grid {
                            Some(GridMode::Quick) => Json::str("quick"),
                            Some(GridMode::Full) => Json::str("full"),
                            None => Json::Null,
                        },
                    ),
                    ("miss_heavy", Json::Bool(self.cfg.miss_heavy)),
                    ("policy_compare", Json::Bool(self.cfg.policy_compare)),
                    (
                        "fleet_trace",
                        self.cfg
                            .fleet_trace
                            .as_ref()
                            .map(|p| Json::str(p.display().to_string()))
                            .unwrap_or(Json::Null),
                    ),
                ]),
            ),
            (
                "fleet_trace_stats",
                self.fleet_trace
                    .map(TraceStats::to_json)
                    .unwrap_or(Json::Null),
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
                self.d_star_identical.map(Json::Bool).unwrap_or(Json::Null),
            ),
            (
                "d_star_digest",
                self.d_star_digest
                    .as_ref()
                    .map(Json::str)
                    .unwrap_or(Json::Null),
            ),
        ])
    }
}

/// FNV-1a (word-wise) over a phase's `d_star` bit stream. Reported in
/// `--fleet-trace` mode: equal digests from separate loadgen runs prove
/// the servers produced bit-identical decision streams.
fn d_star_stream_digest(phase: &PhaseReport) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in phase.d_star_bits() {
        h ^= b;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn run_phase(
    cfg: &LoadgenConfig,
    label: &'static str,
    workload: &[Vec<String>],
) -> Result<PhaseReport, LoadgenError> {
    if cfg.conns > 0 {
        if let Some(rate) = cfg.rate {
            return run_phase_open_loop(cfg, label, &workload[0], rate);
        }
    }
    let rate_per_conn = cfg.rate.map(|r| r / workload.len().max(1) as f64);
    let t0_ns = monotonic_ns();
    let results: Vec<Result<ThreadResult, LoadgenError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = workload
            .iter()
            .map(|lines| {
                scope.spawn(|| {
                    drive_connection(&cfg.addr, lines, cfg.window, rate_per_conn, cfg.codec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect()
    });
    let wall_s = monotonic_ns().saturating_sub(t0_ns) as f64 / 1e9;

    let mut rtt_us = Vec::new();
    let mut service_us = Vec::new();
    let mut connect_us = Vec::new();
    let mut d_stars = Vec::new();
    let mut protocol_errors = 0;
    let mut errors_by_kind = ErrorTally::default();
    let mut cache_hits = 0;
    for r in results {
        let r = r?;
        rtt_us.extend(r.rtt_us);
        service_us.extend(r.service_us);
        connect_us.extend(r.connect_us);
        d_stars.push(r.d_stars);
        protocol_errors += r.protocol_errors;
        errors_by_kind.merge(&r.error_tally);
        cache_hits += r.cache_hits;
    }
    let server_stats = control(&cfg.addr, r#"{"cmd":"stats"}"#)?;
    Ok(PhaseReport {
        label,
        wall_s,
        throughput_rps: rtt_us.len() as f64 / wall_s.max(1e-9),
        protocol_errors,
        errors_by_kind,
        cache_hits,
        rtt: LatencySummary::from_samples(&rtt_us),
        service: LatencySummary::from_samples(&service_us),
        connect: LatencySummary::from_samples(&connect_us),
        server_stats,
        d_stars,
    })
}

/// The many-connection variant of [`run_phase`]: the whole workload is
/// one global stream fired open-loop across `cfg.conns` connections.
fn run_phase_open_loop(
    cfg: &LoadgenConfig,
    label: &'static str,
    lines: &[String],
    rate: f64,
) -> Result<PhaseReport, LoadgenError> {
    let o = drive_open_loop(&cfg.addr, lines, cfg.conns, rate, cfg.codec)?;
    let server_stats = control(&cfg.addr, r#"{"cmd":"stats"}"#)?;
    Ok(PhaseReport {
        label,
        wall_s: o.wall_s,
        throughput_rps: lines.len() as f64 / o.wall_s,
        protocol_errors: o.protocol_errors,
        errors_by_kind: o.error_tally,
        cache_hits: o.cache_hits,
        rtt: LatencySummary::from_samples(&o.rtt_us),
        service: LatencySummary::from_samples(&o.service_us),
        connect: LatencySummary::from_samples(&o.connect_us),
        server_stats,
        d_stars: vec![o.d_stars],
    })
}

/// The `-miss` variant of a phase label.
fn miss_label(base: &str) -> &'static str {
    match base {
        "table" => "table-miss",
        "cache" => "cache-miss",
        "no-cache" => "no-cache-miss",
        _ => "single-miss",
    }
}

/// Bitwise `d_star` identity across a group of phases that replayed
/// the same workload; `None` when there is nothing to compare.
fn d_stars_identical(group: &[&PhaseReport]) -> Option<bool> {
    if group.len() < 2 {
        return None;
    }
    let first: Vec<u64> = group[0]
        .d_stars
        .iter()
        .flatten()
        .map(|d| d.to_bits())
        .collect();
    Some(group.iter().skip(1).all(|p| {
        p.d_stars
            .iter()
            .flatten()
            .map(|d| d.to_bits())
            .eq(first.iter().copied())
    }))
}

/// Sweep the offered-load points of `cfg.saturation` over the
/// many-connection open loop and return the curve. One `reset` precedes
/// the sweep, so the first point pays the pool's cache misses and the
/// rest measure the warm serving path — the curve's knee is the
/// capacity number BENCH_serve.json is after.
fn run_saturation(cfg: &LoadgenConfig) -> Result<Vec<SatPoint>, LoadgenError> {
    if cfg.saturation.is_empty() {
        return Ok(Vec::new());
    }
    let conns = if cfg.conns > 0 { cfg.conns } else { 64 };
    let flat_cfg = LoadgenConfig {
        concurrency: 1,
        ..cfg.clone()
    };
    let lines = build_workload(&flat_cfg).pop().unwrap_or_default();
    control_ok(&cfg.addr, r#"{"cmd":"reset"}"#)?;
    let mut curve = Vec::with_capacity(cfg.saturation.len());
    for &rate in &cfg.saturation {
        let o = drive_open_loop(&cfg.addr, &lines, conns, rate, cfg.codec)?;
        curve.push(SatPoint {
            offered_rps: rate,
            achieved_rps: lines.len() as f64 / o.wall_s,
            conns,
            requests: lines.len(),
            protocol_errors: o.protocol_errors,
            errors_by_kind: o.error_tally,
            rtt: LatencySummary::from_samples(&o.rtt_us),
            service: LatencySummary::from_samples(&o.service_us),
        });
    }
    Ok(curve)
}

/// Run the configured workload; on success the report is also written
/// to `cfg.out` (pretty JSON) when set.
pub fn run(cfg: &LoadgenConfig) -> Result<Report, LoadgenError> {
    // The many-connection open loop consumes the workload as one global
    // stream; build it as a single deterministic sequence there.
    let open_loop = cfg.conns > 0 && cfg.rate.is_some();
    let wl_cfg = LoadgenConfig {
        concurrency: if open_loop { 1 } else { cfg.concurrency },
        ..cfg.clone()
    };
    let fleet = match &cfg.fleet_trace {
        Some(path) => {
            let text = std::fs::read_to_string(path)?;
            Some(parse_fleet_trace(&text).map_err(LoadgenError::Protocol)?)
        }
        None => None,
    };
    let warm = match &fleet {
        Some(f) => split_stream(&f.lines, wl_cfg.concurrency),
        None => build_workload(&wl_cfg),
    };
    let miss = cfg.miss_heavy.then(|| build_workload_unique(&wl_cfg, 1.0));

    // One entry per server configuration: (base label, policy toggle,
    // cache toggle). Each runs the warm workload, then the miss-heavy
    // one when requested.
    let specs: Vec<(&'static str, Option<bool>, Option<bool>)> = if cfg.policy_compare {
        vec![
            ("table", Some(true), Some(true)),
            ("cache", Some(false), Some(true)),
            ("no-cache", Some(false), Some(false)),
        ]
    } else if cfg.compare {
        vec![("cache", None, Some(true)), ("no-cache", None, Some(false))]
    } else {
        vec![("single", None, None)]
    };
    let multi_phase = specs.len() > 1 || miss.is_some();

    let mut phases = Vec::new();
    for &(base, policy_on, cache_on) in &specs {
        if let Some(on) = cache_on {
            control_ok(&cfg.addr, &format!(r#"{{"cmd":"cache","enabled":{on}}}"#))?;
        }
        if let Some(on) = policy_on {
            control_ok(&cfg.addr, &format!(r#"{{"cmd":"policy","enabled":{on}}}"#))?;
        }
        let mut workloads: Vec<(&'static str, &Vec<Vec<String>>)> = vec![(base, &warm)];
        if let Some(m) = &miss {
            workloads.push((miss_label(base), m));
        }
        for (label, workload) in workloads {
            if multi_phase {
                control_ok(&cfg.addr, r#"{"cmd":"reset"}"#)?;
            }
            phases.push(run_phase(cfg, label, workload)?);
        }
    }
    // Restore the toggles the sweep changed.
    if cfg.policy_compare {
        control_ok(&cfg.addr, r#"{"cmd":"policy","enabled":true}"#)?;
    }
    if cfg.compare || cfg.policy_compare {
        control_ok(&cfg.addr, r#"{"cmd":"cache","enabled":true}"#)?;
    }

    let saturation = run_saturation(cfg)?;

    let rps = |label: &str| {
        phases
            .iter()
            .find(|p| p.label == label)
            .map(|p| p.throughput_rps)
    };
    let ratio = |num: Option<f64>, den: Option<f64>| match (num, den) {
        (Some(n), Some(d)) => Some(n / d.max(1e-9)),
        _ => None,
    };
    let speedup = ratio(rps("cache"), rps("no-cache"));
    let speedup_miss = ratio(rps("cache-miss"), rps("no-cache-miss"));
    let table_speedup = ratio(rps("table"), rps("no-cache"));
    let table_speedup_miss = ratio(rps("table-miss"), rps("no-cache-miss"));

    let warm_group: Vec<&PhaseReport> = phases
        .iter()
        .filter(|p| !p.label.ends_with("-miss"))
        .collect();
    let miss_group: Vec<&PhaseReport> = phases
        .iter()
        .filter(|p| p.label.ends_with("-miss"))
        .collect();
    let d_star_identical = match (
        d_stars_identical(&warm_group),
        d_stars_identical(&miss_group),
    ) {
        (None, None) => None,
        (a, b) => Some(a.unwrap_or(true) && b.unwrap_or(true)),
    };

    let d_star_digest = fleet
        .as_ref()
        .and_then(|_| phases.first().map(d_star_stream_digest));
    let report = Report {
        phases,
        saturation,
        speedup,
        speedup_miss,
        table_speedup,
        table_speedup_miss,
        d_star_identical,
        fleet_trace: fleet.as_ref().map(|f| trace_stats(&f.arrivals_s)),
        d_star_digest,
        cfg: cfg.clone(),
    };

    if let Some(out) = &cfg.out {
        std::fs::write(out, report.to_json().render_pretty())?;
    }
    if cfg.shutdown_after {
        let _ = control(&cfg.addr, r#"{"cmd":"shutdown"}"#);
    }

    if cfg.check {
        let errors: u64 = report.phases.iter().map(|p| p.protocol_errors).sum();
        if errors > 0 {
            let mut by_kind = ErrorTally::default();
            for p in &report.phases {
                by_kind.merge(&p.errors_by_kind);
            }
            return Err(LoadgenError::CheckFailed(format!(
                "{errors} protocol error responses ({})",
                by_kind.describe()
            )));
        }
        if report.phases.iter().any(|p| p.rtt.p99_us <= 0.0) {
            return Err(LoadgenError::CheckFailed("p99 latency is zero".into()));
        }
        if let (Some(min), Some(got)) = (cfg.min_speedup, report.speedup) {
            if got < min {
                return Err(LoadgenError::CheckFailed(format!(
                    "cache speedup {got:.2}x below required {min:.2}x"
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
                    "table speedup {got:.2}x below required {min:.2}x"
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
            "--seed" => cfg.seed = value(&mut args, "--seed")?,
            "--pool" => cfg.pool = value(&mut args, "--pool")?,
            "--unique-frac" => cfg.unique_frac = value(&mut args, "--unique-frac")?,
            "--grid" => cfg.grid = Some(value(&mut args, "--grid")?),
            "--fleet-trace" => {
                cfg.fleet_trace = Some(PathBuf::from(
                    args.next()
                        .ok_or("--fleet-trace needs a value".to_string())?,
                ))
            }
            "--min-speedup" => cfg.min_speedup = Some(value(&mut args, "--min-speedup")?),
            "--min-table-speedup" => {
                cfg.min_table_speedup = Some(value(&mut args, "--min-table-speedup")?)
            }
            "--out" => {
                cfg.out = Some(PathBuf::from(
                    args.next().ok_or("--out needs a value".to_string())?,
                ))
            }
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
    if cfg.fleet_trace.is_some() && (cfg.miss_heavy || cfg.grid.is_some()) {
        return Err("--fleet-trace replays a fixed stream; drop --miss-heavy/--grid".to_string());
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

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
            concurrency: 3,
            pool: 8,
            unique_frac: 0.0,
            ..Default::default()
        };
        let a = build_workload(&cfg);
        let b = build_workload(&cfg);
        assert_eq!(a, b, "same seed, same bytes");
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), 100);
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].len(), 34); // 100 = 34 + 33 + 33
                                    // unique_frac 0 ⇒ every line is one of the 8 pool entries.
        let mut distinct: Vec<&String> = a.iter().flatten().collect();
        distinct.sort();
        distinct.dedup();
        assert!(distinct.len() <= 8);
        // Lines must parse as valid decision requests.
        for line in a.iter().flatten() {
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
            concurrency: 1,
            pool: 4,
            unique_frac: 1.0,
            ..Default::default()
        };
        let lines = build_workload(&cfg);
        let mut distinct: Vec<&String> = lines.iter().flatten().collect();
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

    // A reply that stalls the client's blocking read must not hide the
    // next request's wait: at 1000 req/s the second request is due 1 ms
    // in, but cannot be written until the first reply lands 50 ms in,
    // so its rtt (timed from its scheduled send) is at least ~49 ms.
    #[test]
    fn open_loop_rtt_counts_from_the_scheduled_send() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            for i in 0..2 {
                let mut line = String::new();
                reader.read_line(&mut line).expect("request");
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(50));
                }
                writer.write_all(b"{\"d_star\":100.0}\n").expect("reply");
            }
        });
        let lines = vec![r#"{"platform":"airplane"}"#.to_string(); 2];
        let result =
            drive_connection(&addr, &lines, 1, Some(1000.0), Codec::Ndjson).expect("drive");
        server.join().expect("listener thread");
        assert_eq!(result.rtt_us.len(), 2);
        assert!(
            result.rtt_us[1] >= 40_000.0,
            "second rtt {} µs hides the stalled send",
            result.rtt_us[1]
        );
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
        let reference = workload_params(line).expect("reference params");
        assert_eq!(decoded.d0_m.to_bits(), reference.d0_m.to_bits());
        assert_eq!(decoded.v_mps.to_bits(), reference.v_mps.to_bits());
        // Control lines are not encodable as binary decides.
        let mut out = BytesMut::new();
        assert!(encode_request(r#"{"cmd":"stats"}"#, Codec::Bin1, &mut out).is_err());
    }

    #[test]
    fn args_parse_round_trip() {
        let cfg = parse_args(
            [
                "--addr",
                "127.0.0.1:9",
                "--requests",
                "500",
                "--concurrency",
                "2",
                "--window",
                "16",
                "--conns",
                "128",
                "--rate",
                "5000",
                "--saturation",
                "1000, 2000,4000",
                "--codec",
                "bin1",
                "--seed",
                "7",
                "--pool",
                "10",
                "--unique-frac",
                "0.25",
                "--grid",
                "quick",
                "--compare",
                "--policy-compare",
                "--miss-heavy",
                "--min-speedup",
                "5",
                "--min-table-speedup",
                "3",
                "--expect-identical",
                "--check",
                "--out",
                "BENCH_serve.json",
                "--shutdown-after",
            ]
            .into_iter()
            .map(String::from),
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
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.pool, 10);
        assert_eq!(cfg.unique_frac, 0.25);
        assert_eq!(cfg.grid, Some(GridMode::Quick));
        assert!(cfg.compare && cfg.check && cfg.expect_identical && cfg.shutdown_after);
        assert!(cfg.policy_compare && cfg.miss_heavy);
        assert_eq!(cfg.min_speedup, Some(5.0));
        assert_eq!(cfg.min_table_speedup, Some(3.0));
        assert_eq!(
            cfg.out.as_deref(),
            Some(std::path::Path::new("BENCH_serve.json"))
        );

        assert!(
            parse_args(["--requests".into(), "5".into()]).is_err(),
            "addr required"
        );
        assert!(parse_args(["--frob".into()]).is_err());
        assert!(parse_args(["--addr".into()]).is_err());
        assert!(
            parse_args(["--addr".into(), "x".into(), "--grid".into(), "vast".into()]).is_err(),
            "grid names are quick|full"
        );
        assert!(
            parse_args(["--addr".into(), "x".into(), "--codec".into(), "cbor".into()]).is_err(),
            "codec names are ndjson|bin1"
        );
        assert!(
            parse_args(["--addr".into(), "x".into(), "--conns".into(), "8".into()]).is_err(),
            "--conns without --rate or --saturation has no driver"
        );
        assert!(parse_args([
            "--addr".into(),
            "x".into(),
            "--saturation".into(),
            "1000,fast".into()
        ])
        .is_err());
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
    fn split_stream_preserves_order_and_balances_shares() {
        let lines: Vec<String> = (0..10).map(|i| format!("line-{i}")).collect();
        let split = split_stream(&lines, 3);
        assert_eq!(
            split.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![4, 3, 3]
        );
        let rejoined: Vec<String> = split.into_iter().flatten().collect();
        assert_eq!(rejoined, lines, "contiguous split preserves order");
        assert_eq!(split_stream(&lines, 1).len(), 1);
        assert_eq!(split_stream(&[], 4).iter().map(Vec::len).sum::<usize>(), 0);
    }

    #[test]
    fn fleet_trace_args() {
        let cfg = parse_args(
            ["--addr", "x", "--fleet-trace", "fleet.jsonl", "--compare"]
                .into_iter()
                .map(String::from),
        )
        .expect("valid args");
        assert_eq!(
            cfg.fleet_trace.as_deref(),
            Some(std::path::Path::new("fleet.jsonl"))
        );
        assert!(cfg.compare);
        assert!(
            parse_args(
                ["--addr", "x", "--fleet-trace", "f", "--miss-heavy"]
                    .into_iter()
                    .map(String::from)
            )
            .is_err(),
            "fleet trace replays a fixed stream"
        );
        assert!(parse_args(
            ["--addr", "x", "--fleet-trace", "f", "--grid", "quick"]
                .into_iter()
                .map(String::from)
        )
        .is_err());
        assert!(parse_args(["--addr".into(), "x".into(), "--fleet-trace".into()]).is_err());
    }

    #[test]
    fn grid_aligned_workload_lands_on_cell_centres() {
        let cfg = LoadgenConfig {
            addr: "x".into(),
            requests: 120,
            concurrency: 2,
            pool: 16,
            unique_frac: 0.5,
            grid: Some(GridMode::Quick),
            ..Default::default()
        };
        let grid = GridMode::Quick.grid();
        let lines = build_workload(&cfg);
        assert_eq!(lines.iter().map(Vec::len).sum::<usize>(), 120);
        for line in lines.iter().flatten() {
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
            concurrency: 2,
            pool: 4,
            unique_frac: 0.0,
            ..Default::default()
        };
        let warm = build_workload(&cfg);
        let miss = build_workload_unique(&cfg, 1.0);
        assert_eq!(
            warm.iter().map(Vec::len).collect::<Vec<_>>(),
            miss.iter().map(Vec::len).collect::<Vec<_>>(),
            "same per-connection split"
        );
        let mut warm_distinct: Vec<&String> = warm.iter().flatten().collect();
        warm_distinct.sort();
        warm_distinct.dedup();
        assert!(warm_distinct.len() <= 4);
        let mut miss_distinct: Vec<&String> = miss.iter().flatten().collect();
        miss_distinct.sort();
        miss_distinct.dedup();
        assert!(miss_distinct.len() > 150, "miss mix is essentially unique");
    }

    #[test]
    fn phase_grouping_and_labels() {
        assert_eq!(miss_label("table"), "table-miss");
        assert_eq!(miss_label("cache"), "cache-miss");
        assert_eq!(miss_label("no-cache"), "no-cache-miss");
        assert_eq!(miss_label("single"), "single-miss");

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
            server_stats: Json::Null,
            d_stars: vec![d],
        };
        let a = mk("table", vec![1.0, 2.0]);
        let b = mk("cache", vec![1.0, 2.0]);
        let c = mk("no-cache", vec![1.0, 2.5]);
        assert_eq!(d_stars_identical(&[&a]), None);
        assert_eq!(d_stars_identical(&[&a, &b]), Some(true));
        assert_eq!(d_stars_identical(&[&a, &b, &c]), Some(false));
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
            d_star_digest: None,
            cfg,
        };
        let j = report.to_json();
        let w = j.get("workload").expect("workload");
        assert_eq!(
            w.get("mode").and_then(Json::as_str),
            Some("open-loop-conns")
        );
        assert_eq!(w.get("rate_rps").and_then(Json::as_f64), Some(100.0));
        assert_eq!(w.get("conns").and_then(Json::as_f64), Some(256.0));
        assert_eq!(w.get("codec").and_then(Json::as_str), Some("bin1"));
        assert_eq!(w.get("grid"), Some(&Json::Null));
        assert_eq!(w.get("miss_heavy").and_then(Json::as_bool), Some(false));
        assert_eq!(j.get("speedup"), Some(&Json::Null));
        assert_eq!(
            j.get("table_speedup").and_then(Json::as_f64),
            Some(7.25),
            "ratio members survive the round trip"
        );
        let sat = match j.get("saturation") {
            Some(Json::Arr(points)) => points,
            other => panic!("saturation must be an array, got {other:?}"),
        };
        assert_eq!(sat.len(), 1);
        assert_eq!(
            sat[0].get("offered_rps").and_then(Json::as_f64),
            Some(1000.0)
        );
        assert_eq!(
            sat[0].get("achieved_rps").and_then(Json::as_f64),
            Some(950.0)
        );
        let lat = sat[0].get("latency_us").expect("latency_us");
        assert_eq!(
            lat.get("rtt")
                .and_then(|r| r.get("p50"))
                .and_then(Json::as_f64),
            Some(80.0)
        );
        assert_eq!(
            lat.get("service")
                .and_then(|r| r.get("p99"))
                .and_then(Json::as_f64),
            Some(90.0)
        );
        let errs = sat[0].get("errors_by_kind").expect("errors_by_kind");
        assert_eq!(errs.get("overloaded").and_then(Json::as_f64), Some(3.0));
    }
}

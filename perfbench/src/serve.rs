//! The serve workloads' timed phases against a running skyferryd.
//!
//! Sequence: connect, warm up, then a closed-loop phase and an open-loop
//! phase. Before each timed phase the client sends `reset` (zeroing the
//! daemon's counters and histograms, and emptying its LRU) and takes a
//! `stats` snapshot and the daemon's CPU time; it takes both again after
//! the phase and reports the difference. Stats fields the daemon does
//! not report are left out, not treated as failures. All replies are
//! checked against the reference once the timed phases are over.

use std::path::PathBuf;

use skyferry_core::policy::PolicyTable;
use skyferry_stats::json::Json;
use skyferry_trace as trace;
use skyferry_trace::clock::monotonic_ns;

use crate::drive::{self, closed_loop, open_loop, Codec, Conn, Record};
use crate::gen::{Mix, Workload};

/// Per-mix load shape.
struct Shape {
    codecs: &'static [Codec],
    /// Pipelined requests per connection in the closed loop.
    window: usize,
    /// Open-loop rate, req/s.
    rate: f64,
    /// Closed-loop decisions per `wall_s` batch.
    batch: usize,
}

fn shape(mix: Mix) -> Shape {
    match mix {
        // About half the closed-loop solve floor of a one-thread daemon.
        Mix::Solve => Shape {
            codecs: &[Codec::Ndjson],
            window: 32,
            rate: 6_000.0,
            batch: 5_000,
        },
        Mix::Table => Shape {
            codecs: &[Codec::Ndjson, Codec::Bin1],
            window: 64,
            rate: 50_000.0,
            batch: 50_000,
        },
    }
}

pub struct Opts {
    pub mix: Mix,
    pub addr: String,
    pub seed: u64,
    pub seconds: f64,
    pub pid: u32,
    pub clk_tck: u64,
    pub table: Option<PathBuf>,
    pub trace_out: Option<PathBuf>,
}

const WARMUP_S: f64 = 0.5;
/// Open-loop percentile window in requests: each window's p99 has ten
/// samples beyond it.
const OPEN_WINDOW: usize = 1000;
const DRAIN_NS: u64 = 3_000_000_000;

fn io(e: std::io::Error) -> String {
    e.to_string()
}

/// Closed loop for `secs` seconds; returns the record and the phase's
/// start and end instants.
fn closed_for(
    conns: &mut [Conn],
    wl: &Workload,
    base: u64,
    window: usize,
    secs: f64,
    traced: bool,
) -> Result<(Record, u64, u64), String> {
    let start = monotonic_ns();
    let deadline = start + (secs * 1e9) as u64;
    let rec = closed_loop(conns, wl, base, window, deadline, DRAIN_NS, traced).map_err(io)?;
    Ok((rec, start, monotonic_ns()))
}

/// Counter differences and end-of-phase percentiles from two snapshots.
fn server_delta(before: &Json, after: &Json, cpu_ns: Option<u64>) -> Json {
    let mut members = Vec::new();
    for key in [
        "decisions",
        "overloaded",
        "bad_requests",
        "cache.hits",
        "cache.misses",
        "policy.served",
        "policy.fallbacks",
    ] {
        if let (Some(a), Some(b)) = (drive::field(after, key), drive::field(before, key)) {
            members.push((key.to_string(), Json::Num(a - b)));
        }
    }
    for key in [
        "latency.count",
        "latency.p50_us",
        "latency.p99_us",
        "policy.latency.count",
        "policy.latency.p50_us",
        "policy.latency.p99_us",
    ] {
        if let Some(v) = drive::field(after, key) {
            members.push((key.to_string(), Json::Num(v)));
        }
    }
    if let Some(ns) = cpu_ns {
        members.push(("cpu_ns".to_string(), Json::Num(ns as f64)));
    }
    Json::Obj(members)
}

/// Nearest-rank percentile of unsorted samples.
fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// `min q1 median q3 max` of `v`, for the log.
fn quartiles(v: &[f64]) -> String {
    let mut v = v.to_vec();
    let q = [0.0f64, 0.25, 0.5, 0.75, 1.0].map(|q| percentile(&mut v, q.max(1e-9)));
    format!(
        "{:.6} {:.6} {:.6} {:.6} {:.6} over {}",
        q[0],
        q[1],
        q[2],
        q[3],
        q[4],
        v.len()
    )
}

/// The lower quartile of `v`. A stall of the shared host only ever adds
/// time, so the faster quarter of a run's windows or batches tracks the
/// program while discounting the stalls that spoil the rest; the median
/// moved with the host's load by several times more between runs.
fn lower_quartile(mut v: Vec<f64>) -> f64 {
    percentile(&mut v, 0.25)
}

/// Open-loop percentiles: the samples are cut into consecutive windows
/// of `window` scheduled requests, and each percentile is the lower
/// quartile over windows of the windows' own percentile. Returns
/// (latency p50, latency p99, generator lateness p99, windows).
fn windowed(samples: &mut [(u64, f64, f64)], window: usize) -> (f64, f64, f64, usize) {
    samples.sort_by_key(|s| s.0);
    let (mut p50, mut p99, mut late) = (Vec::new(), Vec::new(), Vec::new());
    for w in samples.chunks(window).filter(|w| w.len() * 2 >= window) {
        let mut lat: Vec<f64> = w.iter().map(|s| s.1).collect();
        let mut gen: Vec<f64> = w.iter().map(|s| s.2).collect();
        p50.push(percentile(&mut lat, 0.50));
        p99.push(percentile(&mut lat, 0.99));
        late.push(percentile(&mut gen, 0.99));
    }
    let n = p50.len();
    eprintln!("open-loop window p50 (us): {}", quartiles(&p50));
    eprintln!("open-loop window p99 (us): {}", quartiles(&p99));
    (
        lower_quartile(p50),
        lower_quartile(p99),
        lower_quartile(late),
        n,
    )
}

/// Wall times of consecutive `batch`-decision slices of a closed phase,
/// from the phase start and the reply arrival times: their lower
/// quartile, and how many there were.
fn batch_wall_s(start: u64, done: &mut [u64], batch: usize) -> (f64, usize) {
    done.sort_unstable();
    let mut walls = Vec::new();
    let mut prev = start;
    for chunk in done.chunks_exact(batch) {
        let end = chunk[batch - 1];
        walls.push(end.saturating_sub(prev) as f64 / 1e9);
        prev = end;
    }
    let n = walls.len();
    eprintln!("closed-loop batch wall (s): {}", quartiles(&walls));
    (lower_quartile(walls), n)
}

/// One timed phase's stats bracket.
struct Bracket {
    before: Json,
    cpu0: Option<u64>,
}

fn open_bracket(c: &mut Conn, pid: u32, clk_tck: u64) -> Result<Bracket, String> {
    let ack = c.control("{\"cmd\":\"reset\"}").map_err(io)?;
    if !ack.contains("\"ok\"") {
        return Err(format!("reset refused: {ack}"));
    }
    Ok(Bracket {
        before: drive::stats(c).map_err(io)?,
        cpu0: drive::process_cpu_ns(pid, clk_tck),
    })
}

fn close_bracket(b: Bracket, c: &mut Conn, pid: u32, clk_tck: u64) -> Result<Json, String> {
    let after = drive::stats(c).map_err(io)?;
    let cpu = match (b.cpu0, drive::process_cpu_ns(pid, clk_tck)) {
        (Some(a), Some(z)) => Some(z.saturating_sub(a)),
        _ => None,
    };
    Ok(server_delta(&b.before, &after, cpu))
}

pub fn run(o: &Opts) -> Result<Json, String> {
    let sh = shape(o.mix);
    let table = match (&o.table, o.mix) {
        (Some(p), Mix::Table) => Some(
            PolicyTable::load_file(p)
                .map_err(|e| format!("reference table {}: {e}", p.display()))?,
        ),
        (None, Mix::Table) => return Err("serve-table needs --table".into()),
        _ => None,
    };
    let wl = Workload::new(o.mix, o.seed, table);
    let traced = o.trace_out.is_some();
    if traced {
        trace::install(trace::TraceConfig::default());
    }
    let mut conns = sh
        .codecs
        .iter()
        .map(|&c| Conn::connect(&o.addr, c))
        .collect::<Result<Vec<_>, _>>()
        .map_err(io)?;

    // Warm-up: page in the daemon and fill the client buffers; checked,
    // not timed.
    let (warm, _, _) = closed_for(&mut conns, &wl, 0, sh.window, WARMUP_S, false)?;

    // Closed loop. A traced run alternates untraced and traced quarters
    // so the client-side span cost shows as `trace.overhead_frac`.
    let closed_s = 0.4 * o.seconds;
    let bracket = open_bracket(&mut conns[0], o.pid, o.clk_tck)?;
    let quarters: &[bool] = if traced {
        &[false, true, false, true]
    } else {
        &[false]
    };
    let mut closed = Record::default();
    let mut closed_start = None;
    let mut rate_by_mode = [(0u64, 0u64); 2];
    for (q, &traced_q) in quarters.iter().enumerate() {
        let _span = trace::span!("serve.closed", traced = traced_q);
        let base = (q as u64 + 1) << 40;
        let secs = closed_s / quarters.len() as f64;
        let (rec, start, end) = closed_for(&mut conns, &wl, base, sh.window, secs, traced_q)?;
        closed_start.get_or_insert(start);
        let slot = &mut rate_by_mode[traced_q as usize];
        slot.0 += rec.replies.len() as u64;
        slot.1 += end - start;
        closed.merge(rec);
    }
    let closed_end = closed.done_ns.iter().copied().max().unwrap_or(0);
    let closed_server = close_bracket(bracket, &mut conns[0], o.pid, o.clk_tck)?;
    let closed_start = closed_start.unwrap_or(0);
    let closed_elapsed_s = closed_end.saturating_sub(closed_start) as f64 / 1e9;
    let (wall_s, batches) = batch_wall_s(closed_start, &mut closed.done_ns, sh.batch);

    // Open loop at the workload's fixed rate.
    let open_s = 0.6 * o.seconds;
    let total = (sh.rate * open_s) as u64;
    let bracket = open_bracket(&mut conns[0], o.pid, o.clk_tck)?;
    let mut open = {
        let _span = trace::span!("serve.open", ops = total);
        open_loop(&mut conns, &wl, 10 << 40, sh.rate, total, DRAIN_NS, traced).map_err(io)?
    };
    let open_server = close_bracket(bracket, &mut conns[0], o.pid, o.clk_tck)?;

    // Stop recording before the reference solves, whose own optimizer
    // spans would otherwise fill the trace; then check every reply.
    let records = traced.then(trace::drain);
    let check = |rec: &Record| drive::verify(&wl, &rec.replies);
    let closed_bad = check(&closed);
    let mismatches = check(&warm) + closed_bad + check(&open);
    let closed_correct = closed.replies.len() as u64 - closed_bad;
    let correct_share = closed_correct as f64 / closed.replies.len().max(1) as f64;
    let samples = open.open_samples.len();
    let (p50, p99, late_p99, windows) = windowed(&mut open.open_samples, OPEN_WINDOW);

    let shares = |rec: &Record| {
        let n = rec.replies.len().max(1) as f64;
        Json::obj([
            ("table", Json::Num(rec.policy_hits as f64 / n)),
            ("lru", Json::Num(rec.cache_hits as f64 / n)),
        ])
    };
    let closed_shares = shares(&closed);
    let open_shares = shares(&open);
    let mut all = warm;
    all.merge(closed);
    all.merge(open);

    let mut out = vec![
        ("sent", Json::Int(all.sent as i64)),
        ("replies", Json::Int(all.replies.len() as i64)),
        ("errors", Json::Int(all.errors as i64)),
        ("missing", Json::Int(all.missing() as i64)),
        ("mismatches", Json::Int(mismatches as i64)),
        (
            "first_error",
            all.first_error.map(Json::Str).unwrap_or(Json::Null),
        ),
        (
            "closed",
            Json::obj([
                ("elapsed_s", Json::Num(closed_elapsed_s)),
                ("correct", Json::Int(closed_correct as i64)),
                (
                    "throughput_rps",
                    Json::Num(correct_share * sh.batch as f64 / wall_s),
                ),
                ("batch", Json::Int(sh.batch as i64)),
                ("batches", Json::Int(batches as i64)),
                ("wall_s", Json::Num(wall_s)),
                ("client_shares", closed_shares),
                ("server", closed_server),
            ]),
        ),
        (
            "open",
            Json::obj([
                ("rate", Json::Num(sh.rate)),
                ("samples", Json::Int(samples as i64)),
                ("windows", Json::Int(windows as i64)),
                ("p50_us", Json::Num(p50)),
                ("p99_us", Json::Num(p99)),
                ("late_p99_us", Json::Num(late_p99)),
                ("client_shares", open_shares),
                ("server", open_server),
            ]),
        ),
    ];
    if let Some(records) = records {
        let rate = |(n, ns): (u64, u64)| n as f64 / (ns.max(1) as f64 / 1e9);
        let overhead = rate(rate_by_mode[0]) / rate(rate_by_mode[1]).max(1e-9) - 1.0;
        out.push(("trace_overhead_frac", Json::Num(overhead)));
        if let Some(path) = &o.trace_out {
            if let Err(e) = trace::sink::write_file(path, &records) {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
            }
        }
        crate::spans::log_self_times("serve", &records);
    }
    Ok(Json::obj(out))
}

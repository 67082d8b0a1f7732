#!/usr/bin/env python3
"""skyferry benchmark: one command, three workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload repro|serve-solve|serve-table \
        --seed N --seconds S --trace 0|1

The script builds `repro`, `skyferryd` and this directory's `perfbench`
package from source (into $CARGO_TARGET_DIR, default `.bench_build`),
runs the workload, checks every output, and prints one JSON object as
the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of
BENCHMARK.json; with `--trace 1` the per-layer metrics. Progress and
diagnostics go to stderr. See perfbench/NOTES.md for what each metric
means on each workload.
"""

import argparse
import hashlib
import json
import os
import re
import select
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("repro", "serve-solve", "serve-table")
NPROC = os.cpu_count() or 1
CLK_TCK = os.sysconf("SC_CLK_TCK")
EXPERIMENTS = 14
REPRO_SETUPS = 5
SERVE_SETUPS = 5
# A short serve-table pass gives the server.* and gen.* layer metrics
# in traced runs of workloads that do not run the daemon.
SURVEY_SERVE_SECONDS = 4

CHILDREN = []


def log(*args):
    print(*args, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed check)."""


def spawn(args, **kw):
    p = subprocess.Popen(args, cwd=ROOT, **kw)
    CHILDREN.append(p)
    return p


def reap_all():
    for p in CHILDREN:
        if p.returncode is None and p.poll() is None:
            p.kill()
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                log(f"perfbench: pid {p.pid} did not exit after SIGKILL")


def median(values):
    return statistics.median(values)


def lower_quartile(values):
    """A stall of the shared host only ever adds time, so the faster
    quarter of a run's samples tracks the program; the median moved with
    the host's load several times more between runs."""
    values = list(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def target_dir():
    return os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))


def exe(name):
    return os.path.join(target_dir(), "release", name)


def check_checkout():
    needed = ["Cargo.toml", "Cargo.lock", "crates/bench/Cargo.toml", "crates/serve/Cargo.toml", "results"]
    missing = [n for n in needed if not os.path.exists(os.path.join(ROOT, n))]
    if missing:
        raise BenchError("not a skyferry checkout (missing " + ", ".join(missing) + ")")


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "skyferry-bench", "-p", "skyferry-serve",
         "--bin", "repro", "--bin", "skyferryd"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
    ):
        p = spawn(cmd, env=env, stdout=sys.stderr)
        if p.wait() != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def run_child(args, workdir, name, timeout=170):
    """Run a program to completion with stdout/stderr in files; return
    (exit code, wall seconds, rusage, stdout text, stderr text)."""
    out_path = os.path.join(workdir, name + ".out")
    err_path = os.path.join(workdir, name + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = spawn(args, stdout=out, stderr=err)
        deadline = t0 + timeout
        while True:
            pid, status, usage = os.wait4(p.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                p.kill()
                pid, status, usage = os.wait4(p.pid, 0)
                break
            time.sleep(0.002)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        stdout = f.read()
    with open(err_path, encoding="utf-8", errors="replace") as f:
        stderr = f.read()
    return p.returncode, wall, usage, stdout, stderr


# ---------------------------------------------------------------- repro

def repro_seed(seed, i):
    """`repro --seed` for reproduction `i`: none (the default seed, at
    which results/ holds the goldens) for the first, seeds derived from
    the benchmark seed for the rest. Their tables are digested, not
    diffed."""
    if i == 0:
        return None
    return (seed * 1_000_003 + i * 7919) % (1 << 32) + 1


def repro_once(workdir, seed, i, trace_path=None):
    s = repro_seed(seed, i)
    args = [exe("repro"), "--verify", "--json", "--threads", str(NPROC)]
    if s is not None:
        args += ["--seed", str(s)]
    if trace_path:
        args += ["--trace", trace_path]
    code, wall, usage, out, err = run_child(args, workdir, f"repro-{i}")
    times = {m.group(1): float(m.group(2)) for m in re.finditer(r"^\[(\w+): ([0-9.]+) s\]$", err, re.M)}
    verify = re.search(r"^verify: (.*)$", err, re.M)
    lines = out.rstrip("\n").split("\n")
    try:
        footer = json.loads(lines[-1])["campaign_store"]
    except (ValueError, KeyError, IndexError):
        footer = None
    digest = hashlib.sha256("\n".join(lines[:-1]).encode()).hexdigest()[:16]
    if s is None:
        ok = code == 0 and verify is not None and verify.group(1).startswith("all tables match")
    else:
        ok = code in (0, 1) and verify is not None
    ok = ok and len(times) == EXPERIMENTS and footer is not None
    if not ok:
        log(f"repro iteration {i} (seed {s}) FAILED: exit {code}, verify: "
            f"{verify.group(1) if verify else 'missing'}, {len(times)} timings")
        log(err[-2000:])
    else:
        log(f"repro seed {'golden' if s is None else s}: {wall:.3f} s, tables digest {digest}"
            + ("" if s is None else f" ({verify.group(1)})"))
    return {
        "ok": ok,
        "wall": wall,
        "times": times,
        "footer": footer,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def run_repro(workdir, seed, seconds, traced, min_runs=3):
    setups = []
    ok_setups = 0
    for k in range(REPRO_SETUPS):
        code, wall, _, out, _ = run_child([exe("repro"), "--list"], workdir, "repro-list")
        setups.append(wall)
        ok_setups += code == 0 and out.count("campaigns:") == EXPERIMENTS
    runs = []
    start = time.perf_counter()
    i = 0
    while i < min_runs or time.perf_counter() - start < seconds:
        trace_path = os.path.join(workdir, "repro-trace.jsonl") if traced and i % 2 == 1 else None
        r = repro_once(workdir, seed, i, trace_path)
        r["traced"] = trace_path is not None
        runs.append(r)
        i += 1
    good = [r for r in runs if r["ok"]] or runs
    res = {
        "attempted": REPRO_SETUPS + len(runs),
        "failed": (REPRO_SETUPS - ok_setups) + sum(not r["ok"] for r in runs),
        "runs": good,
    }
    plain = [r for r in good if not r["traced"]] or good
    wall = lower_quartile(r["wall"] for r in plain)
    log("repro walls (s): " + " ".join(f"{r['wall']:.3f}" for r in good))
    res["metrics"] = {
        "setup_s": (median(setups), "s"),
        "wall_s": (wall, "s"),
        "throughput_rps": (EXPERIMENTS / wall, "1/s"),
        "decide_p50_us": (lower_quartile(median(r["times"].values()) for r in plain) * 1e6, "us"),
        "decide_p99_us": (lower_quartile(max(r["times"].values()) for r in plain) * 1e6, "us"),
        "rss_mb": (median([r["rss_mb"] for r in good]), "MB"),
    }
    if traced:
        tr = [r["wall"] for r in good if r["traced"]]
        res["overhead"] = median(tr) / median(r["wall"] for r in plain) - 1.0 if tr else 0.0
    return res


def repro_layers(runs):
    m = {}
    named = ["fig5", "fig6", "fig7", "ablations", "extensions", "fleet", "traj"]
    for name in named:
        m[f"experiments.{name}_s"] = (median([r["times"][name] for r in runs]), "s")
    m["experiments.other_s"] = (
        median([sum(v for k, v in r["times"].items() if k not in named) for r in runs]), "s")
    m["store.fill_s"] = (median([r["footer"]["fill_s"] for r in runs]), "s")
    m["store.misses"] = (median([r["footer"]["misses"] for r in runs]), "count")
    m["store.hits"] = (median([r["footer"]["hits"] for r in runs]), "count")
    m["repro.cpu_s"] = (median([r["cpu_s"] for r in runs]), "s")
    return m


# ---------------------------------------------------------------- serve

def read_line(proc, timeout):
    """One stdout line from `proc` within `timeout` seconds, or None."""
    deadline = time.perf_counter() + timeout
    buf = b""
    fd = proc.stdout.fileno()
    while time.perf_counter() < deadline:
        ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.perf_counter()))
        if not ready:
            break
        chunk = os.read(fd, 4096)
        if not chunk:
            break
        buf += chunk
        if b"\n" in buf:
            return buf.split(b"\n", 1)[0].decode()
    return None


def control(sock, line):
    sock.sendall(line.encode() + b"\n")
    buf = b""
    while b"\n" not in buf:
        chunk = sock.recv(4096)
        if not chunk:
            raise BenchError("daemon closed the control connection")
        buf += chunk
    return buf.split(b"\n", 1)[0].decode()


def stop_daemon(proc):
    """The daemon holds no state worth a graceful drain: kill it."""
    proc.kill()
    proc.wait()
    proc.stdout.close()


def setup_serve(workdir, mix):
    """Everything before the first timed request. Returns (seconds,
    daemon, address)."""
    t0 = time.perf_counter()
    # One shard, and one thread for its solves: the daemon holds one of
    # the two cores and the single-threaded client the other.
    args = [exe("skyferryd"), "--addr", "127.0.0.1:0", "--exact", "--shards", "1", "--threads", "1"]
    if mix == "table":
        table = os.path.join(workdir, "policy.bin")
        code, _, _, _, err = run_child(
            [exe("repro"), "--compile-policy", table, "--quick", "--threads", str(NPROC)], workdir, "compile")
        if code != 0:
            raise BenchError("policy compile failed: " + err[-500:])
        args += ["--policy", table]
    err = open(os.path.join(workdir, "skyferryd.err"), "ab")
    proc = spawn(args, stdout=subprocess.PIPE, stderr=err)
    err.close()
    line = read_line(proc, 30)
    if not line or not line.startswith("listening on "):
        proc.kill()
        proc.wait()
        raise BenchError(f"skyferryd did not start (got {line!r})")
    host, port = line[len("listening on "):].rsplit(":", 1)
    addr = (host, int(port))
    socks = [socket.create_connection(addr)]
    if mix == "table":
        socks.append(socket.create_connection(addr))
        ack = control(socks[1], '{"cmd":"codec","v":"bin1"}')
        if '"ok"' not in ack:
            raise BenchError("codec negotiation refused: " + ack)
    for s in socks:
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    elapsed = time.perf_counter() - t0
    for s in socks:
        s.close()
    return elapsed, proc, addr


def vm_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM in /proc status")


def run_serve(workdir, mix, seed, seconds, trace_out):
    setups = []
    for k in range(SERVE_SETUPS):
        elapsed, proc, addr = setup_serve(workdir, mix)
        setups.append(elapsed)
        if k < SERVE_SETUPS - 1:
            stop_daemon(proc)
    try:
        args = [exe("perfbench"), "drive", "--mix", mix, "--addr", f"{addr[0]}:{addr[1]}",
                "--pid", str(proc.pid), "--clk-tck", str(CLK_TCK), "--seed", str(seed),
                "--seconds", str(seconds)]
        if mix == "table":
            args += ["--table", os.path.join(workdir, "policy.bin")]
        if trace_out:
            args += ["--trace-out", trace_out]
        code, _, _, out, err = run_child(args, workdir, "drive")
        sys.stderr.write(err)
        if code != 0:
            raise BenchError(f"perfbench drive exited {code}")
        d = json.loads(out.strip().split("\n")[-1])
        rss = vm_hwm_mb(proc.pid)
    finally:
        stop_daemon(proc)
    if d["first_error"]:
        log(f"first error reply: {d['first_error']}")
    closed, opened = d["closed"], d["open"]
    log(f"serve-{mix}: closed {closed['throughput_rps']:.0f} rps over {closed['elapsed_s']:.2f} s "
        f"({closed['batches']} batches of {closed['batch']}); open {opened['rate']:.0f} req/s: "
        f"p50 {opened['p50_us']:.1f} us, p99 {opened['p99_us']:.1f} us (lower quartiles over {opened['windows']} windows, "
        f"{opened['samples']} samples), "
        f"generator late p99 {opened['late_p99_us']:.1f} us; "
        f"client shares closed {closed['client_shares']}, open {opened['client_shares']}")
    failed = d["errors"] + d["missing"] + d["mismatches"]
    res = {
        "attempted": d["sent"],
        "failed": failed,
        "drive": d,
        "metrics": {
            "setup_s": (median(setups), "s"),
            "wall_s": (closed["wall_s"], "s"),
            "throughput_rps": (closed["throughput_rps"], "1/s"),
            "decide_p50_us": (opened["p50_us"], "us"),
            "decide_p99_us": (opened["p99_us"], "us"),
            "rss_mb": (rss, "MB"),
        },
    }
    if trace_out:
        res["overhead"] = d.get("trace_overhead_frac", 0.0)
    return res


def serve_layers(d):
    """server.* and gen.* from one drive report; fields the daemon did
    not report are left out."""
    m = {}
    closed, opened = d["closed"], d["open"]
    srv = opened["server"]
    decisions = srv.get("decisions")
    # Service time of the path that served most of the open phase.
    table_path = srv.get("policy.served", 0) * 2 > (decisions or 0)
    prefix = "policy.latency." if table_path else "latency."
    if prefix + "p50_us" in srv:
        m["server.service_p50_us"] = (srv[prefix + "p50_us"], "us")
        m["server.client_gap_p50_us"] = (opened["p50_us"] - srv[prefix + "p50_us"], "us")
    if prefix + "p99_us" in srv:
        m["server.service_p99_us"] = (srv[prefix + "p99_us"], "us")
    if decisions:
        m["server.table_frac"] = (srv.get("policy.served", 0) / decisions, "ratio")
        if "cache.hits" in srv:
            m["server.cache_hit_frac"] = (srv["cache.hits"] / decisions, "ratio")
        if "cache.misses" in srv:
            m["server.solve_frac"] = (srv["cache.misses"] / decisions, "ratio")
    if "overloaded" in srv and "overloaded" in closed["server"]:
        m["server.overloaded"] = (srv["overloaded"] + closed["server"]["overloaded"], "count")
    both = [closed["server"], srv]
    if all("cpu_ns" in s and "decisions" in s for s in both):
        n = sum(s["decisions"] for s in both)
        m["server.cpu_us_per_decision"] = (sum(s["cpu_ns"] for s in both) / 1e3 / max(n, 1), "us")
    m["gen.late_p99_us"] = (opened["late_p99_us"], "us")
    m["gen.decide_samples"] = (opened["samples"], "count")
    return m


# ---------------------------------------------------------------- layers

LAYER_UNITS = {
    "campaign.sim_second_us": "us", "mac.txop_ns": "ns", "mac.subframes_per_txop": "count",
    "mac.delivered_frac": "ratio", "mac.idle_frac": "ratio", "mac.rate_ctrl_ns": "ns",
    "phy.subframe_ns": "ns", "phy.fading_ns": "ns", "optimizer.solve_us": "us",
    "optimizer.evals_per_solve": "count", "policy.build_s": "s", "policy.load_ms": "ms",
    "policy.lookup_ns": "ns", "quantizer.key_ns": "ns", "proto.parse_ns": "ns", "proto.render_ns": "ns",
    "framing.decode_ndjson_ns": "ns", "framing.decode_bin1_ns": "ns", "framing.bin1_encode_ns": "ns",
    "traj.plan_ms": "ms", "fleet.campaign_ms": "ms",
}


def inprocess_layers(workdir, seed):
    code, _, _, out, err = run_child(
        [exe("perfbench"), "layers", "--seed", str(seed), "--workdir", workdir,
         "--trace-out", os.path.join(workdir, "layers-trace.jsonl")], workdir, "layers")
    sys.stderr.write(err)
    if code != 0:
        raise BenchError(f"perfbench layers exited {code}")
    values = json.loads(out.strip().split("\n")[-1])
    return {k: (v, LAYER_UNITS[k]) for k, v in values.items()}


# ---------------------------------------------------------------- main

def cpu_ticks():
    """(busy, steal) clock ticks of the whole machine, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return sum(fields[:3]) + sum(fields[5:7]), fields[7]


def run(workload, seed, seconds, traced):
    workdir = os.path.join(target_dir(), "perfbench-work", workload)
    os.makedirs(workdir, exist_ok=True)
    trace_out = os.path.join(workdir, "serve-trace.jsonl") if traced else None
    if workload == "repro":
        res = run_repro(workdir, seed, seconds, traced)
    else:
        res = run_serve(workdir, workload.split("-")[1], seed, seconds, trace_out)
    attempted, failed = res["attempted"], res["failed"]
    # decide_p99_us moves with the host's load more than any bound allows
    # (see NOTES.md), so it is reported with the per-layer metrics.
    p99 = res["metrics"].pop("decide_p99_us")
    if not traced:
        return attempted, failed, res["metrics"]

    layers = inprocess_layers(workdir, seed)
    layers["decide_p99_us"] = p99
    layers["trace.overhead_frac"] = (res["overhead"], "ratio")
    if workload == "repro":
        layers.update(repro_layers(res["runs"]))
        survey = run_serve(workdir, "table", seed, SURVEY_SERVE_SECONDS, None)
        layers.update(serve_layers(survey["drive"]))
    else:
        layers.update(serve_layers(res["drive"]))
        survey = run_repro(workdir, seed, 0, False, min_runs=1)
        layers.update(repro_layers(survey["runs"]))
    attempted += survey["attempted"]
    failed += survey["failed"]
    return attempted, failed, layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    try:
        check_checkout()
        build()
        busy0, steal0 = cpu_ticks()
        attempted, failed, metrics = run(a.workload, a.seed, a.seconds, a.trace == 1)
        busy1, steal1 = cpu_ticks()
        # Time the hypervisor gave to other guests while this run wanted
        # a core: the main source of run-to-run spread on a shared host.
        log(f"steal: {steal1 - steal0} ticks against {busy1 - busy0} busy ticks")
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    finally:
        reap_all()
    log(f"failed_frac = {failed}/{attempted} = {failed / attempted:.6f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Platform benchmark: seeded engine replay plus open-loop served traffic.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and with it the
program's libraries from src/) into .bench_build/, runs one workload,
checks its outputs, prints per-phase accounting and a metric table, and
prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of an untraced run (every
observation hook null). --trace 1 makes an untraced pass and then a
traced pass under the same seed, and reports the per-layer metrics of the
traced pass plus the tracing overhead on each end-to-end metric. See
perfbench/README.md for the workloads and the metric map.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
BINARY = os.path.join(BUILD_DIR, "mfcp_perfbench")

# Tail percentile of the per-layer timings. Every pooled sample it is
# taken from holds at least 1000 values per run (replay_drift's rounds are
# the fewest: about 34 per stream), so at least MIN_BEYOND lie beyond it.
TAIL = 99
MIN_BEYOND = 10

# replay_drift: distinct seeded streams per run and arrivals per stream.
REPLAY_STREAMS = 48
REPLAY_ARRIVALS = 200
REPLAY_SETUPS = 5

# Served workloads. Rates are frozen from the drain rate measured on the
# unchanged program (see README.md): steady offers about 40% of it,
# overload about twice it. Each run is split into SERVED_PHASES phases,
# each against a freshly started server, so set-up is measured several
# times and server-instance noise averages out.
DRAIN_RATE = 680.0
SERVED = {
    "served_steady": {"rate": 0.4 * DRAIN_RATE, "track_share": 0.25},
    "served_overload": {"rate": 2.0 * DRAIN_RATE, "track_share": 0.0},
}
SERVED_PHASES = 5
# Rates, shares and the median ack are taken per window of the offered
# schedule and reported as the median over the run's windows, so seconds
# of CPU stolen by the host (a shared VM) move a few windows, not the run.
WINDOW_S = 1.0
LOAD_THREADS = 4
POLL_MS = 2
# Validity limit: over a run, the generator must send 90% of its requests
# within this many ms of their due time. A generator that cannot keep up
# falls further behind with every request and breaks it by far; a host
# that steals CPU for a few seconds moves only the far tail
# (bench.gen_late_p99_ms), which stays a reported number.
LATE_Q = 0.9
LATE_LIMIT_MS = 10.0

WORKLOADS = ["replay_drift"] + sorted(SERVED)

# Bounded metrics. Wall-clock throughput and latency are not among them:
# on the shared 4-core VM this was tuned on, host CPU steal of 5-20% for
# tens of seconds at a time moved them 13-41% (interquartile share of the
# median over ten runs), beyond any bound the benchmark may set. They are
# reported as the unbounded bench.* metrics below (BENCH_WALL).
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("tasks_per_cpu_s", "tasks/cpu-s", "higher"),
    ("regret_mean", "1", "lower"),
    ("post_drift_regret", "1", "lower"),
]

# Wall-clock numbers seen from outside, taken from the untraced pass.
BENCH_WALL = [
    ("bench.tasks_per_s", "tasks/s", "higher"),
    ("bench.success_share", "ratio", "higher"),
    ("bench.latency_p50_ms", "ms", "lower"),
    ("bench.ack_p%d_ms" % TAIL, "ms", "lower"),
    ("bench.placement_p50_ms", "ms", "lower"),
    ("bench.placement_p%d_ms" % TAIL, "ms", "lower"),
    ("bench.gen_late_p%d_ms" % TAIL, "ms", "lower"),
]

TERMINAL = ("dispatched", "expired", "rejected")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ----- statistics over raw samples ---------------------------------------

def quantile(values, q):
    """Linear-interpolated quantile of raw samples (q in [0, 1])."""
    if not values:
        raise ValueError("quantile of no samples")
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def beyond(values, q):
    """Number of samples strictly above the q-quantile."""
    cut = quantile(values, q)
    return sum(1 for v in values if v > cut)


def tail_supported(values, percentile):
    return len(values) > 0 and beyond(values, percentile / 100.0) >= MIN_BEYOND


def mean(values):
    return sum(values) / len(values) if values else 0.0


class Values(dict):
    """Metric name -> value, with the sample count behind each value in
    `n`. Starts with every name at 0 (0 samples)."""

    def __init__(self, names):
        super().__init__((name, 0.0) for name in names)
        self.n = dict.fromkeys(self, 0)

    def put(self, name, value, samples):
        self[name] = value
        self.n[name] = samples


# ----- build -------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: program sources (src/) not found under", ROOT)
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed:", " ".join(cmd))
            sys.exit(1)


# ----- inputs ------------------------------------------------------------

FAMILIES = ["cnn", "transformer", "rnn", "mlp"]


def task_body(rng):
    """A task descriptor from the families and datasets tools/loadgen
    draws: CV models on image datasets, NLP models on Europarl."""
    f = rng.randrange(4)
    dataset = "cifar-10"
    if f in (1, 2):
        dataset = "europarl"
    elif rng.random() < 0.3:
        dataset = "imagenet"
    return ('{"family":"%s","dataset":"%s","depth":%d,"width":%d,'
            '"batch_size":%d,"dataset_fraction":%.2f}' % (
                FAMILIES[f], dataset, 2 + rng.randrange(30),
                32 + 32 * rng.randrange(16), 16 + 16 * rng.randrange(16),
                0.1 + 0.9 * rng.random()))


def make_schedule(seed, rate, seconds, track_share):
    """Poisson submit schedule: (due_us, tracked, body), due times in
    [0, seconds). Same seed, same schedule."""
    rng = random.Random(seed)
    out = []
    t = rng.expovariate(rate)
    while t < seconds:
        out.append((int(t * 1e6), rng.random() < track_share, task_body(rng)))
        t += rng.expovariate(rate)
    return out


def write_schedule(path, schedule):
    with open(path, "w") as f:
        for due_us, tracked, body in schedule:
            f.write("%d %d %s\n" % (due_us, 1 if tracked else 0, body))


def lateness_ms(load):
    """Send time minus due time of every submit and every poll (ms)."""
    sub = load["submits"]
    late = [(s - d) / 1e3 for s, d in zip(sub["send_us"], sub["due_us"])]
    for t in load["tracked"]:
        late.extend(v / 1e3 for v in t["poll_late_us"])
    return late


def ack_ms(load):
    """Response time minus due time of every submit, all outcomes (ms)."""
    sub = load["submits"]
    return [(e - d) / 1e3 for e, d in zip(sub["done_us"], sub["due_us"])]


def placement_ms(load):
    """200 to the first poll that saw 'dispatched', per tracked id (ms)."""
    return [(t["placed_us"] - t["ack_us"]) / 1e3 for t in load["tracked"]
            if t["placed_us"] >= 0]


# ----- processes ---------------------------------------------------------

def wait_proc(proc, timeout, what):
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("%s did not finish within %ss" % (what, timeout))


# Loopback only: never route through a proxy named by the environment.
LOCAL = urllib.request.build_opener(urllib.request.ProxyHandler({}))


def http_get(port, path, timeout=2.0):
    try:
        with LOCAL.open("http://127.0.0.1:%d%s" % (port, path),
                        timeout=timeout) as r:
            return r.status
    except (urllib.error.URLError, OSError):
        return 0


def run_replay(seed, seconds, traced, workdir):
    out = os.path.join(workdir, "replay.json")
    cmd = [BINARY, "replay", "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if traced else "0", "--streams", str(REPLAY_STREAMS),
           "--arrivals", str(REPLAY_ARRIVALS), "--setups", str(REPLAY_SETUPS),
           "--out", out]
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if wait_proc(proc, 150, "replay") != 0:
        raise RuntimeError("replay exited with %d" % proc.returncode)
    with open(out) as f:
        return json.load(f)


def run_served_phase(name, seed, phase, seconds, traced, workdir):
    cfg = SERVED[name]
    data_dir = os.path.join(workdir, "data%d" % phase)
    server_out = os.path.join(workdir, "server%d.json" % phase)
    load_out = os.path.join(workdir, "load%d.json" % phase)
    sched_path = os.path.join(workdir, "schedule%d.txt" % phase)
    schedule = make_schedule(seed * 1000 + phase, cfg["rate"], seconds,
                             cfg["track_share"])
    write_schedule(sched_path, schedule)

    t0 = time.monotonic()
    server = subprocess.Popen(
        [BINARY, "serve", "--data-dir", data_dir, "--trace",
         "1" if traced else "0", "--out", server_out],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        line = server.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            raise RuntimeError("server did not report its port")
        port = int(line[1])
        while http_get(port, "/healthz") != 200:
            if server.poll() is not None or time.monotonic() - t0 > 120:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.005)
        setup_s = time.monotonic() - t0

        load = subprocess.Popen(
            [BINARY, "load", "--port", str(port), "--schedule", sched_path,
             "--threads", str(LOAD_THREADS), "--poll-ms", str(POLL_MS),
             "--trace", "1" if traced else "0", "--out", load_out],
            stdout=sys.stderr, stderr=sys.stderr)
        if wait_proc(load, seconds + 90, "load generator") != 0:
            raise RuntimeError("load generator exited with %d" %
                               load.returncode)
        server.send_signal(signal.SIGTERM)
        if wait_proc(server, 60, "server") != 0:
            raise RuntimeError("server exited with %d" % server.returncode)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()
    with open(load_out) as f:
        load_data = json.load(f)
    with open(server_out) as f:
        server_data = json.load(f)
    shutil.rmtree(data_dir, ignore_errors=True)
    return {"setup_s": setup_s, "seconds": seconds, "load": load_data,
            "server": server_data, "scheduled": len(schedule)}


# ----- checks and metrics ------------------------------------------------

class Checks:
    def __init__(self):
        self.failures = []

    def expect(self, ok, what):
        if not ok:
            self.failures.append(what)


def replay_metrics(data, checks):
    reps = data["replays"]
    k = data["streams"]
    first = reps[:k]
    drift_at = data["drift_at_hours"]
    for i, r in enumerate(reps):
        checks.expect(
            r["arrivals"] == r["dispatched"] + r["dropped_capacity"] +
            r["expired"], "replay %d: arrivals != dispatched + dropped + "
            "expired" % i)
        checks.expect(r["attr_invalid"] == 0,
                      "replay %d: rounds without attribution" % i)
        bad = 0
        for g, p, s, rd, a, tot in zip(r["regret"], r["pred_gap"],
                                       r["solver_gap"], r["rounding_gap"],
                                       r["admission_gap"], r["attr_total"]):
            if abs(p + s + rd + a - tot) > 1e-6 or abs(tot - a - g) > 1e-6:
                bad += 1
        checks.expect(bad == 0, "replay %d: %d rounds where pred + solver + "
                      "rounding + admission != regret" % (i, bad))
        if i >= k:
            checks.expect(r["regret"] == reps[i % k]["regret"],
                          "replay %d: per-round regret differs from the "
                          "same-seed replay %d" % (i, i % k))
    checks.expect(len(reps) > k, "replay: no same-seed repeat was run")
    rounds = [g for r in first for g in r["regret"]]
    post = [g for r in first for g, c in zip(r["regret"], r["close_hours"])
            if c > drift_at]
    latency = [v for r in reps for v in r["solve_ms"]]
    arrivals = sum(r["arrivals"] for r in first)
    dispatched = sum(r["dispatched"] for r in first)
    med = statistics.median
    metrics = {
        "setup_s": (med(data["setup_s"]), len(data["setup_s"])),
        "peak_rss_mb": (data["peak_rss_mb"], 1),
        "tasks_per_cpu_s": (med(r["dispatched"] / r["cpu_s"] for r in reps),
                            len(reps)),
        "regret_mean": (mean(rounds), len(rounds)),
        "post_drift_regret": (mean(post), len(post)),
    }
    wall = Values(n for n, _, _ in BENCH_WALL)
    # Medians over replays, so seconds of CPU stolen by the host move a
    # few replays, not the run.
    wall.put("bench.tasks_per_s",
             med(r["dispatched"] / r["wall_s"] for r in reps), len(reps))
    wall.put("bench.success_share", dispatched / arrivals, arrivals)
    wall.put("bench.latency_p50_ms", quantile(latency, 0.5), len(latency))
    accounting = [{
        "phase": "stream%d" % i, "sent": r["arrivals"],
        "succeeded": r["dispatched"], "429": r["dropped_capacity"],
        "other": 0, "transport": 0, "expired": r["expired"]}
        for i, r in enumerate(reps)]
    return metrics, wall, sum(r["arrivals"] for r in reps), 0, accounting


def served_outcomes(phase):
    load = phase["load"]
    status = load["submits"]["status"]
    stats = load["stats"] or {}
    row = {
        "sent": len(status),
        "ok200": sum(1 for s in status if s == 200),
        "429": sum(1 for s in status if s == 429),
        "transport": sum(1 for s in status if s < 0),
        "expired": stats.get("tasks_expired", 0) +
                   stats.get("tasks_rejected", 0),
        "dispatched": stats.get("tasks_dispatched", 0),
    }
    row["other"] = row["sent"] - row["ok200"] - row["429"] - row["transport"]
    return row


def windows(phase, row):
    """Splits one phase's schedule into WINDOW_S windows by due time. Each
    window holds its submits' ack latencies, how many were sent, and its
    goodput: its 200s scaled by the phase's dispatched-per-200 ratio (the
    engine admits at the rate it drains, so a window's 200s track its
    share of the dispatches)."""
    sub = phase["load"]["submits"]
    per_200 = row["dispatched"] / row["ok200"] if row["ok200"] else 0.0
    out = []
    for w in range(int(phase["seconds"] / WINDOW_S + 1e-9)):
        lo, hi = w * WINDOW_S * 1e6, (w + 1) * WINDOW_S * 1e6
        idx = [k for k, d in enumerate(sub["due_us"]) if lo <= d < hi]
        if not idx:
            continue
        ok = sum(1 for k in idx if sub["status"][k] == 200)
        out.append({"sent": len(idx), "goodput": ok * per_200,
                    "ack_ms": [(sub["done_us"][k] - sub["due_us"][k]) / 1e3
                               for k in idx]})
    return out


def served_metrics(name, phases, checks):
    rows = []
    for i, ph in enumerate(phases):
        load, server = ph["load"], ph["server"]
        stats = load["stats"] or {}
        row = served_outcomes(ph)
        rows.append(row)
        checks.expect(load["drained"], "%s phase %d: queue never drained"
                      % (name, i))
        checks.expect(
            stats.get("tasks_queued", -1) == 0 and
            stats.get("tasks_submitted", -1) ==
            stats.get("tasks_matched", 0) + stats.get("tasks_dispatched", 0) +
            stats.get("tasks_expired", 0) + stats.get("tasks_rejected", 0),
            "%s phase %d: /stats conservation failed" % (name, i))
        checks.expect(stats.get("accepted_total", -1) >= row["ok200"],
                      "%s phase %d: more 200s than acceptances" % (name, i))
        checks.expect(ph["scheduled"] == row["sent"],
                      "%s phase %d: schedule not fully sent" % (name, i))
        unfinished = [t for t in load["tracked"] if t["final"] not in TERMINAL]
        checks.expect(not unfinished, "%s phase %d: %d polled ids never "
                      "reached a terminal state" % (name, i, len(unfinished)))
        checks.expect(server["attr_inexact"] == 0,
                      "%s phase %d: inexact regret attribution" % (name, i))
    late = quantile([v for ph in phases for v in lateness_ms(ph["load"])],
                    LATE_Q)
    checks.expect(late <= LATE_LIMIT_MS, "%s: generator p%d lateness %.1f "
                  "ms over the %.0f ms validity limit" % (
                      name, 100 * LATE_Q, late, LATE_LIMIT_MS))
    drift_at = phases[0]["server"]["drift_at_hours"]
    regret = [g for ph in phases for g in ph["server"]["regret"]]
    post = [g for ph in phases
            for g, c in zip(ph["server"]["regret"],
                            ph["server"]["close_hours"]) if c > drift_at]
    wins = [w for ph, r in zip(phases, rows) for w in windows(ph, r)]
    attempted = sum(r["sent"] for r in rows)
    dispatched = sum(r["dispatched"] for r in rows)
    med = statistics.median
    metrics = {
        "setup_s": (med(ph["setup_s"] for ph in phases), len(phases)),
        "peak_rss_mb": (med(ph["server"]["peak_rss_mb"] for ph in phases),
                        len(phases)),
        "tasks_per_cpu_s": (med(r["dispatched"] / ph["server"]["cpu_s"]
                                for r, ph in zip(rows, phases)), dispatched),
        "regret_mean": (mean(regret), len(regret)),
        "post_drift_regret": (mean(post), len(post)),
    }
    loads = [ph["load"] for ph in phases]
    wall = Values(n for n, _, _ in BENCH_WALL)
    wall.put("bench.tasks_per_s", med(w["goodput"] / WINDOW_S for w in wins),
             len(wins))
    wall.put("bench.success_share", med(w["goodput"] / w["sent"]
                                        for w in wins), len(wins))
    wall.put("bench.latency_p50_ms", med(quantile(w["ack_ms"], 0.5)
                                         for w in wins), len(wins))
    percentiles(wall, "bench.ack_p%d_ms",
                [v for ld in loads for v in ack_ms(ld)], TAIL)
    percentiles(wall, "bench.placement_p%d_ms",
                [v for ld in loads for v in placement_ms(ld)], 50, TAIL)
    percentiles(wall, "bench.gen_late_p%d_ms",
                [v for ld in loads for v in lateness_ms(ld)], TAIL)
    checks.expect(regret and post, "%s: no matching rounds closed" % name)
    accounting = [{
        "phase": "phase%d" % i, "sent": r["sent"], "succeeded": r["dispatched"],
        "429": r["429"], "other": r["other"], "transport": r["transport"],
        "expired": r["expired"]} for i, r in enumerate(rows)]
    # Refusals (429) and deadline expiries are the platform's specified
    # answer to overload and count against success_share; an operation
    # fails when it got no valid answer at all.
    failed = sum(r["transport"] + r["other"] for r in rows)
    return metrics, wall, attempted, failed, accounting


# ----- per-layer metrics (traced pass) -----------------------------------

def prom_values(text):
    """name -> value for the unlabelled samples of a Prometheus text
    exposition (enough for counters and histogram _sum/_count)."""
    out = {}
    for line in (text or "").splitlines():
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) == 2 and "{" not in parts[0]:
            try:
                out[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return out


def ratio(num, den):
    return num / den if den else 0.0


def percentiles(out, pattern, values, *pcts):
    """Sets out[pattern % p] to the p-th percentile of raw samples (0 when
    the layer produced none), noting a tail with fewer than MIN_BEYOND
    samples beyond it."""
    for p in pcts:
        out.put(pattern % p, quantile(values, p / 100.0) if values else 0.0,
                len(values))
        if values and p > 50 and not tail_supported(values, p):
            log("note: %s rests on %d samples, fewer than %d beyond it" %
                (pattern % p, len(values), MIN_BEYOND))


STAGES = ("embed", "predict", "match", "attribute", "dispatch")


def engine_layers(out, solve_ms, batches, retrains, spans, wall_ms,
                  queue_waits, batch_waits, counter):
    """The layers run() and serve() share. `spans` maps each stage to its
    span durations (ms); `counter(name)` sums a registry counter, or a
    histogram's _sum/_count, over the pass."""
    percentiles(out, "matching.solve_p%d_ms", solve_ms, 50, TAIL)
    solves = counter("mfcp_matching_solver_iterations_count")
    out.put("matching.iters_per_solve", ratio(
        counter("mfcp_matching_solver_iterations_sum"), solves), solves)
    solves = counter("mfcp_matching_solves_total")
    out.put("matching.capped_share", ratio(
        counter("mfcp_matching_solver_capped_total"), solves), solves)
    out.put("matching.share", ratio(sum(spans["match"]), wall_ms),
            len(spans["match"]))
    percentiles(out, "obs.attribute_p%d_ms", spans["attribute"], 50)
    out.put("obs.attribute_share", ratio(sum(spans["attribute"]), wall_ms),
            len(spans["attribute"]))
    percentiles(out, "mfcp.predict_p%d_ms", spans["predict"], 50)
    percentiles(out, "sim.embed_p%d_ms", spans["embed"], 50)
    percentiles(out, "sim.dispatch_p%d_ms", spans["dispatch"], 50)
    staged = sum(sum(v) for v in spans.values())
    out.put("engine.other_share", 1.0 - ratio(staged, wall_ms),
            sum(map(len, spans.values())))
    out.put("engine.batch_mean", mean(batches), len(batches))
    out.put("engine.rounds_per_s", 1e3 * ratio(len(batches), wall_ms),
            len(batches))
    out.put("engine.retrains", float(retrains), len(batches))
    percentiles(out, "engine.queue_wait_p%d_h", queue_waits, 50, TAIL)
    percentiles(out, "engine.batch_wait_p%d_h", batch_waits, TAIL)
    waits = counter("mfcp_pool_queue_wait_seconds_count")
    out.put("parallel.pool_wait_mean_ms", 1e3 * ratio(
        counter("mfcp_pool_queue_wait_seconds_sum"), waits), waits)


LAYERS = [
    ("matching.solve_p50_ms", "ms", "lower"),
    ("matching.solve_p%d_ms" % TAIL, "ms", "lower"),
    ("matching.iters_per_solve", "iters", "lower"),
    ("matching.capped_share", "ratio", "lower"),
    ("matching.share", "ratio", "lower"),
    ("obs.attribute_p50_ms", "ms", "lower"),
    ("obs.attribute_share", "ratio", "lower"),
    ("mfcp.predict_p50_ms", "ms", "lower"),
    ("sim.embed_p50_ms", "ms", "lower"),
    ("sim.dispatch_p50_ms", "ms", "lower"),
    ("engine.other_share", "ratio", "lower"),
    ("engine.batch_mean", "tasks", "higher"),
    ("engine.rounds_per_s", "1/s", "higher"),
    ("engine.retrains", "count", "lower"),
    ("engine.queue_wait_p50_h", "h", "lower"),
    ("engine.queue_wait_p%d_h" % TAIL, "h", "lower"),
    ("engine.batch_wait_p%d_h" % TAIL, "h", "lower"),
    ("engine.reject_429_share", "ratio", "lower"),
    ("engine.expired_share", "ratio", "lower"),
    ("parallel.pool_wait_mean_ms", "ms", "lower"),
    ("net.server_p50_ms", "ms", "lower"),
    ("net.server_p%d_ms" % TAIL, "ms", "lower"),
    ("net.transport_fail_share", "ratio", "lower"),
    ("storage.fsyncs_per_ack", "1/ack", "lower"),
    ("storage.wal_bytes_per_ack", "B/ack", "lower"),
]

# Reported with --trace 1: the traced pass's layers, the untraced pass's
# wall-clock numbers, and the price of tracing.
PER_LAYER = LAYERS + BENCH_WALL + [
    ("bench.trace_overhead_pct." + n.split(".")[-1], "%", "lower")
    for n, _, _ in END_TO_END + BENCH_WALL[:1]]


def layer_defaults():
    """Every layer metric, zero where the workload bypasses the layer
    (replay_drift has no gateway or WAL)."""
    return Values(n for n, _, _ in LAYERS)


def replay_layers(data):
    out = layer_defaults()
    reps = data["replays"]
    flat = []
    for r in reps:
        f = dict(r["trace"]["counters"])
        for name, h in r["trace"]["histograms"].items():
            f[name + "_sum"], f[name + "_count"] = h["sum"], h["count"]
        flat.append(f)
    engine_layers(
        out, [v for r in reps for v in r["solve_ms"]],
        [b for r in reps for b in r["batch"]],
        sum(r["retrains"] for r in reps),
        {s: [v for r in reps for v in r["trace"]["span_%s_ms" % s]]
         for s in STAGES},
        1e3 * sum(r["wall_s"] for r in reps),
        [v for r in reps for v in r["trace"]["queue_wait_h"]],
        [v for r in reps for v in r["trace"]["batch_wait_h"]],
        lambda name: sum(f.get(name, 0) for f in flat))
    arrivals = sum(r["arrivals"] for r in reps)
    out.put("engine.reject_429_share", ratio(
        sum(r["dropped_capacity"] for r in reps), arrivals), arrivals)
    out.put("engine.expired_share", ratio(
        sum(r["expired"] for r in reps), arrivals), arrivals)
    complete = all(r["trace"]["ring_recorded"] <= r["trace"]["ring_capacity"]
                   for r in reps)
    return out, complete


def trace_waits(traces, span_name):
    """Durations (sim hours) of one span kind across /trace/<id> chains."""
    out = []
    for t in traces:
        for i in range(int(t.get("spans", 0))):
            if t.get("s%d_name" % i) == span_name:
                out.append(t["s%d_end_hours" % i] - t["s%d_start_hours" % i])
    return out


def served_layers(phases):
    out = layer_defaults()
    servers = [ph["server"] for ph in phases]
    loads = [ph["load"] for ph in phases]
    proms = [prom_values(ld["metrics_text"]) for ld in loads]
    traces = [t for ld in loads for t in ld["traces"]]
    engine_layers(
        out, [v for s in servers for v in s["solve_ms"]],
        [b for s in servers for b in s["batch"]],
        sum(s["retrains"] for s in servers),
        {st: [v for s in servers for v in s["trace"]["span_%s_ms" % st]]
         for st in STAGES},
        1e3 * sum(s["wall_s"] for s in servers),
        trace_waits(traces, "queue_wait"), trace_waits(traces, "batch"),
        lambda name: sum(p.get(name, 0.0) for p in proms))
    rows = [served_outcomes(ph) for ph in phases]
    attempted = sum(r["sent"] for r in rows)
    accepted = sum(r["ok200"] for r in rows)
    for name, key in (("engine.reject_429_share", "429"),
                      ("engine.expired_share", "expired"),
                      ("net.transport_fail_share", "transport")):
        out.put(name, ratio(sum(r[key] for r in rows), attempted), attempted)
    percentiles(out, "net.server_p%d_ms",
                [v for s in servers
                 for v in s["trace"]["span_gateway_submit_ms"]], 50, TAIL)
    storage = [ld["debug_storage"] or {} for ld in loads]
    out.put("storage.fsyncs_per_ack", ratio(
        sum(s.get("wal_fsyncs", 0) for s in storage), accepted), accepted)
    out.put("storage.wal_bytes_per_ack", ratio(
        sum(s.get("wal_bytes", 0) for s in storage), accepted), accepted)
    complete = all(s["trace"]["ring_recorded"] <= s["trace"]["ring_capacity"]
                   for s in servers)
    return out, complete


# ----- one pass ----------------------------------------------------------

class Pass:
    """One run of a workload: end-to-end metrics as {name: (value,
    samples)}, the bench.* wall-clock numbers, outcome counts, the
    accounting rows, its checks and, when traced, the per-layer metrics."""

    def __init__(self, workload, seed, seconds, traced, workdir):
        self.checks = Checks()
        self.layers = None
        os.makedirs(workdir, exist_ok=True)
        if workload == "replay_drift":
            data = run_replay(seed, seconds, traced, workdir)
            (self.metrics, self.wall, self.attempted, self.failed,
             self.accounting) = replay_metrics(data, self.checks)
            if traced:
                self.layers, complete = replay_layers(data)
                self.checks.expect(complete, "replay: trace ring overflowed")
            return
        phase_s = seconds / SERVED_PHASES
        phases = [run_served_phase(workload, seed, p, phase_s, traced,
                                   workdir) for p in range(SERVED_PHASES)]
        (self.metrics, self.wall, self.attempted, self.failed,
         self.accounting) = served_metrics(workload, phases, self.checks)
        if traced:
            self.layers, complete = served_layers(phases)
            self.checks.expect(complete, "%s: trace ring overflowed" %
                               workload)
            wanted = sum(1 for ph in phases
                         for s in ph["load"]["submits"]["status"][
                             ::ph["load"]["trace_every"]] if s == 200)
            got = sum(len(ph["load"]["traces"]) for ph in phases)
            self.checks.expect(got == wanted, "%s: %d of %d sampled ids had "
                               "no /trace chain" % (workload, wanted - got,
                                                    wanted))


def overhead_pct(base, traced, better):
    """How much worse the traced value is, in percent of the untraced one
    (negative: the traced pass read better)."""
    if not base:
        return 0.0
    worse = traced - base if better == "lower" else base - traced
    return 100.0 * worse / base + 0.0


def print_accounting(label, accounting):
    log("%s per-phase accounting:" % label)
    log("  %-9s %7s %9s %6s %6s %9s %8s" % ("phase", "sent", "succeeded",
                                            "429", "other", "transport",
                                            "expired"))
    for row in accounting:
        log("  %-9s %7d %9d %6d %6d %9d %8d" % (
            row["phase"], row["sent"], row["succeeded"], row["429"],
            row["other"], row["transport"], row["expired"]))


def keep_spans(workdir, workload, seed):
    """Moves the benchmark's own spans of the traced pass (one JSONL file
    per process) out of the run's scratch directory."""
    dest = os.path.join(RUNS_DIR, "spans", "%s-seed%d" % (workload, seed))
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    traced = os.path.join(workdir, "traced")
    for name in sorted(os.listdir(traced)):
        if name.endswith(".spans.jsonl"):
            shutil.move(os.path.join(traced, name), dest)
    log("benchmark spans of the traced pass:", dest)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build()
    workdir = os.path.join(RUNS_DIR, "%s-%d-%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    try:
        plain = Pass(args.workload, args.seed, args.seconds, False,
                     os.path.join(workdir, "untraced"))
        checks, attempted, failed = plain.checks, plain.attempted, plain.failed
        print_accounting(args.workload, plain.accounting)
        units = {n: (u, b) for n, u, b in END_TO_END}
        log("%s end-to-end (untraced):" % args.workload)
        for name, (value, samples) in plain.metrics.items():
            log("  %-24s %14.6f %-12s n=%-7d %s is better" % (
                name, value, units[name][0], samples, units[name][1]))
        for name, unit, better in BENCH_WALL:
            log("  %-24s %14.6f %-12s n=%-7d %s is better (unbounded)" % (
                name, plain.wall[name], unit, plain.wall.n[name], better))
        result_metrics = {n: {"value": plain.metrics[n][0], "unit": u}
                          for n, u, _ in END_TO_END}
        if args.trace:
            traced = Pass(args.workload, args.seed, args.seconds, True,
                          os.path.join(workdir, "traced"))
            print_accounting(args.workload + " (traced)", traced.accounting)
            checks.failures.extend(traced.checks.failures)
            attempted += traced.attempted
            failed += traced.failed
            layers = traced.layers
            for name in plain.wall:
                layers.put(name, plain.wall[name], plain.wall.n[name])
            # Each overhead compares one value of each pass.
            for name, _, better in END_TO_END:
                layers.put("bench.trace_overhead_pct." + name, overhead_pct(
                    plain.metrics[name][0], traced.metrics[name][0], better),
                    2)
            layers.put("bench.trace_overhead_pct.tasks_per_s", overhead_pct(
                plain.wall["bench.tasks_per_s"],
                traced.wall["bench.tasks_per_s"], "higher"), 2)
            log("%s per-layer (traced; bench.* wall-clock from the untraced "
                "pass):" % args.workload)
            for name, unit, better in PER_LAYER:
                log("  %-42s %14.6f %-6s n=%-7d %s is better" % (
                    name, layers[name], unit, layers.n[name], better))
            result_metrics = {n: {"value": layers[n], "unit": u}
                              for n, u, _ in PER_LAYER}
        for f in checks.failures:
            log("CHECK FAILED:", f)
        result = {"correct": not checks.failures, "attempted": int(attempted),
                  "failed": int(failed), "metrics": result_metrics}
        if args.trace:
            keep_spans(workdir, args.workload, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

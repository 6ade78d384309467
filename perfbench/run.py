#!/usr/bin/env python3
"""End-to-end benchmark of topocmp.

Run from the root of a topocmp checkout:

    python3 perfbench/run.py --workload suite-j1 --seed 1 --seconds 32 --trace 0

It builds cmd/topocmpd (and, for --trace 1, the in-process tracer) from the
checkout into .bench_build/, starts the daemon as a child process, drives one
workload against it in rounds, checks every response and prints one JSON
object as the last line of stdout: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json, with --trace 1 the per-layer ones. perfbench/README.md
describes the workloads and metrics.

    suite-j1   topocmpd -j 1, one closed-loop client, full suites (hierarchy
               included), every request computed
    serve-mix  topocmpd -j 1, 2 closed-loop clients, metric and suite
               requests with repeats, in-flight duplicates and coalescing

A round sends the same composition of requests at one request seed. A run
sends rounds at request seeds 1..R, where R is --seconds over the workload's
nominal round time (at least MIN_ROUNDS, at most 8), so every run of a
workload does the same work; --seed decides the order. Each round runs
against a daemon of its own, and the metrics are medians over rounds or
requests.

--record rewrites the reference digests in perfbench/ref/.
"""

import argparse
import hashlib
import http.client
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
REF = os.path.join(HERE, "ref")

# One worker: a request's compute runs alone on one core, so a round's work
# does not depend on how the two clients' requests happen to overlap.
DAEMON_J = "1"
MIN_ROUNDS = 3
NOMINAL_ROUND_S = {"suite-j1": 8.0, "serve-mix": 6.5}

# The request space: the 9 table networks at the quick set.
NETWORKS = ["AS", "RL", "PLRG", "TS", "Tiers", "Waxman", "Mesh", "Random", "Tree"]
SERVE_SET = {"Seed": 1, "Scale": 0.12}
METRIC_SOURCES = [64, 128, 256]
SEEDS = range(1, 9)  # request seeds, one per round
# experiments.QuickConfig(seed).Suite, except that suite-j1 uses 192 link
# sources instead of 384: a round's daemon then peaks near 0.86 GB, where a
# daemon running several rounds at 384 reached 3.1 GB.
QUICK_SUITE = {"Sources": 12, "MaxBallSize": 1500, "EigenRank": 20, "LinkSources": 384}
SUITE_LINK_SOURCES = 192

# serve-mix, per round and client. The mix is assumed, not measured: no
# request log of topocmpd exists. A round sends each of its 9 suite and 54
# metric bodies once, plus 23 repeats: 86 requests, 14 of them suites.
# Joint steps are sent by both clients at once, after a barrier: a dedup
# step sends one fresh body twice, so one copy computes and the other
# attaches to it in flight; a coalesce step sends two fresh metric bodies on
# one network, so their centers share one sweep. The other repeats are solo:
# a client re-sends one of its own earlier bodies of the round, which the
# memo serves.
CLIENTS = 2
JOINT_SUITES = 1
JOINT_METRICS = 2
COALESCE_PAIRS = 5
SOLO_SUITE_REPEATS = 2   # per client
SOLO_METRIC_REPEATS = 8  # per client

# The gated metrics are CPU time and memory. The host's hypervisor takes
# 2-25% of the CPU for other guests (steal), and over five runs that moved a
# round's wall time by 37% while its CPU time moved by 3%. The wall-clock
# figures are per-layer serve.* metrics of the traced run.
END_TO_END = {"cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def go_env():
    env = dict(os.environ)
    for d in ("gocache", "gopath", "tmp"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    env.update(GOCACHE=os.path.join(BUILD, "gocache"), GOPATH=os.path.join(BUILD, "gopath"),
               GOTMPDIR=os.path.join(BUILD, "tmp"), GOTOOLCHAIN="local", GOENV="off",
               GOPROXY="off", GOFLAGS="", CGO_ENABLED="0")
    return env


def build(tracer):
    """Builds the daemon (and the tracer) from the checkout."""
    if not (os.path.isfile(os.path.join(ROOT, "go.mod"))
            and os.path.isdir(os.path.join(ROOT, "cmd", "topocmpd"))):
        die("run from the root of a topocmp checkout (no go.mod or cmd/topocmpd here)")
    if shutil.which("go") is None:
        die("the go toolchain is not on PATH")
    env = go_env()
    os.makedirs(BIN, exist_ok=True)
    steps = [(ROOT, ["go", "build", "-o", BIN + os.sep, "./cmd/topocmpd"])]
    if tracer:
        steps.append((os.path.join(HERE, "tracer"),
                      ["go", "build", "-o", os.path.join(BIN, "tracer"), "."]))
    for cwd, cmd in steps:
        r = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=850)
        if r.returncode != 0:
            die("build failed: %s\n%s" % (" ".join(cmd), r.stdout + r.stderr))


def wait_child(p, timeout):
    """Waits for p (killing it after timeout seconds) and returns its rusage."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, ru = os.wait4(p.pid, os.WNOHANG)
        if pid == p.pid:
            p.returncode = os.waitstatus_to_exitcode(status)
            return ru
        if time.monotonic() > deadline:
            p.kill()
            deadline = math.inf
        time.sleep(0.005)


def quantile(xs, q):
    """Nearest-rank quantile: len(xs) - ceil(q * len(xs)) samples lie beyond it."""
    s = sorted(xs)
    return s[max(1, math.ceil(q * len(s))) - 1]


def read_json(path):
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------- requests

def canon(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def metric_body(net, metric, sources, seed):
    return ("/v1/metric", canon({"Network": net, "Set": SERVE_SET, "Metric": metric,
                                 "Sources": sources, "Seed": seed}))


def suite_body(net, seed, hierarchy):
    suite = dict(QUICK_SUITE, Seed=seed)
    if hierarchy:
        suite["LinkSources"] = SUITE_LINK_SOURCES
    else:
        suite["SkipHierarchy"] = True
    return ("/v1/suite", canon({"Network": net, "Set": SERVE_SET, "Suite": suite}))


def serve_space(seed):
    """serve-mix's fresh metric and suite bodies at one request seed."""
    metrics = [metric_body(n, m, s, seed) for n in NETWORKS
               for m in ("expansion", "eccentricity") for s in METRIC_SOURCES]
    suites = [suite_body(n, seed, False) for n in NETWORKS]
    return metrics, suites


def round_seeds(seed, n):
    """The request seeds 1..n of a run's rounds, in an order that is a pure
    function of seed."""
    rng = random.Random(seed * 1000003)
    seeds = list(SEEDS)[:n]
    rng.shuffle(seeds)
    return rng, seeds


def round_count(workload, seconds):
    n = round(seconds / NOMINAL_ROUND_S[workload])
    return max(MIN_ROUNDS, min(len(SEEDS), n))


def suite_rounds(seed, n):
    """suite-j1: per round, one client sends the full suite of every network
    at the round's request seed. The networks keep one order: the daemon's
    peak RSS follows the order of the large link-value computations, and
    with the order fixed it repeats within about 1%."""
    _, seeds = round_seeds(seed, n)
    return [[[("suite", suite_body(net, s, True), False) for net in NETWORKS]] for s in seeds]


def serve_rounds(seed, n):
    """serve-mix: per round, the two clients' request lists. An entry is
    (kind, (path, body), joint); the i-th joint entries of the two lists are
    sent together. Every round has the same composition; the seed decides
    the rounds' request seeds, which bodies are joint, which client sends
    each solo body, the order and which bodies repeat."""
    rng, seeds = round_seeds(seed, n)
    return [serve_client_seqs(rng, s) for s in seeds]


def serve_client_seqs(rng, s):
    metrics, suites = serve_space(s)
    rng.shuffle(metrics)
    rng.shuffle(suites)
    joint = [("suite", b, b) for b in suites[:JOINT_SUITES]]
    joint += [("metric", b, b) for b in metrics[:JOINT_METRICS]]
    suites, metrics = suites[JOINT_SUITES:], metrics[JOINT_METRICS:]
    for _ in range(COALESCE_PAIRS):
        a = metrics.pop()
        net = json.loads(a[1])["Network"]
        b = metrics.pop(next(i for i in range(len(metrics) - 1, -1, -1)
                             if json.loads(metrics[i][1])["Network"] == net))
        joint.append(("metric", a, b))
    rng.shuffle(joint)

    solos = []
    for c in range(CLIENTS):
        seq = [("suite", b) for b in suites[c::CLIENTS]] + [("metric", b) for b in metrics[c::CLIENTS]]
        rng.shuffle(seq)
        for kind in ["suite"] * SOLO_SUITE_REPEATS + ["metric"] * SOLO_METRIC_REPEATS:
            first = next(i for i, (k, _) in enumerate(seq) if k == kind)
            p = rng.randint(first + 1, len(seq))
            seq.insert(p, rng.choice([e for e in seq[:p] if e[0] == kind]))
        solos.append(seq)
    n = len(solos[0]) + len(joint)
    if any(len(q) + len(joint) != n for q in solos):
        raise AssertionError("client sequences differ in length")
    at = set(rng.sample(range(n), len(joint)))
    seqs = []
    for c in range(CLIENTS):
        solo, js = iter(solos[c]), iter(joint)
        seq = []
        for i in range(n):
            if i in at:
                kind, *bodies = next(js)
                seq.append((kind, bodies[c], True))
            else:
                seq.append((*next(solo), False))
        seqs.append(seq)
    return seqs


# ---------------------------------------------------------------- daemon

class Daemon:
    def __init__(self, extra=()):
        self.t0 = time.monotonic()
        self.p = subprocess.Popen([os.path.join(BIN, "topocmpd"), "-addr", "127.0.0.1:0", "-j", DAEMON_J,
                                   *extra], stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        self.drain = None
        line = self.p.stdout.readline().decode()
        if "listening on http://" not in line:
            self.stop(kill=True)
            die("topocmpd did not start: " + line)
        hostport = line.split("http://", 1)[1].split()[0]
        self.host, port = hostport.rsplit(":", 1)
        self.port = int(port)
        self.drain = threading.Thread(target=self.p.stdout.read, daemon=True)
        self.drain.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.p.returncode is None:
            self.stop(kill=True)

    def conn(self):
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def get(self, path):
        c = self.conn()
        c.request("GET", path)
        r = c.getresponse()
        body = r.read()
        c.close()
        if r.status != 200:
            die("GET %s: %d" % (path, r.status))
        return body

    def cpu_s(self):
        """The daemon's CPU time so far, summed over its threads' schedstat
        (nanoseconds on CPU, without the time the hypervisor stole)."""
        ns = 0
        tasks = "/proc/%d/task" % self.p.pid
        for t in os.listdir(tasks):
            try:
                with open(os.path.join(tasks, t, "schedstat")) as f:
                    ns += int(f.read().split()[0])
            except FileNotFoundError:  # the thread exited
                pass
        return ns / 1e9

    def warm(self):
        """Sends one cheap metric request per network (2 clients), so lazy
        network builds happen here and not in the timed loop."""
        self.get("/healthz")
        errors = []

        def worker(nets):
            c = self.conn()
            for n in nets:
                path, body = metric_body(n, "expansion", 4, 1000)
                c.request("POST", path, body=body)
                r = c.getresponse()
                r.read()
                if r.status != 200:
                    errors.append("%s: %d" % (n, r.status))
            c.close()
        ts = [threading.Thread(target=worker, args=(NETWORKS[i::2],)) for i in range(2)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        if errors:
            die("warm-up failed: " + ", ".join(errors))
        return time.monotonic() - self.t0

    def stop(self, kill=False):
        self.p.send_signal(signal.SIGKILL if kill else signal.SIGTERM)
        ru = wait_child(self.p, 60)
        if self.drain:
            self.drain.join(10)
        self.p.stdout.close()
        return ru


def client_loop(d, seqs, ri=0):
    """Runs one round: each client is a closed loop over its list. A
    client waits for the others at each joint entry, so joint requests
    arrive together. Returns the records, the round's wall time and the
    daemon's CPU time in it. A record is (kind, key, latency_ms, status,
    source, body sha256, start, end, round ri), with start and end on the
    perf_counter clock."""
    n = len(seqs)
    records = [[] for _ in range(n)]
    marks = []  # (monotonic time, daemon cpu) at the start and the end
    edge = threading.Barrier(n, action=lambda: marks.append((time.monotonic(), d.cpu_s())), timeout=170)
    meet = threading.Barrier(n, timeout=170)

    def worker(i):
        c = d.conn()
        edge.wait()
        for kind, (path, body), joint in seqs[i]:
            if joint:
                meet.wait()
            t = time.perf_counter()
            try:
                c.request("POST", path, body=body, headers={"Content-Type": "application/json"})
                r = c.getresponse()
                data = r.read()
                t1 = time.perf_counter()
                rec = (kind, body, (t1 - t) * 1e3, r.status,
                       r.getheader("X-Topocmp-Source"), hashlib.sha256(data).hexdigest(), t, t1, ri)
            except (OSError, http.client.HTTPException) as e:
                t1 = time.perf_counter()
                rec = (kind, body, (t1 - t) * 1e3, 0, None, repr(e), t, t1, ri)
                c.close()
                c = d.conn()
            records[i].append(rec)
        edge.wait()
        c.close()
    ts = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    (t0, c0), (t1, c1) = marks
    return [r for rs in records for r in rs], t1 - t0, c1 - c0


def check(records, ref):
    """Counts failed requests: a non-200 status, a body that differs from
    the recorded reference, or one that differs from an earlier response to
    the same body in this run."""
    failed, seen = 0, {}
    for kind, key, _, status, source, sha, *_ in records:
        first = seen.setdefault(key, sha)
        if status != 200 or sha != first or ref.get(key) != sha:
            failed += 1
            print("perfbench: FAIL %s %s status=%s source=%s" % (kind, key, status, source), file=sys.stderr)
    return failed


def prometheus(text):
    vals = {}
    for line in text.decode().splitlines():
        if line and not line.startswith("#"):
            name, v = line.rsplit(" ", 1)
            vals[name] = float(v)
    return vals


def host_cpu():
    """The host's CPU time counters (/proc/stat's cpu line), in ticks."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def run_workload(workload, seed, seconds, trace):
    """Runs each round against a daemon of its own, so every round is an
    independent repetition of set-up, work and peak memory."""
    n = round_count(workload, seconds)
    rounds = suite_rounds(seed, n) if workload == "suite-j1" else serve_rounds(seed, n)
    ref = read_json(os.path.join(REF, "suite.json" if workload == "suite-j1" else "serve.json"))
    records, per_round, setups, setup_walls, rss, deltas, events = [], [], [], [], [], {}, []
    h0 = host_cpu()
    for ri, rnd in enumerate(rounds):
        with Daemon(["-trace"] if trace else []) as d:
            setup_walls.append(d.warm())
            setups.append(d.cpu_s())
            before = prometheus(d.get("/metrics")) if trace else {}
            recs, wall, cpu = client_loop(d, rnd, ri)
            if trace:
                for k, v in prometheus(d.get("/metrics")).items():
                    deltas[k] = deltas.get(k, 0.0) + v - before.get(k, 0.0)
                events += json.loads(d.get("/debug/trace?format=chrome")).get("traceEvents", [])
            rss.append(d.stop().ru_maxrss / 1024)
        records += recs
        per_round.append((wall, cpu))
    h = [b - a for a, b in zip(h0, host_cpu())]
    failed = check(records, ref)
    ok = [r for r in records if r[3] == 200]
    if not ok:
        die("no request succeeded")
    rps = [sum(1 for r in ok if r[8] == ri) / wall for ri, (wall, _) in enumerate(per_round)]
    m = {
        "cpu_s": statistics.median(c for _, c in per_round),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setups),
        "serve.round_wall_s": statistics.median(w for w, _ in per_round),
        "serve.throughput_rps": statistics.median(rps),
        "serve.request_p50_ms": statistics.median(r[2] for r in ok),
        "serve.setup_wall_s": statistics.median(setup_walls),
    }
    # Steal is CPU time the hypervisor gave to other guests: a diagnostic
    # for the wall-clock figures, not a metric.
    print("perfbench: %d rounds, %d requests, round walls %s, round cpu %s, host steal %.1f%%" % (
        len(per_round), len(records), " ".join("%.2f" % w for w, _ in per_round),
        " ".join("%.2f" % c for _, c in per_round), 100 * h[7] / max(1, sum(h))), file=sys.stderr)
    if trace:
        m.update(daemon_layers(records, per_round, len(rounds[0]), deltas, events))
        m.update(tracer_layers(workload))
        failed += m.pop("mismatches")
    return m, len(records), failed


# ---------------------------------------------------------------- traced

def daemon_layers(records, per_round, clients, deltas, events):
    """Per-layer values seen from outside the daemons: response headers,
    /metrics counter deltas and the daemons' own per-request stage spans."""
    def delta(name):
        return deltas.get(name, 0.0)
    n = len(records)
    by_source = {}
    for r in records:
        by_source.setdefault(r[4], []).append(r[2])
    m = {
        "serve.computed_frac": len(by_source.get("computed", [])) / n,
        "serve.dedup_frac": len(by_source.get("dedup", [])) / n,
        "serve.cache_frac": len(by_source.get("cache", [])) / n,
        "serve.computed_p50_ms": quantile(by_source.get("computed", [0.0]), 0.5),
        "serve.hit_p50_ms": quantile(by_source.get("dedup", []) + by_source.get("cache", []) or [0.0], 0.5),
    }
    lat = {k: [r[2] for r in records if r[0] == k] or [0.0] for k in ("metric", "suite")}
    m["serve.metric_p95_ms"] = quantile(lat["metric"], 0.95)
    m["serve.suite_p50_ms"] = quantile(lat["suite"], 0.50)
    m["serve.suite_p90_ms"] = quantile(lat["suite"], 0.90)
    for k in ("suite_runs", "metric_runs", "dedup_hits", "coalesce_batches", "rejected"):
        m["serve." + k] = delta("serve_%s_total" % k)
    batches = delta("serve_coalesce_batches_total")
    m["serve.sources_per_batch"] = delta("serve_coalesced_sources_total") / batches if batches else 0.0
    # Every computed metric request joins exactly one sweep batch.
    m["serve.requests_per_batch"] = m["serve.metric_runs"] / batches if batches else 0.0
    m["serve.inflight_dedup_frac"] = inflight_dedups(records) / n
    for k in ("profiles", "bfs_visits", "msbfs_batches", "msbfs_sources", "dist_scalar", "brandes_batches"):
        m["ball." + k] = delta("ball_%s_total" % k)
    gets = delta("ball_kernel_gets_total")
    m["ball.kernel_reuse"] = 1 - delta("ball_kernel_allocs_total") / gets if gets else 0.0
    for k in ("sigma_batches", "sigma_scalar"):
        m["hierarchy." + k] = delta("hierarchy_%s_total" % k)

    # Busy time per suite stage, from the daemon's own per-request spans
    # (-trace). At -j 1 a suite's stages run one after another.
    busy = {}
    for ev in events:
        name = "suite" if ev["name"].startswith("suite:") else ev["name"]
        busy[name] = busy.get(name, 0.0) + ev["dur"] / 1e6
    for k in ("expansion", "resilience", "distortion", "eccentricity", "vertex_cover",
              "biconnectivity", "clustering"):
        m["metrics.%s_s" % k] = busy.get(k, 0.0)
    m["metrics.tolerance_s"] = busy.get("attack_tolerance", 0.0) + busy.get("error_tolerance", 0.0)
    m["linalg.eigen_s"] = busy.get("eigenvalues", 0.0)
    m["hierarchy.link_values_s"] = busy.get("link_values", 0.0)
    m["hierarchy.policy_link_values_s"] = busy.get("policy_link_values", 0.0)
    m["core.suite_s"] = busy.get("suite", 0.0)
    m["core.policy_curves_s"] = busy.get("policy_expansion", 0.0) + busy.get("policy_ball_curves", 0.0)

    # Client-side accounting: the time the clients spent waiting on replies
    # against the loop's wall time.
    wall = sum(w for w, _ in per_round)
    waited = sum(r[2] for r in records) / 1e3 / clients
    m["trace.wall_s"] = wall
    m["trace.layers_s"] = waited
    m["trace.gap_s"] = wall - waited
    return m


def inflight_dedups(records):
    """Counts dedup responses whose request started before the computed
    response to the same body ended: they attached to a running flight. The
    daemon also labels memo hits "dedup", so the header alone cannot tell."""
    computed_end = {r[1]: r[7] for r in records if r[4] == "computed"}
    return sum(1 for r in records if r[4] == "dedup" and r[6] < computed_end.get(r[1], -math.inf))


# Per-layer values that only the in-process tracer can see.
BUILD_LAYERS = ("gen.build_s", "gen.alloc_mb", "measure.build_s", "measure.alloc_mb",
                "bgp.paths_collected", "traceroute.routers_discovered")
PIPELINE_LAYERS = BUILD_LAYERS + (
    "hierarchy.alloc_mb", "hierarchy.heap_high_mb", "experiments.prefetch_s", "experiments.panels_s",
    "experiments.fig11_s", "experiments.sem_wait_s", "pipeline.network_builds", "pipeline.suite_runs",
    "plot.write_s", "plot.bytes", "trace.pipeline_s")


def tracer_layers(workload):
    """Runs the tracer on experiments.QuickConfig(1). serve-mix: the network
    builds of the quick set, attributed to the
    generator and measurement layers. suite-j1: the whole quick pipeline in
    process at P=1, which also attributes hierarchy memory and the layers no
    request reaches (experiments, plot), and checks its own metric calls
    against core.RunSuite byte for byte."""
    full = workload == "suite-j1"
    cmd = [os.path.join(BIN, "tracer")]
    cmd += ["-out", os.path.join(BUILD, "dat-%d" % os.getpid())] if full else ["-builds-only"]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    finally:
        if full:
            shutil.rmtree(cmd[-1], ignore_errors=True)
    if r.returncode != 0:
        die("tracer failed: " + r.stderr[-2000:])
    res = json.loads(r.stdout.strip().splitlines()[-1])
    for mm in res.get("mismatches") or []:
        print("perfbench: FAIL traced consistency: " + mm, file=sys.stderr)
    m = {k: res["metrics"][k] for k in (PIPELINE_LAYERS if full else BUILD_LAYERS)}
    m["mismatches"] = len(res.get("mismatches") or [])
    return m


# ---------------------------------------------------------------- main

def per_layer_units():
    return {m["name"]: m["unit"] for m in read_json(os.path.join(ROOT, "BENCHMARK.json"))["per_layer"]}


def record():
    """Rewrites ref/serve.json and ref/suite.json from the current checkout."""
    build(tracer=False)
    serve, suites = [], []
    for s in SEEDS:
        metrics, ss = serve_space(s)
        serve += metrics + ss
        suites += [suite_body(n, s, True) for n in NETWORKS]
    os.makedirs(REF, exist_ok=True)
    for name, bodies in (("serve.json", serve), ("suite.json", suites)):
        seqs = [[("record", b, False) for b in bodies[i::CLIENTS]] for i in range(CLIENTS)]
        with Daemon() as d:
            d.warm()
            records, _, _ = client_loop(d, seqs)
        if any(r[3] != 200 for r in records):
            die("a reference request failed")
        dst = os.path.join(REF, name)
        with open(dst, "w") as f:
            json.dump({r[1]: r[5] for r in records}, f, indent=1, sort_keys=True)
            f.write("\n")
        print("wrote %s (%d bodies)" % (dst, len(records)))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["suite-j1", "serve-mix"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=32)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true", help="rewrite the reference digests in perfbench/ref/")
    a = ap.parse_args()
    if a.record:
        return record()
    if not a.workload:
        ap.error("--workload is required")
    build(tracer=bool(a.trace))
    vals, attempted, failed = run_workload(a.workload, a.seed, a.seconds, a.trace)
    units = per_layer_units() if a.trace else END_TO_END
    # A layer this workload does not exercise reports 0.
    metrics = {k: {"value": float(vals.get(k, 0.0)), "unit": u} for k, u in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
